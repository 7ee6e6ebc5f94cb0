//! The private L1 data cache with transactional read/write bits.
//!
//! Commercial HTMs buffer speculative state in the L1 and associate a read
//! bit and a write bit with each line (Section II-A). DHTM keeps that
//! arrangement: the write bit marks lines belonging to the current
//! transaction's write set; the read bit marks the read set. On commit the
//! read bits are flash-cleared while write bits are cleared lazily as each
//! line is written back (Section III-B); on abort the write-set lines are
//! flash-invalidated.

use dhtm_types::addr::{LineAddr, LineData, WordIndex};
use dhtm_types::config::CacheGeometry;

use crate::mesi::MesiState;
use crate::set_assoc::SetAssocCache;

/// Per-line L1 state: coherence state, data, dirty flag and the transactional
/// read/write bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1Entry {
    /// MESI state of the line in this cache.
    pub state: MesiState,
    /// Line contents.
    pub data: LineData,
    /// The line has been modified relative to the LLC/memory copy.
    pub dirty: bool,
    /// The line is in the current transaction's read set.
    pub read_bit: bool,
    /// The line is in the current transaction's write set (speculative).
    pub write_bit: bool,
}

impl L1Entry {
    /// Creates a clean, non-transactional entry in the given state.
    pub fn new(state: MesiState, data: LineData) -> Self {
        L1Entry {
            state,
            data,
            dirty: false,
            read_bit: false,
            write_bit: false,
        }
    }

    /// Whether the line belongs to the current transaction (read or write
    /// set).
    pub fn is_transactional(&self) -> bool {
        self.read_bit || self.write_bit
    }
}

/// What a store does to its L1 line besides writing the word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// A plain store: the line becomes dirty.
    Plain,
    /// A write-aside store, whose value the durable log carries: the line is
    /// left clean, so an eviction can never write it in place.
    WriteAside,
    /// A transactional store: the line becomes dirty and joins the write set
    /// (write bit).
    Transactional,
}

/// A private L1 data cache.
#[derive(Debug, Clone)]
pub struct L1Cache {
    lines: SetAssocCache<L1Entry>,
    hits: u64,
    misses: u64,
}

impl L1Cache {
    /// Creates an empty L1 with the given geometry.
    pub fn new(geometry: CacheGeometry) -> Self {
        L1Cache {
            lines: SetAssocCache::new(geometry),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.lines.geometry()
    }

    /// Looks up `line`, updating LRU, and records a hit/miss.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
        let entry = self.lines.get_mut(line);
        if entry.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        entry
    }

    /// Looks up `line` without recording statistics or touching LRU.
    #[inline]
    pub fn entry(&self, line: LineAddr) -> Option<&L1Entry> {
        self.lines.peek(line)
    }

    /// Mutable lookup without statistics or LRU update (used by coherence
    /// probes and the transaction engines).
    #[inline]
    pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut L1Entry> {
        self.lines.peek_mut(line)
    }

    /// Inserts `line` (filling it from the LLC or memory), returning an
    /// evicted victim if the set was full.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, entry: L1Entry) -> Option<(LineAddr, L1Entry)> {
        self.lines.insert(line, entry)
    }

    /// Returns the line that would be evicted if `line` were filled now.
    pub fn victim_for(&self, line: LineAddr) -> Option<LineAddr> {
        self.lines.victim_for(line)
    }

    /// Removes a line (invalidation), returning its former entry.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<L1Entry> {
        self.lines.remove(line)
    }

    /// Reads one word of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    #[inline]
    pub fn read_word(&self, line: LineAddr, word: WordIndex) -> u64 {
        self.lines.peek(line).expect("line resident").data[word.get()]
    }

    /// Writes one word of a resident line and updates its bits as `kind`
    /// says, in one lookup without statistics or LRU update. Returns whether
    /// the write bit was set *before* the store: for a transactional store
    /// that means the line is already in the attempt's write set.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    #[inline]
    pub fn store_word(
        &mut self,
        line: LineAddr,
        word: WordIndex,
        value: u64,
        kind: StoreKind,
    ) -> bool {
        let entry = self.lines.peek_mut(line).expect("line resident");
        entry.data[word.get()] = value;
        entry.dirty = kind != StoreKind::WriteAside;
        let write_bit_was_set = entry.write_bit;
        if kind == StoreKind::Transactional {
            entry.write_bit = true;
        }
        write_bit_was_set
    }

    /// Iterates the lines currently carrying the write bit (the resident
    /// write set) without allocating, in cache (set-major) order.
    #[inline]
    pub fn write_set_iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines
            .iter()
            .filter(|(_, e)| e.write_bit)
            .map(|(l, _)| l)
    }

    /// Iterates the lines currently carrying the read bit (the resident
    /// read set) without allocating, in cache (set-major) order.
    pub fn read_set_iter(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.lines
            .iter()
            .filter(|(_, e)| e.read_bit)
            .map(|(l, _)| l)
    }

    /// All write-set lines as a fresh `Vec`. Test convenience; hot paths
    /// use [`L1Cache::write_set_iter`].
    #[cfg(test)]
    pub fn write_set(&self) -> Vec<LineAddr> {
        self.write_set_iter().collect()
    }

    /// All read-set lines as a fresh `Vec`. Test convenience; hot paths
    /// use [`L1Cache::read_set_iter`].
    #[cfg(test)]
    pub fn read_set(&self) -> Vec<LineAddr> {
        self.read_set_iter().collect()
    }

    /// Flash-clears every read bit (commit/abort, Section III-B).
    #[inline]
    pub fn flash_clear_read_bits(&mut self) {
        self.lines.for_each_mut(|_, e| e.read_bit = false);
    }

    /// Flash-clears every write bit (used by the volatile HTM baseline, which
    /// makes the write set visible atomically at commit).
    #[inline]
    pub fn flash_clear_write_bits(&mut self) {
        self.lines.for_each_mut(|_, e| e.write_bit = false);
    }

    /// Flash-invalidates every write-set line (abort), appending the
    /// invalidated line addresses to `out` (which is cleared first). The
    /// allocation-free abort path: engines thread a reusable scratch
    /// buffer through here instead of materialising a fresh `Vec`.
    #[inline]
    pub fn flash_invalidate_write_set_into(&mut self, out: &mut Vec<LineAddr>) {
        out.clear();
        self.lines
            .drain_filter_with(|_, e| e.write_bit, |line, _| out.push(line));
    }

    /// Flash-invalidates every write-set line, returning a fresh `Vec`.
    /// Test convenience; hot paths use
    /// [`L1Cache::flash_invalidate_write_set_into`].
    #[cfg(test)]
    pub fn flash_invalidate_write_set(&mut self) -> Vec<LineAddr> {
        let mut out = Vec::new();
        self.flash_invalidate_write_set_into(&mut out);
        out
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Hit count since construction.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since construction.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Capacity evictions the backing array has performed since construction.
    pub fn evictions(&self) -> u64 {
        self.lines.evictions()
    }

    /// Invalidate every line (e.g. between independent simulation runs).
    pub fn clear(&mut self) {
        self.lines.clear();
    }

    /// Iterates over resident `(line, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &L1Entry)> {
        self.lines.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_l1() -> L1Cache {
        // 2 sets x 2 ways.
        L1Cache::new(CacheGeometry::new(256, 2, 64))
    }

    fn entry(state: MesiState) -> L1Entry {
        L1Entry::new(state, [0; 8])
    }

    #[test]
    fn hit_miss_accounting() {
        let mut l1 = tiny_l1();
        assert!(l1.access(LineAddr::new(1)).is_none());
        l1.insert(LineAddr::new(1), entry(MesiState::Shared));
        assert!(l1.access(LineAddr::new(1)).is_some());
        assert_eq!(l1.hits(), 1);
        assert_eq!(l1.misses(), 1);
    }

    #[test]
    fn readable_writable_checks_follow_mesi() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(1), entry(MesiState::Shared));
        l1.insert(LineAddr::new(2), entry(MesiState::Modified));
        let state = |line: u64| l1.entry(LineAddr::new(line)).map(|e| e.state);
        assert!(state(1).is_some_and(MesiState::can_read));
        assert!(!state(1).is_some_and(MesiState::can_write));
        assert!(state(2).is_some_and(MesiState::can_write));
        assert!(!state(3).is_some_and(MesiState::can_read));
    }

    #[test]
    fn word_read_write_roundtrip() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(4), entry(MesiState::Modified));
        assert!(!l1.store_word(LineAddr::new(4), WordIndex::new(3), 99, StoreKind::Plain));
        assert_eq!(l1.read_word(LineAddr::new(4), WordIndex::new(3)), 99);
        let e = l1.entry(LineAddr::new(4)).unwrap();
        assert!(e.dirty);
        assert!(!e.write_bit);
    }

    #[test]
    fn store_kinds_set_dirty_and_write_bits() {
        let mut l1 = tiny_l1();
        let line = LineAddr::new(4);
        l1.insert(line, entry(MesiState::Modified));
        let bits = |l1: &L1Cache| {
            let e = l1.entry(line).unwrap();
            (e.dirty, e.write_bit)
        };
        // The first transactional store reports a clear write bit, later
        // ones a set one.
        assert!(!l1.store_word(line, WordIndex::new(0), 1, StoreKind::Transactional));
        assert_eq!(bits(&l1), (true, true));
        assert!(l1.store_word(line, WordIndex::new(1), 2, StoreKind::Transactional));
        // A write-aside store leaves the line clean and keeps the write bit.
        assert!(l1.store_word(line, WordIndex::new(2), 3, StoreKind::WriteAside));
        assert_eq!(bits(&l1), (false, true));
        assert_eq!(l1.entry(line).unwrap().data[..3], [1, 2, 3]);
    }

    #[test]
    fn read_write_sets_track_bits() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(1), entry(MesiState::Shared));
        l1.insert(LineAddr::new(2), entry(MesiState::Modified));
        l1.entry_mut(LineAddr::new(1)).unwrap().read_bit = true;
        l1.entry_mut(LineAddr::new(2)).unwrap().write_bit = true;
        assert_eq!(l1.read_set(), vec![LineAddr::new(1)]);
        assert_eq!(l1.write_set(), vec![LineAddr::new(2)]);
        assert!(l1.entry(LineAddr::new(1)).unwrap().is_transactional());
    }

    #[test]
    fn flash_clear_read_bits_only_clears_read_bits() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(1), entry(MesiState::Modified));
        let e = l1.entry_mut(LineAddr::new(1)).unwrap();
        e.read_bit = true;
        e.write_bit = true;
        l1.flash_clear_read_bits();
        let e = l1.entry(LineAddr::new(1)).unwrap();
        assert!(!e.read_bit);
        assert!(e.write_bit);
    }

    #[test]
    fn flash_invalidate_write_set_removes_only_write_set() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(1), entry(MesiState::Modified));
        l1.insert(LineAddr::new(2), entry(MesiState::Shared));
        l1.entry_mut(LineAddr::new(1)).unwrap().write_bit = true;
        l1.entry_mut(LineAddr::new(2)).unwrap().read_bit = true;
        let inv = l1.flash_invalidate_write_set();
        assert_eq!(inv, vec![LineAddr::new(1)]);
        assert!(l1.entry(LineAddr::new(1)).is_none());
        assert!(l1.entry(LineAddr::new(2)).is_some());
    }

    #[test]
    fn eviction_returns_victim_entry() {
        let mut l1 = tiny_l1();
        // Lines 0 and 2 map to set 0 (2 sets).
        l1.insert(LineAddr::new(0), entry(MesiState::Modified));
        l1.insert(LineAddr::new(2), entry(MesiState::Shared));
        let victim = l1.insert(LineAddr::new(4), entry(MesiState::Exclusive));
        assert!(victim.is_some());
        let (vl, _) = victim.unwrap();
        assert!(vl == LineAddr::new(0) || vl == LineAddr::new(2));
    }

    #[test]
    fn capacity_matches_geometry() {
        let mut l1 = L1Cache::new(CacheGeometry::isca18_l1());
        for i in 0..1000u64 {
            l1.insert(LineAddr::new(i), entry(MesiState::Shared));
        }
        assert_eq!(l1.len(), 512, "32KB / 64B = 512 lines");
    }

    #[test]
    fn clear_empties_cache() {
        let mut l1 = tiny_l1();
        l1.insert(LineAddr::new(0), entry(MesiState::Shared));
        l1.clear();
        assert!(l1.is_empty());
    }
}
