//! The shared last-level cache with an embedded coherence directory.
//!
//! The system model (Section III) holds the directory in the LLC: each LLC
//! line carries the coherence state and a sharer vector (plus a dirty bit in
//! the paper's Figure 4 walkthrough). DHTM deliberately avoids adding any
//! transaction-tracking state here — overflowed write-set lines are found
//! through the overflow list in memory, and conflict detection works because
//! the directory state of an overflowed line is left unchanged ("sticky").

use dhtm_types::addr::{LineAddr, LineData};
use dhtm_types::config::{CacheGeometry, MAX_CORES};
use dhtm_types::ids::CoreId;

use crate::mesi::MesiState;
use crate::set_assoc::SetAssocCache;

// Every core a valid configuration can have owns one bit of `sharers`.
const _: () = assert!(MAX_CORES <= u64::BITS as usize);

/// Directory/LLC state for one cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirectoryEntry {
    /// Directory state: `Invalid` (no L1 holds it), `Shared` (one or more
    /// read-only copies), `Modified`/`Exclusive` (a single owning L1).
    pub state: MesiState,
    /// Bitmask of cores holding (or believed to hold) the line.
    pub sharers: u64,
    /// The LLC copy is newer than the persistent-memory copy.
    pub dirty: bool,
    /// The LLC's copy of the data.
    pub data: LineData,
}

impl DirectoryEntry {
    /// Creates an entry with no sharers in the given state.
    pub fn new(state: MesiState, data: LineData) -> Self {
        DirectoryEntry {
            state,
            sharers: 0,
            dirty: false,
            data,
        }
    }

    /// Marks `core` as a sharer/owner.
    pub fn add_sharer(&mut self, core: CoreId) {
        self.sharers |= 1 << core.get();
    }

    /// Clears `core` from the sharer vector.
    pub fn remove_sharer(&mut self, core: CoreId) {
        self.sharers &= !(1 << core.get());
    }

    /// Whether `core` is marked as a sharer/owner.
    pub fn is_sharer(&self, core: CoreId) -> bool {
        self.sharers & (1 << core.get()) != 0
    }

    /// Clears the sharer vector entirely.
    pub fn clear_sharers(&mut self) {
        self.sharers = 0;
    }

    /// Number of sharers.
    pub fn sharer_count(&self) -> u32 {
        self.sharers.count_ones()
    }

    /// The sharer core ids as a fresh `Vec`. Test convenience; all
    /// simulator paths use [`DirectoryEntry::sharers_iter`].
    #[cfg(test)]
    pub fn sharer_ids(&self) -> Vec<CoreId> {
        self.sharers_iter().collect()
    }

    /// Iterates over the sharer core ids in ascending order without
    /// allocating: one bit-scan per sharer.
    pub fn sharers_iter(&self) -> impl Iterator<Item = CoreId> + 'static {
        let mut mask = self.sharers;
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(CoreId::new(bit))
        })
    }

    /// The lowest-numbered sharer, if any (the directory's notion of "the"
    /// owner for forwarding, matching the first element of
    /// [`DirectoryEntry::sharers_iter`]).
    #[inline]
    pub fn first_sharer(&self) -> Option<CoreId> {
        if self.sharers == 0 {
            None
        } else {
            Some(CoreId::new(self.sharers.trailing_zeros() as usize))
        }
    }

    /// The single owner, if the directory state implies one.
    pub fn owner(&self) -> Option<CoreId> {
        if self.state.is_exclusive_like() && self.sharer_count() == 1 {
            self.first_sharer()
        } else {
            None
        }
    }
}

/// The shared, tiled LLC.
#[derive(Debug, Clone)]
pub struct LlcCache {
    lines: SetAssocCache<DirectoryEntry>,
    tiles: usize,
    hits: u64,
    misses: u64,
}

impl LlcCache {
    /// Creates an empty LLC with the given aggregate geometry and tile count.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn new(geometry: CacheGeometry, tiles: usize) -> Self {
        assert!(tiles > 0, "LLC must have at least one tile");
        LlcCache {
            lines: SetAssocCache::new(geometry),
            tiles,
            hits: 0,
            misses: 0,
        }
    }

    /// The LLC geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        self.lines.geometry()
    }

    /// The tile (bank) a line maps to; only used for reporting.
    pub fn tile_of(&self, line: LineAddr) -> usize {
        (line.raw() % self.tiles as u64) as usize
    }

    /// Number of tiles.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Looks up a line, updating LRU and hit/miss statistics.
    #[inline]
    pub fn access(&mut self, line: LineAddr) -> Option<&mut DirectoryEntry> {
        let entry = self.lines.get_mut(line);
        if entry.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        entry
    }

    /// Looks up a line without statistics or LRU update.
    #[inline]
    pub fn entry(&self, line: LineAddr) -> Option<&DirectoryEntry> {
        self.lines.peek(line)
    }

    /// Mutable lookup without statistics or LRU update.
    #[inline]
    pub fn entry_mut(&mut self, line: LineAddr) -> Option<&mut DirectoryEntry> {
        self.lines.peek_mut(line)
    }

    /// Inserts a line (filling from memory), returning the evicted victim if
    /// the set was full. The caller is responsible for writing back a dirty
    /// victim to persistent memory.
    #[inline]
    pub fn insert(
        &mut self,
        line: LineAddr,
        entry: DirectoryEntry,
    ) -> Option<(LineAddr, DirectoryEntry)> {
        self.lines.insert(line, entry)
    }

    /// Removes a line entirely (e.g. an abort-time invalidation of an
    /// overflowed transactional line).
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<DirectoryEntry> {
        self.lines.remove(line)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.lines.contains(line)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether the LLC is empty.
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Capacity evictions the backing array has performed since construction.
    pub fn evictions(&self) -> u64 {
        self.lines.evictions()
    }

    /// Iterates over resident `(line, entry)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &DirectoryEntry)> {
        self.lines.iter()
    }

    /// Removes every resident line.
    pub fn clear(&mut self) {
        self.lines.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_llc() -> LlcCache {
        LlcCache::new(CacheGeometry::new(1024, 2, 64), 2)
    }

    #[test]
    fn sharer_vector_operations() {
        let mut e = DirectoryEntry::new(MesiState::Shared, [0; 8]);
        e.add_sharer(CoreId::new(0));
        e.add_sharer(CoreId::new(3));
        assert!(e.is_sharer(CoreId::new(0)));
        assert!(e.is_sharer(CoreId::new(3)));
        assert!(!e.is_sharer(CoreId::new(1)));
        assert_eq!(e.sharer_count(), 2);
        assert_eq!(e.sharer_ids(), vec![CoreId::new(0), CoreId::new(3)]);
        e.remove_sharer(CoreId::new(0));
        assert_eq!(e.sharer_count(), 1);
        e.clear_sharers();
        assert_eq!(e.sharer_count(), 0);
    }

    #[test]
    fn owner_requires_exclusive_state_and_single_sharer() {
        let mut e = DirectoryEntry::new(MesiState::Modified, [0; 8]);
        e.add_sharer(CoreId::new(2));
        assert_eq!(e.owner(), Some(CoreId::new(2)));
        e.add_sharer(CoreId::new(3));
        assert_eq!(e.owner(), None);
        let mut s = DirectoryEntry::new(MesiState::Shared, [0; 8]);
        s.add_sharer(CoreId::new(1));
        assert_eq!(s.owner(), None);
    }

    #[test]
    fn llc_hit_miss_accounting() {
        let mut llc = tiny_llc();
        assert!(llc.access(LineAddr::new(7)).is_none());
        llc.insert(
            LineAddr::new(7),
            DirectoryEntry::new(MesiState::Shared, [1; 8]),
        );
        assert!(llc.access(LineAddr::new(7)).is_some());
        assert_eq!(llc.hits(), 1);
        assert_eq!(llc.misses(), 1);
    }

    #[test]
    fn eviction_returns_victim_for_writeback() {
        let mut llc = LlcCache::new(CacheGeometry::new(128, 1, 64), 1);
        // 2 sets x 1 way: lines 0 and 2 collide in set 0.
        let mut dirty = DirectoryEntry::new(MesiState::Modified, [5; 8]);
        dirty.dirty = true;
        llc.insert(LineAddr::new(0), dirty);
        let victim = llc.insert(
            LineAddr::new(2),
            DirectoryEntry::new(MesiState::Shared, [0; 8]),
        );
        let (vline, ventry) = victim.unwrap();
        assert_eq!(vline, LineAddr::new(0));
        assert!(ventry.dirty);
        assert_eq!(ventry.data, [5; 8]);
    }

    #[test]
    fn tile_mapping_is_stable_and_in_range() {
        let llc = tiny_llc();
        for i in 0..100u64 {
            let t = llc.tile_of(LineAddr::new(i));
            assert!(t < llc.tiles());
            assert_eq!(t, llc.tile_of(LineAddr::new(i)));
        }
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut llc = tiny_llc();
        llc.insert(
            LineAddr::new(9),
            DirectoryEntry::new(MesiState::Modified, [3; 8]),
        );
        let removed = llc.invalidate(LineAddr::new(9)).unwrap();
        assert_eq!(removed.data, [3; 8]);
        assert!(!llc.contains(LineAddr::new(9)));
        assert!(llc.invalidate(LineAddr::new(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one tile")]
    fn zero_tiles_panics() {
        LlcCache::new(CacheGeometry::new(1024, 2, 64), 0);
    }
}
