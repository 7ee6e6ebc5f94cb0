//! A generic set-associative cache array with true-LRU replacement.
//!
//! # Layout: one slot arena, sets materialised on first fill
//!
//! A set owns a block of `ways` contiguous slots, but only from the first
//! insert into it. Construction writes one `(offset, len)` word per set and
//! *reserves*, without touching, room for every set's block in one slot
//! arena; the first insert into a set appends its block there. A set that
//! is never filled costs its word and nothing else: no slot writes and no
//! resident slot memory. That is what the paper's 8 MB LLC needs: 131,072
//! lines of ~96-byte slots, of which a short run fills a few thousand.
//!
//! Slots `0..ways` of the arena are a dummy block that is never filled, and
//! offset 0 means "not materialised": an unfilled set's word `(0, 0)` names
//! an empty scan of the dummy block. A probe is therefore one load of the
//! set's word and a linear scan of at most `ways` contiguous slots, with no
//! branch on materialisation, no hashing and no pointer chasing. Tags (the
//! line address) and LRU stamps live inline in the slots, and inserts,
//! removals and evictions never reallocate: the capacity reserved at
//! construction covers every block.
//!
//! Within a set the resident lines are a dense prefix of its block,
//! maintained with push/swap-remove exactly like the historical `Vec<Slot>`
//! per set. Blocks lie in the arena in first-fill order, but every walk
//! ([`SetAssocCache::iter`], [`SetAssocCache::for_each_mut`],
//! [`SetAssocCache::drain_filter`]) goes set by set in set-index order
//! through the per-set words, never in arena order. Every observable order
//! (probe order, iteration and removal order) is thus bit-identical to the
//! old representation; the engines' log and flush schedules depend on it.
//! Victim selection depends only on the globally unique LRU stamps and is
//! order-free to begin with.

use dhtm_types::addr::LineAddr;
use dhtm_types::config::CacheGeometry;

/// One occupied way of a set: inline tag, LRU stamp and payload.
#[derive(Debug, Clone)]
struct Slot<T> {
    line: LineAddr,
    last_use: u64,
    entry: T,
}

/// A set-associative cache array mapping [`LineAddr`]s to entries of type
/// `T`, with per-set true-LRU replacement.
///
/// The structure is policy-free: `insert` returns the victim (if any) so the
/// caller decides what a replacement means (write-back, transactional abort,
/// overflow to the LLC, ...).
#[derive(Debug, Clone)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// The slot arena: the dummy block at `0..ways`, then one block of
    /// `ways` slots per materialised set, in first-fill order. `new`
    /// reserves capacity for every set's block.
    slots: Vec<Option<Slot<T>>>,
    /// Per set, `(offset, len)`: the set's block starts at `slots[offset]`
    /// and its resident lines fill the first `len` slots of it. Offset 0
    /// (the dummy block) means the set has never been filled.
    sets: Box<[(u32, u32)]>,
    /// `num_sets - 1`: set index is `line & set_mask` (sets are a power of
    /// two, checked by [`CacheGeometry`]).
    set_mask: u64,
    len: usize,
    use_clock: u64,
    evictions: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry. Only the per-set
    /// words are written; slot blocks are materialised by the first insert
    /// into each set.
    ///
    /// # Panics
    ///
    /// Panics if the geometry's set count is not a power of two — the
    /// mask-based set index depends on it, and a `CacheGeometry` built as a
    /// struct literal bypasses `CacheGeometry::new`'s own check — or if the
    /// arena's slot count does not fit the per-set word's `u32` offsets.
    pub fn new(geometry: CacheGeometry) -> Self {
        let num_sets = geometry.num_sets();
        assert!(
            num_sets.is_power_of_two(),
            "number of sets ({num_sets}) must be a power of two"
        );
        let ways = geometry.ways;
        // One block per set plus the dummy block. Offsets are stored as
        // `u32`, and nothing bounds a cache's size before this point, so an
        // arena too large to index is refused here rather than truncated.
        let arena = (num_sets + 1)
            .checked_mul(ways)
            .filter(|&n| u32::try_from(n).is_ok())
            .unwrap_or_else(|| {
                panic!("{num_sets} sets of {ways} ways exceed the u32 slot offsets")
            });
        let mut slots = Vec::with_capacity(arena);
        slots.resize_with(ways, || None);
        SetAssocCache {
            geometry,
            slots,
            sets: vec![(0, 0); num_sets].into_boxed_slice(),
            set_mask: num_sets as u64 - 1,
            len: 0,
            use_clock: 0,
            evictions: 0,
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> &CacheGeometry {
        &self.geometry
    }

    /// Number of lines currently resident.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of capacity evictions `insert` has performed over the cache's
    /// lifetime (in-place replacements and explicit removals don't count).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn set_index(&self, line: LineAddr) -> usize {
        // `LineAddr` is a line *number* (byte address / line size) by
        // construction — see `Address::line` / `LineAddr::from_base` — so
        // masking can never alias two byte offsets of one line into
        // different sets.
        debug_assert_eq!(
            line.raw() & self.set_mask,
            line.raw() % (self.set_mask + 1),
            "set mask must agree with the modulo it replaces"
        );
        (line.raw() & self.set_mask) as usize
    }

    /// The block offset backing `line`'s set and its occupied length.
    fn set_range(&self, line: LineAddr) -> (usize, usize) {
        let (base, len) = self.sets[self.set_index(line)];
        (base as usize, len as usize)
    }

    fn tick(&mut self) -> u64 {
        self.use_clock += 1;
        self.use_clock
    }

    /// Position of `line` within its set's occupied prefix.
    fn position(&self, base: usize, len: usize, line: LineAddr) -> Option<usize> {
        self.slots[base..base + len]
            .iter()
            .position(|s| s.as_ref().expect("occupied prefix").line == line)
    }

    /// Appends a block of empty slots for set `set_idx` to the arena and
    /// returns its offset. The capacity `new` reserved covers it (a clone's
    /// arena is sized to its contents and grows as a `Vec` does).
    fn materialise(&mut self, set_idx: usize) -> usize {
        let base = self.slots.len();
        self.slots.resize_with(base + self.geometry.ways, || None);
        // `new` checked that every offset of the reserved arena fits a u32.
        self.sets[set_idx].0 = base as u32;
        base
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, len) = self.set_range(line);
        self.position(base, len, line).is_some()
    }

    /// Returns a reference to the entry for `line`, if resident, updating its
    /// LRU position.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        let clock = self.tick();
        let slot = self.slots[base + pos].as_mut().expect("occupied prefix");
        slot.last_use = clock;
        Some(&mut slot.entry)
    }

    /// Returns a reference to the entry for `line` without touching LRU
    /// state (used by coherence probes, which should not perturb locality).
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        Some(&self.slots[base + pos].as_ref().expect("occupied").entry)
    }

    /// Mutable peek without LRU update.
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        Some(&mut self.slots[base + pos].as_mut().expect("occupied").entry)
    }

    /// Inserts (or replaces) the entry for `line`, returning the evicted
    /// victim `(line, entry)` if the set was full.
    ///
    /// If `line` was already resident its entry is replaced in place and no
    /// eviction happens. The first insert into a set materialises its block.
    pub fn insert(&mut self, line: LineAddr, entry: T) -> Option<(LineAddr, T)> {
        let set_idx = self.set_index(line);
        let (mut base, mut len) = self.set_range(line);
        let clock = self.tick();
        let ways = self.geometry.ways;

        if let Some(pos) = self.position(base, len, line) {
            let slot = self.slots[base + pos].as_mut().expect("occupied");
            slot.entry = entry;
            slot.last_use = clock;
            return None;
        }

        let mut victim = None;
        if len >= ways {
            // Evict the least recently used slot of this set (stamps are
            // globally unique, so the minimum is unambiguous), with the
            // same swap-remove the Vec representation performed.
            let victim_pos = (0..len)
                .min_by_key(|&i| self.slots[base + i].as_ref().expect("occupied").last_use)
                .expect("full set has at least one slot");
            let slot = self.slots[base + victim_pos].take().expect("occupied");
            if victim_pos != len - 1 {
                self.slots[base + victim_pos] = self.slots[base + len - 1].take();
            }
            len -= 1;
            self.len -= 1;
            self.evictions += 1;
            victim = Some((slot.line, slot.entry));
        } else if base == 0 {
            base = self.materialise(set_idx);
        }

        self.slots[base + len] = Some(Slot {
            line,
            last_use: clock,
            entry,
        });
        self.sets[set_idx].1 = (len + 1) as u32;
        self.len += 1;
        victim
    }

    /// Returns the line that would be evicted if `line` were inserted now,
    /// without modifying the cache. Returns `None` if no eviction would be
    /// needed (set not full, or `line` already resident).
    pub fn victim_for(&self, line: LineAddr) -> Option<LineAddr> {
        let (base, len) = self.set_range(line);
        if self.position(base, len, line).is_some() || len < self.geometry.ways {
            return None;
        }
        self.slots[base..base + len]
            .iter()
            .map(|s| s.as_ref().expect("occupied"))
            .min_by_key(|s| s.last_use)
            .map(|s| s.line)
    }

    /// Removes the entry for `line`, returning it. A set emptied this way
    /// keeps its block.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let set_idx = self.set_index(line);
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        let slot = self.slots[base + pos].take().expect("occupied");
        if pos != len - 1 {
            self.slots[base + pos] = self.slots[base + len - 1].take();
        }
        self.sets[set_idx].1 = (len - 1) as u32;
        self.len -= 1;
        Some(slot.entry)
    }

    /// Iterates over all resident `(line, entry)` pairs (set-major, within a
    /// set in prefix order — the same order the per-set `Vec`s used to give).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets.iter().flat_map(move |&(base, len)| {
            self.slots[base as usize..(base + len) as usize]
                .iter()
                .map(|slot| {
                    let slot = slot.as_ref().expect("occupied prefix");
                    (slot.line, &slot.entry)
                })
        })
    }

    /// Calls `f` on every resident `(line, entry)` pair, in the order of
    /// [`SetAssocCache::iter`]. Blocks lie in the arena in first-fill
    /// order, so a safe set-major *mutable* walk is an internal one.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(LineAddr, &mut T)) {
        for &(base, len) in self.sets.iter() {
            for slot in &mut self.slots[base as usize..(base + len) as usize] {
                let slot = slot.as_mut().expect("occupied prefix");
                f(slot.line, &mut slot.entry);
            }
        }
    }

    /// Removes every line for which the predicate returns `true`, returning
    /// the removed pairs.
    pub fn drain_filter(&mut self, pred: impl FnMut(LineAddr, &T) -> bool) -> Vec<(LineAddr, T)> {
        let mut removed = Vec::new();
        self.drain_filter_with(pred, |line, entry| removed.push((line, entry)));
        removed
    }

    /// Removes every line for which the predicate returns `true`, handing
    /// each removed pair to `sink` instead of collecting — the
    /// allocation-free form of [`SetAssocCache::drain_filter`]. Removal
    /// order (set-major, swap-remove within a set) is identical.
    pub fn drain_filter_with(
        &mut self,
        mut pred: impl FnMut(LineAddr, &T) -> bool,
        mut sink: impl FnMut(LineAddr, T),
    ) {
        for (base, set_len) in self.sets.iter_mut() {
            let base = *base as usize;
            let mut len = *set_len as usize;
            let mut i = 0;
            while i < len {
                let s = self.slots[base + i].as_ref().expect("occupied prefix");
                if pred(s.line, &s.entry) {
                    let slot = self.slots[base + i].take().expect("occupied");
                    if i != len - 1 {
                        self.slots[base + i] = self.slots[base + len - 1].take();
                    }
                    len -= 1;
                    self.len -= 1;
                    sink(slot.line, slot.entry);
                } else {
                    i += 1;
                }
            }
            *set_len = len as u32;
        }
    }

    /// Removes every resident line and returns every set to the
    /// never-filled state; the arena keeps its reservation.
    pub fn clear(&mut self) {
        self.slots.truncate(self.geometry.ways);
        self.sets.fill((0, 0));
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::CacheGeometry;

    fn small_cache() -> SetAssocCache<u32> {
        // 4 sets x 2 ways, 64 B lines => 512 B.
        SetAssocCache::new(CacheGeometry::new(512, 2, 64))
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = small_cache();
        assert!(c.is_empty());
        assert!(c.insert(LineAddr::new(1), 11).is_none());
        assert!(c.insert(LineAddr::new(2), 22).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(*c.get_mut(LineAddr::new(1)).unwrap(), 11);
        assert!(c.contains(LineAddr::new(2)));
        assert!(!c.contains(LineAddr::new(3)));
    }

    #[test]
    fn same_set_conflict_evicts_lru() {
        let mut c = small_cache();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Touch line 0 so line 4 becomes LRU.
        c.get_mut(LineAddr::new(0));
        let victim = c.insert(LineAddr::new(8), 8);
        assert_eq!(victim, Some((LineAddr::new(4), 4)));
        assert!(c.contains(LineAddr::new(0)));
        assert!(c.contains(LineAddr::new(8)));
    }

    #[test]
    fn victim_for_predicts_without_mutating() {
        let mut c = small_cache();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        c.get_mut(LineAddr::new(4));
        assert_eq!(c.victim_for(LineAddr::new(8)), Some(LineAddr::new(0)));
        // Present line or non-full set: no victim.
        assert_eq!(c.victim_for(LineAddr::new(0)), None);
        assert_eq!(c.victim_for(LineAddr::new(1)), None);
        // Nothing was evicted by the queries.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_existing_replaces_without_eviction() {
        let mut c = small_cache();
        c.insert(LineAddr::new(0), 1);
        c.insert(LineAddr::new(4), 2);
        assert!(c.insert(LineAddr::new(0), 99).is_none());
        assert_eq!(*c.peek(LineAddr::new(0)).unwrap(), 99);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn evictions_counter_tracks_capacity_victims_only() {
        let mut c = small_cache();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        assert_eq!(c.evictions(), 0);
        c.insert(LineAddr::new(8), 8); // set 0 full: evicts
        assert_eq!(c.evictions(), 1);
        c.remove(LineAddr::new(8)); // explicit removal: not an eviction
        assert_eq!(c.evictions(), 1);
        c.insert(LineAddr::new(8), 8); // room again: no eviction
        assert_eq!(c.evictions(), 1);
        c.insert(LineAddr::new(12), 12);
        assert_eq!(c.evictions(), 2);
    }

    #[test]
    fn peek_does_not_update_lru() {
        let mut c = small_cache();
        c.insert(LineAddr::new(0), 0);
        c.insert(LineAddr::new(4), 4);
        // Peek at 0 (no LRU update): 0 is still LRU and gets evicted.
        let _ = c.peek(LineAddr::new(0));
        let victim = c.insert(LineAddr::new(8), 8);
        assert_eq!(victim, Some((LineAddr::new(0), 0)));
    }

    #[test]
    fn remove_and_clear() {
        let mut c = small_cache();
        c.insert(LineAddr::new(1), 1);
        c.insert(LineAddr::new(2), 2);
        assert_eq!(c.remove(LineAddr::new(1)), Some(1));
        assert_eq!(c.remove(LineAddr::new(1)), None);
        assert_eq!(c.len(), 1);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn drain_filter_removes_matching() {
        let mut c = small_cache();
        for i in 0..8u64 {
            c.insert(LineAddr::new(i), i as u32);
        }
        let removed = c.drain_filter(|_, v| v % 2 == 0);
        assert_eq!(removed.len(), 4);
        assert!(c.iter().all(|(_, v)| v % 2 == 1));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small_cache();
        for i in 0..100u64 {
            c.insert(LineAddr::new(i), i as u32);
        }
        assert!(c.len() <= 8);
        // Every set holds at most `ways` lines.
        for set in 0..4u64 {
            let in_set = c.iter().filter(|(l, _)| l.raw() % 4 == set).count();
            assert!(in_set <= 2);
        }
    }

    #[test]
    fn for_each_mut_allows_updates() {
        let mut c = small_cache();
        c.insert(LineAddr::new(1), 1);
        c.insert(LineAddr::new(2), 2);
        c.for_each_mut(|_, v| *v += 10);
        assert_eq!(*c.peek(LineAddr::new(1)).unwrap(), 11);
        assert_eq!(*c.peek(LineAddr::new(2)).unwrap(), 12);
    }

    /// Sets whose block has been materialised.
    fn materialised(c: &SetAssocCache<u32>) -> usize {
        c.sets.iter().filter(|&&(base, _)| base != 0).count()
    }

    /// Building the paper's LLC writes only the per-set words and the dummy
    /// block; queries on an unfilled set leave it unfilled, and the first
    /// insert into a set materialises exactly one block.
    #[test]
    fn sets_materialise_on_first_fill_only() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::isca18_llc());
        let ways = c.geometry().ways;
        let num_sets = c.sets.len();
        assert_eq!(num_sets, 8192);
        assert_eq!(c.slots.len(), ways, "only the dummy block is written");
        assert!(c.slots.iter().all(Option::is_none));
        assert!(c.slots.capacity() >= (num_sets + 1) * ways);
        assert_eq!(materialised(&c), 0);

        let line = LineAddr::new(5000);
        assert!(!c.contains(line));
        assert_eq!(c.victim_for(line), None);
        assert_eq!(c.remove(line), None);
        assert!(c.peek(line).is_none());
        assert!(c.get_mut(line).is_none());
        assert_eq!(c.slots.len(), ways);
        assert_eq!(materialised(&c), 0);

        assert!(c.insert(line, 7).is_none());
        assert_eq!(c.slots.len(), 2 * ways);
        assert_eq!(c.sets[c.set_index(line)], (ways as u32, 1));
        assert_eq!(materialised(&c), 1);

        // A second line of the same set fills the same block.
        let sibling = LineAddr::new(line.raw() + num_sets as u64);
        assert!(c.insert(sibling, 8).is_none());
        assert_eq!(c.slots.len(), 2 * ways);
        assert_eq!(materialised(&c), 1);

        // Emptying a set keeps its block; `clear` returns to the fresh state.
        c.remove(line);
        c.remove(sibling);
        assert_eq!(materialised(&c), 1);
        c.clear();
        assert_eq!(c.slots.len(), ways);
        assert_eq!(materialised(&c), 0);
    }

    /// Filling every set stays inside the reservation made at construction:
    /// the arena never reallocates.
    #[test]
    fn materialising_every_set_never_reallocates() {
        let mut c = small_cache();
        let arena = c.slots.as_ptr();
        // First fills arrive out of set order: set 3, then 0, 1, 2.
        for i in [3, 0, 1, 2, 4, 5, 6, 7] {
            c.insert(LineAddr::new(i), i as u32);
        }
        assert_eq!(materialised(&c), 4);
        assert_eq!(c.slots.as_ptr(), arena);
        assert_eq!(c.slots.len(), (4 + 1) * 2);
    }

    /// An arena whose offsets would not fit the per-set `u32` word is
    /// refused before anything is allocated, not truncated.
    #[test]
    #[should_panic(expected = "exceed the u32 slot offsets")]
    fn oversized_arena_is_refused() {
        let _ = SetAssocCache::<u32>::new(CacheGeometry {
            capacity_bytes: 64 << 32,
            ways: 1,
            line_size: 64,
        });
    }

    /// All 64 byte offsets of one cache line must land in the same set:
    /// `LineAddr` construction strips the offset bits (the satellite
    /// regression — indexing raw byte addresses would shear one line
    /// across 64 different sets).
    #[test]
    fn byte_offsets_of_one_line_share_a_set() {
        use dhtm_types::addr::{Address, LINE_SIZE};
        let c = small_cache();
        for base in [0u64, 64 * 5, 64 * 1000, 64 * 12345] {
            let canonical = c.set_index(Address::new(base).line());
            for off in 0..LINE_SIZE as u64 {
                let line = Address::new(base + off).line();
                assert_eq!(
                    c.set_index(line),
                    canonical,
                    "offset {off} of byte address {base} changed sets"
                );
            }
        }
    }

    /// The mask-based set index must agree with the modulo the historical
    /// implementation used, across the full address range.
    #[test]
    fn mask_index_equals_modulo_index() {
        let c = small_cache();
        for i in [0u64, 1, 3, 4, 7, 63, 64, 1 << 40, u64::MAX] {
            assert_eq!(c.set_index(LineAddr::new(i)), (i % 4) as usize);
        }
    }
}
