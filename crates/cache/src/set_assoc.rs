//! A generic set-associative cache array with true-LRU replacement.
//!
//! # Layout: one slot arena, sets grown with their occupancy
//!
//! A set owns a block of contiguous slots sized to the lines it holds. A
//! never-filled set owns no block; its first insert gives it one slot, and
//! each insert into a full block moves the set to a block twice the size —
//! 1, 2, 4, … slots, the last step being `ways` itself, also when `ways` is
//! not a power of two. The outgrown block goes on a free list for its size
//! and the next set that grows to that size reuses it, so growth leaves no
//! holes. Blocks never shrink: removals keep a set's block, and only
//! [`SetAssocCache::clear`] gives every block back.
//!
//! All blocks live in one slot arena. Construction writes one 8-byte word
//! per set and *reserves*, without touching, the worst case: for every set
//! the sum of its growth sequence (31 slots for 16 ways). A block is only
//! appended when its size's free list is empty, that is when sets hold
//! every block of that size, so no size ever has more blocks than there
//! are sets: the arena never outgrows the reservation and never
//! reallocates, and untouched capacity is never resident. A set costs host
//! memory in proportion to the lines it holds. That is what the paper's
//! 8 MB LLC needs: its 8,192 sets hold ~2.5 lines each in a Table III
//! `micro` cell, where full 16-way blocks would leave ~84% of ~12 MiB of
//! slots empty.
//!
//! A probe is one load of the set's word and a linear scan of its resident
//! lines, with no hashing and no pointer chasing. Tags (the line address)
//! and LRU stamps live inline in the slots. Within a set the resident
//! lines are a dense prefix of its block, maintained with push/swap-remove
//! exactly like the historical `Vec<Slot>` per set, and growth moves that
//! prefix in order. Every walk ([`SetAssocCache::iter`],
//! [`SetAssocCache::for_each_mut`], [`SetAssocCache::drain_filter`]) goes
//! set by set in set-index order through the per-set words, never in arena
//! order. Every observable order (probe order, iteration and removal
//! order) is thus bit-identical to the old representation; the engines'
//! log and flush schedules depend on it. Victim selection depends only on
//! the globally unique LRU stamps and is order-free to begin with.

use dhtm_types::addr::LineAddr;
use dhtm_types::config::CacheGeometry;

/// One occupied way of a set: inline tag, LRU stamp and payload.
#[derive(Debug, Clone)]
struct Slot<T> {
    line: LineAddr,
    last_use: u64,
    entry: T,
}

/// A set's block: it starts at `slots[base]`, spans `cap` slots, and its
/// resident lines fill the first `len`. `cap == 0` means the set has never
/// been filled and owns no block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Block {
    base: u32,
    len: u16,
    cap: u16,
}

/// The block sizes a set of `ways` ways grows through: 1, 2, 4, … and
/// finally `ways`.
fn growth_sizes(ways: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(1), move |&cap| {
        (cap < ways).then_some((cap * 2).min(ways))
    })
}

/// The free-list index of blocks of `cap` slots: its position in
/// [`growth_sizes`] (every size but `ways` is a power of two, and `ways`
/// rounds up past all of them).
fn size_class(cap: usize) -> usize {
    cap.next_power_of_two().trailing_zeros() as usize
}

/// Arena slots reserved for `geometry`: every set's whole growth sequence.
fn reserved_slots(geometry: &CacheGeometry) -> usize {
    geometry.num_sets() * growth_sizes(geometry.ways).sum::<usize>()
}

/// A set-associative cache array mapping [`LineAddr`]s to entries of type
/// `T`, with per-set true-LRU replacement.
///
/// The structure is policy-free: `insert` returns the victim (if any) so the
/// caller decides what a replacement means (write-back, transactional abort,
/// overflow to the LLC, ...).
#[derive(Debug)]
pub struct SetAssocCache<T> {
    geometry: CacheGeometry,
    /// The slot arena: every block ever handed out, in the order they were
    /// first needed. `new` reserves [`reserved_slots`] of capacity.
    slots: Vec<Option<Slot<T>>>,
    /// Per set, its block.
    sets: Box<[Block]>,
    /// Per size class, the bases of outgrown blocks (all slots empty).
    free: Box<[Vec<u32>]>,
    /// `num_sets - 1`: set index is `line & set_mask` (sets are a power of
    /// two, checked by [`CacheGeometry::check`]).
    set_mask: u64,
    len: usize,
    use_clock: u64,
    evictions: u64,
}

impl<T> SetAssocCache<T> {
    /// Creates an empty cache with the given geometry. Only the per-set
    /// words are written; blocks are handed out as sets fill.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheGeometry::check`] — the same
    /// check `SystemConfig::validate` applies. A `CacheGeometry` built as a
    /// struct literal bypasses it, and the mask-based set index, the `u16`
    /// occupancy and the `u32` block offsets all depend on it.
    pub fn new(geometry: CacheGeometry) -> Self {
        if let Err(e) = geometry.check() {
            panic!("unsupported cache geometry: {e}");
        }
        let num_sets = geometry.num_sets();
        // A growth sequence sums to fewer than `2 * ways` slots, so the
        // checked geometry's reservation is below `2 * MAX_CACHE_LINES`,
        // far inside the `u32` block offsets.
        let reserved = reserved_slots(&geometry);
        assert!(
            u32::try_from(reserved).is_ok(),
            "{reserved} slots exceed the u32 block offsets"
        );
        SetAssocCache {
            geometry,
            slots: Vec::with_capacity(reserved),
            sets: vec![Block::default(); num_sets].into_boxed_slice(),
            free: vec![Vec::new(); size_class(geometry.ways) + 1].into_boxed_slice(),
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
        let block = self.sets[self.set_index(line)];
        (block.base as usize, usize::from(block.len))
    }

    fn tick(&mut self) -> u64 {
        self.use_clock += 1;
        self.use_clock
    }

    /// Position of `line` within its set's occupied prefix.
    #[inline]
    fn position(&self, base: usize, len: usize, line: LineAddr) -> Option<usize> {
        self.slots[base..base + len]
            .iter()
            .position(|s| s.as_ref().expect("occupied prefix").line == line)
    }

    /// Moves set `set_idx` to a block of the next size in its growth
    /// sequence, carrying its resident prefix over in order, and returns
    /// the new block's offset. The outgrown block goes on its size's free
    /// list; a block of the new size comes off that size's free list, or
    /// is appended inside the reservation.
    #[inline]
    fn grow(&mut self, set_idx: usize) -> usize {
        let Block { base, len, cap } = self.sets[set_idx];
        let cap = usize::from(cap);
        let new_cap = (2 * cap).clamp(1, self.geometry.ways);
        let new_base = match self.free[size_class(new_cap)].pop() {
            Some(free) => free as usize,
            None => {
                let end = self.slots.len();
                debug_assert!(
                    end + new_cap <= self.slots.capacity(),
                    "the slot arena outgrew its reservation"
                );
                self.slots.resize_with(end + new_cap, || None);
                end
            }
        };
        for i in 0..usize::from(len) {
            self.slots.swap(base as usize + i, new_base + i);
        }
        if cap > 0 {
            self.free[size_class(cap)].push(base);
        }
        // The reservation fits `u32` offsets (see `new`) and `new_cap` is at
        // most `ways`, which `CacheGeometry::check` bounds to `u16`.
        self.sets[set_idx] = Block {
            base: new_base as u32,
            len,
            cap: new_cap as u16,
        };
        new_base
    }

    /// Whether `line` is resident.
    pub fn contains(&self, line: LineAddr) -> bool {
        let (base, len) = self.set_range(line);
        self.position(base, len, line).is_some()
    }

    /// Returns a reference to the entry for `line`, if resident, updating its
    /// LRU position.
    #[inline]
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
    #[inline]
    pub fn peek(&self, line: LineAddr) -> Option<&T> {
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        Some(&self.slots[base + pos].as_ref().expect("occupied").entry)
    }

    /// Mutable peek without LRU update.
    #[inline]
    pub fn peek_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        Some(&mut self.slots[base + pos].as_mut().expect("occupied").entry)
    }

    /// Inserts (or replaces) the entry for `line`, returning the evicted
    /// victim `(line, entry)` if the set was full.
    ///
    /// If `line` was already resident its entry is replaced in place and no
    /// eviction happens. An insert into a full block below `ways` slots
    /// first grows the set's block.
    #[inline]
    pub fn insert(&mut self, line: LineAddr, entry: T) -> Option<(LineAddr, T)> {
        let set_idx = self.set_index(line);
        let Block { base, len, cap } = self.sets[set_idx];
        let (mut base, mut len) = (base as usize, usize::from(len));
        let clock = self.tick();

        if let Some(pos) = self.position(base, len, line) {
            let slot = self.slots[base + pos].as_mut().expect("occupied");
            slot.entry = entry;
            slot.last_use = clock;
            return None;
        }

        let mut victim = None;
        if len == self.geometry.ways {
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
        } else if len == usize::from(cap) {
            base = self.grow(set_idx);
        }

        self.slots[base + len] = Some(Slot {
            line,
            last_use: clock,
            entry,
        });
        self.sets[set_idx].len = (len + 1) as u16;
        self.len += 1;
        victim
    }

    /// Returns the line that would be evicted if `line` were inserted now,
    /// without modifying the cache. Returns `None` if no eviction would be
    /// needed (set not full, or `line` already resident).
    pub fn victim_for(&self, line: LineAddr) -> Option<LineAddr> {
        let (base, len) = self.set_range(line);
        if len < self.geometry.ways || self.position(base, len, line).is_some() {
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
    #[inline]
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let set_idx = self.set_index(line);
        let (base, len) = self.set_range(line);
        let pos = self.position(base, len, line)?;
        let slot = self.slots[base + pos].take().expect("occupied");
        if pos != len - 1 {
            self.slots[base + pos] = self.slots[base + len - 1].take();
        }
        self.sets[set_idx].len = (len - 1) as u16;
        self.len -= 1;
        Some(slot.entry)
    }

    /// Iterates over all resident `(line, entry)` pairs (set-major, within a
    /// set in prefix order — the same order the per-set `Vec`s used to give).
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.sets.iter().flat_map(move |block| {
            self.slots[block.base as usize..][..usize::from(block.len)]
                .iter()
                .map(|slot| {
                    let slot = slot.as_ref().expect("occupied prefix");
                    (slot.line, &slot.entry)
                })
        })
    }

    /// Calls `f` on every resident `(line, entry)` pair, in the order of
    /// [`SetAssocCache::iter`]. Blocks lie in the arena in allocation
    /// order, so a safe set-major *mutable* walk is an internal one.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(LineAddr, &mut T)) {
        for block in self.sets.iter() {
            for slot in &mut self.slots[block.base as usize..][..usize::from(block.len)] {
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
        for block in self.sets.iter_mut() {
            let base = block.base as usize;
            let mut len = usize::from(block.len);
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
            block.len = len as u16;
        }
    }

    /// Removes every resident line and returns every set to the
    /// never-filled state, emptying the free lists; the arena keeps its
    /// reservation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.sets.fill(Block::default());
        self.free.iter_mut().for_each(Vec::clear);
        self.len = 0;
    }
}

impl<T: Clone> Clone for SetAssocCache<T> {
    /// A clone gets its own arena with the same reservation, so it never
    /// reallocates either.
    fn clone(&self) -> Self {
        let mut slots = Vec::with_capacity(self.slots.capacity());
        slots.extend_from_slice(&self.slots);
        SetAssocCache {
            geometry: self.geometry,
            slots,
            sets: self.sets.clone(),
            free: self.free.clone(),
            set_mask: self.set_mask,
            len: self.len,
            use_clock: self.use_clock,
            evictions: self.evictions,
        }
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

    /// Sets that own a block.
    fn materialised(c: &SetAssocCache<u32>) -> usize {
        c.sets.iter().filter(|b| b.cap != 0).count()
    }

    /// Slots the sets' blocks and the free lists account for.
    fn accounted_slots(c: &SetAssocCache<u32>) -> usize {
        let owned: usize = c.sets.iter().map(|b| usize::from(b.cap)).sum();
        let free: usize = growth_sizes(c.geometry.ways)
            .map(|cap| cap * c.free[size_class(cap)].len())
            .sum();
        owned + free
    }

    /// Checks the arena against its reservation and its bookkeeping: it
    /// never reallocated, every slot belongs to exactly one set's block or
    /// free block, and only resident lines occupy slots.
    fn assert_arena_sound(c: &SetAssocCache<u32>, arena: *const Option<Slot<u32>>) {
        assert_eq!(c.slots.as_ptr(), arena, "the arena reallocated");
        assert!(c.slots.len() <= reserved_slots(&c.geometry));
        assert_eq!(accounted_slots(c), c.slots.len(), "a block leaked");
        assert_eq!(c.slots.iter().filter(|s| s.is_some()).count(), c.len());
        for b in c.sets.iter() {
            assert!(b.len <= b.cap);
        }
    }

    /// Building the paper's LLC writes only the per-set words; queries on
    /// an unfilled set leave it unfilled; the first insert into a set gives
    /// it one slot and the next one moves it to a block of two.
    #[test]
    fn sets_materialise_on_first_fill_only() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::isca18_llc());
        let num_sets = c.sets.len();
        assert_eq!(num_sets, 8192);
        assert!(c.slots.is_empty(), "no slot is written by `new`");
        assert!(c.slots.capacity() >= num_sets * (1 + 2 + 4 + 8 + 16));
        assert_eq!(materialised(&c), 0);

        let line = LineAddr::new(5000);
        assert!(!c.contains(line));
        assert_eq!(c.victim_for(line), None);
        assert_eq!(c.remove(line), None);
        assert!(c.peek(line).is_none());
        assert!(c.get_mut(line).is_none());
        assert!(c.slots.is_empty());
        assert_eq!(materialised(&c), 0);

        assert!(c.insert(line, 7).is_none());
        assert_eq!(c.slots.len(), 1);
        let set = c.set_index(line);
        assert_eq!(
            c.sets[set],
            Block {
                base: 0,
                len: 1,
                cap: 1
            }
        );
        assert_eq!(materialised(&c), 1);

        // A second line of the same set moves it to a block of two and
        // frees its first block.
        let sibling = LineAddr::new(line.raw() + num_sets as u64);
        assert!(c.insert(sibling, 8).is_none());
        assert_eq!(c.slots.len(), 1 + 2);
        assert_eq!(
            c.sets[set],
            Block {
                base: 1,
                len: 2,
                cap: 2
            }
        );
        assert_eq!(c.free[0], vec![0]);
        assert_eq!(materialised(&c), 1);
        assert_eq!(c.peek(line), Some(&7));
        assert_eq!(c.peek(sibling), Some(&8));

        // The first fill of another set reuses the freed block.
        let other = LineAddr::new(line.raw() + 1);
        assert!(c.insert(other, 9).is_none());
        assert_eq!(c.slots.len(), 3);
        assert_eq!(
            c.sets[c.set_index(other)],
            Block {
                base: 0,
                len: 1,
                cap: 1
            }
        );
        assert!(c.free[0].is_empty());

        // Emptying a set keeps its block; `clear` returns to the fresh state.
        c.remove(line);
        c.remove(sibling);
        assert_eq!(materialised(&c), 2);
        c.clear();
        assert!(c.slots.is_empty());
        assert_eq!(materialised(&c), 0);
    }

    /// Filling every set to every way stays inside the reservation made at
    /// construction: the arena never reallocates, and full sets use exactly
    /// their growth sequences.
    #[test]
    fn materialising_every_set_never_reallocates() {
        for geometry in [
            CacheGeometry::new(512, 2, 64),
            CacheGeometry::new(16 * 12 * 64, 12, 64),
            CacheGeometry::new(8 * 16 * 64, 16, 64),
        ] {
            let mut c: SetAssocCache<u32> = SetAssocCache::new(geometry);
            let arena = c.slots.as_ptr();
            let sets = geometry.num_sets() as u64;
            // First fills arrive out of set order: the last set first.
            for i in (0..geometry.num_lines() as u64).rev() {
                assert!(c.insert(LineAddr::new(i), i as u32).is_none());
                assert_arena_sound(&c, arena);
            }
            assert_eq!(materialised(&c), sets as usize);
            assert_eq!(c.slots.len(), reserved_slots(&geometry));
            assert_eq!(c.len(), geometry.num_lines());
        }
    }

    /// A geometry the arena cannot index is refused before anything is
    /// allocated, not truncated, with the message `validate` gives.
    #[test]
    #[should_panic(expected = "unsupported cache geometry")]
    fn oversized_arena_is_refused() {
        let _ = SetAssocCache::<u32>::new(CacheGeometry {
            capacity_bytes: 64 << 32,
            ways: 1,
            line_size: 64,
        });
    }

    /// Sets nobody fills own no slots, however many other sets fill up.
    #[test]
    fn a_never_filled_set_owns_no_slots() {
        let mut c: SetAssocCache<u32> =
            SetAssocCache::new(CacheGeometry::new(64 * 16 * 64, 16, 64));
        for tag in 0..40u64 {
            for set in [3u64, 17, 60] {
                c.insert(LineAddr::new(tag * 64 + set), tag as u32);
            }
        }
        for (set, block) in c.sets.iter().enumerate() {
            if [3, 17, 60].contains(&set) {
                assert_eq!(block.cap, 16, "set {set}");
            } else {
                assert_eq!(*block, Block::default(), "set {set} owns slots");
            }
        }
        assert_eq!(c.slots.len(), 3 * (1 + 2 + 4 + 8 + 16));
    }

    /// A set filled with k lines owns at least k and fewer than 2k slots,
    /// for power-of-two and other associativities alike.
    #[test]
    fn a_set_of_k_lines_owns_fewer_than_2k_slots() {
        for ways in [1usize, 2, 4, 12, 16] {
            let sets = 8u64;
            let geometry = CacheGeometry::new(sets as usize * ways * 64, ways, 64);
            let mut c: SetAssocCache<u32> = SetAssocCache::new(geometry);
            for k in 1..=ways {
                c.insert(LineAddr::new((k as u64) * sets + 5), k as u32);
                let block = c.sets[5];
                assert_eq!(usize::from(block.len), k);
                let cap = usize::from(block.cap);
                assert!(
                    k <= cap && cap < 2 * k,
                    "{ways} ways, {k} lines: {cap} slots"
                );
            }
            assert_eq!(usize::from(c.sets[5].cap), ways);
        }
    }

    /// A long stream of inserts, touches, removals, filtered drains and
    /// clears over a 12-way geometry never takes the arena past its
    /// reservation, never reallocates it and never leaks a block.
    #[test]
    fn the_arena_never_exceeds_its_reservation() {
        let geometry = CacheGeometry::new(32 * 12 * 64, 12, 64);
        let mut c: SetAssocCache<u32> = SetAssocCache::new(geometry);
        let arena = c.slots.as_ptr();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..10_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = LineAddr::new(x % (32 * 20));
            match (x >> 32) % 100 {
                0..=59 => {
                    c.insert(line, i);
                }
                60..=79 => {
                    c.get_mut(line);
                }
                80..=97 => {
                    c.remove(line);
                }
                98 => {
                    c.drain_filter(|l, _| l.raw() % 3 == 0);
                }
                _ if i % 7 == 0 => c.clear(),
                _ => {}
            }
            assert_arena_sound(&c, arena);
        }
    }

    /// `clear` hands every block back: no free list keeps an offset into
    /// the truncated arena, and the cache then grows exactly like a fresh
    /// one.
    #[test]
    fn clear_empties_the_free_lists() {
        let geometry = CacheGeometry::new(16 * 16 * 64, 16, 64);
        let mut c: SetAssocCache<u32> = SetAssocCache::new(geometry);
        for i in 0..100u64 {
            c.insert(LineAddr::new(i * 16 + i % 3), i as u32);
        }
        assert!(c.free.iter().any(|f| !f.is_empty()));
        c.clear();
        assert!(c.free.iter().all(Vec::is_empty));
        assert!(c.slots.is_empty());
        let mut fresh: SetAssocCache<u32> = SetAssocCache::new(geometry);
        for i in 0..50u64 {
            let line = LineAddr::new(i * 7);
            assert_eq!(c.insert(line, i as u32), fresh.insert(line, i as u32));
        }
        assert_eq!(c.sets, fresh.sets);
        assert_eq!(c.free, fresh.free);
        assert_eq!(c.slots.len(), fresh.slots.len());
    }

    /// A clone shares nothing with its original, keeps the reservation,
    /// and grows without reallocating.
    #[test]
    fn a_clone_is_independent() {
        let geometry = CacheGeometry::new(8 * 4 * 64, 4, 64);
        let mut original: SetAssocCache<u32> = SetAssocCache::new(geometry);
        for i in 0..6u64 {
            original.insert(LineAddr::new(i * 8), i as u32);
        }
        let before: Vec<(LineAddr, u32)> = original.iter().map(|(l, &v)| (l, v)).collect();
        let mut copy = original.clone();
        let arena = copy.slots.as_ptr();
        assert_ne!(arena, original.slots.as_ptr());
        *copy.get_mut(LineAddr::new(40)).unwrap() = 100;
        copy.remove(LineAddr::new(32));
        for i in 0..32u64 {
            copy.insert(LineAddr::new(i + 1), 0);
        }
        assert_arena_sound(&copy, arena);
        let after: Vec<(LineAddr, u32)> = original.iter().map(|(l, &v)| (l, v)).collect();
        assert_eq!(before, after);
        assert_eq!(original.len(), 4);
        assert_eq!(original.evictions(), 2);
        assert_ne!(copy.len(), original.len());
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
