//! Property tests pinning the flat-array cache structures against naive
//! reference models.
//!
//! The PR5 data-structure overhaul replaced `SetAssocCache`'s per-set
//! `Vec<Slot>` + `HashMap` index with one fixed-way flat slot array. These
//! tests drive it through random operation streams and check every
//! observable — lookup results, insert victims (LRU order), removal
//! results, membership, occupancy — against a model written for clarity,
//! not speed: a plain list of `(line, stamp)` pairs.
//!
//! `SetAssocCache` sizes each set's block to its occupancy, growing it
//! 1 -> 2 -> 4 -> ... -> `ways` slots and recycling outgrown blocks, so its
//! arena holds blocks in allocation order. Four geometries are pinned
//! against a reference that keeps one plain `Vec` per set: a sparse and a
//! dense 4-way one, a sparse 16-way one (the paper's LLC associativity)
//! and a 12-way one (the last growth step is not a doubling). Streams
//! interleave inserts, touches, removals, `drain_filter` and `clear`; the
//! exact walk order of `iter`, `for_each_mut` and `drain_filter` and every
//! victim are compared after every op, and a cleared cache against a
//! fresh one.
//!
//! PR7 adds [`LineSet`] — the sorted inline-array set that replaced the
//! engines' `BTreeSet<LineAddr>` shadow sets — pinned against a real
//! `BTreeSet` reference: every `insert`/`remove` return value, every
//! `contains`, and (load-bearing for the golden lattice) the *exact
//! iteration order* after every mutation, across the inline→spill
//! boundary.

use std::collections::BTreeSet;

use proptest::prelude::*;

use dhtm_cache::lineset::{LineSet, INLINE_LINES};
use dhtm_cache::set_assoc::SetAssocCache;
use dhtm_types::addr::LineAddr;
use dhtm_types::config::CacheGeometry;

// ---------------------------------------------------------------------------
// Reference model for the set-associative array.
// ---------------------------------------------------------------------------

/// The specification, stated naively: lines live in `line % sets` sets of
/// at most `ways` entries; `insert`/`get_mut` stamp the line with a global
/// clock; a full set evicts its minimum-stamp line. Each set is a plain
/// `Vec` (append on fill, swap-remove on removal), and walks go set by set
/// in set-index order: the order the engines' schedules depend on.
struct RefCache {
    ways: usize,
    clock: u64,
    /// Per set: (line, last_use, value).
    sets: Vec<Vec<(u64, u64, u32)>>,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache {
            ways,
            clock: 0,
            sets: vec![Vec::new(); sets],
        }
    }

    fn set_of(&mut self, line: u64) -> &mut Vec<(u64, u64, u32)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn find(&self, line: u64) -> Option<(usize, usize)> {
        let set = (line % self.sets.len() as u64) as usize;
        let i = self.sets[set].iter().position(|&(l, _, _)| l == line)?;
        Some((set, i))
    }

    fn insert(&mut self, line: u64, value: u32) -> Option<(u64, u32)> {
        self.clock += 1;
        let (clock, ways) = (self.clock, self.ways);
        if let Some((set, i)) = self.find(line) {
            self.sets[set][i] = (line, clock, value);
            return None;
        }
        let set = self.set_of(line);
        let mut victim = None;
        if set.len() >= ways {
            // Stamps are unique, so the LRU choice is unambiguous.
            let lru = (0..set.len()).min_by_key(|&i| set[i].1).expect("full set");
            let (vl, _, vv) = set.swap_remove(lru);
            victim = Some((vl, vv));
        }
        set.push((line, clock, value));
        victim
    }

    fn get_mut(&mut self, line: u64) -> Option<u32> {
        let (set, i) = self.find(line)?;
        self.clock += 1;
        self.sets[set][i].1 = self.clock;
        Some(self.sets[set][i].2)
    }

    fn remove(&mut self, line: u64) -> Option<u32> {
        let (set, i) = self.find(line)?;
        Some(self.sets[set].swap_remove(i).2)
    }

    fn victim_for(&mut self, line: u64) -> Option<u64> {
        if self.find(line).is_some() {
            return None;
        }
        let ways = self.ways;
        let set = self.set_of(line);
        if set.len() < ways {
            return None;
        }
        set.iter().min_by_key(|e| e.1).map(|e| e.0)
    }

    /// Removes matching lines set by set, swap-removing within a set.
    fn drain_filter(&mut self, mut pred: impl FnMut(u64, u32) -> bool) -> Vec<(u64, u32)> {
        let mut removed = Vec::new();
        for set in &mut self.sets {
            let mut i = 0;
            while i < set.len() {
                if pred(set[i].0, set[i].2) {
                    let (l, _, v) = set.swap_remove(i);
                    removed.push((l, v));
                } else {
                    i += 1;
                }
            }
        }
        removed
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Every resident `(line, value)` in walk order.
    fn contents(&self) -> Vec<(u64, u32)> {
        self.sets
            .iter()
            .flatten()
            .map(|&(l, _, v)| (l, v))
            .collect()
    }

    fn clear(&mut self) {
        self.sets.iter_mut().for_each(Vec::clear);
    }
}

fn contents(cache: &SetAssocCache<u32>) -> Vec<(u64, u32)> {
    cache.iter().map(|(l, v)| (l.raw(), *v)).collect()
}

fn check_cache_against_reference(ops: &[(u8, u64)]) {
    // 4 sets × 2 ways over a 16-line address space: every op stream is
    // dense enough to exercise conflicts, evictions and re-insertion.
    let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(512, 2, 64));
    let mut reference = RefCache::new(4, 2);
    for (i, &(kind, raw)) in ops.iter().enumerate() {
        let line = LineAddr::new(raw);
        match kind % 4 {
            0 => {
                let value = i as u32;
                let got = cache.insert(line, value);
                let want = reference.insert(raw, value);
                assert_eq!(
                    got.map(|(l, v)| (l.raw(), v)),
                    want,
                    "op {i}: insert({raw}) victim mismatch"
                );
            }
            1 => {
                let got = cache.get_mut(line).map(|v| *v);
                let want = reference.get_mut(raw);
                assert_eq!(got, want, "op {i}: get_mut({raw}) mismatch");
            }
            2 => {
                assert_eq!(
                    cache.remove(line),
                    reference.remove(raw),
                    "op {i}: remove({raw}) mismatch"
                );
            }
            _ => {
                // Pure queries: must not disturb either model.
                assert_eq!(
                    cache.victim_for(line).map(LineAddr::raw),
                    reference.victim_for(raw),
                    "op {i}: victim_for({raw}) mismatch"
                );
                assert_eq!(
                    cache.contains(line),
                    reference.find(raw).is_some(),
                    "op {i}: contains({raw}) mismatch"
                );
            }
        }
        assert_eq!(cache.len(), reference.len(), "op {i}: len drifted");
    }
    // Full-state audit at the end: same resident lines, same values.
    assert_eq!(contents(&cache), reference.contents());
}

/// Sets of the sparse geometry that op streams touch, scattered over its
/// 1024 sets so that first fills arrive out of set order.
const SPARSE_SETS: [u64; 12] = [517, 3, 1023, 64, 999, 0, 200, 700, 42, 333, 5, 868];
const SPARSE_NUM_SETS: u64 = 1024;

/// A geometry and the part of it an op stream addresses: line
/// `tag * num_sets + sets[s]` for `tags` tags per touched set. More tags
/// than ways make sets overflow and evict.
struct Shape {
    num_sets: u64,
    ways: usize,
    sets: &'static [u64],
    tags: u64,
}

/// 1024 sets x 4 ways, a dozen of them ever filled.
const SPARSE_4_WAY: Shape = Shape {
    num_sets: SPARSE_NUM_SETS,
    ways: 4,
    sets: &SPARSE_SETS,
    tags: 6,
};

/// 8 sets x 4 ways, every set filled: blocks are grown, outgrown and
/// reused from the free lists all the time.
const DENSE_4_WAY: Shape = Shape {
    num_sets: 8,
    ways: 4,
    sets: &[0, 1, 2, 3, 4, 5, 6, 7],
    tags: 7,
};

/// The paper's LLC associativity: 1024 sets x 16 ways, four ever filled,
/// so sets walk the whole 1-2-4-8-16 growth sequence and overflow.
const SPARSE_16_WAY: Shape = Shape {
    num_sets: SPARSE_NUM_SETS,
    ways: 16,
    sets: &[700, 3, 1023, 42],
    tags: 20,
};

/// A non-power-of-two associativity (an overlay's `llc_ways = 12`): the
/// last growth step is 8 -> 12.
const TWELVE_WAY: Shape = Shape {
    num_sets: 64,
    ways: 12,
    sets: &[63, 0, 17, 40, 5],
    tags: 16,
};

/// Drives a cache of `shape` and the reference through one op stream. Op
/// `(kind, pick)` addresses line `tag * num_sets + sets[s]`, with `s` and
/// `tag` drawn from `pick`. After *every* op the full walk order of `iter`
/// is compared with the reference, and every insert's victim; `for_each_mut`
/// and `drain_filter` are compared on the order they visit lines in. A
/// `clear` midway must leave a cache that behaves like a fresh one.
fn check_walk_order_against_reference(shape: &Shape, ops: &[(u8, u16)]) {
    let geometry = CacheGeometry::new(shape.num_sets as usize * shape.ways * 64, shape.ways, 64);
    let mut cache: SetAssocCache<u32> = SetAssocCache::new(geometry);
    let mut reference = RefCache::new(shape.num_sets as usize, shape.ways);
    let touched = shape.sets.len() as u64;
    for (i, &(kind, pick)) in ops.iter().enumerate() {
        let pick = u64::from(pick);
        let set = shape.sets[(pick % touched) as usize];
        let raw = (pick / touched % shape.tags) * shape.num_sets + set;
        let line = LineAddr::new(raw);
        match kind % 32 {
            0..=11 => {
                let value = i as u32;
                assert_eq!(
                    cache.insert(line, value).map(|(l, v)| (l.raw(), v)),
                    reference.insert(raw, value),
                    "op {i}: insert({raw}) victim mismatch"
                );
            }
            12..=16 => assert_eq!(
                cache.get_mut(line).map(|v| *v),
                reference.get_mut(raw),
                "op {i}: get_mut({raw}) mismatch"
            ),
            17..=20 => assert_eq!(
                cache.remove(line),
                reference.remove(raw),
                "op {i}: remove({raw}) mismatch"
            ),
            21..=24 => {
                assert_eq!(
                    cache.victim_for(line).map(LineAddr::raw),
                    reference.victim_for(raw),
                    "op {i}: victim_for({raw}) mismatch"
                );
                assert_eq!(
                    cache.contains(line),
                    reference.find(raw).is_some(),
                    "op {i}: contains({raw}) mismatch"
                );
            }
            25..=27 => {
                let pred = |l: u64, v: u32| (l + u64::from(v)).is_multiple_of(3);
                let got: Vec<(u64, u32)> = cache
                    .drain_filter(|l, &v| pred(l.raw(), v))
                    .into_iter()
                    .map(|(l, v)| (l.raw(), v))
                    .collect();
                assert_eq!(got, reference.drain_filter(pred), "op {i}: drain order");
            }
            28..=30 => {
                let mut visited = Vec::new();
                cache.for_each_mut(|l, v| {
                    visited.push((l.raw(), *v));
                    *v += 1;
                });
                assert_eq!(visited, reference.contents(), "op {i}: for_each_mut order");
                reference.sets.iter_mut().flatten().for_each(|e| e.2 += 1);
            }
            _ => {
                cache.clear();
                reference.clear();
            }
        }
        assert_eq!(cache.len(), reference.len(), "op {i}: len drifted");
        assert_eq!(contents(&cache), reference.contents(), "op {i}: iter order");
    }
}

/// A hand-written stream over the 12-way shape whose victims are pinned
/// literally: one set grows through 1, 2, 4, 8 and 12 slots, then every
/// further insert evicts the least recently used line.
#[test]
fn twelve_way_growth_and_victims_are_pinned() {
    let mut cache: SetAssocCache<u32> =
        SetAssocCache::new(CacheGeometry::new(64 * 12 * 64, 12, 64));
    let line = |tag: u64| LineAddr::new(tag * 64 + 17);
    for tag in 0..12 {
        assert_eq!(cache.insert(line(tag), tag as u32), None, "tag {tag}");
    }
    // Touch the even tags: the odd ones become the eviction order.
    for tag in (0..12).step_by(2) {
        cache.get_mut(line(tag));
    }
    let victims: Vec<u64> = (12..18)
        .map(|tag| {
            let (victim, _) = cache
                .insert(line(tag), tag as u32)
                .expect("full set evicts");
            victim.raw() / 64
        })
        .collect();
    assert_eq!(victims, [1, 3, 5, 7, 9, 11]);
    // Swap-remove order within the set, as the per-set `Vec` gave it.
    let walk: Vec<u64> = cache.iter().map(|(l, _)| l.raw() / 64).collect();
    assert_eq!(walk, [0, 16, 2, 12, 4, 13, 6, 14, 8, 15, 10, 17]);
}

/// A cleared cache and a fresh one, driven by the same stream, give the
/// same victims, the same lookups and the same walk order at every step.
fn check_cleared_cache_is_fresh(warmup: &[u64], ops: &[(u8, u8)]) {
    let geometry = CacheGeometry::new(1024 * 4 * 64, 4, 64);
    let mut cleared: SetAssocCache<u32> = SetAssocCache::new(geometry);
    for (i, &raw) in warmup.iter().enumerate() {
        cleared.insert(LineAddr::new(raw), i as u32);
    }
    cleared.clear();
    assert!(cleared.is_empty() && cleared.iter().next().is_none());
    let mut fresh: SetAssocCache<u32> = SetAssocCache::new(geometry);
    for (i, &(kind, pick)) in ops.iter().enumerate() {
        let set = SPARSE_SETS[pick as usize % SPARSE_SETS.len()];
        let line = LineAddr::new(u64::from(pick % 6) * SPARSE_NUM_SETS + set);
        if kind % 3 == 0 {
            assert_eq!(cleared.get_mut(line), fresh.get_mut(line), "op {i}");
        } else {
            assert_eq!(
                cleared.insert(line, i as u32),
                fresh.insert(line, i as u32),
                "op {i}"
            );
        }
        assert_eq!(contents(&cleared), contents(&fresh), "op {i}: iter order");
    }
}

// ---------------------------------------------------------------------------
// Reference model for LineSet: the BTreeSet it replaced.
// ---------------------------------------------------------------------------

/// Drives a [`LineSet`] and a `BTreeSet<LineAddr>` through the same op
/// stream. Op kinds: 0/1 = insert, 2 = remove, 3 = contains/first query
/// (inserts twice as likely as removes, so the set's equilibrium size over
/// a 96-line space sits right at the 64-entry inline capacity and streams
/// keep crossing the spill boundary in both directions). After *every*
/// mutation the full iteration order is compared — set iteration order
/// leaks into the engines' log/flush schedule, so "same elements" is not
/// enough; the order must be bit-identical.
fn check_lineset_against_btreeset(ops: &[(u8, u64)]) {
    let mut set = LineSet::new();
    let mut reference: BTreeSet<LineAddr> = BTreeSet::new();
    for (i, &(kind, raw)) in ops.iter().enumerate() {
        let line = LineAddr::new(raw);
        match kind % 4 {
            0 | 1 => {
                assert_eq!(
                    set.insert(line),
                    reference.insert(line),
                    "op {i}: insert({raw}) newly-inserted flag mismatch"
                );
            }
            2 => {
                assert_eq!(
                    set.remove(line),
                    reference.remove(&line),
                    "op {i}: remove({raw}) mismatch"
                );
            }
            _ => {
                assert_eq!(
                    set.contains(line),
                    reference.contains(&line),
                    "op {i}: contains({raw}) mismatch"
                );
                assert_eq!(
                    set.first(),
                    reference.iter().next().copied(),
                    "op {i}: first() mismatch"
                );
            }
        }
        assert_eq!(set.len(), reference.len(), "op {i}: len drifted");
        assert_eq!(set.is_empty(), reference.is_empty());
        let got: Vec<LineAddr> = set.iter().collect();
        let want: Vec<LineAddr> = reference.iter().copied().collect();
        assert_eq!(got, want, "op {i}: iteration order diverged");
    }
}

#[test]
fn lineset_inline_to_spill_boundary_is_seamless() {
    // March a set across the exact spill threshold and back down, checking
    // order and membership at every size. Descending inserts force worst-
    // case shifting; interleaved queries hit both halves of each buffer.
    let mut set = LineSet::new();
    let mut reference = BTreeSet::new();
    let n = INLINE_LINES as u64 + 16;
    for r in (0..n).rev() {
        let line = LineAddr::new(r * 7);
        assert!(set.insert(line) && reference.insert(line));
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            reference.iter().copied().collect::<Vec<_>>(),
            "order diverged at size {}",
            set.len()
        );
    }
    assert!(set.is_spilled());
    // Shrink below the inline capacity again: the set stays spilled (by
    // design — capacity is retained) but must keep behaving identically.
    for r in 0..n / 2 {
        let line = LineAddr::new(r * 7);
        assert!(set.remove(line) && reference.remove(&line));
    }
    assert!(set.is_spilled());
    assert_eq!(
        set.iter().collect::<Vec<_>>(),
        reference.iter().copied().collect::<Vec<_>>()
    );
    set.clear();
    reference.clear();
    assert!(!set.is_spilled() && set.is_empty());
    // Reuse after clear: back to the inline path.
    assert!(set.insert(LineAddr::new(1)));
    assert_eq!(set.iter().collect::<Vec<_>>(), vec![LineAddr::new(1)]);
}

proptest! {
    // Fixed case count AND fixed RNG seed: a failure on one machine is the
    // same failure everywhere. Failing case seeds persist in
    // `proptest-regressions/flat_structures_property.txt` and are replayed
    // before fresh cases.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xD47A_15CA_2018_0005))]

    #[test]
    fn flat_cache_matches_reference_model(
        ops in proptest::collection::vec((0u8..4, 0u64..16), 0..400),
    ) {
        check_cache_against_reference(&ops);
    }

    #[test]
    fn sparse_cache_matches_reference_order(
        ops in proptest::collection::vec((0u8..32, 0u16..72), 0..500),
    ) {
        check_walk_order_against_reference(&SPARSE_4_WAY, &ops);
    }

    #[test]
    fn dense_four_way_cache_matches_reference_order(
        ops in proptest::collection::vec((0u8..32, 0u16..56), 0..500),
    ) {
        check_walk_order_against_reference(&DENSE_4_WAY, &ops);
    }

    #[test]
    fn sparse_sixteen_way_cache_matches_reference_order(
        ops in proptest::collection::vec((0u8..32, 0u16..80), 0..600),
    ) {
        check_walk_order_against_reference(&SPARSE_16_WAY, &ops);
    }

    #[test]
    fn twelve_way_cache_matches_reference_order(
        ops in proptest::collection::vec((0u8..32, 0u16..80), 0..600),
    ) {
        check_walk_order_against_reference(&TWELVE_WAY, &ops);
    }

    #[test]
    fn cleared_cache_behaves_like_a_fresh_one(
        warmup in proptest::collection::vec(0u64..8192, 0..200),
        ops in proptest::collection::vec((0u8..3, 0u8..72), 0..200),
    ) {
        check_cleared_cache_is_fresh(&warmup, &ops);
    }

    #[test]
    fn lineset_matches_btreeset_reference_model(
        // A 96-line address space over up to 600 ops: streams regularly
        // push the set size past INLINE_LINES (64), so the spill path and
        // the boundary crossing are exercised, not just the inline array.
        ops in proptest::collection::vec((0u8..4, 0u64..96), 0..600),
    ) {
        check_lineset_against_btreeset(&ops);
    }
}
