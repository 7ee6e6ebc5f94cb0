//! Property test of the fused L1 store: `MemorySystem::store_word_in_l1`
//! against the three-call sequence it replaced.
//!
//! The engines used to finish a store with three L1 lookups: the coherence
//! `store`, a word write that marked the line dirty, and an `entry_mut` that
//! set the write bit (or, on write-aside paths, cleared the dirty bit
//! again). Now one call writes the word, sets the line's bits and reports
//! whether the write bit was already set, and the engines skip the
//! write-set insert when it was. This test drives two memory systems through
//! the same random load/store/commit/abort streams, one through the fused
//! call and one through the old sequence rebuilt from `L1Cache` primitives,
//! and after every operation compares every L1, the LLC, `MemStats` and
//! persistent memory. It also checks the "already set" flags (the fused
//! write bit and the read bit the engines set on a transactional load)
//! against a per-attempt model, and that a write set built from first
//! stores only equals one built from every store.
//!
//! Lines come from six L1 sets and six LLC sets with eight candidates each,
//! so both levels evict, and four cores share them, so stores invalidate
//! other cores' copies: both take lines, and their bits, out of an L1.

use std::collections::{BTreeSet, HashSet};

use proptest::prelude::*;

use dhtm_cache::l1::{L1Entry, StoreKind};
use dhtm_coherence::memsys::MemorySystem;
use dhtm_coherence::probe::NoConflicts;
use dhtm_types::addr::{Address, LineAddr, WordIndex};
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::CoreId;

/// Lines in the stream's universe.
const LINES: u64 = 48;

/// Maps a universe index to a line: `small_test` has 16 L1 sets and 128
/// LLC sets, so index `i` lands in set `i % 6` of both.
fn line_of(index: u64) -> LineAddr {
    LineAddr::new(index % 6 + 128 * (index / 6))
}

/// One core's transactional bookkeeping, as an engine keeps it.
#[derive(Default)]
struct Attempt {
    /// Resident lines whose write bit this attempt set: the model of the
    /// flag the fused store returns.
    write_bits: HashSet<LineAddr>,
    /// Resident lines whose read bit this attempt set.
    read_bits: HashSet<LineAddr>,
    /// Write set built the engines' way: insert only when the write bit was
    /// clear.
    write_set: BTreeSet<LineAddr>,
    /// Write set built from every transactional store.
    every_store: BTreeSet<LineAddr>,
    /// Read set built from first loads only, and from every load.
    read_set: BTreeSet<LineAddr>,
    every_load: BTreeSet<LineAddr>,
}

/// The pair of memory systems under comparison.
struct Pair {
    fused: MemorySystem,
    old: MemorySystem,
}

impl Pair {
    fn new() -> Self {
        let cfg = SystemConfig::small_test();
        Pair {
            fused: MemorySystem::new(&cfg),
            old: MemorySystem::new(&cfg),
        }
    }

    fn both(&mut self, mut f: impl FnMut(&mut MemorySystem)) {
        f(&mut self.fused);
        f(&mut self.old);
    }

    fn assert_identical(&self, step: usize) {
        let (a, b) = (&self.fused, &self.old);
        for c in 0..a.num_cores() {
            let core = CoreId::new(c);
            let la: Vec<_> = a.l1(core).iter().map(|(l, e)| (l, *e)).collect();
            let lb: Vec<_> = b.l1(core).iter().map(|(l, e)| (l, *e)).collect();
            assert_eq!(la, lb, "step {step}: core {c} L1");
            assert_eq!(a.l1(core).hits(), b.l1(core).hits(), "step {step}");
            assert_eq!(a.l1(core).misses(), b.l1(core).misses(), "step {step}");
        }
        let llc_a: Vec<_> = a.llc().iter().map(|(l, e)| (l, *e)).collect();
        let llc_b: Vec<_> = b.llc().iter().map(|(l, e)| (l, *e)).collect();
        assert_eq!(llc_a, llc_b, "step {step}: LLC");
        assert_eq!(a.stats(), b.stats(), "step {step}: MemStats");
        for i in 0..LINES {
            let line = line_of(i);
            assert_eq!(
                a.domain().read_line(line),
                b.domain().read_line(line),
                "step {step}: persistent {line:?}"
            );
        }
    }
}

/// Hands a store's or load's evicted victim back to the hierarchy, the same
/// way on both sides.
fn settle_victim(
    mem: &mut MemorySystem,
    core: CoreId,
    victim: Option<(LineAddr, L1Entry)>,
    now: u64,
) {
    if let Some((line, entry)) = victim {
        mem.evict_nontransactional(core, line, &entry, now);
    }
}

/// The store sequence the engines ran before the fused call, rebuilt from
/// `L1Cache` primitives: a word write that marks the line dirty, then a
/// second lookup that sets the write bit or, for write-aside, cleans the
/// line. Returns the write bit as the second lookup found it.
fn old_store_sequence(
    mem: &mut MemorySystem,
    core: CoreId,
    addr: Address,
    value: u64,
    kind: StoreKind,
) -> bool {
    let line = addr.line();
    let entry = mem.l1_mut(core).entry_mut(line).expect("line resident");
    entry.data[addr.word_index().get()] = value;
    entry.dirty = true;
    let entry = mem.l1_mut(core).entry_mut(line).expect("line resident");
    let was_set = entry.write_bit;
    match kind {
        StoreKind::Plain => {}
        StoreKind::WriteAside => entry.dirty = false,
        StoreKind::Transactional => entry.write_bit = true,
    }
    was_set
}

fn run_stream(ops: &[(u8, u8, u64, u64)]) {
    let mut pair = Pair::new();
    let mut attempts: Vec<Attempt> = (0..pair.fused.num_cores())
        .map(|_| Attempt::default())
        .collect();
    let mut now = 0u64;
    for (step, &(c, op, index, value)) in ops.iter().enumerate() {
        let core = CoreId::new(c as usize % pair.fused.num_cores());
        let line = line_of(index % LINES);
        let addr = line.word_address(WordIndex::new((value / 2 % 8) as usize));
        let attempt = &mut attempts[core.get()];
        match op {
            // Loads, transactional (0, 1) and plain (2).
            0..=2 => {
                pair.both(|mem| {
                    let out = mem.load(core, line, now, &mut NoConflicts);
                    settle_victim(mem, core, out.evicted_victim, now);
                });
                if op < 2 {
                    let mut flags = [false; 2];
                    for (flag, mem) in flags.iter_mut().zip([&mut pair.fused, &mut pair.old]) {
                        let entry = mem.l1_mut(core).entry_mut(line).expect("filled");
                        *flag = std::mem::replace(&mut entry.read_bit, true);
                    }
                    assert_eq!(flags[0], flags[1], "step {step}");
                    assert_eq!(flags[0], attempt.read_bits.contains(&line), "step {step}");
                    attempt.read_bits.insert(line);
                    if !flags[0] {
                        attempt.read_set.insert(line);
                    }
                    attempt.every_load.insert(line);
                }
            }
            // Stores: transactional (3, 4), plain (5), write-aside (6).
            3..=6 => {
                let kind = match op {
                    5 => StoreKind::Plain,
                    6 => StoreKind::WriteAside,
                    _ => StoreKind::Transactional,
                };
                pair.both(|mem| {
                    let out = mem.store(core, line, now, &mut NoConflicts);
                    settle_victim(mem, core, out.evicted_victim, now);
                });
                let fused = pair.fused.store_word_in_l1(core, addr, value, kind);
                let old = old_store_sequence(&mut pair.old, core, addr, value, kind);
                assert_eq!(fused, old, "step {step}: write-bit flag");
                assert_eq!(fused, attempt.write_bits.contains(&line), "step {step}");
                if kind == StoreKind::Transactional {
                    attempt.write_bits.insert(line);
                    if !fused {
                        attempt.write_set.insert(line);
                    }
                    attempt.every_store.insert(line);
                }
            }
            // End of the attempt: commit (even value) or abort (odd).
            _ => {
                if value % 2 == 0 {
                    pair.both(|mem| {
                        mem.l1_mut(core).flash_clear_write_bits();
                        mem.l1_mut(core).flash_clear_read_bits();
                    });
                } else {
                    pair.both(|mem| {
                        let mut lines = Vec::new();
                        mem.l1_mut(core).flash_invalidate_write_set_into(&mut lines);
                        for line in lines {
                            mem.notify_clean_eviction(core, line);
                        }
                        mem.l1_mut(core).flash_clear_read_bits();
                    });
                }
                assert_eq!(attempt.write_set, attempt.every_store, "step {step}");
                assert_eq!(attempt.read_set, attempt.every_load, "step {step}");
                *attempt = Attempt::default();
            }
        }
        // Bits leave with their lines: evictions, back-invalidations and
        // other cores' stores.
        for (c, attempt) in attempts.iter_mut().enumerate() {
            let l1 = pair.fused.l1(CoreId::new(c));
            attempt.write_bits.retain(|&l| l1.entry(l).is_some());
            attempt.read_bits.retain(|&l| l1.entry(l).is_some());
        }
        pair.assert_identical(step);
        now += 7;
    }
    for attempt in &attempts {
        assert_eq!(attempt.write_set, attempt.every_store);
        assert_eq!(attempt.read_set, attempt.every_load);
    }
}

proptest! {
    // Fixed case count and RNG seed: a failure reproduces everywhere.
    // Failing case seeds persist in `proptest-regressions/fused_store_property.txt`.
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0xD47A_15CA_2018_0019))]

    #[test]
    fn fused_store_matches_the_three_call_sequence(
        ops in proptest::collection::vec((0u8..4, 0u8..8, 0u64..LINES, 0u64..1_000_000), 0..400),
    ) {
        run_stream(&ops);
    }
}

#[test]
fn a_repeat_store_reports_the_write_bit_until_the_line_leaves() {
    let mut mem = MemorySystem::new(&SystemConfig::small_test());
    let (c0, c1) = (CoreId::new(0), CoreId::new(1));
    let addr = Address::new(0x80);
    let store = |mem: &mut MemorySystem, core, value| {
        let out = mem.store(core, addr.line(), 0, &mut NoConflicts);
        assert!(out.evicted_victim.is_none());
        mem.store_word_in_l1(core, addr, value, StoreKind::Transactional)
    };
    assert!(!store(&mut mem, c0, 1), "first store");
    assert!(store(&mut mem, c0, 2), "repeat store");
    // Another core's store invalidates core 0's copy, bit and all.
    assert!(!store(&mut mem, c1, 3));
    assert!(
        !store(&mut mem, c0, 4),
        "the line came back without its bit"
    );
    assert_eq!(mem.read_word_in_l1(c0, addr), 4);
}
