//! Property test: the driver's bucketed calendar queue schedules events
//! exactly like the `BinaryHeap<Reverse<(u64, usize)>>` it replaced.
//!
//! The driver's whole determinism story rests on one rule: the next event
//! is the pending `(time, core_index)` pair that is smallest under
//! lexicographic order — smallest time first, ties broken by the lower
//! core index. The calendar queue reimplements that rule with ring
//! buckets, an occupancy bitmap and a far-event overflow heap; any
//! divergence (a tie broken the other way inside a shared bucket, a
//! backoff resume sorted past the ring horizon) would silently reshuffle
//! the schedule and shift every figure.
//!
//! So: run real simulations — random workloads, every registered engine,
//! 1–16 cores — record the exact `(pop time, core, re-push time)` trace
//! the calendar queue produced, and replay it against a plain
//! `BinaryHeap`. Every pop must match event-for-event.
//!
//! The engines run through [`Polling`], so the driver never parks a
//! lock-blocked core: every step re-pushes its core at its post-step clock,
//! which is what the replay assumes, and the queue sees the full polling
//! schedule. (A parked core leaves the queue and re-enters only after a
//! lock release, at a time the trace would not show; that path is checked
//! against the polling runs by `parking_equivalence`.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use dhtm_baselines::EngineRegistry;
use dhtm_scenario::{ResolvedSpec, SpecLimits};
use dhtm_sim::driver::StepEvent;
use dhtm_sim::{Polling, Simulator};
use dhtm_types::config::BaseConfig;

/// One scheduled event as the driver executed it: the time and core the
/// queue popped, and the time the core was re-pushed with after the step.
type TraceEntry = (u64, usize, u64);

/// Runs `(engine, workload, cores, seed)` through the real driver and
/// records its complete schedule trace. The re-push time comes from
/// `StepEvent::Progress::time` — without parking, the driver always
/// re-schedules the stepped core at its post-step local clock.
fn schedule_trace(engine_idx: usize, workload: &str, cores: usize, seed: u64) -> Vec<TraceEntry> {
    let ids = EngineRegistry::builtin().ids();
    let engine_id = ids[engine_idx % ids.len()].clone();
    let cfg = BaseConfig::Small.resolve().with_num_cores(cores);
    // OLTP transactions are an order of magnitude larger than the
    // micro-benchmark batches; a smaller commit target keeps each proptest
    // case fast while still producing thousands of schedule events.
    let target_commits = match workload {
        "tatp" | "tpcc" => 3,
        _ => 12,
    };
    let resolved = ResolvedSpec::from_parts(
        &engine_id,
        workload,
        cfg,
        SpecLimits {
            target_commits,
            max_cycles: 20_000_000,
        },
        seed,
    );
    let (mut machine, engine, mut workload, limits) = resolved.components();
    let mut engine = Polling(engine);
    let sim = Simulator::new();
    let mut session = sim.start(&mut machine, &mut engine, workload.as_mut(), &limits);
    let mut trace = Vec::new();
    while let Some(now) = session.next_event_time() {
        match session.step() {
            StepEvent::Progress { core, time, .. } => trace.push((now, core.get(), time)),
            StepEvent::Finished => break,
        }
    }
    trace
}

/// Replays a recorded trace against the reference scheduler: a binary
/// min-heap over `(time, core_index)`, seeded like the driver seeds its
/// queue (every core pending at time 0). Each recorded pop must be
/// exactly what the heap would have popped.
fn assert_heap_equivalent(num_cores: usize, trace: &[TraceEntry]) {
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..num_cores).map(|i| Reverse((0, i))).collect();
    for (step, &(now, core, repush)) in trace.iter().enumerate() {
        let Some(Reverse((t, c))) = heap.pop() else {
            panic!("heap exhausted at step {step} while the driver still had events");
        };
        assert_eq!(
            (t, c),
            (now, core),
            "step {step}: calendar queue popped ({now}, core {core}) \
             but the heap order is ({t}, core {c})"
        );
        assert!(repush >= now, "step {step}: time went backwards");
        heap.push(Reverse((repush, core)));
    }
}

proptest! {
    // Each case is a full (if small) simulation; the pinned seed makes
    // failures replayable via proptest-regressions.
    #![proptest_config(ProptestConfig::with_cases(8).with_rng_seed(0xD47A_15CA_2018_0006))]

    #[test]
    fn calendar_queue_schedules_exactly_like_a_binary_heap(
        engine_idx in 0usize..64,
        workload_idx in 0usize..dhtm_workloads::NAMES.len(),
        cores in 1usize..=16,
        seed in 0u64..u64::MAX,
    ) {
        let workload = dhtm_workloads::NAMES[workload_idx];
        let trace = schedule_trace(engine_idx, workload, cores, seed);
        prop_assert!(!trace.is_empty(), "the run must schedule at least one event");
        assert_heap_equivalent(cores, &trace);
    }
}

#[test]
fn every_builtin_engine_matches_the_heap_on_a_contended_run() {
    // Deterministic sweep across the whole catalogue at the paper's core
    // count: contention means aborts, and aborts mean exponential backoff
    // pushes far beyond the pop time — the exact resumes that would cross
    // a mis-handled calendar ring horizon.
    let n = EngineRegistry::builtin().ids().len();
    for engine_idx in 0..n {
        let trace = schedule_trace(engine_idx, "hash", 8, 0x15CA_2018);
        assert!(!trace.is_empty());
        assert_heap_equivalent(8, &trace);
        let max_jump = trace.iter().map(|&(now, _, t)| t - now).max().unwrap();
        assert!(
            max_jump >= 1,
            "engine {engine_idx}: trace never advanced time"
        );
    }
}
