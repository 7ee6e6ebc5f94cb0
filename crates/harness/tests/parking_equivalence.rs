//! Property test: parking lock-blocked cores is invisible in every result.
//!
//! When a core's `begin` finds its locks busy the driver parks it instead
//! of re-issuing the `begin` every poll period, wakes it after the next lock
//! release, and settles the polls it skipped arithmetically. The polling
//! schedule is still the model every statistic describes, so a parked run
//! must equal the same run through [`Polling`] — the adapter that turns each
//! `Blocked` back into a plain `Stall`, so the driver executes every poll —
//! in all of:
//!
//! * the whole `RunStats` (`steps` and the stall counters included);
//! * the observer event stream: kind, core, pop time, core clock, commit
//!   count and durable-mutation clock of every callback;
//! * the final persistent domain;
//! * the lock table's contended-attempt count.
//!
//! The runs are real simulations: every registered engine on every workload,
//! 1–16 cores, random workload seeds and cycle limits (a limit that cuts the
//! run exercises the `max_cycles` settle path).

use proptest::prelude::*;

use dhtm_baselines::EngineRegistry;
use dhtm_nvm::domain::PersistentDomain;
use dhtm_scenario::{ResolvedSpec, SpecLimits};
use dhtm_sim::engine::{Polling, TxEngine};
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_sim::workload::Transaction;
use dhtm_sim::Simulator;
use dhtm_types::config::BaseConfig;
use dhtm_types::stats::{AbortReason, RunStats};

/// What an observer callback reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Begin,
    DurableTick,
    Commit,
    Abort(AbortReason),
}

/// One observer callback: its kind and the step context it saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    kind: Kind,
    core: usize,
    now: u64,
    core_time: u64,
    total_committed: u64,
    mutations_before: u64,
    mutations_after: u64,
}

/// Records every callback in order.
#[derive(Debug, Default)]
struct Recorder(Vec<Event>);

impl Recorder {
    fn record(&mut self, kind: Kind, ctx: &StepContext<'_>) {
        self.0.push(Event {
            kind,
            core: ctx.core.get(),
            now: ctx.now,
            core_time: ctx.core_time,
            total_committed: ctx.total_committed,
            mutations_before: ctx.mutations_before,
            mutations_after: ctx.mutations_after,
        });
    }
}

impl SimObserver for Recorder {
    fn on_begin(&mut self, ctx: &StepContext<'_>, _tx: &Transaction) {
        self.record(Kind::Begin, ctx);
    }
    fn on_commit(&mut self, ctx: &StepContext<'_>, _tx: &Transaction) {
        self.record(Kind::Commit, ctx);
    }
    fn on_abort(&mut self, ctx: &StepContext<'_>, reason: AbortReason) {
        self.record(Kind::Abort(reason), ctx);
    }
    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.record(Kind::DurableTick, ctx);
    }
}

/// Everything a run leaves behind that parking must not change.
#[derive(Debug, PartialEq)]
struct RunEnd {
    stats: RunStats,
    events: Vec<Event>,
    domain: PersistentDomain,
    contended_attempts: u64,
}

/// One simulation setup; run it parked or polling with [`Case::run`].
#[derive(Debug, Clone, Copy)]
struct Case {
    engine_idx: usize,
    workload: &'static str,
    cores: usize,
    seed: u64,
    max_cycles: u64,
}

impl Case {
    fn run<E: TxEngine>(&self, wrap: impl FnOnce(dhtm_baselines::EngineDispatch) -> E) -> RunEnd {
        let ids = EngineRegistry::builtin().ids();
        let engine_id = ids[self.engine_idx % ids.len()].clone();
        let cfg = BaseConfig::Small.resolve().with_num_cores(self.cores);
        // OLTP transactions are an order of magnitude larger than the
        // micro-benchmark ones; a smaller target keeps each case fast.
        let target_commits = match self.workload {
            "tatp" | "tpcc" => 3,
            _ => 12,
        };
        let resolved = ResolvedSpec::from_parts(
            &engine_id,
            self.workload,
            cfg,
            SpecLimits {
                target_commits,
                max_cycles: self.max_cycles,
            },
            self.seed,
        );
        let (mut machine, engine, mut workload, limits) = resolved.components();
        let mut engine = wrap(engine);
        let mut recorder = Recorder::default();
        let stats = Simulator::new()
            .run_with_observer(
                &mut machine,
                &mut engine,
                workload.as_mut(),
                &limits,
                &mut recorder,
            )
            .stats;
        RunEnd {
            stats,
            events: recorder.0,
            domain: machine.mem.domain().clone(),
            contended_attempts: machine.locks.contended_attempts(),
        }
    }

    /// Runs the case both ways and asserts the two ends are equal.
    /// Returns the run's lock-wait cycles (zero when nothing blocked).
    fn assert_parking_invisible(&self) -> u64 {
        let parked = self.run(|e| e);
        let polling = self.run(Polling);
        assert_eq!(parked.stats, polling.stats, "{self:?}: RunStats differ");
        assert_eq!(
            parked.contended_attempts, polling.contended_attempts,
            "{self:?}: contended attempts differ"
        );
        if let Some(i) = (0..parked.events.len().min(polling.events.len()))
            .find(|&i| parked.events[i] != polling.events[i])
        {
            panic!(
                "{self:?}: observer event {i} differs: parked {:?}, polling {:?}",
                parked.events[i], polling.events[i]
            );
        }
        assert_eq!(
            parked.events.len(),
            polling.events.len(),
            "{self:?}: observer event counts differ"
        );
        assert!(
            parked.domain == polling.domain,
            "{self:?}: final persistent domains differ"
        );
        parked.stats.lock_wait_cycles
    }
}

proptest! {
    // Each case is a pair of full (if small) simulations; the pinned seed
    // makes failures replayable.
    #![proptest_config(ProptestConfig::with_cases(24).with_rng_seed(0xD47A_15CA_2018_0016))]

    #[test]
    fn parked_runs_equal_polling_runs(
        engine_idx in 0usize..64,
        workload_idx in 0usize..dhtm_workloads::NAMES.len(),
        cores in 1usize..=16,
        seed in 0u64..u64::MAX,
        // Short limits cut the run with cores still parked.
        max_cycles in 2_000u64..400_000,
    ) {
        Case {
            engine_idx,
            workload: dhtm_workloads::NAMES[workload_idx],
            cores,
            seed,
            max_cycles,
        }
        .assert_parking_invisible();
    }
}

#[test]
fn every_builtin_engine_and_workload_parks_invisibly_on_8_cores() {
    // The contended sweep: every engine on every workload at the paper's
    // core count. The micro-benchmarks run to their commit target; the
    // OLTP runs are cut at a cycle limit with cores parked, since the
    // polling reference re-issues their long lock sets on every poll.
    let engines = EngineRegistry::builtin().ids().len();
    let mut lock_wait = 0;
    for engine_idx in 0..engines {
        for workload in dhtm_workloads::NAMES {
            let max_cycles = match workload {
                "tatp" | "tpcc" => 150_000,
                _ => 20_000_000,
            };
            lock_wait += Case {
                engine_idx,
                workload,
                cores: 8,
                seed: 0x15CA_2018,
                max_cycles,
            }
            .assert_parking_invisible();
        }
    }
    assert!(lock_wait > 0, "the sweep must block on locks somewhere");
}
