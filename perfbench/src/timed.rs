//! Delegating wrappers that count every call into an engine or workload
//! and time a pseudo-random one in [`SAMPLE_EVERY`], and the traced run
//! that drives a spec through them.
//!
//! The wrappers forward every call unchanged, so a traced run's simulated
//! results are bit-identical to an untraced one. Timing only a sample of
//! calls bounds the clock reads to two per [`SAMPLE_EVERY`] calls.

use std::sync::OnceLock;
use std::time::Instant;

use dhtm_obs::ProbeRegistry;
use dhtm_scenario::ResolvedSpec;
use dhtm_sim::driver::Simulator;
use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::LockId;
use dhtm_sim::machine::Machine;
use dhtm_sim::workload::{Transaction, Workload};
use dhtm_types::addr::Address;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{RunStats, TxStats};

/// On average one call in this many is timed (a power of two: the sampler
/// tests the top bits of a golden-ratio multiple of the call index).
pub const SAMPLE_EVERY: u64 = 16;

/// Calls of one method: the exact count, and the host time of the sampled
/// calls.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStats {
    /// Every call.
    pub calls: u64,
    /// Calls that were timed.
    pub timed: u64,
    /// Summed host nanoseconds of the timed calls.
    pub timed_ns: u64,
}

impl CallStats {
    /// Mean host nanoseconds per call, from the sample, less the cost of
    /// the two clock reads that timed it.
    pub fn mean_ns(&self) -> f64 {
        if self.timed == 0 {
            0.0
        } else {
            (self.timed_ns as f64 / self.timed as f64 - clock_overhead_ns()).max(0.0)
        }
    }

    /// Estimated host nanoseconds of all calls.
    pub fn total_ns(&self) -> f64 {
        self.mean_ns() * self.calls as f64
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &CallStats) {
        self.calls += other.calls;
        self.timed += other.timed;
        self.timed_ns += other.timed_ns;
    }
}

/// Host nanoseconds that timing an empty call reads: `Instant::now` and
/// `elapsed` around nothing, the median of five batches, measured once.
pub fn clock_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        const READS: u32 = 20_000;
        let batches: Vec<f64> = (0..5)
            .map(|_| {
                let total: u128 = (0..READS)
                    .map(|_| std::hint::black_box(Instant::now()).elapsed().as_nanos())
                    .sum();
                total as f64 / f64::from(READS)
            })
            .collect();
        crate::stats::median(&batches)
    })
}

/// Index of each engine method in [`Timed::calls`].
pub const BEGIN: usize = 0;
/// See [`BEGIN`].
pub const READ: usize = 1;
/// See [`BEGIN`].
pub const WRITE: usize = 2;
/// See [`BEGIN`].
pub const COMMIT: usize = 3;
/// Index of `next_transaction` in a wrapped workload's [`Timed::calls`].
pub const NEXT_TX: usize = 0;

/// Outcomes an engine returned, counted at the boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outcomes {
    /// `begin` calls that returned `Done` (the rest stalled or aborted).
    pub begins_done: u64,
    /// `commit` calls that returned `Done`.
    pub commits: u64,
    /// Calls of any method that returned `Aborted`.
    pub aborts: u64,
}

impl Outcomes {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Outcomes) {
        self.begins_done += other.begins_done;
        self.commits += other.commits;
        self.aborts += other.aborts;
    }
}

/// A delegating wrapper around a [`TxEngine`] or a [`Workload`].
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    /// Per-method statistics ([`BEGIN`]..[`COMMIT`] for engines,
    /// [`NEXT_TX`] for workloads).
    pub calls: [CallStats; 4],
    /// Engine outcomes (zero for workloads).
    pub outcomes: Outcomes,
}

impl<T> Timed<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        Timed {
            inner,
            calls: [CallStats::default(); 4],
            outcomes: Outcomes::default(),
        }
    }

    #[inline]
    fn call<R>(&mut self, method: usize, f: impl FnOnce(&mut T) -> R) -> R {
        let n = self.calls[method].calls;
        self.calls[method].calls += 1;
        // The top bits of a golden-ratio multiple of the call index pick
        // one call in SAMPLE_EVERY, evenly spread and unable to alias with
        // a periodic call pattern the way every-Nth sampling can.
        if n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SAMPLE_EVERY.trailing_zeros()) != 0 {
            return f(&mut self.inner);
        }
        let start = Instant::now();
        let result = f(&mut self.inner);
        let stats = &mut self.calls[method];
        stats.timed_ns += start.elapsed().as_nanos() as u64;
        stats.timed += 1;
        result
    }

    fn tally(&mut self, outcome: StepOutcome) -> StepOutcome {
        if let StepOutcome::Aborted { .. } = outcome {
            self.outcomes.aborts += 1;
        }
        outcome
    }
}

impl<E: TxEngine> TxEngine for Timed<E> {
    fn design(&self) -> DesignKind {
        self.inner.design()
    }

    fn init(&mut self, machine: &mut Machine) {
        self.inner.init(machine);
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        let outcome = self.call(BEGIN, |e| e.begin(machine, core, lock_set, now));
        self.outcomes.begins_done += u64::from(outcome.is_done());
        self.tally(outcome)
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        let outcome = self.call(READ, |e| e.read(machine, core, addr, now));
        self.tally(outcome)
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        let outcome = self.call(WRITE, |e| e.write(machine, core, addr, value, now));
        self.tally(outcome)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        let outcome = self.call(COMMIT, |e| e.commit(machine, core, now));
        self.outcomes.commits += u64::from(outcome.is_done());
        self.tally(outcome)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.inner.last_tx_stats(core)
    }

    fn fallback_commits(&self) -> u64 {
        self.inner.fallback_commits()
    }

    fn probes_into(&self, reg: &mut ProbeRegistry) {
        self.inner.probes_into(reg);
    }
}

impl<W: Workload + ?Sized> Workload for Timed<Box<W>> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_transaction(&mut self, core: CoreId) -> Transaction {
        self.call(NEXT_TX, |w| w.next_transaction(core))
    }

    fn setup_transactions(&mut self) -> Vec<Transaction> {
        self.inner.setup_transactions()
    }
}

/// One spec run through the [`Timed`] wrappers, with its host-time spans.
#[derive(Debug)]
pub struct TracedRun {
    /// The simulated statistics (bit-identical to an untraced run).
    pub stats: RunStats,
    /// The post-run probe registry, collected as `ResolvedSpec::run_probed`
    /// collects it.
    pub probes: ProbeRegistry,
    /// Host nanoseconds to resolve the spec and build its components.
    pub build_ns: u64,
    /// Host nanoseconds in `Simulator::start`.
    pub start_ns: u64,
    /// Host nanoseconds in `SimulationSession::run_to_completion`.
    pub run_ns: u64,
    /// Engine calls.
    pub engine: [CallStats; 4],
    /// Engine outcomes.
    pub outcomes: Outcomes,
    /// `next_transaction` calls.
    pub next_tx: CallStats,
}

/// Resolves a spec with `resolve` and runs it through the wrappers.
pub fn run_traced(resolve: impl FnOnce() -> ResolvedSpec) -> TracedRun {
    let t0 = Instant::now();
    let resolved = resolve();
    let (mut machine, engine, workload, limits) = resolved.components();
    let build_ns = t0.elapsed().as_nanos() as u64;
    let mut engine = Timed::new(engine);
    let mut workload = Timed::new(workload);

    let t1 = Instant::now();
    let mut session = Simulator::new().start(&mut machine, &mut engine, &mut workload, &limits);
    let start_ns = t1.elapsed().as_nanos() as u64;
    let t2 = Instant::now();
    session.run_to_completion();
    let run_ns = t2.elapsed().as_nanos() as u64;
    let result = session.into_result();

    let mut probes = ProbeRegistry::new();
    machine
        .mem
        .probes_into(result.stats.total_cycles, &mut probes);
    engine.probes_into(&mut probes);
    TracedRun {
        stats: result.stats,
        probes,
        build_ns,
        start_ns,
        run_ns,
        engine: engine.calls,
        outcomes: engine.outcomes,
        next_tx: workload.calls[NEXT_TX],
    }
}

/// Host time of resolving, building and starting one spec: the set-up a
/// run pays before its first step.
pub fn setup_ns(resolve: impl FnOnce() -> ResolvedSpec) -> u64 {
    let t0 = Instant::now();
    let resolved = resolve();
    let (mut machine, mut engine, mut workload, limits) = resolved.components();
    let session = Simulator::new().start(&mut machine, &mut engine, workload.as_mut(), &limits);
    std::hint::black_box(&session);
    t0.elapsed().as_nanos() as u64
}
