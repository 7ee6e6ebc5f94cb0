//! The simulation driver: deterministic multicore execution of a workload on
//! a design.
//!
//! The inner loop is an event scheduler: each core has one pending event
//! keyed by `(local_time, core_index)`, held in a bucketed
//! [`CalendarQueue`] (see [`crate::calendar`]) — event times are dense
//! small integers, so an O(1) ring of buckets beats a heap, and the
//! queue's exact `(time, index)` order makes the schedule identical to the
//! historical linear-scan and `BinaryHeap` drivers, so results are
//! bit-for-bit reproducible across all three implementations and any
//! worker-pool sharding built on top.
//!
//! **Parked cores.** A core whose `begin` finds its locks busy
//! ([`StepOutcome::Blocked`]) would, in the polling model the statistics
//! describe, re-issue that `begin` every `period` cycles until a lock is
//! released; each such poll fails and changes nothing but its own stall
//! counters. So the driver takes the core off the queue ("parks" it) and
//! puts it back only after a step that released a lock
//! ([`LockTable::releases`](crate::locks::LockTable::releases) moved): at
//! the first point `p` of its poll grid `time + k * period` with
//! `(p, core) > (now, releasing core)`, the position its next poll holds in
//! the queue's `(time, index)` order. The polls it skipped are settled
//! arithmetically: each adds one step, `period` stall and lock-wait cycles,
//! and a contended attempt if the real poll counted one. Settling also
//! happens at every exit (the commit target, `max_cycles`, an empty queue)
//! and in [`SimulationSession::into_result`] at any cut, so every
//! [`RunStats`] field, `steps` included, equals the polling run's. The
//! [`Polling`](crate::engine::Polling) adapter replays the polling model
//! for the equivalence tests.
//!
//! The driver is generic over the engine, workload and observer types: the
//! canonical engines run through `dhtm_baselines`' closed `EngineDispatch`
//! enum, so the step loop's engine calls are match dispatch (inlinable)
//! rather than vtable calls, and an unobserved run monomorphises its
//! observer hooks to nothing. `&mut dyn TxEngine` callers keep working —
//! the generics default to the trait objects.
//!
//! The loop itself lives in [`SimulationSession`], a checkpointed, resumable
//! form of the run: callers can advance it one event at a time with
//! [`SimulationSession::step`], observe each step (commits, the machine, the
//! persistent domain) between events, stop at an arbitrary point and collect
//! partial statistics. Streaming observation goes through the
//! [`SimObserver`] interface ([`SimulationSession::step_with`] /
//! [`Simulator::run_with_observer`]): observers receive begin/commit/abort/
//! durable-tick callbacks with immutable context only, so an
//! observed run is bit-identical to an unobserved one. [`Simulator::run`]
//! is the uninstrumented run-to-completion wrapper; the crash-injection
//! subsystem (`dhtm_crash`) and the scenario metrics sink are the primary
//! observer clients.

use dhtm_coherence::memsys::MemStats;
use dhtm_nvm::domain::PersistentDomain;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::RunStats;

use crate::calendar::CalendarQueue;
use crate::engine::{StepOutcome, TxEngine};
use crate::machine::Machine;
use crate::observer::{NullObserver, SimObserver, StepContext};
use crate::workload::{Transaction, TxOp, Workload};

/// Termination conditions for a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct RunLimits {
    /// Stop once this many transactions have committed (across all cores).
    pub target_commits: u64,
    /// Hard upper bound on simulated cycles (guards against livelock).
    pub max_cycles: u64,
}

impl RunLimits {
    /// A small run suitable for unit and integration tests.
    pub fn quick() -> Self {
        RunLimits {
            target_commits: 200,
            max_cycles: 50_000_000,
        }
    }

    /// The run length used by the experiment harness.
    pub fn evaluation() -> Self {
        RunLimits {
            target_commits: 2_000,
            max_cycles: 2_000_000_000,
        }
    }

    /// Builder-style override of the commit target.
    #[must_use]
    pub fn with_target_commits(mut self, commits: u64) -> Self {
        self.target_commits = commits;
        self
    }
}

impl Default for RunLimits {
    fn default() -> Self {
        Self::quick()
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// The design that was run.
    pub design: DesignKind,
    /// The workload name.
    pub workload: String,
    /// Aggregate statistics.
    pub stats: RunStats,
}

impl SimulationResult {
    /// Transactions committed per million cycles — the throughput metric all
    /// of the paper's figures are based on (always reported normalised to
    /// SO).
    pub fn throughput(&self) -> f64 {
        self.stats.throughput_per_mcycle()
    }
}

/// Per-core execution state inside the driver, struct-of-arrays.
///
/// The step loop's scheduling decisions touch only the small hot fields
/// (`time`, `op_idx`, `begun`, `attempts`), which live in their own dense
/// arrays; the current transactions and the fat per-core [`RunStats`]
/// accumulators sit in separate arrays so they never share cache lines
/// with the scanned hot state. Statistics are accumulated per core and
/// merged into one [`RunStats`] in a single batch when the run finishes
/// (see [`RunStats::merge_many`]); the hot loop never touches shared
/// aggregate state.
#[derive(Debug)]
struct CoreState {
    /// Each core's local clock (hot).
    time: Vec<u64>,
    /// Index of the next op inside the current transaction (hot).
    op_idx: Vec<u32>,
    /// Whether the current transaction has begun (hot).
    begun: Vec<bool>,
    /// Abort-retry attempts of the current transaction (hot).
    attempts: Vec<u32>,
    /// The transaction each core is executing (cold: touched on fetch,
    /// per-op read, and commit).
    tx: Vec<Option<Transaction>>,
    /// Per-core statistics batches (cold: touched on commit/abort/stall).
    stats: Vec<RunStats>,
}

impl CoreState {
    fn new(num_cores: usize) -> Self {
        CoreState {
            time: vec![0; num_cores],
            op_idx: vec![0; num_cores],
            begun: vec![false; num_cores],
            attempts: vec![0; num_cores],
            tx: (0..num_cores).map(|_| None).collect(),
            stats: (0..num_cores).map(|_| RunStats::new()).collect(),
        }
    }
}

/// A core parked on a busy lock: off the event queue, with
/// `CoreState::time` holding its next poll point.
#[derive(Debug, Clone, Copy)]
struct Parked {
    core: usize,
    /// Cycles between the core's polls.
    period: u64,
    /// Whether each poll counts a contended attempt (a failed acquisition,
    /// as opposed to waiting for a held fallback lock).
    contended: bool,
}

/// The deterministic simulation driver.
#[derive(Debug, Default)]
pub struct Simulator {
    /// Extra back-off (in cycles) applied per retry attempt, doubling each
    /// attempt up to a cap. Models the retry policy of the HTM runtime.
    backoff_base: u64,
    backoff_cap: u64,
}

impl Simulator {
    /// Creates a simulator with the default exponential back-off policy.
    pub fn new() -> Self {
        Simulator {
            backoff_base: 32,
            backoff_cap: 4096,
        }
    }

    /// Runs `workload` on `machine` under `engine` until the limits are hit.
    ///
    /// Setup transactions produced by the workload are applied directly to
    /// persistent memory before measurement starts (they model the
    /// already-persistent data structure the benchmark operates on).
    pub fn run<E, W>(
        &self,
        machine: &mut Machine,
        engine: &mut E,
        workload: &mut W,
        limits: &RunLimits,
    ) -> SimulationResult
    where
        E: TxEngine + ?Sized,
        W: Workload + ?Sized,
    {
        let mut session = self.start(machine, engine, workload, limits);
        session.run_to_completion();
        session.into_result()
    }

    /// Like [`Simulator::run`], with every semantic event streamed to
    /// `observer`. The observer cannot perturb the run; the returned result
    /// is bit-identical to an unobserved run.
    pub fn run_with_observer<E, W, O>(
        &self,
        machine: &mut Machine,
        engine: &mut E,
        workload: &mut W,
        limits: &RunLimits,
        observer: &mut O,
    ) -> SimulationResult
    where
        E: TxEngine + ?Sized,
        W: Workload + ?Sized,
        O: SimObserver + ?Sized,
    {
        let mut session = self.start(machine, engine, workload, limits);
        session.run_to_completion_with(observer);
        session.into_result()
    }

    /// Starts a checkpointed, resumable session: the setup phase runs, the
    /// engine is initialised and the event queue is seeded, but no event is
    /// processed yet. Advance it with [`SimulationSession::step`] /
    /// [`SimulationSession::run_to_completion`] and finish with
    /// [`SimulationSession::into_result`].
    pub fn start<'a, E, W>(
        &self,
        machine: &'a mut Machine,
        engine: &'a mut E,
        workload: &'a mut W,
        limits: &RunLimits,
    ) -> SimulationSession<'a, E, W>
    where
        E: TxEngine + ?Sized,
        W: Workload + ?Sized,
    {
        // ---- Setup phase: populate persistent memory directly. ----
        for tx in workload.setup_transactions() {
            for op in &tx.ops {
                if let TxOp::Write(addr, value) = op {
                    machine
                        .mem
                        .domain_mut()
                        .memory_mut()
                        .write_word(*addr, *value);
                }
            }
        }

        engine.init(machine);

        let num_cores = machine.num_cores();
        let mem_stats_before = machine.mem.stats().clone();
        let log_records_before = machine.mem.domain().total_log_records();

        // Event queue: one entry per core, keyed by (local time, core
        // index). Popping yields the core with the smallest local time,
        // ties broken by the lower index — the same schedule as a linear
        // min-scan or a binary heap.
        let mut events = CalendarQueue::new();
        for i in 0..num_cores {
            events.push(0, i);
        }
        let machine_releases = machine.locks.releases();

        SimulationSession {
            backoff_base: self.backoff_base,
            backoff_cap: self.backoff_cap,
            machine,
            engine,
            workload,
            limits: *limits,
            cores: CoreState::new(num_cores),
            events,
            total_committed: 0,
            mem_stats_before,
            log_records_before,
            finished: false,
            lock_scratch: Vec::new(),
            parked: Vec::new(),
            releases_seen: machine_releases,
            last_event: (0, 0),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Begin,
    Op,
    Commit,
}

/// What one call to [`SimulationSession::step`] did.
#[derive(Debug)]
pub enum StepEvent {
    /// The run is over (commit target reached, cycle limit hit, or the event
    /// heap is exhausted). Subsequent calls keep returning `Finished`.
    Finished,
    /// One core advanced by one event.
    Progress {
        /// The core that stepped.
        core: CoreId,
        /// The core's local clock after the step.
        time: u64,
        /// The transaction that committed in this step, if the step was a
        /// successful commit. Always populated (the driver owns the
        /// transaction at that point, so handing it out costs nothing).
        /// For streaming observation of begins/aborts/durable ticks, pass a
        /// [`SimObserver`] to [`SimulationSession::step_with`] instead.
        committed: Option<Transaction>,
    },
}

/// A checkpointed, resumable simulation run.
///
/// The session owns the full scheduler state (per-core progress, the event
/// queue, partially accumulated statistics) and borrows the machine, engine
/// and workload. Between steps the caller may inspect — but must not mutate —
/// the machine; the persistent domain is exposed for crash snapshotting.
/// Stepping a session to completion and collecting the result is bit-for-bit
/// identical to [`Simulator::run`].
///
/// The engine and workload type parameters default to the trait objects,
/// so existing `SimulationSession<'a>` annotations keep meaning the
/// dyn-dispatched form; monomorphised sessions (e.g. over the baselines
/// crate's `EngineDispatch`) get static dispatch in the step loop.
pub struct SimulationSession<'a, E: ?Sized = dyn TxEngine, W: ?Sized = dyn Workload>
where
    E: TxEngine,
    W: Workload,
{
    backoff_base: u64,
    backoff_cap: u64,
    machine: &'a mut Machine,
    engine: &'a mut E,
    workload: &'a mut W,
    limits: RunLimits,
    cores: CoreState,
    events: CalendarQueue,
    total_committed: u64,
    mem_stats_before: MemStats,
    log_records_before: u64,
    finished: bool,
    /// Scratch for the per-begin lock sort/dedup: reused across steps so
    /// the hot loop never allocates for it (the former code cloned the
    /// transaction's lock list on every begin).
    lock_scratch: Vec<crate::locks::LockId>,
    /// Cores parked on a busy lock (see the module docs).
    parked: Vec<Parked>,
    /// The lock table's release count as of the last wake check.
    releases_seen: u64,
    /// The last processed event, `(now, core)`.
    last_event: (u64, usize),
}

impl<E: TxEngine + ?Sized, W: Workload + ?Sized> std::fmt::Debug for SimulationSession<'_, E, W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimulationSession")
            .field("total_committed", &self.total_committed)
            .field("finished", &self.finished)
            .field("cores", &self.cores.time.len())
            .finish_non_exhaustive()
    }
}

impl<'a, E: TxEngine + ?Sized, W: Workload + ?Sized> SimulationSession<'a, E, W> {
    /// The cycle at which the next [`SimulationSession::step`] will
    /// execute, i.e. the next *executed* step: the polls of parked cores
    /// are not executed, so they never show here. `None` once finished.
    pub fn next_event_time(&self) -> Option<u64> {
        if self.finished || self.total_committed >= self.limits.target_commits {
            return None;
        }
        self.events.peek_time()
    }

    /// Whether the run has terminated.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Transactions committed so far.
    pub fn total_committed(&self) -> u64 {
        self.total_committed
    }

    /// Read access to the simulated machine between steps.
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// The persistent domain at the current cut point — everything that
    /// would survive a crash right now.
    pub fn domain(&self) -> &PersistentDomain {
        self.machine.mem.domain()
    }

    fn backoff(&self, attempts: u32, core: CoreId) -> u64 {
        let exp = attempts.min(7);
        let raw = self.backoff_base << exp;
        // Small deterministic per-core skew de-synchronises retries.
        raw.min(self.backoff_cap) + (core.get() as u64) * 7
    }

    /// Accounts the polls parked core `p` skipped before the cut `bound`
    /// (exclusive, in the queue's `(time, index)` order): each is a failed
    /// `begin` that stalled `period` cycles. Afterwards the core's clock is
    /// its first poll point past the cut, so settling again at the same or
    /// an earlier cut adds nothing.
    fn settle(&mut self, p: Parked, bound: (u64, usize)) {
        let time = self.cores.time[p.core];
        if (time, p.core) >= bound {
            return;
        }
        // A poll at the cut's cycle comes first iff its core index is lower.
        let last = if p.core < bound.1 {
            bound.0
        } else {
            bound.0 - 1
        };
        let polls = (last - time) / p.period + 1;
        let wait = polls * p.period;
        let stats = &mut self.cores.stats[p.core];
        stats.steps += polls;
        stats.total_stall_cycles += wait;
        stats.lock_wait_cycles += wait;
        if p.contended {
            self.machine.locks.add_contended_attempts(polls);
        }
        self.cores.time[p.core] = time + wait;
    }

    /// Ends the run, settling every parked core's polls before `bound`.
    fn finish(&mut self, bound: (u64, usize)) {
        self.finished = true;
        for i in 0..self.parked.len() {
            self.settle(self.parked[i], bound);
        }
    }

    /// Processes the next event. Returns what happened; once the run's
    /// limits are reached every further call returns [`StepEvent::Finished`].
    pub fn step(&mut self) -> StepEvent {
        self.step_with(&mut NullObserver)
    }

    /// Processes the next event, streaming its semantic events to
    /// `observer`. Observation is strictly read-only: stepping with any
    /// observer is bit-identical to stepping with none.
    pub fn step_with<O: SimObserver + ?Sized>(&mut self, observer: &mut O) -> StepEvent {
        if self.finished {
            return StepEvent::Finished;
        }
        if self.total_committed >= self.limits.target_commits {
            self.finish(self.last_event);
            return StepEvent::Finished;
        }
        // Parked cores poll up to the cycle limit, also once none is queued.
        let horizon = (self.limits.max_cycles, 0);
        let Some((now, core_idx)) = self.events.pop() else {
            self.finish(horizon);
            return StepEvent::Finished;
        };
        debug_assert_eq!(now, self.cores.time[core_idx], "stale event-queue entry");
        if now >= self.limits.max_cycles {
            self.finish(horizon);
            return StepEvent::Finished;
        }
        self.last_event = (now, core_idx);
        let core = CoreId::new(core_idx);
        let mutations_before = self.machine.mem.domain().mutation_count();
        let contended_before = self.machine.locks.contended_attempts();
        let mut parked = None;
        let mut fetched = false;
        let mut committed = None;
        let mut aborted_reason = None;

        // Ensure the core has a transaction to work on.
        if self.cores.tx[core_idx].is_none() {
            let tx = self.workload.next_transaction(core);
            fetched = true;
            self.cores.tx[core_idx] = Some(tx);
            self.cores.op_idx[core_idx] = 0;
            self.cores.begun[core_idx] = false;
            self.cores.attempts[core_idx] = 0;
        }

        // Decide and execute the next step.
        let (outcome, step_kind) = {
            let tx = self.cores.tx[core_idx]
                .as_ref()
                .expect("transaction present");
            if !self.cores.begun[core_idx] {
                self.lock_scratch.clear();
                self.lock_scratch.extend_from_slice(&tx.locks);
                self.lock_scratch.sort_unstable();
                self.lock_scratch.dedup();
                (
                    self.engine
                        .begin(self.machine, core, &self.lock_scratch, now),
                    Step::Begin,
                )
            } else if (self.cores.op_idx[core_idx] as usize) < tx.ops.len() {
                match tx.ops[self.cores.op_idx[core_idx] as usize] {
                    TxOp::Compute(cycles) => (StepOutcome::done(now + cycles), Step::Op),
                    TxOp::Read(addr) => (self.engine.read(self.machine, core, addr, now), Step::Op),
                    TxOp::Write(addr, value) => (
                        self.engine.write(self.machine, core, addr, value, now),
                        Step::Op,
                    ),
                }
            } else {
                (self.engine.commit(self.machine, core, now), Step::Commit)
            }
        };

        match outcome {
            StepOutcome::Done { at } => {
                debug_assert!(at >= now, "time must not go backwards");
                self.cores.time[core_idx] = at.max(now);
                match step_kind {
                    Step::Begin => self.cores.begun[core_idx] = true,
                    Step::Op => self.cores.op_idx[core_idx] += 1,
                    Step::Commit => {
                        let tx = self.cores.tx[core_idx].take().expect("present");
                        self.total_committed += 1;
                        let tx_stats = self.engine.last_tx_stats(core);
                        let ws = if tx_stats.write_set_lines > 0 {
                            tx_stats.write_set_lines
                        } else {
                            tx.write_set_lines().len()
                        };
                        let rs = if tx_stats.read_set_lines > 0 {
                            tx_stats.read_set_lines
                        } else {
                            tx.read_set_lines().len()
                        };
                        let stats = &mut self.cores.stats[core_idx];
                        stats.committed += 1;
                        stats.loads += tx.load_count() as u64;
                        stats.stores += tx.store_count() as u64;
                        stats.sum_write_set_lines += ws as u64;
                        stats.sum_read_set_lines += rs as u64;
                        committed = Some(tx);
                    }
                }
            }
            StepOutcome::Stall { retry_at } => self.stall(core_idx, step_kind, now, retry_at),
            StepOutcome::Blocked { retry_at, period } => {
                debug_assert!(matches!(step_kind, Step::Begin), "only begin blocks");
                debug_assert!(period > 0, "a poll period is at least one cycle");
                self.stall(core_idx, step_kind, now, retry_at);
                parked = Some(Parked {
                    core: core_idx,
                    period,
                    contended: self.machine.locks.contended_attempts() > contended_before,
                });
            }
            StepOutcome::Aborted {
                at,
                retry_at,
                reason,
            } => {
                self.cores.stats[core_idx].record_abort(reason);
                let attempts = self.cores.attempts[core_idx];
                let resume = at.max(retry_at).max(now) + self.backoff(attempts, core);
                self.cores.time[core_idx] = resume;
                self.cores.op_idx[core_idx] = 0;
                self.cores.begun[core_idx] = false;
                self.cores.attempts[core_idx] = attempts.saturating_add(1);
                aborted_reason = Some(reason);
            }
        }

        let t = self.cores.time[core_idx];
        self.cores.stats[core_idx].steps += 1;
        match parked {
            Some(p) => self.parked.push(p),
            None => self.events.push(t, core_idx),
        }
        let releases = self.machine.locks.releases();
        if releases != self.releases_seen {
            self.releases_seen = releases;
            // Wake every parked core at its first poll after this step.
            for i in 0..self.parked.len() {
                let p = self.parked[i];
                self.settle(p, (now, core_idx));
                self.events.push(self.cores.time[p.core], p.core);
            }
            self.parked.clear();
        }

        // ---- Observer callbacks: all simulated state is final for this
        // step, everything handed out is immutable. Fixed order: begin,
        // durable tick, then commit/abort. ----
        let mutations_after = self.machine.mem.domain().mutation_count();
        let ctx = StepContext {
            core,
            now,
            core_time: t,
            total_committed: self.total_committed,
            mutations_before,
            mutations_after,
            domain: self.machine.mem.domain(),
        };
        if fetched {
            let tx = self.cores.tx[core_idx].as_ref().expect("just fetched");
            observer.on_begin(&ctx, tx);
        }
        if mutations_after > mutations_before {
            observer.on_durable_tick(&ctx);
        }
        if let Some(tx) = &committed {
            observer.on_commit(&ctx, tx);
        }
        if let Some(reason) = aborted_reason {
            observer.on_abort(&ctx, reason);
        }

        StepEvent::Progress {
            core,
            time: t,
            committed,
        }
    }

    /// Accounts a step that must be re-issued at `retry_at`.
    fn stall(&mut self, core_idx: usize, step_kind: Step, now: u64, retry_at: u64) {
        let wait = retry_at.saturating_sub(now).max(1);
        let stats = &mut self.cores.stats[core_idx];
        stats.total_stall_cycles += wait;
        match step_kind {
            Step::Begin => stats.lock_wait_cycles += wait,
            Step::Commit => stats.commit_stall_cycles += wait,
            Step::Op => {}
        }
        self.cores.time[core_idx] = now + wait;
    }

    /// Steps until the run's limits are reached.
    pub fn run_to_completion(&mut self) {
        while !matches!(self.step(), StepEvent::Finished) {}
    }

    /// Steps until the run's limits are reached, streaming every semantic
    /// event to `observer`.
    pub fn run_to_completion_with<O: SimObserver + ?Sized>(&mut self, observer: &mut O) {
        while !matches!(self.step_with(observer), StepEvent::Finished) {}
    }

    /// Collects the result accumulated so far: the polls parked cores
    /// skipped before the last processed event are settled, the per-core
    /// statistic batches merged and the machine-global memory-system deltas
    /// added. Valid at any cut point, not just at completion.
    pub fn into_result(mut self) -> SimulationResult {
        self.finish(self.last_event);
        for (stats, &time) in self.cores.stats.iter_mut().zip(&self.cores.time) {
            stats.total_cycles = time;
        }
        let mut stats = RunStats::merge_many(self.cores.stats.iter());
        let mem_stats = self.machine.mem.stats();
        stats.l1_hits = mem_stats.l1_hits - self.mem_stats_before.l1_hits;
        stats.l1_misses = mem_stats.l1_misses - self.mem_stats_before.l1_misses;
        stats.llc_hits = mem_stats.llc_hits - self.mem_stats_before.llc_hits;
        stats.llc_misses = mem_stats.llc_misses - self.mem_stats_before.llc_misses;
        stats.nvm_line_reads = mem_stats.nvm_line_reads - self.mem_stats_before.nvm_line_reads;
        stats.log_bytes_written = mem_stats.log_bytes - self.mem_stats_before.log_bytes;
        stats.data_bytes_written =
            mem_stats.data_writeback_bytes - self.mem_stats_before.data_writeback_bytes;
        stats.log_records_written =
            self.machine.mem.domain().total_log_records() - self.log_records_before;
        stats.fallback_commits = self.engine.fallback_commits();

        SimulationResult {
            design: self.engine.design(),
            workload: self.workload.name().to_string(),
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Polling;
    use crate::locks::LockId;
    use dhtm_cache::l1::StoreKind;
    use dhtm_coherence::probe::NoConflicts;
    use dhtm_types::addr::Address;
    use dhtm_types::config::SystemConfig;
    use dhtm_types::stats::TxStats;

    /// A minimal non-transactional engine used to exercise the driver: every
    /// access goes straight through the memory system with no conflict
    /// detection and commits are free.
    #[derive(Debug, Default)]
    struct PassthroughEngine {
        committed: u64,
    }

    impl TxEngine for PassthroughEngine {
        fn design(&self) -> DesignKind {
            DesignKind::NonPersistent
        }
        fn init(&mut self, _machine: &mut Machine) {}
        fn begin(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _locks: &[LockId],
            now: u64,
        ) -> StepOutcome {
            StepOutcome::done(now + 1)
        }
        fn read(
            &mut self,
            machine: &mut Machine,
            core: CoreId,
            addr: Address,
            now: u64,
        ) -> StepOutcome {
            let out = machine.mem.load(core, addr.line(), now, &mut NoConflicts);
            if let Some((line, entry)) = out.evicted_victim {
                machine.mem.evict_nontransactional(core, line, &entry, now);
            }
            StepOutcome::done(out.done)
        }
        fn write(
            &mut self,
            machine: &mut Machine,
            core: CoreId,
            addr: Address,
            value: u64,
            now: u64,
        ) -> StepOutcome {
            let out = machine.mem.store(core, addr.line(), now, &mut NoConflicts);
            if let Some((line, entry)) = out.evicted_victim {
                machine.mem.evict_nontransactional(core, line, &entry, now);
            }
            machine
                .mem
                .store_word_in_l1(core, addr, value, StoreKind::Plain);
            StepOutcome::done(out.done)
        }
        fn commit(&mut self, _machine: &mut Machine, _core: CoreId, now: u64) -> StepOutcome {
            self.committed += 1;
            StepOutcome::done(now + 1)
        }
        fn last_tx_stats(&mut self, _core: CoreId) -> TxStats {
            TxStats::default()
        }
    }

    /// A workload where each core increments counters in its own region.
    #[derive(Debug)]
    struct CounterWorkload {
        per_core_counter: Vec<u64>,
    }

    impl CounterWorkload {
        fn new(cores: usize) -> Self {
            CounterWorkload {
                per_core_counter: vec![0; cores],
            }
        }
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &'static str {
            "counter"
        }
        fn next_transaction(&mut self, core: CoreId) -> Transaction {
            let n = self.per_core_counter[core.get()];
            self.per_core_counter[core.get()] += 1;
            let base = Address::new(0x10000 * (core.get() as u64 + 1) + (n % 8) * 64);
            Transaction::new(
                vec![
                    TxOp::Read(base),
                    TxOp::Compute(10),
                    TxOp::Write(base, n),
                    TxOp::Write(base.offset(64), n),
                ],
                vec![LockId(core.get() as u64)],
                "counter",
            )
        }
    }

    #[test]
    fn driver_runs_to_commit_target() {
        let mut machine = Machine::new(SystemConfig::small_test());
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(4);
        let limits = RunLimits::quick().with_target_commits(40);
        let result = Simulator::new().run(&mut machine, &mut engine, &mut workload, &limits);
        assert_eq!(result.stats.committed, 40);
        assert_eq!(engine.committed, 40);
        assert!(result.stats.total_cycles > 0);
        assert!(result.throughput() > 0.0);
        assert_eq!(result.workload, "counter");
        // Four cores should share the work roughly evenly under the
        // min-time scheduling rule.
        assert!(result.stats.loads >= 40);
    }

    #[test]
    fn driver_is_deterministic() {
        let run = || {
            let mut machine = Machine::new(SystemConfig::small_test());
            let mut engine = PassthroughEngine::default();
            let mut workload = CounterWorkload::new(4);
            let limits = RunLimits::quick().with_target_commits(60);
            Simulator::new()
                .run(&mut machine, &mut engine, &mut workload, &limits)
                .stats
        };
        let a = run();
        let b = run();
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.committed, b.committed);
        assert_eq!(a.l1_hits, b.l1_hits);
    }

    #[test]
    fn max_cycles_limit_terminates_run() {
        let mut machine = Machine::new(SystemConfig::small_test());
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(4);
        let limits = RunLimits {
            target_commits: u64::MAX,
            max_cycles: 10_000,
        };
        let result = Simulator::new().run(&mut machine, &mut engine, &mut workload, &limits);
        assert!(result.stats.committed > 0);
        assert!(result.stats.total_cycles < 100_000);
    }

    /// An engine that stalls exactly once per transaction on begin (5 cycles)
    /// and once on commit (11 cycles), to pin the stall-cycle bookkeeping.
    #[derive(Debug, Default)]
    struct StallingEngine {
        begin_stalled: bool,
        commit_stalled: bool,
    }

    impl TxEngine for StallingEngine {
        fn design(&self) -> DesignKind {
            DesignKind::NonPersistent
        }
        fn init(&mut self, _machine: &mut Machine) {}
        fn begin(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _locks: &[LockId],
            now: u64,
        ) -> StepOutcome {
            if !self.begin_stalled {
                self.begin_stalled = true;
                StepOutcome::Stall { retry_at: now + 5 }
            } else {
                StepOutcome::done(now + 1)
            }
        }
        fn read(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _addr: Address,
            now: u64,
        ) -> StepOutcome {
            StepOutcome::done(now + 1)
        }
        fn write(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _addr: Address,
            _value: u64,
            now: u64,
        ) -> StepOutcome {
            StepOutcome::done(now + 1)
        }
        fn commit(&mut self, _machine: &mut Machine, _core: CoreId, now: u64) -> StepOutcome {
            if !self.commit_stalled {
                self.commit_stalled = true;
                StepOutcome::Stall { retry_at: now + 11 }
            } else {
                self.begin_stalled = false;
                self.commit_stalled = false;
                StepOutcome::done(now + 1)
            }
        }
        fn last_tx_stats(&mut self, _core: CoreId) -> TxStats {
            TxStats::default()
        }
    }

    #[test]
    fn commit_stall_cycles_count_only_commit_step_stalls() {
        let mut machine = Machine::new(SystemConfig::small_test().with_num_cores(1));
        let mut engine = StallingEngine::default();
        let mut workload = CounterWorkload::new(1);
        let limits = RunLimits::quick().with_target_commits(10);
        let result = Simulator::new().run(&mut machine, &mut engine, &mut workload, &limits);
        assert_eq!(result.stats.committed, 10);
        // Each transaction stalls 11 cycles at commit and 5 cycles at begin;
        // commit_stall_cycles must not conflate the two.
        assert_eq!(result.stats.commit_stall_cycles, 10 * 11);
        assert_eq!(result.stats.lock_wait_cycles, 10 * 5);
        assert_eq!(result.stats.total_stall_cycles, 10 * (11 + 5));
    }

    #[test]
    fn backoff_grows_with_attempts_and_is_capped() {
        let mut machine = Machine::new(SystemConfig::small_test());
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(4);
        let limits = RunLimits::quick();
        let session = Simulator::new().start(&mut machine, &mut engine, &mut workload, &limits);
        let c = CoreId::new(0);
        assert!(session.backoff(0, c) < session.backoff(3, c));
        assert!(session.backoff(20, c) <= 4096 + 7 * 8);
    }

    #[test]
    fn stepped_session_is_bit_identical_to_run() {
        let run_plain = || {
            let mut machine = Machine::new(SystemConfig::small_test());
            let mut engine = PassthroughEngine::default();
            let mut workload = CounterWorkload::new(4);
            let limits = RunLimits::quick().with_target_commits(50);
            Simulator::new()
                .run(&mut machine, &mut engine, &mut workload, &limits)
                .stats
        };
        let run_stepped = || {
            let mut machine = Machine::new(SystemConfig::small_test());
            let mut engine = PassthroughEngine::default();
            let mut workload = CounterWorkload::new(4);
            let limits = RunLimits::quick().with_target_commits(50);
            let sim = Simulator::new();
            let mut session = sim.start(&mut machine, &mut engine, &mut workload, &limits);
            let mut observer = CountingObserver::default();
            while let StepEvent::Progress { .. } = session.step_with(&mut observer) {}
            session.into_result().stats
        };
        assert_eq!(run_plain(), run_stepped());
    }

    /// An observer that counts every callback, for the parity and
    /// reporting tests.
    #[derive(Debug, Default)]
    struct CountingObserver {
        begins: u64,
        commits: u64,
        aborts: u64,
        durable_ticks: u64,
    }

    impl SimObserver for CountingObserver {
        fn on_begin(&mut self, _ctx: &StepContext<'_>, tx: &Transaction) {
            assert!(!tx.ops.is_empty());
            self.begins += 1;
        }
        fn on_commit(&mut self, ctx: &StepContext<'_>, tx: &Transaction) {
            assert!(!tx.ops.is_empty());
            assert!(ctx.total_committed > self.commits, "count is post-step");
            self.commits += 1;
        }
        fn on_abort(&mut self, _ctx: &StepContext<'_>, _reason: dhtm_types::stats::AbortReason) {
            self.aborts += 1;
        }
        fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
            assert!(ctx.mutations_after > ctx.mutations_before);
            self.durable_ticks += 1;
        }
    }

    #[test]
    fn observer_streams_begins_and_commits() {
        let mut machine = Machine::new(SystemConfig::small_test().with_num_cores(2));
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(2);
        let limits = RunLimits::quick().with_target_commits(6);
        let sim = Simulator::new();
        let mut session = sim.start(&mut machine, &mut engine, &mut workload, &limits);
        let mut observer = CountingObserver::default();
        session.run_to_completion_with(&mut observer);
        assert_eq!(observer.commits, 6);
        assert!(
            observer.begins >= observer.commits,
            "every committed tx was begun"
        );
        assert_eq!(session.total_committed(), 6);
        assert!(session.is_finished());
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let run = |observe: bool| {
            let mut machine = Machine::new(SystemConfig::small_test());
            let mut engine = PassthroughEngine::default();
            let mut workload = CounterWorkload::new(4);
            let limits = RunLimits::quick().with_target_commits(40);
            let sim = Simulator::new();
            if observe {
                let mut observer = CountingObserver::default();
                sim.run_with_observer(
                    &mut machine,
                    &mut engine,
                    &mut workload,
                    &limits,
                    &mut observer,
                )
                .stats
            } else {
                sim.run(&mut machine, &mut engine, &mut workload, &limits)
                    .stats
            }
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn session_can_stop_at_a_cycle_and_expose_the_domain() {
        let mut machine = Machine::new(SystemConfig::small_test());
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(4);
        let limits = RunLimits::quick().with_target_commits(100);
        let sim = Simulator::new();
        let mut session = sim.start(&mut machine, &mut engine, &mut workload, &limits);
        // Step until simulated time reaches an arbitrary cut point.
        let cut = 2_000;
        while session.next_event_time().is_some_and(|t| t < cut) {
            session.step();
        }
        assert!(!session.is_finished());
        let committed_at_cut = session.total_committed();
        assert!(committed_at_cut < 100);
        // The durable state at the cut point is observable.
        let snapshot = session.domain().crash_snapshot();
        assert_eq!(snapshot.threads(), 4);
        // Partial statistics can be collected at the cut.
        let partial = session.into_result().stats;
        assert_eq!(partial.committed, committed_at_cut);
    }

    /// A lock-based engine with no memory traffic: `begin` takes the
    /// transaction's lock set from the machine's lock table and reports
    /// `Blocked` with a per-core poll period while a lock is busy; `commit`
    /// releases the set unless `leak_locks` is set.
    #[derive(Debug, Default)]
    struct LockEngine {
        leak_locks: bool,
    }

    impl TxEngine for LockEngine {
        fn design(&self) -> DesignKind {
            DesignKind::SoftwareOnly
        }
        fn init(&mut self, _machine: &mut Machine) {}
        fn begin(
            &mut self,
            machine: &mut Machine,
            core: CoreId,
            locks: &[LockId],
            now: u64,
        ) -> StepOutcome {
            if machine.locks.try_acquire_all(core, locks) {
                return StepOutcome::done(now + 2);
            }
            let period = 50 + 3 * core.get() as u64;
            StepOutcome::Blocked {
                retry_at: now + period,
                period,
            }
        }
        fn read(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _addr: Address,
            now: u64,
        ) -> StepOutcome {
            StepOutcome::done(now + 3)
        }
        fn write(
            &mut self,
            _machine: &mut Machine,
            _core: CoreId,
            _addr: Address,
            _value: u64,
            now: u64,
        ) -> StepOutcome {
            StepOutcome::done(now + 4)
        }
        fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
            if !self.leak_locks {
                machine.locks.release_all(core);
            }
            StepOutcome::done(now + 1)
        }
    }

    /// Which locks the `n`-th transaction on core `i` takes.
    type LockOf = fn(usize, u64) -> Vec<LockId>;

    /// A workload whose `n`-th transaction on core `i` takes the locks
    /// `lock_of(i, n)`.
    #[derive(Debug)]
    struct LockWorkload {
        fetched: Vec<u64>,
        lock_of: LockOf,
    }

    impl Workload for LockWorkload {
        fn name(&self) -> &'static str {
            "locks"
        }
        fn next_transaction(&mut self, core: CoreId) -> Transaction {
            let i = core.get();
            let n = self.fetched[i];
            self.fetched[i] += 1;
            let addr = Address::new(0x1000 * (i as u64 + 1));
            Transaction::new(
                vec![
                    TxOp::Read(addr),
                    TxOp::Compute(100 + 7 * i as u64),
                    TxOp::Write(addr, n),
                ],
                (self.lock_of)(i, n),
                "locks",
            )
        }
    }

    /// What a [`lock_run`] left behind at its stop.
    #[derive(Debug, PartialEq)]
    struct LockRunEnd {
        stats: RunStats,
        contended_attempts: u64,
        last_event: (u64, usize),
    }

    /// Runs [`LockWorkload`] on 4 cores under `engine` until `stop` holds
    /// after a step (or the run finishes), then takes the result. Returns
    /// the end state and the number of cores parked at the stop.
    fn lock_run<E: TxEngine>(
        mut engine: E,
        lock_of: LockOf,
        limits: RunLimits,
        mut stop: impl FnMut(&SimulationSession<'_, E, LockWorkload>) -> bool,
    ) -> (LockRunEnd, usize) {
        let mut machine = Machine::new(SystemConfig::small_test());
        let mut workload = LockWorkload {
            fetched: vec![0; 4],
            lock_of,
        };
        let sim = Simulator::new();
        let mut session = sim.start(&mut machine, &mut engine, &mut workload, &limits);
        while !matches!(session.step(), StepEvent::Finished) && !stop(&session) {}
        let parked = session.parked.len();
        let last_event = session.last_event;
        let stats = session.into_result().stats;
        let end = LockRunEnd {
            stats,
            contended_attempts: machine.locks.contended_attempts(),
            last_event,
        };
        (end, parked)
    }

    /// The parked run and the polling run of the same setup, each stopped
    /// by its own `stop`.
    fn parked_and_polling(
        leak_locks: bool,
        lock_of: LockOf,
        limits: RunLimits,
    ) -> ((LockRunEnd, usize), LockRunEnd) {
        let parked = lock_run(LockEngine { leak_locks }, lock_of, limits, |_| false);
        let polling = lock_run(Polling(LockEngine { leak_locks }), lock_of, limits, |_| {
            false
        });
        (parked, polling.0)
    }

    #[test]
    fn target_reached_with_cores_parked_settles_like_polling() {
        // Cores 0-2 share one lock; core 3 takes none, so its commits
        // release nothing and can reach the target while the others wait.
        let lock_of: LockOf = |i, _| if i < 3 { vec![LockId(0)] } else { vec![] };
        let mut ended_with_parked = 0;
        for target in 1..40 {
            let limits = RunLimits::quick().with_target_commits(target);
            let (parked, polling) = parked_and_polling(false, lock_of, limits);
            assert_eq!(parked.0.stats, polling.stats, "target {target}");
            assert_eq!(parked.0.contended_attempts, polling.contended_attempts);
            ended_with_parked += usize::from(parked.1 > 0);
        }
        assert!(ended_with_parked > 0, "no target left a core parked");
    }

    #[test]
    fn max_cycles_with_cores_parked_settles_like_polling() {
        // Every limit in a window, so some land exactly on a parked core's
        // poll point: that poll is not executed (the event at the limit
        // ends the run) and must not be settled either.
        let mut ended_with_parked = 0;
        for max_cycles in 3_000..3_600 {
            let limits = RunLimits {
                target_commits: u64::MAX,
                max_cycles,
            };
            let (parked, polling) = parked_and_polling(false, |_, _| vec![LockId(0)], limits);
            assert_eq!(parked.0.stats, polling.stats, "max_cycles {max_cycles}");
            assert_eq!(parked.0.contended_attempts, polling.contended_attempts);
            assert!(parked.0.stats.total_cycles >= max_cycles);
            ended_with_parked += usize::from(parked.1 > 0);
        }
        assert!(ended_with_parked > 0, "no cycle limit left a core parked");
    }

    #[test]
    fn every_core_parked_settles_to_the_cycle_limit() {
        // Core i first takes lock i and never releases it, then wants lock
        // i + 1: after one transaction each, every core is parked for good
        // and the queue runs dry. The polling run spins to the cycle limit.
        // The limits span one poll period of core 0 (50 cycles), so one of
        // them lands exactly on its poll grid: that poll is not executed.
        let lock_of: LockOf = |i, n| vec![LockId(if n == 0 { i } else { (i + 1) % 4 } as u64)];
        for max_cycles in 20_000..20_050 {
            let limits = RunLimits {
                target_commits: u64::MAX,
                max_cycles,
            };
            let (parked, polling) = parked_and_polling(true, lock_of, limits);
            assert_eq!(parked.1, 4, "every core ends parked");
            assert_eq!(parked.0.stats.committed, 4);
            assert_eq!(parked.0.stats, polling.stats, "max_cycles {max_cycles}");
            assert_eq!(parked.0.contended_attempts, polling.contended_attempts);
            assert!(
                parked.0.stats.steps > 4 * max_cycles / 62,
                "skipped polls count"
            );
        }
    }

    #[test]
    fn into_result_at_a_mid_run_cut_settles_like_polling() {
        // Cut the parked run right after a step that a parked core has
        // skipped a poll before, and the polling run right after the same
        // event: `into_result` must settle that poll.
        let limits = RunLimits::quick().with_target_commits(200);
        let (cut, parked) = lock_run(
            LockEngine::default(),
            |_, _| vec![LockId(0)],
            limits,
            |s| {
                s.total_committed() >= 10
                    && s.parked
                        .iter()
                        .any(|p| (s.cores.time[p.core], p.core) < s.last_event)
            },
        );
        assert!(parked > 0);
        assert!(cut.stats.committed < 200, "the cut is mid-run");
        let (polled, _) = lock_run(
            Polling(LockEngine::default()),
            |_, _| vec![LockId(0)],
            limits,
            |s| s.last_event == cut.last_event,
        );
        assert_eq!(cut, polled);
    }

    #[test]
    fn next_event_time_is_none_once_finished() {
        let mut machine = Machine::new(SystemConfig::small_test().with_num_cores(1));
        let mut engine = PassthroughEngine::default();
        let mut workload = CounterWorkload::new(1);
        let limits = RunLimits::quick().with_target_commits(2);
        let sim = Simulator::new();
        let mut session = sim.start(&mut machine, &mut engine, &mut workload, &limits);
        session.run_to_completion();
        assert!(session.next_event_time().is_none());
        assert!(matches!(session.step(), StepEvent::Finished));
    }
}
