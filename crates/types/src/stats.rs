//! Statistics containers used by the simulator and the experiment harness.

use std::collections::BTreeMap;
use std::fmt;

/// Reasons a transaction attempt can abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// A coherence conflict with another transaction.
    Conflict,
    /// A transactional line was evicted from the L1 in a design that cannot
    /// tolerate write-set overflow (RTM-like capacity abort).
    Capacity,
    /// The write set overflowed the LLC (DHTM's limit) or the hardware log /
    /// overflow list filled up.
    LogOverflow,
    /// The transaction fell back to the software path after exhausting its
    /// hardware retries.
    Fallback,
    /// An explicit user abort.
    Explicit,
}

impl AbortReason {
    /// All reasons, for exhaustive reporting.
    pub const ALL: [AbortReason; 5] = [
        AbortReason::Conflict,
        AbortReason::Capacity,
        AbortReason::LogOverflow,
        AbortReason::Fallback,
        AbortReason::Explicit,
    ];

    /// The reason's position in [`AbortReason::ALL`], as a constant-time
    /// lookup — tally arrays index by this instead of scanning `ALL`.
    pub const fn index(self) -> usize {
        match self {
            AbortReason::Conflict => 0,
            AbortReason::Capacity => 1,
            AbortReason::LogOverflow => 2,
            AbortReason::Fallback => 3,
            AbortReason::Explicit => 4,
        }
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortReason::Conflict => "conflict",
            AbortReason::Capacity => "capacity",
            AbortReason::LogOverflow => "log-overflow",
            AbortReason::Fallback => "fallback",
            AbortReason::Explicit => "explicit",
        };
        f.write_str(s)
    }
}

/// Per-transaction statistics (collected for characterisation experiments
/// such as Table IV's write-set sizes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxStats {
    /// Number of distinct cache lines read.
    pub read_set_lines: usize,
    /// Number of distinct cache lines written.
    pub write_set_lines: usize,
    /// Number of individual store operations issued.
    pub stores: usize,
    /// Number of individual load operations issued.
    pub loads: usize,
    /// Number of redo/undo log records written to NVM on behalf of this
    /// transaction.
    pub log_records: usize,
    /// Cycles from begin to commit (or abort).
    pub cycles: u64,
    /// Number of times this logical transaction aborted before committing.
    pub aborts_before_commit: usize,
}

/// Aggregated statistics for one simulation run of one design on one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Committed (logical) transactions.
    pub committed: u64,
    /// Steps of the polling model (begin/op/commit steps across all
    /// cores): every step the driver executed plus every lock poll a
    /// parked core skipped (the driver settles those arithmetically, see
    /// `dhtm_sim::driver`). The denominator of perfbench's
    /// `sim.driver_ns_per_step`.
    pub steps: u64,
    /// Total transaction attempts that aborted, by reason.
    pub aborts: BTreeMap<AbortReason, u64>,
    /// Total simulated cycles (max over cores of each core's local clock).
    pub total_cycles: u64,
    /// Total loads executed (committed attempts only).
    pub loads: u64,
    /// Total stores executed (committed attempts only).
    pub stores: u64,
    /// Log records written to NVM.
    pub log_records_written: u64,
    /// Bytes of log traffic sent over the memory bus.
    pub log_bytes_written: u64,
    /// Bytes of in-place data write-back traffic sent over the memory bus.
    pub data_bytes_written: u64,
    /// Cache-line reads served by NVM.
    pub nvm_line_reads: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// Transactional write-set lines that overflowed from L1 to LLC (DHTM).
    pub write_set_overflows: u64,
    /// Cycles spent waiting for locks (lock-based designs).
    pub lock_wait_cycles: u64,
    /// Cycles spent stalled *at commit* (waiting for log persistence / data
    /// flush, depending on the design). Counts only stalls of the commit
    /// step itself, not lock waits or NACKed memory operations — those are
    /// in [`RunStats::lock_wait_cycles`] and [`RunStats::total_stall_cycles`].
    pub commit_stall_cycles: u64,
    /// Total cycles cores spent stalled re-issuing *any* step (lock waits,
    /// NACKed requests and commit drains combined).
    pub total_stall_cycles: u64,
    /// Number of transactions executed on the software fallback path.
    pub fallback_commits: u64,
    /// Sum of write-set sizes (lines) over committed transactions, for
    /// computing the mean write-set size.
    pub sum_write_set_lines: u64,
    /// Sum of read-set sizes (lines) over committed transactions.
    pub sum_read_set_lines: u64,
    /// Crash-recovery experiment counters (all zero for ordinary simulation
    /// runs; filled in by the `dhtm_crash` auditor so crash experiments
    /// round-trip through the same JSON/CSV reporting as everything else).
    pub recovery: RecoveryCounters,
}

/// Aggregate recovery/crash-audit counters carried inside [`RunStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounters {
    /// Crash points audited.
    pub crash_points: u64,
    /// Crash points whose recovery violated an oracle.
    pub oracle_failures: u64,
    /// Committed-but-incomplete transactions replayed from redo records.
    pub replayed_transactions: u64,
    /// In-flight transactions rolled back from undo records.
    pub rolled_back_transactions: u64,
    /// Transactions skipped as already complete.
    pub skipped_complete: u64,
    /// Transactions skipped as never committed / aborted.
    pub skipped_uncommitted: u64,
    /// Lines written to the in-place image during recovery.
    pub lines_written: u64,
    /// Word-granular writes performed during recovery.
    pub words_written: u64,
    /// Lines applied from redo records.
    pub redo_lines_applied: u64,
    /// Lines applied from undo records.
    pub undo_lines_applied: u64,
    /// Sentinel dependency edges honoured during replay ordering.
    pub sentinel_edges: u64,
}

impl RecoveryCounters {
    /// Accumulates another set of counters into this one.
    pub fn merge(&mut self, other: &RecoveryCounters) {
        self.crash_points += other.crash_points;
        self.oracle_failures += other.oracle_failures;
        self.replayed_transactions += other.replayed_transactions;
        self.rolled_back_transactions += other.rolled_back_transactions;
        self.skipped_complete += other.skipped_complete;
        self.skipped_uncommitted += other.skipped_uncommitted;
        self.lines_written += other.lines_written;
        self.words_written += other.words_written;
        self.redo_lines_applied += other.redo_lines_applied;
        self.undo_lines_applied += other.undo_lines_applied;
        self.sentinel_edges += other.sentinel_edges;
    }
}

impl RunStats {
    /// Creates an empty statistics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total aborts across all reasons.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.values().sum()
    }

    /// Records one abort of the given kind.
    pub fn record_abort(&mut self, reason: AbortReason) {
        *self.aborts.entry(reason).or_insert(0) += 1;
    }

    /// Abort rate as a percentage of all transaction attempts
    /// (aborts / (aborts + commits) × 100), the metric of Table V.
    pub fn abort_rate_percent(&self) -> f64 {
        let aborts = self.total_aborts() as f64;
        let attempts = aborts + self.committed as f64;
        if attempts == 0.0 {
            0.0
        } else {
            100.0 * aborts / attempts
        }
    }

    /// Transaction throughput in committed transactions per million cycles.
    ///
    /// Degenerate runs are clamped to `0.0`: a zero-cycle run (nothing ever
    /// stepped) and a zero-commit run both report zero throughput, never
    /// `NaN` or `inf`, so downstream normalisation and geometric means stay
    /// finite.
    pub fn throughput_per_mcycle(&self) -> f64 {
        if self.total_cycles == 0 || self.committed == 0 {
            0.0
        } else {
            self.committed as f64 * 1.0e6 / self.total_cycles as f64
        }
    }

    /// Mean write-set size in cache lines over committed transactions
    /// (Table IV's characterisation metric).
    pub fn mean_write_set_lines(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.sum_write_set_lines as f64 / self.committed as f64
        }
    }

    /// Mean read-set size in cache lines over committed transactions.
    pub fn mean_read_set_lines(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.sum_read_set_lines as f64 / self.committed as f64
        }
    }

    /// L1 hit rate in [0, 1].
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l1_misses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }

    /// Total bytes moved over the memory bus (log + data write-back + fills).
    pub fn total_memory_bytes(&self) -> u64 {
        self.log_bytes_written + self.data_bytes_written + self.nvm_line_reads * 64
    }

    /// Merges another run's statistics into this one (used when aggregating
    /// per-core statistics).
    pub fn merge(&mut self, other: &RunStats) {
        self.committed += other.committed;
        self.steps += other.steps;
        for (k, v) in &other.aborts {
            *self.aborts.entry(*k).or_insert(0) += v;
        }
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.loads += other.loads;
        self.stores += other.stores;
        self.log_records_written += other.log_records_written;
        self.log_bytes_written += other.log_bytes_written;
        self.data_bytes_written += other.data_bytes_written;
        self.nvm_line_reads += other.nvm_line_reads;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.llc_hits += other.llc_hits;
        self.llc_misses += other.llc_misses;
        self.write_set_overflows += other.write_set_overflows;
        self.lock_wait_cycles += other.lock_wait_cycles;
        self.commit_stall_cycles += other.commit_stall_cycles;
        self.total_stall_cycles += other.total_stall_cycles;
        self.fallback_commits += other.fallback_commits;
        self.sum_write_set_lines += other.sum_write_set_lines;
        self.sum_read_set_lines += other.sum_read_set_lines;
        self.recovery.merge(&other.recovery);
    }

    /// Merges a batch of per-core (or per-shard) statistics records into one
    /// aggregate — the batched-collection path used by the simulation driver
    /// and the experiment harness.
    pub fn merge_many<'a, I>(parts: I) -> RunStats
    where
        I: IntoIterator<Item = &'a RunStats>,
    {
        let mut total = RunStats::new();
        for part in parts {
            total.merge(part);
        }
        total
    }
}

impl fmt::Display for RunStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "committed:          {}", self.committed)?;
        writeln!(f, "aborts:             {}", self.total_aborts())?;
        writeln!(f, "abort rate:         {:.1}%", self.abort_rate_percent())?;
        writeln!(f, "cycles:             {}", self.total_cycles)?;
        writeln!(
            f,
            "throughput:         {:.3} tx/Mcycle",
            self.throughput_per_mcycle()
        )?;
        writeln!(f, "log records:        {}", self.log_records_written)?;
        writeln!(f, "log bytes:          {}", self.log_bytes_written)?;
        writeln!(f, "data wb bytes:      {}", self.data_bytes_written)?;
        writeln!(
            f,
            "mean write set:     {:.1} lines",
            self.mean_write_set_lines()
        )?;
        write!(f, "L1 hit rate:        {:.1}%", 100.0 * self.l1_hit_rate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_reason_index_matches_position_in_all() {
        for (i, r) in AbortReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i, "{r:?}");
        }
    }

    #[test]
    fn abort_rate_computation() {
        let mut s = RunStats::new();
        s.committed = 63;
        for _ in 0..37 {
            s.record_abort(AbortReason::Conflict);
        }
        assert!((s.abort_rate_percent() - 37.0).abs() < 1e-9);
    }

    #[test]
    fn abort_rate_with_no_attempts_is_zero() {
        assert_eq!(RunStats::new().abort_rate_percent(), 0.0);
    }

    #[test]
    fn throughput_computation() {
        let mut s = RunStats::new();
        s.committed = 500;
        s.total_cycles = 1_000_000;
        assert!((s.throughput_per_mcycle() - 500.0).abs() < 1e-9);
        s.total_cycles = 0;
        assert_eq!(s.throughput_per_mcycle(), 0.0);
    }

    #[test]
    fn degenerate_runs_never_produce_nan_or_inf() {
        // Regression: a crashed/empty cell (zero cycles, zero commits, or
        // both) must report finite zeroes through every derived metric.
        let degenerate = [
            RunStats::new(), // all-zero
            {
                let mut s = RunStats::new();
                s.committed = 5; // commits but no cycles (impossible run)
                s
            },
            {
                let mut s = RunStats::new();
                s.total_cycles = 1_000; // cycles but nothing committed
                s
            },
        ];
        for s in &degenerate {
            for v in [
                s.throughput_per_mcycle(),
                s.abort_rate_percent(),
                s.mean_write_set_lines(),
                s.mean_read_set_lines(),
                s.l1_hit_rate(),
            ] {
                assert!(v.is_finite(), "non-finite metric from {s:?}");
            }
        }
        let mut zero_commit = RunStats::new();
        zero_commit.total_cycles = 1_000;
        assert_eq!(zero_commit.throughput_per_mcycle(), 0.0);
    }

    #[test]
    fn mean_set_sizes() {
        let mut s = RunStats::new();
        s.committed = 4;
        s.sum_write_set_lines = 232; // 58 lines average, like the hash workload
        s.sum_read_set_lines = 400;
        assert!((s.mean_write_set_lines() - 58.0).abs() < 1e-9);
        assert!((s.mean_read_set_lines() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates_and_takes_max_cycles() {
        let mut a = RunStats::new();
        a.committed = 10;
        a.total_cycles = 100;
        a.record_abort(AbortReason::Conflict);
        let mut b = RunStats::new();
        b.committed = 5;
        b.total_cycles = 250;
        b.record_abort(AbortReason::Capacity);
        b.record_abort(AbortReason::Conflict);
        a.merge(&b);
        assert_eq!(a.committed, 15);
        assert_eq!(a.total_cycles, 250);
        assert_eq!(a.total_aborts(), 3);
        assert_eq!(a.aborts[&AbortReason::Conflict], 2);
    }

    #[test]
    fn merge_accumulates_recovery_counters() {
        let mut a = RunStats::new();
        a.recovery.crash_points = 3;
        a.recovery.replayed_transactions = 1;
        let mut b = RunStats::new();
        b.recovery.crash_points = 5;
        b.recovery.oracle_failures = 1;
        b.recovery.sentinel_edges = 2;
        a.merge(&b);
        assert_eq!(a.recovery.crash_points, 8);
        assert_eq!(a.recovery.oracle_failures, 1);
        assert_eq!(a.recovery.replayed_transactions, 1);
        assert_eq!(a.recovery.sentinel_edges, 2);
    }

    #[test]
    fn merge_accumulates_stall_breakdown() {
        let mut a = RunStats::new();
        a.lock_wait_cycles = 10;
        a.commit_stall_cycles = 4;
        a.total_stall_cycles = 14;
        let mut b = RunStats::new();
        b.lock_wait_cycles = 1;
        b.commit_stall_cycles = 2;
        b.total_stall_cycles = 3;
        a.merge(&b);
        assert_eq!(a.lock_wait_cycles, 11);
        assert_eq!(a.commit_stall_cycles, 6);
        assert_eq!(a.total_stall_cycles, 17);
    }

    #[test]
    fn merge_many_folds_per_core_records() {
        let parts: Vec<RunStats> = (1..=4u64)
            .map(|i| {
                let mut s = RunStats::new();
                s.committed = i;
                s.total_cycles = i * 100;
                s.record_abort(AbortReason::Conflict);
                s
            })
            .collect();
        let total = RunStats::merge_many(&parts);
        assert_eq!(total.committed, 10);
        assert_eq!(total.total_cycles, 400);
        assert_eq!(total.total_aborts(), 4);
        assert_eq!(
            RunStats::merge_many(std::iter::empty::<&RunStats>()),
            RunStats::new()
        );
    }

    #[test]
    fn display_contains_key_metrics() {
        let mut s = RunStats::new();
        s.committed = 1;
        s.total_cycles = 10;
        let out = format!("{s}");
        assert!(out.contains("committed"));
        assert!(out.contains("throughput"));
    }

    #[test]
    fn l1_hit_rate_bounds() {
        let mut s = RunStats::new();
        assert_eq!(s.l1_hit_rate(), 0.0);
        s.l1_hits = 3;
        s.l1_misses = 1;
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn total_memory_bytes_accounts_all_traffic() {
        let mut s = RunStats::new();
        s.log_bytes_written = 100;
        s.data_bytes_written = 200;
        s.nvm_line_reads = 2;
        assert_eq!(s.total_memory_bytes(), 100 + 200 + 128);
    }

    #[test]
    fn abort_reason_display_all_unique() {
        let mut labels: Vec<String> = AbortReason::ALL.iter().map(|r| r.to_string()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), AbortReason::ALL.len());
    }
}
