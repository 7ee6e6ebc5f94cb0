//! A streaming metrics sink over the [`SimObserver`] interface.
//!
//! Where [`dhtm_types::stats::RunStats`] is the *end-of-run* aggregate the
//! driver produces, [`MetricsSink`] watches the run *as it executes*:
//! commit timestamps stream in as they happen, abort reasons are tallied
//! live, and the sink can report instantaneous throughput at any cut —
//! which is what progress displays, long-run monitoring and windowed
//! throughput series need. It is also the reference implementation of a
//! non-trivial observer (the crash subsystem's profile recorder is the
//! other).

use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_types::stats::AbortReason;

/// Streaming per-run metrics collected through observer callbacks.
#[derive(Debug, Clone)]
pub struct MetricsSink {
    /// Logical transactions fetched from the workload.
    pub begins: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Aborted attempts, tallied per reason (indexed by
    /// [`AbortReason::index`]).
    aborts: [u64; AbortReason::ALL.len()],
    /// Steps that advanced the durable-mutation clock.
    pub durable_ticks: u64,
    /// Total durable mutations seen (final clock value at the last tick).
    pub durable_mutations: u64,
    /// The simulated cycle of every `stride`-th commit, in commit order —
    /// the streaming throughput series. Non-decreasing: the driver delivers
    /// observer callbacks in simulated-time order.
    pub commit_cycles: Vec<u64>,
    /// Sampling stride for `commit_cycles` (1 = record every commit).
    stride: u64,
}

impl Default for MetricsSink {
    fn default() -> Self {
        MetricsSink {
            begins: 0,
            commits: 0,
            aborts: [0; AbortReason::ALL.len()],
            durable_ticks: 0,
            durable_mutations: 0,
            commit_cycles: Vec::new(),
            stride: 1,
        }
    }
}

impl MetricsSink {
    /// A fresh, empty sink recording every commit cycle exactly.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink that records only every `stride`-th commit cycle, bounding
    /// `commit_cycles` to `⌈commits / stride⌉` entries for long runs. The
    /// scalar tallies (`commits`, aborts, ...) stay exact; windowed counts
    /// become stride-scaled estimates (see
    /// [`MetricsSink::commits_in_window`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn with_commit_stride(stride: u64) -> Self {
        assert!(stride > 0, "commit-cycle stride must be positive");
        MetricsSink {
            stride,
            ..Self::default()
        }
    }

    /// The commit-cycle sampling stride (1 = exact).
    pub fn commit_stride(&self) -> u64 {
        self.stride
    }

    /// Total aborted attempts across all reasons.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts recorded for one reason.
    pub fn aborts_for(&self, reason: AbortReason) -> u64 {
        self.aborts[reason.index()]
    }

    /// Committed transactions per million cycles up to the latest commit
    /// seen so far (0.0 before the first commit — never NaN/inf, matching
    /// the [`dhtm_types::stats::RunStats::throughput_per_mcycle`] guard).
    pub fn throughput_so_far(&self) -> f64 {
        match self.commit_cycles.last() {
            Some(&last) if last > 0 => self.commits as f64 * 1.0e6 / last as f64,
            _ => 0.0,
        }
    }

    /// Commits that landed in the half-open cycle window `[from, to)` —
    /// the primitive for windowed throughput series. Two binary searches
    /// over the sorted cycle series, not a scan.
    ///
    /// With a sampling stride above 1 this is an estimate: the count of
    /// *sampled* commits in the window scaled by the stride (exact to
    /// within one stride over the whole run).
    pub fn commits_in_window(&self, from: u64, to: u64) -> u64 {
        let lo = self.commit_cycles.partition_point(|&c| c < from);
        let hi = self.commit_cycles.partition_point(|&c| c < to.max(from));
        (hi - lo) as u64 * self.stride
    }

    /// The windowed throughput series: commits per consecutive
    /// `window`-cycle bucket from cycle 0 through the last recorded commit
    /// (empty if nothing committed). Stride-scaled like
    /// [`MetricsSink::commits_in_window`].
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn throughput_series(&self, window: u64) -> Vec<u64> {
        assert!(window > 0, "window must be positive");
        let Some(&last) = self.commit_cycles.last() else {
            return Vec::new();
        };
        (0..=last / window)
            .map(|k| self.commits_in_window(k * window, (k + 1) * window))
            .collect()
    }
}

impl SimObserver for MetricsSink {
    fn on_begin(&mut self, _ctx: &StepContext<'_>, _tx: &dhtm_sim::workload::Transaction) {
        self.begins += 1;
    }

    fn on_commit(&mut self, ctx: &StepContext<'_>, _tx: &dhtm_sim::workload::Transaction) {
        debug_assert!(
            self.commit_cycles.last().is_none_or(|&l| l <= ctx.now),
            "commit callbacks must arrive in simulated-time order"
        );
        if self.commits.is_multiple_of(self.stride) {
            self.commit_cycles.push(ctx.now);
        }
        self.commits += 1;
    }

    fn on_abort(&mut self, _ctx: &StepContext<'_>, reason: AbortReason) {
        self.aborts[reason.index()] += 1;
    }

    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.durable_ticks += 1;
        self.durable_mutations = self.durable_mutations.max(ctx.mutations_after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SimSpec;
    use dhtm_types::config::BaseConfig;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn sink_streams_commits_and_matches_final_stats() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(10)
            .seed(5)
            .build()
            .unwrap();
        let mut sink = MetricsSink::new();
        let result = spec.resolve().unwrap().run_probed(Some(&mut sink)).0;

        assert_eq!(sink.commits, result.stats.committed);
        assert_eq!(sink.total_aborts(), result.stats.total_aborts());
        assert_eq!(sink.commit_cycles.len(), 10);
        assert!(sink.commit_cycles.windows(2).all(|w| w[0] <= w[1]));
        assert!(sink.begins >= sink.commits);
        assert!(sink.durable_ticks > 0, "DHTM streams durable log records");
        assert!(sink.throughput_so_far() > 0.0);
        let last = *sink.commit_cycles.last().unwrap();
        assert_eq!(sink.commits_in_window(0, last + 1), 10);
    }

    #[test]
    fn windowed_series_sums_to_total_commits() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(25)
            .seed(9)
            .build()
            .unwrap();
        let mut sink = MetricsSink::new();
        spec.resolve().unwrap().run_probed(Some(&mut sink));
        let window = 1_000;
        let series = sink.throughput_series(window);
        assert_eq!(series.iter().sum::<u64>(), sink.commits);
        // Each bucket agrees with a brute-force scan over the raw series.
        for (k, &count) in series.iter().enumerate() {
            let (from, to) = (k as u64 * window, (k as u64 + 1) * window);
            let brute = sink
                .commit_cycles
                .iter()
                .filter(|&&c| from <= c && c < to)
                .count() as u64;
            assert_eq!(count, brute, "bucket {k}");
        }
        // Degenerate windows are empty, not panics.
        assert_eq!(sink.commits_in_window(10, 10), 0);
        assert_eq!(sink.commits_in_window(20, 10), 0);
    }

    #[test]
    fn stride_downsampling_bounds_memory_and_approximates_exact() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(40)
            .seed(11)
            .build()
            .unwrap();
        let mut exact = MetricsSink::new();
        spec.resolve().unwrap().run_probed(Some(&mut exact));
        let stride = 8;
        let mut sampled = MetricsSink::with_commit_stride(stride);
        spec.resolve().unwrap().run_probed(Some(&mut sampled));

        // Scalar tallies stay exact.
        assert_eq!(sampled.commits, exact.commits);
        assert_eq!(sampled.total_aborts(), exact.total_aborts());
        // Memory is bounded to ceil(commits / stride).
        assert_eq!(
            sampled.commit_cycles.len() as u64,
            exact.commits.div_ceil(stride)
        );
        // The whole-run windowed count is exact to within one stride.
        let full = sampled.commits_in_window(0, u64::MAX);
        assert!(
            full.abs_diff(exact.commits) < stride,
            "estimate {full} vs exact {}",
            exact.commits
        );
        // Exact default is bit-identical to the historical behaviour.
        assert_eq!(exact.commit_stride(), 1);
        assert_eq!(exact.commit_cycles.len() as u64, exact.commits);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_stride_panics() {
        MetricsSink::with_commit_stride(0);
    }

    #[test]
    fn observing_with_a_sink_does_not_change_the_run() {
        let spec = SimSpec::builder(DesignKind::SoftwareOnly, "queue")
            .base(BaseConfig::Small)
            .commits(6)
            .build()
            .unwrap();
        let plain = spec.run().unwrap().stats;
        let mut sink = MetricsSink::new();
        let observed = spec.resolve().unwrap().run_probed(Some(&mut sink)).0.stats;
        assert_eq!(plain, observed);
    }

    #[test]
    fn empty_sink_reports_finite_zeroes() {
        let sink = MetricsSink::new();
        assert_eq!(sink.throughput_so_far(), 0.0);
        assert_eq!(sink.total_aborts(), 0);
        assert_eq!(sink.commits_in_window(0, u64::MAX), 0);
        for r in AbortReason::ALL {
            assert_eq!(sink.aborts_for(r), 0);
        }
    }
}
