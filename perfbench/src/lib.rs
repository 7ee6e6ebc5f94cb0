#![forbid(unsafe_code)]
//! The repository benchmark: four workloads (`micro`, `oltp`, `service`,
//! `crash`), measured end to end with tracing off, or broken down per
//! layer with tracing on. Everything is measured from outside the
//! program, through the crates' public functions.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how each layer metric maps to an end-to-end one.

pub mod cells;
pub mod crash;
pub mod layers;
pub mod pool;
pub mod report;
pub mod service;
pub mod stats;
pub mod timed;

use std::path::PathBuf;
use std::time::Instant;

use report::Report;

/// Input size of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper: the paper's cells on the Table III machine.
    Full,
    /// The same workloads on the small test machine with a handful of
    /// commits, for smoke tests.
    Tiny,
}

/// The four workloads.
pub const WORKLOADS: [&str; 4] = ["micro", "oltp", "service", "crash"];

/// Everything a run needs besides the workload name.
#[derive(Debug, Clone)]
pub struct Options {
    /// Base seed of every generated input.
    pub seed: u64,
    /// Seconds of measurement (passes or requests repeat until it is used).
    pub seconds: f64,
    /// Per-layer breakdown instead of end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub size: Size,
    /// Scratch directory for result stores; emptied and removed at the end.
    pub work_dir: PathBuf,
}

/// Repeats measured passes until the run's seconds are used (at least one
/// pass).
#[derive(Debug)]
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    /// Starts the clock.
    pub fn start(seconds: f64) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
        }
    }

    /// Whether another pass should run after `done` passes.
    pub fn more(&self, done: usize) -> bool {
        done == 0 || self.start.elapsed().as_secs_f64() < self.seconds
    }

    /// Seconds left, never negative.
    pub fn left(&self) -> f64 {
        (self.seconds - self.start.elapsed().as_secs_f64()).max(0.0)
    }
}

/// Records `setup_s`, the median of a run's set-up rounds (in seconds),
/// with a note giving their spread.
pub fn report_setup(r: &mut Report, rounds: &[f64]) {
    let ms: Vec<f64> = rounds.iter().map(|s| s * 1e3).collect();
    let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
    r.note(format!(
        "{}, min {min:.3} ms",
        stats::Latency::of(&ms).describe("set-up round")
    ));
    r.metric("setup_s", stats::median(rounds), "s");
}

/// Runs `workload` and returns its report.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(workload: &str, opts: &Options) -> Report {
    let mut report = Report::default();
    let r = &mut report;
    match (workload, opts.trace) {
        ("micro", false) => cells::measure(&cells::micro(opts.seed, opts.size), opts, r),
        ("oltp", false) => cells::measure(&cells::oltp(opts.seed, opts.size), opts, r),
        ("service", false) => service::measure(opts, r),
        ("crash", false) => crash::measure(opts, r),
        ("micro", true) => cells::measure_traced(&cells::micro(opts.seed, opts.size), opts, r),
        ("oltp", true) => cells::measure_traced(&cells::oltp(opts.seed, opts.size), opts, r),
        ("service", true) => service::measure_traced(opts, r),
        ("crash", true) => crash::measure_traced(opts, r),
        (other, _) => panic!("unknown workload {other:?} (expected one of {WORKLOADS:?})"),
    }
    if opts.trace {
        fill_foreign_layers(workload, opts, r);
    }
    report
}

/// Layers a workload does not reach are measured on the tiny size of the
/// workload that does, so every traced run reports every layer metric.
fn fill_foreign_layers(workload: &str, opts: &Options, r: &mut Report) {
    let probe = Options {
        seconds: 1.0,
        size: Size::Tiny,
        ..opts.clone()
    };
    for (other, prefix) in [("service", "service."), ("crash", "crash.")] {
        if other == workload {
            continue;
        }
        let mut sub = Report::default();
        match other {
            "service" => service::measure_traced(&probe, &mut sub),
            _ => crash::measure_traced(&probe, &mut sub),
        }
        for (what, ok) in sub.checks {
            r.check(format!("{other} probe: {what}"), ok);
        }
        r.failed += sub.failed;
        for m in sub.metrics {
            if m.name.starts_with(prefix) && r.get(&m.name).is_none() {
                r.metric(&m.name, m.value, m.unit);
            }
        }
        r.note(format!("{prefix}* measured on the tiny {other} workload"));
    }
}
