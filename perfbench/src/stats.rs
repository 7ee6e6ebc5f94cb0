//! Order statistics, the paper-fidelity error and run digests.

use dhtm_types::seed::{content_hash64, hash_hex};
use dhtm_types::stats::RunStats;

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks, the same rule as Python's `statistics.quantiles(method="inclusive")`).
///
/// # Panics
///
/// Panics if `values` is empty or holds a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile reported for `n` samples: p99 when at least ten
/// samples lie beyond it, else the highest quantile that keeps ten beyond
/// it, and never below the median.
pub fn tail_q(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Median and tail of a latency sample, with the tail's quantile and the
/// sample count so a report can say which percentile it really is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// The median.
    pub p50: f64,
    /// The tail value at quantile `tail_q`.
    pub tail: f64,
    /// The quantile the tail was taken at (0.99 when the sample allows).
    pub tail_q: f64,
    /// Number of samples.
    pub samples: usize,
}

impl Latency {
    /// Summarises `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Latency {
        let q = tail_q(samples.len());
        Latency {
            p50: median(samples),
            tail: quantile(samples, q),
            tail_q: q,
            samples: samples.len(),
        }
    }

    /// One line naming the sample count and the tail's real percentile.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}: {} samples, p50 {:.3} ms, p{:.1} {:.3} ms{}",
            self.samples,
            self.p50,
            self.tail_q * 100.0,
            self.tail,
            if self.tail_q < 0.99 {
                " (too few samples for p99: highest percentile with 10 beyond it)"
            } else {
                ""
            }
        )
    }
}

/// One published SO-normalised throughput: `design`'s speed-up over SO,
/// either on one workload or (with `workload: None`) as the geomean over
/// every workload present.
#[derive(Debug, Clone, Copy)]
pub struct PaperRef {
    /// Design label as the engine registry prints it.
    pub design: &'static str,
    /// The workload, or `None` for the geomean over all of them.
    pub workload: Option<&'static str>,
    /// The paper's value.
    pub paper: f64,
}

/// Figure 5's per-design averages over the six micro-benchmarks.
pub const FIG5: [PaperRef; 4] = [
    PaperRef {
        design: "sdTM",
        workload: None,
        paper: 1.20,
    },
    PaperRef {
        design: "ATOM",
        workload: None,
        paper: 1.35,
    },
    PaperRef {
        design: "LogTM-ATOM",
        workload: None,
        paper: 1.44,
    },
    PaperRef {
        design: "DHTM",
        workload: None,
        paper: 1.61,
    },
];

/// Table VI's OLTP speed-ups.
pub const TABLE6: [PaperRef; 4] = [
    PaperRef {
        design: "ATOM",
        workload: Some("tpcc"),
        paper: 1.67,
    },
    PaperRef {
        design: "ATOM",
        workload: Some("tatp"),
        paper: 1.27,
    },
    PaperRef {
        design: "DHTM",
        workload: Some("tpcc"),
        paper: 1.88,
    },
    PaperRef {
        design: "DHTM",
        workload: Some("tatp"),
        paper: 1.53,
    },
];

/// One simulated result.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRow {
    /// Design label.
    pub design: String,
    /// Workload name.
    pub workload: String,
    /// Transaction stream: rows with equal workload and stream ran the
    /// same transactions, so they normalise against the same SO row.
    pub stream: u64,
    /// Simulated throughput (commits per million cycles).
    pub throughput: f64,
}

/// Mean of `|measured / paper - 1|` over `refs`, in percent. `measured` is
/// the geomean, over every matching (workload, stream), of the design's
/// throughput over SO's on the same stream.
///
/// # Panics
///
/// Panics if a reference matches no row that has an SO row beside it.
pub fn paper_err_pct(rows: &[SimRow], refs: &[PaperRef]) -> f64 {
    let so_of = |row: &SimRow| {
        rows.iter()
            .find(|r| r.design == "SO" && r.workload == row.workload && r.stream == row.stream)
            .map(|r| r.throughput)
    };
    let total: f64 = refs
        .iter()
        .map(|r| {
            let ratios: Vec<f64> = rows
                .iter()
                .filter(|row| row.design == r.design)
                .filter(|row| r.workload.is_none_or(|w| w == row.workload))
                .filter_map(|row| so_of(row).map(|so| row.throughput / so))
                .collect();
            assert!(
                !ratios.is_empty(),
                "no SO-normalisable {} row for {:?}",
                r.design,
                r.workload
            );
            let geomean = (ratios.iter().map(|x| x.ln()).sum::<f64>() / ratios.len() as f64).exp();
            (geomean / r.paper - 1.0).abs()
        })
        .sum();
    100.0 * total / refs.len() as f64
}

/// A 16-hex digest of every field of `stats`: equal digests mean equal
/// simulated results.
pub fn digest(stats: &RunStats) -> String {
    hash_hex(content_hash64(format!("{stats:?}").as_bytes()))
}

/// The resolution of [`cpu_s`]: Linux reports CPU time in USER_HZ ticks,
/// and USER_HZ is 100 on every architecture the kernel's ABI exports.
pub const CPU_TICK_S: f64 = 0.01;

/// Host CPU seconds this process has used so far, over all its threads,
/// live or exited (`utime` + `stime` of `/proc/self/stat`, in
/// [`CPU_TICK_S`] ticks).
///
/// # Panics
///
/// Panics where `/proc/self/stat` is missing or malformed (non-Linux
/// hosts).
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
    // The command name may hold spaces; the fixed fields follow its ')'.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .expect("/proc/self/stat names the command in parentheses");
    let ticks = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .expect("utime and stime in /proc/self/stat") as f64
    };
    // Fields 14 and 15 of the file; the rest starts at field 3.
    (ticks(11) + ticks(12)) * CPU_TICK_S
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line (non-Linux hosts).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}
