//! The `micro` and `oltp` workloads: the Figure 5 and Table VI cells on
//! the Table III machine, run through the harness worker pool.
//!
//! A run alternates its passes between two transaction streams: the
//! catalogue seed's, which anchors `paper_err_pct` to the reproduction's
//! reference cells, and the run seed's. One stream of the 64-commit TPC-C
//! cells alone moves the Table VI error by a fifth from seed to seed.

use std::time::Instant;

use dhtm_harness::matrix::{Cell, CommitSpec, ConfigVariant, Matrix};
use dhtm_harness::runner::{run_cells, Row};
use dhtm_scenario::RunRecord;
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;

use crate::layers::{self, SimLayers};
use crate::pool::{par_map, PoolTime, WORKERS};
use crate::report::Report;
use crate::stats::{self, digest, median, Latency, PaperRef, SimRow};
use crate::timed::{run_traced, setup_ns, TracedRun};
use crate::{Budget, Options, Size};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;

/// The six micro-benchmarks, in the paper's order.
pub const MICRO: [&str; 6] = ["queue", "hash", "sdg", "sps", "btree", "rbtree"];

/// The designs of Figure 5.
pub const FIG5_DESIGNS: [DesignKind; 5] = [
    DesignKind::SoftwareOnly,
    DesignKind::SdTm,
    DesignKind::Atom,
    DesignKind::LogTmAtom,
    DesignKind::Dhtm,
];

/// Harness cells on two streams, and the paper values they reproduce.
#[derive(Debug)]
pub struct CellWorkload {
    /// The cells of each stream, in matrix order.
    pub streams: [Vec<Cell>; 2],
    /// The paper's SO-normalised throughputs for `paper_err_pct`.
    pub refs: &'static [PaperRef],
}

/// The two stream seeds of a run: the catalogue seed and the run seed.
fn stream_seeds(seed: u64) -> [u64; 2] {
    [dhtm_scenario::DEFAULT_SEED, seed]
}

fn cells(designs: &[DesignKind], groups: &[(&str, u64)], size: Size, seed: u64) -> Vec<Cell> {
    let base = match size {
        Size::Full => BaseConfig::Isca18,
        Size::Tiny => BaseConfig::Small,
    };
    let mut cells: Vec<Cell> = groups
        .iter()
        .flat_map(|&(workload, commits)| {
            let commits = match size {
                Size::Full => commits,
                Size::Tiny => 6,
            };
            Matrix::new()
                .engines(designs.iter().copied())
                .workloads([workload])
                .config(ConfigVariant::of_base("default", base))
                .commits(CommitSpec::Fixed(commits))
                .seed(seed)
                .cells()
        })
        .collect();
    for (i, cell) in cells.iter_mut().enumerate() {
        cell.index = i;
    }
    cells
}

fn workload(
    designs: &[DesignKind],
    groups: &[(&str, u64)],
    refs: &'static [PaperRef],
    seed: u64,
    size: Size,
) -> CellWorkload {
    CellWorkload {
        streams: stream_seeds(seed).map(|s| cells(designs, groups, size, s)),
        refs,
    }
}

/// Figure 5: five designs × six micro-benchmarks, 400 commits each.
pub fn micro(seed: u64, size: Size) -> CellWorkload {
    let groups: Vec<(&str, u64)> = MICRO.iter().map(|&w| (w, 400)).collect();
    workload(&FIG5_DESIGNS, &groups, &stats::FIG5, seed, size)
}

/// Table VI: SO, ATOM and DHTM × TPC-C (64 commits) and TATP (160).
pub fn oltp(seed: u64, size: Size) -> CellWorkload {
    workload(
        &[DesignKind::SoftwareOnly, DesignKind::Atom, DesignKind::Dhtm],
        &[("tpcc", 64), ("tatp", 160)],
        &stats::TABLE6,
        seed,
        size,
    )
}

/// [`SETUP_ROUNDS`] rounds of the seconds to resolve, build and start
/// every cell of both streams.
fn setup_rounds(w: &CellWorkload) -> Vec<f64> {
    (0..SETUP_ROUNDS)
        .map(|_| {
            w.streams
                .iter()
                .flatten()
                .map(|cell| setup_ns(|| cell.spec.resolve().expect("catalogue cells validate")))
                .sum::<u64>() as f64
                / 1e9
        })
        .collect()
}

/// One timed `run_cells` pass over stream `s`.
fn pass(w: &CellWorkload, s: usize) -> (Vec<Row>, f64) {
    let t = Instant::now();
    let rows = run_cells(&w.streams[s], WORKERS);
    (rows, t.elapsed().as_secs_f64())
}

/// Checks passes against the first pass of their stream: every cell
/// reached its target with the same `RunStats` digest. Keeps each
/// stream's first rows, and prints their digests.
#[derive(Debug, Default)]
struct Checker {
    first: [Option<(Vec<Row>, Vec<String>)>; 2],
}

impl Checker {
    /// Checks `rows` of stream `s`.
    fn check(&mut self, s: usize, rows: Vec<Row>, r: &mut Report) {
        for row in &rows {
            r.op(row.stats.committed != row.target_commits);
        }
        let (_, digests) = self.first[s].get_or_insert_with(|| {
            let digests = rows
                .iter()
                .map(|row| {
                    let d = digest(&row.stats);
                    r.note(format!(
                        "digest stream{s} {}/{} {d} ({} commits)",
                        row.engine, row.workload, row.stats.committed
                    ));
                    d
                })
                .collect();
            (rows.clone(), digests)
        });
        for (row, want) in rows.iter().zip(digests.iter()) {
            r.op(digest(&row.stats) != *want);
        }
    }

    /// The first rows of every stream, for `paper_err_pct`.
    fn sim_rows(&self) -> Vec<SimRow> {
        let mut out = Vec::new();
        for (s, first) in self.first.iter().enumerate() {
            for row in first.iter().flat_map(|(rows, _)| rows) {
                out.push(SimRow {
                    design: row.engine.clone(),
                    workload: row.workload.clone(),
                    stream: s as u64,
                    throughput: row.throughput(),
                });
            }
        }
        out
    }
}

/// End-to-end metrics: `run_cells` passes with tracing off, alternating
/// streams, at least one pass of each. `ops_per_s` is the commits of both
/// streams over the sum of each stream's median pass, in process CPU
/// seconds.
pub fn measure(w: &CellWorkload, opts: &Options, r: &mut Report) {
    let setup = setup_rounds(w);
    let budget = Budget::start(opts.seconds);
    let mut checker = Checker::default();
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut cpus: [Vec<f64>; 2] = Default::default();
    let mut passes = 0;
    while passes < w.streams.len() || budget.more(passes) {
        let s = passes % w.streams.len();
        let cpu = stats::cpu_s();
        let (rows, wall) = pass(w, s);
        cpus[s].push(stats::cpu_s() - cpu);
        checker.check(s, rows, r);
        walls[s].push(wall);
        passes += 1;
    }
    for (s, (wall, cpu)) in walls.iter().zip(&cpus).enumerate() {
        let ms: Vec<f64> = wall.iter().map(|s| s * 1e3).collect();
        let what = format!("stream{s} run_cells pass (wall)");
        r.note(Latency::of(&ms).describe(&what));
        r.note(format!("stream{s} median pass: {:.2} CPU s", median(cpu)));
    }
    let commits: u64 = w.streams.iter().flatten().map(Cell::commits).sum();
    let pass_wall_s: f64 = walls.iter().map(|stream| median(stream)).sum();
    r.note(format!(
        "{:.1} commits per wall s",
        commits as f64 / pass_wall_s
    ));
    let pass_cpu_s: f64 = cpus.iter().map(|stream| median(stream)).sum();
    // Under one clock tick of CPU time (tiny inputs only) counts as one tick.
    r.metric(
        "ops_per_s",
        commits as f64 / pass_cpu_s.max(stats::CPU_TICK_S),
        "1/s",
    );
    r.metric(
        "paper_err_pct",
        stats::paper_err_pct(&checker.sim_rows(), w.refs),
        "%",
    );
    crate::report_setup(r, &setup);
    r.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
}

/// Per-layer metrics: traced passes through [`run_traced`], each after an
/// untraced `run_cells` pass of the same stream that gives the reference
/// results, the tracing overhead and the harness pool's busy time.
pub fn measure_traced(w: &CellWorkload, opts: &Options, r: &mut Report) {
    let budget = Budget::start(opts.seconds);
    let mut layers = SimLayers::default();
    let mut checker = Checker::default();
    let mut harness = PoolTime::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut mismatched = 0;
    let mut sample: Option<TracedRun> = None;
    while budget.more(traced_walls.len()) {
        let s = traced_walls.len() % w.streams.len();
        let (rows, wall) = harness.time(|| pass(w, s));
        checker.check(s, rows.clone(), r);
        plain_walls.push(wall);

        let traced = par_map(&w.streams[s], WORKERS, |cell| {
            run_traced(|| cell.spec.resolve().expect("catalogue cells validate"))
        });
        for ((run, secs), row) in traced.items.iter().zip(&rows) {
            mismatched += usize::from(run.stats != row.stats);
            r.op(run.stats != row.stats);
            if traced_walls.is_empty() {
                r.note(format!(
                    "cell {}/{}: {:.3} s, {} steps",
                    row.engine, row.workload, secs, run.stats.steps
                ));
            }
        }
        traced_walls.push(traced.wall_s);
        layers.add_pass(traced.items.iter().map(|(run, _)| run));
        if sample.is_none() {
            sample = traced.items.into_iter().next().map(|(run, _)| run);
        }
    }
    r.check("traced RunStats equal run_cells RunStats", mismatched == 0);
    r.metric("harness.pool_busy_pct", harness.busy_pct(WORKERS), "%");
    layers.report(r);
    let sample = sample.expect("at least one traced pass");
    let record = RunRecord::from_run(&w.streams[0][0].spec, &sample.stats, &sample.probes);
    let (encode, decode) = layers::record_us(&record);
    r.metric("scenario.record_encode_us", encode, "us");
    r.metric("scenario.record_decode_us", decode, "us");
    layers::report_microbenches(r, opts.seed);
    r.metric(
        "trace_overhead_pct",
        100.0 * (median(&traced_walls) / median(&plain_walls) - 1.0),
        "%",
    );
}
