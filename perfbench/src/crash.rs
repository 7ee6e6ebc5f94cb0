//! The `crash` workload: the crash matrix over all six designs × hash and
//! queue on the Table III machine, stratified plus adversarial points,
//! and the DHTM negative control.

use std::time::Instant;

use dhtm_crash::plan::plan_points;
use dhtm_crash::{
    capture_cell, negative_control, profile_cell, CrashCell, CrashCellReport, CrashMatrix,
    RecoveryAuditor,
};
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{RecoveryCounters, RunStats};

use crate::layers::{self, SimLayers};
use crate::pool::{par_map, PoolTime, WORKERS};
use crate::report::Report;
use crate::stats::{self, digest, median, Latency, SimRow};
use crate::timed::{run_traced, setup_ns};
use crate::{Budget, Options, Size};

/// Set-up rounds per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 9;

/// Consecutive passes are timed as one sample until the sample holds this
/// many CPU seconds, so the CPU clock's 10 ms ticks stay near 1% of it.
const SAMPLE_CPU_S: f64 = 1.0;

/// The matrix the workload runs: the `recovery` experiment's plan.
pub fn matrix(seed: u64, size: Size) -> CrashMatrix {
    let (base, commits, stratified) = match size {
        Size::Full => (BaseConfig::Isca18, 64, 8),
        Size::Tiny => (BaseConfig::Small, 12, 4),
    };
    let mut m = CrashMatrix::new(&DesignKind::ALL, ["hash", "queue"], base.resolve());
    m.config_name = "default".to_string();
    m.commits = commits;
    m.seed = seed;
    m.stratified = stratified;
    m.adversarial = stratified.div_ceil(2).max(3);
    m
}

fn control_cell(m: &CrashMatrix) -> CrashCell {
    m.cells()
        .into_iter()
        .find(|c| c.design == DesignKind::Dhtm)
        .expect("the matrix runs DHTM")
}

/// What a pass's verdicts must reproduce: per cell, the stats digest (with
/// the recovery counters folded in) and the point count.
fn fingerprint(reports: &[CrashCellReport]) -> Vec<(String, usize)> {
    reports
        .iter()
        .map(|rep| (digest(&rep.stats), rep.verdicts.len()))
        .collect()
}

/// One untraced pass: `CrashMatrix::run`, timed into `pool`, plus the
/// negative control. Returns the reports, whether the control detected its
/// faults, and the pass's wall and process CPU seconds.
fn pass(
    m: &CrashMatrix,
    control: &CrashCell,
    pool: &mut PoolTime,
) -> (Vec<CrashCellReport>, bool, f64, f64) {
    let (t, cpu) = (Instant::now(), stats::cpu_s());
    let reports = pool.time(|| m.run(WORKERS));
    let detected = negative_control(control).is_some_and(|c| c.detected());
    let (wall, cpu) = (t.elapsed().as_secs_f64(), stats::cpu_s() - cpu);
    (reports, detected, wall, cpu)
}

fn check_pass(
    reports: &[CrashCellReport],
    detected: bool,
    first: &[(String, usize)],
    r: &mut Report,
) {
    for rep in reports {
        for v in &rep.verdicts {
            r.op(!v.outcome.passed);
        }
        r.op(rep.counters().oracle_failures != 0);
    }
    r.op(!detected);
    r.op(fingerprint(reports) != first);
}

fn points(reports: &[CrashCellReport]) -> usize {
    reports.iter().map(|rep| rep.verdicts.len()).sum()
}

/// End-to-end metrics: repeated crash-matrix passes with tracing off.
/// `ops_per_s` is the points of a pass over the median CPU seconds per
/// pass of the run's samples (groups of passes, see [`SAMPLE_CPU_S`]).
/// Process CPU time includes the negative control.
pub fn measure(opts: &Options, r: &mut Report) {
    let m = matrix(opts.seed, opts.size);
    let control = control_cell(&m);
    let cells = m.cells();
    let rounds: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| cells.iter().map(|c| setup_ns(|| c.resolved())).sum::<u64>() as f64 / 1e9)
        .collect();

    let budget = Budget::start(opts.seconds);
    // Only the traced run reports the pool's busy time.
    let mut pool = PoolTime::default();
    let (reports, detected, wall, cpu) = pass(&m, &control, &mut pool);
    let first = fingerprint(&reports);
    for (rep, (d, n)) in reports.iter().zip(&first) {
        r.note(format!(
            "digest {}/{} {d} ({n} crash points)",
            rep.cell.design, rep.cell.workload
        ));
    }
    check_pass(&reports, detected, &first, r);
    let n = points(&reports) as f64;
    let mut walls = vec![wall];
    // CPU seconds per pass of each full sample, and the open sample.
    let (mut samples, mut open) = (Vec::new(), (1, cpu));
    while budget.more(walls.len()) {
        let (reports, detected, wall, cpu) = pass(&m, &control, &mut pool);
        check_pass(&reports, detected, &first, r);
        walls.push(wall);
        open = (open.0 + 1, open.1 + cpu);
        if open.1 >= SAMPLE_CPU_S {
            samples.push(open.1 / f64::from(open.0));
            open = (0, 0.0);
        }
    }
    if samples.is_empty() {
        samples.push(open.1 / f64::from(open.0));
    }
    let rows: Vec<SimRow> = reports
        .iter()
        .map(|rep| SimRow {
            design: rep.cell.design.label().to_string(),
            workload: rep.cell.workload.clone(),
            stream: 0,
            throughput: rep.stats.throughput_per_mcycle(),
        })
        .collect();
    let ms: Vec<f64> = walls.iter().map(|s| s * 1e3).collect();
    r.note(Latency::of(&ms).describe("crash-matrix pass (wall)"));
    let cpu_per_pass = median(&samples);
    r.note(format!(
        "{} samples of >= {SAMPLE_CPU_S} CPU s: median {cpu_per_pass:.4} CPU s per pass, \
         {n} crash points, {:.1} points per wall s",
        samples.len(),
        n / median(&walls)
    ));
    // Under one clock tick of CPU time (tiny inputs only) counts as one tick.
    r.metric("ops_per_s", n / cpu_per_pass.max(stats::CPU_TICK_S), "1/s");
    r.metric(
        "paper_err_pct",
        stats::paper_err_pct(&rows, &stats::FIG5),
        "%",
    );
    crate::report_setup(r, &rounds);
    r.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
}

/// Host time of one cell's phases, and what they produced.
#[derive(Debug)]
struct Phases {
    profile_ns: u64,
    plan_ns: u64,
    capture_ns: u64,
    audit_ns: u64,
    points: usize,
    passed: usize,
    counters: RecoveryCounters,
}

/// `CrashMatrix::run_cell`, phase by phase, with a span around each.
fn phases(m: &CrashMatrix, cell: &CrashCell) -> Phases {
    let t = Instant::now();
    let run = profile_cell(cell);
    let profile_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let plan = plan_points(&run, m.stratified, m.adversarial, &[], &m.at_cycles);
    let plan_ns = t.elapsed().as_nanos() as u64;
    let points: Vec<u64> = plan.iter().map(|p| p.point).collect();
    let t = Instant::now();
    let captures = capture_cell(cell, &points);
    let capture_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut auditor = RecoveryAuditor::new(&run.profile, cell.design);
    let mut counters = RecoveryCounters::default();
    let mut passed = 0;
    for (point, snapshot) in &captures {
        let outcome = auditor.audit(*point, snapshot);
        outcome.accumulate(&mut counters);
        passed += usize::from(outcome.passed);
    }
    let audit_ns = t.elapsed().as_nanos() as u64;
    Phases {
        profile_ns,
        plan_ns,
        capture_ns,
        audit_ns,
        points: captures.len(),
        passed,
        counters,
    }
}

/// Per-layer metrics: phase-by-phase passes interleaved with untraced
/// `CrashMatrix::run` passes, plus one traced run of every cell's
/// simulation for the engine and memory-system layers.
pub fn measure_traced(opts: &Options, r: &mut Report) {
    let m = matrix(opts.seed, opts.size);
    let control = control_cell(&m);
    let cells = m.cells();
    let budget = Budget::start(opts.seconds);
    let mut first = None;
    let mut profiled: Option<Vec<RunStats>> = None;
    let mut pool = PoolTime::default();
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let (mut profile, mut capture, mut audit, mut plan) = (vec![], vec![], vec![], vec![]);
    let mut n_points = 0;
    while budget.more(traced_walls.len()) {
        let (reports, detected, wall, _) = pass(&m, &control, &mut pool);
        let want = first.get_or_insert_with(|| fingerprint(&reports));
        check_pass(&reports, detected, want, r);
        profiled.get_or_insert_with(|| {
            reports
                .iter()
                .map(|rep| RunStats {
                    recovery: RecoveryCounters::default(),
                    ..rep.stats.clone()
                })
                .collect()
        });
        plain_walls.push(wall);

        let t = Instant::now();
        let traced = par_map(&cells, WORKERS, |cell| phases(&m, cell));
        let detected = negative_control(&control).is_some_and(|c| c.detected());
        traced_walls.push(t.elapsed().as_secs_f64());
        r.op(!detected);
        for ((p, _), rep) in traced.items.iter().zip(&reports) {
            let same = p.points == rep.verdicts.len()
                && p.passed == rep.verdicts.len()
                && p.counters == rep.counters();
            r.op(!same);
        }
        let sum = |f: fn(&Phases) -> u64| {
            traced.items.iter().map(|(p, _)| f(p)).sum::<u64>() as f64 / 1e6
        };
        profile.push(sum(|p| p.profile_ns));
        plan.push(sum(|p| p.plan_ns));
        capture.push(sum(|p| p.capture_ns));
        audit.push(sum(|p| p.audit_ns));
        n_points = traced.items.iter().map(|(p, _)| p.points).sum::<usize>();
    }
    r.note(format!(
        "crash: plan_points takes {:.3} ms a pass",
        median(&plan)
    ));
    r.metric("harness.pool_busy_pct", pool.busy_pct(WORKERS), "%");
    r.metric("crash.profile_ms", median(&profile), "ms");
    r.metric("crash.capture_ms", median(&capture), "ms");
    r.metric("crash.audit_ms", median(&audit), "ms");
    r.metric("crash.points", n_points as f64, "count");
    r.metric(
        "crash.audit_us_per_point",
        median(&audit) * 1e3 / n_points.max(1) as f64,
        "us",
    );
    r.metric(
        "trace_overhead_pct",
        100.0 * (median(&traced_walls) / median(&plain_walls) - 1.0),
        "%",
    );

    let runs = par_map(&cells, WORKERS, |cell| run_traced(|| cell.resolved()));
    let profiled = profiled.expect("at least one pass");
    let same = runs
        .items
        .iter()
        .zip(&profiled)
        .all(|((run, _), want)| run.stats == *want);
    r.check("traced RunStats equal the profiled runs' RunStats", same);
    let mut sim = SimLayers::default();
    sim.add_pass(runs.items.iter().map(|(run, _)| run));
    sim.report(r);
    // The codec microbench needs a record of realistic size: the first
    // cell's run, keyed by the equivalent catalogue spec.
    let (run, _) = &runs.items[0];
    let spec = dhtm_scenario::SimSpec::builder(cells[0].design, cells[0].workload.clone())
        .commits(cells[0].commits)
        .build_unchecked();
    let record = dhtm_scenario::RunRecord::from_run(&spec, &run.stats, &run.probes);
    let (encode, decode) = layers::record_us(&record);
    r.metric("scenario.record_encode_us", encode, "us");
    r.metric("scenario.record_decode_us", decode, "us");
    layers::report_microbenches(r, opts.seed);
}
