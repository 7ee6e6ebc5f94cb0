//! The benchmark's own tests. They run the tiny input size; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dhtm_harness::runner::run_cells;
use perfbench::cells::{micro, oltp};
use perfbench::stats::{paper_err_pct, quantile, tail_q, Latency, SimRow, FIG5, TABLE6};
use perfbench::timed::run_traced;
use perfbench::{run, Options, Size, WORKLOADS};

fn options(trace: bool, name: &str) -> Options {
    Options {
        seed: 5,
        seconds: 0.1,
        trace,
        size: Size::Tiny,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

/// Metric names `BENCHMARK.json` declares in one section.
fn declared(section: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

#[test]
fn every_workload_runs_correctly_and_reports_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for workload in WORKLOADS {
        let report = run(workload, &options(false, &format!("e2e-{workload}")));
        assert!(
            report.correct(),
            "{workload}: {:?} {:?}",
            report.checks,
            report.notes
        );
        let got: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(got, want, "{workload}");
        assert!(report.metrics.iter().all(|m| m.value > 0.0), "{workload}");
    }
}

#[test]
fn a_traced_run_reports_every_layer_metric() {
    let report = run("micro", &options(true, "traced-micro"));
    assert!(report.correct(), "{:?}", report.checks);
    let got: BTreeSet<String> = report.metrics.iter().map(|m| m.name.clone()).collect();
    assert_eq!(got, declared("per_layer"));
}

#[test]
fn traced_run_stats_are_bit_identical_on_a_micro_and_an_oltp_cell() {
    let [_, micro] = micro(9, Size::Tiny).streams;
    let [_, oltp] = oltp(9, Size::Tiny).streams;
    let dhtm_hash = micro
        .iter()
        .find(|c| c.engine_label() == "DHTM" && c.workload() == "hash")
        .expect("Figure 5 has DHTM on hash");
    let so_tatp = oltp
        .iter()
        .find(|c| c.engine_label() == "SO" && c.workload() == "tatp")
        .expect("Table VI has SO on TATP");
    for cell in [dhtm_hash, so_tatp] {
        let plain = run_cells(std::slice::from_ref(cell), 1).remove(0).stats;
        let traced = run_traced(|| cell.spec.resolve().expect("validates"));
        assert_eq!(traced.stats, plain, "{}", cell.workload());
        assert_eq!(traced.outcomes.commits, plain.committed);
        assert!(traced.next_tx.calls >= plain.committed);
        assert!(traced.engine.iter().all(|c| c.timed <= c.calls));
    }
}

#[test]
fn quantiles_interpolate_and_the_tail_keeps_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=5).map(f64::from).collect();
    assert_eq!(quantile(&xs, 0.5), 3.0);
    assert_eq!(quantile(&xs, 0.25), 2.0);
    assert!((quantile(&xs, 0.1) - 1.4).abs() < 1e-12);
    assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
    assert_eq!(tail_q(2000), 0.99);
    assert!((tail_q(100) - 0.9).abs() < 1e-12);
    assert_eq!(tail_q(12), 0.5);
    let lat = Latency::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
    assert_eq!(lat.samples, 100);
    assert!((lat.tail - 90.1).abs() < 1e-9);
}

fn row(design: &str, workload: &str, stream: u64, throughput: f64) -> SimRow {
    SimRow {
        design: design.to_string(),
        workload: workload.to_string(),
        stream,
        throughput,
    }
}

#[test]
fn paper_err_pct_is_zero_on_the_paper_and_grows_with_the_gap() {
    let mut rows = Vec::new();
    for (workload, stream, so) in [("hash", 0, 10.0), ("queue", 0, 40.0), ("hash", 1, 20.0)] {
        rows.push(row("SO", workload, stream, so));
        for r in FIG5 {
            rows.push(row(r.design, workload, stream, so * r.paper));
        }
    }
    assert!(paper_err_pct(&rows, &FIG5).abs() < 1e-9);
    // DHTM 33.1% above the paper on one of three streams: its geomean is
    // 10% above, and the mean over four designs is 2.5%.
    for r in rows
        .iter_mut()
        .filter(|r| r.design == "DHTM" && r.stream == 1)
    {
        r.throughput *= 1.331;
    }
    assert!((paper_err_pct(&rows, &FIG5) - 2.5).abs() < 1e-9);

    // Per-workload references normalise within each stream.
    let oltp = vec![
        row("SO", "tpcc", 0, 1.0),
        row("ATOM", "tpcc", 0, 1.67),
        row("DHTM", "tpcc", 0, 1.88 * 2.0),
        row("SO", "tatp", 0, 2.0),
        row("ATOM", "tatp", 0, 2.0 * 1.27),
        row("DHTM", "tatp", 0, 2.0 * 1.53),
    ];
    assert!((paper_err_pct(&oltp, &TABLE6) - 25.0).abs() < 1e-9);
}

#[test]
fn service_connections_never_share_a_spec() {
    assert!(perfbench::service::pools_are_disjoint(5, 300));
}
