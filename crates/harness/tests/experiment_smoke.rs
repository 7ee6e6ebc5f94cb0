//! Smoke test: every figure/table experiment of the paper's evaluation runs
//! to completion through `dhtm_experiments --experiment NAME` in quick mode
//! (`DHTM_BENCH_QUICK=1`, which swaps in `SystemConfig::small_test` and ~20x
//! smaller commit targets). An experiment that panics, deadlocks or prints
//! nothing is a broken figure.

use std::process::Command;

fn run_quick(experiment: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
        .env("DHTM_BENCH_QUICK", "1")
        .args(["--experiment", experiment])
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dhtm_experiments for {experiment}: {e}"));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "{experiment} exited with {:?}\nstdout:\n{stdout}\nstderr:\n{stderr}",
        output.status.code(),
    );
    assert!(
        stdout.lines().count() >= 2,
        "{experiment} printed almost nothing:\n{stdout}"
    );
}

macro_rules! experiment_smoke_tests {
    ($($test_name:ident => $experiment:literal),+ $(,)?) => {
        $(
            #[test]
            fn $test_name() {
                run_quick($experiment);
            }
        )+
    };
}

experiment_smoke_tests! {
    fig5_runs => "fig5",
    fig6_runs => "fig6",
    table2_runs => "table2",
    table4_runs => "table4",
    table5_runs => "table5",
    table6_runs => "table6",
    table7_runs => "table7",
    ablation_runs => "ablation",
    recovery_runs => "recovery",
}
