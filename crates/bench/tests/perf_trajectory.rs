//! Smoke tests of the `perf_trajectory` binary: it records a trajectory
//! point, its regression gate accepts its own fresh output, and it derives
//! the next point's name from the files already present.

use std::process::Command;

/// The perf-trajectory binary runs, writes valid-looking JSON where asked
/// (not at the repo root — the checked-in trajectory must stay untouched by
/// tests), and its regression gate accepts its own fresh output.
#[test]
fn perf_trajectory_runs_and_self_checks() {
    let exe = env!("CARGO_BIN_EXE_perf_trajectory");
    let out = std::env::temp_dir().join(format!("bench_smoke_{}.json", std::process::id()));
    let output = Command::new(exe)
        .args([
            "--out",
            out.to_str().unwrap(),
            "--repeat",
            "1",
            "--point",
            "smoke",
        ])
        .output()
        .expect("spawn perf_trajectory");
    assert!(
        output.status.success(),
        "perf_trajectory failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let json = std::fs::read_to_string(&out).expect("trajectory file written");
    assert!(json.contains("\"aggregate_steps_per_sec\""));
    assert!(json.contains("\"point\": \"smoke\""));
    assert!(json.contains("\"engine\": \"DHTM\""));

    // Re-run with the fresh file as the reference: same machine, same
    // matrix — the gate must pass.
    let gate = Command::new(exe)
        .args([
            "--out",
            out.to_str().unwrap(),
            "--check",
            out.to_str().unwrap(),
            "--repeat",
            "1",
            "--tolerance",
            "60",
        ])
        .output()
        .expect("spawn perf_trajectory --check");
    assert!(
        gate.status.success(),
        "self-check gate failed:\n{}",
        String::from_utf8_lossy(&gate.stderr)
    );
    let _ = std::fs::remove_file(&out);
}

/// With no `--out`/`--point`, `perf_trajectory` derives both by continuing
/// the trajectory: one past the highest `BENCH_PR<N>.json` in its working
/// directory. Junk names that match the shape but are not numbered points
/// (`BENCH_PRbackup.json`, `BENCH_PR9_old.json`) must not confuse the
/// numbering — they are skipped with a warning on stderr.
#[test]
fn perf_trajectory_derives_next_point_from_existing_files() {
    let exe = env!("CARGO_BIN_EXE_perf_trajectory");
    let dir = std::env::temp_dir().join(format!("bench_next_point_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for name in [
        "BENCH_PR2.json",
        "BENCH_PR6.json",
        "BENCH_PRbackup.json",
        "BENCH_PR9_old.json",
    ] {
        std::fs::write(dir.join(name), "{}\n").expect("plant trajectory file");
    }
    let output = Command::new(exe)
        .current_dir(&dir)
        .args(["--repeat", "1"])
        .output()
        .expect("spawn perf_trajectory");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "perf_trajectory failed:\n{stderr}");
    let json = std::fs::read_to_string(dir.join("BENCH_PR7.json"))
        .expect("derived default BENCH_PR7.json written (highest point is PR6)");
    assert!(
        json.contains("\"point\": \"PR7\""),
        "derived label:\n{json}"
    );
    assert!(json.contains("\"aggregate_steps_per_sec\""));
    for junk in ["BENCH_PRbackup.json", "BENCH_PR9_old.json"] {
        assert!(
            stderr.contains(junk),
            "junk name {junk} should be warned about on stderr:\n{stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
