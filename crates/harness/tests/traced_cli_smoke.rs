//! End-to-end smoke of the observability CLI surface: `dhtm_experiments
//! --trace/--profile` writes a valid NDJSON stream and a profile table in
//! quick mode, and `trace_validate` (the CI gate) accepts that stream and
//! rejects a corrupted one, for a catalogue experiment and for `--spec`
//! files alike. This drives the real binaries, so it covers the whole path:
//! cells → instrumented runner → trace file → validator.

use std::process::Command;

fn scratch(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dhtm_{name}_{}", std::process::id()))
}

#[test]
fn traced_profiled_experiment_round_trips_through_the_validator() {
    let trace = scratch("trace.ndjson");
    let results = scratch("traced.json");
    let run = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
        .env("DHTM_BENCH_QUICK", "1")
        .args([
            "--experiment",
            "fig6",
            "--jobs",
            "2",
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
            "--format",
            "json",
            "--out",
            results.to_str().unwrap(),
        ])
        .output()
        .expect("spawn dhtm_experiments");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "traced run failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        stdout.contains("Component-stat profile"),
        "--profile printed no table:\n{stdout}"
    );
    assert!(
        stdout.contains("channel/busy_cycles"),
        "profile table misses channel probes:\n{stdout}"
    );

    let text = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(text.lines().count() > 0);
    assert!(text.lines().all(|l| l.contains("dhtm-trace-v1")));
    let json = std::fs::read_to_string(&results).expect("results written");
    assert!(
        json.contains("\"probes\": {"),
        "instrumented rows must carry probe objects"
    );
    assert!(json.contains("probe_channel_busy_cycles"));

    let validate = |path: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_trace_validate"))
            .arg(path)
            .output()
            .expect("spawn trace_validate")
    };
    let ok = validate(&trace);
    assert!(
        ok.status.success(),
        "validator rejected a harness-emitted trace:\n{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    assert!(String::from_utf8_lossy(&ok.stdout).contains("events valid"));

    // A corrupted stream (schema field clobbered) must fail the gate.
    let bad = scratch("bad.ndjson");
    std::fs::write(&bad, text.replace("dhtm-trace-v1", "dhtm-trace-v0")).unwrap();
    let rejected = validate(&bad);
    assert!(
        !rejected.status.success(),
        "validator accepted a wrong-schema trace"
    );

    for f in [&trace, &results, &bad] {
        let _ = std::fs::remove_file(f);
    }
}

#[test]
fn plain_and_traced_runs_emit_identical_statistics() {
    let run = |extra: &[&str]| {
        let out = scratch(&format!("cmp{}.json", extra.len()));
        let mut args = vec![
            "--experiment",
            "fig6",
            "--jobs",
            "2",
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        let status = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
            .env("DHTM_BENCH_QUICK", "1")
            .args(&args)
            .status()
            .expect("spawn dhtm_experiments");
        assert!(status.success());
        let json = std::fs::read_to_string(&out).expect("results written");
        let _ = std::fs::remove_file(&out);
        json
    };
    let plain = run(&[]);
    let profiled = run(&["--profile"]);
    // Strip everything probe-derived (the probe_* aggregate columns and
    // the nested probes object — both sit at the tail of each row):
    // every remaining statistic of every row must be byte-identical
    // between plain and instrumented runs.
    let strip = |json: &str| -> String {
        json.lines()
            .map(|line| match line.find(", \"probe_") {
                Some(i) => {
                    let trailing_comma = line.trim_end().ends_with("},");
                    format!("{}}}{}", &line[..i], if trailing_comma { "," } else { "" })
                }
                None => line.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&plain),
        strip(&profiled),
        "instrumentation perturbed a run"
    );
    assert!(!plain.contains("\"probes\""));
    assert!(profiled.contains("\"probes\""));
}

#[test]
fn spec_files_are_traced_profiled_and_sharded_like_catalogue_cells() {
    let specs = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs");
    let spec = |name: &str| specs.join(name).to_str().unwrap().to_string();
    // A duplicate file still gets its own row but is not re-run.
    let files = [
        spec("dhtm_hash_small.toml"),
        spec("dhtm_logbuf16_bw2x.toml"),
        spec("so_tatp_baseline.toml"),
        spec("dhtm_hash_small.toml"),
    ];
    let run = |jobs: &str| {
        let trace = scratch(&format!("spec_trace_j{jobs}.ndjson"));
        let results = scratch(&format!("spec_rows_j{jobs}.json"));
        let mut args = vec!["--spec".to_string()];
        args.extend(files.iter().cloned());
        for arg in [
            "--jobs",
            jobs,
            "--trace",
            trace.to_str().unwrap(),
            "--profile",
        ] {
            args.push(arg.to_string());
        }
        for arg in ["--format", "json", "--out", results.to_str().unwrap()] {
            args.push(arg.to_string());
        }
        let out = Command::new(env!("CARGO_BIN_EXE_dhtm_experiments"))
            .args(&args)
            .output()
            .expect("spawn dhtm_experiments");
        assert!(
            out.status.success(),
            "spec run with --jobs {jobs} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        let trace_text = std::fs::read_to_string(&trace).expect("trace file written");
        let rows = std::fs::read_to_string(&results).expect("results written");
        let validated = Command::new(env!("CARGO_BIN_EXE_trace_validate"))
            .arg(&trace)
            .output()
            .expect("spawn trace_validate");
        assert!(
            validated.status.success(),
            "validator rejected a spec-run trace:\n{}",
            String::from_utf8_lossy(&validated.stderr)
        );
        for f in [&trace, &results] {
            let _ = std::fs::remove_file(f);
        }
        (stdout, trace_text, rows)
    };

    let (stdout, trace, rows) = run("1");
    assert!(
        stdout.contains("Component-stat profile"),
        "--profile printed no table for spec files:\n{stdout}"
    );
    assert!(
        stdout.contains("3 executed, 1 duplicate"),
        "duplicate spec file was re-run:\n{stdout}"
    );
    assert!(trace.lines().count() > 0, "--trace wrote nothing");
    assert_eq!(rows.matches("\"experiment\": \"spec:").count(), 4);
    assert!(rows.contains("\"probes\": {"), "spec rows carry no probes");

    let (_, sharded_trace, sharded_rows) = run("4");
    assert_eq!(sharded_rows, rows, "--jobs 4 changed the spec rows");
    assert_eq!(sharded_trace, trace, "--jobs 4 changed the spec trace");
}
