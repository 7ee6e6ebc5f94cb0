//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! [--size full|tiny] [--work-dir DIR]`
//!
//! Runs one workload and prints its notes, then one JSON result line.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::{run, Options, Size, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{{}}} [--seed N] [--seconds S] [--trace 0|1] \
         [--size full|tiny] [--work-dir DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut opts = Options {
        seed: dhtm_scenario::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                Ok(())
            }
            "--seed" => value.parse().map(|v| opts.seed = v).map_err(|_| ()),
            "--seconds" => value
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s > 0.0)
                .map(|s| opts.seconds = s)
                .ok_or(()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    Ok(())
                }
                _ => Err(()),
            },
            "--size" => match value.as_str() {
                "full" | "tiny" => {
                    opts.size = if value == "full" {
                        Size::Full
                    } else {
                        Size::Tiny
                    };
                    Ok(())
                }
                _ => Err(()),
            },
            "--work-dir" => {
                opts.work_dir = PathBuf::from(&value);
                Ok(())
            }
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if parsed.is_err() {
            return usage(&format!("bad value for {flag}: {value}"));
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage("--workload is required and must name a workload");
    };

    // A fresh scratch directory per process, removed when the run ends.
    opts.work_dir = opts.work_dir.join(std::process::id().to_string());
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Err(e) = std::fs::create_dir_all(&opts.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", opts.work_dir.display());
        return ExitCode::FAILURE;
    }
    let report = run(&workload, &opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);

    for line in &report.notes {
        println!("# {line}");
    }
    for (what, ok) in &report.checks {
        if !ok {
            println!("# FAILED check: {what}");
        }
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
