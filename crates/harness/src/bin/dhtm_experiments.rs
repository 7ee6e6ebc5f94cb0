//! The experiment-suite runner: run any figure/table of the paper — or all
//! of them, or ad-hoc scenario spec files — through the matrix harness
//! from one CLI.
//!
//! ```text
//! dhtm_experiments [--experiment NAME|all] [--spec FILE...] [--jobs N]
//!                  [--format table|json|csv] [--out PATH]
//!                  [--trace out.ndjson] [--profile]
//! ```
//!
//! With `--experiment all` (the default) the full 8-experiment paper suite
//! plus the scaling sweep runs; `--format json --out results.json` dumps
//! every simulation row for archival (the CI quick-mode artifact). With
//! `--spec examples/specs/*.toml` each listed spec file is validated and
//! executed instead (the typed scenario API's file front-end), through the
//! same cell runner and worker pool. `--trace` streams every cell's NDJSON
//! event trace (schema `dhtm-trace-v1`) to a file and `--profile` prints a
//! summed component-stat table, for catalogue experiments and spec files
//! alike; both run the identical simulations — instrumentation never
//! perturbs a run.

use dhtm_harness::cli::HarnessOpts;
use dhtm_harness::experiments::{by_name, prepare_trace, run_specs, ExperimentResult, ALL};

fn main() {
    let opts = HarnessOpts::parse_env();
    prepare_trace(&opts);
    if !opts.specs.is_empty() {
        if opts.experiment.is_some() {
            eprintln!("--spec and --experiment are mutually exclusive");
            std::process::exit(2);
        }
        let result = run_specs(&opts.specs, &opts).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        dhtm_harness::experiments::emit(&opts, &[result]);
        return;
    }
    let which = opts.experiment.as_deref().unwrap_or("all");
    let results: Vec<ExperimentResult> = match which {
        "all" => ALL
            .iter()
            .map(|e| {
                eprintln!("running {} — {}", e.name, e.title);
                e.run(&opts)
            })
            .collect(),
        name => {
            let Some(experiment) = by_name(name) else {
                eprintln!("unknown experiment '{name}'; available:");
                for e in ALL {
                    eprintln!("  {:<10} {}", e.name, e.title);
                }
                std::process::exit(2);
            };
            vec![experiment.run(&opts)]
        }
    };
    dhtm_harness::experiments::emit(&opts, &results);
}
