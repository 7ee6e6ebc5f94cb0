#![forbid(unsafe_code)]
//! # dhtm-harness
//!
//! The declarative experiment-matrix runner behind the `dhtm_experiments`
//! CLI: every figure/table reproduction and scaling study in this
//! repository runs through it.
//!
//! An experiment is a [`matrix::Matrix`]: the cross product of
//!
//! * **engines** — [`dhtm_baselines::registry::EngineId`]s resolved
//!   through the engine registry: the paper's designs, the built-in DHTM
//!   variants ("dhtm-instant", ...) and any out-of-tree engine registered
//!   via `dhtm_baselines::registry::register_global`,
//! * **workloads** — the six micro-benchmarks, TATP and TPC-C, by name
//!   ([`dhtm_workloads::NAMES`]),
//! * **core counts** — 1..16 cores (the paper evaluates 8),
//! * **configs** — named [`SystemConfig`] variants (Table III baseline,
//!   the small test machine, log-buffer and bandwidth sweeps, ...).
//!
//! Every cell carries a complete, serializable
//! [`dhtm_scenario::SimSpec`]; [`runner::run_matrix`] expands the matrix
//! into cells, shards the independent spec runs across the workspace's one
//! worker pool ([`dhtm_scenario::par_map`], `--jobs N`) and collects one
//! [`runner::Row`] per cell in deterministic matrix order. Every cell is
//! seeded from a content hash of its workload / core-count coordinates —
//! *not* from the engine or config, so all designs and config-sweep points
//! in a group execute the same transaction stream, and *not* from the
//! worker that happens to run it, so results are bit-identical for any
//! worker count (enforced by the `parallel_equivalence` property test).
//!
//! [`report`] renders collected rows as JSON, CSV or the normalised-to-SO
//! tables the paper reports; [`experiments`] holds the definition of each
//! figure/table plus a beyond-the-paper core-count scaling sweep; the
//! `dhtm_experiments` binary runs any or all of them, or spec files, from
//! one CLI.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cli;
pub mod experiments;
pub mod matrix;
pub mod report;
pub mod runner;

use dhtm_types::config::{BaseConfig, SystemConfig};

/// Seed used by all experiments (results are deterministic given the seed).
pub const EXPERIMENT_SEED: u64 = dhtm_scenario::DEFAULT_SEED;

/// True when the `DHTM_BENCH_QUICK` environment variable is set (to anything
/// but `0`): experiments then run on [`SystemConfig::small_test`] with
/// sharply reduced commit targets so that every experiment finishes in
/// seconds. The experiment smoke tests and the CI harness job use this;
/// real reproductions must leave it unset.
pub fn quick_mode() -> bool {
    std::env::var_os("DHTM_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// The named base configuration every experiment builds on: the paper's
/// Table III machine, or the small test machine in [`quick_mode`]. Cells
/// carry this name (plus a sparse overlay) in their specs, which is what
/// keeps every catalogue cell serializable.
pub fn default_base() -> BaseConfig {
    if quick_mode() {
        BaseConfig::Small
    } else {
        BaseConfig::Isca18
    }
}

/// The machine configuration every experiment simulates: the resolved form
/// of [`default_base`].
pub fn experiment_config() -> SystemConfig {
    default_base().resolve()
}

/// Commit targets appropriate for each workload class (OLTP transactions are
/// an order of magnitude larger than the micro-benchmark batches). In
/// [`quick_mode`] the targets shrink ~20x so the smoke tests stay fast.
pub fn default_commits_for(workload: &str) -> u64 {
    let base: u64 = match workload {
        "tpcc" => 64,
        "tatp" => 160,
        _ => 400,
    };
    if quick_mode() {
        (base / 20).max(3)
    } else {
        base
    }
}
