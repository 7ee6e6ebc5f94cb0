#![forbid(unsafe_code)]
//! # dhtm-scenario
//!
//! The typed scenario API: one serializable entry point —
//! [`spec::SimSpec`] — for constructing any simulation run in the
//! workspace, decoupling experiment *description* from simulator
//! internals.
//!
//! A spec names:
//!
//! * an **engine** by [`dhtm_baselines::registry::EngineId`] (any of the
//!   six designs, a built-in DHTM variant, or an out-of-tree engine
//!   registered via [`dhtm_baselines::registry::register_global`]),
//! * a **workload** by name,
//! * a machine as a named [`dhtm_types::config::BaseConfig`] plus a sparse
//!   [`dhtm_types::config::ConfigOverlay`],
//! * run **limits** (commit target, cycle cap) and a base **seed**.
//!
//! Specs round-trip through canonical TOML ([`mod@format`]), carry a stable
//! [`spec::SimSpec::content_hash`] identity and reproduce the experiment
//! harness's per-cell seed derivation exactly
//! ([`spec::SimSpec::derived_seed`]), so a spec file is a complete,
//! reproducible description of a run. [`exec`] resolves a spec against the
//! engine registry and executes it; [`metrics::MetricsSink`] is a streaming
//! [`dhtm_sim::observer::SimObserver`] over any spec run. [`par_map`] is
//! the worker pool every batch of runs (matrix cells, spec files, crash
//! cells) is sharded across.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod format;
pub mod metrics;
pub mod pool;
pub mod result;
pub mod spec;
pub mod trace;

pub use exec::ResolvedSpec;
pub use metrics::MetricsSink;
pub use pool::par_map;
pub use result::{RunRecord, RESULT_SCHEMA};
pub use spec::{SimSpec, SimSpecBuilder, SpecError, SpecLimits};
pub use trace::TraceRecorder;

/// The base seed every experiment uses unless a spec overrides it.
pub const DEFAULT_SEED: u64 = 0x15CA_2018;
