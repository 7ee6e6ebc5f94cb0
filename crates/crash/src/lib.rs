#![forbid(unsafe_code)]
//! # dhtm-crash
//!
//! The crash-injection and recovery-validation subsystem: the end-to-end
//! proof of the paper's central claim that redo logs streaming to NVM leave
//! memory recoverable to a transaction-atomic state after a crash at *any*
//! point.
//!
//! The subsystem turns every design × workload cell into a crash-recovery
//! experiment:
//!
//! 1. **Crash-point scheduling** ([`plan`]) — points are denominated on the
//!    persistent domain's *durable-mutation clock* (every log append,
//!    overflow append, reclaim and in-place line write ticks it), which
//!    gives sub-step resolution: crashes land *inside* commit sequences
//!    (between the commit record and the data write-backs), mid-log-drain
//!    and mid-overflow — exactly the windows recovery exists for.
//!    Stratified samples cover the rest of the run.
//! 2. **Profiling** ([`probe`]) — the cell's one simulation: a fully
//!    observed run over the resumable
//!    [`dhtm_sim::driver::SimulationSession`] records each commit's span on
//!    the mutation clock and its word writes, while the persistent domain
//!    journals every counted mutation.
//! 3. **Crash images** ([`probe::Replay`]) — the exact durable
//!    image at each crash point is rebuilt by replaying the journal onto
//!    the post-setup base image, lazily and in ascending point order;
//!    volatile state (caches, log buffers, registers) is implicitly
//!    discarded because it is not part of the domain.
//! 4. **Recovery auditing** ([`oracle`]) — `RecoveryManager::recover` runs
//!    on each image and the result is compared word-exactly, one cache line
//!    at a time, against the committed-prefix expected image (durability + atomicity + mid-commit
//!    resolution + sentinel ordering).
//! 5. **Fault-injected negative controls** ([`fault`],
//!    [`matrix::negative_control`]) — deliberately corrupted logs must be
//!    *rejected*, proving the oracles have teeth.
//!
//! [`matrix::CrashMatrix`] sweeps all of it across designs and workloads on
//! a worker pool; `dhtm_harness` exposes it as the `recovery` experiment
//! (`dhtm_experiments --experiment recovery`, with `--crash-points` /
//! `--crash-at`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod fault;
pub mod matrix;
pub mod oracle;
pub mod plan;
pub mod probe;
pub mod report;

pub use fault::Fault;
pub use matrix::{negative_control, CrashCell, CrashCellReport, CrashMatrix, NegativeControl};
pub use oracle::{OracleOutcome, RecoveryAuditor};
pub use plan::{CrashPoint, PointKind};
pub use probe::{capture_cell, profile_cell, ProfileRecorder, ProfiledRun, Replay, RunProfile};
