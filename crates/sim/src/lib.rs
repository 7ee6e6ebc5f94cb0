#![forbid(unsafe_code)]
//! # dhtm-sim
//!
//! The cycle-approximate multicore simulator that every evaluated design runs
//! on: the machine (cores + memory system), the [`engine::TxEngine`] trait
//! implemented by each design, the lock table used by lock-based designs, the
//! workload abstraction and the simulation driver.
//!
//! ## Execution model
//!
//! Each core owns a virtual clock. The [`driver::Simulator`] repeatedly picks
//! the core with the smallest clock and lets it execute the next step of its
//! current transaction (begin, one memory/compute operation, or commit)
//! through the design's [`engine::TxEngine`]. Steps charge latencies from the
//! Table III configuration and contend for the shared memory channel, so
//! per-core clocks advance at realistic, workload-dependent rates. Because
//! the scheduling rule is deterministic, every run is exactly reproducible.
//!
//! Transactional conflicts surface in two ways: synchronously, when the
//! engine's own access is cancelled (it aborts itself), and asynchronously,
//! when another core's access dooms this core's transaction (the engine
//! discovers this the next time the doomed core steps).
//!
//! ## Example
//!
//! ```
//! use dhtm_sim::prelude::*;
//!
//! // A trivial engine-less sanity check: build a machine and inspect it.
//! let machine = Machine::new(SystemConfig::small_test());
//! assert_eq!(machine.mem.num_cores(), 4);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calendar;
pub mod driver;
pub mod engine;
pub mod locks;
pub mod machine;
pub mod observer;
pub mod workload;

pub use driver::{RunLimits, SimulationResult, Simulator};
pub use engine::{Polling, StepOutcome, TxEngine};
pub use locks::{LockId, LockTable};
pub use machine::Machine;
pub use observer::{NullObserver, SimObserver, StepContext};
pub use workload::{Transaction, TxOp, Workload};

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::driver::{RunLimits, SimulationResult, Simulator};
    pub use crate::engine::{StepOutcome, TxEngine};
    pub use crate::locks::{LockId, LockTable};
    pub use crate::machine::Machine;
    pub use crate::observer::{NullObserver, SimObserver, StepContext};
    pub use crate::workload::{Transaction, TxOp, Workload};
    pub use dhtm_types::config::SystemConfig;
    pub use dhtm_types::ids::{CoreId, TxId};
    pub use dhtm_types::policy::DesignKind;
    pub use dhtm_types::stats::{AbortReason, RunStats};
    pub use dhtm_types::Address;
}
