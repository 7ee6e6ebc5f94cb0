#![forbid(unsafe_code)]
//! # dhtm-workloads
//!
//! The workloads of the paper's evaluation (Section V, Table IV), implemented
//! as data structures laid out in *simulated* persistent memory so that every
//! access a workload performs becomes a concrete cache-line access in the
//! simulator:
//!
//! * the six NVHeaps-style micro-benchmarks — [`micro::QueueWorkload`],
//!   [`micro::HashWorkload`], [`micro::SdgWorkload`], [`micro::SpsWorkload`],
//!   [`micro::BTreeWorkload`] and [`micro::RbTreeWorkload`] — each performing
//!   batches of atomic insert/delete/swap operations sized to reproduce the
//!   write-set footprints of Table IV;
//! * the OLTP workloads — [`oltp::TatpWorkload`] and [`oltp::TpccWorkload`] —
//!   in-memory row stores whose transactions have write working sets
//!   comparable to (TATP) or exceeding (TPC-C) the 32 KB L1.
//!
//! Each workload keeps a host-side model of its data structure (so that the
//! operations are semantically real — collisions, splits, rotations, row
//! look-ups) and renders every operation into the [`dhtm_sim::workload::TxOp`]
//! stream the simulator executes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod heap;
pub mod micro;
pub mod oltp;
pub mod trace;

pub use heap::SimHeap;
pub use micro::{
    BTreeWorkload, HashWorkload, MicroKind, QueueWorkload, RbTreeWorkload, SdgWorkload, SpsWorkload,
};
pub use oltp::{TatpWorkload, TpccWorkload};
pub use trace::TraceBuilder;

use dhtm_sim::workload::Workload;

/// All eight workload names, in the paper's order: the six
/// micro-benchmarks, then TATP and TPC-C.
pub const NAMES: [&str; 8] = [
    "queue", "hash", "sdg", "sps", "btree", "rbtree", "tatp", "tpcc",
];

/// The six micro-benchmark names in the paper's order: the leading six of
/// [`NAMES`].
pub const MICRO_NAMES: [&str; 6] = match NAMES.first_chunk() {
    Some(micro) => *micro,
    None => unreachable!(),
};

/// Builds any of the paper's eight workloads by name. The error names the
/// rejected workload and lists everything that would have resolved, in the
/// spirit of `RegistryError::UnknownEngine` on the engine side, so a typo
/// in a CLI flag or spec file is self-correcting.
///
/// # Errors
///
/// Returns [`WorkloadError::Unknown`] when `name` is not one of [`NAMES`].
pub fn try_by_name(name: &str, seed: u64) -> Result<Box<dyn Workload>, WorkloadError> {
    let kind = match name {
        "queue" => MicroKind::Queue,
        "hash" => MicroKind::Hash,
        "sdg" => MicroKind::Sdg,
        "sps" => MicroKind::Sps,
        "btree" => MicroKind::BTree,
        "rbtree" => MicroKind::RbTree,
        "tatp" => return Ok(Box::new(TatpWorkload::new(seed))),
        "tpcc" => return Ok(Box::new(TpccWorkload::new(seed))),
        _ => return Err(WorkloadError::Unknown(name.to_string())),
    };
    Ok(micro::build(kind, seed))
}

/// Whether `name` resolves via [`try_by_name`], without paying for
/// workload construction (spec validation calls this per cell).
pub fn is_known(name: &str) -> bool {
    NAMES.contains(&name)
}

/// Errors from name-based workload resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// No workload with this name exists; the display form lists [`NAMES`]
    /// so a typo in a CLI flag or spec file is self-correcting.
    Unknown(String),
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Unknown(name) => {
                write!(f, "no workload '{name}': known workloads are ")?;
                for (i, known) in NAMES.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "'{known}'")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_to_the_workload_of_that_name() {
        for name in NAMES {
            assert!(is_known(name));
            assert_eq!(try_by_name(name, 7).unwrap().name(), name);
        }
        assert!(!is_known("nope"));
        assert_eq!(MICRO_NAMES, NAMES[..6]);
    }

    #[test]
    fn try_by_name_lists_the_catalogue_on_unknown_names() {
        assert_eq!(try_by_name("hash", 7).unwrap().name(), "hash");
        let Err(err) = try_by_name("hsah", 7) else {
            panic!("'hsah' must not resolve");
        };
        assert_eq!(err, WorkloadError::Unknown("hsah".to_string()));
        let msg = err.to_string();
        assert!(msg.contains("'hsah'"), "{msg}");
        for name in NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }
}
