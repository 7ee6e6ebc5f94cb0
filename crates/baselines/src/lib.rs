#![forbid(unsafe_code)]
//! # dhtm-baselines
//!
//! The comparison designs evaluated in Section V of the paper, all
//! implemented against the same simulator, workloads and memory system as
//! DHTM so that only the visibility/durability mechanisms differ
//! (mirroring Table I):
//!
//! | Design | Atomic visibility | Atomic durability |
//! |---|---|---|
//! | [`so::SoEngine`] (SO) | locks | software redo logging (Mnemosyne-like, synchronous flushes) |
//! | [`sdtm::SdTmEngine`] (sdTM) | RTM-like HTM (L1-limited) | software logging *inside* the transaction (PHyTM-like) |
//! | [`atom::AtomEngine`] (ATOM) | locks | hardware undo logging; data flushed in place on the commit critical path |
//! | [`logtm_atom::LogTmAtomEngine`] (LogTM-ATOM) | LogTM-style eager HTM with NACK stalling and overflow | ATOM-style hardware undo logging |
//! | [`NpEngine`] (NP) | RTM-like HTM | none (volatile upper bound) |
//!
//! Every engine implements [`dhtm_sim::engine::TxEngine`] and is
//! constructed through the [`registry`]: an extensible catalogue of named
//! [`registry::EngineFactory`] entries with capability metadata. The six
//! designs register under their canonical ids ("so", "sdtm", "atom",
//! "logtm-atom", "dhtm", "np") alongside the built-in DHTM variants; new
//! variants register via [`registry::register_global`] without touching any
//! dispatch code. A [`DesignKind`](dhtm_types::policy::DesignKind) converts
//! into its canonical [`EngineId`], so `registry::resolve(&kind.into())`
//! builds any of the paper's designs.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod atom;
pub mod dispatch;
pub mod logtm_atom;
pub mod registry;
pub mod sdtm;
pub mod so;

pub use atom::AtomEngine;
pub use dispatch::EngineDispatch;
pub use logtm_atom::LogTmAtomEngine;
pub use registry::{EngineFactory, EngineId, EngineInfo, EngineRegistry};
pub use sdtm::SdTmEngine;
pub use so::SoEngine;

/// The volatile non-persistent HTM baseline (NP) is the RTM engine from
/// `dhtm-htm`, re-exported under its evaluation name.
pub use dhtm_htm::rtm::RtmEngine as NpEngine;
