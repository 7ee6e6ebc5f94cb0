#![forbid(unsafe_code)]
//! # dhtm-cache
//!
//! Cache-hierarchy structures for the DHTM reproduction: the private L1 data
//! caches with transactional read/write bits, the shared LLC that holds the
//! coherence directory, the read-set overflow signature and the DHTM log
//! buffer.
//!
//! These are *structures*, not controllers: the coherence protocol logic that
//! moves lines between them lives in `dhtm-coherence`, and the transactional
//! policies (when to set bits, when to abort, when to overflow) live in
//! `dhtm-htm` and the `dhtm` core crate. Keeping the structures passive makes
//! them easy to test exhaustively in isolation.
//!
//! ## Example
//!
//! ```
//! use dhtm_cache::l1::{L1Cache, L1Entry};
//! use dhtm_cache::mesi::MesiState;
//! use dhtm_types::config::CacheGeometry;
//! use dhtm_types::LineAddr;
//!
//! let mut l1 = L1Cache::new(CacheGeometry::isca18_l1());
//! let line = LineAddr::new(42);
//! l1.insert(line, L1Entry::new(MesiState::Exclusive, [0; 8]));
//! l1.entry_mut(line).unwrap().write_bit = true;
//! assert_eq!(l1.write_set_iter().count(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod l1;
pub mod lineset;
pub mod llc;
pub mod log_buffer;
pub mod mesi;
pub mod set_assoc;
pub mod signature;

pub use l1::{L1Cache, L1Entry, StoreKind};
pub use lineset::LineSet;
pub use llc::{DirectoryEntry, LlcCache};
pub use log_buffer::LogBuffer;
pub use mesi::MesiState;
pub use set_assoc::SetAssocCache;
pub use signature::ReadSignature;
