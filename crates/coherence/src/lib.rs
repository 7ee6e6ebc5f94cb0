#![forbid(unsafe_code)]
//! # dhtm-coherence
//!
//! The MESI directory coherence protocol with forwarding, built over the
//! structures of `dhtm-cache` and the persistence domain of `dhtm-nvm`.
//!
//! The central type is [`memsys::MemorySystem`]: the private L1s, the shared
//! LLC with its embedded directory, persistent memory and the shared
//! bandwidth-limited memory channel, together with the protocol logic that
//! moves cache lines between them and charges latencies.
//!
//! HTM conflict detection piggybacks on coherence (Section II-A of the
//! paper): whenever the protocol must forward or invalidate a line held by
//! another core, the memory system consults a [`probe::ConflictArbiter`]
//! (implemented by each transaction engine) which inspects the holder's
//! transactional state and decides whether the request proceeds, is refused
//! (requester aborts), kills the holder's transaction, or is NACKed
//! (LogTM-style stalling). The "sticky" directory state that DHTM relies on
//! for detecting conflicts on overflowed write-set lines is reported to the
//! arbiter as a probe for a line the holder no longer caches.
//!
//! ## Example
//!
//! ```
//! use dhtm_cache::l1::StoreKind;
//! use dhtm_coherence::memsys::MemorySystem;
//! use dhtm_coherence::probe::NoConflicts;
//! use dhtm_types::config::SystemConfig;
//! use dhtm_types::{Address, CoreId};
//!
//! let mut mem = MemorySystem::new(&SystemConfig::small_test());
//! let mut arb = NoConflicts;
//! let out = mem.store(CoreId::new(0), Address::new(0x80).line(), 0, &mut arb);
//! assert!(!out.aborted_by_conflict);
//! mem.store_word_in_l1(CoreId::new(0), Address::new(0x80), 7, StoreKind::Plain);
//! let rd = mem.load(CoreId::new(0), Address::new(0x80).line(), out.done, &mut arb);
//! assert!(rd.l1_hit());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod memsys;
pub mod probe;

pub use memsys::{AccessOutcome, HitLevel, MemorySystem};
pub use probe::{ConflictArbiter, NoConflicts, ProbeDecision, ProbeInfo, ProbeKind};
