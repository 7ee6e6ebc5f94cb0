//! The lock table used by lock-based designs (SO, ATOM) and by the software
//! fallback path of the HTM designs.
//!
//! The paper's SO and ATOM designs use fine-grained locking for the OLTP
//! workloads and coarse-grained partition locks for the micro-benchmarks
//! (Section V). Both map onto the same abstraction here: a transaction is
//! annotated with the set of [`LockId`]s it needs; the engine acquires them
//! all at begin time (in canonical order, which makes deadlock impossible)
//! and releases them after commit.
//!
//! The table lives in the [`Machine`](crate::machine::Machine), not in the
//! engines, so the driver can see releases: a core whose `begin` found its
//! locks busy is parked off the event queue and woken only when
//! [`LockTable::releases`] moves (see [`crate::driver`]).

use std::collections::HashMap;
use std::fmt;

use dhtm_types::ids::CoreId;

/// Cycles a core spins before re-checking a contended lock set (SO, ATOM).
pub const LOCK_SPIN: u64 = 60;

/// Cycles an HTM core waits before re-checking the global fallback lock,
/// both to acquire it and while subscribed to it (NP, sdTM, DHTM).
pub const FALLBACK_SPIN: u64 = 64;

/// Identifier of one lock (a data-structure partition, a database row group,
/// or a global lock for single-lock fallback paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(pub u64);

impl LockId {
    /// The single global lock used by software fallback paths.
    pub const GLOBAL: LockId = LockId(u64::MAX);
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lock{}", self.0)
    }
}

/// A table of currently held locks.
#[derive(Debug, Clone, Default)]
pub struct LockTable {
    held: HashMap<LockId, CoreId>,
    acquisitions: u64,
    contended_attempts: u64,
    releases: u64,
}

impl LockTable {
    /// Creates an empty lock table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Attempts to acquire every lock in `locks` for `core`.
    ///
    /// Either all locks are acquired (returns `true`) or none are (returns
    /// `false`); the all-or-nothing behaviour combined with the caller
    /// sorting its lock set keeps the system deadlock-free.
    /// Locks already held by the same core are treated as re-entrant.
    pub fn try_acquire_all(&mut self, core: CoreId, locks: &[LockId]) -> bool {
        let blocked = locks
            .iter()
            .any(|l| self.held.get(l).is_some_and(|&owner| owner != core));
        if blocked {
            self.contended_attempts += 1;
            return false;
        }
        for &l in locks {
            if self.held.insert(l, core).is_none() {
                self.acquisitions += 1;
            }
        }
        true
    }

    /// Releases every lock held by `core`. Returns how many were released.
    pub fn release_all(&mut self, core: CoreId) -> usize {
        let before = self.held.len();
        // lint: allow(unordered-iter, reason = "order-independent set subtraction with a pure predicate; no per-entry effect observes iteration order")
        self.held.retain(|_, &mut owner| owner != core);
        let released = before - self.held.len();
        if released > 0 {
            self.releases += 1;
        }
        released
    }

    /// Whether `lock` is currently held (by anyone).
    #[inline]
    pub fn is_held(&self, lock: LockId) -> bool {
        self.held.contains_key(&lock)
    }

    /// The current owner of `lock`, if held.
    pub fn owner(&self, lock: LockId) -> Option<CoreId> {
        self.held.get(&lock).copied()
    }

    /// Number of locks currently held across all cores.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }

    /// Lifetime count of successful lock acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Lifetime count of acquisition attempts that found a lock busy,
    /// including the polls of parked cores the driver skipped.
    pub fn contended_attempts(&self) -> u64 {
        self.contended_attempts
    }

    /// Lifetime count of [`LockTable::release_all`] calls that released at
    /// least one lock: the driver's wake-up signal for parked cores.
    pub fn releases(&self) -> u64 {
        self.releases
    }

    /// Counts `n` contended attempts that were not re-issued: polls a
    /// parked core skipped, each of which would have found a lock busy.
    pub(crate) fn add_contended_attempts(&mut self, n: u64) {
        self.contended_attempts += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn acquire_and_release() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(1), LockId(2)]));
        assert!(t.is_held(LockId(1)));
        assert_eq!(t.owner(LockId(2)), Some(c(0)));
        assert_eq!(t.release_all(c(0)), 2);
        assert!(!t.is_held(LockId(1)));
        assert_eq!(t.releases(), 1);
        // Releasing nothing is not a release.
        assert_eq!(t.release_all(c(0)), 0);
        assert_eq!(t.releases(), 1);
    }

    #[test]
    fn contention_blocks_all_or_nothing() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(1)]));
        // Core 1 wants locks 1 and 2: it gets neither.
        assert!(!t.try_acquire_all(c(1), &[LockId(2), LockId(1)]));
        assert!(!t.is_held(LockId(2)));
        assert_eq!(t.contended_attempts(), 1);
        // After release it succeeds.
        t.release_all(c(0));
        assert!(t.try_acquire_all(c(1), &[LockId(2), LockId(1)]));
    }

    #[test]
    fn reentrant_acquisition_by_same_core() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId(7)]));
        assert!(t.try_acquire_all(c(0), &[LockId(7), LockId(8)]));
        assert_eq!(t.held_count(), 2);
        // Acquisition count only increments for newly taken locks.
        assert_eq!(t.acquisitions(), 2);
    }

    #[test]
    fn release_only_affects_own_locks() {
        let mut t = LockTable::new();
        t.try_acquire_all(c(0), &[LockId(1)]);
        t.try_acquire_all(c(1), &[LockId(2)]);
        assert_eq!(t.release_all(c(0)), 1);
        assert!(t.is_held(LockId(2)));
    }

    #[test]
    fn global_lock_constant_is_distinct() {
        let mut t = LockTable::new();
        assert!(t.try_acquire_all(c(0), &[LockId::GLOBAL]));
        assert!(t.try_acquire_all(c(0), &[LockId(0)]));
        assert!(!t.try_acquire_all(c(1), &[LockId::GLOBAL]));
    }
}
