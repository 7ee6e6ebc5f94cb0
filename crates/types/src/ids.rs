//! Identifier newtypes for cores, hardware threads and transactions.

use std::fmt;

/// Identifier of a core in the simulated multicore (0..`num_cores`).
///
/// The paper evaluates an 8-core machine with one thread per core, so the
/// core id doubles as the thread id in most of the workspace; the distinct
/// [`ThreadId`] type exists for the OS-level log bookkeeping (the per-thread
/// transaction log space is allocated by the OS when the thread is spawned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id.
    pub const fn new(id: usize) -> Self {
        CoreId(id)
    }

    /// Returns the numeric id.
    pub const fn get(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl From<usize> for CoreId {
    fn from(id: usize) -> Self {
        CoreId(id)
    }
}

/// Identifier of a software thread (owner of a per-thread transaction log).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id.
    pub const fn new(id: usize) -> Self {
        ThreadId(id)
    }

    /// Returns the numeric id.
    pub const fn get(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

impl From<CoreId> for ThreadId {
    fn from(c: CoreId) -> Self {
        ThreadId(c.get())
    }
}

/// Globally unique transaction identifier.
///
/// Transaction ids are monotonically increasing per run; they identify log
/// records in the persistent transaction log and are used by the recovery
/// manager and by the sentinel dependency entries of Section III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(u64);

impl TxId {
    /// Creates a transaction id.
    pub const fn new(id: u64) -> Self {
        TxId(id)
    }

    /// Returns the numeric id.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx{}", self.0)
    }
}

/// Monotonic allocator of [`TxId`]s.
#[derive(Debug, Default, Clone)]
pub struct TxIdAllocator {
    next: u64,
}

impl TxIdAllocator {
    /// Creates an allocator starting at id 1 (0 is reserved as "no tx").
    pub fn new() -> Self {
        TxIdAllocator { next: 1 }
    }

    /// Returns a fresh transaction id.
    #[inline]
    pub fn allocate(&mut self) -> TxId {
        let id = TxId::new(self.next);
        self.next += 1;
        id
    }

    /// Number of ids handed out so far.
    pub fn allocated(&self) -> u64 {
        self.next.saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_and_thread_ids_roundtrip() {
        let c = CoreId::new(3);
        assert_eq!(c.get(), 3);
        let t: ThreadId = c.into();
        assert_eq!(t.get(), 3);
        assert_eq!(format!("{c}"), "core3");
        assert_eq!(format!("{t}"), "thread3");
    }

    #[test]
    fn txid_allocator_is_monotonic_and_starts_at_one() {
        let mut alloc = TxIdAllocator::new();
        let a = alloc.allocate();
        let b = alloc.allocate();
        let c = alloc.allocate();
        assert_eq!(a, TxId::new(1));
        assert!(b > a && c > b);
        assert_eq!(alloc.allocated(), 3);
    }

    #[test]
    fn default_allocator_allocates_from_zero_base() {
        // Default is all-zero; ensure it still hands out increasing ids.
        let mut alloc = TxIdAllocator::default();
        let a = alloc.allocate();
        let b = alloc.allocate();
        assert!(b > a);
    }

    #[test]
    fn ids_are_ordered() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert!(TxId::new(10) > TxId::new(9));
    }
}
