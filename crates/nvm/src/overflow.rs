//! The per-thread write-set overflow list.
//!
//! When a dirty cache line belonging to the write set of a DHTM transaction
//! is evicted from the L1 to the LLC, the address of that line is appended to
//! an overflow list kept in persistent memory alongside the redo log
//! (Section III-C). At commit the list identifies the overflowed lines that
//! must be written back in place; at abort it identifies the LLC lines that
//! must be invalidated. Like the log, the list has start/next/size registers
//! (Table II) and a bounded capacity.

use dhtm_types::addr::LineAddr;
use dhtm_types::error::{DhtmError, Result};
use dhtm_types::ids::{ThreadId, TxId};

/// The per-thread overflow list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OverflowList {
    owner: ThreadId,
    capacity: usize,
    entries: Vec<(TxId, LineAddr)>,
    appended: u64,
    peak_len: usize,
}

impl OverflowList {
    /// Creates an empty overflow list with room for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: ThreadId, capacity: usize) -> Self {
        assert!(capacity > 0, "overflow list capacity must be positive");
        OverflowList {
            owner,
            capacity,
            entries: Vec::new(),
            appended: 0,
            peak_len: 0,
        }
    }

    /// The owning thread.
    pub fn owner(&self) -> ThreadId {
        self.owner
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends the address of an overflowed dirty line.
    ///
    /// Appending the same line twice for the same transaction is idempotent —
    /// the hardware only needs one write-back/invalidate per line, and the
    /// L1 can only overflow a given line again after re-fetching it.
    ///
    /// # Errors
    ///
    /// Returns [`DhtmError::OverflowListFull`] when the list is full, which
    /// the engine treats like a log overflow (abort + retry with a larger
    /// allocation).
    pub fn append(&mut self, tx: TxId, line: LineAddr) -> Result<()> {
        if self.entries.iter().any(|&(t, l)| t == tx && l == line) {
            return Ok(());
        }
        if self.entries.len() >= self.capacity {
            return Err(DhtmError::OverflowListFull {
                tx,
                capacity: self.capacity,
            });
        }
        self.appended += 1;
        self.entries.push((tx, line));
        self.peak_len = self.peak_len.max(self.entries.len());
        Ok(())
    }

    /// Returns the overflowed lines recorded for transaction `tx`, in the
    /// order they overflowed.
    pub fn lines_for(&self, tx: TxId) -> Vec<LineAddr> {
        self.lines_for_iter(tx).collect()
    }

    /// Iterates the overflowed lines recorded for transaction `tx` in the
    /// order they overflowed, without allocating.
    pub fn lines_for_iter(&self, tx: TxId) -> impl Iterator<Item = LineAddr> + '_ {
        self.entries
            .iter()
            .filter(move |&&(t, _)| t == tx)
            .map(|&(_, l)| l)
    }

    /// Whether `line` is recorded as overflowed for transaction `tx`.
    #[inline]
    pub fn contains(&self, tx: TxId, line: LineAddr) -> bool {
        self.entries.iter().any(|&(t, l)| t == tx && l == line)
    }

    /// Whether `line` is recorded as overflowed for *any* transaction — i.e.
    /// the LLC copy of the line holds speculative (uncommitted) data. Used
    /// by the memory system to keep speculative lines from being written in
    /// place when the LLC evicts them.
    pub fn contains_line(&self, line: LineAddr) -> bool {
        self.entries.iter().any(|&(_, l)| l == line)
    }

    /// Clears the entries belonging to transaction `tx` (done at the end of
    /// commit-complete or abort-complete).
    pub fn clear_tx(&mut self, tx: TxId) {
        self.entries.retain(|&(t, _)| t != tx);
    }

    /// Clears the whole list.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Lifetime count of appended entries (for bandwidth statistics).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Highest simultaneous entry count observed — how far the list actually
    /// grew towards its capacity over the run.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> OverflowList {
        OverflowList::new(ThreadId::new(0), 4)
    }

    #[test]
    fn append_and_query() {
        let mut l = list();
        let tx = TxId::new(1);
        l.append(tx, LineAddr::new(10)).unwrap();
        l.append(tx, LineAddr::new(11)).unwrap();
        assert_eq!(l.lines_for(tx), vec![LineAddr::new(10), LineAddr::new(11)]);
        assert!(l.contains(tx, LineAddr::new(10)));
        assert!(!l.contains(tx, LineAddr::new(12)));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn duplicate_append_is_idempotent() {
        let mut l = list();
        let tx = TxId::new(1);
        l.append(tx, LineAddr::new(10)).unwrap();
        l.append(tx, LineAddr::new(10)).unwrap();
        assert_eq!(l.len(), 1);
        assert_eq!(l.appended(), 1);
    }

    #[test]
    fn capacity_limit_enforced() {
        let mut l = OverflowList::new(ThreadId::new(1), 2);
        let tx = TxId::new(5);
        l.append(tx, LineAddr::new(1)).unwrap();
        l.append(tx, LineAddr::new(2)).unwrap();
        let err = l.append(tx, LineAddr::new(3)).unwrap_err();
        assert_eq!(err, DhtmError::OverflowListFull { tx, capacity: 2 });
    }

    #[test]
    fn clear_tx_only_touches_that_transaction() {
        let mut l = list();
        let a = TxId::new(1);
        let b = TxId::new(2);
        l.append(a, LineAddr::new(1)).unwrap();
        l.append(b, LineAddr::new(2)).unwrap();
        l.clear_tx(a);
        assert!(l.lines_for(a).is_empty());
        assert_eq!(l.lines_for(b), vec![LineAddr::new(2)]);
    }

    #[test]
    fn peak_len_survives_clearing() {
        let mut l = list();
        let tx = TxId::new(1);
        l.append(tx, LineAddr::new(1)).unwrap();
        l.append(tx, LineAddr::new(2)).unwrap();
        l.append(tx, LineAddr::new(3)).unwrap();
        l.clear_tx(tx);
        assert!(l.is_empty());
        assert_eq!(l.peak_len(), 3);
    }

    #[test]
    fn entries_for_different_transactions_are_separate() {
        let mut l = list();
        let a = TxId::new(1);
        let b = TxId::new(2);
        l.append(a, LineAddr::new(7)).unwrap();
        // Same line for a different transaction is a distinct entry.
        l.append(b, LineAddr::new(7)).unwrap();
        assert_eq!(l.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        OverflowList::new(ThreadId::new(0), 0);
    }
}
