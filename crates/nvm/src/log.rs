//! The per-thread circular transaction log.
//!
//! In DHTM the log space is thread-private, allocated by the OS when the
//! thread is spawned, and organised as a circular buffer similar to
//! Mnemosyne (Section III-A, "Log management"). The hardware keeps a start
//! pointer, a next pointer and a size register (Table II); when the log
//! overflows, the transaction aborts with a log-overflow indication and the
//! OS allocates a larger log before retrying.

use std::collections::VecDeque;

use dhtm_types::error::{DhtmError, Result};
use dhtm_types::ids::{ThreadId, TxId};

use crate::record::{LogRecord, RecordKind};

/// A per-thread circular transaction log held in persistent memory.
///
/// The log stores [`LogRecord`]s for one or more transactions: the currently
/// active transaction plus any committed-but-not-yet-completed predecessors.
/// Records of completed or aborted transactions are reclaimed by
/// [`TransactionLog::reclaim`], mimicking the head-pointer advance of a
/// circular buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransactionLog {
    owner: ThreadId,
    capacity_records: usize,
    records: VecDeque<LogRecord>,
    appended_records: u64,
    appended_bytes: u64,
}

impl TransactionLog {
    /// Creates an empty log owned by `owner` with space for
    /// `capacity_records` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_records` is zero.
    pub fn new(owner: ThreadId, capacity_records: usize) -> Self {
        assert!(capacity_records > 0, "log capacity must be positive");
        TransactionLog {
            owner,
            capacity_records,
            records: VecDeque::new(),
            appended_records: 0,
            appended_bytes: 0,
        }
    }

    /// The thread that owns this log.
    pub fn owner(&self) -> ThreadId {
        self.owner
    }

    /// Maximum number of records the log can hold.
    pub fn capacity(&self) -> usize {
        self.capacity_records
    }

    /// Number of records currently occupying log space.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the log currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends a record to the log.
    ///
    /// # Errors
    ///
    /// Returns [`DhtmError::LogOverflow`] if the log is full; the caller
    /// (the DHTM engine) reacts by aborting the transaction, as the paper
    /// prescribes.
    #[inline]
    pub fn append(&mut self, record: LogRecord) -> Result<()> {
        if self.records.len() >= self.capacity_records {
            return Err(DhtmError::LogOverflow {
                tx: record.tx,
                capacity: self.capacity_records,
            });
        }
        self.appended_records += 1;
        self.appended_bytes += record.size_bytes();
        self.records.push_back(record);
        Ok(())
    }

    /// Iterates over the records currently in the log, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &LogRecord> {
        self.records.iter()
    }

    /// Returns all records belonging to transaction `tx`, oldest first.
    pub fn records_for(&self, tx: TxId) -> Vec<LogRecord> {
        self.records
            .iter()
            .filter(|r| r.tx == tx)
            .copied()
            .collect()
    }

    /// Returns the set of transaction ids that appear in the log.
    pub fn transactions(&self) -> Vec<TxId> {
        let mut txs: Vec<TxId> = self.records.iter().map(|r| r.tx).collect();
        txs.sort_unstable();
        txs.dedup();
        txs
    }

    /// Whether transaction `tx` has a commit marker in the log.
    pub fn is_committed(&self, tx: TxId) -> bool {
        self.has_marker(tx, |k| matches!(k, RecordKind::Commit))
    }

    /// Whether transaction `tx` has a completion marker in the log.
    pub fn is_complete(&self, tx: TxId) -> bool {
        self.has_marker(tx, |k| matches!(k, RecordKind::Complete))
    }

    /// Whether transaction `tx` has an abort marker in the log.
    pub fn is_aborted(&self, tx: TxId) -> bool {
        self.has_marker(tx, |k| matches!(k, RecordKind::Abort))
    }

    fn has_marker(&self, tx: TxId, pred: impl Fn(&RecordKind) -> bool) -> bool {
        self.records.iter().any(|r| r.tx == tx && pred(&r.kind))
    }

    /// Reclaims log space for transactions that no longer need their records:
    /// completed transactions (data is in place) and aborted transactions
    /// (state will never be replayed). This models the head-pointer advance
    /// of the circular log.
    ///
    /// Returns the number of reclaimed records.
    pub fn reclaim(&mut self) -> usize {
        let done: Vec<TxId> = self
            .transactions()
            .into_iter()
            .filter(|&tx| self.is_complete(tx) || self.is_aborted(tx))
            .collect();
        let before = self.records.len();
        self.records.retain(|r| !done.contains(&r.tx));
        before - self.records.len()
    }

    /// Removes every record from the log (used after recovery has replayed
    /// the log, and by tests).
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Removes every record belonging to `tx`, regardless of its markers.
    ///
    /// Used when a transaction aborts because the log itself is full: the
    /// abort marker cannot be appended, but since the transaction never
    /// wrote a commit record the recovery manager would ignore it anyway, so
    /// its space can be reclaimed immediately.
    pub fn purge_tx(&mut self, tx: TxId) -> usize {
        let before = self.records.len();
        self.records.retain(|r| r.tx != tx);
        before - self.records.len()
    }

    /// Mutable iteration over the records currently in the log, oldest
    /// first. This is the fault-injection surface of the crash-validation
    /// subsystem: it models bit-rot / torn writes inside the durable log, so
    /// the recovery oracles can be tested against deliberately corrupted
    /// state. Mutations through this iterator do not affect the lifetime
    /// byte/record counters.
    pub fn records_mut(&mut self) -> impl Iterator<Item = &mut LogRecord> {
        self.records.iter_mut()
    }

    /// Retains only the records for which `pred` returns `true` (oldest
    /// first), returning the number of dropped records. Fault-injection
    /// surface: models the loss of individual durable records (e.g. a commit
    /// marker that never reached NVM).
    pub fn retain_records<F: FnMut(&LogRecord) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.records.len();
        self.records.retain(|r| pred(r));
        before - self.records.len()
    }

    /// Total records appended over the lifetime of the log (not reduced by
    /// reclamation) — the basis for log-write statistics.
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Total bytes appended over the lifetime of the log.
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Remaining capacity in records.
    pub fn remaining(&self) -> usize {
        self.capacity_records - self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::addr::LineAddr;

    fn log() -> TransactionLog {
        TransactionLog::new(ThreadId::new(0), 16)
    }

    #[test]
    fn append_and_query_markers() {
        let mut l = log();
        let tx = TxId::new(1);
        l.append(LogRecord::redo(tx, LineAddr::new(1), [1; 8]))
            .unwrap();
        assert!(!l.is_committed(tx));
        l.append(LogRecord::commit(tx)).unwrap();
        assert!(l.is_committed(tx));
        assert!(!l.is_complete(tx));
        assert!(!l.is_aborted(tx));
        l.append(LogRecord::complete(tx)).unwrap();
        assert!(l.is_complete(tx));
    }

    #[test]
    fn overflow_returns_error_with_capacity() {
        let mut l = TransactionLog::new(ThreadId::new(2), 2);
        let tx = TxId::new(9);
        l.append(LogRecord::redo(tx, LineAddr::new(1), [0; 8]))
            .unwrap();
        l.append(LogRecord::redo(tx, LineAddr::new(2), [0; 8]))
            .unwrap();
        let err = l.append(LogRecord::commit(tx)).unwrap_err();
        assert_eq!(err, DhtmError::LogOverflow { tx, capacity: 2 });
    }

    #[test]
    fn reclaim_removes_complete_and_aborted_only() {
        let mut l = log();
        let done = TxId::new(1);
        let aborted = TxId::new(2);
        let pending = TxId::new(3);
        l.append(LogRecord::redo(done, LineAddr::new(1), [0; 8]))
            .unwrap();
        l.append(LogRecord::commit(done)).unwrap();
        l.append(LogRecord::complete(done)).unwrap();
        l.append(LogRecord::redo(aborted, LineAddr::new(2), [0; 8]))
            .unwrap();
        l.append(LogRecord::abort(aborted)).unwrap();
        l.append(LogRecord::redo(pending, LineAddr::new(3), [0; 8]))
            .unwrap();
        l.append(LogRecord::commit(pending)).unwrap();

        let reclaimed = l.reclaim();
        assert_eq!(reclaimed, 5);
        assert_eq!(l.transactions(), vec![pending]);
        // Committed-but-incomplete records must be preserved for recovery.
        assert!(l.is_committed(pending));
    }

    #[test]
    fn records_for_filters_by_transaction() {
        let mut l = log();
        let a = TxId::new(1);
        let b = TxId::new(2);
        l.append(LogRecord::redo(a, LineAddr::new(1), [1; 8]))
            .unwrap();
        l.append(LogRecord::redo(b, LineAddr::new(2), [2; 8]))
            .unwrap();
        l.append(LogRecord::redo(a, LineAddr::new(3), [3; 8]))
            .unwrap();
        assert_eq!(l.records_for(a).len(), 2);
        assert_eq!(l.records_for(b).len(), 1);
        assert_eq!(l.transactions(), vec![a, b]);
    }

    #[test]
    fn byte_accounting_accumulates() {
        let mut l = log();
        let tx = TxId::new(1);
        l.append(LogRecord::redo(tx, LineAddr::new(1), [0; 8]))
            .unwrap();
        l.append(LogRecord::commit(tx)).unwrap();
        assert_eq!(l.appended_records(), 2);
        assert_eq!(l.appended_bytes(), 72 + 16);
        l.clear();
        // Lifetime counters survive clearing.
        assert_eq!(l.appended_records(), 2);
        assert!(l.is_empty());
    }

    #[test]
    fn remaining_tracks_capacity() {
        let mut l = TransactionLog::new(ThreadId::new(0), 4);
        assert_eq!(l.remaining(), 4);
        l.append(LogRecord::commit(TxId::new(1))).unwrap();
        assert_eq!(l.remaining(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        TransactionLog::new(ThreadId::new(0), 0);
    }
}
