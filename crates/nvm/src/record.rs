//! Transaction-log record types.
//!
//! The DHTM hardware writes records to the per-thread transaction log in
//! persistent memory (Section III-A/III-B). Five kinds of record exist:
//!
//! * **Redo** — `(address, new value)` for a cache line modified by the
//!   transaction; written when the line is evicted from the log buffer or at
//!   transaction end.
//! * **Undo** — `(address, old value)`; used by the ATOM and LogTM-ATOM
//!   baselines, which log before-images instead of after-images.
//! * **Commit** — marks the transaction as committed; once this record is
//!   durable the transaction's updates survive a crash.
//! * **Complete** — marks that all in-place data has been written back; not a
//!   correctness requirement, but it lets the recovery manager skip replay
//!   (Section III-B, Recovery).
//! * **Abort** — logically discards the transaction's log entries.
//! * **Sentinel** — records that this transaction depends on another
//!   committed-but-incomplete transaction's updates, so the recovery manager
//!   replays them in the correct order.

use dhtm_types::addr::{LineAddr, LineData, LINE_SIZE};
use dhtm_types::ids::TxId;

/// The payload-bearing kind of a log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// Redo record: after-image of a modified cache line.
    Redo {
        /// The modified line.
        line: LineAddr,
        /// The new (after) value of the whole line.
        data: LineData,
    },
    /// Undo record: before-image of a modified cache line.
    Undo {
        /// The modified line.
        line: LineAddr,
        /// The old (before) value of the whole line.
        data: LineData,
    },
    /// Word-granular redo record (used by the naive design of Figure 2b and
    /// by software logging, which logs at the granularity of the store).
    RedoWord {
        /// The modified line.
        line: LineAddr,
        /// Index of the modified word within the line.
        word: usize,
        /// The new value of the word.
        value: u64,
    },
    /// Transaction commit marker.
    Commit,
    /// Transaction completion marker (all in-place updates written back).
    Complete,
    /// Transaction abort marker (log entries logically discarded).
    Abort,
    /// Dependency sentinel: this transaction observed data written by
    /// `depends_on`, which had committed but not yet completed.
    Sentinel {
        /// The transaction whose updates must be replayed first.
        depends_on: TxId,
    },
}

/// One record in a per-thread transaction log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// The transaction this record belongs to.
    pub tx: TxId,
    /// The record payload.
    pub kind: RecordKind,
}

/// Size in bytes of the address metadata stored with each data record.
pub const RECORD_ADDR_BYTES: u64 = 8;
/// Size in bytes of a marker record (commit/complete/abort/sentinel).
pub const MARKER_RECORD_BYTES: u64 = 16;

impl LogRecord {
    /// Creates a cache-line-granular redo record.
    #[inline]
    pub fn redo(tx: TxId, line: LineAddr, data: LineData) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Redo { line, data },
        }
    }

    /// Creates a cache-line-granular undo record.
    #[inline]
    pub fn undo(tx: TxId, line: LineAddr, data: LineData) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Undo { line, data },
        }
    }

    /// Creates a word-granular redo record.
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8`.
    #[inline]
    pub fn redo_word(tx: TxId, line: LineAddr, word: usize, value: u64) -> Self {
        assert!(word < 8, "word index out of range");
        LogRecord {
            tx,
            kind: RecordKind::RedoWord { line, word, value },
        }
    }

    /// Creates a commit marker.
    pub fn commit(tx: TxId) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Commit,
        }
    }

    /// Creates a completion marker.
    pub fn complete(tx: TxId) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Complete,
        }
    }

    /// Creates an abort marker.
    pub fn abort(tx: TxId) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Abort,
        }
    }

    /// Creates a dependency sentinel.
    pub fn sentinel(tx: TxId, depends_on: TxId) -> Self {
        LogRecord {
            tx,
            kind: RecordKind::Sentinel { depends_on },
        }
    }

    /// Number of bytes this record occupies on the memory bus.
    ///
    /// Cache-line-granular records carry the 64-byte payload plus 8 bytes of
    /// address metadata; word-granular records carry 8 bytes of data plus
    /// 8 bytes of metadata (this is why word-granular logging consumes more
    /// bandwidth per useful byte, Section III-A); markers are 16 bytes.
    #[inline]
    pub fn size_bytes(&self) -> u64 {
        match self.kind {
            RecordKind::Redo { .. } | RecordKind::Undo { .. } => {
                LINE_SIZE as u64 + RECORD_ADDR_BYTES
            }
            RecordKind::RedoWord { .. } => 8 + RECORD_ADDR_BYTES,
            RecordKind::Commit
            | RecordKind::Complete
            | RecordKind::Abort
            | RecordKind::Sentinel { .. } => MARKER_RECORD_BYTES,
        }
    }

    /// Whether this record carries data (a redo/undo image) as opposed to
    /// being a marker.
    pub fn is_data(&self) -> bool {
        matches!(
            self.kind,
            RecordKind::Redo { .. } | RecordKind::Undo { .. } | RecordKind::RedoWord { .. }
        )
    }

    /// The line this record refers to, if it is a data record.
    pub fn line(&self) -> Option<LineAddr> {
        match self.kind {
            RecordKind::Redo { line, .. }
            | RecordKind::Undo { line, .. }
            | RecordKind::RedoWord { line, .. } => Some(line),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_sizes_reflect_granularity() {
        let tx = TxId::new(1);
        let line = LineAddr::new(4);
        assert_eq!(LogRecord::redo(tx, line, [0; 8]).size_bytes(), 72);
        assert_eq!(LogRecord::undo(tx, line, [0; 8]).size_bytes(), 72);
        assert_eq!(LogRecord::redo_word(tx, line, 3, 9).size_bytes(), 16);
        assert_eq!(LogRecord::commit(tx).size_bytes(), 16);
        assert_eq!(LogRecord::sentinel(tx, TxId::new(2)).size_bytes(), 16);
    }

    #[test]
    fn word_granular_logging_costs_more_per_line_than_line_granular() {
        // Figure 2: five word stores over two lines produce five word records
        // (5 × 16 = 80 bytes) versus two line records (2 × 72 = 144 bytes)...
        // but for a line whose words are all written, word-granular logging
        // costs 8 × 16 = 128 bytes versus 72 bytes for one line record.
        let tx = TxId::new(1);
        let line = LineAddr::new(0);
        let word_cost: u64 = (0..8)
            .map(|w| LogRecord::redo_word(tx, line, w, 1).size_bytes())
            .sum();
        let line_cost = LogRecord::redo(tx, line, [1; 8]).size_bytes();
        assert!(word_cost > line_cost);
    }

    #[test]
    fn data_classification() {
        let tx = TxId::new(3);
        let line = LineAddr::new(9);
        assert!(LogRecord::redo(tx, line, [0; 8]).is_data());
        assert!(LogRecord::undo(tx, line, [0; 8]).is_data());
        assert!(LogRecord::redo_word(tx, line, 0, 0).is_data());
        assert!(!LogRecord::commit(tx).is_data());
        assert!(!LogRecord::complete(tx).is_data());
        assert!(!LogRecord::abort(tx).is_data());
        assert!(!LogRecord::sentinel(tx, TxId::new(1)).is_data());
    }

    #[test]
    fn line_accessor() {
        let tx = TxId::new(3);
        let line = LineAddr::new(9);
        assert_eq!(LogRecord::redo(tx, line, [0; 8]).line(), Some(line));
        assert_eq!(LogRecord::commit(tx).line(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_word_index_panics() {
        LogRecord::redo_word(TxId::new(1), LineAddr::new(0), 8, 0);
    }
}
