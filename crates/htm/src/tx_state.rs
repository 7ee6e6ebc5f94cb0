//! Per-core hardware transaction state.

use dhtm_cache::lineset::LineSet;
use dhtm_cache::signature::ReadSignature;
use dhtm_types::addr::LineAddr;
use dhtm_types::ids::TxId;
use dhtm_types::stats::{AbortReason, TxStats};

/// The transaction status register of Figure 3/Table II.
///
/// `Committed` covers the window between the commit point (commit record
/// durable) and the completion point (all in-place data written back); the
/// core may run non-transactional code in that window but cannot begin a new
/// transaction until completion (`HtmCoreState::next_begin_at`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxStatus {
    /// No transaction in flight.
    #[default]
    Idle,
    /// A transaction is executing speculatively.
    Active,
    /// The transaction has committed but its completion phase (data
    /// write-back / overflow processing) may still be in progress.
    Committed,
}

/// Per-core transactional hardware state shared by all HTM-based engines.
#[derive(Debug, Clone)]
pub struct HtmCoreState {
    /// Current transaction status.
    pub status: TxStatus,
    /// Id of the transaction currently active (or last committed).
    pub tx: TxId,
    /// Read-set overflow signature (lines whose read bit was lost to an L1
    /// eviction).
    pub signature: ReadSignature,
    /// Set when another core's access doomed this transaction; the engine
    /// aborts it the next time this core steps.
    pub doomed: Option<AbortReason>,
    /// Shadow copy of the write-set line addresses. Mirrors the union of the
    /// L1 write bits and (for designs with overflow support) the overflow
    /// list; kept here for conflict checks and statistics. A flat sorted
    /// [`LineSet`]: membership checks run per transactional load/store, so
    /// this must not allocate per insert.
    pub write_set: LineSet,
    /// Shadow copy of the read-set line addresses (statistics only).
    pub read_set: LineSet,
    /// Lines that overflowed from the L1 while in the write set.
    pub overflowed: LineSet,
    /// A load of this attempt set the write bit of a line outside the write
    /// set (see [`HtmCoreState::note_reread_write_bit`]). While it is set, a
    /// set write bit no longer implies write-set membership, so
    /// [`HtmCoreState::record_store`] inserts on every store.
    pub unshadowed_write_bit: bool,
    /// Cycle at which the previous transaction's completion phase ends; a new
    /// transaction cannot begin earlier.
    pub next_begin_at: u64,
    /// Loads executed by the current attempt.
    pub loads: usize,
    /// Stores executed by the current attempt.
    pub stores: usize,
    /// Log records written on behalf of the current attempt.
    pub log_records: usize,
    /// Aborts suffered by the current logical transaction so far.
    pub aborts_this_tx: usize,
    /// Cycle at which the current attempt began.
    pub begin_cycle: u64,
    /// Statistics of the most recently committed transaction.
    pub last_stats: TxStats,
}

impl HtmCoreState {
    /// Creates an idle core state with a signature of `signature_bits` bits.
    pub fn new(signature_bits: usize) -> Self {
        HtmCoreState {
            status: TxStatus::Idle,
            tx: TxId::new(0),
            signature: ReadSignature::new(signature_bits),
            doomed: None,
            write_set: LineSet::new(),
            read_set: LineSet::new(),
            overflowed: LineSet::new(),
            unshadowed_write_bit: false,
            next_begin_at: 0,
            loads: 0,
            stores: 0,
            log_records: 0,
            aborts_this_tx: 0,
            begin_cycle: 0,
            last_stats: TxStats::default(),
        }
    }

    /// Marks the beginning of a new transaction attempt.
    pub fn begin(&mut self, tx: TxId, now: u64) {
        self.status = TxStatus::Active;
        self.tx = tx;
        self.doomed = None;
        self.write_set.clear();
        self.read_set.clear();
        self.overflowed.clear();
        self.unshadowed_write_bit = false;
        self.signature.clear();
        self.loads = 0;
        self.stores = 0;
        self.log_records = 0;
        self.begin_cycle = now;
    }

    /// Whether the line is in the transaction's write set (resident or
    /// overflowed).
    #[inline]
    pub fn in_write_set(&self, line: LineAddr) -> bool {
        self.write_set.contains(line)
    }

    /// Whether the line is in the transaction's read set (resident read bit
    /// or overflow signature — the signature may report false positives).
    #[inline]
    pub fn in_read_set(&self, line: LineAddr) -> bool {
        self.read_set.contains(line) || self.signature.maybe_contains(line)
    }

    /// Records a transactional load. `read_bit_was_set` is the line's L1
    /// read bit before the load set it: a set bit means an earlier load of
    /// this attempt already put the line in the read set, so the insert is
    /// skipped.
    #[inline]
    pub fn record_load(&mut self, line: LineAddr, read_bit_was_set: bool) {
        self.loads += 1;
        if read_bit_was_set {
            debug_assert!(
                self.read_set.contains(line),
                "read bit set outside the read set"
            );
        } else {
            self.read_set.insert(line);
        }
    }

    /// Records a transactional store. `write_bit_was_set` is the line's L1
    /// write bit before the store (the flag [`L1Cache::store_word`]
    /// returns): a set bit means an earlier store of this attempt already
    /// put the line in the write set, so the insert is skipped. The
    /// converse does not hold — a probe can invalidate the line and its
    /// bit while the line stays in the write set — so a clear bit always
    /// inserts.
    ///
    /// [`L1Cache::store_word`]: dhtm_cache::l1::L1Cache::store_word
    #[inline]
    pub fn record_store(&mut self, line: LineAddr, write_bit_was_set: bool) {
        self.stores += 1;
        if write_bit_was_set && !self.unshadowed_write_bit {
            debug_assert!(
                self.write_set.contains(line),
                "write bit set outside the write set"
            );
        } else {
            self.write_set.insert(line);
        }
    }

    /// Notes that a load set `line`'s write bit because the directory still
    /// names this core the line's owner (`reread_own_overflow`). That is
    /// meant for a write-set line that overflowed and comes back, but a
    /// clean read-set line evicted from the L1 keeps its sticky owner too,
    /// and then the bit sits on a line outside the write set.
    pub fn note_reread_write_bit(&mut self, line: LineAddr) {
        if !self.write_set.contains(line) {
            self.unshadowed_write_bit = true;
        }
    }

    /// Snapshot statistics for the attempt that is about to commit.
    pub fn snapshot_stats(&mut self, commit_cycle: u64) {
        self.last_stats = TxStats {
            read_set_lines: self.read_set.len(),
            write_set_lines: self.write_set.len(),
            stores: self.stores,
            loads: self.loads,
            log_records: self.log_records,
            cycles: commit_cycle.saturating_sub(self.begin_cycle),
            aborts_before_commit: self.aborts_this_tx,
        };
    }

    /// Resets per-attempt state after an abort, keeping the abort count for
    /// the logical transaction.
    pub fn reset_after_abort(&mut self) {
        self.status = TxStatus::Idle;
        self.doomed = None;
        self.write_set.clear();
        self.read_set.clear();
        self.overflowed.clear();
        self.unshadowed_write_bit = false;
        self.signature.clear();
        self.loads = 0;
        self.stores = 0;
        self.log_records = 0;
        self.aborts_this_tx += 1;
    }

    /// Resets per-transaction state after a successful commit.
    pub fn reset_after_commit(&mut self, completion_time: u64) {
        self.status = TxStatus::Committed;
        self.next_begin_at = self.next_begin_at.max(completion_time);
        self.aborts_this_tx = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_clears_previous_state() {
        let mut s = HtmCoreState::new(256);
        s.record_load(LineAddr::new(1), false);
        s.record_store(LineAddr::new(2), false);
        s.signature.insert(LineAddr::new(3));
        s.doomed = Some(AbortReason::Conflict);
        s.begin(TxId::new(7), 100);
        assert_eq!(s.status, TxStatus::Active);
        assert_eq!(s.tx, TxId::new(7));
        assert!(s.doomed.is_none());
        assert!(s.write_set.is_empty());
        assert!(s.read_set.is_empty());
        assert!(s.signature.is_empty());
        assert_eq!(s.begin_cycle, 100);
    }

    #[test]
    fn read_set_includes_signature_hits() {
        let mut s = HtmCoreState::new(256);
        s.begin(TxId::new(1), 0);
        s.record_load(LineAddr::new(10), false);
        assert!(s.in_read_set(LineAddr::new(10)));
        // A line evicted from the L1 is tracked only via the signature.
        s.signature.insert(LineAddr::new(99));
        assert!(s.in_read_set(LineAddr::new(99)));
        assert!(!s.in_read_set(LineAddr::new(1234)));
    }

    #[test]
    fn stats_snapshot_captures_attempt() {
        let mut s = HtmCoreState::new(256);
        s.begin(TxId::new(1), 50);
        s.record_load(LineAddr::new(1), false);
        s.record_store(LineAddr::new(2), false);
        s.record_store(LineAddr::new(2), true);
        s.log_records = 3;
        s.snapshot_stats(250);
        assert_eq!(s.last_stats.loads, 1);
        assert_eq!(s.last_stats.stores, 2);
        assert_eq!(s.last_stats.write_set_lines, 1);
        assert_eq!(s.last_stats.log_records, 3);
        assert_eq!(s.last_stats.cycles, 200);
    }

    #[test]
    fn repeat_stores_and_loads_skip_the_shadow_insert() {
        let mut s = HtmCoreState::new(256);
        s.begin(TxId::new(1), 0);
        s.record_store(LineAddr::new(2), false);
        s.record_store(LineAddr::new(2), true);
        s.record_load(LineAddr::new(3), false);
        s.record_load(LineAddr::new(3), true);
        assert_eq!((s.stores, s.loads), (2, 2));
        assert_eq!(s.write_set.iter().collect::<Vec<_>>(), [LineAddr::new(2)]);
        assert_eq!(s.read_set.iter().collect::<Vec<_>>(), [LineAddr::new(3)]);
    }

    #[test]
    fn a_reread_write_bit_outside_the_write_set_forces_inserts() {
        let mut s = HtmCoreState::new(256);
        s.begin(TxId::new(1), 0);
        s.record_store(LineAddr::new(2), false);
        // An overflowed write-set line coming back keeps the fast path.
        s.note_reread_write_bit(LineAddr::new(2));
        assert!(!s.unshadowed_write_bit);
        // A read-set line coming back with a write bit does not: its first
        // store must still insert although the bit is already set.
        s.note_reread_write_bit(LineAddr::new(5));
        assert!(s.unshadowed_write_bit);
        s.record_store(LineAddr::new(5), true);
        assert!(s.in_write_set(LineAddr::new(5)));
        s.reset_after_abort();
        assert!(!s.unshadowed_write_bit);
    }

    #[test]
    fn abort_increments_count_and_clears_sets() {
        let mut s = HtmCoreState::new(256);
        s.begin(TxId::new(1), 0);
        s.record_store(LineAddr::new(2), false);
        s.reset_after_abort();
        assert_eq!(s.status, TxStatus::Idle);
        assert_eq!(s.aborts_this_tx, 1);
        assert!(s.write_set.is_empty());
        // Commit of the retried attempt resets the abort counter.
        s.begin(TxId::new(2), 10);
        s.snapshot_stats(20);
        s.reset_after_commit(500);
        assert_eq!(s.aborts_this_tx, 0);
        assert_eq!(s.next_begin_at, 500);
        assert_eq!(s.status, TxStatus::Committed);
    }

    #[test]
    fn next_begin_never_moves_backwards() {
        let mut s = HtmCoreState::new(256);
        s.reset_after_commit(1000);
        s.reset_after_commit(400);
        assert_eq!(s.next_begin_at, 1000);
    }
}
