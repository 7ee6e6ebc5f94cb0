//! The persistence domain: everything that survives a crash.

use dhtm_types::addr::{Address, LineAddr, LineData};
use dhtm_types::error::Result;
use dhtm_types::ids::{ThreadId, TxId};

use crate::log::TransactionLog;
use crate::memory::PersistentMemory;
use crate::overflow::OverflowList;
use crate::record::LogRecord;

/// One counted mutation of the [`PersistentDomain`], as recorded by its
/// journal (see [`PersistentDomain::start_journal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurableMutation {
    /// [`PersistentDomain::append_log`].
    AppendLog(ThreadId, LogRecord),
    /// [`PersistentDomain::reclaim_log`] that reclaimed records.
    ReclaimLog(ThreadId),
    /// [`PersistentDomain::purge_log_tx`] that removed records.
    PurgeLogTx(ThreadId, TxId),
    /// [`PersistentDomain::append_overflow`].
    AppendOverflow(ThreadId, TxId, LineAddr),
    /// [`PersistentDomain::clear_overflow_tx`] that removed entries.
    ClearOverflowTx(ThreadId, TxId),
    /// [`PersistentDomain::write_line`].
    WriteLine(LineAddr, LineData),
    /// [`PersistentDomain::write_word`].
    WriteWord(Address, u64),
}

/// The set of persistent structures visible to the recovery manager: the
/// in-place data image, one transaction log per thread and one overflow list
/// per thread.
///
/// The simulator mutates the domain as the hardware would (log appends on log
/// buffer evictions, in-place line writes on write-backs). Because volatile
/// state (caches, registers, log buffer) lives elsewhere, *cloning* the
/// domain is exactly a crash: the clone contains precisely the durable state
/// at that instant, and running the [`crate::recovery::RecoveryManager`] on
/// the clone reproduces the paper's recovery procedure.
///
/// # The durable-mutation clock and its journal
///
/// Every content mutation that reaches the domain through the first-class
/// mutator methods ([`PersistentDomain::append_log`],
/// [`PersistentDomain::write_line`], [`PersistentDomain::reclaim_log`], ...)
/// ticks a monotone *mutation clock*. The clock defines the persist-boundary
/// semantics of the crash-injection subsystem (`dhtm_crash`): a crash point
/// `n` means "power was lost after exactly the first `n` durable mutations
/// became persistent".
///
/// With [`PersistentDomain::start_journal`] the domain also records every
/// counted mutation as a [`DurableMutation`], without disturbing the run:
/// entry `i` moves the clock from `i` to `i + 1`. Replaying the entries
/// below `n` with [`PersistentDomain::apply`] onto a copy of the domain
/// taken before them rebuilds the crash image at point `n` exactly.
///
/// Direct access through [`PersistentDomain::log_mut`] /
/// [`PersistentDomain::memory_mut`] bypasses the clock; it is meant for
/// setup, recovery (which operates on a crashed copy) and tests.
#[derive(Debug, Clone)]
pub struct PersistentDomain {
    memory: PersistentMemory,
    logs: Vec<TransactionLog>,
    overflow_lists: Vec<OverflowList>,
    /// Durable-mutation clock: number of content mutations applied through
    /// the counting mutator methods.
    mutations: u64,
    /// Every counted mutation since [`PersistentDomain::start_journal`],
    /// or `None` when not journaling.
    journal: Option<Vec<DurableMutation>>,
}

/// Durable-state equality: memory, every log and overflow list, and the
/// clock. Whether a journal is being recorded is not durable state.
impl PartialEq for PersistentDomain {
    fn eq(&self, other: &Self) -> bool {
        self.mutations == other.mutations
            && self.memory == other.memory
            && self.logs == other.logs
            && self.overflow_lists == other.overflow_lists
    }
}

impl Eq for PersistentDomain {}

impl PersistentDomain {
    /// Creates a domain with `threads` per-thread logs of `log_capacity`
    /// records each and overflow lists of `overflow_capacity` entries each.
    pub fn new(threads: usize, log_capacity: usize, overflow_capacity: usize) -> Self {
        PersistentDomain {
            memory: PersistentMemory::new(),
            logs: (0..threads)
                .map(|t| TransactionLog::new(ThreadId::new(t), log_capacity))
                .collect(),
            overflow_lists: (0..threads)
                .map(|t| OverflowList::new(ThreadId::new(t), overflow_capacity))
                .collect(),
            mutations: 0,
            journal: None,
        }
    }

    // ------------------------------------------------------------------
    // The durable-mutation clock and its journal.
    // ------------------------------------------------------------------

    /// Number of durable content mutations applied so far through the
    /// counting mutator methods.
    pub fn mutation_count(&self) -> u64 {
        self.mutations
    }

    /// Starts recording every counted mutation, so that journal entry `i`
    /// is the mutation that moves the clock from `i` to `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if the clock has already ticked (earlier mutations would be
    /// missing from the journal).
    pub fn start_journal(&mut self) {
        assert_eq!(self.mutations, 0, "the journal must start at clock 0");
        self.journal = Some(Vec::new());
    }

    /// Stops journaling and returns the recorded mutations (empty if the
    /// journal was never started).
    pub fn take_journal(&mut self) -> Vec<DurableMutation> {
        self.journal.take().unwrap_or_default()
    }

    /// Replays one journaled mutation through its counting mutator, ticking
    /// the clock (and recording it, if this domain journals too).
    ///
    /// # Panics
    ///
    /// Panics if the mutation does not apply — a full log or list, or a
    /// reclaim, purge or clear that finds nothing — which means it is being
    /// replayed onto a state other than the one it was recorded on.
    pub fn apply(&mut self, mutation: &DurableMutation) {
        let applied = match *mutation {
            DurableMutation::AppendLog(thread, record) => self.append_log(thread, record).is_ok(),
            DurableMutation::ReclaimLog(thread) => self.reclaim_log(thread) > 0,
            DurableMutation::PurgeLogTx(thread, tx) => self.purge_log_tx(thread, tx) > 0,
            DurableMutation::AppendOverflow(thread, tx, line) => {
                self.append_overflow(thread, tx, line).is_ok()
            }
            DurableMutation::ClearOverflowTx(thread, tx) => self.clear_overflow_tx(thread, tx) > 0,
            DurableMutation::WriteLine(line, data) => {
                self.write_line(line, data);
                true
            }
            DurableMutation::WriteWord(addr, value) => {
                self.write_word(addr, value);
                true
            }
        };
        assert!(applied, "journal replay diverged at {mutation:?}");
    }

    /// Ticks the clock for one applied mutation, journaling it if enabled.
    #[inline]
    fn tick(&mut self, mutation: DurableMutation) {
        self.mutations += 1;
        if let Some(journal) = &mut self.journal {
            journal.push(mutation);
        }
    }

    // ------------------------------------------------------------------
    // Counting mutators: the paths hardware/engines use to reach NVM.
    // ------------------------------------------------------------------

    /// Appends a record to `thread`'s transaction log, ticking the mutation
    /// clock on success.
    ///
    /// # Errors
    ///
    /// Returns [`dhtm_types::error::DhtmError::LogOverflow`] when the log is
    /// full (nothing becomes durable and the clock does not tick).
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    #[inline]
    pub fn append_log(&mut self, thread: ThreadId, record: LogRecord) -> Result<()> {
        self.logs[thread.get()].append(record)?;
        self.tick(DurableMutation::AppendLog(thread, record));
        Ok(())
    }

    /// Reclaims complete/aborted transactions from `thread`'s log (the
    /// head-pointer advance). Ticks the clock only when records were
    /// actually reclaimed. Returns the number of reclaimed records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn reclaim_log(&mut self, thread: ThreadId) -> usize {
        let reclaimed = self.logs[thread.get()].reclaim();
        if reclaimed > 0 {
            self.tick(DurableMutation::ReclaimLog(thread));
        }
        reclaimed
    }

    /// Removes every record of `tx` from `thread`'s log regardless of
    /// markers (see [`TransactionLog::purge_tx`]). Ticks the clock only when
    /// records were removed. Returns the number of removed records.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn purge_log_tx(&mut self, thread: ThreadId, tx: TxId) -> usize {
        let purged = self.logs[thread.get()].purge_tx(tx);
        if purged > 0 {
            self.tick(DurableMutation::PurgeLogTx(thread, tx));
        }
        purged
    }

    /// Appends `(tx, line)` to `thread`'s overflow list, ticking the clock
    /// on success.
    ///
    /// # Errors
    ///
    /// Returns [`dhtm_types::error::DhtmError::OverflowListFull`] when the
    /// list is full.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn append_overflow(&mut self, thread: ThreadId, tx: TxId, line: LineAddr) -> Result<()> {
        self.overflow_lists[thread.get()].append(tx, line)?;
        self.tick(DurableMutation::AppendOverflow(thread, tx, line));
        Ok(())
    }

    /// Removes every overflow-list entry of `tx` on `thread`, ticking the
    /// clock only when entries were removed. Returns the number removed.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn clear_overflow_tx(&mut self, thread: ThreadId, tx: TxId) -> usize {
        let list = &mut self.overflow_lists[thread.get()];
        let before = list.len();
        list.clear_tx(tx);
        let cleared = before - list.len();
        if cleared > 0 {
            self.tick(DurableMutation::ClearOverflowTx(thread, tx));
        }
        cleared
    }

    /// Number of per-thread logs (== number of threads).
    pub fn threads(&self) -> usize {
        self.logs.len()
    }

    /// Immutable access to the in-place data image.
    pub fn memory(&self) -> &PersistentMemory {
        &self.memory
    }

    /// Mutable access to the in-place data image.
    pub fn memory_mut(&mut self) -> &mut PersistentMemory {
        &mut self.memory
    }

    /// Convenience: reads a full line from the in-place image.
    #[inline]
    pub fn read_line(&self, line: LineAddr) -> LineData {
        self.memory.read_line(line)
    }

    /// Writes a full line to the in-place image (a data write-back reaching
    /// persistent memory), ticking the mutation clock.
    #[inline]
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        self.memory.write_line(line, data);
        self.tick(DurableMutation::WriteLine(line, data));
    }

    /// Convenience: reads one word from the in-place image.
    pub fn read_word(&self, addr: Address) -> u64 {
        self.memory.read_word(addr)
    }

    /// Writes one word to the in-place image, ticking the mutation clock.
    pub fn write_word(&mut self, addr: Address, value: u64) {
        self.memory.write_word(addr, value);
        self.tick(DurableMutation::WriteWord(addr, value));
    }

    /// The transaction log owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn log(&self, thread: ThreadId) -> &TransactionLog {
        &self.logs[thread.get()]
    }

    /// Mutable access to the transaction log owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn log_mut(&mut self, thread: ThreadId) -> &mut TransactionLog {
        &mut self.logs[thread.get()]
    }

    /// The overflow list owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn overflow_list(&self, thread: ThreadId) -> &OverflowList {
        &self.overflow_lists[thread.get()]
    }

    /// Mutable access to the overflow list owned by `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread` is out of range.
    pub fn overflow_list_mut(&mut self, thread: ThreadId) -> &mut OverflowList {
        &mut self.overflow_lists[thread.get()]
    }

    /// Iterates over all per-thread logs.
    pub fn logs(&self) -> impl Iterator<Item = &TransactionLog> {
        self.logs.iter()
    }

    /// Whether `line` appears in any thread's overflow list — i.e. some
    /// in-flight transaction's speculative copy of the line lives in the
    /// LLC. Such lines must never be written in place on an LLC eviction:
    /// redo logging forbids uncommitted data in persistent memory.
    pub fn line_is_speculative_overflow(&self, line: LineAddr) -> bool {
        self.overflow_lists.iter().any(|l| l.contains_line(line))
    }

    /// The thread whose overflow list records `line`, if any.
    #[inline]
    pub fn speculative_overflow_owner(&self, line: LineAddr) -> Option<ThreadId> {
        self.overflow_lists
            .iter()
            .find(|l| l.contains_line(line))
            .map(|l| l.owner())
    }

    /// Takes a crash snapshot: an exact copy of the durable state at this
    /// instant. All volatile state (caches, log buffer contents, transaction
    /// status registers) is implicitly discarded because it simply is not
    /// part of the domain. The journal is not carried over.
    pub fn crash_snapshot(&self) -> PersistentDomain {
        PersistentDomain {
            memory: self.memory.clone(),
            logs: self.logs.clone(),
            overflow_lists: self.overflow_lists.clone(),
            mutations: self.mutations,
            journal: None,
        }
    }

    /// Total log bytes appended across all threads (bandwidth accounting).
    pub fn total_log_bytes(&self) -> u64 {
        self.logs.iter().map(|l| l.appended_bytes()).sum()
    }

    /// Total log records appended across all threads.
    pub fn total_log_records(&self) -> u64 {
        self.logs.iter().map(|l| l.appended_records()).sum()
    }

    /// Registers the domain's durable-structure counters: aggregate log
    /// traffic plus per-thread overflow-list growth (`threadN/overflow/...`).
    pub fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        reg.add("domain/log_bytes", self.total_log_bytes());
        reg.add("domain/log_records", self.total_log_records());
        reg.add("domain/mutations", self.mutations);
        for list in &self.overflow_lists {
            let t = list.owner().get();
            reg.add(&format!("thread{t}/overflow/appended"), list.appended());
            reg.set(
                &format!("thread{t}/overflow/peak_len"),
                list.peak_len() as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::LogRecord;
    use dhtm_types::ids::TxId;

    #[test]
    fn domain_construction() {
        let d = PersistentDomain::new(4, 100, 50);
        assert_eq!(d.threads(), 4);
        for t in 0..4 {
            assert_eq!(d.log(ThreadId::new(t)).capacity(), 100);
            assert_eq!(d.overflow_list(ThreadId::new(t)).capacity(), 50);
        }
    }

    #[test]
    fn snapshot_isolates_later_mutations() {
        let mut d = PersistentDomain::new(1, 16, 16);
        d.write_line(LineAddr::new(1), [1; 8]);
        let snap = d.crash_snapshot();
        d.write_line(LineAddr::new(1), [2; 8]);
        d.log_mut(ThreadId::new(0))
            .append(LogRecord::commit(TxId::new(1)))
            .unwrap();
        assert_eq!(snap.read_line(LineAddr::new(1)), [1; 8]);
        assert!(snap.log(ThreadId::new(0)).is_empty());
        assert_eq!(d.read_line(LineAddr::new(1)), [2; 8]);
    }

    #[test]
    fn total_log_accounting_spans_threads() {
        let mut d = PersistentDomain::new(2, 16, 16);
        d.log_mut(ThreadId::new(0))
            .append(LogRecord::redo(TxId::new(1), LineAddr::new(1), [0; 8]))
            .unwrap();
        d.log_mut(ThreadId::new(1))
            .append(LogRecord::commit(TxId::new(2)))
            .unwrap();
        assert_eq!(d.total_log_records(), 2);
        assert_eq!(d.total_log_bytes(), 72 + 16);
    }

    #[test]
    fn domain_probes_cover_logs_and_overflow_lists() {
        let mut d = PersistentDomain::new(2, 16, 16);
        let t1 = ThreadId::new(1);
        d.append_log(t1, LogRecord::commit(TxId::new(1))).unwrap();
        d.append_overflow(t1, TxId::new(1), LineAddr::new(3))
            .unwrap();
        let mut reg = dhtm_obs::ProbeRegistry::new();
        d.probes_into(&mut reg);
        assert_eq!(reg.counter("domain/log_records"), 1);
        assert_eq!(reg.counter("domain/mutations"), 2);
        assert_eq!(reg.counter("thread0/overflow/appended"), 0);
        assert_eq!(reg.counter("thread1/overflow/appended"), 1);
        assert_eq!(reg.counter("thread1/overflow/peak_len"), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_thread_panics() {
        let d = PersistentDomain::new(1, 16, 16);
        let _ = d.log(ThreadId::new(5));
    }

    #[test]
    fn mutation_clock_counts_content_mutations_only() {
        let mut d = PersistentDomain::new(2, 16, 16);
        let t0 = ThreadId::new(0);
        assert_eq!(d.mutation_count(), 0);
        d.append_log(t0, LogRecord::redo(TxId::new(1), LineAddr::new(1), [1; 8]))
            .unwrap();
        d.write_line(LineAddr::new(9), [2; 8]);
        d.write_word(dhtm_types::addr::Address::new(0x80), 7);
        assert_eq!(d.mutation_count(), 3);
        // Reads do not tick the clock.
        let _ = d.read_line(LineAddr::new(9));
        assert_eq!(d.mutation_count(), 3);
        // Reclaiming when nothing is reclaimable does not tick the clock.
        assert_eq!(d.reclaim_log(t0), 0);
        assert_eq!(d.mutation_count(), 3);
        // Direct log_mut access bypasses the clock (setup/test path).
        d.log_mut(t0)
            .append(LogRecord::commit(TxId::new(1)))
            .unwrap();
        assert_eq!(d.mutation_count(), 3);
    }

    #[test]
    fn overflow_log_failure_does_not_tick_the_clock() {
        let mut d = PersistentDomain::new(1, 1, 1);
        let t0 = ThreadId::new(0);
        d.append_log(t0, LogRecord::commit(TxId::new(1))).unwrap();
        assert!(d.append_log(t0, LogRecord::commit(TxId::new(2))).is_err());
        assert_eq!(d.mutation_count(), 1);
        d.append_overflow(t0, TxId::new(1), LineAddr::new(4))
            .unwrap();
        assert!(d
            .append_overflow(t0, TxId::new(2), LineAddr::new(5))
            .is_err());
        assert_eq!(d.mutation_count(), 2);
    }

    /// Replays the first `point` entries of `journal` onto `base`.
    fn replay(
        base: &PersistentDomain,
        journal: &[DurableMutation],
        point: u64,
    ) -> PersistentDomain {
        let mut image = base.crash_snapshot();
        for m in &journal[..point as usize] {
            image.apply(m);
        }
        image
    }

    #[test]
    fn journal_replay_rebuilds_the_state_at_every_clock_value() {
        let t0 = ThreadId::new(0);
        let tx = TxId::new(1);
        let mut d = PersistentDomain::new(1, 16, 16);
        d.memory_mut().write_word(Address::new(0x40), 9); // setup, not counted
        let base = d.crash_snapshot();
        d.start_journal();
        let mut states = vec![d.crash_snapshot()];
        d.append_log(t0, LogRecord::redo(tx, LineAddr::new(1), [1; 8]))
            .unwrap();
        states.push(d.crash_snapshot());
        d.append_overflow(t0, tx, LineAddr::new(2)).unwrap();
        states.push(d.crash_snapshot());
        assert!(d.append_log(t0, LogRecord::commit(tx)).is_ok());
        states.push(d.crash_snapshot());
        d.write_line(LineAddr::new(1), [1; 8]);
        states.push(d.crash_snapshot());
        d.write_word(Address::new(0x48), 5);
        states.push(d.crash_snapshot());
        d.append_log(t0, LogRecord::complete(tx)).unwrap();
        states.push(d.crash_snapshot());
        assert_eq!(d.clear_overflow_tx(t0, tx), 1);
        states.push(d.crash_snapshot());
        assert_eq!(d.reclaim_log(t0), 3);
        states.push(d.crash_snapshot());
        assert_eq!(
            d.reclaim_log(t0),
            0,
            "a no-op is neither counted nor journaled"
        );
        let journal = d.take_journal();
        assert_eq!(journal.len() as u64, d.mutation_count());
        assert_eq!(
            journal[0],
            DurableMutation::AppendLog(t0, LogRecord::redo(tx, LineAddr::new(1), [1; 8]))
        );
        for (point, want) in states.iter().enumerate() {
            let image = replay(&base, &journal, point as u64);
            assert_eq!(image.mutation_count(), point as u64);
            assert_eq!(&image, want, "point {point}");
        }
        assert_eq!(replay(&base, &journal, journal.len() as u64), d);
    }

    #[test]
    fn journal_records_purges_and_is_dropped_by_snapshots() {
        let t0 = ThreadId::new(0);
        let tx = TxId::new(4);
        let mut d = PersistentDomain::new(1, 16, 16);
        let base = d.crash_snapshot();
        d.start_journal();
        d.append_log(t0, LogRecord::redo(tx, LineAddr::new(1), [1; 8]))
            .unwrap();
        assert_eq!(d.purge_log_tx(t0, tx), 1);
        assert_eq!(d.purge_log_tx(t0, tx), 0);
        let mut snap = d.crash_snapshot();
        snap.write_word(Address::new(0), 1);
        assert!(
            snap.take_journal().is_empty(),
            "a crash image never journals"
        );
        let journal = d.take_journal();
        assert_eq!(journal[1], DurableMutation::PurgeLogTx(t0, tx));
        assert_eq!(replay(&base, &journal, 2), d);
        assert!(d.take_journal().is_empty(), "taking the journal stops it");
    }

    #[test]
    #[should_panic(expected = "journal replay diverged")]
    fn replay_onto_the_wrong_state_panics() {
        let mut d = PersistentDomain::new(1, 16, 16);
        d.apply(&DurableMutation::ReclaimLog(ThreadId::new(0)));
    }

    #[test]
    #[should_panic(expected = "clock 0")]
    fn the_journal_starts_at_clock_zero() {
        let mut d = PersistentDomain::new(1, 16, 16);
        d.write_word(Address::new(0), 1);
        d.start_journal();
    }
}
