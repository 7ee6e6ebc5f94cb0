//! The ATOM baseline (HPCA 2017): locks for atomic visibility, hardware
//! *undo* logging for atomic durability.
//!
//! ATOM removes the software-logging overhead of SO by writing undo records
//! (before-images) in hardware, off the critical path. Its remaining cost —
//! the one DHTM's redo logging eliminates — is that an undo-logged
//! transaction cannot commit until its write set has been flushed in place to
//! persistent memory, so the data-flush latency sits on the commit critical
//! path (Section VI-A of the paper).

use dhtm_cache::l1::StoreKind;
use dhtm_cache::lineset::LineSet;
use dhtm_coherence::probe::NoConflicts;
use dhtm_nvm::record::LogRecord;
use dhtm_types::addr::{Address, LineAddr};
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::{CoreId, ThreadId, TxId};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::{LockId, LOCK_SPIN};
use dhtm_sim::machine::Machine;

#[derive(Debug, Clone, Default)]
struct AtomCore {
    tx: TxId,
    undo_logged: LineSet,
    written_lines: LineSet,
    read_lines: LineSet,
    loads: usize,
    stores: usize,
    log_records: usize,
    undo_persist_horizon: u64,
    begin_cycle: u64,
    next_begin_at: u64,
    last_stats: TxStats,
}

/// The ATOM (locks + hardware undo logging) engine.
#[derive(Debug)]
pub struct AtomEngine {
    cores: Vec<AtomCore>,
    lock_acquire: u64,
    lock_release: u64,
    /// Reusable buffer for the abort path's undo walk: `(line,
    /// before-image)` pairs staged oldest-first, applied newest-first.
    undo_scratch: Vec<(LineAddr, [u64; 8])>,
}

impl AtomEngine {
    /// Creates an ATOM engine for machines built from `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        AtomEngine {
            cores: Vec::new(),
            lock_acquire: cfg.software.lock_acquire,
            lock_release: cfg.software.lock_release,
            undo_scratch: Vec::new(),
        }
    }

    fn plain_access(
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        write: bool,
        now: u64,
    ) -> u64 {
        let line = addr.line();
        let out = if write {
            machine.mem.store(core, line, now, &mut NoConflicts)
        } else {
            machine.mem.load(core, line, now, &mut NoConflicts)
        };
        if let Some((vline, ventry)) = out.evicted_victim {
            machine
                .mem
                .evict_nontransactional(core, vline, &ventry, now);
        }
        out.done
    }

    /// Aborts the transaction on `core`: the undo-logging hardware walks the
    /// log newest-first restoring before-images in place (eager versioning
    /// may have let dirty lines escape to the LLC or memory), the attempt's
    /// speculative cache state is discarded, and the log space is reclaimed
    /// under an abort marker. Without the rollback, a crash after the abort
    /// would leave the attempt's eagerly-written data unprotected in place.
    fn do_abort(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        now: u64,
        reason: AbortReason,
    ) -> StepOutcome {
        let thread = ThreadId::from(core);
        let tx = self.cores[core.get()].tx;
        let mut at = now;
        // Stage the undo walk through the reusable scratch buffer (the
        // restore mutates the machine the log borrows from), then apply it
        // newest-first; same records, same order.
        self.undo_scratch.clear();
        self.undo_scratch.extend(
            machine
                .mem
                .domain()
                .log(thread)
                .iter()
                .filter(|r| r.tx == tx)
                .filter_map(|r| match r.kind {
                    dhtm_nvm::record::RecordKind::Undo { line, data } => Some((line, data)),
                    _ => None,
                }),
        );
        for &(line, data) in self.undo_scratch.iter().rev() {
            machine.mem.invalidate_l1_line(core, line);
            machine.mem.invalidate_llc_line(line);
            machine.mem.persist_data_line(at, line, data);
            at += machine.mem.latency().llc_hit;
        }
        // Discard whatever speculative state remains in the L1, in
        // ascending line order as the shadow set has always iterated.
        for line in self.cores[core.get()].written_lines.iter() {
            machine.mem.invalidate_l1_line(core, line);
        }
        if machine
            .mem
            .domain_mut()
            .append_log(thread, LogRecord::abort(tx))
            .is_err()
        {
            machine.mem.domain_mut().purge_log_tx(thread, tx);
        }
        machine.mem.domain_mut().reclaim_log(thread);
        machine.locks.release_all(core);
        StepOutcome::Aborted {
            at,
            retry_at: at,
            reason,
        }
    }
}

impl TxEngine for AtomEngine {
    fn design(&self) -> DesignKind {
        DesignKind::Atom
    }

    fn init(&mut self, machine: &mut Machine) {
        self.cores = vec![AtomCore::default(); machine.num_cores()];
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        let start = now.max(self.cores[core.get()].next_begin_at);
        if !machine.locks.try_acquire_all(core, lock_set) {
            return StepOutcome::Blocked {
                retry_at: start + LOCK_SPIN,
                period: LOCK_SPIN,
            };
        }
        let c = &mut self.cores[core.get()];
        c.tx = machine.tx_ids.allocate();
        c.undo_logged.clear();
        c.written_lines.clear();
        c.read_lines.clear();
        c.loads = 0;
        c.stores = 0;
        c.log_records = 0;
        c.undo_persist_horizon = 0;
        c.begin_cycle = start;
        StepOutcome::done(start + self.lock_acquire * lock_set.len().max(1) as u64)
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        let done = Self::plain_access(machine, core, addr, false, now);
        let c = &mut self.cores[core.get()];
        c.loads += 1;
        c.read_lines.insert(addr.line());
        StepOutcome::done(done)
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        let line = addr.line();
        // Capture the before-image *before* the store updates the line.
        let old_data = if self.cores[core.get()].undo_logged.contains(line) {
            None
        } else {
            Some(
                machine
                    .mem
                    .l1(core)
                    .entry(line)
                    .map(|e| e.data)
                    .or_else(|| machine.mem.llc().entry(line).map(|e| e.data))
                    .unwrap_or_else(|| machine.mem.domain().read_line(line)),
            )
        };
        let done = Self::plain_access(machine, core, addr, true, now);
        machine
            .mem
            .store_word_in_l1(core, addr, value, StoreKind::Plain);

        let tx = self.cores[core.get()].tx;
        if let Some(old) = old_data {
            // Hardware writes the undo record off the critical path; only the
            // bandwidth and its durability point are tracked (commit must
            // wait for it).
            let record = LogRecord::undo(tx, line, old);
            let bytes = record.size_bytes();
            let thread = ThreadId::from(core);
            if machine.mem.domain_mut().append_log(thread, record).is_err() {
                machine.mem.domain_mut().reclaim_log(thread);
                // The store already dirtied the line in the L1 but its undo
                // record never became durable and the line is not yet in
                // `written_lines` — discard it explicitly so the unprotected
                // speculative data cannot survive the abort (the pre-image
                // still lives in the LLC or in place).
                machine.mem.invalidate_l1_line(core, line);
                return self.do_abort(machine, core, done, AbortReason::LogOverflow);
            }
            let durable = machine.mem.persist_log_bytes(now, bytes);
            let c = &mut self.cores[core.get()];
            c.undo_logged.insert(line);
            c.log_records += 1;
            c.undo_persist_horizon = c.undo_persist_horizon.max(durable);
        }
        let c = &mut self.cores[core.get()];
        c.stores += 1;
        c.written_lines.insert(line);
        StepOutcome::done(done)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        let thread = ThreadId::from(core);
        let tx = self.cores[core.get()].tx;

        // Undo logging: the write set must be durable in place *before* the
        // transaction can commit and release its locks — this flush is the
        // commit critical path that DHTM avoids. A written line may have
        // been evicted from the L1 mid-transaction (eager versioning lets
        // dirty lines escape); its latest copy then lives in the LLC and
        // must be flushed from there — and a line absent from both caches
        // was already written in place by the eviction chain.
        let mut flush_done = now.max(self.cores[core.get()].undo_persist_horizon);
        // Ascending line order — the order the shadow set has always
        // iterated; it determines the flush schedule.
        for line in self.cores[core.get()].written_lines.iter() {
            if let Some(done) = machine.mem.l1_writeback_line_to_memory(core, line, now) {
                flush_done = flush_done.max(done);
            } else if let Some(done) = machine.mem.llc_writeback_line_to_memory(line, now) {
                flush_done = flush_done.max(done);
            }
        }
        let commit_rec = LogRecord::commit(tx);
        let bytes = commit_rec.size_bytes();
        let _ = machine.mem.domain_mut().append_log(thread, commit_rec);
        let commit_done = machine.mem.persist_log_bytes(flush_done, bytes);
        let _ = machine
            .mem
            .domain_mut()
            .append_log(thread, LogRecord::complete(tx));
        machine.mem.domain_mut().reclaim_log(thread);

        machine.locks.release_all(core);
        let release_done = commit_done + self.lock_release;
        let c = &mut self.cores[core.get()];
        c.next_begin_at = release_done;
        c.last_stats = TxStats {
            read_set_lines: c.read_lines.len(),
            write_set_lines: c.written_lines.len(),
            stores: c.stores,
            loads: c.loads,
            log_records: c.log_records,
            cycles: release_done.saturating_sub(c.begin_cycle),
            aborts_before_commit: 0,
        };
        StepOutcome::done(release_done)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.cores[core.get()].last_stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_nvm::recovery::RecoveryManager;

    fn setup() -> (Machine, AtomEngine) {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = AtomEngine::new(&cfg);
        e.init(&mut m);
        (m, e)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn committed_atom_transaction_is_durable_in_place() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        e.write(&mut m, c(0), addr, 21, 10);
        let out = e.commit(&mut m, c(0), 1000);
        assert!(out.is_done());
        assert_eq!(m.mem.domain().read_word(addr), 21);
    }

    #[test]
    fn crash_mid_transaction_rolls_back_via_undo_log() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        m.mem.domain_mut().write_word(addr, 7);
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        e.write(&mut m, c(0), addr, 99, 10);
        // Simulate the eager case where the dirty line reached memory before
        // the crash (e.g. an eviction): write it in place, then crash.
        let line = addr.line();
        let data = m.mem.l1(c(0)).entry(line).unwrap().data;
        m.mem.domain_mut().write_line(line, data);
        let mut crashed = m.mem.domain().crash_snapshot();
        let report = RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(report.rolled_back_transactions, 1);
        assert_eq!(
            crashed.memory().read_word(addr),
            7,
            "undo restores old value"
        );
    }

    #[test]
    fn commit_waits_for_data_flush() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        let mut last_store = 0;
        for i in 0..4u64 {
            if let StepOutcome::Done { at } =
                e.write(&mut m, c(0), Address::new(0x3000 + i * 64), i, 10)
            {
                last_store = at;
            }
        }
        let StepOutcome::Done { at } = e.commit(&mut m, c(0), last_store) else {
            panic!()
        };
        // Commit cannot finish before at least one NVM write of data.
        assert!(at >= last_store + m.mem.latency().nvm_write);
    }

    #[test]
    fn stores_do_not_wait_for_the_undo_log() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        // First store misses to memory; its completion should reflect the
        // read miss, not an added synchronous NVM *write* (undo logging is
        // off the critical path). A second store to the same line is an L1
        // hit and must be fast.
        e.write(&mut m, c(0), Address::new(0x3000), 1, 10);
        let StepOutcome::Done { at } = e.write(&mut m, c(0), Address::new(0x3008), 2, 2000) else {
            panic!()
        };
        assert!(at - 2000 <= m.mem.latency().l1_hit + 1);
    }

    #[test]
    fn locks_serialize_conflicting_transactions() {
        let (mut m, mut e) = setup();
        assert!(e.begin(&mut m, c(0), &[LockId(3)], 0).is_done());
        assert_eq!(
            e.begin(&mut m, c(1), &[LockId(3)], 0),
            StepOutcome::Blocked {
                retry_at: LOCK_SPIN,
                period: LOCK_SPIN
            }
        );
    }
}
