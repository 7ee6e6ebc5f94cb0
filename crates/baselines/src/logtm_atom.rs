//! The LogTM-ATOM baseline: a LogTM-style eager HTM for atomic visibility
//! integrated with ATOM-style hardware undo logging for atomic durability.
//!
//! This combination is not prior work — the paper constructs it as the
//! strongest "eager everything" competitor (Section V). Its characteristics:
//!
//! * conflicts are resolved by *stalling* the requester (NACKs) rather than
//!   immediately aborting, with a bounded number of retries to avoid
//!   deadlock;
//! * the write set may overflow the L1 (sticky directory state, like DHTM);
//! * versioning is eager: before-images go to a hardware undo log, and the
//!   write set must be flushed in place on the commit critical path — the
//!   commit-latency disadvantage DHTM's redo logging removes;
//! * aborts are expensive: the undo log must be applied before the
//!   transaction can retry.

use dhtm_cache::l1::{L1Entry, StoreKind};
use dhtm_htm::arbiter::{ArbiterConfig, HtmArbiter};
use dhtm_htm::tx_state::{HtmCoreState, TxStatus};
use dhtm_nvm::record::LogRecord;
use dhtm_types::addr::{Address, LineAddr};
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::{CoreId, ThreadId};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::LockId;
use dhtm_sim::machine::Machine;

/// Cycles of bookkeeping at begin/commit.
const TX_BOOKKEEPING: u64 = 5;
/// Cycles between NACK retries.
const NACK_RETRY: u64 = 150;
/// Consecutive NACKs on the same operation before the requester gives up and
/// aborts itself (deadlock avoidance).
const NACK_LIMIT: u32 = 30;

/// The LogTM-ATOM engine.
#[derive(Debug)]
pub struct LogTmAtomEngine {
    states: Vec<HtmCoreState>,
    undo_horizon: Vec<u64>,
    nack_streak: Vec<u32>,
    policy: dhtm_types::policy::ConflictPolicy,
    signature_bits: usize,
    /// Reusable line buffer for the commit flush and abort invalidation
    /// walks, so neither path allocates per transaction.
    scratch_lines: Vec<LineAddr>,
    /// Reusable buffer for the abort path's undo walk: `(line,
    /// before-image)` pairs staged oldest-first, applied newest-first.
    undo_scratch: Vec<(LineAddr, [u64; 8])>,
}

impl LogTmAtomEngine {
    /// Creates a LogTM-ATOM engine for machines built from `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        LogTmAtomEngine {
            states: Vec::new(),
            undo_horizon: Vec::new(),
            nack_streak: Vec::new(),
            policy: cfg.conflict_policy,
            signature_bits: cfg.read_signature_bits,
            scratch_lines: Vec::new(),
            undo_scratch: Vec::new(),
        }
    }

    /// Immutable view of a core's transactional state.
    pub fn state(&self, core: CoreId) -> &HtmCoreState {
        &self.states[core.get()]
    }

    fn arbiter_config(&self) -> ArbiterConfig {
        ArbiterConfig::logtm(self.policy)
    }

    fn append_undo(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        line: LineAddr,
        old: [u64; 8],
        now: u64,
    ) -> Result<(), AbortReason> {
        let tx = self.states[core.get()].tx;
        let record = LogRecord::undo(tx, line, old);
        let bytes = record.size_bytes();
        let thread = ThreadId::from(core);
        if machine.mem.domain_mut().append_log(thread, record).is_err() {
            return Err(AbortReason::LogOverflow);
        }
        let durable = machine.mem.persist_log_bytes(now, bytes);
        self.undo_horizon[core.get()] = self.undo_horizon[core.get()].max(durable);
        self.states[core.get()].log_records += 1;
        Ok(())
    }

    /// Applies the undo log and rolls the transaction back; eager versioning
    /// makes this expensive (one in-place write per logged line).
    fn do_abort(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        now: u64,
        reason: AbortReason,
    ) -> StepOutcome {
        let thread = ThreadId::from(core);
        let tx = self.states[core.get()].tx;
        let mut at = now + TX_BOOKKEEPING;

        // Walk the undo log newest-first, restoring before-images in place.
        // Staged through the reusable scratch buffer (the restore mutates
        // the machine the log borrows from); same records, same order.
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
            // The undo writes are issued here (consuming bandwidth) but
            // the core only pays a fixed per-line handler cost; the
            // writes drain in the background before the retry commits.
            machine.mem.persist_data_line(at, line, data);
            at += machine.mem.latency().llc_hit;
        }
        // Clear any remaining speculative L1 state and the log.
        machine
            .mem
            .l1_mut(core)
            .flash_invalidate_write_set_into(&mut self.scratch_lines);
        for &line in &self.scratch_lines {
            machine.mem.notify_clean_eviction(core, line);
        }
        machine.mem.l1_mut(core).flash_clear_read_bits();
        let _ = machine
            .mem
            .domain_mut()
            .append_log(thread, LogRecord::abort(tx));
        machine.mem.domain_mut().reclaim_log(thread);
        machine.mem.domain_mut().purge_log_tx(thread, tx);

        self.undo_horizon[core.get()] = 0;
        self.nack_streak[core.get()] = 0;
        self.states[core.get()].reset_after_abort();
        StepOutcome::Aborted {
            at,
            retry_at: at,
            reason,
        }
    }

    fn handle_victim(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        line: LineAddr,
        entry: &L1Entry,
        now: u64,
    ) {
        if entry.write_bit {
            // Eager versioning: the speculative data may leave the L1; the
            // undo log protects recoverability and the sticky directory state
            // keeps conflict detection working.
            machine
                .mem
                .writeback_to_llc(core, line, entry.data, now, true);
            self.states[core.get()].overflowed.insert(line);
        } else if entry.read_bit {
            self.states[core.get()].signature.insert(line);
            if entry.dirty {
                machine
                    .mem
                    .writeback_to_llc(core, line, entry.data, now, true);
            }
        } else {
            machine.mem.evict_nontransactional(core, line, entry, now);
        }
    }

    fn on_nack(&mut self, machine: &mut Machine, core: CoreId, done: u64) -> StepOutcome {
        self.nack_streak[core.get()] += 1;
        if self.nack_streak[core.get()] > NACK_LIMIT {
            return self.do_abort(machine, core, done, AbortReason::Conflict);
        }
        StepOutcome::Stall {
            retry_at: done + NACK_RETRY,
        }
    }
}

impl TxEngine for LogTmAtomEngine {
    fn design(&self) -> DesignKind {
        DesignKind::LogTmAtom
    }

    fn init(&mut self, machine: &mut Machine) {
        let n = machine.num_cores();
        self.states = (0..n)
            .map(|_| HtmCoreState::new(self.signature_bits))
            .collect();
        self.undo_horizon = vec![0; n];
        self.nack_streak = vec![0; n];
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        _lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        let start = now.max(self.states[core.get()].next_begin_at);
        let tx = machine.tx_ids.allocate();
        self.states[core.get()].begin(tx, start);
        self.undo_horizon[core.get()] = 0;
        self.nack_streak[core.get()] = 0;
        StepOutcome::done(start + TX_BOOKKEEPING)
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        let line = addr.line();
        let cfg = self.arbiter_config();
        let out = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, true);
            machine.mem.load(core, line, now, &mut arb)
        };
        if out.aborted_by_conflict {
            return self.do_abort(machine, core, now, AbortReason::Conflict);
        }
        if out.nacked {
            return self.on_nack(machine, core, out.done);
        }
        self.nack_streak[core.get()] = 0;
        if let Some((vline, ventry)) = out.evicted_victim {
            self.handle_victim(machine, core, vline, &ventry, now);
        }
        let entry = machine.mem.l1_mut(core).entry_mut(line).expect("filled");
        let read_bit_was_set = std::mem::replace(&mut entry.read_bit, true);
        if out.reread_own_overflow {
            entry.write_bit = true;
            self.states[core.get()].note_reread_write_bit(line);
        }
        self.states[core.get()].record_load(line, read_bit_was_set);
        StepOutcome::done(out.done)
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        let line = addr.line();
        // Capture the before-image on the first store to each line.
        let old_data = if self.states[core.get()].in_write_set(line) {
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
        let cfg = self.arbiter_config();
        let out = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, true);
            machine.mem.store(core, line, now, &mut arb)
        };
        if out.aborted_by_conflict {
            return self.do_abort(machine, core, now, AbortReason::Conflict);
        }
        if out.nacked {
            return self.on_nack(machine, core, out.done);
        }
        self.nack_streak[core.get()] = 0;
        if let Some((vline, ventry)) = out.evicted_victim {
            self.handle_victim(machine, core, vline, &ventry, now);
        }
        if let Some(old) = old_data {
            if let Err(reason) = self.append_undo(machine, core, line, old, now) {
                return self.do_abort(machine, core, out.done, reason);
            }
        }
        let write_bit_was_set =
            machine
                .mem
                .store_word_in_l1(core, addr, value, StoreKind::Transactional);
        self.states[core.get()].record_store(line, write_bit_was_set);
        StepOutcome::done(out.done)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        let thread = ThreadId::from(core);
        let tx = self.states[core.get()].tx;

        // Undo-based durable commit: wait for the undo log *and* the in-place
        // flush of the whole write set (resident + overflowed).
        let mut flush_done = now.max(self.undo_horizon[core.get()]);
        self.scratch_lines.clear();
        self.scratch_lines
            .extend(machine.mem.l1(core).write_set_iter());
        for i in 0..self.scratch_lines.len() {
            let line = self.scratch_lines[i];
            if let Some(done) = machine.mem.l1_writeback_line_to_memory(core, line, now) {
                flush_done = flush_done.max(done);
            }
            if let Some(e) = machine.mem.l1_mut(core).entry_mut(line) {
                e.write_bit = false;
            }
        }
        // Overflowed lines flush in ascending line order — the order the
        // shadow set has always iterated.
        for line in self.states[core.get()].overflowed.iter() {
            if let Some(done) = machine.mem.llc_writeback_line_to_memory(line, now) {
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

        machine.mem.l1_mut(core).flash_clear_read_bits();
        self.states[core.get()].snapshot_stats(commit_done);
        self.states[core.get()].reset_after_commit(commit_done);
        self.states[core.get()].status = TxStatus::Idle;
        StepOutcome::done(commit_done)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.states[core.get()].last_stats.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_nvm::recovery::RecoveryManager;

    fn setup() -> (Machine, LogTmAtomEngine) {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = LogTmAtomEngine::new(&cfg);
        e.init(&mut m);
        (m, e)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn committed_transaction_is_durable() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 5, 10);
        assert!(e.commit(&mut m, c(0), 1000).is_done());
        assert_eq!(m.mem.domain().read_word(addr), 5);
    }

    #[test]
    fn conflicting_request_is_nacked_then_gives_up() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 1, 10);
        e.begin(&mut m, c(1), &[], 0);
        // First attempts are NACKed (stall), eventually the requester aborts.
        let mut now = 500;
        let mut outcome = e.write(&mut m, c(1), addr, 2, now);
        let mut stalls = 0;
        while let StepOutcome::Stall { retry_at } = outcome {
            stalls += 1;
            now = retry_at;
            outcome = e.write(&mut m, c(1), addr, 2, now);
        }
        assert!(stalls >= 1, "requester should be NACKed at least once");
        assert!(matches!(outcome, StepOutcome::Aborted { .. }));
        // The holder was never disturbed.
        assert!(e.commit(&mut m, c(0), now + 10_000).is_done());
    }

    #[test]
    fn write_set_overflow_does_not_abort() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        for i in 0..3u64 {
            assert!(e
                .write(
                    &mut m,
                    c(0),
                    Address::new(0x10000 + i * set_stride),
                    i,
                    100 + i
                )
                .is_done());
        }
        assert_eq!(e.state(c(0)).overflowed.len(), 1);
        assert!(e.commit(&mut m, c(0), 10_000).is_done());
    }

    #[test]
    fn abort_applies_the_undo_log() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        m.mem.domain_mut().write_word(addr, 77);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 1, 10);
        e.states[0].doomed = Some(AbortReason::Conflict);
        let out = e.read(&mut m, c(0), Address::new(0x9000), 100);
        assert!(matches!(out, StepOutcome::Aborted { .. }));
        // The before-image was restored in place.
        assert_eq!(m.mem.domain().read_word(addr), 77);
        // And a crash right after the abort keeps the old value.
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(addr), 77);
    }

    #[test]
    fn commit_latency_exceeds_dhtm_for_same_write_set() {
        // The structural claim behind the paper's DHTM-vs-LogTM-ATOM gap:
        // with identical write sets, LogTM-ATOM's commit (data flush in the
        // critical path) finishes later than DHTM's (log-only wait).
        let cfg = SystemConfig::small_test();
        let commit_at = |use_dhtm: bool| -> u64 {
            let mut m = Machine::new(cfg.clone());
            let mut dhtm_e = dhtm::DhtmEngine::new(&cfg);
            let mut logtm_e = LogTmAtomEngine::new(&cfg);
            let e: &mut dyn TxEngine = if use_dhtm {
                dhtm_e.init(&mut m);
                &mut dhtm_e
            } else {
                logtm_e.init(&mut m);
                &mut logtm_e
            };
            e.begin(&mut m, c(0), &[], 0);
            let mut now = 10;
            for i in 0..6u64 {
                if let StepOutcome::Done { at } =
                    e.write(&mut m, c(0), Address::new(0x4000 + i * 64), i, now)
                {
                    now = at;
                }
            }
            match e.commit(&mut m, c(0), now) {
                StepOutcome::Done { at } => at - now,
                other => panic!("{other:?}"),
            }
        };
        let dhtm_latency = commit_at(true);
        let logtm_latency = commit_at(false);
        assert!(
            logtm_latency > dhtm_latency,
            "LogTM-ATOM commit ({logtm_latency}) should exceed DHTM commit ({dhtm_latency})"
        );
    }
}
