//! The DHTM transaction engine (Sections III and IV of the paper).
//!
//! DHTM layers hardware redo logging and L1→LLC write-set overflow on top of
//! an RTM-like HTM:
//!
//! * **Visibility** comes from the HTM: read/write bits in the L1, a read-set
//!   overflow signature, eager conflict detection through the coherence
//!   protocol with a first-writer-wins policy by default.
//! * **Durability** comes from redo logging: every transactional store is
//!   tracked in the log buffer; evictions from the buffer (and from the L1)
//!   emit cache-line-granular redo records to the per-thread transaction log
//!   in persistent memory, off the critical path. A transaction commits once
//!   its log (including the commit record) is durable; the data itself is
//!   written back in place afterwards, during the *completion* phase, which
//!   only delays the next transaction on the same core.
//! * **Overflow** reuses the same infrastructure: when a write-set line is
//!   evicted from the L1 it is written back to the LLC with its directory
//!   state left unchanged (sticky), and its address is appended to the
//!   overflow list so commit/abort can find it again without searching the
//!   LLC.

use dhtm_cache::l1::{L1Entry, StoreKind};
use dhtm_nvm::record::LogRecord;
use dhtm_types::addr::{Address, LineAddr};
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::{CoreId, ThreadId, TxId};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_htm::arbiter::{ArbiterConfig, HtmArbiter};
use dhtm_htm::tx_state::{HtmCoreState, TxStatus};
use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::{LockId, FALLBACK_SPIN};
use dhtm_sim::machine::Machine;

use crate::options::DhtmOptions;
use crate::redo_log::RedoLogger;

/// Cycles of instruction overhead at transaction begin/commit.
const TX_BOOKKEEPING: u64 = 5;
/// Cycles of instruction overhead to roll back a transaction.
const ABORT_OVERHEAD: u64 = 20;
/// Bytes of overflow-list metadata written per overflowed line.
const OVERFLOW_ENTRY_BYTES: u64 = 8;

/// The DHTM engine: an RTM-like HTM extended with hardware redo logging and
/// LLC-limited (rather than L1-limited) transactions.
#[derive(Debug)]
pub struct DhtmEngine {
    states: Vec<HtmCoreState>,
    loggers: Vec<RedoLogger>,
    options: DhtmOptions,
    policy: dhtm_types::policy::ConflictPolicy,
    signature_bits: usize,
    log_buffer_entries: usize,
    max_retries: usize,
    in_fallback: Vec<bool>,
    /// Word values stored by each core's current *fallback* transaction.
    /// The fallback runs write-aside — the durable log, not the cache,
    /// carries the stores — so it needs no L1/LLC retention of its write
    /// set and is guaranteed to make progress where the HTM cannot
    /// (including write sets the LLC geometry cannot hold).
    fallback_values: Vec<std::collections::BTreeMap<Address, u64>>,
    fallback_commits: u64,
    /// Reusable line buffer for the commit/abort walks (log-buffer drain,
    /// resident write-back, overflow-list flush, abort invalidation): these
    /// loops mutate the machine while walking a snapshot of engine or cache
    /// state, so they stage the lines here instead of collecting a fresh
    /// `Vec` per transaction.
    scratch_lines: Vec<LineAddr>,
    /// Cycles each successful commit spent waiting at the commit point for
    /// its issued log writes to become durable (Figure 4e→4f gap). Boxed so
    /// the bucket array does not bloat every `EngineDispatch` variant.
    commit_persist_waits: Box<dhtm_obs::PowHistogram>,
}

impl DhtmEngine {
    /// Creates a DHTM engine with the paper's default options.
    pub fn new(cfg: &SystemConfig) -> Self {
        Self::with_options(cfg, DhtmOptions::paper_default())
    }

    /// Creates a DHTM engine with explicit options (used by the ablations).
    pub fn with_options(cfg: &SystemConfig, options: DhtmOptions) -> Self {
        DhtmEngine {
            states: Vec::new(),
            loggers: Vec::new(),
            options,
            policy: cfg.conflict_policy,
            signature_bits: cfg.read_signature_bits,
            log_buffer_entries: cfg.log_buffer_entries,
            max_retries: cfg.max_htm_retries,
            in_fallback: Vec::new(),
            fallback_values: Vec::new(),
            fallback_commits: 0,
            scratch_lines: Vec::new(),
            commit_persist_waits: Box::default(),
        }
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &DhtmOptions {
        &self.options
    }

    /// Immutable view of a core's transactional state.
    pub fn state(&self, core: CoreId) -> &HtmCoreState {
        &self.states[core.get()]
    }

    fn arbiter_config(&self) -> ArbiterConfig {
        ArbiterConfig::dhtm(self.policy)
    }

    /// Appends a record to `core`'s transaction log and charges the log write
    /// to the memory channel. Returns the durability point, or `None` on log
    /// overflow (the caller aborts the transaction).
    fn append_record(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        record: LogRecord,
        now: u64,
    ) -> Option<u64> {
        let thread = ThreadId::from(core);
        let bytes = record.size_bytes();
        if machine.mem.domain_mut().append_log(thread, record).is_err() {
            return None;
        }
        let durable_at = machine.mem.persist_log_bytes(now, bytes);
        self.loggers[core.get()].note_log_write(durable_at, bytes);
        self.states[core.get()].log_records += 1;
        Some(durable_at)
    }

    /// Looks up the freshest contents of `line` for logging: L1 first, then
    /// LLC, then the in-place image.
    fn line_contents(machine: &Machine, core: CoreId, line: LineAddr) -> [u64; 8] {
        if let Some(e) = machine.mem.l1(core).entry(line) {
            e.data
        } else if let Some(e) = machine.mem.llc().entry(line) {
            e.data
        } else {
            machine.mem.domain().read_line(line)
        }
    }

    /// Emits the redo record for a line leaving the log buffer.
    fn log_line(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        line: LineAddr,
        now: u64,
    ) -> Option<u64> {
        let tx = self.states[core.get()].tx;
        let data = Self::line_contents(machine, core, line);
        self.append_record(machine, core, LogRecord::redo(tx, line, data), now)
    }

    /// Rolls back the transaction on `core` (Figure 4g/4h).
    fn do_abort(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        now: u64,
        reason: AbortReason,
    ) -> StepOutcome {
        let thread = ThreadId::from(core);
        let tx = self.states[core.get()].tx;
        // Consume any pending speculative-loss flag: it belongs to the
        // transaction being aborted, not to the core's next one.
        let _ = machine.mem.take_speculative_loss(core);
        if self.in_fallback[core.get()] {
            machine.locks.release_all(core);
            self.in_fallback[core.get()] = false;
            // Write-aside fallback lines are clean but hold the aborted
            // values; discard them so neither later reads nor later log
            // records can observe them.
            let values = std::mem::take(&mut self.fallback_values[core.get()]);
            let mut prev: Option<LineAddr> = None;
            for line in values.keys().map(|a| a.line()) {
                if prev == Some(line) {
                    continue;
                }
                prev = Some(line);
                machine.mem.invalidate_l1_line(core, line);
            }
        }
        // Discard pending log-buffer entries and logically clear the log by
        // writing an abort record; if the log is full, purge the records of
        // this (uncommitted) transaction instead.
        self.loggers[core.get()].reset();
        let abort_marker = LogRecord::abort(tx);
        let mut at = now + ABORT_OVERHEAD;
        if self
            .append_record(machine, core, abort_marker, now)
            .is_none()
        {
            machine.mem.domain_mut().purge_log_tx(thread, tx);
        }
        machine.mem.domain_mut().reclaim_log(thread);

        // Invalidate the resident write set.
        machine
            .mem
            .l1_mut(core)
            .flash_invalidate_write_set_into(&mut self.scratch_lines);
        for &line in &self.scratch_lines {
            machine.mem.notify_clean_eviction(core, line);
        }
        machine.mem.l1_mut(core).flash_clear_read_bits();

        // Abort-completion phase: invalidate the overflowed lines in the LLC
        // (Figure 4h). This runs in the background; only the next transaction
        // on this core has to wait for it. Ascending line order, as the
        // shadow set always iterated.
        let mut completion = at;
        for line in self.states[core.get()].overflowed.iter() {
            machine.mem.invalidate_llc_line(line);
            completion += machine.mem.latency().llc_hit;
        }
        machine.mem.domain_mut().clear_overflow_tx(thread, tx);

        if self.options.instant_writes {
            completion = at;
        }
        self.states[core.get()].reset_after_abort();
        self.states[core.get()].next_begin_at = completion;
        at = at.max(now + ABORT_OVERHEAD);
        StepOutcome::Aborted {
            at,
            retry_at: at,
            reason,
        }
    }

    /// Handles a line evicted from the L1 during a transactional fill.
    /// Returns an abort reason if the eviction is fatal.
    fn handle_victim(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        line: LineAddr,
        entry: &L1Entry,
        now: u64,
    ) -> Option<AbortReason> {
        if entry.write_bit {
            if !self.options.overflow_enabled {
                return Some(AbortReason::Capacity);
            }
            // Section III-C: write-set overflow. If the line still has a
            // pending log-buffer entry, its redo record must be written now
            // (the L1 copy is about to disappear).
            if self.loggers[core.get()].on_l1_eviction(line) {
                let tx = self.states[core.get()].tx;
                let rec = LogRecord::redo(tx, line, entry.data);
                if self.append_record(machine, core, rec, now).is_none() {
                    return Some(AbortReason::LogOverflow);
                }
            }
            // Write the dirty data back to the LLC, leaving the directory
            // state unchanged (sticky) so conflicts keep being forwarded.
            machine
                .mem
                .writeback_to_llc(core, line, entry.data, now, true);
            // Record the address in the overflow list in persistent memory.
            let tx = self.states[core.get()].tx;
            let thread = ThreadId::from(core);
            if machine
                .mem
                .domain_mut()
                .append_overflow(thread, tx, line)
                .is_err()
            {
                return Some(AbortReason::LogOverflow);
            }
            machine.mem.persist_log_bytes(now, OVERFLOW_ENTRY_BYTES);
            self.states[core.get()].overflowed.insert(line);
            return None;
        }
        if entry.read_bit {
            // Read-set overflow into the signature; directory stays sticky so
            // invalidations still reach this core.
            self.states[core.get()].signature.insert(line);
            if entry.dirty {
                machine
                    .mem
                    .writeback_to_llc(core, line, entry.data, now, true);
            }
            return None;
        }
        // A line from the log buffer may track a non-transactional... no:
        // only transactional stores enter the buffer. Plain eviction.
        machine.mem.evict_nontransactional(core, line, entry, now);
        None
    }

    /// Emits sentinel records for dependencies on committed-but-incomplete
    /// transactions discovered during an access.
    fn emit_sentinels(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        deps: Vec<(CoreId, TxId)>,
        now: u64,
    ) {
        let tx = self.states[core.get()].tx;
        for (_, depends_on) in deps {
            let _ = self.append_record(machine, core, LogRecord::sentinel(tx, depends_on), now);
        }
    }
}

impl TxEngine for DhtmEngine {
    fn design(&self) -> DesignKind {
        DesignKind::Dhtm
    }

    fn init(&mut self, machine: &mut Machine) {
        let n = machine.num_cores();
        self.states = (0..n)
            .map(|_| HtmCoreState::new(self.signature_bits))
            .collect();
        self.loggers = (0..n)
            .map(|_| RedoLogger::new(self.log_buffer_entries, self.options.word_granular_logging))
            .collect();
        self.in_fallback = vec![false; n];
        self.fallback_values = vec![std::collections::BTreeMap::new(); n];
        self.fallback_commits = 0;
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        _lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        // A new transaction cannot begin until the previous one has completed
        // its write-backs (Section III-B).
        let start = now.max(self.states[core.get()].next_begin_at);
        if self.states[core.get()].aborts_this_tx > self.max_retries {
            if !machine.locks.try_acquire_all(core, &[LockId::GLOBAL]) {
                return StepOutcome::Blocked {
                    retry_at: start + FALLBACK_SPIN,
                    period: FALLBACK_SPIN,
                };
            }
            self.in_fallback[core.get()] = true;
        } else if machine.locks.is_held(LockId::GLOBAL) {
            return StepOutcome::Blocked {
                retry_at: start + FALLBACK_SPIN,
                period: FALLBACK_SPIN,
            };
        }
        let tx = machine.tx_ids.allocate();
        self.states[core.get()].begin(tx, start);
        self.loggers[core.get()].reset();
        self.fallback_values[core.get()].clear();
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
        if machine.mem.take_speculative_loss(core) {
            // An LLC eviction discarded one of this transaction's overflowed
            // write-set lines: the speculative data is gone, so the
            // transaction cannot commit (capacity, Section III-C limit).
            return self.do_abort(machine, core, now, AbortReason::Capacity);
        }
        let line = addr.line();
        let transactional = !self.in_fallback[core.get()];
        let cfg = self.arbiter_config();
        let (out, deps) = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, transactional);
            let out = machine.mem.load(core, line, now, &mut arb);
            (out, arb.into_dependencies())
        };
        if out.aborted_by_conflict {
            return self.do_abort(machine, core, now, AbortReason::Conflict);
        }
        if out.nacked {
            return StepOutcome::Stall {
                retry_at: out.done + 32,
            };
        }
        if let Some((vline, ventry)) = out.evicted_victim {
            if let Some(reason) = self.handle_victim(machine, core, vline, &ventry, now) {
                return self.do_abort(machine, core, out.done, reason);
            }
        }
        if transactional {
            self.emit_sentinels(machine, core, deps, now);
            let entry = machine.mem.l1_mut(core).entry_mut(line).expect("filled");
            let read_bit_was_set = std::mem::replace(&mut entry.read_bit, true);
            if out.reread_own_overflow {
                // Figure 4 corner case: a re-read line that previously
                // overflowed still belongs to the write set.
                entry.write_bit = true;
                self.states[core.get()].note_reread_write_bit(line);
            }
            self.states[core.get()].record_load(line, read_bit_was_set);
        }
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
        if machine.mem.take_speculative_loss(core) {
            // An LLC eviction discarded one of this transaction's overflowed
            // write-set lines: the speculative data is gone, so the
            // transaction cannot commit (capacity, Section III-C limit).
            return self.do_abort(machine, core, now, AbortReason::Capacity);
        }
        let line = addr.line();
        let transactional = !self.in_fallback[core.get()];
        let cfg = self.arbiter_config();
        let (out, deps) = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, transactional);
            let out = machine.mem.store(core, line, now, &mut arb);
            (out, arb.into_dependencies())
        };
        if out.aborted_by_conflict {
            return self.do_abort(machine, core, now, AbortReason::Conflict);
        }
        if out.nacked {
            return StepOutcome::Stall {
                retry_at: out.done + 32,
            };
        }
        if let Some((vline, ventry)) = out.evicted_victim {
            if let Some(reason) = self.handle_victim(machine, core, vline, &ventry, now) {
                return self.do_abort(machine, core, out.done, reason);
            }
        }
        // The fallback runs write-aside (below): its stores leave the line
        // clean.
        let kind = if transactional {
            StoreKind::Transactional
        } else {
            StoreKind::WriteAside
        };
        let write_bit_was_set = machine.mem.store_word_in_l1(core, addr, value, kind);

        if transactional {
            self.emit_sentinels(machine, core, deps, now);
            self.states[core.get()].record_store(line, write_bit_was_set);

            // Hardware redo logging (Section III-A).
            if self.options.word_granular_logging {
                let tx = self.states[core.get()].tx;
                let rec = LogRecord::redo_word(tx, line, addr.word_index().get(), value);
                if self.append_record(machine, core, rec, now).is_none() {
                    return self.do_abort(machine, core, out.done, AbortReason::LogOverflow);
                }
            } else if let Some(evicted) = self.loggers[core.get()].on_store(line) {
                if self.log_line(machine, core, evicted, now).is_none() {
                    return self.do_abort(machine, core, out.done, AbortReason::LogOverflow);
                }
            }
        } else {
            // Fallback path: durable via synchronous, Mnemosyne-like logging,
            // run *write-aside* — the durable log carries the stores and the
            // cache stays clean, so no L1/LLC retention of the write set is
            // needed and an eviction can never leak uncommitted data. This is
            // what guarantees fallback progress for write sets the cache
            // geometry cannot hold (the HTM path would capacity-abort
            // forever).
            let tx = self.states[core.get()].tx;
            let rec = LogRecord::redo_word(tx, line, addr.word_index().get(), value);
            let Some(durable) = self.append_record(machine, core, rec, now) else {
                // The store's value has no durable copy and is not yet in
                // `fallback_values`, whose lines the abort discards: discard
                // this line too, so no later read observes the value.
                machine.mem.invalidate_l1_line(core, line);
                return self.do_abort(machine, core, out.done, AbortReason::LogOverflow);
            };
            self.fallback_values[core.get()].insert(addr, value);
            self.states[core.get()].record_store(line, false);
            return StepOutcome::done(durable.max(out.done));
        }
        StepOutcome::done(out.done)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        if machine.mem.take_speculative_loss(core) {
            // An LLC eviction discarded one of this transaction's overflowed
            // write-set lines: the speculative data is gone, so the
            // transaction cannot commit (capacity, Section III-C limit).
            return self.do_abort(machine, core, now, AbortReason::Capacity);
        }
        let thread = ThreadId::from(core);
        let tx = self.states[core.get()].tx;

        // (1) Drain the log buffer: every still-buffered line gets its redo
        //     record now (Figure 4e). Staged in the scratch buffer because
        //     `log_line` needs the whole engine mutably.
        self.loggers[core.get()].drain_into(&mut self.scratch_lines);
        for i in 0..self.scratch_lines.len() {
            let line = self.scratch_lines[i];
            if self.log_line(machine, core, line, now).is_none() {
                return self.do_abort(machine, core, now, AbortReason::LogOverflow);
            }
        }
        // (2) Write the commit record. The transaction commits once every log
        //     record, including this one, is durable.
        if self
            .append_record(machine, core, LogRecord::commit(tx), now)
            .is_none()
        {
            return self.do_abort(machine, core, now, AbortReason::LogOverflow);
        }
        let log_durable = self.loggers[core.get()].persist_horizon();
        let commit_at = if self.options.instant_writes {
            now + TX_BOOKKEEPING
        } else {
            (now + TX_BOOKKEEPING).max(log_durable)
        };
        self.commit_persist_waits
            .record(commit_at - (now + TX_BOOKKEEPING));

        // Read bits and the overflow signature are cleared at commit.
        machine.mem.l1_mut(core).flash_clear_read_bits();
        self.states[core.get()].snapshot_stats(commit_at);
        self.states[core.get()].status = TxStatus::Committed;

        // (3) Completion phase (Figure 4f): write the write set back in place,
        //     then the overflowed lines via the overflow list, then the
        //     complete record. This happens off the critical path — only the
        //     next transaction on this core waits for `completion`.
        let mut completion = commit_at;
        self.scratch_lines.clear();
        self.scratch_lines
            .extend(machine.mem.l1(core).write_set_iter());
        for i in 0..self.scratch_lines.len() {
            let line = self.scratch_lines[i];
            if let Some(done) = machine
                .mem
                .l1_writeback_line_to_memory(core, line, commit_at)
            {
                completion = completion.max(done);
            }
            if let Some(entry) = machine.mem.l1_mut(core).entry_mut(line) {
                entry.write_bit = false;
            }
        }
        self.scratch_lines.clear();
        self.scratch_lines.extend(
            machine
                .mem
                .domain()
                .overflow_list(thread)
                .lines_for_iter(tx),
        );
        for i in 0..self.scratch_lines.len() {
            let line = self.scratch_lines[i];
            // A line that overflowed and was later re-read is resident in the
            // L1 again; it was already written back (and is still owned by
            // this core), so the LLC write-back must not clear its directory
            // state.
            if machine.mem.l1(core).entry(line).is_some() {
                continue;
            }
            if let Some(done) = machine.mem.llc_writeback_line_to_memory(line, commit_at) {
                completion = completion.max(done);
            }
        }
        if self.in_fallback[core.get()] {
            // Write-aside fallback: the cache was kept clean, so each line's
            // in-place image is composed from the persistent copy overlaid
            // with the transaction's stores.
            let values = std::mem::take(&mut self.fallback_values[core.get()]);
            let mut prev: Option<LineAddr> = None;
            for line in values.keys().map(|a| a.line()) {
                if prev == Some(line) {
                    continue;
                }
                prev = Some(line);
                let done = machine
                    .mem
                    .persist_composed_line(core, line, &values, commit_at);
                completion = completion.max(done);
            }
        }
        if self
            .append_record(machine, core, LogRecord::complete(tx), commit_at)
            .is_none()
        {
            // The complete record is an optimisation, not a correctness
            // requirement (Section III-B); ignore the failure.
        }
        machine.mem.domain_mut().clear_overflow_tx(thread, tx);
        machine.mem.domain_mut().reclaim_log(thread);

        if self.options.instant_writes {
            completion = commit_at;
        }
        if self.in_fallback[core.get()] {
            machine.locks.release_all(core);
            self.in_fallback[core.get()] = false;
            self.fallback_commits += 1;
        }
        self.states[core.get()].reset_after_commit(completion);
        self.states[core.get()].status = TxStatus::Idle;
        StepOutcome::done(commit_at)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.states[core.get()].last_stats.clone()
    }

    fn fallback_commits(&self) -> u64 {
        self.fallback_commits
    }

    fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        for (i, logger) in self.loggers.iter().enumerate() {
            logger.probes_into(&format!("core{i}/log_buffer"), reg);
        }
        reg.add("engine/fallback_commits", self.fallback_commits);
        reg.merge_histogram("engine/commit_persist_waits", &self.commit_persist_waits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_nvm::recovery::RecoveryManager;
    use dhtm_types::config::SystemConfig;

    fn setup() -> (Machine, DhtmEngine) {
        let cfg = SystemConfig::small_test();
        let mut machine = Machine::new(cfg.clone());
        let mut engine = DhtmEngine::new(&cfg);
        engine.init(&mut machine);
        (machine, engine)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn committed_transaction_is_durable_in_place() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x4000);
        assert!(e.begin(&mut m, c(0), &[], 0).is_done());
        assert!(e.write(&mut m, c(0), addr, 99, 10).is_done());
        let out = e.commit(&mut m, c(0), 100);
        assert!(out.is_done());
        // After commit-complete the new value is in place in persistent
        // memory (Figure 4f).
        assert_eq!(m.mem.domain().read_word(addr), 99);
    }

    #[test]
    fn uncommitted_transaction_leaves_memory_untouched() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x4000);
        m.mem.domain_mut().memory_mut().write_word(addr, 7);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 99, 10);
        // No commit: in-place memory still holds the old value, and recovery
        // from a crash at this point must preserve it.
        assert_eq!(m.mem.domain().read_word(addr), 7);
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(addr), 7);
    }

    #[test]
    fn commit_waits_for_log_persistence_but_not_for_data() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        for i in 0..6u64 {
            e.write(&mut m, c(0), Address::new(0x4000 + i * 64), i, 10 + i);
        }
        let out = e.commit(&mut m, c(0), 100);
        let StepOutcome::Done { at } = out else {
            panic!("commit failed: {out:?}")
        };
        // The commit point includes at least one NVM write latency (the log
        // records must be durable)...
        assert!(at >= 100 + m.mem.latency().nvm_write);
        // ...but the core is released before the completion phase finishes
        // writing all six data lines back in place.
        assert!(e.state(c(0)).next_begin_at >= at);
    }

    #[test]
    fn log_coalescing_reduces_log_records() {
        let cfg = SystemConfig::small_test();
        let run = |word_granular: bool| {
            let mut m = Machine::new(cfg.clone());
            let opts = if word_granular {
                DhtmOptions::word_granular()
            } else {
                DhtmOptions::paper_default()
            };
            let mut e = DhtmEngine::with_options(&cfg, opts);
            e.init(&mut m);
            e.begin(&mut m, c(0), &[], 0);
            // Five stores into two cache lines (the Figure 2 example).
            let a = Address::new(0xA00);
            let b = Address::new(0xB00);
            for (addr, v) in [(a, 1), (a.offset(8), 2), (a, 3), (b, 1), (b.offset(8), 2)] {
                e.write(&mut m, c(0), addr, v, 10);
            }
            e.commit(&mut m, c(0), 100);
            e.last_tx_stats(c(0)).log_records
        };
        let coalesced = run(false);
        let word_granular = run(true);
        // Line-granular with the log buffer: 2 redo records (+ markers are
        // not counted in log_records? they are; compare relative).
        assert!(coalesced < word_granular, "{coalesced} vs {word_granular}");
    }

    #[test]
    fn write_set_overflow_does_not_abort_and_is_tracked() {
        let (mut m, mut e) = setup();
        // small_test L1: 2 KB, 2-way, 64 B lines -> 16 sets. Three writes to
        // the same set force an overflow.
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        for i in 0..3u64 {
            let out = e.write(
                &mut m,
                c(0),
                Address::new(0x10000 + i * set_stride),
                i,
                100 + i,
            );
            assert!(out.is_done(), "DHTM must not abort on write-set overflow");
        }
        let st = e.state(c(0));
        assert_eq!(st.write_set.len(), 3);
        assert_eq!(st.overflowed.len(), 1);
        let overflowed_line = st.overflowed.first().unwrap();
        // The overflow list in persistent memory has the address, and the
        // directory still shows core 0 as owner (sticky state).
        let thread = ThreadId::new(0);
        assert!(m
            .mem
            .domain()
            .overflow_list(thread)
            .contains(st.tx, overflowed_line));
        let dir = m.mem.llc().entry(overflowed_line).unwrap();
        assert!(dir.is_sharer(c(0)));
        assert!(dir.state.is_exclusive_like());
        // Commit persists all three lines in place.
        assert!(e.commit(&mut m, c(0), 10_000).is_done());
        for i in 0..3u64 {
            assert_eq!(
                m.mem
                    .domain()
                    .read_word(Address::new(0x10000 + i * set_stride)),
                i
            );
        }
    }

    #[test]
    fn conflict_on_overflowed_line_is_detected() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        for i in 0..3u64 {
            e.write(
                &mut m,
                c(0),
                Address::new(0x10000 + i * set_stride),
                i,
                100 + i,
            );
        }
        let overflowed_line = e.state(c(0)).overflowed.first().unwrap();
        // Another core writes the overflowed line: under first-writer-wins the
        // requester aborts even though the line is no longer in core 0's L1.
        e.begin(&mut m, c(1), &[], 0);
        let out = e.write(&mut m, c(1), overflowed_line.base(), 77, 1000);
        match out {
            StepOutcome::Aborted { reason, .. } => assert_eq!(reason, AbortReason::Conflict),
            other => panic!("expected conflict abort, got {other:?}"),
        }
        assert!(e.commit(&mut m, c(0), 5000).is_done());
    }

    #[test]
    fn abort_with_overflow_invalidates_llc_copy_and_preserves_memory() {
        let (mut m, mut e) = setup();
        let set_stride = 16 * 64u64;
        let base = 0x10000u64;
        // Pre-populate old values.
        for i in 0..3u64 {
            m.mem
                .domain_mut()
                .memory_mut()
                .write_word(Address::new(base + i * set_stride), 1000 + i);
        }
        e.begin(&mut m, c(0), &[], 0);
        for i in 0..3u64 {
            e.write(
                &mut m,
                c(0),
                Address::new(base + i * set_stride),
                i,
                100 + i,
            );
        }
        let overflowed_line = e.state(c(0)).overflowed.first().unwrap();
        assert!(m.mem.llc().entry(overflowed_line).unwrap().dirty);
        // Force an abort through the doomed marker (as a conflict would).
        e.states[0].doomed = Some(AbortReason::Conflict);
        let out = e.read(&mut m, c(0), Address::new(0x20000), 2000);
        assert!(matches!(out, StepOutcome::Aborted { .. }));
        // The overflowed speculative line is gone from the LLC.
        assert!(m.mem.llc().entry(overflowed_line).is_none());
        // Old values survive in persistent memory and after recovery.
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        for i in 0..3u64 {
            assert_eq!(
                crashed
                    .memory()
                    .read_word(Address::new(base + i * set_stride)),
                1000 + i
            );
        }
    }

    #[test]
    fn reread_of_overflowed_line_rejoins_write_set() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        for i in 0..3u64 {
            e.write(
                &mut m,
                c(0),
                Address::new(0x10000 + i * set_stride),
                50 + i,
                100 + i,
            );
        }
        let overflowed_line = e.state(c(0)).overflowed.first().unwrap();
        // Re-read the overflowed line: the value written earlier must be
        // visible and the line must re-acquire its write bit.
        let out = e.read(&mut m, c(0), overflowed_line.base(), 1000);
        assert!(out.is_done());
        let entry = m.mem.l1(c(0)).entry(overflowed_line).unwrap();
        assert!(
            entry.write_bit,
            "reread overflowed line rejoins the write set"
        );
        assert!(e.commit(&mut m, c(0), 5000).is_done());
    }

    #[test]
    fn instant_writes_variant_commits_no_later_than_default() {
        let cfg = SystemConfig::small_test();
        let commit_time = |opts: DhtmOptions| {
            let mut m = Machine::new(cfg.clone());
            let mut e = DhtmEngine::with_options(&cfg, opts);
            e.init(&mut m);
            e.begin(&mut m, c(0), &[], 0);
            for i in 0..8u64 {
                e.write(&mut m, c(0), Address::new(0x4000 + i * 64), i, 10);
            }
            match e.commit(&mut m, c(0), 100) {
                StepOutcome::Done { at } => at,
                other => panic!("{other:?}"),
            }
        };
        let normal = commit_time(DhtmOptions::paper_default());
        let instant = commit_time(DhtmOptions::instant_writes());
        assert!(instant < normal, "instant {instant} vs normal {normal}");
    }

    #[test]
    fn disabling_overflow_restores_capacity_aborts() {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = DhtmEngine::with_options(&cfg, DhtmOptions::without_overflow());
        e.init(&mut m);
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        let mut last = StepOutcome::done(0);
        for i in 0..3u64 {
            last = e.write(
                &mut m,
                c(0),
                Address::new(0x10000 + i * set_stride),
                i,
                100 + i,
            );
        }
        assert!(matches!(
            last,
            StepOutcome::Aborted {
                reason: AbortReason::Capacity,
                ..
            }
        ));
    }

    #[test]
    fn log_overflow_aborts_with_dedicated_reason() {
        let mut cfg = SystemConfig::small_test();
        cfg.log_region_records = 4;
        let mut m = Machine::new(cfg.clone());
        let mut e = DhtmEngine::new(&cfg);
        e.init(&mut m);
        e.begin(&mut m, c(0), &[], 0);
        let mut last = StepOutcome::done(0);
        for i in 0..32u64 {
            last = e.write(&mut m, c(0), Address::new(0x4000 + i * 64), i, 10 + i);
            if !last.is_done() {
                break;
            }
        }
        // Either a store or the commit hits the tiny log's capacity.
        if last.is_done() {
            last = e.commit(&mut m, c(0), 10_000);
        }
        assert!(matches!(
            last,
            StepOutcome::Aborted {
                reason: AbortReason::LogOverflow,
                ..
            }
        ));
    }

    #[test]
    fn two_cores_commit_disjoint_transactions() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        e.begin(&mut m, c(1), &[], 0);
        e.write(&mut m, c(0), Address::new(0x1000), 1, 10);
        e.write(&mut m, c(1), Address::new(0x9000), 2, 10);
        assert!(e.commit(&mut m, c(0), 100).is_done());
        assert!(e.commit(&mut m, c(1), 100).is_done());
        assert_eq!(m.mem.domain().read_word(Address::new(0x1000)), 1);
        assert_eq!(m.mem.domain().read_word(Address::new(0x9000)), 2);
    }

    #[test]
    fn fallback_path_preserves_durability() {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = DhtmEngine::new(&cfg);
        e.init(&mut m);
        e.states[0].aborts_this_tx = cfg.max_htm_retries + 1;
        assert!(e.begin(&mut m, c(0), &[], 0).is_done());
        assert!(e.in_fallback[0]);
        let addr = Address::new(0x7000);
        assert!(e.write(&mut m, c(0), addr, 5, 10).is_done());
        assert!(e.commit(&mut m, c(0), 10_000).is_done());
        assert_eq!(e.fallback_commits(), 1);
        // The fallback write is recoverable from the log even though it never
        // went through the HTM write set.
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(addr), 5);
    }

    #[test]
    fn fallback_log_overflow_leaves_no_aborted_value_cached() {
        let mut cfg = SystemConfig::small_test();
        cfg.log_region_records = 4;
        let mut m = Machine::new(cfg.clone());
        let mut e = DhtmEngine::new(&cfg);
        e.init(&mut m);
        e.states[0].aborts_this_tx = cfg.max_htm_retries + 1;
        assert!(e.begin(&mut m, c(0), &[], 0).is_done());
        let mut overflowed = None;
        for i in 0..8u64 {
            let addr = Address::new(0x4000 + i * 64);
            if let StepOutcome::Aborted { reason, .. } = e.write(&mut m, c(0), addr, 100 + i, 10) {
                assert_eq!(reason, AbortReason::LogOverflow);
                overflowed = Some(addr);
                break;
            }
        }
        let addr = overflowed.expect("a 4-record log overflows within 8 stores");
        // The store whose redo record did not fit was written write-aside;
        // the abort must not leave its value in the cache, clean or dirty.
        assert!(m.mem.l1(c(0)).entry(addr.line()).is_none());
        assert!(m.mem.l1(c(0)).iter().all(|(_, entry)| !entry.dirty));
    }
}
