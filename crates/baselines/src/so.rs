//! The software-only (SO) baseline: locks for atomic visibility and
//! Mnemosyne-like software redo logging for atomic durability.
//!
//! SO is the normalisation baseline of every figure in the paper. Its costs
//! are:
//!
//! * lock acquisition/release instructions at transaction boundaries and
//!   spinning when a lock is contended;
//! * a software-composed redo log entry for every cache line written, flushed
//!   *synchronously* (streaming store + fence) as soon as the line's value is
//!   finalised — the flush latency sits squarely on the critical path;
//! * a durable commit record at transaction end; data write-back happens
//!   lazily off the critical path (redo logging).

use std::collections::BTreeMap;

use dhtm_cache::l1::StoreKind;
use dhtm_cache::lineset::LineSet;
use dhtm_coherence::probe::NoConflicts;
use dhtm_nvm::record::LogRecord;
use dhtm_types::addr::Address;
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::{CoreId, ThreadId, TxId};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::{LockId, LOCK_SPIN};
use dhtm_sim::machine::Machine;

/// Per-core state of the SO engine.
#[derive(Debug, Clone, Default)]
struct SoCore {
    tx: TxId,
    active: bool,
    read_lines: LineSet,
    /// Lines the current transaction stored to. An insert that returns
    /// `true` is the line's first store, which composes its line-sized log
    /// entry.
    written_lines: LineSet,
    /// The word values stored by the current transaction (the software
    /// write-aside set): the source of truth for the commit write-back of
    /// lines that have left the L1 by commit time.
    write_values: BTreeMap<Address, u64>,
    /// Cycle by which every asynchronously streamed log record (the
    /// word-granular amendments) is durable; the commit fence waits for it.
    log_persist_horizon: u64,
    loads: usize,
    stores: usize,
    log_records: usize,
    begin_cycle: u64,
    next_begin_at: u64,
    last_stats: TxStats,
}

/// The SO (locks + software logging) engine.
#[derive(Debug)]
pub struct SoEngine {
    cores: Vec<SoCore>,
    log_entry_setup: u64,
    persist_fence: u64,
    lock_acquire: u64,
    lock_release: u64,
}

impl SoEngine {
    /// Creates an SO engine for machines built from `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        SoEngine {
            cores: Vec::new(),
            log_entry_setup: cfg.software.log_entry_setup,
            persist_fence: cfg.software.persist_fence,
            lock_acquire: cfg.software.lock_acquire,
            lock_release: cfg.software.lock_release,
        }
    }

    fn handle_victim(&mut self, machine: &mut Machine, core: CoreId, now: u64) {
        // SO has no speculative state: victims are handled like any
        // non-transactional eviction.
        let _ = (machine, core, now);
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
}

impl TxEngine for SoEngine {
    fn design(&self) -> DesignKind {
        DesignKind::SoftwareOnly
    }

    fn init(&mut self, machine: &mut Machine) {
        self.cores = vec![SoCore::default(); machine.num_cores()];
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
        c.active = true;
        c.read_lines.clear();
        c.written_lines.clear();
        c.write_values.clear();
        c.log_persist_horizon = 0;
        c.loads = 0;
        c.stores = 0;
        c.log_records = 0;
        c.begin_cycle = start;
        let cost = self.lock_acquire * lock_set.len().max(1) as u64;
        StepOutcome::done(start + cost)
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        let done = Self::plain_access(machine, core, addr, false, now);
        self.handle_victim(machine, core, now);
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
        let done = Self::plain_access(machine, core, addr, true, now);
        // Write-aside semantics (Mnemosyne): the durable redo log — not the
        // cache — carries the transaction's stores until commit. Keeping the
        // line clean means a mid-transaction eviction can never write
        // uncommitted data in place in persistent memory; the commit
        // write-back re-materialises any line that left the cache from the
        // engine's write-aside set instead.
        machine
            .mem
            .store_word_in_l1(core, addr, value, StoreKind::WriteAside);
        let line = addr.line();
        let first_store_to_line = {
            let c = &mut self.cores[core.get()];
            c.stores += 1;
            c.write_values.insert(addr, value);
            c.written_lines.insert(line)
        };
        // Mnemosyne logs at *store* granularity: the first store to a line
        // composes a line-sized redo entry, flushed synchronously (streaming
        // store + fence) — that latency is on the critical path, which is
        // exactly the overhead hardware logging removes. Every later store
        // to the same line appends a word-granular amendment that streams to
        // the log asynchronously; the commit fence waits for its durability
        // point. Without the amendments the log would hold only the
        // first-store image of each line, and a crash between the commit
        // record and the data write-back would replay stale values.
        let tx = self.cores[core.get()].tx;
        let record = if first_store_to_line {
            let data = machine
                .mem
                .l1(core)
                .entry(line)
                .map(|e| e.data)
                .unwrap_or_default();
            LogRecord::redo(tx, line, data)
        } else {
            LogRecord::redo_word(tx, line, addr.word_index().get(), value)
        };
        let bytes = record.size_bytes();
        let thread = ThreadId::from(core);
        if machine.mem.domain_mut().append_log(thread, record).is_err() {
            // Software logs are sized by the runtime; model an overflow as a
            // transaction failure that retries after the log is reclaimed.
            // The attempt's own records are purged (write-aside: nothing was
            // written in place, so dropping them is safe) — otherwise dead
            // uncommitted records would occupy log space forever.
            machine.mem.domain_mut().purge_log_tx(thread, tx);
            machine.mem.domain_mut().reclaim_log(thread);
            machine.locks.release_all(core);
            self.cores[core.get()].active = false;
            return StepOutcome::Aborted {
                at: done,
                retry_at: done,
                reason: AbortReason::LogOverflow,
            };
        }
        self.cores[core.get()].log_records += 1;
        let setup_done = done + self.log_entry_setup;
        let durable = machine.mem.persist_log_bytes(setup_done, bytes);
        if first_store_to_line {
            StepOutcome::done(durable + self.persist_fence)
        } else {
            let c = &mut self.cores[core.get()];
            c.log_persist_horizon = c.log_persist_horizon.max(durable);
            StepOutcome::done(setup_done)
        }
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        let thread = ThreadId::from(core);
        let tx = self.cores[core.get()].tx;
        // The commit fence first waits for every streamed amendment record,
        // then the commit record itself is made durable.
        let log_horizon = now.max(self.cores[core.get()].log_persist_horizon);
        let commit_rec = LogRecord::commit(tx);
        let bytes = commit_rec.size_bytes();
        let _ = machine.mem.domain_mut().append_log(thread, commit_rec);
        let commit_done = machine
            .mem
            .persist_log_bytes(log_horizon + self.log_entry_setup, bytes)
            + self.persist_fence;

        // Data write-back is lazy (redo logging): charge the bandwidth but do
        // not wait for it before releasing the locks. Because the cache runs
        // write-aside (lines are never dirty mid-transaction), each line's
        // in-place image is composed from the persistent copy overlaid with
        // the transaction's write-aside values — the cache copy may have been
        // evicted (and discarded) at any point.
        let mut completion = commit_done;
        // Ascending line order — the order the shadow set has always
        // iterated; it determines the write-back schedule.
        for line in self.cores[core.get()].written_lines.iter() {
            let done = machine.mem.persist_composed_line(
                core,
                line,
                &self.cores[core.get()].write_values,
                commit_done,
            );
            completion = completion.max(done);
        }
        let _ = machine
            .mem
            .domain_mut()
            .append_log(thread, LogRecord::complete(tx));
        machine.mem.domain_mut().reclaim_log(thread);

        machine.locks.release_all(core);
        let release_done = commit_done + self.lock_release;
        let c = &mut self.cores[core.get()];
        c.active = false;
        c.next_begin_at = completion.max(release_done);
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

    fn setup() -> (Machine, SoEngine) {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = SoEngine::new(&cfg);
        e.init(&mut m);
        (m, e)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn committed_so_transaction_is_durable() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        assert!(e.begin(&mut m, c(0), &[LockId(1)], 0).is_done());
        assert!(e.write(&mut m, c(0), addr, 11, 10).is_done());
        assert!(e.commit(&mut m, c(0), 2000).is_done());
        assert_eq!(m.mem.domain().read_word(addr), 11);
        // Crash and recover: value still there.
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(addr), 11);
    }

    #[test]
    fn lock_contention_stalls_second_core() {
        let (mut m, mut e) = setup();
        assert!(e.begin(&mut m, c(0), &[LockId(5)], 0).is_done());
        let out = e.begin(&mut m, c(1), &[LockId(5)], 10);
        assert_eq!(
            out,
            StepOutcome::Blocked {
                retry_at: 10 + LOCK_SPIN,
                period: LOCK_SPIN
            }
        );
        assert_eq!(m.locks.contended_attempts(), 1);
        // After core 0 commits, core 1 can proceed.
        e.commit(&mut m, c(0), 100);
        assert_eq!(m.locks.releases(), 1);
        assert!(e.begin(&mut m, c(1), &[LockId(5)], 5000).is_done());
    }

    #[test]
    fn disjoint_lock_sets_run_concurrently() {
        let (mut m, mut e) = setup();
        assert!(e.begin(&mut m, c(0), &[LockId(1)], 0).is_done());
        assert!(e.begin(&mut m, c(1), &[LockId(2)], 0).is_done());
    }

    #[test]
    fn synchronous_log_flush_is_on_the_critical_path() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        let out = e.write(&mut m, c(0), Address::new(0x3000), 1, 10);
        let StepOutcome::Done { at } = out else {
            panic!()
        };
        // The store completes only after the NVM write latency (the flush).
        assert!(at >= 10 + m.mem.latency().nvm_write);
        // A second store to the same line streams a word-granular amendment
        // asynchronously: the store itself does not pay the NVM latency...
        let out2 = e.write(&mut m, c(0), Address::new(0x3008), 2, at);
        let StepOutcome::Done { at: at2 } = out2 else {
            panic!()
        };
        assert!(at2 - at < m.mem.latency().nvm_write);
        // ...but the commit fence does wait for the amendment's durability.
        let horizon = e.cores[0].log_persist_horizon;
        assert!(horizon >= at + m.mem.latency().nvm_write);
        let StepOutcome::Done { at: commit_at } = e.commit(&mut m, c(0), at2) else {
            panic!()
        };
        assert!(commit_at > horizon);
    }

    #[test]
    fn repeated_stores_are_recoverable_from_the_log_alone() {
        // The crash window that matters for redo logging: the commit record
        // is durable but the data write-back has not happened. Model it by
        // replaying the log onto a snapshot taken *before* commit wrote the
        // data back, with the commit marker grafted in — the recovered values
        // must be the final stored values, not the first-store image.
        let (mut m, mut e) = setup();
        let a = Address::new(0x3000);
        let b = Address::new(0x3008); // same line, different word
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        e.write(&mut m, c(0), a, 11, 10);
        e.write(&mut m, c(0), b, 22, 2000);
        e.write(&mut m, c(0), a, 33, 4000); // overwrites the first store
        let tx = e.cores[0].tx;
        let mut crashed = m.mem.domain().crash_snapshot();
        crashed
            .log_mut(ThreadId::new(0))
            .append(LogRecord::commit(tx))
            .unwrap();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(a), 33);
        assert_eq!(crashed.memory().read_word(b), 22);
    }

    #[test]
    fn commit_stats_reflect_footprint() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[LockId(1)], 0);
        e.read(&mut m, c(0), Address::new(0x100), 10);
        e.write(&mut m, c(0), Address::new(0x3000), 1, 20);
        e.write(&mut m, c(0), Address::new(0x3040), 2, 3000);
        e.commit(&mut m, c(0), 8000);
        let stats = e.last_tx_stats(c(0));
        assert_eq!(stats.write_set_lines, 2);
        assert_eq!(stats.read_set_lines, 1);
        assert_eq!(stats.log_records, 2);
    }
}
