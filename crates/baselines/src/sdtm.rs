//! The sdTM baseline (PHyTM-like): an RTM-like HTM for atomic visibility
//! combined with *software* logging for atomic durability.
//!
//! Because the log entries are written by ordinary stores executed inside the
//! hardware transaction, every logged cache line joins the transaction's
//! write set (Figure 1b of the paper): the write-set footprint roughly
//! doubles, which increases capacity aborts, and the log lines must be
//! flushed to persistent memory on the commit critical path.

use std::collections::BTreeMap;

use dhtm_cache::l1::StoreKind;
use dhtm_cache::lineset::LineSet;
use dhtm_htm::rtm::RtmEngine;
use dhtm_nvm::record::LogRecord;
use dhtm_types::addr::Address;
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::{CoreId, ThreadId, TxId};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::LockId;
use dhtm_sim::machine::Machine;

/// Base simulated address of the per-thread software log areas. Placed far
/// above any workload data so the log stores never alias application lines.
const LOG_AREA_BASE: u64 = 1 << 44;
/// Address stride separating the log areas of different cores.
const LOG_AREA_STRIDE: u64 = 1 << 32;

#[derive(Debug, Clone, Default)]
struct SdTmCore {
    tx: TxId,
    logged_lines: LineSet,
    written_lines: LineSet,
    /// Word values stored by the current transaction while on the fallback
    /// path (the fallback runs write-aside: the durable log, not the cache,
    /// carries the stores until commit).
    fallback_values: BTreeMap<Address, u64>,
    /// Durability horizon of the streamed fallback log records; the commit
    /// fence waits for it.
    fallback_log_horizon: u64,
    log_entries: u64,
    begin_now: u64,
}

/// The sdTM (HTM + software logging) engine.
#[derive(Debug)]
pub struct SdTmEngine {
    htm: RtmEngine,
    cores: Vec<SdTmCore>,
    log_entry_setup: u64,
    persist_fence: u64,
}

impl SdTmEngine {
    /// Creates an sdTM engine for machines built from `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        SdTmEngine {
            htm: RtmEngine::new(cfg),
            cores: Vec::new(),
            log_entry_setup: cfg.software.log_entry_setup,
            persist_fence: cfg.software.persist_fence,
        }
    }

    fn log_slot_address(&self, core: CoreId, entry: u64) -> Address {
        Address::new(LOG_AREA_BASE + core.get() as u64 * LOG_AREA_STRIDE + entry * 64)
    }
}

impl TxEngine for SdTmEngine {
    fn design(&self) -> DesignKind {
        DesignKind::SdTm
    }

    fn init(&mut self, machine: &mut Machine) {
        self.htm.init(machine);
        self.cores = vec![SdTmCore::default(); machine.num_cores()];
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        let out = self.htm.begin(machine, core, lock_set, now);
        if out.is_done() {
            let c = &mut self.cores[core.get()];
            c.tx = machine.tx_ids.allocate();
            c.logged_lines.clear();
            c.written_lines.clear();
            c.fallback_values.clear();
            c.fallback_log_horizon = 0;
            c.log_entries = 0;
            c.begin_now = now;
        }
        out
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        self.htm.read(machine, core, addr, now)
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        // A fallback store runs write-aside: the cache is kept clean so an
        // eviction can never push uncommitted data towards persistent memory.
        let data_out =
            self.htm
                .write_with_fallback(machine, core, addr, value, now, StoreKind::WriteAside);
        let StepOutcome::Done { at } = data_out else {
            return data_out;
        };
        let line = addr.line();
        self.cores[core.get()].written_lines.insert(line);

        if self.htm.in_fallback(core) {
            // Fallback path (global lock): stores are not tracked by the HTM
            // write set, so the durability story is the plain software one —
            // a word-granular redo record streamed to the log (the commit
            // fence waits for its durability point), with the cache kept
            // write-aside (clean) by the store above.
            self.cores[core.get()].fallback_values.insert(addr, value);
            let tx = self.cores[core.get()].tx;
            let record = LogRecord::redo_word(tx, line, addr.word_index().get(), value);
            let bytes = record.size_bytes();
            let thread = ThreadId::from(core);
            if machine.mem.domain_mut().append_log(thread, record).is_err() {
                // The software log is full: the store's only durable copy
                // would be this record, so the transaction must abort. Its
                // records are purged (write-aside: nothing is in place) and
                // the clean cached lines holding aborted values discarded.
                machine.mem.domain_mut().purge_log_tx(thread, tx);
                machine.mem.domain_mut().reclaim_log(thread);
                for l in self.cores[core.get()]
                    .fallback_values
                    .keys()
                    .map(|a| a.line())
                {
                    machine.mem.invalidate_l1_line(core, l);
                }
                machine.mem.invalidate_l1_line(core, line);
                return self
                    .htm
                    .abort_current(machine, core, at, AbortReason::LogOverflow);
            }
            self.cores[core.get()].log_entries += 1;
            let setup_done = at + self.log_entry_setup;
            let durable = machine.mem.persist_log_bytes(setup_done, bytes);
            let c = &mut self.cores[core.get()];
            c.fallback_log_horizon = c.fallback_log_horizon.max(durable);
            return StepOutcome::done(setup_done);
        }

        let needs_log_entry = self.cores[core.get()].logged_lines.insert(line);
        if !needs_log_entry {
            return StepOutcome::done(at);
        }
        // Compose a software log entry inside the transaction: an ordinary
        // store to the per-thread log area, which joins the HTM write set.
        let entry_idx = self.cores[core.get()].log_entries;
        self.cores[core.get()].log_entries += 1;
        let slot = self.log_slot_address(core, entry_idx);
        let log_out = self
            .htm
            .write(machine, core, slot, value, at + self.log_entry_setup);
        match log_out {
            StepOutcome::Done { at } => StepOutcome::done(at),
            other => other,
        }
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        // The software log (the log-area lines plus the commit record) must be
        // durable before the hardware transaction can be allowed to become
        // visible-and-durable; flush it synchronously.
        let thread = ThreadId::from(core);
        let tx = self.cores[core.get()].tx;
        let fallback = self.htm.in_fallback(core);
        let mut durable = now.max(self.cores[core.get()].fallback_log_horizon);
        if !fallback {
            // Hardware path: compose the line-granular redo entries from the
            // resident write set, in ascending line order as the shadow set
            // has always iterated. (The fallback path already streamed
            // word-granular records synchronously at each store.)
            for line in self.cores[core.get()].written_lines.iter() {
                let data = machine
                    .mem
                    .l1(core)
                    .entry(line)
                    .map(|e| e.data)
                    .or_else(|| machine.mem.llc().entry(line).map(|e| e.data))
                    .unwrap_or_else(|| machine.mem.domain().read_line(line));
                let record = LogRecord::redo(tx, line, data);
                let bytes = record.size_bytes();
                if machine.mem.domain_mut().append_log(thread, record).is_ok() {
                    durable = durable.max(machine.mem.persist_log_bytes(now, bytes));
                }
            }
        }
        let commit_rec = LogRecord::commit(tx);
        let bytes = commit_rec.size_bytes();
        let _ = machine.mem.domain_mut().append_log(thread, commit_rec);
        durable = durable.max(machine.mem.persist_log_bytes(durable, bytes)) + self.persist_fence;

        let htm_out = self.htm.commit(machine, core, durable);
        let StepOutcome::Done { at } = htm_out else {
            // The HTM transaction aborted at commit (e.g. it was doomed): the
            // log entries written above belong to an uncommitted transaction
            // and are ignored by recovery; reclaim them.
            machine.mem.domain_mut().purge_log_tx(thread, tx);
            return htm_out;
        };

        // Data write-back is lazy: charge bandwidth, do not wait.
        let mut completion = at;
        if fallback {
            // Write-aside fallback: lines may have left the (clean) cache at
            // any point, so each in-place image is composed from the
            // persistent copy overlaid with the transaction's stores.
            for line in self.cores[core.get()].written_lines.iter() {
                let done = machine.mem.persist_composed_line(
                    core,
                    line,
                    &self.cores[core.get()].fallback_values,
                    at,
                );
                completion = completion.max(done);
            }
        } else {
            for line in self.cores[core.get()].written_lines.iter() {
                if let Some(done) = machine.mem.l1_writeback_line_to_memory(core, line, at) {
                    completion = completion.max(done);
                }
            }
        }
        let _ = machine
            .mem
            .domain_mut()
            .append_log(thread, LogRecord::complete(tx));
        machine.mem.domain_mut().reclaim_log(thread);
        let _ = completion; // data persistence happens in the background
        StepOutcome::done(at)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        // The HTM's view includes the log-area lines — exactly the doubled
        // write set of Figure 1b.
        self.htm.last_tx_stats(core)
    }

    fn fallback_commits(&self) -> u64 {
        self.htm.fallback_commits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_nvm::recovery::RecoveryManager;
    use dhtm_types::stats::AbortReason;

    fn setup() -> (Machine, SdTmEngine) {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = SdTmEngine::new(&cfg);
        e.init(&mut m);
        (m, e)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn committed_sdtm_transaction_is_durable() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 33, 10);
        assert!(e.commit(&mut m, c(0), 3000).is_done());
        assert_eq!(m.mem.domain().read_word(addr), 33);
        let mut crashed = m.mem.domain().crash_snapshot();
        RecoveryManager::new().recover(&mut crashed).unwrap();
        assert_eq!(crashed.memory().read_word(addr), 33);
    }

    #[test]
    fn software_logging_doubles_the_write_set() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        for i in 0..3u64 {
            e.write(&mut m, c(0), Address::new(0x3000 + i * 64), i, 10 + i);
        }
        e.commit(&mut m, c(0), 10_000);
        let stats = e.last_tx_stats(c(0));
        // Three data lines + three log lines.
        assert_eq!(stats.write_set_lines, 6);
    }

    #[test]
    fn inflated_write_set_aborts_earlier_than_plain_htm() {
        // With a 2-way L1 and log lines added to the write set, sdTM hits a
        // capacity abort with fewer data lines than the raw HTM would.
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64u64;
        let mut aborted = false;
        for i in 0..3u64 {
            // Also touch the matching log-area set by writing many lines.
            let out = e.write(
                &mut m,
                c(0),
                Address::new(0x30000 + i * set_stride),
                i,
                100 + i,
            );
            if let StepOutcome::Aborted { reason, .. } = out {
                assert!(matches!(
                    reason,
                    AbortReason::Capacity | AbortReason::Conflict
                ));
                aborted = true;
                break;
            }
        }
        assert!(
            aborted,
            "write-set inflation should trigger a capacity abort"
        );
    }

    #[test]
    fn conflicting_transactions_abort_like_rtm() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x5000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 1, 10);
        e.begin(&mut m, c(1), &[], 0);
        let out = e.write(&mut m, c(1), addr, 2, 500);
        assert!(matches!(out, StepOutcome::Aborted { .. }));
    }
}
