//! A volatile, RTM-like best-effort HTM: the paper's **NP** design and the
//! structural template for the HTM side of sdTM and DHTM.
//!
//! Speculative state is buffered in the L1 (read/write bits); the read set
//! may overflow into the signature, but eviction of a write-set line aborts
//! the transaction (the L1 limitation DHTM removes). Conflict detection is
//! eager via the coherence protocol. After `max_htm_retries` consecutive
//! aborts a transaction falls back to a single global lock, mirroring the
//! standard RTM fallback idiom.

use dhtm_cache::l1::{L1Entry, StoreKind};
use dhtm_types::addr::{Address, LineAddr};
use dhtm_types::config::SystemConfig;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::{ConflictPolicy, DesignKind};
use dhtm_types::stats::{AbortReason, TxStats};

use dhtm_sim::engine::{StepOutcome, TxEngine};
use dhtm_sim::locks::{LockId, FALLBACK_SPIN};
use dhtm_sim::machine::Machine;

use crate::arbiter::{ArbiterConfig, HtmArbiter};
use crate::tx_state::{HtmCoreState, TxStatus};

/// Fixed cost, in cycles, of the commit/abort bookkeeping instructions.
const COMMIT_OVERHEAD: u64 = 5;
/// Fixed cost, in cycles, of rolling back a transaction.
const ABORT_OVERHEAD: u64 = 20;

/// The volatile RTM-like HTM engine (design **NP**).
#[derive(Debug)]
pub struct RtmEngine {
    states: Vec<HtmCoreState>,
    policy: ConflictPolicy,
    signature_bits: usize,
    max_retries: usize,
    in_fallback: Vec<bool>,
    fallback_commits: u64,
    /// Reusable buffer for the abort path's write-set flash-invalidate, so
    /// aborting never allocates.
    scratch_lines: Vec<LineAddr>,
}

impl RtmEngine {
    /// Creates an engine for machines built from `cfg`.
    pub fn new(cfg: &SystemConfig) -> Self {
        RtmEngine {
            states: Vec::new(),
            policy: cfg.conflict_policy,
            signature_bits: cfg.read_signature_bits,
            max_retries: cfg.max_htm_retries,
            in_fallback: Vec::new(),
            fallback_commits: 0,
            scratch_lines: Vec::new(),
        }
    }

    /// Immutable view of a core's HTM state (used by tests and by the
    /// composed designs).
    pub fn state(&self, core: CoreId) -> &HtmCoreState {
        &self.states[core.get()]
    }

    /// Whether `core`'s current transaction is running on the global-lock
    /// fallback path (composed designs must provide their own durability
    /// there — fallback stores are not tracked by the HTM write set).
    pub fn in_fallback(&self, core: CoreId) -> bool {
        self.in_fallback[core.get()]
    }

    /// Aborts the transaction currently running on `core` on behalf of a
    /// composed design (e.g. sdTM's fallback when its software log
    /// overflows): rolls back the speculative state, releases the fallback
    /// lock if held, and reports the abort.
    pub fn abort_current(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        now: u64,
        reason: AbortReason,
    ) -> StepOutcome {
        self.do_abort(machine, core, now, reason)
    }

    fn arbiter_config(&self) -> ArbiterConfig {
        ArbiterConfig::rtm_like(self.policy)
    }

    /// Rolls back the speculative state of `core` and reports the abort.
    fn do_abort(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        now: u64,
        reason: AbortReason,
    ) -> StepOutcome {
        if self.in_fallback[core.get()] {
            // Fallback transactions cannot abort; they hold the global lock.
            machine.locks.release_all(core);
            self.in_fallback[core.get()] = false;
        }
        machine
            .mem
            .l1_mut(core)
            .flash_invalidate_write_set_into(&mut self.scratch_lines);
        for &line in &self.scratch_lines {
            machine.mem.notify_clean_eviction(core, line);
        }
        machine.mem.l1_mut(core).flash_clear_read_bits();
        self.states[core.get()].reset_after_abort();
        let at = now + ABORT_OVERHEAD;
        StepOutcome::Aborted {
            at,
            retry_at: at,
            reason,
        }
    }

    /// Handles a line evicted from the L1 during a transactional fill.
    ///
    /// Returns `Some(abort_reason)` when the eviction is fatal for the
    /// transaction (write-set eviction in an L1-limited HTM).
    fn handle_victim(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        line: LineAddr,
        entry: &L1Entry,
        now: u64,
    ) -> Option<AbortReason> {
        if entry.write_bit {
            return Some(AbortReason::Capacity);
        }
        if entry.read_bit {
            // Read-set overflow: track in the signature; keep the directory's
            // sharer bit sticky so invalidations still reach this core.
            self.states[core.get()].signature.insert(line);
            if entry.dirty {
                machine
                    .mem
                    .writeback_to_llc(core, line, entry.data, now, true);
            }
            return None;
        }
        machine.mem.evict_nontransactional(core, line, entry, now);
        None
    }

    /// [`TxEngine::write`], with `fallback_kind` saying what a store on the
    /// global-lock fallback path does to its L1 line. The engine's own
    /// `write` passes [`StoreKind::Plain`]; a composed design whose fallback
    /// runs write-aside (sdTM) passes [`StoreKind::WriteAside`].
    pub fn write_with_fallback(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
        fallback_kind: StoreKind,
    ) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        let line = addr.line();
        let transactional = !self.in_fallback[core.get()];
        let cfg = self.arbiter_config();
        let out = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, transactional);
            machine.mem.store(core, line, now, &mut arb)
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
        let kind = if transactional {
            StoreKind::Transactional
        } else {
            fallback_kind
        };
        let write_bit_was_set = machine.mem.store_word_in_l1(core, addr, value, kind);
        if transactional {
            self.states[core.get()].record_store(line, write_bit_was_set);
        }
        StepOutcome::done(out.done)
    }
}

impl TxEngine for RtmEngine {
    fn design(&self) -> DesignKind {
        DesignKind::NonPersistent
    }

    fn init(&mut self, machine: &mut Machine) {
        let n = machine.num_cores();
        self.states = (0..n)
            .map(|_| HtmCoreState::new(self.signature_bits))
            .collect();
        self.in_fallback = vec![false; n];
        self.fallback_commits = 0;
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        _lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        let start = now.max(self.states[core.get()].next_begin_at);
        // Exhausted hardware retries: take the single-global-lock fallback.
        if self.states[core.get()].aborts_this_tx > self.max_retries {
            if !machine.locks.try_acquire_all(core, &[LockId::GLOBAL]) {
                return StepOutcome::Blocked {
                    retry_at: start + FALLBACK_SPIN,
                    period: FALLBACK_SPIN,
                };
            }
            self.in_fallback[core.get()] = true;
        } else if machine.locks.is_held(LockId::GLOBAL) {
            // A fallback transaction is running; hardware transactions wait
            // for it (the standard RTM lock-elision subscription).
            return StepOutcome::Blocked {
                retry_at: start + FALLBACK_SPIN,
                period: FALLBACK_SPIN,
            };
        }
        let tx = machine.tx_ids.allocate();
        self.states[core.get()].begin(tx, start);
        StepOutcome::done(start + COMMIT_OVERHEAD)
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
        let transactional = !self.in_fallback[core.get()];
        let cfg = self.arbiter_config();
        let out = {
            let mut arb = HtmArbiter::new(&mut self.states, cfg, transactional);
            machine.mem.load(core, line, now, &mut arb)
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
            let entry = machine.mem.l1_mut(core).entry_mut(line).expect("filled");
            let read_bit_was_set = std::mem::replace(&mut entry.read_bit, true);
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
        self.write_with_fallback(machine, core, addr, value, now, StoreKind::Plain)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        if let Some(reason) = self.states[core.get()].doomed {
            return self.do_abort(machine, core, now, reason);
        }
        let done = now + COMMIT_OVERHEAD;
        if self.in_fallback[core.get()] {
            machine.locks.release_all(core);
            self.in_fallback[core.get()] = false;
            self.fallback_commits += 1;
        } else {
            // Volatile commit: flash-clear the speculative bits, making the
            // write set visible; nothing needs to persist.
            machine.mem.l1_mut(core).flash_clear_write_bits();
            machine.mem.l1_mut(core).flash_clear_read_bits();
        }
        self.states[core.get()].snapshot_stats(done);
        self.states[core.get()].reset_after_commit(done);
        self.states[core.get()].status = TxStatus::Idle;
        StepOutcome::done(done)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.states[core.get()].last_stats.clone()
    }

    fn fallback_commits(&self) -> u64 {
        self.fallback_commits
    }

    fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        reg.add("engine/fallback_commits", self.fallback_commits);
        for (i, st) in self.states.iter().enumerate() {
            reg.add(
                &format!("core{i}/signature/insertions"),
                st.signature.insertions(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::config::SystemConfig;

    fn setup() -> (Machine, RtmEngine) {
        let cfg = SystemConfig::small_test();
        let mut machine = Machine::new(cfg.clone());
        let mut engine = RtmEngine::new(&cfg);
        engine.init(&mut machine);
        (machine, engine)
    }

    fn c(i: usize) -> CoreId {
        CoreId::new(i)
    }

    #[test]
    fn single_transaction_commits() {
        let (mut m, mut e) = setup();
        assert!(e.begin(&mut m, c(0), &[], 0).is_done());
        assert!(e.read(&mut m, c(0), Address::new(0x100), 10).is_done());
        assert!(e.write(&mut m, c(0), Address::new(0x100), 7, 300).is_done());
        let out = e.commit(&mut m, c(0), 1000);
        assert!(out.is_done());
        let stats = e.last_tx_stats(c(0));
        assert_eq!(stats.write_set_lines, 1);
        assert_eq!(stats.read_set_lines, 1);
        // Volatile commit: nothing was persisted.
        assert_eq!(m.mem.domain().read_line(Address::new(0x100).line())[0], 0);
    }

    #[test]
    fn write_conflict_aborts_one_side_first_writer_wins() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x2000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 1, 10).is_done();
        e.begin(&mut m, c(1), &[], 0);
        // Core 1 tries to write the same line: under first-writer-wins the
        // requester (core 1) aborts.
        let out = e.write(&mut m, c(1), addr, 2, 500);
        match out {
            StepOutcome::Aborted { reason, .. } => assert_eq!(reason, AbortReason::Conflict),
            other => panic!("expected abort, got {other:?}"),
        }
        // Core 0 is untouched and can commit.
        assert!(e.commit(&mut m, c(0), 1000).is_done());
    }

    #[test]
    fn requester_wins_policy_dooms_holder() {
        let cfg = SystemConfig::small_test().with_conflict_policy(ConflictPolicy::RequesterWins);
        let mut m = Machine::new(cfg.clone());
        let mut e = RtmEngine::new(&cfg);
        e.init(&mut m);
        let addr = Address::new(0x2000);
        e.begin(&mut m, c(0), &[], 0);
        e.write(&mut m, c(0), addr, 1, 10);
        e.begin(&mut m, c(1), &[], 0);
        assert!(e.write(&mut m, c(1), addr, 2, 500).is_done());
        // Core 0 is doomed and aborts at its next step.
        let out = e.commit(&mut m, c(0), 600);
        assert!(matches!(out, StepOutcome::Aborted { .. }));
    }

    #[test]
    fn read_write_conflict_aborts_reader() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x3000);
        e.begin(&mut m, c(0), &[], 0);
        e.read(&mut m, c(0), addr, 10);
        e.begin(&mut m, c(1), &[], 0);
        // Writer wins; reader (core 0) is doomed.
        assert!(e.write(&mut m, c(1), addr, 2, 500).is_done());
        assert!(matches!(
            e.commit(&mut m, c(0), 600),
            StepOutcome::Aborted { .. }
        ));
        assert!(e.commit(&mut m, c(1), 700).is_done());
    }

    #[test]
    fn write_set_eviction_causes_capacity_abort() {
        // The small_test L1 is 2 KB, 2-way, 64 B lines = 16 sets. Writing 3
        // lines that map to the same set must abort.
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64; // lines per set * line size
        let mut last = StepOutcome::done(0);
        for i in 0..3u64 {
            last = e.write(
                &mut m,
                c(0),
                Address::new(0x8000 + i * set_stride as u64),
                i,
                100 + i * 100,
            );
        }
        match last {
            StepOutcome::Aborted { reason, .. } => assert_eq!(reason, AbortReason::Capacity),
            other => panic!("expected capacity abort, got {other:?}"),
        }
    }

    #[test]
    fn read_set_eviction_overflows_into_signature_without_abort() {
        let (mut m, mut e) = setup();
        e.begin(&mut m, c(0), &[], 0);
        let set_stride = 16 * 64;
        for i in 0..4u64 {
            let out = e.read(
                &mut m,
                c(0),
                Address::new(0x8000 + i * set_stride as u64),
                100 + i * 100,
            );
            assert!(out.is_done(), "read-set overflow must not abort");
        }
        assert!(!e.state(c(0)).signature.is_empty());
        assert!(e.commit(&mut m, c(0), 10_000).is_done());
    }

    #[test]
    fn fallback_after_repeated_aborts() {
        let cfg = SystemConfig::small_test();
        let mut m = Machine::new(cfg.clone());
        let mut e = RtmEngine::new(&cfg);
        e.init(&mut m);
        // Manually accumulate aborts past the retry limit.
        e.states[0].aborts_this_tx = cfg.max_htm_retries + 1;
        assert!(e.begin(&mut m, c(0), &[], 0).is_done());
        assert!(e.in_fallback[0]);
        // A second core cannot start a fallback transaction concurrently.
        e.states[1].aborts_this_tx = cfg.max_htm_retries + 1;
        let blocked = StepOutcome::Blocked {
            retry_at: FALLBACK_SPIN,
            period: FALLBACK_SPIN,
        };
        assert_eq!(e.begin(&mut m, c(1), &[], 0), blocked);
        assert_eq!(m.locks.contended_attempts(), 1);
        // And a hardware transaction waits for the global lock too; that
        // subscription wait is not an acquisition attempt.
        assert_eq!(e.begin(&mut m, c(2), &[], 0), blocked);
        assert_eq!(m.locks.contended_attempts(), 1);
        assert!(e.write(&mut m, c(0), Address::new(0x40), 1, 10).is_done());
        assert!(e.commit(&mut m, c(0), 100).is_done());
        assert_eq!(e.fallback_commits(), 1);
        // After the fallback commit the lock is free again.
        assert!(e.begin(&mut m, c(2), &[], 100).is_done());
    }

    #[test]
    fn doomed_transaction_aborts_on_next_step() {
        let (mut m, mut e) = setup();
        let addr = Address::new(0x5000);
        e.begin(&mut m, c(0), &[], 0);
        e.read(&mut m, c(0), addr, 10);
        e.begin(&mut m, c(1), &[], 0);
        e.write(&mut m, c(1), addr, 9, 100); // dooms core 0 (writer wins)
        let out = e.read(&mut m, c(0), Address::new(0x6000), 200);
        assert!(matches!(out, StepOutcome::Aborted { .. }));
        // After the abort the core can run a fresh transaction.
        assert!(e.begin(&mut m, c(0), &[], 300).is_done());
        assert!(e.commit(&mut m, c(0), 400).is_done());
    }
}
