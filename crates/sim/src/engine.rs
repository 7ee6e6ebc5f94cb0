//! The transaction-engine interface implemented by every evaluated design.

use dhtm_types::addr::Address;
use dhtm_types::ids::CoreId;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::{AbortReason, TxStats};

use crate::locks::LockId;
use crate::machine::Machine;

/// Result of asking an engine to perform one step of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The step completed at cycle `at`.
    Done {
        /// Completion cycle.
        at: u64,
    },
    /// The transaction aborted; the engine has already rolled back its own
    /// state. The driver should retry the whole transaction no earlier than
    /// `retry_at`.
    Aborted {
        /// Cycle at which the abort (including any clean-up the core itself
        /// must wait for) finished.
        at: u64,
        /// Earliest cycle at which the retry may begin.
        retry_at: u64,
        /// Why the transaction aborted.
        reason: AbortReason,
    },
    /// The step could not make progress (NACKed request, busy resource).
    /// The driver should re-issue the *same* step at `retry_at`.
    Stall {
        /// Cycle at which to retry the step.
        retry_at: u64,
    },
    /// `begin` found a lock in [`Machine::locks`] busy: an SO/ATOM lock
    /// set, or the HTM designs' global fallback lock. It is accounted
    /// exactly like a [`StepOutcome::Stall`] to `retry_at`, and promises
    /// more: until some lock is released, re-issuing the same `begin` at
    /// `retry_at + k * period` would return `Blocked` again with the same
    /// `period` and change nothing but the table's contended-attempt
    /// count. The driver therefore parks the core instead of re-issuing
    /// it, and wakes it on the next release.
    Blocked {
        /// Cycle of the first re-check.
        retry_at: u64,
        /// Cycles between re-checks after the first.
        period: u64,
    },
}

impl StepOutcome {
    /// Convenience constructor for a completed step.
    pub fn done(at: u64) -> Self {
        StepOutcome::Done { at }
    }

    /// Whether the step completed.
    pub fn is_done(&self) -> bool {
        matches!(self, StepOutcome::Done { .. })
    }
}

/// The interface between the simulation driver and a design.
///
/// One engine instance drives all cores of the machine; per-core state lives
/// inside the engine. Engines are deterministic: the same machine, workload
/// and call sequence produce the same outcomes.
pub trait TxEngine {
    /// Which of the paper's designs this engine implements.
    fn design(&self) -> DesignKind;

    /// Called once before a simulation run to size per-core state.
    fn init(&mut self, machine: &mut Machine);

    /// Begins a transaction on `core` at cycle `now`. `lock_set` is the set
    /// of locks the transaction would acquire under lock-based concurrency
    /// control; HTM-based designs ignore it (except on their fallback path).
    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome;

    /// Performs a transactional load of `addr`.
    fn read(&mut self, machine: &mut Machine, core: CoreId, addr: Address, now: u64)
        -> StepOutcome;

    /// Performs a transactional store of `value` to `addr`.
    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome;

    /// Attempts to commit the transaction running on `core`.
    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome;

    /// Statistics describing the transaction that most recently committed on
    /// `core` (write-set size etc.). Called by the driver immediately after a
    /// successful commit.
    fn last_tx_stats(&mut self, _core: CoreId) -> TxStats {
        TxStats::default()
    }

    /// Number of committed transactions that took the engine's software
    /// fallback path (if it has one).
    fn fallback_commits(&self) -> u64 {
        0
    }

    /// Registers the engine's own lifetime counters (log-buffer occupancy,
    /// drain durations, fallback activity, ...) into `reg`. The default is a
    /// no-op: engines without internal observability export nothing, and
    /// callers pay nothing unless they ask for a registry after the run.
    fn probes_into(&self, _reg: &mut dhtm_obs::ProbeRegistry) {}
}

/// The polling reference model of the parking driver: wraps an engine and
/// reports every [`StepOutcome::Blocked`] as the plain [`StepOutcome::Stall`]
/// it refines, so the driver re-issues each lock poll instead of parking the
/// core. A run through `Polling` executes every poll a parked core skips and
/// must yield the same statistics, observer events and durable state as the
/// unwrapped run; the driver's settle tests and the harness's parking
/// equivalence suite replay runs both ways.
#[derive(Debug)]
pub struct Polling<E>(pub E);

impl<E: TxEngine> TxEngine for Polling<E> {
    fn design(&self) -> DesignKind {
        self.0.design()
    }

    fn init(&mut self, machine: &mut Machine) {
        self.0.init(machine);
    }

    fn begin(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        lock_set: &[LockId],
        now: u64,
    ) -> StepOutcome {
        match self.0.begin(machine, core, lock_set, now) {
            StepOutcome::Blocked { retry_at, .. } => StepOutcome::Stall { retry_at },
            outcome => outcome,
        }
    }

    fn read(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        now: u64,
    ) -> StepOutcome {
        self.0.read(machine, core, addr, now)
    }

    fn write(
        &mut self,
        machine: &mut Machine,
        core: CoreId,
        addr: Address,
        value: u64,
        now: u64,
    ) -> StepOutcome {
        self.0.write(machine, core, addr, value, now)
    }

    fn commit(&mut self, machine: &mut Machine, core: CoreId, now: u64) -> StepOutcome {
        self.0.commit(machine, core, now)
    }

    fn last_tx_stats(&mut self, core: CoreId) -> TxStats {
        self.0.last_tx_stats(core)
    }

    fn fallback_commits(&self) -> u64 {
        self.0.fallback_commits()
    }

    fn probes_into(&self, reg: &mut dhtm_obs::ProbeRegistry) {
        self.0.probes_into(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_outcome_helpers() {
        assert!(StepOutcome::done(5).is_done());
        assert!(!StepOutcome::Stall { retry_at: 10 }.is_done());
        assert!(!StepOutcome::Blocked {
            retry_at: 10,
            period: 60
        }
        .is_done());
        assert_eq!(StepOutcome::done(5), StepOutcome::Done { at: 5 });
    }
}
