//! The streaming observation interface of the simulation driver.
//!
//! A [`SimObserver`] receives a callback for every semantic event of a run
//! — transaction begins, commits, aborts and durable-mutation-clock
//! advances — *without* being able to perturb the run: every
//! callback gets immutable references only, so an observed run is
//! bit-identical to an unobserved one (enforced by the driver's parity
//! tests). This replaces the old one-off session flags
//! (`observe_started_transactions`, out-of-band crash-probe plumbing): the
//! crash subsystem's profile recorder and the scenario metrics sink are
//! both ordinary implementations of this trait.

use dhtm_nvm::domain::PersistentDomain;
use dhtm_types::ids::CoreId;
use dhtm_types::stats::AbortReason;

use crate::workload::Transaction;

/// Immutable context handed to every observer callback: where the event
/// happened and the durable state at that point.
#[derive(Debug)]
pub struct StepContext<'a> {
    /// The core whose event was processed.
    pub core: CoreId,
    /// The simulated cycle at which the event was processed (the event's
    /// pop time off the scheduler heap).
    pub now: u64,
    /// The core's local clock after the step.
    pub core_time: u64,
    /// Transactions committed across all cores, *after* this step.
    pub total_committed: u64,
    /// Durable-mutation clock before the step.
    pub mutations_before: u64,
    /// Durable-mutation clock after the step.
    pub mutations_after: u64,
    /// The persistent domain at the post-step cut — everything that would
    /// survive a crash right now.
    pub domain: &'a PersistentDomain,
}

/// Streaming observer of a simulation run. All methods default to no-ops;
/// implement only what you need. Callbacks fire in a fixed order within one
/// step: `on_begin`, `on_durable_tick`, then `on_commit` or `on_abort`.
pub trait SimObserver {
    /// A new logical transaction was fetched from the workload for
    /// `ctx.core` (fires once per logical transaction, before its first
    /// begin attempt).
    fn on_begin(&mut self, _ctx: &StepContext<'_>, _tx: &Transaction) {}

    /// The transaction committed in this step.
    fn on_commit(&mut self, _ctx: &StepContext<'_>, _tx: &Transaction) {}

    /// A transaction attempt aborted in this step.
    fn on_abort(&mut self, _ctx: &StepContext<'_>, _reason: AbortReason) {}

    /// The step advanced the durable-mutation clock
    /// (`ctx.mutations_after > ctx.mutations_before`).
    fn on_durable_tick(&mut self, _ctx: &StepContext<'_>) {}
}

/// The do-nothing observer used by unobserved runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_object_safe_and_inert() {
        // Compile-time object safety + a trivially callable default impl.
        let mut obs: Box<dyn SimObserver> = Box::new(NullObserver);
        let domain = PersistentDomain::new(1, 16, 16);
        let ctx = StepContext {
            core: CoreId::new(0),
            now: 0,
            core_time: 0,
            total_committed: 0,
            mutations_before: 0,
            mutations_after: 0,
            domain: &domain,
        };
        obs.on_durable_tick(&ctx);
    }
}
