//! The HTM conflict arbiter plugged into the coherence protocol.
//!
//! Conflict detection is eager and piggybacks on coherence (Section II-A):
//! when the directory forwards or invalidates a line held by another core,
//! the holder's transactional state decides whether this is a conflict and
//! the resolution policy decides who aborts. The same arbiter serves every
//! HTM-based design; flags select the design-specific behaviours
//! (sticky-state overflow detection for DHTM, NACKing for LogTM,
//! dependency recording for committed-but-incomplete transactions).

use dhtm_coherence::probe::{ConflictArbiter, ProbeDecision, ProbeInfo};
use dhtm_types::ids::{CoreId, TxId};
use dhtm_types::policy::ConflictPolicy;
use dhtm_types::stats::AbortReason;

use crate::tx_state::{HtmCoreState, TxStatus};

/// Static configuration of the arbiter's behaviour for one design.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterConfig {
    /// The conflict resolution policy.
    pub policy: ConflictPolicy,
    /// NACK the requester instead of aborting either side when the holder is
    /// actively using the line (LogTM-style stalling).
    pub nack_instead_of_abort: bool,
    /// Record a dependency when a probe touches the write set of a
    /// committed-but-incomplete transaction (DHTM writes sentinel log
    /// records from these).
    pub record_dependencies: bool,
}

impl ArbiterConfig {
    /// Configuration for an RTM-like design with the paper's default
    /// first-writer-wins policy.
    #[inline]
    pub fn rtm_like(policy: ConflictPolicy) -> Self {
        ArbiterConfig {
            policy,
            nack_instead_of_abort: false,
            record_dependencies: false,
        }
    }

    /// Configuration for the DHTM engine.
    #[inline]
    pub fn dhtm(policy: ConflictPolicy) -> Self {
        ArbiterConfig {
            policy,
            nack_instead_of_abort: false,
            record_dependencies: true,
        }
    }

    /// Configuration for a LogTM-style engine.
    #[inline]
    pub fn logtm(policy: ConflictPolicy) -> Self {
        ArbiterConfig {
            policy,
            nack_instead_of_abort: true,
            record_dependencies: false,
        }
    }
}

/// A view over the per-core HTM states used while one access is in flight.
///
/// The arbiter only mutates the `doomed` markers of holders that lose a
/// conflict and appends to the dependency list; the engine applies the
/// consequences (aborting doomed transactions, writing sentinels) after the
/// access returns.
#[derive(Debug)]
pub struct HtmArbiter<'a> {
    states: &'a mut [HtmCoreState],
    config: ArbiterConfig,
    /// Whether the requesting core is itself inside a transaction. A
    /// non-transactional requester never aborts; strong isolation dictates
    /// that the transactional holder aborts instead.
    requester_active: bool,
    /// Dependencies discovered during the access: (requesting core, id of the
    /// committed-but-incomplete transaction whose data it consumed).
    dependencies: Vec<(CoreId, TxId)>,
    /// Conflicts in which a holder was doomed.
    holders_doomed: usize,
}

impl<'a> HtmArbiter<'a> {
    /// Creates an arbiter over the design's per-core states.
    #[inline]
    pub fn new(
        states: &'a mut [HtmCoreState],
        config: ArbiterConfig,
        requester_active: bool,
    ) -> Self {
        HtmArbiter {
            states,
            config,
            requester_active,
            dependencies: Vec::new(),
            holders_doomed: 0,
        }
    }

    /// Dependencies on committed-but-incomplete transactions discovered
    /// during the access (drained by the engine to emit sentinels).
    #[inline]
    pub fn into_dependencies(self) -> Vec<(CoreId, TxId)> {
        self.dependencies
    }

    /// Number of holders doomed during the access.
    pub fn holders_doomed(&self) -> usize {
        self.holders_doomed
    }
}

impl ConflictArbiter for HtmArbiter<'_> {
    fn decide(&mut self, probe: &ProbeInfo) -> ProbeDecision {
        let holder = &mut self.states[probe.holder.get()];

        match holder.status {
            TxStatus::Idle => return ProbeDecision::Proceed,
            TxStatus::Committed => {
                // Section III-B: a line still marked speculative may belong to
                // a committed-but-incomplete transaction; this is not a
                // conflict, but the requester's transaction becomes dependent
                // on the holder's committed updates.
                if self.config.record_dependencies
                    && self.requester_active
                    && holder.in_write_set(probe.line)
                {
                    self.dependencies.push((probe.requester, holder.tx));
                }
                return ProbeDecision::Proceed;
            }
            TxStatus::Active => {}
        }

        // The holder is in an active transaction. Classify the conflict.
        let in_write_set =
            holder.in_write_set(probe.line) || (probe.holder_has_line && probe.holder_write_bit);
        let in_read_set = probe.holder_read_bit || holder.in_read_set(probe.line);

        let write_conflict = in_write_set;
        let read_conflict = probe.kind.is_write_request() && in_read_set;

        if !write_conflict && !read_conflict {
            return ProbeDecision::Proceed;
        }

        // Strong isolation: a non-transactional requester always wins and the
        // transactional holder aborts (Section III-B, "Non-transactional
        // accesses ... aborting an ongoing transaction if it conflicts").
        if !self.requester_active {
            holder.doomed = Some(AbortReason::Conflict);
            self.holders_doomed += 1;
            return ProbeDecision::AbortHolder;
        }

        if self.config.nack_instead_of_abort {
            return ProbeDecision::Nack;
        }

        if write_conflict {
            if self.config.policy.requester_aborts_on_write_conflict() {
                ProbeDecision::AbortRequester
            } else {
                holder.doomed = Some(AbortReason::Conflict);
                self.holders_doomed += 1;
                ProbeDecision::AbortHolder
            }
        } else {
            // Read-write conflict: the writer (requester) wins under both
            // policies; the reading holder aborts.
            if self.config.policy.requester_aborts_on_read_conflict() {
                ProbeDecision::AbortRequester
            } else {
                holder.doomed = Some(AbortReason::Conflict);
                self.holders_doomed += 1;
                ProbeDecision::AbortHolder
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_coherence::probe::ProbeKind;
    use dhtm_types::addr::LineAddr;

    fn probe(holder: usize, kind: ProbeKind, has_line: bool, wbit: bool, rbit: bool) -> ProbeInfo {
        ProbeInfo {
            requester: CoreId::new(0),
            holder: CoreId::new(holder),
            line: LineAddr::new(42),
            kind,
            holder_has_line: has_line,
            holder_write_bit: wbit,
            holder_read_bit: rbit,
            holder_dirty: wbit,
        }
    }

    fn states(n: usize) -> Vec<HtmCoreState> {
        (0..n).map(|_| HtmCoreState::new(256)).collect()
    }

    #[test]
    fn idle_holder_never_conflicts() {
        let mut s = states(2);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::Proceed);
    }

    #[test]
    fn first_writer_wins_aborts_requester_on_write_conflict() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_store(LineAddr::new(42), false);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::AbortRequester);
        assert!(s[1].doomed.is_none());
    }

    #[test]
    fn requester_wins_dooms_holder_on_write_conflict() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_store(LineAddr::new(42), false);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::RequesterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::AbortHolder);
        assert_eq!(arb.holders_doomed(), 1);
        assert_eq!(s[1].doomed, Some(AbortReason::Conflict));
    }

    #[test]
    fn read_write_conflict_writer_wins_under_both_policies() {
        for policy in [
            ConflictPolicy::FirstWriterWins,
            ConflictPolicy::RequesterWins,
        ] {
            let mut s = states(2);
            s[1].begin(TxId::new(5), 0);
            s[1].record_load(LineAddr::new(42), false);
            let mut arb = HtmArbiter::new(&mut s, ArbiterConfig::rtm_like(policy), true);
            let d = arb.decide(&probe(1, ProbeKind::Invalidate, true, false, true));
            assert_eq!(d, ProbeDecision::AbortHolder, "policy {policy}");
        }
    }

    #[test]
    fn read_read_sharing_is_not_a_conflict() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_load(LineAddr::new(42), false);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetS, true, false, true));
        assert_eq!(d, ProbeDecision::Proceed);
    }

    #[test]
    fn sticky_absent_line_in_write_set_is_detected() {
        // DHTM overflow: the holder's L1 no longer has the line but the
        // shadow write set (== overflow list) does.
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_store(LineAddr::new(42), false);
        s[1].overflowed.insert(LineAddr::new(42));
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::dhtm(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetS, false, false, false));
        assert_eq!(d, ProbeDecision::AbortRequester);
    }

    #[test]
    fn signature_hit_on_absent_line_counts_as_read_set() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].signature.insert(LineAddr::new(42));
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::Invalidate, false, false, false));
        assert_eq!(d, ProbeDecision::AbortHolder);
    }

    #[test]
    fn non_transactional_requester_always_wins() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_store(LineAddr::new(42), false);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            false,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::AbortHolder);
    }

    #[test]
    fn logtm_nacks_instead_of_aborting() {
        let mut s = states(2);
        s[1].begin(TxId::new(5), 0);
        s[1].record_store(LineAddr::new(42), false);
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::logtm(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::Nack);
        assert!(s[1].doomed.is_none());
    }

    #[test]
    fn committed_holder_yields_dependency_not_conflict() {
        let mut s = states(2);
        s[1].begin(TxId::new(9), 0);
        s[1].record_store(LineAddr::new(42), false);
        s[1].status = TxStatus::Committed;
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::dhtm(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::Proceed);
        let deps = arb.into_dependencies();
        assert_eq!(deps, vec![(CoreId::new(0), TxId::new(9))]);
    }

    #[test]
    fn committed_holder_without_dependency_recording_just_proceeds() {
        let mut s = states(2);
        s[1].begin(TxId::new(9), 0);
        s[1].record_store(LineAddr::new(42), false);
        s[1].status = TxStatus::Committed;
        let mut arb = HtmArbiter::new(
            &mut s,
            ArbiterConfig::rtm_like(ConflictPolicy::FirstWriterWins),
            true,
        );
        let d = arb.decide(&probe(1, ProbeKind::FwdGetM, true, true, false));
        assert_eq!(d, ProbeDecision::Proceed);
        assert!(arb.into_dependencies().is_empty());
    }
}
