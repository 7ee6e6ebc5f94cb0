//! The recovery auditor: runs the recovery manager on a crash image and
//! checks the atomicity/durability oracles against the profiled timeline.
//!
//! # Oracle definitions
//!
//! Let `k` be the number of transactions whose commit step finished at or
//! before the crash point. The *expected image* `E_k` is the post-setup
//! durable image overlaid with the writes of the first `k` committed
//! transactions in commit order. For a durable design the recovered state
//! must match an expected image **exactly** over every tracked word (every
//! word any transaction ever wrote):
//!
//! * **durability** — every transaction the workload observed as committed
//!   before the crash is fully visible (its words hold `E_k` values);
//! * **atomicity** — no partial write-set survives: an in-flight or aborted
//!   transaction's words also hold `E_k` values (undo designs must have
//!   rolled them back, redo designs must never have written them in place);
//! * **mid-commit resolution** — when the crash lands *inside* commit
//!   `k+1`'s commit step the durable log decides: the recovered state must
//!   equal `E_k` or `E_{k+1}` in full, never a mixture;
//! * **sentinel ordering** — conflicting replays must resolve to the
//!   commit-order value (subsumed by the exact-image comparison).
//!
//! The non-persistent design (NP) makes no durability claim; its oracle is
//! only that recovery finds nothing to do (no logs ⇒ no replay/rollback).

use dhtm_nvm::domain::PersistentDomain;
use dhtm_nvm::recovery::{RecoveryManager, RecoveryReport};
use dhtm_types::addr::{Address, LineAddr, LineData, WordIndex};
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::RecoveryCounters;

use crate::probe::RunProfile;

/// Cap on recorded violation strings per audit (the counters still reflect
/// the full tally).
const MAX_VIOLATIONS: usize = 8;

/// The verdict for one crash point.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// The crash point on the mutation clock.
    pub point: u64,
    /// Commits fully durable before the crash (`k`).
    pub committed_before: u64,
    /// Whether the crash landed inside a commit step (recovery may resolve
    /// to `k` or `k+1`).
    pub ambiguous: bool,
    /// Whether the crash-interrupted commit was recovered as committed
    /// (only meaningful when `ambiguous`).
    pub resolved_forward: bool,
    /// Whether every oracle held.
    pub passed: bool,
    /// Human-readable descriptions of the first few violations.
    pub violations: Vec<String>,
    /// The recovery manager's own report for the crash image.
    pub report: RecoveryReport,
}

impl OracleOutcome {
    /// Folds this outcome into the aggregate counters used by `RunStats`.
    pub fn accumulate(&self, counters: &mut RecoveryCounters) {
        counters.crash_points += 1;
        if !self.passed {
            counters.oracle_failures += 1;
        }
        counters.replayed_transactions += self.report.replayed_transactions as u64;
        counters.rolled_back_transactions += self.report.rolled_back_transactions as u64;
        counters.skipped_complete += self.report.skipped_complete as u64;
        counters.skipped_uncommitted += self.report.skipped_uncommitted as u64;
        counters.lines_written += self.report.lines_written as u64;
        counters.words_written += self.report.words_written as u64;
        counters.redo_lines_applied += self.report.redo_lines_applied as u64;
        counters.undo_lines_applied += self.report.undo_lines_applied as u64;
        counters.sentinel_edges += self.report.sentinel_edges as u64;
    }
}

/// Expected contents of the tracked lines, sorted by line address.
type LineImage = Vec<(LineAddr, LineData)>;

/// Incremental expected-image state for auditing a cell's crash points in
/// ascending order: commits are folded in as the points move past them, so
/// auditing `P` points over `C` commits costs `O(P + C)` image updates
/// rather than `O(P × C)`.
#[derive(Debug)]
pub struct RecoveryAuditor<'a> {
    profile: &'a RunProfile,
    design: DesignKind,
    /// Expected contents of every tracked line after the first `applied`
    /// commits.
    image: LineImage,
    applied: usize,
    last_point: Option<u64>,
}

impl<'a> RecoveryAuditor<'a> {
    /// Creates an auditor for one cell's profile.
    ///
    /// The expected image covers *every word of every line* any transaction
    /// wrote — not just the written words — so collateral damage (a
    /// corrupted log payload clobbering a neighbouring word during replay,
    /// a partial-line write-back) is caught as well.
    pub fn new(profile: &'a RunProfile, design: DesignKind) -> Self {
        let mut lines: Vec<LineAddr> = profile.tracked.iter().map(|a| a.line()).collect();
        lines.dedup();
        let image = lines
            .into_iter()
            .map(|line| (line, profile.base.read_line(line)))
            .collect();
        RecoveryAuditor {
            profile,
            design,
            image,
            applied: 0,
            last_point: None,
        }
    }

    /// Writes a commit's word writes into `image`, in program order. Every
    /// written word lies on a tracked line.
    fn apply_commit(image: &mut LineImage, writes: &[(Address, u64)]) {
        for &(addr, value) in writes {
            let i = image
                .binary_search_by_key(&addr.line(), |&(line, _)| line)
                .expect("written words lie on tracked lines");
            image[i].1[addr.word_index().get()] = value;
        }
    }

    /// The words of `recovered` that differ from `image`, in address order:
    /// each tracked line is read once and compared word by word.
    fn mismatches(recovered: &PersistentDomain, image: &LineImage) -> Vec<String> {
        let mut out = Vec::new();
        for &(line, expected) in image {
            let got = recovered.read_line(line);
            for (w, (&got, &want)) in got.iter().zip(&expected).enumerate() {
                if got == want {
                    continue;
                }
                if out.len() == MAX_VIOLATIONS {
                    out.push("... further mismatches elided".to_string());
                    return out;
                }
                let addr = line.word_address(WordIndex::new(w));
                out.push(format!(
                    "word {:#x}: recovered {got:#x}, expected {want:#x}",
                    addr.raw()
                ));
            }
        }
        out
    }

    /// Audits one crash image. Points must be presented in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `point` is below a previously audited point.
    pub fn audit(&mut self, point: u64, snapshot: &PersistentDomain) -> OracleOutcome {
        if let Some(prev) = self.last_point {
            assert!(point >= prev, "audit points must be ascending");
        }
        self.last_point = Some(point);

        // Fold in every commit that became fully durable before this point.
        let k = self.profile.committed_before(point);
        while self.applied < k {
            let writes = &self.profile.commits[self.applied].writes;
            Self::apply_commit(&mut self.image, writes);
            self.applied += 1;
        }

        let mut recovered = snapshot.crash_snapshot();
        let recovery = RecoveryManager::new().recover(&mut recovered);
        let (report, mut violations) = match recovery {
            Ok(report) => (report, Vec::new()),
            Err(e) => (
                RecoveryReport::default(),
                vec![format!("recovery failed: {e}")],
            ),
        };

        let ambiguous_commit = self.profile.ambiguous_commit(point);
        let mut resolved_forward = false;

        if violations.is_empty() {
            if self.design.is_durable() {
                let base_mismatches = Self::mismatches(&recovered, &self.image);
                if base_mismatches.is_empty() {
                    // Consistent with E_k.
                } else if let Some(c) = ambiguous_commit {
                    // The crash interrupted commit k+1: the recovered state
                    // may instead equal E_{k+1} in full.
                    let mut next = self.image.clone();
                    Self::apply_commit(&mut next, &c.writes);
                    let forward = Self::mismatches(&recovered, &next);
                    if forward.is_empty() {
                        resolved_forward = true;
                    } else {
                        violations = base_mismatches;
                        violations.extend(forward.into_iter().map(|m| format!("(fwd) {m}")));
                        violations.truncate(MAX_VIOLATIONS);
                    }
                } else {
                    violations = base_mismatches;
                }
            } else {
                // NP: volatile HTM, no durable logs — recovery must find
                // nothing to replay or roll back.
                if report.replayed_transactions != 0 || report.rolled_back_transactions != 0 {
                    violations.push(format!(
                        "non-persistent design recovered state: {} replayed, {} rolled back",
                        report.replayed_transactions, report.rolled_back_transactions
                    ));
                }
            }
        }

        OracleOutcome {
            point,
            committed_before: k as u64,
            ambiguous: ambiguous_commit.is_some(),
            resolved_forward,
            passed: violations.is_empty(),
            violations,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CrashCell;
    use crate::plan::plan_points;
    use crate::probe::{capture_cell, profile_cell};
    use dhtm_types::config::SystemConfig;

    fn cell(design: DesignKind, workload: &str) -> CrashCell {
        CrashCell {
            design,
            workload: workload.to_string(),
            config: SystemConfig::small_test(),
            config_name: "small".to_string(),
            commits: 6,
            seed: 0x15CA_2018,
        }
    }

    fn audit_cell(design: DesignKind, workload: &str) -> Vec<OracleOutcome> {
        let c = cell(design, workload);
        let run = profile_cell(&c);
        let plan = plan_points(&run, 6, 6, &[], &[]);
        let points: Vec<u64> = plan.iter().map(|p| p.point).collect();
        let captures = capture_cell(&c, &points);
        let mut auditor = RecoveryAuditor::new(&run.profile, design);
        captures
            .iter()
            .map(|(point, snap)| auditor.audit(*point, snap))
            .collect()
    }

    #[test]
    fn dhtm_hash_passes_all_oracles() {
        let outcomes = audit_cell(DesignKind::Dhtm, "hash");
        for o in &outcomes {
            assert!(o.passed, "point {}: {:?}", o.point, o.violations);
        }
    }

    #[test]
    fn undo_design_rolls_back_in_flight_transactions() {
        let outcomes = audit_cell(DesignKind::LogTmAtom, "hash");
        for o in &outcomes {
            assert!(o.passed, "point {}: {:?}", o.point, o.violations);
        }
    }

    #[test]
    fn np_oracle_is_vacuous_but_runs() {
        let outcomes = audit_cell(DesignKind::NonPersistent, "hash");
        for o in &outcomes {
            assert!(o.passed, "point {}: {:?}", o.point, o.violations);
            assert_eq!(o.report.replayed_transactions, 0);
        }
    }

    #[test]
    fn mid_commit_points_resolve_consistently() {
        let outcomes = audit_cell(DesignKind::Dhtm, "queue");
        assert!(
            outcomes.iter().any(|o| o.ambiguous),
            "plan should include mid-commit points"
        );
        for o in &outcomes {
            assert!(o.passed, "point {}: {:?}", o.point, o.violations);
        }
    }

    #[test]
    fn tampered_image_fails_the_oracles() {
        let c = cell(DesignKind::Dhtm, "hash");
        let run = profile_cell(&c);
        // Crash at the very end: everything committed.
        let point = run.profile.total_mutations;
        let captures = capture_cell(&c, &[point]);
        let (p, snap) = &captures[0];
        let mut tampered = snap.crash_snapshot();
        // Corrupt one committed word in place.
        let addr = run.profile.tracked[0];
        let v = tampered.read_word(addr);
        tampered.memory_mut().write_word(addr, v ^ 0xFFFF);
        let mut auditor = RecoveryAuditor::new(&run.profile, DesignKind::Dhtm);
        let outcome = auditor.audit(*p, &tampered);
        assert!(!outcome.passed);
        assert!(outcome.violations[0].contains("recovered"));
    }

    /// The auditor's `violations` text, pinned verbatim: the JSON verdict
    /// report carries it, so its wording and order must not drift.
    #[test]
    fn violation_messages_are_pinned() {
        let c = cell(DesignKind::Dhtm, "hash");
        let run = profile_cell(&c);

        // A flipped redo payload at the first replayable point.
        let candidates: Vec<u64> = run
            .profile
            .commits
            .iter()
            .flat_map(|c| (c.step_start_mutations + 1)..c.step_end_mutations)
            .collect();
        let captures = capture_cell(&c, &candidates);
        let (point, snap) = captures
            .iter()
            .find(|(_, snap)| crate::fault::has_target(snap))
            .expect("DHTM exposes a replayable window");
        let mut flipped = snap.crash_snapshot();
        assert!(crate::fault::inject(
            &mut flipped,
            crate::fault::Fault::FlipRedoPayload
        ));
        let outcome = RecoveryAuditor::new(&run.profile, DesignKind::Dhtm).audit(*point, &flipped);
        assert_eq!(outcome.violations, FLIPPED, "point {point}");

        // More than `MAX_VIOLATIONS` corrupted words at the end of the run.
        let end = run.profile.total_mutations;
        let (_, snap) = &capture_cell(&c, &[end])[0];
        let mut tampered = snap.crash_snapshot();
        for &addr in run.profile.tracked.iter().take(MAX_VIOLATIONS + 3) {
            let v = tampered.read_word(addr);
            tampered.memory_mut().write_word(addr, v ^ 0xFF00);
        }
        let outcome = RecoveryAuditor::new(&run.profile, DesignKind::Dhtm).audit(end, &tampered);
        assert_eq!(outcome.violations, ELIDED);
    }

    const FLIPPED: &[&str] = &[
        "word 0x1171c0: recovered 0xdeadbeef0bae7566, expected 0x0",
        "word 0x1171c8: recovered 0x38594, expected 0x0",
        "word 0x840000: recovered 0x3856b, expected 0x0",
        "word 0x840008: recovered 0x38594, expected 0x0",
        "word 0x840010: recovered 0x3855c, expected 0x0",
        "word 0x840040: recovered 0x3856c, expected 0x0",
        "word 0x840048: recovered 0x38593, expected 0x0",
        "word 0x840080: recovered 0x3856d, expected 0x0",
    ];

    const ELIDED: &[&str] = &[
        "word 0x109940: recovered 0xff00, expected 0x0",
        "word 0x109948: recovered 0xffff, expected 0xff",
        "word 0x113800: recovered 0xff00, expected 0x0",
        "word 0x113808: recovered 0xffff, expected 0xff",
        "word 0x1171c0: recovered 0x37a6b, expected 0x3856b",
        "word 0x1171c8: recovered 0x37a94, expected 0x38594",
        "word 0x1203c0: recovered 0xdf793, expected 0xd0893",
        "word 0x1203c8: recovered 0xdf76c, expected 0xd086c",
        "... further mismatches elided",
    ];
}
