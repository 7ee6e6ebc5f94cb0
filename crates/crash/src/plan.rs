//! The crash-point scheduler: which points on the durable-mutation clock to
//! crash at.
//!
//! Two families of points are combined:
//!
//! * **stratified** — evenly spaced samples across the whole run, so every
//!   phase of execution gets coverage;
//! * **adversarial** — points aimed at the windows where recovery actually
//!   has work to do: inside commit steps (between the commit record and the
//!   data write-backs — mid-commit and mid-log-drain) and inside the other
//!   multi-mutation steps (mid-overflow, mid-abort-rollback).

use crate::probe::ProfiledRun;

/// How a crash point was chosen (carried through to the verdicts so reports
/// can distinguish coverage kinds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// Evenly spaced across the run.
    Stratified,
    /// Aimed inside a commit step or another multi-mutation window.
    Adversarial,
    /// Requested explicitly (CLI `--crash-at` or a test), already
    /// denominated in mutations.
    Explicit,
    /// Requested explicitly as a cycle and translated via the profile.
    Cycle(u64),
}

impl std::fmt::Display for PointKind {
    /// The report label of the kind ("stratified", "adversarial",
    /// "explicit", "cycle@N") — the single source every renderer uses.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointKind::Stratified => f.write_str("stratified"),
            PointKind::Adversarial => f.write_str("adversarial"),
            PointKind::Explicit => f.write_str("explicit"),
            PointKind::Cycle(c) => write!(f, "cycle@{c}"),
        }
    }
}

/// A planned crash point on the mutation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Mutation-clock value: the crash preserves exactly this many durable
    /// mutations.
    pub point: u64,
    /// How the point was chosen.
    pub kind: PointKind,
}

/// Evenly spaced points over `[0, total]`, endpoints included when they fit.
pub fn stratified_points(total: u64, n: usize) -> Vec<u64> {
    if n == 0 {
        return Vec::new();
    }
    if n == 1 || total == 0 {
        return vec![total / 2];
    }
    (0..n)
        .map(|i| (total as u128 * i as u128 / (n as u128 - 1)) as u64)
        .collect()
}

/// Adversarial points from the profiled timeline: for up to `budget` commit
/// steps (spread across the run) the first intra-step point, the midpoint
/// and the last intra-step point — bracketing the commit record — plus
/// midpoints of the largest non-commit mutating steps (evictions, overflow
/// handling, abort rollbacks) with any remaining budget.
pub fn adversarial_points(run: &ProfiledRun, budget: usize) -> Vec<u64> {
    let mut points = Vec::new();
    if budget == 0 {
        return points;
    }
    // Commit steps that actually mutated the domain (NP's commits do not —
    // nothing durable happens, so there is no window to aim at).
    let commits: Vec<&crate::probe::CommitEvent> = run
        .profile
        .commits
        .iter()
        .filter(|c| c.step_end_mutations > c.step_start_mutations)
        .collect();
    if !commits.is_empty() {
        // Spread the commit-step picks across the run rather than
        // clustering on the first commits.
        let picks = budget.div_ceil(3).min(commits.len());
        for i in 0..picks {
            let idx = i * commits.len() / picks;
            let c = commits[idx];
            let (s, e) = (c.step_start_mutations, c.step_end_mutations);
            points.push(s + 1);
            points.push(s + (e - s) / 2);
            points.push((e - 1).max(s + 1));
        }
    }
    // Largest non-commit mutating steps (by span width).
    let commit_spans: Vec<(u64, u64)> = commits
        .iter()
        .map(|c| (c.step_start_mutations, c.step_end_mutations))
        .collect();
    let mut other: Vec<(u64, u64)> = run
        .step_spans
        .iter()
        .map(|&(_, s, e)| (s, e))
        .filter(|&(s, e)| e - s >= 2 && !commit_spans.contains(&(s, e)))
        .collect();
    other.sort_by_key(|&(s, e)| (std::cmp::Reverse(e - s), s));
    for &(s, e) in other.iter().take(budget.saturating_sub(points.len())) {
        points.push(s + (e - s) / 2);
    }
    points.truncate(budget.max(3));
    points
}

/// Builds the full plan for one profiled cell: stratified + adversarial +
/// explicit points, deduplicated and sorted ascending (the order crash
/// images are replayed in).
pub fn plan_points(
    run: &ProfiledRun,
    stratified: usize,
    adversarial: usize,
    explicit: &[u64],
    at_cycles: &[u64],
) -> Vec<CrashPoint> {
    let total = run.profile.total_mutations;
    let mut points: Vec<CrashPoint> = Vec::new();
    for p in stratified_points(total, stratified) {
        points.push(CrashPoint {
            point: p,
            kind: PointKind::Stratified,
        });
    }
    for p in adversarial_points(run, adversarial) {
        points.push(CrashPoint {
            point: p.min(total),
            kind: PointKind::Adversarial,
        });
    }
    for &p in explicit {
        points.push(CrashPoint {
            point: p.min(total),
            kind: PointKind::Explicit,
        });
    }
    for &c in at_cycles {
        points.push(CrashPoint {
            point: run.cycle_to_mutation_point(c),
            kind: PointKind::Cycle(c),
        });
    }
    points.sort_by_key(|p| p.point);
    points.dedup_by_key(|p| p.point);
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CrashCell;
    use crate::probe::profile_cell;
    use dhtm_types::config::SystemConfig;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn stratified_spacing_covers_both_endpoints() {
        let pts = stratified_points(100, 5);
        assert_eq!(pts, vec![0, 25, 50, 75, 100]);
        assert_eq!(stratified_points(100, 1), vec![50]);
        assert!(stratified_points(100, 0).is_empty());
        assert_eq!(stratified_points(0, 3), vec![0]);
    }

    #[test]
    fn plan_is_sorted_deduped_and_mixes_kinds() {
        let cell = CrashCell {
            design: DesignKind::Dhtm,
            workload: "hash".to_string(),
            config: SystemConfig::small_test(),
            config_name: "small".to_string(),
            commits: 6,
            seed: 1,
        };
        let run = profile_cell(&cell);
        let plan = plan_points(&run, 8, 6, &[3], &[]);
        assert!(plan.len() >= 8);
        for pair in plan.windows(2) {
            assert!(pair[0].point < pair[1].point);
        }
        assert!(plan.iter().any(|p| p.kind == PointKind::Adversarial));
        assert!(plan.iter().any(|p| p.kind == PointKind::Stratified));
        // Adversarial points land strictly inside commit steps.
        let inside = plan
            .iter()
            .filter(|p| p.kind == PointKind::Adversarial)
            .filter(|p| run.profile.ambiguous_commit(p.point).is_some())
            .count();
        assert!(inside > 0, "at least one mid-commit crash point");
    }

    #[test]
    fn cycle_points_translate_through_the_profile() {
        let cell = CrashCell {
            design: DesignKind::SoftwareOnly,
            workload: "queue".to_string(),
            config: SystemConfig::small_test(),
            config_name: "small".to_string(),
            commits: 4,
            seed: 1,
        };
        let run = profile_cell(&cell);
        assert_eq!(run.cycle_to_mutation_point(0), 0);
        let end = run.step_spans.last().unwrap().2;
        assert_eq!(run.cycle_to_mutation_point(u64::MAX), end);
        let plan = plan_points(&run, 0, 0, &[], &[1_000_000_000]);
        assert_eq!(plan.len(), 1);
        assert!(matches!(plan[0].kind, PointKind::Cycle(_)));
    }
}
