//! The crash matrix: every design × workload cell becomes a
//! crash-recovery experiment swept over a plan of crash points.

use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;
use dhtm_types::seed::stable_cell_seed;
use dhtm_types::stats::{RecoveryCounters, RunStats};

use crate::fault::{self, Fault};
use crate::oracle::{OracleOutcome, RecoveryAuditor};
use crate::plan::{plan_points, PointKind};
use crate::probe::profile_cell;

/// One design × workload crash-experiment cell.
#[derive(Debug, Clone)]
pub struct CrashCell {
    /// The design under test.
    pub design: DesignKind,
    /// Workload name ("hash", "queue", ...).
    pub workload: String,
    /// The machine configuration.
    pub config: SystemConfig,
    /// Name of the configuration (for reports).
    pub config_name: String,
    /// Commit target of the underlying run.
    pub commits: u64,
    /// Workload seed (shared by all designs of a workload group).
    pub seed: u64,
}

impl CrashCell {
    /// The cell's runnable form: its engine resolved through the engine
    /// registry, with the cell's exact configuration and workload seed —
    /// the single construction path the profile run shares with the
    /// experiment harness.
    pub fn resolved(&self) -> dhtm_scenario::ResolvedSpec {
        dhtm_scenario::ResolvedSpec::from_parts(
            &self.design.into(),
            self.workload.clone(),
            self.config.clone(),
            dhtm_scenario::SpecLimits {
                // Crash cells have always run under `RunLimits::evaluation`
                // (the `SpecLimits` default) with their own commit target.
                target_commits: self.commits,
                ..dhtm_scenario::SpecLimits::default()
            },
            self.seed,
        )
    }
}

/// The verdict for one crash point of one cell.
#[derive(Debug, Clone)]
pub struct PointVerdict {
    /// How the point was chosen.
    pub kind: PointKind,
    /// The auditor's verdict.
    pub outcome: OracleOutcome,
}

/// All verdicts of one cell.
#[derive(Debug)]
pub struct CrashCellReport {
    /// The cell that ran.
    pub cell: CrashCell,
    /// Final value of the durable-mutation clock for the run.
    pub total_mutations: u64,
    /// Run statistics of the profiled run, with the aggregated recovery
    /// counters folded in (rounds through the standard JSON/CSV emitters).
    pub stats: RunStats,
    /// One verdict per planned crash point, ascending.
    pub verdicts: Vec<PointVerdict>,
}

impl CrashCellReport {
    /// Whether every crash point passed every oracle.
    pub fn all_passed(&self) -> bool {
        self.verdicts.iter().all(|v| v.outcome.passed)
    }

    /// Aggregated recovery counters over all points.
    pub fn counters(&self) -> RecoveryCounters {
        self.stats.recovery
    }
}

/// The declarative crash matrix.
#[derive(Debug, Clone)]
pub struct CrashMatrix {
    /// Designs to sweep (typically all six).
    pub designs: Vec<DesignKind>,
    /// Workload names to sweep.
    pub workloads: Vec<String>,
    /// Machine configuration for every cell.
    pub config: SystemConfig,
    /// Its report name.
    pub config_name: String,
    /// Commit target per cell.
    pub commits: u64,
    /// Base seed (mixed per workload exactly like the experiment harness).
    pub seed: u64,
    /// Number of stratified crash points per cell.
    pub stratified: usize,
    /// Adversarial-point budget per cell.
    pub adversarial: usize,
    /// Extra cycle-denominated crash points (CLI `--crash-at`).
    pub at_cycles: Vec<u64>,
}

impl CrashMatrix {
    /// A matrix over `designs × workloads` with the default point plan
    /// (8 stratified + 6 adversarial points per cell).
    pub fn new<I, S>(designs: &[DesignKind], workloads: I, config: SystemConfig) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        CrashMatrix {
            designs: designs.to_vec(),
            workloads: workloads.into_iter().map(Into::into).collect(),
            config,
            config_name: "default".to_string(),
            commits: 12,
            seed: 0x15CA_2018,
            stratified: 8,
            adversarial: 6,
            at_cycles: Vec::new(),
        }
    }

    /// Expands the matrix into cells, workload-major / design-minor (every
    /// design of a workload group shares its seed and transaction stream).
    pub fn cells(&self) -> Vec<CrashCell> {
        let cores = self.config.num_cores;
        let mut cells = Vec::new();
        for workload in &self.workloads {
            let seed = stable_cell_seed(self.seed, workload, cores);
            for &design in &self.designs {
                cells.push(CrashCell {
                    design,
                    workload: workload.clone(),
                    config: self.config.clone(),
                    config_name: self.config_name.clone(),
                    commits: self.commits,
                    seed,
                });
            }
        }
        cells
    }

    /// Runs every cell on `jobs` worker threads (1 = serial), returning
    /// reports in cell-enumeration order regardless of scheduling.
    pub fn run(&self, jobs: usize) -> Vec<CrashCellReport> {
        dhtm_scenario::par_map(&self.cells(), jobs, |cell| self.run_cell(cell))
    }

    /// Runs one cell: profile (the cell's only simulation), plan, then
    /// replay and audit each point in ascending order.
    pub fn run_cell(&self, cell: &CrashCell) -> CrashCellReport {
        let run = profile_cell(cell);
        let plan = plan_points(
            &run,
            self.stratified,
            self.adversarial,
            &[],
            &self.at_cycles,
        );

        let mut replay = run.replay();
        let mut auditor = RecoveryAuditor::new(&run.profile, cell.design);
        let mut counters = RecoveryCounters::default();
        let verdicts: Vec<PointVerdict> = plan
            .iter()
            .map(|p| {
                let snapshot = replay.image_at(p.point);
                let outcome = auditor.audit(snapshot.mutation_count(), snapshot);
                outcome.accumulate(&mut counters);
                PointVerdict {
                    kind: p.kind,
                    outcome,
                }
            })
            .collect();

        let mut stats = run.profile.result.stats.clone();
        stats.recovery = counters;
        CrashCellReport {
            cell: cell.clone(),
            total_mutations: run.profile.total_mutations,
            stats,
            verdicts,
        }
    }
}

/// The outcome of the fault-injected negative control.
#[derive(Debug, Clone, Copy)]
pub struct NegativeControl {
    /// The crash point the control ran at.
    pub point: u64,
    /// The uncorrupted image passed (sanity: the control isolates the
    /// fault, not a pre-existing failure).
    pub clean_passed: bool,
    /// Flipping a committed redo payload was detected as an oracle failure.
    pub flip_detected: bool,
    /// Dropping a commit marker was detected at at least one candidate
    /// point (requires forward evidence — partially written-back data — so
    /// it is scanned over all candidates).
    pub drop_detected: bool,
}

impl NegativeControl {
    /// Whether the control demonstrates the oracles can fail.
    pub fn detected(&self) -> bool {
        self.clean_passed && self.flip_detected && self.drop_detected
    }
}

/// Runs the fault-injected negative control on `cell`: finds crash points
/// inside commit steps whose image holds a committed-but-incomplete
/// transaction, corrupts the log there, and checks the auditor rejects the
/// corrupted images. Returns `None` if the run never exposes a replayable
/// window (e.g. a design without redo records).
pub fn negative_control(cell: &CrashCell) -> Option<NegativeControl> {
    let run = profile_cell(cell);
    // Candidate points: every intra-step point of the first few commit
    // steps (the commit record sits somewhere inside each).
    let mut candidates: Vec<u64> = Vec::new();
    for c in &run.profile.commits {
        candidates.extend((c.step_start_mutations + 1)..c.step_end_mutations);
        if candidates.len() >= 64 {
            break;
        }
    }
    candidates.truncate(64);
    if candidates.is_empty() {
        return None;
    }

    let mut replay = run.replay();
    let mut primary: Option<(u64, bool, bool)> = None;
    let mut drop_detected = false;
    for &point in &candidates {
        let snapshot = replay.image_at(point);
        if !fault::has_target(snapshot) {
            continue;
        }
        if primary.is_none() {
            let clean = RecoveryAuditor::new(&run.profile, cell.design)
                .audit(point, snapshot)
                .passed;
            let mut flipped = snapshot.crash_snapshot();
            fault::inject(&mut flipped, Fault::FlipRedoPayload);
            let flip_failed = !RecoveryAuditor::new(&run.profile, cell.design)
                .audit(point, &flipped)
                .passed;
            primary = Some((point, clean, flip_failed));
        }
        if !drop_detected {
            let mut dropped = snapshot.crash_snapshot();
            if fault::inject(&mut dropped, Fault::DropCommitMarker) {
                drop_detected = !RecoveryAuditor::new(&run.profile, cell.design)
                    .audit(point, &dropped)
                    .passed;
            }
        }
        if drop_detected && primary.is_some_and(|(_, c, f)| c && f) {
            break;
        }
    }
    let (point, clean_passed, flip_detected) = primary?;
    Some(NegativeControl {
        point,
        clean_passed,
        flip_detected,
        drop_detected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_matrix() -> CrashMatrix {
        let mut m = CrashMatrix::new(
            &[DesignKind::SoftwareOnly, DesignKind::Dhtm],
            ["hash"],
            SystemConfig::small_test(),
        );
        m.config_name = "small".to_string();
        m.commits = 6;
        m.stratified = 4;
        m.adversarial = 3;
        m
    }

    #[test]
    fn matrix_cells_share_seed_within_a_workload_group() {
        let m = quick_matrix();
        let cells = m.cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].seed, cells[1].seed);
        assert_ne!(cells[0].design, cells[1].design);
    }

    #[test]
    fn parallel_run_matches_serial() {
        let m = quick_matrix();
        let serial = m.run(1);
        let parallel = m.run(2);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.total_mutations, b.total_mutations);
            assert_eq!(a.verdicts.len(), b.verdicts.len());
            assert_eq!(a.all_passed(), b.all_passed());
            assert_eq!(a.counters(), b.counters());
        }
    }

    #[test]
    fn quick_matrix_passes_and_counts_points() {
        let m = quick_matrix();
        for report in m.run(1) {
            assert!(
                report.all_passed(),
                "{} / {}: {:?}",
                report.cell.design,
                report.cell.workload,
                report
                    .verdicts
                    .iter()
                    .filter(|v| !v.outcome.passed)
                    .map(|v| (v.outcome.point, v.outcome.violations.clone()))
                    .collect::<Vec<_>>()
            );
            assert!(report.counters().crash_points >= 4);
            assert_eq!(report.counters().oracle_failures, 0);
        }
    }

    #[test]
    fn negative_control_detects_log_corruption() {
        let m = quick_matrix();
        let cells = m.cells();
        let dhtm_cell = cells.iter().find(|c| c.design == DesignKind::Dhtm).unwrap();
        let control = negative_control(dhtm_cell).expect("DHTM exposes a replayable window");
        assert!(control.clean_passed, "control baseline must pass");
        assert!(control.flip_detected, "corrupted payload must be detected");
    }
}
