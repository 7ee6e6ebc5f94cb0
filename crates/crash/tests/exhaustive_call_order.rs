//! The exhaustive call-order crash audit: every value of the
//! durable-mutation clock, in every cell of the six designs × {hash,
//! queue} on the `small_test` machine, is a crash point, and every one
//! must pass every recovery oracle.
//!
//! The crash matrix samples a dozen points per cell; this walks all of
//! them (about 26.7k). Each cell is simulated once and its images are
//! replayed from the journal in ascending order, so the audit takes about
//! 1 s in a release build and 10 s in a debug one.

use dhtm_crash::oracle::RecoveryAuditor;
use dhtm_crash::probe::profile_cell;
use dhtm_crash::CrashMatrix;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;

#[test]
fn every_call_order_crash_point_passes_the_oracles() {
    let mut matrix = CrashMatrix::new(
        &DesignKind::ALL,
        ["hash", "queue"],
        SystemConfig::small_test(),
    );
    matrix.commits = 12;
    matrix.seed = 0x15CA_2018;

    let mut audited = 0u64;
    let mut failures = Vec::new();
    for cell in matrix.cells() {
        let run = profile_cell(&cell);
        let mut replay = run.replay();
        let mut auditor = RecoveryAuditor::new(&run.profile, cell.design);
        for point in 0..=run.profile.total_mutations {
            let outcome = auditor.audit(point, replay.image_at(point));
            audited += 1;
            if !outcome.passed {
                failures.push((
                    cell.design,
                    cell.workload.clone(),
                    point,
                    outcome.violations,
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} failed points: {failures:?}",
        failures.len()
    );
    // Guards against an audit that silently shrinks: this matrix has
    // 26,715 points, clock values 0 through the final one of each cell.
    assert!(audited > 20_000, "only {audited} points audited");
}
