//! Rendering crash-matrix verdicts: a self-contained JSON document for CI
//! artifacts plus human-readable summary lines.

use std::fmt::Write as _;

use dhtm_obs::json::JsonStr;

use crate::matrix::{CrashCellReport, NegativeControl};

/// Serialises every per-point verdict as one JSON array (the CI artifact).
pub fn verdicts_to_json(reports: &[CrashCellReport]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for report in reports {
        for v in &report.verdicts {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let o = &v.outcome;
            let _ = write!(
                out,
                "  {{\"design\": {}, \"workload\": {}, \"config\": {}, \"seed\": {}, \
                 \"total_mutations\": {}, \"point\": {}, \"kind\": \"{}\", \
                 \"committed_before\": {}, \"ambiguous\": {}, \"resolved_forward\": {}, \
                 \"passed\": {}, \"replayed\": {}, \"rolled_back\": {}, \
                 \"redo_lines\": {}, \"undo_lines\": {}, \"sentinel_edges\": {}, \
                 \"violations\": [{}]}}",
                JsonStr(report.cell.design.label()),
                JsonStr(&report.cell.workload),
                JsonStr(&report.cell.config_name),
                report.cell.seed,
                report.total_mutations,
                o.point,
                v.kind,
                o.committed_before,
                o.ambiguous,
                o.resolved_forward,
                o.passed,
                o.report.replayed_transactions,
                o.report.rolled_back_transactions,
                o.report.redo_lines_applied,
                o.report.undo_lines_applied,
                o.report.sentinel_edges,
                o.violations
                    .iter()
                    .map(|m| JsonStr(m).to_string())
                    .collect::<Vec<_>>()
                    .join(", "),
            );
        }
    }
    out.push_str("\n]\n");
    out
}

/// One human-readable summary line per cell.
pub fn summary_lines(reports: &[CrashCellReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            let c = r.counters();
            format!(
                "| {:<10} | {:<7} | {:>3} points | {:>2} replayed | {:>2} rolled back | {} |",
                r.cell.design.label(),
                r.cell.workload,
                c.crash_points,
                c.replayed_transactions,
                c.rolled_back_transactions,
                if r.all_passed() { "PASS" } else { "FAIL" },
            )
        })
        .collect()
}

/// Summary line for the negative control.
pub fn control_line(control: Option<&NegativeControl>) -> String {
    match control {
        Some(c) => format!(
            "negative control @m{}: clean {}, corrupted-payload {}, dropped-marker {}",
            c.point,
            if c.clean_passed { "PASS" } else { "FAIL" },
            if c.flip_detected {
                "DETECTED"
            } else {
                "MISSED"
            },
            if c.drop_detected {
                "DETECTED"
            } else {
                "MISSED"
            },
        ),
        None => "negative control: no replayable window found".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::CrashMatrix;
    use dhtm_types::config::SystemConfig;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn json_and_summary_render_every_cell() {
        let mut m = CrashMatrix::new(&[DesignKind::Dhtm], ["hash"], SystemConfig::small_test());
        m.commits = 4;
        m.stratified = 3;
        m.adversarial = 2;
        let reports = m.run(1);
        let json = verdicts_to_json(&reports);
        assert!(json.contains("\"design\": \"DHTM\""));
        assert!(json.contains("\"passed\": true"));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        let lines = summary_lines(&reports);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("PASS"));
        assert!(control_line(None).contains("no replayable window"));
    }
}
