//! Rendering collected rows: JSON and CSV for machine consumption, plus the
//! markdown-ish normalised tables the paper reports.

use std::fmt::Write as _;

use dhtm_obs::json::JsonStr;
use dhtm_types::stats::AbortReason;

use crate::runner::Row;

/// Output formats supported by the harness CLI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable normalised tables on stdout (the default).
    #[default]
    Table,
    /// One JSON array of row objects.
    Json,
    /// Comma-separated values with a header line.
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table" => Ok(OutputFormat::Table),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format '{other}' (table|json|csv)")),
        }
    }
}

/// The flat (name, value) numeric fields serialised for one row, shared by
/// the JSON and CSV emitters so the two formats can never drift apart.
fn numeric_fields(row: &Row) -> Vec<(&'static str, f64)> {
    let s = &row.stats;
    let mut fields: Vec<(&'static str, f64)> = vec![
        ("cores", row.cores as f64),
        ("target_commits", row.target_commits as f64),
        ("committed", s.committed as f64),
        ("steps", s.steps as f64),
        ("total_cycles", s.total_cycles as f64),
        ("throughput_per_mcycle", s.throughput_per_mcycle()),
        ("aborts_total", s.total_aborts() as f64),
        ("abort_rate_percent", s.abort_rate_percent()),
        ("loads", s.loads as f64),
        ("stores", s.stores as f64),
        ("log_records_written", s.log_records_written as f64),
        ("log_bytes_written", s.log_bytes_written as f64),
        ("data_bytes_written", s.data_bytes_written as f64),
        ("nvm_line_reads", s.nvm_line_reads as f64),
        ("l1_hits", s.l1_hits as f64),
        ("l1_misses", s.l1_misses as f64),
        ("llc_hits", s.llc_hits as f64),
        ("llc_misses", s.llc_misses as f64),
        ("write_set_overflows", s.write_set_overflows as f64),
        ("lock_wait_cycles", s.lock_wait_cycles as f64),
        ("commit_stall_cycles", s.commit_stall_cycles as f64),
        ("total_stall_cycles", s.total_stall_cycles as f64),
        ("fallback_commits", s.fallback_commits as f64),
        ("mean_write_set_lines", s.mean_write_set_lines()),
        ("mean_read_set_lines", s.mean_read_set_lines()),
        ("crash_points", s.recovery.crash_points as f64),
        ("oracle_failures", s.recovery.oracle_failures as f64),
        ("recovery_replayed", s.recovery.replayed_transactions as f64),
        (
            "recovery_rolled_back",
            s.recovery.rolled_back_transactions as f64,
        ),
        (
            "recovery_skipped_complete",
            s.recovery.skipped_complete as f64,
        ),
        (
            "recovery_skipped_uncommitted",
            s.recovery.skipped_uncommitted as f64,
        ),
        ("recovery_lines_written", s.recovery.lines_written as f64),
        ("recovery_words_written", s.recovery.words_written as f64),
        ("recovery_redo_lines", s.recovery.redo_lines_applied as f64),
        ("recovery_undo_lines", s.recovery.undo_lines_applied as f64),
        ("recovery_sentinel_edges", s.recovery.sentinel_edges as f64),
    ];
    for reason in AbortReason::ALL {
        let count = s.aborts.get(&reason).copied().unwrap_or(0) as f64;
        let name: &'static str = match reason {
            AbortReason::Conflict => "aborts_conflict",
            AbortReason::Capacity => "aborts_capacity",
            AbortReason::LogOverflow => "aborts_log_overflow",
            AbortReason::Fallback => "aborts_fallback",
            AbortReason::Explicit => "aborts_explicit",
        };
        fields.push((name, count));
    }
    // Component-stat probe aggregates (instrumented runs only; all zero on
    // the plain path). The column set is fixed so the CSV header never
    // depends on which probes a particular row happened to collect.
    for (name, suffix) in PROBE_COLUMNS {
        fields.push((name, row.probe_sum(suffix) as f64));
    }
    fields
}

/// The fixed probe-aggregate columns exported alongside the run statistics:
/// `(column name, probe-name suffix summed across scopes)`. Per-core probes
/// like `coreN/l1/evictions` aggregate into one column per component.
const PROBE_COLUMNS: &[(&str, &str)] = &[
    ("probe_l1_evictions", "l1/evictions"),
    ("probe_llc_evictions", "llc/evictions"),
    ("probe_channel_busy_cycles", "channel/busy_cycles"),
    ("probe_channel_idle_cycles", "channel/idle_cycles"),
    (
        "probe_channel_queue_delay_cycles",
        "channel/queue_delay_cycles",
    ),
    ("probe_dir_sharer_walks", "dir/sharer_walks"),
    ("probe_dir_invalidations", "dir/invalidations"),
    ("probe_log_buffer_evictions", "log_buffer/evictions"),
    (
        "probe_log_buffer_peak_occupancy",
        "log_buffer/peak_occupancy",
    ),
    ("probe_overflow_appended", "overflow/appended"),
];

fn format_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Serialises rows as one pretty-printed JSON array.
pub fn rows_to_json(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, row) in rows.iter().enumerate() {
        // The seed is emitted verbatim as an integer: it is a full-width
        // u64 and would lose precision through the f64 numeric fields.
        let _ = write!(
            out,
            "  {{\"experiment\": {}, \"engine\": {}, \"workload\": {}, \"config\": {}, \"seed\": {}",
            JsonStr(&row.experiment),
            JsonStr(&row.engine),
            JsonStr(&row.workload),
            JsonStr(&row.config),
            row.seed,
        );
        for (name, value) in numeric_fields(row) {
            let _ = write!(out, ", \"{name}\": {}", format_number(value));
        }
        // Instrumented rows additionally carry the full flattened probe
        // registry as a nested object; plain rows stay byte-identical to
        // the pre-observability schema.
        if !row.probes.is_empty() {
            out.push_str(", \"probes\": {");
            for (j, (name, value)) in row.probes.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {value}", JsonStr(name));
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out.push('\n');
    out
}

/// The numeric column names, independent of any row, so an empty export
/// still carries the full schema.
fn numeric_field_names() -> Vec<&'static str> {
    let empty = Row {
        experiment: String::new(),
        engine: String::new(),
        workload: String::new(),
        cores: 0,
        config: String::new(),
        seed: 0,
        target_commits: 0,
        stats: Default::default(),
        probes: Vec::new(),
    };
    numeric_fields(&empty).into_iter().map(|(n, _)| n).collect()
}

/// Serialises rows as CSV with a header line.
pub fn rows_to_csv(rows: &[Row]) -> String {
    let mut out = String::from("experiment,engine,workload,config,seed");
    for name in numeric_field_names() {
        out.push(',');
        out.push_str(name);
    }
    out.push('\n');
    for row in rows {
        let _ = write!(
            out,
            "{},{},{},{},{}",
            row.experiment, row.engine, row.workload, row.config, row.seed
        );
        for (_, value) in numeric_fields(row) {
            out.push(',');
            out.push_str(&format_number(value));
        }
        out.push('\n');
    }
    out
}

/// Formats one markdown-style table row.
pub fn row_line(label: &str, values: &[String]) -> String {
    format!("| {:<12} | {} |", label, values.join(" | "))
}

/// Prints a markdown-style table row (compatibility shim for callers that
/// stream straight to stdout).
pub fn print_row(label: &str, values: &[String]) {
    println!("{}", row_line(label, values));
}

/// Geometric mean helper used for "Ave." columns.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Finds the row for `engine` within the (workload, config, cores) group of
/// rows matching the predicate coordinates.
pub fn find_row<'a>(
    rows: &'a [Row],
    engine: &str,
    workload: &str,
    config: &str,
    cores: usize,
) -> Option<&'a Row> {
    rows.iter().find(|r| {
        r.engine == engine && r.workload == workload && r.config == config && r.cores == cores
    })
}

/// Throughput of `engine` normalised to the "SO" row of the same
/// (workload, config, cores) group. Returns 0 when either row is missing
/// and 0 when the SO throughput is 0.
pub fn so_normalised(
    rows: &[Row],
    engine: &str,
    workload: &str,
    config: &str,
    cores: usize,
) -> f64 {
    let so = find_row(rows, "SO", workload, config, cores)
        .map(Row::throughput)
        .unwrap_or(0.0);
    let target = find_row(rows, engine, workload, config, cores)
        .map(Row::throughput)
        .unwrap_or(0.0);
    if so > 0.0 {
        target / so
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{CommitSpec, ConfigVariant, Matrix};
    use crate::runner::run_cells_traced;
    use dhtm_types::policy::DesignKind;
    use dhtm_types::stats::RunStats;

    fn row(engine: &str, workload: &str, committed: u64, cycles: u64) -> Row {
        let mut stats = RunStats::new();
        stats.committed = committed;
        stats.total_cycles = cycles;
        stats.record_abort(AbortReason::Conflict);
        Row {
            experiment: "test".into(),
            engine: engine.into(),
            workload: workload.into(),
            cores: 4,
            config: "small".into(),
            seed: 1,
            target_commits: committed,
            stats,
            probes: Vec::new(),
        }
    }

    #[test]
    fn json_has_one_object_per_row_with_key_fields() {
        let rows = vec![row("SO", "hash", 10, 1000), row("DHTM", "hash", 10, 500)];
        let json = rows_to_json(&rows);
        assert_eq!(json.matches("\"engine\"").count(), 2);
        assert!(json.contains("\"aborts_conflict\": 1"));
        assert!(json.contains("\"committed\": 10"));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn csv_header_matches_value_count() {
        let rows = vec![row("SO", "hash", 10, 1000)];
        let csv = rows_to_csv(&rows);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let values: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(header.len(), values.len());
        assert!(header.contains(&"commit_stall_cycles"));
        assert!(header.contains(&"total_stall_cycles"));
        assert!(header.contains(&"crash_points"));
        assert!(header.contains(&"oracle_failures"));
        assert!(header.contains(&"recovery_sentinel_edges"));
    }

    #[test]
    fn empty_csv_still_carries_the_full_schema() {
        let empty = rows_to_csv(&[]);
        let with_rows = rows_to_csv(&[row("SO", "hash", 10, 1000)]);
        assert_eq!(
            empty.lines().next().unwrap(),
            with_rows.lines().next().unwrap(),
            "header must not depend on the rows present"
        );
    }

    #[test]
    fn every_probe_column_names_a_probe_some_design_registers() {
        let matrix = Matrix::new()
            .engines(DesignKind::ALL)
            .workloads(["hash"])
            .core_counts([2])
            .config(ConfigVariant::small())
            .commits(CommitSpec::Fixed(4));
        let rows = run_cells_traced(&matrix.cells(), 1, "");
        for (column, suffix) in PROBE_COLUMNS {
            let registered = rows.iter().any(|(row, _)| {
                row.probes.iter().any(|(name, _)| {
                    name == suffix || name.strip_suffix(suffix).is_some_and(|s| s.ends_with('/'))
                })
            });
            assert!(
                registered,
                "{column}: no design registers a `{suffix}` probe"
            );
        }
    }

    #[test]
    fn probe_columns_aggregate_scoped_probes_and_default_to_zero() {
        let mut instrumented = row("DHTM", "hash", 10, 1000);
        instrumented.probes = vec![
            ("core0/l1/evictions".to_string(), 3),
            ("core1/l1/evictions".to_string(), 4),
            ("llc/evictions".to_string(), 7),
            ("channel/queue_delay_cycles".to_string(), 250),
        ];
        assert_eq!(instrumented.probe_sum("l1/evictions"), 7);
        assert_eq!(instrumented.probe_sum("llc/evictions"), 7);
        // `delay_cycles` is a suffix of the probe name but not a full
        // path-segment suffix — it must not match.
        assert_eq!(instrumented.probe_sum("delay_cycles"), 0);
        assert_eq!(instrumented.probe_sum("dir/sharer_walks"), 0);

        let csv = rows_to_csv(&[instrumented.clone(), row("SO", "hash", 10, 1000)]);
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().unwrap().split(',').collect();
        let probe_col = header
            .iter()
            .position(|&h| h == "probe_l1_evictions")
            .expect("probe columns in header");
        assert!(header.contains(&"probe_channel_queue_delay_cycles"));
        let traced: Vec<&str> = lines.next().unwrap().split(',').collect();
        let plain: Vec<&str> = lines.next().unwrap().split(',').collect();
        assert_eq!(traced[probe_col], "7");
        assert_eq!(plain[probe_col], "0", "plain rows carry zeroed columns");

        let json = rows_to_json(&[instrumented, row("SO", "hash", 10, 1000)]);
        assert!(json.contains("\"probes\": {\"core0/l1/evictions\": 3"));
        assert_eq!(
            json.matches("\"probes\"").count(),
            1,
            "plain rows must not emit a probes object"
        );
    }

    #[test]
    fn so_normalisation_within_group() {
        let rows = vec![row("SO", "hash", 10, 1000), row("DHTM", "hash", 20, 1000)];
        let norm = so_normalised(&rows, "DHTM", "hash", "small", 4);
        assert!((norm - 2.0).abs() < 1e-9);
        assert_eq!(so_normalised(&rows, "DHTM", "queue", "small", 4), 0.0);
    }

    #[test]
    fn normalisation_of_degenerate_rows_is_finite_zero() {
        // Regression: zero-cycle and zero-commit cells (a crashed or
        // cycle-capped run) must normalise to 0.0, never NaN or inf, in
        // every SO-relative path.
        let degenerate = [
            // SO committed nothing.
            vec![row("SO", "hash", 0, 1000), row("DHTM", "hash", 20, 1000)],
            // SO never advanced a cycle.
            vec![row("SO", "hash", 10, 0), row("DHTM", "hash", 20, 1000)],
            // Both sides dead.
            vec![row("SO", "hash", 0, 0), row("DHTM", "hash", 0, 0)],
            // No SO row at all.
            vec![row("DHTM", "hash", 20, 1000)],
        ];
        for rows in &degenerate {
            let norm = so_normalised(rows, "DHTM", "hash", "small", 4);
            assert!(norm.is_finite(), "non-finite normalisation from {rows:?}");
            assert_eq!(norm, 0.0);
        }
        // The geometric mean over guarded values stays finite too.
        assert!(geometric_mean(&[0.0, 0.0]).is_finite());
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn output_format_parses() {
        assert_eq!("json".parse::<OutputFormat>(), Ok(OutputFormat::Json));
        assert_eq!("table".parse::<OutputFormat>(), Ok(OutputFormat::Table));
        assert_eq!("csv".parse::<OutputFormat>(), Ok(OutputFormat::Csv));
        assert!("yaml".parse::<OutputFormat>().is_err());
    }
}
