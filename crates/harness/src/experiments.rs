//! The catalogue of experiments: every figure/table of the paper's
//! evaluation (Section VI) plus a beyond-the-paper scaling sweep, each
//! defined as a declarative [`Matrix`] and a table renderer over the
//! collected rows. `dhtm_experiments --experiment NAME` runs one of them,
//! `--spec FILE...` runs spec files through the same cell runner.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

use dhtm::hw_overhead::{hardware_overhead, total_overhead_bytes};
use dhtm_baselines::registry::EngineId;
use dhtm_scenario::{SimSpec, DEFAULT_SEED};
use dhtm_types::config::{ConfigOverlay, SystemConfig};
use dhtm_types::policy::DesignKind;
use dhtm_workloads::MICRO_NAMES;

use crate::cli::HarnessOpts;
use crate::matrix::{Cell, CommitSpec, ConfigVariant, Matrix};
use crate::report::{
    geometric_mean, row_line, rows_to_csv, rows_to_json, so_normalised, OutputFormat,
};
use crate::runner::{run_cells, run_cells_traced, Row};
use crate::{default_base, quick_mode};

/// The rendered outcome of one experiment: human-readable table lines plus
/// the raw rows for JSON/CSV export.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The experiment's registry name.
    pub name: &'static str,
    /// Rendered table lines (printed to stdout by the binaries).
    pub lines: Vec<String>,
    /// The collected simulation rows (empty for pure-arithmetic tables).
    pub rows: Vec<Row>,
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Registry name ("fig5", "table5", ..., "scaling").
    pub name: &'static str,
    /// One-line description shown by the suite runner.
    pub title: &'static str,
    run: fn(&HarnessOpts) -> ExperimentResult,
}

impl Experiment {
    /// Runs the experiment with the given options.
    pub fn run(&self, opts: &HarnessOpts) -> ExperimentResult {
        (self.run)(opts)
    }
}

/// All experiments, in the order the paper presents them; `scaling` extends
/// the evaluation beyond the paper's points.
pub const ALL: &[Experiment] = &[
    Experiment {
        name: "fig5",
        title: "Figure 5: micro-benchmark throughput normalised to SO",
        run: fig5,
    },
    Experiment {
        name: "table5",
        title: "Table V: abort rates of sdTM and DHTM",
        run: table5,
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: sensitivity to the log-buffer size (hash)",
        run: fig6,
    },
    Experiment {
        name: "table6",
        title: "Table VI: TATP and TPC-C throughput normalised to SO",
        run: table6,
    },
    Experiment {
        name: "table7",
        title: "Table VII: NP and DHTM vs SO under bandwidth scaling (hash)",
        run: table7,
    },
    Experiment {
        name: "ablation",
        title: "Section VI-D: instant-write ablation and the NP upper bound",
        run: ablation,
    },
    Experiment {
        name: "table4",
        title: "Table IV: workload write-set sizes",
        run: table4,
    },
    Experiment {
        name: "table2",
        title: "Table II: hardware overhead",
        run: table2,
    },
    Experiment {
        name: "scaling",
        title: "Beyond the paper: core-count scaling on small/default/large machines",
        run: scaling,
    },
    Experiment {
        name: "recovery",
        title: "Crash matrix: injected crashes + recovery-oracle validation for every design",
        run: recovery,
    },
];

/// Looks up an experiment by registry name.
pub fn by_name(name: &str) -> Option<&'static Experiment> {
    ALL.iter().find(|e| e.name == name)
}

/// The declarative matrix behind every simulation-backed catalogue
/// experiment (everything except the arithmetic-only `table2` and the
/// crash-matrix `recovery`). This is the surface the golden spec-hash test
/// pins: each cell's spec, seed and content hash are reproducible from
/// here without running anything.
pub fn catalogue_matrices() -> Vec<(&'static str, Matrix)> {
    vec![
        ("fig5", fig5_matrix()),
        ("table5", table5_matrix()),
        ("fig6", fig6_matrix()),
        ("table6", table6_matrix()),
        ("table7", table7_matrix()),
        ("ablation", ablation_matrix()),
        ("table4", table4_matrix()),
        ("scaling", scaling_matrix()),
    ]
}

/// Runs spec files (`--spec PATH...`) as one ad-hoc experiment: every
/// file is loaded and validated against the engine registry first, then
/// the runs go through the same cell runner and worker pool as a catalogue
/// experiment, so `--jobs`, `--trace` and `--profile` apply. Rows are
/// labelled `spec:<file-stem>` so mixed dumps stay attributable.
///
/// Files that resolve to the same spec content hash are deduplicated:
/// each distinct spec executes once and the duplicates reuse its result
/// (their rows are identical apart from the label), with a summary line
/// reporting how many executions were saved.
///
/// # Errors
///
/// Returns the first load/validation error, naming the file; nothing runs
/// then.
pub fn run_specs(paths: &[PathBuf], opts: &HarnessOpts) -> Result<ExperimentResult, String> {
    let mut cells = Vec::new();
    let mut cell_of_file = Vec::with_capacity(paths.len());
    let mut by_hash: HashMap<u64, usize> = HashMap::new();
    for path in paths {
        let spec = SimSpec::load(path)
            .and_then(|spec| spec.validate().map(|()| spec))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let index = *by_hash.entry(spec.content_hash()).or_insert_with(|| {
            cells.push(Cell::new(cells.len(), spec.base.to_string(), spec));
            cells.len() - 1
        });
        cell_of_file.push(index);
    }
    let unique = run_tagged("specs", &cells, opts);

    let mut lines = vec!["# Spec runs".to_string()];
    let mut rows = Vec::with_capacity(paths.len());
    for (path, &index) in paths.iter().zip(&cell_of_file) {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("spec");
        let row = Row {
            experiment: format!("spec:{stem}"),
            ..unique[index].clone()
        };
        lines.push(format!(
            "| {:<24} | {:<12} | {:<7} | {:>8} commits | {:>10} cycles | hash {} |",
            stem,
            row.engine,
            row.workload,
            row.stats.committed,
            row.stats.total_cycles,
            cells[index].spec.content_hash_hex(),
        ));
        rows.push(row);
    }
    let deduplicated = paths.len() - cells.len();
    if deduplicated > 0 {
        lines.push(format!(
            "# {} executed, {deduplicated} duplicate spec(s) served from the first run",
            cells.len()
        ));
    }
    Ok(ExperimentResult {
        name: "specs",
        lines,
        rows,
    })
}

/// Runs `cells` with the CLI's worker count and tags the rows with the
/// experiment name.
///
/// When `--trace` or `--profile` is active the cells run through the
/// instrumented runner instead: rows carry their flattened probe registry
/// (surfacing in the JSON dump and the profile table) and each cell's
/// NDJSON trace block is appended to the trace file in cell order.
/// Either way the simulated runs are bit-identical — observers and probes
/// cannot perturb a run.
fn run_tagged(name: &'static str, cells: &[Cell], opts: &HarnessOpts) -> Vec<Row> {
    let mut rows = if opts.trace.is_some() || opts.profile {
        let traced = run_cells_traced(cells, opts.jobs, name);
        if let Some(path) = &opts.trace {
            append_trace(path, traced.iter().flat_map(|(_, lines)| lines));
        }
        traced.into_iter().map(|(row, _)| row).collect()
    } else {
        run_cells(cells, opts.jobs)
    };
    for row in &mut rows {
        row.experiment = name.to_string();
    }
    rows
}

/// Truncates (or creates) the `--trace` output file so a run's stream
/// starts clean. Call once per process before any experiment runs; the
/// experiment runners then append per-experiment blocks sequentially.
///
/// # Panics
///
/// Panics if the file cannot be created.
pub fn prepare_trace(opts: &HarnessOpts) {
    if let Some(path) = &opts.trace {
        std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create trace file {}: {e}", path.display()));
    }
}

fn append_trace<'a>(path: &std::path::Path, lines: impl Iterator<Item = &'a String>) {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("cannot open trace file {}: {e}", path.display()));
    for line in lines {
        writeln!(file, "{line}")
            .unwrap_or_else(|e| panic!("cannot write trace file {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

const FIG5_DESIGNS: [DesignKind; 5] = [
    DesignKind::SoftwareOnly,
    DesignKind::SdTm,
    DesignKind::Atom,
    DesignKind::LogTmAtom,
    DesignKind::Dhtm,
];

fn fig5_matrix() -> Matrix {
    Matrix::new()
        .engines(FIG5_DESIGNS)
        .workloads(MICRO_NAMES)
        .config(ConfigVariant::default_machine())
}

fn fig5(opts: &HarnessOpts) -> ExperimentResult {
    let designs = FIG5_DESIGNS;
    let cores = ConfigVariant::default_machine().config().num_cores;
    let matrix = fig5_matrix();
    let rows = run_tagged("fig5", &matrix.cells(), opts);

    let machine = if quick_mode() {
        "small test config"
    } else {
        "Table III config"
    };
    let mut lines = vec![
        format!("# Figure 5: throughput normalised to SO ({cores} cores, {machine})"),
        "# Paper reference (averages): sdTM 1.20x, ATOM 1.35x, LogTM-ATOM ~1.44x, DHTM 1.61x"
            .to_string(),
    ];
    let header: Vec<String> = designs
        .iter()
        .skip(1)
        .map(|d| d.label().to_string())
        .collect();
    lines.push(row_line("workload", &header));
    let mut per_design: Vec<Vec<f64>> = vec![Vec::new(); designs.len() - 1];
    for wl in MICRO_NAMES {
        let mut values = Vec::new();
        for (i, d) in designs.iter().skip(1).enumerate() {
            let norm = so_normalised(&rows, d.label(), wl, "default", cores);
            per_design[i].push(norm);
            values.push(format!("{norm:.2}"));
        }
        lines.push(row_line(wl, &values));
    }
    let avg: Vec<String> = per_design
        .iter()
        .map(|v| format!("{:.2}", geometric_mean(v)))
        .collect();
    lines.push(row_line("Ave.", &avg));
    ExperimentResult {
        name: "fig5",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table V
// ---------------------------------------------------------------------------

fn table5_matrix() -> Matrix {
    Matrix::new()
        .engines([DesignKind::SdTm, DesignKind::Dhtm])
        .workloads(MICRO_NAMES)
        .config(ConfigVariant::default_machine())
}

fn table5(opts: &HarnessOpts) -> ExperimentResult {
    let rows = run_tagged("table5", &table5_matrix().cells(), opts);

    let mut lines = vec![
        "# Table V: abort rates (%)".to_string(),
        "# Paper reference: sdTM avg 37%, DHTM avg 21%".to_string(),
    ];
    lines.push(row_line(
        "design",
        &MICRO_NAMES
            .iter()
            .map(|s| s.to_string())
            .chain(["Ave.".into()])
            .collect::<Vec<_>>(),
    ));
    for design in [DesignKind::SdTm, DesignKind::Dhtm] {
        let mut values = Vec::new();
        let mut sum = 0.0;
        for wl in MICRO_NAMES {
            let rate = rows
                .iter()
                .find(|r| r.engine == design.label() && r.workload == wl)
                .map(|r| r.stats.abort_rate_percent())
                .unwrap_or(0.0);
            sum += rate;
            values.push(format!("{rate:.0}"));
        }
        values.push(format!("{:.0}", sum / MICRO_NAMES.len() as f64));
        lines.push(row_line(design.label(), &values));
    }
    ExperimentResult {
        name: "table5",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

const FIG6_ENTRIES: [usize; 6] = [4, 8, 16, 32, 64, 128];

fn fig6_matrix() -> Matrix {
    let configs: Vec<ConfigVariant> = FIG6_ENTRIES
        .iter()
        .map(|&entries| {
            ConfigVariant::new(
                format!("logbuf{entries}"),
                default_base(),
                ConfigOverlay::none().with_log_buffer_entries(entries),
            )
        })
        .collect();
    Matrix::new()
        .engines([DesignKind::Dhtm])
        .workloads(["hash"])
        .configs(configs)
}

fn fig6(opts: &HarnessOpts) -> ExperimentResult {
    let rows = run_tagged("fig6", &fig6_matrix().cells(), opts);

    let baseline = rows
        .iter()
        .find(|r| r.config == "logbuf64")
        .map(Row::throughput)
        .filter(|&t| t > 0.0)
        .unwrap_or(1.0);
    let mut lines = vec![
        "# Figure 6: normalised throughput vs log-buffer size (hash benchmark)".to_string(),
        "# Paper reference: rises with size, saturates at 64 entries, dips slightly at 128"
            .to_string(),
    ];
    lines.push(row_line(
        "entries",
        &FIG6_ENTRIES
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>(),
    ));
    let values: Vec<String> = FIG6_ENTRIES
        .iter()
        .map(|&entries| {
            let tp = rows
                .iter()
                .find(|r| r.config == format!("logbuf{entries}"))
                .map(Row::throughput)
                .unwrap_or(0.0);
            format!("{:.3}", tp / baseline)
        })
        .collect();
    lines.push(row_line("DHTM", &values));
    ExperimentResult {
        name: "fig6",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table VI
// ---------------------------------------------------------------------------

const TABLE6_DESIGNS: [DesignKind; 3] =
    [DesignKind::SoftwareOnly, DesignKind::Atom, DesignKind::Dhtm];

fn table6_matrix() -> Matrix {
    Matrix::new()
        .engines(TABLE6_DESIGNS)
        .workloads(["tpcc", "tatp"])
        .config(ConfigVariant::default_machine())
}

fn table6(opts: &HarnessOpts) -> ExperimentResult {
    let designs = TABLE6_DESIGNS;
    let cores = ConfigVariant::default_machine().config().num_cores;
    let rows = run_tagged("table6", &table6_matrix().cells(), opts);

    let mut lines = vec![
        "# Table VI: OLTP throughput normalised to SO".to_string(),
        "# Paper reference: TPC-C  SO 1.00 / ATOM 1.67 / DHTM 1.88".to_string(),
        "#                  TATP   SO 1.00 / ATOM 1.27 / DHTM 1.53".to_string(),
    ];
    lines.push(row_line(
        "workload",
        &["SO".into(), "ATOM".into(), "DHTM".into()],
    ));
    for wl in ["tpcc", "tatp"] {
        let values: Vec<String> = designs
            .iter()
            .map(|d| {
                format!(
                    "{:.2}",
                    so_normalised(&rows, d.label(), wl, "default", cores)
                )
            })
            .collect();
        lines.push(row_line(wl, &values));
    }
    ExperimentResult {
        name: "table6",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table VII
// ---------------------------------------------------------------------------

const TABLE7_MULTS: [(f64, &str); 3] = [(1.0, "bw1x"), (2.0, "bw2x"), (10.0, "bw10x")];

fn table7_matrix() -> Matrix {
    let configs: Vec<ConfigVariant> = TABLE7_MULTS
        .iter()
        .map(|&(mult, name)| {
            ConfigVariant::new(
                name,
                default_base(),
                ConfigOverlay::none().with_bandwidth_multiplier(mult),
            )
        })
        .collect();
    Matrix::new()
        .engines([
            DesignKind::SoftwareOnly,
            DesignKind::NonPersistent,
            DesignKind::Dhtm,
        ])
        .workloads(["hash"])
        .configs(configs)
}

fn table7(opts: &HarnessOpts) -> ExperimentResult {
    let cores = crate::experiment_config().num_cores;
    let rows = run_tagged("table7", &table7_matrix().cells(), opts);

    let mut lines = vec![
        "# Table VII: hash throughput normalised to SO under bandwidth scaling".to_string(),
        "# Paper reference: NP 2.9 / 3.0 / 3.3   DHTM 1.9 / 2.4 / 3.0  (1x / 2x / 10x)".to_string(),
    ];
    lines.push(row_line(
        "design",
        &["1x".into(), "2x".into(), "10x".into()],
    ));
    for design in [DesignKind::NonPersistent, DesignKind::Dhtm] {
        let values: Vec<String> = TABLE7_MULTS
            .iter()
            .map(|&(_, name)| {
                format!(
                    "{:.2}",
                    so_normalised(&rows, design.label(), "hash", name, cores)
                )
            })
            .collect();
        lines.push(row_line(design.label(), &values));
    }
    ExperimentResult {
        name: "table7",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Section VI-D ablation
// ---------------------------------------------------------------------------

fn ablation_matrix() -> Matrix {
    Matrix::new()
        .engines([
            EngineId::from(DesignKind::SoftwareOnly),
            EngineId::from(DesignKind::Dhtm),
            EngineId::new("dhtm-instant"),
            EngineId::from(DesignKind::NonPersistent),
        ])
        .workloads(MICRO_NAMES)
        .config(ConfigVariant::default_machine())
}

fn ablation(opts: &HarnessOpts) -> ExperimentResult {
    let rows = run_tagged("ablation", &ablation_matrix().cells(), opts);

    let mut lines = vec![
        "# Section VI-D: instant-write ablation and the NP upper bound (normalised to SO)"
            .to_string(),
        "# Paper reference: DHTM+instant ~1.16x DHTM; NP ~1.59x DHTM".to_string(),
    ];
    lines.push(row_line(
        "workload",
        &["DHTM".into(), "DHTM-instant".into(), "NP".into()],
    ));
    let mut ratios_instant = Vec::new();
    let mut ratios_np = Vec::new();
    for wl in MICRO_NAMES {
        let tp = |engine: &str| {
            rows.iter()
                .find(|r| r.engine == engine && r.workload == wl)
                .map(Row::throughput)
                .unwrap_or(0.0)
        };
        let (so, dhtm, instant, np) = (tp("SO"), tp("DHTM"), tp("DHTM-instant"), tp("NP"));
        if dhtm > 0.0 {
            ratios_instant.push(instant / dhtm);
            ratios_np.push(np / dhtm);
        }
        let norm = |v: f64| {
            if so > 0.0 {
                format!("{:.2}", v / so)
            } else {
                "0.00".to_string()
            }
        };
        lines.push(row_line(wl, &[norm(dhtm), norm(instant), norm(np)]));
    }
    lines.push(String::new());
    lines.push(format!(
        "instant-writes speedup over DHTM (geo-mean): {:.2}x   (paper: ~1.16x)",
        geometric_mean(&ratios_instant)
    ));
    lines.push(format!(
        "NP speedup over DHTM (geo-mean):             {:.2}x   (paper: ~1.59x)",
        geometric_mean(&ratios_np)
    ));
    ExperimentResult {
        name: "ablation",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table IV
// ---------------------------------------------------------------------------

const TABLE4_PAPER: [(&str, f64); 8] = [
    ("tpcc", 590.0),
    ("tatp", 167.0),
    ("queue", 52.0),
    ("hash", 58.0),
    ("sdg", 56.0),
    ("sps", 63.0),
    ("btree", 61.0),
    ("rbtree", 53.0),
];

fn table4_matrix() -> Matrix {
    Matrix::new()
        .engines([DesignKind::Dhtm])
        .workloads(TABLE4_PAPER.iter().map(|(wl, _)| *wl))
        .config(ConfigVariant::default_machine())
        .commits(CommitSpec::CappedDefault(64))
}

fn table4(opts: &HarnessOpts) -> ExperimentResult {
    let rows = run_tagged("table4", &table4_matrix().cells(), opts);

    let mut lines =
        vec!["# Table IV: mean write-set size per transaction (cache lines)".to_string()];
    lines.push(row_line("workload", &["measured".into(), "paper".into()]));
    for (wl, reference) in TABLE4_PAPER {
        let measured = rows
            .iter()
            .find(|r| r.workload == wl)
            .map(|r| r.stats.mean_write_set_lines())
            .unwrap_or(0.0);
        lines.push(row_line(
            wl,
            &[format!("{measured:.0}"), format!("{reference:.0}")],
        ));
    }
    ExperimentResult {
        name: "table4",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table II (pure register arithmetic, no simulation)
// ---------------------------------------------------------------------------

fn table2(_opts: &HarnessOpts) -> ExperimentResult {
    // Always report the paper's Table III machine regardless of quick mode.
    let cfg = SystemConfig::isca18_baseline();
    let mut lines = vec![format!(
        "# Table II: DHTM hardware overhead (per core, {}-entry log buffer)",
        cfg.log_buffer_entries
    )];
    lines.push(format!(
        "| {:<28} | {:<42} | bits |",
        "register", "description"
    ));
    for reg in hardware_overhead(&cfg) {
        lines.push(format!(
            "| {:<28} | {:<42} | {} |",
            reg.name, reg.description, reg.bits
        ));
    }
    lines.push(format!(
        "total: {} bytes per core",
        total_overhead_bytes(&cfg)
    ));
    ExperimentResult {
        name: "table2",
        lines,
        rows: Vec::new(),
    }
}

// ---------------------------------------------------------------------------
// Scaling sweep (beyond the paper)
// ---------------------------------------------------------------------------

fn scaling_core_counts() -> Vec<usize> {
    if quick_mode() {
        vec![1, 2, 4]
    } else {
        vec![1, 2, 4, 8, 16]
    }
}

fn scaling_matrix() -> Matrix {
    Matrix::new()
        .engines([DesignKind::SoftwareOnly, DesignKind::Dhtm])
        .workloads(["hash", "btree"])
        .core_counts(scaling_core_counts())
        .configs(ConfigVariant::ladder())
}

fn scaling(opts: &HarnessOpts) -> ExperimentResult {
    let core_counts = scaling_core_counts();
    let configs = ConfigVariant::ladder();
    let rows = run_tagged("scaling", &scaling_matrix().cells(), opts);

    let mut lines = vec![
        "# Scaling sweep: DHTM speedup over SO vs core count (beyond the paper's 8-core point)"
            .to_string(),
    ];
    lines.push(row_line(
        "config/wl",
        &core_counts
            .iter()
            .map(|c| format!("{c}c"))
            .collect::<Vec<_>>(),
    ));
    for variant in &configs {
        for wl in ["hash", "btree"] {
            let values: Vec<String> = core_counts
                .iter()
                .map(|&c| format!("{:.2}", so_normalised(&rows, "DHTM", wl, &variant.name, c)))
                .collect();
            lines.push(row_line(&format!("{}/{}", variant.name, wl), &values));
        }
    }
    ExperimentResult {
        name: "scaling",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Crash matrix (recovery-oracle validation)
// ---------------------------------------------------------------------------

fn recovery(opts: &HarnessOpts) -> ExperimentResult {
    use dhtm_crash::{negative_control, CrashMatrix};

    let workloads = ["hash", "queue"];
    let mut matrix = CrashMatrix::new(&DesignKind::ALL, workloads, crate::experiment_config());
    matrix.config_name = if quick_mode() { "small" } else { "default" }.to_string();
    matrix.commits = if quick_mode() { 12 } else { 64 };
    matrix.seed = DEFAULT_SEED;
    matrix.stratified = opts.crash_points.unwrap_or(8);
    matrix.adversarial = matrix.stratified.div_ceil(2).max(3);
    matrix.at_cycles = opts.crash_at.clone();

    let reports = matrix.run(opts.jobs);
    let mut rows: Vec<Row> = reports
        .iter()
        .map(|r| Row {
            experiment: "recovery".to_string(),
            engine: r.cell.design.label().to_string(),
            workload: r.cell.workload.clone(),
            cores: r.cell.config.num_cores,
            config: r.cell.config_name.clone(),
            seed: r.cell.seed,
            target_commits: r.cell.commits,
            stats: r.stats.clone(),
            probes: Vec::new(),
        })
        .collect();

    // Fault-injected negative control on DHTM (the design with the richest
    // commit window): the oracles must *reject* a corrupted log. Its result
    // is emitted as an extra row whose `oracle_failures` counts each fault
    // class the oracles failed to detect, so the CI gate on the JSON dump
    // covers the control as well as the cells.
    let control_cell = matrix
        .cells()
        .into_iter()
        .find(|c| c.design == DesignKind::Dhtm);
    let control = control_cell.as_ref().and_then(negative_control);
    if let Some(cell) = &control_cell {
        let mut stats = dhtm_types::stats::RunStats::new();
        stats.recovery.crash_points = 1;
        stats.recovery.oracle_failures = match &control {
            Some(c) => {
                u64::from(!c.clean_passed)
                    + u64::from(!c.flip_detected)
                    + u64::from(!c.drop_detected)
            }
            // No replayable window at all means the control could not run —
            // itself a failure of the harness.
            None => 1,
        };
        rows.push(Row {
            experiment: "recovery".to_string(),
            engine: cell.design.label().to_string(),
            workload: cell.workload.clone(),
            cores: cell.config.num_cores,
            config: "negative-control".to_string(),
            seed: cell.seed,
            target_commits: cell.commits,
            stats,
            probes: Vec::new(),
        });
    }

    let mut lines = vec![
        "# Crash matrix: recovery oracles per design × workload".to_string(),
        format!(
            "# {} stratified + {} adversarial crash points per cell on the durable-mutation clock",
            matrix.stratified, matrix.adversarial
        ),
    ];
    lines.extend(dhtm_crash::report::summary_lines(&reports));
    lines.push(dhtm_crash::report::control_line(control.as_ref()));
    let all_passed = reports.iter().all(dhtm_crash::CrashCellReport::all_passed)
        && control
            .as_ref()
            .is_some_and(dhtm_crash::NegativeControl::detected);
    lines.push(format!(
        "overall: {}",
        if all_passed {
            "ALL RECOVERY ORACLES PASS"
        } else {
            "ORACLE FAILURES DETECTED"
        }
    ));
    ExperimentResult {
        name: "recovery",
        lines,
        rows,
    }
}

// ---------------------------------------------------------------------------
// Emission
// ---------------------------------------------------------------------------

/// Prints every result's table lines, then emits the machine-readable dump
/// if the CLI asked for one (`--format json|csv`, `--out PATH`). When the
/// dump itself targets stdout, the tables move to stderr so a redirected
/// stdout stays valid JSON/CSV.
///
/// # Panics
///
/// Panics if `--out` was given but the file cannot be written.
pub fn emit(opts: &HarnessOpts, results: &[ExperimentResult]) {
    let dump_on_stdout = opts.format != OutputFormat::Table && opts.out.is_none();
    for (i, result) in results.iter().enumerate() {
        if i > 0 {
            if dump_on_stdout {
                eprintln!();
            } else {
                println!();
            }
        }
        for line in &result.lines {
            if dump_on_stdout {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        }
    }
    let all_rows: Vec<Row> = results.iter().flat_map(|r| r.rows.clone()).collect();
    if opts.profile {
        for line in profile_lines(&all_rows) {
            if dump_on_stdout {
                eprintln!("{line}");
            } else {
                println!("{line}");
            }
        }
    }
    let dump = match opts.format {
        OutputFormat::Table => return,
        OutputFormat::Json => rows_to_json(&all_rows),
        OutputFormat::Csv => rows_to_csv(&all_rows),
    };
    match &opts.out {
        Some(path) => {
            let mut file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
            file.write_all(dump.as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            eprintln!("wrote {} rows to {}", all_rows.len(), path.display());
        }
        None => print!("{dump}"),
    }
}

/// The `--profile` table: every row's flattened probe registry summed into
/// one component-stat profile across the emitted cells. Returns no lines
/// when nothing was instrumented (e.g. `--profile` with only the
/// arithmetic-only `table2`).
fn profile_lines(rows: &[Row]) -> Vec<String> {
    let mut totals: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for row in rows {
        for (name, value) in &row.probes {
            *totals.entry(name.as_str()).or_insert(0) += value;
        }
    }
    if totals.is_empty() {
        return Vec::new();
    }
    let pairs: Vec<(String, u64)> = totals
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();
    let mut lines = vec![
        String::new(),
        format!(
            "# Component-stat profile (summed over {} instrumented cells)",
            rows.iter().filter(|r| !r.probes.is_empty()).count()
        ),
    ];
    lines.extend(dhtm_obs::profile::render_flat(&pairs));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut names: Vec<&str> = ALL.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), 10);
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10, "duplicate experiment names");
        for e in ALL {
            assert_eq!(by_name(e.name).unwrap().name, e.name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn table2_reports_overhead_without_simulation() {
        let result = table2(&HarnessOpts::default());
        assert!(result.rows.is_empty());
        assert!(result.lines.len() > 3);
        assert!(result.lines.last().unwrap().contains("bytes per core"));
    }

    #[test]
    fn run_specs_deduplicates_identical_spec_files() {
        let dir = std::env::temp_dir().join(format!("dhtm_specdedup_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SimSpec::builder(DesignKind::Dhtm, "queue")
            .commits(4)
            .seed(9)
            .build()
            .unwrap();
        let other = SimSpec::builder(DesignKind::SoftwareOnly, "queue")
            .commits(4)
            .seed(9)
            .build()
            .unwrap();
        // Two copies of the same spec under different names, plus one
        // genuinely different spec.
        let paths = vec![dir.join("a.toml"), dir.join("b.toml"), dir.join("c.toml")];
        std::fs::write(&paths[0], spec.to_toml()).unwrap();
        std::fs::write(&paths[1], spec.to_toml()).unwrap();
        std::fs::write(&paths[2], other.to_toml()).unwrap();

        let opts = HarnessOpts {
            jobs: 2,
            ..HarnessOpts::default()
        };
        let result = run_specs(&paths, &opts).unwrap();
        assert_eq!(result.rows.len(), 3, "every file still gets a row");
        assert_eq!(
            result.rows[0].stats, result.rows[1].stats,
            "duplicate reuses the first run's stats"
        );
        let summary = result.lines.last().unwrap();
        assert!(
            summary.contains("2 executed, 1 duplicate"),
            "expected dedup summary, got: {summary}"
        );
        // Rows and table lines carry the canonical 16-hex hash form.
        assert!(result.lines[1].contains(&spec.content_hash_hex()));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
