//! The experiment matrix: the declarative cross product of engines,
//! workloads, core counts and machine configurations, expanded into
//! independently runnable cells — each carrying a complete, serializable
//! [`SimSpec`] — with deterministic seeding.

use dhtm_baselines::registry::{self, EngineId};
use dhtm_scenario::{SimSpec, SpecLimits, DEFAULT_SEED};
use dhtm_types::config::{BaseConfig, ConfigOverlay, SystemConfig};

use crate::{default_base, default_commits_for, quick_mode};

/// A named machine configuration — one point on the matrix's config axis,
/// expressed as a serializable base + overlay pair so every cell's spec
/// round-trips through TOML.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigVariant {
    /// Short name used in tables and result rows ("default", "logbuf16",
    /// "bw2x", ...).
    pub name: String,
    /// The named base configuration.
    pub base: BaseConfig,
    /// Sparse overrides applied on top of the base.
    pub overlay: ConfigOverlay,
}

impl ConfigVariant {
    /// Creates a named configuration variant.
    pub fn new(name: impl Into<String>, base: BaseConfig, overlay: ConfigOverlay) -> Self {
        ConfigVariant {
            name: name.into(),
            base,
            overlay,
        }
    }

    /// A named base with no overrides.
    pub fn of_base(name: impl Into<String>, base: BaseConfig) -> Self {
        ConfigVariant::new(name, base, ConfigOverlay::none())
    }

    /// The default experiment configuration (Table III, or the small test
    /// machine in quick mode).
    pub fn default_machine() -> Self {
        ConfigVariant::of_base("default", default_base())
    }

    /// The scaled-down test machine.
    pub fn small() -> Self {
        ConfigVariant::of_base("small", BaseConfig::Small)
    }

    /// A beyond-the-paper "large" machine: double the LLC, a 128-entry log
    /// buffer and double the memory bandwidth, for scenario diversity in
    /// the scaling sweeps.
    pub fn large() -> Self {
        ConfigVariant::new(
            "large",
            BaseConfig::Isca18,
            ConfigOverlay {
                log_buffer_entries: Some(128),
                bandwidth_multiplier: Some(2.0),
                llc_capacity_bytes: Some(16 * 1024 * 1024),
                llc_ways: Some(16),
                ..ConfigOverlay::none()
            },
        )
    }

    /// The named small/default/large ladder used by the scaling experiment.
    /// Quick mode keeps only the small machine.
    pub fn ladder() -> Vec<Self> {
        if quick_mode() {
            vec![Self::small()]
        } else {
            vec![Self::small(), Self::default_machine(), Self::large()]
        }
    }

    /// The fully resolved configuration (base + overlay).
    pub fn config(&self) -> SystemConfig {
        self.overlay.apply(self.base.resolve())
    }
}

/// How the commit target of each cell is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitSpec {
    /// The per-workload default ([`default_commits_for`]).
    PerWorkloadDefault,
    /// The per-workload default, capped at the given value (Table IV uses
    /// this to bound the very large TPC-C batches).
    CappedDefault(u64),
    /// A fixed target for every cell.
    Fixed(u64),
}

impl CommitSpec {
    fn resolve(&self, workload: &str) -> u64 {
        match self {
            CommitSpec::PerWorkloadDefault => default_commits_for(workload),
            CommitSpec::CappedDefault(cap) => default_commits_for(workload).min(*cap),
            CommitSpec::Fixed(n) => *n,
        }
    }
}

/// A declarative experiment matrix: `engines × workloads × core_counts ×
/// configs`. Engines are [`EngineId`]s resolved through the process-wide
/// engine registry, so any registered variant — built-in or out-of-tree —
/// can sit on the engine axis.
#[derive(Debug, Clone)]
pub struct Matrix {
    /// The engines to run (at least one).
    pub engines: Vec<EngineId>,
    /// The workload names to run (at least one).
    pub workloads: Vec<String>,
    /// Core counts to sweep. Empty means "whatever each config specifies".
    pub core_counts: Vec<usize>,
    /// Named machine configurations (at least one).
    pub configs: Vec<ConfigVariant>,
    /// Commit-target policy.
    pub commits: CommitSpec,
    /// Base seed mixed into every cell's seed.
    pub seed: u64,
}

impl Matrix {
    /// Creates a matrix with the default machine config, per-workload
    /// commit targets and the shared experiment seed.
    pub fn new() -> Self {
        Matrix {
            engines: Vec::new(),
            workloads: Vec::new(),
            core_counts: Vec::new(),
            configs: vec![ConfigVariant::default_machine()],
            commits: CommitSpec::PerWorkloadDefault,
            seed: DEFAULT_SEED,
        }
    }

    /// Sets the engine axis from design kinds, engine ids or name strings.
    #[must_use]
    pub fn engines<I, E>(mut self, engines: I) -> Self
    where
        I: IntoIterator<Item = E>,
        E: Into<EngineId>,
    {
        self.engines = engines.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the workload axis.
    #[must_use]
    pub fn workloads<I, S>(mut self, workloads: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.workloads = workloads.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the core-count axis.
    #[must_use]
    pub fn core_counts<I: IntoIterator<Item = usize>>(mut self, counts: I) -> Self {
        self.core_counts = counts.into_iter().collect();
        self
    }

    /// Sets the config axis.
    #[must_use]
    pub fn configs<I: IntoIterator<Item = ConfigVariant>>(mut self, configs: I) -> Self {
        self.configs = configs.into_iter().collect();
        self
    }

    /// Sets a single config.
    #[must_use]
    pub fn config(self, config: ConfigVariant) -> Self {
        self.configs(vec![config])
    }

    /// Sets the commit-target policy.
    #[must_use]
    pub fn commits(mut self, commits: CommitSpec) -> Self {
        self.commits = commits;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Expands the matrix into runnable cells, in deterministic
    /// config-major / workload / core-count / engine order (so every
    /// engine of one group is adjacent, which keeps normalised tables easy
    /// to read when streaming rows).
    ///
    /// # Panics
    ///
    /// Panics if any axis that must be non-empty is empty.
    pub fn cells(&self) -> Vec<Cell> {
        assert!(!self.engines.is_empty(), "matrix needs at least one engine");
        assert!(
            !self.workloads.is_empty(),
            "matrix needs at least one workload"
        );
        assert!(!self.configs.is_empty(), "matrix needs at least one config");
        let mut cells = Vec::new();
        for variant in &self.configs {
            let core_counts: Vec<usize> = if self.core_counts.is_empty() {
                vec![variant.config().num_cores]
            } else {
                self.core_counts.clone()
            };
            for workload in &self.workloads {
                for &cores in &core_counts {
                    for engine in &self.engines {
                        let overlay = variant.overlay.with_num_cores(cores);
                        let commits = self.commits.resolve(workload);
                        let spec = SimSpec {
                            engine: engine.clone(),
                            workload: workload.clone(),
                            base: variant.base,
                            overlay,
                            limits: SpecLimits {
                                target_commits: commits,
                                ..SpecLimits::default()
                            },
                            seed: self.seed,
                        };
                        cells.push(Cell::new(cells.len(), variant.name.clone(), spec));
                    }
                }
            }
        }
        cells
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Self::new()
    }
}

/// One fully resolved simulation run: a point of the experiment matrix,
/// carrying the complete serializable [`SimSpec`] it executes.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in matrix enumeration order (results are returned in this
    /// order regardless of which worker ran the cell).
    pub index: usize,
    /// Number of simulated cores.
    pub cores: usize,
    /// Name of the config variant.
    pub config_name: String,
    /// The resolved machine configuration (already adjusted to `cores`) —
    /// derived from the spec, cached for inspection.
    pub config: SystemConfig,
    /// The derived workload seed for the run (see
    /// [`SimSpec::derived_seed`]).
    pub seed: u64,
    /// The complete spec the cell runs.
    pub spec: SimSpec,
}

impl Cell {
    /// The cell at `index` that runs `spec`, reported under `config_name`;
    /// its core count, configuration and seed are derived from the spec.
    pub(crate) fn new(index: usize, config_name: String, spec: SimSpec) -> Cell {
        let config = spec.config();
        Cell {
            index,
            cores: config.num_cores,
            config_name,
            config,
            seed: spec.derived_seed(),
            spec,
        }
    }

    /// The cell's engine id.
    pub fn engine(&self) -> &EngineId {
        &self.spec.engine
    }

    /// The cell's workload name.
    pub fn workload(&self) -> &str {
        &self.spec.workload
    }

    /// The cell's commit target.
    pub fn commits(&self) -> u64 {
        self.spec.limits.target_commits
    }

    /// The engine's table label, from the registry metadata.
    pub fn engine_label(&self) -> String {
        registry::label_of(&self.spec.engine)
    }
}

/// Deterministic per-cell seed: a content hash of the cell's workload-facing
/// coordinates. The engine is deliberately *not* mixed in — every design in
/// a (workload, cores) group must see the same transaction stream for the
/// normalised comparisons to be apples-to-apples — and neither is the
/// config: a config sweep (log-buffer sizes, bandwidth multipliers, the
/// small/default/large ladder) must replay the *same* stream at every point
/// so the curve isolates the config effect, exactly as the pre-harness
/// binaries did with one fixed seed. The cell index and worker id are also
/// excluded, so seeds are stable under matrix reordering and any `--jobs`
/// value. ([`SimSpec::derived_seed`] is the same derivation at the spec
/// level; this free function survives for callers holding raw coordinates.)
pub fn cell_seed(base: u64, workload: &str, cores: usize) -> u64 {
    dhtm_types::seed::stable_cell_seed(base, workload, cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn cells_cover_the_cross_product_in_order() {
        let m = Matrix::new()
            .engines([DesignKind::SoftwareOnly, DesignKind::Dhtm])
            .workloads(["queue", "hash"])
            .core_counts([2, 4])
            .config(ConfigVariant::small());
        let cells = m.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
        // Engine-adjacent: the first two cells differ only in the engine.
        assert_eq!(cells[0].workload(), cells[1].workload());
        assert_eq!(cells[0].cores, cells[1].cores);
        assert_ne!(cells[0].engine(), cells[1].engine());
    }

    #[test]
    fn empty_core_axis_uses_config_core_count() {
        let m = Matrix::new()
            .engines([DesignKind::Dhtm])
            .workloads(["queue"])
            .config(ConfigVariant::small());
        let cells = m.cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].cores, SystemConfig::small_test().num_cores);
    }

    #[test]
    fn cell_seeds_ignore_engine_and_config_but_depend_on_coordinates() {
        let m = Matrix::new()
            .engines([DesignKind::SoftwareOnly, DesignKind::Dhtm])
            .workloads(["queue", "hash"])
            .core_counts([2, 4])
            .configs([ConfigVariant::small(), ConfigVariant::large()]);
        let cells = m.cells();
        for pair in cells.chunks(2) {
            // Same (workload, cores): both engines share the seed.
            assert_eq!(pair[0].seed, pair[1].seed);
        }
        let seeds: std::collections::BTreeSet<u64> = cells.iter().map(|c| c.seed).collect();
        assert_eq!(
            seeds.len(),
            4,
            "four distinct (workload, cores) groups; config sweeps replay the same stream"
        );
        assert_ne!(
            cell_seed(1, "hash", 4),
            cell_seed(2, "hash", 4),
            "base seed must matter"
        );
        assert_ne!(
            cell_seed(1, "hash", 4),
            cell_seed(1, "hash", 8),
            "core count must matter"
        );
    }

    #[test]
    fn cell_specs_are_complete_and_self_consistent() {
        let m = Matrix::new()
            .engines([
                EngineId::from(DesignKind::Dhtm),
                EngineId::new("dhtm-instant"),
            ])
            .workloads(["hash"])
            .core_counts([2])
            .config(ConfigVariant::small())
            .commits(CommitSpec::Fixed(9));
        for cell in m.cells() {
            cell.spec.validate().expect("cell specs validate");
            assert_eq!(cell.spec.config(), cell.config);
            assert_eq!(cell.spec.derived_seed(), cell.seed);
            assert_eq!(cell.spec.limits.target_commits, 9);
            // Round-trip: a cell's spec is fully serializable.
            let back = SimSpec::from_toml(&cell.spec.to_toml()).unwrap();
            assert_eq!(back, cell.spec);
        }
    }

    #[test]
    fn commit_spec_resolution() {
        assert_eq!(
            CommitSpec::PerWorkloadDefault.resolve("hash"),
            crate::default_commits_for("hash")
        );
        assert_eq!(
            CommitSpec::CappedDefault(64).resolve("hash"),
            crate::default_commits_for("hash").min(64)
        );
        assert_eq!(CommitSpec::Fixed(7).resolve("tpcc"), 7);
    }

    #[test]
    fn engine_labels_come_from_the_registry() {
        let m = Matrix::new()
            .engines([
                EngineId::from(DesignKind::SoftwareOnly),
                EngineId::new("dhtm-instant"),
            ])
            .workloads(["queue"])
            .config(ConfigVariant::small());
        let cells = m.cells();
        assert_eq!(cells[0].engine_label(), "SO");
        assert_eq!(cells[1].engine_label(), "DHTM-instant");
    }

    #[test]
    fn large_config_variant_is_valid() {
        let v = ConfigVariant::large();
        assert!(v.config().validate().is_ok());
        assert_eq!(v.config().log_buffer_entries, 128);
        // The overlay reproduces the historical hand-built large config.
        let mut legacy = SystemConfig::isca18_baseline()
            .with_log_buffer_entries(128)
            .with_bandwidth_multiplier(2.0);
        legacy.llc =
            dhtm_types::config::CacheGeometry::new(16 * 1024 * 1024, 16, legacy.l1.line_size);
        assert_eq!(v.config(), legacy);
    }
}
