//! The typed, validating, serializable simulation spec.

use std::fmt;
use std::str::FromStr;

use dhtm_baselines::registry::{self, EngineId};
use dhtm_sim::driver::SimulationResult;
use dhtm_types::config::{BaseConfig, ConfigOverlay, SystemConfig};
use dhtm_types::seed::{content_hash64, stable_cell_seed};

use crate::exec::ResolvedSpec;
use crate::format;

/// Termination limits carried by a spec (the serializable face of
/// [`dhtm_sim::driver::RunLimits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecLimits {
    /// Stop once this many transactions have committed across all cores.
    pub target_commits: u64,
    /// Hard upper bound on simulated cycles (livelock guard).
    pub max_cycles: u64,
}

impl Default for SpecLimits {
    /// Exactly [`dhtm_sim::driver::RunLimits::evaluation`], which every
    /// harness cell runs under (derived, not copied, so the two can never
    /// drift).
    fn default() -> Self {
        let limits = dhtm_sim::driver::RunLimits::evaluation();
        SpecLimits {
            target_commits: limits.target_commits,
            max_cycles: limits.max_cycles,
        }
    }
}

/// A complete, serializable description of one simulation run: *which
/// engine* (by registry id), *which workload* (by name), *which machine*
/// (named base + sparse overlay), *how long* (limits) and *which stream*
/// (base seed). The single typed entry point the harness matrix and the
/// spec-file CLI construct runs through.
///
/// ```
/// use dhtm_scenario::SimSpec;
/// use dhtm_types::config::BaseConfig;
///
/// let spec = SimSpec::builder("dhtm", "hash")
///     .base(BaseConfig::Small)
///     .commits(10)
///     .build()
///     .unwrap();
/// let result = spec.run().unwrap();
/// assert_eq!(result.stats.committed, 10);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    /// The engine's registry id.
    pub engine: EngineId,
    /// The workload name ("queue".."rbtree", "tatp", "tpcc").
    pub workload: String,
    /// The named base machine configuration.
    pub base: BaseConfig,
    /// Sparse overrides applied on top of the base.
    pub overlay: ConfigOverlay,
    /// Termination limits.
    pub limits: SpecLimits,
    /// Base seed; the workload stream seed is derived from it via
    /// [`SimSpec::derived_seed`].
    pub seed: u64,
}

impl SimSpec {
    /// Starts building a spec for `engine` on `workload`.
    pub fn builder(engine: impl Into<EngineId>, workload: impl Into<String>) -> SimSpecBuilder {
        SimSpecBuilder {
            spec: SimSpec {
                engine: engine.into(),
                workload: workload.into(),
                base: BaseConfig::Isca18,
                overlay: ConfigOverlay::none(),
                limits: SpecLimits::default(),
                seed: crate::DEFAULT_SEED,
            },
        }
    }

    /// The fully resolved machine configuration (base + overlay).
    pub fn config(&self) -> SystemConfig {
        self.overlay.apply(self.base.resolve())
    }

    /// The workload-stream seed: a content hash of the spec's
    /// workload-facing coordinates, identical to the experiment harness's
    /// historical per-cell derivation. The engine, the config (beyond the
    /// core count) and the limits are deliberately *not* mixed in, so every
    /// engine and config-sweep point of a (workload, cores) group replays
    /// the same transaction stream.
    pub fn derived_seed(&self) -> u64 {
        stable_cell_seed(self.seed, &self.workload, self.config().num_cores)
    }

    /// Stable content-hash identity of the spec: a 64-bit hash of its
    /// canonical TOML form. Two specs hash equal iff every field that can
    /// affect the run is equal; the hash is stable across platforms and
    /// toolchains (see [`content_hash64`]).
    pub fn content_hash(&self) -> u64 {
        content_hash64(self.to_toml().as_bytes())
    }

    /// The canonical text form of [`SimSpec::content_hash`]: zero-padded
    /// 16-character lowercase hex ([`dhtm_types::seed::hash_hex`]). This is
    /// the form used everywhere a hash is printed, used as a result-store
    /// filename or sent over the service wire protocol.
    pub fn content_hash_hex(&self) -> String {
        dhtm_types::seed::hash_hex(self.content_hash())
    }

    /// Validates the spec: the engine must be registered, the workload
    /// known, the resolved config internally consistent and the limits
    /// positive.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), SpecError> {
        if registry::resolve(&self.engine).is_none() {
            return Err(SpecError::UnknownEngine(self.engine.clone()));
        }
        if !dhtm_workloads::is_known(&self.workload) {
            return Err(SpecError::UnknownWorkload(self.workload.clone()));
        }
        self.config().validate().map_err(SpecError::InvalidConfig)?;
        if self.limits.target_commits == 0 {
            return Err(SpecError::InvalidLimits(
                "target_commits must be > 0".into(),
            ));
        }
        if self.limits.max_cycles == 0 {
            return Err(SpecError::InvalidLimits("max_cycles must be > 0".into()));
        }
        Ok(())
    }

    /// Resolves the spec against the process-wide engine registry into a
    /// runnable form.
    ///
    /// # Errors
    ///
    /// Fails validation errors through unchanged.
    pub fn resolve(&self) -> Result<ResolvedSpec, SpecError> {
        self.validate()?;
        Ok(ResolvedSpec::from_spec(self))
    }

    /// Validates, resolves and runs the spec to completion.
    ///
    /// # Errors
    ///
    /// Fails if the spec does not validate.
    pub fn run(&self) -> Result<SimulationResult, SpecError> {
        Ok(self.resolve()?.run())
    }

    /// Serialises the spec to its canonical TOML form.
    pub fn to_toml(&self) -> String {
        format::to_toml(self)
    }

    /// Parses a spec from TOML.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] naming the offending line or key.
    pub fn from_toml(input: &str) -> Result<Self, SpecError> {
        format::from_toml(input)
    }

    /// Loads a spec from a `.toml` file.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] for unreadable files, other extensions
    /// or malformed content.
    pub fn load(path: &std::path::Path) -> Result<Self, SpecError> {
        let content = std::fs::read_to_string(path)
            .map_err(|e| SpecError::Parse(format!("cannot read {}: {e}", path.display())))?;
        match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => Self::from_toml(&content),
            other => Err(SpecError::Parse(format!(
                "unsupported spec extension {other:?} for {} (toml)",
                path.display()
            ))),
        }
    }
}

/// Builder with validation at the end — the ergonomic way to construct a
/// [`SimSpec`] in code (files go through [`SimSpec::from_toml`]).
#[derive(Debug, Clone)]
pub struct SimSpecBuilder {
    spec: SimSpec,
}

impl SimSpecBuilder {
    /// Sets the base machine configuration.
    #[must_use]
    pub fn base(mut self, base: BaseConfig) -> Self {
        self.spec.base = base;
        self
    }

    /// Sets the config overlay.
    #[must_use]
    pub fn overlay(mut self, overlay: ConfigOverlay) -> Self {
        self.spec.overlay = overlay;
        self
    }

    /// Sets the commit target.
    #[must_use]
    pub fn commits(mut self, target_commits: u64) -> Self {
        self.spec.limits.target_commits = target_commits;
        self
    }

    /// Sets the simulated-cycle cap.
    #[must_use]
    pub fn max_cycles(mut self, max_cycles: u64) -> Self {
        self.spec.limits.max_cycles = max_cycles;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.spec.seed = seed;
        self
    }

    /// Validates and returns the spec.
    ///
    /// # Errors
    ///
    /// Returns the first validation violation.
    pub fn build(self) -> Result<SimSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }

    /// Returns the spec without validating (for tests that need invalid
    /// specs, and for constructing specs before registering their engine).
    pub fn build_unchecked(self) -> SimSpec {
        self.spec
    }
}

/// Errors from spec validation, parsing or loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The engine id is not registered (register it via
    /// `dhtm_baselines::registry::register_global` first).
    UnknownEngine(EngineId),
    /// The workload name is not one of `dhtm_workloads::NAMES`.
    UnknownWorkload(String),
    /// The resolved configuration failed `SystemConfig::validate`.
    InvalidConfig(String),
    /// A limit is out of range.
    InvalidLimits(String),
    /// The TOML input (or file) could not be parsed.
    Parse(String),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownEngine(id) => write!(
                f,
                "unknown engine '{id}' (not in the registry; registered: {})",
                registry::global_snapshot()
                    .ids_iter()
                    .map(EngineId::as_str)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            SpecError::UnknownWorkload(name) => write!(f, "unknown workload '{name}'"),
            SpecError::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            SpecError::InvalidLimits(msg) => write!(f, "invalid limits: {msg}"),
            SpecError::Parse(msg) => write!(f, "spec parse error: {msg}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl FromStr for SimSpec {
    type Err = SpecError;

    /// Parses TOML (the canonical text form).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Self::from_toml(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhtm_types::policy::DesignKind;

    #[test]
    fn builder_produces_a_valid_runnable_spec() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .commits(8)
            .seed(7)
            .build()
            .unwrap();
        let result = spec.run().unwrap();
        assert_eq!(result.stats.committed, 8);
        assert_eq!(result.design, DesignKind::Dhtm);
        assert_eq!(result.workload, "hash");
    }

    #[test]
    fn load_reads_toml_files_only() {
        let dir = std::env::temp_dir().join(format!("dhtm_spec_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .build_unchecked();
        let toml = dir.join("spec.toml");
        std::fs::write(&toml, spec.to_toml()).unwrap();
        assert_eq!(SimSpec::load(&toml).unwrap(), spec);
        let json = dir.join("spec.json");
        std::fs::write(&json, "{\"engine\": \"dhtm\", \"workload\": \"hash\"}").unwrap();
        assert!(matches!(
            SimSpec::load(&json),
            Err(SpecError::Parse(msg)) if msg.contains("unsupported spec extension")
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validation_rejects_unknown_engine_and_workload() {
        let bad_engine = SimSpec::builder("warp-drive", "hash").build_unchecked();
        assert!(matches!(
            bad_engine.validate(),
            Err(SpecError::UnknownEngine(_))
        ));
        let bad_workload = SimSpec::builder(DesignKind::Dhtm, "ycsb").build_unchecked();
        assert!(matches!(
            bad_workload.validate(),
            Err(SpecError::UnknownWorkload(_))
        ));
    }

    #[test]
    fn validation_rejects_bad_config_and_limits() {
        let bad_cfg = SimSpec::builder(DesignKind::Dhtm, "hash")
            .overlay(ConfigOverlay {
                read_signature_bits: Some(100),
                ..Default::default()
            })
            .build_unchecked();
        assert!(matches!(
            bad_cfg.validate(),
            Err(SpecError::InvalidConfig(_))
        ));
        let bad_limits = SimSpec::builder(DesignKind::Dhtm, "hash")
            .commits(0)
            .build_unchecked();
        assert!(matches!(
            bad_limits.validate(),
            Err(SpecError::InvalidLimits(_))
        ));
    }

    #[test]
    fn validation_refuses_a_bandwidth_the_memory_channel_cannot_model() {
        // Used to validate, then panic in `MemoryChannel::new`'s range
        // assert when the machine was built.
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .overlay(ConfigOverlay::none().with_bandwidth_multiplier(1e-300))
            .build_unchecked();
        assert!(matches!(spec.validate(), Err(SpecError::InvalidConfig(_))));
        assert!(spec.run().is_err());
    }

    #[test]
    fn validation_refuses_an_oversized_log_buffer() {
        // Used to validate, then abort the process on a multi-gigabyte
        // log-buffer allocation when the machine was built.
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .overlay(ConfigOverlay::none().with_log_buffer_entries(4_000_000_000))
            .build_unchecked();
        assert!(matches!(spec.validate(), Err(SpecError::InvalidConfig(_))));
        assert!(spec.run().is_err());
    }

    /// Specs that parse but describe a machine the simulator cannot
    /// build. Each used to pass `from_toml` and then fail: the first
    /// three in `ConfigOverlay::apply`'s geometry assert (or a division
    /// by zero) inside `validate`, the fourth on a 64-bit sharer-mask shift
    /// once the run started, the last two when the engine allocated its
    /// per-core read signatures.
    const HOSTILE_CONFIGS: [(&str, &str); 6] = [
        ("llc_ways = 3", "power of two"),
        ("llc_capacity_bytes = 1", "at least one set"),
        ("llc_ways = 0", "ways must lie within"),
        ("num_cores = 65", "num_cores must lie within"),
        // 2^40 and 2^62 bits: a 128 GiB per-core allocation that aborts
        // the process, and a "capacity overflow" panic.
        (
            "read_signature_bits = 1099511627776",
            "read_signature_bits must be at most",
        ),
        (
            "read_signature_bits = 4611686018427387904",
            "read_signature_bits must be at most",
        ),
    ];

    fn hostile_spec(config: &str) -> SimSpec {
        SimSpec::from_toml(&format!(
            "engine = \"dhtm\"\nworkload = \"hash\"\nbase_config = \"small\"\n\
             commits = 4\n[config]\n{config}\n"
        ))
        .expect("hostile specs are well-formed")
    }

    #[test]
    fn hostile_specs_fail_validation_instead_of_panicking() {
        for (config, message) in HOSTILE_CONFIGS {
            let spec = hostile_spec(config);
            match spec.validate() {
                Err(SpecError::InvalidConfig(e)) => {
                    assert!(e.contains(message), "{config}: got {e:?}");
                }
                other => panic!("{config}: expected an invalid config, got {other:?}"),
            }
            assert!(spec.run().is_err(), "{config}");
        }
    }

    #[test]
    fn the_largest_valid_machine_validates() {
        let edge = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .overlay(ConfigOverlay {
                num_cores: Some(dhtm_types::config::MAX_CORES),
                llc_capacity_bytes: Some(dhtm_types::config::MAX_CACHE_LINES * 64),
                llc_ways: Some(12),
                ..Default::default()
            })
            .build_unchecked();
        // 2^22 lines in 12 ways is not a power-of-two set count; 16 ways is.
        assert!(edge.validate().is_err());
        let edge = SimSpec {
            overlay: ConfigOverlay {
                llc_ways: Some(16),
                ..edge.overlay
            },
            ..edge
        };
        assert!(edge.validate().is_ok(), "{:?}", edge.validate());
        let over = SimSpec {
            overlay: ConfigOverlay {
                llc_capacity_bytes: Some(dhtm_types::config::MAX_CACHE_LINES * 64 * 2),
                llc_ways: Some(32),
                ..edge.overlay
            },
            ..edge
        };
        assert!(over.validate().is_err());
    }

    #[test]
    fn derived_seed_matches_the_harness_cell_derivation() {
        let spec = SimSpec::builder(DesignKind::SoftwareOnly, "queue")
            .base(BaseConfig::Small)
            .overlay(ConfigOverlay::none().with_num_cores(2))
            .seed(0x15CA_2018)
            .build()
            .unwrap();
        assert_eq!(
            spec.derived_seed(),
            stable_cell_seed(0x15CA_2018, "queue", 2)
        );
        // Engine-independent: a different engine, same stream.
        let other = SimSpec {
            engine: DesignKind::Dhtm.into(),
            ..spec.clone()
        };
        assert_eq!(spec.derived_seed(), other.derived_seed());
        // Config-independent beyond the core count.
        let swept = SimSpec {
            overlay: spec.overlay.with_log_buffer_entries(8),
            ..spec.clone()
        };
        assert_eq!(spec.derived_seed(), swept.derived_seed());
    }

    #[test]
    fn content_hash_distinguishes_every_field() {
        let base = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .build_unchecked();
        let variants = [
            SimSpec {
                engine: EngineId::new("dhtm-instant"),
                ..base.clone()
            },
            SimSpec {
                workload: "queue".into(),
                ..base.clone()
            },
            SimSpec {
                base: BaseConfig::Isca18,
                ..base.clone()
            },
            SimSpec {
                overlay: base.overlay.with_num_cores(2),
                ..base.clone()
            },
            SimSpec {
                seed: base.seed + 1,
                ..base.clone()
            },
            {
                let mut s = base.clone();
                s.limits.target_commits += 1;
                s
            },
        ];
        for v in &variants {
            assert_ne!(v.content_hash(), base.content_hash(), "{v:?}");
        }
        assert_eq!(base.clone().content_hash(), base.content_hash());
    }

    #[test]
    fn content_hash_hex_matches_the_canonical_formatter() {
        let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
            .base(BaseConfig::Small)
            .build_unchecked();
        let hex = spec.content_hash_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(hex, dhtm_types::seed::hash_hex(spec.content_hash()));
        assert_eq!(
            dhtm_types::seed::parse_hash_hex(&hex),
            Some(spec.content_hash())
        );
    }
}
