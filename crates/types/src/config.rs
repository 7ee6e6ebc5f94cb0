//! System configuration mirroring Table III of the paper.
//!
//! | Parameter | Paper value |
//! |---|---|
//! | Cores | 8 in-order cores @ 2 GHz |
//! | L1 I/D cache | 32 KB, 64 B lines, 4-way |
//! | L1 access latency | 3 cycles |
//! | L2 (LLC) | 1 MB × 8 tiles, 64 B lines, 16-way |
//! | L2 access latency | 30 cycles |
//! | MSHRs | 32 (not modelled) |
//! | NVM access latency | 360 (write) / 240 (read) cycles |
//! | Peak memory bandwidth | 5.3 GB/s |
//!
//! The defaults produced by [`SystemConfig::isca18_baseline`] reproduce this
//! table; individual experiments override specific fields (e.g. the log-buffer
//! sweep of Figure 6 or the bandwidth scaling of Table VII).

use crate::addr::LINE_SIZE;
use crate::policy::ConflictPolicy;

/// Lowest memory bandwidth, in bytes per core cycle, a configuration may
/// resolve to: `2^-16`, the bottom of the range the NVM channel model's
/// integer arithmetic supports.
pub const MIN_BYTES_PER_CYCLE: f64 = 1.0 / 65536.0;

/// Highest memory bandwidth, in bytes per core cycle: `2^16`.
pub const MAX_BYTES_PER_CYCLE: f64 = 65536.0;

/// Largest accepted DHTM log buffer, in entries. Figure 6 sweeps 4..128;
/// the cap leaves ample room above that while keeping the per-core buffer
/// allocation small enough to always succeed.
pub const MAX_LOG_BUFFER_ENTRIES: usize = 1 << 16;

/// Most cores a configuration may have: the LLC directory keeps each
/// line's sharers in a 64-bit mask, one bit per core.
pub const MAX_CORES: usize = 64;

/// Largest accepted read-set overflow signature, in bits: 2^20, 512 times
/// the paper's 2048. Each core allocates its signature up front (128 KiB at
/// this bound) and clears it at every transaction begin.
pub const MAX_READ_SIGNATURE_BITS: usize = 1 << 20;

/// Largest cache, in lines: 2^22, i.e. 256 MiB of 64-byte lines, 32 times
/// the paper's LLC. A set-associative array reserves fewer than two slots
/// per line and addresses them with `u32` offsets; this bound keeps the
/// offsets in range and, for the simulator's ~100-byte slots, the
/// untouched reservation under 1 GiB.
pub const MAX_CACHE_LINES: usize = 1 << 22;

/// Largest associativity: a set's occupancy and block size are `u16`.
pub const MAX_WAYS: usize = u16::MAX as usize;

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Associativity (number of ways per set).
    pub ways: usize,
    /// Line size in bytes.
    pub line_size: usize,
}

impl CacheGeometry {
    /// Creates a geometry description.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheGeometry::check`].
    pub fn new(capacity_bytes: usize, ways: usize, line_size: usize) -> Self {
        let g = CacheGeometry {
            capacity_bytes,
            ways,
            line_size,
        };
        if let Err(e) = g.check() {
            panic!("{e}");
        }
        g
    }

    /// Checks that the cache arrays can model this geometry: a positive
    /// line size, 1 to [`MAX_WAYS`] ways, at most [`MAX_CACHE_LINES`]
    /// lines, and a capacity that divides into a power-of-two number of
    /// sets (the set index is a mask).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated bound.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.line_size == 0 {
            return Err("cache line size must be > 0".into());
        }
        if !(1..=MAX_WAYS).contains(&self.ways) {
            return Err(format!(
                "cache ways must lie within [1, {MAX_WAYS}], got {}",
                self.ways
            ));
        }
        let lines = self.num_lines();
        if lines > MAX_CACHE_LINES {
            return Err(format!(
                "a cache of {lines} lines exceeds the {MAX_CACHE_LINES}-line maximum"
            ));
        }
        let sets = self.num_sets();
        if sets == 0 {
            return Err("cache must have at least one set".into());
        }
        if !sets.is_power_of_two() {
            return Err(format!("number of sets ({sets}) must be a power of two"));
        }
        Ok(())
    }

    /// Number of cache lines the cache can hold.
    pub fn num_lines(&self) -> usize {
        self.capacity_bytes / self.line_size
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.ways
    }

    /// The paper's L1 geometry: 32 KB, 4-way, 64 B lines.
    pub fn isca18_l1() -> Self {
        CacheGeometry::new(32 * 1024, 4, LINE_SIZE)
    }

    /// The paper's LLC geometry: 1 MB × 8 tiles, 16-way, 64 B lines.
    pub fn isca18_llc() -> Self {
        CacheGeometry::new(8 * 1024 * 1024, 16, LINE_SIZE)
    }
}

/// Access latencies, in core cycles, for each level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// L1 hit latency (Table III: 3 cycles).
    pub l1_hit: u64,
    /// LLC hit latency (Table III: 30 cycles).
    pub llc_hit: u64,
    /// NVM read latency (Table III: 240 cycles).
    pub nvm_read: u64,
    /// NVM write latency (Table III: 360 cycles).
    pub nvm_write: u64,
    /// Latency of a directory-initiated forward or invalidation hop between
    /// two L1 caches (on-chip network round trip). Not spelled out in the
    /// paper; chosen comparable to an LLC access.
    pub coherence_hop: u64,
}

impl LatencyConfig {
    /// The Table III latency configuration.
    pub fn isca18_baseline() -> Self {
        LatencyConfig {
            l1_hit: 3,
            llc_hit: 30,
            nvm_read: 240,
            nvm_write: 360,
            coherence_hop: 30,
        }
    }
}

impl Default for LatencyConfig {
    fn default() -> Self {
        Self::isca18_baseline()
    }
}

/// Software overhead model for designs that perform logging or concurrency
/// control in software (SO, sdTM and the fallback paths).
///
/// These constants model instruction overhead on the in-order cores of the
/// paper's setup: creating a log entry in software requires composing
/// address/value pairs, issuing non-temporal stores and ordering them with
/// fences; acquiring a lock requires an atomic read-modify-write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoftwareCostConfig {
    /// Instruction overhead (cycles) for composing one software log entry.
    pub log_entry_setup: u64,
    /// Cycles spent on an sfence/pcommit-style ordering point.
    pub persist_fence: u64,
    /// Cycles for an uncontended lock acquire (atomic RMW on a cached line).
    pub lock_acquire: u64,
    /// Cycles for a lock release (store + fence).
    pub lock_release: u64,
}

impl SoftwareCostConfig {
    /// Default software cost model used throughout the evaluation.
    pub fn isca18_baseline() -> Self {
        SoftwareCostConfig {
            log_entry_setup: 12,
            persist_fence: 30,
            lock_acquire: 20,
            lock_release: 10,
        }
    }
}

impl Default for SoftwareCostConfig {
    fn default() -> Self {
        Self::isca18_baseline()
    }
}

/// Complete configuration of the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of in-order cores (one hardware thread each).
    pub num_cores: usize,
    /// Core clock frequency in Hz (2 GHz in the paper). Only used to convert
    /// the memory bandwidth into bytes/cycle.
    pub core_freq_hz: u64,
    /// Private L1 data cache geometry.
    pub l1: CacheGeometry,
    /// Shared LLC geometry (aggregate over all tiles).
    pub llc: CacheGeometry,
    /// Number of LLC tiles/banks (8 in the paper).
    pub llc_tiles: usize,
    /// Access latencies.
    pub latency: LatencyConfig,
    /// Software operation cost model.
    pub software: SoftwareCostConfig,
    /// Peak memory bandwidth in bytes per second (5.3 GB/s in the paper).
    pub mem_bandwidth_bytes_per_sec: f64,
    /// Multiplier applied to the peak bandwidth (Table VII sweeps 1×/2×/10×).
    pub bandwidth_multiplier: f64,
    /// Number of entries in the DHTM log buffer (64 by default, Figure 6
    /// sweeps 4..128).
    pub log_buffer_entries: usize,
    /// Capacity, in log records, of each per-thread circular transaction log.
    pub log_region_records: usize,
    /// Capacity, in addresses, of each per-transaction overflow list.
    pub overflow_list_entries: usize,
    /// Number of bits in the read-set overflow signature.
    pub read_signature_bits: usize,
    /// HTM conflict resolution policy (the paper's default is first-writer
    /// wins, as in IBM POWER8).
    pub conflict_policy: ConflictPolicy,
    /// Maximum number of times an HTM transaction retries before taking the
    /// software fallback path.
    pub max_htm_retries: usize,
}

impl SystemConfig {
    /// The configuration used throughout the paper's evaluation (Table III).
    pub fn isca18_baseline() -> Self {
        SystemConfig {
            num_cores: 8,
            core_freq_hz: 2_000_000_000,
            l1: CacheGeometry::isca18_l1(),
            llc: CacheGeometry::isca18_llc(),
            llc_tiles: 8,
            latency: LatencyConfig::isca18_baseline(),
            software: SoftwareCostConfig::isca18_baseline(),
            mem_bandwidth_bytes_per_sec: 5.3e9,
            bandwidth_multiplier: 1.0,
            log_buffer_entries: 64,
            log_region_records: 64 * 1024,
            overflow_list_entries: 16 * 1024,
            read_signature_bits: 2048,
            conflict_policy: ConflictPolicy::FirstWriterWins,
            max_htm_retries: 8,
        }
    }

    /// A scaled-down configuration for fast unit/integration tests: 4 cores,
    /// small caches, small logs. Behavioural properties (coalescing,
    /// overflow, recovery) are identical, only capacities shrink.
    pub fn small_test() -> Self {
        SystemConfig {
            num_cores: 4,
            l1: CacheGeometry::new(2 * 1024, 2, LINE_SIZE),
            llc: CacheGeometry::new(32 * 1024, 4, LINE_SIZE),
            llc_tiles: 2,
            log_buffer_entries: 4,
            log_region_records: 4 * 1024,
            overflow_list_entries: 1024,
            read_signature_bits: 256,
            ..Self::isca18_baseline()
        }
    }

    /// Effective memory bandwidth in bytes per core cycle, after applying the
    /// bandwidth multiplier.
    ///
    /// With the baseline parameters this is 5.3 GB/s ÷ 2 GHz = 2.65 B/cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.mem_bandwidth_bytes_per_sec * self.bandwidth_multiplier / self.core_freq_hz as f64
    }

    /// Returns a copy with a different log-buffer size (Figure 6 sweep).
    #[must_use]
    pub fn with_log_buffer_entries(mut self, entries: usize) -> Self {
        self.log_buffer_entries = entries;
        self
    }

    /// Returns a copy with a different bandwidth multiplier (Table VII sweep).
    #[must_use]
    pub fn with_bandwidth_multiplier(mut self, multiplier: f64) -> Self {
        self.bandwidth_multiplier = multiplier;
        self
    }

    /// Returns a copy with a different core count.
    #[must_use]
    pub fn with_num_cores(mut self, num_cores: usize) -> Self {
        self.num_cores = num_cores;
        self
    }

    /// Returns a copy with a different conflict resolution policy.
    #[must_use]
    pub fn with_conflict_policy(mut self, policy: ConflictPolicy) -> Self {
        self.conflict_policy = policy;
        self
    }

    /// Validates internal consistency of the configuration.
    ///
    /// # Errors
    ///
    /// Returns a descriptive error string if any field is out of range.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if !(1..=MAX_CORES).contains(&self.num_cores) {
            return Err(format!(
                "num_cores must lie within [1, {MAX_CORES}], got {}",
                self.num_cores
            ));
        }
        self.l1.check().map_err(|e| format!("l1: {e}"))?;
        self.llc.check().map_err(|e| format!("llc: {e}"))?;
        if !(1..=MAX_LOG_BUFFER_ENTRIES).contains(&self.log_buffer_entries) {
            return Err(format!(
                "log_buffer_entries must lie within [1, {MAX_LOG_BUFFER_ENTRIES}], got {}",
                self.log_buffer_entries
            ));
        }
        let bpc = self.bytes_per_cycle();
        if !(MIN_BYTES_PER_CYCLE..=MAX_BYTES_PER_CYCLE).contains(&bpc) {
            return Err(format!(
                "memory bandwidth must lie within [2^-16, 2^16] bytes per cycle, got {bpc}"
            ));
        }
        if self.llc.capacity_bytes < self.l1.capacity_bytes {
            return Err("LLC must be at least as large as one L1".into());
        }
        if self.read_signature_bits == 0 || !self.read_signature_bits.is_power_of_two() {
            return Err("read_signature_bits must be a power of two".into());
        }
        if self.read_signature_bits > MAX_READ_SIGNATURE_BITS {
            return Err(format!(
                "read_signature_bits must be at most {MAX_READ_SIGNATURE_BITS}, got {}",
                self.read_signature_bits
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::isca18_baseline()
    }
}

/// A *named* base machine configuration — the serializable anchor a
/// scenario spec builds from. Every experiment configuration in this
/// repository is one of these bases plus a [`ConfigOverlay`], which is what
/// lets a `SimSpec` round-trip through TOML without serialising every
/// field of [`SystemConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BaseConfig {
    /// The paper's Table III machine ([`SystemConfig::isca18_baseline`]).
    #[default]
    Isca18,
    /// The scaled-down test machine ([`SystemConfig::small_test`]).
    Small,
}

impl BaseConfig {
    /// Every named base, for enumeration in docs and tests.
    pub const ALL: [BaseConfig; 2] = [BaseConfig::Isca18, BaseConfig::Small];

    /// The canonical spec-file name of the base ("isca18", "small").
    pub fn name(self) -> &'static str {
        match self {
            BaseConfig::Isca18 => "isca18",
            BaseConfig::Small => "small",
        }
    }

    /// Materialises the base configuration.
    pub fn resolve(self) -> SystemConfig {
        match self {
            BaseConfig::Isca18 => SystemConfig::isca18_baseline(),
            BaseConfig::Small => SystemConfig::small_test(),
        }
    }
}

impl std::fmt::Display for BaseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for BaseConfig {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s {
            "isca18" | "default" => Ok(BaseConfig::Isca18),
            "small" | "small_test" => Ok(BaseConfig::Small),
            other => Err(format!("unknown base config '{other}' (isca18|small)")),
        }
    }
}

/// A sparse set of overrides applied on top of a [`BaseConfig`]: only the
/// fields an experiment actually sweeps. `None` means "keep the base
/// value", so an empty overlay is the base itself and two overlays compose
/// by field-wise `or`. This is the "config" table of a scenario spec file;
/// it deliberately covers every variant the experiment catalogue uses
/// (log-buffer sweeps, bandwidth scaling, the small/default/large ladder)
/// so catalogue cells are fully serializable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ConfigOverlay {
    /// Override for [`SystemConfig::num_cores`].
    pub num_cores: Option<usize>,
    /// Override for [`SystemConfig::log_buffer_entries`].
    pub log_buffer_entries: Option<usize>,
    /// Override for [`SystemConfig::bandwidth_multiplier`].
    pub bandwidth_multiplier: Option<f64>,
    /// Override for [`SystemConfig::conflict_policy`].
    pub conflict_policy: Option<ConflictPolicy>,
    /// Override for [`SystemConfig::max_htm_retries`].
    pub max_htm_retries: Option<usize>,
    /// Override for [`SystemConfig::read_signature_bits`].
    pub read_signature_bits: Option<usize>,
    /// Override for the LLC capacity in bytes (the LLC keeps the base's
    /// line size; pair with [`ConfigOverlay::llc_ways`] as needed).
    pub llc_capacity_bytes: Option<usize>,
    /// Override for the LLC associativity.
    pub llc_ways: Option<usize>,
}

impl ConfigOverlay {
    /// The empty overlay (the base configuration unchanged).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether no field is overridden.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Applies the overlay to a base configuration. The result is not
    /// validated; [`SystemConfig::validate`] reports any out-of-range
    /// field, the LLC geometry included.
    pub fn apply(&self, mut cfg: SystemConfig) -> SystemConfig {
        if let Some(n) = self.num_cores {
            cfg.num_cores = n;
        }
        if let Some(n) = self.log_buffer_entries {
            cfg.log_buffer_entries = n;
        }
        if let Some(m) = self.bandwidth_multiplier {
            cfg.bandwidth_multiplier = m;
        }
        if let Some(p) = self.conflict_policy {
            cfg.conflict_policy = p;
        }
        if let Some(n) = self.max_htm_retries {
            cfg.max_htm_retries = n;
        }
        if let Some(n) = self.read_signature_bits {
            cfg.read_signature_bits = n;
        }
        // Unchecked: an overlay may describe a geometry the cache arrays
        // cannot model, which `SystemConfig::validate` then reports.
        if let Some(n) = self.llc_capacity_bytes {
            cfg.llc.capacity_bytes = n;
        }
        if let Some(n) = self.llc_ways {
            cfg.llc.ways = n;
        }
        cfg
    }

    /// Returns a copy with the core count overridden (the matrix's
    /// core-count axis composes onto each config variant this way).
    #[must_use]
    pub fn with_num_cores(mut self, num_cores: usize) -> Self {
        self.num_cores = Some(num_cores);
        self
    }

    /// Returns a copy with the log-buffer size overridden.
    #[must_use]
    pub fn with_log_buffer_entries(mut self, entries: usize) -> Self {
        self.log_buffer_entries = Some(entries);
        self
    }

    /// Returns a copy with the bandwidth multiplier overridden.
    #[must_use]
    pub fn with_bandwidth_multiplier(mut self, multiplier: f64) -> Self {
        self.bandwidth_multiplier = Some(multiplier);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_table_iii() {
        let cfg = SystemConfig::isca18_baseline();
        assert_eq!(cfg.num_cores, 8);
        assert_eq!(cfg.l1.capacity_bytes, 32 * 1024);
        assert_eq!(cfg.l1.ways, 4);
        assert_eq!(cfg.l1.line_size, 64);
        assert_eq!(cfg.llc.capacity_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.llc.ways, 16);
        assert_eq!(cfg.latency.l1_hit, 3);
        assert_eq!(cfg.latency.llc_hit, 30);
        assert_eq!(cfg.latency.nvm_read, 240);
        assert_eq!(cfg.latency.nvm_write, 360);
        assert_eq!(cfg.log_buffer_entries, 64);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn bytes_per_cycle_matches_peak_bandwidth() {
        let cfg = SystemConfig::isca18_baseline();
        let bpc = cfg.bytes_per_cycle();
        assert!((bpc - 2.65).abs() < 1e-9, "got {bpc}");
        let cfg10 = cfg.with_bandwidth_multiplier(10.0);
        assert!((cfg10.bytes_per_cycle() - 26.5).abs() < 1e-9);
    }

    #[test]
    fn l1_geometry_sets() {
        let g = CacheGeometry::isca18_l1();
        assert_eq!(g.num_lines(), 512);
        assert_eq!(g.num_sets(), 128);
    }

    #[test]
    fn llc_geometry_sets() {
        let g = CacheGeometry::isca18_llc();
        assert_eq!(g.num_lines(), 131_072);
        assert_eq!(g.num_sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheGeometry::new(3 * 1024, 4, 64);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SystemConfig::small_test();
        assert!(cfg.validate().is_ok());
        cfg.num_cores = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small_test();
        cfg.log_buffer_entries = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small_test();
        cfg.read_signature_bits = 100;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validation_bounds_match_the_constructors() {
        let mut cfg = SystemConfig::small_test();
        cfg.log_buffer_entries = MAX_LOG_BUFFER_ENTRIES;
        assert!(cfg.validate().is_ok());
        cfg.log_buffer_entries = MAX_LOG_BUFFER_ENTRIES + 1;
        assert!(cfg.validate().is_err());

        let mut cfg = SystemConfig::small_test();
        cfg.read_signature_bits = MAX_READ_SIGNATURE_BITS;
        assert!(cfg.validate().is_ok());
        for bits in [MAX_READ_SIGNATURE_BITS * 2, 1 << 40, 1 << 62] {
            cfg.read_signature_bits = bits;
            let err = cfg.validate().unwrap_err();
            assert!(err.contains("read_signature_bits must be at most"), "{err}");
        }

        let base = SystemConfig::small_test().bytes_per_cycle();
        for (multiplier, ok) in [
            (1.01 * MIN_BYTES_PER_CYCLE / base, true),
            (0.99 * MAX_BYTES_PER_CYCLE / base, true),
            (1e-300, false),
            (1e300, false),
            (f64::NAN, false),
            (f64::INFINITY, false),
            (0.0, false),
            (-1.0, false),
        ] {
            let cfg = SystemConfig::small_test().with_bandwidth_multiplier(multiplier);
            assert_eq!(cfg.validate().is_ok(), ok, "multiplier {multiplier}");
        }
    }

    #[test]
    fn builder_style_overrides() {
        let cfg = SystemConfig::isca18_baseline()
            .with_log_buffer_entries(16)
            .with_num_cores(4)
            .with_conflict_policy(ConflictPolicy::RequesterWins);
        assert_eq!(cfg.log_buffer_entries, 16);
        assert_eq!(cfg.num_cores, 4);
        assert_eq!(cfg.conflict_policy, ConflictPolicy::RequesterWins);
    }

    #[test]
    fn small_test_config_is_valid() {
        assert!(SystemConfig::small_test().validate().is_ok());
    }

    #[test]
    fn base_config_resolves_and_round_trips_names() {
        for base in BaseConfig::ALL {
            assert!(base.resolve().validate().is_ok());
            assert_eq!(base.name().parse::<BaseConfig>().unwrap(), base);
            assert_eq!(format!("{base}"), base.name());
        }
        assert_eq!("default".parse::<BaseConfig>().unwrap(), BaseConfig::Isca18);
        assert!("medium".parse::<BaseConfig>().is_err());
    }

    #[test]
    fn empty_overlay_is_identity() {
        let overlay = ConfigOverlay::none();
        assert!(overlay.is_empty());
        assert_eq!(
            overlay.apply(SystemConfig::isca18_baseline()),
            SystemConfig::isca18_baseline()
        );
    }

    #[test]
    fn overlay_applies_every_field() {
        let overlay = ConfigOverlay {
            num_cores: Some(2),
            log_buffer_entries: Some(16),
            bandwidth_multiplier: Some(2.0),
            conflict_policy: Some(ConflictPolicy::RequesterWins),
            max_htm_retries: Some(3),
            read_signature_bits: Some(512),
            llc_capacity_bytes: Some(16 * 1024 * 1024),
            llc_ways: Some(8),
        };
        assert!(!overlay.is_empty());
        let cfg = overlay.apply(SystemConfig::isca18_baseline());
        assert_eq!(cfg.num_cores, 2);
        assert_eq!(cfg.log_buffer_entries, 16);
        assert_eq!(cfg.bandwidth_multiplier, 2.0);
        assert_eq!(cfg.conflict_policy, ConflictPolicy::RequesterWins);
        assert_eq!(cfg.max_htm_retries, 3);
        assert_eq!(cfg.read_signature_bits, 512);
        assert_eq!(cfg.llc.capacity_bytes, 16 * 1024 * 1024);
        assert_eq!(cfg.llc.ways, 8);
        assert_eq!(
            cfg.llc.line_size,
            SystemConfig::isca18_baseline().llc.line_size
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn overlay_matches_the_builder_style_overrides() {
        // The overlay path and the with_* builder path must agree — the
        // experiment catalogue was ported from the latter to the former.
        let via_builders = SystemConfig::isca18_baseline()
            .with_log_buffer_entries(8)
            .with_bandwidth_multiplier(10.0)
            .with_num_cores(4);
        let via_overlay = ConfigOverlay::none()
            .with_log_buffer_entries(8)
            .with_bandwidth_multiplier(10.0)
            .with_num_cores(4)
            .apply(SystemConfig::isca18_baseline());
        assert_eq!(via_builders, via_overlay);
    }
}
