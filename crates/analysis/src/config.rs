//! The committed workspace configuration: crate tiers, float/item
//! allowlists, declared lock hierarchies and the blocking-call catalogue.
//!
//! This file *is* the policy. Changing what the lint permits means editing
//! these tables in a reviewable diff, not sprinkling ad-hoc escapes through
//! the tree — the only other pressure valve is an inline
//! `// lint: allow(<rule>, reason = "…")` with a mandatory reason.

/// Which rule set a crate is judged under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Simulation-state crates: one `SimSpec` + seed must yield one result,
    /// forever. Floats, unordered iteration and wall-clock/entropy sources
    /// are forbidden outside allowlisted reporting/config-boundary items.
    Deterministic,
    /// Crates that face the wall clock (the service, the worker
    /// pool, observability): exempt from the determinism rules but
    /// subject to the concurrency rules where a lock hierarchy is declared.
    WallClock,
}

/// One workspace crate under analysis.
#[derive(Debug, Clone, Copy)]
pub struct CrateConfig {
    /// Crate directory relative to the workspace root (`crates/types`,
    /// `vendor/rand`, or `.` for the root umbrella crate).
    pub dir: &'static str,
    /// The tier its sources are judged under.
    pub tier: Tier,
    /// Whether `src/lib.rs` must carry `#![forbid(unsafe_code)]`.
    pub require_forbid_unsafe: bool,
}

/// One allowlisted item: `rule` findings inside `item` of any file whose
/// path ends with `path_suffix` are accepted, with a recorded reason.
///
/// `item` matches the enclosing item path exactly or as a prefix followed
/// by `::` — so `"BaseConfig"` covers both the struct's fields and every
/// method in its impl blocks, while `"MemoryChannel::new"` covers only
/// that constructor.
#[derive(Debug, Clone, Copy)]
pub struct Allow {
    /// Path suffix the allow applies to (e.g. `nvm/src/bandwidth.rs`).
    pub path_suffix: &'static str,
    /// Item path ("Type::method", "fn_name", "Type", or "*" for the file).
    pub item: &'static str,
    /// The rule id being allowed.
    pub rule: &'static str,
    /// Why this item is allowed to break the rule.
    pub reason: &'static str,
}

/// A declared lock hierarchy for one threaded crate: locks may only be
/// acquired in strictly increasing rank order (outermost first).
#[derive(Debug, Clone, Copy)]
pub struct LockHierarchy {
    /// Crate directory the hierarchy applies to.
    pub crate_dir: &'static str,
    /// Lock field/binding names, outermost-first. Rank = index.
    pub order: &'static [&'static str],
}

/// A call considered blocking for the lock-across-blocking rule.
#[derive(Debug, Clone, Copy)]
pub struct BlockingCall {
    /// Method or function name (`recv`, `send`, `read_frame`, …).
    pub name: &'static str,
    /// When set, only a call whose receiver's last path segment equals this
    /// name matches (distinguishes `store.load(…)` — disk IO — from an
    /// atomic's `counter.load(…)`).
    pub receiver: Option<&'static str>,
    /// Short description used in the finding message.
    pub what: &'static str,
}

/// The full analysis configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crates to scan, with tiers.
    pub crates: Vec<CrateConfig>,
    /// Item allowlist.
    pub allows: Vec<Allow>,
    /// Declared lock hierarchies.
    pub hierarchies: Vec<LockHierarchy>,
    /// Calls treated as blocking while a lock is held.
    pub blocking: Vec<BlockingCall>,
}

impl Config {
    /// The committed configuration for this workspace.
    pub fn workspace() -> Config {
        Config {
            crates: vec![
                // Deterministic tier: everything a simulation result is
                // computed from.
                det("crates/types"),
                det("crates/cache"),
                det("crates/nvm"),
                det("crates/coherence"),
                det("crates/sim"),
                det("crates/htm"),
                det("crates/core"),
                det("crates/baselines"),
                det("crates/workloads"),
                det("crates/crash"),
                // Wall-clock tier: reporting, orchestration, IO.
                wall("crates/obs"),
                wall("crates/scenario"),
                wall("crates/service"),
                wall("crates/harness"),
                wall("crates/analysis"),
                // The umbrella crate and the vendored stand-ins only take
                // the `#![forbid(unsafe_code)]` check (the stand-ins are
                // support code — the seeded PRNG the workloads draw from is
                // deterministic by construction, not by this lint).
                wall("."),
                wall("vendor/rand"),
                wall("vendor/proptest"),
            ],
            allows: vec![
                // --- Reporting getters: floats computed *from* the exact
                // --- integer state, never stored back into it.
                allow(
                    "sim/src/driver.rs",
                    "SimulationResult::throughput",
                    rules::FLOAT_IN_DET,
                    "reporting getter over exact integer stats; never feeds back into simulation state",
                ),
                allow(
                    "cache/src/signature.rs",
                    "ReadSignature::occupancy",
                    rules::FLOAT_IN_DET,
                    "diagnostic false-positive-rate proxy; read by reports only",
                ),
                allow(
                    "types/src/stats.rs",
                    "RunStats",
                    rules::FLOAT_IN_DET,
                    "derived-rate getters (throughput, abort rate, hit rate) over the all-integer counters",
                ),
                // --- Config boundary: rates enter the system as f64 from
                // --- the CLI/spec surface and are decomposed to exact
                // --- rationals before any state is built from them.
                allow(
                    "types/src/config.rs",
                    "*",
                    rules::FLOAT_IN_DET,
                    "config boundary: bandwidth arrives as f64 (Table III units) and is converted to an exact rational before simulation",
                ),
                allow(
                    "nvm/src/bandwidth.rs",
                    "rational_from_f64",
                    rules::FLOAT_IN_DET,
                    "the one-way decomposition of the configured f64 rate into the exact decimal rational it denotes",
                ),
                allow(
                    "nvm/src/bandwidth.rs",
                    "MemoryChannel::new",
                    rules::FLOAT_IN_DET,
                    "constructor takes the config-boundary f64 and immediately decomposes it; no float is stored",
                ),
                allow(
                    "nvm/src/bandwidth.rs",
                    "MemoryChannel::isca18_baseline",
                    rules::FLOAT_IN_DET,
                    "the paper's Table III rate constant (5.3 GB/s at 2 GHz) handed to the config-boundary constructor",
                ),
                allow(
                    "nvm/src/bandwidth.rs",
                    "MemoryChannel::bytes_per_cycle",
                    rules::FLOAT_IN_DET,
                    "reporting getter recomposing the exact rational for display",
                ),
                allow(
                    "nvm/src/bandwidth.rs",
                    "MemoryChannel::utilisation",
                    rules::FLOAT_IN_DET,
                    "reporting getter; busy/horizon ratio for profiles only",
                ),
            ],
            hierarchies: vec![
                LockHierarchy {
                    crate_dir: "crates/service",
                    // Job table first, then the work-channel sender, then a
                    // worker's shared receiver, then the client loadgen's
                    // byte-identity check map. `ResultStore` does its IO
                    // internally without a lock and must never be consulted
                    // while `jobs` is held (that is the blocking rule's job).
                    order: &["jobs", "work_tx", "work_rx", "by_hash"],
                },
            ],
            blocking: vec![
                BlockingCall {
                    name: "recv",
                    receiver: None,
                    what: "blocking channel receive",
                },
                BlockingCall {
                    name: "recv_timeout",
                    receiver: None,
                    what: "blocking channel receive",
                },
                BlockingCall {
                    name: "send",
                    receiver: None,
                    what: "channel send (blocking on bounded channels)",
                },
                BlockingCall {
                    name: "join",
                    receiver: None,
                    what: "thread join",
                },
                BlockingCall {
                    name: "flush",
                    receiver: None,
                    what: "socket/file flush",
                },
                BlockingCall {
                    name: "load",
                    receiver: Some("store"),
                    what: "result-store disk read",
                },
                BlockingCall {
                    name: "load_by_hash",
                    receiver: Some("store"),
                    what: "result-store disk read",
                },
                BlockingCall {
                    name: "save",
                    receiver: Some("store"),
                    what: "result-store disk write",
                },
                BlockingCall {
                    name: "read_frame",
                    receiver: None,
                    what: "socket frame read",
                },
                BlockingCall {
                    name: "write_frame",
                    receiver: None,
                    what: "socket frame write",
                },
                BlockingCall {
                    name: "send_event",
                    receiver: None,
                    what: "socket event write",
                },
            ],
        }
    }

    /// The hierarchy declared for `crate_dir`, if any.
    pub fn hierarchy_for(&self, crate_dir: &str) -> Option<&LockHierarchy> {
        self.hierarchies.iter().find(|h| h.crate_dir == crate_dir)
    }

    /// Looks up an allowlist entry matching (file, item, rule).
    pub fn allow_for(&self, file: &str, item_path: &str, rule: &str) -> Option<&Allow> {
        self.allows.iter().find(|a| {
            a.rule == rule
                && file.ends_with(a.path_suffix)
                && (a.item == "*"
                    || item_path == a.item
                    || item_path.starts_with(a.item) && item_path[a.item.len()..].starts_with("::"))
        })
    }
}

fn det(dir: &'static str) -> CrateConfig {
    CrateConfig {
        dir,
        tier: Tier::Deterministic,
        require_forbid_unsafe: true,
    }
}

fn wall(dir: &'static str) -> CrateConfig {
    CrateConfig {
        dir,
        tier: Tier::WallClock,
        require_forbid_unsafe: true,
    }
}

fn allow(
    path_suffix: &'static str,
    item: &'static str,
    rule: &'static str,
    reason: &'static str,
) -> Allow {
    Allow {
        path_suffix,
        item,
        rule,
        reason,
    }
}

/// The rule catalogue: stable ids used in findings, suppressions and the
/// JSON report.
pub mod rules {
    /// `f32`/`f64` types or float literals in a deterministic-tier crate.
    pub const FLOAT_IN_DET: &str = "float-in-det";
    /// Iteration over a `HashMap`/`HashSet` in a deterministic-tier crate.
    pub const UNORDERED_ITER: &str = "unordered-iter";
    /// Wall-clock or entropy source in a deterministic-tier crate.
    pub const WALL_CLOCK: &str = "wall-clock";
    /// A crate root missing `#![forbid(unsafe_code)]`.
    pub const FORBID_UNSAFE: &str = "forbid-unsafe";
    /// A lock acquired out of the declared hierarchy order.
    pub const LOCK_ORDER: &str = "lock-order";
    /// A lock held across a blocking send/receive/IO call.
    pub const LOCK_BLOCKING: &str = "lock-blocking";
    /// A `// lint: allow(…)` without a reason, or naming an unknown rule.
    pub const BAD_SUPPRESSION: &str = "bad-suppression";

    /// Every rule id, for validation and `--list-rules`.
    pub const ALL: &[&str] = &[
        FLOAT_IN_DET,
        UNORDERED_ITER,
        WALL_CLOCK,
        FORBID_UNSAFE,
        LOCK_ORDER,
        LOCK_BLOCKING,
        BAD_SUPPRESSION,
    ];
}
