//! Golden-stats regression lattice: pinned `committed` / `total_cycles` /
//! abort counts for every `DesignKind` on a fixed micro workload under
//! `SystemConfig::small_test`. Engine or driver refactors that change
//! *any* simulated outcome — scheduling order, conflict decisions, latency
//! accounting — will trip these exact-equality checks instead of silently
//! shifting every figure. Update the constants ONLY when a change to
//! simulated behaviour is intended, and say so in the commit message.

use dhtm_scenario::{ResolvedSpec, SpecLimits};
use dhtm_sim::driver::RunLimits;
use dhtm_types::config::SystemConfig;
use dhtm_types::policy::DesignKind;
use dhtm_types::stats::RunStats;

const GOLDEN_WORKLOAD: &str = "hash";
const GOLDEN_SEED: u64 = 0x15CA_2018;
const GOLDEN_COMMITS: u64 = 30;

/// One golden run: the raw [`GOLDEN_SEED`] as the workload seed (no
/// per-cell derivation) under `RunLimits::quick`'s cycle cap.
fn run_design(kind: DesignKind) -> RunStats {
    let limits = SpecLimits {
        target_commits: GOLDEN_COMMITS,
        max_cycles: RunLimits::quick().max_cycles,
    };
    ResolvedSpec::from_parts(
        &kind.into(),
        GOLDEN_WORKLOAD,
        SystemConfig::small_test(),
        limits,
        GOLDEN_SEED,
    )
    .run()
    .stats
}

/// (design, committed, total_cycles, total_aborts)
///
/// LogTM-ATOM and DHTM moved by exactly −1 cycle in the fixed-point
/// memory-channel PR (intended): the channel now models the configured
/// 2.65 B/cycle as the exact rational 53/20, so a transfer burst whose
/// byte total is a multiple of 53 drains in exactly its true integral
/// cycle count. The old accumulating-`f64` cursor carried a rounding
/// residue at those boundaries that ceiled one cycle of phantom busy time
/// into these two runs; the other four designs never hit such a boundary
/// and are bit-identical.
///
/// Pins moved in the crash-validation PR, which closed crash-consistency
/// holes the new recovery oracles exposed:
/// * SO — Mnemosyne-style store-granular log amendments (word records
///   streamed behind the synchronous line records, fenced at commit) made
///   its redo log complete enough to replay; the log bandwidth and commit
///   fence cost ~6% on hash.
/// * sdTM — the global-lock fallback path now streams word-granular redo
///   records write-aside instead of doubling the write set with in-HTM log
///   stores, and an aborted holder's speculative dirty line is no longer
///   forwarded into the LLC.
/// * ATOM — commit now flushes write-set lines that escaped to the LLC
///   mid-transaction (they were silently skipped, losing committed data on
///   a crash), and aborts roll the undo log back in place.
const GOLDEN: [(DesignKind, u64, u64, u64); 6] = [
    (DesignKind::SoftwareOnly, 30, 709_191, 0),
    (DesignKind::SdTm, 30, 1_720_888, 282),
    (DesignKind::Atom, 30, 406_537, 0),
    (DesignKind::LogTmAtom, 30, 336_491, 0),
    (DesignKind::Dhtm, 30, 340_247, 0),
    (DesignKind::NonPersistent, 30, 1_723_563, 286),
];

#[test]
fn golden_stats_all_designs() {
    let mut failures = Vec::new();
    for (kind, committed, total_cycles, total_aborts) in GOLDEN {
        let stats = run_design(kind);
        if (stats.committed, stats.total_cycles, stats.total_aborts())
            != (committed, total_cycles, total_aborts)
        {
            failures.push(format!(
                "({:?}, {}, {}, {}),",
                kind,
                stats.committed,
                stats.total_cycles,
                stats.total_aborts()
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "golden stats shifted; if the behaviour change is intended, update GOLDEN to:\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_runs_are_reproducible() {
    let a = run_design(DesignKind::Dhtm);
    let b = run_design(DesignKind::Dhtm);
    assert_eq!(a, b, "same seed + config must give identical stats");
}
