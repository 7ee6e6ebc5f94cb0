//! Property test: every representable `SimSpec` survives a TOML round-trip
//! bit-exactly, and equal specs hash equal. This is what makes
//! spec files trustworthy as experiment identities: if serialisation
//! dropped or perturbed any field, reproduction-from-file would silently
//! diverge from reproduction-in-code.

use proptest::prelude::*;

use dhtm_scenario::{SimSpec, SpecLimits};
use dhtm_types::config::{BaseConfig, ConfigOverlay};
use dhtm_types::policy::{ConflictPolicy, DesignKind};

const ENGINES: [&str; 9] = [
    "so",
    "sdtm",
    "atom",
    "logtm-atom",
    "dhtm",
    "np",
    "dhtm-instant",
    "dhtm-word",
    "dhtm-no-overflow",
];

/// Builds a spec from raw generated scalars. `overlay_bits` selects which
/// overlay fields are set, so sparse and dense overlays are both covered.
#[allow(clippy::too_many_arguments)]
fn build_spec(
    engine_idx: usize,
    workload_idx: usize,
    base_idx: usize,
    seed: u64,
    commits: u64,
    max_cycles: u64,
    overlay_bits: u32,
    cores: usize,
    logbuf: usize,
    bw_tenths: u64,
) -> SimSpec {
    let overlay = ConfigOverlay {
        num_cores: (overlay_bits & 1 != 0).then_some(cores),
        log_buffer_entries: (overlay_bits & 2 != 0).then_some(logbuf),
        bandwidth_multiplier: (overlay_bits & 4 != 0).then_some(bw_tenths as f64 / 10.0),
        conflict_policy: (overlay_bits & 8 != 0).then_some(if overlay_bits & 256 != 0 {
            ConflictPolicy::RequesterWins
        } else {
            ConflictPolicy::FirstWriterWins
        }),
        max_htm_retries: (overlay_bits & 16 != 0).then_some(cores + 1),
        read_signature_bits: (overlay_bits & 64 != 0).then_some(512),
        llc_capacity_bytes: (overlay_bits & 128 != 0).then_some(4 * 1024 * 1024),
        llc_ways: (overlay_bits & 128 != 0).then_some(8),
    };
    SimSpec {
        engine: ENGINES[engine_idx].into(),
        workload: dhtm_workloads::NAMES[workload_idx].to_string(),
        base: BaseConfig::ALL[base_idx],
        overlay,
        limits: SpecLimits {
            target_commits: commits,
            max_cycles,
        },
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64).with_rng_seed(0x0005_EC00_15CA_2018))]

    #[test]
    fn every_spec_round_trips_through_toml(
        engine_idx in 0usize..9,
        workload_idx in 0usize..8,
        base_idx in 0usize..2,
        seed in 0u64..u64::MAX,
        commits in 1u64..1_000_000,
        max_cycles in 1u64..u64::MAX,
        overlay_bits in 0u32..512,
        cores in 1usize..64,
        logbuf in 1usize..512,
        bw_tenths in 1u64..1_000,
    ) {
        let spec = build_spec(
            engine_idx, workload_idx, base_idx, seed, commits, max_cycles,
            overlay_bits, cores, logbuf, bw_tenths,
        );

        let toml = spec.to_toml();
        let from_toml = SimSpec::from_toml(&toml).expect("own TOML parses");
        prop_assert_eq!(&from_toml, &spec);

        // Identity: the round-tripped spec hashes and derives identically.
        prop_assert_eq!(from_toml.content_hash(), spec.content_hash());
        prop_assert_eq!(from_toml.derived_seed(), spec.derived_seed());
    }
}

#[test]
fn registered_engine_specs_also_validate() {
    // The round-trip property holds for arbitrary specs; the builtin ids
    // additionally validate end to end.
    for engine in ENGINES {
        let spec = SimSpec::builder(engine, "hash")
            .base(BaseConfig::Small)
            .commits(3)
            .build()
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        assert_eq!(
            SimSpec::from_toml(&spec.to_toml()).unwrap(),
            spec,
            "{engine}"
        );
    }
}

#[test]
fn derived_seed_is_engine_invariant_across_the_catalogue() {
    // The documented contract behind normalised comparisons: every design
    // sees the same stream for a given (workload, cores, base seed).
    for workload in dhtm_workloads::NAMES {
        let seeds: Vec<u64> = DesignKind::ALL
            .into_iter()
            .map(|d| {
                SimSpec::builder(d, workload)
                    .base(BaseConfig::Small)
                    .build()
                    .unwrap()
                    .derived_seed()
            })
            .collect();
        assert!(seeds.windows(2).all(|w| w[0] == w[1]), "{workload}");
    }
}
