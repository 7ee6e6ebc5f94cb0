//! Golden spec-identity regression: every cell of the experiment catalogue
//! is pinned by (count, seed derivation, spec content hash). Any change to
//! the catalogue definitions, the overlay encoding, the canonical TOML
//! form or the seed derivation trips this test instead of silently
//! re-seeding (and thereby re-randomising) every published figure. Update
//! the constants ONLY when a change to experiment identity is intended,
//! and say so in the commit message.

use dhtm_harness::experiments::catalogue_matrices;
use dhtm_harness::quick_mode;
use dhtm_scenario::{SimSpec, DEFAULT_SEED};
use dhtm_types::seed::{content_hash64, stable_cell_seed};

/// Pinned: the catalogue's total cell count across all matrix-backed
/// experiments (fig5, table5, fig6, table6, table7, ablation, table4,
/// scaling) in non-quick mode.
const GOLDEN_CELL_COUNT: usize = 155;

/// Pinned: FNV/splitmix hash over every cell's canonical identity line
/// `experiment|engine|workload|cores|config|seed|spec_hash`.
const GOLDEN_CATALOGUE_HASH: u64 = 0x2fa4_ccb1_fffe_ffd4;

/// Pinned spot checks: the historical per-cell seed derivation for known
/// coordinates (base seed 0x15CA_2018 — `DEFAULT_SEED`).
const GOLDEN_SEEDS: [(&str, usize, u64); 3] = [
    ("hash", 8, 0x13ba_fa85_6558_6b31),
    ("tpcc", 8, 0x20b6_270b_eb29_bf50),
    ("btree", 16, 0xaaf1_64e7_c96e_d300),
];

#[test]
fn golden_catalogue_spec_identity() {
    if quick_mode() {
        eprintln!("DHTM_BENCH_QUICK is set; the golden catalogue is defined in full mode only");
        return;
    }
    let mut lines = String::new();
    let mut count = 0usize;
    for (name, matrix) in catalogue_matrices() {
        for cell in matrix.cells() {
            // Structural invariants for every cell.
            cell.spec.validate().expect("catalogue cells validate");
            assert_eq!(
                cell.spec.derived_seed(),
                cell.seed,
                "{name}: cell seed must be the spec derivation"
            );
            assert_eq!(
                cell.seed,
                stable_cell_seed(cell.spec.seed, cell.workload(), cell.cores),
                "{name}: spec derivation must equal the historical cell derivation"
            );
            let round_tripped = SimSpec::from_toml(&cell.spec.to_toml()).unwrap();
            assert_eq!(round_tripped, cell.spec, "{name}: cell specs round-trip");

            lines.push_str(&format!(
                "{name}|{}|{}|{}|{}|{}|{:016x}\n",
                cell.engine(),
                cell.workload(),
                cell.cores,
                cell.config_name,
                cell.seed,
                cell.spec.content_hash(),
            ));
            count += 1;
        }
    }
    let hash = content_hash64(lines.as_bytes());
    assert_eq!(
        (count, hash),
        (GOLDEN_CELL_COUNT, GOLDEN_CATALOGUE_HASH),
        "catalogue identity shifted; if intended, update GOLDEN_CELL_COUNT to {count} \
         and GOLDEN_CATALOGUE_HASH to {hash:#018x}"
    );
}

#[test]
fn golden_seed_spot_checks() {
    for (workload, cores, want) in GOLDEN_SEEDS {
        let got = stable_cell_seed(DEFAULT_SEED, workload, cores);
        assert_eq!(
            got, want,
            "seed derivation for ({workload}, {cores}) shifted; if intended, \
             update GOLDEN_SEEDS with {got:#x}"
        );
    }
}
