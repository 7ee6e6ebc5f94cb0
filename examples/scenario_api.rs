//! Tour of the scenario API: build a typed `SimSpec`, round-trip it
//! through TOML, register an out-of-tree engine variant, and stream a run
//! through the `SimObserver` metrics sink.
//!
//! ```text
//! cargo run --release --example scenario_api
//! ```

use dhtm::DhtmEngine;
use dhtm_baselines::registry::{self, EngineFactory, EngineId, EngineInfo, LogDiscipline};
use dhtm_scenario::{MetricsSink, SimSpec};
use dhtm_types::config::{BaseConfig, ConfigOverlay};
use dhtm_types::policy::DesignKind;

fn main() {
    // 1. A typed, validated spec: DHTM on the hash benchmark, small
    //    machine with a 16-entry log buffer.
    let spec = SimSpec::builder(DesignKind::Dhtm, "hash")
        .base(BaseConfig::Small)
        .overlay(ConfigOverlay::none().with_log_buffer_entries(16))
        .commits(40)
        .seed(42)
        .build()
        .expect("valid spec");
    println!("--- canonical TOML form ---\n{}", spec.to_toml());
    println!("content hash: {:016x}", spec.content_hash());
    println!("derived workload seed: {:016x}\n", spec.derived_seed());

    // 2. Run it with a streaming metrics sink attached.
    let mut sink = MetricsSink::new();
    let (result, _probes) = spec
        .resolve()
        .expect("spec resolves")
        .run_probed(Some(&mut sink));
    println!(
        "committed {} in {} cycles ({:.1} tx/Mcycle); streamed: {} begins, {} aborts, {} durable ticks",
        result.stats.committed,
        result.stats.total_cycles,
        result.throughput(),
        sink.begins,
        sink.total_aborts(),
        sink.durable_ticks,
    );

    // 3. Register an out-of-tree variant — DHTM with a pinned 4-entry log
    //    buffer — and run the same scenario on it by name only.
    registry::register_global(EngineFactory::new(
        EngineInfo {
            id: EngineId::new("dhtm-logbuf4-example"),
            label: "DHTM-lb4".to_string(),
            description: "DHTM with a hard-wired 4-entry log buffer".to_string(),
            design: DesignKind::Dhtm,
            durable: true,
            log: LogDiscipline::HardwareRedo,
            has_fallback: true,
        },
        |cfg| Box::new(DhtmEngine::new(&cfg.clone().with_log_buffer_entries(4))),
    ))
    .expect("fresh id");

    let variant_spec = SimSpec {
        engine: EngineId::new("dhtm-logbuf4-example"),
        ..spec.clone()
    };
    let variant = variant_spec.run().expect("variant runs");
    println!(
        "variant DHTM-lb4: {} commits in {} cycles (vs {} with 16 entries)",
        variant.stats.committed, variant.stats.total_cycles, result.stats.total_cycles,
    );

    // 4. Same stream, different engines: the derived seed ignores the
    //    engine, so the comparison above is apples-to-apples.
    assert_eq!(spec.derived_seed(), variant_spec.derived_seed());
    println!("\nregistered engines:");
    for factory in registry::global_snapshot().iter() {
        let info = factory.info();
        println!(
            "  {:<22} {:<14} durable={:<5} log={:<13} fallback={:<5} — {}",
            info.id.as_str(),
            info.label,
            info.durable,
            info.log.to_string(),
            info.has_fallback,
            info.description,
        );
    }
}
