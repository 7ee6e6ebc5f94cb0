//! End-to-end criterion benchmarks: one small simulation per design on the
//! hash micro-benchmark (a scaled-down Figure 5 data point), so that
//! `cargo bench` exercises the full stack of every design.

use criterion::{criterion_group, criterion_main, Criterion};
use dhtm_scenario::{ResolvedSpec, SimSpec};
use dhtm_types::policy::DesignKind;

fn bench_designs(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_hash_50_commits");
    group.sample_size(10);
    for design in DesignKind::ALL {
        let spec: ResolvedSpec = SimSpec::builder(design, "hash")
            .commits(50)
            .build()
            .and_then(|spec| spec.resolve())
            .expect("every design runs hash");
        group.bench_function(design.label(), |b| b.iter(|| spec.run().stats.committed));
    }
    group.finish();
}

criterion_group!(benches, bench_designs);
criterion_main!(benches);
