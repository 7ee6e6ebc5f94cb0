//! Run the TATP OLTP workload on SO, ATOM and DHTM (a slice of Table VI).
//!
//! ```text
//! cargo run --release --example oltp_tatp
//! ```

use dhtm_scenario::SimSpec;
use dhtm_types::policy::DesignKind;

const COMMITS: u64 = 80;

fn main() {
    let designs = [DesignKind::SoftwareOnly, DesignKind::Atom, DesignKind::Dhtm];

    let mut results = Vec::new();
    for design in designs {
        // The default base is the paper's Table III machine.
        let spec = SimSpec::builder(design, "tatp")
            .commits(COMMITS)
            .seed(11)
            .build()
            .expect("valid spec");
        results.push((design, spec.run().expect("spec runs")));
    }
    let so = results[0].1.throughput();
    println!("TATP, {COMMITS} committed transactions per design");
    println!(
        "{:<8} {:>12} {:>14} {:>16}",
        "design", "norm vs SO", "abort rate %", "mean write set"
    );
    for (design, res) in &results {
        println!(
            "{:<8} {:>12.2} {:>14.1} {:>16.1}",
            design.label(),
            res.throughput() / so,
            res.stats.abort_rate_percent(),
            res.stats.mean_write_set_lines()
        );
    }
}
