//! Per-layer figures: the sim/engine/workload/memory-system breakdown of
//! traced runs, and microbenches that call single layers from outside.

use std::time::Instant;

use dhtm_coherence::memsys::MemorySystem;
use dhtm_coherence::probe::NoConflicts;
use dhtm_nvm::bandwidth::MemoryChannel;
use dhtm_obs::ProbeValue;
use dhtm_scenario::{RunRecord, SimSpec};
use dhtm_service::proto::{decode_event, encode_event, read_frame, write_frame, Event};
use dhtm_service::{LoadOutcome, ResultStore};
use dhtm_sim::calendar::CalendarQueue;
use dhtm_sim::workload::TxOp;
use dhtm_types::addr::LineAddr;
use dhtm_types::config::BaseConfig;
use dhtm_types::ids::CoreId;

use crate::report::Report;
use crate::stats::median;
use crate::timed::{CallStats, Outcomes, TracedRun, BEGIN, COMMIT, READ, WRITE};

/// Totals over the traced runs of one or more passes.
#[derive(Debug, Default)]
pub struct SimLayers {
    passes: u64,
    runs: u64,
    build_ns: u64,
    start_ns: u64,
    run_ns: u64,
    engine: [CallStats; 4],
    outcomes: Outcomes,
    next_tx: CallStats,
    steps: u64,
    committed: u64,
    total_cycles: u64,
    l1: (u64, u64),
    llc: (u64, u64),
    channel_busy_cycles: u64,
    queue_delay_cycles: u64,
    persist_waits: u64,
}

impl SimLayers {
    /// Adds one pass's traced runs.
    pub fn add_pass<'a>(&mut self, runs: impl IntoIterator<Item = &'a TracedRun>) {
        self.passes += 1;
        for run in runs {
            self.runs += 1;
            self.build_ns += run.build_ns;
            self.start_ns += run.start_ns;
            self.run_ns += run.run_ns;
            for (sum, calls) in self.engine.iter_mut().zip(&run.engine) {
                sum.merge(calls);
            }
            self.outcomes.merge(&run.outcomes);
            self.next_tx.merge(&run.next_tx);
            let s = &run.stats;
            self.steps += s.steps;
            self.committed += s.committed;
            self.total_cycles += s.total_cycles;
            self.l1.0 += s.l1_hits;
            self.l1.1 += s.l1_misses;
            self.llc.0 += s.llc_hits;
            self.llc.1 += s.llc_misses;
            self.channel_busy_cycles += run.probes.counter("channel/busy_cycles");
            self.queue_delay_cycles += run.probes.counter("channel/queue_delay_cycles");
            self.persist_waits += match run.probes.get("engine/commit_persist_waits") {
                Some(ProbeValue::Histogram(h)) => h.count(),
                _ => 0,
            };
        }
    }

    /// Adds the `scenario.build_ms`, `sim.*`, `engine.*`, `workloads.*`,
    /// `coherence.*_ratio`, `nvm.*` and `core.*` metrics. Counts are per
    /// pass; times are means over every call or run.
    pub fn report(&self, r: &mut Report) {
        let passes = self.passes.max(1) as f64;
        let runs = self.runs.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        r.metric("scenario.build_ms", self.build_ns as f64 / runs / 1e6, "ms");
        r.metric("sim.start_ms", self.start_ns as f64 / runs / 1e6, "ms");
        r.metric("sim.steps", self.steps as f64 / passes, "count");
        // Session time spent inside the wrapped calls, and on the clock
        // reads around the sampled ones; only the wrappers' per-call count
        // and sampling test stay charged to the driver.
        let inside: f64 =
            self.engine.iter().map(CallStats::total_ns).sum::<f64>() + self.next_tx.total_ns();
        let timed = self.engine.iter().map(|c| c.timed).sum::<u64>() + self.next_tx.timed;
        let clock = crate::timed::clock_overhead_ns() * timed as f64;
        r.metric(
            "sim.driver_ns_per_step",
            (self.run_ns as f64 - inside - clock) / self.steps.max(1) as f64,
            "ns",
        );
        for (i, name) in [
            (BEGIN, "begin"),
            (READ, "read"),
            (WRITE, "write"),
            (COMMIT, "commit"),
        ] {
            let calls = &self.engine[i];
            r.metric(&format!("engine.{name}_ns"), calls.mean_ns(), "ns");
            r.metric(
                &format!("engine.{name}_calls"),
                calls.calls as f64 / passes,
                "count",
            );
        }
        r.metric(
            "engine.begin_proceed_ratio",
            ratio(self.outcomes.begins_done, self.engine[BEGIN].calls),
            "ratio",
        );
        r.metric(
            "engine.abort_ratio",
            ratio(
                self.outcomes.aborts,
                self.outcomes.aborts + self.outcomes.commits,
            ),
            "ratio",
        );
        r.metric("workloads.next_tx_ns", self.next_tx.mean_ns(), "ns");
        r.metric(
            "workloads.next_tx_calls",
            self.next_tx.calls as f64 / passes,
            "count",
        );
        r.note(format!(
            "workloads: next_transaction is {:.3}% of session time; a timed call's clock reads \
             cost {:.1} ns, subtracted from every sampled call",
            100.0 * self.next_tx.total_ns() / self.run_ns.max(1) as f64,
            crate::timed::clock_overhead_ns()
        ));
        r.metric(
            "coherence.l1_hit_ratio",
            ratio(self.l1.0, self.l1.0 + self.l1.1),
            "ratio",
        );
        r.metric(
            "coherence.llc_hit_ratio",
            ratio(self.llc.0, self.llc.0 + self.llc.1),
            "ratio",
        );
        r.metric(
            "nvm.channel_busy_pct",
            100.0 * ratio(self.channel_busy_cycles, self.total_cycles),
            "%",
        );
        r.metric(
            "nvm.queue_delay_cycles_per_tx",
            ratio(self.queue_delay_cycles, self.committed),
            "cycles",
        );
        r.metric(
            "core.commit_persist_waits_per_tx",
            ratio(self.persist_waits, self.committed),
            "ratio",
        );
    }
}

/// Median of `batches` calls of `f`, each timing one batch of operations.
fn median_of(batches: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..batches).map(|_| f()).collect();
    median(&samples)
}

/// A small deterministic generator for microbench inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % bound
    }
}

/// Nanoseconds per `CalendarQueue` pop + push, with eight cores whose
/// next events land 1..=600 cycles ahead (an L1 hit to an NVM read).
pub fn calendar_ns(seed: u64) -> f64 {
    const OPS: u64 = 200_000;
    median_of(5, || {
        let mut rng = Lcg(seed);
        let mut q = CalendarQueue::new();
        for core in 0..8 {
            q.push(rng.next(600), core);
        }
        let t = Instant::now();
        for _ in 0..OPS {
            let (time, core) = q.pop().expect("eight events stay queued");
            q.push(time + 1 + rng.next(600), core);
        }
        std::hint::black_box(&q);
        t.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// The `(core, line)` access stream of the `hash` micro-benchmark:
/// transactions fetched round-robin over eight cores.
fn micro_address_stream(seed: u64, accesses: usize) -> Vec<(CoreId, LineAddr)> {
    let mut workload = dhtm_workloads::try_by_name("hash", seed).expect("hash is a workload");
    let mut stream = Vec::with_capacity(accesses);
    let mut core = 0;
    while stream.len() < accesses {
        let tx = workload.next_transaction(CoreId::new(core));
        stream.extend(tx.ops.iter().filter_map(|op| match op {
            TxOp::Read(a) | TxOp::Write(a, _) => Some((CoreId::new(core), a.line())),
            TxOp::Compute(_) => None,
        }));
        core = (core + 1) % 8;
    }
    stream.truncate(accesses);
    stream
}

/// Nanoseconds per `MemorySystem::load` and per `MemorySystem::store` over
/// the `hash` address stream on the Table III machine, with a
/// conflict-free arbiter; each batch starts from a cold memory system.
pub fn memsys_ns(seed: u64) -> (f64, f64) {
    let stream = micro_address_stream(seed, 20_000);
    let config = BaseConfig::Isca18.resolve();
    let batch = |store: bool| {
        let mut mem = MemorySystem::new(&config);
        let mut arbiter = NoConflicts;
        let t = Instant::now();
        for (i, &(core, line)) in stream.iter().enumerate() {
            let now = 10 * i as u64;
            let outcome = if store {
                mem.store(core, line, now, &mut arbiter)
            } else {
                mem.load(core, line, now, &mut arbiter)
            };
            std::hint::black_box(outcome);
        }
        t.elapsed().as_nanos() as f64 / stream.len() as f64
    };
    (median_of(5, || batch(false)), median_of(5, || batch(true)))
}

/// Nanoseconds per `MemoryChannel::request` of a 64-byte line on the
/// Table III channel, arrivals 0..40 cycles apart.
pub fn channel_ns(seed: u64) -> f64 {
    const OPS: u64 = 500_000;
    median_of(5, || {
        let mut rng = Lcg(seed);
        let mut channel = MemoryChannel::isca18_baseline();
        let mut now = 0;
        let t = Instant::now();
        for _ in 0..OPS {
            now += rng.next(40);
            std::hint::black_box(channel.request(now, 64));
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    })
}

/// Microseconds per `RunRecord::to_json` and per `RunRecord::from_json`.
pub fn record_us(record: &RunRecord) -> (f64, f64) {
    const OPS: usize = 400;
    let json = record.to_json();
    let encode = median_of(5, || {
        let t = Instant::now();
        for _ in 0..OPS {
            std::hint::black_box(record.to_json());
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    let decode = median_of(5, || {
        let t = Instant::now();
        for _ in 0..OPS {
            std::hint::black_box(RunRecord::from_json(&json).expect("own rendering parses"));
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    (encode / 1e3, decode / 1e3)
}

/// Microseconds to encode a `done` event carrying `record`, frame it into
/// memory, read the frame back and decode it.
pub fn frame_us(record: &RunRecord) -> f64 {
    const OPS: usize = 200;
    let event = Event::Done {
        batch: 1,
        index: 0,
        hash_hex: record.content_hash_hex(),
        cached: true,
        record: Box::new(record.clone()),
    };
    let mut buf = Vec::new();
    median_of(5, || {
        let t = Instant::now();
        for _ in 0..OPS {
            buf.clear();
            write_frame(&mut buf, &encode_event(&event)).expect("writes to memory");
            let mut reader: &[u8] = &buf;
            let payload = read_frame(&mut reader)
                .expect("own frame reads back")
                .expect("one frame");
            std::hint::black_box(decode_event(&payload).expect("own event decodes"));
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    }) / 1e3
}

/// Microseconds per verified `ResultStore::load` and per durable
/// `ResultStore::save` of `record` in a store under `dir`.
///
/// # Panics
///
/// Panics if the store cannot be written or the record does not read
/// back.
pub fn store_us(dir: &std::path::Path, spec: &SimSpec, record: &RunRecord) -> (f64, f64) {
    const OPS: usize = 20;
    let store = ResultStore::open(dir).expect("store directory");
    let save = median_of(3, || {
        let t = Instant::now();
        for _ in 0..OPS {
            store.save(record).expect("store save");
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    let load = median_of(3, || {
        let t = Instant::now();
        for _ in 0..OPS {
            let LoadOutcome::Hit(hit) = store.load(spec) else {
                panic!("saved record must load back");
            };
            std::hint::black_box(hit);
        }
        t.elapsed().as_nanos() as f64 / OPS as f64
    });
    (load / 1e3, save / 1e3)
}

/// Adds every microbench metric that needs no workload input.
pub fn report_microbenches(r: &mut Report, seed: u64) {
    r.metric("sim.calendar_ns", calendar_ns(seed), "ns");
    let (load, store) = memsys_ns(seed);
    r.metric("coherence.load_ns", load, "ns");
    r.metric("coherence.store_ns", store, "ns");
    r.metric("nvm.channel_request_ns", channel_ns(seed), "ns");
}
