//! The `service` workload: an in-process `Server` with two workers on a
//! fresh store, driven closed-loop by two `ServiceClient` connections
//! sending one spec per request.
//!
//! The traffic is the repository's own load generator's (`dhtm_client
//! loadgen`, its `build_pool` and default `--dup-percent 50`): SO, sdTM,
//! ATOM and DHTM × queue and hash on the small machine, 4..=10 commits a
//! spec, and each request repeats an already-served spec with probability
//! one half. No other traffic has been recorded, so the mix stands for the
//! load generator, not for observed users. Two departures keep every
//! request's outcome the same on every run:
//!
//! - each connection draws from its own unbounded pool, so a "fresh" draw
//!   is always a first-seen spec (the server runs it) and no connection's
//!   miss depends on the other's timing; the load generator's shared
//!   48-spec pool runs dry after a few hundred requests;
//! - the specs of one round (the eight engine × workload pairs) share a
//!   transaction stream and, per workload, a commit count, so the designs
//!   normalise against the round's SO spec for `paper_err_pct`.
//!
//! Repeats are memory-table hits. Phase 2 restarts the server on the same
//! store and replays each connection's specs once (disk hits).

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::time::Instant;

use dhtm_obs::ProbeRegistry;
use dhtm_scenario::{RunRecord, SimSpec};
use dhtm_service::{Disposition, Server, ServerConfig, ServerHandle, ServiceClient};
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;

use crate::layers::{self, SimLayers};
use crate::pool::{par_map, WORKERS};
use crate::report::Report;
use crate::stats::{self, median, Latency, PaperRef, SimRow};
use crate::timed::run_traced;
use crate::{Budget, Options, Size};

/// Set-up rounds per run; `setup_s` is the median round over
/// [`RESTARTS_PER_ROUND`].
const SETUP_ROUNDS: usize = 15;

/// Back-to-back server restarts timed as one set-up round: one restart
/// takes about half a millisecond, short enough for scheduler jitter to
/// decide it alone.
const RESTARTS_PER_ROUND: usize = 8;

/// Share of the run's seconds given to phase 1; phase 2 gets the rest.
const PHASE1_SHARE: f64 = 2.0 / 3.0;

/// The load generator's engines, in its order.
const ENGINES: [DesignKind; 4] = [
    DesignKind::SoftwareOnly,
    DesignKind::SdTm,
    DesignKind::Atom,
    DesignKind::Dhtm,
];

/// The load generator's workloads, in its order.
const SVC_WORKLOADS: [&str; 2] = ["queue", "hash"];

/// Specs per round: every engine × workload pair once.
const ROUND: usize = ENGINES.len() * SVC_WORKLOADS.len();

/// Percent of requests that repeat a spec already served: the load
/// generator's default `--dup-percent`.
const DUP_PERCENT: u64 = 50;

/// The load generator's generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One spec of a connection's pool.
#[derive(Debug, Clone)]
struct PoolSpec {
    spec: SimSpec,
    design: DesignKind,
    /// Specs of one connection and round share transaction streams, so
    /// their designs normalise against the round's SO spec.
    stream: u64,
}

/// Spec `m` of connection `conn`: the load generator's engine × workload
/// rotation on the small machine, 4..=10 commits, a new seed every round.
fn pool_spec(seed: u64, conn: usize, m: usize, size: Size) -> PoolSpec {
    let design = ENGINES[m % ENGINES.len()];
    let w = (m / ENGINES.len()) % SVC_WORKLOADS.len();
    let round = m / ROUND;
    let stream = ((conn as u64) << 32) | round as u64;
    let mut state = seed.wrapping_add(stream) ^ w as u64;
    let commits = match size {
        Size::Full => 4 + splitmix64(&mut state) % 7,
        Size::Tiny => 4,
    };
    let spec = SimSpec::builder(design, SVC_WORKLOADS[w])
        .base(BaseConfig::Small)
        .commits(commits)
        .seed(seed.wrapping_add(stream))
        .build()
        .expect("pool specs validate");
    PoolSpec {
        spec,
        design,
        stream,
    }
}

/// First-seen specs per connection that `paper_err_pct` is computed over:
/// whole rounds, so the figure does not depend on host speed.
fn fidelity_specs(size: Size) -> usize {
    match size {
        Size::Full => 8 * ROUND,
        Size::Tiny => ROUND,
    }
}

/// The request plan of one connection, drawn as the load generator draws
/// it: with probability [`DUP_PERCENT`] a request repeats a uniformly
/// chosen spec the connection was already served, otherwise it takes the
/// next spec of the pool.
#[derive(Debug)]
struct Plan {
    rng: u64,
    fresh: usize,
}

impl Plan {
    fn new(seed: u64, conn: usize) -> Self {
        Plan {
            rng: seed ^ ((conn as u64).wrapping_mul(0x9E37_79B9) | 1),
            fresh: 0,
        }
    }

    /// The pool index of the next request, and whether it is a miss.
    fn next(&mut self) -> (usize, bool) {
        if splitmix64(&mut self.rng) % 100 < DUP_PERCENT && self.fresh > 0 {
            let idx = splitmix64(&mut self.rng) % self.fresh as u64;
            return (idx as usize, false);
        }
        self.fresh += 1;
        (self.fresh - 1, true)
    }
}

/// One completed request.
#[derive(Debug)]
struct Served {
    expected: Disposition,
    got: Option<Disposition>,
    ms: f64,
    /// Whether the record matched the first one served for the spec.
    identical: bool,
}

/// One connection's log over both phases.
#[derive(Debug, Default)]
struct ConnLog {
    pool: Vec<PoolSpec>,
    /// The canonical JSON of the record first served for each pool spec.
    records: Vec<String>,
    served: Vec<Served>,
    errors: Vec<String>,
}

impl ConnLog {
    fn request(&mut self, client: &mut ServiceClient, idx: usize, expected: Disposition) {
        let spec = self.pool[idx].spec.clone();
        let t = Instant::now();
        let outcome = client.submit(self.served.len() as u64, vec![spec]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let (got, identical) = match outcome {
            Ok(mut batch) if batch.results.len() == 1 => {
                let result = batch.results.remove(0);
                let json = result.record.to_json();
                let identical = match self.records.get(idx) {
                    Some(first) => *first == json,
                    None => {
                        self.records.push(json);
                        true
                    }
                };
                (Some(result.disposition), identical)
            }
            Ok(batch) => {
                self.errors
                    .push(format!("{} results for one spec", batch.results.len()));
                (None, false)
            }
            Err(e) => {
                self.errors.push(e.to_string());
                (None, false)
            }
        };
        self.served.push(Served {
            expected,
            got,
            ms,
            identical,
        });
    }
}

fn start(store: &Path) -> ServerHandle {
    Server::bind("127.0.0.1:0", ServerConfig::new(store, WORKERS))
        .expect("bind a local server")
        .spawn()
}

fn stop(handle: ServerHandle) -> ProbeRegistry {
    ServiceClient::connect(handle.addr)
        .and_then(|mut c| c.shutdown().map_err(std::io::Error::other))
        .expect("shut the server down");
    handle.join().expect("server exits cleanly")
}

/// Phase 1 on one connection: the plan until `seconds` are used, and at
/// least until the specs `paper_err_pct` needs were served.
fn phase1(addr: SocketAddr, opts: &Options, conn: usize, seconds: f64) -> ConnLog {
    let mut client = ServiceClient::connect(addr).expect("connect");
    let mut log = ConnLog::default();
    let mut plan = Plan::new(opts.seed, conn);
    let budget = Budget::start(seconds);
    while log.pool.len() < fidelity_specs(opts.size) || budget.left() > 0.0 {
        let (idx, miss) = plan.next();
        if miss {
            log.pool
                .push(pool_spec(opts.seed, conn, log.pool.len(), opts.size));
        }
        let expected = if miss {
            Disposition::Queued
        } else {
            Disposition::HitMemory
        };
        log.request(&mut client, idx, expected);
    }
    log
}

/// Phase 2 on one connection: each pool spec once, while seconds remain.
fn phase2(addr: SocketAddr, log: &mut ConnLog, seconds: f64) {
    let mut client = ServiceClient::connect(addr).expect("connect");
    let budget = Budget::start(seconds);
    for idx in 0..log.pool.len() {
        if idx > 0 && budget.left() == 0.0 {
            break;
        }
        log.request(&mut client, idx, Disposition::HitDisk);
    }
}

/// Both phases, and the server's probes after each.
struct Session {
    logs: Vec<ConnLog>,
    phase1_s: f64,
    phase2_s: f64,
    probes1: ProbeRegistry,
    probes2: ProbeRegistry,
}

fn session(opts: &Options) -> Session {
    let store = opts.work_dir.join("store");
    let _ = std::fs::remove_dir_all(&store);
    let p1 = opts.seconds * PHASE1_SHARE;

    let server = start(&store);
    let t = Instant::now();
    let mut logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..WORKERS)
            .map(|conn| s.spawn(move || phase1(server.addr, opts, conn, p1)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let phase1_s = t.elapsed().as_secs_f64();
    let probes1 = stop(server);

    let server = start(&store);
    let p2 = (opts.seconds - phase1_s).max(0.0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for log in &mut logs {
            s.spawn(move || phase2(server.addr, log, p2));
        }
    });
    let phase2_s = t.elapsed().as_secs_f64();
    let probes2 = stop(server);
    Session {
        logs,
        phase1_s,
        phase2_s,
        probes1,
        probes2,
    }
}

/// Seconds to restart the server on the session's populated store: bind
/// (store open, worker pool), connect both clients and get a first reply.
/// [`SETUP_ROUNDS`] rounds of [`RESTARTS_PER_ROUND`] restarts each, per
/// restart.
fn setup_rounds(opts: &Options) -> Vec<f64> {
    let store = opts.work_dir.join("store");
    (0..SETUP_ROUNDS)
        .map(|_| {
            let mut secs = 0.0;
            for _ in 0..RESTARTS_PER_ROUND {
                let t = Instant::now();
                let server = start(&store);
                let mut clients: Vec<ServiceClient> = (0..WORKERS)
                    .map(|_| ServiceClient::connect(server.addr).expect("connect"))
                    .collect();
                clients[0].status().expect("status");
                secs += t.elapsed().as_secs_f64();
                drop(clients);
                stop(server);
            }
            secs / RESTARTS_PER_ROUND as f64
        })
        .collect()
}

fn latencies(s: &Session, class: Option<Disposition>) -> Vec<f64> {
    s.logs
        .iter()
        .flat_map(|log| &log.served)
        .filter(|req| class.is_none_or(|c| req.expected == c))
        .map(|req| req.ms)
        .collect()
}

fn count(s: &Session, class: Disposition) -> u64 {
    s.logs
        .iter()
        .flat_map(|log| &log.served)
        .filter(|req| req.expected == class)
        .count() as u64
}

/// The correctness gates shared by both modes: every request got its
/// planned disposition and a byte-identical record, and the server's
/// counters match the plan.
fn check(s: &Session, r: &mut Report) {
    for log in &s.logs {
        for req in &log.served {
            r.op(req.got != Some(req.expected) || !req.identical);
        }
        for e in &log.errors {
            r.note(format!("service error: {e}"));
        }
    }
    let (misses, mem, disk) = (
        count(s, Disposition::Queued),
        count(s, Disposition::HitMemory),
        count(s, Disposition::HitDisk),
    );
    let p1 = &s.probes1;
    let p2 = &s.probes2;
    r.check(
        "phase-1 counters match the plan",
        p1.counter("svc/executed") == misses
            && p1.counter("svc/hits_memory") == mem
            && p1.counter("svc/hits_disk") == 0
            && p1.counter("svc/inflight_dedups") == 0
            && p1.counter("svc/failed") == 0,
    );
    r.check(
        "phase-2 counters match the plan",
        p2.counter("svc/executed") == 0
            && p2.counter("svc/hits_memory") == 0
            && p2.counter("svc/hits_disk") == disk
            && p2.counter("svc/failed") == 0,
    );
    r.note(format!(
        "service: {misses} misses, {mem} memory hits, {disk} disk hits over {} connections",
        s.logs.len()
    ));
}

/// Every pool spec with the record the service first returned for it.
fn distinct(s: &Session) -> Vec<(&PoolSpec, &str)> {
    s.logs
        .iter()
        .flat_map(|log| log.pool.iter().zip(log.records.iter().map(String::as_str)))
        .collect()
}

/// Checks each served record against a local run of its spec, returning
/// each local run's seconds.
fn check_local(s: &Session, r: &mut Report) -> Vec<f64> {
    let specs = distinct(s);
    let local = par_map(&specs, WORKERS, |(p, json)| {
        let (result, probes) = p.spec.resolve().expect("validated").run_probed(None);
        RunRecord::from_run(&p.spec, &result.stats, &probes).to_json() == *json
    });
    r.check(
        "every served record equals a local SimSpec run",
        local.items.iter().all(|(same, _)| *same),
    );
    local.items.iter().map(|(_, secs)| *secs).collect()
}

/// The Figure 5 error of the designs the traffic runs (the load generator
/// has no LogTM-ATOM).
fn paper_err_pct(s: &Session, size: Size) -> f64 {
    let refs: Vec<PaperRef> = stats::FIG5
        .into_iter()
        .filter(|r| ENGINES.iter().any(|d| d.label() == r.design))
        .collect();
    let rows: Vec<SimRow> = s
        .logs
        .iter()
        .flat_map(|log| log.pool.iter().zip(&log.records).take(fidelity_specs(size)))
        .map(|(p, json)| SimRow {
            design: p.design.label().to_string(),
            workload: p.spec.workload.clone(),
            stream: p.stream,
            throughput: RunRecord::from_json(json)
                .expect("served records parse")
                .stats
                .throughput_per_mcycle(),
        })
        .collect();
    stats::paper_err_pct(&rows, &refs)
}

/// End-to-end metrics.
pub fn measure(opts: &Options, r: &mut Report) {
    // Peak RSS is read before the set-up rounds and the local checks: the
    // threads they start and end would otherwise decide which allocator
    // arenas the session's threads reuse, and the peak with them.
    let s = session(opts);
    let rss = stats::peak_rss_mb();
    let setup = setup_rounds(opts);
    check(&s, r);
    check_local(&s, r);
    let all = latencies(&s, None);
    r.note(Latency::of(&all).describe("request"));
    r.metric(
        "ops_per_s",
        all.len() as f64 / (s.phase1_s + s.phase2_s),
        "1/s",
    );
    r.metric("paper_err_pct", paper_err_pct(&s, opts.size), "%");
    crate::report_setup(r, &setup);
    r.metric("peak_rss_mb", rss, "MB");
}

/// Per-layer metrics: the same session, latency split by disposition,
/// the server's counters, local runs of every miss spec (plain and
/// traced) and the store, codec and frame microbenches.
pub fn measure_traced(opts: &Options, r: &mut Report) {
    let s = session(opts);
    check(&s, r);
    for (name, class) in [
        ("miss", Disposition::Queued),
        ("mem_hit", Disposition::HitMemory),
        ("disk_hit", Disposition::HitDisk),
    ] {
        let lat = Latency::of(&latencies(&s, Some(class)));
        r.note(lat.describe(&format!("service {name}")));
        r.metric(&format!("service.{name}_ms_p50"), lat.p50, "ms");
        r.metric(&format!("service.{name}_ms_p99"), lat.tail, "ms");
    }
    let (p1, p2) = (&s.probes1, &s.probes2);
    let both = |name: &str| p1.counter(name) + p2.counter(name);
    r.metric(
        "harness.pool_busy_pct",
        100.0 * p1.counter("svc/worker_busy_ns") as f64 / 1e9 / (WORKERS as f64 * s.phase1_s),
        "%",
    );
    r.metric("service.executed", both("svc/executed") as f64, "count");
    r.metric(
        "service.hits_memory",
        both("svc/hits_memory") as f64,
        "count",
    );
    r.metric("service.hits_disk", both("svc/hits_disk") as f64, "count");
    r.metric(
        "service.inflight_dedups",
        both("svc/inflight_dedups") as f64,
        "count",
    );
    r.metric(
        "service.worker_busy_ms",
        both("svc/worker_busy_ns") as f64 / 1e6,
        "ms",
    );
    r.metric(
        "service.peak_queue_depth",
        p1.counter("svc/peak_queue_depth")
            .max(p2.counter("svc/peak_queue_depth")) as f64,
        "count",
    );

    let plain = check_local(&s, r);
    let specs = distinct(&s);
    let traced = par_map(&specs, WORKERS, |(p, json)| {
        let run = run_traced(|| p.spec.resolve().expect("validated"));
        let same = RunRecord::from_run(&p.spec, &run.stats, &run.probes).to_json() == *json;
        (run, same)
    });
    r.check(
        "traced local runs reproduce every served record",
        traced.items.iter().all(|((_, same), _)| *same),
    );
    let mut sim = SimLayers::default();
    sim.add_pass(traced.items.iter().map(|((run, _), _)| run));
    sim.report(r);
    let plain_s: f64 = plain.iter().sum();
    let traced_s: f64 = traced.items.iter().map(|(_, secs)| secs).sum();
    r.metric(
        "service.exec_ms",
        1e3 * plain_s / plain.len().max(1) as f64,
        "ms",
    );

    let (first, json) = specs[0];
    let record = RunRecord::from_json(json).expect("served records parse");
    let (encode, decode) = layers::record_us(&record);
    r.metric("scenario.record_encode_us", encode, "us");
    r.metric("scenario.record_decode_us", decode, "us");
    let frame = layers::frame_us(&record);
    r.metric("service.frame_us", frame, "us");
    let (load, save) = layers::store_us(&opts.work_dir.join("store-bench"), &first.spec, &record);
    r.metric("service.store_load_us", load, "us");
    r.metric("service.store_save_us", save, "us");
    let mem_hit = median(&latencies(&s, Some(Disposition::HitMemory)));
    r.metric("service.transport_ms", mem_hit - frame / 1e3, "ms");
    layers::report_microbenches(r, opts.seed);
    r.metric(
        "trace_overhead_pct",
        100.0 * (traced_s / plain_s - 1.0),
        "%",
    );
}

/// Whether the connections' pools share no spec hash: a shared hash
/// would make one connection's miss depend on the other's timing.
pub fn pools_are_disjoint(seed: u64, specs_per_conn: usize) -> bool {
    let mut seen = BTreeSet::new();
    (0..WORKERS).all(|conn| {
        (0..specs_per_conn)
            .all(|m| seen.insert(pool_spec(seed, conn, m, Size::Full).spec.content_hash()))
    })
}
