//! `dhtm_client` — client and load generator for `dhtm_serve`.
//!
//! ```text
//! dhtm_client submit   --addr HOST:PORT SPEC.toml [SPEC.toml ...]
//! dhtm_client result   --addr HOST:PORT HASH16
//! dhtm_client status   --addr HOST:PORT
//! dhtm_client shutdown --addr HOST:PORT
//! dhtm_client loadgen  --addr HOST:PORT [--batches N] [--batch-size K]
//!                      [--dup-percent P] [--connections C] [--pool M]
//!                      [--seed S] [--expect-all-cached] [--quiet]
//! ```
//!
//! `loadgen` drives the service with duplicate-heavy load: it builds a
//! deterministic pool of `M` distinct specs, then submits `N` batches of
//! `K` specs across `C` concurrent connections, where each slot repeats
//! an already-used spec with probability `P`% — so the same content hash
//! arrives overlapping, in-flight, and cold. Every result is checked for
//! byte-identical record JSON against every other result with the same
//! hash (across connections and across the cold/warm paths); any
//! divergence aborts with a nonzero exit. It reports served specs/sec and
//! the cache-hit ratio.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dhtm_scenario::SimSpec;
use dhtm_service::{BatchOutcome, ServiceClient};
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;

fn usage() -> ! {
    eprintln!(
        "usage: dhtm_client <submit|result|status|shutdown|loadgen> --addr HOST:PORT [options]\n\
         see the module docs (cargo doc -p dhtm_service) for the full option list"
    );
    std::process::exit(2);
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("dhtm_client: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    let rest = &args[1..];
    match command.as_str() {
        "submit" => cmd_submit(rest),
        "result" => cmd_result(rest),
        "status" => cmd_status(rest),
        "shutdown" => cmd_shutdown(rest),
        "loadgen" => cmd_loadgen(rest),
        "--help" | "-h" => usage(),
        other => {
            eprintln!("dhtm_client: unknown command {other:?}");
            usage();
        }
    }
}

/// Pulls `--addr` out of an argument list; returns (addr, leftovers).
fn split_addr(args: &[String]) -> (Option<String>, Vec<String>) {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--addr" {
            addr = it.next().cloned();
        } else {
            rest.push(arg.clone());
        }
    }
    (addr, rest)
}

fn connect(addr: Option<String>) -> Result<ServiceClient, String> {
    let addr = addr.ok_or("missing --addr HOST:PORT")?;
    ServiceClient::connect(&addr).map_err(|e| format!("could not connect to {addr}: {e}"))
}

fn cmd_submit(args: &[String]) -> ExitCode {
    let (addr, files) = split_addr(args);
    if files.is_empty() {
        return fail("submit needs at least one spec TOML file");
    }
    let mut specs = Vec::new();
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => return fail(&format!("could not read {file}: {e}")),
        };
        match SimSpec::from_toml(&text) {
            Ok(spec) => specs.push(spec),
            Err(e) => return fail(&format!("{file}: {e}")),
        }
    }
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    match client.submit(1, specs) {
        Ok(outcome) => {
            for r in &outcome.results {
                println!(
                    "{} {} {} commits={} cycles={}",
                    r.hash_hex,
                    r.disposition.as_str(),
                    if r.cached { "cached" } else { "computed" },
                    r.record.stats.committed,
                    r.record.stats.total_cycles,
                );
            }
            println!(
                "batch: {} specs, {} unique, {} duplicates, {} cache hits, {} executed",
                outcome.specs,
                outcome.unique,
                outcome.duplicates,
                outcome.cache_hits,
                outcome.executed
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_result(args: &[String]) -> ExitCode {
    let (addr, rest) = split_addr(args);
    let [hash_hex] = rest.as_slice() else {
        return fail("result needs exactly one 16-hex content hash");
    };
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    match client.result(hash_hex) {
        Ok(record) => {
            println!("{}", record.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_status(args: &[String]) -> ExitCode {
    let (addr, _) = split_addr(args);
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    match client.status() {
        Ok(s) => {
            println!(
                "jobs: {} queued, {} running, {} done, {} failed",
                s.queued, s.running, s.done, s.failed
            );
            println!(
                "traffic: {} submitted, {} served ({} disk hits, {} memory hits, {} in-flight dedups)",
                s.submitted, s.served, s.hits_disk, s.hits_memory, s.inflight_dedups
            );
            println!(
                "store: {} entries, {} rejects; {} executed on {} workers ({} busy-ms)",
                s.store_entries,
                s.store_rejects,
                s.executed,
                s.workers,
                s.worker_busy_ns / 1_000_000
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

fn cmd_shutdown(args: &[String]) -> ExitCode {
    let (addr, _) = split_addr(args);
    let mut client = match connect(addr) {
        Ok(c) => c,
        Err(e) => return fail(&e),
    };
    match client.shutdown() {
        Ok(()) => {
            println!("server shutting down");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&e.to_string()),
    }
}

// ---------------------------------------------------------------------------
// loadgen
// ---------------------------------------------------------------------------

struct LoadgenOptions {
    addr: String,
    batches: u64,
    batch_size: u64,
    dup_percent: u64,
    connections: u64,
    pool: u64,
    seed: u64,
    expect_all_cached: bool,
    quiet: bool,
}

fn parse_loadgen(args: &[String]) -> Result<LoadgenOptions, String> {
    let mut opts = LoadgenOptions {
        addr: String::new(),
        batches: 64,
        batch_size: 32,
        dup_percent: 50,
        connections: 4,
        pool: 48,
        seed: 0x15CA_2018,
        expect_all_cached: false,
        quiet: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        };
        let parse_u64 = |flag: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a non-negative integer, got {v:?}"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value()?,
            "--batches" => opts.batches = parse_u64("--batches", value()?)?,
            "--batch-size" => opts.batch_size = parse_u64("--batch-size", value()?)?,
            "--dup-percent" => opts.dup_percent = parse_u64("--dup-percent", value()?)?.min(100),
            "--connections" => opts.connections = parse_u64("--connections", value()?)?.max(1),
            "--pool" => opts.pool = parse_u64("--pool", value()?)?.max(1),
            "--seed" => opts.seed = parse_u64("--seed", value()?)?,
            "--expect-all-cached" => opts.expect_all_cached = true,
            "--quiet" => opts.quiet = true,
            other => return Err(format!("unknown loadgen argument {other:?}")),
        }
    }
    if opts.addr.is_empty() {
        return Err("missing --addr HOST:PORT".to_string());
    }
    if opts.batches == 0 || opts.batch_size == 0 {
        return Err("--batches and --batch-size must be positive".to_string());
    }
    Ok(opts)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic spec pool: `pool` distinct cheap specs spanning all
/// four engines and two workloads. Same seed → same pool, byte for byte.
fn build_pool(pool: u64, seed: u64) -> Vec<SimSpec> {
    const ENGINES: [DesignKind; 4] = [
        DesignKind::SoftwareOnly,
        DesignKind::SdTm,
        DesignKind::Atom,
        DesignKind::Dhtm,
    ];
    const WORKLOADS: [&str; 2] = ["queue", "hash"];
    let mut state = seed;
    (0..pool)
        .map(|i| {
            let engine = ENGINES[(i % ENGINES.len() as u64) as usize];
            let workload = WORKLOADS[((i / ENGINES.len() as u64) % 2) as usize];
            let commits = 4 + (splitmix64(&mut state) % 7); // 4..=10
            SimSpec::builder(engine, workload)
                .base(BaseConfig::Small)
                .commits(commits)
                .seed(seed ^ (i << 1 | 1))
                .build()
                .expect("loadgen pool specs are always valid")
        })
        .collect()
}

struct SharedChecks {
    /// hash → canonical record JSON; every later result with the same
    /// hash must match byte for byte.
    by_hash: Mutex<HashMap<String, String>>,
}

fn run_connection(
    worker: u64,
    opts: &LoadgenOptions,
    pool: &[SimSpec],
    checks: &SharedChecks,
) -> Result<Vec<BatchOutcome>, String> {
    let mut client = ServiceClient::connect(&opts.addr).map_err(|e| format!("connect: {e}"))?;
    let mut rng = opts.seed ^ (worker.wrapping_mul(0x9E37_79B9) | 1);
    let batches =
        opts.batches / opts.connections + u64::from(worker < opts.batches % opts.connections);
    let mut outcomes = Vec::new();
    let mut used: Vec<usize> = Vec::new();
    for b in 0..batches {
        let mut specs = Vec::new();
        for _ in 0..opts.batch_size {
            let roll = splitmix64(&mut rng) % 100;
            let index = if roll < opts.dup_percent && !used.is_empty() {
                used[(splitmix64(&mut rng) % used.len() as u64) as usize]
            } else {
                let fresh = (splitmix64(&mut rng) % pool.len() as u64) as usize;
                used.push(fresh);
                fresh
            };
            specs.push(pool[index].clone());
        }
        let outcome = client
            .submit(worker * 1_000_000 + b, specs)
            .map_err(|e| format!("batch {b}: {e}"))?;
        for r in &outcome.results {
            let json = r.record.to_json();
            let mut by_hash = checks.by_hash.lock().expect("check map poisoned");
            if let Some(prior) = by_hash.get(&r.hash_hex) {
                if *prior != json {
                    return Err(format!(
                        "hash {} served two different results (byte-identity violated)",
                        r.hash_hex
                    ));
                }
            } else {
                by_hash.insert(r.hash_hex.clone(), json);
            }
            if opts.expect_all_cached && !r.cached {
                return Err(format!(
                    "hash {} was {} but --expect-all-cached was set",
                    r.hash_hex,
                    r.disposition.as_str()
                ));
            }
        }
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

fn cmd_loadgen(args: &[String]) -> ExitCode {
    let opts = match parse_loadgen(args) {
        Ok(opts) => opts,
        Err(e) => return fail(&e),
    };
    let pool = build_pool(opts.pool, opts.seed);
    {
        // The pool must be collision-free for byte-identity checks to be
        // meaningful per distinct spec.
        let mut hashes: Vec<u64> = pool.iter().map(SimSpec::content_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        if hashes.len() != pool.len() {
            return fail("spec pool has colliding content hashes; change --seed or --pool");
        }
    }

    let opts = Arc::new(opts);
    let pool = Arc::new(pool);
    let checks = Arc::new(SharedChecks {
        by_hash: Mutex::new(HashMap::new()),
    });

    let started = Instant::now();
    let handles: Vec<_> = (0..opts.connections)
        .map(|worker| {
            let opts = Arc::clone(&opts);
            let pool = Arc::clone(&pool);
            let checks = Arc::clone(&checks);
            std::thread::spawn(move || run_connection(worker, &opts, &pool, &checks))
        })
        .collect();

    let mut outcomes = Vec::new();
    for (worker, handle) in handles.into_iter().enumerate() {
        match handle.join() {
            Ok(Ok(mut out)) => outcomes.append(&mut out),
            Ok(Err(e)) => return fail(&format!("connection {worker}: {e}")),
            Err(_) => return fail(&format!("connection {worker} panicked")),
        }
    }
    let wall = started.elapsed();

    let served: u64 = outcomes.iter().map(|o| o.specs).sum();
    let unique: u64 = outcomes.iter().map(|o| o.unique).sum();
    let duplicates: u64 = outcomes.iter().map(|o| o.duplicates).sum();
    let cache_hits: u64 = outcomes.iter().map(|o| o.cache_hits).sum();
    let executed: u64 = outcomes.iter().map(|o| o.executed).sum();
    let distinct = checks.by_hash.lock().expect("check map poisoned").len() as u64;

    // "Served from cache" = anything that did not trigger an execution:
    // store/memory hits plus in-batch and in-flight dedups.
    let from_cache = served - executed;
    let wall_secs = wall.as_secs_f64().max(1e-9);
    let served_per_sec = served as f64 / wall_secs;
    let hit_ratio = from_cache as f64 / served as f64;

    if !opts.quiet {
        println!(
            "loadgen: {} batches x {} specs over {} connections ({} distinct hashes in pool)",
            opts.batches, opts.batch_size, opts.connections, opts.pool
        );
        println!(
            "served {served} specs in {:.3}s ({served_per_sec:.0} served-specs/sec)",
            wall.as_secs_f64()
        );
        println!(
            "dedup: {unique} unique, {duplicates} in-batch dups, {cache_hits} cache hits, \
             {executed} executed, {distinct} distinct results"
        );
        println!(
            "cache-hit ratio: {hit_ratio:.4} ({from_cache}/{served} served without executing)"
        );
        println!("byte-identity: all {served} results identical per hash");
    }

    if opts.expect_all_cached && executed != 0 {
        return fail(&format!(
            "--expect-all-cached: {executed} specs executed instead of being served from cache"
        ));
    }

    ExitCode::SUCCESS
}
