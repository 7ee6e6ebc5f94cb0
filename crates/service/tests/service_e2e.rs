//! End-to-end acceptance tests for the simulation service: a real server
//! on an ephemeral port, real TCP clients, and the dedup guarantees from
//! ISSUE acceptance — N unique + M duplicate specs run exactly N
//! simulations while serving N + M results, and a repeated batch is
//! served entirely from cache, byte-identical to the cold run.

use std::collections::HashMap;

use dhtm_scenario::SimSpec;
use dhtm_service::{Disposition, Event, Server, ServerConfig, ServerHandle, ServiceClient};
use dhtm_types::config::BaseConfig;
use dhtm_types::policy::DesignKind;

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dhtm_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_server(store_dir: &std::path::Path, workers: usize) -> ServerHandle {
    Server::bind("127.0.0.1:0", ServerConfig::new(store_dir, workers))
        .expect("bind ephemeral port")
        .spawn()
}

fn spec(engine: DesignKind, workload: &str, seed: u64) -> SimSpec {
    SimSpec::builder(engine, workload)
        .base(BaseConfig::Small)
        .commits(6)
        .seed(seed)
        .build()
        .unwrap()
}

/// Three unique specs plus three duplicates of them.
fn mixed_batch() -> (Vec<SimSpec>, u64, u64) {
    let uniques = vec![
        spec(DesignKind::Dhtm, "queue", 11),
        spec(DesignKind::SoftwareOnly, "hash", 12),
        spec(DesignKind::Atom, "queue", 13),
    ];
    let mut batch = uniques.clone();
    batch.push(uniques[0].clone());
    batch.push(uniques[2].clone());
    batch.push(uniques[1].clone());
    (batch, 3, 3)
}

#[test]
fn duplicates_execute_once_but_everyone_gets_a_result() {
    let store = temp_dir("e2e_dedup");
    let handle = spawn_server(&store, 2);
    let (batch, n_unique, n_dups) = mixed_batch();
    let total = batch.len() as u64;

    let mut client = ServiceClient::connect(handle.addr).unwrap();
    let mut saw_begin = 0u64;
    let outcome = client
        .submit_streaming(7, batch.clone(), |ev| {
            if matches!(ev, Event::Begin { .. }) {
                saw_begin += 1;
            }
        })
        .unwrap();

    assert_eq!(outcome.specs, total);
    assert_eq!(outcome.unique, n_unique);
    assert_eq!(outcome.duplicates, n_dups);
    assert_eq!(
        outcome.executed, n_unique,
        "each unique spec runs exactly once"
    );
    assert_eq!(
        outcome.cache_hits, 0,
        "cold server: no cache layer had them"
    );
    assert_eq!(outcome.results.len(), batch.len(), "everyone gets a result");
    assert_eq!(saw_begin, n_unique, "one begin event per execution");

    // Duplicate indices carry byte-identical records to their originals.
    let mut by_hash: HashMap<String, String> = HashMap::new();
    for r in &outcome.results {
        assert_eq!(r.hash_hex, batch[r.index as usize].content_hash_hex());
        let json = r.record.to_json();
        by_hash
            .entry(r.hash_hex.clone())
            .and_modify(|prior| assert_eq!(*prior, json, "same hash, different bytes"))
            .or_insert(json);
    }
    assert_eq!(by_hash.len() as u64, n_unique);

    // The server agrees it executed exactly N and served N + M.
    let status = client.status().unwrap();
    assert_eq!(status.executed, n_unique);
    assert_eq!(status.served, total);
    assert_eq!(status.store_entries, n_unique);

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn repeat_batch_is_served_from_cache_byte_identical() {
    let store = temp_dir("e2e_warm");
    let (batch, n_unique, _) = mixed_batch();

    // Cold pass.
    let handle = spawn_server(&store, 2);
    let mut client = ServiceClient::connect(handle.addr).unwrap();
    let cold = client.submit(1, batch.clone()).unwrap();
    assert_eq!(cold.executed, n_unique);

    // Warm pass on the same live server: everything from memory/store.
    let warm = client.submit(2, batch.clone()).unwrap();
    assert_eq!(warm.executed, 0, "warm pass must not execute anything");
    assert_eq!(warm.cache_hits, warm.unique);
    for (c, w) in cold.results.iter().zip(&warm.results) {
        assert!(w.cached);
        assert_eq!(
            c.record.to_json(),
            w.record.to_json(),
            "cached result must be byte-identical to the cold run"
        );
    }
    client.shutdown().unwrap();
    handle.join().unwrap();

    // Restart over the same store directory: hits now come from disk.
    let handle = spawn_server(&store, 2);
    let mut client = ServiceClient::connect(handle.addr).unwrap();
    let disk = client.submit(3, batch.clone()).unwrap();
    assert_eq!(disk.executed, 0, "persisted results survive a restart");
    for (c, d) in cold.results.iter().zip(&disk.results) {
        assert!(d.cached);
        if !matches!(d.disposition, Disposition::DupBatch) {
            // First occurrence of each hash in the batch hits the disk
            // store; later in-batch repeats are relabelled dup-batch.
            let first_hit = disk
                .results
                .iter()
                .find(|r| r.hash_hex == d.hash_hex)
                .unwrap();
            assert_eq!(first_hit.disposition, Disposition::HitDisk);
        }
        assert_eq!(c.record.to_json(), d.record.to_json());
    }

    // The stored record is also directly addressable by hash.
    let fetched = client
        .result(&cold.results[0].hash_hex)
        .expect("result-by-hash should hit the store");
    assert_eq!(fetched.to_json(), cold.results[0].record.to_json());

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn concurrent_connections_dedup_against_each_other() {
    let store = temp_dir("e2e_inflight");
    let handle = spawn_server(&store, 2);
    // All connections submit the same specs concurrently; the job table
    // must collapse them to one execution each.
    let specs: Vec<SimSpec> = (0..4)
        .map(|i| spec(DesignKind::Dhtm, "hash", 100 + i))
        .collect();
    let addr = handle.addr;
    let joins: Vec<_> = (0..4)
        .map(|_| {
            let specs = specs.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                client.submit(1, specs).unwrap()
            })
        })
        .collect();
    let outcomes: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();

    let mut by_hash: HashMap<String, String> = HashMap::new();
    for outcome in &outcomes {
        for r in &outcome.results {
            let json = r.record.to_json();
            by_hash
                .entry(r.hash_hex.clone())
                .and_modify(|prior| assert_eq!(*prior, json))
                .or_insert(json);
        }
    }
    assert_eq!(by_hash.len(), specs.len());

    let mut client = ServiceClient::connect(addr).unwrap();
    let status = client.status().unwrap();
    assert_eq!(
        status.executed,
        specs.len() as u64,
        "4 connections x 4 specs still execute only once per hash"
    );
    assert_eq!(status.served, 16);
    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn invalid_batches_and_unknown_hashes_get_error_events() {
    let store = temp_dir("e2e_errors");
    let handle = spawn_server(&store, 1);
    let mut client = ServiceClient::connect(handle.addr).unwrap();

    // Unknown workloads pass spec parsing but fail validation, so the
    // whole batch is refused up front with an error event.
    let bogus = SimSpec::builder(DesignKind::Dhtm, "no-such-workload")
        .base(BaseConfig::Small)
        .commits(4)
        .build_unchecked();
    let err = client.submit(1, vec![bogus]).unwrap_err();
    assert!(err.to_string().contains("does not validate"), "got: {err}");

    // The connection survives an application-level error event.
    let err = client.result("ffffffffffffffff").unwrap_err();
    assert!(err.to_string().contains("no stored result"), "got: {err}");

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn a_hostile_geometry_gets_an_error_event_not_a_dropped_connection() {
    let store = temp_dir("e2e_hostile");
    let handle = spawn_server(&store, 1);
    let mut client = ServiceClient::connect(handle.addr).unwrap();

    // Parses, but its LLC has 170 sets; validation used to panic on it,
    // which dropped the connection.
    let hostile = SimSpec::from_toml(
        "engine = \"dhtm\"\nworkload = \"hash\"\nbase_config = \"small\"\n\
         commits = 4\n[config]\nllc_ways = 3\n",
    )
    .unwrap();
    let err = client.submit(1, vec![hostile]).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("does not validate"), "got: {message}");
    assert!(message.contains("power of two"), "got: {message}");

    // A 2^40-bit read signature: each core's allocation (128 GiB) used to
    // abort the whole server process, which no worker can catch.
    let oversized = SimSpec::from_toml(
        "engine = \"dhtm\"\nworkload = \"hash\"\nbase_config = \"small\"\n\
         commits = 4\n[config]\nread_signature_bits = 1099511627776\n",
    )
    .unwrap();
    let err = client.submit(2, vec![oversized]).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("does not validate"), "got: {message}");
    assert!(
        message.contains("read_signature_bits must be at most"),
        "got: {message}"
    );

    // The same connection still serves a valid batch.
    let outcome = client
        .submit(3, vec![spec(DesignKind::Dhtm, "hash", 21)])
        .unwrap();
    assert_eq!(outcome.results.len(), 1);
    assert_eq!(outcome.executed, 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn final_probe_registry_reports_service_counters() {
    let store = temp_dir("e2e_probes");
    let handle = spawn_server(&store, 1);
    let (batch, n_unique, _) = mixed_batch();
    let total = batch.len() as u64;
    let mut client = ServiceClient::connect(handle.addr).unwrap();
    client.submit(1, batch).unwrap();
    client.shutdown().unwrap();
    let registry = handle.join().unwrap();
    let probes: HashMap<String, u64> = registry.flatten().into_iter().collect();
    assert_eq!(probes["svc/submitted"], total);
    assert_eq!(probes["svc/served"], total);
    assert_eq!(probes["svc/executed"], n_unique);
    assert_eq!(probes["svc/store_entries"], n_unique);
    assert_eq!(probes["svc/failed"], 0);
    let _ = std::fs::remove_dir_all(&store);
}
