//! The job server: a `TcpListener` accept loop, a reusable worker pool,
//! and the two dedup layers in front of it.
//!
//! Every submitted spec is classified under one lock against (1) the
//! in-memory job table — completed jobs serve instantly, queued/running
//! jobs pick up a subscriber instead of a second execution — and (2) the
//! persistent [`ResultStore`], whose hits are verified against the spec's
//! canonical TOML before being served. Only specs that survive both
//! layers are enqueued; the worker pool shards them across threads, each
//! running the workspace's one execution path
//! ([`dhtm_scenario::ResolvedSpec::run_probed`]) with a
//! [`MetricsSink`]-backed observer that streams commit-window throughput
//! to every subscribed connection.
//!
//! Execution is panic-isolated: a worker wraps the run in `catch_unwind`,
//! so a pathological spec fails *that job* (a `failed` event to its
//! subscribers) instead of wedging the pool and hanging every waiting
//! client.

use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dhtm_obs::ProbeRegistry;
use dhtm_scenario::{MetricsSink, RunRecord, SimSpec};
use dhtm_sim::observer::{SimObserver, StepContext};
use dhtm_types::seed::hash_hex;
use dhtm_types::stats::AbortReason;

use crate::proto::{
    decode_request, encode_event, read_frame, write_frame, Disposition, Event, ProtoError, Request,
    StatusReport,
};
use crate::store::{LoadOutcome, ResultStore};

/// How long a connection may sit idle between requests before the server
/// closes it (bounds the accept-loop join at shutdown; generous enough
/// for any scripted client).
const IDLE_TIMEOUT: Duration = Duration::from_secs(600);

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the persistent result store (created if absent).
    pub store_dir: PathBuf,
    /// Worker-pool size (clamped to ≥ 1).
    pub workers: usize,
    /// Log lines (classification, store warnings) to stderr.
    pub verbose: bool,
}

impl ServerConfig {
    /// A config with `workers` threads over `store_dir`, quiet.
    pub fn new(store_dir: impl Into<PathBuf>, workers: usize) -> Self {
        ServerConfig {
            store_dir: store_dir.into(),
            workers: workers.max(1),
            verbose: false,
        }
    }
}

/// Monotonic service counters (lock-free; exported as `svc/…` probes and
/// in every `status_ok` reply).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    served: AtomicU64,
    executed: AtomicU64,
    failed: AtomicU64,
    hits_disk: AtomicU64,
    hits_memory: AtomicU64,
    inflight_dedups: AtomicU64,
    store_rejects: AtomicU64,
    worker_busy_ns: AtomicU64,
    peak_queue_depth: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) -> u64 {
        field.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// Lifecycle of one job-table entry.
enum Phase {
    Queued,
    Running,
    Done(Arc<RunRecord>),
    Failed(Arc<str>),
}

/// Progress/terminal notifications fanned out to subscribed connections.
#[derive(Clone)]
enum JobEvent {
    Begin {
        hash: u64,
    },
    Window {
        hash: u64,
        commits: u64,
        cycle: u64,
        window_commits: u64,
        window_cycles: u64,
    },
    Done {
        hash: u64,
        record: Arc<RunRecord>,
    },
    Failed {
        hash: u64,
        error: Arc<str>,
    },
}

struct JobEntry {
    phase: Phase,
    subs: Vec<Sender<JobEvent>>,
}

struct WorkItem {
    spec: SimSpec,
    hash: u64,
}

struct Inner {
    store: ResultStore,
    jobs: Mutex<HashMap<u64, JobEntry>>,
    /// `None` once shutdown has begun — dropping the sender is what lets
    /// workers drain the queue and exit.
    work_tx: Mutex<Option<Sender<WorkItem>>>,
    queued_now: AtomicU64,
    counters: Counters,
    shutdown: AtomicBool,
    workers: usize,
    verbose: bool,
}

impl Inner {
    fn log(&self, msg: &str) {
        if self.verbose {
            eprintln!("dhtm_serve: {msg}");
        }
    }

    /// Fan an event out to a job's subscribers; terminal events also
    /// update the phase and release the subscriber list.
    fn broadcast(&self, ev: JobEvent) {
        let (hash, terminal_phase) = match &ev {
            JobEvent::Begin { hash } | JobEvent::Window { hash, .. } => (*hash, None),
            JobEvent::Done { hash, record } => (*hash, Some(Phase::Done(Arc::clone(record)))),
            JobEvent::Failed { hash, error } => (*hash, Some(Phase::Failed(Arc::clone(error)))),
        };
        let mut jobs = self.jobs.lock().expect("job table poisoned");
        let Some(entry) = jobs.get_mut(&hash) else {
            return;
        };
        match terminal_phase {
            Some(phase) => {
                entry.phase = phase;
                for sub in entry.subs.drain(..) {
                    // lint: allow(lock-blocking, reason = "fan-out on an unbounded mpsc never blocks; the phase update and the notification must be atomic under `jobs` or a subscriber could miss its terminal event")
                    let _ = sub.send(ev.clone());
                }
            }
            None => {
                if matches!(ev, JobEvent::Begin { .. }) {
                    entry.phase = Phase::Running;
                }
                for sub in &entry.subs {
                    // lint: allow(lock-blocking, reason = "fan-out on an unbounded mpsc never blocks; progress events must be sent under `jobs` so they cannot interleave with a terminal broadcast")
                    let _ = sub.send(ev.clone());
                }
            }
        }
    }

    /// Executes one dequeued job, panic-isolated, and broadcasts its
    /// terminal event.
    fn run_job(&self, item: WorkItem) {
        self.queued_now.fetch_sub(1, Ordering::Relaxed);
        let WorkItem { spec, hash } = item;
        self.broadcast(JobEvent::Begin { hash });
        let started = std::time::Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let resolved = spec.resolve().map_err(|e| e.to_string())?;
            let every = (spec.limits.target_commits / 4).max(1);
            let mut progress = ProgressObserver {
                sink: MetricsSink::with_commit_stride(every),
                every,
                hash,
                inner: self,
                last_cycle: 0,
                last_commits: 0,
            };
            let (result, registry) = resolved.run_probed(Some(&mut progress));
            Ok::<RunRecord, String>(RunRecord::from_run(&spec, &result.stats, &registry))
        }));
        self.counters
            .worker_busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match outcome {
            Ok(Ok(record)) => {
                if let Err(e) = self.store.save(&record) {
                    self.log(&format!(
                        "warning: could not persist {}: {e} (result still served)",
                        record.content_hash_hex()
                    ));
                }
                Counters::bump(&self.counters.executed);
                self.broadcast(JobEvent::Done {
                    hash,
                    record: Arc::new(record),
                });
            }
            Ok(Err(message)) => {
                Counters::bump(&self.counters.failed);
                self.broadcast(JobEvent::Failed {
                    hash,
                    error: Arc::from(message.as_str()),
                });
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".to_string());
                Counters::bump(&self.counters.failed);
                self.log(&format!("job {} panicked: {message}", hash_hex(hash)));
                self.broadcast(JobEvent::Failed {
                    hash,
                    error: Arc::from(format!("panic: {message}").as_str()),
                });
            }
        }
    }

    fn status(&self) -> StatusReport {
        let (mut queued, mut running, mut done, mut failed) = (0u64, 0u64, 0u64, 0u64);
        for entry in self.jobs.lock().expect("job table poisoned").values() {
            match entry.phase {
                Phase::Queued => queued += 1,
                Phase::Running => running += 1,
                Phase::Done(_) => done += 1,
                Phase::Failed(_) => failed += 1,
            }
        }
        let c = &self.counters;
        StatusReport {
            queued,
            running,
            done,
            failed,
            submitted: c.submitted.load(Ordering::Relaxed),
            served: c.served.load(Ordering::Relaxed),
            executed: c.executed.load(Ordering::Relaxed),
            hits_disk: c.hits_disk.load(Ordering::Relaxed),
            hits_memory: c.hits_memory.load(Ordering::Relaxed),
            inflight_dedups: c.inflight_dedups.load(Ordering::Relaxed),
            store_rejects: c.store_rejects.load(Ordering::Relaxed),
            store_entries: self.store.len() as u64,
            workers: self.workers as u64,
            worker_busy_ns: c.worker_busy_ns.load(Ordering::Relaxed),
        }
    }

    /// Exports the service counters into a probe registry under `svc/…`
    /// (queue depth as its high-water mark; instantaneous depths are in
    /// `status`).
    fn probes_into(&self, reg: &mut ProbeRegistry) {
        let c = &self.counters;
        let mut set = |name: &str, value: u64| reg.set(&format!("svc/{name}"), value);
        set("submitted", c.submitted.load(Ordering::Relaxed));
        set("served", c.served.load(Ordering::Relaxed));
        set("executed", c.executed.load(Ordering::Relaxed));
        set("failed", c.failed.load(Ordering::Relaxed));
        set("hits_disk", c.hits_disk.load(Ordering::Relaxed));
        set("hits_memory", c.hits_memory.load(Ordering::Relaxed));
        set("inflight_dedups", c.inflight_dedups.load(Ordering::Relaxed));
        set("store_rejects", c.store_rejects.load(Ordering::Relaxed));
        set("worker_busy_ns", c.worker_busy_ns.load(Ordering::Relaxed));
        set(
            "peak_queue_depth",
            c.peak_queue_depth.load(Ordering::Relaxed),
        );
        set("store_entries", self.store.len() as u64);
    }
}

/// Observer wrapping a [`MetricsSink`]: exact commit/abort tallies plus a
/// `window` broadcast every `every` commits.
struct ProgressObserver<'a> {
    sink: MetricsSink,
    every: u64,
    hash: u64,
    inner: &'a Inner,
    last_cycle: u64,
    last_commits: u64,
}

impl SimObserver for ProgressObserver<'_> {
    fn on_begin(&mut self, ctx: &StepContext<'_>, tx: &dhtm_sim::workload::Transaction) {
        self.sink.on_begin(ctx, tx);
    }

    fn on_commit(&mut self, ctx: &StepContext<'_>, tx: &dhtm_sim::workload::Transaction) {
        self.sink.on_commit(ctx, tx);
        if self.sink.commits.is_multiple_of(self.every) {
            self.inner.broadcast(JobEvent::Window {
                hash: self.hash,
                commits: self.sink.commits,
                cycle: ctx.now,
                window_commits: self.sink.commits - self.last_commits,
                window_cycles: ctx.now.saturating_sub(self.last_cycle),
            });
            self.last_commits = self.sink.commits;
            self.last_cycle = ctx.now;
        }
    }

    fn on_abort(&mut self, ctx: &StepContext<'_>, reason: AbortReason) {
        self.sink.on_abort(ctx, reason);
    }

    fn on_durable_tick(&mut self, ctx: &StepContext<'_>) {
        self.sink.on_durable_tick(ctx);
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    inner: Arc<Inner>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.addr)
            .field("workers", &self.inner.workers)
            .field("store", &self.inner.store.dir())
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port), opens the store
    /// and starts the worker pool. The accept loop does not run until
    /// [`Server::run`].
    ///
    /// # Errors
    ///
    /// Propagates bind/store failures.
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let store = ResultStore::open(&config.store_dir)?;
        let workers = config.workers.max(1);
        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let inner = Arc::new(Inner {
            store,
            jobs: Mutex::new(HashMap::new()),
            work_tx: Mutex::new(Some(work_tx)),
            queued_now: AtomicU64::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            workers,
            verbose: config.verbose,
        });
        let work_rx = Arc::new(Mutex::new(work_rx));
        let worker_handles = (0..workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                let work_rx = Arc::clone(&work_rx);
                std::thread::spawn(move || worker_loop(&inner, &work_rx))
            })
            .collect();
        Ok(Server {
            listener,
            addr,
            inner,
            worker_handles,
        })
    }

    /// The bound address (the ephemeral port, when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the accept loop until a client sends `shutdown`. Queued work
    /// drains before workers exit; on return the final service probes are
    /// reported via the returned registry.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn run(self) -> std::io::Result<ProbeRegistry> {
        let mut conn_handles = Vec::new();
        for stream in self.listener.incoming() {
            if self.inner.shutdown.load(Ordering::Relaxed) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(e) => {
                    self.inner.log(&format!("accept error: {e}"));
                    continue;
                }
            };
            let inner = Arc::clone(&self.inner);
            let addr = self.addr;
            conn_handles.push(std::thread::spawn(move || {
                if let Err(e) = handle_connection(&inner, stream, addr) {
                    inner.log(&format!("connection ended: {e}"));
                }
            }));
        }
        for handle in conn_handles {
            let _ = handle.join();
        }
        for handle in self.worker_handles {
            let _ = handle.join();
        }
        let mut reg = ProbeRegistry::new();
        self.inner.probes_into(&mut reg);
        Ok(reg)
    }

    /// Runs the server on a background thread; returns its address and a
    /// join handle — the test/embedding-friendly entry point.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let join = std::thread::spawn(move || self.run());
        ServerHandle { addr, join }
    }
}

/// Handle to a [`Server::spawn`]ed server.
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    join: JoinHandle<std::io::Result<ProbeRegistry>>,
}

impl ServerHandle {
    /// Waits for the server to shut down; returns its final `svc/…`
    /// probe registry.
    ///
    /// # Errors
    ///
    /// Propagates the accept loop's error, if any.
    pub fn join(self) -> std::io::Result<ProbeRegistry> {
        self.join
            .join()
            .unwrap_or_else(|_| Err(std::io::Error::other("server thread panicked")))
    }
}

fn worker_loop(inner: &Inner, work_rx: &Mutex<Receiver<WorkItem>>) {
    loop {
        // Hold the receiver lock only while dequeuing; `recv` returns Err
        // once the sender is dropped (shutdown) *and* the queue is dry,
        // so queued work always drains first.
        let item = match work_rx.lock() {
            // lint: allow(lock-blocking, reason = "shared-receiver pool: the one receiver is owned by whichever worker is idle, so recv under its lock is the drain protocol itself")
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        match item {
            Ok(item) => inner.run_job(item),
            Err(_) => return,
        }
    }
}

/// Outcome of classifying one spec against both dedup layers.
enum Classified {
    /// Served immediately from a cache layer.
    Immediate(Arc<RunRecord>, Disposition),
    /// A terminal event will arrive on the subscribed channel.
    Wait(Disposition),
}

fn classify_and_subscribe(
    inner: &Inner,
    spec: &SimSpec,
    hash: u64,
    tx: &Sender<JobEvent>,
) -> Result<Classified, String> {
    // First pass: the in-memory job table. The guard is dropped before the
    // store consultation below — holding `jobs` across disk IO would
    // serialise every connection's classification behind the store.
    {
        let mut jobs = inner.jobs.lock().expect("job table poisoned");
        if let Some(classified) = classify_in_table(inner, &mut jobs, spec, hash, tx) {
            return classified;
        }
    }
    // Not in the job table: consult the persistent store (verified), with
    // no lock held.
    let loaded = inner.store.load(spec);
    // Second pass: another connection may have classified this hash while
    // we were reading the disk, so re-check the table before inserting —
    // an existing entry wins over whatever we loaded (a verified store hit
    // for the same content hash is byte-identical anyway).
    let mut jobs = inner.jobs.lock().expect("job table poisoned");
    if let Some(classified) = classify_in_table(inner, &mut jobs, spec, hash, tx) {
        return classified;
    }
    match loaded {
        LoadOutcome::Hit(record) => {
            Counters::bump(&inner.counters.hits_disk);
            let record = Arc::new(*record);
            jobs.insert(
                hash,
                JobEntry {
                    phase: Phase::Done(Arc::clone(&record)),
                    subs: Vec::new(),
                },
            );
            Ok(Classified::Immediate(record, Disposition::HitDisk))
        }
        miss_or_rejected => {
            if let LoadOutcome::Rejected(why) = miss_or_rejected {
                Counters::bump(&inner.counters.store_rejects);
                inner.log(&format!(
                    "warning: store record rejected, recomputing: {why}"
                ));
            }
            jobs.insert(
                hash,
                JobEntry {
                    phase: Phase::Queued,
                    subs: vec![tx.clone()],
                },
            );
            enqueue(inner, spec, hash)?;
            Ok(Classified::Wait(Disposition::Queued))
        }
    }
}

/// Classifies `hash` against an existing job-table entry: memory hit,
/// subscribe to the in-flight run, or re-enqueue a failed job. `None` when
/// the table has no entry (the caller then consults the persistent store).
fn classify_in_table(
    inner: &Inner,
    jobs: &mut HashMap<u64, JobEntry>,
    spec: &SimSpec,
    hash: u64,
    tx: &Sender<JobEvent>,
) -> Option<Result<Classified, String>> {
    let entry = jobs.get_mut(&hash)?;
    Some(match &entry.phase {
        Phase::Done(record) => {
            Counters::bump(&inner.counters.hits_memory);
            Ok(Classified::Immediate(
                Arc::clone(record),
                Disposition::HitMemory,
            ))
        }
        Phase::Queued | Phase::Running => {
            entry.subs.push(tx.clone());
            Counters::bump(&inner.counters.inflight_dedups);
            Ok(Classified::Wait(Disposition::Inflight))
        }
        Phase::Failed(prior) => {
            // A previously failed job is retried as fresh work.
            inner.log(&format!(
                "retrying {} (previously failed: {prior})",
                hash_hex(hash)
            ));
            entry.phase = Phase::Queued;
            entry.subs.push(tx.clone());
            match enqueue(inner, spec, hash) {
                Ok(()) => Ok(Classified::Wait(Disposition::Queued)),
                Err(e) => Err(e),
            }
        }
    })
}

fn enqueue(inner: &Inner, spec: &SimSpec, hash: u64) -> Result<(), String> {
    let guard = inner.work_tx.lock().expect("work channel poisoned");
    let tx = guard.as_ref().ok_or("server is shutting down")?;
    // Count the item before it becomes visible to workers: a worker's
    // decrement in `run_job` must never observe a counter this increment
    // hasn't reached yet, or the depth wraps below zero.
    let depth = inner.queued_now.fetch_add(1, Ordering::Relaxed) + 1;
    inner
        .counters
        .peak_queue_depth
        .fetch_max(depth, Ordering::Relaxed);
    if tx
        // lint: allow(lock-blocking, reason = "unbounded mpsc send never blocks; the sender lives inside `work_tx` so shutdown's take() atomically stops new work")
        .send(WorkItem {
            spec: spec.clone(),
            hash,
        })
        .is_err()
    {
        inner.queued_now.fetch_sub(1, Ordering::Relaxed);
        return Err("worker pool stopped".to_string());
    }
    Ok(())
}

fn send_event(writer: &mut BufWriter<TcpStream>, ev: &Event) -> std::io::Result<()> {
    write_frame(writer, &encode_event(ev))?;
    writer.flush()
}

/// Per-hash bookkeeping while a batch streams.
struct BatchSeen {
    record: Option<(Arc<RunRecord>, bool)>, // (record, cached flag)
}

#[allow(clippy::too_many_lines)]
fn handle_submit(
    inner: &Inner,
    writer: &mut BufWriter<TcpStream>,
    batch: u64,
    specs: &[SimSpec],
) -> std::io::Result<()> {
    // Validate everything up front: a batch either streams or errors.
    for (i, spec) in specs.iter().enumerate() {
        if let Err(e) = spec.validate() {
            return send_event(
                writer,
                &Event::Error {
                    message: format!("spec {i} does not validate: {e}"),
                },
            );
        }
    }

    let (tx, rx) = mpsc::channel::<JobEvent>();
    let mut seen: HashMap<u64, BatchSeen> = HashMap::new();
    let mut waiting: HashMap<u64, Vec<u64>> = HashMap::new();
    let (mut unique, mut duplicates, mut cache_hits, mut executed) = (0u64, 0u64, 0u64, 0u64);

    for (i, spec) in specs.iter().enumerate() {
        let index = i as u64;
        let hash = spec.content_hash();
        let hex = hash_hex(hash);
        Counters::bump(&inner.counters.submitted);

        if let Some(prior) = seen.get(&hash) {
            duplicates += 1;
            send_event(
                writer,
                &Event::Job {
                    batch,
                    index,
                    hash_hex: hex.clone(),
                    disposition: Disposition::DupBatch,
                },
            )?;
            match &prior.record {
                Some((record, cached)) => {
                    Counters::bump(&inner.counters.served);
                    send_event(
                        writer,
                        &Event::Done {
                            batch,
                            index,
                            hash_hex: hex,
                            cached: *cached,
                            record: Box::new((**record).clone()),
                        },
                    )?;
                }
                None => waiting.entry(hash).or_default().push(index),
            }
            continue;
        }

        unique += 1;
        match classify_and_subscribe(inner, spec, hash, &tx) {
            Ok(Classified::Immediate(record, disposition)) => {
                cache_hits += 1;
                seen.insert(
                    hash,
                    BatchSeen {
                        record: Some((Arc::clone(&record), true)),
                    },
                );
                send_event(
                    writer,
                    &Event::Job {
                        batch,
                        index,
                        hash_hex: hex.clone(),
                        disposition,
                    },
                )?;
                Counters::bump(&inner.counters.served);
                send_event(
                    writer,
                    &Event::Done {
                        batch,
                        index,
                        hash_hex: hex,
                        cached: true,
                        record: Box::new((*record).clone()),
                    },
                )?;
            }
            Ok(Classified::Wait(disposition)) => {
                if disposition == Disposition::Queued {
                    executed += 1;
                }
                seen.insert(hash, BatchSeen { record: None });
                waiting.entry(hash).or_default().push(index);
                send_event(
                    writer,
                    &Event::Job {
                        batch,
                        index,
                        hash_hex: hex,
                        disposition,
                    },
                )?;
            }
            Err(message) => {
                return send_event(writer, &Event::Error { message });
            }
        }
    }

    // Stream worker events until every waiting index has its terminal.
    while !waiting.is_empty() {
        let ev = match rx.recv_timeout(IDLE_TIMEOUT) {
            Ok(ev) => ev,
            Err(_) => {
                return send_event(
                    writer,
                    &Event::Error {
                        message: "timed out waiting for job events".to_string(),
                    },
                );
            }
        };
        match ev {
            JobEvent::Begin { hash } => {
                if waiting.contains_key(&hash) {
                    send_event(
                        writer,
                        &Event::Begin {
                            hash_hex: hash_hex(hash),
                        },
                    )?;
                }
            }
            JobEvent::Window {
                hash,
                commits,
                cycle,
                window_commits,
                window_cycles,
            } => {
                if waiting.contains_key(&hash) {
                    send_event(
                        writer,
                        &Event::Window {
                            hash_hex: hash_hex(hash),
                            commits,
                            cycle,
                            window_commits,
                            window_cycles,
                        },
                    )?;
                }
            }
            JobEvent::Done { hash, record } => {
                for index in waiting.remove(&hash).unwrap_or_default() {
                    Counters::bump(&inner.counters.served);
                    send_event(
                        writer,
                        &Event::Done {
                            batch,
                            index,
                            hash_hex: hash_hex(hash),
                            cached: false,
                            record: Box::new((*record).clone()),
                        },
                    )?;
                }
            }
            JobEvent::Failed { hash, error } => {
                for index in waiting.remove(&hash).unwrap_or_default() {
                    send_event(
                        writer,
                        &Event::Failed {
                            batch,
                            index,
                            hash_hex: hash_hex(hash),
                            error: error.to_string(),
                        },
                    )?;
                }
            }
        }
    }

    send_event(
        writer,
        &Event::BatchDone {
            batch,
            specs: specs.len() as u64,
            unique,
            duplicates,
            cache_hits,
            executed,
        },
    )
}

fn handle_connection(
    inner: &Inner,
    stream: TcpStream,
    self_addr: SocketAddr,
) -> Result<(), ProtoError> {
    stream.set_read_timeout(Some(IDLE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    loop {
        let Some(payload) = read_frame(&mut reader)? else {
            return Ok(()); // client closed the connection cleanly
        };
        let request = match decode_request(&payload) {
            Ok(req) => req,
            Err(e) => {
                // Malformed input gets a protocol error, then the
                // connection closes: framing sync is gone.
                send_event(
                    &mut writer,
                    &Event::Error {
                        message: e.to_string(),
                    },
                )?;
                return Err(e);
            }
        };
        match request {
            Request::Submit { batch, specs } => {
                handle_submit(inner, &mut writer, batch, &specs)?;
            }
            Request::Status => {
                send_event(&mut writer, &Event::StatusOk(inner.status()))?;
            }
            Request::Result { hash_hex } => {
                let ev = match inner.store.load_by_hash(&hash_hex) {
                    LoadOutcome::Hit(record) => Event::Done {
                        batch: 0,
                        index: 0,
                        hash_hex,
                        cached: true,
                        record,
                    },
                    LoadOutcome::Miss => Event::Error {
                        message: format!("no stored result for {hash_hex}"),
                    },
                    LoadOutcome::Rejected(why) => {
                        Counters::bump(&inner.counters.store_rejects);
                        Event::Error {
                            message: format!(
                                "stored result for {hash_hex} failed verification: {why}"
                            ),
                        }
                    }
                };
                send_event(&mut writer, &ev)?;
            }
            Request::Shutdown => {
                send_event(&mut writer, &Event::ShutdownOk)?;
                inner.shutdown.store(true, Ordering::Relaxed);
                // Dropping the sender lets workers drain and exit.
                inner.work_tx.lock().expect("work channel poisoned").take();
                // Wake the accept loop so it observes the flag.
                let _ = TcpStream::connect(self_addr);
                return Ok(());
            }
        }
    }
}
