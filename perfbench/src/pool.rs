//! A timed parallel map with the harness pool's scheduling: workers pull
//! the next unclaimed item through an atomic cursor, and results come back
//! in item order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Worker threads or connections every workload uses: the benchmark host's
/// core count.
pub const WORKERS: usize = 2;

/// A pass of [`par_map`]: each item's result with its host seconds, and
/// the pass's wall seconds.
#[derive(Debug)]
pub struct Pass<R> {
    /// `(result, seconds)` per item, in item order.
    pub items: Vec<(R, f64)>,
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
}

/// Process CPU and wall seconds summed over the passes of a worker pool
/// that the benchmark cannot time from inside (`run_cells`,
/// `CrashMatrix::run`). While such a pass runs, the calling thread only
/// waits, so the CPU time is the workers' busy time.
#[derive(Debug, Default)]
pub struct PoolTime {
    cpu_s: f64,
    wall_s: f64,
}

impl PoolTime {
    /// Runs one pass, `f`, and adds its CPU and wall seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (cpu, t) = (crate::stats::cpu_s(), Instant::now());
        let result = f();
        self.wall_s += t.elapsed().as_secs_f64();
        self.cpu_s += crate::stats::cpu_s() - cpu;
        result
    }

    /// Busy seconds over `workers` × wall seconds, in percent.
    pub fn busy_pct(&self, workers: usize) -> f64 {
        100.0 * self.cpu_s / (workers as f64 * self.wall_s)
    }
}

/// Runs `f` over `items` on `workers` threads.
///
/// # Panics
///
/// Propagates a panic of `f`.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Pass<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<(R, f64)>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let t = Instant::now();
                let result = f(item);
                let secs = t.elapsed().as_secs_f64();
                *slots[i].lock().expect("result slot poisoned") = Some((result, secs));
            });
        }
    });
    let wall_s = start.elapsed().as_secs_f64();
    let items = slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("every item ran")
        })
        .collect();
    Pass { items, wall_s }
}
