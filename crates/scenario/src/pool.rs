//! The workspace's one worker pool: an order-preserving parallel map over
//! `std::thread::scope` workers. The harness runs matrix cells and spec
//! files through it, the crash matrix its crash cells.

use std::panic;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Maps `f` over `items` on `jobs` scoped worker threads and returns the
/// results in input order, whichever worker ran which item.
///
/// `jobs` is clamped to `1..=items.len()`; with one job every item runs
/// serially on the calling thread. Workers claim the next unclaimed index
/// from an atomic cursor, so a slow item never holds up the queue behind
/// it. A panic in `f` is re-raised on the calling thread with its original
/// payload.
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker.join().unwrap_or_else(|e| panic::resume_unwind(e));
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..23).collect();
        let want: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [0, 1, 2, 3, items.len() + 5] {
            assert_eq!(par_map(&items, jobs, |x| x * x + 1), want, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_input_returns_empty() {
        for jobs in [0, 1, 4] {
            assert!(par_map(&[] as &[u8], jobs, |_| 0u8).is_empty());
        }
    }

    #[test]
    fn one_job_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        assert!(par_map(&[1, 2, 3], 1, |_| thread::current().id() == caller)
            .into_iter()
            .all(|same| same));
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn a_worker_panic_reaches_the_caller() {
        let items: Vec<usize> = (0..8).collect();
        par_map(&items, 3, |&i| assert_ne!(i, 5, "item {i}"));
    }
}
