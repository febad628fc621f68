//! The one task executor: an order-preserving parallel map.
//!
//! Each vehicle answers one batch of neighbour queries per broadcast
//! period (§V-B), and a fleet epoch drains one batch of fix queries; both
//! are embarrassingly parallel maps whose output order must not depend on
//! scheduling. [`run_tasks`] runs such a batch on `workers` scoped threads
//! that claim task indices from one shared atomic counter, so an idle
//! worker always takes the next unclaimed task and a slow task never
//! strands work behind it. One worker (or a batch of at most one task)
//! runs inline on the caller's thread.
//!
//! **Determinism argument:** every task carries its index in the batch,
//! each task is a pure function of its inputs, and its result is written
//! into the slot of that index. Scheduling therefore only permutes
//! *execution order*, never *inputs* or *output placement*, so the
//! returned vector is bit-identical for any worker count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker count for callers that have no configured one: the hardware
/// threads available to the process (1 when unknown).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over every task on up to `workers` threads and returns the
/// results in task order, plus how many tasks each worker ran.
///
/// The results depend on the task list alone (see the module docs). A
/// panicking task panics the caller with the task's own payload once the
/// other workers have stopped.
pub fn run_tasks<T, R, F>(tasks: &[T], workers: usize, f: F) -> (Vec<R>, Vec<u64>)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = tasks.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return (tasks.iter().map(f).collect(), vec![n as u64]);
    }

    // `Relaxed` suffices: the counter only hands out indices and publishes
    // no data; results come back through `join`, which synchronises.
    let next = AtomicUsize::new(0);
    let done_lists: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        done.push((i, f(&tasks[i])));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let per_worker = done_lists.iter().map(|d| d.len() as u64).collect();
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, r) in done_lists.into_iter().flatten() {
        slots[i] = Some(r);
    }
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every task index is claimed exactly once"))
        .collect();
    (results, per_worker)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Condvar, Mutex};

    #[test]
    fn results_keep_task_order_for_any_worker_count() {
        let tasks: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = tasks.iter().map(|t| t * t + 1).collect();
        for workers in [1, 2, 3, 4, 8] {
            let (got, per_worker) = run_tasks(&tasks, workers, |&t| t * t + 1);
            assert_eq!(got, expected, "workers={workers}");
            assert_eq!(per_worker.len(), workers);
            assert_eq!(per_worker.iter().sum::<u64>(), 257);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let tasks: Vec<usize> = (0..1000).collect();
        let counters: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let (_, per_worker) = run_tasks(&tasks, 4, |&t| {
            counters[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(per_worker.len(), 4);
    }

    #[test]
    fn an_idle_worker_takes_the_load_of_a_blocked_one() {
        // Whichever worker claims task 0 is held there until tasks 1..64
        // have all finished, so the other worker must claim every one of
        // them. With two workers the split is forced, not timed: a third
        // worker could legitimately also end with a single task.
        let tasks: Vec<u32> = (0..64).collect();
        let finished = (Mutex::new(0usize), Condvar::new());
        let (_, mut per_worker) = run_tasks(&tasks, 2, |&t| {
            let (count, cv) = &finished;
            if t == 0 {
                let mut n = count.lock().unwrap();
                while *n < 63 {
                    n = cv.wait(n).unwrap();
                }
            } else {
                *count.lock().unwrap() += 1;
                cv.notify_all();
            }
        });
        assert_eq!(per_worker.iter().filter(|&&c| c == 1).count(), 1);
        assert_eq!(per_worker.iter().sum::<u64>(), 64);
        per_worker.sort_unstable();
        assert_eq!(per_worker, vec![1, 63]);
    }

    #[test]
    #[should_panic(expected = "task 3 failed")]
    fn a_panicking_task_panics_the_caller() {
        let tasks: Vec<u32> = (0..16).collect();
        run_tasks(&tasks, 4, |&t| {
            assert_ne!(t, 3, "task 3 failed");
            t
        });
    }

    #[test]
    fn empty_and_tiny_batches() {
        let (r, per_worker) = run_tasks::<u32, u32, _>(&[], 4, |&t| t);
        assert!(r.is_empty());
        assert_eq!(per_worker.iter().sum::<u64>(), 0);
        let (r, _) = run_tasks(&[7u32], 4, |&t| t + 1);
        assert_eq!(r, vec![8]);
    }
}
