//! Dependency-free parallel experiment engine.
//!
//! The paper's evaluation is a pile of *independent* simulation runs — a
//! detector-threshold grid, disruption scenarios, chain-length points, and
//! multi-hundred-seed distributions. Each run is deterministic given its
//! seed, so the set can fan out across cores without changing any result,
//! provided the merge step is order-independent. This module provides that
//! fan-out with nothing beyond `std`:
//!
//! - A [`Task`] is `(label, seed, builder-fn)`. The closure must be `Send`
//!   (it is moved to a worker thread), but what it *builds* need not be:
//!   the `Rc`-based [`hydranet_core::system::System`] is constructed
//!   *inside* the worker, lives its whole life on that thread, and only
//!   the plain-data result crosses back.
//! - [`run_tasks`] spins up a scoped worker pool (`std::thread::scope`, so
//!   no `'static` bounds and no join-handle leaks). Workers pull task
//!   indices from a shared `AtomicUsize` — classic work stealing without a
//!   queue, since the task list is fixed up front.
//! - Results are merged **by task index**: worker interleaving affects only
//!   wall-clock, never output order. `run_tasks(tasks, 1)` and
//!   `run_tasks(tasks, n)` return bit-identical `Vec<R>`s (enforced by
//!   tests here and in `determinism_guard.rs`).
//!
//! The pool reports [`RunnerStats`] (tasks completed, per-worker busy time,
//! wall-clock) which can be published into an [`Obs`] registry via
//! [`RunnerStats::publish`] under the `runner.*` metric names.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use hydranet_obs::Obs;

/// One unit of parallel work: a labelled, seeded, self-contained simulation
/// run. The closure owns everything it needs (configs are cloned in) and
/// returns a plain-data result.
pub struct Task<R> {
    /// Human-readable label, carried through to reports.
    pub label: String,
    /// The deterministic seed this task runs with (informational; the
    /// closure already captured it).
    pub seed: u64,
    run: Box<dyn FnOnce() -> R + Send>,
}

impl<R> Task<R> {
    /// Creates a task from a label, seed, and builder closure.
    pub fn new(
        label: impl Into<String>,
        seed: u64,
        run: impl FnOnce() -> R + Send + 'static,
    ) -> Self {
        Task {
            label: label.into(),
            seed,
            run: Box::new(run),
        }
    }

    /// Runs the task, consuming it.
    pub fn run(self) -> R {
        (self.run)()
    }
}

impl<R> std::fmt::Debug for Task<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("label", &self.label)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// What the worker pool measured about itself during one [`run_tasks`] call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunnerStats {
    /// Worker threads used (after clamping to the task count).
    pub threads: usize,
    /// Tasks completed (always the full task count; the pool never drops).
    pub tasks_completed: u64,
    /// Summed busy wall-clock nanoseconds across all workers.
    pub worker_busy_nanos: u64,
    /// Wall-clock nanoseconds from pool start to last join.
    pub wall_nanos: u64,
    /// Busy nanoseconds per worker, indexed by worker id.
    pub per_worker_busy_nanos: Vec<u64>,
}

impl RunnerStats {
    /// Pool utilization in `[0, 1]`: busy time over `wall × threads`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.wall_nanos.saturating_mul(self.threads as u64);
        if capacity == 0 {
            0.0
        } else {
            self.worker_busy_nanos as f64 / capacity as f64
        }
    }

    /// Publishes this run into `obs` under the `runner.*` metric names.
    /// `events` is the total simulated-event count across tasks (0 if the
    /// workload does not track events).
    pub fn publish(&self, obs: &Obs, events: u64) {
        obs.record_runner(
            self.threads,
            self.tasks_completed,
            self.worker_busy_nanos,
            self.wall_nanos,
            events,
        );
    }
}

/// Runs every task, fanning out across up to `threads` scoped worker
/// threads, and returns the results **in task order** plus pool stats.
///
/// Determinism contract: for a fixed task list, the returned `Vec<R>` is
/// identical for every `threads` value — workers only decide *when* a task
/// runs, never *what* it computes (each task is a self-contained seeded
/// simulation) nor *where* its result lands (slot `i` of the output).
///
/// `threads == 0` is treated as 1. `threads` is clamped to the task count.
pub fn run_tasks<R: Send>(tasks: Vec<Task<R>>, threads: usize) -> (Vec<R>, RunnerStats) {
    let n = tasks.len();
    let threads = threads.max(1).min(n.max(1));
    let started = Instant::now();

    if n == 0 {
        return (
            Vec::new(),
            RunnerStats {
                threads,
                wall_nanos: elapsed_nanos(&started),
                per_worker_busy_nanos: vec![0; threads],
                ..RunnerStats::default()
            },
        );
    }

    // Single-threaded fast path: no pool, no locks — and the reference
    // behavior the parallel path must reproduce bit-for-bit.
    if threads == 1 {
        let mut busy = 0u64;
        let mut results = Vec::with_capacity(n);
        for task in tasks {
            let t0 = Instant::now();
            results.push(task.run());
            busy += elapsed_nanos(&t0);
        }
        let stats = RunnerStats {
            threads: 1,
            tasks_completed: n as u64,
            worker_busy_nanos: busy,
            wall_nanos: elapsed_nanos(&started),
            per_worker_busy_nanos: vec![busy],
        };
        return (results, stats);
    }

    // Each task sits in its own slot; a worker claims index `i` from the
    // shared counter and takes the task out of slot `i`. `Mutex<Option<_>>`
    // rather than one locked queue so claims never contend with each other.
    let slots: Vec<Mutex<Option<Task<R>>>> =
        tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);

    let (mut indexed, per_worker_busy_nanos) = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let slots = &slots;
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                let mut busy = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= slots.len() {
                        break;
                    }
                    let task = slots[i]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .take()
                        .expect("task slot claimed twice");
                    let t0 = Instant::now();
                    local.push((i, task.run()));
                    busy += elapsed_nanos(&t0);
                }
                (local, busy)
            }));
        }
        let mut indexed: Vec<(usize, R)> = Vec::with_capacity(n);
        let mut busies = Vec::with_capacity(threads);
        for h in handles {
            // A worker panic means a task panicked; propagate it.
            let (local, busy) = h.join().expect("experiment worker panicked");
            indexed.extend(local);
            busies.push(busy);
        }
        (indexed, busies)
    });

    // Merge by task index: output order is the task-list order, independent
    // of which worker ran what when.
    indexed.sort_by_key(|(i, _)| *i);
    debug_assert!(indexed.iter().enumerate().all(|(k, (i, _))| k == *i));
    let results: Vec<R> = indexed.into_iter().map(|(_, r)| r).collect();

    let stats = RunnerStats {
        threads,
        tasks_completed: n as u64,
        worker_busy_nanos: per_worker_busy_nanos.iter().sum(),
        wall_nanos: elapsed_nanos(&started),
        per_worker_busy_nanos,
    };
    (results, stats)
}

fn elapsed_nanos(t: &Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydranet_netsim::rng::SimRng;
    use std::rc::Rc;

    fn squares(n: u64) -> Vec<Task<u64>> {
        (0..n)
            .map(|i| Task::new(format!("sq-{i}"), i, move || i * i))
            .collect()
    }

    #[test]
    fn results_are_in_task_order_at_any_thread_count() {
        for threads in [1, 2, 4, 7, 64] {
            let (results, stats) = run_tasks(squares(20), threads);
            assert_eq!(results, (0..20).map(|i| i * i).collect::<Vec<_>>());
            assert_eq!(stats.tasks_completed, 20);
            assert_eq!(stats.threads, threads.min(20));
            assert_eq!(stats.per_worker_busy_nanos.len(), stats.threads);
        }
    }

    #[test]
    fn threads_one_equals_threads_many_bitwise() {
        // Each task runs a seeded RNG walk on a non-Send value (`Rc`),
        // mirroring how real tasks build an `Rc`-based `System` inside the
        // worker. The merged output must be identical at every width.
        let make = || {
            (0..16u64)
                .map(|i| {
                    Task::new(format!("walk-{i}"), i, move || {
                        let rng = Rc::new(std::cell::RefCell::new(SimRng::seed_from(i)));
                        let mut acc = 0u64;
                        for _ in 0..1000 {
                            acc = acc.wrapping_add(rng.borrow_mut().next_u64());
                        }
                        acc
                    })
                })
                .collect::<Vec<_>>()
        };
        let (seq, _) = run_tasks(make(), 1);
        for threads in [2, 3, 4, 8] {
            let (par, _) = run_tasks(make(), threads);
            assert_eq!(seq, par, "threads={threads} diverged from threads=1");
        }
    }

    #[test]
    fn empty_task_list_is_fine() {
        let (results, stats) = run_tasks(Vec::<Task<u8>>::new(), 4);
        assert!(results.is_empty());
        assert_eq!(stats.tasks_completed, 0);
    }

    #[test]
    fn zero_threads_means_one() {
        let (results, stats) = run_tasks(squares(3), 0);
        assert_eq!(results, vec![0, 1, 4]);
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn stats_account_for_all_work() {
        let (_, stats) = run_tasks(squares(50), 4);
        assert_eq!(
            stats.worker_busy_nanos,
            stats.per_worker_busy_nanos.iter().sum::<u64>()
        );
        assert!(stats.utilization() <= 1.0 + f64::EPSILON);
        assert!(stats.wall_nanos > 0);
    }

    #[test]
    fn publish_lands_in_registry() {
        let (_, stats) = run_tasks(squares(4), 2);
        let obs = Obs::enabled();
        stats.publish(&obs, 1234);
        let j = obs.to_json();
        assert!(j.contains("\"runner.tasks_completed\": 4"), "{j}");
        assert!(j.contains("\"runner.threads\": 2"), "{j}");
    }
}
