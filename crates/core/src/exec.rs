//! Parallel sweep execution engine.
//!
//! Every experiment driver decomposes its sweep into independent jobs —
//! one per `(design, width, point)` tuple, per Monte-Carlo sample, or
//! similar — and hands them to an [`Executor`], which fans them out over a
//! `std::thread::scope` work queue shared by the calling thread and the
//! threads it spawns, and reassembles the results **in item order**. It
//! is the workspace's only parallel runtime. Because each
//! job is a pure function of its input and assembly order is fixed,
//! artifacts are bit-identical regardless of the thread count; only the
//! wall-clock changes.
//!
//! The executor also meters itself: jobs run and nanoseconds spent in the
//! fan-out and assembly phases accumulate in shared [`ExecCounters`], and
//! `run_by_id` snapshots them (together with the calibration-cache
//! counters) into an [`ExecStats`] attached to each emitted artifact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use ftcam_array::CacheStats;
use ftcam_circuit::{RecoveryStats, SolverPerf, StepStats};
use serde::{Deserialize, Serialize};

/// Renders a panic payload the way the panic hook would.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Why one work item of an [`Executor::run_partial`] sweep produced no
/// result: its job either returned an error or panicked. Panics are caught
/// per item, so a crashing job costs exactly one slot, never the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemError<E> {
    /// The job returned `Err`.
    Failed(E),
    /// The job panicked; the payload is rendered to a message.
    Panicked(String),
}

impl<E: std::fmt::Display> std::fmt::Display for ItemError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Failed(e) => write!(f, "{e}"),
            Self::Panicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ItemError<E> {}

ftcam_circuit::counters! {
    /// A point-in-time snapshot of [`ExecCounters`], the shared
    /// accumulating counters of one [`Executor`] (usually owned by the
    /// `Evaluator` and shared by every executor it hands out).
    pub struct ExecSnapshot, ledger ExecCounters {
        /// Jobs executed.
        jobs,
        /// Wall-clock nanoseconds spent in the fan-out phase (serial path
        /// included).
        run_nanos,
        /// Wall-clock nanoseconds spent assembling results in item order.
        assemble_nanos,
    }
}

/// Per-run execution statistics attached to emitted artifacts.
///
/// `threads`, `jobs`, `cache.calibrations` and the artifact payload are
/// deterministic for a given experiment; the timing fields and the cache
/// hit/miss/dedup split depend on scheduling, so consumers comparing runs
/// (e.g. the thread-invariance test) must strip this struct first.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Worker threads the executor was configured with.
    pub threads: usize,
    /// Jobs executed for this artifact.
    pub jobs: u64,
    /// Wall-clock nanoseconds inside `Executor::run` fan-out.
    pub run_nanos: u64,
    /// Wall-clock nanoseconds assembling results in item order.
    pub assemble_nanos: u64,
    /// Calibration-cache activity during the run.
    pub cache: CacheStats,
    /// Transient solver step statistics during the run (accepted and
    /// rejected steps, Newton halvings, total Newton iterations).
    ///
    /// Deltas of the **process-wide** counters, so concurrent simulations
    /// from other threads in the same process bleed in; like the timing
    /// fields, this is diagnostic, not deterministic.
    pub steps: StepStats,
    /// Recovery-ladder activity during the run (same process-wide delta
    /// caveat as `steps`); all-zero unless the solver had to recover.
    pub recovery: RecoveryStats,
    /// Solver hot-path counters during the run — factorisations,
    /// substitutions, LU bypasses, baseline snapshot reuse and stamp-tape
    /// replays (same process-wide delta caveat as `steps`).
    pub solver: SolverPerf,
    /// Total wall-clock nanoseconds for the experiment.
    pub wall_nanos: u64,
}

/// Fans independent jobs out over scoped worker threads and reassembles
/// results in deterministic item order.
///
/// The calling thread always runs jobs too, so a sweep spawns one thread
/// fewer than it has workers. With `threads <= 1` (or a single item) no
/// thread is spawned and jobs run inline on the calling thread — the
/// serial path the invariance tests compare against.
#[derive(Debug, Clone)]
pub struct Executor {
    threads: usize,
    counters: Arc<ExecCounters>,
    #[cfg(feature = "fault-injection")]
    poison_item: Option<usize>,
}

impl Executor {
    /// Creates an executor with private counters.
    pub fn new(threads: usize) -> Self {
        Self::with_counters(threads, Arc::new(ExecCounters::new()))
    }

    /// Creates an executor accumulating into shared counters.
    pub fn with_counters(threads: usize, counters: Arc<ExecCounters>) -> Self {
        Self {
            threads,
            counters,
            #[cfg(feature = "fault-injection")]
            poison_item: None,
        }
    }

    /// Marks one work item of every subsequent sweep to panic before its
    /// job runs (chaos tests only): the deterministic "poisoned worker"
    /// fault for exercising [`Executor::run_partial`] isolation.
    #[cfg(feature = "fault-injection")]
    #[must_use]
    pub fn with_poisoned_item(mut self, item: usize) -> Self {
        self.poison_item = Some(item);
        self
    }

    #[cfg(feature = "fault-injection")]
    fn check_poison(&self, i: usize) {
        if self.poison_item == Some(i) {
            panic!("fault injection: poisoned work item {i}");
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The counters this executor accumulates into.
    pub fn counters(&self) -> &Arc<ExecCounters> {
        &self.counters
    }

    /// Runs `job(i, &items[i])` for every item and returns a per-item
    /// `Result` vector in item order — the partial-results primitive: one
    /// failing or even panicking item never costs the others.
    ///
    /// Work is distributed over `min(threads, items.len())` workers, the
    /// calling thread and the scoped threads it spawns for the rest, via an
    /// atomic claim counter; each result lands in a per-item slot,
    /// so assembly order — and therefore the output — is independent of
    /// which thread ran which job. Every job runs even if an earlier one
    /// failed (no early cancellation), keeping cache warm-up deterministic.
    /// Each job runs under `catch_unwind`, so a panic is confined to its
    /// item and reported as [`ItemError::Panicked`] with the rendered
    /// payload.
    pub fn run_partial<T, R, E, F>(&self, items: &[T], job: F) -> Vec<Result<R, ItemError<E>>>
    where
        T: Sync,
        R: Send + Sync,
        E: Send + Sync,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let run_one = |i: usize, item: &T| -> Result<R, ItemError<E>> {
            match catch_unwind(AssertUnwindSafe(|| {
                #[cfg(feature = "fault-injection")]
                self.check_poison(i);
                job(i, item)
            })) {
                Ok(Ok(r)) => Ok(r),
                Ok(Err(e)) => Err(ItemError::Failed(e)),
                Err(payload) => Err(ItemError::Panicked(panic_message(&*payload))),
            }
        };
        let started = Instant::now();
        let workers = self.threads.clamp(1, n);
        let slots: Vec<OnceLock<Result<R, ItemError<E>>>> =
            (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let claim_loop = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let filled = slots[i].set(run_one(i, &items[i])).is_ok();
            debug_assert!(filled, "slot {i} filled twice");
        };
        std::thread::scope(|s| {
            for _ in 1..workers {
                s.spawn(claim_loop);
            }
            claim_loop();
        });
        let run_nanos = started.elapsed().as_nanos() as u64;

        let assemble_started = Instant::now();
        let out: Vec<Result<R, ItemError<E>>> = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("every claimed slot is filled"))
            .collect();
        self.counters.add(ExecSnapshot {
            jobs: n as u64,
            run_nanos,
            assemble_nanos: assemble_started.elapsed().as_nanos() as u64,
        });
        out
    }

    /// Runs `job(i, &items[i])` for every item and returns the results in
    /// item order — all-or-nothing semantics built on
    /// [`Executor::run_partial`].
    ///
    /// # Errors
    ///
    /// If any job fails, returns the error of the **lowest-indexed**
    /// failing item — the same error a serial run would hit first.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of the lowest-indexed panicking job (use
    /// [`Executor::run_partial`] to survive panics instead).
    pub fn run<T, R, E, F>(&self, items: &[T], job: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send + Sync,
        E: Send + Sync,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        let mut out = Vec::with_capacity(items.len());
        let mut first_err: Option<E> = None;
        for (i, result) in self.run_partial(items, job).into_iter().enumerate() {
            match result {
                Ok(r) => out.push(r),
                Err(ItemError::Failed(e)) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
                Err(ItemError::Panicked(msg)) => {
                    panic!("executor worker panicked on item {i}: {msg}")
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_is_a_no_op() {
        let exec = Executor::new(4);
        let out: Result<Vec<i32>, ()> = exec.run(&[], |_, _: &i32| unreachable!());
        assert_eq!(out.unwrap(), Vec::<i32>::new());
        assert_eq!(exec.counters().snapshot().jobs, 0);
    }

    #[test]
    fn results_arrive_in_item_order_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 4, 8, 16] {
            let exec = Executor::new(threads);
            let out: Vec<usize> = exec
                .run(&items, |i, &x| {
                    assert_eq!(i, x);
                    Ok::<_, ()>(x * x)
                })
                .unwrap();
            let expect: Vec<usize> = items.iter().map(|x| x * x).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn first_error_in_item_order_wins_and_all_jobs_run() {
        let items: Vec<usize> = (0..64).collect();
        let ran = AtomicUsize::new(0);
        let exec = Executor::new(8);
        let out = exec.run(&items, |_, &x| {
            ran.fetch_add(1, Ordering::Relaxed);
            // Items 7 and 21 fail; the serial-first error (7) must win.
            if x == 7 || x == 21 {
                Err(x)
            } else {
                Ok(x)
            }
        });
        assert_eq!(out.unwrap_err(), 7);
        assert_eq!(ran.load(Ordering::Relaxed), 64, "no early cancellation");
    }

    #[test]
    fn counters_accumulate_across_runs() {
        let counters = Arc::new(ExecCounters::new());
        let exec = Executor::with_counters(3, Arc::clone(&counters));
        let before = counters.snapshot();
        exec.run(&[1, 2, 3], |_, &x| Ok::<_, ()>(x)).unwrap();
        exec.run(&[1, 2], |_, &x| Ok::<_, ()>(x)).unwrap();
        let delta = counters.snapshot().since(&before);
        assert_eq!(delta.jobs, 5);
    }

    #[test]
    fn run_partial_reports_every_outcome_in_item_order() {
        let items: Vec<usize> = (0..40).collect();
        let exec = Executor::new(4);
        let out = exec.run_partial(&items, |_, &x| if x % 3 == 0 { Err(x) } else { Ok(x * 10) });
        assert_eq!(out.len(), 40);
        for (i, r) in out.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(*r, Err(ItemError::Failed(i)));
            } else {
                assert_eq!(*r, Ok(i * 10));
            }
        }
    }

    #[test]
    fn run_partial_confines_a_panic_to_its_item() {
        let items: Vec<usize> = (0..16).collect();
        let exec = Executor::new(4);
        let out = exec.run_partial(&items, |_, &x| {
            assert!(x != 5, "item five exploded");
            Ok::<_, ()>(x)
        });
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i),
                Err(ItemError::Panicked(msg)) => {
                    assert_eq!(i, 5);
                    assert!(msg.contains("item five exploded"), "got: {msg}");
                }
                Err(other) => panic!("unexpected error: {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "executor worker panicked on item 3")]
    fn run_repanics_on_the_lowest_panicking_item() {
        let exec = Executor::new(2);
        let items: Vec<usize> = (0..8).collect();
        let _ = exec.run(&items, |_, &x| {
            assert!(x < 3, "boom");
            Ok::<_, ()>(x)
        });
    }

    #[test]
    fn oversubscribed_executor_clamps_workers_to_items() {
        // More threads than items must still run every job exactly once.
        let exec = Executor::new(32);
        let out: Vec<i64> = exec.run(&[10i64, 20], |_, &x| Ok::<_, ()>(-x)).unwrap();
        assert_eq!(out, vec![-10, -20]);
    }
}
