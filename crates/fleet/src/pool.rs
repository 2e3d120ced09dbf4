//! The shared persistent worker pool.
//!
//! The fleet runner, the cluster shard loop, and the experiment harness
//! all used to spawn a fresh `std::thread::scope` per run — thread
//! creation and teardown on every `mimo-exp` cell and every cluster
//! window. This module replaces those with one process-wide pool
//! ([`global`]) created on first use and reused for every batch
//! thereafter.
//!
//! # Execution model
//!
//! [`WorkerPool::run`] submits a batch of `n_tasks` index-addressed tasks
//! and **participates**: the calling thread claims and executes tasks
//! alongside the helper threads, so a pool with zero helpers (a
//! single-hardware-thread host) degrades to a plain serial loop with no
//! handoff at all. `run` returns only when every task has completed,
//! which is what makes the lifetime erasure sound: the task closure may
//! borrow the caller's stack freely.
//!
//! # Nested use cannot deadlock
//!
//! Any `run` issued from a thread that is already executing pool work —
//! a helper, or a caller mid-participation — executes the whole batch
//! serially inline on that thread (tracked by a thread-local flag).
//! Nested submissions therefore never wait on pool capacity, so no cycle
//! of waits can form: the spec runner re-running inside a `--jobs` cell,
//! or a sharded cluster run inside a grid cell, is always safe.
//!
//! # Determinism
//!
//! The pool assigns task *indices*, not data: callers index into their
//! own core-ordered tables, and every runtime using the pool reduces
//! results in core/chip order after `run` returns — so which thread ran
//! which index can never reach the science.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};

/// A lifetime-erased pointer to the batch's task closure. Sound to send
/// across threads because [`WorkerPool::run`] does not return until every
/// task has completed (even when a task panics), so the pointee outlives
/// every dereference.
#[derive(Clone, Copy)]
struct TaskPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and `run` keeps it alive until the batch fully drains (see above).
unsafe impl Send for TaskPtr {}
unsafe impl Sync for TaskPtr {}

/// One in-flight batch of index-addressed tasks.
struct Batch {
    task: TaskPtr,
    n_tasks: usize,
    /// Next index to hand out.
    cursor: usize,
    /// Tasks finished (success or panic).
    completed: usize,
    /// Threads currently executing a task of this batch.
    active: usize,
    /// Concurrency bound including the participating caller
    /// ([`WorkerPool::run_bounded`]).
    max_active: usize,
    /// Whether any task panicked; the submitting caller re-raises.
    panicked: bool,
}

struct State {
    batch: Option<Batch>,
}

/// A persistent pool of helper threads executing index-addressed task
/// batches (see the module docs). Pools are `'static` by construction —
/// helpers live for the process — so create dedicated pools only in
/// tests ([`WorkerPool::with_threads`]); production code shares
/// [`global`].
pub struct WorkerPool {
    state: Mutex<State>,
    /// Helpers wait here for a batch.
    work: Condvar,
    /// Callers wait here for batch completion / the batch slot.
    done: Condvar,
    n_helpers: usize,
}

thread_local! {
    /// Set while this thread executes pool work (helper task or caller
    /// participation); nested `run` calls then execute serially inline.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the in-worker flag set, restoring it afterwards (also on
/// unwind, via the guard).
fn with_worker_flag<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let prev = IN_WORKER.with(|w| w.replace(true));
    let _reset = Reset(prev);
    f()
}

impl WorkerPool {
    /// Builds a pool with exactly `helpers` helper threads, leaked to
    /// `'static` (helpers run for the process). Zero helpers is valid:
    /// every batch then runs serially on the submitting thread.
    pub fn with_threads(helpers: usize) -> &'static WorkerPool {
        let pool: &'static WorkerPool = Box::leak(Box::new(WorkerPool {
            state: Mutex::new(State { batch: None }),
            work: Condvar::new(),
            done: Condvar::new(),
            n_helpers: helpers,
        }));
        for i in 0..helpers {
            std::thread::Builder::new()
                .name(format!("mimo-pool-{i}"))
                .spawn(move || pool.helper_loop())
                .expect("spawn pool helper");
        }
        pool
    }

    /// Submits `n_tasks` index-addressed tasks and participates until all
    /// complete. Nested calls from pool-executing threads run serially
    /// inline (see the module docs).
    ///
    /// # Panics
    ///
    /// Re-raises on the calling thread if any task panicked.
    pub fn run(&self, n_tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        self.run_bounded(n_tasks, usize::MAX, f);
    }

    /// Like [`WorkerPool::run`], but with at most `max_workers` threads
    /// (including the participating caller) executing concurrently — the
    /// harness's `--jobs` bound.
    ///
    /// # Panics
    ///
    /// Re-raises on the calling thread if any task panicked.
    pub fn run_bounded(&self, n_tasks: usize, max_workers: usize, f: &(dyn Fn(usize) + Sync)) {
        if n_tasks == 0 {
            return;
        }
        if IN_WORKER.with(|w| w.get()) || max_workers <= 1 || self.n_helpers == 0 {
            // Serial inline: nested submission, an explicit 1-worker
            // bound, or a helperless pool. No locks, no waits — this is
            // what makes nesting structurally deadlock-free.
            for i in 0..n_tasks {
                f(i);
            }
            return;
        }
        // SAFETY: lifetime erasure only — this function does not return
        // until the batch has fully drained, so `f` outlives every use.
        let erased: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(f as *const (dyn Fn(usize) + Sync + '_)) };
        let task = TaskPtr(erased);
        let mut st = self.state.lock().unwrap();
        // One batch in flight at a time; queued submitters wait for the
        // slot. Helpers never wait on this condition, so the slot always
        // frees up.
        while st.batch.is_some() {
            st = self.done.wait(st).unwrap();
        }
        st.batch = Some(Batch {
            task,
            n_tasks,
            cursor: 0,
            completed: 0,
            active: 0,
            max_active: max_workers,
            panicked: false,
        });
        drop(st);
        self.work.notify_all();

        // Participate: claim tasks like any helper would.
        self.drain_batch(erased);

        // Wait for stragglers, then clear the slot and hand it on.
        let mut st = self.state.lock().unwrap();
        while st.batch.as_ref().is_some_and(|b| b.completed < b.n_tasks) {
            st = self.done.wait(st).unwrap();
        }
        let panicked = st.batch.take().is_some_and(|b| b.panicked);
        drop(st);
        self.done.notify_all();
        if panicked {
            panic!("a pool task panicked");
        }
    }

    /// Claims and executes tasks of the current batch until none remain
    /// claimable. The pointer guard keeps a caller from draining a
    /// *different* submitter's batch.
    fn drain_batch(&self, expect: *const (dyn Fn(usize) + Sync)) {
        loop {
            let claimed = {
                let mut st = self.state.lock().unwrap();
                match &mut st.batch {
                    Some(b)
                        if std::ptr::eq(b.task.0, expect)
                            && b.cursor < b.n_tasks
                            && b.active < b.max_active =>
                    {
                        let i = b.cursor;
                        b.cursor += 1;
                        b.active += 1;
                        Some((i, b.task))
                    }
                    _ => None,
                }
            };
            let Some((i, task)) = claimed else { return };
            self.execute(i, task);
        }
    }

    /// Runs one claimed task and retires it, flagging panics and waking
    /// the submitter when the batch drains.
    fn execute(&self, i: usize, task: TaskPtr) {
        // SAFETY: the batch is in flight (we hold an active claim), so
        // the pointee is alive; see `TaskPtr`.
        let f = unsafe { &*task.0 };
        let result = catch_unwind(AssertUnwindSafe(|| with_worker_flag(|| f(i))));
        let mut st = self.state.lock().unwrap();
        if let Some(b) = &mut st.batch {
            b.active -= 1;
            b.completed += 1;
            if result.is_err() {
                b.panicked = true;
            }
            if b.completed == b.n_tasks {
                drop(st);
                self.done.notify_all();
            }
        }
    }

    /// The helper thread body: wait for a batch, claim and run tasks,
    /// repeat forever.
    fn helper_loop(&self) {
        loop {
            let (i, task) = {
                let mut st = self.state.lock().unwrap();
                loop {
                    match &mut st.batch {
                        Some(b) if b.cursor < b.n_tasks && b.active < b.max_active => {
                            let i = b.cursor;
                            b.cursor += 1;
                            b.active += 1;
                            break (i, b.task);
                        }
                        _ => st = self.work.wait(st).unwrap(),
                    }
                }
            };
            self.execute(i, task);
        }
    }

    /// Number of helper threads (the caller adds one more executor).
    pub fn helpers(&self) -> usize {
        self.n_helpers
    }
}

/// The process-wide shared pool: one helper per available hardware thread
/// beyond the caller's, created on first use and reused by every cluster
/// window and harness cell thereafter.
pub fn global() -> &'static WorkerPool {
    static POOL: OnceLock<&'static WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WorkerPool::with_threads(hw.saturating_sub(1))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::with_threads(3);
        let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        pool.run(100, &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn zero_helper_pool_runs_serially() {
        let pool = WorkerPool::with_threads(0);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 45);
    }

    #[test]
    fn nested_runs_cannot_deadlock() {
        // A 2-helper pool with every outer task submitting an inner batch:
        // without the in-worker inline rule this wedges instantly, since
        // the single batch slot is held by the outer run.
        let pool = WorkerPool::with_threads(2);
        let count = AtomicUsize::new(0);
        pool.run(8, &|_| {
            pool.run(8, &|_| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn bounded_run_caps_concurrency() {
        let pool = WorkerPool::with_threads(4);
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        pool.run_bounded(32, 2, &|_| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
        });
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn sequential_batches_reuse_the_pool() {
        let pool = WorkerPool::with_threads(2);
        for round in 0..50 {
            let sum = AtomicUsize::new(0);
            pool.run(round % 7 + 1, &|i| {
                sum.fetch_add(i + 1, Ordering::SeqCst);
            });
            let n = round % 7 + 1;
            assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2);
        }
    }

    #[test]
    fn concurrent_submitters_queue_for_the_slot() {
        let pool = WorkerPool::with_threads(2);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..25 {
                        pool.run(4, &|_| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn task_panic_propagates_to_the_submitter() {
        let pool = WorkerPool::with_threads(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 6);
    }
}
