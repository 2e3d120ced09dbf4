//! Index-ordered parallel map for the experiment grid.
//!
//! The paper's evaluation is an embarrassingly parallel grid — workload ×
//! governor × configuration cells, each owning its own seeded plant — so
//! the harness fans cells across up to `jobs` scoped threads
//! ([`std::thread::scope`]; no external thread-pool dependency) and
//! collects results **in cell-index order**.
//! Determinism falls out of two rules:
//!
//! 1. every cell computes from its own index-derived seed, never from
//!    shared mutable state, and
//! 2. reduction and emission always walk the results by cell index.
//!
//! Together they make CSVs and digests bit-identical at any job count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable consulted when no `--jobs` flag is given.
pub const JOBS_ENV: &str = "MIMO_JOBS";

/// Default worker count: the host's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Resolves the worker count for a run: an explicit flag wins, then the
/// `MIMO_JOBS` environment variable, then [`default_jobs`]. Zero is
/// rejected from either source — a grid with no workers cannot run.
///
/// # Errors
///
/// Returns a human-readable message for `0` or a non-integer `MIMO_JOBS`.
pub fn resolve_jobs(flag: Option<usize>) -> Result<usize, String> {
    if let Some(n) = flag {
        if n == 0 {
            return Err(
                "--jobs must be at least 1 (0 would leave the grid with no workers)".into(),
            );
        }
        return Ok(n);
    }
    match std::env::var(JOBS_ENV) {
        Ok(v) => {
            let n: usize = v
                .parse()
                .map_err(|_| format!("{JOBS_ENV} must be a positive integer, got {v:?}"))?;
            if n == 0 {
                return Err(format!("{JOBS_ENV} must be at least 1, got 0"));
            }
            Ok(n)
        }
        Err(_) => Ok(default_jobs()),
    }
}

/// Applies `f` to every item on up to `jobs` threads and returns the
/// results **in item order**, regardless of which thread finished which
/// cell first.
///
/// `jobs <= 1` (or a grid of at most one cell) short-circuits to a plain
/// serial map on the calling thread — same code path the workers run, no
/// thread spawned. Otherwise the caller and `workers − 1` scoped threads
/// take cell *indices* one at a time from a shared counter, so stragglers
/// don't stall idle workers the way static chunking would. Every call
/// owns its threads, so a cell that itself runs a sharded cluster (or
/// another `par_map`) cannot deadlock.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once every thread has
/// joined.
pub fn par_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.max(1).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    // Input cells are taken by value through per-slot mutexes; results
    // land in index-addressed slots, so collection order is the item
    // order no matter the completion order.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let item = slots[i]
            .lock()
            .expect("cell slot poisoned")
            .take()
            .expect("each cell index is claimed exactly once");
        let r = f(i, item);
        *results[i].lock().expect("result slot poisoned") = Some(r);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every cell index was visited")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order_at_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 8, 200] {
            let got = par_map(jobs, items.clone(), |i, x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(got, expected, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_grids() {
        let none: Vec<i32> = par_map(4, Vec::<i32>::new(), |_, x| x);
        assert!(none.is_empty());
        assert_eq!(par_map(4, vec![7], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn results_come_back_in_order_even_when_late_cells_finish_first() {
        // Earlier cells sleep longer, so with >1 worker the completion
        // order inverts the index order; collection must not.
        let items: Vec<u64> = (0..8).collect();
        let got = par_map(4, items, |_, x| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            x
        });
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn nested_par_map_cannot_deadlock() {
        // A cell that itself fans out — a spec grid whose cells run
        // clusters, or a harness calling the harness. Each call spawns
        // and joins its own scoped threads, so the inner maps must
        // complete rather than wait on the outer map's workers.
        let outer = par_map(4, (0..6).collect::<Vec<usize>>(), |_, x| {
            let inner = par_map(4, (0..5).collect::<Vec<usize>>(), |_, y| x * 10 + y);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|x| (0..5).map(|y| x * 10 + y).sum()).collect();
        assert_eq!(outer, expected);
    }

    #[test]
    fn jobs_bound_caps_concurrent_cells() {
        // `--jobs 2` means at most two cells in flight at once, however
        // many cells the grid has.
        let live = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let got = par_map(2, (0..32).collect::<Vec<usize>>(), |_, x| {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(1));
            live.fetch_sub(1, Ordering::SeqCst);
            x
        });
        assert_eq!(got, (0..32).collect::<Vec<usize>>());
        assert!(peak.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn panicking_cell_panics_the_caller() {
        let result = std::panic::catch_unwind(|| {
            par_map(2, (0..8).collect::<Vec<usize>>(), |_, x| {
                assert_ne!(x, 3, "cell 3 fails");
                x
            })
        });
        assert!(result.is_err());
        // Nothing is left behind: the next grid runs normally.
        assert_eq!(par_map(2, vec![1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn fallible_cells_collect_in_order() {
        let results: Vec<Result<usize, String>> = par_map(3, (0..6).collect(), |_, x| {
            if x == 4 {
                Err(format!("cell {x} failed"))
            } else {
                Ok(x)
            }
        });
        let first_err = results.into_iter().collect::<Result<Vec<_>, _>>();
        assert_eq!(first_err.unwrap_err(), "cell 4 failed");
    }

    #[test]
    fn resolve_jobs_validates_flag_and_env() {
        // Explicit flag wins and 0 is rejected.
        assert_eq!(resolve_jobs(Some(3)), Ok(3));
        assert!(resolve_jobs(Some(0)).is_err());
        // Env fallback. Env mutation is process-global: this is the only
        // test that touches MIMO_JOBS, and it restores the prior state.
        let saved = std::env::var(JOBS_ENV).ok();
        std::env::set_var(JOBS_ENV, "5");
        assert_eq!(resolve_jobs(None), Ok(5));
        assert_eq!(resolve_jobs(Some(2)), Ok(2), "flag still wins over env");
        std::env::set_var(JOBS_ENV, "0");
        assert!(resolve_jobs(None).is_err());
        std::env::set_var(JOBS_ENV, "many");
        assert!(resolve_jobs(None).is_err());
        match saved {
            Some(v) => std::env::set_var(JOBS_ENV, v),
            None => std::env::remove_var(JOBS_ENV),
        }
        // With neither flag nor env, the host default applies.
        assert!(resolve_jobs(None).unwrap() >= 1);
    }
}
