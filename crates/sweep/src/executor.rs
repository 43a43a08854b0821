//! Parallel cell execution over std scoped threads.
//!
//! Workers self-schedule off a shared atomic cursor (dynamic load
//! balancing — a long-running cell never blocks short ones behind it), and
//! results are reassembled by cell index, so the output order is
//! deterministic and independent of scheduling. The calling thread runs
//! one of the workers, so a run nested inside a worker (fig6d's
//! Monte-Carlo inside an engine cell) adds `jobs - 1` threads, not `jobs`.
//! `cargo`'s offline sandbox has no rayon; scoped threads provide the
//! same fan-out with zero dependencies.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` with up to `jobs` workers and returns results in index
/// order. The calling thread is one of the workers, so at most `jobs - 1`
/// threads are spawned. `jobs <= 1` degrades to a plain serial loop (no
/// threads, no locks) — the reference path for determinism tests.
pub fn run_indexed<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_observed(n, jobs, f, |_, _| {})
}

/// [`run_indexed`] plus a completion observer: `observe(i, &result)` is
/// called once per cell *as it finishes* (on the worker thread that
/// computed it, so calls arrive in completion order, not index order).
/// The returned vector is still assembled in index order — observers are
/// for streaming progress, not for assembly.
pub fn run_indexed_observed<T, F, O>(n: usize, jobs: usize, f: F, observe: O) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    O: Fn(usize, &T) + Sync,
{
    if jobs <= 1 || n <= 1 {
        return (0..n)
            .map(|i| {
                let value = f(i);
                observe(i, &value);
                value
            })
            .collect();
    }
    let workers = jobs.min(n);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        let mut local: Vec<(usize, T)> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let value = f(i);
            observe(i, &value);
            local.push((i, value));
        }
        collected.lock().expect("no poisoned workers").extend(local);
    };
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        // The calling thread is the last worker.
        work();
    });
    let mut pairs = collected.into_inner().expect("all workers joined");
    debug_assert_eq!(pairs.len(), n);
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

/// The default worker count: one per available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_serial_in_order_and_content() {
        let f = |i: usize| i * i + 1;
        let serial = run_indexed(257, 1, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(257, jobs, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn unbalanced_work_still_assembles_in_order() {
        // Make early indices slow so late indices finish first.
        let f = |i: usize| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        };
        let out = run_indexed(64, 8, f);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i), vec![0]);
    }

    #[test]
    fn observer_sees_every_cell_exactly_once() {
        for jobs in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let out = run_indexed_observed(
                37,
                jobs,
                |i| i * 2,
                |i, v| seen.lock().unwrap().push((i, *v)),
            );
            assert_eq!(out, (0..37).map(|i| i * 2).collect::<Vec<_>>());
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, (0..37).map(|i| (i, i * 2)).collect::<Vec<_>>());
        }
    }
}
