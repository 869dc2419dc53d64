//! Deterministic parallel sweep engine.
//!
//! Every bench experiment is a grid of independent (config, seed) cells.
//! This module fans the cells across a small hand-rolled scoped threadpool
//! (std-only — no rayon) and hands the results back **in grid-index
//! order**, so a sweep's observable output — table rows and JSON files —
//! is byte-identical however many workers ran it:
//!
//! * each cell computes from nothing but its own inputs (its own trace,
//!   seed, scheduler, and observer), so execution order cannot change any
//!   result;
//! * results land in a slot keyed by the cell's grid index, and the caller
//!   reduces the slots `0..n` — the same order the serial nested loops
//!   used;
//! * all side effects (file writes, table rows) happen in the reduction,
//!   on the caller's thread, never in the cells.
//!
//! The caller picks the worker count (the `lml-bench` CLI takes
//! [`std::thread::available_parallelism`]); `tests/fleet_artifacts.rs`
//! holds every fleet sweep's bytes to one committed manifest at 1, 2 and 8
//! workers. One worker runs the cells inline with no threads spawned at
//! all.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run `run(index, item)` over every item, fanning across `n_workers`
/// threads, and return the results **in item order**.
///
/// `run` must be a pure function of `(index, item)` — that, plus the
/// index-keyed reduction, is the determinism contract: the returned `Vec`
/// is identical for any worker count. With one worker (or one item) the
/// cells run inline on the caller's thread. A panicking cell propagates
/// the panic to the caller once all threads have stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, n_workers: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if n_workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| run(i, t))
            .collect();
    }
    // Work items and result slots are index-keyed; a shared atomic cursor
    // deals indices out to whichever worker is free (work stealing without
    // a queue). Mutexes are uncontended: each index is claimed exactly
    // once and each slot written exactly once.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..n_workers.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = work[i]
                    .lock()
                    .expect("work slot poisoned")
                    .take()
                    .expect("each index is claimed once");
                let r = run(i, item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed index stores a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(items.clone(), 1, |i, x| (i, x * x));
        for w in [2, 3, 8, 64] {
            let par = parallel_map(items.clone(), w, |i, x| (i, x * x));
            assert_eq!(serial, par, "worker count {w} must not reorder results");
        }
        assert_eq!(serial[5], (5, 25));
    }

    #[test]
    fn index_matches_item_position() {
        let out = parallel_map(vec!["a", "b", "c"], 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_grids() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![7u32], 4, |_, x| x + 1), vec![8]);
    }
}
