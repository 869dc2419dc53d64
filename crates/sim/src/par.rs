//! Deterministic fan-out over the host's cores — the one place in the
//! workspace that starts threads (`lml-analyze` gates any other).
//!
//! [`parallel_map`] runs a function over a list of items on several
//! threads and hands the results back **in item order**, so a caller's
//! observable output is identical at any thread count:
//!
//! * each item computes from nothing but its own inputs (a sweep cell's
//!   trace and seed, a training worker's replica and partition, an element
//!   range of a sum), so execution order cannot change any result;
//! * results land in a slot keyed by the item's index, and the caller
//!   reads the slots `0..n` — the order a serial loop would use;
//! * side effects (file writes, table rows) happen after the map returns,
//!   on the caller's thread.
//!
//! The callers are `lml-bench`'s sweeps (one item per grid cell),
//! `lml-optim`'s synchronous round (one item per worker, for `produce` and
//! `consume`, a wave of workers at a time in its in-memory form, and one
//! item per element range for that form's fold of each wave),
//! [`sum_in_order`] (one item per element range; under `lml-optim`'s
//! `sum_statistics` and `lml-comm`'s AllReduce merge) and `lml-comm`'s
//! ScatterReduce merge (one item per chunk). The calling
//! thread works as one of the threads, so `t` threads
//! spawn `t − 1` helpers: a caller that only waited would hold its own
//! buffers while one more helper allocated, and on the training workloads
//! that raised peak RSS by about 11%.
//!
//! A fan-out costs spawning, joining and one uncontended lock per item,
//! tens of microseconds per call, so the training callers gate on the work
//! in hand: [`threads_for`] gives one thread below [`FAN_OUT_MIN_F64S`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The fewest `f64`s a training phase must touch before it fans out: a
/// round's statistic length × workers, or a sum's length × addends.
///
/// Calibrated on a 2-vCPU box, where a two-thread fan-out costs 59 µs per
/// call. The cheapest work per `f64` it gates, the in-memory sum of 5
/// statistics, takes 53 µs serially at 2¹⁷ `f64`s (95 µs on two threads)
/// and breaks even between 2¹⁸ and 2¹⁹; `produce` and `consume` do more
/// per `f64`. The smallest job of the benchmark's training workloads,
/// ADMM on RCV1 at 47,236 × 5, must clear the gate, so it sits at 2¹⁷:
/// below it the sum and `consume` are too small to repay a fan-out, and
/// above it a phase that does not pay loses about one fan-out. LR and
/// k-means on Higgs (29 and 10 × 29 `f64`s per worker) stay far below.
pub const FAN_OUT_MIN_F64S: usize = 1 << 17;

/// The host's cores, as the operating system reports them (1 when it
/// cannot say). Read once per process: the query reads cgroup files, and
/// a training round asks on every call.
pub fn available_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Threads for a training phase that touches `f64s` values: every core
/// from [`FAN_OUT_MIN_F64S`] up, one below it.
pub fn threads_for(f64s: usize) -> usize {
    if f64s >= FAN_OUT_MIN_F64S {
        available_threads()
    } else {
        1
    }
}

/// Run `run(index, item)` over every item on up to `threads` threads (the
/// caller's among them) and return the results **in item order**.
///
/// `run` must be a pure function of `(index, item)` — that, plus the
/// index-keyed slots, is the determinism contract: the returned `Vec` is
/// identical for any thread count. With one thread (or one item) the
/// items run inline and no thread is spawned. A panicking item propagates
/// the panic to the caller once every thread has stopped.
pub fn parallel_map<T, R, F>(items: impl IntoIterator<Item = T>, threads: usize, run: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let items = items.into_iter();
    if threads <= 1 {
        return items.enumerate().map(|(i, t)| run(i, t)).collect();
    }
    // Work items and result slots are index-keyed; a shared atomic cursor
    // deals indices out to whichever thread is free. The mutexes are
    // uncontended: each index is claimed once and each slot written once.
    // The cursor publishes nothing (each claimed item sits behind its own
    // mutex, and `scope` joins every thread before the slots are read),
    // so `Relaxed` suffices.
    let work: Vec<Mutex<Option<T>>> = items.map(|t| Mutex::new(Some(t))).collect();
    let n = work.len();
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let drain = || loop {
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
    };
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads.min(n)).map(|_| s.spawn(drain)).collect();
        drain();
        // Join each helper rather than leave it to `scope`, which returns
        // once the closures finish while the threads may still be exiting:
        // a joined helper has handed its malloc arena back before the next
        // fan-out spawns, and its panic reaches the caller with its own
        // payload.
        for h in helpers {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
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

/// Element-wise sum of `addends`, added in slice order: element `j` is
/// `0 + a₀[j] + a₁[j] + …`, the chain of a serial fold.
///
/// The output is split into `threads` contiguous element ranges summed at
/// once. Each range adds the addends in slice order, so every element
/// has the same chain of additions, and the same bits, at any split.
/// Every addend must have the first one's length.
pub fn sum_in_order<A: AsRef<[f64]> + Sync>(addends: &[A], threads: usize) -> Vec<f64> {
    let len = addends.first().map_or(0, |a| a.as_ref().len());
    assert!(
        addends.iter().all(|a| a.as_ref().len() == len),
        "addends of different lengths"
    );
    let mut out = vec![0.0; len];
    let range = len.div_ceil(threads.max(1)).max(1);
    parallel_map(out.chunks_mut(range), threads, |i, chunk| {
        for a in addends {
            let tail = a.as_ref().get(i * range..).unwrap_or_default();
            for (o, v) in chunk.iter_mut().zip(tail) {
                *o += v;
            }
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(items.clone(), 1, |i, x| (i, x * x));
        for t in [2, 3, 8, 64] {
            let par = parallel_map(items.clone(), t, |i, x| (i, x * x));
            assert_eq!(serial, par, "thread count {t} must not reorder results");
        }
        assert_eq!(serial[5], (5, 25));
    }

    #[test]
    fn index_matches_item_position() {
        let out = parallel_map(vec!["a", "b", "c"], 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |_, x| x);
        assert!(out.is_empty());
        assert_eq!(parallel_map(vec![7u32], 4, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn items_may_borrow_mutably() {
        let mut xs = vec![1u64, 2, 3, 4, 5];
        parallel_map(xs.iter_mut(), 3, |i, x| *x *= i as u64 + 10);
        assert_eq!(xs, [10, 22, 36, 52, 70]);
    }

    #[test]
    fn a_panicking_item_reaches_the_caller() {
        for t in [1, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                parallel_map(0..16u32, t, |_, x| {
                    assert!(x != 11, "item 11 fails");
                    x
                })
            });
            assert!(caught.is_err(), "{t} threads");
        }
    }

    #[test]
    fn the_gate_is_a_size_not_a_setting() {
        assert_eq!(threads_for(0), 1);
        assert_eq!(threads_for(FAN_OUT_MIN_F64S - 1), 1);
        assert_eq!(threads_for(FAN_OUT_MIN_F64S), available_threads());
        assert!(available_threads() >= 1);
    }
}
