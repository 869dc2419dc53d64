//! Earliest-first event queue for the simulators that interleave events
//! in virtual time.
//!
//! Two callers use it: the fleet simulator's replay loop
//! (`lml_fleet::sim`), which schedules job completions, provisioning,
//! budget windows and gauge ticks, and the asynchronous S-ASP executor
//! (§4.5 of the paper), whose workers finish iterations at interleaved
//! times, so the order in which they read and write the shared model
//! decides staleness. The synchronous (BSP) executors advance time with
//! barrier maxima and never use it.
//!
//! The queue holds in-flight events only: the fleet engine pulls arrivals
//! from its trace on demand, so the deepest fleet workload keeps a few
//! dozen events pending. [`EventQueue`] is a [`BinaryHeap`] keyed on
//! `(time, seq)` and reversed, so the earliest time pops first and ties
//! pop in insertion order. Times compare with [`f64::total_cmp`], a total
//! order in which `-0.0` is earlier than `0.0`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> Ord for Entry<T> {
    /// Reversed, because `BinaryHeap` pops its maximum: the earliest time,
    /// then the lowest sequence number, compares greatest.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl<T> Eq for Entry<T> {}

/// Earliest-first event queue with deterministic FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Pushes so far; the next push's FIFO tie-break.
    seq: u64,
    /// High-water mark of `len` over the queue's lifetime.
    peak_len: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            peak_len: 0,
        }
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(time.is_valid(), "scheduling at invalid time {time:?}");
        self.heap.push(Entry {
            time: time.as_secs(),
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (SimTime::secs(e.time), e.payload))
    }

    /// Time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| SimTime::secs(e.time))
    }

    /// Total pushes over the queue's lifetime (the FIFO tie-break counter).
    /// Lets observers see heap traffic without shadow counting.
    pub fn pushes(&self) -> u64 {
        self.seq
    }

    /// Peak number of pending events over the queue's lifetime — the
    /// queue-depth statistic the fleet engine reports in its `ReplayStats`.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(3.0), "c");
        q.push(SimTime::secs(1.0), "a");
        q.push(SimTime::secs(2.0), "b");
        assert_eq!(q.pop().expect("queue is non-empty").1, "a");
        assert_eq!(q.pop().expect("queue is non-empty").1, "b");
        assert_eq!(q.pop().expect("queue is non-empty").1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(SimTime::secs(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(5.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::secs(5.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(10.0), "late");
        q.push(SimTime::secs(1.0), "early");
        let (t, p) = q.pop().expect("queue is non-empty");
        assert_eq!((t, p), (SimTime::secs(1.0), "early"));
        q.push(SimTime::secs(5.0), "mid");
        assert_eq!(q.pop().expect("queue is non-empty").1, "mid");
        assert_eq!(q.pop().expect("queue is non-empty").1, "late");
    }

    #[test]
    fn push_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::secs(100.0 + i as f64), i);
        }
        // Pop a few, then schedule earlier than everything still pending.
        q.pop();
        q.pop();
        q.push(SimTime::secs(0.5), 777);
        assert_eq!(q.pop().expect("queue is non-empty").1, 777);
        assert_eq!(q.pop().expect("queue is non-empty").1, 2);
    }

    #[test]
    fn far_future_events_keep_their_order() {
        let mut q = EventQueue::new();
        // A far-future event first, then nearer ones.
        q.push(SimTime::secs(1.0e9), "far");
        q.push(SimTime::secs(2.0), "near");
        q.push(SimTime::secs(5.0e8), "mid");
        assert_eq!(q.pop().expect("queue is non-empty").1, "near");
        assert_eq!(q.pop().expect("queue is non-empty").1, "mid");
        assert_eq!(q.pop().expect("queue is non-empty").1, "far");
    }

    #[test]
    fn peak_len_tracks_high_water_mark() {
        let mut q = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.push(SimTime::secs(1.0), ());
        q.push(SimTime::secs(2.0), ());
        q.pop();
        q.push(SimTime::secs(3.0), ());
        assert_eq!(q.peak_len(), 2, "peak was two pending events");
        assert_eq!(q.len(), 2);
    }

    /// The specification every pop is checked against: the pending events,
    /// kept in insertion order and stably sorted by `f64::total_cmp` time,
    /// pop from the front. Times compare as bits, so `-0.0` is not `0.0`.
    #[derive(Default)]
    struct Spec(Vec<(f64, u64)>);

    impl Spec {
        fn push(&mut self, time: f64, payload: u64) {
            self.0.push((time, payload));
        }
        fn pop(&mut self) -> Option<(u64, u64)> {
            self.0.sort_by(|a, b| a.0.total_cmp(&b.0));
            (!self.0.is_empty()).then(|| {
                let (t, p) = self.0.remove(0);
                (t.to_bits(), p)
            })
        }
    }

    fn bits(popped: Option<(SimTime, u64)>) -> Option<(u64, u64)> {
        popped.map(|(t, p)| (t.as_secs().to_bits(), p))
    }

    /// Split-mix style PRNG — deterministic, no external crates.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = self.0;
            (x ^ (x >> 31)).wrapping_mul(0x9E3779B97F4A7C15)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Property: over randomized workloads — heavy ties, zero-delay
    /// events, far-future hops, pushes into the past — every pop and the
    /// final drain take exactly the `(time, payload)` the stable-sort
    /// specification does.
    #[test]
    fn property_pops_follow_a_stable_sort_by_time() {
        for seed in 0..20u64 {
            let mut rng = Rng(0xC0FFEE ^ (seed.wrapping_mul(0x9E3779B9)));
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut spec = Spec::default();
            let mut clock = 0.0f64;
            let mut id = 0u64;
            for _ in 0..2_000 {
                match rng.below(10) {
                    // Push: a zoo of adversarial time patterns.
                    0..=5 => {
                        let t = match rng.below(6) {
                            0 => clock,                                   // zero delay
                            1 => clock + 0.0,                             // tie at now
                            2 => clock + rng.below(1_000) as f64 / 64.0,  // near future
                            3 => clock + 1.0e6 + rng.below(9) as f64,     // far future
                            4 => (clock - rng.below(50) as f64).max(0.0), // the past
                            _ => rng.below(16) as f64,                    // dense ties
                        };
                        q.push(SimTime::secs(t), id);
                        spec.push(t, id);
                        id += 1;
                    }
                    // Pop and advance the clock to the popped time.
                    _ => {
                        let popped = q.pop();
                        assert_eq!(bits(popped), spec.pop(), "seed {seed}: pop diverged");
                        if let Some((t, _)) = popped {
                            clock = clock.max(t.as_secs());
                        }
                    }
                }
            }
            // Drain: the tails must agree too.
            loop {
                let popped = bits(q.pop());
                assert_eq!(popped, spec.pop(), "seed {seed}: drain diverged");
                if popped.is_none() {
                    break;
                }
            }
            assert_eq!(q.pushes(), id);
        }
    }

    /// Burst of ties: thousands of identical timestamps, where only the
    /// insertion sequence decides the order.
    #[test]
    fn massive_tie_burst_stays_fifo() {
        let mut q = EventQueue::new();
        for i in 0..3_000u32 {
            q.push(SimTime::secs(7.0), i);
        }
        for i in 0..3_000u32 {
            assert_eq!(q.pop().expect("queue is non-empty").1, i);
        }
        assert!(q.is_empty());
    }

    /// A tight near-future cluster pushed after one far outlier drains in
    /// exactly the specification's order, the outlier last.
    #[test]
    fn cluster_with_outlier_stays_ordered() {
        let mut q = EventQueue::new();
        let mut spec = Spec::default();
        q.push(SimTime::secs(1.0e4), 9_999u64);
        spec.push(1.0e4, 9_999);
        let mut rng = Rng(3);
        for i in 0..500 {
            let t = 1.0 + rng.below(1_000) as f64 / 1_000.0;
            q.push(SimTime::secs(t), i);
            spec.push(t, i);
        }
        loop {
            let popped = bits(q.pop());
            assert_eq!(popped, spec.pop());
            if popped.is_none() {
                break;
            }
        }
    }

    /// `-0.0` is a valid time, and under `total_cmp` it is earlier than
    /// `+0.0`: it pops first even when pushed second, and keeps its sign.
    #[test]
    fn negative_zero_pops_before_positive_zero() {
        let mut q = EventQueue::new();
        q.push(SimTime::secs(0.0), "positive");
        q.push(SimTime::secs(-0.0), "negative");
        assert_eq!(
            q.peek_time().map(|t| t.as_secs().to_bits()),
            Some((-0.0f64).to_bits())
        );
        let drained: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(t, p)| (t.as_secs().to_bits(), p))
            .collect();
        assert_eq!(
            drained,
            [
                ((-0.0f64).to_bits(), "negative"),
                (0.0f64.to_bits(), "positive")
            ]
        );
    }

    /// `push` refuses NaN, a negative time and `+∞`.
    #[test]
    fn push_panics_on_an_invalid_time() {
        for t in [f64::NAN, -1.0, f64::INFINITY] {
            let pushed = std::panic::catch_unwind(|| EventQueue::new().push(SimTime::secs(t), ()));
            assert!(pushed.is_err(), "push accepted {t}");
        }
    }
}
