//! Minimal event queue for asynchronous-protocol simulation.
//!
//! The synchronous (BSP) executors advance time with barrier maxima and never
//! need an event queue. The asynchronous protocol (S-ASP, §4.5 of the paper)
//! does: workers finish iterations at arbitrary interleaved times and the
//! order in which they read/write the shared model determines staleness.
//! [`EventQueue`] pops the earliest `(time, payload)` pair; ties break on
//! insertion order so simulation stays deterministic.
//!
//! Internally this is a bucketed **calendar queue** (a ladder-queue
//! variant) rather than a binary heap. Pending events live in three
//! tiers, ordered by how soon they pop:
//!
//! 1. `current` — the imminent events, sorted descending so `pop` is a
//!    `Vec::pop` from the tail and `peek` reads the tail.
//! 2. The wheel — fixed-width time buckets, unsorted `Vec`s, so `push`
//!    is an O(1) append.
//! 3. `overflow` — everything past the wheel's horizon, unsorted.
//!
//! When `current` drains, the next non-empty bucket is *adopted*: sorted
//! once, then drained one `pop` at a time. A bucket too coarse for its
//! population (a skewed distribution piling events into one slot) is
//! first **split** — the wheel re-centres on that bucket's sub-range with
//! finer buckets — so no pop ever scans a long unsorted run; this is what
//! keeps heavily clustered workloads (ties, one far outlier stretching
//! the span) from degenerating to O(n) per operation. When the wheel
//! itself drains, it is rebuilt around the overflow's time span with
//! geometry re-chosen from the population, which amortizes to O(1) per
//! event. The pop order is *exactly* the old heap's: earliest
//! `(time, seq)` first, with `f64::total_cmp` time ordering and FIFO
//! sequence tie-breaks — property-tested against a reference
//! `BinaryHeap` over adversarial workloads.

use crate::time::SimTime;

#[derive(Debug)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

/// Descending `(time, seq)` comparison via [`f64::total_cmp`] (a total
/// order on all bit patterns, so `-0.0` sorts before `0.0` exactly as
/// the old heap key did). Sorting `current` with this puts the earliest
/// event — and, among ties, the lowest sequence number — at the tail,
/// where `Vec::pop` takes it.
fn descending<T>(a: &Entry<T>, b: &Entry<T>) -> std::cmp::Ordering {
    b.time.total_cmp(&a.time).then(b.seq.cmp(&a.seq))
}

/// Wheel geometry floor/ceiling: never fewer than 16 buckets (tiny queues
/// stay tiny), never more than 2^16 (the settle sweep over empty buckets
/// stays cheap even for degenerate time distributions).
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;
/// A bucket longer than this is split before being adopted as `current`
/// (unless its times are exact ties, which no width can separate, or the
/// width has already hit float resolution).
const SPLIT: usize = 32;

/// Earliest-first event queue with deterministic FIFO tie-breaking,
/// implemented as a calendar queue (sorted drain buffer + timing wheel +
/// overflow).
#[derive(Debug)]
pub struct EventQueue<T> {
    /// Imminent events, sorted descending — the tail is the global
    /// minimum. Non-empty whenever the queue is (the `peek`/`pop`
    /// invariant). Every pending event earlier than `cur_hi` lives here.
    current: Vec<Entry<T>>,
    /// The wheel: `buckets[i]` covers `[start + i·width, start +
    /// (i+1)·width)`, unsorted. Only indices ≥ `cursor` are populated.
    buckets: Vec<Vec<Entry<T>>>,
    /// Seconds per bucket.
    width: f64,
    /// Time at the left edge of bucket 0.
    start: f64,
    /// First wheel bucket not yet drained into `current`.
    cursor: usize,
    /// Boundary between `current` and the wheel. Pushes earlier than
    /// this insert into `current` (sorted); everything else appends to a
    /// bucket or the overflow. Kept *tight* — the adopted bucket's max
    /// time, not its right edge — so in-flight pushes overwhelmingly
    /// take the O(1) bucket append (landing in `buckets[cursor]` via the
    /// `bucket_of` clamp, sorted later at adoption) instead of the
    /// memmove insert into `current`.
    cur_hi: f64,
    /// Events at or past the wheel horizon, unsorted; redistributed when
    /// the wheel drains.
    overflow: Vec<Entry<T>>,
    len: usize,
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
            current: Vec::new(),
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            width: 1.0,
            start: 0.0,
            cursor: 0,
            cur_hi: 0.0,
            overflow: Vec::new(),
            len: 0,
            seq: 0,
            peak_len: 0,
        }
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.overflow.reserve(additional);
    }

    /// First time at or past the wheel's right edge.
    #[inline]
    fn horizon(&self) -> f64 {
        self.start + self.width * self.buckets.len() as f64
    }

    /// Wheel bucket for a time in `[cur_hi, horizon)`. Clamped on both
    /// sides against float rounding at the edges.
    #[inline]
    fn bucket_of(&self, time: f64) -> usize {
        let raw = ((time - self.start) / self.width) as usize;
        raw.clamp(self.cursor, self.buckets.len() - 1)
    }

    /// Schedule `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        assert!(time.is_valid(), "scheduling at invalid time {time:?}");
        let t = time.as_secs();
        let e = Entry {
            time: t,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.len += 1;
        if self.len > self.peak_len {
            self.peak_len = self.len;
        }
        if self.len == 1 {
            // Empty queue: adopt this event directly and re-anchor the
            // (necessarily empty) wheel at its time.
            self.start = t;
            self.cursor = 0;
            self.cur_hi = t;
            self.current.push(e);
        } else if t.total_cmp(&self.cur_hi).is_lt() {
            // Imminent (or in the past): sorted-insert into the drain
            // buffer. New entries carry the largest sequence number, so
            // among equal times they pop last — i.e. sit leftmost in the
            // descending buffer, before every existing tie.
            let i = self
                .current
                .partition_point(|c| c.time.total_cmp(&t).is_gt());
            self.current.insert(i, e);
        } else if t >= self.horizon() || self.cursor == self.buckets.len() {
            // Past the horizon — or the wheel is fully drained (the last
            // bucket was adopted, so with a tight `cur_hi` there is no
            // bucket left to clamp into).
            self.overflow.push(e);
        } else {
            let b = self.bucket_of(t);
            self.buckets[b].push(e);
        }
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let e = self.current.pop()?;
        self.len -= 1;
        if self.current.is_empty() && self.len > 0 {
            self.settle();
        }
        Some((SimTime::secs(e.time), e.payload))
    }

    /// Time of the earliest pending event.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.current.last().map(|e| SimTime::secs(e.time))
    }

    /// Refill the empty `current` from the wheel (splitting over-full
    /// buckets first) or, when the wheel is drained too, rebuild the
    /// wheel from the overflow. On return `current` is non-empty — the
    /// caller guarantees `len > 0`.
    fn settle(&mut self) {
        debug_assert!(self.current.is_empty() && self.len > 0);
        loop {
            while self.cursor < self.buckets.len() && self.buckets[self.cursor].is_empty() {
                self.cursor += 1;
            }
            if self.cursor == self.buckets.len() {
                // Wheel drained; everything pending lives in the overflow.
                self.rebuild_from_overflow();
                continue;
            }
            let c = self.cursor;
            if self.buckets[c].len() > SPLIT && self.splittable(c) {
                self.split(c);
                continue;
            }
            // Adopt bucket `c`; the swap recycles its allocation.
            std::mem::swap(&mut self.current, &mut self.buckets[c]);
            self.current.sort_unstable_by(descending);
            self.cursor = c + 1;
            // Tight boundary: the adopted population's max, not the
            // bucket's right edge. Anything in later buckets is at or
            // past the next left edge, which is ≥ this max, so the
            // `current`-holds-everything-imminent invariant still holds;
            // pushes landing between the two bounds clamp into
            // `buckets[cursor]` and get sorted at the next adoption.
            self.cur_hi = self.current[0].time;
            return;
        }
    }

    /// Worth splitting? Exact ties cannot be separated by any width, and
    /// a width at float resolution cannot shrink further.
    fn splittable(&self, c: usize) -> bool {
        let t0 = self.buckets[c][0].time;
        let resolution = (self.start.abs() + self.width).max(1.0) * 1e-12;
        self.width > resolution && self.buckets[c].iter().any(|e| e.time != t0)
    }

    /// Re-centre the wheel on over-full bucket `c`'s own sub-range with
    /// proportionally finer buckets; every other wheel entry retreats to
    /// the overflow (it is later than the whole sub-range, so it pops
    /// after everything the new wheel covers).
    fn split(&mut self, c: usize) {
        let fat = std::mem::take(&mut self.buckets[c]);
        let lo = self.start + c as f64 * self.width;
        for b in &mut self.buckets {
            self.overflow.append(b);
        }
        let nb = fat
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        self.width /= nb as f64;
        self.start = lo;
        self.cursor = 0;
        self.cur_hi = lo;
        for e in fat {
            let b = self.bucket_of(e.time);
            self.buckets[b].push(e);
        }
    }

    /// Re-geometry the wheel around the overflow population's time span
    /// (bucket count from its size, width from its span) and move every
    /// entry into it, emptying the overflow.
    fn rebuild_from_overflow(&mut self) {
        debug_assert!(!self.overflow.is_empty(), "settle needs pending events");
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for e in &self.overflow {
            lo = lo.min(e.time);
            hi = hi.max(e.time);
        }
        let nb = self
            .overflow
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        if self.buckets.len() != nb {
            self.buckets.resize_with(nb, Vec::new);
        }
        // Stretch the span slightly so `hi` itself lands inside the
        // horizon; a degenerate span (all one instant) keeps the old
        // width. Skewed populations that pile into one bucket are fixed
        // lazily by `split` when that bucket is reached.
        let span = hi - lo;
        if span > 0.0 {
            self.width = (span * 1.001 / nb as f64).max(f64::MIN_POSITIVE);
        }
        self.start = lo;
        self.cursor = 0;
        self.cur_hi = lo;
        for e in std::mem::take(&mut self.overflow) {
            let b = self.bucket_of(e.time);
            self.buckets[b].push(e);
        }
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
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        // Drain a few so the cursor has moved, then schedule before it.
        q.pop();
        q.pop();
        q.push(SimTime::secs(0.5), 777);
        assert_eq!(q.pop().expect("queue is non-empty").1, 777);
        assert_eq!(q.pop().expect("queue is non-empty").1, 2);
    }

    #[test]
    fn far_future_horizon_wrap_preserves_order() {
        let mut q = EventQueue::new();
        // Way past the initial horizon, then near events.
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

    /// The reference implementation the calendar queue must match
    /// pop-for-pop: the `BinaryHeap` the queue used before the swap.
    struct RefQueue<T> {
        heap: std::collections::BinaryHeap<RefEntry<T>>,
        seq: u64,
    }

    struct RefEntry<T> {
        time: f64,
        seq: u64,
        payload: T,
    }

    impl<T> PartialEq for RefEntry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.time.total_cmp(&other.time).is_eq() && self.seq == other.seq
        }
    }
    impl<T> Eq for RefEntry<T> {}
    impl<T> PartialOrd for RefEntry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for RefEntry<T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reversed: BinaryHeap is a max-heap, we want earliest first.
            other
                .time
                .total_cmp(&self.time)
                .then(other.seq.cmp(&self.seq))
        }
    }

    impl<T> RefQueue<T> {
        fn new() -> Self {
            RefQueue {
                heap: std::collections::BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, time: SimTime, payload: T) {
            self.heap.push(RefEntry {
                time: time.as_secs(),
                seq: self.seq,
                payload,
            });
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, T)> {
            self.heap.pop().map(|e| (SimTime::secs(e.time), e.payload))
        }
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
    /// events, far-future horizon hops, pushes into the past — the
    /// calendar queue pops the exact `(time, seq)` sequence the
    /// reference heap does.
    #[test]
    fn property_pop_order_matches_binary_heap() {
        for seed in 0..20u64 {
            let mut rng = Rng(0xC0FFEE ^ (seed.wrapping_mul(0x9E3779B9)));
            let mut cal: EventQueue<u64> = EventQueue::new();
            let mut reference: RefQueue<u64> = RefQueue::new();
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
                        cal.push(SimTime::secs(t), id);
                        reference.push(SimTime::secs(t), id);
                        id += 1;
                    }
                    // Pop and advance the clock to the popped time.
                    _ => {
                        let a = cal.pop();
                        let b = reference.pop();
                        assert_eq!(
                            a.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p)),
                            b.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p)),
                            "seed {seed}: pop diverged"
                        );
                        if let Some((t, _)) = a {
                            clock = clock.max(t.as_secs());
                        }
                    }
                }
            }
            // Drain: the tails must agree too.
            loop {
                let a = cal.pop();
                let b = reference.pop();
                assert_eq!(
                    a.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p)),
                    b.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p)),
                    "seed {seed}: drain diverged"
                );
                if a.is_none() {
                    break;
                }
            }
            assert_eq!(cal.pushes(), reference.seq);
        }
    }

    /// Burst-of-ties stress: thousands of identical timestamps exercise
    /// the split guard (ties cannot be separated by any bucket width).
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

    /// A tight near-future cluster plus one far outlier: the outlier
    /// stretches the wheel span, piling the cluster into one bucket —
    /// the split path must keep the order exact regardless.
    #[test]
    fn cluster_with_outlier_stays_ordered() {
        let mut q = EventQueue::new();
        let mut reference = RefQueue::new();
        q.push(SimTime::secs(1.0e4), 9_999u64);
        reference.push(SimTime::secs(1.0e4), 9_999u64);
        let mut rng = Rng(3);
        for i in 0..500 {
            let t = 1.0 + rng.below(1_000) as f64 / 1_000.0;
            q.push(SimTime::secs(t), i);
            reference.push(SimTime::secs(t), i);
        }
        loop {
            let a = q.pop();
            let b = reference.pop();
            assert_eq!(
                a.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p)),
                b.as_ref().map(|(t, p)| (t.as_secs().to_bits(), *p))
            );
            if a.is_none() {
                break;
            }
        }
    }
}
