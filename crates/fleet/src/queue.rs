//! The indexed admission queue behind both platforms' drains.
//!
//! A [`ReadyQueue`] holds the jobs waiting for one platform and answers
//! one question: *which queued job no wider than `cap` does the
//! discipline admit next?* Entries are bucketed by `(group, width)` —
//! the group is the tenant under [`QueueDiscipline::Drr`] and a single
//! group under FIFO/EDF — and each bucket is a min-heap on the
//! discipline's within-group key:
//!
//! | discipline | group  | heap key `(major, minor)`                 |
//! |------------|--------|-------------------------------------------|
//! | FIFO       | one    | `(0, push ticket)` — push order           |
//! | EDF        | one    | `(deadline total-order key, arrival seq)` |
//! | DRR        | tenant | `(0, arrival seq)`                        |
//!
//! A pick is the minimum, over the non-empty buckets no wider than the
//! cap, of `(group's normalised service, major, minor)`. Tickets and seqs
//! are unique, so that is a strict total order and bucket iteration order
//! cannot affect the result. A pick costs one `peek` per non-empty bucket
//! — at most the queue length, usually a handful — instead of a scan of
//! every queued job.
//!
//! **Why a capped pick equals scan-and-skip.** The drains this replaces
//! walked the whole queue in discipline order and skipped every job wider
//! than the idle capacity. A platform start fails iff the job is wider
//! than what is free, free capacity only falls within a drain, and the
//! normalised services only move when a job starts; so the job a scan
//! would start next is exactly the discipline-minimum among the jobs that
//! still fit — which is `pick(free)`. Skipped jobs have no side effects,
//! so not visiting them changes nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use lml_sim::SimTime;

use crate::job::{JobRequest, TenantId};
use crate::scheduler::QueueDiscipline;

struct Bucket<T> {
    group: TenantId,
    width: usize,
    /// Cheapest-first by `(major, minor)`. `minor` is unique within a
    /// queue, so the item never decides an ordering.
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
}

/// What [`ReadyQueue::pick`] found; hand it to [`ReadyQueue::take`] once
/// the job has actually started.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pick<T> {
    pub(crate) item: T,
    bucket: usize,
}

/// One platform's admission queue (see the module docs).
pub(crate) struct ReadyQueue<T> {
    discipline: QueueDiscipline,
    /// `buckets[..live]` are the non-empty buckets, in no particular
    /// order, so a pick never visits more buckets than there are queued
    /// jobs; the tail holds emptied ones, re-labelled by the next new
    /// `(group, width)`. Keeping their heaps allocated is what keeps a
    /// queue that flickers between empty and one job deep allocation-free
    /// (a map that drops emptied buckets measured 10% slower on the
    /// uncongested replay).
    buckets: Vec<Bucket<T>>,
    live: usize,
    len: usize,
    queued_workers: usize,
    /// Pushes so far: the FIFO ticket.
    pushed: u64,
}

/// The `u64` whose unsigned order equals `f64::total_cmp` on the deadline
/// in seconds, with "no deadline" as `+∞` (so it sorts after every finite
/// deadline). Sign-flip transform: negative floats reverse, positives
/// move above them.
fn deadline_key(deadline: Option<SimTime>) -> u64 {
    let bits = deadline.map_or(f64::INFINITY, |d| d.as_secs()).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl<T: Copy + Ord> ReadyQueue<T> {
    pub(crate) fn new(discipline: QueueDiscipline) -> Self {
        ReadyQueue {
            discipline,
            buckets: Vec::new(),
            live: 0,
            len: 0,
            queued_workers: 0,
            pushed: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of the queued jobs' widths.
    pub(crate) fn queued_workers(&self) -> usize {
        self.queued_workers
    }

    /// Every queued item, in no particular order.
    pub(crate) fn items(&self) -> impl Iterator<Item = T> + '_ {
        self.buckets
            .iter()
            .flat_map(|b| b.heap.iter().map(|&Reverse((_, _, item))| item))
    }

    /// Enqueue `job` (the queue reads its tenant, width and deadline).
    /// `seq` is its arrival sequence number — unique, but *not* monotone
    /// over pushes: budget releases and the spot fallback enqueue old
    /// jobs behind newer ones.
    pub(crate) fn push(&mut self, item: T, job: &JobRequest, seq: u64) {
        let width = job.workers;
        let (group, major, minor) = match self.discipline {
            QueueDiscipline::Fifo => (0, 0, self.pushed),
            QueueDiscipline::Edf => (0, deadline_key(job.deadline), seq),
            QueueDiscipline::Drr => (job.tenant, 0, seq),
        };
        self.pushed += 1;
        self.len += 1;
        self.queued_workers += width;
        let found = self
            .buckets
            .iter()
            .take(self.live)
            .position(|b| b.group == group && b.width == width);
        let at = found.unwrap_or(self.live);
        if found.is_none() {
            // A new bucket: re-label an emptied one if there is one.
            if self.live == self.buckets.len() {
                self.buckets.push(Bucket {
                    group,
                    width,
                    heap: BinaryHeap::new(),
                });
            }
            self.live += 1;
        }
        if let Some(b) = self.buckets.get_mut(at) {
            b.group = group;
            b.width = width;
            b.heap.push(Reverse((major, minor, item)));
        }
    }

    /// The queued job no wider than `cap` that the discipline admits
    /// next, or `None` if nothing that narrow is queued. `norm(tenant)`
    /// is the tenant's weighted service so far; it is only consulted
    /// under DRR, once per non-empty bucket.
    pub(crate) fn pick(
        &self,
        cap: usize,
        mut norm: impl FnMut(TenantId) -> f64,
    ) -> Option<Pick<T>> {
        let drr = self.discipline == QueueDiscipline::Drr;
        self.buckets
            .iter()
            .take(self.live)
            .enumerate()
            .filter(|(_, b)| b.width <= cap)
            .filter_map(|(bucket, b)| {
                let &Reverse((major, minor, item)) = b.heap.peek()?;
                let service = if drr { norm(b.group) } else { 0.0 };
                Some((service, (major, minor), Pick { item, bucket }))
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, _, pick)| pick)
    }

    /// Dequeue the job a [`pick`](Self::pick) returned. Nothing may have
    /// been pushed or taken in between.
    pub(crate) fn take(&mut self, pick: Pick<T>) {
        let Some(b) = self.buckets.get_mut(pick.bucket) else {
            debug_assert!(false, "take() of a pick from another queue");
            return;
        };
        let popped = b.heap.pop().map(|Reverse((_, _, item))| item);
        debug_assert!(popped == Some(pick.item), "take() of a stale pick");
        self.len -= 1;
        self.queued_workers -= b.width;
        if b.heap.is_empty() {
            self.live -= 1;
            self.buckets.swap(pick.bucket, self.live);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobClass;
    use crate::scheduler::{FleetView, Route, Scheduler};
    use crate::sim::{simulate, FleetConfig};
    use crate::workload::{ArrivalProcess, JobMix, TenantSpec, Trace};
    use lml_sim::Pcg64;

    /// One queued job as the reference model sees it.
    #[derive(Debug, Clone, Copy)]
    struct Entry {
        item: u32,
        deadline: Option<SimTime>,
        tenant: TenantId,
        width: usize,
        seq: u64,
    }

    /// The linear-scan comparator `ReadyQueue` replaced, verbatim: the
    /// position in `q` (push order) of the job the discipline admits next.
    fn pick_pos(
        discipline: QueueDiscipline,
        q: &[Entry],
        norm: impl Fn(TenantId) -> f64,
    ) -> Option<usize> {
        if q.is_empty() {
            return None;
        }
        match discipline {
            QueueDiscipline::Fifo => Some(0),
            QueueDiscipline::Edf => q
                .iter()
                .enumerate()
                .min_by(|&(_, a), &(_, b)| {
                    let da = a.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    let db = b.deadline.map_or(f64::INFINITY, |d| d.as_secs());
                    da.total_cmp(&db).then(a.seq.cmp(&b.seq))
                })
                .map(|(pos, _)| pos),
            QueueDiscipline::Drr => q
                .iter()
                .enumerate()
                .min_by(|&(_, a), &(_, b)| {
                    norm(a.tenant)
                        .total_cmp(&norm(b.tenant))
                        .then(a.seq.cmp(&b.seq))
                })
                .map(|(pos, _)| pos),
        }
    }

    /// The old backfill drain's walk: visit jobs in pick order, set aside
    /// each one wider than `cap`, stop at the first that fits. Returns its
    /// position in `q`.
    fn scan_and_skip(
        discipline: QueueDiscipline,
        q: &[Entry],
        cap: usize,
        norm: impl Fn(TenantId) -> f64,
    ) -> Option<usize> {
        let mut pending: Vec<(usize, Entry)> = q.iter().copied().enumerate().collect();
        loop {
            let entries: Vec<Entry> = pending.iter().map(|&(_, e)| e).collect();
            let (pos, e) = pending.remove(pick_pos(discipline, &entries, &norm)?);
            if e.width <= cap {
                return Some(pos);
            }
        }
    }

    #[test]
    fn deadline_key_orders_like_total_cmp() {
        let values = [
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            3.0e9,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let key = |v: f64| deadline_key(Some(SimTime::secs(v)));
        for a in values {
            for b in values {
                assert_eq!(key(a).cmp(&key(b)), a.total_cmp(&b), "{a} vs {b}");
            }
        }
        assert_eq!(deadline_key(None), key(f64::INFINITY), "no deadline = +inf");
    }

    fn choose<T: Copy>(rng: &mut Pcg64, xs: &[T]) -> T {
        xs[rng.index(xs.len())]
    }

    /// Differential oracle: random interleavings of push / strict pick /
    /// capped pick / service credit, under every discipline, must pop the
    /// same handles as the linear scans — element for element.
    #[test]
    fn ready_queue_matches_the_linear_scan_reference() {
        const WEIGHTS: [f64; 4] = [1.0, 2.0, 0.5, 3.0];
        const TENANTS: [TenantId; 4] = [0, 1, 2, 3];
        const WIDTHS: [usize; 5] = [1, 2, 5, 10, 100];
        const CAPS: [usize; 7] = [0, 1, 3, 5, 10, 99, 100];
        const DEADLINES: [Option<f64>; 5] = [None, Some(10.0), Some(10.0), Some(250.0), Some(0.0)];
        for discipline in [
            QueueDiscipline::Fifo,
            QueueDiscipline::Edf,
            QueueDiscipline::Drr,
        ] {
            for case in 0..48u64 {
                let seed = 0x51ed_270b ^ (case << 8) ^ discipline as u64;
                let mut rng = Pcg64::new(seed);
                // Unique seqs handed out in shuffled order, so late pushes
                // carry early seqs (budget releases, spot fallback).
                let mut seqs: Vec<u64> = (0..400).collect();
                rng.shuffle(&mut seqs);
                // (weight, service so far) per tenant.
                let mut ledger = WEIGHTS.map(|w| (w, 0.0f64));
                let mut queue = ReadyQueue::new(discipline);
                let mut reference: Vec<Entry> = Vec::new();
                let mut next_item = 0u32;
                let mut popped = 0usize;
                for step in 0..600 {
                    let ctx = format!("{discipline:?} seed {seed:#x} step {step}");
                    let norm = |t: TenantId| {
                        let (weight, service) = ledger[t as usize];
                        service / weight
                    };
                    // What the reference scan chose: (position, entry).
                    let found = |pos: Option<usize>| pos.map(|pos| (pos, reference[pos]));
                    match rng.index(10) {
                        0..=3 => {
                            let Some(seq) = seqs.pop() else { continue };
                            let e = Entry {
                                item: next_item,
                                deadline: choose(&mut rng, &DEADLINES).map(SimTime::secs),
                                tenant: choose(&mut rng, &TENANTS),
                                width: choose(&mut rng, &WIDTHS),
                                seq,
                            };
                            next_item += 1;
                            let job = JobRequest {
                                tenant: e.tenant,
                                deadline: e.deadline,
                                ..JobRequest::new(seq, JobClass::LrHiggs, SimTime::ZERO, e.width)
                            };
                            queue.push(e.item, &job, seq);
                            reference.push(e);
                        }
                        4..=5 => {
                            // Strict pick; the "start" fails one time in three
                            // and the job stays queued.
                            let want = found(pick_pos(discipline, &reference, norm));
                            let got = queue.pick(usize::MAX, norm);
                            assert_eq!(
                                got.map(|p| p.item),
                                want.map(|(_, e)| e.item),
                                "{ctx}: strict"
                            );
                            if let (Some(p), Some((pos, _)), true) = (got, want, rng.index(3) > 0) {
                                queue.take(p);
                                reference.remove(pos);
                                popped += 1;
                            }
                        }
                        6..=8 => {
                            // Capped pick (cap 0 and caps below every queued
                            // width included); a job that fits always starts.
                            let cap = choose(&mut rng, &CAPS);
                            let want = found(scan_and_skip(discipline, &reference, cap, norm));
                            let got = queue.pick(cap, norm);
                            assert_eq!(
                                got.map(|p| p.item),
                                want.map(|(_, e)| e.item),
                                "{ctx}: cap {cap}"
                            );
                            if let (Some(p), Some((pos, _))) = (got, want) {
                                queue.take(p);
                                reference.remove(pos);
                                popped += 1;
                            }
                        }
                        _ => {
                            // Credit in weight multiples, so distinct tenants
                            // land on exactly equal normalised service.
                            let credit = rng.index(3) as f64;
                            if let Some((weight, service)) = ledger.get_mut(rng.index(4)) {
                                *service += *weight * credit;
                            }
                        }
                    }
                    assert_eq!(queue.len(), reference.len(), "{ctx}");
                    assert_eq!(
                        queue.queued_workers(),
                        reference.iter().map(|e| e.width).sum::<usize>(),
                        "{ctx}"
                    );
                }
                let mut left: Vec<u32> = queue.items().collect();
                left.sort_unstable();
                let mut want: Vec<u32> = reference.iter().map(|e| e.item).collect();
                want.sort_unstable();
                assert_eq!(left, want, "{discipline:?} seed {seed:#x}: leftovers");
                assert!(
                    popped > 50,
                    "{discipline:?} seed {seed:#x}: only {popped} pops"
                );
            }
        }
    }

    /// Splits the trace over both platforms by job-id parity (routing
    /// never looks at the queues, so every discipline runs the same jobs
    /// on the same substrate) and counts `tenant_weight` calls.
    struct ParityRouter {
        discipline: QueueDiscipline,
        weight_calls: std::cell::Cell<u64>,
        /// Switch to this discipline after the first routed job.
        switch_to: Option<QueueDiscipline>,
    }

    impl ParityRouter {
        fn new(discipline: QueueDiscipline) -> Self {
            ParityRouter {
                discipline,
                weight_calls: std::cell::Cell::new(0),
                switch_to: None,
            }
        }
    }

    impl Scheduler for ParityRouter {
        fn name(&self) -> &'static str {
            "parity"
        }
        fn route(&mut self, job: &JobRequest, _view: &FleetView) -> Route {
            if let Some(d) = self.switch_to {
                self.discipline = d;
            }
            if job.id.is_multiple_of(2) {
                Route::Faas
            } else {
                Route::Iaas
            }
        }
        fn discipline(&self) -> QueueDiscipline {
            self.discipline
        }
        fn tenant_weight(&self, tenant: TenantId) -> f64 {
            self.weight_calls.set(self.weight_calls.get() + 1);
            1.0 + f64::from(tenant % 3)
        }
    }

    /// A burst that queues nearly the whole trace on a fleet capped far
    /// below its demand (the benchmark's `fleet_deep_queue` shape).
    fn deep_queue(n_jobs: usize, seed: u64) -> (FleetConfig, Trace, TenantSpec) {
        let mut cfg = FleetConfig::default();
        cfg.faas.concurrency_limit = 200;
        cfg.iaas.min_instances = 20;
        cfg.iaas.max_instances = 100;
        let spec = TenantSpec {
            n_tenants: 8,
            deadline_frac: 0.5,
            deadline_slack: 4.0,
        };
        let burst = ArrivalProcess::Burst {
            base_rate: 0.1,
            burst_rate: 20.0,
            period: 600.0,
            duty: 0.5,
        };
        let trace = Trace::generate_multi(burst, &JobMix::default_mix(), &spec, n_jobs, seed);
        (cfg, trace, spec)
    }

    /// The scaling regression guard, in counts rather than seconds: with
    /// the whole trace queued, DRR asks for one weight per non-empty
    /// bucket per pick — not one per comparison of a scan per pick (the
    /// linear scans made ~n³ calls; 2,000 jobs would be billions).
    #[test]
    fn drr_weight_calls_scale_with_picks_not_queue_depth() {
        let n = 2_000;
        let (cfg, trace, spec) = deep_queue(n, 17);
        let mut sched = ParityRouter::new(QueueDiscipline::Drr);
        let m = simulate(&trace, &cfg, &mut sched, 17);
        assert_eq!(m.n_jobs, n);
        assert_eq!(m.rejected_jobs, 0);
        assert!(
            m.queue.p50 > 600.0,
            "the median job must sit out the burst: {}",
            m.queue.p50
        );
        let mut widths: Vec<usize> = trace.jobs.iter().map(|j| j.workers).collect();
        widths.sort_unstable();
        widths.dedup();
        // A pick costs at most one call per (tenant, width) bucket. A
        // drain makes one pick per start plus at most two that start
        // nothing (the unconditional first attempt, the closing `None`),
        // and drains follow arrivals, completions and provisioning — at
        // most three per job.
        let (starts, drains) = (n, 3 * n);
        let bound = spec.n_tenants as usize * widths.len() * (starts + 2 * drains);
        let calls = sched.weight_calls.get() as usize;
        assert!(calls > 0, "DRR must consult the weights");
        assert!(calls <= bound, "{calls} tenant_weight calls > {bound}");
    }

    /// The EDF twin: a 20,000-job deep queue replays inside a normal test
    /// run (the linear scans were quadratic), and reordering admissions
    /// conserves the work — the same jobs run for the same time on the
    /// same substrate as under FIFO.
    #[test]
    fn deep_edf_queue_runs_the_same_work_as_fifo() {
        let n = 20_000;
        let (cfg, trace, _) = deep_queue(n, 23);
        let run = |discipline| {
            let m = simulate(&trace, &cfg, &mut ParityRouter::new(discipline), 23);
            assert_eq!(m.n_jobs, n, "{discipline:?}");
            assert_eq!(m.rejected_jobs, 0, "{discipline:?}");
            let mut work: Vec<(u64, Route, SimTime)> =
                m.records.iter().map(|r| (r.id, r.route, r.run)).collect();
            work.sort_unstable_by_key(|&(id, ..)| id);
            (work, m.deadline_hit_rate())
        };
        let (fifo, fifo_hits) = run(QueueDiscipline::Fifo);
        let (edf, edf_hits) = run(QueueDiscipline::Edf);
        assert_eq!(edf, fifo, "per-job (route, run seconds)");
        assert!(
            edf_hits > fifo_hits,
            "EDF must rescue deadlines FIFO misses: {edf_hits} vs {fifo_hits}"
        );
    }

    /// `Scheduler::discipline` is a per-replay constant; a policy that
    /// changes it mid-replay is caught at the next drain instead of being
    /// ordered by a ledger nobody maintained.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must stay constant for a replay")]
    fn switching_discipline_mid_replay_is_caught() {
        let (cfg, trace, _) = deep_queue(200, 5);
        let mut sched = ParityRouter::new(QueueDiscipline::Fifo);
        sched.switch_to = Some(QueueDiscipline::Drr);
        simulate(&trace, &cfg, &mut sched, 5);
    }
}
