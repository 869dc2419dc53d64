//! Property-based tests on the core invariants: communication patterns must
//! aggregate exactly, the simulator's accounting must be conservative,
//! serialization must round-trip, and the event queue must be a stable
//! priority queue.
//!
//! The harness is hand-rolled: `proptest` is not vendored in this offline
//! build, so each property draws its random cases from the repository's own
//! deterministic [`Pcg64`] stream. Failures print the case seed, which
//! reproduces the exact inputs.

use lambdaml::comm::patterns::{chunk_ranges, reduce, Pattern};
use lambdaml::data::libsvm;
use lambdaml::faas::LifetimeManager;
use lambdaml::linalg::SparseVec;
use lambdaml::sim::{ByteSize, EventQueue, Pcg64, PiecewiseLinear, SimTime};
use lambdaml::storage::{ServiceProfile, StorageChannel};

/// Number of random cases per property.
const CASES: u64 = 64;

/// Deterministic per-case RNGs: case `i` of property `tag` always sees the
/// same stream.
fn cases(tag: u64) -> impl Iterator<Item = (u64, Pcg64)> {
    (0..CASES).map(move |i| {
        let seed = tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ i;
        (seed, Pcg64::new(seed))
    })
}

fn reference_sum(stats: &[Vec<f64>]) -> Vec<f64> {
    let mut out = vec![0.0; stats[0].len()];
    for s in stats {
        for (o, v) in out.iter_mut().zip(s) {
            *o += v;
        }
    }
    out
}

/// Both patterns compute the exact element-wise sum for any worker count,
/// vector length and values.
#[test]
fn patterns_aggregate_exactly() {
    for (seed, mut rng) in cases(1) {
        let w = 1 + rng.index(11);
        let len = 1 + rng.index(199);
        let stats: Vec<Vec<f64>> = (0..w)
            .map(|_| (0..len).map(|_| rng.normal()).collect())
            .collect();
        let expect = reference_sum(&stats);
        for pattern in [Pattern::AllReduce, Pattern::ScatterReduce] {
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let out = reduce(&mut ch, pattern, "p", &stats, ByteSize::of_f64s(len)).unwrap();
            for (a, b) in out.aggregate.iter().zip(&expect) {
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "case {seed}: {pattern:?}: {a} vs {b}"
                );
            }
            assert!(out.duration.as_secs() > 0.0, "case {seed}");
        }
    }
}

/// Chunk ranges always partition [0, len) into w contiguous pieces whose
/// sizes differ by at most one.
#[test]
fn chunk_ranges_partition() {
    for (seed, mut rng) in cases(2) {
        let len = rng.index(10_000);
        let w = 1 + rng.index(63);
        let r = chunk_ranges(len, w);
        assert_eq!(r.len(), w, "case {seed}");
        assert_eq!(r[0].0, 0, "case {seed}");
        assert_eq!(r[w - 1].1, len, "case {seed}");
        let mut min_size = usize::MAX;
        let mut max_size = 0;
        for (i, &(lo, hi)) in r.iter().enumerate() {
            assert!(lo <= hi, "case {seed}");
            if i + 1 < w {
                assert_eq!(hi, r[i + 1].0, "case {seed}");
            }
            min_size = min_size.min(hi - lo);
            max_size = max_size.max(hi - lo);
        }
        assert!(max_size - min_size <= 1, "case {seed}");
    }
}

/// LIBSVM serialization round-trips arbitrary sparse datasets.
#[test]
fn libsvm_roundtrip() {
    const DIM: usize = 500;
    for (seed, mut rng) in cases(3) {
        let n_rows = 1 + rng.index(19);
        let mut svs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n_rows {
            let nnz = 1 + rng.index(19);
            let mut idx = rng.sample_indices(DIM, nnz);
            idx.sort_unstable();
            let pairs: Vec<(u32, f64)> = idx
                .into_iter()
                .map(|i| (i as u32, (rng.index(200) as f64 - 100.0) / 4.0))
                .collect();
            svs.push(SparseVec::from_pairs(pairs));
            labels.push(rng.index(3) as f64 - 1.0);
        }
        let ds =
            lambdaml::data::Dataset::Sparse(lambdaml::data::SparseDataset::new(svs, labels, DIM));
        let text = libsvm::write(&ds);
        let back = libsvm::parse_sparse(&text, DIM).unwrap();
        assert_eq!(back.len(), ds.len(), "case {seed}");
        for i in 0..ds.len() {
            assert_eq!(back.label(i), ds.label(i), "case {seed}");
            if let lambdaml::data::Row::Sparse(orig) = ds.row(i) {
                assert_eq!(back.row(i).indices(), orig.indices(), "case {seed}");
                for (a, b) in back.row(i).values().iter().zip(orig.values()) {
                    assert!((a - b).abs() < 1e-12, "case {seed}: {a} vs {b}");
                }
            }
        }
    }
}

/// Piecewise-linear interpolation is exact at knots and bounded by the knot
/// values inside each segment.
#[test]
fn piecewise_linear_interpolates() {
    for (seed, mut rng) in cases(4) {
        let n_knots = 2 + rng.index(6);
        let knots: Vec<(f64, f64)> = (0..n_knots)
            .map(|i| (i as f64, rng.range(0.0, 1_000.0)))
            .collect();
        let t = rng.uniform();
        let pl = PiecewiseLinear::new(knots.clone());
        for &(x, y) in &knots {
            assert!(
                (pl.eval(x) - y).abs() < 1e-9,
                "case {seed}: knot ({x}, {y})"
            );
        }
        // inside segment [0, 1]
        let v = pl.eval(t);
        let (lo, hi) = (knots[0].1.min(knots[1].1), knots[0].1.max(knots[1].1));
        assert!(
            v >= lo - 1e-9 && v <= hi + 1e-9,
            "case {seed}: {v} outside [{lo}, {hi}]"
        );
    }
}

/// The lifetime manager's wall time always covers the work charged, and
/// re-invocations match the number of 870 s boundaries crossed.
#[test]
fn lifetime_wall_covers_work() {
    for (seed, mut rng) in cases(6) {
        let n_segs = 1 + rng.index(59);
        let mut lm = LifetimeManager::with_overhead(SimTime::secs(3.0));
        let mut wall = 0.0;
        let mut work = 0.0;
        for _ in 0..n_segs {
            let seg = rng.range(0.1, 400.0);
            wall += lm.charge(SimTime::secs(seg)).as_secs();
            work += seg;
        }
        assert!(wall >= work - 1e-9, "case {seed}");
        let expected_rollovers = (work / 870.0).floor() as u32;
        assert!(lm.reinvocations() >= expected_rollovers, "case {seed}");
        assert!(lm.reinvocations() <= expected_rollovers + 1, "case {seed}");
    }
}

/// KMeans sufficient statistics are additive across any split of the rows —
/// the invariant that makes EM distributable.
#[test]
fn kmeans_stats_additive() {
    for (seed, mut rng) in cases(7).take(16) {
        let split = 1 + rng.index(198);
        let data = lambdaml::data::generators::DatasetId::Higgs
            .generate_rows(200, seed)
            .data;
        let km = lambdaml::models::KMeans::init_from_data(&data, 4, seed);
        let rows: Vec<usize> = (0..200).collect();
        let full = km.sufficient_stats(&data, &rows);
        let a = km.sufficient_stats(&data, &rows[..split]);
        let b = km.sufficient_stats(&data, &rows[split..]);
        for i in 0..full.len() {
            assert!(
                (full[i] - (a[i] + b[i])).abs() < 1e-9,
                "case {seed}: stat {i}"
            );
        }
    }
}

/// The event queue pops in nondecreasing time order and breaks time ties in
/// insertion (FIFO) order, under arbitrary interleavings of push and pop —
/// i.e. it behaves exactly like a stable sort by time.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    for (seed, mut rng) in cases(8) {
        let n_ops = 1 + rng.index(200);
        let mut q: EventQueue<u64> = EventQueue::new();
        // Model: the pending set as (time, insertion#) pairs.
        let mut pending: Vec<(f64, u64)> = Vec::new();
        let mut next_id = 0u64;
        let mut last_pop: Option<(f64, u64)> = None;
        for _ in 0..n_ops {
            // Draw times from a small grid so ties are frequent.
            if rng.coin(0.6) || q.is_empty() {
                let t = rng.index(8) as f64;
                q.push(SimTime::secs(t), next_id);
                pending.push((t, next_id));
                next_id += 1;
            } else {
                let (t, id) = q.pop().expect("non-empty");
                // The popped event must be the pending minimum by (time, id).
                let &(et, eid) = pending
                    .iter()
                    .min_by(|a, b| a.partial_cmp(b).unwrap())
                    .unwrap();
                assert_eq!((t.as_secs(), id), (et, eid), "case {seed}");
                pending.retain(|&(_, pid)| pid != eid);
                // Within one drain (no interleaved pushes) pops never go
                // back in time; FIFO ids guard the tie order.
                if let Some((lt, lid)) = last_pop {
                    if lt == et {
                        assert!(lid < eid, "case {seed}: FIFO violated at t={et}");
                    }
                }
                last_pop = Some((et, eid));
            }
        }
        // Drain the rest: must come out fully sorted by (time, insertion#).
        let mut drained = Vec::new();
        while let Some((t, id)) = q.pop() {
            drained.push((t.as_secs(), id));
        }
        let mut expect = pending.clone();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(drained, expect, "case {seed}");
    }
}

/// Pushing a batch and draining is exactly a stable sort by time — the
/// earliest-first analogue of the seed's pair of unit tests, at random scale.
#[test]
fn event_queue_drain_matches_stable_sort() {
    for (seed, mut rng) in cases(9) {
        let n = 1 + rng.index(500);
        let mut q: EventQueue<usize> = EventQueue::new();
        let times: Vec<f64> = (0..n).map(|_| rng.index(16) as f64 * 0.25).collect();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::secs(t), i);
        }
        let mut expect: Vec<(f64, usize)> = times
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, t)| (t, i))
            .collect();
        // Stable sort preserves insertion order among equal times.
        expect.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t.as_secs(), i));
        }
        assert_eq!(got, expect, "case {seed}");
    }
}
