//! Communication patterns over a storage channel (Figure 4).
//!
//! Both patterns implement the same contract: given every worker's local
//! statistic, move real blobs through the channel and return the
//! element-wise **sum** plus the round's critical-path time.
//!
//! **Summation order.** Each pattern adds the statistics in a fixed order,
//! and the two orders differ: ScatterReduce merges every chunk in worker
//! order (`0, 1, …, w−1`, like `lml_optim::algorithm::sum_statistics`),
//! AllReduce merges in the order of the leader's LIST, which is
//! lexicographic in the key (`p0, p1, p10, p11, p2, …`). Up to 10 workers
//! the two coincide; from 11 up the aggregates can differ in the last bits
//! (f64 addition is not associative). Both orders are load-bearing — the
//! benchmark goldens pin the 100-worker AllReduce — and
//! `each_pattern_sums_in_its_own_fixed_order` holds them.
//!
//! **Merging on every core.** From [`par::FAN_OUT_MIN_F64S`] values
//! (statistic length × workers) up, the merge fans out through
//! [`lml_sim::par`]: AllReduce splits the aggregate into element ranges,
//! each adding the `w` files in LIST order ([`par::sum_in_order`]), and
//! ScatterReduce merges its `w` chunks at once, each in worker order.
//! Every element gets the same additions in the same order at any thread
//! count, so the bits are those of a serial merge.
//!
//! **Host copies.** Statistics handed over by value ([`Statistics`] for
//! `Vec<Vec<f64>>`, what the training loop passes) move into the channel
//! as they are: each becomes a blob without a copy, and ScatterReduce's
//! chunk files are windows of it. Borrowed statistics are copied once each,
//! into buffers the channel's store recycles from the blobs the previous
//! round cleared (`StorageChannel::blob_of`), and then take the same path.
//! The merged file is always such a recycled copy of the aggregate. None
//! of it is visible to the simulation: requests, wire bytes, billing and
//! every duration depend on the logical sizes only.
//!
//! * **AllReduce** — all workers write; the leader (worker 0) reads all `w`
//!   files, merges, writes one merged file; everyone else reads it back.
//!   The leader's sequential reads make it the bottleneck for large models
//!   (Table 3: 2× slower than ScatterReduce for ResNet50).
//! * **ScatterReduce** — every statistic splits into `w` chunks; worker `i`
//!   merges everyone's chunk `i`; everyone reads the other `w−1` merged
//!   chunks. More requests, but the merge work parallelizes.

use lml_sim::{par, ByteSize, SimTime};
use lml_storage::{Blob, StorageChannel, StorageError};

/// The two MPI-style aggregation patterns LambdaML implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pattern {
    AllReduce,
    ScatterReduce,
}

/// One statistic vector per worker (equal lengths), as a round takes them:
/// owned (`Vec<Vec<f64>>`) or borrowed (`&[Vec<f64>]`, `&Vec<Vec<f64>>`).
pub trait Statistics {
    /// One blob per worker, in worker order: an owned statistic becomes
    /// its blob as it is, a borrowed one is copied into a buffer recycled
    /// by `channel`'s store.
    fn into_blobs(self, channel: &mut StorageChannel) -> Vec<Blob>;
}

impl Statistics for Vec<Vec<f64>> {
    fn into_blobs(self, _: &mut StorageChannel) -> Vec<Blob> {
        self.into_iter().map(Blob::from_vec).collect()
    }
}

impl<T: AsRef<[Vec<f64>]> + ?Sized> Statistics for &T {
    fn into_blobs(self, channel: &mut StorageChannel) -> Vec<Blob> {
        self.as_ref().iter().map(|s| channel.blob_of(s)).collect()
    }
}

/// Outcome of one aggregation round.
#[derive(Debug, Clone)]
pub struct ReduceOutcome {
    /// Element-wise sum of all workers' statistics, added in the pattern's
    /// own order (see the module docs).
    pub aggregate: Vec<f64>,
    /// Critical-path duration of the round (merging + updating phases,
    /// excluding synchronization polling, which the protocol layer adds).
    pub duration: SimTime,
}

/// Chunk boundaries for ScatterReduce: `w` near-equal ranges over `len`.
pub fn chunk_ranges(len: usize, w: usize) -> Vec<(usize, usize)> {
    assert!(w >= 1);
    let base = len / w;
    let extra = len % w;
    let mut out = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

/// Run one aggregation round.
///
/// * `round_key` — unique per (epoch, iteration); object keys derive from it
///   using the paper's naming scheme.
/// * `stats` — one statistic vector per worker (equal lengths); owned ones
///   move into the channel without a copy (see the module docs).
/// * `wire_total` — logical wire size of one full statistic message (may
///   exceed `8·len` for deep-model surrogates).
pub fn reduce(
    channel: &mut StorageChannel,
    pattern: Pattern,
    round_key: &str,
    stats: impl Statistics,
    wire_total: ByteSize,
) -> Result<ReduceOutcome, StorageError> {
    let stats = stats.into_blobs(channel);
    let f64s = stats.first().map_or(0, Blob::len) * stats.len();
    reduce_on(
        par::threads_for(f64s),
        channel,
        pattern,
        round_key,
        stats,
        wire_total,
    )
}

/// [`reduce`] with the merge on `threads` threads.
fn reduce_on(
    threads: usize,
    channel: &mut StorageChannel,
    pattern: Pattern,
    round_key: &str,
    stats: Vec<Blob>,
    wire_total: ByteSize,
) -> Result<ReduceOutcome, StorageError> {
    assert!(!stats.is_empty(), "no workers");
    let len = stats.first().map_or(0, Blob::len);
    assert!(stats.iter().all(|s| s.len() == len), "ragged statistics");
    match pattern {
        // degenerate: ScatterReduce with a single worker is AllReduce
        Pattern::ScatterReduce if stats.len() > 1 => {
            reduce_scatter(threads, channel, round_key, stats, wire_total)
        }
        _ => reduce_allreduce(threads, channel, round_key, stats, wire_total),
    }
}

fn reduce_allreduce(
    threads: usize,
    channel: &mut StorageChannel,
    round_key: &str,
    stats: Vec<Blob>,
    wire_total: ByteSize,
) -> Result<ReduceOutcome, StorageError> {
    let w = stats.len();

    // (1) every worker writes its local statistic — concurrent clients.
    for (i, s) in stats.into_iter().enumerate() {
        channel.put(format!("{round_key}_p{i}"), s.with_wire(wire_total))?;
    }
    let put_phase = channel.parallel_leg(w, wire_total);

    // (2) the leader lists until all w files are present (atomic LIST),
    //     then reads them back-to-back and merges them in listing order.
    let (list_t, keys) = channel.list(&format!("{round_key}_p"));
    debug_assert_eq!(keys.len(), w);
    let mut files = Vec::with_capacity(w);
    for key in &keys {
        files.push(channel.get(key)?.1);
    }
    let aggregate = par::sum_in_order(&files, threads);
    let leader_read_phase = channel.client_leg(w as u64, wire_total);

    // (3) the leader writes the merged file.
    let merged_key = format!("{round_key}_merged");
    let merged = channel.blob_of(&aggregate).with_wire(wire_total);
    channel.put(merged_key.as_str(), merged)?;
    let merged_put = channel.op_time(wire_total);

    // (4) the other w−1 workers read the merged file concurrently.
    for _ in 0..w - 1 {
        let (_t, _blob) = channel.get(&merged_key)?;
    }
    let fan_back = channel.parallel_leg(w.saturating_sub(1), wire_total);

    Ok(ReduceOutcome {
        aggregate,
        duration: put_phase + list_t + leader_read_phase + merged_put + fan_back,
    })
}

fn reduce_scatter(
    threads: usize,
    channel: &mut StorageChannel,
    round_key: &str,
    stats: Vec<Blob>,
    wire_total: ByteSize,
) -> Result<ReduceOutcome, StorageError> {
    let w = stats.len();
    let len = stats.first().map_or(0, Blob::len);
    let ranges = chunk_ranges(len, w);
    let chunk_wire = ByteSize::bytes((wire_total.as_f64() / w as f64).ceil() as u64);

    // (1) every worker splits its statistic and writes w chunk files,
    //     windows of the statistic's blob.
    for (src, whole) in stats.into_iter().enumerate() {
        for (c, &(lo, hi)) in ranges.iter().enumerate() {
            let chunk = whole.slice(lo, hi).with_wire(chunk_wire);
            channel.put(format!("{round_key}_src{src}_c{c}"), chunk)?;
        }
    }
    // client-bound: each client streams w chunks (m total); service sees w
    // concurrent clients with m bytes each.
    let scatter_phase = channel
        .client_leg(w as u64, chunk_wire)
        .max(channel.parallel_leg(w, wire_total));

    // (2) worker c reads everyone's chunk c and merges it, in worker
    //     order, into its range of the one aggregate; the w merges run at
    //     once.
    let mut chunks = Vec::with_capacity(w * w);
    for c in 0..w {
        for src in 0..w {
            chunks.push(channel.get(&format!("{round_key}_src{src}_c{c}"))?.1);
        }
    }
    let mut aggregate = vec![0.0; len];
    let mut unmerged = aggregate.as_mut_slice();
    let ranges_of_aggregate = ranges.iter().map(|&(lo, hi)| {
        let (acc, rest) = std::mem::take(&mut unmerged).split_at_mut(hi - lo);
        unmerged = rest;
        acc
    });
    let merges = ranges_of_aggregate.zip(chunks.chunks(w));
    par::parallel_map(merges, threads, |_, (acc, chunk_c)| {
        for chunk in chunk_c {
            chunk.add_into(acc);
        }
    });
    let gather_wire = ByteSize::bytes((chunk_wire.as_f64() * (w as f64 - 1.0)) as u64);
    let gather_phase = channel
        .client_leg((w - 1) as u64, chunk_wire)
        .max(channel.parallel_leg(w, gather_wire));

    // (3) each worker writes its merged chunk.
    let merged = channel.blob_of(&aggregate);
    for (c, &(lo, hi)) in ranges.iter().enumerate() {
        let chunk = merged.slice(lo, hi).with_wire(chunk_wire);
        channel.put(format!("{round_key}_merged_c{c}"), chunk)?;
    }
    let merged_put_phase = channel
        .op_time(chunk_wire)
        .max(channel.parallel_leg(w, chunk_wire));

    // (4) each worker reads the other w−1 merged chunks to assemble the
    //     full aggregate (every worker does this; it is materialized once,
    //     above).
    for c in 0..w {
        let (_t, _b) = channel.get(&format!("{round_key}_merged_c{c}"))?;
    }
    let fan_back = channel
        .client_leg((w - 1) as u64, chunk_wire)
        .max(channel.parallel_leg(w, gather_wire));

    Ok(ReduceOutcome {
        aggregate,
        duration: scatter_phase + gather_phase + merged_put_phase + fan_back,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_storage::{CacheNode, ServiceProfile};

    fn stats(w: usize, len: usize) -> Vec<Vec<f64>> {
        (0..w)
            .map(|i| (0..len).map(|j| (i * len + j) as f64).collect())
            .collect()
    }

    fn expected_sum(stats: &[Vec<f64>]) -> Vec<f64> {
        let mut out = vec![0.0; stats[0].len()];
        for s in stats {
            for (o, v) in out.iter_mut().zip(s) {
                *o += v;
            }
        }
        out
    }

    #[test]
    fn allreduce_sums_exactly() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let s = stats(5, 17);
        let out = reduce(
            &mut ch,
            Pattern::AllReduce,
            "ep0_it0",
            &s,
            ByteSize::of_f64s(17),
        )
        .unwrap();
        assert_eq!(out.aggregate, expected_sum(&s));
        assert!(out.duration.as_secs() > 0.0);
    }

    #[test]
    fn scatter_reduce_sums_exactly_even_with_ragged_chunks() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        // len=17 not divisible by w=5: chunk sizes 4,4,3,3,3
        let s = stats(5, 17);
        let out = reduce(
            &mut ch,
            Pattern::ScatterReduce,
            "ep0_it0",
            &s,
            ByteSize::of_f64s(17),
        )
        .unwrap();
        assert_eq!(out.aggregate, expected_sum(&s));
    }

    #[test]
    fn patterns_agree_on_the_aggregate() {
        let mut a = StorageChannel::new(ServiceProfile::s3());
        let mut b = StorageChannel::new(ServiceProfile::s3());
        let s = stats(7, 101);
        let wire = ByteSize::of_f64s(101);
        let ra = reduce(&mut a, Pattern::AllReduce, "r", &s, wire).unwrap();
        let rb = reduce(&mut b, Pattern::ScatterReduce, "r", &s, wire).unwrap();
        assert_eq!(ra.aggregate, rb.aggregate);
    }

    #[test]
    fn scatter_beats_allreduce_for_large_models_table3() {
        // Table 3: ResNet50 (89 MB, 10 workers) — AllReduce 17.3 s vs
        // ScatterReduce 8.5 s on S3.
        let mut a = StorageChannel::new(ServiceProfile::s3());
        let mut b = StorageChannel::new(ServiceProfile::s3());
        let s = stats(10, 100);
        let wire = ByteSize::mb(89.0);
        let ra = reduce(&mut a, Pattern::AllReduce, "r", &s, wire).unwrap();
        let rb = reduce(&mut b, Pattern::ScatterReduce, "r", &s, wire).unwrap();
        let ratio = ra.duration.as_secs() / rb.duration.as_secs();
        assert!(ratio > 1.5, "AllReduce/ScatterReduce = {ratio}, want ≈2");
        // absolute numbers in the right ballpark
        assert!(
            (10.0..30.0).contains(&ra.duration.as_secs()),
            "{}",
            ra.duration
        );
        assert!(
            (4.0..15.0).contains(&rb.duration.as_secs()),
            "{}",
            rb.duration
        );
    }

    #[test]
    fn allreduce_beats_scatter_for_tiny_models_table3() {
        // Table 3: LR on Higgs (224 B, 50 workers) — AllReduce 9.2 s vs
        // ScatterReduce 9.8 s: chunking only adds request latency.
        let mut a = StorageChannel::new(ServiceProfile::s3());
        let mut b = StorageChannel::new(ServiceProfile::s3());
        let s = stats(50, 28);
        let wire = ByteSize::bytes(224);
        let ra = reduce(&mut a, Pattern::AllReduce, "r", &s, wire).unwrap();
        let rb = reduce(&mut b, Pattern::ScatterReduce, "r", &s, wire).unwrap();
        assert!(ra.duration < rb.duration);
        assert!(
            (4.0..15.0).contains(&ra.duration.as_secs()),
            "{}",
            ra.duration
        );
    }

    #[test]
    fn dynamodb_rejects_oversized_rounds() {
        let mut ch = StorageChannel::new(ServiceProfile::dynamodb());
        let s = stats(4, 10);
        let err = reduce(&mut ch, Pattern::AllReduce, "r", &s, ByteSize::mb(12.0)).unwrap_err();
        assert!(matches!(err, StorageError::ItemTooLarge { .. }));
        // ...but ScatterReduce chunks of 3MB still exceed 400KB
        let err2 = reduce(
            &mut ch,
            Pattern::ScatterReduce,
            "r2",
            &s,
            ByteSize::mb(12.0),
        )
        .unwrap_err();
        assert!(matches!(err2, StorageError::ItemTooLarge { .. }));
    }

    #[test]
    fn single_worker_round_is_trivial() {
        let mut ch = StorageChannel::new(ServiceProfile::memcached(CacheNode::T3Medium));
        let s = stats(1, 8);
        let out = reduce(
            &mut ch,
            Pattern::ScatterReduce,
            "r",
            &s,
            ByteSize::of_f64s(8),
        )
        .unwrap();
        assert_eq!(out.aggregate, s[0]);
    }

    #[test]
    fn chunk_ranges_cover_and_are_disjoint() {
        for (len, w) in [(17, 5), (100, 10), (3, 5), (1, 1)] {
            let r = chunk_ranges(len, w);
            assert_eq!(r.len(), w);
            assert_eq!(r[0].0, 0);
            assert_eq!(r[w - 1].1, len);
            for win in r.windows(2) {
                assert_eq!(win[0].1, win[1].0);
            }
        }
    }

    #[test]
    fn memcached_round_is_faster_than_s3_round() {
        let mut s3 = StorageChannel::new(ServiceProfile::s3());
        let mut mc = StorageChannel::new(ServiceProfile::memcached(CacheNode::T3Medium));
        let s = stats(10, 28);
        let wire = ByteSize::bytes(224);
        let t_s3 = reduce(&mut s3, Pattern::AllReduce, "r", &s, wire)
            .unwrap()
            .duration;
        let t_mc = reduce(&mut mc, Pattern::AllReduce, "r", &s, wire)
            .unwrap()
            .duration;
        assert!(t_mc.as_secs() * 3.0 < t_s3.as_secs(), "{t_mc} vs {t_s3}");
    }

    /// Values whose sum depends on the order they are added in: magnitudes
    /// spread over 30 binades with mixed signs.
    fn order_sensitive_stats(w: usize, len: usize) -> Vec<Vec<f64>> {
        (0..w)
            .map(|i| {
                (0..len)
                    .map(|j| {
                        let k = (7 * i + 3 * j) % 31;
                        let sign = if (i + j) % 3 == 0 { -1.0 } else { 1.0 };
                        sign * (1.0 + 0.1 * i as f64) * 2f64.powi(k as i32 - 15) / 3.0
                    })
                    .collect()
            })
            .collect()
    }

    /// `0 + s[order[0]] + s[order[1]] + …`, element-wise, as bit patterns.
    fn fold_bits(stats: &[Vec<f64>], order: impl Iterator<Item = usize> + Clone) -> Vec<u64> {
        let len = stats.first().map_or(0, Vec::len);
        (0..len)
            .map(|j| {
                let picked = order.clone().filter_map(|i| stats.get(i)?.get(j));
                picked.fold(0.0, |acc, v| acc + v).to_bits()
            })
            .collect()
    }

    #[test]
    fn each_pattern_sums_in_its_own_fixed_order() -> Result<(), StorageError> {
        // 12 workers: the leader's listing is p0, p1, p10, p11, p2, …, p9.
        let w = 12;
        let s = order_sensitive_stats(w, 40);
        let wire = ByteSize::of_f64s(40);
        let listing = [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9];
        let by_worker = fold_bits(&s, 0..w);
        let by_listing = fold_bits(&s, listing.iter().copied());
        assert_ne!(
            by_worker, by_listing,
            "the values must tell the orders apart"
        );

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let all = reduce(&mut ch, Pattern::AllReduce, "r", &s, wire)?;
        assert_eq!(bits(&all.aggregate), by_listing, "AllReduce: LIST order");
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let scatter = reduce(&mut ch, Pattern::ScatterReduce, "r", &s, wire)?;
        assert_eq!(
            bits(&scatter.aggregate),
            by_worker,
            "ScatterReduce: worker order"
        );
        Ok(())
    }

    #[test]
    fn owned_statistics_move_into_the_store_without_a_copy() -> Result<(), StorageError> {
        let (w, len) = (5, 17);
        for pattern in [Pattern::AllReduce, Pattern::ScatterReduce] {
            let s = stats(w, len);
            let want = expected_sum(&s);
            let ptrs: Vec<*const f64> = s.iter().map(|v| v.as_ptr()).collect();
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let out = reduce(&mut ch, pattern, "r", s, ByteSize::of_f64s(len))?;
            assert_eq!(out.aggregate, want, "{pattern:?}");
            let stored = |key: String| ch.store().get(&key).map(|b| b.data().as_ptr());
            for (i, &ptr) in ptrs.iter().enumerate() {
                if pattern == Pattern::AllReduce {
                    assert_eq!(stored(format!("r_p{i}")), Some(ptr), "r_p{i}");
                    continue;
                }
                for (c, (lo, _)) in chunk_ranges(len, w).into_iter().enumerate() {
                    let key = format!("r_src{i}_c{c}");
                    assert_eq!(stored(key.clone()), Some(ptr.wrapping_add(lo)), "{key}");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn a_cleared_round_leaves_one_spare_buffer_the_merged_files() -> Result<(), StorageError> {
        // Owned statistics are freed when the round is cleared; only the
        // merged file's buffer, the one `blob_of` lent, stays, and the
        // next round's merged file reuses it. Borrowed statistics lend one
        // copy each as well.
        let (w, len) = (10, 17);
        for pattern in [Pattern::AllReduce, Pattern::ScatterReduce] {
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let mut last_merged = None;
            for round in 0..3 {
                let key = format!("ep0_it{round}");
                reduce(&mut ch, pattern, &key, stats(w, len), ByteSize::mb(12.0))?;
                let merged = match pattern {
                    Pattern::AllReduce => format!("{key}_merged"),
                    Pattern::ScatterReduce => format!("{key}_merged_c0"),
                };
                let merged = ch.store().get(&merged).map(|b| b.data().as_ptr());
                if round > 0 {
                    assert_eq!(merged, last_merged, "{pattern:?} round {round}");
                }
                last_merged = merged;
                ch.clear_prefix(&key);
                assert_eq!(ch.store().spare_buffers(), 1, "{pattern:?} round {round}");
            }
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let borrowed = stats(w, len);
            reduce(
                &mut ch,
                pattern,
                "r",
                borrowed.as_slice(),
                ByteSize::mb(12.0),
            )?;
            ch.clear_prefix("r");
            assert_eq!(ch.store().spare_buffers(), w + 1, "{pattern:?} borrowed");
        }
        Ok(())
    }

    #[test]
    fn the_merge_keeps_each_patterns_order_at_any_thread_count() -> Result<(), StorageError> {
        // 12 workers over a statistic past the fan-out gate, whose sums
        // tell LIST order from worker order.
        let (w, len) = (12, par::FAN_OUT_MIN_F64S + 5);
        let s = order_sensitive_stats(w, len);
        let listing = [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9];
        let by_worker = fold_bits(&s, 0..w);
        let by_listing = fold_bits(&s, listing.iter().copied());
        assert_ne!(by_worker, by_listing);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let wire = ByteSize::of_f64s(len);
        for threads in [1, 2, 3, 8] {
            for (pattern, want) in [
                (Pattern::AllReduce, &by_listing),
                (Pattern::ScatterReduce, &by_worker),
            ] {
                let mut ch = StorageChannel::new(ServiceProfile::s3());
                let blobs = s.clone().into_blobs(&mut ch);
                let out = reduce_on(threads, &mut ch, pattern, "r", blobs, wire)?;
                assert!(
                    bits(&out.aggregate) == *want,
                    "{pattern:?} moved a bit at {threads} threads"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn buffer_reuse_never_reaches_the_simulated_s3_numbers() -> Result<(), StorageError> {
        // Literals read off the implementation that cloned every blob: the
        // request counts, the bill, the round's duration and what is left
        // in the store, for 17-element statistics shipped as 12 MB. Three
        // rounds on one channel, so the second and third run on recycled
        // buffers; every round must cost exactly what the first did.
        struct Pin {
            pattern: Pattern,
            w: usize,
            ops: (u64, u64, u64),
            cost_bits: u64,
            secs_bits: u64,
            keys: usize,
        }
        let pins = [
            Pin {
                pattern: Pattern::AllReduce,
                w: 10,
                ops: (11, 19, 1),
                cost_bits: 0x3f11_b88f_2826_8fb7, // $6.76e-5
                secs_bits: 0x400c_28f5_c28f_5c29, // 3.52 s
                keys: 11,
            },
            Pin {
                pattern: Pattern::AllReduce,
                w: 1,
                ops: (2, 1, 1),
                cost_bits: 0x3ef0_25e7_f115_8172, // $1.54e-5
                secs_bits: 0x3feb_f68c_3590_25d0, // 0.8738… s
                keys: 2,
            },
            Pin {
                pattern: Pattern::ScatterReduce,
                w: 10,
                ops: (110, 110, 0),
                cost_bits: 0x3f43_76d5_4973_10ad, // $5.94e-4
                secs_bits: 0x4006_d7d3_e3a4_a0b1, // 2.8553… s
                keys: 110,
            },
            Pin {
                pattern: Pattern::ScatterReduce,
                w: 1,
                ops: (2, 1, 1),
                cost_bits: 0x3ef0_25e7_f115_8172,
                secs_bits: 0x3feb_f68c_3590_25d0,
                keys: 2,
            },
        ];
        for pin in pins {
            let (pattern, w) = (pin.pattern, pin.w);
            let s = stats(w, 17);
            let mut ch = StorageChannel::new(ServiceProfile::s3());
            let mut first_cost = 0.0;
            for round in 0..3u64 {
                let key = format!("ep0_it{round}");
                let out = reduce(&mut ch, pattern, &key, &s, ByteSize::mb(12.0))?;
                assert_eq!(out.aggregate, expected_sum(&s), "{pattern:?} w={w}");
                assert_eq!(
                    out.duration.as_secs().to_bits(),
                    pin.secs_bits,
                    "{pattern:?} w={w}"
                );
                let (puts, gets, lists) = ch.op_counts();
                let n = round + 1;
                assert_eq!(
                    (puts, gets, lists),
                    (pin.ops.0 * n, pin.ops.1 * n, pin.ops.2 * n),
                    "{pattern:?} w={w} round {round}"
                );
                let cost = ch.request_cost().as_usd();
                if round == 0 {
                    assert_eq!(cost.to_bits(), pin.cost_bits, "{pattern:?} w={w}");
                    first_cost = cost;
                } else {
                    assert!(
                        (cost - first_cost * n as f64).abs() < 1e-15,
                        "{pattern:?} w={w}"
                    );
                }

                let mut want: Vec<String> = if pattern == Pattern::AllReduce || w == 1 {
                    (0..w).map(|i| format!("{key}_p{i}")).collect()
                } else {
                    (0..w * w)
                        .map(|n| format!("{key}_src{}_c{}", n / w, n % w))
                        .collect()
                };
                if pattern == Pattern::AllReduce || w == 1 {
                    want.push(format!("{key}_merged"));
                } else {
                    want.extend((0..w).map(|c| format!("{key}_merged_c{c}")));
                }
                want.sort();
                assert_eq!(want.len(), pin.keys);
                assert_eq!(ch.store().list(""), want, "{pattern:?} w={w}");
                assert_eq!(ch.store().stored_bytes(), 12_000_000 * (w as u64 + 1));
                // What `Bsp::run_round` does between rounds.
                assert_eq!(ch.clear_prefix(&key), pin.keys);
            }
        }
        Ok(())
    }
}
