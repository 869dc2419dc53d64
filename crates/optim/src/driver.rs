//! The one synchronous training loop.
//!
//! [`run_sync`] runs bulk-synchronous rounds over worker replicas built by
//! [`replicas`]: every worker produces its statistic, the caller's hook
//! aggregates them, and every worker consumes the sum. The loop owns epoch
//! accounting, periodic validation, curve recording and stopping; the
//! caller supplies only what infrastructure adds — compute time per round,
//! the aggregation with its communication time, and wall time per round.
//! `lml-core`'s executors call it with their channels and clocks, and the
//! §5.3 epoch estimator (`lml_analytic::estimate_epochs`) with the
//! in-memory sum and no clock at all.
//!
//! The caller picks how a round's statistics are summed ([`Aggregate`]).
//! The in-memory form sums them in the loop, as the serverful backends'
//! AllReduce and parameter server do: the workers produce in waves of
//! `threads` into a pool of `threads` statistics, allocated once per run,
//! and each wave is folded into one aggregate in worker order, every
//! element keeping the chain [`sum_statistics`] gives it. The by-value
//! form hands the round's `n` freshly allocated statistics to a hook, so a
//! storage channel can take them as they are (the FaaS executor's
//! `Bsp::run_round`).
//!
//! A round's workers compute at once, as the paper's Lambdas and VMs do:
//! `produce`, the fold and `consume` fan out over the host's cores through
//! [`lml_sim::par`], which returns results in worker order, so every bit
//! is the one a serial loop computes. Rounds below
//! [`par::FAN_OUT_MIN_F64S`] (statistic length × workers) stay on one
//! thread, where a fan-out would cost more than it saves.
//!
//! [`sum_statistics`]: crate::algorithm::sum_statistics

use crate::algorithm::{Algorithm, WorkerState};
use crate::schedule::LrSchedule;
use crate::stopping::{CurvePoint, LossCurve, StopSpec};
use lml_data::partition::partition_rows;
use lml_data::Dataset;
use lml_models::AnyModel;
use lml_sim::{par, SimTime};

/// One replica of `model` per partition of `rows` training rows, each
/// cycling through mini-batches of `algo`'s size for the longest
/// partition. The first worker holds the longest partition.
pub fn replicas(
    model: &AnyModel,
    rows: usize,
    partitions: usize,
    algo: &Algorithm,
) -> Vec<WorkerState> {
    let batch = algo.batch_size(rows.div_ceil(partitions));
    partition_rows(rows, partitions)
        .iter()
        .map(|p| WorkerState::new(p.worker, model.clone(), p.indices().collect(), batch))
        .collect()
}

/// Inputs common to every synchronous run.
pub struct DriverCtx<'a> {
    pub train: &'a Dataset,
    pub valid: &'a Dataset,
    pub algo: Algorithm,
    pub schedule: LrSchedule,
    pub stop: StopSpec,
    /// Evaluate every this many rounds (≥ 1).
    pub eval_every: usize,
    /// Virtual time already elapsed before the first round (start-up +
    /// data loading).
    pub start_offset: SimTime,
}

/// What the loop reports back.
pub struct DriverOutput {
    pub curve: LossCurve,
    pub rounds: u64,
    pub epochs: f64,
    /// Per-worker computation on the critical path (sum over rounds).
    pub compute: SimTime,
    /// Communication on the critical path (sum over rounds).
    pub comm: SimTime,
    /// Extra wall time injected by the backend per round (lifetime
    /// rollovers) — reported separately so breakdowns can attribute it.
    pub overhead: SimTime,
    pub converged: bool,
    pub final_model: AnyModel,
}

/// The per-round aggregation hook: `(round, epoch, stats)` → element-wise
/// sum and communication time, or the caller's error `E`. It takes the
/// round's statistics by value.
type CommRoundFn<'a, E> =
    dyn FnMut(u64, usize, Vec<Vec<f64>>) -> Result<(Vec<f64>, SimTime), E> + 'a;

/// How [`run_sync`] turns a round's statistics into the sum every worker
/// consumes.
pub enum Aggregate<'a, E> {
    /// Sum in memory, in worker order, with the bits of
    /// [`sum_statistics`](crate::algorithm::sum_statistics); every round
    /// takes this communication time. The loop allocates one statistic per
    /// thread and one aggregate per run, not `n` statistics per round.
    InMemory(SimTime),
    /// Hand the round's `n` statistics to the hook by value; its error
    /// ends the run.
    ByValue(&'a mut CommRoundFn<'a, E>),
}

/// Run the synchronous loop.
///
/// * `compute_time_of(max_examples)` — critical-path compute time of one
///   round in which the busiest worker touched `max_examples` *sample*
///   rows (the hook applies the paper-scale conversion).
/// * `aggregate` — how each round's statistics are summed, and the
///   communication time that takes.
/// * `wall_of_round(t)` — wall time consumed by a round of busy time `t`
///   (identity for VMs; lifetime rollovers for Lambda workers).
///
/// The curve always ends with a point at the final round, so a run that
/// stops before its first round reports the untrained model's loss.
pub fn run_sync<E>(
    ctx: &DriverCtx<'_>,
    workers: Vec<WorkerState>,
    compute_time_of: &dyn Fn(u64) -> SimTime,
    aggregate: Aggregate<'_, E>,
    wall_of_round: &mut dyn FnMut(SimTime) -> SimTime,
) -> Result<DriverOutput, E> {
    let stat_len = workers
        .first()
        .map_or(0, |w| ctx.algo.statistic_len(&w.model));
    let threads = par::threads_for(stat_len * workers.len());
    run_sync_on(
        threads,
        ctx,
        workers,
        compute_time_of,
        aggregate,
        wall_of_round,
    )
}

/// [`run_sync`] with each round's `produce`, in-memory sum and `consume`
/// on `threads` threads.
fn run_sync_on<E>(
    threads: usize,
    ctx: &DriverCtx<'_>,
    mut workers: Vec<WorkerState>,
    compute_time_of: &dyn Fn(u64) -> SimTime,
    mut aggregate: Aggregate<'_, E>,
    wall_of_round: &mut dyn FnMut(SimTime) -> SimTime,
) -> Result<DriverOutput, E> {
    assert!(!workers.is_empty());
    assert!(ctx.eval_every >= 1);
    let n = workers.len();
    let first = &workers[0];
    let (part_len, stat_len) = (first.partition_len(), ctx.algo.statistic_len(&first.model));

    let mut curve = LossCurve::new();
    let mut elapsed = ctx.start_offset;
    let mut epochs = 0.0f64;
    let mut rounds = 0u64;
    let mut compute_total = SimTime::ZERO;
    let mut comm_total = SimTime::ZERO;
    let mut overhead_total = SimTime::ZERO;
    let mut converged = false;
    // The in-memory form's buffers, allocated at the first round.
    let mut waves: Option<WaveSum> = None;

    loop {
        if ctx.stop.exhausted(epochs, elapsed) {
            break;
        }
        let epoch_idx = epochs.floor() as usize;
        let lr = ctx.schedule.lr(epoch_idx);

        // Every worker produces its statistic (real math) and the round's
        // statistics are summed. Every buffer is allocated here, on the
        // calling thread: statistics allocated by short-lived helper
        // threads would sit in their own malloc arenas and raise peak RSS
        // (see `lml_sim::par`).
        let produce =
            |w: &mut WorkerState, s: &mut [f64]| w.produce_into(&ctx.algo, ctx.train, lr, s);
        let by_value;
        let (max_examples, agg, comm_t): (u64, &[f64], SimTime) = match &mut aggregate {
            Aggregate::InMemory(comm_t) => {
                let sum = waves.get_or_insert_with(|| WaveSum::new(threads.min(n), stat_len));
                (sum.round(&mut workers, threads, produce), &sum.agg, *comm_t)
            }
            Aggregate::ByValue(comm_round) => {
                // Real data through the backend's channel.
                let mut stats: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; stat_len]).collect();
                let examples =
                    par::parallel_map(workers.iter_mut().zip(&mut stats), threads, |_, (w, s)| {
                        produce(w, s)
                    });
                let comm_t;
                (by_value, comm_t) = comm_round(rounds, epoch_idx, stats)?;
                (examples.into_iter().fold(0, u64::max), &by_value, comm_t)
            }
        };
        let compute_t = compute_time_of(max_examples);

        // Everyone consumes the sum.
        par::parallel_map(workers.iter_mut(), threads, |_, w| {
            w.consume(&ctx.algo, agg, n, lr)
        });

        rounds += 1;
        epochs += max_examples as f64 / part_len as f64;
        compute_total += compute_t;
        comm_total += comm_t;
        let busy = compute_t + comm_t;
        let wall = wall_of_round(busy);
        debug_assert!(wall.as_secs() >= busy.as_secs() - 1e-9);
        overhead_total += wall - busy;
        elapsed += wall;

        // Periodic validation.
        if rounds.is_multiple_of(ctx.eval_every as u64) {
            let m = workers[0].eval_model(&ctx.algo);
            let loss = m.full_loss(ctx.valid);
            curve.push(CurvePoint {
                time: elapsed,
                epoch: epochs,
                rounds,
                loss,
            });
            if ctx.stop.converged(loss) {
                converged = true;
                break;
            }
        }
    }

    // The final evaluation is a run's high-water mark: free the sum's
    // buffers first.
    drop(waves);
    let final_model = workers[0].eval_model(&ctx.algo).into_owned();
    converged |= curve.close(&ctx.stop, elapsed, epochs, rounds, || {
        final_model.full_loss(ctx.valid)
    });

    Ok(DriverOutput {
        curve,
        rounds,
        epochs,
        compute: compute_total,
        comm: comm_total,
        overhead: overhead_total,
        converged,
        final_model,
    })
}

/// The in-memory sum's buffers for one run: a pool of one statistic per
/// thread, and the aggregate.
struct WaveSum {
    /// Zeroed between waves, as `produce_into` expects.
    pool: Vec<Vec<f64>>,
    agg: Vec<f64>,
}

impl WaveSum {
    fn new(pool: usize, stat_len: usize) -> Self {
        WaveSum {
            pool: (0..pool).map(|_| vec![0.0; stat_len]).collect(),
            agg: vec![0.0; stat_len],
        }
    }

    /// Have every worker `produce(worker, statistic)` into a zeroed pool
    /// buffer, in waves of the pool's size, and sum the statistics into
    /// `agg` in worker order; return the most examples a worker touched.
    ///
    /// After each wave, each of `threads` threads takes one element range
    /// of `agg` and adds the wave's statistics to it one after the other,
    /// zeroing each behind its read. The first wave starts the range from
    /// +0.0, so every element is `((0.0 + s₀) + s₁) + … + sₙ₋₁`, as in
    /// [`sum_statistics`](crate::algorithm::sum_statistics).
    fn round<W: Send>(
        &mut self,
        workers: &mut [W],
        threads: usize,
        produce: impl Fn(&mut W, &mut [f64]) -> u64 + Sync,
    ) -> u64 {
        let range = self.agg.len().div_ceil(threads.max(1)).max(1);
        let mut max_examples = 0;
        for (wave, ws) in workers.chunks_mut(self.pool.len()).enumerate() {
            let k = ws.len();
            let examples = par::parallel_map(
                ws.iter_mut().zip(self.pool.iter_mut()),
                threads,
                |_, (w, s)| produce(w, s),
            );
            max_examples = examples.into_iter().fold(max_examples, u64::max);

            // One item per element range: the aggregate's and each
            // statistic's share of it.
            let mut ranges: Vec<(&mut [f64], Vec<&mut [f64]>)> = self
                .agg
                .chunks_mut(range)
                .map(|out| (out, Vec::with_capacity(k)))
                .collect();
            for s in self.pool.iter_mut().take(k) {
                for ((_, ins), part) in ranges.iter_mut().zip(s.chunks_mut(range)) {
                    ins.push(part);
                }
            }
            par::parallel_map(ranges, threads, |_, (out, ins)| {
                let mut ins = ins.into_iter();
                if wave == 0 {
                    for (o, v) in out.iter_mut().zip(ins.next().into_iter().flatten()) {
                        *o = 0.0 + std::mem::take(v);
                    }
                }
                for s in ins {
                    for (o, v) in out.iter_mut().zip(s) {
                        *o += std::mem::take(v);
                    }
                }
            });
        }
        max_examples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::sum_statistics;
    use lml_data::generators::DatasetId;
    use lml_models::ModelId;
    use std::convert::Infallible;

    fn drive(stop: StopSpec, eval_every: usize) -> DriverOutput {
        let data = DatasetId::Higgs.generate_rows(1_000, 42).data;
        let valid = DatasetId::Higgs.generate_rows(200, 43).data;
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let algo = Algorithm::GaSgd { batch: 100 };
        let workers = replicas(&model, data.len(), 4, &algo);
        let ctx = DriverCtx {
            train: &data,
            valid: &valid,
            algo,
            schedule: LrSchedule::Const(0.5),
            stop,
            eval_every,
            start_offset: SimTime::secs(10.0),
        };
        let Ok(out) = run_sync::<Infallible>(
            &ctx,
            workers,
            &|ex| SimTime::secs(ex as f64 * 0.001),
            Aggregate::InMemory(SimTime::secs(0.5)),
            &mut |t| t,
        );
        out
    }

    #[test]
    fn converges_to_threshold_and_stops() {
        let out = drive(StopSpec::new(0.665, 100), 1);
        assert!(out.converged, "final loss {}", out.curve.final_loss());
        assert!(out.curve.final_loss() <= 0.665);
        assert!(out.epochs < 100.0);
    }

    #[test]
    fn epoch_cap_halts_unconverged_runs() {
        let out = drive(StopSpec::new(0.0, 3), 1);
        assert!(!out.converged);
        // 1000 rows / 4 workers / batch 100 (clamped to 250-row partition)
        // → epochs advance by batch/partition per round; cap at 3 epochs.
        assert!(
            out.epochs >= 3.0 && out.epochs < 3.5,
            "epochs {}",
            out.epochs
        );
    }

    #[test]
    fn time_accounting_adds_up() {
        let out = drive(StopSpec::new(0.0, 2), 1);
        // per round: compute = 100 examples × 1 ms = 0.1 s; comm 0.5 s
        let per_round = 0.6;
        let expected = 10.0 + out.rounds as f64 * per_round;
        let last = out.curve.last().unwrap();
        assert!((last.time.as_secs() - expected).abs() < 1e-6);
        assert!((out.compute.as_secs() - out.rounds as f64 * 0.1).abs() < 1e-9);
        assert!((out.comm.as_secs() - out.rounds as f64 * 0.5).abs() < 1e-9);
        assert_eq!(out.overhead, SimTime::ZERO);
    }

    #[test]
    fn eval_cadence_thins_the_curve() {
        let dense = drive(StopSpec::new(0.0, 2), 1);
        let sparse = drive(StopSpec::new(0.0, 2), 5);
        assert!(sparse.curve.points().len() < dense.curve.points().len());
        // but both end with a final point at the same round count
        assert_eq!(
            dense.curve.last().unwrap().rounds,
            sparse.curve.last().unwrap().rounds
        );
    }

    #[test]
    fn curve_times_are_monotone() {
        let out = drive(StopSpec::new(0.0, 2), 1);
        let pts = out.curve.points();
        for w in pts.windows(2) {
            assert!(w[1].time >= w[0].time);
        }
    }

    /// One line per case: an FNV-1a over the `to_bits` of the final
    /// parameters and of the curve's losses, the rounds, and the epochs'
    /// `to_bits` hex. Every driver case runs 5 workers through the
    /// in-memory form that the IaaS and hybrid backends use, so its waves
    /// and fold are pinned at every thread count; each is above
    /// `par::FAN_OUT_MIN_F64S` except the dense convex ones (no dense
    /// dataset is wide enough), and the test forces the thread count
    /// anyway. The last line pins `sum_statistics` alone (its range split
    /// is checked at 1, 2, 3 and 8 threads in `algorithm.rs`). A mismatch
    /// prints the whole new table.
    const PIN: &str = "\
ga_sgd_dense params=c73df6c9a0666656 losses=1d13ab015f67c83f rounds=11 epochs=4001999999999999
ga_sgd_sparse params=2d877df4d3c41121 losses=ecb8d1e0b95d1a4c rounds=11 epochs=4001999999999999
ma_sgd_dense params=008f10e7ef505c27 losses=73177b9c13d9b3ea rounds=5 epochs=4000000000000000
ma_sgd_sparse params=b90ecb42f91fe109 losses=c7cac599a69c3f15 rounds=5 epochs=4000000000000000
admm_dense params=6b5a348c93266a5b losses=7df80e7be1ba23bc rounds=2 epochs=4000000000000000
admm_sparse params=f95b58f48c0d0671 losses=36bbe4552c94556e rounds=2 epochs=4000000000000000
em_dense params=6bc5b190390b62df losses=e007f98ed788a149 rounds=2 epochs=4000000000000000
em_sparse params=3fa7f58d6cf1ace4 losses=d044e04bcab9d2ae rounds=2 epochs=4000000000000000
sum_statistics sum=e9b4344a9d575bcb
";

    fn fnv(h: u64, bits: u64) -> u64 {
        let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        bits.to_le_bytes().iter().fold(h, fold)
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv_f64s<'a>(xs: impl IntoIterator<Item = &'a f64>) -> u64 {
        xs.into_iter().fold(FNV_OFFSET, |h, x| fnv(h, x.to_bits()))
    }

    /// Train `model` on 200 rows of `data` for two epochs over 5 workers
    /// on `threads` threads and render the pin line.
    fn pin_line(
        threads: usize,
        name: &str,
        data: DatasetId,
        model: ModelId,
        algo: Algorithm,
        lr: f64,
    ) -> String {
        let out = train(threads, data, model, algo, lr, StopSpec::new(0.0, 2));
        let losses = out.curve.points().iter().map(|p| &p.loss);
        format!(
            "{name} params={:016x} losses={:016x} rounds={} epochs={:016x}",
            fnv_f64s(out.final_model.params()),
            fnv_f64s(losses),
            out.rounds,
            out.epochs.to_bits(),
        )
    }

    /// Train `model` on 200 rows of `data` (40-row partitions) over 5
    /// workers on `threads` threads until `stop`, one virtual second a
    /// round, summing in memory.
    fn train(
        threads: usize,
        data: DatasetId,
        model: ModelId,
        algo: Algorithm,
        lr: f64,
        stop: StopSpec,
    ) -> DriverOutput {
        let train = data.generate_rows(200, 42).data;
        let valid = data.generate_rows(40, 43).data;
        let model = model.build(&train, 7);
        let workers = replicas(&model, train.len(), 5, &algo);
        let ctx = DriverCtx {
            train: &train,
            valid: &valid,
            algo,
            schedule: LrSchedule::Const(lr),
            stop,
            eval_every: 1,
            start_offset: SimTime::ZERO,
        };
        let Ok(out) = run_sync_on::<Infallible>(
            threads,
            &ctx,
            workers,
            &|_| SimTime::secs(1.0),
            Aggregate::InMemory(SimTime::ZERO),
            &mut |t| t,
        );
        out
    }

    /// `n` Pcg64 statistics of `len` values, each a normal deviate scaled
    /// by 2^-15 … 2^15.
    fn statistics(seed: u64, n: usize, len: usize) -> Vec<Vec<f64>> {
        let mut rng = lml_sim::Pcg64::new(seed);
        (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| rng.normal() * 2f64.powi(rng.below(31) as i32 - 15))
                    .collect()
            })
            .collect()
    }

    /// The sum of 5 statistics of 200,003 values (not a multiple of 2, 3
    /// or 8).
    fn sum_line() -> String {
        let sum = sum_statistics(&statistics(42, 5, 200_003));
        format!("sum_statistics sum={:016x}", fnv_f64s(&sum))
    }

    /// The in-memory form's waves and fold put every bit where
    /// `sum_statistics` puts it, and hand `produce` a zeroed buffer every
    /// time: two rounds per case through one pool, at lengths 7 and
    /// 200,003 (not multiples of 2, 3 or 8), with 1, 2, 3, 5, 10 and 11
    /// statistics on 1, 2, 3 and 8 threads. The first round scatters −0.0
    /// over Pcg64 statistics, with every fifth element −0.0 in all of them;
    /// in the second, statistic 0 is all −0.0, so a lone one sums to +0.0.
    #[test]
    fn the_wave_fold_has_the_bits_of_sum_statistics() {
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [7, 200_003] {
            for n in [1, 2, 3, 5, 10, 11] {
                let mut first = statistics(1, n, len);
                for (k, s) in first.iter_mut().enumerate() {
                    for (j, x) in s.iter_mut().enumerate() {
                        if j % 3 == k % 3 || j % 5 == 0 {
                            *x = -0.0;
                        }
                    }
                }
                let mut second = statistics(2, n, len);
                if let Some(s) = second.first_mut() {
                    s.fill(-0.0);
                }
                for threads in [1, 2, 3, 8] {
                    let mut sum = WaveSum::new(threads.min(n), len);
                    for (round, stats) in [&first, &second].into_iter().enumerate() {
                        let mut workers: Vec<&[f64]> = stats.iter().map(Vec::as_slice).collect();
                        sum.round(&mut workers, threads, |w, s| {
                            assert!(s.iter().all(|x| x.to_bits() == 0), "a stale pool buffer");
                            s.copy_from_slice(w);
                            1
                        });
                        let case = format!(
                            "length {len}, {n} statistics, {threads} threads, round {round}"
                        );
                        assert!(
                            bits(&sum.agg) == bits(&sum_statistics(stats)),
                            "{case}: a bit moved"
                        );
                    }
                    if n == 1 {
                        assert!(
                            sum.agg.iter().all(|x| x.to_bits() == 0),
                            "−0.0 alone must sum to +0.0"
                        );
                    }
                    assert!(
                        sum.pool.iter().flatten().all(|x| x.to_bits() == 0),
                        "the pool ends zeroed"
                    );
                }
            }
        }
    }

    fn pin_table(threads: usize) -> String {
        let lr = ModelId::Lr { l2: 0.0 };
        let ga = Algorithm::GaSgd { batch: 8 };
        let ma = Algorithm::MaSgd {
            batch: 8,
            local_iters: 2,
        };
        let admm = Algorithm::Admm {
            rho: 0.1,
            local_scans: 1,
            batch: 8,
        };
        let km = |k| ModelId::KMeans { k };
        let (cifar, rcv1, yfcc) = (DatasetId::Cifar10, DatasetId::Rcv1, DatasetId::Yfcc100m);
        let lines = [
            pin_line(threads, "ga_sgd_dense", cifar, ModelId::MobileNet, ga, 0.1),
            pin_line(threads, "ga_sgd_sparse", rcv1, lr, ga, 0.5),
            pin_line(threads, "ma_sgd_dense", cifar, ModelId::MobileNet, ma, 0.1),
            pin_line(threads, "ma_sgd_sparse", rcv1, lr, ma, 0.5),
            pin_line(threads, "admm_dense", yfcc, lr, admm, 0.3),
            pin_line(threads, "admm_sparse", rcv1, lr, admm, 0.3),
            pin_line(threads, "em_dense", yfcc, km(10), Algorithm::Em, 0.0),
            pin_line(threads, "em_sparse", rcv1, km(3), Algorithm::Em, 0.0),
            sum_line(),
        ];
        lines.iter().map(|l| format!("{l}\n")).collect()
    }

    /// The stop rule as it behaves: the loop checks the epoch cap before
    /// each round and counts a round's epochs after it, so a run stops at
    /// the first round boundary at or past the cap (up to one round over),
    /// and only a loss at or below the target stops it early — a NaN loss
    /// never does. One line per case: `epochs`, `rounds` and `converged`,
    /// then the last curve point's epoch, rounds, time and loss (`f64`s as
    /// `to_bits` hex, epochs also in decimal). Every case trains on
    /// YFCC100M rows in 40-row partitions, so a round of `b` examples
    /// advances `b / 40` epochs; each runs at a cap its round divides and
    /// at one it does not, except EM, whose round is always one epoch. Ten
    /// rounds of 0.2 epochs sum to just below 2, so that case runs an
    /// eleventh. A mismatch prints the whole new table.
    const STOP_PIN: &str = "\
GA-SGD, 0.75 epochs a round, cap 3: epochs=4008000000000000 (3) rounds=4 converged=false last=[epoch 4008000000000000 rounds 4 time 4010000000000000 loss 3fdd80a9eaef13c3]
GA-SGD, 0.75 epochs a round, cap 2: epochs=4002000000000000 (2.25) rounds=3 converged=false last=[epoch 4002000000000000 rounds 3 time 4008000000000000 loss 3fc9b14dce2f457e]
MA-SGD, 0.75 epochs a round, cap 3: epochs=4008000000000000 (3) rounds=4 converged=false last=[epoch 4008000000000000 rounds 4 time 4010000000000000 loss 3fb1b677293e2c0b]
MA-SGD, 0.75 epochs a round, cap 2: epochs=4002000000000000 (2.25) rounds=3 converged=false last=[epoch 4002000000000000 rounds 3 time 4008000000000000 loss 3ff21108470b5417]
ADMM, 1 scan, 1.5 epochs a round, cap 3: epochs=4008000000000000 (3) rounds=2 converged=false last=[epoch 4008000000000000 rounds 2 time 4000000000000000 loss 3fd67d9b7281cb6a]
ADMM, 1 scan, 1.5 epochs a round, cap 2: epochs=4008000000000000 (3) rounds=2 converged=false last=[epoch 4008000000000000 rounds 2 time 4000000000000000 loss 3fd67d9b7281cb6a]
ADMM, 10 scans, 10 epochs a round, cap 10: epochs=4024000000000000 (10) rounds=1 converged=false last=[epoch 4024000000000000 rounds 1 time 3ff0000000000000 loss 3fcfd57d81630fba]
ADMM, 10 scans, 10 epochs a round, cap 5: epochs=4024000000000000 (10) rounds=1 converged=false last=[epoch 4024000000000000 rounds 1 time 3ff0000000000000 loss 3fcfd57d81630fba]
ADMM, 10 scans, 10 epochs a round, cap 12: epochs=4034000000000000 (20) rounds=2 converged=false last=[epoch 4034000000000000 rounds 2 time 4000000000000000 loss 3fd03e7d5fa74e9e]
EM, 1 epoch a round, cap 3: epochs=4008000000000000 (3) rounds=3 converged=false last=[epoch 4008000000000000 rounds 3 time 4008000000000000 loss 407547061f9af73a]
GA-SGD, 0.2 epochs a round, cap 2: epochs=4001999999999999 (2.1999999999999997) rounds=11 converged=false last=[epoch 4001999999999999 rounds 11 time 4026000000000000 loss 3fc0a7bee3e1c99f]
GA-SGD, target loss 0.69, cap 50: epochs=3ff8000000000000 (1.5) rounds=2 converged=true last=[epoch 3ff8000000000000 rounds 2 time 4000000000000000 loss 3fe2771f67742c18]
GA-SGD at lr 1e300, target loss 0.69, cap 3: epochs=4008000000000000 (3) rounds=4 converged=false last=[epoch 4008000000000000 rounds 4 time 4010000000000000 loss fff8000000000000]
";

    #[test]
    fn the_stop_rule_matches_its_table() {
        let lr = ModelId::Lr { l2: 0.0 };
        let ga = |batch| Algorithm::GaSgd { batch };
        let ma = Algorithm::MaSgd {
            batch: 10,
            local_iters: 3,
        };
        let admm = |local_scans, batch| Algorithm::Admm {
            rho: 0.1,
            local_scans,
            batch,
        };
        let km = ModelId::KMeans { k: 10 };
        let (ga30, admm1, admm10) = (ga(30), admm(1, 30), admm(10, 8));
        // Each setup at each of its caps, with no target loss.
        let setups: [(&str, ModelId, Algorithm, f64, &[usize]); 6] = [
            ("GA-SGD, 0.75 epochs a round", lr, ga30, 0.3, &[3, 2]),
            ("MA-SGD, 0.75 epochs a round", lr, ma, 0.3, &[3, 2]),
            ("ADMM, 1 scan, 1.5 epochs a round", lr, admm1, 0.3, &[3, 2]),
            (
                "ADMM, 10 scans, 10 epochs a round",
                lr,
                admm10,
                0.3,
                &[10, 5, 12],
            ),
            ("EM, 1 epoch a round", km, Algorithm::Em, 0.0, &[3]),
            ("GA-SGD, 0.2 epochs a round", lr, ga(8), 0.3, &[2]),
        ];
        let capped = setups.iter().flat_map(|&(setup, model, algo, rate, caps)| {
            caps.iter().map(move |&c| {
                let name = format!("{setup}, cap {c}");
                (name, model, algo, rate, StopSpec::new(0.0, c))
            })
        });
        let target = |c| StopSpec::new(0.69, c);
        let targeted = [
            ("GA-SGD, target loss 0.69, cap 50", 0.3, target(50)),
            (
                "GA-SGD at lr 1e300, target loss 0.69, cap 3",
                1e300,
                target(3),
            ),
        ]
        .map(|(name, rate, stop)| (name.to_string(), lr, ga30, rate, stop));
        let table: String = capped
            .chain(targeted)
            .map(|(name, model, algo, rate, stop)| {
                let out = train(1, DatasetId::Yfcc100m, model, algo, rate, stop);
                let last = out.curve.last().map_or("none".to_string(), |p| {
                    format!(
                        "[epoch {:016x} rounds {} time {:016x} loss {:016x}]",
                        p.epoch.to_bits(),
                        p.rounds,
                        p.time.as_secs().to_bits(),
                        p.loss.to_bits(),
                    )
                });
                format!(
                    "{name}: epochs={:016x} ({}) rounds={} converged={} last={last}\n",
                    out.epochs.to_bits(),
                    out.epochs,
                    out.rounds,
                    out.converged,
                )
            })
            .collect();
        assert!(
            table == STOP_PIN,
            "the stop rule moved; new table:\n{table}"
        );
    }

    #[test]
    fn driver_bits_match_the_pin_at_any_thread_count() {
        for threads in [1, 2, 3, 8] {
            let table = pin_table(threads);
            assert!(
                table == PIN,
                "the driver's bits moved at {threads} threads; new table:\n{table}"
            );
        }
    }
}
