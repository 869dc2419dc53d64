//! Distributed optimization algorithms (§3.2.1 of the paper).
//!
//! Every algorithm fits one mold, mirroring LambdaML's five-step job loop:
//! each round a worker **produces a statistic** (`Vec<f64>`), the
//! communication layer **sums** statistics across workers, and each worker
//! **consumes the aggregate** to update its local model replica:
//!
//! | Algorithm | statistic | consume |
//! |---|---|---|
//! | GA-SGD | mini-batch gradient | `w ← w − lr·(Σg)/n` |
//! | MA-SGD | local model after `local_iters` steps | `w ← (Σw)/n` |
//! | ADMM | `w_i + u_i` after local sub-solve | `z ← Σ(w+u)/n; u += w−z` |
//! | EM (k-means) | per-cluster sums & counts | M-step on Σstats |
//!
//! Summation is the only operation the channel performs, so AllReduce and
//! ScatterReduce apply uniformly (each in its own fixed order of addends,
//! see [`sum_statistics`]).

use crate::sgd::BatchCursor;
use lml_data::Dataset;
use lml_models::AnyModel;
use lml_sim::par;
use std::borrow::Cow;

/// The paper's distributed optimization algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// SGD with gradient averaging: one communication round per mini-batch
    /// iteration.
    GaSgd { batch: usize },
    /// SGD with model averaging: `local_iters` local mini-batch steps
    /// between communication rounds (the paper syncs once per epoch).
    MaSgd { batch: usize, local_iters: usize },
    /// Consensus ADMM: each round solves a proximal local subproblem with
    /// `local_scans` passes over the partition (the paper uses 10), then
    /// exchanges `w + u`.
    Admm {
        rho: f64,
        local_scans: usize,
        batch: usize,
    },
    /// Expectation-maximization for k-means: one statistics exchange per
    /// epoch.
    Em,
}

impl Algorithm {
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::GaSgd { .. } => "GA-SGD",
            Algorithm::MaSgd { .. } => "MA-SGD",
            Algorithm::Admm { .. } => "ADMM",
            Algorithm::Em => "EM",
        }
    }

    /// Communication rounds per full pass over the data. Fractional for
    /// ADMM (one round covers `local_scans` epochs).
    pub fn rounds_per_epoch(&self, partition_len: usize) -> f64 {
        match *self {
            Algorithm::GaSgd { batch } => {
                (partition_len as f64 / batch.min(partition_len) as f64).ceil()
            }
            Algorithm::MaSgd { batch, local_iters } => {
                let iters = (partition_len as f64 / batch.min(partition_len) as f64).ceil();
                (iters / local_iters as f64).max(1.0 / local_iters as f64)
            }
            Algorithm::Admm { local_scans, .. } => 1.0 / local_scans as f64,
            Algorithm::Em => 1.0,
        }
    }

    /// Mini-batch size a worker's cursor should use, clamped to the
    /// partition (EM scans the whole partition each round).
    pub fn batch_size(&self, partition_len: usize) -> usize {
        let b = match *self {
            Algorithm::GaSgd { batch }
            | Algorithm::MaSgd { batch, .. }
            | Algorithm::Admm { batch, .. } => batch,
            Algorithm::Em => partition_len,
        };
        b.min(partition_len).max(1)
    }

    /// Length of the statistic a worker produces for `model`: k-means'
    /// per-cluster sums and counts under EM, the model's parameters
    /// otherwise.
    pub(crate) fn statistic_len(&self, model: &AnyModel) -> usize {
        match (self, model) {
            (Algorithm::Em, AnyModel::KMeans(km)) => km.stats_len(),
            _ => model.param_len(),
        }
    }

    /// Whether this algorithm is applicable to the model (§4.2: ADMM needs
    /// convexity; EM is k-means-only; SGD needs a gradient).
    pub fn applicable(&self, model: &AnyModel) -> bool {
        match self {
            Algorithm::Admm { .. } => model.is_convex(),
            Algorithm::Em => matches!(model, AnyModel::KMeans(_)),
            _ => !matches!(model, AnyModel::KMeans(_)),
        }
    }
}

/// Per-worker training state: a local model replica plus algorithm scratch.
#[derive(Debug, Clone)]
pub struct WorkerState {
    pub id: usize,
    pub model: AnyModel,
    cursor: BatchCursor,
    /// Mini-batch gradient scratch. MA-SGD's `sgd_step` zeroes it before
    /// each use; ADMM keeps it all zeros between its steps.
    grad_buf: Vec<f64>,
    /// ADMM dual variable `u_i`.
    dual: Vec<f64>,
    /// ADMM consensus model `z` after the last round.
    consensus: Vec<f64>,
}

impl WorkerState {
    /// Build worker `id` owning `rows` of `data`, with a replica of `model`.
    pub fn new(id: usize, model: AnyModel, rows: Vec<usize>, batch: usize) -> Self {
        let p = model.param_len();
        WorkerState {
            id,
            cursor: BatchCursor::new(rows, batch),
            grad_buf: vec![0.0; p],
            dual: vec![0.0; p],
            consensus: vec![0.0; p],
            model,
        }
    }

    pub fn partition_len(&self) -> usize {
        self.cursor.partition_len()
    }

    /// The model whose loss the experiment reports: the consensus `z` for
    /// ADMM (a copy of the replica carrying `z`), the local replica itself
    /// otherwise.
    pub fn eval_model(&self, algo: &Algorithm) -> Cow<'_, AnyModel> {
        if !matches!(algo, Algorithm::Admm { .. }) {
            return Cow::Borrowed(&self.model);
        }
        let mut m = self.model.clone();
        m.params_mut().copy_from_slice(&self.consensus);
        Cow::Owned(m)
    }

    /// Produce this round's statistic. Returns `(statistic, examples)` where
    /// `examples` is the number of training examples touched (the compute
    /// cost driver for the simulator).
    pub fn produce(&mut self, algo: &Algorithm, data: &Dataset, lr: f64) -> (Vec<f64>, u64) {
        let mut stat = vec![0.0; algo.statistic_len(&self.model)];
        let examples = self.produce_into(algo, data, lr, &mut stat);
        (stat, examples)
    }

    /// [`WorkerState::produce`] into a zeroed `stat` of
    /// [`Algorithm::statistic_len`]; returns the examples touched.
    ///
    /// The caller owns the buffer, so a round that runs its workers on
    /// several threads can still allocate every statistic on the calling
    /// thread (see `lml_sim::par`).
    pub(crate) fn produce_into(
        &mut self,
        algo: &Algorithm,
        data: &Dataset,
        lr: f64,
        stat: &mut [f64],
    ) -> u64 {
        assert_eq!(
            stat.len(),
            algo.statistic_len(&self.model),
            "statistic length"
        );
        match *algo {
            Algorithm::GaSgd { .. } => {
                // The gradient is computed straight into the statistic.
                let batch = self.cursor.next_batch();
                self.model.grad(data, &batch, stat);
                batch.len() as u64
            }
            Algorithm::MaSgd { local_iters, .. } => {
                let mut examples = 0u64;
                for _ in 0..local_iters {
                    let batch = self.cursor.next_batch();
                    examples += batch.len() as u64;
                    crate::sgd::sgd_step(&mut self.model, data, &batch, lr, &mut self.grad_buf);
                }
                stat.copy_from_slice(self.model.params());
                examples
            }
            Algorithm::Admm {
                rho, local_scans, ..
            } => {
                // Local subproblem: minimize f_i(w) + (ρ/2)‖w − z + u‖² by
                // `local_scans` mini-batch passes over the partition.
                //
                // `grad_buf` is all zeros between steps, so `grad` can add
                // the mini-batch gradient straight into it: it is cleared
                // here (the last algorithm to use it may have left a
                // gradient), and each step clears every element as it
                // applies it. One pass per step then adds the proximal term
                // `ρ((w − z) + u)`, takes the step and clears the element.
                self.grad_buf.fill(0.0);
                let batches = self.cursor.batches_per_epoch();
                let mut examples = 0u64;
                for _ in 0..local_scans {
                    for _ in 0..batches {
                        let batch = self.cursor.next_batch();
                        examples += batch.len() as u64;
                        self.model.grad(data, &batch, &mut self.grad_buf);
                        let w = self.model.params_mut();
                        let zu = self.consensus.iter().zip(&self.dual);
                        for ((p, b), (&zj, &uj)) in w.iter_mut().zip(&mut self.grad_buf).zip(zu) {
                            let g = *b + rho * (*p - zj + uj);
                            *p -= lr * g;
                            *b = 0.0;
                        }
                    }
                }
                let w = self.model.params();
                for (m, (wj, uj)) in stat.iter_mut().zip(w.iter().zip(&self.dual)) {
                    *m = wj + uj;
                }
                examples
            }
            Algorithm::Em => {
                let rows = self.cursor.rows();
                self.model.add_em_stats(data, rows, stat);
                rows.len() as u64
            }
        }
    }

    /// Consume the cross-worker **sum** of statistics.
    pub fn consume(&mut self, algo: &Algorithm, agg_sum: &[f64], workers: usize, lr: f64) {
        let inv_n = 1.0 / workers as f64;
        match *algo {
            Algorithm::GaSgd { .. } => {
                // `w ← w − lr·ḡ` with the mean `ḡ = g·(1/n)` rounded on its
                // own first, as if it had been stored.
                let params = self.model.params_mut();
                assert_eq!(params.len(), agg_sum.len());
                for (p, g) in params.iter_mut().zip(agg_sum) {
                    *p -= lr * (g * inv_n);
                }
            }
            Algorithm::MaSgd { .. } => {
                let params = self.model.params_mut();
                for (p, s) in params.iter_mut().zip(agg_sum) {
                    *p = s * inv_n;
                }
            }
            Algorithm::Admm { .. } => {
                for (z, s) in self.consensus.iter_mut().zip(agg_sum) {
                    *z = s * inv_n;
                }
                let w = self.model.params();
                for (d, (&wj, &zj)) in self.dual.iter_mut().zip(w.iter().zip(&self.consensus)) {
                    *d += wj - zj;
                }
            }
            Algorithm::Em => {
                self.model.apply_em_stats(agg_sum);
            }
        }
    }
}

/// Element-wise sum of worker statistics, added in worker order
/// (`0, 1, …, w−1`): element `j` is `((0.0 + s₀[j]) + s₁[j]) + …`.
///
/// This is the specification of the in-memory form of
/// [`run_sync`](crate::driver::run_sync), which the serverful backends
/// aggregate with: its waves and fold must give these bits, and a test
/// holds them to it. The benchmark's shadow of the driver loop sums its
/// IaaS rounds with this function.
///
/// From [`par::FAN_OUT_MIN_F64S`] values up, the output is split into one
/// contiguous element range per core and the ranges are summed at once
/// ([`par::sum_in_order`]). Each range still adds the statistics in worker
/// order, so every element has the same chain of additions, and the same
/// bits, at any split.
///
/// The storage patterns compute the same sum, but only ScatterReduce in
/// the same *order*: AllReduce merges in the order of the leader's LIST,
/// which is lexicographic (`p0, p1, p10, p11, p2, …`), so from 11 workers
/// up its aggregate can differ from this one in the last bits. See
/// `lml_comm::patterns`.
pub fn sum_statistics(stats: &[Vec<f64>]) -> Vec<f64> {
    let f64s = stats.first().map_or(0, Vec::len) * stats.len();
    sum_statistics_on(stats, par::threads_for(f64s))
}

/// [`sum_statistics`] split into `threads` element ranges.
fn sum_statistics_on(stats: &[Vec<f64>], threads: usize) -> Vec<f64> {
    assert!(!stats.is_empty());
    par::sum_in_order(stats, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::replicas;
    use lml_data::generators::DatasetId;
    use lml_data::partition::partition_rows;
    use lml_models::ModelId;

    /// Drive `rounds` synchronous rounds of an algorithm over `n` workers,
    /// returning the final global-model loss on the data.
    fn run_rounds(
        algo: Algorithm,
        model_id: ModelId,
        data: &Dataset,
        n: usize,
        lr: f64,
        rounds: usize,
    ) -> f64 {
        let model = model_id.build(data, 7);
        let mut workers = replicas(&model, data.len(), n, &algo);
        for _ in 0..rounds {
            let stats: Vec<Vec<f64>> = workers
                .iter_mut()
                .map(|w| w.produce(&algo, data, lr).0)
                .collect();
            let agg = sum_statistics(&stats);
            for w in workers.iter_mut() {
                w.consume(&algo, &agg, n, lr);
            }
        }
        workers[0].eval_model(&algo).full_loss(data)
    }

    use lml_data::Dataset;

    #[test]
    fn ga_sgd_converges_on_higgs() {
        let data = DatasetId::Higgs.generate_rows(2_000, 42).data;
        let loss = run_rounds(
            Algorithm::GaSgd { batch: 100 },
            ModelId::Lr { l2: 0.0 },
            &data,
            4,
            0.5,
            100,
        );
        assert!(loss < 0.67, "GA-SGD loss {loss}");
    }

    #[test]
    fn ma_sgd_converges_on_higgs() {
        let data = DatasetId::Higgs.generate_rows(2_000, 42).data;
        let loss = run_rounds(
            Algorithm::MaSgd {
                batch: 100,
                local_iters: 5,
            },
            ModelId::Lr { l2: 0.0 },
            &data,
            4,
            0.5,
            20,
        );
        assert!(loss < 0.67, "MA-SGD loss {loss}");
    }

    #[test]
    fn admm_converges_in_few_rounds() {
        let data = DatasetId::Higgs.generate_rows(2_000, 42).data;
        let loss = run_rounds(
            Algorithm::Admm {
                rho: 0.1,
                local_scans: 2,
                batch: 100,
            },
            ModelId::Lr { l2: 0.0 },
            &data,
            4,
            0.3,
            5,
        );
        assert!(loss < 0.67, "ADMM loss after 5 rounds {loss}");
    }

    #[test]
    fn admm_beats_ga_sgd_per_round_figure7_shape() {
        // Figure 7a: at equal communication-round budgets, ADMM reaches a
        // lower loss than GA-SGD — the paper's headline algorithm insight.
        let data = DatasetId::Higgs.generate_rows(2_000, 1).data;
        let rounds = 5;
        let ga = run_rounds(
            Algorithm::GaSgd { batch: 100 },
            ModelId::Lr { l2: 0.0 },
            &data,
            4,
            0.5,
            rounds,
        );
        let admm = run_rounds(
            Algorithm::Admm {
                rho: 0.1,
                local_scans: 2,
                batch: 100,
            },
            ModelId::Lr { l2: 0.0 },
            &data,
            4,
            0.3,
            rounds,
        );
        assert!(
            admm < ga,
            "ADMM {admm} should beat GA-SGD {ga} at {rounds} rounds"
        );
    }

    #[test]
    fn em_distributed_equals_single_machine() {
        // Summed sufficient statistics make distributed EM bit-identical to
        // single-machine EM.
        let data = DatasetId::Higgs.generate_rows(600, 3).data;
        let km_id = ModelId::KMeans { k: 5 };

        // distributed: 3 workers, 4 rounds
        let model = km_id.build(&data, 7);
        let parts = partition_rows(data.len(), 3);
        let mut workers: Vec<WorkerState> = parts
            .iter()
            .map(|p| WorkerState::new(p.worker, model.clone(), p.indices().collect(), 64))
            .collect();
        let algo = Algorithm::Em;
        for _ in 0..4 {
            let stats: Vec<Vec<f64>> = workers
                .iter_mut()
                .map(|w| w.produce(&algo, &data, 0.0).0)
                .collect();
            let agg = sum_statistics(&stats);
            for w in workers.iter_mut() {
                w.consume(&algo, &agg, 3, 0.0);
            }
        }
        let dist_loss = workers[0].eval_model(&algo).full_loss(&data);

        // single machine: same init, 4 EM epochs
        let mut single = km_id.build(&data, 7);
        let rows: Vec<usize> = (0..data.len()).collect();
        for _ in 0..4 {
            let stats = single.em_stats(&data, &rows);
            single.apply_em_stats(&stats);
        }
        let single_loss = single.full_loss(&data);
        assert!(
            (dist_loss - single_loss).abs() < 1e-9,
            "{dist_loss} vs {single_loss}"
        );
    }

    #[test]
    fn ga_sgd_equals_full_batch_gd_when_batch_is_partition() {
        // With batch = partition size and equal partitions, GA-SGD's mean of
        // per-partition gradients equals the full-dataset gradient.
        let data = DatasetId::Higgs.generate_rows(400, 5).data;
        let algo = Algorithm::GaSgd { batch: 100 };
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let mut workers = replicas(&model, 400, 4, &algo);
        let lr = 0.5;
        for _ in 0..3 {
            let stats: Vec<Vec<f64>> = workers
                .iter_mut()
                .map(|w| w.produce(&algo, &data, lr).0)
                .collect();
            let agg = sum_statistics(&stats);
            for w in workers.iter_mut() {
                w.consume(&algo, &agg, 4, lr);
            }
        }

        let mut single = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let rows: Vec<usize> = (0..400).collect();
        let mut grad = vec![0.0; single.param_len()];
        for _ in 0..3 {
            grad.iter_mut().for_each(|g| *g = 0.0);
            single.grad(&data, &rows, &mut grad);
            let w = single.params_mut();
            for (p, g) in w.iter_mut().zip(&grad) {
                *p -= lr * g;
            }
        }
        for (a, b) in workers[0].model.params().iter().zip(single.params()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn workers_stay_in_sync_under_bsp() {
        // After any number of synchronous rounds all replicas are identical.
        let data = DatasetId::Higgs.generate_rows(300, 9).data;
        let algo = Algorithm::MaSgd {
            batch: 30,
            local_iters: 3,
        };
        let model = ModelId::Lr { l2: 0.0 }.build(&data, 2);
        let mut workers = replicas(&model, 300, 3, &algo);
        for _ in 0..4 {
            let stats: Vec<Vec<f64>> = workers
                .iter_mut()
                .map(|w| w.produce(&algo, &data, 0.3).0)
                .collect();
            let agg = sum_statistics(&stats);
            for w in workers.iter_mut() {
                w.consume(&algo, &agg, 3, 0.3);
            }
        }
        for w in &workers[1..] {
            assert_eq!(w.model.params(), workers[0].model.params());
        }
    }

    #[test]
    fn rounds_per_epoch_accounting() {
        assert_eq!(Algorithm::GaSgd { batch: 100 }.rounds_per_epoch(1000), 10.0);
        assert_eq!(
            Algorithm::MaSgd {
                batch: 100,
                local_iters: 10
            }
            .rounds_per_epoch(1000),
            1.0
        );
        assert_eq!(
            Algorithm::Admm {
                rho: 1.0,
                local_scans: 10,
                batch: 100
            }
            .rounds_per_epoch(1000),
            0.1
        );
        assert_eq!(Algorithm::Em.rounds_per_epoch(12345), 1.0);
    }

    #[test]
    fn applicability_rules() {
        let higgs = DatasetId::Higgs.generate_rows(100, 1).data;
        let cifar = DatasetId::Cifar10.generate_rows(100, 1).data;
        let lr = ModelId::Lr { l2: 0.0 }.build(&higgs, 1);
        let mn = ModelId::MobileNet.build(&cifar, 1);
        let km = ModelId::KMeans { k: 3 }.build(&higgs, 1);
        let admm = Algorithm::Admm {
            rho: 1.0,
            local_scans: 10,
            batch: 100,
        };
        assert!(admm.applicable(&lr));
        assert!(!admm.applicable(&mn), "§4.2: ADMM is convex-only");
        assert!(Algorithm::Em.applicable(&km));
        assert!(!Algorithm::Em.applicable(&lr));
        assert!(!Algorithm::GaSgd { batch: 1 }.applicable(&km));
    }

    #[test]
    fn statistic_lengths_are_consistent() {
        let data = DatasetId::Higgs.generate_rows(200, 1).data;
        let km = ModelId::KMeans { k: 4 }.build(&data, 1);
        let mut w = WorkerState::new(0, km, (0..200).collect(), 200);
        let (stats, examples) = w.produce(&Algorithm::Em, &data, 0.0);
        assert_eq!(stats.len(), 4 * 29);
        assert_eq!(Algorithm::Em.statistic_len(&w.model), stats.len());
        assert_eq!(examples, 200);
        let logistic = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        let mut w = WorkerState::new(0, logistic, (0..200).collect(), 20);
        let ga = Algorithm::GaSgd { batch: 20 };
        let (grad, _) = w.produce(&ga, &data, 0.1);
        assert_eq!(ga.statistic_len(&w.model), grad.len());
    }

    /// The range split of the in-memory sum leaves every bit where the
    /// serial worker-order fold puts it, at any thread count: 5 statistics
    /// of 200,003 values (not a multiple of 2, 3 or 8), each a normal
    /// deviate scaled by 2^-15 … 2^15.
    #[test]
    fn sum_statistics_has_the_same_bits_at_any_range_split() {
        let mut rng = lml_sim::Pcg64::new(42);
        let stats: Vec<Vec<f64>> = (0..5)
            .map(|_| {
                (0..200_003)
                    .map(|_| rng.normal() * 2f64.powi(rng.below(31) as i32 - 15))
                    .collect()
            })
            .collect();
        let mut fold = vec![0.0; 200_003];
        for s in &stats {
            for (o, v) in fold.iter_mut().zip(s) {
                *o += v;
            }
        }
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want = bits(&fold);
        for threads in [1, 2, 3, 8] {
            let got = sum_statistics_on(&stats, threads);
            assert!(bits(&got) == want, "{threads} threads moved a bit");
        }
        assert!(bits(&sum_statistics(&stats)) == want);
    }
}
