//! The three training workloads.
//!
//! The untraced pass is `TrainingJob::run`, nothing else. The traced pass
//! is a *shadow* of the synchronous driver loop, rebuilt here from the
//! public calls that loop makes (`WorkerState::{new, produce, consume,
//! eval_model}`, `Bsp::run_round`, `sum_statistics`, `AnyModel::{full_loss,
//! full_accuracy}`) with a span around each, so per-layer time is measured
//! without touching the crates. The shadow's final loss and round count
//! must equal `TrainingJob::run`'s bit for bit; a mismatch is a failure.
//!
//! Every job stops on its epoch cap (target loss 0, virtual-time cap far
//! out of reach), so the number of rounds is a pure function of the input
//! sizes and the shadow needs no model of virtual time.

use crate::stats::median_ns_per_op;
use crate::workloads::{scaled, size, TrainKind};
use lml_comm::{patterns, Bsp, Pattern};
use lml_core::job::Workload;
use lml_core::{Backend, ChannelKind, JobConfig, Protocol, TrainingJob};
use lml_data::generators::DatasetId;
use lml_data::partition::partition_rows;
use lml_faas::LambdaSpec;
use lml_iaas::{InstanceType, SystemProfile};
use lml_linalg::{dense, sparse::SparseVec};
use lml_models::ModelId;
use lml_optim::algorithm::{sum_statistics, WorkerState};
use lml_optim::{Algorithm, StopSpec};
use lml_sim::{ByteSize, SimTime};
use lml_storage::{ServiceProfile, StorageChannel};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub struct JobDef {
    pub label: &'static str,
    /// Index into [`Inputs::data`].
    pub data: usize,
    pub model: ModelId,
    pub cfg: JobConfig,
}

pub struct Inputs {
    pub data: Vec<Workload>,
    pub jobs: Vec<JobDef>,
    /// Host seconds spent in the dataset generators (`data.generate_s`).
    pub generate_s: f64,
}

fn stop_after(epochs: usize) -> StopSpec {
    StopSpec::new(0.0, epochs).with_max_time(SimTime::hours(1e9))
}

fn faas_s3(pattern: Pattern) -> Backend {
    Backend::Faas {
        spec: LambdaSpec::gb3(),
        channel: ChannelKind::S3,
        pattern,
        protocol: Protocol::Sync,
    }
}

fn iaas_c5() -> Backend {
    Backend::Iaas {
        instance: InstanceType::C5XLarge2,
        system: SystemProfile::PyTorch,
    }
}

/// Generate and split the datasets of `kind` at `scale`, and configure its
/// jobs. Hyper-parameters follow the paper's Table 4 as the repo's
/// experiment registry scales them.
pub fn build(kind: TrainKind, scale: f64, seed: u64) -> Inputs {
    let mut generate = Duration::ZERO;
    let mut load = |id: DatasetId, rows: usize, subset: bool| {
        let t = Instant::now();
        let mut g = id.generate_rows(rows, seed);
        generate += t.elapsed();
        if subset {
            // Declare the rows a 1:10 sample of a dataset ten times their
            // number (the ratio of the repo's default Cifar10 sample), so
            // a fixed sample batch stands for the same paper-scale batch —
            // and the same Lambda memory footprint — at every size.
            let per_instance = g.spec.bytes_per_instance();
            g.spec.paper_instances = 10 * g.spec.sample_instances;
            g.spec.paper_bytes =
                ByteSize::bytes((per_instance * g.spec.paper_instances as f64) as u64);
        }
        Workload::from_generated(&g, seed)
    };
    let job = |label, data, model, workers, algorithm, lr, epochs, backend| JobDef {
        label,
        data,
        model,
        cfg: JobConfig::new(workers, algorithm, lr, stop_after(epochs))
            .with_seed(seed)
            .with_backend(backend),
    };
    let (data, jobs) = match kind {
        TrainKind::MlpCompute => {
            let rows = scaled(size::MLP_COMPUTE_ROWS, scale, 200);
            let cifar = load(DatasetId::Cifar10, rows, true);
            let algo = Algorithm::GaSgd {
                batch: size::MLP_COMPUTE_BATCH,
            };
            let jobs = vec![job(
                "mobilenet/cifar10 ga-sgd iaas",
                0,
                ModelId::MobileNet,
                10,
                algo,
                0.15,
                1,
                iaas_c5(),
            )];
            (vec![cifar], jobs)
        }
        TrainKind::MlpComm => {
            let rows = scaled(size::MLP_COMM_ROWS, scale, 40);
            let cifar = load(DatasetId::Cifar10, rows, true);
            let algo = Algorithm::GaSgd {
                batch: size::MLP_COMM_BATCH,
            };
            let jobs = vec![
                job(
                    "resnet50/cifar10 ga-sgd faas/s3 allreduce",
                    0,
                    ModelId::ResNet50,
                    10,
                    algo,
                    0.1,
                    1,
                    faas_s3(Pattern::AllReduce),
                ),
                job(
                    "resnet50/cifar10 ga-sgd faas/s3 scatterreduce",
                    0,
                    ModelId::ResNet50,
                    10,
                    algo,
                    0.1,
                    1,
                    faas_s3(Pattern::ScatterReduce),
                ),
            ];
            (vec![cifar], jobs)
        }
        TrainKind::ConvexSparse => {
            let rcv1 = load(DatasetId::Rcv1, scaled(size::RCV1_ROWS, scale, 100), false);
            let yfcc = load(
                DatasetId::Yfcc100m,
                scaled(size::YFCC_ROWS, scale, 240),
                false,
            );
            let criteo = load(
                DatasetId::Criteo,
                scaled(size::CRITEO_ROWS, scale, 200),
                false,
            );
            let admm = Algorithm::Admm {
                rho: 0.1,
                local_scans: 10,
                batch: size::LR_RCV1_BATCH,
            };
            let sgd = Algorithm::GaSgd {
                batch: size::LR_CRITEO_BATCH,
            };
            let allreduce = faas_s3(Pattern::AllReduce);
            let jobs = vec![
                job(
                    "lr/rcv1 admm faas/s3",
                    0,
                    ModelId::Lr { l2: 0.0 },
                    5,
                    admm,
                    1.0,
                    size::LR_RCV1_EPOCHS,
                    allreduce,
                ),
                job(
                    "kmeans/rcv1 em faas/s3",
                    0,
                    ModelId::KMeans { k: 3 },
                    10,
                    Algorithm::Em,
                    0.0,
                    size::KM_RCV1_EPOCHS,
                    allreduce,
                ),
                job(
                    "kmeans/yfcc em faas/s3",
                    1,
                    ModelId::KMeans { k: 10 },
                    100,
                    Algorithm::Em,
                    0.0,
                    size::KM_YFCC_EPOCHS,
                    allreduce,
                ),
                // Lambda runs out of memory on Criteo at 3 GB (an expected
                // `Err`, not run here); the paper trains it on VMs.
                job(
                    "lr/criteo ga-sgd iaas",
                    2,
                    ModelId::Lr { l2: 0.0 },
                    10,
                    sgd,
                    0.5,
                    size::LR_CRITEO_EPOCHS,
                    iaas_c5(),
                ),
            ];
            (vec![rcv1, yfcc, criteo], jobs)
        }
    };
    Inputs {
        data,
        jobs,
        generate_s: generate.as_secs_f64(),
    }
}

/// What one job reports. `sim_runtime_s` and `cost_usd` are simulated
/// results and only `TrainingJob::run` computes them; the shadow leaves
/// them at 0.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobOut {
    pub final_loss: f64,
    pub rounds: u64,
    pub sim_runtime_s: f64,
    pub cost_usd: f64,
}

/// The untraced pass: every job through `TrainingJob::run`.
pub fn run_plain(inputs: &Inputs) -> Vec<Result<JobOut, String>> {
    inputs
        .jobs
        .iter()
        .map(|j| {
            let r = TrainingJob::new(&inputs.data[j.data], j.model, j.cfg)
                .run()
                .map_err(|e| format!("{}: {e}", j.label))?;
            if r.rounds == 0 || !r.final_loss.is_finite() {
                return Err(format!(
                    "{}: degenerate run ({} rounds, loss {})",
                    j.label, r.rounds, r.final_loss
                ));
            }
            Ok(JobOut {
                final_loss: r.final_loss,
                rounds: r.rounds,
                sim_runtime_s: r.runtime().as_secs(),
                cost_usd: r.dollars().as_usd(),
            })
        })
        .collect()
}

/// Spans and counts of the shadow loop, summed over a workload's jobs.
#[derive(Debug, Default)]
pub struct Spans {
    pub produce: Duration,
    pub produce_calls: u64,
    pub examples: u64,
    pub consume: Duration,
    pub sum: Duration,
    pub eval: Duration,
    pub eval_calls: u64,
    pub comm: Duration,
    pub comm_calls: u64,
    pub f64s_moved: u64,
    pub puts: u64,
    pub gets: u64,
    pub lists: u64,
}

impl Spans {
    pub fn layers(&self) -> Duration {
        self.produce + self.consume + self.sum + self.eval + self.comm
    }
}

fn span<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// f64 values one aggregation round puts on and gets off the channel, from
/// the pattern's own put/get schedule (`w` workers, statistics of `len`).
pub fn f64s_per_round(pattern: Pattern, w: usize, len: usize) -> u64 {
    let (w, len) = (w as u64, len as u64);
    match pattern {
        // w local puts, w leader gets, 1 merged put, w-1 fan-back gets.
        Pattern::AllReduce => 3 * w * len,
        // w×w chunk puts and gets, then w merged-chunk puts and gets; the
        // chunks of one statistic add up to `len`.
        Pattern::ScatterReduce if w > 1 => (2 * w + 2) * len,
        Pattern::ScatterReduce => 3 * len,
    }
}

/// The traced pass: the shadow loop for every job.
pub fn run_shadow(inputs: &Inputs, spans: &mut Spans) -> Vec<Result<JobOut, String>> {
    inputs
        .jobs
        .iter()
        .map(|j| shadow_job(&inputs.data[j.data], j, spans))
        .collect()
}

/// FaaS aggregation: real blobs through the storage channel under the BSP
/// protocol. (IaaS jobs have none: the executor sums in memory and only
/// charges virtual time for the ring AllReduce.)
struct Channel {
    channel: StorageChannel,
    bsp: Bsp,
    wire: ByteSize,
}

fn shadow_job(wl: &Workload, j: &JobDef, s: &mut Spans) -> Result<JobOut, String> {
    let cfg = &j.cfg;
    let algo = cfg.algorithm;
    let model = TrainingJob::new(wl, j.model, *cfg).build_model();
    if !algo.applicable(&model) {
        return Err(format!("{}: algorithm not applicable", j.label));
    }
    let n = cfg.workers;
    let parts = partition_rows(wl.train.len(), n);
    let part_len = parts[0].len();
    let batch = algo.batch_size(part_len);
    let mut workers: Vec<WorkerState> = parts
        .iter()
        .map(|p| WorkerState::new(p.worker, model.clone(), p.indices().collect(), batch))
        .collect();
    let eval_every = cfg.resolved_eval_every(part_len) as u64;
    let mut channel = match cfg.backend {
        Backend::Faas {
            channel,
            pattern,
            protocol: Protocol::Sync,
            ..
        } => Some(Channel {
            channel: StorageChannel::new(channel.profile()),
            bsp: Bsp::new(pattern),
            wire: model.statistic_wire_bytes(),
        }),
        Backend::Iaas { .. } => None,
        other => return Err(format!("{}: no shadow for {}", j.label, other.name())),
    };

    let (mut rounds, mut epochs) = (0u64, 0.0f64);
    let mut last_eval: Option<(u64, f64)> = None;
    while !cfg.stop.exhausted(epochs, SimTime::ZERO) {
        let epoch_idx = epochs.floor() as usize;
        let lr = cfg.lr.lr(epoch_idx);

        let mut stats = Vec::with_capacity(n);
        let mut max_examples = 0u64;
        for w in workers.iter_mut() {
            let (stat, ex) = span(&mut s.produce, || w.produce(&algo, &wl.train, lr));
            s.produce_calls += 1;
            s.examples += ex;
            max_examples = max_examples.max(ex);
            stats.push(stat);
        }

        let agg = match &mut channel {
            Some(c) => {
                s.comm_calls += 1;
                s.f64s_moved += f64s_per_round(c.bsp.pattern, n, stats[0].len());
                span(&mut s.comm, || {
                    c.bsp
                        .run_round(&mut c.channel, epoch_idx, rounds as usize, &stats, c.wire)
                })
                .map_err(|e| format!("{}: {e}", j.label))?
                .aggregate
            }
            None => span(&mut s.sum, || sum_statistics(&stats)),
        };

        span(&mut s.consume, || {
            for w in workers.iter_mut() {
                w.consume(&algo, &agg, n, lr);
            }
        });

        rounds += 1;
        epochs += max_examples as f64 / part_len as f64;

        if rounds.is_multiple_of(eval_every) {
            s.eval_calls += 1;
            let loss = span(&mut s.eval, || {
                workers[0].eval_model(&algo).full_loss(&wl.valid)
            });
            last_eval = Some((rounds, loss));
            if cfg.stop.converged(loss) {
                break;
            }
        }
    }

    // The driver guarantees a final observation and reports accuracy.
    s.eval_calls += 1;
    let final_loss = span(&mut s.eval, || {
        let m = workers[0].eval_model(&algo);
        let loss = match last_eval {
            Some((at, loss)) if at == rounds => loss,
            _ => m.full_loss(&wl.valid),
        };
        black_box(m.full_accuracy(&wl.valid));
        loss
    });
    if let Some(c) = &channel {
        let (puts, gets, lists) = c.channel.op_counts();
        s.puts += puts;
        s.gets += gets;
        s.lists += lists;
    }
    Ok(JobOut {
        final_loss,
        rounds,
        ..JobOut::default()
    })
}

/// Median per-call nanoseconds of `f` over `iters` calls. `iters` is fixed
/// per cell so that one repetition runs at least 50 ms on the calibration
/// box (`scale` shrinks it for smoke).
fn cell(iters: u64, scale: f64, mut f: impl FnMut()) -> f64 {
    let iters = ((iters as f64 * scale) as u64).max(1);
    median_ns_per_op(iters, || (0..iters).for_each(|_| f()))
}

/// The training micro cells: they attribute a change in `optim.produce_s`
/// or `comm.round_s` to the kernel underneath.
pub fn micro_cells(seed: u64, scale: f64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    let x: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.11).cos()).collect();
    out.push((
        "linalg.dense_dot_ns",
        cell(60_000, scale, || {
            black_box(dense::dot(black_box(&x), black_box(&y)));
        }),
    ));
    out.push((
        "linalg.dense_axpy_ns",
        cell(60_000, scale, || {
            dense::axpy(black_box(1e-9), black_box(&x), black_box(&mut y));
        }),
    ));

    let rcv1 = DatasetId::Rcv1.generate_rows(200, seed).data;
    let lml_data::Dataset::Sparse(sparse) = &rcv1 else {
        unreachable!("RCV1 is generated sparse");
    };
    let row: &SparseVec = sparse.row(0);
    let dense_w: Vec<f64> = (0..rcv1.dim()).map(|i| (i as f64 * 0.01).sin()).collect();
    out.push((
        "linalg.sparse_dot_ns",
        cell(1_500_000, scale, || {
            black_box(black_box(row).dot_dense(black_box(&dense_w)));
        }),
    ));

    let mut grad_cell = |name, data: &lml_data::Dataset, id: ModelId, batch: usize, iters| {
        let model = id.build(data, seed);
        let rows: Vec<usize> = (0..batch).collect();
        let mut grad = vec![0.0; model.param_len()];
        let ns = cell(iters, scale, || {
            black_box(model.grad(black_box(data), &rows, &mut grad));
        });
        out.push((name, ns / 1e3));
    };
    let cifar = DatasetId::Cifar10.generate_rows(100, seed).data;
    let higgs = DatasetId::Higgs.generate_rows(1_000, seed).data;
    grad_cell("models.mlp_grad_us", &cifar, ModelId::MobileNet, 13, 10);
    grad_cell(
        "models.lr_grad_us",
        &higgs,
        ModelId::Lr { l2: 0.0 },
        100,
        40_000,
    );
    grad_cell(
        "models.lr_sparse_grad_us",
        &rcv1,
        ModelId::Lr { l2: 0.0 },
        20,
        20_000,
    );

    let yfcc = DatasetId::Yfcc100m.generate_rows(200, seed).data;
    let km = ModelId::KMeans { k: 10 }.build(&yfcc, seed);
    let rows: Vec<usize> = (0..yfcc.len()).collect();
    out.push((
        "models.kmeans_stats_us",
        cell(6, scale, || {
            black_box(km.em_stats(black_box(&yfcc), &rows));
        }) / 1e3,
    ));

    // Ten ResNet50-surrogate statistics (591k f64 each) through one
    // aggregation round on a fresh S3 channel.
    let resnet = ModelId::ResNet50.build(&cifar, seed);
    let stats: Vec<Vec<f64>> = (0..10)
        .map(|w| vec![w as f64 + 0.5; resnet.param_len()])
        .collect();
    for (name, pattern) in [
        ("comm.allreduce_us", Pattern::AllReduce),
        ("comm.scatter_reduce_us", Pattern::ScatterReduce),
    ] {
        let ns = cell(1, scale, || {
            let mut channel = StorageChannel::new(ServiceProfile::s3());
            let wire = resnet.statistic_wire_bytes();
            let outcome = patterns::reduce(&mut channel, pattern, "ep0_it0", &stats, wire);
            black_box(outcome.expect("S3 admits any item size").aggregate);
        });
        out.push((name, ns / 1e3));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The invariant the traced run rests on, at smoke size: the shadow
    /// loop reproduces `TrainingJob::run` bit for bit on every workload.
    #[test]
    fn shadow_loop_equals_training_job_run() {
        for kind in [
            TrainKind::MlpCompute,
            TrainKind::MlpComm,
            TrainKind::ConvexSparse,
        ] {
            let inputs = build(kind, 0.02, 7);
            let plain = run_plain(&inputs);
            let mut spans = Spans::default();
            let shadow = run_shadow(&inputs, &mut spans);
            assert_eq!(plain.len(), shadow.len());
            for (p, s) in plain.iter().zip(&shadow) {
                let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
                assert_eq!(p.final_loss.to_bits(), s.final_loss.to_bits(), "{kind:?}");
                assert_eq!(p.rounds, s.rounds, "{kind:?}");
            }
            assert!(spans.produce_calls > 0 && spans.eval_calls > 0);
            let uses_channel = kind != TrainKind::MlpCompute;
            assert_eq!(spans.comm_calls > 0, uses_channel, "{kind:?}");
            assert_eq!(spans.puts > 0, uses_channel, "{kind:?}");
        }
    }

    #[test]
    fn f64s_moved_follow_the_pattern_schedules() {
        // AllReduce, 10 workers: 10 puts + 10 gets + 1 put + 9 gets.
        assert_eq!(f64s_per_round(Pattern::AllReduce, 10, 100), 3_000);
        // ScatterReduce: 100 chunk puts + 100 chunk gets (10 statistics
        // each way) + 10 merged puts + 10 merged gets (1 statistic each).
        assert_eq!(f64s_per_round(Pattern::ScatterReduce, 10, 100), 2_200);
        // One worker degenerates to AllReduce.
        assert_eq!(f64s_per_round(Pattern::ScatterReduce, 1, 100), 300);
    }
}
