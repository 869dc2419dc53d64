//! ML pipelines: preprocessing + hyper-parameter search (Table 5).
//!
//! The paper's end-to-end pipeline experiment (§5.2) normalizes features to
//! [-1, 1] with one 10-worker job, then grid-searches the learning rate in
//! [0.01, 0.1] step 0.01 with one 10-worker, 10-epoch training job per
//! candidate. On FaaS the candidate jobs run **concurrently** (elastic
//! fan-out); on IaaS the one reserved cluster runs them **sequentially**.

use crate::config::{Backend, JobConfig};
use crate::executor::{lambda_bill, partition_load_time, s3_data_link};
use crate::job::{JobError, TrainingJob, Workload};
use crate::result::RunResult;
use lml_data::transform::normalize_minmax;
use lml_data::Dataset;
use lml_faas::faas_startup_time;
use lml_iaas::ClusterSpec;
use lml_models::ModelId;
use lml_optim::{LrSchedule, StopSpec};
use lml_sim::{Cost, SimTime};

/// The outcome of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    pub system: String,
    /// Wall time: preprocessing + (parallel or sequential) grid search.
    pub runtime: SimTime,
    /// Total dollars across all stages and jobs.
    pub cost: Cost,
    /// Best candidate's validation accuracy.
    pub best_accuracy: f64,
    /// The winning learning rate.
    pub best_lr: f64,
    /// Per-candidate results.
    pub candidates: Vec<RunResult>,
}

/// Grid of learning rates: [0.01, 0.1] step 0.01 (§5.2).
fn lr_grid() -> Vec<f64> {
    (1..=10).map(|i| i as f64 / 100.0).collect()
}

/// Normalize the workload's features to [-1, 1] (dense datasets only —
/// the paper's pipeline runs on Higgs and Cifar10).
fn preprocess(workload: &Workload) -> Workload {
    let mut wl = workload.clone();
    if let Dataset::Dense(d) = &mut wl.train {
        normalize_minmax(d);
    }
    if let Dataset::Dense(d) = &mut wl.valid {
        normalize_minmax(d);
    }
    wl
}

/// Virtual time/cost of the preprocessing job: `workers` executors read
/// their partition, transform it, and write it back to S3.
fn preprocess_time(workload: &Workload, workers: usize) -> SimTime {
    // read + transform (IO-bound; transform charged at memory bandwidth is
    // negligible next to S3) + write back
    partition_load_time(&workload.spec, workers)
        + s3_data_link().transfer_time(workload.spec.partition_bytes(workers))
}

/// Run the Table 5 pipeline.
///
/// `base` fixes everything except the learning rate; each grid candidate
/// trains for `base.stop.max_epochs` epochs (the paper uses 10, no early
/// stopping).
pub fn run_pipeline(
    workload: &Workload,
    model_id: ModelId,
    base: JobConfig,
) -> Result<PipelineResult, JobError> {
    let prepped = preprocess(workload);
    let prep_time = preprocess_time(workload, base.workers);

    let mut candidates = Vec::new();
    for lr in lr_grid() {
        let cfg = base.with_schedule(LrSchedule::Const(lr));
        // fixed-epoch budget: disable the loss target
        let cfg = JobConfig {
            stop: StopSpec::new(0.0, cfg.stop.max_epochs),
            ..cfg
        };
        let job = TrainingJob::new(&prepped, model_id, cfg);
        candidates.push(job.run()?);
    }

    let (mut best_i, mut best_acc) = (0, f64::NEG_INFINITY);
    for (i, c) in candidates.iter().enumerate() {
        if c.final_accuracy > best_acc {
            best_acc = c.final_accuracy;
            best_i = i;
        }
    }
    let best_lr = lr_grid()[best_i];

    // Stage timing/cost composition depends on the backend's elasticity.
    let (system, runtime, cost) = match base.backend {
        Backend::Faas { spec, .. } => {
            // Jobs fan out concurrently; preprocessing runs as its own
            // serverless job first.
            let prep_startup = faas_startup_time(base.workers);
            let search: SimTime = candidates
                .iter()
                .map(|c| c.runtime())
                .fold(SimTime::ZERO, SimTime::max);
            let cost = lambda_bill(spec, base.workers, prep_time)
                + candidates.iter().map(|c| c.dollars()).sum::<Cost>();
            ("FaaS".to_string(), prep_startup + prep_time + search, cost)
        }
        Backend::Iaas { instance, .. } | Backend::Single { instance } => {
            // One cluster, started once; stages run back-to-back on it.
            let cluster = ClusterSpec::new(instance, base.workers);
            let startup = cluster.startup_time();
            let work: SimTime = candidates
                .iter()
                .map(|c| c.breakdown.total_without_startup())
                .sum::<SimTime>()
                + prep_time;
            let total = startup + work;
            (
                format!("IaaS({})", instance.name()),
                total,
                cluster.cost(total),
            )
        }
        Backend::Hybrid { .. } => {
            return Err(JobError::NotApplicable(
                "the Table 5 pipeline compares FaaS vs IaaS".to_string(),
            ))
        }
    };

    Ok(PipelineResult {
        system,
        runtime,
        cost,
        best_accuracy: best_acc,
        best_lr,
        candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;
    use lml_optim::Algorithm;

    #[test]
    fn grid_has_ten_candidates() {
        let g = lr_grid();
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.01).abs() < 1e-12);
        assert!((g[9] - 0.10).abs() < 1e-12);
    }

    #[test]
    fn preprocess_normalizes_features() {
        let g = DatasetId::Higgs.generate_rows(500, 1);
        let wl = Workload::from_generated(&g, 1);
        let prepped = preprocess(&wl);
        if let Dataset::Dense(d) = &prepped.train {
            for r in 0..d.len() {
                for &v in d.row(r) {
                    assert!((-1.0..=1.0).contains(&v));
                }
            }
        } else {
            panic!("expected dense");
        }
        // labels untouched
        assert_eq!(prepped.train.label(0), wl.train.label(0));
    }

    /// The 1,000-row Higgs workload and a 4-worker, 2-epoch GA-SGD config
    /// (FaaS by default).
    fn small_pipeline() -> (Workload, JobConfig) {
        let g = DatasetId::Higgs.generate_rows(1_000, 1);
        let wl = Workload::from_generated(&g, 1);
        let cfg = JobConfig::new(
            4,
            Algorithm::GaSgd { batch: 100 },
            0.05,
            StopSpec::new(0.0, 2),
        );
        (wl, cfg)
    }

    #[test]
    fn faas_pipeline_runs_grid_in_parallel() {
        let (wl, cfg) = small_pipeline();
        let out = run_pipeline(&wl, ModelId::Lr { l2: 0.0 }, cfg).unwrap();
        assert_eq!(out.candidates.len(), 10);
        // parallel fan-out: total ≈ slowest candidate, not the sum
        let slowest = out
            .candidates
            .iter()
            .map(|c| c.runtime().as_secs())
            .fold(0.0, f64::max);
        let sum: f64 = out.candidates.iter().map(|c| c.runtime().as_secs()).sum();
        assert!(out.runtime.as_secs() < sum);
        assert!(out.runtime.as_secs() >= slowest);
        assert!(out.best_accuracy > 0.5);
        assert!(lr_grid().contains(&out.best_lr));
    }

    /// `run_pipeline`'s wall time and bill, as bits, for the FaaS fan-out
    /// (preprocessing billed per GB-second) and the sequential IaaS cluster.
    #[test]
    fn pipeline_runtime_and_cost_are_pinned() -> Result<(), JobError> {
        let (wl, cfg) = small_pipeline();
        let bits = |backend| -> Result<(u64, u64), JobError> {
            let p = run_pipeline(&wl, ModelId::Lr { l2: 0.0 }, cfg.with_backend(backend))?;
            Ok((p.runtime.as_secs().to_bits(), p.cost.as_usd().to_bits()))
        };
        let faas = (0x4061_98d1_a396_e816, 0x3fc5_c541_809d_0417);
        assert_eq!(bits(Backend::faas_default())?, faas);
        let iaas = (0x408b_7aba_2e9e_6876, 0x3fa7_3623_1fe3_19de);
        assert_eq!(bits(Backend::iaas_default())?, iaas);
        Ok(())
    }
}
