//! The public entry point: configure a training job, run it, get the
//! paper's metrics back.

use crate::config::{Backend, JobConfig};
use crate::executor;
use crate::result::RunResult;
use lml_data::generators::Generated;
use lml_data::transform::train_valid_split;
use lml_data::{Dataset, DatasetSpec};
use lml_faas::FaasError;
use lml_iaas::InstanceType;
use lml_models::{AnyModel, ModelId};
use lml_sim::ByteSize;
use lml_storage::StorageError;

/// A dataset prepared for training: 90/10 train/validation split (the
/// paper's protocol, §4.1) plus the paper-scale spec.
#[derive(Debug, Clone)]
pub struct Workload {
    pub train: Dataset,
    pub valid: Dataset,
    pub spec: DatasetSpec,
}

impl Workload {
    /// Split a generated dataset 90/10.
    pub fn from_generated(g: &Generated, seed: u64) -> Self {
        let (train, valid) = train_valid_split(&g.data, 0.9, seed);
        Workload {
            train,
            valid,
            spec: g.spec.clone(),
        }
    }

    /// `paper_instances / sample_instances` — converts sample example
    /// counts into paper-scale counts for the system model.
    pub fn scale_inv(&self) -> f64 {
        self.spec.paper_instances as f64 / self.spec.sample_instances as f64
    }
}

/// Why a job could not run (or had to abort).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The storage channel refused an operation (e.g. DynamoDB's 400 KB
    /// item cap rejecting a MobileNet payload — Table 1's "N/A").
    Storage(StorageError),
    /// The FaaS runtime refused (out of memory, invalid function spec —
    /// e.g. ResNet50 with batch 64, §5.2).
    Faas(FaasError),
    /// A VM cannot hold its share of the data with headroom for the
    /// engine (e.g. all of Higgs on one t2.medium, Figure 11).
    VmOutOfMemory {
        instance: InstanceType,
        required: ByteSize,
    },
    /// The (algorithm, model, backend) combination is invalid
    /// (e.g. ADMM on a neural network, §4.2).
    NotApplicable(String),
    /// A `JobConfig` field holds a value no executor can run, e.g. zero
    /// workers.
    InvalidConfig {
        field: &'static str,
        value: String,
        reason: String,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Storage(e) => write!(f, "storage: {e}"),
            JobError::Faas(e) => write!(f, "faas: {e}"),
            JobError::VmOutOfMemory { instance, required } => write!(
                f,
                "iaas: {} cannot hold {required} in its {} RAM",
                instance.name(),
                instance.memory()
            ),
            JobError::NotApplicable(m) => write!(f, "not applicable: {m}"),
            JobError::InvalidConfig {
                field,
                value,
                reason,
            } => write!(f, "invalid config: {field} = {value}: {reason}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<StorageError> for JobError {
    fn from(e: StorageError) -> Self {
        JobError::Storage(e)
    }
}

impl From<FaasError> for JobError {
    fn from(e: FaasError) -> Self {
        JobError::Faas(e)
    }
}

/// A fully-specified training job.
#[derive(Debug, Clone)]
pub struct TrainingJob<'a> {
    pub workload: &'a Workload,
    pub model_id: ModelId,
    pub config: JobConfig,
}

impl<'a> TrainingJob<'a> {
    pub fn new(workload: &'a Workload, model_id: ModelId, config: JobConfig) -> Self {
        TrainingJob {
            workload,
            model_id,
            config,
        }
    }

    /// Build the model replica each worker starts from.
    pub fn build_model(&self) -> AnyModel {
        self.model_id.build(&self.workload.train, self.config.seed)
    }

    /// Reject a configuration that would otherwise panic inside an
    /// executor.
    fn check_config(&self) -> Result<(), JobError> {
        let workers = self.config.workers;
        let rows = self.workload.train.len();
        let partitioned = !matches!(self.config.backend, Backend::Single { .. });
        let reason = if workers == 0 {
            "a job needs at least one worker".to_string()
        } else if partitioned && workers > rows {
            format!(
                "{} splits {rows} training rows over the workers, so some would get none",
                self.config.backend.name()
            )
        } else {
            return Ok(());
        };
        Err(JobError::InvalidConfig {
            field: "workers",
            value: workers.to_string(),
            reason,
        })
    }

    /// Execute the job on its configured backend.
    pub fn run(&self) -> Result<RunResult, JobError> {
        self.check_config()?;
        let model = self.build_model();
        if !self.config.algorithm.applicable(&model) {
            return Err(JobError::NotApplicable(format!(
                "{} cannot train {} (§4.2)",
                self.config.algorithm.name(),
                model.name(),
            )));
        }
        match self.config.backend {
            Backend::Faas {
                spec,
                channel,
                pattern,
                protocol,
            } => executor::faas::run(self, model, spec, channel, pattern, protocol),
            Backend::Iaas { instance, system } => {
                executor::iaas::run(self, model, instance, system)
            }
            Backend::Hybrid { spec, ps, rpc } => executor::hybrid::run(self, model, spec, ps, rpc),
            Backend::Single { instance } => executor::single::run(self, model, instance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;
    use lml_optim::{Algorithm, StopSpec};

    #[test]
    fn workload_splits_90_10() {
        let g = DatasetId::Higgs.generate_rows(1_000, 1);
        let wl = Workload::from_generated(&g, 1);
        assert_eq!(wl.train.len(), 900);
        assert_eq!(wl.valid.len(), 100);
        assert!((wl.scale_inv() - 11_000.0).abs() < 1.0);
    }

    #[test]
    fn inapplicable_algorithm_is_rejected() {
        let g = DatasetId::Cifar10.generate_rows(200, 1);
        let wl = Workload::from_generated(&g, 1);
        let cfg = JobConfig::new(
            2,
            Algorithm::Admm {
                rho: 1.0,
                local_scans: 10,
                batch: 32,
            },
            0.01,
            StopSpec::new(0.2, 1),
        );
        let job = TrainingJob::new(&wl, ModelId::MobileNet, cfg);
        match job.run() {
            Err(JobError::NotApplicable(msg)) => assert!(msg.contains("ADMM")),
            other => panic!("expected NotApplicable, got {other:?}"),
        }
    }

    /// Logistic regression on 400 Higgs rows (360 for training) under the
    /// default FaaS backend.
    fn lr_on_higgs(wl: &Workload, workers: usize) -> TrainingJob<'_> {
        let cfg = JobConfig::new(
            workers,
            Algorithm::GaSgd { batch: 10 },
            0.1,
            StopSpec::new(0.0, 1),
        );
        TrainingJob::new(wl, ModelId::Lr { l2: 0.0 }, cfg)
    }

    fn rejected_workers(job: &TrainingJob<'_>) -> Option<String> {
        match job.run() {
            Err(JobError::InvalidConfig {
                field: "workers",
                value,
                ..
            }) => Some(value),
            _ => None,
        }
    }

    #[test]
    fn zero_workers_is_rejected() {
        let wl = Workload::from_generated(&DatasetId::Higgs.generate_rows(400, 1), 1);
        assert_eq!(rejected_workers(&lr_on_higgs(&wl, 0)), Some("0".into()));
    }

    /// Every backend that partitions the rows over its workers refuses
    /// more workers than training rows; `Single` ignores the field.
    #[test]
    fn more_workers_than_training_rows_is_rejected() {
        let wl = Workload::from_generated(&DatasetId::Higgs.generate_rows(400, 1), 1);
        for backend in [
            Backend::faas_default(),
            Backend::iaas_default(),
            Backend::hybrid_default(),
        ] {
            let mut job = lr_on_higgs(&wl, 10_000);
            job.config = job.config.with_backend(backend);
            assert_eq!(
                rejected_workers(&job),
                Some("10000".into()),
                "{}",
                backend.name()
            );
        }
        let mut single = lr_on_higgs(&wl, 10_000);
        single.config = single.config.with_backend(Backend::Single {
            instance: InstanceType::C5XLarge4,
        });
        assert!(single.run().is_ok(), "Single ignores workers");
        assert!(
            lr_on_higgs(&wl, 360).run().is_ok(),
            "one row per worker runs"
        );
    }

    #[test]
    fn job_error_display() {
        let e = JobError::NotApplicable("x".into());
        assert!(e.to_string().contains("not applicable"));
        let vm = JobError::VmOutOfMemory {
            instance: InstanceType::T2Medium,
            required: ByteSize::gb(8.0),
        };
        assert!(vm.to_string().starts_with("iaas: t2.medium "), "{vm}");
        let bad = JobError::InvalidConfig {
            field: "workers",
            value: "0".into(),
            reason: "a job needs at least one worker".into(),
        };
        assert_eq!(
            bad.to_string(),
            "invalid config: workers = 0: a job needs at least one worker"
        );
    }
}
