//! The public entry point: configure a training job, run it, get the
//! paper's metrics back.

use crate::config::{Backend, JobConfig};
use crate::executor;
use crate::result::RunResult;
use lml_data::generators::Generated;
use lml_data::transform::train_valid_split;
use lml_data::{Dataset, DatasetSpec};
use lml_faas::{FaasError, LambdaSpec};
use lml_iaas::InstanceType;
use lml_models::{AnyModel, ModelId};
use lml_optim::{Algorithm, LrSchedule};
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
    pub(crate) fn scale_inv(&self) -> f64 {
        self.spec.paper_instances as f64 / self.spec.sample_instances as f64
    }
}

/// Why a job could not run (or had to abort).
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The storage channel refused an operation (e.g. DynamoDB's 400 KB
    /// item cap rejecting a MobileNet payload — Table 1's "N/A").
    Storage(StorageError),
    /// The FaaS runtime refused: the working set exceeds the function's
    /// memory (e.g. ResNet50 with batch 64, §5.2).
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
    /// A `JobConfig` field, a `ModelId` parameter, or the workload's
    /// training or validation set holds a value no executor can run, e.g.
    /// zero workers or a negative L2 weight.
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
    /// executor, or run to a meaningless `Ok` (a NaN loss, a batch of one
    /// row where zero was asked for, rounds that never finish an epoch, a
    /// Lambda memory size outside the service's range).
    fn check_config(&self) -> Result<(), JobError> {
        let cfg = &self.config;
        let invalid = |field, value: &str, reason: &str| {
            Err(JobError::InvalidConfig {
                field,
                value: value.to_string(),
                reason: reason.to_string(),
            })
        };
        let workers = cfg.workers;
        let rows = self.workload.train.len();
        let partitioned = !matches!(cfg.backend, Backend::Single { .. });
        if rows == 0 {
            return invalid("train", "0 rows", "a job needs at least one training row");
        }
        if self.workload.valid.is_empty() {
            let reason = "the validation loss needs at least one row";
            return invalid("valid", "0 rows", reason);
        }
        match self.model_id {
            ModelId::Lr { l2 } | ModelId::Svm { l2 } if !(l2.is_finite() && l2 >= 0.0) => {
                let reason = "the L2 weight must be finite and non-negative";
                return invalid("l2", &l2.to_string(), reason);
            }
            ModelId::KMeans { k: 0 } => {
                return invalid("k", "0", "k-means needs at least one cluster");
            }
            ModelId::KMeans { k } if k > rows => {
                let reason = format!("k-means needs k distinct training rows and has {rows}");
                return invalid("k", &k.to_string(), &reason);
            }
            _ => {}
        }
        if workers == 0 {
            return invalid("workers", "0", "a job needs at least one worker");
        }
        if partitioned && workers > rows {
            let reason = format!(
                "{} splits {rows} training rows over the workers, so some would get none",
                cfg.backend.name()
            );
            return invalid("workers", &workers.to_string(), &reason);
        }
        if let Backend::Faas { spec, .. } | Backend::Hybrid { spec, .. } = cfg.backend {
            if let Err(e) = LambdaSpec::with_memory_mb(spec.memory_mb) {
                return invalid("memory_mb", &spec.memory_mb.to_string(), &e.to_string());
            }
        }
        // 0 is a legal rate: EM ignores it and its jobs pass 0.
        let (base, factor) = match cfg.lr {
            LrSchedule::Const(lr) => (lr, 1.0),
            LrSchedule::InvSqrt { base } => (base, 1.0),
            LrSchedule::StepDecay { base, factor, .. } => (base, factor),
        };
        if let Some(v) = [base, factor].into_iter().find(|v| !v.is_finite()) {
            let reason = "a learning-rate parameter must be finite";
            return invalid("lr", &v.to_string(), reason);
        }
        match cfg.algorithm {
            Algorithm::GaSgd { batch: 0 }
            | Algorithm::MaSgd { batch: 0, .. }
            | Algorithm::Admm { batch: 0, .. } => {
                return invalid("batch", "0", "a mini-batch needs at least one row");
            }
            Algorithm::MaSgd { local_iters: 0, .. } => {
                return invalid("local_iters", "0", "a round needs at least one local step");
            }
            Algorithm::Admm { local_scans: 0, .. } => {
                let reason = "a round needs at least one pass over the partition";
                return invalid("local_scans", "0", reason);
            }
            Algorithm::Admm { rho, .. } if !(rho.is_finite() && rho >= 0.0) => {
                let reason = "the ADMM penalty must be finite and non-negative";
                return invalid("rho", &rho.to_string(), reason);
            }
            _ => {}
        }
        if cfg.stop.target_loss.is_nan() {
            return invalid("target_loss", "NaN", "no loss reaches a NaN target");
        }
        if cfg.stop.max_epochs == 0 {
            return invalid("max_epochs", "0", "a job needs at least one epoch to train");
        }
        // +∞ is legal: `max_epochs` bounds the run.
        let max_time = cfg.stop.max_time.as_secs();
        if max_time.is_nan() || max_time <= 0.0 {
            let reason = "the time cap must be positive";
            return invalid("max_time", &max_time.to_string(), reason);
        }
        Ok(())
    }

    /// Execute the job on its configured backend.
    pub fn run(&self) -> Result<RunResult, JobError> {
        self.check_config()?;
        let model = self.build_model();
        if !self.config.algorithm.applicable(&model) {
            return Err(JobError::NotApplicable(format!(
                "{} cannot train {} (§4.2)",
                self.config.algorithm.name(),
                self.model_id.name(),
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

    /// The field `check_config` names for `job` with `edit` applied, or
    /// `None` when the job runs.
    fn rejected_field(wl: &Workload, edit: impl FnOnce(&mut JobConfig)) -> Option<&'static str> {
        let mut job = lr_on_higgs(wl, 4);
        // Past any accidental run-away: a job that escapes the check stops here.
        job.config.stop = job
            .config
            .stop
            .with_max_time(lml_sim::SimTime::secs(3_600.0));
        edit(&mut job.config);
        match job.run() {
            Err(JobError::InvalidConfig { field, .. }) => Some(field),
            _ => None,
        }
    }

    /// The field `check_config` names for `lr_on_higgs` on 10 IaaS
    /// workers with `model` trained by `algo` instead, or `None` when the
    /// job runs.
    fn rejected_model(wl: &Workload, model: ModelId, algo: Algorithm) -> Option<&'static str> {
        let mut job = lr_on_higgs(wl, 10);
        job.model_id = model;
        job.config = job.config.with_backend(Backend::iaas_default());
        job.config.algorithm = algo;
        match job.run() {
            Err(JobError::InvalidConfig { field, .. }) => Some(field),
            _ => None,
        }
    }

    const SGD: Algorithm = Algorithm::GaSgd { batch: 10 };

    fn higgs400() -> Workload {
        Workload::from_generated(&DatasetId::Higgs.generate_rows(400, 1), 1)
    }

    #[test]
    fn non_finite_learning_rate_parameters_are_rejected() {
        let wl = higgs400();
        for lr in [
            LrSchedule::Const(f64::NAN),
            LrSchedule::Const(f64::INFINITY),
            LrSchedule::InvSqrt {
                base: f64::NEG_INFINITY,
            },
            LrSchedule::StepDecay {
                base: 0.1,
                factor: f64::NAN,
                every: 1,
            },
        ] {
            assert_eq!(rejected_field(&wl, |c| c.lr = lr), Some("lr"), "{lr:?}");
        }
        assert_eq!(rejected_field(&wl, |c| c.lr = LrSchedule::Const(0.0)), None);
    }

    #[test]
    fn zero_batch_is_rejected() {
        let wl = higgs400();
        for algo in [
            Algorithm::GaSgd { batch: 0 },
            Algorithm::MaSgd {
                batch: 0,
                local_iters: 2,
            },
            Algorithm::Admm {
                rho: 0.1,
                local_scans: 1,
                batch: 0,
            },
        ] {
            assert_eq!(
                rejected_field(&wl, |c| c.algorithm = algo),
                Some("batch"),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn zero_local_steps_are_rejected() {
        let wl = higgs400();
        let ma = Algorithm::MaSgd {
            batch: 10,
            local_iters: 0,
        };
        assert_eq!(
            rejected_field(&wl, |c| c.algorithm = ma),
            Some("local_iters")
        );
        let admm = Algorithm::Admm {
            rho: 0.1,
            local_scans: 0,
            batch: 10,
        };
        assert_eq!(
            rejected_field(&wl, |c| c.algorithm = admm),
            Some("local_scans")
        );
    }

    #[test]
    fn negative_or_non_finite_rho_is_rejected() {
        let wl = higgs400();
        for rho in [-0.1, f64::NAN, f64::INFINITY] {
            let admm = Algorithm::Admm {
                rho,
                local_scans: 1,
                batch: 10,
            };
            assert_eq!(
                rejected_field(&wl, |c| c.algorithm = admm),
                Some("rho"),
                "{rho}"
            );
        }
        let free = Algorithm::Admm {
            rho: 0.0,
            local_scans: 1,
            batch: 10,
        };
        assert_eq!(rejected_field(&wl, |c| c.algorithm = free), None);
    }

    #[test]
    fn nan_target_loss_is_rejected() {
        let wl = higgs400();
        assert_eq!(
            rejected_field(&wl, |c| c.stop.target_loss = f64::NAN),
            Some("target_loss")
        );
    }

    #[test]
    fn zero_max_epochs_is_rejected() {
        let wl = higgs400();
        assert_eq!(
            rejected_field(&wl, |c| c.stop.max_epochs = 0),
            Some("max_epochs")
        );
    }

    /// A NaN or non-positive time cap is rejected; +∞ runs, bounded by
    /// `max_epochs`.
    #[test]
    fn nan_or_non_positive_max_time_is_rejected() {
        let wl = higgs400();
        for t in [f64::NAN, 0.0, -1.0] {
            let cap = |c: &mut JobConfig| c.stop.max_time = lml_sim::SimTime::secs(t);
            assert_eq!(rejected_field(&wl, cap), Some("max_time"), "{t}");
        }
        let unbounded = |c: &mut JobConfig| c.stop.max_time = lml_sim::SimTime::secs(f64::INFINITY);
        assert_eq!(rejected_field(&wl, unbounded), None);
    }

    /// A Lambda function has 128 to 3,008 MB (§2.2), so a FaaS or hybrid
    /// job sized outside that range is rejected, not billed at that size.
    #[test]
    fn out_of_range_lambda_memory_is_rejected() {
        let wl = higgs400();
        for backend in [Backend::faas_default(), Backend::hybrid_default()] {
            for (mb, want) in [
                (64, Some("memory_mb")),
                (100_000, Some("memory_mb")),
                (3_008, None),
            ] {
                let sized = |c: &mut JobConfig| {
                    c.backend = backend;
                    if let Backend::Faas { spec, .. } | Backend::Hybrid { spec, .. } =
                        &mut c.backend
                    {
                        spec.memory_mb = mb;
                    }
                };
                assert_eq!(
                    rejected_field(&wl, sized),
                    want,
                    "{} at {mb} MB",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn empty_validation_set_is_rejected() {
        let mut wl = higgs400();
        wl.valid = wl.valid.subset(&[]);
        assert_eq!(rejected_field(&wl, |_| {}), Some("valid"));
    }

    /// `Single` skips the workers-per-row check, so an empty training set
    /// needs its own.
    #[test]
    fn empty_training_set_is_rejected() {
        let mut wl = higgs400();
        wl.train = wl.train.subset(&[]);
        let single = Backend::Single {
            instance: InstanceType::C5XLarge4,
        };
        assert_eq!(rejected_field(&wl, |c| c.backend = single), Some("train"));
    }

    #[test]
    fn nan_l2_is_rejected() {
        let wl = higgs400();
        for model in [ModelId::Lr { l2: f64::NAN }, ModelId::Svm { l2: f64::NAN }] {
            assert_eq!(rejected_model(&wl, model, SGD), Some("l2"), "{model:?}");
        }
    }

    #[test]
    fn negative_l2_is_rejected() {
        let wl = higgs400();
        for model in [ModelId::Lr { l2: -1.0 }, ModelId::Svm { l2: -0.5 }] {
            assert_eq!(rejected_model(&wl, model, SGD), Some("l2"), "{model:?}");
        }
        assert_eq!(rejected_model(&wl, ModelId::Svm { l2: 0.01 }, SGD), None);
    }

    /// An infinite L2 weight would run to a NaN loss.
    #[test]
    fn infinite_l2_is_rejected() {
        let wl = higgs400();
        for model in [
            ModelId::Lr { l2: f64::INFINITY },
            ModelId::Svm { l2: f64::INFINITY },
        ] {
            assert_eq!(rejected_model(&wl, model, SGD), Some("l2"), "{model:?}");
        }
    }

    #[test]
    fn zero_clusters_is_rejected() {
        let wl = higgs400();
        let km = ModelId::KMeans { k: 0 };
        assert_eq!(rejected_model(&wl, km, Algorithm::Em), Some("k"));
    }

    /// K-means seeds each centroid from a distinct training row, so `k`
    /// may reach the 360 training rows but not pass them.
    #[test]
    fn more_clusters_than_training_rows_is_rejected() {
        let wl = higgs400();
        let km = |k| ModelId::KMeans { k };
        assert_eq!(rejected_model(&wl, km(10_000), Algorithm::Em), Some("k"));
        assert_eq!(rejected_model(&wl, km(361), Algorithm::Em), Some("k"));
        assert_eq!(rejected_model(&wl, km(360), Algorithm::Em), None);
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
