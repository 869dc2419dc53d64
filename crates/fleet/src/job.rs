//! The tenant job zoo: what a multi-tenant training platform is asked to run.
//!
//! Each [`JobClass`] names one (model, dataset) pair from the repository's
//! zoo — the same pairs as the paper's Table 4 — together with the
//! paper-scale analytical profile ([`AnalyticParams`]) the fleet simulator
//! prices it with. Epoch counts are calibrated defaults; the cost-aware
//! scheduler can re-estimate them with the §5.3 sampling estimator.

use lml_analytic::model::{price, AnalyticCase, AnalyticParams, Substrate};
use lml_data::generators::DatasetId;
use lml_models::zoo::DeepProfile;
use lml_models::ModelId;
use lml_optim::Algorithm;
use lml_sim::SimTime;

/// A job class in the fleet workload: one Table 4 (model, dataset) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum JobClass {
    /// Logistic regression on Higgs (8 GB, tiny 224 B model).
    LrHiggs,
    /// Linear SVM on RCV1 (1.2 GB, sparse 378 KB model).
    SvmRcv1,
    /// K-means (k=10) on Higgs (EM, one exchange per epoch).
    KmHiggs,
    /// Logistic regression on YFCC100M (65.5 GB, 32 KB model, 100 workers).
    LrYfcc,
    /// MobileNet on Cifar10 (GA-SGD, 12 MB messages, 422 rounds/epoch).
    MnCifar,
    /// ResNet50 on Cifar10 (GA-SGD, 89 MB messages, communication-bound).
    RnCifar,
}

impl JobClass {
    pub const ALL: [JobClass; 6] = [
        JobClass::LrHiggs,
        JobClass::SvmRcv1,
        JobClass::KmHiggs,
        JobClass::LrYfcc,
        JobClass::MnCifar,
        JobClass::RnCifar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            JobClass::LrHiggs => "lr-higgs",
            JobClass::SvmRcv1 => "svm-rcv1",
            JobClass::KmHiggs => "km-higgs",
            JobClass::LrYfcc => "lr-yfcc",
            JobClass::MnCifar => "mn-cifar",
            JobClass::RnCifar => "rn-cifar",
        }
    }

    /// Inverse of [`JobClass::name`], used by the trace text format.
    pub fn parse(s: &str) -> Option<JobClass> {
        JobClass::ALL.into_iter().find(|c| c.name() == s)
    }

    pub fn dataset(self) -> DatasetId {
        match self {
            JobClass::LrHiggs | JobClass::KmHiggs => DatasetId::Higgs,
            JobClass::SvmRcv1 => DatasetId::Rcv1,
            JobClass::LrYfcc => DatasetId::Yfcc100m,
            JobClass::MnCifar | JobClass::RnCifar => DatasetId::Cifar10,
        }
    }

    pub fn model(self) -> ModelId {
        match self {
            JobClass::LrHiggs | JobClass::LrYfcc => ModelId::Lr { l2: 0.0 },
            JobClass::SvmRcv1 => ModelId::Svm { l2: 0.0 },
            JobClass::KmHiggs => ModelId::KMeans { k: 10 },
            JobClass::MnCifar => ModelId::MobileNet,
            JobClass::RnCifar => ModelId::ResNet50,
        }
    }

    /// Table 4 worker counts (YFCC needs 100 workers to fit Lambda memory).
    pub fn default_workers(self) -> usize {
        match self {
            JobClass::SvmRcv1 => 5,
            JobClass::LrYfcc => 100,
            _ => 10,
        }
    }

    /// Training algorithm used when the sampling estimator re-calibrates
    /// the epoch count (ADMM for convex models, EM for k-means, GA-SGD for
    /// deep models — the paper's best-per-class choices).
    pub fn algorithm(self) -> Algorithm {
        match self {
            JobClass::KmHiggs => Algorithm::Em,
            JobClass::MnCifar | JobClass::RnCifar => Algorithm::GaSgd { batch: 128 },
            _ => Algorithm::Admm {
                rho: 0.1,
                local_scans: 10,
                batch: 500,
            },
        }
    }

    /// Tuned learning rate for the estimator run.
    pub fn lr(self) -> f64 {
        match self {
            JobClass::LrHiggs => 0.5,
            JobClass::SvmRcv1 => 1.0,
            JobClass::LrYfcc => 0.1,
            JobClass::MnCifar => 0.15,
            JobClass::RnCifar => 0.1,
            JobClass::KmHiggs => 0.0,
        }
    }

    /// Convergence threshold for the estimator run (calibrated to the
    /// synthetic generators, as in the bench registry).
    pub fn threshold(self) -> f64 {
        match self {
            JobClass::LrHiggs => 0.645,
            JobClass::SvmRcv1 => 0.22,
            JobClass::KmHiggs => 25.5,
            JobClass::LrYfcc => 0.12,
            JobClass::MnCifar => 0.20,
            JobClass::RnCifar => 0.40,
        }
    }

    /// Default epochs-to-threshold (`R` in the §5.3 model). These are the
    /// calibrated single-job numbers; [`crate::scheduler::CostAware`] can
    /// overwrite them per class with a live estimator run.
    pub fn default_epochs(self) -> f64 {
        match self {
            JobClass::LrHiggs => 6.0,
            JobClass::SvmRcv1 => 8.0,
            JobClass::KmHiggs => 10.0,
            JobClass::LrYfcc => 5.0,
            JobClass::MnCifar => 15.0,
            JobClass::RnCifar => 15.0,
        }
    }

    /// Whole epochs the lifecycle machine tracks for this class: `R`
    /// rounded up to a whole number of epoch-granular checkpoints.
    pub fn epoch_count(self) -> u32 {
        (self.default_epochs().ceil() as u32).max(1)
    }

    /// Nominal single-job FaaS runtime (S3 channel, default workers,
    /// startup excluded) — the yardstick deadlines are expressed against:
    /// `deadline = submit + slack × nominal_runtime`.
    pub fn nominal_runtime(self) -> SimTime {
        let (p, w) = (self.profile(), self.default_workers());
        price(&p, &AnalyticCase::faas_s3(), Substrate::Faas, w).run
    }

    /// Paper-scale analytical profile of one job of this class.
    pub fn profile(self) -> AnalyticParams {
        let spec_bytes = match self.dataset() {
            DatasetId::Higgs => 8e9,
            DatasetId::Rcv1 => 1.2e9,
            DatasetId::Yfcc100m => 65.5e9,
            DatasetId::Cifar10 => 220e6,
            DatasetId::Criteo => 30e9,
        };
        let (model_bytes, rounds_per_epoch, compute_per_epoch) = match self {
            // 28 × f64 weights; ADMM exchanges once per 10 local scans.
            JobClass::LrHiggs => (224.0, 0.1, 70.0),
            // 47,236 × f64 sparse model; small dataset, cheap epochs.
            JobClass::SvmRcv1 => (378e3, 0.1, 9.0),
            // k·(d+1) sufficient statistics, one EM exchange per epoch.
            JobClass::KmHiggs => (2_320.0, 1.0, 210.0),
            // 4096 × f64 model over the 65.5 GB photo features.
            JobClass::LrYfcc => (32_768.0, 0.1, 520.0),
            // Paper payloads; 60 K images / 128-batch ≈ 422 rounds/epoch.
            JobClass::MnCifar => (DeepProfile::MOBILENET.wire_bytes.as_f64(), 422.0, 1_700.0),
            // 60 K / 32 ≈ 1 875 rounds/epoch of 89 MB messages.
            JobClass::RnCifar => (DeepProfile::RESNET50.wire_bytes.as_f64(), 1_875.0, 12_000.0),
        };
        AnalyticParams {
            dataset_bytes: spec_bytes,
            model_bytes,
            epochs: self.default_epochs(),
            rounds_per_epoch,
            compute_per_epoch,
        }
    }
}

/// Identity of the tenant submitting a job. Tenants are dense small
/// integers; the fair-share scheduler assigns each a weight (default 1).
pub type TenantId = u32;

/// One submitted training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobRequest {
    /// Stable id: index in submission order.
    pub id: u64,
    pub class: JobClass,
    /// Submission (arrival) time.
    pub submit: SimTime,
    /// Degree of parallelism requested.
    pub workers: usize,
    /// Submitting tenant.
    pub tenant: TenantId,
    /// Optional completion deadline (absolute sim time).
    pub deadline: Option<SimTime>,
}

impl JobRequest {
    /// A deadline-less single-tenant request — the PR-1 constructor shape,
    /// kept for tests and hand-built traces.
    pub fn new(id: u64, class: JobClass, submit: SimTime, workers: usize) -> Self {
        JobRequest {
            id,
            class,
            submit,
            workers,
            tenant: 0,
            deadline: None,
        }
    }

    /// Laxity against the deadline: how many seconds after submission the
    /// job may take and still hit it. `None` when no deadline is set.
    pub fn laxity(&self) -> Option<SimTime> {
        self.deadline.map(|d| d - self.submit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for c in JobClass::ALL {
            assert_eq!(JobClass::parse(c.name()), Some(c));
        }
        assert_eq!(JobClass::parse("nope"), None);
    }

    #[test]
    fn profiles_are_sane() {
        for c in JobClass::ALL {
            let p = c.profile();
            assert!(p.dataset_bytes > 0.0, "{c:?}");
            assert!(p.model_bytes > 0.0, "{c:?}");
            assert!(p.epochs > 0.0 && p.rounds_per_epoch > 0.0, "{c:?}");
            assert!(c.default_workers() >= 1);
        }
    }

    #[test]
    fn deep_classes_carry_paper_payloads() {
        assert_eq!(JobClass::MnCifar.profile().model_bytes, 12e6);
        assert_eq!(JobClass::RnCifar.profile().model_bytes, 89e6);
    }

    #[test]
    fn zoo_links_back_to_model_and_dataset_ids() {
        assert_eq!(JobClass::LrHiggs.dataset(), DatasetId::Higgs);
        assert_eq!(JobClass::MnCifar.model(), ModelId::MobileNet);
    }

    #[test]
    fn epoch_counts_round_up_and_stay_positive() {
        for c in JobClass::ALL {
            assert!(c.epoch_count() >= 1, "{c:?}");
            assert!(c.epoch_count() as f64 >= c.default_epochs(), "{c:?}");
        }
        assert_eq!(JobClass::LrHiggs.epoch_count(), 6);
        assert_eq!(JobClass::RnCifar.epoch_count(), 15);
    }

    #[test]
    fn nominal_runtimes_order_convex_below_deep() {
        for c in JobClass::ALL {
            assert!(c.nominal_runtime().as_secs() > 0.0, "{c:?}");
        }
        assert!(JobClass::RnCifar.nominal_runtime() > JobClass::LrHiggs.nominal_runtime());
    }

    #[test]
    fn laxity_measures_submit_to_deadline() {
        let mut j = JobRequest::new(0, JobClass::LrHiggs, SimTime::secs(10.0), 10);
        assert_eq!(j.tenant, 0);
        assert_eq!(j.laxity(), None);
        j.deadline = Some(SimTime::secs(70.0));
        assert_eq!(j.laxity(), Some(SimTime::secs(60.0)));
    }
}
