//! The tenant job zoo: what a multi-tenant training platform is asked to run.
//!
//! Each [`JobClass`] is a view over one row of the paper's Table 4
//! (`JobClass::workload`, a [`WorkloadId`]): its dataset, model, worker
//! count, learning rate and loss threshold are read from there, so the
//! §5.3 sampling estimator calibrates the fleet on exactly the values the
//! experiments train with. The class adds the paper-scale analytical
//! profile ([`AnalyticParams`]) the fleet simulator prices it with; its
//! dataset size is the dataset's own paper size, while its model bytes,
//! rounds and per-epoch compute are still typed here. Epoch counts are
//! calibrated defaults; the cost-aware scheduler can re-estimate them with
//! the §5.3 sampling estimator.

use crate::platform::FAAS_CASE;
use lml_analytic::model::{price, AnalyticParams, Substrate};
use lml_analytic::table4::WorkloadId;
use lml_models::zoo::DeepProfile;
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
    pub(crate) const ALL: [JobClass; 6] = [
        JobClass::LrHiggs,
        JobClass::SvmRcv1,
        JobClass::KmHiggs,
        JobClass::LrYfcc,
        JobClass::MnCifar,
        JobClass::RnCifar,
    ];

    pub(crate) fn name(self) -> &'static str {
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
    pub(crate) fn parse(s: &str) -> Option<JobClass> {
        JobClass::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The class an opaque public-trace id maps to — an Azure function
    /// id, a Google job id, an OpenDC function name. Deterministic: the
    /// FNV-1a hash of the id's bytes, modulo the zoo.
    pub(crate) fn for_trace_id(id: &str) -> JobClass {
        JobClass::ALL[(fnv1a(id) % JobClass::ALL.len() as u64) as usize]
    }

    /// The Table 4 row this class runs: its dataset, model, workers,
    /// learning rate and loss threshold.
    pub(crate) fn workload(self) -> WorkloadId {
        match self {
            JobClass::LrHiggs => WorkloadId::LrHiggs,
            JobClass::SvmRcv1 => WorkloadId::SvmRcv1,
            JobClass::KmHiggs => WorkloadId::KmHiggs,
            JobClass::LrYfcc => WorkloadId::LrYfcc,
            JobClass::MnCifar => WorkloadId::MnCifar,
            JobClass::RnCifar => WorkloadId::RnCifar,
        }
    }

    /// Table 4 worker counts (YFCC needs 100 workers to fit Lambda memory).
    pub fn default_workers(self) -> usize {
        self.workload().workers()
    }

    /// Training algorithm used when the sampling estimator re-calibrates
    /// the epoch count: the paper's best per class at the estimator's
    /// sample-scale batch (500 rows for convex models, 128 for deep ones).
    pub(crate) fn algorithm(self) -> Algorithm {
        let batch = match self {
            JobClass::MnCifar | JobClass::RnCifar => 128,
            _ => 500,
        };
        self.workload().best_algorithm(batch)
    }

    /// Default epochs-to-threshold (`R` in the §5.3 model). These are the
    /// calibrated single-job numbers; [`crate::scheduler::CostAware`] can
    /// overwrite them per class with a live estimator run.
    pub(crate) fn default_epochs(self) -> f64 {
        match self {
            JobClass::LrHiggs => 6.0,
            JobClass::SvmRcv1 => 8.0,
            JobClass::KmHiggs => 10.0,
            JobClass::LrYfcc => 5.0,
            JobClass::MnCifar => 15.0,
            JobClass::RnCifar => 15.0,
        }
    }

    /// Nominal single-job FaaS runtime (the fleet's FaaS case, default
    /// workers, startup excluded) — the yardstick deadlines are expressed
    /// against: `deadline = submit + slack × nominal_runtime`.
    pub fn nominal_runtime(self) -> SimTime {
        let (p, w) = (self.profile(), self.default_workers());
        price(&p, &FAAS_CASE, Substrate::Faas, w).run
    }

    /// Paper-scale analytical profile of one job of this class.
    pub(crate) fn profile(self) -> AnalyticParams {
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
            dataset_bytes: self.workload().dataset().paper_bytes().as_f64(),
            model_bytes,
            epochs: self.default_epochs(),
            rounds_per_epoch,
            compute_per_epoch,
        }
    }
}

/// FNV-1a 64-bit hash: stable across platforms and runs.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
    pub(crate) fn laxity(&self) -> Option<SimTime> {
        self.deadline.map(|d| d - self.submit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;
    use lml_models::ModelId;

    #[test]
    fn names_roundtrip() {
        for c in JobClass::ALL {
            assert_eq!(JobClass::parse(c.name()), Some(c));
        }
        assert_eq!(JobClass::parse("nope"), None);
    }

    #[test]
    fn trace_id_class_mapping_is_stable_and_spread() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("a"), 0xaf63_dc4c_8601_ec8c);
        // One id family per adapter: Azure function ids, Google job ids,
        // OpenDC function names. The hash is pinned above, and the six-way
        // mapping spreads distinct ids over several classes.
        for family in ["func-", "62537", "fn-"] {
            let classes: std::collections::BTreeSet<_> = (0..40)
                .map(|i| JobClass::for_trace_id(&format!("{family}{i}")))
                .collect();
            assert!(
                classes.len() >= 3,
                "{family}: only {} classes hit",
                classes.len()
            );
        }
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
        assert_eq!(JobClass::LrHiggs.workload().dataset(), DatasetId::Higgs);
        assert_eq!(JobClass::MnCifar.workload().model(), ModelId::MobileNet);
    }

    #[test]
    fn nominal_runtimes_order_convex_below_deep() {
        for c in JobClass::ALL {
            assert!(c.nominal_runtime().as_secs() > 0.0, "{c:?}");
        }
        assert!(JobClass::RnCifar.nominal_runtime() > JobClass::LrHiggs.nominal_runtime());
    }

    /// One line per class: the Table 4 values the fleet reads (dataset,
    /// model, default workers, the §5.3 calibration algorithm, `lr` and
    /// `threshold` as bits) and the profile's paper dataset bytes as bits.
    /// A mismatch prints the whole new table to paste over this one.
    const GOLDEN: &str = "\
lr-higgs dataset=Higgs model=Lr { l2: 0.0 } workers=10 algo=Admm { rho: 0.1, local_scans: 10, batch: 500 } lr=3fe0000000000000 threshold=3fe4a3d70a3d70a4 bytes=41fdcd6500000000
svm-rcv1 dataset=RCV1 model=Svm { l2: 0.0 } workers=5 algo=Admm { rho: 0.1, local_scans: 10, batch: 500 } lr=3ff0000000000000 threshold=3fcc28f5c28f5c29 bytes=41d1e1a300000000
km-higgs dataset=Higgs model=KMeans { k: 10 } workers=10 algo=Em lr=0000000000000000 threshold=4039800000000000 bytes=41fdcd6500000000
lr-yfcc dataset=YFCC100M model=Lr { l2: 0.0 } workers=100 algo=Admm { rho: 0.1, local_scans: 10, batch: 500 } lr=3fb999999999999a threshold=3fbeb851eb851eb8 bytes=422e80355e000000
mn-cifar dataset=Cifar10 model=MobileNet workers=10 algo=GaSgd { batch: 128 } lr=3fc3333333333333 threshold=3fc999999999999a bytes=41aa39de00000000
rn-cifar dataset=Cifar10 model=ResNet50 workers=10 algo=GaSgd { batch: 128 } lr=3fb999999999999a threshold=3fd999999999999a bytes=41aa39de00000000
";

    #[test]
    fn zoo_matches_the_golden_table() {
        let table: String = JobClass::ALL
            .iter()
            .map(|&c| {
                format!(
                    "{} dataset={} model={:?} workers={} algo={:?} lr={:016x} threshold={:016x} bytes={:016x}\n",
                    c.name(),
                    c.workload().dataset().name(),
                    c.workload().model(),
                    c.default_workers(),
                    c.algorithm(),
                    c.workload().lr().to_bits(),
                    c.workload().threshold().to_bits(),
                    c.profile().dataset_bytes.to_bits(),
                )
            })
            .collect();
        assert!(table == GOLDEN, "the job zoo moved; new table:\n{table}");
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
