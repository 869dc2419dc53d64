//! Table 4 of the paper, as code: the twelve workloads and their tuned
//! values.
//!
//! One home for every row's dataset, model, worker count, paper-scale
//! batch, learning rate and loss threshold. The experiment harness
//! (`lml-bench`'s registry) scales these rows to its samples, and the fleet
//! simulator's job classes are views over six of them, so the §5.3
//! estimator calibrates the fleet on exactly the values the experiments
//! train with.
//!
//! Loss thresholds are re-calibrated to the synthetic generators (the
//! achievable optima differ from the real datasets'); each sits slightly
//! above the empirically observed plateau so "time to threshold" is a
//! meaningful convergence measure, exactly as in the paper.

use lml_data::generators::DatasetId;
use lml_models::ModelId;
use lml_optim::Algorithm;

/// The paper's ADMM setting: each round scans the data ten times (§5.1).
pub const ADMM_LOCAL_SCANS: usize = 10;

/// One Table 4 row. `WorkloadId` selects the (model, dataset) pair with its
/// tuned hyper-parameters and thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    LrHiggs,
    SvmHiggs,
    KmHiggs,
    LrRcv1,
    SvmRcv1,
    KmRcv1,
    LrYfcc,
    SvmYfcc,
    KmYfcc,
    LrCriteo,
    MnCifar,
    RnCifar,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 12] = [
        WorkloadId::LrHiggs,
        WorkloadId::SvmHiggs,
        WorkloadId::KmHiggs,
        WorkloadId::LrRcv1,
        WorkloadId::SvmRcv1,
        WorkloadId::KmRcv1,
        WorkloadId::LrYfcc,
        WorkloadId::SvmYfcc,
        WorkloadId::KmYfcc,
        WorkloadId::LrCriteo,
        WorkloadId::MnCifar,
        WorkloadId::RnCifar,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::LrHiggs => "LR/Higgs",
            WorkloadId::SvmHiggs => "SVM/Higgs",
            WorkloadId::KmHiggs => "KMeans/Higgs",
            WorkloadId::LrRcv1 => "LR/RCV1",
            WorkloadId::SvmRcv1 => "SVM/RCV1",
            WorkloadId::KmRcv1 => "KMeans/RCV1",
            WorkloadId::LrYfcc => "LR/YFCC100M",
            WorkloadId::SvmYfcc => "SVM/YFCC100M",
            WorkloadId::KmYfcc => "KMeans/YFCC100M",
            WorkloadId::LrCriteo => "LR/Criteo",
            WorkloadId::MnCifar => "MobileNet/Cifar10",
            WorkloadId::RnCifar => "ResNet50/Cifar10",
        }
    }

    pub fn dataset(self) -> DatasetId {
        match self {
            WorkloadId::LrHiggs | WorkloadId::SvmHiggs | WorkloadId::KmHiggs => DatasetId::Higgs,
            WorkloadId::LrRcv1 | WorkloadId::SvmRcv1 | WorkloadId::KmRcv1 => DatasetId::Rcv1,
            WorkloadId::LrYfcc | WorkloadId::SvmYfcc | WorkloadId::KmYfcc => DatasetId::Yfcc100m,
            WorkloadId::LrCriteo => DatasetId::Criteo,
            WorkloadId::MnCifar | WorkloadId::RnCifar => DatasetId::Cifar10,
        }
    }

    pub fn model(self) -> ModelId {
        match self {
            WorkloadId::LrHiggs
            | WorkloadId::LrRcv1
            | WorkloadId::LrYfcc
            | WorkloadId::LrCriteo => ModelId::Lr { l2: 0.0 },
            WorkloadId::SvmHiggs | WorkloadId::SvmRcv1 | WorkloadId::SvmYfcc => {
                ModelId::Svm { l2: 0.0 }
            }
            WorkloadId::KmHiggs | WorkloadId::KmYfcc => ModelId::KMeans { k: 10 },
            WorkloadId::KmRcv1 => ModelId::KMeans { k: 3 },
            WorkloadId::MnCifar => ModelId::MobileNet,
            WorkloadId::RnCifar => ModelId::ResNet50,
        }
    }

    /// Table 4 worker counts.
    pub fn workers(self) -> usize {
        match self {
            WorkloadId::LrHiggs | WorkloadId::SvmHiggs | WorkloadId::KmHiggs => 10,
            WorkloadId::LrRcv1 | WorkloadId::SvmRcv1 => 5,
            WorkloadId::KmRcv1 => 50,
            // YFCC partitions only fit Lambda's 3 GB at ≥100 workers
            // (65.5 GB / 100 = 0.66 GB) — the paper's W=100 is a memory
            // requirement, not a tuning choice.
            WorkloadId::LrYfcc | WorkloadId::SvmYfcc | WorkloadId::KmYfcc => 100,
            WorkloadId::LrCriteo => 10,
            WorkloadId::MnCifar | WorkloadId::RnCifar => 10,
        }
    }

    /// Paper-scale per-worker batch size (Table 4 / §4.1).
    pub fn paper_batch(self) -> usize {
        match self {
            WorkloadId::LrHiggs | WorkloadId::SvmHiggs | WorkloadId::KmHiggs => 10_000,
            WorkloadId::LrRcv1 | WorkloadId::SvmRcv1 | WorkloadId::KmRcv1 => 2_000,
            WorkloadId::LrYfcc | WorkloadId::SvmYfcc | WorkloadId::KmYfcc => 800,
            // Criteo's 1 M-dim model pays O(dim) per SGD step for its
            // gradient buffers; the paper-scale batch keeps steps/epoch low
            // enough that this is tractable, so the sample batch must too
            // (≈64 after scaling, see `DatasetSpec::scaled_batch`'s floor).
            WorkloadId::LrCriteo => 650_000,
            WorkloadId::MnCifar => 128,
            WorkloadId::RnCifar => 32,
        }
    }

    /// Tuned learning rate (the paper tunes in [0.001, 1]).
    pub fn lr(self) -> f64 {
        match self {
            WorkloadId::LrHiggs => 0.5,
            WorkloadId::SvmHiggs => 0.3,
            WorkloadId::LrRcv1 | WorkloadId::SvmRcv1 => 1.0,
            WorkloadId::LrYfcc | WorkloadId::SvmYfcc => 0.1,
            WorkloadId::LrCriteo => 0.5,
            WorkloadId::MnCifar => 0.15,
            WorkloadId::RnCifar => 0.1,
            _ => 0.0, // k-means (EM has no learning rate)
        }
    }

    /// Validation-loss threshold, calibrated to the synthetic generators
    /// (slightly above the observed plateau).
    pub fn threshold(self) -> f64 {
        match self {
            WorkloadId::LrHiggs => 0.645,
            WorkloadId::SvmHiggs => 0.80,
            WorkloadId::KmHiggs => 25.5,
            WorkloadId::LrRcv1 => 0.35,
            WorkloadId::SvmRcv1 => 0.22,
            WorkloadId::KmRcv1 => 0.30,
            WorkloadId::LrYfcc => 0.12,
            WorkloadId::SvmYfcc => 0.06,
            WorkloadId::KmYfcc => 333.0,
            WorkloadId::LrCriteo => 0.48,
            WorkloadId::MnCifar => 0.20,
            WorkloadId::RnCifar => 0.40,
        }
    }

    /// The most suitable algorithm per the paper's findings at a mini-batch
    /// of `batch`: ADMM for convex models, EM for k-means, GA-SGD for deep
    /// models.
    pub fn best_algorithm(self, batch: usize) -> Algorithm {
        match self.model() {
            ModelId::KMeans { .. } => Algorithm::Em,
            ModelId::MobileNet | ModelId::ResNet50 => Algorithm::GaSgd { batch },
            _ => Algorithm::Admm {
                rho: 0.1,
                local_scans: ADMM_LOCAL_SCANS,
                batch,
            },
        }
    }
}
