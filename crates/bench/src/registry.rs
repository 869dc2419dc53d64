//! The workload registry: Table 4 of the paper, scaled to the sample sizes
//! of this reproduction.
//!
//! Loss thresholds are re-calibrated to the synthetic generators (the
//! achievable optima differ from the real datasets'); each sits slightly
//! above the empirically observed plateau so "time to threshold" is a
//! meaningful convergence measure, exactly as in the paper.

use crate::Harness;
use lml_core::job::Workload;
use lml_core::JobConfig;
use lml_data::generators::DatasetId;
use lml_models::ModelId;
use lml_optim::{Algorithm, StopSpec};

/// A ready-to-run workload: dataset + model + tuned hyper-parameters.
pub struct Named {
    pub name: &'static str,
    pub workload: Workload,
    pub model: ModelId,
    pub config: JobConfig,
}

/// Default sample rows per dataset under the harness mode.
pub fn sample_rows(id: DatasetId, h: &Harness) -> usize {
    let fast = h.fast;
    match id {
        DatasetId::Higgs => {
            if fast {
                10_000
            } else {
                110_000
            }
        }
        DatasetId::Rcv1 => {
            if fast {
                2_000
            } else {
                6_970
            }
        }
        DatasetId::Cifar10 => {
            if fast {
                4_000
            } else {
                6_000
            }
        }
        DatasetId::Yfcc100m => {
            if fast {
                1_500
            } else {
                4_000
            }
        }
        DatasetId::Criteo => {
            if fast {
                5_000
            } else {
                10_000
            }
        }
    }
}

/// Build the workload (generate + 90/10 split).
pub fn workload(id: DatasetId, h: &Harness) -> Workload {
    let g = id.generate_rows(sample_rows(id, h), h.seed);
    Workload::from_generated(&g, h.seed)
}

/// Convert a paper-scale per-worker batch to the sample scale.
pub fn scaled_batch(wl: &Workload, paper_batch: usize) -> usize {
    wl.spec.scaled_batch(paper_batch)
}

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

    /// Table 4 worker counts (KM-RCV1 reduced in fast mode).
    pub fn workers(self, h: &Harness) -> usize {
        match self {
            WorkloadId::LrHiggs | WorkloadId::SvmHiggs | WorkloadId::KmHiggs => 10,
            WorkloadId::LrRcv1 | WorkloadId::SvmRcv1 => 5,
            WorkloadId::KmRcv1 => {
                if h.fast {
                    10
                } else {
                    50
                }
            }
            // YFCC partitions only fit Lambda's 3 GB at ≥100 workers
            // (65.5 GB / 100 = 0.66 GB) — the paper's W=100 is a memory
            // requirement, not a tuning choice, so fast mode keeps it.
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
            // (≈64 after scaling, see scaled_batch's floor).
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

    /// Max epochs before giving up (smaller in fast mode).
    pub fn max_epochs(self, h: &Harness) -> usize {
        let base = match self {
            WorkloadId::MnCifar | WorkloadId::RnCifar => 25,
            _ => 60,
        };
        if h.fast {
            base.min(20)
        } else {
            base
        }
    }

    /// The most suitable algorithm per the paper's findings: ADMM for
    /// convex models, EM for k-means, GA-SGD for deep models.
    pub fn best_algorithm(self, wl: &Workload) -> Algorithm {
        let batch = scaled_batch(wl, self.paper_batch());
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

    /// Plain GA-SGD at the scaled batch (the baseline algorithm).
    pub fn ga_sgd(self, wl: &Workload) -> Algorithm {
        Algorithm::GaSgd {
            batch: scaled_batch(wl, self.paper_batch()),
        }
    }

    /// Build the full named workload with its default (best-algorithm,
    /// FaaS) configuration.
    pub fn build(self, h: &Harness) -> Named {
        let wl = workload(self.dataset(), h);
        let algo = self.best_algorithm(&wl);
        let config = JobConfig::new(
            self.workers(h),
            algo,
            self.lr(),
            StopSpec::new(self.threshold(), self.max_epochs(h)),
        )
        .with_seed(h.seed);
        Named {
            name: self.name(),
            workload: wl,
            model: self.model(),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_table4() {
        assert_eq!(WorkloadId::ALL.len(), 12);
        let h = Harness::default();
        for id in WorkloadId::ALL {
            let n = id.build(&h);
            assert!(!n.workload.train.is_empty());
            assert!(n.config.workers >= 1);
            assert!(n.config.stop.target_loss > 0.0);
        }
    }

    #[test]
    fn best_algorithms_respect_applicability() {
        let h = Harness::default();
        for id in [
            WorkloadId::LrHiggs,
            WorkloadId::KmHiggs,
            WorkloadId::MnCifar,
        ] {
            let n = id.build(&h);
            let model = n.model.build(&n.workload.train, 1);
            assert!(n.config.algorithm.applicable(&model), "{}", id.name());
        }
    }

    #[test]
    fn scaled_batches_preserve_round_structure() {
        let h = Harness::default();
        let n = WorkloadId::LrHiggs.build(&h);
        // paper: (11M/10 workers)/10K batch = 110 rounds/epoch;
        // sample: (9K/10)/scaled-batch should be within 2×.
        let scaled = scaled_batch(&n.workload, 10_000);
        let rounds = (n.workload.train.len() / 10) as f64 / scaled as f64;
        assert!((50.0..220.0).contains(&rounds), "rounds/epoch {rounds}");
    }
}
