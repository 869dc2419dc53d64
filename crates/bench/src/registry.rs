//! The workload registry: the harness's view of Table 4.
//!
//! The rows themselves ([`WorkloadId`]: dataset, model, workers, paper
//! batch, learning rate, loss threshold) live in `lml_analytic::table4`.
//! This module only scales them to the harness: sample sizes and the
//! fast-mode worker override, epoch caps, the algorithms at the sample's
//! scaled batch, and a ready-to-run [`Named`] workload.

use crate::Harness;
use lml_analytic::table4::WorkloadId;
use lml_core::job::Workload;
use lml_core::{JobConfig, JobError, RunResult, TrainingJob};
use lml_data::generators::DatasetId;
use lml_models::ModelId;
use lml_optim::{Algorithm, StopSpec};

/// A ready-to-run workload: dataset + model + tuned hyper-parameters.
pub struct Named {
    pub workload: Workload,
    pub model: ModelId,
    pub config: JobConfig,
}

impl Named {
    /// Train the model on the workload under `cfg`.
    pub(crate) fn run(&self, cfg: JobConfig) -> Result<RunResult, JobError> {
        TrainingJob::new(&self.workload, self.model, cfg).run()
    }
}

/// Sample rows per dataset under the harness mode: a reduced sample in
/// fast mode, the generator's default sample in full mode.
pub(crate) fn sample_rows(id: DatasetId, h: &Harness) -> usize {
    match (id, h.fast) {
        (DatasetId::Higgs, true) => 10_000,
        (DatasetId::Rcv1, true) => 2_000,
        (DatasetId::Cifar10, true) => 4_000,
        (DatasetId::Yfcc100m, true) => 1_500,
        (DatasetId::Criteo, true) => 5_000,
        // Twice YFCC's default sample. The reason was not recorded: the
        // value dates from the first commit. At YFCC's 100 workers it gives
        // each worker 36 training rows rather than 18.
        (DatasetId::Yfcc100m, false) => 4_000,
        (_, false) => id.default_rows(),
    }
}

/// Build the workload (generate + 90/10 split).
pub fn workload(id: DatasetId, h: &Harness) -> Workload {
    let g = id.generate_rows(sample_rows(id, h), h.seed);
    Workload::from_generated(&g, h.seed)
}

/// Table 4 worker count, with KM-RCV1 reduced in fast mode. YFCC keeps
/// its 100 workers: its partitions only fit Lambda's memory at that width.
pub fn workers(id: WorkloadId, h: &Harness) -> usize {
    if h.fast && id == WorkloadId::KmRcv1 {
        10
    } else {
        id.workers()
    }
}

/// Max epochs before giving up (smaller in fast mode).
pub fn max_epochs(id: WorkloadId, h: &Harness) -> usize {
    let base = match id {
        WorkloadId::MnCifar | WorkloadId::RnCifar => 25,
        _ => 60,
    };
    if h.fast {
        base.min(20)
    } else {
        base
    }
}

/// [`WorkloadId::best_algorithm`] at the sample's scaled paper batch.
pub fn best_algorithm(id: WorkloadId, wl: &Workload) -> Algorithm {
    id.best_algorithm(wl.spec.scaled_batch(id.paper_batch()))
}

/// Plain GA-SGD at the scaled batch (the baseline algorithm).
pub(crate) fn ga_sgd(id: WorkloadId, wl: &Workload) -> Algorithm {
    Algorithm::GaSgd {
        batch: wl.spec.scaled_batch(id.paper_batch()),
    }
}

/// Build the full named workload with its default (best-algorithm,
/// FaaS) configuration.
pub fn build(id: WorkloadId, h: &Harness) -> Named {
    let wl = workload(id.dataset(), h);
    let algo = best_algorithm(id, &wl);
    let config = JobConfig::new(
        workers(id, h),
        algo,
        id.lr(),
        StopSpec::new(id.threshold(), max_epochs(id, h)),
    )
    .with_seed(h.seed);
    Named {
        workload: wl,
        model: id.model(),
        config,
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
            let n = build(id, &h);
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
            let n = build(id, &h);
            let model = n.model.build(&n.workload.train, 1);
            assert!(n.config.algorithm.applicable(&model), "{}", id.name());
        }
    }

    #[test]
    fn scaled_batches_preserve_round_structure() {
        let h = Harness::default();
        let n = build(WorkloadId::LrHiggs, &h);
        // paper: (11M/10 workers)/10K batch = 110 rounds/epoch;
        // sample: (9K/10)/scaled-batch should be within 2×.
        let scaled = n.workload.spec.scaled_batch(10_000);
        let rounds = (n.workload.train.len() / 10) as f64 / scaled as f64;
        assert!((50.0..220.0).contains(&rounds), "rounds/epoch {rounds}");
    }

    #[test]
    fn sample_rows_are_pinned() {
        let full = Harness {
            fast: false,
            ..Harness::default()
        };
        let rows = DatasetId::ALL.map(|id| {
            let (fast, full) = (sample_rows(id, &Harness::default()), sample_rows(id, &full));
            (id.name(), fast, full)
        });
        assert_eq!(
            rows,
            [
                ("Higgs", 10_000, 110_000),
                ("RCV1", 2_000, 6_970),
                ("Cifar10", 4_000, 6_000),
                ("YFCC100M", 1_500, 4_000),
                ("Criteo", 5_000, 10_000),
            ]
        );
    }

    /// One line per Table 4 row: its name, dataset and model, its workers
    /// and max epochs in fast and full mode, its paper batch, `lr` and
    /// `threshold` as bits, and its best algorithm at a batch of 100. A
    /// mismatch prints the whole new table to paste over this one.
    const GOLDEN: &str = "\
LR/Higgs dataset=Higgs model=Lr { l2: 0.0 } workers=10/10 batch=10000 lr=3fe0000000000000 threshold=3fe4a3d70a3d70a4 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
SVM/Higgs dataset=Higgs model=Svm { l2: 0.0 } workers=10/10 batch=10000 lr=3fd3333333333333 threshold=3fe999999999999a epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
KMeans/Higgs dataset=Higgs model=KMeans { k: 10 } workers=10/10 batch=10000 lr=0000000000000000 threshold=4039800000000000 epochs=20/60 best=Em
LR/RCV1 dataset=RCV1 model=Lr { l2: 0.0 } workers=5/5 batch=2000 lr=3ff0000000000000 threshold=3fd6666666666666 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
SVM/RCV1 dataset=RCV1 model=Svm { l2: 0.0 } workers=5/5 batch=2000 lr=3ff0000000000000 threshold=3fcc28f5c28f5c29 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
KMeans/RCV1 dataset=RCV1 model=KMeans { k: 3 } workers=10/50 batch=2000 lr=0000000000000000 threshold=3fd3333333333333 epochs=20/60 best=Em
LR/YFCC100M dataset=YFCC100M model=Lr { l2: 0.0 } workers=100/100 batch=800 lr=3fb999999999999a threshold=3fbeb851eb851eb8 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
SVM/YFCC100M dataset=YFCC100M model=Svm { l2: 0.0 } workers=100/100 batch=800 lr=3fb999999999999a threshold=3faeb851eb851eb8 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
KMeans/YFCC100M dataset=YFCC100M model=KMeans { k: 10 } workers=100/100 batch=800 lr=0000000000000000 threshold=4074d00000000000 epochs=20/60 best=Em
LR/Criteo dataset=Criteo model=Lr { l2: 0.0 } workers=10/10 batch=650000 lr=3fe0000000000000 threshold=3fdeb851eb851eb8 epochs=20/60 best=Admm { rho: 0.1, local_scans: 10, batch: 100 }
MobileNet/Cifar10 dataset=Cifar10 model=MobileNet workers=10/10 batch=128 lr=3fc3333333333333 threshold=3fc999999999999a epochs=20/25 best=GaSgd { batch: 100 }
ResNet50/Cifar10 dataset=Cifar10 model=ResNet50 workers=10/10 batch=32 lr=3fb999999999999a threshold=3fd999999999999a epochs=20/25 best=GaSgd { batch: 100 }
";

    #[test]
    fn table4_matches_the_golden_table() {
        let fast = Harness::default();
        let full = Harness {
            fast: false,
            ..Harness::default()
        };
        let mut table = String::new();
        for id in WorkloadId::ALL {
            table += &format!(
                "{} dataset={} model={:?} workers={}/{} batch={} lr={:016x} threshold={:016x} epochs={}/{} best={:?}\n",
                id.name(),
                id.dataset().name(),
                id.model(),
                workers(id, &fast),
                workers(id, &full),
                id.paper_batch(),
                id.lr().to_bits(),
                id.threshold().to_bits(),
                max_epochs(id, &fast),
                max_epochs(id, &full),
                id.best_algorithm(100),
            );
        }
        assert!(table == GOLDEN, "Table 4 moved; new table:\n{table}");
    }
}
