//! Dataset metadata.
//!
//! Each generator produces a scaled-down sample for the numerics plus a
//! [`DatasetSpec`] carrying the *paper-scale* figures (Figure 6 of the
//! paper). The simulator computes all data-loading and wire costs from the
//! spec, so system time/cost reflect the full-size datasets.

use lml_sim::ByteSize;

/// Task type of a dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Binary classification with ±1 labels.
    Binary,
    /// Multiclass classification with labels 0..classes-1.
    Multiclass { classes: usize },
    /// Unsupervised clustering.
    Clustering,
}

/// Paper-scale metadata for a dataset, plus the scale factor of the
/// generated sample.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name as in the paper (e.g. "Higgs").
    pub name: &'static str,
    /// Paper-scale number of instances (Figure 6).
    pub paper_instances: u64,
    /// Feature-space dimension (identical in paper and sample).
    pub features: usize,
    /// Paper-scale on-disk size (Figure 6).
    pub paper_bytes: ByteSize,
    /// Instances actually generated in the sample.
    pub sample_instances: u64,
    /// Task type.
    pub task: Task,
}

impl DatasetSpec {
    /// `sample_instances / paper_instances` — the factor by which row counts
    /// (and mini-batch sizes) are scaled in this reproduction.
    pub fn scale(&self) -> f64 {
        self.sample_instances as f64 / self.paper_instances as f64
    }

    /// Paper-scale bytes per instance, used to cost partition loading.
    pub fn bytes_per_instance(&self) -> f64 {
        self.paper_bytes.as_f64() / self.paper_instances as f64
    }

    /// Paper-scale bytes in one worker's partition when the dataset is split
    /// across `workers` executors.
    pub fn partition_bytes(&self, workers: usize) -> ByteSize {
        ByteSize::bytes((self.paper_bytes.as_f64() / workers as f64) as u64)
    }

    /// Convert a paper-scale batch size to the equivalent batch size on the
    /// generated sample, preserving iterations-per-epoch. Clamped to ≥ 1.
    pub fn scaled_batch(&self, paper_batch: usize) -> usize {
        ((paper_batch as f64 * self.scale()).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn higgs_spec() -> DatasetSpec {
        DatasetSpec {
            name: "Higgs",
            paper_instances: 11_000_000,
            features: 28,
            paper_bytes: ByteSize::gb(8.0),
            sample_instances: 110_000,
            task: Task::Binary,
        }
    }

    #[test]
    fn scale_factor() {
        assert!((higgs_spec().scale() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn partition_bytes_divides_evenly() {
        let s = higgs_spec();
        assert_eq!(s.partition_bytes(10), ByteSize::bytes(800_000_000));
    }

    #[test]
    fn scaled_batch_preserves_iters_per_epoch() {
        let s = higgs_spec();
        // Paper batch 100K on 11M rows = 110 iters/epoch.
        assert_eq!(s.paper_instances as usize / 100_000, 110);
        // Scaled batch 1K on 110K rows = 110 iters/epoch too.
        assert_eq!(s.scaled_batch(100_000), 1_000);
        assert_eq!(s.sample_instances as usize / s.scaled_batch(100_000), 110);
    }

    #[test]
    fn scaled_batch_clamps_to_one() {
        let s = higgs_spec();
        assert_eq!(s.scaled_batch(10), 1);
    }

    #[test]
    fn bytes_per_instance() {
        let s = higgs_spec();
        assert!((s.bytes_per_instance() - 727.27).abs() < 0.5);
    }
}
