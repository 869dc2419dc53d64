//! The model zoo: paper-profile constructors and the unified [`AnyModel`].
//!
//! Each entry pairs a *statistical engine* (the actual Rust model that
//! trains) with a *system profile* (wire bytes and per-example FLOPs used by
//! the simulator). For linear models and k-means the two coincide. For
//! MobileNet and ResNet50 the engine is an MLP surrogate while the profile
//! carries the paper's real numbers — 12 MB / 89 MB parameter payloads and
//! per-image training FLOPs — because every systems question in the paper
//! depends only on bytes-on-the-wire and seconds-of-compute.

use crate::kmeans::KMeans;
use crate::linear::Linear;
use crate::linear::LinearLoss::{Hinge, Logistic};
use crate::mlp::Mlp;
use lml_data::Dataset;
use lml_sim::ByteSize;

/// Which paper model to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelId {
    /// Logistic regression with the given L2.
    Lr { l2: f64 },
    /// Linear SVM with the given L2.
    Svm { l2: f64 },
    /// K-means with `k` clusters.
    KMeans { k: usize },
    /// MobileNet surrogate (12 MB wire, ~1.7 GFLOP/image training).
    MobileNet,
    /// ResNet50 surrogate (89 MB wire, ~12 GFLOP/image training).
    ResNet50,
}

impl ModelId {
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Lr { .. } => "LR",
            ModelId::Svm { .. } => "SVM",
            ModelId::KMeans { .. } => "KMeans",
            ModelId::MobileNet => "MobileNet",
            ModelId::ResNet50 => "ResNet50",
        }
    }

    /// Build the model for a dataset.
    pub fn build(self, data: &Dataset, seed: u64) -> AnyModel {
        match self {
            ModelId::Lr { l2 } => AnyModel::Linear(Linear::new(data.dim(), l2, Logistic)),
            ModelId::Svm { l2 } => AnyModel::Linear(Linear::new(data.dim(), l2, Hinge)),
            ModelId::KMeans { k } => AnyModel::KMeans(KMeans::init_from_data(data, k, seed)),
            ModelId::MobileNet => AnyModel::Mlp {
                net: Mlp::new(&[data.dim(), 256, 10], seed),
                profile: DeepProfile::MOBILENET,
            },
            ModelId::ResNet50 => AnyModel::Mlp {
                net: Mlp::new(&[data.dim(), 512, 128, 10], seed),
                profile: DeepProfile::RESNET50,
            },
        }
    }
}

/// System profile of a deep model: what the simulator charges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeepProfile {
    /// Bytes of one full model/gradient message (paper: MN 12 MB, RN 89 MB).
    pub wire_bytes: ByteSize,
    /// Training FLOPs per example (forward + backward).
    pub flops_per_example: f64,
}

impl DeepProfile {
    /// MobileNet V1: ~569 MFLOPs forward ⇒ ≈1.7 GFLOP/image for training.
    pub const MOBILENET: DeepProfile = DeepProfile {
        wire_bytes: ByteSize(12_000_000),
        flops_per_example: 1.7e9,
    };
    /// ResNet50: ~4.1 GFLOPs forward ⇒ ≈12 GFLOP/image for training.
    pub const RESNET50: DeepProfile = DeepProfile {
        wire_bytes: ByteSize(89_000_000),
        flops_per_example: 12.3e9,
    };
}

/// A built model: the statistical engine plus its system profile.
#[derive(Debug, Clone)]
pub enum AnyModel {
    Linear(Linear),
    KMeans(KMeans),
    Mlp { net: Mlp, profile: DeepProfile },
}

impl AnyModel {
    /// Length of the flat parameter vector (centroids for k-means).
    pub fn param_len(&self) -> usize {
        match self {
            AnyModel::Linear(m) => m.dim(),
            AnyModel::KMeans(m) => m.params().len(),
            AnyModel::Mlp { net, .. } => net.dim(),
        }
    }

    pub fn params(&self) -> &[f64] {
        match self {
            AnyModel::Linear(m) => m.params(),
            AnyModel::KMeans(m) => m.params(),
            AnyModel::Mlp { net, .. } => net.params(),
        }
    }

    pub fn params_mut(&mut self) -> &mut [f64] {
        match self {
            AnyModel::Linear(m) => m.params_mut(),
            AnyModel::KMeans(m) => m.params_mut(),
            AnyModel::Mlp { net, .. } => net.params_mut(),
        }
    }

    /// Wire size of one model/gradient message. Linear models and k-means
    /// ship their actual f64 buffers; deep models ship the paper's payload.
    pub fn wire_bytes(&self) -> ByteSize {
        match self {
            AnyModel::Mlp { profile, .. } => profile.wire_bytes,
            _ => ByteSize::of_f64s(self.param_len()),
        }
    }

    /// Wire size of one EM statistics message (k-means aggregates
    /// `k·(d+1)` sums; other models ship model/gradient-sized payloads).
    pub fn statistic_wire_bytes(&self) -> ByteSize {
        match self {
            AnyModel::KMeans(m) => ByteSize::of_f64s(m.stats_len()),
            _ => self.wire_bytes(),
        }
    }

    /// Training FLOPs per example with `nnz` stored features — the
    /// simulator's compute model input.
    pub fn flops_per_example(&self, nnz: f64) -> f64 {
        match self {
            // dot + axpy forward/backward: ~4 flops per stored feature.
            AnyModel::Linear(_) => 4.0 * nnz,
            // distance to k centroids: ~3 flops per feature per centroid.
            AnyModel::KMeans(m) => 3.0 * nnz * m.k() as f64,
            AnyModel::Mlp { profile, .. } => profile.flops_per_example,
        }
    }

    /// Whether ADMM may be applied (§4.2: convex objectives only).
    pub fn is_convex(&self) -> bool {
        match self {
            AnyModel::Linear(_) => true,
            AnyModel::KMeans(_) | AnyModel::Mlp { .. } => false,
        }
    }

    /// Mean loss over `rows` (clustering objective for k-means).
    fn loss(&self, data: &Dataset, rows: &[usize]) -> f64 {
        match self {
            AnyModel::Linear(m) => m.loss(data, rows),
            AnyModel::KMeans(m) => m.loss(data, rows),
            AnyModel::Mlp { net, .. } => net.loss(data, rows),
        }
    }

    /// Mean loss over the whole dataset.
    pub fn full_loss(&self, data: &Dataset) -> f64 {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.loss(data, &rows)
    }

    /// Accuracy over the whole dataset (1.0 for k-means).
    pub fn full_accuracy(&self, data: &Dataset) -> f64 {
        let rows: Vec<usize> = (0..data.len()).collect();
        match self {
            AnyModel::Linear(m) => m.accuracy(data, &rows),
            AnyModel::KMeans(_) => 1.0,
            AnyModel::Mlp { net, .. } => net.accuracy(data, &rows),
        }
    }

    /// Mini-batch gradient (panics for k-means — use
    /// [`AnyModel::em_stats`]).
    pub fn grad(&self, data: &Dataset, rows: &[usize], grad_out: &mut [f64]) -> f64 {
        match self {
            AnyModel::Linear(m) => m.grad(data, rows, grad_out),
            AnyModel::KMeans(_) => panic!("k-means has no gradient; use em_stats"),
            AnyModel::Mlp { net, .. } => net.grad(data, rows, grad_out),
        }
    }

    /// EM sufficient statistics (k-means only).
    pub fn em_stats(&self, data: &Dataset, rows: &[usize]) -> Vec<f64> {
        self.kmeans().sufficient_stats(data, rows)
    }

    /// [`AnyModel::em_stats`] added into `stats`.
    pub fn add_em_stats(&self, data: &Dataset, rows: &[usize], stats: &mut [f64]) {
        self.kmeans().add_sufficient_stats(data, rows, stats);
    }

    fn kmeans(&self) -> &KMeans {
        match self {
            AnyModel::KMeans(m) => m,
            _ => panic!("EM statistics only apply to k-means"),
        }
    }

    /// EM M-step from aggregated statistics (k-means only).
    pub fn apply_em_stats(&mut self, stats: &[f64]) {
        match self {
            AnyModel::KMeans(m) => m.apply_stats(stats),
            _ => panic!("apply_em_stats only applies to k-means"),
        }
    }
}

/// Numerical gradient check for the model unit tests: compares the
/// analytic gradient against central differences at the current parameters.
/// Returns the max absolute element-wise error.
#[cfg(test)]
pub(crate) fn grad_check(model: &mut AnyModel, data: &Dataset, rows: &[usize], eps: f64) -> f64 {
    let dim = model.param_len();
    let mut analytic = vec![0.0; dim];
    model.grad(data, rows, &mut analytic);
    let mut max_err: f64 = 0.0;
    for (j, &want) in analytic.iter().enumerate() {
        let orig = model.params()[j];
        model.params_mut()[j] = orig + eps;
        let hi = model.loss(data, rows);
        model.params_mut()[j] = orig - eps;
        let lo = model.loss(data, rows);
        model.params_mut()[j] = orig;
        let numeric = (hi - lo) / (2.0 * eps);
        max_err = max_err.max((numeric - want).abs());
    }
    max_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_data::generators::DatasetId;

    #[test]
    fn lr_wire_bytes_match_paper_table3() {
        // Table 3: "LR, Higgs" model size = 224 B (28 × f64).
        let data = DatasetId::Higgs.generate_rows(50, 1).data;
        let m = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        assert_eq!(m.wire_bytes(), ByteSize::bytes(224));
    }

    #[test]
    fn deep_models_carry_paper_payloads() {
        let data = DatasetId::Cifar10.generate_rows(50, 1).data;
        let mn = ModelId::MobileNet.build(&data, 1);
        let rn = ModelId::ResNet50.build(&data, 1);
        assert_eq!(mn.wire_bytes(), ByteSize::mb(12.0));
        assert_eq!(rn.wire_bytes(), ByteSize::mb(89.0));
        assert!(rn.flops_per_example(0.0) > mn.flops_per_example(0.0));
    }

    #[test]
    fn kmeans_statistic_payload_scales_with_k() {
        let data = DatasetId::Higgs.generate_rows(200, 1).data;
        let small = ModelId::KMeans { k: 10 }.build(&data, 1);
        let large = ModelId::KMeans { k: 100 }.build(&data, 1);
        assert_eq!(small.statistic_wire_bytes(), ByteSize::of_f64s(10 * 29));
        assert!(large.statistic_wire_bytes() > small.statistic_wire_bytes());
    }

    #[test]
    fn convexity_flags() {
        let data = DatasetId::Higgs.generate_rows(50, 1).data;
        assert!(ModelId::Lr { l2: 0.0 }.build(&data, 1).is_convex());
        assert!(ModelId::Svm { l2: 0.0 }.build(&data, 1).is_convex());
        assert!(!ModelId::KMeans { k: 3 }.build(&data, 1).is_convex());
        let cifar = DatasetId::Cifar10.generate_rows(50, 1).data;
        assert!(!ModelId::MobileNet.build(&cifar, 1).is_convex());
    }

    #[test]
    #[should_panic]
    fn kmeans_grad_panics() {
        let data = DatasetId::Higgs.generate_rows(50, 1).data;
        let m = ModelId::KMeans { k: 2 }.build(&data, 1);
        let mut g = vec![0.0; m.param_len()];
        m.grad(&data, &[0], &mut g);
    }

    #[test]
    fn params_roundtrip_through_flat_buffer() {
        // Model averaging writes averaged parameters back through
        // params_mut; verify the view is the real storage.
        let data = DatasetId::Higgs.generate_rows(50, 1).data;
        let mut m = ModelId::Lr { l2: 0.0 }.build(&data, 1);
        m.params_mut()[0] = 42.0;
        assert_eq!(m.params()[0], 42.0);
    }

    #[test]
    fn names() {
        assert_eq!(ModelId::Lr { l2: 0.0 }.name(), "LR");
        assert_eq!(ModelId::Svm { l2: 0.0 }.name(), "SVM");
        assert_eq!(ModelId::MobileNet.name(), "MobileNet");
    }
}
