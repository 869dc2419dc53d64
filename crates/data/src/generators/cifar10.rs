//! Cifar10-like dataset.
//!
//! Cifar10 is 60 K 32×32×3 images in 10 classes (the paper's Figure 6 lists
//! it with a 1 K feature representation). The deep-model workloads
//! (MobileNet, ResNet50) train on it to a 0.2 / 0.4 cross-entropy threshold.
//!
//! The generator emits a 10-component Gaussian mixture in 1 024 dimensions
//! with class-conditional covariance structure ("style" directions), so the
//! Bayes boundary is non-linear: a linear model underfits while a
//! one-hidden-layer network reaches the paper's loss thresholds — preserving
//! the paper's "deep models are the communication-heavy, slow-converging
//! regime" dynamics.

use crate::dataset::{Dataset, DenseDataset};
use crate::generators::Generated;
use crate::spec::{DatasetSpec, Task};
use lml_linalg::Matrix;
use lml_sim::{ByteSize, Pcg64};

/// Default sample: 10% of the 60 K images.
pub const DEFAULT_ROWS: usize = 6_000;

/// Feature dimension (paper's Figure 6 representation).
pub const DIM: usize = 1_024;

/// Number of classes.
pub const CLASSES: usize = 10;

/// Class-mean scale. Tuned so nearest-mean classification lands in the
/// 90s: classes overlap (images are hard) but a small network reaches the
/// paper's 0.2 cross-entropy threshold in tens of epochs.
const MEAN_SCALE: f64 = 0.05;

/// Per-class "style" coefficient std — adds class-conditional covariance
/// structure so the Bayes boundary is non-linear.
const STYLE_SCALE: f64 = 0.6;

/// Per-dimension noise std.
const NOISE: f64 = 0.35;

/// The fixed class prototypes: `(means, styles)`, both `CLASSES × DIM`.
/// Exposed so tests and examples can evaluate against the ground truth.
pub fn prototypes() -> (Matrix, Matrix) {
    let mut mean_rng = Pcg64::new(0xD1CE_0003);
    let mut style_rng = Pcg64::new(0xD1CE_0013);
    let mut means = Matrix::zeros(CLASSES, DIM);
    let mut styles = Matrix::zeros(CLASSES, DIM);
    for c in 0..CLASSES {
        for j in 0..DIM {
            means.set(c, j, mean_rng.normal() * MEAN_SCALE);
            styles.set(c, j, style_rng.normal());
        }
    }
    (means, styles)
}

pub fn generate_rows(rows: usize, seed: u64) -> Generated {
    let mut rng = Pcg64::new(seed ^ 0x4349_4641_u64); // "CIFA"
    let (means, styles) = prototypes();

    let mut features = Matrix::zeros(rows, DIM);
    let mut labels = Vec::with_capacity(rows);
    let inv_sqrt_d = 1.0 / (DIM as f64).sqrt();
    for r in 0..rows {
        let c = rng.index(CLASSES);
        // Latent style coefficient: class-conditional second-order structure.
        let s = rng.normal() * STYLE_SCALE;
        let row = features.row_mut(r);
        let mean = means.row(c);
        let style = styles.row(c);
        for j in 0..DIM {
            row[j] = mean[j] + s * style[j] * inv_sqrt_d + rng.normal() * NOISE;
        }
        labels.push(c as f64);
    }

    Generated {
        data: Dataset::Dense(DenseDataset::new(features, labels)),
        spec: DatasetSpec {
            name: "Cifar10",
            paper_instances: 60_000,
            features: DIM,
            paper_bytes: ByteSize::mb(220.0),
            sample_instances: rows as u64,
            task: Task::Multiclass { classes: CLASSES },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_label_range() {
        let g = generate_rows(500, 42);
        assert_eq!(g.data.len(), 500);
        assert_eq!(g.data.dim(), DIM);
        for i in 0..g.data.len() {
            let y = g.data.label(i) as usize;
            assert!(y < CLASSES);
        }
    }

    #[test]
    fn all_classes_present() {
        let g = generate_rows(2_000, 42);
        let mut seen = [false; CLASSES];
        for i in 0..g.data.len() {
            seen[g.data.label(i) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn nearest_class_mean_beats_chance_but_not_perfect() {
        let g = generate_rows(2_000, 7);
        let (means, _) = prototypes();
        let mut correct = 0;
        for i in 0..g.data.len() {
            if let crate::dataset::Row::Dense(x) = g.data.row(i) {
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for c in 0..CLASSES {
                    let d = lml_linalg::dense::dist2(x, means.row(c));
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if best == g.data.label(i) as usize {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / g.data.len() as f64;
        assert!(acc > 0.5, "acc {acc} should beat 10% chance clearly");
        assert!(acc < 0.999, "classes must overlap, acc {acc}");
    }

    #[test]
    fn spec_matches_paper() {
        let g = generate_rows(DEFAULT_ROWS, 1);
        assert_eq!(g.spec.paper_instances, 60_000);
        assert_eq!(g.spec.features, 1_024);
        matches!(g.spec.task, Task::Multiclass { classes: 10 });
    }
}
