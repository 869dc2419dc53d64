//! Higgs-like dataset.
//!
//! The real Higgs dataset (UCI) is 11 M Monte-Carlo-simulated collision
//! events with 28 kinematic features and a binary signal/background label;
//! linear models top out around 64% accuracy — the classes overlap heavily.
//!
//! The generator reproduces that structure: two Gaussian classes with means
//! `±μ` along a fixed random direction, `‖μ‖` chosen so the Bayes logistic
//! loss sits near 0.62 (the paper trains LR to a 0.66–0.68 threshold and SVM
//! to ~0.48 hinge loss, both a little above their optima).

use crate::dataset::{Dataset, DenseDataset};
use crate::generators::{DatasetId, Generated};
use crate::spec::{DatasetSpec, Task};
use lml_linalg::Matrix;
use lml_sim::Pcg64;

/// Default sample: 1% of the paper's 11 M rows.
pub(crate) const DEFAULT_ROWS: usize = 110_000;

/// Feature dimension of Higgs.
pub const DIM: usize = 28;

/// Class-separation scale: `‖μ‖² = SEPARATION`, giving an optimal logistic
/// loss ≈ 0.62 (empirically verified in tests).
const SEPARATION: f64 = 0.12;

/// Generate `rows` examples.
pub fn generate_rows(rows: usize, seed: u64) -> Generated {
    let mut rng = Pcg64::new(seed ^ 0x0048_6967_6773_u64); // "Higgs"
                                                           // Fixed class-mean direction (same for every seed offset so the learning
                                                           // problem is stable across sample sizes).
    let mut dir_rng = Pcg64::new(0xD1CE_0001);
    let mut mu = [0.0f64; DIM];
    for m in mu.iter_mut() {
        *m = dir_rng.normal();
    }
    let norm = mu.iter().map(|v| v * v).sum::<f64>().sqrt();
    let scale = SEPARATION.sqrt() / norm;
    for m in mu.iter_mut() {
        *m *= scale;
    }

    let mut features = Matrix::zeros(rows, DIM);
    let mut labels = Vec::with_capacity(rows);
    for r in 0..rows {
        let y = if rng.coin(0.5) { 1.0 } else { -1.0 };
        let row = features.row_mut(r);
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = y * mu[j] + rng.normal();
        }
        labels.push(y);
    }

    Generated {
        data: Dataset::Dense(DenseDataset::new(features, labels)),
        spec: DatasetSpec {
            name: "Higgs",
            paper_instances: 11_000_000,
            features: DIM,
            paper_bytes: DatasetId::Higgs.paper_bytes(),
            sample_instances: rows as u64,
            task: Task::Binary,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_linalg::dense::{log1p_exp_neg, sigmoid};

    #[test]
    fn shape_and_labels() {
        let g = generate_rows(1_000, 42);
        assert_eq!(g.data.len(), 1_000);
        assert_eq!(g.data.dim(), 28);
        for i in 0..g.data.len() {
            let y = g.data.label(i);
            assert!(y == 1.0 || y == -1.0);
        }
    }

    #[test]
    fn roughly_balanced_classes() {
        let g = generate_rows(10_000, 42);
        let pos = (0..g.data.len())
            .filter(|&i| g.data.label(i) == 1.0)
            .count();
        assert!((pos as f64 - 5_000.0).abs() < 400.0, "pos={pos}");
    }

    #[test]
    fn classes_overlap_like_higgs() {
        // The Bayes-optimal linear predictor is w = 2μ; its logistic loss on
        // fresh data must land near 0.62 — hard, like the real Higgs.
        let g = generate_rows(20_000, 7);
        let mut dir_rng = Pcg64::new(0xD1CE_0001);
        let mut w = [0.0f64; DIM];
        for v in w.iter_mut() {
            *v = dir_rng.normal();
        }
        let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        for v in w.iter_mut() {
            *v *= 2.0 * SEPARATION.sqrt() / norm;
        }
        let mut loss = 0.0;
        let mut correct = 0;
        for i in 0..g.data.len() {
            let z = g.data.label(i) * g.data.row(i).dot(&w);
            loss += log1p_exp_neg(z);
            if sigmoid(z) > 0.5 {
                correct += 1;
            }
        }
        loss /= g.data.len() as f64;
        let acc = correct as f64 / g.data.len() as f64;
        assert!((0.55..0.68).contains(&loss), "optimal-ish loss {loss}");
        assert!((0.58..0.70).contains(&acc), "optimal-ish accuracy {acc}");
    }

    #[test]
    fn spec_matches_paper_scale() {
        let g = generate_rows(DEFAULT_ROWS, 1);
        assert_eq!(g.spec.paper_instances, 11_000_000);
        assert_eq!(g.spec.paper_bytes, lml_sim::ByteSize::gb(8.0));
        assert!((g.spec.scale() - 0.01).abs() < 1e-9);
    }
}
