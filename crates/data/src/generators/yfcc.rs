//! YFCC100M-like dataset.
//!
//! The paper samples 4 M points from YFCC100M-HNfc6 (4096-dim deep features
//! per image) and converts to binary classification: "animal" tags positive
//! (~300 K of 4 M ≈ 7.5%), everything else negative.
//!
//! The generator matches: 4096 dense features resembling post-ReLU network
//! activations (non-negative, sparse-ish), 7.5% positive rate, positives
//! shifted along a fixed direction. The heavy class imbalance is what makes
//! the paper's loss thresholds on YFCC behave differently from Higgs.

use crate::dataset::{Dataset, DenseDataset};
use crate::generators::{DatasetId, Generated};
use crate::spec::{DatasetSpec, Task};
use lml_linalg::Matrix;
use lml_sim::Pcg64;

/// Default sample rows (paper subset: 4 M).
pub(crate) const DEFAULT_ROWS: usize = 2_000;

/// HNfc6 deep-feature dimension.
pub const DIM: usize = 4_096;

/// Positive ("animal") rate: 300 K / 4 M.
const POSITIVE_RATE: f64 = 0.075;

/// Shift of positive-class activations along the signal direction.
const SHIFT: f64 = 0.9;

/// Fraction of activations that are exactly zero (post-ReLU sparsity).
const ZERO_RATE: f64 = 0.55;

/// Tag-noise rate: YFCC tags are user-generated and noisy, so a few percent
/// of labels are wrong — this keeps linear models from driving the loss to
/// zero on a perfectly separable synthetic.
const LABEL_NOISE: f64 = 0.03;

pub fn generate_rows(rows: usize, seed: u64) -> Generated {
    let mut rng = Pcg64::new(seed ^ 0x5946_4343_u64); // "YFCC"
                                                      // Fixed signal direction over a subset of activations.
    let mut dir_rng = Pcg64::new(0xD1CE_0004);
    let signal: Vec<bool> = (0..DIM).map(|_| dir_rng.coin(0.1)).collect();

    let mut features = Matrix::zeros(rows, DIM);
    let mut labels = Vec::with_capacity(rows);
    for r in 0..rows {
        let true_y = if rng.coin(POSITIVE_RATE) { 1.0 } else { -1.0 };
        let y = if rng.coin(LABEL_NOISE) {
            -true_y
        } else {
            true_y
        };
        let row = features.row_mut(r);
        for (j, cell) in row.iter_mut().enumerate() {
            if rng.coin(ZERO_RATE) {
                *cell = 0.0;
                continue;
            }
            // Post-ReLU-like activation magnitude (driven by the true
            // content; the stored label may be tag noise).
            let mut v = rng.normal().abs() * 0.5;
            // Labels are exact ±1.0 sentinels. lml-analyze: allow(float-eq)
            if true_y == 1.0 && signal[j] {
                v += SHIFT * rng.uniform();
            }
            *cell = v;
        }
        labels.push(y);
    }

    Generated {
        data: Dataset::Dense(DenseDataset::new(features, labels)),
        spec: DatasetSpec {
            name: "YFCC100M",
            paper_instances: 4_000_000,
            features: DIM,
            paper_bytes: DatasetId::Yfcc100m.paper_bytes(),
            sample_instances: rows as u64,
            task: Task::Binary,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape() {
        let g = generate_rows(300, 42);
        assert_eq!(g.data.len(), 300);
        assert_eq!(g.data.dim(), DIM);
    }

    #[test]
    fn positive_rate_matches_animal_tags() {
        let g = generate_rows(8_000, 42);
        let pos = (0..g.data.len())
            .filter(|&i| g.data.label(i) == 1.0)
            .count();
        let rate = pos as f64 / g.data.len() as f64;
        // positives + tag-noise-flipped negatives ≈ 7.5% + 3%·92.5% ≈ 10%
        let expected = POSITIVE_RATE * 0.97 + (1.0 - POSITIVE_RATE) * 0.03;
        assert!(
            (rate - expected).abs() < 0.02,
            "rate {rate} vs expected {expected}"
        );
    }

    #[test]
    fn activations_non_negative_and_sparse() {
        let g = generate_rows(50, 1);
        let mut zeros = 0usize;
        let mut total = 0usize;
        for i in 0..g.data.len() {
            if let crate::dataset::Row::Dense(x) = g.data.row(i) {
                for &v in x {
                    assert!(v >= 0.0, "post-ReLU features are non-negative");
                    total += 1;
                    if v == 0.0 {
                        zeros += 1;
                    }
                }
            }
        }
        let z = zeros as f64 / total as f64;
        assert!((z - ZERO_RATE).abs() < 0.05, "zero rate {z}");
    }

    #[test]
    fn positives_are_separable_in_signal_dims() {
        let g = generate_rows(4_000, 3);
        let mut dir_rng = Pcg64::new(0xD1CE_0004);
        let signal: Vec<bool> = (0..DIM).map(|_| dir_rng.coin(0.1)).collect();
        let mut pos_mean = 0.0;
        let mut neg_mean = 0.0;
        let mut pos_n = 0.0;
        let mut neg_n = 0.0;
        for i in 0..g.data.len() {
            if let crate::dataset::Row::Dense(x) = g.data.row(i) {
                let s: f64 = (0..DIM).filter(|&j| signal[j]).map(|j| x[j]).sum();
                if g.data.label(i) == 1.0 {
                    pos_mean += s;
                    pos_n += 1.0;
                } else {
                    neg_mean += s;
                    neg_n += 1.0;
                }
            }
        }
        assert!(
            pos_mean / pos_n > neg_mean / neg_n * 1.2,
            "signal dims separate classes"
        );
    }
}
