//! RCV1-like dataset.
//!
//! RCV1 (Lewis et al. 2004) is a two-class newswire corpus: 697 K documents,
//! 47 236 TF-IDF features, L2-normalized rows, ~76 stored terms per
//! document, and nearly linearly separable (linear SVMs reach ~5% hinge
//! loss).
//!
//! The generator matches: Zipf-distributed term indices (common words appear
//! in most documents), log-normal document lengths, positive TF-IDF-ish
//! values with L2 row normalization, and labels from a sparse ground-truth
//! hyperplane over the frequent terms with a small label-noise rate.

use crate::dataset::{Dataset, SparseDataset};
use crate::generators::Generated;
use crate::spec::{DatasetSpec, Task};
use lml_linalg::SparseVec;
use lml_sim::{ByteSize, Pcg64};

/// Default sample: 1% of the paper's 697 K documents.
pub const DEFAULT_ROWS: usize = 6_970;

/// Feature dimension of RCV1.
pub const DIM: usize = 47_236;

/// Mean stored terms per document (real RCV1: ~76).
const MEAN_NNZ: f64 = 76.0;

/// Ground-truth hyperplane support size.
const TRUE_SUPPORT: usize = 2_000;

/// Label noise rate — keeps the problem not-exactly-separable.
const LABEL_NOISE: f64 = 0.02;

pub fn generate_rows(rows: usize, seed: u64) -> Generated {
    let mut rng = Pcg64::new(seed ^ 0x5243_5631_u64); // "RCV1"
                                                      // Fixed ground-truth weights over the most frequent (low Zipf index)
                                                      // terms, independent of sample size.
    let mut truth_rng = Pcg64::new(0xD1CE_0002);
    let mut truth = vec![0.0f64; TRUE_SUPPORT];
    for t in truth.iter_mut() {
        *t = truth_rng.normal();
    }

    let mut rows_out = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        // Document length: log-normal around MEAN_NNZ, clamped to [10, 600].
        let len_f = (MEAN_NNZ.ln() + 0.5 * rng.normal()).exp();
        let nnz = (len_f as usize).clamp(10, 600);
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(nnz);
        for _ in 0..nnz {
            let idx = rng.zipf(DIM, 1.2) as u32;
            // TF-IDF-ish positive magnitude.
            let v = (1.0 + rng.uniform() * 4.0).ln();
            pairs.push((idx, v));
        }
        let mut sv = SparseVec::from_pairs(pairs);
        sv.normalize();

        // Label from the sparse ground truth (over frequent terms).
        let mut margin = 0.0;
        for (i, v) in sv.iter() {
            if (i as usize) < TRUE_SUPPORT {
                margin += truth[i as usize] * v;
            }
        }
        let mut y = if margin >= 0.0 { 1.0 } else { -1.0 };
        if rng.coin(LABEL_NOISE) {
            y = -y;
        }
        rows_out.push(sv);
        labels.push(y);
    }

    Generated {
        data: Dataset::Sparse(SparseDataset::new(rows_out, labels, DIM)),
        spec: DatasetSpec {
            name: "RCV1",
            paper_instances: 697_000,
            features: DIM,
            paper_bytes: ByteSize::gb(1.2),
            sample_instances: rows as u64,
            task: Task::Binary,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_and_sparsity() {
        let g = generate_rows(500, 42);
        assert_eq!(g.data.len(), 500);
        assert_eq!(g.data.dim(), DIM);
        if let Dataset::Sparse(s) = &g.data {
            let nnz = s.avg_nnz();
            assert!((40.0..160.0).contains(&nnz), "avg nnz {nnz}");
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn rows_are_l2_normalized() {
        let g = generate_rows(50, 1);
        if let Dataset::Sparse(s) = &g.data {
            for i in 0..s.len() {
                assert!((s.row(i).norm2_sq() - 1.0).abs() < 1e-9);
            }
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn nearly_separable_by_ground_truth() {
        // Predicting with the generator's own hyperplane must get ~98%
        // (only label noise wrong) — RCV1's near-separability.
        let g = generate_rows(2_000, 3);
        let mut truth_rng = Pcg64::new(0xD1CE_0002);
        let truth: Vec<f64> = (0..TRUE_SUPPORT).map(|_| truth_rng.normal()).collect();
        let mut w = vec![0.0f64; DIM];
        w[..TRUE_SUPPORT].copy_from_slice(&truth);
        let correct = (0..g.data.len())
            .filter(|&i| g.data.row(i).dot(&w) * g.data.label(i) > 0.0)
            .count();
        let acc = correct as f64 / g.data.len() as f64;
        assert!(acc > 0.95, "acc {acc}");
    }

    #[test]
    fn zipf_indices_favor_frequent_terms() {
        let g = generate_rows(200, 5);
        if let Dataset::Sparse(s) = &g.data {
            let mut low = 0usize;
            let mut total = 0usize;
            for i in 0..s.len() {
                for (idx, _) in s.row(i).iter() {
                    total += 1;
                    if (idx as usize) < DIM / 100 {
                        low += 1;
                    }
                }
            }
            // Most of the mass sits in the first percentile of the vocab.
            assert!(low * 2 > total, "low={low} total={total}");
        }
    }

    #[test]
    fn spec_scale() {
        let g = generate_rows(DEFAULT_ROWS, 9);
        assert!((g.spec.scale() - 0.01).abs() < 1e-4);
    }
}
