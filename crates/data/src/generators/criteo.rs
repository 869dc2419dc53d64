//! Criteo-like dataset.
//!
//! The Criteo click-through dataset has 52 M rows and ~1 M one-hot features:
//! 13 numeric fields plus 26 categorical fields hashed into a large space.
//! Every row stores exactly 39 entries — extreme dimensionality with tiny
//! per-row support, which is why the paper notes the FaaS speed gap narrows
//! on Criteo (the 1 M-dim model dominates communication).
//!
//! The generator matches: 13 dense slots with log-normal values, 26
//! categorical one-hot indices drawn Zipf over the hashed space, click labels
//! from a sparse logit with a realistic ~3% positive rate option — the paper
//! balances to ±1 classification, so we keep classes at 25% positive.

use crate::dataset::{Dataset, SparseDataset};
use crate::generators::{DatasetId, Generated};
use crate::spec::{DatasetSpec, Task};
use lml_linalg::SparseVec;
use lml_sim::Pcg64;

/// Default sample rows (paper: 52 M).
pub(crate) const DEFAULT_ROWS: usize = 10_000;

/// Hashed feature-space dimension (paper: 1 M features).
const DIM: usize = 1_000_000;

/// Numeric fields occupy indices 0..13.
const NUMERIC_FIELDS: usize = 13;

/// Categorical fields: 26, hashed into the remaining space.
const CATEGORICAL_FIELDS: usize = 26;

/// Ground-truth support size for the click logit.
const TRUE_SUPPORT: usize = 50_000;

pub(crate) fn generate_rows(rows: usize, seed: u64) -> Generated {
    let mut rng = Pcg64::new(seed ^ 0x4352_5445_u64); // "CRTE"
    let mut truth_rng = Pcg64::new(0xD1CE_0005);
    // Sparse ground-truth logit over frequent hash buckets.
    let mut truth = vec![0.0f64; TRUE_SUPPORT];
    for t in truth.iter_mut() {
        *t = truth_rng.normal() * 0.8;
    }

    // Each categorical field hashes into its own vocabulary range, as a real
    // feature hasher would salt by field — so every row has exactly 39
    // stored entries (13 numeric + 26 one-hots).
    let field_space = (DIM - NUMERIC_FIELDS) / CATEGORICAL_FIELDS;
    let mut rows_out = Vec::with_capacity(rows);
    let mut labels = Vec::with_capacity(rows);
    for _ in 0..rows {
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(39);
        // Numeric fields: ln(1+x), x log-normal-ish.
        for j in 0..NUMERIC_FIELDS {
            let x = (rng.normal() * 1.5).exp();
            pairs.push((j as u32, (1.0 + x).ln()));
        }
        // Categorical fields: Zipf one-hot inside each field's vocabulary.
        for f in 0..CATEGORICAL_FIELDS {
            let bucket = rng.zipf(field_space, 1.15) + NUMERIC_FIELDS + f * field_space;
            pairs.push((bucket as u32, 1.0));
        }
        let sv = SparseVec::from_pairs(pairs);
        let mut margin = -0.6; // negative bias: clicks are rarer
        for (i, v) in sv.iter() {
            if (i as usize) < TRUE_SUPPORT {
                margin += truth[i as usize] * v * 0.2;
            }
        }
        let p = lml_linalg::dense::sigmoid(margin);
        let y = if rng.coin(p) { 1.0 } else { -1.0 };
        rows_out.push(sv);
        labels.push(y);
    }

    Generated {
        data: Dataset::Sparse(SparseDataset::new(rows_out, labels, DIM)),
        spec: DatasetSpec {
            name: "Criteo",
            paper_instances: 52_000_000,
            features: DIM,
            paper_bytes: DatasetId::Criteo.paper_bytes(),
            sample_instances: rows as u64,
            task: Task::Binary,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_row_has_exactly_39_entries() {
        // 13 numeric + 26 categorical one-hots, one per field.
        let g = generate_rows(200, 42);
        if let Dataset::Sparse(s) = &g.data {
            for i in 0..s.len() {
                assert_eq!(s.row(i).nnz(), 39, "row {i}");
            }
        } else {
            panic!("expected sparse");
        }
    }

    #[test]
    fn numeric_fields_always_present() {
        let g = generate_rows(50, 1);
        if let Dataset::Sparse(s) = &g.data {
            for i in 0..s.len() {
                let idx = s.row(i).indices();
                for j in 0..NUMERIC_FIELDS as u32 {
                    assert!(idx.contains(&j), "row {i} missing numeric field {j}");
                }
            }
        }
    }

    #[test]
    fn both_classes_present() {
        let g = generate_rows(3_000, 42);
        let pos = (0..g.data.len())
            .filter(|&i| g.data.label(i) == 1.0)
            .count();
        let rate = pos as f64 / g.data.len() as f64;
        assert!(rate > 0.05 && rate < 0.6, "positive rate {rate}");
    }

    #[test]
    fn dimension_is_one_million() {
        let g = generate_rows(10, 1);
        assert_eq!(g.data.dim(), 1_000_000);
        assert_eq!(g.spec.paper_instances, 52_000_000);
    }
}
