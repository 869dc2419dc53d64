//! Dataset transformations.
//!
//! The paper's protocols (§4.1, §5.2) shuffle and split 90/10 into
//! train/validation, and the Table 5 pipeline normalizes features to
//! [-1, 1] before grid search. These operations live here.

use crate::dataset::{Dataset, DenseDataset};
use lml_sim::Pcg64;

/// Shuffle-split a dataset into (train, validation) with `train_frac` of the
/// rows in the training split.
pub fn train_valid_split(data: &Dataset, train_frac: f64, seed: u64) -> (Dataset, Dataset) {
    assert!((0.0..=1.0).contains(&train_frac));
    let n = data.len();
    let mut order: Vec<usize> = (0..n).collect();
    Pcg64::new(seed ^ 0x5350_4c49).shuffle(&mut order);
    let cut = ((n as f64) * train_frac).round() as usize;
    let train = data.subset(&order[..cut]);
    let valid = data.subset(&order[cut..]);
    (train, valid)
}

/// Min-max statistics of a dense dataset, one (min, max) per column.
#[derive(Debug, Clone)]
pub(crate) struct MinMax {
    pub mins: Vec<f64>,
    pub maxs: Vec<f64>,
}

impl MinMax {
    /// Compute column-wise min/max.
    fn fit(data: &DenseDataset) -> MinMax {
        let d = data.dim();
        let mut mins = vec![f64::INFINITY; d];
        let mut maxs = vec![f64::NEG_INFINITY; d];
        for r in 0..data.len() {
            for (j, &v) in data.row(r).iter().enumerate() {
                mins[j] = mins[j].min(v);
                maxs[j] = maxs[j].max(v);
            }
        }
        MinMax { mins, maxs }
    }

    /// Normalize a dense dataset in place to [-1, 1] per column (constant
    /// columns map to 0) — step (1) of the Table 5 pipeline.
    fn apply(&self, data: &mut DenseDataset) {
        for r in 0..data.len() {
            let row = data.row_mut(r);
            for (j, v) in row.iter_mut().enumerate() {
                let range = self.maxs[j] - self.mins[j];
                *v = if range > 0.0 {
                    2.0 * (*v - self.mins[j]) / range - 1.0
                } else {
                    0.0
                };
            }
        }
    }
}

/// Fit + apply min-max normalization to a dense dataset.
pub fn normalize_minmax(data: &mut DenseDataset) {
    MinMax::fit(data).apply(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_linalg::Matrix;

    fn toy() -> Dataset {
        let m = Matrix::from_flat(4, 2, vec![0.0, 10.0, 1.0, 20.0, 2.0, 30.0, 3.0, 40.0]);
        Dataset::Dense(DenseDataset::new(m, vec![1.0, -1.0, 1.0, -1.0]))
    }

    #[test]
    fn split_sizes() {
        let (tr, va) = train_valid_split(&toy(), 0.75, 42);
        assert_eq!(tr.len(), 3);
        assert_eq!(va.len(), 1);
    }

    #[test]
    fn split_partitions_the_rows() {
        let big = crate::generators::higgs::generate_rows(100, 7).data;
        let (tr, va) = train_valid_split(&big, 0.9, 1);
        // Per-row fingerprint: the bits of the label and of a weighted
        // feature sum, sorted.
        let w: Vec<f64> = (1..=big.dim()).map(|j| j as f64).collect();
        let rows = |parts: &[&Dataset]| {
            let mut f: Vec<(u64, u64)> = parts
                .iter()
                .flat_map(|d| (0..d.len()).map(|i| (d.label(i), d.row(i).dot(&w))))
                .map(|(y, x)| (y.to_bits(), x.to_bits()))
                .collect();
            f.sort();
            f
        };
        assert_eq!(tr.len(), 90);
        assert_eq!(rows(&[&tr, &va]), rows(&[&big]), "a partition of the rows");
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let mut d = match toy() {
            Dataset::Dense(d) => d,
            _ => unreachable!(),
        };
        normalize_minmax(&mut d);
        for r in 0..d.len() {
            for &v in d.row(r) {
                assert!((-1.0..=1.0).contains(&v), "v={v}");
            }
        }
        assert_eq!(d.row(0)[0], -1.0);
        assert_eq!(d.row(3)[0], 1.0);
    }

    #[test]
    fn minmax_constant_column_maps_to_zero() {
        let m = Matrix::from_flat(2, 2, vec![5.0, 1.0, 5.0, 2.0]);
        let mut d = DenseDataset::new(m, vec![1.0, -1.0]);
        normalize_minmax(&mut d);
        assert_eq!(d.row(0)[0], 0.0);
        assert_eq!(d.row(1)[0], 0.0);
    }
}
