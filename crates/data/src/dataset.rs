//! Dataset containers.
//!
//! Two physical layouts — dense (row-major matrix) and sparse (vector of
//! [`SparseVec`] rows) — behind one [`Dataset`] enum. Labels are f64: ±1 for
//! binary classification, 0..k-1 for multiclass, unused for clustering.

use lml_linalg::{Matrix, SparseVec};

/// A borrowed view of one training example's features.
#[derive(Debug, Clone, Copy)]
pub enum Row<'a> {
    Dense(&'a [f64]),
    Sparse(&'a SparseVec),
}

impl<'a> Row<'a> {
    /// Dot product with a dense parameter vector.
    #[inline]
    pub fn dot(&self, w: &[f64]) -> f64 {
        match self {
            Row::Dense(x) => lml_linalg::dense::dot(x, w),
            Row::Sparse(x) => x.dot_dense(w),
        }
    }

    /// `out += a * x` — gradient scatter.
    #[inline]
    pub fn axpy_into(&self, a: f64, out: &mut [f64]) {
        match self {
            Row::Dense(x) => lml_linalg::dense::axpy(a, x, out),
            Row::Sparse(x) => x.axpy_into_dense(a, out),
        }
    }
}

/// Dense dataset: `n × dim` feature matrix plus labels.
#[derive(Debug, Clone)]
pub struct DenseDataset {
    features: Matrix,
    labels: Vec<f64>,
}

impl DenseDataset {
    pub fn new(features: Matrix, labels: Vec<f64>) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "feature/label count mismatch"
        );
        DenseDataset { features, labels }
    }

    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn dim(&self) -> usize {
        self.features.cols()
    }

    pub fn row(&self, i: usize) -> &[f64] {
        self.features.row(i)
    }

    pub(crate) fn row_mut(&mut self, i: usize) -> &mut [f64] {
        self.features.row_mut(i)
    }

    fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }
}

/// Sparse dataset: one [`SparseVec`] per example plus labels; `dim` is the
/// logical feature-space dimension.
#[derive(Debug, Clone)]
pub struct SparseDataset {
    rows: Vec<SparseVec>,
    labels: Vec<f64>,
    dim: usize,
}

impl SparseDataset {
    pub fn new(rows: Vec<SparseVec>, labels: Vec<f64>, dim: usize) -> Self {
        assert_eq!(rows.len(), labels.len(), "feature/label count mismatch");
        debug_assert!(rows
            .iter()
            .all(|r| r.indices().last().is_none_or(|&i| (i as usize) < dim)));
        SparseDataset { rows, labels, dim }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `pub` beside the `pub` [`SparseDataset::len`], as clippy's
    /// `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn row(&self, i: usize) -> &SparseVec {
        &self.rows[i]
    }

    pub fn label(&self, i: usize) -> f64 {
        self.labels[i]
    }

    /// Average number of stored entries per row.
    pub fn avg_nnz(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(SparseVec::nnz).sum::<usize>() as f64 / self.rows.len() as f64
    }
}

/// A dataset in either layout.
#[derive(Debug, Clone)]
pub enum Dataset {
    Dense(DenseDataset),
    Sparse(SparseDataset),
}

impl Dataset {
    pub fn len(&self) -> usize {
        match self {
            Dataset::Dense(d) => d.len(),
            Dataset::Sparse(d) => d.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn dim(&self) -> usize {
        match self {
            Dataset::Dense(d) => d.dim(),
            Dataset::Sparse(d) => d.dim(),
        }
    }

    pub fn row(&self, i: usize) -> Row<'_> {
        match self {
            Dataset::Dense(d) => Row::Dense(d.row(i)),
            Dataset::Sparse(d) => Row::Sparse(d.row(i)),
        }
    }

    pub fn label(&self, i: usize) -> f64 {
        match self {
            Dataset::Dense(d) => d.label(i),
            Dataset::Sparse(d) => d.label(i),
        }
    }

    /// Restrict to the given row indices (copies).
    pub fn subset(&self, rows: &[usize]) -> Dataset {
        match self {
            Dataset::Dense(d) => {
                let mut m = Matrix::zeros(rows.len(), d.dim());
                let mut labels = Vec::with_capacity(rows.len());
                for (out_r, &r) in rows.iter().enumerate() {
                    m.row_mut(out_r).copy_from_slice(d.row(r));
                    labels.push(d.label(r));
                }
                Dataset::Dense(DenseDataset::new(m, labels))
            }
            Dataset::Sparse(d) => {
                let sel: Vec<SparseVec> = rows.iter().map(|&r| d.row(r).clone()).collect();
                let labels = rows.iter().map(|&r| d.label(r)).collect();
                Dataset::Sparse(SparseDataset::new(sel, labels, d.dim()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense3() -> Dataset {
        let m = Matrix::from_flat(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        Dataset::Dense(DenseDataset::new(m, vec![1.0, -1.0, 1.0]))
    }

    fn sparse3() -> Dataset {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0)]),
            SparseVec::from_pairs(vec![(4, 2.0)]),
            SparseVec::from_pairs(vec![(2, 3.0), (4, 1.0)]),
        ];
        Dataset::Sparse(SparseDataset::new(rows, vec![1.0, -1.0, -1.0], 5))
    }

    #[test]
    fn dense_access() {
        let d = dense3();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.label(1), -1.0);
        assert_eq!(d.row(2).dot(&[1.0, 1.0]), 11.0);
    }

    #[test]
    fn sparse_access() {
        let d = sparse3();
        assert_eq!(d.len(), 3);
        assert_eq!(d.dim(), 5);
        let w = vec![1.0; 5];
        assert_eq!(d.row(2).dot(&w), 4.0);
    }

    #[test]
    fn row_axpy_both_layouts() {
        let mut out = vec![0.0; 2];
        dense3().row(0).axpy_into(2.0, &mut out);
        assert_eq!(out, vec![2.0, 4.0]);
        let mut out5 = vec![0.0; 5];
        sparse3().row(1).axpy_into(0.5, &mut out5);
        assert_eq!(out5[4], 1.0);
    }

    #[test]
    fn subset_copies_selected_rows() {
        let d = dense3().subset(&[2, 0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d.label(0), 1.0);
        match d.row(0) {
            Row::Dense(x) => assert_eq!(x, &[5.0, 6.0]),
            _ => panic!("expected dense"),
        }
        let s = sparse3().subset(&[1]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.label(0), -1.0);
    }

    #[test]
    fn avg_nnz() {
        if let Dataset::Sparse(s) = sparse3() {
            assert!((s.avg_nnz() - 4.0 / 3.0).abs() < 1e-12);
        } else {
            unreachable!()
        }
    }

    #[test]
    #[should_panic]
    fn mismatched_labels_panic() {
        DenseDataset::new(Matrix::zeros(2, 2), vec![1.0]);
    }
}
