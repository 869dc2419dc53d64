//! Sparse vectors for high-dimensional workloads (RCV1: 47 K dims, Criteo:
//! 1 M dims).
//!
//! A [`SparseVec`] is a pair of parallel arrays `(indices, values)` with
//! strictly increasing `u32` indices. Models keep their parameters dense and
//! interact with sparse examples through the kernels here — the same layout
//! trick the paper's PyTorch implementation relies on.

use crate::dense;

/// Sparse vector: strictly-increasing indices with parallel values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVec {
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl SparseVec {
    /// Build from `(index, value)` pairs. Pairs are sorted; duplicate indices
    /// are summed; explicit zeros are kept (they still cost wire bytes, as in
    /// a real TF-IDF row).
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_by_key(|p| p.0);
        let mut idx = Vec::with_capacity(pairs.len());
        let mut val = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            if idx.last() == Some(&i) {
                *val.last_mut().expect("parallel arrays") += v;
            } else {
                idx.push(i);
                val.push(v);
            }
        }
        SparseVec { idx, val }
    }

    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Iterate `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.idx.iter().copied().zip(self.val.iter().copied())
    }

    /// Dot product against a dense vector of at least `max index + 1` length.
    #[inline]
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (i, v) in self.iter() {
            acc += dense[i as usize] * v;
        }
        acc
    }

    /// `dense[i] += a * self[i]` for all stored entries — the sparse gradient
    /// scatter used by LR/SVM on sparse data.
    #[inline]
    pub fn axpy_into_dense(&self, a: f64, dense: &mut [f64]) {
        for (i, v) in self.iter() {
            dense[i as usize] += a * v;
        }
    }

    /// Squared L2 norm.
    pub fn norm2_sq(&self) -> f64 {
        dense::dot(&self.val, &self.val)
    }

    /// Scale all values in place (used by TF-IDF row normalization).
    fn scale(&mut self, a: f64) {
        dense::scale(&mut self.val, a);
    }

    /// L2-normalize in place; no-op on the zero vector.
    pub fn normalize(&mut self) {
        let n = self.norm2_sq().sqrt();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// Materialize as a dense vector of length `dim`.
    pub fn to_dense(&self, dim: usize) -> Vec<f64> {
        let mut out = vec![0.0; dim];
        self.write_dense(&mut out);
        out
    }

    /// Overwrite `out` with the dense form of this vector (zeros where
    /// nothing is stored) — `to_dense` into a buffer the caller reuses.
    pub fn write_dense(&self, out: &mut [f64]) {
        dense::zero(out);
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = SparseVec::from_pairs(vec![(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.indices(), &[2, 5]);
        assert_eq!(v.values(), &[2.0, 4.0]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn dot_against_dense() {
        let v = SparseVec::from_pairs(vec![(0, 2.0), (3, 4.0)]);
        let d = [1.0, 9.0, 9.0, 0.5];
        assert_eq!(v.dot_dense(&d), 4.0);
    }

    #[test]
    fn axpy_scatter() {
        let v = SparseVec::from_pairs(vec![(1, 1.0), (2, -1.0)]);
        let mut d = vec![0.0; 4];
        v.axpy_into_dense(2.0, &mut d);
        assert_eq!(d, vec![0.0, 2.0, -2.0, 0.0]);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = SparseVec::from_pairs(vec![(0, 3.0), (7, 4.0)]);
        v.normalize();
        assert!((v.norm2_sq() - 1.0).abs() < 1e-12);
        // zero vector unchanged
        let mut z = SparseVec::default();
        z.normalize();
        assert_eq!(z.nnz(), 0);
    }

    #[test]
    fn to_dense_roundtrip() {
        let v = SparseVec::from_pairs(vec![(1, 5.0)]);
        assert_eq!(v.to_dense(3), vec![0.0, 5.0, 0.0]);
    }
}
