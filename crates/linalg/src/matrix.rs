//! Row-major dense matrix.
//!
//! Used for dense feature blocks (a dataset partition is a `rows × dim`
//! matrix) and MLP weight layers. Only the operations the workloads need are
//! implemented: construction, element and row access, and flat views (the
//! MLP's products run over these rows in [`crate::blocked`]).

/// Row-major `rows × cols` matrix of f64.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major buffer.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        Matrix { rows, cols, data }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Flat row-major view of the whole matrix.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view.
    pub fn as_flat_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_flat(2, 2, vec![1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn construction_and_access() {
        let m = m22();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    fn zeros_and_set() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 7.0);
        assert_eq!(m.get(1, 2), 7.0);
        assert_eq!(m.as_flat().iter().sum::<f64>(), 7.0);
    }

    #[test]
    #[should_panic]
    fn from_flat_rejects_wrong_size() {
        Matrix::from_flat(2, 2, vec![1.0]);
    }

    #[test]
    fn row_mut_edits_in_place() {
        let mut m = m22();
        m.row_mut(1)[1] = 9.0;
        assert_eq!(m.get(1, 1), 9.0);
    }
}
