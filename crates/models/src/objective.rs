//! The gradient-based training interface.
//!
//! Every SGD/ADMM-trainable model exposes a flat parameter buffer and a
//! mini-batch gradient. Distributed algorithms (GA-SGD, MA-SGD, ADMM) only
//! ever see this interface plus raw `&[f64]` statistics — mirroring how
//! LambdaML's communication layer ships opaque tensors.

use lml_data::Dataset;

/// A differentiable training objective with a flat parameter vector.
pub trait Objective {
    /// Number of parameters.
    fn dim(&self) -> usize;

    /// Parameter vector.
    fn params(&self) -> &[f64];

    /// Mutable parameter vector.
    fn params_mut(&mut self) -> &mut [f64];

    /// Accumulate the mean gradient over `rows` into `grad_out` (pre-zeroed
    /// by the caller) and return the mean loss over those rows.
    fn grad(&self, data: &Dataset, rows: &[usize], grad_out: &mut [f64]) -> f64;

    /// Mean loss over `rows` (no gradient).
    fn loss(&self, data: &Dataset, rows: &[usize]) -> f64;

    /// Fraction of `rows` classified correctly (1.0 for non-classifiers).
    fn accuracy(&self, data: &Dataset, rows: &[usize]) -> f64;

    /// Mean loss over the whole dataset.
    fn full_loss(&self, data: &Dataset) -> f64 {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.loss(data, &rows)
    }

    /// Accuracy over the whole dataset.
    fn full_accuracy(&self, data: &Dataset) -> f64 {
        let rows: Vec<usize> = (0..data.len()).collect();
        self.accuracy(data, &rows)
    }
}

/// Numerical gradient check for the model unit tests: compares the
/// analytic gradient against central differences at the current parameters.
/// Returns the max absolute element-wise error.
#[cfg(test)]
pub fn grad_check<O: Objective>(model: &mut O, data: &Dataset, rows: &[usize], eps: f64) -> f64 {
    let dim = model.dim();
    let mut analytic = vec![0.0; dim];
    model.grad(data, rows, &mut analytic);
    let mut max_err: f64 = 0.0;
    #[allow(clippy::needless_range_loop)] // `j` also indexes `model.params`
    for j in 0..dim {
        let orig = model.params()[j];
        model.params_mut()[j] = orig + eps;
        let hi = model.loss(data, rows);
        model.params_mut()[j] = orig - eps;
        let lo = model.loss(data, rows);
        model.params_mut()[j] = orig;
        let numeric = (hi - lo) / (2.0 * eps);
        max_err = max_err.max((numeric - analytic[j]).abs());
    }
    max_err
}

#[cfg(test)]
mod tests {
    // `grad_check` itself is exercised by the model crates' tests; here we
    // only verify the default implementations compose.
    use super::*;
    use lml_data::dataset::DenseDataset;
    use lml_linalg::Matrix;

    struct Quadratic {
        w: Vec<f64>,
    }

    impl Objective for Quadratic {
        fn dim(&self) -> usize {
            self.w.len()
        }
        fn params(&self) -> &[f64] {
            &self.w
        }
        fn params_mut(&mut self) -> &mut [f64] {
            &mut self.w
        }
        fn grad(&self, _d: &Dataset, rows: &[usize], g: &mut [f64]) -> f64 {
            for (j, gj) in g.iter_mut().enumerate() {
                *gj = self.w[j];
            }
            let _ = rows;
            0.5 * self.w.iter().map(|v| v * v).sum::<f64>()
        }
        fn loss(&self, _d: &Dataset, _rows: &[usize]) -> f64 {
            0.5 * self.w.iter().map(|v| v * v).sum::<f64>()
        }
        fn accuracy(&self, _d: &Dataset, _rows: &[usize]) -> f64 {
            1.0
        }
    }

    fn dummy() -> Dataset {
        Dataset::Dense(DenseDataset::new(Matrix::zeros(2, 1), vec![1.0, -1.0]))
    }

    #[test]
    fn grad_check_passes_for_analytic_quadratic() {
        let mut q = Quadratic {
            w: vec![1.0, -2.0, 3.0],
        };
        let err = grad_check(&mut q, &dummy(), &[0, 1], 1e-5);
        assert!(err < 1e-8, "err={err}");
    }

    #[test]
    fn full_loss_uses_all_rows() {
        let q = Quadratic { w: vec![2.0] };
        assert_eq!(q.full_loss(&dummy()), 2.0);
        assert_eq!(q.full_accuracy(&dummy()), 1.0);
    }
}
