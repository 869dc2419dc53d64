//! Linear classifiers: one [`Linear`] model whose [`LinearLoss`] makes it
//! logistic regression (LR) or a linear SVM.
//!
//! Both losses act on the margin `z = y·w·x` with ±1 labels, take dense and
//! sparse rows, and carry optional L2 regularization — matching the models
//! the paper trains with SGD and ADMM on Higgs, RCV1, YFCC100M and Criteo.

use crate::objective::Objective;
use lml_data::Dataset;
use lml_linalg::dense::{dot, log1p_exp_neg, sigmoid};

/// The per-example loss a [`Linear`] model applies to the margin `z`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinearLoss {
    /// `log(1 + exp(-z))`: logistic regression.
    Logistic,
    /// `max(0, 1 - z)`: linear SVM.
    Hinge,
}

/// L2-regularized linear classifier with ±1 labels.
///
/// `loss = mean_i ℓ(y_i w·x_i) + (l2/2)·‖w‖²`, with `ℓ` its [`LinearLoss`].
#[derive(Debug, Clone)]
pub struct Linear {
    w: Vec<f64>,
    l2: f64,
    loss: LinearLoss,
}

impl Linear {
    /// Zero-initialized model (the paper's convex workloads start at 0).
    pub fn new(dim: usize, l2: f64, loss: LinearLoss) -> Self {
        assert!(l2 >= 0.0);
        Linear {
            w: vec![0.0; dim],
            l2,
            loss,
        }
    }

    /// The paper's name for the model: "LR" or "SVM".
    pub(crate) fn name(&self) -> &'static str {
        match self.loss {
            LinearLoss::Logistic => "LR",
            LinearLoss::Hinge => "SVM",
        }
    }

    /// Margin `z = y·w·x` of example `r`.
    fn margin(&self, data: &Dataset, r: usize) -> f64 {
        data.label(r) * data.row(r).dot(&self.w)
    }
}

impl Objective for Linear {
    fn dim(&self) -> usize {
        self.w.len()
    }

    fn params(&self) -> &[f64] {
        &self.w
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.w
    }

    fn grad(&self, data: &Dataset, rows: &[usize], grad_out: &mut [f64]) -> f64 {
        assert!(!rows.is_empty(), "gradient over an empty batch");
        let inv_n = 1.0 / rows.len() as f64;
        let mut total = 0.0;
        for &r in rows {
            let y = data.label(r);
            // Labels are exact ±1.0 sentinels. lml-analyze: allow(float-eq)
            debug_assert!(y == 1.0 || y == -1.0, "linear models expect ±1 labels");
            let x = data.row(r);
            let z = y * x.dot(&self.w);
            match self.loss {
                LinearLoss::Logistic => {
                    total += log1p_exp_neg(z);
                    // d/dw log(1+exp(-z)) = -y·sigmoid(-z)·x
                    x.axpy_into(-y * sigmoid(-z) * inv_n, grad_out);
                }
                LinearLoss::Hinge => {
                    // Flat past the margin: skip the row rather than add
                    // 0·x, which would turn a -0.0 entry into +0.0.
                    let slack = 1.0 - z;
                    if slack > 0.0 {
                        total += slack;
                        x.axpy_into(-y * inv_n, grad_out);
                    }
                }
            }
        }
        if self.l2 > 0.0 {
            lml_linalg::dense::axpy(self.l2, &self.w, grad_out);
            total += 0.5 * self.l2 * dot(&self.w, &self.w) * rows.len() as f64;
        }
        total * inv_n
    }

    fn loss(&self, data: &Dataset, rows: &[usize]) -> f64 {
        assert!(!rows.is_empty());
        let mut total = 0.0;
        for &r in rows {
            let z = self.margin(data, r);
            match self.loss {
                LinearLoss::Logistic => total += log1p_exp_neg(z),
                LinearLoss::Hinge => {
                    let slack = 1.0 - z;
                    if slack > 0.0 {
                        total += slack;
                    }
                }
            }
        }
        total / rows.len() as f64 + 0.5 * self.l2 * dot(&self.w, &self.w)
    }

    fn accuracy(&self, data: &Dataset, rows: &[usize]) -> f64 {
        if rows.is_empty() {
            return 1.0;
        }
        let correct = rows.iter().filter(|&&r| self.margin(data, r) > 0.0).count();
        correct as f64 / rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::grad_check;
    use lml_data::generators::DatasetId;
    use lml_linalg::dense::{add_assign, scale};

    /// Take `steps` full-batch gradient steps with learning rate `lr`.
    fn gd_steps<O: Objective>(model: &mut O, data: &Dataset, lr: f64, steps: usize) -> f64 {
        let rows: Vec<usize> = (0..data.len()).collect();
        let mut grad = vec![0.0; model.dim()];
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            grad.iter_mut().for_each(|g| *g = 0.0);
            last = model.grad(data, &rows, &mut grad);
            scale(&mut grad, -lr);
            add_assign(model.params_mut(), &grad);
        }
        last
    }

    fn lr(dim: usize, l2: f64) -> Linear {
        Linear::new(dim, l2, LinearLoss::Logistic)
    }

    fn svm(dim: usize, l2: f64) -> Linear {
        Linear::new(dim, l2, LinearLoss::Hinge)
    }

    fn tiny_higgs() -> Dataset {
        DatasetId::Higgs.generate_rows(400, 42).data
    }

    fn tiny_rcv1() -> Dataset {
        DatasetId::Rcv1.generate_rows(120, 42).data
    }

    #[test]
    fn lr_gradient_matches_numeric_dense() {
        let data = tiny_higgs();
        let mut m = lr(data.dim(), 0.01);
        // move off the zero point first
        gd_steps(&mut m, &data, 0.5, 3);
        let err = grad_check(&mut m, &data, &[0, 1, 2, 3, 4], 1e-5);
        assert!(err < 1e-6, "err={err}");
    }

    #[test]
    fn svm_gradient_matches_numeric_dense() {
        let data = tiny_higgs();
        let mut m = svm(data.dim(), 0.01);
        gd_steps(&mut m, &data, 0.1, 3);
        // Hinge is non-smooth at margin = 1; with random data points are a.s.
        // away from the kink, so central differences still match.
        let err = grad_check(&mut m, &data, &[0, 1, 2, 3, 4], 1e-7);
        assert!(err < 1e-5, "err={err}");
    }

    #[test]
    fn lr_gradient_matches_numeric_sparse() {
        let data = tiny_rcv1();
        let mut m = lr(data.dim(), 0.0);
        let rows: Vec<usize> = (0..10).collect();
        let mut g = vec![0.0; m.dim()];
        m.grad(&data, &rows, &mut g);
        // check only the touched coordinates (47K dims — full check is slow)
        let touched: Vec<usize> = (0..m.dim()).filter(|&j| g[j] != 0.0).take(20).collect();
        for j in touched {
            let eps = 1e-6;
            let orig = m.params()[j];
            m.params_mut()[j] = orig + eps;
            let hi = m.loss(&data, &rows);
            m.params_mut()[j] = orig - eps;
            let lo = m.loss(&data, &rows);
            m.params_mut()[j] = orig;
            let num = (hi - lo) / (2.0 * eps);
            assert!((num - g[j]).abs() < 1e-6, "coord {j}: {num} vs {}", g[j]);
        }
    }

    #[test]
    fn lr_trains_below_chance_loss_on_higgs() {
        let data = tiny_higgs();
        let mut m = lr(data.dim(), 0.0);
        let l0 = m.full_loss(&data);
        assert!((l0 - (2.0f64).ln()).abs() < 1e-9, "zero model loss = ln 2");
        let l = gd_steps(&mut m, &data, 0.5, 100);
        assert!(l < 0.66, "trained loss {l}");
        assert!(m.full_accuracy(&data) > 0.55);
    }

    #[test]
    fn svm_trains_on_rcv1_to_low_hinge() {
        let data = tiny_rcv1();
        let mut m = svm(data.dim(), 0.0);
        let l = gd_steps(&mut m, &data, 0.5, 200);
        assert!(l < 0.3, "RCV1 is near-separable, hinge should fall: {l}");
    }

    #[test]
    fn l2_pulls_weights_down() {
        let data = tiny_higgs();
        let mut free = lr(data.dim(), 0.0);
        let mut reg = lr(data.dim(), 1.0);
        gd_steps(&mut free, &data, 0.5, 50);
        gd_steps(&mut reg, &data, 0.5, 50);
        let n_free = lml_linalg::dense::norm2(free.params());
        let n_reg = lml_linalg::dense::norm2(reg.params());
        assert!(n_reg < n_free, "{n_reg} vs {n_free}");
    }

    /// One line per {loss} × {dataset} × {l2}: ten full-batch steps from
    /// zero (enough for hinge to skip rows on both datasets), then four
    /// Pcg64-drawn batches of 32 rows. `grad` folds each batch's gradient
    /// and returned loss, `loss` the batch `loss`, `acc` the batch
    /// `accuracy`, all as FNV-1a over `to_bits`. Every other gradient
    /// starts from `-0.0`, which an entry no row touches must keep. A
    /// mismatch prints the whole new table.
    const GOLDEN: &str = "\
logistic higgs_dense l2=0 grad=8fd67e3338e066f4 loss=c1cfa7361d114d5b acc=4ee9a7ddb1ec6fcd
logistic higgs_dense l2=0.01 grad=5b51e57c677cc3c5 loss=6ba8753066b56084 acc=4ee9a7ddb1ec6fcd
logistic rcv1_sparse l2=0 grad=2ce5f54b47617d18 loss=0805754a61b4842c acc=eb6c350be52923e6
logistic rcv1_sparse l2=0.01 grad=10e4805522a1db16 loss=4722e8b570de11a2 acc=eb6c350be52923e6
hinge higgs_dense l2=0 grad=99e0283911af5807 loss=cb5c3478598f28cd acc=8798e380b744a448
hinge higgs_dense l2=0.01 grad=4540dd48b34709c7 loss=770e16bba480df7f acc=0d99115400e7ae71
hinge rcv1_sparse l2=0 grad=f9f6f3c309495fe7 loss=2d89fb83f0f1deaa acc=eb6c350be52923e6
hinge rcv1_sparse l2=0.01 grad=1e23e29433838e4a loss=c5082d493a5b61b3 acc=eb6c350be52923e6
";

    fn fnv(h: u64, x: f64) -> u64 {
        let fold = |h: u64, &b: &u8| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        x.to_bits().to_le_bytes().iter().fold(h, fold)
    }

    fn golden_line(
        mut m: impl Objective,
        loss: &str,
        name: &str,
        data: &Dataset,
        l2: f64,
    ) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        gd_steps(&mut m, data, 0.5, 10);
        let mut rng = lml_sim::Pcg64::new(42);
        let (mut g, mut l, mut a) = (FNV_OFFSET, FNV_OFFSET, FNV_OFFSET);
        let mut grad = vec![0.0; m.dim()];
        for zero in [0.0, -0.0, 0.0, -0.0] {
            let rows = rng.sample_indices(data.len(), 32);
            grad.fill(zero);
            let batch_loss = m.grad(data, &rows, &mut grad);
            g = fnv(grad.iter().fold(g, |h, &v| fnv(h, v)), batch_loss);
            l = fnv(l, m.loss(data, &rows));
            a = fnv(a, m.accuracy(data, &rows));
        }
        format!("{loss} {name} l2={l2} grad={g:016x} loss={l:016x} acc={a:016x}")
    }

    #[test]
    fn losses_match_the_golden_table() {
        let (higgs, rcv1) = (tiny_higgs(), tiny_rcv1());
        let mut table = String::new();
        for (loss, kind) in [
            ("logistic", LinearLoss::Logistic),
            ("hinge", LinearLoss::Hinge),
        ] {
            for (name, data) in [("higgs_dense", &higgs), ("rcv1_sparse", &rcv1)] {
                for l2 in [0.0, 0.01] {
                    let model = Linear::new(data.dim(), l2, kind);
                    table += &golden_line(model, loss, name, data, l2);
                    table.push('\n');
                }
            }
        }
        assert!(
            table == GOLDEN,
            "linear golden table moved; new table:\n{table}"
        );
    }
}
