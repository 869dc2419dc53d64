//! Dense BLAS-1 style kernels on f64 slices.
//!
//! These are the hot loops of every linear-model workload in the paper
//! (LR/SVM gradients are dot + axpy; k-means is squared distances). They are
//! written as straightforward indexed loops, which LLVM auto-vectorizes in
//! release builds.

/// Dot product `x · y`. Panics if lengths differ.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = 0.0;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

/// `y += a * x`. Panics if lengths differ.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

/// `x *= a`.
#[inline]
pub fn scale(x: &mut [f64], a: f64) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// `y += x` element-wise.
#[inline]
pub fn add_assign(y: &mut [f64], x: &[f64]) {
    axpy(1.0, x, y);
}

/// Set all elements to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    x.iter_mut().for_each(|v| *v = 0.0);
}

/// Euclidean norm.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Squared Euclidean distance between two vectors.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2: length mismatch");
    let mut acc = 0.0;
    for i in 0..x.len() {
        let d = x[i] - y[i];
        acc += d * d;
    }
    acc
}

/// Index of the maximum element (first on ties). Panics on empty input.
#[inline]
pub fn argmax(x: &[f64]) -> usize {
    assert!(!x.is_empty(), "argmax of empty slice");
    let mut best = (0, x.first().copied().unwrap_or(f64::NAN));
    for (i, &v) in x.iter().enumerate().skip(1) {
        if v > best.1 {
            best = (i, v);
        }
    }
    best.0
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// `log(1 + exp(-z))` without overflow — the logistic loss kernel.
#[inline]
pub fn log1p_exp_neg(z: f64) -> f64 {
    if z > 0.0 {
        (-z).exp().ln_1p()
    } else {
        -z + z.exp().ln_1p()
    }
}

/// In-place softmax over a slice (subtracts the max for stability).
pub fn softmax_inplace(x: &mut [f64]) {
    assert!(!x.is_empty());
    let m = x.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in x.iter_mut() {
        *v = (*v - m).exp();
        sum += *v;
    }
    for v in x.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_and_zero() {
        let mut x = vec![2.0, -4.0];
        scale(&mut x, 0.5);
        assert_eq!(x, vec![1.0, -2.0]);
        zero(&mut x);
        assert_eq!(x, vec![0.0, 0.0]);
    }

    #[test]
    fn norms_and_distances() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dist2(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    fn argmax_picks_the_first_maximum() {
        assert_eq!(argmax(&[1.0, 5.0, 3.0]), 1);
        assert_eq!(argmax(&[2.0, 2.0]), 0, "first wins ties");
    }

    #[test]
    fn sigmoid_stable_at_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0) >= 0.0);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn logistic_loss_kernel_stable() {
        // log(1+exp(-z)) at large |z|
        assert!((log1p_exp_neg(800.0) - 0.0).abs() < 1e-12);
        assert!((log1p_exp_neg(-800.0) - 800.0).abs() < 1e-9);
        assert!((log1p_exp_neg(0.0) - (2.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn softmax_sums_to_one() {
        let mut x = vec![1.0, 2.0, 3.0];
        softmax_inplace(&mut x);
        assert!((x.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(x[2] > x[1] && x[1] > x[0]);
        // stability with huge logits
        let mut y = vec![1000.0, 1000.0];
        softmax_inplace(&mut y);
        assert!((y[0] - 0.5).abs() < 1e-12);
    }
}
