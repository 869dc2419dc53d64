//! Piecewise-linear lookup tables.
//!
//! The paper reports start-up time at a handful of worker counts
//! (Table 6: `t_F(w)` and `t_I(w)` at w = 10, 50, 100, 200). The simulator
//! needs values at arbitrary `w`; [`PiecewiseLinear`] interpolates between
//! the measured knots and extrapolates linearly beyond them.

/// A monotone-x piecewise-linear function defined by `(x, y)` knots.
#[derive(Debug, Clone)]
pub struct PiecewiseLinear {
    knots: Vec<(f64, f64)>,
}

impl PiecewiseLinear {
    /// Build from knots; they are sorted by x. At least one knot is required
    /// and x values must be distinct.
    pub fn new(mut knots: Vec<(f64, f64)>) -> Self {
        assert!(!knots.is_empty(), "need at least one knot");
        knots.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("knot x must not be NaN"));
        for w in knots.windows(2) {
            assert!(w[0].0 < w[1].0, "duplicate knot x {}", w[0].0);
        }
        PiecewiseLinear { knots }
    }

    /// Evaluate at `x` with linear interpolation inside the knot range and
    /// linear extrapolation outside it (clamped at zero).
    pub fn eval(&self, x: f64) -> f64 {
        let k = &self.knots;
        if k.len() == 1 {
            return k[0].1;
        }
        // Select segment: before first, after last, or the bracketing pair.
        let (a, b) = if x <= k[0].0 {
            (k[0], k[1])
        } else if x >= k[k.len() - 1].0 {
            (k[k.len() - 2], k[k.len() - 1])
        } else {
            let i = k.partition_point(|&(kx, _)| kx < x);
            (k[i - 1], k[i])
        };
        let t = (x - a.0) / (b.0 - a.0);
        (a.1 + t * (b.1 - a.1)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t_f() -> PiecewiseLinear {
        // Table 6: t_F(w) at 10/50/100/200 workers.
        PiecewiseLinear::new(vec![
            (10.0, 1.2),
            (50.0, 11.0),
            (100.0, 18.0),
            (200.0, 35.0),
        ])
    }

    #[test]
    fn exact_at_knots() {
        let f = t_f();
        assert_eq!(f.eval(10.0), 1.2);
        assert_eq!(f.eval(50.0), 11.0);
        assert_eq!(f.eval(200.0), 35.0);
    }

    #[test]
    fn interpolates_between_knots() {
        let f = t_f();
        let v = f.eval(75.0);
        assert!((v - (11.0 + 18.0) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn extrapolates_beyond_range() {
        let f = t_f();
        // slope 0.17 beyond 200 -> 300 workers ~ 52s
        let v = f.eval(300.0);
        assert!((v - 52.0).abs() < 1e-9, "v={v}");
        // before 10, slope 0.245 downward but clamped >= 0
        assert!(f.eval(0.0) >= 0.0);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let f = PiecewiseLinear::new(vec![(2.0, 20.0), (1.0, 10.0)]);
        assert_eq!(f.eval(1.5), 15.0);
    }

    #[test]
    fn single_knot_is_constant() {
        let f = PiecewiseLinear::new(vec![(5.0, 7.0)]);
        assert_eq!(f.eval(0.0), 7.0);
        assert_eq!(f.eval(100.0), 7.0);
    }

    #[test]
    #[should_panic]
    fn duplicate_x_rejected() {
        PiecewiseLinear::new(vec![(1.0, 1.0), (1.0, 2.0)]);
    }
}
