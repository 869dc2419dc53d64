//! Summary statistics for the calibration harness (Table 6 reports every
//! constant as `mean ± spread` over repeated measurements).

/// Summary of a sample of f64 observations.
#[derive(Debug)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    pub fn from_values(values: Vec<f64>) -> Self {
        Summary { values }
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Several percentiles, each `p` in [0, 100], by linear interpolation
    /// between order statistics, off one sort of the sample in place (the
    /// rollups read the whole tail, p50/p95/p99, of a sample they own).
    /// Read `mean`/`max` before calling; they see the sample in insertion
    /// order either way (both are computed over the unsorted values), so
    /// the sort cannot change any reported float.
    pub fn into_percentiles<const N: usize>(&mut self, ps: [f64; N]) -> [f64; N] {
        assert!(!self.values.is_empty());
        self.values
            .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in summary"));
        let sorted = &self.values;
        ps.map(|p| {
            assert!((0.0..=100.0).contains(&p));
            let rank = p / 100.0 * (sorted.len() - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let t = rank - lo as f64;
                sorted[lo] * (1.0 - t) + sorted[hi] * t
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_is_the_sample_average() {
        let s = Summary::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_is_safe() {
        let s = Summary::from_values(Vec::new());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn percentiles() {
        // Reversed input: the sort is part of what is checked.
        let mut s = Summary::from_values((1..=100).rev().map(f64::from).collect());
        let [p0, p100, p50] = s.into_percentiles([0.0, 100.0, 50.0]);
        assert!((p0 - 1.0).abs() < 1e-12);
        assert!((p100 - 100.0).abs() < 1e-12);
        assert!((p50 - 50.5).abs() < 1e-12);
    }

    #[test]
    fn max_is_the_largest_value() {
        let s = Summary::from_values(vec![3.0, -1.0, 7.0]);
        assert_eq!(s.max(), 7.0);
    }
}
