//! Summary statistics for the calibration harness (Table 6 reports every
//! constant as `mean ± spread` over repeated measurements).

/// Running summary of a sample of f64 observations.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    values: Vec<f64>,
}

impl Summary {
    pub fn new() -> Self {
        Summary::default()
    }

    pub fn from_values(values: Vec<f64>) -> Self {
        Summary { values }
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (n-1 denominator).
    pub fn std(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64).sqrt()
    }

    pub fn min(&self) -> f64 {
        self.values.iter().cloned().fold(f64::INFINITY, f64::min)
    }

    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Percentile via linear interpolation between order statistics,
    /// `p` in [0, 100].
    pub fn percentile(&self, p: f64) -> f64 {
        let [v] = self.percentiles([p]);
        v
    }

    /// Several percentiles off one shared sort — the amortized form of
    /// [`Summary::percentile`] for rollups that read the whole tail
    /// (p50/p95/p99) of the same sample.
    fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [f64; N] {
        let mut sorted = self.clone();
        sorted.into_percentiles(ps)
    }

    /// Consuming form of `Summary::percentiles`: sorts the sample in
    /// place instead of cloning it first. Same order statistics, same
    /// interpolation — this is the hot-rollup path, where the caller owns
    /// the sample and the clone would be pure overhead. Read `mean`/`max`
    /// before calling; they see the sample in insertion order either way
    /// (both are computed over the unsorted values), so the split cannot
    /// change any reported float.
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
    fn mean_and_std() {
        let s = Summary::from_values(vec![2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std() - 2.138).abs() < 1e-3);
    }

    #[test]
    fn empty_is_safe() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.std(), 0.0);
        assert!(s.is_empty());
    }

    #[test]
    fn single_value_has_zero_std() {
        let mut s = Summary::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std(), 0.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn percentiles() {
        let s = Summary::from_values((1..=100).map(f64::from).collect());
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 100.0).abs() < 1e-12);
        assert!((s.percentile(50.0) - 50.5).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let s = Summary::from_values(vec![3.0, -1.0, 7.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
    }
}
