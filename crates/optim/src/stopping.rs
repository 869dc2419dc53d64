//! Stopping criteria and loss-curve recording.
//!
//! The paper's end-to-end metric is "wall-clock time (or dollars) to reach a
//! target loss" (§1, principle 2). [`StopSpec`] encodes a target plus
//! safety bounds; [`LossCurve`] records `(time, epoch, rounds, loss)` points
//! that the figure binaries print.

use lml_sim::SimTime;

/// When to stop a training job.
#[derive(Debug, Clone, Copy)]
pub struct StopSpec {
    /// Stop once validation loss is at or below this value.
    pub target_loss: f64,
    /// Hard cap on data epochs.
    pub max_epochs: usize,
    /// Hard cap on virtual time.
    pub max_time: SimTime,
}

impl StopSpec {
    pub fn new(target_loss: f64, max_epochs: usize) -> Self {
        StopSpec {
            target_loss,
            max_epochs,
            max_time: SimTime::hours(48.0),
        }
    }

    pub fn with_max_time(mut self, t: SimTime) -> Self {
        self.max_time = t;
        self
    }

    /// Has the job met its target?
    pub fn converged(&self, loss: f64) -> bool {
        loss <= self.target_loss
    }

    /// Must the job halt regardless of loss?
    pub fn exhausted(&self, epoch: f64, time: SimTime) -> bool {
        epoch >= self.max_epochs as f64 || time.as_secs() >= self.max_time.as_secs()
    }
}

/// One observation on the convergence curve.
#[derive(Debug, Clone, Copy)]
pub struct CurvePoint {
    /// Virtual wall-clock time since job submission.
    pub time: SimTime,
    /// Data epochs completed (fractional under GA-SGD's per-batch rounds).
    pub epoch: f64,
    /// Communication rounds completed.
    pub rounds: u64,
    /// Validation loss.
    pub loss: f64,
}

/// The recorded convergence trajectory of one run.
#[derive(Debug, Clone, Default)]
pub struct LossCurve {
    points: Vec<CurvePoint>,
}

impl LossCurve {
    pub fn new() -> Self {
        LossCurve::default()
    }

    pub fn push(&mut self, p: CurvePoint) {
        debug_assert!(p.time.is_valid());
        self.points.push(p);
    }

    pub fn points(&self) -> &[CurvePoint] {
        &self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub(crate) fn last(&self) -> Option<&CurvePoint> {
        self.points.last()
    }

    /// Close a run that ended after `rounds` rounds: unless the last point
    /// is already at `rounds`, push one at `(time, epoch, rounds)` with the
    /// loss `eval` returns. Returns whether that new point meets `stop`'s
    /// target (`false` when the curve already ended there).
    pub fn close(
        &mut self,
        stop: &StopSpec,
        time: SimTime,
        epoch: f64,
        rounds: u64,
        eval: impl FnOnce() -> f64,
    ) -> bool {
        if self.last().map(|p| p.rounds) == Some(rounds) {
            return false;
        }
        let loss = eval();
        self.push(CurvePoint {
            time,
            epoch,
            rounds,
            loss,
        });
        stop.converged(loss)
    }

    /// Final loss (∞ when nothing was recorded).
    pub fn final_loss(&self) -> f64 {
        self.points.last().map_or(f64::INFINITY, |p| p.loss)
    }

    /// Best (minimum) loss seen.
    pub fn best_loss(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.loss)
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest absolute loss change between consecutive points over the last
    /// `window` points — the instability measure used to compare
    /// synchronous vs asynchronous convergence (Figure 8).
    pub fn tail_oscillation(&self, window: usize) -> f64 {
        let pts = &self.points;
        if pts.len() < 2 {
            return 0.0;
        }
        let start = pts.len().saturating_sub(window.max(2));
        pts[start..]
            .windows(2)
            .map(|w| (w[1].loss - w[0].loss).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: f64, loss: f64) -> CurvePoint {
        CurvePoint {
            time: SimTime::secs(t),
            epoch: t,
            rounds: t as u64,
            loss,
        }
    }

    #[test]
    fn stop_spec_converged_and_exhausted() {
        let s = StopSpec::new(0.66, 10).with_max_time(SimTime::secs(100.0));
        assert!(s.converged(0.65));
        assert!(!s.converged(0.7));
        assert!(s.exhausted(10.0, SimTime::ZERO));
        assert!(s.exhausted(0.0, SimTime::secs(100.0)));
        assert!(!s.exhausted(9.9, SimTime::secs(99.0)));
    }

    #[test]
    fn curve_final_and_best_loss() {
        let mut c = LossCurve::new();
        for (t, l) in [(1.0, 0.9), (2.0, 0.7), (3.0, 0.6), (4.0, 0.55)] {
            c.push(point(t, l));
        }
        assert_eq!(c.final_loss(), 0.55);
        assert_eq!(c.best_loss(), 0.55);
    }

    #[test]
    fn empty_curve_is_safe() {
        let c = LossCurve::new();
        assert!(c.final_loss().is_infinite());
        assert_eq!(c.tail_oscillation(5), 0.0);
        assert!(c.is_empty());
    }

    #[test]
    fn close_adds_the_final_point_once() {
        let stop = StopSpec::new(0.6, 10);
        let mut c = LossCurve::new();
        assert!(
            c.close(&stop, SimTime::ZERO, 0.0, 0, || 0.5),
            "met at round 0"
        );
        assert_eq!(c.points().len(), 1);
        assert!(!c.close(&stop, SimTime::ZERO, 0.0, 0, || unreachable!()));
        assert!(!c.close(&stop, SimTime::secs(1.0), 1.0, 3, || 0.7));
        assert_eq!((c.points().len(), c.final_loss()), (2, 0.7));
    }

    #[test]
    fn oscillation_detects_instability() {
        let mut stable = LossCurve::new();
        let mut unstable = LossCurve::new();
        for i in 0..20 {
            stable.push(point(i as f64, 1.0 / (1.0 + i as f64)));
            // diverging oscillation, like async training with staleness
            unstable.push(point(i as f64, 0.5 + if i % 2 == 0 { 0.4 } else { -0.1 }));
        }
        assert!(unstable.tail_oscillation(10) > 10.0 * stable.tail_oscillation(10));
    }
}
