//! The 15-minute lifetime mechanism (§3.3.1, Figure 5).
//!
//! A LambdaML worker watches its own execution time; when the limit
//! approaches it checkpoints the local model to the storage channel,
//! re-triggers its own function, and the successor (same worker ID, same
//! partition) restores the checkpoint and continues.
//!
//! [`LifetimeManager`] tracks one worker's position inside its current
//! function lifetime and injects the rollover overhead — checkpoint write +
//! re-invocation + checkpoint read + partition reload — whenever a work
//! segment would cross the boundary.

use crate::lambda::LambdaSpec;
use crate::startup::INVOKE_LATENCY;
use lml_sim::SimTime;

/// Per-worker lifetime tracker.
#[derive(Debug, Clone)]
pub struct LifetimeManager {
    /// Usable time per function incarnation (limit minus safety margin).
    usable: f64,
    /// Seconds consumed inside the current incarnation.
    in_life: f64,
    /// Overhead of one rollover excluding the invoke call (checkpoint
    /// write, checkpoint read, and partition reload), supplied by the
    /// executor, which knows the channel and the partition size.
    rollover_overhead: SimTime,
    /// Number of re-invocations performed so far.
    reinvocations: u32,
}

impl LifetimeManager {
    /// `margin` is the safety window before the hard limit at which the
    /// worker pauses (the paper's workers "watch for the timeout").
    fn new(margin: SimTime, rollover_overhead: SimTime) -> Self {
        let usable = LambdaSpec::LIFETIME.as_secs() - margin.as_secs();
        assert!(usable > 0.0, "margin consumes the whole lifetime");
        LifetimeManager {
            usable,
            in_life: 0.0,
            rollover_overhead,
            reinvocations: 0,
        }
    }

    /// Default: 30 s safety margin.
    pub fn with_overhead(rollover_overhead: SimTime) -> Self {
        Self::new(SimTime::secs(30.0), rollover_overhead)
    }

    /// Charge `work` seconds of execution. Returns the *wall* time consumed,
    /// i.e. `work` plus any rollover overhead injected when the lifetime
    /// boundary is crossed. Work segments longer than a whole lifetime split
    /// across multiple incarnations (the paper notes a single *iteration*
    /// longer than 15 min is unsupported; segments here are rounds, which
    /// may legitimately exceed one lifetime only as a sum).
    pub fn charge(&mut self, work: SimTime) -> SimTime {
        debug_assert!(work.is_valid());
        let mut remaining = work.as_secs();
        let mut wall = 0.0;
        while self.in_life + remaining > self.usable {
            // run up to the boundary
            let slice = self.usable - self.in_life;
            remaining -= slice;
            wall += slice;
            // checkpoint, re-trigger, restore
            wall += self.rollover_overhead.as_secs() + INVOKE_LATENCY.as_secs();
            self.reinvocations += 1;
            self.in_life = 0.0;
        }
        self.in_life += remaining;
        wall += remaining;
        SimTime::secs(wall)
    }

    pub fn reinvocations(&self) -> u32 {
        self.reinvocations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_jobs_never_roll_over() {
        let mut lm = LifetimeManager::with_overhead(SimTime::secs(5.0));
        let mut total = SimTime::ZERO;
        for _ in 0..10 {
            total += lm.charge(SimTime::secs(60.0));
        }
        assert_eq!(lm.reinvocations(), 0);
        assert_eq!(total, SimTime::secs(600.0), "no overhead injected");
    }

    #[test]
    fn crossing_boundary_injects_overhead() {
        let overhead = SimTime::secs(5.0);
        let mut lm = LifetimeManager::new(SimTime::secs(0.0), overhead);
        // 900s usable; a 1000s total crosses once.
        let wall = lm.charge(SimTime::secs(1_000.0));
        assert_eq!(lm.reinvocations(), 1);
        let expected = 1_000.0 + 5.0 + INVOKE_LATENCY.as_secs();
        assert!((wall.as_secs() - expected).abs() < 1e-9, "{wall}");
    }

    #[test]
    fn many_rounds_roll_over_repeatedly() {
        let mut lm = LifetimeManager::new(SimTime::secs(0.0), SimTime::secs(2.0));
        // 100 rounds × 100 s = 10 000 s of work -> 11 boundaries at 900 s.
        let mut wall = SimTime::ZERO;
        for _ in 0..100 {
            wall += lm.charge(SimTime::secs(100.0));
        }
        assert_eq!(lm.reinvocations(), 11);
        let expected = 10_000.0 + 11.0 * (2.0 + INVOKE_LATENCY.as_secs());
        assert!((wall.as_secs() - expected).abs() < 1e-6);
    }

    #[test]
    fn margin_shrinks_usable_life() {
        let mut lm = LifetimeManager::new(SimTime::secs(100.0), SimTime::ZERO);
        lm.charge(SimTime::secs(799.0));
        assert_eq!(lm.reinvocations(), 0, "799 s fits in the usable 800 s");
        lm.charge(SimTime::secs(2.0));
        assert_eq!(lm.reinvocations(), 1, "crossing 800 s rolls over");
    }

    #[test]
    fn segment_longer_than_lifetime_splits() {
        let mut lm = LifetimeManager::new(SimTime::secs(0.0), SimTime::secs(1.0));
        let wall = lm.charge(SimTime::secs(2_000.0));
        assert_eq!(lm.reinvocations(), 2);
        assert!(wall.as_secs() > 2_000.0);
    }

    #[test]
    #[should_panic]
    fn absurd_margin_rejected() {
        LifetimeManager::new(SimTime::secs(900.0), SimTime::ZERO);
    }
}
