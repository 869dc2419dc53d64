//! Learning-rate schedules.
//!
//! The paper tunes a constant rate per workload (§4.1: "the optimal learning
//! rate in the range 0.001 to 1") and uses a `1/√T` decay for asynchronous
//! training (§4.5, following Zheng et al. \[104\]).

/// A learning-rate schedule evaluated per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed rate.
    Const(f64),
    /// `base / sqrt(1 + epoch)` — the paper's S-ASP decay.
    InvSqrt { base: f64 },
    /// `base * factor^(epoch / every)` step decay.
    StepDecay {
        base: f64,
        factor: f64,
        every: usize,
    },
}

impl LrSchedule {
    /// Learning rate at the given (0-based) epoch.
    pub fn lr(&self, epoch: usize) -> f64 {
        match *self {
            LrSchedule::Const(lr) => lr,
            LrSchedule::InvSqrt { base } => base / (1.0 + epoch as f64).sqrt(),
            LrSchedule::StepDecay {
                base,
                factor,
                every,
            } => base * factor.powi((epoch / every.max(1)) as i32),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_is_flat() {
        let s = LrSchedule::Const(0.1);
        assert_eq!(s.lr(0), 0.1);
        assert_eq!(s.lr(100), 0.1);
    }

    #[test]
    fn inv_sqrt_decays() {
        let s = LrSchedule::InvSqrt { base: 1.0 };
        assert_eq!(s.lr(0), 1.0);
        assert!((s.lr(3) - 0.5).abs() < 1e-12);
        assert!(s.lr(99) < s.lr(9));
    }

    #[test]
    fn step_decay_steps() {
        let s = LrSchedule::StepDecay {
            base: 1.0,
            factor: 0.5,
            every: 10,
        };
        assert_eq!(s.lr(0), 1.0);
        assert_eq!(s.lr(9), 1.0);
        assert_eq!(s.lr(10), 0.5);
        assert_eq!(s.lr(25), 0.25);
    }

    #[test]
    fn base_matches_epoch_zero() {
        for s in [
            LrSchedule::Const(0.3),
            LrSchedule::InvSqrt { base: 0.3 },
            LrSchedule::StepDecay {
                base: 0.3,
                factor: 0.1,
                every: 5,
            },
        ] {
            assert_eq!(s.lr(0), 0.3);
        }
    }
}
