//! Run results: the paper's reporting surface.
//!
//! [`Breakdown`] mirrors Figure 10's bars (start-up / data loading /
//! computation / communication); [`CostBreakdown`] decomposes dollars the
//! way §5.2 discusses them (compute billing vs storage requests vs cache
//! nodes); [`RunResult`] bundles everything with the loss curve.

use lml_optim::LossCurve;
use lml_sim::{Cost, SimTime};

/// Figure 10's time decomposition.
#[derive(Debug, Clone, Copy, Default)]
pub struct Breakdown {
    /// Infrastructure start-up (VM boot / Lambda cold start / Hadoop stack),
    /// including storage-channel provisioning (Memcached boot).
    pub startup: SimTime,
    /// Loading the training-data partition from S3 (or HDFS for Angel).
    pub load: SimTime,
    /// Per-worker computation (sum over rounds).
    pub compute: SimTime,
    /// Communication on the critical path (sum over rounds).
    pub comm: SimTime,
}

impl Breakdown {
    /// End-to-end wall time.
    pub fn total(&self) -> SimTime {
        self.startup + self.load + self.compute + self.comm
    }

    /// Figure 10's second bar: total excluding start-up.
    pub fn total_without_startup(&self) -> SimTime {
        self.load + self.compute + self.comm
    }
}

/// Where the dollars went.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostBreakdown {
    /// Lambda GB-seconds or EC2 instance-hours.
    pub compute: Cost,
    /// Per-request storage charges (S3 PUT/GET/LIST, DynamoDB units).
    pub requests: Cost,
    /// Provisioned-node hours (ElastiCache, the hybrid PS VM).
    pub nodes: Cost,
}

impl CostBreakdown {
    fn total(&self) -> Cost {
        self.compute + self.requests + self.nodes
    }
}

/// Everything one training run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Human-readable backend description.
    pub system: String,
    /// Convergence trajectory (time/epoch/rounds/loss points).
    pub curve: LossCurve,
    pub breakdown: Breakdown,
    pub cost: CostBreakdown,
    /// Data epochs completed.
    pub epochs: f64,
    /// Communication rounds completed.
    pub rounds: u64,
    /// Reached the loss target (vs stopped on a cap)?
    pub converged: bool,
    /// Final validation loss.
    pub final_loss: f64,
    /// Final validation accuracy (1.0 for clustering).
    pub final_accuracy: f64,
    /// Lambda re-invocations forced by the 15-minute lifetime.
    pub reinvocations: u32,
}

impl RunResult {
    /// Wall time of the run.
    pub fn runtime(&self) -> SimTime {
        self.breakdown.total()
    }

    /// Dollars of the run.
    pub fn dollars(&self) -> Cost {
        self.cost.total()
    }

    /// One-line summary for experiment tables.
    pub fn summary(&self) -> String {
        format!(
            "{:<28} time={:>9} cost={:>8} epochs={:>6.1} rounds={:>6} loss={:.4}{}",
            self.system,
            self.runtime().to_string(),
            self.dollars().to_string(),
            self.epochs,
            self.rounds,
            self.final_loss,
            if self.converged {
                ""
            } else {
                " (not converged)"
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = Breakdown {
            startup: SimTime::secs(132.0),
            load: SimTime::secs(9.0),
            compute: SimTime::secs(80.0),
            comm: SimTime::secs(0.9),
        };
        assert!((b.total().as_secs() - 221.9).abs() < 1e-9);
        assert!((b.total_without_startup().as_secs() - 89.9).abs() < 1e-9);
    }

    #[test]
    fn cost_totals() {
        let c = CostBreakdown {
            compute: Cost::usd(0.4),
            requests: Cost::usd(0.05),
            nodes: Cost::usd(0.02),
        };
        assert!((c.total().as_usd() - 0.47).abs() < 1e-12);
    }

    #[test]
    fn summary_flags_non_convergence() {
        let r = RunResult {
            system: "FaaS/S3".into(),
            curve: LossCurve::new(),
            breakdown: Breakdown::default(),
            cost: CostBreakdown::default(),
            epochs: 3.0,
            rounds: 30,
            converged: false,
            final_loss: 0.9,
            final_accuracy: 0.5,
            reinvocations: 0,
        };
        assert!(r.summary().contains("not converged"));
    }
}
