//! Cluster provisioning and billing.
//!
//! IaaS start-up is the paper's decisive FaaS advantage for fast-converging
//! jobs: booting a 10-node EC2 cluster, mounting shared volumes, wiring SSH
//! and dispatching the job takes over two minutes (Table 6 `t_I(w)`), versus
//! 1.3 s for Lambda. Billing is per instance-second from launch to
//! termination (reserved resources bill whether busy or idle — §2.2).

use crate::instances::InstanceType;
use lml_sim::{Cost, PiecewiseLinear, SimTime};

/// Table 6 knots for `t_I(w)`. Built once and cached: evaluated on every
/// IaaS start, autoscale decision, and estimator prediction in the fleet
/// simulator, so a per-call allocation here is a measurable hot-path cost.
pub fn iaas_startup_table() -> &'static PiecewiseLinear {
    static TABLE: std::sync::OnceLock<PiecewiseLinear> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        PiecewiseLinear::new(vec![
            (1.0, 120.0),
            (10.0, 132.0),
            (50.0, 160.0),
            (100.0, 292.0),
            (200.0, 606.0),
        ])
    })
}

/// An EC2 cluster: `workers` instances of one type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    pub instance: InstanceType,
    pub workers: usize,
}

impl ClusterSpec {
    pub fn new(instance: InstanceType, workers: usize) -> Self {
        assert!(workers >= 1);
        ClusterSpec { instance, workers }
    }

    /// Time from "launch cluster" to "job running on all workers"
    /// (Table 6 `t_I(w)`: VM boot + volume mounts + secure channels + the
    /// master dispensing scripts).
    pub fn startup_time(&self) -> SimTime {
        SimTime::secs(iaas_startup_table().eval(self.workers as f64))
    }

    /// Cost of keeping the cluster up for `elapsed` (per-second billing of
    /// every instance, startup included).
    pub fn cost(&self, elapsed: SimTime) -> Cost {
        self.instance.hourly() * (elapsed.as_hours() * self.workers as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_matches_table6() {
        let c = ClusterSpec::new(InstanceType::T2Medium, 10);
        assert!((c.startup_time().as_secs() - 132.0).abs() < 1e-9);
        let big = ClusterSpec::new(InstanceType::T2Medium, 200);
        assert!((big.startup_time().as_secs() - 606.0).abs() < 1e-9);
    }

    #[test]
    fn startup_grows_with_cluster_size() {
        let t10 = ClusterSpec::new(InstanceType::C5Large, 10).startup_time();
        let t100 = ClusterSpec::new(InstanceType::C5Large, 100).startup_time();
        assert!(t100 > t10);
    }

    #[test]
    fn billing_scales_with_workers_and_time() {
        let c = ClusterSpec::new(InstanceType::T2Medium, 10);
        // 10 × $0.0464/h × 0.5 h
        let cost = c.cost(SimTime::minutes(30.0));
        assert!((cost.as_usd() - 0.232).abs() < 1e-9);
    }

    #[test]
    fn iaas_startup_dwarfs_faas() {
        // §5.2 runtime breakdown: >2 min vs 1.3 s at 10 workers.
        let iaas = ClusterSpec::new(InstanceType::T2Medium, 10).startup_time();
        assert!(iaas.as_secs() > 100.0);
    }

    #[test]
    #[should_panic]
    fn empty_cluster_rejected() {
        ClusterSpec::new(InstanceType::T2Medium, 0);
    }
}
