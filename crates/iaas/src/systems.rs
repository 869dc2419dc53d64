//! IaaS system profiles: distributed PyTorch vs Angel.
//!
//! Figure 10's runtime breakdown separates the two IaaS baselines:
//!
//! | system | startup | data load | compute (10 epochs) |
//! |---|---|---|---|
//! | PyTorch (StarCluster) | 132 s | 9 s | 80 s |
//! | Angel (Hadoop/Yarn/HDFS) | 457 s | 35 s | 125 s |
//!
//! Angel pays extra cluster bring-up (HDFS + Yarn before the job), loads
//! from HDFS instead of S3, and its matrix kernels are slower (§5.2). The
//! profile multipliers here are fit to that breakdown.

use crate::cluster::ClusterSpec;
use lml_sim::SimTime;

/// Which IaaS training system runs on the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SystemProfile {
    /// Distributed PyTorch 1.0 managed by StarCluster, Gloo AllReduce.
    PyTorch,
    /// Angel 2.4.0 parameter server on the Hadoop ecosystem.
    Angel,
}

impl SystemProfile {
    pub fn name(self) -> &'static str {
        match self {
            SystemProfile::PyTorch => "PyTorch",
            SystemProfile::Angel => "Angel",
        }
    }

    /// Extra start-up on top of the EC2 cluster boot (starting HDFS, Yarn
    /// and submitting through the Hadoop stack). Fit: 457 − 132 = 325 s at
    /// 10 workers, growing mildly with cluster size.
    fn extra_startup(self, workers: usize) -> SimTime {
        match self {
            SystemProfile::PyTorch => SimTime::ZERO,
            SystemProfile::Angel => SimTime::secs(300.0 + 2.5 * workers as f64),
        }
    }

    /// Total time from job submission to running workers.
    pub fn startup_time(self, cluster: &ClusterSpec) -> SimTime {
        cluster.startup_time() + self.extra_startup(cluster.workers)
    }

    /// Data-loading slowdown vs reading S3 directly (Angel stages through
    /// HDFS: 35 s vs 9 s in Figure 10).
    pub fn load_factor(self) -> f64 {
        match self {
            SystemProfile::PyTorch => 1.0,
            SystemProfile::Angel => 3.9,
        }
    }

    /// Compute slowdown vs the PyTorch engine ("inefficient matrix
    /// calculation library": 125 s vs 80 s in Figure 10).
    pub fn compute_factor(self) -> f64 {
        match self {
            SystemProfile::PyTorch => 1.0,
            SystemProfile::Angel => 1.56,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::InstanceType;

    #[test]
    fn pytorch_is_the_identity_profile() {
        let p = SystemProfile::PyTorch;
        assert_eq!(p.extra_startup(10), SimTime::ZERO);
        assert_eq!(p.load_factor(), 1.0);
        assert_eq!(p.compute_factor(), 1.0);
    }

    #[test]
    fn angel_startup_matches_figure10() {
        let cluster = ClusterSpec::new(InstanceType::T2Medium, 10);
        let angel = SystemProfile::Angel.startup_time(&cluster).as_secs();
        assert!((angel - 457.0).abs() < 10.0, "angel startup {angel}");
        let pytorch = SystemProfile::PyTorch.startup_time(&cluster).as_secs();
        assert!((pytorch - 132.0).abs() < 1e-9);
    }

    #[test]
    fn angel_is_slower_everywhere() {
        let a = SystemProfile::Angel;
        assert!(a.load_factor() > 1.0);
        assert!(a.compute_factor() > 1.0);
        assert!(a.extra_startup(50) > a.extra_startup(10));
    }
}
