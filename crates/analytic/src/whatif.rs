//! §5.3.1's case studies: future-infrastructure what-ifs.
//!
//! The paper uses the analytical model to ask how the tradeoff shifts if
//! (Q1) the Lambda↔VM path reached 10 Gbps (and Lambda offered GPUs at
//! IaaS-comparable pricing), and (Q2) the training data were already "hot"
//! inside a VM rather than on S3. A [`Scenario`] is a small closed-form
//! time/cost description of one system configuration under one such regime.

use lml_iaas::param_server::LAMBDA_TO_VM_BW;
use lml_sim::{Cost, SimTime};

/// A closed-form system configuration for what-if exploration.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub name: String,
    pub workers: usize,
    /// Start-up seconds.
    pub startup: f64,
    /// Per-worker data-loading seconds.
    pub load: f64,
    /// Epochs to converge.
    pub epochs: f64,
    /// Communication rounds per epoch.
    pub rounds_per_epoch: f64,
    /// Seconds per communication round.
    pub comm_round: f64,
    /// Per-worker compute seconds per epoch.
    pub compute_per_epoch: f64,
    /// Billed rate, $/s, while workers execute (Lambda) or while the
    /// cluster exists (EC2) — see `bills_startup`.
    pub rate_per_s: f64,
    /// Whether the start-up window is billed (IaaS yes, FaaS no).
    pub bills_startup: bool,
}

impl Scenario {
    /// End-to-end runtime.
    pub fn time(&self) -> SimTime {
        SimTime::secs(
            self.startup
                + self.load
                + self.epochs * (self.rounds_per_epoch * self.comm_round + self.compute_per_epoch),
        )
    }

    /// End-to-end dollars.
    pub fn cost(&self) -> Cost {
        let billed = if self.bills_startup {
            self.time().as_secs()
        } else {
            self.time().as_secs() - self.startup
        };
        Cost::usd(self.rate_per_s * billed)
    }

    /// Q1: replace this scenario's Lambda↔VM communication with a 10 Gbps
    /// path — communication time shrinks by the bandwidth ratio on the
    /// wire-bound share of each round. `wire_share` is the fraction of
    /// `comm_round` that is network transfer (the rest is serialization,
    /// which the paper shows does not improve).
    pub fn with_10gbps(&self, wire_share: f64) -> Scenario {
        assert!((0.0..=1.0).contains(&wire_share));
        let speedup = 1_250e6 / LAMBDA_TO_VM_BW;
        let new_round =
            self.comm_round * (1.0 - wire_share) + self.comm_round * wire_share / speedup;
        Scenario {
            name: format!("{}-10Gbps", self.name),
            comm_round: new_round,
            ..self.clone()
        }
    }

    /// Q2: the data is hot inside one powerful VM; loading happens over
    /// that VM's NIC (shared by all readers) instead of S3.
    pub fn with_hot_data(
        &self,
        partition_bytes: f64,
        host_nic_bps: f64,
        reader_bps: f64,
    ) -> Scenario {
        let per_reader = reader_bps.min(host_nic_bps / self.workers as f64);
        Scenario {
            name: format!("{}-hot", self.name),
            load: partition_bytes / per_reader,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid_mn() -> Scenario {
        // HybridPS training MobileNet: serialization-bound rounds.
        Scenario {
            name: "HybridPS".into(),
            workers: 10,
            startup: 121.0,
            load: 2.0,
            epochs: 15.0,
            rounds_per_epoch: 42.0,
            comm_round: 8.0,
            compute_per_epoch: 170.0,
            rate_per_s: 10.0
                * lml_faas::lambda::FUNCTION_GB
                * lml_faas::lambda::PRICE_PER_GB_SECOND,
            bills_startup: false,
        }
    }

    #[test]
    fn time_and_cost_compose() {
        let s = hybrid_mn();
        let t = s.time().as_secs();
        assert!((t - (121.0 + 2.0 + 15.0 * (42.0 * 8.0 + 170.0))).abs() < 1e-9);
        assert!(s.cost().as_usd() > 0.0);
    }

    #[test]
    fn q1_10gbps_helps_but_serialization_still_binds() {
        // §5.3.1: with 10 Gbps the hybrid improves but stays bounded by
        // serialization — only the wire share shrinks.
        let base = hybrid_mn();
        let fast = base.with_10gbps(0.3);
        assert!(fast.time() < base.time());
        let improvement = base.time().as_secs() / fast.time().as_secs();
        assert!(improvement < 2.0, "bounded improvement, got {improvement}x");
    }

    #[test]
    fn q2_hot_data_punishes_faas_readers() {
        // FaaS reads hot data at the 70 MB/s Lambda↔VM path; an EC2 reader
        // gets the VM network. Same partition, very different load times.
        let partition = 655e6; // YFCC100M / 100 workers
        let faas = hybrid_mn().with_hot_data(partition, 1_250e6, LAMBDA_TO_VM_BW);
        let iaas = hybrid_mn().with_hot_data(partition, 1_250e6, 120e6);
        assert!(
            faas.load > iaas.load,
            "faas {} vs iaas {}",
            faas.load,
            iaas.load
        );
    }

    #[test]
    fn host_nic_caps_parallel_readers() {
        let partition = 100e6;
        let few = Scenario {
            workers: 2,
            ..hybrid_mn()
        }
        .with_hot_data(partition, 1_250e6, 120e6);
        let many = Scenario {
            workers: 100,
            ..hybrid_mn()
        }
        .with_hot_data(partition, 1_250e6, 120e6);
        assert!(many.load > few.load, "100 readers share the NIC");
    }

    #[test]
    fn faas_does_not_bill_startup() {
        let mut s = hybrid_mn();
        s.bills_startup = false;
        let unbilled = s.cost();
        s.bills_startup = true;
        let billed = s.cost();
        assert!(billed > unbilled);
    }
}
