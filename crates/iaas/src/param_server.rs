//! The hybrid design's VM parameter server (Cirrus-style, §3.2.2/§4.3).
//!
//! Lambda workers push statistics to (and pull models from) a VM over an
//! RPC framework. The paper's Table 2 measurement shows the pipeline is
//! bounded not by network bandwidth but by **serialization on the Lambda's
//! fractional vCPU** and by **locking during model updates on the PS**. The
//! model here reproduces those two bottlenecks:
//!
//! `transfer(w, m) = m/B_net + m/(ser_rate·vcpus) [+ ps-side deser]`, with a
//! contention factor when `w` Lambdas push concurrently, and
//! `update(w, m) = w · update_1(m) · (1 + lock·(w−1))`.

use crate::instances::InstanceType;
use lml_sim::{ByteSize, SimTime};

/// Lambda-to-EC2 network bandwidth: "up to 70 MBps reported by [57, 95]".
pub const LAMBDA_TO_VM_BW: f64 = 70e6;

/// RPC framework of the hybrid parameter server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RpcKind {
    /// gRPC: efficient binary serialization.
    Grpc,
    /// Apache Thrift (as configured in the paper: an order of magnitude
    /// slower serialization, faster in-place updates).
    Thrift,
}

impl RpcKind {
    pub fn name(self) -> &'static str {
        match self {
            RpcKind::Grpc => "gRPC",
            RpcKind::Thrift => "Thrift",
        }
    }

    /// Client-side serialization throughput per vCPU (bytes/s), fit to
    /// Table 2's 75 MB transfers.
    fn ser_rate_per_vcpu(self) -> f64 {
        match self {
            RpcKind::Grpc => 55e6,
            RpcKind::Thrift => 2.3e6,
        }
    }

    /// PS-side single-message update time per byte (applying a 75 MB
    /// update: gRPC 2.9 s on t2 / 2.3 s on c5; Thrift 0.5 s / 0.4 s).
    fn update_secs_per_byte(self, ps: InstanceType) -> f64 {
        let base = match self {
            RpcKind::Grpc => 2.3 / 75e6,
            RpcKind::Thrift => 0.4 / 75e6,
        };
        // t2-family PS is ~25% slower than c5 (Table 2 rows).
        match ps {
            InstanceType::T2Medium | InstanceType::T2XLarge2 => base * 1.26,
            _ => base,
        }
    }
}

/// A VM parameter server reachable from Lambda workers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PsModel {
    pub rpc: RpcKind,
    pub instance: InstanceType,
    /// Lambda worker vCPU share (3 GB function = 1.8).
    pub lambda_vcpus: f64,
}

/// PS-side deserialization contention growth per additional concurrent
/// pusher (fit: 1 Lambda 1.85 s → 10 Lambdas 3.7 s on c5 ⇒ ~0.11/worker).
const DESER_CONTENTION: f64 = 0.11;

/// Lock contention growth per additional updater (fit: update 2.3 s →
/// 27 s for 10 workers on c5 ⇒ ~0.02/worker).
const LOCK_CONTENTION: f64 = 0.02;

impl PsModel {
    pub fn new(rpc: RpcKind, instance: InstanceType, lambda_vcpus: f64) -> Self {
        assert!(lambda_vcpus > 0.0);
        PsModel {
            rpc,
            instance,
            lambda_vcpus,
        }
    }

    /// One Lambda moving `m` bytes to/from the PS (Table 2 "Data
    /// Transmission"): wire time + serialization on the Lambda's fractional
    /// vCPU.
    pub fn transfer_time_single(&self, m: ByteSize) -> SimTime {
        let wire = m.as_f64() / LAMBDA_TO_VM_BW;
        let ser = m.as_f64() / (self.rpc.ser_rate_per_vcpu() * self.lambda_vcpus);
        SimTime::secs(wire + ser)
    }

    /// `w` Lambdas each moving `m` bytes concurrently: single-transfer time
    /// inflated by PS-side deserialization contention.
    pub fn transfer_time(&self, w: usize, m: ByteSize) -> SimTime {
        assert!(w >= 1);
        self.transfer_time_single(m) * (1.0 + DESER_CONTENTION * (w as f64 - 1.0))
    }

    /// Applying one worker's `m`-byte update to the global model
    /// (Table 2 "Model Update").
    fn update_time_single(&self, m: ByteSize) -> SimTime {
        SimTime::secs(m.as_f64() * self.rpc.update_secs_per_byte(self.instance))
    }

    /// Applying `w` updates: serialized by the parameter lock, with
    /// contention overhead (§4.3: "frequent locking operation of
    /// parameters").
    pub fn update_time(&self, w: usize, m: ByteSize) -> SimTime {
        assert!(w >= 1);
        self.update_time_single(m) * (w as f64) * (1.0 + LOCK_CONTENTION * (w as f64 - 1.0))
    }

    /// One full PS round for `w` workers and an `m`-byte model:
    /// push (transfer) + update + pull (transfer). The hybrid design saves
    /// the pure-FaaS design's extra storage hop because the PS can compute
    /// (§5.3's `(2w−2)` vs `(3w−2)` distinction).
    pub fn round_time(&self, w: usize, m: ByteSize) -> SimTime {
        self.transfer_time(w, m) + self.update_time(w, m) + self.transfer_time(w, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M75: ByteSize = ByteSize(75_000_000);

    #[test]
    fn grpc_single_transfer_matches_table2() {
        // 1× Lambda-3GB → c5.4xlarge, gRPC: 1.85 s measured.
        let ps = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let t = ps.transfer_time_single(M75).as_secs();
        assert!((t - 1.85).abs() < 0.15, "t={t}");
        // 1 GB Lambda (0.6 vCPU): 2.36 s measured.
        let ps1 = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 0.6);
        let t1 = ps1.transfer_time_single(M75).as_secs();
        assert!((2.0..4.0).contains(&t1), "t1={t1}");
        assert!(t1 > t, "fewer vCPUs serialize slower");
    }

    #[test]
    fn thrift_is_an_order_of_magnitude_slower() {
        let grpc = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let thrift = PsModel::new(RpcKind::Thrift, InstanceType::C5XLarge4, 1.8);
        let ratio =
            thrift.transfer_time_single(M75).as_secs() / grpc.transfer_time_single(M75).as_secs();
        assert!(ratio > 8.0, "Table 2: 19.7s vs 1.85s; got ratio {ratio}");
    }

    #[test]
    fn update_scales_superlinearly_with_workers() {
        // Table 2: 1 worker 2.3 s → 10 workers 27 s on c5 (gRPC).
        let ps = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let one = ps.update_time(1, M75).as_secs();
        let ten = ps.update_time(10, M75).as_secs();
        assert!((one - 2.3).abs() < 0.1, "one={one}");
        assert!((20.0..35.0).contains(&ten), "ten={ten}");
        assert!(ten > 10.0 * one, "lock contention adds overhead");
    }

    #[test]
    fn ten_workers_transfer_matches_table2() {
        // Table 2: 10× Lambda-3GB → c5.4xlarge gRPC: 3.7 s.
        let ps = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let t = ps.transfer_time(10, M75).as_secs();
        assert!((3.0..4.7).contains(&t), "t={t}");
    }

    #[test]
    fn t2_ps_is_slower_than_c5() {
        let c5 = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let t2 = PsModel::new(RpcKind::Grpc, InstanceType::T2XLarge2, 1.8);
        assert!(t2.update_time_single(M75) > c5.update_time_single(M75));
    }

    #[test]
    fn round_time_composes_push_update_pull() {
        let ps = PsModel::new(RpcKind::Grpc, InstanceType::C5XLarge4, 1.8);
        let round = ps.round_time(10, M75);
        let parts = ps.transfer_time(10, M75) + ps.update_time(10, M75) + ps.transfer_time(10, M75);
        assert_eq!(round, parts);
    }
}
