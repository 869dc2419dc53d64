//! VM-to-VM communication fabric.
//!
//! Distributed PyTorch on IaaS synchronizes with Gloo's ring AllReduce
//! (§5.1). In a ring over `w` nodes, each node sends `2(w−1)` messages of
//! `m/w` bytes — exactly the `(2w−2)(m/w/B + L)` communication term of the
//! paper's IaaS formula (§5.3).

use lml_sim::{ByteSize, Link, SimTime};

/// Ring-AllReduce round time for a model of `m` bytes over `w` VMs
/// connected by `link`.
pub fn ring_allreduce_time(w: usize, m: ByteSize, link: Link) -> SimTime {
    assert!(w >= 1);
    if w == 1 {
        return SimTime::ZERO;
    }
    let steps = 2 * (w - 1);
    let chunk = ByteSize::bytes((m.as_f64() / w as f64).ceil() as u64);
    link.transfer_time(chunk) * steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::mbps(100.0, 1e-3)
    }

    #[test]
    fn single_node_needs_no_communication() {
        assert_eq!(
            ring_allreduce_time(1, ByteSize::mb(100.0), link()),
            SimTime::ZERO
        );
    }

    #[test]
    fn ring_matches_paper_formula() {
        // (2w−2)(m/w/B + L) with w=10, m=12MB, B=100MB/s, L=1ms
        let t = ring_allreduce_time(10, ByteSize::mb(12.0), link());
        let expected = 18.0 * (1.2e6 / 100e6 + 1e-3);
        assert!((t.as_secs() - expected).abs() < 1e-6, "{t}");
    }

    #[test]
    fn ring_is_nearly_bandwidth_optimal() {
        // Total bytes moved per node ≈ 2m regardless of w (for small L).
        let no_lat = Link::mbps(100.0, 0.0);
        let t10 = ring_allreduce_time(10, ByteSize::mb(100.0), no_lat);
        let t100 = ring_allreduce_time(100, ByteSize::mb(100.0), no_lat);
        assert!((t10.as_secs() - 1.8).abs() < 0.01);
        assert!((t100.as_secs() - 1.98).abs() < 0.01);
    }

    #[test]
    fn latency_dominates_small_models() {
        // LR on Higgs is 224 bytes; the ring cost is almost pure latency.
        let t = ring_allreduce_time(10, ByteSize::bytes(224), link());
        assert!((t.as_secs() - 18.0 * 1e-3).abs() < 1e-4);
    }
}
