//! Latency + bandwidth transfer model.
//!
//! Every medium in the paper (S3, EBS, VM-to-VM network, ElastiCache) is
//! characterized by a `(bandwidth, latency)` pair — exactly the columns of
//! Table 6. [`Link`] turns byte counts into virtual transfer times.

use crate::bytes::ByteSize;
use crate::time::SimTime;

/// A communication medium with fixed per-message latency and bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
}

impl Link {
    fn new(bandwidth_bps: f64, latency_s: f64) -> Self {
        assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(latency_s >= 0.0, "latency must be non-negative");
        Link {
            bandwidth_bps,
            latency_s,
        }
    }

    /// Convenience constructor from MB/s and seconds (Table 6 units).
    pub fn mbps(bandwidth_mb_s: f64, latency_s: f64) -> Self {
        Link::new(bandwidth_mb_s * 1e6, latency_s)
    }

    /// Time to move `size` bytes in one message: `L + size / B`.
    pub fn transfer_time(&self, size: ByteSize) -> SimTime {
        SimTime::secs(self.latency_s + size.as_f64() / self.bandwidth_bps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn s3_like_transfer() {
        // Table 6: S3 = 65 MB/s, 80 ms latency. 75 MB => ~1.23s + 0.08s.
        let s3 = Link::mbps(65.0, 0.08);
        let t = s3.transfer_time(ByteSize::mb(75.0));
        assert!((t.as_secs() - (0.08 + 75.0 / 65.0)).abs() < 1e-9);
    }

    #[test]
    fn zero_bytes_costs_latency_only() {
        let l = Link::mbps(100.0, 0.05);
        assert_eq!(l.transfer_time(ByteSize::ZERO), SimTime::secs(0.05));
    }

    #[test]
    #[should_panic]
    fn zero_bandwidth_rejected() {
        Link::new(0.0, 0.0);
    }
}
