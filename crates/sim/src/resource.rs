//! Shared-resource contention model.
//!
//! A storage service or parameter server has finite aggregate bandwidth.
//! When several simulated workers hit it concurrently their transfers queue.
//! [`FifoResource`] models the service as `parallelism` equal-share channels
//! backed by one aggregate-bandwidth pipe: an operation arriving at time `t`
//! starts when a channel is free and occupies it for `latency +
//! bytes/channel_bandwidth`.
//!
//! This captures the paper's two key contention observations:
//! * Memcached's multi-threaded design sustains many concurrent streams
//!   (high `parallelism`), Redis is single-threaded (low `parallelism`);
//! * the single-leader AllReduce aggregator serializes `w` reads.

use crate::bytes::ByteSize;
use crate::time::SimTime;

/// FIFO bandwidth resource with `parallelism` service channels.
#[derive(Debug, Clone)]
pub struct FifoResource {
    /// Aggregate bandwidth across all channels, bytes/s.
    pub aggregate_bandwidth_bps: f64,
    /// Per-operation latency in seconds.
    pub latency_s: f64,
    /// Number of operations the service can progress at full share.
    pub parallelism: usize,
    /// Next-free time of each channel.
    free_at: Vec<f64>,
}

impl FifoResource {
    pub fn new(aggregate_bandwidth_bps: f64, latency_s: f64, parallelism: usize) -> Self {
        assert!(aggregate_bandwidth_bps > 0.0);
        assert!(parallelism >= 1);
        FifoResource {
            aggregate_bandwidth_bps,
            latency_s,
            parallelism,
            free_at: vec![0.0; parallelism],
        }
    }

    /// Per-channel bandwidth when all channels are busy.
    pub fn channel_bandwidth_bps(&self) -> f64 {
        self.aggregate_bandwidth_bps / self.parallelism as f64
    }

    /// Submit an operation of `size` bytes arriving at `arrival`; returns its
    /// completion time. Operations are served by the earliest-free channel.
    pub fn submit(&mut self, arrival: SimTime, size: ByteSize) -> SimTime {
        let (idx, &earliest) = self
            .free_at
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("free_at must not be NaN"))
            .expect("at least one channel");
        let start = arrival.as_secs().max(earliest);
        let service = self.latency_s + size.as_f64() / self.channel_bandwidth_bps();
        let finish = start + service;
        self.free_at[idx] = finish;
        SimTime::secs(finish)
    }

    /// Reset all channels to idle (used between experiment repetitions).
    pub fn reset(&mut self) {
        self.free_at.iter_mut().for_each(|t| *t = 0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_op_is_latency_plus_transfer() {
        let mut r = FifoResource::new(100e6, 0.01, 1);
        let done = r.submit(SimTime::ZERO, ByteSize::mb(100.0));
        assert!((done.as_secs() - 1.01).abs() < 1e-9);
    }

    #[test]
    fn serial_queueing_on_single_channel() {
        let mut r = FifoResource::new(100e6, 0.0, 1);
        let a = r.submit(SimTime::ZERO, ByteSize::mb(100.0));
        let b = r.submit(SimTime::ZERO, ByteSize::mb(100.0));
        assert!((a.as_secs() - 1.0).abs() < 1e-9);
        assert!(
            (b.as_secs() - 2.0).abs() < 1e-9,
            "second op queues behind first"
        );
    }

    #[test]
    fn parallel_channels_share_bandwidth() {
        // Two channels, each gets half the aggregate bandwidth.
        let mut r = FifoResource::new(100e6, 0.0, 2);
        let a = r.submit(SimTime::ZERO, ByteSize::mb(50.0));
        let b = r.submit(SimTime::ZERO, ByteSize::mb(50.0));
        assert!((a.as_secs() - 1.0).abs() < 1e-9);
        assert!(
            (b.as_secs() - 1.0).abs() < 1e-9,
            "both proceed concurrently at half rate"
        );
    }

    #[test]
    fn arrival_after_idle_does_not_queue() {
        let mut r = FifoResource::new(100e6, 0.0, 1);
        let _ = r.submit(SimTime::ZERO, ByteSize::mb(100.0)); // busy till 1.0
        let b = r.submit(SimTime::secs(5.0), ByteSize::mb(100.0));
        assert!((b.as_secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_queue() {
        let mut r = FifoResource::new(100e6, 0.0, 1);
        let _ = r.submit(SimTime::ZERO, ByteSize::mb(100.0)); // busy till 1.0
        r.reset();
        let b = r.submit(SimTime::ZERO, ByteSize::mb(100.0));
        assert!((b.as_secs() - 1.0).abs() < 1e-9, "no queue left behind");
    }
}
