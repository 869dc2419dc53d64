//! Synchronization protocols (§3.2.4).
//!
//! **Synchronous (BSP)** — the two-phase merge/update protocol. Files are
//! named by epoch, iteration and partition ID; the aggregator polls the
//! (atomic) listing until all `w` files appear, and non-aggregators poll for
//! the merged file. [`Bsp`] wraps a [`Pattern`] round and adds the polling
//! overhead.
//!
//! **Asynchronous (S-ASP)** — following SIREN: one global model lives on the
//! storage service; every worker independently reads it, trains, and writes
//! it back, never waiting for peers. Staleness is real: a worker reads
//! whatever model was last written. Convergence consequences (Figure 8's
//! instability) emerge from the numerics.

use crate::patterns::{reduce, Pattern, ReduceOutcome, Statistics};
use lml_sim::{ByteSize, SimTime};
use lml_storage::{Blob, StorageChannel, StorageError};

/// The paper's file-naming scheme: training epoch, iteration, partition.
pub fn round_key(epoch: usize, iter: usize) -> String {
    format!("ep{epoch}_it{iter}")
}

/// Two-phase synchronous protocol configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bsp {
    pub pattern: Pattern,
    /// Polling interval of the completion checks. The aggregator "should
    /// wait and keep polling the storage service" — each wait point costs on
    /// average half an interval; we charge one interval per phase,
    /// deterministic and slightly conservative.
    pub poll_interval: SimTime,
}

impl Bsp {
    pub fn new(pattern: Pattern) -> Self {
        Bsp {
            pattern,
            poll_interval: SimTime::millis(100.0),
        }
    }

    pub fn with_poll_interval(mut self, t: SimTime) -> Self {
        self.poll_interval = t;
        self
    }

    /// Execute one synchronous round: all workers' statistics in (owned
    /// ones move into the channel without a copy), summed aggregate out,
    /// with the round's critical-path time (pattern legs + two polling
    /// waits). Cleans the round's objects.
    pub fn run_round(
        &self,
        channel: &mut StorageChannel,
        epoch: usize,
        iter: usize,
        stats: impl Statistics,
        wire_total: ByteSize,
    ) -> Result<ReduceOutcome, StorageError> {
        let key = round_key(epoch, iter);
        let mut outcome = reduce(channel, self.pattern, &key, stats, wire_total)?;
        // one merging-phase wait + one updating-phase wait
        outcome.duration += self.poll_interval * 2.0;
        // storage-side garbage collection of this round's intermediates
        channel.clear_prefix(&key);
        Ok(outcome)
    }
}

/// Key under which the asynchronous global model lives.
pub const ASP_MODEL_KEY: &str = "global_model";

/// Asynchronous protocol state.
#[derive(Debug, Clone, Copy, Default)]
pub struct Asp {
    /// Writes performed (model versions).
    pub versions: u64,
}

impl Asp {
    pub fn new() -> Self {
        Asp::default()
    }

    /// Seed the global model (done once by the starter).
    pub fn init_model(
        &mut self,
        channel: &mut StorageChannel,
        params: &[f64],
        wire: ByteSize,
    ) -> Result<SimTime, StorageError> {
        self.versions = 0;
        channel.put(
            ASP_MODEL_KEY,
            Blob::from_vec(params.to_vec()).with_wire(wire),
        )
    }

    /// A worker reads the current global model (whatever was last written —
    /// possibly stale relative to the worker's previous read).
    pub fn read_model(
        &self,
        channel: &mut StorageChannel,
    ) -> Result<(SimTime, Vec<f64>), StorageError> {
        let (t, blob) = channel.get(ASP_MODEL_KEY)?;
        Ok((t, blob.data().to_vec()))
    }

    /// A worker overwrites the global model with its locally-updated copy
    /// (SIREN-style rewrite; no read-modify-write atomicity).
    pub fn write_model(
        &mut self,
        channel: &mut StorageChannel,
        params: &[f64],
        wire: ByteSize,
    ) -> Result<SimTime, StorageError> {
        self.versions += 1;
        channel.put(
            ASP_MODEL_KEY,
            Blob::from_vec(params.to_vec()).with_wire(wire),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lml_storage::ServiceProfile;

    #[test]
    fn round_key_scheme_matches_paper() {
        assert_eq!(round_key(3, 7), "ep3_it7");
    }

    #[test]
    fn bsp_round_sums_and_cleans_up() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let bsp = Bsp::new(Pattern::AllReduce);
        let stats = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let out = bsp
            .run_round(&mut ch, 0, 0, &stats, ByteSize::of_f64s(2))
            .unwrap();
        assert_eq!(out.aggregate, vec![4.0, 6.0]);
        // intermediates cleared
        assert_eq!(ch.store().count("ep0_it0"), 0);
    }

    #[test]
    fn bsp_charges_polling() {
        let mut a = StorageChannel::new(ServiceProfile::s3());
        let mut b = StorageChannel::new(ServiceProfile::s3());
        let stats = vec![vec![1.0], vec![2.0]];
        let wire = ByteSize::of_f64s(1);
        let fast = Bsp::new(Pattern::AllReduce).with_poll_interval(SimTime::ZERO);
        let slow = Bsp::new(Pattern::AllReduce).with_poll_interval(SimTime::secs(1.0));
        let tf = fast.run_round(&mut a, 0, 0, &stats, wire).unwrap().duration;
        let ts = slow.run_round(&mut b, 0, 0, &stats, wire).unwrap().duration;
        assert!((ts.as_secs() - tf.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn asp_reads_see_latest_write() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let mut asp = Asp::new();
        asp.init_model(&mut ch, &[0.0, 0.0], ByteSize::of_f64s(2))
            .unwrap();
        let (_, m0) = asp.read_model(&mut ch).unwrap();
        assert_eq!(m0, vec![0.0, 0.0]);
        asp.write_model(&mut ch, &[1.0, 5.0], ByteSize::of_f64s(2))
            .unwrap();
        let (_, m1) = asp.read_model(&mut ch).unwrap();
        assert_eq!(m1, vec![1.0, 5.0]);
        assert_eq!(asp.versions, 1);
    }

    #[test]
    fn asp_lost_update_semantics() {
        // Two workers read the same version; the second write clobbers the
        // first — the inconsistency that destabilizes Figure 8's async runs.
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let mut asp = Asp::new();
        asp.init_model(&mut ch, &[0.0], ByteSize::of_f64s(1))
            .unwrap();
        let (_, a) = asp.read_model(&mut ch).unwrap();
        let (_, b) = asp.read_model(&mut ch).unwrap();
        assert_eq!(a, b);
        asp.write_model(&mut ch, &[a[0] + 1.0], ByteSize::of_f64s(1))
            .unwrap();
        asp.write_model(&mut ch, &[b[0] + 2.0], ByteSize::of_f64s(1))
            .unwrap();
        let (_, m) = asp.read_model(&mut ch).unwrap();
        assert_eq!(m, vec![2.0], "first increment lost");
    }
}
