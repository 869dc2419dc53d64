//! Checkpoint sizing and pricing.
//!
//! A training job's recovery checkpoint is the global model plus the
//! per-epoch auxiliary state the algorithm needs to resume mid-run (ADMM
//! dual variables, EM sufficient statistics, SGD momentum buffers) — the
//! same order of magnitude as the model itself, so the checkpoint ships
//! [`CHECKPOINT_AUX_FACTOR`] × the model's wire size.
//!
//! Write/read time and dollars go through the same [`ServiceProfile`]
//! channel model as every other storage operation in the repository
//! (`L + m/B`, per-request billing). There is one checkpoint store,
//! [`CheckpointCosting::tiered`], and it makes a storage-class choice per
//! checkpoint: DynamoDB at or under [`TIER_THRESHOLD`], S3 above it.
//! S3 is always-on, has no node to keep warm, and charges a flat per-PUT
//! price whatever the object's size, the "checkpoint to object storage"
//! pattern serverless frameworks use. That flat price is the wrong deal
//! for *tiny* convex-model checkpoints, though: DynamoDB bills per KB unit
//! (a 448 B LR checkpoint costs one write unit, 4× less than an S3 PUT)
//! and answers in 30 ms instead of 80 ms, but caps items at 400 KB, so
//! deep-model checkpoints don't fit.

use crate::profile::ServiceProfile;
use lml_sim::{ByteSize, Cost, SimTime};

/// Checkpoint bytes per model byte: the model itself plus the resumable
/// optimizer/algorithm state (dual variables, momentum, cluster stats).
pub const CHECKPOINT_AUX_FACTOR: f64 = 2.0;

/// Size of one recovery checkpoint for a model of `model_bytes` wire size.
pub fn checkpoint_bytes(model_bytes: f64) -> ByteSize {
    assert!(
        model_bytes.is_finite() && model_bytes >= 0.0,
        "model size must be finite and non-negative"
    );
    ByteSize::bytes((model_bytes * CHECKPOINT_AUX_FACTOR).ceil() as u64)
}

/// The storage-class threshold: checkpoints at or under this size go
/// through DynamoDB, larger ones through S3. It is the cost break-even
/// where DynamoDB's per-KB write units (4 × $1.25e-6) meet S3's flat $5e-6
/// PUT: at or under it DynamoDB is never dearer and always faster (30 ms
/// vs 80 ms), so tiering is strictly dominant; above it S3's flat request
/// price wins on dollars. It sits far below DynamoDB's 400 KB item cap.
pub const TIER_THRESHOLD: ByteSize = ByteSize(4_000);

/// Checkpoint write/read pricing: DynamoDB or S3, chosen per checkpoint
/// by size.
///
/// The costing is stateless: both operations follow the chosen profile's
/// single-stream channel model (`latency + bytes / stream_bw`) and its
/// request billing. Contention is deliberately ignored — checkpoints are
/// rare, large, sequential uploads from one worker, not the all-workers
/// gradient storm the [`crate::channel::StorageChannel`] models.
#[derive(Debug, Clone)]
pub struct CheckpointCosting {
    // Field order is drop order, which decides where the next small
    // strings land on the heap: freeing DynamoDB's label before S3's raised
    // the benchmark's `fleet_trace_observed` peak RSS by 1.1 MB.
    /// Everything larger than [`TIER_THRESHOLD`].
    large: ServiceProfile,
    /// Checkpoints at or under [`TIER_THRESHOLD`].
    small: ServiceProfile,
}

impl CheckpointCosting {
    /// The checkpoint store: DynamoDB for checkpoints at or under
    /// [`TIER_THRESHOLD`] (tiny convex models — cheaper per-unit puts,
    /// 30 ms latency), S3 for everything larger.
    pub fn tiered() -> Self {
        CheckpointCosting {
            small: ServiceProfile::dynamodb(),
            large: ServiceProfile::s3(),
        }
    }

    /// The profile a checkpoint of this size is routed through.
    fn profile_for(&self, bytes: ByteSize) -> &ServiceProfile {
        if bytes <= TIER_THRESHOLD {
            &self.small
        } else {
            &self.large
        }
    }

    /// Wall-clock time of one checkpoint upload: `L + m/B`.
    pub fn write_time(&self, bytes: ByteSize) -> SimTime {
        let p = self.profile_for(bytes);
        p.latency + SimTime::secs(bytes.as_f64() / p.stream_bw)
    }

    /// Dollars billed for one checkpoint upload (the request is billed when
    /// issued — an upload interrupted mid-flight still pays it).
    pub fn write_dollars(&self, bytes: ByteSize) -> Cost {
        self.profile_for(bytes).put_price.price(bytes)
    }

    /// Wall-clock time of one checkpoint restore: `L + m/B`.
    pub fn read_time(&self, bytes: ByteSize) -> SimTime {
        let p = self.profile_for(bytes);
        p.latency + SimTime::secs(bytes.as_f64() / p.stream_bw)
    }

    /// Dollars billed for one checkpoint restore.
    pub fn read_dollars(&self, bytes: ByteSize) -> Cost {
        self.profile_for(bytes).get_price.price(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ServiceKind;

    #[test]
    fn checkpoint_size_scales_the_model() {
        // ResNet50: 89 MB model → 178 MB checkpoint (model + aux state).
        let b = checkpoint_bytes(89e6);
        assert_eq!(b, ByteSize::bytes(178_000_000));
        // LR/Higgs: 224 B model → 448 B checkpoint.
        assert_eq!(checkpoint_bytes(224.0), ByteSize::bytes(448));
        assert_eq!(checkpoint_bytes(0.0), ByteSize::ZERO);
    }

    #[test]
    fn s3_write_time_follows_the_channel_model() {
        let c = CheckpointCosting::tiered();
        // 65 MB at 65 MB/s + 80 ms latency = 1.08 s.
        let t = c.write_time(ByteSize::mb(65.0));
        assert!((t.as_secs() - 1.08).abs() < 1e-9, "{t}");
        // Reads pay the same channel.
        assert_eq!(c.read_time(ByteSize::mb(65.0)), t);
        // A tiny checkpoint goes to DynamoDB and is latency-bound.
        assert!((c.write_time(ByteSize::bytes(448)).as_secs() - 0.03).abs() < 1e-4);
    }

    #[test]
    fn s3_checkpoint_dollars_are_flat_per_request() {
        let c = CheckpointCosting::tiered();
        // ResNet50: a 178 MB checkpoint pays one flat S3 PUT.
        let deep = checkpoint_bytes(89e6);
        assert_eq!(c.write_dollars(deep), Cost::usd(5e-6));
        assert_eq!(c.write_dollars(ByteSize::gb(1.0)), Cost::usd(5e-6));
        assert_eq!(c.read_dollars(deep), Cost::usd(4e-7));
    }

    #[test]
    fn dynamodb_costing_respects_the_item_cap() {
        let c = CheckpointCosting::tiered();
        // Everything DynamoDB is handed fits its 400 KB item cap …
        assert!(ServiceProfile::dynamodb().admits(TIER_THRESHOLD));
        // … and what it would still admit above the threshold goes to S3.
        let kind = |b: ByteSize| c.profile_for(b).kind;
        assert_eq!(kind(ByteSize::kb(399.0)), ServiceKind::S3);
        assert_eq!(kind(ByteSize::mb(178.0)), ServiceKind::S3);
    }

    #[test]
    fn tiered_store_routes_by_size() {
        let c = CheckpointCosting::tiered();
        let kind = |b: ByteSize| c.profile_for(b).kind;
        // LR/Higgs: 448 B checkpoint → DynamoDB, one write unit.
        let tiny = checkpoint_bytes(224.0);
        assert_eq!(kind(tiny), ServiceKind::DynamoDb);
        assert_eq!(c.write_dollars(tiny), Cost::usd(1.25e-6));
        // ResNet50: 178 MB checkpoint → S3 at the flat PUT price.
        let deep = checkpoint_bytes(89e6);
        assert_eq!(kind(deep), ServiceKind::S3);
        assert_eq!(c.write_dollars(deep), Cost::usd(5e-6));
        // The threshold is inclusive.
        assert_eq!(kind(ByteSize::bytes(4_000)), ServiceKind::DynamoDb);
        assert_eq!(kind(ByteSize::bytes(4_001)), ServiceKind::S3);
    }

    #[test]
    fn tiny_checkpoints_are_cheaper_and_faster_on_dynamodb() {
        let c = CheckpointCosting::tiered();
        let s3 = ServiceProfile::s3();
        // A 448 B LR/Higgs checkpoint: one DynamoDB write unit ($1.25e-6)
        // vs a flat S3 PUT ($5e-6), 4× cheaper; reads $0.25e-6 vs $4e-7.
        let tiny = checkpoint_bytes(224.0);
        assert!(c.write_dollars(tiny) < s3.put_price.price(tiny));
        assert!(c.read_dollars(tiny) < s3.get_price.price(tiny));
        // Latency: 30 ms vs 80 ms dominates a 448 B transfer.
        assert!(c.write_time(tiny) < s3.latency);
        assert!(c.read_time(tiny) < s3.latency);
        // The threshold is the write break-even: 4,000 B is four DynamoDB
        // units, exactly one S3 PUT; one byte more would be five units,
        // dearer than S3's flat price.
        let dynamo = ServiceProfile::dynamodb();
        let at = TIER_THRESHOLD;
        let above = ByteSize::bytes(TIER_THRESHOLD.as_bytes() + 1);
        assert_eq!(c.write_dollars(at), s3.put_price.price(at));
        assert!(dynamo.put_price.price(above) > c.write_dollars(above));
    }
}
