//! The storage communication channel: real data movement + modeled time.
//!
//! [`StorageChannel`] pairs the in-memory [`ObjectStore`] with a
//! [`ServiceProfile`]. Data operations (`put`/`get`/`list`/`clear_prefix`) move
//! real blobs and charge request billing; the *leg* helpers convert
//! operation patterns into virtual durations using the same `L + m/B`
//! structure as the paper's analytical model (§5.3):
//!
//! * a **client leg** is one client performing `ops` storage operations
//!   back-to-back (e.g. the AllReduce leader reading `w` files) — operations
//!   serialize on the client;
//! * a **parallel leg** is `clients` different executors each performing one
//!   operation concurrently (e.g. all workers writing their local updates) —
//!   operations overlap up to the service's `concurrency`, sharing the node
//!   NIC.

use crate::blob::Blob;
use crate::profile::ServiceProfile;
use crate::store::ObjectStore;
use lml_sim::{ByteSize, Cost, SimTime};

/// Errors surfaced by storage operations.
#[derive(Debug, Clone, PartialEq)]
pub enum StorageError {
    /// The service caps item sizes (DynamoDB: 400 KB) and this blob exceeds
    /// the cap.
    ItemTooLarge { size: ByteSize, cap: ByteSize },
    /// Key not present.
    NotFound { key: String },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::ItemTooLarge { size, cap } => {
                write!(f, "item of {size} exceeds the service cap of {cap}")
            }
            StorageError::NotFound { key } => write!(f, "key {key:?} not found"),
        }
    }
}

impl std::error::Error for StorageError {}

/// A storage service: object store + timing/billing profile.
#[derive(Debug, Clone)]
pub struct StorageChannel {
    profile: ServiceProfile,
    store: ObjectStore,
    puts: u64,
    gets: u64,
    lists: u64,
    request_cost: Cost,
}

impl StorageChannel {
    pub fn new(profile: ServiceProfile) -> Self {
        StorageChannel {
            profile,
            store: ObjectStore::new(),
            puts: 0,
            gets: 0,
            lists: 0,
            request_cost: Cost::ZERO,
        }
    }

    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    // ---- data operations (move real bytes, charge requests) ----

    /// Store a blob. Returns the uncontended single-op duration.
    pub fn put(&mut self, key: impl Into<String>, blob: Blob) -> Result<SimTime, StorageError> {
        let size = blob.wire_bytes();
        if !self.profile.admits(size) {
            return Err(StorageError::ItemTooLarge {
                size,
                cap: self.profile.max_item.expect("admits failed implies a cap"),
            });
        }
        self.puts += 1;
        self.request_cost += self.profile.put_price.price(size);
        self.store.put(key, blob);
        Ok(self.op_time(size))
    }

    /// A blob holding a copy of `data`, in a buffer recycled from blobs
    /// this channel's store has dropped (see `ObjectStore::blob_of`). A
    /// host-side matter only: no request is made or billed until the blob
    /// is `put`.
    pub fn blob_of(&mut self, data: &[f64]) -> Blob {
        self.store.blob_of(data)
    }

    /// Fetch a blob. Returns `(duration, blob)`.
    pub fn get(&mut self, key: &str) -> Result<(SimTime, Blob), StorageError> {
        let blob = self.store.get(key).ok_or_else(|| StorageError::NotFound {
            key: key.to_string(),
        })?;
        self.gets += 1;
        self.request_cost += self.profile.get_price.price(blob.wire_bytes());
        Ok((self.op_time(blob.wire_bytes()), blob))
    }

    /// Atomic prefix listing (the merging phase's completion check).
    /// Costs one latency unit plus an S3-style LIST request.
    pub fn list(&mut self, prefix: &str) -> (SimTime, Vec<String>) {
        self.lists += 1;
        self.request_cost += self.profile.put_price.per_request; // LIST priced like PUT on S3
        (self.profile.latency, self.store.list(prefix))
    }

    /// Drop all keys under a prefix (garbage collection between rounds; the
    /// paper's implementation overwrites by name, we clear eagerly).
    pub fn clear_prefix(&mut self, prefix: &str) -> usize {
        self.store.clear_prefix(prefix)
    }

    // ---- timing model ----

    /// Uncontended single-operation duration: `L + m/B`.
    pub fn op_time(&self, bytes: ByteSize) -> SimTime {
        SimTime::secs(self.profile.latency.as_secs() + bytes.as_f64() / self.profile.stream_bw)
    }

    /// One client performing `ops` back-to-back operations of `bytes_each`.
    pub fn client_leg(&self, ops: u64, bytes_each: ByteSize) -> SimTime {
        self.op_time(bytes_each) * ops as f64
    }

    /// `clients` executors each performing one operation of `bytes_each`
    /// concurrently. Operations proceed in waves of at most `concurrency`,
    /// sharing the node NIC within a wave.
    pub fn parallel_leg(&self, clients: usize, bytes_each: ByteSize) -> SimTime {
        if clients == 0 {
            return SimTime::ZERO;
        }
        let c = self.profile.concurrency.max(1);
        let waves = clients.div_ceil(c);
        let concurrent = clients.min(c);
        let per_stream = self
            .profile
            .stream_bw
            .min(self.profile.node_bw / concurrent as f64);
        let wave_time = self.profile.latency.as_secs() + bytes_each.as_f64() / per_stream;
        SimTime::secs(waves as f64 * wave_time)
    }

    /// The service's provisioning delay (ElastiCache node boot).
    pub fn startup(&self) -> SimTime {
        self.profile.startup
    }

    // ---- billing ----

    /// Request charges accumulated so far (S3/DynamoDB).
    pub fn request_cost(&self) -> Cost {
        self.request_cost
    }

    /// Node-hour charges for keeping the service up for `elapsed`.
    pub fn node_cost(&self, elapsed: SimTime) -> Cost {
        self.profile.hourly * elapsed.as_hours()
    }

    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.puts, self.gets, self.lists)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{CacheNode, ServiceProfile};

    #[test]
    fn put_get_moves_real_data_and_charges() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        let t = ch.put("w0", Blob::from_vec(vec![1.0, 2.0])).unwrap();
        assert!((t.as_secs() - (0.08 + 16.0 / 65e6)).abs() < 1e-9);
        let (_, blob) = ch.get("w0").unwrap();
        assert_eq!(blob.data(), &[1.0, 2.0]);
        assert!(ch.request_cost().as_usd() > 0.0);
        assert_eq!(ch.op_counts(), (1, 1, 0));
    }

    #[test]
    fn get_missing_is_not_found() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        assert_eq!(
            ch.get("nope").unwrap_err(),
            StorageError::NotFound { key: "nope".into() }
        );
    }

    #[test]
    fn dynamodb_rejects_large_items() {
        let mut ch = StorageChannel::new(ServiceProfile::dynamodb());
        let big = Blob::from_vec(Vec::new()).with_wire(ByteSize::mb(12.0));
        match ch.put("mn", big) {
            Err(StorageError::ItemTooLarge { size, cap }) => {
                assert_eq!(size, ByteSize::mb(12.0));
                assert_eq!(cap, ByteSize::kb(400.0));
            }
            other => panic!("expected ItemTooLarge, got {other:?}"),
        }
        // small items fine
        assert!(ch.put("lr", Blob::from_vec(vec![0.0; 28])).is_ok());
    }

    #[test]
    fn memcached_rounds_are_much_faster_than_s3() {
        // §4.3: one round of communication on Memcached is significantly
        // faster than on S3 (7× reported for LR over 50 workers).
        let s3 = StorageChannel::new(ServiceProfile::s3());
        let mc = StorageChannel::new(ServiceProfile::memcached(CacheNode::T3Medium));
        let m = ByteSize::bytes(224);
        let w = 50;
        // AllReduce-ish critical path: parallel puts + leader reads + put + parallel gets
        let round = |ch: &StorageChannel| {
            ch.parallel_leg(w, m)
                + ch.client_leg(w as u64, m)
                + ch.op_time(m)
                + ch.parallel_leg(w - 1, m)
        };
        let ratio = round(&s3).as_secs() / round(&mc).as_secs();
        assert!(ratio > 5.0 && ratio < 12.0, "Memcached speedup {ratio}");
    }

    #[test]
    fn redis_serializes_concurrent_clients() {
        let mc = StorageChannel::new(ServiceProfile::memcached(CacheNode::T3Medium));
        let rd = StorageChannel::new(ServiceProfile::redis(CacheNode::T3Medium));
        let m = ByteSize::mb(12.0);
        let t_mc = mc.parallel_leg(50, m);
        let t_rd = rd.parallel_leg(50, m);
        assert!(t_rd.as_secs() > t_mc.as_secs(), "{t_rd} !> {t_mc}");
    }

    #[test]
    fn s3_parallel_puts_do_not_contend() {
        let s3 = StorageChannel::new(ServiceProfile::s3());
        let m = ByteSize::mb(10.0);
        let one = s3.parallel_leg(1, m);
        let hundred = s3.parallel_leg(100, m);
        assert!(
            (one.as_secs() - hundred.as_secs()).abs() < 1e-9,
            "S3 scales out"
        );
    }

    #[test]
    fn node_billing_accrues_with_time() {
        let mc = StorageChannel::new(ServiceProfile::memcached(CacheNode::T3Small));
        let c = mc.node_cost(SimTime::hours(2.0));
        assert!((c.as_usd() - 0.068).abs() < 1e-12);
        let s3 = StorageChannel::new(ServiceProfile::s3());
        assert_eq!(s3.node_cost(SimTime::hours(100.0)), Cost::ZERO);
    }

    #[test]
    fn list_returns_sorted_keys_after_puts() {
        let mut ch = StorageChannel::new(ServiceProfile::s3());
        ch.put("ep0_it0_p1", Blob::from_vec(vec![1.0])).unwrap();
        ch.put("ep0_it0_p0", Blob::from_vec(vec![2.0])).unwrap();
        ch.put("merged_ep0_it0", Blob::from_vec(vec![3.0])).unwrap();
        let (t, keys) = ch.list("ep0_it0_");
        assert_eq!(keys, vec!["ep0_it0_p0", "ep0_it0_p1"]);
        assert_eq!(t, SimTime::secs(0.08));
    }
}
