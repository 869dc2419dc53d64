//! # lml-storage — simulated cloud storage services for LambdaML-rs
//!
//! The paper's design-space axis (2): the communication channel (§3.2.2).
//! FaaS functions cannot talk to each other, so every statistic moves
//! through a storage service. This crate provides one real in-memory object
//! store wrapped in per-service *timing and constraint profiles*:
//!
//! | Service | character (paper §4.3 / Table 6) |
//! |---|---|
//! | S3 | always-on, high latency (80 ms), 65 MB/s, per-request pricing |
//! | ElastiCache Memcached | ~2 min node start-up, low latency, multi-threaded |
//! | ElastiCache Redis | same node, single-threaded service loop |
//! | DynamoDB | always-on, 400 KB item cap (rejects big models) |
//!
//! * [`blob`] — the payload type (real `f64` data + logical wire size).
//! * [`store`] — the in-memory object store with atomic prefix listing.
//! * [`profile`] — per-service constants.
//! * [`channel`] — [`channel::StorageChannel`]: store + profile + contention
//!   model + request/node billing. All executor communication goes through
//!   this type.
//! * [`checkpoint`] — recovery-checkpoint sizing from model dims and the
//!   one checkpoint store the fleet simulator's spot recovery prices
//!   through: write/read time and dollars on DynamoDB at or under 4,000 B,
//!   on S3 above.

#![forbid(unsafe_code)]

pub mod blob;
pub mod channel;
pub mod checkpoint;
pub mod profile;
pub mod store;

pub use blob::Blob;
pub use channel::{StorageChannel, StorageError};
pub use checkpoint::{checkpoint_bytes, CheckpointCosting, CHECKPOINT_AUX_FACTOR};
pub use profile::{CacheNode, ServiceKind, ServiceProfile};
pub use store::ObjectStore;
