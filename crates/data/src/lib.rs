//! # lml-data — datasets for LambdaML-rs
//!
//! The paper evaluates on five datasets (Figure 6): Higgs, RCV1, Cifar10,
//! YFCC100M and Criteo. We cannot ship those datasets, so this crate provides
//! **seeded synthetic generators** that match each dataset's dimensionality,
//! sparsity and task structure, with row counts scaled down (documented per
//! generator) so experiments run on one machine. Each generator carries a
//! [`spec::DatasetSpec`] holding the *paper-scale* instance counts and byte
//! sizes; the simulator uses those for all wire/time computations, so system
//! costs reflect the full-size datasets even though the numerics run on the
//! scaled sample.
//!
//! * [`dataset`] — dense/sparse containers and the unified [`dataset::Dataset`].
//! * [`spec`] — per-dataset metadata (paper size, scale factor, wire bytes).
//! * [`generators`] — one module per dataset, each a seeded
//!   `generate_rows(n, seed)` that returns exactly `n` rows, behind
//!   [`generators::DatasetId`] (which also names each default sample's
//!   row count).
//! * [`libsvm`] — LIBSVM text-format reader/writer (the format the paper's
//!   repo distributes Higgs/RCV1 partitions in).
//! * [`partition`] — contiguous range partitioning across workers.
//! * [`transform`] — min-max normalization, shuffling, train/valid split.

#![forbid(unsafe_code)]

pub mod dataset;
pub mod generators;
pub mod libsvm;
pub mod partition;
pub mod spec;
pub mod transform;

pub use dataset::{Dataset, DenseDataset, Row, SparseDataset};
pub use partition::Partition;
pub use spec::DatasetSpec;
