//! # lml-comm — FaaS communication layer for LambdaML-rs
//!
//! The paper's design-space axes (3) and (4): communication pattern and
//! synchronization protocol (§3.2.3–§3.2.4). Stateless functions cannot
//! message each other, so every exchange goes through a storage channel;
//! this crate implements the aggregation schemes on top of
//! `lml_storage::StorageChannel`:
//!
//! * [`patterns`] — AllReduce (single leader merges everything) and
//!   ScatterReduce (every worker merges one chunk), both moving real data
//!   and returning the critical-path virtual time (Figure 4, Table 3).
//! * [`protocols`] — the two-phase synchronous protocol with the paper's
//!   epoch/iteration/partition key naming and polling-based completion
//!   checks, and the S-ASP asynchronous protocol (global model on storage,
//!   stale reads; Figure 8).

#![forbid(unsafe_code)]

pub mod patterns;
pub mod protocols;

pub use patterns::{Pattern, Statistics};
pub use protocols::{Asp, Bsp};
