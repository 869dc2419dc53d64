//! # lml-sim — simulation substrate for LambdaML-rs
//!
//! Foundation crate for the LambdaML reproduction: a deterministic
//! discrete-event toolkit that every other crate builds on.
//!
//! * [`rng`] — a self-contained PCG64 generator (uniform, normal, Zipf,
//!   shuffling) so that every experiment is bit-reproducible from a seed.
//! * [`time`] — virtual time ([`SimTime`]) and durations in f64 seconds.
//! * [`money`] — dollar accounting ([`Cost`]).
//! * [`bytes`] — byte quantities with MB/GB helpers.
//! * [`link`] — latency + bandwidth transfer-time model.
//! * [`table`] — piecewise-linear lookup tables (e.g. cluster start-up time
//!   as a function of worker count, Table 6 of the paper).
//! * [`events`] — the earliest-first event queue ([`EventQueue`]) that
//!   the fleet simulator's replay loop and the asynchronous S-ASP
//!   executor run on.
//! * [`stats`] — summary statistics used by the calibration harness.
//! * [`par`] — the deterministic fan-out ([`par::parallel_map`]): results
//!   in item order at any thread count. It is the only code in the
//!   workspace that starts threads; the bench sweeps and the synchronous
//!   training round run on it.

#![forbid(unsafe_code)]

pub mod bytes;
pub mod events;
pub mod link;
pub mod money;
pub mod par;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;

pub use bytes::ByteSize;
pub use events::EventQueue;
pub use link::Link;
pub use money::Cost;
pub use rng::Pcg64;
pub use table::PiecewiseLinear;
pub use time::SimTime;
