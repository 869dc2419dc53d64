//! # lml-core — LambdaML training jobs over simulated clouds
//!
//! The paper's primary contribution assembled: a [`job::TrainingJob`] takes
//! a dataset, a model, a distributed optimization algorithm, a
//! communication channel, a communication pattern, a synchronization
//! protocol and a backend (FaaS fleet, IaaS cluster, hybrid
//! Lambda+parameter-server, or a single machine), runs **real training**
//! over the simulated infrastructure, and reports the paper's metrics:
//! loss-vs-time curves, runtime breakdowns (Figure 10) and dollar costs.
//!
//! * [`config`] — job configuration surface (the "AWS web UI" of Figure 2).
//! * [`engine`] — the compute-time model (calibrated to the paper's
//!   measured epoch times).
//! * [`result`] — run results: breakdown, cost decomposition, curves.
//! * [`executor`] — the four backends.
//! * [`job`] — the public entry point.
//! * [`pipeline`] — preprocessing + hyperparameter-search pipelines
//!   (Table 5).

#![forbid(unsafe_code)]

pub mod config;
pub mod engine;
pub mod executor;
pub mod job;
pub mod pipeline;
pub mod result;

pub use config::{Backend, ChannelKind, JobConfig, Protocol};
pub use job::{JobError, TrainingJob};
pub use result::{Breakdown, CostBreakdown, RunResult};
