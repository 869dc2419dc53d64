//! # lml-faas — serverless runtime simulator for LambdaML-rs
//!
//! Models AWS Lambda as the paper experiences it (§2.2, §3.3):
//!
//! * functions get memory between 128 MB and ~3 GB; vCPU share scales with
//!   memory (3 GB ≈ 1.8 vCPU, 1 GB ≈ 0.6 vCPU — Table 2's rows);
//! * execution is capped at 15 minutes; LambdaML's hierarchical invocation
//!   checkpoints the local model and re-triggers a fresh function that
//!   inherits the worker ID (§3.3.1, Figure 5);
//! * startup is fast and scales mildly with the number of workers
//!   (Table 6's `t_F(w)`: 1.2 s at 10 workers → 35 s at 200);
//! * billing is per GB-second of execution — the "pay by usage" model that
//!   drives the paper's cost results.
//!
//! Modules: [`lambda`] (function specs, memory checks, billing),
//! [`startup`] (cold-start model: one starter invoke plus `t_F(w)`),
//! [`lifetime`] (15-minute rollover logic).

#![forbid(unsafe_code)]

pub mod lambda;
pub mod lifetime;
pub mod startup;

pub use lambda::{FaasError, GbSecondsMeter, LambdaSpec};
pub use lifetime::LifetimeManager;
pub use startup::faas_startup_time;
