//! # lml-analytic — the paper's analytical model (§5.3)
//!
//! Captures the FaaS/IaaS cost-performance tradeoff in closed form:
//!
//! ```text
//! FaaS(w) = t_F(w) + s/B_S3 + R_F·f_F(w)·[ ρ·(3w−2)(m/w/B + L) + C_F/w ]
//! IaaS(w) = t_I(w) + s/B_S3 + R_I·f_I(w)·[ ρ·(2w−2)(m/w/B_n + L_n) + C_I/w ]
//! ```
//!
//! (ρ = communication rounds per epoch; the paper's formula absorbs it into
//! R.) The convergence-scaling factor `f(w)` is 1 here, the value the
//! paper's own validation uses with measured `R`. The green/red terms of
//! the paper map to: FaaS wins start-up, IaaS wins communication —
//! `(3w−2)` vs `(2w−2)` because a storage service cannot compute, so the
//! merged state makes one extra hop.
//!
//! * [`constants`] — Table 6 as code.
//! * [`table4`] — Table 4 as code: the twelve workloads'
//!   [`table4::WorkloadId`] rows (dataset, model, workers, paper batch,
//!   learning rate, loss threshold, best algorithm), the one home the
//!   experiment registry and the fleet's job zoo both read.
//! * [`model`] — the two formulas as one body keyed by
//!   [`model::Substrate`] and evaluated through the closed form
//!   [`Scenario`] (`startup + load + R·(ρ·comm_round + compute)`, with
//!   the start-up billing rule), their dollar version, and
//!   [`model::price`]: the (start-up, run, run dollars) split every
//!   `lml-fleet` caller prices through.
//! * [`estimator`] — the sampling-based epoch estimator (after Kaoudi et
//!   al. \[54\]): train on 10% of the data, observe epochs-to-threshold.
//! * [`whatif`] — §5.3.1's case studies as transforms of a [`Scenario`]
//!   built from a simulated run: Q1 (10 Gbps FaaS↔IaaS, GPU Lambda
//!   pricing) and Q2 (hot data).

#![forbid(unsafe_code)]

pub mod constants;
pub mod estimator;
pub mod model;
pub mod table4;
pub mod whatif;

pub use estimator::estimate_epochs;
pub use model::{AnalyticCase, AnalyticParams, Scenario};
