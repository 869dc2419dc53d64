//! # lml-optim — optimization algorithms for LambdaML-rs
//!
//! The paper's design-space axis (1): the distributed optimization algorithm
//! (§3.2.1). This crate implements the per-worker math and the aggregation
//! semantics of each algorithm, and the synchronous loop that runs them;
//! the executors in `lml-core` wire that loop to a communication channel
//! and a clock.
//!
//! * [`schedule`] — learning-rate schedules (constant, 1/√T decay — the
//!   paper uses the latter for asynchronous training, after \[104\]).
//! * [`sgd`] — mini-batch SGD steps and batch cursors.
//! * [`algorithm`] — the four distributed algorithms: GA-SGD (gradient
//!   averaging), MA-SGD (model averaging), consensus ADMM, and EM for
//!   k-means, expressed as *statistic producers/consumers*: each round a
//!   worker emits a `Vec<f64>` statistic; statistics sum across workers; the
//!   algorithm turns the aggregate back into a model update.
//! * [`stopping`] — loss-threshold stopping and loss-curve recording.
//! * [`driver`] — the one synchronous loop: rounds of produce → sum →
//!   consume over worker replicas, with epoch accounting, validation and
//!   stopping. `lml-core`'s executors and the §5.3 epoch estimator both
//!   train through it.

#![forbid(unsafe_code)]

pub mod algorithm;
pub mod driver;
pub mod schedule;
pub mod sgd;
pub mod stopping;

pub use algorithm::{Algorithm, WorkerState};
pub use schedule::LrSchedule;
pub use stopping::{CurvePoint, LossCurve, StopSpec};
