//! # lml-models — ML models for LambdaML-rs
//!
//! The paper trains five models (§4.1/§5.1): logistic regression (LR),
//! linear SVM, k-means (KM), MobileNet (MN) and ResNet50 (RN). This crate
//! implements them with analytic gradients / manual backprop — the stand-in
//! for the paper's PyTorch engine:
//!
//! * [`objective`] — the [`objective::Objective`] trait for gradient-based
//!   models, plus batch-loss/accuracy helpers.
//! * [`linear`] — [`linear::Linear`]: logistic regression and linear SVM
//!   as one model that differs only in its [`linear::LinearLoss`], on dense
//!   and sparse rows.
//! * [`kmeans`] — [`kmeans::KMeans`] trained by EM with aggregatable
//!   sufficient statistics (the distributed form used by LambdaML).
//! * [`mlp`] — [`mlp::Mlp`]: ReLU feed-forward network with softmax
//!   cross-entropy and manual backprop over a flat parameter buffer.
//! * [`zoo`] — paper-profile constructors: the MobileNet and ResNet50
//!   surrogates carry the *paper's* wire sizes (12 MB / 89 MB) and per-image
//!   FLOP counts for the system model while training a real MLP for the
//!   statistics.

#![forbid(unsafe_code)]

pub mod kmeans;
pub mod linear;
pub mod mlp;
pub mod objective;
pub mod zoo;

pub use kmeans::KMeans;
pub use linear::{Linear, LinearLoss};
pub use mlp::Mlp;
pub use objective::Objective;
pub use zoo::{AnyModel, ModelId};
