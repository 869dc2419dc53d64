//! # lml-linalg — linear-algebra kernels for LambdaML-rs
//!
//! Dependency-free dense and sparse kernels sized for the paper's workloads:
//! dense feature vectors up to 4096 dimensions (YFCC100M), sparse vectors up
//! to 1M dimensions (Criteo), and flat parameter buffers up to tens of MB
//! (ResNet50 surrogate).
//!
//! * [`dense`] — slice-based BLAS-1 kernels (dot, axpy, scale, norms) and
//!   small utilities (argmax, squared distance).
//! * [`sparse`] — [`sparse::SparseVec`]: sorted `(index, value)` pairs with
//!   dense interaction kernels.
//! * [`matrix`] — row-major [`matrix::Matrix`] used for dense feature blocks
//!   and MLP weight layers.
//! * [`blocked`] — order-preserving blocked kernels: several independent
//!   `dot`/`dist2` chains side by side, each bit-identical to the scalar
//!   loop (the MLP forward pass and the k-means E-step run on these).

#![forbid(unsafe_code)]

pub mod blocked;
pub mod dense;
pub mod matrix;
pub mod sparse;

pub use matrix::Matrix;
pub use sparse::SparseVec;
