#![warn(missing_docs)]
//! Symmetric 3-tensor storage and sequential STTSV kernels.
//!
//! This crate provides everything below the parallel layer:
//!
//! * [`storage`] — packed lower-tetrahedron storage for fully symmetric
//!   3-tensors (`n(n+1)(n+2)/6` words instead of `n³`) and a dense tensor
//!   for cross-checking,
//! * [`seq`] — the paper's Algorithm 3 (naive STTSV, `n³` ternary
//!   multiplications) and Algorithm 4 (symmetry-exploiting STTSV,
//!   `n²(n+1)/2` ternary multiplications) as flat-slab walks over the
//!   packed layout, plus blocked and batched (multi-vector) variants, with
//!   exact operation counting,
//! * [`ops`] — tensor-times-vector contractions and small dense matrix
//!   helpers,
//! * [`hopm`](mod@hopm) — the higher-order power method (Algorithm 1) and its shifted
//!   variant for ℤ-eigenpairs,
//! * [`cp`] — the symmetric CP gradient (Algorithm 2),
//! * [`generate`] — random symmetric and odeco (orthogonally decomposable)
//!   tensor workload generators.

pub mod cp;
pub mod dsym;
pub mod generate;
pub mod hopm;
pub mod io;
pub mod mttkrp;
pub mod ops;
pub mod seq;
pub mod storage;
pub mod symmat;

pub use cp::cp_gradient;
pub use dsym::{sttsv_d_naive, sttsv_d_sym, SymTensorD};
pub use generate::{random_odeco, random_symmetric, OdecoTensor};
pub use hopm::{hopm, shifted_hopm, HopmOptions, HopmResult};
pub use mttkrp::{mttkrp_sym, mttkrp_sym_fused};
pub use ops::Matrix;
pub use seq::{sttsv_naive, sttsv_sym, sttsv_sym_blocked, sttsv_sym_multi, sttsv_sym_ref, OpCount};
pub use storage::{DenseTensor3, SymTensor3};
