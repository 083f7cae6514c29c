//! # snug-bench — criterion benches over the simulator kernel
//!
//! The library target is intentionally empty: the crate exists for its
//! `benches/` directory under the criterion harness (vendored shim
//! offline): `kernel_throughput` (the committed `BENCH_kernel.json`
//! trajectory), `micro_kernels` (per-primitive hot-path costs) and
//! `ablations` (the E9–E12 design-choice sweeps). The paper's figures
//! and tables render from the result store into `EXPERIMENTS.md`
//! (`snug report --experiments-md`); `snug characterize` prints the
//! Figs. 1–3 demand characterisation.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
