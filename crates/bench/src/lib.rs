//! # snug-bench — the kernel throughput trajectory
//!
//! The library target is intentionally empty: the crate exists for its
//! one bench, `benches/kernel_throughput.rs`, which measures and gates
//! the committed `BENCH_kernel.json` (`cargo bench -p snug-bench --bench
//! kernel_throughput -- --emit|--check`).
//! The paper's figures and tables render from the result store into
//! `EXPERIMENTS.md` (`snug report --experiments-md`), its design-choice
//! ablations into `ABLATIONS.md` (`snug ablations`), and `snug
//! characterize` prints the Figs. 1–3 demand characterisation.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
