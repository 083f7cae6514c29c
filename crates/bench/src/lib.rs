//! # snug-bench — criterion benches over the experiment entry points
//!
//! The library target is intentionally empty: the crate exists for its
//! `benches/` directory, which regenerates the paper's figures/tables
//! under the criterion harness (vendored shim offline; the real crate
//! if registry access appears). Bench budgets mirror the `--quick`
//! preset so a full bench run stays interactive; use
//! `snug sweep --mid` (see `snug-harness`) for the calibrated paper
//! reproduction.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
