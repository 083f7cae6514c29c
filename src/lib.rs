//! # snug-sim — root package
//!
//! The root package's library target. It exports nothing: examples and
//! integration tests import the workspace crates (`snug_experiments`,
//! `snug_harness`, …) directly, each through its crate root. The crate
//! map, data flow and result-store key schema are documented in
//! `ARCHITECTURE.md`; the committed evaluation is `EXPERIMENTS.md`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]
