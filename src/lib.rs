//! # snug-sim — workspace facade
//!
//! Re-exports the workspace crates behind one name so examples and
//! integration tests can reach everything through `snug_sim`. The crate
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

pub use snug_experiments as experiments;
pub use snug_harness as harness;
pub use snug_metrics as metrics;
pub use snug_workloads as workloads;
