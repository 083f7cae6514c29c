//! # snug-metrics — performance metrics and reporting
//!
//! * [`perf`] — the paper's Table 5 metrics: throughput, average
//!   weighted speedup, fair speedup;
//! * [`stats`] — geometric means and friends (per-class aggregation);
//! * [`convergence`] — the rolling-window throughput estimator behind
//!   convergence-based early exit;
//! * [`counters`] — the [`SimCounters`] observability block the
//!   simulators fill in and `snug profile` renders;
//! * [`table`] — Markdown/CSV table rendering for EXPERIMENTS.md.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod convergence;
pub mod counters;
pub mod perf;
pub mod stats;
pub mod table;

pub use convergence::{PhasePlateau, RollingThroughput};
pub use counters::{SimCounters, WALK_DEPTH_BUCKETS};
pub use perf::{
    average_weighted_speedup, fair_speedup, normalized_throughput, IpcVector, MetricSet,
};
pub use stats::{geomean, max, mean, min, stddev};
pub use table::{f3, pct_delta, Table, TableFormat};
