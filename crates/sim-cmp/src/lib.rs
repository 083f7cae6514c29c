//! # sim-cmp — the quad-core CMP substrate
//!
//! Execution-driven chip-multiprocessor simulator reproducing the
//! paper's Table 4 platform:
//!
//! * `config` — system/bus/core configuration (Table 4 defaults);
//! * `core` — the simplified out-of-order core timing model;
//! * `bus` — 16 B split-transaction snoop bus with arbitration;
//! * `scheme` — the [`L2Org`] trait behind which the five L2
//!   organisations plug in, plus the scheme-side event hook;
//! * `plan` — [`RunPlan`]s: warm-up spec + first-class
//!   stopping policies (`StopPolicy` with fixed-window and
//!   convergence-based implementations);
//! * `front` — per-core front ends (op stream plus private L1), live
//!   or shared across sessions through a [`SharedFront`]'s
//!   record files;
//! * `session` — steppable [`SimSession`]s, the one way to
//!   run a simulation: incremental `step`/`run_until` driving or one
//!   `run_to_completion`, stride probes, policy-driven early exit,
//!   and the [`SystemResult`] a run reports.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(clippy::cast_possible_truncation)]
#![warn(missing_docs)]

mod bus;
mod config;
mod core;
mod front;
mod plan;
mod scheme;
mod session;

pub use bus::{Bus, BusGrant, BusStats};
pub use config::{BusConfig, CoreConfig, SystemConfig};
pub use core::CoreStats;
pub use front::{Checkpoints, FrontError, SharedFront};
pub use plan::{Converged, FixedCycles, Reconverged, RunPlan, StopSpec};
pub use scheme::{ChipResources, L2Fill, L2Org, L2Outcome, SchemeEvent, SchemeEventKind};
pub use session::{CoreResult, PeriodSample, SessionBuilder, SimSession, SystemResult};
