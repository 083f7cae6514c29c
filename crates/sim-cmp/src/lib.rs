//! # sim-cmp — the quad-core CMP substrate
//!
//! Execution-driven chip-multiprocessor simulator reproducing the
//! paper's Table 4 platform:
//!
//! * [`config`] — system/bus/core configuration (Table 4 defaults);
//! * [`core`] — the simplified out-of-order core timing model;
//! * [`bus`] — 16 B split-transaction snoop bus with arbitration;
//! * [`scheme`] — the [`scheme::L2Org`] trait behind which the five L2
//!   organisations plug in, plus the scheme-side event hook;
//! * [`plan`] — [`plan::RunPlan`]s: warm-up spec + first-class
//!   stopping policies ([`plan::StopPolicy`] with fixed-window and
//!   convergence-based implementations);
//! * [`session`] — steppable [`session::SimSession`]s, the one way to
//!   run a simulation: incremental `step`/`run_until` driving or one
//!   `run_to_completion`, stride probes, policy-driven early exit,
//!   deterministic snapshot/restore, and the [`SystemResult`] a run
//!   reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod config;
pub mod core;
pub mod plan;
pub mod scheme;
pub mod session;

pub use bus::{Bus, BusGrant, BusStats};
pub use config::{BusConfig, CoreConfig, SystemConfig};
pub use core::{CoreModel, CoreStats};
pub use plan::{
    Converged, FixedCycles, Reconverged, RunPlan, StopObservation, StopPolicy, StopSpec,
    WINDOW_SAMPLES,
};
pub use scheme::{ChipResources, CloneOrg, L2Fill, L2Org, L2Outcome, SchemeEvent, SchemeEventKind};
pub use session::{
    CoreResult, PeriodSample, Probe, SessionBuilder, SessionSnapshot, SimSession, SnapshotError,
    SystemResult,
};
