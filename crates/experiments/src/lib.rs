//! # snug-experiments — the reproduction harness
//!
//! One module per experiment family:
//!
//! * [`characterize`](mod@characterize) — Figures 1–3: per-interval
//!   set-level capacity-demand distributions;
//! * [`compare`] — Figures 9–11: the five-scheme comparison over the
//!   21 workload combinations, with CC(Best) sweeping §4.1's spill
//!   probabilities. Every simulation is driven through a
//!   [`sim_cmp::SimSession`] built by [`session_for`]; [`run_point`]
//!   runs one (combo, scheme point) unit, optionally under a phase
//!   schedule and a baseline's pace;
//! * [`trace`] — phase-resolved time series ([`trace_point`]) behind
//!   the `snug trace` CLI.
//!
//! Sweeps over many units run on `snug_harness`'s executor (`snug
//! sweep`). Storage-overhead Tables 2–3 are pure arithmetic and live in
//! `snug_core::overhead`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod characterize;
pub mod compare;
pub mod trace;

pub use characterize::{characterize, CharacterizeConfig, DemandCharacterization};
/// The name the `snugbench` benchmark links [`session_for`] by.
#[doc(hidden)]
pub use compare::session_for as session_for_org_phased;
pub use compare::{
    assemble_combo, best_cc_index, combo_streams, default_window, figure_table, pace_of,
    paced_config, run_combo, run_point, run_scheme, session_for, summarize, ClassSummary,
    ComboResult, CompareConfig, Figure, Pace, SchemePoint, SchemeResult, SchemeRun, StopReason,
    DEFAULT_REL_EPSILON, FIGURE_SCHEMES,
};
pub use sim_cmp::{RunPlan, StopSpec};
pub use trace::{default_stride, trace_point, TraceSeries};
