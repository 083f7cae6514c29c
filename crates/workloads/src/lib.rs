//! # snug-workloads — synthetic SPEC CPU2000 workload models
//!
//! The paper evaluates on SPEC CPU2000, which is unavailable offline;
//! this crate provides deterministic synthetic address-stream generators
//! calibrated to the *set-level capacity-demand profiles* the paper
//! reports (Table 6 classes; Figures 1–3). The substitution preserves
//! the behaviour under test because the SNUG/DSR/CC mechanisms observe
//! only per-set capacity demand and reuse depth — a stream matching
//! those profiles exercises the same policy decisions as the original
//! binaries would.
//!
//! * `model` — the generator engine (demand mixtures, phases,
//!   near/far reference patterns, streaming);
//! * `spec` — the 13 calibrated benchmark models;
//! * `combos` — Tables 7–8: the 6 combination classes and 21
//!   quad-core workload combinations;
//! * `phase` — phase-change schedules: deterministic mid-run shifts
//!   of the per-core streams (the scenario axis that exercises SNUG's
//!   stage-based adaptation).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod combos;
mod model;
mod phase;
mod spec;

pub use combos::{all_combos, Combo, ComboClass};
pub use model::{BenchmarkSpec, DemandComponent, DemandProfile, Pattern, Phase, SyntheticStream};
pub use phase::PhaseSchedule;
pub use spec::{AppClass, Benchmark};
