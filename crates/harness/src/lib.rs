//! # snug-harness — experiment orchestration for the SNUG reproduction
//!
//! The seed repository reproduced every figure with one-off binaries
//! whose results died on stdout. This crate turns those experiments into
//! a reusable pipeline:
//!
//! * `spec` — declarative [`SweepSpec`]s (classes × schemes ×
//!   budget) that expand into content-keyed jobs;
//! * `exec` — the parallel executor for deterministic simulation
//!   jobs, run as a dependency graph;
//! * [`store`] — the content-addressed JSONL result cache under
//!   `results/`: re-running a sweep only executes jobs whose inputs
//!   changed, and cached results decode bit-identically;
//! * `sweep` — orchestration tying the three together with streamed
//!   progress;
//! * `report` — Figures 9–11 / Table 8 renderings (Markdown + CSV)
//!   from stored results;
//! * [`experiments_md`] — the committed, regenerable `EXPERIMENTS.md`
//!   (full paper evaluation + provenance) and its staleness check;
//! * `ablations` — SNUG's design-choice ablations and the budget
//!   calibration as keyed units in their own store, rendered into the
//!   committed `ABLATIONS.md`;
//! * `characterization` — the committed `CHARACTERIZATION.md`
//!   (Figures 1–3 and every benchmark's set-level demand at one pinned
//!   plan);
//! * `json` / `codec` / `hash` — the self-contained persistence
//!   substrate (no external JSON or hashing dependency): [`JsonReader`],
//!   [`JsonWriter`] and the [`JsonCodec`] of every stored type.
//!
//! Jobs are cached per *(combo, scheme point)*: the 21 Table 8
//! combinations × the 9 points (L2P, L2S, the five-probability CC
//! sweep, DSR, SNUG) expand to 189 individually content-addressed
//! simulations, so a scheme-parameter edit re-runs only that scheme's
//! jobs and every CC spill point caches independently.
//!
//! The `snug` binary (this crate's `src/bin/snug.rs`) exposes it all as
//! `snug sweep | report | compare | trace | profile | store | ablations |
//! characterize`.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![deny(missing_docs)]

mod ablations;
mod characterization;
mod codec;
mod exec;
pub mod experiments_md;
mod hash;
mod json;
mod report;
mod spec;
pub mod store;
mod sweep;

pub use ablations::{
    ablation_jobs, ablation_units, render_ablations_md, ComboAblation, ABLATIONS_DIR,
    ABLATIONS_FILE,
};
pub use characterization::{render_characterization_md, CHARACTERIZATION_FILE};
pub use codec::{read_required, read_u64, read_vec, JsonCodec};
pub use experiments_md::{
    check_experiments_md, eval_converged_spec, render_experiments_eval_md, render_experiments_md,
    CheckOutcome, EVAL_CONVERGED_REL_EPSILON, EVAL_CONVERGED_WINDOW, EXPERIMENTS_EVAL_FILE,
};
pub use hash::{content_key, fnv1a64, ContentKey};
pub use json::{JsonError, JsonReader, JsonWriter};
pub use report::{
    render_markdown, report_tables, stop_summary_table, write_report, CEILING_FOOTNOTE,
};
pub use spec::{
    config_key_text, params_key_text, system_key_text, trace_key, unit_jobs_for, unit_key,
    BudgetPreset, ComboJob, StopPreset, SweepSpec, UnitJob, SCHEMA_VERSION,
};
pub use store::{MergeStats, ResultStore, StoreError, StoredResult, SHARDS_DIR};
pub use sweep::{
    cached_results, fmt_eng, run_sweep, run_unit_jobs, telemetry_footer, ComboOutcome, SweepError,
    SweepEvent, SweepOutcome, UnitOutcome, UnitSpan,
};
