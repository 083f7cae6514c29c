//! # sim-mem — memory substrate for the SNUG reproduction
//!
//! Foundation types shared by every other crate in the workspace:
//!
//! * `address` — physical addresses, block addresses and set/tag
//!   decomposition under a cache [`Geometry`];
//! * `access` — memory references and the [`OpStream`] trait
//!   that workload generators implement;
//! * `dram` — the off-chip DRAM timing model (flat 300-cycle latency
//!   plus channel occupancy, paper Table 4);
//! * `shift` — mid-run workload shift directives (phase-change
//!   scenarios) delivered through [`OpStream::apply_shift`];
//! * `state` — the byte encoding of checkpointed generator and cache
//!   state ([`OpStream::save_state`]);
//! * `trace` — [`FrontOp`]s (an op plus its private-L1 outcome) and
//!   their compact binary codec, one record per L1 miss and one per
//!   run of L1 hits ([`Hits`]), and the interval [`SamplingPlan`] of
//!   the paper's characterisation (§2.2).

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

mod access;
mod address;
mod dram;
mod shift;
mod state;
mod trace;

pub use access::{Access, AccessKind, CoreOp, OpStream, VecStream};
pub use address::{tag_bits, Addr, BlockAddr, Geometry};
pub use dram::{Dram, DramConfig, DramStats};
pub use shift::{ShiftDirective, StreamShift};
pub use state::{put_count, put_f64, put_u16, put_u32, put_u64, StateError, StateReader};
pub use trace::{
    FrontDecoder, FrontEncoder, FrontOp, FrontRecord, Hits, IntervalClock, L1Outcome, SamplingPlan,
    TraceDecodeError, Victim, FRONT_RECORD_MAX, HIT_DEPTHS,
};
