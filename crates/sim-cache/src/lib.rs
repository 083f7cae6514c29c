//! # sim-cache — cache substrate for the SNUG reproduction
//!
//! Building blocks for every cache structure in the paper's Table 4
//! hierarchy and for the characterisation of §2:
//!
//! * `lru` — true-LRU recency orders and deep tag stacks with
//!   stack-distance queries (Mattson stack property);
//! * `set` / `cache` — set-associative write-back caches whose lines
//!   carry the paper's `CC` and `f` bits (Fig. 4);
//! * `shadow` — the SNUG per-set shadow tag array and demand monitor
//!   (§3.1);
//! * `satcounter` — k-bit saturating counters, the modulo-p divider
//!   (Figs. 6–7) and DSR's PSEL;
//! * `writebuffer` — the 16-entry FIFO mergeable write-back buffer;
//! * `stack_dist` / `demand` — the capacity-demand quantification of
//!   Formulas (1)–(5) behind Figures 1–3;
//! * `stats` — per-cache event counters.

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

mod cache;
mod demand;
mod lru;
mod satcounter;
mod set;
mod shadow;
mod stack_dist;
mod stats;
mod writebuffer;

pub use cache::{AccessResult, SetAssocCache};
pub use demand::{block_required, BucketDistribution, DemandParams};
pub use lru::{LruOrder, TagStack};
pub use satcounter::{DemandMonitor, Psel};
pub use set::{CacheLine, Evicted, LineFlags, SetMut, SetRef};
pub use shadow::{ShadowArray, ShadowSet};
pub use stack_dist::{SetDemandProfiler, SetHistogram};
pub use stats::CacheStats;
pub use writebuffer::{PushOutcome, WriteBuffer};
