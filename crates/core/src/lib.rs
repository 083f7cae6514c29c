//! # snug-core — SNUG and the compared L2 organisations
//!
//! The paper's primary contribution and every organisation it is
//! evaluated against (§4.1):
//!
//! * `l2p` — the private baseline all figures normalise to;
//! * `l2s` — the shared, address-interleaved organisation (NUCA);
//! * `cc` — Cooperative Caching (Chang & Sohi) with a spill
//!   probability; the CC(Best) sweep lives in `snug-experiments`;
//! * `dsr` — Dynamic Spill-Receive (Qureshi), application-level set
//!   dueling;
//! * `snug` — the paper's Set-level Non-Uniformity identifier and
//!   Grouper: per-set shadow monitors, G/T vectors, two-stage sampling
//!   periods and the index-bit flipping grouping scheme;
//! * `gt` — G/T vectors and the Fig. 8 grouping cases;
//! * `chassis` — shared private-slice machinery (write buffers,
//!   latency composition, victim handling, coherence sweeps) and the one
//!   access path L2P, CC, DSR and SNUG run, each supplying only its
//!   [`PrivatePolicy`] hooks;
//! * `overhead` — the §3.4 storage-overhead arithmetic (Tables 2–3);
//! * `factory` — one constructor for all five schemes.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

mod cc;
mod chassis;
mod dsr;
mod factory;
mod gt;
mod l2p;
mod l2s;
mod overhead;
mod snug;

pub use cc::Cc;
pub use chassis::{PeerHit, Private, PrivateChassis, PrivatePolicy};
pub use dsr::{Dsr, DsrConfig};
pub use factory::{AnyOrg, SchemeSpec};
pub use gt::{GroupCase, GtVector};
pub use l2p::L2p;
pub use l2s::L2s;
pub use overhead::{table3, OverheadParams};
pub use snug::{Snug, SnugConfig, SnugEvents, Stage};
