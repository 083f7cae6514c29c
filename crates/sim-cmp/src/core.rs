//! Simplified out-of-order core timing model.
//!
//! The paper simulates full SimpleScalar OOO cores. For the reproduction
//! we use a latency-accounting model that preserves exactly the
//! properties the evaluation depends on:
//!
//! * issue bandwidth bounds IPC from above (8-wide);
//! * load misses overlap with independent work up to the ROB reach
//!   (memory-level parallelism), so a 10-cycle local L2 hit is largely
//!   hidden while a 300-cycle DRAM miss is largely exposed;
//! * a bounded number of misses may be in flight (MSHR/LSQ pressure);
//! * stores retire through buffers and do not stall the core.
//!
//! This makes per-core IPC a faithful monotone function of the L2
//! hit/miss profile — the quantity the paper's three metrics aggregate.

use crate::config::CoreConfig;
use std::collections::VecDeque;

/// An outstanding load miss: data arrives at `completes_at`; the core
/// must stall on it once it has run `rob_limit` instructions ahead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutstandingMiss {
    completes_at: u64,
    rob_limit: u64,
}

/// Per-core performance counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles stalled waiting on the ROB-reach limit.
    pub rob_stall_cycles: u64,
    /// Cycles stalled waiting for a free outstanding-miss slot.
    pub mshr_stall_cycles: u64,
    /// Cycles stalled on critical (dependent) load misses.
    pub dep_stall_cycles: u64,
    /// Load misses sent below L1.
    pub load_misses: u64,
}

/// The core timing model.
#[derive(Debug, Clone)]
pub(crate) struct CoreModel {
    cfg: CoreConfig,
    cycle: u64,
    instrs: u64,
    /// Sub-cycle issue debt: instructions issued this cycle so far.
    issue_slot: u32,
    outstanding: VecDeque<OutstandingMiss>,
    /// The ROB limit of the oldest outstanding miss (`u64::MAX` with
    /// none in flight): the one an `issue` checks first.
    rob_reach: u64,
    stats: CoreStats,
}

impl CoreModel {
    /// Create a core at cycle 0.
    pub(crate) fn new(cfg: CoreConfig) -> Self {
        CoreModel {
            cfg,
            cycle: 0,
            instrs: 0,
            issue_slot: 0,
            outstanding: VecDeque::with_capacity(cfg.max_outstanding),
            rob_reach: u64::MAX,
            stats: CoreStats::default(),
        }
    }

    /// Current core-local cycle.
    #[inline]
    pub(crate) fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Instructions retired so far.
    #[inline]
    pub(crate) fn instructions(&self) -> u64 {
        self.instrs
    }

    /// Instructions the core issues before it reaches the ROB limit of
    /// its oldest outstanding miss (`u64::MAX` with none in flight): an
    /// [`CoreModel::issue`] of fewer drains nothing, so its instructions
    /// only consume issue bandwidth.
    #[inline]
    pub(crate) fn rob_room(&self) -> u64 {
        self.rob_reach.saturating_sub(self.instrs)
    }

    /// Instructions that issue, below [`CoreModel::rob_room`], before
    /// the clock reaches `limit`: an op with at least that many ahead of
    /// it starts at or past `limit`.
    #[inline]
    pub(crate) fn slots_before(&self, limit: u64) -> u64 {
        limit
            .saturating_sub(self.cycle)
            .saturating_mul(u64::from(self.cfg.issue_width))
            .saturating_sub(u64::from(self.issue_slot))
    }

    /// Issue `n` instructions (the non-memory gap plus the memory op
    /// itself, or a run of L1 hits), consuming issue bandwidth and
    /// resolving any ROB-reach stalls caused by outstanding misses.
    pub(crate) fn issue(&mut self, n: u64) {
        // Drain outstanding misses whose ROB limit falls inside this run.
        let end_pos = self.instrs + n;
        if self.rob_reach <= end_pos {
            while let Some(&m) = self.outstanding.front() {
                if m.rob_limit <= end_pos {
                    if m.completes_at > self.cycle {
                        self.stats.rob_stall_cycles += m.completes_at - self.cycle;
                        self.cycle = m.completes_at;
                        self.issue_slot = 0;
                    }
                    self.outstanding.pop_front();
                } else {
                    break;
                }
            }
            self.rob_reach = self.oldest_rob_limit();
        }
        // Charge issue bandwidth. Issue widths are powers of two in every
        // shipped configuration; keep the hot path a shift/mask and fall
        // back to the division only for exotic widths.
        let total = self.issue_slot as u64 + n;
        let w = self.cfg.issue_width as u64;
        if w & (w - 1) == 0 {
            self.cycle += total >> w.trailing_zeros();
            #[expect(
                clippy::cast_possible_truncation,
                reason = "masked by w - 1, and issue_width is a u32"
            )]
            let slot = (total & (w - 1)) as u32;
            self.issue_slot = slot;
        } else {
            self.cycle += total / w;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "remainder is < w, and issue_width is a u32"
            )]
            let slot = (total % w) as u32;
            self.issue_slot = slot;
        }
        self.instrs = end_pos;
    }

    /// Record a load that completes at absolute time `completes_at`.
    /// If it completes in the past (cache hit already accounted in the
    /// latency) nothing is tracked. Otherwise it occupies an
    /// outstanding-miss slot; if all slots are busy the core stalls until
    /// the oldest miss returns.
    pub(crate) fn track_load(&mut self, completes_at: u64) {
        if completes_at <= self.cycle {
            return;
        }
        self.stats.load_misses += 1;
        if self.outstanding.len() == self.cfg.max_outstanding {
            #[expect(
                clippy::expect_used,
                reason = "guarded by len == max_outstanding, which is validated nonzero in SystemConfig"
            )]
            let oldest = self.outstanding.pop_front().expect("non-empty");
            if oldest.completes_at > self.cycle {
                self.stats.mshr_stall_cycles += oldest.completes_at - self.cycle;
                self.cycle = oldest.completes_at;
                self.issue_slot = 0;
            }
        }
        self.outstanding.push_back(OutstandingMiss {
            completes_at,
            rob_limit: self.instrs + self.cfg.rob_size,
        });
        self.rob_reach = self.oldest_rob_limit();
    }

    /// The ROB limit of the oldest outstanding miss, if any.
    fn oldest_rob_limit(&self) -> u64 {
        self.outstanding.front().map_or(u64::MAX, |m| m.rob_limit)
    }

    /// Serialise on a critical load: the core cannot proceed past a
    /// dependent miss (pointer chasing), so its full latency is exposed.
    pub(crate) fn stall_until(&mut self, completes_at: u64) {
        if completes_at > self.cycle {
            self.stats.dep_stall_cycles += completes_at - self.cycle;
            self.cycle = completes_at;
            self.issue_slot = 0;
        }
    }

    /// Stall counters.
    pub(crate) fn stats(&self) -> CoreStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CoreConfig {
        CoreConfig {
            issue_width: 4,
            rob_size: 16,
            max_outstanding: 2,
        }
    }

    #[test]
    fn issue_bandwidth_bounds_ipc() {
        let mut c = CoreModel::new(cfg());
        c.issue(400);
        assert_eq!(c.cycle(), 100, "4-wide: 400 instrs in 100 cycles");
    }

    #[test]
    fn partial_cycle_issue_accumulates() {
        let mut c = CoreModel::new(cfg());
        c.issue(2);
        assert_eq!(c.cycle(), 0, "half a cycle consumed");
        c.issue(2);
        assert_eq!(c.cycle(), 1);
    }

    #[test]
    fn short_latency_hidden_by_rob() {
        let mut c = CoreModel::new(cfg());
        c.issue(1);
        c.track_load(c.cycle() + 10); // completes at ~10
                                      // 16 instructions of ROB reach at width 4 = 4 cycles of cover;
                                      // the remaining ~6 cycles must be stalled when reach is exhausted.
        c.issue(16);
        // 10 cycles of stall, then 16 instructions at width 4.
        assert_eq!(
            c.cycle(),
            14,
            "stalled until the load returned, then issued"
        );
        assert!(c.stats().rob_stall_cycles > 0);
    }

    #[test]
    fn long_latency_mostly_exposed() {
        let mut c = CoreModel::new(cfg());
        c.issue(1);
        c.track_load(c.cycle() + 300);
        c.issue(16);
        assert_eq!(c.cycle(), 304, "300 cycles exposed + 4 issue cycles");
    }

    #[test]
    fn independent_misses_overlap() {
        let mut c = CoreModel::new(cfg());
        // Two misses issued close together both complete around t=300;
        // total time is ~300, not ~600 (MLP).
        c.issue(1);
        c.track_load(300);
        c.issue(1);
        c.track_load(302);
        c.issue(64);
        // Overlapped: ~302 stall + 16 issue cycles; serialised would be ~600.
        assert!(c.cycle() <= 320, "misses overlapped, got {}", c.cycle());
    }

    #[test]
    fn mshr_pressure_serialises_excess_misses() {
        let mut c = CoreModel::new(cfg()); // max_outstanding = 2
        c.track_load(100);
        c.track_load(100);
        // Third miss needs a slot: stalls until the first completes.
        c.track_load(400);
        assert_eq!(c.cycle(), 100);
        assert!(c.stats().mshr_stall_cycles > 0);
    }

    #[test]
    fn completed_loads_not_tracked() {
        let mut c = CoreModel::new(cfg());
        c.issue(100);
        c.track_load(c.cycle()); // already complete
        c.issue(1000);
        assert_eq!(c.stats().load_misses, 0);
        assert_eq!(c.stats().rob_stall_cycles, 0);
    }
}
