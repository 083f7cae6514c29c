//! Deterministic simulation counters — the sim-side half of the
//! observability layer.
//!
//! [`SimCounters`] is one flat block of event tallies covering every
//! layer of the simulated machine: per-level cache hit/miss, the L1 LRU
//! walk-depth histogram, L2Org dispatch counts, scheme relatch events,
//! bus and DRAM traffic, and core stall attribution. `sim-cmp`'s
//! `SimSession` assembles one per run and the harness renders
//! them as tables (`snug profile`) or a one-line summary (the
//! calibration examples).
//!
//! Counters are *observational by contract*: they are derived from the
//! retired op sequence and never feed back into timing, so they cannot
//! perturb simulation results (the session determinism suite pins
//! this).

use crate::table::Table;

/// Number of L1 LRU walk-depth histogram buckets. Depths are 1-based
/// stack positions; depth `WALK_DEPTH_BUCKETS` and deeper share the
/// last bucket, so any L1 associativity fits.
pub const WALK_DEPTH_BUCKETS: usize = 8;

/// A flat block of simulation event counters (see the module docs).
///
/// All fields are cumulative tallies over the measured window; a
/// session resets them alongside the component statistics at the
/// warm-up boundary. [`SimCounters::delta`] turns two cumulative
/// captures into an interval block (the per-sample form a probe trace
/// carries).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimCounters {
    /// Operations retired (one per `OpStream::next_op` executed).
    pub retired_ops: u64,
    /// L1 instruction-cache hits (summed over cores).
    pub l1i_hits: u64,
    /// L1 instruction-cache misses (summed over cores).
    pub l1i_misses: u64,
    /// L1 data-cache hits (summed over cores).
    pub l1d_hits: u64,
    /// L1 data-cache misses (summed over cores).
    pub l1d_misses: u64,
    /// Histogram of L1 hit LRU stack depths: bucket `i` counts hits at
    /// 1-based depth `i + 1`; the last bucket absorbs deeper hits.
    pub l1_walk_depths: [u64; WALK_DEPTH_BUCKETS],
    /// Aggregate L2 hits across the organisation's slices.
    pub l2_hits: u64,
    /// Aggregate L2 misses.
    pub l2_misses: u64,
    /// Hits on cooperatively-cached (spilled-in) lines.
    pub l2_cc_hits: u64,
    /// L2 evictions.
    pub l2_evictions: u64,
    /// L2 writebacks to memory.
    pub l2_writebacks: u64,
    /// Blocks spilled out to a peer slice.
    pub spills_out: u64,
    /// Blocks received as spills from a peer slice.
    pub spills_in: u64,
    /// Blocks forwarded between slices on a remote hit.
    pub forwards: u64,
    /// Misses satisfied by retrieving a spilled block from a peer.
    pub retrieved_from_peer: u64,
    /// Shadow-tag hits (monitoring structures).
    pub shadow_hits: u64,
    /// Misses satisfied from a write buffer.
    pub write_buffer_hits: u64,
    /// Demand accesses dispatched into the `L2Org` plug-in.
    pub org_accesses: u64,
    /// Dirty-victim writebacks dispatched into the `L2Org` plug-in.
    pub org_writebacks: u64,
    /// SNUG giver/taker relatch events (`GroupedBegin` transitions).
    pub relatches: u64,
    /// Scheme identify-stage transitions (`IdentifyBegin` events).
    pub identifies: u64,
    /// Snoop-bus address transactions.
    pub bus_address_transactions: u64,
    /// Snoop-bus data transactions.
    pub bus_data_transactions: u64,
    /// Cycles requests spent queueing for the bus.
    pub bus_queue_cycles: u64,
    /// DRAM demand reads.
    pub dram_reads: u64,
    /// DRAM writebacks.
    pub dram_writes: u64,
    /// Cycles requests spent queueing for the DRAM channel.
    pub dram_queue_cycles: u64,
    /// Core cycles stalled on a full ROB (summed over cores).
    pub core_rob_stall_cycles: u64,
    /// Core cycles stalled on MSHR exhaustion.
    pub core_mshr_stall_cycles: u64,
    /// Core cycles stalled on a dependent load.
    pub core_dep_stall_cycles: u64,
}

/// Every `(label, value)` pair of a counter block, in declaration
/// order, with the walk-depth histogram flattened to one entry per
/// bucket. The single source of truth for merge/delta arithmetic and
/// codec field lists.
macro_rules! for_each_field {
    ($self:ident, $other:ident, $op:expr) => {{
        let op = $op;
        op(&mut $self.retired_ops, $other.retired_ops);
        op(&mut $self.l1i_hits, $other.l1i_hits);
        op(&mut $self.l1i_misses, $other.l1i_misses);
        op(&mut $self.l1d_hits, $other.l1d_hits);
        op(&mut $self.l1d_misses, $other.l1d_misses);
        for i in 0..WALK_DEPTH_BUCKETS {
            op(&mut $self.l1_walk_depths[i], $other.l1_walk_depths[i]);
        }
        op(&mut $self.l2_hits, $other.l2_hits);
        op(&mut $self.l2_misses, $other.l2_misses);
        op(&mut $self.l2_cc_hits, $other.l2_cc_hits);
        op(&mut $self.l2_evictions, $other.l2_evictions);
        op(&mut $self.l2_writebacks, $other.l2_writebacks);
        op(&mut $self.spills_out, $other.spills_out);
        op(&mut $self.spills_in, $other.spills_in);
        op(&mut $self.forwards, $other.forwards);
        op(&mut $self.retrieved_from_peer, $other.retrieved_from_peer);
        op(&mut $self.shadow_hits, $other.shadow_hits);
        op(&mut $self.write_buffer_hits, $other.write_buffer_hits);
        op(&mut $self.org_accesses, $other.org_accesses);
        op(&mut $self.org_writebacks, $other.org_writebacks);
        op(&mut $self.relatches, $other.relatches);
        op(&mut $self.identifies, $other.identifies);
        op(
            &mut $self.bus_address_transactions,
            $other.bus_address_transactions,
        );
        op(
            &mut $self.bus_data_transactions,
            $other.bus_data_transactions,
        );
        op(&mut $self.bus_queue_cycles, $other.bus_queue_cycles);
        op(&mut $self.dram_reads, $other.dram_reads);
        op(&mut $self.dram_writes, $other.dram_writes);
        op(&mut $self.dram_queue_cycles, $other.dram_queue_cycles);
        op(
            &mut $self.core_rob_stall_cycles,
            $other.core_rob_stall_cycles,
        );
        op(
            &mut $self.core_mshr_stall_cycles,
            $other.core_mshr_stall_cycles,
        );
        op(
            &mut $self.core_dep_stall_cycles,
            $other.core_dep_stall_cycles,
        );
    }};
}

impl SimCounters {
    /// Add every counter of `other` into `self`.
    pub fn merge(&mut self, other: &SimCounters) {
        for_each_field!(self, other, |a: &mut u64, b: u64| *a += b);
    }

    /// Field-wise saturating difference: the interval block between two
    /// cumulative captures.
    pub fn delta(&self, earlier: &SimCounters) -> SimCounters {
        let mut d = *self;
        for_each_field!(d, earlier, |a: &mut u64, b: u64| *a = a.saturating_sub(b));
        d
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SimCounters::default()
    }

    /// Total L1 hits recorded in the walk-depth histogram.
    pub fn walk_samples(&self) -> u64 {
        self.l1_walk_depths.iter().sum()
    }

    /// Mean 1-based L1 hit stack depth (deep hits clamp at the last
    /// bucket); 0 when no hits were recorded.
    pub fn mean_walk_depth(&self) -> f64 {
        let samples = self.walk_samples();
        if samples == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .l1_walk_depths
            .iter()
            .enumerate()
            .map(|(i, &n)| (i as u64 + 1) * n)
            .sum();
        weighted as f64 / samples as f64
    }

    /// Per-level hit/miss table (L1I, L1D, L2).
    pub fn hit_miss_table(&self) -> Table {
        let mut t = Table::new(
            "Per-level hit/miss",
            vec!["level", "hits", "misses", "accesses", "hit rate"],
        );
        for (level, hits, misses) in [
            ("L1I", self.l1i_hits, self.l1i_misses),
            ("L1D", self.l1d_hits, self.l1d_misses),
            ("L2", self.l2_hits, self.l2_misses),
        ] {
            let accesses = hits + misses;
            let rate = if accesses == 0 {
                0.0
            } else {
                hits as f64 / accesses as f64
            };
            t.push_row(vec![
                level.to_string(),
                hits.to_string(),
                misses.to_string(),
                accesses.to_string(),
                format!("{:.1} %", rate * 100.0),
            ]);
        }
        t
    }

    /// Dispatch and traffic counts, normalised per 1k cycles of the
    /// given window.
    pub fn dispatch_table(&self, window_cycles: u64) -> Table {
        let mut t = Table::new(
            "Dispatch + traffic counts",
            vec!["counter", "count", "per 1k cycles"],
        );
        for (name, count) in [
            ("retired ops", self.retired_ops),
            ("L2Org accesses", self.org_accesses),
            ("L2Org writebacks", self.org_writebacks),
            ("bus address txns", self.bus_address_transactions),
            ("bus data txns", self.bus_data_transactions),
            ("dram reads", self.dram_reads),
            ("dram writes", self.dram_writes),
            ("spills out", self.spills_out),
            ("spills in", self.spills_in),
            ("retrieved from peer", self.retrieved_from_peer),
            ("shadow hits", self.shadow_hits),
            ("write-buffer hits", self.write_buffer_hits),
            ("scheme relatches", self.relatches),
            ("scheme identifies", self.identifies),
        ] {
            t.push_row(vec![
                name.to_string(),
                count.to_string(),
                per_1k(count, window_cycles),
            ]);
        }
        t
    }

    /// L1 LRU walk-depth histogram table (1-based stack depth of every
    /// L1 hit; the last row absorbs deeper hits).
    pub fn walk_depth_table(&self) -> Table {
        let samples = self.walk_samples();
        let mut t = Table::new(
            "L1 LRU walk-depth histogram",
            vec!["depth", "hits", "share"],
        );
        for (i, &n) in self.l1_walk_depths.iter().enumerate() {
            let depth = if i + 1 == WALK_DEPTH_BUCKETS {
                format!("{}+", i + 1)
            } else {
                (i + 1).to_string()
            };
            let share = if samples == 0 {
                0.0
            } else {
                n as f64 / samples as f64
            };
            t.push_row(vec![
                depth,
                n.to_string(),
                format!("{:.1} %", share * 100.0),
            ]);
        }
        t
    }

    /// Top cost centers: the stall/queue cycle pools ranked by size,
    /// each with its share of the window (per-core cycles for core
    /// stalls, channel cycles for queues).
    pub fn cost_center_table(&self, window_cycles: u64) -> Table {
        let mut centers = [
            ("core ROB stalls", self.core_rob_stall_cycles),
            ("core MSHR stalls", self.core_mshr_stall_cycles),
            ("core dependent-load stalls", self.core_dep_stall_cycles),
            ("bus queueing", self.bus_queue_cycles),
            ("dram queueing", self.dram_queue_cycles),
        ];
        centers.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut t = Table::new(
            "Top cost centers (stall + queue cycles)",
            vec!["cost center", "cycles", "% of window"],
        );
        for (name, cycles) in centers {
            let share = if window_cycles == 0 {
                0.0
            } else {
                cycles as f64 / window_cycles as f64
            };
            t.push_row(vec![
                name.to_string(),
                cycles.to_string(),
                format!("{:.1} %", share * 100.0),
            ]);
        }
        t
    }

    /// One-line cost summary for calibration runs and footers.
    pub fn summary(&self) -> String {
        let rate = |h: u64, m: u64| {
            let a = h + m;
            if a == 0 {
                0.0
            } else {
                h as f64 / a as f64 * 100.0
            }
        };
        format!(
            "retired {} ops · L1I {:.1} % / L1D {:.1} % / L2 {:.1} % hit · \
             {} bus txns · {} dram reqs · {} spills out · {} relatches",
            self.retired_ops,
            rate(self.l1i_hits, self.l1i_misses),
            rate(self.l1d_hits, self.l1d_misses),
            rate(self.l2_hits, self.l2_misses),
            self.bus_address_transactions + self.bus_data_transactions,
            self.dram_reads + self.dram_writes,
            self.spills_out,
            self.relatches,
        )
    }
}

/// Format `count / (cycles / 1000)` with one decimal; "-" for an empty
/// window.
fn per_1k(count: u64, window_cycles: u64) -> String {
    if window_cycles == 0 {
        "-".to_string()
    } else {
        format!("{:.1}", count as f64 * 1000.0 / window_cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SimCounters {
        let mut c = SimCounters {
            retired_ops: 100,
            l1i_hits: 60,
            l1i_misses: 4,
            l1d_hits: 30,
            l1d_misses: 6,
            l2_hits: 7,
            l2_misses: 3,
            org_accesses: 10,
            org_writebacks: 2,
            relatches: 1,
            bus_address_transactions: 5,
            dram_reads: 3,
            core_rob_stall_cycles: 40,
            ..SimCounters::default()
        };
        c.l1_walk_depths = [50, 20, 10, 5, 3, 1, 1, 0];
        c
    }

    #[test]
    fn merge_and_delta_are_inverse() {
        let a = sample();
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.retired_ops, 200);
        assert_eq!(b.l1_walk_depths[0], 100);
        assert_eq!(b.delta(&a), a);
        assert!(a.delta(&a).is_zero());
    }

    #[test]
    fn delta_saturates() {
        let a = SimCounters::default();
        let b = sample();
        assert!(a.delta(&b).is_zero(), "no underflow wrap");
    }

    #[test]
    fn walk_depth_stats() {
        let c = sample();
        assert_eq!(c.walk_samples(), 90);
        let mean = c.mean_walk_depth();
        assert!(mean > 1.0 && mean < 3.0, "shallow-heavy sample: {mean}");
        assert_eq!(SimCounters::default().mean_walk_depth(), 0.0);
    }

    #[test]
    fn tables_render() {
        let c = sample();
        let hm = c.hit_miss_table().to_markdown();
        assert!(hm.contains("L1D"));
        assert!(hm.contains("93.8 %"), "30/32 L1D hit rate: {hm}");
        let d = c.dispatch_table(1000);
        assert_eq!(d.rows[0][0], "retired ops");
        assert_eq!(d.rows[0][2], "100.0", "100 ops per 1k cycles");
        assert!(c.dispatch_table(0).to_csv().contains(",-"));
        let w = c.walk_depth_table();
        assert_eq!(w.len(), WALK_DEPTH_BUCKETS);
        assert!(w.to_markdown().contains("8+"));
        let cc = c.cost_center_table(100);
        assert_eq!(cc.rows[0][0], "core ROB stalls", "largest pool first");
        assert!(cc.to_markdown().contains("40.0 %"));
    }

    #[test]
    fn summary_is_compact() {
        let s = sample().summary();
        assert!(s.contains("retired 100 ops"));
        assert!(s.contains("L2 70.0 % hit"));
        assert!(s.contains("1 relatches"));
    }
}
