//! The interface every L2 organisation implements.
//!
//! `sim-cmp` drives the cores, L1 caches, bus and DRAM; the five L2
//! organisations compared in the paper (L2P, L2S, CC, DSR, SNUG — built
//! in the `snug-core` crate) plug in behind [`L2Org`].

use crate::bus::Bus;
use sim_cache::CacheStats;
use sim_mem::{BlockAddr, Dram};

/// Chip-shared resources handed to the L2 organisation on every access.
pub struct ChipResources<'a> {
    /// The snoop bus.
    pub bus: &'a mut Bus,
    /// The DRAM channel.
    pub dram: &'a mut Dram,
}

/// How an L2 demand access was satisfied (for classification and
/// latency attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2Fill {
    /// Hit in the core's own L2 slice (or local L2S bank).
    LocalHit,
    /// Hit in a peer slice / remote bank; block transferred cross-chip.
    RemoteHit,
    /// Satisfied by a direct read from the local write buffer.
    WriteBufferHit,
    /// Missed on chip entirely; fetched from DRAM.
    Dram,
}

/// Result of one L2 demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Outcome {
    /// Total latency below L1 (cycles from request to data).
    pub latency: u64,
    /// Where the data came from.
    pub fill: L2Fill,
}

/// What kind of scheme-side event fired (see [`SchemeEvent`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeEventKind {
    /// A staged scheme began a new identification/sampling stage (for
    /// SNUG: a new sampling period started and monitors are counting).
    IdentifyBegin,
    /// A staged scheme latched fresh policy state and entered grouped
    /// operation (for SNUG: G/T vectors relatched from the monitors).
    GroupedBegin,
}

/// A discrete scheme-side event surfaced to session probes.
///
/// The five organisations evolve internal policy state (SNUG's two-stage
/// period machine, DSR's duel) that per-access statistics cannot show.
/// Schemes buffer these transitions and the driving [`crate::SimSession`]
/// drains them into the probe time series, so a trace can line IPC and
/// spill behaviour up against stage boundaries and G/T relatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemeEvent {
    /// The cycle at which the transition took effect (stage boundary).
    pub cycle: u64,
    /// What happened.
    pub kind: SchemeEventKind,
    /// Per-core taker-set counts latched with the event (empty when the
    /// event carries no G/T information).
    pub takers: Vec<u32>,
}

/// An L2 cache organisation for the whole chip.
///
/// Implementations own all L2 state (slices or banks, write buffers,
/// shadow structures, policy counters) and are responsible for their own
/// DRAM/bus traffic through [`ChipResources`]. Time is supplied by the
/// caller as the requesting core's local cycle; the simulator guarantees
/// the value is globally non-decreasing across calls.
pub trait L2Org {
    /// A demand access from `core` for `block` at time `now` (an L1
    /// miss). Returns the latency and fill classification; all internal
    /// state (fills, evictions, spills, monitors) is updated.
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome;

    /// A dirty writeback from `core`'s L1 for `block` (not a demand
    /// access: no allocation, no monitor updates). Default: mark the
    /// line dirty if present, otherwise forward to the write-back path.
    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>);

    /// Stats for one core's slice (for L2S: attributed to the core's
    /// requests rather than a physical slice).
    fn slice_stats(&self, core: usize) -> &CacheStats;

    /// Aggregate stats over the whole organisation.
    fn aggregate_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in 0..self.num_cores() {
            total.merge(self.slice_stats(c));
        }
        total
    }

    /// Number of cores/slices.
    fn num_cores(&self) -> usize;

    /// Scheme name for reports ("L2P", "L2S", "CC", "DSR", "SNUG").
    fn name(&self) -> &'static str;

    /// Reset statistics at the end of warm-up (cache contents retained).
    fn reset_stats(&mut self);

    /// Deep-copy this organisation behind a fresh box. Every scheme
    /// owns plain-data state, so this is a straight clone.
    fn clone_dyn(&self) -> Box<dyn L2Org>;

    /// Drain buffered scheme-side events (stage transitions, policy
    /// relatches) accumulated since the last drain. Organisations
    /// without staged policy state return nothing.
    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BusConfig;
    use sim_mem::DramConfig;

    /// A trivial organisation used to exercise the trait's defaults.
    #[derive(Clone)]
    struct NullOrg {
        stats: Vec<CacheStats>,
    }

    impl L2Org for NullOrg {
        fn access(
            &mut self,
            core: usize,
            _block: BlockAddr,
            _is_write: bool,
            now: u64,
            res: &mut ChipResources<'_>,
        ) -> L2Outcome {
            self.stats[core].misses += 1;
            let done = res.dram.read(now);
            L2Outcome {
                latency: done - now,
                fill: L2Fill::Dram,
            }
        }

        fn writeback(
            &mut self,
            _core: usize,
            _block: BlockAddr,
            now: u64,
            res: &mut ChipResources<'_>,
        ) {
            res.dram.write(now);
        }

        fn slice_stats(&self, core: usize) -> &CacheStats {
            &self.stats[core]
        }

        fn num_cores(&self) -> usize {
            self.stats.len()
        }

        fn name(&self) -> &'static str {
            "null"
        }

        fn reset_stats(&mut self) {
            self.stats.iter_mut().for_each(|s| s.reset());
        }

        fn clone_dyn(&self) -> Box<dyn L2Org> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn aggregate_stats_merges_slices() {
        let mut org = NullOrg {
            stats: vec![CacheStats::default(); 2],
        };
        let mut bus = Bus::new(BusConfig::paper());
        let mut dram = Dram::new(DramConfig::uncontended(300));
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let out = org.access(0, BlockAddr(1), false, 0, &mut res);
        assert_eq!(out.latency, 300);
        org.access(1, BlockAddr(2), false, 0, &mut res);
        assert_eq!(org.aggregate_stats().misses, 2);
        org.reset_stats();
        assert_eq!(org.aggregate_stats().misses, 0);
    }
}
