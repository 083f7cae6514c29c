//! SNUG — Set-level Non-Uniformity identifier and Grouper (paper §3).
//!
//! The paper's contribution. Each private L2 slice carries:
//!
//! * a **shadow tag array** — one tag-only set per L2 set, holding the
//!   tags of locally evicted owned lines (strictly exclusive with the
//!   real set);
//! * a per-set **saturating counter** (+1 per shadow hit, −1 per `p`
//!   real-or-shadow hits) whose MSB says whether doubling the set's
//!   capacity would raise its hit rate by at least `1/p`;
//! * a **G/T vector** latched from those MSBs at the end of each
//!   Identification stage.
//!
//! Operation alternates between Stage I (identification, 5 M cycles:
//! monitors sample, incoming spills are refused, retrievals proceed
//! under the previous G/T vector) and Stage II (grouped operation,
//! 100 M cycles: taker sets spill; peers respond per the index-bit
//! flipping cases of Fig. 8).

use crate::chassis::{PeerHit, Private, PrivateChassis, PrivatePolicy};
use crate::gt::{GroupCase, GtVector};
use sim_cache::ShadowArray;
use sim_cmp::{SchemeEvent, SchemeEventKind, SystemConfig};
use sim_mem::BlockAddr;

/// SNUG configuration. Shadow tags persist across period boundaries,
/// as a hardware array's would. Every field feeds SNUG's content keys,
/// through an exhaustive encoder in the harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnugConfig {
    /// Saturating-counter width k in bits (paper: 4).
    pub counter_bits: u32,
    /// Hit-rate threshold denominator p (paper: 8 → threshold 1/8).
    pub p: u16,
    /// Stage I (identification) length in cycles (paper: 5 M).
    pub stage1_cycles: u64,
    /// Stage II (grouped operation) length in cycles (paper: 100 M).
    pub stage2_cycles: u64,
    /// Enable the index-bit flipping scheme (Fig. 8 case 2): a spilled
    /// block may sit at its home index or at home^1, with one f bit per
    /// line saying which. Disabling reduces grouping to same-index
    /// only — the ablation of §3.2.
    pub flipping: bool,
    /// Keep the demand monitors counting during Stage II as well,
    /// latching the full period's accumulation at each Stage I boundary.
    /// The paper freezes counters outside the 5 M-cycle identification
    /// stage; at that scale each set is sampled hundreds of times. A
    /// scaled-down simulation starves the monitors if it also freezes
    /// them, so scaled configurations sample continuously —
    /// identification fidelity is preserved, power modelling is not.
    pub continuous_sampling: bool,
}

impl SnugConfig {
    /// The paper's parameters (§3.4): k = 4, p = 8, 5 M + 100 M cycles.
    pub fn paper() -> Self {
        SnugConfig {
            counter_bits: 4,
            p: 8,
            stage1_cycles: 5_000_000,
            stage2_cycles: 100_000_000,
            flipping: true,
            continuous_sampling: false,
        }
    }

    /// The paper's parameters with the two stage lengths scaled down by
    /// `factor` (the reproduction runs far fewer cycles than the paper's
    /// 3 B-cycle simulations; the 1:20 stage ratio is preserved).
    /// Scaled configurations sample continuously to compensate for the
    /// shorter observation windows.
    pub fn scaled(factor: u64) -> Self {
        assert!(factor >= 1);
        let mut c = Self::paper();
        c.stage1_cycles = (c.stage1_cycles / factor).max(1);
        c.stage2_cycles = (c.stage2_cycles / factor).max(1);
        c.continuous_sampling = factor > 1;
        c
    }

    /// Length of one full sampling period.
    pub(crate) fn period(&self) -> u64 {
        self.stage1_cycles + self.stage2_cycles
    }
}

/// Which stage the SNUG period machine is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// G/T sets identification (monitors sampling, no incoming spills).
    Identify,
    /// Grouped spilling/receiving under the latched G/T vectors.
    Grouped,
}

/// SNUG-specific event counters (beyond [`sim_cache::CacheStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnugEvents {
    /// Completed sampling periods.
    pub periods: u64,
    /// Spills placed via Fig. 8 case 1 (same index).
    pub spills_same_index: u64,
    /// Spills placed via Fig. 8 case 2 (flipped index).
    pub spills_flipped: u64,
    /// Spill attempts that found no giver set in any peer (case 3
    /// everywhere).
    pub spills_unplaced: u64,
    /// Stranded CC copies invalidated on refetch (the G/T vector had
    /// moved on and made them unreachable for forwarding).
    pub stranded_invalidated: u64,
}

/// SNUG's policy: per-slice shadow tags and G/T vectors, the two-stage
/// period machine, and G/T-directed retrieval and spills.
#[derive(Clone)]
pub struct SnugPolicy {
    cfg: SnugConfig,
    shadows: Vec<ShadowArray>,
    gt: Vec<GtVector>,
    stage: Stage,
    period_start: u64,
    next_peer: usize,
    events: SnugEvents,
    /// Buffered stage/G-T transitions for session probes (drained via
    /// [`sim_cmp::L2Org::drain_events`]; bounded by the period count).
    event_log: Vec<SchemeEvent>,
}

impl SnugPolicy {
    /// Where `peer` would hold a block of home index `set`, per its G/T
    /// vector (Fig. 8): the same index, the flip partner, or nowhere.
    fn grouped(&self, peer: usize, set: usize) -> Option<PeerHit> {
        let set = match self.gt[peer].group_case(set, self.cfg.flipping) {
            GroupCase::SameIndex => set,
            GroupCase::FlippedIndex => set ^ 1,
            GroupCase::NoMatch => return None,
        };
        Some(PeerHit { peer, set })
    }
}

impl PrivatePolicy for SnugPolicy {
    const NAME: &'static str = "SNUG";

    fn remote_latency(cfg: &SystemConfig) -> u64 {
        cfg.snug_remote_latency
    }

    /// Advance the two-stage period machine to `now` (paper Fig. 5).
    fn advance(&mut self, now: u64) {
        loop {
            match self.stage {
                Stage::Identify => {
                    let boundary = self.period_start + self.cfg.stage1_cycles;
                    if now < boundary {
                        return;
                    }
                    // Latch fresh G/T vectors from the monitors. In paper
                    // mode the counters freeze for Stage II; in continuous
                    // mode they reset and keep counting, so the next latch
                    // reflects a full period of observation.
                    for (gt, sh) in self.gt.iter_mut().zip(self.shadows.iter_mut()) {
                        gt.latch(sh.latch_gt());
                        if self.cfg.continuous_sampling {
                            sh.reset_monitors();
                        } else {
                            sh.set_sampling(false);
                        }
                    }
                    self.stage = Stage::Grouped;
                    self.event_log.push(SchemeEvent {
                        cycle: boundary,
                        kind: SchemeEventKind::GroupedBegin,
                        takers: self.gt.iter().map(|gt| gt.taker_count() as u32).collect(),
                    });
                }
                Stage::Grouped => {
                    let boundary = self.period_start + self.cfg.period();
                    if now < boundary {
                        return;
                    }
                    self.period_start = boundary;
                    self.stage = Stage::Identify;
                    self.events.periods += 1;
                    self.event_log.push(SchemeEvent {
                        cycle: boundary,
                        kind: SchemeEventKind::IdentifyBegin,
                        takers: Vec::new(),
                    });
                    if !self.cfg.continuous_sampling {
                        for sh in &mut self.shadows {
                            sh.reset_monitors();
                            sh.set_sampling(true);
                        }
                    }
                }
            }
        }
    }

    fn on_hit(&mut self, core: usize, set: usize) {
        self.shadows[core].on_real_hit(set);
    }

    /// Shadow lookup: a hit means the block was recently evicted from
    /// this very set — it is about to re-enter the real set, so the
    /// entry is invalidated (exclusivity) and the monitor credited.
    fn on_miss(&mut self, ch: &mut PrivateChassis, core: usize, set: usize, block: BlockAddr) {
        if self.shadows[core].on_real_miss(set, block) {
            ch.slices[core].stats_mut().shadow_hits += 1;
        }
    }

    /// Retrieval probe per §3.2: each peer consults its G/T vector for
    /// the two adjacent entries; at most one unambiguous set per peer
    /// may be searched.
    fn probe_peers(&self, ch: &PrivateChassis, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        let set = ch.cfg.l2_slice.set_index(block);
        (0..ch.num_cores())
            .filter(|&j| j != owner)
            .filter_map(|peer| self.grouped(peer, set))
            .find(|hit| ch.probe_cc_in_set(hit.peer, hit.set, block))
    }

    /// Off-chip. Any stranded CC copy (unreachable because the G/T
    /// vector changed since it was spilled) is silently invalidated by
    /// the snoop so the single-copy invariant holds after the refill.
    fn before_dram_fill(
        &mut self,
        ch: &mut PrivateChassis,
        core: usize,
        _set: usize,
        block: BlockAddr,
    ) {
        let stranded = ch.invalidate_cc_copies(core, block);
        self.events.stranded_invalidated += stranded as u64;
    }

    /// Owned victims always leave their tag in the shadow set (§3.3).
    fn on_owned_eviction(&mut self, core: usize, set: usize, block: BlockAddr) {
        self.shadows[core].on_owned_eviction(set, block);
    }

    /// A clean victim spills if the evicting set is a taker and a peer
    /// giver set exists (Stage II only); first responder is round-robin
    /// over peers, per the Fig. 8 cases.
    fn spill_target(&mut self, ch: &PrivateChassis, core: usize, set: usize) -> Option<PeerHit> {
        if self.stage != Stage::Grouped || !self.gt[core].is_taker(set) {
            return None;
        }
        let n = ch.num_cores();
        let start = self.next_peer;
        let Some(to) = (0..n)
            .map(|k| (start + k) % n)
            .filter(|&j| j != core)
            .find_map(|peer| self.grouped(peer, set))
        else {
            self.events.spills_unplaced += 1;
            return None;
        };
        self.next_peer = (to.peer + 1) % n;
        if to.set == set {
            self.events.spills_same_index += 1;
        } else {
            self.events.spills_flipped += 1;
        }
        Some(to)
    }

    fn reset_stats(&mut self) {
        self.events = SnugEvents::default();
        // `event_log` deliberately survives: it is a transition log for
        // probes, not a statistic — clearing it here would drop any
        // stage/G-T event that fired between the last probe drain and
        // the warm-up boundary from recorded traces.
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        std::mem::take(&mut self.event_log)
    }
}

/// The SNUG organisation.
pub type Snug = Private<SnugPolicy>;

impl Snug {
    /// Build SNUG for the given system and parameters.
    pub fn new(sys: SystemConfig, cfg: SnugConfig) -> Self {
        let sets = sys.l2_slice.num_sets as usize;
        let assoc = sys.l2_slice.assoc;
        let n = sys.num_cores;
        Private::with_policy(
            sys,
            SnugPolicy {
                cfg,
                shadows: (0..n)
                    .map(|_| ShadowArray::new(sets, assoc, cfg.counter_bits, cfg.p))
                    .collect(),
                gt: (0..n).map(|_| GtVector::all_givers(sets)).collect(),
                stage: Stage::Identify,
                period_start: 0,
                next_peer: 1,
                events: SnugEvents::default(),
                event_log: Vec::new(),
            },
        )
    }

    /// The latched G/T vector of one slice.
    pub fn gt(&self, core: usize) -> &GtVector {
        &self.policy.gt[core]
    }

    /// SNUG-specific event counters.
    pub fn events(&self) -> SnugEvents {
        self.policy.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig, ChipResources, L2Org};
    use sim_mem::{Dram, DramConfig};

    fn tiny_cfg() -> SnugConfig {
        SnugConfig {
            counter_bits: 4,
            p: 8,
            stage1_cycles: 10_000,
            stage2_cycles: 200_000,
            flipping: true,
            continuous_sampling: false,
        }
    }

    fn mk() -> (Snug, Bus, Dram) {
        (
            Snug::new(SystemConfig::tiny_test(), tiny_cfg()),
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    /// Cyclic references over `d` tags in `set` from `core`. Tags are
    /// offset per core: multiprogrammed address spaces are disjoint.
    fn cycle_set(
        org: &mut Snug,
        core: usize,
        set: u64,
        d: u64,
        rounds: u64,
        t: &mut u64,
        res: &mut ChipResources<'_>,
    ) {
        for _ in 0..rounds {
            for tag in 0..d {
                let tag = tag + 1000 * core as u64;
                org.access(core, BlockAddr((tag << 4) | set), false, *t, res);
                *t += 50;
            }
        }
    }

    #[test]
    fn starts_in_identify_with_all_givers() {
        let (org, _, _) = mk();
        assert_eq!(org.policy.stage, Stage::Identify);
        assert_eq!(org.gt(0).taker_count(), 0);
    }

    #[test]
    fn no_spilling_during_identify() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Thrash within Stage I (t stays < 10_000).
        for tag in 0..8u64 {
            org.access(0, BlockAddr((tag << 4) | 3), false, t, &mut res);
            t += 100;
        }
        assert_eq!(org.policy.stage, Stage::Identify);
        assert_eq!(org.aggregate_stats().spills_out, 0);
    }

    #[test]
    fn thrashing_set_becomes_taker_after_stage1() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // d=6 > assoc=4: every re-reference is a shadow hit.
        cycle_set(&mut org, 0, 5, 6, 20, &mut t, &mut res);
        // Quiet set 2 gets real hits only.
        cycle_set(&mut org, 0, 2, 2, 30, &mut t, &mut res);
        assert!(t < 10_000, "still inside stage I budget");
        // Cross the stage boundary.
        org.access(0, BlockAddr(0x9999 << 4), false, 10_001, &mut res);
        assert_eq!(org.policy.stage, Stage::Grouped);
        assert!(org.gt(0).is_taker(5), "thrashing set latched as taker");
        assert!(org.gt(0).is_giver(2), "satisfied set latched as giver");
    }

    #[test]
    fn taker_spills_to_giver_after_identification() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // All cores: set 5 thrashes (→ taker), set 2 quiet (→ giver).
        for c in 0..4 {
            let mut tc = t;
            cycle_set(&mut org, c, 5, 6, 20, &mut tc, &mut res);
        }
        // Enter stage II.
        org.access(0, BlockAddr(0xAAAA << 4), false, 10_100, &mut res);
        assert_eq!(org.policy.stage, Stage::Grouped);
        t = 10_200;
        // Set 5 is taker in all caches; set 4 (= 5^1) was never touched →
        // giver → flipped-index spills must carry the traffic.
        cycle_set(&mut org, 0, 5, 6, 10, &mut t, &mut res);
        let ev = org.events();
        assert!(
            ev.spills_flipped > 0,
            "index-bit flipping found the giver neighbour"
        );
        assert_eq!(
            ev.spills_same_index, 0,
            "same-index sets are takers everywhere"
        );
        assert!(
            org.aggregate_stats().retrieved_from_peer > 0,
            "spilled victims got retrieved"
        );
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn flipping_disabled_blocks_case2() {
        let mut cfg = tiny_cfg();
        cfg.flipping = false;
        let mut org = Snug::new(SystemConfig::tiny_test(), cfg);
        let mut bus = Bus::new(BusConfig::paper());
        let mut dram = Dram::new(DramConfig::uncontended(300));
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        for c in 0..4 {
            let mut tc = t;
            cycle_set(&mut org, c, 5, 6, 20, &mut tc, &mut res);
        }
        t = 10_100;
        org.access(0, BlockAddr(0xAAAA << 4), false, t, &mut res);
        t += 100;
        cycle_set(&mut org, 0, 5, 6, 10, &mut t, &mut res);
        let ev = org.events();
        assert_eq!(ev.spills_flipped, 0);
        assert!(ev.spills_unplaced > 0, "case 3 everywhere without flipping");
    }

    #[test]
    fn period_machine_cycles() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        org.access(0, BlockAddr(16), false, 5, &mut res);
        assert_eq!(org.policy.stage, Stage::Identify);
        org.access(0, BlockAddr(32), false, 15_000, &mut res);
        assert_eq!(org.policy.stage, Stage::Grouped);
        org.access(0, BlockAddr(48), false, 211_000, &mut res);
        assert_eq!(org.policy.stage, Stage::Identify, "next period began");
        assert_eq!(org.events().periods, 1);
    }

    #[test]
    fn shadow_hits_counted_in_stats() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        cycle_set(&mut org, 0, 7, 6, 5, &mut t, &mut res);
        assert!(org.slice_stats(0).shadow_hits > 0);
    }

    #[test]
    fn giver_sets_do_not_spill() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Streaming through set 1: all-distinct tags → no shadow hits →
        // giver. Evictions must never spill even in stage II.
        for tag in 0..20u64 {
            org.access(0, BlockAddr((tag << 4) | 1), false, t, &mut res);
            t += 100;
        }
        org.access(0, BlockAddr(0xBBBB << 4), false, 10_100, &mut res);
        t = 10_200;
        for tag in 20..60u64 {
            org.access(0, BlockAddr((tag << 4) | 1), false, t, &mut res);
            t += 100;
        }
        assert_eq!(org.aggregate_stats().spills_out, 0);
    }

    /// An L1 writeback sweeps a stale CC copy from the flipped-index
    /// set as well as the home set: a copy spilled to peer 2's home^1
    /// set (Fig. 8 case 2) goes with the writeback that made it stale.
    #[test]
    fn writeback_sweeps_stale_copies_in_the_flipped_set() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let home = 5u64;
        let block = BlockAddr((7 << 4) | home);
        let flipped = (home ^ 1) as usize;
        org.chassis.slices[2].fill_in_set(flipped, block, sim_cache::LineFlags::received(true));
        assert_eq!(org.chassis.slices[2].cc_lines(), 1);
        org.writeback(0, block, 0, &mut res);
        assert_eq!(
            org.chassis.slices[2].cc_lines(),
            0,
            "stale copy at home^1 swept"
        );
    }

    #[test]
    fn scaled_config_preserves_ratio() {
        let c = SnugConfig::scaled(100);
        assert_eq!(c.stage1_cycles, 50_000);
        assert_eq!(c.stage2_cycles, 1_000_000);
        assert_eq!(SnugConfig::paper().period(), 105_000_000);
    }
}
