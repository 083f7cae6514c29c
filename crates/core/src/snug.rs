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

use crate::chassis::{PeerHit, PrivateChassis};
use crate::gt::{GroupCase, GtVector};
use sim_cache::{CacheStats, Evicted, ShadowArray};
use sim_cmp::{
    ChipResources, L2Fill, L2Org, L2Outcome, SchemeEvent, SchemeEventKind, SystemConfig,
};
use sim_mem::BlockAddr;

/// SNUG configuration.
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
    /// Enable the index-bit flipping scheme (Fig. 8 case 2). Disabling
    /// reduces grouping to same-index only — the ablation of §3.2.
    pub flipping: bool,
    /// Number of low index bits eligible for flipping. The paper's
    /// scheme is 1 (one f bit per line); wider widths explore the
    /// future-work direction of more flexible grouping. Ignored when
    /// `flipping` is false.
    pub flip_width: u32,
    /// Drop shadow contents at each period boundary (off by default:
    /// the victim history stays warm, as a hardware array would).
    pub clear_shadows_each_period: bool,
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
            flip_width: 1,
            clear_shadows_each_period: false,
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
    pub fn period(&self) -> u64 {
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

/// SNUG-specific event counters (beyond [`CacheStats`]).
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

/// The SNUG organisation.
#[derive(Clone)]
pub struct Snug {
    chassis: PrivateChassis,
    cfg: SnugConfig,
    shadows: Vec<ShadowArray>,
    gt: Vec<GtVector>,
    stage: Stage,
    period_start: u64,
    next_peer: usize,
    events: SnugEvents,
    /// Buffered stage/G-T transitions for session probes (drained via
    /// [`L2Org::drain_events`]; bounded by the period count).
    event_log: Vec<SchemeEvent>,
}

impl Snug {
    /// Build SNUG for the given system and parameters.
    pub fn new(sys: SystemConfig, cfg: SnugConfig) -> Self {
        let sets = sys.l2_slice.num_sets as usize;
        let assoc = sys.l2_slice.assoc;
        let n = sys.num_cores;
        Snug {
            chassis: PrivateChassis::new(sys),
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
        }
    }

    /// Access to the underlying chassis (tests/diagnostics).
    pub fn chassis(&self) -> &PrivateChassis {
        &self.chassis
    }

    /// Current stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The latched G/T vector of one slice.
    pub fn gt(&self, core: usize) -> &GtVector {
        &self.gt[core]
    }

    /// SNUG-specific event counters.
    pub fn events(&self) -> SnugEvents {
        self.events
    }

    /// Advance the two-stage period machine to `now` (paper Fig. 5).
    fn advance_clock(&mut self, now: u64) {
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
                    for sh in &mut self.shadows {
                        if !self.cfg.continuous_sampling {
                            sh.reset_monitors();
                            sh.set_sampling(true);
                        }
                        if self.cfg.clear_shadows_each_period {
                            sh.clear_shadows();
                        }
                    }
                }
            }
        }
    }

    /// Retrieval probe per §3.2: each peer consults its G/T vector for
    /// the two adjacent entries; at most one unambiguous set per peer
    /// may be searched.
    fn effective_flip_width(&self) -> u32 {
        if self.cfg.flipping {
            self.cfg.flip_width.max(1)
        } else {
            0
        }
    }

    fn probe_peers(&self, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        let set = self.chassis.cfg.l2_slice.set_index(block);
        let n = self.chassis.num_cores();
        let w = self.effective_flip_width();
        for j in (0..n).filter(|&j| j != owner) {
            let probe_set = match self.gt[j].group_case_wide(set, w) {
                GroupCase::SameIndex => set,
                #[expect(
                    clippy::expect_used,
                    reason = "FlippedIndex is only returned when the flip partner exists in the group table"
                )]
                GroupCase::FlippedIndex => self.gt[j].flip_partner(set, w).expect("partner exists"),
                GroupCase::NoMatch => continue,
            };
            if self.chassis.probe_cc_in_set(j, probe_set, block) {
                return Some(PeerHit {
                    peer: j,
                    set: probe_set,
                });
            }
        }
        None
    }

    /// Handle a local victim (paper §3.2 + §3.3): owned victims always
    /// leave their tag in the shadow set; dirty ones go to the write
    /// buffer; clean ones spill if the evicting set is a taker and a
    /// peer giver set exists (Stage II only).
    fn handle_victim(&mut self, core: usize, ev: Evicted, now: u64, res: &mut ChipResources<'_>) {
        if ev.flags.cc {
            return; // one-chance: an evicted received line is dropped
        }
        let set = self.chassis.cfg.l2_slice.set_index(ev.block);
        self.shadows[core].on_owned_eviction(set, ev.block);
        if ev.flags.dirty {
            self.chassis.retire_victim(core, ev, now, res);
            return;
        }
        if self.stage != Stage::Grouped || !self.gt[core].is_taker(set) {
            return;
        }
        // First responder: round-robin over peers, Fig. 8 cases.
        let n = self.chassis.num_cores();
        let start = self.next_peer;
        let w = self.effective_flip_width();
        for k in 0..n {
            let j = (start + k) % n;
            if j == core {
                continue;
            }
            let (target_set, flipped) = match self.gt[j].group_case_wide(set, w) {
                GroupCase::SameIndex => (set, false),
                #[expect(
                    clippy::expect_used,
                    reason = "FlippedIndex is only returned when the flip partner exists in the group table"
                )]
                GroupCase::FlippedIndex => (
                    self.gt[j].flip_partner(set, w).expect("partner exists"),
                    true,
                ),
                GroupCase::NoMatch => continue,
            };
            self.next_peer = (j + 1) % n;
            if flipped {
                self.events.spills_flipped += 1;
            } else {
                self.events.spills_same_index += 1;
            }
            self.chassis.charge_spill_transfer(now, res);
            self.chassis
                .receive_spill(core, j, target_set, ev.block, flipped, now, res);
            return;
        }
        self.events.spills_unplaced += 1;
    }
}

impl L2Org for Snug {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        self.advance_clock(now);
        self.chassis.drain_write_buffers(now, res);
        let set = self.chassis.cfg.l2_slice.set_index(block);
        if self.chassis.local_access(core, block, is_write).is_some() {
            self.shadows[core].on_real_hit(set);
            return L2Outcome {
                latency: self.chassis.cfg.l2_local_latency,
                fill: L2Fill::LocalHit,
            };
        }
        self.chassis.slices[core].stats_mut().misses += 1;
        // Shadow lookup: a hit means the block was recently evicted from
        // this very set — it is about to re-enter the real set, so the
        // entry is invalidated (exclusivity) and the monitor credited.
        if self.shadows[core].on_real_miss(set, block) {
            self.chassis.slices[core].stats_mut().shadow_hits += 1;
        }
        if let Some(ev) = self.chassis.write_buffer_read(core, block, is_write) {
            if let Some(ev) = ev {
                self.handle_victim(core, ev, now, res);
            }
            return L2Outcome {
                latency: self.chassis.cfg.l2_local_latency,
                fill: L2Fill::WriteBufferHit,
            };
        }
        if let Some(hit) = self.probe_peers(core, block) {
            let latency =
                self.chassis
                    .peer_hit_latency(now, self.chassis.cfg.snug_remote_latency, res);
            self.chassis.forward_from_peer(core, hit, block);
            if let Some(ev) = self.chassis.fill_local(core, block, is_write) {
                self.handle_victim(core, ev, now, res);
            }
            return L2Outcome {
                latency,
                fill: L2Fill::RemoteHit,
            };
        }
        // Off-chip. Any stranded CC copy (unreachable because the G/T
        // vector changed since it was spilled) is silently invalidated by
        // the snoop so the single-copy invariant holds after the refill.
        let stranded =
            self.chassis
                .invalidate_cc_copies_wide(core, block, self.effective_flip_width().max(1));
        self.events.stranded_invalidated += stranded as u64;
        let latency = self.chassis.dram_fill_latency(now, res);
        if let Some(ev) = self.chassis.fill_local(core, block, is_write) {
            self.handle_victim(core, ev, now, res);
        }
        L2Outcome {
            latency,
            fill: L2Fill::Dram,
        }
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        self.chassis.l1_writeback(core, block, now, res);
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        self.chassis.slices[core].stats()
    }

    fn num_cores(&self) -> usize {
        self.chassis.num_cores()
    }

    fn name(&self) -> &'static str {
        "SNUG"
    }

    fn reset_stats(&mut self) {
        self.chassis.reset_stats();
        self.events = SnugEvents::default();
        // `event_log` deliberately survives: it is a transition log for
        // probes, not a statistic — clearing it here would drop any
        // stage/G-T event that fired between the last probe drain and
        // the warm-up boundary from recorded traces.
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        Box::new(self.clone())
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        std::mem::take(&mut self.event_log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig};
    use sim_mem::{Dram, DramConfig};

    fn tiny_cfg() -> SnugConfig {
        SnugConfig {
            counter_bits: 4,
            p: 8,
            stage1_cycles: 10_000,
            stage2_cycles: 200_000,
            flipping: true,
            flip_width: 1,
            clear_shadows_each_period: false,
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
        assert_eq!(org.stage(), Stage::Identify);
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
        assert_eq!(org.stage(), Stage::Identify);
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
        assert_eq!(org.stage(), Stage::Grouped);
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
        assert_eq!(org.stage(), Stage::Grouped);
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
        assert_eq!(org.stage(), Stage::Identify);
        org.access(0, BlockAddr(32), false, 15_000, &mut res);
        assert_eq!(org.stage(), Stage::Grouped);
        org.access(0, BlockAddr(48), false, 211_000, &mut res);
        assert_eq!(org.stage(), Stage::Identify, "next period began");
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

    #[test]
    fn scaled_config_preserves_ratio() {
        let c = SnugConfig::scaled(100);
        assert_eq!(c.stage1_cycles, 50_000);
        assert_eq!(c.stage2_cycles, 1_000_000);
        assert_eq!(SnugConfig::paper().period(), 105_000_000);
    }
}
