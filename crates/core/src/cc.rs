//! CC — Cooperative Caching (Chang & Sohi, ISCA'06), spill-probability
//! variant.
//!
//! Eviction-driven capacity sharing: whenever a clean owned line is
//! evicted, it is spilled with probability `p_spill` to a peer slice's
//! same-index set. The paper evaluates `p_spill ∈ {0, 25, 50, 75,
//! 100 %}` and reports the best as **CC(Best)** (§4.1); the sweep lives
//! in `snug-experiments`.
//!
//! Chang & Sohi's design recirculates a spilled block up to N times
//! (N-chance forwarding) before it leaves the chip; the SNUG paper's
//! baseline behaves as 1-chance. Both are supported via
//! [`Cc::with_chances`] — recirculation is tracked with a small per-line
//! hop budget held outside the cache arrays (hardware would reuse the
//! spilled block's message header).

use crate::chassis::{PeerHit, PrivateChassis};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_cache::{CacheStats, Evicted};
use sim_cmp::{ChipResources, L2Fill, L2Org, L2Outcome, SystemConfig};
use sim_mem::BlockAddr;

/// The CC organisation.
#[derive(Clone)]
pub struct Cc {
    chassis: PrivateChassis,
    /// Probability of spilling a clean owned victim.
    p_spill: f64,
    /// Round-robin receiver cursor (the "first responder" on a real bus
    /// is timing-dependent; round-robin is its deterministic stand-in).
    next_peer: usize,
    /// Maximum times one block may be re-spilled (N-chance forwarding).
    chances: u32,
    /// Remaining hop budget of blocks currently cooperatively cached
    /// (only tracked for blocks with more than zero hops left).
    /// BTreeMap: keyed access only today, but kernel state must stay
    /// iteration-order-safe if a future change walks it.
    hops_left: std::collections::BTreeMap<sim_mem::BlockAddr, u32>,
    rng: SmallRng,
}

impl Cc {
    /// Build CC with the given spill probability in [0, 1] and 1-chance
    /// forwarding (the SNUG paper's baseline).
    pub fn new(cfg: SystemConfig, p_spill: f64) -> Self {
        Self::with_chances(cfg, p_spill, 1)
    }

    /// Build CC with N-chance forwarding: a spilled block may be
    /// re-spilled on eviction until its hop budget is exhausted.
    pub fn with_chances(cfg: SystemConfig, p_spill: f64, chances: u32) -> Self {
        assert!((0.0..=1.0).contains(&p_spill));
        assert!(chances >= 1);
        Cc {
            chassis: PrivateChassis::new(cfg),
            p_spill,
            next_peer: 1,
            chances,
            hops_left: std::collections::BTreeMap::new(),
            rng: SmallRng::seed_from_u64(0xCC_5EED),
        }
    }

    /// The configured spill probability.
    pub fn spill_probability(&self) -> f64 {
        self.p_spill
    }

    /// Access to the underlying chassis (tests/diagnostics).
    pub fn chassis(&self) -> &PrivateChassis {
        &self.chassis
    }

    /// Probe all peers' same-index sets for `block`.
    fn probe_peers(&self, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        let set = self.chassis.cfg.l2_slice.set_index(block);
        let n = self.chassis.num_cores();
        (0..n)
            .filter(|&j| j != owner)
            .find(|&j| self.chassis.probe_cc_in_set(j, set, block))
            .map(|peer| PeerHit { peer, set })
    }

    /// Handle a local victim: dirty → write buffer; clean owned →
    /// probabilistic spill to the next peer; evicted CC lines re-spill
    /// while their N-chance hop budget lasts, then drop.
    fn handle_victim(&mut self, core: usize, ev: Evicted, now: u64, res: &mut ChipResources<'_>) {
        if ev.flags.cc {
            // Re-spill while the block has hops left (N-chance).
            match self.hops_left.remove(&ev.block) {
                Some(hops) if hops > 0 => self.spill(core, ev.block, hops - 1, now, res),
                _ => {}
            }
            return;
        }
        if ev.flags.dirty {
            self.chassis.retire_victim(core, ev, now, res);
            return;
        }
        if self.p_spill > 0.0 && self.rng.gen::<f64>() < self.p_spill {
            self.spill(core, ev.block, self.chances - 1, now, res);
        }
    }

    /// Place `block` in the next receiving peer with `hops` re-spills
    /// remaining.
    fn spill(
        &mut self,
        from: usize,
        block: sim_mem::BlockAddr,
        hops: u32,
        now: u64,
        res: &mut ChipResources<'_>,
    ) {
        let n = self.chassis.num_cores();
        let peer = if self.next_peer == from {
            (self.next_peer + 1) % n
        } else {
            self.next_peer
        };
        self.next_peer = (peer + 1) % n;
        let set = self.chassis.cfg.l2_slice.set_index(block);
        self.chassis.charge_spill_transfer(now, res);
        self.chassis
            .receive_spill(from, peer, set, block, false, now, res);
        if hops > 0 {
            self.hops_left.insert(block, hops);
        }
    }
}

impl L2Org for Cc {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        self.chassis.drain_write_buffers(now, res);
        if self.chassis.local_access(core, block, is_write).is_some() {
            return L2Outcome {
                latency: self.chassis.cfg.l2_local_latency,
                fill: L2Fill::LocalHit,
            };
        }
        self.chassis.slices[core].stats_mut().misses += 1;
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
                    .peer_hit_latency(now, self.chassis.cfg.l2_remote_latency, res);
            self.chassis.forward_from_peer(core, hit, block);
            self.hops_left.remove(&block);
            if let Some(ev) = self.chassis.fill_local(core, block, is_write) {
                self.handle_victim(core, ev, now, res);
            }
            return L2Outcome {
                latency,
                fill: L2Fill::RemoteHit,
            };
        }
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
        "CC"
    }

    fn reset_stats(&mut self) {
        self.chassis.reset_stats();
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig};
    use sim_mem::{Dram, DramConfig};

    fn res_pair() -> (Bus, Dram) {
        (
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    /// Drive enough conflicting fills through core 0's set `set` to force
    /// clean evictions (tiny_test slice: 16 sets, 4 ways).
    fn thrash_set(org: &mut Cc, set: u64, tags: u64, t: &mut u64, res: &mut ChipResources<'_>) {
        for tag in 0..tags {
            org.access(0, BlockAddr((tag << 4) | set), false, *t, res);
            *t += 500;
        }
    }

    #[test]
    fn full_spill_retains_victims_on_chip() {
        let mut org = Cc::new(SystemConfig::tiny_test(), 1.0);
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        thrash_set(&mut org, 3, 6, &mut t, &mut res); // 4-way: 2 clean spills
        assert_eq!(org.aggregate_stats().spills_out, 2);
        // The first victim (tag 0) should now be retrievable from a peer.
        let r = org.access(0, BlockAddr(3), false, t, &mut res);
        assert_eq!(r.fill, L2Fill::RemoteHit);
        assert_eq!(org.aggregate_stats().forwards, 1);
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn zero_spill_is_private() {
        let mut org = Cc::new(SystemConfig::tiny_test(), 0.0);
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        thrash_set(&mut org, 3, 12, &mut t, &mut res);
        assert_eq!(org.aggregate_stats().spills_out, 0);
        let r = org.access(0, BlockAddr(3), false, t, &mut res);
        assert_eq!(r.fill, L2Fill::Dram, "victim went off-chip");
    }

    #[test]
    fn forward_invalidates_peer_copy() {
        let mut org = Cc::new(SystemConfig::tiny_test(), 1.0);
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        thrash_set(&mut org, 1, 5, &mut t, &mut res);
        let spilled = BlockAddr(1); // tag 0, set 1 — first victim
        let r = org.access(0, spilled, false, t, &mut res);
        assert_eq!(r.fill, L2Fill::RemoteHit);
        t += 500;
        // Immediately accessing again: the block is now local.
        let r2 = org.access(0, spilled, false, t, &mut res);
        assert_eq!(r2.fill, L2Fill::LocalHit);
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn spilled_line_evicted_again_is_dropped() {
        let mut org = Cc::new(SystemConfig::tiny_test(), 1.0);
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Spill tag0/set3 into a peer, then thrash that peer set with the
        // peer's own fills so the CC line is displaced.
        thrash_set(&mut org, 3, 5, &mut t, &mut res);
        let peers_with_cc: Vec<usize> = (0..4)
            .filter(|&j| org.chassis().slices[j].cc_lines() > 0)
            .collect();
        assert_eq!(peers_with_cc.len(), 1);
        let p = peers_with_cc[0];
        for tag in 100..105 {
            org.access(p, BlockAddr((tag << 4) | 3), false, t, &mut res);
            t += 500;
        }
        // CC copy displaced: block count on chip for tag0/set3 is zero.
        assert_eq!(org.chassis().slices[p].cc_lines(), 0);
        let r = org.access(0, BlockAddr(3), false, t, &mut res);
        assert_eq!(r.fill, L2Fill::Dram);
    }

    #[test]
    fn two_chance_respills_once_then_drops() {
        let mut org = Cc::with_chances(SystemConfig::tiny_test(), 1.0, 2);
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Spill tag0/set3 into peer 1, then displace it from peer 1 with
        // the peer's own traffic: with 2-chance it must hop onward and
        // remain retrievable.
        thrash_set(&mut org, 3, 5, &mut t, &mut res);
        let holder = (0..4)
            .find(|&j| org.chassis().slices[j].cc_lines() > 0)
            .unwrap();
        for tag in 200..205u64 {
            org.access(holder, BlockAddr((tag << 4) | 3), false, t, &mut res);
            t += 500;
        }
        // The displaced CC block hopped to another cache.
        let still_cached: usize = (0..4).map(|j| org.chassis().slices[j].cc_lines()).sum();
        assert!(still_cached >= 1, "2-chance kept the victim on chip");
        let r = org.access(0, BlockAddr(3), false, t, &mut res);
        assert_eq!(
            r.fill,
            L2Fill::RemoteHit,
            "block survived its second chance"
        );
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn one_chance_is_default() {
        let org = Cc::new(SystemConfig::tiny_test(), 1.0);
        assert_eq!(org.chances, 1);
    }

    #[test]
    fn spill_probability_scales_spill_count() {
        let (mut bus, mut dram) = res_pair();
        let mut counts = Vec::new();
        for &p in &[0.25, 0.75] {
            let mut org = Cc::new(SystemConfig::tiny_test(), p);
            let mut res = ChipResources {
                bus: &mut bus,
                dram: &mut dram,
            };
            let mut t = 0;
            for _round in 0..50u64 {
                thrash_set(&mut org, 2, 8, &mut t, &mut res);
            }
            counts.push(org.aggregate_stats().spills_out as f64);
        }
        assert!(counts[1] > counts[0] * 2.0, "spill counts {:?}", counts);
    }
}
