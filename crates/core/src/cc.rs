//! CC — Cooperative Caching (Chang & Sohi, ISCA'06), spill-probability
//! variant.
//!
//! Eviction-driven capacity sharing: whenever a clean owned line is
//! evicted, it is spilled with probability `p_spill` to a peer slice's
//! same-index set. The paper evaluates `p_spill ∈ {0, 25, 50, 75,
//! 100 %}` and reports the best as **CC(Best)** (§4.1); the sweep lives
//! in `snug-experiments`. Forwarding is 1-chance, as in the SNUG
//! paper's baseline: a spilled block evicted from its receiver leaves
//! the chip.

use crate::chassis::{PeerHit, Private, PrivateChassis, PrivatePolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_cmp::SystemConfig;
use sim_mem::BlockAddr;

/// CC's policy: same-index retrieval and probabilistic round-robin
/// spills.
#[derive(Clone)]
pub struct CcPolicy {
    /// Probability of spilling a clean owned victim.
    p_spill: f64,
    /// Round-robin receiver cursor (the "first responder" on a real bus
    /// is timing-dependent; round-robin is its deterministic stand-in).
    next_peer: usize,
    rng: SmallRng,
}

impl PrivatePolicy for CcPolicy {
    const NAME: &'static str = "CC";

    fn probe_peers(&self, ch: &PrivateChassis, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        ch.probe_same_index(owner, block)
    }

    fn spill_target(&mut self, ch: &PrivateChassis, core: usize, set: usize) -> Option<PeerHit> {
        let spill = self.p_spill > 0.0 && self.rng.gen::<f64>() < self.p_spill;
        if !spill {
            return None;
        }
        let n = ch.num_cores();
        let peer = if self.next_peer == core {
            (self.next_peer + 1) % n
        } else {
            self.next_peer
        };
        self.next_peer = (peer + 1) % n;
        Some(PeerHit { peer, set })
    }
}

/// The CC organisation.
pub type Cc = Private<CcPolicy>;

impl Cc {
    /// Build CC with the given spill probability in [0, 1].
    pub fn new(cfg: SystemConfig, p_spill: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_spill));
        Private::with_policy(
            cfg,
            CcPolicy {
                p_spill,
                next_peer: 1,
                rng: SmallRng::seed_from_u64(0xCC_5EED),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig, ChipResources, L2Fill, L2Org};
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
