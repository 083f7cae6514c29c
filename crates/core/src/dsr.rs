//! DSR — Dynamic Spill-Receive (Qureshi, HPCA'09).
//!
//! Each private cache learns, via set dueling, whether it should act as
//! a **spiller** (its clean victims are retained in peer caches) or a
//! **receiver** (it donates capacity). A few *spiller-sample* sets always
//! spill and a few *receiver-sample* sets always receive; a per-cache
//! PSEL counter compares the off-chip miss rates of the two sample
//! populations, and follower sets adopt the winning policy.
//!
//! This is the application-level state of the art the paper compares
//! against: it exploits *application-level* asymmetry in capacity demand
//! but is blind to set-level non-uniformity (the gap SNUG targets).

use crate::chassis::{PeerHit, Private, PrivateChassis, PrivatePolicy};
use sim_cache::Psel;
use sim_cmp::SystemConfig;
use sim_mem::BlockAddr;

/// Role a set plays in the duel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetRole {
    /// Dedicated always-spill sample set.
    SpillSample,
    /// Dedicated always-receive sample set.
    ReceiveSample,
    /// Follower: adopts the PSEL-selected policy.
    Follower,
}

/// DSR configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsrConfig {
    /// One spiller-sample set every `sample_stride` sets (receiver
    /// samples are offset by half a stride). Qureshi uses 32 dueling
    /// sets per 1024-set cache → stride 32.
    pub sample_stride: usize,
    /// PSEL width in bits (Qureshi: 10).
    pub psel_bits: u32,
}

impl DsrConfig {
    /// Qureshi's published parameters.
    pub fn paper() -> Self {
        DsrConfig {
            sample_stride: 32,
            psel_bits: 10,
        }
    }

    /// Small-stride configuration for tiny test caches.
    pub fn tiny() -> Self {
        DsrConfig {
            sample_stride: 4,
            psel_bits: 6,
        }
    }
}

/// DSR's policy: per-cache PSEL duels steering round-robin spills to
/// receiving peers.
#[derive(Clone)]
pub struct DsrPolicy {
    cfg: DsrConfig,
    /// One PSEL counter per cache.
    psel: Vec<Psel>,
    next_peer: usize,
}

impl DsrPolicy {
    /// The duel role of `set` in cache `c`.
    ///
    /// Sample positions are staggered per cache (as in Qureshi's design)
    /// so one cache's spiller samples land on other caches' followers or
    /// receiver samples rather than their spiller samples.
    fn set_role(&self, c: usize, set: usize) -> SetRole {
        let s = self.cfg.sample_stride;
        let off = (c * s / self.psel.len()) % s;
        let r = set % s;
        if r == off {
            SetRole::SpillSample
        } else if r == (off + s / 2) % s {
            SetRole::ReceiveSample
        } else {
            SetRole::Follower
        }
    }

    /// Whether cache `c` currently acts as a spiller for its followers.
    ///
    /// Orientation: a DRAM-bound miss in a spiller-sample set increments
    /// PSEL, one in a receiver-sample set decrements it. Low PSEL ⇒
    /// spill-sample sets miss less ⇒ spilling pays for this cache.
    fn is_spiller(&self, c: usize) -> bool {
        !self.psel[c].high()
    }

    /// Whether set `set` of cache `c` may spill its victims.
    fn spills(&self, c: usize, set: usize) -> bool {
        match self.set_role(c, set) {
            SetRole::SpillSample => true,
            SetRole::ReceiveSample => false,
            SetRole::Follower => self.is_spiller(c),
        }
    }

    /// Whether set `set` of cache `c` accepts spilled blocks.
    fn receives(&self, c: usize, set: usize) -> bool {
        match self.set_role(c, set) {
            SetRole::SpillSample => false,
            SetRole::ReceiveSample => true,
            SetRole::Follower => !self.is_spiller(c),
        }
    }
}

impl PrivatePolicy for DsrPolicy {
    const NAME: &'static str = "DSR";

    fn probe_peers(&self, ch: &PrivateChassis, owner: usize, block: BlockAddr) -> Option<PeerHit> {
        ch.probe_same_index(owner, block)
    }

    /// Tally a DRAM-bound miss for the duel.
    fn before_dram_fill(
        &mut self,
        _ch: &mut PrivateChassis,
        core: usize,
        set: usize,
        _block: BlockAddr,
    ) {
        match self.set_role(core, set) {
            SetRole::SpillSample => self.psel[core].inc(),
            SetRole::ReceiveSample => self.psel[core].dec(),
            SetRole::Follower => {}
        }
    }

    /// Round-robin over the peers whose same-index set receives.
    fn spill_target(&mut self, _ch: &PrivateChassis, core: usize, set: usize) -> Option<PeerHit> {
        if !self.spills(core, set) {
            return None;
        }
        let n = self.psel.len();
        let start = self.next_peer;
        let peer = (0..n)
            .map(|k| (start + k) % n)
            .find(|&j| j != core && self.receives(j, set))?;
        self.next_peer = (peer + 1) % n;
        Some(PeerHit { peer, set })
    }
}

/// The DSR organisation.
pub type Dsr = Private<DsrPolicy>;

impl Dsr {
    /// Build DSR.
    pub fn new(sys: SystemConfig, cfg: DsrConfig) -> Self {
        assert!(cfg.sample_stride >= 2);
        let n = sys.num_cores;
        Private::with_policy(
            sys,
            DsrPolicy {
                cfg,
                psel: vec![Psel::new(cfg.psel_bits); n],
                next_peer: 1,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig, ChipResources, L2Fill, L2Org};
    use sim_mem::{Dram, DramConfig};

    fn mk() -> (Dsr, Bus, Dram) {
        (
            Dsr::new(SystemConfig::tiny_test(), DsrConfig::tiny()),
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    #[test]
    fn sample_roles_follow_stride_and_stagger() {
        let (org, _, _) = mk(); // stride 4 over 16 sets, offsets 0..3
        assert_eq!(org.policy.set_role(0, 0), SetRole::SpillSample);
        assert_eq!(org.policy.set_role(0, 2), SetRole::ReceiveSample);
        assert_eq!(org.policy.set_role(0, 1), SetRole::Follower);
        assert_eq!(org.policy.set_role(0, 4), SetRole::SpillSample);
        // Cache 1 is staggered by one set.
        assert_eq!(org.policy.set_role(1, 1), SetRole::SpillSample);
        assert_eq!(org.policy.set_role(1, 3), SetRole::ReceiveSample);
        // Cache 2's receiver sample coincides with cache 0's spiller one.
        assert_eq!(org.policy.set_role(2, 0), SetRole::ReceiveSample);
    }

    #[test]
    fn spill_sample_sets_always_spill() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Set 0 is a spiller sample; overflowing it must spill regardless
        // of PSEL.
        for tag in 0..6u64 {
            org.access(0, BlockAddr(tag << 4), false, t, &mut res);
            t += 500;
        }
        assert!(org.aggregate_stats().spills_out >= 2);
        // Set 0 is cache 2's receiver sample (stagger), so the victims
        // stayed on chip and the first one is retrievable.
        let r = org.access(0, BlockAddr(0), false, t, &mut res);
        assert_eq!(r.fill, L2Fill::RemoteHit);
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn receiver_sample_sets_accept_spills() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        // Set 2 is cache 0's receiver sample; DRAM misses there
        // decrement PSEL until cache 0's followers become spillers.
        for tag in 0..20u64 {
            org.access(0, BlockAddr((tag << 4) | 2), false, t, &mut res);
            t += 500;
        }
        assert!(
            org.policy.is_spiller(0),
            "receive-sample misses drove PSEL low"
        );
        // Peers' PSELs are untouched → midpoint → receivers.
        assert!(!org.policy.is_spiller(2));
        for tag in 0..6u64 {
            org.access(0, BlockAddr((tag << 4) | 1), false, t, &mut res);
            t += 500;
        }
        assert!(org.aggregate_stats().spills_in > 0);
        let r = org.access(0, BlockAddr(1), false, t, &mut res);
        assert_eq!(
            r.fill,
            L2Fill::RemoteHit,
            "victim retrieved from a receiver peer"
        );
        assert!(org.chassis().single_copy_invariant());
    }

    #[test]
    fn psel_orientation() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        assert!(!org.policy.is_spiller(0), "midpoint defaults to receiver");
        // DRAM misses in the spill-sample set push PSEL up (spilling
        // looks bad) → stays receiver.
        let mut t = 0;
        for tag in 200..230u64 {
            org.access(0, BlockAddr(tag << 4), false, t, &mut res);
            t += 500;
        }
        assert!(!org.policy.is_spiller(0));
    }
}
