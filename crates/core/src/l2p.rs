//! L2P — the private-L2 baseline (no capacity sharing).
//!
//! Each core owns a 1 MB slice; misses go straight to DRAM without a
//! snoop. All three evaluation figures are normalised to this
//! organisation.

use crate::chassis::{Private, PrivatePolicy};
use sim_cmp::SystemConfig;

/// The private baseline's policy: every hook keeps its no-op default.
#[derive(Debug, Clone, Copy, Default)]
pub struct L2pPolicy;

impl PrivatePolicy for L2pPolicy {
    const NAME: &'static str = "L2P";
    const DRAM_SNOOP: bool = false;
}

/// The private baseline.
pub type L2p = Private<L2pPolicy>;

impl L2p {
    /// Build the baseline for `cfg`.
    pub(crate) fn new(cfg: SystemConfig) -> Self {
        Private::with_policy(cfg, L2pPolicy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig, ChipResources, L2Fill, L2Org};
    use sim_mem::BlockAddr;
    use sim_mem::{Dram, DramConfig};

    fn res_pair() -> (Bus, Dram) {
        (
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    #[test]
    fn miss_then_hit() {
        let mut org = L2p::new(SystemConfig::tiny_test());
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = BlockAddr(0x123);
        let m = org.access(0, b, false, 0, &mut res);
        assert_eq!(m.fill, L2Fill::Dram);
        assert_eq!(m.latency, 300);
        let h = org.access(0, b, false, 400, &mut res);
        assert_eq!(h.fill, L2Fill::LocalHit);
        assert_eq!(h.latency, 10);
        assert_eq!(org.slice_stats(0).hits, 1);
        assert_eq!(org.slice_stats(0).misses, 1);
    }

    #[test]
    fn slices_are_isolated() {
        let mut org = L2p::new(SystemConfig::tiny_test());
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = BlockAddr(0x42);
        org.access(0, b, false, 0, &mut res);
        // Same block from core 1 must miss: no sharing in L2P.
        let m = org.access(1, b, false, 500, &mut res);
        assert_eq!(m.fill, L2Fill::Dram);
    }

    #[test]
    fn dirty_eviction_feeds_write_buffer_then_direct_read() {
        let cfg = SystemConfig::tiny_test(); // 16 sets, 4 ways
        let mut org = L2p::new(cfg);
        // Slow drain channel so buffered victims persist long enough to
        // be read back.
        let mut bus = Bus::new(BusConfig::paper());
        let mut dram = Dram::new(DramConfig {
            latency: 300,
            service_interval: 1_000_000,
        });
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let set = 7u64;
        let mk = |t: u64| BlockAddr((t << 4) | set);
        // Fill set 7 with dirty lines, then overflow it.
        let mut t_now = 0;
        for t in 0..4 {
            org.access(0, mk(t), true, t_now, &mut res);
            t_now += 400;
        }
        org.access(0, mk(4), false, t_now, &mut res); // evicts dirty mk(0)
        t_now += 400;
        let r = org.access(0, mk(0), false, t_now, &mut res);
        assert_eq!(
            r.fill,
            L2Fill::WriteBufferHit,
            "victim served from write buffer"
        );
        assert_eq!(r.latency, 10);
    }

    #[test]
    fn never_spills() {
        let mut org = L2p::new(SystemConfig::tiny_test());
        let (mut bus, mut dram) = res_pair();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let mut t = 0;
        for i in 0..200 {
            org.access(0, BlockAddr(i * 16), false, t, &mut res);
            t += 400;
        }
        assert_eq!(org.aggregate_stats().spills_out, 0);
        assert_eq!(org.aggregate_stats().spills_in, 0);
    }
}
