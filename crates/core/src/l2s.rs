//! L2S — the shared L2 organisation (address-interleaved banks).
//!
//! The whole 4 MB L2 is one shared cache, banked by low block-address
//! bits. Capacity sharing is implicit, but a request whose bank is not
//! the requester's local slice pays the NUCA remote latency plus
//! interconnect occupancy (paper §1, §4.1).
//!
//! Interconnect: a shared-L2 NUCA design uses a switched fabric with a
//! port per bank, not the coherence snoop bus (which L2S does not need —
//! there is a single copy of every line). We model one link per bank
//! with a per-transfer occupancy; contention arises only among requests
//! to the *same* bank.

use sim_cache::{CacheStats, LineFlags, SetAssocCache, WriteBuffer};
use sim_cmp::{ChipResources, L2Fill, L2Org, L2Outcome, SystemConfig};
use sim_mem::BlockAddr;

/// The shared-L2 organisation.
#[derive(Clone)]
pub struct L2s {
    cfg: SystemConfig,
    banks: Vec<SetAssocCache>,
    wbs: Vec<WriteBuffer>,
    /// Demand-access stats attributed to the requesting core.
    core_stats: Vec<CacheStats>,
    bank_bits: u32,
    /// Per-bank link availability horizon (crossbar port).
    link_free: Vec<u64>,
}

/// Cycles one block transfer occupies a bank port (the fabric is wider
/// and more parallel than the 16 B snoop bus).
const LINK_OCCUPANCY: u64 = 4;

impl L2s {
    /// Build the shared organisation: one bank per core, each with the
    /// private-slice geometry (same total capacity as L2P).
    pub(crate) fn new(cfg: SystemConfig) -> Self {
        let n = cfg.num_cores;
        assert!(
            n.is_power_of_two(),
            "bank interleaving requires a power-of-two bank count"
        );
        L2s {
            banks: (0..n).map(|_| SetAssocCache::new(cfg.l2_slice)).collect(),
            wbs: (0..n)
                .map(|_| WriteBuffer::new(cfg.write_buffer_entries))
                .collect(),
            core_stats: vec![CacheStats::default(); n],
            bank_bits: n.trailing_zeros(),
            link_free: vec![0; n],
            cfg,
        }
    }

    /// Acquire `bank`'s link at `now`: returns the queuing delay.
    fn link_delay(&mut self, bank: usize, now: u64) -> u64 {
        let start = now.max(self.link_free[bank]);
        self.link_free[bank] = start + LINK_OCCUPANCY;
        start - now
    }

    /// The bank a block maps to (low block-address bits).
    #[inline]
    pub(crate) fn bank_of(&self, block: BlockAddr) -> usize {
        (block.0 & ((1 << self.bank_bits) - 1)) as usize
    }

    /// The set within the bank (bits above the bank-select bits).
    #[inline]
    pub(crate) fn set_of(&self, block: BlockAddr) -> usize {
        ((block.0 >> self.bank_bits) & (self.cfg.l2_slice.num_sets - 1)) as usize
    }

    fn drain_write_buffers(&mut self, now: u64, res: &mut ChipResources<'_>) {
        let n = self.banks.len();
        let mut progressed = true;
        while progressed && res.dram.next_free() <= now {
            progressed = false;
            for b in 0..n {
                if res.dram.next_free() > now {
                    break;
                }
                if self.wbs[b].drain_one().is_some() {
                    res.dram.write(now);
                    progressed = true;
                }
            }
        }
    }

    /// Latency to reach `bank` from `core` with data transfer: local
    /// banks cost the local L2 latency, remote banks the NUCA remote
    /// latency plus any queuing on the bank's link.
    fn bank_latency(&mut self, core: usize, bank: usize, now: u64) -> u64 {
        if core == bank {
            self.cfg.l2_local_latency
        } else {
            let queue = self.link_delay(bank, now);
            self.cfg.l2_remote_latency + queue
        }
    }
}

impl L2Org for L2s {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        self.drain_write_buffers(now, res);
        let bank = self.bank_of(block);
        let set = self.set_of(block);
        if self.banks[bank]
            .touch_in_set(set, block, is_write)
            .is_some()
        {
            self.core_stats[core].hits += 1;
            let latency = self.bank_latency(core, bank, now);
            let fill = if core == bank {
                L2Fill::LocalHit
            } else {
                L2Fill::RemoteHit
            };
            return L2Outcome { latency, fill };
        }
        self.core_stats[core].misses += 1;
        if self.wbs[bank].direct_read(block) {
            self.wbs[bank].remove(block);
            self.core_stats[core].write_buffer_hits += 1;
            let ev = self.banks[bank].fill_in_set(set, block, LineFlags::owned(true));
            if let Some(ev) = ev {
                if ev.flags.dirty {
                    self.wbs[bank].push(ev.block);
                }
            }
            let latency = self.bank_latency(core, bank, now);
            return L2Outcome {
                latency,
                fill: L2Fill::WriteBufferHit,
            };
        }
        // Miss: fetch from DRAM; data returns to the bank then crosses to
        // the core if remote.
        let reach = if core == bank {
            0
        } else {
            self.link_delay(bank, now) + LINK_OCCUPANCY
        };
        let done = res.dram.read(now + reach);
        let latency = (done - now)
            + if core == bank {
                0
            } else {
                self.link_delay(bank, done) + LINK_OCCUPANCY
            };
        let ev = self.banks[bank].fill_in_set(set, block, LineFlags::owned(is_write));
        if let Some(ev) = ev {
            if ev.flags.dirty {
                self.core_stats[core].writebacks += 1;
                if self.wbs[bank].push(ev.block) == sim_cache::PushOutcome::Full {
                    self.wbs[bank].drain_one();
                    res.dram.write(now);
                    let _ = self.wbs[bank].push(ev.block);
                }
            }
        }
        L2Outcome {
            latency,
            fill: L2Fill::Dram,
        }
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        let bank = self.bank_of(block);
        let set = self.set_of(block);
        if core != bank {
            let _ = self.link_delay(bank, now);
        }
        if self.banks[bank].touch_in_set(set, block, true).is_none()
            && self.wbs[bank].push(block) == sim_cache::PushOutcome::Full
        {
            self.wbs[bank].drain_one();
            res.dram.write(now);
            let _ = self.wbs[bank].push(block);
        }
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        &self.core_stats[core]
    }

    fn num_cores(&self) -> usize {
        self.banks.len()
    }

    fn name(&self) -> &'static str {
        "L2S"
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        Box::new(self.clone())
    }

    fn reset_stats(&mut self) {
        for s in &mut self.core_stats {
            s.reset();
        }
        for b in &mut self.banks {
            b.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::{Bus, BusConfig};
    use sim_mem::{Dram, DramConfig};

    fn mk() -> (L2s, Bus, Dram) {
        (
            L2s::new(SystemConfig::tiny_test()),
            Bus::new(BusConfig::paper()),
            Dram::new(DramConfig::uncontended(300)),
        )
    }

    #[test]
    fn blocks_interleave_across_banks() {
        let (org, _, _) = mk();
        assert_eq!(org.bank_of(BlockAddr(0)), 0);
        assert_eq!(org.bank_of(BlockAddr(1)), 1);
        assert_eq!(org.bank_of(BlockAddr(2)), 2);
        assert_eq!(org.bank_of(BlockAddr(3)), 3);
        assert_eq!(org.bank_of(BlockAddr(4)), 0);
        assert_eq!(org.set_of(BlockAddr(4)), 1);
    }

    #[test]
    fn capacity_shared_between_cores() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let b = BlockAddr(5);
        org.access(0, b, false, 0, &mut res);
        // Another core hits the same shared line.
        let r = org.access(2, b, false, 500, &mut res);
        assert!(matches!(r.fill, L2Fill::LocalHit | L2Fill::RemoteHit));
        assert_eq!(org.slice_stats(2).hits, 1);
    }

    #[test]
    fn local_bank_cheaper_than_remote() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let local = BlockAddr(0); // bank 0
        let remote = BlockAddr(1); // bank 1
        org.access(0, local, false, 0, &mut res);
        org.access(0, remote, false, 1000, &mut res);
        let l = org.access(0, local, false, 2000, &mut res);
        let r = org.access(0, remote, false, 3000, &mut res);
        assert_eq!(l.latency, 10);
        assert!(r.latency >= 30, "NUCA penalty, got {}", r.latency);
    }

    #[test]
    fn remote_miss_costs_more_than_local_miss() {
        let (mut org, mut bus, mut dram) = mk();
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        let l = org.access(0, BlockAddr(0), false, 0, &mut res);
        let r = org.access(0, BlockAddr(1), false, 5000, &mut res);
        assert!(r.latency > l.latency);
    }

    #[test]
    fn dirty_eviction_buffered_per_bank() {
        let cfg = SystemConfig::tiny_test(); // 16 sets/bank, 4 ways
        let mut org = L2s::new(cfg);
        let mut bus = Bus::new(BusConfig::paper());
        // Slow drain channel so the buffered victim persists.
        let mut dram = Dram::new(DramConfig {
            latency: 300,
            service_interval: 1_000_000,
        });
        let mut res = ChipResources {
            bus: &mut bus,
            dram: &mut dram,
        };
        // 5 blocks in bank 0, set 0: block = tag << (4 bank-ish bits)...
        // set_of = (block >> 2) & 15 → block = tag << 6 keeps set 0, bank 0.
        let mut t = 0;
        for tag in 0..5u64 {
            org.access(0, BlockAddr(tag << 6), true, t, &mut res);
            t += 500;
        }
        // First block's dirty eviction is in the bank write buffer; a
        // re-read is a write-buffer hit.
        let r = org.access(0, BlockAddr(0), false, t, &mut res);
        assert_eq!(r.fill, L2Fill::WriteBufferHit);
    }
}
