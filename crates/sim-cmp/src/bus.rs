//! The split-transaction snoop bus (paper Table 4: 16 B wide, 4:1 core
//! to bus speed ratio, 1-cycle arbitration).
//!
//! A split-transaction bus decouples the address/snoop network from the
//! data network: an address broadcast never waits behind a block
//! transfer. Each network is a channel with an availability horizon —
//! a transaction arbitrates (1 cycle), waits for its channel, then
//! occupies it for its beat count. Cross-chip block transfers (spills,
//! forwards) load the data network, so heavy spilling still creates
//! real contention — one of the costs cooperative caching must
//! amortise — but it does not serialise the snoops on the address
//! network.

use crate::config::BusConfig;

/// Bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Address-only transactions (snoops, retrieval probes).
    pub address_transactions: u64,
    /// Data transactions (block transfers).
    pub data_transactions: u64,
    /// Total core cycles transactions spent queued for the channel.
    pub queue_cycles: u64,
    /// Total core cycles of channel occupancy.
    pub busy_cycles: u64,
}

/// The snoop bus (split address + data networks).
#[derive(Debug, Clone)]
pub struct Bus {
    cfg: BusConfig,
    addr_free: u64,
    data_free: u64,
    stats: BusStats,
}

/// Completion times of one bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the transaction was granted the channel (after arbitration
    /// and queuing).
    pub granted_at: u64,
    /// When the last beat finished (data available at the destination).
    pub done_at: u64,
}

impl Bus {
    /// Create an idle bus.
    pub fn new(cfg: BusConfig) -> Self {
        Bus {
            cfg,
            addr_free: 0,
            data_free: 0,
            stats: BusStats::default(),
        }
    }

    /// Issue an address-only transaction (broadcast snoop / request) on
    /// the address network.
    pub fn address_transaction(&mut self, now: u64) -> BusGrant {
        self.stats.address_transactions += 1;
        let occupancy = self.cfg.address_cycles();
        let request = now + self.cfg.arbitration;
        let granted_at = request.max(self.addr_free);
        self.stats.queue_cycles += granted_at - request;
        self.stats.busy_cycles += occupancy;
        let done_at = granted_at + occupancy;
        self.addr_free = done_at;
        BusGrant {
            granted_at,
            done_at,
        }
    }

    /// Issue a data transaction moving one `block_bytes` line on the
    /// data network.
    pub fn data_transaction(&mut self, now: u64, block_bytes: u64) -> BusGrant {
        self.stats.data_transactions += 1;
        let occupancy = self.cfg.transfer_cycles(block_bytes);
        let request = now + self.cfg.arbitration;
        let granted_at = request.max(self.data_free);
        self.stats.queue_cycles += granted_at - request;
        self.stats.busy_cycles += occupancy;
        let done_at = granted_at + occupancy;
        self.data_free = done_at;
        BusGrant {
            granted_at,
            done_at,
        }
    }

    /// Statistics accessor.
    pub fn stats(&self) -> BusStats {
        self.stats
    }

    /// Reset statistics (warm-up boundary); timing horizon kept.
    pub(crate) fn reset_stats(&mut self) {
        self.stats = BusStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_bus() -> Bus {
        Bus::new(BusConfig::paper())
    }

    #[test]
    fn idle_bus_grants_after_arbitration() {
        let mut b = paper_bus();
        let g = b.address_transaction(100);
        assert_eq!(g.granted_at, 101, "1 cycle arbitration");
        assert_eq!(g.done_at, 105, "one beat at 4:1");
    }

    #[test]
    fn data_transaction_occupies_16_cycles() {
        let mut b = paper_bus();
        let g = b.data_transaction(0, 64);
        assert_eq!(g.done_at - g.granted_at, 16);
    }

    #[test]
    fn contention_queues_same_network_only() {
        let mut b = paper_bus();
        let g1 = b.data_transaction(0, 64);
        let g2 = b.data_transaction(0, 64);
        assert_eq!(
            g2.granted_at, g1.done_at,
            "second data txn waits for the data network"
        );
        assert!(b.stats().queue_cycles > 0);
        // The address network is independent (split transaction).
        let g3 = b.address_transaction(0);
        assert_eq!(
            g3.granted_at, 1,
            "snoop does not wait behind data transfers"
        );
    }

    #[test]
    fn stats_track_transaction_kinds() {
        let mut b = paper_bus();
        b.address_transaction(0);
        b.data_transaction(0, 64);
        b.data_transaction(0, 64);
        let s = b.stats();
        assert_eq!(s.address_transactions, 1);
        assert_eq!(s.data_transactions, 2);
        assert_eq!(s.busy_cycles, 4 + 16 + 16);
    }

    #[test]
    fn bus_frees_after_quiet_period() {
        let mut b = paper_bus();
        b.data_transaction(0, 64);
        // A much later transaction sees an idle bus.
        let g = b.address_transaction(1000);
        assert_eq!(g.granted_at, 1001);
        assert_eq!(b.stats().queue_cycles, 0);
    }
}
