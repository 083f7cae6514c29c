//! System configuration mirroring paper Table 4.

use sim_mem::{DramConfig, Geometry};

/// Core timing-model parameters (simplified out-of-order model; see
/// the `snug-workloads` crate docs for the substitution argument).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions issued per cycle (paper: 8-wide issue/commit).
    pub issue_width: u32,
    /// Reorder-buffer reach: how many instructions the core can run ahead
    /// of an outstanding load miss before stalling (paper: RUU = 128).
    pub rob_size: u64,
    /// Maximum simultaneously outstanding load misses (LSQ/MSHR bound;
    /// paper LSQ = 64, but misses in flight are effectively bounded lower).
    pub max_outstanding: usize,
}

impl CoreConfig {
    /// Table 4 values.
    pub(crate) fn paper() -> Self {
        CoreConfig {
            issue_width: 8,
            rob_size: 128,
            max_outstanding: 8,
        }
    }
}

/// Snoop-bus parameters (paper Table 4: 16 B-wide split-transaction bus,
/// 4:1 core-to-bus speed ratio, 1 cycle arbitration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Bus width in bytes.
    pub width_bytes: u64,
    /// Core cycles per bus cycle.
    pub speed_ratio: u64,
    /// Arbitration delay in core cycles.
    pub arbitration: u64,
}

impl BusConfig {
    /// Table 4 values.
    pub fn paper() -> Self {
        BusConfig {
            width_bytes: 16,
            speed_ratio: 4,
            arbitration: 1,
        }
    }

    /// Core cycles to move one `block_bytes` line over the bus.
    pub(crate) fn transfer_cycles(&self, block_bytes: u64) -> u64 {
        let beats = block_bytes.div_ceil(self.width_bytes);
        beats * self.speed_ratio
    }

    /// Core cycles for an address-only transaction (one beat).
    pub(crate) fn address_cycles(&self) -> u64 {
        self.speed_ratio
    }
}

/// Full system configuration (paper Table 4). Every field feeds every
/// content key, through an exhaustive encoder in the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of cores (paper: 4).
    pub num_cores: usize,
    /// L1 data/instruction cache geometry (32 KB, 4-way, 64 B).
    pub l1: Geometry,
    /// One private L2 slice (1 MB, 16-way, 64 B).
    pub l2_slice: Geometry,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// Local L2 hit latency (10 cycles).
    pub l2_local_latency: u64,
    /// Remote L2 access latency for L2P/CC/DSR and remote L2S banks
    /// (30 cycles).
    pub l2_remote_latency: u64,
    /// Remote latency for SNUG (40 cycles — includes the G/T vector
    /// lookup penalty, §4.1).
    pub snug_remote_latency: u64,
    /// Core model.
    pub core: CoreConfig,
    /// Bus model.
    pub bus: BusConfig,
    /// DRAM model.
    pub dram: DramConfig,
    /// L2 write-back buffer entries (16).
    pub write_buffer_entries: usize,
}

impl SystemConfig {
    /// The paper's quad-core configuration (Table 4).
    pub fn paper() -> Self {
        SystemConfig {
            num_cores: 4,
            l1: Geometry::paper_l1(),
            l2_slice: Geometry::paper_l2(),
            l1_latency: 1,
            l2_local_latency: 10,
            l2_remote_latency: 30,
            snug_remote_latency: 40,
            core: CoreConfig::paper(),
            bus: BusConfig::paper(),
            dram: DramConfig::paper(),
            write_buffer_entries: 16,
        }
    }

    /// A miniature configuration for fast unit tests: same structure,
    /// tiny caches so interesting behaviour appears within a few hundred
    /// accesses.
    pub fn tiny_test() -> Self {
        SystemConfig {
            num_cores: 4,
            l1: Geometry::new(64, 4, 2),
            l2_slice: Geometry::new(64, 16, 4),
            l1_latency: 1,
            l2_local_latency: 10,
            l2_remote_latency: 30,
            snug_remote_latency: 40,
            core: CoreConfig {
                issue_width: 4,
                rob_size: 32,
                max_outstanding: 4,
            },
            bus: BusConfig::paper(),
            dram: DramConfig::uncontended(300),
            write_buffer_entries: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table4() {
        let c = SystemConfig::paper();
        assert_eq!(c.num_cores, 4);
        assert_eq!(c.l2_slice.capacity_bytes(), 1 << 20);
        assert_eq!(c.l2_local_latency, 10);
        assert_eq!(c.l2_remote_latency, 30);
        assert_eq!(c.snug_remote_latency, 40);
        assert_eq!(c.dram.latency, 300);
        assert_eq!(c.core.issue_width, 8);
        assert_eq!(c.bus.width_bytes, 16);
    }

    #[test]
    fn bus_transfer_cycles_for_64b_line() {
        let b = BusConfig::paper();
        // 64 B / 16 B = 4 beats × 4:1 ratio = 16 core cycles.
        assert_eq!(b.transfer_cycles(64), 16);
        assert_eq!(b.address_cycles(), 4);
    }

    #[test]
    fn bus_transfer_rounds_up() {
        let b = BusConfig::paper();
        assert_eq!(b.transfer_cycles(20), 8, "2 beats");
    }
}
