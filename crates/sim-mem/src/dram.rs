//! Off-chip DRAM timing model.
//!
//! The paper (Table 4) charges a flat 300-cycle DRAM latency. On top of
//! that we model a service channel that can only begin one new request
//! every `service_interval` cycles, which creates realistic queuing when
//! several cores miss simultaneously (the precise quantity the paper's
//! schemes are trying to reduce).

/// Configuration of the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency from request issue to data return, in core cycles.
    pub latency: u64,
    /// Minimum spacing between successive request starts (channel
    /// occupancy), in core cycles. `0` disables contention modelling.
    pub service_interval: u64,
}

impl DramConfig {
    /// The paper's configuration: 300-cycle latency. The paper charges a
    /// flat DRAM latency; a small service interval keeps request ordering
    /// sane without making bandwidth the bottleneck.
    pub fn paper() -> Self {
        DramConfig {
            latency: 300,
            service_interval: 4,
        }
    }

    /// Contention-free DRAM (useful for unit tests with exact latencies).
    pub fn uncontended(latency: u64) -> Self {
        DramConfig {
            latency,
            service_interval: 0,
        }
    }
}

/// Counters exported by the DRAM model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Demand reads (fills).
    pub reads: u64,
    /// Writebacks drained from L2 write buffers.
    pub writes: u64,
    /// Total cycles requests spent waiting for the channel.
    pub queue_cycles: u64,
}

/// The DRAM channel. Requests are timestamped; the channel keeps a
/// `next_free` horizon to model occupancy.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    next_free: u64,
    stats: DramStats,
}

impl Dram {
    /// Create a DRAM channel with the given configuration.
    pub fn new(cfg: DramConfig) -> Self {
        Dram {
            cfg,
            next_free: 0,
            stats: DramStats::default(),
        }
    }

    /// Issue a demand read at time `now`; returns the completion time.
    pub fn read(&mut self, now: u64) -> u64 {
        self.stats.reads += 1;
        self.schedule(now)
    }

    /// Issue a writeback at time `now`; returns the completion time.
    /// Writebacks occupy the channel but nothing waits on their data.
    pub fn write(&mut self, now: u64) -> u64 {
        self.stats.writes += 1;
        self.schedule(now)
    }

    fn schedule(&mut self, now: u64) -> u64 {
        let start = now.max(self.next_free);
        self.stats.queue_cycles += start - now;
        self.next_free = start + self.cfg.service_interval;
        start + self.cfg.latency
    }

    /// When the channel next becomes free (for write-buffer drain pacing).
    pub fn next_free(&self) -> u64 {
        self.next_free
    }

    /// Statistics accessor.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Configuration accessor.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// Reset statistics (e.g. after warm-up) without disturbing timing state.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_read_returns_flat_latency() {
        let mut d = Dram::new(DramConfig::uncontended(300));
        assert_eq!(d.read(1000), 1300);
        assert_eq!(d.read(1000), 1300, "no service interval, no queuing");
        assert_eq!(d.stats().reads, 2);
        assert_eq!(d.stats().queue_cycles, 0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut d = Dram::new(DramConfig {
            latency: 300,
            service_interval: 16,
        });
        assert_eq!(d.read(0), 300);
        // Second request at the same instant waits for the channel.
        assert_eq!(d.read(0), 316);
        assert_eq!(d.stats().queue_cycles, 16);
    }

    #[test]
    fn writes_counted_separately() {
        let mut d = Dram::new(DramConfig::paper());
        d.write(0);
        d.read(100);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn reset_stats_keeps_timing() {
        let mut d = Dram::new(DramConfig {
            latency: 10,
            service_interval: 8,
        });
        d.read(0);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
        // next_free horizon survives the reset.
        assert_eq!(d.read(0), 18);
    }

    #[test]
    fn paper_config_matches_table4() {
        assert_eq!(DramConfig::paper().latency, 300);
    }
}
