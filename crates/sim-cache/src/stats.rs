//! Per-cache event counters.

/// Counters maintained by every cache structure in the hierarchy.
///
/// Scheme-specific events (spills, receives, forwards, shadow activity)
/// are also counted here so that every L2 organisation reports through a
/// single type; organisations that never spill simply leave those fields
/// at zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit (including hits on cooperatively cached
    /// lines held locally).
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Subset of `hits` that hit on a CC (received) line.
    pub cc_hits: u64,
    /// Valid lines evicted by fills.
    pub evictions: u64,
    /// Dirty evictions handed to the write-back path.
    pub writebacks: u64,
    /// Clean owned victims spilled to a peer cache.
    pub spills_out: u64,
    /// Spilled blocks accepted from peers into this cache.
    pub spills_in: u64,
    /// Blocks forwarded to their owner on a retrieve request (each
    /// forward also invalidates the local copy).
    pub forwards: u64,
    /// Retrieve requests this cache issued that a peer satisfied.
    pub retrieved_from_peer: u64,
    /// Hits in the shadow tag array (SNUG monitor).
    pub shadow_hits: u64,
    /// Read hits satisfied directly from the write buffer.
    pub write_buffer_hits: u64,
}

impl CacheStats {
    /// Total demand accesses.
    #[inline]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in `[0, 1]`; 0 if no accesses.
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }

    /// Hit ratio in `[0, 1]`; 0 if no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.hits as f64 / a as f64
        }
    }

    /// Merge another stats block into this one (for aggregating slices).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.cc_hits += other.cc_hits;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.spills_out += other.spills_out;
        self.spills_in += other.spills_in;
        self.forwards += other.forwards;
        self.retrieved_from_peer += other.retrieved_from_peer;
        self.shadow_hits += other.shadow_hits;
        self.write_buffer_hits += other.write_buffer_hits;
    }

    /// Reset all counters (end of warm-up).
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_empty_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.hit_ratio(), 0.0);
    }

    #[test]
    fn ratios_sum_to_one() {
        let s = CacheStats {
            hits: 30,
            misses: 10,
            ..Default::default()
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert!((s.hit_ratio() - 0.75).abs() < 1e-12);
        assert_eq!(s.accesses(), 40);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = CacheStats {
            hits: 1,
            spills_out: 2,
            ..Default::default()
        };
        let b = CacheStats {
            hits: 3,
            spills_out: 4,
            shadow_hits: 5,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.hits, 4);
        assert_eq!(a.spills_out, 6);
        assert_eq!(a.shadow_hits, 5);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = CacheStats {
            hits: 9,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, CacheStats::default());
    }
}
