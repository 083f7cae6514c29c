//! The SNUG shadow tag array and per-set capacity-demand monitor
//! (paper §3.1).
//!
//! Each L2 set has a corresponding *shadow set* with the same
//! associativity that retains the tags of locally evicted **owned**
//! lines. The shadow set is strictly exclusive with the real set: when a
//! formerly evicted block is referenced again, the matching shadow entry
//! is invalidated (the block re-enters the real set) and a shadow hit is
//! signalled to the per-set [`DemandMonitor`].
//!
//! A shadow hit means "this access would have hit if the set had roughly
//! twice its capacity" — the real set and shadow set together form the
//! two buckets of paper §3.1.2.

use crate::lru::LruOrder;
use crate::satcounter::DemandMonitor;
use crate::set::{probe_ways, INVALID_BLOCK};
use sim_mem::BlockAddr;

/// A tag-only set with its own LRU replacement.
///
/// Tags are stored as a flat `u64` run with the same all-ones sentinel
/// convention as the real sets (`crate::set::INVALID_BLOCK`), so the
/// probe is the branch-free compare loop shared with
/// [`crate::SetAssocCache`] rather than an `Option` walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowSet {
    tags: Vec<BlockAddr>,
    lru: LruOrder,
}

impl ShadowSet {
    /// Create an empty shadow set with `assoc` entries.
    pub fn new(assoc: usize) -> Self {
        ShadowSet {
            tags: vec![INVALID_BLOCK; assoc],
            lru: LruOrder::new(assoc),
        }
    }

    /// Whether `block`'s tag is present.
    #[inline]
    pub fn contains(&self, block: BlockAddr) -> bool {
        probe_ways(&self.tags, block).is_some()
    }

    /// Record the tag of a locally evicted owned line. Replaces the
    /// shadow-LRU entry when full. If the tag is somehow already present
    /// (it should not be, by exclusivity) it is refreshed instead.
    #[inline]
    pub fn insert(&mut self, block: BlockAddr) {
        if let Some(w) = probe_ways(&self.tags, block) {
            self.lru.touch(w);
            return;
        }
        let way = probe_ways(&self.tags, INVALID_BLOCK).unwrap_or_else(|| self.lru.lru_way());
        self.tags[way] = block;
        self.lru.touch(way);
    }

    /// Look up `block`; on a hit the entry is invalidated (the block is
    /// about to re-enter the real set) and `true` is returned.
    #[inline]
    pub fn lookup_invalidate(&mut self, block: BlockAddr) -> bool {
        match probe_ways(&self.tags, block) {
            Some(w) => {
                self.tags[w] = INVALID_BLOCK;
                self.lru.demote(w);
                true
            }
            None => false,
        }
    }

    /// Number of valid shadow entries.
    pub fn len(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID_BLOCK).count()
    }

    /// Whether the shadow set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The full per-slice monitor: one shadow set and one [`DemandMonitor`]
/// per L2 set.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowArray {
    sets: Vec<ShadowSet>,
    monitors: Vec<DemandMonitor>,
    /// Whether monitor counters are currently being updated (Stage I of
    /// the SNUG period). The shadow *contents* are maintained regardless
    /// so Stage I starts with a warm victim history.
    sampling: bool,
}

impl ShadowArray {
    /// Create a shadow array for `num_sets` sets of `assoc` ways, with
    /// monitor parameters `k` (counter bits) and `p` (threshold 1/p).
    pub fn new(num_sets: usize, assoc: usize, k: u32, p: u16) -> Self {
        ShadowArray {
            sets: (0..num_sets).map(|_| ShadowSet::new(assoc)).collect(),
            monitors: (0..num_sets).map(|_| DemandMonitor::new(k, p)).collect(),
            sampling: true,
        }
    }

    /// Enable/disable counter sampling (Stage I vs Stage II).
    pub fn set_sampling(&mut self, on: bool) {
        self.sampling = on;
    }

    /// Record a hit on the real L2 set `set`.
    #[inline]
    pub fn on_real_hit(&mut self, set: usize) {
        if self.sampling {
            self.monitors[set].real_hit();
        }
    }

    /// Handle a real-set miss: check the shadow set. Returns `true` if
    /// the tag was a shadow hit (entry invalidated, counter bumped).
    #[inline]
    pub fn on_real_miss(&mut self, set: usize, block: BlockAddr) -> bool {
        let hit = self.sets[set].lookup_invalidate(block);
        if hit && self.sampling {
            self.monitors[set].shadow_hit();
        }
        hit
    }

    /// Record the eviction of an **owned** line from real set `set`.
    #[inline]
    pub fn on_owned_eviction(&mut self, set: usize, block: BlockAddr) {
        self.sets[set].insert(block);
    }

    /// Latch the current taker/giver verdicts into a fresh G/T bit
    /// vector (true = taker).
    pub fn latch_gt(&self) -> Vec<bool> {
        self.monitors.iter().map(|m| m.is_taker()).collect()
    }

    /// Reset all monitors (start of the next Stage I). Shadow contents
    /// are preserved, as a hardware array's would be.
    pub fn reset_monitors(&mut self) {
        for m in &mut self.monitors {
            m.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: u64) -> BlockAddr {
        BlockAddr(x)
    }

    #[test]
    fn insert_then_lookup_invalidates() {
        let mut s = ShadowSet::new(4);
        s.insert(b(10));
        assert!(s.contains(b(10)));
        assert!(s.lookup_invalidate(b(10)));
        assert!(!s.contains(b(10)), "entry invalidated after hit");
        assert!(!s.lookup_invalidate(b(10)), "second lookup misses");
    }

    #[test]
    fn shadow_set_replaces_lru() {
        let mut s = ShadowSet::new(2);
        s.insert(b(1));
        s.insert(b(2));
        s.insert(b(3)); // evicts b(1)
        assert!(!s.contains(b(1)));
        assert!(s.contains(b(2)));
        assert!(s.contains(b(3)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut s = ShadowSet::new(2);
        s.insert(b(1));
        s.insert(b(2));
        s.insert(b(1)); // refresh, not duplicate
        assert_eq!(s.len(), 2);
        s.insert(b(3)); // should evict b(2), the older entry
        assert!(s.contains(b(1)));
        assert!(!s.contains(b(2)));
    }

    #[test]
    fn array_tracks_taker_sets() {
        let mut a = ShadowArray::new(4, 2, 4, 8);
        // Set 1: thrash pattern where the shadow catches every re-reference
        // (cycle length matches the shadow depth so victims survive until
        // their re-reference).
        for round in 0..50 {
            // Evictions go to shadow, then re-references hit shadow.
            a.on_owned_eviction(1, b(100 + round % 2));
            let _ = a.on_real_miss(1, b(100 + (round + 1) % 2));
        }
        // Set 0: plenty of real hits, no shadow traffic.
        for _ in 0..200 {
            a.on_real_hit(0);
        }
        let gt = a.latch_gt();
        assert!(gt[1], "thrashing set identified as taker");
        assert!(!gt[0], "well-behaved set stays giver");
    }

    #[test]
    fn sampling_off_freezes_counters() {
        let mut a = ShadowArray::new(1, 4, 4, 8);
        a.set_sampling(false);
        for i in 0..20 {
            a.on_owned_eviction(0, b(i));
            assert!(a.on_real_miss(0, b(i)), "shadow still functional");
        }
        assert!(
            !a.monitors[0].is_taker(),
            "counter frozen while not sampling"
        );
    }

    #[test]
    fn reset_monitors_returns_to_neutral() {
        let mut a = ShadowArray::new(1, 4, 4, 8);
        for i in 0..20 {
            a.on_owned_eviction(0, b(i % 4));
            a.on_real_miss(0, b((i + 1) % 4));
        }
        assert!(a.monitors[0].is_taker());
        a.reset_monitors();
        assert!(!a.monitors[0].is_taker());
    }

    #[test]
    fn exclusivity_after_miss_hit_cycle() {
        let mut a = ShadowArray::new(2, 4, 4, 8);
        a.on_owned_eviction(0, b(42));
        assert!(a.sets[0].contains(b(42)));
        assert!(a.on_real_miss(0, b(42)));
        assert!(
            !a.sets[0].contains(b(42)),
            "tag must leave shadow when block re-enters real set"
        );
    }
}
