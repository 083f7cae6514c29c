//! A set-associative write-back cache over struct-of-arrays storage.
//!
//! Provides both a convenience demand-access path (used directly for the
//! L1 caches and the private-baseline L2) and the primitive operations
//! (probe / fill-at-set / invalidate) that the cooperative-caching
//! schemes in `snug-core` compose.
//!
//! The storage layout is three parallel flat arrays indexed by
//! `set * assoc + way`: block addresses (the probe lane — a contiguous
//! `u64` run per set with an all-ones sentinel in invalid ways, so the
//! tag probe is a pure compare loop), metadata bytes (valid/dirty/cc/f
//! packed per line), and one [`LruOrder`] per set. Per-set behaviour
//! lives on the [`SetRef`]/[`SetMut`] views borrowed from these arrays.

use crate::lru::LruOrder;
use crate::set::{
    Evicted, LineFlags, SetMut, SetRef, INVALID_BLOCK, META_CC, META_DIRTY, META_FLIPPED,
    META_VALID,
};
use crate::stats::CacheStats;
use sim_mem::{put_u64, BlockAddr, Geometry, StateError, StateReader};

/// Result of a demand access through [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the block was resident.
    pub hit: bool,
    /// On a hit, the 1-based LRU stack distance observed.
    pub distance: Option<usize>,
    /// On a fill (miss path), the victim that was evicted, if any.
    pub evicted: Option<Evicted>,
}

/// A set-associative cache (struct-of-arrays storage).
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    geo: Geometry,
    /// `set * assoc + way` → block address; invalid ways hold
    /// [`INVALID_BLOCK`].
    blocks: Vec<BlockAddr>,
    /// `set * assoc + way` → packed valid/dirty/cc/flipped bits.
    meta: Vec<u8>,
    /// One recency permutation per set.
    lru: Vec<LruOrder>,
    /// Running count of valid CC lines across all sets, maintained by
    /// [`SetMut`] on every fill/invalidate. Schemes consult it on the
    /// peer-probe path: a slice holding zero CC lines can skip the tag
    /// probes of a retrieval snoop or coherence sweep entirely.
    cc_lines: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Create an empty cache with the given geometry.
    pub fn new(geo: Geometry) -> Self {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "the cache allocates num_sets * assoc lines below, so num_sets fits usize"
        )]
        let lines = geo.num_sets as usize * geo.assoc;
        SetAssocCache {
            geo,
            blocks: vec![INVALID_BLOCK; lines],
            meta: vec![0; lines],
            lru: (0..geo.num_sets)
                .map(|_| LruOrder::new(geo.assoc))
                .collect(),
            cc_lines: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geo
    }

    /// Home set index of a block.
    #[inline]
    pub fn home_set(&self, block: BlockAddr) -> usize {
        self.geo.set_index(block)
    }

    /// Start of `set`'s run in the flat arrays.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.geo.assoc
    }

    /// Demand access with allocate-on-miss into the home set. This is the
    /// whole story for L1s and the private L2 baseline.
    pub fn access(&mut self, block: BlockAddr, is_write: bool) -> AccessResult {
        let set = self.geo.set_index(block);
        let base = self.base(set);
        let assoc = self.geo.assoc;
        let probed = crate::set::probe_ways(&self.blocks[base..base + assoc], block);
        if let Some(way) = probed {
            let m = &mut self.meta[base + way];
            if is_write {
                *m |= META_DIRTY;
            }
            let was_cc = *m & META_CC != 0;
            let distance = self.lru[set].touch(way);
            self.stats.hits += 1;
            if was_cc {
                self.stats.cc_hits += 1;
            }
            AccessResult {
                hit: true,
                distance: Some(distance),
                evicted: None,
            }
        } else {
            self.stats.misses += 1;
            let evicted = self.set_mut(set).fill(block, LineFlags::owned(is_write));
            self.note_eviction(&evicted);
            AccessResult {
                hit: false,
                distance: None,
                evicted,
            }
        }
    }

    /// Probe without side effects: `(set_index, way)` if the block is
    /// resident *in its home set*.
    pub fn probe(&self, block: BlockAddr) -> Option<(usize, usize)> {
        let set = self.geo.set_index(block);
        self.probe_in_set(set, block).map(|w| (set, w))
    }

    /// Probe an arbitrary set (used by index-bit-flipping lookups).
    #[inline]
    pub fn probe_in_set(&self, set: usize, block: BlockAddr) -> Option<usize> {
        let base = self.base(set);
        crate::set::probe_ways(&self.blocks[base..base + self.geo.assoc], block)
    }

    /// Hit path into a specific set (touch LRU, update dirty); returns
    /// stack distance if resident.
    pub fn touch_in_set(&mut self, set: usize, block: BlockAddr, is_write: bool) -> Option<usize> {
        let way = self.probe_in_set(set, block)?;
        Some(self.touch_way_in_set(set, way, is_write).0)
    }

    /// Hit path when the way is already known (single-probe callers):
    /// touch LRU, update dirty, and report `(stack_distance, was_cc)`
    /// without re-probing. Does not touch hit statistics — the caller
    /// owns the accounting, as with [`SetAssocCache::touch_in_set`].
    #[inline]
    pub fn touch_way_in_set(&mut self, set: usize, way: usize, is_write: bool) -> (usize, bool) {
        let base = self.base(set);
        let m = &mut self.meta[base + way];
        debug_assert!(*m & META_VALID != 0, "touching an invalid way");
        if is_write {
            *m |= META_DIRTY;
        }
        let was_cc = *m & META_CC != 0;
        (self.lru[set].touch(way), was_cc)
    }

    /// Fill into a specific set with explicit flags; reports the victim.
    pub fn fill_in_set(
        &mut self,
        set: usize,
        block: BlockAddr,
        flags: LineFlags,
    ) -> Option<Evicted> {
        let evicted = self.set_mut(set).fill(block, flags);
        self.note_eviction(&evicted);
        evicted
    }

    fn note_eviction(&mut self, evicted: &Option<Evicted>) {
        if let Some(ev) = evicted {
            self.stats.evictions += 1;
            if ev.flags.dirty {
                self.stats.writebacks += 1;
            }
        }
    }

    /// Invalidate `block` from `set` if resident; returns removed line
    /// metadata.
    pub fn invalidate_in_set(&mut self, set: usize, block: BlockAddr) -> Option<LineFlags> {
        self.set_mut(set).invalidate(block).map(|l| l.flags)
    }

    /// Borrow one set read-only, for scheme logic and tests.
    pub fn set(&self, idx: usize) -> SetRef<'_> {
        let base = self.base(idx);
        let assoc = self.geo.assoc;
        SetRef {
            blocks: &self.blocks[base..base + assoc],
            meta: &self.meta[base..base + assoc],
            lru: &self.lru[idx],
        }
    }

    /// Borrow one set mutably, for scheme logic.
    pub fn set_mut(&mut self, idx: usize) -> SetMut<'_> {
        let base = idx * self.geo.assoc;
        let assoc = self.geo.assoc;
        SetMut {
            blocks: &mut self.blocks[base..base + assoc],
            meta: &mut self.meta[base..base + assoc],
            lru: &mut self.lru[idx],
            cc_lines: &mut self.cc_lines,
        }
    }

    /// Statistics accessor.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable statistics (schemes bump spill/forward counters).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Total valid CC lines across all sets (O(1): maintained
    /// incrementally by every fill/invalidate).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "cc_lines counts resident lines, at most blocks.len()"
    )]
    pub fn cc_lines(&self) -> usize {
        self.cc_lines as usize
    }

    /// Recount CC lines from the metadata lane (diagnostics/tests — the
    /// ground truth the incremental [`SetAssocCache::cc_lines`] tally
    /// must track).
    pub fn cc_lines_scan(&self) -> usize {
        self.meta
            .iter()
            .filter(|&&m| m & (META_VALID | META_CC) == META_VALID | META_CC)
            .count()
    }

    /// Reset statistics after warm-up (contents untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Append the contents — block and metadata lanes and every set's
    /// LRU order — so that [`SetAssocCache::restore_state`] on a cache
    /// of the same geometry answers every later access identically.
    /// Statistics are not part of the state.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.reserve(9 * self.blocks.len() + self.lru.len() * self.geo.assoc);
        for b in &self.blocks {
            put_u64(out, b.0);
        }
        out.extend_from_slice(&self.meta);
        for lru in &self.lru {
            lru.save_state(out);
        }
    }

    /// Read contents written by [`SetAssocCache::save_state`] for the
    /// same geometry. Inconsistent lanes or LRU orders are an error, and
    /// leave the cache unchanged.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let blocks: Vec<BlockAddr> = r
            .bytes(8 * self.blocks.len())?
            .as_chunks::<8>()
            .0
            .iter()
            .map(|b| BlockAddr(u64::from_le_bytes(*b)))
            .collect();
        let meta = r.bytes(self.meta.len())?;
        let known = META_VALID | META_DIRTY | META_CC | META_FLIPPED;
        for (&m, &b) in meta.iter().zip(&blocks) {
            if m & !known != 0 || (m & META_VALID != 0) != (b != INVALID_BLOCK) {
                return Err(StateError::Invalid("cache line"));
            }
        }
        let mut lru = self.lru.clone();
        for order in &mut lru {
            order.restore_state(r)?;
        }
        self.blocks = blocks;
        self.meta.copy_from_slice(meta);
        self.lru = lru;
        self.cc_lines = self.cc_lines_scan() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 4 sets, 2 ways, 64 B lines.
        SetAssocCache::new(Geometry::new(64, 4, 2))
    }

    fn blk(set: u64, tag: u64) -> BlockAddr {
        BlockAddr((tag << 2) | set)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        let b = blk(1, 5);
        let r = c.access(b, false);
        assert!(!r.hit);
        let r2 = c.access(b, false);
        assert!(r2.hit);
        assert_eq!(r2.distance, Some(1));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_reports_victim() {
        let mut c = tiny();
        c.access(blk(2, 1), true); // dirty
        c.access(blk(2, 2), false);
        let r = c.access(blk(2, 3), false);
        let ev = r.evicted.unwrap();
        assert_eq!(ev.block, blk(2, 1));
        assert!(ev.flags.dirty);
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(blk(0, 1), false);
        c.access(blk(1, 1), false);
        c.access(blk(2, 1), false);
        assert_eq!(c.stats().misses, 3);
        assert!(c.access(blk(0, 1), false).hit);
    }

    #[test]
    fn fill_in_foreign_set_probed_there() {
        let mut c = tiny();
        let b = blk(3, 7); // home set 3
        let foreign = 2;
        c.fill_in_set(foreign, b, LineFlags::received(true));
        assert!(c.probe(b).is_none(), "not in home set");
        assert!(c.probe_in_set(foreign, b).is_some());
        assert_eq!(c.cc_lines(), 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        let b = blk(1, 9);
        c.access(b, true);
        let fl = c.invalidate_in_set(c.home_set(b), b).unwrap();
        assert!(fl.dirty);
        assert!(c.probe(b).is_none());
        assert_eq!(c.set(c.home_set(b)).valid_lines().count(), 0);
    }

    #[test]
    fn write_marks_dirty_on_hit() {
        let mut c = tiny();
        let b = blk(0, 4);
        c.access(b, false);
        c.access(b, true);
        let (s, w) = c.probe(b).unwrap();
        assert!(c.set(s).line(w).flags.dirty);
    }

    #[test]
    fn cc_hit_counted() {
        let mut c = tiny();
        let b = blk(1, 3);
        c.fill_in_set(1, b, LineFlags::received(false));
        let r = c.access(b, false);
        assert!(r.hit);
        assert_eq!(c.stats().cc_hits, 1);
    }

    #[test]
    fn cc_tally_tracks_storage_through_mixed_operations() {
        let mut c = tiny();
        // Interleave received fills, owned fills, hits and
        // invalidations; the incremental tally must equal a fresh scan at
        // every step.
        for i in 0..200u64 {
            let set = (i % 4) as usize;
            let block = blk(set as u64, 1 + i % 7);
            match i % 5 {
                0 => {
                    if c.probe_in_set(set, block).is_none() {
                        c.fill_in_set(set, block, LineFlags::received(i % 2 == 0));
                    }
                }
                1 => {
                    c.access(block, i % 3 == 0);
                }
                2 => {
                    c.invalidate_in_set(set, block);
                }
                3 => {
                    if c.probe_in_set(set, block).is_none() {
                        c.fill_in_set(set, block, LineFlags::owned(false));
                    }
                }
                _ => {
                    if let Some(way) = c.probe_in_set(set, block) {
                        c.set_mut(set).invalidate_way(way);
                    }
                }
            }
            assert_eq!(c.cc_lines(), c.cc_lines_scan(), "step {i}");
        }
    }

    /// An L1-like access sequence with stores, conflicts and repeats.
    fn churn(c: &mut SetAssocCache, from: u64, n: u64) -> Vec<AccessResult> {
        (from..from + n)
            .map(|i| c.access(blk(i * 7 % 4, i * 13 % 11), i % 3 == 0))
            .collect()
    }

    #[test]
    fn a_restored_cache_answers_every_later_access_identically() {
        let mut wide = SetAssocCache::new(Geometry::new(64, 4, 16));
        for c in [&mut tiny(), &mut wide] {
            churn(c, 0, 500);
            c.fill_in_set(1, blk(1, 99), LineFlags::received(true));
            let mut state = Vec::new();
            c.save_state(&mut state);
            let mut restored = SetAssocCache::new(c.geometry());
            let mut r = StateReader::new(&state);
            assert_eq!(restored.restore_state(&mut r), Ok(()));
            assert_eq!(r.finish(), Ok(()));
            assert_eq!(restored.cc_lines(), c.cc_lines());
            assert_eq!(churn(&mut restored, 500, 2_000), churn(c, 500, 2_000));
        }
    }

    #[test]
    fn truncated_or_garbage_cache_state_is_an_error() {
        let mut c = tiny();
        churn(&mut c, 0, 100);
        let mut state = Vec::new();
        c.save_state(&mut state);
        let before = c.clone();
        for cut in 0..state.len() {
            let mut r = StateReader::new(&state[..cut]);
            assert_eq!(c.restore_state(&mut r), Err(StateError::Truncated));
        }
        // A valid line holding the invalid sentinel, an unknown metadata
        // bit, a repeated way in an LRU order.
        // Eight lines: the metadata lane follows eight block words.
        let meta_at = 8 * 8;
        let mut bad = [state.clone(), state.clone(), state.clone()];
        bad[0][..8].copy_from_slice(&u64::MAX.to_le_bytes());
        bad[0][meta_at] = META_VALID;
        bad[1][meta_at] |= 0x80;
        let last = state.len() - 1;
        bad[2][last] = bad[2][last - 1];
        for b in &bad {
            let mut r = StateReader::new(b);
            assert!(matches!(
                c.restore_state(&mut r),
                Err(StateError::Invalid(_))
            ));
        }
        for fill in [0x00, 0xff, 0x5a] {
            let garbage = [fill; 200];
            let mut r = StateReader::new(&garbage);
            assert!(c.restore_state(&mut r).is_err(), "{fill:#x}");
        }
        assert_eq!(c, before, "failed restores leave the cache unchanged");
    }

    #[test]
    fn touch_way_in_set_matches_touch_in_set() {
        let mut a = tiny();
        let mut b_cache = tiny();
        let b = blk(2, 5);
        a.fill_in_set(2, b, LineFlags::received(false));
        b_cache.fill_in_set(2, b, LineFlags::received(false));
        let d1 = a.touch_in_set(2, b, true).unwrap();
        let way = b_cache.probe_in_set(2, b).unwrap();
        let (d2, was_cc) = b_cache.touch_way_in_set(2, way, true);
        assert_eq!(d1, d2);
        assert!(was_cc);
        assert_eq!(a.set(2).line(way), b_cache.set(2).line(way));
    }
}
