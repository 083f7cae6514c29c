//! Per-set views over the struct-of-arrays cache storage, plus the line
//! metadata types.
//!
//! Line metadata mirrors paper Fig. 4: `tag` (we store the full block
//! address), `valid`, `dirty`, LRU bits, plus the two SNUG bits — `cc`
//! (the line is cooperatively cached on behalf of a *peer* core) and `f`
//! (the line was placed with its last home-index bit flipped).
//!
//! Storage-wise a set is no longer its own struct: [`SetAssocCache`]
//! keeps one flat block-address array, one flat metadata-byte array and
//! one LRU permutation per set (struct-of-arrays), so a tag probe scans
//! a contiguous run of `u64`s with no pointer chasing and the metadata
//! byte rides in the same cache line as its neighbours. [`SetRef`] and
//! [`SetMut`] are borrowed views of one set's slice of that storage and
//! carry the whole per-set behaviour (probe / fill / victim selection /
//! invalidate) that the cooperative-caching schemes compose.
//!
//! [`SetAssocCache`]: crate::cache::SetAssocCache

use crate::lru::LruOrder;
use sim_mem::BlockAddr;

/// Metadata-byte bit: line holds a block.
pub(crate) const META_VALID: u8 = 1 << 0;
/// Metadata-byte bit: line has been written (write back on eviction).
pub(crate) const META_DIRTY: u8 = 1 << 1;
/// Metadata-byte bit: the paper's CC bit.
pub(crate) const META_CC: u8 = 1 << 2;
/// Metadata-byte bit: the paper's f bit.
pub(crate) const META_FLIPPED: u8 = 1 << 3;

/// Sentinel stored in the block array of invalid ways, so a tag probe is
/// a pure block-address compare without consulting the metadata lane.
/// `BlockAddr` values come from byte addresses divided by the line size,
/// so the all-ones pattern can never name a real block.
pub(crate) const INVALID_BLOCK: BlockAddr = BlockAddr(u64::MAX);

/// First way holding `block`, if any: `iter().position(..)` semantics,
/// computed branch-free for realistic associativities. The early-exit
/// compare loop mispredicts once per probe at a data-dependent trip
/// count — on the per-op hit path that one mispredict costs more than
/// comparing every way unconditionally and taking the lowest set bit.
#[inline]
pub(crate) fn probe_ways(blocks: &[BlockAddr], block: BlockAddr) -> Option<usize> {
    if blocks.len() > 64 {
        return blocks.iter().position(|&b| b == block);
    }
    let mut mask = 0u64;
    for (i, &b) in blocks.iter().enumerate() {
        mask |= u64::from(b == block) << i;
    }
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// Metadata bits carried by every line (beyond tag/valid/LRU).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LineFlags {
    /// Line has been written and must be written back on eviction.
    pub dirty: bool,
    /// Line is cooperatively cached for a peer core (paper's CC bit).
    pub cc: bool,
    /// Line's home set index had its last bit flipped on placement
    /// (paper's f bit; meaningful only when `cc` is set).
    pub flipped: bool,
}

impl LineFlags {
    /// Flags for a locally owned line.
    pub fn owned(dirty: bool) -> Self {
        LineFlags {
            dirty,
            cc: false,
            flipped: false,
        }
    }

    /// Flags for a cooperatively cached (received) line. Received lines
    /// are always clean (§3.3: only clean blocks may spill).
    pub fn received(flipped: bool) -> Self {
        LineFlags {
            dirty: false,
            cc: true,
            flipped,
        }
    }

    /// Pack into a metadata byte (valid bit included).
    #[inline]
    pub(crate) fn to_meta(self) -> u8 {
        META_VALID
            | if self.dirty { META_DIRTY } else { 0 }
            | if self.cc { META_CC } else { 0 }
            | if self.flipped { META_FLIPPED } else { 0 }
    }

    /// Unpack from a metadata byte (ignores the valid bit).
    #[inline]
    pub(crate) fn from_meta(meta: u8) -> Self {
        LineFlags {
            dirty: meta & META_DIRTY != 0,
            cc: meta & META_CC != 0,
            flipped: meta & META_FLIPPED != 0,
        }
    }
}

/// One cache line, materialized by value from the packed storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLine {
    /// Full block address (superset of the architectural tag).
    pub block: BlockAddr,
    /// Valid bit.
    pub valid: bool,
    /// Metadata flags.
    pub flags: LineFlags,
}

/// A line evicted by a fill, reported to the caller so the owning scheme
/// can decide its fate (writeback, spill, or drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Block address of the victim.
    pub block: BlockAddr,
    /// Victim's flags at eviction time.
    pub flags: LineFlags,
}

/// Read-only view of one set: `assoc`-long slices of the cache's block
/// and metadata arrays plus the set's LRU permutation.
#[derive(Debug)]
pub struct SetRef<'a> {
    pub(crate) blocks: &'a [BlockAddr],
    pub(crate) meta: &'a [u8],
    pub(crate) lru: &'a LruOrder,
}

/// Mutable view of one set.
#[derive(Debug)]
pub struct SetMut<'a> {
    pub(crate) blocks: &'a mut [BlockAddr],
    pub(crate) meta: &'a mut [u8],
    pub(crate) lru: &'a mut LruOrder,
    /// The owning cache's CC-line count; every CC-bit transition flows
    /// through [`SetMut::replace`] or [`SetMut::invalidate_way`], so
    /// maintaining the tally here keeps it exact for any caller.
    pub(crate) cc_lines: &'a mut u64,
}

impl<'a> SetRef<'a> {
    /// Associativity.
    #[inline]
    pub(crate) fn assoc(&self) -> usize {
        self.blocks.len()
    }

    /// Find the way holding `block`, if resident. Invalid ways hold the
    /// `INVALID_BLOCK` sentinel, so this is a pure tag compare.
    #[inline]
    pub(crate) fn probe(&self, block: BlockAddr) -> Option<usize> {
        debug_assert!(block != INVALID_BLOCK);
        probe_ways(self.blocks, block)
    }

    /// Materialize the line in `way` by value.
    #[inline]
    pub fn line(&self, way: usize) -> CacheLine {
        let meta = self.meta[way];
        CacheLine {
            block: self.blocks[way],
            valid: meta & META_VALID != 0,
            flags: LineFlags::from_meta(meta),
        }
    }

    /// Choose the fill victim way: an invalid way if one exists, else the
    /// true-LRU way.
    #[inline]
    pub(crate) fn victim_way(&self) -> usize {
        self.meta
            .iter()
            .position(|&m| m & META_VALID == 0)
            .unwrap_or_else(|| self.lru.lru_way())
    }

    /// Iterate valid lines, by value.
    pub fn valid_lines(&self) -> impl Iterator<Item = CacheLine> + '_ {
        (0..self.assoc())
            .filter(|&w| self.meta[w] & META_VALID != 0)
            .map(|w| self.line(w))
    }
}

impl<'a> SetMut<'a> {
    /// Reborrow as a read-only view.
    #[inline]
    pub(crate) fn as_ref(&self) -> SetRef<'_> {
        SetRef {
            blocks: self.blocks,
            meta: self.meta,
            lru: self.lru,
        }
    }

    /// Find the way holding `block`, if resident.
    #[inline]
    pub(crate) fn probe(&self, block: BlockAddr) -> Option<usize> {
        self.as_ref().probe(block)
    }

    /// Materialize the line in `way` by value.
    #[inline]
    pub(crate) fn line(&self, way: usize) -> CacheLine {
        self.as_ref().line(way)
    }

    /// See [`SetRef::victim_way`].
    #[inline]
    pub(crate) fn victim_way(&self) -> usize {
        self.as_ref().victim_way()
    }

    /// Overwrite `way` with `block` (at MRU), reporting the previous
    /// occupant if it was valid.
    fn replace(&mut self, way: usize, block: BlockAddr, flags: LineFlags) -> Option<Evicted> {
        let old = self.meta[way];
        let evicted = (old & META_VALID != 0).then(|| Evicted {
            block: self.blocks[way],
            flags: LineFlags::from_meta(old),
        });
        if old & (META_VALID | META_CC) == META_VALID | META_CC {
            *self.cc_lines -= 1;
        }
        *self.cc_lines += flags.cc as u64;
        self.blocks[way] = block;
        self.meta[way] = flags.to_meta();
        self.lru.touch(way);
        evicted
    }

    /// Fill `block` into the set (at MRU), evicting the victim if valid.
    pub(crate) fn fill(&mut self, block: BlockAddr, flags: LineFlags) -> Option<Evicted> {
        debug_assert!(
            self.probe(block).is_none(),
            "fill of already-resident block"
        );
        let way = self.victim_way();
        self.replace(way, block, flags)
    }

    /// Invalidate the line in `way` (demoting it so the way is reused
    /// first). Returns the invalidated line.
    pub fn invalidate_way(&mut self, way: usize) -> CacheLine {
        let line = self.line(way);
        debug_assert!(line.valid, "invalidating an invalid way");
        *self.cc_lines -= (self.meta[way] & META_CC != 0) as u64;
        self.blocks[way] = INVALID_BLOCK;
        self.meta[way] = 0;
        self.lru.demote(way);
        line
    }

    /// Invalidate `block` if resident; returns the line that was removed.
    pub(crate) fn invalidate(&mut self, block: BlockAddr) -> Option<CacheLine> {
        self.probe(block).map(|w| self.invalidate_way(w))
    }
}

#[cfg(test)]
mod tests {
    use crate::cache::SetAssocCache;
    use crate::set::{LineFlags, SetMut};
    use sim_mem::{BlockAddr, Geometry};

    fn b(x: u64) -> BlockAddr {
        BlockAddr(x)
    }

    /// A single-set cache, so `set_mut(0)` exercises the per-set logic
    /// exactly as the old standalone `CacheSet` tests did.
    fn single(assoc: usize) -> SetAssocCache {
        SetAssocCache::new(Geometry::new(64, 1, assoc))
    }

    fn with_set<R>(c: &mut SetAssocCache, f: impl FnOnce(SetMut<'_>) -> R) -> R {
        f(c.set_mut(0))
    }

    #[test]
    fn fill_until_full_then_evict_lru() {
        let mut c = single(2);
        with_set(&mut c, |mut s| {
            assert_eq!(s.fill(b(1), LineFlags::owned(false)), None);
            assert_eq!(s.fill(b(2), LineFlags::owned(false)), None);
            // b(1) is LRU now.
            let ev = s.fill(b(3), LineFlags::owned(false)).unwrap();
            assert_eq!(ev.block, b(1));
            assert!(s.probe(b(1)).is_none());
            assert!(s.probe(b(2)).is_some());
            assert!(s.probe(b(3)).is_some());
        });
    }

    #[test]
    fn access_hit_updates_lru_and_dirty() {
        let mut c = single(2);
        with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::owned(false));
            s.fill(b(2), LineFlags::owned(false));
        });
        let hit = c.access(b(1), true);
        assert_eq!(hit.distance, Some(2), "b1 was at distance 2");
        with_set(&mut c, |mut s| {
            let w = s.probe(b(1)).unwrap();
            assert!(s.line(w).flags.dirty);
            // Now b(2) is LRU; filling evicts it.
            let ev = s.fill(b(3), LineFlags::owned(false)).unwrap();
            assert_eq!(ev.block, b(2));
        });
    }

    #[test]
    fn miss_returns_none() {
        let mut c = single(2);
        with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::owned(false));
        });
        assert_eq!(c.access(b(9), false).distance, None);
    }

    #[test]
    fn invalidate_frees_way_first() {
        let mut c = single(2);
        with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::owned(false));
            s.fill(b(2), LineFlags::owned(true));
            let line = s.invalidate(b(2)).unwrap();
            assert!(line.flags.dirty);
            assert_eq!(s.as_ref().valid_lines().count(), 1);
            // Next fill reuses the invalidated way without evicting b(1).
            assert_eq!(s.fill(b(3), LineFlags::owned(false)), None);
            assert!(s.probe(b(1)).is_some());
        });
    }

    #[test]
    fn fill_uses_invalid_ways_before_evicting_cc() {
        let mut c = single(2);
        with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::received(true));
            // One way still invalid: no eviction even though a CC line
            // exists.
            assert_eq!(s.fill(b(2), LineFlags::owned(false)), None);
            assert_eq!(s.as_ref().valid_lines().count(), 2);
        });
    }

    #[test]
    fn cc_count_and_valid_count() {
        let mut c = single(4);
        with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::owned(false));
            s.fill(b(2), LineFlags::received(false));
            s.fill(b(3), LineFlags::received(true));
            let valid: Vec<_> = s.as_ref().valid_lines().collect();
            assert_eq!(valid.len(), 3);
            assert_eq!(valid.iter().filter(|l| l.flags.cc).count(), 2);
        });
    }

    #[test]
    fn touch_way_reports_distance_and_cc_without_reprobing() {
        let mut c = single(4);
        let (w1, w2) = with_set(&mut c, |mut s| {
            s.fill(b(1), LineFlags::owned(false));
            s.fill(b(2), LineFlags::received(false));
            (s.probe(b(1)).unwrap(), s.probe(b(2)).unwrap())
        });
        let (d, cc) = c.touch_way_in_set(0, w1, true);
        assert_eq!(d, 2, "b1 was one behind the MRU fill of b2");
        assert!(!cc);
        assert!(c.set(0).line(w1).flags.dirty, "write touch sets dirty");
        let (_, cc2) = c.touch_way_in_set(0, w2, false);
        assert!(cc2, "received line reports its CC bit");
    }
}
