//! Physical addresses and cache-geometry address decomposition.
//!
//! The paper (Table 4) uses 32-bit physical addresses, 64 B cache lines,
//! 1024-set 16-way private L2 slices. Everything here is parameterised so
//! the same types serve the L1 caches, the L2 slices, the shadow tag
//! arrays and the deeper stack-distance profiler.

/// A byte-granular physical address.
///
/// Stored as `u64` so 64-bit address experiments (paper Table 3) are
/// expressible, even though the baseline configuration is 32-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u64);

/// A block (cache-line) address: the byte address shifted right by the
/// block-offset bits. Two accesses with the same `BlockAddr` touch the
/// same cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockAddr(pub u64);

impl Addr {
    /// Convert to a block address under `block_bytes`-sized lines.
    #[inline]
    pub fn block(self, block_bytes: u64) -> BlockAddr {
        debug_assert!(block_bytes.is_power_of_two());
        BlockAddr(self.0 >> block_bytes.trailing_zeros())
    }
}

impl BlockAddr {
    /// The first byte address covered by this block.
    #[inline]
    pub fn base_addr(self, block_bytes: u64) -> Addr {
        Addr(self.0 << block_bytes.trailing_zeros())
    }
}

/// Geometry of one set-associative cache structure.
///
/// `tag(block)` keeps the *full* block address rather than the truncated
/// hardware tag: the simulator compares block identities, and the
/// hardware tag width only matters for the storage-overhead analysis in
/// overhead-style arithmetic (done in `snug-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Line size in bytes (power of two).
    pub block_bytes: u64,
    /// Number of sets (power of two).
    pub num_sets: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
}

impl Geometry {
    /// Construct a geometry, validating power-of-two constraints.
    pub fn new(block_bytes: u64, num_sets: u64, assoc: usize) -> Self {
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(assoc >= 1, "associativity must be at least 1");
        Geometry {
            block_bytes,
            num_sets,
            assoc,
        }
    }

    /// Total capacity in bytes.
    #[inline]
    pub fn capacity_bytes(&self) -> u64 {
        self.block_bytes * self.num_sets * self.assoc as u64
    }

    /// Number of index bits.
    #[inline]
    pub fn index_bits(&self) -> u32 {
        self.num_sets.trailing_zeros()
    }

    /// Set index for a block address (low `index_bits` of the block addr).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "masked below num_sets, and caches hold a Vec of num_sets sets"
    )]
    pub fn set_index(&self, block: BlockAddr) -> usize {
        (block.0 & (self.num_sets - 1)) as usize
    }

    /// The block-address "tag": bits above the index. Stored as the full
    /// block address in simulation structures; this helper recovers the
    /// architectural tag when needed.
    #[inline]
    pub fn arch_tag(&self, block: BlockAddr) -> u64 {
        block.0 >> self.index_bits()
    }

    /// Reconstruct a block address from a set index and architectural tag.
    #[inline]
    pub fn compose(&self, set: usize, arch_tag: u64) -> BlockAddr {
        debug_assert!((set as u64) < self.num_sets);
        BlockAddr((arch_tag << self.index_bits()) | set as u64)
    }

    /// The peer set index with the last (least-significant) index bit
    /// flipped — the SNUG index-bit flipping partner (paper §3.2).
    #[inline]
    pub fn flip_last_index_bit(&self, set: usize) -> usize {
        set ^ 1
    }

    /// Convert an access address to `(set, block)`.
    #[inline]
    pub fn locate(&self, addr: Addr) -> (usize, BlockAddr) {
        let b = addr.block(self.block_bytes);
        (self.set_index(b), b)
    }

    /// Geometry of the paper's baseline private L2 slice (Table 4):
    /// 1 MB, 16-way, 64 B lines → 1024 sets.
    pub fn paper_l2() -> Self {
        Geometry::new(64, 1024, 16)
    }

    /// Geometry of the paper's L1 I/D caches (Table 4): 32 KB, 4-way,
    /// 64 B lines → 128 sets.
    pub fn paper_l1() -> Self {
        Geometry::new(64, 128, 4)
    }
}

/// Architectural tag width in bits for a given address width, used by the
/// storage-overhead analysis (paper Tables 2–3).
pub fn tag_bits(addr_bits: u32, geo: &Geometry) -> u32 {
    let offset_bits = geo.block_bytes.trailing_zeros();
    let index_bits = geo.index_bits();
    addr_bits.saturating_sub(offset_bits + index_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_decomposition_round_trips() {
        let a = Addr(0xDEAD_BEEF);
        let b = a.block(64);
        assert_eq!(b.0, 0xDEAD_BEEF >> 6);
        assert_eq!(b.base_addr(64).0, (0xDEAD_BEEF >> 6) << 6);
    }

    #[test]
    fn paper_l2_geometry_matches_table4() {
        let g = Geometry::paper_l2();
        assert_eq!(g.capacity_bytes(), 1 << 20, "1 MB slice");
        assert_eq!(g.num_sets, 1024);
        assert_eq!(g.assoc, 16);
        assert_eq!(g.index_bits(), 10);
    }

    #[test]
    fn paper_l1_geometry_matches_table4() {
        let g = Geometry::paper_l1();
        assert_eq!(g.capacity_bytes(), 32 << 10);
        assert_eq!(g.assoc, 4);
        assert_eq!(g.num_sets, 128);
    }

    #[test]
    fn set_index_uses_low_bits() {
        let g = Geometry::paper_l2();
        let b = BlockAddr(0b1111_0000_0011);
        assert_eq!(g.set_index(b), 0b11_0000_0011);
    }

    #[test]
    fn compose_inverts_locate() {
        let g = Geometry::paper_l2();
        let b = BlockAddr(123_456_789);
        let set = g.set_index(b);
        let tag = g.arch_tag(b);
        assert_eq!(g.compose(set, tag), b);
    }

    #[test]
    fn flip_last_index_bit_is_involution() {
        let g = Geometry::paper_l2();
        for s in [0usize, 1, 2, 511, 1022, 1023] {
            assert_eq!(g.flip_last_index_bit(g.flip_last_index_bit(s)), s);
            assert_eq!(g.flip_last_index_bit(s), s ^ 1);
        }
    }

    #[test]
    fn tag_bits_match_paper_table2() {
        // 32-bit address, 64 B lines (6 offset bits), 1024 sets (10 index
        // bits) → 16 tag bits, as listed in paper Table 2.
        let g = Geometry::paper_l2();
        assert_eq!(tag_bits(32, &g), 16);
        // 44 used bits of a 64-bit address → 28 tag bits.
        assert_eq!(tag_bits(44, &g), 28);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_rejected() {
        Geometry::new(48, 1024, 16);
    }
}
