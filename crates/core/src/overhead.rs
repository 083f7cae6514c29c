//! Storage-overhead analysis — paper §3.4, Formula (6), Tables 2–3.
//!
//! `overhead = shadow_set_bits / (shadow_set_bits + l2_set_bits)`,
//! where a shadow entry holds {tag, valid, LRU} plus the per-set
//! saturating counter (k bits) and the modulo-p counter (log₂ p bits),
//! and an L2 line holds {tag, valid, dirty, CC, f, LRU, data} plus the
//! per-set G/T bit.

/// Parameters of the overhead computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadParams {
    /// Usable physical address bits (paper Table 2: 32; Table 3 also
    /// evaluates 44 used bits of a 64-bit address).
    pub address_bits: u32,
    /// Cache capacity in bytes (1 MB).
    pub capacity_bytes: u64,
    /// Line size in bytes (64 or 128).
    pub block_bytes: u64,
    /// Associativity (16).
    pub assoc: u64,
    /// Saturating-counter width k (4).
    pub counter_bits: u32,
    /// Modulo-p counter width log₂ p (3 for p = 8).
    pub mod_p_bits: u32,
}

impl OverheadParams {
    /// Paper Table 2 baseline: 32-bit addresses, 1 MB, 64 B lines,
    /// 16-way, k = 4, p = 8.
    pub fn paper() -> Self {
        OverheadParams {
            address_bits: 32,
            capacity_bytes: 1 << 20,
            block_bytes: 64,
            assoc: 16,
            counter_bits: 4,
            mod_p_bits: 3,
        }
    }

    /// Number of sets.
    pub(crate) fn num_sets(&self) -> u64 {
        self.capacity_bytes / (self.block_bytes * self.assoc)
    }

    /// Architectural tag width.
    pub(crate) fn tag_bits(&self) -> u32 {
        let offset = self.block_bytes.trailing_zeros();
        let index = self.num_sets().trailing_zeros();
        self.address_bits - offset - index
    }

    /// LRU field width per line (paper Table 2: 4 bits for 16 ways).
    pub(crate) fn lru_bits(&self) -> u32 {
        (self.assoc as f64).log2().ceil() as u32
    }

    /// Bits in one shadow set: assoc × {tag, valid, LRU} + saturating
    /// counter + modulo-p counter.
    pub fn shadow_set_bits(&self) -> u64 {
        self.assoc * (self.tag_bits() as u64 + 1 + self.lru_bits() as u64)
            + self.counter_bits as u64
            + self.mod_p_bits as u64
    }

    /// Bits in one L2 set: assoc × {tag, v, d, CC, f, LRU, data} + the
    /// per-set G/T bit.
    pub(crate) fn l2_set_bits(&self) -> u64 {
        self.assoc * (self.tag_bits() as u64 + 4 + self.lru_bits() as u64 + self.block_bytes * 8)
            + 1
    }

    /// Formula (6): the SNUG storage overhead in [0, 1].
    pub fn storage_overhead(&self) -> f64 {
        let s = self.shadow_set_bits() as f64;
        let l = self.l2_set_bits() as f64;
        s / (s + l)
    }
}

/// Reproduce Table 3: overhead for {32-bit, 64-bit(44 used)} addresses ×
/// {64 B, 128 B} lines at fixed 1 MB capacity. Rows are
/// `(address_bits, block_bytes, overhead)`.
pub fn table3() -> Vec<(u32, u64, f64)> {
    let mut rows = Vec::new();
    for &block in &[64u64, 128] {
        for &addr in &[32u32, 44] {
            let p = OverheadParams {
                address_bits: addr,
                block_bytes: block,
                ..OverheadParams::paper()
            };
            rows.push((addr, block, p.storage_overhead()));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_fields_match_table2() {
        let p = OverheadParams::paper();
        assert_eq!(p.num_sets(), 1024);
        assert_eq!(p.tag_bits(), 16);
        assert_eq!(p.lru_bits(), 4);
    }

    #[test]
    fn baseline_overhead_is_3_9_percent() {
        let p = OverheadParams::paper();
        let o = p.storage_overhead() * 100.0;
        assert!(
            (o - 3.9).abs() < 0.15,
            "paper §3.4 reports 3.9 %, got {o:.2} %"
        );
    }

    #[test]
    fn table3_matches_paper() {
        // Paper Table 3: 64 B/32-bit → 3.9 %; 64 B/44-bit → 5.8 %;
        // 128 B/32-bit → 2.1 %; 128 B/44-bit → 3.1 %.
        let expect = [
            (32u32, 64u64, 3.9),
            (44, 64, 5.8),
            (32, 128, 2.1),
            (44, 128, 3.1),
        ];
        let rows = table3();
        for (addr, block, pct) in expect {
            let got = rows
                .iter()
                .find(|(a, b, _)| *a == addr && *b == block)
                .map(|(_, _, o)| o * 100.0)
                .expect("row present");
            assert!(
                (got - pct).abs() < 0.25,
                "addr {addr}, block {block}: paper {pct} %, got {got:.2} %"
            );
        }
    }

    #[test]
    fn longer_addresses_increase_overhead() {
        let p32 = OverheadParams::paper();
        let p44 = OverheadParams {
            address_bits: 44,
            ..p32
        };
        assert!(p44.storage_overhead() > p32.storage_overhead());
    }

    #[test]
    fn larger_blocks_decrease_overhead() {
        let p64 = OverheadParams::paper();
        let p128 = OverheadParams {
            block_bytes: 128,
            ..p64
        };
        assert!(p128.storage_overhead() < p64.storage_overhead());
    }
}
