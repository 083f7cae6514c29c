//! The G/T (giver/taker) bit vector (paper §3.1.3).
//!
//! One bit per L2 set, latched from the per-set saturating-counter MSBs
//! at the end of each Identification stage. Addressable independently of
//! the cache arrays so peers can consult it during snoops.

/// A per-slice G/T vector. `true` = taker, `false` = giver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GtVector {
    bits: Vec<bool>,
}

impl GtVector {
    /// All-giver vector (the state before the first identification
    /// stage completes: nothing has demonstrated extra demand yet).
    pub fn all_givers(num_sets: usize) -> Self {
        GtVector {
            bits: vec![false; num_sets],
        }
    }

    /// Latch a fresh verdict vector.
    pub fn latch(&mut self, verdicts: Vec<bool>) {
        assert_eq!(verdicts.len(), self.bits.len());
        self.bits = verdicts;
    }

    /// Whether `set` is a taker.
    #[inline]
    pub fn is_taker(&self, set: usize) -> bool {
        self.bits[set]
    }

    /// Whether `set` is a giver.
    #[inline]
    pub fn is_giver(&self, set: usize) -> bool {
        !self.bits[set]
    }

    /// Number of taker sets.
    pub fn taker_count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the vector is empty (never in practice).
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }
}

/// Outcome of consulting a peer's G/T vector for a spilled block's home
/// index — the three cases of paper Fig. 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupCase {
    /// Case 1: the same-index set is a giver → receive there, f = 0.
    SameIndex,
    /// Case 2: same-index set is a taker but the last-bit-flipped set is
    /// a giver → receive there, f = 1.
    FlippedIndex,
    /// Case 3: both adjacent sets are takers → this cache cannot help.
    NoMatch,
}

impl GtVector {
    /// Evaluate the Fig. 8 grouping decision for home set `set`.
    /// When `flipping` is disabled (ablation), case 2 degrades to
    /// [`GroupCase::NoMatch`].
    pub fn group_case(&self, set: usize, flipping: bool) -> GroupCase {
        self.group_case_wide(set, if flipping { 1 } else { 0 })
    }

    /// Generalised grouping with `flip_width` low index bits eligible
    /// for flipping (the paper's scheme is `flip_width = 1`; wider
    /// widths explore the paper's future-work direction of more flexible
    /// grouping at the cost of `flip_width` f bits per line and up to
    /// `2^w − 1` extra G/T lookups). Neighbours are probed in Gray-ish
    /// nearest-first order: s^1, s^2, s^3, …
    pub fn group_case_wide(&self, set: usize, flip_width: u32) -> GroupCase {
        if self.is_giver(set) {
            return GroupCase::SameIndex;
        }
        for mask in 1..(1usize << flip_width) {
            let partner = set ^ mask;
            if partner < self.len() && self.is_giver(partner) {
                return GroupCase::FlippedIndex;
            }
        }
        GroupCase::NoMatch
    }

    /// The partner set selected by [`GtVector::group_case_wide`] when it
    /// returns [`GroupCase::FlippedIndex`].
    pub fn flip_partner(&self, set: usize, flip_width: u32) -> Option<usize> {
        if self.is_giver(set) {
            return None;
        }
        (1..(1usize << flip_width))
            .map(|mask| set ^ mask)
            .find(|&p| p < self.len() && self.is_giver(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_givers() {
        let v = GtVector::all_givers(8);
        assert_eq!(v.taker_count(), 0);
        assert!(v.is_giver(3));
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn latch_replaces_bits() {
        let mut v = GtVector::all_givers(4);
        v.latch(vec![true, false, true, true]);
        assert!(v.is_taker(0));
        assert!(v.is_giver(1));
        assert_eq!(v.taker_count(), 3);
    }

    #[test]
    fn group_case_same_index() {
        let mut v = GtVector::all_givers(4);
        v.latch(vec![false, true, true, true]);
        assert_eq!(v.group_case(0, true), GroupCase::SameIndex);
    }

    #[test]
    fn group_case_flipped() {
        let mut v = GtVector::all_givers(4);
        // set 2 taker, set 3 giver.
        v.latch(vec![true, true, true, false]);
        assert_eq!(v.group_case(2, true), GroupCase::FlippedIndex);
        assert_eq!(
            v.group_case(2, false),
            GroupCase::NoMatch,
            "ablation disables case 2"
        );
    }

    #[test]
    fn group_case_no_match() {
        let mut v = GtVector::all_givers(4);
        v.latch(vec![true, true, true, true]);
        assert_eq!(v.group_case(1, true), GroupCase::NoMatch);
    }

    #[test]
    #[should_panic]
    fn latch_length_mismatch_panics() {
        GtVector::all_givers(4).latch(vec![true]);
    }

    #[test]
    fn wide_flipping_reaches_further_neighbours() {
        let mut v = GtVector::all_givers(8);
        // Sets 0..3 takers; set 6 is the only giver.
        v.latch(vec![true, true, true, true, true, true, false, true]);
        // Width 1 from set 4: partner 5 is a taker → no match.
        assert_eq!(v.group_case_wide(4, 1), GroupCase::NoMatch);
        // Width 2 reaches 4^2 = 6 → giver found.
        assert_eq!(v.group_case_wide(4, 2), GroupCase::FlippedIndex);
        assert_eq!(v.flip_partner(4, 2), Some(6));
    }

    #[test]
    fn wide_flipping_width_zero_is_same_index_only() {
        let mut v = GtVector::all_givers(2);
        v.latch(vec![true, false]);
        assert_eq!(v.group_case_wide(0, 0), GroupCase::NoMatch);
        assert_eq!(v.group_case_wide(1, 0), GroupCase::SameIndex);
    }
}
