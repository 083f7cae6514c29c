//! True-LRU recency tracking with hit-position (stack distance) queries.
//!
//! The paper's capacity-demand quantification (Formulas 1–3) relies on
//! the *stack property* of LRU [Mattson et al. 1970]: the set of blocks
//! resident in an A-way LRU set is a prefix of the recency stack, so a
//! hit at stack position `d` (1-based, MRU = 1) would be a hit in any
//! associativity `A ≥ d` and a miss in any `A < d`.
//!
//! `LruOrder` maintains the recency permutation of the ways of one set,
//! independent of what is stored in the ways, so the same structure
//! serves real sets, shadow sets and the deep profiler stacks.
//!
//! ## Packed representation
//!
//! For associativities up to 16 (which covers every real, shadow and
//! sweep geometry in this repo — the paper L2 slice is 16-way) the
//! permutation lives in a single `u64` as 16 nibbles: nibble `p` holds
//! the way index at stack position `p` (nibble 0 = MRU). `position` is
//! then a branch-free broadcast-XOR + zero-nibble scan, and
//! `touch`/`demote` are three shifts and two masks instead of a
//! `Vec::remove`/`insert` pair. Associativities 17–255 (deep profiler
//! stacks) keep the byte-vector representation.

use sim_mem::{StateError, StateReader};

/// `0x...11111`: broadcasts a nibble value across all 16 lanes.
const NIBBLE_LSB: u64 = 0x1111_1111_1111_1111;
/// `0x...88888`: the per-nibble detector bit for zero-nibble scans.
const NIBBLE_MSB: u64 = 0x8888_8888_8888_8888;

/// Find the 0-based stack position of `way` in a packed permutation of
/// `n` nibbles.
///
/// `bits ^ (way * NIBBLE_LSB)` zeroes exactly the nibble holding `way`
/// (the permutation contains it exactly once). The classic
/// `(x - 1̄) & !x & 8̄` trick marks zero nibbles; borrow propagation can
/// only create *false* marks **above** the true zero (all nibbles below
/// it are non-zero, so no borrow reaches it), hence the lowest marked
/// nibble is exactly the match and `trailing_zeros / 4` is its position.
#[inline]
fn packed_position(bits: u64, n: u8, way: usize) -> usize {
    assert!(way < n as usize, "way must be tracked by this LruOrder");
    let x = bits ^ (way as u64).wrapping_mul(NIBBLE_LSB);
    let marks = x.wrapping_sub(NIBBLE_LSB) & !x & NIBBLE_MSB;
    (marks.trailing_zeros() / 4) as usize
}

/// Low `4 * nibbles` bits set. `nibbles` must be ≤ 15 (callers only
/// ever mask below an existing nibble position).
#[inline]
fn low_nibble_mask(nibbles: usize) -> u64 {
    (1u64 << (4 * nibbles)) - 1
}

/// Recency order over `n` ways of a set: a `u64` nibble-permutation for
/// `n ≤ 16`, a byte vector MRU → LRU otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    /// Nibble `p` of `bits` is the way at stack position `p` (0 = MRU).
    /// Nibbles at positions ≥ `n` are always zero.
    Packed { bits: u64, n: u8 },
    /// `order[0]` is the MRU way; `order[n-1]` the LRU way.
    Wide(Vec<u8>),
}

/// Recency order over the `n` ways of a set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruOrder {
    repr: Repr,
}

impl LruOrder {
    /// Create the order for `n` ways; initially way 0 is MRU, way n-1 LRU.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1 && n <= u8::MAX as usize);
        let repr = if n <= 16 {
            let mut bits = 0u64;
            for p in 0..n {
                bits |= (p as u64) << (4 * p);
            }
            #[expect(clippy::cast_possible_truncation, reason = "this branch has n <= 16")]
            let n = n as u8;
            Repr::Packed { bits, n }
        } else {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "new() asserts n <= u8::MAX"
            )]
            let n = n as u8;
            Repr::Wide((0..n).collect())
        };
        LruOrder { repr }
    }

    /// Number of ways tracked.
    #[inline]
    pub fn ways(&self) -> usize {
        match &self.repr {
            Repr::Packed { n, .. } => *n as usize,
            Repr::Wide(order) => order.len(),
        }
    }

    /// The way at 0-based stack position `pos` (0 = MRU).
    #[inline]
    pub fn way_at(&self, pos: usize) -> usize {
        match &self.repr {
            Repr::Packed { bits, n } => {
                assert!(pos < *n as usize);
                ((bits >> (4 * pos)) & 0xF) as usize
            }
            Repr::Wide(order) => order[pos] as usize,
        }
    }

    /// 1-based stack position of `way` (1 = MRU). Panics if `way` is out
    /// of range.
    #[inline]
    pub fn position(&self, way: usize) -> usize {
        match &self.repr {
            Repr::Packed { bits, n } => packed_position(*bits, *n, way) + 1,
            #[expect(
                clippy::expect_used,
                reason = "documented contract: callers pass a way belonging to this set; a miss is a simulator bug worth crashing on"
            )]
            Repr::Wide(order) => {
                order
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("way must be tracked by this LruOrder")
                    + 1
            }
        }
    }

    /// Promote `way` to MRU, returning its previous 1-based position
    /// (the stack distance of the access that touched it).
    #[inline]
    pub fn touch(&mut self, way: usize) -> usize {
        match &mut self.repr {
            Repr::Packed { bits, n } => {
                let p = packed_position(*bits, *n, way);
                if p > 0 {
                    // Keep nibbles above p, shift the p nibbles below it
                    // up one lane, insert `way` at MRU. When p is the
                    // top lane there is nothing above to keep.
                    let keep = if p >= 15 {
                        0
                    } else {
                        *bits & !low_nibble_mask(p + 1)
                    };
                    let low = *bits & low_nibble_mask(p);
                    *bits = keep | (low << 4) | way as u64;
                }
                p + 1
            }
            Repr::Wide(order) => {
                #[expect(
                    clippy::expect_used,
                    reason = "documented contract: callers pass a way belonging to this set; a miss is a simulator bug worth crashing on"
                )]
                let pos = order
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("way must be tracked by this LruOrder");
                let w = order.remove(pos);
                order.insert(0, w);
                pos + 1
            }
        }
    }

    /// The current LRU way (replacement victim).
    #[inline]
    pub fn lru_way(&self) -> usize {
        match &self.repr {
            Repr::Packed { bits, n } => ((bits >> (4 * (*n as usize - 1))) & 0xF) as usize,
            #[expect(
                clippy::expect_used,
                reason = "associativity is at least 1, so the order vec is never empty"
            )]
            Repr::Wide(order) => *order.last().expect("non-empty order") as usize,
        }
    }

    /// Demote `way` to LRU position (used when invalidating a line so its
    /// way is reused first).
    #[inline]
    pub fn demote(&mut self, way: usize) {
        match &mut self.repr {
            Repr::Packed { bits, n } => {
                let p = packed_position(*bits, *n, way);
                let last = *n as usize - 1;
                if p < last {
                    // Remove nibble p (shift everything above it down one
                    // lane) and re-insert `way` at the LRU lane. The
                    // upper nibbles of `bits` are zero by invariant, so
                    // the down-shift cannot smear garbage into lanes
                    // p..last.
                    let low = *bits & low_nibble_mask(p);
                    let mid = (*bits >> (4 * (p + 1))) << (4 * p);
                    *bits = low | mid | ((way as u64) << (4 * last));
                }
            }
            Repr::Wide(order) => {
                #[expect(
                    clippy::expect_used,
                    reason = "documented contract: callers pass a way belonging to this set; a miss is a simulator bug worth crashing on"
                )]
                let pos = order
                    .iter()
                    .position(|&w| w as usize == way)
                    .expect("way must be tracked by this LruOrder");
                let w = order.remove(pos);
                order.push(w);
            }
        }
    }

    /// Iterate ways MRU → LRU.
    pub fn iter_mru_to_lru(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.ways()).map(move |p| self.way_at(p))
    }

    /// Append the order, one byte per way MRU → LRU.
    pub fn save_state(&self, out: &mut Vec<u8>) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "new() caps the way count at u8::MAX"
        )]
        out.extend(self.iter_mru_to_lru().map(|w| w as u8));
    }

    /// Read an order written by [`LruOrder::save_state`] over the same
    /// number of ways. Anything but a permutation of the ways is an
    /// error, and leaves the order unchanged.
    pub fn restore_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let order = r.bytes(self.ways())?;
        // One bit per way: at most 255 ways.
        let mut seen = [0u64; 4];
        for &w in order {
            let (word, bit) = (usize::from(w) / 64, 1u64 << (w % 64));
            if usize::from(w) >= order.len() || seen[word] & bit != 0 {
                return Err(StateError::Invalid("lru order"));
            }
            seen[word] |= bit;
        }
        self.repr = match &self.repr {
            Repr::Packed { n, .. } => Repr::Packed {
                bits: order
                    .iter()
                    .enumerate()
                    .map(|(p, &w)| u64::from(w) << (4 * p))
                    .sum(),
                n: *n,
            },
            Repr::Wide(_) => Repr::Wide(order.to_vec()),
        };
        Ok(())
    }
}

/// An unbounded-depth (up to `capacity`) LRU *tag stack* for stack
/// distance profiling: stores raw tags rather than way indices, evicting
/// the deepest entry on overflow. Used by the A_threshold-deep profiler
/// behind Figures 1–3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagStack {
    tags: Vec<u64>,
    capacity: usize,
}

impl TagStack {
    /// Create an empty stack bounded at `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1);
        TagStack {
            tags: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Reference `tag`. Returns `Some(distance)` (1-based) if the tag was
    /// present — i.e. the access would hit in any associativity ≥
    /// distance — or `None` for a cold/overflowed reference. Either way
    /// the tag becomes MRU.
    pub fn access(&mut self, tag: u64) -> Option<usize> {
        match self.tags.iter().position(|&t| t == tag) {
            Some(pos) => {
                self.tags.remove(pos);
                self.tags.insert(0, tag);
                Some(pos + 1)
            }
            None => {
                if self.tags.len() == self.capacity {
                    self.tags.pop();
                }
                self.tags.insert(0, tag);
                None
            }
        }
    }

    /// Number of resident tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// Whether the stack holds no tags.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Drop all tags (new sampling interval with cold stack, if desired).
    pub fn clear(&mut self) {
        self.tags.clear();
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_order_is_identity() {
        let o = LruOrder::new(4);
        assert_eq!(o.position(0), 1);
        assert_eq!(o.position(3), 4);
        assert_eq!(o.lru_way(), 3);
    }

    #[test]
    fn touch_promotes_and_reports_distance() {
        let mut o = LruOrder::new(4);
        assert_eq!(o.touch(2), 3, "way 2 was at position 3");
        assert_eq!(o.position(2), 1, "now MRU");
        assert_eq!(o.lru_way(), 3);
        assert_eq!(o.touch(3), 4);
        assert_eq!(o.lru_way(), 1, "way 1 is now least recent");
    }

    #[test]
    fn demote_moves_way_to_lru() {
        let mut o = LruOrder::new(4);
        o.touch(3);
        o.demote(3);
        assert_eq!(o.lru_way(), 3);
    }

    #[test]
    fn mru_iteration_order() {
        let mut o = LruOrder::new(3);
        o.touch(1);
        o.touch(2);
        let v: Vec<usize> = o.iter_mru_to_lru().collect();
        assert_eq!(v, vec![2, 1, 0]);
    }

    /// Reference implementation: the old byte-vector walk.
    struct RefOrder(Vec<usize>);

    impl RefOrder {
        fn new(n: usize) -> Self {
            RefOrder((0..n).collect())
        }
        fn touch(&mut self, way: usize) -> usize {
            let pos = self.0.iter().position(|&w| w == way).unwrap();
            let w = self.0.remove(pos);
            self.0.insert(0, w);
            pos + 1
        }
        fn demote(&mut self, way: usize) {
            let pos = self.0.iter().position(|&w| w == way).unwrap();
            let w = self.0.remove(pos);
            self.0.push(w);
        }
    }

    /// Drive the packed representation against the reference model with
    /// a deterministic pseudo-random op mix at the boundary widths.
    #[test]
    fn packed_matches_reference_model() {
        for n in [1usize, 2, 3, 4, 8, 15, 16] {
            let mut packed = LruOrder::new(n);
            let mut model = RefOrder::new(n);
            let mut state = 0x243f_6a88_85a3_08d3u64 ^ n as u64;
            for step in 0..2000 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let way = (state >> 33) as usize % n;
                if step % 7 == 3 {
                    packed.demote(way);
                    model.demote(way);
                } else {
                    assert_eq!(packed.touch(way), model.touch(way), "n={n} step={step}");
                }
                assert_eq!(
                    packed.iter_mru_to_lru().collect::<Vec<_>>(),
                    model.0,
                    "n={n} step={step}"
                );
                assert_eq!(packed.lru_way(), *model.0.last().unwrap());
                for w in 0..n {
                    assert_eq!(
                        packed.position(w),
                        model.0.iter().position(|&x| x == w).unwrap() + 1
                    );
                }
            }
        }
    }

    /// The wide (vec) fallback must behave identically at depth > 16.
    #[test]
    fn wide_fallback_matches_reference_model() {
        let n = 24;
        let mut wide = LruOrder::new(n);
        let mut model = RefOrder::new(n);
        let mut state = 0x1357_9bdf_2468_acefu64;
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let way = (state >> 33) as usize % n;
            assert_eq!(wide.touch(way), model.touch(way));
            assert_eq!(wide.iter_mru_to_lru().collect::<Vec<_>>(), model.0);
        }
    }

    #[test]
    fn full_sixteen_way_edge_lanes() {
        // Top-lane arithmetic (shift-by-64 hazards) at exactly 16 ways.
        let mut o = LruOrder::new(16);
        assert_eq!(o.touch(15), 16, "LRU way touched from the top lane");
        assert_eq!(o.position(15), 1);
        assert_eq!(o.lru_way(), 14);
        o.demote(15);
        assert_eq!(o.lru_way(), 15);
        assert_eq!(o.position(0), 1);
    }

    #[test]
    fn tag_stack_distances_cyclic_pattern() {
        // Cyclic access over d distinct tags hits at distance exactly d
        // once warm — the degenerate pattern exploited in the workload
        // models to pin block_required at d.
        let mut s = TagStack::new(32);
        let d = 5;
        for round in 0..4 {
            for t in 0..d {
                let got = s.access(t);
                if round == 0 {
                    assert_eq!(got, None, "cold");
                } else {
                    assert_eq!(
                        got,
                        Some(d.try_into().unwrap()),
                        "warm cyclic hits at depth d"
                    );
                }
            }
        }
    }

    #[test]
    fn tag_stack_overflow_drops_deepest() {
        let mut s = TagStack::new(2);
        s.access(1);
        s.access(2);
        s.access(3); // evicts tag 1
        assert_eq!(s.access(1), None, "evicted tag is cold again");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn tag_stack_mru_hit_distance_one() {
        let mut s = TagStack::new(8);
        s.access(9);
        assert_eq!(s.access(9), Some(1));
    }

    #[test]
    fn stack_property_monotonicity() {
        // For a random-ish reference string, hits counted at distance ≤ A
        // must be non-decreasing in A (Mattson's inclusion property).
        let mut s = TagStack::new(16);
        let refs = [
            3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4, 6, 2, 6,
        ];
        let mut hist = [0u64; 17];
        for &r in &refs {
            if let Some(d) = s.access(r) {
                hist[d] += 1;
            }
        }
        let mut cum = 0;
        let mut prev = 0;
        for h in hist.iter().take(17).skip(1) {
            cum += h;
            assert!(cum >= prev);
            prev = cum;
        }
    }
}
