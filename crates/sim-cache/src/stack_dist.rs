//! Per-set LRU stack-distance profiling (Mattson et al., 1970).
//!
//! This is the measurement instrument behind the paper's characterisation
//! (§2.1–2.2): for every set it maintains an `A_threshold`-deep LRU tag
//! stack and a histogram of hit positions per sampling interval. Thanks
//! to the LRU stack property, `hit_count(S, I, A)` for *every*
//! associativity `A ≤ A_threshold` is recovered from one pass.

use crate::lru::TagStack;
use sim_mem::BlockAddr;

/// Per-set hit-position histogram for one sampling interval.
///
/// `positions[d]` counts hits at stack distance `d` (1-based);
/// `positions[0]` counts cold/beyond-threshold references (misses even at
/// `A_threshold`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SetHistogram {
    positions: Vec<u64>,
}

impl SetHistogram {
    fn new(a_threshold: usize) -> Self {
        SetHistogram {
            positions: vec![0; a_threshold + 1],
        }
    }

    /// Hits at distances `1..=a` — the paper's `hit_count(S, I, A)`.
    pub fn hit_count(&self, a: usize) -> u64 {
        self.positions[1..=a.min(self.positions.len() - 1)]
            .iter()
            .sum()
    }

    /// References that missed even at `A_threshold` (compulsory-ish).
    pub fn cold(&self) -> u64 {
        self.positions[0]
    }

    /// Total references recorded.
    pub fn total(&self) -> u64 {
        self.positions.iter().sum()
    }

    /// Raw histogram access (index = distance; 0 = cold).
    pub fn raw(&self) -> &[u64] {
        &self.positions
    }

    fn record(&mut self, distance: Option<usize>) {
        match distance {
            Some(d) if d < self.positions.len() => self.positions[d] += 1,
            _ => self.positions[0] += 1,
        }
    }

    fn clear(&mut self) {
        self.positions.iter_mut().for_each(|p| *p = 0);
    }
}

/// Profiles the set-level capacity demand of an L2 access stream.
#[derive(Debug, Clone)]
pub struct SetDemandProfiler {
    a_threshold: usize,
    num_sets: usize,
    stacks: Vec<TagStack>,
    hists: Vec<SetHistogram>,
}

impl SetDemandProfiler {
    /// Create a profiler for `num_sets` sets with stacks `a_threshold`
    /// deep. The paper uses `num_sets = 1024`,
    /// `a_threshold = 2 × A_baseline = 32`.
    pub fn new(num_sets: usize, a_threshold: usize) -> Self {
        assert!(num_sets >= 1 && a_threshold >= 1);
        SetDemandProfiler {
            a_threshold,
            num_sets,
            stacks: (0..num_sets).map(|_| TagStack::new(a_threshold)).collect(),
            hists: (0..num_sets)
                .map(|_| SetHistogram::new(a_threshold))
                .collect(),
        }
    }

    /// The paper's configuration for the baseline L2 (1024 sets, 32-deep).
    pub fn paper() -> Self {
        SetDemandProfiler::new(1024, 32)
    }

    /// Record one L2 access to `set` for `block`.
    pub fn access(&mut self, set: usize, block: BlockAddr) {
        let d = self.stacks[set].access(block.0);
        self.hists[set].record(d);
    }

    /// Histogram for `set` in the current interval.
    pub fn histogram(&self, set: usize) -> &SetHistogram {
        &self.hists[set]
    }

    /// Finish the current interval: hand the histograms to `f` and clear
    /// them. The tag stacks stay warm across intervals (as in a real
    /// monitoring structure).
    pub fn end_interval<R>(&mut self, f: impl FnOnce(&[SetHistogram]) -> R) -> R {
        let r = f(&self.hists);
        for h in &mut self.hists {
            h.clear();
        }
        r
    }

    /// Number of sets profiled.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Stack depth (`A_threshold`).
    pub fn a_threshold(&self) -> usize {
        self.a_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(x: u64) -> BlockAddr {
        BlockAddr(x)
    }

    #[test]
    fn hit_count_monotone_in_a() {
        let mut p = SetDemandProfiler::new(1, 8);
        let refs = [1u64, 2, 3, 1, 2, 3, 4, 1, 4, 2, 5, 1];
        for &r in &refs {
            p.access(0, b(r));
        }
        let h = p.histogram(0);
        let mut prev = 0;
        for a in 1..=8 {
            let c = h.hit_count(a);
            assert!(c >= prev, "stack property violated at A={a}");
            prev = c;
        }
        assert_eq!(h.total(), refs.len() as u64);
    }

    #[test]
    fn cyclic_pattern_concentrates_at_d() {
        let mut p = SetDemandProfiler::new(1, 32);
        let d = 6u64;
        for round in 0..10 {
            for t in 0..d {
                let _ = round;
                p.access(0, b(t));
            }
        }
        let h = p.histogram(0);
        // 9 warm rounds × 6 tags hit at distance exactly 6.
        assert_eq!(h.raw()[6], 54);
        assert_eq!(h.cold(), 6, "first round is cold");
        assert_eq!(h.hit_count(5), 0);
        assert_eq!(h.hit_count(6), 54);
    }

    #[test]
    fn interval_clears_histograms_keeps_stacks() {
        let mut p = SetDemandProfiler::new(1, 8);
        p.access(0, b(1));
        p.access(0, b(1));
        let total = p.end_interval(|h| h[0].total());
        assert_eq!(total, 2);
        assert_eq!(p.histogram(0).total(), 0, "histogram cleared");
        // Stack is warm: the next access to b(1) is a hit at distance 1.
        p.access(0, b(1));
        assert_eq!(p.histogram(0).raw()[1], 1);
    }

    #[test]
    fn sets_profiled_independently() {
        let mut p = SetDemandProfiler::new(2, 4);
        p.access(0, b(1));
        p.access(1, b(1));
        p.access(0, b(1));
        assert_eq!(p.histogram(0).hit_count(4), 1);
        assert_eq!(p.histogram(1).hit_count(4), 0);
    }

    #[test]
    fn beyond_threshold_counts_cold() {
        let mut p = SetDemandProfiler::new(1, 2);
        p.access(0, b(1));
        p.access(0, b(2));
        p.access(0, b(3)); // evicts 1 from the 2-deep stack
        p.access(0, b(1)); // would be distance 3 > threshold → cold
        assert_eq!(p.histogram(0).cold(), 4);
    }
}
