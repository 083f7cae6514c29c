//! Quantification of set-level capacity demand — paper §2.1,
//! Formulas (1)–(5).
//!
//! * `block_required(S, I)` — Formula (3): the minimum associativity `A`
//!   at which the set's hits equal its hits at `A_threshold`.
//! * Buckets — `[1, A_threshold]` divided into `M` equal sub-ranges;
//!   `bucket_of` is the membership function `SF` of Formula (4).
//! * `BucketDistribution` — Formula (5): per-interval normalised bucket
//!   sizes, the quantity plotted in Figures 1–3.

use crate::stack_dist::SetHistogram;

/// Parameters of the demand quantification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandParams {
    /// Associativity treated as "infinite" (paper: 2 × A_baseline = 32).
    pub a_threshold: usize,
    /// Number of buckets `M` (paper: 8). Must divide `a_threshold`.
    pub m_buckets: usize,
}

impl DemandParams {
    /// Validated constructor: both values must be powers of two (paper
    /// restriction) and `M` must divide `A_threshold`.
    pub(crate) fn new(a_threshold: usize, m_buckets: usize) -> Self {
        assert!(
            a_threshold.is_power_of_two(),
            "A_threshold must be a power of two"
        );
        assert!(m_buckets.is_power_of_two(), "M must be a power of two");
        assert!(
            a_threshold.is_multiple_of(m_buckets),
            "M must divide A_threshold"
        );
        DemandParams {
            a_threshold,
            m_buckets,
        }
    }

    /// The paper's parameters: `A_threshold = 32`, `M = 8` → buckets
    /// `[1,4]`, `[5,8]`, …, `[29,32]`.
    pub fn paper() -> Self {
        DemandParams::new(32, 8)
    }

    /// Width of each bucket.
    #[inline]
    pub fn bucket_width(&self) -> usize {
        self.a_threshold / self.m_buckets
    }

    /// Inclusive range `[lo, hi]` of bucket `j` (1-based, per the paper).
    pub fn bucket_range(&self, j: usize) -> (usize, usize) {
        assert!((1..=self.m_buckets).contains(&j));
        let w = self.bucket_width();
        ((j - 1) * w + 1, j * w)
    }

    /// Bucket index (1-based) containing `block_required` — the
    /// membership function SF of Formula (4) evaluates to 1 exactly for
    /// this bucket.
    #[inline]
    pub fn bucket_of(&self, block_required: usize) -> usize {
        assert!(
            (1..=self.a_threshold).contains(&block_required),
            "block_required must lie in [1, A_threshold]"
        );
        (block_required - 1) / self.bucket_width() + 1
    }
}

/// `block_required(S, I)` per Formula (3): the minimum `A` such that
/// `hit_count(S, I, A) = hit_count(S, I, A_threshold)`.
///
/// A set with no hits at all (pure streaming) requires 1 block: the
/// condition `0 = 0` already holds at `A = 1`.
pub fn block_required(hist: &SetHistogram, params: &DemandParams) -> usize {
    let target = hist.hit_count(params.a_threshold);
    for a in 1..=params.a_threshold {
        if hist.hit_count(a) == target {
            return a;
        }
    }
    params.a_threshold
}

/// Per-interval distribution of set demand over buckets — Formula (5).
#[derive(Debug, Clone, PartialEq)]
pub struct BucketDistribution {
    /// `sizes[j-1] = size_bucket_j(I)` — fraction of sets in bucket j.
    pub sizes: Vec<f64>,
}

impl BucketDistribution {
    /// Compute the distribution from every set's interval histogram.
    pub fn from_histograms(hists: &[SetHistogram], params: &DemandParams) -> Self {
        let mut counts = vec![0u64; params.m_buckets];
        for h in hists {
            let br = block_required(h, params);
            counts[params.bucket_of(br) - 1] += 1;
        }
        let n = hists.len() as f64;
        BucketDistribution {
            sizes: counts.into_iter().map(|c| c as f64 / n).collect(),
        }
    }

    /// Sum of all bucket sizes (should be 1 up to rounding).
    pub fn total(&self) -> f64 {
        self.sizes.iter().sum()
    }

    /// Shannon-style non-uniformity score in [0, 1]: 0 when all sets land
    /// in one bucket, 1 when spread evenly over all buckets. Used by
    /// workload-model calibration tests.
    ///
    /// The entropy sums from `+0.0`: `f64`'s `Sum` starts from `-0.0`,
    /// so a single full bucket (`-1 · ln 1 = -0.0`) would score `-0.0`
    /// and print as `-0.00`.
    pub fn spread(&self) -> f64 {
        let m = self.sizes.len() as f64;
        let h = self
            .sizes
            .iter()
            .filter(|&&p| p > 0.0)
            .map(|&p| -p * p.ln())
            .fold(0.0, |h, x| h + x);
        if m <= 1.0 {
            0.0
        } else {
            h / m.ln()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack_dist::SetDemandProfiler;
    use sim_mem::BlockAddr;

    fn feed_cyclic(p: &mut SetDemandProfiler, set: usize, d: u64, rounds: usize) {
        for _ in 0..rounds {
            for t in 0..d {
                p.access(set, BlockAddr(t + set as u64 * 1000));
            }
        }
    }

    #[test]
    fn paper_buckets_match_figure_legend() {
        let p = DemandParams::paper();
        assert_eq!(p.bucket_width(), 4);
        assert_eq!(p.bucket_range(1), (1, 4));
        assert_eq!(p.bucket_range(2), (5, 8));
        assert_eq!(p.bucket_range(8), (29, 32));
    }

    #[test]
    fn bucket_of_boundaries() {
        let p = DemandParams::paper();
        assert_eq!(p.bucket_of(1), 1);
        assert_eq!(p.bucket_of(4), 1);
        assert_eq!(p.bucket_of(5), 2);
        assert_eq!(p.bucket_of(32), 8);
    }

    #[test]
    fn every_demand_in_exactly_one_bucket() {
        let p = DemandParams::paper();
        for br in 1..=32 {
            let j = p.bucket_of(br);
            let (lo, hi) = p.bucket_range(j);
            assert!((lo..=hi).contains(&br));
            // no adjacent bucket also contains it
            if j > 1 {
                let (_, hi_prev) = p.bucket_range(j - 1);
                assert!(br > hi_prev);
            }
            if j < 8 {
                let (lo_next, _) = p.bucket_range(j + 1);
                assert!(br < lo_next);
            }
        }
    }

    #[test]
    fn block_required_matches_cyclic_demand() {
        let params = DemandParams::paper();
        let mut prof = SetDemandProfiler::new(1, 32);
        feed_cyclic(&mut prof, 0, 11, 10);
        let br = block_required(prof.histogram(0), &params);
        assert_eq!(br, 11, "cyclic over 11 blocks requires exactly 11");
    }

    #[test]
    fn streaming_set_requires_one_block() {
        let params = DemandParams::paper();
        let mut prof = SetDemandProfiler::new(1, 32);
        // All-distinct references: zero hits anywhere.
        for t in 0..200u64 {
            prof.access(0, BlockAddr(t));
        }
        assert_eq!(block_required(prof.histogram(0), &params), 1);
    }

    #[test]
    fn distribution_sums_to_one() {
        let params = DemandParams::paper();
        let mut prof = SetDemandProfiler::new(8, 32);
        for s in 0..8 {
            feed_cyclic(&mut prof, s, (s as u64 % 4) * 8 + 2, 5);
        }
        let dist = prof.end_interval(|h| BucketDistribution::from_histograms(h, &params));
        assert!((dist.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distribution_separates_low_and_high_demand() {
        let params = DemandParams::paper();
        let mut prof = SetDemandProfiler::new(4, 32);
        feed_cyclic(&mut prof, 0, 2, 10); // bucket 1
        feed_cyclic(&mut prof, 1, 3, 10); // bucket 1
        feed_cyclic(&mut prof, 2, 30, 10); // bucket 8
        feed_cyclic(&mut prof, 3, 18, 10); // bucket 5
        let dist = prof.end_interval(|h| BucketDistribution::from_histograms(h, &params));
        assert_eq!(dist.sizes, [0.5, 0.0, 0.0, 0.0, 0.25, 0.0, 0.0, 0.25]);
    }

    #[test]
    fn spread_zero_when_uniform_demand() {
        let params = DemandParams::paper();
        let mut prof = SetDemandProfiler::new(4, 32);
        for s in 0..4 {
            feed_cyclic(&mut prof, s, 3, 10);
        }
        let dist = prof.end_interval(|h| BucketDistribution::from_histograms(h, &params));
        assert_eq!(dist.spread(), 0.0);
    }

    /// One full bucket scores exactly `+0.0`, sign bit clear, so it
    /// never prints as `-0.00`.
    #[test]
    fn spread_of_one_full_bucket_is_positive_zero() {
        for sizes in [vec![1.0, 0.0, 0.0], vec![0.0, 1.0], vec![1.0], vec![]] {
            let spread = BucketDistribution { sizes }.spread();
            assert_eq!(spread.to_bits(), 0.0f64.to_bits(), "{spread}");
            assert_eq!(format!("{spread:.2}"), "0.00");
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn invalid_bucket_count_rejected() {
        // 32 not divisible... actually 8 divides 32; use non-dividing pair
        // that still is a power of two: M=64 > A=32.
        DemandParams::new(32, 64);
    }
}
