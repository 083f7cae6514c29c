//! The set-level capacity-demand characterisation — paper §2.2 and
//! Figures 1–3.
//!
//! Methodology (mirroring the paper): run a benchmark's address stream
//! through the Table 4 L1, feed the L1 misses (the L2 access stream)
//! into a per-set stack-distance profiler with `A_threshold = 32`, slice
//! the stream into sampling intervals, and report each interval's
//! normalised bucket sizes (Formula 5).

use sim_cache::{BucketDistribution, DemandParams, SetAssocCache, SetDemandProfiler};
use sim_mem::{Geometry, IntervalClock, OpStream, SamplingPlan};
use snug_workloads::Benchmark;

/// Configuration of one characterisation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CharacterizeConfig {
    /// Interval plan (paper: 1000 × 100 K L2 accesses).
    pub plan: SamplingPlan,
    /// Demand quantification parameters (paper: A_thr = 32, M = 8).
    pub params: DemandParams,
    /// L1 geometry filtering the stream (paper Table 4 L1D).
    pub l1: Geometry,
    /// L2 geometry being profiled (paper Table 4 slice).
    pub l2: Geometry,
}

impl CharacterizeConfig {
    /// The paper's full methodology (100 M L2 accesses — minutes of CPU).
    pub fn paper() -> Self {
        CharacterizeConfig {
            plan: SamplingPlan::paper(),
            params: DemandParams::paper(),
            l1: Geometry::paper_l1(),
            l2: Geometry::paper_l2(),
        }
    }

    /// A scaled-down plan with the same structure (for tests/benches):
    /// `intervals` × `accesses` L2 accesses.
    pub fn scaled(intervals: usize, accesses: usize) -> Self {
        CharacterizeConfig {
            plan: SamplingPlan::scaled(intervals, accesses),
            ..Self::paper()
        }
    }
}

/// The result: one bucket distribution per sampling interval — the data
/// behind one of the paper's stacked-area Figures 1–3.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandCharacterization {
    /// Benchmark name.
    pub benchmark: String,
    /// Parameters used.
    pub params: DemandParams,
    /// Per-interval distributions.
    pub intervals: Vec<BucketDistribution>,
}

impl DemandCharacterization {
    /// Mean size of bucket `j` (1-based) across all intervals.
    pub(crate) fn mean_bucket(&self, j: usize) -> f64 {
        let s: f64 = self.intervals.iter().map(|d| d.sizes[j - 1]).sum();
        s / self.intervals.len() as f64
    }

    /// Mean fraction of sets in the lowest bucket (1–4 blocks).
    pub fn mean_low_demand(&self) -> f64 {
        self.mean_bucket(1)
    }

    /// Mean fraction of sets whose demand exceeds the baseline
    /// associativity (takers under doubling).
    pub fn mean_above_baseline(&self, a_baseline: usize) -> f64 {
        let first = a_baseline / self.params.bucket_width() + 1;
        (first..=self.params.m_buckets)
            .map(|j| self.mean_bucket(j))
            .sum()
    }

    /// Mean non-uniformity spread across intervals (0 = uniform). The
    /// sum starts from `+0.0`, not `Sum`'s `-0.0`, so an all-uniform
    /// benchmark's mean is `+0.0`.
    pub fn mean_spread(&self) -> f64 {
        let s = self
            .intervals
            .iter()
            .map(|d| d.spread())
            .fold(0.0, |s, x| s + x);
        s / self.intervals.len() as f64
    }

    /// Render the stacked-distribution series as CSV: one row per
    /// interval, one column per bucket (the exact data of Figs. 1–3).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("interval");
        for j in 1..=self.params.m_buckets {
            let (lo, hi) = self.params.bucket_range(j);
            out.push_str(&format!(",{lo}-{hi}"));
        }
        out.push('\n');
        for (i, d) in self.intervals.iter().enumerate() {
            out.push_str(&(i + 1).to_string());
            for s in &d.sizes {
                out.push_str(&format!(",{s:.4}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Run the characterisation for one benchmark.
pub fn characterize(bench: Benchmark, cfg: &CharacterizeConfig) -> DemandCharacterization {
    let mut stream = bench.spec().stream(cfg.l2, 0);
    characterize_stream(&mut stream, cfg, bench.name())
}

/// Run the characterisation over any op stream.
pub(crate) fn characterize_stream(
    stream: &mut dyn OpStream,
    cfg: &CharacterizeConfig,
    name: &str,
) -> DemandCharacterization {
    let mut l1 = SetAssocCache::new(cfg.l1);
    let mut profiler = SetDemandProfiler::new(cfg.l2.num_sets as usize, cfg.params.a_threshold);
    let mut clock = IntervalClock::new(cfg.plan);
    let mut intervals = Vec::with_capacity(cfg.plan.intervals);
    while !clock.finished() {
        let op = stream.next_op();
        let block = op.access.addr.block(cfg.l2.block_bytes);
        // L1 filter: only L1 misses reach the L2 (paper methodology).
        if l1.access(block, op.access.kind.is_write()).hit {
            continue;
        }
        profiler.access(cfg.l2.set_index(block), block);
        if clock.tick().is_some() {
            let params = cfg.params;
            intervals
                .push(profiler.end_interval(|h| BucketDistribution::from_histograms(h, &params)));
        }
    }
    DemandCharacterization {
        benchmark: name.to_string(),
        params: cfg.params,
        intervals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(bench: Benchmark) -> DemandCharacterization {
        // Small but big enough for 1024 sets to warm: 8 × 60 K accesses.
        characterize(bench, &CharacterizeConfig::scaled(8, 60_000))
    }

    #[test]
    fn ammp_shows_strong_nonuniformity() {
        let c = quick(Benchmark::Ammp);
        // Fig. 1: ~40 % of sets need 1–4 blocks...
        assert!(
            (c.mean_low_demand() - 0.40).abs() < 0.12,
            "ammp low-demand fraction {:.3}",
            c.mean_low_demand()
        );
        // ...while a large fraction exceeds the 16-way baseline.
        assert!(
            c.mean_above_baseline(16) > 0.30,
            "ammp above-baseline fraction {:.3}",
            c.mean_above_baseline(16)
        );
        assert!(c.mean_spread() > 0.4, "spread {:.3}", c.mean_spread());
    }

    /// A benchmark whose every interval sits in one bucket has a mean
    /// spread of `+0.0` (sign bit clear), which prints as `0.00`.
    #[test]
    fn single_bucket_mean_spread_is_positive_zero() {
        let params = DemandParams::paper();
        let mut full = vec![0.0; params.m_buckets];
        full[0] = 1.0;
        let c = DemandCharacterization {
            benchmark: "applu".into(),
            params,
            intervals: vec![BucketDistribution { sizes: full }; 3],
        };
        let spread = c.mean_spread();
        assert_eq!(spread.to_bits(), 0.0f64.to_bits(), "{spread}");
        assert_eq!(format!("{spread:.2}"), "0.00");
    }

    #[test]
    fn applu_is_uniform_low_demand() {
        let c = quick(Benchmark::Applu);
        // Fig. 3: almost all sets require only 1–4 blocks.
        assert!(
            c.mean_low_demand() > 0.95,
            "applu low-demand {:.3}",
            c.mean_low_demand()
        );
        assert!(c.mean_above_baseline(16) < 0.02);
    }

    #[test]
    fn vpr_is_uniform_high_demand() {
        // vpr's pools (22–34 blocks) mostly sit within A_threshold = 32:
        // doubling capacity recovers its far hits, so block_required
        // lands above the 16-way baseline.
        let c = quick(Benchmark::Vpr);
        assert!(
            c.mean_low_demand() < 0.05,
            "vpr low-demand {:.3}",
            c.mean_low_demand()
        );
        assert!(
            c.mean_above_baseline(16) > 0.65,
            "vpr high {:.3}",
            c.mean_above_baseline(16)
        );
    }

    #[test]
    fn mcf_is_uniform_and_saturates_the_threshold() {
        // mcf's pools (44–64 blocks) exceed A_threshold = 32: its random
        // far re-references produce hits at every depth up to the
        // threshold, so block_required saturates high — uniformly across
        // sets (Table 6: class C), with no low-demand (giver) mass.
        let c = quick(Benchmark::Mcf);
        assert!(
            c.mean_low_demand() < 0.1,
            "mcf low-demand {:.3}",
            c.mean_low_demand()
        );
        assert!(
            c.mean_above_baseline(16) > 0.8,
            "mcf saturates high buckets: {:.3}",
            c.mean_above_baseline(16)
        );
    }

    #[test]
    fn distributions_normalised_per_interval() {
        let c = quick(Benchmark::Vortex);
        for d in &c.intervals {
            assert!((d.total() - 1.0).abs() < 1e-9);
        }
        assert_eq!(c.intervals.len(), 8);
    }

    #[test]
    fn csv_has_interval_rows_and_bucket_columns() {
        let c = quick(Benchmark::Gzip);
        let csv = c.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "interval,1-4,5-8,9-12,13-16,17-20,21-24,25-28,29-32"
        );
        assert_eq!(lines.len(), 9, "header + 8 intervals");
    }
}
