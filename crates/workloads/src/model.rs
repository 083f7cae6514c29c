//! The synthetic workload engine.
//!
//! SPEC CPU2000 binaries and traces are not available offline, so each
//! benchmark the paper evaluates is replaced by a synthetic address-
//! stream generator calibrated to the *set-level capacity-demand
//! profile* the paper reports for it (Table 6 classes; Figs. 1–3 for
//! ammp/vortex/applu). The SNUG/DSR/CC mechanisms respond only to this
//! profile, so a stream that matches it exercises the same policy
//! behaviour (the crate-level docs state the substitution argument).
//!
//! A benchmark model assigns every L2 set `s` a demand `d(s)` — the
//! number of distinct blocks that cycle through the set — drawn from a
//! mixture of ranges. References to a set follow a near/far mixture:
//!
//! * **far** references mix a cyclic walk over the set's block pool
//!   (loop-like reuse whose re-references arrive predictably soon after
//!   eviction — the pattern victim caching exploits) with uniform random
//!   picks (so LRU stack distances spread over `1..=d(s)` and hit rates
//!   degrade gracefully instead of falling off a cliff at the
//!   associativity); `block_required ≈ d(s)` either way, pinning the
//!   set's Fig. 1-style bucket;
//! * **near** references re-touch recently used blocks, producing
//!   shallow-distance hits (real programs hit at a spread of depths, and
//!   these hits are what careless spilling destroys);
//! * consecutive references **burst** on the same block (spatial
//!   locality within a line), which is what gives the L1 its hit rate.

use rand::rngs::SmallRng;
use rand::{Divisor, Rng, RngCore, SeedableRng};
use sim_mem::state::{put_count, put_f64, put_u16, put_u32, put_u64};
use sim_mem::{Access, AccessKind, Addr, CoreOp, Geometry, OpStream, StateError, StateReader};

/// One component of a per-set demand mixture: `weight` fraction of sets
/// get a demand drawn uniformly from `lo..=hi` blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandComponent {
    /// Fraction of sets (weights in a profile are normalised).
    pub weight: f64,
    /// Minimum demand (blocks).
    pub lo: u16,
    /// Maximum demand (blocks), inclusive.
    pub hi: u16,
}

impl DemandComponent {
    /// Convenience constructor.
    pub(crate) const fn new(weight: f64, lo: u16, hi: u16) -> Self {
        DemandComponent { weight, lo, hi }
    }
}

/// A per-set demand profile for one program phase.
#[derive(Debug, Clone, PartialEq)]
pub struct DemandProfile {
    /// The mixture. Weights are normalised at assignment time.
    pub components: Vec<DemandComponent>,
    /// Fraction of references that are near-reuse (shallow LRU distance).
    pub near_fraction: f64,
    /// How far back near references reach (in blocks).
    pub near_window: usize,
}

impl DemandProfile {
    /// Uniform demand profile (class C/D): every set in `lo..=hi`.
    #[cfg(test)]
    pub(crate) fn uniform(lo: u16, hi: u16, near_fraction: f64) -> Self {
        DemandProfile {
            components: vec![DemandComponent::new(1.0, lo, hi)],
            near_fraction,
            near_window: 4,
        }
    }

    /// Assign a demand value to every set, deterministically from `seed`.
    /// The same seed yields the same per-set map — co-scheduled copies of
    /// one benchmark share their demand *profile* (it is a property of
    /// the program) even though their address spaces are disjoint.
    #[expect(
        clippy::unwrap_used,
        reason = "mixture models are built with at least one component"
    )]
    #[expect(
        clippy::unreachable,
        reason = "the last-component guard always returns on the final iteration"
    )]
    pub(crate) fn assign(&self, num_sets: usize, seed: u64) -> Vec<u16> {
        let total: f64 = self.components.iter().map(|c| c.weight).sum();
        assert!(total > 0.0, "profile must have positive weight");
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..num_sets)
            .map(|_| {
                let mut pick = rng.gen::<f64>() * total;
                for c in &self.components {
                    if pick < c.weight || std::ptr::eq(c, self.components.last().unwrap()) {
                        return rng.gen_range(c.lo..=c.hi.max(c.lo));
                    }
                    pick -= c.weight;
                }
                unreachable!("mixture sampling fell through")
            })
            .collect()
    }
}

/// One phase of a benchmark: a fraction of the phase cycle spent under a
/// given profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Fraction of the phase cycle (normalised across phases).
    pub fraction: f64,
    /// Demand profile during the phase.
    pub profile: DemandProfile,
}

/// The reference-pattern family of a benchmark.
#[derive(Debug, Clone, PartialEq)]
pub enum Pattern {
    /// Pool-based reuse: per-set block pools sized by the demand profile,
    /// cycled far/near. One or more phases.
    Pooled {
        /// The phase schedule (repeats cyclically).
        phases: Vec<Phase>,
        /// Accesses per full phase cycle.
        cycle_accesses: u64,
    },
    /// Pure streaming (the paper's `applu`, Fig. 3): sequential blocks,
    /// never revisited. All sets show demand 1–4 and nothing but
    /// compulsory misses.
    Streaming,
}

/// A complete benchmark model.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkSpec {
    /// Benchmark name (e.g. "ammp").
    pub name: String,
    /// Reference pattern.
    pub pattern: Pattern,
    /// Mean non-memory instructions between references.
    pub gap_mean: u32,
    /// Fraction of references that are stores.
    pub write_fraction: f64,
    /// Fraction of loads whose consumers immediately depend on them
    /// (pointer chasing): their miss latency is fully exposed instead of
    /// overlapping. High for mcf/art, low for streaming codes.
    pub dependent_fraction: f64,
    /// Mean number of extra back-to-back references to the same block
    /// (spatial locality within a 64 B line). This is what the L1
    /// absorbs.
    pub burst_mean: u32,
    /// Base seed: fixes the demand map and the reference sequence.
    pub seed: u64,
}

impl BenchmarkSpec {
    /// Instantiate an [`OpStream`] for one core.
    ///
    /// * `geo` — the L2 slice geometry the demand profile targets;
    /// * `core` — used to give each co-scheduled copy a disjoint address
    ///   space (multiprogrammed workloads share no data) and decorrelated
    ///   reference interleaving, while the per-set demand map stays that
    ///   of the program.
    pub fn stream(&self, geo: Geometry, core: usize) -> SyntheticStream {
        SyntheticStream::new(self.clone(), geo, core)
    }

    /// Average demand in blocks per set (first phase), used to sanity-
    /// check class membership (>1 MB ⇔ avg > baseline associativity).
    #[cfg(test)]
    pub(crate) fn mean_demand(&self) -> f64 {
        match &self.pattern {
            Pattern::Streaming => 1.0,
            Pattern::Pooled { phases, .. } => {
                let p = &phases[0].profile;
                let total: f64 = p.components.iter().map(|c| c.weight).sum();
                p.components
                    .iter()
                    .map(|c| c.weight / total * (c.lo as f64 + c.hi as f64) / 2.0)
                    .sum()
            }
        }
    }
}

/// Per-set generator state.
#[derive(Debug, Clone)]
struct SetState {
    /// Pool size (demand d(s)).
    demand: u16,
    /// Cyclic-walk cursor for loop-like far references.
    cursor: u16,
    /// Ring of recently referenced pool indices (near-reuse window).
    recent: [u16; RECENT_CAP],
    /// Valid entries in `recent`.
    recent_len: u8,
    /// Next write position in `recent`.
    recent_pos: u8,
}

/// Fraction of far references that follow the cyclic walk (the rest are
/// uniform random over the pool).
const CYCLIC_FRACTION: f64 = 0.6;

/// Capacity of the per-set recency ring (≥ the largest near window).
const RECENT_CAP: usize = 16;

/// A checkpointed [`SetState`]: demand, cursor and the recency ring as
/// little-endian `u16`s, then the ring's length and write position.
const SET_STATE_BYTES: usize = 2 * (2 + RECENT_CAP) + 2;

impl SetState {
    fn new(demand: u16) -> Self {
        SetState {
            demand,
            cursor: 0,
            recent: [0; RECENT_CAP],
            recent_len: 0,
            recent_pos: 0,
        }
    }

    /// The [`SET_STATE_BYTES`]-byte checkpoint record of this state.
    fn encode(&self) -> [u8; SET_STATE_BYTES] {
        let mut record = [0u8; SET_STATE_BYTES];
        let fields = [self.demand, self.cursor].into_iter().chain(self.recent);
        for (bytes, x) in record.chunks_exact_mut(2).zip(fields) {
            bytes.copy_from_slice(&x.to_le_bytes());
        }
        record[SET_STATE_BYTES - 2] = self.recent_len;
        record[SET_STATE_BYTES - 1] = self.recent_pos;
        record
    }

    /// Read a [`SetState::encode`] record, unchecked.
    fn decode(record: &[u8]) -> SetState {
        let u16_at = |i: usize| u16::from_le_bytes([record[2 * i], record[2 * i + 1]]);
        SetState {
            demand: u16_at(0),
            cursor: u16_at(1),
            recent: std::array::from_fn(|i| u16_at(2 + i)),
            recent_len: record[SET_STATE_BYTES - 2],
            recent_pos: record[SET_STATE_BYTES - 1],
        }
    }

    fn remember(&mut self, idx: u16) {
        self.recent[self.recent_pos as usize] = idx;
        self.recent_pos = ((self.recent_pos as usize + 1) % RECENT_CAP) as u8;
        if (self.recent_len as usize) < RECENT_CAP {
            self.recent_len += 1;
        }
    }
}

/// The synthetic op stream for one core.
#[derive(Debug, Clone)]
pub struct SyntheticStream {
    spec: BenchmarkSpec,
    geo: Geometry,
    /// High address bits distinguishing this core's address space.
    addr_base_blocks: u64,
    rng: SmallRng,
    sets: Vec<SetState>,
    /// Cumulative set-sampling distribution (weights ∝ demand).
    set_cdf: Vec<f64>,
    /// Guide table over `set_cdf`: bucket `b` → first index whose
    /// cumulative value maps to bucket `b` or later under
    /// `guide_scale`. Turns the per-reference inverse-CDF binary search
    /// (ten data-dependent branches over 8 KB of `f64`s) into one table
    /// load plus a short forward scan with the identical result.
    set_guide: Vec<u32>,
    /// Bucket mapping for [`SyntheticStream::set_guide`]:
    /// `bucket = (value * guide_scale) as usize`, clamped.
    guide_scale: f64,
    access_count: u64,
    /// `access_count % cycle_len`, maintained incrementally so the hot
    /// path never divides (`u64::MAX`-pinned position for streaming).
    cycle_pos: u64,
    /// Accesses per phase cycle (`u64::MAX` for streaming patterns,
    /// which never wrap).
    cycle_len: u64,
    /// First cycle position past the current phase; `cycle_pos`
    /// reaching it (or wrapping) triggers a phase recomputation.
    phase_end: u64,
    /// Reciprocal of the gap-draw width `2·gap_mean + 1`.
    gap_width: Divisor,
    /// Reciprocal of the burst-draw width `2·burst_mean + 1`.
    burst_width: Divisor,
    current_phase: usize,
    /// Streaming cursor (blocks).
    stream_cursor: u64,
    /// Remaining repeats of the current block (spatial-locality burst).
    burst_remaining: u32,
    /// The block being repeated.
    burst_block: u64,
    /// Precomputed phase boundaries in accesses within one cycle.
    phase_bounds: Vec<u64>,
}

impl SyntheticStream {
    fn new(spec: BenchmarkSpec, geo: Geometry, core: usize) -> Self {
        // Address spaces are separated by a generous stride in block
        // space; tags stay well clear of each other across cores.
        let addr_base_blocks = (core as u64 + 1) << 34;
        let rng = SmallRng::seed_from_u64(
            spec.seed ^ (core as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let mut s = SyntheticStream {
            geo,
            addr_base_blocks,
            rng,
            sets: Vec::new(),
            set_cdf: Vec::new(),
            set_guide: Vec::new(),
            guide_scale: 0.0,
            access_count: 0,
            cycle_pos: 0,
            cycle_len: u64::MAX,
            phase_end: 0,
            gap_width: Divisor::new(spec.gap_mean as u64 * 2 + 1),
            burst_width: Divisor::new(spec.burst_mean as u64 * 2 + 1),
            current_phase: usize::MAX,
            stream_cursor: 0,
            burst_remaining: 0,
            burst_block: 0,
            phase_bounds: Vec::new(),
            spec,
        };
        s.compute_phase_bounds();
        s.enter_phase(0);
        s.init_cycle_state();
        s
    }

    /// Re-derive the incremental cycle-position state from
    /// `access_count` (after construction or a spec mutation).
    /// `phase_end = 0` forces the next reference to recompute its phase
    /// exactly, so the incremental path can never go stale.
    fn init_cycle_state(&mut self) {
        match &self.spec.pattern {
            Pattern::Pooled { cycle_accesses, .. } => {
                self.cycle_len = (*cycle_accesses).max(1);
                self.cycle_pos = self.access_count % self.cycle_len;
                self.phase_end = 0;
            }
            Pattern::Streaming => {
                self.cycle_len = u64::MAX;
                self.cycle_pos = 0;
                self.phase_end = u64::MAX;
            }
        }
    }

    /// The phase owning cycle position `pos`: same lookup as
    /// [`SyntheticStream::phase_at`], over a position instead of an
    /// absolute access count.
    fn phase_index(&self, pos: u64) -> usize {
        self.phase_bounds.iter().position(|&b| pos < b).unwrap_or(0)
    }

    fn compute_phase_bounds(&mut self) {
        if let Pattern::Pooled {
            phases,
            cycle_accesses,
        } = &self.spec.pattern
        {
            let total: f64 = phases.iter().map(|p| p.fraction).sum();
            let mut acc = 0.0;
            self.phase_bounds = phases
                .iter()
                .map(|p| {
                    acc += p.fraction / total;
                    (acc * *cycle_accesses as f64) as u64
                })
                .collect();
            // Guard against rounding leaving the last bound short.
            if let Some(last) = self.phase_bounds.last_mut() {
                *last = *cycle_accesses;
            }
        }
    }

    fn phase_at(&self, access: u64) -> usize {
        match &self.spec.pattern {
            Pattern::Streaming => 0,
            Pattern::Pooled { cycle_accesses, .. } => {
                let pos = access % cycle_accesses;
                self.phase_bounds.iter().position(|&b| pos < b).unwrap_or(0)
            }
        }
    }

    fn enter_phase(&mut self, phase: usize) {
        self.current_phase = phase;
        let Pattern::Pooled { phases, .. } = &self.spec.pattern else {
            return;
        };
        let profile = &phases[phase].profile;
        // Demand map is a property of the program: seed does not include
        // the core, so co-scheduled copies agree set-by-set.
        let demands = profile.assign(
            self.geo.num_sets as usize,
            self.spec.seed.wrapping_add(phase as u64 * 0x5851_F42D),
        );
        if self.sets.is_empty() {
            self.sets = demands.iter().map(|&d| SetState::new(d)).collect();
        } else {
            for (st, &d) in self.sets.iter_mut().zip(demands.iter()) {
                st.demand = d;
                st.cursor %= d.max(1);
                // Forget recent indices beyond the shrunk pool.
                if st
                    .recent
                    .iter()
                    .take(st.recent_len as usize)
                    .any(|&i| i >= d)
                {
                    st.recent_len = 0;
                    st.recent_pos = 0;
                }
            }
        }
        self.build_set_cdf();
    }

    /// Rebuild the set-sampling distribution and its guide table from
    /// the per-set demands: traffic to a set scales with its
    /// working-set size.
    fn build_set_cdf(&mut self) {
        let mut acc = 0.0;
        self.set_cdf = self
            .sets
            .iter()
            .map(|st| {
                acc += st.demand as f64;
                acc
            })
            .collect();
        self.build_set_guide();
    }

    /// Rebuild the inverse-CDF guide table for the current `set_cdf`.
    ///
    /// Correctness does not depend on floating-point bucket boundaries:
    /// the build applies the *same* monotone mapping
    /// `v ↦ (v * guide_scale) as usize` to the cumulative values that
    /// the sampler applies to the drawn point, so the guided start index
    /// is always at or below the exact partition point and the forward
    /// scan lands on it precisely.
    fn build_set_guide(&mut self) {
        let n = self.set_cdf.len();
        let buckets = (n * 2).next_power_of_two().max(1);
        let total = self.set_cdf.last().copied().unwrap_or(0.0);
        self.guide_scale = buckets as f64 / total;
        let bucket_of = |scale: f64, v: f64| -> usize { ((v * scale) as usize).min(buckets - 1) };
        // Bucket `b`'s entry is the first index whose bucket is `b` or
        // later (`n` past the last): buckets are monotone in the index,
        // so each index claims the buckets up to its own.
        self.set_guide.clear();
        self.set_guide.reserve(buckets);
        for (i, &v) in self.set_cdf.iter().enumerate() {
            let b = bucket_of(self.guide_scale, v);
            while self.set_guide.len() <= b {
                self.set_guide.push(i as u32);
            }
        }
        self.set_guide.resize(buckets, n as u32);
    }

    /// Guided inverse-CDF walk: identical to
    /// `set_cdf.partition_point(|&c| c <= x)` (see `build_set_guide`),
    /// without the binary search's data-dependent branches.
    fn locate_cdf(&self, x: f64) -> usize {
        let b = ((x * self.guide_scale) as usize).min(self.set_guide.len() - 1);
        let mut i = self.set_guide[b] as usize;
        let n = self.set_cdf.len();
        while i < n && self.set_cdf[i] <= x {
            i += 1;
        }
        i
    }

    fn sample_set(&mut self) -> usize {
        #[expect(
            clippy::expect_used,
            reason = "the cdf is rebuilt from a non-empty component list before sampling"
        )]
        let total = *self.set_cdf.last().expect("non-empty cdf");
        let x = self.rng.gen::<f64>() * total;
        self.locate_cdf(x).min(self.sets.len() - 1)
    }

    fn next_block(&mut self) -> u64 {
        let (near_fraction, near_window) = match &self.spec.pattern {
            Pattern::Streaming => {
                let b = self.addr_base_blocks + self.stream_cursor;
                self.stream_cursor += 1;
                return b;
            }
            Pattern::Pooled { phases, .. } => {
                let p = &phases[self.current_phase].profile;
                (p.near_fraction, p.near_window)
            }
        };
        let set = self.sample_set();
        let near_draw = self.rng.gen::<f64>();
        let cyclic_draw = self.rng.gen::<f64>();
        let far_draw = self.rng.gen_range(0u64..u64::MAX);
        let st = &mut self.sets[set];
        let d = st.demand.max(1);
        let window = (near_window.min(st.recent_len as usize)) as u64;
        let idx = if near_draw < near_fraction && window > 0 {
            // Re-touch one of the recently used blocks of this set. The
            // usual window widths are powers of two: reduce by mask then
            // (the same remainder, minus the divide).
            let back = if window & (window - 1) == 0 {
                (far_draw & (window - 1)) as usize
            } else {
                (far_draw % window) as usize
            };
            let pos = (st.recent_pos as usize + RECENT_CAP - 1 - back) % RECENT_CAP;
            st.recent[pos]
        } else if cyclic_draw < CYCLIC_FRACTION {
            // Loop-like walk: re-references arrive soon after eviction.
            let i = st.cursor;
            st.cursor = if st.cursor + 1 >= d { 0 } else { st.cursor + 1 };
            i
        } else {
            // Uniform random over the pool: stack distances spread over
            // 1..=d, so capacity helps smoothly up to d blocks.
            (far_draw % d as u64) as u16
        };
        st.remember(idx);
        // Block address: per-set tag pools, disjoint across sets via the
        // index bits themselves. The pool index is spread by an odd
        // multiplier so pool tags scatter across their low bits — real
        // working sets do not occupy consecutive tags, and structured
        // tag low bits would alias pathologically in the bank-interleaved
        // L2S mapping (which hashes tag bits into the bank-set index).
        let tag = self.addr_base_blocks >> self.geo.index_bits();
        let scattered = idx as u64 * 37;
        self.geo.compose(set, tag + scattered).0
    }

    /// The demand assigned to `set` in the current phase (test hook).
    #[cfg(test)]
    pub(crate) fn demand_of(&self, set: usize) -> u16 {
        self.sets.get(set).map_or(1, |s| s.demand)
    }

    /// Re-derive phase bounds and per-set state from the (mutated) spec:
    /// the shift entry point's epilogue. Re-entering the current phase
    /// re-assigns the demand map deterministically from the spec's seed,
    /// so co-scheduled copies of one program keep agreeing set-by-set
    /// after a shift.
    fn reshape(&mut self) {
        self.compute_phase_bounds();
        self.enter_phase(self.phase_at(self.access_count));
        self.init_cycle_state();
        // A profile shift swaps the whole spec: refresh the reciprocals.
        self.gap_width = Divisor::new(self.spec.gap_mean as u64 * 2 + 1);
        self.burst_width = Divisor::new(self.spec.burst_mean as u64 * 2 + 1);
    }
}

impl SyntheticStream {
    /// Apply a mid-run shift directive (see [`sim_mem::ShiftDirective`])
    /// by mutating the *spec* — not just the live per-set state — so the
    /// change survives the benchmark's own internal phase cycling
    /// (entering a later phase re-derives demands from the mutated
    /// profiles instead of silently undoing the shift).
    fn shift(&mut self, directive: &sim_mem::ShiftDirective) -> bool {
        use sim_mem::ShiftDirective;
        match directive {
            ShiftDirective::DemandScale { percent } => {
                let Pattern::Pooled { phases, .. } = &mut self.spec.pattern else {
                    return false;
                };
                for phase in phases.iter_mut() {
                    for c in &mut phase.profile.components {
                        let scale = |v: u16| -> u16 {
                            ((v as u64 * *percent as u64) / 100).clamp(1, u16::MAX as u64) as u16
                        };
                        c.lo = scale(c.lo);
                        c.hi = scale(c.hi).max(c.lo);
                    }
                }
                self.reshape();
                true
            }
            ShiftDirective::NearFraction { percent } => {
                let Pattern::Pooled { phases, .. } = &mut self.spec.pattern else {
                    return false;
                };
                let fraction = (*percent as f64 / 100.0).min(1.0);
                for phase in phases.iter_mut() {
                    phase.profile.near_fraction = fraction;
                }
                // Near-fraction only biases future draws; the demand map
                // is untouched, so no reshape is needed.
                true
            }
            ShiftDirective::Streaming => {
                self.spec.pattern = Pattern::Streaming;
                self.reshape();
                true
            }
            ShiftDirective::Profile { name } => {
                let Some(benchmark) = crate::spec::Benchmark::from_name(name) else {
                    return false;
                };
                let new = benchmark.spec();
                // Keep the label: results stay attributed to the core's
                // original program; everything the generator draws from
                // becomes the new benchmark's.
                self.spec = BenchmarkSpec {
                    name: std::mem::take(&mut self.spec.name),
                    ..new
                };
                self.reshape();
                true
            }
        }
    }
}

/// Opens every [`SyntheticStream`] checkpoint.
const STATE_TAG: u64 = u64::from_le_bytes(*b"snugsyn1");

/// Streams never run this many ops: state past it is garbage, and would
/// overflow the access or streaming counters.
const STATE_COUNTER_LIMIT: u64 = 1 << 34;

impl SyntheticStream {
    /// Append the generator state: the RNG words, the spec as shifted
    /// so far (its name aside), the cycle, phase, streaming and burst
    /// scalars, the phase bounds and every set's state. The set-sampling
    /// distribution and the divisors are re-derived on restore by the
    /// code that builds them.
    fn save(&self, out: &mut Vec<u8>) {
        put_u64(out, STATE_TAG);
        save_spec(&self.spec, out);
        for word in self.rng.state() {
            put_u64(out, word);
        }
        for x in [
            self.access_count,
            self.cycle_pos,
            self.cycle_len,
            self.phase_end,
            self.stream_cursor,
            self.burst_block,
        ] {
            put_u64(out, x);
        }
        put_count(out, self.current_phase);
        put_u32(out, self.burst_remaining);
        put_count(out, self.phase_bounds.len());
        for &b in &self.phase_bounds {
            put_u64(out, b);
        }
        put_count(out, self.sets.len());
        out.reserve(self.sets.len() * SET_STATE_BYTES);
        for st in &self.sets {
            out.extend_from_slice(&st.encode());
        }
    }

    /// Read a state [`SyntheticStream::save`] wrote for a stream of the
    /// same geometry, rejecting any value the generator could not be in.
    fn restore(&mut self, state: &[u8]) -> Result<(), StateError> {
        let invalid = StateError::Invalid;
        let mut r = StateReader::new(state);
        if r.u64()? != STATE_TAG {
            return Err(invalid("tag"));
        }
        let spec = read_spec(&mut r, &self.spec.name)?;
        let rng = SmallRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        let [access_count, cycle_pos, cycle_len, phase_end, stream_cursor, burst_block] =
            [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let current_phase = r.count("current phase")?;
        let burst_remaining = r.u32()?;
        let n = r.count("phase bounds")?;
        let phase_bounds = (0..n).map(|_| r.u64()).collect::<Result<Vec<_>, _>>()?;
        let n = r.count("sets")?;
        let records = n
            .checked_mul(SET_STATE_BYTES)
            .ok_or(invalid("sets"))
            .and_then(|len| r.bytes(len))?;
        // Validated here, decoded into the existing set vector once the
        // whole state has proved good.
        for record in records.as_chunks::<SET_STATE_BYTES>().0 {
            let [d0, d1, c0, c1, ..] = *record;
            if u16::from_le_bytes([c0, c1]) >= u16::from_le_bytes([d0, d1]).max(1) {
                return Err(invalid("cursor"));
            }
            let [.., recent_len, recent_pos] = *record;
            if usize::from(recent_len) > RECENT_CAP || usize::from(recent_pos) >= RECENT_CAP {
                return Err(invalid("recent ring"));
            }
        }
        r.finish()?;
        let num_sets = self.geo.num_sets;
        match &spec.pattern {
            Pattern::Pooled {
                phases,
                cycle_accesses,
            } => {
                if n as u64 != num_sets {
                    return Err(invalid("sets"));
                }
                if phase_bounds.len() != phases.len() || current_phase >= phases.len() {
                    return Err(invalid("current phase"));
                }
                if cycle_len != *cycle_accesses || cycle_pos >= cycle_len {
                    return Err(invalid("cycle position"));
                }
            }
            Pattern::Streaming => {
                if n != 0 && n as u64 != num_sets {
                    return Err(invalid("sets"));
                }
                if cycle_len != u64::MAX || cycle_pos >= STATE_COUNTER_LIMIT {
                    return Err(invalid("cycle position"));
                }
            }
        }
        if access_count >= STATE_COUNTER_LIMIT || stream_cursor >= STATE_COUNTER_LIMIT {
            return Err(invalid("access count"));
        }
        self.gap_width = Divisor::new(spec.gap_mean as u64 * 2 + 1);
        self.burst_width = Divisor::new(spec.burst_mean as u64 * 2 + 1);
        self.spec = spec;
        self.rng = rng;
        self.access_count = access_count;
        self.cycle_pos = cycle_pos;
        self.cycle_len = cycle_len;
        self.phase_end = phase_end;
        self.stream_cursor = stream_cursor;
        self.burst_block = burst_block;
        self.current_phase = current_phase;
        self.burst_remaining = burst_remaining;
        self.phase_bounds = phase_bounds;
        self.sets.clear();
        self.sets
            .extend(records.chunks_exact(SET_STATE_BYTES).map(SetState::decode));
        if self.sets.is_empty() {
            self.set_cdf.clear();
            self.set_guide.clear();
            self.guide_scale = 0.0;
        } else {
            self.build_set_cdf();
        }
        Ok(())
    }
}

/// Append a spec's generating fields (everything but its name).
fn save_spec(spec: &BenchmarkSpec, out: &mut Vec<u8>) {
    match &spec.pattern {
        Pattern::Streaming => out.push(0),
        Pattern::Pooled {
            phases,
            cycle_accesses,
        } => {
            out.push(1);
            put_u64(out, *cycle_accesses);
            put_count(out, phases.len());
            for phase in phases {
                put_f64(out, phase.fraction);
                let p = &phase.profile;
                put_count(out, p.components.len());
                for c in &p.components {
                    put_f64(out, c.weight);
                    put_u16(out, c.lo);
                    put_u16(out, c.hi);
                }
                put_f64(out, p.near_fraction);
                put_count(out, p.near_window);
            }
        }
    }
    put_u32(out, spec.gap_mean);
    put_f64(out, spec.write_fraction);
    put_f64(out, spec.dependent_fraction);
    put_u32(out, spec.burst_mean);
    put_u64(out, spec.seed);
}

/// Read a spec written by [`save_spec`], named `name`. Every weight
/// the generator samples from must be finite and non-negative with a
/// positive total.
fn read_spec(r: &mut StateReader<'_>, name: &str) -> Result<BenchmarkSpec, StateError> {
    let weight = |r: &mut StateReader<'_>, field| {
        let w = r.finite_f64(field)?;
        if w >= 0.0 {
            Ok(w)
        } else {
            Err(StateError::Invalid(field))
        }
    };
    let pattern = match r.u8()? {
        0 => Pattern::Streaming,
        1 => {
            let cycle_accesses = r.u64()?;
            let n = r.count("phases")?;
            let phases = (0..n)
                .map(|_| {
                    let fraction = weight(r, "phase fraction")?;
                    let n = r.count("components")?;
                    let components = (0..n)
                        .map(|_| {
                            Ok(DemandComponent {
                                weight: weight(r, "component weight")?,
                                lo: r.u16()?,
                                hi: r.u16()?,
                            })
                        })
                        .collect::<Result<Vec<_>, StateError>>()?;
                    if components.iter().map(|c| c.weight).sum::<f64>() <= 0.0 {
                        return Err(StateError::Invalid("component weight"));
                    }
                    Ok(Phase {
                        fraction,
                        profile: DemandProfile {
                            components,
                            near_fraction: r.finite_f64("near fraction")?,
                            near_window: r.count("near window")?,
                        },
                    })
                })
                .collect::<Result<Vec<_>, StateError>>()?;
            if cycle_accesses == 0 || phases.iter().map(|p| p.fraction).sum::<f64>() <= 0.0 {
                return Err(StateError::Invalid("phases"));
            }
            Pattern::Pooled {
                phases,
                cycle_accesses,
            }
        }
        _ => return Err(StateError::Invalid("pattern")),
    };
    Ok(BenchmarkSpec {
        name: name.to_string(),
        pattern,
        gap_mean: r.u32()?,
        write_fraction: r.finite_f64("write fraction")?,
        dependent_fraction: r.finite_f64("dependent fraction")?,
        burst_mean: r.u32()?,
        seed: r.u64()?,
    })
}

impl OpStream for SyntheticStream {
    fn next_op(&mut self) -> CoreOp {
        // Incremental phase tracking: `cycle_pos` mirrors
        // `access_count % cycle_accesses`, so the per-reference phase
        // lookup (a divide plus a bounds scan) only runs when the
        // position actually crosses a phase boundary or wraps.
        if self.cycle_pos >= self.phase_end {
            let phase = self.phase_index(self.cycle_pos);
            if phase != self.current_phase {
                self.enter_phase(phase);
            }
            self.phase_end = self.phase_bounds.get(phase).copied().unwrap_or(u64::MAX);
        }
        self.access_count += 1;
        self.cycle_pos += 1;
        if self.cycle_pos >= self.cycle_len {
            self.cycle_pos = 0;
            // Force an exact phase recomputation at the wrap.
            self.phase_end = 0;
        }
        let block = if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            self.burst_block
        } else {
            let b = self.next_block();
            self.burst_block = b;
            if self.spec.burst_mean > 0 {
                self.burst_remaining = self.burst_width.rem(self.rng.next_u64()) as u32;
            }
            b
        };
        let byte = (block << self.geo.block_bytes.trailing_zeros())
            | (self.rng.gen_range(0..self.geo.block_bytes / 8) * 8);
        let kind = if self.rng.gen::<f64>() < self.spec.write_fraction {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let critical =
            kind == AccessKind::Load && self.rng.gen::<f64>() < self.spec.dependent_fraction;
        // Uniform gap in [0, 2·mean] keeps the requested mean with some
        // jitter; deterministic for a fixed seed.
        let gap = self.gap_width.rem(self.rng.next_u64()) as u32;
        CoreOp {
            gap,
            access: Access {
                addr: Addr(byte),
                kind,
            },
            critical,
        }
    }

    fn label(&self) -> &str {
        &self.spec.name
    }

    fn apply_shift(&mut self, directive: &sim_mem::ShiftDirective) -> bool {
        self.shift(directive)
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        self.save(out);
        true
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        self.restore(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pooled_spec(components: Vec<DemandComponent>, near: f64) -> BenchmarkSpec {
        BenchmarkSpec {
            name: "test".into(),
            pattern: Pattern::Pooled {
                phases: vec![Phase {
                    fraction: 1.0,
                    profile: DemandProfile {
                        components,
                        near_fraction: near,
                        near_window: 4,
                    },
                }],
                cycle_accesses: 1_000_000,
            },
            gap_mean: 3,
            write_fraction: 0.25,
            dependent_fraction: 0.4,
            burst_mean: 2,
            seed: 42,
        }
    }

    #[test]
    fn assignment_is_deterministic() {
        let p = DemandProfile::uniform(4, 8, 0.2);
        assert_eq!(p.assign(64, 7), p.assign(64, 7));
        assert_ne!(p.assign(64, 7), p.assign(64, 8), "different seeds differ");
    }

    #[test]
    fn assignment_respects_ranges() {
        let p = DemandProfile {
            components: vec![
                DemandComponent::new(0.5, 1, 4),
                DemandComponent::new(0.5, 17, 32),
            ],
            near_fraction: 0.2,
            near_window: 4,
        };
        let d = p.assign(2048, 3);
        assert!(d
            .iter()
            .all(|&x| (1..=4).contains(&x) || (17..=32).contains(&x)));
        let low = d.iter().filter(|&&x| x <= 4).count() as f64 / 2048.0;
        assert!(
            (low - 0.5).abs() < 0.08,
            "mixture weights honoured, got {low}"
        );
    }

    #[test]
    fn same_program_same_demand_map_across_cores() {
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 2, 30)], 0.2);
        let geo = Geometry::new(64, 64, 4);
        let s0 = spec.stream(geo, 0);
        let s1 = spec.stream(geo, 1);
        for set in 0..64 {
            assert_eq!(s0.demand_of(set), s1.demand_of(set));
        }
    }

    #[test]
    fn cores_have_disjoint_address_spaces() {
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 2, 8)], 0.2);
        let geo = Geometry::new(64, 64, 4);
        let mut s0 = spec.stream(geo, 0);
        let mut s1 = spec.stream(geo, 1);
        let a0: std::collections::BTreeSet<u64> = (0..2000)
            .map(|_| s0.next_op().access.addr.block(64).0)
            .collect();
        let a1: std::collections::BTreeSet<u64> = (0..2000)
            .map(|_| s1.next_op().access.addr.block(64).0)
            .collect();
        assert!(a0.is_disjoint(&a1));
    }

    #[test]
    fn pooled_references_stay_in_assigned_set_pools() {
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 3, 3)], 0.0);
        let geo = Geometry::new(64, 16, 4);
        let mut s = spec.stream(geo, 0);
        let mut per_set: Vec<std::collections::BTreeSet<u64>> = vec![Default::default(); 16];
        for _ in 0..5000 {
            let b = s.next_op().access.addr.block(64);
            per_set[geo.set_index(b)].insert(b.0);
        }
        for (set, blocks) in per_set.iter().enumerate() {
            assert!(
                blocks.len() <= 3,
                "set {set} saw {} distinct blocks, demand is 3",
                blocks.len()
            );
        }
    }

    #[test]
    fn streaming_never_repeats_blocks() {
        let spec = BenchmarkSpec {
            name: "applu-like".into(),
            pattern: Pattern::Streaming,
            gap_mean: 2,
            write_fraction: 0.1,
            dependent_fraction: 0.1,
            burst_mean: 0,
            seed: 1,
        };
        let mut s = spec.stream(Geometry::new(64, 16, 4), 0);
        let blocks: Vec<u64> = (0..1000)
            .map(|_| s.next_op().access.addr.block(64).0)
            .collect();
        let uniq: std::collections::BTreeSet<_> = blocks.iter().collect();
        assert_eq!(uniq.len(), blocks.len());
    }

    #[test]
    fn gap_mean_roughly_respected() {
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 2, 8)], 0.2);
        let mut s = spec.stream(Geometry::new(64, 16, 4), 0);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.next_op().gap as u64).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.2, "gap mean ≈ 3, got {mean}");
    }

    #[test]
    fn write_fraction_roughly_respected() {
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 2, 8)], 0.2);
        let mut s = spec.stream(Geometry::new(64, 16, 4), 0);
        let n = 20_000;
        let writes = (0..n)
            .filter(|_| s.next_op().access.kind.is_write())
            .count();
        let frac = writes as f64 / n as f64;
        assert!(
            (frac - 0.25).abs() < 0.02,
            "write fraction ≈ 0.25, got {frac}"
        );
    }

    #[test]
    fn phase_schedule_cycles() {
        let spec = BenchmarkSpec {
            name: "phased".into(),
            dependent_fraction: 0.0,
            burst_mean: 0,
            pattern: Pattern::Pooled {
                phases: vec![
                    Phase {
                        fraction: 0.5,
                        profile: DemandProfile::uniform(2, 2, 0.0),
                    },
                    Phase {
                        fraction: 0.5,
                        profile: DemandProfile::uniform(20, 20, 0.0),
                    },
                ],
                cycle_accesses: 1000,
            },
            gap_mean: 0,
            write_fraction: 0.0,
            seed: 9,
        };
        let mut s = spec.stream(Geometry::new(64, 8, 4), 0);
        let mut demands = Vec::new();
        for i in 0..2000 {
            s.next_op();
            if i % 250 == 100 {
                demands.push(s.demand_of(0));
            }
        }
        assert_eq!(
            demands,
            vec![2, 2, 20, 20, 2, 2, 20, 20],
            "phases alternate and repeat"
        );
    }

    #[test]
    fn guided_cdf_lookup_matches_partition_point() {
        // Mixed demands (including a degenerate all-equal prefix from
        // lo=hi components) across several geometries.
        for (sets, seed) in [(16u64, 1u64), (64, 2), (1024, 3)] {
            let spec = pooled_spec(
                vec![
                    DemandComponent::new(0.4, 1, 1),
                    DemandComponent::new(0.6, 2, 30),
                ],
                0.2,
            );
            let s = spec.stream(Geometry::new(64, sets, 4), seed as usize);
            let total = *s.set_cdf.last().unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..5000 {
                let x = rng.gen::<f64>() * total;
                assert_eq!(
                    s.locate_cdf(x),
                    s.set_cdf.partition_point(|&c| c <= x),
                    "x={x}"
                );
            }
            // Boundary values: exactly on cumulative steps and the total.
            for &x in s.set_cdf.iter().chain([&total]) {
                assert_eq!(s.locate_cdf(x), s.set_cdf.partition_point(|&c| c <= x));
            }
        }
    }

    #[test]
    fn incremental_phase_tracking_matches_phase_at() {
        let spec = BenchmarkSpec {
            name: "phased".into(),
            dependent_fraction: 0.1,
            burst_mean: 1,
            pattern: Pattern::Pooled {
                phases: vec![
                    Phase {
                        fraction: 0.3,
                        profile: DemandProfile::uniform(2, 4, 0.1),
                    },
                    Phase {
                        fraction: 0.5,
                        profile: DemandProfile::uniform(10, 20, 0.3),
                    },
                    Phase {
                        fraction: 0.2,
                        profile: DemandProfile::uniform(1, 2, 0.0),
                    },
                ],
                cycle_accesses: 777,
            },
            gap_mean: 1,
            write_fraction: 0.2,
            seed: 5,
        };
        let mut s = spec.stream(Geometry::new(64, 16, 4), 0);
        for _ in 0..3000 {
            s.next_op();
            // After an op for access index `access_count - 1`, the live
            // phase must be what the full lookup computes for it.
            assert_eq!(s.current_phase, s.phase_at(s.access_count - 1));
            assert_eq!(s.cycle_pos, s.access_count % 777, "position mirror");
        }
    }

    #[test]
    fn demand_scale_shift_persists_across_internal_phase_cycling() {
        use sim_mem::ShiftDirective;
        // Two internal phases with known constant demands.
        let spec = BenchmarkSpec {
            name: "phased".into(),
            dependent_fraction: 0.0,
            burst_mean: 0,
            pattern: Pattern::Pooled {
                phases: vec![
                    Phase {
                        fraction: 0.5,
                        profile: DemandProfile::uniform(4, 4, 0.0),
                    },
                    Phase {
                        fraction: 0.5,
                        profile: DemandProfile::uniform(20, 20, 0.0),
                    },
                ],
                cycle_accesses: 1000,
            },
            gap_mean: 0,
            write_fraction: 0.0,
            seed: 9,
        };
        let mut s = spec.stream(Geometry::new(64, 8, 4), 0);
        assert_eq!(s.demand_of(0), 4);
        assert!(s.apply_shift(&ShiftDirective::DemandScale { percent: 200 }));
        assert_eq!(s.demand_of(0), 8, "current phase rescaled in place");
        // Drive through the second internal phase and back into the
        // first: both re-derive from the mutated profiles.
        let mut seen = Vec::new();
        for i in 0..2000 {
            s.next_op();
            if i % 500 == 300 {
                seen.push(s.demand_of(0));
            }
        }
        assert_eq!(seen, vec![8, 40, 8, 40], "doubled demands persist");
    }

    #[test]
    fn near_fraction_and_streaming_shifts_apply() {
        use sim_mem::ShiftDirective;
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 3, 3)], 0.5);
        let mut s = spec.stream(Geometry::new(64, 16, 4), 0);
        assert!(s.apply_shift(&ShiftDirective::NearFraction { percent: 10 }));
        let Pattern::Pooled { phases, .. } = &s.spec.pattern else {
            panic!("still pooled")
        };
        assert!((phases[0].profile.near_fraction - 0.1).abs() < 1e-12);

        // Switching to streaming: fresh blocks only from here on.
        for _ in 0..100 {
            s.next_op();
        }
        assert!(s.apply_shift(&ShiftDirective::Streaming));
        let mut blocks: Vec<u64> = (0..500)
            .map(|_| s.next_op().access.addr.block(64).0)
            .collect();
        // Spatial-locality bursts repeat a block back-to-back; collapse
        // those runs. The very first run can still be the pre-shift
        // pooled burst draining out, so it is excluded too — beyond
        // that nothing recurs.
        blocks.dedup();
        let streamed = &blocks[1..];
        let uniq: std::collections::BTreeSet<_> = streamed.iter().collect();
        assert_eq!(uniq.len(), streamed.len(), "no block revisited");
        // Demand directives no longer apply to a streaming pattern.
        assert!(!s.apply_shift(&ShiftDirective::DemandScale { percent: 200 }));
    }

    #[test]
    fn profile_shift_adopts_the_target_demand_map_and_keeps_the_label() {
        use crate::spec::Benchmark;
        use sim_mem::ShiftDirective;
        let geo = Geometry::new(64, 1024, 16);
        let mut shifted = Benchmark::Gzip.spec().stream(geo, 1);
        assert!(shifted.apply_shift(&ShiftDirective::Profile { name: "mcf".into() }));
        assert_eq!(shifted.label(), "gzip", "label survives the swap");
        let native = Benchmark::Mcf.spec().stream(geo, 1);
        for set in (0..1024).step_by(97) {
            assert_eq!(
                shifted.demand_of(set),
                native.demand_of(set),
                "set {set}: demand map is mcf's"
            );
        }
        assert!(!shifted.apply_shift(&ShiftDirective::Profile {
            name: "quake".into()
        }));
    }

    #[test]
    fn shifted_streams_clone_faithfully() {
        use sim_mem::ShiftDirective;
        let spec = pooled_spec(vec![DemandComponent::new(1.0, 2, 30)], 0.2);
        let mut s = spec.stream(Geometry::new(64, 64, 4), 0);
        for _ in 0..500 {
            s.next_op();
        }
        s.apply_shift(&ShiftDirective::DemandScale { percent: 300 });
        let mut cloned = s.clone();
        for _ in 0..500 {
            assert_eq!(s.next_op(), cloned.next_op());
        }
    }

    /// Checkpoint `s`, restore the state into `fresh` (built the same
    /// way) and check both continue with the identical `n` ops.
    fn assert_resumes(s: &mut SyntheticStream, mut fresh: SyntheticStream, n: usize) {
        let mut state = Vec::new();
        assert!(s.save_state(&mut state));
        assert_eq!(fresh.restore_state(&state), Ok(()));
        for i in 0..n {
            assert_eq!(fresh.next_op(), s.next_op(), "op {i}");
        }
    }

    #[test]
    fn a_restored_stream_continues_with_the_identical_ops() {
        use crate::spec::Benchmark;
        use sim_mem::ShiftDirective;
        let geo = Geometry::new(64, 64, 4);
        // Two phases of 500 accesses: the restored stream crosses
        // several phase boundaries.
        let mut phased = pooled_spec(vec![DemandComponent::new(1.0, 2, 30)], 0.3);
        if let Pattern::Pooled {
            phases,
            cycle_accesses,
        } = &mut phased.pattern
        {
            let mut second = phases[0].clone();
            second.profile = DemandProfile::uniform(12, 20, 0.1);
            phases.push(second);
            *cycle_accesses = 1_000;
        }
        let shifts = [
            None,
            Some(ShiftDirective::DemandScale { percent: 300 }),
            Some(ShiftDirective::NearFraction { percent: 70 }),
            Some(ShiftDirective::Profile { name: "mcf".into() }),
            Some(ShiftDirective::Streaming),
        ];
        for spec in [phased, Benchmark::Ammp.spec(), Benchmark::Applu.spec()] {
            for shift in &shifts {
                let mut s = spec.stream(geo, 1);
                for _ in 0..1_337 {
                    s.next_op();
                }
                if let Some(d) = shift {
                    s.apply_shift(d);
                    s.next_op();
                }
                assert_resumes(&mut s, spec.stream(geo, 1), 3_000);
                // A checkpoint taken before a shift resumes into the
                // same shifted stream.
                let mut fresh = spec.stream(geo, 1);
                let mut state = Vec::new();
                s.save_state(&mut state);
                fresh.restore_state(&state).unwrap();
                if let Some(d) = shift {
                    assert_eq!(s.apply_shift(d), fresh.apply_shift(d));
                }
                for _ in 0..2_000 {
                    assert_eq!(fresh.next_op(), s.next_op());
                }
            }
        }
    }

    #[test]
    fn truncated_or_garbage_stream_state_is_an_error() {
        use crate::spec::Benchmark;
        let geo = Geometry::new(64, 64, 4);
        let mut s = Benchmark::Ammp.spec().stream(geo, 0);
        for _ in 0..300 {
            s.next_op();
        }
        let mut state = Vec::new();
        assert!(s.save_state(&mut state));
        let mut target = Benchmark::Ammp.spec().stream(geo, 0);
        let expected: Vec<CoreOp> = {
            let mut probe = target.clone();
            (0..50).map(|_| probe.next_op()).collect()
        };
        for cut in 0..state.len() {
            assert_eq!(
                target.restore_state(&state[..cut]),
                Err(StateError::Truncated),
                "cut at {cut}"
            );
        }
        let mut longer = state.clone();
        longer.push(0);
        assert_eq!(
            target.restore_state(&longer),
            Err(StateError::TrailingBytes)
        );
        for garbage in [vec![0u8; 64], vec![0xff; 4096], b"snugsyn1".to_vec()] {
            assert!(target.restore_state(&garbage).is_err());
        }
        let again: Vec<CoreOp> = (0..50).map(|_| target.next_op()).collect();
        assert_eq!(
            again, expected,
            "failed restores leave the stream unchanged"
        );
        // Corrupting any one byte either fails the restore or yields a
        // stream that still runs.
        for at in 0..state.len() {
            let mut bad = state.clone();
            bad[at] ^= 0xa5;
            let mut t = Benchmark::Ammp.spec().stream(geo, 0);
            if t.restore_state(&bad).is_ok() {
                for _ in 0..200 {
                    t.next_op();
                }
            }
        }
    }

    #[test]
    fn mean_demand_matches_mixture() {
        let spec = pooled_spec(
            vec![
                DemandComponent::new(0.5, 1, 3),
                DemandComponent::new(0.5, 21, 23),
            ],
            0.2,
        );
        assert!((spec.mean_demand() - 12.0).abs() < 1e-9);
    }
}
