//! Steppable simulation sessions.
//!
//! [`SimSession`] owns every piece of run state — cores, the per-core
//! front ends (op stream plus split L1 I/D, live or read from a
//! [`SharedFront`]), snoop bus, DRAM and the L2 organisation — and
//! exposes the paper's fixed-window methodology as an
//! *incremental* API:
//!
//! * [`SimSession::step`] executes one operation on the core with the
//!   smallest local clock (globally time-ordered, exactly as the old
//!   one-shot driver did);
//! * [`SimSession::run_until`] advances the frontier to a cycle;
//! * [`SimSession::run_to_completion`] runs the whole warm-up + measure
//!   window — or, under a [`RunPlan`] with a convergence stop policy,
//!   until the policy ends the run early — and returns the
//!   [`SystemResult`];
//! * [`SimSession::enable_recording`] samples the run on a cycle
//!   stride into [`PeriodSample`]s — per-core IPC, the L2 event mix and
//!   any scheme-side [`SchemeEvent`]s (SNUG stage/G-T transitions) for
//!   each interval — which [`SimSession::take_series`] returns.
//!
//! Determinism contract: a session driven by any interleaving of
//! `step`/`run_until` calls retires exactly the same operation sequence
//! as a single `run_to_completion`, because every step picks the
//! globally minimal core clock and phase transitions are functions of
//! the frontier alone. The batched loop behind `run_until` charges a
//! core's L1 hits ahead of the other cores, up to the next boundary;
//! hits touch no state outside their core, so every miss and every
//! boundary sees the state stepping would give it. Stop policies keep
//! the contract: they observe only at fixed frontier-derived
//! boundaries, and the early-exit decision latches after the exact same
//! operation in every interleaving. The property tests in
//! `tests/session_determinism.rs` pin this down for all five schemes,
//! fixed and converged plans alike.

use crate::config::SystemConfig;
use crate::core::{CoreModel, CoreStats};
use crate::front::{CoreFront, FrontError, LiveFront, SharedFront};
use crate::plan::{RunPlan, StopObservation, StopPolicy};
use crate::scheme::{ChipResources, L2Org, SchemeEvent, SchemeEventKind};
use crate::Bus;
use sim_cache::CacheStats;
use sim_mem::{AccessKind, Dram, FrontOp, L1Outcome, OpStream, StreamShift, HIT_DEPTHS};
use snug_metrics::{PhasePlateau, SimCounters, WALK_DEPTH_BUCKETS};
use std::sync::Arc;

// A run's walk-depth counts add bucket for bucket into the session's
// histogram.
const _: () = assert!(HIT_DEPTHS == WALK_DEPTH_BUCKETS);

/// Result for one core after a measured run.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreResult {
    /// Workload label (benchmark name).
    pub label: String,
    /// Instructions retired during measurement.
    pub instructions: u64,
    /// Cycles elapsed during measurement.
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Core stall counters for the whole run (warm-up included).
    pub stalls: CoreStats,
    /// L1D statistics over the measured phase.
    pub l1d: CacheStats,
}

/// Result of a full system run.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemResult {
    /// Scheme name.
    pub scheme: String,
    /// Per-core results.
    pub cores: Vec<CoreResult>,
    /// Aggregate L2 statistics.
    pub l2: CacheStats,
}

impl SystemResult {
    /// Sum of per-core IPCs (the paper's throughput metric numerator).
    pub fn throughput(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc).sum()
    }

    /// Per-core IPC vector.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.ipc).collect()
    }
}

/// One probe-stride sample of the running system — the row type of the
/// time series `snug trace` records.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodSample {
    /// The stride boundary this sample covers (the first boundary the
    /// frontier crossed since the previous sample).
    pub cycle: u64,
    /// Whether the interval ended inside the warm-up phase.
    pub during_warmup: bool,
    /// Per-core instructions retired during the interval.
    pub instructions: Vec<u64>,
    /// Per-core local-clock advance during the interval.
    pub cycles: Vec<u64>,
    /// Aggregate L2 statistics delta over the interval (hits, misses,
    /// spills, forwards, shadow hits — the fill mix).
    pub l2: CacheStats,
    /// Scheme-side events that fired during the interval.
    pub events: Vec<SchemeEvent>,
    /// Workload phase shifts applied during the interval (phase-change
    /// scenarios; empty for stationary runs).
    pub shifts: Vec<StreamShift>,
    /// Observability counter delta over the interval. Every session
    /// fills it; it is optional so that series stored before counters
    /// existed still decode.
    pub counters: Option<SimCounters>,
}

impl PeriodSample {
    /// Per-core IPC over the interval (0 where the clock did not move).
    pub fn ipcs(&self) -> Vec<f64> {
        self.instructions
            .iter()
            .zip(&self.cycles)
            .map(|(&i, &c)| if c == 0 { 0.0 } else { i as f64 / c as f64 })
            .collect()
    }

    /// Sum of per-core IPCs over the interval.
    pub fn throughput(&self) -> f64 {
        self.ipcs().iter().sum()
    }
}

/// Where a session's per-core ops come from.
enum FrontSource {
    /// One stream per core, each behind a session-owned L1 pair.
    Live(Vec<Box<dyn OpStream>>),
    /// Records read from a shared front end.
    Shared(Arc<SharedFront>),
}

/// Builder for [`SimSession`]: platform + organisation + front ends +
/// the run plan.
pub struct SessionBuilder<O: L2Org> {
    cfg: SystemConfig,
    org: O,
    source: FrontSource,
    plan: RunPlan,
    shifts: Vec<StreamShift>,
}

impl<O: L2Org> SessionBuilder<O> {
    /// Start a builder for `cfg` around an organisation.
    pub(crate) fn new(cfg: SystemConfig, org: O) -> Self {
        assert_eq!(
            org.num_cores(),
            cfg.num_cores,
            "organisation must match core count"
        );
        SessionBuilder {
            cfg,
            org,
            source: FrontSource::Live(Vec::new()),
            plan: RunPlan::fixed(0, 0),
            shifts: Vec::new(),
        }
    }

    /// Attach one op stream per core, each behind its own live L1 pair
    /// (replaces any previous front ends).
    pub fn streams(mut self, streams: Vec<Box<dyn OpStream>>) -> Self {
        self.source = FrontSource::Live(streams);
        self
    }

    /// Read every core's ops and L1 outcomes from a shared front end
    /// (replaces any previous front ends). The run is bit-identical to
    /// one over the streams the front end was created from; a phase
    /// schedule forks each core it shifts into a live front end at its
    /// first shift.
    pub fn shared_front(mut self, front: Arc<SharedFront>) -> Self {
        self.source = FrontSource::Shared(front);
        self
    }

    /// Set a fixed-window run plan (absolute cycles: measurement begins
    /// at `warmup` and the horizon is `warmup + measure`). Sugar for
    /// [`SessionBuilder::plan`] with [`RunPlan::fixed`].
    pub fn budget(self, warmup_cycles: u64, measure_cycles: u64) -> Self {
        self.plan(RunPlan::fixed(warmup_cycles, measure_cycles))
    }

    /// Set the run plan (replaces any previous plan or budget).
    pub fn plan(mut self, plan: RunPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Schedule deterministic mid-run workload shifts (a phase-change
    /// scenario): each shift is applied to its target cores' streams at
    /// the first frontier boundary at or past its cycle, so shifted
    /// runs stay deterministic across stepping interleavings. Replaces any previous schedule. Under a
    /// [`crate::StopSpec::Reconverged`] plan the shift cycles inside
    /// the measured window also become the policy's phase boundaries.
    pub fn phase_shifts(mut self, mut shifts: Vec<StreamShift>) -> Self {
        shifts.sort_by_key(|s| s.at_cycle);
        self.shifts = shifts;
        self
    }

    /// Build the session.
    ///
    /// # Panics
    ///
    /// Panics unless there is one front end per core.
    pub fn build(self) -> SimSession<O> {
        let n = self.cfg.num_cores;
        let fronts: Vec<CoreFront> = match self.source {
            FrontSource::Live(streams) => {
                assert_eq!(streams.len(), n, "one stream per core");
                streams
                    .into_iter()
                    .map(|s| CoreFront::live(LiveFront::new(s, self.cfg.l1)))
                    .collect()
            }
            FrontSource::Shared(front) => {
                assert_eq!(front.num_cores(), n, "one shared front end per core");
                assert_eq!(front.l1(), self.cfg.l1, "shared front end L1 geometry");
                (0..n)
                    .map(|c| CoreFront::shared(front.clone(), c))
                    .collect()
            }
        };
        let labels = fronts.iter().map(|f| f.label().to_string()).collect();
        // A reconverged policy segments the measured window at the
        // schedule's shift cycles; shifts during warm-up or past the
        // ceiling never segment it.
        let warmup = self.plan.warmup_cycles;
        let horizon = self.plan.horizon();
        let mut boundaries: Vec<u64> = self
            .shifts
            .iter()
            .filter(|s| s.at_cycle > warmup && s.at_cycle < horizon)
            .map(|s| s.at_cycle - warmup)
            .collect();
        boundaries.dedup();
        let policy = self.plan.policy(&boundaries);
        SimSession {
            cores: (0..self.cfg.num_cores)
                .map(|_| CoreModel::new(self.cfg.core))
                .collect(),
            fronts,
            front_error: None,
            l1i_stats: vec![CacheStats::default(); n],
            l1d_stats: vec![CacheStats::default(); n],
            bus: Bus::new(self.cfg.bus),
            dram: Dram::new(self.cfg.dram),
            org: self.org,
            labels,
            warmup_cycles: self.plan.warmup_cycles,
            horizon,
            observe_stride: policy.observe_stride(),
            policy,
            stopped_at: None,
            policy_next_at: 0,
            policy_origin: 0,
            policy_prev_cycle: 0,
            policy_cores: Vec::new(),
            measuring: false,
            baseline: Vec::new(),
            shifts: self.shifts,
            next_shift: 0,
            fired_shifts: Vec::new(),
            probe_stride: 0,
            next_probe_at: 0,
            probe_cores: Vec::new(),
            probe_l2: CacheStats::default(),
            series: None,
            tally: SimCounters::default(),
            probe_counters: SimCounters::default(),
            cfg: self.cfg,
        }
    }
}

/// A steppable simulation session (see the module docs).
pub struct SimSession<O: L2Org> {
    cfg: SystemConfig,
    cores: Vec<CoreModel>,
    fronts: Vec<CoreFront>,
    /// The shared-front-end failure that stopped the session, if any.
    front_error: Option<FrontError>,
    /// Per-core L1I/L1D statistics, tallied from the front ends'
    /// outcomes — the same counts for live and shared front ends.
    l1i_stats: Vec<CacheStats>,
    l1d_stats: Vec<CacheStats>,
    bus: Bus,
    dram: Dram,
    org: O,
    labels: Vec<String>,
    warmup_cycles: u64,
    /// The end of the run window: `warmup_cycles` plus the policy's
    /// measured ceiling, saturating.
    horizon: u64,
    /// The policy's observation stride (0: it never observes).
    observe_stride: u64,
    /// The stop policy governing the measured window.
    policy: Box<dyn StopPolicy>,
    /// The frontier cycle at which the policy ended the run early
    /// (`None`: still running, or the run reaches the horizon).
    stopped_at: Option<u64>,
    /// The next measured-window boundary the policy observes at
    /// (`origin + k * stride`; 0 before measurement).
    policy_next_at: u64,
    /// The frontier cycle measurement began at: the anchor of the
    /// policy's observation grid. Anchoring at the *actual* start
    /// (rather than the nominal warm-up boundary the frontier may have
    /// jumped past) keeps every observation interval a full stride —
    /// a partial first interval would feed the estimator a sample that
    /// integrates fewer operations than its peers.
    policy_origin: u64,
    /// Frontier cycle of the previous policy observation (interval
    /// lengths for partial-stride rejection).
    policy_prev_cycle: u64,
    /// Per-core (instructions, cycle) at the previous policy
    /// observation.
    policy_cores: Vec<(u64, u64)>,
    /// Whether the measurement phase has begun (stats reset done).
    measuring: bool,
    /// Per-core (instructions, cycle) at measurement start.
    baseline: Vec<(u64, u64)>,
    /// The phase-change schedule, sorted by cycle.
    shifts: Vec<StreamShift>,
    /// Index of the next unapplied shift.
    next_shift: usize,
    /// Shifts applied since the last probe sample (drained into
    /// [`PeriodSample::shifts`]).
    fired_shifts: Vec<StreamShift>,
    probe_stride: u64,
    next_probe_at: u64,
    /// Per-core (instructions, cycle) at the previous probe tick.
    probe_cores: Vec<(u64, u64)>,
    /// Aggregate L2 stats at the previous probe tick.
    probe_l2: CacheStats,
    series: Option<Vec<PeriodSample>>,
    /// Observability tallies the session itself increments on the hot
    /// path (retired ops, L1 walk depths, L2Org dispatches, scheme
    /// relatch events). The remaining [`SimCounters`] fields are
    /// harvested from component statistics at assembly time.
    tally: SimCounters,
    /// Assembled counters at the previous probe tick (interval deltas).
    probe_counters: SimCounters,
}

impl<O: L2Org> SimSession<O> {
    /// Start building a session.
    pub fn builder(cfg: SystemConfig, org: O) -> SessionBuilder<O> {
        SessionBuilder::new(cfg, org)
    }

    /// The simulation frontier: the minimum core-local clock. All state
    /// at cycles below the frontier is final.
    pub(crate) fn frontier(&self) -> u64 {
        self.cores.iter().map(|c| c.cycle()).min().unwrap_or(0)
    }

    /// The end of the run window (`warmup` + the policy's measured
    /// ceiling). A convergence policy may end the run earlier — see
    /// [`SimSession::stopped_at`].
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// The frontier cycle at which the stop policy ended the run early,
    /// or `None` while the session is running or when it reached the
    /// horizon.
    pub fn stopped_at(&self) -> Option<u64> {
        self.stopped_at
    }

    /// Begin measurement when the frontier has crossed the warm-up
    /// boundary: reset statistics (cache contents retained) and latch
    /// the per-core baseline. Frontier-driven, so it happens at the
    /// same point in the op sequence however the session is stepped.
    fn sync_phase(&mut self) {
        if self.measuring || self.frontier() < self.warmup_cycles {
            return;
        }
        self.begin_measurement();
    }

    /// The warm-up boundary actions (see [`SimSession::sync_phase`]).
    fn begin_measurement(&mut self) {
        self.org.reset_stats();
        for l1 in self.l1d_stats.iter_mut().chain(self.l1i_stats.iter_mut()) {
            l1.reset();
        }
        self.bus.reset_stats();
        self.dram.reset_stats();
        self.baseline = self
            .cores
            .iter()
            .map(|c| (c.instructions(), c.cycle()))
            .collect();
        // The probe delta baselines restart with the reset counters.
        self.probe_l2 = CacheStats::default();
        self.probe_cores = self.baseline.clone();
        // Observability counters cover the measured window, like the
        // component statistics they extend.
        self.tally = SimCounters::default();
        self.probe_counters = SimCounters::default();
        // The stop policy observes from the measurement-start frontier
        // on. The anchor is frontier-derived (and the frontier at the
        // warm-up transition is the same in every interleaving), so the
        // observation grid — and therefore the early-exit decision —
        // latches at the same point in the op sequence however the
        // session is driven.
        let stride = self.observe_stride;
        if stride > 0 {
            self.policy_cores = self.baseline.clone();
            self.policy_origin = self.frontier();
            self.policy_prev_cycle = self.policy_origin;
            self.policy_next_at = self.policy_origin + stride;
        }
        self.measuring = true;
    }

    /// Execute one operation on the core with the smallest local clock.
    /// Returns `false` once every core has reached the horizon, the
    /// stop policy has ended the run (the session is complete), or a
    /// shared front end failed ([`SimSession::front_error`]).
    pub fn step(&mut self) -> bool {
        if self.stopped_at.is_some() || self.front_error.is_some() {
            return false;
        }
        // One scan serves three purposes: the global minimum clock IS
        // the frontier, decides the phase transition, and names the next
        // core to step (first index on ties, as the one-shot driver
        // did).
        let mut min_cycle = u64::MAX;
        let mut min_core = 0;
        for (i, core) in self.cores.iter().enumerate() {
            if core.cycle() < min_cycle {
                min_cycle = core.cycle();
                min_core = i;
            }
        }
        if !self.measuring && min_cycle >= self.warmup_cycles {
            self.begin_measurement();
        }
        if min_cycle >= self.horizon {
            return false;
        }
        // Apply scheduled workload shifts at frontier boundaries:
        // frontier-derived like the phase transition above, so a shift
        // lands before the exact same operation in every interleaving.
        if self.next_shift < self.shifts.len() && !self.sync_shifts(min_cycle) {
            return false;
        }
        if !self.exec_one(min_core) {
            return false;
        }
        if self.probe_stride > 0 {
            self.fire_probes();
        }
        self.observe_policy();
        true
    }

    /// Advance until the frontier reaches `cycle` (clamped to the
    /// horizon) — every core's local clock ends at or beyond the target.
    pub fn run_until(&mut self, cycle: u64) {
        let target = cycle.min(self.horizon);
        self.run_batched(target);
        self.sync_phase();
    }

    /// The batched drive loop: the same state at every boundary as
    /// repeated [`SimSession::step`] calls, but the per-op work drops to
    /// one `exec_miss` plus two compares per miss, and one charge per
    /// run of L1 hits.
    ///
    /// `step()` pays an O(num_cores) min-clock scan and re-checks every
    /// boundary (warm-up, horizon, shift, probe, policy) per op. The
    /// scan's winner only changes when the running core's clock passes
    /// the *second*-smallest clock, and every boundary is a fixed cycle
    /// known up front — so one scan pins `min_core`, a second pins the
    /// runner-up `(second_cycle, second_idx)`, and `min_core` then
    /// executes turns ([`SimSession::exec_turn`]) back-to-back until
    /// either
    ///
    /// * its clock passes the runner-up (strictly, or equal with a
    ///   smaller index elsewhere — the tie order of `step`'s first-index
    ///   scan), or
    /// * the frontier reaches the next *pre-exec* boundary (target,
    ///   horizon, warm-up edge, pending shift cycle), which `step`
    ///   handles before executing an op, or
    /// * the frontier reaches the next *post-exec* boundary (probe
    ///   stride, policy observation), which `step` fires after an op —
    ///   handled inline without ending the batch.
    ///
    /// **Hit run-ahead.** An L1 hit touches no state outside its own
    /// core: its instructions, clock and L1 tally. And before any
    /// boundary's actions run, each core has executed exactly the ops
    /// that start before that boundary. So a turn also charges the runs
    /// of hits that follow its op, past the runner-up's clock, as long
    /// as each hit starts before the next boundary of either kind.
    /// Misses still execute in global order (lowest clock first, lowest
    /// core index on ties): a core's clock is always where its next op
    /// starts, and a miss read ahead waits in its front end for the
    /// core's turn. A live front end generates an op only while its
    /// core's clock is below the next boundary, so none is generated
    /// before a shift that precedes it.
    ///
    /// While the batch runs, the frontier is `min(running core's clock,
    /// second_cycle)` by construction, so no boundary can be crossed
    /// unnoticed; `fire_probes`/`observe_policy` are invoked once every
    /// core has executed exactly the ops stepping would have executed
    /// when it invoked them non-trivially.
    fn run_batched(&mut self, target: u64) {
        loop {
            if self.stopped_at.is_some() || self.front_error.is_some() {
                return;
            }
            // Pre-exec boundary checks, in `step`'s order (first index
            // wins clock ties, as the one-shot driver did). One pass
            // pins both the minimum clock (the frontier / next core to
            // run) and the runner-up (the batch-ending boundary): with
            // strict `<` compares and in-order iteration, the two-track
            // update keeps exactly the first-index tie winners that
            // `step`'s separate scans would pick.
            let mut min_cycle = u64::MAX;
            let mut min_core = 0;
            let mut second_cycle = u64::MAX;
            let mut second_idx = usize::MAX;
            for (i, core) in self.cores.iter().enumerate() {
                let cyc = core.cycle();
                if cyc < min_cycle {
                    second_cycle = min_cycle;
                    second_idx = min_core;
                    min_cycle = cyc;
                    min_core = i;
                } else if cyc < second_cycle {
                    second_cycle = cyc;
                    second_idx = i;
                }
            }
            if self.cores.len() == 1 {
                second_idx = usize::MAX;
            }
            if min_cycle >= target {
                return;
            }
            if !self.measuring && min_cycle >= self.warmup_cycles {
                self.begin_measurement();
            }
            let horizon = self.horizon;
            if min_cycle >= horizon {
                return;
            }
            if self.next_shift < self.shifts.len() && !self.sync_shifts(min_cycle) {
                return;
            }
            // Boundaries `step` honours *before* executing an op. The
            // warm-up edge only matters until measurement begins; a
            // pending shift must land before the first op at/past its
            // cycle.
            let mut pre_limit = target.min(horizon);
            if !self.measuring {
                pre_limit = pre_limit.min(self.warmup_cycles);
            }
            if self.next_shift < self.shifts.len() {
                pre_limit = pre_limit.min(self.shifts[self.next_shift].at_cycle);
            }
            let mut post_limit = self.post_exec_limit();
            loop {
                if !self.exec_turn(min_core, pre_limit.min(post_limit)) {
                    return;
                }
                let cyc = self.cores[min_core].cycle();
                let frontier = cyc.min(second_cycle);
                if frontier >= post_limit {
                    // `step` calls these after every op; they only act
                    // when the frontier has reached their boundary,
                    // which is exactly now.
                    if self.probe_stride > 0 {
                        self.fire_probes();
                    }
                    self.observe_policy();
                    if self.stopped_at.is_some() {
                        return;
                    }
                    post_limit = self.post_exec_limit();
                }
                if cyc > second_cycle || (cyc == second_cycle && second_idx < min_core) {
                    break;
                }
                if frontier >= pre_limit {
                    break;
                }
            }
        }
    }

    /// The next cycle at which a post-exec boundary (probe sample or
    /// policy observation) fires, or `u64::MAX` when neither is armed.
    #[inline]
    fn post_exec_limit(&self) -> u64 {
        let mut limit = u64::MAX;
        if self.probe_stride > 0 {
            limit = limit.min(self.next_probe_at);
        }
        if self.measuring && self.stopped_at.is_none() && self.observe_stride > 0 {
            limit = limit.min(self.policy_next_at);
        }
        limit
    }

    /// Apply every scheduled shift whose cycle the frontier has
    /// reached, in schedule order. A shift no targeted stream
    /// understands (streams signal via [`OpStream::apply_shift`]'s
    /// return — e.g. a demand directive after the pattern went
    /// streaming, or a core filter matching no stream) is *not*
    /// recorded into the probe samples: a phantom phase-boundary event
    /// for a workload that never changed would be worse than silence.
    /// Returns `false`, keeping the error for
    /// [`SimSession::front_error`], when a shared core cannot be forked.
    fn sync_shifts(&mut self, frontier: u64) -> bool {
        while self.next_shift < self.shifts.len() {
            if frontier < self.shifts[self.next_shift].at_cycle {
                break;
            }
            let shift = self.shifts[self.next_shift].clone();
            let mut applied = false;
            for (core, front) in self.fronts.iter_mut().enumerate() {
                if shift.targets(core) {
                    match front.apply_shift(&shift.directive) {
                        Ok(a) => applied |= a,
                        Err(e) => {
                            self.front_error = Some(e);
                            return false;
                        }
                    }
                }
            }
            if applied {
                self.fired_shifts.push(shift);
            }
            self.next_shift += 1;
        }
        true
    }

    /// Run the whole window and return the measured result.
    ///
    /// # Panics
    ///
    /// Panics with the [`FrontError`] if a shared front end failed; a
    /// caller that must survive that drives the session with
    /// [`SimSession::run_until`] and checks [`SimSession::front_error`].
    #[expect(
        clippy::panic,
        reason = "documented: this entry point has no error channel; run_until callers check front_error"
    )]
    pub fn run_to_completion(&mut self) -> SystemResult {
        self.run_batched(u64::MAX);
        self.sync_phase();
        if let Some(e) = &self.front_error {
            panic!("the run stopped early: {e}");
        }
        self.result()
    }

    /// The measured result so far: per-core IPC over the measured
    /// window, exactly as the one-shot driver reported it.
    ///
    /// # Panics
    ///
    /// Panics if measurement has not begun (frontier below warm-up).
    pub fn result(&self) -> SystemResult {
        assert!(
            self.measuring,
            "result() before the warm-up boundary; drive the session past \
             warmup_cycles first"
        );
        let cores = (0..self.cfg.num_cores)
            .map(|i| {
                let (i0, c0) = self.baseline[i];
                let instructions = self.cores[i].instructions() - i0;
                let cycles = self.cores[i].cycle().saturating_sub(c0).max(1);
                CoreResult {
                    label: self.labels[i].clone(),
                    instructions,
                    cycles,
                    ipc: instructions as f64 / cycles as f64,
                    stalls: self.cores[i].stats(),
                    l1d: self.l1d_stats[i],
                }
            })
            .collect();
        SystemResult {
            scheme: self.org.name().to_string(),
            cores,
            l2: self.org.aggregate_stats(),
        }
    }

    /// Execute exactly one op on core `c`: its next miss, or the first
    /// hit of its run. Returns `false`, executing nothing, when a shared
    /// front end fails; the error is kept for
    /// [`SimSession::front_error`].
    fn exec_one(&mut self, c: usize) -> bool {
        self.exec_next(c, u64::MAX, 1)
    }

    /// One turn of core `c`, whose clock is below `limit` (the next
    /// boundary): its next op — a miss, or its run of hits — then, while
    /// its clock stays below `limit`, the runs of hits that follow (see
    /// [`SimSession::run_batched`]). Returns `false` as
    /// [`SimSession::exec_one`] does.
    #[inline]
    fn exec_turn(&mut self, c: usize, limit: u64) -> bool {
        if !self.exec_next(c, limit, usize::MAX) {
            return false;
        }
        while self.cores[c].cycle() < limit {
            if let Err(e) = self.fronts[c].fill() {
                self.front_error = Some(e);
                return false;
            }
            if !self.fronts[c].has_hits() {
                // A miss: it waits for the core's turn.
                break;
            }
            self.charge_hits(c, limit, usize::MAX);
        }
        true
    }

    /// Execute core `c`'s next op: its miss, or at most `most` hits of
    /// its run, as [`SimSession::charge_hits`] takes them. Returns
    /// `false` as [`SimSession::exec_one`] does.
    #[inline]
    fn exec_next(&mut self, c: usize, limit: u64, most: usize) -> bool {
        if let Err(e) = self.fronts[c].fill() {
            self.front_error = Some(e);
            return false;
        }
        match self.fronts[c].take_miss() {
            Some(op) => self.exec_miss(c, op),
            None => self.charge_hits(c, limit, most),
        }
        true
    }

    /// Charge core `c`'s run of L1 hits: every hit that starts before
    /// `limit`, up to `most`, the rest staying in the front end. Hits go to
    /// `CoreModel::issue` together as long as none ends at the ROB limit
    /// of the oldest outstanding miss, so a run usually costs one
    /// `issue`; the hit that reaches that limit goes alone, after the
    /// hits before it, and drains the miss.
    #[inline]
    fn charge_hits(&mut self, c: usize, limit: u64, most: usize) {
        let front = &mut self.fronts[c];
        let core = &mut self.cores[c];
        let hits = front.hits();
        let depths = &mut self.tally.l1_walk_depths;
        let mut before = core.slots_before(limit);
        let mut within = core.rob_room();
        // Instructions of the hits kept but not yet issued.
        let mut ahead = 0;
        let mut left = most;
        let taken = hits.scan(|n, bucket| {
            if ahead >= before || left == 0 {
                // This hit starts at or past `limit`, or is one too many.
                return false;
            }
            left -= 1;
            depths[bucket] += 1;
            if ahead + n < within {
                ahead += n;
                return true;
            }
            if ahead > 0 {
                core.issue(ahead);
                ahead = 0;
            }
            core.issue(n);
            before = core.slots_before(limit);
            within = core.rob_room();
            true
        });
        if ahead > 0 {
            core.issue(ahead);
        }
        count_hits(
            &mut self.tally,
            &mut self.l1d_stats[c],
            &mut self.l1i_stats[c],
            hits.ifetch(),
            taken,
        );
        front.take_hits(taken);
    }

    /// Execute the L1 miss `op` on core `c`: charge its instructions,
    /// write back a dirty victim and take the L2 path.
    fn exec_miss(&mut self, c: usize, op: FrontOp) {
        self.cores[c].issue(op.instructions());
        let now = self.cores[c].cycle();
        let (l1, stalls_core) = match op.kind {
            AccessKind::IFetch => (&mut self.l1i_stats[c], true),
            AccessKind::Load => (&mut self.l1d_stats[c], true),
            AccessKind::Store => (&mut self.l1d_stats[c], false),
        };
        self.tally.retired_ops += 1;
        l1.misses += 1;
        let mut res = ChipResources {
            bus: &mut self.bus,
            dram: &mut self.dram,
        };
        if let L1Outcome::Miss { victim: Some(v) } = op.l1 {
            l1.evictions += 1;
            // L1 fill displaced a dirty victim: write it back to L2 (off
            // the critical path, no demand-access accounting).
            if v.dirty {
                l1.writebacks += 1;
                self.tally.org_writebacks += 1;
                self.org.writeback(c, v.block, now, &mut res);
            }
        }
        self.tally.org_accesses += 1;
        let outcome = self
            .org
            .access(c, op.block, op.kind.is_write(), now, &mut res);
        if stalls_core {
            // L1 hit latency is charged on top of the L2 path.
            let completes = now + self.cfg.l1_latency + outcome.latency;
            if op.critical {
                self.cores[c].stall_until(completes);
            } else {
                self.cores[c].track_load(completes);
            }
        }
    }

    /// Emit probe samples for every stride boundary the frontier has
    /// crossed. When one step jumps several boundaries at once, a single
    /// sample (labelled with the first crossed boundary) covers them —
    /// interval deltas stay conservative either way.
    fn fire_probes(&mut self) {
        if self.probe_stride == 0 || self.frontier() < self.next_probe_at {
            return;
        }
        let frontier = self.frontier();
        let boundary = self.next_probe_at;
        self.next_probe_at = frontier - frontier % self.probe_stride + self.probe_stride;

        let now_cores: Vec<(u64, u64)> = self
            .cores
            .iter()
            .map(|c| (c.instructions(), c.cycle()))
            .collect();
        if self.probe_cores.is_empty() {
            self.probe_cores = vec![(0, 0); now_cores.len()];
        }
        let l2_now = self.org.aggregate_stats();
        let events = self.org.drain_events();
        self.note_events(&events);
        let now = self.assemble_counters();
        let counters = now.delta(&self.probe_counters);
        self.probe_counters = now;
        let sample = PeriodSample {
            cycle: boundary,
            during_warmup: !self.measuring,
            instructions: now_cores
                .iter()
                .zip(&self.probe_cores)
                .map(|(n, p)| n.0.saturating_sub(p.0))
                .collect(),
            cycles: now_cores
                .iter()
                .zip(&self.probe_cores)
                .map(|(n, p)| n.1.saturating_sub(p.1))
                .collect(),
            l2: stats_delta(&l2_now, &self.probe_l2),
            events,
            shifts: std::mem::take(&mut self.fired_shifts),
            counters: Some(counters),
        };
        self.probe_cores = now_cores;
        self.probe_l2 = l2_now;
        if let Some(series) = &mut self.series {
            series.push(sample);
        }
    }

    /// Deliver the interval throughput to the stop policy at every
    /// crossed policy boundary (`policy_origin + k * stride`, anchored
    /// at the measurement-start frontier so every interval spans full
    /// strides). Like `fire_probes`, a step that jumps several
    /// boundaries delivers one combined observation — boundaries are
    /// frontier-derived, so the observation sequence (and therefore the
    /// early-exit decision) is identical in every interleaving.
    fn observe_policy(&mut self) {
        if self.stopped_at.is_some() || !self.measuring {
            return;
        }
        let stride = self.observe_stride;
        if stride == 0 {
            return;
        }
        let frontier = self.frontier();
        if frontier < self.policy_next_at {
            return;
        }
        // An observation at or past the ceiling cannot stop anything
        // early — the run is ending anyway — and must never latch a
        // stop cycle beyond the horizon (a run that reaches the
        // ceiling reports the full window, not an "early" stop there).
        if frontier >= self.horizon {
            return;
        }
        let rel = frontier - self.warmup_cycles;
        // The boundary grid is anchored at the measurement-start
        // frontier (`policy_origin`), so every interval spans full
        // strides.
        self.policy_next_at =
            self.policy_origin + ((frontier - self.policy_origin) / stride + 1) * stride;
        let now: Vec<(u64, u64)> = self
            .cores
            .iter()
            .map(|c| (c.instructions(), c.cycle()))
            .collect();
        let throughput = now
            .iter()
            .zip(&self.policy_cores)
            .map(|(n, p)| {
                let cycles = n.1.saturating_sub(p.1);
                if cycles == 0 {
                    0.0
                } else {
                    n.0.saturating_sub(p.0) as f64 / cycles as f64
                }
            })
            .sum();
        self.policy_cores = now;
        let obs = StopObservation {
            cycle: frontier,
            measured_cycles: rel,
            interval_cycles: frontier - self.policy_prev_cycle,
            throughput,
        };
        self.policy_prev_cycle = frontier;
        if self.policy.observe(&obs) {
            self.stopped_at = Some(frontier);
        }
    }

    /// Take the recorded time series (empty if recording was not
    /// enabled).
    pub fn take_series(&mut self) -> Vec<PeriodSample> {
        self.series.take().unwrap_or_default()
    }

    /// Enable (or retune) series recording on a built session: probes
    /// fire every `stride` cycles from the next boundary past the
    /// current frontier.
    pub fn enable_recording(&mut self, stride: u64) {
        assert!(stride > 0, "stride must be positive");
        self.probe_stride = stride;
        let frontier = self.frontier();
        self.next_probe_at = frontier - frontier % stride + stride;
        if self.series.is_none() {
            self.series = Some(Vec::new());
        }
    }

    /// The L2 organisation.
    pub fn org(&self) -> &O {
        &self.org
    }

    /// Per-phase plateau records from the stop policy (non-empty only
    /// under a re-convergence policy; the last entry covers the phase
    /// in progress when the run ended).
    pub fn phase_plateaus(&self) -> Vec<PhasePlateau> {
        self.policy.plateaus()
    }

    /// Bus statistics.
    pub fn bus_stats(&self) -> crate::bus::BusStats {
        self.bus.stats()
    }

    /// DRAM statistics.
    pub fn dram_stats(&self) -> sim_mem::DramStats {
        self.dram.stats()
    }

    /// The shared-front-end failure that stopped the session, if any.
    /// Once set, the session executes no further ops, so its results
    /// cover only the ops before the failure: a caller that attached a
    /// [`SharedFront`] must check this before trusting them.
    pub fn front_error(&self) -> Option<&FrontError> {
        self.front_error.as_ref()
    }

    /// L1D statistics for one core.
    pub fn l1d_stats(&self, core: usize) -> &CacheStats {
        &self.l1d_stats[core]
    }

    /// Tally scheme events into the observability counters (called as
    /// events are drained, so each event is counted exactly once).
    /// Counters cover the measured window, but warm-up-era events can
    /// surface in *any* later drain — probe recording makes drain
    /// timing arbitrary — so membership is decided by the event's own
    /// cycle, not by when the boundary reset happened.
    fn note_events(&mut self, events: &[SchemeEvent]) {
        for e in events {
            if e.cycle < self.warmup_cycles {
                continue;
            }
            match e.kind {
                SchemeEventKind::IdentifyBegin => self.tally.identifies += 1,
                SchemeEventKind::GroupedBegin => self.tally.relatches += 1,
            }
        }
    }

    /// Assemble the full counter block: the session's hot-path tallies
    /// plus the component statistics (L1s, L2 organisation, bus, DRAM,
    /// core stall attribution) harvested at call time.
    fn assemble_counters(&self) -> SimCounters {
        let mut c = self.tally;
        for l1 in &self.l1i_stats {
            c.l1i_hits += l1.hits;
            c.l1i_misses += l1.misses;
        }
        for l1 in &self.l1d_stats {
            c.l1d_hits += l1.hits;
            c.l1d_misses += l1.misses;
        }
        let l2 = self.org.aggregate_stats();
        c.l2_hits = l2.hits;
        c.l2_misses = l2.misses;
        c.l2_cc_hits = l2.cc_hits;
        c.l2_evictions = l2.evictions;
        c.l2_writebacks = l2.writebacks;
        c.spills_out = l2.spills_out;
        c.spills_in = l2.spills_in;
        c.forwards = l2.forwards;
        c.retrieved_from_peer = l2.retrieved_from_peer;
        c.shadow_hits = l2.shadow_hits;
        c.write_buffer_hits = l2.write_buffer_hits;
        let bus = self.bus.stats();
        c.bus_address_transactions = bus.address_transactions;
        c.bus_data_transactions = bus.data_transactions;
        c.bus_queue_cycles = bus.queue_cycles;
        let dram = self.dram.stats();
        c.dram_reads = dram.reads;
        c.dram_writes = dram.writes;
        c.dram_queue_cycles = dram.queue_cycles;
        for core in &self.cores {
            let s = core.stats();
            c.core_rob_stall_cycles += s.rob_stall_cycles;
            c.core_mshr_stall_cycles += s.mshr_stall_cycles;
            c.core_dep_stall_cycles += s.dep_stall_cycles;
        }
        c
    }

    /// The observability counters accumulated so far. Like the
    /// component statistics they extend, counters reset at the warm-up
    /// boundary and cover the measured window. Pending scheme events
    /// are drained into the relatch tally first — with probe recording
    /// enabled, call this only after the run is over or the next sample
    /// will miss those events.
    pub fn counters(&mut self) -> SimCounters {
        let events = self.org.drain_events();
        self.note_events(&events);
        self.assemble_counters()
    }
}

/// Tally `n` L1 hits on the L1I (`ifetch`) or L1D as retired ops and
/// hits: one add each however many.
#[inline]
fn count_hits(
    tally: &mut SimCounters,
    l1d: &mut CacheStats,
    l1i: &mut CacheStats,
    ifetch: bool,
    n: usize,
) {
    let n = n as u64;
    tally.retired_ops += n;
    if ifetch {
        l1i.hits += n;
    } else {
        l1d.hits += n;
    }
}

/// Field-wise saturating difference of two cumulative counter blocks.
fn stats_delta(now: &CacheStats, earlier: &CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits.saturating_sub(earlier.hits),
        misses: now.misses.saturating_sub(earlier.misses),
        cc_hits: now.cc_hits.saturating_sub(earlier.cc_hits),
        evictions: now.evictions.saturating_sub(earlier.evictions),
        writebacks: now.writebacks.saturating_sub(earlier.writebacks),
        spills_out: now.spills_out.saturating_sub(earlier.spills_out),
        spills_in: now.spills_in.saturating_sub(earlier.spills_in),
        forwards: now.forwards.saturating_sub(earlier.forwards),
        retrieved_from_peer: now
            .retrieved_from_peer
            .saturating_sub(earlier.retrieved_from_peer),
        shadow_hits: now.shadow_hits.saturating_sub(earlier.shadow_hits),
        write_buffer_hits: now
            .write_buffer_hits
            .saturating_sub(earlier.write_buffer_hits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cache::SetAssocCache;
    use sim_mem::VecStream;

    /// Minimal private-L2 organisation: every slice is an isolated cache
    /// backed by DRAM (no write buffer, no sharing). Enough to test the
    /// driver.
    #[derive(Clone)]
    struct TestOrg {
        slices: Vec<SetAssocCache>,
        local_lat: u64,
    }

    impl TestOrg {
        fn new(cfg: &SystemConfig) -> Self {
            TestOrg {
                slices: (0..cfg.num_cores)
                    .map(|_| SetAssocCache::new(cfg.l2_slice))
                    .collect(),
                local_lat: cfg.l2_local_latency,
            }
        }
    }

    impl L2Org for TestOrg {
        fn access(
            &mut self,
            core: usize,
            block: sim_mem::BlockAddr,
            is_write: bool,
            now: u64,
            res: &mut ChipResources<'_>,
        ) -> crate::L2Outcome {
            let r = self.slices[core].access(block, is_write);
            if r.hit {
                crate::L2Outcome {
                    latency: self.local_lat,
                    fill: crate::L2Fill::LocalHit,
                }
            } else {
                if let Some(ev) = r.evicted {
                    if ev.flags.dirty {
                        res.dram.write(now);
                    }
                }
                let done = res.dram.read(now);
                crate::L2Outcome {
                    latency: self.local_lat + (done - now),
                    fill: crate::L2Fill::Dram,
                }
            }
        }

        fn writeback(
            &mut self,
            core: usize,
            block: sim_mem::BlockAddr,
            _now: u64,
            _res: &mut ChipResources<'_>,
        ) {
            let set = self.slices[core].home_set(block);
            let _ = self.slices[core].touch_in_set(set, block, true);
        }

        fn slice_stats(&self, core: usize) -> &CacheStats {
            self.slices[core].stats()
        }

        fn num_cores(&self) -> usize {
            self.slices.len()
        }

        fn name(&self) -> &'static str {
            "test-l2p"
        }

        fn reset_stats(&mut self) {
            self.slices.iter_mut().for_each(|s| s.reset_stats());
        }

        fn clone_dyn(&self) -> Box<dyn L2Org> {
            Box::new(self.clone())
        }
    }

    fn streams(blocks: u64, gap: u32) -> Vec<Box<dyn OpStream>> {
        (0..4)
            .map(|i| {
                let addrs: Vec<u64> = (0..blocks).map(|b| (b + 1000 * i) * 64).collect();
                Box::new(VecStream::loads(format!("w{i}"), addrs, gap)) as Box<dyn OpStream>
            })
            .collect()
    }

    /// A shift-aware test stream: cycling loads whose instruction gap
    /// rescales on a `DemandScale` directive (a percent-scale knob is
    /// all the shift plumbing needs; the real demand semantics live in
    /// the workload crate).
    struct GapStream {
        label: String,
        addrs: Vec<u64>,
        pos: usize,
        gap: u32,
    }

    impl GapStream {
        fn boxed(core: u64, blocks: u64, gap: u32) -> Box<dyn OpStream> {
            Box::new(GapStream {
                label: format!("g{core}"),
                addrs: (0..blocks).map(|b| (b + 1000 * core) * 64).collect(),
                pos: 0,
                gap,
            })
        }
    }

    impl OpStream for GapStream {
        fn next_op(&mut self) -> sim_mem::CoreOp {
            let addr = self.addrs[self.pos];
            self.pos = (self.pos + 1) % self.addrs.len();
            sim_mem::CoreOp::new(self.gap, sim_mem::Access::load(addr))
        }

        fn label(&self) -> &str {
            &self.label
        }

        fn apply_shift(&mut self, directive: &sim_mem::ShiftDirective) -> bool {
            match directive {
                sim_mem::ShiftDirective::DemandScale { percent } => {
                    let scaled = (u64::from(self.gap) * u64::from(*percent) / 100).max(1);
                    self.gap = u32::try_from(scaled).unwrap();
                    true
                }
                _ => false,
            }
        }
    }

    fn shiftable_streams(gap: u32) -> Vec<Box<dyn OpStream>> {
        (0..4).map(|i| GapStream::boxed(i, 64, gap)).collect()
    }

    fn session(blocks: u64) -> SimSession<TestOrg> {
        let cfg = SystemConfig::tiny_test();
        SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(blocks, 3))
            .budget(2_000, 30_000)
            .build()
    }

    fn small_loop_stream(label: &str, blocks: u64, gap: u32) -> Box<dyn OpStream> {
        let addrs: Vec<u64> = (0..blocks).map(|i| i * 64).collect();
        Box::new(VecStream::loads(label, addrs, gap))
    }

    /// Run `streams` through a fresh session over the `warmup` +
    /// `measure` fixed window.
    fn run_fixed(streams: Vec<Box<dyn OpStream>>, warmup: u64, measure: u64) -> SystemResult {
        let cfg = SystemConfig::tiny_test();
        SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams)
            .budget(warmup, measure)
            .build()
            .run_to_completion()
    }

    #[test]
    fn all_cores_complete_budget() {
        let streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|i| small_loop_stream(&format!("w{i}"), 4, 3))
            .collect();
        let res = run_fixed(streams, 500, 20_000);
        for c in &res.cores {
            assert!(c.instructions > 0);
            assert!(c.cycles >= 19_000, "every core ran the full window");
            assert!(c.ipc > 0.0);
        }
        assert_eq!(res.scheme, "test-l2p");
    }

    #[test]
    fn cache_friendly_workload_beats_thrashing() {
        // Fits in L1 (4 sets × 2 ways = 8 blocks): near-peak IPC.
        let friendly: Vec<Box<dyn OpStream>> =
            (0..4).map(|_| small_loop_stream("fit", 4, 7)).collect();
        // 4096 distinct blocks: L1 and the 64-block L2 both thrash.
        let thrash: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| small_loop_stream("thrash", 4096, 7))
            .collect();
        let a = run_fixed(friendly, 2_000, 50_000);
        let b = run_fixed(thrash, 2_000, 50_000);
        assert!(
            a.throughput() > 3.0 * b.throughput(),
            "friendly {} vs thrash {}",
            a.throughput(),
            b.throughput()
        );
    }

    #[test]
    fn stores_do_not_stall_cores() {
        let addrs: Vec<u64> = (0..4096u64).map(|i| i * 64).collect();
        let load_streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| Box::new(VecStream::loads("ld", addrs.clone(), 3)) as Box<dyn OpStream>)
            .collect();
        let store_streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|_| {
                let ops: Vec<_> = addrs
                    .iter()
                    .map(|&a| sim_mem::CoreOp::new(3, sim_mem::Access::store(a)))
                    .collect();
                Box::new(VecStream::cycle("st", ops)) as Box<dyn OpStream>
            })
            .collect();
        let l = run_fixed(load_streams, 2_000, 50_000);
        let s = run_fixed(store_streams, 2_000, 50_000);
        assert!(
            s.throughput() > 2.0 * l.throughput(),
            "stores {} should vastly outpace loads {}",
            s.throughput(),
            l.throughput()
        );
    }

    #[test]
    fn ipc_measured_after_warmup_only() {
        let streams: Vec<Box<dyn OpStream>> =
            (0..4).map(|_| small_loop_stream("fit", 4, 7)).collect();
        let res = run_fixed(streams, 5_000, 20_000);
        // After warm-up the 4-block loop lives in L1: misses ≈ 0.
        assert_eq!(res.l2.misses, 0, "no L2 demand misses after warm-up");
        for c in &res.cores {
            assert!(c.ipc > 3.0, "near-peak IPC, got {}", c.ipc);
        }
    }

    #[test]
    fn stepping_matches_run_to_completion() {
        let reference = session(64).run_to_completion();

        let mut stepped = session(64);
        // A deliberately awkward interleaving: single steps, then short
        // run_until hops, then drain.
        for _ in 0..100 {
            stepped.step();
        }
        for t in (0..32_000).step_by(1_500) {
            stepped.run_until(t);
        }
        let result = stepped.run_to_completion();
        assert_eq!(result, reference);
    }

    #[test]
    fn probes_fire_on_stride_and_cover_the_run() {
        let cfg = SystemConfig::tiny_test();
        let mut s = SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(64, 3))
            .budget(2_000, 30_000)
            .build();
        s.enable_recording(4_000);
        let _ = s.run_to_completion();
        let series = s.take_series();
        // One sample per crossed stride boundary over the 32 k-cycle run.
        assert!(series.len() >= 7, "got {} samples", series.len());
        assert!(series[0].during_warmup || series[0].cycle >= 2_000);
        assert!(series.iter().all(|p| p.cycle % 4_000 == 0));
        assert!(series.windows(2).all(|w| w[0].cycle < w[1].cycle));
        let last = series.last().unwrap();
        assert!(!last.during_warmup);
        assert!(last.throughput() > 0.0);
        // Interval accesses add up: each sample's L2 delta is bounded by
        // what the caches saw in total.
        assert!(series.iter().all(|p| p.l2.accesses() > 0));
    }

    #[test]
    fn external_probe_receives_samples() {
        // The recorded series is the one consumer of probe samples: a
        // caller enabling it on a built session receives every sample.
        let cfg = SystemConfig::tiny_test();
        let mut s = SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(16, 3))
            .budget(1_000, 10_000)
            .build();
        s.enable_recording(2_000);
        let _ = s.run_to_completion();
        let count = s.take_series().len();
        assert!(count >= 4, "got {count}");
    }

    #[test]
    fn converged_plan_stops_early_and_deterministically() {
        let cfg = SystemConfig::tiny_test();
        let plan = RunPlan::fixed(2_000, 30_000).until_converged(1_000, 0.5);
        let build = || {
            SimSession::builder(cfg, TestOrg::new(&cfg))
                .streams(streams(64, 3))
                .plan(plan)
                .build()
        };
        let mut s = build();
        let result = s.run_to_completion();
        let stop = s.stopped_at().expect("steady tiny loop converges");
        assert!(
            stop < s.horizon(),
            "stopped at {stop} before horizon {}",
            s.horizon()
        );
        assert!(stop >= 2_000 + 4 * 1_000, "needs a full rolling window");

        // A rerun stops at the identical cycle with the identical
        // result.
        let mut again = build();
        assert_eq!(again.run_to_completion(), result);
        assert_eq!(again.stopped_at(), Some(stop));

        // Pausing mid-measurement (estimator partially filled) and
        // resuming makes the identical early-exit decision.
        let mut warm = build();
        warm.run_until(3_500);
        assert_eq!(warm.run_to_completion(), result);
        assert_eq!(warm.stopped_at(), Some(stop));
    }

    #[test]
    fn convergence_at_the_ceiling_is_not_an_early_stop() {
        // The window divides the measured ceiling exactly, so the first
        // full rolling window lands on the final boundary: stopping
        // there saves nothing and must not latch a stop cycle at (or,
        // via a frontier jump, beyond) the horizon.
        let cfg = SystemConfig::tiny_test();
        let plan = RunPlan::fixed(2_000, 8_000).until_converged(2_000, 0.9);
        let mut s = SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(64, 3))
            .plan(plan)
            .build();
        let _ = s.run_to_completion();
        assert_eq!(s.stopped_at(), None, "ran the full window");
    }

    #[test]
    fn phase_shifts_fire_at_frontier_boundaries_and_are_recorded() {
        use sim_mem::{ShiftDirective, StreamShift};
        let cfg = SystemConfig::tiny_test();
        let shift = StreamShift::all_cores(10_000, ShiftDirective::DemandScale { percent: 300 });
        let build = |shifts: Vec<StreamShift>| {
            let mut s = SimSession::builder(cfg, TestOrg::new(&cfg))
                .streams(shiftable_streams(3))
                .budget(2_000, 30_000)
                .phase_shifts(shifts)
                .build();
            s.enable_recording(4_000);
            s
        };
        let mut plain = build(Vec::new());
        let unshifted = plain.run_to_completion();

        let mut shifted = build(vec![shift.clone()]);
        let result = shifted.run_to_completion();
        assert_ne!(result, unshifted, "the shift changed the workload");
        let series = shifted.take_series();
        let fired: Vec<&StreamShift> = series.iter().flat_map(|s| &s.shifts).collect();
        assert_eq!(
            fired,
            vec![&shift],
            "the shift appears in exactly one sample"
        );
        let at = series
            .iter()
            .find(|s| !s.shifts.is_empty())
            .map(|s| s.cycle)
            .unwrap();
        assert!(
            at >= 10_000,
            "recorded at the first boundary past the shift"
        );

        // Re-running, and pausing before the shift then resuming,
        // reproduce the shifted run bit-identically.
        assert_eq!(build(vec![shift.clone()]).run_to_completion(), result);
        let mut warm = build(vec![shift.clone()]);
        warm.run_until(6_000);
        assert_eq!(warm.run_to_completion(), result);
    }

    #[test]
    fn reconverged_plan_extends_past_the_shift_and_records_plateaus() {
        use sim_mem::{ShiftDirective, StreamShift};
        let cfg = SystemConfig::tiny_test();
        let plan = RunPlan::fixed(2_000, 30_000).until_reconverged(1_000, 0.5);
        let shift_cycle = 10_000;
        let build = || {
            SimSession::builder(cfg, TestOrg::new(&cfg))
                .streams(shiftable_streams(3))
                .plan(plan)
                .phase_shifts(vec![StreamShift::all_cores(
                    shift_cycle,
                    ShiftDirective::DemandScale { percent: 300 },
                )])
                .build()
        };
        let mut s = build();
        let result = s.run_to_completion();
        let stop = s.stopped_at().expect("steady loops re-stabilise");
        assert!(
            stop > shift_cycle,
            "the window extended past the shift (stopped at {stop})"
        );
        assert!(stop < s.horizon());

        let plateaus = s.phase_plateaus();
        assert_eq!(plateaus.len(), 2, "one plateau per workload phase");
        assert!(plateaus[0].converged(), "pre-shift plateau settled");
        assert!(plateaus[1].converged(), "post-shift plateau re-settled");
        assert!(
            plateaus[1].mean_throughput > plateaus[0].mean_throughput,
            "tripled gap raises IPC: {} -> {}",
            plateaus[0].mean_throughput,
            plateaus[1].mean_throughput
        );

        // Deterministic: a rerun and a paused-then-resumed run agree on
        // the stop cycle and the plateau records.
        let mut again = build();
        assert_eq!(again.run_to_completion(), result);
        assert_eq!(again.stopped_at(), Some(stop));
        assert_eq!(again.phase_plateaus(), plateaus);
        let mut warm = build();
        warm.run_until(11_500);
        assert_eq!(warm.run_to_completion(), result);
        assert_eq!(warm.stopped_at(), Some(stop));
        assert_eq!(warm.phase_plateaus(), plateaus);
    }

    #[test]
    fn without_boundaries_a_reconverged_plan_behaves_like_converged() {
        let cfg = SystemConfig::tiny_test();
        let fixed = RunPlan::fixed(2_000, 30_000);
        let mut conv = SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(64, 3))
            .plan(fixed.until_converged(1_000, 0.5))
            .build();
        let conv_result = conv.run_to_completion();
        let mut reconv = SimSession::builder(cfg, TestOrg::new(&cfg))
            .streams(streams(64, 3))
            .plan(fixed.until_reconverged(1_000, 0.5))
            .build();
        assert_eq!(reconv.run_to_completion(), conv_result);
        assert_eq!(reconv.stopped_at(), conv.stopped_at());
    }

    #[test]
    fn fixed_plan_never_stops_early() {
        let mut s = session(64);
        let _ = s.run_to_completion();
        assert_eq!(s.stopped_at(), None);
    }

    #[test]
    fn result_before_warmup_panics() {
        let s = session(8);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.result()));
        assert!(err.is_err());
    }
}
