//! Run plans: a warm-up spec plus a first-class stopping policy.
//!
//! Every run used to be a raw `(warmup_cycles, measure_cycles)` pair —
//! a guessed constant calibrated offline. A [`RunPlan`] makes "how long
//! is long enough" a policy decision instead:
//!
//! * [`StopSpec::FixedCycles`] reproduces the paper's fixed-window
//!   methodology exactly (and fingerprints identically to the legacy
//!   `RunBudget`, so existing content-addressed results keep matching);
//! * [`StopSpec::Converged`] stops at the first window boundary where
//!   the rolling-window throughput estimator
//!   ([`snug_metrics::RollingThroughput`]) reports the measured
//!   throughput stable to within `rel_epsilon`, bounded by
//!   `min_cycles`/`max_cycles`.
//!
//! * [`StopSpec::Reconverged`] handles phase-change workloads: the
//!   measured window is segmented at the scheduled shift cycles, the
//!   rolling window restarts at each boundary (a pre-shift plateau must
//!   never vouch for the post-shift regime), per-phase plateau means
//!   are recorded, and the run stops only once the *final* phase has
//!   re-stabilised.
//!
//! The split between [`StopSpec`] (plain `Copy` data: what goes into
//! configurations, store keys and CLI flags) and [`StopPolicy`] (the
//! stateful trait object a [`crate::SimSession`] drives) keeps plans
//! hashable and comparable while the runtime side carries the
//! estimator state. The shift boundaries a
//! `Reconverged` policy segments at are not part of the spec (they
//! belong to the workload's phase schedule); the session supplies them
//! when it materialises the policy via
//! [`RunPlan::policy_with_boundaries`].

use snug_metrics::{PhasePlateau, RollingThroughput};

/// Samples a [`Converged`] policy's rolling window holds: convergence
/// is judged over the last `WINDOW_SAMPLES` intervals of
/// `window_cycles` each, so the earliest possible stop is
/// `WINDOW_SAMPLES * window_cycles` measured cycles.
pub const WINDOW_SAMPLES: usize = 4;

/// A run plan: warm-up length plus the stopping policy for the
/// measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunPlan {
    /// Unmeasured warm-up cycles.
    pub warmup_cycles: u64,
    /// When the measured window ends.
    pub stop: StopSpec,
}

/// The data form of a stopping policy (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StopSpec {
    /// Run exactly `measure_cycles` of measured execution — the paper's
    /// fixed-window methodology.
    FixedCycles {
        /// Measured cycles.
        measure_cycles: u64,
    },
    /// Stop at the first `window_cycles` boundary (past `min_cycles`,
    /// with a full rolling window) where the last [`WINDOW_SAMPLES`]
    /// interval throughputs agree to within `rel_epsilon`; never run
    /// past `max_cycles`.
    Converged {
        /// Length of one throughput sample interval in cycles.
        window_cycles: u64,
        /// Relative spread threshold ((max − min) / mean) under which
        /// the window counts as converged.
        rel_epsilon: f64,
        /// Measured cycles before which the run never stops (0: only
        /// the full-window requirement gates the earliest stop).
        min_cycles: u64,
        /// Hard ceiling on measured cycles (the fixed budget this plan
        /// is an early-exit variant of).
        max_cycles: u64,
    },
    /// Like [`StopSpec::Converged`], but for phase-change workloads:
    /// the measured window is segmented at the workload's shift
    /// boundaries, the rolling window restarts at each one, and the run
    /// stops only when the phase after the *last* shift has
    /// re-stabilised. With no shifts inside the window it degrades to
    /// plain convergence. The boundaries come from the session's phase
    /// schedule, not from this spec.
    Reconverged {
        /// Length of one throughput sample interval in cycles.
        window_cycles: u64,
        /// Relative spread threshold ((max − min) / mean).
        rel_epsilon: f64,
        /// Measured cycles before which the run never stops.
        min_cycles: u64,
        /// Hard ceiling on measured cycles.
        max_cycles: u64,
    },
}

impl RunPlan {
    /// A fixed-window plan — the drop-in replacement for the legacy
    /// `RunBudget`.
    pub fn fixed(warmup_cycles: u64, measure_cycles: u64) -> RunPlan {
        RunPlan {
            warmup_cycles,
            stop: StopSpec::FixedCycles { measure_cycles },
        }
    }

    /// Swap this plan's stop policy for convergence-based early exit:
    /// the current measured window becomes the `max_cycles` ceiling.
    pub fn until_converged(self, window_cycles: u64, rel_epsilon: f64) -> RunPlan {
        assert!(window_cycles > 0, "window must be positive");
        assert!(rel_epsilon >= 0.0, "epsilon must be non-negative");
        RunPlan {
            warmup_cycles: self.warmup_cycles,
            stop: StopSpec::Converged {
                window_cycles,
                rel_epsilon,
                min_cycles: 0,
                max_cycles: self.measure_cycles(),
            },
        }
    }

    /// Swap this plan's stop policy for re-convergence under a
    /// phase-change schedule: the current measured window becomes the
    /// ceiling, and the run ends once throughput has re-stabilised
    /// after the last workload shift (see [`StopSpec::Reconverged`]).
    pub fn until_reconverged(self, window_cycles: u64, rel_epsilon: f64) -> RunPlan {
        assert!(window_cycles > 0, "window must be positive");
        assert!(rel_epsilon >= 0.0, "epsilon must be non-negative");
        RunPlan {
            warmup_cycles: self.warmup_cycles,
            stop: StopSpec::Reconverged {
                window_cycles,
                rel_epsilon,
                min_cycles: 0,
                max_cycles: self.measure_cycles(),
            },
        }
    }

    /// The measured-window ceiling: the full window for fixed plans,
    /// `max_cycles` for converged ones.
    pub fn measure_cycles(&self) -> u64 {
        match self.stop {
            StopSpec::FixedCycles { measure_cycles } => measure_cycles,
            StopSpec::Converged { max_cycles, .. } | StopSpec::Reconverged { max_cycles, .. } => {
                max_cycles
            }
        }
    }

    /// The absolute cycle past which no plan ever runs.
    pub fn horizon(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles()
    }

    /// Whether this plan can stop before its horizon.
    pub fn can_stop_early(&self) -> bool {
        matches!(
            self.stop,
            StopSpec::Converged { .. } | StopSpec::Reconverged { .. }
        )
    }

    /// Materialise the runtime policy a session drives. A
    /// [`StopSpec::Reconverged`] plan built this way has no phase
    /// boundaries (it behaves as plain convergence); sessions with a
    /// phase schedule use [`RunPlan::policy_with_boundaries`].
    pub fn policy(&self) -> Box<dyn StopPolicy> {
        self.policy_with_boundaries(&[])
    }

    /// Materialise the runtime policy, segmenting a
    /// [`StopSpec::Reconverged`] plan at `boundaries` — the
    /// measured-relative cycles the workload shifts at (fixed and
    /// plain-converged plans ignore them).
    pub fn policy_with_boundaries(&self, boundaries: &[u64]) -> Box<dyn StopPolicy> {
        match self.stop {
            StopSpec::FixedCycles { measure_cycles } => Box::new(FixedCycles { measure_cycles }),
            StopSpec::Converged {
                window_cycles,
                rel_epsilon,
                min_cycles,
                max_cycles,
            } => Box::new(Converged::new(
                window_cycles,
                rel_epsilon,
                min_cycles,
                max_cycles,
            )),
            StopSpec::Reconverged {
                window_cycles,
                rel_epsilon,
                min_cycles,
                max_cycles,
            } => Box::new(Reconverged::new(
                window_cycles,
                rel_epsilon,
                min_cycles,
                max_cycles,
                boundaries,
            )),
        }
    }

    /// Revision marker appended to every early-exit plan fingerprint.
    /// Bump it whenever the *observation semantics* behind the stop
    /// decision change (what samples the estimator sees, where the
    /// grid is anchored), so cached early-exit entries produced under
    /// the old semantics stop matching instead of silently pacing new
    /// runs. `obs/v2`: grid anchored at the measurement-start frontier
    /// and sub-half-stride samples skipped (the partial-interval fix).
    /// Fixed plans are untouched by observation semantics and never
    /// carry the marker — their keys stay frozen.
    pub const OBSERVATION_REVISION: &'static str = "obs/v2";

    /// Stable content-key fragment. Fixed plans render exactly as the
    /// legacy `RunBudget` debug string, so every result keyed before
    /// the plan layer existed keeps matching; converged and reconverged
    /// plans render their full parameters plus
    /// [`RunPlan::OBSERVATION_REVISION`] and therefore live under their
    /// own keys.
    pub fn fingerprint(&self) -> String {
        match self.stop {
            StopSpec::FixedCycles { measure_cycles } => format!(
                "RunBudget {{ warmup_cycles: {}, measure_cycles: {} }}",
                self.warmup_cycles, measure_cycles
            ),
            StopSpec::Converged { .. } | StopSpec::Reconverged { .. } => {
                format!("{self:?} [{}]", RunPlan::OBSERVATION_REVISION)
            }
        }
    }
}

/// One measured-window observation delivered to a stop policy at its
/// stride boundaries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StopObservation {
    /// Frontier cycle of the observation.
    pub cycle: u64,
    /// Measured cycles completed so far (frontier − warm-up).
    pub measured_cycles: u64,
    /// Frontier cycles covered since the previous observation (the
    /// interval this throughput sample integrates over). Policies use
    /// it to reject partial-stride intervals: a sample covering less
    /// than one full stride integrates too few operations and its noise
    /// can fake — or defeat — convergence near the ceiling.
    pub interval_cycles: u64,
    /// Sum of per-core IPCs over the interval since the previous
    /// observation.
    pub throughput: f64,
}

/// The runtime side of a stopping policy: stateful, driven by the
/// session at `observe_stride` boundaries of the measured window.
///
/// Implementations must be deterministic functions of the observation
/// sequence, so every stepping interleaving stops at the same
/// boundary.
pub trait StopPolicy: Send {
    /// Hard ceiling on the measured window, in cycles.
    fn max_measure_cycles(&self) -> u64;

    /// Cycle stride at which the policy wants observations (0: never
    /// observe — the run always reaches the ceiling).
    fn observe_stride(&self) -> u64 {
        0
    }

    /// Feed one observation; `true` stops the run at this boundary.
    fn observe(&mut self, _obs: &StopObservation) -> bool {
        false
    }

    /// Per-phase plateau records (re-convergence policies only; the
    /// default is empty). The last entry describes the phase in
    /// progress when the run ended.
    fn plateaus(&self) -> Vec<PhasePlateau> {
        Vec::new()
    }

    /// Short human-readable description for logs.
    fn describe(&self) -> String;
}

/// Fixed-window stopping: run the whole `measure_cycles`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedCycles {
    /// Measured cycles.
    pub measure_cycles: u64,
}

impl StopPolicy for FixedCycles {
    fn max_measure_cycles(&self) -> u64 {
        self.measure_cycles
    }

    fn describe(&self) -> String {
        format!("fixed({} cycles)", self.measure_cycles)
    }
}

/// Convergence-based stopping: a rolling window of interval
/// throughputs must agree to within `rel_epsilon` (see
/// [`StopSpec::Converged`] for the parameter semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct Converged {
    /// Length of one throughput sample interval in cycles.
    pub window_cycles: u64,
    /// Relative spread threshold.
    pub rel_epsilon: f64,
    /// Measured cycles before which the run never stops.
    pub min_cycles: u64,
    /// Hard ceiling on measured cycles.
    pub max_cycles: u64,
    window: RollingThroughput,
}

impl Converged {
    /// Build the policy with an empty rolling window.
    pub fn new(window_cycles: u64, rel_epsilon: f64, min_cycles: u64, max_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window must be positive");
        Converged {
            window_cycles,
            rel_epsilon,
            min_cycles,
            max_cycles,
            window: RollingThroughput::new(WINDOW_SAMPLES),
        }
    }
}

impl StopPolicy for Converged {
    fn max_measure_cycles(&self) -> u64 {
        self.max_cycles
    }

    fn observe_stride(&self) -> u64 {
        self.window_cycles
    }

    fn observe(&mut self, obs: &StopObservation) -> bool {
        // A partial-stride interval integrates far fewer operations
        // than every other sample in the window; its extra noise could
        // fake convergence (or hold it off) near the ceiling, so it is
        // dropped rather than pushed. "Partial" is less than half a
        // stride: observation frontiers overshoot their grid boundary
        // by up to one operation, so honest intervals jitter just
        // around the stride length.
        if obs.interval_cycles * 2 < self.window_cycles {
            return false;
        }
        self.window.push(obs.throughput);
        obs.measured_cycles >= self.min_cycles && self.window.converged(self.rel_epsilon)
    }

    fn describe(&self) -> String {
        format!(
            "converged(window {} cycles, eps {}, {}..={} cycles)",
            self.window_cycles, self.rel_epsilon, self.min_cycles, self.max_cycles
        )
    }
}

/// Re-convergence stopping for phase-change workloads: the measured
/// window is segmented at the workload's shift boundaries, each segment
/// runs its own rolling window (cleared at every boundary), per-phase
/// plateau means are recorded, and the run stops only once the phase
/// after the last shift has re-stabilised (see
/// [`StopSpec::Reconverged`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Reconverged {
    /// Length of one throughput sample interval in cycles.
    pub window_cycles: u64,
    /// Relative spread threshold.
    pub rel_epsilon: f64,
    /// Measured cycles before which the run never stops.
    pub min_cycles: u64,
    /// Hard ceiling on measured cycles.
    pub max_cycles: u64,
    /// Measured-relative shift cycles segmenting the window (sorted,
    /// strictly inside `(0, max_cycles)`).
    boundaries: Vec<u64>,
    /// Index of the phase currently being measured (0 = before the
    /// first shift; `boundaries.len()` = after the last).
    phase: usize,
    /// Measured cycle the current phase began at.
    phase_start: u64,
    /// Measured cycle the current phase's window first reported
    /// convergence (`None` while still ramping).
    settled_at: Option<u64>,
    window: RollingThroughput,
    /// Completed phases' plateau records.
    recorded: Vec<PhasePlateau>,
}

impl Reconverged {
    /// Build the policy. `boundaries` are the measured-relative cycles
    /// the workload shifts at; values outside `(0, max_cycles)` are
    /// dropped (a shift during warm-up or past the ceiling never
    /// segments the measured window), duplicates collapse.
    pub fn new(
        window_cycles: u64,
        rel_epsilon: f64,
        min_cycles: u64,
        max_cycles: u64,
        boundaries: &[u64],
    ) -> Self {
        assert!(window_cycles > 0, "window must be positive");
        let mut bounds: Vec<u64> = boundaries
            .iter()
            .copied()
            .filter(|&b| b > 0 && b < max_cycles)
            .collect();
        bounds.sort_unstable();
        bounds.dedup();
        Reconverged {
            window_cycles,
            rel_epsilon,
            min_cycles,
            max_cycles,
            boundaries: bounds,
            phase: 0,
            phase_start: 0,
            settled_at: None,
            window: RollingThroughput::new(WINDOW_SAMPLES),
            recorded: Vec::new(),
        }
    }

    /// The phase boundaries the policy segments at.
    pub fn boundaries(&self) -> &[u64] {
        &self.boundaries
    }

    /// The plateau record of the phase in progress.
    fn current_plateau(&self) -> PhasePlateau {
        PhasePlateau {
            phase: self.phase,
            start_cycle: self.phase_start,
            converged_at: self.settled_at,
            mean_throughput: self.window.mean(),
        }
    }
}

impl StopPolicy for Reconverged {
    fn max_measure_cycles(&self) -> u64 {
        self.max_cycles
    }

    fn observe_stride(&self) -> u64 {
        self.window_cycles
    }

    fn observe(&mut self, obs: &StopObservation) -> bool {
        // Roll past every boundary this observation reached: finalise
        // the outgoing phase's plateau and restart the window so the
        // old plateau never vouches for the new regime. The straddling
        // sample itself mixes pre- and post-shift throughput, so it is
        // discarded.
        let mut straddled = false;
        while self.phase < self.boundaries.len()
            && obs.measured_cycles >= self.boundaries[self.phase]
        {
            let boundary = self.boundaries[self.phase];
            self.recorded.push(self.current_plateau());
            self.window.clear();
            self.phase += 1;
            self.phase_start = boundary;
            self.settled_at = None;
            straddled = true;
        }
        if straddled || obs.interval_cycles * 2 < self.window_cycles {
            // Straddling or partial-stride samples carry mixed or
            // under-integrated signal — skip them (same half-stride
            // rule as [`Converged::observe`]).
            return false;
        }
        self.window.push(obs.throughput);
        if self.settled_at.is_none() && self.window.converged(self.rel_epsilon) {
            self.settled_at = Some(obs.measured_cycles);
        }
        // Only the final phase's stabilisation ends the run; earlier
        // phases wait for their scheduled shift.
        self.phase == self.boundaries.len()
            && self.settled_at.is_some()
            && obs.measured_cycles >= self.min_cycles
    }

    fn plateaus(&self) -> Vec<PhasePlateau> {
        let mut out = self.recorded.clone();
        out.push(self.current_plateau());
        out
    }

    fn describe(&self) -> String {
        format!(
            "reconverged(window {} cycles, eps {}, {}..={} cycles, {} shift boundaries)",
            self.window_cycles,
            self.rel_epsilon,
            self.min_cycles,
            self.max_cycles,
            self.boundaries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_fingerprint_matches_the_legacy_run_budget_debug() {
        // The exact string `{:?}` printed for the old `RunBudget` —
        // pinned so every pre-plan store key keeps matching.
        assert_eq!(
            RunPlan::fixed(300_000, 3_000_000).fingerprint(),
            "RunBudget { warmup_cycles: 300000, measure_cycles: 3000000 }"
        );
    }

    #[test]
    fn converged_fingerprint_is_distinct_and_parameter_sensitive() {
        let fixed = RunPlan::fixed(300_000, 3_000_000);
        let conv = fixed.until_converged(300_000, 0.01);
        assert_ne!(conv.fingerprint(), fixed.fingerprint());
        assert!(
            conv.fingerprint().ends_with("[obs/v2]"),
            "early-exit fingerprints carry the observation revision"
        );
        assert_ne!(
            conv.fingerprint(),
            format!("{conv:?}"),
            "pre-revision converged keys (bare debug strings) are orphaned"
        );
        assert_ne!(
            conv.fingerprint(),
            fixed.until_converged(300_000, 0.02).fingerprint(),
            "epsilon is part of the key"
        );
        assert_ne!(
            conv.fingerprint(),
            fixed.until_converged(150_000, 0.01).fingerprint(),
            "window is part of the key"
        );
        assert_eq!(conv.fingerprint(), conv.fingerprint());
    }

    #[test]
    fn until_converged_keeps_the_budget_as_ceiling() {
        let plan = RunPlan::fixed(10_000, 60_000).until_converged(5_000, 0.1);
        assert_eq!(plan.warmup_cycles, 10_000);
        assert_eq!(plan.measure_cycles(), 60_000);
        assert_eq!(plan.horizon(), 70_000);
        assert!(plan.can_stop_early());
        assert!(!RunPlan::fixed(1, 2).can_stop_early());
    }

    #[test]
    fn fixed_policy_never_observes_or_stops() {
        let policy = RunPlan::fixed(0, 500).policy();
        assert_eq!(policy.max_measure_cycles(), 500);
        assert_eq!(policy.observe_stride(), 0);
    }

    #[test]
    fn converged_policy_stops_on_a_full_stable_window() {
        let mut policy = Converged::new(100, 0.05, 0, 10_000);
        let obs = |k: u64, tp: f64| StopObservation {
            cycle: 1_000 + k * 100,
            measured_cycles: k * 100,
            interval_cycles: 100,
            throughput: tp,
        };
        // Three stable samples: window not yet full.
        for k in 1..=3 {
            assert!(!policy.observe(&obs(k, 2.0)));
        }
        // Fourth: full window, zero spread → stop.
        assert!(policy.observe(&obs(4, 2.0)));
    }

    #[test]
    fn converged_policy_respects_min_cycles_and_rolls_outliers_out() {
        let mut policy = Converged::new(100, 0.05, 600, 10_000);
        let obs = |k: u64, tp: f64| StopObservation {
            cycle: 1_000 + k * 100,
            measured_cycles: k * 100,
            interval_cycles: 100,
            throughput: tp,
        };
        assert!(!policy.observe(&obs(1, 9.0)), "outlier first sample");
        for k in 2..=5 {
            // Stable from sample 2 on; window is stable at k = 5 but
            // min_cycles = 600 holds the run until k = 6.
            assert!(!policy.observe(&obs(k, 2.0)), "sample {k}");
        }
        assert!(policy.observe(&obs(6, 2.0)));
    }

    #[test]
    fn partial_stride_samples_are_skipped_not_pushed() {
        // A deflated partial-interval sample near the ceiling must
        // neither defeat convergence (by widening the spread) nor help
        // fake it (by completing the window early).
        let obs = |m: u64, interval: u64, tp: f64| StopObservation {
            cycle: 1_000 + m,
            measured_cycles: m,
            interval_cycles: interval,
            throughput: tp,
        };

        // Defeat case: three stable samples, then a deflated partial
        // one. Skipping it keeps the window clean, so the next full
        // sample converges on schedule.
        let mut policy = Converged::new(100, 0.05, 0, 10_000);
        for k in 1..=3 {
            assert!(!policy.observe(&obs(k * 100, 100, 2.0)));
        }
        assert!(
            !policy.observe(&obs(340, 40, 0.4)),
            "partial deflated sample is dropped"
        );
        assert!(
            policy.observe(&obs(450, 110, 2.0)),
            "the fourth full sample completes a clean window"
        );

        // Fake case: partial samples must not count toward the window,
        // so four of them cannot produce an early stop.
        let mut policy = Converged::new(100, 0.05, 0, 10_000);
        for k in 1..=4 {
            assert!(
                !policy.observe(&obs(k * 40, 40, 2.0)),
                "sample {k}: partial intervals never fill the window"
            );
        }

        // Boundary-overshoot jitter is NOT partial: intervals a little
        // under the stride still count (observation frontiers overshoot
        // the grid by up to one operation).
        let mut policy = Converged::new(100, 0.05, 0, 10_000);
        for k in 1..=3 {
            assert!(!policy.observe(&obs(k * 100, 97, 2.0)));
        }
        assert!(policy.observe(&obs(400, 97, 2.0)));
    }

    #[test]
    fn reconverged_stops_then_shifts_then_extends_then_restops() {
        // One shift boundary at measured cycle 1_000; stride 100.
        let mut policy = Reconverged::new(100, 0.05, 0, 10_000, &[1_000]);
        assert_eq!(policy.observe_stride(), 100);
        let obs = |m: u64, tp: f64| StopObservation {
            cycle: 5_000 + m,
            measured_cycles: m,
            interval_cycles: 100,
            throughput: tp,
        };
        // Phase 0 stabilises at 2.0 well before the boundary — the run
        // must NOT stop (a shift is still scheduled).
        for k in 1..=9 {
            assert!(!policy.observe(&obs(k * 100, 2.0)), "phase 0, sample {k}");
        }
        // Crossing the boundary: the straddling sample is discarded and
        // the window restarts.
        assert!(!policy.observe(&obs(1_000, 1.2)), "straddling sample");
        // Post-shift ramp, then a new plateau at 1.0: the window must
        // refill from scratch (4 samples) before the run can stop.
        assert!(!policy.observe(&obs(1_100, 1.4)));
        for k in 12..=14 {
            assert!(!policy.observe(&obs(k * 100, 1.0)), "refilling, sample {k}");
        }
        assert!(
            policy.observe(&obs(1_500, 1.0)),
            "final phase re-stabilised → stop"
        );

        // Per-phase plateaus: phase 0 converged at 2.0, phase 1 at 1.0.
        let plateaus = policy.plateaus();
        assert_eq!(plateaus.len(), 2);
        assert_eq!(plateaus[0].phase, 0);
        assert_eq!(plateaus[0].start_cycle, 0);
        assert!(plateaus[0].converged(), "phase 0 settled before the shift");
        assert!((plateaus[0].mean_throughput - 2.0).abs() < 1e-12);
        assert_eq!(plateaus[1].phase, 1);
        assert_eq!(plateaus[1].start_cycle, 1_000);
        assert_eq!(plateaus[1].converged_at, Some(1_500));
        assert!(
            (plateaus[1].mean_throughput - 1.0).abs() < 1e-12,
            "the post-shift ramp sample has rolled out of the window"
        );
    }

    #[test]
    fn reconverged_without_boundaries_degrades_to_converged() {
        let mut policy = Reconverged::new(100, 0.05, 0, 10_000, &[]);
        let obs = |k: u64| StopObservation {
            cycle: k * 100,
            measured_cycles: k * 100,
            interval_cycles: 100,
            throughput: 2.0,
        };
        for k in 1..=3 {
            assert!(!policy.observe(&obs(k)));
        }
        assert!(policy.observe(&obs(4)), "plain convergence semantics");
        assert_eq!(policy.plateaus().len(), 1, "single phase");
    }

    #[test]
    fn reconverged_filters_boundaries_to_the_measured_window() {
        let policy = Reconverged::new(100, 0.05, 0, 5_000, &[0, 7_000, 2_000, 2_000, 5_000]);
        assert_eq!(
            policy.boundaries(),
            &[2_000],
            "0, duplicates, the ceiling and beyond are dropped"
        );
        assert_eq!(
            RunPlan::fixed(1_000, 5_000)
                .until_reconverged(500, 0.1)
                .policy_with_boundaries(&[2_000])
                .max_measure_cycles(),
            5_000
        );
    }

    #[test]
    fn reconverged_never_stops_mid_ramp_at_the_ceiling() {
        // The final phase never stabilises: no stop, and the plateau
        // record says so.
        let mut policy = Reconverged::new(100, 0.0, 0, 10_000, &[500]);
        let obs = |k: u64, tp: f64| StopObservation {
            cycle: k * 100,
            measured_cycles: k * 100,
            interval_cycles: 100,
            throughput: tp,
        };
        for k in 1..=4 {
            assert!(!policy.observe(&obs(k, 2.0)));
        }
        // Post-shift: strictly rising throughput (zero epsilon never
        // converges).
        for k in 6..=99 {
            assert!(!policy.observe(&obs(k, k as f64)));
        }
        let plateaus = policy.plateaus();
        assert_eq!(plateaus.len(), 2);
        assert!(!plateaus[1].converged(), "still ramping at the ceiling");
    }

    #[test]
    fn reconverged_fingerprint_is_distinct_from_converged() {
        let base = RunPlan::fixed(300_000, 3_000_000);
        let conv = base.until_converged(300_000, 0.02);
        let reconv = base.until_reconverged(300_000, 0.02);
        assert_ne!(reconv.fingerprint(), conv.fingerprint());
        assert_ne!(reconv.fingerprint(), base.fingerprint());
        assert!(reconv.can_stop_early());
        assert_eq!(reconv.measure_cycles(), 3_000_000);
    }
}
