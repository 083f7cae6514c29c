//! The five-scheme comparison behind Figures 9–11.
//!
//! For each workload combination (Table 8) the harness runs L2S,
//! CC (sweeping the spill probabilities of §4.1 and keeping the best —
//! "CC(Best)"), DSR and SNUG, all normalised to an L2P run of the same
//! combination. Class results aggregate with the geometric mean (§5).

use sim_cmp::{
    Checkpoints, FrontError, L2Org, RunPlan, SessionBuilder, SharedFront, SimSession, StopSpec,
    SystemConfig, SystemResult,
};
use sim_mem::{Geometry, OpStream};
use snug_core::{DsrConfig, SchemeSpec, SnugConfig};
use snug_metrics::{geomean, IpcVector, MetricSet, Table};
use snug_workloads::{BenchmarkSpec, Combo, ComboClass, PhaseSchedule, SyntheticStream};
use std::path::Path;
use std::sync::Arc;

/// Default relative-spread threshold for convergence-based early exit
/// (`snug sweep --until-converged` without `--rel-eps`): the baseline's
/// throughput over the last four sample windows must agree to within
/// 2 %. Calibrated at the `--mid` budget: with baseline pacing a
/// converged sweep reproduces the committed fixed-budget store's
/// per-combo winning scheme on all 21 combinations while simulating
/// ~6 % fewer total cycles (0.03 still holds 21/21 at ~6.5 %; 0.04
/// starts flipping the two hairline ≤0.1 %-margin combos, so 0.02
/// leaves a safety margin).
pub const DEFAULT_REL_EPSILON: f64 = 0.02;

/// The default convergence sample window for a plan: a tenth of the
/// measured ceiling (at the calibrated `--mid` budget this is 300 K
/// cycles — exactly one SNUG sampling period, so each sample integrates
/// over the periodic stage-transition transients).
pub fn default_window(plan: &RunPlan) -> u64 {
    (plan.measure_cycles() / 10).max(1)
}

/// The fixed-window run plans of the three presets (every core runs
/// the full window, as in the paper's fixed-3 B-cycle methodology).
impl CompareConfig {
    /// The default evaluation plan: ~4 SNUG sampling periods under the
    /// default_eval SNUG stage lengths (250 K + 1.25 M cycles).
    pub fn default_eval_plan() -> RunPlan {
        RunPlan::fixed(600_000, 6_300_000)
    }

    /// A fast plan for tests and smoke benches (pair with the quick
    /// SNUG stage lengths, period 300 K cycles).
    pub fn quick_plan() -> RunPlan {
        RunPlan::fixed(150_000, 1_200_000)
    }

    /// The calibrated mid plan: the smallest window with non-trivial
    /// scheme separation on the capacity-sensitive classes — on average
    /// SNUG ≥ DSR, both above L2P, L2S far worst — while keeping a full
    /// 21-combo sweep under a minute on one core. Picked empirically —
    /// see `examples/calibrate_mid.rs`.
    pub fn mid_plan() -> RunPlan {
        RunPlan::fixed(300_000, 3_000_000)
    }
}

/// Full configuration of a comparison run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Platform (Table 4).
    pub system: SystemConfig,
    /// Run plan per (combo, scheme) simulation: warm-up + stop policy.
    pub plan: RunPlan,
    /// SNUG parameters. The stage lengths must fit several periods into
    /// the plan's measured window; `SnugConfig::scaled` keeps the
    /// paper's 1:20 ratio.
    pub snug: SnugConfig,
    /// DSR parameters.
    pub dsr: DsrConfig,
}

impl CompareConfig {
    /// Default evaluation configuration: paper platform, SNUG periods
    /// scaled to the simulation budget. Stage I is long enough to sample
    /// every hot set tens of times (the paper's 5 M-cycle stage samples
    /// each set ~100+ times); the 1:5 stage ratio trades a little of the
    /// paper's 1:20 amortisation for identification fidelity at this
    /// budget.
    pub fn default_eval() -> Self {
        let mut snug = SnugConfig::paper();
        snug.stage1_cycles = 150_000;
        snug.stage2_cycles = 1_350_000;
        snug.continuous_sampling = true;
        CompareConfig {
            system: SystemConfig::paper(),
            plan: CompareConfig::default_eval_plan(),
            snug,
            dsr: DsrConfig::paper(),
        }
    }

    /// Fast configuration for tests/benches.
    pub fn quick() -> Self {
        let mut snug = SnugConfig::paper();
        snug.stage1_cycles = 60_000;
        snug.stage2_cycles = 240_000;
        snug.continuous_sampling = true;
        CompareConfig {
            system: SystemConfig::paper(),
            plan: CompareConfig::quick_plan(),
            snug,
            dsr: DsrConfig::paper(),
        }
    }

    /// The calibrated mid configuration behind `snug sweep --mid`: the
    /// CI-fast paper reproduction. Ten short SNUG sampling periods fit
    /// the [`CompareConfig::mid_plan`] window — at this scale frequent
    /// re-identification beats the paper's 1:20 stage amortisation
    /// (Stage I costs only 3 % of each period, and fresher G/T vectors
    /// lift the capacity-sensitive mixed classes the most). Picked
    /// empirically with `examples/calibrate_mid.rs`; see the candidate
    /// table there before changing these numbers.
    pub fn mid() -> Self {
        let mut snug = SnugConfig::paper();
        snug.stage1_cycles = 10_000;
        snug.stage2_cycles = 290_000;
        snug.continuous_sampling = true;
        CompareConfig {
            system: SystemConfig::paper(),
            plan: CompareConfig::mid_plan(),
            snug,
            dsr: DsrConfig::paper(),
        }
    }

    /// Swap the plan's stop policy for convergence-based early exit:
    /// the current measured window becomes the ceiling, `window_cycles`
    /// defaults to [`default_window`] and `rel_epsilon` to
    /// [`DEFAULT_REL_EPSILON`].
    pub fn until_converged(mut self, window_cycles: Option<u64>, rel_epsilon: Option<f64>) -> Self {
        let window = window_cycles.unwrap_or_else(|| default_window(&self.plan));
        let eps = rel_epsilon.unwrap_or(DEFAULT_REL_EPSILON);
        self.plan = self.plan.until_converged(window, eps);
        self
    }

    /// Swap the plan's stop policy for re-convergence under a
    /// phase-change schedule (`snug sweep --until-reconverged`): same
    /// defaults as [`CompareConfig::until_converged`], but the run only
    /// stops once throughput has re-stabilised after the workload's
    /// last scheduled shift, with per-phase plateau means recorded.
    pub fn until_reconverged(
        mut self,
        window_cycles: Option<u64>,
        rel_epsilon: Option<f64>,
    ) -> Self {
        let window = window_cycles.unwrap_or_else(|| default_window(&self.plan));
        let eps = rel_epsilon.unwrap_or(DEFAULT_REL_EPSILON);
        self.plan = self.plan.until_reconverged(window, eps);
        self
    }
}

/// Result of one scheme on one combo.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeResult {
    /// Scheme display name ("L2S", "CC(Best)", "DSR", "SNUG").
    pub scheme: String,
    /// All three metrics vs the L2P baseline.
    pub metrics: MetricSet,
    /// Per-core IPCs.
    pub ipcs: Vec<f64>,
}

/// Result of the full comparison on one combo.
#[derive(Debug, Clone, PartialEq)]
pub struct ComboResult {
    /// Combo label ("ammp+parser+bzip2+mcf").
    pub label: String,
    /// Combination class.
    pub class: ComboClass,
    /// Baseline per-core IPCs (L2P).
    pub baseline_ipcs: Vec<f64>,
    /// L2S / CC(Best) / DSR / SNUG results, in figure order.
    pub schemes: Vec<SchemeResult>,
    /// The CC sweep: (spill probability, normalised throughput).
    pub cc_sweep: Vec<(f64, f64)>,
}

impl ComboResult {
    /// Look up a scheme's metrics by display name.
    pub fn metrics_of(&self, scheme: &str) -> Option<MetricSet> {
        self.schemes
            .iter()
            .find(|s| s.scheme == scheme)
            .map(|s| s.metrics)
    }
}

/// A combo's per-core generators on `system`: each core slot's
/// benchmark model, sized to the L2 slice. [`FrontKey`] names exactly
/// these inputs.
fn combo_generators<'a>(
    combo: &'a Combo,
    system: &'a SystemConfig,
) -> impl Iterator<Item = SyntheticStream> + 'a {
    combo
        .apps
        .iter()
        .enumerate()
        .map(|(core, b)| b.spec().stream(system.l2_slice, core))
}

/// One op stream per core for a combo on the given platform.
pub fn combo_streams(combo: &Combo, system: &SystemConfig) -> Vec<Box<dyn OpStream>> {
    combo_generators(combo, system)
        .map(|s| Box::new(s) as Box<dyn OpStream>)
        .collect()
}

/// A combo's front ends on `system`, shared through record files
/// `dir/{name}-core{c}.front` and their checkpoints: every session built
/// over it with [`run_point`] runs bit-identically to one over
/// [`combo_streams`]. Sessions with a phase schedule need `keep` to be
/// [`Checkpoints::All`] to fork cheaply.
pub fn combo_shared_front(
    combo: &Combo,
    system: &SystemConfig,
    dir: &Path,
    name: &str,
    keep: Checkpoints,
) -> std::io::Result<SharedFront> {
    let specs: Vec<BenchmarkSpec> = combo.apps.iter().map(|b| b.spec()).collect();
    let l2_slice = system.l2_slice;
    SharedFront::create(
        dir,
        name,
        specs.len(),
        move |core| Box::new(specs[core].stream(l2_slice, core)),
        system.l1,
        keep,
    )
}

/// What a combo's front ends depend on: each core slot's benchmark
/// model, the L2-slice geometry the generators size their demand to,
/// and the L1 geometry. Combos and platforms with equal keys have
/// identical front ends, whatever the scheme, plan or pace.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontKey {
    specs: Vec<BenchmarkSpec>,
    l1: Geometry,
    l2_slice: Geometry,
}

impl FrontKey {
    /// The key of `combo`'s front ends on `system`.
    pub fn of(combo: &Combo, system: &SystemConfig) -> FrontKey {
        FrontKey {
            specs: combo.apps.iter().map(|b| b.spec()).collect(),
            l1: system.l1,
            l2_slice: system.l2_slice,
        }
    }
}

/// Build a ready-to-drive session for one combo under one organisation:
/// combo streams attached, plan set, nothing run yet. Callers holding a
/// [`SchemeSpec`] pass `spec.build_any(cfg.system)`: the enum-dispatched
/// [`AnyOrg`](snug_core::AnyOrg) devirtualizes the per-miss scheme call
/// on the session hot path. Under a phase-change schedule the session
/// applies the scheduled stream shifts at frontier boundaries, and a
/// [`StopSpec::Reconverged`] plan segments its measured window at the
/// schedule's shift cycles.
pub fn session_for<O: L2Org>(
    combo: &Combo,
    org: O,
    cfg: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> SimSession<O> {
    let builder = SimSession::builder(cfg.system, org).streams(combo_streams(combo, &cfg.system));
    planned(builder, cfg, phase)
}

/// Set `cfg`'s plan and `phase`'s shifts on a builder whose front ends
/// are attached, and build.
fn planned<O: L2Org>(
    builder: SessionBuilder<O>,
    cfg: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> SimSession<O> {
    builder
        .plan(cfg.plan)
        .phase_shifts(phase.map(|p| p.shifts().to_vec()).unwrap_or_default())
        .build()
}

/// Run one combo under one scheme spec; returns the raw system result.
pub fn run_scheme(combo: &Combo, spec: &SchemeSpec, cfg: &CompareConfig) -> SystemResult {
    session_for(combo, spec.build_any(cfg.system), cfg, None).run_to_completion()
}

/// One point of the five-scheme comparison — the unit of simulation and
/// therefore the unit of caching in the harness result store. CC expands
/// into one point per §4.1 spill probability, so editing one scheme's
/// parameters invalidates only that scheme's cached runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemePoint {
    /// Private baseline (the normalisation denominator of Figs. 9–11).
    L2p,
    /// Shared, address-interleaved.
    L2s,
    /// Cooperative Caching at one spill probability of the §4.1 sweep.
    Cc {
        /// Probability of spilling a clean owned victim.
        spill_probability: f64,
    },
    /// Dynamic Spill-Receive.
    Dsr,
    /// SNUG.
    Snug,
}

impl SchemePoint {
    /// Points per combo: L2P + L2S + the CC sweep + DSR + SNUG.
    pub const COUNT: usize = 4 + SchemeSpec::CC_SPILL_SWEEP.len();

    /// Every point one combo expands into, in run order: L2P (baseline
    /// first), L2S, the CC spill sweep, DSR, SNUG.
    pub fn all() -> Vec<SchemePoint> {
        let mut points = vec![SchemePoint::L2p, SchemePoint::L2s];
        points.extend(SchemeSpec::CC_SPILL_SWEEP.iter().map(|&p| SchemePoint::Cc {
            spill_probability: p,
        }));
        points.push(SchemePoint::Dsr);
        points.push(SchemePoint::Snug);
        points
    }

    /// Short stable label for logs and store audits ("l2p", "cc@50%").
    pub fn label(&self) -> String {
        match self {
            SchemePoint::L2p => "l2p".into(),
            SchemePoint::L2s => "l2s".into(),
            SchemePoint::Cc { spill_probability } => {
                format!("cc@{:.0}%", spill_probability * 100.0)
            }
            SchemePoint::Dsr => "dsr".into(),
            SchemePoint::Snug => "snug".into(),
        }
    }

    /// The concrete scheme to build, pulling per-scheme parameters from
    /// `cfg`.
    pub fn spec(&self, cfg: &CompareConfig) -> SchemeSpec {
        match *self {
            SchemePoint::L2p => SchemeSpec::L2p,
            SchemePoint::L2s => SchemeSpec::L2s,
            SchemePoint::Cc { spill_probability } => SchemeSpec::Cc { spill_probability },
            SchemePoint::Dsr => SchemeSpec::Dsr(cfg.dsr),
            SchemePoint::Snug => SchemeSpec::Snug(cfg.snug),
        }
    }

    /// The scheme-specific parameters that feed this point's content
    /// key: only SNUG points depend on `cfg.snug` and only DSR points on
    /// `cfg.dsr`, so a scheme-config edit invalidates exactly that
    /// scheme's cached jobs.
    pub fn param_fingerprint(&self, cfg: &CompareConfig) -> String {
        match self {
            SchemePoint::Dsr => format!("{:?}", cfg.dsr),
            SchemePoint::Snug => format!("{:?}", cfg.snug),
            _ => String::new(),
        }
    }
}

/// Why an early-exit-capable run ended where it did. `None` on a
/// [`SchemeRun`] means the run had no early-exit machinery at all (the
/// canonical fixed-plan methodology); a bare "used the whole window"
/// used to be ambiguous between that and a convergence run that never
/// stabilised — which is exactly what L2S does on every `--mid` combo,
/// so downstream numbers silently mixed plateau and mid-ramp
/// measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The stop policy found a stable plateau (for paced siblings: the
    /// combo's baseline did, and this run measured that window).
    Converged,
    /// The run hit the `max_cycles` ceiling without ever stabilising —
    /// its numbers are mid-ramp, not plateau.
    Ceiling,
}

impl StopReason {
    /// Short store/report label ("converged" / "ceiling").
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Converged => "converged",
            StopReason::Ceiling => "ceiling",
        }
    }

    /// Parse a [`StopReason::label`] string.
    pub fn from_label(label: &str) -> Option<StopReason> {
        match label {
            "converged" => Some(StopReason::Converged),
            "ceiling" => Some(StopReason::Ceiling),
            _ => None,
        }
    }
}

/// The raw output of one (combo, scheme point) simulation: the per-core
/// IPCs everything else derives from. This is what the harness store
/// persists per unit job.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeRun {
    /// The producing point's label (for humans auditing the store).
    pub scheme: String,
    /// Measured per-core IPCs.
    pub ipcs: Vec<f64>,
    /// Measured cycles when a stop policy ended the run early (`None`:
    /// the run used its full measured window — every fixed-plan run,
    /// and converged runs that never stabilised).
    pub measured_cycles: Option<u64>,
    /// Why the run ended: present on every early-exit-capable run
    /// (converged/reconverged sweeps, including their baseline-paced
    /// siblings), absent on canonical fixed-plan runs — so the
    /// committed fixed-plan store entries render exactly as they always
    /// did.
    pub stop_reason: Option<StopReason>,
    /// Per-phase mean throughputs: one entry per workload phase, the
    /// last being the phase the run stopped in. Under a re-convergence
    /// policy these are the policy's rolling-window plateau means; on
    /// a paced fixed-window run of a shifted sweep they are whole-phase
    /// measured means over the window the combo's baseline already
    /// certified as re-converged. Empty on stationary fixed runs.
    pub plateaus: Vec<f64>,
}

/// The stop reason and per-phase plateaus of a completed session under
/// `plan`: `Some(reason)` exactly when the plan can stop early, plateau
/// means exactly under a re-convergence policy.
fn early_exit_outcome<O: L2Org>(
    session: &SimSession<O>,
    plan: &RunPlan,
) -> (Option<StopReason>, Vec<f64>) {
    let stop_reason = plan.can_stop_early().then(|| {
        if session.stopped_at().is_some() {
            StopReason::Converged
        } else {
            StopReason::Ceiling
        }
    });
    let plateaus = if matches!(plan.stop, StopSpec::Reconverged { .. }) {
        session
            .phase_plateaus()
            .iter()
            .map(|p| p.mean_throughput)
            .collect()
    } else {
        Vec::new()
    };
    (stop_reason, plateaus)
}

/// Drive `session` to completion; on a *pure fixed-window* plan under
/// a phase schedule, pause at each measured-window shift boundary
/// first and record per-phase measured mean throughputs (sum of
/// per-core instructions/cycles over each phase's slice of the
/// window). This is how baseline-paced siblings of a shifted
/// re-converged sweep get per-scheme phase means without touching
/// their plan — and therefore their content keys: `run_until` at a
/// boundary is observation only, interleaving-equivalent to the
/// one-shot run (the session-determinism property suite pins this).
/// Early-exit-capable plans run one-shot and return no means — the
/// re-convergence policy derives its own plateau means there.
fn run_with_phase_means<O: L2Org>(
    session: &mut SimSession<O>,
    plan: &RunPlan,
    phase: Option<&PhaseSchedule>,
) -> Result<(SystemResult, Vec<f64>), FrontError> {
    // Drive to `cycle` (past the horizon: to the end) and take the
    // measured result, unless a shared front end failed on the way.
    let drive_to = |session: &mut SimSession<O>, cycle: u64| {
        session.run_until(cycle);
        match session.front_error() {
            Some(e) => Err(e.clone()),
            None => Ok(session.result()),
        }
    };
    let horizon = plan.warmup_cycles + plan.measure_cycles();
    let mut cuts: Vec<u64> = match phase {
        Some(p) if !plan.can_stop_early() => p
            .shifts()
            .iter()
            .map(|s| s.at_cycle)
            .filter(|&c| c > plan.warmup_cycles && c < horizon)
            .collect(),
        _ => Vec::new(),
    };
    cuts.dedup();
    if cuts.is_empty() {
        return Ok((drive_to(session, u64::MAX)?, Vec::new()));
    }
    let mut marks: Vec<SystemResult> = Vec::with_capacity(cuts.len());
    for &cut in &cuts {
        marks.push(drive_to(session, cut)?);
    }
    let r = drive_to(session, u64::MAX)?;
    let mut means = Vec::with_capacity(marks.len() + 1);
    let mut prev: Option<&SystemResult> = None;
    for mark in marks.iter().chain(std::iter::once(&r)) {
        means.push(segment_throughput(prev, mark));
        prev = Some(mark);
    }
    Ok((r, means))
}

/// Sum of per-core IPCs over the segment between two cumulative
/// measurement marks (from the window start when `prev` is `None`).
fn segment_throughput(prev: Option<&SystemResult>, cur: &SystemResult) -> f64 {
    cur.cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let (i0, c0) = prev
                .map(|p| (p.cores[i].instructions, p.cores[i].cycles))
                .unwrap_or((0, 0));
            let di = core.instructions.saturating_sub(i0);
            let dc = core.cycles.saturating_sub(c0);
            if dc == 0 {
                0.0
            } else {
                di as f64 / dc as f64
            }
        })
        .sum()
}

/// `cfg` with its plan replaced by a fixed window of `measured_window`
/// cycles — how a combo's non-baseline points run once the baseline's
/// convergence has fixed the pace.
pub fn paced_config(cfg: &CompareConfig, measured_window: u64) -> CompareConfig {
    let mut paced = *cfg;
    paced.plan = RunPlan::fixed(cfg.plan.warmup_cycles, measured_window);
    paced
}

/// The measurement window a converged baseline fixed for its combo,
/// plus how it got there — every paced sibling inherits both, so a
/// combo whose baseline never stabilised is marked `Ceiling` on every
/// scheme instead of masquerading as a full clean window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pace {
    /// Measured cycles every scheme of the combo runs.
    pub measured_window: u64,
    /// The baseline's stop reason, inherited by the siblings.
    pub stop_reason: StopReason,
}

/// Run one scheme point of one combo, optionally under a phase-change
/// schedule, recording the explicit stop reason on early-exit-capable
/// plans and per-phase means on fixed-window shifted runs.
///
/// With a `pace` (the window a converged baseline run set for its
/// combo) the point runs [`paced_config`]'s fixed window instead of
/// `cfg`'s plan. The window is recorded in the run when it beats the
/// plan's ceiling, and the baseline's stop reason is inherited, so
/// cached entries carry both the cycles they actually simulated and
/// whether those cycles were a plateau.
///
/// With a `front` (the combo's [`combo_shared_front`] on `cfg.system`)
/// the session reads its ops and L1 outcomes from the shared record
/// files instead of generating them, forking each core live at its
/// first `phase` shift; the result is bit-identical. A shared front end
/// is the only source of an error: a record or checkpoint file that
/// cannot be read, written, decoded or restored. Without one the run
/// cannot fail.
pub fn run_point(
    combo: &Combo,
    point: &SchemePoint,
    cfg: &CompareConfig,
    phase: Option<&PhaseSchedule>,
    pace: Option<&Pace>,
    front: Option<&Arc<SharedFront>>,
) -> Result<SchemeRun, FrontError> {
    let run_cfg = pace.map_or(*cfg, |p| paced_config(cfg, p.measured_window));
    let org = point.spec(&run_cfg).build_any(run_cfg.system);
    let mut session = match front {
        Some(front) => planned(
            SimSession::builder(run_cfg.system, org).shared_front(front.clone()),
            &run_cfg,
            phase,
        ),
        None => session_for(combo, org, &run_cfg, phase),
    };
    let (r, phase_means) = run_with_phase_means(&mut session, &run_cfg.plan, phase)?;
    let (stop_reason, mut plateaus) = early_exit_outcome(&session, &run_cfg.plan);
    if plateaus.is_empty() {
        plateaus = phase_means;
    }
    let (measured_cycles, stop_reason) = match pace {
        Some(p) => (
            (p.measured_window < cfg.plan.measure_cycles()).then_some(p.measured_window),
            Some(p.stop_reason),
        ),
        None => (
            session
                .stopped_at()
                .map(|c| c.saturating_sub(cfg.plan.warmup_cycles)),
            stop_reason,
        ),
    };
    Ok(SchemeRun {
        scheme: point.label(),
        ipcs: r.ipcs(),
        measured_cycles,
        stop_reason,
        plateaus,
    })
}

/// The pace a converged baseline run sets for its combo: its early-stop
/// cycle, or the full ceiling if it never stabilised. The stop reason
/// prefers the baseline's recorded one; the inference fallback is
/// belt-and-braces for hand-merged or edited stores — every entry
/// written under the current early-exit key revision records its
/// reason, and pre-revision entries can no longer be looked up.
pub fn pace_of(baseline: &SchemeRun, cfg: &CompareConfig) -> Pace {
    let stop_reason = baseline
        .stop_reason
        .unwrap_or(match baseline.measured_cycles {
            Some(_) => StopReason::Converged,
            None => StopReason::Ceiling,
        });
    Pace {
        measured_window: baseline
            .measured_cycles
            .unwrap_or_else(|| cfg.plan.measure_cycles()),
        stop_reason,
    }
}

/// Index of the winning CC point in a `(spill probability, normalised
/// throughput)` sweep: the *first* maximum by throughput, §4.1's "the
/// spill-probability that produces the best performance is selected as
/// CC (Best)". This is the single definition of the tie-break rule —
/// result assembly and reporting must agree on it or cached and fresh
/// results diverge.
pub fn best_cc_index(cc_sweep: &[(f64, f64)]) -> Option<usize> {
    cc_sweep
        .iter()
        .enumerate()
        .fold(None::<(usize, f64)>, |best, (i, &(_, tp))| match best {
            Some((_, t)) if tp <= t => best,
            _ => Some((i, tp)),
        })
        .map(|(i, _)| i)
}

/// Assemble per-point runs into the combo's five-scheme result —
/// metrics normalised to the L2P point, CC(Best) selected by throughput
/// over the spill sweep (§4.1), exactly as [`run_combo`] produces.
///
/// # Panics
///
/// Panics if `runs` is missing any point of [`SchemePoint::all`] — the
/// harness only calls this once every unit job of a combo completed.
pub fn assemble_combo(combo: &Combo, runs: &[(SchemePoint, SchemeRun)]) -> ComboResult {
    #[expect(
        clippy::panic,
        reason = "assemble_combo is fed by the runner, which produces every scheme point per combo"
    )]
    let ipcs_of = |want: &SchemePoint| -> Vec<f64> {
        runs.iter()
            .find(|(p, _)| p == want)
            .unwrap_or_else(|| {
                panic!(
                    "missing scheme point {} for {}",
                    want.label(),
                    combo.label()
                )
            })
            .1
            .ipcs
            .clone()
    };
    let baseline_ipcs = ipcs_of(&SchemePoint::L2p);
    let base = IpcVector::new(baseline_ipcs.clone());
    let scheme_result = |name: &str, ipcs: Vec<f64>| SchemeResult {
        scheme: name.into(),
        metrics: MetricSet::compute(&IpcVector::new(ipcs.clone()), &base),
        ipcs,
    };

    let mut schemes = vec![scheme_result("L2S", ipcs_of(&SchemePoint::L2s))];

    // CC sweep → CC(Best) by throughput, tie-break per [`best_cc_index`].
    let candidates: Vec<SchemeResult> = SchemeSpec::CC_SPILL_SWEEP
        .iter()
        .map(|&p| {
            scheme_result(
                "CC(Best)",
                ipcs_of(&SchemePoint::Cc {
                    spill_probability: p,
                }),
            )
        })
        .collect();
    let cc_sweep: Vec<(f64, f64)> = SchemeSpec::CC_SPILL_SWEEP
        .iter()
        .zip(&candidates)
        .map(|(&p, c)| (p, c.metrics.throughput))
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "CC_SPILL_POINTS is a non-empty const; the sweep always has candidates"
    )]
    let best = best_cc_index(&cc_sweep).expect("non-empty sweep");
    #[expect(
        clippy::expect_used,
        reason = "best_cc_index returns an index into the same candidates vec"
    )]
    let cc_best = candidates.into_iter().nth(best).expect("index in range");
    schemes.push(cc_best);

    schemes.push(scheme_result("DSR", ipcs_of(&SchemePoint::Dsr)));
    schemes.push(scheme_result("SNUG", ipcs_of(&SchemePoint::Snug)));

    ComboResult {
        label: combo.label(),
        class: combo.class,
        baseline_ipcs,
        schemes,
        cc_sweep,
    }
}

/// Run the full five-scheme comparison on one combo: every point of
/// [`SchemePoint::all`], assembled by [`assemble_combo`].
///
/// Under a convergence plan the combo is **baseline-paced**: the L2P
/// point (the normalisation denominator) runs under the stop policy,
/// and every other point measures over exactly the window the baseline
/// settled on. One window per combo keeps every normalised ratio
/// window-consistent — mixing per-scheme stop cycles inside one combo
/// would bias the CC(Best)/DSR/SNUG comparison by whatever each
/// scheme's tail contributed — while still stopping as soon as the
/// measured system is stable instead of at a guessed cycle count.
pub fn run_combo(combo: &Combo, cfg: &CompareConfig) -> ComboResult {
    #[expect(
        clippy::expect_used,
        reason = "run_point fails only on a shared front end, and these runs are live"
    )]
    let live = |point: &SchemePoint, pace: Option<&Pace>| {
        run_point(combo, point, cfg, None, pace, None).expect("live front ends cannot fail")
    };
    let baseline = live(&SchemePoint::L2p, None);
    let pace = cfg.plan.can_stop_early().then(|| pace_of(&baseline, cfg));
    let runs: Vec<(SchemePoint, SchemeRun)> = std::iter::once((SchemePoint::L2p, baseline))
        .chain(
            SchemePoint::all()
                .into_iter()
                .filter(|p| *p != SchemePoint::L2p)
                .map(|point| {
                    let run = live(&point, pace.as_ref());
                    (point, run)
                }),
        )
        .collect();
    assemble_combo(combo, &runs)
}

/// Per-class geometric-mean summary of one metric across combos — one
/// group of bars in Figs. 9–11.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// The class ("C1".."C6") or "AVG".
    pub class: String,
    /// (scheme name, geomean metric) pairs in figure order.
    pub values: Vec<(String, f64)>,
}

/// Which of the three figures to summarise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Fig. 9: normalised throughput.
    Throughput,
    /// Fig. 10: average weighted speedup.
    Aws,
    /// Fig. 11: fair speedup.
    FairSpeedup,
}

impl Figure {
    /// Figure title as in the paper.
    pub fn title(&self) -> &'static str {
        match self {
            Figure::Throughput => "Figure 9: Throughput normalised to L2P",
            Figure::Aws => "Figure 10: Average Weighted Speedup",
            Figure::FairSpeedup => "Figure 11: Fair Speedup",
        }
    }

    fn pick(&self, m: &MetricSet) -> f64 {
        match self {
            Figure::Throughput => m.throughput,
            Figure::Aws => m.aws,
            Figure::FairSpeedup => m.fair,
        }
    }
}

/// The scheme order of the figures' legends.
pub const FIGURE_SCHEMES: [&str; 4] = ["L2S", "CC(Best)", "DSR", "SNUG"];

/// Summarise combo results into per-class geomeans plus the AVG row.
pub fn summarize(results: &[ComboResult], figure: Figure) -> Vec<ClassSummary> {
    let mut out = Vec::new();
    let mut all_by_scheme: Vec<Vec<f64>> = vec![Vec::new(); FIGURE_SCHEMES.len()];
    for class in ComboClass::ALL {
        let in_class: Vec<&ComboResult> = results.iter().filter(|r| r.class == class).collect();
        if in_class.is_empty() {
            continue;
        }
        let mut values = Vec::new();
        for (i, scheme) in FIGURE_SCHEMES.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "FIGURE_SCHEMES is the exact scheme set assemble_combo emits"
            )]
            let vals: Vec<f64> = in_class
                .iter()
                .map(|r| figure.pick(&r.metrics_of(scheme).expect("scheme present")))
                .collect();
            let g = geomean(&vals);
            all_by_scheme[i].extend(vals);
            values.push((scheme.to_string(), g));
        }
        out.push(ClassSummary {
            class: class.name().to_string(),
            values,
        });
    }
    let avg = ClassSummary {
        class: "AVG".into(),
        values: FIGURE_SCHEMES
            .iter()
            .zip(&all_by_scheme)
            .map(|(s, vals)| (s.to_string(), geomean(vals)))
            .collect(),
    };
    out.push(avg);
    out
}

/// Render a figure summary as a Markdown table (the paper's bar chart as
/// rows).
pub fn figure_table(summaries: &[ClassSummary], figure: Figure) -> Table {
    let mut headers = vec!["Class".to_string()];
    headers.extend(FIGURE_SCHEMES.iter().map(|s| s.to_string()));
    let mut t = Table::new(figure.title(), headers);
    for s in summaries {
        let mut row = vec![s.class.clone()];
        for (_, v) in &s.values {
            row.push(format!("{v:.3}"));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_cmp::StopSpec;

    fn fake_result(class: ComboClass, snug_tp: f64) -> ComboResult {
        let mk = |name: &str, tp: f64| SchemeResult {
            scheme: name.into(),
            metrics: MetricSet {
                throughput: tp,
                aws: tp,
                fair: tp,
            },
            ipcs: vec![1.0; 4],
        };
        ComboResult {
            label: "x".into(),
            class,
            baseline_ipcs: vec![1.0; 4],
            schemes: vec![
                mk("L2S", 1.0),
                mk("CC(Best)", 1.05),
                mk("DSR", 1.08),
                mk("SNUG", snug_tp),
            ],
            cc_sweep: vec![(0.0, 1.0)],
        }
    }

    #[test]
    fn summarize_groups_by_class_and_appends_avg() {
        let results = vec![
            fake_result(ComboClass::C1, 1.2),
            fake_result(ComboClass::C1, 1.3),
            fake_result(ComboClass::C3, 1.1),
        ];
        let s = summarize(&results, Figure::Throughput);
        assert_eq!(s.len(), 3, "C1, C3, AVG");
        assert_eq!(s[0].class, "C1");
        let snug_c1 = s[0].values.iter().find(|(n, _)| n == "SNUG").unwrap().1;
        assert!((snug_c1 - (1.2f64 * 1.3).sqrt()).abs() < 1e-12, "geomean");
        assert_eq!(s.last().unwrap().class, "AVG");
    }

    #[test]
    fn figure_table_has_scheme_columns() {
        let results = vec![fake_result(ComboClass::C5, 1.15)];
        let s = summarize(&results, Figure::Aws);
        let t = figure_table(&s, Figure::Aws);
        assert!(t.to_markdown().contains("SNUG"));
        assert_eq!(t.len(), 2, "C5 + AVG");
    }

    #[test]
    fn plan_presets_are_ordered() {
        assert!(
            CompareConfig::quick_plan().measure_cycles()
                < CompareConfig::default_eval_plan().measure_cycles()
        );
    }

    #[test]
    fn until_converged_defaults_derive_from_the_plan() {
        let cfg = CompareConfig::mid().until_converged(None, None);
        match cfg.plan.stop {
            StopSpec::Converged {
                window_cycles,
                rel_epsilon,
                max_cycles,
                ..
            } => {
                assert_eq!(window_cycles, 300_000, "a tenth of the mid window");
                assert_eq!(rel_epsilon, DEFAULT_REL_EPSILON);
                assert_eq!(max_cycles, 3_000_000, "budget becomes the ceiling");
            }
            other => panic!("expected a converged plan, got {other:?}"),
        }
        assert_eq!(
            cfg.plan.warmup_cycles,
            CompareConfig::mid().plan.warmup_cycles
        );

        let tuned = CompareConfig::mid().until_converged(Some(50_000), Some(0.02));
        match tuned.plan.stop {
            StopSpec::Converged {
                window_cycles,
                rel_epsilon,
                ..
            } => {
                assert_eq!(window_cycles, 50_000);
                assert_eq!(rel_epsilon, 0.02);
            }
            other => panic!("expected a converged plan, got {other:?}"),
        }
    }

    #[test]
    fn paced_runs_record_the_window_below_the_ceiling_and_inherit_the_stop_reason() {
        use snug_workloads::Benchmark;
        let combo = Combo {
            class: ComboClass::C1,
            apps: [Benchmark::Ammp; 4],
        };
        let mut cfg = CompareConfig::quick();
        cfg.plan = RunPlan::fixed(10_000, 60_000);
        let cfg = cfg.until_converged(Some(10_000), None);
        let ceiling = cfg.plan.measure_cycles();
        for (window, stop_reason, recorded) in [
            (40_000, StopReason::Converged, Some(40_000)),
            (40_000, StopReason::Ceiling, Some(40_000)),
            (ceiling, StopReason::Ceiling, None),
            (ceiling, StopReason::Converged, None),
        ] {
            let pace = Pace {
                measured_window: window,
                stop_reason,
            };
            let paced =
                run_point(&combo, &SchemePoint::Dsr, &cfg, None, Some(&pace), None).unwrap();
            assert_eq!(paced.measured_cycles, recorded, "{pace:?}");
            assert_eq!(paced.stop_reason, Some(stop_reason), "{pace:?}");

            // The paced run is the fixed-plan run over the same window;
            // only the recorded window and stop reason differ.
            let fixed = run_point(
                &combo,
                &SchemePoint::Dsr,
                &paced_config(&cfg, window),
                None,
                None,
                None,
            )
            .unwrap();
            assert_eq!(paced.ipcs, fixed.ipcs, "{pace:?}");
            assert_eq!(fixed.measured_cycles, None);
            assert_eq!(fixed.stop_reason, None);
        }
    }

    #[test]
    fn paced_shifted_fixed_runs_record_per_phase_means() {
        use snug_workloads::Benchmark;
        let combo = Combo {
            class: ComboClass::C1,
            apps: [Benchmark::Ammp; 4],
        };
        let mut cfg = CompareConfig::quick();
        cfg.plan = RunPlan::fixed(10_000, 60_000);
        let phase = PhaseSchedule::parse("40000:demand=300").unwrap();

        let run = run_point(&combo, &SchemePoint::Snug, &cfg, Some(&phase), None, None).unwrap();
        assert_eq!(
            run.plateaus.len(),
            2,
            "one mean per phase: {:?}",
            run.plateaus
        );
        assert!(run.plateaus.iter().all(|m| *m > 0.0), "{:?}", run.plateaus);

        // Recording is observation only: pausing at the boundary must
        // leave the measured result identical to a one-shot drive of
        // the same shifted session.
        let org = SchemePoint::Snug.spec(&cfg).build_any(cfg.system);
        let mut one_shot = session_for(&combo, org, &cfg, Some(&phase));
        let r = one_shot.run_to_completion();
        assert_eq!(r.ipcs(), run.ipcs, "run_until pauses perturbed the run");

        // A shift outside the measured window records nothing.
        let late = PhaseSchedule::parse("500000:demand=300").unwrap();
        let run = run_point(&combo, &SchemePoint::Snug, &cfg, Some(&late), None, None).unwrap();
        assert!(run.plateaus.is_empty(), "{:?}", run.plateaus);

        // Stationary fixed runs stay empty too.
        let run = run_point(&combo, &SchemePoint::Snug, &cfg, None, None, None).unwrap();
        assert!(run.plateaus.is_empty(), "{:?}", run.plateaus);
    }
}
