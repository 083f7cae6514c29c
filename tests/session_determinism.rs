//! The session API's determinism contract, pinned for every scheme:
//!
//! 1. any interleaving of `step()` / `run_until()` calls retires the
//!    same operation sequence — and therefore the same measured result —
//!    as one `run_to_completion()` (the call every one-shot run —
//!    `run_scheme`, `run_point`, the examples — drives);
//! 2. a `Converged`-policy run stops at the same cycle and retires the
//!    identical op sequence across interleaved stepping (the early-exit
//!    decision is a pure function of the frontier-derived observation
//!    sequence);
//! 3. a phase-change schedule (mid-run stream shifts) keeps all of the
//!    above: shifts land before the identical operation in every
//!    interleaving, also over a shared front end whose cores fork live
//!    at their first shift, and a `Reconverged` policy's extended stop
//!    cycle and per-phase plateau records are interleaving-invariant;
//! 4. observability is *observational*: harvesting `counters()` or
//!    enabling probe recording never perturbs the retired op sequence,
//!    and the measured-window counters themselves are
//!    interleaving-invariant;
//! 5. the batched drive loop charges runs of L1 hits at once, splitting
//!    a run at a ROB drain, the warm-up edge, a shift fork, a policy
//!    observation, a `run_until` target and the horizon: each matches a
//!    session driven one op at a time by `step()`, over live and shared
//!    front ends.

use proptest::prelude::*;
use sim_cmp::{Checkpoints, RunPlan, SharedFront, SimSession, SystemConfig, SystemResult};
use sim_mem::{Access, CoreOp, OpStream, ShiftDirective, StateError, StateReader, StreamShift};
use snug_core::{AnyOrg, DsrConfig, SchemeSpec, SnugConfig};
use snug_workloads::Benchmark;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 30_000;

/// Small SNUG stages so several sampling periods fit the tiny window.
fn tiny_snug() -> SnugConfig {
    let mut c = SnugConfig::paper();
    c.stage1_cycles = 2_000;
    c.stage2_cycles = 8_000;
    c.continuous_sampling = true;
    c
}

/// The five schemes under test, in a stable order for proptest
/// indexing.
fn schemes() -> Vec<SchemeSpec> {
    vec![
        SchemeSpec::L2p,
        SchemeSpec::L2s,
        SchemeSpec::Cc {
            spill_probability: 0.75,
        },
        SchemeSpec::Dsr(DsrConfig::tiny()),
        SchemeSpec::Snug(tiny_snug()),
    ]
}

/// The programs of the mixed workload, by core.
const MIX: [Benchmark; 4] = [
    Benchmark::Ammp,
    Benchmark::Vortex,
    Benchmark::Art,
    Benchmark::Applu,
];

/// A mixed multiprogrammed workload on the tiny platform: synthetic
/// streams with RNG state.
fn streams(cfg: &SystemConfig) -> Vec<Box<dyn OpStream>> {
    MIX.iter()
        .enumerate()
        .map(|(core, b)| Box::new(b.spec().stream(cfg.l2_slice, core)) as Box<dyn OpStream>)
        .collect()
}

/// The mixed workload's front end shared through record files in a
/// fresh directory, as a sweep shares a combo's across its units.
fn shared_front() -> (Arc<SharedFront>, PathBuf) {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "snug-session-det-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = SystemConfig::tiny_test();
    let l2 = cfg.l2_slice;
    let front = SharedFront::create(
        &dir,
        "mix",
        MIX.len(),
        move |core| Box::new(MIX[core].spec().stream(l2, core)),
        cfg.l1,
        Checkpoints::All,
    );
    (Arc::new(front.unwrap()), dir)
}

fn session(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = SystemConfig::tiny_test();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams(&cfg))
        .budget(WARMUP, MEASURE)
        .build()
}

fn reference(spec: &SchemeSpec) -> SystemResult {
    session(spec).run_to_completion()
}

/// A converged-policy plan loose enough that every scheme's steady
/// synthetic streams stop well before the horizon: 2 K-cycle sample
/// windows, 50 % tolerance, earliest stop 4 windows into measurement.
fn converged_plan() -> RunPlan {
    RunPlan::fixed(WARMUP, MEASURE).until_converged(2_000, 0.5)
}

fn converged_session(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = SystemConfig::tiny_test();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams(&cfg))
        .plan(converged_plan())
        .build()
}

/// A two-shift phase-change schedule over the synthetic streams: an
/// all-core demand surge mid-measurement, then two cores swap to mcf's
/// model — the scenario family the stationary sweep never exercises.
fn shifts() -> Vec<StreamShift> {
    vec![
        StreamShift::all_cores(WARMUP + 8_000, ShiftDirective::DemandScale { percent: 250 }),
        StreamShift {
            at_cycle: WARMUP + 16_000,
            cores: vec![1, 3],
            directive: ShiftDirective::Profile { name: "mcf".into() },
        },
    ]
}

fn shifted_session(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = SystemConfig::tiny_test();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams(&cfg))
        .budget(WARMUP, MEASURE)
        .phase_shifts(shifts())
        .build()
}

/// [`shifted_session`] over a shared front end.
fn shared_shifted_session(spec: &SchemeSpec, front: &Arc<SharedFront>) -> SimSession<AnyOrg> {
    let cfg = SystemConfig::tiny_test();
    SimSession::builder(cfg, spec.build_any(cfg))
        .shared_front(front.clone())
        .budget(WARMUP, MEASURE)
        .phase_shifts(shifts())
        .build()
}

/// A reconverged plan over the shifted workload: generous epsilon so
/// every scheme's streams re-stabilise inside the tiny window.
fn reconverged_session(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = SystemConfig::tiny_test();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams(&cfg))
        .plan(RunPlan::fixed(WARMUP, MEASURE).until_reconverged(2_000, 0.6))
        .phase_shifts(shifts())
        .build()
}

/// The 8-core variant of the tiny platform: twice the paper's core
/// count on the same tiny geometry, so every core-count-dependent path
/// — L2S address interleaving across 8 banks, CC/DSR peer scans, SNUG's
/// wide grouping and G/T vectors, the batched frontier's two-minima
/// scan — is exercised beyond the quad-core shape everything else in
/// this file pins.
fn cfg_8core() -> SystemConfig {
    SystemConfig {
        num_cores: 8,
        ..SystemConfig::tiny_test()
    }
}

/// Eight distinct benchmark models, one per core — mixed enough that
/// cores drift apart and the frontier order is non-trivial.
fn streams_8core(cfg: &SystemConfig) -> Vec<Box<dyn OpStream>> {
    [
        Benchmark::Ammp,
        Benchmark::Vortex,
        Benchmark::Art,
        Benchmark::Applu,
        Benchmark::Mcf,
        Benchmark::Parser,
        Benchmark::Swim,
        Benchmark::Mesa,
    ]
    .iter()
    .enumerate()
    .map(|(core, b)| Box::new(b.spec().stream(cfg.l2_slice, core)) as Box<dyn OpStream>)
    .collect()
}

fn session_8core(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = cfg_8core();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams_8core(&cfg))
        .budget(WARMUP, MEASURE)
        .build()
}

fn converged_session_8core(spec: &SchemeSpec) -> SimSession<AnyOrg> {
    let cfg = cfg_8core();
    SimSession::builder(cfg, spec.build_any(cfg))
        .streams(streams_8core(&cfg))
        .plan(converged_plan())
        .build()
}

#[test]
fn eight_core_awkward_interleaving_matches_for_every_scheme() {
    for spec in schemes() {
        let expected = session_8core(&spec).run_to_completion();
        assert_eq!(
            expected.cores.len(),
            8,
            "{spec}: the result really is 8-core"
        );
        let mut s = session_8core(&spec);
        for _ in 0..500 {
            s.step();
        }
        for t in (0..WARMUP + MEASURE + 2_000).step_by(1_234) {
            s.run_until(t);
            s.step();
        }
        assert_eq!(s.run_to_completion(), expected, "{spec}");
    }
}

#[test]
fn phase_shifts_change_every_schemes_measured_behaviour() {
    for spec in schemes() {
        let stationary = reference(&spec);
        let shifted = shifted_session(&spec).run_to_completion();
        assert_ne!(shifted, stationary, "{spec}: the shifts must engage");
    }
}

#[test]
fn reconverged_policy_extends_past_the_last_shift_for_every_scheme() {
    let last_shift = shifts().last().unwrap().at_cycle;
    for spec in schemes() {
        let mut s = reconverged_session(&spec);
        let result = s.run_to_completion();
        let stop = s
            .stopped_at()
            .unwrap_or_else(|| panic!("{spec}: loose epsilon must re-converge"));
        assert!(
            stop > last_shift,
            "{spec}: stop {stop} extends past the last shift at {last_shift}"
        );
        assert!(stop < s.horizon(), "{spec}");
        assert!(result.throughput() > 0.0, "{spec}");
        let plateaus = s.phase_plateaus();
        assert_eq!(plateaus.len(), 3, "{spec}: one plateau per phase");
        assert!(
            plateaus.last().unwrap().converged(),
            "{spec}: the final phase re-stabilised"
        );
    }
}

#[test]
fn converged_policy_stops_every_scheme_early() {
    for spec in schemes() {
        let mut s = converged_session(&spec);
        let result = s.run_to_completion();
        let stop = s
            .stopped_at()
            .unwrap_or_else(|| panic!("{spec}: loose epsilon must converge"));
        assert!(stop < s.horizon(), "{spec}: stop {stop}");
        assert!(stop >= WARMUP + 4 * 2_000, "{spec}: full window first");
        assert!(result.throughput() > 0.0, "{spec}");
    }
}

/// Long runs of L1 hits between misses: after each load of a fresh
/// block, which misses everywhere, come `hits` loads of four hot blocks,
/// one per set of the tiny L1, which stay resident. The misses are not
/// critical, so each run reaches the ROB limit of the miss before it
/// and drains it mid-run; the drain's stall spans most of a period, so
/// any boundary cycle falls inside some core's run. A demand shift
/// scales the run length.
struct HitRuns {
    label: String,
    base: u64,
    hits: u64,
    gap: u32,
    /// Ops generated so far.
    at: u64,
    /// Fresh blocks loaded so far.
    fresh: u64,
}

impl HitRuns {
    fn boxed(core: usize) -> Box<dyn OpStream + Send> {
        let core = core as u64;
        Box::new(HitRuns {
            label: format!("runs{core}"),
            base: (core + 1) << 32,
            hits: 20 + 7 * core,
            gap: u32::try_from(1 + core).unwrap(),
            at: 0,
            fresh: 0,
        })
    }
}

impl OpStream for HitRuns {
    fn next_op(&mut self) -> CoreOp {
        let i = self.at % (self.hits + 1);
        self.at += 1;
        let block = if i == 0 {
            self.fresh += 1;
            (1 << 20) + self.fresh
        } else {
            i % 4
        };
        CoreOp::new(self.gap, Access::load(self.base + block * 64))
    }

    fn label(&self) -> &str {
        &self.label
    }

    fn apply_shift(&mut self, directive: &ShiftDirective) -> bool {
        match directive {
            ShiftDirective::DemandScale { percent } => {
                self.hits = (self.hits * u64::from(*percent) / 100).max(1);
                true
            }
            _ => false,
        }
    }

    fn save_state(&self, out: &mut Vec<u8>) -> bool {
        for field in [self.hits, self.at, self.fresh] {
            sim_mem::put_u64(out, field);
        }
        true
    }

    fn restore_state(&mut self, state: &[u8]) -> Result<(), StateError> {
        let mut r = StateReader::new(state);
        let (hits, at, fresh) = (r.u64()?, r.u64()?, r.u64()?);
        r.finish()?;
        (self.hits, self.at, self.fresh) = (hits, at, fresh);
        Ok(())
    }
}

/// Each boundary that splits a hit run, with the plan and phase
/// schedule that put it there.
fn split_scenarios() -> Vec<(&'static str, RunPlan, Vec<StreamShift>)> {
    let fixed = RunPlan::fixed(WARMUP, MEASURE);
    let demand = ShiftDirective::DemandScale { percent: 250 };
    vec![
        (
            "ROB drains, the warm-up edge and the horizon",
            fixed,
            Vec::new(),
        ),
        (
            "a shift fork",
            fixed,
            vec![StreamShift::all_cores(WARMUP + 8_123, demand)],
        ),
        (
            "policy observations",
            fixed.until_converged(1_000, 0.5),
            Vec::new(),
        ),
    ]
}

#[test]
fn hit_runs_split_at_every_boundary_match_stepping() {
    let cfg = SystemConfig::tiny_test();
    let dir = std::env::temp_dir().join(format!("snug-hit-runs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let front = Arc::new(
        SharedFront::create(&dir, "runs", 4, HitRuns::boxed, cfg.l1, Checkpoints::All).unwrap(),
    );
    for (what, plan, shifts) in split_scenarios() {
        for spec in schemes() {
            for shared in [false, true] {
                let build = || {
                    let builder = SimSession::builder(cfg, spec.build_any(cfg))
                        .plan(plan)
                        .phase_shifts(shifts.clone());
                    if shared {
                        builder.shared_front(front.clone()).build()
                    } else {
                        let streams = (0..4).map(|c| HitRuns::boxed(c) as Box<dyn OpStream>);
                        builder.streams(streams.collect()).build()
                    }
                };
                let what = format!("{what}: {spec}, shared {shared}");
                let mut stepped = build();
                while stepped.step() {}
                let expected = stepped.result();
                if plan.can_stop_early() {
                    assert!(
                        stepped.stopped_at().is_some(),
                        "{what}: observations stop it"
                    );
                }
                let mut one_shot = build();
                let mut hopped = build();
                for t in (0..WARMUP + MEASURE).step_by(977) {
                    hopped.run_until(t);
                }
                for batched in [&mut one_shot, &mut hopped] {
                    assert_eq!(batched.run_to_completion(), expected, "{what}");
                    assert_eq!(batched.counters(), stepped.counters(), "{what}");
                    assert_eq!(batched.stopped_at(), stepped.stopped_at(), "{what}");
                    assert_eq!(batched.front_error(), None, "{what}");
                }
            }
        }
    }
    drop(front);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fixed_awkward_interleaving_matches_for_every_scheme() {
    for spec in schemes() {
        let expected = reference(&spec);
        let mut s = session(&spec);
        for _ in 0..500 {
            s.step();
        }
        for t in (0..WARMUP + MEASURE + 2_000).step_by(1_234) {
            s.run_until(t);
            s.step();
        }
        assert_eq!(s.run_to_completion(), expected, "{spec}");
    }
}

/// The counters of a run reconcile with the measured result: ops
/// retire, every retired op is exactly one L1D lookup, and L2 activity
/// balances the L1 misses feeding it.
#[test]
fn counters_reconcile_with_the_measured_result_for_every_scheme() {
    for spec in schemes() {
        let mut s = session(&spec);
        let result = s.run_to_completion();
        let c = s.counters();
        assert!(c.retired_ops > 0, "{spec}: ops retired");
        assert_eq!(
            c.l1d_hits + c.l1d_misses,
            c.retired_ops,
            "{spec}: one L1D lookup per retired memory op"
        );
        assert_eq!(
            c.walk_samples(),
            c.l1i_hits + c.l1d_hits,
            "{spec}: every L1 hit lands in the walk-depth histogram"
        );
        assert!(
            c.l2_hits + c.l2_misses <= c.l1i_misses + c.l1d_misses,
            "{spec}: L2 lookups are fed by L1 misses"
        );
        assert!(result.throughput() > 0.0, "{spec}");
    }
}

proptest! {
    /// Harvesting counters and enabling probe recording never perturb
    /// the retired op sequence, and the measured-window counters are
    /// identical across one-shot and interleaved driving.
    #[test]
    fn counters_are_observational_and_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..9_000, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let expected = reference(&spec);
        let mut one_shot = session(&spec);
        prop_assert_eq!(one_shot.run_to_completion(), expected.clone());
        let expected_counters = one_shot.counters();

        // Probed + interleaved: same ops, same counters.
        let mut probed = session(&spec);
        probed.enable_recording(1_000);
        let mut cursor = 0;
        for hop in &hops {
            cursor += hop;
            probed.run_until(cursor);
            probed.step();
        }
        prop_assert_eq!(probed.run_to_completion(), expected);
        prop_assert_eq!(probed.counters(), expected_counters);
    }

    /// Random step/run_until interleavings are bit-identical to the
    /// one-shot run for a randomly chosen scheme.
    #[test]
    fn interleaved_driving_is_bit_identical(
        scheme_idx in 0usize..5,
        step_runs in proptest::collection::vec(1usize..400, 0..6),
        hops in proptest::collection::vec(1u64..9_000, 0..8),
    ) {
        let spec = schemes()[scheme_idx];
        let expected = reference(&spec);
        let mut s = session(&spec);
        let mut cursor = 0;
        for (i, hop) in hops.iter().enumerate() {
            cursor += hop;
            s.run_until(cursor);
            if let Some(n) = step_runs.get(i) {
                for _ in 0..*n {
                    s.step();
                }
            }
        }
        prop_assert_eq!(s.run_to_completion(), expected);
    }

    /// A mid-run phase shift under interleaved stepping retires the
    /// identical op sequence as a one-shot run: shifts are
    /// frontier-derived.
    #[test]
    fn shifted_runs_are_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..9_000, 0..8),
        step_runs in proptest::collection::vec(1usize..400, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let expected = shifted_session(&spec).run_to_completion();

        // Random interleaving.
        let mut interleaved = shifted_session(&spec);
        let mut cursor = 0;
        for (i, hop) in hops.iter().enumerate() {
            cursor += hop;
            interleaved.run_until(cursor);
            if let Some(n) = step_runs.get(i) {
                for _ in 0..*n {
                    interleaved.step();
                }
            }
        }
        prop_assert_eq!(interleaved.run_to_completion(), expected);
    }

    /// Over a shared front end each shifted core forks live after
    /// exactly the ops it has read, so any interleaving of a shifted run
    /// still matches the live one-shot run.
    #[test]
    fn shared_front_shifted_runs_are_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..9_000, 0..8),
        step_runs in proptest::collection::vec(1usize..400, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let expected = shifted_session(&spec).run_to_completion();
        let (front, dir) = shared_front();
        let mut interleaved = shared_shifted_session(&spec, &front);
        let mut cursor = 0;
        for (i, hop) in hops.iter().enumerate() {
            cursor += hop;
            interleaved.run_until(cursor);
            if let Some(n) = step_runs.get(i) {
                for _ in 0..*n {
                    interleaved.step();
                }
            }
        }
        let got = interleaved.run_to_completion();
        drop((interleaved, front));
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(got, expected);
    }

    /// A `Reconverged`-policy shifted run latches the same extended stop
    /// cycle and the same per-phase plateau records in every
    /// interleaving.
    #[test]
    fn reconverged_stop_and_plateaus_are_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..6_000, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let mut one_shot = reconverged_session(&spec);
        let expected = one_shot.run_to_completion();
        let expected_stop = one_shot.stopped_at();
        let expected_plateaus = one_shot.phase_plateaus();
        prop_assert!(expected_stop.is_some(), "loose epsilon re-converges");

        let mut interleaved = reconverged_session(&spec);
        let mut cursor = 0;
        for hop in &hops {
            cursor += hop;
            interleaved.run_until(cursor);
            interleaved.step();
        }
        prop_assert_eq!(interleaved.run_to_completion(), expected);
        prop_assert_eq!(interleaved.stopped_at(), expected_stop);
        prop_assert_eq!(interleaved.phase_plateaus(), expected_plateaus);
    }

    /// The determinism contract holds at twice the paper's core count:
    /// random step/run_until interleavings of the 8-core platform are
    /// bit-identical to its one-shot run for every scheme.
    #[test]
    fn eight_core_interleaving_is_bit_identical(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..9_000, 0..6),
        step_runs in proptest::collection::vec(1usize..300, 0..4),
    ) {
        let spec = schemes()[scheme_idx];
        let expected = session_8core(&spec).run_to_completion();

        let mut interleaved = session_8core(&spec);
        let mut cursor = 0;
        for (i, hop) in hops.iter().enumerate() {
            cursor += hop;
            interleaved.run_until(cursor);
            if let Some(n) = step_runs.get(i) {
                for _ in 0..*n {
                    interleaved.step();
                }
            }
        }
        prop_assert_eq!(interleaved.run_to_completion(), expected);
    }

    /// The `Converged` policy is interleaving-invariant at 8 cores too:
    /// the stop cycle is a pure function of the frontier-derived
    /// observation sequence regardless of core count.
    #[test]
    fn eight_core_converged_stop_is_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..6_000, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let mut one_shot = converged_session_8core(&spec);
        let expected = one_shot.run_to_completion();
        let expected_stop = one_shot.stopped_at();
        prop_assert!(expected_stop.is_some(), "loose epsilon converges");

        let mut interleaved = converged_session_8core(&spec);
        let mut cursor = 0;
        for hop in &hops {
            cursor += hop;
            interleaved.run_until(cursor);
            interleaved.step();
        }
        prop_assert_eq!(interleaved.run_to_completion(), expected);
        prop_assert_eq!(interleaved.stopped_at(), expected_stop);
    }

    /// A `Converged`-policy run stops at the same cycle and retires the
    /// identical op sequence (same `SystemResult`, same per-core
    /// instruction counts) whether driven one-shot or through a random
    /// interleaving of `run_until`/`step`.
    #[test]
    fn converged_stop_cycle_is_interleaving_invariant(
        scheme_idx in 0usize..5,
        hops in proptest::collection::vec(1u64..6_000, 0..8),
        step_runs in proptest::collection::vec(1usize..300, 0..6),
    ) {
        let spec = schemes()[scheme_idx];
        let mut one_shot = converged_session(&spec);
        let expected = one_shot.run_to_completion();
        let expected_stop = one_shot.stopped_at();
        prop_assert!(expected_stop.is_some(), "loose epsilon converges");

        // Random interleaving.
        let mut interleaved = converged_session(&spec);
        let mut cursor = 0;
        for (i, hop) in hops.iter().enumerate() {
            cursor += hop;
            interleaved.run_until(cursor);
            if let Some(n) = step_runs.get(i) {
                for _ in 0..*n {
                    interleaved.step();
                }
            }
        }
        prop_assert_eq!(interleaved.run_to_completion(), expected);
        prop_assert_eq!(interleaved.stopped_at(), expected_stop);
    }
}
