//! Shared front ends are an implementation detail of the sweep: a
//! session reading its ops and L1 outcomes from a [`SharedFront`]'s
//! record files must be indistinguishable from one generating them
//! live — the same `SystemResult` (IPCs, cycles, per-core L1D stats,
//! L2 stats), the same `SimCounters` and the same early-exit decision —
//! for every scheme, at 4 and 8 cores, under fixed, converged and
//! shifted plans (where each shifted core forks live at its first
//! shift), and however many sessions read the files concurrently. A
//! record file that cannot be read fails the run, naming the file.

use sim_cmp::{Checkpoints, RunPlan, SessionBuilder, SharedFront, SimSession, SystemConfig};
use sim_mem::{OpStream, ShiftDirective, StreamShift};
use snug_core::{AnyOrg, DsrConfig, SchemeSpec, SnugConfig};
use snug_experiments::{combo_shared_front, run_point, CompareConfig, SchemePoint};
use snug_workloads::{all_combos, Benchmark, PhaseSchedule};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

const WARMUP: u64 = 3_000;
const MEASURE: u64 = 30_000;

fn schemes() -> Vec<SchemeSpec> {
    let mut snug = SnugConfig::paper();
    snug.stage1_cycles = 2_000;
    snug.stage2_cycles = 8_000;
    snug.continuous_sampling = true;
    vec![
        SchemeSpec::L2p,
        SchemeSpec::L2s,
        SchemeSpec::Cc {
            spill_probability: 0.75,
        },
        SchemeSpec::Dsr(DsrConfig::tiny()),
        SchemeSpec::Snug(snug),
    ]
}

fn platform(cores: usize) -> SystemConfig {
    SystemConfig {
        num_cores: cores,
        ..SystemConfig::tiny_test()
    }
}

const BENCHES: [Benchmark; 8] = [
    Benchmark::Ammp,
    Benchmark::Vortex,
    Benchmark::Art,
    Benchmark::Applu,
    Benchmark::Mcf,
    Benchmark::Parser,
    Benchmark::Swim,
    Benchmark::Mesa,
];

fn live_streams(cfg: &SystemConfig) -> Vec<Box<dyn OpStream>> {
    (0..cfg.num_cores)
        .map(|core| Box::new(BENCHES[core].spec().stream(cfg.l2_slice, core)) as Box<dyn OpStream>)
        .collect()
}

/// A fresh scratch directory for one test's record files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snug-front-eq-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shared_front(cfg: &SystemConfig, dir: &std::path::Path, keep: Checkpoints) -> Arc<SharedFront> {
    let l2 = cfg.l2_slice;
    let front = SharedFront::create(
        dir,
        "front",
        cfg.num_cores,
        move |core| Box::new(BENCHES[core].spec().stream(l2, core)),
        cfg.l1,
        keep,
    );
    Arc::new(front.unwrap())
}

fn builder(cfg: SystemConfig, spec: &SchemeSpec, plan: RunPlan) -> SessionBuilder<AnyOrg> {
    SimSession::builder(cfg, spec.build_any(cfg)).plan(plan)
}

#[test]
fn shared_sessions_match_live_for_every_scheme_core_count_and_plan() {
    let fixed = RunPlan::fixed(WARMUP, MEASURE);
    let converged = fixed.until_converged(2_000, 0.5);
    for cores in [4, 8] {
        let cfg = platform(cores);
        let dir = scratch(&format!("{cores}core"));
        // One front end serves all ten runs of this platform, as it
        // serves a combo's nine units in a sweep.
        let front = shared_front(&cfg, &dir, Checkpoints::Latest);
        for plan in [fixed, converged] {
            for spec in schemes() {
                let what = format!("{spec} at {cores} cores, {:?}", plan.stop);
                let mut live = builder(cfg, &spec, plan)
                    .streams(live_streams(&cfg))
                    .build();
                let mut shared = builder(cfg, &spec, plan)
                    .shared_front(front.clone())
                    .build();
                let expected = live.run_to_completion();
                let got = shared.run_to_completion();
                assert_eq!(got.cores.len(), cores, "{what}");
                assert_eq!(got, expected, "{what}: SystemResult");
                assert_eq!(shared.counters(), live.counters(), "{what}: SimCounters");
                assert_eq!(shared.stopped_at(), live.stopped_at(), "{what}: stop");
                for c in 0..cores {
                    assert_eq!(shared.l1d_stats(c), live.l1d_stats(c), "{what}: core {c}");
                }
            }
        }
        drop(front);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn two_threads_share_one_front_end_with_interleaved_run_until() {
    let cfg = platform(4);
    let dir = scratch("threads");
    let front = shared_front(&cfg, &dir, Checkpoints::Latest);
    let plan = RunPlan::fixed(WARMUP, MEASURE);
    let pair = [schemes()[0], schemes()[4]];
    let expected: Vec<_> = pair
        .iter()
        .map(|spec| {
            builder(cfg, spec, plan)
                .streams(live_streams(&cfg))
                .build()
                .run_to_completion()
        })
        .collect();
    // Both threads advance in lock-step hops, so each extends the files
    // the other is reading from, at staggered points.
    let hops = Arc::new(Barrier::new(2));
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = pair
            .iter()
            .enumerate()
            .map(|(t, spec)| {
                let front = front.clone();
                let hops = hops.clone();
                scope.spawn(move || {
                    let mut s = builder(cfg, spec, plan).shared_front(front).build();
                    let stride = 1_700 + 900 * t as u64;
                    let mut at = 0;
                    for _ in 0..12 {
                        at += stride;
                        s.run_until(at);
                        hops.wait();
                    }
                    s.run_to_completion()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(results, expected);
    drop(front);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shifted scenarios: long enough that most cores fork past a
/// checkpoint, and the 8-core L2P-like runs past several.
const SHIFT_WARMUP: u64 = 600_000;
const SHIFT_MEASURE: u64 = 900_000;

fn schedules() -> Vec<(&'static str, Vec<StreamShift>)> {
    let mcf = || ShiftDirective::Profile { name: "mcf".into() };
    let surge = ShiftDirective::DemandScale { percent: 250 };
    vec![
        (
            "a shift during warm-up",
            vec![StreamShift::all_cores(500_000, surge.clone())],
        ),
        (
            "a shift on cores 0 and 2 only",
            vec![StreamShift {
                at_cycle: 1_000_000,
                cores: vec![0, 2],
                directive: mcf(),
            }],
        ),
        (
            "two shifts",
            vec![
                StreamShift::all_cores(900_000, surge),
                StreamShift {
                    at_cycle: 1_300_000,
                    cores: vec![1, 3],
                    directive: mcf(),
                },
            ],
        ),
    ]
}

#[test]
fn shifted_shared_sessions_match_live_for_every_scheme_core_count_and_plan() {
    let fixed = RunPlan::fixed(SHIFT_WARMUP, SHIFT_MEASURE);
    let reconverged = fixed.until_reconverged(20_000, 0.5);
    for cores in [4, 8] {
        let cfg = platform(cores);
        let dir = scratch(&format!("shift{cores}"));
        let front = shared_front(&cfg, &dir, Checkpoints::All);
        for (scenario, shifts) in schedules() {
            for plan in [fixed, reconverged] {
                for spec in schemes() {
                    let what = format!("{spec} at {cores} cores, {scenario}, {:?}", plan.stop);
                    let mut live = builder(cfg, &spec, plan)
                        .streams(live_streams(&cfg))
                        .phase_shifts(shifts.clone())
                        .build();
                    let mut shared = builder(cfg, &spec, plan)
                        .shared_front(front.clone())
                        .phase_shifts(shifts.clone())
                        .build();
                    let expected = live.run_to_completion();
                    assert_eq!(shared.run_to_completion(), expected, "{what}: SystemResult");
                    assert_eq!(shared.counters(), live.counters(), "{what}: SimCounters");
                    assert_eq!(shared.stopped_at(), live.stopped_at(), "{what}: stop");
                    assert_eq!(
                        shared.phase_plateaus(),
                        live.phase_plateaus(),
                        "{what}: plateaus"
                    );
                }
            }
        }
        drop(front);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_front_keeping_only_its_latest_checkpoint_still_forks_exactly() {
    let cfg = platform(8);
    let dir = scratch("latest");
    let front = shared_front(&cfg, &dir, Checkpoints::Latest);
    let plan = RunPlan::fixed(SHIFT_WARMUP, SHIFT_MEASURE);
    let (_, shifts) = schedules().pop().unwrap();
    // The first run extends the files past every later fork.
    for spec in [SchemeSpec::L2p, SchemeSpec::L2s, SchemeSpec::L2p] {
        let expected = builder(cfg, &spec, plan)
            .streams(live_streams(&cfg))
            .phase_shifts(shifts.clone())
            .build()
            .run_to_completion();
        let got = builder(cfg, &spec, plan)
            .shared_front(front.clone())
            .phase_shifts(shifts.clone())
            .build()
            .run_to_completion();
        assert_eq!(got, expected, "{spec}");
    }
    drop(front);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_record_file_fails_the_run_naming_the_file() {
    let combo = all_combos()[0];
    let mut cfg = CompareConfig::quick();
    cfg.plan = RunPlan::fixed(10_000, 40_000);
    let dir = scratch("corrupt");
    let front =
        Arc::new(combo_shared_front(&combo, &cfg.system, &dir, "c", Checkpoints::Latest).unwrap());
    let point = SchemePoint::Snug;
    let live = run_point(&combo, &point, &cfg, None, None, None).unwrap();
    assert_eq!(
        run_point(&combo, &point, &cfg, None, None, Some(&front)),
        Ok(live)
    );
    // Every record byte becomes an unknown access kind.
    let paths: Vec<PathBuf> = front.paths().map(|p| p.to_path_buf()).collect();
    for path in &paths {
        let len = std::fs::metadata(path).unwrap().len();
        std::fs::write(path, vec![0xff; usize::try_from(len).unwrap()]).unwrap();
    }
    let err = run_point(&combo, &point, &cfg, None, None, Some(&front)).unwrap_err();
    assert_eq!(err.path, paths[0], "core 0 reads first");
    assert!(
        err.to_string()
            .ends_with("-core0.front: unknown access kind 3 at byte 0"),
        "{err}"
    );
    // `run_to_completion` has no error channel: it panics with the
    // front end's error, even when the failure precedes measurement.
    let mut session = SimSession::builder(cfg.system, SchemeSpec::L2p.build_any(cfg.system))
        .plan(cfg.plan)
        .shared_front(front.clone())
        .build();
    let panic =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| session.run_to_completion()))
            .unwrap_err();
    let message = panic.downcast_ref::<String>().unwrap();
    assert!(
        message.ends_with("-core0.front: unknown access kind 3 at byte 0"),
        "{message}"
    );
    drop(session);
    drop(front);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_corrupt_checkpoint_fails_the_unit_naming_the_file() {
    let combo = all_combos()[0];
    let mut cfg = CompareConfig::quick();
    cfg.plan = RunPlan::fixed(10_000, 800_000);
    // Late enough that every core forks from a kept checkpoint.
    let phase = PhaseSchedule::parse("600000:demand=250").unwrap();
    let dir = scratch("corrupt-ckpt");
    let front =
        Arc::new(combo_shared_front(&combo, &cfg.system, &dir, "c", Checkpoints::All).unwrap());
    let point = SchemePoint::Snug;
    let live = run_point(&combo, &point, &cfg, Some(&phase), None, None).unwrap();
    assert_eq!(
        run_point(&combo, &point, &cfg, Some(&phase), None, Some(&front)),
        Ok(live)
    );
    // The records stay intact: only a fork reads the checkpoints.
    let paths: Vec<PathBuf> = front.checkpoint_paths().map(|p| p.to_path_buf()).collect();
    for path in &paths {
        let len = std::fs::metadata(path).unwrap().len();
        std::fs::write(path, vec![0x5a; usize::try_from(len).unwrap()]).unwrap();
    }
    let err = run_point(&combo, &point, &cfg, Some(&phase), None, Some(&front)).unwrap_err();
    assert!(paths.contains(&err.path), "{err}");
    assert!(err.path.to_string_lossy().ends_with(".ckpt"), "{err}");
    assert!(
        err.message.starts_with("checkpoint at byte ")
            && err
                .message
                .ends_with("checkpoint field `checksum` out of range"),
        "{err}"
    );
    drop(front);
    std::fs::remove_dir_all(&dir).unwrap();
}
