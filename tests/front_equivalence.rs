//! Shared front ends are an implementation detail of the sweep: a
//! session reading its ops and L1 outcomes from a [`SharedFront`]'s
//! record files must be indistinguishable from one generating them
//! live — the same `SystemResult` (IPCs, cycles, per-core L1D stats,
//! L2 stats), the same `SimCounters` and the same early-exit decision —
//! for every scheme, at 4 and 8 cores, under fixed and converged plans,
//! and however many sessions read the files concurrently. A record file
//! that cannot be read fails the run, naming the file.

use sim_cmp::{RunPlan, SessionBuilder, SharedFront, SimSession, SystemConfig};
use sim_mem::{OpStream, ShiftDirective, StreamShift};
use snug_core::{AnyOrg, DsrConfig, SchemeSpec, SnugConfig};
use snug_experiments::{combo_shared_front, run_point, CompareConfig, SchemePoint};
use snug_workloads::{all_combos, Benchmark};
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

fn shared_front(cfg: &SystemConfig, dir: &std::path::Path) -> Arc<SharedFront> {
    let streams: Vec<Box<dyn OpStream + Send>> = (0..cfg.num_cores)
        .map(|core| Box::new(BENCHES[core].spec().stream(cfg.l2_slice, core)) as _)
        .collect();
    Arc::new(SharedFront::create(dir, "front", streams, cfg.l1).unwrap())
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
        let front = shared_front(&cfg, &dir);
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
    let front = shared_front(&cfg, &dir);
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

#[test]
#[should_panic(expected = "a session with a phase schedule needs live front ends")]
fn a_phase_schedule_can_only_be_built_live() {
    let cfg = platform(4);
    let dir = scratch("phase");
    let front = shared_front(&cfg, &dir);
    // The live build is fine...
    let shifts = vec![StreamShift::all_cores(
        WARMUP + 8_000,
        ShiftDirective::DemandScale { percent: 250 },
    )];
    builder(cfg, &SchemeSpec::L2p, RunPlan::fixed(WARMUP, MEASURE))
        .streams(live_streams(&cfg))
        .phase_shifts(shifts.clone())
        .build();
    let _ = std::fs::remove_dir_all(&dir);
    // ...a shared one is refused.
    builder(cfg, &SchemeSpec::L2p, RunPlan::fixed(WARMUP, MEASURE))
        .shared_front(front)
        .phase_shifts(shifts)
        .build();
}

#[test]
fn a_corrupt_record_file_fails_the_run_naming_the_file() {
    let combo = all_combos()[0];
    let mut cfg = CompareConfig::quick();
    cfg.plan = RunPlan::fixed(10_000, 40_000);
    let dir = scratch("corrupt");
    let front = Arc::new(combo_shared_front(&combo, &cfg.system, &dir, "c").unwrap());
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
