//! The parallel-determinism contract of `snug sweep --jobs N` (ISSUE 7):
//! however many workers execute a sweep, it executes every unit exactly
//! once and the post-merge `results/store.jsonl` is byte-identical to a
//! sequential run —
//! completed units land in plan order, never completion order — and a
//! re-run over the merged store is 100% cache hits. Also covers crash
//! recovery at the process boundary: a sweep killed mid-flight leaves
//! per-worker shards (possibly with a torn trailing line) that the next
//! run folds back in, re-executing only the missing units.

use snug_harness::{run_sweep, BudgetPreset, ResultStore, StopPreset, SweepSpec};
use snug_workloads::{ComboClass, PhaseSchedule};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snug-par-det-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A three-combo ([`UNITS`]-unit) plan small enough to run a dozen
/// times.
fn tiny_spec(stop: StopPreset, phase_shift: Option<&str>) -> SweepSpec {
    SweepSpec {
        name: "par-det".into(),
        classes: vec![ComboClass::C5],
        combos: Vec::new(),
        budget: BudgetPreset::Custom {
            warmup_cycles: 10_000,
            measure_cycles: 60_000,
        },
        stop,
        phase_shift: phase_shift.map(|s| {
            PhaseSchedule::parse(s)
                .expect("valid test schedule")
                .fingerprint()
        }),
    }
}

fn store_path(dir: &Path) -> PathBuf {
    dir.join(snug_harness::store::STORE_FILE)
}

/// Unit jobs in [`tiny_spec`]: three combos of nine scheme points.
const UNITS: usize = 27;

/// Run the spec with `jobs` workers in a fresh store and return the
/// merged store bytes (after asserting the sweep executed every unit
/// exactly once, whatever the worker count).
fn store_bytes(spec: &SweepSpec, jobs: usize, tag: &str) -> Vec<u8> {
    let dir = tmp_dir(tag);
    let mut store = ResultStore::open(&dir).unwrap();
    let outcome = run_sweep(spec, &mut store, jobs, |_| {}).unwrap();
    assert_eq!(outcome.cache_hits, 0, "{tag}: fresh store");
    assert_eq!(outcome.executed, UNITS, "{tag}: every unit ran once");
    drop(store);

    // A re-run over the merged store plans nothing, at any worker count.
    let mut reopened = ResultStore::open(&dir).unwrap();
    let again = run_sweep(spec, &mut reopened, 8, |_| {}).unwrap();
    assert_eq!(again.executed, 0, "{tag}: re-run is all cache hits");
    assert_eq!(again.cache_hits, outcome.executed);
    drop(reopened);

    let bytes = std::fs::read(store_path(&dir)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    bytes
}

fn assert_jobs_invariant(spec: &SweepSpec, tag: &str) {
    let reference = store_bytes(spec, 1, &format!("{tag}-j1"));
    for jobs in [2, 4, 8] {
        let parallel = store_bytes(spec, jobs, &format!("{tag}-j{jobs}"));
        assert_eq!(
            parallel, reference,
            "{tag}: --jobs {jobs} store differs from --jobs 1"
        );
    }
}

#[test]
fn fixed_plan_stores_are_byte_identical_across_worker_counts() {
    assert_jobs_invariant(&tiny_spec(StopPreset::Fixed, None), "fixed");
}

#[test]
fn converged_plan_stores_are_byte_identical_across_worker_counts() {
    // Convergence introduces the pacing graph: every combo's paced
    // siblings wait on its L2P baseline, so this exercises dependency
    // scheduling, not just free fan-out.
    let spec = tiny_spec(
        StopPreset::Converged {
            window_cycles: Some(15_000),
            rel_epsilon: Some(0.05),
        },
        None,
    );
    assert_jobs_invariant(&spec, "conv");
}

#[test]
fn reconverged_shifted_plan_stores_are_byte_identical_across_worker_counts() {
    let spec = tiny_spec(
        StopPreset::Reconverged {
            window_cycles: Some(15_000),
            rel_epsilon: Some(0.05),
        },
        Some("30000:demand=60"),
    );
    assert_jobs_invariant(&spec, "reconv");
}

#[test]
fn crashed_sweep_recovers_shards_and_reruns_only_missing_units() {
    let spec = tiny_spec(StopPreset::Fixed, None);

    // Reference: a clean sequential run.
    let ref_dir = tmp_dir("crash-ref");
    let mut ref_store = ResultStore::open(&ref_dir).unwrap();
    run_sweep(&spec, &mut ref_store, 1, |_| {}).unwrap();
    drop(ref_store);
    let reference = std::fs::read_to_string(store_path(&ref_dir)).unwrap();

    // Forge the crash site: a store directory whose only content is a
    // worker shard holding the first seven completed units plus a torn
    // trailing line (the write the "kill" interrupted).
    let crash_dir = tmp_dir("crash-site");
    let shards = crash_dir.join(snug_harness::SHARDS_DIR);
    std::fs::create_dir_all(&shards).unwrap();
    let complete: Vec<&str> = reference.lines().take(7).collect();
    std::fs::write(
        shards.join("worker-2.jsonl"),
        format!("{}\n{{\"key\":\"torn-", complete.join("\n")),
    )
    .unwrap();

    let mut store = ResultStore::open(&crash_dir).unwrap();
    let outcome = run_sweep(&spec, &mut store, 4, |_| {}).unwrap();
    assert_eq!(outcome.cache_hits, 7, "recovered units are cache hits");
    assert_eq!(outcome.executed, UNITS - 7, "only the missing units re-ran");
    drop(store);

    assert_eq!(
        std::fs::read_to_string(store_path(&crash_dir)).unwrap(),
        reference,
        "recovered + re-run store matches the clean sequential store"
    );
    assert!(
        !shards.exists(),
        "consumed shards are deleted after the merge"
    );

    std::fs::remove_dir_all(&ref_dir).unwrap();
    std::fs::remove_dir_all(&crash_dir).unwrap();
}
