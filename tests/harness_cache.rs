//! Integration tests for the snug-harness result cache: results served
//! from the content-addressed store are bit-identical to fresh runs,
//! across processes (the store is re-opened from disk) and across the
//! JSON encode/decode boundary; a scheme-config edit re-runs only that
//! scheme's unit jobs.

use snug_harness::{
    cached_results, run_sweep, run_unit_jobs, unit_jobs_for, BudgetPreset, JsonCodec, ResultStore,
    SweepEvent, SweepSpec,
};
use snug_sim::experiments::{run_combo, run_point, SchemePoint, SchemeRun};
use snug_workloads::ComboClass;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snug-harness-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny_spec() -> SweepSpec {
    SweepSpec {
        name: "it-c5".into(),
        classes: vec![ComboClass::C5],
        combos: Vec::new(),
        budget: BudgetPreset::Custom {
            warmup_cycles: 15_000,
            measure_cycles: 80_000,
        },
        stop: snug_harness::StopPreset::Fixed,
        phase_shift: None,
    }
}

const UNITS: usize = SchemePoint::COUNT;

#[test]
fn cached_combo_results_are_bit_identical_to_fresh_runs() {
    let spec = tiny_spec();
    let dir = tmp_dir("bit-identity");

    // First sweep: everything executes.
    let mut store = ResultStore::open(&dir).unwrap();
    let first = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
    assert_eq!(first.executed, 3 * UNITS, "C5: three combos of nine units");
    assert_eq!(first.cache_hits, 0);
    drop(store);

    // Second sweep from a store re-opened off disk: all cache hits.
    let mut reopened = ResultStore::open(&dir).unwrap();
    let mut hits_reported = None;
    let second = run_sweep(&spec, &mut reopened, 2, |e| {
        if let SweepEvent::Planned { total, hits, .. } = e {
            hits_reported = Some((total, hits));
        }
    })
    .unwrap();
    assert_eq!(
        hits_reported,
        Some((3 * UNITS, 3 * UNITS)),
        "second run plans zero executions"
    );
    assert_eq!(second.executed, 0);
    assert!(second.combos.iter().all(|c| c.from_cache));

    // The decoded results equal the stored ones bit-for-bit (ComboResult
    // is PartialEq over f64s — exact equality, not approximate).
    assert_eq!(second.results(), first.results());

    // ... and both equal a from-scratch simulation of the same combos.
    let cfg = spec.compare_config();
    for (job, outcome) in spec.combo_jobs().iter().zip(second.combos.iter()) {
        let fresh = run_combo(&job.combo, &cfg);
        assert_eq!(outcome.result, fresh, "{}", job.combo.label());
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_boundary_preserves_every_float_bit() {
    // Run one real combo's units and push each through the store codec:
    // the IPCs are arbitrary f64s produced by the simulator, so this
    // exercises float round-tripping on realistic values.
    let spec = tiny_spec();
    for unit in &spec.combo_jobs()[0].units {
        let run = run_point(&unit.combo, &unit.point, &unit.config, None, None);
        let decoded =
            SchemeRun::from_json(&snug_harness::json::parse(&run.to_json().render()).unwrap())
                .unwrap();
        assert_eq!(decoded, run, "{}", unit.label());
        for (a, b) in decoded.ipcs.iter().zip(&run.ipcs) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact IPC");
        }
    }
}

#[test]
fn report_from_cache_matches_report_from_run() {
    let spec = tiny_spec();
    let dir = tmp_dir("report-match");
    let mut store = ResultStore::open(&dir).unwrap();
    let outcome = run_sweep(&spec, &mut store, 0, |_| {}).unwrap();
    let md_fresh = snug_harness::render_markdown(&spec, &outcome.results());

    let reopened = ResultStore::open(&dir).unwrap();
    let cached = cached_results(&spec, &reopened).expect("sweep just ran");
    let md_cached = snug_harness::render_markdown(&spec, &cached);
    assert_eq!(
        md_fresh, md_cached,
        "identical report, including every throughput digit"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn snug_config_edit_reruns_only_snug_units() {
    let spec = tiny_spec();
    let dir = tmp_dir("scheme-edit");
    let mut store = ResultStore::open(&dir).unwrap();
    run_sweep(&spec, &mut store, 0, |_| {}).unwrap();

    // Edit SNUG's stage lengths only: of the 27 C5 units, exactly the 3
    // SNUG points must re-run.
    let mut edited = spec.compare_config();
    edited.snug.stage2_cycles += 1;
    let jobs: Vec<_> = spec
        .combos()
        .iter()
        .flat_map(|combo| unit_jobs_for(combo, &edited, None))
        .collect();
    let outcomes = run_unit_jobs(&jobs, &mut store, 0, &mut |_| {}).unwrap();
    let executed: Vec<&str> = outcomes
        .iter()
        .zip(&jobs)
        .filter(|(o, _)| !o.from_cache)
        .map(|(o, _)| o.run.scheme.as_str())
        .collect();
    assert_eq!(executed, vec!["snug"; 3], "only the SNUG units re-ran");
    assert_eq!(
        outcomes.iter().filter(|o| o.from_cache).count(),
        3 * UNITS - 3
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
