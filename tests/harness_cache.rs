//! Integration tests for the snug-harness result cache: results served
//! from the content-addressed store are bit-identical to fresh runs,
//! across processes (the store is re-opened from disk) and across the
//! JSON encode/decode boundary; a scheme-config edit re-runs only that
//! scheme's unit jobs.

use snug_experiments::{pace_of, run_combo, run_point, SchemePoint, SchemeRun};
use snug_harness::JsonWriter;
use snug_harness::{
    cached_results, run_sweep, run_unit_jobs, unit_jobs_for, BudgetPreset, JsonCodec, ResultStore,
    StopPreset, SweepEvent, SweepSpec,
};
use snug_workloads::{ComboClass, PhaseSchedule};
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
        stop: StopPreset::Fixed,
        phase_shift: None,
    }
}

const UNITS: usize = SchemePoint::COUNT;

#[test]
fn cached_combo_results_are_bit_identical_to_fresh_runs() {
    // A cold sweep runs each combo's units over one shared front end;
    // under a convergence plan every sibling is also paced by its
    // combo's baseline. Both must equal live `run_combo` bit for bit.
    assert_cached_equals_fresh(tiny_spec(), "bit-identity");
    let mut converged = tiny_spec();
    converged.stop = StopPreset::Converged {
        window_cycles: Some(15_000),
        rel_epsilon: Some(0.05),
    };
    let windows = assert_cached_equals_fresh(converged, "bit-identity-conv");
    assert!(
        windows.iter().any(|m| m.is_some_and(|m| m < 80_000)),
        "some converged unit must stop before its ceiling: {windows:?}"
    );
    // A shifted sweep: each unit forks its cores off the combo's shared
    // front end at the shift, late enough that most forks restore a
    // checkpoint.
    let mut shifted = tiny_spec();
    shifted.budget = BudgetPreset::Custom {
        warmup_cycles: 15_000,
        measure_cycles: 900_000,
    };
    shifted.stop = StopPreset::Reconverged {
        window_cycles: Some(15_000),
        rel_epsilon: Some(0.05),
    };
    shifted.phase_shift = Some(
        PhaseSchedule::parse("700000:demand=250")
            .unwrap()
            .fingerprint(),
    );
    assert_shifted_equals_live(shifted, "bit-identity-reconv");
}

/// Sweep a shifted early-exit `spec` cold and check every stored unit
/// against a live `run_point` under the same phase schedule: the
/// baseline unpaced, its siblings paced by the live baseline.
fn assert_shifted_equals_live(spec: SweepSpec, tag: &str) {
    let dir = tmp_dir(tag);
    let mut store = ResultStore::open(&dir).unwrap();
    let first = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
    assert_eq!(first.executed, 3 * UNITS, "{tag}: C5's 27 units ran");
    for job in spec.combo_jobs() {
        let mut pace = None;
        for unit in &job.units {
            assert!(unit.phase.is_some(), "{tag}: a shifted unit");
            let live = run_point(
                &unit.combo,
                &unit.point,
                &unit.config,
                unit.phase.as_ref(),
                pace.as_ref(),
                None,
            )
            .unwrap();
            if unit.point == SchemePoint::L2p {
                pace = Some(pace_of(&live, &unit.config));
            }
            assert_eq!(
                store.get_unit(&unit.key),
                Some(&live),
                "{tag}: {}",
                unit.label()
            );
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Sweep `spec` cold, re-serve it from the re-opened store and check
/// both against live, from-scratch `run_combo`s; returns every stored
/// unit's measured window.
fn assert_cached_equals_fresh(spec: SweepSpec, tag: &str) -> Vec<Option<u64>> {
    let dir = tmp_dir(tag);

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
        "{tag}: second run plans zero executions"
    );
    assert_eq!(second.executed, 0);
    assert!(second.combos.iter().all(|c| c.from_cache));

    // The decoded results equal the stored ones bit-for-bit (ComboResult
    // is PartialEq over f64s — exact equality, not approximate).
    assert_eq!(second.results(), first.results(), "{tag}");

    // ... and both equal a from-scratch simulation of the same combos.
    let cfg = spec.compare_config();
    for (job, outcome) in spec.combo_jobs().iter().zip(first.combos.iter()) {
        let fresh = run_combo(&job.combo, &cfg);
        assert_eq!(outcome.result, fresh, "{tag}: {}", job.combo.label());
    }

    let windows = spec
        .combo_jobs()
        .iter()
        .flat_map(|job| &job.units)
        .map(|unit| reopened.get_unit(&unit.key).unwrap().measured_cycles)
        .collect();
    std::fs::remove_dir_all(&dir).unwrap();
    windows
}

#[test]
fn json_boundary_preserves_every_float_bit() {
    // Run one real combo's units and push each through the store codec:
    // the IPCs are arbitrary f64s produced by the simulator, so this
    // exercises float round-tripping on realistic values.
    let spec = tiny_spec();
    for unit in &spec.combo_jobs()[0].units {
        let run = run_point(&unit.combo, &unit.point, &unit.config, None, None, None).unwrap();
        let mut w = JsonWriter::default();
        run.write_json(&mut w).unwrap();
        let decoded = SchemeRun::from_json_str(&w.finish()).unwrap();
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
