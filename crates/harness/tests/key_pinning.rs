//! Content keys stay pinned to the formula the committed store was
//! keyed with.
//!
//! The key functions hash a key's shared suffix once per expansion and
//! only its combo prefix per unit, advancing several forward lanes in
//! one loop. This test keeps the original formula as the reference — one
//! format string per unit, two separate FNV-1a passes — and checks the
//! two agree for every spec the committed documents are served from,
//! and for their trace keys. It also checks
//! that the committed store holds every unit key of those specs, and
//! that every `|frag` key fragment the key-building modules write is
//! registered in `key_fragments.registry`.

use snug_experiments::{CompareConfig, SchemePoint};
use snug_harness::hash::fnv1a64;
use snug_harness::{
    eval_converged_spec, trace_key, unit_key, BudgetPreset, ResultStore, StopPreset, SweepSpec,
    SCHEMA_VERSION,
};
use snug_workloads::{Combo, PhaseSchedule};
use std::collections::BTreeSet;
use std::path::Path;

/// The original `content_key`: a forward pass, then a pass over a
/// reversed copy.
fn reference_content_key(input: &str) -> String {
    let a = fnv1a64(input.as_bytes());
    let salted: Vec<u8> = input.bytes().rev().collect();
    let b = fnv1a64(&salted);
    format!("{a:016x}{b:016x}")
}

fn reference_phase(phase: Option<&PhaseSchedule>) -> String {
    match phase {
        Some(p) => format!("|phase={}", p.fingerprint()),
        None => String::new(),
    }
}

/// The original `unit_key_phased`.
fn reference_unit_key(
    combo: &Combo,
    point: &SchemePoint,
    config: &CompareConfig,
    phase: Option<&PhaseSchedule>,
) -> String {
    let phase = reference_phase(phase);
    reference_content_key(&format!(
        "{SCHEMA_VERSION}|{combo:?}|{point:?}|{:?}|{}|{}{phase}",
        config.system,
        config.plan.fingerprint(),
        point.param_fingerprint(config),
    ))
}

/// The original `trace_key`.
fn reference_trace_key(
    combo: &Combo,
    point: &SchemePoint,
    config: &CompareConfig,
    stride: u64,
    phase: Option<&PhaseSchedule>,
) -> String {
    let phase = reference_phase(phase);
    reference_content_key(&format!(
        "{SCHEMA_VERSION}|trace|{combo:?}|{point:?}|{:?}|{}|{}|stride={stride}{phase}",
        config.system,
        config.plan.fingerprint(),
        point.param_fingerprint(config),
    ))
}

/// The specs the committed documents are served from: `--mid`, the
/// shifted `--mid --phase-shift 1800000:demand=300 --until-reconverged
/// --window 150000`, and the eval-converged spec.
fn committed_specs() -> [SweepSpec; 3] {
    let mid = SweepSpec::full(BudgetPreset::Mid);
    let mut shifted = SweepSpec::full(BudgetPreset::Mid);
    shifted.stop = StopPreset::Reconverged {
        window_cycles: Some(150_000),
        rel_epsilon: None,
    };
    shifted.phase_shift = Some(
        PhaseSchedule::parse("1800000:demand=300")
            .unwrap()
            .fingerprint(),
    );
    [mid, shifted, eval_converged_spec()]
}

#[test]
fn expansion_keys_match_the_reference_formula() {
    for spec in committed_specs() {
        let units = spec.unit_jobs();
        assert_eq!(units.len(), 189);
        for unit in &units {
            let reference =
                reference_unit_key(&unit.combo, &unit.point, &unit.config, unit.phase.as_ref());
            assert_eq!(
                unit.key,
                reference,
                "{} ({})",
                unit.label(),
                spec.budget_label()
            );
            let single = unit_key(&unit.combo, &unit.point, &unit.config, unit.phase.as_ref());
            assert_eq!(single, reference, "{}", unit.label());
        }
    }
}

#[test]
fn trace_keys_match_the_reference_formula() {
    for spec in committed_specs() {
        let config = spec.compare_config();
        let phase = spec.phase_schedule();
        for combo in spec.combos() {
            for point in SchemePoint::all() {
                for stride in [25_000, 50_000] {
                    assert_eq!(
                        trace_key(&combo, &point, &config, stride, phase.as_ref()),
                        reference_trace_key(&combo, &point, &config, stride, phase.as_ref()),
                        "{} [{}] stride {stride}",
                        combo.label(),
                        point.label(),
                    );
                }
            }
        }
    }
}

#[test]
fn every_committed_spec_unit_is_in_the_committed_store() {
    let store =
        ResultStore::open(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results")).unwrap();
    let mut keys = BTreeSet::new();
    for spec in committed_specs() {
        for unit in spec.unit_jobs() {
            assert!(
                store.get_unit(&unit.key).is_some(),
                "{} ({}) missing from the committed store",
                unit.label(),
                spec.budget_label(),
            );
            keys.insert(unit.key);
        }
    }
    assert_eq!(keys.len(), 3 * 189, "unit keys are distinct across specs");
}

/// The modules that build content keys. A new key-building module
/// belongs in this list.
const KEY_MODULES: [&str; 3] = ["src/spec.rs", "src/codec.rs", "src/sweep.rs"];

/// Every key fragment the key-building modules write is registered with
/// a note, every registered fragment is still written (unless its note
/// starts with `reserved:`), and the registry's `# schema:` header
/// names the current `SCHEMA_VERSION` — so a new or renamed fragment,
/// which re-keys the store, always arrives with a registry edit.
#[test]
fn key_fragments_match_the_registry() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let sources = KEY_MODULES.map(|module| std::fs::read_to_string(root.join(module)).unwrap());
    let modules: Vec<(&str, &str)> = KEY_MODULES
        .iter()
        .zip(&sources)
        .map(|(module, source)| (*module, source.as_str()))
        .collect();
    let registry = std::fs::read_to_string(root.join("key_fragments.registry")).unwrap();
    let findings = snug_srcscan::registry_findings(&modules, &registry, SCHEMA_VERSION);
    assert!(
        findings.is_empty(),
        "key_fragments.registry is out of step with the key modules:\n{}",
        findings.join("\n")
    );
}
