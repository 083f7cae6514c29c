//! Content keys stay pinned to the formula the committed store was
//! keyed with.
//!
//! The key functions hash a key's shared suffix once per expansion and
//! only its combo prefix per unit, advancing several forward lanes in
//! one loop, and spell the configuration through the exhaustive key
//! encoders in `spec.rs`. This test keeps the original formula as the
//! reference — one format string per unit, two separate FNV-1a passes,
//! and the configuration as the literal text its derived `Debug`
//! printed when the store was keyed — and checks the two agree for
//! every spec the committed documents are served from, and for their
//! trace keys. It also checks that the committed store holds every unit
//! key of those specs, and that the encoders write the literals.

use snug_experiments::{CompareConfig, SchemePoint};
use snug_harness::fnv1a64;
use snug_harness::{
    eval_converged_spec, params_key_text, system_key_text, trace_key, unit_key, BudgetPreset,
    ResultStore, StopPreset, SweepSpec, SCHEMA_VERSION,
};
use snug_workloads::{Combo, PhaseSchedule};
use std::collections::BTreeSet;
use std::path::Path;

/// The platform's key text: `SystemConfig::paper()`, which every
/// preset uses.
const SYSTEM: &str = "SystemConfig { num_cores: 4, \
    l1: Geometry { block_bytes: 64, num_sets: 128, assoc: 4 }, \
    l2_slice: Geometry { block_bytes: 64, num_sets: 1024, assoc: 16 }, \
    l1_latency: 1, l2_local_latency: 10, l2_remote_latency: 30, snug_remote_latency: 40, \
    core: CoreConfig { issue_width: 8, rob_size: 128, max_outstanding: 8 }, \
    bus: BusConfig { width_bytes: 16, speed_ratio: 4, arbitration: 1 }, \
    dram: DramConfig { latency: 300, service_interval: 4 }, \
    write_buffer_entries: 16, address_bits: 32 }";

/// DSR's key text in every preset.
const DSR: &str = "DsrConfig { sample_stride: 32, psel_bits: 10 }";

/// SNUG's key text in each preset.
const SNUG: [(BudgetPreset, &str); 3] = [
    (
        BudgetPreset::Quick,
        "SnugConfig { counter_bits: 4, p: 8, stage1_cycles: 60000, stage2_cycles: 240000, \
         flipping: true, flip_width: 1, clear_shadows_each_period: false, continuous_sampling: true }",
    ),
    (
        BudgetPreset::Mid,
        "SnugConfig { counter_bits: 4, p: 8, stage1_cycles: 10000, stage2_cycles: 290000, \
         flipping: true, flip_width: 1, clear_shadows_each_period: false, continuous_sampling: true }",
    ),
    (
        BudgetPreset::Eval,
        "SnugConfig { counter_bits: 4, p: 8, stage1_cycles: 150000, stage2_cycles: 1350000, \
         flipping: true, flip_width: 1, clear_shadows_each_period: false, continuous_sampling: true }",
    ),
];

/// The scheme parameters' key text of one point; SNUG's is that of the
/// preset whose SNUG configuration `config` holds.
fn reference_params(point: &SchemePoint, config: &CompareConfig) -> &'static str {
    match point {
        SchemePoint::Dsr => DSR,
        SchemePoint::Snug => SNUG
            .iter()
            .find(|(preset, _)| preset.compare_config().snug == config.snug)
            .map(|(_, text)| *text)
            .expect("a preset's SNUG configuration"),
        _ => "",
    }
}

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
        "{SCHEMA_VERSION}|{combo:?}|{point:?}|{SYSTEM}|{}|{}{phase}",
        config.plan.fingerprint(),
        reference_params(point, config),
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
        "{SCHEMA_VERSION}|trace|{combo:?}|{point:?}|{SYSTEM}|{}|{}|stride={stride}{phase}",
        config.plan.fingerprint(),
        reference_params(point, config),
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

/// The key encoders write the literal text the committed keys were
/// hashed from: the platform, and SNUG and DSR in each preset.
#[test]
fn the_key_encoders_write_the_pinned_text() {
    for (preset, snug) in SNUG {
        let config = preset.compare_config();
        let what = preset.label();
        assert_eq!(system_key_text(&config.system), SYSTEM, "{what}");
        assert_eq!(params_key_text(&SchemePoint::Snug, &config), snug, "{what}");
        assert_eq!(params_key_text(&SchemePoint::Dsr, &config), DSR, "{what}");
    }
}
