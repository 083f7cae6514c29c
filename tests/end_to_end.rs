//! Cross-crate integration tests: full workload → CMP system → metrics
//! pipelines under every L2 organisation.

use sim_cmp::{SimSession, SystemConfig};
use sim_mem::OpStream;
use snug_core::{SchemeSpec, Snug};
use snug_experiments::{run_combo, run_scheme, CompareConfig};
use snug_metrics::{IpcVector, MetricSet};
use snug_workloads::{all_combos, Benchmark, ComboClass};

fn tiny_cfg() -> CompareConfig {
    let mut cfg = CompareConfig::quick();
    cfg.plan = snug_experiments::RunPlan::fixed(40_000, 250_000);
    cfg.snug.stage1_cycles = 20_000;
    cfg.snug.stage2_cycles = 80_000;
    cfg
}

#[test]
fn every_scheme_completes_a_mixed_combo() {
    let cfg = tiny_cfg();
    let combo = all_combos()
        .into_iter()
        .find(|c| c.class == ComboClass::C4)
        .unwrap();
    for spec in [
        SchemeSpec::L2p,
        SchemeSpec::L2s,
        SchemeSpec::Cc {
            spill_probability: 0.5,
        },
        SchemeSpec::Dsr(cfg.dsr),
        SchemeSpec::Snug(cfg.snug),
    ] {
        let r = run_scheme(&combo, &spec, &cfg);
        assert_eq!(r.cores.len(), 4);
        for core in &r.cores {
            assert!(core.ipc > 0.0, "{}: core produced no progress", r.scheme);
            assert!(core.cycles >= cfg.plan.measure_cycles() * 9 / 10);
        }
        assert!(r.l2.accesses() > 0, "{}: L2 never accessed", r.scheme);
    }
}

#[test]
fn run_combo_produces_all_figure_schemes() {
    let cfg = tiny_cfg();
    let combo = all_combos()[0];
    let r = run_combo(&combo, &cfg);
    for scheme in snug_experiments::FIGURE_SCHEMES {
        let m = r
            .metrics_of(scheme)
            .unwrap_or_else(|| panic!("{scheme} missing"));
        assert!(m.throughput > 0.1 && m.throughput < 3.0, "{scheme}: {m:?}");
    }
    assert_eq!(r.cc_sweep.len(), 5, "all five CC spill probabilities swept");
    let cc0 = r.cc_sweep.iter().find(|(p, _)| *p == 0.0).unwrap().1;
    let best = r.metrics_of("CC(Best)").unwrap().throughput;
    assert!(best >= cc0 - 1e-9, "CC(Best) at least as good as CC(0%)");
}

#[test]
fn snug_single_copy_invariant_after_full_run() {
    let cfg = tiny_cfg();
    let system = SystemConfig::paper();
    let combo = all_combos()[0];
    let streams: Vec<Box<dyn OpStream>> = combo
        .apps
        .iter()
        .enumerate()
        .map(|(core, b)| Box::new(b.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();
    let mut sys = SimSession::builder(system, Snug::new(system, cfg.snug))
        .streams(streams)
        .budget(50_000, 400_000)
        .build();
    sys.run_to_completion();
    assert!(
        sys.org().chassis().single_copy_invariant(),
        "a block appeared in two slices simultaneously"
    );
    assert!(
        sys.org().events().periods >= 3,
        "several sampling periods elapsed"
    );
}

#[test]
fn identical_runs_are_deterministic() {
    let cfg = tiny_cfg();
    let combo = all_combos()[5];
    let a = run_scheme(&combo, &SchemeSpec::Snug(cfg.snug), &cfg);
    let b = run_scheme(&combo, &SchemeSpec::Snug(cfg.snug), &cfg);
    assert_eq!(a, b);
}

#[test]
fn snug_outperforms_baseline_on_the_c1_stress_test() {
    // The headline mechanism: 4 identical class-A programs, takers find
    // givers only through index-bit flipping.
    // Needs eval-scale sampling periods: the quick stage lengths starve
    // the monitors, so scaled runs sample continuously to keep fidelity.
    let mut cfg = CompareConfig::default_eval();
    cfg.plan = snug_experiments::RunPlan::fixed(cfg.plan.warmup_cycles, 4_500_000);
    let combo = all_combos()
        .into_iter()
        .find(|c| c.class == ComboClass::C1)
        .unwrap();
    let base = run_scheme(&combo, &SchemeSpec::L2p, &cfg);
    let snug = run_scheme(&combo, &SchemeSpec::Snug(cfg.snug), &cfg);
    let m = MetricSet::compute(&IpcVector::new(snug.ipcs()), &IpcVector::new(base.ipcs()));
    assert!(
        m.throughput > 1.0,
        "SNUG must beat L2P on the stress test, got {:.3}",
        m.throughput
    );
    assert!(snug.l2.spills_out > 0, "taker sets spilled");
    assert!(
        snug.l2.retrieved_from_peer > 0,
        "spilled victims were retrieved"
    );
}

#[test]
fn snug_refrains_from_spilling_on_uniform_high_demand() {
    // C2: every set is a taker → no givers → SNUG stays close to L2P
    // with almost no spilling (paper: −0.2 %).
    let cfg = tiny_cfg();
    let combo = all_combos()
        .into_iter()
        .find(|c| c.class == ComboClass::C2)
        .unwrap();
    let snug = run_scheme(&combo, &SchemeSpec::Snug(cfg.snug), &cfg);
    let spill_rate = snug.l2.spills_out as f64 / snug.l2.misses.max(1) as f64;
    assert!(
        spill_rate < 0.25,
        "uniform high demand should leave few giver targets, spill rate {spill_rate:.2}"
    );
}

#[test]
fn metrics_pipeline_matches_hand_computation() {
    let base = IpcVector::new(vec![0.5, 0.5, 1.0, 1.0]);
    let scheme = IpcVector::new(vec![0.6, 0.5, 1.0, 1.2]);
    let m = MetricSet::compute(&scheme, &base);
    assert!((m.throughput - 3.3 / 3.0).abs() < 1e-12);
    assert!((m.aws - (1.2 + 1.0 + 1.0 + 1.2) / 4.0).abs() < 1e-12);
}

#[test]
fn workload_streams_respect_their_class_footprint() {
    // Integration of workloads + sim-cache: a class-D app fits its slice
    // (high L2 hit rate); a class-C app does not.
    let system = SystemConfig::paper();
    let run_single = |b: Benchmark| {
        let mut l2 = sim_cache::SetAssocCache::new(system.l2_slice);
        let mut stream = b.spec().stream(system.l2_slice, 0);
        for _ in 0..300_000 {
            let op = stream.next_op();
            let block = op.access.addr.block(64);
            l2.access(block, op.access.kind.is_write());
        }
        l2.stats().hit_ratio()
    };
    let gzip = run_single(Benchmark::Gzip);
    let mcf = run_single(Benchmark::Mcf);
    assert!(gzip > 0.95, "gzip fits: {gzip:.3}");
    assert!(mcf < 0.85, "mcf thrashes: {mcf:.3}");
    assert!(gzip > mcf + 0.15);
}
