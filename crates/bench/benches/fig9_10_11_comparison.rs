//! Figures 9–11: the five-scheme comparison (throughput, average
//! weighted speedup, fair speedup) over the Table 8 workload classes.
//!
//! Prints the reproduced per-class tables at a reduced budget (the full
//! run is `snug sweep --eval` followed by `snug report --eval`), then
//! benchmarks one (combo, scheme) simulation as the timing unit.

use criterion::{criterion_group, criterion_main, Criterion};
use snug_core::SchemeSpec;
use snug_experiments::{
    figure_table, run_combo, run_scheme, summarize, ComboResult, CompareConfig, Figure,
};
use snug_workloads::{all_combos, ComboClass};

fn print_reproduction() {
    // One combo per class at the quick budget keeps this under a minute.
    let cfg = CompareConfig::quick();
    let results: Vec<ComboResult> = ComboClass::ALL
        .iter()
        .map(|&class| all_combos().into_iter().find(|c| c.class == class).unwrap())
        .map(|combo| run_combo(&combo, &cfg))
        .collect();
    for fig in [Figure::Throughput, Figure::Aws, Figure::FairSpeedup] {
        let summary = summarize(&results, fig);
        println!("\n{}", figure_table(&summary, fig).to_markdown());
    }
    println!("(smoke subset: 1 combo/class at the quick budget; see EXPERIMENTS.md for the full 21-combo run)");
}

fn bench(c: &mut Criterion) {
    print_reproduction();
    let mut cfg = CompareConfig::quick();
    cfg.plan = snug_experiments::RunPlan::fixed(30_000, 150_000);
    let combo = all_combos()[0];
    let mut g = c.benchmark_group("fig9_10_11");
    g.sample_size(10);
    for (name, spec) in [
        ("l2p", SchemeSpec::L2p),
        ("snug", SchemeSpec::Snug(cfg.snug)),
        ("dsr", SchemeSpec::Dsr(cfg.dsr)),
        (
            "cc100",
            SchemeSpec::Cc {
                spill_probability: 1.0,
            },
        ),
    ] {
        g.bench_function(format!("simulate_c1_{name}"), |b| {
            b.iter(|| run_scheme(&combo, &spec, &cfg));
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
