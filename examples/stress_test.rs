//! Reproduce the C1 stress test in isolation: four identical copies of a
//! class-A application (set-level non-uniform demand, no data sharing).
//!
//! This is the case where SNUG's index-bit flipping is the *only* way to
//! find givers — every cache has the same taker sets at the same
//! indices, so same-index grouping (Fig. 8 case 1) never matches.
//! Compare the flipping-enabled and flipping-disabled variants to see
//! the mechanism carrying the entire gain.
//!
//! ```sh
//! cargo run --release --example stress_test            # ammp
//! cargo run --release --example stress_test -- parser
//! ```

use sim_cmp::{SimSession, SystemConfig};
use sim_mem::OpStream;
use snug_core::{SchemeSpec, Snug, SnugConfig};
use snug_experiments::{CompareConfig, RunPlan};
use snug_metrics::{IpcVector, MetricSet};
use snug_workloads::Benchmark;

fn run(bench: Benchmark, spec: &SchemeSpec, plan: &RunPlan) -> Vec<f64> {
    let system = SystemConfig::paper();
    let streams: Vec<Box<dyn OpStream>> = (0..4)
        .map(|core| Box::new(bench.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();
    SimSession::builder(system, spec.build_any(system))
        .streams(streams)
        .budget(plan.warmup_cycles, plan.measure_cycles())
        .build()
        .run_to_completion()
        .ipcs()
}

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "ammp".into());
    let bench = Benchmark::from_name(&name).expect("unknown benchmark");
    assert_eq!(
        bench.class(),
        snug_workloads::AppClass::A,
        "C1 stress tests use class-A applications"
    );
    let plan = CompareConfig::default_eval_plan();
    println!(
        "C1 stress test: 4 × {} (class A), {} measured cycles\n",
        name,
        plan.measure_cycles()
    );

    let base = IpcVector::new(run(bench, &SchemeSpec::L2p, &plan));
    println!("L2P baseline throughput: {:.3}", base.throughput());

    let mut snug_on = SnugConfig::scaled(100);
    snug_on.flipping = true;
    let mut snug_off = snug_on;
    snug_off.flipping = false;

    for (label, spec) in [
        (
            "CC(100%)",
            SchemeSpec::Cc {
                spill_probability: 1.0,
            },
        ),
        ("DSR", SchemeSpec::Dsr(snug_core::DsrConfig::paper())),
        ("SNUG (flipping ON)", SchemeSpec::Snug(snug_on)),
        ("SNUG (flipping OFF)", SchemeSpec::Snug(snug_off)),
    ] {
        let ipcs = IpcVector::new(run(bench, &spec, &plan));
        let m = MetricSet::compute(&ipcs, &base);
        println!(
            "{label:<20} throughput {:.3}  ({:+.1} %)   AWS {:.3}   FS {:.3}",
            m.throughput,
            (m.throughput - 1.0) * 100.0,
            m.aws,
            m.fair
        );
    }

    // Show the flipping machinery directly.
    let system = SystemConfig::paper();
    let streams: Vec<Box<dyn OpStream>> = (0..4)
        .map(|core| Box::new(bench.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();
    let mut sys = SimSession::builder(system, Snug::new(system, snug_on))
        .streams(streams)
        .budget(plan.warmup_cycles, plan.measure_cycles())
        .build();
    sys.run_to_completion();
    let ev = sys.org().events();
    println!("\nSNUG spill placement in the stress test:");
    println!("  same-index spills : {}", ev.spills_same_index);
    println!("  flipped spills    : {}", ev.spills_flipped);
    println!("  unplaced          : {}", ev.spills_unplaced);
    println!("(same-index spills are rare by construction: every cache has the");
    println!(" same taker sets, so only the flipped neighbour can be a giver)");
    println!("\ncounter summary: {}", sys.counters().summary());
}
