//! Quickstart: build a quad-core CMP with a SNUG L2, run a mixed
//! workload, and print what the cache organisation did.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use sim_cmp::{SimSession, SystemConfig};
use sim_mem::OpStream;
use snug_core::{Snug, SnugConfig};
use snug_workloads::Benchmark;

fn main() {
    // The paper's Table 4 platform.
    let system = SystemConfig::paper();

    // SNUG with the paper's monitor parameters; sampling periods scaled
    // down 100× (we run millions, not billions, of cycles).
    let snug = Snug::new(system, SnugConfig::scaled(100));

    // A C4-style mix: two set-level non-uniform apps (class A), one
    // class-B and one class-C app (paper Table 8).
    let apps = [
        Benchmark::Ammp,
        Benchmark::Parser,
        Benchmark::Apsi,
        Benchmark::Bzip2,
    ];
    let streams: Vec<Box<dyn OpStream>> = apps
        .iter()
        .enumerate()
        .map(|(core, b)| Box::new(b.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();

    let mut sys = SimSession::builder(system, snug)
        .streams(streams)
        .budget(500_000, 4_200_000)
        .build();
    println!("running 4.2M cycles on the SNUG quad-core...");
    let result = sys.run_to_completion();

    println!("\nper-core results:");
    for (i, core) in result.cores.iter().enumerate() {
        println!(
            "  core {i}: {:8} [{:<7}] IPC {:.3}  ({} instrs / {} cycles)",
            core.label,
            apps[i].class_name(),
            core.ipc,
            core.instructions,
            core.cycles
        );
    }
    println!("\nthroughput (sum of IPCs): {:.3}", result.throughput());

    let l2 = &result.l2;
    println!("\naggregate L2 behaviour:");
    println!("  demand accesses : {}", l2.accesses());
    println!("  hit ratio       : {:.1} %", l2.hit_ratio() * 100.0);
    println!("  spills out      : {}", l2.spills_out);
    println!("  peer retrievals : {}", l2.retrieved_from_peer);
    println!("  shadow hits     : {}", l2.shadow_hits);

    let snug = sys.org();
    let ev = snug.events();
    println!("\nSNUG events:");
    println!("  sampling periods     : {}", ev.periods);
    println!("  spills (same index)  : {}", ev.spills_same_index);
    println!("  spills (flipped bit) : {}", ev.spills_flipped);
    println!("  spills unplaced      : {}", ev.spills_unplaced);
    for core in 0..4 {
        println!(
            "  core {core} G/T vector   : {} taker sets / {}",
            snug.gt(core).taker_count(),
            snug.gt(core).len()
        );
    }
}

/// Small display helper for the quickstart output.
trait ClassName {
    fn class_name(&self) -> &'static str;
}

impl ClassName for Benchmark {
    fn class_name(&self) -> &'static str {
        match self.class() {
            snug_workloads::AppClass::A => "class A",
            snug_workloads::AppClass::B => "class B",
            snug_workloads::AppClass::C => "class C",
            snug_workloads::AppClass::D => "class D",
            snug_workloads::AppClass::Streaming => "stream",
        }
    }
}
