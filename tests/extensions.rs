//! Integration tests for the beyond-paper extensions and the trace
//! capture/replay plumbing.

use sim_cmp::{L2Org, SimSession, SystemConfig};
use sim_mem::{Geometry, OpStream, Trace, VecStream};
use snug_core::{Cc, DsrConfig, SchemeSpec, Snug, SnugConfig};
use snug_workloads::Benchmark;

/// Capture a synthetic stream into a trace and replay it: the system
/// must behave identically on the generator and on the recorded trace.
#[test]
fn trace_replay_reproduces_generator_run() {
    let system = SystemConfig::paper();
    let bench = Benchmark::Apsi;

    // Record each core's op stream.
    let mut traces = Vec::new();
    for core in 0..4 {
        let mut stream = bench.spec().stream(system.l2_slice, core);
        let mut t = Trace::new();
        for _ in 0..120_000 {
            t.push(stream.next_op());
        }
        // Round-trip through the binary framing as well.
        traces.push(Trace::from_bytes(t.to_bytes()).expect("decode"));
    }

    let run = |streams: Vec<Box<dyn OpStream>>| {
        SimSession::builder(system, Snug::new(system, SnugConfig::scaled(500)))
            .streams(streams)
            .budget(30_000, 200_000)
            .build()
            .run_to_completion()
    };

    let live: Vec<Box<dyn OpStream>> = (0..4)
        .map(|core| Box::new(bench.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();
    let replayed: Vec<Box<dyn OpStream>> = traces
        .iter()
        .map(|t| Box::new(VecStream::cycle("apsi", t.ops.clone())) as Box<dyn OpStream>)
        .collect();

    let a = run(live);
    let b = run(replayed);
    assert_eq!(a.l2, b.l2, "identical L2 behaviour from trace replay");
    for (x, y) in a.cores.iter().zip(&b.cores) {
        assert_eq!(x.instructions, y.instructions);
        assert_eq!(x.cycles, y.cycles);
    }
}

/// The whole stack is generic over core count: an 8-core system with
/// SNUG runs and keeps the single-copy invariant.
#[test]
fn eight_core_system_works() {
    let mut cfg = SystemConfig::paper();
    cfg.num_cores = 8;
    let mut snug_cfg = SnugConfig::scaled(500);
    snug_cfg.stage1_cycles = 60_000;
    snug_cfg.stage2_cycles = 300_000;
    let streams: Vec<Box<dyn OpStream>> = (0..8)
        .map(|core| {
            let b = if core % 2 == 0 {
                Benchmark::Ammp
            } else {
                Benchmark::Gzip
            };
            Box::new(b.spec().stream(cfg.l2_slice, core)) as Box<dyn OpStream>
        })
        .collect();
    let mut sys = SimSession::builder(cfg, Snug::new(cfg, snug_cfg))
        .streams(streams)
        .budget(300_000, 1_200_000)
        .build();
    let r = sys.run_to_completion();
    assert_eq!(r.cores.len(), 8);
    assert!(r.cores.iter().all(|c| c.ipc > 0.0));
    assert!(sys.org().chassis().single_copy_invariant());
    assert!(r.l2.spills_out > 0, "8-core SNUG cooperates too");
}

/// N-chance CC keeps more victims on chip than 1-chance under receiver
/// pressure, and never breaks the single-copy invariant.
#[test]
fn n_chance_cc_extends_victim_lifetimes() {
    let system = SystemConfig::paper();
    let run = |chances: u32| {
        let streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|core| {
                Box::new(Benchmark::Ammp.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>
            })
            .collect();
        let mut sys = SimSession::builder(system, Cc::with_chances(system, 1.0, chances))
            .streams(streams)
            .budget(300_000, 1_200_000)
            .build();
        let r = sys.run_to_completion();
        assert!(sys.org().chassis().single_copy_invariant());
        r.l2
    };
    let one = run(1);
    let three = run(3);
    assert!(
        one.spills_out > 100,
        "the stress test spills: {}",
        one.spills_out
    );
    assert!(
        three.spills_out > one.spills_out,
        "re-spills add spill traffic: {} vs {}",
        three.spills_out,
        one.spills_out
    );
}

/// Wider flip widths can only increase SNUG's placed-spill count on the
/// stress test (more candidate givers per spill).
#[test]
fn wider_flipping_places_at_least_as_many_spills() {
    let system = SystemConfig::paper();
    let run = |width: u32| {
        let mut cfg = SnugConfig::scaled(500);
        cfg.flip_width = width;
        let streams: Vec<Box<dyn OpStream>> = (0..4)
            .map(|core| {
                Box::new(Benchmark::Ammp.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>
            })
            .collect();
        let mut sys = SimSession::builder(system, Snug::new(system, cfg))
            .streams(streams)
            .budget(300_000, 1_200_000)
            .build();
        let r = sys.run_to_completion();
        assert!(sys.org().chassis().single_copy_invariant());
        (r.l2.spills_out, sys.org().events().spills_unplaced)
    };
    let (placed1, unplaced1) = run(1);
    let (placed3, unplaced3) = run(3);
    assert!(
        placed3 + 50 >= placed1,
        "width 3 places no fewer spills: {placed3} vs {placed1}"
    );
    assert!(
        unplaced3 <= unplaced1,
        "width 3 leaves no more spills unplaced: {unplaced3} vs {unplaced1}"
    );
}

/// The factory covers every organisation and their names are stable —
/// downstream tables key on them.
#[test]
fn factory_names_are_table_keys() {
    let cfg = SystemConfig::tiny_test();
    for (spec, name) in [
        (SchemeSpec::L2p, "L2P"),
        (SchemeSpec::L2s, "L2S"),
        (SchemeSpec::Dsr(DsrConfig::tiny()), "DSR"),
        (SchemeSpec::Snug(SnugConfig::scaled(1000)), "SNUG"),
    ] {
        assert_eq!(spec.build_any(cfg).name(), name);
    }
}

/// Geometry plumbing: streams built for a non-paper geometry stay within
/// its set space (the generator is not hard-coded to 1024 sets).
#[test]
fn streams_adapt_to_geometry() {
    let geo = Geometry::new(64, 256, 8);
    let mut s = Benchmark::Vpr.spec().stream(geo, 0);
    for _ in 0..10_000 {
        let op = s.next_op();
        let set = geo.set_index(op.access.addr.block(64));
        assert!(set < 256);
    }
}
