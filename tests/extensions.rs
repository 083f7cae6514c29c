//! Integration tests for the beyond-paper extensions and the shared
//! front-end replay plumbing.

use sim_cmp::{Checkpoints, L2Org, SharedFront, SimSession, SystemConfig};
use sim_mem::{Geometry, OpStream};
use snug_core::{DsrConfig, SchemeSpec, Snug, SnugConfig};
use snug_workloads::Benchmark;
use std::sync::Arc;

/// Generate a combo's front ends once into shared record files and
/// replay them: the system must behave identically on the live
/// generators and on the shared front end, which the first session
/// extends on demand and a second session re-reads.
#[test]
fn trace_replay_reproduces_generator_run() {
    let system = SystemConfig::paper();
    let bench = Benchmark::Apsi;
    let dir = std::env::temp_dir().join(format!("snug-front-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let l2 = system.l2_slice;
    let front = SharedFront::create(
        &dir,
        "apsi",
        4,
        move |core| Box::new(bench.spec().stream(l2, core)),
        system.l1,
        Checkpoints::Latest,
    );
    let front = Arc::new(front.unwrap());

    let build = || {
        SimSession::builder(system, Snug::new(system, SnugConfig::scaled(500)))
            .budget(30_000, 200_000)
    };
    let live: Vec<Box<dyn OpStream>> = (0..4)
        .map(|core| Box::new(bench.spec().stream(system.l2_slice, core)) as Box<dyn OpStream>)
        .collect();
    let a = build().streams(live).build().run_to_completion();
    let b = build()
        .shared_front(front.clone())
        .build()
        .run_to_completion();
    let c = build()
        .shared_front(front.clone())
        .build()
        .run_to_completion();
    assert_eq!(a, b, "identical run from the shared front end");
    assert_eq!(b, c, "identical re-read of the extended files");
    let paths: Vec<_> = front
        .paths()
        .chain(front.checkpoint_paths())
        .map(|p| p.to_path_buf())
        .collect();
    assert!(paths
        .iter()
        .all(|p| std::fs::metadata(p).unwrap().len() > 0));
    drop(front);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "files deleted");
    std::fs::remove_dir(&dir).unwrap();
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
