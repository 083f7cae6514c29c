//! The kernel bench's deterministic half, checked on every `cargo test`:
//! the measurement definition still fingerprints as the committed
//! `BENCH_kernel.json` says, each of its points still simulates the
//! committed cycles and retires the committed instructions, and the
//! file reads and re-renders to its own bytes. Throughput is left to
//! the bench's `--check`, whose floors depend on the host.

use snug_bench::{
    definition, fingerprint, load, render, retired_instructions, BenchEntry, COMMITTED,
};
use std::path::Path;

fn committed() -> (String, Vec<BenchEntry>) {
    load(Path::new(COMMITTED)).unwrap()
}

/// A changed budget, combo, scheme or scheme parameter stales the file.
#[test]
fn the_definition_fingerprints_as_committed() {
    let (cfg, points) = definition();
    assert_eq!(fingerprint(&cfg, &points), committed().0);
}

/// A change to what the kernel retires shows as drift here, whatever
/// the host's speed.
#[test]
fn every_point_does_the_committed_work() {
    let (cfg, points) = definition();
    let entries = committed().1;
    assert_eq!(points.len(), entries.len(), "one entry per point");
    for ((combo, spec), want) in points.iter().zip(&entries) {
        let what = format!("{} [{}]", want.combo, want.scheme);
        assert_eq!(
            (combo.label(), spec.to_string()),
            (want.combo.clone(), want.scheme.clone())
        );
        assert_eq!(
            cfg.plan.horizon(),
            want.sim_cycles,
            "{what}: simulated cycles"
        );
        assert_eq!(
            retired_instructions(combo, spec, &cfg),
            want.instructions,
            "{what}: retired instructions"
        );
    }
}

/// The file decodes and re-renders to its committed bytes, geomean
/// included: every member name, number spelling and the member order
/// are as the file was written.
#[test]
fn the_committed_file_re_renders_byte_for_byte() {
    let text = std::fs::read_to_string(COMMITTED).unwrap();
    assert_eq!(render(&committed().1).unwrap(), text);
}
