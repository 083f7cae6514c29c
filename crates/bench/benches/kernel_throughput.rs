//! Kernel throughput trajectory: how fast the simulator simulates.
//!
//! Times each (combo, scheme) point of [`snug_bench::definition`] and
//! reports simulated cycles/s and retired instructions/s per wall-clock
//! second. The numbers live in the committed `BENCH_kernel.json` at the
//! repository root so the throughput trajectory is tracked in CI:
//!
//! ```text
//! cargo bench -p snug-bench --bench kernel_throughput            # measure + print
//! cargo bench -p snug-bench --bench kernel_throughput -- --emit  # regenerate BENCH_kernel.json
//! cargo bench -p snug-bench --bench kernel_throughput -- --check # CI gate
//! ```
//!
//! `--check` fails when the committed file is missing, when its
//! fingerprint no longer matches the measurement definition (budget,
//! combos, schemes or scheme parameters changed without regenerating),
//! when the deterministic work counts drifted (the same definition now
//! simulates different cycles/instructions — a behaviour change that
//! must be re-baselined deliberately), or when freshly measured ops/s
//! fall below the committed trajectory: any single entry by more than
//! [`ENTRY_TOLERANCE`], or the geomean across all entries by more than
//! [`GEOMEAN_TOLERANCE`]. The geomean floor is the primary gate — noise
//! on one (combo, scheme) point averages out across the fifteen-entry
//! grid, so it can be held much tighter than any per-entry bound. A
//! `--test` run (what `cargo test --benches` passes) takes a single
//! sample and never touches the file, so it cannot flake on machine
//! speed.

use snug_bench::{
    definition, fingerprint, geomean_ops, load, render, retired_instructions, BenchEntry, BUDGET,
    COMMITTED,
};
use std::path::Path;
use std::time::Instant;

/// Allowed fractional ops/s drop on a single entry before `--check`
/// fails. Loose: a lone (combo, scheme) point is exposed to scheduler
/// noise even best-of-[`SAMPLES`], so this only catches a scheme whose
/// hot path fell off a cliff.
const ENTRY_TOLERANCE: f64 = 0.25;
/// Allowed fractional drop of the geomean ops/s across all entries.
/// Tight: per-point noise averages out over the full grid, so the
/// geomean is the number the trajectory is really gated on.
const GEOMEAN_TOLERANCE: f64 = 0.10;
/// Timed samples per point (best-of, to shed scheduler noise).
const SAMPLES: usize = 3;

/// Measure every point of the definition, best-of-`samples`.
fn measure(samples: usize) -> Vec<BenchEntry> {
    let (cfg, points) = definition();
    let sim_cycles = cfg.plan.horizon();
    points
        .iter()
        .map(|(combo, spec)| {
            let mut best_nanos = u64::MAX;
            let mut instructions = 0u64;
            for _ in 0..samples {
                let started = Instant::now();
                instructions = retired_instructions(combo, spec, &cfg);
                best_nanos = best_nanos.min(started.elapsed().as_nanos().max(1) as u64);
            }
            let secs = best_nanos as f64 / 1e9;
            let entry = BenchEntry {
                combo: combo.label(),
                scheme: spec.to_string(),
                sim_cycles,
                instructions,
                cycles_per_sec: sim_cycles as f64 / secs,
                ops_per_sec: instructions as f64 / secs,
            };
            println!(
                "bench kernel_throughput/{:<32} {:>10.2} Mcyc/s {:>10.2} Mops/s",
                format!("{}_{}", entry.scheme.to_lowercase(), entry.combo),
                entry.cycles_per_sec / 1e6,
                entry.ops_per_sec / 1e6,
            );
            entry
        })
        .collect()
}

fn check(path: &Path) -> Result<(), String> {
    let (committed_fp, committed) = load(path)?;
    let (cfg, points) = definition();
    let current_fp = fingerprint(&cfg, &points);
    if committed_fp != current_fp {
        return Err(format!(
            "{} is stale: fingerprint {committed_fp} no longer matches the measurement \
             definition ({current_fp}) — regenerate with `--emit` and commit the result",
            path.display()
        ));
    }
    let fresh = measure(SAMPLES);
    for want in &committed {
        let got = fresh
            .iter()
            .find(|e| e.combo == want.combo && e.scheme == want.scheme)
            .ok_or_else(|| {
                format!(
                    "committed entry {} [{}] is not in the measurement definition — \
                     regenerate with `--emit`",
                    want.combo, want.scheme
                )
            })?;
        if got.sim_cycles != want.sim_cycles || got.instructions != want.instructions {
            return Err(format!(
                "{} [{}]: deterministic work drifted (committed {} cycles / {} instructions, \
                 measured {} / {}) — a behaviour change; re-baseline with `--emit` if intended",
                want.combo,
                want.scheme,
                want.sim_cycles,
                want.instructions,
                got.sim_cycles,
                got.instructions
            ));
        }
        let floor = want.ops_per_sec * (1.0 - ENTRY_TOLERANCE);
        if got.ops_per_sec < floor {
            return Err(format!(
                "{} [{}]: throughput regression — measured {:.2} Mops/s is more than \
                 {:.0}% below the committed {:.2} Mops/s",
                want.combo,
                want.scheme,
                got.ops_per_sec / 1e6,
                ENTRY_TOLERANCE * 100.0,
                want.ops_per_sec / 1e6
            ));
        }
        println!(
            "check kernel_throughput/{:<32} committed {:>8.2} Mops/s, measured {:>8.2} Mops/s",
            format!("{}_{}", want.scheme.to_lowercase(), want.combo),
            want.ops_per_sec / 1e6,
            got.ops_per_sec / 1e6,
        );
    }
    let committed_geo = geomean_ops(&committed);
    let fresh_geo = geomean_ops(&fresh);
    if fresh_geo < committed_geo * (1.0 - GEOMEAN_TOLERANCE) {
        return Err(format!(
            "geomean throughput regression — measured {:.2} Mops/s is more than {:.0}% below \
             the committed {:.2} Mops/s floor",
            fresh_geo / 1e6,
            GEOMEAN_TOLERANCE * 100.0,
            committed_geo / 1e6
        ));
    }
    println!(
        "BENCH_kernel trajectory holds: {} entries (each within {:.0}% of committed ops/s), \
         geomean {:.2} Mops/s vs committed {:.2} Mops/s (floor -{:.0}%)",
        committed.len(),
        ENTRY_TOLERANCE * 100.0,
        fresh_geo / 1e6,
        committed_geo / 1e6,
        GEOMEAN_TOLERANCE * 100.0
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo test --benches` invokes bench binaries with `--test`: take
    // one sample and never touch or gate on the committed file.
    if args.iter().any(|a| a == "--test") {
        measure(1);
        return;
    }
    let path = Path::new(COMMITTED);
    let outcome = if args.iter().any(|a| a == "--emit") {
        let entries = measure(SAMPLES);
        render(&entries)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
            })
            .map(|()| {
                println!(
                    "wrote {} ({} entries, budget {}, geomean {:.2} Mops/s)",
                    path.display(),
                    entries.len(),
                    BUDGET.label(),
                    geomean_ops(&entries) / 1e6
                );
            })
    } else if args.iter().any(|a| a == "--check") {
        check(path)
    } else {
        measure(SAMPLES);
        Ok(())
    };
    if let Err(msg) = outcome {
        eprintln!("kernel_throughput: {msg}");
        std::process::exit(1);
    }
}
