//! Kernel throughput trajectory: how fast the simulator simulates.
//!
//! Times one (combo, scheme) simulation for a representative combo of
//! three workload classes under the private baseline and SNUG at the
//! `--quick` budget, and reports simulated cycles/s and retired
//! instructions/s per wall-clock second. The numbers live in the
//! committed `BENCH_kernel.json` at the repository root so the
//! throughput trajectory is tracked in CI:
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

use snug_core::SchemeSpec;
use snug_experiments::run_scheme;
use snug_harness::hash::content_key;
use snug_harness::json::{parse, Value};
use snug_harness::BudgetPreset;
use snug_workloads::{all_combos, ComboClass};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of `BENCH_kernel.json`.
const SCHEMA: &str = "snug-bench/v1";
/// Budget preset the trajectory is defined over.
const BUDGET: BudgetPreset = BudgetPreset::Quick;
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

/// One measured (combo, scheme) point of the trajectory.
struct BenchEntry {
    combo: String,
    scheme: String,
    /// Simulated cycles per run (warm-up + measured window) — a pure
    /// function of the definition, committed as a drift tripwire.
    sim_cycles: u64,
    /// Instructions retired over the measured window — deterministic
    /// for the same reason.
    instructions: u64,
    /// Simulated cycles per wall-clock second (best sample).
    cycles_per_sec: f64,
    /// Retired instructions per wall-clock second (best sample).
    ops_per_sec: f64,
}

impl BenchEntry {
    fn to_json(&self) -> Value {
        Value::obj(vec![
            ("combo", Value::str(&self.combo)),
            ("scheme", Value::str(&self.scheme)),
            ("sim_cycles", Value::num(self.sim_cycles as f64)),
            ("instructions", Value::num(self.instructions as f64)),
            ("cycles_per_sec", Value::num(self.cycles_per_sec)),
            ("ops_per_sec", Value::num(self.ops_per_sec)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let num = |name: &str| -> Result<f64, String> {
            v.get(name)
                .and_then(|x| x.as_num())
                .map_err(|e| format!("entry field `{name}`: {e}"))
        };
        let text = |name: &str| -> Result<String, String> {
            v.get(name)
                .and_then(|x| x.as_str().map(str::to_string))
                .map_err(|e| format!("entry field `{name}`: {e}"))
        };
        Ok(BenchEntry {
            combo: text("combo")?,
            scheme: text("scheme")?,
            sim_cycles: num("sim_cycles")? as u64,
            instructions: num("instructions")? as u64,
            cycles_per_sec: num("cycles_per_sec")?,
            ops_per_sec: num("ops_per_sec")?,
        })
    }
}

/// The measurement definition: representative combos (first of three
/// spread-out classes) × all five paper schemes at the quick budget.
/// CC runs at 100% spill probability — the point of the §4.1 sweep that
/// exercises the spill/retrieve machinery hardest.
fn definition() -> (snug_experiments::CompareConfig, Vec<(String, SchemeSpec)>) {
    let cfg = BUDGET.compare_config();
    let combos = [ComboClass::C1, ComboClass::C3, ComboClass::C5].map(|class| {
        all_combos()
            .into_iter()
            .find(|c| c.class == class)
            .expect("every class has combos")
    });
    let mut points = Vec::new();
    for combo in &combos {
        for spec in [
            SchemeSpec::L2p,
            SchemeSpec::L2s,
            SchemeSpec::Cc {
                spill_probability: 1.0,
            },
            SchemeSpec::Dsr(cfg.dsr),
            SchemeSpec::Snug(cfg.snug),
        ] {
            points.push((combo.label(), spec));
        }
    }
    (cfg, points)
}

/// Geometric mean of ops/s across entries — the single scalar the
/// trajectory is tracked by.
fn geomean_ops(entries: &[BenchEntry]) -> f64 {
    let log_sum: f64 = entries.iter().map(|e| e.ops_per_sec.ln()).sum();
    (log_sum / entries.len().max(1) as f64).exp()
}

/// Fingerprint of everything that defines the trajectory: schema,
/// budget, the full compare configuration (scheme parameters included)
/// and the measured points. Changing any of it stales the committed
/// file until `--emit` re-baselines.
fn fingerprint(cfg: &snug_experiments::CompareConfig, points: &[(String, SchemeSpec)]) -> String {
    let points_desc: Vec<String> = points
        .iter()
        .map(|(combo, spec)| format!("{combo}/{spec}"))
        .collect();
    content_key(&format!(
        "{SCHEMA}|{}|{cfg:?}|{}",
        BUDGET.label(),
        points_desc.join(",")
    ))
    .to_string()
}

/// Measure every point of the definition, best-of-`samples`.
fn measure(samples: usize) -> Vec<BenchEntry> {
    let (cfg, points) = definition();
    let all = all_combos();
    let sim_cycles = cfg.plan.horizon();
    points
        .iter()
        .map(|(combo_label, spec)| {
            let combo = all
                .iter()
                .find(|c| c.label() == *combo_label)
                .expect("definition combos exist");
            let mut best_nanos = u64::MAX;
            let mut instructions = 0u64;
            for _ in 0..samples {
                let started = Instant::now();
                let result = run_scheme(combo, spec, &cfg);
                best_nanos = best_nanos.min(started.elapsed().as_nanos().max(1) as u64);
                instructions = result.cores.iter().map(|c| c.instructions).sum();
            }
            let secs = best_nanos as f64 / 1e9;
            let entry = BenchEntry {
                combo: combo_label.clone(),
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

fn render(entries: &[BenchEntry]) -> String {
    let (cfg, points) = definition();
    let doc = Value::obj(vec![
        ("schema", Value::str(SCHEMA)),
        ("budget", Value::str(BUDGET.label())),
        ("fingerprint", Value::str(fingerprint(&cfg, &points))),
        // Informational; `--check` recomputes the geomean from the
        // entries rather than trusting this field.
        ("geomean_ops_per_sec", Value::num(geomean_ops(entries))),
        (
            "entries",
            Value::Arr(entries.iter().map(BenchEntry::to_json).collect()),
        ),
    ]);
    format!("{}\n", doc.render().expect("bench figures are finite"))
}

fn load(path: &Path) -> Result<(String, Vec<BenchEntry>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "{} is missing or unreadable ({e}) — run `cargo bench -p snug-bench --bench \
             kernel_throughput -- --emit` and commit the result",
            path.display()
        )
    })?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let schema = doc
        .get("schema")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if schema != SCHEMA {
        return Err(format!(
            "{}: schema `{schema}` (expected `{SCHEMA}`)",
            path.display()
        ));
    }
    let fp = doc
        .get("fingerprint")
        .and_then(|v| v.as_str().map(str::to_string))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_arr().map(<[Value]>::to_vec))
        .map_err(|e| format!("{}: {e}", path.display()))?
        .iter()
        .map(BenchEntry::from_json)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((fp, entries))
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

fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernel.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo test --benches` invokes bench binaries with `--test`: take
    // one sample and never touch or gate on the committed file.
    if args.iter().any(|a| a == "--test") {
        measure(1);
        return;
    }
    let path = default_path();
    let outcome = if args.iter().any(|a| a == "--emit") {
        let entries = measure(SAMPLES);
        std::fs::write(&path, render(&entries))
            .map_err(|e| format!("writing {}: {e}", path.display()))
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
        check(&path)
    } else {
        measure(SAMPLES);
        Ok(())
    };
    if let Err(msg) = outcome {
        eprintln!("kernel_throughput: {msg}");
        std::process::exit(1);
    }
}
