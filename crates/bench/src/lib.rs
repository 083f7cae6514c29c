//! # snug-bench — the kernel throughput trajectory
//!
//! What the bench `benches/kernel_throughput.rs`, which measures and
//! gates the committed `BENCH_kernel.json` (`cargo bench -p snug-bench
//! --bench kernel_throughput -- --emit|--check`), shares with
//! `tests/work_counts.rs`, which checks the file's deterministic half
//! on every `cargo test`: the measurement definition, its fingerprint,
//! one point's retired work and the file's reader.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

use snug_core::SchemeSpec;
use snug_experiments::{run_scheme, CompareConfig};
use snug_harness::hash::content_key;
use snug_harness::json::{parse, Value};
use snug_harness::{config_key_text, BudgetPreset};
use snug_workloads::{all_combos, Combo, ComboClass};
use std::path::Path;

/// Schema tag of `BENCH_kernel.json`.
pub const SCHEMA: &str = "snug-bench/v1";
/// Budget preset the trajectory is defined over.
pub const BUDGET: BudgetPreset = BudgetPreset::Quick;
/// The committed `BENCH_kernel.json` at the repository root.
pub const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");

/// One measured (combo, scheme) point of the trajectory.
pub struct BenchEntry {
    /// The combo's label.
    pub combo: String,
    /// The scheme's display name.
    pub scheme: String,
    /// Simulated cycles per run (warm-up + measured window) — a pure
    /// function of the definition, committed as a drift tripwire.
    pub sim_cycles: u64,
    /// Instructions retired over the measured window — deterministic
    /// for the same reason.
    pub instructions: u64,
    /// Simulated cycles per wall-clock second (best sample).
    pub cycles_per_sec: f64,
    /// Retired instructions per wall-clock second (best sample).
    pub ops_per_sec: f64,
}

impl BenchEntry {
    /// The entry as one element of the file's `entries` array.
    pub fn to_json(&self) -> Value {
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
pub fn definition() -> (CompareConfig, Vec<(Combo, SchemeSpec)>) {
    let cfg = BUDGET.compare_config();
    let combos = [ComboClass::C1, ComboClass::C3, ComboClass::C5]
        .into_iter()
        .filter_map(|class| all_combos().into_iter().find(|c| c.class == class));
    let mut points = Vec::new();
    for combo in combos {
        for spec in [
            SchemeSpec::L2p,
            SchemeSpec::L2s,
            SchemeSpec::Cc {
                spill_probability: 1.0,
            },
            SchemeSpec::Dsr(cfg.dsr),
            SchemeSpec::Snug(cfg.snug),
        ] {
            points.push((combo, spec));
        }
    }
    (cfg, points)
}

/// Fingerprint of everything that defines the trajectory: schema,
/// budget, the full compare configuration (scheme parameters included,
/// through the harness's key text) and the measured points. Changing
/// any of it stales the committed file until `--emit` re-baselines.
pub fn fingerprint(cfg: &CompareConfig, points: &[(Combo, SchemeSpec)]) -> String {
    let points_desc: Vec<String> = points
        .iter()
        .map(|(combo, spec)| format!("{}/{spec}", combo.label()))
        .collect();
    content_key(&format!(
        "{SCHEMA}|{}|{}|{}",
        BUDGET.label(),
        config_key_text(cfg),
        points_desc.join(",")
    ))
    .to_string()
}

/// Instructions retired over the measured window by one simulation of
/// `spec` on `combo`.
pub fn retired_instructions(combo: &Combo, spec: &SchemeSpec, cfg: &CompareConfig) -> u64 {
    run_scheme(combo, spec, cfg)
        .cores
        .iter()
        .map(|c| c.instructions)
        .sum()
}

/// Read a bench file: its fingerprint and entries.
pub fn load(path: &Path) -> Result<(String, Vec<BenchEntry>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "{} is missing or unreadable ({e}) — run `cargo bench -p snug-bench --bench \
             kernel_throughput -- --emit` and commit the result",
            path.display()
        )
    })?;
    let read = || -> Result<(String, Vec<BenchEntry>), String> {
        let doc = parse(&text).map_err(|e| e.to_string())?;
        let str_field = |name| -> Result<String, String> {
            let field = doc.get(name).and_then(|v| v.as_str());
            field.map(str::to_string).map_err(|e| e.to_string())
        };
        let schema = str_field("schema")?;
        if schema != SCHEMA {
            return Err(format!("schema `{schema}` (expected `{SCHEMA}`)"));
        }
        let entries = doc.get("entries").and_then(|v| v.as_arr());
        let entries = entries.map_err(|e| e.to_string())?.iter();
        Ok((
            str_field("fingerprint")?,
            entries
                .map(BenchEntry::from_json)
                .collect::<Result<_, _>>()?,
        ))
    };
    read().map_err(|e| format!("{}: {e}", path.display()))
}
