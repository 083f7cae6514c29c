//! # snug-bench — the kernel throughput trajectory
//!
//! What the bench `benches/kernel_throughput.rs`, which measures and
//! gates the committed `BENCH_kernel.json` (`cargo bench -p snug-bench
//! --bench kernel_throughput -- --emit|--check`), shares with
//! `tests/work_counts.rs`, which checks the file's deterministic half
//! on every `cargo test`: the measurement definition, its fingerprint,
//! one point's retired work, and the file's writer and reader.

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
use snug_harness::{
    config_key_text, content_key, read_required, read_u64, read_vec, BudgetPreset, JsonError,
    JsonReader, JsonWriter,
};
use snug_workloads::{all_combos, Combo, ComboClass};
use std::path::Path;

/// Schema tag of `BENCH_kernel.json`.
pub(crate) const SCHEMA: &str = "snug-bench/v1";
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
    /// Write the entry as one element of the file's `entries` array.
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        let BenchEntry {
            combo,
            scheme,
            sim_cycles,
            instructions,
            cycles_per_sec,
            ops_per_sec,
        } = self;
        w.object(|o| {
            o.member("combo", |w| w.str(combo))?;
            o.member("cycles_per_sec", |w| w.num(*cycles_per_sec))?;
            o.member("instructions", |w| w.int(*instructions))?;
            o.member("ops_per_sec", |w| w.num(*ops_per_sec))?;
            o.member("scheme", |w| w.str(scheme))?;
            o.member("sim_cycles", |w| w.int(*sim_cycles))
        })
    }

    /// Read one element of the file's `entries` array.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut combo, mut scheme, mut sim_cycles, mut instructions) = (None, None, None, None);
        let (mut cycles_per_sec, mut ops_per_sec) = (None, None);
        r.object(|r, name| {
            match name {
                "combo" => combo = Some(r.str()?.into_owned()),
                "scheme" => scheme = Some(r.str()?.into_owned()),
                "sim_cycles" => sim_cycles = Some(read_u64(r)?),
                "instructions" => instructions = Some(read_u64(r)?),
                "cycles_per_sec" => cycles_per_sec = Some(r.num()?),
                "ops_per_sec" => ops_per_sec = Some(r.num()?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(BenchEntry {
            combo: read_required(combo, "combo")?,
            scheme: read_required(scheme, "scheme")?,
            sim_cycles: read_required(sim_cycles, "sim_cycles")?,
            instructions: read_required(instructions, "instructions")?,
            cycles_per_sec: read_required(cycles_per_sec, "cycles_per_sec")?,
            ops_per_sec: read_required(ops_per_sec, "ops_per_sec")?,
        })
    }
}

/// Geometric mean of ops/s across entries — the single scalar the
/// trajectory is tracked by.
pub fn geomean_ops(entries: &[BenchEntry]) -> f64 {
    let log_sum: f64 = entries.iter().map(|e| e.ops_per_sec.ln()).sum();
    (log_sum / entries.len().max(1) as f64).exp()
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

/// The bench file for `entries`, newline-terminated: schema, budget,
/// the definition's fingerprint, the entries and their geomean.
pub fn render(entries: &[BenchEntry]) -> Result<String, JsonError> {
    let (cfg, points) = definition();
    let mut w = JsonWriter::default();
    w.object(|o| {
        o.member("budget", |w| w.str(&BUDGET.label()))?;
        o.member("entries", |w| w.array(entries, |w, e| e.write_json(w)))?;
        o.member("fingerprint", |w| w.str(&fingerprint(&cfg, &points)))?;
        // Informational; `--check` recomputes the geomean from the
        // entries rather than trusting this member.
        o.member("geomean_ops_per_sec", |w| w.num(geomean_ops(entries)))?;
        o.member("schema", |w| w.str(SCHEMA))
    })?;
    let mut text = w.finish();
    text.push('\n');
    Ok(text)
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
    let read = || -> Result<(String, Vec<BenchEntry>), JsonError> {
        let mut r = JsonReader::new(&text);
        let (mut schema, mut fingerprint, mut entries) = (None, None, None);
        r.object(|r, name| {
            match name {
                "schema" => schema = Some(r.str()?.into_owned()),
                "fingerprint" => fingerprint = Some(r.str()?.into_owned()),
                "entries" => entries = Some(read_vec(r, BenchEntry::read_json)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        r.finish()?;
        let schema = read_required(schema, "schema")?;
        if schema != SCHEMA {
            return Err(JsonError(format!(
                "schema `{schema}` (expected `{SCHEMA}`)"
            )));
        }
        Ok((
            read_required(fingerprint, "fingerprint")?,
            read_required(entries, "entries")?,
        ))
    };
    read().map_err(|e| format!("{}: {e}", path.display()))
}
