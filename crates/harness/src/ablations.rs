//! SNUG's design-choice ablations as keyed, cached and checked results.
//!
//! SNUG rests on three design choices: index-bit flipping (§3.2,
//! Fig. 8 case 2), the sampling-period length (§3.4), and the monitor
//! counter width k with threshold p (§3.1.2). Each ablation is one edit
//! of the calibrated `--mid` [`SnugConfig`]. They run as ordinary unit
//! jobs: [`unit_jobs_for`] keys `cfg.snug` into SNUG keys only, so each
//! combo's L2P baseline and canonical SNUG point keep the keys the main
//! store holds them under.
//! The classes are C1, where only flipping can find givers, and C4,
//! where SNUG trails CC(Best) most.
//!
//! The same store holds the budget calibration: the searches that
//! picked the `--mid` budget with its SNUG stage lengths, and the
//! window and ε of the converged eval sweep. Each candidate is a
//! pinned configuration run as ordinary unit jobs over all 21
//! combinations; the shipped candidates derive from
//! [`BudgetPreset::Mid`] and [`eval_converged_spec`], so their units
//! are the main store's.
//!
//! The units persist in their own store under `results/ablations/`, so
//! the main `results/store.jsonl` stays byte-identical, and render into
//! the committed `ABLATIONS.md` (`snug ablations`; `--check` is the
//! staleness gate). Like `EXPERIMENTS.md`, the document is a pure
//! function of the stored runs.

use crate::experiments_md::{eval_converged_spec, push_table};
use crate::spec::{unit_jobs_for, BudgetPreset, UnitJob, SCHEMA_VERSION};
use crate::store::{ResultStore, STORE_FILE};
use sim_cmp::StopSpec;
use snug_core::SnugConfig;
use snug_experiments::{
    assemble_combo, pace_of, summarize, ClassSummary, CompareConfig, Figure, RunPlan, SchemePoint,
    SchemeRun, StopReason, FIGURE_SCHEMES,
};
use snug_metrics::{geomean, normalized_throughput, IpcVector, Table};
use snug_workloads::{all_combos, Combo, ComboClass};
use std::collections::BTreeSet;

/// Default path of the committed document, relative to the repo root.
pub const ABLATIONS_FILE: &str = "ABLATIONS.md";

/// Default directory of the ablation store, relative to the repo root.
pub const ABLATIONS_DIR: &str = "results/ablations";

/// The classes the ablations run on.
const ABLATION_CLASSES: [ComboClass; 2] = [ComboClass::C1, ComboClass::C4];

/// One design-choice edit of the `--mid` SNUG configuration.
struct Ablation {
    /// Column name in `ABLATIONS.md`.
    name: &'static str,
    /// The paper section the choice comes from.
    section: &'static str,
    /// The edit, applied to the canonical configuration.
    edit: fn(SnugConfig) -> SnugConfig,
}

/// The pinned ablations. The stage lengths keep the calibrated
/// 10 K + 290 K ratio; (k, p) sit either side of the paper's (4, 8).
const ABLATIONS: [Ablation; 5] = [
    Ablation {
        name: "flipping off",
        section: "§3.2",
        edit: |s| SnugConfig {
            flipping: false,
            ..s
        },
    },
    Ablation {
        name: "stages ×0.5",
        section: "§3.4",
        edit: |s| SnugConfig {
            stage1_cycles: s.stage1_cycles / 2,
            stage2_cycles: s.stage2_cycles / 2,
            ..s
        },
    },
    Ablation {
        name: "stages ×2",
        section: "§3.4",
        edit: |s| SnugConfig {
            stage1_cycles: s.stage1_cycles * 2,
            stage2_cycles: s.stage2_cycles * 2,
            ..s
        },
    },
    Ablation {
        name: "k=2, p=4",
        section: "§3.1.2",
        edit: |s| SnugConfig {
            counter_bits: 2,
            p: 4,
            ..s
        },
    },
    Ablation {
        name: "k=6, p=16",
        section: "§3.1.2",
        edit: |s| SnugConfig {
            counter_bits: 6,
            p: 16,
            ..s
        },
    },
];

/// The canonical configuration the ablations edit: the `--mid` budget.
fn ablation_config() -> CompareConfig {
    BudgetPreset::Mid.compare_config()
}

/// Every SNUG configuration the document compares, canonical first,
/// named by its column.
fn snug_columns() -> Vec<(&'static str, &'static str, SnugConfig)> {
    let canonical = ablation_config().snug;
    std::iter::once(("SNUG", "—", canonical))
        .chain(
            ABLATIONS
                .iter()
                .map(|a| (a.name, a.section, (a.edit)(canonical))),
        )
        .collect()
}

/// One combo's ablation units.
#[derive(Debug, Clone)]
pub struct ComboAblation {
    /// The workload combination.
    pub combo: Combo,
    /// The canonical L2P baseline.
    pub baseline: UnitJob,
    /// SNUG under the canonical configuration, then under each pinned
    /// edit of it, in the document's column order.
    pub snug: Vec<UnitJob>,
}

impl ComboAblation {
    /// The baseline, then every SNUG unit.
    pub fn units(&self) -> impl Iterator<Item = &UnitJob> {
        std::iter::once(&self.baseline).chain(&self.snug)
    }
}

/// The ablation sweep: every C1 and C4 combo in Table 8 order, each
/// with its L2P baseline and one SNUG unit per column.
pub fn ablation_jobs() -> Vec<ComboAblation> {
    let canonical = ablation_config();
    let point = |combo: &Combo, config: &CompareConfig, want: SchemePoint| {
        #[expect(
            clippy::expect_used,
            reason = "unit_jobs_for expands every point of SchemePoint::all, L2P and SNUG included"
        )]
        unit_jobs_for(combo, config, None)
            .into_iter()
            .find(|u| u.point == want)
            .expect("every scheme point is expanded")
    };
    all_combos()
        .into_iter()
        .filter(|c| ABLATION_CLASSES.contains(&c.class))
        .map(|combo| ComboAblation {
            baseline: point(&combo, &canonical, SchemePoint::L2p),
            snug: std::iter::once(point(&combo, &canonical, SchemePoint::Snug))
                .chain(ABLATIONS.iter().map(|a| {
                    let snug = (a.edit)(canonical.snug);
                    let config = CompareConfig { snug, ..canonical };
                    UnitJob {
                        variant: Some(a.name),
                        ..point(&combo, &config, SchemePoint::Snug)
                    }
                }))
                .collect(),
            combo,
        })
        .collect()
}

/// Render the committed `ABLATIONS.md` from `store`, or name the first
/// unit it is missing.
pub fn render_ablations_md(store: &ResultStore) -> Result<String, String> {
    let columns = snug_columns();
    let ipcs = |unit: &UnitJob| stored(store, unit).map(|run| IpcVector::new(run.ipcs.clone()));
    let combos = ablation_jobs();
    let mut rows: Vec<(Combo, Vec<f64>)> = Vec::with_capacity(combos.len());
    for c in &combos {
        let base = ipcs(&c.baseline)?;
        let mut tps = Vec::with_capacity(c.snug.len());
        for unit in &c.snug {
            tps.push(normalized_throughput(&ipcs(unit)?, &base));
        }
        rows.push((c.combo, tps));
    }

    let cfg = ablation_config();
    let mut out = String::new();
    out.push_str("# ABLATIONS — SNUG's design choices\n\n");
    out.push_str(
        "> **Generated file — do not edit.** Rendered from the ablation store by\n\
         > `snug ablations`, which first runs any unit the store is missing.\n\
         > CI runs `snug ablations --check`, which fails if this file no longer\n\
         > matches what the committed store renders to.\n\n",
    );
    out.push_str(
        "Each column runs SNUG with one design choice of the calibrated\n\
         `--mid` configuration changed, on class C1 (four copies of one\n\
         class-A application, where only index-bit flipping can pair a\n\
         taker set with a giver) and class C4 (where SNUG trails CC(Best)\n\
         most). Throughput is normalised to each combination's L2P run,\n\
         as in EXPERIMENTS.md; class rows are geometric means, and the\n\
         wins rows count combinations where a column beats canonical SNUG.\n\
         The CC spill-probability sweep is EXPERIMENTS.md's CC(Best)\n\
         selection table, and `snug trace` shows SNUG's per-period\n\
         taker ramp. The calibration section records the searches\n\
         behind the `--mid` budget and the converged eval sweep.\n\n",
    );

    out.push_str("## SNUG configurations\n\n");
    let mut configs = Table::new(
        "",
        vec![
            "Column",
            "Paper",
            "k",
            "p",
            "Stage I + II (cycles)",
            "Flipping",
        ],
    );
    for (name, section, s) in &columns {
        configs.push_row(vec![
            name.to_string(),
            section.to_string(),
            s.counter_bits.to_string(),
            s.p.to_string(),
            format!("{} + {}", s.stage1_cycles, s.stage2_cycles),
            if s.flipping { "on" } else { "off" }.to_string(),
        ]);
    }
    push_table(&mut out, &configs);

    out.push_str("## Throughput normalised to L2P\n\n");
    let mut headers = vec!["Combination".to_string(), "Class".to_string()];
    headers.extend(columns.iter().map(|(name, _, _)| name.to_string()));
    let mut table = Table::new("", headers);
    // Table 8 order groups each class's combos together.
    for in_class in rows.chunk_by(|a, b| a.0.class == b.0.class) {
        let class = in_class[0].0.class.name();
        for (combo, tps) in in_class {
            let mut row = vec![combo.label(), class.to_string()];
            row.extend(tps.iter().map(|t| format!("{t:.3}")));
            table.push_row(row);
        }
        let mut mean = vec![format!("**{class} geomean**"), String::new()];
        let mut wins = vec![format!("{class} wins over SNUG"), String::new()];
        for i in 0..columns.len() {
            let col: Vec<f64> = in_class.iter().map(|(_, tps)| tps[i]).collect();
            mean.push(format!("**{:.3}**", geomean(&col)));
            wins.push(if i == 0 {
                "—".to_string()
            } else {
                let won = in_class.iter().filter(|(_, tps)| tps[i] > tps[0]).count();
                format!("{won}/{}", in_class.len())
            });
        }
        table.push_row(mean);
        table.push_row(wins);
    }
    push_table(&mut out, &table);

    out.push_str(&render_calibration(store)?);

    let ablation_count = combos.len() * (1 + columns.len());
    out.push_str("## Provenance\n\n");
    out.push_str(&format!(
        "- Key schema: `{SCHEMA_VERSION}`; the L2P and canonical SNUG units, and\n\
         \x20 the shipped calibration rows, carry the same keys and results as\n\
         \x20 `results/store.jsonl`\n\
         - Budget: `mid` — {} warm-up + {} measured cycles per ablation unit\n\
         - Sweep: {} combinations × {} units (L2P + {} SNUG configurations) =\n\
         \x20 {ablation_count} unit jobs, and {} more for the calibration (a unit\n\
         \x20 shared by rows runs once), all served from\n\
         \x20 `{ABLATIONS_DIR}/{STORE_FILE}`\n",
        cfg.plan.warmup_cycles,
        cfg.plan.measure_cycles(),
        combos.len(),
        1 + columns.len(),
        columns.len(),
        ablation_units().len() - ablation_count,
    ));
    Ok(out)
}

/// The stored run of `unit`, or an error naming the unit and its key.
fn stored<'s>(store: &'s ResultStore, unit: &UnitJob) -> Result<&'s SchemeRun, String> {
    store.get_unit(&unit.key).ok_or_else(|| {
        format!(
            "{} is missing {} (key {})",
            store.dir().join(STORE_FILE).display(),
            unit.label(),
            unit.key
        )
    })
}

/// Every unit `ABLATIONS.md` reads — the ablations, then each
/// calibration candidate's — with a unit several of them share listed
/// once, under its first label.
pub fn ablation_units() -> Vec<UnitJob> {
    let ablations: Vec<UnitJob> = ablation_jobs()
        .iter()
        .flat_map(ComboAblation::units)
        .cloned()
        .collect();
    let calibration = mid_candidates().into_iter().chain(eval_candidates());
    let mut seen = BTreeSet::new();
    ablations
        .into_iter()
        .chain(
            calibration
                .flat_map(|c| c.combo_units())
                .flat_map(|(_, units)| units),
        )
        .filter(|unit| seen.insert(unit.key))
        .collect()
}

/// One row of a calibration table: a budget configuration run over all
/// 21 combinations.
struct Candidate {
    /// Row name, and the label of the units it runs.
    name: &'static str,
    config: CompareConfig,
    /// A stage probe runs only L2P and SNUG; the rest run every point.
    probe: bool,
}

/// `(name, warm-up, measured, Stage I, Stage II)` cycles of a `--mid`
/// candidate.
type MidBudget = (&'static str, u64, u64, u64, u64);

/// The `--mid` candidates that were not shipped.
const MID_ALTERNATIVES: [MidBudget; 3] = [
    ("mid-4p-1125k", 400_000, 4_500_000, 150_000, 975_000),
    ("mid-2p-1500k", 300_000, 3_000_000, 150_000, 1_350_000),
    ("small-4p-500k", 200_000, 2_000_000, 100_000, 400_000),
];

/// SNUG stage-length probes around the shipped `--mid` stages. Only
/// SNUG depends on the stages, so they run L2P and SNUG alone.
const STAGE_PROBES: [MidBudget; 5] = [
    ("probe-3m-5k", 300_000, 3_000_000, 5_000, 295_000),
    ("probe-3m-8k", 300_000, 3_000_000, 8_000, 292_000),
    ("probe-4m-390k", 400_000, 4_000_000, 10_000, 390_000),
    ("probe-4m-290k", 400_000, 4_000_000, 10_000, 290_000),
    ("probe-4500k-290k", 500_000, 4_500_000, 10_000, 290_000),
];

/// `(name, window cycles, ε)` of the eval-convergence candidates that
/// were not shipped.
const EVAL_ALTERNATIVES: [(&str, u64, f64); 3] = [
    ("w315k-e02", 315_000, 0.02),
    ("w630k-e01", 630_000, 0.01),
    ("w1260k-e02", 1_260_000, 0.02),
];

/// The fixed-window `--eval` reference both searches compare against.
fn eval_reference() -> Candidate {
    Candidate::new("eval-reference", BudgetPreset::Eval.compare_config())
}

/// The `--mid` search: the fixed `--eval` reference, the shipped
/// `--mid`, the alternatives, then the stage probes.
fn mid_candidates() -> Vec<Candidate> {
    let mid = BudgetPreset::Mid.compare_config();
    let edit = |&(name, warmup, measure, stage1, stage2): &MidBudget, probe| Candidate {
        name,
        config: CompareConfig {
            plan: RunPlan::fixed(warmup, measure),
            snug: SnugConfig {
                stage1_cycles: stage1,
                stage2_cycles: stage2,
                ..mid.snug
            },
            ..mid
        },
        probe,
    };
    [eval_reference(), Candidate::new("mid-shipped", mid)]
        .into_iter()
        .chain(MID_ALTERNATIVES.iter().map(|b| edit(b, false)))
        .chain(STAGE_PROBES.iter().map(|b| edit(b, true)))
        .collect()
}

/// The eval-convergence search: the fixed `--eval` reference, the
/// shipped converged sweep, then the alternatives.
fn eval_candidates() -> Vec<Candidate> {
    let eval = BudgetPreset::Eval.compare_config();
    let shipped = Candidate::new("shipped", eval_converged_spec().compare_config());
    [eval_reference(), shipped]
        .into_iter()
        .chain(EVAL_ALTERNATIVES.iter().map(|&(name, window, eps)| {
            Candidate::new(name, eval.until_converged(Some(window), Some(eps)))
        }))
        .collect()
}

/// Each combo's stored runs by scheme point, in Table 8 order.
type ComboRuns = Vec<(Combo, Vec<(SchemePoint, SchemeRun)>)>;

impl Candidate {
    fn new(name: &'static str, config: CompareConfig) -> Self {
        let probe = false;
        Candidate {
            name,
            config,
            probe,
        }
    }

    /// Each combo's units, in Table 8 order.
    fn combo_units(&self) -> Vec<(Combo, Vec<UnitJob>)> {
        all_combos()
            .into_iter()
            .map(|combo| {
                let units = unit_jobs_for(&combo, &self.config, None)
                    .into_iter()
                    .filter(|u| {
                        !self.probe || matches!(u.point, SchemePoint::L2p | SchemePoint::Snug)
                    })
                    .map(|u| UnitJob {
                        variant: Some(self.name),
                        ..u
                    });
                (combo, units.collect())
            })
            .collect()
    }

    /// Each combo's stored runs.
    fn runs(&self, store: &ResultStore) -> Result<ComboRuns, String> {
        self.combo_units()
            .into_iter()
            .map(|(combo, units)| {
                let runs = units
                    .iter()
                    .map(|u| Ok((u.point, stored(store, u)?.clone())));
                Ok((combo, runs.collect::<Result<_, String>>()?))
            })
            .collect()
    }

    /// The Fig. 9 throughput geomeans of its [`Candidate::runs`] per
    /// class, then AVG. A stage probe has SNUG's alone.
    fn summary(&self, runs: &ComboRuns) -> Vec<ClassSummary> {
        if !self.probe {
            let results: Vec<_> = runs
                .iter()
                .map(|(combo, runs)| assemble_combo(combo, runs))
                .collect();
            return summarize(&results, Figure::Throughput);
        }
        // SNUG over L2P, the only two points a probe runs.
        let tps: Vec<(ComboClass, f64)> = runs
            .iter()
            .map(|(combo, runs)| {
                let ipcs = |i: usize| IpcVector::new(runs[i].1.ipcs.clone());
                (combo.class, normalized_throughput(&ipcs(1), &ipcs(0)))
            })
            .collect();
        let classes = ComboClass::ALL.map(|c| (c.name(), Some(c)));
        classes
            .into_iter()
            .chain([("AVG", None)])
            .map(|(name, class)| {
                let tps: Vec<f64> = tps
                    .iter()
                    .filter(|(c, _)| class.is_none_or(|class| *c == class))
                    .map(|&(_, t)| t)
                    .collect();
                ClassSummary {
                    class: name.to_string(),
                    values: vec![("SNUG".to_string(), geomean(&tps))],
                }
            })
            .collect()
    }
}

/// The paper's qualitative Fig. 9 ordering on one summary row:
/// `SNUG>=DSR>=CC>L2P` when SNUG ≥ DSR ≥ CC(Best) > 1 and L2S < CC(Best),
/// `SNUG>=DSR` when SNUG ≥ DSR and SNUG > 1, `-` otherwise.
fn ordering(row: &ClassSummary) -> &'static str {
    let get = |name: &str| row.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
    let (Some(l2s), Some(cc), Some(dsr), Some(snug)) =
        (get("L2S"), get("CC(Best)"), get("DSR"), get("SNUG"))
    else {
        return "";
    };
    if snug >= dsr && dsr >= cc && cc > 1.0 && l2s < cc {
        "SNUG>=DSR>=CC>L2P"
    } else if snug >= dsr && snug > 1.0 {
        "SNUG>=DSR"
    } else {
        "-"
    }
}

/// The "Calibration" section: the `--mid` search and the
/// eval-convergence search, from the stored runs.
fn render_calibration(store: &ResultStore) -> Result<String, String> {
    let mut out = String::from(
        "## Calibration\n\n\
         Two searches picked the reproduction's scaled-down constants: the\n\
         `--mid` budget with its SNUG stage lengths (§3.4), and the window\n\
         and ε of the converged `--eval` sweep. Each candidate runs all 21\n\
         combinations as keyed units in this store. The shipped rows are the\n\
         main store's units, so they equal EXPERIMENTS.md's and\n\
         EXPERIMENTS_EVAL.md's Figure 9 geomeans.\n\n\
         ### `--mid` budget\n\n\
         Each candidate is the shipped `--mid` configuration with the budget\n\
         and stage lengths below, in cycles; `eval-reference` is the fixed\n\
         `--eval` budget. The class columns give the paper's ordering:\n\
         SNUG>=DSR>=CC>L2P when SNUG ≥ DSR ≥ CC(Best) > 1 and L2S < CC(Best),\n\
         SNUG>=DSR when SNUG ≥ DSR and SNUG > 1, `-` otherwise. Stage probes\n\
         run only L2P and SNUG, which alone depends on the stages, so they\n\
         have no ordering.\n\n",
    );
    let classes = ComboClass::ALL.map(ComboClass::name);
    let headers = |first: &[&'static str]| [first, &classes, &["AVG"]].concat();
    let mut verdicts = Table::new(
        "",
        headers(&["Candidate", "Warm-up + measured", "Stage I + II"]),
    );
    let mut geomeans = Table::new("", headers(&["Candidate", "Scheme"]));
    for c in &mid_candidates() {
        let summary = c.summary(&c.runs(store)?);
        for (i, (scheme, _)) in summary[0].values.iter().enumerate() {
            let mut row = vec![c.name.to_string(), scheme.clone()];
            row.extend(summary.iter().map(|r| format!("{:.3}", r.values[i].1)));
            geomeans.push_row(row);
        }
        let (plan, snug) = (c.config.plan, c.config.snug);
        let budget = format!("{} + {}", plan.warmup_cycles, plan.measure_cycles());
        let stages = format!("{} + {}", snug.stage1_cycles, snug.stage2_cycles);
        let mut row = vec![c.name.to_string(), budget, stages];
        row.extend(summary.iter().map(|r| ordering(r).to_string()));
        verdicts.push_row(row);
    }
    push_table(&mut out, &verdicts);
    out.push_str("Fig. 9 throughput geomeans, normalised to L2P:\n\n");
    push_table(&mut out, &geomeans);

    out.push_str(
        "### Eval convergence\n\n\
         The candidates after `eval-reference` stop each combination early\n\
         once its L2P baseline converges, pacing the other points to its\n\
         window. Ceilings count baselines that reached the budget\n\
         unconverged, cycles saved is against every unit's full budget, and\n\
         max abs. Δ is the largest drift of the four AVG Fig. 9 geomeans\n\
         (the last four columns) from `eval-reference`'s.\n\n",
    );
    let columns = [
        "Candidate",
        "Window",
        "ε",
        "Ceilings",
        "Cycles saved",
        "Max abs. Δ",
    ];
    let mut table = Table::new("", [&columns[..], &FIGURE_SCHEMES].concat());
    let mut reference: Option<Vec<f64>> = None;
    for c in &eval_candidates() {
        let runs = c.runs(store)?;
        let avg = c.summary(&runs).pop().map(|row| row.values);
        let avg: Vec<f64> = avg.into_iter().flatten().map(|(_, v)| v).collect();
        let reference = reference.get_or_insert_with(|| avg.clone());
        let drift = avg
            .iter()
            .zip(reference.iter())
            .map(|(v, r)| (v - r).abs())
            .fold(0.0, f64::max);
        let plan = c.config.plan;
        let units: Vec<_> = runs.iter().flat_map(|(_, runs)| runs).collect();
        let simulated: u64 = units
            .iter()
            .map(|(_, run)| {
                plan.warmup_cycles
                    .saturating_add(run.measured_cycles.unwrap_or(plan.measure_cycles()))
            })
            .sum();
        let budgeted = plan.horizon() * units.len() as u64;
        let stop = match plan.stop {
            StopSpec::Converged {
                window_cycles,
                rel_epsilon,
                ..
            } => {
                let ceilings = units.iter().filter(|(point, run)| {
                    *point == SchemePoint::L2p
                        && pace_of(run, &c.config).stop_reason == StopReason::Ceiling
                });
                let ceilings = ceilings.count();
                [
                    window_cycles.to_string(),
                    rel_epsilon.to_string(),
                    format!("{ceilings}/{}", runs.len()),
                ]
            }
            _ => ["—", "—", "—"].map(String::from),
        };
        let row = [c.name.to_string()]
            .into_iter()
            .chain(stop)
            .chain([
                format!("{:.1}%", 100.0 * (1.0 - simulated as f64 / budgeted as f64)),
                format!("{drift:.4}"),
            ])
            .chain(avg.iter().map(|v| format!("{v:.3}")));
        table.push_row(row.collect());
    }
    push_table(&mut out, &table);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments_md::{EXPERIMENTS_EVAL_FILE, EXPERIMENTS_FILE};
    use snug_experiments::figure_table;
    use std::path::{Path, PathBuf};

    fn repo_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// The Figure 9 table the named candidate's runs in the committed
    /// ablation store render to.
    fn figure_9(candidates: Vec<Candidate>, name: &str) -> String {
        let store = ResultStore::open(repo_root().join(ABLATIONS_DIR)).unwrap();
        let c = candidates.into_iter().find(|c| c.name == name).unwrap();
        let runs = c.runs(&store).unwrap();
        figure_table(&c.summary(&runs), Figure::Throughput).to_markdown()
    }

    fn committed(file: &str) -> String {
        std::fs::read_to_string(repo_root().join(file)).unwrap()
    }

    #[test]
    fn the_shipped_mid_row_is_experiments_md_figure_9() {
        let table = figure_9(mid_candidates(), "mid-shipped");
        assert!(committed(EXPERIMENTS_FILE).contains(&table), "{table}");
    }

    #[test]
    fn the_shipped_eval_row_is_experiments_eval_md_figure_9() {
        let table = figure_9(eval_candidates(), "shipped");
        assert!(committed(EXPERIMENTS_EVAL_FILE).contains(&table), "{table}");
    }

    #[test]
    fn ordering_names_the_strongest_verdict_that_holds() {
        let row = |values: &[(&str, f64)]| ClassSummary {
            class: "C4".into(),
            values: values.iter().map(|&(s, v)| (s.to_string(), v)).collect(),
        };
        let full = |l2s, cc, dsr, snug| {
            ordering(&row(&[
                ("L2S", l2s),
                ("CC(Best)", cc),
                ("DSR", dsr),
                ("SNUG", snug),
            ]))
        };
        assert_eq!(full(0.3, 1.02, 1.03, 1.04), "SNUG>=DSR>=CC>L2P");
        assert_eq!(full(1.05, 1.02, 1.03, 1.04), "SNUG>=DSR", "L2S above CC");
        assert_eq!(full(0.3, 1.0, 1.0, 1.04), "SNUG>=DSR", "CC not above L2P");
        assert_eq!(full(0.3, 1.05, 1.03, 1.04), "SNUG>=DSR");
        assert_eq!(full(0.3, 1.05, 1.03, 1.02), "-");
        assert_eq!(full(0.3, 0.9, 1.0, 1.0), "-", "SNUG not above L2P");
        assert_eq!(ordering(&row(&[("SNUG", 1.1)])), "", "a stage probe");
    }
}
