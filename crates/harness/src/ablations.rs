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
//! The units persist in their own store under `results/ablations/`, so
//! the main `results/store.jsonl` stays byte-identical, and render into
//! the committed `ABLATIONS.md` (`snug ablations`; `--check` is the
//! staleness gate). Like `EXPERIMENTS.md`, the document is a pure
//! function of the stored runs.

use crate::experiments_md::push_table;
use crate::spec::{unit_jobs_for, BudgetPreset, UnitJob, SCHEMA_VERSION};
use crate::store::{ResultStore, STORE_FILE};
use snug_core::SnugConfig;
use snug_experiments::{CompareConfig, SchemePoint};
use snug_metrics::{geomean, normalized_throughput, IpcVector, Table};
use snug_workloads::{all_combos, Combo, ComboClass};

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
pub fn render_ablations_md(
    combos: &[ComboAblation],
    store: &ResultStore,
) -> Result<String, String> {
    let columns = snug_columns();
    let ipcs = |unit: &UnitJob, what: String| {
        store
            .get_unit(&unit.key)
            .map(|run| IpcVector::new(run.ipcs.clone()))
            .ok_or_else(|| {
                format!(
                    "{} is missing {what} (key {})",
                    store.dir().join(STORE_FILE).display(),
                    unit.key
                )
            })
    };
    let mut rows: Vec<(Combo, Vec<f64>)> = Vec::with_capacity(combos.len());
    for c in combos {
        let base = ipcs(&c.baseline, c.baseline.label())?;
        let mut tps = Vec::with_capacity(c.snug.len());
        for unit in &c.snug {
            tps.push(normalized_throughput(&ipcs(unit, unit.label())?, &base));
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
         taker ramp.\n\n",
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

    out.push_str("## Provenance\n\n");
    out.push_str(&format!(
        "- Key schema: `{SCHEMA_VERSION}`; the L2P and canonical SNUG units carry\n\
         \x20 the same keys and results as `results/store.jsonl`\n\
         - Budget: `mid` — {} warm-up + {} measured cycles per simulation\n\
         - Sweep: {} combinations × {} units (L2P + {} SNUG configurations) =\n\
         \x20 {} unit jobs, all served from `{ABLATIONS_DIR}/{STORE_FILE}`\n",
        cfg.plan.warmup_cycles,
        cfg.plan.measure_cycles(),
        combos.len(),
        1 + columns.len(),
        columns.len(),
        combos.len() * (1 + columns.len()),
    ));
    Ok(out)
}
