//! Report generation: the paper's Tables 7–8 / Figures 9–11 comparisons
//! rendered from stored sweep results as Markdown and CSV.

use crate::spec::{point_keys, ComboJob, SweepSpec};
use crate::store::ResultStore;
use snug_experiments::{
    figure_table, pace_of, summarize, ComboResult, Figure, SchemePoint, StopReason, FIGURE_SCHEMES,
};
use snug_metrics::{f3, Table};
use std::path::{Path, PathBuf};

/// All figures in paper order.
pub(crate) const FIGURES: [Figure; 3] = [Figure::Throughput, Figure::Aws, Figure::FairSpeedup];

/// The per-class figure tables (Figs. 9–11) plus the per-combo detail
/// table (Table 8 expanded), in render order.
pub fn report_tables(results: &[ComboResult]) -> Vec<Table> {
    let mut tables: Vec<Table> = FIGURES
        .iter()
        .map(|&fig| figure_table(&summarize(results, fig), fig))
        .collect();
    tables.push(per_combo_table(results));
    tables
}

/// One row per combo: its class and every scheme's normalised
/// throughput (the per-combo data behind Fig. 9's class bars).
pub(crate) fn per_combo_table(results: &[ComboResult]) -> Table {
    let mut headers = vec!["Combination".to_string(), "Class".to_string()];
    headers.extend(FIGURE_SCHEMES.iter().map(|s| format!("{s} tp")));
    let mut t = Table::new("Table 8: per-combination normalised throughput", headers);
    for r in results {
        let mut row = vec![r.label.clone(), r.class.name().to_string()];
        for scheme in FIGURE_SCHEMES {
            #[expect(
                clippy::expect_used,
                reason = "FIGURE_SCHEMES is the exact scheme set every stored ComboResult carries"
            )]
            let m = r.metrics_of(scheme).expect("scheme present in result");
            row.push(f3(m.throughput));
        }
        t.push_row(row);
    }
    t
}

/// The footnote accompanying [`stop_summary_table`]'s ceiling marker.
pub const CEILING_FOOTNOTE: &str = "† hit the budget ceiling without stabilising — \
     these are mid-ramp numbers, not plateau measurements.";

/// Per-combo stop summary of an early-exit sweep (`--until-converged` /
/// `--until-reconverged`): every scheme of a combo measures the window
/// its L2P baseline settled on, so one row per combo shows that window,
/// the explicit stop reason, and — under a re-convergence policy — the
/// baseline's per-phase plateau means. A combo whose baseline hit the
/// ceiling without stabilising is marked `ceiling †` (see
/// [`CEILING_FOOTNOTE`]): before stop reasons were persisted such runs
/// were indistinguishable from clean full-window measurements.
///
/// Phase-shift specs additionally get one post-shift plateau column
/// per figure scheme, read from the per-scheme plateau records the
/// sweep persists alongside each unit — phase-stationary specs (all
/// the committed EXPERIMENTS tables) render byte-identically to
/// before.
///
/// Returns `None` for fixed-stop specs (nothing to summarise) or when
/// the store is missing the spec's baselines.
pub fn stop_summary_table(spec: &SweepSpec, store: &ResultStore) -> Option<Table> {
    let config = spec.compare_config();
    if !config.plan.can_stop_early() {
        return None;
    }
    let shifted = spec.phase_shift.is_some();
    let mut headers = vec![
        "Combination".to_string(),
        "Class".to_string(),
        "Window (cycles)".to_string(),
        "Stop".to_string(),
        "Baseline plateaus".to_string(),
    ];
    if shifted {
        headers.extend(FIGURE_SCHEMES.iter().map(|s| format!("{s} post")));
    }
    let mut t = Table::new("Stop summary (per-combo window, baseline-paced)", headers);
    let phase = spec.phase_schedule();
    // Only the post-shift columns read a combo's other units; without
    // them, key the baselines alone rather than the full expansion.
    let jobs = if shifted {
        spec.combo_jobs()
    } else {
        Vec::new()
    };
    let combos = spec.combos();
    let baselines = point_keys(&combos, &SchemePoint::L2p, &config, phase.as_ref());
    for (i, (combo, baseline)) in combos.iter().zip(&baselines).enumerate() {
        let run = store.get_unit(baseline)?;
        let pace = pace_of(run, &config);
        let stop = match pace.stop_reason {
            StopReason::Converged => "converged".to_string(),
            StopReason::Ceiling => "ceiling †".to_string(),
        };
        let plateaus = if run.plateaus.is_empty() {
            "-".to_string()
        } else {
            run.plateaus
                .iter()
                .map(|p| f3(*p))
                .collect::<Vec<_>>()
                .join(" → ")
        };
        let mut row = vec![
            combo.label(),
            combo.class.name().to_string(),
            pace.measured_window.to_string(),
            stop,
            plateaus,
        ];
        if let Some(job) = jobs.get(i) {
            for scheme in FIGURE_SCHEMES {
                row.push(post_shift_plateau(store, job, scheme));
            }
        }
        t.push_row(row);
    }
    Some(t)
}

/// The post-shift plateau of `scheme`'s unit for one combo, rendered
/// for the stop summary: the last per-phase mean, provided the run
/// recorded at least two phases — the baseline's rolling-window
/// plateau under the re-convergence policy, or the whole-phase
/// measured means paced siblings record over the window that
/// baseline certified (see `SchemeRun::plateaus`). `CC(Best)`
/// reports the highest post-shift mean across the §4.1 spill sweep.
/// `-` when the unit is missing from the store or predates per-phase
/// recording (cached pre-upgrade entries).
fn post_shift_plateau(store: &ResultStore, job: &ComboJob, scheme: &str) -> String {
    let best = job
        .units
        .iter()
        .filter(|u| {
            matches!(
                (scheme, u.point),
                ("L2S", SchemePoint::L2s)
                    | ("DSR", SchemePoint::Dsr)
                    | ("SNUG", SchemePoint::Snug)
                    | ("CC(Best)", SchemePoint::Cc { .. })
            )
        })
        .filter_map(|u| {
            let run = store.get_unit(&u.key)?;
            if run.plateaus.len() >= 2 {
                run.plateaus.last().copied()
            } else {
                None
            }
        })
        .fold(None::<f64>, |acc, v| Some(acc.map_or(v, |a| a.max(v))));
    best.map(f3).unwrap_or_else(|| "-".to_string())
}

/// Render the full report as one Markdown document.
pub fn render_markdown(spec: &SweepSpec, results: &[ComboResult]) -> String {
    let mut out = format!(
        "# SNUG sweep report — {}\n\nBudget: {} · combos: {} · schemes: {}\n\n",
        spec.name,
        spec.budget_label(),
        results.len(),
        FIGURE_SCHEMES.join(", "),
    );
    for t in report_tables(results) {
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    out
}

/// Write the report files under `dir`: `report.md` plus one CSV per
/// table. Early-exit specs append their [`stop_summary_table`] to the
/// Markdown (with the ceiling footnote) and emit `stop_summary.csv` —
/// the persisted artifacts must carry the mid-ramp marking, not just
/// stdout. Returns the written paths.
pub fn write_report(
    dir: &Path,
    spec: &SweepSpec,
    results: &[ComboResult],
    stop_summary: Option<&Table>,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();

    let md = dir.join("report.md");
    let mut md_text = render_markdown(spec, results);
    if let Some(table) = stop_summary {
        md_text.push_str(&table.to_markdown());
        md_text.push_str(CEILING_FOOTNOTE);
        md_text.push('\n');
    }
    std::fs::write(&md, md_text)?;
    written.push(md);

    let slugs = [
        "fig9_throughput",
        "fig10_aws",
        "fig11_fair_speedup",
        "table8_per_combo",
    ];
    for (table, slug) in report_tables(results).iter().zip(slugs) {
        let path = dir.join(format!("{slug}.csv"));
        std::fs::write(&path, table.to_csv())?;
        written.push(path);
    }
    if let Some(table) = stop_summary {
        let path = dir.join("stop_summary.csv");
        std::fs::write(&path, table.to_csv())?;
        written.push(path);
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::BudgetPreset;
    use snug_experiments::SchemeResult;
    use snug_metrics::MetricSet;
    use snug_workloads::ComboClass;

    fn fake(label: &str, class: ComboClass, tp: f64) -> ComboResult {
        let mk = |name: &str, t: f64| SchemeResult {
            scheme: name.into(),
            metrics: MetricSet {
                throughput: t,
                aws: t,
                fair: t,
            },
            ipcs: vec![1.0; 4],
        };
        ComboResult {
            label: label.into(),
            class,
            baseline_ipcs: vec![1.0; 4],
            schemes: vec![
                mk("L2S", 0.98),
                mk("CC(Best)", 1.01),
                mk("DSR", 1.04),
                mk("SNUG", tp),
            ],
            cc_sweep: vec![(0.0, 1.0)],
        }
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            name: "demo".into(),
            classes: vec![],
            combos: vec![],
            budget: BudgetPreset::Quick,
            stop: crate::spec::StopPreset::Fixed,
            phase_shift: None,
        }
    }

    #[test]
    fn stop_summary_post_shift_columns_gate_on_the_phase_schedule() {
        use crate::spec::StopPreset;
        use snug_experiments::SchemeRun;

        let dir = std::env::temp_dir().join("snug-report-postshift-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();

        let shifted = SweepSpec {
            name: "shifted".into(),
            classes: vec![],
            combos: vec!["ammp+ammp+ammp+ammp".into()],
            budget: BudgetPreset::Quick,
            stop: StopPreset::Reconverged {
                window_cycles: Some(150_000),
                rel_epsilon: None,
            },
            phase_shift: Some("400000:profile=mcf".into()),
        };
        let jobs = shifted.combo_jobs();
        let run = |plateaus: Vec<f64>| SchemeRun {
            scheme: "test".into(),
            ipcs: vec![1.0; 4],
            measured_cycles: Some(1_000_000),
            stop_reason: Some(StopReason::Converged),
            plateaus,
        };
        for u in &jobs[0].units {
            let plateaus = match u.point {
                SchemePoint::L2p => vec![0.9, 1.0],
                // Re-converged past the shift: its post plateau shows.
                SchemePoint::Snug => vec![0.8, 1.25],
                // Never re-converged (single pre-shift plateau): `-`.
                SchemePoint::L2s => vec![0.7],
                // CC sweep and DSR left out of the store entirely: `-`.
                _ => continue,
            };
            store.insert_unit(u.key, run(plateaus)).unwrap();
        }

        let md = stop_summary_table(&shifted, &store)
            .expect("early-exit spec summarises")
            .to_markdown();
        for h in ["L2S post", "CC(Best) post", "DSR post", "SNUG post"] {
            assert!(md.contains(h), "missing header {h}:\n{md}");
        }
        assert!(
            md.contains("- | - | - | 1.25"),
            "post cells should read -, -, -, then SNUG's final plateau:\n{md}"
        );

        // The stationary variant of the same spec renders the legacy
        // five columns only — the committed EXPERIMENTS tables cannot
        // move.
        let stationary = SweepSpec {
            stop: StopPreset::Converged {
                window_cycles: Some(150_000),
                rel_epsilon: None,
            },
            phase_shift: None,
            ..shifted
        };
        let jobs = stationary.combo_jobs();
        let base = jobs[0]
            .units
            .iter()
            .find(|u| u.point == SchemePoint::L2p)
            .unwrap();
        store.insert_unit(base.key, run(Vec::new())).unwrap();
        let md = stop_summary_table(&stationary, &store)
            .expect("converged spec summarises")
            .to_markdown();
        assert!(
            !md.contains("post") && md.contains("Baseline plateaus"),
            "stationary specs keep the legacy columns:\n{md}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A stationary spec's stop summary, keyed from the baselines
    /// alone, renders byte-identically to the table built from the full
    /// `combo_jobs()` expansion; the same combos under a phase shift
    /// still get their post-shift columns from the full expansion.
    #[test]
    fn baseline_only_stop_summary_matches_the_full_expansion() {
        use crate::spec::StopPreset;
        use snug_experiments::SchemeRun;

        let dir =
            std::env::temp_dir().join(format!("snug-report-baselines-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut store = ResultStore::open(&dir).unwrap();
        let stop = StopPreset::Converged {
            window_cycles: Some(150_000),
            rel_epsilon: None,
        };
        let stationary = SweepSpec { stop, ..spec() };
        let shifted = SweepSpec {
            phase_shift: Some("400000:profile=mcf".into()),
            ..stationary.clone()
        };
        // Every unit of both specs is stored, each with its own window,
        // stop reason and plateaus, so a row that read any unit but its
        // combo's baseline would show.
        let units = stationary
            .unit_jobs()
            .into_iter()
            .chain(shifted.unit_jobs());
        for (i, u) in (0u64..).zip(units) {
            let run = SchemeRun {
                scheme: u.point.label(),
                ipcs: vec![1.0; 4],
                measured_cycles: (i % 3 != 0).then_some(100_000 + i),
                stop_reason: (i % 5 != 0).then_some(StopReason::Converged),
                plateaus: vec![0.5 + i as f64 / 1000.0; (i % 3) as usize],
            };
            store.insert_unit(u.key, run).unwrap();
        }

        let mut reference = Table::new(
            "Stop summary (per-combo window, baseline-paced)",
            vec![
                "Combination",
                "Class",
                "Window (cycles)",
                "Stop",
                "Baseline plateaus",
            ],
        );
        for job in stationary.combo_jobs() {
            let baseline = job.units.iter().find(|u| u.point == SchemePoint::L2p);
            let run = store.get_unit(&baseline.unwrap().key).unwrap();
            let pace = pace_of(run, &job.config);
            let plateaus: Vec<String> = run.plateaus.iter().map(|p| f3(*p)).collect();
            reference.push_row(vec![
                job.combo.label(),
                job.combo.class.name().to_string(),
                pace.measured_window.to_string(),
                match pace.stop_reason {
                    StopReason::Converged => "converged".to_string(),
                    StopReason::Ceiling => "ceiling †".to_string(),
                },
                if plateaus.is_empty() {
                    "-".to_string()
                } else {
                    plateaus.join(" → ")
                },
            ]);
        }
        let table = stop_summary_table(&stationary, &store).unwrap();
        assert_eq!(table.rows.len(), 21);
        assert_eq!(table.to_markdown(), reference.to_markdown());
        assert_eq!(table.to_csv(), reference.to_csv());

        let md = stop_summary_table(&shifted, &store).unwrap().to_markdown();
        for h in ["L2S post", "CC(Best) post", "DSR post", "SNUG post"] {
            assert!(md.contains(h), "missing header {h}:\n{md}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_has_three_figures_and_the_detail_table() {
        let results = vec![
            fake("a+b+c+d", ComboClass::C1, 1.2),
            fake("e+f+g+h", ComboClass::C5, 1.1),
        ];
        let tables = report_tables(&results);
        assert_eq!(tables.len(), 4);
        assert!(tables[0].title.contains("Figure 9"));
        assert!(tables[3].title.contains("per-combination"));
        assert_eq!(tables[3].rows.len(), 2, "one row per combo");
    }

    #[test]
    fn markdown_contains_throughput_numbers() {
        let results = vec![fake("a+b+c+d", ComboClass::C2, 1.337)];
        let md = render_markdown(&spec(), &results);
        assert!(md.contains("1.337"), "SNUG throughput rendered");
        assert!(md.contains("a+b+c+d"));
        assert!(md.contains("Budget: quick"));
    }

    #[test]
    fn write_report_emits_md_and_csvs() {
        let dir = std::env::temp_dir().join(format!("snug-report-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let results = vec![fake("a+b+c+d", ComboClass::C4, 1.05)];
        let written = write_report(&dir, &spec(), &results, None).unwrap();
        assert_eq!(written.len(), 5, "report.md + 4 CSVs");
        for path in &written {
            assert!(path.exists(), "{path:?}");
        }
        let csv = std::fs::read_to_string(dir.join("fig9_throughput.csv")).unwrap();
        assert!(csv.starts_with("Class,"), "CSV header: {csv}");
        assert!(
            !std::fs::read_to_string(dir.join("report.md"))
                .unwrap()
                .contains("Stop summary"),
            "fixed-stop reports carry no stop summary"
        );

        // An early-exit report persists the stop summary in both the
        // Markdown (with the ceiling footnote) and its own CSV.
        let mut summary = Table::new(
            "Stop summary (per-combo window, baseline-paced)",
            vec![
                "Combination",
                "Class",
                "Window (cycles)",
                "Stop",
                "Baseline plateaus",
            ],
        );
        summary.push_row(vec!["a+b+c+d", "C4", "3000000", "ceiling †", "-"]);
        let written = write_report(&dir, &spec(), &results, Some(&summary)).unwrap();
        assert_eq!(written.len(), 6, "report.md + 4 CSVs + stop_summary.csv");
        let md = std::fs::read_to_string(dir.join("report.md")).unwrap();
        assert!(md.contains("Stop summary"));
        assert!(md.contains(CEILING_FOOTNOTE));
        assert!(dir.join("stop_summary.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
