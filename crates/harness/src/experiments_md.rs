//! The committed `EXPERIMENTS.md`: the paper's full evaluation rendered
//! from the result store as one regenerable, deterministic document.
//!
//! `snug report --experiments-md` renders it; `--check` re-renders and
//! fails if the committed file differs (the staleness gate CI runs).
//! The output is a pure function of the stored results and the spec —
//! no timestamps, hostnames or float formatting that could differ
//! between machines — so re-rendering against an unchanged store is
//! byte-identical.

use crate::report::{per_combo_table, FIGURES};
use crate::spec::{BudgetPreset, StopPreset, SweepSpec, SCHEMA_VERSION};
use snug_core::{table3, OverheadParams};
use snug_experiments::{best_cc_index, figure_table, summarize, ComboResult, SchemePoint};
use snug_metrics::{geomean, Table};

/// Default path of the committed document, relative to the repo root.
pub const EXPERIMENTS_FILE: &str = "EXPERIMENTS.md";

/// Default path of the committed eval-scale document, relative to the
/// repo root.
pub const EXPERIMENTS_EVAL_FILE: &str = "EXPERIMENTS_EVAL.md";

/// Convergence sample window (cycles) the committed eval sweep uses: a
/// tenth of the 6.3 M-cycle ceiling. `ABLATIONS.md`'s eval-convergence
/// table compares it, at this epsilon, with the other candidates.
pub const EVAL_CONVERGED_WINDOW: u64 = 630_000;

/// Relative spread threshold paired with [`EVAL_CONVERGED_WINDOW`].
pub const EVAL_CONVERGED_REL_EPSILON: f64 = 0.02;

/// The sweep `EXPERIMENTS_EVAL.md` is defined over: the full Table 8
/// at the eval budget with convergence-based early exit pinned to the
/// calibrated window/epsilon. Pinning the convergence knobs (rather
/// than leaving them `None`) keeps the committed store keys stable even
/// if the *defaults* are ever re-derived.
pub fn eval_converged_spec() -> SweepSpec {
    let mut spec = SweepSpec::full(BudgetPreset::Eval);
    spec.stop = StopPreset::Converged {
        window_cycles: Some(EVAL_CONVERGED_WINDOW),
        rel_epsilon: Some(EVAL_CONVERGED_REL_EPSILON),
    };
    spec
}

/// Render the full evaluation document from assembled results. A pure
/// function of `(spec, results)` — nothing outside the rendered sweep
/// (other store entries, timestamps, machine state) reaches the output,
/// so the staleness check only trips when the rendered data changes.
pub fn render_experiments_md(spec: &SweepSpec, results: &[ComboResult]) -> String {
    let cfg = spec.compare_config();
    // `--mid` is `report --experiments-md`'s default, so the canonical
    // document's command line leaves it out.
    let flags = match spec.budget {
        BudgetPreset::Mid => String::new(),
        budget => format!(" {}", budget.flags()),
    };
    let mut out = String::new();
    out.push_str("# EXPERIMENTS — the SNUG paper evaluation\n\n");
    out.push_str(&format!(
        "> **Generated file — do not edit.** Rendered from the result store by\n\
         > `snug report --experiments-md`. Regenerate after a sweep with:\n\
         >\n\
         > ```sh\n\
         > snug sweep{flags} && snug report --experiments-md{flags}\n\
         > ```\n\
         >\n\
         > CI runs `snug report --experiments-md --check`, which fails if this\n\
         > file no longer matches what the committed store renders to.\n\n",
    ));
    out.push_str(
        "The five L2 organisations of `conf_ipps_ZhanJS10` — L2P (private\n\
         baseline), L2S (shared), CC(Best) (Cooperative Caching, best spill\n\
         probability per combination), DSR (Dynamic Spill-Receive) and SNUG —\n\
         compared over the 21 quad-core workload combinations of Table 8.\n\
         All metrics are normalised to L2P; class rows are geometric means.\n\n",
    );

    out.push_str(
        "**Reading the results.** Spilling schemes beat the private baseline\n\
         on the capacity-sensitive mixed classes (C3/C4/C6), SNUG matches or\n\
         edges out DSR on average (its per-set grouping pays off most on C4,\n\
         the 2×A + B + C mix), and L2S is far worst everywhere —\n\
         interference at shared-cache granularity. One knowing deviation:\n\
         CC(Best) is an *oracle* — per §4.1 it re-runs every combination at\n\
         five spill probabilities and keeps the winner after the fact — and\n\
         under the synthetic workload models that post-hoc selection scores\n\
         higher relative to SNUG than the paper's Fig. 9 reports for real\n\
         SPEC traces.\n\n",
    );
    if spec.budget == BudgetPreset::Mid {
        out.push_str(
            "This document uses the calibrated `--mid` budget (the CI-fast\n\
             reproduction — see the calibration in `ABLATIONS.md` for how it was\n\
             picked). The stress classes C1/C2 separate only at the larger\n\
             `--eval` budget.\n\n",
        );
        out.push_str(
            "**Mid-ramp caveat (L2S).** The stop-policy layer records an\n\
             explicit `stop_reason` on every early-exit-capable run, and it\n\
             shows that under `--until-converged` L2S reaches the 3 M-cycle\n\
             ceiling with `stop_reason: ceiling` on every combination — its\n\
             shared cache is still warming when the window ends. The fixed-\n\
             window L2S numbers below are therefore mid-ramp measurements,\n\
             not steady-state plateaus — they understate L2S's eventual\n\
             performance — and per-combo L2S comparisons should be read\n\
             with that in mind (`snug report --until-converged` prints the\n\
             per-combo stop summary).\n\n",
        );
    }
    out.push_str("## Figures 9–11: per-class comparison\n\n");
    for fig in FIGURES {
        let table = figure_table(&summarize(results, fig), fig);
        push_table(&mut out, &table);
    }

    out.push_str("## Table 8: per-combination detail\n\n");
    push_table(&mut out, &per_combo_table(results));

    out.push_str("## CC spill sweep: winning probability per combination\n\n");
    push_table(&mut out, &cc_best_table(results));

    out.push_str("## Storage overhead (§3.4, Tables 2–3)\n\n");
    out.push_str(
        "SNUG's only storage cost is the shadow tag array plus the per-set\n\
         counters; Formula (6) relative to the L2 slice it monitors:\n\n",
    );
    push_table(&mut out, &overhead_table());

    out.push_str("## Provenance\n\n");
    let plan = cfg.plan;
    out.push_str(&format!(
        "- Key schema: `{SCHEMA_VERSION}` (one content-addressed job per\n\
         \x20 (combination, scheme point); a scheme-parameter edit invalidates\n\
         \x20 only that scheme's jobs)\n\
         - Budget: `{}` — {} warm-up + {} measured cycles per simulation;\n\
         \x20 SNUG stages {} + {} cycles\n\
         - Sweep: {} combinations × {} scheme points = {} unit jobs, all\n\
         \x20 served from `results/store.jsonl`\n",
        spec.budget.label(),
        plan.warmup_cycles,
        plan.measure_cycles(),
        cfg.snug.stage1_cycles,
        cfg.snug.stage2_cycles,
        results.len(),
        SchemePoint::COUNT,
        results.len() * SchemePoint::COUNT,
    ));
    out
}

/// Render the committed eval-scale document: the converged eval sweep
/// with the paper's Fig. 9 head-to-head — does SNUG overtake the
/// post-hoc CC(Best) oracle once the stress classes get room to
/// separate? Pure in `(spec, results, stop_summary)` like
/// [`render_experiments_md`], so `--check` only trips on data changes.
pub fn render_experiments_eval_md(
    spec: &SweepSpec,
    results: &[ComboResult],
    stop_summary: Option<&Table>,
) -> String {
    let cfg = spec.compare_config();
    let mut out = String::new();
    out.push_str("# EXPERIMENTS_EVAL — the eval-scale converged truth\n\n");
    out.push_str(&format!(
        "> **Generated file — do not edit.** Rendered from the result store by\n\
         > `snug report --experiments-eval-md`. Regenerate after the eval sweep:\n\
         >\n\
         > ```sh\n\
         > snug sweep --eval --until-converged --window {EVAL_CONVERGED_WINDOW} \\\n\
         >     --rel-eps {EVAL_CONVERGED_REL_EPSILON} --jobs 0\n\
         > snug report --experiments-eval-md\n\
         > ```\n\
         >\n\
         > CI runs `snug report --experiments-eval-md --check`, which fails if\n\
         > this file no longer matches what the committed store renders to.\n\n",
    ));
    out.push_str(
        "`EXPERIMENTS.md` reproduces the paper at the CI-fast `--mid` budget,\n\
         where the stress classes C1/C2 have not yet separated and the CC(Best)\n\
         oracle's post-hoc selection looks strongest. This document is the\n\
         *eval-scale* companion: the same 21 Table 8 combinations at the\n\
         paper-faithful `--eval` budget (600 k warm-up + 6.3 M measured-cycle\n\
         ceiling), with convergence-based early exit so each combination runs\n\
         exactly as long as its baseline-paced window needs.\n\n",
    );

    out.push_str("## The Fig. 9 question: does SNUG overtake CC(Best)?\n\n");
    out.push_str(&eval_verdict_paragraph(results));
    push_table(&mut out, &eval_verdict_table(results));

    out.push_str("## Figures 9–11: per-class comparison\n\n");
    for fig in FIGURES {
        let table = figure_table(&summarize(results, fig), fig);
        push_table(&mut out, &table);
    }

    out.push_str("## Table 8: per-combination detail\n\n");
    push_table(&mut out, &per_combo_table(results));

    out.push_str("## CC spill sweep: winning probability per combination\n\n");
    push_table(&mut out, &cc_best_table(results));

    if let Some(table) = stop_summary {
        out.push_str("## Convergence: per-combo windows and stop reasons\n\n");
        push_table(&mut out, table);
        out.push_str(crate::report::CEILING_FOOTNOTE);
        out.push_str("\n\n");
    }

    out.push_str("## Provenance\n\n");
    let plan = cfg.plan;
    out.push_str(&format!(
        "- Key schema: `{SCHEMA_VERSION}` (one content-addressed job per\n\
         \x20 (combination, scheme point); converged runs are keyed apart from\n\
         \x20 the canonical fixed-window entries)\n\
         - Budget: `{}` — {} warm-up + {} measured-cycle ceiling per\n\
         \x20 simulation; SNUG stages {} + {} cycles\n\
         - Convergence: window {} cycles, relative epsilon {}\n\
         \x20 (calibrated in `ABLATIONS.md`)\n\
         - Sweep: {} combinations × {} scheme points = {} unit jobs, all\n\
         \x20 served from `results/store.jsonl`\n",
        spec.budget_label(),
        plan.warmup_cycles,
        plan.measure_cycles(),
        cfg.snug.stage1_cycles,
        cfg.snug.stage2_cycles,
        EVAL_CONVERGED_WINDOW,
        EVAL_CONVERGED_REL_EPSILON,
        results.len(),
        SchemePoint::COUNT,
        results.len() * SchemePoint::COUNT,
    ));
    out
}

/// SNUG and CC(Best) normalised throughput per combo, paired. Combos
/// missing either scheme (impossible for sweep-assembled results) are
/// skipped rather than poisoning the geomean.
fn snug_cc_pairs(results: &[ComboResult]) -> Vec<(&ComboResult, f64, f64)> {
    results
        .iter()
        .filter_map(|r| {
            let snug = r.metrics_of("SNUG")?.throughput;
            let cc = r.metrics_of("CC(Best)")?.throughput;
            Some((r, snug, cc))
        })
        .collect()
}

/// The verdict sentence the eval document leads with, computed from the
/// data so the committed answer can never drift from the tables.
fn eval_verdict_paragraph(results: &[ComboResult]) -> String {
    let pairs = snug_cc_pairs(results);
    if pairs.is_empty() {
        return "No results to compare.\n\n".into();
    }
    let snug: Vec<f64> = pairs.iter().map(|&(_, s, _)| s).collect();
    let cc: Vec<f64> = pairs.iter().map(|&(_, _, c)| c).collect();
    let (g_snug, g_cc) = (geomean(&snug), geomean(&cc));
    let wins = pairs.iter().filter(|&&(_, s, c)| s > c).count();
    let verdict = if g_snug > g_cc {
        "**Yes.** At eval scale SNUG overtakes the post-hoc CC(Best) oracle"
    } else {
        "**Not quite.** At eval scale SNUG still trails the post-hoc CC(Best) oracle"
    };
    format!(
        "{verdict}: overall geomean normalised throughput {g_snug:.3} (SNUG)\n\
         vs {g_cc:.3} (CC(Best)), winning {wins} of {} combinations\n\
         head-to-head. CC(Best) re-runs every combination at five spill\n\
         probabilities and keeps the winner after the fact (§4.1), so a tie\n\
         is already a win for SNUG's single adaptive run.\n\n",
        pairs.len(),
    )
}

/// Per-class breakdown of the head-to-head, in first-seen class order
/// (the results vector is already in Table 8 order).
fn eval_verdict_table(results: &[ComboResult]) -> Table {
    let mut t = Table::new(
        "SNUG vs CC(Best) per class",
        vec![
            "Class".to_string(),
            "Combos".to_string(),
            "SNUG wins".to_string(),
            "SNUG geomean".to_string(),
            "CC(Best) geomean".to_string(),
        ],
    );
    let pairs = snug_cc_pairs(results);
    let mut classes: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for (r, snug, cc) in &pairs {
        let name = r.class.name().to_string();
        match classes.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => v.push((*snug, *cc)),
            None => classes.push((name, vec![(*snug, *cc)])),
        }
    }
    for (name, v) in &classes {
        let snug: Vec<f64> = v.iter().map(|&(s, _)| s).collect();
        let cc: Vec<f64> = v.iter().map(|&(_, c)| c).collect();
        let wins = v.iter().filter(|&&(s, c)| s > c).count();
        t.push_row(vec![
            name.clone(),
            format!("{}", v.len()),
            format!("{wins}"),
            format!("{:.3}", geomean(&snug)),
            format!("{:.3}", geomean(&cc)),
        ]);
    }
    if !pairs.is_empty() {
        let snug: Vec<f64> = pairs.iter().map(|&(_, s, _)| s).collect();
        let cc: Vec<f64> = pairs.iter().map(|&(_, _, c)| c).collect();
        let wins = pairs.iter().filter(|&&(_, s, c)| s > c).count();
        t.push_row(vec![
            "AVG".to_string(),
            format!("{}", pairs.len()),
            format!("{wins}"),
            format!("{:.3}", geomean(&snug)),
            format!("{:.3}", geomean(&cc)),
        ]);
    }
    t
}

pub(crate) fn push_table(out: &mut String, table: &Table) {
    out.push_str(&table.to_markdown());
    out.push('\n');
}

/// One row per combo: the spill probability CC(Best) settled on and its
/// normalised throughput (§4.1's per-combination oracle selection).
fn cc_best_table(results: &[ComboResult]) -> Table {
    let mut t = Table::new(
        "CC(Best) selection",
        vec![
            "Combination".to_string(),
            "Class".to_string(),
            "Best spill p".to_string(),
            "Throughput".to_string(),
        ],
    );
    for r in results {
        let (p, tp) = best_cc_index(&r.cc_sweep)
            .map(|i| r.cc_sweep[i])
            .unwrap_or((0.0, 1.0));
        t.push_row(vec![
            r.label.clone(),
            r.class.name().to_string(),
            format!("{:.0}%", p * 100.0),
            format!("{tp:.3}"),
        ]);
    }
    t
}

/// Tables 2–3 as one table: overhead across address widths and line
/// sizes at the paper's 1 MB, 16-way geometry.
fn overhead_table() -> Table {
    let mut t = Table::new(
        "SNUG storage overhead",
        vec![
            "Address bits".to_string(),
            "Line size".to_string(),
            "Shadow bits/set".to_string(),
            "Overhead".to_string(),
        ],
    );
    for (addr, block, overhead) in table3() {
        let params = OverheadParams {
            address_bits: addr,
            block_bytes: block,
            ..OverheadParams::paper()
        };
        t.push_row(vec![
            format!("{addr}"),
            format!("{block} B"),
            format!("{}", params.shadow_set_bits()),
            format!("{:.2}%", overhead * 100.0),
        ]);
    }
    t
}

/// The outcome of `--check`: either the committed file matches the
/// rendered document or it is stale/missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckOutcome {
    /// The committed file is byte-identical to the rendered document.
    Fresh,
    /// The committed file differs (first differing line, 1-based).
    Stale(usize),
    /// The committed file does not exist.
    Missing,
}

/// Compare a rendered document against the committed file contents.
pub fn check_experiments_md(rendered: &str, committed: Option<&str>) -> CheckOutcome {
    match committed {
        None => CheckOutcome::Missing,
        Some(text) if text == rendered => CheckOutcome::Fresh,
        Some(text) => {
            let line = rendered
                .lines()
                .zip(text.lines())
                .position(|(a, b)| a != b)
                .map(|i| i + 1)
                .unwrap_or_else(|| rendered.lines().count().min(text.lines().count()) + 1);
            CheckOutcome::Stale(line)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                mk("L2S", 0.4),
                mk("CC(Best)", 1.02),
                mk("DSR", 1.03),
                mk("SNUG", tp),
            ],
            cc_sweep: vec![(0.0, 1.0), (0.5, 1.02), (1.0, 1.01)],
        }
    }

    fn render_sample() -> String {
        let spec = SweepSpec::full(BudgetPreset::Mid);
        let results = vec![
            fake("a+b+c+d", ComboClass::C1, 1.05),
            fake("e+f+g+h", ComboClass::C5, 1.08),
        ];
        render_experiments_md(&spec, &results)
    }

    #[test]
    fn document_has_all_sections_and_is_deterministic() {
        let md = render_sample();
        for needle in [
            "# EXPERIMENTS",
            "Figure 9",
            "Figure 10",
            "Figure 11",
            "Table 8",
            "CC(Best) selection",
            "Storage overhead",
            "## Provenance",
            SCHEMA_VERSION,
            "Budget: `mid`",
        ] {
            assert!(md.contains(needle), "missing {needle:?}");
        }
        assert_eq!(md, render_sample(), "byte-identical re-render");
    }

    #[test]
    fn non_mid_budgets_render_their_own_flags_and_skip_the_mid_note() {
        let spec = SweepSpec::full(BudgetPreset::Eval);
        let results = vec![fake("a+b+c+d", ComboClass::C1, 1.05)];
        let md = render_experiments_md(&spec, &results);
        assert!(md.contains("snug sweep --eval && snug report --experiments-md --eval"));
        assert!(md.contains("Budget: `eval`"));
        assert!(
            !md.contains("calibrated `--mid` budget"),
            "mid narrative must not leak into an eval document"
        );
    }

    #[test]
    fn cc_best_table_picks_first_maximum() {
        let results = vec![fake("a+b+c+d", ComboClass::C3, 1.0)];
        let t = cc_best_table(&results);
        assert!(t.to_markdown().contains("50%"), "0.5 wins the sample sweep");
    }

    #[test]
    fn check_distinguishes_fresh_stale_missing() {
        let md = render_sample();
        assert_eq!(check_experiments_md(&md, Some(&md)), CheckOutcome::Fresh);
        assert_eq!(check_experiments_md(&md, None), CheckOutcome::Missing);
        let stale = md.replacen("EXPERIMENTS", "OLD", 1);
        assert!(matches!(
            check_experiments_md(&md, Some(&stale)),
            CheckOutcome::Stale(_)
        ));
    }

    #[test]
    fn eval_document_computes_the_fig9_verdict_from_the_data() {
        let spec = eval_converged_spec();
        // SNUG at 1.05/1.08 beats the fake CC(Best) at 1.02 everywhere.
        let results = vec![
            fake("a+b+c+d", ComboClass::C1, 1.05),
            fake("e+f+g+h", ComboClass::C5, 1.08),
        ];
        let md = render_experiments_eval_md(&spec, &results, None);
        for needle in [
            "# EXPERIMENTS_EVAL",
            "does SNUG overtake CC(Best)?",
            "**Yes.**",
            "winning 2 of 2 combinations",
            "SNUG vs CC(Best) per class",
            "Budget: `eval+converged`",
            "--window 630000",
            "--rel-eps 0.02",
            "Figure 9",
            "Table 8",
        ] {
            assert!(md.contains(needle), "missing {needle:?}");
        }
        assert_eq!(
            md,
            render_experiments_eval_md(&spec, &results, None),
            "byte-identical re-render"
        );
        // A losing SNUG flips the verdict without touching the template.
        let losing = vec![fake("a+b+c+d", ComboClass::C1, 1.01)];
        let md = render_experiments_eval_md(&spec, &losing, None);
        assert!(md.contains("**Not quite.**"), "losing verdict: {md}");
        assert!(md.contains("winning 0 of 1 combinations"));
    }

    #[test]
    fn eval_document_embeds_the_stop_summary_when_present() {
        let spec = eval_converged_spec();
        let results = vec![fake("a+b+c+d", ComboClass::C1, 1.05)];
        let mut stops = Table::new(
            "Stop summary (per-combo window, baseline-paced)",
            vec!["Combination".to_string(), "Stop".to_string()],
        );
        stops.push_row(vec!["a+b+c+d".to_string(), "converged".to_string()]);
        let md = render_experiments_eval_md(&spec, &results, Some(&stops));
        assert!(md.contains("## Convergence: per-combo windows and stop reasons"));
        assert!(md.contains("Stop summary"));
        let without = render_experiments_eval_md(&spec, &results, None);
        assert!(!without.contains("## Convergence:"));
    }

    #[test]
    fn eval_spec_pins_the_calibrated_convergence_knobs() {
        let spec = eval_converged_spec();
        assert_eq!(spec.budget, BudgetPreset::Eval);
        assert_eq!(
            spec.stop,
            StopPreset::Converged {
                window_cycles: Some(EVAL_CONVERGED_WINDOW),
                rel_epsilon: Some(EVAL_CONVERGED_REL_EPSILON),
            }
        );
        assert!(spec.compare_config().plan.can_stop_early());
    }

    #[test]
    fn overhead_rows_match_table3() {
        let t = overhead_table();
        let md = t.to_markdown();
        assert!(md.contains("3.85%"), "paper baseline overhead ≈3.9%: {md}");
        assert_eq!(t.rows.len(), 4, "2 address widths x 2 line sizes");
    }
}
