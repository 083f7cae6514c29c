//! The committed `CHARACTERIZATION.md`: the set-level capacity-demand
//! characterisation (paper §2, Figures 1–3) of every modelled benchmark
//! at the one pinned plan, [`CharacterizeConfig::pinned`].
//!
//! `snug characterize` writes it and `--check` is the staleness gate.
//! Like `ABLATIONS.md`, the document is a pure function of the code: the
//! synthetic streams are seeded, so re-rendering is byte-identical.

use crate::experiments_md::push_table;
use sim_mem::Geometry;
use snug_experiments::{characterize, CharacterizeConfig, DemandCharacterization};
use snug_metrics::Table;
use snug_workloads::Benchmark;

/// Default path of the committed document, relative to the repo root.
pub const CHARACTERIZATION_FILE: &str = "CHARACTERIZATION.md";

/// Rows per figure table: one per tenth of the run.
const FIGURE_ROWS: usize = 10;

/// Characterise every modelled benchmark at the pinned plan and render
/// the committed `CHARACTERIZATION.md`.
pub fn render_characterization_md() -> String {
    let cfg = CharacterizeConfig::pinned();
    let runs: Vec<DemandCharacterization> = Benchmark::ALL
        .iter()
        .map(|&bench| characterize(bench, &cfg))
        .collect();
    let params = cfg.params;
    let plan = cfg.plan;
    let baseline = cfg.l2.assoc;
    let pct = |x: f64| format!("{:.1}%", x * 100.0);

    let mut out = String::new();
    out.push_str("# CHARACTERIZATION — set-level capacity demand (Figures 1–3)\n\n");
    out.push_str(
        "> **Generated file — do not edit.** Rendered by `snug characterize`.\n\
         > CI runs `snug characterize --check`, which fails if this file no\n\
         > longer matches what the characterisation renders to.\n\n",
    );
    out.push_str(&format!(
        "Each benchmark's synthetic reference stream runs through the Table 4\n\
         L1 ({}). Its misses, the L2 access stream,\n\
         feed a per-set stack-distance profiler over the Table 4 L2 slice\n\
         ({}) with `A_threshold = {}`. A set's\n\
         demand in an interval is the fewest ways that give it as many hits\n\
         as `A_threshold` ways would (Formula 3). It falls into one of M = {}\n\
         buckets of {} blocks (Formula 4), and each interval reports the\n\
         fraction of sets in each bucket (Formula 5).\n\n\
         The plan is {} intervals × {} K L2 accesses per benchmark. The paper\n\
         samples 1000 × 100 K; this plan is that scaled down 50×, so all {}\n\
         benchmarks render in seconds and CI re-renders the document on every\n\
         change. An interval here sees about {:.0} L2 accesses per set, against\n\
         the paper's 98. The plan also covers only about 4–10 M references\n\
         of each model's 40 M-reference phase cycle, so the three multi-phase\n\
         models (parser, vortex, gcc) show their first phase only. Vortex's\n\
         middle phase, where the paper's Figure 2 has ~15% of sets at 1–4\n\
         blocks, is outside the plan.\n\n",
        geometry(cfg.l1),
        geometry(cfg.l2),
        params.a_threshold,
        params.m_buckets,
        params.bucket_width(),
        plan.intervals,
        plan.accesses_per_interval / 1000,
        runs.len(),
        plan.accesses_per_interval as f64 / cfg.l2.num_sets as f64,
    ));

    out.push_str("## Summary\n\n");
    out.push_str(&format!(
        "Class is the paper's Table 6 application class: A and B are\n\
         set-level non-uniform (A needs more than 1 MB, B less), C and D are\n\
         uniform (C more than 1 MB, D less); applu streams and appears only\n\
         here. The two demand columns are the mean fraction of sets needing\n\
         1–{} blocks (givers) and more than the {}-way baseline (takers).\n\
         Spread is the normalised entropy of an interval's distribution (0:\n\
         every set in one bucket; 1: sets spread evenly over all {}), averaged\n\
         over the intervals.\n\n",
        params.bucket_width(),
        baseline,
        params.m_buckets,
    ));
    let mut summary = Table::new(
        "",
        vec![
            "Benchmark".to_string(),
            "Class".to_string(),
            format!("1–{} blocks", params.bucket_width()),
            format!("> {baseline} blocks"),
            "Mean spread".to_string(),
        ],
    );
    for run in &runs {
        summary.push_row(vec![
            run.benchmark.name().to_string(),
            run.benchmark.class().name().to_string(),
            pct(run.mean_low_demand()),
            pct(run.mean_above_baseline(baseline)),
            format!("{:.2}", run.mean_spread()),
        ]);
    }
    push_table(&mut out, &summary);

    let per_row = plan.intervals.div_ceil(FIGURE_ROWS);
    // Figures 1–3 are ammp, vortex and applu, in `Benchmark::ALL` order.
    let figures = [Benchmark::Ammp, Benchmark::Vortex, Benchmark::Applu];
    for (figure, run) in (1..).zip(runs.iter().filter(|r| figures.contains(&r.benchmark))) {
        out.push_str(&format!(
            "## Figure {figure} — {}\n\n\
             Fraction of sets per demand bucket (blocks). Each row is the mean\n\
             of {per_row} consecutive intervals.\n\n",
            run.benchmark.name()
        ));
        let mut headers = vec!["Intervals".to_string()];
        headers.extend((1..=params.m_buckets).map(|j| {
            let (lo, hi) = params.bucket_range(j);
            format!("{lo}–{hi}")
        }));
        let mut table = Table::new("", headers);
        for (i, rows) in run.intervals.chunks(per_row).enumerate() {
            let first = i * per_row + 1;
            let mut row = vec![format!("{first}–{}", first + rows.len() - 1)];
            row.extend((0..params.m_buckets).map(|j| {
                let sum: f64 = rows.iter().map(|d| d.sizes[j]).sum();
                pct(sum / rows.len() as f64)
            }));
            table.push_row(row);
        }
        push_table(&mut out, &table);
    }
    out
}

/// `32 KB, 4-way, 64 B lines, 128 sets`.
fn geometry(g: Geometry) -> String {
    format!(
        "{} KB, {}-way, {} B lines, {} sets",
        g.capacity_bytes() >> 10,
        g.assoc,
        g.block_bytes,
        g.num_sets
    )
}
