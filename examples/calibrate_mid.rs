//! Empirical calibration of the `--mid` budget (see ISSUE 2 / ROADMAP).
//!
//! Runs the full 21-combo five-scheme comparison under several candidate
//! (budget, SNUG stage) configurations and prints, for each, the
//! per-class and average Fig. 9 geomeans plus whether the paper's
//! qualitative ordering — SNUG ≥ DSR ≥ CC > L2P with L2S worst on the
//! capacity-hungry classes — holds. The winner became
//! `CompareConfig::mid()` / `BudgetPreset::Mid`.
//!
//! ```sh
//! cargo run --release --example calibrate_mid            # short list
//! cargo run --release --example calibrate_mid -- --all   # every candidate
//! ```

use snug_sim::experiments::{run_combo, summarize, CompareConfig, Figure, RunPlan};
use snug_sim::workloads::all_combos;
use std::time::Instant;

/// SNUG-only probe: fix the mid budget, sweep stage lengths, and print
/// SNUG's per-class Fig. 9 geomeans (L2P baseline re-run per combo).
/// DSR/CC do not depend on the SNUG stages, so their mid-budget numbers
/// from the main probe are the comparison targets.
fn snug_stage_probe() {
    use snug_sim::experiments::run_scheme;
    use snug_sim::metrics::{geomean, IpcVector};
    // (warmup, measure, stage1, stage2)
    let stage_candidates: &[(u64, u64, u64, u64)] = &[
        (300_000, 3_000_000, 5_000, 295_000),
        (300_000, 3_000_000, 8_000, 292_000),
        (400_000, 4_000_000, 10_000, 390_000),
        (400_000, 4_000_000, 10_000, 290_000),
        (500_000, 4_500_000, 10_000, 290_000),
    ];
    for &(warmup, measure, s1, s2) in stage_candidates {
        let cfg = config_for(&Candidate {
            name: "probe",
            warmup,
            measure,
            stage1: s1,
            stage2: s2,
        });
        let start = Instant::now();
        let mut per_class: Vec<(String, Vec<f64>)> = Vec::new();
        for combo in all_combos() {
            let base = run_scheme(
                &combo,
                &snug_sim::experiments::SchemePoint::L2p.spec(&cfg),
                &cfg,
            );
            let snug = run_scheme(
                &combo,
                &snug_sim::experiments::SchemePoint::Snug.spec(&cfg),
                &cfg,
            );
            let tp =
                IpcVector::new(snug.ipcs()).throughput() / IpcVector::new(base.ipcs()).throughput();
            let name = combo.class.name().to_string();
            match per_class.iter_mut().find(|(n, _)| *n == name) {
                Some((_, v)) => v.push(tp),
                None => per_class.push((name, vec![tp])),
            }
        }
        let all_vals: Vec<f64> = per_class.iter().flat_map(|(_, v)| v.clone()).collect();
        print!(
            "budget {warmup}+{measure} stages {s1}/{s2} ({} periods): ",
            measure / (s1 + s2)
        );
        for (name, vals) in &per_class {
            print!("{name} {:.3}  ", geomean(vals));
        }
        println!(
            "AVG {:.3}  [{:.0}s]",
            geomean(&all_vals),
            start.elapsed().as_secs_f64()
        );
    }
}

struct Candidate {
    name: &'static str,
    warmup: u64,
    measure: u64,
    stage1: u64,
    stage2: u64,
}

fn config_for(c: &Candidate) -> CompareConfig {
    let mut cfg = CompareConfig::quick();
    cfg.plan = RunPlan::fixed(c.warmup, c.measure);
    cfg.snug.stage1_cycles = c.stage1;
    cfg.snug.stage2_cycles = c.stage2;
    cfg.snug.continuous_sampling = true;
    cfg
}

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    if std::env::args().any(|a| a == "--snug-stages") {
        snug_stage_probe();
        return;
    }
    let mut candidates = vec![
        Candidate {
            name: "eval-reference",
            warmup: 600_000,
            measure: 6_300_000,
            stage1: 150_000,
            stage2: 1_350_000,
        },
        Candidate {
            // The shipped `CompareConfig::mid()` numbers: keep in sync.
            name: "mid-shipped",
            warmup: 300_000,
            measure: 3_000_000,
            stage1: 10_000,
            stage2: 290_000,
        },
    ];
    if all {
        candidates.extend([
            Candidate {
                name: "mid-4p-1125k",
                warmup: 400_000,
                measure: 4_500_000,
                stage1: 150_000,
                stage2: 975_000,
            },
            Candidate {
                name: "mid-2p-1500k",
                warmup: 300_000,
                measure: 3_000_000,
                stage1: 150_000,
                stage2: 1_350_000,
            },
            Candidate {
                name: "small-4p-500k",
                warmup: 200_000,
                measure: 2_000_000,
                stage1: 100_000,
                stage2: 400_000,
            },
        ]);
    }

    for cand in &candidates {
        let cfg = config_for(cand);
        let start = Instant::now();
        let results: Vec<_> = all_combos().iter().map(|c| run_combo(c, &cfg)).collect();
        let elapsed = start.elapsed();
        let summary = summarize(&results, Figure::Throughput);

        println!(
            "\n=== {} (warmup {} + measure {}, stages {}/{}) — {:.1}s ===",
            cand.name,
            cand.warmup,
            cand.measure,
            cand.stage1,
            cand.stage2,
            elapsed.as_secs_f64()
        );
        println!(
            "{:<6} {:>8} {:>10} {:>8} {:>8}  ordering",
            "class", "L2S", "CC(Best)", "DSR", "SNUG"
        );
        for row in &summary {
            let get = |name: &str| {
                row.values
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap()
            };
            let (l2s, cc, dsr, snug) = (get("L2S"), get("CC(Best)"), get("DSR"), get("SNUG"));
            let verdict = if snug >= dsr && dsr >= cc && cc > 1.0 && l2s < cc {
                "SNUG>=DSR>=CC>L2P"
            } else if snug >= dsr && snug > 1.0 {
                "SNUG>=DSR"
            } else {
                "-"
            };
            println!(
                "{:<6} {:>8.3} {:>10.3} {:>8.3} {:>8.3}  {}",
                row.class, l2s, cc, dsr, snug, verdict
            );
        }

        // One representative probed session per candidate so budget
        // choices can also be compared on simulator activity, not just
        // the figure geomeans.
        let combos = all_combos();
        let combo = &combos[0];
        let snug = snug_sim::experiments::SchemePoint::Snug.spec(&cfg);
        let mut session =
            snug_sim::experiments::session_for(combo, snug.build_any(cfg.system), &cfg, None);
        session.run_to_completion();
        println!(
            "counters [SNUG | {}]: {}",
            combo.label(),
            session.counters().summary()
        );
    }
}
