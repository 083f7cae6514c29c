//! Empirical calibration of the eval-scale convergence knobs (ISSUE 7).
//!
//! The committed `EXPERIMENTS_EVAL.md` is rendered from a converged
//! `--eval` sweep, so the window/epsilon pair has to be picked *at eval
//! scale* — the `--mid` defaults were tuned against a 3 M-cycle ceiling
//! and a window that is too fine at 6.3 M cycles stops runs on noise
//! while one that is too coarse saves nothing. This example runs the
//! full sweep through the real harness path (`run_sweep`, including
//! baseline pacing and the parallel executor) for each candidate pair
//! and prints, per candidate:
//!
//! * the Fig. 9 geomeans for SNUG and CC(Best) and their maximum
//!   absolute deviation from the fixed-budget eval reference,
//! * how many combos converged vs hit the ceiling, and
//! * the simulated-cycle saving against the fixed budget.
//!
//! The winner became `EVAL_CONVERGED_WINDOW` /
//! `EVAL_CONVERGED_REL_EPSILON` in `snug_harness::experiments_md`.
//! Each candidate caches under `target/calibrate-eval/`, so re-runs
//! are incremental.
//!
//! ```sh
//! cargo run --release --example calibrate_eval
//! ```

use snug_experiments::{pace_of, summarize, Figure, SchemePoint, StopReason};
use snug_harness::{run_sweep, BudgetPreset, ResultStore, StopPreset, SweepSpec};
use std::path::PathBuf;
use std::time::Instant;

struct Candidate {
    name: &'static str,
    window: u64,
    eps: f64,
}

fn eval_spec(stop: StopPreset) -> SweepSpec {
    let mut spec = SweepSpec::full(BudgetPreset::Eval);
    spec.stop = stop;
    spec
}

/// Run (or serve from its candidate-local cache) one full eval sweep
/// and return `(results, simulated, budgeted, ceilings)`.
fn run(name: &str, spec: &SweepSpec) -> (Vec<snug_experiments::ComboResult>, u64, u64, usize) {
    let dir = PathBuf::from("target/calibrate-eval").join(name);
    let mut store = ResultStore::open(&dir).expect("open candidate store");
    let outcome = run_sweep(spec, &mut store, 0, |_| {}).expect("sweep runs");
    let ceilings = if spec.compare_config().plan.can_stop_early() {
        spec.combo_jobs()
            .iter()
            .filter(|job| {
                job.units
                    .iter()
                    .find(|u| u.point == SchemePoint::L2p)
                    .and_then(|u| store.get_unit(&u.key))
                    .map(|run| pace_of(run, &job.config).stop_reason == StopReason::Ceiling)
                    .unwrap_or(false)
            })
            .count()
    } else {
        0
    };
    let results = outcome.combos.iter().map(|c| c.result.clone()).collect();
    (
        results,
        outcome.simulated_cycles,
        outcome.budgeted_cycles,
        ceilings,
    )
}

fn avg_row(results: &[snug_experiments::ComboResult]) -> Vec<(String, f64)> {
    summarize(results, Figure::Throughput)
        .into_iter()
        .find(|row| row.class == "AVG")
        .map(|row| row.values)
        .expect("summary has an AVG row")
}

fn main() {
    let started = Instant::now();
    println!("fixed eval reference (cached after the first run)...");
    let (reference, _, _, _) = run("fixed", &eval_spec(StopPreset::Fixed));
    let ref_avg = avg_row(&reference);
    print!("fixed AVG:");
    for (name, v) in &ref_avg {
        print!("  {name} {v:.3}");
    }
    println!("  [{:.0}s]", started.elapsed().as_secs_f64());

    let candidates = [
        Candidate {
            name: "w315k-e02",
            window: 315_000,
            eps: 0.02,
        },
        Candidate {
            name: "w630k-e02",
            window: 630_000,
            eps: 0.02,
        },
        Candidate {
            name: "w630k-e01",
            window: 630_000,
            eps: 0.01,
        },
        Candidate {
            name: "w1260k-e02",
            window: 1_260_000,
            eps: 0.02,
        },
    ];
    for cand in &candidates {
        let t = Instant::now();
        let spec = eval_spec(StopPreset::Converged {
            window_cycles: Some(cand.window),
            rel_epsilon: Some(cand.eps),
        });
        let (results, simulated, budgeted, ceilings) = run(cand.name, &spec);
        let avg = avg_row(&results);
        let max_dev = avg
            .iter()
            .zip(&ref_avg)
            .map(|((_, v), (_, r))| (v - r).abs())
            .fold(0.0_f64, f64::max);
        let saved = 100.0 * (1.0 - simulated as f64 / budgeted as f64);
        print!(
            "window {:>8} eps {:<5} | ceilings {ceilings:>2}/21 | saved {saved:>5.1}% | \
             max |Δ| vs fixed {max_dev:.4} |",
            cand.window, cand.eps
        );
        for (name, v) in &avg {
            print!("  {name} {v:.3}");
        }
        println!("  [{:.0}s]", t.elapsed().as_secs_f64());
    }
}
