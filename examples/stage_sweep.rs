//! C1 stage-length sweep: does SNUG's short-period stranding explain
//! the CC(Best) gap?
//!
//! ROADMAP's C1 hypothesis, built from `snug trace` evidence: at the
//! calibrated `--mid` stage lengths (10 K + 290 K cycles) taker
//! identification ramps over several sampling periods and spilled
//! blocks are rarely retrieved before the next G/T relatch strands
//! them. This example keeps the fixed `--mid` budget and sweeps the
//! SNUG `stage1`/`stage2` lengths on the three C1 combos, recording for
//! each point:
//!
//! * SNUG throughput normalised to L2P, and the gap to CC(Best)
//!   (the §4.1 per-combo oracle over five spill probabilities);
//! * the taker ramp — the cycle at which the latched taker-set count
//!   first reaches half its run maximum, and that maximum as a
//!   fraction of all 4 × 1024 sets.
//!
//! ```sh
//! cargo run --release --example stage_sweep
//! ```

use snug_sim::experiments::{best_cc_index, run_point, session_for, CompareConfig, SchemePoint};
use snug_sim::metrics::{IpcVector, MetricSet};
use snug_sim::workloads::{all_combos, ComboClass};

/// (stage1, stage2) candidates at the fixed --mid budget. The first row
/// is the calibrated default; the rest stretch the sampling period
/// (fewer G/T relatches per window) and the identification stage.
const CANDIDATES: [(u64, u64); 6] = [
    (10_000, 290_000),
    (10_000, 590_000),
    (10_000, 1_490_000),
    (30_000, 270_000),
    (30_000, 570_000),
    (50_000, 950_000),
];

struct StagePoint {
    stage1: u64,
    stage2: u64,
    snug_tp: f64,
    gap_vs_cc: f64,
    ramp_half_cycle: Option<u64>,
    peak_taker_fraction: f64,
}

fn sweep_combo(combo: &snug_sim::workloads::Combo, cfg: &CompareConfig) -> (f64, Vec<StagePoint>) {
    let base = IpcVector::new(run_point(combo, &SchemePoint::L2p, cfg, None, None).ipcs);
    // CC(Best): the §4.1 oracle — run the spill sweep, keep the winner.
    let cc_sweep: Vec<(f64, f64)> = SchemePoint::all()
        .into_iter()
        .filter_map(|p| match p {
            SchemePoint::Cc { spill_probability } => {
                let run = run_point(combo, &p, cfg, None, None);
                let m = MetricSet::compute(&IpcVector::new(run.ipcs), &base);
                Some((spill_probability, m.throughput))
            }
            _ => None,
        })
        .collect();
    let cc_best = cc_sweep[best_cc_index(&cc_sweep).expect("non-empty sweep")].1;

    let total_sets = (cfg.system.num_cores as u64) * cfg.system.l2_slice.num_sets;
    let points = CANDIDATES
        .iter()
        .map(|&(stage1, stage2)| {
            let mut tuned = *cfg;
            tuned.snug.stage1_cycles = stage1;
            tuned.snug.stage2_cycles = stage2;
            let snug = SchemePoint::Snug.spec(&tuned).build_any(tuned.system);
            let mut session = session_for(combo, snug, &tuned, None);
            session.enable_recording(100_000);
            let result = session.run_to_completion();
            let m = MetricSet::compute(&IpcVector::new(result.ipcs()), &base);

            // The taker ramp, from the G/T relatch events: each
            // GroupedBegin latches per-core taker-set counts.
            let latches: Vec<(u64, u64)> = session
                .take_series()
                .iter()
                .flat_map(|s| s.events.clone())
                .filter(|e| e.kind == sim_cmp::SchemeEventKind::GroupedBegin)
                .map(|e| (e.cycle, e.takers.iter().map(|&t| t as u64).sum()))
                .collect();
            let peak = latches.iter().map(|&(_, t)| t).max().unwrap_or(0);
            let ramp_half_cycle = latches
                .iter()
                .find(|&&(_, t)| 2 * t >= peak && peak > 0)
                .map(|&(c, _)| c);
            StagePoint {
                stage1,
                stage2,
                snug_tp: m.throughput,
                gap_vs_cc: cc_best - m.throughput,
                ramp_half_cycle,
                peak_taker_fraction: peak as f64 / total_sets as f64,
            }
        })
        .collect();
    (cc_best, points)
}

fn main() {
    let cfg = CompareConfig::mid();
    let combos: Vec<_> = all_combos()
        .into_iter()
        .filter(|c| c.class == ComboClass::C1)
        .collect();
    println!(
        "C1 stage sweep at the fixed --mid budget ({} + {} cycles)\n",
        cfg.plan.warmup_cycles,
        cfg.plan.measure_cycles()
    );
    for combo in &combos {
        let (cc_best, points) = sweep_combo(combo, &cfg);
        println!("{} — CC(Best) {:.3}", combo.label(), cc_best);
        println!(
            "  {:>8} {:>9} {:>8} {:>8} {:>10} {:>7}",
            "stage1", "stage2", "snug_tp", "gap", "ramp50@", "takers"
        );
        for p in points {
            println!(
                "  {:>8} {:>9} {:>8.3} {:>+8.3} {:>10} {:>6.1}%",
                p.stage1,
                p.stage2,
                p.snug_tp,
                -p.gap_vs_cc,
                p.ramp_half_cycle
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "never".into()),
                p.peak_taker_fraction * 100.0
            );
        }
        println!();
    }
    println!("(gap column is SNUG − CC(Best): negative means the oracle still leads)");
}
