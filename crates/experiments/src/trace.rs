//! Phase-resolved time series for one (combo, scheme point) run.
//!
//! The ROADMAP's open question — why the CC(Best) oracle still beats
//! SNUG at scaled budgets, unlike the paper's Fig. 9 — needs visibility
//! *inside* a run: how per-core IPC, the L2 fill mix and spill traffic
//! evolve across SNUG's sampling periods, and what happens to spilled
//! blocks at every G/T relatch (the C1 stranded-spilled-blocks
//! hypothesis). [`trace_point`] records exactly that: a
//! [`sim_cmp::SimSession`] probe fires on a cycle stride and the samples —
//! including the scheme-side [`SchemeEvent`]s SNUG emits at stage
//! boundaries — become a [`TraceSeries`] the harness stores and the
//! `snug trace` CLI renders.

use crate::compare::{session_for, CompareConfig, SchemePoint};
use sim_cmp::{PeriodSample, SchemeEvent, SchemeEventKind};
use snug_metrics::{mean, Table};
use snug_workloads::{Combo, PhaseSchedule};

/// A recorded probe time series for one (combo, scheme point) run.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSeries {
    /// The producing point's store label (`"snug"`, `"cc@50%"`, …).
    pub scheme: String,
    /// Probe stride in cycles.
    pub stride: u64,
    /// Warm-up cycles of the run (samples at or below this cycle are
    /// warm-up).
    pub warmup_cycles: u64,
    /// One sample per stride interval, in cycle order.
    pub samples: Vec<PeriodSample>,
}

impl TraceSeries {
    /// Samples inside the measured window.
    pub fn measured(&self) -> impl Iterator<Item = &PeriodSample> {
        self.samples.iter().filter(|s| !s.during_warmup)
    }

    /// Mean throughput (sum of per-core interval IPCs) over the
    /// measured window; 0 if no measured sample was recorded.
    pub fn mean_throughput(&self) -> f64 {
        let tps: Vec<f64> = self.measured().map(|s| s.throughput()).collect();
        if tps.is_empty() {
            0.0
        } else {
            mean(&tps)
        }
    }

    /// Total scheme events recorded (stage transitions, G/T relatches).
    pub fn event_count(&self) -> usize {
        self.samples.iter().map(|s| s.events.len()).sum()
    }

    /// Total workload phase shifts recorded.
    pub fn shift_count(&self) -> usize {
        self.samples.iter().map(|s| s.shifts.len()).sum()
    }

    /// Mean throughput per workload phase over the measured window: the
    /// measured samples split at every sample that recorded a shift
    /// (the straddling sample starts the new phase). One entry for a
    /// stationary run; `boundary + 1` entries once shifts fired inside
    /// the measured window.
    pub fn phase_throughputs(&self) -> Vec<f64> {
        let mut phases: Vec<Vec<f64>> = Vec::new();
        let mut current = Vec::new();
        for s in self.measured() {
            if !s.shifts.is_empty() && !current.is_empty() {
                phases.push(std::mem::take(&mut current));
            }
            current.push(s.throughput());
        }
        phases.push(current);
        phases
            .into_iter()
            .map(|tps| if tps.is_empty() { 0.0 } else { mean(&tps) })
            .collect()
    }

    /// Render the series as a table: one row per sample with per-core
    /// IPC, the L2 interval mix and any scheme events.
    pub fn table(&self, label: &str) -> Table {
        let cores = self
            .samples
            .first()
            .map(|s| s.instructions.len())
            .unwrap_or(0);
        let mut headers = vec!["cycle".to_string(), "phase".to_string()];
        headers.extend((0..cores).map(|i| format!("ipc{i}")));
        headers.extend(
            [
                "l2_hits",
                "l2_miss",
                "spill_out",
                "spill_in",
                "retrieved",
                "shadow",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        headers.push("events".to_string());
        let mut t = Table::new(format!("trace {label} [{}]", self.scheme), headers);
        for s in &self.samples {
            let mut row = vec![
                s.cycle.to_string(),
                if s.during_warmup { "warm" } else { "meas" }.to_string(),
            ];
            row.extend(s.ipcs().iter().map(|i| format!("{i:.3}")));
            row.push(s.l2.hits.to_string());
            row.push(s.l2.misses.to_string());
            row.push(s.l2.spills_out.to_string());
            row.push(s.l2.spills_in.to_string());
            row.push(s.l2.retrieved_from_peer.to_string());
            row.push(s.l2.shadow_hits.to_string());
            let mut events = render_events(&s.events);
            if !s.shifts.is_empty() {
                let shifts = s
                    .shifts
                    .iter()
                    .map(|sh| format!("S@{}({})", sh.at_cycle, sh.directive))
                    .collect::<Vec<_>>()
                    .join(" ");
                if events.is_empty() {
                    events = shifts;
                } else {
                    events = format!("{shifts} {events}");
                }
            }
            row.push(events);
            t.push_row(row);
        }
        t
    }
}

/// Compact event rendering: `I@2400000` (identify begins),
/// `G@2100000(takers 12/0/7/3)` (grouped operation begins, per-core
/// taker-set counts just latched).
fn render_events(events: &[SchemeEvent]) -> String {
    events
        .iter()
        .map(|e| match e.kind {
            SchemeEventKind::IdentifyBegin => format!("I@{}", e.cycle),
            SchemeEventKind::GroupedBegin => {
                let takers = e
                    .takers
                    .iter()
                    .map(|t| t.to_string())
                    .collect::<Vec<_>>()
                    .join("/");
                format!("G@{}(takers {takers})", e.cycle)
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// The default probe stride for a plan: 24 samples across the measured
/// window (at the calibrated `--mid` budget this lands ~2.4 samples
/// inside every SNUG sampling period).
pub fn default_stride(cfg: &CompareConfig) -> u64 {
    (cfg.plan.measure_cycles() / 24).max(1)
}

/// Run one (combo, scheme point) simulation with a recording probe and
/// return its time series. Same simulation semantics as
/// [`crate::run_point`] — the probe only observes. Under a phase-change
/// schedule the shifts are applied mid-run and appear as phase-boundary
/// events in the recorded samples ([`PeriodSample::shifts`]), which is
/// how `snug trace --phase-shift` shows a scheme reacting — or failing
/// to react — to a workload change.
pub fn trace_point(
    combo: &Combo,
    point: &SchemePoint,
    cfg: &CompareConfig,
    stride: u64,
    phase: Option<&PhaseSchedule>,
) -> TraceSeries {
    let mut session = session_for(combo, point.spec(cfg).build_any(cfg.system), cfg, phase);
    session.enable_recording(stride);
    let _ = session.run_to_completion();
    TraceSeries {
        scheme: point.label(),
        stride,
        warmup_cycles: cfg.plan.warmup_cycles,
        samples: session.take_series(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snug_workloads::all_combos;

    fn tiny_cfg() -> CompareConfig {
        let mut cfg = CompareConfig::quick();
        cfg.plan = sim_cmp::RunPlan::fixed(20_000, 200_000);
        cfg.snug.stage1_cycles = 10_000;
        cfg.snug.stage2_cycles = 40_000;
        cfg
    }

    #[test]
    fn snug_trace_carries_stage_events() {
        let combo = all_combos()[0];
        let cfg = tiny_cfg();
        let series = trace_point(&combo, &SchemePoint::Snug, &cfg, 25_000, None);
        assert_eq!(series.scheme, "snug");
        assert!(series.samples.len() >= 6, "got {}", series.samples.len());
        assert!(
            series.event_count() >= 3,
            "several stage transitions in 220K cycles, got {}",
            series.event_count()
        );
        let grouped: Vec<&SchemeEvent> = series
            .samples
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| e.kind == SchemeEventKind::GroupedBegin)
            .collect();
        assert!(!grouped.is_empty());
        assert!(
            grouped.iter().all(|e| e.takers.len() == 4),
            "per-core taker counts latched"
        );
        assert!(series.mean_throughput() > 0.0);
    }

    #[test]
    fn trace_table_renders_all_samples() {
        let combo = all_combos()[0];
        let cfg = tiny_cfg();
        let series = trace_point(&combo, &SchemePoint::L2p, &cfg, 50_000, None);
        assert_eq!(series.event_count(), 0, "L2P has no staged policy");
        let t = series.table(&combo.label());
        assert_eq!(t.len(), series.samples.len());
        assert!(t.to_markdown().contains("ipc0"));
    }

    #[test]
    fn phased_trace_records_shift_boundaries_and_phase_means() {
        let combo = all_combos()[0];
        let cfg = tiny_cfg();
        let sched = PhaseSchedule::parse("120000:demand=300").unwrap();
        let series = trace_point(&combo, &SchemePoint::Snug, &cfg, 25_000, Some(&sched));
        assert_eq!(series.shift_count(), 1, "one phase boundary recorded");
        let phases = series.phase_throughputs();
        assert_eq!(phases.len(), 2, "one mean per workload phase");
        assert!(phases.iter().all(|t| *t > 0.0), "{phases:?}");
        assert!(
            series
                .table(&combo.label())
                .to_markdown()
                .contains("S@120000(demand=300)"),
            "phase boundary rendered as an event"
        );
        // A stationary trace has a single phase and no shift events.
        let plain = trace_point(&combo, &SchemePoint::Snug, &cfg, 25_000, None);
        assert_eq!(plain.shift_count(), 0);
        assert_eq!(plain.phase_throughputs().len(), 1);
        assert_ne!(
            plain.mean_throughput(),
            series.mean_throughput(),
            "the shift changed the measured behaviour"
        );
    }

    #[test]
    fn trace_observation_does_not_perturb_results() {
        // The probe only reads: a traced run and an untraced run of the
        // same point retire identical IPCs.
        let combo = all_combos()[3];
        let cfg = tiny_cfg();
        let plain = crate::run_point(&combo, &SchemePoint::Snug, &cfg, None, None);
        let spec = SchemePoint::Snug.spec(&cfg);
        let mut session = session_for(&combo, spec.build_any(cfg.system), &cfg, None);
        session.enable_recording(30_000);
        let traced = session.run_to_completion();
        assert_eq!(traced.ipcs(), plain.ipcs);
    }
}
