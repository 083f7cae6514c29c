//! What the harness's executor did, read from the `UnitSpan` records a
//! sweep persists: busy time, queueing, utilisation, and the critical
//! path of the pacing graph with the speed-up ceiling it imposes.

use crate::record::{median, quantile, ratio, Json};
use snug_harness::UnitSpan;
use std::collections::BTreeMap;

pub struct ExecSummary {
    /// Pieces executed.
    pub pieces: usize,
    /// Sum of piece wall times (worker-seconds spent simulating).
    pub busy_s: f64,
    /// Mean seconds a piece waited between submission and a worker
    /// picking it up.
    pub queue_wait_s: f64,
    /// Submission → last piece finished.
    pub elapsed_s: f64,
    /// `busy / (workers × elapsed)`.
    pub utilisation: f64,
    /// The longest dependency chain: a combo's L2P baseline plus its
    /// slowest paced sibling, or the slowest free piece.
    pub critical_path_s: f64,
    /// The best speed-up over one worker that `workers` can reach given
    /// the critical path: `busy / max(critical_path, busy / workers)`.
    pub amdahl_ceiling: f64,
    /// Per-piece wall seconds: median and 90th percentile.
    pub unit_p50_s: f64,
    pub unit_p90_s: f64,
}

impl ExecSummary {
    pub fn from_spans(spans: &[UnitSpan], workers: usize) -> ExecSummary {
        let secs = |ns: u64| ns as f64 / 1e9;
        let walls: Vec<f64> = spans.iter().map(|s| secs(s.wall_nanos)).collect();
        let busy_s: f64 = walls.iter().sum();
        let elapsed_s = spans
            .iter()
            .map(|s| secs(s.queue_nanos + s.wall_nanos))
            .fold(0.0, f64::max);
        // Pacing edges: a combo's "[l2p]" piece gates every "[paced]"
        // piece of the same combo (labels are "<combo> [<point>]...").
        let mut baseline: BTreeMap<&str, f64> = BTreeMap::new();
        let mut slowest_paced: BTreeMap<&str, f64> = BTreeMap::new();
        let mut critical_path_s: f64 = 0.0;
        for (span, &wall) in spans.iter().zip(&walls) {
            let combo = span.label.split(" [").next().unwrap_or("");
            if span.label.ends_with("[paced]") {
                let slot = slowest_paced.entry(combo).or_insert(0.0);
                *slot = slot.max(wall);
            } else {
                if span.label.ends_with("[l2p]") {
                    baseline.insert(combo, wall);
                }
                critical_path_s = critical_path_s.max(wall);
            }
        }
        for (combo, paced) in &slowest_paced {
            let chain = baseline.get(combo).copied().unwrap_or(0.0) + paced;
            critical_path_s = critical_path_s.max(chain);
        }
        let n = workers.max(1) as f64;
        ExecSummary {
            pieces: spans.len(),
            busy_s,
            queue_wait_s: ratio(
                spans.iter().map(|s| secs(s.queue_nanos)).sum(),
                spans.len() as f64,
            ),
            elapsed_s,
            utilisation: ratio(busy_s, n * elapsed_s),
            critical_path_s,
            amdahl_ceiling: ratio(busy_s, critical_path_s.max(busy_s / n)),
            unit_p50_s: median(&walls),
            unit_p90_s: quantile(&walls, 0.9),
        }
    }

    pub fn json(&self) -> Json {
        Json::obj(vec![
            ("pieces", Json::Int(self.pieces as u64)),
            ("busy_s", Json::Num(self.busy_s)),
            ("queue_wait_s", Json::Num(self.queue_wait_s)),
            ("elapsed_s", Json::Num(self.elapsed_s)),
            ("utilisation", Json::Num(self.utilisation)),
            ("critical_path_s", Json::Num(self.critical_path_s)),
            ("amdahl_ceiling", Json::Num(self.amdahl_ceiling)),
            ("unit_p50_s", Json::Num(self.unit_p50_s)),
            ("unit_p90_s", Json::Num(self.unit_p90_s)),
        ])
    }
}
