//! JSON codecs for the experiment result types.
//!
//! Hand-written (the environment has no `serde_json`): each codec maps a
//! result type to/from [`crate::json::Value`]. Floats round-trip
//! bit-exactly (see `json`), so a decoded [`SchemeRun`] is `==` to the
//! one that was stored — the property the result cache's acceptance test
//! pins down.
//!
//! Every `to_json` starts by destructuring its struct exhaustively (no
//! `..`) and every `from_json` builds a full struct literal, so a field
//! added to a stored type fails to compile until both directions handle
//! it, and a field dropped from the encoder leaves an unused binding.

use crate::json::{JsonError, Value};
use sim_cache::CacheStats;
use sim_cmp::{PeriodSample, SchemeEvent, SchemeEventKind};
use snug_experiments::{SchemeRun, TraceSeries};
use snug_metrics::{SimCounters, WALK_DEPTH_BUCKETS};

/// Types storable in the result store.
pub trait JsonCodec: Sized {
    /// Encode to a JSON value.
    fn to_json(&self) -> Value;
    /// Decode from a JSON value.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

fn f64_vec(v: &Value) -> Result<Vec<f64>, JsonError> {
    v.as_arr()?.iter().map(Value::as_num).collect()
}

fn f64_arr(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::num(x)).collect())
}

/// The exhaustiveness guarantee, pinned: `to_json` destructures every
/// [`SchemeRun`] field and `from_json` builds a full literal, the forms
/// below. One field short, as both would be against a `SchemeRun` that
/// grew a field, neither compiles:
///
/// ```compile_fail,E0027
/// # use snug_experiments::SchemeRun;
/// fn to_json(run: &SchemeRun) {
///     let SchemeRun { scheme, ipcs, measured_cycles, stop_reason } = run;
/// }
/// ```
///
/// ```compile_fail,E0063
/// # use snug_experiments::SchemeRun;
/// fn from_json() -> SchemeRun {
///     SchemeRun { scheme: String::new(), ipcs: Vec::new(), measured_cycles: None, stop_reason: None }
/// }
/// ```
///
/// With every field they do; a new field fails this example until the
/// codec handles it:
///
/// ```
/// # use snug_experiments::SchemeRun;
/// fn to_json(run: &SchemeRun) {
///     let SchemeRun { scheme, ipcs, measured_cycles, stop_reason, plateaus } = run;
///     let _ = (scheme, ipcs, measured_cycles, stop_reason, plateaus);
/// }
/// fn from_json() -> SchemeRun {
///     SchemeRun {
///         scheme: String::new(),
///         ipcs: Vec::new(),
///         measured_cycles: None,
///         stop_reason: None,
///         plateaus: Vec::new(),
///     }
/// }
/// ```
impl JsonCodec for SchemeRun {
    fn to_json(&self) -> Value {
        let SchemeRun {
            scheme,
            ipcs,
            measured_cycles,
            stop_reason,
            plateaus,
        } = self;
        let mut fields = vec![("scheme", Value::str(scheme)), ("ipcs", f64_arr(ipcs))];
        // The optional fields are written only when set, so canonical
        // fixed-plan entries render exactly as they always did.
        if let Some(cycles) = measured_cycles {
            fields.push(("measured_cycles", Value::num(*cycles as f64)));
        }
        if let Some(reason) = stop_reason {
            fields.push(("stop_reason", Value::str(reason.label())));
        }
        if !plateaus.is_empty() {
            fields.push(("plateaus", f64_arr(plateaus)));
        }
        Value::obj(fields)
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(SchemeRun {
            scheme: v.get("scheme")?.as_str()?.to_string(),
            ipcs: f64_vec(v.get("ipcs")?)?,
            measured_cycles: match v.get("measured_cycles") {
                Ok(c) => Some(c.as_num()? as u64),
                Err(_) => None,
            },
            stop_reason: match v.get("stop_reason") {
                Ok(r) => {
                    let label = r.as_str()?;
                    Some(
                        snug_experiments::StopReason::from_label(label)
                            .ok_or_else(|| JsonError(format!("unknown stop reason `{label}`")))?,
                    )
                }
                Err(_) => None,
            },
            plateaus: match v.get("plateaus") {
                Ok(p) => f64_vec(p)?,
                Err(_) => Vec::new(),
            },
        })
    }
}

fn u64_vec(v: &Value) -> Result<Vec<u64>, JsonError> {
    v.as_arr()?
        .iter()
        .map(|x| x.as_num().map(|n| n as u64))
        .collect()
}

fn u64_arr(xs: &[u64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::num(x as f64)).collect())
}

impl JsonCodec for CacheStats {
    fn to_json(&self) -> Value {
        let CacheStats {
            hits,
            misses,
            cc_hits,
            evictions,
            writebacks,
            spills_out,
            spills_in,
            forwards,
            retrieved_from_peer,
            shadow_hits,
            write_buffer_hits,
        } = *self;
        let n = |x: u64| Value::num(x as f64);
        Value::obj(vec![
            ("hits", n(hits)),
            ("misses", n(misses)),
            ("cc_hits", n(cc_hits)),
            ("evictions", n(evictions)),
            ("writebacks", n(writebacks)),
            ("spills_out", n(spills_out)),
            ("spills_in", n(spills_in)),
            ("forwards", n(forwards)),
            ("retrieved_from_peer", n(retrieved_from_peer)),
            ("shadow_hits", n(shadow_hits)),
            ("write_buffer_hits", n(write_buffer_hits)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let field = |name: &str| -> Result<u64, JsonError> { Ok(v.get(name)?.as_num()? as u64) };
        Ok(CacheStats {
            hits: field("hits")?,
            misses: field("misses")?,
            cc_hits: field("cc_hits")?,
            evictions: field("evictions")?,
            writebacks: field("writebacks")?,
            spills_out: field("spills_out")?,
            spills_in: field("spills_in")?,
            forwards: field("forwards")?,
            retrieved_from_peer: field("retrieved_from_peer")?,
            shadow_hits: field("shadow_hits")?,
            write_buffer_hits: field("write_buffer_hits")?,
        })
    }
}

impl JsonCodec for SimCounters {
    fn to_json(&self) -> Value {
        let SimCounters {
            retired_ops,
            l1i_hits,
            l1i_misses,
            l1d_hits,
            l1d_misses,
            l1_walk_depths,
            l2_hits,
            l2_misses,
            l2_cc_hits,
            l2_evictions,
            l2_writebacks,
            spills_out,
            spills_in,
            forwards,
            retrieved_from_peer,
            shadow_hits,
            write_buffer_hits,
            org_accesses,
            org_writebacks,
            relatches,
            identifies,
            bus_address_transactions,
            bus_data_transactions,
            bus_queue_cycles,
            dram_reads,
            dram_writes,
            dram_queue_cycles,
            core_rob_stall_cycles,
            core_mshr_stall_cycles,
            core_dep_stall_cycles,
        } = *self;
        let n = |x: u64| Value::num(x as f64);
        Value::obj(vec![
            ("retired_ops", n(retired_ops)),
            ("l1i_hits", n(l1i_hits)),
            ("l1i_misses", n(l1i_misses)),
            ("l1d_hits", n(l1d_hits)),
            ("l1d_misses", n(l1d_misses)),
            ("l1_walk_depths", u64_arr(&l1_walk_depths)),
            ("l2_hits", n(l2_hits)),
            ("l2_misses", n(l2_misses)),
            ("l2_cc_hits", n(l2_cc_hits)),
            ("l2_evictions", n(l2_evictions)),
            ("l2_writebacks", n(l2_writebacks)),
            ("spills_out", n(spills_out)),
            ("spills_in", n(spills_in)),
            ("forwards", n(forwards)),
            ("retrieved_from_peer", n(retrieved_from_peer)),
            ("shadow_hits", n(shadow_hits)),
            ("write_buffer_hits", n(write_buffer_hits)),
            ("org_accesses", n(org_accesses)),
            ("org_writebacks", n(org_writebacks)),
            ("relatches", n(relatches)),
            ("identifies", n(identifies)),
            ("bus_address_transactions", n(bus_address_transactions)),
            ("bus_data_transactions", n(bus_data_transactions)),
            ("bus_queue_cycles", n(bus_queue_cycles)),
            ("dram_reads", n(dram_reads)),
            ("dram_writes", n(dram_writes)),
            ("dram_queue_cycles", n(dram_queue_cycles)),
            ("core_rob_stall_cycles", n(core_rob_stall_cycles)),
            ("core_mshr_stall_cycles", n(core_mshr_stall_cycles)),
            ("core_dep_stall_cycles", n(core_dep_stall_cycles)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let field = |name: &str| -> Result<u64, JsonError> { Ok(v.get(name)?.as_num()? as u64) };
        let depths = u64_vec(v.get("l1_walk_depths")?)?;
        if depths.len() != WALK_DEPTH_BUCKETS {
            return Err(JsonError(format!(
                "l1_walk_depths expects {WALK_DEPTH_BUCKETS} buckets, got {}",
                depths.len()
            )));
        }
        let mut l1_walk_depths = [0u64; WALK_DEPTH_BUCKETS];
        l1_walk_depths.copy_from_slice(&depths);
        Ok(SimCounters {
            retired_ops: field("retired_ops")?,
            l1i_hits: field("l1i_hits")?,
            l1i_misses: field("l1i_misses")?,
            l1d_hits: field("l1d_hits")?,
            l1d_misses: field("l1d_misses")?,
            l1_walk_depths,
            l2_hits: field("l2_hits")?,
            l2_misses: field("l2_misses")?,
            l2_cc_hits: field("l2_cc_hits")?,
            l2_evictions: field("l2_evictions")?,
            l2_writebacks: field("l2_writebacks")?,
            spills_out: field("spills_out")?,
            spills_in: field("spills_in")?,
            forwards: field("forwards")?,
            retrieved_from_peer: field("retrieved_from_peer")?,
            shadow_hits: field("shadow_hits")?,
            write_buffer_hits: field("write_buffer_hits")?,
            org_accesses: field("org_accesses")?,
            org_writebacks: field("org_writebacks")?,
            relatches: field("relatches")?,
            identifies: field("identifies")?,
            bus_address_transactions: field("bus_address_transactions")?,
            bus_data_transactions: field("bus_data_transactions")?,
            bus_queue_cycles: field("bus_queue_cycles")?,
            dram_reads: field("dram_reads")?,
            dram_writes: field("dram_writes")?,
            dram_queue_cycles: field("dram_queue_cycles")?,
            core_rob_stall_cycles: field("core_rob_stall_cycles")?,
            core_mshr_stall_cycles: field("core_mshr_stall_cycles")?,
            core_dep_stall_cycles: field("core_dep_stall_cycles")?,
        })
    }
}

impl JsonCodec for crate::sweep::UnitSpan {
    fn to_json(&self) -> Value {
        let crate::sweep::UnitSpan {
            label,
            queue_nanos,
            wall_nanos,
            sim_cycles,
            instructions,
            worker,
            shard,
        } = self;
        let n = |x: u64| Value::num(x as f64);
        Value::obj(vec![
            ("label", Value::str(label)),
            ("queue_nanos", n(*queue_nanos)),
            ("wall_nanos", n(*wall_nanos)),
            ("sim_cycles", n(*sim_cycles)),
            ("instructions", n(*instructions)),
            ("worker", n(*worker as u64)),
            ("shard", Value::str(shard)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let field = |name: &str| -> Result<u64, JsonError> { Ok(v.get(name)?.as_num()? as u64) };
        Ok(crate::sweep::UnitSpan {
            label: v.get("label")?.as_str()?.to_string(),
            queue_nanos: field("queue_nanos")?,
            wall_nanos: field("wall_nanos")?,
            sim_cycles: field("sim_cycles")?,
            instructions: field("instructions")?,
            // Provenance fields arrived with the parallel executor;
            // spans persisted before it decode with no provenance.
            worker: field("worker").unwrap_or(0) as usize,
            shard: v
                .get("shard")
                .ok()
                .and_then(|s| s.as_str().ok())
                .unwrap_or_default()
                .to_string(),
        })
    }
}

impl JsonCodec for SchemeEvent {
    fn to_json(&self) -> Value {
        let SchemeEvent {
            cycle,
            kind,
            takers,
        } = self;
        let kind = match kind {
            SchemeEventKind::IdentifyBegin => "identify",
            SchemeEventKind::GroupedBegin => "grouped",
        };
        Value::obj(vec![
            ("cycle", Value::num(*cycle as f64)),
            ("kind", Value::str(kind)),
            (
                "takers",
                Value::Arr(takers.iter().map(|&t| Value::num(t as f64)).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let kind = match v.get("kind")?.as_str()? {
            "identify" => SchemeEventKind::IdentifyBegin,
            "grouped" => SchemeEventKind::GroupedBegin,
            other => return Err(JsonError(format!("unknown scheme event kind `{other}`"))),
        };
        Ok(SchemeEvent {
            cycle: v.get("cycle")?.as_num()? as u64,
            kind,
            takers: v
                .get("takers")?
                .as_arr()?
                .iter()
                .map(|x| x.as_num().map(|n| n as u32))
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

impl JsonCodec for PeriodSample {
    fn to_json(&self) -> Value {
        let PeriodSample {
            cycle,
            during_warmup,
            instructions,
            cycles,
            l2,
            events,
            shifts,
            counters,
        } = self;
        let mut fields = vec![
            ("cycle", Value::num(*cycle as f64)),
            ("during_warmup", Value::Bool(*during_warmup)),
            ("instructions", u64_arr(instructions)),
            ("cycles", u64_arr(cycles)),
            ("l2", l2.to_json()),
            (
                "events",
                Value::Arr(events.iter().map(JsonCodec::to_json).collect()),
            ),
        ];
        // Written only when a shift fired in the interval, so
        // stationary traces (every pre-phase-schedule store entry)
        // render exactly as they always did. Each shift round-trips
        // through its canonical `CYCLE:DIRECTIVE[@CORES]` string.
        if !shifts.is_empty() {
            fields.push((
                "shifts",
                Value::Arr(shifts.iter().map(|s| Value::str(s.to_string())).collect()),
            ));
        }
        // Same only-when-present discipline: every committed
        // pre-counter series entry renders unchanged.
        if let Some(c) = counters {
            fields.push(("counters", c.to_json()));
        }
        Value::obj(fields)
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        let shifts = match v.get("shifts") {
            Ok(list) => list
                .as_arr()?
                .iter()
                .map(|s| {
                    s.as_str()?
                        .parse::<sim_mem::StreamShift>()
                        .map_err(JsonError)
                })
                .collect::<Result<Vec<_>, _>>()?,
            Err(_) => Vec::new(),
        };
        Ok(PeriodSample {
            cycle: v.get("cycle")?.as_num()? as u64,
            during_warmup: v.get("during_warmup")?.as_bool()?,
            instructions: u64_vec(v.get("instructions")?)?,
            cycles: u64_vec(v.get("cycles")?)?,
            l2: CacheStats::from_json(v.get("l2")?)?,
            events: v
                .get("events")?
                .as_arr()?
                .iter()
                .map(SchemeEvent::from_json)
                .collect::<Result<Vec<_>, _>>()?,
            shifts,
            counters: match v.get("counters") {
                Ok(c) => Some(SimCounters::from_json(c)?),
                Err(_) => None,
            },
        })
    }
}

impl JsonCodec for TraceSeries {
    fn to_json(&self) -> Value {
        let TraceSeries {
            scheme,
            stride,
            warmup_cycles,
            samples,
        } = self;
        Value::obj(vec![
            ("scheme", Value::str(scheme)),
            ("stride", Value::num(*stride as f64)),
            ("warmup_cycles", Value::num(*warmup_cycles as f64)),
            (
                "samples",
                Value::Arr(samples.iter().map(JsonCodec::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(TraceSeries {
            scheme: v.get("scheme")?.as_str()?.to_string(),
            stride: v.get("stride")?.as_num()? as u64,
            warmup_cycles: v.get("warmup_cycles")?.as_num()? as u64,
            samples: v
                .get("samples")?
                .as_arr()?
                .iter()
                .map(PeriodSample::from_json)
                .collect::<Result<Vec<_>, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_run_round_trips_bit_identically() {
        use snug_experiments::StopReason;
        let cases = [
            (None, None, Vec::new()),
            (Some(1_234_567u64), Some(StopReason::Converged), Vec::new()),
            (None, Some(StopReason::Ceiling), Vec::new()),
            (
                Some(1_500_000),
                Some(StopReason::Converged),
                vec![2.1, 1.0 / 3.0],
            ),
        ];
        for (measured_cycles, stop_reason, plateaus) in cases {
            let run = SchemeRun {
                scheme: "cc@25%".into(),
                ipcs: vec![0.1 + 0.2, 1.0 / 3.0, 0.7],
                measured_cycles,
                stop_reason,
                plateaus: plateaus.clone(),
            };
            let text = run.to_json().render().unwrap();
            let back = SchemeRun::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, run);
            assert_eq!(back.to_json().render().unwrap(), text);
            assert_eq!(
                text.contains("measured_cycles"),
                measured_cycles.is_some(),
                "the field only appears for early-stopped runs"
            );
            assert_eq!(
                text.contains("stop_reason"),
                stop_reason.is_some(),
                "the field only appears on early-exit-capable runs"
            );
            assert_eq!(
                text.contains("plateaus"),
                !plateaus.is_empty(),
                "the field only appears on re-convergence runs"
            );
        }
        // Canonical fixed-plan entries render exactly as before the
        // stop-reason field existed: scheme + ipcs only.
        let canonical = SchemeRun {
            scheme: "l2p".into(),
            ipcs: vec![1.0, 2.0],
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        };
        let legacy_form = Value::obj(vec![
            ("scheme", Value::str("l2p")),
            ("ipcs", f64_arr(&[1.0, 2.0])),
        ]);
        assert_eq!(
            canonical.to_json().render().unwrap(),
            legacy_form.render().unwrap()
        );
    }

    #[test]
    fn sim_counters_codec_covers_every_field_bijectively() {
        let zero = SimCounters::default();
        let keys: Vec<String> = zero.to_json().as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys.len(), 30, "one JSON key per counter field");
        // Bump each key in turn: the decoder must see the change (every
        // key is read) and re-encoding must reproduce it (every field
        // is written back) — a field silently dropped on either side
        // fails its key's iteration.
        for key in &keys {
            let mut obj = zero.to_json().as_obj().unwrap().clone();
            let bumped = if key == "l1_walk_depths" {
                let mut depths = vec![Value::num(0.0); WALK_DEPTH_BUCKETS];
                depths[WALK_DEPTH_BUCKETS - 1] = Value::num(7.0);
                Value::Arr(depths)
            } else {
                Value::num(41.0)
            };
            obj.insert(key.clone(), bumped);
            let mutated = Value::Obj(obj);
            let decoded = SimCounters::from_json(&mutated).unwrap();
            assert_ne!(decoded, zero, "key `{key}` must reach a field");
            assert_eq!(
                decoded.to_json().render().unwrap(),
                mutated.render().unwrap(),
                "{key}"
            );
        }
        let short = Value::obj(vec![("l1_walk_depths", f64_arr(&[1.0]))]);
        assert!(SimCounters::from_json(&short).is_err(), "bucket count");
    }

    #[test]
    fn unit_span_round_trips_bit_identically() {
        let span = crate::sweep::UnitSpan {
            label: "C5 | ammp+parser+swim+mesa".into(),
            queue_nanos: 12,
            wall_nanos: 3_456_789_012,
            sim_cycles: 9_450_000,
            instructions: 59_428_501,
            worker: 3,
            shard: "worker-3.jsonl".into(),
        };
        let text = span.to_json().render().unwrap();
        let back = crate::sweep::UnitSpan::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, span);
        assert_eq!(back.to_json().render().unwrap(), text);
        // The throughput helpers stay defined at zero wall time.
        assert_eq!(crate::sweep::UnitSpan::default().cycles_per_sec(), 0.0);
        assert_eq!(crate::sweep::UnitSpan::default().ops_per_sec(), 0.0);
    }

    #[test]
    fn malformed_results_are_rejected() {
        let good = SchemeRun {
            scheme: "snug".into(),
            ipcs: vec![0.5, 1.25],
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        }
        .to_json();
        assert!(SchemeRun::from_json(&good).is_ok());
        for field in ["scheme", "ipcs"] {
            let mut missing = good.as_obj().unwrap().clone();
            missing.remove(field);
            assert!(
                SchemeRun::from_json(&Value::Obj(missing)).is_err(),
                "{field}"
            );
        }
    }
}
