//! JSON codecs for the experiment result types.
//!
//! Hand-written (the environment has no `serde_json`): each stored type
//! writes itself through a streaming [`JsonWriter`] and reads itself from a
//! streaming [`JsonReader`], one [`JsonCodec`] pair per type, with no value
//! tree between. Floats round-trip bit-exactly (see `json`), so a
//! decoded [`SchemeRun`] is `==` to the one that was stored — the
//! property the result cache's acceptance test pins down.
//!
//! Every `write_json` starts by destructuring its struct exhaustively
//! (no `..`) and every `read_json` builds a full struct literal, so a
//! field added to a stored type fails to compile until both directions
//! handle it, and a field dropped from the encoder leaves an unused
//! binding. Encoders hand over an object's members in ascending byte
//! order of their names, which the writer checks: that is the order
//! every committed line has, so re-encoding a decoded line gives back
//! its bytes. The three integer-record types ([`CacheStats`],
//! [`SimCounters`], [`crate::sweep::UnitSpan`]) take their integer
//! members' names from their field names in both directions
//! (`read_u64_struct!`, `write_u64_struct!`). Decoders take members
//! in any order, skip unknown ones (such as the `inputs` string older
//! store lines carry) and keep the last of a repeated one; a missing
//! required member, a value of the wrong kind or an integer that is not
//! exactly one is an error naming its path.

use crate::json::{JsonError, JsonReader, JsonWriter, MAX_EXACT_INT};
use sim_cache::CacheStats;
use sim_cmp::{PeriodSample, SchemeEvent, SchemeEventKind};
use snug_experiments::{SchemeRun, StopReason, TraceSeries};
use snug_metrics::{SimCounters, WALK_DEPTH_BUCKETS};
use std::borrow::Cow;

/// Types storable in the result store.
pub trait JsonCodec: Sized {
    /// Encode as the writer's next value.
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError>;

    /// Decode the reader's next value.
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError>;

    /// Decode a whole JSON document.
    fn from_json_str(text: &str) -> Result<Self, JsonError> {
        let mut r = JsonReader::new(text);
        let v = Self::read_json(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Read a stored integer: finite, integral and in `0..=2^53` (the
/// writer spells integers as floats, `3827149.0`). A fraction, a sign
/// or a larger magnitude is an error, never a lossy cast.
pub fn read_u64(r: &mut JsonReader<'_>) -> Result<u64, JsonError> {
    let x = r.num()?;
    if x.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&x) {
        Ok(x as u64)
    } else {
        Err(JsonError(format!("{x} is not an integer in 0..=2^53")))
    }
}

/// [`read_u64`], bounded to `u32`.
fn read_u32(r: &mut JsonReader<'_>) -> Result<u32, JsonError> {
    let x = read_u64(r)?;
    u32::try_from(x).map_err(|_| JsonError(format!("{x} does not fit in 32 bits")))
}

fn read_string(r: &mut JsonReader<'_>) -> Result<String, JsonError> {
    r.str().map(Cow::into_owned)
}

/// Read an array, each element by `item`.
pub fn read_vec<'a, T>(
    r: &mut JsonReader<'a>,
    mut item: impl FnMut(&mut JsonReader<'a>) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut out = Vec::new();
    r.array(|r| {
        out.push(item(r)?);
        Ok(())
    })?;
    Ok(out)
}

/// The value read for the required member `name`, or an error naming
/// it.
pub fn read_required<T>(slot: Option<T>, name: &str) -> Result<T, JsonError> {
    slot.ok_or_else(|| JsonError(format!("missing field `{name}`")))
}

/// Read an object whose members `names` are required integers, handing
/// every other member to `other`.
fn read_u64_fields<'a, const N: usize>(
    r: &mut JsonReader<'a>,
    names: [&str; N],
    mut other: impl FnMut(&mut JsonReader<'a>, &str) -> Result<(), JsonError>,
) -> Result<[u64; N], JsonError> {
    let mut slots = [None; N];
    r.object(|r, name| {
        match names.iter().zip(&mut slots).find(|(n, _)| **n == name) {
            Some((_, slot)) => *slot = Some(read_u64(r)?),
            None => other(r, name)?,
        }
        Ok(())
    })?;
    let mut out = [0; N];
    for ((out, slot), name) in out.iter_mut().zip(slots).zip(names) {
        *out = read_required(slot, name)?;
    }
    Ok(out)
}

/// Build `Type { field, … }` from the reader's next object: each listed
/// field from the integer member of its own name ([`read_u64_fields`]),
/// each `extra: value` after them, and every other member through
/// `other`. The literal is exhaustive, and member and field names
/// cannot drift apart.
macro_rules! read_u64_struct {
    ($r:expr, $other:expr, $ty:path { $($field:ident),+ $(,)? } $(, $extra:ident: $value:expr)* $(,)?) => {{
        let [$($field),+] = read_u64_fields($r, [$(stringify!($field)),+], $other)?;
        $ty { $($field,)+ $($extra: $value,)* }
    }};
}

/// Write `value`, a `Type { field, … }`, as one object: each listed
/// field as the integer member of its own name and each `extra:
/// member` beside them. The destructuring is exhaustive, and the
/// integer members are named by the same field names
/// [`read_u64_struct!`] reads them by.
macro_rules! write_u64_struct {
    ($w:expr, $value:expr, $ty:path { $($field:ident),+ $(,)? } $(, $extra:ident: $member:expr)* $(,)?) => {{
        let $ty { $($field,)+ $($extra,)* } = $value;
        write_members($w, [$((stringify!($field), Member::Int(*$field)),)+ $((stringify!($extra), $member),)*])
    }};
}

/// A member's value in an object written by [`write_u64_struct!`].
enum Member<'a> {
    Int(u64),
    Str(&'a str),
    Ints(&'a [u64]),
}

/// Write `members` as one object, in ascending order of their names.
fn write_members<const N: usize>(
    w: &mut JsonWriter,
    mut members: [(&'static str, Member<'_>); N],
) -> Result<(), JsonError> {
    members.sort_unstable_by_key(|&(name, _)| name);
    w.object(|o| {
        members.iter().try_for_each(|(name, member)| {
            o.member(name, |w| match member {
                Member::Int(x) => w.int(*x),
                Member::Str(s) => w.str(s),
                Member::Ints(xs) => w.ints(xs),
            })
        })
    })
}

/// The exhaustiveness guarantee, pinned: `write_json` destructures
/// every [`SchemeRun`] field and `read_json` builds a full literal, the
/// forms below. One field short, as both would be against a `SchemeRun`
/// that grew a field, neither compiles:
///
/// ```compile_fail,E0027
/// # use snug_experiments::SchemeRun;
/// fn write_json(run: &SchemeRun) {
///     let SchemeRun { scheme, ipcs, measured_cycles, stop_reason } = run;
/// }
/// ```
///
/// ```compile_fail,E0063
/// # use snug_experiments::SchemeRun;
/// fn read_json() -> SchemeRun {
///     SchemeRun { scheme: String::new(), ipcs: Vec::new(), measured_cycles: None, stop_reason: None }
/// }
/// ```
///
/// With every field they do; a new field fails this example until the
/// codec handles it:
///
/// ```
/// # use snug_experiments::SchemeRun;
/// fn write_json(run: &SchemeRun) {
///     let SchemeRun { scheme, ipcs, measured_cycles, stop_reason, plateaus } = run;
///     let _ = (scheme, ipcs, measured_cycles, stop_reason, plateaus);
/// }
/// fn read_json() -> SchemeRun {
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
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        let SchemeRun {
            scheme,
            ipcs,
            measured_cycles,
            stop_reason,
            plateaus,
        } = self;
        // The optional members are written only when set, so canonical
        // fixed-plan entries render exactly as they always did.
        w.object(|o| {
            o.member("ipcs", |w| w.nums(ipcs))?;
            if let Some(cycles) = measured_cycles {
                o.member("measured_cycles", |w| w.int(*cycles))?;
            }
            if !plateaus.is_empty() {
                o.member("plateaus", |w| w.nums(plateaus))?;
            }
            o.member("scheme", |w| w.str(scheme))?;
            match stop_reason {
                Some(reason) => o.member("stop_reason", |w| w.str(reason.label())),
                None => Ok(()),
            }
        })
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut scheme, mut ipcs, mut measured_cycles, mut stop_reason, mut plateaus) =
            (None, None, None, None, Vec::new());
        r.object(|r, name| {
            match name {
                "scheme" => scheme = Some(read_string(r)?),
                "ipcs" => ipcs = Some(read_vec(r, JsonReader::num)?),
                "measured_cycles" => measured_cycles = Some(read_u64(r)?),
                "stop_reason" => {
                    let label = r.str()?;
                    stop_reason = Some(
                        StopReason::from_label(&label)
                            .ok_or_else(|| JsonError(format!("unknown stop reason `{label}`")))?,
                    );
                }
                "plateaus" => plateaus = read_vec(r, JsonReader::num)?,
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(SchemeRun {
            scheme: read_required(scheme, "scheme")?,
            ipcs: read_required(ipcs, "ipcs")?,
            measured_cycles,
            stop_reason,
            plateaus,
        })
    }
}

impl JsonCodec for CacheStats {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        write_u64_struct!(
            w,
            self,
            CacheStats {
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
            }
        )
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Ok(read_u64_struct!(
            r,
            |r, _| r.skip(),
            CacheStats {
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
            }
        ))
    }
}

impl JsonCodec for SimCounters {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        write_u64_struct!(
            w,
            self,
            SimCounters {
                retired_ops,
                l1i_hits,
                l1i_misses,
                l1d_hits,
                l1d_misses,
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
            },
            l1_walk_depths: Member::Ints(l1_walk_depths),
        )
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let mut depths = None;
        Ok(read_u64_struct!(
            r,
            |r, name| {
                if name != "l1_walk_depths" {
                    return r.skip();
                }
                let buckets = read_vec(r, read_u64)?;
                depths = Some(<[u64; WALK_DEPTH_BUCKETS]>::try_from(buckets).map_err(|b| {
                    JsonError(format!(
                        "expects {WALK_DEPTH_BUCKETS} buckets, got {}",
                        b.len()
                    ))
                })?);
                Ok(())
            },
            SimCounters {
                retired_ops,
                l1i_hits,
                l1i_misses,
                l1d_hits,
                l1d_misses,
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
            },
            l1_walk_depths: read_required(depths, "l1_walk_depths")?,
        ))
    }
}

impl JsonCodec for crate::sweep::UnitSpan {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        write_u64_struct!(
            w,
            self,
            crate::sweep::UnitSpan {
                queue_nanos,
                wall_nanos,
                sim_cycles,
                instructions,
            },
            label: Member::Str(label),
            worker: Member::Int(*worker as u64),
            shard: Member::Str(shard),
        )
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        // Provenance fields arrived with the parallel executor; spans
        // persisted before it decode with no provenance.
        let (mut label, mut worker, mut shard) = (None, 0, String::new());
        Ok(read_u64_struct!(
            r,
            |r, name| {
                match name {
                    "label" => label = Some(read_string(r)?),
                    "worker" => {
                        let w = read_u64(r)?;
                        worker = usize::try_from(w)
                            .map_err(|_| JsonError(format!("{w} does not fit in usize")))?;
                    }
                    "shard" => shard = read_string(r)?,
                    _ => r.skip()?,
                }
                Ok(())
            },
            crate::sweep::UnitSpan {
                queue_nanos,
                wall_nanos,
                sim_cycles,
                instructions,
            },
            label: read_required(label, "label")?,
            worker: worker,
            shard: shard,
        ))
    }
}

impl JsonCodec for SchemeEvent {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        let SchemeEvent {
            cycle,
            kind,
            takers,
        } = self;
        let kind = match kind {
            SchemeEventKind::IdentifyBegin => "identify",
            SchemeEventKind::GroupedBegin => "grouped",
        };
        w.object(|o| {
            o.member("cycle", |w| w.int(*cycle))?;
            o.member("kind", |w| w.str(kind))?;
            o.member("takers", |w| w.array(takers, |w, &t| w.int(t.into())))
        })
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut cycle, mut kind, mut takers) = (None, None, None);
        r.object(|r, name| {
            match name {
                "cycle" => cycle = Some(read_u64(r)?),
                "kind" => {
                    kind = Some(match &*r.str()? {
                        "identify" => SchemeEventKind::IdentifyBegin,
                        "grouped" => SchemeEventKind::GroupedBegin,
                        other => {
                            return Err(JsonError(format!("unknown scheme event kind `{other}`")))
                        }
                    })
                }
                "takers" => takers = Some(read_vec(r, read_u32)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(SchemeEvent {
            cycle: read_required(cycle, "cycle")?,
            kind: read_required(kind, "kind")?,
            takers: read_required(takers, "takers")?,
        })
    }
}

impl JsonCodec for PeriodSample {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
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
        w.object(|o| {
            // Written only when present, so every committed pre-counter
            // series entry renders unchanged.
            if let Some(c) = counters {
                o.member("counters", |w| c.write_json(w))?;
            }
            o.member("cycle", |w| w.int(*cycle))?;
            o.member("cycles", |w| w.ints(cycles))?;
            o.member("during_warmup", |w| w.bool(*during_warmup))?;
            o.member("events", |w| w.array(events, |w, e| e.write_json(w)))?;
            o.member("instructions", |w| w.ints(instructions))?;
            o.member("l2", |w| l2.write_json(w))?;
            // Written only when a shift fired in the interval, so
            // stationary traces (every pre-phase-schedule store entry)
            // render exactly as they always did. Each shift round-trips
            // through its canonical `CYCLE:DIRECTIVE[@CORES]` string.
            if shifts.is_empty() {
                return Ok(());
            }
            o.member("shifts", |w| w.array(shifts, |w, s| w.str(&s.to_string())))
        })
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut cycle, mut during_warmup, mut instructions, mut cycles) = (None, None, None, None);
        let (mut l2, mut events, mut shifts, mut counters) = (None, None, Vec::new(), None);
        r.object(|r, name| {
            match name {
                "cycle" => cycle = Some(read_u64(r)?),
                "during_warmup" => during_warmup = Some(r.bool()?),
                "instructions" => instructions = Some(read_vec(r, read_u64)?),
                "cycles" => cycles = Some(read_vec(r, read_u64)?),
                "l2" => l2 = Some(CacheStats::read_json(r)?),
                "events" => events = Some(read_vec(r, SchemeEvent::read_json)?),
                "shifts" => {
                    shifts = read_vec(r, |r| {
                        r.str()?.parse::<sim_mem::StreamShift>().map_err(JsonError)
                    })?
                }
                "counters" => counters = Some(SimCounters::read_json(r)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(PeriodSample {
            cycle: read_required(cycle, "cycle")?,
            during_warmup: read_required(during_warmup, "during_warmup")?,
            instructions: read_required(instructions, "instructions")?,
            cycles: read_required(cycles, "cycles")?,
            l2: read_required(l2, "l2")?,
            events: read_required(events, "events")?,
            shifts,
            counters,
        })
    }
}

impl JsonCodec for TraceSeries {
    fn write_json(&self, w: &mut JsonWriter) -> Result<(), JsonError> {
        let TraceSeries {
            scheme,
            stride,
            warmup_cycles,
            samples,
        } = self;
        w.object(|o| {
            o.member("samples", |w| w.array(samples, |w, s| s.write_json(w)))?;
            o.member("scheme", |w| w.str(scheme))?;
            o.member("stride", |w| w.int(*stride))?;
            o.member("warmup_cycles", |w| w.int(*warmup_cycles))
        })
    }

    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        let (mut scheme, mut stride, mut warmup_cycles, mut samples) = (None, None, None, None);
        r.object(|r, name| {
            match name {
                "scheme" => scheme = Some(read_string(r)?),
                "stride" => stride = Some(read_u64(r)?),
                "warmup_cycles" => warmup_cycles = Some(read_u64(r)?),
                "samples" => samples = Some(read_vec(r, PeriodSample::read_json)?),
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok(TraceSeries {
            scheme: read_required(scheme, "scheme")?,
            stride: read_required(stride, "stride")?,
            warmup_cycles: read_required(warmup_cycles, "warmup_cycles")?,
            samples: read_required(samples, "samples")?,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sweep::UnitSpan;
    use proptest::prelude::*;
    use std::ops::Range;

    /// `value` encoded as a whole JSON document.
    fn encode<T: JsonCodec>(value: &T) -> String {
        let mut w = JsonWriter::default();
        value.write_json(&mut w).unwrap();
        w.finish()
    }

    /// Encode and decode back.
    fn round_trip<T: JsonCodec>(value: &T) -> T {
        T::from_json_str(&encode(value)).unwrap()
    }

    #[test]
    fn scheme_run_round_trips_bit_identically() {
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
            let text = encode(&run);
            let back = SchemeRun::from_json_str(&text).unwrap();
            assert_eq!(back, run);
            assert_eq!(encode(&back), text);
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
        assert_eq!(encode(&canonical), r#"{"ipcs":[1.0,2.0],"scheme":"l2p"}"#);
    }

    /// The top-level members of `text`.
    fn members(text: &str) -> Vec<Node> {
        nodes(text)
            .into_iter()
            .filter(|n| n.path.len() == 1)
            .collect()
    }

    /// Bump each key of `zero`'s encoding in turn (to 41, or to
    /// `bumped(key)` where given): the decoder must see the change
    /// (every key is read) and re-encoding must reproduce it (every
    /// field is written back), so a field dropped or misnamed on either
    /// side fails its key's iteration. Returns the key count.
    fn assert_every_key_reaches_a_field<T: JsonCodec + PartialEq + std::fmt::Debug>(
        zero: &T,
        bumped: impl Fn(&str) -> Option<String>,
    ) -> usize {
        let text = encode(zero);
        let keys = members(&text);
        for node in &keys {
            let value = bumped(&node.name).unwrap_or_else(|| "41.0".into());
            let edited = replaced(&text, node, &value);
            let decoded = T::from_json_str(&edited).unwrap();
            assert_ne!(&decoded, zero, "key `{}` must reach a field", node.name);
            assert_eq!(encode(&decoded), edited, "{}", node.name);
        }
        keys.len()
    }

    #[test]
    fn sim_counters_codec_covers_every_field_bijectively() {
        let zero = SimCounters::default();
        let mut depths = [0; WALK_DEPTH_BUCKETS];
        depths[WALK_DEPTH_BUCKETS - 1] = 7;
        let mut w = JsonWriter::default();
        w.ints(&depths).unwrap();
        let depths = w.finish();
        let keys = assert_every_key_reaches_a_field(&zero, |key| {
            (key == "l1_walk_depths").then(|| depths.clone())
        });
        assert_eq!(keys, 30, "one JSON key per counter field");
        let text = encode(&zero);
        let node = members(&text)
            .into_iter()
            .find(|n| n.name == "l1_walk_depths")
            .unwrap();
        let err = SimCounters::from_json_str(&replaced(&text, &node, "[1.0]")).unwrap_err();
        assert!(err.0.contains("buckets"), "bucket count: {err}");
    }

    #[test]
    fn cache_stats_codec_covers_every_field_bijectively() {
        let keys = assert_every_key_reaches_a_field(&CacheStats::default(), |_| None);
        assert_eq!(keys, 11, "one JSON key per statistic");
    }

    #[test]
    fn unit_span_round_trips_bit_identically() {
        let span = UnitSpan {
            label: "C5 | ammp+parser+swim+mesa".into(),
            queue_nanos: 12,
            wall_nanos: 3_456_789_012,
            sim_cycles: 9_450_000,
            instructions: 59_428_501,
            worker: 3,
            shard: "worker-3.jsonl".into(),
        };
        let text = encode(&span);
        let back = UnitSpan::from_json_str(&text).unwrap();
        assert_eq!(back, span);
        assert_eq!(encode(&back), text);
        // The throughput helpers stay defined at zero wall time.
        assert_eq!(UnitSpan::default().cycles_per_sec(), 0.0);
        assert_eq!(UnitSpan::default().ops_per_sec(), 0.0);
        // Spans from before parallel provenance decode without it.
        let legacy = r#"{"instructions":4.0,"label":"x","queue_nanos":1.0,"sim_cycles":3.0,"wall_nanos":2.0}"#;
        let legacy = UnitSpan::from_json_str(legacy).unwrap();
        assert_eq!((legacy.worker, legacy.shard.as_str()), (0, ""));
    }

    #[test]
    fn malformed_results_are_rejected() {
        let good = encode(&SchemeRun {
            scheme: "snug".into(),
            ipcs: vec![0.5, 1.25],
            measured_cycles: None,
            stop_reason: None,
            plateaus: Vec::new(),
        });
        assert!(SchemeRun::from_json_str(&good).is_ok());
        let fields = members(&good);
        assert_eq!(fields.len(), 2);
        for node in fields {
            let err = SchemeRun::from_json_str(&without(&good, &node));
            assert_eq!(
                err.unwrap_err().0,
                format!("missing field `{}`", node.name),
                "{}",
                node.name
            );
        }
        let unknown = good.replacen('}', r#","stop_reason":"bored"}"#, 1);
        let err = SchemeRun::from_json_str(&unknown).unwrap_err();
        assert_eq!(err.0, ".stop_reason: unknown stop reason `bored`");
    }

    /// One sample of every stored type, every optional field set: a
    /// converged run, a span, and a two-sample series with counters,
    /// events and shifts.
    pub(crate) fn samples() -> (SchemeRun, UnitSpan, TraceSeries) {
        let run = SchemeRun {
            scheme: "cc@25%".into(),
            ipcs: vec![0.1 + 0.2, 1.0 / 3.0],
            measured_cycles: Some(1_234_567),
            stop_reason: Some(StopReason::Converged),
            plateaus: vec![2.1, 0.7],
        };
        let span = UnitSpan {
            label: "ammp+ammp+ammp+ammp [snug]".into(),
            queue_nanos: 11,
            wall_nanos: 12,
            sim_cycles: 13,
            instructions: 14,
            worker: 3,
            shard: "worker-3.jsonl".into(),
        };
        let sample = |cycle: u64, counters: Option<SimCounters>| PeriodSample {
            cycle,
            during_warmup: counters.is_none(),
            instructions: vec![10, 20],
            cycles: vec![cycle, cycle],
            l2: CacheStats {
                hits: 7,
                misses: 3,
                ..Default::default()
            },
            events: vec![SchemeEvent {
                cycle: 10_000,
                kind: SchemeEventKind::GroupedBegin,
                takers: vec![1, 2],
            }],
            shifts: vec!["30000:demand=200@0,1".parse().unwrap()],
            counters,
        };
        let counters = SimCounters {
            retired_ops: 99,
            l1_walk_depths: [5; WALK_DEPTH_BUCKETS],
            ..Default::default()
        };
        let series = TraceSeries {
            scheme: "snug".into(),
            stride: 50_000,
            warmup_cycles: 50_000,
            samples: vec![sample(50_000, None), sample(100_000, Some(counters))],
        };
        (run, span, series)
    }

    /// One value inside a written document: its path from the root
    /// (member names and array indices), the nearest member name on
    /// that path, whether it is an object member itself (not an array
    /// element) and whether it is a number, with the byte range of the
    /// value and that of the whole member (its name included) or
    /// element.
    pub(crate) struct Node {
        pub(crate) path: Vec<String>,
        pub(crate) name: String,
        pub(crate) member: bool,
        pub(crate) number: bool,
        pub(crate) span: Range<usize>,
        whole: Range<usize>,
    }

    /// Every value below the root of `text`, a document as the writer
    /// spells it (no whitespace), parents before children.
    pub(crate) fn nodes(text: &str) -> Vec<Node> {
        struct Walk<'t> {
            text: &'t str,
            path: Vec<String>,
            out: Vec<Node>,
        }
        impl Walk<'_> {
            fn value(&mut self, r: &mut JsonReader<'_>, name: &str) -> Result<(), JsonError> {
                match self.text.as_bytes()[r.offset()] {
                    b'{' => {
                        let mut whole = r.offset() + 1;
                        r.object(|r, member| {
                            self.child(r, member.to_string(), member, true, whole)?;
                            whole = r.offset() + 1;
                            Ok(())
                        })
                    }
                    b'[' => {
                        let mut i = 0;
                        r.array(|r| {
                            let whole = r.offset();
                            self.child(r, i.to_string(), name, false, whole)?;
                            i += 1;
                            Ok(())
                        })
                    }
                    _ => r.skip(),
                }
            }

            fn child(
                &mut self,
                r: &mut JsonReader<'_>,
                step: String,
                name: &str,
                member: bool,
                whole: usize,
            ) -> Result<(), JsonError> {
                let start = r.offset();
                let first = self.text.as_bytes()[start];
                self.path.push(step);
                let at = self.out.len();
                self.out.push(Node {
                    path: self.path.clone(),
                    name: name.to_string(),
                    member,
                    number: first == b'-' || first.is_ascii_digit(),
                    span: start..start,
                    whole: whole..start,
                });
                self.value(r, name)?;
                self.out[at].span.end = r.offset();
                self.out[at].whole.end = r.offset();
                self.path.pop();
                Ok(())
            }
        }
        let mut walk = Walk {
            text,
            path: Vec::new(),
            out: Vec::new(),
        };
        let mut r = JsonReader::new(text);
        walk.value(&mut r, "").unwrap();
        r.finish().unwrap();
        walk.out
    }

    /// `text` with the value of `node` replaced by `value`.
    pub(crate) fn replaced(text: &str, node: &Node, value: &str) -> String {
        let Range { start, end } = node.span;
        format!("{}{value}{}", &text[..start], &text[end..])
    }

    /// `text` without the member or element `node` and one comma beside
    /// it.
    pub(crate) fn without(text: &str, node: &Node) -> String {
        let Range { mut start, mut end } = node.whole;
        if text.as_bytes()[end] == b',' {
            end += 1;
        } else if text.as_bytes()[start - 1] == b',' {
            start -= 1;
        }
        format!("{}{}", &text[..start], &text[end..])
    }

    /// Every numeric leaf of `text` outside `ipcs` and `plateaus` (the
    /// only float fields of the stored types).
    fn integer_leaves(text: &str) -> Vec<Node> {
        nodes(text)
            .into_iter()
            .filter(|n| n.number && !n.path.iter().any(|s| s == "ipcs" || s == "plateaus"))
            .collect()
    }

    /// Every integer field of every stored type takes exactly the
    /// integers in `0..=2^53` (`0..=u32::MAX` for event takers), in
    /// either spelling; a sign, a fraction or a larger magnitude is an
    /// error naming the field, never a lossy cast.
    #[test]
    fn integer_fields_take_only_exact_integers() {
        fn check<T: JsonCodec + std::fmt::Debug>(value: &T) -> usize {
            let text = encode(value);
            let leaves = integer_leaves(&text);
            for node in &leaves {
                let Node { path, name, .. } = node;
                let decode = |number: &str| T::from_json_str(&replaced(&text, node, number));
                let max = if name == "takers" {
                    "4294967295"
                } else {
                    "9007199254740992"
                };
                for good in ["0", "3827149", "3827149.0", "-0", "1e3", max] {
                    assert!(decode(good).is_ok(), "{path:?} = {good}");
                }
                let too_big = if name == "takers" {
                    "4294967296"
                } else {
                    "9007199254740994"
                };
                for bad in ["-1", "2.5", "1e30", "0.1", too_big] {
                    let err = decode(bad).unwrap_err();
                    assert!(
                        err.0.contains(&format!(".{name}")),
                        "{path:?} = {bad}: {err}"
                    );
                }
            }
            leaves.len()
        }
        let (run, span, series) = samples();
        assert_eq!(check(&run), 1, "measured_cycles");
        assert_eq!(check(&span), 5);
        // Two samples of cycle, two cores' instructions and cycles, 11
        // L2 statistics, an event cycle and two takers; one sample's 29
        // counters and walk-depth buckets; stride and warm-up.
        assert_eq!(
            check(&series),
            2 * (1 + 2 + 2 + 11 + 1 + 2) + 29 + WALK_DEPTH_BUCKETS + 2
        );
    }

    /// Draws test values from a proptest-supplied word stream.
    struct Draw<'w>(std::slice::Iter<'w, u64>);

    impl Draw<'_> {
        fn word(&mut self) -> u64 {
            self.0.next().copied().unwrap_or(0x9e37_79b9_7f4a_7c15)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.word() % n
        }
        fn int(&mut self) -> u64 {
            // Small, large and the extremes of the exact range.
            match self.below(4) {
                0 => self.below(100),
                1 => 1 << 53,
                _ => self.below((1 << 53) + 1),
            }
        }
        fn f64(&mut self) -> f64 {
            Some(f64::from_bits(self.word()))
                .filter(|x| x.is_finite())
                .unwrap_or(-0.0)
        }
        fn string(&mut self) -> String {
            const TRICKY: &[char] = &['"', '\\', '\n', '\u{1}', '/', 'a', 'é', '\u{10348}'];
            (0..self.below(8))
                .map(|_| match self.below(TRICKY.len() as u64 + 1) as usize {
                    i if i < TRICKY.len() => TRICKY[i],
                    _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
                })
                .collect()
        }
        fn vec<T>(&mut self, max: u64, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            (0..self.below(max + 1)).map(|_| item(self)).collect()
        }
        fn counts<const N: usize>(&mut self) -> [u64; N] {
            std::array::from_fn(|_| self.int())
        }
    }

    fn draw_run(d: &mut Draw<'_>) -> SchemeRun {
        SchemeRun {
            scheme: d.string(),
            ipcs: d.vec(4, Draw::f64),
            measured_cycles: (d.below(2) == 0).then(|| d.int()),
            stop_reason: [None, Some(StopReason::Converged), Some(StopReason::Ceiling)]
                [d.below(3) as usize],
            plateaus: d.vec(3, Draw::f64),
        }
    }

    fn draw_series(d: &mut Draw<'_>) -> TraceSeries {
        let stats = |d: &mut Draw<'_>| {
            let [hits, misses, cc_hits, evictions, writebacks, spills_out, spills_in, forwards, retrieved_from_peer, shadow_hits, write_buffer_hits] =
                d.counts();
            CacheStats {
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
            }
        };
        let counters = |d: &mut Draw<'_>| {
            let [retired_ops, l2_hits, dram_reads, bus_queue_cycles, core_dep_stall_cycles] =
                d.counts();
            SimCounters {
                retired_ops,
                l2_hits,
                dram_reads,
                bus_queue_cycles,
                core_dep_stall_cycles,
                l1_walk_depths: d.counts(),
                ..Default::default()
            }
        };
        let shifts = ["1:streaming", "30000:demand=200@0,1", "7:near=50@3"];
        TraceSeries {
            scheme: d.string(),
            stride: d.int(),
            warmup_cycles: d.int(),
            samples: d.vec(3, |d| PeriodSample {
                cycle: d.int(),
                during_warmup: d.below(2) == 0,
                instructions: d.vec(4, Draw::int),
                cycles: d.vec(4, Draw::int),
                l2: stats(d),
                events: d.vec(2, |d| SchemeEvent {
                    cycle: d.int(),
                    kind: [
                        SchemeEventKind::IdentifyBegin,
                        SchemeEventKind::GroupedBegin,
                    ][d.below(2) as usize],
                    takers: d.vec(4, |d| d.word() as u32),
                }),
                shifts: d.vec(2, |d| shifts[d.below(3) as usize].parse().unwrap()),
                counters: (d.below(2) == 0).then(|| counters(d)),
            }),
        }
    }

    proptest! {
        /// Every stored type survives render → decode: runs with IPCs
        /// compared bit for bit (`-0.0`, subnormals, extremes), spans
        /// and series with integers across the exact range and strings
        /// full of escapes and multi-byte characters.
        #[test]
        fn stored_types_round_trip_through_the_reader(
            words in proptest::collection::vec(0u64..=u64::MAX, 1024..1025)
        ) {
            let mut d = Draw(words.iter());
            let run = draw_run(&mut d);
            let back = round_trip(&run);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&back.ipcs), bits(&run.ipcs));
            prop_assert_eq!(bits(&back.plateaus), bits(&run.plateaus));
            prop_assert_eq!(back, run);
            let span = UnitSpan {
                label: d.string(),
                queue_nanos: d.int(),
                wall_nanos: d.int(),
                sim_cycles: d.int(),
                instructions: d.int(),
                worker: d.below(64) as usize,
                shard: d.string(),
            };
            prop_assert_eq!(round_trip(&span), span);
            let series = draw_series(&mut d);
            prop_assert_eq!(round_trip(&series), series);
        }
    }
}
