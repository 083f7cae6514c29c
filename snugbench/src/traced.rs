//! The traced run (`--trace 1`): per-layer metrics.
//!
//! 1. The harness layer, untraced: the workload's sweep through
//!    `run_sweep` into an empty store (the reference results, the
//!    executor's `UnitSpan`s) — or, for `warm-report`, cache-served
//!    report passes timed phase by phase.
//! 2. The kernel ladder ([`crate::ladder`]) over the same units: plain,
//!    traced and replay passes, repeated in rounds while the time budget
//!    allows another (at least one); the metrics sum over every round.
//!    `warm-report` executes no units, so its ladder runs over
//!    `mid-cold`'s units (the `--mid` class C3, 27 units, every scheme
//!    point) as a fixed kernel probe; those layer numbers should not
//!    move under harness-only changes.
//! 3. Integrity: traced = plain bit for bit; with the default seed both
//!    equal the sweep, which equals the committed store; the replay's
//!    L1 misses equal the organisation calls core by core; and the
//!    layer self times reconcile with the traced pass's wall time.

use crate::exec::ExecSummary;
use crate::ladder::{self, run_pass, OrgTrace, PassOut, ReplayOut, Span, UnitOut};
use crate::oracle::same_run;
use crate::record::{median, ratio, Json, Metrics};
use crate::{sweep, Ctx, Outcome, Workload};
use snug_harness::UnitJob;
use std::collections::BTreeMap;
use std::time::Instant;

/// The five organisations, as `L2Org::name` reports them.
const SCHEMES: [&str; 5] = ["L2P", "L2S", "CC", "DSR", "SNUG"];

/// Largest share of the traced pass's worker time that may fall
/// outside every recorded span.
const UNATTRIBUTED_BOUND: f64 = 0.10;

/// One unit that passed every integrity check, as each pass saw it.
struct Checked<'a> {
    plain: &'a UnitOut,
    traced: &'a UnitOut,
    org: &'a OrgTrace,
    replay: &'a ReplayOut,
}

/// Timings of the harness layer, per workload.
struct HarnessLayer {
    open_s: f64,
    plan_s: f64,
    lookup_s: f64,
    render_s: f64,
    cache_hit_ratio: f64,
}

pub fn run(ctx: &Ctx, workload: Workload) -> Result<Outcome, String> {
    let origin = Instant::now();
    let kernel_spec = match workload {
        Workload::MidCold | Workload::WarmReport => crate::cold_part(crate::mid_spec()),
        Workload::ShiftReconverge => crate::cold_part(crate::shifted_spec()),
    };
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;

    // 1. The harness layer.
    let sweep = sweep::sweep(&kernel_spec, &ctx.work.join("store"), ctx.jobs, &ctx.oracle)?;
    failures.extend(sweep.failures.iter().cloned());
    let exec = ExecSummary::from_spans(&sweep.spans, ctx.jobs);
    let harness = match workload {
        Workload::WarmReport => {
            let report = crate::report_workload(ctx)?;
            report.pass()?;
            let passes = crate::timed_passes(&report, ctx.seconds / 2.0)?;
            attempted += passes.len() as u64;
            for p in &passes {
                failures.extend(p.failures.iter().cloned());
            }
            let med = |f: fn(&crate::report::Pass) -> f64| {
                median(&passes.iter().map(f).collect::<Vec<_>>())
            };
            HarnessLayer {
                open_s: med(|p| p.open_s),
                plan_s: med(|p| p.plan_s),
                lookup_s: med(|p| p.lookup_s),
                render_s: med(|p| p.render_s),
                cache_hit_ratio: ratio(
                    passes.iter().map(|p| p.hits as f64).sum(),
                    passes.iter().map(|p| p.lookups as f64).sum(),
                ),
            }
        }
        _ => HarnessLayer {
            open_s: sweep.open_s,
            plan_s: sweep.plan_s,
            lookup_s: sweep.lookup_s,
            render_s: sweep.render_s,
            cache_hit_ratio: ratio(sweep.hits as f64, sweep.total as f64),
        },
    };

    // 2. The kernel ladder, round after round while the time budget
    //    allows another (at least one).
    let units: Vec<UnitJob> = kernel_spec.unit_jobs();
    let seed = ctx.seed;
    let ladder_start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        rounds.push(round(&units, ctx.jobs, origin, seed));
        let per_round = ladder_start.elapsed().as_secs_f64() / rounds.len() as f64;
        if origin.elapsed().as_secs_f64() + per_round > ctx.seconds {
            break;
        }
    }
    attempted += (units.len() * rounds.len()) as u64;

    // 3. Integrity, unit by unit.
    let mut good: Vec<Checked> = Vec::new();
    for r in &rounds {
        for (i, job) in units.iter().enumerate() {
            match check_unit(job, i, &sweep, &r.plain, &r.traced, &r.replay, seed) {
                Ok(checked) => good.push(checked),
                Err(e) => failures.push(e),
            }
        }
    }

    let mut m = Metrics::default();
    let n = good.len();
    let sum = |f: &dyn Fn(&Checked) -> u64| -> f64 { good.iter().map(f).sum::<u64>() as f64 };
    let ops = sum(&|g| g.replay.ops);
    let l1_accesses = sum(&|g| g.replay.l1_accesses);
    m.put(
        "workloads.next_op_ns",
        "ns",
        ratio(sum(&|g| g.replay.gen_ns), ops),
        n,
    );
    m.put("workloads.ops", "count", ops, n);
    m.put(
        "sim-cache.l1_access_ns",
        "ns",
        ratio(sum(&|g| g.replay.l1_ns), l1_accesses),
        n,
    );
    m.put(
        "sim-cache.l1_hit_ratio",
        "ratio",
        ratio(sum(&|g| g.replay.l1_hits), l1_accesses),
        n,
    );

    let mut per_scheme: BTreeMap<&str, (f64, f64, f64, usize)> = BTreeMap::new();
    for g in &good {
        let slot = per_scheme.entry(g.traced.scheme).or_default();
        slot.0 += g.org.total_ns as f64;
        slot.1 += g.org.calls() as f64;
        slot.2 += (g.traced.warm_ns + g.traced.measure_ns) as f64;
        slot.3 += 1;
    }
    for scheme in SCHEMES {
        let (org_ns, calls, session_ns, units) =
            per_scheme.get(scheme).copied().unwrap_or_default();
        m.put(
            format!("core.l2_call_ns.{scheme}"),
            "ns",
            ratio(org_ns, calls),
            units,
        );
        m.put(format!("core.l2_calls.{scheme}"), "count", calls, units);
        m.put(
            format!("core.l2_share.{scheme}"),
            "ratio",
            ratio(org_ns, session_ns),
            units,
        );
    }
    m.put(
        "sim-mem.dram_accesses",
        "count",
        sum(&|g| g.plain.dram_accesses),
        n,
    );
    m.put(
        "sim-cmp.bus_transactions",
        "count",
        sum(&|g| g.plain.bus_transactions),
        n,
    );

    // Layer self times over the traced passes (worker-nanoseconds).
    let span_sum = |name: &str| -> f64 {
        rounds
            .iter()
            .flat_map(|r| &r.traced.spans)
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let pass_sum = |f: fn(&Round) -> f64| -> f64 { rounds.iter().map(f).sum() };
    let windows = sum(&|g| g.traced.warm_ns + g.traced.measure_ns);
    let org_ns = sum(&|g| g.org.total_ns);
    let gen_ns = sum(&|g| g.replay.gen_ns);
    let l1_ns = sum(&|g| g.replay.l1_ns);
    let sim_cmp_self = windows - org_ns - gen_ns - l1_ns;
    let idle = span_sum("idle");
    let unit_spans = span_sum("unit");
    let build = span_sum("build");
    let experiments_self = unit_spans - build - span_sum("warmup") - span_sum("measure");
    let worker_ns = pass_sum(|r| r.traced.workers as f64 * r.traced.wall_ns as f64);
    let unattributed = worker_ns - (idle + unit_spans);
    let unattributed_share = ratio(unattributed, worker_ns);
    let self_times = vec![
        ("harness.exec", idle),
        ("experiments", experiments_self),
        ("sim-cmp.build", build),
        ("sim-cmp", sim_cmp_self),
        ("core", org_ns),
        ("workloads", gen_ns),
        ("sim-cache", l1_ns),
        ("unattributed", unattributed),
    ];
    if unattributed_share.abs() > UNATTRIBUTED_BOUND || sim_cmp_self < 0.0 {
        failures.push(format!(
            "trace does not reconcile: unattributed share {unattributed_share:.4} \
             (bound {UNATTRIBUTED_BOUND}), sim-cmp self {sim_cmp_self:.0} ns"
        ));
    }

    let plain_measure = sum(&|g| g.plain.measure_ns);
    let plain_warm = sum(&|g| g.plain.warm_ns);
    m.put(
        "sim-cmp.ns_per_op",
        "ns",
        ratio(plain_measure, sum(&|g| g.plain.retired_ops)),
        n,
    );
    m.put("sim-cmp.self_ns_per_op", "ns", ratio(sim_cmp_self, ops), n);
    m.put(
        "sim-cmp.warmup_share",
        "ratio",
        ratio(plain_warm, plain_warm + plain_measure),
        n,
    );
    m.put(
        "sim-cmp.build_ms",
        "ms",
        ratio(sum(&|g| g.plain.build_ns), n as f64) / 1e6,
        n,
    );
    m.put("experiments.unit_s.p50", "s", exec.unit_p50_s, exec.pieces);
    m.put("experiments.unit_s.p90", "s", exec.unit_p90_s, exec.pieces);
    m.put("harness.plan_s", "s", harness.plan_s, 1);
    m.put("harness.store_open_s", "s", harness.open_s, 1);
    m.put("harness.lookup_s", "s", harness.lookup_s, 1);
    m.put("harness.render_s", "s", harness.render_s, 1);
    m.put(
        "harness.cache_hit_ratio",
        "ratio",
        harness.cache_hit_ratio,
        1,
    );
    m.put("harness.exec.busy_s", "s", exec.busy_s, exec.pieces);
    m.put(
        "harness.exec.queue_wait_s",
        "s",
        exec.queue_wait_s,
        exec.pieces,
    );
    m.put(
        "harness.exec.utilisation",
        "ratio",
        exec.utilisation,
        exec.pieces,
    );
    m.put(
        "harness.exec.critical_path_s",
        "s",
        exec.critical_path_s,
        exec.pieces,
    );
    m.put(
        "harness.exec.amdahl_ceiling",
        "ratio",
        exec.amdahl_ceiling,
        exec.pieces,
    );
    m.put("harness.merge_s", "s", sweep.merge_s, 1);
    m.put(
        "trace.overhead_ratio",
        "ratio",
        ratio(
            pass_sum(|r| r.traced.wall_ns as f64),
            pass_sum(|r| r.plain.wall_ns as f64),
        ),
        n,
    );
    m.put("trace.unattributed_share", "ratio", unattributed_share, n);

    let mut spans: Vec<Span> = Vec::new();
    for pass in rounds
        .iter()
        .flat_map(|r| [&r.plain.spans, &r.traced.spans, &r.replay.spans])
    {
        let offset = spans.len();
        spans.extend(pass.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    let extra = vec![
        (
            "layer_self_s",
            Json::obj(
                self_times
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v / 1e9)))
                    .collect(),
            ),
        ),
        (
            "passes_wall_s",
            Json::obj(vec![
                ("sweep", Json::Num(sweep.wall_s)),
                ("rounds", Json::Int(rounds.len() as u64)),
                (
                    "plain",
                    Json::Num(pass_sum(|r| r.plain.wall_ns as f64) / 1e9),
                ),
                (
                    "traced",
                    Json::Num(pass_sum(|r| r.traced.wall_ns as f64) / 1e9),
                ),
                (
                    "replay",
                    Json::Num(pass_sum(|r| r.replay.wall_ns as f64) / 1e9),
                ),
            ]),
        ),
        ("exec", exec.json()),
        (
            "sweep_errors",
            Json::Arr(sweep.errors.iter().map(Json::str).collect()),
        ),
        (
            "unrecorded_committed_plateaus",
            Json::Int(sweep.unrecorded_plateaus as u64),
        ),
    ];
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
        extra,
        spans,
    })
}

/// One round of the ladder: the plain, traced and replay passes over
/// every unit.
struct Round {
    plain: PassOut<UnitOut>,
    traced: PassOut<UnitOut>,
    replay: PassOut<Option<ReplayOut>>,
}

fn round(units: &[UnitJob], jobs: usize, origin: Instant, seed: u64) -> Round {
    let plain = run_pass(units, jobs, origin, "plain", |i, pace, sink| {
        ladder::run_unit(&units[i], seed, pace, false, sink)
    });
    let traced = run_pass(units, jobs, origin, "traced", |i, pace, sink| {
        ladder::run_unit(&units[i], seed, pace, true, sink)
    });
    let replay = run_pass(units, jobs, origin, "replay", |i, _, _| {
        let out = match &traced.outs[i] {
            Ok(UnitOut {
                org: Some(trace), ..
            }) => Some(ladder::replay(&units[i], seed, trace)),
            _ => None,
        };
        (out, None)
    });
    Round {
        plain,
        traced,
        replay,
    }
}

/// Check one unit across the sweep and the three ladder passes.
fn check_unit<'a>(
    job: &UnitJob,
    i: usize,
    sweep: &sweep::SweepRun,
    plain: &'a PassOut<UnitOut>,
    traced: &'a PassOut<UnitOut>,
    replay: &'a PassOut<Option<ReplayOut>>,
    seed: u64,
) -> Result<Checked<'a>, String> {
    let label = job.label();
    let p = plain.outs[i]
        .as_ref()
        .map_err(|e| format!("plain pass: {e}"))?;
    let t = traced.outs[i]
        .as_ref()
        .map_err(|e| format!("traced pass: {e}"))?;
    let org = t
        .org
        .as_ref()
        .ok_or_else(|| format!("{label}: traced pass kept no trace"))?;
    let r = match &replay.outs[i] {
        Ok(Some(r)) => r,
        Ok(None) => return Err(format!("{label}: replay skipped")),
        Err(e) => return Err(format!("replay pass: {e}")),
    };
    same_run(&p.run, &t.run).map_err(|e| format!("{label}: tracing changed the result: {e}"))?;
    if (p.retired_ops, p.dram_accesses, p.bus_transactions)
        != (t.retired_ops, t.dram_accesses, t.bus_transactions)
    {
        return Err(format!(
            "{label}: tracing changed the op, DRAM or bus counts"
        ));
    }
    if seed == 0 {
        match &sweep.runs[i] {
            (j, Some(run)) if j.key == job.key => same_run(run, &p.run)
                .map_err(|e| format!("{label}: ladder differs from the sweep: {e}"))?,
            _ => return Err(format!("{label}: no sweep result to compare")),
        }
    }
    if r.misses != org.accesses || r.dirty_evictions != org.writebacks {
        return Err(format!(
            "{label}: replayed L1 misses/dirty evictions {:?}/{:?} != organisation calls {:?}/{:?}",
            r.misses, r.dirty_evictions, org.accesses, org.writebacks
        ));
    }
    if p.retired_ops == 0 {
        return Err(format!(
            "{label}: no retired ops counted (obs feature off?)"
        ));
    }
    Ok(Checked {
        plain: p,
        traced: t,
        org,
        replay: r,
    })
}
