//! The traced layer ladder.
//!
//! The same units a workload sweeps are driven again from this file
//! through the simulator's public entry points — sessions from
//! `session_for_org_phased` (the traced pass and held-out seeds attach
//! their own streams through `SimSession::builder` exactly as it does),
//! warm-up through `run_until`, the measured window through
//! `run_until`/`run_to_completion`, and baseline pacing through
//! `pace_of`/`paced_config` — on `jobs` closed-loop workers that
//! respect the sweep's pacing edges. Three passes:
//!
//! * **plain** — no wrappers: the honest per-op cost of the measured
//!   window, warm-up share and session build time;
//! * **traced** — the L2 organisation behind [`TimedOrg`] (every
//!   `access`/`writeback` timed; bus and DRAM sit inside those calls)
//!   and each stream behind [`CountingStream`] (ops consumed, shift
//!   positions). Its results must equal the plain pass bit for bit, or
//!   the tracing changed the program;
//! * **replay** — each unit's streams regenerated standalone with the
//!   op counts and shift positions the traced session consumed, timing
//!   op generation and an L1 I/D pair of the configured geometry in
//!   chunks (a per-call timer would cost as much as the call). The
//!   replayed L1 misses and dirty evictions must equal the calls the
//!   traced organisation received, core by core.
//!
//! Spans (name, start, end, parent, unit) stay in memory and are
//! written once the run ends.

use crate::record::Json;
use sim_cache::{CacheStats, SetAssocCache};
use sim_cmp::{
    ChipResources, L2Org, L2Outcome, RunPlan, SchemeEvent, SimSession, StopSpec, SystemConfig,
    SystemResult,
};
use sim_mem::{AccessKind, BlockAddr, CoreOp, OpStream, ShiftDirective, StreamShift};
use snug_core::AnyOrg;
use snug_experiments::{
    pace_of, paced_config, session_for_org_phased, Pace, SchemePoint, SchemeRun, StopReason,
};
use snug_harness::UnitJob;
use snug_workloads::{Combo, PhaseSchedule};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Instant;

/// Ops generated per timed replay chunk.
const CHUNK: usize = 4096;

/// One recorded span. Times are nanoseconds since the run's origin;
/// `parent` indexes the same pass's span list.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pass: &'static str,
    pub worker: usize,
    pub unit: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The span as a JSON object; `unit` and `parent` are omitted when
    /// the span has none.
    pub fn json(&self, id: usize) -> Json {
        let mut fields = vec![
            ("id", Json::Int(id as u64)),
            ("name", Json::str(self.name)),
            ("pass", Json::str(self.pass)),
            ("worker", Json::Int(self.worker as u64)),
            ("start_ns", Json::Int(self.start_ns)),
            ("end_ns", Json::Int(self.end_ns)),
        ];
        if let Some(unit) = self.unit {
            fields.push(("unit", Json::Int(unit as u64)));
        }
        if let Some(parent) = self.parent {
            fields.push(("parent", Json::Int(parent as u64)));
        }
        Json::obj(fields)
    }
}

/// Where a unit records its child spans.
pub struct Sink<'a> {
    spans: &'a mut Vec<Span>,
    origin: Instant,
    pass: &'static str,
    worker: usize,
    unit: usize,
    parent: usize,
}

impl Sink<'_> {
    fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            pass: self.pass,
            worker: self.worker,
            unit: Some(self.unit),
            parent: Some(self.parent),
            start_ns: ns(start - self.origin),
            end_ns: ns(end - self.origin),
        });
    }
}

fn ns(d: std::time::Duration) -> u64 {
    d.as_nanos() as u64
}

/// An L2 organisation with every `access` and `writeback` timed. Bus
/// and DRAM work happens inside these calls (the organisation drives
/// `ChipResources`), so it is part of the measured time.
#[derive(Clone)]
pub struct TimedOrg {
    inner: AnyOrg,
    ns: u64,
    accesses: Vec<u64>,
    writebacks: Vec<u64>,
}

impl TimedOrg {
    fn new(inner: AnyOrg) -> TimedOrg {
        let cores = inner.num_cores();
        TimedOrg {
            inner,
            ns: 0,
            accesses: vec![0; cores],
            writebacks: vec![0; cores],
        }
    }
}

impl L2Org for TimedOrg {
    fn access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_write: bool,
        now: u64,
        res: &mut ChipResources<'_>,
    ) -> L2Outcome {
        let t = Instant::now();
        let out = self.inner.access(core, block, is_write, now, res);
        self.ns += ns(t.elapsed());
        self.accesses[core] += 1;
        out
    }

    fn writeback(&mut self, core: usize, block: BlockAddr, now: u64, res: &mut ChipResources<'_>) {
        let t = Instant::now();
        self.inner.writeback(core, block, now, res);
        self.ns += ns(t.elapsed());
        self.writebacks[core] += 1;
    }

    fn slice_stats(&self, core: usize) -> &CacheStats {
        self.inner.slice_stats(core)
    }

    fn aggregate_stats(&self) -> CacheStats {
        self.inner.aggregate_stats()
    }

    fn num_cores(&self) -> usize {
        self.inner.num_cores()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn clone_dyn(&self) -> Box<dyn L2Org> {
        Box::new(self.clone())
    }

    fn drain_events(&mut self) -> Vec<SchemeEvent> {
        self.inner.drain_events()
    }
}

/// What a [`CountingStream`] saw: ops handed out, and the op index at
/// which each shift directive arrived.
#[derive(Default)]
struct StreamLog {
    ops: Cell<u64>,
    shifts: RefCell<Vec<(u64, ShiftDirective)>>,
}

/// A stream that counts the ops it hands out and logs shifts, so the
/// replay can regenerate exactly what the session consumed.
struct CountingStream {
    inner: Box<dyn OpStream>,
    log: Rc<StreamLog>,
}

impl OpStream for CountingStream {
    fn next_op(&mut self) -> CoreOp {
        self.log.ops.set(self.log.ops.get() + 1);
        self.inner.next_op()
    }

    fn label(&self) -> &str {
        self.inner.label()
    }

    fn apply_shift(&mut self, directive: &ShiftDirective) -> bool {
        self.log
            .shifts
            .borrow_mut()
            .push((self.log.ops.get(), directive.clone()));
        self.inner.apply_shift(directive)
    }
}

/// One op stream per core, with `seed` XORed into every benchmark's
/// generator seed (0 reproduces the canonical `combo_streams`).
pub fn seeded_streams(combo: &Combo, system: &SystemConfig, seed: u64) -> Vec<Box<dyn OpStream>> {
    combo
        .apps
        .iter()
        .enumerate()
        .map(|(core, b)| {
            let mut spec = b.spec();
            spec.seed ^= seed;
            Box::new(spec.stream(system.l2_slice, core)) as Box<dyn OpStream>
        })
        .collect()
}

fn schedule(phase: Option<&PhaseSchedule>) -> Vec<StreamShift> {
    phase.map(|p| p.shifts().to_vec()).unwrap_or_default()
}

/// The traced pass's view of one unit's organisation and streams.
pub struct OrgTrace {
    /// Organisation time over the whole run.
    pub total_ns: u64,
    /// `access` and `writeback` calls per core, whole run.
    pub accesses: Vec<u64>,
    pub writebacks: Vec<u64>,
    /// Ops each core's stream handed out, whole run.
    pub ops: Vec<u64>,
    /// Per core: (op index, directive) of every shift.
    pub shifts: Vec<Vec<(u64, ShiftDirective)>>,
}

impl OrgTrace {
    pub fn calls(&self) -> u64 {
        self.accesses.iter().chain(&self.writebacks).sum()
    }
}

/// One unit's outcome in the plain or traced pass.
pub struct UnitOut {
    pub run: SchemeRun,
    pub scheme: &'static str,
    pub build_ns: u64,
    pub warm_ns: u64,
    pub measure_ns: u64,
    /// `SimCounters::retired_ops`: ops retired in the measured window.
    pub retired_ops: u64,
    /// Measured-window DRAM reads + writes and bus transactions.
    pub dram_accesses: u64,
    pub bus_transactions: u64,
    /// Present on the traced pass only.
    pub org: Option<OrgTrace>,
}

struct Driven<O: L2Org> {
    session: SimSession<O>,
    result: SystemResult,
    phase_means: Vec<f64>,
    warm_ns: u64,
    measure_ns: u64,
}

/// Warm-up through `run_until`, then the measured window — pausing at
/// each in-window shift boundary of a fixed-window plan to record
/// per-phase means, as `run_point_phased` does.
fn drive<O: L2Org>(
    mut session: SimSession<O>,
    plan: &RunPlan,
    phase: Option<&PhaseSchedule>,
    sink: &mut Sink,
) -> Driven<O> {
    let t0 = Instant::now();
    session.run_until(plan.warmup_cycles);
    let t1 = Instant::now();
    let horizon = plan.warmup_cycles + plan.measure_cycles();
    let mut cuts: Vec<u64> = match phase {
        Some(p) if !plan.can_stop_early() => p
            .shifts()
            .iter()
            .map(|s| s.at_cycle)
            .filter(|&c| c > plan.warmup_cycles && c < horizon)
            .collect(),
        _ => Vec::new(),
    };
    cuts.dedup();
    let mut marks: Vec<SystemResult> = Vec::with_capacity(cuts.len());
    for &cut in &cuts {
        session.run_until(cut);
        marks.push(session.result());
    }
    let result = session.run_to_completion();
    let t2 = Instant::now();
    let mut phase_means = Vec::new();
    if !cuts.is_empty() {
        let mut prev: Option<&SystemResult> = None;
        for mark in marks.iter().chain(std::iter::once(&result)) {
            phase_means.push(segment_throughput(prev, mark));
            prev = Some(mark);
        }
    }
    sink.record("warmup", t0, t1);
    sink.record("measure", t1, t2);
    Driven {
        session,
        result,
        phase_means,
        warm_ns: ns(t1 - t0),
        measure_ns: ns(t2 - t1),
    }
}

/// Sum of per-core IPCs between two cumulative measurement marks.
fn segment_throughput(prev: Option<&SystemResult>, cur: &SystemResult) -> f64 {
    cur.cores
        .iter()
        .enumerate()
        .map(|(i, core)| {
            let (i0, c0) = prev
                .map(|p| (p.cores[i].instructions, p.cores[i].cycles))
                .unwrap_or((0, 0));
            let di = core.instructions.saturating_sub(i0);
            let dc = core.cycles.saturating_sub(c0);
            if dc == 0 {
                0.0
            } else {
                di as f64 / dc as f64
            }
        })
        .sum()
}

/// The unit's `SchemeRun`, derived as `run_point_phased` /
/// `run_point_paced` derive it.
fn scheme_run<O: L2Org>(
    job: &UnitJob,
    plan: &RunPlan,
    pace: Option<Pace>,
    d: &Driven<O>,
) -> SchemeRun {
    let session = &d.session;
    let stop_reason = plan.can_stop_early().then(|| {
        if session.stopped_at().is_some() {
            StopReason::Converged
        } else {
            StopReason::Ceiling
        }
    });
    let mut plateaus: Vec<f64> = if matches!(plan.stop, StopSpec::Reconverged { .. }) {
        session
            .phase_plateaus()
            .iter()
            .map(|p| p.mean_throughput)
            .collect()
    } else {
        Vec::new()
    };
    if plateaus.is_empty() {
        plateaus = d.phase_means.clone();
    }
    let mut run = SchemeRun {
        scheme: job.point.label(),
        ipcs: d.result.ipcs(),
        measured_cycles: session
            .stopped_at()
            .map(|c| c.saturating_sub(plan.warmup_cycles)),
        stop_reason,
        plateaus,
    };
    if let Some(p) = pace {
        if p.measured_window < job.config.plan.measure_cycles() {
            run.measured_cycles = Some(p.measured_window);
        }
        run.stop_reason = Some(p.stop_reason);
    }
    run
}

fn finish<O: L2Org>(
    job: &UnitJob,
    plan: &RunPlan,
    pace: Option<Pace>,
    build_ns: u64,
    mut d: Driven<O>,
) -> UnitOut {
    let run = scheme_run(job, plan, pace, &d);
    let dram = d.session.dram_stats();
    let bus = d.session.bus_stats();
    UnitOut {
        run,
        scheme: d.session.org().name(),
        build_ns,
        warm_ns: d.warm_ns,
        measure_ns: d.measure_ns,
        retired_ops: d.session.counters().retired_ops,
        dram_accesses: dram.reads + dram.writes,
        bus_transactions: bus.address_transactions + bus.data_transactions,
        org: None,
    }
}

/// Simulate one unit. `pace` is the combo baseline's pace for a paced
/// sibling. Returns the outcome plus the pace this unit publishes (an
/// early-exit plan's L2P baseline).
pub fn run_unit(
    job: &UnitJob,
    seed: u64,
    pace: Option<Pace>,
    traced: bool,
    sink: &mut Sink,
) -> (UnitOut, Option<Pace>) {
    let cfg = match pace {
        Some(p) => paced_config(&job.config, p.measured_window),
        None => job.config,
    };
    let phase = job.phase.as_ref();
    let t0 = Instant::now();
    let org = job.point.spec(&job.config).build_any(cfg.system);
    let out = if traced {
        let logs: Vec<Rc<StreamLog>> = (0..cfg.system.num_cores).map(|_| Rc::default()).collect();
        let streams: Vec<Box<dyn OpStream>> = seeded_streams(&job.combo, &cfg.system, seed)
            .into_iter()
            .zip(&logs)
            .map(|(inner, log)| {
                Box::new(CountingStream {
                    inner,
                    log: Rc::clone(log),
                }) as Box<dyn OpStream>
            })
            .collect();
        let session = SimSession::builder(cfg.system, TimedOrg::new(org))
            .streams(streams)
            .plan(cfg.plan)
            .phase_shifts(schedule(phase))
            .build();
        let t1 = Instant::now();
        sink.record("build", t0, t1);
        let d = drive(session, &cfg.plan, phase, sink);
        let org = d.session.org();
        let trace = OrgTrace {
            total_ns: org.ns,
            accesses: org.accesses.clone(),
            writebacks: org.writebacks.clone(),
            ops: logs.iter().map(|l| l.ops.get()).collect(),
            shifts: logs.iter().map(|l| l.shifts.borrow().clone()).collect(),
        };
        let mut out = finish(job, &cfg.plan, pace, ns(t1 - t0), d);
        out.org = Some(trace);
        out
    } else {
        // The canonical seed goes through the library's own session
        // constructor; a held-out seed needs its own streams, attached
        // exactly as that constructor attaches them.
        let session = if seed == 0 {
            session_for_org_phased(&job.combo, org, &cfg, phase)
        } else {
            SimSession::builder(cfg.system, org)
                .streams(seeded_streams(&job.combo, &cfg.system, seed))
                .plan(cfg.plan)
                .phase_shifts(schedule(phase))
                .build()
        };
        let t1 = Instant::now();
        sink.record("build", t0, t1);
        let d = drive(session, &cfg.plan, phase, sink);
        finish(job, &cfg.plan, pace, ns(t1 - t0), d)
    };
    let publish = (job.point == SchemePoint::L2p && job.config.plan.can_stop_early())
        .then(|| pace_of(&out.run, &job.config));
    (out, publish)
}

/// One unit's standalone replay.
pub struct ReplayOut {
    pub ops: u64,
    pub gen_ns: u64,
    pub l1_ns: u64,
    pub l1_accesses: u64,
    pub l1_hits: u64,
    /// L1 misses and dirty evictions per core (I and D together).
    pub misses: Vec<u64>,
    pub dirty_evictions: Vec<u64>,
}

/// Regenerate the unit's streams with the op counts and shift positions
/// the traced session consumed, feeding each op to an L1 I/D pair.
pub fn replay(job: &UnitJob, seed: u64, trace: &OrgTrace) -> ReplayOut {
    let system = job.config.system;
    let block_bytes = system.l1.block_bytes;
    let cores = trace.ops.len();
    let mut out = ReplayOut {
        ops: 0,
        gen_ns: 0,
        l1_ns: 0,
        l1_accesses: 0,
        l1_hits: 0,
        misses: vec![0; cores],
        dirty_evictions: vec![0; cores],
    };
    let mut buf: Vec<CoreOp> = Vec::with_capacity(CHUNK);
    for (core, mut stream) in seeded_streams(&job.combo, &system, seed)
        .into_iter()
        .enumerate()
    {
        let mut l1i = SetAssocCache::new(system.l1);
        let mut l1d = SetAssocCache::new(system.l1);
        let total = trace.ops[core];
        let mut shifts = trace.shifts[core].iter().peekable();
        let mut done = 0u64;
        while done < total {
            while let Some((_, directive)) = shifts.next_if(|(at, _)| *at == done) {
                stream.apply_shift(directive);
            }
            let until = shifts.peek().map_or(total, |(at, _)| (*at).min(total));
            let n = (until - done).min(CHUNK as u64) as usize;
            let t0 = Instant::now();
            for _ in 0..n {
                buf.push(stream.next_op());
            }
            let t1 = Instant::now();
            for op in &buf {
                let l1 = match op.access.kind {
                    AccessKind::IFetch => &mut l1i,
                    AccessKind::Load | AccessKind::Store => &mut l1d,
                };
                let r = l1.access(op.access.addr.block(block_bytes), op.access.kind.is_write());
                if r.hit {
                    out.l1_hits += 1;
                } else {
                    out.misses[core] += 1;
                    if r.evicted.is_some_and(|ev| ev.flags.dirty) {
                        out.dirty_evictions[core] += 1;
                    }
                }
            }
            let t2 = Instant::now();
            out.gen_ns += ns(t1 - t0);
            out.l1_ns += ns(t2 - t1);
            out.l1_accesses += n as u64;
            done += n as u64;
            buf.clear();
        }
        out.ops += total;
    }
    out
}

/// One pass over a unit list.
pub struct PassOut<T> {
    pub outs: Vec<Result<T, String>>,
    pub wall_ns: u64,
    pub workers: usize,
    pub spans: Vec<Span>,
}

struct Sched<T> {
    ready: VecDeque<usize>,
    outs: Vec<Option<Result<T, String>>>,
    paces: Vec<Option<Pace>>,
    done: usize,
}

/// Run `unit` for every job on `workers` closed-loop workers: each
/// takes the next ready job when its last one finishes. An early-exit
/// plan's siblings become ready only once their combo's L2P baseline
/// has finished and published its pace — the sweep's pacing graph. A
/// panicking unit fails alone; its dependents are skipped with an
/// error naming it.
pub fn run_pass<T: Send>(
    jobs: &[UnitJob],
    workers: usize,
    origin: Instant,
    pass: &'static str,
    unit: impl Fn(usize, Option<Pace>, &mut Sink) -> (T, Option<Pace>) + Sync,
) -> PassOut<T> {
    let n = jobs.len();
    let gate: Vec<Option<usize>> = jobs
        .iter()
        .map(|job| {
            if !job.config.plan.can_stop_early() || job.point == SchemePoint::L2p {
                return None;
            }
            jobs.iter().position(|b| {
                b.point == SchemePoint::L2p
                    && b.combo == job.combo
                    && b.config.plan == job.config.plan
                    && b.phase == job.phase
            })
        })
        .collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, g) in gate.iter().enumerate() {
        if let Some(p) = g {
            children[*p].push(i);
        }
    }
    let state = Mutex::new(Sched {
        ready: (0..n).filter(|&i| gate[i].is_none()).collect(),
        outs: (0..n).map(|_| None).collect(),
        paces: vec![None; n],
        done: 0,
    });
    let wake = Condvar::new();
    let lock = || state.lock().unwrap_or_else(PoisonError::into_inner);
    let t0 = Instant::now();
    let per_worker: Vec<Vec<Span>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|worker| {
                let (unit, gate, children, wake, lock) = (&unit, &gate, &children, &wake, &lock);
                s.spawn(move || {
                    let at = |t: Instant| ns(t - origin);
                    let mut spans = vec![Span {
                        name: "worker",
                        pass,
                        worker,
                        unit: None,
                        parent: None,
                        start_ns: at(Instant::now()),
                        end_ns: 0,
                    }];
                    loop {
                        let wait = Instant::now();
                        let mut st = lock();
                        let next = loop {
                            if let Some(i) = st.ready.pop_front() {
                                break Some(i);
                            }
                            if st.done == n {
                                break None;
                            }
                            st = wake.wait(st).unwrap_or_else(PoisonError::into_inner);
                        };
                        let gated = next.map(|i| match gate[i] {
                            None => Ok(None),
                            Some(p) => match &st.outs[p] {
                                Some(Ok(_)) => Ok(st.paces[p]),
                                _ => Err(format!("skipped: baseline {} failed", jobs[p].label())),
                            },
                        });
                        drop(st);
                        let got = Instant::now();
                        spans.push(Span {
                            name: "idle",
                            pass,
                            worker,
                            unit: None,
                            parent: Some(0),
                            start_ns: at(wait),
                            end_ns: at(got),
                        });
                        let (Some(i), Some(gated)) = (next, gated) else {
                            break;
                        };
                        let me = spans.len();
                        spans.push(Span {
                            name: "unit",
                            pass,
                            worker,
                            unit: Some(i),
                            parent: Some(0),
                            start_ns: at(got),
                            end_ns: 0,
                        });
                        let result = gated.and_then(|pace| {
                            let mut sink = Sink {
                                spans: &mut spans,
                                origin,
                                pass,
                                worker,
                                unit: i,
                                parent: me,
                            };
                            catch_unwind(AssertUnwindSafe(|| unit(i, pace, &mut sink)))
                                .map_err(|p| panic_message(&*p))
                        });
                        spans[me].end_ns = at(Instant::now());
                        let mut st = lock();
                        match result {
                            Ok((out, publish)) => {
                                st.outs[i] = Some(Ok(out));
                                st.paces[i] = publish;
                            }
                            Err(e) => st.outs[i] = Some(Err(format!("{}: {e}", jobs[i].label()))),
                        }
                        st.done += 1;
                        st.ready.extend(children[i].iter().copied());
                        drop(st);
                        wake.notify_all();
                    }
                    spans[0].end_ns = at(Instant::now());
                    spans
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a ladder worker panicked outside a unit"))
            .collect()
    });
    let wall_ns = ns(t0.elapsed());
    let mut spans = Vec::new();
    for worker_spans in per_worker {
        let offset = spans.len();
        spans.extend(worker_spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }
    let outs = state
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .outs
        .into_iter()
        .map(|o| o.unwrap_or_else(|| Err("never scheduled".into())))
        .collect();
    PassOut {
        outs,
        wall_ns,
        workers,
        spans,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}
