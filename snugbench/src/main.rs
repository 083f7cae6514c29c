//! `snugbench` — the SNUG simulator's benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path snugbench/Cargo.toml -- \
//!     --workload mid-cold --seed 0 --seconds 30 --trace 0
//! ```
//!
//! Run from the repository root. Workloads (see `README.md` beside this
//! crate for why each exists and what every metric should move):
//!
//! * `mid-cold` — class C3 of the canonical `--mid` sweep (3 combos ×
//!   9 scheme points) into an empty throwaway store;
//! * `shift-reconverge` — class C3 of the committed shifted sweep
//!   (`--mid --phase-shift 1800000:demand=300 --until-reconverged
//!   --window 150000`) into an empty throwaway store;
//! * `warm-report` — repeated fully cache-served passes over the
//!   committed store, rendering both EXPERIMENTS documents.
//!
//! Every workload runs closed-loop on `nproc` workers. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` runs the traced layer
//! ladder and reports the per-layer metrics. The last stdout line is
//! the result object; a run record (every metric with unit and sample
//! count, provenance, spans) goes to `.bench_work/records/`. Nothing
//! outside `.bench_work/` is written.

mod exec;
mod host;
mod ladder;
mod oracle;
mod record;
mod report;
mod sweep;
mod traced;

use exec::ExecSummary;
use oracle::Oracle;
use record::{median, Json, Metrics};
use report::{Pass, Report};
use snug_harness::{eval_converged_spec, BudgetPreset, StopPreset, SweepSpec};
use snug_workloads::{ComboClass, PhaseSchedule};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Scratch space for throwaway stores and run records, relative to the
/// repository root.
const WORK_DIR: &str = ".bench_work";

/// Set-ups measured before each cold sweep. Spreading them over the
/// run, rather than measuring them back to back, keeps their median
/// from riding on whatever the host was doing in one instant.
const SETUPS_PER_SWEEP: usize = 32;

/// Set-up measurements per run: a run's set-ups, in order, fall into
/// this many equal blocks, and each block's fastest is one measurement.
const SETUP_BLOCKS: usize = 8;

/// The committed shifted sweep's schedule and convergence window.
const PHASE_SHIFT: &str = "1800000:demand=300";
const SHIFT_WINDOW: u64 = 150_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MidCold,
    ShiftReconverge,
    WarmReport,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "mid-cold" => Some(Workload::MidCold),
            "shift-reconverge" => Some(Workload::ShiftReconverge),
            "warm-report" => Some(Workload::WarmReport),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::MidCold => "mid-cold",
            Workload::ShiftReconverge => "shift-reconverge",
            Workload::WarmReport => "warm-report",
        }
    }
}

/// `snug sweep --mid`.
pub fn mid_spec() -> SweepSpec {
    SweepSpec::full(BudgetPreset::Mid)
}

/// `snug sweep --mid --phase-shift 1800000:demand=300
/// --until-reconverged --window 150000`.
pub fn shifted_spec() -> SweepSpec {
    let mut spec = SweepSpec::full(BudgetPreset::Mid);
    spec.stop = StopPreset::Reconverged {
        window_cycles: Some(SHIFT_WINDOW),
        rel_epsilon: None,
    };
    spec.phase_shift = PhaseSchedule::parse(PHASE_SHIFT)
        .ok()
        .map(|p| p.fingerprint());
    spec
}

/// The part of a sweep the cold workloads run: class C3 (3 combos × 9
/// scheme points, two class-A and two class-C applications each, seven
/// distinct benchmarks in all). A whole sweep takes 8–17 s on the
/// shared host the benchmark was built on; a class takes one seventh of
/// that, so one run holds enough sweeps that its fastest is steady.
pub fn cold_part(mut spec: SweepSpec) -> SweepSpec {
    spec.classes = vec![ComboClass::C3];
    spec
}

/// What every workload runner shares.
pub struct Ctx {
    pub root: PathBuf,
    pub work: PathBuf,
    pub jobs: usize,
    pub seed: u64,
    pub seconds: f64,
    pub oracle: Oracle,
}

/// What a run measured.
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: units, or `warm-report` passes.
    pub attempted: u64,
    /// One entry per failed operation, naming it and the cause.
    pub failures: Vec<String>,
    /// Workload-specific detail for the run record.
    pub extra: Vec<(&'static str, Json)>,
    pub spans: Vec<ladder::Span>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    format!("unknown workload `{name}` (mid-cold, shift-reconverge, warm-report)")
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snugbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match std::env::current_dir() {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("snugbench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let work = root
        .join(WORK_DIR)
        .join(format!("run-{}", std::process::id()));
    let result = run(&args, &root, &work);
    let cleanup = sweep::remove_dir(&work);
    match result.and_then(|(outcome, record)| cleanup.map(|()| (outcome, record))) {
        Ok((outcome, record)) => {
            let records = root.join(WORK_DIR).join("records");
            let name = format!(
                "{}-seed{}-trace{}-{}.json",
                args.workload.name(),
                args.seed,
                u8::from(args.trace),
                std::process::id()
            );
            if let Err(e) = std::fs::create_dir_all(&records)
                .and_then(|()| std::fs::write(records.join(&name), record.render()))
            {
                eprintln!("snugbench: writing the run record: {e}");
                return ExitCode::from(1);
            }
            for failure in outcome.failures.iter().take(20) {
                eprintln!("snugbench: FAIL {failure}");
            }
            let correct = outcome.failures.is_empty();
            let line = Json::obj(vec![
                ("correct", Json::Bool(correct)),
                ("attempted", Json::Int(outcome.attempted)),
                ("failed", Json::Int(failed(&outcome))),
                ("metrics", outcome.metrics.result_json()),
            ]);
            println!("{}", line.render());
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("snugbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Failed operations, never more than were attempted.
fn failed(outcome: &Outcome) -> u64 {
    (outcome.failures.len() as u64).min(outcome.attempted)
}

fn run(args: &Args, root: &Path, work: &Path) -> Result<(Outcome, Json), String> {
    std::fs::create_dir_all(work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        root: root.to_path_buf(),
        work: work.to_path_buf(),
        jobs: host::nproc(),
        seed: args.seed,
        seconds: args.seconds,
        oracle: Oracle::load(root, work)?,
    };
    let started = Instant::now();
    let outcome = match (args.trace, args.workload) {
        (true, workload) => traced::run(&ctx, workload)?,
        (false, Workload::MidCold) => cold(&ctx, &cold_part(mid_spec()))?,
        (false, Workload::ShiftReconverge) => cold(&ctx, &cold_part(shifted_spec()))?,
        (false, Workload::WarmReport) => warm(&ctx)?,
    };
    let record = Json::obj(vec![
        ("schema", Json::str("snugbench-run/v1")),
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("trace", Json::Bool(args.trace)),
        ("seconds", Json::Num(args.seconds)),
        ("run_wall_s", Json::Num(started.elapsed().as_secs_f64())),
        ("nproc", Json::Int(host::nproc() as u64)),
        ("jobs", Json::Int(ctx.jobs as u64)),
        ("git_commit", Json::str(host::git_commit(root))),
        ("rustc", Json::str(host::rustc_version())),
        ("target_cpu", Json::str(host::target_cpu_note(root))),
        ("store_lines", Json::Int(ctx.oracle.lines as u64)),
        ("store_bytes", Json::Int(ctx.oracle.bytes)),
        ("attempted", Json::Int(outcome.attempted)),
        ("failed", Json::Int(failed(&outcome))),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        ("metrics", outcome.metrics.record_json()),
        ("detail", Json::obj(outcome.extra.clone())),
        (
            "spans",
            Json::Arr(
                outcome
                    .spans
                    .iter()
                    .enumerate()
                    .map(|(id, s)| s.json(id))
                    .collect(),
            ),
        ),
    ]);
    Ok((outcome, record))
}

/// A cold workload, untraced: sweeps into an empty store, repeated
/// while the time budget allows another (at least one).
fn cold(ctx: &Ctx, spec: &SweepSpec) -> Result<Outcome, String> {
    let setup_dir = ctx.work.join("setup");
    let store_dir = ctx.work.join("store");
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut sweeps = Vec::new();
    loop {
        for _ in 0..SETUPS_PER_SWEEP {
            setups.push(sweep::setup_once(spec, &setup_dir)?);
        }
        sweeps.push(sweep::sweep(spec, &store_dir, ctx.jobs, &ctx.oracle)?);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (sweeps.len() + 1) as f64 / sweeps.len() as f64 > ctx.seconds {
            break;
        }
    }
    // On a shared host, neighbours only ever add time: the host's slow
    // spells last from under a second to minutes and slow a unit by up
    // to 65 %, so a sweep's raw wall time swings by tens of percent with
    // them. Each sweep is therefore divided by its slowdown — its unit
    // times over the same units' fastest times in the run — which
    // takes the spells out unit by unit while keeping what the executor
    // adds (idle workers, the pacing graph's critical path, the merge);
    // the metrics are the median over the run's sweeps. Set-up,
    // measured many times, reports its median (see `setup_median`).
    let of = |f: fn(&sweep::SweepRun) -> f64| sweeps.iter().map(f).collect::<Vec<f64>>();
    let n = sweeps.len();
    let slow = slowdowns(&sweeps);
    let steady = |xs: Vec<f64>| -> f64 {
        median(
            &xs.iter()
                .zip(&slow)
                .map(|(x, s)| x / s)
                .collect::<Vec<f64>>(),
        )
    };
    let wall = steady(of(|s| s.wall_s));
    let mut m = Metrics::default();
    m.put("wall_s", "s", wall, n);
    m.put("setup_s", "s", setup_median(&setups), setups.len());
    m.put("cpu_s", "s", steady(of(|s| s.cpu_s)), n);
    m.put(
        "sim_minstr_per_s",
        "Minstr/s",
        sweeps[0].instructions() as f64 / wall / 1e6,
        n,
    );
    m.put("peak_rss_mb", "MiB", host::peak_rss_mb()?, 1);
    let mut failures = Vec::new();
    let mut attempted = 0;
    let mut exec = Vec::new();
    for s in &sweeps {
        attempted += s.runs.len() as u64;
        failures.extend(s.failures.iter().cloned());
        exec.push(ExecSummary::from_spans(&s.spans, ctx.jobs).json());
    }
    let errors: Vec<Json> = sweeps
        .iter()
        .flat_map(|s| s.errors.iter().map(Json::str))
        .collect();
    Ok(Outcome {
        metrics: m,
        attempted,
        failures,
        extra: vec![
            (
                "sweeps_wall_s",
                Json::Arr(of(|s| s.wall_s).into_iter().map(Json::Num).collect()),
            ),
            ("exec", Json::Arr(exec)),
            (
                "sweeps_slowdown",
                Json::Arr(slow.iter().copied().map(Json::Num).collect()),
            ),
            ("sweep_errors", Json::Arr(errors)),
            (
                "unrecorded_committed_plateaus",
                Json::Arr(
                    sweeps
                        .iter()
                        .map(|s| Json::Int(s.unrecorded_plateaus as u64))
                        .collect(),
                ),
            ),
        ],
        spans: Vec::new(),
    })
}

/// How much slower each sweep ran its units than the run's fastest
/// runs of the same units: the sum of a sweep's unit times over the
/// sum of each unit's fastest time in any sweep of the run (≥ 1).
fn slowdowns(sweeps: &[sweep::SweepRun]) -> Vec<f64> {
    let mut best: BTreeMap<&str, u64> = BTreeMap::new();
    for s in sweeps {
        for span in &s.spans {
            let slot = best.entry(span.label.as_str()).or_insert(u64::MAX);
            *slot = (*slot).min(span.wall_nanos);
        }
    }
    sweeps
        .iter()
        .map(|s| {
            let took: u64 = s.spans.iter().map(|u| u.wall_nanos).sum();
            let fastest: u64 = s.spans.iter().map(|u| best[u.label.as_str()]).sum();
            took as f64 / fastest.max(1) as f64
        })
        .collect()
}

/// The committed store, served: the three specs a report pass covers.
pub fn report_workload(ctx: &Ctx) -> Result<Report, String> {
    Report::load(
        &ctx.root,
        ctx.oracle.dir.clone(),
        [mid_spec(), shifted_spec(), eval_converged_spec()],
    )
}

/// Report passes for `seconds` (at least one).
pub fn timed_passes(report: &Report, seconds: f64) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(report.pass()?);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (passes.len() + 1) as f64 / passes.len() as f64 > seconds {
            break;
        }
    }
    Ok(passes)
}

/// The smallest of `xs` (infinite when empty).
fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median set-up time of `xs`, taken in order: the set-ups fall
/// into `SETUP_BLOCKS` consecutive blocks spread over the run, and each
/// block counts as one measurement, its fastest. A set-up takes from a
/// tenth of a millisecond to tens of them while the host's slow spells
/// last up to minutes, so a block's fastest set-up is its program cost unless the
/// whole block fell in one spell, and the median over blocks is that
/// cost unless most of the run did.
fn setup_median(xs: &[f64]) -> f64 {
    let blocks: Vec<f64> = xs
        .chunks(xs.len().div_ceil(SETUP_BLOCKS).max(1))
        .map(fastest)
        .collect();
    median(&blocks)
}

/// `warm-report`, untraced.
fn warm(ctx: &Ctx) -> Result<Outcome, String> {
    let report = report_workload(ctx)?;
    // One untimed pass first: the store file reaches the page cache and
    // lazy allocations settle, as for a user running reports repeatedly.
    report.pass()?;
    let passes = timed_passes(&report, ctx.seconds)?;
    let n = passes.len();
    let of = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    // Pass costs are the run's fastest: neighbours only ever add time,
    // the host's slow spells last from under a second to minutes and
    // move a pass by up to 65 %, so a median follows them, while a run
    // of hundreds of passes nearly always holds some outside them.
    // Set-up reports its median (see `setup_median`).
    let wall = fastest(&of(&|p| p.wall_s()));
    let mut m = Metrics::default();
    m.put("wall_s", "s", wall, n);
    m.put("setup_s", "s", setup_median(&of(&|p| p.setup_s())), n);
    m.put("cpu_s", "s", fastest(&of(&|p| p.cpu_s)), n);
    m.put(
        "sim_minstr_per_s",
        "Minstr/s",
        passes[0].instructions as f64 / wall / 1e6,
        n,
    );
    m.put("peak_rss_mb", "MiB", host::peak_rss_mb()?, 1);
    let failures: Vec<String> = passes
        .iter()
        .filter(|p| !p.failures.is_empty())
        .map(|p| p.failures.join("; "))
        .collect();
    let phase = |f: &dyn Fn(&Pass) -> f64| Json::Num(median(&of(f)));
    Ok(Outcome {
        metrics: m,
        attempted: n as u64,
        failures,
        extra: vec![
            (
                "pass_median_s",
                Json::obj(vec![
                    ("open", phase(&|p| p.open_s)),
                    ("plan", phase(&|p| p.plan_s)),
                    ("lookup", phase(&|p| p.lookup_s)),
                    ("render", phase(&|p| p.render_s)),
                ]),
            ),
            (
                "passes_wall_s",
                Json::Arr(of(&|p| p.wall_s()).into_iter().map(Json::Num).collect()),
            ),
        ],
        spans: Vec::new(),
    })
}
