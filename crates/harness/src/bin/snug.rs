//! `snug` — the experiment-orchestration CLI.
//!
//! ```text
//! snug sweep        [--class C5]... [budget flags] [--phase-shift SPEC]...
//!                   [--jobs N] [--results DIR] [--verbose]
//! snug report       [same selection flags] [--results DIR] [--out DIR]
//! snug report       --experiments-md | --experiments-eval-md [--check]
//! snug compare      --combo LABEL | --class C [budget flags] [--results DIR]
//! snug ablations    [--check]
//! snug characterize [--check]
//! ```
//!
//! `sweep` runs the five-scheme comparison for the selected combos at
//! per-(combo, scheme, config-point) job granularity, serving unchanged
//! jobs from the content-addressed store under `--results` (default
//! `results/`). `report` renders Figures 9–11 and the per-combo table
//! from the store without running anything; `report --experiments-md`
//! renders the committed `EXPERIMENTS.md` and `--check` fails if the
//! committed file is stale. `ablations` and `characterize` render
//! `ABLATIONS.md` and `CHARACTERIZATION.md` the same way.
//!
//! Each subcommand (and each `report` mode) parses its arguments
//! against one [`Command`] table of the flags it takes, so a flag the
//! command would ignore is an error that names both, never a no-op.

use snug_core::SchemeSpec;
use snug_experiments::{default_stride, session_for, trace_point, SchemePoint};
use snug_harness::{
    ablation_jobs, cached_results, check_experiments_md, eval_converged_spec, fmt_eng,
    render_ablations_md, render_characterization_md, render_experiments_eval_md,
    render_experiments_md, render_markdown, run_sweep, run_unit_jobs, stop_summary_table,
    telemetry_footer, trace_key, BudgetPreset, CheckOutcome, ResultStore, StopPreset, SweepEvent,
    SweepSpec, UnitSpan, CEILING_FOOTNOTE, EVAL_CONVERGED_REL_EPSILON, EVAL_CONVERGED_WINDOW,
};
use snug_metrics::TableFormat;
use snug_workloads::{all_combos, ComboClass, PhaseSchedule};
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    match run(command, rest) {
        Ok(()) | Err(Failure::BrokenPipe) => ExitCode::SUCCESS,
        Err(Failure::Error(msg)) => {
            eprintln!("snug: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(command: &str, rest: &[String]) -> Result<(), Failure> {
    match command {
        "sweep" => cmd_sweep(rest),
        "report" => cmd_report(rest),
        "compare" => cmd_compare(rest),
        "characterize" => cmd_characterize(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "store" => cmd_store(rest),
        "ablations" => cmd_ablations(rest),
        "help" | "--help" | "-h" => Ok(writeln!(io::stdout().lock(), "{USAGE}")?),
        other => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

const USAGE: &str = "\
snug — SNUG experiment orchestration

USAGE:
  snug sweep        [--class C1..C6]... [budget flags] [--phase-shift SPEC]...
                    [--jobs N] [--results DIR] [--verbose]
  snug report       [--class ...] [budget flags] [--phase-shift SPEC]...
                    [--results DIR] [--out DIR] [--format md|csv]
  snug report       --experiments-md [--quick|--mid|--eval|--warmup N --measure N]
                    [--check] [--md-path FILE] [--results DIR]
  snug report       --experiments-eval-md [--check] [--md-path FILE] [--results DIR]
  snug compare      --combo LABEL | --class C [budget flags] [--phase-shift SPEC]...
                    [--jobs N] [--results DIR]
  snug trace        COMBO SCHEME [--stride N] [--phase-shift SPEC]...
                    [--quick|--mid|--eval|--warmup N --measure N]
                    [--results DIR] [--format md|csv]
  snug profile      COMBO SCHEME [--quick|--mid|--eval|--warmup N --measure N]
                    [--format md|csv]
  snug store gc     [--results DIR]
  snug store merge  SHARD.jsonl... [--results DIR]
  snug ablations    [--check]
  snug characterize [--check]

Budget flags (shared by sweep/compare/report; trace, profile and
report --experiments-md take the fixed subset): --quick | --mid |
--eval | --warmup N --measure N pick the run budget, and
--until-converged [--rel-eps E] [--window N] swaps the fixed
window for convergence-based early exit: each combo's L2P baseline stops
at the first window boundary where its last four window throughputs
agree to within E (default 0.02), and every other scheme measures over
that same window — never past the budget ceiling. Converged runs are
keyed separately from the canonical fixed-budget entries, and every
early-exit-capable run persists an explicit stop_reason
(converged/ceiling), so runs that never stabilised inside the budget are
never mistaken for plateau measurements. Each subcommand takes only the
flags listed for it above; any other flag is an error.

Phase-change scenarios: --phase-shift SPEC re-parameterises the per-core
synthetic streams mid-run at scheduled cycles. SPEC is
CYCLE:DIRECTIVE[@CORE,...] with directives demand=P (scale per-set
capacity demand to P%), near=P (set the near-reuse fraction), streaming,
and profile=NAME (adopt another benchmark's model); semicolons or
repeated flags compose a schedule. Pair with --until-reconverged
[--rel-eps E] [--window N] to stop only once throughput has
re-stabilised after the last shift, recording per-phase plateau means —
this is the scenario axis that exercises SNUG's stage-based G/T
re-latching against static configurations. Shifted runs are keyed
separately from the canonical stationary entries.

Sweeps are cached at per-(combo, scheme, config-point) granularity: each
unit job is keyed by a content hash of exactly the inputs it depends on
and stored as JSONL under --results (default: results/). Re-running a
sweep executes only jobs whose inputs changed — a scheme-parameter edit
re-runs only that scheme's jobs. `snug report` renders Figures 9-11 and the per-combo
table from the store (plus the per-combo stop summary on early-exit
specs); `snug report --experiments-md` renders the committed
EXPERIMENTS.md (budget defaults to --mid there) and --check fails if the
committed file is stale; `snug report --experiments-eval-md` renders the
committed EXPERIMENTS_EVAL.md — the eval-budget converged sweep with the
Fig. 9 SNUG-vs-CC(Best) verdict — over its pinned spec (no budget flags
apply). `snug ablations` runs SNUG's design-choice ablations (index-bit
flipping, stage lengths, counter width k and threshold p, each one edit
of the --mid configuration) on classes C1 and C4 as keyed units in
results/ablations/, then renders the committed ABLATIONS.md; --check
runs nothing and fails if the document is stale or a unit is missing.
`snug characterize` renders the committed CHARACTERIZATION.md: the
Figures 1-3 set-level capacity-demand distributions (ammp, vortex,
applu) and every modelled benchmark's summary, at one pinned sampling
plan of 100 intervals x 20 K L2 accesses; --check fails if it is stale.

Parallel execution: `snug sweep --jobs N` (0 = all cores) runs unit
jobs on a worker pool. Each worker appends completed units to its own
crash-safe shard under results/shards/, and shards merge into
results/store.jsonl in deterministic plan order at sweep end — the
store bytes are identical for every N, and a sweep killed mid-flight
recovers its completed units on the next run.
Baseline pacing under --until-converged is a dependency edge, not a
barrier: a combo's L2P unit gates only that combo's paced siblings, and
everything else runs freely. If a baseline fails, its dependents are
skipped and the sweep reports which pieces were doomed by which
baseline.

`snug trace` records a per-period time series of one (combo, scheme)
simulation — per-core IPC, the L2 fill/spill mix, SNUG stage/G-T
transitions and any phase-shift boundaries on a probe stride — caching
it in the store and rendering it as a table. SCHEME accepts figure
labels (SNUG, CC(50%)) and store labels (snug, cc@50%). `snug store gc`
rewrites the store keeping only the newest entry per key; `snug store
merge` folds sharded stores from multi-machine sweeps into one with the
same newest-entry-per-key rule.

`snug profile` runs one (combo, scheme) simulation in-process and
renders its observability counters: per-level hit/miss rates, dispatch
and traffic counts, the L1 LRU-stack walk-depth histogram and the top
stall/queue cost centers, plus wall-clock throughput and the measured
probe overhead (a bare run is timed against an identical probed run).
Nothing is cached — profiling is about the run you just asked for.
`snug sweep --verbose` prints each executed piece's wall time and
throughput on its completion line; every sweep ends with a telemetry
footer (total simulation wall time, sim-cycles/s, ops/s) aggregated
from the spans persisted in the store.";

/// Why a command stopped early: an error to report, or a reader that
/// closed stdout (`snug report | head`), which ends the command quietly
/// with success.
#[derive(Debug, PartialEq)]
enum Failure {
    Error(String),
    BrokenPipe,
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Error(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Error(msg.to_string())
    }
}

/// Only stdout writes reach `?` as a bare `io::Error`: every other I/O
/// error is mapped to a message naming its path first.
impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::BrokenPipe => Failure::BrokenPipe,
            _ => Failure::Error(format!("writing to stdout: {e}")),
        }
    }
}

/// Print one progress line from an executor callback, which cannot
/// return an error: the first write error is kept in `printed` and
/// later lines are dropped, so a sweep whose reader went away still
/// finishes and stores its units before `printed` ends the command.
fn progress_line(printed: &mut io::Result<()>, line: &str) {
    if printed.is_ok() {
        *printed = writeln!(io::stdout().lock(), "{line}");
    }
}

/// One flag a subcommand takes: its spelling, and whether a value
/// follows it.
type Flag = (&'static str, bool);

/// The budget/stop flag family, shared by `sweep`, `compare` and
/// `report`.
const BUDGET: &[Flag] = &[
    ("--quick", false),
    ("--mid", false),
    ("--eval", false),
    ("--warmup", true),
    ("--measure", true),
    ("--until-converged", false),
    ("--until-reconverged", false),
    ("--rel-eps", true),
    ("--window", true),
];

/// The family's fixed-budget subset, for commands that always run (or
/// document) the whole fixed window: `trace`, `profile` and
/// `report --experiments-md`.
const FIXED_BUDGET: &[Flag] = BUDGET.split_at(5).0;

const CLASS: Flag = ("--class", true);
const PHASE_SHIFT: Flag = ("--phase-shift", true);
const JOBS: Flag = ("--jobs", true);
const RESULTS: Flag = ("--results", true);
const OUT: Flag = ("--out", true);
const FORMAT: Flag = ("--format", true);
const CHECK: Flag = ("--check", false);
const MD_PATH: Flag = ("--md-path", true);

/// A subcommand, or a mode of `report`, and the flags it takes.
struct Command {
    /// The name errors use: ``snug {name}``.
    name: &'static str,
    /// The flags it takes, as slices shared between tables.
    flags: &'static [&'static [Flag]],
}

const SWEEP: Command = Command {
    name: "sweep",
    flags: &[
        BUDGET,
        &[CLASS, PHASE_SHIFT, JOBS, RESULTS, ("--verbose", false)],
    ],
};

const REPORT: Command = Command {
    name: "report",
    flags: &[BUDGET, &[CLASS, PHASE_SHIFT, RESULTS, OUT, FORMAT]],
};

/// `report --experiments-md`: the canonical fixed-budget, stationary
/// runs of all 21 combos, so no selection, stop or phase flag applies.
const EXPERIMENTS_MD: Command = Command {
    name: "report --experiments-md",
    flags: &[
        FIXED_BUDGET,
        &[("--experiments-md", false), CHECK, MD_PATH, RESULTS],
    ],
};

/// `report --experiments-eval-md`: one pinned spec
/// ([`eval_converged_spec`]), so no budget flag applies either.
const EXPERIMENTS_EVAL_MD: Command = Command {
    name: "report --experiments-eval-md",
    flags: &[&[("--experiments-eval-md", false), CHECK, MD_PATH, RESULTS]],
};

const COMPARE: Command = Command {
    name: "compare",
    flags: &[
        BUDGET,
        &[("--combo", true), CLASS, PHASE_SHIFT, JOBS, RESULTS],
    ],
};

const TRACE: Command = Command {
    name: "trace",
    flags: &[
        FIXED_BUDGET,
        &[("--stride", true), PHASE_SHIFT, RESULTS, FORMAT],
    ],
};

const PROFILE: Command = Command {
    name: "profile",
    flags: &[FIXED_BUDGET, &[FORMAT]],
};

const STORE_GC: Command = Command {
    name: "store gc",
    flags: &[&[RESULTS]],
};

const STORE_MERGE: Command = Command {
    name: "store merge",
    flags: &[&[RESULTS]],
};

const ABLATIONS: Command = Command {
    name: "ablations",
    flags: &[&[CHECK]],
};

const CHARACTERIZE: Command = Command {
    name: "characterize",
    flags: &[&[CHECK]],
};

impl Command {
    /// Parse `args` left to right against this command's table.
    fn parse(&self, args: &[String]) -> Result<Args, String> {
        let mut given = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(&(flag, takes_value)) = self
                .flags
                .iter()
                .flat_map(|table| table.iter())
                .find(|(flag, _)| *flag == arg.as_str())
            else {
                return Err(format!("unknown flag `{arg}` for `snug {}`", self.name));
            };
            let value = if takes_value {
                Some(it.next().ok_or_else(|| format!("{flag} needs a value"))?)
            } else {
                None
            };
            given.push((flag, value.cloned()));
        }
        Ok(Args(given))
    }
}

/// The flags one command line gave, in order, each with its value if
/// it takes one.
struct Args(Vec<(&'static str, Option<String>)>);

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| *f == flag)
    }

    /// Every value given for `flag`, in order.
    fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.0
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, value)| value.as_deref())
    }

    /// The last value given for `flag`: a repeated flag overrides.
    fn last<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.all(flag).last()
    }

    fn num(&self, flag: &str) -> Result<Option<u64>, String> {
        self.last(flag).map(parse_num).transpose()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.last(flag).map(PathBuf::from)
    }

    fn results_dir(&self) -> PathBuf {
        self.path("--results")
            .unwrap_or_else(|| PathBuf::from("results"))
    }

    /// The worker count; 0 (the default) means all cores.
    fn jobs(&self) -> Result<usize, String> {
        Ok(self.num("--jobs")?.unwrap_or(0) as usize)
    }

    fn format(&self) -> Result<TableFormat, String> {
        self.last("--format")
            .map_or(Ok(TableFormat::Markdown), |name| {
                TableFormat::from_name(name)
                    .ok_or_else(|| format!("unknown format `{name}` (md or csv)"))
            })
    }

    /// The `--class` values; each may list several, comma-separated.
    fn classes(&self) -> Result<Vec<ComboClass>, String> {
        self.all("--class")
            .flat_map(|value| value.split(','))
            .map(|part| part.trim().parse())
            .collect()
    }

    /// The budget preset, falling back to the subcommand's default. An
    /// explicit `--warmup N --measure N` pair (with a positive measured
    /// window) overrides a named preset, and of the named presets the
    /// last one given wins.
    fn budget(&self, default: BudgetPreset) -> Result<BudgetPreset, String> {
        match (self.num("--warmup")?, self.num("--measure")?) {
            (None, None) => Ok(self
                .0
                .iter()
                .rev()
                .find_map(|(flag, _)| match *flag {
                    "--quick" => Some(BudgetPreset::Quick),
                    "--mid" => Some(BudgetPreset::Mid),
                    "--eval" => Some(BudgetPreset::Eval),
                    _ => None,
                })
                .unwrap_or(default)),
            (Some(_), Some(0)) => Err("--measure must be positive".into()),
            (Some(w), Some(m)) if w.checked_add(m).is_none() => Err(format!(
                "--warmup {w} plus --measure {m} overflows the 64-bit cycle count"
            )),
            (Some(w), Some(m)) => Ok(BudgetPreset::Custom {
                warmup_cycles: w,
                measure_cycles: m,
            }),
            _ => Err("--warmup and --measure must be given together".into()),
        }
    }

    /// The stop preset the convergence flags describe.
    fn stop(&self) -> Result<StopPreset, String> {
        let window_cycles = self.num("--window")?;
        let rel_epsilon = self.last("--rel-eps").map(parse_float).transpose()?;
        match (
            self.has("--until-converged"),
            self.has("--until-reconverged"),
        ) {
            (true, true) => {
                Err("--until-converged and --until-reconverged are mutually exclusive".into())
            }
            (false, false) if window_cycles.is_some() || rel_epsilon.is_some() => {
                Err("--rel-eps/--window require --until-converged or --until-reconverged".into())
            }
            (false, false) => Ok(StopPreset::Fixed),
            _ if window_cycles == Some(0) => Err("--window must be positive".into()),
            (true, false) => Ok(StopPreset::Converged {
                window_cycles,
                rel_epsilon,
            }),
            (false, true) => Ok(StopPreset::Reconverged {
                window_cycles,
                rel_epsilon,
            }),
        }
    }

    /// The canonical phase schedule of the `--phase-shift` flags
    /// (repeats compose into one schedule), or `None`.
    fn phase_schedule(&self) -> Result<Option<PhaseSchedule>, String> {
        if !self.has("--phase-shift") {
            return Ok(None);
        }
        let spec = self.all("--phase-shift").collect::<Vec<_>>().join(";");
        PhaseSchedule::parse(&spec)
            .map(Some)
            .map_err(|e| format!("--phase-shift: {e}"))
    }

    /// The sweep the selection, budget and phase flags describe, named
    /// after its classes (`full` for all of them).
    fn spec(&self, default_budget: BudgetPreset) -> Result<SweepSpec, String> {
        let classes = self.classes()?;
        let name = if classes.is_empty() {
            "full".to_string()
        } else {
            let names: Vec<&str> = classes.iter().map(|c| c.name()).collect();
            names.join("+")
        };
        let phase = self.phase_schedule()?;
        let spec = SweepSpec {
            name,
            classes,
            combos: Vec::new(),
            budget: self.budget(default_budget)?,
            stop: self.stop()?,
            phase_shift: phase.as_ref().map(PhaseSchedule::fingerprint),
        };
        if let Some(schedule) = &phase {
            check_phase_schedule(schedule, &spec.compare_config())?;
        }
        Ok(spec)
    }
}

fn parse_num(s: &str) -> Result<u64, String> {
    s.replace('_', "")
        .parse::<u64>()
        .map_err(|_| format!("`{s}` is not a number"))
}

fn parse_float(s: &str) -> Result<f64, String> {
    s.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("`{s}` is not a non-negative number"))
}

/// Reject a phase schedule the run can never execute as described: a
/// shift at or past the budget's horizon would re-key the run as
/// "shifted" while leaving the workload stationary, and a core filter
/// outside the platform targets nothing. (Analogous to the
/// unknown-benchmark check in `PhaseSchedule::parse` — only this layer
/// knows the budget and the platform.)
fn check_phase_schedule(
    schedule: &PhaseSchedule,
    cfg: &snug_experiments::CompareConfig,
) -> Result<(), String> {
    let horizon = cfg.plan.horizon();
    let cores = cfg.system.num_cores;
    for shift in schedule.shifts() {
        if shift.at_cycle >= horizon {
            return Err(format!(
                "--phase-shift `{shift}` never fires: this budget's horizon is {horizon} cycles"
            ));
        }
        if let Some(&bad) = shift.cores.iter().find(|&&c| c >= cores) {
            return Err(format!(
                "--phase-shift `{shift}` targets core {bad}, but the platform has {cores} cores"
            ));
        }
    }
    Ok(())
}

fn cmd_sweep(args: &[String]) -> Result<(), Failure> {
    let args = SWEEP.parse(args)?;
    let spec = args.spec(BudgetPreset::Quick)?;
    let results_dir = args.results_dir();
    let verbose = args.has("--verbose");
    let mut store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
    if verbose {
        // Cache hits never reach the executor, so they get their lines
        // here: every unit already in the store before this sweep.
        let mut out = io::stdout().lock();
        for job in spec.combo_jobs() {
            for unit in &job.units {
                if store.get_unit(&unit.key).is_some() {
                    writeln!(out, "  hit  {} (from store)", unit.label())?;
                }
            }
        }
    }
    let mut spans: Vec<UnitSpan> = Vec::new();
    let mut printed = Ok(());
    let outcome = run_sweep(&spec, &mut store, args.jobs()?, |event| {
        let line = match event {
            SweepEvent::Planned { total, hits } => format!(
                "sweep `{}` ({}): {total} unit jobs, {hits} cache hits, {} to run",
                spec.name,
                spec.budget_label(),
                total - hits
            ),
            SweepEvent::JobStarted { label } => format!("  run  {label}"),
            SweepEvent::JobFinished {
                label,
                done,
                to_run,
                span,
            } => {
                // No running [done/total] counter on verbose lines: with
                // --jobs N the completion order races, and the verbose
                // lines must be deterministic in content (only their
                // order may vary between runs). Worker provenance
                // replaces the counter.
                let line = if verbose {
                    format!(
                        "  done {label} ({:.2} s wall, {}cyc/s, {}ops/s, worker {})",
                        span.wall_nanos as f64 / 1e9,
                        fmt_eng(span.cycles_per_sec()),
                        fmt_eng(span.ops_per_sec()),
                        span.worker,
                    )
                } else {
                    format!("  done {label} [{done}/{to_run}]")
                };
                spans.push(span);
                line
            }
            SweepEvent::JobFailed { label, error } => {
                eprintln!("  FAIL {label}: {error}");
                return;
            }
            SweepEvent::JobSkipped { label, failed_dep } => {
                eprintln!("  skip {label} (baseline {failed_dep} failed)");
                return;
            }
        };
        progress_line(&mut printed, &line);
    })
    .map_err(|e| e.to_string())?;
    printed?;
    let mut out = io::stdout().lock();
    writeln!(
        out,
        "sweep complete: {} executed, {} from cache → {}",
        outcome.executed,
        outcome.cache_hits,
        results_dir.join(snug_harness::store::STORE_FILE).display()
    )?;
    writeln!(out, "{}", telemetry_footer(&spans))?;
    if outcome.simulated_cycles < outcome.budgeted_cycles {
        let saved =
            100.0 * (1.0 - outcome.simulated_cycles as f64 / outcome.budgeted_cycles as f64);
        writeln!(
            out,
            "early exit: simulated {} of {} budgeted cycles ({saved:.1}% saved)",
            outcome.simulated_cycles, outcome.budgeted_cycles
        )?;
    }
    // Early-exit sweeps get an explicit stop-reason roll-up: a combo
    // whose baseline hit the ceiling never stabilised, so its numbers
    // are mid-ramp and must not read as plateau measurements. Counted
    // from the typed stop reasons, not the rendered table.
    if spec.compare_config().plan.can_stop_early() {
        let reasons: Vec<snug_experiments::StopReason> = spec
            .combo_jobs()
            .iter()
            .filter_map(|job| {
                let baseline = job
                    .units
                    .iter()
                    .find(|u| u.point == snug_experiments::SchemePoint::L2p)?;
                let run = store.get_unit(&baseline.key)?;
                Some(snug_experiments::pace_of(run, &job.config).stop_reason)
            })
            .collect();
        let ceilings = reasons
            .iter()
            .filter(|r| **r == snug_experiments::StopReason::Ceiling)
            .count();
        if ceilings > 0 {
            writeln!(
                out,
                "stop reasons: {ceilings}/{} combos hit the ceiling without stabilising \
                 (mid-ramp numbers; `snug report` with the same flags shows per-combo detail)",
                reasons.len()
            )?;
        } else {
            writeln!(
                out,
                "stop reasons: all {} combos converged before the ceiling",
                reasons.len()
            )?;
        }
    }
    Ok(())
}

/// `snug report`: each mode parses against its own table, so a flag of
/// the other mode (or both mode flags at once) is an unknown flag.
fn cmd_report(args: &[String]) -> Result<(), Failure> {
    let given = |flag: &str| args.iter().any(|a| a == flag);
    if given("--experiments-md") {
        cmd_experiments_md(&EXPERIMENTS_MD.parse(args)?)
    } else if given("--experiments-eval-md") {
        cmd_experiments_eval_md(&EXPERIMENTS_EVAL_MD.parse(args)?)
    } else {
        report(&REPORT.parse(args)?)
    }
}

fn report(args: &Args) -> Result<(), Failure> {
    let spec = args.spec(BudgetPreset::Quick)?;
    let results_dir = args.results_dir();
    let format = args.format()?;
    let store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing results for this spec — run `snug sweep` with the same flags first",
            results_dir.display()
        )
    })?;
    let stop_summary = stop_summary_table(&spec, &store);
    let mut out = io::stdout().lock();
    match format {
        TableFormat::Markdown => {
            write!(out, "{}", render_markdown(&spec, &results))?;
            if let Some(table) = &stop_summary {
                writeln!(out, "{}", table.to_markdown())?;
                writeln!(out, "{CEILING_FOOTNOTE}")?;
            }
        }
        TableFormat::Csv => {
            for table in snug_harness::report_tables(&results) {
                writeln!(out, "# {}", table.title)?;
                write!(out, "{}", table.render(TableFormat::Csv))?;
            }
            if let Some(table) = &stop_summary {
                writeln!(out, "# {}", table.title)?;
                write!(out, "{}", table.render(TableFormat::Csv))?;
            }
        }
    }
    if let Some(dir) = args.path("--out") {
        let written = snug_harness::write_report(&dir, &spec, &results, stop_summary.as_ref())
            .map_err(|e| format!("writing report: {e}"))?;
        for path in written {
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// `snug report --experiments-md [--check] [--md-path FILE]`: render
/// the full evaluation (budget defaults to `--mid`, always all 21
/// combos) from the store into the committed EXPERIMENTS.md, or verify
/// it.
fn cmd_experiments_md(args: &Args) -> Result<(), Failure> {
    let spec = args.spec(BudgetPreset::Mid)?;
    let results_dir = args.results_dir();
    let store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing results for the {} budget — run `snug sweep {}` first",
            results_dir.display(),
            spec.budget.label(),
            budget_flags(spec.budget),
        )
    })?;
    drop(store);
    let rendered = render_experiments_md(&spec, &results);
    let md_path = args
        .path("--md-path")
        .unwrap_or_else(|| PathBuf::from(snug_harness::experiments_md::EXPERIMENTS_FILE));
    let check = args.has("--check");
    write_or_check_doc(&md_path, &rendered, check, "snug report --experiments-md")?;
    if !check {
        writeln!(
            io::stdout().lock(),
            "wrote {} ({} combos, budget {})",
            md_path.display(),
            results.len(),
            spec.budget.label()
        )?;
    }
    Ok(())
}

/// The flags that select `budget` on a command line: `--mid`, or
/// `--warmup N --measure N` for a custom budget.
fn budget_flags(budget: BudgetPreset) -> String {
    match budget {
        BudgetPreset::Custom {
            warmup_cycles,
            measure_cycles,
        } => format!("--warmup {warmup_cycles} --measure {measure_cycles}"),
        preset => format!("--{}", preset.label()),
    }
}

/// `snug report --experiments-eval-md [--check] [--md-path FILE]`:
/// render the committed eval-scale document — the converged eval sweep
/// with the Fig. 9 SNUG-vs-CC(Best) verdict — or verify it. The spec is
/// pinned ([`eval_converged_spec`]).
fn cmd_experiments_eval_md(args: &Args) -> Result<(), Failure> {
    let spec = eval_converged_spec();
    let results_dir = args.results_dir();
    let store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing the converged eval results — run `snug sweep --eval \
             --until-converged --window {EVAL_CONVERGED_WINDOW} --rel-eps \
             {EVAL_CONVERGED_REL_EPSILON}` first",
            results_dir.display(),
        )
    })?;
    let stop_summary = stop_summary_table(&spec, &store);
    drop(store);
    let rendered = render_experiments_eval_md(&spec, &results, stop_summary.as_ref());
    let md_path = args
        .path("--md-path")
        .unwrap_or_else(|| PathBuf::from(snug_harness::EXPERIMENTS_EVAL_FILE));
    let check = args.has("--check");
    write_or_check_doc(
        &md_path,
        &rendered,
        check,
        "snug report --experiments-eval-md",
    )?;
    if !check {
        writeln!(
            io::stdout().lock(),
            "wrote {} ({} combos, budget {})",
            md_path.display(),
            results.len(),
            spec.budget_label()
        )?;
    }
    Ok(())
}

/// Shared `--check`/write tail of the committed-document commands.
fn write_or_check_doc(
    md_path: &std::path::Path,
    rendered: &str,
    check: bool,
    regen_cmd: &str,
) -> Result<(), Failure> {
    if check {
        // Only a genuinely absent file counts as Missing; any other
        // read failure (permissions, invalid UTF-8) is its own error.
        let committed = match std::fs::read_to_string(md_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading {}: {e}", md_path.display()).into()),
        };
        return match check_experiments_md(rendered, committed.as_deref()) {
            CheckOutcome::Fresh => Ok(writeln!(
                io::stdout().lock(),
                "{} is up to date",
                md_path.display()
            )?),
            CheckOutcome::Missing => Err(format!(
                "{} is missing — run `{regen_cmd}` and commit it",
                md_path.display()
            )
            .into()),
            CheckOutcome::Stale(line) => Err(format!(
                "{} is stale (first difference at line {line}) — regenerate with \
                 `{regen_cmd}` and commit the result",
                md_path.display()
            )
            .into()),
        };
    }
    std::fs::write(md_path, rendered)
        .map_err(|e| format!("writing {}: {e}", md_path.display()).into())
}

fn cmd_compare(args: &[String]) -> Result<(), Failure> {
    let args = COMPARE.parse(args)?;
    let mut spec = args.spec(BudgetPreset::Quick)?;
    let label = args.last("--combo");
    if let Some(label) = label {
        let all = all_combos();
        let combo = all.iter().find(|c| c.label() == label).ok_or_else(|| {
            format!("unknown combo `{label}` (see Table 8 labels, e.g. `ammp+parser+swim+mesa`)")
        })?;
        // A single-combo sweep: restrict the job list to exactly this
        // combo (the store is keyed per combo, so nothing else runs).
        spec.classes = vec![combo.class];
        spec.combos = vec![label.to_string()];
        spec.name = label.to_string();
    } else if spec.classes.is_empty() {
        return Err("compare needs --combo LABEL or --class C".into());
    }

    let mut store = ResultStore::open(args.results_dir()).map_err(|e| e.to_string())?;
    let outcome = run_sweep(&spec, &mut store, args.jobs()?, |_| {}).map_err(|e| e.to_string())?;
    let mut out = io::stdout().lock();
    for r in outcome.combos.iter().map(|c| &c.result) {
        if label.is_some_and(|l| r.label != l) {
            continue;
        }
        writeln!(out, "\n{} (class {})", r.label, r.class.name())?;
        writeln!(
            out,
            "  {:<10} {:>10} {:>10} {:>10}",
            "scheme", "tp", "aws", "fair"
        )?;
        for s in &r.schemes {
            writeln!(
                out,
                "  {:<10} {:>10.3} {:>10.3} {:>10.3}",
                s.scheme, s.metrics.throughput, s.metrics.aws, s.metrics.fair
            )?;
        }
        let sweep = r
            .cc_sweep
            .iter()
            .map(|(p, tp)| format!("{:.0}%→{tp:.3}", p * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        writeln!(out, "  CC sweep: {sweep}")?;
    }
    writeln!(
        out,
        "\n({} executed, {} from cache)",
        outcome.executed, outcome.cache_hits
    )?;
    Ok(())
}

/// The `COMBO SCHEME` arguments of `trace` and `profile`, and the flags
/// after them.
fn combo_and_scheme<'a>(
    command: &str,
    args: &'a [String],
) -> Result<(snug_workloads::Combo, SchemeSpec, &'a [String]), String> {
    let positional = args.iter().take_while(|a| !a.starts_with("--")).count();
    let [combo_label, scheme_name] = &args[..positional] else {
        return Err(format!(
            "{command} needs two arguments: COMBO SCHEME (e.g. \
             `snug {command} ammp+ammp+ammp+ammp snug`)"
        ));
    };
    let combo = all_combos()
        .into_iter()
        .find(|c| c.label() == *combo_label)
        .ok_or_else(|| {
            format!(
                "unknown combo `{combo_label}` (see Table 8 labels, e.g. \
                 `ammp+parser+swim+mesa`)"
            )
        })?;
    Ok((combo, scheme_name.parse()?, &args[positional..]))
}

/// `snug trace COMBO SCHEME`: record (or serve from the store) the
/// per-period time series of one simulation and render it. Traces
/// record the full fixed window (the point is seeing the whole time
/// series), so the convergence flags are not in its table.
fn cmd_trace(args: &[String]) -> Result<(), Failure> {
    let (combo, spec, flags) = combo_and_scheme("trace", args)?;
    let args = TRACE.parse(flags)?;
    let point = match spec {
        SchemeSpec::L2p => SchemePoint::L2p,
        SchemeSpec::L2s => SchemePoint::L2s,
        SchemeSpec::Cc { spill_probability } => SchemePoint::Cc { spill_probability },
        SchemeSpec::Dsr(_) => SchemePoint::Dsr,
        SchemeSpec::Snug(_) => SchemePoint::Snug,
    };

    let budget = args.budget(BudgetPreset::Mid)?;
    let cfg = budget.compare_config();
    let stride = args
        .num("--stride")?
        .unwrap_or_else(|| default_stride(&cfg));
    if stride == 0 {
        return Err("--stride must be positive".into());
    }
    let phase = args.phase_schedule()?;
    if let Some(schedule) = &phase {
        check_phase_schedule(schedule, &cfg)?;
    }
    let format = args.format()?;

    let mut store = ResultStore::open(args.results_dir()).map_err(|e| e.to_string())?;
    let key = trace_key(&combo, &point, &cfg, stride, phase.as_ref());
    let (series, from_cache) = match store.get_series(&key) {
        Some(series) => (series.clone(), true),
        None => {
            let series = trace_point(&combo, &point, &cfg, stride, phase.as_ref());
            store
                .insert_series(key, series.clone())
                .map_err(|e| e.to_string())?;
            (series, false)
        }
    };

    let table = series.table(&combo.label());
    write!(io::stdout().lock(), "{}", table.render(format))?;
    eprintln!(
        "\ntrace {} [{}] budget {} stride {stride}: {} samples, {} scheme events, \
         mean throughput {:.3}{}",
        combo.label(),
        series.scheme,
        budget.label(),
        series.samples.len(),
        series.event_count(),
        series.mean_throughput(),
        if from_cache { " (from cache)" } else { "" },
    );
    if phase.is_some() {
        let means = series
            .phase_throughputs()
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(" → ");
        eprintln!(
            "phase plateaus (mean throughput per workload phase): {means} \
             ({} phase boundaries recorded)",
            series.shift_count(),
        );
    }
    Ok(())
}

/// `snug profile COMBO SCHEME`: run one simulation in-process and
/// render its observability counters as tables, with wall-clock
/// throughput and the measured probe overhead in the footer.
fn cmd_profile(args: &[String]) -> Result<(), Failure> {
    let (combo, spec, flags) = combo_and_scheme("profile", args)?;
    let args = PROFILE.parse(flags)?;
    let budget = args.budget(BudgetPreset::Quick)?;
    let format = args.format()?;
    let cfg = budget.compare_config();

    // The counters are always on, so the measurable overhead is the
    // probe machinery on top of an otherwise identical bare run.
    // Bare and probed runs interleave for three repetitions and each
    // takes its best time, so one-off warm-up costs (page faults, lazy
    // allocation) do not masquerade as probe overhead.
    let stride = default_stride(&cfg);
    let mut bare_nanos = u64::MAX;
    let mut probed_nanos = u64::MAX;
    let mut harvested = None;
    for _ in 0..3 {
        let bare_started = Instant::now();
        let mut bare = session_for(&combo, spec.build_any(cfg.system), &cfg, None);
        bare.run_to_completion();
        bare_nanos = bare_nanos.min(bare_started.elapsed().as_nanos().max(1) as u64);

        let probed_started = Instant::now();
        let mut session = session_for(&combo, spec.build_any(cfg.system), &cfg, None);
        session.enable_recording(stride);
        let result = session.run_to_completion();
        probed_nanos = probed_nanos.min(probed_started.elapsed().as_nanos().max(1) as u64);
        let counters = session.counters();
        harvested = Some((result, counters));
    }
    let (result, counters) = harvested.expect("three repetitions ran");

    let window = cfg.plan.measure_cycles();
    let mut out = io::stdout().lock();
    for table in [
        counters.hit_miss_table(),
        counters.dispatch_table(window),
        counters.walk_depth_table(),
        counters.cost_center_table(window),
    ] {
        if format == TableFormat::Csv {
            writeln!(out, "# {}", table.title)?;
        }
        write!(out, "{}", table.render(format))?;
    }

    let secs = probed_nanos as f64 / 1e9;
    let sim_cycles = cfg.plan.horizon();
    let overhead = 100.0 * (probed_nanos as f64 - bare_nanos as f64) / bare_nanos as f64;
    eprintln!(
        "\nprofile {} [{}] budget {}: throughput {:.3}, {} retired ops in {:.2} s wall \
         ({}cycles/s, {}ops/s)",
        combo.label(),
        result.scheme,
        budget.label(),
        result.throughput(),
        counters.retired_ops,
        secs,
        fmt_eng(sim_cycles as f64 / secs),
        fmt_eng(counters.retired_ops as f64 / secs),
    );
    eprintln!(
        "probe overhead: {overhead:+.1}% wall vs an unprobed run \
         ({:.2} s bare, {:.2} s probed, stride {stride})",
        bare_nanos as f64 / 1e9,
        secs,
    );
    eprintln!("counter summary: {}", counters.summary());
    Ok(())
}

/// `snug store gc | merge`: compact the JSONL store to the newest entry
/// per key, or fold sharded stores into it under the same rule.
fn cmd_store(args: &[String]) -> Result<(), Failure> {
    let (sub, rest) = match args.split_first() {
        Some((s, rest)) => (s.as_str(), rest),
        None => return Err("store needs a subcommand: `snug store gc|merge`".into()),
    };
    let mut out = io::stdout().lock();
    match sub {
        "gc" => {
            let results_dir = STORE_GC.parse(rest)?.results_dir();
            let mut store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
            let before = store.file_lines();
            let (kept, dropped) = store.compact().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "store gc: {before} lines -> {kept} ({dropped} superseded dropped) in {}",
                results_dir.join(snug_harness::store::STORE_FILE).display()
            )?;
            Ok(())
        }
        "merge" => {
            let shards = rest.iter().take_while(|a| !a.starts_with("--")).count();
            if shards == 0 {
                return Err(
                    "store merge needs at least one shard file: `snug store merge \
                     SHARD.jsonl... [--results DIR]`"
                        .into(),
                );
            }
            let results_dir = STORE_MERGE.parse(&rest[shards..])?.results_dir();
            let mut store = ResultStore::open(&results_dir).map_err(|e| e.to_string())?;
            for shard in &rest[..shards] {
                let stats = store
                    .merge_file(std::path::Path::new(shard.as_str()))
                    .map_err(|e| e.to_string())?;
                writeln!(
                    out,
                    "merged {shard}: {} entries read, {} added, {} superseded, {} unchanged",
                    stats.read, stats.added, stats.superseded, stats.unchanged
                )?;
            }
            // Merging appends shard entries; one compaction pass leaves
            // the newest entry per key (merge ∘ gc is idempotent).
            let (kept, dropped) = store.compact().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "store merge: {kept} entries ({dropped} superseded dropped) in {}",
                results_dir.join(snug_harness::store::STORE_FILE).display()
            )?;
            Ok(())
        }
        other => {
            Err(format!("unknown store subcommand `{other}` (expected `gc` or `merge`)").into())
        }
    }
}

/// `snug characterize [--check]`: characterise every modelled
/// benchmark at the pinned plan and write `CHARACTERIZATION.md`, or,
/// with `--check`, fail if the committed document is stale.
fn cmd_characterize(args: &[String]) -> Result<(), Failure> {
    let check = CHARACTERIZE.parse(args)?.has("--check");
    let md_path = std::path::Path::new(snug_harness::CHARACTERIZATION_FILE);
    write_or_check_doc(
        md_path,
        &render_characterization_md(),
        check,
        "snug characterize",
    )?;
    if !check {
        writeln!(io::stdout().lock(), "wrote {}", md_path.display())?;
    }
    Ok(())
}

/// `snug ablations [--check]`: run whatever units of the ablation sweep
/// the store under `results/ablations/` is missing, then write
/// `ABLATIONS.md`. With `--check`, run nothing: render from the store
/// and fail on a stale document or a missing unit.
fn cmd_ablations(args: &[String]) -> Result<(), Failure> {
    ablations(
        std::path::Path::new(snug_harness::ABLATIONS_DIR),
        std::path::Path::new(snug_harness::ABLATIONS_FILE),
        ABLATIONS.parse(args)?.has("--check"),
    )
}

/// [`cmd_ablations`] over an explicit store directory and document path.
fn ablations(
    results_dir: &std::path::Path,
    md_path: &std::path::Path,
    check: bool,
) -> Result<(), Failure> {
    let combos = ablation_jobs();
    let mut store = ResultStore::open(results_dir).map_err(|e| e.to_string())?;
    if !check {
        let units: Vec<_> = combos.iter().flat_map(|c| c.units().cloned()).collect();
        let hits = units
            .iter()
            .filter(|u| store.get_unit(&u.key).is_some())
            .count();
        writeln!(
            io::stdout().lock(),
            "ablations: {} unit jobs, {hits} cache hits, {} to run",
            units.len(),
            units.len() - hits
        )?;
        let mut printed = Ok(());
        run_unit_jobs(&units, &mut store, 0, &mut |event| match event {
            SweepEvent::JobFinished {
                label,
                done,
                to_run,
                ..
            } => progress_line(&mut printed, &format!("  done {label} [{done}/{to_run}]")),
            SweepEvent::JobFailed { label, error } => eprintln!("  FAIL {label}: {error}"),
            _ => {}
        })
        .map_err(|e| e.to_string())?;
        printed?;
    }
    let rendered = render_ablations_md(&combos, &store)
        .map_err(|e| format!("{e} — run `snug ablations` to fill it"))?;
    write_or_check_doc(md_path, &rendered, check, "snug ablations")?;
    if !check {
        writeln!(
            io::stdout().lock(),
            "wrote {} ({} combos)",
            md_path.display(),
            combos.len()
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_mem::{ShiftDirective, StreamShift};
    use snug_harness::ContentKey;

    /// Every subcommand and `report` mode.
    const COMMANDS: [Command; 11] = [
        SWEEP,
        REPORT,
        EXPERIMENTS_MD,
        EXPERIMENTS_EVAL_MD,
        COMPARE,
        TRACE,
        PROFILE,
        STORE_GC,
        STORE_MERGE,
        ABLATIONS,
        CHARACTERIZE,
    ];

    fn words(text: &str) -> Vec<String> {
        text.split(' ').map(str::to_string).collect()
    }

    /// A value each valued flag accepts.
    fn valid_value(flag: &str) -> &'static str {
        match flag {
            "--class" => "C5",
            "--phase-shift" => "400000:demand=300",
            "--combo" => "ammp+parser+swim+mesa",
            "--format" => "csv",
            "--rel-eps" => "0.5",
            "--results" | "--out" | "--md-path" => "some/path",
            _ => "150_000",
        }
    }

    /// The typed readers the commands share, each applied to `args`.
    fn read_all(args: &Args) -> Vec<Result<(), String>> {
        vec![
            args.classes().map(drop),
            args.budget(BudgetPreset::Quick).map(drop),
            args.stop().map(drop),
            args.phase_schedule().map(drop),
            args.format().map(drop),
            args.jobs().map(drop),
            args.num("--stride").map(drop),
        ]
    }

    /// Feed `text` to every parser; each must return, never panic. An
    /// error must say what went wrong.
    fn parse_everything(text: &str) -> Result<(), TestCaseError> {
        fn named<T, E: std::fmt::Display>(r: Result<T, E>) -> bool {
            r.map_or_else(|e| !e.to_string().is_empty(), |_| true)
        }
        prop_assert!(named(PhaseSchedule::parse(text)), "{text:?}");
        prop_assert!(named(text.parse::<StreamShift>()), "{text:?}");
        prop_assert!(named(text.parse::<ShiftDirective>()), "{text:?}");
        prop_assert!(named(text.parse::<SchemeSpec>()), "{text:?}");
        prop_assert!(named(text.parse::<ComboClass>()), "{text:?}");
        prop_assert!(named(text.parse::<ContentKey>()), "{text:?}");
        for command in &COMMANDS {
            match command.parse(&words(text)) {
                Ok(args) => {
                    for read in read_all(&args) {
                        prop_assert!(named(read), "{text:?}");
                    }
                }
                Err(e) => prop_assert!(!e.is_empty(), "{text:?}"),
            }
        }
        Ok(())
    }

    /// Each command takes every flag in its table, with a valid value,
    /// and no other: a flag from any other table (or a retired one) is
    /// an unknown flag naming both the flag and the command.
    #[test]
    fn each_command_takes_exactly_the_flags_in_its_table() {
        let retired = [
            ("--spec", true),
            ("--name", true),
            ("--threads", true),
            ("--bench", true),
            ("--intervals", true),
            ("--accesses", true),
        ];
        let every: Vec<Flag> = COMMANDS
            .iter()
            .flat_map(|c| c.flags.iter().copied().flatten().copied())
            .chain(retired)
            .collect();
        for command in &COMMANDS {
            let own = |flag| command.flags.iter().copied().flatten().any(|f| f.0 == flag);
            for &(flag, takes_value) in &every {
                let mut args = vec![flag.to_string()];
                if takes_value {
                    args.push(valid_value(flag).into());
                }
                let parsed = command.parse(&args);
                if own(flag) {
                    // Cross-flag rules (`--warmup` needs `--measure`)
                    // may still object, but never to the value itself.
                    let parsed = parsed.unwrap_or_else(|e| panic!("{e}"));
                    let bad: Vec<String> = read_all(&parsed)
                        .into_iter()
                        .filter_map(Result::err)
                        .filter(|e| e.contains(valid_value(flag)))
                        .collect();
                    assert!(bad.is_empty(), "snug {} {flag}: {bad:?}", command.name);
                } else {
                    let unknown = format!("unknown flag `{flag}` for `snug {}`", command.name);
                    assert_eq!(parsed.err(), Some(unknown));
                }
            }
        }
        let err = run("bench", &[]).unwrap_err();
        assert!(
            matches!(&err, Failure::Error(e) if e.starts_with("unknown command `bench`")),
            "{err:?}"
        );
    }

    /// Each option has one spelling: `--jobs` sets the worker count,
    /// and `--threads` is an unknown flag.
    #[test]
    fn jobs_is_the_only_worker_count_flag() {
        for command in [SWEEP, COMPARE] {
            let jobs = command.parse(&words("--jobs 2")).and_then(|a| a.jobs());
            assert_eq!(jobs, Ok(2));
            let err = command.parse(&words("--threads 2")).err().unwrap();
            assert!(err.starts_with("unknown flag `--threads`"), "{err}");
        }
    }

    /// A `--warmup`/`--measure` pair whose sum overflows is rejected
    /// where it is parsed, naming both flags, rather than wrapping the
    /// horizon to zero cycles; the largest pair that fits still parses.
    #[test]
    fn an_overflowing_budget_is_rejected_naming_both_flags() {
        let command = "--warmup 18446744073709551615 --measure 1 --phase-shift 1:demand=200";
        let Err(Failure::Error(err)) = run("report", &words(command)) else {
            panic!("an overflowing budget must fail");
        };
        assert!(
            err.contains("--warmup") && err.contains("--measure") && err.contains("overflows"),
            "{err}"
        );
        let fits = REPORT
            .parse(&words("--warmup 18446744073709551614 --measure 1"))
            .unwrap();
        assert!(fits.budget(BudgetPreset::Quick).is_ok());
    }

    /// A zero `--measure` is an error where every budget command parses
    /// it, not a run that stores all-zero IPCs and then panics; a zero
    /// warm-up is fine.
    #[test]
    fn a_zero_measure_window_is_rejected() {
        for command in [SWEEP, REPORT, COMPARE, TRACE, PROFILE, EXPERIMENTS_MD] {
            let args = command.parse(&words("--warmup 1000 --measure 0")).unwrap();
            let err = args.budget(BudgetPreset::Quick).err();
            assert_eq!(
                err.as_deref(),
                Some("--measure must be positive"),
                "snug {}",
                command.name
            );
            let args = command.parse(&words("--warmup 0 --measure 1")).unwrap();
            assert!(
                args.budget(BudgetPreset::Quick).is_ok(),
                "snug {}",
                command.name
            );
        }
    }

    /// `report --experiments-md` on an unswept store names the sweep
    /// flags that fill it, and `snug sweep` takes them.
    #[test]
    fn the_experiments_md_hint_is_a_sweep_command_line() {
        let empty = std::env::temp_dir().join(format!("snug-hint-{}", std::process::id()));
        let results = empty.display().to_string();
        for (budget, sweep) in [
            ("--warmup 10 --measure 20", "--warmup 10 --measure 20"),
            ("--quick", "--quick"),
            ("", "--mid"),
        ] {
            let line = format!("--experiments-md {budget} --results {results}");
            let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            let Err(Failure::Error(err)) = run("report", &args) else {
                panic!("an unswept store must fail: {line}");
            };
            let hint = format!("run `snug sweep {sweep}` first");
            assert!(err.contains(&hint), "{err}");
            assert!(SWEEP.parse(&words(sweep)).is_ok(), "{sweep}");
        }
        assert!(!empty.exists());
    }

    /// The repository root, where the committed documents live.
    fn repo_root() -> PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// `snug ablations --check` passes on the committed store and
    /// document, and fails naming the file once one digit of a rendered
    /// throughput changes.
    #[test]
    fn ablations_check_fails_on_a_one_digit_edit() {
        let root = repo_root();
        let dir = root.join(snug_harness::ABLATIONS_DIR);
        let committed = root.join(snug_harness::ABLATIONS_FILE);
        assert_eq!(ablations(&dir, &committed, true), Ok(()));

        let text = std::fs::read_to_string(&committed).unwrap();
        let table = text.find("## Throughput normalised to L2P").unwrap();
        let digit = table + text[table..].find("| 0.").unwrap() + 4;
        let mut text = text.into_bytes();
        text[digit] = b'0' + (text[digit] - b'0' + 1) % 10;
        let stale = std::env::temp_dir().join(format!("snug-ablations-{}.md", std::process::id()));
        std::fs::write(&stale, &text).unwrap();
        let err = ablations(&dir, &stale, true).unwrap_err();
        std::fs::remove_file(&stale).unwrap();
        let Failure::Error(err) = err else {
            panic!("{err:?}")
        };
        assert!(err.contains(&stale.display().to_string()), "{err}");
        assert!(err.contains("is stale"), "{err}");
    }

    /// `snug characterize --check` passes on the committed document,
    /// and a one-byte edit fails naming the file and the edited line.
    #[test]
    fn characterize_check_fails_on_a_one_byte_edit() {
        let rendered = render_characterization_md();
        let check =
            |path: &std::path::Path| write_or_check_doc(path, &rendered, true, "snug characterize");
        let committed = repo_root().join(snug_harness::CHARACTERIZATION_FILE);
        assert_eq!(check(&committed), Ok(()));

        let text = std::fs::read_to_string(&committed).unwrap();
        let figure = text.find("## Figure 2").unwrap();
        let digit = figure + text[figure..].find("% |").unwrap() - 1;
        let line = text[..digit].lines().count();
        let mut text = text.into_bytes();
        text[digit] = b'0' + (text[digit] - b'0' + 1) % 10;
        let stale =
            std::env::temp_dir().join(format!("snug-characterize-{}.md", std::process::id()));
        std::fs::write(&stale, &text).unwrap();
        let err = check(&stale).unwrap_err();
        std::fs::remove_file(&stale).unwrap();
        let Failure::Error(err) = err else {
            panic!("{err:?}")
        };
        assert!(err.contains(&stale.display().to_string()), "{err}");
        let stale_at = format!("is stale (first difference at line {line})");
        assert!(err.contains(&stale_at), "{err}");
    }

    /// `--check` on a store missing one unit names that unit.
    #[test]
    fn ablations_check_names_a_missing_unit() {
        let root = repo_root();
        let store =
            std::fs::read_to_string(root.join(snug_harness::ABLATIONS_DIR).join("store.jsonl"))
                .unwrap();
        let key = ablation_jobs().pop().unwrap().snug[5].key.to_string();
        let kept: String = store
            .lines()
            .filter(|line| !line.contains(&key))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(kept.lines().count() + 1, store.lines().count());
        let dir = std::env::temp_dir().join(format!("snug-ablations-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("store.jsonl"), kept).unwrap();
        let err = ablations(&dir, &root.join(snug_harness::ABLATIONS_FILE), true).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        let Failure::Error(err) = err else {
            panic!("{err:?}")
        };
        assert!(err.contains(&key), "{err}");
        assert!(err.contains("[snug: k=6, p=16]"), "{err}");
    }

    proptest! {
        /// Arbitrary bytes, lossily decoded as a shell would hand them
        /// over, never panic a parser.
        #[test]
        fn arbitrary_bytes_never_panic_a_parser(
            inputs in proptest::collection::vec(proptest::collection::vec(0u8..=255, 0..64), 16),
        ) {
            for bytes in &inputs {
                parse_everything(&String::from_utf8_lossy(bytes))?;
            }
        }

        /// Neither do strings built from the grammars' own alphabet.
        #[test]
        fn grammar_near_misses_never_panic_a_parser(
            inputs in proptest::collection::vec(proptest::collection::vec(0usize..1024, 0..24), 16),
        ) {
            let pieces: Vec<&str> = PIECES.split('|').collect();
            for picks in &inputs {
                let text: String = picks.iter().map(|&i| pieces[i % pieces.len()]).collect();
                parse_everything(&text)?;
            }
        }
    }

    /// Near misses of the text grammars the CLI reaches, `|`-separated:
    /// separators, directive words, scheme and class names, flags, a
    /// 30-digit run that overflows every integer field, and content-key
    /// hex runs in both cases (two lowercase runs spell a whole key).
    const PIECES: &str = "0|1|9|_|:|;|@|,|=|-|%|(|)| |.|demand|near|streaming|profile|mcf|l2p|\
        cc|snug|dsr|C|--class|--phase-shift|--window|--rel-eps|--warmup|--measure|--jobs|\
        --until-converged|--quick|--check|--format|--stride|--bench|\
        123456789012345678901234567890|0123456789abcdef|0123456789ABCDEF|é|\0";
}
