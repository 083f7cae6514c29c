//! `snug` — the experiment-orchestration CLI.
//!
//! ```text
//! snug sweep        [--class C5]... [--quick|--mid|--eval|--warmup N --measure N]
//!                   [--threads N] [--results DIR] [--name NAME]
//! snug report       [same selection flags] [--results DIR] [--out DIR]
//!                   [--experiments-md [--check]]
//! snug compare      --combo LABEL | --class C [budget flags] [--results DIR]
//! snug characterize [--bench ammp,...] [--intervals N] [--accesses N] [--out DIR]
//! ```
//!
//! `sweep` runs the five-scheme comparison for the selected combos at
//! per-(combo, scheme, config-point) job granularity, serving unchanged
//! jobs from the content-addressed store under `--results` (default
//! `results/`). `report` renders Figures 9–11 and the per-combo table
//! from the store without running anything; `report --experiments-md`
//! renders the committed `EXPERIMENTS.md` and `--check` fails if the
//! committed file is stale.

use snug_core::SchemeSpec;
use snug_experiments::{default_stride, session_for, trace_point, SchemePoint};
use snug_harness::{
    cached_results, check_experiments_md, eval_converged_spec, fmt_eng, render_experiments_eval_md,
    render_experiments_md, render_markdown, run_sweep, stop_summary_table, telemetry_footer,
    trace_key, BudgetPreset, CheckOutcome, JsonCodec, ResultStore, StopPreset, SweepEvent,
    SweepSpec, UnitSpan, CEILING_FOOTNOTE, EVAL_CONVERGED_REL_EPSILON, EVAL_CONVERGED_WINDOW,
};
use snug_metrics::TableFormat;
use snug_workloads::{all_combos, Benchmark, ComboClass, PhaseSchedule};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        "sweep" => cmd_sweep(rest),
        "report" => cmd_report(rest),
        "compare" => cmd_compare(rest),
        "characterize" => cmd_characterize(rest),
        "trace" => cmd_trace(rest),
        "profile" => cmd_profile(rest),
        "store" => cmd_store(rest),
        "bench" => cmd_bench(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("snug: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
snug — SNUG experiment orchestration

USAGE:
  snug sweep        [--class C1..C6]... [budget flags] [--phase-shift SPEC]...
                    [--jobs N] [--results DIR] [--name NAME] [--spec FILE]
                    [--verbose]
  snug report       [--class ...] [budget flags] [--phase-shift SPEC]...
                    [--results DIR] [--out DIR] [--format md|csv] [--name NAME]
                    [--experiments-md | --experiments-eval-md [--check] [--md-path FILE]]
  snug compare      --combo LABEL | --class C [budget flags] [--phase-shift SPEC]...
                    [--jobs N] [--results DIR]
  snug trace        COMBO SCHEME [--stride N] [--phase-shift SPEC]...
                    [--quick|--mid|--eval|--warmup N --measure N]
                    [--results DIR] [--format md|csv]
  snug profile      COMBO SCHEME [--quick|--mid|--eval|--warmup N --measure N]
                    [--format md|csv]
  snug store gc     [--results DIR]
  snug store merge  SHARD.jsonl... [--results DIR]
  snug bench        [kernel|micro]... [--emit|--check]
  snug characterize [--bench NAME[,NAME]...] [--intervals N] [--accesses N] [--out DIR]

Budget flags (shared by sweep/compare/report; trace takes the fixed
subset): --quick | --mid | --eval | --warmup N --measure N pick the run
budget, and --until-converged [--rel-eps E] [--window N] swaps the fixed
window for convergence-based early exit: each combo's L2P baseline stops
at the first window boundary where its last four window throughputs
agree to within E (default 0.02), and every other scheme measures over
that same window — never past the budget ceiling. Converged runs are
keyed separately from the canonical fixed-budget entries, and every
early-exit-capable run persists an explicit stop_reason
(converged/ceiling), so runs that never stabilised inside the budget are
never mistaken for plateau measurements. Subcommands reject flags they
would otherwise silently ignore.

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
apply).

Parallel execution: `snug sweep --jobs N` (`--threads` is an alias;
0 = all cores) runs unit jobs on a worker pool. Each worker appends
completed units to its own crash-safe shard under results/shards/, and
shards merge into results/store.jsonl in deterministic plan order at
sweep end — the store bytes are identical for every N, and a sweep
killed mid-flight recovers its completed units on the next run.
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

/// The budget/stop flag family — one parser and one defaulting rule
/// shared by `sweep`, `compare`, `report` and `trace`, and rejected
/// wholesale by subcommands that would otherwise silently ignore it.
#[derive(Default)]
struct BudgetFlags {
    /// `None` means "not given": each command picks its default
    /// (`--quick` for sweeps, `--mid` for `trace` and
    /// `--experiments-md`).
    preset: Option<BudgetPreset>,
    warmup: Option<u64>,
    measure: Option<u64>,
    until_converged: bool,
    until_reconverged: bool,
    rel_eps: Option<f64>,
    window: Option<u64>,
}

impl BudgetFlags {
    /// Try to consume `arg` as one of the family's flags; returns
    /// whether it was consumed.
    fn parse_flag(
        &mut self,
        arg: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--quick" => self.preset = Some(BudgetPreset::Quick),
            "--mid" => self.preset = Some(BudgetPreset::Mid),
            "--eval" => self.preset = Some(BudgetPreset::Eval),
            "--warmup" => self.warmup = Some(parse_num(&value("--warmup")?)?),
            "--measure" => self.measure = Some(parse_num(&value("--measure")?)?),
            "--until-converged" => self.until_converged = true,
            "--until-reconverged" => self.until_reconverged = true,
            "--rel-eps" => self.rel_eps = Some(parse_float(&value("--rel-eps")?)?),
            "--window" => self.window = Some(parse_num(&value("--window")?)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Whether any flag of the family was given.
    fn any_given(&self) -> bool {
        self.preset.is_some()
            || self.warmup.is_some()
            || self.measure.is_some()
            || self.any_convergence_given()
    }

    /// Whether any of the convergence flags was given.
    fn any_convergence_given(&self) -> bool {
        self.until_converged
            || self.until_reconverged
            || self.rel_eps.is_some()
            || self.window.is_some()
    }

    /// The budget preset, falling back to the subcommand's default. An
    /// explicit `--warmup N --measure N` pair overrides a named preset.
    fn budget(&self, default: BudgetPreset) -> Result<BudgetPreset, String> {
        match (self.warmup, self.measure) {
            (None, None) => Ok(self.preset.unwrap_or(default)),
            (Some(w), Some(m)) => Ok(BudgetPreset::Custom {
                warmup_cycles: w,
                measure_cycles: m,
            }),
            _ => Err("--warmup and --measure must be given together".into()),
        }
    }

    /// The stop preset the convergence flags describe.
    fn stop(&self) -> Result<StopPreset, String> {
        if self.until_converged && self.until_reconverged {
            return Err("--until-converged and --until-reconverged are mutually exclusive".into());
        }
        if !self.until_converged && !self.until_reconverged {
            if self.rel_eps.is_some() || self.window.is_some() {
                return Err(
                    "--rel-eps/--window require --until-converged or --until-reconverged".into(),
                );
            }
            return Ok(StopPreset::Fixed);
        }
        if self.window == Some(0) {
            return Err("--window must be positive".into());
        }
        if self.until_reconverged {
            Ok(StopPreset::Reconverged {
                window_cycles: self.window,
                rel_epsilon: self.rel_eps,
            })
        } else {
            Ok(StopPreset::Converged {
                window_cycles: self.window,
                rel_epsilon: self.rel_eps,
            })
        }
    }

    /// Reject the whole family on a subcommand that ignores it
    /// (mirroring `reject_experiments_md_flags`).
    fn reject(&self, command: &str) -> Result<(), String> {
        if self.any_given() {
            return Err(format!(
                "budget flags (--quick/--mid/--eval/--warmup/--measure/--until-converged/\
                 --until-reconverged/--rel-eps/--window) do not apply to `snug {command}`"
            ));
        }
        Ok(())
    }

    /// Reject only the convergence flags (for `trace`, which takes the
    /// fixed budget subset, and `--experiments-md`, which documents the
    /// canonical fixed-budget runs).
    fn reject_convergence(&self, command: &str) -> Result<(), String> {
        if self.any_convergence_given() {
            return Err(format!(
                "--until-converged/--until-reconverged/--rel-eps/--window do not apply to \
                 `snug {command}`"
            ));
        }
        Ok(())
    }
}

/// Flag parsing shared by the subcommands.
struct Flags {
    classes: Vec<ComboClass>,
    spec_file: Option<PathBuf>,
    budget: BudgetFlags,
    threads: usize,
    results_dir: PathBuf,
    out_dir: Option<PathBuf>,
    name: Option<String>,
    combo: Option<String>,
    format: Option<TableFormat>,
    benches: Vec<Benchmark>,
    intervals: usize,
    accesses: usize,
    experiments_md: bool,
    experiments_eval_md: bool,
    check: bool,
    /// `None` means "not given": each document command falls back to
    /// its own committed default path.
    md_path: Option<PathBuf>,
    stride: Option<u64>,
    phase_shift: Vec<String>,
    verbose: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut f = Flags {
            classes: Vec::new(),
            spec_file: None,
            budget: BudgetFlags::default(),
            threads: 0,
            results_dir: PathBuf::from("results"),
            out_dir: None,
            name: None,
            combo: None,
            format: None,
            benches: Vec::new(),
            intervals: 20,
            accesses: 50_000,
            experiments_md: false,
            experiments_eval_md: false,
            check: false,
            md_path: None,
            stride: None,
            phase_shift: Vec::new(),
            verbose: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .map(|s| s.to_string())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            if f.budget.parse_flag(arg.as_str(), &mut value)? {
                continue;
            }
            match arg.as_str() {
                "--experiments-md" => f.experiments_md = true,
                "--experiments-eval-md" => f.experiments_eval_md = true,
                "--check" => f.check = true,
                "--md-path" => f.md_path = Some(PathBuf::from(value("--md-path")?)),
                "--class" => {
                    for part in value("--class")?.split(',') {
                        f.classes.push(part.trim().parse()?);
                    }
                }
                // `--jobs` is the canonical name since the parallel
                // executor landed; `--threads` stays as an alias.
                "--jobs" => f.threads = parse_num(&value("--jobs")?)? as usize,
                "--threads" => f.threads = parse_num(&value("--threads")?)? as usize,
                "--results" => f.results_dir = PathBuf::from(value("--results")?),
                "--out" => f.out_dir = Some(PathBuf::from(value("--out")?)),
                "--name" => f.name = Some(value("--name")?),
                "--spec" => f.spec_file = Some(PathBuf::from(value("--spec")?)),
                "--combo" => f.combo = Some(value("--combo")?),
                "--format" => {
                    let name = value("--format")?;
                    f.format = Some(
                        TableFormat::from_name(&name)
                            .ok_or_else(|| format!("unknown format `{name}` (md or csv)"))?,
                    );
                }
                "--bench" => {
                    for part in value("--bench")?.split(',') {
                        let part = part.trim();
                        f.benches.push(
                            Benchmark::from_name(part)
                                .ok_or_else(|| format!("unknown benchmark `{part}`"))?,
                        );
                    }
                }
                "--intervals" => f.intervals = parse_num(&value("--intervals")?)? as usize,
                "--accesses" => f.accesses = parse_num(&value("--accesses")?)? as usize,
                "--verbose" => f.verbose = true,
                "--stride" => f.stride = Some(parse_num(&value("--stride")?)?),
                "--phase-shift" => f.phase_shift.push(value("--phase-shift")?),
                other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
            }
        }
        Ok(f)
    }

    fn spec(&self) -> Result<SweepSpec, String> {
        self.spec_with_default(BudgetPreset::Quick)
    }

    /// Reject the `--experiments-md` flag family on subcommands that
    /// would silently ignore it (a typo'd `sweep --check` must not look
    /// like the staleness gate ran).
    fn reject_experiments_md_flags(&self, command: &str) -> Result<(), String> {
        if self.experiments_md || self.experiments_eval_md || self.check || self.md_path.is_some() {
            return Err(format!(
                "--experiments-md/--experiments-eval-md/--check/--md-path only apply to \
                 `snug report`, not `snug {command}`"
            ));
        }
        Ok(())
    }

    /// Reject `--verbose` outside `snug sweep` (same pattern).
    fn reject_verbose(&self, command: &str) -> Result<(), String> {
        if self.verbose {
            return Err(format!(
                "--verbose only applies to `snug sweep`, not `snug {command}`"
            ));
        }
        Ok(())
    }

    /// Reject `--stride` outside `snug trace` (same pattern).
    fn reject_stride(&self, command: &str) -> Result<(), String> {
        if self.stride.is_some() {
            return Err(format!(
                "--stride only applies to `snug trace`, not `snug {command}`"
            ));
        }
        Ok(())
    }

    /// Reject `--phase-shift` on subcommands whose workload is not
    /// simulated (same pattern).
    fn reject_phase_shift(&self, command: &str) -> Result<(), String> {
        if !self.phase_shift.is_empty() {
            return Err(format!("--phase-shift does not apply to `snug {command}`"));
        }
        Ok(())
    }

    /// The canonical phase schedule of the `--phase-shift` flags
    /// (repeats compose into one schedule), or `None`.
    fn phase_schedule(&self) -> Result<Option<PhaseSchedule>, String> {
        if self.phase_shift.is_empty() {
            return Ok(None);
        }
        PhaseSchedule::parse(&self.phase_shift.join(";"))
            .map(Some)
            .map_err(|e| format!("--phase-shift: {e}"))
    }

    fn spec_with_default(&self, default_budget: BudgetPreset) -> Result<SweepSpec, String> {
        if let Some(path) = &self.spec_file {
            if !self.classes.is_empty() || self.name.is_some() {
                return Err("--spec cannot be combined with --class/--name".into());
            }
            if !self.phase_shift.is_empty() {
                return Err(
                    "--spec carries the phase schedule; --phase-shift cannot be combined \
                     with it"
                        .into(),
                );
            }
            if self.budget.any_given() {
                return Err(
                    "--spec carries the budget and stop policy; budget flags cannot be \
                     combined with it"
                        .into(),
                );
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            let value =
                snug_harness::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            return SweepSpec::from_json(&value).map_err(|e| format!("{}: {e}", path.display()));
        }
        let name = self.name.clone().unwrap_or_else(|| {
            if self.classes.is_empty() {
                "full".to_string()
            } else {
                self.classes
                    .iter()
                    .map(|c| c.name())
                    .collect::<Vec<_>>()
                    .join("+")
            }
        });
        let stop = self.budget.stop()?;
        Ok(SweepSpec {
            name,
            classes: self.classes.clone(),
            combos: Vec::new(),
            budget: self.budget.budget(default_budget)?,
            stop,
            phase_shift: self.phase_schedule()?.map(|p| p.fingerprint()),
        })
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

/// [`check_phase_schedule`] for a built sweep spec (covers both the
/// flag and `--spec` paths).
fn check_spec_phase_schedule(spec: &SweepSpec) -> Result<(), String> {
    match spec.phase_schedule() {
        Some(schedule) => check_phase_schedule(&schedule, &spec.compare_config()),
        None => Ok(()),
    }
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_experiments_md_flags("sweep")?;
    flags.reject_stride("sweep")?;
    let spec = flags.spec()?;
    check_spec_phase_schedule(&spec)?;
    let mut store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    if flags.verbose {
        // Cache hits never reach the executor, so they get their lines
        // here: every unit already in the store before this sweep.
        for job in spec.combo_jobs() {
            for unit in &job.units {
                if store.get_unit(&unit.key).is_some() {
                    println!("  hit  {} (from store)", unit.label());
                }
            }
        }
    }
    let verbose = flags.verbose;
    let mut spans: Vec<UnitSpan> = Vec::new();
    let outcome = run_sweep(&spec, &mut store, flags.threads, |event| match event {
        SweepEvent::Planned { total, hits } => {
            println!(
                "sweep `{}` ({}): {total} unit jobs, {hits} cache hits, {} to run",
                spec.name,
                spec.budget_label(),
                total - hits
            );
        }
        SweepEvent::JobStarted { label } => println!("  run  {label}"),
        SweepEvent::JobFinished {
            label,
            done,
            to_run,
            span,
        } => {
            if verbose {
                // No running [done/total] counter here: with --jobs N
                // the completion order races, and the verbose lines
                // must be deterministic in content (only their order
                // may vary between runs). Worker provenance replaces
                // the counter.
                println!(
                    "  done {label} ({:.2} s wall, {}cyc/s, {}ops/s, worker {})",
                    span.wall_nanos as f64 / 1e9,
                    fmt_eng(span.cycles_per_sec()),
                    fmt_eng(span.ops_per_sec()),
                    span.worker,
                );
            } else {
                println!("  done {label} [{done}/{to_run}]");
            }
            spans.push(span);
        }
        SweepEvent::JobFailed { label, error } => {
            eprintln!("  FAIL {label}: {error}");
        }
        SweepEvent::JobSkipped { label, failed_dep } => {
            eprintln!("  skip {label} (baseline {failed_dep} failed)");
        }
    })
    .map_err(|e| e.to_string())?;
    println!(
        "sweep complete: {} executed, {} from cache → {}",
        outcome.executed,
        outcome.cache_hits,
        flags
            .results_dir
            .join(snug_harness::store::STORE_FILE)
            .display()
    );
    println!("{}", telemetry_footer(&spans));
    if outcome.simulated_cycles < outcome.budgeted_cycles {
        let saved =
            100.0 * (1.0 - outcome.simulated_cycles as f64 / outcome.budgeted_cycles as f64);
        println!(
            "early exit: simulated {} of {} budgeted cycles ({saved:.1}% saved)",
            outcome.simulated_cycles, outcome.budgeted_cycles
        );
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
            println!(
                "stop reasons: {ceilings}/{} combos hit the ceiling without stabilising \
                 (mid-ramp numbers; `snug report` with the same flags shows per-combo detail)",
                reasons.len()
            );
        } else {
            println!(
                "stop reasons: all {} combos converged before the ceiling",
                reasons.len()
            );
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_stride("report")?;
    flags.reject_verbose("report")?;
    if flags.experiments_md && flags.experiments_eval_md {
        return Err("--experiments-md and --experiments-eval-md are mutually exclusive".into());
    }
    if flags.experiments_md {
        return cmd_experiments_md(&flags);
    }
    if flags.experiments_eval_md {
        return cmd_experiments_eval_md(&flags);
    }
    if flags.check {
        return Err("--check only applies to --experiments-md/--experiments-eval-md".into());
    }
    if flags.md_path.is_some() {
        return Err("--md-path only applies to --experiments-md/--experiments-eval-md".into());
    }
    let spec = flags.spec()?;
    check_spec_phase_schedule(&spec)?;
    let store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing results for this spec — run `snug sweep` with the same flags first",
            flags.results_dir.display()
        )
    })?;
    let stop_summary = stop_summary_table(&spec, &store);
    match flags.format.unwrap_or(TableFormat::Markdown) {
        TableFormat::Markdown => {
            print!("{}", render_markdown(&spec, &results));
            if let Some(table) = &stop_summary {
                println!("{}", table.to_markdown());
                println!("{CEILING_FOOTNOTE}");
            }
        }
        TableFormat::Csv => {
            for table in snug_harness::report_tables(&results) {
                println!("# {}", table.title);
                print!("{}", table.render(TableFormat::Csv));
            }
            if let Some(table) = &stop_summary {
                println!("# {}", table.title);
                print!("{}", table.render(TableFormat::Csv));
            }
        }
    }
    if let Some(out) = &flags.out_dir {
        let written = snug_harness::write_report(out, &spec, &results, stop_summary.as_ref())
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
fn cmd_experiments_md(flags: &Flags) -> Result<(), String> {
    // The document is *defined* as the full 21-combo evaluation: a
    // narrowed or redirected variant would overwrite the committed file
    // with a partial document and break the staleness gate.
    if !flags.classes.is_empty() || flags.name.is_some() || flags.spec_file.is_some() {
        return Err(
            "--experiments-md renders the full evaluation; it cannot be combined \
                    with --class/--name/--spec"
                .into(),
        );
    }
    // Converged and shifted runs are likewise keyed separately — the
    // committed document is defined over the canonical fixed-budget,
    // stationary-workload entries.
    flags.budget.reject_convergence("report --experiments-md")?;
    flags.reject_phase_shift("report --experiments-md")?;
    if flags.out_dir.is_some() || flags.format.is_some() {
        return Err(
            "--experiments-md writes Markdown to --md-path; --out/--format do not apply".into(),
        );
    }
    let spec = flags.spec_with_default(BudgetPreset::Mid)?;
    let store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing results for the {} budget — run `snug sweep --{}` first",
            flags.results_dir.display(),
            spec.budget.label(),
            spec.budget.label(),
        )
    })?;
    drop(store);
    let rendered = render_experiments_md(&spec, &results);
    let md_path = flags
        .md_path
        .clone()
        .unwrap_or_else(|| PathBuf::from(snug_harness::experiments_md::EXPERIMENTS_FILE));
    write_or_check_doc(
        &md_path,
        &rendered,
        flags.check,
        "snug report --experiments-md",
    )?;
    if !flags.check {
        println!(
            "wrote {} ({} combos, budget {})",
            md_path.display(),
            results.len(),
            spec.budget.label()
        );
    }
    Ok(())
}

/// `snug report --experiments-eval-md [--check] [--md-path FILE]`:
/// render the committed eval-scale document — the converged eval sweep
/// with the Fig. 9 SNUG-vs-CC(Best) verdict — or verify it. The spec is
/// pinned ([`eval_converged_spec`]); no selection or budget flags apply.
fn cmd_experiments_eval_md(flags: &Flags) -> Result<(), String> {
    if !flags.classes.is_empty() || flags.name.is_some() || flags.spec_file.is_some() {
        return Err(
            "--experiments-eval-md renders the full eval evaluation; it cannot be combined \
             with --class/--name/--spec"
                .into(),
        );
    }
    // The document is defined over one pinned spec — eval budget,
    // calibrated convergence window/epsilon — so the whole budget flag
    // family is rejected rather than silently overridden.
    if flags.budget.any_given() {
        return Err(format!(
            "--experiments-eval-md pins the eval converged spec (--eval --until-converged \
             --window {EVAL_CONVERGED_WINDOW} --rel-eps {EVAL_CONVERGED_REL_EPSILON}); \
             budget flags cannot be combined with it"
        ));
    }
    flags.reject_phase_shift("report --experiments-eval-md")?;
    if flags.out_dir.is_some() || flags.format.is_some() {
        return Err(
            "--experiments-eval-md writes Markdown to --md-path; --out/--format do not apply"
                .into(),
        );
    }
    let spec = eval_converged_spec();
    let store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    let results = cached_results(&spec, &store).ok_or_else(|| {
        format!(
            "store at `{}` is missing the converged eval results — run `snug sweep --eval \
             --until-converged --window {EVAL_CONVERGED_WINDOW} --rel-eps \
             {EVAL_CONVERGED_REL_EPSILON}` first",
            flags.results_dir.display(),
        )
    })?;
    let stop_summary = stop_summary_table(&spec, &store);
    drop(store);
    let rendered = render_experiments_eval_md(&spec, &results, stop_summary.as_ref());
    let md_path = flags
        .md_path
        .clone()
        .unwrap_or_else(|| PathBuf::from(snug_harness::EXPERIMENTS_EVAL_FILE));
    write_or_check_doc(
        &md_path,
        &rendered,
        flags.check,
        "snug report --experiments-eval-md",
    )?;
    if !flags.check {
        println!(
            "wrote {} ({} combos, budget {})",
            md_path.display(),
            results.len(),
            spec.budget_label()
        );
    }
    Ok(())
}

/// Shared `--check`/write tail of the two committed-document commands.
fn write_or_check_doc(
    md_path: &std::path::Path,
    rendered: &str,
    check: bool,
    regen_cmd: &str,
) -> Result<(), String> {
    if check {
        // Only a genuinely absent file counts as Missing; any other
        // read failure (permissions, invalid UTF-8) is its own error.
        let committed = match std::fs::read_to_string(md_path) {
            Ok(text) => Some(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(format!("reading {}: {e}", md_path.display())),
        };
        return match check_experiments_md(rendered, committed.as_deref()) {
            CheckOutcome::Fresh => {
                println!("{} is up to date", md_path.display());
                Ok(())
            }
            CheckOutcome::Missing => Err(format!(
                "{} is missing — run `{regen_cmd}` and commit it",
                md_path.display()
            )),
            CheckOutcome::Stale(line) => Err(format!(
                "{} is stale (first difference at line {line}) — regenerate with \
                 `{regen_cmd}` and commit the result",
                md_path.display()
            )),
        };
    }
    std::fs::write(md_path, rendered).map_err(|e| format!("writing {}: {e}", md_path.display()))
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args)?;
    flags.reject_experiments_md_flags("compare")?;
    flags.reject_stride("compare")?;
    flags.reject_verbose("compare")?;
    let mut spec = flags.spec()?;
    if let Some(label) = &flags.combo {
        let all = all_combos();
        let combo = all.iter().find(|c| c.label() == *label).ok_or_else(|| {
            format!("unknown combo `{label}` (see Table 8 labels, e.g. `ammp+parser+swim+mesa`)")
        })?;
        // A single-combo sweep: restrict the job list to exactly this
        // combo (the store is keyed per combo, so nothing else runs).
        spec.classes = vec![combo.class];
        spec.combos = vec![label.clone()];
        spec.name = label.clone();
    } else if flags.classes.is_empty() {
        return Err("compare needs --combo LABEL or --class C".into());
    }
    check_spec_phase_schedule(&spec)?;

    let mut store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    let outcome = run_sweep(&spec, &mut store, flags.threads, |_| {}).map_err(|e| e.to_string())?;
    let results: Vec<_> = outcome
        .combos
        .iter()
        .map(|c| c.result.clone())
        .filter(|r| flags.combo.as_ref().map(|l| r.label == *l).unwrap_or(true))
        .collect();

    for r in &results {
        println!("\n{} (class {})", r.label, r.class.name());
        println!(
            "  {:<10} {:>10} {:>10} {:>10}",
            "scheme", "tp", "aws", "fair"
        );
        for s in &r.schemes {
            println!(
                "  {:<10} {:>10.3} {:>10.3} {:>10.3}",
                s.scheme, s.metrics.throughput, s.metrics.aws, s.metrics.fair
            );
        }
        let sweep = r
            .cc_sweep
            .iter()
            .map(|(p, tp)| format!("{:.0}%→{tp:.3}", p * 100.0))
            .collect::<Vec<_>>()
            .join("  ");
        println!("  CC sweep: {sweep}");
    }
    println!(
        "\n({} executed, {} from cache)",
        outcome.executed, outcome.cache_hits
    );
    Ok(())
}

/// `snug trace COMBO SCHEME`: record (or serve from the store) the
/// per-period time series of one simulation and render it.
fn cmd_trace(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [combo_label, scheme_name] = positional.as_slice() else {
        return Err("trace needs two arguments: COMBO SCHEME (e.g. \
                    `snug trace ammp+ammp+ammp+ammp snug`)"
            .into());
    };
    let flags = Flags::parse(&args[positional.len()..])?;
    flags.reject_experiments_md_flags("trace")?;
    flags.reject_verbose("trace")?;
    // Traces record the full fixed window (the point is seeing the
    // whole time series), so the convergence flags are rejected rather
    // than silently ignored.
    flags.budget.reject_convergence("trace")?;

    let all = all_combos();
    let combo = all
        .iter()
        .find(|c| c.label() == **combo_label)
        .ok_or_else(|| {
            format!(
                "unknown combo `{combo_label}` (see Table 8 labels, e.g. \
                 `ammp+parser+swim+mesa`)"
            )
        })?;
    let spec: SchemeSpec = scheme_name.parse()?;
    let point = match spec {
        SchemeSpec::L2p => SchemePoint::L2p,
        SchemeSpec::L2s => SchemePoint::L2s,
        SchemeSpec::Cc { spill_probability } => SchemePoint::Cc { spill_probability },
        SchemeSpec::Dsr(_) => SchemePoint::Dsr,
        SchemeSpec::Snug(_) => SchemePoint::Snug,
    };

    let budget = flags.budget.budget(BudgetPreset::Mid)?;
    let cfg = budget.compare_config();
    let stride = flags.stride.unwrap_or_else(|| default_stride(&cfg));
    if stride == 0 {
        return Err("--stride must be positive".into());
    }
    let phase = flags.phase_schedule()?;
    if let Some(schedule) = &phase {
        check_phase_schedule(schedule, &cfg)?;
    }

    let mut store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
    let key = trace_key(combo, &point, &cfg, stride, phase.as_ref());
    let (series, from_cache) = match store.get_series(&key) {
        Some(series) => (series.clone(), true),
        None => {
            let series = trace_point(combo, &point, &cfg, stride, phase.as_ref());
            let phase_inputs = phase
                .as_ref()
                .map(|p| format!(" | phase={}", p.fingerprint()))
                .unwrap_or_default();
            let inputs = format!(
                "trace | {:?} | {} | {:?} | stride={stride}{phase_inputs}",
                combo,
                point.label(),
                cfg
            );
            store
                .insert_series(key, inputs, series.clone())
                .map_err(|e| e.to_string())?;
            (series, false)
        }
    };

    let table = series.table(&combo.label());
    match flags.format.unwrap_or(TableFormat::Markdown) {
        TableFormat::Markdown => print!("{}", table.to_markdown()),
        TableFormat::Csv => print!("{}", table.render(TableFormat::Csv)),
    }
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
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let positional: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    let [combo_label, scheme_name] = positional.as_slice() else {
        return Err("profile needs two arguments: COMBO SCHEME (e.g. \
                    `snug profile ammp+ammp+ammp+ammp snug`)"
            .into());
    };
    let flags = Flags::parse(&args[positional.len()..])?;
    flags.reject_experiments_md_flags("profile")?;
    flags.budget.reject_convergence("profile")?;
    flags.reject_stride("profile")?;
    flags.reject_phase_shift("profile")?;
    flags.reject_verbose("profile")?;

    let all = all_combos();
    let combo = all
        .iter()
        .find(|c| c.label() == **combo_label)
        .ok_or_else(|| {
            format!(
                "unknown combo `{combo_label}` (see Table 8 labels, e.g. \
                 `ammp+parser+swim+mesa`)"
            )
        })?;
    let spec: SchemeSpec = scheme_name.parse()?;
    let budget = flags.budget.budget(BudgetPreset::Quick)?;
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
        let mut bare = session_for(combo, spec.build_any(cfg.system), &cfg, None);
        bare.run_to_completion();
        bare_nanos = bare_nanos.min(bare_started.elapsed().as_nanos().max(1) as u64);

        let probed_started = Instant::now();
        let mut session = session_for(combo, spec.build_any(cfg.system), &cfg, None);
        session.enable_recording(stride);
        let result = session.run_to_completion();
        probed_nanos = probed_nanos.min(probed_started.elapsed().as_nanos().max(1) as u64);
        let counters = session.counters();
        harvested = Some((result, counters));
    }
    let (result, counters) = harvested.expect("three repetitions ran");

    let window = cfg.plan.measure_cycles();
    let format = flags.format.unwrap_or(TableFormat::Markdown);
    for table in [
        counters.hit_miss_table(),
        counters.dispatch_table(window),
        counters.walk_depth_table(),
        counters.cost_center_table(window),
    ] {
        match format {
            TableFormat::Markdown => print!("{}", table.to_markdown()),
            TableFormat::Csv => {
                println!("# {}", table.title);
                print!("{}", table.render(TableFormat::Csv));
            }
        }
    }

    let secs = probed_nanos as f64 / 1e9;
    let sim_cycles = cfg.plan.warmup_cycles + window;
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
fn cmd_store(args: &[String]) -> Result<(), String> {
    let (sub, rest) = match args.split_first() {
        Some((s, rest)) => (s.as_str(), rest),
        None => return Err("store needs a subcommand: `snug store gc|merge`".into()),
    };
    match sub {
        "gc" => {
            let flags = Flags::parse(rest)?;
            flags.reject_experiments_md_flags("store gc")?;
            flags.budget.reject("store gc")?;
            flags.reject_stride("store gc")?;
            flags.reject_phase_shift("store gc")?;
            flags.reject_verbose("store gc")?;
            let mut store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
            let before = store.file_lines();
            let (kept, dropped) = store.compact().map_err(|e| e.to_string())?;
            println!(
                "store gc: {before} lines -> {kept} ({dropped} superseded dropped) in {}",
                flags
                    .results_dir
                    .join(snug_harness::store::STORE_FILE)
                    .display()
            );
            Ok(())
        }
        "merge" => {
            let shards: Vec<&String> = rest.iter().take_while(|a| !a.starts_with("--")).collect();
            if shards.is_empty() {
                return Err(
                    "store merge needs at least one shard file: `snug store merge \
                     SHARD.jsonl... [--results DIR]`"
                        .into(),
                );
            }
            let flags = Flags::parse(&rest[shards.len()..])?;
            flags.reject_experiments_md_flags("store merge")?;
            flags.budget.reject("store merge")?;
            flags.reject_stride("store merge")?;
            flags.reject_phase_shift("store merge")?;
            flags.reject_verbose("store merge")?;
            let mut store = ResultStore::open(&flags.results_dir).map_err(|e| e.to_string())?;
            for shard in &shards {
                let stats = store
                    .merge_file(std::path::Path::new(shard.as_str()))
                    .map_err(|e| e.to_string())?;
                println!(
                    "merged {shard}: {} entries read, {} added, {} superseded, {} unchanged",
                    stats.read, stats.added, stats.superseded, stats.unchanged
                );
            }
            // Merging appends shard entries; one compaction pass leaves
            // the newest entry per key (merge ∘ gc is idempotent).
            let (kept, dropped) = store.compact().map_err(|e| e.to_string())?;
            println!(
                "store merge: {kept} entries ({dropped} superseded dropped) in {}",
                flags
                    .results_dir
                    .join(snug_harness::store::STORE_FILE)
                    .display()
            );
            Ok(())
        }
        other => Err(format!(
            "unknown store subcommand `{other}` (expected `gc` or `merge`)"
        )),
    }
}

fn cmd_characterize(args: &[String]) -> Result<(), String> {
    use snug_experiments::{characterize, CharacterizeConfig};
    let flags = Flags::parse(args)?;
    flags.reject_experiments_md_flags("characterize")?;
    // Characterisation has its own interval/access sizing; the sweep
    // budget family would be silently ignored, so reject it.
    flags.budget.reject("characterize")?;
    flags.reject_stride("characterize")?;
    flags.reject_phase_shift("characterize")?;
    flags.reject_verbose("characterize")?;
    let benches = if flags.benches.is_empty() {
        vec![Benchmark::Ammp, Benchmark::Vortex, Benchmark::Applu]
    } else {
        flags.benches.clone()
    };
    let cfg = CharacterizeConfig::scaled(flags.intervals, flags.accesses);
    println!(
        "characterisation: {} intervals x {} L2 accesses",
        flags.intervals, flags.accesses
    );
    println!(
        "{:<8} {:>12} {:>16} {:>8}",
        "bench", "1-4 blocks", ">16 blocks", "spread"
    );
    for b in &benches {
        let c = characterize(*b, &cfg);
        println!(
            "{:<8} {:>11.1}% {:>15.1}% {:>8.2}",
            c.benchmark,
            c.mean_low_demand() * 100.0,
            c.mean_above_baseline(16) * 100.0,
            c.mean_spread()
        );
        if let Some(out) = &flags.out_dir {
            std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
            let path = out.join(format!("characterize_{}.csv", c.benchmark));
            std::fs::write(&path, c.to_csv()).map_err(|e| e.to_string())?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

/// `snug bench`: one front door for the committed benchmark
/// trajectory. Drives `cargo bench -p snug-bench` from the current
/// directory (cargo finds the workspace) for the requested suites —
/// `kernel` (kernel_throughput → BENCH_kernel.json) and `micro`
/// (micro_kernels, the hot-path primitive microbenches, measure-only).
/// With no suite the kernel bench runs; `--emit` re-baselines the
/// committed file and `--check` applies the CI gate.
fn cmd_bench(args: &[String]) -> Result<(), String> {
    let mut suites: Vec<&str> = Vec::new();
    let mut mode: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            suite @ ("kernel" | "micro") => {
                if !suites.contains(&suite) {
                    suites.push(suite);
                }
            }
            flag @ ("--emit" | "--check") => {
                if mode.is_some_and(|prev| prev != flag) {
                    return Err("pass at most one of --emit / --check".into());
                }
                mode = Some(flag);
            }
            other => return Err(format!("unknown bench suite or flag `{other}`")),
        }
    }
    if suites.is_empty() {
        suites = vec!["kernel"];
    }
    if mode.is_some() && suites.contains(&"micro") {
        return Err(
            "the micro suite has no committed baseline; run it without --emit/--check".into(),
        );
    }
    for suite in suites {
        let target = match suite {
            "kernel" => "kernel_throughput",
            _ => "micro_kernels",
        };
        let mut cmd = std::process::Command::new("cargo");
        cmd.args(["bench", "-q", "-p", "snug-bench", "--bench", target]);
        if let Some(m) = mode {
            cmd.args(["--", m]);
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawning cargo bench for `{target}`: {e}"))?;
        if !status.success() {
            return Err(format!("`cargo bench --bench {target}` failed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sim_mem::{ShiftDirective, StreamShift};

    /// Near misses of the text grammars the CLI reaches, `|`-separated:
    /// separators, directive words, scheme and class names, flags, and
    /// a 30-digit run that overflows every integer field.
    const PIECES: &str = "0|1|9|_|:|;|@|,|=|-|%|(|)| |.|demand|near|streaming|profile|mcf|l2p|\
        cc|snug|dsr|C|--class|--phase-shift|--window|--rel-eps|--warmup|--measure|--jobs|\
        --until-converged|123456789012345678901234567890|é|\0";

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
        let args: Vec<String> = text.split(' ').map(str::to_string).collect();
        if let Ok(flags) = Flags::parse(&args) {
            prop_assert!(named(flags.phase_schedule()), "{text:?}");
            prop_assert!(named(flags.budget.stop()), "{text:?}");
            prop_assert!(named(flags.budget.budget(BudgetPreset::Quick)), "{text:?}");
        }
        Ok(())
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
}
