//! Sweep orchestration: expand a spec into per-(combo, scheme point)
//! unit jobs, serve cached units from the store, run the rest as a
//! dependency graph on the parallel executor, and assemble per-combo
//! results.
//!
//! Parallel execution is the default path and must never change the
//! store: workers append completed entries to per-worker shard files
//! (crash durability), results are merged into the main store in
//! pending-job order at sweep end (schedule-independent bytes), and
//! baseline pacing is an explicit dependency edge — a combo's L2P unit
//! gates its paced siblings, everything else runs free.
//!
//! A combo's units share one front end (op streams plus private L1s):
//! the per-core sequence of ops and L1 outcomes is the same for every
//! scheme point, so when two or more pending units of a combo run they
//! read it from one [`SharedFront`]'s record files under [`FRONTS_DIR`]
//! instead of each regenerating it; a unit with a phase schedule forks
//! each core live at its first shift. Nothing of it outlives the sweep.

use crate::exec::{self, ExecEvent, JobOutcome};
use crate::hash::{content_key, ContentKey};
use crate::spec::{unit_key, SweepSpec, UnitJob, SCHEMA_VERSION};
use crate::store::{
    ResultStore, ShardWriter, StoreEntry, StoreError, StoredResult, FRONTS_DIR, SHARDS_DIR,
};
use sim_cmp::{Checkpoints, SharedFront};
use snug_experiments::{
    assemble_combo, combo_shared_front, pace_of, run_point, ComboResult, FrontKey, Pace,
    SchemePoint, SchemeRun,
};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Progress events streamed while a sweep runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepEvent {
    /// The sweep expanded into unit jobs.
    Planned {
        /// Total unit jobs in the spec.
        total: usize,
        /// Units already present in the store.
        hits: usize,
    },
    /// A unit simulation started.
    JobStarted {
        /// Unit label (`"ammp+parser+swim+mesa [cc@50%]"`).
        label: String,
    },
    /// A unit simulation finished.
    JobFinished {
        /// Unit label.
        label: String,
        /// Executed so far (cache hits excluded).
        done: usize,
        /// Total to execute this sweep.
        to_run: usize,
        /// Wall-clock telemetry for the piece that just finished.
        span: UnitSpan,
    },
    /// A unit simulation panicked; the sweep surfaces the failure as
    /// [`SweepError::UnitFailed`] after the pool drains.
    JobFailed {
        /// Unit label.
        label: String,
        /// The panic payload, rendered.
        error: String,
    },
    /// A unit never ran because the baseline it is paced by failed.
    JobSkipped {
        /// Unit label.
        label: String,
        /// Label of the failed baseline piece that doomed it.
        failed_dep: String,
    },
}

/// Wall-clock telemetry for one executed piece of a sweep: how long the
/// piece waited for a worker, how long it simulated, how much simulated
/// work that wall time bought, and which worker ran it. Recorded by
/// [`run_unit_jobs`] around every executed piece (cache hits record
/// nothing — they cost no wall time worth charging), surfaced on
/// [`SweepEvent::JobFinished`], and persisted in the store as its own
/// record kind so `snug sweep` footers and later tooling can aggregate
/// throughput and per-worker utilisation across sweeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitSpan {
    /// Label of the executed piece (same shape as the progress lines).
    pub label: String,
    /// Nanoseconds between sweep submission and a worker picking the
    /// piece up.
    pub queue_nanos: u64,
    /// Nanoseconds of wall time the piece spent simulating.
    pub wall_nanos: u64,
    /// Simulated cycles the piece covered (warm-up + measured window,
    /// summed over every member unit).
    pub sim_cycles: u64,
    /// Instructions retired over the measured windows, reconstructed
    /// from the per-core IPCs each member unit reported.
    pub instructions: u64,
    /// Worker that executed the piece (0-based; 0 on spans recorded
    /// before parallel provenance existed).
    pub worker: usize,
    /// Shard file the piece's results were first appended to
    /// (`"worker-0.jsonl"`; empty on pre-parallel spans).
    pub shard: String,
}

impl UnitSpan {
    /// Simulated cycles per wall-clock second (0 when nothing was
    /// timed).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.sim_cycles as f64 / (self.wall_nanos as f64 / 1e9)
    }

    /// Retired instructions per wall-clock second (0 when nothing was
    /// timed).
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 0.0;
        }
        self.instructions as f64 / (self.wall_nanos as f64 / 1e9)
    }
}

/// Errors surfaced by a sweep: the backing store failed, or a unit
/// piece panicked (its baseline-paced dependents are skipped, everything
/// unrelated completes and persists before the error returns).
#[derive(Debug)]
pub enum SweepError {
    /// Reading or writing the result store failed.
    Store(StoreError),
    /// A unit piece panicked mid-simulation.
    UnitFailed {
        /// Label of the failed piece.
        label: String,
        /// The panic payload, rendered.
        error: String,
        /// Labels of the pieces skipped because they were paced by the
        /// failed one.
        skipped: Vec<String>,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Store(e) => e.fmt(f),
            SweepError::UnitFailed {
                label,
                error,
                skipped,
            } => {
                write!(f, "unit `{label}` failed: {error}")?;
                if !skipped.is_empty() {
                    write!(
                        f,
                        " ({} dependent piece(s) skipped: {})",
                        skipped.len(),
                        skipped.join(", ")
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Store(e) => Some(e),
            SweepError::UnitFailed { .. } => None,
        }
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        SweepError::Store(e)
    }
}

/// One unit job's outcome within a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutcome {
    /// Content key of the unit job.
    pub key: ContentKey,
    /// Whether the result came from the store (fresh runs and cached
    /// results are indistinguishable by construction).
    pub from_cache: bool,
    /// The raw per-core IPCs.
    pub run: SchemeRun,
}

/// One combo's assembled outcome within a [`SweepOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComboOutcome {
    /// Combo label.
    pub label: String,
    /// Whether every unit of this combo was served from the store.
    pub from_cache: bool,
    /// The assembled five-scheme result.
    pub result: ComboResult,
}

/// The outcome of a sweep, in spec (Table 8) order. Counts are at unit
/// granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Per-combo assembled outcomes.
    pub combos: Vec<ComboOutcome>,
    /// Unit jobs served from the store.
    pub cache_hits: usize,
    /// Unit jobs executed fresh.
    pub executed: usize,
    /// Cycles actually simulated across all units (warm-up + measured;
    /// early-stopped units count their recorded stop cycle, cached ones
    /// included).
    pub simulated_cycles: u64,
    /// Cycles the fixed budget would have simulated for the same units
    /// (warm-up + full measured window each). The gap is what
    /// convergence-based early exit saved.
    pub budgeted_cycles: u64,
}

impl SweepOutcome {
    /// The assembled results alone, in spec order.
    pub fn results(&self) -> Vec<ComboResult> {
        self.combos.iter().map(|c| c.result.clone()).collect()
    }
}

/// Where a paced node's measurement window comes from: the baseline's
/// pace read from the store up front, or a baseline node running this
/// sweep — its pace is published into the pace slot when it completes,
/// and the dependency edge guarantees that happens first.
#[derive(Clone, Copy)]
enum PaceSource {
    Cached(Pace),
    Node(usize),
}

impl PaceSource {
    fn resolve(&self, paces: &[Mutex<Option<Pace>>]) -> Pace {
        match self {
            PaceSource::Cached(pace) => *pace,
            #[expect(
                clippy::expect_used,
                reason = "pacing edges make the baseline a dependency; the executor runs dependents only after it completed and published"
            )]
            PaceSource::Node(baseline) => (*paces[*baseline]
                .lock()
                .unwrap_or_else(PoisonError::into_inner))
            .expect("a baseline node completes before its dependents run"),
        }
    }
}

/// One schedulable node of the sweep's dependency graph — exactly one
/// unit simulation: free-running (`pace: None`), or paced to its combo
/// baseline's measured window; reading its ops from the shared front
/// end in slot `front`, or generating them live (`None`).
struct ExecNode<'a> {
    job: &'a UnitJob,
    pace: Option<PaceSource>,
    front: Option<usize>,
}

impl ExecNode<'_> {
    fn label(&self) -> String {
        match self.pace {
            None => self.job.label(),
            Some(_) => format!("{} [paced]", self.job.label()),
        }
    }

    /// Simulate this node's unit, over `front` when it shares one.
    fn run(
        &self,
        paces: &[Mutex<Option<Pace>>],
        front: Option<&Arc<SharedFront>>,
    ) -> Result<SchemeRun, String> {
        let job = self.job;
        let pace = self.pace.map(|source| source.resolve(paces));
        run_point(
            &job.combo,
            &job.point,
            &job.config,
            job.phase.as_ref(),
            pace.as_ref(),
            front,
        )
        .map_err(|e| e.to_string())
    }
}

/// One front end shared by two or more pending units: created by the
/// first of them to start, dropped — deleting its record and checkpoint
/// files — when the last one finishes, fails or is skipped.
struct FrontSlot<'a> {
    /// A unit reading it: the combo and platform to generate from.
    job: &'a UnitJob,
    /// [`Checkpoints::All`] when a unit reading it has a phase
    /// schedule, so that its shifts fork cheaply.
    keep: Checkpoints,
    front: Mutex<Option<Arc<SharedFront>>>,
    /// Units that have not finished, failed or been skipped yet.
    remaining: AtomicUsize,
}

/// Give every group of two or more nodes with equal [`FrontKey`]s a
/// shared front-end slot. A node under a phase schedule reads it until
/// each core's first shift, where its session forks that core live.
fn plan_fronts<'a>(nodes: &mut [ExecNode<'a>]) -> Vec<FrontSlot<'a>> {
    let mut keys: Vec<FrontKey> = Vec::new();
    let mut members: Vec<Vec<usize>> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let key = FrontKey::of(&node.job.combo, &node.job.config.system);
        match keys.iter().position(|k| *k == key) {
            Some(g) => members[g].push(i),
            None => {
                keys.push(key);
                members.push(vec![i]);
            }
        }
    }
    let mut slots = Vec::new();
    for group in members.into_iter().filter(|g| g.len() >= 2) {
        for &i in &group {
            nodes[i].front = Some(slots.len());
        }
        let phased = group.iter().any(|&i| nodes[i].job.phase.is_some());
        slots.push(FrontSlot {
            job: nodes[group[0]].job,
            keep: if phased {
                Checkpoints::All
            } else {
                Checkpoints::Latest
            },
            front: Mutex::new(None),
            remaining: AtomicUsize::new(group.len()),
        });
    }
    slots
}

impl FrontSlot<'_> {
    /// The shared front end, created under `dir` on first use.
    fn acquire(&self, dir: &Path, index: usize) -> Result<Arc<SharedFront>, String> {
        let mut front = self.front.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(front) = &*front {
            return Ok(front.clone());
        }
        let created = std::fs::create_dir_all(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))
            .and_then(|()| {
                combo_shared_front(
                    &self.job.combo,
                    &self.job.config.system,
                    dir,
                    &format!("front{index}"),
                    self.keep,
                )
                .map_err(|e| e.to_string())
            })
            .map_err(|e| format!("creating the shared front end: {e}"))?;
        Ok(front.insert(Arc::new(created)).clone())
    }
}

/// A unit's claim on its front-end slot: releasing the last claim drops
/// the slot's front end, which deletes its files. Released on drop, so
/// a unit that fails or panics releases too.
struct FrontLease<'s, 'a>(&'s FrontSlot<'a>);

impl Drop for FrontLease<'_, '_> {
    fn drop(&mut self) {
        if self.0.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            drop(
                self.0
                    .front
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take(),
            );
        }
    }
}

/// The sweep's shared front-end directory: cleared when claimed (a
/// killed sweep may have left one behind) and removed when dropped, on
/// every return path.
struct FrontsDir(PathBuf);

impl FrontsDir {
    fn claim(path: PathBuf) -> FrontsDir {
        let _ = std::fs::remove_dir_all(&path);
        FrontsDir(path)
    }
}

impl Drop for FrontsDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Build the sweep's dependency graph from the pending jobs:
///
/// * fixed-plan units run free (no pace, no edges);
/// * early-exit units group per (combo, configuration, phase). When the
///   combo's L2P baseline is itself pending it becomes a free node and
///   every sibling node depends on it ([`PaceSource::Node`]) — combos
///   parallelize against each other, only the intra-combo pacing order
///   is sequenced. When the baseline is already in the store, its
///   recorded window paces each sibling with no edges at all
///   ([`PaceSource::Cached`]), keeping unit granularity (a
///   scheme-parameter edit re-runs that scheme's units in parallel,
///   paced by the cached baselines);
/// * an early-exit subset whose baseline is neither cached nor pending
///   (a caller-supplied subset) cannot be paced; its members fall back
///   to independent converged runs.
///
/// Returns the nodes plus, per node, the indices of the nodes it
/// depends on — the exact shape [`exec::run_graph`] consumes.
fn plan_exec_nodes<'a>(
    pending: &[&'a UnitJob],
    store: &ResultStore,
) -> (Vec<ExecNode<'a>>, Vec<Vec<usize>>) {
    /// A free unit, or an index into `families`.
    enum Item<'a> {
        Free(&'a UnitJob),
        Family(usize),
    }
    let mut items: Vec<Item<'a>> = Vec::new();
    let mut families: Vec<Vec<&'a UnitJob>> = Vec::new();
    let mut family_index: BTreeMap<String, usize> = BTreeMap::new();
    for &job in pending {
        if !job.config.plan.can_stop_early() {
            items.push(Item::Free(job));
            continue;
        }
        let tag = format!(
            "{:?}|{:?}|{:?}",
            job.combo,
            job.config,
            job.phase.as_ref().map(|p| p.fingerprint())
        );
        match family_index.entry(tag) {
            Entry::Occupied(f) => families[*f.get()].push(job),
            Entry::Vacant(slot) => {
                slot.insert(families.len());
                items.push(Item::Family(families.len()));
                families.push(vec![job]);
            }
        }
    }

    let mut nodes: Vec<ExecNode<'a>> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    for item in items {
        let jobs = match item {
            Item::Free(job) => {
                nodes.push(ExecNode {
                    job,
                    pace: None,
                    front: None,
                });
                deps.push(Vec::new());
                continue;
            }
            Item::Family(f) => std::mem::take(&mut families[f]),
        };
        let probe = jobs[0];
        let source = if let Some(p) = jobs.iter().position(|j| j.point == SchemePoint::L2p) {
            let baseline = nodes.len();
            nodes.push(ExecNode {
                job: jobs[p],
                pace: None,
                front: None,
            });
            deps.push(Vec::new());
            Some(PaceSource::Node(baseline))
        } else {
            let baseline_key = unit_key(
                &probe.combo,
                &SchemePoint::L2p,
                &probe.config,
                probe.phase.as_ref(),
            );
            store
                .get_unit(&baseline_key)
                .map(|baseline| PaceSource::Cached(pace_of(baseline, &probe.config)))
        };
        let edges: Vec<usize> = match source {
            Some(PaceSource::Node(baseline)) => vec![baseline],
            _ => Vec::new(),
        };
        for &job in jobs.iter().filter(|j| j.point != SchemePoint::L2p) {
            nodes.push(ExecNode {
                job,
                pace: source,
                front: None,
            });
            deps.push(edges.clone());
        }
    }
    (nodes, deps)
}

/// Content key for the span record of the piece that executed the unit
/// with this key. Derived from the unit key, so re-running the same
/// piece supersedes its previous span (newest telemetry wins under the
/// store's gc rule) instead of accumulating.
fn span_key(unit_key: &ContentKey) -> ContentKey {
    content_key(&format!("{SCHEMA_VERSION}|span|{unit_key}"))
}

/// Format `x` with an engineering suffix and a trailing space when a
/// prefix is used, so call sites can append a unit: `1_234_567.0` →
/// `"1.23 M"`.
pub fn fmt_eng(x: f64) -> String {
    if x >= 1e9 {
        format!("{:.2} G", x / 1e9)
    } else if x >= 1e6 {
        format!("{:.2} M", x / 1e6)
    } else if x >= 1e3 {
        format!("{:.2} k", x / 1e3)
    } else {
        format!("{x:.0} ")
    }
}

/// Render the end-of-sweep telemetry footer from the executed spans: a
/// throughput roll-up plus one utilisation line per worker. A pure,
/// order-independent function of the span set — two sweeps that
/// executed the same pieces print the same footer no matter how the
/// schedule interleaved them.
pub fn telemetry_footer(spans: &[UnitSpan]) -> String {
    if spans.is_empty() {
        return "telemetry: all units served from cache (no simulation wall time)".into();
    }
    let wall_nanos: u64 = spans.iter().map(|s| s.wall_nanos).sum();
    let sim_cycles: u64 = spans.iter().map(|s| s.sim_cycles).sum();
    let instructions: u64 = spans.iter().map(|s| s.instructions).sum();
    let secs = wall_nanos as f64 / 1e9;
    let rate = |x: u64| {
        if secs > 0.0 {
            x as f64 / secs
        } else {
            0.0
        }
    };
    let mut out = format!(
        "telemetry: {:.2} s simulation wall across {} pieces · {}cycles/s · {}ops/s",
        secs,
        spans.len(),
        fmt_eng(rate(sim_cycles)),
        fmt_eng(rate(instructions)),
    );
    // Per-worker utilisation against the sweep's span of wall time: the
    // latest point any piece was still simulating, measured from
    // submission (queue + wall of that piece).
    let elapsed_nanos = spans
        .iter()
        .map(|s| s.queue_nanos + s.wall_nanos)
        .max()
        .unwrap_or(0);
    let mut workers: BTreeMap<usize, (usize, u64)> = BTreeMap::new();
    for span in spans {
        let slot = workers.entry(span.worker).or_default();
        slot.0 += 1;
        slot.1 += span.wall_nanos;
    }
    for (worker, (pieces, busy_nanos)) in workers {
        let util = if elapsed_nanos == 0 {
            0.0
        } else {
            100.0 * busy_nanos as f64 / elapsed_nanos as f64
        };
        out.push_str(&format!(
            "\n  worker {worker}: {pieces} pieces, {:.2} s busy ({util:.0}% utilisation)",
            busy_nanos as f64 / 1e9,
        ));
    }
    out
}

#[cfg(test)]
pub(crate) mod failpoint {
    //! A test-only failure injector: when armed with a label substring
    //! and a warm-up cycle count, any piece matching *both* panics
    //! before simulating. Keying on a test's unique custom warm-up
    //! budget means concurrently running tests in the same process
    //! never trip each other's failpoints.
    use std::sync::Mutex;

    pub(crate) static ARMED: Mutex<Option<(String, u64)>> = Mutex::new(None);

    pub(crate) fn maybe_panic(label: &str, warmup_cycles: u64) {
        // Clone and release the lock before panicking so an injected
        // failure never poisons the failpoint itself.
        let armed = ARMED.lock().expect("failpoint poisoned").clone();
        if let Some((pattern, warmup)) = armed {
            if warmup_cycles == warmup && label.contains(&pattern) {
                panic!("injected failure for {label}");
            }
        }
    }

    /// Armed like [`ARMED`]: a matching piece's run gets a NaN IPC,
    /// as a degenerate simulation would produce.
    pub(crate) static NAN_IPC: Mutex<Option<(String, u64)>> = Mutex::new(None);

    pub(crate) fn maybe_poison(
        label: &str,
        warmup_cycles: u64,
        mut run: snug_experiments::SchemeRun,
    ) -> snug_experiments::SchemeRun {
        let armed = NAN_IPC.lock().expect("failpoint poisoned").clone();
        if let Some((pattern, warmup)) = armed {
            if warmup_cycles == warmup && label.contains(&pattern) {
                run.ipcs[0] = f64::NAN;
            }
        }
        run
    }
}

/// Run `jobs` against `store`: cached units are served, missing units
/// run as a dependency graph on up to `threads` workers (0 = all CPUs).
/// Workers append each completed piece to their own shard file under
/// `results/shards/` the moment it finishes (an interrupted sweep keeps
/// everything completed so far — the next run recovers the shards and
/// re-runs only what is missing); the main store is written once, at
/// sweep end, in pending-job order, so its bytes never depend on the
/// schedule or the worker count. Outcomes return in job order. This is
/// the engine under [`run_sweep`]; tests drive it directly to exercise
/// ad-hoc configurations.
pub fn run_unit_jobs(
    jobs: &[UnitJob],
    store: &mut ResultStore,
    threads: usize,
    progress: &mut (impl FnMut(SweepEvent) + Send),
) -> Result<Vec<UnitOutcome>, SweepError> {
    store.recover_shards()?;
    let submitted = Instant::now();
    let pending: Vec<&UnitJob> = jobs
        .iter()
        .filter(|j| store.get_unit(&j.key).is_none())
        .collect();
    let (mut nodes, deps) = plan_exec_nodes(&pending, store);
    let fronts_dir = FrontsDir::claim(store.dir().join(FRONTS_DIR));
    let fronts = plan_fronts(&mut nodes);
    let workers = exec::effective_threads(threads, nodes.len());
    let shards_dir = store.dir().join(SHARDS_DIR);
    let shard_writers: Vec<Mutex<ShardWriter>> = (0..workers)
        .map(|w| {
            Mutex::new(ShardWriter::new(
                shards_dir.join(format!("worker-{w}.jsonl")),
            ))
        })
        .collect();
    let shard_error: Mutex<Option<StoreError>> = Mutex::new(None);
    let paces: Vec<Mutex<Option<Pace>>> = nodes.iter().map(|_| Mutex::new(None)).collect();
    let spans: Vec<Mutex<Option<UnitSpan>>> = nodes.iter().map(|_| Mutex::new(None)).collect();
    let progress_cell = Mutex::new(&mut *progress);
    let outcomes = exec::run_graph(
        nodes.len(),
        &deps,
        workers,
        |i, worker| {
            let node = &nodes[i];
            let job = node.job;
            let lease = node.front.map(|slot| FrontLease(&fronts[slot]));
            #[cfg(test)]
            failpoint::maybe_panic(&node.label(), job.config.plan.warmup_cycles);
            let picked = Instant::now();
            let front = node
                .front
                .map(|slot| fronts[slot].acquire(&fronts_dir.0, slot))
                .transpose()?;
            let run = node.run(&paces, front.as_ref())?;
            drop(front);
            drop(lease);
            let wall_nanos = picked.elapsed().as_nanos() as u64;
            #[cfg(test)]
            let run = failpoint::maybe_poison(&node.label(), job.config.plan.warmup_cycles, run);
            // A result the store cannot hold fails the unit here, before
            // its pace unblocks any sibling.
            let unit_line = StoreEntry {
                key: job.key,
                result: StoredResult::Unit(run.clone()),
            }
            .render_line()
            .map_err(|e| e.to_string())?;
            // Publish the baseline's pace before this node is marked
            // complete: the executor unblocks dependents only after this
            // closure returns, so paced siblings always find it.
            if job.point == SchemePoint::L2p && job.config.plan.can_stop_early() {
                *paces[i].lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(pace_of(&run, &job.config));
            }
            let plan = job.config.plan;
            let measured = run.measured_cycles.unwrap_or(plan.measure_cycles());
            let span = UnitSpan {
                label: node.label(),
                queue_nanos: picked.duration_since(submitted).as_nanos() as u64,
                wall_nanos,
                sim_cycles: plan.warmup_cycles.saturating_add(measured),
                instructions: (run.ipcs.iter().sum::<f64>() * measured as f64).round() as u64,
                worker,
                shard: format!("worker-{worker}.jsonl"),
            };
            let span_key = span_key(&job.key);
            // Crash durability: every completed entry reaches this
            // worker's shard before the piece reports done.
            {
                let mut shard = shard_writers[worker]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                let span_entry = StoreEntry {
                    key: span_key,
                    result: StoredResult::Span(span.clone()),
                };
                if let Err(e) = shard
                    .append_line(&unit_line)
                    .and_then(|()| shard.append(&span_entry))
                {
                    shard_error
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .get_or_insert(e);
                }
            }
            *spans[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(span.clone());
            Ok((run, span_key, span))
        },
        |event| {
            let mut p = progress_cell.lock().unwrap_or_else(PoisonError::into_inner);
            match event {
                ExecEvent::Started { index, .. } => (*p)(SweepEvent::JobStarted {
                    label: nodes[index].label(),
                }),
                ExecEvent::Finished {
                    index, done, total, ..
                } => (*p)(SweepEvent::JobFinished {
                    label: nodes[index].label(),
                    done,
                    to_run: total,
                    span: spans[index]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .clone()
                        .unwrap_or_default(),
                }),
                ExecEvent::Failed { index, error, .. } => (*p)(SweepEvent::JobFailed {
                    label: nodes[index].label(),
                    error,
                }),
                ExecEvent::Skipped {
                    index, failed_dep, ..
                } => {
                    // A skipped unit never runs its job, so release its
                    // front-end claim here.
                    drop(nodes[index].front.map(|slot| FrontLease(&fronts[slot])));
                    (*p)(SweepEvent::JobSkipped {
                        label: nodes[index].label(),
                        failed_dep: nodes[failed_dep].label(),
                    })
                }
            }
        },
    );

    // Fold the terminal states: completed runs merge into the main
    // store, the first failure (plus everything it doomed) is surfaced
    // after persistence so an interrupted sweep still keeps its
    // completed work.
    let mut completed: BTreeMap<ContentKey, SchemeRun> = BTreeMap::new();
    let mut finished_spans: Vec<(ContentKey, UnitSpan)> = Vec::new();
    let mut failure: Option<(String, String)> = None;
    let mut skipped: Vec<String> = Vec::new();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            JobOutcome::Done((run, span_key, span)) => {
                completed.insert(nodes[i].job.key, run);
                finished_spans.push((span_key, span));
            }
            JobOutcome::Failed(error) => {
                if failure.is_none() {
                    failure = Some((nodes[i].label(), error));
                }
            }
            JobOutcome::Skipped { .. } => skipped.push(nodes[i].label()),
        }
    }
    // Deterministic merge: completed units land in the main store in
    // pending-job order — never in completion order — so the store's
    // bytes are identical for every `--jobs` value.
    for job in &pending {
        if let Some(run) = completed.remove(&job.key) {
            store.insert_unit(job.key, run)?;
        }
    }
    for (key, span) in finished_spans {
        store.insert_span(key, span)?;
    }
    // The shards' contents are now in the main store; drop them.
    let mut shard_io: Option<StoreError> = None;
    for writer in shard_writers {
        let writer = writer.into_inner().unwrap_or_else(PoisonError::into_inner);
        if writer.written() {
            if let Err(e) = std::fs::remove_file(writer.path()) {
                shard_io.get_or_insert(StoreError::Io(
                    writer.path().display().to_string(),
                    e.to_string(),
                ));
            }
        }
    }
    let _ = std::fs::remove_dir(&shards_dir);
    if let Some((label, error)) = failure {
        return Err(SweepError::UnitFailed {
            label,
            error,
            skipped,
        });
    }
    if let Some(e) = shard_error
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        return Err(e.into());
    }
    if let Some(e) = shard_io {
        return Err(e.into());
    }

    // Assemble outcomes in job order, now that everything is stored.
    let executed: BTreeSet<ContentKey> = pending.iter().map(|j| j.key).collect();
    #[expect(
        clippy::expect_used,
        reason = "every pending unit was persisted above and cached units were present before the sweep started"
    )]
    let outcome = |job: &UnitJob| UnitOutcome {
        key: job.key,
        from_cache: !executed.contains(&job.key),
        run: store
            .get_unit(&job.key)
            .expect("unit just stored or cached")
            .clone(),
    };
    Ok(jobs.iter().map(outcome).collect())
}

/// Run `spec` against `store`: leftover shards from a killed sweep are
/// recovered first, cached units are served, missing units run as a
/// dependency graph on up to `threads` workers (0 = all CPUs), and
/// per-combo results are assembled from the units.
pub fn run_sweep(
    spec: &SweepSpec,
    store: &mut ResultStore,
    threads: usize,
    mut progress: impl FnMut(SweepEvent) + Send,
) -> Result<SweepOutcome, SweepError> {
    // Recover before counting cache hits so units a killed sweep
    // completed are reported as hits, not re-planned.
    store.recover_shards()?;
    let combo_jobs = spec.combo_jobs();
    let all_units: Vec<UnitJob> = combo_jobs.iter().flat_map(|j| j.units.clone()).collect();
    let hits = all_units
        .iter()
        .filter(|j| store.get_unit(&j.key).is_some())
        .count();
    progress(SweepEvent::Planned {
        total: all_units.len(),
        hits,
    });

    let unit_outcomes = run_unit_jobs(&all_units, store, threads, &mut progress)?;

    // Assemble per combo, consuming unit outcomes in expansion order.
    let mut iter = unit_outcomes.into_iter();
    let mut combos = Vec::with_capacity(combo_jobs.len());
    let mut cache_hits = 0;
    let mut executed = 0;
    let mut simulated_cycles = 0u64;
    let mut budgeted_cycles = 0u64;
    for job in &combo_jobs {
        let units: Vec<UnitOutcome> = iter.by_ref().take(job.units.len()).collect();
        cache_hits += units.iter().filter(|u| u.from_cache).count();
        executed += units.iter().filter(|u| !u.from_cache).count();
        let plan = job.config.plan;
        for unit in &units {
            simulated_cycles += plan
                .warmup_cycles
                .saturating_add(unit.run.measured_cycles.unwrap_or(plan.measure_cycles()));
            budgeted_cycles += plan.horizon();
        }
        let runs: Vec<(SchemePoint, SchemeRun)> = job
            .units
            .iter()
            .map(|u| u.point)
            .zip(units.iter().map(|u| u.run.clone()))
            .collect();
        combos.push(ComboOutcome {
            label: job.combo.label(),
            from_cache: units.iter().all(|u| u.from_cache),
            result: assemble_combo(&job.combo, &runs),
        });
    }

    Ok(SweepOutcome {
        combos,
        cache_hits,
        executed,
        simulated_cycles,
        budgeted_cycles,
    })
}

/// Look up every unit of `spec` in `store` without running anything and
/// assemble the per-combo results. Returns `None` if any unit is
/// missing (i.e. `snug sweep` has not completed for this spec yet).
pub fn cached_results(spec: &SweepSpec, store: &ResultStore) -> Option<Vec<ComboResult>> {
    spec.combo_jobs()
        .iter()
        .map(|job| {
            let runs: Vec<(SchemePoint, SchemeRun)> = job
                .units
                .iter()
                .map(|u| Some((u.point, store.get_unit(&u.key)?.clone())))
                .collect::<Option<Vec<_>>>()?;
            Some(assemble_combo(&job.combo, &runs))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{BudgetPreset, StopPreset};
    use snug_workloads::ComboClass;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            name: "tiny-c1".into(),
            classes: vec![ComboClass::C1],
            combos: Vec::new(),
            budget: BudgetPreset::Custom {
                warmup_cycles: 10_000,
                measure_cycles: 60_000,
            },
            stop: StopPreset::Fixed,
            phase_shift: None,
        }
    }

    fn tmp_store(tag: &str) -> (std::path::PathBuf, ResultStore) {
        let dir =
            std::env::temp_dir().join(format!("snug-sweep-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        (dir, store)
    }

    const UNITS_PER_COMBO: usize = SchemePoint::COUNT;

    #[test]
    fn second_run_is_all_cache_hits_and_identical() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("rerun");

        let first = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(
            first.executed,
            3 * UNITS_PER_COMBO,
            "C1 has three combos of nine units"
        );
        assert_eq!(first.cache_hits, 0);

        // Re-open from disk to prove persistence, then re-run.
        let mut reopened = ResultStore::open(&dir).unwrap();
        let second = run_sweep(&spec, &mut reopened, 2, |_| {}).unwrap();
        assert_eq!(second.executed, 0);
        assert_eq!(second.cache_hits, 3 * UNITS_PER_COMBO);
        assert!(second.combos.iter().all(|c| c.from_cache));
        assert_eq!(
            second.results(),
            first.results(),
            "bit-identical from cache"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_change_invalidates_the_cache() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("invalidate");
        run_sweep(&spec, &mut store, 0, |_| {}).unwrap();

        let mut bigger = spec.clone();
        bigger.budget = BudgetPreset::Custom {
            warmup_cycles: 10_000,
            measure_cycles: 90_000,
        };
        let outcome = run_sweep(&bigger, &mut store, 0, |_| {}).unwrap();
        assert_eq!(outcome.cache_hits, 0, "different budget, different keys");
        assert_eq!(outcome.executed, 3 * UNITS_PER_COMBO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn events_report_plan_and_completion() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("events");
        let mut planned = None;
        let mut finished = 0usize;
        run_sweep(&spec, &mut store, 1, |e| match e {
            SweepEvent::Planned { total, hits, .. } => planned = Some((total, hits)),
            SweepEvent::JobFinished { .. } => finished += 1,
            _ => {}
        })
        .unwrap();
        assert_eq!(planned, Some((3 * UNITS_PER_COMBO, 0)));
        assert_eq!(finished, 3 * UNITS_PER_COMBO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_results_requires_a_complete_sweep() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("partial");
        assert!(cached_results(&spec, &store).is_none(), "empty store");
        run_sweep(&spec, &mut store, 0, |_| {}).unwrap();
        let cached = cached_results(&spec, &store).unwrap();
        assert_eq!(cached.len(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_run_persists_the_same_store_bytes_as_sequential() {
        let spec = tiny_spec();
        let (dir_seq, mut store_seq) = tmp_store("bytes-seq");
        let (dir_par, mut store_par) = tmp_store("bytes-par");
        let sequential = run_sweep(&spec, &mut store_seq, 1, |_| {}).unwrap();
        let parallel = run_sweep(&spec, &mut store_par, 4, |_| {}).unwrap();
        assert_eq!(sequential.results(), parallel.results());
        let seq_bytes = std::fs::read(dir_seq.join(crate::store::STORE_FILE)).unwrap();
        let par_bytes = std::fs::read(dir_par.join(crate::store::STORE_FILE)).unwrap();
        assert_eq!(
            seq_bytes, par_bytes,
            "store bytes must not depend on the worker count"
        );
        std::fs::remove_dir_all(&dir_seq).unwrap();
        std::fs::remove_dir_all(&dir_par).unwrap();
    }

    #[test]
    fn spans_record_worker_and_shard_provenance() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("provenance");
        let mut spans = Vec::new();
        run_sweep(&spec, &mut store, 2, |e| {
            if let SweepEvent::JobFinished { span, .. } = e {
                spans.push(span);
            }
        })
        .unwrap();
        assert_eq!(spans.len(), 3 * UNITS_PER_COMBO);
        for span in &spans {
            assert!(span.worker < 2, "{}: worker {}", span.label, span.worker);
            assert_eq!(span.shard, format!("worker-{}.jsonl", span.worker));
        }
        // Persisted spans carry the same provenance, and the shards
        // themselves are gone (their contents merged into the store).
        assert_eq!(store.spans().len(), 3 * UNITS_PER_COMBO);
        for span in store.spans() {
            assert_eq!(span.shard, format!("worker-{}.jsonl", span.worker));
        }
        assert!(!dir.join(SHARDS_DIR).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A span key is pinned byte for byte: a changed format string would
    /// orphan every span record already in a store.
    #[test]
    fn span_key_is_pinned() {
        assert_eq!(
            span_key(&"0123456789abcdef0123456789abcdef".parse().unwrap()),
            "61d5a5af094be12e0b58c9a75a3153a6"
        );
    }

    #[test]
    fn telemetry_footer_is_order_independent_and_pinned() {
        let span =
            |label: &str, queue: u64, wall: u64, cycles: u64, instr: u64, worker: usize| UnitSpan {
                label: label.into(),
                queue_nanos: queue,
                wall_nanos: wall,
                sim_cycles: cycles,
                instructions: instr,
                worker,
                shard: format!("worker-{worker}.jsonl"),
            };
        let spans = vec![
            span("a", 0, 2_000_000_000, 3_000_000, 1_500_000, 0),
            span("b", 500_000_000, 1_500_000_000, 1_000_000, 500_000, 1),
            span("c", 2_000_000_000, 1_000_000_000, 2_000_000, 1_000_000, 0),
        ];
        let footer = telemetry_footer(&spans);
        assert_eq!(
            footer,
            "telemetry: 4.50 s simulation wall across 3 pieces · 1.33 Mcycles/s · 666.67 kops/s\n  \
             worker 0: 2 pieces, 3.00 s busy (100% utilisation)\n  \
             worker 1: 1 pieces, 1.50 s busy (50% utilisation)"
        );
        let mut reversed = spans.clone();
        reversed.reverse();
        assert_eq!(
            telemetry_footer(&reversed),
            footer,
            "the footer is a pure function of the span set, not its order"
        );
        assert_eq!(
            telemetry_footer(&[]),
            "telemetry: all units served from cache (no simulation wall time)"
        );
    }

    #[test]
    fn crash_recovery_reruns_only_missing_units() {
        let spec = tiny_spec();
        let (dir_ref, mut store_ref) = tmp_store("crash-ref");
        let reference = run_sweep(&spec, &mut store_ref, 2, |_| {}).unwrap();

        // Simulate a killed sweep: a leftover shard holding the first
        // five completed units plus the partial trailing line the crash
        // cut short.
        let (dir, mut store) = tmp_store("crash-shard");
        let text = std::fs::read_to_string(dir_ref.join(crate::store::STORE_FILE)).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let shards = dir.join(SHARDS_DIR);
        std::fs::create_dir_all(&shards).unwrap();
        std::fs::write(
            shards.join("worker-0.jsonl"),
            format!("{}\n{}", lines[..5].join("\n"), "{\"key\":\"k6\",\"inp"),
        )
        .unwrap();

        let outcome = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(outcome.cache_hits, 5, "recovered units serve as hits");
        assert_eq!(outcome.executed, 3 * UNITS_PER_COMBO - 5);
        assert_eq!(outcome.results(), reference.results());
        assert!(!shards.exists(), "recovery consumed the shards");
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&dir_ref).unwrap();
    }

    #[test]
    fn paced_siblings_never_start_before_their_baseline_finishes() {
        let mut spec = tiny_spec();
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: Some(0.9),
        };
        let (dir, mut store) = tmp_store("pacing-graph");
        let mut finished: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        let mut paced_started = 0usize;
        run_sweep(&spec, &mut store, 4, |e| match e {
            SweepEvent::JobStarted { label } if label.contains("[paced]") => {
                paced_started += 1;
                let combo = label.split(" [").next().unwrap().to_string();
                assert!(
                    finished.contains(&format!("{combo} [l2p]")),
                    "paced piece `{label}` started before its baseline finished"
                );
            }
            SweepEvent::JobFinished { label, .. } => {
                finished.insert(label);
            }
            _ => {}
        })
        .unwrap();
        assert_eq!(paced_started, 3 * (UNITS_PER_COMBO - 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failing_baseline_fails_dependents_with_a_clear_error() {
        let mut spec = tiny_spec();
        // A warm-up budget unique to this test keys the failpoint so no
        // concurrently running sweep can trip it.
        spec.budget = BudgetPreset::Custom {
            warmup_cycles: 11_000,
            measure_cycles: 66_000,
        };
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: Some(0.9),
        };
        let (dir, mut store) = tmp_store("failing-baseline");
        let victim = spec.combos()[0].label();
        let mut events: Vec<SweepEvent> = Vec::new();
        *failpoint::ARMED.lock().unwrap() = Some((format!("{victim} [l2p]"), 11_000));
        let err = run_sweep(&spec, &mut store, 2, |e| events.push(e)).unwrap_err();
        *failpoint::ARMED.lock().unwrap() = None;
        match &err {
            SweepError::UnitFailed {
                label,
                error,
                skipped,
            } => {
                assert_eq!(label, &format!("{victim} [l2p]"));
                assert!(error.contains("injected failure"), "{error}");
                assert_eq!(
                    skipped.len(),
                    UNITS_PER_COMBO - 1,
                    "every paced sibling of the failed baseline: {skipped:?}"
                );
            }
            other => panic!("expected UnitFailed, got {other:?}"),
        }
        assert!(
            err.to_string().contains("failed: injected failure"),
            "{err}"
        );
        assert!(events
            .iter()
            .any(|e| matches!(e, SweepEvent::JobFailed { .. })));
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, SweepEvent::JobSkipped { .. }))
                .count(),
            UNITS_PER_COMBO - 1
        );

        // The pool drained: the two healthy combos completed and
        // persisted, so the disarmed re-run re-runs only the victim.
        let outcome = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(outcome.cache_hits, 2 * UNITS_PER_COMBO);
        assert_eq!(outcome.executed, UNITS_PER_COMBO);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn converged_sweep_caches_separately_and_reports_the_saving() {
        let mut spec = tiny_spec();
        let (dir, mut store) = tmp_store("converged");
        let fixed = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(
            fixed.simulated_cycles, fixed.budgeted_cycles,
            "fixed runs use their whole budget"
        );

        // A very loose epsilon so the tiny synthetic runs all converge:
        // 4 windows of 6 K cycles → stop at ~24 K of the 60 K window.
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: Some(0.9),
        };
        let mut labels = Vec::new();
        let converged = run_sweep(&spec, &mut store, 2, |e| {
            if let SweepEvent::JobStarted { label } = e {
                labels.push(label);
            }
        })
        .unwrap();
        assert_eq!(
            converged.executed,
            3 * UNITS_PER_COMBO,
            "converged runs never reuse fixed entries"
        );
        assert_eq!(
            labels.iter().filter(|l| l.contains("[paced]")).count(),
            3 * (UNITS_PER_COMBO - 1),
            "every non-baseline unit runs paced: {labels:?}"
        );
        assert_eq!(
            labels.iter().filter(|l| l.ends_with("[l2p]")).count(),
            3,
            "one free baseline per combo: {labels:?}"
        );
        assert!(
            converged.simulated_cycles < converged.budgeted_cycles,
            "early exit saved cycles: {} vs {}",
            converged.simulated_cycles,
            converged.budgeted_cycles
        );
        // Baseline pacing: within each combo every unit measured the
        // same window — the one its L2P baseline converged at.
        for job in spec.combo_jobs() {
            let windows: std::collections::BTreeSet<Option<u64>> = job
                .units
                .iter()
                .map(|u| store.get_unit(&u.key).expect("unit stored").measured_cycles)
                .collect();
            assert_eq!(
                windows.len(),
                1,
                "{}: one window per combo",
                job.combo.label()
            );
        }

        // Re-running the converged sweep is all cache hits with the
        // identical saving (measured_cycles persisted per unit).
        let rerun = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(rerun.executed, 0);
        assert_eq!(rerun.simulated_cycles, converged.simulated_cycles);
        assert_eq!(rerun.results(), converged.results());

        // And the fixed entries are still served untouched.
        let fixed_again = run_sweep(&tiny_spec(), &mut store, 2, |_| {}).unwrap();
        assert_eq!(fixed_again.executed, 0);
        assert_eq!(fixed_again.results(), fixed.results());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shifted_reconverged_sweep_is_keyed_apart_and_records_reasons() {
        let mut spec = tiny_spec();
        // One demand-doubling shift mid-measurement (warm-up 10 K +
        // 60 K window → shift at 40 K), reconverged stop with a loose
        // epsilon so the tiny streams re-stabilise.
        spec.phase_shift = Some("40000:demand=200".into());
        spec.stop = StopPreset::Reconverged {
            window_cycles: None,
            rel_epsilon: Some(0.9),
        };
        let (dir, mut store) = tmp_store("shifted-reconverged");
        let stationary = run_sweep(&tiny_spec(), &mut store, 2, |_| {}).unwrap();
        let shifted = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(
            shifted.executed,
            3 * UNITS_PER_COMBO,
            "shifted runs never reuse stationary entries"
        );
        assert_ne!(
            shifted.results(),
            stationary.results(),
            "the workload shift changes the measured results"
        );
        // Every unit persists an explicit stop reason; baselines under
        // the re-convergence policy record per-phase plateau means.
        for job in spec.combo_jobs() {
            for unit in &job.units {
                let run = store.get_unit(&unit.key).expect("unit stored");
                assert!(run.stop_reason.is_some(), "{}", unit.label());
                if unit.point == SchemePoint::L2p {
                    assert_eq!(
                        run.plateaus.len(),
                        2,
                        "{}: one plateau per workload phase",
                        unit.label()
                    );
                }
            }
        }
        // Deterministic: a rerun is all cache hits and bit-identical.
        let rerun = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(rerun.executed, 0);
        assert_eq!(rerun.results(), shifted.results());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn converged_units_persist_stop_reasons() {
        let mut spec = tiny_spec();
        spec.stop = StopPreset::Converged {
            window_cycles: None,
            rel_epsilon: Some(0.9),
        };
        let (dir, mut store) = tmp_store("stop-reasons");
        run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        for job in spec.combo_jobs() {
            for unit in &job.units {
                let run = store.get_unit(&unit.key).expect("unit stored");
                let reason = run.stop_reason.expect("early-exit-capable run");
                // The loose epsilon converges everything here, and the
                // recorded reason must agree with the recorded window.
                assert_eq!(
                    reason == snug_experiments::StopReason::Converged,
                    run.measured_cycles.is_some(),
                    "{}",
                    unit.label()
                );
            }
        }
        // Fixed-plan entries stay bare: no stop reason at all.
        run_sweep(&tiny_spec(), &mut store, 2, |_| {}).unwrap();
        for job in tiny_spec().combo_jobs() {
            for unit in &job.units {
                assert_eq!(store.get_unit(&unit.key).unwrap().stop_reason, None);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scheme_config_edit_reruns_only_that_schemes_units() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("scheme-edit");
        run_sweep(&spec, &mut store, 0, |_| {}).unwrap();

        // Edit the SNUG configuration only and re-expand the unit jobs
        // by hand (the spec's presets cannot express this, which is the
        // point: the key schema must keep every non-SNUG unit cached).
        let mut edited = spec.compare_config();
        edited.snug.stage2_cycles += 1;
        let jobs: Vec<UnitJob> = spec
            .combos()
            .iter()
            .flat_map(|combo| crate::spec::unit_jobs_for(combo, &edited, None))
            .collect();
        let outcomes = run_unit_jobs(&jobs, &mut store, 0, &mut |_| {}).unwrap();

        let mut snug_units = 0;
        for (outcome, job) in outcomes.iter().zip(&jobs) {
            if job.point == SchemePoint::Snug {
                snug_units += 1;
                assert!(!outcome.from_cache, "every SNUG unit re-ran");
            } else {
                assert!(outcome.from_cache, "non-SNUG unit stayed cached");
            }
        }
        assert_eq!(snug_units, 3, "one SNUG unit per C1 combo");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The files a results directory holds, by name.
    fn listing(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn shared_front_ends_live_only_while_their_combo_runs() {
        let spec = tiny_spec();
        let (dir, mut store) = tmp_store("fronts");
        // A directory a killed sweep left behind is cleared at start.
        let fronts = dir.join(FRONTS_DIR);
        std::fs::create_dir_all(&fronts).unwrap();
        std::fs::write(fronts.join("front0-core0.front"), b"stale").unwrap();
        // Every unit finishing while its combo has units left to run
        // sees the combo's record files; the last one never does.
        let mut seen_open = 0;
        let first = run_sweep(&spec, &mut store, 2, |e| {
            if let SweepEvent::JobFinished { .. } = e {
                if fronts.exists() && std::fs::read_dir(&fronts).unwrap().count() > 0 {
                    seen_open += 1;
                }
            }
        })
        .unwrap();
        assert_eq!(first.executed, 3 * UNITS_PER_COMBO);
        assert!(seen_open > 0, "units shared record files");
        assert!(!fronts.exists(), "no scratch directory after the sweep");

        // The shared runs are the live runs, bit for bit.
        for combo in &first.combos {
            let job = spec
                .combo_jobs()
                .into_iter()
                .find(|j| j.combo.label() == combo.label)
                .unwrap();
            let unit = &job.units[SchemePoint::COUNT - 1];
            let live = run_point(&unit.combo, &unit.point, &unit.config, None, None, None).unwrap();
            assert_eq!(store.get_unit(&unit.key), Some(&live), "{}", unit.label());
        }

        // A fully cache-served sweep leaves the directory as it was.
        let before = listing(&dir);
        let again = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(again.executed, 0);
        assert_eq!(listing(&dir), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failing_unit_leaves_no_shared_front_end_behind() {
        let mut spec = tiny_spec();
        // A warm-up budget unique to this test keys the failpoint.
        spec.budget = BudgetPreset::Custom {
            warmup_cycles: 12_000,
            measure_cycles: 72_000,
        };
        let (dir, mut store) = tmp_store("fronts-failing");
        let victim = format!("{} [cc@50%]", spec.combos()[1].label());
        *failpoint::ARMED.lock().unwrap() = Some((victim.clone(), 12_000));
        let err = run_sweep(&spec, &mut store, 2, |_| {}).unwrap_err();
        *failpoint::ARMED.lock().unwrap() = None;
        assert!(
            matches!(&err, SweepError::UnitFailed { label, .. } if *label == victim),
            "{err}"
        );
        assert!(!dir.join(FRONTS_DIR).exists(), "removed on error too");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_baseline_releases_its_combo_front_end() {
        let mut spec = tiny_spec();
        spec.combos = vec![spec.combos()[0].label()];
        spec.budget = BudgetPreset::Custom {
            warmup_cycles: 14_000,
            measure_cycles: 70_000,
        };
        spec.stop = StopPreset::Converged {
            window_cycles: Some(14_000),
            rel_epsilon: Some(0.05),
        };
        let (dir, mut store) = tmp_store("fronts-skipped");
        let fronts = dir.join(FRONTS_DIR);
        // The baseline creates the front end, then fails; its paced
        // siblings are skipped. The last skip drops the front end.
        let victim = format!("{} [l2p]", spec.combos()[0].label());
        *failpoint::NAN_IPC.lock().unwrap() = Some((victim.clone(), 14_000));
        let mut files_at_skip = Vec::new();
        let err = run_sweep(&spec, &mut store, 2, |e| {
            if let SweepEvent::JobSkipped { .. } = e {
                files_at_skip.push(match std::fs::read_dir(&fronts) {
                    Ok(entries) => entries.count(),
                    Err(_) => 0,
                });
            }
        })
        .unwrap_err();
        *failpoint::NAN_IPC.lock().unwrap() = None;
        assert!(
            matches!(&err, SweepError::UnitFailed { label, .. } if *label == victim),
            "{err}"
        );
        assert_eq!(files_at_skip.len(), UNITS_PER_COMBO - 1);
        assert!(files_at_skip[0] > 0, "the baseline created the files");
        assert_eq!(files_at_skip.last(), Some(&0), "the last skip deleted them");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_nan_ipc_fails_its_unit_naming_it() {
        let mut spec = tiny_spec();
        spec.budget = BudgetPreset::Custom {
            warmup_cycles: 13_000,
            measure_cycles: 78_000,
        };
        let (dir, mut store) = tmp_store("nan-ipc");
        let victim = format!("{} [l2s]", spec.combos()[0].label());
        *failpoint::NAN_IPC.lock().unwrap() = Some((victim.clone(), 13_000));
        let err = run_sweep(&spec, &mut store, 2, |_| {}).unwrap_err();
        *failpoint::NAN_IPC.lock().unwrap() = None;
        let text = err.to_string();
        assert!(
            text.starts_with(&format!("unit `{victim}` failed:")),
            "{text}"
        );
        assert!(
            text.contains("ipcs[0]: NaN is not a finite JSON number"),
            "{text}"
        );
        // Nothing else was lost: a re-run executes only the victim.
        let outcome = run_sweep(&spec, &mut store, 2, |_| {}).unwrap();
        assert_eq!(outcome.executed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
