//! The cold workloads' end-to-end path: `snug sweep` as a library call.
//!
//! One sweep opens an empty throwaway store and runs the spec through
//! `snug_harness::run_sweep` on `jobs` closed-loop workers, exactly what
//! `snug sweep --jobs N` does after a simulator change re-keys the
//! store. The benchmark's own timers sit around the call and on its
//! progress events; every executed unit is then checked against the
//! committed store.

use crate::oracle::Oracle;
use snug_experiments::SchemeRun;
use snug_harness::{
    render_markdown, run_sweep, stop_summary_table, ResultStore, SweepEvent, SweepSpec, UnitJob,
    UnitSpan,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What one cold sweep measured.
pub struct SweepRun {
    /// Host seconds from `ResultStore::open` to `run_sweep` returning.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// `ResultStore::open` on the empty directory.
    pub open_s: f64,
    /// `SweepSpec::combo_jobs` (expansion + content keys), timed
    /// separately before the sweep.
    pub plan_s: f64,
    /// One store lookup per unit key, timed separately before the sweep.
    pub lookup_s: f64,
    /// Rendering the swept results as the sweep report.
    pub render_s: f64,
    /// Last unit finished → `run_sweep` returned: the deterministic
    /// merge into the main store plus result assembly.
    pub merge_s: f64,
    /// Units in the spec and units the store already held.
    pub total: usize,
    pub hits: usize,
    /// Executed pieces' harness telemetry, as persisted in the store.
    pub spans: Vec<UnitSpan>,
    /// Every unit of the spec with the result the store now holds.
    pub runs: Vec<(UnitJob, Option<SchemeRun>)>,
    /// Failed units, one entry each, naming the unit and the cause.
    pub failures: Vec<String>,
    /// Units whose committed entry records no plateaus (see
    /// [`crate::oracle`]); every other field matched.
    pub unrecorded_plateaus: usize,
    /// Failure events the sweep itself reported (panicked or skipped
    /// pieces, a failed sweep); their units also appear in `failures`.
    pub errors: Vec<String>,
}

impl SweepRun {
    /// Simulated instructions over the executed units' measured windows.
    pub fn instructions(&self) -> u64 {
        self.spans.iter().map(|s| s.instructions).sum()
    }
}

/// Set-up as a user pays it before the first unit executes:
/// `ResultStore::open` on the (empty) store plus `combo_jobs` expansion
/// and key hashing.
pub fn setup_once(spec: &SweepSpec, dir: &Path) -> Result<f64, String> {
    remove_dir(dir)?;
    let t = Instant::now();
    let store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let jobs = spec.combo_jobs();
    let secs = t.elapsed().as_secs_f64();
    black_box((&store, &jobs));
    Ok(secs)
}

/// Run `spec` into an empty store under `dir` on `jobs` workers and
/// check every unit against the oracle.
pub fn sweep(
    spec: &SweepSpec,
    dir: &Path,
    jobs: usize,
    oracle: &Oracle,
) -> Result<SweepRun, String> {
    remove_dir(dir)?;
    let cpu0 = crate::host::cpu_seconds()?;
    let t0 = Instant::now();
    let mut store = ResultStore::open(dir).map_err(|e| e.to_string())?;
    let open_s = t0.elapsed().as_secs_f64();

    let mut errors: Vec<String> = Vec::new();
    let mut planned = (0usize, 0usize);
    let mut last_finished = t0;
    let sweep_start = Instant::now();
    let outcome = run_sweep(spec, &mut store, jobs, |event| match event {
        SweepEvent::Planned { total, hits, .. } => planned = (total, hits),
        SweepEvent::JobFinished { .. } => last_finished = Instant::now(),
        SweepEvent::JobFailed { label, error } => errors.push(format!("{label}: {error}")),
        SweepEvent::JobSkipped { label, failed_dep } => {
            errors.push(format!("{label}: skipped, baseline {failed_dep} failed"))
        }
        SweepEvent::JobStarted { .. } => {}
    });
    let done = Instant::now();
    let wall_s = open_s + (done - sweep_start).as_secs_f64();
    let cpu_s = crate::host::cpu_seconds()? - cpu0;
    let merge_s = (done - last_finished.max(sweep_start)).as_secs_f64();
    let results = match outcome {
        Ok(outcome) => outcome.results(),
        Err(e) => {
            errors.push(format!("sweep failed: {e}"));
            Vec::new()
        }
    };

    // Plan and lookup costs, measured apart from the sweep (which pays
    // them internally) against a second empty store.
    let t = Instant::now();
    let units = spec.unit_jobs();
    let plan_s = t.elapsed().as_secs_f64();
    let empty = ResultStore::open(dir.join("lookup-probe")).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let misses = units
        .iter()
        .filter(|u| empty.get_unit(&u.key).is_none())
        .count();
    let lookup_s = t.elapsed().as_secs_f64();
    black_box(misses);

    // The spans the harness persisted, read back from the throwaway
    // store's telemetry sidecar.
    let spans: Vec<UnitSpan> = ResultStore::open(dir)
        .map_err(|e| e.to_string())?
        .spans()
        .into_iter()
        .cloned()
        .collect();
    let runs: Vec<(UnitJob, Option<SchemeRun>)> = units
        .into_iter()
        .map(|u| {
            let run = store.get_unit(&u.key).cloned();
            (u, run)
        })
        .collect();
    let mut failures: Vec<String> = Vec::new();
    let mut unrecorded_plateaus = 0;
    for (job, run) in &runs {
        match run {
            Some(run) => match oracle.check(job, run) {
                Ok(unrecorded) => unrecorded_plateaus += usize::from(unrecorded),
                Err(e) => failures.push(e),
            },
            None => failures.push(format!("{}: no result in the store", job.label())),
        }
    }
    let t = Instant::now();
    black_box((
        render_markdown(spec, &results),
        stop_summary_table(spec, &store),
    ));
    let render_s = t.elapsed().as_secs_f64();
    remove_dir(dir)?;
    Ok(SweepRun {
        wall_s,
        cpu_s,
        open_s,
        plan_s,
        lookup_s,
        render_s,
        merge_s,
        total: planned.0,
        hits: planned.1,
        spans,
        runs,
        failures,
        unrecorded_plateaus,
        errors,
    })
}

pub fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", dir.display())),
    }
}
