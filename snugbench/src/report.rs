//! The `warm-report` workload: one fully cache-served pass over the
//! committed store, as `snug report --experiments-md --check` and
//! `--experiments-eval-md --check` pay it.
//!
//! A pass opens the store, expands and keys the `--mid`, shifted and
//! eval-converged specs, looks every unit up and assembles the
//! per-combo results, then renders both committed documents and
//! compares them byte for byte. The kernel does no work; the harness's
//! JSON codec, content keys, store and renderers do all of it.

use crate::oracle::unit_instructions;
use snug_experiments::{assemble_combo, ComboResult, SchemePoint, SchemeRun};
use snug_harness::experiments_md::EXPERIMENTS_FILE;
use snug_harness::{
    render_experiments_eval_md, render_experiments_md, stop_summary_table, ComboJob, ResultStore,
    SweepSpec, EXPERIMENTS_EVAL_FILE,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// What one pass serves and what it must render.
pub struct Report {
    /// `[--mid, shifted, eval-converged]`.
    pub specs: [SweepSpec; 3],
    /// The store directory each pass opens.
    pub store_dir: PathBuf,
    pub committed_md: String,
    pub committed_eval_md: String,
}

/// Timings and checks of one pass.
pub struct Pass {
    pub open_s: f64,
    pub plan_s: f64,
    pub lookup_s: f64,
    pub render_s: f64,
    /// CPU seconds the pass ran for.
    pub cpu_s: f64,
    /// Units looked up, and how many the store served.
    pub lookups: usize,
    pub hits: usize,
    /// Simulated instructions over the served units' measured windows.
    pub instructions: u64,
    /// Cache misses and byte differences, each naming what failed.
    pub failures: Vec<String>,
}

impl Pass {
    /// Set-up: store open plus expansion and key hashing, everything
    /// before the first lookup is served.
    pub fn setup_s(&self) -> f64 {
        self.open_s + self.plan_s
    }

    pub fn wall_s(&self) -> f64 {
        self.open_s + self.plan_s + self.lookup_s + self.render_s
    }
}

impl Report {
    pub fn load(root: &Path, store_dir: PathBuf, specs: [SweepSpec; 3]) -> Result<Report, String> {
        let read = |name: &str| {
            std::fs::read_to_string(root.join(name)).map_err(|e| format!("reading {name}: {e}"))
        };
        Ok(Report {
            specs,
            store_dir,
            committed_md: read(EXPERIMENTS_FILE)?,
            committed_eval_md: read(EXPERIMENTS_EVAL_FILE)?,
        })
    }

    pub fn pass(&self) -> Result<Pass, String> {
        let cpu0 = crate::host::thread_cpu_seconds()?;
        let t0 = Instant::now();
        let store = ResultStore::open(&self.store_dir).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let jobs: Vec<Vec<ComboJob>> = self.specs.iter().map(SweepSpec::combo_jobs).collect();
        let t2 = Instant::now();
        let mut failures = Vec::new();
        let mut lookups = 0;
        let mut served: Vec<(&snug_harness::UnitJob, &SchemeRun)> = Vec::new();
        let results: Vec<Vec<ComboResult>> = jobs
            .iter()
            .map(|combo_jobs| {
                combo_jobs
                    .iter()
                    .filter_map(|job| {
                        let mut runs: Vec<(SchemePoint, SchemeRun)> = Vec::new();
                        for unit in &job.units {
                            lookups += 1;
                            match store.get_unit(&unit.key) {
                                Some(run) => {
                                    served.push((unit, run));
                                    runs.push((unit.point, run.clone()));
                                }
                                None => failures.push(format!("{}: cache miss", unit.label())),
                            }
                        }
                        (runs.len() == job.units.len()).then(|| assemble_combo(&job.combo, &runs))
                    })
                    .collect()
            })
            .collect();
        let t3 = Instant::now();
        let md = render_experiments_md(&self.specs[0], &results[0]);
        let stops = stop_summary_table(&self.specs[2], &store);
        let eval_md = render_experiments_eval_md(&self.specs[2], &results[2], stops.as_ref());
        for (name, rendered, committed) in [
            (EXPERIMENTS_FILE, &md, &self.committed_md),
            (EXPERIMENTS_EVAL_FILE, &eval_md, &self.committed_eval_md),
        ] {
            if rendered != committed {
                let line = rendered
                    .lines()
                    .zip(committed.lines())
                    .position(|(a, b)| a != b)
                    .unwrap_or(rendered.lines().count().min(committed.lines().count()))
                    + 1;
                failures.push(format!(
                    "{name}: rendered bytes differ from the committed file at line {line}"
                ));
            }
        }
        let t4 = Instant::now();
        let cpu_s = crate::host::thread_cpu_seconds()? - cpu0;
        black_box(&results);
        let hits = served.len();
        let instructions = served
            .iter()
            .map(|(job, run)| unit_instructions(job, run))
            .sum();
        Ok(Pass {
            open_s: (t1 - t0).as_secs_f64(),
            plan_s: (t2 - t1).as_secs_f64(),
            lookup_s: (t3 - t2).as_secs_f64(),
            render_s: (t4 - t3).as_secs_f64(),
            cpu_s,
            lookups,
            hits,
            instructions,
            failures,
        })
    }
}
