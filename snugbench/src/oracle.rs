//! The correctness oracle: the committed result store.
//!
//! Every unit a cold workload executes must reproduce its committed
//! `results/store.jsonl` entry bit for bit — per-core IPCs, measured
//! cycles, stop reason and plateaus. One field is checked only where the
//! entry records it: the shifted sweep's 168 paced-sibling entries were
//! committed before paced runs recorded per-phase means, so they hold
//! no plateaus while a fresh run produces them (their keys did not
//! change, so the store kept serving them). Those units are counted,
//! not failed. The store is copied into the benchmark's work directory
//! first, so no run can touch the committed file.

use snug_experiments::SchemeRun;
use snug_harness::store::STORE_FILE;
use snug_harness::{ResultStore, UnitJob};
use std::path::{Path, PathBuf};

pub struct Oracle {
    store: ResultStore,
    /// The directory holding the private copy of the committed store.
    pub dir: PathBuf,
    /// Data lines and bytes of the committed store.
    pub lines: usize,
    pub bytes: u64,
}

impl Oracle {
    /// Copy `<root>/results/store.jsonl` into `<work>/committed/` and open
    /// the copy.
    pub fn load(root: &Path, work: &Path) -> Result<Oracle, String> {
        let src = root.join("results").join(STORE_FILE);
        let dir = work.join("committed");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let bytes = std::fs::copy(&src, dir.join(STORE_FILE))
            .map_err(|e| format!("copying the committed store {}: {e}", src.display()))?;
        let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
        Ok(Oracle {
            lines: store.file_lines(),
            store,
            dir,
            bytes,
        })
    }

    /// Check `run` against the committed entry for `job`. `Ok(true)`
    /// when everything matched but the entry records no plateaus where
    /// the fresh run has some.
    pub fn check(&self, job: &UnitJob, run: &SchemeRun) -> Result<bool, String> {
        let want = self
            .store
            .get_unit(&job.key)
            .ok_or_else(|| format!("{}: no committed entry under key {}", job.label(), job.key))?;
        let unrecorded = want.plateaus.is_empty() && !run.plateaus.is_empty();
        let mut got = run.clone();
        if unrecorded {
            got.plateaus.clear();
        }
        same_run(want, &got)
            .map(|()| unrecorded)
            .map_err(|e| format!("{}: {e} (vs committed store)", job.label()))
    }
}

/// Bit-for-bit equality of two unit results, naming the first field
/// that differs.
pub fn same_run(want: &SchemeRun, got: &SchemeRun) -> Result<(), String> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    if want.scheme != got.scheme {
        return Err(format!("scheme {} != {}", got.scheme, want.scheme));
    }
    if bits(&want.ipcs) != bits(&got.ipcs) {
        return Err(format!("ipcs {:?} != {:?}", got.ipcs, want.ipcs));
    }
    if want.measured_cycles != got.measured_cycles {
        return Err(format!(
            "measured_cycles {:?} != {:?}",
            got.measured_cycles, want.measured_cycles
        ));
    }
    if want.stop_reason != got.stop_reason {
        return Err(format!(
            "stop_reason {:?} != {:?}",
            got.stop_reason, want.stop_reason
        ));
    }
    if bits(&want.plateaus) != bits(&got.plateaus) {
        return Err(format!(
            "plateaus {:?} != {:?}",
            got.plateaus, want.plateaus
        ));
    }
    Ok(())
}

/// Simulated instructions over a unit's measured window, reconstructed
/// from its per-core IPCs exactly as the harness's `UnitSpan` does.
pub fn unit_instructions(job: &UnitJob, run: &SchemeRun) -> u64 {
    let measured = run
        .measured_cycles
        .unwrap_or(job.config.plan.measure_cycles());
    (run.ipcs.iter().sum::<f64>() * measured as f64).round() as u64
}
