//! Sweep wall-time scaling: what `--jobs N` buys on the `--mid` sweep.
//!
//! Runs the full 21-combo mid-budget sweep into a throwaway store twice
//! — once with one worker, once with a worker per core (at least four,
//! so the committed note is comparable across machines) — and reports
//! the wall times and the parallel speedup. The numbers live in the
//! committed `BENCH_sweep.json` at the repository root, next to
//! `BENCH_kernel.json`:
//!
//! ```text
//! cargo bench -p snug-bench --bench sweep_scaling            # measure + print
//! cargo bench -p snug-bench --bench sweep_scaling -- --emit  # regenerate BENCH_sweep.json
//! cargo bench -p snug-bench --bench sweep_scaling -- --check # CI gate
//! ```
//!
//! Wall time and speedup are machine-dependent — a single-core machine
//! measures a speedup near 1.0, and the committed file records the core
//! count it was emitted on precisely so that is not misread as a
//! regression. `--check` therefore gates only on what is deterministic:
//! the file parses, its fingerprint still matches the measurement
//! definition, and the freshly measured sweeps execute exactly the
//! committed number of unit jobs with both worker counts. The fresh
//! wall times and speedup are printed as the CI wall-time note. A
//! `--test` run (what `cargo test --benches` passes) shrinks the sweep
//! to one class at the quick budget and never touches the file.

use snug_harness::hash::content_key;
use snug_harness::json::{parse, Value};
use snug_harness::{run_sweep, BudgetPreset, ResultStore, SweepSpec};
use snug_workloads::ComboClass;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of `BENCH_sweep.json`.
const SCHEMA: &str = "snug-sweep-bench/v1";
/// The parallel worker count the note compares against one worker.
fn parallel_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(4)
}

fn spec(budget: BudgetPreset, classes: Vec<ComboClass>) -> SweepSpec {
    let mut spec = SweepSpec::full(budget);
    spec.classes = classes;
    spec
}

/// One timed sweep into a fresh throwaway store.
fn timed_sweep(spec: &SweepSpec, jobs: usize) -> (f64, usize) {
    let dir =
        std::env::temp_dir().join(format!("snug-sweep-scaling-{}-j{jobs}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ResultStore::open(&dir).expect("open bench store");
    let started = Instant::now();
    let outcome = run_sweep(spec, &mut store, jobs, |_| {}).expect("bench sweep runs");
    let wall = started.elapsed().as_secs_f64();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (wall, outcome.executed)
}

/// Everything the committed numbers are defined over: schema, the exact
/// sweep configuration, and the two worker counts being compared.
fn fingerprint(spec: &SweepSpec) -> String {
    content_key(&format!(
        "{SCHEMA}|{spec:?}|{:?}|jobs=1-vs-N",
        spec.compare_config()
    ))
}

struct Measurement {
    wall_1: f64,
    wall_n: f64,
    executed: usize,
    jobs_n: usize,
}

fn measure(spec: &SweepSpec) -> Measurement {
    let jobs_n = parallel_jobs();
    let (wall_1, executed_1) = timed_sweep(spec, 1);
    let (wall_n, executed_n) = timed_sweep(spec, jobs_n);
    assert_eq!(
        executed_1, executed_n,
        "both worker counts execute the same plan"
    );
    let m = Measurement {
        wall_1,
        wall_n,
        executed: executed_1,
        jobs_n,
    };
    println!(
        "bench sweep_scaling/{}: {} units | --jobs 1: {:.2} s | --jobs {}: {:.2} s | \
         speedup {:.2}x on {} core(s)",
        spec.budget.label(),
        m.executed,
        m.wall_1,
        m.jobs_n,
        m.wall_n,
        m.wall_1 / m.wall_n,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    m
}

fn render(spec: &SweepSpec, m: &Measurement) -> String {
    let doc = Value::obj(vec![
        ("schema", Value::str(SCHEMA)),
        ("budget", Value::str(spec.budget.label())),
        ("fingerprint", Value::str(fingerprint(spec))),
        (
            "nproc_at_emit",
            Value::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("executed_units", Value::num(m.executed as f64)),
        ("jobs_parallel", Value::num(m.jobs_n as f64)),
        ("wall_secs_jobs_1", Value::num(m.wall_1)),
        ("wall_secs_jobs_n", Value::num(m.wall_n)),
        ("speedup", Value::num(m.wall_1 / m.wall_n)),
    ]);
    format!("{}\n", doc.render().expect("bench figures are finite"))
}

fn check(path: &Path, spec: &SweepSpec) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        format!(
            "{} is missing or unreadable ({e}) — run `cargo bench -p snug-bench --bench \
             sweep_scaling -- --emit` and commit the result",
            path.display()
        )
    })?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let text_field = |name: &str| -> Result<String, String> {
        doc.get(name)
            .and_then(|v| v.as_str().map(str::to_string))
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let num_field = |name: &str| -> Result<f64, String> {
        doc.get(name)
            .and_then(|v| v.as_num())
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    let schema = text_field("schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "{}: schema `{schema}` (expected `{SCHEMA}`)",
            path.display()
        ));
    }
    let committed_fp = text_field("fingerprint")?;
    if committed_fp != fingerprint(spec) {
        return Err(format!(
            "{} is stale: fingerprint {committed_fp} no longer matches the measurement \
             definition — regenerate with `--emit` and commit the result",
            path.display()
        ));
    }
    let committed_units = num_field("executed_units")? as usize;
    let m = measure(spec);
    if m.executed != committed_units {
        return Err(format!(
            "sweep plan drifted: committed {} executed units, measured {} — a behaviour \
             change; re-baseline with `--emit` if intended",
            committed_units, m.executed
        ));
    }
    println!(
        "BENCH_sweep note holds: {} units; committed {:.2} s → {:.2} s ({:.2}x on {} core(s) \
         at emit); measured above on this machine",
        committed_units,
        num_field("wall_secs_jobs_1")?,
        num_field("wall_secs_jobs_n")?,
        num_field("speedup")?,
        num_field("nproc_at_emit")? as usize,
    );
    Ok(())
}

fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sweep.json")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `cargo test --benches` invokes bench binaries with `--test`: a
    // one-class quick sweep, and never touch or gate on the file.
    if args.iter().any(|a| a == "--test") {
        measure(&spec(BudgetPreset::Quick, vec![ComboClass::C5]));
        return;
    }
    let spec = spec(BudgetPreset::Mid, Vec::new());
    let path = default_path();
    let outcome = if args.iter().any(|a| a == "--emit") {
        let m = measure(&spec);
        std::fs::write(&path, render(&spec, &m))
            .map_err(|e| format!("writing {}: {e}", path.display()))
            .map(|()| {
                println!(
                    "wrote {} ({} units, budget {})",
                    path.display(),
                    m.executed,
                    spec.budget.label()
                );
            })
    } else if args.iter().any(|a| a == "--check") {
        check(&path, &spec)
    } else {
        measure(&spec);
        Ok(())
    };
    if let Err(msg) = outcome {
        eprintln!("sweep_scaling: {msg}");
        std::process::exit(1);
    }
}
