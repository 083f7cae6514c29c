//! A dependency-aware parallel executor for deterministic simulation
//! jobs.
//!
//! Jobs form a DAG: [`run_graph`] takes, per job, the indices of the
//! jobs it depends on, and schedules a job the moment its last
//! dependency completes. Independent jobs run concurrently across
//! workers; a sweep's baseline-paced siblings therefore wait only for
//! *their* combo's baseline, not for the whole sweep (the pacing graph
//! `sweep::plan_exec_nodes` builds).
//!
//! Failure is contained, not fatal: a panicking job is caught
//! ([`JobOutcome::Failed`]) and its transitive dependents are marked
//! [`JobOutcome::Skipped`] — they count toward completion, so the
//! worker pool always drains instead of deadlocking on a dependency
//! that will never arrive.
//!
//! Every job is a pure function of its index, and results are written
//! into their input slot, so the output order never depends on the
//! schedule — parallel sweeps stay bit-identical to sequential ones.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Progress events streamed to the caller while a sweep runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecEvent {
    /// A worker picked up job `index`.
    Started {
        /// Index of the job in the submitted order.
        index: usize,
        /// The worker running it.
        worker: usize,
    },
    /// Job `index` completed.
    Finished {
        /// Index of the job in the submitted order.
        index: usize,
        /// The worker that ran it.
        worker: usize,
        /// Jobs completed so far, this one included (finished, failed
        /// and skipped jobs all count — the total always drains).
        done: usize,
        /// Total number of jobs.
        total: usize,
    },
    /// Job `index` panicked; the payload is in the returned
    /// [`JobOutcome::Failed`] and in `error` here.
    Failed {
        /// Index of the job in the submitted order.
        index: usize,
        /// The worker that ran it.
        worker: usize,
        /// The panic payload, rendered.
        error: String,
        /// Jobs completed so far (see [`ExecEvent::Finished::done`]).
        done: usize,
        /// Total number of jobs.
        total: usize,
    },
    /// Job `index` was skipped because a job it (transitively) depends
    /// on failed.
    Skipped {
        /// Index of the skipped job.
        index: usize,
        /// The failed ancestor that doomed it.
        failed_dep: usize,
        /// Jobs completed so far (see [`ExecEvent::Finished::done`]).
        done: usize,
        /// Total number of jobs.
        total: usize,
    },
}

/// The terminal state of one submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome<T> {
    /// The job ran to completion.
    Done(T),
    /// The job panicked; the payload, rendered.
    Failed(String),
    /// The job never ran: a dependency failed.
    Skipped {
        /// The failed ancestor that doomed it.
        failed_dep: usize,
    },
}

impl<T> JobOutcome<T> {
    /// The result, if the job completed.
    pub fn done(self) -> Option<T> {
        match self {
            JobOutcome::Done(t) => Some(t),
            _ => None,
        }
    }
}

/// Resolve `threads == 0` to the machine's parallelism.
pub fn effective_threads(threads: usize, jobs: usize) -> usize {
    let t = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    } else {
        threads
    };
    t.min(jobs).max(1)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Scheduler state shared by the workers, under one mutex: jobs are
/// seconds-long simulations, so the lock is never contended on the
/// scale that matters.
struct Sched {
    ready: VecDeque<usize>,
    /// Unmet-dependency count per job.
    waiting: Vec<usize>,
    running: usize,
    completed: usize,
}

/// Run `n_jobs` jobs across `threads` workers, honouring `deps`:
/// `deps[i]` lists the jobs that must complete before job `i` starts.
///
/// `job(i, w)` computes the result of job `i` on worker `w` (the worker
/// index is stable for the call's duration — per-worker resources like
/// shard files key off it); `on_event` observes progress (called under
/// a lock — keep it light). Outcomes return in job order. Panics are
/// caught per job: the job reports [`JobOutcome::Failed`] and its
/// transitive dependents report [`JobOutcome::Skipped`] without running.
///
/// Panics if `deps` references an out-of-range job or contains a cycle
/// (both are caller bugs, detected before any job runs).
pub fn run_graph<T, F, E>(
    n_jobs: usize,
    deps: &[Vec<usize>],
    threads: usize,
    job: F,
    on_event: E,
) -> Vec<JobOutcome<T>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
    E: FnMut(ExecEvent) + Send,
{
    assert_eq!(deps.len(), n_jobs, "one dependency list per job");
    if n_jobs == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads, n_jobs);

    // Invert the dependency lists and reject cycles up front (Kahn's
    // algorithm): with a DAG guaranteed, a worker finding the ready
    // queue empty while nothing runs is unreachable.
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_jobs];
    let mut waiting = vec![0usize; n_jobs];
    for (i, ds) in deps.iter().enumerate() {
        for &d in ds {
            assert!(d < n_jobs, "job {i} depends on out-of-range job {d}");
            assert_ne!(d, i, "job {i} depends on itself");
            dependents[d].push(i);
            waiting[i] += 1;
        }
    }
    {
        let mut counts = waiting.clone();
        let mut frontier: Vec<usize> = (0..n_jobs).filter(|&i| counts[i] == 0).collect();
        let mut seen = 0;
        while let Some(i) = frontier.pop() {
            seen += 1;
            for &d in &dependents[i] {
                counts[d] -= 1;
                if counts[d] == 0 {
                    frontier.push(d);
                }
            }
        }
        assert_eq!(seen, n_jobs, "dependency graph contains a cycle");
    }

    let ready: VecDeque<usize> = (0..n_jobs).filter(|&i| waiting[i] == 0).collect();
    let sched = Mutex::new(Sched {
        ready,
        waiting,
        running: 0,
        completed: 0,
    });
    let wake = Condvar::new();
    let outcomes: Vec<Mutex<Option<JobOutcome<T>>>> =
        (0..n_jobs).map(|_| Mutex::new(None)).collect();
    // Lock poisoning: job panics are caught below via catch_unwind, so
    // a poisoned lock can only mean the progress callback panicked on
    // another worker. Recover the guard and keep draining the pool —
    // cascading one callback panic across every worker would abandon
    // results that are already computed.
    let progress = Mutex::new(on_event);
    let emit = |event: ExecEvent| {
        let mut f = progress.lock().unwrap_or_else(PoisonError::into_inner);
        (*f)(event)
    };

    std::thread::scope(|scope| {
        for w in 0..threads {
            let sched = &sched;
            let wake = &wake;
            let outcomes = &outcomes;
            let dependents = &dependents;
            let job = &job;
            let emit = &emit;
            scope.spawn(move || loop {
                // Claim the next runnable job, or exit once everything
                // has drained.
                let idx = {
                    let mut s = sched.lock().unwrap_or_else(PoisonError::into_inner);
                    loop {
                        if s.completed == n_jobs {
                            wake.notify_all();
                            return;
                        }
                        if let Some(idx) = s.ready.pop_front() {
                            s.running += 1;
                            break idx;
                        }
                        s = wake.wait(s).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                emit(ExecEvent::Started {
                    index: idx,
                    worker: w,
                });
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(idx, w)));
                // Record the outcome and unlock (or doom) the
                // dependents. Events are emitted while still holding the
                // scheduler lock so `done` counts arrive monotonically.
                let mut s = sched.lock().unwrap_or_else(PoisonError::into_inner);
                s.running -= 1;
                s.completed += 1;
                match result {
                    Ok(out) => {
                        *outcomes[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(JobOutcome::Done(out));
                        emit(ExecEvent::Finished {
                            index: idx,
                            worker: w,
                            done: s.completed,
                            total: n_jobs,
                        });
                        for &dep in &dependents[idx] {
                            // A dependent can already be terminal —
                            // skipped through another, failed ancestor.
                            if outcomes[dep]
                                .lock()
                                .unwrap_or_else(PoisonError::into_inner)
                                .is_some()
                            {
                                continue;
                            }
                            s.waiting[dep] -= 1;
                            if s.waiting[dep] == 0 {
                                s.ready.push_back(dep);
                            }
                        }
                    }
                    Err(payload) => {
                        let error = panic_message(payload);
                        *outcomes[idx].lock().unwrap_or_else(PoisonError::into_inner) =
                            Some(JobOutcome::Failed(error.clone()));
                        emit(ExecEvent::Failed {
                            index: idx,
                            worker: w,
                            error,
                            done: s.completed,
                            total: n_jobs,
                        });
                        // Doom every transitive dependent: they count as
                        // completed so the pool drains instead of
                        // waiting on a result that will never arrive.
                        let mut stack: Vec<usize> = dependents[idx].clone();
                        while let Some(d) = stack.pop() {
                            let mut slot =
                                outcomes[d].lock().unwrap_or_else(PoisonError::into_inner);
                            if slot.is_some() {
                                continue;
                            }
                            *slot = Some(JobOutcome::Skipped { failed_dep: idx });
                            drop(slot);
                            s.completed += 1;
                            emit(ExecEvent::Skipped {
                                index: d,
                                failed_dep: idx,
                                done: s.completed,
                                total: n_jobs,
                            });
                            stack.extend(dependents[d].iter().copied());
                        }
                    }
                }
                wake.notify_all();
            });
        }
    });

    #[expect(
        clippy::expect_used,
        reason = "pool drains every job to a terminal outcome before scope exit; an empty slot is a scheduler bug worth crashing on"
    )]
    let terminal = |slot: Mutex<Option<JobOutcome<T>>>| {
        slot.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("every submitted job reached a terminal state")
    };
    outcomes.into_iter().map(terminal).collect()
}

/// Run `n_jobs` independent jobs across `threads` workers
/// ([`run_graph`] with no dependencies).
///
/// `job(i)` computes the result of job `i`; `on_event` observes
/// progress. Results return in job order. A panicking job re-panics
/// here, preserving the historical fail-fast contract.
pub fn run<T, F, E>(n_jobs: usize, threads: usize, job: F, on_event: E) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    E: FnMut(ExecEvent) + Send,
{
    let deps = vec![Vec::new(); n_jobs];
    run_graph(n_jobs, &deps, threads, |i, _w| job(i), on_event)
        .into_iter()
        .map(|outcome| match outcome {
            JobOutcome::Done(t) => t,
            #[expect(
                clippy::panic,
                reason = "run() documents fail-fast: a panicking job re-panics on the caller thread"
            )]
            JobOutcome::Failed(msg) => panic!("executor job panicked: {msg}"),
            #[expect(
                clippy::unreachable,
                reason = "deps are empty, so no job can be skipped"
            )]
            JobOutcome::Skipped { .. } => unreachable!("independent jobs are never skipped"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_job_order() {
        let out = run(64, 8, |i| i * i, |_| {});
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        run(
            100,
            7,
            |i| counters[i].fetch_add(1, Ordering::SeqCst),
            |_| {},
        );
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn long_jobs_do_not_strand_queued_work() {
        let mut finished = Vec::new();
        let out = run(
            10,
            2,
            |i| {
                if i % 2 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i
            },
            |e| {
                if let ExecEvent::Finished { index, .. } = e {
                    finished.push(index);
                }
            },
        );
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let mut sorted = finished.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..10).collect::<Vec<_>>(),
            "each job finished once"
        );
    }

    #[test]
    fn progress_counts_monotonically() {
        let mut seen = 0;
        run(
            20,
            4,
            |i| i,
            |e| {
                if let ExecEvent::Finished { done, total, .. } = e {
                    assert!(done > seen && done <= total);
                    seen = done;
                }
            },
        );
        assert_eq!(seen, 20);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run(0, 4, |i| i, |_| {});
        assert!(out.is_empty());
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
    }

    #[test]
    fn dependencies_gate_execution_order() {
        // 0 and 1 are free; 2 waits on both; 3 waits on 2. Record the
        // order jobs *start* in — a dependent must start strictly after
        // its dependencies finish, on any worker count.
        for threads in [1, 2, 4] {
            let deps = vec![vec![], vec![], vec![0, 1], vec![2]];
            let started = Mutex::new(Vec::new());
            let finished = Mutex::new(Vec::new());
            let outcomes = run_graph(
                4,
                &deps,
                threads,
                |i, _w| {
                    started.lock().unwrap().push(i);
                    i * 10
                },
                |e| {
                    if let ExecEvent::Finished { index, .. } = e {
                        finished.lock().unwrap().push(index);
                    }
                },
            );
            assert_eq!(
                outcomes,
                vec![
                    JobOutcome::Done(0),
                    JobOutcome::Done(10),
                    JobOutcome::Done(20),
                    JobOutcome::Done(30)
                ]
            );
            let finished = finished.into_inner().unwrap();
            let started = started.into_inner().unwrap();
            let fin_pos = |i: usize| finished.iter().position(|&x| x == i).unwrap();
            let start_pos = |i: usize| started.iter().position(|&x| x == i).unwrap();
            assert!(fin_pos(0) < start_pos(2) || fin_pos(1) < start_pos(2) || threads == 1);
            assert!(fin_pos(2) < fin_pos(3), "3 ran after its dependency");
        }
    }

    #[test]
    fn failed_jobs_skip_their_transitive_dependents_without_deadlock() {
        // 1 panics; 2 depends on 1, 3 depends on 2 (transitively
        // doomed), 0 and 4 are free and must still run. The pool drains
        // and every job reaches a terminal state.
        let deps = vec![vec![], vec![], vec![1], vec![2], vec![]];
        let mut events = Vec::new();
        let outcomes = run_graph(
            5,
            &deps,
            4,
            |i, _w| {
                if i == 1 {
                    panic!("baseline exploded");
                }
                i
            },
            |e| events.push(e),
        );
        assert_eq!(outcomes[0], JobOutcome::Done(0));
        assert_eq!(outcomes[4], JobOutcome::Done(4));
        assert_eq!(outcomes[1], JobOutcome::Failed("baseline exploded".into()));
        assert_eq!(outcomes[2], JobOutcome::Skipped { failed_dep: 1 });
        assert_eq!(outcomes[3], JobOutcome::Skipped { failed_dep: 1 });
        let max_done = events
            .iter()
            .map(|e| match e {
                ExecEvent::Finished { done, .. }
                | ExecEvent::Failed { done, .. }
                | ExecEvent::Skipped { done, .. } => *done,
                ExecEvent::Started { .. } => 0,
            })
            .max();
        assert_eq!(max_done, Some(5), "the count drains to the total");
        assert!(events.iter().any(|e| matches!(
            e,
            ExecEvent::Skipped {
                index: 3,
                failed_dep: 1,
                ..
            }
        )));
    }

    #[test]
    fn diamond_dependents_with_one_failed_parent_are_skipped_once() {
        // 2 depends on both 0 (ok) and 1 (fails): it must be skipped
        // exactly once and never run, regardless of completion order.
        for _ in 0..20 {
            let ran = AtomicUsize::new(0);
            let deps = vec![vec![], vec![], vec![0, 1]];
            let outcomes = run_graph(
                3,
                &deps,
                2,
                |i, _w| {
                    if i == 1 {
                        panic!("no");
                    }
                    if i == 2 {
                        ran.fetch_add(1, Ordering::SeqCst);
                    }
                    i
                },
                |_| {},
            );
            assert_eq!(outcomes[2], JobOutcome::Skipped { failed_dep: 1 });
            assert_eq!(ran.load(Ordering::SeqCst), 0, "skipped job never ran");
        }
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn dependency_cycles_are_rejected_up_front() {
        let deps = vec![vec![1], vec![0]];
        run_graph(2, &deps, 2, |i, _w| i, |_| {});
    }

    #[test]
    fn worker_index_is_in_range() {
        let threads = 3;
        let deps = vec![Vec::new(); 12];
        let outcomes = run_graph(12, &deps, threads, |_i, w| w, |_| {});
        assert!(outcomes
            .into_iter()
            .all(|o| matches!(o, JobOutcome::Done(w) if w < threads)));
    }
}
