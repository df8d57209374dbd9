//! Deterministic parallel execution of experiment cells.
//!
//! An experiment *cell* is one self-contained simulation: a closure
//! that builds a machine, runs a workload and returns its result.
//! Because every cell derives its seed up front (via
//! [`gemini_sim_core::derive_seed`] through [`Scale::seed_for`]) and
//! shares no mutable state with other cells, cells can execute in any
//! order on any number of threads — the executor reassembles results
//! in submission order, so rendered tables, JSON exports and traces
//! are byte-identical whether a grid ran on one thread or sixteen.
//!
//! [`Scale::seed_for`]: crate::scale::Scale::seed_for
//!
//! The pool is dependency-free: [`std::thread::scope`] workers pull
//! `(index, cell)` pairs from a shared queue and write each result
//! into its submission-indexed slot. Progress flows through the
//! [`Recorder`] as deterministic counters (`exec.cells_submitted`,
//! `exec.cells_finished`) — never wall-clock time, which would differ
//! between runs and break byte-identity of exported registries.

use gemini_obs::{Phase, Profiler, Recorder};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Resolves a jobs setting: `0` means "use the machine's available
/// parallelism", anything else is taken literally.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs > 0 {
        jobs
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Runs `cells` across `jobs` worker threads (0 = auto) and returns
/// their results in submission order.
///
/// `jobs <= 1` runs the cells inline on the calling thread — the
/// sequential reference path the parallel one is checked against.
pub fn run_cells<T, F>(jobs: usize, cells: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_cells_traced(jobs, &Recorder::off(), cells)
}

/// Like [`run_cells`], but reports cell-level progress through `rec`:
/// `exec.cells_submitted` counts cells enqueued, `exec.cells_finished`
/// counts completions. Both are deterministic counts, so a traced
/// parallel run exports the same registry as a sequential one.
pub fn run_cells_traced<T, F>(jobs: usize, rec: &Recorder, cells: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_cells_hinted(jobs, rec, cells.into_iter().map(|c| (0, c)).collect())
}

/// Like [`run_cells_traced`], but each cell carries a deterministic
/// *cost hint* and workers dispatch the most expensive pending cell
/// first — LPT (longest-processing-time-first) list scheduling, which
/// keeps one slow cell from landing last on an otherwise idle pool and
/// stretching the grid's critical path.
///
/// Hints only reorder *dispatch*; results are still reassembled in
/// submission order and the sequential path ignores hints entirely, so
/// tables, JSON exports and traces stay byte-identical at any `jobs`
/// for any hint assignment. Ties dispatch in submission order.
pub fn run_cells_hinted<T, F>(jobs: usize, rec: &Recorder, cells: Vec<(u64, F)>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = cells.len();
    rec.counter_add("exec.cells_submitted", n as u64);
    let jobs = effective_jobs(jobs).min(n.max(1));
    if jobs <= 1 {
        return cells
            .into_iter()
            .map(|(_, cell)| {
                let result = cell();
                rec.counter_add("exec.cells_finished", 1);
                result
            })
            .collect();
    }
    let mut queued: Vec<(u64, (usize, F))> = cells
        .into_iter()
        .enumerate()
        .map(|(idx, (hint, cell))| (hint, (idx, cell)))
        .collect();
    // LPT dispatch order: largest hint first, submission order on ties
    // (stable sort keeps equal-hint cells FIFO).
    queued.sort_by_key(|cell| std::cmp::Reverse(cell.0));
    let queue: Mutex<VecDeque<(usize, F)>> =
        Mutex::new(queued.into_iter().map(|(_, cell)| cell).collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                // Pop under the lock, run outside it: cells are the
                // expensive part and must not serialize.
                let next = queue.lock().unwrap().pop_front();
                let Some((idx, cell)) = next else {
                    break;
                };
                let result = cell();
                *slots[idx].lock().unwrap() = Some(result);
                rec.counter_add("exec.cells_finished", 1);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock cannot be poisoned after join")
                .expect("every queued cell stores its result")
        })
        .collect()
}

/// Like [`run_cells_hinted`], but with per-worker span profiling: each
/// worker records into its own [fork](Profiler::fork) of `prof`
/// (tagged with the worker index, so captured span events land on
/// per-worker trace tracks), every cell closure receives its worker's
/// fork to thread into the machine it builds, and executor bookkeeping
/// (queue pops, result stores) is attributed to [`Phase::Executor`].
/// After the barrier the forks merge back into `prof` in worker-index
/// order, so accumulated totals are reassembled deterministically.
///
/// The sequential path (`jobs <= 1`) runs every cell on one fork
/// (worker 0), which is what makes jobs=1 traces reproducible under a
/// deterministic clock.
pub fn run_cells_profiled<T, F>(
    jobs: usize,
    rec: &Recorder,
    prof: &Profiler,
    cells: Vec<(u64, F)>,
) -> Vec<T>
where
    T: Send,
    F: FnOnce(&Profiler) -> T + Send,
{
    let n = cells.len();
    rec.counter_add("exec.cells_submitted", n as u64);
    let jobs = effective_jobs(jobs).min(n.max(1));
    let forks: Vec<Profiler> = (0..jobs).map(|w| prof.fork(w as u32)).collect();
    if jobs <= 1 {
        let out = cells
            .into_iter()
            .map(|(_, cell)| {
                let result = cell(&forks[0]);
                rec.counter_add("exec.cells_finished", 1);
                result
            })
            .collect();
        prof.merge_from(&forks[0]);
        return out;
    }
    let mut queued: Vec<(u64, (usize, F))> = cells
        .into_iter()
        .enumerate()
        .map(|(idx, (hint, cell))| (hint, (idx, cell)))
        .collect();
    queued.sort_by_key(|cell| std::cmp::Reverse(cell.0));
    let queue: Mutex<VecDeque<(usize, F)>> =
        Mutex::new(queued.into_iter().map(|(_, cell)| cell).collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for wprof in &forks {
            scope.spawn(|| loop {
                let next = {
                    let _exec = wprof.span(Phase::Executor);
                    queue.lock().unwrap().pop_front()
                };
                let Some((idx, cell)) = next else {
                    break;
                };
                let result = cell(wprof);
                let _exec = wprof.span(Phase::Executor);
                *slots[idx].lock().unwrap() = Some(result);
                rec.counter_add("exec.cells_finished", 1);
            });
        }
    });
    for wprof in &forks {
        prof.merge_from(wprof);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock cannot be poisoned after join")
                .expect("every queued cell stores its result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_jobs_is_positive() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 7] {
            let cells: Vec<_> = (0..25u64).map(|i| move || i * i).collect();
            let out = run_cells(jobs, cells);
            assert_eq!(out, (0..25u64).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn more_workers_than_cells_is_fine() {
        let cells: Vec<_> = (0..2u64).map(|i| move || i).collect();
        assert_eq!(run_cells(16, cells), vec![0, 1]);
        let empty: Vec<fn() -> u64> = Vec::new();
        assert!(run_cells(4, empty).is_empty());
    }

    #[test]
    fn progress_counters_are_deterministic_across_jobs() {
        let registry_for = |jobs: usize| {
            let rec = Recorder::new(&gemini_obs::TraceConfig::all());
            let cells: Vec<_> = (0..10u64).map(|i| move || i).collect();
            run_cells_traced(jobs, &rec, cells);
            rec.registry()
        };
        let seq = registry_for(1);
        let par = registry_for(4);
        assert_eq!(seq.counter("exec.cells_submitted"), 10);
        assert_eq!(seq.counter("exec.cells_finished"), 10);
        assert_eq!(seq.to_json_lines(), par.to_json_lines());
    }

    #[test]
    fn hinted_results_stay_in_submission_order() {
        // Hints reorder dispatch only; any hint assignment must leave
        // the result vector untouched at every jobs count.
        for jobs in [1, 2, 5] {
            for hint_of in [|_i: u64| 0u64, |i: u64| i % 7, |i: u64| 100 - i] {
                let cells: Vec<(u64, _)> =
                    (0..20u64).map(|i| (hint_of(i), move || i * 3)).collect();
                let out = run_cells_hinted(jobs, &Recorder::off(), cells);
                assert_eq!(out, (0..20u64).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn hinted_progress_counters_match_plain_execution() {
        let rec = Recorder::new(&gemini_obs::TraceConfig::all());
        let cells: Vec<(u64, _)> = (0..6u64).map(|i| (i, move || i)).collect();
        run_cells_hinted(3, &rec, cells);
        assert_eq!(rec.registry().counter("exec.cells_submitted"), 6);
        assert_eq!(rec.registry().counter("exec.cells_finished"), 6);
    }

    #[test]
    fn profiled_results_stay_in_submission_order_and_spans_merge() {
        for jobs in [1, 3] {
            let prof = Profiler::deterministic(false);
            let cells: Vec<(u64, _)> = (0..12u64)
                .map(|i| {
                    (i % 5, move |wprof: &Profiler| {
                        let _span = wprof.span(Phase::Access);
                        i * 7
                    })
                })
                .collect();
            let out = run_cells_profiled(jobs, &Recorder::off(), &prof, cells);
            assert_eq!(out, (0..12u64).map(|i| i * 7).collect::<Vec<_>>());
            // Every cell recorded exactly one Access span on its
            // worker's fork; the merge must account for all of them.
            let report = prof.report();
            let access = report
                .phases
                .iter()
                .find(|(p, _)| *p == Phase::Access)
                .expect("access phase recorded");
            assert_eq!(access.1.count, 12, "jobs={jobs}");
            if jobs > 1 {
                let exec = report.phases.iter().find(|(p, _)| *p == Phase::Executor);
                assert!(exec.is_some(), "executor bookkeeping attributed");
            }
        }
    }

    #[test]
    fn errors_propagate_as_values() {
        let cells: Vec<_> = (0..4u64)
            .map(|i| move || if i == 2 { Err(i) } else { Ok(i) })
            .collect();
        let out = run_cells(2, cells);
        assert_eq!(out, vec![Ok(0), Ok(1), Err(2), Ok(3)]);
    }
}
