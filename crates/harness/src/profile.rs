//! Span-profiler front end (`gemini-sim profile`).
//!
//! Answers "where did the wall time go" for the simulator itself, as
//! opposed to the simulated systems: the fig. 3 grid runs under the
//! span profiler and renders as a Perfetto timeline, and the reference
//! workload/system pair (Canneal × GEMINI, fragmented) yields a
//! per-phase self/cumulative breakdown. Wall-clock numbers live only
//! here, never inside the deterministic exports — the profiler observes
//! time and never touches simulated state.

use crate::exec::{effective_jobs, run_cells_profiled};
use crate::experiments::motivation::WORKLOADS;
use crate::runner::run_workload_profiled;
use crate::scale::Scale;
use gemini_obs::profile::{chrome_trace_json_with_counters, ProfileReport, TraceSpan};
use gemini_obs::{Profiler, Recorder};
use gemini_sim_core::Result;
use gemini_tlb::BatchStats;
use gemini_vm_sim::SystemKind;
use gemini_workloads::spec_by_name;
use std::time::Instant;

/// Runs the Canneal × GEMINI pair on fragmented memory at `scale` with
/// span profiling on and returns the profiler's per-phase report next
/// to the cell's wall time in milliseconds. Phase self times are
/// disjoint, so they sum to the instrumented share of that wall time.
pub fn profile_canneal_gemini(scale: &Scale) -> Result<(ProfileReport, f64)> {
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    let seed = scale.seed_for("motivation", 0);
    let prof = Profiler::wall(false);
    let started = Instant::now();
    run_workload_profiled(SystemKind::Gemini, &spec, scale, true, seed, prof.clone())?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok((prof.report(), wall_ms))
}

/// Runs the fig. 3 grid once at `jobs` workers under `master` and
/// renders a Chrome-trace-event JSON document: one labelled track per
/// worker, one `cell` rectangle per grid cell, the cell's nested phase
/// spans inside it (when `master` captures events), and grid-total
/// `tlb.batch_*` counter tracks from the closed-form hit-run fast path.
/// Afterwards `master.report()` holds the merged per-phase totals of
/// the whole grid. Open the file in Perfetto
/// (<https://ui.perfetto.dev>) or `chrome://tracing`.
pub fn grid_trace(scale: &Scale, jobs: usize, master: &Profiler) -> Result<String> {
    let systems = SystemKind::evaluated();
    let mut cells = Vec::new();
    for (wi, name) in WORKLOADS.iter().enumerate() {
        let spec = spec_by_name(name).expect("motivation workload in catalog");
        let seed = scale.seed_for("motivation", wi as u64);
        for &system in &systems {
            let spec = spec.clone();
            let label = format!("{name}/{}", system.label());
            cells.push((system.cost_hint(), move |wprof: &Profiler| {
                let start_ns = wprof.now_ns();
                let r = run_workload_profiled(system, &spec, scale, true, seed, wprof.clone());
                let dur_ns = wprof.now_ns().saturating_sub(start_ns);
                r.map(|(_, stats)| {
                    (
                        TraceSpan {
                            name: label,
                            cat: "cell",
                            start_ns,
                            dur_ns,
                            tid: wprof.tid(),
                        },
                        stats,
                    )
                })
            }));
        }
    }
    let workers = effective_jobs(jobs).min(cells.len().max(1));
    let cell_out: Result<Vec<(TraceSpan, BatchStats)>> =
        run_cells_profiled(jobs, &Recorder::off(), master, cells)
            .into_iter()
            .collect();
    let mut batch = BatchStats::default();
    let mut spans = Vec::new();
    for (span, stats) in cell_out? {
        batch = batch.merged(stats);
        spans.push(span);
    }
    spans.extend(master.events().iter().map(TraceSpan::from));
    let worker_names: Vec<String> = (0..workers).map(|w| format!("worker-{w}")).collect();
    let counters = vec![
        ("tlb.batch_breaks".to_string(), batch.breaks),
        ("tlb.batch_runs".to_string(), batch.runs),
        ("tlb.batched_hits".to_string(), batch.hits),
    ];
    Ok(chrome_trace_json_with_counters(
        "gemini-sim profile grid",
        &worker_names,
        &spans,
        &counters,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference cell (Canneal × GEMINI on fragmented memory at demo
    /// scale) takes the closed-form hit-run fast path, and the
    /// engagement is visible on both observability surfaces — the
    /// machine's [`BatchStats`] (which feed the trace's counter tracks)
    /// and the recorder's `tlb.batch_*` registry counters (which `--json`
    /// and the trace renderer print).
    #[test]
    fn reference_cell_engages_the_batched_path() {
        let scale = Scale::demo();
        let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
        let seed = scale.seed_for("motivation", 0);
        let (r, stats) = run_workload_profiled(
            SystemKind::Gemini,
            &spec,
            &scale,
            true,
            seed,
            Profiler::off(),
        )
        .unwrap();
        assert!(stats.runs > 0, "no hit-only runs batched: {stats:?}");
        assert!(stats.hits >= stats.runs, "each run covers >= 1 hit");
        assert!(
            stats.hits <= r.counters.l1_hits,
            "batched hits are a subset of L1 hits"
        );
        let (_, rec) = crate::runner::run_workload_traced(
            SystemKind::Gemini,
            &spec,
            &scale,
            true,
            seed,
            &gemini_obs::TraceConfig::all(),
        )
        .unwrap();
        let reg = rec.registry();
        assert_eq!(reg.counter("tlb.batch_runs"), stats.runs);
        assert_eq!(reg.counter("tlb.batched_hits"), stats.hits);
        assert_eq!(reg.counter("tlb.batch_breaks"), stats.breaks);
    }
}
