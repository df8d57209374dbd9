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
use gemini_obs::profile::{chrome_trace_json, ProfileReport, TraceSpan};
use gemini_obs::{Profiler, Recorder};
use gemini_sim_core::Result;
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
/// worker, one `cell` rectangle per grid cell and the cell's nested
/// phase spans inside it (when `master` captures events). Afterwards
/// `master.report()` holds the merged per-phase totals of the whole
/// grid. Open the file in Perfetto
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
                r.map(|_| TraceSpan {
                    name: label,
                    cat: "cell",
                    start_ns,
                    dur_ns,
                    tid: wprof.tid(),
                })
            }));
        }
    }
    let workers = effective_jobs(jobs).min(cells.len().max(1));
    let mut spans = run_cells_profiled(jobs, &Recorder::off(), master, cells)
        .into_iter()
        .collect::<Result<Vec<TraceSpan>>>()?;
    spans.extend(master.events().iter().map(TraceSpan::from));
    let worker_names: Vec<String> = (0..workers).map(|w| format!("worker-{w}")).collect();
    Ok(chrome_trace_json(
        "gemini-sim profile grid",
        &worker_names,
        &spans,
    ))
}
