//! In-tree benchmark harness (`gemini-sim bench`).
//!
//! Times real experiment cells with wall-clock instrumentation and emits
//! a `BENCH_*.json` trajectory entry through the hand-rolled
//! [`gemini_obs`] JSON writer, so every PR can extend a comparable
//! performance record. Three measurements per run:
//!
//! 1. the **demo-scale fig. 3 reference cell** (Canneal × GEMINI on
//!    fragmented memory) — the single-thread throughput yardstick,
//!    compared against the recorded pre-optimization baseline;
//! 2. **per-cell timings** of the fig. 3 grid at the chosen scale,
//!    sequentially (`jobs = 1`), one entry per system × workload;
//! 3. a **jobs sweep** of the same grid across `--jobs 1..N`, reporting
//!    wall time and speedup versus the sequential leg.
//!
//! Simulated results stay byte-identical across all of this — wall-clock
//! numbers live only here, never inside the deterministic exports.

use crate::exec::{effective_jobs, run_cells_hinted, run_cells_profiled};
use crate::experiments::motivation::WORKLOADS;
use crate::runner::{
    run_workload_batch_stats, run_workload_on, run_workload_profiled,
    run_workload_profiled_batch_stats,
};
use crate::scale::Scale;
use gemini_obs::profile::{chrome_trace_json_with_counters, ProfileReport, TraceSpan};
use gemini_obs::{json_f64, json_str, Profiler, Recorder};
use gemini_sim_core::Result;
use gemini_vm_sim::SystemKind;
use gemini_workloads::spec_by_name;
use std::time::Instant;

/// Label of the reference cell every PR's bench reports.
pub const REFERENCE_CELL: &str = "motivation/Canneal/GEMINI/fragmented@demo";

/// Pre-PR baseline of the reference cell, measured on the tree at commit
/// `e3fa128` (before the hot-path overhaul) on the same container this
/// harness runs in (best of three): wall milliseconds for the cell.
pub const BASELINE_WALL_MS: f64 = 1043.0;

/// Pre-PR baseline simulator throughput of the reference cell
/// (workload operations per wall-clock second, best of three).
pub const BASELINE_OPS_PER_SEC: f64 = 7669.0;

/// Wall-clock self/cumulative time one phase accumulated in a cell.
#[derive(Debug, Clone)]
pub struct PhaseTiming {
    /// Stable phase name ([`gemini_obs::Phase::name`]).
    pub name: &'static str,
    /// Self wall time in milliseconds (child spans excluded) — phase
    /// self times are disjoint, so they sum to the covered wall time.
    pub wall_ms: f64,
    /// Cumulative wall time in milliseconds (child spans included).
    pub cum_ms: f64,
    /// Spans recorded for this phase.
    pub count: u64,
}

/// Converts a profiler report to phase rows.
fn phase_timings(report: &ProfileReport) -> Vec<PhaseTiming> {
    report
        .phases
        .iter()
        .map(|&(p, s)| PhaseTiming {
            name: p.name(),
            wall_ms: s.self_ns as f64 / 1e6,
            cum_ms: s.cum_ns as f64 / 1e6,
            count: s.count,
        })
        .collect()
}

/// Wall-clock timing of one experiment cell.
#[derive(Debug, Clone)]
pub struct CellTiming {
    /// Cell label (`workload/system`).
    pub label: String,
    /// Wall time of the cell in milliseconds.
    pub wall_ms: f64,
    /// Workload operations the cell simulated.
    pub ops: u64,
    /// Simulator throughput: operations per wall-clock second.
    pub ops_per_sec: f64,
    /// Phase breakdown of the cell's wall time (empty when the cell ran
    /// unprofiled).
    pub phases: Vec<PhaseTiming>,
    /// Estimated profiler overhead inside `wall_ms` (spans recorded ×
    /// calibrated per-span cost), milliseconds.
    pub profiler_overhead_ms: f64,
}

/// One leg of the jobs sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Worker threads used for the grid.
    pub jobs: usize,
    /// Wall time of the whole grid in milliseconds.
    pub wall_ms: f64,
    /// Grid speedup versus the `jobs = 1` leg.
    pub speedup_vs_jobs1: f64,
    /// Per-cell wall times of this leg, in submission order (same cell
    /// order as `cells`). A flat sweep on a constrained CI machine shows
    /// up here as uniformly inflated cells, not a scheduling defect.
    pub cell_wall_ms: Vec<f64>,
    /// True when this leg ran more workers than the machine has
    /// hardware threads (`jobs > available_parallelism`): per-cell
    /// walls inflate roughly `jobs`-fold because workers time-share
    /// cores, so a flat speedup here is an artifact of the host, not a
    /// scheduling defect.
    pub oversubscribed: bool,
}

/// Fleet lifecycle smoke measurements: the long-horizon VM
/// arrival/departure grid run once at the report's scale. Additive in
/// the `gemini-bench-v3` schema — older reports simply lack the key,
/// and the perf diff matches cells by label, so comparisons against
/// pre-fleet reports stay valid.
#[derive(Debug, Clone)]
pub struct FleetBenchSection {
    /// VM lifecycles completed across every host and system.
    pub vms: u64,
    /// Lifecycle churn events (one arrival + one departure per VM).
    pub churn_events: u64,
    /// Wall time of the whole fleet grid, milliseconds.
    pub wall_ms: f64,
    /// Mean end-state host FMFI per system `(label, fmfi)`, after every
    /// VM was torn down through the leak-checked `remove_vm` path.
    pub end_host_fmfi: Vec<(String, f64)>,
}

/// Closed-form hit-run batching measurements of the reference cell:
/// a batched leg with its [`gemini_tlb::BatchStats`] next to a
/// `--no-batch` leg of the same cell. Additive in the
/// `gemini-bench-v3` schema (older reports simply lack the keys). The
/// batch counters are the proof that the fast path actually engaged on
/// the reference cell — a wall-clock delta with zero `batched_hits`
/// would be measuring noise, not batching.
#[derive(Debug, Clone)]
pub struct BatchedRefSection {
    /// Wall time of the batched (default) reference leg, milliseconds,
    /// best of three.
    pub batched_wall_ms: f64,
    /// Wall time of the same cell with `--no-batch`, milliseconds,
    /// best of three.
    pub no_batch_wall_ms: f64,
    /// Hit-only runs the closed-form path advanced in the batched leg.
    pub batch_runs: u64,
    /// Accesses those runs covered (each one elided a full per-access
    /// lookup/stamp/cost round-trip).
    pub batched_hits: u64,
    /// Runs declined (stability-epoch moved) or truncated (sampling
    /// deadline) in the batched leg.
    pub batch_breaks: u64,
    /// `batched_hits` over all translated accesses of the batched leg.
    pub batch_hit_rate: f64,
}

/// Everything one bench invocation measured.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Scale preset name the grid ran at (`quick` | `bench`).
    pub scale: String,
    /// Largest worker count the sweep covered.
    pub jobs_max: usize,
    /// `std::thread::available_parallelism()` of the measuring machine —
    /// the context that makes a flat jobs sweep interpretable.
    pub available_parallelism: usize,
    /// Wall time of the demo-scale reference cell, milliseconds
    /// (unprofiled run — the trajectory yardstick).
    pub reference_wall_ms: f64,
    /// Throughput of the demo-scale reference cell, ops per second
    /// (unprofiled run).
    pub reference_ops_per_sec: f64,
    /// Wall time of the reference cell on a **same-host rebuild of the
    /// previous PR's tree**, milliseconds, measured interleaved with the
    /// current binary in the same time window (`--pr6-wall-ms`). `None`
    /// when no same-host rebuild was measured. This is the honest
    /// PR-over-PR comparator: the committed BENCH_pr*.json trajectory
    /// files come from different points in time on a noisy shared host,
    /// so cross-file wall-clock ratios conflate host drift with real
    /// changes.
    pub pr6_same_host_wall_ms: Option<f64>,
    /// Same as `pr6_same_host_wall_ms`, but against a same-host rebuild
    /// of the PR 9 tree (`--pr9-wall-ms`).
    pub pr9_same_host_wall_ms: Option<f64>,
    /// Batched vs `--no-batch` reference-cell legs with the batch
    /// counters of the batched leg.
    pub reference_batched: BatchedRefSection,
    /// Phase breakdown of a second, profiled run of the reference cell.
    pub reference_phases: Vec<PhaseTiming>,
    /// Wall time of the profiled reference run, milliseconds.
    pub reference_profiled_wall_ms: f64,
    /// Estimated profiler overhead of the profiled reference run, as a
    /// percentage of its wall time.
    pub reference_overhead_pct: f64,
    /// Per-cell timings of the fig. 3 grid at `scale`, `jobs = 1`.
    pub cells: Vec<CellTiming>,
    /// Grid wall times across `jobs = 1..=jobs_max`.
    pub sweep: Vec<SweepPoint>,
    /// Fleet lifecycle smoke run at the report's scale (`None` only in
    /// synthetic or legacy reports).
    pub fleet: Option<FleetBenchSection>,
}

/// Times `f`, returning its result and the elapsed milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Runs the demo-scale reference cell and returns its timing — best of
/// three runs, matching how [`BASELINE_WALL_MS`] was recorded, so one
/// scheduler hiccup on a shared host does not pollute the trajectory.
pub fn run_reference_cell() -> Result<CellTiming> {
    let scale = Scale::demo();
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    let seed = scale.seed_for("motivation", 0);
    let mut best: Option<(gemini_vm_sim::RunResult, f64)> = None;
    for _ in 0..3 {
        let (r, wall_ms) = timed(|| run_workload_on(SystemKind::Gemini, &spec, &scale, true, seed));
        let r = r?;
        if best.as_ref().map_or(true, |(_, b)| wall_ms < *b) {
            best = Some((r, wall_ms));
        }
    }
    let (r, wall_ms) = best.expect("three runs produce a best");
    Ok(CellTiming {
        label: REFERENCE_CELL.to_string(),
        wall_ms,
        ops: r.ops,
        ops_per_sec: r.ops as f64 / (wall_ms / 1e3),
        phases: Vec::new(),
        profiler_overhead_ms: 0.0,
    })
}

/// Measures the reference cell batched vs `--no-batch`, best of three
/// each, and returns both walls plus the batched leg's
/// [`gemini_tlb::BatchStats`]. The two legs' simulated `RunResult`s are
/// asserted byte-identical here — a bench run doubles as a parity
/// check on the exact configuration the trajectory reports.
pub fn run_reference_cell_batched() -> Result<BatchedRefSection> {
    let batched_scale = Scale::demo();
    let no_batch_scale = Scale {
        no_batch: true,
        ..Scale::demo()
    };
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    let seed = batched_scale.seed_for("motivation", 0);
    let mut best: Option<(gemini_vm_sim::RunResult, gemini_tlb::BatchStats, f64)> = None;
    for _ in 0..3 {
        let (out, wall_ms) = timed(|| {
            run_workload_batch_stats(SystemKind::Gemini, &spec, &batched_scale, true, seed)
        });
        let (r, stats) = out?;
        if best.as_ref().map_or(true, |&(_, _, b)| wall_ms < b) {
            best = Some((r, stats, wall_ms));
        }
    }
    let (batched_result, stats, batched_wall_ms) = best.expect("three runs produce a best");
    let mut best_off: Option<(gemini_vm_sim::RunResult, f64)> = None;
    for _ in 0..3 {
        let (r, wall_ms) =
            timed(|| run_workload_on(SystemKind::Gemini, &spec, &no_batch_scale, true, seed));
        let r = r?;
        if best_off.as_ref().map_or(true, |&(_, b)| wall_ms < b) {
            best_off = Some((r, wall_ms));
        }
    }
    let (no_batch_result, no_batch_wall_ms) = best_off.expect("three runs produce a best");
    assert_eq!(
        format!("{batched_result:?}"),
        format!("{no_batch_result:?}"),
        "batched and --no-batch reference legs must be byte-identical"
    );
    let accesses = batched_result.counters.accesses;
    Ok(BatchedRefSection {
        batched_wall_ms,
        no_batch_wall_ms,
        batch_runs: stats.runs,
        batched_hits: stats.hits,
        batch_breaks: stats.breaks,
        batch_hit_rate: if accesses == 0 {
            0.0
        } else {
            stats.hits as f64 / accesses as f64
        },
    })
}

/// Runs the reference cell's workload/system pair (Canneal × GEMINI,
/// fragmented) at `scale` with span profiling on and returns
/// `(phase rows, profiled wall ms, overhead % of wall)`.
pub fn profile_canneal_gemini(scale: &Scale) -> Result<(Vec<PhaseTiming>, f64, f64)> {
    let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
    let seed = scale.seed_for("motivation", 0);
    let prof = Profiler::wall(false);
    let (r, wall_ms) =
        timed(|| run_workload_profiled(SystemKind::Gemini, &spec, scale, true, seed, prof.clone()));
    r?;
    let report = prof.report();
    let overhead_pct = if wall_ms > 0.0 {
        100.0 * (report.overhead_est_ns as f64 / 1e6) / wall_ms
    } else {
        0.0
    };
    Ok((phase_timings(&report), wall_ms, overhead_pct))
}

/// Runs the demo-scale reference cell once more with span profiling on
/// and returns `(phase rows, profiled wall ms, overhead % of wall)`.
pub fn profile_reference_cell() -> Result<(Vec<PhaseTiming>, f64, f64)> {
    profile_canneal_gemini(&Scale::demo())
}

/// Runs the full bench: reference cell, per-cell grid timings, jobs
/// sweep. `scale_name` is recorded verbatim in the report.
pub fn run_bench(scale: &Scale, scale_name: &str, jobs_max: usize) -> Result<BenchReport> {
    let reference = run_reference_cell()?;
    let reference_batched = run_reference_cell_batched()?;
    let (reference_phases, reference_profiled_wall_ms, reference_overhead_pct) =
        profile_reference_cell()?;

    // Per-cell timings: the fig. 3 grid, sequentially, each cell under
    // its own profiler so the report carries a phase breakdown.
    let systems = SystemKind::evaluated();
    let mut cells = Vec::new();
    for (wi, name) in WORKLOADS.iter().enumerate() {
        let spec = spec_by_name(name).expect("motivation workload in catalog");
        let seed = scale.seed_for("motivation", wi as u64);
        for &system in &systems {
            let spec = spec.clone();
            let prof = Profiler::wall(false);
            let (r, wall_ms) =
                timed(|| run_workload_profiled(system, &spec, scale, true, seed, prof.clone()));
            let r = r?;
            let report = prof.report();
            cells.push(CellTiming {
                label: format!("{name}/{}", system.label()),
                wall_ms,
                ops: r.ops,
                ops_per_sec: r.ops as f64 / (wall_ms / 1e3),
                phases: phase_timings(&report),
                profiler_overhead_ms: report.overhead_est_ns as f64 / 1e6,
            });
        }
    }

    // Jobs sweep: the same grid through the parallel executor, with LPT
    // dispatch hints. Each cell times itself, so the sweep records the
    // per-cell wall times alongside the grid total.
    let jobs_max = jobs_max.max(1);
    let mut sweep = Vec::new();
    let mut jobs1_wall = 0.0f64;
    for jobs in 1..=jobs_max {
        let grid = || -> Result<Vec<f64>> {
            let mut grid_cells = Vec::new();
            for (wi, name) in WORKLOADS.iter().enumerate() {
                let spec = spec_by_name(name).expect("motivation workload in catalog");
                let seed = scale.seed_for("motivation", wi as u64);
                for &system in &systems {
                    let spec = spec.clone();
                    grid_cells.push((system.cost_hint(), move || {
                        let (r, cell_ms) =
                            timed(|| run_workload_on(system, &spec, scale, true, seed));
                        r.map(|_| cell_ms)
                    }));
                }
            }
            run_cells_hinted(jobs, &Recorder::off(), grid_cells)
                .into_iter()
                .collect()
        };
        let (res, wall_ms) = timed(grid);
        let cell_wall_ms = res?;
        if jobs == 1 {
            jobs1_wall = wall_ms;
        }
        sweep.push(SweepPoint {
            jobs,
            wall_ms,
            speedup_vs_jobs1: if wall_ms > 0.0 {
                jobs1_wall / wall_ms
            } else {
                0.0
            },
            cell_wall_ms,
            oversubscribed: jobs > effective_jobs(0),
        });
    }

    // Fleet lifecycle smoke: the arrival/departure grid at the same
    // scale, wall-timed as one unit (its cells already spread over the
    // scale's worker count internally).
    let (fleet_res, fleet_wall_ms) = timed(|| crate::experiments::fleet::run(scale));
    let fleet_res = fleet_res?;
    let fleet = Some(FleetBenchSection {
        vms: fleet_res.total_vms() as u64,
        churn_events: fleet_res.total_churn_events(),
        wall_ms: fleet_wall_ms,
        end_host_fmfi: crate::experiments::fleet::SYSTEMS
            .iter()
            .map(|s| (s.label().to_string(), fleet_res.end_fmfi(s.label())))
            .collect(),
    });

    Ok(BenchReport {
        scale: scale_name.to_string(),
        jobs_max,
        available_parallelism: effective_jobs(0),
        reference_wall_ms: reference.wall_ms,
        reference_ops_per_sec: reference.ops_per_sec,
        pr6_same_host_wall_ms: None,
        pr9_same_host_wall_ms: None,
        reference_batched,
        reference_phases,
        reference_profiled_wall_ms,
        reference_overhead_pct,
        cells,
        sweep,
        fleet,
    })
}

/// Runs the fig. 3 grid once at `jobs` workers with span-event capture
/// through `master` (which must have been built with event capture on)
/// and renders a Chrome-trace-event JSON document: one labelled track
/// per worker, one `cell` rectangle per grid cell, the cell's nested
/// phase spans inside it, and grid-total `tlb.batch_*` counter tracks
/// from the closed-form hit-run fast path. Open the file in Perfetto
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
                let r = run_workload_profiled_batch_stats(
                    system,
                    &spec,
                    scale,
                    true,
                    seed,
                    wprof.clone(),
                );
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
    let cell_out: Result<Vec<(TraceSpan, gemini_tlb::BatchStats)>> =
        run_cells_profiled(jobs, &Recorder::off(), master, cells)
            .into_iter()
            .collect();
    let mut batch = gemini_tlb::BatchStats::default();
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
        "gemini-sim bench grid",
        &worker_names,
        &spans,
        &counters,
    ))
}

impl BenchReport {
    /// Single-thread throughput improvement of the reference cell over
    /// the recorded pre-PR baseline.
    pub fn speedup_vs_baseline(&self) -> f64 {
        self.reference_ops_per_sec / BASELINE_OPS_PER_SEC
    }

    /// Renders the report as one pretty-printed JSON object via the
    /// workspace's hand-rolled JSON writer.
    pub fn to_json(&self) -> String {
        let phases_json = |phases: &[PhaseTiming]| -> String {
            phases
                .iter()
                .map(|p| {
                    format!(
                        "{{\"name\": {}, \"wall_ms\": {}, \"cum_ms\": {}, \"count\": {}}}",
                        json_str(p.name),
                        json_f64(p.wall_ms),
                        json_f64(p.cum_ms),
                        p.count
                    )
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str("gemini-bench-v3")));
        out.push_str(&format!("  \"scale\": {},\n", json_str(&self.scale)));
        out.push_str(&format!("  \"jobs_max\": {},\n", self.jobs_max));
        out.push_str(&format!(
            "  \"available_parallelism\": {},\n",
            self.available_parallelism
        ));
        out.push_str("  \"reference_cell\": {\n");
        out.push_str(&format!("    \"label\": {},\n", json_str(REFERENCE_CELL)));
        out.push_str(&format!(
            "    \"baseline_wall_ms\": {},\n",
            json_f64(BASELINE_WALL_MS)
        ));
        out.push_str(&format!(
            "    \"baseline_ops_per_sec\": {},\n",
            json_f64(BASELINE_OPS_PER_SEC)
        ));
        out.push_str(&format!(
            "    \"current_wall_ms\": {},\n",
            json_f64(self.reference_wall_ms)
        ));
        out.push_str(&format!(
            "    \"current_ops_per_sec\": {},\n",
            json_f64(self.reference_ops_per_sec)
        ));
        out.push_str(&format!(
            "    \"speedup_vs_baseline\": {},\n",
            json_f64(self.speedup_vs_baseline())
        ));
        match self.pr6_same_host_wall_ms {
            Some(pr6_ms) => {
                out.push_str(&format!(
                    "    \"pr6_same_host_wall_ms\": {},\n",
                    json_f64(pr6_ms)
                ));
                let speedup = if self.reference_wall_ms > 0.0 {
                    pr6_ms / self.reference_wall_ms
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    \"speedup_vs_pr6_same_host\": {},\n",
                    json_f64(speedup)
                ));
            }
            None => {
                out.push_str("    \"pr6_same_host_wall_ms\": null,\n");
                out.push_str("    \"speedup_vs_pr6_same_host\": null,\n");
            }
        }
        match self.pr9_same_host_wall_ms {
            Some(pr9_ms) => {
                out.push_str(&format!(
                    "    \"pr9_same_host_wall_ms\": {},\n",
                    json_f64(pr9_ms)
                ));
                let speedup = if self.reference_wall_ms > 0.0 {
                    pr9_ms / self.reference_wall_ms
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "    \"speedup_vs_pr9_same_host\": {},\n",
                    json_f64(speedup)
                ));
            }
            None => {
                out.push_str("    \"pr9_same_host_wall_ms\": null,\n");
                out.push_str("    \"speedup_vs_pr9_same_host\": null,\n");
            }
        }
        let b = &self.reference_batched;
        out.push_str(&format!(
            "    \"batched_wall_ms\": {},\n",
            json_f64(b.batched_wall_ms)
        ));
        out.push_str(&format!(
            "    \"no_batch_wall_ms\": {},\n",
            json_f64(b.no_batch_wall_ms)
        ));
        out.push_str(&format!("    \"batch_runs\": {},\n", b.batch_runs));
        out.push_str(&format!("    \"batched_hits\": {},\n", b.batched_hits));
        out.push_str(&format!("    \"batch_breaks\": {},\n", b.batch_breaks));
        out.push_str(&format!(
            "    \"batch_hit_rate\": {},\n",
            json_f64(b.batch_hit_rate)
        ));
        out.push_str(&format!(
            "    \"profiled_wall_ms\": {},\n",
            json_f64(self.reference_profiled_wall_ms)
        ));
        out.push_str(&format!(
            "    \"profiler_overhead_pct\": {},\n",
            json_f64(self.reference_overhead_pct)
        ));
        out.push_str(&format!(
            "    \"phases\": [{}]\n",
            phases_json(&self.reference_phases)
        ));
        out.push_str("  },\n");
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": {}, \"wall_ms\": {}, \"ops\": {}, \"ops_per_sec\": {}, \"profiler_overhead_ms\": {}, \"phases\": [{}]}}{}\n",
                json_str(&c.label),
                json_f64(c.wall_ms),
                c.ops,
                json_f64(c.ops_per_sec),
                json_f64(c.profiler_overhead_ms),
                phases_json(&c.phases),
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"jobs_sweep\": [\n");
        for (i, p) in self.sweep.iter().enumerate() {
            let per_cell = p
                .cell_wall_ms
                .iter()
                .map(|&ms| json_f64(ms))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"jobs\": {}, \"wall_ms\": {}, \"speedup_vs_jobs1\": {}, \"oversubscribed\": {}, \"cell_wall_ms\": [{}]}}{}\n",
                p.jobs,
                json_f64(p.wall_ms),
                json_f64(p.speedup_vs_jobs1),
                p.oversubscribed,
                per_cell,
                if i + 1 < self.sweep.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        match &self.fleet {
            Some(f) => {
                let fmfi = f
                    .end_host_fmfi
                    .iter()
                    .map(|(s, v)| {
                        format!(
                            "{{\"system\": {}, \"fmfi\": {}}}",
                            json_str(s),
                            json_f64(*v)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(", ");
                out.push_str(&format!(
                    "  \"fleet\": {{\"vms\": {}, \"churn_events\": {}, \"wall_ms\": {}, \"end_host_fmfi\": [{}]}}\n",
                    f.vms,
                    f.churn_events,
                    json_f64(f.wall_ms),
                    fmfi
                ));
            }
            None => out.push_str("  \"fleet\": null\n"),
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> BenchReport {
        BenchReport {
            scale: "quick".into(),
            jobs_max: 2,
            available_parallelism: 4,
            reference_wall_ms: 500.0,
            reference_ops_per_sec: 16_000.0,
            pr6_same_host_wall_ms: Some(1_000.0),
            pr9_same_host_wall_ms: Some(600.0),
            reference_batched: BatchedRefSection {
                batched_wall_ms: 495.0,
                no_batch_wall_ms: 520.0,
                batch_runs: 1_200,
                batched_hits: 9_000,
                batch_breaks: 40,
                batch_hit_rate: 0.31,
            },
            reference_phases: vec![PhaseTiming {
                name: "access",
                wall_ms: 450.0,
                cum_ms: 480.0,
                count: 10,
            }],
            reference_profiled_wall_ms: 505.0,
            reference_overhead_pct: 0.4,
            cells: vec![CellTiming {
                label: "Canneal/GEMINI".into(),
                wall_ms: 100.0,
                ops: 2_500,
                ops_per_sec: 25_000.0,
                phases: vec![PhaseTiming {
                    name: "fault_path",
                    wall_ms: 30.0,
                    cum_ms: 30.0,
                    count: 400,
                }],
                profiler_overhead_ms: 0.5,
            }],
            sweep: vec![SweepPoint {
                jobs: 1,
                wall_ms: 100.0,
                speedup_vs_jobs1: 1.0,
                cell_wall_ms: vec![100.0],
                oversubscribed: false,
            }],
            fleet: Some(FleetBenchSection {
                vms: 250,
                churn_events: 500,
                wall_ms: 1_200.0,
                end_host_fmfi: vec![("THP".into(), 0.12), ("GEMINI".into(), 0.03)],
            }),
        }
    }

    #[test]
    fn report_json_is_wellformed_and_complete() {
        let j = synthetic().to_json();
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
        for key in [
            "\"schema\"",
            "\"scale\"",
            "\"jobs_max\"",
            "\"available_parallelism\"",
            "\"cell_wall_ms\"",
            "\"reference_cell\"",
            "\"baseline_wall_ms\"",
            "\"baseline_ops_per_sec\"",
            "\"current_wall_ms\"",
            "\"current_ops_per_sec\"",
            "\"speedup_vs_baseline\"",
            "\"pr6_same_host_wall_ms\"",
            "\"speedup_vs_pr6_same_host\"",
            "\"pr9_same_host_wall_ms\"",
            "\"speedup_vs_pr9_same_host\"",
            "\"batched_wall_ms\"",
            "\"no_batch_wall_ms\"",
            "\"batch_runs\"",
            "\"batched_hits\"",
            "\"batch_breaks\"",
            "\"batch_hit_rate\"",
            "\"profiled_wall_ms\"",
            "\"profiler_overhead_pct\"",
            "\"phases\"",
            "\"profiler_overhead_ms\"",
            "\"oversubscribed\"",
            "\"cells\"",
            "\"jobs_sweep\"",
            "\"fleet\"",
            "\"churn_events\"",
            "\"end_host_fmfi\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        // And it parses back through the in-tree JSON reader.
        let v = gemini_obs::jsonread::parse(&j).expect("bench JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("gemini-bench-v3")
        );
        let cell = &v.get("cells").and_then(|c| c.as_arr()).unwrap()[0];
        assert_eq!(
            cell.get("phases").and_then(|p| p.as_arr()).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn same_host_pr6_comparison_is_optional() {
        // With a same-host rebuild measured, the speedup is the wall
        // ratio; without one, both fields render as JSON null rather
        // than a fabricated number.
        let with = synthetic().to_json();
        let v = gemini_obs::jsonread::parse(&with).unwrap();
        let rc = v.get("reference_cell").unwrap();
        assert_eq!(
            rc.get("speedup_vs_pr6_same_host").and_then(|s| s.as_f64()),
            Some(2.0)
        );
        let mut none = synthetic();
        none.pr6_same_host_wall_ms = None;
        let j = none.to_json();
        assert!(j.contains("\"pr6_same_host_wall_ms\": null"));
        assert!(j.contains("\"speedup_vs_pr6_same_host\": null"));
        gemini_obs::jsonread::parse(&j).expect("null fields still parse");
    }

    #[test]
    fn same_host_pr9_comparison_is_optional_and_batch_fields_are_numeric() {
        let with = synthetic().to_json();
        let v = gemini_obs::jsonread::parse(&with).unwrap();
        let rc = v.get("reference_cell").unwrap();
        assert_eq!(
            rc.get("speedup_vs_pr9_same_host").and_then(|s| s.as_f64()),
            Some(1.2)
        );
        assert_eq!(
            rc.get("batched_hits").and_then(|s| s.as_f64()),
            Some(9_000.0)
        );
        assert_eq!(rc.get("batch_runs").and_then(|s| s.as_f64()), Some(1_200.0));
        assert_eq!(
            rc.get("batch_hit_rate").and_then(|s| s.as_f64()),
            Some(0.31)
        );
        let mut none = synthetic();
        none.pr9_same_host_wall_ms = None;
        let j = none.to_json();
        assert!(j.contains("\"pr9_same_host_wall_ms\": null"));
        assert!(j.contains("\"speedup_vs_pr9_same_host\": null"));
        gemini_obs::jsonread::parse(&j).expect("null fields still parse");
    }

    #[test]
    fn fleet_section_is_schema_additive() {
        // Populated: parses back with the churn facts intact.
        let j = synthetic().to_json();
        let v = gemini_obs::jsonread::parse(&j).unwrap();
        let fleet = v.get("fleet").unwrap();
        assert_eq!(fleet.get("vms").and_then(|x| x.as_f64()), Some(250.0));
        assert_eq!(
            fleet
                .get("end_host_fmfi")
                .and_then(|x| x.as_arr())
                .map(|a| a.len()),
            Some(2)
        );
        // Absent (legacy shape): renders null and still parses.
        let mut none = synthetic();
        none.fleet = None;
        let j = none.to_json();
        assert!(j.contains("\"fleet\": null"));
        gemini_obs::jsonread::parse(&j).expect("null fleet still parses");
    }

    /// Regression pin for the trajectory's headline claim: the
    /// reference cell (Canneal × GEMINI on fragmented memory at demo
    /// scale) actually takes the closed-form hit-run fast path, and the
    /// engagement is visible on both observability surfaces — the
    /// machine's [`gemini_tlb::BatchStats`] and the recorder's
    /// `tlb.batch_*` registry counters (which `--json` and the trace
    /// renderer print). If a future change silently stops batching on
    /// this cell, BENCH_pr10-style reports would quietly measure the
    /// slow path; this test fails instead.
    #[test]
    fn reference_cell_engages_the_batched_path() {
        let scale = Scale::demo();
        let spec = spec_by_name("Canneal").expect("Canneal is in the catalog");
        let seed = scale.seed_for("motivation", 0);
        let (r, stats) =
            run_workload_batch_stats(SystemKind::Gemini, &spec, &scale, true, seed).unwrap();
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

    #[test]
    fn speedup_is_relative_to_recorded_baseline() {
        let r = synthetic();
        let expect = 16_000.0 / BASELINE_OPS_PER_SEC;
        assert!((r.speedup_vs_baseline() - expect).abs() < 1e-9);
    }
}
