//! One benchmark run: repeated passes over a workload for a fixed host
//! time, the correctness ledger, and the reported metrics.

use crate::metrics::{self, MetricDef};
use crate::micro;
use crate::probe::HostProbe;
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use crate::workload::{self, CellOutcome, Mode, PassOutcome, Prepared, Workload};
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Host seconds to keep starting passes for.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Operations per cell (or the fleet sizing knob).
    pub ops: u64,
    /// Fewest passes of each timed kind, however long they take.
    pub min_passes: usize,
    /// Interleaved rounds of every microbenchmark (traced runs).
    pub micro_rounds: usize,
}

impl RunConfig {
    /// The benchmark's standard settings for `workload`.
    pub fn standard(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload,
            seed,
            seconds,
            trace,
            ops: workload.standard_ops(),
            min_passes: 3,
            micro_rounds: 15,
        }
    }
}

/// Pass counts, failures and digests across a run.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Per-cell digests of the first pass; every later pass must match.
    pub reference: Option<Vec<u64>>,
    /// Cell executions.
    pub attempted: u64,
    /// Cell executions that failed the correctness check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Checks every cell of `pass` against the reference digests (the
    /// first recorded pass supplies them).
    pub fn record(&mut self, kind: &str, pass: &PassOutcome) {
        let reference = self.reference.get_or_insert_with(|| pass.digests());
        for (i, cell) in pass.cells.iter().enumerate() {
            self.attempted += 1;
            let verdict = match reference.get(i) {
                Some(&r) => cell.verify(r),
                None => Err("cell missing from the reference pass".to_string()),
            };
            if let Err(e) = verdict {
                self.failed += 1;
                self.failures.push(format!(
                    "{kind} pass, cell {} ({}): {e}",
                    i + 1,
                    cell.system.label()
                ));
            }
        }
    }

    /// Digest of the whole workload's simulated results.
    pub fn digest(&self) -> u64 {
        crate::check::combine(self.reference.iter().flatten().copied())
    }
}

/// Everything a run reports.
#[derive(Debug)]
pub struct Report {
    /// Metric values in catalogue order.
    pub values: Vec<(&'static MetricDef, f64)>,
    /// The correctness ledger.
    pub ledger: Ledger,
    /// Untraced passes timed.
    pub plain_passes: usize,
    /// Traced passes timed.
    pub traced_passes: usize,
    /// Spans of every traced pass.
    pub spans: Vec<Vec<Span>>,
    /// Per-pass lines and unbounded figures for the human-readable log.
    pub log: Vec<String>,
}

/// Runs the benchmark.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    let prep = workload::prepare(cfg.workload, cfg.ops, cfg.seed)?;
    if cfg.trace {
        traced(cfg, &prep)
    } else {
        plain(cfg, &prep)
    }
}

fn pass_line(kind: &str, n: usize, p: &PassOutcome) -> String {
    format!(
        "{kind} pass {n}: wall {:.4} s, setup {:.4} s, host slowdown {:.3}, {} accesses",
        p.wall_s,
        p.setup_s,
        p.slowdown,
        p.accesses()
    )
}

fn value(name: &str, v: f64) -> (&'static MetricDef, f64) {
    (metrics::def(name).expect("metric is catalogued"), v)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The end-to-end run: untraced passes until the time is up.
fn plain(cfg: &RunConfig, prep: &Prepared) -> Result<Report, String> {
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut probe = HostProbe::new();
    let mut ledger = Ledger::default();
    let mut log = Vec::new();
    let (mut walls, mut setups, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut raw_walls = Vec::new();
    let mut figures = None;
    while walls.len() < cfg.min_passes || start.elapsed() < deadline {
        let pass = workload::run_pass(prep, &mut Mode::Plain, &mut probe);
        ledger.record("plain", &pass);
        log.push(pass_line("plain", walls.len() + 1, &pass));
        if figures.is_none() {
            figures = workload::sim_figures(prep, &pass.cells);
        }
        let (wall, setup) = (pass.wall_s / pass.slowdown, pass.setup_s / pass.slowdown);
        rates.push(ratio(pass.accesses() as f64, wall - setup));
        walls.push(wall);
        setups.push(setup);
        raw_walls.push(pass.wall_s);
    }
    let figures = figures.ok_or("no pass produced the GEMINI and THP results")?;
    let passed = ratio(
        (ledger.attempted - ledger.failed) as f64,
        ledger.attempted as f64,
    );
    let values = vec![
        value("wall_s", median(&walls)),
        value("setup_s", median(&setups)),
        value("accesses_per_s", median(&rates)),
        value("peak_rss_mib", peak_rss_mib()? - crate::probe::TABLE_MIB),
        value("passed_cell_share", passed),
        value(
            "sim_translation_cycles_per_access",
            figures.translation_cycles_per_access,
        ),
    ];
    // Printed with the end-to-end metrics but not gated by a bound: the
    // raw host time, and two modelled figures that spread too widely
    // across seeds on fleet-churn (see README).
    log.extend([
        format!("raw_wall_s {} s", median(&raw_walls)),
        format!(
            "failed_cell_share {} ratio",
            ratio(ledger.failed as f64, ledger.attempted as f64)
        ),
        format!("sim_gemini_aligned_pct {} %", figures.gemini_aligned_pct),
        format!(
            "sim_gemini_speedup_vs_thp {} x",
            figures.gemini_speedup_vs_thp
        ),
    ]);
    Ok(Report {
        values,
        ledger,
        plain_passes: walls.len(),
        traced_passes: 0,
        spans: Vec::new(),
        log,
    })
}

/// Span-derived figures of one traced pass.
#[derive(Debug, Clone, Copy)]
struct TracedFigures {
    wall_s: f64,
    slowdown: f64,
    setup_ms_per_cell: f64,
    run_self_s: f64,
    ns_per_access: f64,
    slowest_cell_s: f64,
    gen_s: f64,
    gen_ns_per_event: f64,
    decode_s: f64,
    decode_ns_per_event: f64,
    events: u64,
}

fn traced_figures(pass: &PassOutcome, spans: &[Span]) -> TracedFigures {
    let events: u64 = pass.cells.iter().map(|c| c.events).sum();
    let run_self_s = spans::self_seconds(spans, "vm_sim.run");
    let gen_s = spans::total_seconds(spans, "workloads.gen");
    let decode_s = spans::total_seconds(spans, "workloads.decode");
    TracedFigures {
        wall_s: pass.wall_s / pass.slowdown,
        slowdown: pass.slowdown,
        setup_ms_per_cell: 1e3
            * ratio(
                spans::total_seconds(spans, "vm_sim.setup"),
                pass.cells.len() as f64,
            ),
        run_self_s,
        ns_per_access: 1e9 * ratio(run_self_s, pass.accesses() as f64),
        slowest_cell_s: spans::max_seconds(spans, "cell"),
        gen_s,
        gen_ns_per_event: 1e9 * ratio(gen_s, events as f64),
        decode_s,
        decode_ns_per_event: 1e9 * ratio(decode_s, events as f64),
        events,
    }
}

/// The per-layer run: untraced and traced passes alternate until the
/// time is up, then one counting pass and the microbenchmarks.
fn traced(cfg: &RunConfig, prep: &Prepared) -> Result<Report, String> {
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut probe = HostProbe::new();
    let mut ledger = Ledger::default();
    let mut log = Vec::new();
    let mut plain_walls = Vec::new();
    let mut traced_runs: Vec<TracedFigures> = Vec::new();
    let mut all_spans = Vec::new();
    while traced_runs.len() < cfg.min_passes || start.elapsed() < deadline {
        let pass = workload::run_pass(prep, &mut Mode::Plain, &mut probe);
        ledger.record("plain", &pass);
        log.push(pass_line("plain", plain_walls.len() + 1, &pass));
        plain_walls.push(pass.wall_s / pass.slowdown);

        let mut tracer = Tracer::new();
        let pass = workload::run_pass(prep, &mut Mode::Traced(&mut tracer), &mut probe);
        ledger.record("traced", &pass);
        log.push(pass_line("traced", traced_runs.len() + 1, &pass));
        traced_runs.push(traced_figures(&pass, tracer.spans()));
        all_spans.push(tracer.spans().to_vec());
    }
    let counting = workload::run_pass(prep, &mut Mode::Counting, &mut probe);
    ledger.record("counting", &counting);
    let figures = workload::sim_figures(prep, &counting.cells)
        .ok_or("the counting pass lacks the GEMINI and THP results")?;

    let snapshot = workload::snapshot(prep)?;
    let micro = micro::run(&snapshot, cfg.seed, cfg.micro_rounds)?;

    let med = |f: fn(&TracedFigures) -> f64| median(&traced_runs.iter().map(f).collect::<Vec<_>>());
    let mut values = vec![
        value("vm_sim.setup_ms_per_cell", med(|t| t.setup_ms_per_cell)),
        value("vm_sim.run_self_s", med(|t| t.run_self_s)),
        value("vm_sim.ns_per_access", med(|t| t.ns_per_access)),
        value("vm_sim.slowest_cell_s", med(|t| t.slowest_cell_s)),
        value("workloads.gen_s", med(|t| t.gen_s)),
        value("workloads.gen_ns_per_event", med(|t| t.gen_ns_per_event)),
        value("workloads.decode_s", med(|t| t.decode_s)),
        value(
            "workloads.decode_ns_per_event",
            med(|t| t.decode_ns_per_event),
        ),
        value("workloads.events", med(|t| t.events as f64)),
    ];

    let c = workload::sum_counters(counting.cells.iter().map(CellOutcome::counters));
    let rec = |names: &[&str]| -> f64 {
        counting
            .cells
            .iter()
            .flat_map(|cell| names.iter().map(move |n| cell.recorder_counter(n)))
            .sum::<u64>() as f64
    };
    let walks = c.stlb_misses as f64;
    values.extend([
        value("tlb.accesses", c.accesses as f64),
        value("tlb.stlb_miss_rate", ratio(walks, c.accesses as f64)),
        value(
            "tlb.walk_refs_per_walk",
            ratio(c.walk_mem_refs as f64, walks),
        ),
        value(
            "tlb.ntlb_hit_rate",
            ratio(c.ntlb_hits as f64, (c.ntlb_hits + c.ntlb_misses) as f64),
        ),
        value(
            "tlb.pwc_hit_rate",
            ratio((c.gpwc_hits + c.epwc_hits) as f64, walks),
        ),
        value("tlb.huge_walk_share", ratio(c.huge_walks as f64, walks)),
        value("tlb.shootdowns", c.shootdowns as f64),
        value(
            "tlb.batched_hit_share",
            ratio(rec(&["tlb.batched_hits"]), c.accesses as f64),
        ),
        value("tlb.batch_runs", rec(&["tlb.batch_runs"])),
        value("tlb.batch_breaks", rec(&["tlb.batch_breaks"])),
    ]);
    for r in &micro {
        values.push(value(r.name, r.median_ns));
        values.push(value(&format!("{}_iqr", r.name), r.iqr_ns));
    }
    values.extend([
        value("buddy.run_probes", rec(&["buddy.run_probes"])),
        value("buddy.index_updates", rec(&["buddy.index_updates"])),
        value("mm.guest_faults", rec(&["machine.guest_faults"])),
        value("mm.host_faults", rec(&["machine.host_faults"])),
        value(
            "mm.promotions",
            rec(&["mm.guest.promotions", "mm.host.promotions"]),
        ),
        value(
            "mm.promo_pages_copied",
            rec(&["mm.guest.promo_pages_copied", "mm.host.promo_pages_copied"]),
        ),
        value(
            "mm.demotions",
            rec(&["mm.guest.demotions", "mm.host.demotions"]),
        ),
        value(
            "mm.compact_pages",
            rec(&["machine.guest_compact_pages", "machine.host_compact_pages"]),
        ),
        value("gemini.sim_aligned_pct", figures.gemini_aligned_pct),
        value("gemini.sim_speedup_vs_thp", figures.gemini_speedup_vs_thp),
        value("gemini.mhps_scans", rec(&["gemini.mhps_scans"])),
        value("gemini.bookings_placed", rec(&["gemini.bookings_placed"])),
        value("bench.host_slowdown", med(|t| t.slowdown)),
        value(
            "bench.trace_overhead_pct",
            100.0 * (ratio(med(|t| t.wall_s), median(&plain_walls)) - 1.0),
        ),
    ]);
    values.sort_by_key(|(d, _)| metrics::PER_LAYER.iter().position(|p| p.name == d.name));
    Ok(Report {
        values,
        ledger,
        plain_passes: plain_walls.len(),
        traced_passes: traced_runs.len(),
        spans: all_spans,
        log,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB. The caller
/// subtracts the probe table, which stays resident for the whole run.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
