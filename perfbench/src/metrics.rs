//! The metric catalogue: every figure the benchmark reports, with its
//! unit and direction. `BENCHMARK.json` at the repository root lists the
//! same names and units; a test pins the two together.

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("accesses_per_s", "1/s", Higher),
    m("peak_rss_mib", "MiB", Lower),
    m("passed_cell_share", "ratio", Higher),
    m("sim_translation_cycles_per_access", "cycles", Lower),
];

/// Per-layer metrics, reported by a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("vm_sim.setup_ms_per_cell", "ms", Lower),
    m("vm_sim.run_self_s", "s", Lower),
    m("vm_sim.ns_per_access", "ns", Lower),
    m("vm_sim.slowest_cell_s", "s", Lower),
    m("workloads.gen_s", "s", Lower),
    m("workloads.gen_ns_per_event", "ns", Lower),
    m("workloads.decode_s", "s", Lower),
    m("workloads.decode_ns_per_event", "ns", Lower),
    m("workloads.events", "count", Higher),
    m("tlb.accesses", "count", Higher),
    m("tlb.stlb_miss_rate", "ratio", Lower),
    m("tlb.walk_refs_per_walk", "refs", Lower),
    m("tlb.ntlb_hit_rate", "ratio", Higher),
    m("tlb.pwc_hit_rate", "hits/walk", Higher),
    m("tlb.huge_walk_share", "ratio", Higher),
    m("tlb.shootdowns", "count", Lower),
    m("tlb.batched_hit_share", "ratio", Higher),
    m("tlb.batch_runs", "count", Higher),
    m("tlb.batch_breaks", "count", Lower),
    m("tlb.hit_ns", "ns", Lower),
    m("tlb.hit_ns_iqr", "ns", Lower),
    m("tlb.walk_ns", "ns", Lower),
    m("tlb.walk_ns_iqr", "ns", Lower),
    m("page_table.translate_ns", "ns", Lower),
    m("page_table.translate_ns_iqr", "ns", Lower),
    m("page_table.map_unmap_ns", "ns", Lower),
    m("page_table.map_unmap_ns_iqr", "ns", Lower),
    m("page_table.promote_ns", "ns", Lower),
    m("page_table.promote_ns_iqr", "ns", Lower),
    m("buddy.run_probes", "count", Lower),
    m("buddy.index_updates", "count", Lower),
    m("buddy.alloc_free_ns", "ns", Lower),
    m("buddy.alloc_free_ns_iqr", "ns", Lower),
    m("buddy.huge_alloc_ns", "ns", Lower),
    m("buddy.huge_alloc_ns_iqr", "ns", Lower),
    m("buddy.congruent_fit_ns", "ns", Lower),
    m("buddy.congruent_fit_ns_iqr", "ns", Lower),
    m("mm.guest_faults", "count", Lower),
    m("mm.host_faults", "count", Lower),
    m("mm.promotions", "count", Higher),
    m("mm.promo_pages_copied", "count", Lower),
    m("mm.demotions", "count", Lower),
    m("mm.compact_pages", "count", Lower),
    m("mm.fault_ns", "ns", Lower),
    m("mm.fault_ns_iqr", "ns", Lower),
    m("policies.daemon_pass_ns", "ns", Lower),
    m("policies.daemon_pass_ns_iqr", "ns", Lower),
    m("gemini.sim_aligned_pct", "%", Higher),
    m("gemini.sim_speedup_vs_thp", "x", Higher),
    m("gemini.mhps_scans", "count", Lower),
    m("gemini.bookings_placed", "count", Higher),
    m("bench.host_slowdown", "ratio", Lower),
    m("bench.trace_overhead_pct", "%", Lower),
];

/// Looks a metric up in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Formats a value as a JSON number with every digit Rust's shortest
/// round-trip rendering gives; non-finite values become 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The metrics as one JSON object: `{"name": {"value": v, "unit": u}, ...}`.
pub fn metrics_json(values: &[(&'static MetricDef, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(*v),
                d.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, values: &[(&'static MetricDef, f64)]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(values)
    )
}
