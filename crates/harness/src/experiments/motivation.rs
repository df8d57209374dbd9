//! Figure 3 and Table 1 — the motivation experiment.
//!
//! Two throughput-oriented PARSEC applications (Canneal, Streamcluster)
//! and two latency-sensitive TailBench applications (Img-dnn, Specjbb),
//! under the eight systems with fragmented memory. The point of the
//! figure: uncoordinated coalescing leaves well-aligned rates low and the
//! effort largely wasted; Gemini aligns the majority.

use crate::exec::run_cells_profiled;
use crate::report::{fmt_pct, fmt_ratio, Table};
use crate::runner::run_workload_on;
use crate::scale::Scale;
use gemini_obs::{Profiler, Recorder};
use gemini_sim_core::Result;
use gemini_vm_sim::{RunResult, SystemKind};
use gemini_workloads::spec_by_name;

/// The four motivation workloads, in the paper's order.
pub const WORKLOADS: [&str; 4] = ["Canneal", "Streamcluster", "Img-dnn", "Specjbb"];

/// Results: `runs[workload][system]`.
#[derive(Debug)]
pub struct MotivationResults {
    /// Per-workload, per-system results.
    pub runs: Vec<Vec<RunResult>>,
}

/// Runs the motivation grid (fragmented memory, like §2.3).
pub fn run(scale: &Scale) -> Result<MotivationResults> {
    let systems = SystemKind::evaluated();
    let mut cells = Vec::new();
    for (wi, name) in WORKLOADS.iter().enumerate() {
        let spec = spec_by_name(name).expect("motivation workload in catalog");
        let seed = scale.seed_for("motivation", wi as u64);
        for &system in &systems {
            let spec = spec.clone();
            // LPT dispatch: the hint steers which pending cell a worker
            // takes first; results reassemble in submission order.
            cells.push((system.cost_hint(), move |_: &Profiler| {
                run_workload_on(system, &spec, scale, true, seed)
            }));
        }
    }
    let mut results =
        run_cells_profiled(scale.jobs, &Recorder::off(), &Profiler::off(), cells).into_iter();
    let mut runs = Vec::new();
    for _ in WORKLOADS {
        let mut per_sys = Vec::new();
        for _ in &systems {
            per_sys.push(results.next().expect("one result per cell")?);
        }
        runs.push(per_sys);
    }
    Ok(MotivationResults { runs })
}

impl MotivationResults {
    /// Fig. 3: throughputs (Canneal, Streamcluster) and mean latencies
    /// (Img-dnn, Specjbb), normalized to `Host-B-VM-B`.
    pub fn render_fig03(&self) -> String {
        let mut headers = vec!["workload (metric)"];
        headers.extend(SystemKind::evaluated().iter().map(|s| s.label()));
        let mut t = Table::new(
            "Figure 3: motivation — normalized performance under fragmented memory",
            &headers,
        );
        for (wi, name) in WORKLOADS.iter().enumerate() {
            let row = &self.runs[wi];
            let latency = row[0].mean_latency.0 > 0;
            let mut cells = vec![format!(
                "{name} ({})",
                if latency { "latency" } else { "throughput" }
            )];
            for r in row {
                let norm = if latency {
                    r.mean_latency.0 as f64 / row[0].mean_latency.0 as f64
                } else {
                    r.throughput() / row[0].throughput()
                };
                cells.push(fmt_ratio(norm));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Table 1: rates of well-aligned huge pages.
    pub fn render_tab01(&self) -> String {
        let mut headers = vec!["workload"];
        headers.extend(SystemKind::tabulated().iter().map(|s| s.label()));
        let mut t = Table::new("Table 1: rates of well-aligned huge pages", &headers);
        let eval = SystemKind::evaluated();
        for (wi, name) in WORKLOADS.iter().enumerate() {
            let mut cells = vec![name.to_string()];
            for s in SystemKind::tabulated() {
                let i = eval.iter().position(|&e| e == s).expect("subset");
                cells.push(fmt_pct(self.runs[wi][i].aligned_rate()));
            }
            t.row(cells);
        }
        t.render()
    }

    /// Gemini's aligned rate averaged over the four workloads.
    pub fn gemini_mean_aligned(&self) -> f64 {
        let i = SystemKind::evaluated()
            .iter()
            .position(|&s| s == SystemKind::Gemini)
            .expect("Gemini evaluated");
        self.runs.iter().map(|r| r[i].aligned_rate()).sum::<f64>() / self.runs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_grid_runs_and_renders() {
        let scale = Scale {
            ops: 1_200,
            ..Scale::quick()
        };
        let res = run(&scale).unwrap();
        assert_eq!(res.runs.len(), 4);
        let fig = res.render_fig03();
        assert!(fig.contains("Canneal (throughput)"));
        assert!(fig.contains("Img-dnn (latency)"));
        let tab = res.render_tab01();
        assert!(tab.contains("GEMINI"));
        assert!(res.gemini_mean_aligned() >= 0.0);
    }
}
