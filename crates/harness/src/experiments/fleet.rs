//! The fleet experiment family — long-horizon VM arrival/departure
//! churn (ROADMAP open item 1).
//!
//! Every other experiment runs against a pre-fragmented snapshot; this
//! one lets fragmentation *emerge*: a deterministic
//! [`FleetPlan`] draws ≥100 VM lifecycles
//! (demo scale) and first-fit packs them onto a small cluster of
//! simulated hosts, each host one executor cell. The per-host driver
//! ([`Machine::run_fleet`]) admits queued VMs under a residency cap,
//! interleaves residents by virtual time, and destroys each VM through
//! the leak-checked `remove_vm` path when its lifetime ends. A
//! sampling-only recorder captures the long-horizon FMFI /
//! aligned-rate time series per host.

use crate::exec::run_cells;
use crate::report::Table;
use crate::scale::Scale;
use gemini_obs::{SamplePoint, TraceConfig};
use gemini_sim_core::{derive_seed, Cycles, Result};
use gemini_vm_sim::{FleetArrival, FleetOutcome, Machine, SystemKind};
use gemini_workloads::{FleetPlan, FleetSpec, HostPlan, WorkloadGen};

/// Hosts the fleet is packed onto (one executor cell each, per system).
pub const HOSTS: u32 = 4;

/// Systems the fleet is run under: the kernel default and the paper's
/// system. The full registry would multiply a long-horizon grid for
/// little contrast — lifecycle effects separate along this axis.
pub const SYSTEMS: [SystemKind; 2] = [SystemKind::Thp, SystemKind::Gemini];

/// The fleet sizing for `scale`: ≥100 VM lifecycles at demo scale,
/// arrivals fast enough relative to lifetimes that the residency cap
/// binds and hosts queue admissions.
pub fn fleet_spec(scale: &Scale) -> FleetSpec {
    let mean_ops = (scale.ops / 32).max(40);
    FleetSpec {
        vm_count: ((scale.ops / 64).max(24)) as u32,
        hosts: HOSTS,
        host_frames: scale.host_frames,
        resident_frac: 0.35,
        mean_ops,
        arrival_gap: (mean_ops / (4 * HOSTS as u64)).max(2),
        ws_factor: scale.ws_factor,
    }
}

/// One host's completed fleet run.
#[derive(Debug)]
pub struct HostRun {
    /// System label the host ran under.
    pub system: &'static str,
    /// Host ordinal inside its system's fleet.
    pub host: u32,
    /// VMs planned onto this host (admitted over the whole horizon).
    pub planned_vms: usize,
    /// The driver's outcome: per-VM lifecycles, churn count, end state.
    pub outcome: FleetOutcome,
    /// Long-horizon FMFI / aligned-rate time series (sampling-only
    /// recorder; one point per 0.25 ms of simulated time).
    pub samples: Vec<SamplePoint>,
}

/// Results of the whole fleet grid, host-major within each system.
#[derive(Debug)]
pub struct FleetResults {
    /// One entry per (system, host) cell.
    pub runs: Vec<HostRun>,
}

/// Runs the fleet grid: for each system, one deterministic plan split
/// over [`HOSTS`] executor cells.
pub fn run(scale: &Scale) -> Result<FleetResults> {
    let spec = fleet_spec(scale);
    let scale = *scale;
    let mut cells = Vec::new();
    for (si, &system) in SYSTEMS.iter().enumerate() {
        let plan_seed = scale.seed_for("fleet", si as u64);
        let plan = FleetPlan::generate(&spec, plan_seed);
        let cap = plan.resident_cap_frames;
        for host_plan in plan.hosts {
            let seed = derive_seed(plan_seed, "fleet-host", host_plan.host as u64);
            cells.push(move || run_host_cell(system, &scale, host_plan, cap, seed));
        }
    }
    let runs = run_cells(scale.jobs, cells)
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
    Ok(FleetResults { runs })
}

/// Runs one host of `system`'s fleet plan in isolation (fast-forward
/// parity checks and CI smoke cells). The host sees exactly the
/// arrival sequence, cap and seed it would get inside [`run`].
pub fn run_host(system: SystemKind, scale: &Scale, host: u32) -> Result<HostRun> {
    let spec = fleet_spec(scale);
    let si = SYSTEMS.iter().position(|&s| s == system).unwrap_or(0) as u64;
    let plan_seed = scale.seed_for("fleet", si);
    let plan = FleetPlan::generate(&spec, plan_seed);
    let cap = plan.resident_cap_frames;
    let host_plan = plan.hosts.into_iter().find(|h| h.host == host).ok_or(
        gemini_sim_core::SimError::Invariant("fleet host out of range"),
    )?;
    let seed = derive_seed(plan_seed, "fleet-host", host as u64);
    run_host_cell(system, scale, host_plan, cap, seed)
}

/// Runs one host's arrival sequence to completion and collects its
/// outcome plus the sampled time series.
fn run_host_cell(
    system: SystemKind,
    scale: &Scale,
    host_plan: HostPlan,
    resident_cap_frames: u64,
    seed: u64,
) -> Result<HostRun> {
    // Fragmented hosts, clean guests: the multi-tenant cloud the paper
    // models keeps *host* memory fragmented around the churning VMs
    // (tenant-churn daemon active), while each arriving VM boots a
    // fresh guest — its guest-side fragmentation is what the lifecycle
    // produces, not an injected precondition. A clean-slate fleet this
    // small never pressures the allocator and samples a flat-zero FMFI
    // series. A fragmented host starts with no free order-9 block;
    // host compaction re-forms them as pinned frames migrate down.
    let mut cfg = scale.machine_config(false, false, seed);
    cfg.fragment_host = Some(crate::scale::PAPER_FMFI_TARGET);
    // Sampling-only tracing: no event ring, just the time series the
    // fleet exists to produce. Samples are taken at virtual-time
    // boundaries, so the series is byte-identical at any --jobs. The
    // interval is denser than `TraceConfig::all()`'s 2 ms because a
    // quick-scale fleet horizon is itself only a few milliseconds.
    cfg.trace = TraceConfig {
        mask: gemini_obs::cat::NONE,
        ring_capacity: 0,
        sample_interval: Some(Cycles::from_millis(0.25)),
    };
    let mut m = Machine::new(system, cfg);
    let planned_vms = host_plan.vms.len();
    let arrivals: Vec<FleetArrival<WorkloadGen>> = host_plan
        .vms
        .iter()
        .map(|v| FleetArrival {
            index: v.index,
            footprint_frames: v.footprint_frames,
            gen: WorkloadGen::new(v.spec.clone(), v.ops, v.seed),
        })
        .collect();
    let outcome = m.run_fleet(arrivals, resident_cap_frames)?;
    let samples = m.recorder().samples();
    Ok(HostRun {
        system: system.label(),
        host: host_plan.host,
        planned_vms,
        outcome,
        samples,
    })
}

impl FleetResults {
    /// Total VM lifecycles completed across every host and system.
    pub fn total_vms(&self) -> usize {
        self.runs.iter().map(|r| r.outcome.vms.len()).sum()
    }

    /// Total churn events (arrivals + departures) across the grid.
    pub fn total_churn_events(&self) -> u64 {
        self.runs.iter().map(|r| r.outcome.churn_events).sum()
    }

    /// Renders the per-host fleet table plus a per-system summary of
    /// the sampled long-horizon series.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Fleet: VM lifecycle churn per host",
            &[
                "system", "host", "VMs", "churn", "peak res", "end FMFI", "aligned", "samples",
            ],
        );
        for r in &self.runs {
            t.row(vec![
                r.system.to_string(),
                r.host.to_string(),
                r.outcome.vms.len().to_string(),
                r.outcome.churn_events.to_string(),
                r.outcome.peak_resident.to_string(),
                format!("{:.3}", r.outcome.end_host_fmfi),
                format!("{:.3}", r.outcome.mean_aligned_rate()),
                r.samples.len().to_string(),
            ]);
        }
        let mut out = t.render();
        for &system in &SYSTEMS {
            let label = system.label();
            let (first, last) = self.fmfi_span(label);
            out.push_str(&format!(
                "{label}: {} lifecycles, host FMFI {first:.3} -> {last:.3} over the horizon\n",
                self.runs
                    .iter()
                    .filter(|r| r.system == label)
                    .map(|r| r.outcome.vms.len())
                    .sum::<usize>(),
            ));
        }
        out
    }

    /// (earliest, latest) sampled host FMFI across one system's hosts;
    /// zeros when sampling produced no points.
    fn fmfi_span(&self, system: &str) -> (f64, f64) {
        let mut first = None;
        let mut last = None;
        for r in self.runs.iter().filter(|r| r.system == system) {
            if let Some(s) = r.samples.first() {
                let f = first.get_or_insert((s.cycle, s.host_fmfi));
                if s.cycle < f.0 {
                    *f = (s.cycle, s.host_fmfi);
                }
            }
            if let Some(s) = r.samples.last() {
                let l = last.get_or_insert((s.cycle, s.host_fmfi));
                if s.cycle > l.0 {
                    *l = (s.cycle, s.host_fmfi);
                }
            }
        }
        (first.map_or(0.0, |(_, f)| f), last.map_or(0.0, |(_, f)| f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_grid_runs_small_and_renders() {
        let scale = Scale {
            ops: 1_600,
            ..Scale::quick()
        };
        let res = run(&scale).unwrap();
        assert_eq!(res.runs.len(), (SYSTEMS.len() as u32 * HOSTS) as usize);
        let spec = fleet_spec(&scale);
        assert_eq!(
            res.total_vms(),
            spec.vm_count as usize * SYSTEMS.len(),
            "every planned VM completes its lifecycle"
        );
        assert_eq!(
            res.total_churn_events(),
            2 * spec.vm_count as u64 * SYSTEMS.len() as u64
        );
        let rendered = res.render();
        assert!(rendered.contains("Fleet"));
        assert!(rendered.contains("GEMINI") || rendered.contains("Gemini"));
        // The sampler produced a real long-horizon series.
        assert!(res.runs.iter().any(|r| r.samples.len() > 4));
    }
}
