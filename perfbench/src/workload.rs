//! The four workloads: their inputs, their cells, and one pass over
//! those cells.
//!
//! Every workload is a closed batch: one thread runs its cells back to
//! back. A cell is one simulated machine — a single VM driven to the
//! end of its event stream, or (fleet-churn) one host driven through a
//! whole arrival/departure plan. All inputs derive from the run's seed.
//!
//! A pass runs every cell once in one of three modes:
//! * plain — what the end-to-end metrics time: events come from the
//!   live source (a `WorkloadGen`, or a `TraceStream` over the recorded
//!   bytes), and only machine set-up is timed separately;
//! * traced — each call into a layer is bracketed by a span. Events are
//!   produced up front (generated, or decoded from the recording) under
//!   their own span, so the simulation span contains no event-source
//!   time;
//! * counting — the simulator's own recorder is switched on so its work
//!   counters can be read. Never timed.

use crate::check;
use crate::probe::{HostProbe, REFERENCE_S};
use crate::spans::Tracer;
use gemini_buddy::BuddyAllocator;
use gemini_obs::{cat, TraceConfig};
use gemini_page_table::{AddressSpace, LeafSize};
use gemini_sim_core::{derive_seed, VmId, PAGES_PER_HUGE_PAGE};
use gemini_tlb::{BatchStats, PerfCounters, ResolvedTranslation};
use gemini_vm_sim::{FleetArrival, FleetOutcome, Machine, MachineConfig, RunResult, SystemKind};
use gemini_workloads::{
    spec_by_name, EventStream, FleetPlan, FleetSpec, HostPlan, TraceHeader, TraceStream,
    TraceWriter, WorkloadEvent, WorkloadGen, WorkloadSpec,
};
use std::io::Cursor;
use std::time::Instant;

/// Host physical memory per machine: 1 GiB of 4 KiB frames.
const HOST_FRAMES: u64 = 1 << 18;
/// Guest physical memory per VM: 512 MiB of 4 KiB frames.
pub(crate) const VM_FRAMES: u64 = 1 << 17;
/// Working-set multiplier applied to every catalog workload.
const WS_FACTOR: f64 = 0.25;
/// Fragmentation (FMFI) the pre-conditioned machines start at.
const FRAG_TARGET: f64 = 0.9;
/// Hosts the fleet is packed onto, per system.
const FLEET_HOSTS: u32 = 4;
/// Systems the fleet runs under.
const FLEET_SYSTEMS: [SystemKind; 2] = [SystemKind::Thp, SystemKind::Gemini];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Canneal (uniform random access), fragmented, all eight systems.
    UniformWalk,
    /// Streamcluster (sequential access), fragmented, all eight systems.
    SequentialHits,
    /// VM arrival/departure churn over four hosts, THP and GEMINI.
    FleetChurn,
    /// A recorded Redis trace (Zipf 0.99) replayed under all eight
    /// systems.
    ZipfReplay,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::UniformWalk,
        Workload::SequentialHits,
        Workload::FleetChurn,
        Workload::ZipfReplay,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformWalk => "uniform-walk",
            Workload::SequentialHits => "sequential-hits",
            Workload::FleetChurn => "fleet-churn",
            Workload::ZipfReplay => "zipf-replay",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Operations per cell (single-VM workloads) or the fleet sizing
    /// knob (fleet-churn), chosen so one pass takes about a second on a
    /// 2-core x86-64 host and a run repeats it many times.
    pub fn standard_ops(self) -> u64 {
        match self {
            Workload::UniformWalk => 4_000,
            Workload::SequentialHits => 4_000,
            Workload::FleetChurn => 4_000,
            Workload::ZipfReplay => 16_000,
        }
    }
}

/// The event source of one cell.
#[derive(Debug, Clone)]
enum Source {
    /// A live generator over a scaled catalog workload.
    Live {
        spec: WorkloadSpec,
        ops: u64,
        seed: u64,
    },
    /// The workload's recorded trace (`Prepared::trace`).
    Replay,
    /// One host of a fleet plan.
    Fleet { host: HostPlan, cap: u64, seed: u64 },
}

#[derive(Debug, Clone)]
struct CellPlan {
    system: SystemKind,
    source: Source,
}

/// A workload's inputs, made from the seed before any timing starts.
#[derive(Debug)]
pub struct Prepared {
    cells: Vec<CellPlan>,
    /// The `gemini-trace-v1` recording zipf-replay replays; empty for
    /// the other workloads.
    trace: Vec<u8>,
    /// True when the workload's request latency is tracked, so the
    /// GEMINI-vs-THP comparison uses mean latency, not throughput.
    latency_tracked: bool,
}

/// Builds the inputs of `workload` at `ops` operations per cell.
pub fn prepare(workload: Workload, ops: u64, seed: u64) -> Result<Prepared, String> {
    let catalog = |name: &str| {
        spec_by_name(name)
            .map(|s| s.scaled(WS_FACTOR))
            .ok_or_else(|| format!("workload {name} missing from the catalog"))
    };
    let every_system = |source: Source| -> Vec<CellPlan> {
        SystemKind::evaluated()
            .into_iter()
            .map(|system| CellPlan {
                system,
                source: source.clone(),
            })
            .collect()
    };
    // One input seed per workload, shared by all of its systems, so
    // every system sees exactly the same events.
    let cell_seed = derive_seed(seed, workload.name(), 0);
    let mut trace = Vec::new();
    let mut latency_tracked = false;
    let cells = match workload {
        Workload::UniformWalk | Workload::SequentialHits => {
            let name = if workload == Workload::UniformWalk {
                "Canneal"
            } else {
                "Streamcluster"
            };
            let spec = catalog(name)?;
            latency_tracked = spec.latency_tracked;
            every_system(Source::Live {
                spec,
                ops,
                seed: cell_seed,
            })
        }
        Workload::ZipfReplay => {
            let spec = catalog("Redis")?;
            latency_tracked = spec.latency_tracked;
            trace = record(spec, ops, cell_seed)?;
            every_system(Source::Replay)
        }
        Workload::FleetChurn => fleet_cells(ops, seed),
    };
    Ok(Prepared {
        cells,
        trace,
        latency_tracked,
    })
}

/// Records `ops` operations of `spec` as a `gemini-trace-v1` document
/// in memory. Generation never reads machine state, so no machine is
/// needed to record.
fn record(spec: WorkloadSpec, ops: u64, seed: u64) -> Result<Vec<u8>, String> {
    let header = TraceHeader {
        spec: spec.clone(),
        scale: "demo".to_string(),
        fragmented: true,
        ops,
        seed,
    };
    let io = |e: std::io::Error| format!("recording the trace: {e}");
    let mut writer = TraceWriter::new(Vec::new(), &header).map_err(io)?;
    let mut gen = WorkloadGen::new(spec, ops, seed);
    while let Some(ev) = gen.next_event() {
        writer.write_event(&ev).map_err(io)?;
    }
    Ok(writer.finish().map_err(io)?.0)
}

/// The fleet: for each system, one plan over [`FLEET_HOSTS`] hosts,
/// sized from `ops` the way the simulator's fleet experiment sizes it.
fn fleet_cells(ops: u64, seed: u64) -> Vec<CellPlan> {
    let mean_ops = (ops / 32).max(40);
    let spec = FleetSpec {
        vm_count: ((ops / 64).max(24)) as u32,
        hosts: FLEET_HOSTS,
        host_frames: HOST_FRAMES,
        resident_frac: 0.35,
        mean_ops,
        arrival_gap: (mean_ops / (4 * u64::from(FLEET_HOSTS))).max(2),
        ws_factor: WS_FACTOR,
    };
    let mut cells = Vec::new();
    for (si, &system) in FLEET_SYSTEMS.iter().enumerate() {
        let plan_seed = derive_seed(seed, "fleet", si as u64);
        let plan = FleetPlan::generate(&spec, plan_seed);
        for host in plan.hosts {
            let seed = derive_seed(plan_seed, "fleet-host", u64::from(host.host));
            cells.push(CellPlan {
                system,
                source: Source::Fleet {
                    host,
                    cap: plan.resident_cap_frames,
                    seed,
                },
            });
        }
    }
    cells
}

/// Recorder settings for a counting pass: counters on, no event ring,
/// no sampler. Every other pass runs with the recorder off.
fn recorder_config(counting: bool) -> TraceConfig {
    if counting {
        TraceConfig {
            mask: cat::ALL,
            ring_capacity: 0,
            sample_interval: None,
        }
    } else {
        TraceConfig::off()
    }
}

/// Machine for a single-VM cell: the demo scale's calibrated regime,
/// guest and host pre-fragmented.
fn single_config(zero_heavy: bool, seed: u64, counting: bool) -> MachineConfig {
    MachineConfig {
        host_frames: HOST_FRAMES,
        vm_frames: VM_FRAMES,
        fragment_guest: Some(FRAG_TARGET),
        fragment_host: Some(FRAG_TARGET),
        zero_heavy,
        seed,
        trace: recorder_config(counting),
        ..MachineConfig::default()
    }
}

/// Machine for a fleet host: moderately fragmented host, clean guests,
/// as in the simulator's fleet experiment.
fn fleet_config(seed: u64, counting: bool) -> MachineConfig {
    MachineConfig {
        host_frames: HOST_FRAMES,
        vm_frames: VM_FRAMES,
        fragment_host: Some(FRAG_TARGET * 2.0 / 3.0),
        seed,
        trace: recorder_config(counting),
        ..MachineConfig::default()
    }
}

/// What a cell simulated.
#[derive(Debug)]
pub enum Sim {
    /// A single VM's run.
    Single(RunResult),
    /// A fleet host's run, with the number of VMs planned onto it.
    Fleet {
        /// The fleet run's outcome.
        outcome: FleetOutcome,
        /// VMs the plan routed to this host.
        planned: usize,
    },
}

/// One cell's outcome in one pass.
#[derive(Debug)]
pub struct CellOutcome {
    /// The system the cell ran.
    pub system: SystemKind,
    /// The simulated result, or the error the simulator returned.
    pub sim: Result<Sim, String>,
    /// Closed-form batching statistics of a single-VM cell (zero for a
    /// fleet host, whose VMs are gone when the run ends).
    pub batch: BatchStats,
    /// Events the cell consumed (traced passes only, where the events
    /// are produced up front).
    pub events: u64,
    /// The simulator's recorder counters (counting passes only).
    pub recorder: Vec<(&'static str, u64)>,
}

impl CellOutcome {
    fn new(system: SystemKind) -> Self {
        Self {
            system,
            sim: Err("not run".to_string()),
            batch: BatchStats::default(),
            events: 0,
            recorder: Vec::new(),
        }
    }

    /// Digest of the simulated results (the `Debug` rendering of every
    /// result field, which covers all simulated outputs).
    pub fn digest(&self) -> u64 {
        check::fnv1a(format!("{:?}", self.sim).as_bytes())
    }

    /// MMU counters, summed over a fleet host's VMs.
    pub fn counters(&self) -> PerfCounters {
        match &self.sim {
            Ok(Sim::Single(r)) => r.counters,
            Ok(Sim::Fleet { outcome, .. }) => {
                sum_counters(outcome.vms.iter().map(|v| v.result.counters))
            }
            Err(_) => PerfCounters::new(),
        }
    }

    /// A recorder counter (zero when absent or not a counting pass).
    pub fn recorder_counter(&self, name: &str) -> u64 {
        self.recorder
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// The correctness check: the cell ran, its counters obey their
    /// identities (and, in a counting pass, the recorder's batching
    /// counters agree with the machine's), fleet accounting holds, and
    /// its digest equals `reference`.
    pub fn verify(&self, reference: u64) -> Result<(), String> {
        match &self.sim {
            Err(e) => return Err(format!("simulation failed: {e}")),
            Ok(Sim::Single(r)) => {
                check::counter_identities(&r.counters, self.batch.hits)?;
                if !self.recorder.is_empty() {
                    let recorded = BatchStats {
                        runs: self.recorder_counter("tlb.batch_runs"),
                        hits: self.recorder_counter("tlb.batched_hits"),
                        breaks: self.recorder_counter("tlb.batch_breaks"),
                    };
                    if recorded != self.batch {
                        return Err(format!(
                            "recorder batch counters {recorded:?} != machine {:?}",
                            self.batch
                        ));
                    }
                }
            }
            Ok(Sim::Fleet { outcome, planned }) => check::fleet_accounting(outcome, *planned)?,
        }
        check::digest_matches(self.digest(), reference)
    }
}

/// Field-wise sum of counter blocks.
pub fn sum_counters(blocks: impl IntoIterator<Item = PerfCounters>) -> PerfCounters {
    blocks.into_iter().fold(PerfCounters::new(), |mut sum, c| {
        sum.accesses += c.accesses;
        sum.l1_hits += c.l1_hits;
        sum.stlb_hits += c.stlb_hits;
        sum.stlb_misses += c.stlb_misses;
        sum.huge_walks += c.huge_walks;
        sum.walk_mem_refs += c.walk_mem_refs;
        sum.ntlb_hits += c.ntlb_hits;
        sum.ntlb_misses += c.ntlb_misses;
        sum.gpwc_hits += c.gpwc_hits;
        sum.epwc_hits += c.epwc_hits;
        sum.translation_cycles += c.translation_cycles;
        sum.shootdowns += c.shootdowns;
        sum
    })
}

/// One pass over every cell of a workload. Timings are raw host
/// seconds; divide by `slowdown` for seconds at reference host speed.
#[derive(Debug)]
pub struct PassOutcome {
    /// Host seconds for the whole pass, set-up included, probe samples
    /// excluded.
    pub wall_s: f64,
    /// Host seconds inside `Machine::new` + `Machine::add_vm` (fleet:
    /// `Machine::new`; its VMs are added inside `run_fleet`).
    pub setup_s: f64,
    /// Mean probe sample duration over the reference duration: above 1
    /// when the host ran slower than the reference host.
    pub slowdown: f64,
    /// Every cell's outcome, in cell order.
    pub cells: Vec<CellOutcome>,
}

impl PassOutcome {
    /// Simulated accesses over every cell.
    pub fn accesses(&self) -> u64 {
        self.cells.iter().map(|c| c.counters().accesses).sum()
    }

    /// Per-cell digests, in cell order.
    pub fn digests(&self) -> Vec<u64> {
        self.cells.iter().map(CellOutcome::digest).collect()
    }
}

/// How a pass runs (see the module docs).
pub enum Mode<'a> {
    /// Untraced, live event sources.
    Plain,
    /// Spans around every layer call, events produced up front.
    Traced(&'a mut Tracer),
    /// Simulator recorder on, to read its counters.
    Counting,
}

impl Mode<'_> {
    fn tracer(&mut self) -> Option<&mut Tracer> {
        match self {
            Mode::Traced(t) => Some(t),
            _ => None,
        }
    }

    fn open(&mut self, name: &'static str, cell: u32) -> Option<usize> {
        self.tracer().map(|t| t.begin(name, cell))
    }

    fn close(&mut self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer(), id) {
            t.end(id);
        }
    }
}

/// A decoded trace, replayed from memory.
struct Decoded {
    spec: WorkloadSpec,
    events: std::vec::IntoIter<WorkloadEvent>,
}

impl EventStream for Decoded {
    fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.events.next()
    }
}

/// Runs every cell of `prep` once, with one host-speed probe sample
/// before each cell.
pub fn run_pass(prep: &Prepared, mode: &mut Mode, probe: &mut HostProbe) -> PassOutcome {
    let start = Instant::now();
    let pass_span = mode.open("pass", 0);
    let mut setup_s = 0.0;
    let mut probe_s = 0.0;
    let cells: Vec<CellOutcome> = prep
        .cells
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            let cell = i as u32 + 1;
            probe_s += probe.sample();
            let span = mode.open("cell", cell);
            let out = run_cell(prep, plan, mode, cell, &mut setup_s);
            mode.close(span);
            out
        })
        .collect();
    mode.close(pass_span);
    let slowdown = probe_s / (prep.cells.len() as f64 * REFERENCE_S);
    PassOutcome {
        wall_s: start.elapsed().as_secs_f64() - probe_s,
        setup_s,
        slowdown,
        cells,
    }
}

fn run_cell(
    prep: &Prepared,
    plan: &CellPlan,
    mode: &mut Mode,
    cell: u32,
    setup_s: &mut f64,
) -> CellOutcome {
    let counting = matches!(mode, Mode::Counting);
    let traced = matches!(mode, Mode::Traced(_));
    let mut out = CellOutcome::new(plan.system);
    match &plan.source {
        Source::Live { spec, ops, seed } => {
            let cfg = single_config(spec.zero_heavy, *seed, counting);
            let gen = WorkloadGen::new(spec.clone(), *ops, *seed);
            if traced {
                let span = mode.open("workloads.gen", cell);
                let events = gen.pregenerate();
                mode.close(span);
                out.events = events.remaining() as u64;
                run_single(plan.system, cfg, events, mode, cell, setup_s, &mut out);
            } else {
                run_single(plan.system, cfg, gen, mode, cell, setup_s, &mut out);
            }
        }
        Source::Replay => {
            if traced {
                let span = mode.open("workloads.decode", cell);
                let decoded = decode(&prep.trace);
                mode.close(span);
                match decoded {
                    Ok((header, events)) => {
                        out.events = events.len() as u64;
                        let cfg = single_config(header.spec.zero_heavy, header.seed, counting);
                        let stream = Decoded {
                            spec: header.spec,
                            events: events.into_iter(),
                        };
                        run_single(plan.system, cfg, stream, mode, cell, setup_s, &mut out);
                    }
                    Err(e) => out.sim = Err(e),
                }
            } else {
                match TraceStream::new(Cursor::new(&prep.trace[..])) {
                    Ok(mut stream) => {
                        let header = stream.header().clone();
                        let cfg = single_config(header.spec.zero_heavy, header.seed, counting);
                        run_single(plan.system, cfg, &mut stream, mode, cell, setup_s, &mut out);
                        if let Err(e) = stream.check_complete() {
                            out.sim = Err(e.to_string());
                        }
                    }
                    Err(e) => out.sim = Err(e.to_string()),
                }
            }
        }
        Source::Fleet { host, cap, seed } => {
            let cfg = fleet_config(*seed, counting);
            let planned = host.vms.len();
            let live =
                |v: &gemini_workloads::VmPlan| WorkloadGen::new(v.spec.clone(), v.ops, v.seed);
            if traced {
                let span = mode.open("workloads.gen", cell);
                let arrivals: Vec<_> = host
                    .vms
                    .iter()
                    .map(|v| arrival(v, live(v).pregenerate()))
                    .collect();
                mode.close(span);
                out.events = arrivals.iter().map(|a| a.gen.remaining() as u64).sum();
                run_fleet(
                    plan.system,
                    cfg,
                    arrivals,
                    *cap,
                    planned,
                    mode,
                    cell,
                    setup_s,
                    &mut out,
                );
            } else {
                let arrivals = host.vms.iter().map(|v| arrival(v, live(v))).collect();
                run_fleet(
                    plan.system,
                    cfg,
                    arrivals,
                    *cap,
                    planned,
                    mode,
                    cell,
                    setup_s,
                    &mut out,
                );
            }
        }
    }
    out
}

fn arrival<S: EventStream>(v: &gemini_workloads::VmPlan, gen: S) -> FleetArrival<S> {
    FleetArrival {
        index: v.index,
        footprint_frames: v.footprint_frames,
        gen,
    }
}

/// Decodes a whole recording into memory.
fn decode(trace: &[u8]) -> Result<(TraceHeader, Vec<WorkloadEvent>), String> {
    let mut stream = TraceStream::new(Cursor::new(trace)).map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    while let Some(ev) = stream.next_event() {
        events.push(ev);
    }
    stream.check_complete().map_err(|e| e.to_string())?;
    Ok((stream.header().clone(), events))
}

/// Builds a machine with one VM under a `vm_sim.setup` span.
fn setup_machine(
    system: SystemKind,
    cfg: MachineConfig,
    with_vm: bool,
    mode: &mut Mode,
    cell: u32,
    setup_s: &mut f64,
) -> (Machine, Result<Option<VmId>, String>) {
    let span = mode.open("vm_sim.setup", cell);
    let start = Instant::now();
    let mut machine = Machine::new(system, cfg);
    let vm = if with_vm {
        machine.add_vm().map(Some).map_err(|e| e.to_string())
    } else {
        Ok(None)
    };
    *setup_s += start.elapsed().as_secs_f64();
    mode.close(span);
    (machine, vm)
}

fn run_single<S: EventStream>(
    system: SystemKind,
    cfg: MachineConfig,
    events: S,
    mode: &mut Mode,
    cell: u32,
    setup_s: &mut f64,
    out: &mut CellOutcome,
) {
    let (mut machine, vm) = setup_machine(system, cfg, true, mode, cell, setup_s);
    let vm = match vm {
        Ok(Some(vm)) => vm,
        Ok(None) => unreachable!("a VM was requested"),
        Err(e) => {
            out.sim = Err(e);
            return;
        }
    };
    let span = mode.open("vm_sim.run", cell);
    let result = machine.run(vm, events);
    mode.close(span);
    out.sim = result.map(Sim::Single).map_err(|e| e.to_string());
    out.batch = machine.batch_stats();
    out.recorder = machine.recorder().registry().counters();
}

#[allow(clippy::too_many_arguments)]
fn run_fleet<S: EventStream>(
    system: SystemKind,
    cfg: MachineConfig,
    arrivals: Vec<FleetArrival<S>>,
    cap: u64,
    planned: usize,
    mode: &mut Mode,
    cell: u32,
    setup_s: &mut f64,
    out: &mut CellOutcome,
) {
    let (mut machine, _) = setup_machine(system, cfg, false, mode, cell, setup_s);
    let span = mode.open("vm_sim.run", cell);
    let result = machine.run_fleet(arrivals, cap);
    mode.close(span);
    out.sim = result
        .map(|outcome| Sim::Fleet { outcome, planned })
        .map_err(|e| e.to_string());
    out.recorder = machine.recorder().registry().counters();
}

/// The modelled end-to-end figures of one pass. They are exact for a
/// given seed: any change means the model changed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimFigures {
    /// Σ translation cycles / Σ accesses over every cell.
    pub translation_cycles_per_access: f64,
    /// GEMINI's well-aligned huge-page rate, in percent (fleet: the mean
    /// over GEMINI's lifecycles).
    pub gemini_aligned_pct: f64,
    /// GEMINI's simulated throughput over THP's (latency-tracked inputs:
    /// THP's mean latency over GEMINI's; fleet: Σops/Σvtime).
    pub gemini_speedup_vs_thp: f64,
}

/// Computes the modelled figures, or `None` when a needed cell failed.
pub fn sim_figures(prep: &Prepared, cells: &[CellOutcome]) -> Option<SimFigures> {
    let total = sum_counters(cells.iter().map(CellOutcome::counters));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let runs = |system: SystemKind| -> Option<Vec<&RunResult>> {
        let mut out = Vec::new();
        for c in cells.iter().filter(|c| c.system == system) {
            match c.sim.as_ref().ok()? {
                Sim::Single(r) => out.push(r),
                Sim::Fleet { outcome, .. } => out.extend(outcome.vms.iter().map(|v| &v.result)),
            }
        }
        (!out.is_empty()).then_some(out)
    };
    let gemini = runs(SystemKind::Gemini)?;
    let thp = runs(SystemKind::Thp)?;
    let aligned = gemini.iter().map(|r| r.aligned_rate()).sum::<f64>() / gemini.len() as f64;
    let ops_per_cycle = |rs: &[&RunResult]| {
        let ops: u64 = rs.iter().map(|r| r.ops).sum();
        let cycles: u64 = rs.iter().map(|r| r.vtime.0).sum();
        ratio(ops as f64, cycles as f64)
    };
    let mean_latency = |rs: &[&RunResult]| {
        rs.iter().map(|r| r.mean_latency.0 as f64).sum::<f64>() / rs.len() as f64
    };
    let speedup = if prep.latency_tracked {
        ratio(mean_latency(&thp), mean_latency(&gemini))
    } else {
        ratio(ops_per_cycle(&gemini), ops_per_cycle(&thp))
    };
    Some(SimFigures {
        translation_cycles_per_access: ratio(
            total.translation_cycles as f64,
            total.accesses as f64,
        ),
        gemini_aligned_pct: aligned * 100.0,
        gemini_speedup_vs_thp: speedup,
    })
}

/// Layer state captured from one of the workload's machines, for the
/// per-layer microbenchmarks.
#[derive(Debug)]
pub struct Snapshot {
    /// The VM the tables belong to.
    pub vm: VmId,
    /// The host allocator right after set-up (pre-conditioned).
    pub host_buddy: BuddyAllocator,
    /// The guest page table after the run.
    pub guest_table: AddressSpace,
    /// The EPT after the run.
    pub ept: AddressSpace,
    /// Every mapped guest frame with its resolved two-layer translation,
    /// in guest-address order.
    pub resolved: Vec<(u64, ResolvedTranslation)>,
}

/// Most translations a snapshot keeps.
const SNAPSHOT_TRANSLATIONS: usize = 1 << 16;

/// Runs the workload's GEMINI cell once more, untimed, and captures its
/// layer state. For fleet-churn, whose VMs are gone when a host's run
/// ends, it runs the first VM planned onto GEMINI's first host alone on
/// a machine configured like that host.
pub fn snapshot(prep: &Prepared) -> Result<Snapshot, String> {
    let plan = prep
        .cells
        .iter()
        .find(|c| c.system == SystemKind::Gemini)
        .ok_or("the workload has no GEMINI cell")?;
    let mut no_setup = 0.0;
    let mut mode = Mode::Plain;
    let (cfg, mut events): (MachineConfig, Box<dyn EventStream>) = match &plan.source {
        Source::Live { spec, ops, seed } => (
            single_config(spec.zero_heavy, *seed, false),
            Box::new(WorkloadGen::new(spec.clone(), *ops, *seed)),
        ),
        Source::Replay => {
            let (header, events) = decode(&prep.trace)?;
            (
                single_config(header.spec.zero_heavy, header.seed, false),
                Box::new(Decoded {
                    spec: header.spec,
                    events: events.into_iter(),
                }),
            )
        }
        Source::Fleet { host, seed, .. } => {
            let v = host.vms.first().ok_or("the fleet host has no VMs")?;
            (
                fleet_config(*seed, false),
                Box::new(WorkloadGen::new(v.spec.clone(), v.ops, v.seed)),
            )
        }
    };
    let (mut machine, vm) = setup_machine(plan.system, cfg, true, &mut mode, 0, &mut no_setup);
    let vm = vm?.ok_or("no VM")?;
    let host_buddy = machine.host_mm().buddy.clone();
    machine.run(vm, &mut *events).map_err(|e| e.to_string())?;
    let guest_table = machine.guest_table(vm).clone();
    let ept = machine.ept(vm).map_err(|e| e.to_string())?.clone();
    let resolved = resolve(&guest_table, &ept);
    if resolved.is_empty() {
        return Err("the snapshot VM mapped no memory".to_string());
    }
    Ok(Snapshot {
        vm,
        host_buddy,
        guest_table,
        ept,
        resolved,
    })
}

/// Resolves every mapped guest frame through both tables.
fn resolve(guest: &AddressSpace, ept: &AddressSpace) -> Vec<(u64, ResolvedTranslation)> {
    let mut frames: Vec<(u64, u64, LeafSize)> = guest
        .iter_base()
        .map(|(va, pa)| (va, pa, LeafSize::Base))
        .collect();
    for (va_huge, pa_huge) in guest.iter_huge() {
        for i in 0..PAGES_PER_HUGE_PAGE {
            frames.push((
                va_huge * PAGES_PER_HUGE_PAGE + i,
                pa_huge * PAGES_PER_HUGE_PAGE + i,
                LeafSize::Huge,
            ));
        }
    }
    frames.sort_unstable_by_key(|&(va, _, _)| va);
    frames
        .into_iter()
        .filter_map(|(va, gpa, guest_leaf)| {
            ept.translate(gpa).map(|host| {
                (
                    va,
                    ResolvedTranslation {
                        gpa_frame: gpa,
                        guest_leaf,
                        host_leaf: host.size,
                    },
                )
            })
        })
        .take(SNAPSHOT_TRANSLATIONS)
        .collect()
}
