//! [`Machine`] — the simulated host with its VMs.

use crate::result::{FleetOutcome, FleetVmRecord, RunResult};
use crate::system::{ScenarioSpec, SystemKind};
use gemini::{GeminiRuntime, GeminiShared};
use gemini_mm::{alignment_stats, CostModel, Effects, GuestMm, HostMm, HugePolicy, VmaId};
use gemini_obs::{cat, EventKind, Layer, Phase, Profiler, Recorder, SamplePoint, TraceConfig};
use gemini_sim_core::page::PageSize;
use gemini_sim_core::stats::LatencySamples;
use gemini_sim_core::{Cycles, DetRng, FxHashMap, Result, SimError, VmId, HUGE_PAGE_ORDER};
use gemini_tlb::{BatchStats, MmuConfig, MmuSim, PerfCounters, ResolvedTranslation};
use gemini_workloads::{EventStream, WorkloadEvent};
use std::collections::BTreeMap;

/// Configuration of the simulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Host physical memory in base frames.
    pub host_frames: u64,
    /// Guest physical memory per VM, in base frames.
    pub vm_frames: u64,
    /// vCPUs per VM (scales shootdown costs and reported throughput).
    pub vcpus: u32,
    /// MMU/TLB geometry.
    pub mmu: MmuConfig,
    /// Memory-management operation costs.
    pub costs: CostModel,
    /// Fragment each VM's guest memory before it runs. The value is an
    /// FMFI target recorded for provenance; it only switches
    /// fragmentation on (when positive). Fragmented memory always has
    /// one frame pinned in every huge region plus 12% of memory held
    /// (see [`gemini_mm::fragmented`]), and starts the tenant-churn
    /// daemon.
    pub fragment_guest: Option<f64>,
    /// Fragment host memory before the first VM arrives; the value only
    /// switches fragmentation on, as for `fragment_guest`.
    pub fragment_host: Option<f64>,
    /// The workload keeps many zero pages in use (HawkEye's dedup).
    pub zero_heavy: bool,
    /// Run seed (workload streams fork from it).
    pub seed: u64,
    /// Record a policy touch sample every N accesses.
    pub touch_sample: u32,
    /// Cycles per data access beyond translation. The default models the
    /// average DRAM/LLC cost of a random access to a big working set —
    /// translation overhead is measured *relative* to this, so small
    /// datasets show no separation (Figure 2's left side).
    pub data_access_cycles: u64,
    /// Compaction (kcompactd) period.
    pub compact_period: Cycles,
    /// Frames the compactor migrates per pass.
    pub compact_budget: usize,
    /// Tenant-churn period (active only with fragmentation; models the
    /// multi-tenant cloud that keeps memory fragmented).
    pub tenant_period: Cycles,
    /// Free runs the tenant breaks per churn step.
    pub tenant_breaks: usize,
    /// How long tenant intrusions are held before release.
    pub tenant_hold: Cycles,
    /// Freeze Algorithm 1 and pin the booking timeout (ablation).
    pub fixed_booking_timeout: Option<Cycles>,
    /// Override the Gemini per-layer configuration (ablations).
    pub gemini_override: Option<gemini::policy::GeminiConfig>,
    /// Event tracing, metrics and time-series sampling (off by default;
    /// the off recorder costs one atomic-free flag check per call site).
    pub trace: TraceConfig,
    /// Wall-clock span profiler threaded through the machine and both
    /// memory managers (off by default; the off profiler costs one
    /// branch per span site). Cloned configs share the same profiler
    /// state, so a machine built from this config records into the
    /// caller's handle.
    pub profiler: Profiler,
    /// Disables the fast-forward core (the `--no-ff` escape hatch):
    /// every event steps through the faithful per-event path and a
    /// daemon pass runs after every scheduler step, even when provably
    /// a no-op. Simulated results are byte-identical either way —
    /// fast-forward only elides work it can prove has no effect — so
    /// this exists for parity checks and debugging, not correctness.
    pub no_ff: bool,
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self {
            // 1 GiB host, 512 MiB VM: enough headroom over the largest
            // scaled working sets, small enough for fast runs.
            host_frames: 1 << 18,
            vm_frames: 1 << 17,
            vcpus: 1,
            mmu: MmuConfig::default(),
            costs: CostModel::default(),
            fragment_guest: None,
            fragment_host: None,
            zero_heavy: false,
            seed: 0xC0FFEE,
            touch_sample: 16,
            data_access_cycles: 120,
            compact_period: Cycles::from_millis(5.0),
            compact_budget: 48,
            tenant_period: Cycles::from_millis(5.0),
            tenant_breaks: 1,
            tenant_hold: Cycles::from_millis(20.0),
            fixed_booking_timeout: None,
            gemini_override: None,
            trace: TraceConfig::off(),
            profiler: Profiler::off(),
            no_ff: false,
        }
    }
}

/// Per-VM simulator state.
struct VmState {
    guest: GuestMm,
    policy: Box<dyn HugePolicy>,
    mmu: MmuSim,
    clock: Cycles,
    chunks: FxHashMap<usize, VmaId>,
    next_guest_daemon: Cycles,
    next_host_daemon: Cycles,
    next_compact: Cycles,
    compactor: gemini_mm::Compactor,
    tenant: Option<gemini_mm::TenantChurn>,
    next_tenant: Cycles,
    access_count: u64,
}

/// One planned VM waiting in a fleet host's admission queue
/// ([`Machine::run_fleet`]).
pub struct FleetArrival<S> {
    /// Fleet-wide arrival ordinal (carried into the outcome record).
    pub index: u32,
    /// Planned host-frame footprint charged against the residency cap.
    pub footprint_frames: u64,
    /// The VM's whole-lifetime workload event stream.
    pub gen: S,
}

/// Events per scheduler step under [`Cadence::EveryChunk`].
const CHUNK: usize = 64;

/// Events drawn from a resident's stream per refill.
const PULL: usize = CHUNK * 16;

/// How much of a VM's stream one scheduler step consumes before the VM
/// is offered a daemon pass ([`Machine::drive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cadence {
    /// [`CHUNK`] events per step, stepped through
    /// [`Machine::process_chunk`] (single runs).
    EveryChunk,
    /// One request — events up to and including its `EndRequest` — per
    /// step, stepped event by event (collocated and fleet runs).
    EveryRequest,
}

/// A VM the scheduler steps ([`Machine::drive`]). Its stream is drawn
/// [`PULL`] events ahead so one profiler span covers a whole refill
/// instead of every step; generation never observes machine state, so
/// pulling ahead is invisible to the simulation.
struct Resident<S> {
    /// Arrival ordinal: the tie-break between equal clocks.
    ordinal: u32,
    vm: VmId,
    /// Planned footprint of an admitted VM; `None` for a VM the caller
    /// passed in (never destroyed by the scheduler).
    footprint: Option<u64>,
    gen: S,
    /// Events drawn from `gen` but not yet stepped start at `pos`.
    ahead: Vec<WorkloadEvent>,
    pos: usize,
    /// `gen` has returned `None`.
    exhausted: bool,
    ctx: RunCtx,
    /// Cached [`Machine::next_daemon_wakeup`]; new residents start due.
    wakeup: Cycles,
}

impl<S: EventStream> Resident<S> {
    /// Takes one `cadence` step's events off the lookahead and returns
    /// their range in `ahead`, plus true when the stream ended before
    /// the unit completed: that step is the VM's last.
    ///
    /// Kept out of line: with the stream's generator inlined into the
    /// scheduler loop, sequential-hits measured ~7% slower.
    #[inline(never)]
    fn pull(&mut self, cadence: Cadence, prof: &Profiler) -> (std::ops::Range<usize>, bool) {
        loop {
            let rest = &self.ahead[self.pos..];
            let len = match cadence {
                Cadence::EveryChunk => (rest.len() >= CHUNK).then_some(CHUNK),
                Cadence::EveryRequest => rest
                    .iter()
                    .position(|ev| matches!(ev, WorkloadEvent::EndRequest { .. }))
                    .map(|i| i + 1),
            };
            if len.is_some() || self.exhausted {
                let unit = self.pos..self.pos + len.unwrap_or(rest.len());
                self.pos = unit.end;
                return (unit, len.is_none());
            }
            // Keep the incomplete tail and draw the next stretch behind it.
            let _gen_span = prof.span(Phase::WorkloadGen);
            self.ahead.drain(..self.pos);
            self.pos = 0;
            for _ in 0..PULL {
                let Some(ev) = self.gen.next_event() else {
                    self.exhausted = true;
                    break;
                };
                self.ahead.push(ev);
            }
        }
    }
}

/// What one [`Machine::drive`] call produced.
#[derive(Default)]
struct Driven {
    /// Results of the VMs the caller passed in, in the order passed.
    results: Vec<RunResult>,
    /// Lifecycles of admitted VMs, in departure order.
    departed: Vec<FleetVmRecord>,
    /// One per admission plus one per departure.
    churn_events: u64,
    /// Most VMs resident at once after an admission.
    peak_resident: usize,
}

/// Per-run foreground context (latency accumulation).
struct RunCtx {
    latencies: LatencySamples,
    req_acc: Cycles,
    track_latency: bool,
    counters_at_start: PerfCounters,
    clock_at_start: Cycles,
    ops: u64,
}

/// The simulated machine: one host, one or more VMs, one system under
/// test.
pub struct Machine {
    /// Scenario under test (the registry entry, or a custom pairing).
    scenario: ScenarioSpec,
    cfg: MachineConfig,
    host: HostMm,
    host_policy: Box<dyn HugePolicy>,
    host_compactor: gemini_mm::Compactor,
    next_host_compact: Cycles,
    host_tenant: Option<gemini_mm::TenantChurn>,
    next_host_tenant: Cycles,
    vms: BTreeMap<VmId, VmState>,
    shared: Option<GeminiShared>,
    runtime: Option<GeminiRuntime>,
    next_vm_id: u32,
    rng: DetRng,
    recorder: Recorder,
    prof: Profiler,
}

impl Machine {
    /// Builds a machine running `system` (its registry scenario).
    pub fn new(system: SystemKind, cfg: MachineConfig) -> Self {
        Self::from_scenario(system.spec().clone(), cfg)
    }

    /// Builds a machine running an arbitrary [`ScenarioSpec`] — any
    /// (guest, host) policy pairing, registered or not.
    pub fn from_scenario(scenario: ScenarioSpec, cfg: MachineConfig) -> Self {
        let prof = cfg.profiler.clone();
        let _setup = prof.span(Phase::Setup);
        let shared = scenario.is_gemini().then(gemini::shared::new_shared);
        let mut runtime = shared.as_ref().and_then(|s| scenario.runtime(s));
        if let (Some(shared), Some(t)) = (&shared, cfg.fixed_booking_timeout) {
            shared.write().booking_timeout = t;
            if let Some(rt) = &mut runtime {
                rt.adaptive = false;
            }
        }
        let mut host = HostMm::new(cfg.host_frames, cfg.costs.clone());
        let mut rng = DetRng::new(cfg.seed);
        let mut host_pins = Vec::new();
        let mut host_tenant = None;
        if let Some(target) = cfg.fragment_host {
            let mut frag_rng = rng.fork();
            if target > 0.0 {
                (host.buddy, host_pins) =
                    gemini_mm::fragmented(cfg.host_frames, 0.12, &mut frag_rng);
            }
            host_tenant = Some(gemini_mm::TenantChurn::new(rng.fork()));
        }
        let mut host_policy: Box<dyn HugePolicy> =
            match (scenario.is_gemini(), &cfg.gemini_override, &shared) {
                (true, Some(ov), Some(s)) => Box::new(gemini::GeminiPolicy::new(
                    gemini_mm::LayerKind::Host,
                    s.clone(),
                    ov.clone(),
                )),
                _ => scenario.host_policy(shared.as_ref()),
            };
        let recorder = Recorder::new(&cfg.trace);
        host_policy.attach_recorder(recorder.clone());
        host_policy.attach_profiler(prof.clone());
        host.set_recorder(recorder.clone());
        host.set_profiler(prof.clone());
        if let Some(rt) = &mut runtime {
            rt.set_recorder(recorder.clone());
            rt.set_profiler(prof.clone());
        }
        Self {
            scenario,
            cfg,
            host,
            host_policy,
            host_compactor: gemini_mm::Compactor::new(host_pins),
            next_host_compact: Cycles::ZERO,
            host_tenant,
            next_host_tenant: Cycles::ZERO,
            vms: BTreeMap::new(),
            shared,
            runtime,
            next_vm_id: 1,
            rng,
            recorder,
            prof,
        }
    }

    /// The machine's recorder: its event ring, metrics registry and
    /// sampled time series accumulate across every run on this machine.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The scenario this machine runs.
    pub fn scenario(&self) -> &ScenarioSpec {
        &self.scenario
    }

    /// Read access to the host memory manager — lifecycle property
    /// tests check buddy invariants and free-frame accounting across
    /// create/destroy churn from outside the crate.
    pub fn host_mm(&self) -> &gemini_mm::HostMm {
        &self.host
    }

    /// The machine's span profiler (phase-level wall-clock
    /// attribution; the off profiler unless the config supplied one).
    pub fn profiler(&self) -> &Profiler {
        &self.prof
    }

    /// Adds a VM and returns its id.
    ///
    /// Fails when the configured MMU geometry is invalid
    /// ([`SimError::BadCacheGeometry`]).
    pub fn add_vm(&mut self) -> Result<VmId> {
        let _setup = self.prof.span(Phase::Setup);
        let vm = VmId(self.next_vm_id);
        self.next_vm_id += 1;
        self.host.register_vm(vm);
        let mut guest = GuestMm::new(vm, self.cfg.vm_frames, self.cfg.costs.clone());
        let mut guest_pins = Vec::new();
        let mut tenant = None;
        if let Some(target) = self.cfg.fragment_guest {
            let mut frag_rng = self.rng.fork();
            if target > 0.0 {
                (*guest.buddy_mut(), guest_pins) =
                    gemini_mm::fragmented(self.cfg.vm_frames, 0.12, &mut frag_rng);
            }
            tenant = Some(gemini_mm::TenantChurn::new(self.rng.fork()));
        }
        let mut policy: Box<dyn HugePolicy> = match (
            self.scenario.is_gemini(),
            &self.cfg.gemini_override,
            &self.shared,
        ) {
            (true, Some(ov), Some(s)) => Box::new(gemini::GeminiPolicy::new(
                gemini_mm::LayerKind::Guest,
                s.clone(),
                ov.clone(),
            )),
            _ => self
                .scenario
                .guest_policy(self.cfg.zero_heavy, self.shared.as_ref()),
        };
        policy.attach_recorder(self.recorder.clone());
        policy.attach_profiler(self.prof.clone());
        guest.set_recorder(self.recorder.clone());
        guest.set_profiler(self.prof.clone());
        let mut mmu = MmuSim::new(self.cfg.mmu.clone())?;
        mmu.set_recorder(self.recorder.clone(), vm.0);
        self.vms.insert(
            vm,
            VmState {
                guest,
                policy,
                mmu,
                clock: Cycles::ZERO,
                chunks: FxHashMap::default(),
                next_guest_daemon: Cycles::ZERO,
                next_host_daemon: Cycles::ZERO,
                next_compact: Cycles::ZERO,
                compactor: gemini_mm::Compactor::new(guest_pins),
                tenant,
                next_tenant: Cycles::ZERO,
                access_count: 0,
            },
        );
        Ok(vm)
    }

    /// Read access to a VM's guest page table (metrics, tests).
    pub fn guest_table(&self, vm: VmId) -> &gemini_page_table::AddressSpace {
        self.vms[&vm].guest.table()
    }

    /// Read access to a VM's EPT (metrics, tests).
    pub fn ept(&self, vm: VmId) -> Result<&gemini_page_table::AddressSpace> {
        self.host.ept(vm)
    }

    /// Current virtual time of a VM.
    pub fn vm_clock(&self, vm: VmId) -> Result<Cycles> {
        Ok(self.vms.get(&vm).ok_or(SimError::UnknownVm(vm))?.clock)
    }

    /// The MMU counters of a VM.
    pub fn counters(&self, vm: VmId) -> Result<PerfCounters> {
        let vs = self.vms.get(&vm).ok_or(SimError::UnknownVm(vm))?;
        Ok(*vs.mmu.counters())
    }

    /// Always zero: hit-run batching is gone. Kept only for perfbench's
    /// `tlb.batch_*` metrics (see [`BatchStats`]).
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats::default()
    }

    /// Runs a whole workload to completion in `vm`.
    ///
    /// Accepts any [`EventStream`] — a live
    /// [`gemini_workloads::WorkloadGen`] or a pre-generated
    /// [`gemini_workloads::PregenStream`]; generation is
    /// machine-state-independent, so both drive identical trajectories.
    /// Daemon passes fall due every 64 events and once more when the
    /// stream ends.
    pub fn run<S: EventStream>(&mut self, vm: VmId, gen: S) -> Result<RunResult> {
        let mut driven = self.drive(Cadence::EveryChunk, vec![(vm, gen)], Vec::new(), 0)?;
        Ok(driven.results.pop().expect("one result per passed VM"))
    }

    /// The single event driver behind [`Self::run`],
    /// [`Self::run_collocated`] and [`Self::run_fleet`]: a virtual-time
    /// scheduler over resident VMs (DESIGN.md §14).
    ///
    /// `passed` are VMs the caller created. They are resident from the
    /// start, stay alive when their streams end, and are finished — in
    /// the order passed — when the scheduler returns. `queue` is
    /// admitted in order whenever the head's planned footprint fits
    /// under `cap_frames` beside the admitted residents (head-of-line
    /// blocking keeps admission a pure function of the queue; a VM that
    /// does not even fit an empty host is admitted alone). An admitted
    /// VM starts at the current virtual time and is destroyed through
    /// [`Self::remove_vm`] — leak check included — as soon as its stream
    /// ends, handing its capacity back to the queue.
    ///
    /// Each step advances the resident with the smallest (clock,
    /// arrival ordinal) by one `cadence` unit, then offers it a daemon
    /// pass. The pass runs when the VM's cached wakeup is due, or always
    /// under `no_ff`; a skipped pass is provably a no-op
    /// ([`Self::next_daemon_wakeup`]), so both modes are byte-identical.
    /// New residents start due, and the cache is recomputed after every
    /// pass.
    fn drive<S: EventStream>(
        &mut self,
        cadence: Cadence,
        passed: Vec<(VmId, S)>,
        queue: Vec<FleetArrival<S>>,
        cap_frames: u64,
    ) -> Result<Driven> {
        // Every passed VM is validated before any state is touched.
        let mut live: Vec<Resident<S>> = (0u32..)
            .zip(passed)
            .map(|(ordinal, (vm, gen))| self.resident(ordinal, vm, None, gen))
            .collect::<Result<_>>()?;
        let mut pending: std::collections::VecDeque<FleetArrival<S>> = queue.into();
        let mut parked = Vec::new();
        let mut out = Driven::default();
        let mut admitted_frames = 0u64;
        // The clock of the VM that last made progress. Admitted VMs
        // start here so they interleave with the residents instead of
        // replaying the past.
        let mut now = Cycles::ZERO;
        // One span over the whole loop: per-step spans would cost more
        // than the profiler's overhead budget. Refills, faults, daemon
        // passes and VM setup/teardown record as nested spans.
        let _access = self.prof.span(Phase::Access);
        loop {
            while let Some(head) = pending.front() {
                if !live.is_empty() && admitted_frames + head.footprint_frames > cap_frames {
                    break;
                }
                let a = pending.pop_front().expect("front was Some");
                let vm = self.add_vm()?;
                self.vms.get_mut(&vm).expect("just added").clock = now;
                admitted_frames += a.footprint_frames;
                out.churn_events += 1;
                live.push(self.resident(a.index, vm, Some(a.footprint_frames), a.gen)?);
                out.peak_resident = out.peak_resident.max(live.len());
            }
            let Some(idx) =
                (0..live.len()).min_by_key(|&i| (self.vms[&live[i].vm].clock, live[i].ordinal))
            else {
                break;
            };
            let r = &mut live[idx];
            let vm = r.vm;
            let (unit, ended) = r.pull(cadence, &self.prof);
            let events = &r.ahead[unit];
            if cadence == Cadence::EveryChunk && !self.cfg.no_ff {
                self.process_chunk(vm, events, &mut r.ctx)?;
            } else {
                for &ev in events {
                    self.process_event(vm, ev, &mut r.ctx)?;
                }
            }
            if self.cfg.no_ff || self.vms[&vm].clock >= r.wakeup {
                self.run_daemons(vm)?;
                r.wakeup = self.next_daemon_wakeup(vm);
            }
            now = self.vms[&vm].clock;
            if !ended {
                continue;
            }
            let r = live.remove(idx);
            let name = r.gen.spec().name.to_string();
            let Some(footprint) = r.footprint else {
                parked.push((r.ordinal, vm, name, r.ctx));
                continue;
            };
            let result = self.finish(vm, name, r.ctx)?;
            let frames_reclaimed = self.remove_vm(vm)?;
            admitted_frames -= footprint;
            out.churn_events += 1;
            out.departed.push(FleetVmRecord {
                index: r.ordinal,
                result,
                frames_reclaimed,
            });
        }
        parked.sort_unstable_by_key(|p| p.0);
        for (_, vm, name, ctx) in parked {
            out.results.push(self.finish(vm, name, ctx)?);
        }
        Ok(out)
    }

    /// Makes `vm` a scheduler resident whose run starts now.
    fn resident<S: EventStream>(
        &self,
        ordinal: u32,
        vm: VmId,
        footprint: Option<u64>,
        gen: S,
    ) -> Result<Resident<S>> {
        let ctx = RunCtx {
            latencies: LatencySamples::new(),
            req_acc: Cycles::ZERO,
            track_latency: gen.spec().latency_tracked,
            counters_at_start: self.counters(vm)?,
            clock_at_start: self.vm_clock(vm)?,
            ops: 0,
        };
        Ok(Resident {
            ordinal,
            vm,
            footprint,
            gen,
            ahead: Vec::with_capacity(PULL),
            pos: 0,
            exhausted: false,
            ctx,
            wakeup: Cycles::ZERO,
        })
    }

    /// The earliest future cycle at which [`Self::run_daemons`] has due
    /// work for `vm`. A pass before this instant cannot change any
    /// simulated state: daemons, compaction, tenant churn, the Gemini
    /// runtime and the sampler are all period-gated, and none of their
    /// deadlines can move except inside a pass that executed due work.
    fn next_daemon_wakeup(&self, vm: VmId) -> Cycles {
        let vs = &self.vms[&vm];
        let mut d = vs
            .next_guest_daemon
            .min(vs.next_host_daemon)
            .min(vs.next_compact)
            .min(vs.next_tenant)
            .min(self.next_host_compact)
            .min(self.next_host_tenant);
        if let Some(rt) = &self.runtime {
            d = d.min(rt.next_deadline());
        }
        d.min(self.recorder.next_sample_at())
    }

    /// Steps one 64-event chunk, running stretches of already-resident
    /// touches through a tight loop. The loop performs exactly the
    /// faithful per-event work — translate both layers, charge the MMU
    /// model, advance the clock and access count — but hoists the VM
    /// and EPT lookups out of the per-event path. Any event it cannot
    /// prove fault-free and telemetry-free (a missing translation, a
    /// sampled touch, an alloc/free/end-of-request) falls back to
    /// [`Self::process_event`], so the state trajectory is identical to
    /// the per-event `--no-ff` path.
    fn process_chunk(
        &mut self,
        vm: VmId,
        events: &[WorkloadEvent],
        ctx: &mut RunCtx,
    ) -> Result<()> {
        let touch_sample = self.cfg.touch_sample as u64;
        let data_access = Cycles(self.cfg.data_access_cycles);
        // Chunk-handle → VMA start-frame memo: valid while no slow-path
        // event runs (only events and daemons move VMAs, and neither
        // happens inside the tight loop below).
        let mut memo: Option<(usize, u64)> = None;
        let mut i = 0;
        while i < events.len() {
            {
                let vs = self.vms.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
                let ept = self.host.ept(vm)?;
                // Touches left before the next sampled one (which needs
                // the memory managers mutably — the slow path). One
                // division here instead of one per event.
                let mut until_sample =
                    (touch_sample - (vs.access_count + 1) % touch_sample) % touch_sample;
                // Accumulate cost and count locally so the loop keeps them
                // in registers; nothing reads the clock mid-stretch.
                let mut acc = Cycles::ZERO;
                let mut touched = 0u64;
                while let Some(&WorkloadEvent::Touch { chunk, page }) = events.get(i) {
                    if until_sample == 0 {
                        break;
                    }
                    let start_frame = match memo {
                        Some((c, s)) if c == chunk => s,
                        _ => {
                            let Some(&id) = vs.chunks.get(&chunk) else {
                                break;
                            };
                            let Some(vma) = vs.guest.vmas.get(id) else {
                                break;
                            };
                            let s = vma.start_frame();
                            memo = Some((chunk, s));
                            s
                        }
                    };
                    let gva_frame = start_frame + page;
                    // TLB hits need no page-table resolution at all; only
                    // an STLB miss (or a fault) walks the two layers.
                    let out = match vs.mmu.access_unresolved(vm, gva_frame) {
                        Some(out) => out,
                        None => {
                            let Some(gt) = vs.guest.translate(gva_frame) else {
                                break; // Guest fault.
                            };
                            let Some(ht) = ept.translate(gt.pa_frame) else {
                                break; // EPT fault.
                            };
                            vs.mmu.access_after_tlb_miss(
                                vm,
                                gva_frame,
                                ResolvedTranslation {
                                    gpa_frame: gt.pa_frame,
                                    guest_leaf: gt.size,
                                    host_leaf: ht.size,
                                },
                            )
                        }
                    };
                    acc += out.cycles + data_access;
                    touched += 1;
                    until_sample -= 1;
                    i += 1;
                }
                vs.clock += acc;
                ctx.req_acc += acc;
                vs.access_count += touched;
            }
            let Some(&ev) = events.get(i) else {
                break;
            };
            self.process_event(vm, ev, ctx)?;
            // The event may have moved or freed VMAs.
            memo = None;
            i += 1;
        }
        Ok(())
    }

    /// Runs several workloads concurrently, one per VM, interleaved by
    /// virtual time (the collocation experiments, Figures 17–18). Daemon
    /// passes fall due after every request; results come back in the
    /// order the runs were passed.
    pub fn run_collocated<S: EventStream>(
        &mut self,
        runs: Vec<(VmId, S)>,
    ) -> Result<Vec<RunResult>> {
        Ok(self
            .drive(Cadence::EveryRequest, runs, Vec::new(), 0)?
            .results)
    }

    /// Drives this host through a whole fleet arrival/departure process.
    ///
    /// `arrivals` is the host's planned admission queue, in arrival
    /// order. The head is admitted whenever its planned footprint fits
    /// under `resident_cap_frames` beside the VMs already resident (a VM
    /// too big for an empty host is admitted alone); residents
    /// interleave by virtual time, ties broken on the arrival index; a
    /// VM whose event stream ends is finished and destroyed through
    /// [`Self::remove_vm`], leak check included. Daemon passes fall due
    /// after every request (DESIGN.md §14).
    pub fn run_fleet<S: EventStream>(
        &mut self,
        arrivals: Vec<FleetArrival<S>>,
        resident_cap_frames: u64,
    ) -> Result<FleetOutcome> {
        let driven = self.drive(
            Cadence::EveryRequest,
            Vec::new(),
            arrivals,
            resident_cap_frames,
        )?;
        Ok(FleetOutcome {
            vms: driven.departed,
            churn_events: driven.churn_events,
            peak_resident: driven.peak_resident,
            end_host_fmfi: self.host.fragmentation_index(),
            end_free_order9: self.host.buddy.free_blocks_of_order(HUGE_PAGE_ORDER) as u64,
        })
    }

    /// Unmaps every chunk a previous run left in `vm` (the reused-VM
    /// scenario: the workload exits, the VM and its EPT state persist).
    pub fn clear_workload(&mut self, vm: VmId) -> Result<()> {
        let vs = self.vms.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        // Sorted so teardown order is a function of the VMA ids, never
        // of FxHash iteration order — lifecycle parity must not couple
        // to map internals.
        let mut ids: Vec<VmaId> = vs.chunks.drain().map(|(_, id)| id).collect();
        ids.sort_unstable();
        for id in ids {
            let now = vs.clock;
            let fx = vs.guest.munmap(id, vs.policy.as_mut(), now)?;
            Self::apply_fx(vm, vs, fx, &self.prof);
        }
        Ok(())
    }

    /// Destroys `vm` end to end and returns the number of host
    /// base-page-equivalent frames reclaimed.
    ///
    /// The teardown unwinds every layer the VM touched: guest VMAs go
    /// through the same `munmap` path a workload exit takes (so guest
    /// policy bookkeeping stays consistent), the EPT is torn down with
    /// every host frame freed into the machine allocator's live
    /// free-run index (work proportional to the VM's frames, not the
    /// host's), the VM's TLB slab and host `TouchMap` slot are dropped,
    /// and — under Gemini — its per-VM scan is retired from the shared
    /// runtime state. Callers that cache a daemon wakeup deadline (the
    /// fleet driver) must recompute it after membership changes.
    ///
    /// Every teardown runs an explicit leak check, in release builds
    /// too: the frames the EPT held must exactly match what the
    /// allocator got back, and the buddy's full invariants (free-frame
    /// accounting, block layout, run index == the runs the blocks form)
    /// must hold afterwards — one O(host frames) pass over the block
    /// map.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<u64> {
        let _setup = self.prof.span(Phase::Setup);
        self.clear_workload(vm)?;
        // Unwind any VMAs a test or driver mapped outside the chunk
        // table, so the guest side is fully empty before EPT teardown.
        {
            let vs = self.vms.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
            let mut ids: Vec<VmaId> = vs.guest.vmas.iter().map(|v| v.id).collect();
            ids.sort_unstable();
            for id in ids {
                let now = vs.clock;
                let fx = vs.guest.munmap(id, vs.policy.as_mut(), now)?;
                Self::apply_fx(vm, vs, fx, &self.prof);
            }
        }
        let free_before = self.host.buddy.free_frames();
        let ept_backed = self.host.ept(vm)?.mapped_base_page_equiv();
        let freed = self.host.unregister_vm(vm)?;
        if freed != ept_backed {
            return Err(SimError::Invariant("remove_vm freed != EPT-backed frames"));
        }
        if self.host.buddy.free_frames() != free_before + freed {
            return Err(SimError::Invariant("remove_vm leaked host frames"));
        }
        self.host.buddy.check_invariants()?;
        // Dropping the VmState releases the guest manager, its policy
        // and the VM's entire MMU/TLB slab in one structural move.
        self.vms.remove(&vm);
        if let Some(shared) = &self.shared {
            shared.write().scans.remove(&vm);
        }
        self.recorder.counter_add("machine.vms_removed", 1);
        Ok(freed)
    }

    fn process_event(&mut self, vm: VmId, ev: WorkloadEvent, ctx: &mut RunCtx) -> Result<()> {
        let vs = self.vms.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        // Stamp once per event: everything emitted while handling it
        // (policy decisions included) carries the entry clock.
        self.recorder.set_cycle(vs.clock);
        match ev {
            WorkloadEvent::Alloc { chunk, bytes } => {
                let vma = vs.guest.mmap(bytes)?;
                vs.chunks.insert(chunk, vma.id);
                let cost = Cycles(1_200);
                vs.clock += cost;
                ctx.req_acc += cost;
            }
            WorkloadEvent::Free { chunk } => {
                let id = vs
                    .chunks
                    .remove(&chunk)
                    .ok_or(SimError::Invariant("free of unknown chunk"))?;
                let now = vs.clock;
                let fx = vs.guest.munmap(id, vs.policy.as_mut(), now)?;
                let cost = Self::apply_fx(vm, vs, fx, &self.prof);
                ctx.req_acc += cost;
            }
            WorkloadEvent::Touch { chunk, page } => {
                let id = *vs
                    .chunks
                    .get(&chunk)
                    .ok_or(SimError::Invariant("touch of unknown chunk"))?;
                let vma = vs
                    .guest
                    .vmas
                    .get(id)
                    .ok_or(SimError::Invariant("chunk VMA vanished"))?;
                let gva_frame = vma.start_frame() + page;

                // Layer 1: the guest translation, faulting on demand.
                let gt = match vs.guest.translate(gva_frame) {
                    Some(t) => t,
                    None => {
                        let _fault_span = self.prof.span(Phase::FaultPath);
                        let (out, fx) = vs.guest.handle_fault(gva_frame, vs.policy.as_mut())?;
                        self.recorder
                            .emit(cat::FAULT, vm.0, Layer::Guest, || EventKind::Fault {
                                frame: gva_frame,
                                huge: out.size == PageSize::Huge,
                                honored: out.placement_honored,
                            });
                        self.recorder.counter_add("machine.guest_faults", 1);
                        let cost = Self::apply_fx(vm, vs, fx, &self.prof);
                        self.recorder
                            .observe("machine.guest_fault_latency_cycles", cost.0);
                        ctx.req_acc += cost;
                        vs.guest
                            .translate(gva_frame)
                            .ok_or(SimError::Invariant("fault did not map the page"))?
                    }
                };
                let gpa_frame = gt.pa_frame;

                // Layer 2: the EPT backing, faulting on demand.
                let ht = match self.host.ept(vm)?.translate(gpa_frame) {
                    Some(t) => t,
                    None => {
                        let _fault_span = self.prof.span(Phase::FaultPath);
                        let (out, fx) =
                            self.host
                                .handle_fault(vm, gpa_frame, self.host_policy.as_mut())?;
                        self.recorder
                            .emit(cat::FAULT, vm.0, Layer::Host, || EventKind::Fault {
                                frame: gpa_frame,
                                huge: out.size == PageSize::Huge,
                                honored: out.placement_honored,
                            });
                        self.recorder.counter_add("machine.host_faults", 1);
                        let cost = Self::apply_fx(vm, vs, fx, &self.prof);
                        self.recorder
                            .observe("machine.host_fault_latency_cycles", cost.0);
                        ctx.req_acc += cost;
                        self.host
                            .ept(vm)?
                            .translate(gpa_frame)
                            .ok_or(SimError::Invariant("EPT fault did not back the page"))?
                    }
                };

                // The hardware translation itself.
                let out = vs.mmu.access(
                    vm,
                    gva_frame,
                    ResolvedTranslation {
                        gpa_frame,
                        guest_leaf: gt.size,
                        host_leaf: ht.size,
                    },
                );
                let cost = out.cycles + Cycles(self.cfg.data_access_cycles);
                vs.clock += cost;
                ctx.req_acc += cost;

                // Sampled touch telemetry for daemon heuristics.
                vs.access_count += 1;
                if vs.access_count % self.cfg.touch_sample as u64 == 0 {
                    vs.guest.record_touch(gva_frame);
                    self.host.record_touch(vm, gpa_frame);
                }
            }
            WorkloadEvent::EndRequest { cpu } => {
                let cost = Cycles(cpu / self.cfg.vcpus as u64);
                vs.clock += cost;
                ctx.req_acc += cost;
                if ctx.track_latency {
                    ctx.latencies.record(ctx.req_acc);
                }
                ctx.req_acc = Cycles::ZERO;
                ctx.ops += 1;
            }
        }
        Ok(())
    }

    /// Applies effects to a VM: clock, TLB invalidations, shootdown
    /// counters. Returns the foreground cycle cost.
    ///
    /// This is the single funnel from mm-layer `Effects` into the MMU:
    /// no other call site outside `MmuSim` itself mutates TLB residency.
    fn apply_fx(vm: VmId, vs: &mut VmState, fx: Effects, prof: &Profiler) -> Cycles {
        vs.clock += fx.cycles;
        let _shootdown_span = if fx.gva_regions_invalidated.is_empty()
            && fx.gpa_regions_changed.is_empty()
            && fx.shootdowns == 0
        {
            None
        } else {
            Some(prof.span(Phase::TlbShootdown))
        };
        for &r in &fx.gva_regions_invalidated {
            vs.mmu.invalidate_gva_region(vm, r);
        }
        if !fx.gpa_regions_changed.is_empty() {
            for &r in &fx.gpa_regions_changed {
                vs.mmu.invalidate_gpa_region(vm, r);
            }
            // EPT remaps flush the VM's cached translations (INVEPT).
            vs.mmu.invalidate_vm(vm);
        }
        // The stall cycles are already in fx.cycles; count the events.
        vs.mmu.charge_shootdowns(fx.shootdowns, Cycles::ZERO);
        fx.cycles
    }

    /// Runs any due background work for `vm`.
    fn run_daemons(&mut self, vm: VmId) -> Result<()> {
        let _daemon_span = self.prof.span(Phase::DaemonPass);
        let vcpus = self.cfg.vcpus;
        let vs = self.vms.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        let now = vs.clock;
        self.recorder.set_cycle(now);
        if now >= vs.next_guest_daemon {
            let fx = vs.guest.run_daemon(vs.policy.as_mut(), now, vcpus);
            Self::apply_fx(vm, vs, fx, &self.prof);
            vs.next_guest_daemon = now + vs.policy.daemon_period();
        }
        if now >= vs.next_host_daemon {
            let fx = self
                .host
                .run_daemon(vm, self.host_policy.as_mut(), now, vcpus)?;
            Self::apply_fx(vm, vs, fx, &self.prof);
            vs.next_host_daemon = now + self.host_policy.daemon_period();
        }
        // Compaction: the guest's kcompactd over guest-physical memory and
        // the host's over machine memory. Migration stalls bleed into the
        // foreground via the contention model.
        if now >= vs.next_compact {
            let moved = vs
                .compactor
                .step(vs.guest.buddy_mut(), self.cfg.compact_budget);
            let stall = self.cfg.costs.daemon_stall(moved, vcpus);
            if moved > 0 {
                vs.clock += Cycles((stall.0 as f64 * 0.5) as u64);
                self.recorder.emit(cat::MIGRATION, vm.0, Layer::Guest, || {
                    EventKind::Migration { pages: moved }
                });
                self.recorder
                    .counter_add("machine.guest_compact_pages", moved);
            }
            vs.next_compact = now + self.cfg.compact_period;
        }
        if now >= self.next_host_compact {
            let moved = self
                .host_compactor
                .step(&mut self.host.buddy, self.cfg.compact_budget);
            let stall = self.cfg.costs.daemon_stall(moved, vcpus);
            if moved > 0 {
                vs.clock += Cycles((stall.0 as f64 * 0.25) as u64);
                self.recorder
                    .emit(cat::MIGRATION, 0, Layer::Sys, || EventKind::Migration {
                        pages: moved,
                    });
                self.recorder
                    .counter_add("machine.host_compact_pages", moved);
            }
            self.next_host_compact = now + self.cfg.compact_period;
        }
        // Multi-tenant churn keeps memory fragmented over time.
        if now >= vs.next_tenant {
            if let Some(t) = &mut vs.tenant {
                t.step(
                    vs.guest.buddy_mut(),
                    now,
                    self.cfg.tenant_breaks,
                    self.cfg.tenant_hold,
                );
            }
            vs.next_tenant = now + self.cfg.tenant_period;
        }
        if now >= self.next_host_tenant {
            if let Some(t) = &mut self.host_tenant {
                t.step(
                    &mut self.host.buddy,
                    now,
                    self.cfg.tenant_breaks,
                    self.cfg.tenant_hold,
                );
            }
            self.next_host_tenant = now + self.cfg.tenant_period;
        }
        self.tick_runtime(vm);
        self.take_sample(vm);
        Ok(())
    }

    /// Records one time-series point if the sampling interval elapsed.
    fn take_sample(&mut self, vm: VmId) {
        let vs = &self.vms[&vm];
        let now = vs.clock;
        if !self.recorder.sample_due(now) {
            return;
        }
        let c = vs.mmu.counters();
        let tlb_miss_rate = if c.accesses > 0 {
            c.stlb_misses as f64 / c.accesses as f64
        } else {
            0.0
        };
        let Ok(ept) = self.host.ept(vm) else {
            return;
        };
        let aligned_rate = alignment_stats(vs.guest.table(), ept).aligned_rate();
        self.recorder.record_sample(SamplePoint {
            cycle: now.0,
            host_fmfi: self.host.fragmentation_index(),
            guest_fmfi: vs.guest.fragmentation_index(),
            aligned_rate,
            tlb_miss_rate,
            free_order9: self.host.buddy.free_blocks_of_order(9) as u64,
        });
    }

    /// Runs the Gemini cross-layer runtime (MHPS + Algorithm 1) if due.
    fn tick_runtime(&mut self, active_vm: VmId) {
        let Some(rt) = &mut self.runtime else {
            return;
        };
        let now = self.vms[&active_vm].clock;
        if now < rt.next_deadline() {
            // The tick would be a period-gated no-op; skip the
            // telemetry gather (miss counters, FMFI, table refs) too.
            return;
        }
        let tlb_misses: u64 = self
            .vms
            .values()
            .map(|vs| vs.mmu.counters().stlb_misses)
            .sum();
        let fmfi = self.host.fragmentation_index();
        let tables: Vec<(
            VmId,
            &gemini_page_table::AddressSpace,
            &gemini_page_table::AddressSpace,
        )> = self
            .vms
            .iter()
            .filter_map(|(&id, vs)| {
                self.host
                    .ept(id)
                    .ok()
                    .map(|ept| (id, vs.guest.table(), ept))
            })
            .collect();
        let cost = rt.tick(now, &tables, tlb_misses, fmfi);
        drop(tables);
        // Scan work runs on a host core; a fraction contends with the VM.
        let stall = Cycles((cost.0 as f64 * 0.1) as u64);
        self.vms
            .get_mut(&active_vm)
            .expect("caller validated VM")
            .clock += stall;
    }

    fn finish(&mut self, vm: VmId, workload: String, mut ctx: RunCtx) -> Result<RunResult> {
        let vs = &self.vms[&vm];
        let alignment = alignment_stats(vs.guest.table(), self.host.ept(vm)?);
        // A clock behind its run-start value is a simulator bug (vtime
        // would silently saturate to zero); fail loudly with the pair.
        let vtime = vs
            .clock
            .checked_sub(ctx.clock_at_start)
            .ok_or(SimError::ClockRegression {
                now: vs.clock,
                start: ctx.clock_at_start,
            })?;
        Ok(RunResult {
            system: self.scenario.label,
            workload,
            ops: ctx.ops,
            vtime,
            mean_latency: ctx.latencies.mean(),
            p99_latency: ctx.latencies.p99(),
            counters: vs.mmu.counters().delta_since(&ctx.counters_at_start),
            alignment,
            guest_fmfi: vs.guest.fragmentation_index(),
            host_fmfi: self.host.fragmentation_index(),
            bucket_reuse_rate: vs.policy.bucket_reuse_rate(),
        })
    }
}

// The parallel experiment executor builds a machine inside a cell
// closure and runs it on a worker thread; everything a machine owns
// (policies, recorder handles, the Gemini shared channel) must be
// `Send`. Checked at compile time so a non-`Send` field cannot creep
// in unnoticed.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Machine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_workloads::{spec_by_name, MicrobenchGen, WorkloadGen};

    fn small_cfg() -> MachineConfig {
        MachineConfig {
            host_frames: 1 << 15, // 128 MiB.
            vm_frames: 1 << 14,   // 64 MiB.
            ..MachineConfig::default()
        }
    }

    fn run_micro(system: SystemKind, dataset: u64, ops: u64) -> RunResult {
        let mut m = Machine::new(system, small_cfg());
        let vm = m.add_vm().unwrap();
        let gen = MicrobenchGen::generator(dataset, ops, 7);
        m.run(vm, gen).unwrap()
    }

    #[test]
    fn base_base_runs_and_counts() {
        let r = run_micro(SystemKind::HostBVmB, 8 << 20, 200);
        assert_eq!(r.ops, 200);
        assert!(r.vtime > Cycles::ZERO);
        assert!(r.counters.accesses > 10_000);
        assert_eq!(r.alignment.guest_huge, 0);
        assert_eq!(r.alignment.host_huge, 0);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn aligned_huge_config_beats_base_and_misaligned() {
        // Figure 2's shape: with a dataset well beyond base-page TLB
        // coverage, Host-H-VM-H wins; misaligned single-layer huge pages
        // barely help.
        let ops = 300;
        let dataset = 32 << 20;
        let base = run_micro(SystemKind::HostBVmB, dataset, ops);
        let mis_host = run_micro(SystemKind::HostHVmB, dataset, ops);
        let mis_guest = run_micro(SystemKind::HostBVmH, dataset, ops);
        let aligned = run_micro(SystemKind::HostHVmH, dataset, ops);
        assert!(
            aligned.vtime < base.vtime,
            "aligned {} vs base {}",
            aligned.vtime,
            base.vtime
        );
        assert!(aligned.vtime < mis_host.vtime);
        assert!(aligned.vtime < mis_guest.vtime);
        assert!(
            aligned.tlb_misses() * 4 < base.tlb_misses(),
            "aligned TLB misses should collapse: {} vs {}",
            aligned.tlb_misses(),
            base.tlb_misses()
        );
        // Misaligned huge pages do NOT collapse TLB misses.
        assert!(mis_host.tlb_misses() * 2 > base.tlb_misses());
        // Aligned rate sanity.
        assert!(aligned.aligned_rate() > 0.9);
        assert_eq!(mis_host.aligned_rate(), 0.0);
    }

    #[test]
    fn small_dataset_shows_no_separation() {
        // Figure 2's left side: dataset fits the TLB, configs tie.
        let base = run_micro(SystemKind::HostBVmB, 2 << 20, 2_000);
        let aligned = run_micro(SystemKind::HostHVmH, 2 << 20, 2_000);
        let ratio = base.vtime.0 as f64 / aligned.vtime.0 as f64;
        assert!(ratio < 1.3, "configs should be close: ratio {ratio}");
    }

    #[test]
    fn thp_and_gemini_run_real_workloads() {
        for system in [SystemKind::Thp, SystemKind::Gemini] {
            let mut m = Machine::new(system, small_cfg());
            let vm = m.add_vm().unwrap();
            let spec = spec_by_name("Redis")
                .expect("Redis workload registered")
                .scaled(1.0 / 16.0);
            let gen = WorkloadGen::new(spec, 2_000, 11);
            let r = m.run(vm, gen).unwrap();
            assert_eq!(r.ops, 2_000);
            assert!(r.mean_latency > Cycles::ZERO, "Redis tracks latency");
            assert!(r.p99_latency > Cycles::ZERO);
        }
    }

    #[test]
    fn gemini_forms_well_aligned_pages_on_fragmented_memory() {
        // Needs runs long enough for the (deliberately slow) coalescing
        // daemons to act: larger memory and more ops than the other
        // machine tests.
        let cfg = MachineConfig {
            host_frames: 1 << 17,
            vm_frames: 1 << 16,
            fragment_guest: Some(0.9),
            fragment_host: Some(0.9),
            ..MachineConfig::default()
        };
        let spec = spec_by_name("Masstree")
            .expect("Masstree workload registered")
            .scaled(1.0 / 4.0);

        let mut gem = Machine::new(SystemKind::Gemini, cfg.clone());
        let vm = gem.add_vm().unwrap();
        let r_gem = gem
            .run(vm, WorkloadGen::new(spec.clone(), 20_000, 5))
            .unwrap();

        let mut thp = Machine::new(SystemKind::Thp, cfg);
        let vm = thp.add_vm().unwrap();
        let r_thp = thp.run(vm, WorkloadGen::new(spec, 20_000, 5)).unwrap();

        assert!(
            r_gem.aligned_rate() > r_thp.aligned_rate(),
            "Gemini {} vs THP {}",
            r_gem.aligned_rate(),
            r_thp.aligned_rate()
        );
        // TLB-miss separation needs full-scale working sets (the harness
        // experiments); at this test scale the counts are noise, and only
        // a few daemon passes fit the run, so the absolute rate floor is
        // modest (bench-scale floors live in the paper-claims tests).
        assert!(r_gem.aligned_rate() > 0.5, "{}", r_gem.aligned_rate());
    }

    #[test]
    fn reused_vm_keeps_ept_state() {
        let mut m = Machine::new(SystemKind::Gemini, small_cfg());
        let vm = m.add_vm().unwrap();
        let svm = spec_by_name("SVM")
            .expect("SVM workload registered")
            .scaled(1.0 / 32.0);
        m.run(vm, WorkloadGen::new(svm, 1_000, 3)).unwrap();
        let backed_before = m.ept(vm).unwrap().mapped_base_page_equiv();
        m.clear_workload(vm).unwrap();
        // Guest memory is free again, but the EPT still backs it.
        assert_eq!(m.guest_table(vm).mapped_base_page_equiv(), 0);
        assert_eq!(m.ept(vm).unwrap().mapped_base_page_equiv(), backed_before);
        // A second workload runs fine in the reused VM.
        let redis = spec_by_name("Redis")
            .expect("Redis workload registered")
            .scaled(1.0 / 32.0);
        let r = m.run(vm, WorkloadGen::new(redis, 1_000, 4)).unwrap();
        assert_eq!(r.ops, 1_000);
    }

    #[test]
    fn remove_vm_returns_every_host_frame() {
        for system in [SystemKind::Thp, SystemKind::Gemini] {
            let mut m = Machine::new(system, small_cfg());
            let vm1 = m.add_vm().unwrap();
            let vm2 = m.add_vm().unwrap();
            let free_fresh = m.host.buddy.free_frames();
            let redis = spec_by_name("Redis")
                .expect("Redis workload registered")
                .scaled(1.0 / 32.0);
            m.run(vm1, WorkloadGen::new(redis.clone(), 800, 3)).unwrap();
            m.run(vm2, WorkloadGen::new(redis.clone(), 800, 4)).unwrap();
            let survivor_backed = m.ept(vm2).unwrap().mapped_base_page_equiv();

            let freed = m.remove_vm(vm1).unwrap();
            assert!(freed > 0, "a run must have backed host frames");
            // The survivor is untouched and still runs.
            assert_eq!(
                m.ept(vm2).unwrap().mapped_base_page_equiv(),
                survivor_backed
            );
            assert!(m.ept(vm1).is_err(), "EPT of the removed VM is gone");
            let r = m.run(vm2, WorkloadGen::new(redis, 400, 5)).unwrap();
            assert_eq!(r.ops, 400);

            // Removing the survivor drains the host back to pristine.
            m.remove_vm(vm2).unwrap();
            assert_eq!(m.host.buddy.free_frames(), free_fresh);
            assert_eq!(m.host.buddy.free_runs(), vec![(0, small_cfg().host_frames)]);
            m.host.buddy.check_invariants().unwrap();
            // Gemini's shared scan state holds no retired VMs.
            if let Some(shared) = &m.shared {
                assert!(shared.read().scans.is_empty());
            }
        }
    }

    /// Host 0's admission queue of `plan`, with live generators.
    fn fleet_arrivals(plan: &gemini_workloads::FleetPlan) -> Vec<FleetArrival<WorkloadGen>> {
        plan.hosts[0]
            .vms
            .iter()
            .map(|v| FleetArrival {
                index: v.index,
                footprint_frames: v.footprint_frames,
                gen: WorkloadGen::new(v.spec.clone(), v.ops, v.seed),
            })
            .collect()
    }

    #[test]
    fn fleet_drains_leak_free_and_matches_no_ff() {
        use gemini_workloads::{FleetPlan, FleetSpec};
        let fleet = FleetSpec {
            vm_count: 12,
            hosts: 1,
            host_frames: small_cfg().host_frames,
            resident_frac: 0.25,
            mean_ops: 60,
            arrival_gap: 4,
            ws_factor: 1.0 / 32.0,
        };
        let plan = FleetPlan::generate(&fleet, 21);
        let run = |no_ff: bool| {
            let cfg = MachineConfig {
                no_ff,
                ..small_cfg()
            };
            let mut m = Machine::new(SystemKind::Gemini, cfg);
            let out = m
                .run_fleet(fleet_arrivals(&plan), plan.resident_cap_frames)
                .unwrap();
            // The fleet drained: every VM departed, the host is empty
            // and pristine (the per-departure leak checks all passed to
            // get here; this is the end-to-end restatement).
            assert_eq!(out.vms.len(), 12);
            assert_eq!(out.churn_events, 24);
            assert!(out.peak_resident >= 2, "fleet VMs must overlap");
            assert_eq!(m.host.buddy.free_frames(), small_cfg().host_frames);
            m.host.buddy.check_invariants().unwrap();
            out
        };
        let fast = run(false);
        let faithful = run(true);
        assert_eq!(format!("{fast:?}"), format!("{faithful:?}"));
    }

    #[test]
    fn tight_loop_is_byte_identical_to_no_ff() {
        // The chunked tight loop must leave every compared surface of
        // the result identical to the faithful `no_ff` path, which steps
        // event by event. Streamcluster under THP streams through
        // resident huge entries (long same-region hit runs); Canneal
        // under fragmented Gemini is mostly base entries and walks.
        let cases = [
            ("Streamcluster", SystemKind::Thp, None),
            ("Canneal", SystemKind::Gemini, Some(0.5)),
        ];
        for (wl, system, frag) in cases {
            let spec = spec_by_name(wl)
                .expect("catalog workload")
                .scaled(1.0 / 32.0);
            let run = |no_ff: bool| {
                let cfg = MachineConfig {
                    no_ff,
                    fragment_host: frag,
                    ..small_cfg()
                };
                let mut m = Machine::new(system, cfg);
                let vm = m.add_vm().unwrap();
                let r = m.run(vm, WorkloadGen::new(spec.clone(), 800, 11)).unwrap();
                format!("{r:?}")
            };
            assert_eq!(
                run(false),
                run(true),
                "{wl}: the tight loop changed the result"
            );
        }
    }

    #[test]
    fn zero_fragment_target_leaves_memory_unfragmented() {
        // A non-positive target switches the fragmenter off but, as a
        // `Some`, still starts the tenant-churn daemon; any positive
        // target fragments to the same layout.
        let build = |target: f64| {
            let cfg = MachineConfig {
                fragment_host: Some(target),
                fragment_guest: Some(target),
                ..small_cfg()
            };
            let mut m = Machine::new(SystemKind::Thp, cfg);
            let vm = m.add_vm().unwrap();
            let guest_free = m.vms[&vm].guest.buddy().free_frames();
            (
                m.host.buddy.free_runs(),
                guest_free,
                m.host_tenant.is_some(),
            )
        };
        let (runs, guest_free, tenant) = build(0.0);
        assert_eq!(runs, vec![(0, small_cfg().host_frames)]);
        assert_eq!(guest_free, small_cfg().vm_frames);
        assert!(tenant);
        let (low, _, _) = build(0.1);
        let (high, guest_free, _) = build(0.9);
        assert_eq!(low, high, "the target does not shape the layout");
        assert!(high.len() > 1);
        assert!(guest_free < small_cfg().vm_frames);
    }

    #[test]
    fn removed_vm_id_is_not_reused() {
        let mut m = Machine::new(SystemKind::Thp, small_cfg());
        let vm1 = m.add_vm().unwrap();
        m.remove_vm(vm1).unwrap();
        let vm2 = m.add_vm().unwrap();
        assert_ne!(vm1, vm2, "VM ids are lifetime-unique");
        assert!(m.remove_vm(vm1).is_err(), "double remove is an error");
    }

    #[test]
    fn collocated_vms_share_the_host() {
        let cfg = MachineConfig {
            host_frames: 1 << 16,
            ..small_cfg()
        };
        let mut m = Machine::new(SystemKind::Thp, cfg);
        let vm1 = m.add_vm().unwrap();
        let vm2 = m.add_vm().unwrap();
        let redis = spec_by_name("Redis").expect("Redis workload registered");
        let a = WorkloadGen::new(redis.scaled(1.0 / 32.0), 500, 1);
        let shore = spec_by_name("Shore").expect("Shore workload registered");
        let b = WorkloadGen::new(shore.scaled(1.0 / 32.0), 500, 2);
        let rs = m.run_collocated(vec![(vm1, a), (vm2, b)]).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs[0].ops, 500);
        assert_eq!(rs[1].ops, 500);
        assert_ne!(rs[0].workload, rs[1].workload);
    }

    #[test]
    fn deterministic_end_to_end() {
        let run = || {
            let mut m = Machine::new(SystemKind::Ingens, small_cfg());
            let vm = m.add_vm().unwrap();
            let spec = spec_by_name("Xapian")
                .expect("Xapian workload registered")
                .scaled(1.0 / 32.0);
            m.run(vm, WorkloadGen::new(spec, 800, 9)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.vtime, b.vtime);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.alignment, b.alignment);
    }

    #[test]
    fn ninth_system_is_one_registry_style_entry() {
        // Adding a new (guest, host) pairing takes nothing but a
        // ScenarioSpec value; the Machine consumes it directly.
        use crate::system::{PolicyCtor, ScenarioSpec};
        use gemini_policies::PolicyKind;
        let toy = ScenarioSpec {
            label: "Toy-HG",
            guest: PolicyCtor::Fixed(PolicyKind::HugeAlways),
            host: PolicyCtor::Fixed(PolicyKind::Thp),
            gemini: None,
            evaluated: false,
            tabulated: false,
            cost_hint: 300,
        };
        let mut m = Machine::from_scenario(toy, small_cfg());
        let vm = m.add_vm().unwrap();
        let gen = MicrobenchGen::generator(8 << 20, 200, 7);
        let r = m.run(vm, gen).unwrap();
        assert_eq!(r.system, "Toy-HG");
        assert_eq!(r.ops, 200);
        assert!(r.vtime > Cycles::ZERO);
        // The guest side really went huge while the host ran THP.
        assert!(r.alignment.guest_huge > 0);
    }
}
