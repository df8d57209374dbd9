//! VM lifecycle churn property suite (DESIGN.md §14).
//!
//! `Machine::remove_vm` promises that destroying a VM returns *every*
//! host frame it held — EPT torn down, frames back in the buddy
//! allocator, free-run index consistent — and leaves survivors
//! untouched. This suite drives DetRng-seeded random
//! create/run/destroy interleavings against that promise: after every
//! departure the buddy invariants (including index == rescan) must
//! hold, survivors must keep running, and a fully drained host must be
//! byte-identical to a freshly built one. A second leg churns VMs on a
//! fragmented host, where freed frames merge into a scattered
//! allocator, and a work-counter guard pins teardown to O(VM frames).

use gemini_sim_core::{DetRng, VmId};
use gemini_vm_sim::{FleetArrival, Machine, MachineConfig, SystemKind};
use gemini_workloads::{spec_by_name, WorkloadGen};

/// Churn systems: the kernel default and the paper's system (the
/// Gemini runtime carries the most per-VM state to retire).
const SYSTEMS: [SystemKind; 2] = [SystemKind::Thp, SystemKind::Gemini];

/// Workloads drawn during churn — mixed access shapes, small enough
/// (scaled 1/64) that several fit a small host at once.
const NAMES: [&str; 4] = ["Redis", "Memcached", "SVM", "Masstree"];

fn small_cfg() -> MachineConfig {
    MachineConfig {
        host_frames: 1 << 15,
        vm_frames: 1 << 13,
        ..MachineConfig::default()
    }
}

fn gen_for(name: &str, ops: u64, seed: u64) -> WorkloadGen {
    let spec = spec_by_name(name)
        .expect("catalog workload")
        .scaled(1.0 / 64.0);
    WorkloadGen::new(spec, ops, seed)
}

/// Buddy state checks that must hold after every VM departure: the
/// allocator's internal invariants (free counts, split consistency)
/// and the persistent free-run index agreeing byte-for-byte with a
/// from-scratch bitmap rescan.
fn assert_buddy_consistent(m: &Machine) {
    let buddy = &m.host_mm().buddy;
    buddy
        .check_invariants()
        .expect("buddy invariants after churn");
    assert_eq!(
        buddy.free_runs(),
        buddy.free_runs_rescan(),
        "free-run index diverged from rescan"
    );
}

/// `small_cfg` with the host pre-fragmented: pinned frames scatter the
/// allocator, so departures merge freed frames into many short runs.
/// The tenant-churn daemon takes no frames, so every frame a drained
/// host holds is one the fragmenter pinned.
fn fragmented_cfg() -> MachineConfig {
    MachineConfig {
        fragment_host: Some(0.6),
        tenant_breaks: 0,
        ..small_cfg()
    }
}

/// Drives a DetRng-seeded create/run/destroy interleaving on a machine
/// built from `cfg`, checking the buddy after every departure, and
/// returns the machine with the VMs still resident.
fn churn(system: SystemKind, cfg: MachineConfig, seed: u64) -> (Machine, Vec<VmId>) {
    let mut m = Machine::new(system, cfg);
    let mut rng = DetRng::new(seed);
    let mut live: Vec<VmId> = Vec::new();
    let mut lifecycles = 0u32;
    for _ in 0..24 {
        let create = live.len() < 2 || (live.len() < 5 && rng.chance(0.5));
        if create {
            let vm = m.add_vm().expect("host has room at this scale");
            let name = NAMES[rng.below(NAMES.len() as u64) as usize];
            let ops = 120 + rng.below(240);
            m.run(vm, gen_for(name, ops, rng.below(1 << 20)))
                .expect("workload runs");
            live.push(vm);
        } else {
            let vm = live.swap_remove(rng.below(live.len() as u64) as usize);
            let freed = m.remove_vm(vm).expect("teardown succeeds");
            assert!(freed > 0, "a VM that ran a workload held frames");
            assert_buddy_consistent(&m);
            lifecycles += 1;
        }
    }
    assert!(lifecycles >= 5, "sequence exercised real churn");
    // Survivors are untouched by their neighbours' teardowns: each
    // keeps accepting work on the same machine.
    for &vm in &live {
        m.run(vm, gen_for("Redis", 80, 9)).expect("survivor runs");
    }
    (m, live)
}

#[test]
fn random_churn_is_leak_free_and_drains_to_a_fresh_host() {
    for system in SYSTEMS {
        for seed in [3u64, 17, 1009] {
            let cfg = small_cfg();
            let (mut m, mut live) = churn(system, cfg.clone(), seed);
            // Drain the host completely: every frame is back and the
            // buddy is byte-identical to a freshly built machine's —
            // free frame count, free-run list, invariants.
            for vm in live.drain(..) {
                m.remove_vm(vm).expect("drain teardown succeeds");
                assert_buddy_consistent(&m);
            }
            let fresh = Machine::new(system, cfg);
            assert_eq!(
                m.host_mm().buddy.free_frames(),
                fresh.host_mm().buddy.free_frames(),
                "{system:?}/seed {seed}: churned host leaked frames"
            );
            assert_eq!(
                m.host_mm().buddy.free_runs(),
                fresh.host_mm().buddy.free_runs(),
                "{system:?}/seed {seed}: churned host free layout differs from fresh"
            );
        }
    }
}

#[test]
fn random_churn_on_a_fragmented_host_is_leak_free() {
    // Freed frames merge into a scattered allocator here. The drained
    // host keeps the fragmenter's pinned frames, so its free-frame count
    // is compared with a freshly fragmented host's. The layouts are not
    // compared: host compaction may have moved pinned frames.
    for system in SYSTEMS {
        for seed in [5u64, 29] {
            let cfg = fragmented_cfg();
            let (mut m, live) = churn(system, cfg.clone(), seed);
            for vm in live {
                m.remove_vm(vm).expect("drain teardown succeeds");
                assert_buddy_consistent(&m);
            }
            let fresh = Machine::new(system, cfg);
            assert_eq!(
                m.host_mm().buddy.free_frames(),
                fresh.host_mm().buddy.free_frames(),
                "{system:?}/seed {seed}: churned fragmented host leaked frames"
            );
        }
    }
}

#[test]
fn teardown_index_work_scales_with_the_vm_not_the_host() {
    // Deterministic complexity guard: the run-index updates one EPT
    // teardown adds are bounded by the host frames it freed, and far
    // below the number of runs a fragmented host holds. Rebuilding the
    // whole index would re-insert every run.
    let cfg = MachineConfig {
        host_frames: 1 << 17,
        trace: gemini_obs::TraceConfig::all(),
        ..fragmented_cfg()
    };
    let mut m = Machine::new(SystemKind::Thp, cfg);
    let vm = m.add_vm().unwrap();
    m.run(vm, gen_for("Redis", 40, 11)).unwrap();
    let index_updates = |m: &Machine| {
        m.recorder()
            .registry()
            .counters()
            .into_iter()
            .find(|&(name, _)| name == "buddy.index_updates")
            .map_or(0, |(_, v)| v)
    };
    // Unmap the guest side first: its frees count against the same
    // counter, and this guard is about the host allocator.
    m.clear_workload(vm).unwrap();
    let runs = m.host_mm().buddy.free_runs().len() as u64;
    let before = index_updates(&m);
    let freed = m.remove_vm(vm).unwrap();
    let added = index_updates(&m) - before;
    // Each freed block moves at most three index entries.
    assert!(
        added <= 3 * freed,
        "{added} index updates for {freed} freed frames"
    );
    assert!(
        added * 10 < runs,
        "{added} index updates against {runs} host runs"
    );
}

#[test]
fn drained_host_runs_new_vms_identically_to_a_fresh_one() {
    // Teardown must leave no residual per-VM state: after a burst of
    // neighbours is created, run and fully destroyed, a new VM's run
    // on the drained machine must be byte-identical to the same
    // (spec, ops, seed) on a freshly built host. (While neighbours are
    // still resident their frames legitimately shape allocation; after
    // a full drain nothing may.)
    for system in SYSTEMS {
        let mut fresh = Machine::new(system, small_cfg());
        let vm = fresh.add_vm().unwrap();
        let baseline = fresh.run(vm, gen_for("Redis", 400, 77)).unwrap();

        let mut churned = Machine::new(system, small_cfg());
        for i in 0..3u64 {
            let n = churned.add_vm().unwrap();
            churned
                .run(n, gen_for(NAMES[i as usize], 150 + 30 * i, 5 + i))
                .unwrap();
            churned.remove_vm(n).unwrap();
        }
        let subject = churned.add_vm().unwrap();
        let after_churn = churned.run(subject, gen_for("Redis", 400, 77)).unwrap();

        // Every per-VM surface must match: translation counters, huge
        // page alignment, latency and fragmentation. `vtime` is
        // exempt — host-global daemons (the compactor's cursor and
        // deadlines) deliberately persist across VM lifetimes, like a
        // real kcompactd, and shift background-pass timing by a few
        // cycles without touching any per-VM outcome.
        let surfaces = |r: &gemini_vm_sim::RunResult| {
            format!(
                "{:?} {:?} {:?} {:?} {} {} {}",
                r.counters,
                r.alignment,
                r.mean_latency,
                r.p99_latency,
                r.guest_fmfi,
                r.host_fmfi,
                r.bucket_reuse_rate
            )
        };
        assert_eq!(
            surfaces(&baseline),
            surfaces(&after_churn),
            "{system:?}: destroyed neighbours leaked state into a later VM's run"
        );
    }
}

#[test]
fn fleet_driver_matches_manual_lifecycle_accounting() {
    // The fleet driver is just `add_vm`/`run`/`remove_vm` under a
    // residency cap: its reclaimed-frame total must equal what the
    // teardowns reported, and the drained host must be pristine.
    let cfg = small_cfg();
    let host_frames = cfg.host_frames;
    let mut m = Machine::new(SystemKind::Gemini, cfg);
    let arrivals: Vec<FleetArrival<WorkloadGen>> = (0..8u32)
        .map(|i| {
            let name = NAMES[i as usize % NAMES.len()];
            FleetArrival {
                index: i,
                footprint_frames: 512,
                gen: gen_for(name, 100 + 20 * i as u64, 1000 + i as u64),
            }
        })
        .collect();
    let outcome = m.run_fleet(arrivals, host_frames / 4).unwrap();
    assert_eq!(outcome.vms.len(), 8);
    assert_eq!(outcome.churn_events, 16);
    assert_eq!(
        outcome.frames_reclaimed(),
        outcome.vms.iter().map(|v| v.frames_reclaimed).sum::<u64>()
    );
    assert!(outcome.frames_reclaimed() > 0);
    assert_buddy_consistent(&m);
    assert_eq!(m.host_mm().buddy.free_frames(), host_frames);
    assert_eq!(m.host_mm().buddy.free_runs(), vec![(0, host_frames)]);
}
