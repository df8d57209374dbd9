//! Per-layer microbenchmarks, built from public API only.
//!
//! Each benchmark times one layer call on state captured from the
//! workload ([`Snapshot`]): the host allocator right after
//! pre-conditioning, and the guest table and EPT after the run. The
//! memory-manager and policy benchmarks build a fresh guest per
//! evaluated policy instead, because a machine's guest manager is not
//! reachable through its public API. A sample times a batch of calls
//! and reports nanoseconds per call; the benchmarks' samples are taken
//! round-robin (interleaved), and each reports the median and the
//! interquartile range of its samples.

use crate::stats;
use crate::workload::{Snapshot, VM_FRAMES};
use gemini_buddy::BuddyAllocator;
use gemini_mm::{CostModel, GuestMm};
use gemini_page_table::AddressSpace;
use gemini_sim_core::{Cycles, DetRng, VmId, HUGE_PAGE_ORDER, HUGE_PAGE_SIZE, PAGES_PER_HUGE_PAGE};
use gemini_tlb::{MmuConfig, MmuSim, ResolvedTranslation};
use gemini_vm_sim::SystemKind;
use std::hint::black_box;
use std::time::Instant;

/// One microbenchmark's figures.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroResult {
    /// Metric name, e.g. `tlb.walk_ns`.
    pub name: &'static str,
    /// Median over samples, in nanoseconds per call.
    pub median_ns: f64,
    /// Interquartile range over samples, in nanoseconds per call.
    pub iqr_ns: f64,
}

/// One sample: nanoseconds per call over a timed batch.
type Sampler<'a> = Box<dyn FnMut() -> Result<f64, String> + 'a>;

/// Names of every microbenchmark, in reporting order.
pub const NAMES: [&str; 10] = [
    "tlb.hit_ns",
    "tlb.walk_ns",
    "page_table.translate_ns",
    "page_table.map_unmap_ns",
    "page_table.promote_ns",
    "buddy.alloc_free_ns",
    "buddy.huge_alloc_ns",
    "buddy.congruent_fit_ns",
    "mm.fault_ns",
    "policies.daemon_pass_ns",
];

/// Runs every microbenchmark for `rounds` interleaved rounds.
pub fn run(snap: &Snapshot, seed: u64, rounds: usize) -> Result<Vec<MicroResult>, String> {
    let mut rng = DetRng::new(seed);
    let mut samplers: Vec<Sampler> = vec![
        tlb_hit(snap)?,
        tlb_walk(snap, &mut rng),
        translate(snap, &mut rng),
        map_unmap(snap),
        promote(snap)?,
        alloc_free(snap),
        huge_alloc(snap),
        congruent_fit(snap, &mut rng),
        fault(),
        daemon_pass(),
    ];
    let mut samples = vec![Vec::with_capacity(rounds); samplers.len()];
    for _ in 0..rounds {
        for (sampler, out) in samplers.iter_mut().zip(&mut samples) {
            out.push(sampler()?);
        }
    }
    Ok(NAMES
        .iter()
        .zip(samples)
        .map(|(&name, s)| MicroResult {
            name,
            median_ns: stats::median(&s),
            iqr_ns: stats::iqr(&s),
        })
        .collect())
}

fn ns_per(start: Instant, calls: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / calls as f64
}

fn shuffled(snap: &Snapshot, rng: &mut DetRng, n: usize) -> Vec<(u64, ResolvedTranslation)> {
    let mut all = snap.resolved.clone();
    rng.shuffle(&mut all);
    all.into_iter().cycle().take(n).collect()
}

fn mmu() -> Result<MmuSim, String> {
    MmuSim::new(MmuConfig::default()).map_err(|e| e.to_string())
}

/// `MmuSim::access_unresolved` on entries already resident in the TLBs:
/// the first 16 mapped guest frames, which fall in distinct L1 sets.
fn tlb_hit(snap: &Snapshot) -> Result<Sampler<'_>, String> {
    const CALLS: usize = 1 << 16;
    let vm = snap.vm;
    let hot: Vec<(u64, ResolvedTranslation)> = snap.resolved.iter().take(16).copied().collect();
    let mut mmu = mmu()?;
    for &(frame, t) in &hot {
        mmu.access(vm, frame, t);
    }
    Ok(Box::new(move || {
        let start = Instant::now();
        for _ in 0..CALLS / hot.len() {
            for &(frame, _) in &hot {
                black_box(mmu.access_unresolved(vm, black_box(frame)))
                    .ok_or("a resident entry missed the TLBs")?;
            }
        }
        Ok(ns_per(start, CALLS / hot.len() * hot.len()))
    }))
}

/// `MmuSim::access` on a fresh MMU, fed the workload's resolved
/// translations in random order: mostly nested walks through the
/// page-walk caches and the nested TLB.
fn tlb_walk(snap: &Snapshot, rng: &mut DetRng) -> Sampler<'static> {
    const CALLS: usize = 1 << 13;
    let vm = snap.vm;
    let order = shuffled(snap, rng, CALLS);
    Box::new(move || {
        let mut mmu = mmu()?;
        let start = Instant::now();
        for &(frame, t) in &order {
            black_box(mmu.access(vm, black_box(frame), t));
        }
        Ok(ns_per(start, order.len()))
    })
}

/// `AddressSpace::translate` over the touched frames, on the guest
/// table and then on the EPT for the frame it yields.
fn translate<'a>(snap: &'a Snapshot, rng: &mut DetRng) -> Sampler<'a> {
    const FRAMES: usize = 1 << 14;
    let frames: Vec<u64> = shuffled(snap, rng, FRAMES)
        .into_iter()
        .map(|(f, _)| f)
        .collect();
    Box::new(move || {
        let start = Instant::now();
        for &frame in &frames {
            let gpa = snap
                .guest_table
                .translate(black_box(frame))
                .ok_or("unmapped guest frame")?;
            black_box(
                snap.ept
                    .translate(gpa.pa_frame)
                    .ok_or("unbacked guest frame")?,
            );
        }
        Ok(ns_per(start, 2 * frames.len()))
    })
}

/// First guest huge region above everything the snapshot mapped.
fn free_region(snap: &Snapshot) -> u64 {
    let top = snap.resolved.last().map_or(0, |&(f, _)| f);
    (top >> HUGE_PAGE_ORDER) + 2
}

/// `map_base` then `unmap_base` of 512 fresh pages on a copy of the
/// workload's guest table; one call is one map/unmap pair.
fn map_unmap(snap: &Snapshot) -> Sampler<'_> {
    let mut table: AddressSpace = snap.guest_table.clone();
    let base = free_region(snap) << HUGE_PAGE_ORDER;
    let pages = PAGES_PER_HUGE_PAGE;
    Box::new(move || {
        let start = Instant::now();
        for i in 0..pages {
            table
                .map_base(base + i, base + i)
                .map_err(|e| e.to_string())?;
        }
        for i in 0..pages {
            black_box(table.unmap_base(base + i).map_err(|e| e.to_string())?);
        }
        Ok(ns_per(start, pages as usize))
    })
}

/// `promote_in_place` then `demote` of fully populated, contiguous
/// regions added to a copy of the workload's guest table; one call is
/// one promote/demote pair.
fn promote(snap: &Snapshot) -> Result<Sampler<'_>, String> {
    const REGIONS: u64 = 16;
    let mut table: AddressSpace = snap.guest_table.clone();
    let first = free_region(snap);
    for r in first..first + REGIONS {
        for i in 0..PAGES_PER_HUGE_PAGE {
            let frame = (r << HUGE_PAGE_ORDER) + i;
            table.map_base(frame, frame).map_err(|e| e.to_string())?;
        }
    }
    Ok(Box::new(move || {
        let start = Instant::now();
        for r in first..first + REGIONS {
            black_box(table.promote_in_place(r).map_err(|e| e.to_string())?);
            table.demote(r).map_err(|e| e.to_string())?;
        }
        Ok(ns_per(start, REGIONS as usize))
    }))
}

/// Order-0 `alloc` of 256 frames, then `free` of each, on a copy of the
/// pre-conditioned host allocator; one call is one alloc/free pair.
fn alloc_free(snap: &Snapshot) -> Sampler<'_> {
    const FRAMES: usize = 256;
    let mut buddy: BuddyAllocator = snap.host_buddy.clone();
    let mut held = Vec::with_capacity(FRAMES);
    Box::new(move || {
        let start = Instant::now();
        for _ in 0..FRAMES {
            held.push(buddy.alloc(0).map_err(|e| e.to_string())?);
        }
        for f in held.drain(..) {
            buddy.free(f, 0).map_err(|e| e.to_string())?;
        }
        Ok(ns_per(start, FRAMES))
    })
}

/// Order-9 (huge page) `alloc` of 128 blocks, then `free` of each; one
/// call is one alloc/free pair. The pre-conditioned host holds no free
/// order-9 block (pre-conditioning pins a frame in every huge region),
/// so this runs on an unfragmented allocator of the host's size.
fn huge_alloc(snap: &Snapshot) -> Sampler<'static> {
    const BLOCKS: usize = 128;
    let mut buddy = BuddyAllocator::new(snap.host_buddy.total_frames());
    let mut held = Vec::with_capacity(BLOCKS);
    Box::new(move || {
        let start = Instant::now();
        for _ in 0..BLOCKS {
            held.push(buddy.alloc(HUGE_PAGE_ORDER).map_err(|e| e.to_string())?);
        }
        for f in held.drain(..) {
            buddy.free(f, HUGE_PAGE_ORDER).map_err(|e| e.to_string())?;
        }
        Ok(ns_per(start, BLOCKS))
    })
}

/// `first_congruent_run` (with its wrap-around leg) for 64-frame runs
/// at random cursors and offsets, on the pre-conditioned host
/// allocator.
fn congruent_fit<'a>(snap: &'a Snapshot, rng: &mut DetRng) -> Sampler<'a> {
    const QUERIES: usize = 32;
    let total = snap.host_buddy.total_frames();
    let queries: Vec<(u64, u64)> = (0..QUERIES)
        .map(|_| (rng.below(total), rng.below(PAGES_PER_HUGE_PAGE)))
        .collect();
    let buddy = &snap.host_buddy;
    Box::new(move || {
        let start = Instant::now();
        for &(cursor, in0) in &queries {
            black_box(
                buddy
                    .first_congruent_run(cursor, in0, 64)
                    .or_else(|| buddy.first_congruent_run_below(cursor, in0, 64)),
            );
        }
        Ok(ns_per(start, queries.len()))
    })
}

/// Guest regions each policy benchmark faults into.
const FAULT_REGIONS: u64 = 64;

/// A fresh guest with a mapped VMA under `system`'s guest policy.
fn fresh_guest(
    system: SystemKind,
) -> Result<(GuestMm, Box<dyn gemini_mm::HugePolicy>, u64), String> {
    let shared = system.is_gemini().then(gemini::shared::new_shared);
    let policy = system.guest_policy(false, shared.as_ref());
    let mut guest = GuestMm::new(VmId(1), VM_FRAMES, CostModel::default());
    let vma = guest
        .mmap(FAULT_REGIONS * HUGE_PAGE_SIZE)
        .map_err(|e| e.to_string())?;
    Ok((guest, policy, vma.start_frame()))
}

/// `GuestMm::handle_fault` at the first page of each of 64 regions, on
/// a fresh guest under every evaluated guest policy; one call is one
/// fault, averaged over the policies.
fn fault() -> Sampler<'static> {
    Box::new(|| {
        let mut ns = 0.0;
        let mut faults = 0;
        for system in SystemKind::evaluated() {
            let (mut guest, mut policy, start_frame) = fresh_guest(system)?;
            let start = Instant::now();
            for r in 0..FAULT_REGIONS {
                black_box(
                    guest
                        .handle_fault(start_frame + r * PAGES_PER_HUGE_PAGE, policy.as_mut())
                        .map_err(|e| e.to_string())?,
                );
            }
            ns += start.elapsed().as_nanos() as f64;
            faults += FAULT_REGIONS;
        }
        Ok(ns / faults as f64)
    })
}

/// `GuestMm::run_daemon` once per evaluated guest policy, on a fresh
/// guest whose first 64 pages of each region were faulted in and
/// touched; one call is one daemon pass, averaged over the policies.
fn daemon_pass() -> Sampler<'static> {
    const PAGES: u64 = 64;
    Box::new(|| {
        let mut ns = 0.0;
        let systems = SystemKind::evaluated();
        for &system in &systems {
            let (mut guest, mut policy, start_frame) = fresh_guest(system)?;
            for r in 0..FAULT_REGIONS {
                for p in 0..PAGES {
                    let frame = start_frame + r * PAGES_PER_HUGE_PAGE + p;
                    if guest.translate(frame).is_none() {
                        guest
                            .handle_fault(frame, policy.as_mut())
                            .map_err(|e| e.to_string())?;
                    }
                    guest.record_touch(frame);
                }
            }
            let start = Instant::now();
            black_box(guest.run_daemon(policy.as_mut(), Cycles::from_millis(1_000.0), 1));
            ns += start.elapsed().as_nanos() as f64;
        }
        Ok(ns / systems.len() as f64)
    })
}
