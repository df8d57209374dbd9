//! The huge-page policy interface and the effects vocabulary.
//!
//! A [`HugePolicy`] drives one layer's page-size decisions: what to do on a
//! demand fault, and which regions the background daemon (the khugepaged
//! analogue) should promote. The mechanisms in [`crate::LayerEngine`]
//! (instantiated as [`crate::GuestMm`] and [`crate::HostMm`]) execute those
//! decisions and report [`Effects`] — the TLB invalidations, shootdowns and
//! cycles that the whole-system simulator applies to its MMU model and
//! clock.

use crate::costs::CostModel;
use crate::vma::Vma;
use gemini_buddy::BuddyAllocator;
use gemini_page_table::{AddressSpace, RegionPopulation};
use gemini_sim_core::{Cycles, VmId};

/// Which translation layer a policy instance is driving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Guest process page tables (GVA → GPA).
    Guest,
    /// VM/EPT page tables (GPA → HPA).
    Host,
}

impl LayerKind {
    /// The cost-model hook of the layer: (base fault cost, extra cost of
    /// resolving the fault with a huge mapping).
    pub fn fault_costs(self, costs: &CostModel) -> (Cycles, Cycles) {
        match self {
            LayerKind::Guest => (costs.minor_fault, costs.huge_fault_extra),
            LayerKind::Host => (costs.ept_fault, costs.ept_huge_fault_extra),
        }
    }
}

/// Context handed to a policy at demand-fault time.
pub struct FaultCtx<'a> {
    /// Layer taking the fault.
    pub layer: LayerKind,
    /// VM the fault belongs to.
    pub vm: VmId,
    /// Faulting frame in this layer's input space (GVA frame for the
    /// guest, GPA frame for the host).
    pub addr_frame: u64,
    /// The VMA containing the fault (guest layer only).
    pub vma: Option<&'a Vma>,
    /// True when this is the first fault anywhere in that VMA (guest
    /// layer only) — the moment CA-paging and Gemini's EMA pick offsets.
    pub first_touch_in_vma: bool,
    /// Population of the 2 MiB input region containing the fault.
    pub region_pop: RegionPopulation,
    /// Read access to this layer's physical allocator, for placement
    /// decisions (contiguity queries, fragmentation index).
    pub buddy: &'a BuddyAllocator,
    /// Read access to this layer's page table.
    pub table: &'a AddressSpace,
}

impl FaultCtx<'_> {
    /// The 2 MiB input region (huge-frame index) containing the fault.
    pub fn region(&self) -> u64 {
        self.addr_frame >> gemini_sim_core::HUGE_PAGE_ORDER
    }

    /// True when the faulting region is fully covered by the VMA (guest)
    /// or trivially true (host), i.e. a huge mapping would be legal.
    pub fn region_within_vma(&self) -> bool {
        match self.vma {
            None => true,
            Some(vma) => {
                let region_start = self.region() << gemini_sim_core::HUGE_PAGE_ORDER;
                let region_end = region_start + gemini_sim_core::PAGES_PER_HUGE_PAGE;
                vma.start_frame() <= region_start && region_end <= vma.start_frame() + vma.pages()
            }
        }
    }
}

/// What the policy wants done about a demand fault.
///
/// Placement-specific variants degrade gracefully: `HugeAt` falls back to
/// `Huge` then `Base` when the target is busy; `BaseAt` falls back to
/// `Base`. `*Reserved` variants use frames the policy already owns (e.g.
/// Gemini's huge booking or huge bucket) and bypass the buddy allocator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDecision {
    /// Map one base page wherever the allocator prefers.
    Base,
    /// Map one base page at the given output frame if it is free.
    BaseAt {
        /// Desired output base-frame.
        frame: u64,
    },
    /// Map one base page at a frame the policy owns (pre-reserved).
    BaseReserved {
        /// Policy-owned output base-frame.
        frame: u64,
    },
    /// Map the whole 2 MiB region with a fresh huge page (synchronous
    /// huge allocation, the Linux-THP fault path).
    Huge,
    /// Map the region with a huge page at the given output huge-frame.
    HugeAt {
        /// Desired output huge-frame.
        huge_frame: u64,
    },
    /// Map the region with a huge page the policy owns (booked/bucketed).
    HugeReserved {
        /// Policy-owned output huge-frame.
        huge_frame: u64,
    },
}

/// What actually happened when the mechanism resolved a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Size of the mapping installed.
    pub size: gemini_sim_core::page::PageSize,
    /// Output frame installed (base frame, or first frame of the huge
    /// page).
    pub pa_frame: u64,
    /// True when the policy's requested placement was honored exactly.
    pub placement_honored: bool,
}

/// How a promotion should be carried out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionKind {
    /// Promote only if the region is fully populated, contiguous and
    /// aligned — free of charge except the remap (CA-paging/Gemini path).
    InPlaceOnly,
    /// Allocate the *missing* base pages of an in-place-eligible region,
    /// then promote without copying (Gemini's huge preallocation).
    FillThenPromote,
    /// Try in-place; if the region is populated but scattered, fall back
    /// to a copy-promotion (khugepaged's collapse).
    PreferInPlace,
    /// Always collapse by copy into a fresh huge page.
    Copy,
}

/// A promotion request emitted by a policy's daemon pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PromotionOp {
    /// Input huge-frame (GVA region for the guest, GPA region for the
    /// host) to promote.
    pub region: u64,
    /// Strategy.
    pub kind: PromotionKind,
    /// Preferred output huge-frame for copy promotions (e.g. Gemini
    /// targeting the GPA region under a misaligned host huge page).
    pub copy_target: Option<u64>,
    /// True when `copy_target` frames are policy-owned (bypass buddy).
    pub target_reserved: bool,
}

impl PromotionOp {
    /// Convenience constructor for the common untargeted case.
    pub fn new(region: u64, kind: PromotionKind) -> Self {
        Self {
            region,
            kind,
            copy_target: None,
            target_reserved: false,
        }
    }
}

/// Mutable view of one layer handed to the policy daemon.
pub struct LayerOps<'a> {
    /// Layer identity.
    pub layer: LayerKind,
    /// VM whose table is exposed (host daemons iterate VMs).
    pub vm: VmId,
    /// The layer's page table (read-only; mutations go through
    /// [`PromotionOp`]s so effects are accounted).
    pub table: &'a AddressSpace,
    /// The layer's physical allocator (mutable: booking and bucket
    /// maintenance allocate/free directly).
    pub buddy: &'a mut BuddyAllocator,
    /// Touch counters per input region, maintained by the mechanism from
    /// sampled accesses; HawkEye-style policies rank candidates by these.
    pub touches: &'a crate::touch::TouchMap,
    /// Current cycle time.
    pub now: Cycles,
}

/// Side effects of a memory-management operation, to be applied to the
/// MMU model and the clock by the whole-system simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Effects {
    /// Foreground cycles to charge the faulting/stalled workload.
    pub cycles: Cycles,
    //
    // Contract: the three invalidation fields below are the ONLY
    // channel by which the mm layer changes TLB residency. The machine
    // applies them through `MmuSim::invalidate_*` /
    // `charge_shootdowns`. A policy that mutated mappings without
    // emitting the matching effect would not only skip the
    // invalidation cost model — it would leave stale TLB entries
    // translating a remapped region. Emit effects for every mapping
    // change.
    /// Guest-virtual 2 MiB regions whose TLB entries must be invalidated.
    pub gva_regions_invalidated: Vec<u64>,
    /// Guest-physical 2 MiB regions whose EPT mappings changed (nested-TLB
    /// invalidation plus a VM-wide flush, as after INVEPT).
    pub gpa_regions_changed: Vec<u64>,
    /// TLB-shootdown rounds issued.
    pub shootdowns: u64,
    /// Base pages copied by migrations/collapses (for reporting).
    pub pages_copied: u64,
    /// Base pages zeroed by fills/preallocations (for reporting).
    pub pages_zeroed: u64,
}

impl Effects {
    /// No effects.
    pub fn none() -> Self {
        Self::default()
    }

    /// Effects consisting only of a foreground cycle charge.
    pub fn cost(cycles: Cycles) -> Self {
        Self {
            cycles,
            ..Self::default()
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: Effects) {
        self.cycles += other.cycles;
        self.gva_regions_invalidated
            .extend(other.gva_regions_invalidated);
        self.gpa_regions_changed.extend(other.gpa_regions_changed);
        self.shootdowns += other.shootdowns;
        self.pages_copied += other.pages_copied;
        self.pages_zeroed += other.pages_zeroed;
    }
}

/// A huge-page management policy for one layer.
///
/// Implementations: the seven baseline systems in `gemini-policies`, and
/// Gemini's guest/host policies in the `gemini` crate.
pub trait HugePolicy: Send {
    /// Short display name ("THP", "Ingens", ...).
    fn name(&self) -> &'static str;

    /// Hands the policy a shared observability recorder so it can
    /// trace its decisions (bookings, EMA hits, bucket traffic, ...).
    /// The default implementation ignores it; simple baselines have
    /// nothing policy-specific to report beyond what the memory
    /// managers already emit.
    fn attach_recorder(&mut self, _rec: gemini_obs::Recorder) {}

    /// Hands the policy a shared span profiler so its internal scans
    /// can attribute wall-clock time to phases (contiguity scans,
    /// region walks). The default implementation ignores it; the
    /// engine already wraps whole `daemon`/`select_demotions` calls in
    /// scan spans, so only policies with distinguishable sub-phases
    /// need the handle.
    fn attach_profiler(&mut self, _prof: gemini_obs::Profiler) {}

    /// Decides how to satisfy a demand fault.
    fn fault_decision(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision;

    /// Observes the resolved outcome of a fault it decided (for offset
    /// descriptors, booking consumption, fairness accounting, ...).
    fn after_fault(&mut self, _addr_frame: u64, _outcome: &FaultOutcome) {}

    /// How often the background daemon runs for this policy.
    fn daemon_period(&self) -> Cycles {
        Cycles::from_millis(10.0)
    }

    /// One background-daemon pass: may maintain policy-owned reservations
    /// via `ops.buddy`, and returns the promotions to execute.
    fn daemon(&mut self, _ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        Vec::new()
    }

    /// One background pass selecting huge mappings to *demote* (split).
    ///
    /// Used to model policies that break huge pages at runtime, e.g.
    /// HawkEye's zero-page deduplication. Returns input huge-frame indices.
    fn select_demotions(&mut self, _ops: &mut LayerOps<'_>) -> Vec<u64> {
        Vec::new()
    }

    /// Offered ownership of a freed, huge-mapped output page (Gemini's
    /// huge bucket hook). Returning `true` keeps the frames out of the
    /// buddy allocator, owned by the policy.
    fn intercept_huge_free(&mut self, _pa_huge_frame: u64, _now: Cycles) -> bool {
        false
    }

    /// Notification that an input region was unmapped entirely.
    fn on_region_unmapped(&mut self, _region: u64) {}

    /// Reuse rate of the policy's huge bucket, if it has one (Gemini).
    fn bucket_reuse_rate(&self) -> f64 {
        0.0
    }
}

/// A trivial policy that always uses base pages; the `Host-B-VM-B`
/// baseline, and a convenient default for tests.
#[derive(Debug, Clone, Default)]
pub struct BasePagesOnly;

impl HugePolicy for BasePagesOnly {
    fn name(&self) -> &'static str {
        "Base"
    }

    fn fault_decision(&mut self, _ctx: &FaultCtx<'_>) -> FaultDecision {
        FaultDecision::Base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_merge_accumulates_everything() {
        let mut a = Effects::cost(Cycles(10));
        a.gva_regions_invalidated.push(1);
        let mut b = Effects::cost(Cycles(5));
        b.gva_regions_invalidated.push(2);
        b.gpa_regions_changed.push(3);
        b.shootdowns = 2;
        b.pages_copied = 7;
        b.pages_zeroed = 1;
        a.merge(b);
        assert_eq!(a.cycles, Cycles(15));
        assert_eq!(a.gva_regions_invalidated, vec![1, 2]);
        assert_eq!(a.gpa_regions_changed, vec![3]);
        assert_eq!(a.shootdowns, 2);
        assert_eq!(a.pages_copied, 7);
        assert_eq!(a.pages_zeroed, 1);
    }

    #[test]
    fn base_pages_only_always_says_base() {
        let buddy = BuddyAllocator::new(64);
        let table = AddressSpace::new();
        let ctx = FaultCtx {
            layer: LayerKind::Guest,
            vm: VmId(0),
            addr_frame: 0,
            vma: None,
            first_touch_in_vma: true,
            region_pop: table.region_population(0),
            buddy: &buddy,
            table: &table,
        };
        let mut p = BasePagesOnly;
        assert_eq!(p.fault_decision(&ctx), FaultDecision::Base);
        assert_eq!(p.name(), "Base");
        assert!(!p.intercept_huge_free(0, Cycles::ZERO));
    }

    #[test]
    fn region_within_vma_checks_coverage() {
        use crate::vma::VmaSet;
        let mut vmas = VmaSet::new(0);
        // 2 MiB + one page: region 0 covered, region 1 not.
        let vma = vmas
            .mmap(gemini_sim_core::HUGE_PAGE_SIZE + gemini_sim_core::BASE_PAGE_SIZE)
            .unwrap();
        let buddy = BuddyAllocator::new(64);
        let table = AddressSpace::new();
        let mk = |frame: u64| FaultCtx {
            layer: LayerKind::Guest,
            vm: VmId(0),
            addr_frame: frame,
            vma: Some(&vma),
            first_touch_in_vma: false,
            region_pop: table.region_population(frame >> 9),
            buddy: &buddy,
            table: &table,
        };
        assert!(mk(vma.start_frame()).region_within_vma());
        assert!(!mk(vma.start_frame() + 512).region_within_vma());
    }
}
