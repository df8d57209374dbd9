//! The generic per-layer memory-management engine.
//!
//! The paper's central observation is that the guest kernel and the
//! hypervisor run *the same* huge-page machinery one translation layer
//! apart: demand faults resolve through the same fallback ladder, a
//! khugepaged-style daemon promotes and demotes regions, accesses are
//! sampled into per-region touch counters, and fragmentation is read off
//! the layer's buddy allocator. [`LayerEngine`] implements that machinery
//! exactly once, parameterized over a tiny [`Layer`] trait that pins down
//! everything the two layers legitimately differ in: the input address
//! type (GVA vs GPA), the [`LayerKind`] driving cost-model and
//! invalidation-list selection in [`mech`], and the observability
//! identity (event layer tag + counter names). `GuestMm` and `HostMm`
//! are thin instantiations — see [`crate::guest`] and [`crate::host`].

use crate::costs::CostModel;
use crate::mech;
use crate::policy::{Effects, FaultCtx, FaultOutcome, HugePolicy, LayerKind, LayerOps};
use crate::touch::TouchMap;
use crate::vma::Vma;
use gemini_buddy::BuddyAllocator;
use gemini_obs::{cat, EventKind, Phase, Profiler, PromoMode, Recorder};
use gemini_page_table::AddressSpace;
use gemini_sim_core::{Cycles, FxHashMap, SimError, VmId, HUGE_PAGE_ORDER};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Classifies a completed promotion by its data movement.
pub(crate) fn promo_mode(pages_copied: u64, pages_zeroed: u64) -> PromoMode {
    if pages_copied > 0 {
        PromoMode::Copy
    } else if pages_zeroed > 0 {
        PromoMode::Fill
    } else {
        PromoMode::InPlace
    }
}

/// What distinguishes one translation layer from the other.
///
/// Implemented by uninhabited marker types ([`crate::guest::GuestLayer`],
/// [`crate::host::HostLayer`]); everything here is compile-time data, so
/// the engine monomorphizes to exactly the code the two hand-written
/// managers used to contain.
pub trait Layer: std::fmt::Debug + Send {
    /// The layer's input address type (what faults, e.g. [`gemini_sim_core::Gva`]).
    type In: std::fmt::Debug + Copy;

    /// Which [`LayerKind`] this layer reports to policies and mechanics
    /// (selects fault costs and the invalidation list in [`mech`]).
    const KIND: LayerKind;

    /// The observability layer tag stamped on emitted events.
    const OBS: gemini_obs::Layer;

    /// Metrics counter bumped once per completed promotion.
    const CTR_PROMOTIONS: &'static str;

    /// Metrics counter accumulating pages copied by promotions.
    const CTR_PROMO_PAGES_COPIED: &'static str;

    /// Metrics counter bumped once per daemon demotion.
    const CTR_DEMOTIONS: &'static str;

    /// Wraps a raw frame number in the layer's input address type.
    fn input_addr(frame: u64) -> Self::In;

    /// The double-mapping error for a fault on an already-translated
    /// input address.
    fn already_mapped(addr: Self::In) -> SimError;
}

/// Where a fault landed in the faulting layer's address-space structure.
///
/// Only the guest layer has VMAs; the host faults on bare GPAs and passes
/// [`FaultSite::anonymous`]. The engine forwards both fields verbatim
/// into the policy's [`FaultCtx`].
#[derive(Debug, Clone, Copy)]
pub struct FaultSite<'a> {
    /// The VMA containing the faulting address, if the layer has VMAs.
    pub vma: Option<&'a Vma>,
    /// Whether this is the first fault ever taken in that VMA.
    pub first_touch_in_vma: bool,
}

impl FaultSite<'static> {
    /// A fault site with no VMA structure (host/EPT faults).
    pub fn anonymous() -> Self {
        Self {
            vma: None,
            first_touch_in_vma: false,
        }
    }
}

/// Disjoint mutable views into one VM's state inside the engine.
///
/// Lets layer-specific front-ends (the guest's `munmap`) walk the page
/// table, the allocator and the touch counters simultaneously without
/// fighting the borrow checker through accessor methods.
pub struct LayerParts<'a> {
    /// The VM's translation table at this layer.
    pub table: &'a mut AddressSpace,
    /// The layer's physical allocator.
    pub buddy: &'a mut BuddyAllocator,
    /// The VM's per-region touch counters.
    pub touches: &'a mut TouchMap,
    /// The layer's cost model.
    pub costs: &'a CostModel,
}

/// One translation layer's memory manager: per-VM translation tables, a
/// layer-wide physical allocator, per-VM touch sampling, and the fault /
/// daemon / demotion machinery shared by both layers.
#[derive(Debug)]
pub struct LayerEngine<L: Layer> {
    /// The layer's physical allocator (GPA frames at the guest layer,
    /// HPA frames at the host layer).
    pub buddy: BuddyAllocator,
    /// Per-VM translation table (guest page table or EPT).
    tables: BTreeMap<VmId, AddressSpace>,
    /// Sampled touch counters per (VM, 2 MiB input region).
    touches: FxHashMap<VmId, TouchMap>,
    costs: CostModel,
    rec: Recorder,
    prof: Profiler,
    _layer: PhantomData<L>,
}

impl<L: Layer> LayerEngine<L> {
    /// Creates an engine managing `frames` of this layer's physical
    /// memory.
    pub fn new(frames: u64, costs: CostModel) -> Self {
        Self {
            buddy: BuddyAllocator::new(frames),
            tables: BTreeMap::new(),
            touches: FxHashMap::default(),
            costs,
            rec: Recorder::off(),
            prof: Profiler::off(),
            _layer: PhantomData,
        }
    }

    /// Attaches an observability recorder; daemon promotions and
    /// demotions at this layer are traced through it.
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// Attaches a wall-clock span profiler; daemon decision scans and
    /// promotion/demotion execution at this layer record phase spans
    /// through it.
    pub fn set_profiler(&mut self, prof: Profiler) {
        self.prof = prof;
    }

    /// Registers a VM (creates its empty translation table).
    pub fn register_vm(&mut self, vm: VmId) {
        self.tables.entry(vm).or_default();
        self.touches.entry(vm).or_default();
    }

    /// The translation table of `vm`, or [`SimError::UnknownVm`] if the
    /// VM was never registered.
    pub fn table(&self, vm: VmId) -> Result<&AddressSpace, SimError> {
        self.tables.get(&vm).ok_or(SimError::UnknownVm(vm))
    }

    /// Mutable access to the translation table of `vm` (tests, targeted
    /// state setup), or [`SimError::UnknownVm`].
    pub fn table_mut(&mut self, vm: VmId) -> Result<&mut AddressSpace, SimError> {
        self.tables.get_mut(&vm).ok_or(SimError::UnknownVm(vm))
    }

    /// Registered VMs in id order.
    pub fn vms(&self) -> Vec<VmId> {
        self.tables.keys().copied().collect()
    }

    /// The touch counters of `vm`, if registered.
    pub fn touches(&self, vm: VmId) -> Option<&TouchMap> {
        self.touches.get(&vm)
    }

    /// The layer's cost model.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Records a sampled access for daemon heuristics.
    pub fn record_touch(&mut self, vm: VmId, frame: u64) {
        self.touches
            .entry(vm)
            .or_default()
            .bump(frame >> HUGE_PAGE_ORDER);
    }

    /// Disjoint mutable views into `vm`'s table, the allocator and the
    /// touch counters, for layer-specific teardown paths.
    pub fn parts_mut(&mut self, vm: VmId) -> Result<LayerParts<'_>, SimError> {
        let table = self.tables.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        Ok(LayerParts {
            table,
            buddy: &mut self.buddy,
            touches: self.touches.entry(vm).or_default(),
            costs: &self.costs,
        })
    }

    /// Unregisters `vm`, freeing every physical frame its translation
    /// table still maps back to the layer's buddy allocator and dropping
    /// its touch counters. Returns the number of base-page-equivalent
    /// frames returned to the allocator.
    ///
    /// Huge leaves are freed as order-9 blocks, then the base frames, in
    /// address order, through [`BuddyAllocator::free_sorted_frames`],
    /// with the free-run index maintained as it goes. Teardown therefore
    /// costs O(frames the VM held), independent of the allocator's size,
    /// and the end state is the one freeing frame by frame would reach.
    pub fn unregister_vm(&mut self, vm: VmId) -> Result<u64, SimError> {
        let table = self.tables.remove(&vm).ok_or(SimError::UnknownVm(vm))?;
        let huge: Vec<u64> = table.iter_huge().map(|(_, pa_huge)| pa_huge).collect();
        let mut base: Vec<u64> = table.iter_base().map(|(_, pa)| pa).collect();
        base.sort_unstable();
        let freed = (huge.len() as u64) * (1u64 << HUGE_PAGE_ORDER) + base.len() as u64;
        for pa_huge in huge {
            self.buddy
                .free(pa_huge << HUGE_PAGE_ORDER, HUGE_PAGE_ORDER)?;
        }
        self.buddy.free_sorted_frames(&base)?;
        self.touches.remove(&vm);
        self.drain_buddy_work();
        Ok(freed)
    }

    /// Handles a demand fault of `vm` at `frame` under `policy`.
    ///
    /// The fallback ladder, cost accounting and invalidation bookkeeping
    /// live in [`mech::resolve_fault`]; the engine enforces the shared
    /// legality rule (a huge mapping needs an empty region fully inside
    /// the faulting site's VMA, when there is one).
    pub fn fault(
        &mut self,
        vm: VmId,
        frame: u64,
        site: FaultSite<'_>,
        policy: &mut dyn HugePolicy,
    ) -> Result<(FaultOutcome, Effects), SimError> {
        let table = self.tables.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        if table.translate(frame).is_some() {
            return Err(L::already_mapped(L::input_addr(frame)));
        }
        let region = frame >> HUGE_PAGE_ORDER;
        let pop = table.region_population(region);
        let ctx = FaultCtx {
            layer: L::KIND,
            vm,
            addr_frame: frame,
            vma: site.vma,
            first_touch_in_vma: site.first_touch_in_vma,
            region_pop: pop,
            buddy: &self.buddy,
            table,
        };
        let huge_allowed = pop.present == 0 && ctx.region_within_vma();
        let decision = policy.fault_decision(&ctx);

        let (outcome, fx) = mech::resolve_fault(
            table,
            &mut self.buddy,
            &self.costs,
            L::KIND,
            frame,
            decision,
            huge_allowed,
        )?;
        policy.after_fault(frame, &outcome);
        self.drain_buddy_work();
        Ok((outcome, fx))
    }

    /// Feeds the allocator's deterministic work counters (runs probed by
    /// index queries, run-map mutations) into the obs registry. Counts,
    /// never wall-clock, so traced registries stay byte-identical across
    /// jobs; zero deltas are skipped to keep untraced registries sparse.
    fn drain_buddy_work(&self) {
        let (probes, updates) = self.buddy.take_work_counters();
        if probes > 0 {
            self.rec.counter_add("buddy.run_probes", probes);
        }
        if updates > 0 {
            self.rec.counter_add("buddy.index_updates", updates);
        }
    }

    /// Runs one daemon pass of `policy` over `vm`'s table, executing the
    /// promotions and demotions it requests.
    pub fn run_daemon(
        &mut self,
        vm: VmId,
        policy: &mut dyn HugePolicy,
        now: Cycles,
        vcpus: u32,
    ) -> Result<Effects, SimError> {
        let table = self.tables.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        let touches = self.touches.entry(vm).or_default();
        let mut ops_view = LayerOps {
            layer: L::KIND,
            vm,
            table,
            buddy: &mut self.buddy,
            touches,
            now,
        };
        let requests = {
            let _scan = self.prof.span(Phase::ContiguityScan);
            policy.daemon(&mut ops_view)
        };
        let mut ops_view = LayerOps {
            layer: L::KIND,
            vm,
            table,
            buddy: &mut self.buddy,
            touches,
            now,
        };
        let demotions = {
            let _scan = self.prof.span(Phase::ContiguityScan);
            policy.select_demotions(&mut ops_view)
        };
        let mut fx = Effects::cost(Cycles(
            self.costs.scan_per_region.0 * (requests.len() as u64 + 1),
        ));
        for op in requests {
            let region = op.region;
            let was_huge = table.huge_leaf(region).is_some();
            let opfx = {
                let _promo = self.prof.span(Phase::Promotion);
                mech::execute_promotion(table, &mut self.buddy, &self.costs, L::KIND, op, vcpus)
            };
            if self.rec.wants(cat::PROMOTION) && !was_huge && table.huge_leaf(region).is_some() {
                let (copied, zeroed) = (opfx.pages_copied, opfx.pages_zeroed);
                self.rec
                    .emit(cat::PROMOTION, vm.0, L::OBS, || EventKind::Promotion {
                        region,
                        mode: promo_mode(copied, zeroed),
                        pages_copied: copied,
                        pages_zeroed: zeroed,
                    });
                self.rec.counter_add(L::CTR_PROMOTIONS, 1);
                self.rec.counter_add(L::CTR_PROMO_PAGES_COPIED, copied);
            }
            fx.merge(opfx);
        }
        for region in demotions {
            let _demo = self.prof.span(Phase::Demotion);
            if let Ok(dfx) = mech::execute_demotion(table, &self.costs, L::KIND, region, vcpus) {
                self.rec
                    .emit(cat::DEMOTION, vm.0, L::OBS, || EventKind::Demotion {
                        region,
                    });
                self.rec.counter_add(L::CTR_DEMOTIONS, 1);
                fx.merge(dfx);
            }
        }
        self.drain_buddy_work();
        Ok(fx)
    }

    /// Demotes (splits) one huge mapping of `vm`.
    pub fn demote(&mut self, vm: VmId, region: u64, vcpus: u32) -> Result<Effects, SimError> {
        let table = self.tables.get_mut(&vm).ok_or(SimError::UnknownVm(vm))?;
        mech::execute_demotion(table, &self.costs, L::KIND, region, vcpus)
    }

    /// The layer's fragmentation index at huge-page order.
    pub fn fragmentation_index(&self) -> f64 {
        self.buddy.fragmentation_index(HUGE_PAGE_ORDER)
    }
}

// Machines move across executor worker threads whole; both engine
// instantiations (including their recorder handles) must stay `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<LayerEngine<crate::guest::GuestLayer>>();
    assert_send::<LayerEngine<crate::host::HostLayer>>();
};
