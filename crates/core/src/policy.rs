//! [`GeminiPolicy`] — the per-layer huge-page policy combining booking,
//! EMA, the huge bucket and the promoter (paper §3–§5).
//!
//! One instance drives the guest layer of one VM; another (shared across
//! VMs) drives the host layer. Both read MHPS scan results through
//! [`GeminiShared`]:
//!
//! **Guest fault path** — in priority order:
//! 1. reuse a whole region from the *huge bucket* when a huge mapping is
//!    legal (the region is still backed by a host huge page, so this is an
//!    instantly well-aligned huge page);
//! 2. consume a whole *booked* region (reserved under a mis-aligned host
//!    huge page) for a synchronous huge allocation;
//! 3. fall back to THP-style synchronous huge allocation;
//! 4. otherwise EMA: place the base page at `fault − offset`, preferring
//!    booked regions when establishing a VMA's offset descriptor, with
//!    sub-VMA re-establishment when a target is unavailable.
//!
//! **Guest daemon** — books the regions under type-1 mis-aligned host huge
//! pages, expires bookings/bucket entries, and emits promotions: huge
//! preallocation (fill-then-promote at ≥ 256 present pages and FMFI ≤
//! 0.5), free in-place promotions, and the MHPP promoter that prioritizes
//! GVA regions whose base pages sit under type-2 mis-aligned host huge
//! pages.
//!
//! **Host fault path / daemon** — mirror image: back guest-huge GPA
//! regions with (reserved) host huge pages first, keep EPT placement
//! congruent via per-VM offset descriptors, and promote the EPT regions
//! under mis-aligned guest huge pages first.

use crate::booking::BookingTable;
use crate::bucket::HugeBucket;
use crate::ema::{congruent_offset, EmaList, OffsetDescriptor};
use crate::mhps::VmScan;
use crate::shared::GeminiShared;
use gemini_mm::{
    FaultCtx, FaultDecision, FaultOutcome, HugePolicy, LayerKind, LayerOps, PromotionKind,
    PromotionOp,
};
use gemini_obs::{cat, EventKind, Layer, Recorder};
use gemini_sim_core::{Cycles, VmId, HUGE_PAGE_ORDER, PAGES_PER_HUGE_PAGE};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Tunables of one Gemini layer instance.
#[derive(Debug, Clone)]
pub struct GeminiConfig {
    /// Enable huge booking (HB).
    pub enable_booking: bool,
    /// Enable EMA offset placement.
    pub enable_ema: bool,
    /// Enable the huge bucket (guest layer only).
    pub enable_bucket: bool,
    /// Enable the MHPP promoter.
    pub enable_promoter: bool,
    /// Pages present before huge preallocation fires (paper: 256).
    pub prealloc_threshold: usize,
    /// Maximum FMFI for preallocation to fire (paper: 0.5).
    pub prealloc_max_fmfi: f64,
    /// Promotion ops per daemon pass.
    pub promo_budget: usize,
    /// Maximum simultaneous bookings/reservations.
    pub book_cap: usize,
    /// Allocate huge pages synchronously at fault time (THP-style). On by
    /// default: the prototype is built on Linux THP (`always`), so the
    /// fault path still takes huge pages when an aligned block is free;
    /// booking/EMA/bucket placement handles everything the fault path
    /// cannot. Disable for a purely asynchronous variant.
    pub sync_huge_faults: bool,
    /// Demote mis-aligned and infrequently-used huge pages when memory
    /// runs short (the paper's §8 pressure policy: "we only allow
    /// misaligned huge pages and infrequently used huge pages to be
    /// demoted when system is under memory pressure").
    pub pressure_demotion: bool,
    /// Free-memory ratio below which pressure demotion activates.
    pub pressure_watermark: f64,
}

impl Default for GeminiConfig {
    fn default() -> Self {
        Self {
            enable_booking: true,
            enable_ema: true,
            enable_bucket: true,
            enable_promoter: true,
            prealloc_threshold: 256,
            prealloc_max_fmfi: 0.5,
            promo_budget: 8,
            book_cap: 16,
            sync_huge_faults: true,
            pressure_demotion: true,
            pressure_watermark: 0.05,
        }
    }
}

/// Counters exposed for the breakdown experiments (Figure 16).
#[derive(Debug, Clone, Copy, Default)]
pub struct GeminiStats {
    /// Huge mappings served straight from the bucket.
    pub bucket_huge_allocs: u64,
    /// Huge mappings served from booked regions.
    pub booked_huge_allocs: u64,
    /// Base placements served from booked regions.
    pub booked_base_allocs: u64,
    /// Preallocation (fill-then-promote) ops emitted.
    pub prealloc_promotions: u64,
    /// Promoter (MHPP) ops emitted.
    pub mhpp_promotions: u64,
    /// Sub-VMA re-establishments.
    pub sub_vma_splits: u64,
}

/// Epoch-stamped snapshot of [`crate::shared::GeminiState`].
///
/// The hot fault path consults MHPS scan results on every access; reading
/// them through the shared mutex cost a lock round-trip per simulated
/// memory access. The state only changes on coarse daemon ticks, so each
/// policy instance caches this view and revalidates it with a single
/// relaxed atomic epoch load ([`SharedState::epoch`]
/// (crate::shared::SharedState::epoch)), re-reading under the lock only
/// when a writer has bumped the epoch. Scans are `Arc`-shared with the
/// publisher, so a refresh clones pointers, never scan lists.
#[derive(Debug)]
struct SharedView {
    /// Epoch the snapshot was taken at; `u64::MAX` = never refreshed.
    epoch: u64,
    booking_timeout: Cycles,
    bucket_hold: Cycles,
    scans: HashMap<VmId, Arc<VmScan>>,
}

impl SharedView {
    fn stale() -> Self {
        Self {
            epoch: u64::MAX,
            booking_timeout: Cycles::ZERO,
            bucket_hold: Cycles::ZERO,
            scans: HashMap::new(),
        }
    }
}

/// The Gemini policy for one layer.
#[derive(Debug)]
pub struct GeminiPolicy {
    layer: LayerKind,
    shared: GeminiShared,
    /// Cached epoch-validated snapshot of `shared`.
    view: SharedView,
    cfg: GeminiConfig,
    /// Reservations in this layer's physical space (guest: GPA regions
    /// under mis-aligned host huge pages; host: unused here).
    bookings: BookingTable,
    /// Host layer: free HPA blocks reserved per (vm, GPA region).
    host_reserve: HashMap<(u32, u64), (u64, Cycles)>,
    /// Freed well-aligned regions held for reuse (guest layer).
    bucket: HugeBucket,
    /// Offset descriptors, self-organizing.
    ema: EmaList,
    /// Extent keys whose placement broke (sub-VMA trigger).
    broken: HashSet<u64>,
    /// Next-fit cursor over the contiguity list.
    cursor: u64,
    /// Round-robin cursor for the generic khugepaged-style collapse pass.
    promo_cursor: u64,
    /// Key of the extent the last fault belonged to.
    last_key: Option<u64>,
    /// VM of the last fault (labels recorder events that lack a ctx).
    last_vm: u32,
    /// Observability recorder (off until attached).
    rec: Recorder,
    /// Counters for the breakdown experiment.
    pub stats: GeminiStats,
}

/// Maps the mm layer discriminator onto the obs event layer.
fn obs_layer(layer: LayerKind) -> Layer {
    match layer {
        LayerKind::Guest => Layer::Guest,
        LayerKind::Host => Layer::Host,
    }
}

impl GeminiPolicy {
    /// Creates the guest-layer policy of one VM.
    pub fn guest(shared: GeminiShared) -> Self {
        Self::new(LayerKind::Guest, shared, GeminiConfig::default())
    }

    /// Creates the host-layer policy (shared by all VMs).
    pub fn host(shared: GeminiShared) -> Self {
        Self::new(LayerKind::Host, shared, GeminiConfig::default())
    }

    /// Creates a policy with explicit configuration (ablations).
    pub fn new(layer: LayerKind, shared: GeminiShared, cfg: GeminiConfig) -> Self {
        Self {
            layer,
            shared,
            view: SharedView::stale(),
            cfg,
            bookings: BookingTable::new(),
            host_reserve: HashMap::new(),
            bucket: HugeBucket::new(),
            ema: EmaList::new(),
            broken: HashSet::new(),
            cursor: 0,
            promo_cursor: 0,
            last_key: None,
            last_vm: 0,
            rec: Recorder::off(),
            stats: GeminiStats::default(),
        }
    }

    /// Revalidates the cached [`SharedView`]: one relaxed atomic load on
    /// the fast path; the mutex is taken only when the epoch moved (i.e.
    /// after a runtime tick, a timeout adjustment or a test poking the
    /// shared state).
    fn refresh_view(&mut self) {
        let epoch = self.shared.epoch();
        if self.view.epoch == epoch {
            return;
        }
        // Read the epoch before the lock: a write racing in between makes
        // the snapshot newer than its stamp, which only causes one extra
        // refresh — never a stale read going unnoticed.
        let s = self.shared.read();
        self.view.booking_timeout = s.booking_timeout;
        self.view.bucket_hold = s.bucket_hold;
        self.view.scans.clear();
        self.view
            .scans
            .extend(s.scans.iter().map(|(&vm, scan)| (vm, Arc::clone(scan))));
        self.view.epoch = epoch;
    }

    /// Read access to the booking table (tests, harness metrics).
    pub fn bookings(&self) -> &BookingTable {
        &self.bookings
    }

    /// Read access to the bucket (tests, harness metrics).
    pub fn bucket(&self) -> &HugeBucket {
        &self.bucket
    }

    /// Extent key of a fault: VMA id in the guest, VM id at the host.
    fn key_of(ctx: &FaultCtx<'_>) -> u64 {
        match (ctx.layer, ctx.vma) {
            (LayerKind::Guest, Some(vma)) => vma.id.0,
            _ => ctx.vm.0 as u64,
        }
    }

    /// Replicates the mechanism's huge-legality predicate exactly, so a
    /// `HugeReserved` decision can never be silently downgraded (which
    /// would leak the reserved frames).
    fn huge_legal(ctx: &FaultCtx<'_>) -> bool {
        ctx.region_pop.present == 0 && ctx.region_within_vma()
    }

    /// Establishes a fresh offset descriptor for `(key, fault frame)`:
    /// prefer a booked region, then the contiguity list (next-fit), then
    /// the largest free run.
    ///
    /// Descriptors are clamped to the *whole regions* that fit the chosen
    /// placement, so a descriptor never spills past the end of its free
    /// run: when it is exhausted, the next fault re-establishes cleanly at
    /// a region boundary (the sub-VMA mechanism), keeping every covered
    /// 2 MiB region at a single congruent offset — the precondition for
    /// in-place promotion.
    fn establish(&mut self, ctx: &FaultCtx<'_>, key: u64) -> Option<i64> {
        let region_start = ctx.addr_frame - ctx.addr_frame % PAGES_PER_HUGE_PAGE;
        let extent_len = match ctx.vma {
            Some(vma) => (vma.start_frame() + vma.pages()).saturating_sub(region_start),
            None => PAGES_PER_HUGE_PAGE,
        }
        .max(PAGES_PER_HUGE_PAGE);

        // (a) A booked region: aligned placement under a mis-aligned host
        // huge page. Covers exactly one region.
        if self.cfg.enable_booking {
            if let Some(hf) = self
                .bookings
                .regions()
                .into_iter()
                .find(|&hf| self.bookings.frame_available(hf << HUGE_PAGE_ORDER))
            {
                let offset = region_start as i64 - ((hf << HUGE_PAGE_ORDER) as i64);
                self.ema.insert(OffsetDescriptor {
                    key,
                    start: region_start,
                    len: PAGES_PER_HUGE_PAGE,
                    offset,
                });
                self.broken.remove(&key);
                return Some(offset);
            }
        }

        // (b) The Gemini contiguity list: free runs sorted by address,
        // searched next-fit for a run holding at least one whole congruent
        // region; prefer runs that fit the whole extent. Each leg is one
        // query against the allocator's persistent run index: a run
        // `(start, rlen)` fits `need` congruent frames iff
        // `congruent_start(start) + need <= start + rlen`, and because
        // `region_start` is region-aligned, "fits the extent" is that
        // predicate with `need = extent_len` rounded up to whole regions
        // while "holds one region" is `need = 512`. After an at-cursor
        // leg missed, any remaining fit necessarily starts before the
        // cursor, so the wrap-around legs scan only below it.
        // Fast reject: a whole congruent region is a 512-aligned, fully
        // free range — by eager buddy merging, a single free block of
        // order ≥ 9. Without one, no run can fit and the queries are
        // futile (the common case under heavy fragmentation).
        if !ctx.buddy.has_suitable_block(HUGE_PAGE_ORDER) {
            return None;
        }
        let whole_regions = |(start, rlen): (u64, u64)| -> u64 {
            let out0 = (region_start as i64 - congruent_offset(region_start, start)) as u64;
            (start + rlen).saturating_sub(out0) / PAGES_PER_HUGE_PAGE
        };
        let extent_need = extent_len.div_ceil(PAGES_PER_HUGE_PAGE) * PAGES_PER_HUGE_PAGE;
        let cursor = self.cursor;
        let buddy = ctx.buddy;
        let pick = buddy
            .first_congruent_run(cursor, region_start, extent_need)
            .or_else(|| buddy.first_congruent_run_below(cursor, region_start, extent_need))
            .or_else(|| buddy.first_congruent_run(cursor, region_start, PAGES_PER_HUGE_PAGE))
            .or_else(|| buddy.first_congruent_run_below(cursor, region_start, PAGES_PER_HUGE_PAGE));

        // (c) No run holds even one congruent region: targeted placement
        // has no alignment value, so defer to the default allocator —
        // which also keeps EMA's pages out of the areas compaction is
        // trying to clear.
        let run = pick?;
        let (offset, len) = {
            self.cursor = run.0;
            let offset = congruent_offset(region_start, run.0);
            let len = (whole_regions(run) * PAGES_PER_HUGE_PAGE).min(extent_len);
            (offset, len)
        };

        self.ema.insert(OffsetDescriptor {
            key,
            start: region_start,
            len,
            offset,
        });
        self.broken.remove(&key);
        Some(offset)
    }

    fn guest_fault(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision {
        let key = Self::key_of(ctx);
        self.last_key = Some(key);
        self.last_vm = ctx.vm.0;

        if Self::huge_legal(ctx) {
            // 1. Bucket reuse: whole well-aligned region, zero cost to
            //    re-align.
            if self.cfg.enable_bucket {
                if let Some(hf) = self.bucket.take() {
                    self.stats.bucket_huge_allocs += 1;
                    self.rec.emit(cat::BUCKET, ctx.vm.0, Layer::Guest, || {
                        EventKind::BucketReused { region: hf }
                    });
                    return FaultDecision::HugeReserved { huge_frame: hf };
                }
            }
            if self.cfg.sync_huge_faults {
                // 2. Booked region: huge allocation that matches a
                //    mis-aligned host huge page.
                if self.cfg.enable_booking {
                    if let Some(hf) = self.bookings.take_whole() {
                        self.stats.booked_huge_allocs += 1;
                        self.rec.emit(cat::BOOKING, ctx.vm.0, Layer::Guest, || {
                            EventKind::BookingConsumed {
                                region: hf,
                                whole: true,
                            }
                        });
                        return FaultDecision::HugeReserved { huge_frame: hf };
                    }
                }
                // 3. THP-style synchronous huge allocation.
                if ctx
                    .buddy
                    .free_area_counts()
                    .free_blocks_suitable(HUGE_PAGE_ORDER)
                    > 0
                {
                    return FaultDecision::Huge;
                }
            }
        }

        if !self.cfg.enable_ema {
            return FaultDecision::Base;
        }

        // 4. EMA placement. A region that already has congruent pages is
        //    continued at the same offset (derived from its population);
        //    a region whose placement is already scattered gets no
        //    targeted placement at all — spending contiguity on it cannot
        //    make it promotable in place.
        let pop = &ctx.region_pop;
        if pop.present > 0 {
            if !pop.in_place_eligible {
                return FaultDecision::Base;
            }
            let Some(t0) = pop.target_huge_frame else {
                return FaultDecision::Base;
            };
            let target = (t0 << HUGE_PAGE_ORDER) + ctx.addr_frame % PAGES_PER_HUGE_PAGE;
            return self.targeted_base(target);
        }

        // Empty region: follow the VMA's offset descriptor, establishing
        // one (or a sub-VMA) as needed.
        let needs_establish =
            self.broken.contains(&key) || self.ema.find(key, ctx.addr_frame).is_none();
        if needs_establish {
            if self.establish(ctx, key).is_none() {
                return FaultDecision::Base;
            }
            self.rec
                .emit(cat::EMA, ctx.vm.0, Layer::Guest, || EventKind::EmaMiss {
                    key,
                });
        } else {
            self.rec
                .emit(cat::EMA, ctx.vm.0, Layer::Guest, || EventKind::EmaHit {
                    key,
                });
        }
        let Some(desc) = self.ema.find(key, ctx.addr_frame) else {
            return FaultDecision::Base;
        };
        let target = {
            let t = desc.target(ctx.addr_frame) as i64;
            if t < 0 {
                return FaultDecision::Base;
            }
            t as u64
        };
        self.targeted_base(target)
    }

    /// Emits a targeted base placement, drawing from a booking when the
    /// target frame belongs to one.
    fn targeted_base(&mut self, target: u64) -> FaultDecision {
        if self.bookings.frame_available(target) {
            self.bookings.take_frame(target);
            self.stats.booked_base_allocs += 1;
            let (vm, layer) = (self.last_vm, obs_layer(self.layer));
            self.rec
                .emit(cat::BOOKING, vm, layer, || EventKind::BookingConsumed {
                    region: target >> HUGE_PAGE_ORDER,
                    whole: false,
                });
            FaultDecision::BaseReserved { frame: target }
        } else {
            FaultDecision::BaseAt { frame: target }
        }
    }

    fn host_fault(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision {
        let key = Self::key_of(ctx);
        self.last_key = Some(key);
        self.last_vm = ctx.vm.0;
        let region = ctx.region();

        if Self::huge_legal(ctx) {
            // 1. A reserved HPA block set aside for this guest huge page.
            if let Some((hpa_huge, _)) = self.host_reserve.remove(&(ctx.vm.0, region)) {
                self.stats.booked_huge_allocs += 1;
                self.rec.emit(cat::BOOKING, ctx.vm.0, Layer::Host, || {
                    EventKind::BookingConsumed {
                        region,
                        whole: true,
                    }
                });
                return FaultDecision::HugeReserved {
                    huge_frame: hpa_huge,
                };
            }
            // 2. Guest maps this GPA region huge (or a free block exists):
            //    back it huge, THP-host style.
            self.refresh_view();
            let guest_wants_huge = self
                .view
                .scans
                .get(&ctx.vm)
                .map(|s| s.guest_huge_regions.contains(&region))
                .unwrap_or(false);
            let suitable = ctx
                .buddy
                .free_area_counts()
                .free_blocks_suitable(HUGE_PAGE_ORDER);
            // Cross-layer discipline: huge host pages that do not match a
            // guest huge page are mis-aligned by construction, so back
            // huge eagerly only where the guest maps huge. Only with
            // abundant free blocks fall back to greedy THP-host backing
            // (cheap walk savings, nothing displaced).
            if suitable > 0 && (guest_wants_huge || suitable >= 32) {
                return FaultDecision::Huge;
            }
        }

        if !self.cfg.enable_ema {
            return FaultDecision::Base;
        }

        // 3. EMA congruent placement (per-VM extent), continuing a
        //    region's established offset and skipping scattered regions,
        //    exactly as at the guest layer.
        let pop = &ctx.region_pop;
        if pop.present > 0 {
            if !pop.in_place_eligible {
                return FaultDecision::Base;
            }
            let Some(t0) = pop.target_huge_frame else {
                return FaultDecision::Base;
            };
            let target = (t0 << HUGE_PAGE_ORDER) + ctx.addr_frame % PAGES_PER_HUGE_PAGE;
            return FaultDecision::BaseAt { frame: target };
        }
        let needs_establish =
            self.broken.contains(&key) || self.ema.find(key, ctx.addr_frame).is_none();
        if needs_establish {
            if self.establish(ctx, key).is_none() {
                return FaultDecision::Base;
            }
            self.rec
                .emit(cat::EMA, ctx.vm.0, Layer::Host, || EventKind::EmaMiss {
                    key,
                });
        } else {
            self.rec
                .emit(cat::EMA, ctx.vm.0, Layer::Host, || EventKind::EmaHit {
                    key,
                });
        }
        let Some(desc) = self.ema.find(key, ctx.addr_frame) else {
            return FaultDecision::Base;
        };
        let t = desc.target(ctx.addr_frame) as i64;
        if t < 0 {
            return FaultDecision::Base;
        }
        FaultDecision::BaseAt { frame: t as u64 }
    }

    fn guest_daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        let now = ops.now;
        self.refresh_view();
        let (timeout, bucket_hold) = (self.view.booking_timeout, self.view.bucket_hold);
        // Pointer clone of this VM's scan: daemon passes iterate it while
        // mutating bookings/bucket without re-locking or copying lists.
        let scan: Option<Arc<VmScan>> = self.view.scans.get(&ops.vm).cloned();

        let vm = ops.vm.0;
        self.last_vm = vm;

        // Maintenance: expiry and pressure release.
        let expired = self.bookings.expire(ops.buddy, now);
        if expired > 0 {
            self.rec.emit(cat::BOOKING, vm, Layer::Guest, || {
                EventKind::BookingExpired {
                    regions: expired as u64,
                }
            });
        }
        let mut released = self.bucket.expire(ops.buddy, now, bucket_hold);
        let frag = ops.buddy.fragmentation_index(HUGE_PAGE_ORDER);
        let free_ratio = ops.buddy.free_frames() as f64 / ops.buddy.total_frames() as f64;
        if free_ratio < 0.08 || frag > 0.95 {
            released += self.bucket.release(ops.buddy, 4);
            if free_ratio < 0.04 {
                self.bookings.release_all(ops.buddy);
            }
        }
        if released > 0 {
            self.rec.emit(cat::BUCKET, vm, Layer::Guest, || {
                EventKind::BucketReleased {
                    regions: released as u64,
                }
            });
        }
        self.rec
            .gauge_set("gemini.guest.bucket_len", self.bucket.len() as f64);
        self.rec
            .gauge_set("gemini.guest.bookings_active", self.bookings.len() as f64);

        // Booking: reserve the regions under type-1 mis-aligned host huge
        // pages.
        if self.cfg.enable_booking {
            let host_type1 = scan
                .as_ref()
                .map(|s| s.host_type1.as_slice())
                .unwrap_or(&[]);
            for &gpa_region in host_type1 {
                if self.bookings.len() >= self.cfg.book_cap {
                    break;
                }
                if !self.bookings.contains(gpa_region) {
                    // Only type-1 regions that are still fully free book
                    // successfully; racing allocations make this a no-op.
                    if self
                        .bookings
                        .book(ops.buddy, gpa_region, now, timeout)
                        .is_ok()
                    {
                        self.rec
                            .emit(cat::BOOKING, vm, Layer::Guest, || EventKind::Booked {
                                region: gpa_region,
                            });
                        self.rec.counter_add("gemini.bookings_placed", 1);
                    }
                }
            }
        }

        let mut promos = Vec::new();

        // Preallocation (fill-then-promote) and free in-place promotions.
        for (region, is_huge) in ops.table.iter_regions() {
            if promos.len() >= self.cfg.promo_budget {
                break;
            }
            if is_huge {
                continue;
            }
            let pop = ops.table.region_population(region);
            if !pop.in_place_eligible || pop.present == 0 {
                continue;
            }
            if pop.present == PAGES_PER_HUGE_PAGE as usize {
                promos.push(PromotionOp::new(region, PromotionKind::InPlaceOnly));
                continue;
            }
            let Some(target_huge) = pop.target_huge_frame else {
                continue;
            };
            if pop.present >= self.cfg.prealloc_threshold {
                if self.bookings.contains(target_huge) {
                    // The missing frames belong to the booking: take them
                    // and promote with reserved frames.
                    let pa0 = target_huge << HUGE_PAGE_ORDER;
                    let all_available = (0..PAGES_PER_HUGE_PAGE).all(|i| {
                        let f = pa0 + i;
                        self.bookings.frame_available(f) || !ops.buddy.is_frame_free(f)
                    });
                    if all_available {
                        for i in 0..PAGES_PER_HUGE_PAGE {
                            self.bookings.take_frame(pa0 + i);
                        }
                        self.stats.prealloc_promotions += 1;
                        promos.push(PromotionOp {
                            region,
                            kind: PromotionKind::FillThenPromote,
                            copy_target: None,
                            target_reserved: true,
                        });
                    }
                } else if frag <= self.cfg.prealloc_max_fmfi
                    || pop.present >= (PAGES_PER_HUGE_PAGE as usize * 3 / 4)
                {
                    // Filling a >= half-populated region only consumes
                    // sub-huge free fragments, so it cannot reduce order-9
                    // contiguity; under extreme fragmentation the FMFI
                    // gate still applies as a bloat guard until the region
                    // is 3/4 populated.
                    self.stats.prealloc_promotions += 1;
                    promos.push(PromotionOp::new(region, PromotionKind::FillThenPromote));
                }
            }
        }

        // Promoter (MHPP): collapse the GVA regions whose base pages sit
        // under type-2 mis-aligned host huge pages, first.
        if self.cfg.enable_promoter {
            let host_type2 = scan
                .as_ref()
                .map(|s| s.host_type2.as_slice())
                .unwrap_or(&[]);
            for &(gpa_region, ref gva_regions) in host_type2 {
                for &gva_region in gva_regions {
                    if promos.len() >= 2 * self.cfg.promo_budget {
                        break;
                    }
                    if ops.table.huge_leaf(gva_region).is_some() {
                        continue;
                    }
                    if ops.table.region_population(gva_region).present == 0 {
                        continue;
                    }
                    if promos.iter().any(|p| p.region == gva_region) {
                        continue;
                    }
                    self.stats.mhpp_promotions += 1;
                    promos.push(PromotionOp {
                        region: gva_region,
                        kind: PromotionKind::PreferInPlace,
                        copy_target: Some(gpa_region),
                        target_reserved: false,
                    });
                }
            }
        }

        // Gemini rides on the stock THP machinery, and its own daemon
        // (the prototype's kgeminid) adds promotion capacity on top of
        // khugepaged's: populated-but-scattered regions are collapsed by
        // copy, round-robin.
        let leftover = self.cfg.promo_budget / 2;
        self.generic_collapse(ops, &mut promos, leftover);

        promos
    }

    /// khugepaged-style collapse of populated regions that in-place
    /// promotion cannot fix (scattered placement), bounded by `budget`.
    fn generic_collapse(
        &mut self,
        ops: &LayerOps<'_>,
        promos: &mut Vec<PromotionOp>,
        budget: usize,
    ) {
        let candidates: Vec<u64> = ops
            .table
            .iter_regions()
            .filter(|&(_, huge)| !huge)
            .map(|(r, _)| r)
            .collect();
        if candidates.is_empty() {
            return;
        }
        let start = candidates.partition_point(|&r| r <= self.promo_cursor);
        let mut picked = 0usize;
        for idx in 0..candidates.len() {
            if picked >= budget {
                break;
            }
            let region = candidates[(start + idx) % candidates.len()];
            if promos.iter().any(|p| p.region == region) {
                continue;
            }
            let pop = ops.table.region_population(region);
            if pop.present == 0 || pop.in_place_eligible {
                // Eligible regions are the fill/in-place paths' job.
                continue;
            }
            promos.push(PromotionOp::new(region, PromotionKind::PreferInPlace));
            self.promo_cursor = region;
            picked += 1;
        }
    }

    fn host_daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        let now = ops.now;
        self.refresh_view();
        let timeout = self.view.booking_timeout;

        // Expire HPA reservations.
        let expired: Vec<(u32, u64)> = self
            .host_reserve
            .iter()
            .filter(|(_, &(_, exp))| exp <= now)
            .map(|(&k, _)| k)
            .collect();
        let n_expired = expired.len() as u64;
        for k in expired {
            let (hpa_huge, _) = self.host_reserve.remove(&k).expect("key listed above");
            ops.buddy
                .free(hpa_huge << HUGE_PAGE_ORDER, HUGE_PAGE_ORDER)
                .expect("reservation owned this block");
        }
        if n_expired > 0 {
            let vm = ops.vm.0;
            self.rec.emit(cat::BOOKING, vm, Layer::Host, || {
                EventKind::BookingExpired { regions: n_expired }
            });
        }

        // Pointer clone, not a copy of the scan lists.
        let Some(scan) = self.view.scans.get(&ops.vm).cloned() else {
            return Vec::new();
        };

        // Reserve HPA blocks for type-1 mis-aligned guest huge pages —
        // but never the last free block: the synchronous backing path
        // must keep working, or reservations starve the very alignment
        // they exist to create.
        if self.cfg.enable_booking {
            for &gpa_region in &scan.guest_type1 {
                if self.host_reserve.len() >= self.cfg.book_cap {
                    break;
                }
                if ops
                    .buddy
                    .free_area_counts()
                    .free_blocks_suitable(HUGE_PAGE_ORDER)
                    < 2
                {
                    break;
                }
                let k = (ops.vm.0, gpa_region);
                if let std::collections::hash_map::Entry::Vacant(e) = self.host_reserve.entry(k) {
                    if let Ok(start) = ops.buddy.alloc(HUGE_PAGE_ORDER) {
                        e.insert((start >> HUGE_PAGE_ORDER, now + timeout));
                        let vm = ops.vm.0;
                        self.rec
                            .emit(cat::BOOKING, vm, Layer::Host, || EventKind::Booked {
                                region: gpa_region,
                            });
                        self.rec.counter_add("gemini.reservations_placed", 1);
                    }
                }
            }
        }

        let mut promos = Vec::new();

        // Promoter: EPT regions under type-2 mis-aligned guest huge pages
        // first.
        if self.cfg.enable_promoter {
            for &gpa_region in &scan.guest_type2 {
                if promos.len() >= self.cfg.promo_budget {
                    break;
                }
                if ops.table.huge_leaf(gpa_region).is_some() {
                    continue;
                }
                if ops.table.region_population(gpa_region).present == 0 {
                    continue;
                }
                self.stats.mhpp_promotions += 1;
                promos.push(PromotionOp::new(gpa_region, PromotionKind::PreferInPlace));
            }
        }

        // Free in-place promotions and host-side preallocation.
        let frag = ops.buddy.fragmentation_index(HUGE_PAGE_ORDER);
        for (region, is_huge) in ops.table.iter_regions() {
            if promos.len() >= 2 * self.cfg.promo_budget {
                break;
            }
            if is_huge || promos.iter().any(|p| p.region == region) {
                continue;
            }
            let pop = ops.table.region_population(region);
            if !pop.in_place_eligible || pop.present == 0 {
                continue;
            }
            if pop.present == PAGES_PER_HUGE_PAGE as usize {
                promos.push(PromotionOp::new(region, PromotionKind::InPlaceOnly));
            } else if pop.present >= self.cfg.prealloc_threshold
                && (frag <= self.cfg.prealloc_max_fmfi
                    || pop.present >= (PAGES_PER_HUGE_PAGE as usize * 3 / 4))
            {
                self.stats.prealloc_promotions += 1;
                promos.push(PromotionOp::new(region, PromotionKind::FillThenPromote));
            }
        }

        // Host THP's khugepaged equivalent keeps collapsing scattered EPT
        // regions underneath Gemini.
        let leftover = self.cfg.promo_budget / 2;
        self.generic_collapse(ops, &mut promos, leftover);

        promos
    }
}

impl HugePolicy for GeminiPolicy {
    fn name(&self) -> &'static str {
        "Gemini"
    }

    fn attach_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    fn fault_decision(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision {
        match self.layer {
            LayerKind::Guest => self.guest_fault(ctx),
            LayerKind::Host => self.host_fault(ctx),
        }
    }

    fn after_fault(&mut self, _addr_frame: u64, outcome: &FaultOutcome) {
        if !outcome.placement_honored {
            if let Some(key) = self.last_key {
                // Sub-VMA: the remainder of the extent re-establishes with
                // a fresh offset on the next fault.
                self.broken.insert(key);
                self.stats.sub_vma_splits += 1;
                let (vm, layer) = (self.last_vm, obs_layer(self.layer));
                self.rec
                    .emit(cat::EMA, vm, layer, || EventKind::SubVmaSplit { key });
            }
        }
    }

    fn daemon_period(&self) -> Cycles {
        Cycles::from_millis(20.0)
    }

    fn daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        match self.layer {
            LayerKind::Guest => self.guest_daemon(ops),
            LayerKind::Host => self.host_daemon(ops),
        }
    }

    fn select_demotions(&mut self, ops: &mut LayerOps<'_>) -> Vec<u64> {
        // §8 pressure policy: when memory runs short, split mis-aligned
        // huge pages first (they were not earning their keep anyway) and
        // then the coldest ones; well-aligned hot huge pages survive.
        if !self.cfg.pressure_demotion || self.layer != LayerKind::Guest {
            return Vec::new();
        }
        let free_ratio = ops.buddy.free_frames() as f64 / ops.buddy.total_frames() as f64;
        if free_ratio >= self.cfg.pressure_watermark {
            return Vec::new();
        }
        self.refresh_view();
        let scan = self.view.scans.get(&ops.vm).cloned();
        // Rank demotion candidates: mis-aligned before aligned, cold
        // before hot; take a small budget per pass. Aligned pages are
        // demoted only while completely cold.
        let mut candidates: Vec<(bool, u64, u64)> = ops
            .table
            .iter_huge()
            .map(|(va_region, pa_region)| {
                let is_aligned = scan
                    .as_ref()
                    .is_some_and(|s| s.aligned_regions.contains(&pa_region));
                let touches = ops.touches.get(va_region);
                (is_aligned, touches, va_region)
            })
            .collect();
        candidates.sort_unstable();
        candidates
            .into_iter()
            .take_while(|&(is_aligned, touches, _)| !is_aligned || touches == 0)
            .take(2)
            .map(|(_, _, region)| region)
            .collect()
    }

    fn intercept_huge_free(&mut self, pa_huge_frame: u64, now: Cycles) -> bool {
        if self.layer != LayerKind::Guest || !self.cfg.enable_bucket {
            return false;
        }
        // Keep only regions MHPS last saw as well-aligned: their host
        // backing is huge and worth preserving. Set membership is
        // order-independent, so the snapshot's hash-map iteration order
        // cannot influence the outcome.
        self.refresh_view();
        let aligned = self
            .view
            .scans
            .values()
            .any(|s| s.aligned_regions.contains(&pa_huge_frame));
        if aligned {
            self.bucket.offer(pa_huge_frame, now);
            let vm = self.last_vm;
            self.rec
                .emit(cat::BUCKET, vm, Layer::Guest, || EventKind::BucketOffered {
                    region: pa_huge_frame,
                });
            true
        } else {
            false
        }
    }

    fn on_region_unmapped(&mut self, _region: u64) {}

    fn bucket_reuse_rate(&self) -> f64 {
        self.bucket.reuse_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mhps::VmScan;
    use crate::shared::new_shared;
    use gemini_mm::{CostModel, GuestMm, HostMm};
    use gemini_sim_core::page::PageSize;
    use gemini_sim_core::{VmId, HUGE_PAGE_SIZE};

    const VM: VmId = VmId(1);

    fn async_cfg() -> GeminiConfig {
        GeminiConfig {
            sync_huge_faults: false,
            ..GeminiConfig::default()
        }
    }

    fn guest_with_policy() -> (GuestMm, GeminiPolicy) {
        let shared = new_shared();
        (
            GuestMm::new(VM, 1 << 14, CostModel::default()),
            GeminiPolicy::new(LayerKind::Guest, shared, async_cfg()),
        )
    }

    #[test]
    fn default_fault_path_places_contiguous_base_pages() {
        let (mut g, mut p) = guest_with_policy();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (first, _) = g.handle_fault(vma.start_frame(), &mut p).unwrap();
        assert_eq!(
            first.size,
            PageSize::Base,
            "async Gemini avoids sync huge faults"
        );
        let (second, _) = g.handle_fault(vma.start_frame() + 1, &mut p).unwrap();
        assert_eq!(second.pa_frame, first.pa_frame + 1, "EMA keeps contiguity");
        assert_eq!(first.pa_frame % 512, vma.start_frame() % 512, "congruent");
    }

    #[test]
    fn sync_mode_uses_thp_style_huge_fault() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let cfg = GeminiConfig {
            sync_huge_faults: true,
            ..GeminiConfig::default()
        };
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), cfg);
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (out, _) = g.handle_fault(vma.start_frame(), &mut p).unwrap();
        assert_eq!(out.size, PageSize::Huge);
    }

    #[test]
    fn booked_region_feeds_huge_allocation_in_sync_mode() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let cfg = GeminiConfig {
            sync_huge_faults: true,
            ..GeminiConfig::default()
        };
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), cfg);
        // Book GPA region 9 by hand (as the daemon would after a scan).
        p.bookings
            .book(g.buddy_mut(), 9, Cycles::ZERO, Cycles(1 << 40))
            .unwrap();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (out, _) = g.handle_fault(vma.start_frame(), &mut p).unwrap();
        assert_eq!(out.size, PageSize::Huge);
        assert_eq!(
            out.pa_frame,
            9 << HUGE_PAGE_ORDER,
            "placed in the booked region"
        );
        assert_eq!(p.stats.booked_huge_allocs, 1);
    }

    #[test]
    fn bucket_reuse_takes_priority_over_booking() {
        let (mut g, mut p) = guest_with_policy();
        g.buddy_mut()
            .alloc_at(5 << HUGE_PAGE_ORDER, HUGE_PAGE_ORDER)
            .unwrap();
        p.bucket.offer(5, Cycles::ZERO);
        p.bookings
            .book(g.buddy_mut(), 9, Cycles::ZERO, Cycles(1 << 40))
            .unwrap();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (out, _) = g.handle_fault(vma.start_frame(), &mut p).unwrap();
        assert_eq!(out.pa_frame, 5 << HUGE_PAGE_ORDER);
        assert_eq!(p.stats.bucket_huge_allocs, 1);
        assert_eq!(p.stats.booked_huge_allocs, 0);
    }

    #[test]
    fn ema_places_base_pages_into_booked_region() {
        let (mut g, mut p) = guest_with_policy();
        p.bookings
            .book(g.buddy_mut(), 9, Cycles::ZERO, Cycles(1 << 40))
            .unwrap();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        for i in 0..512 {
            let (out, _) = g.handle_fault(vma.start_frame() + i, &mut p).unwrap();
            assert_eq!(out.size, PageSize::Base);
            assert_eq!(
                out.pa_frame,
                (9 << HUGE_PAGE_ORDER) + i,
                "congruent placement"
            );
        }
        assert_eq!(p.stats.booked_base_allocs, 512);
        // The region is fully populated and in-place eligible.
        let region = vma.start_frame() >> HUGE_PAGE_ORDER;
        let pop = g.table().region_population(region);
        assert_eq!(pop.present, 512);
        assert!(pop.in_place_eligible);
    }

    #[test]
    fn guest_daemon_books_type1_regions_from_scan() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let mut p = GeminiPolicy::new(
            LayerKind::Guest,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        let scan = VmScan {
            host_type1: vec![3, 7],
            ..Default::default()
        };
        shared.write().scans.insert(VM, Arc::new(scan));
        g.run_daemon(&mut p, Cycles::ZERO, 1);
        assert!(p.bookings.contains(3));
        assert!(p.bookings.contains(7));
        // Booked regions are protected from ordinary allocation.
        assert!(g.buddy_mut().alloc_at(3 << HUGE_PAGE_ORDER, 0).is_err());
    }

    use std::sync::Arc;

    #[test]
    fn booking_expires_and_returns_frames() {
        let shared = new_shared();
        shared.write().booking_timeout = Cycles(100);
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let mut p = GeminiPolicy::new(
            LayerKind::Guest,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        let scan = VmScan {
            host_type1: vec![3],
            ..Default::default()
        };
        shared.write().scans.insert(VM, Arc::new(scan));
        g.run_daemon(&mut p, Cycles(0), 1);
        assert!(p.bookings.contains(3));
        let free_before = g.buddy().free_frames();
        // Remove the scan so the daemon does not immediately re-book.
        shared.write().scans.insert(VM, Arc::new(VmScan::default()));
        g.run_daemon(&mut p, Cycles(200), 1);
        assert!(!p.bookings.contains(3));
        assert_eq!(g.buddy().free_frames(), free_before + 512);
    }

    #[test]
    fn preallocation_fills_booked_region_and_promotes() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), async_cfg());
        p.bookings
            .book(g.buddy_mut(), 9, Cycles::ZERO, Cycles(1 << 40))
            .unwrap();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        for i in 0..300 {
            g.handle_fault(vma.start_frame() + i, &mut p).unwrap();
        }
        let fx = g.run_daemon(&mut p, Cycles::ZERO, 1);
        let region = vma.start_frame() >> HUGE_PAGE_ORDER;
        assert_eq!(
            g.table().huge_leaf(region),
            Some(9),
            "promoted onto the booking"
        );
        assert_eq!(fx.pages_copied, 0, "no migration");
        assert_eq!(fx.pages_zeroed, 212);
        assert!(p.stats.prealloc_promotions >= 1);
    }

    #[test]
    fn promoter_targets_type2_regions() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), async_cfg());
        // Scatter 60 base pages of GVA region R; MHPS reports they sit
        // under a type-2 mis-aligned host huge page at GPA region 4.
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let gva_region = vma.start_frame() >> HUGE_PAGE_ORDER;
        for i in 0..60 {
            g.handle_fault(vma.start_frame() + i * 5, &mut p).unwrap();
        }
        let scan = VmScan {
            host_type2: vec![(4, vec![gva_region])],
            ..Default::default()
        };
        shared.write().scans.insert(VM, Arc::new(scan));
        let before = g.table().huge_mapped();
        g.run_daemon(&mut p, Cycles::ZERO, 1);
        assert!(
            g.table().huge_mapped() > before,
            "promoter collapsed the region"
        );
        assert!(p.stats.mhpp_promotions >= 1);
        // The collapse landed on the requested GPA region, aligning it.
        assert_eq!(g.table().huge_leaf(gva_region), Some(4));
    }

    #[test]
    fn bucket_intercepts_only_aligned_frees() {
        let shared = new_shared();
        let mut scan = VmScan::default();
        scan.aligned_regions.insert(5);
        shared.write().scans.insert(VM, Arc::new(scan));
        let mut p = GeminiPolicy::new(
            LayerKind::Guest,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        assert!(p.intercept_huge_free(5, Cycles::ZERO));
        assert!(!p.intercept_huge_free(6, Cycles::ZERO));
        assert_eq!(p.bucket().len(), 1);
        // Host-layer instances never intercept.
        let mut hp = GeminiPolicy::new(
            LayerKind::Host,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        assert!(!hp.intercept_huge_free(5, Cycles::ZERO));
    }

    #[test]
    fn host_fault_uses_reserved_block_for_guest_huge_region() {
        let shared = new_shared();
        let mut h = HostMm::new(1 << 14, CostModel::default());
        h.register_vm(VM);
        let mut p = GeminiPolicy::new(
            LayerKind::Host,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        // Scan says: guest huge page at GPA region 2, EPT empty (type-1).
        let mut scan = VmScan {
            guest_type1: vec![2],
            ..Default::default()
        };
        scan.guest_huge_regions.insert(2);
        shared.write().scans.insert(VM, Arc::new(scan));
        // Daemon reserves an HPA block.
        h.run_daemon(VM, &mut p, Cycles::ZERO, 1).unwrap();
        assert_eq!(p.host_reserve.len(), 1);
        // EPT fault at the region: backed huge from the reservation.
        let (out, _) = h.handle_fault(VM, 2 * 512 + 7, &mut p).unwrap();
        assert_eq!(out.size, PageSize::Huge);
        assert!(p.host_reserve.is_empty());
        assert!(h.ept(VM).unwrap().huge_leaf(2).is_some());
    }

    #[test]
    fn host_daemon_promotes_type2_ept_regions() {
        let shared = new_shared();
        let mut h = HostMm::new(1 << 14, CostModel::default());
        h.register_vm(VM);
        let mut base = gemini_policies::BaseOnly;
        // Partially back GPA region 0 with base pages.
        for gpa in 0..50u64 {
            h.handle_fault(VM, gpa, &mut base).unwrap();
        }
        let mut scan = VmScan {
            guest_type2: vec![0],
            ..Default::default()
        };
        scan.guest_huge_regions.insert(0);
        shared.write().scans.insert(VM, Arc::new(scan));
        let mut p = GeminiPolicy::new(
            LayerKind::Host,
            Arc::clone(&shared),
            GeminiConfig::default(),
        );
        let fx = h.run_daemon(VM, &mut p, Cycles::ZERO, 1).unwrap();
        assert!(
            h.ept(VM).unwrap().huge_leaf(0).is_some(),
            "EPT region collapsed"
        );
        assert_eq!(fx.gpa_regions_changed, vec![0]);
    }

    #[test]
    fn sub_vma_reestablishes_after_broken_placement() {
        let (mut g, mut p) = guest_with_policy();
        // Fragmented memory forces EMA base placement.
        let mut rng = gemini_sim_core::DetRng::new(11);
        *g.buddy_mut() = gemini_mm::fragmented(g.buddy().total_frames(), 0.3, &mut rng).0;
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        let (first, _) = g.handle_fault(vma.start_frame(), &mut p).unwrap();
        // Steal the next target frame.
        if g.buddy().is_frame_free(first.pa_frame + 1) {
            g.buddy_mut().alloc_at(first.pa_frame + 1, 0).unwrap();
        }
        let (second, _) = g.handle_fault(vma.start_frame() + 1, &mut p).unwrap();
        if !second.placement_honored {
            assert!(p.stats.sub_vma_splits >= 1);
            // The extent recovers: the next two faults are contiguous.
            let (a, _) = g.handle_fault(vma.start_frame() + 2, &mut p).unwrap();
            let (b, _) = g.handle_fault(vma.start_frame() + 3, &mut p).unwrap();
            assert_eq!(b.pa_frame, a.pa_frame + 1);
        }
    }

    #[test]
    fn pressure_demotion_splits_misaligned_and_cold_first() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 4 * 512, CostModel::default());
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), async_cfg());
        // Two huge mappings: GPA region 0 (aligned per scan), 1 (misaligned).
        let vma = g.mmap(2 * gemini_sim_core::HUGE_PAGE_SIZE).unwrap();
        g.table_mut().map_huge(vma.start_frame() >> 9, 0).unwrap();
        g.table_mut()
            .map_huge((vma.start_frame() >> 9) + 1, 1)
            .unwrap();
        g.buddy_mut().alloc_at(0, HUGE_PAGE_ORDER).unwrap();
        g.buddy_mut().alloc_at(512, HUGE_PAGE_ORDER).unwrap();
        let mut scan = VmScan::default();
        scan.aligned_regions.insert(0);
        shared.write().scans.insert(VM, Arc::new(scan));
        // The aligned region is hot.
        g.record_touch(vma.start_frame());
        // Memory pressure: leave less than 5 % free.
        while g.buddy().free_frames() > 4 * 512 / 25 {
            g.buddy_mut().alloc(0).unwrap();
        }
        g.run_daemon(&mut p, Cycles::ZERO, 1);
        // Only the mis-aligned huge page was demoted.
        assert!(
            g.table().huge_leaf(vma.start_frame() >> 9).is_some(),
            "aligned+hot survives"
        );
        assert!(
            g.table().huge_leaf((vma.start_frame() >> 9) + 1).is_none(),
            "misaligned demoted"
        );
    }

    #[test]
    fn no_pressure_means_no_demotion() {
        let shared = new_shared();
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), async_cfg());
        let vma = g.mmap(gemini_sim_core::HUGE_PAGE_SIZE).unwrap();
        g.table_mut().map_huge(vma.start_frame() >> 9, 3).unwrap();
        g.buddy_mut().alloc_at(3 * 512, HUGE_PAGE_ORDER).unwrap();
        g.run_daemon(&mut p, Cycles::ZERO, 1);
        assert!(g.table().huge_leaf(vma.start_frame() >> 9).is_some());
    }

    #[test]
    fn ablation_flags_disable_components() {
        let shared = new_shared();
        let cfg = GeminiConfig {
            enable_bucket: false,
            enable_booking: false,
            ..GeminiConfig::default()
        };
        let mut p = GeminiPolicy::new(LayerKind::Guest, Arc::clone(&shared), cfg);
        // Bucket disabled: frees pass through even for aligned regions.
        let mut scan = VmScan::default();
        scan.aligned_regions.insert(5);
        shared.write().scans.insert(VM, Arc::new(scan));
        assert!(!p.intercept_huge_free(5, Cycles::ZERO));
        // Booking disabled: daemon books nothing.
        let mut g = GuestMm::new(VM, 1 << 14, CostModel::default());
        let scan2 = VmScan {
            host_type1: vec![3],
            ..Default::default()
        };
        shared.write().scans.insert(VM, Arc::new(scan2));
        g.run_daemon(&mut p, Cycles::ZERO, 1);
        assert!(p.bookings().is_empty());
    }
}
