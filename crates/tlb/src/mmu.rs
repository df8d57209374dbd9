//! The MMU simulator: TLB lookups and two-dimensional page walks.
//!
//! [`MmuSim::access`] is the hot path: given a guest virtual frame and the
//! *resolved* pair of leaf sizes for its translation (guest PTE size and
//! host EPT leaf size), it simulates the hardware's behaviour and returns
//! the cycle cost. The rule at the center of the paper is enforced here:
//!
//! > a 2 MiB TLB entry may be installed only when **both** layers map the
//! > page with 2 MiB leaves (a *well-aligned* huge page). Any other
//! > combination splinters to 4 KiB entries.

use crate::cache::SetAssocCache;
use crate::config::MmuConfig;
use crate::counters::PerfCounters;
use gemini_obs::{cat, EventKind, Layer, Recorder};
use gemini_page_table::LeafSize;
use gemini_sim_core::{Cycles, SimError, VmId, HUGE_PAGE_ORDER};

/// The already-resolved translation of one guest virtual frame.
///
/// The memory manager resolves the two page-table layers (it owns them);
/// the MMU model only needs the leaf geometry and the output frames to
/// simulate caching behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedTranslation {
    /// Guest physical base-frame the GVA maps to.
    pub gpa_frame: u64,
    /// Size of the guest page-table leaf (GVA → GPA).
    pub guest_leaf: LeafSize,
    /// Size of the EPT leaf backing the GPA (GPA → HPA).
    pub host_leaf: LeafSize,
}

impl ResolvedTranslation {
    /// True when this translation is a well-aligned huge page: huge leaves
    /// at both layers, so hardware may cache a 2 MiB TLB entry.
    pub fn well_aligned_huge(self) -> bool {
        self.guest_leaf == LeafSize::Huge && self.host_leaf == LeafSize::Huge
    }
}

/// Outcome of simulating one translated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Translation cost in cycles (excludes the data access itself).
    pub cycles: Cycles,
    /// True when a page walk was required (an STLB miss — what the paper
    /// counts as a "TLB miss").
    pub walked: bool,
    /// True when the installed/used entry was a 2 MiB translation.
    pub huge_entry: bool,
}

/// Tags distinguishing key spaces inside the opaque cache keys.
const SIZE_BASE: u128 = 0;
const SIZE_HUGE: u128 = 1;

/// Retired hit-run batching statistics: always zero.
///
/// Closed-form hit-run batching is gone (DESIGN.md §16), so every field
/// is always zero. The only reader is perfbench, which cross-checks it
/// (through `Machine::batch_stats`) against the recorder counters
/// behind its three `tlb.batch_*` per-layer metrics; the benchmark
/// change that drops those metrics deletes this stub.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Always 0.
    pub runs: u64,
    /// Always 0.
    pub hits: u64,
    /// Always 0.
    pub breaks: u64,
}

/// The simulated MMU for one physical core (shared by all VMs on it, with
/// VM-tagged entries, like VPID/EP4TA tagging on real hardware).
#[derive(Debug, Clone)]
pub struct MmuSim {
    cfg: MmuConfig,
    l1_4k: SetAssocCache,
    l1_2m: SetAssocCache,
    stlb: SetAssocCache,
    ntlb: SetAssocCache,
    /// Guest paging-structure caches for levels 4, 3, 2 (index 0 = L4).
    gpwc: [SetAssocCache; 3],
    /// EPT paging-structure caches for levels 4, 3, 2 (index 0 = L4).
    epwc: [SetAssocCache; 3],
    counters: PerfCounters,
    /// Page size of the most recent TLB hit — a probe-order heuristic
    /// for [`MmuSim::access_unresolved`], with no effect on simulated
    /// state.
    last_hit_huge: bool,
    rec: Recorder,
    rec_vm: u32,
}

// Machines (and the MMU model they own) run whole on executor worker
// threads; the recorder handle inside must keep the type `Send`.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MmuSim>();
};

impl MmuSim {
    /// Creates an MMU with the given geometry.
    ///
    /// Fails with [`SimError::BadCacheGeometry`] when any structure's
    /// `entries / assoc` is not a power of two (see
    /// [`SetAssocCache::new`]).
    pub fn new(cfg: MmuConfig) -> Result<Self, SimError> {
        Ok(Self {
            l1_4k: SetAssocCache::new(cfg.l1_4k_entries, cfg.l1_4k_assoc)?,
            l1_2m: SetAssocCache::new(cfg.l1_2m_entries, cfg.l1_2m_assoc)?,
            stlb: SetAssocCache::new(cfg.stlb_entries, cfg.stlb_assoc)?,
            ntlb: SetAssocCache::new(cfg.ntlb_entries, cfg.ntlb_assoc)?,
            gpwc: [
                SetAssocCache::new(cfg.gpwc_entries[0], 2)?,
                SetAssocCache::new(cfg.gpwc_entries[1], 2)?,
                SetAssocCache::new(cfg.gpwc_entries[2], 4)?,
            ],
            epwc: [
                SetAssocCache::new(cfg.epwc_entries[0], 2)?,
                SetAssocCache::new(cfg.epwc_entries[1], 2)?,
                SetAssocCache::new(cfg.epwc_entries[2], 4)?,
            ],
            counters: PerfCounters::new(),
            last_hit_huge: false,
            cfg,
            rec: Recorder::off(),
            rec_vm: 0,
        })
    }

    /// Attaches an observability recorder; shootdowns charged to this
    /// MMU are traced as events of VM `vm`.
    pub fn set_recorder(&mut self, rec: Recorder, vm: u32) {
        self.rec = rec;
        self.rec_vm = vm;
    }

    /// Returns the accumulated performance counters.
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Attempts to satisfy one data access from the TLBs alone, probing
    /// by virtual address like the hardware does — both page-size arrays,
    /// without resolving the translation first. Returns `None` on an STLB
    /// miss, in which case nothing (counters included) has been mutated:
    /// the caller resolves the two page-table layers and charges the walk
    /// through [`MmuSim::access`], which reproduces the exact probe
    /// sequence and therefore the exact state this method left behind.
    ///
    /// At most one array can hold an entry for a VA: every promotion,
    /// demotion and unmap invalidates the region's entries (that flush is
    /// the shootdown cost the model charges), so a hit here always agrees
    /// with what resolving the translation would have selected.
    pub fn access_unresolved(&mut self, vm: VmId, gva_frame: u64) -> Option<AccessOutcome> {
        // Probe order is behaviorally free (a miss probe mutates
        // nothing, and at most one size can hit), so try the size that
        // hit last time first — workloads are strongly phased toward
        // one page size. The second size's key is only built when the
        // first probe misses.
        let first_huge = self.last_hit_huge;
        let first_key = Self::tlb_key(vm, gva_frame, first_huge);
        if self.l1_of(first_huge).lookup(first_key) {
            return Some(self.l1_hit_outcome(first_huge));
        }
        let second_key = Self::tlb_key(vm, gva_frame, !first_huge);
        if self.l1_of(!first_huge).lookup(second_key) {
            return Some(self.l1_hit_outcome(!first_huge));
        }
        for (huge_entry, key) in [(first_huge, first_key), (!first_huge, second_key)] {
            if self.stlb.lookup(key) {
                self.counters.accesses += 1;
                self.counters.stlb_hits += 1;
                self.l1_of(huge_entry).insert(key);
                let cycles = self.cfg.l1_hit_cycles + self.cfg.stlb_hit_cycles;
                self.counters.translation_cycles += cycles;
                self.last_hit_huge = huge_entry;
                return Some(AccessOutcome {
                    cycles: Cycles(cycles),
                    walked: false,
                    huge_entry,
                });
            }
        }
        None
    }

    #[inline]
    fn l1_of(&mut self, huge: bool) -> &mut SetAssocCache {
        if huge {
            &mut self.l1_2m
        } else {
            &mut self.l1_4k
        }
    }

    #[inline]
    fn l1_hit_outcome(&mut self, huge_entry: bool) -> AccessOutcome {
        self.counters.accesses += 1;
        self.counters.l1_hits += 1;
        self.counters.translation_cycles += self.cfg.l1_hit_cycles;
        self.last_hit_huge = huge_entry;
        AccessOutcome {
            cycles: Cycles(self.cfg.l1_hit_cycles),
            walked: false,
            huge_entry,
        }
    }

    /// Simulates the translation for one data access.
    pub fn access(&mut self, vm: VmId, gva_frame: u64, t: ResolvedTranslation) -> AccessOutcome {
        self.counters.accesses += 1;
        let huge_entry = t.well_aligned_huge();
        let key = Self::tlb_key(vm, gva_frame, huge_entry);

        // L1 lookup: the hardware probes both page-size arrays.
        let l1 = if huge_entry {
            &mut self.l1_2m
        } else {
            &mut self.l1_4k
        };
        if l1.lookup(key) {
            self.counters.l1_hits += 1;
            self.counters.translation_cycles += self.cfg.l1_hit_cycles;
            return AccessOutcome {
                cycles: Cycles(self.cfg.l1_hit_cycles),
                walked: false,
                huge_entry,
            };
        }

        // L2 STLB.
        if self.stlb.lookup(key) {
            self.counters.stlb_hits += 1;
            l1.insert(key);
            let cycles = self.cfg.l1_hit_cycles + self.cfg.stlb_hit_cycles;
            self.counters.translation_cycles += cycles;
            return AccessOutcome {
                cycles: Cycles(cycles),
                walked: false,
                huge_entry,
            };
        }

        // Miss: 2-D page walk.
        self.walk_and_install(vm, gva_frame, t, huge_entry, key)
    }

    /// Simulates the translation for one data access that
    /// [`MmuSim::access_unresolved`] already established misses every
    /// TLB level — goes straight to the 2-D walk without re-probing.
    pub fn access_after_tlb_miss(
        &mut self,
        vm: VmId,
        gva_frame: u64,
        t: ResolvedTranslation,
    ) -> AccessOutcome {
        self.counters.accesses += 1;
        let huge_entry = t.well_aligned_huge();
        let key = Self::tlb_key(vm, gva_frame, huge_entry);
        self.walk_and_install(vm, gva_frame, t, huge_entry, key)
    }

    /// The STLB-miss tail of an access: walk both dimensions, install
    /// the translation in the STLB and the L1 array for its size.
    fn walk_and_install(
        &mut self,
        vm: VmId,
        gva_frame: u64,
        t: ResolvedTranslation,
        huge_entry: bool,
        key: u128,
    ) -> AccessOutcome {
        self.counters.stlb_misses += 1;
        let refs = self.nested_walk(vm, gva_frame, t);
        self.counters.walk_mem_refs += refs as u64;
        if huge_entry {
            self.counters.huge_walks += 1;
        }

        // Install the translation in both TLB levels.
        self.stlb.insert(key);
        let l1 = if huge_entry {
            &mut self.l1_2m
        } else {
            &mut self.l1_4k
        };
        l1.insert(key);

        let cycles = self.cfg.l1_hit_cycles
            + self.cfg.walk_setup_cycles
            + refs as u64 * self.cfg.walk_ref_cycles;
        self.counters.translation_cycles += cycles;
        AccessOutcome {
            cycles: Cycles(cycles),
            walked: true,
            huge_entry,
        }
    }

    /// Performs the two-dimensional walk, returning memory references made.
    fn nested_walk(&mut self, vm: VmId, gva_frame: u64, t: ResolvedTranslation) -> u32 {
        let mut refs = 0u32;
        let guest_leaf_level = match t.guest_leaf {
            LeafSize::Base => 1,
            LeafSize::Huge => 2,
        };

        // Guest dimension: which levels must actually be referenced, given
        // the deepest guest paging-structure-cache hit.
        let start_level = self.pwc_deepest(vm, gva_frame, guest_leaf_level, true);
        for level in (guest_leaf_level..=start_level).rev() {
            // The guest page-table page at `level` lives at a GPA; its
            // translation goes through the nested TLB, missing into an EPT
            // walk. PT pages are assumed base-backed.
            let pt_gpa = Self::pt_page_id(gva_frame, level);
            let nkey = Self::ntlb_key(vm, pt_gpa, false);
            if self.ntlb.lookup(nkey) {
                self.counters.ntlb_hits += 1;
            } else {
                self.counters.ntlb_misses += 1;
                refs += self.ept_walk(vm, pt_gpa, LeafSize::Base);
                self.ntlb.insert(nkey);
            }
            // The reference to the guest entry itself.
            refs += 1;
            // Install the directory entry in the guest PWC (non-leaf only).
            if level > guest_leaf_level {
                self.pwc_insert(vm, gva_frame, level, true);
            }
        }

        // Final dimension: translate the data GPA.
        let host_huge = t.host_leaf == LeafSize::Huge;
        let data_page = if host_huge {
            t.gpa_frame >> HUGE_PAGE_ORDER
        } else {
            t.gpa_frame
        };
        let nkey = Self::ntlb_key(vm, data_page, host_huge);
        if self.ntlb.lookup(nkey) {
            self.counters.ntlb_hits += 1;
        } else {
            self.counters.ntlb_misses += 1;
            refs += self.ept_walk(vm, t.gpa_frame, t.host_leaf);
            self.ntlb.insert(nkey);
        }
        refs
    }

    /// Walks the EPT for `gpa_frame`, returning memory references made.
    fn ept_walk(&mut self, vm: VmId, gpa_frame: u64, leaf: LeafSize) -> u32 {
        let leaf_level = match leaf {
            LeafSize::Base => 1,
            LeafSize::Huge => 2,
        };
        let start_level = self.pwc_deepest(vm, gpa_frame, leaf_level, false);
        let refs = start_level - leaf_level + 1;
        for level in (leaf_level + 1..=start_level).rev() {
            self.pwc_insert(vm, gpa_frame, level, false);
        }
        refs
    }

    /// Finds the level the walker must start referencing from: one below
    /// the deepest paging-structure-cache hit, or 4 when nothing is cached.
    ///
    /// Cacheable levels are 4, 3 and (for base-leaf walks) 2 — the entry at
    /// the leaf level itself is the TLB's job, not the PWC's.
    fn pwc_deepest(&mut self, vm: VmId, frame: u64, leaf_level: u32, guest: bool) -> u32 {
        let deepest_cacheable = if leaf_level == 1 { 2 } else { 3 };
        for level in (leaf_level + 1..=deepest_cacheable).rev() {
            let key = Self::pwc_key(vm, frame, level);
            let cache = if guest {
                &mut self.gpwc[(4 - level) as usize]
            } else {
                &mut self.epwc[(4 - level) as usize]
            };
            if cache.lookup(key) {
                if guest {
                    self.counters.gpwc_hits += 1;
                } else {
                    self.counters.epwc_hits += 1;
                }
                // A hit at `level` hands the walker the entry at `level`,
                // so it starts referencing at `level - 1`.
                return level - 1;
            }
        }
        4
    }

    fn pwc_insert(&mut self, vm: VmId, frame: u64, level: u32, guest: bool) {
        if !(2..=4).contains(&level) {
            return;
        }
        let key = Self::pwc_key(vm, frame, level);
        let cache = if guest {
            &mut self.gpwc[(4 - level) as usize]
        } else {
            &mut self.epwc[(4 - level) as usize]
        };
        cache.insert(key);
    }

    /// Invalidates any TLB entries translating the given guest-virtual
    /// 2 MiB region of `vm` (both the 2 MiB entry and base entries within).
    ///
    /// Called on guest-side remaps (promotion, demotion, unmap). Returns
    /// the number of entries evicted.
    pub fn invalidate_gva_region(&mut self, vm: VmId, gva_huge_frame: u64) -> usize {
        let pred = |key: u128| {
            let (kvm, size, page) = Self::decode_key(key);
            if kvm != vm.0 {
                return false;
            }
            match size {
                SIZE_HUGE => page == gva_huge_frame,
                _ => page >> HUGE_PAGE_ORDER == gva_huge_frame,
            }
        };
        self.l1_4k.invalidate_matching(pred)
            + self.l1_2m.invalidate_matching(pred)
            + self.stlb.invalidate_matching(pred)
    }

    /// Invalidates all cached translations belonging to `vm`, modeling an
    /// INVEPT single-context flush after a host-side (EPT) remap.
    ///
    /// Returns the number of entries evicted.
    pub fn invalidate_vm(&mut self, vm: VmId) -> usize {
        let pred = |key: u128| Self::decode_key(key).0 == vm.0;
        let mut n = self.l1_4k.invalidate_matching(pred);
        n += self.l1_2m.invalidate_matching(pred);
        n += self.stlb.invalidate_matching(pred);
        n += self.ntlb.invalidate_matching(pred);
        for c in self.gpwc.iter_mut().chain(self.epwc.iter_mut()) {
            n += c.invalidate_matching(pred);
        }
        n
    }

    /// Invalidates nested-TLB entries for one guest-physical 2 MiB region,
    /// modeling a targeted EPT invalidation.
    pub fn invalidate_gpa_region(&mut self, vm: VmId, gpa_huge_frame: u64) -> usize {
        let pred = |key: u128| {
            let (kvm, size, page) = Self::decode_key(key);
            if kvm != vm.0 {
                return false;
            }
            match size {
                SIZE_HUGE => page == gpa_huge_frame,
                _ => page >> HUGE_PAGE_ORDER == gpa_huge_frame,
            }
        };
        self.ntlb.invalidate_matching(pred)
    }

    /// Records `n` TLB shootdowns and returns the stall to charge.
    pub fn charge_shootdowns(&mut self, n: u64, per_shootdown: Cycles) -> Cycles {
        self.counters.shootdowns += n;
        if n > 0 {
            let vm = self.rec_vm;
            self.rec
                .emit(cat::SHOOTDOWN, vm, Layer::Sys, || EventKind::Shootdown {
                    rounds: n,
                });
            self.rec.counter_add("mmu.shootdown_rounds", n);
        }
        Cycles(per_shootdown.0 * n)
    }

    /// Identity of the guest page-table page referenced at `level` for
    /// `gva_frame` (all GVAs sharing upper bits share the table).
    fn pt_page_id(gva_frame: u64, level: u32) -> u64 {
        // Tag PT-page ids so they cannot collide with data GPAs in the
        // nested TLB: set a high bit per level.
        (gva_frame >> (9 * level)) | (0x4000_0000_0000_0000u64 + ((level as u64) << 56))
    }

    fn tlb_key(vm: VmId, gva_frame: u64, huge: bool) -> u128 {
        let page = if huge {
            gva_frame >> HUGE_PAGE_ORDER
        } else {
            gva_frame
        };
        Self::encode_key(vm.0, if huge { SIZE_HUGE } else { SIZE_BASE }, page)
    }

    fn ntlb_key(vm: VmId, page: u64, huge: bool) -> u128 {
        Self::encode_key(vm.0, if huge { SIZE_HUGE } else { SIZE_BASE }, page)
    }

    fn pwc_key(vm: VmId, frame: u64, level: u32) -> u128 {
        Self::encode_key(vm.0, SIZE_BASE, frame >> (9 * level))
    }

    fn encode_key(vm: u32, size: u128, page: u64) -> u128 {
        ((vm as u128) << 96) | (size << 88) | page as u128
    }

    fn decode_key(key: u128) -> (u32, u128, u64) {
        ((key >> 96) as u32, (key >> 88) & 0xff, key as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VM: VmId = VmId(1);

    fn resolved(guest: LeafSize, host: LeafSize, gpa_frame: u64) -> ResolvedTranslation {
        ResolvedTranslation {
            gpa_frame,
            guest_leaf: guest,
            host_leaf: host,
        }
    }

    #[test]
    fn only_double_huge_is_well_aligned() {
        use LeafSize::{Base, Huge};
        assert!(resolved(Huge, Huge, 0).well_aligned_huge());
        assert!(!resolved(Huge, Base, 0).well_aligned_huge());
        assert!(!resolved(Base, Huge, 0).well_aligned_huge());
        assert!(!resolved(Base, Base, 0).well_aligned_huge());
    }

    #[test]
    fn cold_base_base_walk_costs_24_refs() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let out = mmu.access(VM, 0x1234, resolved(LeafSize::Base, LeafSize::Base, 0x5678));
        assert!(out.walked);
        assert!(!out.huge_entry);
        // The canonical 2-D walk bound: (4+1)*(4+1)-1.
        assert_eq!(mmu.counters().walk_mem_refs, 24);
    }

    #[test]
    fn cold_aligned_huge_walk_is_cheaper() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let out = mmu.access(VM, 0x1234, resolved(LeafSize::Huge, LeafSize::Huge, 0x5600));
        assert!(out.walked);
        assert!(out.huge_entry);
        // Guest: 3 levels × (EPT 4 + 1 entry ref) = 15; data EPT: 3 → 18.
        assert_eq!(mmu.counters().walk_mem_refs, 18);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let t = resolved(LeafSize::Base, LeafSize::Base, 99);
        let first = mmu.access(VM, 7, t);
        let second = mmu.access(VM, 7, t);
        assert!(first.walked);
        assert!(!second.walked);
        assert_eq!(second.cycles, Cycles(MmuConfig::default().l1_hit_cycles));
        assert_eq!(mmu.counters().l1_hits, 1);
        assert_eq!(mmu.counters().stlb_misses, 1);
    }

    #[test]
    fn huge_entry_covers_whole_2mb_region() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        // Touch frame 0 of a well-aligned huge page, then frame 511.
        let t = resolved(LeafSize::Huge, LeafSize::Huge, 0);
        mmu.access(VM, 0, t);
        let far = mmu.access(VM, 511, resolved(LeafSize::Huge, LeafSize::Huge, 511));
        assert!(!far.walked, "huge TLB entry must cover all 512 frames");
    }

    #[test]
    fn misaligned_huge_splinters_to_base_entries() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        // Guest huge, host base: every 4 KiB frame needs its own entry.
        let t0 = resolved(LeafSize::Huge, LeafSize::Base, 0);
        mmu.access(VM, 0, t0);
        let far = mmu.access(VM, 511, resolved(LeafSize::Huge, LeafSize::Base, 511));
        assert!(
            far.walked,
            "misaligned huge page must not install a 2M entry"
        );
        assert_eq!(mmu.counters().stlb_misses, 2);
    }

    #[test]
    fn warm_walk_uses_pwc_and_ntlb() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        // Two base-base accesses in the same 2 MiB region: the second walk
        // should be far cheaper thanks to PWC + nested TLB.
        mmu.access(VM, 0, resolved(LeafSize::Base, LeafSize::Base, 1000));
        let before = mmu.counters().walk_mem_refs;
        mmu.access(VM, 1, resolved(LeafSize::Base, LeafSize::Base, 1001));
        let second_refs = mmu.counters().walk_mem_refs - before;
        assert_eq!(mmu.counters().stlb_misses, 2);
        assert!(second_refs <= 6, "warm walk took {second_refs} refs");
        assert!(mmu.counters().gpwc_hits > 0);
        assert!(mmu.counters().ntlb_hits > 0);
    }

    #[test]
    fn host_huge_backing_shortens_walks_even_when_misaligned() {
        // Host-H-VM-B vs Host-B-VM-B: same TLB behaviour, cheaper walks —
        // the paper's "misaligned pages still reduce walk overhead".
        let mut a = MmuSim::new(MmuConfig::default()).unwrap();
        let mut b = MmuSim::new(MmuConfig::default()).unwrap();
        a.access(VM, 0, resolved(LeafSize::Base, LeafSize::Huge, 0));
        b.access(VM, 0, resolved(LeafSize::Base, LeafSize::Base, 0));
        assert!(a.counters().walk_mem_refs < b.counters().walk_mem_refs);
    }

    #[test]
    fn vm_tagging_isolates_vms() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let t = resolved(LeafSize::Base, LeafSize::Base, 42);
        mmu.access(VmId(1), 7, t);
        let other = mmu.access(VmId(2), 7, t);
        assert!(other.walked, "entries must be VM-tagged");
    }

    #[test]
    fn gva_region_invalidation_forces_rewalk() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let t = resolved(LeafSize::Huge, LeafSize::Huge, 0);
        mmu.access(VM, 5, t);
        assert!(!mmu.access(VM, 5, t).walked);
        let evicted = mmu.invalidate_gva_region(VM, 0);
        assert!(evicted > 0);
        assert!(mmu.access(VM, 5, t).walked);
    }

    #[test]
    fn base_entries_in_region_are_also_invalidated() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let t = resolved(LeafSize::Base, LeafSize::Base, 9);
        mmu.access(VM, 9, t); // Frame 9 lives in huge region 0.
        assert_eq!(mmu.invalidate_gva_region(VM, 0), 2); // L1 + STLB copies.
        assert!(mmu.access(VM, 9, t).walked);
    }

    #[test]
    fn invalidate_vm_flushes_everything_for_that_vm_only() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let t = resolved(LeafSize::Base, LeafSize::Base, 1);
        mmu.access(VmId(1), 1, t);
        mmu.access(VmId(2), 1, t);
        mmu.invalidate_vm(VmId(1));
        assert!(mmu.access(VmId(1), 1, t).walked);
        assert!(!mmu.access(VmId(2), 1, t).walked);
    }

    #[test]
    fn shootdown_accounting() {
        let mut mmu = MmuSim::new(MmuConfig::default()).unwrap();
        let stall = mmu.charge_shootdowns(3, Cycles(4000));
        assert_eq!(stall, Cycles(12_000));
        assert_eq!(mmu.counters().shootdowns, 3);
    }

    #[test]
    fn tlb_capacity_limits_coverage() {
        // With the tiny config (16 STLB entries), touching 64 distinct
        // pages in a loop thrashes: round 2 misses as much as round 1.
        let mut mmu = MmuSim::new(MmuConfig::tiny()).unwrap();
        for round in 0..2 {
            for f in 0..64u64 {
                mmu.access(VM, f, resolved(LeafSize::Base, LeafSize::Base, f));
            }
            let misses = mmu.counters().stlb_misses;
            if round == 0 {
                assert_eq!(misses, 64);
            } else {
                assert!(misses > 100, "expected thrashing, got {misses}");
            }
        }
        // Same pages via one well-aligned huge mapping: one walk total.
        let mut mmu2 = MmuSim::new(MmuConfig::tiny()).unwrap();
        for _ in 0..2 {
            for f in 0..64u64 {
                mmu2.access(VM, f, resolved(LeafSize::Huge, LeafSize::Huge, f));
            }
        }
        assert_eq!(mmu2.counters().stlb_misses, 1);
    }
}
