//! Linux transparent huge pages (THP).
//!
//! Two mechanisms, per the kernel's design (and the paper's description of
//! the de-facto baseline):
//!
//! 1. **Synchronous fault-path allocation**: on the first fault in an
//!    empty, VMA-covered 2 MiB region, allocate a whole huge page if an
//!    order-9 block is free. This is `THP=always`.
//! 2. **khugepaged**: a background daemon that round-robins over populated
//!    regions and collapses any region with at least one present page
//!    (`max_ptes_none` defaults to 511) into a huge page, copying when the
//!    backing is not contiguous.
//!
//! khugepaged's scan budget is deliberately small — the kernel default
//! scans a few MiB per wakeup — which is one reason THP coalesces slowly.

use gemini_mm::{FaultCtx, FaultDecision, HugePolicy, LayerOps, PromotionKind, PromotionOp};
use gemini_sim_core::{Cycles, HUGE_PAGE_ORDER, PAGES_PER_HUGE_PAGE};

/// Linux THP: greedy fault-path huge pages plus khugepaged collapse.
#[derive(Debug, Clone)]
pub struct LinuxThp {
    /// Regions collapsed per daemon pass (khugepaged `pages_to_scan`
    /// equivalent, expressed in 2 MiB regions).
    pub regions_per_pass: usize,
    /// Minimum present pages for collapse (512 − `max_ptes_none`).
    pub min_present: usize,
    /// Round-robin cursor over input regions.
    cursor: u64,
}

impl LinuxThp {
    /// Creates THP with kernel-default-like parameters.
    pub fn new() -> Self {
        Self {
            regions_per_pass: 2,
            min_present: 1,
            cursor: 0,
        }
    }
}

impl Default for LinuxThp {
    fn default() -> Self {
        Self::new()
    }
}

impl HugePolicy for LinuxThp {
    fn name(&self) -> &'static str {
        "THP"
    }

    fn fault_decision(&mut self, ctx: &FaultCtx<'_>) -> FaultDecision {
        let huge_possible = ctx.region_pop.present == 0
            && ctx.region_within_vma()
            && ctx
                .buddy
                .free_area_counts()
                .free_blocks_suitable(HUGE_PAGE_ORDER)
                > 0;
        if huge_possible {
            FaultDecision::Huge
        } else {
            FaultDecision::Base
        }
    }

    fn daemon_period(&self) -> Cycles {
        // khugepaged's default wakeup interval is 10 s; scaled to the
        // simulator's compressed timescale this is 40 ms of CPU time —
        // deliberately slow relative to run length, as in real systems,
        // where khugepaged never catches up with the working set.
        Cycles::from_millis(40.0)
    }

    fn daemon(&mut self, ops: &mut LayerOps<'_>) -> Vec<PromotionOp> {
        // Round-robin over populated, non-huge regions starting after the
        // cursor, wrapping once.
        let candidates: Vec<u64> = ops
            .table
            .iter_regions()
            .filter(|&(_, huge)| !huge)
            .map(|(r, _)| r)
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let start = candidates.partition_point(|&r| r <= self.cursor);
        let mut picked = Vec::new();
        for idx in 0..candidates.len() {
            let region = candidates[(start + idx) % candidates.len()];
            let pop = ops.table.region_population(region);
            if pop.present >= self.min_present && pop.present <= PAGES_PER_HUGE_PAGE as usize {
                picked.push(PromotionOp::new(region, PromotionKind::PreferInPlace));
                if picked.len() >= self.regions_per_pass {
                    break;
                }
            }
        }
        if let Some(last) = picked.last() {
            self.cursor = last.region;
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_mm::{CostModel, GuestMm};
    use gemini_sim_core::page::PageSize;
    use gemini_sim_core::{VmId, HUGE_PAGE_SIZE};

    #[test]
    fn fault_path_allocates_huge_when_possible() {
        let mut g = GuestMm::new(VmId(1), 4096, CostModel::default());
        let mut thp = LinuxThp::new();
        let vma = g.mmap(2 * HUGE_PAGE_SIZE).unwrap();
        let (out, _) = g.handle_fault(vma.start_frame() + 3, &mut thp).unwrap();
        assert_eq!(out.size, PageSize::Huge);
    }

    #[test]
    fn fault_path_degrades_under_fragmentation() {
        let mut g = GuestMm::new(VmId(1), 4096, CostModel::default());
        let mut rng = gemini_sim_core::DetRng::new(5);
        *g.buddy_mut() = gemini_mm::fragmented(4096, 0.1, &mut rng).0;
        let mut thp = LinuxThp::new();
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        let (out, _) = g.handle_fault(vma.start_frame(), &mut thp).unwrap();
        assert_eq!(out.size, PageSize::Base, "no order-9 block available");
    }

    #[test]
    fn khugepaged_collapses_sparse_regions_with_budget() {
        let mut g = GuestMm::new(VmId(1), 1 << 15, CostModel::default());
        let mut base = crate::BaseOnly;
        let vma = g.mmap(20 * HUGE_PAGE_SIZE).unwrap();
        // Populate one page in each of 20 regions.
        for r in 0..20 {
            g.handle_fault(vma.start_frame() + r * 512, &mut base)
                .unwrap();
        }
        let mut thp = LinuxThp {
            regions_per_pass: 8,
            ..LinuxThp::new()
        };
        let fx = g.run_daemon(&mut thp, Cycles::ZERO, 1);
        // Budget caps the pass at 8 regions.
        assert_eq!(g.table().huge_mapped(), 8);
        assert_eq!(fx.shootdowns, 8);
        // Subsequent passes continue round-robin until done.
        g.run_daemon(&mut thp, Cycles::ZERO, 1);
        g.run_daemon(&mut thp, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 20);
        // A further pass finds nothing.
        let fx = g.run_daemon(&mut thp, Cycles::ZERO, 1);
        assert_eq!(fx.shootdowns, 0);
    }

    #[test]
    fn khugepaged_respects_min_present() {
        let mut g = GuestMm::new(VmId(1), 4096, CostModel::default());
        let mut base = crate::BaseOnly;
        let vma = g.mmap(HUGE_PAGE_SIZE).unwrap();
        g.handle_fault(vma.start_frame(), &mut base).unwrap();
        let mut thp = LinuxThp {
            min_present: 256,
            ..LinuxThp::new()
        };
        g.run_daemon(&mut thp, Cycles::ZERO, 1);
        assert_eq!(g.table().huge_mapped(), 0, "1 < min_present, no collapse");
    }
}
