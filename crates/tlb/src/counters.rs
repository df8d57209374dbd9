//! Hardware performance counters for the MMU model.
//!
//! These mirror the `perf` events the paper uses: TLB misses (the paper's
//! Figures 11 and 15 report them normalized) and page-walk duration. The
//! Gemini booking-timeout controller (Algorithm 1) samples
//! [`PerfCounters::stlb_misses`] deltas as its TLB-miss feedback signal.

/// Monotonic counters accumulated by [`crate::MmuSim`].
///
/// These are part of every run's compared output (results, goldens, the
/// parity suites), so the closed-form hit-run batch path must advance
/// them exactly as the faithful path would. Batching *observability*
/// (how many runs took the fast path) therefore lives in
/// [`crate::BatchStats`], not here: those numbers legitimately differ
/// between a `--no-ff` leg (which batches nothing) and a batched leg and would break
/// byte-identity if they were fields of this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Total translated data accesses.
    pub accesses: u64,
    /// Accesses satisfied by the L1 TLBs.
    pub l1_hits: u64,
    /// Accesses satisfied by the unified L2 STLB.
    pub stlb_hits: u64,
    /// Accesses that required a page walk (the "TLB misses" the paper
    /// plots).
    pub stlb_misses: u64,
    /// Walks whose installed entry was a 2 MiB (well-aligned) translation.
    pub huge_walks: u64,
    /// Memory references performed by the page walker.
    pub walk_mem_refs: u64,
    /// Nested-TLB hits during walks.
    pub ntlb_hits: u64,
    /// Nested-TLB misses during walks (each costs an EPT sub-walk).
    pub ntlb_misses: u64,
    /// Guest paging-structure-cache hits.
    pub gpwc_hits: u64,
    /// EPT paging-structure-cache hits.
    pub epwc_hits: u64,
    /// Cycles spent translating (TLB latency plus walks).
    pub translation_cycles: u64,
    /// TLB shootdowns absorbed (invalidations due to remote map changes).
    pub shootdowns: u64,
}

impl PerfCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// TLB miss ratio over all accesses (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.stlb_misses as f64 / self.accesses as f64
        }
    }

    /// Average page-walk memory references per walk (0 when no walks).
    pub fn refs_per_walk(&self) -> f64 {
        if self.stlb_misses == 0 {
            0.0
        } else {
            self.walk_mem_refs as f64 / self.stlb_misses as f64
        }
    }

    /// Difference `self - earlier`, for sampling deltas over a period.
    pub fn delta_since(&self, earlier: &PerfCounters) -> PerfCounters {
        PerfCounters {
            accesses: self.accesses - earlier.accesses,
            l1_hits: self.l1_hits - earlier.l1_hits,
            stlb_hits: self.stlb_hits - earlier.stlb_hits,
            stlb_misses: self.stlb_misses - earlier.stlb_misses,
            huge_walks: self.huge_walks - earlier.huge_walks,
            walk_mem_refs: self.walk_mem_refs - earlier.walk_mem_refs,
            ntlb_hits: self.ntlb_hits - earlier.ntlb_hits,
            ntlb_misses: self.ntlb_misses - earlier.ntlb_misses,
            gpwc_hits: self.gpwc_hits - earlier.gpwc_hits,
            epwc_hits: self.epwc_hits - earlier.epwc_hits,
            translation_cycles: self.translation_cycles - earlier.translation_cycles,
            shootdowns: self.shootdowns - earlier.shootdowns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let c = PerfCounters::new();
        assert_eq!(c.miss_ratio(), 0.0);
        assert_eq!(c.refs_per_walk(), 0.0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let earlier = PerfCounters {
            accesses: 10,
            stlb_misses: 2,
            ..Default::default()
        };
        let later = PerfCounters {
            accesses: 25,
            stlb_misses: 5,
            translation_cycles: 100,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.accesses, 15);
        assert_eq!(d.stlb_misses, 3);
        assert_eq!(d.translation_cycles, 100);
        assert_eq!(d.miss_ratio(), 0.2);
    }
}
