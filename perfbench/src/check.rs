//! The correctness check: counter identities, fleet lifecycle
//! accounting, and a digest of every cell's simulated results.
//!
//! A cell fails when it returned an error, when one of its counters
//! breaks an identity the model guarantees, or when its digest differs
//! from the reference digest of the same cell (the first untraced pass
//! of the run). The simulator is deterministic, so every pass of a run
//! — untraced, traced or counting — must reproduce the same digests.

use gemini_tlb::PerfCounters;
use gemini_vm_sim::FleetOutcome;

/// 64-bit FNV-1a hash: a stable, dependency-free digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Folds a sequence of digests into one, order-sensitively.
pub fn combine(digests: impl IntoIterator<Item = u64>) -> u64 {
    let bytes: Vec<u8> = digests.into_iter().flat_map(u64::to_le_bytes).collect();
    fnv1a(&bytes)
}

/// Checks the identities every translation counter block obeys:
/// each access is resolved by exactly one of L1, STLB or a walk; the
/// closed-form batched hits are a subset of the L1 hits; huge-entry
/// walks are a subset of walks; and each walk costs at least one cycle.
pub fn counter_identities(c: &PerfCounters, batched_hits: u64) -> Result<(), String> {
    if c.accesses != c.l1_hits + c.stlb_hits + c.stlb_misses {
        return Err(format!(
            "accesses {} != l1_hits {} + stlb_hits {} + stlb_misses {}",
            c.accesses, c.l1_hits, c.stlb_hits, c.stlb_misses
        ));
    }
    if batched_hits > c.l1_hits {
        return Err(format!(
            "batched_hits {batched_hits} > l1_hits {}",
            c.l1_hits
        ));
    }
    if c.huge_walks > c.stlb_misses {
        return Err(format!(
            "huge_walks {} > stlb_misses {}",
            c.huge_walks, c.stlb_misses
        ));
    }
    if c.translation_cycles < c.accesses {
        return Err(format!(
            "translation_cycles {} < accesses {}",
            c.translation_cycles, c.accesses
        ));
    }
    Ok(())
}

/// Checks a fleet host's lifecycle accounting: every planned VM
/// completed, each arrival and each departure is one churn event, and
/// every departure gave frames back to the host.
pub fn fleet_accounting(outcome: &FleetOutcome, planned: usize) -> Result<(), String> {
    let lifecycles = outcome.vms.len();
    if lifecycles != planned {
        return Err(format!(
            "{lifecycles} lifecycles completed, {planned} planned"
        ));
    }
    if outcome.churn_events != 2 * lifecycles as u64 {
        return Err(format!(
            "churn_events {} != 2 x {lifecycles} lifecycles",
            outcome.churn_events
        ));
    }
    if let Some(vm) = outcome.vms.iter().find(|v| v.frames_reclaimed == 0) {
        return Err(format!(
            "VM {} departed without reclaiming frames",
            vm.index
        ));
    }
    for vm in &outcome.vms {
        counter_identities(&vm.result.counters, 0).map_err(|e| format!("VM {}: {e}", vm.index))?;
    }
    Ok(())
}

/// Compares a cell's digest against the reference digest for that cell.
pub fn digest_matches(digest: u64, reference: u64) -> Result<(), String> {
    if digest == reference {
        Ok(())
    } else {
        Err(format!(
            "digest {digest:016x} differs from the reference {reference:016x}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(combine([1, 2]), combine([2, 1]));
    }
}
