//! Memory compaction (the kcompactd analogue).
//!
//! The fragmenter models other tenants' *movable* pages. On real Linux,
//! kcompactd migrates movable pages toward one end of the zone so that
//! large free blocks re-form; without it, a fragmented machine could never
//! again produce an order-9 block and every huge-page system would starve
//! identically. The [`Compactor`] owns the fragmenter's pinned frames and
//! migrates a budget of them per step from the *highest* regions to the
//! lowest free frames, clearing whole regions from the top down — the same
//! top-down clustering strategy Linux compaction uses.
//!
//! Compaction runs against a layer's buddy allocator directly (the
//! `Machine` steps it against [`crate::LayerEngine::buddy`] at either
//! layer), so one compactor implementation serves guest and host alike —
//! the same one-mechanism-two-layers structure as the engine itself.

use gemini_buddy::BuddyAllocator;

/// Background compactor owning a set of movable pinned frames.
#[derive(Debug, Clone, Default)]
pub struct Compactor {
    /// Owned movable frames, kept sorted ascending. A deque because the
    /// migration loop pops the highest pin and re-files its (lower)
    /// replacement at the front — O(1) at both ends instead of a
    /// front-insert memmove per migrated frame.
    pins: std::collections::VecDeque<u64>,
    /// Frames migrated so far (stats).
    pub migrated_total: u64,
}

impl Compactor {
    /// Takes ownership of the fragmenter's pinned frames.
    pub fn new(mut pins: Vec<u64>) -> Self {
        pins.sort_unstable();
        Self {
            pins: pins.into(),
            migrated_total: 0,
        }
    }

    /// Number of frames still pinned.
    pub fn pinned(&self) -> usize {
        self.pins.len()
    }

    /// Migrates up to `budget` of the highest pinned frames to the lowest
    /// free frames, if that moves them downward. Returns frames moved
    /// (each costs a page copy plus its share of a TLB shootdown to the
    /// caller's accounting).
    pub fn step(&mut self, buddy: &mut BuddyAllocator, budget: usize) -> u64 {
        let mut moved = 0u64;
        for _ in 0..budget {
            let Some(&pin) = self.pins.back() else {
                break;
            };
            // The buddy allocator prefers the lowest free frame.
            let Ok(target) = buddy.alloc(0) else {
                break;
            };
            if target >= pin {
                // No downward motion possible: compaction has converged.
                buddy.free(target, 0).expect("frame just allocated");
                break;
            }
            self.pins.pop_back();
            buddy.free(pin, 0).expect("compactor owned this frame");
            // Keep `pins` sorted: target is below every remaining pin.
            self.pins.push_front(target);
            moved += 1;
        }
        self.migrated_total += moved;
        moved
    }

    /// Releases every pin back to the allocator (tenant exits).
    pub fn release_all(&mut self, buddy: &mut BuddyAllocator) {
        for pin in self.pins.drain(..) {
            buddy.free(pin, 0).expect("compactor owned this frame");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_sim_core::{DetRng, HUGE_PAGE_ORDER};

    #[test]
    fn compaction_recreates_huge_blocks() {
        let (mut buddy, pins) = crate::frag::fragmented(16384, 0.12, &mut DetRng::new(1));
        assert_eq!(buddy.free_blocks_of_order(HUGE_PAGE_ORDER), 0);
        let mut c = Compactor::new(pins);
        let suitable =
            |b: &BuddyAllocator| b.free_area_counts().free_blocks_suitable(HUGE_PAGE_ORDER);
        let mut steps = 0;
        while suitable(&buddy) < 4 && steps < 1000 {
            let moved = c.step(&mut buddy, 64);
            if moved == 0 {
                break;
            }
            steps += 1;
        }
        // Blocks may merge beyond order 9; count anything order-9 capable.
        assert!(
            suitable(&buddy) >= 4,
            "compaction should re-form order-9 blocks"
        );
        buddy.check_invariants().unwrap();
        assert!(c.migrated_total > 0);
    }

    #[test]
    fn step_converges_and_stops() {
        let mut buddy = BuddyAllocator::new(1024);
        // Pins already at the bottom: nothing to do.
        for f in 0..4 {
            buddy.alloc_at(f, 0).unwrap();
        }
        let mut c = Compactor::new(vec![0, 1, 2, 3]);
        assert_eq!(c.step(&mut buddy, 16), 0);
        assert_eq!(c.pinned(), 4);
        buddy.check_invariants().unwrap();
    }

    #[test]
    fn budget_limits_work_per_step() {
        let mut buddy = BuddyAllocator::new(4096);
        let mut pins = Vec::new();
        for region in 0..8 {
            let f = region * 512 + 100;
            buddy.alloc_at(f, 0).unwrap();
            pins.push(f);
        }
        let mut c = Compactor::new(pins);
        let moved = c.step(&mut buddy, 3);
        assert!(moved <= 3);
    }

    #[test]
    fn release_all_returns_everything() {
        let (mut buddy, pins) = crate::frag::fragmented(2048, 0.1, &mut DetRng::new(5));
        let mut c = Compactor::new(pins);
        c.release_all(&mut buddy);
        assert_eq!(c.pinned(), 0);
        assert_eq!(buddy.free_frames(), 2048);
        buddy.check_invariants().unwrap();
    }
}
