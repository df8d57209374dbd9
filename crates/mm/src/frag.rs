//! Memory fragmenter.
//!
//! The paper evaluates every system with and without fragmented memory,
//! using a program that drives the free-memory fragmentation index (FMFI)
//! of huge-page order up (§6.1). This module reproduces the state that
//! tool leaves behind: one random frame pinned in every huge region, so
//! no order-9 block can form and the FMFI is near 1, plus random extra
//! pins up to a held fraction of memory.

use gemini_buddy::BuddyAllocator;
use gemini_sim_core::{DetRng, HUGE_PAGE_ORDER, PAGES_PER_HUGE_PAGE};

/// Builds an allocator over `frames` base frames, fragmented: one random
/// frame pinned per huge region, plus random extra frames until
/// `hold_fraction` of memory is held (as other tenants and long-lived
/// kernel objects would). Every other frame is free.
///
/// The pins follow the draw sequence of allocating every frame singly
/// and freeing the unpinned ones: regions ascending, each region's
/// frames in the order `alloc(0)` hands them out, one `below` draw per
/// region for its pin, then one shuffle of the released frames, from
/// whose end the extras are taken. Returns the allocator and the pinned frames in the order
/// they were picked. Deterministic for a given `rng` state.
pub fn fragmented(frames: u64, hold_fraction: f64, rng: &mut DetRng) -> (BuddyAllocator, Vec<u64>) {
    let want_hold = ((frames as f64) * hold_fraction) as u64;
    let mut pinned = Vec::new();
    let mut released = Vec::with_capacity(frames as usize);
    for start in (0..frames).step_by(PAGES_PER_HUGE_PAGE as usize) {
        let len = (frames - start).min(PAGES_PER_HUGE_PAGE);
        let keep = rng.below(len);
        for (i, f) in grab_order(start, len).enumerate() {
            if i as u64 == keep {
                pinned.push(f);
            } else {
                released.push(f);
            }
        }
    }
    rng.shuffle(&mut released);
    while (pinned.len() as u64) < want_hold {
        match released.pop() {
            Some(f) => pinned.push(f),
            None => break,
        }
    }
    let mut allocated = pinned.clone();
    allocated.sort_unstable();
    let buddy = BuddyAllocator::with_allocated(frames, &allocated)
        .expect("pins are unique frames in range");
    (buddy, pinned)
}

/// The `len` frames of the huge region starting at `start` (a full
/// region except at the end of memory), in the order repeated
/// `alloc(0)` hands them out on a fresh allocator: the region's free
/// blocks smallest first, each block's frames ascending. The greedy
/// carve of a region-aligned stretch places one block per set bit of
/// `len`, largest first, so smallest first is lowest bit first. A full
/// region is one block, so its frames come out ascending.
fn grab_order(start: u64, len: u64) -> impl Iterator<Item = u64> {
    (0..=HUGE_PAGE_ORDER)
        .filter(move |&b| len >> b & 1 == 1)
        .flat_map(move |b| {
            let block = start + (len & !((2u64 << b) - 1));
            block..block + (1 << b)
        })
}

/// Ongoing multi-tenant churn: the counterpart of the one-shot fragmenter.
///
/// The paper's environment is a multi-tenant cloud where "memory quickly
/// fragments" *continuously* — other tenants keep allocating and freeing,
/// so large free blocks are a transient resource that compaction creates
/// and neighbours consume. Without this pressure any asynchronous
/// coalescing policy converges to perfect alignment given enough time,
/// which real systems never get. Each step the tenant breaks the largest
/// free runs with short-lived single-frame allocations and releases the
/// expired ones.
#[derive(Debug)]
pub struct TenantChurn {
    /// (frame, allocation time), oldest first.
    held: std::collections::VecDeque<(u64, gemini_sim_core::Cycles)>,
    rng: DetRng,
    /// Frames taken over the tenant's lifetime (stats).
    pub breaks_total: u64,
}

impl TenantChurn {
    /// Creates a tenant with its own random stream.
    pub fn new(rng: DetRng) -> Self {
        Self {
            held: std::collections::VecDeque::new(),
            rng,
            breaks_total: 0,
        }
    }

    /// One churn step: release intrusions older than `hold`, then split
    /// up to `breaks` of the largest free runs with one-frame
    /// allocations. Returns frames taken this step.
    pub fn step(
        &mut self,
        buddy: &mut BuddyAllocator,
        now: gemini_sim_core::Cycles,
        breaks: usize,
        hold: gemini_sim_core::Cycles,
    ) -> u64 {
        while let Some(&(frame, t)) = self.held.front() {
            if now.saturating_sub(t) < hold {
                break;
            }
            self.held.pop_front();
            buddy.free(frame, 0).expect("tenant owned this frame");
        }
        let mut taken = 0;
        for _ in 0..breaks {
            // Break a random run big enough to matter for order-9
            // contiguity (not always the largest: compaction gets a
            // fighting chance to finish assembling blocks). Candidate
            // count and the address-ordered n-th pick both come off the
            // allocator's run index — no Vec materialisation.
            let min_len = gemini_sim_core::PAGES_PER_HUGE_PAGE / 2;
            let count = buddy.count_runs_at_least(min_len);
            if count == 0 {
                break;
            }
            let (start, len) = buddy
                .nth_run_at_least(min_len, self.rng.below(count))
                .expect("count bounds the pick index");
            let frame = start + len / 4 + self.rng.below(len / 2);
            if buddy.alloc_at(frame, 0).is_ok() {
                self.held.push_back((frame, now));
                taken += 1;
                self.breaks_total += 1;
            }
        }
        taken
    }

    /// Frames currently held by the tenant.
    pub fn held(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragmenter_raises_fmfi() {
        assert_eq!(
            BuddyAllocator::new(16384).fragmentation_index(HUGE_PAGE_ORDER),
            0.0
        );
        let (b, pins) = fragmented(16384, 0.1, &mut DetRng::new(1));
        assert!(!pins.is_empty());
        let idx = b.fragmentation_index(HUGE_PAGE_ORDER);
        assert!(idx > 0.9, "fmfi {idx}");
        // No order-9 block survives.
        assert_eq!(b.free_blocks_of_order(HUGE_PAGE_ORDER), 0);
        b.check_invariants().unwrap();
    }

    #[test]
    fn fragmenter_holds_requested_fraction() {
        let (b, pins) = fragmented(16384, 0.25, &mut DetRng::new(2));
        assert!(pins.len() as u64 >= 16384 / 4);
        assert_eq!(b.used_frames(), pins.len() as u64);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (b1, p1) = fragmented(8192, 0.1, &mut DetRng::new(7));
        let (b2, p2) = fragmented(8192, 0.1, &mut DetRng::new(7));
        assert_eq!(p1, p2);
        assert_eq!(b1.free_runs(), b2.free_runs());
    }

    #[test]
    fn grab_order_matches_repeated_single_frame_allocation() {
        // On a fresh allocator, `alloc(0)` drains the blocks smallest
        // first; the tail region of an odd-sized memory is the only one
        // split into several blocks.
        for frames in [1, 7, 512, 777, 1000, 1539, 2048] {
            let mut b = BuddyAllocator::new(frames);
            let mut looped = Vec::new();
            while let Ok(f) = b.alloc(0) {
                looped.push(f);
            }
            looped.sort_by_key(|&f| f >> HUGE_PAGE_ORDER);
            let regions = (0..frames).step_by(PAGES_PER_HUGE_PAGE as usize);
            let grabbed: Vec<u64> = regions
                .flat_map(|start| grab_order(start, (frames - start).min(PAGES_PER_HUGE_PAGE)))
                .collect();
            assert_eq!(grabbed, looped, "{frames} frames");
        }
    }

    /// FNV-1a over the fragmenter's pins (in returned order), the free
    /// runs and the per-order free-block counts.
    fn layout_digest(frames: u64, seed: u64, hold: f64) -> u64 {
        let (b, pins) = fragmented(frames, hold, &mut DetRng::new(seed));
        b.check_invariants().unwrap();
        let runs = b.free_runs().into_iter().flat_map(|(s, l)| [s, l]);
        let counts = (0..=gemini_buddy::MAX_ORDER).map(|o| b.free_blocks_of_order(o) as u64);
        let words = pins
            .iter()
            .copied()
            .chain([u64::MAX])
            .chain(runs)
            .chain([u64::MAX])
            .chain(counts);
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.flat_map(u64::to_le_bytes) {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
        h
    }

    #[test]
    fn layouts_match_the_alloc_everything_then_free_fragmenter() {
        // Digests of the layouts the earlier fragmenter produced by
        // allocating every frame with `alloc(0)`, picking pins, and
        // freeing the rest; 1539 and 777 frames end in a partial region.
        let golden: [(u64, u64, f64, u64); 24] = [
            (65536, 1, 0.12, 0xce94f727be618910),
            (65536, 1, 0.3, 0xbd6b7cfa9b87e014),
            (65536, 2, 0.12, 0x3a4facbf44f346bb),
            (65536, 2, 0.3, 0x2a4d50694cc83a01),
            (65536, 3, 0.12, 0x66e633fbb0abbe1a),
            (65536, 3, 0.3, 0x2a2eb81ed47f5415),
            (131072, 1, 0.12, 0x9917824f943d170b),
            (131072, 1, 0.3, 0x04d70e2d0602e0f1),
            (131072, 2, 0.12, 0xc8498156603f38be),
            (131072, 2, 0.3, 0xc824b1e12bc16b88),
            (131072, 3, 0.12, 0xe0ab01c66643f1af),
            (131072, 3, 0.3, 0x6a02fbaacc7aa225),
            (1539, 1, 0.12, 0xc5bba941962a0caf),
            (1539, 1, 0.3, 0x4957e47ffb914e1e),
            (1539, 2, 0.12, 0xc858e0777d460abf),
            (1539, 2, 0.3, 0x94989913c6d43fce),
            (1539, 3, 0.12, 0x8bc871beb4cfdcea),
            (1539, 3, 0.3, 0x629d5ff0851c42c1),
            (777, 1, 0.12, 0x508c828ec63887cb),
            (777, 1, 0.3, 0x5b09c86d2e7132dc),
            (777, 2, 0.12, 0x2fee30b262b05d1a),
            (777, 2, 0.3, 0x999508ceeb01e0e4),
            (777, 3, 0.12, 0x67c2435e4d587516),
            (777, 3, 0.3, 0x4ffee3b2eebfd8f7),
        ];
        for (frames, seed, hold, digest) in golden {
            assert_eq!(
                layout_digest(frames, seed, hold),
                digest,
                "{frames} frames, seed {seed}, hold {hold}"
            );
        }
    }

    #[test]
    fn tenant_churn_breaks_large_runs_and_releases() {
        use gemini_sim_core::Cycles;
        let mut b = BuddyAllocator::new(4096);
        let mut t = TenantChurn::new(DetRng::new(4));
        let taken = t.step(&mut b, Cycles(0), 3, Cycles(100));
        assert_eq!(taken, 3);
        assert_eq!(t.held(), 3);
        assert!(b.largest_free_run() < 4096);
        // After the hold expires, intrusions come back.
        t.step(&mut b, Cycles(200), 0, Cycles(100));
        assert_eq!(t.held(), 0);
        assert_eq!(b.free_frames(), 4096);
        b.check_invariants().unwrap();
    }

    #[test]
    fn tenant_skips_small_runs() {
        use gemini_sim_core::Cycles;
        let mut b = BuddyAllocator::new(128); // Largest run < 256.
        let mut t = TenantChurn::new(DetRng::new(5));
        assert_eq!(t.step(&mut b, Cycles(0), 4, Cycles(100)), 0);
        assert_eq!(t.held(), 0);
    }

    #[test]
    fn pins_can_be_released_to_heal_memory() {
        let (mut b, pins) = fragmented(4096, 0.05, &mut DetRng::new(9));
        for f in pins {
            b.free(f, 0).unwrap();
        }
        assert_eq!(b.free_frames(), 4096);
        assert_eq!(b.free_runs(), vec![(0, 4096)]);
    }
}
