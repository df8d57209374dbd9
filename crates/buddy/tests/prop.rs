//! Randomized property tests for the buddy allocator, driven by the
//! workspace's own deterministic RNG (no external test-framework
//! dependency so the suite builds offline).
//!
//! These drive random interleavings of `alloc`, `alloc_at` and `free` and
//! check the allocator's structural invariants after every step: free lists
//! and index agree, blocks are aligned/disjoint/coalesced, and frame
//! accounting conserves memory.

use gemini_buddy::{BuddyAllocator, MAX_ORDER};
use gemini_sim_core::DetRng;

const CASES: u64 = 64;

/// One random allocator operation.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    AllocAt { frame: u64, order: u32 },
    FreeIdx(usize),
}

fn random_op(rng: &mut DetRng, num_frames: u64) -> Op {
    match rng.below(3) {
        0 => Op::Alloc(rng.below(MAX_ORDER as u64 + 1) as u32),
        1 => {
            let order = rng.below(10) as u32;
            let frame = rng.below(num_frames) & !((1u64 << order) - 1);
            Op::AllocAt { frame, order }
        }
        _ => Op::FreeIdx(rng.below(1 << 16) as usize),
    }
}

#[test]
fn random_ops_preserve_invariants() {
    let mut seeds = DetRng::new(0xB0DD_1E01);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(1, 5000);
        let n_ops = rng.range(1, 200);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        let mut allocated = 0u64;
        for _ in 0..n_ops {
            match random_op(&mut rng, 4096) {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        assert_eq!(start % (1 << order), 0);
                        assert!(start + (1u64 << order) <= num_frames);
                        live.push((start, order));
                        allocated += 1 << order;
                    }
                }
                Op::AllocAt { frame, order } => {
                    if a.alloc_at(frame, order).is_ok() {
                        live.push((frame, order));
                        allocated += 1 << order;
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                        allocated -= 1 << order;
                    }
                }
            }
            a.check_invariants().unwrap();
            assert_eq!(a.used_frames(), allocated);
        }
        // No two live blocks may overlap.
        let mut sorted = live.clone();
        sorted.sort_unstable();
        for w in sorted.windows(2) {
            let (s0, o0) = w[0];
            let (s1, _) = w[1];
            assert!(s0 + (1u64 << o0) <= s1, "live blocks overlap");
        }
    }
}

#[test]
fn run_index_matches_rescan_after_arbitrary_interleavings() {
    // The incremental free-run index must equal a fresh `order_of`
    // rescan after any interleaving of alloc / alloc_at / free, and the
    // indexed queries must agree with naive derivations from that
    // rescan. (`check_invariants`, called per step, also cross-checks
    // the index; this test additionally pins the query semantics.)
    let mut seeds = DetRng::new(0xB0DD_1E05);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(512, 6000);
        let n_ops = rng.range(1, 150);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n_ops {
            match random_op(&mut rng, num_frames) {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        live.push((start, order));
                    }
                }
                Op::AllocAt { frame, order } => {
                    if frame + (1 << order) <= num_frames && a.alloc_at(frame, order).is_ok() {
                        live.push((frame, order));
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                    }
                }
            }
            let rescan = a.free_runs_rescan();
            assert_eq!(a.free_runs(), rescan, "index diverged from rescan");
            a.check_invariants().unwrap();
            // Queries answer exactly what a naive scan of the rescan says.
            let largest = rescan.iter().map(|&(_, l)| l).max().unwrap_or(0);
            assert_eq!(a.largest_free_run(), largest);
            let cursor = rng.below(num_frames + 1);
            let need = rng.range(1, 1024);
            assert_eq!(
                a.first_run_fitting(cursor, need),
                rescan
                    .iter()
                    .copied()
                    .find(|&(s, l)| s >= cursor && l >= need)
            );
            let in0 = rng.below(num_frames);
            let fits = |(s, l): (u64, u64)| {
                let want = in0 % 512;
                let base = s - s % 512;
                let out0 = if base + want >= s {
                    base + want
                } else {
                    base + want + 512
                };
                out0 + need <= s + l
            };
            assert_eq!(
                a.first_congruent_run(cursor, in0, need),
                rescan.iter().copied().find(|&r| r.0 >= cursor && fits(r))
            );
            assert_eq!(
                a.first_congruent_run_below(cursor, in0, need),
                rescan.iter().copied().find(|&r| r.0 < cursor && fits(r))
            );
        }
    }
}

/// Asserts two allocators agree on every observable of their free
/// memory: runs, per-order block counts and free frames.
fn assert_same_free_memory(a: &BuddyAllocator, b: &BuddyAllocator) {
    assert_eq!(a.free_runs(), b.free_runs());
    assert_eq!(a.free_area_counts(), b.free_area_counts());
    for o in 0..=MAX_ORDER {
        assert_eq!(
            a.free_blocks_of_order(o),
            b.free_blocks_of_order(o),
            "order {o} block counts differ"
        );
    }
    assert_eq!(a.free_frames(), b.free_frames());
}

#[test]
fn with_allocated_equals_single_frame_allocations() {
    // Building an allocator with a random frame set allocated must match
    // a fresh allocator that allocates those frames one `alloc_at` at a
    // time, at every density from a few frames to nearly all of memory.
    let mut seeds = DetRng::new(0xB0DD_1E08);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(1, 8192);
        let density = rng.unit();
        let frames: Vec<u64> = (0..num_frames).filter(|_| rng.chance(density)).collect();
        let built = BuddyAllocator::with_allocated(num_frames, &frames).unwrap();
        let mut stepped = BuddyAllocator::new(num_frames);
        for &f in &frames {
            stepped.alloc_at(f, 0).unwrap();
        }
        built.check_invariants().unwrap();
        assert_same_free_memory(&built, &stepped);
    }
}

#[test]
fn sorted_frame_free_equals_with_allocated_remainder() {
    // On a randomly fragmented allocator, freeing a random set of
    // allocated frames through the live index (`free_sorted_frames`)
    // must leave the same runs, per-order counts and free-frame count
    // as an allocator built with only the frames still allocated.
    let mut seeds = DetRng::new(0xB0DD_1E07);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(512, 8192);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live: Vec<(u64, u32)> = Vec::new();
        for _ in 0..rng.range(1, 300) {
            match random_op(&mut rng, num_frames) {
                Op::Alloc(order) => {
                    if let Ok(start) = a.alloc(order) {
                        live.push((start, order));
                    }
                }
                Op::AllocAt { frame, order } => {
                    if frame + (1 << order) <= num_frames && a.alloc_at(frame, order).is_ok() {
                        live.push((frame, order));
                    }
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let (start, order) = live.swap_remove(i % live.len());
                        a.free(start, order).unwrap();
                    }
                }
            }
        }
        // Release a random share of the allocated frames, in stretches
        // as well as isolated frames.
        let density = rng.unit();
        let (frames, kept): (Vec<u64>, Vec<u64>) = (0..num_frames)
            .filter(|&f| !a.is_frame_free(f))
            .partition(|_| rng.chance(density));
        a.free_sorted_frames(&frames).unwrap();
        a.check_invariants().unwrap();
        let rebuilt = BuddyAllocator::with_allocated(num_frames, &kept).unwrap();
        assert_same_free_memory(&a, &rebuilt);
    }
}

#[test]
fn free_everything_restores_pristine_state() {
    let mut seeds = DetRng::new(0xB0DD_1E02);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let num_frames = rng.range(512, 4096);
        let n = rng.range(1, 64);
        let mut a = BuddyAllocator::new(num_frames);
        let mut live = Vec::new();
        for _ in 0..n {
            let order = rng.below(MAX_ORDER as u64 + 1) as u32;
            if let Ok(s) = a.alloc(order) {
                live.push((s, order));
            }
        }
        for (s, o) in live {
            a.free(s, o).unwrap();
        }
        assert_eq!(a.free_frames(), num_frames);
        a.check_invariants().unwrap();
        // A single maximal run spanning all memory.
        assert_eq!(a.free_runs(), vec![(0, num_frames)]);
    }
}

#[test]
fn alloc_at_never_hands_out_busy_frames() {
    let mut seeds = DetRng::new(0xB0DD_1E03);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let n = rng.range(1, 80);
        let mut a = BuddyAllocator::new(1024);
        let mut owned: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n {
            let order = rng.below(10) as u32;
            let frame = rng.below(1024) & !((1u64 << order) - 1);
            if frame + (1 << order) > 1024 {
                continue;
            }
            match a.alloc_at(frame, order) {
                Ok(()) => {
                    for &(s, o) in &owned {
                        let disjoint = s + (1u64 << o) <= frame || frame + (1u64 << order) <= s;
                        assert!(disjoint, "alloc_at returned an owned frame");
                    }
                    owned.push((frame, order));
                }
                Err(_) => {
                    // Failure must mean some frame in range is indeed busy,
                    // i.e. intersects an owned block.
                    let busy = owned
                        .iter()
                        .any(|&(s, o)| s < frame + (1 << order) && frame < s + (1u64 << o));
                    assert!(busy, "alloc_at refused a fully free range");
                }
            }
        }
    }
}

#[test]
fn is_range_free_matches_ownership() {
    let mut seeds = DetRng::new(0xB0DD_1E04);
    for _ in 0..CASES {
        let mut rng = seeds.fork();
        let n = rng.below(32);
        let mut a = BuddyAllocator::new(512);
        let mut owned: Vec<(u64, u32)> = Vec::new();
        for _ in 0..n {
            let order = rng.below(7) as u32;
            let frame = rng.below(512) & !((1u64 << order) - 1);
            if frame + (1 << order) <= 512 && a.alloc_at(frame, order).is_ok() {
                owned.push((frame, order));
            }
        }
        let qs = rng.below(512);
        let ql = rng.range(1, 64).min(512 - qs.min(512));
        if qs + ql <= 512 {
            let expect_free = !owned
                .iter()
                .any(|&(s, o)| s < qs + ql && qs < s + (1u64 << o));
            assert_eq!(a.is_range_free(qs, ql), expect_free);
        }
    }
}
