//! A binary buddy page-frame allocator modeled on Linux's `page_alloc`.
//!
//! Free memory is grouped into order-*x* free lists, where an order-*x*
//! block holds 2^x contiguous, 2^x-aligned base frames. Allocation splits
//! larger blocks; freeing eagerly merges buddies back together, so a fully
//! free, naturally aligned 2^x range is always represented by a single block
//! of order ≥ x — an invariant this crate's targeted allocation relies on
//! and the property tests check.
//!
//! Beyond the classic interface, the allocator supports what Gemini's
//! mechanisms need:
//!
//! - [`BuddyAllocator::alloc_at`] — targeted allocation of a specific
//!   aligned block, used by the enhanced memory allocator (EMA) to place a
//!   page at `GVA - GuestOffset`, and by huge booking to reserve the region
//!   under a mis-aligned huge page;
//! - a persistent **free-run index** — maximal free contiguous runs kept
//!   in an address-ordered map with a size histogram, maintained
//!   incrementally by every alloc/free. Placement queries
//!   ([`BuddyAllocator::first_run_fitting`],
//!   [`BuddyAllocator::first_congruent_run`],
//!   [`BuddyAllocator::largest_free_run`]) answer off the index in
//!   O(log runs + answers) instead of rescanning memory, feeding the
//!   Gemini contiguity list and CA-paging's offset establishment;
//! - [`BuddyAllocator::free_area_counts`] — per-order free-block counts for
//!   the fragmentation index (FMFI) that Ingens and Algorithm 1 consume.
//!
//! All addresses here are *frame numbers* (base-page indices); callers
//! convert to/from [`gemini_sim_core::Gpa`]/[`gemini_sim_core::Hpa`].
//!
//! # Examples
//!
//! ```
//! use gemini_buddy::BuddyAllocator;
//! use gemini_sim_core::HUGE_PAGE_ORDER;
//!
//! let mut buddy = BuddyAllocator::new(4096);
//! // A 2 MiB huge page is an aligned order-9 block.
//! let huge = buddy.alloc(HUGE_PAGE_ORDER)?;
//! assert_eq!(huge % 512, 0);
//! // Targeted allocation: reserve the specific region a booking needs.
//! buddy.alloc_at(1024, HUGE_PAGE_ORDER)?;
//! buddy.free(huge, HUGE_PAGE_ORDER)?;
//! buddy.free(1024, HUGE_PAGE_ORDER)?;
//! assert_eq!(buddy.free_frames(), 4096);
//! # Ok::<(), gemini_sim_core::SimError>(())
//! ```

use gemini_sim_core::{FreeAreaCounts, SimError, HUGE_PAGE_ORDER, PAGES_PER_HUGE_PAGE};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Largest allocatable order (inclusive): order-10 blocks are 4 MiB, the
/// Linux `MAX_ORDER` limit the paper cites when explaining why the stock
/// buddy allocator cannot hand out arbitrarily large contiguous regions.
pub const MAX_ORDER: u32 = 10;

/// Marks a frame that is not the start of a free block in
/// [`BuddyAllocator::order_of`].
const NO_BLOCK: u8 = u8::MAX;

/// A binary buddy allocator over a contiguous range of page frames.
///
/// Free blocks are tracked in one flat byte array indexed by frame:
/// `order_of[f]` is the order of the free block starting at `f`, or a
/// `NO_BLOCK` sentinel. Because a block of order `o` can only start at an
/// `o`-aligned frame, "which free block contains frame `f`" is answered by
/// probing the 11 aligned predecessors of `f` — no tree walk — and the
/// buddy-merge step in [`BuddyAllocator::free`] is a single array read.
/// Address-ordered allocation keeps a per-order minimum-start hint that
/// insertions lower and scans advance, so finding the lowest free block of
/// an order amortizes to a moving cursor.
/// On top of the block storage, the allocator keeps a persistent **free-run
/// index**: the maximal runs of abutting free frames, held in an
/// address-ordered map (`start → len`) mirrored by a size-ordered set
/// (`(len, start)`). Every `alloc`/`alloc_at`/`free` updates the index at
/// the *net-effect* level — internal block splits and buddy merges never
/// move a run boundary, so each operation is one range carve or one
/// adjacency merge, O(log runs) amortized. Run queries
/// ([`BuddyAllocator::first_run_fitting`],
/// [`BuddyAllocator::first_congruent_run`],
/// [`BuddyAllocator::largest_free_run`]) read the index instead of
/// rescanning `order_of`, which turns every run-consuming policy pass from
/// O(frames) into O(log runs + answers).
#[derive(Debug, Clone)]
pub struct BuddyAllocator {
    /// Per-frame free-block-start marker (see type docs).
    order_of: Vec<u8>,
    /// Number of free blocks per order `0..=MAX_ORDER`.
    counts: Vec<u64>,
    /// Lower bound on the lowest start of a free block per order; never
    /// above the true minimum (insertions lower it, removals leave it).
    min_start: Vec<u64>,
    /// Total frames managed.
    total_frames: u64,
    /// Currently free frames.
    free_frames: u64,
    /// Free-run index, address-ordered: `start → len` of every maximal
    /// free run. The single source the run iterators and queries read.
    runs_by_addr: BTreeMap<u64, u64>,
    /// Free-run index, size-ordered: histogram `len → number of runs of
    /// that length`, giving O(log lens) largest-run and fit guards. Keyed
    /// by length only — fragmented memory has many runs but few distinct
    /// lengths, so this tree stays far smaller than `runs_by_addr`.
    runs_by_size: BTreeMap<u64, u64>,
    /// Work counter: runs examined by index queries since the last
    /// [`BuddyAllocator::take_work_counters`]. `Cell` because queries
    /// take `&self`; the allocator is `Send` (moved whole between
    /// worker threads), never shared across threads.
    run_probes: Cell<u64>,
    /// Work counter: run-map mutations (inserts + removes) since the
    /// last [`BuddyAllocator::take_work_counters`].
    index_updates: Cell<u64>,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `[0, num_frames)`, all free.
    pub fn new(num_frames: u64) -> Self {
        Self::with_allocated(num_frames, &[]).expect("an empty frame list is valid")
    }

    /// Creates an allocator managing frames `[0, num_frames)` with exactly
    /// the single frames in `allocated` allocated and every other frame
    /// free — the state any sequence of single-frame allocations and
    /// frees leaving that set would reach.
    ///
    /// Each free gap between allocated frames is carved greedily into
    /// maximal aligned blocks and indexed as one free run. Eager merging
    /// gives every free-frame set exactly one block decomposition, and
    /// the greedy carve is it. `allocated` must be sorted ascending and
    /// unique ([`SimError::Invariant`] otherwise) and lie inside the range
    /// ([`SimError::OutOfRange`] otherwise).
    pub fn with_allocated(num_frames: u64, allocated: &[u64]) -> Result<Self, SimError> {
        if allocated.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SimError::Invariant(
                "allocated frames must be sorted and unique",
            ));
        }
        if allocated.last().is_some_and(|&f| f >= num_frames) {
            return Err(SimError::OutOfRange);
        }
        let mut alloc = Self {
            order_of: vec![NO_BLOCK; num_frames as usize],
            counts: vec![0; (MAX_ORDER + 1) as usize],
            min_start: vec![0; (MAX_ORDER + 1) as usize],
            total_frames: num_frames,
            free_frames: num_frames - allocated.len() as u64,
            runs_by_addr: BTreeMap::new(),
            runs_by_size: BTreeMap::new(),
            run_probes: Cell::new(0),
            index_updates: Cell::new(0),
        };
        let mut gap_start = 0u64;
        for gap_end in allocated.iter().copied().chain([num_frames]) {
            if gap_end > gap_start {
                let mut frame = gap_start;
                while frame < gap_end {
                    let order = carve_order(frame, gap_end);
                    alloc.insert_free(frame, order);
                    frame += 1 << order;
                }
                alloc.index_insert(gap_start, gap_end - gap_start);
            }
            gap_start = gap_end + 1;
        }
        Ok(alloc)
    }

    /// Total number of frames managed.
    pub fn total_frames(&self) -> u64 {
        self.total_frames
    }

    /// Number of currently free frames.
    pub fn free_frames(&self) -> u64 {
        self.free_frames
    }

    /// Number of currently allocated frames.
    pub fn used_frames(&self) -> u64 {
        self.total_frames - self.free_frames
    }

    /// Allocates a block of `order`, returning its start frame.
    ///
    /// Splits the smallest sufficient block at the lowest address, like
    /// Linux's allocator under the "address-ordered" heuristic.
    pub fn alloc(&mut self, order: u32) -> Result<u64, SimError> {
        if order > MAX_ORDER {
            return Err(SimError::OutOfMemory { order });
        }
        let mut found = None;
        for o in order..=MAX_ORDER {
            if self.counts[o as usize] > 0 {
                found = Some((self.lowest_block_of_order(o), o));
                break;
            }
        }
        let (start, mut o) = found.ok_or(SimError::OutOfMemory { order })?;
        self.remove_free(start, o);
        // Split down, freeing the upper halves.
        while o > order {
            o -= 1;
            self.insert_free(start + (1 << o), o);
        }
        self.free_frames -= 1 << order;
        // Net effect on runs: exactly the allocated range left them.
        self.index_allocate_range(start, 1 << order);
        Ok(start)
    }

    /// Frees single base frames, producing the same end state as freeing
    /// them one at a time, in time proportional to the frames freed, not
    /// to the managed range.
    ///
    /// Each stretch of consecutive frames is carved into maximal aligned
    /// blocks (the greedy carve of [`BuddyAllocator::with_allocated`]), and each
    /// block goes through [`BuddyAllocator::free`]. Eager merging gives
    /// every free-frame set exactly one block decomposition, and the run
    /// index is a function of that set, so the result does not depend on
    /// how the frames were grouped. `frames` should be sorted ascending
    /// so stretches are found; any order of unique frames is correct,
    /// only slower. A frame that is already free or out of range fails
    /// with [`SimError::BadFree`]; blocks carved before it stay freed.
    pub fn free_sorted_frames(&mut self, frames: &[u64]) -> Result<(), SimError> {
        let mut i = 0;
        while i < frames.len() {
            let start = frames[i];
            let mut end = start + 1;
            i += 1;
            while i < frames.len() && frames[i] == end {
                end += 1;
                i += 1;
            }
            let mut pos = start;
            while pos < end {
                let order = carve_order(pos, end);
                self.free(pos, order)?;
                pos += 1 << order;
            }
        }
        Ok(())
    }

    /// Allocates the specific block `[start, start + 2^order)`.
    ///
    /// Fails with [`SimError::Unaligned`] if `start` is not order-aligned,
    /// [`SimError::OutOfRange`] if the block exceeds the managed range, and
    /// [`SimError::RangeBusy`] if any frame in the block is allocated.
    pub fn alloc_at(&mut self, start: u64, order: u32) -> Result<(), SimError> {
        if order > MAX_ORDER {
            return Err(SimError::OutOfRange);
        }
        if start & ((1 << order) - 1) != 0 {
            return Err(SimError::Unaligned);
        }
        if start + (1 << order) > self.total_frames {
            return Err(SimError::OutOfRange);
        }
        // Eager merging guarantees a fully free aligned range lives inside
        // a single free block of order >= `order`.
        let (block_start, block_order) = self
            .containing_free_block(start)
            .ok_or(SimError::RangeBusy)?;
        if block_start + (1 << block_order) < start + (1 << order) {
            return Err(SimError::RangeBusy);
        }
        self.remove_free(block_start, block_order);
        // Descend toward the target, freeing the sibling half each split.
        let (mut cur_start, mut cur_order) = (block_start, block_order);
        while cur_order > order {
            cur_order -= 1;
            let half = 1u64 << cur_order;
            if start >= cur_start + half {
                self.insert_free(cur_start, cur_order);
                cur_start += half;
            } else {
                self.insert_free(cur_start + half, cur_order);
            }
        }
        debug_assert_eq!(cur_start, start);
        self.free_frames -= 1 << order;
        self.index_allocate_range(start, 1 << order);
        Ok(())
    }

    /// Frees the block `[start, start + 2^order)`, merging buddies eagerly.
    ///
    /// Fails with [`SimError::BadFree`] when any frame of the block is
    /// already free (double free) or out of range.
    pub fn free(&mut self, start: u64, order: u32) -> Result<(), SimError> {
        if order > MAX_ORDER
            || start & ((1 << order) - 1) != 0
            || start + (1 << order) > self.total_frames
        {
            return Err(SimError::BadFree(gemini_sim_core::Hpa::from_frame(start)));
        }
        // Detect overlap with an existing free block.
        if self.range_overlaps_free(start, 1 << order) {
            return Err(SimError::BadFree(gemini_sim_core::Hpa::from_frame(start)));
        }
        let (mut cur, mut o) = (start, order);
        while o < MAX_ORDER {
            let buddy = cur ^ (1 << o);
            if buddy + (1 << o) <= self.total_frames && self.order_of[buddy as usize] == o as u8 {
                self.order_of[buddy as usize] = NO_BLOCK;
                self.counts[o as usize] -= 1;
                cur = cur.min(buddy);
                o += 1;
            } else {
                break;
            }
        }
        self.insert_free(cur, o);
        self.free_frames += 1 << order;
        // Buddy merging happened strictly inside already-free ground; the
        // net effect on runs is that the freed range joined them.
        self.index_free_range(start, 1 << order);
        Ok(())
    }

    /// Returns true when every frame of `[start, start + len)` is free.
    pub fn is_range_free(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        if start + len > self.total_frames {
            return false;
        }
        let mut cursor = start;
        // Walk free blocks covering the range.
        while cursor < start + len {
            match self.containing_free_block(cursor) {
                Some((bs, bo)) => cursor = bs + (1 << bo),
                None => return false,
            }
        }
        true
    }

    /// Returns true when frame `frame` is free.
    pub fn is_frame_free(&self, frame: u64) -> bool {
        self.containing_free_block(frame).is_some()
    }

    /// Per-order free block counts, for FMFI computation.
    pub fn free_area_counts(&self) -> FreeAreaCounts {
        FreeAreaCounts::new(&self.counts)
    }

    /// Current fragmentation index at `order` (see [`gemini_sim_core::fmfi`]).
    pub fn fragmentation_index(&self, order: u32) -> f64 {
        gemini_sim_core::fragmentation_index(&self.free_area_counts(), order)
    }

    /// Enumerates maximal runs of free frames as `(start, len)` pairs in
    /// address order, merging adjacent free blocks that are not buddies.
    ///
    /// **Test-only convenience**: materialises the whole index into a
    /// `Vec` for assertions. Production consumers use the lazy
    /// [`BuddyAllocator::free_runs_iter`]/[`BuddyAllocator::free_runs_from`]
    /// or the indexed queries ([`BuddyAllocator::first_run_fitting`],
    /// [`BuddyAllocator::first_congruent_run`]), which touch only the
    /// runs they answer with.
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.free_runs_iter().collect()
    }

    /// Lazy iterator over the maximal free runs in address order, read
    /// straight from the persistent run index — no `order_of` scan, no
    /// `Vec`, so searches that stop at the first fit (next-fit placement)
    /// touch only the runs they examine.
    pub fn free_runs_iter(&self) -> FreeRuns<'_> {
        FreeRuns {
            inner: self.runs_by_addr.range(..),
        }
    }

    /// Like [`BuddyAllocator::free_runs_iter`], but yields only the maximal
    /// runs whose *start* is `>= frame` — exactly the suffix a next-fit
    /// cursor scan wants. A run that merely straddles `frame` (it began
    /// below it) is excluded, matching
    /// `free_runs().filter(|r| r.0 >= frame)`.
    pub fn free_runs_from(&self, frame: u64) -> FreeRuns<'_> {
        FreeRuns {
            inner: self.runs_by_addr.range(frame..),
        }
    }

    /// Re-derives the maximal free runs by scanning `order_of` from
    /// scratch — the reference tests hold the incremental index against.
    /// O(frames); not for production paths.
    pub fn free_runs_rescan(&self) -> Vec<(u64, u64)> {
        let n = self.total_frames;
        let mut runs = Vec::new();
        let mut pos = 0u64;
        while pos < n {
            if self.order_of[pos as usize] == NO_BLOCK {
                pos += 1;
                continue;
            }
            // Accumulate the chain of abutting free blocks.
            let start = pos;
            while pos < n && self.order_of[pos as usize] != NO_BLOCK {
                pos += 1u64 << self.order_of[pos as usize];
            }
            runs.push((start, pos - start));
        }
        runs
    }

    /// Length of the largest maximal free run, in frames. O(log runs)
    /// off the size-ordered index.
    pub fn largest_free_run(&self) -> u64 {
        self.runs_by_size
            .last_key_value()
            .map(|(&len, _)| len)
            .unwrap_or(0)
    }

    /// First free run with start `>= cursor` holding at least `len`
    /// frames, as `(start, len)`. Next-fit leg of a cursor scan;
    /// rejects in O(log runs) when no run anywhere is long enough.
    pub fn first_run_fitting(&self, cursor: u64, len: u64) -> Option<(u64, u64)> {
        if self.largest_free_run() < len {
            return None;
        }
        for (&start, &rlen) in self.runs_by_addr.range(cursor..) {
            self.run_probes.set(self.run_probes.get() + 1);
            if rlen >= len {
                return Some((start, rlen));
            }
        }
        None
    }

    /// First free run with start `>= cursor` that can place `len` frames
    /// at a position congruent to `in0` modulo the huge page size: the
    /// run `(start, rlen)` fits iff
    /// `congruent_start(start, in0) + len <= start + rlen`.
    ///
    /// This is the core query of contiguity-aware placement (CA-paging's
    /// `establish_offset`, Gemini's contiguity list). Two fast
    /// rejections make the fragmented case O(log runs): no run is `len`
    /// long, or — when the anchor is region-aligned and a whole region
    /// is needed — no free block of huge-page order exists (by eager
    /// merging, a congruent fit of `>= 512` aligned frames *is* such a
    /// block).
    pub fn first_congruent_run(&self, cursor: u64, in0: u64, len: u64) -> Option<(u64, u64)> {
        if !self.congruent_fit_possible(in0, len) {
            return None;
        }
        for (&start, &rlen) in self.runs_by_addr.range(cursor..) {
            self.run_probes.set(self.run_probes.get() + 1);
            if congruent_start(start, in0) + len <= start + rlen {
                return Some((start, rlen));
            }
        }
        None
    }

    /// Wrap-around leg of [`BuddyAllocator::first_congruent_run`]: the
    /// first fitting run whose start is strictly `< below`, scanning from
    /// address zero. After the at-cursor leg missed, any remaining fit
    /// necessarily starts before the cursor, so the two legs together
    /// cover the full wrapped next-fit order.
    pub fn first_congruent_run_below(&self, below: u64, in0: u64, len: u64) -> Option<(u64, u64)> {
        if !self.congruent_fit_possible(in0, len) {
            return None;
        }
        for (&start, &rlen) in self.runs_by_addr.range(..below) {
            self.run_probes.set(self.run_probes.get() + 1);
            if congruent_start(start, in0) + len <= start + rlen {
                return Some((start, rlen));
            }
        }
        None
    }

    /// Number of free runs holding at least `min_len` frames. O(answers)
    /// off the size-ordered index.
    pub fn count_runs_at_least(&self, min_len: u64) -> u64 {
        self.runs_by_size.range(min_len..).map(|(_, &c)| c).sum()
    }

    /// The `n`-th (0-based) free run in *address order* among those
    /// holding at least `min_len` frames — the indexed replacement for
    /// collecting a filtered `Vec` and subscripting it.
    pub fn nth_run_at_least(&self, min_len: u64, n: u64) -> Option<(u64, u64)> {
        let mut seen = 0u64;
        for (&start, &rlen) in self.runs_by_addr.iter() {
            self.run_probes.set(self.run_probes.get() + 1);
            if rlen >= min_len {
                if seen == n {
                    return Some((start, rlen));
                }
                seen += 1;
            }
        }
        None
    }

    /// Drains the deterministic work counters accumulated since the last
    /// call, as `(run_probes, index_updates)`. The engine feeds these
    /// into the obs registry after each fault/daemon step.
    pub fn take_work_counters(&self) -> (u64, u64) {
        (self.run_probes.take(), self.index_updates.take())
    }

    /// Runs examined by index queries since the last counter drain.
    pub fn run_probes(&self) -> u64 {
        self.run_probes.get()
    }

    /// Run-map mutations since the last counter drain.
    pub fn index_updates(&self) -> u64 {
        self.index_updates.get()
    }

    /// True when some run could place `len` congruent-to-`in0` frames;
    /// see [`BuddyAllocator::first_congruent_run`] for the reasoning.
    fn congruent_fit_possible(&self, in0: u64, len: u64) -> bool {
        if self.largest_free_run() < len {
            return false;
        }
        // A region-aligned anchor needing a whole region places it on a
        // 512-aligned, fully free range — by eager merging, an order-9
        // free block. No such block, no fit, O(orders) to know.
        if in0 % PAGES_PER_HUGE_PAGE == 0
            && len >= PAGES_PER_HUGE_PAGE
            && !self.has_suitable_block(HUGE_PAGE_ORDER)
        {
            return false;
        }
        true
    }

    /// True when any free block of order `>= order` exists — an O(orders)
    /// check with no allocation. By eager merging this is equivalent to
    /// "some naturally aligned, fully free `2^order` range exists", which
    /// lets callers reject whole-region searches before walking runs.
    pub fn has_suitable_block(&self, order: u32) -> bool {
        self.counts[order.min(MAX_ORDER) as usize..]
            .iter()
            .any(|&c| c > 0)
    }

    /// Count of free blocks of exactly `order`.
    pub fn free_blocks_of_order(&self, order: u32) -> usize {
        self.counts
            .get(order as usize)
            .map(|&c| c as usize)
            .unwrap_or(0)
    }

    /// The free block containing `frame`, if any, as `(start, order)`.
    ///
    /// A block of order `o` can only start at the `2^o`-aligned frame at or
    /// below `frame`, so eleven probes cover every possibility.
    fn containing_free_block(&self, frame: u64) -> Option<(u64, u32)> {
        if frame >= self.total_frames {
            return None;
        }
        for o in 0..=MAX_ORDER {
            let start = frame & !((1u64 << o) - 1);
            if self.order_of[start as usize] == o as u8 {
                return Some((start, o));
            }
        }
        None
    }

    /// The lowest start frame among free blocks of exactly `order`.
    ///
    /// Callers must ensure `counts[order] > 0`. Starts the scan at the
    /// order's min-start hint and advances it past exhausted ground.
    fn lowest_block_of_order(&mut self, order: u32) -> u64 {
        debug_assert!(self.counts[order as usize] > 0);
        let step = 1u64 << order;
        let mut s = self.min_start[order as usize];
        while self.order_of[s as usize] != order as u8 {
            s += step;
        }
        self.min_start[order as usize] = s;
        s
    }

    /// True when `[start, start+len)` intersects any free block.
    fn range_overlaps_free(&self, start: u64, len: u64) -> bool {
        if self.containing_free_block(start).is_some() {
            return true;
        }
        // A block starting exactly at `start` was already caught above, so
        // only longer ranges need the interior scan. `len` is at most
        // `2^MAX_ORDER`, bounding the scan.
        self.order_of[start as usize + 1..(start + len) as usize]
            .iter()
            .any(|&o| o != NO_BLOCK)
    }

    fn insert_free(&mut self, start: u64, order: u32) {
        self.order_of[start as usize] = order as u8;
        self.counts[order as usize] += 1;
        if start < self.min_start[order as usize] {
            self.min_start[order as usize] = start;
        }
    }

    fn remove_free(&mut self, start: u64, order: u32) {
        debug_assert_eq!(self.order_of[start as usize], order as u8);
        self.order_of[start as usize] = NO_BLOCK;
        self.counts[order as usize] -= 1;
    }

    /// Adds run `(start, len)` to both index maps.
    fn index_insert(&mut self, start: u64, len: u64) {
        self.index_updates.set(self.index_updates.get() + 1);
        self.runs_by_addr.insert(start, len);
        self.size_inc(len);
    }

    /// Removes run `(start, len)` from both index maps.
    fn index_remove(&mut self, start: u64, len: u64) {
        self.index_updates.set(self.index_updates.get() + 1);
        let in_addr = self.runs_by_addr.remove(&start) == Some(len);
        debug_assert!(in_addr, "index out of sync at {start}+{len}");
        self.size_dec(len);
    }

    /// Counts one more run of length `len` in the size histogram.
    fn size_inc(&mut self, len: u64) {
        *self.runs_by_size.entry(len).or_insert(0) += 1;
    }

    /// Counts one fewer run of length `len` in the size histogram.
    fn size_dec(&mut self, len: u64) {
        match self.runs_by_size.get_mut(&len) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.runs_by_size.remove(&len);
            }
            None => debug_assert!(false, "size histogram missing length {len}"),
        }
    }

    /// Records an in-place change of one run's length in the size
    /// histogram and the update counter (the address map was already
    /// mutated through `get_mut`/`range_mut`).
    fn size_resize(&mut self, old_len: u64, new_len: u64) {
        self.index_updates.set(self.index_updates.get() + 1);
        self.size_dec(old_len);
        self.size_inc(new_len);
    }

    /// Index update for an allocation: carve `[start, start + len)` out of
    /// the run containing it, leaving up to two remainder runs. The range
    /// was fully free, so exactly one indexed run covers it. When the run
    /// keeps its start (tail or middle carve) the left remainder shrinks
    /// in place; only a head carve moves the key.
    fn index_allocate_range(&mut self, start: u64, len: u64) {
        let end = start + len;
        let (run_start, run_len) = {
            let (&run_start, run_len) = self
                .runs_by_addr
                .range_mut(..=start)
                .next_back()
                .expect("allocated range must lie inside an indexed run");
            let old = *run_len;
            debug_assert!(run_start + old >= end);
            if run_start < start {
                // Left remainder keeps the key; shrink it in place.
                *run_len = start - run_start;
            }
            (run_start, old)
        };
        let run_end = run_start + run_len;
        if run_start == start {
            self.index_remove(run_start, run_len);
        } else {
            self.size_resize(run_len, start - run_start);
        }
        if run_end > end {
            self.index_insert(end, run_end - end);
        }
    }

    /// Index update for a free: the range `[start, start + len)` joins the
    /// free runs, merging with the run ending exactly at `start` and/or
    /// the run starting exactly at `start + len`. (A neighbouring free
    /// frame always terminates its run exactly at the boundary, because
    /// the range itself was allocated ground.) A left merge keeps the
    /// predecessor's key and grows it in place — the common case under
    /// sequential frees.
    fn index_free_range(&mut self, start: u64, len: u64) {
        let right_len = self.runs_by_addr.get(&(start + len)).copied();
        if let Some(next_len) = right_len {
            self.index_remove(start + len, next_len);
        }
        let add = len + right_len.unwrap_or(0);
        let mut grown: Option<u64> = None;
        if let Some((&prev_start, prev_len)) = self.runs_by_addr.range_mut(..start).next_back() {
            if prev_start + *prev_len == start {
                grown = Some(*prev_len);
                *prev_len += add;
            }
        }
        match grown {
            Some(old_len) => self.size_resize(old_len, old_len + add),
            None => self.index_insert(start, add),
        }
    }

    /// Verifies the allocator's internal invariants in one pass over
    /// `order_of`. This is the production leak check
    /// `Machine::remove_vm` runs after every VM teardown, and tests call
    /// it after every step.
    ///
    /// Checks that every free block is in range, aligned, disjoint from
    /// the others and not an unmerged buddy; that the per-order counts,
    /// the free-frame count and the per-order min-start hints agree with
    /// the blocks; and that both run-index maps hold exactly the maximal
    /// runs the blocks form.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let orders = (MAX_ORDER + 1) as usize;
        let mut per_order = vec![0u64; orders];
        let mut lowest = vec![u64::MAX; orders];
        let mut counted = 0u64;
        // The maximal run being built, as `[start, end)`, and the index
        // entries it is compared against as each run closes.
        let mut run: Option<(u64, u64)> = None;
        let mut indexed = self.runs_by_addr.iter();
        let mut lens: Vec<u64> = Vec::with_capacity(self.runs_by_addr.len());
        let mut close_run = |(start, end): (u64, u64)| {
            lens.push(end - start);
            if indexed.next() != Some((&start, &(end - start))) {
                return Err(SimError::Invariant("run index out of sync with order_of"));
            }
            Ok(())
        };
        for (f, &marker) in self.order_of.iter().enumerate() {
            if marker == NO_BLOCK {
                continue;
            }
            let (start, order) = (f as u64, marker as u32);
            if order > MAX_ORDER {
                return Err(SimError::Invariant("free block order out of range"));
            }
            if start & ((1 << order) - 1) != 0 {
                return Err(SimError::Invariant("free block misaligned"));
            }
            if start < run.map_or(0, |(_, run_end)| run_end) {
                return Err(SimError::Invariant("free blocks overlap"));
            }
            let end = start + (1 << order);
            if end > self.total_frames {
                return Err(SimError::Invariant("free block out of range"));
            }
            if order < MAX_ORDER {
                let buddy = start ^ (1u64 << order);
                if buddy < self.total_frames && self.order_of[buddy as usize] == order as u8 {
                    return Err(SimError::Invariant("unmerged free buddies"));
                }
            }
            per_order[order as usize] += 1;
            lowest[order as usize] = lowest[order as usize].min(start);
            counted += 1 << order;
            run = match run {
                Some((run_start, run_end)) if run_end == start => Some((run_start, end)),
                Some(closed) => {
                    close_run(closed)?;
                    Some((start, end))
                }
                None => Some((start, end)),
            };
        }
        if let Some(closed) = run {
            close_run(closed)?;
        }
        if indexed.next().is_some() {
            return Err(SimError::Invariant("run index out of sync with order_of"));
        }
        if per_order != self.counts {
            return Err(SimError::Invariant("per-order block counts out of sync"));
        }
        if (0..orders).any(|o| self.counts[o] > 0 && self.min_start[o] > lowest[o]) {
            return Err(SimError::Invariant("min-start hint above true minimum"));
        }
        let listed: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(o, &c)| c << o as u64)
            .sum();
        if counted != self.free_frames || listed != self.free_frames {
            return Err(SimError::Invariant("free frame accounting mismatch"));
        }
        // The size histogram must count the run lengths exactly: walk the
        // sorted lengths in groups of equal length.
        lens.sort_unstable();
        let mut sizes = self.runs_by_size.iter();
        let mut i = 0;
        while i < lens.len() {
            let len = lens[i];
            let group = lens[i..].iter().take_while(|&&l| l == len).count();
            if sizes.next() != Some((&len, &(group as u64))) {
                return Err(SimError::Invariant("size index out of sync with run map"));
            }
            i += group;
        }
        if sizes.next().is_some() {
            return Err(SimError::Invariant("size index out of sync with run map"));
        }
        Ok(())
    }
}

/// Order of the largest block the greedy carve of `[pos, end)` places at
/// `pos`: the largest order `pos` is aligned to whose block still ends by
/// `end`. Carving a run this way from its start yields the unique block
/// decomposition eager merging maintains.
fn carve_order(pos: u64, end: u64) -> u32 {
    let mut order = if pos == 0 {
        MAX_ORDER
    } else {
        pos.trailing_zeros().min(MAX_ORDER)
    };
    while pos + (1 << order) > end {
        order -= 1;
    }
    order
}

/// First frame `>= start` congruent to `in0` modulo the huge page size —
/// the placement anchor of contiguity-aware paging.
fn congruent_start(start: u64, in0: u64) -> u64 {
    let want = in0 % PAGES_PER_HUGE_PAGE;
    let base = start - (start % PAGES_PER_HUGE_PAGE);
    let candidate = base + want;
    if candidate >= start {
        candidate
    } else {
        candidate + PAGES_PER_HUGE_PAGE
    }
}

/// Lazy iterator over maximal free runs; see
/// [`BuddyAllocator::free_runs_iter`]. A thin view over the persistent
/// run index — each `next` is one B-tree step, independent of how much
/// allocated ground separates the runs.
#[derive(Debug)]
pub struct FreeRuns<'a> {
    inner: std::collections::btree_map::Range<'a, u64, u64>,
}

impl Iterator for FreeRuns<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        self.inner.next().map(|(&start, &len)| (start, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemini_sim_core::HUGE_PAGE_ORDER;

    #[test]
    fn new_allocator_is_fully_free_and_coalesced() {
        let a = BuddyAllocator::new(4096);
        assert_eq!(a.free_frames(), 4096);
        assert_eq!(a.used_frames(), 0);
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 4);
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 4096)]);
        assert_eq!(a.largest_free_run(), 4096);
    }

    #[test]
    fn new_is_with_allocated_of_nothing() {
        for n in [0, 1, 777, 1000, 4096] {
            let built = BuddyAllocator::with_allocated(n, &[]).unwrap();
            built.check_invariants().unwrap();
            assert_eq!(
                format!("{built:?}"),
                format!("{:?}", BuddyAllocator::new(n))
            );
        }
    }

    #[test]
    fn with_allocated_rejects_unsorted_duplicate_and_out_of_range_frames() {
        assert!(matches!(
            BuddyAllocator::with_allocated(64, &[9, 3]),
            Err(SimError::Invariant(_))
        ));
        assert!(matches!(
            BuddyAllocator::with_allocated(64, &[3, 3]),
            Err(SimError::Invariant(_))
        ));
        assert!(matches!(
            BuddyAllocator::with_allocated(64, &[3, 64]),
            Err(SimError::OutOfRange)
        ));
        let a = BuddyAllocator::with_allocated(64, &[0, 5, 63]).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(1, 4), (6, 57)]);
        assert_eq!(a.used_frames(), 3);
    }

    #[test]
    fn free_sorted_frames_merges_into_the_live_index() {
        let mut a = BuddyAllocator::new(1000);
        a.alloc_at(0, 9).unwrap();
        a.alloc_at(600, 3).unwrap();
        a.take_work_counters();
        // A stretch crossing block boundaries, an isolated frame and a
        // stretch that closes a gap between two free runs.
        let frames: Vec<u64> = (3..130).chain([300]).chain(600..608).collect();
        a.free_sorted_frames(&frames).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), a.free_runs_rescan());
        assert_eq!(a.free_runs(), vec![(3, 127), (300, 1), (512, 488)]);
        assert_eq!(a.free_frames(), 1000 - 512 - 8 + frames.len() as u64);
        let (_, updates) = a.take_work_counters();
        assert!(
            updates <= 3 * frames.len() as u64,
            "{updates} index updates"
        );
    }

    #[test]
    fn free_sorted_frames_rejects_double_and_out_of_range_frees() {
        let mut a = BuddyAllocator::new(64);
        a.alloc_at(0, 5).unwrap();
        // Frame 40 is free already; frame 64 is past the end.
        assert!(matches!(
            a.free_sorted_frames(&[40]),
            Err(SimError::BadFree(_))
        ));
        assert!(matches!(
            a.free_sorted_frames(&[64]),
            Err(SimError::BadFree(_))
        ));
        // A duplicate inside one call is a double free too.
        assert!(matches!(
            a.free_sorted_frames(&[5, 5]),
            Err(SimError::BadFree(_))
        ));
        a.check_invariants().unwrap();
        // The rejected calls freed nothing they should not have: the
        // rest of the block still frees cleanly.
        let rest: Vec<u64> = (0..32).filter(|&f| f != 5).collect();
        a.free_sorted_frames(&rest).unwrap();
        assert_eq!(a.free_runs(), vec![(0, 64)]);
        a.check_invariants().unwrap();
    }

    /// A fragmented allocator with runs of several lengths, for the
    /// corruption tests: runs (1, 2), (4, 60), (65, 959) over 1024
    /// frames once frames 0, 3 and 64 are held.
    fn corruptible() -> BuddyAllocator {
        let mut a = BuddyAllocator::new(1024);
        for f in [0, 3, 64] {
            a.alloc_at(f, 0).unwrap();
        }
        a.check_invariants().unwrap();
        a
    }

    fn rejection(a: &BuddyAllocator) -> &'static str {
        match a.check_invariants() {
            Err(SimError::Invariant(why)) => why,
            other => panic!("corruption not rejected: {other:?}"),
        }
    }

    #[test]
    fn check_invariants_rejects_a_doctored_run_entry() {
        let mut a = corruptible();
        *a.runs_by_addr.get_mut(&4).unwrap() = 59;
        assert_eq!(rejection(&a), "run index out of sync with order_of");
        let mut a = corruptible();
        let len = a.runs_by_addr.remove(&65).unwrap();
        a.runs_by_addr.insert(66, len);
        assert_eq!(rejection(&a), "run index out of sync with order_of");
    }

    #[test]
    fn check_invariants_rejects_a_missing_or_extra_run() {
        let mut a = corruptible();
        a.runs_by_addr.remove(&1);
        assert_eq!(rejection(&a), "run index out of sync with order_of");
        let mut a = corruptible();
        a.runs_by_addr.remove(&65);
        assert_eq!(rejection(&a), "run index out of sync with order_of");
        let mut a = corruptible();
        a.runs_by_addr.insert(2000, 1);
        assert_eq!(rejection(&a), "run index out of sync with order_of");
    }

    #[test]
    fn check_invariants_rejects_an_off_size_count() {
        let mut a = corruptible();
        *a.runs_by_size.get_mut(&60).unwrap() += 1;
        assert_eq!(rejection(&a), "size index out of sync with run map");
        let mut a = corruptible();
        a.runs_by_size.remove(&2);
        assert_eq!(rejection(&a), "size index out of sync with run map");
        let mut a = corruptible();
        a.runs_by_size.insert(7, 1);
        assert_eq!(rejection(&a), "size index out of sync with run map");
    }

    #[test]
    fn check_invariants_rejects_off_block_counts() {
        let mut a = corruptible();
        a.counts[4] += 1;
        assert_eq!(rejection(&a), "per-order block counts out of sync");
        let mut a = corruptible();
        a.free_frames += 1;
        assert_eq!(rejection(&a), "free frame accounting mismatch");
    }

    #[test]
    fn check_invariants_rejects_a_min_start_above_the_true_minimum() {
        let mut a = corruptible();
        // Frame 1 is an order-0 block (its buddy, frame 0, is held): the
        // true minimum for order 0.
        assert_eq!(a.order_of[1], 0);
        a.min_start[0] = 1000;
        assert_eq!(rejection(&a), "min-start hint above true minimum");
    }

    #[test]
    fn check_invariants_rejects_unmerged_buddies() {
        let mut a = BuddyAllocator::new(1024);
        // Split the single order-10 block into two order-9 halves and
        // keep the books consistent otherwise.
        a.order_of[0] = 9;
        a.order_of[512] = 9;
        a.counts[10] -= 1;
        a.counts[9] += 2;
        assert_eq!(rejection(&a), "unmerged free buddies");
    }

    #[test]
    fn odd_sized_memory_is_carved_correctly() {
        // 1000 frames: not a power of two.
        let a = BuddyAllocator::new(1000);
        assert_eq!(a.free_frames(), 1000);
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 1000)]);
    }

    #[test]
    fn alloc_splits_and_free_merges() {
        let mut a = BuddyAllocator::new(1024);
        let f = a.alloc(0).unwrap();
        assert_eq!(f, 0);
        assert_eq!(a.free_frames(), 1023);
        a.check_invariants().unwrap();
        a.free(f, 0).unwrap();
        assert_eq!(a.free_frames(), 1024);
        // Fully merged back into one max-order block.
        assert_eq!(a.free_blocks_of_order(MAX_ORDER), 1);
        a.check_invariants().unwrap();
    }

    #[test]
    fn alloc_prefers_low_addresses() {
        let mut a = BuddyAllocator::new(2048);
        let f1 = a.alloc(0).unwrap();
        let f2 = a.alloc(0).unwrap();
        assert!(f1 < f2);
        assert_eq!(f2, 1);
    }

    #[test]
    fn huge_order_allocation() {
        let mut a = BuddyAllocator::new(2048);
        let h = a.alloc(HUGE_PAGE_ORDER).unwrap();
        assert_eq!(h % 512, 0);
        assert_eq!(a.free_frames(), 2048 - 512);
        a.free(h, HUGE_PAGE_ORDER).unwrap();
        assert_eq!(a.free_frames(), 2048);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut a = BuddyAllocator::new(4);
        assert!(a.alloc(9).is_err());
        for _ in 0..4 {
            a.alloc(0).unwrap();
        }
        assert_eq!(a.alloc(0), Err(SimError::OutOfMemory { order: 0 }));
    }

    #[test]
    fn alloc_at_carves_the_exact_block() {
        let mut a = BuddyAllocator::new(4096);
        a.alloc_at(512, HUGE_PAGE_ORDER).unwrap();
        assert!(!a.is_frame_free(512));
        assert!(!a.is_frame_free(1023));
        assert!(a.is_frame_free(511));
        assert!(a.is_frame_free(1024));
        assert_eq!(a.free_frames(), 4096 - 512);
        a.check_invariants().unwrap();
        a.free(512, HUGE_PAGE_ORDER).unwrap();
        a.check_invariants().unwrap();
        assert_eq!(a.free_runs(), vec![(0, 4096)]);
    }

    #[test]
    fn alloc_at_rejects_busy_and_misaligned() {
        let mut a = BuddyAllocator::new(1024);
        a.alloc_at(0, 9).unwrap();
        assert_eq!(a.alloc_at(0, 9), Err(SimError::RangeBusy));
        assert_eq!(a.alloc_at(0, 0), Err(SimError::RangeBusy));
        assert_eq!(a.alloc_at(3, 9), Err(SimError::Unaligned));
        assert_eq!(a.alloc_at(1024, 0), Err(SimError::OutOfRange));
        // Partially busy huge range.
        assert_eq!(a.alloc_at(512, 9), Ok(()));
        assert_eq!(a.alloc_at(512, 9), Err(SimError::RangeBusy));
    }

    #[test]
    fn double_free_detected() {
        let mut a = BuddyAllocator::new(64);
        let f = a.alloc(2).unwrap();
        a.free(f, 2).unwrap();
        assert!(matches!(a.free(f, 2), Err(SimError::BadFree(_))));
        // Freeing a sub-block of a free block is also a bad free.
        assert!(matches!(a.free(f, 0), Err(SimError::BadFree(_))));
    }

    #[test]
    fn partial_free_of_targeted_block() {
        // EMA books an order-9 block, allocates pages inside it, then the
        // booking times out and the *unused* pages return one by one.
        let mut a = BuddyAllocator::new(1024);
        a.alloc_at(0, 9).unwrap();
        // Return frames 10..512 individually.
        for f in 10..512 {
            a.free(f, 0).unwrap();
        }
        assert_eq!(a.free_frames(), 1024 - 10);
        a.check_invariants().unwrap();
        // Frames 0..10 are still allocated.
        assert!(!a.is_frame_free(0));
        assert!(!a.is_frame_free(9));
        assert!(a.is_frame_free(10));
        // Now free the head; everything must merge back.
        for f in 0..10 {
            a.free(f, 0).unwrap();
        }
        assert_eq!(a.free_runs(), vec![(0, 1024)]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn is_range_free_spans_blocks() {
        let mut a = BuddyAllocator::new(2048);
        assert!(a.is_range_free(0, 2048));
        assert!(a.is_range_free(0, 0));
        assert!(!a.is_range_free(0, 4096));
        a.alloc_at(100, 0).unwrap();
        assert!(!a.is_range_free(0, 512));
        assert!(a.is_range_free(0, 100));
        assert!(a.is_range_free(101, 512));
    }

    #[test]
    fn fragmentation_index_reflects_layout() {
        let mut a = BuddyAllocator::new(1024);
        assert_eq!(a.fragmentation_index(9), 0.0);
        // Allocate everything, then free every other frame: classic
        // checkerboard fragmentation.
        let mut frames = Vec::new();
        while let Ok(f) = a.alloc(0) {
            frames.push(f);
        }
        for &f in frames.iter().step_by(2) {
            a.free(f, 0).unwrap();
        }
        let idx = a.fragmentation_index(9);
        assert!(idx > 0.9, "checkerboard should be highly fragmented: {idx}");
        a.check_invariants().unwrap();
    }

    #[test]
    fn free_runs_merge_non_buddy_neighbors() {
        let mut a = BuddyAllocator::new(1024);
        // Allocate frames 0 and 3; frees leave runs [1,2] and [4..1024)
        // where 1,2 are adjacent but not buddies (1 is odd).
        a.alloc_at(0, 0).unwrap();
        a.alloc_at(3, 0).unwrap();
        let runs = a.free_runs();
        assert_eq!(runs, vec![(1, 2), (4, 1020)]);
        assert_eq!(a.largest_free_run(), 1020);
    }

    /// Reference semantics `free_runs_from` must reproduce: full
    /// enumeration filtered on run start.
    fn runs_from_reference(a: &BuddyAllocator, frame: u64) -> Vec<(u64, u64)> {
        a.free_runs().into_iter().filter(|r| r.0 >= frame).collect()
    }

    #[test]
    fn free_runs_iter_matches_eager_enumeration() {
        let mut a = BuddyAllocator::new(1024);
        for f in [0, 3, 100, 513, 700] {
            a.alloc_at(f, 0).unwrap();
        }
        assert_eq!(a.free_runs_iter().collect::<Vec<_>>(), a.free_runs());
    }

    #[test]
    fn free_runs_from_skips_straddling_run() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(1000, 0).unwrap();
        // Runs: (0,100), (101,899), (1001,1047).
        for cursor in [0, 1, 100, 101, 102, 500, 999, 1000, 1001, 1002, 2047, 2048] {
            assert_eq!(
                a.free_runs_from(cursor).collect::<Vec<_>>(),
                runs_from_reference(&a, cursor),
                "cursor {cursor}"
            );
        }
    }

    #[test]
    fn free_runs_from_with_abutting_block_boundary() {
        // Craft a run whose interior contains a block boundary exactly at
        // the cursor: blocks (1,len 1) and (2,len 2) chain into run (1,3);
        // a cursor of 2 sits on the second block's start and must still
        // skip the whole run.
        let mut a = BuddyAllocator::new(64);
        a.alloc_at(0, 0).unwrap();
        a.alloc_at(4, 0).unwrap();
        assert_eq!(a.free_runs(), vec![(1, 3), (5, 59)]);
        for cursor in 0..=8 {
            assert_eq!(
                a.free_runs_from(cursor).collect::<Vec<_>>(),
                runs_from_reference(&a, cursor),
                "cursor {cursor}"
            );
        }
    }

    #[test]
    fn free_runs_from_on_empty_allocator() {
        let mut a = BuddyAllocator::new(8);
        for _ in 0..8 {
            a.alloc(0).unwrap();
        }
        assert_eq!(a.free_runs_from(0).next(), None);
        assert_eq!(a.free_runs_iter().next(), None);
    }

    #[test]
    fn index_tracks_rescan_through_alloc_free() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(512, 9).unwrap();
        let f = a.alloc(3).unwrap();
        assert_eq!(a.free_runs(), a.free_runs_rescan());
        a.free(f, 3).unwrap();
        a.free(100, 0).unwrap();
        assert_eq!(a.free_runs(), a.free_runs_rescan());
        a.check_invariants().unwrap();
        a.free(512, 9).unwrap();
        assert_eq!(a.free_runs(), vec![(0, 2048)]);
        a.check_invariants().unwrap();
    }

    #[test]
    fn first_run_fitting_is_next_fit() {
        let mut a = BuddyAllocator::new(2048);
        a.alloc_at(100, 0).unwrap();
        a.alloc_at(1000, 0).unwrap();
        // Runs: (0,100), (101,899), (1001,1047).
        assert_eq!(a.first_run_fitting(0, 50), Some((0, 100)));
        assert_eq!(a.first_run_fitting(0, 200), Some((101, 899)));
        assert_eq!(a.first_run_fitting(102, 200), Some((1001, 1047)));
        assert_eq!(a.first_run_fitting(0, 2000), None);
        assert_eq!(a.first_run_fitting(2000, 10), None);
    }

    #[test]
    fn congruent_queries_match_filtered_scans() {
        let mut a = BuddyAllocator::new(4096);
        for f in [3, 700, 1500, 2600] {
            a.alloc_at(f, 0).unwrap();
        }
        let fits = |(s, l): (u64, u64), in0: u64, len: u64| {
            let want = in0 % 512;
            let base = s - s % 512;
            let cand = if base + want >= s {
                base + want
            } else {
                base + want + 512
            };
            cand + len <= s + l
        };
        for in0 in [0u64, 512, 515, 1027] {
            for len in [1u64, 64, 512, 700, 1024] {
                for cursor in [0u64, 1, 701, 1501, 4095] {
                    let naive_at = a
                        .free_runs_rescan()
                        .into_iter()
                        .find(|&r| r.0 >= cursor && fits(r, in0, len));
                    assert_eq!(
                        a.first_congruent_run(cursor, in0, len),
                        naive_at,
                        "at cursor={cursor} in0={in0} len={len}"
                    );
                    let naive_below = a
                        .free_runs_rescan()
                        .into_iter()
                        .find(|&r| r.0 < cursor && fits(r, in0, len));
                    assert_eq!(
                        a.first_congruent_run_below(cursor, in0, len),
                        naive_below,
                        "below cursor={cursor} in0={in0} len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn fragmented_congruent_query_rejects_without_probing() {
        // One pinned frame per huge region: no order-9 block survives, so
        // a region-aligned whole-region query must reject via the guards
        // without examining a single run.
        let mut a = BuddyAllocator::new(4096);
        let mut held = Vec::new();
        while let Ok(f) = a.alloc(0) {
            held.push(f);
        }
        for &f in &held {
            if f % 512 != 0 {
                a.free(f, 0).unwrap();
            }
        }
        assert!(!a.has_suitable_block(HUGE_PAGE_ORDER));
        a.take_work_counters();
        assert_eq!(a.first_congruent_run(0, 0, 512), None);
        assert_eq!(a.first_congruent_run_below(4096, 1024, 600), None);
        assert_eq!(a.run_probes(), 0, "guards must reject before any probe");
    }

    #[test]
    fn nth_run_matches_filtered_vec_indexing() {
        let mut a = BuddyAllocator::new(4096);
        for f in [300, 900, 1200, 3000] {
            a.alloc_at(f, 0).unwrap();
        }
        let candidates: Vec<(u64, u64)> = a.free_runs_iter().filter(|&(_, l)| l >= 256).collect();
        assert_eq!(a.count_runs_at_least(256), candidates.len() as u64);
        for (i, &c) in candidates.iter().enumerate() {
            assert_eq!(a.nth_run_at_least(256, i as u64), Some(c));
        }
        assert_eq!(a.nth_run_at_least(256, candidates.len() as u64), None);
    }

    #[test]
    fn work_counters_drain_and_accumulate() {
        let mut a = BuddyAllocator::new(1024);
        a.take_work_counters();
        let f = a.alloc(0).unwrap();
        a.free(f, 0).unwrap();
        assert!(a.index_updates() > 0, "alloc+free must touch the index");
        assert_eq!(a.run_probes(), 0);
        a.first_run_fitting(0, 1);
        assert_eq!(a.run_probes(), 1);
        let (probes, updates) = a.take_work_counters();
        assert_eq!(probes, 1);
        assert!(updates > 0);
        assert_eq!(a.take_work_counters(), (0, 0));
    }
}
