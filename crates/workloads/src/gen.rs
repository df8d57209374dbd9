//! The workload event generator.
//!
//! A [`WorkloadGen`] is a deterministic iterator of [`WorkloadEvent`]s.
//! The whole-system simulator executes the events against a VM: `Alloc`
//! becomes an `mmap`, `Free` an `munmap`, `Touch` a memory access (with
//! demand faults on first touch), and `EndRequest` closes a latency-
//! tracked request and charges the op's pure-CPU work.
//!
//! Hot pages under a Zipf skew are *scattered* across the working set with
//! a multiplicative hash — real key-value stores do not keep their hottest
//! keys adjacent — which is what makes base-page TLB coverage collapse.

use crate::spec::{AccessSkew, AllocPattern, WorkloadSpec};
use gemini_sim_core::{DetRng, Zipf, BASE_PAGE_SIZE};

/// One event of a workload's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// Allocate a new chunk (the simulator mmaps it and remembers the
    /// mapping `chunk → VMA`).
    Alloc {
        /// Chunk handle, unique per workload run.
        chunk: usize,
        /// Chunk length in bytes.
        bytes: u64,
    },
    /// Free a previously allocated chunk.
    Free {
        /// Chunk handle from a previous [`WorkloadEvent::Alloc`].
        chunk: usize,
    },
    /// Touch one page of a live chunk.
    Touch {
        /// Chunk handle.
        chunk: usize,
        /// Page index within the chunk.
        page: u64,
    },
    /// End of one operation/request; charge this much pure CPU work.
    EndRequest {
        /// CPU cycles of non-memory work in the op.
        cpu: u64,
    },
}

/// A deterministic, exhaustible stream of workload events.
///
/// The simulator consumes event streams through this trait so a stream
/// can be produced lazily ([`WorkloadGen`]) or materialized up front
/// ([`PregenStream`]). Generation is a pure function of
/// `(spec, ops, seed)` — it never observes machine state — so the two
/// forms drive a machine through byte-identical trajectories; the
/// pre-generated form lets a caller time generation apart from
/// simulation.
pub trait EventStream {
    /// The workload model the stream realizes.
    fn spec(&self) -> &WorkloadSpec;
    /// Produces the next event, or `None` when the run is complete.
    fn next_event(&mut self) -> Option<WorkloadEvent>;
}

/// A fully materialized workload event stream (see
/// [`WorkloadGen::pregenerate`]).
#[derive(Debug)]
pub struct PregenStream {
    spec: WorkloadSpec,
    events: std::vec::IntoIter<WorkloadEvent>,
}

impl PregenStream {
    /// Events not yet replayed.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// The not-yet-replayed tail of the stream, for lookahead without
    /// consuming events.
    pub fn peek_events(&self) -> &[WorkloadEvent] {
        self.events.as_slice()
    }

    /// Length of the run of consecutive [`WorkloadEvent::Touch`] events
    /// at the head of the stream that touch `chunk` and whose page
    /// satisfies `same_key`. See [`touch_run_len`].
    pub fn peek_run(&self, chunk: usize, same_key: impl FnMut(u64) -> bool) -> usize {
        touch_run_len(self.peek_events(), chunk, same_key)
    }
}

/// Length of the longest prefix of `events` consisting of `Touch` events
/// on `chunk` whose page index satisfies `same_key`.
///
/// This is the lookahead primitive behind closed-form hit-run batching
/// (DESIGN.md §16): the caller has just translated one touch and asks
/// how many of the immediately following events provably resolve to the
/// same TLB entry — same chunk, and `same_key(page)` capturing the
/// entry's granularity (exact page for a 4 KiB entry, same 2 MiB region
/// for a huge entry). Any non-`Touch` event, any other chunk, or the
/// first key mismatch ends the run; the caller falls back to the
/// faithful per-event path there.
pub fn touch_run_len(
    events: &[WorkloadEvent],
    chunk: usize,
    mut same_key: impl FnMut(u64) -> bool,
) -> usize {
    let mut n = 0;
    for ev in events {
        match *ev {
            WorkloadEvent::Touch { chunk: c, page } if c == chunk && same_key(page) => n += 1,
            _ => break,
        }
    }
    n
}

impl EventStream for PregenStream {
    fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        self.events.next()
    }
}

impl EventStream for WorkloadGen {
    fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        WorkloadGen::next_event(self)
    }
}

/// A mutable borrow streams the underlying stream. This lets a caller
/// keep ownership across [`gemini_vm_sim::Machine::run`]-style
/// by-value consumers — the trace replay path drives a machine with
/// `&mut TraceStream` and then asks the stream whether the trace ended
/// cleanly (`check_complete`), which requires the stream back.
///
/// [`gemini_vm_sim::Machine::run`]: ../../gemini_vm_sim/struct.Machine.html#method.run
impl<S: EventStream + ?Sized> EventStream for &mut S {
    fn spec(&self) -> &WorkloadSpec {
        (**self).spec()
    }

    fn next_event(&mut self) -> Option<WorkloadEvent> {
        (**self).next_event()
    }
}

/// Deterministic generator of one workload's events.
#[derive(Debug)]
pub struct WorkloadGen {
    /// The model being generated.
    pub spec: WorkloadSpec,
    rng: DetRng,
    zipf: Option<Zipf>,
    /// Live chunks as (handle, pages).
    live: Vec<(usize, u64)>,
    total_pages: u64,
    next_chunk: usize,
    ops_done: u64,
    target_ops: u64,
    seq_pos: u64,
    /// Queued events not yet drained.
    queue: std::collections::VecDeque<WorkloadEvent>,
    touches_left_in_op: u32,
}

impl WorkloadGen {
    /// Creates a generator that will run `target_ops` operations.
    pub fn new(spec: WorkloadSpec, target_ops: u64, seed: u64) -> Self {
        let zipf = match spec.skew {
            AccessSkew::Zipf(e) => Some(Zipf::new((spec.working_set / BASE_PAGE_SIZE).max(1), e)),
            _ => None,
        };
        let mut gen = Self {
            spec,
            rng: DetRng::new(seed),
            zipf,
            live: Vec::new(),
            total_pages: 0,
            next_chunk: 0,
            ops_done: 0,
            target_ops,
            seq_pos: 0,
            queue: std::collections::VecDeque::new(),
            touches_left_in_op: 0,
        };
        // Initial allocation.
        match gen.spec.alloc {
            AllocPattern::Static => gen.push_alloc(gen.spec.working_set),
            AllocPattern::Gradual { chunk } => gen.push_alloc(chunk.min(gen.spec.working_set)),
        }
        gen
    }

    /// Operations completed so far.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// True when the run is complete.
    pub fn finished(&self) -> bool {
        self.ops_done >= self.target_ops && self.queue.is_empty()
    }

    /// Drains the generator into a materialized [`PregenStream`].
    ///
    /// Generation never reads machine state, so replaying the returned
    /// stream drives a machine through exactly the trajectory the live
    /// generator would have.
    pub fn pregenerate(mut self) -> PregenStream {
        // One op is `accesses_per_op` touches plus occasional alloc/free
        // traffic; reserve for the touches and let the rest amortize.
        let mut events =
            Vec::with_capacity((self.target_ops * u64::from(self.spec.accesses_per_op)) as usize);
        while let Some(ev) = WorkloadGen::next_event(&mut self) {
            events.push(ev);
        }
        PregenStream {
            spec: self.spec,
            events: events.into_iter(),
        }
    }

    fn push_alloc(&mut self, bytes: u64) {
        // Round up to a whole page (minimum one). A sub-page request
        // used to create a zero-page live chunk: untouchable itself,
        // but `locate`'s shrink-clamp takes `page % pages` on the last
        // live chunk, which divides by zero the moment such a chunk is
        // at the tail — real allocators page-align too, so rounding is
        // also the more faithful model.
        let bytes = bytes.div_ceil(BASE_PAGE_SIZE).max(1) * BASE_PAGE_SIZE;
        let chunk = self.next_chunk;
        self.next_chunk += 1;
        let pages = bytes / BASE_PAGE_SIZE;
        self.live.push((chunk, pages));
        self.total_pages += pages;
        self.queue.push_back(WorkloadEvent::Alloc { chunk, bytes });
    }

    fn push_free_oldest(&mut self) {
        if self.live.len() <= 1 {
            return;
        }
        let (chunk, pages) = self.live.remove(0);
        self.total_pages -= pages;
        self.queue.push_back(WorkloadEvent::Free { chunk });
    }

    /// Maps a global page index to (chunk handle, page-in-chunk).
    fn locate(&self, mut page: u64) -> (usize, u64) {
        for &(chunk, pages) in &self.live {
            if page < pages {
                return (chunk, page);
            }
            page -= pages;
        }
        // Shrunk since the index was drawn: clamp into the last chunk.
        let &(chunk, pages) = self.live.last().expect("at least one live chunk");
        (chunk, page % pages)
    }

    /// Draws the next page to touch according to the skew.
    fn draw_page(&mut self) -> u64 {
        let n = self.total_pages.max(1);
        match self.spec.skew {
            AccessSkew::Uniform => self.rng.below(n),
            AccessSkew::Sequential => {
                self.seq_pos = (self.seq_pos + 1) % n;
                self.seq_pos
            }
            AccessSkew::Zipf(_) => {
                let rank = self
                    .zipf
                    .as_ref()
                    .expect("zipf sampler built in new()")
                    .sample(&mut self.rng);
                // Scatter ranks over the working set deterministically so
                // hot pages are not adjacent.
                rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % n
            }
        }
    }

    fn begin_op(&mut self) {
        // Growth: gradual workloads add a chunk every so often until the
        // working set is reached.
        if let AllocPattern::Gradual { chunk } = self.spec.alloc {
            let target_pages = self.spec.working_set / BASE_PAGE_SIZE;
            if self.total_pages < target_pages {
                let interval =
                    (self.target_ops / ((self.spec.working_set / chunk).max(1) + 1)).max(1);
                if self.ops_done % interval == 0 && self.ops_done > 0 {
                    self.push_alloc(chunk.min((target_pages - self.total_pages) * BASE_PAGE_SIZE));
                }
            }
            // Churn: replace the oldest chunk periodically.
            if self.spec.churn_period > 0
                && self.ops_done > 0
                && self.ops_done % self.spec.churn_period == 0
            {
                self.push_free_oldest();
                self.push_alloc(chunk);
            }
        }
        self.touches_left_in_op = self.spec.accesses_per_op;
    }

    /// Produces the next event, or `None` when finished.
    pub fn next_event(&mut self) -> Option<WorkloadEvent> {
        if let Some(ev) = self.queue.pop_front() {
            return Some(ev);
        }
        if self.ops_done >= self.target_ops {
            return None;
        }
        if self.touches_left_in_op == 0 {
            self.begin_op();
            // begin_op may queue alloc/free events; emit those first.
            if let Some(ev) = self.queue.pop_front() {
                return Some(ev);
            }
        }
        if self.touches_left_in_op > 1 {
            self.touches_left_in_op -= 1;
            let page = self.draw_page();
            let (chunk, in_chunk) = self.locate(page);
            Some(WorkloadEvent::Touch {
                chunk,
                page: in_chunk,
            })
        } else {
            self.touches_left_in_op = 0;
            self.ops_done += 1;
            Some(WorkloadEvent::EndRequest {
                cpu: self.spec.cpu_per_op,
            })
        }
    }
}

impl Iterator for WorkloadGen {
    type Item = WorkloadEvent;

    fn next(&mut self) -> Option<WorkloadEvent> {
        self.next_event()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::spec_by_name;

    fn small(name: &str) -> WorkloadSpec {
        spec_by_name(name).unwrap().scaled(1.0 / 32.0)
    }

    #[test]
    fn static_workload_allocates_once_then_touches() {
        let mut g = WorkloadGen::new(small("Canneal"), 10, 1);
        let first = g.next_event().unwrap();
        assert!(matches!(first, WorkloadEvent::Alloc { chunk: 0, .. }));
        let mut touches = 0;
        let mut requests = 0;
        for ev in g.by_ref() {
            match ev {
                WorkloadEvent::Touch { .. } => touches += 1,
                WorkloadEvent::EndRequest { cpu } => {
                    requests += 1;
                    assert_eq!(cpu, spec_by_name("Canneal").unwrap().cpu_per_op);
                }
                WorkloadEvent::Alloc { .. } | WorkloadEvent::Free { .. } => {
                    panic!("static workload must not alloc/free again")
                }
            }
        }
        assert_eq!(requests, 10);
        // accesses_per_op includes the request end (one op = N-1 touches +
        // boundary).
        assert_eq!(touches, 10 * (200 - 1));
        assert!(g.finished());
    }

    #[test]
    fn gradual_workload_grows_to_working_set() {
        let spec = small("Redis");
        let target = spec.working_set;
        let mut g = WorkloadGen::new(spec, 20_000, 2);
        let mut allocated = 0u64;
        let mut freed = 0u64;
        let mut sizes = std::collections::HashMap::new();
        for ev in g.by_ref() {
            match ev {
                WorkloadEvent::Alloc { chunk, bytes } => {
                    allocated += bytes;
                    sizes.insert(chunk, bytes);
                }
                WorkloadEvent::Free { chunk } => freed += sizes[&chunk],
                _ => {}
            }
        }
        assert!(allocated - freed >= target * 9 / 10, "grew to ~working set");
        assert!(freed > 0, "churn freed something");
    }

    #[test]
    fn touches_stay_within_live_chunks() {
        let spec = small("RocksDB");
        let mut g = WorkloadGen::new(spec, 5_000, 3);
        let mut live: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for ev in g.by_ref() {
            match ev {
                WorkloadEvent::Alloc { chunk, bytes } => {
                    live.insert(chunk, bytes / BASE_PAGE_SIZE);
                }
                WorkloadEvent::Free { chunk } => {
                    live.remove(&chunk);
                }
                WorkloadEvent::Touch { chunk, page } => {
                    let pages = live.get(&chunk).copied().unwrap_or(0);
                    assert!(page < pages, "touch outside live chunk");
                }
                WorkloadEvent::EndRequest { .. } => {}
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a: Vec<_> = WorkloadGen::new(small("Xapian"), 200, 42).collect();
        let b: Vec<_> = WorkloadGen::new(small("Xapian"), 200, 42).collect();
        assert_eq!(a, b);
        let c: Vec<_> = WorkloadGen::new(small("Xapian"), 200, 43).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_concentrates_touches() {
        let mut g = WorkloadGen::new(small("Redis"), 2_000, 7);
        let mut counts: std::collections::HashMap<(usize, u64), u64> =
            std::collections::HashMap::new();
        let mut total = 0u64;
        for ev in g.by_ref() {
            if let WorkloadEvent::Touch { chunk, page } = ev {
                *counts.entry((chunk, page)).or_insert(0) += 1;
                total += 1;
            }
        }
        let mut freq: Vec<u64> = counts.into_values().collect();
        freq.sort_unstable_by(|a, b| b.cmp(a));
        let top100: u64 = freq.iter().take(100).sum();
        assert!(
            top100 as f64 / total as f64 > 0.25,
            "hot pages should dominate: {}",
            top100 as f64 / total as f64
        );
    }

    #[test]
    fn sub_page_chunks_round_up_instead_of_panicking() {
        // A gradual workload whose chunk is smaller than one base page
        // used to create a zero-page live chunk and then panic with a
        // division by zero inside `locate`'s shrink-clamp path. Every
        // alloc must now be a whole number of pages (>= 1) and the run
        // must complete.
        use crate::spec::{AccessSkew, AllocPattern, WorkloadSpec};
        let spec = WorkloadSpec {
            name: "tiny-chunks",
            working_set: 3 * BASE_PAGE_SIZE,
            alloc: AllocPattern::Gradual {
                chunk: BASE_PAGE_SIZE / 8,
            },
            skew: AccessSkew::Uniform,
            churn_period: 7,
            accesses_per_op: 5,
            cpu_per_op: 100,
            latency_tracked: false,
            zero_heavy: false,
            tlb_sensitive: true,
        };
        let mut g = WorkloadGen::new(spec, 500, 11);
        let mut live: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        let mut allocs = 0;
        for ev in g.by_ref() {
            match ev {
                WorkloadEvent::Alloc { chunk, bytes } => {
                    allocs += 1;
                    assert!(bytes >= BASE_PAGE_SIZE, "sub-page alloc of {bytes} bytes");
                    assert_eq!(
                        bytes % BASE_PAGE_SIZE,
                        0,
                        "unaligned alloc of {bytes} bytes"
                    );
                    live.insert(chunk, bytes / BASE_PAGE_SIZE);
                }
                WorkloadEvent::Free { chunk } => {
                    live.remove(&chunk);
                }
                WorkloadEvent::Touch { chunk, page } => {
                    assert!(page < live[&chunk], "touch outside live chunk");
                }
                WorkloadEvent::EndRequest { .. } => {}
            }
        }
        assert!(g.finished());
        assert!(allocs > 1, "churn must have replaced chunks");
        // Zipf skew exercises the multiplicative-hash scatter over the
        // same tiny chunks; DetRng keeps both runs reproducible.
        let spec2 = WorkloadSpec {
            name: "tiny-chunks-zipf",
            skew: AccessSkew::Zipf(0.99),
            alloc: AllocPattern::Gradual { chunk: 512 },
            ..small("Redis")
        };
        let events: Vec<_> = WorkloadGen::new(spec2, 300, 13).collect();
        assert!(!events.is_empty());
    }

    #[test]
    fn sequential_sweeps_in_order() {
        let mut g = WorkloadGen::new(small("Streamcluster"), 3, 1);
        let mut last = None;
        for ev in g.by_ref() {
            if let WorkloadEvent::Touch { page, .. } = ev {
                if let Some(prev) = last {
                    assert!(page == prev + 1 || page == 0, "sequential");
                }
                last = Some(page);
            }
        }
    }

    #[test]
    fn touch_run_len_stops_at_key_chunk_and_event_boundaries() {
        use WorkloadEvent::{EndRequest, Touch};
        let evs = [
            Touch { chunk: 0, page: 8 },
            Touch { chunk: 0, page: 9 },
            Touch { chunk: 0, page: 8 },
            Touch { chunk: 1, page: 8 }, // Other chunk ends the run.
            Touch { chunk: 0, page: 8 },
        ];
        // Huge-style key: same 16-page region.
        assert_eq!(touch_run_len(&evs, 0, |p| p / 16 == 0), 3);
        // Base-style key: exact page.
        assert_eq!(touch_run_len(&evs, 0, |p| p == 8), 1);
        // Wrong chunk from the start.
        assert_eq!(touch_run_len(&evs, 2, |_| true), 0);
        // A non-touch event ends the run immediately.
        let evs2 = [EndRequest { cpu: 10 }, Touch { chunk: 0, page: 8 }];
        assert_eq!(touch_run_len(&evs2, 0, |_| true), 0);
        assert_eq!(touch_run_len(&[], 0, |_| true), 0);
    }

    #[test]
    fn peek_run_matches_the_consumed_stream() {
        // peek_run must agree with what next_event subsequently yields,
        // and must not consume anything.
        let spec = small("Streamcluster");
        let gen = WorkloadGen::new(spec, 40, 7);
        let stream = gen.pregenerate();
        let total = stream.remaining();
        let head = stream.peek_events().first().copied();
        if let Some(WorkloadEvent::Touch { chunk, page }) = head {
            let run = stream.peek_run(chunk, |p| p == page);
            let mut s = stream;
            assert_eq!(s.remaining(), total, "peek must not consume");
            for _ in 0..run {
                assert_eq!(s.next_event(), Some(WorkloadEvent::Touch { chunk, page }));
            }
            let next = s.next_event();
            assert_ne!(
                next,
                Some(WorkloadEvent::Touch { chunk, page }),
                "run must be maximal"
            );
        } else {
            // First event is an Alloc for every catalog spec; the run API
            // must report zero there.
            assert_eq!(stream.peek_run(0, |_| true), 0);
        }
    }
}
