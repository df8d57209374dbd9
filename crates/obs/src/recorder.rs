//! The shared [`Recorder`] handle threaded through every layer of the
//! simulator, plus its [`TraceConfig`].
//!
//! A `Recorder` is a cheaply clonable handle (three `Arc`s) over one
//! shared recording state. Every subsystem — the machine, the guest
//! and host memory managers, the Gemini mechanisms, the MMU model —
//! holds a clone and emits into the same ring, registry and sample
//! vector. The hot-path cost when tracing is off is a single relaxed
//! atomic load and branch per call site: event payloads are built
//! inside closures that never run for disabled categories.
//!
//! The handle is `Send`: a machine (and its recorder) can be built and
//! driven on a worker thread of the parallel experiment executor, and
//! per-cell recorders can be [merged](Recorder::merge_from) into one
//! after the barrier. One machine is still driven by one thread at a
//! time; the mutex only serializes the merge and cross-thread
//! snapshots, it is not a concurrency model for the simulator itself.

use crate::event::{cat, Event, EventKind, Layer, SamplePoint};
use crate::metrics::Registry;
use gemini_sim_core::Cycles;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Configuration for a [`Recorder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Union of [`cat`] bits to record; `cat::NONE` disables tracing.
    pub mask: u32,
    /// Maximum events held; older events are dropped (and counted)
    /// once the ring is full.
    pub ring_capacity: usize,
    /// Cycle interval between time-series samples; `None` disables
    /// the sampler.
    pub sample_interval: Option<Cycles>,
}

impl TraceConfig {
    /// Tracing fully disabled (the default for experiments).
    pub fn off() -> Self {
        Self {
            mask: cat::NONE,
            ring_capacity: 0,
            sample_interval: None,
        }
    }

    /// Every category on, a 1 Mi-event ring, and sampling every
    /// 2 ms of simulated time.
    pub fn all() -> Self {
        Self {
            mask: cat::ALL,
            ring_capacity: 1 << 20,
            sample_interval: Some(Cycles::from_millis(2.0)),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self::off()
    }
}

#[derive(Debug)]
struct Inner {
    now: u64,
    ring: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
    interval: u64,
    samples: Vec<SamplePoint>,
    registry: Registry,
}

/// Shared handle into one recording session.
///
/// Clones are cheap and all observe the same state. The default
/// recorder ([`Recorder::off`]) records nothing.
#[derive(Debug, Clone)]
pub struct Recorder {
    mask: Arc<AtomicU32>,
    next_sample: Arc<AtomicU64>,
    inner: Arc<Mutex<Inner>>,
}

// The executor sends per-cell recorders back across the worker-pool
// barrier; keep that property from regressing silently.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Recorder>();
};

impl Default for Recorder {
    fn default() -> Self {
        Self::off()
    }
}

impl Recorder {
    /// Builds a recorder from `cfg`.
    pub fn new(cfg: &TraceConfig) -> Self {
        let interval = cfg.sample_interval.map_or(0, |c| c.0.max(1));
        Self {
            mask: Arc::new(AtomicU32::new(cfg.mask)),
            next_sample: Arc::new(AtomicU64::new(if interval == 0 { u64::MAX } else { 0 })),
            inner: Arc::new(Mutex::new(Inner {
                now: 0,
                ring: VecDeque::new(),
                capacity: cfg.ring_capacity,
                dropped: 0,
                interval,
                samples: Vec::new(),
                registry: Registry::default(),
            })),
        }
    }

    /// Locks the shared state; recorder methods never hold this across
    /// a user callback, so the lock cannot be re-entered.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("recorder lock poisoned")
    }

    /// A recorder that records nothing (all categories off, sampler
    /// off). This is what subsystems hold before a real recorder is
    /// attached.
    pub fn off() -> Self {
        Self::new(&TraceConfig::off())
    }

    /// True when at least one event category is enabled.
    #[inline]
    pub fn is_on(&self) -> bool {
        self.mask.load(Ordering::Relaxed) != cat::NONE
    }

    /// True when events of category `c` are being recorded.
    #[inline]
    pub fn wants(&self, c: u32) -> bool {
        self.mask.load(Ordering::Relaxed) & c != 0
    }

    /// Advances the recorder's notion of the current simulated cycle.
    ///
    /// Fault paths deep in the stack have no clock of their own; the
    /// machine stamps the recorder before dispatching each workload
    /// event so their emissions carry the right cycle.
    #[inline]
    pub fn set_cycle(&self, now: Cycles) {
        if self.is_on() {
            self.lock().now = now.0;
        }
    }

    /// Records one event of category `c` for VM `vm` at layer
    /// `layer`. The payload closure only runs when the category is
    /// enabled.
    #[inline]
    pub fn emit(&self, c: u32, vm: u32, layer: Layer, kind: impl FnOnce() -> EventKind) {
        if !self.wants(c) {
            return;
        }
        let mut inner = self.lock();
        let event = Event {
            cycle: inner.now,
            vm,
            layer,
            kind: kind(),
        };
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        if inner.capacity > 0 {
            inner.ring.push_back(event);
        } else {
            inner.dropped += 1;
        }
    }

    /// Adds `delta` to the registry counter `name` (no-op when
    /// tracing is off).
    #[inline]
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        if self.is_on() {
            self.lock().registry.counter_add(name, delta);
        }
    }

    /// Sets the registry gauge `name` (no-op when tracing is off).
    #[inline]
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        if self.is_on() {
            self.lock().registry.gauge_set(name, value);
        }
    }

    /// Records `value` into the registry histogram `name` (no-op when
    /// tracing is off).
    #[inline]
    pub fn observe(&self, name: &'static str, value: u64) {
        if self.is_on() {
            self.lock().registry.observe(name, value);
        }
    }

    /// True when the sampler is enabled and a sample is due at `now`.
    #[inline]
    pub fn sample_due(&self, now: Cycles) -> bool {
        now.0 >= self.next_sample.load(Ordering::Relaxed)
    }

    /// The cycle at which the next time-series sample falls due
    /// (`Cycles(u64::MAX)` when the sampler is disabled, i.e. never).
    /// [`Recorder::sample_due`] is exactly `now >= next_sample_at()`;
    /// the machine's fast-forward gate folds this into its wakeup
    /// deadline so quiescent spans skip sampling checks in bulk.
    #[inline]
    pub fn next_sample_at(&self) -> Cycles {
        Cycles(self.next_sample.load(Ordering::Relaxed))
    }

    /// Appends `point` to the time series and schedules the next
    /// sample one interval after `point.cycle`.
    pub fn record_sample(&self, point: SamplePoint) {
        let mut inner = self.lock();
        self.next_sample.store(
            point.cycle.saturating_add(inner.interval),
            Ordering::Relaxed,
        );
        inner.samples.push(point);
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Number of events dropped because the ring was full (or had
    /// zero capacity).
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Snapshot of the sampled time series, oldest first.
    pub fn samples(&self) -> Vec<SamplePoint> {
        self.lock().samples.clone()
    }

    /// Snapshot of the metrics registry.
    pub fn registry(&self) -> Registry {
        self.lock().registry.clone()
    }

    /// Folds another recorder's recorded state into this one, in
    /// order: `other`'s events are appended after this recorder's
    /// (respecting this ring's capacity and drop accounting), samples
    /// are appended, and the registries merge (counters and histogram
    /// buckets add, gauges take `other`'s value).
    ///
    /// The parallel executor calls this once per cell, in submission
    /// order, after the barrier — so the merged recorder is identical
    /// however the cells were scheduled.
    pub fn merge_from(&self, other: &Recorder) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let (events, samples, dropped, registry) = {
            let o = other.lock();
            (
                o.ring.iter().cloned().collect::<Vec<_>>(),
                o.samples.clone(),
                o.dropped,
                o.registry.clone(),
            )
        };
        let mut inner = self.lock();
        inner.dropped += dropped;
        for event in events {
            if inner.ring.len() >= inner.capacity {
                inner.ring.pop_front();
                inner.dropped += 1;
            }
            if inner.capacity > 0 {
                inner.ring.push_back(event);
            } else {
                inner.dropped += 1;
            }
        }
        inner.samples.extend(samples);
        inner.registry.merge_from(&registry);
    }

    /// Event counts per `(kind label, layer)` in deterministic order.
    pub fn event_summary(&self) -> Vec<(&'static str, Layer, u64)> {
        let mut counts: BTreeMap<(&'static str, Layer), u64> = BTreeMap::new();
        for e in self.lock().ring.iter() {
            *counts.entry((e.kind.label(), e.layer)).or_insert(0) += 1;
        }
        counts
            .into_iter()
            .map(|((label, layer), n)| (label, layer, n))
            .collect()
    }

    /// Serializes events, samples and registry as JSON Lines rows in
    /// a stable order: events (oldest first), then samples, then the
    /// registry.
    pub fn to_json_lines(&self) -> Vec<String> {
        let inner = self.lock();
        let mut out = Vec::with_capacity(inner.ring.len() + inner.samples.len());
        for e in inner.ring.iter() {
            out.push(e.to_json());
        }
        for s in inner.samples.iter() {
            out.push(s.to_json());
        }
        out.extend(inner.registry.to_json_lines());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(frame: u64) -> EventKind {
        EventKind::Fault {
            frame,
            huge: false,
            honored: true,
        }
    }

    #[test]
    fn off_recorder_records_nothing() {
        let r = Recorder::off();
        r.set_cycle(Cycles(10));
        r.emit(cat::FAULT, 1, Layer::Guest, || unreachable!());
        r.counter_add("x", 1);
        assert!(!r.is_on());
        assert!(!r.sample_due(Cycles(u64::MAX - 1)));
        assert!(r.events().is_empty());
        assert!(r.registry().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn category_filter_is_respected() {
        let r = Recorder::new(&TraceConfig {
            mask: cat::BOOKING,
            ring_capacity: 8,
            sample_interval: None,
        });
        r.emit(cat::FAULT, 1, Layer::Guest, || unreachable!());
        r.emit(cat::BOOKING, 1, Layer::Host, || EventKind::Booked {
            region: 3,
        });
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].kind, EventKind::Booked { region: 3 });
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let r = Recorder::new(&TraceConfig {
            mask: cat::ALL,
            ring_capacity: 2,
            sample_interval: None,
        });
        for i in 0..5 {
            r.set_cycle(Cycles(i));
            r.emit(cat::FAULT, 0, Layer::Guest, || fault(i));
        }
        let events = r.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 3, "oldest surviving event");
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::new(&TraceConfig::all());
        let clone = r.clone();
        clone.set_cycle(Cycles(42));
        clone.emit(cat::SHOOTDOWN, 2, Layer::Sys, || EventKind::Shootdown {
            rounds: 1,
        });
        clone.counter_add("mm.test", 7);
        assert_eq!(r.events().len(), 1);
        assert_eq!(r.events()[0].cycle, 42);
        assert_eq!(r.registry().counter("mm.test"), 7);
    }

    #[test]
    fn sampler_paces_by_interval() {
        let r = Recorder::new(&TraceConfig {
            mask: cat::NONE,
            ring_capacity: 0,
            sample_interval: Some(Cycles(100)),
        });
        assert!(r.sample_due(Cycles(0)), "first sample immediately");
        r.record_sample(SamplePoint {
            cycle: 0,
            host_fmfi: 0.0,
            guest_fmfi: 0.0,
            aligned_rate: 0.0,
            tlb_miss_rate: 0.0,
            free_order9: 0,
        });
        assert!(!r.sample_due(Cycles(99)));
        assert!(r.sample_due(Cycles(100)));
        assert_eq!(r.samples().len(), 1);
    }

    #[test]
    fn merge_preserves_order_capacity_and_registry() {
        let cfg = TraceConfig {
            mask: cat::ALL,
            ring_capacity: 3,
            sample_interval: None,
        };
        let a = Recorder::new(&cfg);
        let b = Recorder::new(&cfg);
        a.set_cycle(Cycles(1));
        a.emit(cat::FAULT, 0, Layer::Guest, || fault(1));
        a.counter_add("mm.test", 2);
        for i in 2..5u64 {
            b.set_cycle(Cycles(i));
            b.emit(cat::FAULT, 0, Layer::Guest, || fault(i));
        }
        b.counter_add("mm.test", 5);
        a.merge_from(&b);
        let events = a.events();
        // 1 + 3 events into a 3-slot ring: the oldest is dropped.
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].cycle, 2);
        assert_eq!(events[2].cycle, 4);
        assert_eq!(a.dropped(), 1);
        assert_eq!(a.registry().counter("mm.test"), 7);
        // Merging a recorder into itself is a no-op, not a deadlock.
        a.merge_from(&a.clone());
        assert_eq!(a.events().len(), 3);
    }

    #[test]
    fn summary_groups_by_kind_and_layer() {
        let r = Recorder::new(&TraceConfig::all());
        for _ in 0..3 {
            r.emit(cat::FAULT, 1, Layer::Guest, || fault(0));
        }
        r.emit(cat::FAULT, 1, Layer::Host, || fault(0));
        assert_eq!(
            r.event_summary(),
            vec![("fault", Layer::Guest, 3), ("fault", Layer::Host, 1)]
        );
    }
}
