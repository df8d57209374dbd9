//! Observability layer for the Gemini simulator.
//!
//! The paper's argument is temporal: Gemini wins because bookings,
//! EMA placements and bucket refills change *when* and *where* huge
//! pages become well-aligned. End-of-run snapshots can't show a
//! promotion storm or FMFI decaying mid-run; this crate can. It
//! provides three pieces, all behind one shared [`Recorder`] handle:
//!
//! 1. **Event tracing** — a deterministic, cycle-stamped structured
//!    event stream ([`Event`]) covering faults, promotions,
//!    demotions, bookings/timeouts, EMA hits/misses, bucket traffic,
//!    migrations and TLB shootdowns, buffered in a bounded ring with
//!    per-category filtering ([`cat`]) so tracing is near-zero-cost
//!    when off.
//! 2. **Metrics registry** — named counters, gauges and log₂
//!    histograms ([`Registry`]).
//! 3. **Time-series sampler** — clock-driven periodic samples
//!    ([`SamplePoint`]: FMFI, well-aligned rate, TLB-miss rate, free
//!    order-9 blocks) at a configurable cycle interval.
//!
//! Everything serializes to JSON Lines with hand-rolled formatting —
//! no external dependencies.
//!
//! ```
//! use gemini_obs::{cat, EventKind, Layer, Recorder, TraceConfig};
//! use gemini_sim_core::Cycles;
//!
//! let rec = Recorder::new(&TraceConfig::all());
//! rec.set_cycle(Cycles(1_200));
//! rec.emit(cat::BOOKING, 1, Layer::Host, || EventKind::Booked { region: 7 });
//! rec.counter_add("demo.bookings", 1);
//! assert_eq!(rec.events().len(), 1);
//! assert_eq!(rec.registry().counter("demo.bookings"), 1);
//! ```

pub mod event;
pub mod json;
pub mod jsonread;
pub mod metrics;
pub mod profile;
pub mod recorder;

pub use event::{cat, Event, EventKind, Layer, PromoMode, SamplePoint};
pub use json::{json_f64, json_str};
pub use metrics::{Histogram, Registry};
pub use profile::{chrome_trace_json, Phase, ProfileReport, Profiler, Span, TraceSpan};
pub use recorder::{Recorder, TraceConfig};
