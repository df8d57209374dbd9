//! Synthetic workload models for the Gemini simulator.
//!
//! The paper evaluates on real applications (Table 2). Those binaries
//! cannot run inside a memory simulator, so each is modeled by the
//! *memory behaviour* the paper attributes to it and that determines how
//! the compared systems rank:
//!
//! - **working-set size** (all well beyond the 6 MiB base-page TLB
//!   coverage, within the 3 GiB huge-page coverage),
//! - **allocation pattern** — big static arrays up front (SVM, CG.D,
//!   429.mcf, Canneal) vs. gradual growth with dynamic structures (Redis,
//!   RocksDB, Memcached, Masstree, Xapian),
//! - **allocation churn** — K/V stores and databases keep freeing and
//!   reallocating, which shatters alignment over time (§6.2's Redis and
//!   RocksDB discussion),
//! - **access skew** — Zipf for servers, uniform for scientific kernels,
//!   streaming for Streamcluster,
//! - **request structure** for the latency-reporting TailBench-style
//!   applications, and per-op CPU work that makes Shore and NPB SP.D
//!   *non-TLB-sensitive*,
//! - **zero-page weight** for Specjbb (HawkEye's dedup anomaly).
//!
//! A [`WorkloadGen`] turns a [`WorkloadSpec`] into a deterministic stream
//! of [`WorkloadEvent`]s (allocate / free / touch / request boundary) that
//! the whole-system simulator executes against a VM.

pub mod fleet;
pub mod gen;
pub mod microbench;
pub mod spec;
pub mod trace;

pub use fleet::{FleetPlan, FleetSpec, HostPlan, VmPlan};
pub use gen::{EventStream, PregenStream, WorkloadEvent, WorkloadGen};
pub use microbench::MicrobenchGen;
pub use spec::{catalog, non_tlb_sensitive, spec_by_name, AccessSkew, AllocPattern, WorkloadSpec};
pub use trace::{TeeStream, TraceHeader, TraceStream, TraceWriter, TRACE_FORMAT, TRACE_VERSION};
