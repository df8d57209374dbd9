//! The Gemini simulator's benchmark: host time per simulated access on
//! four workloads, with every layer reached through its public API and
//! timed from outside. See `README.md` in this package for the
//! workloads, the metrics and what each one should move.

pub mod check;
pub mod metrics;
pub mod micro;
pub mod probe;
pub mod provenance;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
