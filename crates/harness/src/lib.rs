//! Experiment harness for the Gemini reproduction.
//!
//! Each module under [`experiments`] regenerates one or more artefacts of
//! the paper's evaluation (see DESIGN.md for the full index):
//!
//! | module | artefacts |
//! |--------|-----------|
//! | [`experiments::fig02`] | Figure 2 (microbenchmark, 4 page configs) |
//! | [`experiments::motivation`] | Figure 3 + Table 1 |
//! | [`experiments::clean_slate`] | Figures 8–11 + Table 3 |
//! | [`experiments::reused_vm`] | Figures 12–15 + Table 4 |
//! | [`experiments::breakdown`] | Figure 16 |
//! | [`experiments::collocated`] | Figures 17–18 |
//! | [`experiments::ablations`] | Algorithm 1 and design-choice ablations |
//!
//! Experiments are pure functions of a [`Scale`] (and are deterministic),
//! so the same code drives the quick examples, the integration tests and
//! the full `cargo bench` reproduction.

pub mod bench;
pub mod exec;
pub mod experiments;
pub mod perfdiff;
pub mod report;
pub mod runner;
pub mod scale;
pub mod trace;

pub use exec::{effective_jobs, run_cells, run_cells_profiled, run_cells_traced};
pub use perfdiff::{compare_reports, DiffReport};
pub use report::Table;
pub use runner::{
    record_workload_on, replay_trace_on, run_workload_on, run_workload_profiled,
    run_workload_traced,
};
pub use scale::Scale;
