//! Parallel execution must be invisible in the output: the same grid
//! run at `jobs = 1` and `jobs = 4` (and across repeated `jobs = 4`
//! runs) must produce byte-identical rendered tables and JSON Lines
//! rows. Every cell derives its seed up front, so nothing about a
//! result can depend on which worker ran it or in which order cells
//! finished.

use gemini_harness::experiments::{clean_slate, motivation, reused_vm};
use gemini_harness::{run_cells_traced, trace, Scale};
use gemini_obs::{Recorder, TraceConfig};
use gemini_vm_sim::{Machine, MachineConfig, SystemKind};

fn scale_with_jobs(jobs: usize) -> Scale {
    Scale {
        ops: 800,
        jobs,
        ..Scale::quick()
    }
}

/// Jobs count for the parallel side of each comparison. Defaults to 4;
/// `GEMINI_JOBS` overrides it so CI can exercise other counts (ci.sh
/// runs this suite again at 2).
fn parallel_jobs() -> usize {
    std::env::var("GEMINI_JOBS")
        .ok()
        .and_then(|j| j.parse().ok())
        .filter(|&j| j > 1)
        .unwrap_or(4)
}

/// Renders the clean-slate grid's full artefact set plus its JSON rows
/// into one byte string.
fn clean_slate_artefacts(jobs: usize) -> String {
    let scale = scale_with_jobs(jobs);
    let res = clean_slate::run(&scale, Some(&["Redis", "Xapian"])).unwrap();
    let mut out = String::new();
    out.push_str(&res.render_fig08(true));
    out.push_str(&res.render_fig09(false));
    out.push_str(&res.render_fig11());
    out.push_str(&res.render_tab03());
    for per_wl in &res.grid {
        for per_sys in per_wl {
            for r in per_sys {
                out.push_str(&trace::result_json(r));
                out.push('\n');
            }
        }
    }
    out
}

/// Same, for the reused-VM grid.
fn reused_vm_artefacts(jobs: usize) -> String {
    let scale = scale_with_jobs(jobs);
    let res = reused_vm::run(&scale, Some(&["Redis"])).unwrap();
    let mut out = String::new();
    out.push_str(&res.render_fig12());
    out.push_str(&res.render_fig15());
    out.push_str(&res.render_tab04());
    for per_sys in &res.runs {
        for r in per_sys {
            out.push_str(&trace::result_json(r));
            out.push('\n');
        }
    }
    out
}

/// Same, for the fig. 3 motivation grid — the grid the hot-path
/// overhaul optimizes hardest (flat buddy/page-table/TLB storage), so
/// it gets its own post-optimization byte-identity regression.
fn motivation_artefacts(jobs: usize) -> String {
    let scale = scale_with_jobs(jobs);
    let res = motivation::run(&scale).unwrap();
    let mut out = String::new();
    out.push_str(&res.render_fig03());
    out.push_str(&res.render_tab01());
    for per_sys in &res.runs {
        for r in per_sys {
            out.push_str(&trace::result_json(r));
            out.push('\n');
        }
    }
    out
}

#[test]
fn motivation_grid_is_byte_identical_across_jobs() {
    let jobs = parallel_jobs();
    let sequential = motivation_artefacts(1);
    let parallel = motivation_artefacts(jobs);
    assert_eq!(sequential, parallel, "jobs=1 vs jobs={jobs} diverged");
    let parallel_again = motivation_artefacts(jobs);
    assert_eq!(parallel, parallel_again, "repeated jobs={jobs} diverged");
}

#[test]
fn clean_slate_grid_is_byte_identical_across_jobs() {
    let jobs = parallel_jobs();
    let sequential = clean_slate_artefacts(1);
    let parallel = clean_slate_artefacts(jobs);
    assert_eq!(sequential, parallel, "jobs=1 vs jobs={jobs} diverged");
    // Two parallel runs must also agree with each other: thread
    // scheduling varies between runs even at the same jobs count.
    let parallel_again = clean_slate_artefacts(jobs);
    assert_eq!(parallel, parallel_again, "repeated jobs={jobs} diverged");
}

#[test]
fn reused_vm_grid_is_byte_identical_across_jobs() {
    let jobs = parallel_jobs();
    let sequential = reused_vm_artefacts(1);
    let parallel = reused_vm_artefacts(jobs);
    assert_eq!(sequential, parallel, "jobs=1 vs jobs={jobs} diverged");
    let parallel_again = reused_vm_artefacts(jobs);
    assert_eq!(parallel, parallel_again, "repeated jobs={jobs} diverged");
}

#[test]
fn merged_recorders_are_deterministic_across_jobs() {
    // Cells carry their own recorders; merging them in submission
    // order after the barrier must yield the same registry JSON no
    // matter how many workers ran the cells.
    let merged_registry = |jobs: usize| {
        let master = Recorder::new(&TraceConfig::all());
        let cells: Vec<_> = (0..6u64)
            .map(|i| {
                move || {
                    let rec = Recorder::new(&TraceConfig::all());
                    rec.counter_add("cell.index_sum", i);
                    rec.counter_add("cell.runs", 1);
                    rec
                }
            })
            .collect();
        for rec in run_cells_traced(jobs, &master, cells) {
            master.merge_from(&rec);
        }
        master.registry().to_json_lines().join("\n")
    };
    let sequential = merged_registry(1);
    let parallel = merged_registry(4);
    assert_eq!(sequential, parallel);
}

#[test]
fn unknown_vm_is_an_error_not_a_panic() {
    let mut m = Machine::new(SystemKind::Gemini, MachineConfig::default());
    let vm = m.add_vm().unwrap();
    let bogus = gemini_sim_core::VmId(vm.0 + 17);
    let err = m.ept(bogus).unwrap_err();
    assert!(
        matches!(err, gemini_sim_core::SimError::UnknownVm(v) if v == bogus),
        "{err}"
    );
    assert!(matches!(
        m.clear_workload(bogus),
        Err(gemini_sim_core::SimError::UnknownVm(_))
    ));
    // The drivers validate every VM they are handed before touching
    // any state.
    let redis = gemini_workloads::spec_by_name("Redis")
        .expect("Redis workload registered")
        .scaled(1.0 / 32.0);
    let gen = |seed| gemini_workloads::WorkloadGen::new(redis.clone(), 50, seed);
    assert!(matches!(
        m.run(bogus, gen(1)),
        Err(gemini_sim_core::SimError::UnknownVm(v)) if v == bogus
    ));
    assert!(matches!(
        m.run_collocated(vec![(vm, gen(2)), (bogus, gen(3))]),
        Err(gemini_sim_core::SimError::UnknownVm(v)) if v == bogus
    ));
    assert_eq!(
        m.vm_clock(vm).unwrap(),
        gemini_sim_core::Cycles::ZERO,
        "no step ran"
    );
    // The per-VM accessors report an unknown VM instead of panicking.
    assert!(matches!(
        m.vm_clock(bogus),
        Err(gemini_sim_core::SimError::UnknownVm(v)) if v == bogus
    ));
    assert!(matches!(
        m.counters(bogus),
        Err(gemini_sim_core::SimError::UnknownVm(v)) if v == bogus
    ));
    assert_eq!(m.counters(vm).unwrap().accesses, 0, "no access ran");
    // The registered VM still resolves and runs.
    assert!(m.ept(vm).is_ok());
    assert_eq!(m.run(vm, gen(4)).unwrap().ops, 50);
}
