//! Shared run helpers used by every experiment.

use crate::scale::Scale;
use gemini_obs::{Profiler, Recorder, TraceConfig};
use gemini_sim_core::{derive_seed, Result, SimError};
use gemini_vm_sim::{Machine, RunResult, SystemKind};
use gemini_workloads::{
    TeeStream, TraceHeader, TraceStream, TraceWriter, WorkloadGen, WorkloadSpec,
};
use std::io::{BufRead, Write};

/// Runs `spec` under `system` on a fresh (clean-slate) machine.
pub fn run_workload_on(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    fragmented: bool,
    seed: u64,
) -> Result<RunResult> {
    let cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    machine.run(vm, gen)
}

/// Like [`run_workload_on`], but also returns the machine's batching
/// statistics ([`gemini_tlb::BatchStats`]): how many provably hit-only
/// runs the closed-form fast path advanced, how many accesses rode
/// them, and how often a run was declined or truncated. The `RunResult`
/// is byte-identical to [`run_workload_on`] — batching observability
/// deliberately lives outside the compared counters (DESIGN.md §16).
pub fn run_workload_batch_stats(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    fragmented: bool,
    seed: u64,
) -> Result<(RunResult, gemini_tlb::BatchStats)> {
    let cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    let result = machine.run(vm, gen)?;
    let stats = machine.batch_stats();
    Ok((result, stats))
}

/// Like [`run_workload_on`], but with event tracing, metrics and
/// time-series sampling enabled per `trace`; returns the machine's
/// recorder alongside the result.
pub fn run_workload_traced(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    fragmented: bool,
    seed: u64,
    trace: &TraceConfig,
) -> Result<(RunResult, Recorder)> {
    let mut cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    cfg.trace = trace.clone();
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    let result = machine.run(vm, gen)?;
    let recorder = machine.recorder().clone();
    Ok((result, recorder))
}

/// Like [`run_workload_on`], but with phase-level span profiling: the
/// whole cell (machine build, workload generation, event processing,
/// daemons) records spans into `prof`. The simulated result is
/// identical to the unprofiled run — the profiler only observes
/// wall-clock time, it never touches simulated state.
pub fn run_workload_profiled(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    fragmented: bool,
    seed: u64,
    prof: Profiler,
) -> Result<RunResult> {
    let mut cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    cfg.profiler = prof;
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    machine.run(vm, gen)
}

/// [`run_workload_profiled`] + [`run_workload_batch_stats`] in one:
/// span profiling into `prof`, batching statistics in the return.
/// Feeds the Perfetto grid export, where the batch totals become
/// counter tracks next to the timeline.
pub fn run_workload_profiled_batch_stats(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    fragmented: bool,
    seed: u64,
    prof: Profiler,
) -> Result<(RunResult, gemini_tlb::BatchStats)> {
    let mut cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    cfg.profiler = prof;
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    let result = machine.run(vm, gen)?;
    let stats = machine.batch_stats();
    Ok((result, stats))
}

/// Like [`run_workload_on`], but *recording*: every event the live
/// generator produces is teed into `out` as a `gemini-trace-v1`
/// document (DESIGN.md §15) while the simulation runs. The returned
/// `RunResult` is byte-identical to the unrecorded run — the tee only
/// observes the stream — and the second value is the number of events
/// captured. Wrap `out` in a `BufWriter`; the tee writes one line per
/// event.
pub fn record_workload_on<W: Write>(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    scale_name: &str,
    fragmented: bool,
    seed: u64,
    out: W,
) -> Result<(RunResult, u64)> {
    let cfg = scale.machine_config(fragmented, spec.zero_heavy, seed);
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let scaled = spec.scaled(scale.ws_factor);
    let header = TraceHeader {
        spec: scaled.clone(),
        scale: scale_name.to_string(),
        fragmented,
        ops: scale.ops,
        seed,
    };
    let writer = TraceWriter::new(out, &header).map_err(|e| SimError::TraceIo {
        detail: e.to_string(),
    })?;
    let mut tee = TeeStream::new(WorkloadGen::new(scaled, scale.ops, seed), writer);
    let result = machine.run(vm, &mut tee)?;
    let events = tee.finish()?;
    Ok((result, events))
}

/// Replays a recorded trace through `system`, streaming events straight
/// off `stream` — nothing is materialized, so traces larger than RAM
/// replay in bounded memory. The machine is seeded and sized from the
/// trace header (seed, zero-heaviness) plus the caller's `scale` and
/// `fragmented`; with the same scale and fragmentation the recording
/// ran at, the `RunResult` is byte-identical to the live run.
///
/// Damaged input is a typed error, never a panic: a malformed or
/// truncated trace ends the stream early, the partial run is
/// discarded, and the stream's latched [`SimError`] is returned.
pub fn replay_trace_on<R: BufRead>(
    system: SystemKind,
    stream: &mut TraceStream<R>,
    scale: &Scale,
    fragmented: bool,
) -> Result<RunResult> {
    let seed = stream.header().seed;
    let zero_heavy = stream.header().spec.zero_heavy;
    let cfg = scale.machine_config(fragmented, zero_heavy, seed);
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let result = machine.run(vm, &mut *stream)?;
    stream.check_complete()?;
    Ok(result)
}

/// Runs `spec` under `system` in a *reused* VM: a large-working-set SVM
/// job runs first, exits, and the target workload follows in the same VM
/// (paper §6.3).
pub fn run_workload_reused(
    system: SystemKind,
    spec: &WorkloadSpec,
    scale: &Scale,
    seed: u64,
) -> Result<RunResult> {
    let cfg = scale.machine_config(false, spec.zero_heavy, seed);
    let mut machine = Machine::new(system, cfg);
    let vm = machine.add_vm()?;
    let svm = gemini_workloads::spec_by_name("SVM")
        .expect("SVM is in the catalog")
        .scaled(scale.ws_factor);
    // The predecessor gets its own derived stream; XOR-ing a small
    // constant onto the seed would correlate it with the main run.
    machine.run(
        vm,
        WorkloadGen::new(svm, scale.ops / 2, derive_seed(seed, "reused-pred", 0)),
    )?;
    machine.clear_workload(vm)?;
    let gen = WorkloadGen::new(spec.scaled(scale.ws_factor), scale.ops, seed);
    machine.run(vm, gen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_slate_runner_completes() {
        let scale = Scale {
            ops: 400,
            ..Scale::quick()
        };
        let spec = gemini_workloads::spec_by_name("Silo").expect("Silo workload registered");
        let r = run_workload_on(SystemKind::Thp, &spec, &scale, false, 1).unwrap();
        assert_eq!(r.ops, 400);
        assert_eq!(r.system, "THP");
    }

    #[test]
    fn record_then_replay_is_byte_identical_to_live() {
        let scale = Scale {
            ops: 400,
            ..Scale::quick()
        };
        let spec = gemini_workloads::spec_by_name("Xapian").expect("Xapian workload registered");
        let live = run_workload_on(SystemKind::Gemini, &spec, &scale, true, 5).unwrap();
        let mut trace = Vec::new();
        let (recorded, events) = record_workload_on(
            SystemKind::Gemini,
            &spec,
            &scale,
            "quick",
            true,
            5,
            &mut trace,
        )
        .unwrap();
        assert!(events > 0);
        assert_eq!(
            format!("{live:?}"),
            format!("{recorded:?}"),
            "tee invisible"
        );
        let mut stream = TraceStream::new(std::io::Cursor::new(trace)).unwrap();
        let replayed = replay_trace_on(SystemKind::Gemini, &mut stream, &scale, true).unwrap();
        assert_eq!(
            format!("{live:?}"),
            format!("{replayed:?}"),
            "replay parity"
        );
        assert_eq!(stream.events_read(), events);
    }

    #[test]
    fn replay_surfaces_damage_as_typed_errors() {
        let scale = Scale {
            ops: 200,
            ..Scale::quick()
        };
        let spec = gemini_workloads::spec_by_name("Silo").expect("Silo workload registered");
        let mut trace = Vec::new();
        record_workload_on(
            SystemKind::Thp,
            &spec,
            &scale,
            "quick",
            false,
            3,
            &mut trace,
        )
        .unwrap();
        // Drop the end marker and the last few events.
        let text = String::from_utf8(trace).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let cut = lines[..lines.len() - 4].join("\n");
        let mut stream = TraceStream::new(std::io::Cursor::new(cut.into_bytes())).unwrap();
        let err = replay_trace_on(SystemKind::Thp, &mut stream, &scale, false).unwrap_err();
        assert!(
            matches!(err, SimError::BadTrace { .. }),
            "truncation must be typed: {err}"
        );
    }

    #[test]
    fn reused_runner_runs_predecessor_first() {
        let scale = Scale {
            ops: 400,
            ..Scale::quick()
        };
        let spec = gemini_workloads::spec_by_name("Xapian").expect("Xapian workload registered");
        let r = run_workload_reused(SystemKind::Ingens, &spec, &scale, 2).unwrap();
        assert_eq!(r.ops, 400);
        assert_eq!(r.workload, "Xapian");
        // vtime is the run's own delta, not the VM's cumulative clock.
        let cold = run_workload_on(SystemKind::Ingens, &spec, &scale, false, 2).unwrap();
        // Saturating: `cold.vtime * 4` would wrap for large cycle counts.
        assert!(
            r.vtime.0 < cold.vtime.0.saturating_mul(4),
            "reused vtime is per-run"
        );
    }
}
