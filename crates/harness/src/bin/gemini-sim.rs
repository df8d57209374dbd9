//! `gemini-sim` — command-line driver for the simulator.
//!
//! ```text
//! gemini-sim list
//! gemini-sim run     --system GEMINI --workload Redis [--fragmented] [--reused]
//! gemini-sim compare --workload Redis [--fragmented] [--reused]
//! gemini-sim trace   --system GEMINI --workload Redis [--fragmented]
//! gemini-sim record  --workload Redis [--system GEMINI] [--trace OUT.jsonl]
//! gemini-sim replay  [--trace IN.jsonl] [--system GEMINI] [--jobs N]
//! gemini-sim parity  [--workload Redis] [--fragmented]
//! gemini-sim fleet   [--scale quick|demo|bench|full] [--jobs N] [--json PATH]
//! gemini-sim bench   [--scale quick|bench] [--jobs N] [--json BENCH_pr10.json]
//!                    [--profile trace.json] [--compare OLD.json]
//!                    [--threshold PCT] [--warn-only] [--pr6-wall-ms MS]
//!                    [--pr9-wall-ms MS]
//! gemini-sim bench   --compare OLD.json --against NEW.json   (diff only, no run)
//!
//! common flags:
//!   --scale quick|demo|bench|full   (default demo)
//!   --ops <n>                       operations per run
//!   --seed <n>                      run seed
//!   --jobs <n>                      worker threads for experiment cells
//!                                   (0 = available parallelism, 1 = sequential)
//!   --no-ff                         disable the fast-forward core: step every
//!                                   event faithfully (results are identical;
//!                                   this only costs wall time)
//!   --no-batch                      disable closed-form hit-run batching:
//!                                   probe the TLB for every access of a
//!                                   hit-only run (results are identical;
//!                                   this only costs wall time)
//!   --json <path>                   export results (and any trace) as JSON Lines
//!   --trace <path>                  gemini-trace-v1 file: written by `record`
//!                                   (default stdout), read by `replay`
//!                                   (default stdin)
//!
//! `record` runs one scenario live and tees every workload event into a
//! versioned `gemini-trace-v1` trace (DESIGN.md §15) while printing the
//! same result row `run` would; with the trace on stdout the table
//! moves to stderr so the two never interleave. `replay` streams a
//! recorded trace back through a scenario — the generator is skipped
//! entirely, events decode incrementally (traces larger than RAM are
//! fine), and the workload, seed and scale default to the header's so
//! a bare `gemini-sim replay --trace f.jsonl` reproduces the recorded
//! run byte-identically. Without `--system`, every evaluated system
//! replays the same trace on the worker pool (`--jobs`), which
//! requires `--trace FILE` (stdin cannot be re-read).
//!
//! `parity` runs every registry scenario twice — fast-forward on and
//! off (`--no-ff`) — and fails unless each pair of results is
//! byte-identical, counters included. It then replays one fleet host
//! per lifecycle system the same way, covering create/destroy churn.
//!
//! `fleet` drives the long-horizon VM arrival/departure scenario: a
//! deterministic plan first-fit packed onto simulated hosts, each host
//! one executor cell, every VM torn down through the leak-checked
//! `remove_vm` path when its lifetime ends.
//!
//! bench flags:
//!   --profile <path>   write a Chrome-trace-event (Perfetto) timeline of
//!                      the fig. 3 grid run to <path>
//!   --compare <old>    diff the new bench report against <old>; exits
//!                      nonzero on wall-time regressions beyond the threshold
//!   --against <new>    with --compare: diff two existing files, run nothing
//!   --threshold <pct>  regression threshold in percent (default 10)
//!   --warn-only        print regressions but always exit zero (CI at demo
//!                      scale in noisy containers)
//! ```
//!
//! `trace` reruns one workload with full event tracing, metrics and
//! time-series sampling on, then prints the event summary, the sampled
//! series and the metrics registry.

use gemini_harness::report::Table;
use gemini_harness::runner::{
    record_workload_on, replay_trace_on, run_workload_on, run_workload_reused, run_workload_traced,
};
use gemini_harness::{effective_jobs, perfdiff, run_cells_traced, trace, Scale};
use gemini_obs::{Profiler, Recorder, TraceConfig};
use gemini_vm_sim::{RunResult, SystemKind};
use gemini_workloads::{catalog, non_tlb_sensitive, spec_by_name, TraceHeader, TraceStream};
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command-line options.
#[cfg_attr(test, derive(Debug))]
struct Opts {
    command: String,
    system: Option<String>,
    workload: Option<String>,
    scale: Scale,
    scale_name: String,
    /// Whether `--scale` appeared on the command line. `replay`
    /// defaults its machine sizing to the trace header's scale, but an
    /// explicit `--scale` must win over the header.
    scale_explicit: bool,
    fragmented: bool,
    reused: bool,
    seed: u64,
    json: Option<PathBuf>,
    trace_path: Option<PathBuf>,
    profile: Option<PathBuf>,
    compare: Option<PathBuf>,
    against: Option<PathBuf>,
    threshold_pct: f64,
    warn_only: bool,
    pr6_wall_ms: Option<f64>,
    pr9_wall_ms: Option<f64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: gemini-sim <list|run|compare|trace|record|replay|parity|fleet|bench>\n\
         \x20                [--system NAME] [--workload NAME]\n\
         \x20                [--scale quick|demo|bench|full] [--ops N] [--seed N] [--jobs N]\n\
         \x20                [--no-ff] [--fragmented] [--reused] [--json PATH]\n\
         \x20 record/replay: [--trace PATH]   (record writes, default stdout;\n\
         \x20                                  replay reads, default stdin)\n\
         \x20 bench only:    [--profile TRACE.json] [--compare OLD.json] [--against NEW.json]\n\
         \x20                [--threshold PCT] [--warn-only] [--pr6-wall-ms MS]"
    );
    ExitCode::from(2)
}

/// Resolves a scale preset by name; used both for `--scale` and for
/// the scale hint a trace header carries.
fn scale_by_name(name: &str) -> Option<Scale> {
    match name {
        "quick" => Some(Scale::quick()),
        "demo" => Some(Scale::demo()),
        "bench" => Some(Scale::bench()),
        "full" => Some(Scale::full()),
        _ => None,
    }
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: args.first().cloned().ok_or("missing command")?,
        system: None,
        workload: None,
        scale: Scale::demo(),
        scale_name: "demo".into(),
        scale_explicit: false,
        fragmented: false,
        reused: false,
        seed: 42,
        json: None,
        trace_path: None,
        profile: None,
        compare: None,
        against: None,
        threshold_pct: perfdiff::DEFAULT_THRESHOLD_PCT,
        warn_only: false,
        pr6_wall_ms: None,
        pr9_wall_ms: None,
    };
    // `--jobs`, `--ops` and `--no-ff` are applied after the loop so
    // they win regardless of whether they appear before or after
    // `--scale` (which replaces the whole `Scale`, including those
    // fields — an earlier `--ops 123 --scale quick` used to silently
    // discard the 123).
    let mut jobs: Option<usize> = None;
    let mut ops: Option<u64> = None;
    let mut no_ff = false;
    let mut no_batch = false;
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs a value", args[*i - 1]))
        };
        match args[i].as_str() {
            "--system" => opts.system = Some(take(&mut i)?),
            "--workload" => opts.workload = Some(take(&mut i)?),
            "--ops" => ops = Some(take(&mut i)?.parse().map_err(|e| format!("--ops: {e}"))?),
            "--seed" => opts.seed = take(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--jobs" => jobs = Some(take(&mut i)?.parse().map_err(|e| format!("--jobs: {e}"))?),
            "--scale" => {
                let name = take(&mut i)?;
                opts.scale =
                    scale_by_name(&name).ok_or_else(|| format!("unknown scale '{name}'"))?;
                opts.scale_name = name;
                opts.scale_explicit = true;
            }
            "--json" => opts.json = Some(PathBuf::from(take(&mut i)?)),
            "--trace" => opts.trace_path = Some(PathBuf::from(take(&mut i)?)),
            "--profile" => opts.profile = Some(PathBuf::from(take(&mut i)?)),
            "--compare" => opts.compare = Some(PathBuf::from(take(&mut i)?)),
            "--against" => opts.against = Some(PathBuf::from(take(&mut i)?)),
            "--threshold" => {
                opts.threshold_pct = take(&mut i)?
                    .parse()
                    .map_err(|e| format!("--threshold: {e}"))?;
            }
            "--warn-only" => opts.warn_only = true,
            "--pr6-wall-ms" => {
                opts.pr6_wall_ms = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--pr6-wall-ms: {e}"))?,
                );
            }
            "--pr9-wall-ms" => {
                opts.pr9_wall_ms = Some(
                    take(&mut i)?
                        .parse()
                        .map_err(|e| format!("--pr9-wall-ms: {e}"))?,
                );
            }
            "--no-ff" => no_ff = true,
            "--no-batch" => no_batch = true,
            "--fragmented" => opts.fragmented = true,
            "--reused" => opts.reused = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
        i += 1;
    }
    if let Some(j) = jobs {
        opts.scale.jobs = j;
    }
    if let Some(o) = ops {
        opts.scale.ops = o;
    }
    opts.scale.no_ff = no_ff;
    opts.scale.no_batch = no_batch;
    Ok(opts)
}

fn system_by_label(label: &str) -> Option<SystemKind> {
    // Every registry entry (ablations included) is selectable by its
    // paper label; a few shorthands are kept for convenience.
    SystemKind::by_label(label).or(match label.to_ascii_lowercase().as_str() {
        "base" => Some(SystemKind::HostBVmB),
        _ => None,
    })
}

fn result_row(r: &RunResult) -> Vec<String> {
    vec![
        r.system.to_string(),
        format!("{:.0}", r.throughput()),
        format!("{:.1}", r.mean_latency.as_micros_f64()),
        format!("{:.1}", r.p99_latency.as_micros_f64()),
        r.tlb_misses().to_string(),
        format!("{:.0}%", r.aligned_rate() * 100.0),
        format!("{:.0}%", r.bucket_reuse_rate * 100.0),
    ]
}

fn cmd_list() -> ExitCode {
    println!("workloads (Table 2):");
    for s in catalog() {
        println!(
            "  {:<14} {:>4} MiB  {}",
            s.name,
            s.working_set >> 20,
            if s.latency_tracked {
                "latency-tracked"
            } else {
                "throughput"
            }
        );
    }
    println!("non-TLB-sensitive (overhead study):");
    for s in non_tlb_sensitive() {
        println!("  {:<14} {:>4} MiB", s.name, s.working_set >> 20);
    }
    println!("systems (scenario registry; * = main evaluation):");
    for (_, spec) in gemini_vm_sim::REGISTRY {
        println!("  {}{}", spec.label, if spec.evaluated { " *" } else { "" });
    }
    ExitCode::SUCCESS
}

fn run_one(system: SystemKind, opts: &Opts) -> Result<RunResult, String> {
    let name = opts.workload.as_deref().unwrap_or("Redis");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let r = if opts.reused {
        run_workload_reused(system, &spec, &opts.scale, opts.seed)
    } else {
        run_workload_on(system, &spec, &opts.scale, opts.fragmented, opts.seed)
    };
    r.map_err(|e| format!("simulation failed: {e}"))
}

fn headers() -> [&'static str; 7] {
    [
        "system",
        "ops/s",
        "mean µs",
        "p99 µs",
        "TLB misses",
        "aligned",
        "bucket",
    ]
}

/// Writes the JSON Lines export if `--json` was given.
fn export_json(opts: &Opts, lines: &[String]) -> Result<(), String> {
    if let Some(path) = &opts.json {
        trace::write_json_lines(path, lines)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("wrote {} JSON lines to {}", lines.len(), path.display());
    }
    Ok(())
}

fn cmd_run(opts: &Opts) -> Result<(), String> {
    let label = opts.system.as_deref().unwrap_or("GEMINI");
    let system = system_by_label(label).ok_or_else(|| format!("unknown system '{label}'"))?;
    let r = run_one(system, opts)?;
    let mut t = Table::new(
        format!("{} on {}{}", r.system, r.workload, scenario_suffix(opts)),
        &headers(),
    );
    t.row(result_row(&r));
    print!("{}", t.render());
    export_json(opts, &[trace::result_json(&r)])
}

fn cmd_compare(opts: &Opts) -> Result<(), String> {
    let name = opts.workload.as_deref().unwrap_or("Redis");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    // Progress recorder for the executor: deterministic cell counts
    // only. Wall-clock time goes to stderr below, never through the
    // recorder — it would differ between runs and break byte-identity
    // of anything exported from it.
    let progress = Recorder::new(&TraceConfig::all());
    let started = std::time::Instant::now();
    let cells: Vec<_> = SystemKind::evaluated()
        .into_iter()
        .map(|system| {
            let spec = spec.clone();
            move || -> Result<(RunResult, Recorder), String> {
                let run = if opts.reused {
                    run_workload_reused(system, &spec, &opts.scale, opts.seed)
                        .map(|r| (r, Recorder::off()))
                } else {
                    run_workload_traced(
                        system,
                        &spec,
                        &opts.scale,
                        opts.fragmented,
                        opts.seed,
                        &TraceConfig::off(),
                    )
                };
                run.map_err(|e| format!("simulation failed: {e}"))
            }
        })
        .collect();
    let results = run_cells_traced(opts.scale.jobs, &progress, cells);
    let mut t = Table::new(
        format!("all systems on {name}{}", scenario_suffix(opts)),
        &headers(),
    );
    let mut rows = Vec::new();
    for cell in results {
        let (r, rec) = cell?;
        // Per-cell recorders fold into the progress recorder in
        // submission order — deterministic regardless of which worker
        // finished first.
        progress.merge_from(&rec);
        t.row(result_row(&r));
        rows.push(trace::result_json(&r));
    }
    print!("{}", t.render());
    let registry = progress.registry();
    eprintln!(
        "ran {} cells on {} worker(s) in {:.0} ms",
        registry.counter("exec.cells_finished"),
        effective_jobs(opts.scale.jobs),
        started.elapsed().as_secs_f64() * 1e3,
    );
    export_json(opts, &rows)
}

fn cmd_trace(opts: &Opts) -> Result<(), String> {
    let label = opts.system.as_deref().unwrap_or("GEMINI");
    let system = system_by_label(label).ok_or_else(|| format!("unknown system '{label}'"))?;
    let name = opts.workload.as_deref().unwrap_or("Redis");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let (r, rec) = run_workload_traced(
        system,
        &spec,
        &opts.scale,
        opts.fragmented,
        opts.seed,
        &TraceConfig::all(),
    )
    .map_err(|e| format!("simulation failed: {e}"))?;
    let mut t = Table::new(
        format!(
            "{} on {}{} [traced]",
            r.system,
            r.workload,
            scenario_suffix(opts)
        ),
        &headers(),
    );
    t.row(result_row(&r));
    print!("{}", t.render());
    print!("{}", trace::render_event_summary(&rec));
    print!("{}", trace::render_series(&rec));
    print!("{}", trace::render_registry(&rec));
    export_json(
        opts,
        &trace::trace_json_lines(std::slice::from_ref(&r), &rec),
    )
}

/// Records one scenario to a `gemini-trace-v1` trace while running it
/// live. With `--trace PATH` the trace goes to the file and the result
/// table to stdout; without it the trace streams to stdout (for piping
/// into `replay`) and the table moves to stderr.
fn cmd_record(opts: &Opts) -> Result<(), String> {
    let label = opts.system.as_deref().unwrap_or("GEMINI");
    let system = system_by_label(label).ok_or_else(|| format!("unknown system '{label}'"))?;
    let name = opts.workload.as_deref().unwrap_or("Redis");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let to_stdout = opts.trace_path.is_none();
    let (result, events) = match &opts.trace_path {
        Some(path) => {
            let f = std::fs::File::create(path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            record_workload_on(
                system,
                &spec,
                &opts.scale,
                &opts.scale_name,
                opts.fragmented,
                opts.seed,
                std::io::BufWriter::new(f),
            )
        }
        None => record_workload_on(
            system,
            &spec,
            &opts.scale,
            &opts.scale_name,
            opts.fragmented,
            opts.seed,
            std::io::BufWriter::new(std::io::stdout().lock()),
        ),
    }
    .map_err(|e| format!("recording failed: {e}"))?;
    let mut t = Table::new(
        format!(
            "{} on {}{} [recorded]",
            result.system,
            result.workload,
            scenario_suffix(opts)
        ),
        &headers(),
    );
    t.row(result_row(&result));
    if to_stdout {
        eprint!("{}", t.render());
    } else {
        print!("{}", t.render());
    }
    eprintln!(
        "recorded {} events ({} ops) to {}",
        events,
        result.ops,
        opts.trace_path
            .as_ref()
            .map(|p| p.display().to_string())
            .unwrap_or_else(|| "stdout".into()),
    );
    export_json(opts, &[trace::result_json(&result)])
}

/// The machine sizing for a replay: the caller's explicit `--scale`
/// wins; otherwise the header's scale hint is resolved, keeping the
/// command line's `--jobs`/`--no-ff` (which live on `Scale` but are
/// orthogonal to sizing). Fragmentation is the union: the header hint
/// or an explicit `--fragmented`.
fn replay_scale(opts: &Opts, header: &TraceHeader) -> (Scale, String, bool) {
    let mut scale = opts.scale;
    let mut name = opts.scale_name.clone();
    if !opts.scale_explicit {
        if let Some(s) = scale_by_name(&header.scale) {
            scale = s;
            scale.jobs = opts.scale.jobs;
            scale.no_ff = opts.scale.no_ff;
            name = header.scale.clone();
        } else {
            eprintln!(
                "warning: trace header names unknown scale {:?}; using {}",
                header.scale, name
            );
        }
    }
    (scale, name, opts.fragmented || header.fragmented)
}

/// Replays a recorded trace through one system (`--system`, streaming
/// from a file or stdin) or through every evaluated system on the
/// worker pool (no `--system`; needs a re-openable `--trace FILE`).
/// The generator never runs — events stream straight off the trace.
fn cmd_replay(opts: &Opts) -> Result<(), String> {
    let open = |path: &PathBuf| -> Result<TraceStream<_>, String> {
        let f =
            std::fs::File::open(path).map_err(|e| format!("opening {}: {e}", path.display()))?;
        TraceStream::new(std::io::BufReader::new(f)).map_err(|e| format!("{}: {e}", path.display()))
    };
    if let Some(label) = opts.system.as_deref() {
        let system = system_by_label(label).ok_or_else(|| format!("unknown system '{label}'"))?;
        let (result, events, scale_name) = match &opts.trace_path {
            Some(path) => {
                let mut stream = open(path)?;
                let (scale, scale_name, fragmented) = replay_scale(opts, stream.header());
                let r = replay_trace_on(system, &mut stream, &scale, fragmented)
                    .map_err(|e| format!("replay failed: {e}"))?;
                (r, stream.events_read(), scale_name)
            }
            None => {
                let stdin = std::io::stdin().lock();
                let mut stream =
                    TraceStream::new(stdin).map_err(|e| format!("reading stdin: {e}"))?;
                let (scale, scale_name, fragmented) = replay_scale(opts, stream.header());
                let r = replay_trace_on(system, &mut stream, &scale, fragmented)
                    .map_err(|e| format!("replay failed: {e}"))?;
                (r, stream.events_read(), scale_name)
            }
        };
        let mut t = Table::new(
            format!("{} on {} [replayed]", result.system, result.workload),
            &headers(),
        );
        t.row(result_row(&result));
        print!("{}", t.render());
        eprintln!(
            "replayed {} events ({} ops) at {} scale from {}",
            events,
            result.ops,
            scale_name,
            opts.trace_path
                .as_ref()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|| "stdin".into()),
        );
        return export_json(opts, &[trace::result_json(&result)]);
    }
    // All evaluated systems over the same trace: one executor cell per
    // system, each streaming its own reader over the file.
    let Some(path) = &opts.trace_path else {
        return Err(
            "replaying every system needs --trace FILE (stdin cannot be re-read); \
             pass --system for a single replay from stdin"
                .into(),
        );
    };
    let header = open(path)?.header().clone();
    let (scale, scale_name, fragmented) = replay_scale(opts, &header);
    let progress = Recorder::new(&TraceConfig::all());
    let started = std::time::Instant::now();
    let cells: Vec<_> = SystemKind::evaluated()
        .into_iter()
        .map(|system| {
            let path = path.clone();
            move || -> Result<RunResult, String> {
                let f = std::fs::File::open(&path)
                    .map_err(|e| format!("opening {}: {e}", path.display()))?;
                let mut stream = TraceStream::new(std::io::BufReader::new(f))
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                replay_trace_on(system, &mut stream, &scale, fragmented)
                    .map_err(|e| format!("replay failed: {e}"))
            }
        })
        .collect();
    let results = run_cells_traced(scale.jobs, &progress, cells);
    let mut t = Table::new(
        format!("all systems replaying {}", header.spec.name),
        &headers(),
    );
    let mut rows = Vec::new();
    for cell in results {
        let r = cell?;
        t.row(result_row(&r));
        rows.push(trace::result_json(&r));
    }
    print!("{}", t.render());
    eprintln!(
        "replayed {} on {} system(s) at {} scale on {} worker(s) in {:.0} ms",
        path.display(),
        rows.len(),
        scale_name,
        effective_jobs(scale.jobs),
        started.elapsed().as_secs_f64() * 1e3,
    );
    export_json(opts, &rows)
}

/// Runs every registry scenario three ways — the default (fast-forward
/// plus closed-form hit-run batching), `--no-batch`, and `--no-ff` —
/// and fails unless all three results are byte-identical: the full
/// `RunResult` (every MMU counter, alignment stat and latency figure)
/// and the JSON export line must match exactly. This is the executable
/// form of both fast-path invariants: eliding provably-quiescent daemon
/// passes (DESIGN.md §12) and advancing provably hit-only access runs
/// in closed form (DESIGN.md §16) may never change simulated state.
fn cmd_parity(opts: &Opts) -> Result<(), String> {
    let name = opts.workload.as_deref().unwrap_or("Redis");
    let spec = spec_by_name(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let progress = Recorder::new(&TraceConfig::all());
    let mut batched_scale = opts.scale;
    batched_scale.no_ff = false;
    batched_scale.no_batch = false;
    let mut nobatch_scale = batched_scale;
    nobatch_scale.no_batch = true;
    let mut faithful_scale = batched_scale;
    faithful_scale.no_ff = true;
    faithful_scale.no_batch = true;
    let cells: Vec<_> = gemini_vm_sim::REGISTRY
        .iter()
        .map(|(system, sspec)| {
            let spec = spec.clone();
            move || -> Result<(&'static str, bool), String> {
                let run = |scale: &Scale| {
                    run_workload_on(*system, &spec, scale, opts.fragmented, opts.seed)
                        .map_err(|e| format!("{}: simulation failed: {e}", sspec.label))
                };
                let batched = run(&batched_scale)?;
                let nobatch = run(&nobatch_scale)?;
                let faithful = run(&faithful_scale)?;
                let identical = format!("{batched:?}") == format!("{faithful:?}")
                    && format!("{batched:?}") == format!("{nobatch:?}")
                    && trace::result_json(&batched) == trace::result_json(&faithful)
                    && trace::result_json(&batched) == trace::result_json(&nobatch);
                Ok((sspec.label, identical))
            }
        })
        .collect();
    let results = run_cells_traced(opts.scale.jobs, &progress, cells);
    let mut mismatched = Vec::new();
    for cell in results {
        let (label, identical) = cell?;
        println!(
            "  {:<16} {}",
            label,
            if identical { "ok" } else { "MISMATCH" }
        );
        if !identical {
            mismatched.push(label);
        }
    }
    // Lifecycle leg: one fleet host per system through the full
    // create/run/destroy churn path, again all three ways. The whole
    // `HostRun` Debug form is compared, so per-VM results, churn
    // counters, end state and the sampled series must all match.
    for &system in &gemini_harness::experiments::fleet::SYSTEMS {
        let run = |scale: &Scale| {
            gemini_harness::experiments::fleet::run_host(system, scale, 0)
                .map_err(|e| format!("{}: fleet host failed: {e}", system.label()))
        };
        let batched = run(&batched_scale)?;
        let nobatch = run(&nobatch_scale)?;
        let faithful = run(&faithful_scale)?;
        let identical = format!("{batched:?}") == format!("{faithful:?}")
            && format!("{batched:?}") == format!("{nobatch:?}");
        let label = format!("fleet/{}", system.label());
        println!(
            "  {:<16} {}",
            label,
            if identical { "ok" } else { "MISMATCH" }
        );
        if !identical {
            mismatched.push(system.label());
        }
    }
    if !mismatched.is_empty() {
        return Err(format!(
            "fast-path parity violated for {}: {}",
            name,
            mismatched.join(", ")
        ));
    }
    eprintln!(
        "parity: {} scenarios on {}{} plus {} fleet hosts byte-identical across \
         default / --no-batch / --no-ff",
        gemini_vm_sim::REGISTRY.len(),
        name,
        scenario_suffix(opts),
        gemini_harness::experiments::fleet::SYSTEMS.len(),
    );
    Ok(())
}

/// Runs the fleet grid at the selected scale, prints the per-host
/// table plus per-system FMFI span, and exports one JSON summary line
/// per host cell with `--json`.
fn cmd_fleet(opts: &Opts) -> Result<(), String> {
    let started = std::time::Instant::now();
    let res = gemini_harness::experiments::fleet::run(&opts.scale)
        .map_err(|e| format!("fleet failed: {e}"))?;
    print!("{}", res.render());
    eprintln!(
        "fleet: {} VM lifecycles ({} churn events) across {} cells on {} worker(s) in {:.0} ms",
        res.total_vms(),
        res.total_churn_events(),
        res.runs.len(),
        effective_jobs(opts.scale.jobs),
        started.elapsed().as_secs_f64() * 1e3,
    );
    let lines: Vec<String> = res
        .runs
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"system\":\"{}\",\"host\":{},\"vms\":{},\"churn_events\":{},",
                    "\"peak_resident\":{},\"frames_reclaimed\":{},\"end_host_fmfi\":{:.6},",
                    "\"end_free_order9\":{},\"mean_aligned_rate\":{:.6},\"samples\":{}}}"
                ),
                r.system,
                r.host,
                r.outcome.vms.len(),
                r.outcome.churn_events,
                r.outcome.peak_resident,
                r.outcome.frames_reclaimed(),
                r.outcome.end_host_fmfi,
                r.outcome.end_free_order9,
                r.outcome.mean_aligned_rate(),
                r.samples.len(),
            )
        })
        .collect();
    export_json(opts, &lines)
}

/// Diffs `old_json` against `new_json` and reports the verdict.
/// Returns `Err` (→ nonzero exit) on a regression unless `--warn-only`.
fn run_compare_gate(opts: &Opts, old_path: &PathBuf, new_json: &str) -> Result<(), String> {
    let old_json = std::fs::read_to_string(old_path)
        .map_err(|e| format!("reading {}: {e}", old_path.display()))?;
    let diff = perfdiff::compare_reports(&old_json, new_json, opts.threshold_pct)?;
    print!("{}", diff.render());
    if diff.regressed() {
        if opts.warn_only {
            eprintln!("perf regressions found (warn-only: not failing)");
            return Ok(());
        }
        return Err(format!(
            "{} perf regression(s) beyond {:.1}% vs {}",
            diff.regressions.len(),
            opts.threshold_pct,
            old_path.display()
        ));
    }
    eprintln!("no perf regressions vs {}", old_path.display());
    Ok(())
}

fn cmd_bench(opts: &Opts) -> Result<(), String> {
    // Pure diff mode: compare two existing reports without running.
    if let (Some(old_path), Some(new_path)) = (&opts.compare, &opts.against) {
        let new_json = std::fs::read_to_string(new_path)
            .map_err(|e| format!("reading {}: {e}", new_path.display()))?;
        return run_compare_gate(opts, old_path, &new_json);
    }
    if opts.against.is_some() {
        return Err("--against needs --compare OLD.json".into());
    }
    let jobs_max = effective_jobs(opts.scale.jobs);
    let mut report = gemini_harness::bench::run_bench(&opts.scale, &opts.scale_name, jobs_max)
        .map_err(|e| format!("bench failed: {e}"))?;
    report.pr6_same_host_wall_ms = opts.pr6_wall_ms;
    report.pr9_same_host_wall_ms = opts.pr9_wall_ms;
    let mut t = Table::new(
        format!("bench — fig. 3 grid cells at {} scale", opts.scale_name),
        &["cell", "wall ms", "ops/s (wall)"],
    );
    for c in &report.cells {
        t.row(vec![
            c.label.clone(),
            format!("{:.1}", c.wall_ms),
            format!("{:.0}", c.ops_per_sec),
        ]);
    }
    print!("{}", t.render());
    for p in &report.sweep {
        eprintln!(
            "sweep: jobs={} wall_ms={:.0} speedup_vs_jobs1={:.2}",
            p.jobs, p.wall_ms, p.speedup_vs_jobs1
        );
    }
    eprintln!(
        "reference cell {}: {:.0} ms, {:.0} ops/s ({:.2}x vs pre-PR baseline {:.0} ops/s)",
        gemini_harness::bench::REFERENCE_CELL,
        report.reference_wall_ms,
        report.reference_ops_per_sec,
        report.speedup_vs_baseline(),
        gemini_harness::bench::BASELINE_OPS_PER_SEC,
    );
    if let Some(pr6_ms) = report.pr6_same_host_wall_ms {
        eprintln!(
            "reference cell vs same-host PR 6 rebuild: {:.0} ms -> {:.0} ms ({:.2}x)",
            pr6_ms,
            report.reference_wall_ms,
            pr6_ms / report.reference_wall_ms.max(1e-9),
        );
    }
    if let Some(pr9_ms) = report.pr9_same_host_wall_ms {
        eprintln!(
            "reference cell vs same-host PR 9 rebuild: {:.0} ms -> {:.0} ms ({:.2}x)",
            pr9_ms,
            report.reference_wall_ms,
            pr9_ms / report.reference_wall_ms.max(1e-9),
        );
    }
    eprintln!(
        "reference cell --no-batch: {:.0} ms vs {:.0} ms batched ({:.2}x); batch hit rate {:.1}% ({} hits / {} runs, {} breaks)",
        report.reference_batched.no_batch_wall_ms,
        report.reference_wall_ms,
        report.reference_batched.no_batch_wall_ms / report.reference_wall_ms.max(1e-9),
        report.reference_batched.batch_hit_rate * 100.0,
        report.reference_batched.batched_hits,
        report.reference_batched.batch_runs,
        report.reference_batched.batch_breaks,
    );
    if let Some(fleet) = &report.fleet {
        let fmfi = fleet
            .end_host_fmfi
            .iter()
            .map(|(s, v)| format!("{s} {v:.3}"))
            .collect::<Vec<_>>()
            .join(", ");
        eprintln!(
            "fleet smoke: {} VM lifecycles ({} churn events) in {:.0} ms; end FMFI {}",
            fleet.vms, fleet.churn_events, fleet.wall_ms, fmfi
        );
    }
    eprintln!(
        "reference phases sum {:.0} ms self-time; profiler overhead {:.2}%",
        report
            .reference_phases
            .iter()
            .map(|p| p.wall_ms)
            .sum::<f64>(),
        report.reference_overhead_pct,
    );
    let report_json = report.to_json();
    let path = opts
        .json
        .clone()
        .unwrap_or_else(|| PathBuf::from("BENCH_pr10.json"));
    std::fs::write(&path, &report_json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("wrote bench report to {}", path.display());
    if let Some(trace_path) = &opts.profile {
        let prof = Profiler::wall(true);
        let trace_json = gemini_harness::bench::grid_trace(&opts.scale, jobs_max, &prof)
            .map_err(|e| format!("profiled grid failed: {e}"))?;
        std::fs::write(trace_path, &trace_json)
            .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
        eprintln!(
            "wrote Perfetto trace ({} bytes) to {} — open at https://ui.perfetto.dev",
            trace_json.len(),
            trace_path.display()
        );
    }
    if let Some(old_path) = &opts.compare {
        return run_compare_gate(opts, old_path, &report_json);
    }
    Ok(())
}

fn scenario_suffix(opts: &Opts) -> String {
    match (opts.reused, opts.fragmented) {
        (true, _) => " (reused VM)".into(),
        (false, true) => " (fragmented)".into(),
        (false, false) => " (clean slate)".into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match opts.command.as_str() {
        "list" => return cmd_list(),
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "trace" => cmd_trace(&opts),
        "record" => cmd_record(&opts),
        "replay" => cmd_replay(&opts),
        "parity" => cmd_parity(&opts),
        "fleet" => cmd_fleet(&opts),
        "bench" => cmd_bench(&opts),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(args: &[&str]) -> Opts {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse(&args).expect("args should parse")
    }

    #[test]
    fn ops_survives_scale_in_either_order() {
        let before = parse_ok(&["run", "--ops", "123", "--scale", "quick"]);
        let after = parse_ok(&["run", "--scale", "quick", "--ops", "123"]);
        assert_eq!(before.scale.ops, 123);
        assert_eq!(after.scale.ops, 123);
        // Everything else about the scale is still quick's sizing.
        assert_eq!(before.scale.host_frames, Scale::quick().host_frames);
        assert_eq!(before.scale_name, "quick");
        assert!(before.scale_explicit);
    }

    #[test]
    fn jobs_and_no_ff_survive_scale_in_either_order() {
        let before = parse_ok(&["bench", "--jobs", "3", "--no-ff", "--scale", "quick"]);
        let after = parse_ok(&["bench", "--scale", "quick", "--jobs", "3", "--no-ff"]);
        assert_eq!(before.scale.jobs, 3);
        assert_eq!(after.scale.jobs, 3);
        assert!(before.scale.no_ff);
        assert!(after.scale.no_ff);
    }

    #[test]
    fn no_batch_and_pr9_wall_ms_survive_scale_in_either_order() {
        let before = parse_ok(&[
            "bench",
            "--no-batch",
            "--pr9-wall-ms",
            "123.5",
            "--scale",
            "quick",
        ]);
        let after = parse_ok(&[
            "bench",
            "--scale",
            "quick",
            "--no-batch",
            "--pr9-wall-ms",
            "123.5",
        ]);
        assert!(before.scale.no_batch);
        assert!(after.scale.no_batch);
        assert_eq!(before.pr9_wall_ms, Some(123.5));
        assert_eq!(after.pr9_wall_ms, Some(123.5));
        // Default stays off: batching is opt-out.
        assert!(!parse_ok(&["run"]).scale.no_batch);
    }

    #[test]
    fn defaults_without_scale_flag() {
        let opts = parse_ok(&["run", "--ops", "77"]);
        assert!(!opts.scale_explicit);
        assert_eq!(opts.scale_name, "demo");
        assert_eq!(opts.scale.ops, 77);
        assert!(opts.trace_path.is_none());
    }

    #[test]
    fn trace_flag_parses_and_unknown_scale_errors() {
        let opts = parse_ok(&["replay", "--trace", "t.jsonl", "--system", "GEMINI"]);
        assert_eq!(
            opts.trace_path.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        assert_eq!(opts.system.as_deref(), Some("GEMINI"));
        let args: Vec<String> = ["run", "--scale", "galactic"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&args).unwrap_err().contains("unknown scale"));
    }
}
