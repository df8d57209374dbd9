//! Profiling-subsystem integration tests: Chrome-trace well-formedness
//! (parsed back with the in-tree JSON reader), deterministic-clock
//! byte-identity, `gemini-sim profile` end to end through the binary,
//! and merge-order properties of the profiler and the metrics registry.

use gemini_harness::profile::{grid_trace, profile_canneal_gemini};
use gemini_harness::Scale;
use gemini_obs::jsonread::{parse, Value};
use gemini_obs::{Phase, Profiler, Recorder, TraceConfig};

fn tiny_scale() -> Scale {
    Scale {
        ops: 400,
        ..Scale::quick()
    }
}

/// Collects `(name, tid)` of thread-name metadata rows and the `X`
/// complete events as `(name, cat, tid, ts, dur)` tuples.
#[allow(clippy::type_complexity)]
fn split_trace(doc: &Value) -> (Vec<(String, u64)>, Vec<(String, String, u64, f64, f64)>) {
    let events = doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    let mut tracks = Vec::new();
    let mut spans = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph field");
        match ph {
            "M" => {
                if ev.get("name").and_then(Value::as_str) == Some("thread_name") {
                    let label = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(Value::as_str)
                        .expect("thread_name label");
                    tracks.push((
                        label.to_string(),
                        ev.get("tid").and_then(Value::as_u64).expect("tid"),
                    ));
                }
            }
            "X" => spans.push((
                ev.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string(),
                ev.get("cat")
                    .and_then(Value::as_str)
                    .expect("cat")
                    .to_string(),
                ev.get("tid").and_then(Value::as_u64).expect("tid"),
                ev.get("ts").and_then(Value::as_f64).expect("ts"),
                ev.get("dur").and_then(Value::as_f64).expect("dur"),
            )),
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    (tracks, spans)
}

#[test]
fn grid_trace_has_worker_tracks_with_nested_cell_and_phase_spans() {
    let prof = Profiler::wall(true);
    let json = grid_trace(&tiny_scale(), 2, &prof).expect("profiled grid runs");
    let doc = parse(&json).expect("trace is valid JSON");
    let (tracks, spans) = split_trace(&doc);

    // Two workers requested, two labelled tracks with stable ids.
    assert_eq!(
        tracks,
        vec![("worker-0".to_string(), 0), ("worker-1".to_string(), 1)]
    );

    let cells: Vec<_> = spans.iter().filter(|s| s.1 == "cell").collect();
    let phases: Vec<_> = spans.iter().filter(|s| s.1 == "phase").collect();
    assert!(!cells.is_empty(), "grid produced cell spans");
    assert!(!phases.is_empty(), "event capture produced phase spans");
    for (_, cat, tid, ..) in &spans {
        assert!(cat == "cell" || cat == "phase", "unexpected category {cat}");
        assert!(*tid < 2, "span on unknown track {tid}");
    }

    // Every phase span except executor bookkeeping (which runs between
    // cells by design) nests inside a cell rectangle on its own track.
    for (name, _, tid, ts, dur) in &phases {
        if name == Phase::Executor.name() {
            continue;
        }
        let contained = cells.iter().any(|(_, _, ctid, cts, cdur)| {
            ctid == tid && *ts >= *cts && *ts + *dur <= *cts + *cdur
        });
        assert!(
            contained,
            "{name} span at ts={ts} tid={tid} not inside a cell"
        );
    }
}

#[test]
fn deterministic_trace_is_byte_identical_at_jobs1() {
    let trace = || {
        let prof = Profiler::deterministic(true);
        grid_trace(&tiny_scale(), 1, &prof).expect("profiled grid runs")
    };
    let a = trace();
    let b = trace();
    assert!(!a.is_empty() && a.contains("traceEvents"));
    assert_eq!(a, b, "tick-clock traces must be byte-identical");
}

#[test]
fn reference_cell_phase_breakdown_covers_wall_time() {
    // The reference workload/system pair at quick scale, sized for a
    // test binary (demo scale is ~30x slower unoptimized).
    let (report, wall_ms) = profile_canneal_gemini(&Scale::quick()).expect("reference cell runs");
    assert!(!report.phases.is_empty());
    // Self times are disjoint, so their sum is the instrumented share
    // of the cell's wall time: within 10% of the total (acceptance
    // criterion), and never more than the wall itself plus noise.
    let sum = report.total_self_ns() as f64 / 1e6;
    assert!(
        (sum - wall_ms).abs() <= 0.10 * wall_ms,
        "phase self-times sum to {sum:.1} ms but the cell took {wall_ms:.1} ms"
    );
    for (phase, stat) in &report.phases {
        assert!(stat.cum_ns >= stat.self_ns, "{}: cum < self", phase.name());
        assert!(
            stat.count > 0,
            "{}: zero-count phase exported",
            phase.name()
        );
    }
    // The profiler itself must stay in the noise (acceptance: < 3%).
    let overhead_pct = 100.0 * (report.overhead_est_ns as f64 / 1e6) / wall_ms;
    assert!(
        overhead_pct < 3.0,
        "estimated profiler overhead {overhead_pct:.2}% exceeds budget"
    );
}

#[test]
fn profile_subcommand_writes_a_perfetto_trace() {
    let path = std::env::temp_dir().join(format!("gemini-profile-{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gemini-sim"))
        .args(["profile", "--scale", "quick", "--ops", "400", "--jobs", "2"])
        .arg("--profile")
        .arg(&path)
        .output()
        .expect("gemini-sim runs");
    assert!(
        out.status.success(),
        "profile must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("self ms"));
    let json = std::fs::read_to_string(&path).expect("trace file written");
    std::fs::remove_file(&path).ok();
    let doc = parse(&json).expect("trace is valid JSON");
    assert!(doc.get("traceEvents").and_then(Value::as_arr).is_some());
    assert!(json.contains("\"cat\":\"cell\""), "cell spans");
}

/// Records a fixed span pattern on `prof`; patterns differ per stream id.
fn record_stream(prof: &Profiler, id: u64) {
    for k in 0..(3 + id % 3) {
        let _outer = prof.span(Phase::Access);
        if (id + k) % 2 == 0 {
            let _inner = prof.span(Phase::FaultPath);
        }
    }
    let _d = prof.span(Phase::DaemonPass);
}

#[test]
fn profiler_merge_is_order_independent_and_matches_single_threaded() {
    // Three forks of one deterministic profiler record three distinct
    // streams sequentially (the tick clock is shared, so durations are
    // reproducible), then merge in different orders.
    let run = |order: &[usize]| {
        let master = Profiler::deterministic(false);
        let forks: Vec<Profiler> = (0..3).map(|w| master.fork(w)).collect();
        for (id, fork) in forks.iter().enumerate() {
            record_stream(fork, id as u64);
        }
        for &i in order {
            master.merge_from(&forks[i]);
        }
        master.report()
    };
    let abc = run(&[0, 1, 2]);
    let cba = run(&[2, 1, 0]);
    let bac = run(&[1, 0, 2]);
    assert_eq!(abc.phases, cba.phases, "merge must commute in effect");
    assert_eq!(abc.phases, bac.phases, "merge must associate in effect");
    assert_eq!(abc.spans_recorded, cba.spans_recorded);

    // The same three streams recorded on ONE profiler, in the same
    // global order, must yield identical accumulated totals.
    let single = Profiler::deterministic(false);
    for id in 0..3u64 {
        record_stream(&single, id);
    }
    assert_eq!(single.report().phases, abc.phases);
    assert_eq!(single.report().spans_recorded, abc.spans_recorded);
}

/// Applies a pseudo-random op stream (splitmix-style) to a recorder.
fn apply_ops(rec: &Recorder, seed: u64, n: u64) {
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..n {
        let v = next();
        match v % 3 {
            0 => rec.counter_add("prop.counter_a", v % 97),
            1 => rec.counter_add("prop.counter_b", v % 13),
            _ => rec.observe("prop.hist", v % 100_000),
        }
    }
}

#[test]
fn registry_merge_is_order_independent_and_matches_single_threaded() {
    let streams: Vec<(u64, u64)> = vec![(7, 40), (99, 25), (1234, 60)];
    let merged = |order: &[usize]| {
        let parts: Vec<Recorder> = streams
            .iter()
            .map(|&(seed, n)| {
                let rec = Recorder::new(&TraceConfig::all());
                apply_ops(&rec, seed, n);
                rec
            })
            .collect();
        let master = Recorder::new(&TraceConfig::all());
        for &i in order {
            master.merge_from(&parts[i]);
        }
        master.registry().to_json_lines().join("\n")
    };
    let abc = merged(&[0, 1, 2]);
    assert_eq!(abc, merged(&[2, 0, 1]), "registry merge must commute");
    assert_eq!(abc, merged(&[1, 2, 0]));

    // Single-threaded equivalent: every stream applied to one recorder.
    let single = Recorder::new(&TraceConfig::all());
    for &(seed, n) in &streams {
        apply_ops(&single, seed, n);
    }
    assert_eq!(single.registry().to_json_lines().join("\n"), abc);
}
