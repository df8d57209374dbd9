//! The benchmark's own tests: the metric catalogue against
//! `BENCHMARK.json`, the correctness check, span self-time arithmetic,
//! and a short smoke run of every workload in both modes.

use gemini_obs::jsonread::{self, Value};
use gemini_perfbench::metrics::{self, MetricDef};
use gemini_perfbench::probe::HostProbe;
use gemini_perfbench::run::{self, Ledger, RunConfig};
use gemini_perfbench::spans::{self_times, Span};
use gemini_perfbench::workload::{self, CellOutcome, Mode, Sim, Workload};
use gemini_tlb::PerfCounters;
use std::path::Path;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    jsonread::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"), s("better"))
        })
        .collect()
}

fn catalogued(defs: &[MetricDef]) -> Vec<(String, String, String)> {
    defs.iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.as_str().into()))
        .collect()
}

#[test]
fn metric_names_and_units_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalogued(metrics::END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), catalogued(metrics::PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    let setup = doc
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|l| {
            l.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        })
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

/// One plain pass of uniform-walk at a tiny size.
fn tiny_pass() -> workload::PassOutcome {
    let prep = workload::prepare(Workload::UniformWalk, 200, 3).expect("inputs");
    workload::run_pass(&prep, &mut Mode::Plain, &mut HostProbe::new())
}

#[test]
fn check_rejects_a_doctored_digest_and_a_broken_identity() {
    let mut pass = tiny_pass();
    let cell = &mut pass.cells[0];
    let digest = cell.digest();
    assert_eq!(cell.verify(digest), Ok(()));
    assert!(cell.verify(digest ^ 1).is_err(), "a doctored digest fails");

    counters_mut(cell).stlb_hits += 1;
    let broken = cell.verify(cell.digest()).expect_err("identity broken");
    assert!(broken.contains("accesses"), "{broken}");
    counters_mut(cell).stlb_hits -= 1;
    cell.batch.hits = counters_mut(cell).l1_hits + 1;
    let broken = cell.verify(cell.digest()).expect_err("batched > l1");
    assert!(broken.contains("batched_hits"), "{broken}");
}

fn counters_mut(cell: &mut CellOutcome) -> &mut PerfCounters {
    match &mut cell.sim {
        Ok(Sim::Single(r)) => &mut r.counters,
        _ => panic!("uniform-walk cells are single-VM runs"),
    }
}

#[test]
fn ledger_counts_a_mismatching_pass_as_failed() {
    let reference = tiny_pass();
    let mut ledger = Ledger::default();
    ledger.record("plain", &reference);
    assert_eq!((ledger.attempted, ledger.failed), (8, 0));
    let mut doctored = tiny_pass();
    if let Ok(Sim::Single(r)) = &mut doctored.cells[2].sim {
        r.ops += 1;
    }
    ledger.record("traced", &doctored);
    assert_eq!((ledger.attempted, ledger.failed), (16, 1));
    assert!(
        ledger.failures[0].contains("digest"),
        "{:?}",
        ledger.failures
    );
}

#[test]
fn fleet_accounting_rejects_a_missing_departure() {
    let prep = workload::prepare(Workload::FleetChurn, 200, 5).expect("inputs");
    let mut pass = workload::run_pass(&prep, &mut Mode::Plain, &mut HostProbe::new());
    let cell = &mut pass.cells[0];
    let digest = cell.digest();
    assert_eq!(cell.verify(digest), Ok(()));
    let Ok(Sim::Fleet { outcome, .. }) = &mut cell.sim else {
        panic!("fleet-churn cells are fleet hosts");
    };
    outcome.churn_events -= 1;
    let err = cell.verify(digest).expect_err("churn accounting broken");
    assert!(err.contains("churn_events"), "{err}");
}

fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        cell: 1,
        parent,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("cell", None, 0, 100),
        span("a", Some(0), 10, 40),
        span("b", Some(0), 30, 60),  // overlaps a: counted once
        span("c", Some(1), 15, 20),  // grandchild: only a's concern
        span("d", Some(0), 90, 120), // runs past its parent: clipped
        span("e", None, 200, 210),
    ];
    assert_eq!(self_times(&spans), vec![40, 25, 30, 5, 30, 10]);
}

#[test]
fn smoke_run_of_every_workload_in_both_modes() {
    for w in Workload::ALL {
        let mut digests = Vec::new();
        for trace in [false, true] {
            let cfg = RunConfig {
                ops: 200,
                min_passes: 1,
                micro_rounds: 2,
                ..RunConfig::standard(w, 9, 0.001, trace)
            };
            let report =
                run::run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name()));
            assert_eq!(report.ledger.failed, 0, "{:?}", report.ledger.failures);
            assert!(report.ledger.attempted > 0);
            digests.push(report.ledger.digest());
            let want = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            let names: Vec<&str> = report.values.iter().map(|(d, _)| d.name).collect();
            let expected: Vec<&str> = want.iter().map(|d| d.name).collect();
            assert_eq!(names, expected, "{} trace={trace}", w.name());
            for (d, v) in &report.values {
                assert!(v.is_finite(), "{} {}: {v}", w.name(), d.name);
            }
            if !trace {
                for (d, v) in &report.values {
                    assert!(*v > 0.0, "{} {} must never be 0", w.name(), d.name);
                }
            }
            let value = |name: &str| {
                report
                    .values
                    .iter()
                    .find(|(d, _)| d.name == name)
                    .map(|&(_, v)| v)
            };
            if trace {
                let decode = value("workloads.decode_s").expect("reported");
                assert_eq!(decode > 0.0, w == Workload::ZipfReplay, "{}", w.name());
                if w == Workload::FleetChurn {
                    assert_eq!(value("tlb.batch_runs"), Some(0.0));
                }
            }
        }
        assert_eq!(
            digests[0],
            digests[1],
            "{}: untraced and traced runs agree",
            w.name()
        );
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let defs = metrics::END_TO_END;
    let values: Vec<_> = defs.iter().map(|d| (d, 1.5)).collect();
    let line = metrics::result_line(4, 0, &values);
    let doc = jsonread::parse(&line).expect("valid JSON");
    let obj = doc.as_obj().expect("object");
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    let m = doc.get("metrics").and_then(Value::as_obj).expect("metrics");
    assert_eq!(m.len(), defs.len());
    assert_eq!(m["setup_s"].get("unit").and_then(Value::as_str), Some("s"));
}
