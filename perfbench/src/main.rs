//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for the given host time and prints, as the last
//! line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The lines before
//! it give provenance, each pass, the workload's result digest and
//! every metric with its unit. Every run also writes its figures and
//! provenance to `.bench_out/`, a traced run with all of its spans.

use gemini_obs::json_str;
use gemini_perfbench::metrics;
use gemini_perfbench::provenance::Provenance;
use gemini_perfbench::run::{self, Report, RunConfig};
use gemini_perfbench::spans;
use gemini_perfbench::workload::Workload;
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload <uniform-walk|sequential-hits|fleet-churn|zipf-replay> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?)
            }
            "--seed" => seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?),
            "--seconds" => {
                let s = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {v}: expected 0 < s <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(RunConfig::standard(
        workload,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let prov = Provenance::collect(Path::new("."));
    println!("{}", prov.line(&cfg));
    match run::run(&cfg) {
        Ok(report) => {
            print_report(&cfg, &prov, &report);
            if let Err(e) = write_out(&cfg, &prov, &report) {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
            let l = &report.ledger;
            println!(
                "{}",
                metrics::result_line(l.attempted, l.failed, &report.values)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_report(cfg: &RunConfig, prov: &Provenance, r: &Report) {
    for line in &r.log {
        println!("{line}");
    }
    for f in &r.ledger.failures {
        println!("FAILED {f}");
    }
    let l = &r.ledger;
    println!(
        "{}: {} untraced + {} traced passes, {} cells attempted, {} failed (failed_cell_share {}), digest {:016x}",
        cfg.workload.name(),
        r.plain_passes,
        r.traced_passes,
        l.attempted,
        l.failed,
        l.failed as f64 / l.attempted.max(1) as f64,
        l.digest()
    );
    for (d, v) in &r.values {
        println!(
            "  {:<36} {:>18} {}",
            d.name,
            metrics::json_number(*v),
            d.unit
        );
    }
    println!("(rev {}, seed {}, {} s)", prov.rev, cfg.seed, cfg.seconds);
}

/// Writes the run's provenance, metrics, digest and spans to
/// `.bench_out/perfbench-<workload>-seed<n>-trace<t>.json`.
fn write_out(cfg: &RunConfig, prov: &Provenance, r: &Report) -> Result<(), String> {
    let dir = Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "perfbench-{}-seed{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    let passes: Vec<String> = r.spans.iter().map(|s| spans::to_json(s)).collect();
    let log: Vec<String> = r.log.iter().map(|l| json_str(l)).collect();
    let doc = format!(
        "{{{}, \"digest\": \"{:016x}\", \"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"log\": [{}], \"span_method\": \"events produced up front under workloads.gen / workloads.decode spans\", \"traced_passes\": [{}]}}\n",
        prov.json_fields(cfg),
        r.ledger.digest(),
        r.ledger.attempted,
        r.ledger.failed,
        metrics::metrics_json(&r.values),
        log.join(",\n"),
        passes.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}
