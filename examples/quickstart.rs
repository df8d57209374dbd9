//! Quickstart: run one workload under Linux THP and under Gemini on a
//! fragmented virtualized host, and compare what the paper cares about —
//! well-aligned huge pages, TLB misses and throughput.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gemini_harness::{run_workload_on, Scale};
use gemini_vm_sim::SystemKind;
use gemini_workloads::spec_by_name;

fn main() {
    let scale = Scale::bench();
    let spec = spec_by_name("Masstree").expect("Masstree is in the catalog");
    println!(
        "Running {} (working set {} MiB scaled) on fragmented memory...\n",
        spec.name,
        (spec.working_set as f64 * scale.ws_factor) as u64 >> 20
    );

    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>12}",
        "system", "ops/s", "TLB misses", "aligned rate", "p99 (µs)"
    );
    for system in [
        SystemKind::HostBVmB,
        SystemKind::Thp,
        SystemKind::Ingens,
        SystemKind::Gemini,
    ] {
        let r = run_workload_on(system, &spec, &scale, true, 7).expect("run succeeds");
        println!(
            "{:<14} {:>12.0} {:>12} {:>13.0}% {:>12.1}",
            r.system,
            r.throughput(),
            r.tlb_misses(),
            r.aligned_rate() * 100.0,
            r.p99_latency.as_micros_f64(),
        );
    }
    println!(
        "\nOnly huge pages aligned across BOTH translation layers cut TLB\n\
         misses; Gemini coordinates the layers, the baselines align by luck."
    );
}
