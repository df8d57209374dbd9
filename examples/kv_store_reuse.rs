//! The reused-VM story (paper §6.3), on a key-value-store workload.
//!
//! A memory-hungry SVM job runs in the VM and exits; the host keeps the
//! VM's memory, so all the huge-page backing survives. A Redis-like
//! workload then starts in the same VM. Systems that scatter new base
//! allocations across the formerly-huge regions destroy the alignment;
//! Gemini's huge bucket holds freed well-aligned regions and hands them
//! back wholesale.
//!
//! ```text
//! cargo run --release --example kv_store_reuse
//! ```

use gemini_harness::Scale;
use gemini_sim_core::VmId;
use gemini_vm_sim::{Machine, SystemKind};
use gemini_workloads::{spec_by_name, WorkloadGen};

fn run_reuse(system: SystemKind, scale: &Scale) -> (f64, u64, f64, f64) {
    let cfg = scale.machine_config(false, false, 11);
    let mut m = Machine::new(system, cfg);
    let vm: VmId = m.add_vm().expect("default MMU geometry is valid");
    // Phase 1: the SVM predecessor with a large working set.
    let svm = spec_by_name("SVM")
        .expect("SVM workload registered")
        .scaled(scale.ws_factor);
    m.run(vm, WorkloadGen::new(svm, scale.ops / 2, 3)).unwrap();
    m.clear_workload(vm).unwrap();
    // Phase 2: the reused VM runs Redis.
    let redis = spec_by_name("Redis")
        .expect("Redis workload registered")
        .scaled(scale.ws_factor);
    let r = m.run(vm, WorkloadGen::new(redis, scale.ops, 4)).unwrap();
    (
        r.throughput(),
        r.tlb_misses(),
        r.aligned_rate(),
        r.bucket_reuse_rate,
    )
}

fn main() {
    let scale = Scale::bench();
    println!("Reused-VM scenario: SVM (~large WS) runs, exits, Redis follows.\n");
    println!(
        "{:<14} {:>12} {:>12} {:>14} {:>14}",
        "system", "ops/s", "TLB misses", "aligned rate", "bucket reuse"
    );
    for system in [
        SystemKind::HostBVmB,
        SystemKind::Thp,
        SystemKind::Ingens,
        SystemKind::Gemini,
    ] {
        let (tput, misses, aligned, reuse) = run_reuse(system, &scale);
        println!(
            "{:<14} {:>12.0} {:>12} {:>13.0}% {:>13.0}%",
            system.label(),
            tput,
            misses,
            aligned * 100.0,
            reuse * 100.0,
        );
    }
    println!(
        "\nThe bucket column is Gemini-only: the share of freed well-aligned\n\
         regions handed back to later allocations (the paper reports 88%)."
    );
}
