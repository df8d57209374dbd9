//! Applicability and overhead with collocated VMs (paper §6.5).
//!
//! Two 16-vCPU VMs share the host: one runs a TLB-sensitive key-value
//! store, the other a non-TLB-sensitive database (Shore). Gemini should
//! speed up the sensitive VM while costing the insensitive one nothing
//! (the paper measures ≤ 3 % overhead).
//!
//! ```text
//! cargo run --release --example collocated_vms
//! ```

use gemini_harness::experiments::collocated;
use gemini_harness::Scale;

fn main() {
    let scale = Scale::bench();
    let res = collocated::run(&scale, Some(&[("Masstree", "Shore")])).expect("runs succeed");
    print!("{}", res.render_fig17());
    print!("{}", res.render_fig18());
    println!(
        "\nGemini overhead on the non-TLB-sensitive VM: {:.1}%  (paper: <= 3%)",
        res.gemini_nonsensitive_overhead() * 100.0
    );
}
