//! Prints the paper's evaluation tables: Figure 3 + Table 1, Figures
//! 8–11 + Table 3, Figures 12–15 + Table 4, Figure 16, Figures 17–18,
//! and the Algorithm 1 / preallocation-threshold ablations. Figure 2
//! lives in the `microbench` example.
//!
//! ```text
//! cargo run --release --example figures
//! GEMINI_SCALE=quick cargo run --release --example figures   # seconds, not minutes
//! ```
//!
//! `GEMINI_SCALE` (`quick` | `bench` | `full`, default `bench`) sizes
//! every grid and `GEMINI_JOBS` sets the worker count; the tables are
//! byte-identical at any worker count. EXPERIMENTS.md compares them
//! with the paper.

use gemini_harness::experiments::{
    ablations, breakdown, clean_slate, collocated, motivation, reused_vm,
};
use gemini_harness::Scale;
use gemini_vm_sim::SystemKind;

fn main() {
    let scale = Scale::from_env();
    let mib = |frames: u64| frames.saturating_mul(4096) >> 20;
    println!(
        "scale: ws_factor={:.3}, ops={}, host={} MiB, vm={} MiB (set GEMINI_SCALE to change)",
        scale.ws_factor,
        scale.ops,
        mib(scale.host_frames),
        mib(scale.vm_frames),
    );
    println!();

    let res = motivation::run(&scale).expect("motivation grid runs");
    print!("{}", res.render_fig03());
    println!();
    print!("{}", res.render_tab01());
    println!(
        "GEMINI mean well-aligned rate: {:.0}%",
        res.gemini_mean_aligned() * 100.0
    );

    println!();
    let res = clean_slate::run(&scale, None).expect("clean-slate grid runs");
    for fragmented in [true, false] {
        print!("{}", res.render_fig08(fragmented));
        println!();
        print!("{}", res.render_fig09(fragmented));
        println!();
        print!("{}", res.render_fig10(fragmented));
        println!();
    }
    print!("{}", res.render_fig11());
    println!();
    print!("{}", res.render_tab03());
    println!(
        "mean speedups over Host-B-VM-B (fragmented): GEMINI {:.2}x, Ingens {:.2}x, HawkEye {:.2}x, THP {:.2}x, Trans-ranger {:.2}x",
        res.mean_speedup(SystemKind::Gemini, true),
        res.mean_speedup(SystemKind::Ingens, true),
        res.mean_speedup(SystemKind::HawkEye, true),
        res.mean_speedup(SystemKind::Thp, true),
        res.mean_speedup(SystemKind::Ranger, true),
    );
    println!(
        "mean well-aligned rates: GEMINI {:.0}%, Ingens {:.0}%, HawkEye {:.0}%, THP {:.0}%",
        res.mean_aligned_rate(SystemKind::Gemini) * 100.0,
        res.mean_aligned_rate(SystemKind::Ingens) * 100.0,
        res.mean_aligned_rate(SystemKind::HawkEye) * 100.0,
        res.mean_aligned_rate(SystemKind::Thp) * 100.0,
    );

    println!();
    let res = reused_vm::run(&scale, None).expect("reused-VM grid runs");
    print!("{}", res.render_fig12());
    println!();
    print!("{}", res.render_fig13());
    println!();
    print!("{}", res.render_fig14());
    println!();
    print!("{}", res.render_fig15());
    println!();
    print!("{}", res.render_tab04());
    println!(
        "GEMINI huge-bucket mean reuse rate: {:.0}% (paper: 88%)",
        res.mean_bucket_reuse() * 100.0
    );

    println!();
    let res = breakdown::run(&scale, None).expect("breakdown ablation runs");
    print!("{}", res.render_fig16());

    println!();
    let res = collocated::run(&scale, None).expect("collocated grid runs");
    print!("{}", res.render_fig17());
    println!();
    print!("{}", res.render_fig18());
    println!(
        "GEMINI worst-case overhead on the non-TLB-sensitive VM: {:.1}% (paper: <= 3%)",
        res.gemini_nonsensitive_overhead() * 100.0
    );

    println!();
    let res = ablations::run_timeout(&scale, "Masstree").expect("timeout ablation runs");
    print!("{}", res.render());
    println!();
    let res = ablations::run_prealloc(&scale, "Xapian").expect("preallocation sweep runs");
    print!("{}", res.render());
}
