//! The paper's Figure 2 microbenchmark, at quick scale.
//!
//! Randomly accesses a growing dataset under the four static page-size
//! configurations. Watch the separation appear once the dataset exceeds
//! base-page TLB coverage — and note that the two *misaligned*
//! configurations (huge pages at only one layer) barely improve on base
//! pages.
//!
//! ```text
//! cargo run --release --example microbench
//! ```

use gemini_harness::experiments::fig02;
use gemini_harness::Scale;

fn main() {
    let scale = Scale::bench();
    let results = fig02::run(&scale).expect("sweep succeeds");
    print!("{}", results.render());
    println!(
        "\naligned speedup at smallest dataset: {:.2}x (should be ~1)",
        results.aligned_speedup_at_min()
    );
    println!(
        "aligned speedup at largest dataset:  {:.2}x (the paper's gap)",
        results.aligned_speedup_at_max()
    );
}
