//! Provenance stamped into every output: source revision, seed, run
//! length, host parallelism and the benchmark's own settings.

use crate::run::RunConfig;
use std::path::Path;

/// Where and how a run was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// Git revision of the checkout, or `unknown` outside a git tree.
    pub rev: String,
    /// `std::thread::available_parallelism` (the benchmark itself runs
    /// on one thread).
    pub parallelism: usize,
}

impl Provenance {
    /// Collects provenance for a run started in `root`.
    pub fn collect(root: &Path) -> Self {
        Self {
            rev: git_rev(root).unwrap_or_else(|| "unknown".to_string()),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// One `key=value` line describing the run.
    pub fn line(&self, cfg: &RunConfig) -> String {
        format!(
            "perfbench rev={} workload={} seed={} seconds={} trace={} ops={} min_passes={} micro_rounds={} available_parallelism={} threads=1",
            self.rev,
            cfg.workload.name(),
            cfg.seed,
            cfg.seconds,
            u8::from(cfg.trace),
            cfg.ops,
            cfg.min_passes,
            cfg.micro_rounds,
            self.parallelism,
        )
    }

    /// The same facts as a JSON object body (no braces).
    pub fn json_fields(&self, cfg: &RunConfig) -> String {
        format!(
            "\"rev\": \"{}\", \"workload\": \"{}\", \"seed\": \"{}\", \"seconds\": {}, \"trace\": {}, \"ops\": {}, \"min_passes\": {}, \"micro_rounds\": {}, \"available_parallelism\": {}, \"threads\": 1",
            self.rev,
            cfg.workload.name(),
            cfg.seed,
            crate::metrics::json_number(cfg.seconds),
            cfg.trace,
            cfg.ops,
            cfg.min_passes,
            cfg.micro_rounds,
            self.parallelism,
        )
    }
}

/// Reads the revision from the `.git` directory under `root`, without
/// running git: `HEAD` is either a hash or a ref resolved through the
/// loose ref file or `packed-refs`.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
