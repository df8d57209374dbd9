//! Experiment scale presets.
//!
//! The simulator keeps the TLB at its real size (1536 L2 entries), so the
//! regime of an experiment is set by the ratio of working-set size to TLB
//! coverage, not by absolute bytes. Scales shrink working sets and op
//! counts together so the quick preset finishes in seconds while the full
//! preset matches DESIGN.md §5.

use gemini_sim_core::derive_seed;
use gemini_vm_sim::MachineConfig;

/// The `MachineConfig::fragment_*` value of fragmented runs: the
/// paper's FMFI target (§6.1). The machine only checks that it is
/// positive; the fragmenter pins one frame in every huge region, which
/// leaves the FMFI near 1 whatever the target.
pub(crate) const PAPER_FMFI_TARGET: f64 = 0.9;

/// A coherent set of sizing knobs for one experiment run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Multiplier on each workload's working-set size.
    pub ws_factor: f64,
    /// Operations per workload run.
    pub ops: u64,
    /// Host physical frames.
    pub host_frames: u64,
    /// Guest physical frames per VM.
    pub vm_frames: u64,
    /// Base seed; experiments derive per-run seeds from it.
    pub seed: u64,
    /// Worker threads for experiment grids: 0 = available parallelism,
    /// 1 = sequential, N = exactly N threads. Results are byte-identical
    /// for every setting; this knob only trades wall-clock time.
    pub jobs: usize,
    /// Disables the event-driven fast-forward core (`--no-ff`): every
    /// event steps through the faithful slow path and every scheduler
    /// step runs a daemon pass, even when the pass is provably a
    /// no-op. Results are byte-identical with fast-forward on or off —
    /// this escape hatch exists so the parity suite (and a suspicious
    /// user) can prove that claim on any cell; it only costs wall time.
    pub no_ff: bool,
}

impl Scale {
    /// Seconds-fast preset for examples and integration tests.
    pub fn quick() -> Self {
        Self {
            ws_factor: 1.0 / 16.0,
            ops: 2_500,
            host_frames: 1 << 16, // 256 MiB.
            vm_frames: 1 << 15,   // 128 MiB.
            seed: 42,
            jobs: 0,
            no_ff: false,
        }
    }

    /// The calibrated preset, named `bench` or `demo`: working sets and
    /// run lengths where the background daemons differentiate the
    /// systems the way the paper's figures do. The default of
    /// [`Scale::from_env`] (the `figures` example) and of the CLI, and
    /// the preset of the runnable examples; one cell finishes in
    /// seconds, all grids in minutes.
    pub fn bench() -> Self {
        Self {
            ws_factor: 0.25,
            ops: 8_000,
            host_frames: 1 << 18, // 1 GiB.
            vm_frames: 1 << 17,   // 512 MiB.
            seed: 42,
            jobs: 0,
            no_ff: false,
        }
    }

    /// Full-size preset (DESIGN.md §5): working sets at catalog size.
    pub fn full() -> Self {
        Self {
            ws_factor: 1.0,
            ops: 20_000,
            host_frames: 1 << 19, // 2 GiB.
            vm_frames: 1 << 18,   // 1 GiB.
            seed: 42,
            jobs: 0,
            no_ff: false,
        }
    }

    /// The preset called `name`: `quick`, `demo`, `bench` or `full`
    /// (`demo` and `bench` name the same preset).
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "demo" | "bench" => Some(Self::bench()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Reads `GEMINI_SCALE` (a preset name for [`Scale::by_name`];
    /// defaults to `bench`) and `GEMINI_JOBS` (worker threads for
    /// experiment cells; `0` = available parallelism).
    pub fn from_env() -> Self {
        let mut scale = preset_or_bench(std::env::var("GEMINI_SCALE").ok().as_deref());
        if let Ok(jobs) = std::env::var("GEMINI_JOBS") {
            if let Some(jobs) = parse_jobs(&jobs) {
                scale.jobs = jobs;
            }
        }
        scale
    }

    /// Builds the machine configuration for this scale.
    pub fn machine_config(&self, fragmented: bool, zero_heavy: bool, seed: u64) -> MachineConfig {
        MachineConfig {
            host_frames: self.host_frames,
            vm_frames: self.vm_frames,
            fragment_guest: fragmented.then_some(PAPER_FMFI_TARGET),
            fragment_host: fragmented.then_some(PAPER_FMFI_TARGET),
            zero_heavy,
            seed,
            no_ff: self.no_ff,
            ..MachineConfig::default()
        }
    }

    /// Machine config for the collocation experiments: two VMs, 16 vCPUs
    /// each, double the host memory.
    pub fn collocated_config(&self, seed: u64) -> MachineConfig {
        MachineConfig {
            host_frames: self.host_frames * 2,
            vm_frames: self.vm_frames,
            vcpus: 16,
            fragment_guest: Some(PAPER_FMFI_TARGET),
            fragment_host: Some(PAPER_FMFI_TARGET),
            seed,
            no_ff: self.no_ff,
            ..MachineConfig::default()
        }
    }

    /// A run-specific seed derived from the base seed.
    ///
    /// Delegates to [`gemini_sim_core::derive_seed`], the single seed
    /// derivation used across the workspace. Experiments call this once
    /// per cell *before* handing cells to the parallel executor, so a
    /// run's stream depends only on `(seed, tag, index)` — never on
    /// thread count or scheduling.
    pub fn seed_for(&self, tag: &str, index: u64) -> u64 {
        derive_seed(self.seed, tag, index)
    }
}

/// Interprets the `GEMINI_SCALE` value, if set: a preset name, or the
/// `bench` default. An unknown name gets a stderr warning instead of a
/// silent fallback, as in [`parse_jobs`].
fn preset_or_bench(raw: Option<&str>) -> Scale {
    let Some(name) = raw else {
        return Scale::bench();
    };
    Scale::by_name(name).unwrap_or_else(|| {
        eprintln!("warning: GEMINI_SCALE={name:?} is not quick, demo, bench or full; using bench");
        Scale::bench()
    })
}

/// Interprets one `GEMINI_JOBS` value: `Some(n)` applies `n` (`0`
/// means "available parallelism", per the [`Scale::jobs`] contract),
/// `None` keeps the preset default. A value that is present but not a
/// number gets a stderr warning instead of a silent fallback, so a
/// typo like `GEMINI_JOBS=two` does not quietly run a different
/// thread count than the user asked for.
fn parse_jobs(raw: &str) -> Option<usize> {
    match raw.parse::<usize>() {
        Ok(jobs) => Some(jobs),
        Err(_) => {
            eprintln!("warning: GEMINI_JOBS={raw:?} is not a number; using the scale default");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        let q = Scale::quick();
        let b = Scale::bench();
        let f = Scale::full();
        assert!(q.ws_factor < b.ws_factor && b.ws_factor < f.ws_factor);
        assert!(q.ops < b.ops && b.ops < f.ops);
        assert!(q.host_frames < b.host_frames);
    }

    #[test]
    fn machine_config_carries_fragmentation() {
        let s = Scale::quick();
        let frag = s.machine_config(true, false, 1);
        assert_eq!(frag.fragment_guest, Some(0.9));
        let clean = s.machine_config(false, true, 1);
        assert_eq!(clean.fragment_guest, None);
        assert!(clean.zero_heavy);
    }

    #[test]
    fn no_ff_propagates_to_both_machine_configs() {
        let mut s = Scale::quick();
        assert!(!s.machine_config(false, false, 1).no_ff);
        assert!(!s.collocated_config(1).no_ff);
        s.no_ff = true;
        assert!(s.machine_config(false, false, 1).no_ff);
        assert!(s.collocated_config(1).no_ff);
    }

    #[test]
    fn scale_names_resolve_and_unknown_names_fall_back_to_bench() {
        for (name, preset) in [
            ("quick", Scale::quick()),
            ("demo", Scale::bench()),
            ("bench", Scale::bench()),
            ("full", Scale::full()),
        ] {
            let by_name = Scale::by_name(name).expect("preset name");
            assert_eq!(format!("{by_name:?}"), format!("{preset:?}"));
            let env = preset_or_bench(Some(name));
            assert_eq!(format!("{env:?}"), format!("{preset:?}"), "{name}");
        }
        let bench = format!("{:?}", Scale::bench());
        assert_eq!(format!("{:?}", preset_or_bench(None)), bench);
        // Each of these warns, then keeps the default.
        for unknown in ["qiuck", "", "Quick", "galactic"] {
            assert!(Scale::by_name(unknown).is_none(), "{unknown:?}");
            assert_eq!(format!("{:?}", preset_or_bench(Some(unknown))), bench);
        }
    }

    #[test]
    fn collocated_config_uses_16_vcpus() {
        let c = Scale::quick().collocated_config(1);
        assert_eq!(c.vcpus, 16);
        assert_eq!(c.host_frames, Scale::quick().host_frames * 2);
    }

    #[test]
    fn jobs_values_parse_with_zero_meaning_auto() {
        assert_eq!(parse_jobs("3"), Some(3));
        // `0` is the documented "available parallelism" setting, not an
        // error; `effective_jobs` resolves it to >= 1 worker.
        assert_eq!(parse_jobs("0"), Some(0));
        assert_eq!(crate::effective_jobs(0).max(1), crate::effective_jobs(0));
    }

    #[test]
    fn garbage_jobs_values_keep_the_preset_default() {
        // Each of these used to be dropped with no diagnostic at all;
        // now they warn and leave the preset's `jobs` untouched.
        for garbage in ["two", "", "-1", "1.5", "0x4"] {
            assert_eq!(parse_jobs(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn seeds_differ_per_tag_and_index() {
        let s = Scale::quick();
        assert_ne!(s.seed_for("a", 0), s.seed_for("b", 0));
        assert_ne!(s.seed_for("a", 0), s.seed_for("a", 1));
        assert_eq!(s.seed_for("a", 0), s.seed_for("a", 0));
        // seed_for IS derive_seed — one derivation across the workspace.
        assert_eq!(s.seed_for("a", 3), derive_seed(s.seed, "a", 3));
    }
}
