//! The host-speed probe.
//!
//! On a shared host the same simulation can take 40% longer in one
//! minute than in the next, and the slow stretches last several
//! seconds, so medians over a run do not cancel them. The probe runs a
//! fixed loop of random read-modify-writes over a 16 MiB table — memory
//! bound, like the contention that slows the simulator on such hosts —
//! that depends on nothing in the simulator. It is interleaved with the
//! cells: one sample before every cell of every pass. The pass's slowdown is its mean sample duration over
//! [`REFERENCE_S`]; dividing the pass's timings by it gives seconds on a
//! host running at reference speed. Probe time is excluded from every
//! timing it normalizes.

use std::hint::black_box;
use std::time::Instant;

/// Duration of one sample on the reference host (a quiet 2-core
/// x86-64 VM at 2.1 GHz). Only the unit depends on it: a normalized
/// timing reads in seconds at this host's speed.
pub const REFERENCE_S: f64 = 0.0055;

/// Random read-modify-writes per sample.
const STEPS: u32 = 500_000;

/// The probe's working set: 16 MiB.
const TABLE_WORDS: usize = 1 << 21;

/// The probe table's size in MiB, which the process's peak resident set
/// includes.
pub const TABLE_MIB: f64 = (TABLE_WORDS * 8) as f64 / (1024.0 * 1024.0);

/// A reusable probe; owns its table so samples do no allocation.
#[derive(Debug)]
pub struct HostProbe {
    table: Vec<u64>,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// A probe with its table already touched.
    pub fn new() -> Self {
        Self {
            table: (0..TABLE_WORDS as u64).collect(),
        }
    }

    /// Runs the fixed loop once and returns its duration in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = (x as usize) & mask;
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc ^ x;
        }
        black_box(acc);
        start.elapsed().as_secs_f64()
    }
}
