//! Host-speed calibration.
//!
//! The shared host's speed drifts, by up to a third between stretches of a
//! minute (see README), and a run is too short to average that out. So
//! every task times a short, fixed probe at its start, at its end, and
//! every [`PACE`] of work in between (see [`crate::rec::Clock`]); host
//! times are reported scaled to the speed at which one probe takes
//! [`NOMINAL_NS`], with probe time excluded.
//!
//! The probe is a dependent chain of register-only integer arithmetic. It
//! loads and stores nothing, so the program's footprint and cache state
//! cannot move it, and it evicts none of the program's cache lines while it
//! runs inside a measured phase. It tracks what slows the core (clock
//! frequency, a busy sibling thread), not contention for the shared cache
//! or memory.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Probe nanoseconds that define nominal host speed.
pub const NOMINAL_NS: f64 = 100_000.0;

/// Longest stretch of measured work between two probes.
pub const PACE: Duration = Duration::from_millis(10);

const STEPS: u64 = 40_000;

/// Runs the probe once; returns its host duration in ns.
pub fn probe() -> u64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..black_box(STEPS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_nanos() as u64
}
