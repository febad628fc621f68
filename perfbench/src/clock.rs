//! Timing at reference speed.
//!
//! The benchmark runs on a vCPU whose physical core is shared with other
//! tenants. When the sibling hardware thread is busy, floating-point
//! throughput on this vCPU roughly halves; the phases switch within tens of
//! milliseconds and last from a moment to minutes, so a run's plain wall
//! times depend on when it ran more than on the program.
//!
//! [`Clock`] times a short reference kernel between the intervals it
//! measures. Each interval's wall time is divided by the mean of the
//! kernel's times just before and just after it, then multiplied by
//! [`REFERENCE_S`], the kernel's time on an uncontended core: the result is
//! the interval's length at reference speed. The kernel mixes
//! port-throughput-bound floating-point adds, which slow with the sibling
//! thread, and a dependent integer chain, which does not, in about the
//! proportion the pairwise fix slows by.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The reference kernel's wall time on an uncontended core of the machine
/// the benchmark was written on (2 vCPUs of a 2.0 GHz Xeon, Sapphire
/// Rapids), seconds.
pub const REFERENCE_S: f64 = 0.45e-3;

/// Times intervals at reference speed.
pub(crate) struct Clock {
    /// The reference kernel's latest wall time, seconds.
    last_s: f64,
    /// Every reference time taken, seconds.
    references_s: Vec<f64>,
}

impl Clock {
    /// A clock with one reference time taken.
    pub(crate) fn new() -> Self {
        let first = reference_s();
        Clock {
            last_s: first,
            references_s: vec![first],
        }
    }

    /// Runs `f` and returns its result with its wall time and its time at
    /// reference speed, both in seconds.
    pub(crate) fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Interval) {
        let started = Instant::now();
        let out = f();
        let wall_s = started.elapsed().as_secs_f64();
        let after = reference_s();
        let speed = (self.last_s + after) / 2.0;
        self.last_s = after;
        self.references_s.push(after);
        (
            out,
            Interval {
                wall_s,
                ref_s: wall_s * REFERENCE_S / speed,
            },
        )
    }

    /// Median reference time over [`REFERENCE_S`]: 1 on an uncontended
    /// core, about 2 while the sibling thread is busy throughout.
    pub(crate) fn slowdown(&self) -> f64 {
        let mut xs = self.references_s.clone();
        crate::stats::quantile(&mut xs, 0.5) / REFERENCE_S
    }
}

/// One measured interval.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Interval {
    /// Seconds on the wall clock.
    pub wall_s: f64,
    /// Seconds at reference speed.
    pub ref_s: f64,
}

impl std::ops::AddAssign for Interval {
    fn add_assign(&mut self, other: Interval) {
        self.wall_s += other.wall_s;
        self.ref_s += other.ref_s;
    }
}

/// Runs the reference kernel once and returns its wall time in seconds.
fn reference_s() -> f64 {
    static ROW: OnceLock<Vec<f64>> = OnceLock::new();
    let row = ROW.get_or_init(|| (0..2048).map(|i| ((i * 7919) % 1000) as f64).collect());
    let started = Instant::now();
    black_box(sliding_sums(black_box(row), 16));
    black_box(chain(black_box(40_000)));
    started.elapsed().as_secs_f64()
}

/// Largest 45-wide window sum over `row`, `reps` times: independent add
/// chains, bound by floating-point port throughput. `row` stays in L1, so
/// the kernel evicts little of what the measured program cached.
fn sliding_sums(row: &[f64], reps: usize) -> f64 {
    let mut best = 0.0;
    for _ in 0..reps {
        for window in row.windows(45) {
            let s: f64 = window.iter().sum();
            if s > best {
                best = s;
            }
        }
    }
    best
}

/// A dependent multiply-rotate-xor chain: bound by latency, which the
/// sibling thread barely changes.
fn chain(n: u64) -> u64 {
    let mut x = 1u64;
    for i in 0..n {
        x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ i;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernels_read_their_reference_time_at_any_speed() {
        // An interval that runs the reference kernel k times lasts k
        // reference times, however fast the host is at the moment.
        let k = 8;
        let mut clock = Clock::new();
        let mut reads: Vec<f64> = (0..5)
            .map(|_| {
                let ((), t) = clock.time(|| (0..k).for_each(|_| _ = reference_s()));
                t.ref_s / (k as f64 * REFERENCE_S)
            })
            .collect();
        let median = crate::stats::quantile(&mut reads, 0.5);
        assert!((0.7..1.4).contains(&median), "{reads:?}");
    }
}
