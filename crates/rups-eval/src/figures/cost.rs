//! §V-A: computational cost of the SYN-point search.
//!
//! The paper bounds the search by `O(mwk)` (context length × window length
//! × window width) and measures ≈1.2 ms for a 1000 m context with a
//! 45-channel × 100 m window on an i7-2640M. We time the same kernel on
//! this machine across a small parameter grid and verify the linear
//! scaling in each parameter empirically. (The `rups-bench` crate holds the
//! Criterion version with proper statistics.)

use crate::series::{Figure, Series};
use rups_core::config::RupsConfig;
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::syn::find_best_syn;
use rups_core::testfield;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Parameters of the §V-A cost measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Params {
    /// Context lengths `m` to sweep, metres.
    pub context_lens_m: Vec<usize>,
    /// Window length `w`, metres (paper quotes 100 here).
    pub window_len_m: usize,
    /// Window width `k`, channels (paper: 45).
    pub window_channels: usize,
    /// Band width the contexts carry.
    pub n_channels: usize,
    /// Timed calls per point, interleaved across the context lengths;
    /// each point reports its fastest call.
    pub reps: usize,
}

impl Default for Params {
    fn default() -> Self {
        Self {
            context_lens_m: vec![250, 500, 1000, 2000],
            window_len_m: 100,
            window_channels: 45,
            n_channels: 194,
            reps: 5,
        }
    }
}

/// Smaller run for tests.
pub fn quick_params() -> Params {
    Params {
        context_lens_m: vec![100, 200],
        window_len_m: 40,
        window_channels: 16,
        n_channels: 32,
        reps: 15,
    }
}

/// Builds a synthetic journey context of `len` metres starting at road
/// metre `start`.
pub fn synthetic_context(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
    let mut t = GsmTrajectory::with_capacity(n_channels, len);
    for i in 0..len {
        let s = (start + i) as f64;
        t.push(&PowerVector::from_fn(n_channels, |ch| {
            Some(testfield::rssi(seed, s, ch))
        }));
    }
    t
}

/// Runs the measurement. Every repetition times one call per context
/// length, the lengths interleaved, and each point keeps its fastest call:
/// a slow phase of a shared machine then hits every length alike, and the
/// minimum is the least disturbed estimate of the search's cost.
pub fn run(p: &Params) -> Figure {
    let inputs: Vec<(RupsConfig, GsmTrajectory, GsmTrajectory)> = p
        .context_lens_m
        .iter()
        .map(|&m| {
            let cfg = RupsConfig {
                n_channels: p.n_channels,
                window_len_m: p.window_len_m.min(m / 2).max(10),
                window_channels: p.window_channels,
                max_context_m: m.max(1000),
                ..RupsConfig::default()
            };
            let a = synthetic_context(11, 0, m, p.n_channels);
            let b = synthetic_context(11, m / 3, m, p.n_channels);
            // Warm-up.
            let _ = find_best_syn(&a, &b, &cfg);
            (cfg, a, b)
        })
        .collect();
    let reps = p.reps.max(1);
    let mut y_ms = vec![f64::INFINITY; inputs.len()];
    for _ in 0..reps {
        for ((cfg, a, b), best) in inputs.iter().zip(&mut y_ms) {
            let t0 = Instant::now();
            let _ = find_best_syn(a, b, cfg);
            *best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let x: Vec<f64> = p.context_lens_m.iter().map(|&m| m as f64).collect();

    let mut notes = vec![format!(
        "double-sliding SYN search, window {} ch × {} m, fastest of {} interleaved calls",
        p.window_channels, p.window_len_m, reps
    )];
    if let (Some(&first), Some(&last)) = (y_ms.first(), y_ms.last()) {
        let m_ratio = *p.context_lens_m.last().unwrap() as f64 / p.context_lens_m[0] as f64;
        notes.push(format!(
            "time scales ≈linearly in m: {:.1}× time for {m_ratio:.1}× context",
            last / first.max(1e-9)
        ));
    }
    if let Some(i) = p.context_lens_m.iter().position(|&m| m == 1000) {
        notes.push(format!(
            "1000 m context: {:.2} ms per search (paper: ≈1.2 ms on an i7-2640M)",
            y_ms[i]
        ));
    }
    Figure {
        id: "sec5a".into(),
        title: "Computational cost of seeking a SYN point (O(mwk))".into(),
        notes,
        series: vec![Series::new(
            "search time (ms) vs context length (m)",
            x,
            y_ms,
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_grows_with_context_length() {
        let fig = run(&quick_params());
        let s = &fig.series[0];
        assert_eq!(s.x.len(), 2);
        assert!(s.y.iter().all(|&ms| ms > 0.0));
        // 2× context should take > 1.2× time (linear-ish; ample slack for
        // timer noise in debug builds). Each point is the fastest of several
        // calls interleaved across both lengths, so load from concurrently
        // running tests skews the ratio only if it slows every call of one
        // length and not the other's.
        assert!(s.y[1] > s.y[0] * 1.2, "times {:?}", s.y);
    }

    #[test]
    fn synthetic_context_shape() {
        let c = synthetic_context(1, 50, 80, 16);
        assert_eq!(c.len(), 80);
        assert_eq!(c.n_channels(), 16);
        assert!((c.coverage() - 1.0).abs() < 1e-12);
    }
}
