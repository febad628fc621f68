//! The dense SYN scan: rolling statistics with an exact pruned peak.
//!
//! The reference double-sliding check costs `O(mwk)` (§V-A): every window
//! placement recomputes per-channel sums over `w` metres. After
//! missing-channel interpolation the rows are dense, and one directed pass
//! splits into three layers:
//!
//! * **lane accumulators** — the per-channel sliding dot products
//!   `Σ f_i · s_{j+i}` (`lane_dot`) and the fixed-window `(Σx, Σx²)`
//!   ([`sum_sumsq`]), each hand-unrolled into four f64 lanes combined in a
//!   fixed order;
//! * **rolling statistics** — per-channel sliding-window sums and sums of
//!   squares, seeded once and updated in `O(1)` per placement
//!   (`accumulate_dense_channel`), feeding the same `PairSums → Pearson`
//!   math as the reference;
//! * **pruned peak** — the peak search skips the mean-profile correlation
//!   of placements whose score upper bound (mean per-channel Pearson plus
//!   the profile term's hard cap of 1) cannot beat the current best
//!   (`combine_dense_peak`); the bound is exact, so the pruned argmax is
//!   bit-identical to the full scan.
//!
//! Scores match the reference implementation to floating-point rounding.
//! Callers fall back to the non-finite-aware reference scan when a
//! selected channel contains missing or corrupt values. All buffers come
//! from a process-wide scratch pool (`with_scratch`) or the engine's own
//! pool, so steady-state passes allocate nothing.

use crate::gsm::GsmTrajectory;
use crate::stats::{self, PairSums};
use crate::window::CheckWindow;
use std::sync::{Mutex, OnceLock};

/// Every buffer a dense directed pass needs, pooled via [`with_scratch`]
/// (and embedded in the engine's per-query scratch arena) so repeated
/// passes perform no allocation after warm-up.
#[derive(Default)]
pub(crate) struct DenseScratch {
    /// `f64` staging of the current channel's fixed-window row.
    pub fixed64: Vec<f64>,
    /// `f64` staging of the current channel's sliding row.
    pub sliding64: Vec<f64>,
    /// Fixed·sliding dot products of the current channel, per placement.
    pub dots: Vec<f64>,
    /// Per-placement Σ of defined per-channel Pearsons / their count.
    pub chan_sum: Vec<f64>,
    pub chan_n: Vec<u32>,
    /// Fixed-window means per channel and sliding-window means per
    /// channel per placement (f32, matching the reference quantisation).
    pub mean_f: Vec<f32>,
    pub mean_s: Vec<Vec<f32>>,
    /// Mean-profile staging for one placement.
    pub profile: Vec<f32>,
    /// Final per-placement scores (full-combine and fallback paths only).
    pub scores: Vec<f64>,
}

impl DenseScratch {
    /// Resets the per-pass accumulators for `n_pos` placements over `k`
    /// window channels. Capacity is retained.
    fn prepare(&mut self, n_pos: usize, k: usize) {
        self.chan_sum.clear();
        self.chan_sum.resize(n_pos, 0.0);
        self.chan_n.clear();
        self.chan_n.resize(n_pos, 0);
        self.mean_f.clear();
        while self.mean_s.len() < k {
            self.mean_s.push(Vec::new());
        }
    }
}

/// The best placement of a directed pass: `(j, score, refine)`, with `j`
/// the placement index and `refine` the parabolic sub-metre refinement.
pub(crate) type Peak = (usize, f64, f64);

fn scratch_pool() -> &'static Mutex<Vec<DenseScratch>> {
    static POOL: OnceLock<Mutex<Vec<DenseScratch>>> = OnceLock::new();
    POOL.get_or_init(|| Mutex::new(Vec::new()))
}

/// Runs `f` with a pooled [`DenseScratch`], returning the arena to the
/// pool afterwards. The pool grows to the peak number of concurrent
/// callers and never shrinks, so steady-state calls are allocation-free.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut DenseScratch) -> R) -> R {
    let popped = scratch_pool()
        .lock()
        .expect("syn_fast scratch pool poisoned")
        .pop();
    let mut s = popped.unwrap_or_default();
    let r = f(&mut s);
    scratch_pool()
        .lock()
        .expect("syn_fast scratch pool poisoned")
        .push(s);
    r
}

/// Rolling dense scan writing the full score vector into `out` — the
/// production scan behind [`crate::syn::slide_scores`] for dense inputs.
/// Returns `false` (and leaves `out` untouched) when a selected channel
/// carries a non-finite value, in which case the caller runs the
/// per-placement recompute-of-record instead.
pub(crate) fn dense_scores_into(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    out: &mut Vec<f64>,
) -> bool {
    let w = window.len_m;
    if sliding.len() < w || w == 0 {
        return false;
    }
    let n_pos = sliding.len() - w + 1;
    let k = window.channels.len();
    with_scratch(|s| {
        if !dense_pass(fixed, fixed_start, sliding, window, s) {
            return false;
        }
        combine_dense_scores(
            n_pos,
            &s.mean_f,
            &s.mean_s[..k],
            &s.chan_sum,
            &s.chan_n,
            &mut s.profile,
            out,
        );
        true
    })
}

/// Rolling dense pass followed by the pruned peak search: the best
/// placement `(j, score, refine)` — bit-identical to
/// `syn::peak(&syn::slide_scores(..))` — plus the number of placements
/// whose mean-profile correlation was skipped.
///
/// Outer `None` means the pass could not run (a selected row carries a
/// non-finite value, or the window does not fit) and the caller must fall
/// back to the reference scan; an inner `None` means every placement was
/// undefined.
pub(crate) fn dense_peak(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    s: &mut DenseScratch,
) -> Option<(Option<Peak>, u64)> {
    let w = window.len_m;
    if sliding.len() < w || w == 0 || !dense_pass(fixed, fixed_start, sliding, window, s) {
        return None;
    }
    let n_pos = sliding.len() - w + 1;
    let k = window.channels.len();
    Some(combine_dense_peak(
        n_pos,
        &s.mean_f,
        &s.mean_s[..k],
        &s.chan_sum,
        &s.chan_n,
        &mut s.profile,
    ))
}

/// One dense directed pass: per selected channel, stages the fixed and
/// sliding rows as `f64`, computes the per-placement dot products with
/// [`lane_dot`], and accumulates the rolling per-placement statistics into
/// `s.chan_sum`/`s.chan_n`/`s.mean_f`/`s.mean_s`. Requires
/// `sliding.len() >= window.len_m`.
///
/// Returns `false` without touching the accumulators' meaning when any
/// selected row carries a non-finite value — the dense scan assumes
/// full-support windows, and [`PairSums`] would otherwise silently skip
/// samples the `n = w` shortcut still counts.
fn dense_pass(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    s: &mut DenseScratch,
) -> bool {
    let w = window.len_m;
    let n_pos = sliding.len() - w + 1;
    let k = window.channels.len();
    for &ch in &window.channels {
        if fixed.channel(ch)[fixed_start..fixed_start + w]
            .iter()
            .any(|v| !v.is_finite())
            || sliding.channel(ch).iter().any(|v| !v.is_finite())
        {
            return false;
        }
    }
    s.prepare(n_pos, k);
    for (ci, &ch) in window.channels.iter().enumerate() {
        s.fixed64.clear();
        s.fixed64.extend(
            fixed.channel(ch)[fixed_start..fixed_start + w]
                .iter()
                .map(|&v| v as f64),
        );
        s.sliding64.clear();
        s.sliding64
            .extend(sliding.channel(ch).iter().map(|&v| v as f64));
        s.dots.clear();
        for j in 0..n_pos {
            s.dots.push(lane_dot(&s.fixed64, &s.sliding64[j..j + w]));
        }
        let (sum_f, sumsq_f) = sum_sumsq(&s.fixed64);
        let row = &mut s.mean_s[ci];
        row.clear();
        let mf = accumulate_dense_channel(
            w,
            n_pos,
            sum_f,
            sumsq_f,
            &s.dots,
            &s.sliding64,
            &mut s.chan_sum,
            &mut s.chan_n,
            row,
        );
        s.mean_f.push(mf);
    }
    true
}

/// Dot product hand-unrolled into four independent f64 lanes (combined in
/// a fixed `(0+1)+(2+3)` order), for the rolling scan's per-placement dots.
#[inline]
fn lane_dot(f: &[f64], s: &[f64]) -> f64 {
    debug_assert_eq!(f.len(), s.len());
    let mut acc = [0.0f64; 4];
    let mut fc = f.chunks_exact(4);
    let mut sc = s.chunks_exact(4);
    for (cf, cs) in (&mut fc).zip(&mut sc) {
        acc[0] += cf[0] * cs[0];
        acc[1] += cf[1] * cs[1];
        acc[2] += cf[2] * cs[2];
        acc[3] += cf[3] * cs[3];
    }
    let mut out = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (a, b) in fc.remainder().iter().zip(sc.remainder()) {
        out += a * b;
    }
    out
}

/// `(Σx, Σx²)` of a row in one pass, hand-unrolled into four independent
/// f64 lanes — the fixed-window and seed-window sum builder of the rolling
/// scan. Lane partials are combined in a fixed `(0+1)+(2+3)` order, so
/// results are deterministic (though not bit-identical to a sequential
/// fold).
pub fn sum_sumsq(x: &[f64]) -> (f64, f64) {
    let mut s = [0.0f64; 4];
    let mut q = [0.0f64; 4];
    let mut chunks = x.chunks_exact(4);
    for c in &mut chunks {
        s[0] += c[0];
        q[0] += c[0] * c[0];
        s[1] += c[1];
        q[1] += c[1] * c[1];
        s[2] += c[2];
        q[2] += c[2] * c[2];
        s[3] += c[3];
        q[3] += c[3] * c[3];
    }
    let (mut sum, mut sumsq) = ((s[0] + s[1]) + (s[2] + s[3]), (q[0] + q[1]) + (q[2] + q[3]));
    for &v in chunks.remainder() {
        sum += v;
        sumsq += v * v;
    }
    (sum, sumsq)
}

/// Accumulates one dense channel's per-placement Pearson contributions into
/// `chan_sum`/`chan_n`, pushes the per-placement sliding-window means into
/// `means_row`, and returns the fixed-window mean. `dots[j]` must be the
/// fixed·sliding dot product at placement `j`; the window sums over
/// `s_row` are **rolled** — seeded once over `[0, w)` and updated in `O(1)`
/// per placement — rather than rebuilt, turning the `O(mw)` statistics
/// sweep into `O(m)`.
///
/// This is the placement-dependent half of Eq. (2); it reuses the exact
/// `PairSums → Pearson` math of the reference path so thresholds and
/// degenerate-variance handling agree.
#[allow(clippy::too_many_arguments)]
fn accumulate_dense_channel(
    w: usize,
    n_pos: usize,
    sum_f: f64,
    sumsq_f: f64,
    dots: &[f64],
    s_row: &[f64],
    chan_sum: &mut [f64],
    chan_n: &mut [u32],
    means_row: &mut Vec<f32>,
) -> f32 {
    let (mut sum_s, mut sumsq_s) = sum_sumsq(&s_row[..w]);
    for j in 0..n_pos {
        if j > 0 {
            let dropped = s_row[j - 1];
            let added = s_row[j + w - 1];
            sum_s += added - dropped;
            sumsq_s += added * added - dropped * dropped;
        }
        let sums = PairSums {
            n: w,
            sum_a: sum_f,
            sum_b: sum_s,
            sum_aa: sumsq_f,
            sum_bb: sumsq_s,
            sum_ab: dots[j],
        };
        if let Some(r) = sums.pearson() {
            chan_sum[j] += r;
            chan_n[j] += 1;
        }
        means_row.push((sum_s / w as f64) as f32);
    }
    (sum_f / w as f64) as f32
}

/// The Eq. (2) score of placement `j` from the per-channel accumulators:
/// mean per-channel Pearson plus the mean-profile Pearson; NaN when either
/// term is undefined. `profile` is a caller-provided `k`-length staging
/// buffer.
fn dense_score_at(
    j: usize,
    mean_f: &[f32],
    mean_s: &[Vec<f32>],
    chan_sum: &[f64],
    chan_n: &[u32],
    profile: &mut [f32],
) -> f64 {
    if chan_n[j] == 0 {
        return f64::NAN;
    }
    for (slot, row) in profile.iter_mut().zip(mean_s) {
        *slot = row[j];
    }
    match stats::pearson(mean_f, profile) {
        Some(mp) => chan_sum[j] / chan_n[j] as f64 + mp,
        None => f64::NAN,
    }
}

/// Combines the per-channel accumulators of [`accumulate_dense_channel`]
/// into final Eq. (2) scores, appending one score per placement to
/// `scores`.
fn combine_dense_scores(
    n_pos: usize,
    mean_f: &[f32],
    mean_s: &[Vec<f32>],
    chan_sum: &[f64],
    chan_n: &[u32],
    profile: &mut Vec<f32>,
    scores: &mut Vec<f64>,
) {
    let k = mean_f.len();
    profile.clear();
    profile.resize(k, 0.0);
    for j in 0..n_pos {
        scores.push(dense_score_at(j, mean_f, mean_s, chan_sum, chan_n, profile));
    }
}

/// Pruned peak search over the dense accumulators: returns the first
/// maximum `(j, score, refine)` exactly as `syn::peak(full_scores)` would,
/// plus the number of placements whose mean-profile Pearson was skipped.
///
/// The upper bound is exact, not heuristic: the profile term is clamped to
/// `[−1, 1]` by [`PairSums::pearson`], so `score(j) ≤ partial(j) + 1`, and
/// IEEE addition is monotonic — `fl(partial + profile) ≤ fl(partial + 1)`.
/// A placement with `fl(partial + 1) ≤ best` therefore can never satisfy
/// the strict `score > best` test of the reference first-max scan, and
/// skipping its `O(k)` profile correlation cannot change the argmax. The
/// peak's neighbours are evaluated exactly afterwards, so the parabolic
/// refinement is bit-identical too.
fn combine_dense_peak(
    n_pos: usize,
    mean_f: &[f32],
    mean_s: &[Vec<f32>],
    chan_sum: &[f64],
    chan_n: &[u32],
    profile: &mut Vec<f32>,
) -> (Option<Peak>, u64) {
    let k = mean_f.len();
    profile.clear();
    profile.resize(k, 0.0);
    let mut best: Option<(usize, f64)> = None;
    let mut pruned = 0u64;
    for j in 0..n_pos {
        if chan_n[j] == 0 {
            continue;
        }
        if let Some((_, b)) = best {
            let partial = chan_sum[j] / chan_n[j] as f64;
            if partial + 1.0 <= b {
                pruned += 1;
                continue;
            }
        }
        let score = dense_score_at(j, mean_f, mean_s, chan_sum, chan_n, profile);
        if score.is_nan() {
            continue;
        }
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((j, score));
        }
    }
    let Some((i, sc)) = best else {
        return (None, pruned);
    };
    // Exact neighbours for the parabolic refinement, mirroring syn::peak.
    let refine = if i > 0 && i + 1 < n_pos {
        let l = dense_score_at(i - 1, mean_f, mean_s, chan_sum, chan_n, profile);
        let r = dense_score_at(i + 1, mean_f, mean_s, chan_sum, chan_n, profile);
        if l.is_nan() || r.is_nan() {
            0.0
        } else {
            let denom = l - 2.0 * sc + r;
            if denom.abs() < 1e-12 {
                0.0
            } else {
                (0.5 * (l - r) / denom).clamp(-0.5, 0.5)
            }
        }
    } else {
        0.0
    };
    (Some((i, sc, refine)), pruned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RupsConfig;
    use crate::gsm::PowerVector;
    use crate::syn::{self, find_best_syn};
    use crate::testfield;

    fn dense_traj(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
        let mut t = GsmTrajectory::with_capacity(n_channels, len);
        for i in 0..len {
            let s = (start + i) as f64;
            t.push(&PowerVector::from_fn(n_channels, |ch| {
                Some(testfield::rssi(seed, s, ch))
            }));
        }
        t
    }

    fn cfg(n_channels: usize) -> RupsConfig {
        RupsConfig {
            n_channels,
            window_channels: n_channels.min(45),
            ..RupsConfig::default()
        }
    }

    fn pooled_peak(
        fixed: &GsmTrajectory,
        fixed_start: usize,
        sliding: &GsmTrajectory,
        window: &CheckWindow,
    ) -> Option<(Option<Peak>, u64)> {
        with_scratch(|s| dense_peak(fixed, fixed_start, sliding, window, s))
    }

    #[test]
    fn rolling_scan_matches_recompute_reference() {
        let a = dense_traj(21, 0, 240, 17); // odd channel count
        let b = dense_traj(21, 35, 240, 17);
        let c = cfg(17);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let reference = syn::slide_scores_reference(&a, a.len() - w.len_m, &b, &w);
        let mut rolling = Vec::new();
        assert!(dense_scores_into(
            &a,
            a.len() - w.len_m,
            &b,
            &w,
            &mut rolling
        ));
        assert_eq!(reference.len(), rolling.len());
        for (i, (r, f)) in reference.iter().zip(&rolling).enumerate() {
            match (r.is_nan(), f.is_nan()) {
                (true, true) => {}
                (false, false) => {
                    assert!(
                        (r - f).abs() < 1e-6,
                        "placement {i}: ref {r} vs rolling {f}"
                    )
                }
                _ => panic!("definedness mismatch at {i}: ref {r}, rolling {f}"),
            }
        }
    }

    #[test]
    fn pruned_peak_equals_full_scan_peak() {
        // A slowly varying field scores the peak's neighbours within a few
        // hundredths of the peak, so any bound looser than the exact
        // `partial + 1` would prune the true peak.
        let smooth = |start: usize| {
            let rows = (0..19)
                .map(|ch| {
                    (0..300)
                        .map(|i| {
                            let s = (start + i) as f32;
                            let f = 0.05 * (1.0 + 0.1 * ch as f32);
                            -70.0 + 10.0 * (f * s).sin() + 3.0 * (0.013 * s + ch as f32).sin()
                        })
                        .collect()
                })
                .collect();
            GsmTrajectory::from_rows(rows)
        };
        let mut cases: Vec<(String, GsmTrajectory, GsmTrajectory)> =
            [(7u64, 30usize), (8, 55), (9, 10)]
                .iter()
                .map(|&(seed, off)| {
                    let a = dense_traj(seed, 0, 300, 19);
                    (format!("seed {seed}"), a, dense_traj(seed, off, 300, 19))
                })
                .collect();
        cases.push(("smooth".into(), smooth(0), smooth(40)));
        for (case, a, b) in cases {
            let c = cfg(19);
            let w = CheckWindow::for_context(&a, &c).unwrap();
            let full = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
            let expect = syn::peak(&full);
            let (got, _) = pooled_peak(&a, a.len() - w.len_m, &b, &w).expect("dense");
            match (expect, got) {
                (Some((ei, es, er)), Some((gi, gs, gr))) => {
                    assert_eq!(ei, gi, "{case}: pruned argmax diverged");
                    assert!(es.to_bits() == gs.to_bits(), "{case}: score bits");
                    assert!(er.to_bits() == gr.to_bits(), "{case}: refine bits");
                }
                (None, None) => {}
                other => panic!("{case}: {other:?}"),
            }
        }
    }

    #[test]
    fn pruning_actually_skips_profile_evaluations() {
        let a = dense_traj(33, 0, 350, 16);
        let b = dense_traj(33, 60, 350, 16);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        let n_pos = b.len() - w.len_m + 1;
        let (peak, pruned) = pooled_peak(&a, a.len() - w.len_m, &b, &w).expect("dense");
        assert!(peak.is_some());
        assert!(
            pruned > (n_pos as u64) / 4,
            "expected the bound to skip a sizeable share of {n_pos} placements, pruned {pruned}"
        );
    }

    #[test]
    fn falls_back_on_missing_values() {
        let a = dense_traj(5, 0, 300, 16);
        let mut b = dense_traj(5, 50, 300, 16);
        // Punch a hole into a channel the window will select.
        let mut rows: Vec<Vec<f32>> = (0..16).map(|ch| b.channel(ch).to_vec()).collect();
        rows[0][120] = f32::NAN;
        b = GsmTrajectory::from_rows(rows);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        assert!(pooled_peak(&a, a.len() - w.len_m, &b, &w).is_none());
        // The public entry point still answers via the reference scan.
        let p = find_best_syn(&a, &b, &c).unwrap();
        assert_eq!(p.self_end as i64 - p.other_end as i64, 50);
    }

    #[test]
    fn falls_back_on_infinite_values() {
        // ±∞ is corrupt data, not "missing": the dense scan must refuse it
        // exactly like NaN so the non-finite-aware reference decides.
        let a = dense_traj(6, 0, 300, 16);
        let mut rows: Vec<Vec<f32>> = (0..16)
            .map(|ch| dense_traj(6, 50, 300, 16).channel(ch).to_vec())
            .collect();
        rows[1][80] = f32::INFINITY;
        let b = GsmTrajectory::from_rows(rows);
        let c = cfg(16);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        assert!(pooled_peak(&a, a.len() - w.len_m, &b, &w).is_none());
        let mut out = Vec::new();
        assert!(!dense_scores_into(&a, a.len() - w.len_m, &b, &w, &mut out));
    }

    #[test]
    fn window_longer_than_sliding_context_is_refused() {
        let a = dense_traj(1, 0, 120, 8);
        let b = dense_traj(1, 0, 30, 8);
        let c = cfg(8);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        assert!(pooled_peak(&a, a.len() - w.len_m, &b, &w).is_none());
        assert!(syn::slide_scores(&a, a.len() - w.len_m, &b, &w).is_empty());
    }

    #[test]
    fn scratch_pool_reuses_arenas() {
        let a = dense_traj(2, 0, 200, 8);
        let b = dense_traj(2, 20, 200, 8);
        let c = cfg(8);
        let w = CheckWindow::for_context(&a, &c).unwrap();
        // Warm the pool, then verify repeated calls agree (stale buffer
        // state from the pool must never leak into results).
        let first = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
        for _ in 0..3 {
            let again = syn::slide_scores(&a, a.len() - w.len_m, &b, &w);
            assert_eq!(first, again);
        }
    }

    #[test]
    fn sum_sumsq_matches_naive_within_rounding() {
        for n in 0..35usize {
            let x: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.77).cos() * 90.0 - 70.0)
                .collect();
            let (s, q) = sum_sumsq(&x);
            let es: f64 = x.iter().sum();
            let eq: f64 = x.iter().map(|v| v * v).sum();
            assert!((s - es).abs() < 1e-9, "n={n}: {s} vs {es}");
            assert!((q - eq).abs() < 1e-6, "n={n}: {q} vs {eq}");
        }
    }
}
