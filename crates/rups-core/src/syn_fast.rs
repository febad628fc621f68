//! The dense SYN scan: rolling statistics with an exact channel bound and
//! pruned peak.
//!
//! The reference double-sliding check costs `O(mwk)` (§V-A): every window
//! placement recomputes per-channel sums over `w` metres. After
//! missing-channel interpolation the rows are dense, and one directed pass
//! splits into four layers:
//!
//! * **lane accumulators** — the per-channel sliding dot products
//!   `Σ f_i · s_{j+i}` (`lane_dot`) and the fixed-window `(Σx, Σx²)`
//!   ([`sum_sumsq`]), each hand-unrolled into four f64 lanes combined in a
//!   fixed order;
//! * **rolling statistics** — per-channel sliding-window sums and sums of
//!   squares, seeded once and updated in `O(1)` per placement
//!   (`accumulate_dense_channel`), feeding the same `PairSums → Pearson`
//!   math as the reference;
//! * **channel bound** — after the first `SEED_CHANNELS` channels, the
//!   placement with the best partial mean is scored exactly (`probe_score`)
//!   and every later channel skips the dot products of placements whose
//!   score upper bound `(S + R)/(n + R) + 1` — partial sum `S` over `n`
//!   defined channels, `R` channels left — falls below that score
//!   (`dense_pass`);
//! * **pruned peak** — the peak search over the surviving placements skips
//!   the mean-profile correlation of placements whose score upper bound
//!   (mean per-channel Pearson plus the profile term's hard cap of 1)
//!   cannot beat the current best (`combine_dense_peak`).
//!
//! Both bounds are exact, so the pruned argmax, its score and its parabolic
//! refinement are bit-identical to the peak of the full score vector. The
//! worst case stays `O(mwk)` (an unrelated pair retires nothing), but on a
//! matching pair most placements retire within a few channels.
//!
//! Scores match the reference implementation to floating-point rounding.
//! Callers fall back to the non-finite-aware reference scan when a
//! selected channel contains missing or corrupt values. All buffers come
//! from a process-wide scratch pool (`with_scratch`) or the engine's own
//! pool, so steady-state passes allocate nothing.

use crate::gsm::GsmTrajectory;
use crate::stats::{self, PairSums};
use crate::syn;
use crate::window::CheckWindow;
use std::sync::{Mutex, OnceLock};

/// Channels every placement is scored on before the channel bound starts
/// retiring placements; the best partial mean after them picks the
/// placement whose exact score becomes the bound's threshold.
const SEED_CHANNELS: usize = 2;

/// Margin under the seed placement's exact score below which the channel
/// bound retires a placement. It absorbs the rounding of the bound's own
/// arithmetic (~1e-13 over 45 channels) by four orders of magnitude.
const BOUND_SLACK: f64 = 1e-9;

/// Every buffer a dense directed pass needs, pooled via [`with_scratch`]
/// (and embedded in the engine's per-query scratch arena) so repeated
/// passes perform no allocation after warm-up.
#[derive(Default)]
pub(crate) struct DenseScratch {
    /// `f64` staging of the current channel's fixed-window row.
    pub fixed64: Vec<f64>,
    /// `f64` staging of the current channel's sliding row.
    pub sliding64: Vec<f64>,
    /// Fixed·sliding dot products of the current channel, indexed by
    /// placement; only live placements' entries are current.
    pub dots: Vec<f64>,
    /// Placements the channel bound has not retired, ascending.
    pub live: Vec<usize>,
    /// The current channel's rolled sliding-window `(Σs, Σs²)`, per
    /// placement, once some placement has retired.
    pub rolled: Vec<(f64, f64)>,
    /// Per-placement Σ of defined per-channel Pearsons / their count.
    pub chan_sum: Vec<f64>,
    pub chan_n: Vec<u32>,
    /// Fixed-window means per channel and sliding-window means per
    /// channel per placement (f32, matching the reference quantisation).
    pub mean_f: Vec<f32>,
    pub mean_s: Vec<Vec<f32>>,
    /// Mean-profile staging for one placement.
    pub profile: Vec<f32>,
    /// Fixed-window means of [`probe_score`]'s own replay.
    pub probe_mean_f: Vec<f32>,
    /// Final per-placement scores (full-combine and fallback paths only).
    pub scores: Vec<f64>,
}

impl DenseScratch {
    /// Resets the per-pass accumulators for `n_pos` placements over `k`
    /// window channels, with every placement live. Capacity is retained.
    fn prepare(&mut self, n_pos: usize, k: usize) {
        self.dots.clear();
        self.dots.resize(n_pos, 0.0);
        self.live.clear();
        self.live.extend(0..n_pos);
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
        if dense_pass(fixed, fixed_start, sliding, window, s, false).is_none() {
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

/// Rolling dense pass with the channel bound, followed by the pruned peak
/// search: the best placement `(j, score, refine)` — bit-identical to
/// `syn::peak(&syn::slide_scores(..))` — plus the number of placements
/// either bound retired (each counted once).
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
    if sliding.len() < w || w == 0 {
        return None;
    }
    let retired = dense_pass(fixed, fixed_start, sliding, window, s, true)?;
    let n_pos = sliding.len() - w + 1;
    let k = window.channels.len();
    let (best, skipped) = combine_dense_peak(
        &s.live,
        &s.mean_f,
        &s.mean_s[..k],
        &s.chan_sum,
        &s.chan_n,
        &mut s.profile,
    );
    let pruned = retired + skipped;
    let Some((i, sc)) = best else {
        return Some((None, pruned));
    };
    // Exact neighbours for the parabolic refinement, mirroring syn::peak: a
    // live neighbour's accumulators are complete, a retired one is replayed.
    let mut exact = |j: usize| {
        if s.live.binary_search(&j).is_ok() {
            dense_score_at(
                j,
                &s.mean_f,
                &s.mean_s[..k],
                &s.chan_sum,
                &s.chan_n,
                &mut s.profile,
            )
        } else {
            probe_score(fixed, fixed_start, sliding, window, j, s)
        }
    };
    let refine = if i > 0 && i + 1 < n_pos {
        let l = exact(i - 1);
        let r = exact(i + 1);
        syn::parabolic_refine(l, sc, r)
    } else {
        0.0
    };
    Some((Some((i, sc, refine)), pruned))
}

/// One dense directed pass: per selected channel, stages the fixed and
/// sliding rows as `f64`, computes the live placements' dot products with
/// [`lane_dot`], and accumulates the rolling per-placement statistics into
/// `s.chan_sum`/`s.chan_n`/`s.mean_f`/`s.mean_s`. Requires
/// `sliding.len() >= window.len_m`.
///
/// With `prune`, the channel bound runs: after [`SEED_CHANNELS`] channels
/// the best partial mean's exact score, less [`BOUND_SLACK`], becomes the
/// threshold `lb`, and before each later channel every placement whose
/// upper bound is `< lb` leaves `s.live`. Every Pearson lies in `[−1, 1]`,
/// so a placement with partial sum `S` over `n` defined channels and `R`
/// channels left ends with a per-channel mean of at most `(S + R)/(n + R)`
/// (the partial mean never exceeds 1, so more channels at 1 only raise it)
/// and a score of at most that plus 1. The comparison is strict, so a
/// placement tying the eventual winner survives, as the first-maximum rule
/// needs. Without `prune` every placement stays live (`lb = −∞`).
///
/// Returns the number of retired placements, or `None` without touching
/// the accumulators' meaning when any selected row carries a non-finite
/// value — the dense scan assumes full-support windows, and [`PairSums`]
/// would otherwise silently skip samples the `n = w` shortcut still counts.
fn dense_pass(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    s: &mut DenseScratch,
    prune: bool,
) -> Option<u64> {
    let w = window.len_m;
    let n_pos = sliding.len() - w + 1;
    let k = window.channels.len();
    for &ch in &window.channels {
        if fixed.channel(ch)[fixed_start..fixed_start + w]
            .iter()
            .any(|v| !v.is_finite())
            || sliding.channel(ch).iter().any(|v| !v.is_finite())
        {
            return None;
        }
    }
    s.prepare(n_pos, k);
    let mut lb = f64::NEG_INFINITY;
    let mut retired = 0u64;
    for (ci, &ch) in window.channels.iter().enumerate() {
        if prune && ci == SEED_CHANNELS {
            lb = seed_threshold(fixed, fixed_start, sliding, window, s);
        }
        // bound(j) < lb ⟺ S + R < (lb − 1)(n + R), as n + R > 0; nothing
        // can retire yet while even S = −n over n = ci channels clears it.
        let (done, left, t) = (ci as f64, (k - ci) as f64, lb - 1.0);
        if lb > f64::NEG_INFINITY && left - done < t * (done + left) {
            let (chan_sum, chan_n) = (&s.chan_sum, &s.chan_n);
            let before = s.live.len();
            s.live
                .retain(|&j| chan_sum[j] + left >= t * (chan_n[j] as f64 + left));
            retired += (before - s.live.len()) as u64;
        }
        s.fixed64.clear();
        s.fixed64.extend(
            fixed.channel(ch)[fixed_start..fixed_start + w]
                .iter()
                .map(|&v| v as f64),
        );
        s.sliding64.clear();
        s.sliding64
            .extend(sliding.channel(ch).iter().map(|&v| v as f64));
        for &j in &s.live {
            s.dots[j] = lane_dot(&s.fixed64, &s.sliding64[j..j + w]);
        }
        let (sum_f, sumsq_f) = sum_sumsq(&s.fixed64);
        let row = &mut s.mean_s[ci];
        row.clear();
        let mf = accumulate_dense_channel(
            w,
            sum_f,
            sumsq_f,
            &s.dots,
            &s.sliding64,
            &s.live,
            &mut s.rolled,
            &mut s.chan_sum,
            &mut s.chan_n,
            row,
        );
        s.mean_f.push(mf);
    }
    Some(retired)
}

/// The channel bound's threshold after the seed channels: the exact score
/// of the first placement with the best partial mean, less
/// [`BOUND_SLACK`]; `−∞` (prune nothing) when no placement is defined yet
/// or that score is NaN.
fn seed_threshold(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    s: &mut DenseScratch,
) -> f64 {
    let mut seed: Option<(usize, f64)> = None;
    for (j, (&sum, &n)) in s.chan_sum.iter().zip(&s.chan_n).enumerate() {
        if n == 0 {
            continue;
        }
        let partial = sum / n as f64;
        if seed.is_none_or(|(_, b)| partial > b) {
            seed = Some((j, partial));
        }
    }
    let Some((j, _)) = seed else {
        return f64::NEG_INFINITY;
    };
    let score = probe_score(fixed, fixed_start, sliding, window, j, s);
    if score.is_nan() {
        f64::NEG_INFINITY
    } else {
        score - BOUND_SLACK
    }
}

/// The exact Eq. (2) score of placement `j`, bit-identical to the score a
/// full pass computes for it: per channel in window order it rolls the
/// sliding-window sums from placement 0 to `j` with the pass's own
/// [`roll`], takes [`lane_dot`] at `j`, accumulates the [`PairSums`]
/// Pearsons in the same order, and ends with the same profile Pearson.
/// Costs `O(k·(j + w))` and allocates nothing after warm-up; it clobbers
/// the staging rows and `s.profile`, which every caller restages.
fn probe_score(
    fixed: &GsmTrajectory,
    fixed_start: usize,
    sliding: &GsmTrajectory,
    window: &CheckWindow,
    j: usize,
    s: &mut DenseScratch,
) -> f64 {
    let w = window.len_m;
    let (mut chan_sum, mut chan_n) = (0.0f64, 0u32);
    s.probe_mean_f.clear();
    s.profile.clear();
    for &ch in &window.channels {
        s.fixed64.clear();
        s.fixed64.extend(
            fixed.channel(ch)[fixed_start..fixed_start + w]
                .iter()
                .map(|&v| v as f64),
        );
        let row = sliding.channel(ch);
        s.sliding64.clear();
        s.sliding64.extend(row[..w].iter().map(|&v| v as f64));
        let mut rolled = sum_sumsq(&s.sliding64);
        for (&dropped, &added) in row[..j].iter().zip(&row[w..w + j]) {
            roll(&mut rolled, dropped as f64, added as f64);
        }
        let (sum_s, sumsq_s) = rolled;
        s.sliding64.clear();
        s.sliding64.extend(row[j..j + w].iter().map(|&v| v as f64));
        let (sum_f, sumsq_f) = sum_sumsq(&s.fixed64);
        let sums = PairSums {
            n: w,
            sum_a: sum_f,
            sum_b: sum_s,
            sum_aa: sumsq_f,
            sum_bb: sumsq_s,
            sum_ab: lane_dot(&s.fixed64, &s.sliding64),
        };
        if let Some(r) = sums.pearson() {
            chan_sum += r;
            chan_n += 1;
        }
        s.probe_mean_f.push((sum_f / w as f64) as f32);
        s.profile.push((sum_s / w as f64) as f32);
    }
    eq2_score(chan_sum, chan_n, &s.probe_mean_f, &s.profile)
}

/// Advances sliding-window sums `(Σs, Σs²)` by one placement in `O(1)`:
/// `dropped` leaves the window, `added` enters it. The one rolling step of
/// both the pass and [`probe_score`], so the two agree bit for bit.
#[inline]
fn roll(sums: &mut (f64, f64), dropped: f64, added: f64) {
    sums.0 += added - dropped;
    sums.1 += added * added - dropped * dropped;
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
/// `chan_sum`/`chan_n` for the `live` placements, pushes every placement's
/// sliding-window mean into `means_row`, and returns the fixed-window mean.
/// `dots[j]` must be the fixed·sliding dot product at each live placement
/// `j`; the window sums over `s_row` are **rolled** — seeded once over
/// `[0, w)` and updated in `O(1)` per placement ([`roll`]) — rather than
/// rebuilt, turning the `O(mw)` statistics sweep into `O(m)`. The roll
/// visits every placement, so live ones see the same sums as in a full
/// pass. While nothing is retired, roll and Pearson share one loop, so the
/// Pearsons' work hides the roll's dependency chain; once placements have
/// retired, the sums go through `rolled` and the Pearsons run over the
/// live list alone, with no hard-to-predict per-placement liveness branch.
///
/// This is the placement-dependent half of Eq. (2); it reuses the exact
/// `PairSums → Pearson` math of the reference path so thresholds and
/// degenerate-variance handling agree.
#[allow(clippy::too_many_arguments)]
fn accumulate_dense_channel(
    w: usize,
    sum_f: f64,
    sumsq_f: f64,
    dots: &[f64],
    s_row: &[f64],
    live: &[usize],
    rolled: &mut Vec<(f64, f64)>,
    chan_sum: &mut [f64],
    chan_n: &mut [u32],
    means_row: &mut Vec<f32>,
) -> f32 {
    let mut add_pearson = |j: usize, (sum_b, sum_bb): (f64, f64)| {
        let sums = PairSums {
            n: w,
            sum_a: sum_f,
            sum_b,
            sum_aa: sumsq_f,
            sum_bb,
            sum_ab: dots[j],
        };
        if let Some(r) = sums.pearson() {
            chan_sum[j] += r;
            chan_n[j] += 1;
        }
    };
    let mut sums = sum_sumsq(&s_row[..w]);
    if live.len() == dots.len() {
        for j in 0..dots.len() {
            if j > 0 {
                roll(&mut sums, s_row[j - 1], s_row[j + w - 1]);
            }
            add_pearson(j, sums);
            means_row.push((sums.0 / w as f64) as f32);
        }
    } else {
        rolled.clear();
        rolled.push(sums);
        for (&dropped, &added) in s_row.iter().zip(&s_row[w..]) {
            roll(&mut sums, dropped, added);
            rolled.push(sums);
        }
        means_row.extend(rolled.iter().map(|&(sum_s, _)| (sum_s / w as f64) as f32));
        for &j in live {
            add_pearson(j, rolled[j]);
        }
    }
    (sum_f / w as f64) as f32
}

/// Eq. (2) from its parts: the mean of `chan_n` defined per-channel
/// Pearsons summing to `chan_sum`, plus the Pearson of the fixed-window
/// means `mean_f` against the sliding-window means `profile`; NaN when
/// either term is undefined.
fn eq2_score(chan_sum: f64, chan_n: u32, mean_f: &[f32], profile: &[f32]) -> f64 {
    if chan_n == 0 {
        return f64::NAN;
    }
    match stats::pearson(mean_f, profile) {
        Some(mp) => chan_sum / chan_n as f64 + mp,
        None => f64::NAN,
    }
}

/// The Eq. (2) score of placement `j` from the per-channel accumulators.
/// `profile` is a caller-provided `k`-length staging buffer.
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
    eq2_score(chan_sum[j], chan_n[j], mean_f, profile)
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

/// Pruned peak search over the `live` placements' accumulators: returns
/// the first maximum `(j, score)` exactly as `syn::peak(full_scores)`
/// would, plus the number of placements whose mean-profile Pearson was
/// skipped.
///
/// The upper bound is exact, not heuristic: the profile term is clamped to
/// `[−1, 1]` by [`PairSums::pearson`], so `score(j) ≤ partial(j) + 1`, and
/// IEEE addition is monotonic — `fl(partial + profile) ≤ fl(partial + 1)`.
/// A placement with `fl(partial + 1) ≤ best` therefore can never satisfy
/// the strict `score > best` test of the reference first-max scan, and
/// skipping its `O(k)` profile correlation cannot change the argmax.
fn combine_dense_peak(
    live: &[usize],
    mean_f: &[f32],
    mean_s: &[Vec<f32>],
    chan_sum: &[f64],
    chan_n: &[u32],
    profile: &mut Vec<f32>,
) -> (Option<(usize, f64)>, u64) {
    let k = mean_f.len();
    profile.clear();
    profile.resize(k, 0.0);
    let mut best: Option<(usize, f64)> = None;
    let mut pruned = 0u64;
    for &j in live {
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
    (best, pruned)
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
        // `partial + 1` would prune the true peak. Each case also runs a
        // 2-channel window, where the channel bound never starts and the
        // profile bound does all the pruning.
        let mut cases: Vec<(String, GsmTrajectory, GsmTrajectory)> =
            [(7u64, 30usize), (8, 55), (9, 10)]
                .iter()
                .map(|&(seed, off)| {
                    let a = dense_traj(seed, 0, 300, 19);
                    (format!("seed {seed}"), a, dense_traj(seed, off, 300, 19))
                })
                .collect();
        cases.push((
            "smooth".into(),
            smooth_traj(0, 300, 19, 0.05),
            smooth_traj(40, 300, 19, 0.05),
        ));
        for (case, a, b) in cases {
            let w = CheckWindow::for_context(&a, &cfg(19)).unwrap();
            let narrow = CheckWindow {
                channels: w.channels[..SEED_CHANNELS].to_vec(),
                ..w.clone()
            };
            for w in [w, narrow] {
                if let Err(e) = compare_with_full_scan(&a, &b, &w) {
                    panic!("{case}, {} channels: {e}", w.channels.len());
                }
            }
        }
    }

    /// `(argmax, score bits, refine bits)` of the channel-bound pass against
    /// `syn::peak` of the full score vector; `Err` names the first mismatch.
    fn compare_with_full_scan(
        a: &GsmTrajectory,
        b: &GsmTrajectory,
        w: &CheckWindow,
    ) -> Result<(), String> {
        let fs = a.len() - w.len_m;
        let expect = syn::peak(&syn::slide_scores(a, fs, b, w));
        let (got, _) = pooled_peak(a, fs, b, w).ok_or("dense pass refused")?;
        match (expect, got) {
            (Some((ei, es, er)), Some((gi, gs, gr))) => {
                if ei != gi || es.to_bits() != gs.to_bits() || er.to_bits() != gr.to_bits() {
                    return Err(format!(
                        "full scan ({ei}, {es}, {er}) vs channel bound ({gi}, {gs}, {gr})"
                    ));
                }
                Ok(())
            }
            (None, None) => Ok(()),
            other => Err(format!("definedness differs: {other:?}")),
        }
    }

    /// A slowly varying field whose neighbouring placements score within a
    /// few hundredths of each other: near-ties everywhere.
    fn smooth_traj(start: usize, len: usize, n_channels: usize, freq: f32) -> GsmTrajectory {
        let rows = (0..n_channels)
            .map(|ch| {
                (0..len)
                    .map(|i| {
                        let s = (start + i) as f32;
                        let f = freq * (1.0 + 0.1 * ch as f32);
                        -70.0 + 10.0 * (f * s).sin() + 3.0 * (0.013 * s + ch as f32).sin()
                    })
                    .collect()
            })
            .collect();
        GsmTrajectory::from_rows(rows)
    }

    /// `t` with each row passed through `f(channel, index, value)`.
    fn map_rows(t: &GsmTrajectory, f: impl Fn(usize, usize, f32) -> f32) -> GsmTrajectory {
        let rows = (0..t.n_channels())
            .map(|ch| {
                t.channel(ch)
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| f(ch, i, v))
                    .collect()
            })
            .collect();
        GsmTrajectory::from_rows(rows)
    }

    proptest::proptest! {
        #[test]
        /// The channel bound never changes a peak: random seeds, offsets,
        /// window lengths and widths (including `k ≤ 2`, where the pass has
        /// no seed), matching and unrelated pairs, flat channels (so
        /// `chan_n < k`), smooth fields with near-tied neighbours, and noisy
        /// matches whose neighbours survive longer.
        fn channel_bound_peak_is_bit_identical_to_full_scan(
            seed in 0u64..1_000_000,
            kind in 0usize..5,
            offset in 0usize..150,
            len in 100usize..320,
            window_len in 10usize..90,
            k in 1usize..17,
            flat in 1usize..6,
        ) {
            const N: usize = 16;
            // Whole rows flat on some channels of both sides (undefined
            // everywhere, yet the profile still matches), one more flat on
            // stretches only, so some placements lose it and some not.
            let flatten = |t: GsmTrajectory| {
                map_rows(&t, |ch, i, v| {
                    if ch % flat == 0 || (ch == 1 && (i / 40) % 2 == 0) {
                        -90.0
                    } else {
                        v
                    }
                })
            };
            let a = match kind {
                2 => flatten(dense_traj(seed, 0, len, N)),
                3 => smooth_traj(0, len, N, 0.02 + (seed % 50) as f32 * 0.002),
                _ => dense_traj(seed, 0, len, N),
            };
            let b = match kind {
                1 => dense_traj(seed ^ 0x5EED, 100_000 + offset, len, N),
                2 => flatten(dense_traj(seed, offset, len, N)),
                3 => smooth_traj(offset, len, N, 0.02 + (seed % 50) as f32 * 0.002),
                4 => map_rows(&dense_traj(seed, offset, len, N), |ch, i, v| {
                    let h = testfield::splitmix64(seed ^ ((ch * 100_000 + i) as u64));
                    v + 3.0 * ((h >> 11) as f32 / (1u64 << 53) as f32 - 0.5)
                }),
                _ => dense_traj(seed, offset, len, N),
            };
            let w = CheckWindow {
                len_m: window_len.min(len),
                channels: (0..k).map(|i| i * N / k).collect(),
                threshold: 1.2,
            };
            if let Err(e) = compare_with_full_scan(&a, &b, &w) {
                proptest::prop_assert!(false, "kind {kind}: {e}");
            }
        }
    }

    /// A match that is exact on every channel but the first two, whose
    /// windows differ by a few adjacent swaps. The rows hold small integers,
    /// so every later channel's Pearson and the profile Pearson are exactly
    /// 1 while the seed channels leave a fraction: the winner's bound then
    /// sits within an ulp or two of its score, rounding either way.
    fn near_tie_pair(seed: u64) -> (GsmTrajectory, GsmTrajectory, CheckWindow) {
        let mut state = seed;
        let mut next = |m: u64| {
            state = testfield::splitmix64(state);
            state % m
        };
        let k = 20 + next(26) as usize;
        let w = 8 + next(40) as usize;
        let len = w + 20 + next(60) as usize;
        let j0 = next((len - w + 1) as u64) as usize;
        let mut level = || -100.0 + next(60) as f32;
        let a_rows: Vec<Vec<f32>> = (0..k).map(|_| (0..w).map(|_| level()).collect()).collect();
        let mut b_rows: Vec<Vec<f32>> = (0..k)
            .map(|_| (0..len).map(|_| level()).collect())
            .collect();
        for (ch, (a_row, b_row)) in a_rows.iter().zip(&mut b_rows).enumerate() {
            let win = &mut b_row[j0..j0 + w];
            win.copy_from_slice(a_row);
            if ch < SEED_CHANNELS {
                for _ in 0..=next(3) {
                    let p = next(w as u64 - 1) as usize;
                    win.swap(p, p + 1);
                }
            }
        }
        let window = CheckWindow {
            len_m: w,
            channels: (0..k).collect(),
            threshold: 1.2,
        };
        let (a, b) = (
            GsmTrajectory::from_rows(a_rows),
            GsmTrajectory::from_rows(b_rows),
        );
        (a, b, window)
    }

    proptest::proptest! {
        #[test]
        /// The slack keeps a winner whose bound rounds an ulp under its own
        /// score: without it, a few percent of these pairs lose their peak.
        fn channel_bound_survives_rounding_near_ties(seed in 0u64..u64::MAX) {
            for variant in 0..8u64 {
                let (a, b, w) = near_tie_pair(seed.wrapping_add(variant));
                if let Err(e) = compare_with_full_scan(&a, &b, &w) {
                    proptest::prop_assert!(false, "variant {variant}: {e}");
                }
            }
        }
    }

    #[test]
    fn channel_bound_retires_most_placements_at_paper_geometry() {
        // 194 channels, 1000 m contexts, an 85 m × 45-channel window.
        let a = dense_traj(11, 0, 1000, 194);
        let b = dense_traj(11, 70, 1000, 194);
        let w = CheckWindow::for_context(&a, &RupsConfig::default()).unwrap();
        assert_eq!((w.len_m, w.channels.len()), (85, 45));
        let n_pos = b.len() - w.len_m + 1;
        let (peak, pruned, live) = with_scratch(|s| {
            let (peak, pruned) = dense_peak(&a, a.len() - w.len_m, &b, &w, s).expect("dense");
            (peak, pruned, s.live.clone())
        });
        let i = peak.expect("peak").0;
        assert_eq!(i, n_pos - 1 - 70);
        let retired = n_pos - live.len();
        assert!(
            retired > n_pos / 2,
            "the channel bound retired {retired} of {n_pos} placements"
        );
        assert!(pruned >= retired as u64);
        // An exact match scores ≈ 2, so its neighbours retire too and the
        // parabolic refinement needs their replayed scores.
        assert!(live.binary_search(&(i - 1)).is_err() && live.binary_search(&(i + 1)).is_err());
        compare_with_full_scan(&a, &b, &w).unwrap();
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
