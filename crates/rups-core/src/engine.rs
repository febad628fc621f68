//! Batched SYN-query engine with per-context caching (§V-A, §V-B).
//!
//! Every distance query against a [`crate::pipeline::RupsNode`] used to
//! recompute the same querying-side quantities from scratch: the
//! interpolated own context and the per-window channel selections. Under
//! tracking loads ("track a neighboring vehicle on every 0.1 second",
//! §V-B) or convoy loads (tens of neighbours per epoch) those quantities
//! are identical across queries — only the neighbour side changes.
//!
//! [`SynQueryEngine`] precomputes them **once per context update** and
//! answers any number of queries against the cached state:
//!
//! * the interpolated own context, rebuilt only when the context version
//!   changes;
//! * per-`(len, end)` checking windows (channel selection + threshold);
//! * reusable scratch arenas (conversion buffers, rolling accumulators,
//!   score vectors), pooled so concurrent batch queries allocate nothing
//!   in steady state.
//!
//! Every directed pass runs the one dense scan of [`crate::syn_fast`] —
//! rolling statistics with the exact channel bound and pruned peak — and
//! falls back to the reference scan when a selected row is non-finite.
//! Results are **bit-identical** to [`crate::syn::find_syn_points`]: both
//! run the same [`crate::syn`] pass helper; the engine only changes *where*
//! the inputs come from. Cache-hit and scratch-reuse counters are exported via
//! [`SynQueryEngine::stats`] for the bench harness.

use crate::config::RupsConfig;
use crate::error::RupsError;
use crate::gsm::GsmTrajectory;
use crate::pipeline::{ContextSnapshot, DistanceFix};
use crate::pool;
use crate::resolve;
use crate::syn::{self, SynPoint};
use crate::syn_fast;
use crate::window::CheckWindow;
use rups_obs::{Counter, Histogram, Registry, SpanArgs, SpanRecorder, TraceContext};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, RwLock};

/// Per-query diagnostics surfaced alongside a fix result, so a miss can be
/// explained (how many directed window passes were actually scanned before
/// giving up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryDiag {
    /// Directed sliding passes (forward + reverse, across all SYN
    /// segments) that actually executed for this query.
    pub windows_scanned: u32,
}

/// Counters describing how much work the engine's caches saved.
///
/// All counts are cumulative since engine creation (or the last
/// [`SynQueryEngine::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries answered (one per neighbour context).
    pub queries: u64,
    /// Context lookups answered from the version-keyed cache.
    pub context_hits: u64,
    /// Context rebuilds (interpolation of the own context).
    pub context_rebuilds: u64,
    /// Checking-window lookups answered from the `(len, end)` memo.
    pub window_hits: u64,
    /// Checking-window constructions (channel selection + threshold).
    pub window_misses: u64,
    /// Scratch arenas reused from the pool.
    pub scratch_reuses: u64,
    /// Scratch arenas freshly allocated.
    pub scratch_allocs: u64,
    /// Directed passes scanned (rolling scan, or the reference scan when a
    /// selected row is non-finite).
    pub reference_passes: u64,
    /// Window placements retired by an exact score upper bound, each
    /// counted once: by the channel bound (no dot products for the
    /// remaining channels) or, among the survivors, by the pruned peak
    /// search (no mean-profile correlation). Rolling passes only.
    pub pruned_placements: u64,
}

impl EngineStats {
    /// Field-wise `self − earlier` (saturating), for per-epoch deltas from
    /// two cumulative snapshots.
    pub fn delta(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            queries: self.queries.saturating_sub(earlier.queries),
            context_hits: self.context_hits.saturating_sub(earlier.context_hits),
            context_rebuilds: self
                .context_rebuilds
                .saturating_sub(earlier.context_rebuilds),
            window_hits: self.window_hits.saturating_sub(earlier.window_hits),
            window_misses: self.window_misses.saturating_sub(earlier.window_misses),
            scratch_reuses: self.scratch_reuses.saturating_sub(earlier.scratch_reuses),
            scratch_allocs: self.scratch_allocs.saturating_sub(earlier.scratch_allocs),
            reference_passes: self
                .reference_passes
                .saturating_sub(earlier.reference_passes),
            pruned_placements: self
                .pruned_placements
                .saturating_sub(earlier.pruned_placements),
        }
    }

    /// Fraction of context lookups served from cache (`NaN`-free: 0.0 when
    /// no lookups happened).
    pub fn context_hit_rate(&self) -> f64 {
        ratio(self.context_hits, self.context_hits + self.context_rebuilds)
    }

    /// Fraction of window lookups served from the `(len, end)` memo.
    pub fn window_hit_rate(&self) -> f64 {
        ratio(self.window_hits, self.window_hits + self.window_misses)
    }

    /// Fraction of scratch arenas reused rather than freshly allocated.
    pub fn scratch_reuse_rate(&self) -> f64 {
        ratio(
            self.scratch_reuses,
            self.scratch_reuses + self.scratch_allocs,
        )
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Pre-registered registry handles for every engine metric: resolved once
/// at engine construction so the record path is a relaxed atomic add, no
/// name lookups and no allocation (naming per DESIGN.md § Observability).
struct EngineMetrics {
    queries: Counter,
    context_hits: Counter,
    context_rebuilds: Counter,
    window_hits: Counter,
    window_misses: Counter,
    scratch_reuses: Counter,
    scratch_allocs: Counter,
    reference_passes: Counter,
    pruned_placements: Counter,
    query_ns: Histogram,
    context_rebuild_ns: Histogram,
    window_build_ns: Histogram,
    kernel_scan_ns: Histogram,
    resolve_ns: Histogram,
}

impl EngineMetrics {
    fn register(reg: &Registry) -> Self {
        Self {
            queries: reg.counter("rups_core_engine_queries"),
            context_hits: reg.counter("rups_core_engine_context_hits"),
            context_rebuilds: reg.counter("rups_core_engine_context_rebuilds"),
            window_hits: reg.counter("rups_core_engine_window_hits"),
            window_misses: reg.counter("rups_core_engine_window_misses"),
            scratch_reuses: reg.counter("rups_core_engine_scratch_reuses"),
            scratch_allocs: reg.counter("rups_core_engine_scratch_allocs"),
            reference_passes: reg.counter("rups_core_engine_reference_passes"),
            pruned_placements: reg.counter("rups_core_engine_pruned_placements"),
            query_ns: reg.histogram("rups_core_engine_query_ns"),
            context_rebuild_ns: reg.histogram("rups_core_engine_context_rebuild_ns"),
            window_build_ns: reg.histogram("rups_core_engine_window_build_ns"),
            kernel_scan_ns: reg.histogram("rups_core_engine_kernel_scan_ns"),
            resolve_ns: reg.histogram("rups_core_engine_resolve_ns"),
        }
    }
}

/// The querying vehicle's context, fully preprocessed for matching.
pub(crate) struct OwnContext {
    /// Version stamp of the raw context this was built from.
    version: u64,
    /// The matching context (interpolated when the config asks for it) —
    /// exactly what `RupsNode::own_matching_context` used to rebuild per
    /// query.
    gsm: GsmTrajectory,
}

impl OwnContext {
    fn build(version: u64, raw: &GsmTrajectory, cfg: &RupsConfig) -> Self {
        let gsm = if cfg.interpolate_missing {
            raw.interpolated()
        } else {
            raw.clone()
        };
        Self { version, gsm }
    }

    /// The preprocessed matching context.
    pub(crate) fn gsm(&self) -> &GsmTrajectory {
        &self.gsm
    }
}

/// Window memo keyed by `(len, end)` placement; `None` records placements
/// that resolve to no window, so misses are cached too.
type WindowMemo = HashMap<(usize, usize), Option<Arc<CheckWindow>>>;

/// Per-query scratch arena: every buffer a directed pass needs, reused
/// across queries via the engine's pool. It is the shared
/// [`syn_fast::DenseScratch`], so the engine's passes and the standalone
/// entry points stage their work identically.
type Scratch = syn_fast::DenseScratch;

/// Caching, batching SYN-query engine (see the module docs).
///
/// All methods take `&self`: caches use interior mutability so queries can
/// fan out over [`crate::pool`]. An engine is cheap to create; its caches
/// warm up on first use and are invalidated whenever a new context version
/// is installed.
pub struct SynQueryEngine {
    cfg: RupsConfig,
    ctx: RwLock<Option<Arc<OwnContext>>>,
    /// Own-version counter for standalone (non-`RupsNode`) use via
    /// [`SynQueryEngine::set_context`].
    own_version: AtomicU64,
    windows: RwLock<WindowMemo>,
    scratch: Mutex<Vec<Scratch>>,
    registry: Arc<Registry>,
    metrics: EngineMetrics,
    /// Span sink for the query stages, when attached (None costs one
    /// branch per stage).
    spans: Option<Arc<SpanRecorder>>,
}

impl fmt::Debug for SynQueryEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SynQueryEngine")
            .field("context_len", &self.context_len())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Clone for SynQueryEngine {
    /// Cloning yields a fresh engine with the same configuration and cold
    /// caches (cache state is per-instance by design).
    fn clone(&self) -> Self {
        Self::new(self.cfg.clone())
    }
}

impl SynQueryEngine {
    /// Creates an engine for the given configuration with a private
    /// metrics registry. The configuration is assumed valid (callers
    /// embedding the engine in a [`crate::pipeline::RupsNode`] have already
    /// validated it).
    pub fn new(cfg: RupsConfig) -> Self {
        Self::with_registry(cfg, Arc::new(Registry::new()))
    }

    /// Creates an engine whose metrics land in the given shared registry
    /// (under `rups_core_engine_*`), so a node, link, and inbox can export
    /// one merged snapshot.
    pub fn with_registry(cfg: RupsConfig, registry: Arc<Registry>) -> Self {
        let metrics = EngineMetrics::register(&registry);
        Self {
            cfg,
            ctx: RwLock::new(None),
            own_version: AtomicU64::new(0),
            windows: RwLock::new(HashMap::new()),
            scratch: Mutex::new(Vec::new()),
            registry,
            metrics,
            spans: None,
        }
    }

    /// Records the query stages into `spans` from this call on:
    /// `engine.query` / `engine.context_rebuild` / `engine.window_build` /
    /// `engine.kernel_scan` / `engine.resolve` spans plus
    /// `engine.context_hit` / `engine.window_hit` cache events.
    pub fn attach_spans(&mut self, spans: Arc<SpanRecorder>) {
        self.spans = Some(spans);
    }

    /// The engine's configuration.
    pub fn config(&self) -> &RupsConfig {
        &self.cfg
    }

    /// The metrics registry this engine records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Metres of preprocessed context currently cached (0 when none is
    /// installed yet).
    pub fn context_len(&self) -> usize {
        self.ctx
            .read()
            .expect("engine context lock poisoned")
            .as_ref()
            .map_or(0, |c| c.gsm.len())
    }

    /// Installs the querying vehicle's raw context (standalone use).
    /// Interpolates missing channels per the configuration and rebuilds
    /// every cache. [`crate::pipeline::RupsNode`] instead calls the
    /// crate-internal `ensure_context` with its own version counter so
    /// unchanged contexts are never rebuilt.
    pub fn set_context(&self, raw: &GsmTrajectory) {
        let v = self.own_version.fetch_add(1, Relaxed).wrapping_add(1);
        self.ensure_context(v, raw);
    }

    /// Returns the preprocessed context for `version`, rebuilding it (and
    /// invalidating the window memo) only when the cached version differs.
    pub(crate) fn ensure_context(&self, version: u64, raw: &GsmTrajectory) -> Arc<OwnContext> {
        {
            let guard = self.ctx.read().expect("engine context lock poisoned");
            if let Some(ctx) = guard.as_ref() {
                if ctx.version == version {
                    self.metrics.context_hits.inc();
                    if let Some(s) = &self.spans {
                        s.event("engine.context_hit");
                    }
                    return Arc::clone(ctx);
                }
            }
        }
        let mut guard = self.ctx.write().expect("engine context lock poisoned");
        // Double-check: another thread may have rebuilt while we waited.
        if let Some(ctx) = guard.as_ref() {
            if ctx.version == version {
                self.metrics.context_hits.inc();
                if let Some(s) = &self.spans {
                    s.event("engine.context_hit");
                }
                return Arc::clone(ctx);
            }
        }
        self.metrics.context_rebuilds.inc();
        let _t = self.metrics.context_rebuild_ns.start_timer();
        let _s = self
            .spans
            .as_ref()
            .map(|s| s.span("engine.context_rebuild"));
        let ctx = Arc::new(OwnContext::build(version, raw, &self.cfg));
        *guard = Some(Arc::clone(&ctx));
        self.windows
            .write()
            .expect("engine window lock poisoned")
            .clear();
        ctx
    }

    fn current_ctx(&self) -> Option<Arc<OwnContext>> {
        self.ctx
            .read()
            .expect("engine context lock poisoned")
            .clone()
    }

    /// Snapshot of the cache/scratch/kernel counters, read straight off the
    /// registry atomics (a cheap view — the registry owns the live state,
    /// so two snapshots bracket a workload without drift).
    pub fn stats(&self) -> EngineStats {
        let m = &self.metrics;
        EngineStats {
            queries: m.queries.get(),
            context_hits: m.context_hits.get(),
            context_rebuilds: m.context_rebuilds.get(),
            window_hits: m.window_hits.get(),
            window_misses: m.window_misses.get(),
            scratch_reuses: m.scratch_reuses.get(),
            scratch_allocs: m.scratch_allocs.get(),
            reference_passes: m.reference_passes.get(),
            pruned_placements: m.pruned_placements.get(),
        }
    }

    /// Zeroes every counter reported by [`stats`](Self::stats). Latency
    /// histograms are cumulative by design; bracket workloads with
    /// [`rups_obs::MetricsSnapshot::delta`] instead.
    pub fn reset_stats(&self) {
        let m = &self.metrics;
        for c in [
            &m.queries,
            &m.context_hits,
            &m.context_rebuilds,
            &m.window_hits,
            &m.window_misses,
            &m.scratch_reuses,
            &m.scratch_allocs,
            &m.reference_passes,
            &m.pruned_placements,
        ] {
            c.reset();
        }
    }

    fn with_scratch<R>(&self, f: impl FnOnce(&mut Scratch) -> R) -> R {
        let popped = self
            .scratch
            .lock()
            .expect("engine scratch lock poisoned")
            .pop();
        let mut s = match popped {
            Some(s) => {
                self.metrics.scratch_reuses.inc();
                s
            }
            None => {
                self.metrics.scratch_allocs.inc();
                Scratch::default()
            }
        };
        let r = f(&mut s);
        self.scratch
            .lock()
            .expect("engine scratch lock poisoned")
            .push(s);
        r
    }

    /// Memoised equivalent of `CheckWindow::with_len(own, cfg, len, end)`.
    fn window_entry(&self, ctx: &OwnContext, len: usize, end: usize) -> Option<Arc<CheckWindow>> {
        let key = (len, end);
        if let Some(e) = self
            .windows
            .read()
            .expect("engine window lock poisoned")
            .get(&key)
        {
            self.metrics.window_hits.inc();
            if let Some(s) = &self.spans {
                s.event("engine.window_hit");
            }
            return e.clone();
        }
        self.metrics.window_misses.inc();
        let _t = self.metrics.window_build_ns.start_timer();
        let _s = self.spans.as_ref().map(|s| s.span("engine.window_build"));
        let entry = CheckWindow::with_len(&ctx.gsm, &self.cfg, len, end).map(Arc::new);
        self.windows
            .write()
            .expect("engine window lock poisoned")
            .insert(key, entry.clone());
        entry
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Multi-SYN search against the installed context. Semantics and bits
    /// match [`crate::syn::find_syn_points`] run against the same
    /// interpolated context.
    pub fn find_syn_points(&self, theirs: &GsmTrajectory) -> Result<Vec<SynPoint>, RupsError> {
        match self.current_ctx() {
            Some(ctx) => self.query_ctx_counted(&ctx, theirs, &mut 0, None),
            None => Err(RupsError::InsufficientContext {
                available_m: 0,
                required_m: self.cfg.min_window_len_m.max(2),
            }),
        }
    }

    /// Best single SYN point (the first entry of the multi-SYN search, like
    /// [`crate::syn::find_best_syn`] versus
    /// [`crate::syn::find_syn_points`]).
    pub fn find_best_syn(&self, theirs: &GsmTrajectory) -> Result<SynPoint, RupsError> {
        self.find_syn_points(theirs).map(|pts| pts[0])
    }

    /// Full distance fix against one neighbour snapshot (SYN search +
    /// resolution + aggregation), using the installed context.
    pub fn fix(&self, neighbour: &ContextSnapshot) -> Result<DistanceFix, RupsError> {
        let points = self.find_syn_points(&neighbour.gsm)?;
        self.build_fix(self.context_len(), neighbour.gsm.len(), points)
    }

    /// Fixes distances to a whole epoch of neighbours in one
    /// [`pool::run_tasks`] pass over every available hardware thread,
    /// preserving input order; scratch arenas are pooled across the tasks.
    pub fn fix_batch(&self, neighbours: &[ContextSnapshot]) -> Vec<Result<DistanceFix, RupsError>> {
        match self.current_ctx() {
            Some(ctx) => self
                .fix_batch_ctx_diag(&ctx, neighbours)
                .into_iter()
                .map(|(res, _)| res)
                .collect(),
            None => neighbours
                .iter()
                .map(|_| {
                    Err(RupsError::InsufficientContext {
                        available_m: 0,
                        required_m: self.cfg.min_window_len_m.max(2),
                    })
                })
                .collect(),
        }
    }

    /// The batch pass against an already-resolved own context, with
    /// per-query [`QueryDiag`]s feeding fix explainability in the pipeline.
    pub(crate) fn fix_batch_ctx_diag<S: Borrow<ContextSnapshot> + Sync>(
        &self,
        ctx: &Arc<OwnContext>,
        neighbours: &[S],
    ) -> Vec<(Result<DistanceFix, RupsError>, QueryDiag)> {
        let (out, _) = pool::run_tasks(neighbours, pool::available_workers(), |nb| {
            let nb = nb.borrow();
            let mut scanned = 0u32;
            let res = self
                .query_ctx_counted(ctx, &nb.gsm, &mut scanned, nb.trace)
                .and_then(|points| self.build_fix(ctx.gsm.len(), nb.gsm.len(), points));
            (
                res,
                QueryDiag {
                    windows_scanned: scanned,
                },
            )
        });
        out
    }

    pub(crate) fn build_fix(
        &self,
        ours_len: usize,
        theirs_len: usize,
        points: Vec<SynPoint>,
    ) -> Result<DistanceFix, RupsError> {
        let _t = self.metrics.resolve_ns.start_timer();
        let _s = self.spans.as_ref().map(|s| s.span("engine.resolve"));
        let (distance_m, estimates_m) =
            resolve::aggregate_distance(&points, ours_len, theirs_len, self.cfg.aggregation)?;
        let best_score = points
            .iter()
            .map(|p| p.score)
            .fold(f64::NEG_INFINITY, f64::max);
        Ok(DistanceFix {
            distance_m,
            syn_points: points,
            estimates_m,
            best_score,
        })
    }

    /// The engine's replica of [`crate::syn::find_syn_points`]: identical
    /// control flow (adaptive length, forward + perspective-swapped reverse
    /// passes, threshold filtering, multi-SYN stride loop), with the own
    /// side served from the cache. Counts the directed sliding passes it
    /// actually ran into `scanned`. When the neighbour snapshot carried a
    /// [`TraceContext`] the `engine.query` span joins that causal trace
    /// (its args gain `trace` + `clock` alongside the window sizes).
    pub(crate) fn query_ctx_counted(
        &self,
        ctx: &OwnContext,
        theirs: &GsmTrajectory,
        scanned: &mut u32,
        trace: Option<TraceContext>,
    ) -> Result<Vec<SynPoint>, RupsError> {
        self.metrics.queries.inc();
        let _t = self.metrics.query_ns.start_timer();
        let mut _s = self.spans.as_ref().map(|s| s.span("engine.query"));
        let ours = &ctx.gsm;
        if ours.n_channels() != theirs.n_channels() {
            return Err(RupsError::ChannelMismatch {
                ours: ours.n_channels(),
                theirs: theirs.n_channels(),
            });
        }
        let shorter = ours.len().min(theirs.len());
        let w = syn::adaptive_window_len(shorter, &self.cfg);
        if let Some(g) = _s.as_mut() {
            // Two slots of the four carry the causal trace when present,
            // the other two the query's own shape.
            let base = trace.map_or_else(SpanArgs::new, |t| t.args());
            g.set_args(
                base.with("window_len_m", w as i64)
                    .with("neighbour_len_m", theirs.len() as i64),
            );
        }
        let too_short = || RupsError::InsufficientContext {
            available_m: shorter,
            required_m: self.cfg.min_window_len_m.max(2),
        };
        if w < self.cfg.min_window_len_m.max(2) {
            return Err(too_short());
        }
        self.with_scratch(|scratch| {
            // Most recent segment: the full double-sliding check.
            let window = self
                .window_entry(ctx, w, ours.len())
                .ok_or_else(too_short)?;
            *scanned += 1;
            let fwd = self.directed(ours, ours.len(), theirs, &window, scratch);
            let rev = CheckWindow::with_len(theirs, &self.cfg, w, theirs.len())
                .and_then(|wnd| {
                    *scanned += 1;
                    self.directed(theirs, theirs.len(), ours, &wnd, scratch)
                })
                .map(syn::swap_perspective);
            let best = match syn::better_pass(fwd, rev) {
                Some(b) => b,
                None => {
                    return Err(RupsError::NoSynPoint {
                        best_score: f64::NEG_INFINITY,
                        threshold: window.threshold,
                    })
                }
            };
            if best.score < window.threshold {
                return Err(RupsError::NoSynPoint {
                    best_score: best.score,
                    threshold: window.threshold,
                });
            }
            let mut points = vec![best];
            // Older segments, symmetrically (cf. syn::find_syn_points).
            for s in 1..self.cfg.n_syn_points {
                let fwd = ours
                    .len()
                    .checked_sub(s * self.cfg.syn_segment_stride_m)
                    .filter(|&end| end >= w)
                    .and_then(|end| self.window_entry(ctx, w, end).map(|e| (end, e)))
                    .and_then(|(end, wnd)| {
                        *scanned += 1;
                        self.directed(ours, end, theirs, &wnd, scratch)
                            .filter(|p| p.score >= wnd.threshold)
                    });
                let rev = theirs
                    .len()
                    .checked_sub(s * self.cfg.syn_segment_stride_m)
                    .filter(|&end| end >= w)
                    .and_then(|end| {
                        CheckWindow::with_len(theirs, &self.cfg, w, end).map(|wnd| (end, wnd))
                    })
                    .and_then(|(end, wnd)| {
                        *scanned += 1;
                        self.directed(theirs, end, ours, &wnd, scratch)
                            .filter(|p| p.score >= wnd.threshold)
                    })
                    .map(syn::swap_perspective);
                if let Some(p) = syn::better_pass(fwd, rev) {
                    points.push(p);
                }
            }
            Ok(points)
        })
    }

    /// One directed pass: the window of `fixed` ending at `end` slid over
    /// all of `sliding`. Forward passes anchor the own context (cached
    /// window); reverse passes anchor the neighbour's, and the caller swaps
    /// the hit into our perspective.
    fn directed(
        &self,
        fixed: &GsmTrajectory,
        end: usize,
        sliding: &GsmTrajectory,
        window: &CheckWindow,
        scratch: &mut Scratch,
    ) -> Option<SynPoint> {
        let w = window.len_m;
        if end < w || sliding.len() < w {
            return None;
        }
        let scan_t = self.metrics.kernel_scan_ns.start_timer();
        let scan_s = self.spans.as_ref().map(|s| s.span("engine.kernel_scan"));
        self.metrics.reference_passes.inc();
        let (best, pruned) = syn::pass_peak(fixed, end - w, sliding, window, scratch);
        self.metrics.pruned_placements.add(pruned);
        drop(scan_t);
        drop(scan_s);
        let (j, score, refine) = best?;
        Some(SynPoint {
            self_end: end,
            other_end: j + w,
            refine_m: refine,
            score,
            window_len: w,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsm::PowerVector;
    use crate::testfield;

    fn traj(seed: u64, start: usize, len: usize, n_channels: usize) -> GsmTrajectory {
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

    #[test]
    fn reference_kernel_is_bit_identical_to_syn() {
        // A small geometry and the paper's: 194 channels, 1000 m contexts,
        // an 85 m × 45-channel window and 5 SYN points.
        let cases = [
            (traj(11, 0, 400, 24), traj(11, 70, 400, 24), cfg(24)),
            (
                traj(11, 0, 1000, 194),
                traj(11, 70, 1000, 194),
                RupsConfig::default(),
            ),
        ];
        for (ours, theirs, c) in cases {
            let engine = SynQueryEngine::new(c.clone());
            engine.set_context(&ours);
            let expect = syn::find_syn_points(&ours, &theirs, &c).unwrap();
            let got = engine.find_syn_points(&theirs).unwrap();
            assert_eq!(expect.len(), got.len());
            for (e, g) in expect.iter().zip(&got) {
                assert_eq!(e, g, "engine must replicate the reference bit-for-bit");
                assert_eq!(e.score.to_bits(), g.score.to_bits());
                assert_eq!(e.refine_m.to_bits(), g.refine_m.to_bits());
            }
            let s = engine.stats();
            assert!(
                s.pruned_placements > 0,
                "dense passes must prune placements: {s:?}"
            );
        }
    }

    #[test]
    fn counters_show_cache_reuse_across_queries() {
        let ours = traj(13, 0, 300, 16);
        let c = cfg(16);
        let engine = SynQueryEngine::new(c);
        engine.set_context(&ours);
        for off in [20usize, 35, 50] {
            let theirs = traj(13, off, 300, 16);
            engine.find_syn_points(&theirs).unwrap();
        }
        let s = engine.stats();
        assert_eq!(s.queries, 3);
        assert_eq!(s.context_rebuilds, 1);
        assert!(
            s.window_hits > 0,
            "repeat queries must hit the window memo: {s:?}"
        );
        assert_eq!(s.scratch_allocs, 1, "one scratch arena should suffice");
        assert_eq!(s.scratch_reuses, 2);
    }

    #[test]
    fn batch_matches_individual_queries() {
        let ours = traj(14, 0, 350, 16);
        let c = cfg(16);
        let engine = SynQueryEngine::new(c);
        engine.set_context(&ours);
        let snaps: Vec<ContextSnapshot> = [25usize, 60, 90]
            .iter()
            .map(|&off| ContextSnapshot {
                vehicle_id: Some(off as u64),
                geo: crate::geo::GeoTrajectory::new(),
                gsm: traj(14, off, 350, 16),
                trace: None,
            })
            .collect();
        let batch = engine.fix_batch(&snaps);
        for (snap, fix) in snaps.iter().zip(&batch) {
            let single = engine.fix(snap).unwrap();
            let fix = fix.as_ref().unwrap();
            assert_eq!(single.syn_points.len(), fix.syn_points.len());
            assert!((single.distance_m - fix.distance_m).abs() < 1e-9);
        }
    }

    #[test]
    fn no_context_reports_insufficient() {
        let engine = SynQueryEngine::new(cfg(8));
        let theirs = traj(1, 0, 100, 8);
        assert!(matches!(
            engine.find_syn_points(&theirs),
            Err(RupsError::InsufficientContext { available_m: 0, .. })
        ));
    }

    #[test]
    fn sparse_neighbours_fall_back_to_the_reference_scan() {
        let ours = traj(15, 0, 300, 12);
        let mut rows: Vec<Vec<f32>> = (0..12)
            .map(|ch| traj(15, 40, 300, 12).channel(ch).to_vec())
            .collect();
        rows[0][150] = f32::NAN;
        let theirs = GsmTrajectory::from_rows(rows);
        let c = RupsConfig {
            interpolate_missing: false,
            ..cfg(12)
        };
        let engine = SynQueryEngine::new(c.clone());
        engine.set_context(&ours);
        let got = engine.find_syn_points(&theirs).unwrap();
        let expect = syn::find_syn_points(&ours, &theirs, &c).unwrap();
        assert_eq!(expect, got);
    }

    #[test]
    fn shared_registry_sees_engine_counters_and_stage_latencies() {
        let reg = Arc::new(Registry::new());
        let ours = traj(17, 0, 300, 16);
        let engine = SynQueryEngine::with_registry(cfg(16), Arc::clone(&reg));
        engine.set_context(&ours);
        let before = engine.stats();
        engine.find_syn_points(&traj(17, 30, 300, 16)).unwrap();
        engine.find_syn_points(&traj(17, 45, 300, 16)).unwrap();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("rups_core_engine_queries"), Some(2));
        assert_eq!(
            snap.counter("rups_core_engine_context_rebuilds"),
            Some(1),
            "registry and EngineStats must agree: {:?}",
            engine.stats()
        );
        let d = engine.stats().delta(&before);
        assert_eq!(d.queries, 2);
        assert_eq!(
            d.context_rebuilds, 0,
            "delta must exclude the set_context rebuild"
        );
        assert!(d.window_hit_rate() > 0.0);
        if cfg!(feature = "obs") {
            let q = snap
                .histogram("rups_core_engine_query_ns")
                .expect("query latency histogram registered");
            assert_eq!(q.count, 2, "one timer sample per query");
            assert!(
                snap.histogram("rups_core_engine_kernel_scan_ns")
                    .map_or(0, |h| h.count)
                    > 0,
                "directed passes must record scan latency"
            );
        }
    }

    #[test]
    fn context_version_gates_rebuilds() {
        let c = cfg(8);
        let engine = SynQueryEngine::new(c);
        let raw = traj(16, 0, 120, 8);
        let a = engine.ensure_context(7, &raw);
        let b = engine.ensure_context(7, &raw);
        assert!(Arc::ptr_eq(&a, &b));
        let c2 = engine.ensure_context(8, &raw);
        assert!(!Arc::ptr_eq(&a, &c2));
        let s = engine.stats();
        assert_eq!(s.context_rebuilds, 2);
        assert_eq!(s.context_hits, 1);
    }
}
