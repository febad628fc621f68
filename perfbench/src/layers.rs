//! Per-layer metrics shared by the pair and fleet workloads: the engine
//! and kernel layers read from registry deltas, and the fusion replay.

use crate::stats::{ratio, RegistryDelta};
use crate::Raw;
use rups_core::GradedFix;
use rups_fuse::{FixGraph, FuseConfig, Fuser};
use std::collections::BTreeSet;
use std::time::Instant;

/// Sets the `kernel.*` and `engine.*` metrics from the engine counters and
/// histograms (`rups_core_engine_*`) over the traced part of a run.
pub(crate) fn engine(raw: &mut Raw, d: &RegistryDelta, fixes: f64) {
    let rolling = d.counter("rups_core_engine_reference_passes");
    let fft = d.counter("rups_core_engine_fft_passes");
    let passes = rolling + fft;
    let queries = d.counter("rups_core_engine_queries");
    let scan_ms = d.hist_sum_ms("rups_core_engine_kernel_scan_ns");
    let query_ms = d.hist_sum_ms("rups_core_engine_query_ns");
    raw.set("kernel.passes", passes);
    raw.set("kernel.fft_passes", fft);
    raw.set("kernel.rolling_passes", rolling);
    raw.set(
        "kernel.fft_fallbacks",
        d.counter("rups_core_engine_fft_fallbacks"),
    );
    raw.set("kernel.scan_ms", ratio(scan_ms, fixes));
    raw.set("kernel.us_per_pass", ratio(scan_ms * 1e3, passes));
    raw.set("kernel.passes_per_fix", ratio(passes, fixes));
    raw.set(
        "kernel.pruned_placements",
        d.counter("rups_core_engine_pruned_placements"),
    );
    raw.set("kernel.scan_share_of_query", ratio(scan_ms, query_ms));

    let window_hits = d.counter("rups_core_engine_window_hits");
    let window_builds = d.counter("rups_core_engine_window_misses");
    let reuses = d.counter("rups_core_engine_scratch_reuses");
    raw.set("engine.queries", queries);
    raw.set("engine.query_ms", ratio(query_ms, queries));
    raw.set(
        "engine.context_rebuilds",
        d.counter("rups_core_engine_context_rebuilds"),
    );
    raw.set(
        "engine.context_rebuild_ms",
        d.hist_mean_ms("rups_core_engine_context_rebuild_ns"),
    );
    raw.set("engine.window_builds", window_builds);
    raw.set(
        "engine.window_build_ms",
        d.hist_mean_ms("rups_core_engine_window_build_ns"),
    );
    raw.set(
        "engine.window_hit_ratio",
        ratio(window_hits, window_hits + window_builds),
    );
    raw.set(
        "engine.resolve_ms",
        d.hist_mean_ms("rups_core_engine_resolve_ns"),
    );
    raw.set(
        "engine.scratch_reuse_ratio",
        ratio(
            reuses,
            reuses + d.counter("rups_core_engine_scratch_allocs"),
        ),
    );
}

/// Fusion solves over every connected component of an epoch's fix graph.
pub(crate) struct Fused {
    /// `|fused − truth|` of every vehicle placed, component anchors
    /// excluded.
    pub abs_err_m: Vec<f64>,
    /// Wall time of the `Fuser::solve` calls.
    pub solve_s: f64,
    /// Edges in the graph.
    pub edges: usize,
    /// Edges the outlier gate rejected.
    pub rejected: usize,
    /// Vehicles placed, anchors included.
    pub resolved: usize,
}

/// Solves each connected component of the fix graph of `(observer,
/// neighbour, fix)` edges the way `FleetSim` solves the component of its
/// anchor: anchored at the component's lowest id, default fusion settings.
/// `truth(anchor, id)` is the true position of `id` relative to `anchor`.
/// `None` when there are no edges.
pub(crate) fn fuse(
    edges: &[(u64, u64, &GradedFix)],
    truth: impl Fn(u64, u64) -> f64,
) -> Option<Fused> {
    let mut graph = FixGraph::new();
    for &(observer, neighbour, fix) in edges {
        graph.insert_fix(observer, neighbour, fix);
    }
    if graph.is_empty() {
        return None;
    }
    let mut fused = Fused {
        abs_err_m: Vec::new(),
        solve_s: 0.0,
        edges: graph.edge_count(),
        rejected: 0,
        resolved: 0,
    };
    let mut placed = BTreeSet::new();
    for &root in graph.nodes() {
        if placed.contains(&root) {
            continue;
        }
        let members: BTreeSet<u64> = graph.component_of(root).into_iter().collect();
        let anchor = *members.first().expect("a component holds its root");
        placed.extend(members.iter().copied());
        let mut component = FixGraph::new();
        for &(observer, neighbour, fix) in edges {
            if members.contains(&observer) {
                component.insert_fix(observer, neighbour, fix);
            }
        }
        let fuser = Fuser::new(FuseConfig {
            anchor: Some(anchor),
            ..FuseConfig::default()
        });
        let started = Instant::now();
        let solution = fuser.solve(&component);
        fused.solve_s += started.elapsed().as_secs_f64();
        let Ok(solution) = solution else {
            continue;
        };
        fused.rejected += solution.rejected.len();
        fused.resolved += solution.positions.len();
        fused.abs_err_m.extend(
            solution
                .positions
                .iter()
                .filter(|(id, _)| *id != anchor)
                .map(|&(id, pos)| (pos - truth(anchor, id)).abs()),
        );
    }
    Some(fused)
}
