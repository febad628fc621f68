//! The one dense SYN scan (rolling statistics with the exact pruned peak)
//! must agree with the recompute-per-placement reference on *real* trace
//! contexts — including interpolated contexts that still carry all-NaN rows
//! (never-scanned channels) — and the caching engine must answer
//! bit-for-bit like the standalone search.

use rups::core::config::RupsConfig;
use rups::core::engine::SynQueryEngine;
use rups::core::gsm::GsmTrajectory;
use rups::core::syn::{find_syn_points, slide_scores, slide_scores_reference};
use rups::core::window::CheckWindow;
use rups::eval::queries::sample_query_times;
use rups::eval::tracegen::{generate, TraceConfig};
use rups::urban::road::RoadClass;

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: 64,
        window_channels: 24,
        ..RupsConfig::default()
    }
}

/// The search's window length (§V-C): the configured length, capped at
/// 60 % of the shorter context.
fn window_len(ours: &GsmTrajectory, theirs: &GsmTrajectory, c: &RupsConfig) -> usize {
    let shorter = ours.len().min(theirs.len());
    c.window_len_m
        .min((shorter * 3 / 5).max(c.min_window_len_m))
        .min(shorter)
}

/// Compares the rolling scan against the reference on every directed pass
/// the multi-SYN search runs: each segment of ours slid over theirs and
/// each segment of theirs slid over ours. Returns the passes compared.
fn check_directed_passes(ours: &GsmTrajectory, theirs: &GsmTrajectory, c: &RupsConfig) -> usize {
    let w = window_len(ours, theirs, c);
    let mut passes = 0;
    for s in 0..c.n_syn_points {
        for (fixed, sliding) in [(ours, theirs), (theirs, ours)] {
            let Some(end) = fixed
                .len()
                .checked_sub(s * c.syn_segment_stride_m)
                .filter(|&end| end >= w)
            else {
                continue;
            };
            let Some(wnd) = CheckWindow::with_len(fixed, c, w, end) else {
                continue;
            };
            let rolling = slide_scores(fixed, end - w, sliding, &wnd);
            let reference = slide_scores_reference(fixed, end - w, sliding, &wnd);
            assert_eq!(rolling.len(), reference.len(), "segment {s}");
            for (j, (&a, &b)) in rolling.iter().zip(&reference).enumerate() {
                match (a.is_nan(), b.is_nan()) {
                    (true, true) => {}
                    (false, false) => assert!(
                        (a - b).abs() < 1e-6,
                        "segment {s}, placement {j}: rolling {a} vs reference {b}"
                    ),
                    _ => panic!("segment {s}, placement {j}: definedness {a} vs {b}"),
                }
            }
            passes += 1;
        }
    }
    passes
}

/// Runs the standalone multi-SYN search and the engine on the same
/// contexts and asserts they agree bit-for-bit, hit or miss. Returns
/// whether the search found SYN points.
fn engine_matches_search(ours: &GsmTrajectory, theirs: &GsmTrajectory, c: &RupsConfig) -> bool {
    let expect = find_syn_points(ours, theirs, c);
    let engine = SynQueryEngine::new(c.clone());
    engine.set_context(ours);
    let got = engine.find_syn_points(theirs);
    assert_eq!(got, expect, "engine diverged from syn::find_syn_points");
    if let (Ok(a), Ok(b)) = (&got, &expect) {
        for (p, q) in a.iter().zip(b) {
            assert_eq!(p.score.to_bits(), q.score.to_bits());
            assert_eq!(p.refine_m.to_bits(), q.refine_m.to_bits());
        }
    }
    expect.is_ok()
}

#[test]
fn rolling_scan_agrees_with_reference_on_trace_contexts() {
    let trace = generate(&TraceConfig::quick(31, RoadClass::Urban4Lane));
    let c = cfg();
    let times = sample_query_times(&trace, 6, 4);
    let mut compared = 0;
    for &t in &times {
        let Some((ours, _)) = trace.follower.context_at(t, c.max_context_m, true, None) else {
            continue;
        };
        let Some((theirs, _)) = trace.leader.context_at(t, c.max_context_m, true, None) else {
            continue;
        };
        assert!(
            check_directed_passes(&ours.gsm, &theirs.gsm, &c) > 0,
            "t={t}"
        );
        if engine_matches_search(&ours.gsm, &theirs.gsm, &c) {
            compared += 1;
        }
    }
    assert!(compared >= 3, "only {compared} successful comparisons");
}

#[test]
fn multi_syn_rolling_scan_agrees_with_reference() {
    let trace = generate(&TraceConfig::quick(32, RoadClass::Urban8Lane));
    let c = cfg();
    let t = *sample_query_times(&trace, 3, 5)
        .last()
        .expect("query times");
    let (ours, _) = trace
        .follower
        .context_at(t, c.max_context_m, true, None)
        .unwrap();
    let (theirs, _) = trace
        .leader
        .context_at(t, c.max_context_m, true, None)
        .unwrap();
    assert!(check_directed_passes(&ours.gsm, &theirs.gsm, &c) >= 2);
    engine_matches_search(&ours.gsm, &theirs.gsm, &c);
}
