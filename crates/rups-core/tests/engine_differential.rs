//! Differential property tests: the batched [`SynQueryEngine`] must be
//! bit-identical to the reference double-sliding searches in [`syn`] — on
//! hits, misses and below-threshold cases alike. Both run the same rolling
//! scan and pruned peak; the engine only serves the own side from its
//! caches.

use proptest::prelude::*;
use rups_core::engine::SynQueryEngine;
use rups_core::gsm::{GsmTrajectory, PowerVector};
use rups_core::syn;
use rups_core::testfield;
use rups_core::{RupsConfig, RupsError};

const N_CHANNELS: usize = 12;

fn traj(seed: u64, start: usize, len: usize) -> GsmTrajectory {
    let mut t = GsmTrajectory::with_capacity(N_CHANNELS, len);
    for i in 0..len {
        let s = (start + i) as f64;
        t.push(&PowerVector::from_fn(N_CHANNELS, |ch| {
            Some(testfield::rssi(seed, s, ch))
        }));
    }
    t
}

fn cfg() -> RupsConfig {
    RupsConfig {
        n_channels: N_CHANNELS,
        window_channels: N_CHANNELS,
        ..RupsConfig::default()
    }
}

fn engine_for(ours: &GsmTrajectory, cfg: &RupsConfig) -> SynQueryEngine {
    let engine = SynQueryEngine::new(cfg.clone());
    engine.set_context(ours);
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The engine is bit-identical to the reference search, and the
    // single-best entry point (`find_best_syn`) agrees with `points[0]`.
    #[test]
    fn reference_kernel_is_bit_identical_to_syn(
        seed in 1u64..100_000,
        gap in 10usize..70,
        len in 230usize..300,
    ) {
        let c = cfg();
        let ours = traj(seed, 0, len);
        let theirs = traj(seed, gap, len);
        let engine = engine_for(&ours, &c);

        let seq = syn::find_syn_points(&ours, &theirs, &c);
        let eng = engine.find_syn_points(&theirs);
        prop_assert_eq!(&eng, &seq, "sequential reference mismatch");

        let best = syn::find_best_syn(&ours, &theirs, &c);
        let pts = eng.expect("overlapping synthetic fields must produce SYN points");
        prop_assert_eq!(best.unwrap(), pts[0], "find_best_syn disagrees");
    }

    // Unrelated journeys (disjoint synthetic fields) must miss — with the
    // same below-threshold best score from every search path.
    #[test]
    fn unrelated_contexts_miss_identically(
        seed in 1u64..50_000,
        len in 225usize..290,
    ) {
        let c = cfg();
        let ours = traj(seed, 0, len);
        let theirs = traj(seed + 777_777, 0, len);
        let engine = engine_for(&ours, &c);

        let seq = syn::find_syn_points(&ours, &theirs, &c);
        let eng = engine.find_syn_points(&theirs);
        prop_assert_eq!(&eng, &seq, "reference miss mismatch");
        prop_assert!(
            matches!(eng, Err(RupsError::NoSynPoint { .. })),
            "unrelated fields must stay below the coherency threshold: {:?}",
            eng
        );
        prop_assert_eq!(
            syn::find_best_syn(&ours, &theirs, &c),
            Err(eng.clone().unwrap_err()),
            "find_best_syn miss mismatch"
        );
    }
}
