//! `ext-fleet-scale` at test scale: the halo keeps the pair workload
//! sub-quadratic, every worker count produces the same fixes, and two
//! query workers beat one.
//!
//! The last claim is a wall-clock comparison, so this test lives in its
//! own test binary. Cargo runs test binaries one after another, so no
//! other test shares the machine's cores with the two cells being timed.
//! Run beside the CPU-heavy figure tests of the `rups-eval` library, a
//! sibling test could take one of two cores for the 2-worker cell alone
//! and make it read slower than the 1-worker cell.

use rups_eval::figures::ext_fleet_scale::{quick_params, run, ScaleArtifact};

#[test]
fn halo_stays_subquadratic_and_workers_agree() {
    // Small fleet so the debug-build test stays quick; the quick/paper
    // sweeps cross 200 vehicles in the release smoke run.
    let mut p = quick_params();
    p.vehicle_counts = vec![48];
    p.worker_counts = vec![1, 2];
    p.warmup_s = 20;
    p.epochs = 2;
    let out = std::env::temp_dir().join("rups-ext-fleet-scale-test.json");
    p.out_path = Some(out.to_string_lossy().into_owned());
    let fig = run(&p);

    let raw = std::fs::read_to_string(&out).expect("artefact written");
    std::fs::remove_file(&out).ok();
    let art: ScaleArtifact = serde_json::from_str(&raw).expect("artefact parses");
    assert_eq!(art.figure_id, "ext-fleet-scale");
    assert_eq!(art.cells.len(), 2);

    for c in &art.cells {
        assert!(c.fixes_ok > 0, "cell produced no fixes: {c:?}");
        // The tentpole claim: the 3×3 halo admits far fewer ordered
        // pairs than the quadratic bound.
        assert!(
            c.halo_fraction < 0.5,
            "halo fraction {:.3} not sub-quadratic: {c:?}",
            c.halo_fraction
        );
        assert!(c.tasks <= c.candidates);
        assert!(c.mean_abs_err_m.is_finite() && c.mean_abs_err_m < 15.0);
    }
    // Determinism: worker count changes throughput, never results.
    assert_eq!(art.cells[0].fixes_ok, art.cells[1].fixes_ok);
    assert_eq!(art.cells[0].tasks, art.cells[1].tasks);

    // Worker scaling is a wall-clock claim, only checkable where the
    // hardware can actually run workers side by side.
    if art.threads_available > 1 {
        assert!(
            art.cells[1].fixes_per_sec > art.cells[0].fixes_per_sec,
            "2 workers not faster than 1 on {} threads: {:?}",
            art.threads_available,
            art.cells
        );
    }

    // One throughput series per worker count plus the halo series.
    assert_eq!(fig.series.len(), p.worker_counts.len() + 1);
}
