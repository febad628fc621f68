//! `fleet-sparse-lossy`: a sharded `FleetSim` stepped one epoch at a time
//! (advance → beacon → relay → receive → query → fuse).

use crate::clock::{Clock, Interval};
use crate::layers::{self, Fused};
use crate::stats::{mean, quantile, ratio, RegistryDelta};
use crate::{closed_loop, timed_setups, Options, Raw, Scale};
use rups_core::quality::FixQuality;
use rups_core::{GeoSample, PowerVector};
use rups_fleet::{EpochOutcome, FleetConfig, FleetSim, Vehicle};
use rups_obs::Registry;
use std::time::{Duration, Instant};
use v2v_sim::{decode_snapshot, try_encode_snapshot, FaultConfig};

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fix calls an untraced run times per epoch (see [`time_fixes`]).
const FIX_SAMPLES: usize = 16;
/// Warm-up drive before the first epoch, seconds.
const WARMUP_S: usize = 25;

/// Epochs of one pass. A run steps a sim through one pass, rebuilds it
/// (outside the measured time) from the next of its traffic geometries
/// and repeats until its budget is spent, so every run measures the same
/// stretches of traffic: the fleet's geometry drifts with each seed's
/// signal stops, and longer drives spread the per-seed figures.
fn pass_epochs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12,
        Scale::Tiny => 2,
    }
}

/// Traffic geometries a run cycles through, pass after pass. How many
/// vehicle pairs sit within the query radius, and so the epoch's cost,
/// depends on a geometry's seed; a run that averages over several spreads
/// less from seed to seed. The first cycle is the check window: accuracy
/// metrics and the digest are taken over it, so they repeat bit for bit.
const GEOMETRIES: usize = 4;

/// Geometry `k` of a run: the run's configuration with its own seed
/// (geometry 0 keeps the run's seed).
fn geometry(cfg: &FleetConfig, k: usize) -> FleetConfig {
    FleetConfig {
        seed: cfg
            .seed
            .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..cfg.clone()
    }
}

/// The ext-fusion acceptance cell: 30 % stationary burst loss with
/// duplication, reordering, 1 % corruption and 20 ms jitter.
fn burst_faults() -> FaultConfig {
    FaultConfig {
        duplicate: 0.05,
        reorder: 0.05,
        corrupt: 0.01,
        jitter_s: 0.02,
        ..FaultConfig::bursty(0.15, 0.35, 1.0)
    }
}

/// 96 vehicles in 2 lanes on 4 shards with 2 query workers; 24-channel
/// contexts, 140 m snapshots, 220 m retained; 120 m cells, 25 m query
/// radius; bursty faulty links; fusion on.
fn config(scale: Scale, seed: u64) -> FleetConfig {
    let (n_vehicles, n_channels) = match scale {
        Scale::Full => (96, 24),
        Scale::Tiny => (24, 12),
    };
    FleetConfig {
        seed,
        n_vehicles,
        lanes: 2,
        n_shards: 4,
        workers: 2,
        n_channels,
        context_m: 140,
        max_context_m: 220,
        warmup_s: WARMUP_S,
        // The setup epoch comes first.
        epochs: pass_epochs(scale) + 1,
        cell_m: 120.0,
        radius_m: 25.0,
        faults: burst_faults(),
        fuse: true,
        ..FleetConfig::default()
    }
}

/// Per-layer spans, outcome fields and replays, taken only by a traced run.
#[derive(Default)]
struct Spans {
    tasks: u64,
    steals: u64,
    imbalance: Vec<f64>,
    candidates: Vec<f64>,
    relayed: u64,
    rehomes: u64,
    graded: usize,
    low: usize,
    append_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    encode_s: Vec<f64>,
    decode_s: Vec<f64>,
    wire_bytes: Vec<f64>,
    halo_s: Vec<f64>,
    solve_s: Vec<f64>,
    edges: usize,
    rejected: usize,
    resolved: Vec<f64>,
    counters: RegistryDelta,
    cell_moves: u64,
}

impl Spans {
    fn open_pass(&mut self, sim: &FleetSim) {
        self.counters.open(registries(sim));
        self.cell_moves = self.cell_moves.wrapping_sub(sim.index().stats().moves);
    }

    fn close_pass(&mut self, sim: &FleetSim) {
        self.counters.close(registries(sim));
        self.cell_moves = self.cell_moves.wrapping_add(sim.index().stats().moves);
    }
}

/// What the measured epochs produced.
#[derive(Default)]
struct Epochs {
    epoch: Vec<Interval>,
    query_s: Vec<f64>,
    fix: Vec<Interval>,
    fixes: u64,
    ok: u64,
    window_fixes: u64,
    window_ok: u64,
    abs_err_m: Vec<f64>,
    fused_err_m: Vec<f64>,
}

fn registries(sim: &FleetSim) -> impl Iterator<Item = &Registry> {
    sim.shards().shards().iter().map(|s| s.registry.as_ref())
}

/// Builds and warms a sim: the sim's warm-up drive plus one epoch, so
/// scratch arenas are allocated and inboxes hold snapshots before
/// measurement. Returns the sim and its first epoch with the time taken.
fn setup(cfg: &FleetConfig, clock: &mut Clock) -> ((FleetSim, EpochOutcome), Interval) {
    let (mut sim, mut took) = clock.time(|| FleetSim::new(cfg.clone()));
    let ((), t) = clock.time(|| sim.warm_up());
    took += t;
    let (first, t) = clock.time(|| sim.step_epoch());
    took += t;
    ((sim, first), took)
}

/// The correctness checks of one epoch: it produces fixes, and the sim's
/// own fusion places at least the anchor and one neighbour with a finite
/// error.
fn check(out: &EpochOutcome, raw: &mut Raw) {
    if out.fixes_ok() == 0 {
        raw.violation(format!(
            "epoch t={}s produced no fixes ({} queries)",
            out.t_s, out.tasks
        ));
        return;
    }
    match &out.fused {
        None => raw.violation(format!("epoch t={}s: fusion produced no solution", out.t_s)),
        Some(f) if !f.mean_abs_err_m.is_finite() || f.resolved < 2 => raw.violation(format!(
            "epoch t={}s: fusion resolved {} vehicles with mean error {}",
            out.t_s, f.resolved, f.mean_abs_err_m
        )),
        Some(_) => {}
    }
}

/// Fuses the epoch's successful fixes the way `FleetSim` does.
fn fuse(sim: &FleetSim, out: &EpochOutcome) -> Option<Fused> {
    let edges: Vec<_> = out
        .fixes
        .iter()
        .filter_map(|f| f.result.as_ref().ok().map(|g| (f.observer, f.neighbour, g)))
        .collect();
    layers::fuse(&edges, |anchor, id| sim.truth_gap_m(anchor, id, out.t_s))
}

/// Metres `neighbour` has driven since the snapshot of it that `observer`
/// holds (the metres it appended after the snapshot's newest one): 0 for
/// a snapshot beaconed this epoch or a neighbour standing still. A fix
/// against an older snapshot of a moving neighbour reads where the
/// neighbour was, so the truth at the epoch time does not apply to it.
fn driven_since_snapshot(sim: &FleetSim, observer: u64, neighbour: u64) -> Option<usize> {
    let held = vehicle(sim, observer)?.inbox.neighbour(neighbour)?;
    let newest = held.geo.latest_timestamp()?;
    let samples = vehicle(sim, neighbour)?.node.geo_trajectory().samples();
    Some(
        samples
            .iter()
            .rev()
            .take_while(|s| s.timestamp_s > newest)
            .count(),
    )
}

/// The fixes run inside the scheduler, out of the benchmark's reach, so an
/// untraced run times `fix_distance` itself: after each epoch it repeats up
/// to `FIX_SAMPLES` of the epoch's queries, evenly spaced in task order, on
/// the observer's node against the snapshot it held.
fn time_fixes(sim: &FleetSim, out: &EpochOutcome, clock: &mut Clock, fix: &mut Vec<Interval>) {
    let step = out.fixes.len().div_ceil(FIX_SAMPLES).max(1);
    for f in out.fixes.iter().step_by(step) {
        let Some(observer) = vehicle(sim, f.observer) else {
            continue;
        };
        let Some(snap) = observer.inbox.neighbour(f.neighbour) else {
            continue;
        };
        let (result, t) = clock.time(|| observer.node.fix_distance(snap));
        fix.push(t);
        std::hint::black_box(result.is_ok());
    }
}

fn vehicle(sim: &FleetSim, id: u64) -> Option<&Vehicle> {
    let home = sim.shards().home_of(id)?;
    sim.shards().shard(home).vehicles.get(&id)
}

/// Replays the per-vehicle public calls of the beacon, receive and query
/// phases on the epoch's live state, outside the epoch's wall time.
fn replay(sim: &FleetSim, spans: &mut Spans) {
    let context_m = sim.config().context_m;
    let radius_m = sim.config().radius_m;
    for shard in sim.shards().shards() {
        for (&id, vehicle) in &shard.vehicles {
            let t = Instant::now();
            let snap = vehicle.node.snapshot(Some(context_m));
            spans.snapshot_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let wire = try_encode_snapshot(&snap);
            spans.encode_s.push(t.elapsed().as_secs_f64());
            if let Ok(wire) = wire {
                spans.wire_bytes.push(wire.len() as f64);
                let t = Instant::now();
                let decoded = decode_snapshot(&wire);
                spans.decode_s.push(t.elapsed().as_secs_f64());
                debug_assert!(decoded.is_ok());
            }
            let t = Instant::now();
            let near = sim.index().neighbours_within(id, radius_m);
            spans.halo_s.push(t.elapsed().as_secs_f64());
            std::hint::black_box(near);
        }
    }
    // Appending one metre to a copy of the first vehicle's node.
    if let Some((_, vehicle)) = sim
        .shards()
        .shards()
        .iter()
        .flat_map(|s| &s.vehicles)
        .next()
    {
        let mut node = vehicle.node.clone();
        let n = node.config().n_channels;
        let pv = PowerVector::from_fn(n, |ch| Some(-70.0 - ch as f32 * 0.1));
        let geo = GeoSample {
            heading_rad: 0.0,
            timestamp_s: sim.now_s(),
        };
        let t = Instant::now();
        node.append_metre(geo, &pv).expect("channel count matches");
        spans.append_s.push(t.elapsed().as_secs_f64());
    }
}

/// Runs measured epochs in a closed loop, pass after pass through the
/// geometries from geometry 0 (which `sim` must be), and checks each one.
/// The first cycle through every geometry also feeds the accuracy metrics
/// and the digest. Returns the epochs run and the live sim.
#[allow(clippy::too_many_arguments)]
fn measure(
    cfg: &FleetConfig,
    sim: FleetSim,
    clock: &mut Clock,
    epochs: &mut Epochs,
    mut spans: Option<&mut Spans>,
    budget: Duration,
    max_epochs: usize,
    raw: &mut Raw,
) -> (usize, FleetSim) {
    let pass = cfg.epochs - 1;
    let window = pass * GEOMETRIES;
    let mut live = Some(sim);
    let n = closed_loop(budget, window, max_epochs, |e| {
        if e > 0 && e % pass == 0 {
            if let (Some(s), Some(old)) = (spans.as_deref_mut(), &live) {
                s.close_pass(old);
            }
            live = None;
            let next = geometry(cfg, (e / pass) % GEOMETRIES);
            let ((fresh, first), _) = setup(&next, clock);
            check(&first, raw);
            if let Some(s) = spans.as_deref_mut() {
                s.open_pass(&fresh);
            }
            live = Some(fresh);
        }
        let sim = live.as_mut().expect("a sim is live");
        let (out, t) = clock.time(|| sim.step_epoch());
        epochs.epoch.push(t);
        epochs.query_s.push(out.query_wall_s);
        raw.attempted += 1;
        check(&out, raw);
        epochs.fixes += out.fixes.len() as u64;
        epochs.ok += out.fixes_ok() as u64;
        if e < window {
            epochs.window_fixes += out.fixes.len() as u64;
            epochs.window_ok += out.fixes_ok() as u64;
            let mut current = Vec::new();
            for f in &out.fixes {
                let d = f.result.as_ref().ok().map(|g| g.fix.distance_m);
                if spans.is_none() {
                    raw.digest.fix(f.observer, f.neighbour, d);
                }
                if let (Some(d), Ok(g)) = (d, &f.result) {
                    if driven_since_snapshot(sim, f.observer, f.neighbour) == Some(0) {
                        epochs.abs_err_m.push((d - f.truth_m).abs());
                        current.push((f.observer, f.neighbour, g));
                    }
                }
            }
            let truth = |anchor, id| sim.truth_gap_m(anchor, id, out.t_s);
            if let Some(f) = layers::fuse(&current, truth) {
                epochs.fused_err_m.extend(&f.abs_err_m);
            }
        }
        if spans.is_none() {
            time_fixes(sim, &out, clock, &mut epochs.fix);
        }
        if let Some(s) = spans.as_deref_mut() {
            s.tasks += out.steals.tasks;
            s.steals += out.steals.steals;
            let per_worker: Vec<f64> = out.steals.per_worker.iter().map(|&n| n as f64).collect();
            let busiest = per_worker.iter().copied().fold(0.0, f64::max);
            if out.steals.tasks > 0 {
                s.imbalance.push(busiest / mean(&per_worker));
            }
            s.candidates.push(out.candidates as f64);
            s.relayed += out.relayed as u64;
            s.rehomes += out.rehomes as u64;
            for f in &out.fixes {
                if let Ok(g) = &f.result {
                    s.graded += 1;
                    s.low += usize::from(g.report.quality == FixQuality::Low);
                }
            }
            if let Some(f) = fuse(sim, &out) {
                s.solve_s.push(f.solve_s);
                s.edges += f.edges;
                s.rejected += f.rejected;
                s.resolved.push(f.resolved as f64);
            }
            replay(sim, s);
        }
    });
    (n, live.expect("a sim is live"))
}

pub(crate) fn run(opts: &Options) -> Raw {
    let cfg = config(opts.scale, opts.seed);
    let mut raw = Raw::default();
    let mut clock = Clock::new();
    // The set-ups cycle through the geometries and end on geometry 0, where
    // the measured loop starts.
    let mut k = SETUPS;
    let (setup_s, (sim, first)) = timed_setups(&mut clock, SETUPS, |clock| {
        k -= 1;
        setup(&geometry(&cfg, k % GEOMETRIES), clock)
    });
    check(&first, &mut raw);

    // A traced run spends half its budget on the untraced reference.
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut epochs = Epochs::default();
    let (n_epochs, sim) = measure(
        &cfg,
        sim,
        &mut clock,
        &mut epochs,
        None,
        budget,
        usize::MAX,
        &mut raw,
    );
    drop(sim);
    if !opts.trace {
        raw.set("setup_s", setup_s);
        let mut fix_s: Vec<f64> = epochs.fix.iter().map(|t| t.ref_s).collect();
        let mut epoch_s: Vec<f64> = epochs.epoch.iter().map(|t| t.ref_s).collect();
        raw.set("fix_ms_p50", quantile(&mut fix_s, 0.50) * 1e3);
        raw.set("fix_ms_p95", quantile(&mut fix_s, 0.95) * 1e3);
        raw.set("epoch_ms_p50", quantile(&mut epoch_s, 0.50) * 1e3);
        raw.set("epoch_ms_p90", quantile(&mut epoch_s, 0.90) * 1e3);
        raw.set("fixes_per_s", ratio(epochs.ok as f64, epoch_s.iter().sum()));
        raw.set(
            "fix_ok_ratio",
            ratio(epochs.window_ok as f64, epochs.window_fixes as f64),
        );
        raw.set("fix_abs_err_m_mean", mean(&epochs.abs_err_m));
        raw.set("fused_abs_err_m_mean", mean(&epochs.fused_err_m));
        return raw;
    }

    // Traced run: a second, identical sim repeats the same number of epochs
    // with spans and replays on; the first sim's epochs are the untraced
    // reference for the tracing overhead.
    let (_, (sim, _)) = timed_setups(&mut clock, 1, |clock| setup(&cfg, clock));
    let mut traced = Epochs::default();
    let mut spans = Spans::default();
    spans.open_pass(&sim);
    let (_, sim) = measure(
        &cfg,
        sim,
        &mut clock,
        &mut traced,
        Some(&mut spans),
        Duration::MAX,
        n_epochs,
        &mut raw,
    );
    spans.close_pass(&sim);
    let d = &spans.counters;
    let n = traced.epoch.len() as f64;
    let epoch_ms: f64 = traced.epoch.iter().map(|t| t.wall_s).sum::<f64>() * 1e3;
    let query_ms: f64 = traced.query_s.iter().sum::<f64>() * 1e3;
    let fixes = traced.fixes as f64;
    layers::engine(&mut raw, d, fixes);
    // The fixes run inside the scheduler; its worker time (query-phase wall
    // × workers) bounds their wall time from above.
    raw.set(
        "pipeline.unattributed_ms",
        ratio(
            query_ms * cfg.workers as f64 - d.hist_sum_ms("rups_core_engine_query_ns"),
            fixes,
        ),
    );
    raw.set("pipeline.append_us", mean(&spans.append_s) * 1e6);
    raw.set("pipeline.snapshot_us", mean(&spans.snapshot_s) * 1e6);
    raw.set("codec.encode_us", mean(&spans.encode_s) * 1e6);
    raw.set("codec.decode_us", mean(&spans.decode_s) * 1e6);
    raw.set("codec.bytes_per_beacon", mean(&spans.wire_bytes));
    raw.set("codec.decode_ok", d.counter("rups_v2v_codec_decode_ok"));
    raw.set(
        "codec.rejected",
        d.counters_with_prefix("rups_v2v_codec_rejected"),
    );
    let offered = d.counter("rups_v2v_link_offered");
    let delivered = d.counter("rups_v2v_link_delivered");
    raw.set("link.offered", offered);
    raw.set("link.delivered", delivered);
    raw.set("link.delivery_ratio", ratio(delivered, offered));
    raw.set("link.dropped", d.counter("rups_v2v_link_dropped"));
    raw.set("link.duplicated", d.counter("rups_v2v_link_duplicated"));
    raw.set("link.corrupted", d.counter("rups_v2v_link_corrupted"));
    raw.set("link.deliveries_per_fix", ratio(delivered, fixes));
    raw.set("inbox.accepted", d.counter("rups_core_inbox_accepted"));
    raw.set(
        "inbox.rejected",
        d.counters_with_prefix("rups_core_inbox_rejected"),
    );
    raw.set(
        "inbox.ignored_outdated",
        d.counter("rups_core_inbox_ignored_outdated"),
    );
    raw.set(
        "inbox.validate_ms",
        d.hist_mean_ms("rups_core_inbox_validate_ns"),
    );
    raw.set("sim.query_ms", query_ms / n);
    raw.set("sim.non_query_ms", (epoch_ms - query_ms) / n);
    raw.set("sim.query_share", ratio(query_ms, epoch_ms));
    raw.set("sched.tasks", spans.tasks as f64);
    raw.set("sched.steals", spans.steals as f64);
    raw.set("sched.imbalance", mean(&spans.imbalance));
    raw.set("cell.candidates", mean(&spans.candidates));
    raw.set("cell.moves", spans.cell_moves as f64);
    raw.set("cell.halo_query_us", mean(&spans.halo_s) * 1e6);
    raw.set("shard.relayed", spans.relayed as f64);
    raw.set("shard.rehomes", spans.rehomes as f64);
    raw.set("shard.routed_shed", d.counter("rups_fleet_routed_shed"));
    raw.set(
        "quality.low_ratio",
        ratio(spans.low as f64, spans.graded as f64),
    );
    raw.set("fuse.solve_ms", mean(&spans.solve_s) * 1e3);
    raw.set("fuse.edges", spans.edges as f64);
    raw.set("fuse.edges_rejected", spans.rejected as f64);
    raw.set("fuse.resolved", mean(&spans.resolved));
    let ref_s = |e: &Epochs| e.epoch.iter().map(|t| t.ref_s).sum::<f64>();
    raw.set(
        "trace.overhead_ratio",
        ref_s(&traced) / ref_s(&epochs) - 1.0,
    );
    raw.set("host.slowdown", clock.slowdown());
    raw
}
