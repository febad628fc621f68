//! `pair-paper` and `pair-long`: one observer and eight neighbours at known
//! offsets over the shared synthetic field. Every round all nine drive
//! 10 m in lockstep, every neighbour takes a snapshot, and the observer
//! fixes its distance to each neighbour with one `fix_distance` call at a
//! time, so each context version serves eight queries.

use crate::clock::{Clock, Interval};
use crate::stats::{mean, quantile, ratio, RegistryDelta};
use crate::{closed_loop, timed_setups, Options, Raw, Scale, Workload};
use rups_core::quality::{self, FixQuality, QualityConfig};
use rups_core::{
    testfield, ContextSnapshot, GeoSample, GradedFix, PowerVector, RupsConfig, RupsNode,
};
use std::time::{Duration, Instant};

/// Neighbour offsets from the observer, metres (positive = ahead). The
/// fractional parts are fixed so that the accuracy metric measures
/// sub-metre resolution the same way on every seed.
const OFFSETS_M: [f64; 8] = [-57.3, -34.6, -16.2, -4.7, 6.4, 17.8, 33.5, 58.1];
/// Metres every vehicle drives between rounds.
const DRIVE_M: usize = 10;
/// Road metre of the observer's first context metre.
const ROAD_START_M: f64 = 5_000.0;
/// A fix further than this from the known offset fails the check (the
/// tolerance of the `syn_batch` workload's check).
const MAX_ERR_M: f64 = 1.5;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Observer id; neighbour `i` has id `i + 2`.
const OBSERVER: u64 = 1;

struct Geometry {
    cfg: RupsConfig,
    offsets: &'static [f64],
    /// Measured rounds every run completes; accuracy metrics and the
    /// digest cover exactly these, so they repeat bit for bit.
    window_rounds: usize,
}

impl Geometry {
    fn of(workload: Workload, scale: Scale) -> Geometry {
        let context_m = match (workload, scale) {
            (Workload::PairPaper, Scale::Full) => 1000,
            (Workload::PairLong, Scale::Full) => 2400,
            (Workload::PairPaper, Scale::Tiny) => 200,
            _ => 300,
        };
        Geometry {
            cfg: RupsConfig {
                max_context_m: context_m,
                ..RupsConfig::default()
            },
            offsets: match scale {
                Scale::Full => &OFFSETS_M,
                Scale::Tiny => &OFFSETS_M[3..5],
            },
            window_rounds: match scale {
                Scale::Full => 6,
                Scale::Tiny => 1,
            },
        }
    }

    fn context_m(&self) -> usize {
        self.cfg.max_context_m
    }

    /// Road offset of vehicle `v` (0 = observer).
    fn offset(&self, v: usize) -> f64 {
        if v == 0 {
            0.0
        } else {
            self.offsets[v - 1]
        }
    }
}

/// The synthetic field every vehicle samples.
struct Field {
    seed: u64,
    n_channels: usize,
}

impl Field {
    /// Vehicle `v`'s power vector at its `k`-th metre.
    fn metre(&self, geom: &Geometry, v: usize, k: usize) -> PowerVector {
        let s = ROAD_START_M + geom.offset(v) + k as f64;
        PowerVector::from_fn(self.n_channels, |ch| {
            Some(testfield::rssi(self.seed, s, ch))
        })
    }

    /// Metres `from..to` of every vehicle, indexed `[vehicle][metre]`.
    fn metres(&self, geom: &Geometry, from: usize, to: usize) -> Vec<Vec<PowerVector>> {
        (0..=geom.offsets.len())
            .map(|v| (from..to).map(|k| self.metre(geom, v, k)).collect())
            .collect()
    }
}

fn geo(k: usize) -> GeoSample {
    GeoSample {
        heading_rad: 0.0,
        timestamp_s: k as f64 * 0.1,
    }
}

/// Per-layer spans and replays, taken only by a traced run.
#[derive(Default)]
struct Spans {
    append_s: Vec<f64>,
    snapshot_s: Vec<f64>,
    low: usize,
    graded: usize,
    solve_s: Vec<f64>,
    edges: usize,
    rejected: usize,
    resolved: Vec<f64>,
}

/// What the measured rounds produced.
#[derive(Default)]
struct Rounds {
    fix: Vec<Interval>,
    round: Vec<Interval>,
    fixes: u64,
    ok: u64,
    window_fixes: u64,
    window_ok: u64,
    abs_err_m: Vec<f64>,
    fused_err_m: Vec<f64>,
}

struct Pair {
    observer: RupsNode,
    neighbours: Vec<RupsNode>,
    /// Metres appended per vehicle so far.
    driven: usize,
}

impl Pair {
    /// Builds the nine nodes from pre-generated context metres; returns
    /// them with the time the builds took.
    fn build(geom: &Geometry, context: &[Vec<PowerVector>], clock: &mut Clock) -> (Pair, Interval) {
        let mut took = Interval::default();
        let mut nodes = context.iter().enumerate().map(|(v, metres)| {
            let (node, t) = clock.time(|| {
                let mut n = RupsNode::new(geom.cfg.clone()).with_vehicle_id(OBSERVER + v as u64);
                for (k, pv) in metres.iter().enumerate() {
                    n.append_metre(geo(k), pv).expect("channel count matches");
                }
                n
            });
            took += t;
            node
        });
        let observer = nodes.next().expect("an observer");
        let pair = Pair {
            observer,
            neighbours: nodes.collect(),
            driven: geom.context_m(),
        };
        (pair, took)
    }

    fn registry(&self) -> &rups_obs::Registry {
        self.observer.registry()
    }

    /// One round: drive, snapshot, fix every neighbour. Returns the fixes
    /// and the round's time, and adds each fix's time to `fix`.
    fn round(
        &mut self,
        drive: &[Vec<PowerVector>],
        clock: &mut Clock,
        fix: &mut Vec<Interval>,
        mut spans: Option<&mut Spans>,
    ) -> (Vec<FixResult>, Interval) {
        let k0 = self.driven;
        let ((), mut round) = clock.time(|| {
            for (v, metres) in drive.iter().enumerate() {
                let node = if v == 0 {
                    &mut self.observer
                } else {
                    &mut self.neighbours[v - 1]
                };
                for (i, pv) in metres.iter().enumerate() {
                    let t = Instant::now();
                    node.append_metre(geo(k0 + i), pv)
                        .expect("channel count matches");
                    if let Some(s) = spans.as_deref_mut() {
                        s.append_s.push(t.elapsed().as_secs_f64());
                    }
                }
            }
        });
        self.driven += DRIVE_M;
        let (snaps, t) = clock.time(|| {
            self.neighbours
                .iter()
                .map(|n| {
                    let t = Instant::now();
                    let snap = n.snapshot(None);
                    if let Some(s) = spans.as_deref_mut() {
                        s.snapshot_s.push(t.elapsed().as_secs_f64());
                    }
                    snap
                })
                .collect::<Vec<ContextSnapshot>>()
        });
        round += t;
        let fixes = snaps
            .iter()
            .map(|snap| {
                let (result, t) = clock.time(|| self.observer.fix_distance(snap));
                fix.push(t);
                round += t;
                result
            })
            .collect();
        (fixes, round)
    }
}

type FixResult = Result<rups_core::DistanceFix, rups_core::RupsError>;

/// Checks a round's fixes against the known offsets; returns the graded
/// fixes that passed.
fn check(
    geom: &Geometry,
    opts: &Options,
    fixes: Vec<FixResult>,
    raw: &mut Raw,
) -> Vec<(u64, GradedFix)> {
    let mut ok = Vec::new();
    for (i, fix) in fixes.into_iter().enumerate() {
        let truth = geom.offsets[i] + opts.truth_shift_m;
        match fix {
            Ok(fix) if (fix.distance_m - truth).abs() <= MAX_ERR_M => {
                let report = quality::assess(&fix, &QualityConfig::default());
                ok.push((OBSERVER + 1 + i as u64, GradedFix { fix, report }));
            }
            Ok(fix) => raw.violation(format!(
                "neighbour {}: fix {:.3} m is more than {MAX_ERR_M} m from the known offset {truth:.3} m",
                i + 1,
                fix.distance_m
            )),
            Err(e) => raw.violation(format!("neighbour {}: fix refused: {e}", i + 1)),
        }
    }
    ok
}

pub(crate) fn run(workload: Workload, opts: &Options) -> Raw {
    let geom = Geometry::of(workload, opts.scale);
    let field = Field {
        seed: testfield::splitmix64(opts.seed),
        n_channels: geom.cfg.n_channels,
    };
    let mut raw = Raw::default();
    let context = field.metres(&geom, 0, geom.context_m());
    let warm = field.metres(&geom, geom.context_m(), geom.context_m() + DRIVE_M);
    let mut clock = Clock::new();
    let setup = |clock: &mut Clock| {
        let (mut pair, built) = Pair::build(&geom, &context, clock);
        let (fixes, round) = pair.round(&warm, clock, &mut Vec::new(), None);
        let mut took = built;
        took += round;
        ((pair, fixes), took)
    };
    let (setup_s, (mut pair, warm_fixes)) = timed_setups(&mut clock, SETUPS, setup);
    check(&geom, opts, warm_fixes, &mut raw);

    // A traced run spends half its budget on the untraced reference.
    let budget = Duration::from_secs_f64(if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    });
    let mut rounds = Rounds::default();
    let n_rounds = measure(
        &geom,
        &field,
        opts,
        &mut pair,
        &mut clock,
        &mut rounds,
        None,
        budget,
        usize::MAX,
        &mut raw,
    );
    if !opts.trace {
        raw.set("setup_s", setup_s);
        let mut fix_s: Vec<f64> = rounds.fix.iter().map(|t| t.ref_s).collect();
        let mut round_s: Vec<f64> = rounds.round.iter().map(|t| t.ref_s).collect();
        raw.set("fix_ms_p50", quantile(&mut fix_s, 0.50) * 1e3);
        raw.set("fix_ms_p95", quantile(&mut fix_s, 0.95) * 1e3);
        raw.set("epoch_ms_p50", quantile(&mut round_s, 0.50) * 1e3);
        raw.set("epoch_ms_p90", quantile(&mut round_s, 0.90) * 1e3);
        raw.set("fixes_per_s", ratio(rounds.ok as f64, round_s.iter().sum()));
        raw.set(
            "fix_ok_ratio",
            ratio(rounds.window_ok as f64, rounds.window_fixes as f64),
        );
        raw.set("fix_abs_err_m_mean", mean(&rounds.abs_err_m));
        raw.set("fused_abs_err_m_mean", mean(&rounds.fused_err_m));
        return raw;
    }

    // Traced run: a second, identical instance repeats the same number of
    // rounds with spans and replays on; the first instance's rounds are the
    // untraced reference for the tracing overhead.
    let (_, (mut pair, _)) = timed_setups(&mut clock, 1, setup);
    let mut traced = Rounds::default();
    let mut spans = Spans::default();
    let mut d = RegistryDelta::default();
    d.open([pair.registry()]);
    measure(
        &geom,
        &field,
        opts,
        &mut pair,
        &mut clock,
        &mut traced,
        Some(&mut spans),
        Duration::MAX,
        n_rounds,
        &mut raw,
    );
    d.close([pair.registry()]);
    let fix_wall_ms: f64 = traced.fix.iter().map(|t| t.wall_s).sum::<f64>() * 1e3;
    let round_wall_ms: f64 = traced.round.iter().map(|t| t.wall_s).sum::<f64>() * 1e3;
    let n = traced.round.len() as f64;
    crate::layers::engine(&mut raw, &d, traced.fixes as f64);
    raw.set(
        "pipeline.unattributed_ms",
        ratio(
            fix_wall_ms - d.hist_sum_ms("rups_core_engine_query_ns"),
            traced.fixes as f64,
        ),
    );
    raw.set("pipeline.append_us", mean(&spans.append_s) * 1e6);
    raw.set("pipeline.snapshot_us", mean(&spans.snapshot_s) * 1e6);
    raw.set("sim.query_ms", fix_wall_ms / n);
    raw.set("sim.non_query_ms", (round_wall_ms - fix_wall_ms) / n);
    raw.set("sim.query_share", ratio(fix_wall_ms, round_wall_ms));
    raw.set(
        "quality.low_ratio",
        ratio(spans.low as f64, spans.graded as f64),
    );
    raw.set("fuse.solve_ms", mean(&spans.solve_s) * 1e3);
    raw.set("fuse.edges", spans.edges as f64);
    raw.set("fuse.edges_rejected", spans.rejected as f64);
    raw.set("fuse.resolved", mean(&spans.resolved));
    let ref_s = |r: &Rounds| r.round.iter().map(|t| t.ref_s).sum::<f64>();
    raw.set(
        "trace.overhead_ratio",
        ref_s(&traced) / ref_s(&rounds) - 1.0,
    );
    raw.set("host.slowdown", clock.slowdown());
    raw
}

/// Runs measured rounds in a closed loop and checks every fix. The first
/// `window_rounds` rounds also feed the accuracy metrics and the digest.
#[allow(clippy::too_many_arguments)]
fn measure(
    geom: &Geometry,
    field: &Field,
    opts: &Options,
    pair: &mut Pair,
    clock: &mut Clock,
    rounds: &mut Rounds,
    mut spans: Option<&mut Spans>,
    budget: Duration,
    max_rounds: usize,
    raw: &mut Raw,
) -> usize {
    closed_loop(budget, geom.window_rounds, max_rounds, |r| {
        let drive = field.metres(geom, pair.driven, pair.driven + DRIVE_M);
        let (fixes, round) = pair.round(&drive, clock, &mut rounds.fix, spans.as_deref_mut());
        rounds.round.push(round);
        let attempted = fixes.len() as u64;
        rounds.fixes += attempted;
        raw.attempted += attempted;
        let graded = check(geom, opts, fixes, raw);
        rounds.ok += graded.len() as u64;
        let in_window = r < geom.window_rounds;
        if in_window {
            rounds.window_fixes += attempted;
            rounds.window_ok += graded.len() as u64;
            for (id, g) in &graded {
                let truth = geom.offsets[(*id - OBSERVER - 1) as usize];
                rounds.abs_err_m.push((g.fix.distance_m - truth).abs());
                if spans.is_none() {
                    raw.digest.fix(OBSERVER, *id, Some(g.fix.distance_m));
                }
            }
        }
        if in_window || spans.is_some() {
            let edges: Vec<_> = graded.iter().map(|(id, g)| (OBSERVER, *id, g)).collect();
            let truth = |_anchor: u64, id: u64| geom.offsets[(id - OBSERVER - 1) as usize];
            if let Some(fused) = crate::layers::fuse(&edges, truth) {
                if in_window {
                    rounds.fused_err_m.extend(&fused.abs_err_m);
                }
                if let Some(s) = spans.as_deref_mut() {
                    s.solve_s.push(fused.solve_s);
                    s.edges += fused.edges;
                    s.rejected += fused.rejected;
                    s.resolved.push(fused.resolved as f64);
                }
            }
        }
        if let Some(s) = spans.as_deref_mut() {
            s.graded += graded.len();
            s.low += graded
                .iter()
                .filter(|(_, g)| g.report.quality == FixQuality::Low)
                .count();
        }
    })
}
