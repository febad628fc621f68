//! The repository benchmark: three closed-loop workloads that drive the
//! RUPS pairwise fix (`RupsNode::fix_distance`) and the fleet epoch
//! (`FleetSim::step_epoch`) from outside, through public calls only.
//!
//! One run builds a workload from a seed, sets it up several times (the
//! median is `setup_s`), then issues fixes or epochs one at a time for a
//! fixed wall-clock budget and prints every end-to-end metric. A traced run
//! (`trace = true`) instead prints the per-layer metrics: spans the
//! benchmark takes around its own calls, deltas of the registry counters
//! and histograms the program exports, the fields of `EpochOutcome`, and
//! replays of public calls on the epoch's live state. End-to-end times are
//! taken at reference speed (see `src/clock.rs`), so that a shared host's speed
//! phases do not read as changes of the program. See `README.md` for the
//! layer → end-to-end → workload table.

mod clock;
pub mod fingerprint;
mod fleet;
mod layers;
mod pair;
mod stats;

use clock::{Clock, Interval};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The benchmark's workloads, by the names `BENCHMARK.json` records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's geometry (`RupsConfig::default()`), 1000 m contexts.
    PairPaper,
    /// The paper's geometry with 2400 m contexts.
    PairLong,
    /// 96 vehicles, 25 m query radius, bursty faulty links, fusion on.
    FleetSparseLossy,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PairPaper,
        Workload::PairLong,
        Workload::FleetSparseLossy,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PairPaper => "pair-paper",
            Workload::PairLong => "pair-long",
            Workload::FleetSparseLossy => "fleet-sparse-lossy",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Full` is the benchmark; `Tiny` shrinks every workload so
/// the smoke tests finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` documents.
    Full,
    /// Small contexts, few neighbours or vehicles, minimal unit counts.
    Tiny,
}

/// How to run one workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock budget of the measured part.
    pub seconds: f64,
    /// Print per-layer metrics instead of end-to-end metrics.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Added to every pair workload's known offset before the accuracy
    /// check. Zero in the benchmark; the tests set it to prove that the
    /// check catches wrong fixes.
    pub truth_shift_m: f64,
}

impl Options {
    /// The benchmark's options for a seed, budget and mode.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            truth_shift_m: 0.0,
        }
    }
}

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("fix_ms_p50", "ms"),
    ("fix_ms_p95", "ms"),
    ("epoch_ms_p50", "ms"),
    ("epoch_ms_p90", "ms"),
    ("fixes_per_s", "1/s"),
    ("fix_ok_ratio", "ratio"),
    ("fix_abs_err_m_mean", "m"),
    ("fused_abs_err_m_mean", "m"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer a
/// workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("kernel.passes", "count"),
    ("kernel.fft_passes", "count"),
    ("kernel.rolling_passes", "count"),
    ("kernel.fft_fallbacks", "count"),
    ("kernel.scan_ms", "ms"),
    ("kernel.us_per_pass", "us"),
    ("kernel.passes_per_fix", "count"),
    ("kernel.pruned_placements", "count"),
    ("kernel.scan_share_of_query", "ratio"),
    ("engine.queries", "count"),
    ("engine.query_ms", "ms"),
    ("engine.context_rebuilds", "count"),
    ("engine.context_rebuild_ms", "ms"),
    ("engine.window_builds", "count"),
    ("engine.window_build_ms", "ms"),
    ("engine.window_hit_ratio", "ratio"),
    ("engine.resolve_ms", "ms"),
    ("engine.scratch_reuse_ratio", "ratio"),
    ("pipeline.append_us", "us"),
    ("pipeline.snapshot_us", "us"),
    ("pipeline.unattributed_ms", "ms"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.bytes_per_beacon", "B"),
    ("codec.decode_ok", "count"),
    ("codec.rejected", "count"),
    ("link.offered", "count"),
    ("link.delivered", "count"),
    ("link.delivery_ratio", "ratio"),
    ("link.dropped", "count"),
    ("link.duplicated", "count"),
    ("link.corrupted", "count"),
    ("link.deliveries_per_fix", "count"),
    ("inbox.accepted", "count"),
    ("inbox.rejected", "count"),
    ("inbox.ignored_outdated", "count"),
    ("inbox.validate_ms", "ms"),
    ("sim.query_ms", "ms"),
    ("sim.non_query_ms", "ms"),
    ("sim.query_share", "ratio"),
    ("sched.tasks", "count"),
    ("sched.steals", "count"),
    ("sched.imbalance", "ratio"),
    ("cell.candidates", "count"),
    ("cell.moves", "count"),
    ("cell.halo_query_us", "us"),
    ("shard.relayed", "count"),
    ("shard.rehomes", "count"),
    ("shard.routed_shed", "count"),
    ("quality.low_ratio", "ratio"),
    ("fuse.solve_ms", "ms"),
    ("fuse.edges", "count"),
    ("fuse.edges_rejected", "count"),
    ("fuse.resolved", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.slowdown", "ratio"),
];

/// What one run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// Closed-loop operations issued: `fix_distance` calls on pair
    /// workloads, `step_epoch` calls on the fleet workload.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failed check (empty when every check passed).
    pub violations: Vec<String>,
    /// FNV-1a digest of the fixed check window's fix outputs (observer,
    /// neighbour, distance bits): equal digests mean bit-identical fixes.
    pub digest: u64,
    /// `(name, value)` of every metric the mode prints, in table order.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// True when every correctness check passed and every metric is finite.
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    /// The value of one metric, if printed.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self, trace: bool) -> String {
        let units = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = units
                .iter()
                .find(|(n, _)| n == name)
                .map(|u| u.1)
                .expect("every printed metric is in its table");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Runs one workload and checks its outputs.
pub fn run(workload: Workload, opts: &Options) -> Report {
    let mut raw = match workload {
        Workload::PairPaper | Workload::PairLong => pair::run(workload, opts),
        Workload::FleetSparseLossy => fleet::run(opts),
    };
    if !opts.trace {
        raw.set("peak_rss_mb", stats::peak_rss_mb());
    }
    raw.into_report(opts.trace)
}

/// Metrics and checks a workload module gathers, before they are put in
/// table order.
#[derive(Default)]
pub(crate) struct Raw {
    values: Vec<(&'static str, f64)>,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    digest: stats::Digest,
}

impl Raw {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn violation(&mut self, msg: String) {
        self.failed += 1;
        if self.violations.len() < 16 {
            self.violations.push(msg);
        }
    }

    fn into_report(self, trace: bool) -> Report {
        let table = if trace {
            &PER_LAYER[..]
        } else {
            &END_TO_END[..]
        };
        let mut violations = self.violations;
        if self.failed as usize > violations.len() {
            violations.push(format!("... {} failed checks in all", self.failed));
        }
        let metrics = table
            .iter()
            .map(|&(name, _)| {
                let value = self
                    .values
                    .iter()
                    .rev()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |v| v.1);
                if !value.is_finite() {
                    violations.push(format!("metric {name} is not finite: {value}"));
                }
                (name, if value.is_finite() { value } else { 0.0 })
            })
            .collect();
        Report {
            attempted: self.attempted.max(1),
            failed: self.failed,
            violations,
            digest: self.digest.value(),
            metrics,
        }
    }
}

/// Runs `setup` `n` times and returns the median of the times it reports
/// (at reference speed, see [`clock`]) with the last instance built.
/// Earlier instances are dropped before the next is built, so peak memory
/// holds one instance.
pub(crate) fn timed_setups<T>(
    clock: &mut Clock,
    n: usize,
    mut setup: impl FnMut(&mut Clock) -> (T, Interval),
) -> (f64, T) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (built, took) = setup(clock);
        times.push(took.ref_s);
        last = Some(built);
    }
    (
        stats::quantile(&mut times, 0.5),
        last.expect("at least one setup"),
    )
}

/// Runs `step` until `budget` of wall time has passed and at least
/// `min_units` units ran, or until `max_units`; returns the number of units
/// run. Each unit starts only after the previous one returned: a closed
/// loop with one caller.
pub(crate) fn closed_loop(
    budget: Duration,
    min_units: usize,
    max_units: usize,
    mut step: impl FnMut(usize),
) -> usize {
    let started = Instant::now();
    let mut units = 0;
    while units < max_units && (units < min_units || started.elapsed() < budget) {
        step(units);
        units += 1;
    }
    units
}
