//! Fleet aggregation: folding N per-node registries into one snapshot.
//!
//! Every `RupsNode` owns a private [`Registry`](crate::Registry); a fleet
//! run therefore produces N [`MetricsSnapshot`]s per window. The
//! [`FleetAggregator`] merges them into a single fleet-level snapshot —
//! counters sum, same-named log₂ histograms bucket-merge exactly (so
//! fleet quantiles are computed over the union distribution, not averaged
//! per node), gauges average weighted by each node's sample count — and
//! ranks the top-k *worst* nodes under declarative [`Criterion`]s (p99
//! latency, error rates, gauges such as per-node fix error).
//!
//! The merged snapshot is an ordinary [`MetricsSnapshot`]: per-window
//! fleet deltas come from [`MetricsSnapshot::delta`] and feed the same
//! [`TriggerRule`]s the per-node
//! [`FlightRecorder`](crate::FlightRecorder) evaluates — see
//! [`check_fleet_rules`].

use crate::flight::{TriggerEvent, TriggerRule};
use crate::hist::{HistogramSample, ShapeMismatch};
use crate::registry::{escape_label_value, CounterSample, GaugeSample, MetricsSnapshot};
use serde::{Deserialize, Serialize};

/// What a [`Criterion`] reads from a node snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CriterionKind {
    /// p99 of the histogram named by `metric` (ns for latency
    /// histograms).
    HistogramP99,
    /// `sum(num) / sum(den)` over counters (unranked when the denominator
    /// is 0).
    CounterRatio,
    /// The current value of the gauge named by `metric` (e.g. per-node
    /// mean fix error in metres).
    GaugeValue,
}

/// How to score one node when ranking the fleet's worst.
///
/// Higher scores are worse under every criterion, so floors ("good"
/// ratios) must be expressed as their bad complement (e.g. rank by
/// rejection rate, not acceptance rate). Flat like
/// [`TriggerRule`] so it serialises through the declarative config
/// channel: `metric` feeds the histogram/gauge kinds, `num`/`den` the
/// ratio kind; unused fields stay empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Criterion {
    /// Label this ranking is published under.
    pub label: String,
    /// Which reading to take.
    pub kind: CriterionKind,
    /// Histogram or gauge name (ratio criteria leave it empty).
    pub metric: String,
    /// Counter names summed into the numerator (ratio criteria only).
    pub num: Vec<String>,
    /// Counter names summed into the denominator (ratio criteria only).
    pub den: Vec<String>,
}

impl Criterion {
    /// A p99-of-histogram criterion labelled by the metric name.
    pub fn histogram_p99(metric: &str) -> Self {
        Criterion {
            label: metric.to_string(),
            kind: CriterionKind::HistogramP99,
            metric: metric.to_string(),
            num: Vec::new(),
            den: Vec::new(),
        }
    }

    /// A counter-ratio criterion.
    pub fn counter_ratio(label: &str, num: Vec<String>, den: Vec<String>) -> Self {
        Criterion {
            label: label.to_string(),
            kind: CriterionKind::CounterRatio,
            metric: String::new(),
            num,
            den,
        }
    }

    /// A gauge-value criterion labelled by the gauge name.
    pub fn gauge_value(metric: &str) -> Self {
        Criterion {
            label: metric.to_string(),
            kind: CriterionKind::GaugeValue,
            metric: metric.to_string(),
            num: Vec::new(),
            den: Vec::new(),
        }
    }

    /// Scores one node's snapshot; `None` when the inputs are absent or
    /// empty (the node then simply does not rank).
    pub fn score(&self, snap: &MetricsSnapshot) -> Option<f64> {
        match self.kind {
            CriterionKind::HistogramP99 => {
                let h = snap.histogram(&self.metric)?;
                (h.count > 0).then_some(h.p99)
            }
            CriterionKind::CounterRatio => {
                let sum = |names: &[String]| -> u64 {
                    names.iter().map(|n| snap.counter(n).unwrap_or(0)).sum()
                };
                let d = sum(&self.den);
                (d > 0).then(|| sum(&self.num) as f64 / d as f64)
            }
            CriterionKind::GaugeValue => snap.gauge(&self.metric).filter(|v| v.is_finite()),
        }
    }
}

/// One node's score under a criterion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeScore {
    /// Vehicle/node id.
    pub node_id: u64,
    /// The score (higher is worse).
    pub value: f64,
}

/// The worst nodes under one criterion, worst first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstList {
    /// The criterion's label.
    pub criterion: String,
    /// Top-k nodes, worst first.
    pub ranked: Vec<NodeScore>,
}

/// A fleet-level snapshot: the merged metrics plus worst-node rankings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSnapshot {
    /// Node ids that contributed, in input order.
    pub nodes: Vec<u64>,
    /// The merged metrics (counters summed, histograms bucket-merged,
    /// gauges sample-weighted averaged).
    pub merged: MetricsSnapshot,
    /// Top-k worst nodes per configured criterion.
    pub worst: Vec<WorstList>,
}

impl FleetSnapshot {
    /// The fleet-window delta against an earlier fleet snapshot (merged
    /// metrics only; rankings are point-in-time and do not subtract).
    pub fn delta(&self, earlier: &FleetSnapshot) -> MetricsSnapshot {
        self.merged.delta(&earlier.merged)
    }

    /// Prometheus exposition of the fleet: a `rups_fleet_nodes` gauge,
    /// one `rups_fleet_worst{criterion="…",node="…"}` sample per ranked
    /// node (label values escaped), then the merged metrics.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE rups_fleet_nodes gauge");
        let _ = writeln!(out, "rups_fleet_nodes {}", self.nodes.len());
        if self.worst.iter().any(|w| !w.ranked.is_empty()) {
            let _ = writeln!(out, "# TYPE rups_fleet_worst gauge");
        }
        for w in &self.worst {
            for s in &w.ranked {
                let _ = writeln!(
                    out,
                    "rups_fleet_worst{{criterion=\"{}\",node=\"{}\"}} {}",
                    escape_label_value(&w.criterion),
                    escape_label_value(&s.node_id.to_string()),
                    s.value
                );
            }
        }
        out.push_str(&self.merged.to_prometheus());
        out
    }
}

/// Merges per-node snapshots and ranks worst nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetAggregator {
    /// How many nodes each worst-list retains.
    pub top_k: usize,
    /// The rankings to compute.
    pub criteria: Vec<Criterion>,
}

impl Default for FleetAggregator {
    /// Ranks by engine-query p99, quality-rejection rate and the per-node
    /// fix-error gauge (`rups_node_fix_error_m`, set by fleet harnesses),
    /// keeping the worst 3.
    fn default() -> Self {
        FleetAggregator {
            top_k: 3,
            criteria: vec![
                Criterion::histogram_p99("rups_core_engine_query_ns"),
                Criterion::counter_ratio(
                    "fix_reject_rate",
                    vec!["rups_core_quality_rejected".into()],
                    vec![
                        "rups_core_quality_grade_high".into(),
                        "rups_core_quality_grade_medium".into(),
                        "rups_core_quality_grade_low".into(),
                        "rups_core_quality_rejected".into(),
                    ],
                ),
                Criterion::gauge_value("rups_node_fix_error_m"),
            ],
        }
    }
}

impl FleetAggregator {
    /// An aggregator with the default criteria.
    pub fn new() -> Self {
        Self::default()
    }

    /// Aggregates `(node_id, snapshot)` pairs into a [`FleetSnapshot`].
    ///
    /// Counters sum over every node holding the name; histograms
    /// bucket-merge (a bucket-shape disagreement — e.g. a compacted
    /// snapshot slipped in among full ones — aborts with the typed
    /// [`ShapeMismatch`] rather than misattributing counts); gauges
    /// average over the nodes holding them, weighted by each node's
    /// sample count so a node that set its gauge once does not count as
    /// much as one that set it ten thousand times. When no contributing
    /// node carries a sample count (all weights zero — e.g. snapshots
    /// deserialised from a pre-weighting artefact), the merge degrades to
    /// the unweighted mean.
    pub fn aggregate(
        &self,
        parts: &[(u64, MetricsSnapshot)],
    ) -> Result<FleetSnapshot, ShapeMismatch> {
        struct GaugeAcc {
            name: String,
            weighted_sum: f64,
            weight: u64,
            plain_sum: f64,
            nodes: u32,
        }
        let mut counters: Vec<CounterSample> = Vec::new();
        let mut gauge_accs: Vec<GaugeAcc> = Vec::new();
        let mut histograms: Vec<HistogramSample> = Vec::new();
        for (_, snap) in parts {
            for c in &snap.counters {
                match counters.iter_mut().find(|x| x.name == c.name) {
                    Some(x) => x.value = x.value.saturating_add(c.value),
                    None => counters.push(c.clone()),
                }
            }
            for g in &snap.gauges {
                match gauge_accs.iter_mut().find(|a| a.name == g.name) {
                    Some(a) => {
                        a.weighted_sum += g.value * g.samples as f64;
                        a.weight += g.samples;
                        a.plain_sum += g.value;
                        a.nodes += 1;
                    }
                    None => gauge_accs.push(GaugeAcc {
                        name: g.name.clone(),
                        weighted_sum: g.value * g.samples as f64,
                        weight: g.samples,
                        plain_sum: g.value,
                        nodes: 1,
                    }),
                }
            }
            for h in &snap.histograms {
                match histograms.iter_mut().find(|x| x.name == h.name) {
                    Some(x) => *x = x.try_merge(h)?,
                    None => histograms.push(h.clone()),
                }
            }
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let mut gauges: Vec<GaugeSample> = gauge_accs
            .into_iter()
            .map(|a| GaugeSample {
                value: if a.weight > 0 {
                    a.weighted_sum / a.weight as f64
                } else {
                    a.plain_sum / f64::from(a.nodes)
                },
                samples: a.weight,
                name: a.name,
            })
            .collect();
        gauges.sort_by(|a, b| a.name.cmp(&b.name));

        let worst = self
            .criteria
            .iter()
            .map(|c| {
                let mut ranked: Vec<NodeScore> = parts
                    .iter()
                    .filter_map(|(id, snap)| {
                        c.score(snap).map(|value| NodeScore {
                            node_id: *id,
                            value,
                        })
                    })
                    .collect();
                ranked.sort_by(|a, b| {
                    b.value
                        .partial_cmp(&a.value)
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                ranked.truncate(self.top_k);
                WorstList {
                    criterion: c.label.clone(),
                    ranked,
                }
            })
            .collect();

        Ok(FleetSnapshot {
            nodes: parts.iter().map(|(id, _)| *id).collect(),
            merged: MetricsSnapshot {
                counters,
                gauges,
                histograms,
            },
            worst,
        })
    }
}

/// Evaluates flight-recorder [`TriggerRule`]s against one fleet window
/// delta — the fleet-level analogue of the per-node
/// [`FlightRecorder::observe`](crate::FlightRecorder::observe) check.
pub fn check_fleet_rules(
    rules: &[TriggerRule],
    t_s: f64,
    delta: &MetricsSnapshot,
) -> Vec<TriggerEvent> {
    rules
        .iter()
        .filter_map(|r| {
            r.check(delta).map(|value| TriggerEvent {
                t_s,
                rule: r.name.clone(),
                value,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::TriggerOp;
    use crate::registry::Registry;

    fn node_snapshot(queries: u64, rejected: u64, latency_ns: &[u64]) -> MetricsSnapshot {
        let reg = Registry::new();
        reg.counter("rups_core_engine_queries").add(queries);
        reg.counter("rups_core_quality_rejected").add(rejected);
        reg.counter("rups_core_quality_grade_high")
            .add(queries.saturating_sub(rejected));
        let h = reg.histogram("rups_core_engine_query_ns");
        for &v in latency_ns {
            h.record(v);
        }
        reg.gauge("rups_node_fix_error_m")
            .set(rejected as f64 * 0.5);
        reg.snapshot()
    }

    #[test]
    fn merge_sums_counters_and_buckets_and_averages_gauges() {
        let parts = vec![
            (1u64, node_snapshot(10, 1, &[1_000, 1_000])),
            (2u64, node_snapshot(20, 2, &[1_000_000])),
            (3u64, node_snapshot(30, 9, &[8_000_000, 9_000_000])),
        ];
        let fleet = FleetAggregator::new().aggregate(&parts).unwrap();
        assert_eq!(fleet.nodes, vec![1, 2, 3]);
        assert_eq!(fleet.merged.counter("rups_core_engine_queries"), Some(60));
        let h = fleet.merged.histogram("rups_core_engine_query_ns").unwrap();
        assert_eq!(h.count, 5, "all nodes' samples in one distribution");
        assert_eq!(h.buckets.iter().sum::<u64>(), 5);
        // Fleet p99 reflects the slowest node's tail, not a per-node mean.
        assert!(h.p99 >= 8_000_000.0, "p99 {}", h.p99);
        // Each helper snapshot sets its gauge exactly once, so the
        // sample-weighted mean equals the plain mean: (0.5 + 1.0 + 4.5) / 3.
        let g = fleet.merged.gauge("rups_node_fix_error_m").unwrap();
        assert!((g - 2.0).abs() < 1e-9, "{g}");
    }

    #[test]
    fn gauge_merge_weights_by_sample_count() {
        let busy = Registry::new();
        let g = busy.gauge("rups_node_fix_error_m");
        for _ in 0..99 {
            g.set(1.0); // a node reporting continuously at 1 m
        }
        g.set(1.0);
        let quiet = Registry::new();
        quiet.gauge("rups_node_fix_error_m").set(101.0); // one wild reading
        let fleet = FleetAggregator::new()
            .aggregate(&[(1, busy.snapshot()), (2, quiet.snapshot())])
            .unwrap();
        let merged = fleet
            .merged
            .gauges
            .iter()
            .find(|g| g.name == "rups_node_fix_error_m")
            .unwrap();
        // Weighted: (100·1 + 1·101) / 101 ≈ 1.99 — not the unweighted 51.
        assert!(
            (merged.value - 201.0 / 101.0).abs() < 1e-9,
            "{}",
            merged.value
        );
        assert_eq!(merged.samples, 101, "merged weight sums node weights");
        // All-zero weights (never-set gauges) degrade to the plain mean.
        let a = Registry::new();
        a.gauge("idle");
        let b = Registry::new();
        b.gauge("idle");
        let fleet = FleetAggregator::new()
            .aggregate(&[(1, a.snapshot()), (2, b.snapshot())])
            .unwrap();
        let idle = fleet
            .merged
            .gauges
            .iter()
            .find(|g| g.name == "idle")
            .unwrap();
        assert_eq!((idle.value, idle.samples), (0.0, 0));
    }

    #[test]
    fn worst_lists_rank_descending_and_truncate() {
        let parts = vec![
            (1u64, node_snapshot(10, 1, &[1_000])),
            (2u64, node_snapshot(10, 5, &[1_000_000])),
            (3u64, node_snapshot(10, 9, &[8_000_000])),
            (4u64, node_snapshot(10, 2, &[2_000])),
        ];
        let agg = FleetAggregator {
            top_k: 2,
            ..FleetAggregator::new()
        };
        let fleet = agg.aggregate(&parts).unwrap();
        let by_label = |l: &str| fleet.worst.iter().find(|w| w.criterion == l).unwrap();
        let p99 = by_label("rups_core_engine_query_ns");
        assert_eq!(p99.ranked.len(), 2, "top-k truncates");
        assert_eq!(p99.ranked[0].node_id, 3, "slowest node first");
        assert_eq!(p99.ranked[1].node_id, 2);
        let rej = by_label("fix_reject_rate");
        assert_eq!(rej.ranked[0].node_id, 3);
        assert!(rej.ranked[0].value > rej.ranked[1].value);
        let err = by_label("rups_node_fix_error_m");
        assert_eq!(err.ranked[0].node_id, 3);
    }

    #[test]
    fn shape_mismatch_aborts_with_the_offending_name() {
        let full = node_snapshot(10, 1, &[1_000]);
        let compacted = full.compact();
        let err = FleetAggregator::new()
            .aggregate(&[(1, full), (2, compacted)])
            .unwrap_err();
        assert_eq!(err.name, "rups_core_engine_query_ns");
    }

    #[test]
    fn empty_fleet_aggregates_to_an_empty_snapshot() {
        let fleet = FleetAggregator::new().aggregate(&[]).unwrap();
        assert!(fleet.nodes.is_empty());
        assert!(fleet.merged.counters.is_empty());
        assert!(fleet.worst.iter().all(|w| w.ranked.is_empty()));
    }

    #[test]
    fn fleet_delta_feeds_trigger_rules() {
        let agg = FleetAggregator::new();
        let before = agg
            .aggregate(&[(1, node_snapshot(10, 0, &[1_000]))])
            .unwrap();
        let after = agg
            .aggregate(&[(1, node_snapshot(30, 15, &[1_000]))])
            .unwrap();
        let delta = after.delta(&before);
        assert_eq!(delta.counter("rups_core_quality_rejected"), Some(15));
        let rules = vec![TriggerRule {
            name: "fleet_reject_burst".into(),
            numerator: vec!["rups_core_quality_rejected".into()],
            denominator: Vec::new(),
            op: TriggerOp::AtLeast,
            threshold: 10.0,
            min_events: 1,
        }];
        let fired = check_fleet_rules(&rules, 42.0, &delta);
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "fleet_reject_burst");
        assert_eq!(fired[0].value, 15.0);
        assert_eq!(fired[0].t_s, 42.0);
        // Below threshold → silent.
        assert!(check_fleet_rules(&rules, 43.0, &before.delta(&before)).is_empty());
    }

    #[test]
    fn fleet_prometheus_exposition_labels_are_escaped() {
        let agg = FleetAggregator {
            top_k: 1,
            criteria: vec![Criterion::counter_ratio(
                "weird \"label\"\nwith\\stuff",
                vec!["rups_core_quality_rejected".into()],
                vec!["rups_core_engine_queries".into()],
            )],
        };
        let fleet = agg
            .aggregate(&[(7, node_snapshot(10, 5, &[1_000]))])
            .unwrap();
        let text = fleet.to_prometheus();
        assert!(text.contains("rups_fleet_nodes 1"));
        assert!(text.contains("node=\"7\""));
        assert!(
            text.contains(r#"criterion="weird \"label\"\nwith\\stuff""#),
            "{text}"
        );
        assert!(
            !text.lines().any(|l| l.contains("label\"\n")),
            "raw newline leaked into a label"
        );
        assert!(text.contains("rups_core_engine_queries 10"));
    }
}
