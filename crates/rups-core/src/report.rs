//! Per-fix explainability: the structured [`FixReport`] recorded when a
//! SYN search misses or a fix grades low, and the default
//! [`FlightConfig`] trigger rules that turn a
//! stream of such outcomes into a flight-recorder dump.
//!
//! The paper's evaluation explains failed fixes from the replayed
//! trajectory context (§V); a live node has no replay, so instead of a
//! bare `Err` the pipeline captures *why* at the moment it happened: the
//! best correlation seen against the acceptance threshold, how many
//! directed window passes actually ran, whether the own context was served
//! from cache, both context lengths and the age of the neighbour snapshot.
//! The report is a plain serializable struct so the
//! [`FlightRecorder`](rups_obs::FlightRecorder) can ring-buffer it and dump
//! it verbatim into the black box.

use rups_obs::{FlightConfig, TriggerOp, TriggerRule};
use serde::{Deserialize, Serialize};

/// Why a [`FixReport`] was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FixOutcome {
    /// The SYN search returned an error (no SYN point, channel mismatch,
    /// insufficient context, …).
    Miss,
    /// A fix was produced but graded [`crate::quality::FixQuality::Low`].
    LowGrade,
}

/// A structured explanation of one degraded fix attempt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixReport {
    /// Pipeline time the attempt ran at, seconds.
    pub t_s: f64,
    /// Neighbour id from the snapshot (`None` when the snapshot carried
    /// no id).
    pub neighbour_id: Option<u64>,
    /// Miss or low-grade.
    pub outcome: FixOutcome,
    /// Display form of the error, for misses.
    pub error: Option<String>,
    /// Best correlation score seen before giving up (or the accepted
    /// fix's best score, for low grades). `-inf` serialises poorly, so a
    /// search that never scored reports `0.0` with `windows_scanned == 0`
    /// telling the two apart.
    pub best_score: f64,
    /// The acceptance threshold in force (0.0 when unknown, e.g. a
    /// channel mismatch fails before a window is built).
    pub threshold: f64,
    /// Quality grade name for low grades (`None` for misses).
    pub grade: Option<String>,
    /// Directed sliding passes that actually executed.
    pub windows_scanned: u64,
    /// Whether the own-side context was served from the engine cache
    /// (false when this query forced a rebuild).
    pub context_cached: bool,
    /// Own journey-context length, metres.
    pub own_context_m: usize,
    /// Neighbour snapshot context length, metres.
    pub neighbour_context_m: usize,
    /// Age of the neighbour snapshot at fix time, seconds (0 when the
    /// snapshot carries no samples).
    pub snapshot_age_s: f64,
}

/// The flight-recorder trigger rules matched to this crate's metric
/// names — the predicates ISSUE/DESIGN call out:
///
/// * **`fix_error_spike`** — ≥ 50 % of graded fix attempts in a window
///   were rejected (needs ≥ 4 attempts to arm);
/// * **`validation_rejection_burst`** — ≥ 8 inbox snapshot rejections in
///   one window;
/// * **`window_cache_collapse`** — the engine's checking-window memo hit
///   rate fell to ≤ 5 % over ≥ 64 lookups.
pub fn default_flight_config() -> FlightConfig {
    let c = |names: &[&str]| -> Vec<String> { names.iter().map(|s| s.to_string()).collect() };
    FlightConfig {
        rules: vec![
            TriggerRule {
                name: "fix_error_spike".into(),
                numerator: c(&["rups_core_quality_rejected"]),
                denominator: c(&[
                    "rups_core_quality_rejected",
                    "rups_core_quality_grade_high",
                    "rups_core_quality_grade_medium",
                    "rups_core_quality_grade_low",
                ]),
                op: TriggerOp::AtLeast,
                threshold: 0.5,
                min_events: 4,
            },
            TriggerRule {
                name: "validation_rejection_burst".into(),
                numerator: c(&[
                    "rups_core_inbox_rejected_malformed",
                    "rups_core_inbox_rejected_channel_mismatch",
                    "rups_core_inbox_rejected_undersized",
                    "rups_core_inbox_rejected_stale",
                ]),
                denominator: Vec::new(),
                op: TriggerOp::AtLeast,
                threshold: 8.0,
                min_events: 8,
            },
            TriggerRule {
                name: "window_cache_collapse".into(),
                numerator: c(&["rups_core_engine_window_hits"]),
                denominator: c(&[
                    "rups_core_engine_window_hits",
                    "rups_core_engine_window_misses",
                ]),
                op: TriggerOp::AtMost,
                threshold: 0.05,
                min_events: 64,
            },
        ],
        ..FlightConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_rules_cover_the_three_failure_modes() {
        let cfg = default_flight_config();
        let names: Vec<&str> = cfg.rules.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "fix_error_spike",
                "validation_rejection_burst",
                "window_cache_collapse"
            ]
        );
        // Retention bounds stay at the library defaults.
        assert!(cfg.window_capacity > 0 && cfg.fix_capacity > 0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let report = FixReport {
            t_s: 42.5,
            neighbour_id: Some(7),
            outcome: FixOutcome::Miss,
            error: Some("no SYN point".into()),
            best_score: 0.61,
            threshold: 0.85,
            grade: None,
            windows_scanned: 6,
            context_cached: true,
            own_context_m: 400,
            neighbour_context_m: 250,
            snapshot_age_s: 1.5,
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FixReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
