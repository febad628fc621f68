//! Smoke tests of the benchmark itself: every workload at tiny scale prints
//! every metric with its unit and a finite value, the metric tables agree
//! with `BENCHMARK.json`, and the pair accuracy check catches wrong fixes.

use perfbench::{run, Options, Scale, Workload, END_TO_END, PER_LAYER};
use serde::value::Value;
use std::process::Command;

fn tiny(seed: u64, trace: bool) -> Options {
    Options {
        scale: Scale::Tiny,
        ..Options::new(seed, 0.0, trace)
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Map(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key {key}")),
        _ => panic!("not an object: {v:?}"),
    }
}

fn keys(v: &Value) -> Vec<&str> {
    match v {
        Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {v:?}"),
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
        .expect("BENCHMARK.json parses")
}

#[test]
fn every_workload_prints_every_metric_with_unit_and_finite_value() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run(workload, &tiny(3, trace));
            let what = format!("{} trace={trace}", workload.name());
            assert!(report.correct(), "{what}: {:?}", report.violations);
            assert_eq!(report.failed, 0, "{what}");
            assert!(report.attempted >= 1, "{what}");
            let line: Value = serde_json::from_str(&report.to_json(trace)).expect("result parses");
            assert_eq!(keys(&line), ["correct", "attempted", "failed", "metrics"]);
            let metrics = field(&line, "metrics");
            let table = if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            };
            assert_eq!(keys(metrics), table.iter().map(|m| m.0).collect::<Vec<_>>());
            for (name, unit) in table {
                let m = field(metrics, name);
                assert_eq!(field(m, "unit").as_str(), Some(*unit), "{what} {name}");
                let value = field(m, "value").as_f64().expect("numeric value");
                assert!(value.is_finite(), "{what} {name} = {value}");
            }
        }
    }
}

#[test]
fn same_seed_gives_bit_identical_fixes() {
    for workload in Workload::ALL {
        let a = run(workload, &tiny(5, false));
        let b = run(workload, &tiny(5, false));
        assert_eq!(a.digest, b.digest, "{}", workload.name());
        assert_eq!(
            a.metric("fix_abs_err_m_mean"),
            b.metric("fix_abs_err_m_mean"),
            "{}",
            workload.name()
        );
    }
}

#[test]
fn doctored_truth_fails_the_accuracy_check() {
    let opts = Options {
        truth_shift_m: 5.0,
        ..tiny(3, false)
    };
    let report = run(Workload::PairPaper, &opts);
    assert!(!report.correct());
    assert!(report.failed > 0);
    assert!(report.to_json(false).starts_with("{\"correct\": false"));
}

#[test]
fn metric_tables_match_benchmark_json() {
    let bench = benchmark_json();
    let names = |key: &str| -> Vec<(String, String)> {
        match field(&bench, key) {
            Value::Seq(items) => items
                .iter()
                .map(|m| {
                    let unit = match key {
                        "workloads" => String::new(),
                        _ => field(m, "unit").as_str().unwrap().to_string(),
                    };
                    (field(m, "name").as_str().unwrap().to_string(), unit)
                })
                .collect(),
            _ => panic!("{key} is not a list"),
        }
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), table(&END_TO_END));
    assert_eq!(names("per_layer"), table(&PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn usage_errors_exit_with_code_2_and_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
