//! A tiny-size pass of every workload in both modes: every gate runs,
//! and every metric BENCHMARK.json names is printed exactly once, with
//! the unit BENCHMARK.json gives it.

use serde_json::Value;
use sleepy_perfbench::{run, Args, Scale, WORKLOADS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric listed under `kind`.
fn declared(spec: &Value, kind: &str) -> Vec<(String, String)> {
    let metrics = spec.get(kind).and_then(Value::as_array).expect("metric list");
    metrics
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Value::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_names_exactly_these_workloads() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn every_workload_passes_its_gates_and_prints_each_metric_once() {
    let spec = benchmark_json();
    for trace in [false, true] {
        let expected = declared(&spec, if trace { "per_layer" } else { "end_to_end" });
        for workload in WORKLOADS {
            let args = Args {
                workload: workload.to_string(),
                seed: 3,
                seconds: 0.01,
                trace,
                scale: Scale::Tiny,
            };
            let out = run(&args).unwrap_or_else(|e| panic!("{workload}: {e}"));
            let report = out.lines.join("\n");
            assert!(out.correct, "{workload} (trace {trace}) failed a gate:\n{report}");
            assert!(out.attempted > 0 && out.failed <= out.attempted, "{workload}");
            assert!(report.contains("digest "), "{workload} prints its output digest");
            let line: Value = serde_json::from_str(&out.json()).expect("the result line parses");
            let Some(Value::Object(metrics)) = line.get("metrics") else {
                panic!("{workload}: no metrics object")
            };
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name} has a value");
                    (name.clone(), m.get("unit").and_then(Value::as_str).unwrap_or("").to_string())
                })
                .collect();
            assert_eq!(printed, expected, "{workload} (trace {trace}) metrics, in order");
        }
    }
    let leftovers = std::path::Path::new(sleepy_perfbench::SCRATCH_ROOT);
    assert!(!leftovers.exists(), "runs remove their scratch directories");
}
