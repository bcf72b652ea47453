//! Golden digests of the aggregate reports: the static sweep's
//! `aggregates.json` and `aggregates.csv`, a dynamic plan's
//! `dynamic_aggregates.json`, and the harness's serialized
//! `AggregateMeasurement`. Every byte of these files is computed from
//! the per-metric moments and the retained per-trial samples, so any
//! change to how trials are aggregated (mean, std_dev, the nearest-rank
//! p50/p99, the mid-pair median of `to_summary`) shows up here. The
//! other determinism tests compare runs of one build with each other;
//! these pin the bytes across builds.

use sleepy::fleet::sink::{
    write_aggregate_csv, write_aggregate_json, write_dynamic_aggregate_json,
};
use sleepy::fleet::{
    run_dynamic_plan, run_plan, AlgoKind, DynamicPlan, Execution, FleetConfig, TrialPlan, Workload,
    ALL_ALGOS, ALL_STRATEGIES,
};
use sleepy::graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy::harness::measure_trials;

/// FNV-1a-64 (the store's checksum function) over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn families() -> [GraphFamily; 4] {
    [
        GraphFamily::Cycle,
        GraphFamily::GnpAvgDeg(6.0),
        GraphFamily::GeometricAvgDeg(6.0),
        GraphFamily::Tree,
    ]
}

#[test]
fn static_aggregate_json_and_csv_bytes_are_pinned() {
    let plan = TrialPlan::sweep(&families(), &[48, 96], &ALL_ALGOS, 5, 0x60_1DE2, Execution::Auto);
    let out = run_plan(&plan, &FleetConfig::with_threads(2)).expect("sweep runs");
    let report = out.report(&plan);
    let mut json = Vec::new();
    write_aggregate_json(&mut json, &report).unwrap();
    let mut csv = Vec::new();
    write_aggregate_csv(&mut csv, &report).unwrap();
    // Sanity: the fixture exercises non-trivial spreads and quantiles.
    assert_eq!(report.jobs.len(), 48);
    assert!(report.jobs.iter().any(|j| j.node_avg_awake.std_dev > 0.0));
    assert!(report.jobs.iter().any(|j| j.worst_awake.p99 != j.worst_awake.p50));
    assert_eq!(fnv64(&json), 0xae8615534fe9a36f, "aggregates.json bytes drifted");
    assert_eq!(fnv64(&csv), 0xcb7419b0d1afa76a, "aggregates.csv bytes drifted");
}

#[test]
fn dynamic_aggregate_json_bytes_are_pinned() {
    let mut text = Vec::new();
    for model in [ChurnModel::Uniform, ChurnModel::Adversarial] {
        let churn = ChurnSpec {
            edge_delete_frac: 0.05,
            edge_insert_frac: 0.05,
            node_delete_frac: 0.02,
            node_insert_frac: 0.02,
            arrival_degree: 3,
            model,
        };
        let plan = DynamicPlan::sweep(
            &[GraphFamily::GnpAvgDeg(6.0)],
            &[48],
            &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
            &ALL_STRATEGIES,
            3,
            churn,
            5,
            0xD1_0A11,
            Execution::Auto,
        );
        let out = run_dynamic_plan(&plan, &FleetConfig::with_threads(2)).expect("plan runs");
        write_dynamic_aggregate_json(&mut text, &out.report(&plan)).unwrap();
    }
    assert_eq!(fnv64(&text), 0xf1ad44724071112d, "dynamic_aggregates.json bytes drifted");
}

#[test]
fn aggregate_measurement_bytes_are_pinned() {
    let mut text = String::new();
    for family in families() {
        for algo in [AlgoKind::SleepingMis, ALL_ALGOS[3]] {
            let workload = Workload::new(family, 64);
            let m = measure_trials(&workload, algo, 6, 0xA66, Execution::Auto).expect("runs");
            text.push_str(&serde_json::to_string(&m).unwrap());
            text.push('\n');
        }
    }
    let digest = fnv64(text.as_bytes());
    assert_eq!(digest, 0xb82d596a120b36bb, "serialized AggregateMeasurement drifted");
}
