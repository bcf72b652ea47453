//! Telemetry is strictly a side channel: running the exact same
//! static + dynamic plans with telemetry off, with the metrics
//! registry on, and with full span tracing on must leave every cached
//! artifact — trials.jsonl / phases.jsonl, the aggregate reports, and
//! the store records — byte-for-byte identical, at every thread count.
//! And the trace the Trace mode produces must be a *valid* Chrome
//! trace: matched B/E pairs, non-decreasing timestamps per timeline,
//! and spans from every instrumented subsystem.

use sleepy_fleet::sink::{JsonlSink, PhaseJsonlSink};
use sleepy_fleet::{
    run_dynamic_plan_cached, run_plan_cached, AlgoKind, DynamicPlan, Execution, FleetConfig,
    RepairStrategy, TrialPlan,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy_store::Store;
use sleepy_telemetry::Mode;
use std::path::PathBuf;
use std::sync::Mutex;

/// Telemetry mode is process-global; tests that flip it must not
/// interleave.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

mod util;

fn tmp_dir(tag: &str) -> PathBuf {
    util::tmp_dir("fleet-telemetry-test", tag)
}

fn static_plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[48],
        &[AlgoKind::SleepingMis],
        3,
        0xFEED,
        Execution::Auto,
    )
}

fn dynamic_plan() -> DynamicPlan {
    DynamicPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0)],
        &[64],
        &[AlgoKind::SleepingMis],
        &[RepairStrategy::Incremental, RepairStrategy::Repair],
        2,
        ChurnSpec {
            edge_delete_frac: 0.08,
            edge_insert_frac: 0.08,
            node_delete_frac: 0.04,
            node_insert_frac: 0.04,
            arrival_degree: 2,
            model: ChurnModel::Adversarial,
        },
        2,
        0x0B5E,
        Execution::Auto,
    )
}

/// Everything a run is allowed to be judged by: the per-trial and
/// per-phase JSONL logs, both aggregate reports, and the store's
/// logical content (keys + payloads; stamps are wall-clock GC
/// metadata, deliberately outside the identity contract).
#[derive(PartialEq)]
struct RunArtifacts {
    trials_jsonl: String,
    static_json: String,
    phases_jsonl: String,
    dynamic_json: String,
    store_records: Vec<(String, String)>,
}

fn run_both(mode: Mode, threads: usize) -> RunArtifacts {
    sleepy_telemetry::set_mode(mode);
    let dir = tmp_dir(&format!("m{}t{threads}", mode as u8));
    let cfg = FleetConfig::with_threads(threads);
    let mut store = Store::open(&dir).unwrap();

    let splan = static_plan();
    let mut trial_sink = JsonlSink::new(Vec::new());
    let s_out =
        run_plan_cached(&splan, &cfg, &mut [&mut trial_sink], Some(&mut store), true).unwrap();

    let dplan = dynamic_plan();
    let mut phase_sink = PhaseJsonlSink::new(Vec::new());
    let d_out =
        run_dynamic_plan_cached(&dplan, &cfg, &mut [&mut phase_sink], Some(&mut store), true)
            .unwrap();

    let store_records = store
        .entries()
        .map(|e| (e.key.to_string(), serde::value::to_compact_string(e.payload)))
        .collect();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    sleepy_telemetry::set_mode(Mode::Off);
    RunArtifacts {
        trials_jsonl: String::from_utf8(trial_sink.into_inner()).unwrap(),
        static_json: serde_json::to_string_pretty(&s_out.report(&splan)).unwrap(),
        phases_jsonl: String::from_utf8(phase_sink.into_inner()).unwrap(),
        dynamic_json: serde_json::to_string_pretty(&d_out.report(&dplan)).unwrap(),
        store_records,
    }
}

#[test]
fn artifacts_are_byte_identical_across_modes_and_threads() {
    let _guard = locked();
    let _ = sleepy_telemetry::snapshot_and_reset();
    let baseline = run_both(Mode::Off, 1);
    assert!(!baseline.trials_jsonl.is_empty());
    assert!(!baseline.phases_jsonl.is_empty());
    assert!(!baseline.store_records.is_empty());
    for mode in [Mode::Off, Mode::Metrics, Mode::Trace] {
        for threads in [1usize, 2, 4] {
            if mode == Mode::Off && threads == 1 {
                continue;
            }
            let run = run_both(mode, threads);
            assert!(
                run == baseline,
                "artifacts drifted under mode {mode:?} / {threads} threads: \
                 telemetry must never touch cached outputs"
            );
        }
    }
    // Drain whatever the Trace runs buffered so later tests (or test
    // ordering) never see stale events.
    let _ = sleepy_telemetry::snapshot_and_reset();
}

#[test]
fn trace_mode_produces_a_valid_chrome_trace_covering_all_subsystems() {
    let _guard = locked();
    let _ = sleepy_telemetry::snapshot_and_reset();
    sleepy_telemetry::set_mode(Mode::Trace);
    let dir = tmp_dir("trace");
    let cfg = FleetConfig::with_threads(2);
    let mut store = Store::open(&dir).unwrap();
    let dplan = dynamic_plan();
    run_dynamic_plan_cached(&dplan, &cfg, &mut [], Some(&mut store), true).unwrap();
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
    sleepy_telemetry::set_mode(Mode::Off);

    let snap = sleepy_telemetry::snapshot_and_reset();
    let text = serde::value::to_compact_string(&snap.chrome_trace_value("fleet-test"));
    let check = sleepy_telemetry::validate_trace(&text)
        .expect("the exported trace must satisfy the Chrome trace-event contract");
    assert!(check.spans > 0);
    assert!(check.timelines >= 1);
    for cat in ["pool", "repair", "run", "store", "trial"] {
        assert!(
            check.categories.iter().any(|c| c == cat),
            "no {cat:?} spans in trace; got categories {:?}",
            check.categories
        );
    }

    // The registry side rode along: counters from the cache, the pool,
    // the store, and the repairer are all present in the same snapshot.
    for key in [
        "cache.dynamic.executed",
        "pool.shards",
        "store.records_stored",
        "repair.events",
        "graph.rebuilds",
    ] {
        assert!(snap.counters.contains_key(key), "missing counter {key}; got {:?}", {
            snap.counters.keys().collect::<Vec<_>>()
        });
    }
}
