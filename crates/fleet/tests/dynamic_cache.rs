//! Cache semantics of the *dynamic* runner: warm reruns execute zero
//! trials and reproduce every byte, partially-stored trials re-execute
//! whole, and static + dynamic records share one store directory
//! without key collisions — across GC compaction too.

use sleepy_fleet::cache::{dynamic_phase_key, DYNAMIC_NS, STATIC_NS};
use sleepy_fleet::sink::PhaseJsonlSink;
use sleepy_fleet::{
    run_dynamic_plan_cached, run_plan_cached, AlgoKind, DynamicPlan, Execution, FleetConfig,
    TrialPlan, ALL_STRATEGIES,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy_store::Store;
use std::path::PathBuf;

mod util;

fn tmp_dir(tag: &str) -> PathBuf {
    util::tmp_dir("fleet-dyncache-test", tag)
}

fn dynamic_plan() -> DynamicPlan {
    DynamicPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[64],
        &[AlgoKind::SleepingMis],
        &ALL_STRATEGIES,
        3,
        ChurnSpec {
            edge_delete_frac: 0.08,
            edge_insert_frac: 0.08,
            node_delete_frac: 0.04,
            node_insert_frac: 0.04,
            arrival_degree: 2,
            model: ChurnModel::Adversarial,
        },
        4,
        0xD1CE,
        Execution::Auto,
    )
}

fn static_plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[48],
        &[AlgoKind::SleepingMis],
        4,
        0xCAFE,
        Execution::Auto,
    )
}

/// Runs the dynamic plan, returning (output, phase-jsonl, aggregate-json).
fn run_dyn(
    store: Option<&mut Store>,
    threads: usize,
) -> (sleepy_fleet::DynamicFleetOutput, String, String) {
    let plan = dynamic_plan();
    let cfg = FleetConfig::with_threads(threads);
    let mut sink = PhaseJsonlSink::new(Vec::new());
    let out = run_dynamic_plan_cached(&plan, &cfg, &mut [&mut sink], store, true).unwrap();
    let json = serde_json::to_string_pretty(&out.report(&plan)).unwrap();
    (out, String::from_utf8(sink.into_inner()).unwrap(), json)
}

#[test]
fn warm_dynamic_rerun_executes_zero_trials_and_is_byte_identical() {
    let dir = tmp_dir("warm");
    let plan = dynamic_plan();
    let total = plan.total_trials();
    let phase_records = total * 3;

    let mut store = Store::open(&dir).unwrap();
    let (cold, cold_jsonl, cold_json) = run_dyn(Some(&mut store), 2);
    assert_eq!(cold.cache.executed, total);
    assert_eq!(cold.cache.hits, 0);
    assert_eq!(cold.cache.stored, phase_records, "one record per phase");
    drop(store);

    // Fresh process simulation: reopen from disk, rerun warm.
    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.len() as u64, phase_records);
    let (warm, warm_jsonl, warm_json) = run_dyn(Some(&mut store), 4);
    assert_eq!(warm.cache.executed, 0, "warm rerun must execute nothing");
    assert_eq!(warm.cache.hits, total);
    assert_eq!(warm.cache.stored, 0);
    assert_eq!(cold_jsonl, warm_jsonl, "phases.jsonl must be byte-identical");
    assert_eq!(cold_json, warm_json, "dynamic aggregates must be byte-identical");

    // And identical to a plain uncached run.
    let (_, plain_jsonl, plain_json) = run_dyn(None, 1);
    assert_eq!(plain_jsonl, warm_jsonl);
    assert_eq!(plain_json, warm_json);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partially_stored_trial_is_a_miss_and_reexecutes_whole() {
    let dir = tmp_dir("partial");
    let plan = dynamic_plan();
    let total = plan.total_trials();
    let mut store = Store::open(&dir).unwrap();
    run_dynamic_plan_cached(&plan, &FleetConfig::with_threads(1), &mut [], Some(&mut store), true)
        .unwrap();
    drop(store);

    // Drop one phase record of one trial by GC-ing everything and
    // re-adding all but one key (simpler: quarantine path is covered in
    // cache_semantics; here rebuild a store missing one record).
    let store = Store::open(&dir).unwrap();
    let job_key = plan.jobs[0].key(plan.base_seed);
    let victim_prefix = format!("{DYNAMIC_NS}{job_key}/");
    let victim = store
        .entries()
        .find(|e| e.key.starts_with(&victim_prefix) && e.key.ends_with("/p1"))
        .map(|e| e.key.to_string())
        .expect("a phase-1 record of job 0 exists");
    let survivors: Vec<(String, serde::Value)> = store
        .entries()
        .filter(|e| e.key != victim)
        .map(|e| (e.key.to_string(), e.payload.clone()))
        .collect();
    drop(store);

    let hole_dir = tmp_dir("partial-hole");
    let mut holey = Store::open(&hole_dir).unwrap();
    holey.append(survivors).unwrap();
    let out = run_dynamic_plan_cached(
        &plan,
        &FleetConfig::with_threads(1),
        &mut [],
        Some(&mut holey),
        true,
    )
    .unwrap();
    // Exactly the victim's trial re-executes (all 3 of its phases), the
    // rest hit.
    assert_eq!(out.cache.executed, 1, "the trial with the missing phase re-executes");
    assert_eq!(out.cache.hits, total - 1);
    assert_eq!(out.cache.stored, 1, "only the missing phase record is new on disk");
    assert!(holey.contains(&victim), "the hole is healed");
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&hole_dir).unwrap();
}

#[test]
fn static_and_dynamic_records_share_one_store_without_collision() {
    let dir = tmp_dir("mixed");
    let splan = static_plan();
    let dplan = dynamic_plan();
    let static_total = splan.total_trials();
    let dynamic_records = dplan.total_trials() * 3;

    let mut store = Store::open(&dir).unwrap();
    let cfg = FleetConfig::with_threads(2);
    let s_cold = run_plan_cached(&splan, &cfg, &mut [], Some(&mut store), true).unwrap();
    let (d_cold, d_jsonl, d_json) = run_dyn(Some(&mut store), 2);
    assert_eq!(s_cold.cache.stored, static_total);
    assert_eq!(d_cold.cache.stored, dynamic_records);

    // Namespacing regression: every key carries its namespace, and the
    // two record families partition the store exactly.
    let (mut s_keys, mut d_keys) = (0u64, 0u64);
    for e in store.entries() {
        match (e.key.starts_with(STATIC_NS), e.key.starts_with(DYNAMIC_NS)) {
            (true, false) => s_keys += 1,
            (false, true) => d_keys += 1,
            _ => panic!("key in no (or both) namespaces: {}", e.key),
        }
    }
    assert_eq!(s_keys, static_total);
    assert_eq!(d_keys, dynamic_records);
    assert_eq!(store.len() as u64, static_total + dynamic_records, "no collisions");

    // GC compaction over the mixed store keeps both record families
    // fully servable: both warm reruns still execute nothing.
    let gc = store.gc(0).unwrap();
    assert_eq!(gc.kept, static_total + dynamic_records);
    assert_eq!(gc.segments_after, 1);
    drop(store);
    let mut store = Store::open(&dir).unwrap();
    let s_warm = run_plan_cached(&splan, &cfg, &mut [], Some(&mut store), true).unwrap();
    assert_eq!(s_warm.cache.executed, 0);
    assert_eq!(s_warm.cache.hits, static_total);
    let (d_warm, d_warm_jsonl, d_warm_json) = run_dyn(Some(&mut store), 4);
    assert_eq!(d_warm.cache.executed, 0);
    assert_eq!(d_jsonl, d_warm_jsonl);
    assert_eq!(d_json, d_warm_json);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// FNV-1a-64 (the store's own checksum function) over a byte string.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Regression for the DynGraph refactor: a warm rerun of an
/// *incremental*-strategy dynamic plan against a cold-populated store
/// executes nothing and reproduces every byte — and the record bytes
/// themselves are pinned by digest, so the in-place absorb path (or any
/// future change to it) cannot silently alter what lands in the store.
/// The digest was captured from the pre-refactor rebuild-per-event
/// path; a mismatch means warm stores from older builds would re-run.
#[test]
fn warm_incremental_rerun_is_byte_identical_and_format_stable() {
    use sleepy_fleet::RepairStrategy;
    let plan = DynamicPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0)],
        &[72],
        &[AlgoKind::SleepingMis],
        &[RepairStrategy::Incremental],
        3,
        ChurnSpec {
            edge_delete_frac: 0.1,
            edge_insert_frac: 0.1,
            node_delete_frac: 0.05,
            node_insert_frac: 0.05,
            arrival_degree: 2,
            model: ChurnModel::Adversarial,
        },
        3,
        0x1BC4,
        Execution::Auto,
    );
    let run = |store: Option<&mut Store>, threads: usize| {
        let mut sink = PhaseJsonlSink::new(Vec::new());
        let cfg = FleetConfig::with_threads(threads);
        let out = run_dynamic_plan_cached(&plan, &cfg, &mut [&mut sink], store, true).unwrap();
        let json = serde_json::to_string_pretty(&out.report(&plan)).unwrap();
        (out, String::from_utf8(sink.into_inner()).unwrap(), json)
    };

    let dir = tmp_dir("warm-incremental");
    let mut store = Store::open(&dir).unwrap();
    let (cold, cold_jsonl, cold_json) = run(Some(&mut store), 2);
    assert_eq!(cold.cache.executed, plan.total_trials());
    drop(store);

    let mut store = Store::open(&dir).unwrap();
    let (warm, warm_jsonl, warm_json) = run(Some(&mut store), 4);
    assert_eq!(warm.cache.executed, 0, "warm incremental rerun must execute nothing");
    assert_eq!(warm.cache.hits, plan.total_trials());
    assert_eq!(cold_jsonl, warm_jsonl);
    assert_eq!(cold_json, warm_json);

    assert_eq!(
        fnv64(cold_jsonl.as_bytes()),
        0x7471819f0f0c1696,
        "incremental phases.jsonl bytes drifted — stores written by \
         earlier builds would stop serving warm"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_cache_reexecutes_dynamic_but_still_records() {
    let dir = tmp_dir("nocache");
    let plan = dynamic_plan();
    let total = plan.total_trials();
    let cfg = FleetConfig::with_threads(2);
    let mut store = Store::open(&dir).unwrap();
    run_dynamic_plan_cached(&plan, &cfg, &mut [], Some(&mut store), true).unwrap();
    let again = run_dynamic_plan_cached(&plan, &cfg, &mut [], Some(&mut store), false).unwrap();
    assert_eq!(again.cache.hits, 0);
    assert_eq!(again.cache.executed, total);
    // Every phase key already exists: nothing new lands on disk.
    assert_eq!(again.cache.stored, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn dynamic_key_shape_is_stable() {
    // The documented format: d/<job key>/t<seed hex>/p<phase>.
    let k = dynamic_phase_key("SleepingMIS/repair@cycle:0/n=8~2ph[...]", 0xAB, 2);
    assert!(k.starts_with("d/SleepingMIS/repair@"));
    assert!(k.ends_with("/t00000000000000ab/p2"));
}
