//! Cache semantics of the persistent result store: warm reruns execute
//! nothing and change nothing, corruption is quarantined rather than
//! served, duplicate jobs execute once, and sharded stores merge into
//! exactly the single-run store.

use proptest::prelude::*;
use sleepy_fleet::sink::{CountingSink, JsonlSink};
use sleepy_fleet::{
    run_plan, run_plan_cached, run_plan_shard, shard_bounds, AlgoKind, Execution, FleetConfig,
    JobSpec, TrialPlan, Workload,
};
use sleepy_graph::GraphFamily;
use sleepy_store::Store;
use std::collections::BTreeMap;
use std::path::PathBuf;

mod util;

fn tmp_dir(tag: &str) -> PathBuf {
    util::tmp_dir("fleet-cache-test", tag)
}

fn plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[48, 96],
        &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
        4,
        0xCAFE,
        Execution::Auto,
    )
}

fn report_json(plan: &TrialPlan, out: &sleepy_fleet::FleetOutput) -> String {
    serde_json::to_string_pretty(&out.report(plan)).unwrap()
}

#[test]
fn warm_rerun_executes_zero_trials_and_is_byte_identical() {
    let dir = tmp_dir("warm");
    let plan = plan();
    let total = plan.total_trials();
    let cfg = FleetConfig::with_threads(2);

    let mut cold_sink = JsonlSink::new(Vec::new());
    let mut store = Store::open(&dir).unwrap();
    let cold = run_plan_cached(&plan, &cfg, &mut [&mut cold_sink], Some(&mut store), true).unwrap();
    assert_eq!(cold.cache.executed, total);
    assert_eq!(cold.cache.hits, 0);
    assert_eq!(cold.cache.stored, total);
    drop(store);

    // Fresh process simulation: reopen the store from disk.
    let mut warm_sink = JsonlSink::new(Vec::new());
    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.len() as u64, total);
    let warm = run_plan_cached(&plan, &cfg, &mut [&mut warm_sink], Some(&mut store), true).unwrap();
    assert_eq!(warm.cache.executed, 0, "warm rerun must execute nothing");
    assert_eq!(warm.cache.hits, total);
    assert_eq!(warm.cache.stored, 0);
    assert_eq!(warm.total_trials, total);

    // Byte-identical aggregates AND per-trial logs.
    assert_eq!(report_json(&plan, &cold), report_json(&plan, &warm));
    assert_eq!(
        String::from_utf8(cold_sink.into_inner()).unwrap(),
        String::from_utf8(warm_sink.into_inner()).unwrap()
    );
    // And identical to a plain uncached run.
    let plain = run_plan(&plan, &cfg).unwrap();
    assert_eq!(report_json(&plan, &plain), report_json(&plan, &warm));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_segment_is_quarantined_and_reexecuted() {
    let dir = tmp_dir("corrupt");
    let plan = plan();
    let total = plan.total_trials();
    let cfg = FleetConfig::with_threads(1);
    let mut store = Store::open(&dir).unwrap();
    let cold = run_plan_cached(&plan, &cfg, &mut [], Some(&mut store), true).unwrap();
    drop(store);

    // Flip one byte in the (single) segment the cold run wrote.
    let seg = dir.join("seg-00000001.jsonl");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] = bytes[mid].wrapping_add(1);
    std::fs::write(&seg, &bytes).unwrap();

    let mut store = Store::open(&dir).unwrap();
    assert_eq!(store.stats().quarantined, 1, "corrupt segment must be quarantined");
    assert_eq!(store.len(), 0, "no entry of a corrupt segment may be served");
    let healed = run_plan_cached(&plan, &cfg, &mut [], Some(&mut store), true).unwrap();
    assert_eq!(healed.cache.executed, total, "everything re-executes after quarantine");
    assert_eq!(healed.cache.stored, total);
    assert_eq!(report_json(&plan, &cold), report_json(&plan, &healed));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn no_cache_reexecutes_but_still_records() {
    let dir = tmp_dir("nocache");
    let plan = plan();
    let total = plan.total_trials();
    let cfg = FleetConfig::with_threads(2);
    let mut store = Store::open(&dir).unwrap();
    run_plan_cached(&plan, &cfg, &mut [], Some(&mut store), true).unwrap();
    let again = run_plan_cached(&plan, &cfg, &mut [], Some(&mut store), false).unwrap();
    assert_eq!(again.cache.hits, 0);
    assert_eq!(again.cache.executed, total);
    // Every key already existed, so nothing new lands on disk.
    assert_eq!(again.cache.stored, 0);
    assert_eq!(store.len() as u64, total);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn duplicate_jobs_execute_once_and_fan_out() {
    let w = Workload::new(GraphFamily::GnpAvgDeg(5.0), 40);
    let plan = TrialPlan::new(7)
        .with_job(JobSpec::new(w, AlgoKind::SleepingMis, 4))
        .with_job(JobSpec::new(w, AlgoKind::FastSleepingMis, 3))
        .with_job(JobSpec::new(w, AlgoKind::SleepingMis, 4))
        .with_job(JobSpec::new(w, AlgoKind::SleepingMis, 2));
    let mut counter = CountingSink::default();
    let out =
        run_plan_cached(&plan, &FleetConfig::default(), &mut [&mut counter], None, true).unwrap();
    // 4 (job 0 and its group's max) + 3 (job 1): duplicates cost nothing.
    assert_eq!(out.cache.executed, 7);
    assert_eq!(out.total_trials, 7);
    // ...but every member job still collects its own trial count.
    assert_eq!(out.aggregates[0].trials, 4);
    assert_eq!(out.aggregates[1].trials, 3);
    assert_eq!(out.aggregates[2].trials, 4);
    assert_eq!(out.aggregates[3].trials, 2);
    // Sinks see one record per (member, trial): 4 + 3 + 4 + 2.
    assert_eq!(counter.trials, 13);
    // Fanned-out duplicates are literal copies of the representative.
    let report = out.report(&plan);
    let a = serde_json::to_string(&report.jobs[0].node_avg_awake).unwrap();
    let b = serde_json::to_string(&report.jobs[2].node_avg_awake).unwrap();
    assert_eq!(a, b);
}

fn store_contents(store: &Store) -> BTreeMap<String, String> {
    store
        .entries()
        .map(|e| (e.key.to_string(), serde_json::to_string(e.payload).unwrap()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Merging the stores filled by independent per-process shards
    /// reconstructs exactly the store a single run would have written:
    /// same keys, same payloads.
    #[test]
    fn merged_shard_stores_equal_single_run_store(
        (fam_idx, n, trials, procs, seed) in
            (0usize..4, 8usize..48, 1usize..4, 1usize..5, 0u64..1 << 40)
    ) {
        let family = [
            GraphFamily::GnpAvgDeg(5.0),
            GraphFamily::Tree,
            GraphFamily::Cycle,
            GraphFamily::GeometricAvgDeg(6.0),
        ][fam_idx];
        let plan = TrialPlan::sweep(
            &[family],
            &[n],
            &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
            trials,
            seed,
            Execution::Auto,
        );
        let cfg = FleetConfig::with_threads(1);

        let single_dir = tmp_dir("prop-single");
        let mut single = Store::open(&single_dir).unwrap();
        run_plan_cached(&plan, &cfg, &mut [], Some(&mut single), true).unwrap();

        let merged_dir = tmp_dir("prop-merged");
        let mut merged = Store::open(&merged_dir).unwrap();
        let total = plan.total_trials() as usize;
        let mut covered = 0u64;
        for k in 0..procs {
            let shard_dir = tmp_dir(&format!("prop-shard{k}"));
            let mut shard_store = Store::open(&shard_dir).unwrap();
            let out =
                run_plan_shard(&plan, &cfg, &mut [], Some(&mut shard_store), k, procs).unwrap();
            let (lo, hi) = shard_bounds(total, k, procs);
            prop_assert_eq!(out.total_trials, (hi - lo) as u64);
            covered += out.total_trials;
            merged.merge_from(&shard_store).unwrap();
            std::fs::remove_dir_all(&shard_dir).unwrap();
        }
        prop_assert_eq!(covered, plan.total_trials());
        prop_assert_eq!(store_contents(&single), store_contents(&merged));
        std::fs::remove_dir_all(&single_dir).unwrap();
        std::fs::remove_dir_all(&merged_dir).unwrap();
    }
}
