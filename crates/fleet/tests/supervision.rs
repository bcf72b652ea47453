//! Supervision end-to-end, with real child processes: the sharded-run
//! supervisor must observe injected worker faults (a child that dies
//! with a nonzero exit mid-shard, a child that wedges forever),
//! classify them, retry with backoff, and still produce output
//! byte-identical to a single-process run — or, when retries are
//! exhausted, either degrade gracefully (warm replay heals the holes)
//! or fail loudly with [`FleetError::Worker`] naming the worker and
//! its trial range.

use sleepy_fleet::sink::JsonlSink;
use sleepy_fleet::{
    run_plan_sharded_procs_supervised, run_plan_with_sinks, AlgoKind, Execution, FleetConfig,
    FleetError, FleetOutput, ProcsConfig, TrialPlan, WorkerStatus,
};
use sleepy_graph::GraphFamily;
use std::path::PathBuf;

mod util;

fn tmp_dir(tag: &str) -> PathBuf {
    util::tmp_dir("fleet-supervision-test", tag)
}

fn small_plan() -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[48],
        &[AlgoKind::SleepingMis],
        3,
        0x5AFE,
        Execution::Auto,
    )
}

fn procs_config(procs: usize) -> ProcsConfig {
    let mut cfg = ProcsConfig::new(env!("CARGO_BIN_EXE_fleet"), procs);
    cfg.backoff_base_ms = 10;
    cfg
}

fn oracle(plan: &TrialPlan, cfg: &FleetConfig) -> (String, FleetOutput) {
    let mut sink = JsonlSink::new(Vec::new());
    let out = run_plan_with_sinks(plan, cfg, &mut [&mut sink]).unwrap();
    (String::from_utf8(sink.into_inner()).unwrap(), out)
}

#[test]
fn killed_worker_is_retried_and_bytes_match_single_process() {
    let plan = small_plan();
    let cfg = FleetConfig::with_threads(1);
    let (oracle_trials, oracle_out) = oracle(&plan, &cfg);

    let dir = tmp_dir("kill");
    let mut procs = procs_config(3);
    procs.chaos_kill = Some(1);
    let mut sink = JsonlSink::new(Vec::new());
    let (out, sup) =
        run_plan_sharded_procs_supervised(&plan, &cfg, &procs, &dir, &mut [&mut sink]).unwrap();

    // The injected death really happened and was classified: exit 17
    // from the chaos hook, on the victim worker, followed by a retry
    // with a recorded deterministic backoff.
    let failure = sup
        .failures
        .iter()
        .find(|f| f.worker == 1)
        .expect("the killed worker must appear in the failure record");
    assert_eq!(failure.status, WorkerStatus::Exited { code: Some(17) });
    assert_eq!(failure.attempt, 0);
    assert_eq!(failure.backoff_ms, Some(10), "first retry uses the backoff base");
    assert!(sup.retries >= 1);
    assert!(sup.degraded.is_empty());

    // Recovery is invisible in the artifacts: byte-identical trials
    // and aggregates, and the whole plan was served from the workers'
    // stores (the retry completed the dead worker's shard).
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), oracle_trials);
    let render = |o: &FleetOutput| serde_json::to_string_pretty(&o.report(&plan)).unwrap();
    assert_eq!(render(&out), render(&oracle_out));
    assert_eq!(out.cache.hits, plan.total_trials());
    assert_eq!(out.cache.executed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wedged_worker_times_out_and_the_retry_heals_it() {
    let plan = small_plan();
    let cfg = FleetConfig::with_threads(1);
    let (oracle_trials, _) = oracle(&plan, &cfg);

    let dir = tmp_dir("wedge");
    let mut procs = procs_config(2);
    procs.chaos_wedge = Some(0);
    procs.wait_timeout_secs = Some(2);
    let mut sink = JsonlSink::new(Vec::new());
    let (out, sup) =
        run_plan_sharded_procs_supervised(&plan, &cfg, &procs, &dir, &mut [&mut sink]).unwrap();

    let failure = sup
        .failures
        .iter()
        .find(|f| f.worker == 0)
        .expect("the wedged worker must appear in the failure record");
    assert_eq!(failure.status, WorkerStatus::TimedOut { timeout_secs: 2 });
    assert!(sup.retries >= 1);
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), oracle_trials);
    assert_eq!(out.cache.hits, plan.total_trials());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exhausted_retries_fail_with_a_classified_worker_error() {
    let plan = small_plan();
    let cfg = FleetConfig::with_threads(1);
    let dir = tmp_dir("exhaust");
    // A fleet binary that does not exist: every attempt is a spawn
    // failure, so retries exhaust deterministically and fast.
    let mut procs = ProcsConfig::new(dir.join("no-such-binary"), 2);
    procs.backoff_base_ms = 1;
    procs.max_retries = 2;
    let err = run_plan_sharded_procs_supervised(&plan, &cfg, &procs, &dir, &mut [])
        .expect_err("a worker that can never spawn must fail the run");
    match err {
        FleetError::Worker { id, range, status } => {
            assert!(id < 2);
            // The error names the worker's exact global trial range.
            let total = plan.total_trials() as usize;
            let (lo, hi) = sleepy_fleet::shard_bounds(total, id, 2);
            assert_eq!(range, (lo, hi));
            assert!(matches!(status, WorkerStatus::SpawnFailed(_)), "{status}");
        }
        other => panic!("expected FleetError::Worker, got: {other}"),
    }
    // A repeated job executes once, so the workers split the 6 trials
    // left after dedup, not all 9: the error names the range the worker
    // really runs.
    let mut repeated = small_plan();
    repeated.push(repeated.jobs[0].clone());
    match run_plan_sharded_procs_supervised(&repeated, &cfg, &procs, &dir, &mut []) {
        Err(FleetError::Worker { id, range, .. }) => {
            assert_eq!(range, sleepy_fleet::shard_bounds(6, id, 2));
            let ran = sleepy_fleet::run_plan_shard(&repeated, &cfg, &mut [], None, id, 2).unwrap();
            assert_eq!(ran.total_trials, (range.1 - range.0) as u64);
        }
        other => panic!("expected FleetError::Worker, got: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn degrade_mode_abandons_the_shard_and_the_replay_heals_it() {
    let plan = small_plan();
    let cfg = FleetConfig::with_threads(1);
    let (oracle_trials, _) = oracle(&plan, &cfg);

    let dir = tmp_dir("degrade");
    let mut procs = procs_config(2);
    // Worker 1 can never succeed (its binary path is fine, but we give
    // it zero retries and make its only attempt die): chaos-kill plus
    // max_retries = 0 means its one attempt half-fills the shard and
    // exits 17, and degradation must absorb that.
    procs.chaos_kill = Some(1);
    procs.max_retries = 0;
    procs.degrade = true;
    let mut sink = JsonlSink::new(Vec::new());
    let (out, sup) =
        run_plan_sharded_procs_supervised(&plan, &cfg, &procs, &dir, &mut [&mut sink]).unwrap();

    assert_eq!(sup.degraded, vec![1], "worker 1 must be recorded as degraded");
    assert_eq!(sup.retries, 0);
    // The warm replay executed the abandoned half-shard in-process;
    // the artifacts are still byte-identical to the oracle.
    assert!(out.cache.executed > 0, "the abandoned trials must re-execute in the replay");
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), oracle_trials);
    std::fs::remove_dir_all(&dir).unwrap();
}
