//! Multi-process sharding: split a [`TrialPlan`] into per-process
//! shard ranges, run each range in a separate worker process of the
//! `fleet` binary, and merge the results.
//!
//! The protocol is file-based and crash-tolerant:
//!
//! 1. The coordinator writes the exact plan to `<dir>/plan.json`
//!    (job order matters — trial seeds depend on job position).
//! 2. Each worker `k` runs `fleet worker --plan plan.json --shard k/N
//!    --store <dir>/shard-k`: it executes only the global trials in
//!    [`shard_bounds`](crate::shard_bounds)`(total, k, N)`, where
//!    `total` counts a repeated job once, and records every result in
//!    its own store.
//! 3. The coordinator merges the shard stores into `<dir>/merged` and
//!    *replays the full plan warm* against the merged store.
//!
//! The replay is what makes the output **byte-identical** to a
//! single-process run: cached reports round-trip exactly and are
//! collected in the same global trial order, so there is no
//! merge-order floating-point question at all. It also makes the
//! scheme self-healing — if a worker died and left holes, the replay
//! simply executes the missing trials itself.
//!
//! # Supervision
//!
//! The coordinator is a real supervisor, not a blocking `wait()` loop:
//! it polls every worker, enforces a per-attempt wait timeout (a wedged
//! worker is killed, never silently waited on forever), classifies
//! failures as [`WorkerStatus`] values, and retries a failed worker up
//! to [`ProcsConfig::max_retries`] times with a deterministic
//! exponential backoff schedule. A retried worker re-runs the same
//! shard command against the same shard store, so the store cache makes
//! it execute **only its unfilled trial range**. When retries are
//! exhausted, [`ProcsConfig::degrade`] chooses between failing the run
//! with [`FleetError::Worker`] and completing it anyway — the warm
//! replay heals the dead worker's holes by executing those trials in
//! the coordinator. Either way the final bytes equal a fault-free run.

use crate::error::{FleetError, WorkerStatus};
use crate::planio::{plan_from_json, plan_to_json};
use crate::run::{run_plan_cached, worker_range, FleetConfig, FleetOutput};
use crate::sink::TrialSink;
use crate::spec::TrialPlan;
use sleepy_store::Store;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How [`run_plan_sharded_procs`] launches and supervises its workers.
#[derive(Debug, Clone)]
pub struct ProcsConfig {
    /// Path of the `fleet` binary to spawn workers from.
    pub fleet_bin: PathBuf,
    /// Number of worker processes.
    pub procs: usize,
    /// Worker threads per process (0 = all cores).
    pub threads_per_proc: usize,
    /// Ask each worker to write a Chrome trace
    /// ([`shard_trace_path`]) and import the traces onto the
    /// coordinator's timeline after the workers exit.
    pub worker_trace: bool,
    /// Kill a worker attempt that has not exited after this many
    /// seconds and classify it [`WorkerStatus::TimedOut`]. `None`
    /// waits forever (the pre-supervision behavior).
    pub wait_timeout_secs: Option<u64>,
    /// How many times a failed worker is re-spawned before the
    /// supervisor gives up on its shard.
    pub max_retries: u32,
    /// Base of the deterministic backoff schedule: retry `r` (0-based)
    /// waits `backoff_base_ms << r` milliseconds before re-spawning.
    pub backoff_base_ms: u64,
    /// After retries are exhausted: `true` completes the plan anyway
    /// (the dead worker's unfilled range is healed by the warm
    /// replay); `false` aborts with [`FleetError::Worker`].
    pub degrade: bool,
    /// Test-only fault injection: pass `--chaos-kill <marker>` to this
    /// worker index, making its *first* attempt execute only half its
    /// shard and then die with a nonzero exit (the marker file keeps
    /// the retry honest).
    pub chaos_kill: Option<usize>,
    /// Test-only fault injection: pass `--chaos-wedge <marker>` to
    /// this worker index, making its *first* attempt hang forever —
    /// exercises the wait-timeout kill path with a real child process.
    pub chaos_wedge: Option<usize>,
}

impl ProcsConfig {
    /// A config spawning `procs` workers from `fleet_bin`, one thread
    /// each (the usual shape: processes are the parallelism axis), with
    /// supervision defaults: a 10-minute wait timeout, 2 retries on a
    /// 100 ms exponential backoff, no degradation, no fault injection.
    pub fn new(fleet_bin: impl Into<PathBuf>, procs: usize) -> Self {
        ProcsConfig {
            fleet_bin: fleet_bin.into(),
            procs,
            threads_per_proc: 1,
            worker_trace: false,
            wait_timeout_secs: Some(600),
            max_retries: 2,
            backoff_base_ms: 100,
            degrade: false,
            chaos_kill: None,
            chaos_wedge: None,
        }
    }
}

/// One classified worker failure the supervisor observed (and, unless
/// it was the final attempt, recovered from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerFailure {
    /// The worker index.
    pub worker: usize,
    /// Which attempt failed (0 = the initial spawn).
    pub attempt: u32,
    /// The classified failure.
    pub status: WorkerStatus,
    /// The deterministic backoff delay slept before the retry that
    /// followed, or `None` when no retry followed (retries exhausted).
    pub backoff_ms: Option<u64>,
}

/// What the supervisor observed across a sharded run — the audit trail
/// `fleet chaos` asserts against (a killed worker really was retried,
/// with backoff, and the run still produced oracle bytes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Worker count of the run.
    pub workers: usize,
    /// Every classified failure, in (worker, attempt) order.
    pub failures: Vec<WorkerFailure>,
    /// Total re-spawns across all workers.
    pub retries: u64,
    /// Workers whose shard was abandoned to the warm replay
    /// (nonempty only in [`ProcsConfig::degrade`] mode).
    pub degraded: Vec<usize>,
}

/// The shard-store directory of worker `index` under `dir`.
pub fn shard_store_dir(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}"))
}

/// The trace file worker `index` writes under `dir` when
/// [`ProcsConfig::worker_trace`] is set. Beside the shard store, never
/// inside it (the store scans its directory for segment files).
pub fn shard_trace_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}.trace.json"))
}

/// The merged-store directory under `dir`.
pub fn merged_store_dir(dir: &Path) -> PathBuf {
    dir.join("merged")
}

/// Writes the plan file workers read, returning its path.
///
/// # Errors
///
/// Filesystem failures.
pub fn write_plan_file(dir: &Path, plan: &TrialPlan) -> Result<PathBuf, FleetError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("plan.json");
    std::fs::write(&path, format!("{}\n", plan_to_json(plan)))?;
    Ok(path)
}

/// Reads a plan file written by [`write_plan_file`] (or `--emit-plan`).
///
/// # Errors
///
/// I/O failures or a malformed plan document.
pub fn read_plan_file(path: &Path) -> Result<TrialPlan, FleetError> {
    plan_from_json(&std::fs::read_to_string(path)?)
}

/// The chaos marker file for worker `index` under `dir` (shared by
/// `--chaos-kill` and `--chaos-wedge`: a worker misbehaves only while
/// its marker does not exist yet, so exactly the first attempt fails).
pub fn chaos_marker_path(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("chaos-{index}.marker"))
}

/// A worker slot as tracked by the supervisor's poll loop.
struct WorkerSlot {
    /// The live child of the current attempt, if one is running.
    child: Option<Child>,
    /// 0-based attempt number of the current/most recent spawn.
    attempt: u32,
    /// Absolute deadline of the current attempt, when timeouts are on.
    deadline: Option<Instant>,
    /// A failure of the current attempt awaiting retry-or-abort
    /// handling (spawn failures land here: there is no child to poll).
    pending: Option<WorkerStatus>,
    /// Set once the worker's shard needs no more attempts (success, or
    /// abandoned to degradation).
    settled: bool,
}

/// Builds the shard command for worker `k` of `procs_config.procs`.
fn worker_command(procs_config: &ProcsConfig, plan_path: &Path, dir: &Path, k: usize) -> Command {
    let mut cmd = Command::new(&procs_config.fleet_bin);
    cmd.arg("worker")
        .arg("--plan")
        .arg(plan_path)
        .arg("--shard")
        .arg(format!("{k}/{}", procs_config.procs))
        .arg("--store")
        .arg(shard_store_dir(dir, k))
        .arg("--threads")
        .arg(procs_config.threads_per_proc.to_string())
        .arg("--no-progress");
    if procs_config.worker_trace {
        cmd.arg("--trace-out").arg(shard_trace_path(dir, k));
    }
    if procs_config.chaos_kill == Some(k) {
        cmd.arg("--chaos-kill").arg(chaos_marker_path(dir, k));
    }
    if procs_config.chaos_wedge == Some(k) {
        cmd.arg("--chaos-wedge").arg(chaos_marker_path(dir, k));
    }
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    cmd
}

/// Kills and reaps every still-running child (abort path: the run is
/// failing, orphaned workers must not keep computing).
fn kill_all(slots: &mut [WorkerSlot]) {
    for slot in slots.iter_mut() {
        if let Some(child) = slot.child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        slot.child = None;
    }
}

/// Runs `plan` across [`ProcsConfig::procs`] worker processes and
/// merges their stores, returning output byte-identical to a
/// single-process [`run_plan`](crate::run_plan) of the same plan.
/// Sinks receive every trial in global order during the warm replay.
/// On return, `<dir>/merged` holds the union store (reusable as a warm
/// cache for later runs) and the [`FleetOutput::cache`] stats show how
/// many trials the replay found already computed.
///
/// This is the plain entry point; it discards the supervision audit
/// trail. Use [`run_plan_sharded_procs_supervised`] to also observe
/// which workers failed, how they were classified, and what recovered
/// them.
///
/// # Errors
///
/// Worker spawn/exit failures (after retries), store failures, or any
/// replay error.
pub fn run_plan_sharded_procs(
    plan: &TrialPlan,
    config: &FleetConfig,
    procs_config: &ProcsConfig,
    dir: &Path,
    sinks: &mut [&mut dyn TrialSink],
) -> Result<FleetOutput, FleetError> {
    run_plan_sharded_procs_supervised(plan, config, procs_config, dir, sinks).map(|(out, _)| out)
}

/// [`run_plan_sharded_procs`] plus the supervisor's
/// [`SupervisionReport`]: every classified worker failure, the retry
/// count, and which shards (if any) were abandoned to the warm replay
/// under [`ProcsConfig::degrade`].
///
/// # Errors
///
/// [`FleetError::Worker`] when a worker exhausts its retries and
/// degradation is off; otherwise store failures or any replay error.
pub fn run_plan_sharded_procs_supervised(
    plan: &TrialPlan,
    config: &FleetConfig,
    procs_config: &ProcsConfig,
    dir: &Path,
    sinks: &mut [&mut dyn TrialSink],
) -> Result<(FleetOutput, SupervisionReport), FleetError> {
    if procs_config.procs == 0 {
        return Err(FleetError::Config("need at least one worker process".into()));
    }
    let plan_path = write_plan_file(dir, plan)?;
    let mut report = SupervisionReport { workers: procs_config.procs, ..Default::default() };

    // Supervision timeouts and backoff gate *whether a worker is
    // retried*, never what any worker computes: the artifact bytes are
    // pinned by the warm replay regardless of timing.
    let deadline_from_now = |timeout: Option<u64>| {
        // sleepy-lint: allow(no-wall-clock): supervision deadlines gate retries, never artifact bytes
        timeout.map(|s| Instant::now() + Duration::from_secs(s))
    };

    let spawn_failed = |k: usize, e: &std::io::Error| {
        WorkerStatus::SpawnFailed(format!(
            "cannot spawn worker {k} from {}: {e}",
            procs_config.fleet_bin.display()
        ))
    };

    let mut slots: Vec<WorkerSlot> = Vec::with_capacity(procs_config.procs);
    {
        let _span = sleepy_telemetry::span("procs", "spawn-workers");
        for k in 0..procs_config.procs {
            // A spawn failure is classified and retried by the poll
            // loop like any other worker failure, not an immediate
            // abort.
            let (child, pending) = match worker_command(procs_config, &plan_path, dir, k).spawn() {
                Ok(child) => (Some(child), None),
                Err(e) => (None, Some(spawn_failed(k, &e))),
            };
            slots.push(WorkerSlot {
                child,
                attempt: 0,
                deadline: deadline_from_now(procs_config.wait_timeout_secs),
                pending,
                settled: false,
            });
        }
    }

    {
        let _span = sleepy_telemetry::span("procs", "supervise-workers");
        loop {
            let mut all_settled = true;
            for k in 0..slots.len() {
                if slots[k].settled {
                    continue;
                }
                all_settled = false;

                // Classify the current attempt: still running, exited
                // clean, or failed (with a WorkerStatus saying how).
                let deadline = slots[k].deadline;
                let failed_status: Option<WorkerStatus> = match slots[k].pending.take() {
                    Some(status) => Some(status),
                    None => match slots[k].child.as_mut() {
                        None => None,
                        Some(child) => match child.try_wait() {
                            Ok(Some(status)) if status.success() => {
                                slots[k].child = None;
                                slots[k].settled = true;
                                continue;
                            }
                            Ok(Some(status)) => {
                                slots[k].child = None;
                                Some(WorkerStatus::Exited { code: status.code() })
                            }
                            Ok(None) => {
                                // sleepy-lint: allow(no-wall-clock): timeout check gates retries, never artifact bytes
                                let now = Instant::now();
                                if deadline.is_some_and(|d| now >= d) {
                                    let _ = child.kill();
                                    let _ = child.wait();
                                    slots[k].child = None;
                                    Some(WorkerStatus::TimedOut {
                                        timeout_secs: procs_config.wait_timeout_secs.unwrap_or(0),
                                    })
                                } else {
                                    None
                                }
                            }
                            Err(e) => {
                                let _ = child.kill();
                                let _ = child.wait();
                                slots[k].child = None;
                                Some(WorkerStatus::WaitFailed(e.to_string()))
                            }
                        },
                    },
                };

                let Some(status) = failed_status else { continue };
                let attempt = slots[k].attempt;

                if attempt < procs_config.max_retries {
                    // Deterministic exponential backoff, then re-spawn
                    // over the same shard store: the cache makes the
                    // retry execute only the unfilled trial range.
                    let backoff_ms =
                        procs_config.backoff_base_ms.saturating_mul(1u64 << attempt.min(20));
                    record_failure(&mut report, k, attempt, status, Some(backoff_ms));
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    report.retries += 1;
                    slots[k].attempt = attempt + 1;
                    match worker_command(procs_config, &plan_path, dir, k).spawn() {
                        Ok(child) => {
                            slots[k].child = Some(child);
                            slots[k].deadline = deadline_from_now(procs_config.wait_timeout_secs);
                        }
                        Err(e) => {
                            // Handled as this attempt's failure on the
                            // next sweep.
                            slots[k].child = None;
                            slots[k].pending = Some(spawn_failed(k, &e));
                        }
                    }
                } else {
                    record_failure(&mut report, k, attempt, status.clone(), None);
                    if procs_config.degrade {
                        // Abandon the shard: the warm replay will
                        // execute its unfilled trials in-process.
                        slots[k].settled = true;
                        report.degraded.push(k);
                    } else {
                        kill_all(&mut slots);
                        return Err(FleetError::Worker {
                            id: k,
                            range: worker_range(plan, k, procs_config.procs),
                            status,
                        });
                    }
                }
            }
            if all_settled {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    report.failures.sort_by_key(|f| (f.worker, f.attempt));

    if procs_config.worker_trace && sleepy_telemetry::tracing() {
        // Best-effort: a worker that produced results but no readable
        // trace only degrades the timeline, not the run.
        for k in 0..procs_config.procs {
            if let Err(e) = sleepy_telemetry::import_trace_file(shard_trace_path(dir, k)) {
                crate::errln!("fleet: warning: worker {k} trace not imported: {e}");
            }
        }
    }

    let mut merged = Store::open(merged_store_dir(dir))?;
    {
        let _span = sleepy_telemetry::span("procs", "merge-stores");
        for k in 0..procs_config.procs {
            // A degraded worker may have no store at all; Store::open
            // creates an empty one, which merges as a no-op and leaves
            // the holes to the warm replay.
            let shard = Store::open(shard_store_dir(dir, k))?;
            merged.merge_from(&shard)?;
        }
    }
    let output = run_plan_cached(plan, config, sinks, Some(&mut merged), true)?;
    Ok((output, report))
}

/// Records a classified failure (helper keeping the poll loop legible).
fn record_failure(
    report: &mut SupervisionReport,
    worker: usize,
    attempt: u32,
    status: WorkerStatus,
    backoff_ms: Option<u64>,
) {
    report.failures.push(WorkerFailure { worker, attempt, status, backoff_ms });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{AlgoKind, Execution};
    use crate::run::shard_bounds;
    use sleepy_graph::GraphFamily;

    #[test]
    fn shard_bounds_partition_exactly() {
        for total in [0usize, 1, 7, 100, 101] {
            for count in [1usize, 2, 3, 8] {
                let mut covered = 0;
                for k in 0..count {
                    let (lo, hi) = shard_bounds(total, k, count);
                    assert_eq!(lo, covered, "shards must be contiguous");
                    assert!(hi >= lo);
                    covered = hi;
                }
                assert_eq!(covered, total, "shards must cover everything");
                // Balanced to within one trial.
                let sizes: Vec<usize> = (0..count)
                    .map(|k| {
                        let (lo, hi) = shard_bounds(total, k, count);
                        hi - lo
                    })
                    .collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "{sizes:?}");
            }
        }
    }

    #[test]
    fn plan_file_round_trips() {
        let plan = TrialPlan::sweep(
            &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
            &[48],
            &[AlgoKind::SleepingMis],
            3,
            0xBEEF,
            Execution::Auto,
        );
        let dir = std::env::temp_dir().join(format!("fleet-planio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = write_plan_file(&dir, &plan).unwrap();
        let back = read_plan_file(&path).unwrap();
        assert_eq!(back.base_seed, plan.base_seed);
        assert_eq!(back.jobs.len(), plan.jobs.len());
        for (a, b) in plan.jobs.iter().zip(&back.jobs) {
            assert_eq!(a.key(plan.base_seed), b.key(back.base_seed));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_procs_is_a_config_error() {
        let plan = TrialPlan::new(1);
        let cfg = FleetConfig::default();
        let procs = ProcsConfig::new("fleet", 0);
        let dir = std::env::temp_dir().join("fleet-procs-zero");
        assert!(matches!(
            run_plan_sharded_procs(&plan, &cfg, &procs, &dir, &mut []),
            Err(FleetError::Config(_))
        ));
    }
}
