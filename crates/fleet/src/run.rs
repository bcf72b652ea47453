//! The fleet runner: executes a [`TrialPlan`] or [`DynamicPlan`] on the
//! worker pool.

use crate::agg::{DynamicJobAggregate, JobAggregate, MetricStats};
use crate::cache::{self, CacheStats};
use crate::error::FleetError;
use crate::measure::{measure_dynamic, measure_once, ComplexityReport, DynamicReport};
use crate::pool::{in_flight_window, run_shards_ordered};
use crate::seed::SeedStream;
use crate::sink::{PhaseRecord, PhaseSink, TrialRecord, TrialSink};
use crate::spec::{DynamicPlan, TrialPlan};
use serde::{Deserialize, Serialize};
use sleepy_store::Store;
use std::time::Duration;

/// Runner configuration. Everything here affects only *how fast* a plan
/// runs, never *what* it computes: outputs are byte-identical across
/// all settings. Workers run at most two shards per thread ahead of the
/// in-order collector, which bounds the memory finished shards hold.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker threads (0 = all available cores).
    pub threads: usize,
    /// Trials per shard (the unit of work stealing). Smaller shards
    /// balance load better; larger shards amortize scheduling. Shard
    /// boundaries are derived from the plan alone, so this does not
    /// affect output either.
    pub shard_size: usize,
    /// Print live progress to stderr.
    pub progress: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig { threads: 0, shard_size: 16, progress: false }
    }
}

impl FleetConfig {
    /// A config pinned to a thread count.
    pub fn with_threads(threads: usize) -> Self {
        FleetConfig { threads, ..FleetConfig::default() }
    }
}

/// The in-memory result of a fleet run.
#[derive(Debug)]
pub struct FleetOutput {
    /// One aggregate per plan job, in plan order.
    pub aggregates: Vec<JobAggregate>,
    /// Total trials collected (executed + served from the cache).
    pub total_trials: u64,
    /// Cache-hit accounting (all-executed for uncached runs).
    pub cache: CacheStats,
    /// Wall-clock duration of the run (not part of serialized reports —
    /// those must be byte-identical across thread counts).
    pub elapsed: Duration,
}

/// One job's serializable aggregate report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobReport {
    /// `<algo> @ <family>/n=<n>`.
    pub label: String,
    /// Algorithm label.
    pub algo: String,
    /// Workload label.
    pub workload: String,
    /// Node count.
    pub n: usize,
    /// Trials aggregated.
    pub trials: u64,
    /// Fraction of trials whose output verified as an MIS.
    pub valid_fraction: f64,
    /// Total Algorithm 2 base-case timeouts.
    pub base_timeouts: u64,
    /// Node-averaged awake complexity.
    pub node_avg_awake: MetricStats,
    /// Worst-case awake complexity.
    pub worst_awake: MetricStats,
    /// Worst-case round complexity.
    pub worst_round: MetricStats,
    /// Node-averaged round complexity.
    pub node_avg_round: MetricStats,
    /// Total messages.
    pub messages: MetricStats,
    /// MIS size.
    pub mis_size: MetricStats,
}

/// The serializable aggregate report of a whole run. Contains no
/// timing or machine information: two runs of the same plan serialize
/// to identical bytes regardless of thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetReport {
    /// The plan's base seed.
    pub base_seed: u64,
    /// Total trials executed.
    pub total_trials: u64,
    /// Per-job aggregates, in plan order.
    pub jobs: Vec<JobReport>,
}

impl FleetOutput {
    /// Builds the serializable report for this output.
    pub fn report(&self, plan: &TrialPlan) -> FleetReport {
        let jobs = plan
            .jobs
            .iter()
            .zip(&self.aggregates)
            .map(|(job, agg)| JobReport {
                label: job.label(),
                algo: job.algo.to_string(),
                workload: job.workload.label(),
                n: job.workload.n,
                trials: agg.trials,
                valid_fraction: agg.valid_fraction(),
                base_timeouts: agg.base_timeouts,
                node_avg_awake: agg.node_avg_awake.stats(),
                worst_awake: agg.worst_awake.stats(),
                worst_round: agg.worst_round.stats(),
                node_avg_round: agg.node_avg_round.stats(),
                messages: agg.messages.stats(),
                mis_size: agg.mis_size.stats(),
            })
            .collect();
        FleetReport { base_seed: plan.base_seed, total_trials: self.total_trials, jobs }
    }
}

/// Shared execution scaffolding of the static and dynamic runners:
/// global trial ordering over a plan's concatenated jobs (prefix sums
/// map a global index back to `(job, trial)`), per-trial seeds from the
/// plan's [`SeedStream`], work-stealing shard execution, in-order
/// collection, and a percent-throttled stderr progress line.
///
/// `trial_counts[j]` is job `j`'s trial count. `run_trial(job, trial,
/// seed)` executes on worker threads; `collect(job, trial, seed,
/// result)` runs on the calling thread in global trial order. `range`
/// restricts execution to a half-open interval of global trial indices
/// (a multi-process shard); `None` runs everything. Returns the number
/// of trials executed.
fn run_trials_sharded<R: Send>(
    trial_counts: &[usize],
    base_seed: u64,
    config: &FleetConfig,
    range: Option<(usize, usize)>,
    progress_noun: &str,
    run_trial: impl Fn(usize, usize, u64) -> Result<R, FleetError> + Sync,
    mut collect: impl FnMut(usize, usize, u64, &R) -> Result<(), FleetError>,
) -> Result<u64, FleetError> {
    if config.shard_size == 0 {
        return Err(FleetError::Config("shard_size must be positive".into()));
    }
    struct Shard<R> {
        trials: Vec<(usize, usize, u64, R)>,
    }
    let seeds = SeedStream::new(base_seed);
    let mut job_starts = Vec::with_capacity(trial_counts.len());
    let mut total = 0usize;
    for &count in trial_counts {
        job_starts.push(total);
        total += count;
    }
    let locate = |global: usize| -> (usize, usize) {
        let job = match job_starts.binary_search(&global) {
            Ok(j) => {
                // Several zero-trial jobs can share a start; take the
                // last one, whose range actually contains `global`.
                let mut j = j;
                while j + 1 < job_starts.len() && job_starts[j + 1] == global {
                    j += 1;
                }
                j
            }
            Err(j) => j - 1,
        };
        (job, global - job_starts[job])
    };
    let (range_lo, range_hi) = match range {
        Some((lo, hi)) => {
            if lo > hi || hi > total {
                return Err(FleetError::Config(format!(
                    "trial range {lo}..{hi} out of bounds for {total} trials"
                )));
            }
            (lo, hi)
        }
        None => (0, total),
    };
    let span = range_hi - range_lo;
    let shard_size = config.shard_size;
    let shard_count = span.div_ceil(shard_size);
    let mut done: u64 = 0;
    let mut last_percent: u64 = u64::MAX;

    run_shards_ordered(
        shard_count,
        config.threads,
        in_flight_window(config.threads),
        |shard| -> Result<Shard<R>, FleetError> {
            let lo = range_lo + shard * shard_size;
            let hi = (lo + shard_size).min(range_hi);
            let mut trials = Vec::with_capacity(hi - lo);
            for global in lo..hi {
                let (job_idx, trial_idx) = locate(global);
                let seed = seeds.trial_seed(job_idx as u64, trial_idx as u64);
                trials.push((job_idx, trial_idx, seed, run_trial(job_idx, trial_idx, seed)?));
            }
            Ok(Shard { trials })
        },
        |_, shard_out| {
            for (job_idx, trial_idx, seed, result) in &shard_out.trials {
                collect(*job_idx, *trial_idx, *seed, result)?;
                done += 1;
            }
            if config.progress && span > 0 {
                let percent = done * 100 / span as u64;
                if percent != last_percent {
                    last_percent = percent;
                    let end = if done == span as u64 { "\n" } else { "" };
                    crate::sink::print_stderr(format_args!(
                        "\rfleet: {done}/{span} {progress_noun} ({percent}%){end}"
                    ));
                }
            }
            Ok(())
        },
    )?;
    Ok(done)
}

/// The contiguous half-open range of global trial indices process
/// `index` of `count` executes: ranges partition `0..total` and differ
/// in size by at most one trial.
///
/// # Panics
///
/// `count` must be at least 1 and `index` less than `count` (the
/// fallible entry points, [`run_plan_shard`] and
/// [`run_plan_sharded_procs`], validate this and return a
/// [`FleetError::Config`] instead).
///
/// [`run_plan_sharded_procs`]: crate::procs::run_plan_sharded_procs
pub fn shard_bounds(total: usize, index: usize, count: usize) -> (usize, usize) {
    assert!(count > 0 && index < count, "invalid shard {index}/{count}");
    (index * total / count, (index + 1) * total / count)
}

/// Runs a plan with no per-trial sinks.
///
/// # Errors
///
/// The error of the smallest-index failing trial.
pub fn run_plan(plan: &TrialPlan, config: &FleetConfig) -> Result<FleetOutput, FleetError> {
    run_plan_with_sinks(plan, config, &mut [])
}

/// Runs a plan, feeding every finished trial to the sinks in global
/// trial order (deterministic regardless of scheduling).
///
/// # Errors
///
/// The error of the smallest-index failing trial, or the first sink
/// error.
pub fn run_plan_with_sinks(
    plan: &TrialPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn TrialSink],
) -> Result<FleetOutput, FleetError> {
    run_plan_cached(plan, config, sinks, None, true)
}

/// Runs a plan against an optional result store: trials whose key is
/// already stored are served from it (when `read_cache` is true)
/// instead of executing, and freshly executed results are appended
/// back to the store in batches of [`STORE_FLUSH_BATCH`] (each batch
/// one atomically-published segment), so an interrupted run loses at
/// most one batch of computed work. Output is byte-identical to an
/// uncached run of the same plan — cached reports round-trip exactly
/// and are collected in the same global trial order.
///
/// Pass `read_cache = false` to force re-execution while still
/// recording results (the CLI's `--no-cache`).
///
/// # Errors
///
/// The error of the smallest-index failing trial, the first sink
/// error, or a store write failure.
pub fn run_plan_cached(
    plan: &TrialPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn TrialSink],
    store: Option<&mut Store>,
    read_cache: bool,
) -> Result<FleetOutput, FleetError> {
    run_plan_inner(plan, config, sinks, store, read_cache, None)
}

/// Runs one multi-process shard of a plan: only global trials in
/// [`shard_bounds`]`(total, index, count)` execute, with results
/// recorded to (and read from) the shard's store. Aggregates and sink
/// records cover only the shard's range — the coordinator merges shard
/// stores and replays the full plan warm to recover the canonical
/// aggregates (see [`run_plan_sharded_procs`]).
///
/// # Errors
///
/// As [`run_plan_cached`], plus a config error for an invalid shard.
///
/// [`run_plan_sharded_procs`]: crate::procs::run_plan_sharded_procs
pub fn run_plan_shard(
    plan: &TrialPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn TrialSink],
    store: Option<&mut Store>,
    index: usize,
    count: usize,
) -> Result<FleetOutput, FleetError> {
    if count == 0 || index >= count {
        return Err(FleetError::Config(format!("invalid shard {index}/{count}")));
    }
    run_plan_inner(plan, config, sinks, store, true, Some((index, count)))
}

/// Job deduplication for a run: duplicate jobs (same content key)
/// execute once — on their first occurrence, with that position's
/// seeds — and every finished trial fans out to the aggregates and
/// sinks of all group members that cover its index. Plans without
/// duplicates are completely unaffected.
struct DedupPlan {
    /// `members[rep]` lists the group (rep first, plan order) for
    /// representative jobs, and is empty for duplicate jobs.
    members: Vec<Vec<usize>>,
    /// Trials the representative executes: the group's maximum.
    exec_counts: Vec<usize>,
}

impl DedupPlan {
    fn of(plan: &TrialPlan, job_keys: &[String]) -> Self {
        let n_jobs = plan.jobs.len();
        let mut first: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_jobs];
        for (j, key) in job_keys.iter().enumerate() {
            let rep = *first.entry(key.as_str()).or_insert(j);
            members[rep].push(j);
        }
        let exec_counts = (0..n_jobs)
            .map(|j| members[j].iter().map(|&m| plan.jobs[m].trials).max().unwrap_or(0))
            .collect();
        DedupPlan { members, exec_counts }
    }

    /// The global trial range worker `index` of `count` executes: its
    /// [`shard_bounds`] share of the trials left to run after dedup.
    fn worker_range(&self, index: usize, count: usize) -> (usize, usize) {
        shard_bounds(self.exec_counts.iter().sum(), index, count)
    }
}

/// The global trial range worker `index` of `count` executes for
/// `plan`. Duplicate jobs run once, so the ranges split fewer trials
/// than [`TrialPlan::total_trials`] when the plan repeats a job.
pub(crate) fn worker_range(plan: &TrialPlan, index: usize, count: usize) -> (usize, usize) {
    let job_keys: Vec<String> = plan.jobs.iter().map(|j| j.key(plan.base_seed)).collect();
    DedupPlan::of(plan, &job_keys).worker_range(index, count)
}

/// Freshly executed results buffered before being flushed to the store
/// as one atomically-published segment. Bounds how much computed work
/// an interrupted cold run can lose.
pub const STORE_FLUSH_BATCH: usize = 1024;

fn run_plan_inner(
    plan: &TrialPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn TrialSink],
    store: Option<&mut Store>,
    read_cache: bool,
    shard: Option<(usize, usize)>,
) -> Result<FleetOutput, FleetError> {
    let watch = sleepy_telemetry::stopwatch("run", "static-plan");
    let job_keys: Vec<String> = plan.jobs.iter().map(|j| j.key(plan.base_seed)).collect();
    let dedup = DedupPlan::of(plan, &job_keys);
    let range = shard.map(|(index, count)| dedup.worker_range(index, count));

    let mut aggregates: Vec<JobAggregate> = plan.jobs.iter().map(|_| JobAggregate::new()).collect();
    let mut stats = CacheStats::default();
    let mut pending: Vec<(String, serde::Value)> = Vec::new();
    // Workers take shared read locks for lookups; the in-order
    // collector takes the write lock to flush finished batches mid-run.
    let store_cell: Option<std::sync::RwLock<&mut Store>> = store.map(std::sync::RwLock::new);
    let done = run_trials_sharded(
        &dedup.exec_counts,
        plan.base_seed,
        config,
        range,
        "trials",
        |job_idx, _trial_idx, seed| {
            let job = &plan.jobs[job_idx];
            if read_cache {
                if let Some(cell) = &store_cell {
                    let guard = cell.read().expect("store lock poisoned");
                    if let Some(cached) = guard
                        .get(&cache::trial_key(&job_keys[job_idx], seed))
                        .and_then(cache::report_from_value)
                    {
                        return Ok((cached, true));
                    }
                }
            }
            let _span = sleepy_telemetry::span!("trial", "static", {"job": job_idx, "seed": seed});
            let graph = job.workload.instance(seed)?;
            Ok((measure_once(&graph, job.algo, seed, job.execution)?, false))
        },
        |job_idx, trial_idx, seed, (report, hit): &(ComplexityReport, bool)| {
            if *hit {
                stats.count_hit(cache::STATIC_NS);
            } else {
                stats.count_executed(cache::STATIC_NS);
                if let Some(cell) = &store_cell {
                    pending.push((
                        cache::trial_key(&job_keys[job_idx], seed),
                        cache::report_to_value(report),
                    ));
                    if pending.len() >= STORE_FLUSH_BATCH {
                        let chunk = std::mem::take(&mut pending);
                        let mut guard = cell.write().expect("store lock poisoned");
                        stats.count_stored(cache::STATIC_NS, guard.append(chunk)?);
                    }
                }
            }
            for &member in &dedup.members[job_idx] {
                if trial_idx >= plan.jobs[member].trials {
                    continue;
                }
                aggregates[member].push(report);
                for sink in sinks.iter_mut() {
                    sink.record(&TrialRecord {
                        job_index: member,
                        job: &plan.jobs[member],
                        trial: trial_idx,
                        seed,
                        report,
                    })?;
                }
            }
            Ok(())
        },
    )?;

    if let Some(cell) = store_cell {
        let store = cell.into_inner().expect("store lock poisoned");
        stats.count_stored(cache::STATIC_NS, store.append(pending)?);
    }
    for sink in sinks.iter_mut() {
        sink.finish()?;
    }
    stats.publish();
    Ok(FleetOutput { aggregates, total_trials: done, cache: stats, elapsed: watch.finish() })
}

/// The in-memory result of a dynamic fleet run.
#[derive(Debug)]
pub struct DynamicFleetOutput {
    /// One aggregate per plan job, in plan order.
    pub aggregates: Vec<DynamicJobAggregate>,
    /// Total trials collected (executed + served from the cache).
    pub total_trials: u64,
    /// Cache-hit accounting: `hits`/`executed` count whole *trials*
    /// (a trial only hits when every one of its phases is stored),
    /// `stored` counts per-phase records written back.
    pub cache: CacheStats,
    /// Wall-clock duration of the run (not serialized).
    pub elapsed: Duration,
}

/// One phase's aggregate inside a [`DynamicJobReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseJobReport {
    /// Phase index.
    pub phase: usize,
    /// Trials that reached this phase.
    pub trials: u64,
    /// Fraction of those whose phase output verified as an MIS.
    pub valid_fraction: f64,
    /// Node-averaged awake complexity over the whole phase graph.
    pub node_avg_awake: MetricStats,
    /// Worst-case round complexity of the phase run.
    pub worst_round: MetricStats,
    /// Mean nodes the algorithm re-ran on (the repair scope).
    pub repair_scope_mean: f64,
    /// Mean MIS members carried over unchanged.
    pub carried_mean: f64,
}

/// Per-update cost statistics inside a [`DynamicJobReport`] — the
/// Ghaffari–Portmann-style amortized accounting. All zero for jobs
/// that did not run
/// [`RepairStrategy::Incremental`](crate::RepairStrategy::Incremental).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Update events absorbed across all trials and phases.
    pub count: u64,
    /// Amortized awake rounds per update (mean of per-update sums).
    pub awake_mean: f64,
    /// The costliest single update's awake-round sum.
    pub awake_max: f64,
    /// Mean repair scope (nodes re-run) per update.
    pub scope_mean: f64,
    /// Updates absorbed without waking anyone.
    pub zero_scope: u64,
}

/// One dynamic job's serializable aggregate report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicJobReport {
    /// `<algo>/<strategy> @ <workload>`.
    pub label: String,
    /// Algorithm label.
    pub algo: String,
    /// Repair strategy label.
    pub strategy: String,
    /// Workload label.
    pub workload: String,
    /// Trials aggregated.
    pub trials: u64,
    /// Fraction of trials valid on *every* phase.
    pub valid_fraction: f64,
    /// Whole-trial node-averaged awake cost summed over phases.
    pub total_avg_awake: MetricStats,
    /// Per-update awake-cost statistics (incremental strategy only).
    pub updates: UpdateStats,
    /// Per-phase aggregates.
    pub phases: Vec<PhaseJobReport>,
}

/// The serializable aggregate report of a dynamic run; like
/// [`FleetReport`], free of timing and machine information.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicFleetReport {
    /// The plan's base seed.
    pub base_seed: u64,
    /// Total trials executed.
    pub total_trials: u64,
    /// Per-job aggregates, in plan order.
    pub jobs: Vec<DynamicJobReport>,
}

impl DynamicFleetOutput {
    /// Builds the serializable report for this output.
    pub fn report(&self, plan: &DynamicPlan) -> DynamicFleetReport {
        let jobs = plan
            .jobs
            .iter()
            .zip(&self.aggregates)
            .map(|(job, agg)| {
                let scope_means = agg.repair_scope.means();
                let carried_means = agg.carried.means();
                let u = &agg.updates;
                DynamicJobReport {
                    label: job.label(),
                    algo: job.algo.to_string(),
                    strategy: job.strategy.to_string(),
                    workload: job.workload.label(),
                    trials: agg.trials,
                    valid_fraction: agg.valid_fraction(),
                    total_avg_awake: agg.total_avg_awake.stats(),
                    updates: UpdateStats {
                        count: u.count(),
                        awake_mean: u.amortized_awake(),
                        awake_max: u.awake.max_or_zero(),
                        scope_mean: if u.is_empty() { 0.0 } else { u.scope.mean },
                        zero_scope: u.zero_scope,
                    },
                    phases: agg
                        .phases
                        .iter()
                        .enumerate()
                        .map(|(phase, p)| PhaseJobReport {
                            phase,
                            trials: p.trials,
                            valid_fraction: p.valid_fraction(),
                            node_avg_awake: p.node_avg_awake.stats(),
                            worst_round: p.worst_round.stats(),
                            repair_scope_mean: scope_means.get(phase).copied().unwrap_or(0.0),
                            carried_mean: carried_means.get(phase).copied().unwrap_or(0.0),
                        })
                        .collect(),
                }
            })
            .collect();
        DynamicFleetReport { base_seed: plan.base_seed, total_trials: self.total_trials, jobs }
    }
}

/// Runs a dynamic plan with no per-phase sinks.
///
/// # Errors
///
/// The error of the smallest-index failing trial.
pub fn run_dynamic_plan(
    plan: &DynamicPlan,
    config: &FleetConfig,
) -> Result<DynamicFleetOutput, FleetError> {
    run_dynamic_plan_with_sinks(plan, config, &mut [])
}

/// Runs a dynamic plan, feeding every finished phase to the sinks in
/// global `(trial, phase)` order — deterministic regardless of
/// scheduling, exactly like the static runner.
///
/// # Errors
///
/// The error of the smallest-index failing trial, or the first sink
/// error.
pub fn run_dynamic_plan_with_sinks(
    plan: &DynamicPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn PhaseSink],
) -> Result<DynamicFleetOutput, FleetError> {
    run_dynamic_plan_cached(plan, config, sinks, None, true)
}

/// Runs a dynamic plan against an optional result store — the dynamic
/// counterpart of [`run_plan_cached`]. Each finished trial is persisted
/// as one record **per phase** (keyed by the dynamic job's content key,
/// the trial seed, and the phase index, in the `d/` namespace — see
/// [`cache::dynamic_phase_key`]); a trial is served warm only when
/// *every* one of its phases is stored, since per-phase membership
/// state is not persisted and a trial cannot resume mid-flight. A warm
/// rerun therefore executes **zero** phases and reproduces
/// `phases.jsonl` and the aggregate report byte-identically — cached
/// phase reports round-trip exactly (shortest-round-trip floats, the
/// same discipline as the static path) and are collected in the same
/// global `(trial, phase)` order.
///
/// Static and dynamic records are namespaced apart, so one store
/// directory can serve both kinds of plan at once.
///
/// # Errors
///
/// The error of the smallest-index failing trial, the first sink
/// error, or a store write failure.
pub fn run_dynamic_plan_cached(
    plan: &DynamicPlan,
    config: &FleetConfig,
    sinks: &mut [&mut dyn PhaseSink],
    store: Option<&mut Store>,
    read_cache: bool,
) -> Result<DynamicFleetOutput, FleetError> {
    let watch = sleepy_telemetry::stopwatch("run", "dynamic-plan");
    let job_keys: Vec<String> = plan.jobs.iter().map(|j| j.key(plan.base_seed)).collect();
    let counts: Vec<usize> = plan.jobs.iter().map(|j| j.trials).collect();
    let mut aggregates: Vec<DynamicJobAggregate> =
        plan.jobs.iter().map(|_| DynamicJobAggregate::new()).collect();
    let mut stats = CacheStats::default();
    let mut pending: Vec<(String, serde::Value)> = Vec::new();
    // Same locking discipline as the static runner: workers share read
    // locks for lookups, the in-order collector flushes under the write
    // lock.
    let store_cell: Option<std::sync::RwLock<&mut Store>> = store.map(std::sync::RwLock::new);
    let done = run_trials_sharded(
        &counts,
        plan.base_seed,
        config,
        None,
        "dynamic trials",
        |job_idx, _trial_idx, seed| {
            let job = &plan.jobs[job_idx];
            if read_cache {
                if let Some(cell) = &store_cell {
                    let guard = cell.read().expect("store lock poisoned");
                    if let Some(cached) = cache::dynamic_report_from_store(
                        &guard,
                        &job_keys[job_idx],
                        seed,
                        job.workload.phases,
                    ) {
                        return Ok((cached, true));
                    }
                }
            }
            let _span = sleepy_telemetry::span!("trial", "dynamic", {"job": job_idx, "seed": seed});
            let report =
                measure_dynamic(&job.workload, job.algo, seed, job.execution, job.strategy)?;
            Ok((report, false))
        },
        |job_idx, trial_idx, seed, (report, hit): &(DynamicReport, bool)| {
            if *hit {
                stats.count_hit(cache::DYNAMIC_NS);
            } else {
                stats.count_executed(cache::DYNAMIC_NS);
                if let Some(cell) = &store_cell {
                    for phase in &report.phases {
                        pending.push((
                            cache::dynamic_phase_key(&job_keys[job_idx], seed, phase.phase),
                            cache::phase_to_value(phase),
                        ));
                    }
                    if pending.len() >= STORE_FLUSH_BATCH {
                        let chunk = std::mem::take(&mut pending);
                        let mut guard = cell.write().expect("store lock poisoned");
                        stats.count_stored(cache::DYNAMIC_NS, guard.append(chunk)?);
                    }
                }
            }
            aggregates[job_idx].push(report);
            for phase in &report.phases {
                for sink in sinks.iter_mut() {
                    sink.record(&PhaseRecord {
                        job_index: job_idx,
                        job: &plan.jobs[job_idx],
                        trial: trial_idx,
                        seed,
                        report: phase,
                    })?;
                }
            }
            Ok(())
        },
    )?;

    if let Some(cell) = store_cell {
        let store = cell.into_inner().expect("store lock poisoned");
        stats.count_stored(cache::DYNAMIC_NS, store.append(pending)?);
    }
    for sink in sinks.iter_mut() {
        sink.finish()?;
    }
    stats.publish();
    Ok(DynamicFleetOutput { aggregates, total_trials: done, cache: stats, elapsed: watch.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{AlgoKind, Execution};
    use crate::spec::JobSpec;
    use crate::workload::Workload;
    use sleepy_graph::GraphFamily;

    fn tiny_plan() -> TrialPlan {
        TrialPlan::sweep(
            &[GraphFamily::Cycle, GraphFamily::GnpAvgDeg(4.0)],
            &[48],
            &[AlgoKind::SleepingMis],
            6,
            0xF1EE7,
            Execution::Auto,
        )
    }

    #[test]
    fn run_produces_aggregates_per_job() {
        let plan = tiny_plan();
        let out = run_plan(&plan, &FleetConfig::default()).unwrap();
        assert_eq!(out.aggregates.len(), 2);
        assert_eq!(out.total_trials, 12);
        for agg in &out.aggregates {
            assert_eq!(agg.trials, 6);
            assert_eq!(agg.valid_fraction(), 1.0);
            assert!(agg.node_avg_awake.moments.mean > 0.0);
        }
        let report = out.report(&plan);
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs[0].label.contains("SleepingMIS"));
    }

    #[test]
    fn thread_count_does_not_change_report_bytes() {
        let plan = tiny_plan();
        let reports: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let cfg = FleetConfig { threads, shard_size: 2, ..FleetConfig::default() };
                let out = run_plan(&plan, &cfg).unwrap();
                serde_json::to_string_pretty(&out.report(&plan)).unwrap()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn shard_size_does_not_change_report_bytes() {
        let plan = tiny_plan();
        let render = |shard_size: usize| {
            let cfg = FleetConfig { threads: 3, shard_size, ..FleetConfig::default() };
            let out = run_plan(&plan, &cfg).unwrap();
            serde_json::to_string_pretty(&out.report(&plan)).unwrap()
        };
        assert_eq!(render(1), render(7));
        assert_eq!(render(7), render(100));
    }

    #[test]
    fn zero_trial_jobs_are_skipped_cleanly() {
        let mut plan = TrialPlan::new(5);
        plan.push(JobSpec::new(Workload::new(GraphFamily::Cycle, 16), AlgoKind::SleepingMis, 0));
        plan.push(JobSpec::new(Workload::new(GraphFamily::Cycle, 16), AlgoKind::SleepingMis, 3));
        plan.push(JobSpec::new(Workload::new(GraphFamily::Path, 16), AlgoKind::SleepingMis, 0));
        let out = run_plan(&plan, &FleetConfig::default()).unwrap();
        assert_eq!(out.total_trials, 3);
        assert_eq!(out.aggregates[0].trials, 0);
        assert_eq!(out.aggregates[1].trials, 3);
        assert_eq!(out.aggregates[2].trials, 0);
    }

    #[test]
    fn invalid_shard_size_is_a_config_error() {
        let plan = tiny_plan();
        let cfg = FleetConfig { shard_size: 0, ..FleetConfig::default() };
        assert!(matches!(run_plan(&plan, &cfg), Err(FleetError::Config(_))));
        let dplan = tiny_dynamic_plan();
        assert!(matches!(run_dynamic_plan(&dplan, &cfg), Err(FleetError::Config(_))));
    }

    fn tiny_dynamic_plan() -> DynamicPlan {
        use crate::measure::RepairStrategy;
        DynamicPlan::sweep(
            &[GraphFamily::GnpAvgDeg(5.0), GraphFamily::Tree],
            &[64],
            &[AlgoKind::SleepingMis],
            &[RepairStrategy::Recompute, RepairStrategy::Repair],
            3,
            sleepy_graph::ChurnSpec {
                edge_delete_frac: 0.08,
                edge_insert_frac: 0.08,
                node_delete_frac: 0.04,
                node_insert_frac: 0.04,
                arrival_degree: 2,
                ..sleepy_graph::ChurnSpec::none()
            },
            4,
            0xD1CE,
            Execution::Auto,
        )
    }

    #[test]
    fn dynamic_run_aggregates_per_phase_and_validates() {
        let plan = tiny_dynamic_plan();
        let out = run_dynamic_plan(&plan, &FleetConfig::default()).unwrap();
        assert_eq!(out.aggregates.len(), 4);
        assert_eq!(out.total_trials, 16);
        for agg in &out.aggregates {
            assert_eq!(agg.trials, 4);
            assert_eq!(agg.valid_fraction(), 1.0, "every phase of every trial must verify");
            assert_eq!(agg.phases.len(), 3);
            for p in &agg.phases {
                assert_eq!(p.trials, 4);
                assert_eq!(p.valid_fraction(), 1.0);
            }
        }
        let report = out.report(&plan);
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.jobs[0].phases.len(), 3);
        // Phase 0 always runs on the full graph.
        assert_eq!(report.jobs[0].phases[0].repair_scope_mean, 64.0);
        // Repair jobs restrict their scope after phase 0.
        let repair_job = report.jobs.iter().find(|j| j.strategy == "repair").unwrap();
        assert!(repair_job.phases[1].repair_scope_mean < 64.0);
        assert!(repair_job.phases[1].carried_mean > 0.0);
    }

    #[test]
    fn dynamic_report_bytes_thread_invariant() {
        let plan = tiny_dynamic_plan();
        let render = |threads: usize, shard_size: usize| {
            let cfg = FleetConfig { threads, shard_size, ..FleetConfig::default() };
            let out = run_dynamic_plan(&plan, &cfg).unwrap();
            serde_json::to_string_pretty(&out.report(&plan)).unwrap()
        };
        let base = render(1, 2);
        assert_eq!(base, render(2, 2));
        assert_eq!(base, render(4, 1));
        assert_eq!(base, render(3, 64));
    }
}
