//! The traced run: the fleet runners' trial loops replayed from the
//! benchmark's own code, one span around every call into a layer.
//!
//! Each function here mirrors one fleet entry point step for step —
//! the same shard size, pool, seed derivation, store flush batching and
//! in-order collection — so its serialized report must equal the
//! untraced entry point's byte for byte (a gate checks it).

use crate::trace::SpanLog;
use sleepy_baselines::run_baseline;
use sleepy_fleet::pool::{resolve_threads, run_shards_ordered};
use sleepy_fleet::{
    cache, seed, AlgoKind, CacheStats, ComplexityReport, DynamicFleetOutput, DynamicJobAggregate,
    DynamicPlan, DynamicReport, Execution, FleetConfig, FleetError, FleetOutput,
    IncrementalRepairer, JobAggregate, PhaseReport, RepairStrategy, SeedStream, TrialPlan,
    UpdateRecord, STORE_FLUSH_BATCH,
};
use sleepy_graph::Graph;
use sleepy_mis::{execute_sleeping_mis, run_sleeping_mis, MisConfig};
use sleepy_net::{ComplexitySummary, EngineConfig, RunMetrics};
use sleepy_store::Store;
use sleepy_verify::verify_mis;
use std::sync::RwLock;
use std::time::Duration;

/// Work counted at the layer boundaries of a traced run. Every field is
/// a pure function of the plan, so a repeated run must reproduce it
/// exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Edges of the graphs generated.
    pub gen_edges: u64,
    /// Nodes the combinatorial executor ran on.
    pub exec_nodes: u64,
    /// Messages sent in engine runs.
    pub net_messages: u64,
    /// Of those, messages delivered (not dropped at a sleeping receiver, not lost).
    pub net_delivered: u64,
    /// Rounds the engine processed.
    pub net_active_rounds: u64,
    /// Awake node-rounds the engine simulated.
    pub net_awake_node_rounds: u64,
    /// `verify_mis` calls.
    pub verified: u64,
    /// Of those, outputs that are not a maximal independent set.
    pub invalid: u64,
    /// Edges of the graphs verified.
    pub verify_edges: u64,
    /// Entries the store index held after each open.
    pub store_entries_loaded: u64,
    /// Bytes on disk a store open read.
    pub store_open_bytes: u64,
    /// `Store::get` calls that found their key.
    pub store_hits: u64,
    /// Records written by `Store::append`.
    pub store_appended: u64,
    /// Bytes the store held on disk when the run ended.
    pub store_bytes: u64,
    /// Update events absorbed.
    pub events: u64,
    /// Of those, events absorbed without re-running on any node.
    pub zero_scope: u64,
}

impl Counts {
    /// Field-wise sum.
    pub fn add(&mut self, o: &Counts) {
        self.gen_edges += o.gen_edges;
        self.exec_nodes += o.exec_nodes;
        self.net_messages += o.net_messages;
        self.net_delivered += o.net_delivered;
        self.net_active_rounds += o.net_active_rounds;
        self.net_awake_node_rounds += o.net_awake_node_rounds;
        self.verified += o.verified;
        self.invalid += o.invalid;
        self.verify_edges += o.verify_edges;
        self.store_entries_loaded += o.store_entries_loaded;
        self.store_open_bytes += o.store_open_bytes;
        self.store_hits += o.store_hits;
        self.store_appended += o.store_appended;
        self.store_bytes += o.store_bytes;
        self.events += o.events;
        self.zero_scope += o.zero_scope;
    }
}

/// Total size of the files directly inside `dir` (a store directory).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| entries.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

/// `Store::open`, traced, counting the entries and bytes it loaded.
///
/// # Errors
///
/// Store I/O failures.
pub fn open_store(
    dir: &std::path::Path,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Result<Store, FleetError> {
    counts.store_open_bytes += dir_bytes(dir);
    let store = log.time("store.open", || Store::open(dir))?;
    counts.store_entries_loaded += store.stats().entries;
    Ok(store)
}

/// Mirror of the fleet runners' shared scaffold: trials in global plan
/// order, grouped into shards of the default size, run on the fleet's
/// pool by `run(job, trial, seed)` and handed to `collect(job, seed,
/// result)` in order on this thread. Returns the trials collected.
fn sharded<R: Send>(
    trial_counts: &[usize],
    base_seed: u64,
    threads: usize,
    run: impl Fn(usize, usize, u64) -> Result<R, FleetError> + Sync,
    mut collect: impl FnMut(usize, u64, R) -> Result<(), FleetError>,
) -> Result<u64, FleetError> {
    let shard_size = FleetConfig::default().shard_size;
    let mut starts = Vec::with_capacity(trial_counts.len());
    let mut total = 0usize;
    for &count in trial_counts {
        starts.push(total);
        total += count;
    }
    let seeds = SeedStream::new(base_seed);
    let mut done = 0u64;
    run_shards_ordered(
        total.div_ceil(shard_size),
        threads,
        2 * resolve_threads(threads),
        |shard| {
            let lo = shard * shard_size;
            (lo..(lo + shard_size).min(total))
                .map(|global| {
                    // The last job starting at or before `global` holds it
                    // (zero-trial jobs share their successor's start).
                    let job = starts.partition_point(|&s| s <= global) - 1;
                    let trial = global - starts[job];
                    let seed = seeds.trial_seed(job as u64, trial as u64);
                    run(job, trial, seed).map(|r| (job, seed, r))
                })
                .collect::<Result<Vec<_>, _>>()
        },
        |_, outs| {
            for (job, seed, r) in outs {
                collect(job, seed, r)?;
                done += 1;
            }
            Ok(())
        },
    )?;
    Ok(done)
}

/// One worker-thread trial result of [`static_plan`].
struct TrialOut {
    report: ComplexityReport,
    hit: bool,
    log: SpanLog,
    counts: Counts,
}

/// Traced mirror of `run_plan_cached(plan, threads, [], store, true)`:
/// returns the serialized [`FleetOutput::report`].
///
/// # Errors
///
/// The first failing trial's error, or a store write failure.
pub fn static_plan(
    plan: &TrialPlan,
    threads: usize,
    store: Option<&mut Store>,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Result<String, FleetError> {
    let job_keys: Vec<String> = plan.jobs.iter().map(|j| j.key(plan.base_seed)).collect();
    let mut distinct = job_keys.clone();
    distinct.sort();
    distinct.dedup();
    assert_eq!(distinct.len(), job_keys.len(), "benchmark plans hold no duplicate jobs");
    let trial_counts: Vec<usize> = plan.jobs.iter().map(|j| j.trials).collect();
    let epoch = log.epoch();
    let plan_span = log.enter("plan", "static");
    let mut aggregates: Vec<JobAggregate> = plan.jobs.iter().map(|_| JobAggregate::new()).collect();
    let mut stats = CacheStats::default();
    let mut pending: Vec<(String, serde_json::Value)> = Vec::new();
    let store_cell = store.map(RwLock::new);
    let done = sharded(
        &trial_counts,
        plan.base_seed,
        threads,
        |job, _, seed| {
            let mut tl = SpanLog::new(epoch);
            let mut tc = Counts::default();
            let root = tl.enter("trial", "");
            let mut cached = None;
            if let Some(cell) = &store_cell {
                let key = cache::trial_key(&job_keys[job], seed);
                let guard = cell.read().expect("store lock poisoned");
                if let Some(v) = tl.time("store.get", || guard.get(&key)) {
                    tc.store_hits += 1;
                    cached = tl.time("fleet.cache.decode", || cache::report_from_value(v));
                }
            }
            let hit = cached.is_some();
            let report = match cached {
                Some(report) => report,
                None => {
                    let spec = &plan.jobs[job];
                    let graph = tl.time("graph.gen", || spec.workload.instance(seed))?;
                    tc.gen_edges += graph.m() as u64;
                    let (set, summary, timeouts) =
                        run_algo(&graph, spec.algo, seed, spec.execution, &mut tl, &mut tc)?;
                    let valid = verify(&graph, &set, &mut tl, &mut tc);
                    report_of(&graph, spec.algo, &set, summary, valid, timeouts)
                }
            };
            tl.exit(root);
            Ok(TrialOut { report, hit, log: tl, counts: tc })
        },
        |job, seed, out| {
            if out.hit {
                stats.count_hit(cache::STATIC_NS);
            } else {
                stats.count_executed(cache::STATIC_NS);
                if let Some(cell) = &store_cell {
                    let value =
                        log.time("fleet.cache.encode", || cache::report_to_value(&out.report));
                    pending.push((cache::trial_key(&job_keys[job], seed), value));
                    if pending.len() >= STORE_FLUSH_BATCH {
                        let chunk = std::mem::take(&mut pending);
                        let mut guard = cell.write().expect("store lock poisoned");
                        let added = log.time("store.append", || guard.append(chunk))?;
                        counts.store_appended += added;
                        stats.count_stored(cache::STATIC_NS, added);
                    }
                }
            }
            aggregates[job].push(&out.report);
            counts.add(&out.counts);
            log.adopt(out.log);
            Ok(())
        },
    )?;
    if let Some(cell) = store_cell {
        let store = cell.into_inner().expect("store lock poisoned");
        let added = log.time("store.append", || store.append(pending))?;
        counts.store_appended += added;
        counts.store_bytes += dir_bytes(store.dir());
    }
    log.exit(plan_span);
    let output =
        FleetOutput { aggregates, total_trials: done, cache: stats, elapsed: Duration::ZERO };
    Ok(serde_json::to_string(&output.report(plan)).expect("report serializes"))
}

/// Traced mirror of `run_dynamic_plan(plan, threads)` for incremental
/// repair jobs: returns the serialized [`DynamicFleetOutput::report`].
///
/// # Errors
///
/// The first failing trial's error.
pub fn dynamic_plan(
    plan: &DynamicPlan,
    threads: usize,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Result<String, FleetError> {
    for job in &plan.jobs {
        assert_eq!(job.strategy, RepairStrategy::Incremental, "only incremental jobs are mirrored");
    }
    let trial_counts: Vec<usize> = plan.jobs.iter().map(|j| j.trials).collect();
    let epoch = log.epoch();
    let plan_span = log.enter("plan", "dynamic");
    let mut aggregates: Vec<DynamicJobAggregate> =
        plan.jobs.iter().map(|_| DynamicJobAggregate::new()).collect();
    let done = sharded(
        &trial_counts,
        plan.base_seed,
        threads,
        |job, _, trial_seed| {
            let mut tl = SpanLog::new(epoch);
            let mut tc = Counts::default();
            let root = tl.enter("trial", "");
            let report = incremental_trial(plan, job, trial_seed, &mut tl, &mut tc)?;
            tl.exit(root);
            Ok((report, tl, tc))
        },
        |job, _, (report, tl, tc)| {
            aggregates[job].push(&report);
            counts.add(&tc);
            log.adopt(tl);
            Ok(())
        },
    )?;
    log.exit(plan_span);
    let output = DynamicFleetOutput {
        aggregates,
        total_trials: done,
        cache: CacheStats::default(),
        elapsed: Duration::ZERO,
    };
    Ok(serde_json::to_string(&output.report(plan)).expect("report serializes"))
}

/// Mirror of `measure_dynamic` under [`RepairStrategy::Incremental`].
fn incremental_trial(
    plan: &DynamicPlan,
    job: usize,
    trial_seed: u64,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Result<DynamicReport, FleetError> {
    let spec = &plan.jobs[job];
    let (algo, execution) = (spec.algo, spec.execution);
    let mut graph = log.time("graph.gen", || spec.workload.initial_instance(trial_seed))?;
    counts.gen_edges += graph.m() as u64;
    let (mut in_mis, summary, timeouts) =
        run_algo(&graph, algo, seed::phase_seed(trial_seed, 0), execution, log, counts)?;
    let n = graph.n();
    let mut phases =
        vec![phase_report(0, &graph, algo, &in_mis, summary, timeouts, n, 0, vec![], log, counts)];
    for phase in 1..spec.workload.phases {
        let events = log.time("fleet.dynamic.churn", || {
            spec.workload.churn_batch(&graph, trial_seed, phase, Some(&in_mis)).map(|d| d.events())
        })?;
        let phase_seed = seed::phase_seed(trial_seed, phase as u64);
        let mut repairer = log
            .time("fleet.dynamic.new", || IncrementalRepairer::new(graph, in_mis, algo, execution));
        let mut updates: Vec<UpdateRecord> = Vec::with_capacity(events.len());
        for (k, event) in events.into_iter().enumerate() {
            let update_seed = seed::update_seed(phase_seed, k as u64);
            let record =
                log.time("fleet.dynamic.absorb", || repairer.absorb(event, update_seed))?;
            counts.events += 1;
            counts.zero_scope += u64::from(record.scope == 0);
            updates.push(record);
        }
        let done = log.time("fleet.dynamic.finish", || repairer.finish());
        graph = done.graph;
        phases.push(phase_report(
            phase,
            &graph,
            algo,
            &done.set,
            done.summary,
            done.base_timeouts,
            done.scope,
            done.carried,
            updates,
            log,
            counts,
        ));
        in_mis = done.set;
    }
    Ok(DynamicReport { phases })
}

/// Mirror of the fleet's per-algorithm dispatch: the executor for the
/// paper's algorithms under [`Execution::Auto`], the engine otherwise.
fn run_algo(
    graph: &Graph,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> Result<(Vec<bool>, ComplexitySummary, usize), FleetError> {
    let config = if algo == AlgoKind::SleepingMis { MisConfig::alg1 } else { MisConfig::alg2 };
    match (algo, execution) {
        (AlgoKind::Baseline(kind), _) => {
            let run = log.time_tagged("net.run", algo_tag(algo), || {
                run_baseline(graph, kind, seed, &EngineConfig::default())
            })?;
            Ok((run.in_mis, engine_counts(&run.metrics, counts), 0))
        }
        (_, Execution::Auto) => {
            let out = log.time("core.exec", || execute_sleeping_mis(graph, config(seed)))?;
            counts.exec_nodes += graph.n() as u64;
            let timeouts = out.base_timeout.iter().filter(|&&t| t).count();
            Ok((out.in_mis.clone(), out.summary(), timeouts))
        }
        (_, Execution::ForceEngine) => {
            let run = log.time_tagged("net.run", algo_tag(algo), || {
                run_sleeping_mis(graph, config(seed), &EngineConfig::default())
            })?;
            let summary = engine_counts(&run.metrics, counts);
            Ok((run.in_mis, summary, run.base_timeouts.len()))
        }
    }
}

/// The CLI name of an algorithm, used as the engine span's tag.
pub fn algo_tag(algo: AlgoKind) -> &'static str {
    use sleepy_baselines::BaselineKind;
    match algo {
        AlgoKind::SleepingMis => "alg1",
        AlgoKind::FastSleepingMis => "alg2",
        AlgoKind::Baseline(BaselineKind::LubyA) => "luby-a",
        AlgoKind::Baseline(BaselineKind::LubyB) => "luby-b",
        AlgoKind::Baseline(BaselineKind::GreedyCrt) => "greedy",
        AlgoKind::Baseline(BaselineKind::Ghaffari) => "ghaffari",
    }
}

/// Counts one engine run's work and returns its summary.
fn engine_counts(metrics: &RunMetrics, counts: &mut Counts) -> ComplexitySummary {
    let summary = metrics.summary();
    counts.net_messages += summary.total_messages;
    counts.net_delivered +=
        summary.total_messages - summary.dropped_messages - summary.lost_messages;
    counts.net_active_rounds += metrics.active_rounds;
    counts.net_awake_node_rounds += metrics.per_node.iter().map(|m| m.awake_rounds).sum::<u64>();
    summary
}

/// `verify_mis`, traced and counted.
fn verify(graph: &Graph, set: &[bool], log: &mut SpanLog, counts: &mut Counts) -> bool {
    let valid = log.time("verify", || verify_mis(graph, set).is_ok());
    counts.verified += 1;
    counts.invalid += u64::from(!valid);
    counts.verify_edges += graph.m() as u64;
    valid
}

/// Mirror of `measure_once`'s report assembly.
fn report_of(
    graph: &Graph,
    algo: AlgoKind,
    set: &[bool],
    summary: ComplexitySummary,
    valid: bool,
    base_timeouts: usize,
) -> ComplexityReport {
    ComplexityReport {
        algo: algo.to_string(),
        n: graph.n(),
        summary,
        mis_size: set.iter().filter(|&&b| b).count(),
        valid,
        base_timeouts,
    }
}

/// Mirror of the fleet's per-phase report assembly (verifies the phase).
#[allow(clippy::too_many_arguments)]
fn phase_report(
    phase: usize,
    graph: &Graph,
    algo: AlgoKind,
    set: &[bool],
    summary: ComplexitySummary,
    base_timeouts: usize,
    repair_scope: usize,
    carried: usize,
    updates: Vec<UpdateRecord>,
    log: &mut SpanLog,
    counts: &mut Counts,
) -> PhaseReport {
    let valid = verify(graph, set, log, counts);
    PhaseReport {
        phase,
        report: report_of(graph, algo, set, summary, valid, base_timeouts),
        m: graph.m(),
        repair_scope,
        carried,
        updates,
    }
}
