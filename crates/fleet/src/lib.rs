//! # sleepy-fleet
//!
//! The parallel batch-execution runtime for large-scale sleeping-model
//! experiments. Validating the paper's headline claim — O(1) *expected*
//! node-averaged awake complexity — is a statement about distributions,
//! so it takes thousands of trials across many graph families and sizes.
//! This crate turns that into a declarative, deterministic, parallel
//! pipeline:
//!
//! * [`JobSpec`] / [`TrialPlan`] — a declarative description of a batch:
//!   algorithm × workload × trial count. Per-trial seeds come from a
//!   SplitMix64 [`SeedStream`], so trial `t` of job `j` sees the same
//!   randomness regardless of how trials are scheduled onto threads.
//! * [`run_plan`] — a work-stealing thread-pool executor. Trials are
//!   grouped into fixed shards claimed dynamically by workers, at most
//!   two shards per thread ahead of an in-order collector that pushes
//!   every trial into its job's aggregate in global trial order, making
//!   every output **byte-identical across thread counts**.
//! * [`JobAggregate`] — push-only streaming aggregates
//!   (count/mean/M2/min/max plus exact p50/p99) per metric, built on
//!   [`sleepy_stats::StreamingMoments`].
//! * [`sink`] — result sinks: a JSONL per-trial log and aggregate
//!   JSON/CSV writers, all emitting in deterministic trial order.
//! * [`DynamicWorkload`] / [`DynamicPlan`] / [`run_dynamic_plan`] — the
//!   dynamic-workload subsystem: graphs that mutate between phases
//!   (seeded node churn and edge flips via
//!   [`sleepy_graph::churn_delta`], uniformly sampled or
//!   adversarially aimed at the current MIS via
//!   [`sleepy_graph::ChurnModel`]), with per-phase MIS recomputation,
//!   restricted-neighborhood batched *repair*, or per-event
//!   *incremental* repair ([`RepairStrategy`], [`IncrementalRepairer`])
//!   that restores validity after every single update and records its
//!   amortized per-update awake cost ([`UpdateRecord`],
//!   [`sleepy_stats::UpdateSeries`]). Per-phase validity re-checking
//!   and aggregation throughout; a static [`Workload`] is the
//!   degenerate 1-phase case.
//! * [`run_plan_cached`] / [`run_dynamic_plan_cached`] / [`cache`] —
//!   the persistent result cache: every static trial is
//!   content-addressed by `(job key, trial seed)` and every dynamic
//!   trial by one record per `(job key, trial seed, phase)` in a
//!   [`sleepy_store::Store`] (namespaced `s/` vs `d/`, so one store
//!   serves both); warm reruns serve hits instead of executing and
//!   stay byte-identical to cold runs.
//! * [`procs`] / [`run_plan_sharded_procs`] — multi-process sharding:
//!   a plan splits into contiguous per-process trial ranges
//!   ([`shard_bounds`]), worker processes fill per-shard stores, and
//!   the coordinator merges the stores and replays the plan warm —
//!   recovering aggregates byte-identical to a single-process run.
//! * a `fleet` CLI binary with progress reporting and `worker` /
//!   `merge` / `gc` subcommands (see `--help`).
//! * telemetry throughout (via [`sleepy_telemetry`]): pool scheduling,
//!   trial execution, store I/O, worker supervision, and dynamic
//!   repair all emit spans and counters. Strictly side-channel — see
//!   `docs/observability.md`; `--trace-out` exports a Chrome trace.
//!
//! The experiment harness (`sleepy-harness`) expresses all its trial
//! loops as plans submitted here; [`deterministic_map`] is the shared
//! low-level primitive for experiments whose trial bodies don't fit the
//! declarative form.
//!
//! ## Example
//!
//! ```
//! use sleepy_fleet::{run_plan, AlgoKind, Execution, FleetConfig, TrialPlan};
//! use sleepy_graph::GraphFamily;
//!
//! let plan = TrialPlan::sweep(
//!     &[GraphFamily::Cycle],
//!     &[32],
//!     &[AlgoKind::SleepingMis],
//!     3,          // trials per job
//!     7,          // base seed
//!     Execution::Auto,
//! );
//! let out = run_plan(&plan, &FleetConfig::with_threads(2))?;
//! assert_eq!(out.total_trials, 3);
//! assert_eq!(out.aggregates[0].valid_fraction(), 1.0);
//! # Ok::<(), sleepy_fleet::FleetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod cache;
pub mod chaos;
mod error;
mod measure;
pub mod planio;
pub mod pool;
pub mod procs;
pub mod run;
pub mod scope;
pub mod seed;
pub mod sink;
mod spec;
pub mod tape;
mod workload;

pub use agg::{DynamicJobAggregate, JobAggregate, MetricAggregate, MetricStats};
pub use cache::{CacheStats, NamespaceStats};
pub use error::{FleetError, WorkerStatus};
pub use measure::{
    measure_dynamic, measure_once, AlgoKind, ComplexityReport, DynamicReport, Execution,
    IncrementalPhase, IncrementalRepairer, PhaseReport, RebuildRepairer, RepairStrategy,
    UpdateKind, UpdateRecord, ALL_ALGOS, ALL_STRATEGIES, SLEEPING_ALGOS,
};
pub use planio::{plan_from_json, plan_to_json};
pub use pool::deterministic_map;
pub use procs::{
    run_plan_sharded_procs, run_plan_sharded_procs_supervised, ProcsConfig, SupervisionReport,
    WorkerFailure,
};
pub use run::{
    run_dynamic_plan, run_dynamic_plan_cached, run_dynamic_plan_with_sinks, run_plan,
    run_plan_cached, run_plan_shard, run_plan_with_sinks, shard_bounds, DynamicFleetOutput,
    DynamicFleetReport, DynamicJobReport, FleetConfig, FleetOutput, FleetReport, PhaseJobReport,
    UpdateStats, STORE_FLUSH_BATCH,
};
pub use scope::{
    record_round_series, write_protocol_trace, write_round_timeline, RecordedTrial, MAX_TRACK_NODES,
};
pub use seed::{splitmix64, SeedStream};
pub use spec::{DynamicJobSpec, DynamicPlan, JobSpec, TrialPlan};
pub use workload::{standard_families, DynamicWorkload, Workload};
