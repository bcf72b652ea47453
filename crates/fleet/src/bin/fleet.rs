//! The `fleet` CLI: run a declarative sweep of sleeping-model trials in
//! parallel with deterministic output.
//!
//! ```text
//! fleet --families gnp8,geo8,tree --sizes 256,512 --algos all \
//!       --trials 30 --threads 8 --out results/fleet
//! ```

#![forbid(unsafe_code)]

use sleepy_baselines::BaselineKind;
use sleepy_fleet::outln;
use sleepy_fleet::procs::read_plan_file;
use sleepy_fleet::sink::{
    write_aggregate_csv, write_aggregate_json, write_dynamic_aggregate_json, JsonlSink,
    PhaseJsonlSink,
};
use sleepy_fleet::{
    plan_to_json, run_dynamic_plan_cached, run_plan_cached, run_plan_shard, standard_families,
    AlgoKind, CacheStats, DynamicPlan, Execution, FleetConfig, FleetReport, RepairStrategy,
    TrialPlan, ALL_ALGOS, ALL_STRATEGIES, SLEEPING_ALGOS,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy_stats::TextTable;
use sleepy_store::Store;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "fleet — parallel batch execution of sleeping-model experiments

USAGE:
    fleet [OPTIONS]                 run a sweep (optionally cached)
    fleet worker [WORKER OPTIONS]   run one multi-process shard of a plan
    fleet merge  [MERGE OPTIONS]    merge shard stores + recover aggregates
    fleet gc     [GC OPTIONS]       expire and compact a result store
    fleet record-tape [TAPE OPTIONS]
                                    run one algorithm and write the engine
                                    input/output exchange as a versioned
                                    JSONL conformance tape
    fleet replay FILE... [--threads N]
                                    re-run committed tapes through the
                                    sans-io engine and fail on any
                                    divergence from the recorded outputs
    fleet trace-check FILE          validate a Chrome trace written by
                                    --trace-out (format, ts order, B/E pairs)
    fleet chaos [CHAOS OPTIONS]     seeded fault-injection matrix: kill and
                                    wedge real worker processes, corrupt the
                                    store on disk, fault the network — and
                                    fail unless every recovery is
                                    byte-identical to a fault-free oracle
    fleet lint [LINT OPTIONS]       determinism-zone static analysis of the
                                    workspace source (see `fleet lint --help`)

OPTIONS:
    --families LIST   comma-separated graph families (default: the standard
                      six-family suite). Names: gnp<d> (G(n,p), avg degree d),
                      gnplog<c>, regular<d>, geo<d>, ba<m>, tree, cycle, path,
                      star, clique, grid2d, hypercube
    --sizes LIST      comma-separated node counts (default: 256,512)
    --algos LIST      all | sleeping | comma-separated names among
                      alg1,alg2,luby-a,luby-b,greedy,ghaffari (default: all)
    --trials N        trials per (family, size, algorithm) job (default: 25)
    --seed S          base seed (default: 0x51EE9)
    --threads N       worker threads, 0 = all cores (default: 0)
    --shard-size N    trials per work-stealing shard (default: 16)
    --engine          force the message-passing engine for all algorithms
    --out DIR         write trials.jsonl, aggregates.json, aggregates.csv
                      (dynamic runs: phases.jsonl, dynamic_aggregates.json;
                      cached runs: also cache_stats.json)
    --store DIR       persistent result cache: serve already-computed
                      trials from DIR and record fresh ones into it.
                      Works for static AND --dynamic runs (records are
                      namespaced, so one directory serves both)
    --no-cache        with --store: re-execute everything (still records)
    --emit-plan FILE  write the exact plan as JSON (for `worker`/`merge`)
    --trace-out FILE  record every span and export a Chrome trace-event
                      file (open it in Perfetto or chrome://tracing).
                      Without it telemetry keeps aggregates only
    --round-timeline  with --out: after the measured run, replay every
                      trial through the protocol flight recorder and
                      write round_timeline.jsonl — one JSON object per
                      active round per trial (awake/sent/lost/decided/
                      slept counts), cross-checked against the trial's
                      own complexity accounting. Static runs only
    --protocol-trace FILE
                      replay trial 0 of every job with the full
                      protocol recorder and export a Chrome trace of
                      per-node awake spans plus per-round awake/sent
                      counters (static runs only; distinct from
                      --trace-out, which traces host wall-clock)
    --no-progress     suppress the stderr progress line and the
                      end-of-run telemetry table
    --dry-run         print the job list and exit
    --help            this text

Telemetry is side-channel only: trials.jsonl/phases.jsonl, aggregates,
and store records are byte-identical with or without --trace-out. With
--out, a run_metrics.json (counters, gauges, span aggregates) lands
next to the aggregates. The protocol recorder is likewise a pure side
channel: --round-timeline / --protocol-trace re-run the engine after
the measured run and never touch the measured artifacts, and
round_timeline.jsonl itself is byte-identical across --threads.

WORKER OPTIONS (run by the multi-process coordinator, or by hand):
    --plan FILE       plan.json written by --emit-plan (required)
    --shard K/N       this worker's contiguous trial range (required)
    --store DIR       this worker's result store (required)
    --trace-out FILE  write this worker's Chrome trace
    --threads/--shard-size/--no-progress as above
    --chaos-kill FILE   test-only: on the first attempt (FILE absent;
                      it is created as a marker) run only the first
                      half of the shard, then exit 17. With FILE
                      present, run normally — so the supervisor's
                      retry completes the shard
    --chaos-wedge FILE  test-only: on the first attempt hang forever
                      (exercises the supervisor's wait-timeout kill)

MERGE OPTIONS:
    --plan FILE       the plan the shards ran (required)
    --from DIRS       comma-separated shard store directories (required)
    --store DIR       merged store to create/extend (required)
    --out DIR         write aggregates.json/csv + cache_stats.json
    --trace-out FILE  write the merge+replay Chrome trace
    --trace-from LIST comma-separated worker trace files to merge onto
                      the same timeline (needs --trace-out; workers keep
                      their own pid/tid rows)
    --threads/--shard-size/--no-progress as above

GC OPTIONS:
    --store DIR       the store to compact (required)
    --ttl-secs N      drop entries older than N seconds (default: keep
                      everything, compact segments only)

CHAOS OPTIONS:
    --dir DIR         scratch directory for the matrix (default: a
                      fresh directory under the system temp dir)
    --seed S          master seed for plan, faults, and tapes
                      (default: 0xC4A05)
    --n N             node count of the matrix workloads (default: 48)
    --trials N        trials per job (default: 4)
    --procs N         worker processes for the supervision legs
                      (default: 3)
    --threads N       worker threads for in-process legs (default: 0)
    --smoke           CI shape: n=32, 2 trials, 2 procs, 1 thread,
                      2s wedge timeout

  Legs: worker-kill (child dies with exit 17 mid-shard; supervisor
  retries with backoff), worker-wedge (child hangs; wait timeout kills
  it), store-truncate / store-bitflip / store-manifest (on-disk
  corruption; quarantine + warm replay), engine-burst / engine-crash
  (fault plans recorded twice must be byte-identical tapes that
  replay). Exit status is nonzero unless every leg passes.

RECORD-TAPE OPTIONS:
    --algo NAME       one of alg1,alg2,luby-a,luby-b,greedy,ghaffari
                      (required)
    --family NAME     graph family as in --families (default: star)
    --n N             node count (default: 16)
    --seed S          trial seed: graph instance + algorithm coins
                      (default: 1)
    --loss P          i.i.d. message-loss probability (default: 0)
    --loss-seed S     loss-process seed (default: 0)
    --fault-burst E,X,G,B
                      Gilbert–Elliott burst loss: enter/exit
                      probabilities E and X, loss probability G in the
                      good state and B in the bad state
    --fault-seed S    seed of the burst-loss process (default: 0)
    --fault-crash NODE:START:END[,...]
                      crash windows: NODE is silent (sends and receives
                      nothing) for rounds [START, END)
    --fault-partition U-V:START:END[,...]
                      link partitions: edge {U,V} drops everything for
                      rounds [START, END)
    --max-rounds R    engine round cap; exceeding it records the error
                      in the tape (still a valid conformance artifact)
    --out FILE        tape path (default: tape_<algo>_n<N>_s<SEED>.jsonl)

  A nonzero --loss, --fault-burst, --fault-crash and --fault-partition
  are mutually exclusive, and every component of a spec must parse.

  Replay needs no protocol code and no RNG: the tape carries the graph,
  the engine config and the full input stream, and pins the output
  stream by count + FNV-1a digest. `fleet replay` output is
  byte-identical regardless of --threads.

DYNAMIC (churn) WORKLOADS:
    --dynamic         run a dynamic plan: each trial's graph mutates
                      between phases and the MIS is recomputed or
                      repaired per phase
    --phases N        phases per trial, incl. the initial one (default 4)
    --edge-churn F    fraction of edges deleted AND inserted per phase
                      (default 0.05)
    --node-churn F    fraction of nodes departing AND arriving per phase
                      (default 0.02)
    --arrival-degree D  attachment edges per arriving node (default 3)
    --repair MODE     recompute | repair | incremental | both | all
                      (default both = recompute+repair; incremental
                      absorbs churn one update event at a time and
                      reports amortized per-update awake cost)
    --churn-model M   uniform | adversarial (default uniform); the
                      adversary aims deletions at current MIS members

Output is byte-identical for a fixed plan regardless of --threads and
--shard-size.";

fn parse_family(name: &str) -> Result<GraphFamily, String> {
    let tail = |prefix: &str| name[prefix.len()..].to_string();
    let num = |s: &str, what: &str| {
        s.parse::<f64>().map_err(|_| format!("bad {what} in family `{name}`"))
    };
    let int = |s: &str, what: &str| {
        s.parse::<usize>().map_err(|_| format!("bad {what} in family `{name}`"))
    };
    match name {
        "tree" => Ok(GraphFamily::Tree),
        "cycle" => Ok(GraphFamily::Cycle),
        "path" => Ok(GraphFamily::Path),
        "star" => Ok(GraphFamily::Star),
        "clique" => Ok(GraphFamily::Clique),
        "grid2d" => Ok(GraphFamily::Grid2d),
        "hypercube" => Ok(GraphFamily::Hypercube),
        _ if name.starts_with("gnplog") => {
            Ok(GraphFamily::GnpLogDensity(num(&tail("gnplog"), "density")?))
        }
        _ if name.starts_with("gnp") => Ok(GraphFamily::GnpAvgDeg(num(&tail("gnp"), "degree")?)),
        _ if name.starts_with("regular") => {
            Ok(GraphFamily::RandomRegular(int(&tail("regular"), "degree")?))
        }
        _ if name.starts_with("geo") => {
            Ok(GraphFamily::GeometricAvgDeg(num(&tail("geo"), "degree")?))
        }
        _ if name.starts_with("ba") => Ok(GraphFamily::BarabasiAlbert(int(&tail("ba"), "edges")?)),
        _ => Err(format!("unknown graph family `{name}` (try --help)")),
    }
}

fn parse_algos(spec: &str) -> Result<Vec<AlgoKind>, String> {
    match spec {
        "all" => Ok(ALL_ALGOS.to_vec()),
        "sleeping" => Ok(SLEEPING_ALGOS.to_vec()),
        _ => spec
            .split(',')
            .map(|name| match name {
                "alg1" | "sleeping-mis" => Ok(AlgoKind::SleepingMis),
                "alg2" | "fast-sleeping-mis" => Ok(AlgoKind::FastSleepingMis),
                "luby-a" => Ok(AlgoKind::Baseline(BaselineKind::LubyA)),
                "luby-b" => Ok(AlgoKind::Baseline(BaselineKind::LubyB)),
                "greedy" => Ok(AlgoKind::Baseline(BaselineKind::GreedyCrt)),
                "ghaffari" => Ok(AlgoKind::Baseline(BaselineKind::Ghaffari)),
                other => Err(format!("unknown algorithm `{other}` (try --help)")),
            })
            .collect(),
    }
}

struct Args {
    families: Vec<GraphFamily>,
    sizes: Vec<usize>,
    algos: Vec<AlgoKind>,
    trials: usize,
    seed: u64,
    threads: usize,
    shard_size: usize,
    execution: Execution,
    out: Option<PathBuf>,
    store: Option<PathBuf>,
    no_cache: bool,
    emit_plan: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    round_timeline: bool,
    protocol_trace: Option<PathBuf>,
    progress: bool,
    dry_run: bool,
    dynamic: bool,
    phases: usize,
    edge_churn: f64,
    node_churn: f64,
    arrival_degree: usize,
    churn_model: ChurnModel,
    strategies: Vec<RepairStrategy>,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        families: standard_families(),
        sizes: vec![256, 512],
        algos: ALL_ALGOS.to_vec(),
        trials: 25,
        seed: 0x51EE9,
        threads: 0,
        shard_size: 16,
        execution: Execution::Auto,
        out: None,
        store: None,
        no_cache: false,
        emit_plan: None,
        trace_out: None,
        round_timeline: false,
        protocol_trace: None,
        progress: true,
        dry_run: false,
        dynamic: false,
        phases: 4,
        edge_churn: 0.05,
        node_churn: 0.02,
        arrival_degree: 3,
        churn_model: ChurnModel::Uniform,
        strategies: vec![RepairStrategy::Recompute, RepairStrategy::Repair],
    };
    let mut churn_flags: Vec<&str> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--help" | "-h" => {
                outln!("{USAGE}");
                return Ok(None);
            }
            "--families" => {
                args.families =
                    value("--families")?.split(',').map(parse_family).collect::<Result<_, _>>()?;
            }
            "--sizes" => {
                args.sizes = value("--sizes")?
                    .split(',')
                    .map(|s| s.parse::<usize>().map_err(|_| format!("bad size `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--algos" => args.algos = parse_algos(&value("--algos")?)?,
            "--trials" => {
                args.trials =
                    value("--trials")?.parse().map_err(|_| "bad --trials value".to_string())?;
            }
            "--seed" => {
                let v = value("--seed")?;
                args.seed = parse_u64_maybe_hex(&v).ok_or(format!("bad --seed `{v}`"))?;
            }
            "--threads" => {
                args.threads =
                    value("--threads")?.parse().map_err(|_| "bad --threads value".to_string())?;
            }
            "--shard-size" => {
                args.shard_size = value("--shard-size")?
                    .parse()
                    .map_err(|_| "bad --shard-size value".to_string())?;
            }
            "--engine" => args.execution = Execution::ForceEngine,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--store" => args.store = Some(PathBuf::from(value("--store")?)),
            "--no-cache" => args.no_cache = true,
            "--emit-plan" => args.emit_plan = Some(PathBuf::from(value("--emit-plan")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--round-timeline" => args.round_timeline = true,
            "--protocol-trace" => {
                args.protocol_trace = Some(PathBuf::from(value("--protocol-trace")?));
            }
            "--no-progress" => args.progress = false,
            "--dry-run" => args.dry_run = true,
            "--dynamic" => args.dynamic = true,
            "--phases" => {
                churn_flags.push("--phases");
                args.phases =
                    value("--phases")?.parse().map_err(|_| "bad --phases value".to_string())?;
                if args.phases == 0 {
                    return Err("--phases must be >= 1".to_string());
                }
            }
            "--edge-churn" => {
                churn_flags.push("--edge-churn");
                args.edge_churn = value("--edge-churn")?
                    .parse()
                    .map_err(|_| "bad --edge-churn value".to_string())?;
            }
            "--node-churn" => {
                churn_flags.push("--node-churn");
                args.node_churn = value("--node-churn")?
                    .parse()
                    .map_err(|_| "bad --node-churn value".to_string())?;
            }
            "--arrival-degree" => {
                churn_flags.push("--arrival-degree");
                args.arrival_degree = value("--arrival-degree")?
                    .parse()
                    .map_err(|_| "bad --arrival-degree value".to_string())?;
            }
            "--repair" => {
                churn_flags.push("--repair");
                args.strategies = match value("--repair")?.as_str() {
                    "recompute" => vec![RepairStrategy::Recompute],
                    "repair" => vec![RepairStrategy::Repair],
                    "incremental" => vec![RepairStrategy::Incremental],
                    "both" => vec![RepairStrategy::Recompute, RepairStrategy::Repair],
                    "all" => ALL_STRATEGIES.to_vec(),
                    other => return Err(format!("unknown repair mode `{other}` (try --help)")),
                };
            }
            "--churn-model" => {
                churn_flags.push("--churn-model");
                args.churn_model = match value("--churn-model")?.as_str() {
                    "uniform" => ChurnModel::Uniform,
                    "adversarial" => ChurnModel::Adversarial,
                    other => return Err(format!("unknown churn model `{other}` (try --help)")),
                };
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !args.dynamic && !churn_flags.is_empty() {
        return Err(format!(
            "{} only make sense with --dynamic (did you forget it?)",
            churn_flags.join(", ")
        ));
    }
    if args.no_cache && args.store.is_none() {
        return Err("--no-cache only makes sense with --store".to_string());
    }
    if args.dynamic && (args.round_timeline || args.protocol_trace.is_some()) {
        return Err("--round-timeline/--protocol-trace record static protocol runs, not --dynamic"
            .to_string());
    }
    if args.round_timeline && args.out.is_none() {
        return Err(
            "--round-timeline needs --out (it writes round_timeline.jsonl there)".to_string()
        );
    }
    Ok(Some(args))
}

fn parse_u64_maybe_hex(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn main() -> ExitCode {
    // Subcommands take over before flag parsing.
    match std::env::args().nth(1).as_deref() {
        Some("worker") => return run_worker(),
        Some("merge") => return run_merge(),
        Some("gc") => return run_gc(),
        Some("record-tape") => return run_record_tape(),
        Some("replay") => return run_replay(),
        Some("chaos") => return run_chaos(),
        Some("trace-check") => return run_trace_check(),
        Some("lint") => {
            let args: Vec<String> = std::env::args().skip(2).collect();
            let code = sleepy_lint::run_cli(&args);
            return ExitCode::from(u8::try_from(code).unwrap_or(2));
        }
        _ => {}
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("fleet: {msg}");
            return ExitCode::FAILURE;
        }
    };
    set_telemetry_mode(args.trace_out.is_some());
    if args.dynamic {
        run_dynamic(&args)
    } else {
        run_static(&args)
    }
}

/// Arms telemetry for a run: full event retention when a trace file was
/// requested, bounded aggregates otherwise. (Only sweeps, `worker` and
/// `merge` arm it; the other subcommands leave telemetry off.)
fn set_telemetry_mode(trace: bool) {
    sleepy_telemetry::set_mode(if trace {
        sleepy_telemetry::Mode::Trace
    } else {
        sleepy_telemetry::Mode::Metrics
    });
}

/// One code path for the end-of-run stderr line (all subcommands) —
/// replaces the per-path ad-hoc `Instant`/`eprintln!` stopwatches.
fn print_run_line(
    what: &str,
    elapsed: std::time::Duration,
    threads: usize,
    cache: Option<&CacheStats>,
) {
    eprintln!("fleet: {what} in {elapsed:.2?} ({threads} threads)");
    if let Some(c) = cache {
        eprintln!(
            "fleet: cache {} hits / {} executed ({:.1}% hit rate), {} stored \
             [s/ {}h {}e, d/ {}h {}e]",
            c.hits,
            c.executed,
            100.0 * c.hit_rate(),
            c.stored,
            c.static_ns.hits,
            c.static_ns.executed,
            c.dynamic_ns.hits,
            c.dynamic_ns.executed,
        );
    }
}

/// Drains the telemetry registry and emits every requested view of it:
/// the stderr summary table (unless `quiet`), `run_metrics.json` under
/// `out_dir`, and a Chrome trace at `trace_out`.
fn finish_telemetry(
    out_dir: Option<&Path>,
    trace_out: Option<&Path>,
    process_name: &str,
    quiet: bool,
) -> Result<(), String> {
    if !sleepy_telemetry::enabled() {
        return Ok(());
    }
    let snap = sleepy_telemetry::snapshot_and_reset();
    if !quiet {
        let summary = snap.render_summary();
        if !summary.is_empty() {
            eprint!("{summary}");
        }
    }
    if let Some(dir) = out_dir {
        let text =
            serde_json::to_string_pretty(&snap.run_metrics_value()).expect("metrics serialize");
        let path = dir.join("run_metrics.json");
        std::fs::write(&path, format!("{text}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("fleet: wrote {}", path.display());
    }
    if let Some(path) = trace_out {
        snap.write_chrome_trace(path, process_name)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("fleet: wrote trace {}", path.display());
    }
    Ok(())
}

/// `fleet trace-check`: validate a Chrome trace-event file written by
/// `--trace-out` (or any B/E/M trace) and summarize what it holds.
fn run_trace_check() -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    for arg in std::env::args().skip(2) {
        match arg.as_str() {
            "--help" | "-h" => {
                outln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') => {
                return fail(format!("unknown `fleet trace-check` flag `{other}` (try --help)"));
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        return fail("trace-check needs at least one FILE (try --help)");
    }
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => return fail(format!("cannot read {}: {e}", path.display())),
        };
        match sleepy_telemetry::validate_trace(&text) {
            Ok(check) => outln!(
                "{}: OK — {} events, {} spans, {} counters, {} timelines, categories [{}]",
                path.display(),
                check.events,
                check.spans,
                check.counters,
                check.timelines,
                check.categories.join(", "),
            ),
            Err(e) => return fail(format!("{}: INVALID — {e}", path.display())),
        }
    }
    ExitCode::SUCCESS
}

/// Flags shared by the `worker` and `merge` subcommands.
#[derive(Debug, Default)]
struct SubArgs {
    plan: Option<PathBuf>,
    shard: Option<(usize, usize)>,
    store: Option<PathBuf>,
    from: Vec<PathBuf>,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    trace_from: Vec<PathBuf>,
    ttl_secs: Option<u64>,
    threads: usize,
    shard_size: usize,
    progress: bool,
    chaos_kill: Option<PathBuf>,
    chaos_wedge: Option<PathBuf>,
}

fn parse_sub_args(what: &str, allowed: &[&str]) -> Result<SubArgs, String> {
    let mut args = SubArgs { shard_size: 16, progress: true, ..SubArgs::default() };
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        // Reject flags the subcommand would silently ignore (e.g.
        // `fleet worker --out`: workers write no aggregates).
        if !matches!(flag.as_str(), "--help" | "-h") && !allowed.contains(&flag.as_str()) {
            return Err(format!("`{flag}` is not a `fleet {what}` flag (try --help)"));
        }
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--plan" => args.plan = Some(PathBuf::from(value("--plan")?)),
            "--shard" => {
                let v = value("--shard")?;
                let parts: Vec<&str> = v.split('/').collect();
                let parsed = if parts.len() == 2 {
                    parts[0].parse::<usize>().ok().zip(parts[1].parse::<usize>().ok())
                } else {
                    None
                };
                args.shard =
                    Some(parsed.ok_or_else(|| format!("bad --shard `{v}` (expected K/N)"))?);
            }
            "--store" => args.store = Some(PathBuf::from(value("--store")?)),
            "--from" => {
                args.from = value("--from")?.split(',').map(PathBuf::from).collect();
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--trace-from" => {
                args.trace_from = value("--trace-from")?.split(',').map(PathBuf::from).collect();
            }
            "--ttl-secs" => {
                args.ttl_secs =
                    Some(value("--ttl-secs")?.parse().map_err(|_| "bad --ttl-secs value")?);
            }
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|_| "bad --threads value")?;
            }
            "--shard-size" => {
                args.shard_size =
                    value("--shard-size")?.parse().map_err(|_| "bad --shard-size value")?;
            }
            "--no-progress" => args.progress = false,
            "--chaos-kill" => args.chaos_kill = Some(PathBuf::from(value("--chaos-kill")?)),
            "--chaos-wedge" => args.chaos_wedge = Some(PathBuf::from(value("--chaos-wedge")?)),
            "--help" | "-h" => {
                outln!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown `fleet {what}` flag `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("fleet: {msg}");
    ExitCode::FAILURE
}

/// `fleet worker`: execute one contiguous shard of a plan, recording
/// every result into this worker's store. The store *is* the output;
/// the coordinator (or `fleet merge`) recovers aggregates from it.
fn run_worker() -> ExitCode {
    let sub = match parse_sub_args(
        "worker",
        &[
            "--plan",
            "--shard",
            "--store",
            "--trace-out",
            "--threads",
            "--shard-size",
            "--no-progress",
            "--chaos-kill",
            "--chaos-wedge",
        ],
    ) {
        Ok(sub) => sub,
        Err(msg) => return fail(msg),
    };
    let (Some(plan_path), Some((index, count)), Some(store_dir)) =
        (&sub.plan, sub.shard, &sub.store)
    else {
        return fail("worker needs --plan, --shard and --store (try --help)");
    };
    // Test-only fault injection, driven by the supervisor's chaos
    // config. The marker file makes the fault fire exactly once: the
    // first attempt misbehaves, the retry runs the shard for real.
    let first_attempt = |marker: &std::path::Path| {
        if marker.exists() {
            false
        } else {
            if let Some(parent) = marker.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let _ = std::fs::write(marker, b"chaos\n");
            true
        }
    };
    if let Some(marker) = &sub.chaos_wedge {
        if first_attempt(marker) {
            eprintln!("fleet worker {index}/{count}: chaos wedge — hanging until killed");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
    let chaos_kill_now = sub.chaos_kill.as_deref().is_some_and(first_attempt);
    set_telemetry_mode(sub.trace_out.is_some());
    let plan = match read_plan_file(plan_path) {
        Ok(plan) => plan,
        Err(e) => return fail(e),
    };
    let mut store = match Store::open(store_dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    let config =
        FleetConfig { threads: sub.threads, shard_size: sub.shard_size, progress: sub.progress };
    if chaos_kill_now {
        // Execute exactly the first half of this worker's shard —
        // shard 2k/2N is a prefix of shard k/N — then die with a
        // nonzero exit so the supervisor classifies and retries. The
        // retry finds the half-filled store and completes the rest.
        let (index, count) = (2 * index, 2 * count);
        eprintln!("fleet worker: chaos kill — running half shard {index}/{count}, then exit 17");
        match run_plan_shard(&plan, &config, &mut [], Some(&mut store), index, count) {
            Ok(_) => std::process::exit(17),
            Err(e) => return fail(format!("chaos half-shard {index}/{count} failed: {e}")),
        }
    }
    match run_plan_shard(&plan, &config, &mut [], Some(&mut store), index, count) {
        Ok(out) => {
            eprintln!(
                "fleet worker {index}/{count}: {} trials ({} executed, {} cached, {} stored) \
                 in {:.2?}",
                out.total_trials, out.cache.executed, out.cache.hits, out.cache.stored, out.elapsed,
            );
            let name = format!("fleet-worker-{index}");
            if let Err(e) = finish_telemetry(None, sub.trace_out.as_deref(), &name, !sub.progress) {
                return fail(e);
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("worker {index}/{count} failed: {e}")),
    }
}

/// `fleet merge`: union shard stores into one store, then replay the
/// plan warm against it — recovering aggregates byte-identical to a
/// single-process run (missing trials simply execute during replay).
fn run_merge() -> ExitCode {
    let sub = match parse_sub_args(
        "merge",
        &[
            "--plan",
            "--from",
            "--store",
            "--out",
            "--trace-out",
            "--trace-from",
            "--threads",
            "--shard-size",
            "--no-progress",
        ],
    ) {
        Ok(sub) => sub,
        Err(msg) => return fail(msg),
    };
    let (Some(plan_path), Some(store_dir)) = (&sub.plan, &sub.store) else {
        return fail("merge needs --plan and --store (try --help)");
    };
    if sub.from.is_empty() {
        return fail("merge needs --from DIR1,DIR2,... (try --help)");
    }
    if !sub.trace_from.is_empty() && sub.trace_out.is_none() {
        return fail("--trace-from needs --trace-out (nowhere to put the merged trace)");
    }
    set_telemetry_mode(sub.trace_out.is_some());
    let plan = match read_plan_file(plan_path) {
        Ok(plan) => plan,
        Err(e) => return fail(e),
    };
    let mut merged = match Store::open(store_dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    for dir in &sub.from {
        let shard = match Store::open(dir) {
            Ok(store) => store,
            Err(e) => return fail(e),
        };
        match merged.merge_from(&shard) {
            Ok(added) => eprintln!(
                "fleet merge: {} entries from {} ({} new)",
                shard.len(),
                dir.display(),
                added
            ),
            Err(e) => return fail(e),
        }
    }
    let config =
        FleetConfig { threads: sub.threads, shard_size: sub.shard_size, progress: sub.progress };
    let out = match run_plan_cached(&plan, &config, &mut [], Some(&mut merged), true) {
        Ok(out) => out,
        Err(e) => return fail(format!("merge replay failed: {e}")),
    };
    let report = out.report(&plan);
    print_static_table(&report);
    print_run_line(
        &format!("merge replayed {} trials", out.total_trials),
        out.elapsed,
        sleepy_fleet::pool::resolve_threads(sub.threads),
        Some(&out.cache),
    );
    if let Some(dir) = &sub.out {
        if let Err(e) = write_static_outputs(dir, &report, Some(out.cache)) {
            return fail(format!("writing aggregates failed: {e}"));
        }
        eprintln!(
            "fleet merge: wrote {}/aggregates.json, aggregates.csv, cache_stats.json",
            dir.display()
        );
    }
    for path in &sub.trace_from {
        if let Err(e) = sleepy_telemetry::import_trace_file(path) {
            eprintln!("fleet: warning: trace not imported: {e}");
        }
    }
    if let Err(e) =
        finish_telemetry(sub.out.as_deref(), sub.trace_out.as_deref(), "fleet-merge", !sub.progress)
    {
        return fail(e);
    }
    ExitCode::SUCCESS
}

/// `fleet gc`: expire entries past their TTL and compact the store's
/// segments into one.
fn run_gc() -> ExitCode {
    let sub = match parse_sub_args("gc", &["--store", "--ttl-secs"]) {
        Ok(sub) => sub,
        Err(msg) => return fail(msg),
    };
    let Some(store_dir) = &sub.store else {
        return fail("gc needs --store (try --help)");
    };
    let mut store = match Store::open(store_dir) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    let expire_before = match sub.ttl_secs {
        Some(ttl) => {
            // sleepy-lint: allow(no-wall-clock): gc compares TTL *metadata* stamps
            // against the clock; entry payloads and keys are untouched, so byte
            // identity of surviving records is preserved (cache_semantics.rs).
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            now.saturating_sub(ttl)
        }
        None => 0,
    };
    match store.gc(expire_before) {
        Ok(gc) => {
            eprintln!(
                "fleet gc: kept {} entries, dropped {}, {} segments -> {}",
                gc.kept, gc.dropped, gc.segments_before, gc.segments_after,
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

/// `fleet record-tape`: run one algorithm on one workload instance and
/// write the engine exchange as a versioned JSONL conformance tape.
fn run_record_tape() -> ExitCode {
    let mut algo: Option<AlgoKind> = None;
    let mut family = GraphFamily::Star;
    let mut n = 16usize;
    let mut seed = 1u64;
    let mut config = sleepy_net::EngineConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut loss = 0.0f64;
    let mut iid_seed = 0u64;
    let mut fault_burst: Option<(f64, f64, f64, f64)> = None;
    let mut fault_seed = 0u64;
    let mut fault_crash: Vec<sleepy_net::CrashWindow> = Vec::new();
    let mut fault_partition: Vec<sleepy_net::LinkWindow> = Vec::new();
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let result = (|| -> Result<bool, String> {
            match flag.as_str() {
                "--help" | "-h" => {
                    outln!("{USAGE}");
                    return Ok(false);
                }
                "--algo" => {
                    let v = value("--algo")?;
                    let algos = parse_algos(&v)?;
                    let [one] = algos[..] else {
                        return Err("record-tape takes exactly one --algo".to_string());
                    };
                    algo = Some(one);
                }
                "--family" => family = parse_family(&value("--family")?)?,
                "--n" => n = value("--n")?.parse().map_err(|_| "bad --n value".to_string())?,
                "--seed" => {
                    let v = value("--seed")?;
                    seed = parse_u64_maybe_hex(&v).ok_or(format!("bad --seed `{v}`"))?;
                }
                "--loss" => {
                    loss = value("--loss")?.parse().map_err(|_| "bad --loss value".to_string())?;
                    if !(0.0..=1.0).contains(&loss) {
                        return Err("--loss must be in [0,1]".to_string());
                    }
                }
                "--loss-seed" => {
                    let v = value("--loss-seed")?;
                    iid_seed = parse_u64_maybe_hex(&v).ok_or(format!("bad --loss-seed `{v}`"))?;
                }
                "--max-rounds" => {
                    config.max_rounds = value("--max-rounds")?
                        .parse()
                        .map_err(|_| "bad --max-rounds value".to_string())?;
                }
                "--fault-burst" => {
                    let v = value("--fault-burst")?;
                    let bad = || format!("bad --fault-burst `{v}` (expected E,X,G,B)");
                    let parts = v
                        .split(',')
                        .map(|p| p.parse::<f64>().map_err(|_| bad()))
                        .collect::<Result<Vec<_>, _>>()?;
                    let [e, x, g, b] = parts[..] else { return Err(bad()) };
                    fault_burst = Some((e, x, g, b));
                }
                "--fault-seed" => {
                    let v = value("--fault-seed")?;
                    fault_seed =
                        parse_u64_maybe_hex(&v).ok_or(format!("bad --fault-seed `{v}`"))?;
                }
                "--fault-crash" => {
                    let v = value("--fault-crash")?;
                    for spec in v.split(',') {
                        let bad =
                            || format!("bad --fault-crash `{spec}` (expected NODE:START:END)");
                        let parts = spec
                            .split(':')
                            .map(|p| p.parse::<u64>().map_err(|_| bad()))
                            .collect::<Result<Vec<_>, _>>()?;
                        let [node, start, end] = parts[..] else { return Err(bad()) };
                        let node = u32::try_from(node).map_err(|_| bad())?;
                        fault_crash.push(sleepy_net::CrashWindow { node, start, end });
                    }
                }
                "--fault-partition" => {
                    let v = value("--fault-partition")?;
                    for spec in v.split(',') {
                        let bad =
                            || format!("bad --fault-partition `{spec}` (expected U-V:START:END)");
                        let parts: Vec<&str> = spec.split(':').collect();
                        let [edge, start, end] = parts[..] else { return Err(bad()) };
                        let (u, v2) = edge.split_once('-').ok_or_else(bad)?;
                        let a: u32 = u.parse().map_err(|_| bad())?;
                        let b: u32 = v2.parse().map_err(|_| bad())?;
                        let start: u64 = start.parse().map_err(|_| bad())?;
                        let end: u64 = end.parse().map_err(|_| bad())?;
                        fault_partition.push(sleepy_net::LinkWindow { a, b, start, end });
                    }
                }
                "--out" => out = Some(PathBuf::from(value("--out")?)),
                other => return Err(format!("unknown `fleet record-tape` flag `{other}`")),
            }
            Ok(true)
        })();
        match result {
            Ok(true) => {}
            Ok(false) => return ExitCode::SUCCESS,
            Err(msg) => return fail(msg),
        }
    }
    let Some(algo) = algo else {
        return fail("record-tape needs --algo (try --help)");
    };
    use sleepy_net::FaultPlan;
    let mut plans = [
        (loss > 0.0).then_some(FaultPlan::Iid { probability: loss, seed: iid_seed }),
        fault_burst.map(|(p_enter, p_exit, loss_good, loss_bad)| FaultPlan::Burst {
            p_enter,
            p_exit,
            loss_good,
            loss_bad,
            seed: fault_seed,
        }),
        (!fault_crash.is_empty()).then_some(FaultPlan::Crash { windows: fault_crash }),
        (!fault_partition.is_empty()).then_some(FaultPlan::Partition { windows: fault_partition }),
    ]
    .into_iter()
    .flatten();
    config.fault = plans.next().unwrap_or_default();
    if plans.next().is_some() {
        return fail(
            "--loss, --fault-burst, --fault-crash and --fault-partition are mutually exclusive",
        );
    }
    if let Err(e) = config.fault.validate() {
        return fail(format!("invalid fault plan: {e}"));
    }
    let tape = match sleepy_fleet::tape::record_tape(algo, family, n, seed, &config) {
        Ok(tape) => tape,
        Err(e) => return fail(e),
    };
    let path = out.unwrap_or_else(|| {
        PathBuf::from(format!(
            "tape_{}_n{}_s{}.jsonl",
            sleepy_fleet::tape::algo_slug(algo),
            n,
            seed
        ))
    });
    if let Err(e) = std::fs::write(&path, tape.to_jsonl()) {
        return fail(format!("cannot write {}: {e}", path.display()));
    }
    eprintln!(
        "record-tape: wrote {} ({} inputs, {} outputs, fnv {:016x}{})",
        path.display(),
        tape.inputs.len(),
        tape.output_count,
        tape.outputs_fnv,
        match &tape.error {
            Some(e) => format!(", recorded error: {e}"),
            None => String::new(),
        },
    );
    ExitCode::SUCCESS
}

/// `fleet chaos`: run the seeded fault-injection matrix (see
/// `sleepy_fleet::chaos`) and exit nonzero unless every leg's recovery
/// invariant holds.
fn run_chaos() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return fail(format!("cannot locate the fleet binary: {e}")),
    };
    let mut dir: Option<PathBuf> = None;
    let mut smoke = false;
    let mut seed: Option<u64> = None;
    let mut n: Option<usize> = None;
    let mut trials: Option<usize> = None;
    let mut procs: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut it = std::env::args().skip(2);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("missing value for {flag}"));
        let result = (|| -> Result<bool, String> {
            let num =
                |v: String, flag: &str| v.parse::<usize>().map_err(|_| format!("bad {flag} `{v}`"));
            match flag.as_str() {
                "--help" | "-h" => {
                    outln!("{USAGE}");
                    return Ok(false);
                }
                "--dir" => dir = Some(PathBuf::from(value("--dir")?)),
                "--smoke" => smoke = true,
                "--seed" => {
                    let v = value("--seed")?;
                    seed = Some(parse_u64_maybe_hex(&v).ok_or(format!("bad --seed `{v}`"))?);
                }
                "--n" => n = Some(num(value("--n")?, "--n")?),
                "--trials" => trials = Some(num(value("--trials")?, "--trials")?),
                "--procs" => procs = Some(num(value("--procs")?, "--procs")?),
                "--threads" => threads = Some(num(value("--threads")?, "--threads")?),
                other => return Err(format!("unknown `fleet chaos` flag `{other}`")),
            }
            Ok(true)
        })();
        match result {
            Ok(true) => {}
            Ok(false) => return ExitCode::SUCCESS,
            Err(msg) => return fail(msg),
        }
    }
    let dir = dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fleet-chaos-{}", std::process::id()))
    });
    let mut cfg = if smoke {
        sleepy_fleet::chaos::ChaosConfig::smoke(&exe, &dir)
    } else {
        sleepy_fleet::chaos::ChaosConfig::full(&exe, &dir)
    };
    if let Some(seed) = seed {
        cfg.seed = seed;
    }
    if let Some(n) = n {
        cfg.n = n;
    }
    if let Some(trials) = trials {
        cfg.trials = trials;
    }
    if let Some(procs) = procs {
        cfg.procs = procs;
    }
    if let Some(threads) = threads {
        cfg.threads = threads;
    }
    if cfg.procs == 0 {
        return fail("--procs must be at least 1");
    }
    match sleepy_fleet::chaos::run_chaos_matrix(&cfg) {
        Ok(report) => {
            outln!("{report}");
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => fail(format!("chaos matrix could not run: {e}")),
    }
}

/// `fleet replay`: re-run committed tapes through the sans-io engine in
/// parallel and fail on any divergence. Per-tape report lines are
/// printed in argument order — byte-identical regardless of --threads.
fn run_replay() -> ExitCode {
    let mut files: Vec<PathBuf> = Vec::new();
    let mut threads = 0usize;
    let mut it = std::env::args().skip(2);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                outln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--threads" => {
                let Some(v) = it.next() else { return fail("missing value for --threads") };
                threads = match v.parse() {
                    Ok(t) => t,
                    Err(_) => return fail(format!("bad --threads `{v}`")),
                };
            }
            other if other.starts_with('-') => {
                return fail(format!("unknown `fleet replay` flag `{other}` (try --help)"));
            }
            other => files.push(PathBuf::from(other)),
        }
    }
    if files.is_empty() {
        return fail("replay needs at least one tape FILE (try --help)");
    }
    let lines = sleepy_fleet::deterministic_map(files.len(), threads, |i| {
        let path = &files[i];
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        sleepy_fleet::tape::replay_text(&path.display().to_string(), &text)
    });
    match lines {
        Ok(lines) => {
            for line in lines {
                outln!("{line}");
            }
            outln!("replay: {} tapes OK", files.len());
            ExitCode::SUCCESS
        }
        Err(msg) => fail(msg),
    }
}

/// Opens the `--store` directory (when given), logging its stats.
fn open_store(dir: &Option<PathBuf>) -> Result<Option<Store>, sleepy_store::StoreError> {
    let Some(dir) = dir else { return Ok(None) };
    let store = Store::open(dir)?;
    let stats = store.stats();
    eprintln!(
        "fleet: store {} open ({} entries, {} segments{})",
        dir.display(),
        stats.entries,
        stats.segments,
        if stats.quarantined > 0 {
            format!(", {} QUARANTINED", stats.quarantined)
        } else {
            String::new()
        },
    );
    Ok(Some(store))
}

fn run_dynamic(args: &Args) -> ExitCode {
    let churn = ChurnSpec {
        edge_delete_frac: args.edge_churn,
        edge_insert_frac: args.edge_churn,
        node_delete_frac: args.node_churn,
        node_insert_frac: args.node_churn,
        arrival_degree: args.arrival_degree,
        model: args.churn_model,
    };
    let plan = DynamicPlan::sweep(
        &args.families,
        &args.sizes,
        &args.algos,
        &args.strategies,
        args.phases,
        churn,
        args.trials,
        args.seed,
        args.execution,
    );
    eprintln!(
        "fleet: dynamic plan, {} jobs ({} families x {} sizes x {} algorithms x {} strategies), \
         {} phases per trial, {} trials total",
        plan.jobs.len(),
        args.families.len(),
        args.sizes.len(),
        args.algos.len(),
        args.strategies.len(),
        args.phases,
        plan.total_trials(),
    );
    if args.dry_run {
        for (i, job) in plan.jobs.iter().enumerate() {
            outln!("job {i:4}  {}  x{}", job.label(), job.trials);
        }
        return ExitCode::SUCCESS;
    }
    let config =
        FleetConfig { threads: args.threads, shard_size: args.shard_size, progress: args.progress };

    let mut store = match open_store(&args.store) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };
    let mut jsonl = None;
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("fleet: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        match std::fs::File::create(dir.join("phases.jsonl")) {
            Ok(f) => jsonl = Some(PhaseJsonlSink::new(BufWriter::new(f))),
            Err(e) => {
                eprintln!("fleet: cannot create phases.jsonl: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut sinks: Vec<&mut dyn sleepy_fleet::sink::PhaseSink> = Vec::new();
    if let Some(s) = jsonl.as_mut() {
        sinks.push(s);
    }

    let out =
        match run_dynamic_plan_cached(&plan, &config, &mut sinks, store.as_mut(), !args.no_cache) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("fleet: dynamic run failed: {e}");
                return ExitCode::FAILURE;
            }
        };
    let report = out.report(&plan);

    // Console summary: one row per (job, phase).
    let mut table = TextTable::new(vec![
        "job",
        "phase",
        "trials",
        "avg awake (mean)",
        "repair scope",
        "carried",
        "valid",
    ]);
    for j in &report.jobs {
        for p in &j.phases {
            table.row(vec![
                if p.phase == 0 { j.label.clone() } else { String::new() },
                p.phase.to_string(),
                p.trials.to_string(),
                format!("{:.3}", p.node_avg_awake.mean),
                format!("{:.1}", p.repair_scope_mean),
                format!("{:.1}", p.carried_mean),
                format!("{:.0}%", 100.0 * p.valid_fraction),
            ]);
        }
    }
    outln!("{}", table.render());
    for j in &report.jobs {
        if j.updates.count > 0 {
            outln!(
                "{}: {} updates absorbed, amortized {:.4} awake rounds/update \
                 (max {:.1}, mean scope {:.2}, {} free)",
                j.label,
                j.updates.count,
                j.updates.awake_mean,
                j.updates.awake_max,
                j.updates.scope_mean,
                j.updates.zero_scope,
            );
        }
    }
    print_run_line(
        &format!("{} dynamic trials ({} phases each)", out.total_trials, args.phases),
        out.elapsed,
        sleepy_fleet::pool::resolve_threads(args.threads),
        store.is_some().then_some(&out.cache),
    );

    if let Some(dir) = &args.out {
        let write_all = || -> std::io::Result<()> {
            write_dynamic_aggregate_json(
                BufWriter::new(std::fs::File::create(dir.join("dynamic_aggregates.json"))?),
                &report,
            )?;
            if store.is_some() {
                let text =
                    serde_json::to_string_pretty(&out.cache.to_json()).expect("stats serialize");
                std::fs::write(dir.join("cache_stats.json"), format!("{text}\n"))?;
            }
            Ok(())
        };
        if let Err(e) = write_all() {
            eprintln!("fleet: writing aggregates failed: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "fleet: wrote {}/phases.jsonl, dynamic_aggregates.json{}",
            dir.display(),
            if store.is_some() { ", cache_stats.json" } else { "" },
        );
    }
    if let Err(e) =
        finish_telemetry(args.out.as_deref(), args.trace_out.as_deref(), "fleet", !args.progress)
    {
        return fail(e);
    }
    ExitCode::SUCCESS
}

fn print_static_table(report: &FleetReport) {
    let mut table = TextTable::new(vec![
        "job",
        "trials",
        "avg awake (mean/p99)",
        "worst awake p99",
        "worst round p99",
        "valid",
    ]);
    for j in &report.jobs {
        table.row(vec![
            j.label.clone(),
            j.trials.to_string(),
            format!("{:.2} / {:.2}", j.node_avg_awake.mean, j.node_avg_awake.p99),
            format!("{:.0}", j.worst_awake.p99),
            format!("{:.0}", j.worst_round.p99),
            format!("{:.0}%", 100.0 * j.valid_fraction),
        ]);
    }
    outln!("{}", table.render());
}

/// Writes `aggregates.json` + `aggregates.csv` (and, for cached runs,
/// `cache_stats.json`) into `dir`. Cache stats live in their own file
/// on purpose: `aggregates.json` stays byte-identical between cold and
/// warm runs of the same plan.
fn write_static_outputs(
    dir: &Path,
    report: &FleetReport,
    cache: Option<CacheStats>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_aggregate_json(
        BufWriter::new(std::fs::File::create(dir.join("aggregates.json"))?),
        report,
    )?;
    write_aggregate_csv(
        BufWriter::new(std::fs::File::create(dir.join("aggregates.csv"))?),
        report,
    )?;
    if let Some(cache) = cache {
        let text = serde_json::to_string_pretty(&cache.to_json()).expect("stats serialize");
        std::fs::write(dir.join("cache_stats.json"), format!("{text}\n"))?;
    }
    Ok(())
}

fn run_static(args: &Args) -> ExitCode {
    let plan = TrialPlan::sweep(
        &args.families,
        &args.sizes,
        &args.algos,
        args.trials,
        args.seed,
        args.execution,
    );
    eprintln!(
        "fleet: {} jobs ({} families x {} sizes x {} algorithms), {} trials total",
        plan.jobs.len(),
        args.families.len(),
        args.sizes.len(),
        args.algos.len(),
        plan.total_trials(),
    );
    if let Some(path) = &args.emit_plan {
        if let Err(e) = std::fs::write(path, format!("{}\n", plan_to_json(&plan))) {
            return fail(format!("cannot write {}: {e}", path.display()));
        }
        eprintln!("fleet: wrote plan to {}", path.display());
    }
    if args.dry_run {
        for (i, job) in plan.jobs.iter().enumerate() {
            outln!("job {i:4}  {}  x{}", job.label(), job.trials);
        }
        return ExitCode::SUCCESS;
    }
    let config =
        FleetConfig { threads: args.threads, shard_size: args.shard_size, progress: args.progress };

    let mut store = match open_store(&args.store) {
        Ok(store) => store,
        Err(e) => return fail(e),
    };

    let mut jsonl = None;
    if let Some(dir) = &args.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(format!("cannot create {}: {e}", dir.display()));
        }
        match std::fs::File::create(dir.join("trials.jsonl")) {
            Ok(f) => jsonl = Some(JsonlSink::new(BufWriter::new(f))),
            Err(e) => return fail(format!("cannot create trials.jsonl: {e}")),
        }
    }
    let mut sinks: Vec<&mut dyn sleepy_fleet::sink::TrialSink> = Vec::new();
    if let Some(s) = jsonl.as_mut() {
        sinks.push(s);
    }

    let out = match run_plan_cached(&plan, &config, &mut sinks, store.as_mut(), !args.no_cache) {
        Ok(out) => out,
        Err(e) => return fail(format!("run failed: {e}")),
    };
    let report = out.report(&plan);

    print_static_table(&report);
    print_run_line(
        &format!("{} trials", out.total_trials),
        out.elapsed,
        sleepy_fleet::pool::resolve_threads(args.threads),
        store.is_some().then_some(&out.cache),
    );

    if let Some(dir) = &args.out {
        let cache = store.is_some().then_some(out.cache);
        if let Err(e) = write_static_outputs(dir, &report, cache) {
            return fail(format!("writing aggregates failed: {e}"));
        }
        eprintln!(
            "fleet: wrote {}/trials.jsonl, aggregates.json, aggregates.csv{}",
            dir.display(),
            if cache.is_some() { ", cache_stats.json" } else { "" },
        );
    }
    // Protocol flight recorder: a separate engine replay AFTER the
    // measured run, so the artifacts above are already on disk (and
    // byte-identical) before any recording happens. Host-level spans
    // live here, not in the recorder (crates/fleet/src/scope.rs is in
    // the lint `pure` zone).
    if args.round_timeline {
        let dir = args.out.as_deref().expect("checked in parse_args");
        let path = dir.join("round_timeline.jsonl");
        let _span = sleepy_telemetry::span!("scope", "round_timeline");
        match sleepy_fleet::write_round_timeline(&plan, args.threads, &path) {
            Ok(trials) => {
                eprintln!("fleet: wrote {} ({trials} trials)", path.display());
            }
            Err(e) => return fail(format!("round timeline failed: {e}")),
        }
    }
    if let Some(path) = &args.protocol_trace {
        let _span = sleepy_telemetry::span!("scope", "protocol_trace");
        if let Err(e) = sleepy_fleet::write_protocol_trace(&plan, path) {
            return fail(format!("protocol trace failed: {e}"));
        }
        eprintln!("fleet: wrote protocol trace {}", path.display());
    }
    if let Err(e) =
        finish_telemetry(args.out.as_deref(), args.trace_out.as_deref(), "fleet", !args.progress)
    {
        return fail(e);
    }
    ExitCode::SUCCESS
}
