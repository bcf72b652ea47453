//! The `fleet` CLI: run a declarative sweep of sleeping-model trials in
//! parallel with deterministic output.
//!
//! ```text
//! fleet --families gnp8,geo8,tree --sizes 256,512 --algos all \
//!       --trials 30 --threads 8 --out results/fleet
//! ```
//!
//! Every entry point reads its arguments against its flag tables with
//! one parser, [`parse`], which owns the `--help`, unknown-flag,
//! missing-value and bad-value errors. Each `run_*` returns its error
//! and `main` prints it as the one `fleet: <msg>` line.

#![forbid(unsafe_code)]

use sleepy_baselines::BaselineKind;
use sleepy_fleet::procs::read_plan_file;
use sleepy_fleet::sink::{
    write_aggregate_csv, write_aggregate_json, write_dynamic_aggregate_json, JsonlSink,
    PhaseJsonlSink, PhaseSink, TrialSink,
};
use sleepy_fleet::{
    errln, outln, plan_to_json, run_dynamic_plan_cached, run_plan_cached, run_plan_shard,
    standard_families, AlgoKind, CacheStats, DynamicPlan, Execution, FleetConfig, FleetReport,
    RepairStrategy, TrialPlan, ALL_ALGOS, ALL_STRATEGIES, SLEEPING_ALGOS,
};
use sleepy_graph::{ChurnModel, ChurnSpec, GraphFamily};
use sleepy_net::{CrashWindow, EngineConfig, FaultPlan, LinkWindow};
use sleepy_stats::TextTable;
use sleepy_store::Store;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

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
    let family = match name {
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
    }?;
    family.validate().map_err(|e| format!("bad family `{name}`: {e}"))?;
    Ok(family)
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

/// One entry of a flag table: the flag, and whether it takes a value.
type Flag = (&'static str, bool);

/// The [`FleetConfig`] flags of every entry point that runs a plan.
const CONFIG: &[Flag] = &[("--threads", true), ("--shard-size", true), ("--no-progress", false)];

/// The sweep's own flags. A flag in [`STATIC_ONLY`] or [`DYNAMIC_ONLY`]
/// is rejected by the other kind of run, which would ignore it.
const SWEEP: &[Flag] = &[
    ("--families", true),
    ("--sizes", true),
    ("--algos", true),
    ("--trials", true),
    ("--seed", true),
    ("--engine", false),
    ("--out", true),
    ("--store", true),
    ("--no-cache", false),
    ("--emit-plan", true),
    ("--trace-out", true),
    ("--round-timeline", false),
    ("--protocol-trace", true),
    ("--dry-run", false),
    ("--dynamic", false),
    ("--phases", true),
    ("--edge-churn", true),
    ("--node-churn", true),
    ("--arrival-degree", true),
    ("--repair", true),
    ("--churn-model", true),
];
const STATIC_ONLY: &[&str] = &["--emit-plan", "--round-timeline", "--protocol-trace"];
const DYNAMIC_ONLY: &[&str] =
    &["--phases", "--edge-churn", "--node-churn", "--arrival-degree", "--repair", "--churn-model"];

const WORKER: &[Flag] = &[
    ("--plan", true),
    ("--shard", true),
    ("--store", true),
    ("--trace-out", true),
    ("--chaos-kill", true),
    ("--chaos-wedge", true),
];
const MERGE: &[Flag] = &[
    ("--plan", true),
    ("--from", true),
    ("--store", true),
    ("--out", true),
    ("--trace-out", true),
    ("--trace-from", true),
];
const GC: &[Flag] = &[("--store", true), ("--ttl-secs", true)];
const RECORD_TAPE: &[Flag] = &[
    ("--algo", true),
    ("--family", true),
    ("--n", true),
    ("--seed", true),
    ("--loss", true),
    ("--loss-seed", true),
    ("--fault-burst", true),
    ("--fault-seed", true),
    ("--fault-crash", true),
    ("--fault-partition", true),
    ("--max-rounds", true),
    ("--out", true),
];
const REPLAY: &[Flag] = &[("--threads", true)];
const CHAOS: &[Flag] = &[
    ("--dir", true),
    ("--seed", true),
    ("--n", true),
    ("--trials", true),
    ("--procs", true),
    ("--threads", true),
    ("--smoke", false),
];

/// The arguments of one entry point, read against its flag tables.
struct Args {
    /// The entry point, as messages name it.
    what: &'static str,
    /// Every flag given, in order, with its value (empty for a switch).
    flags: Vec<(&'static str, String)>,
    /// The positional arguments of an entry point that takes files.
    files: Vec<PathBuf>,
}

/// Reads `argv` against `tables`; `Ok(None)` means `--help` was printed.
/// A positional argument is a file when `takes_files`, and otherwise an
/// unknown flag.
fn parse(
    what: &'static str,
    tables: &[&[Flag]],
    takes_files: bool,
    argv: &[String],
) -> Result<Option<Args>, String> {
    let mut args = Args { what, flags: Vec::new(), files: Vec::new() };
    let mut argv = argv.iter();
    while let Some(arg) = argv.next() {
        if arg == "--help" || arg == "-h" {
            outln!("{USAGE}");
            return Ok(None);
        }
        match tables.iter().copied().flatten().find(|f| f.0 == arg.as_str()) {
            Some(&(flag, true)) => {
                let value = argv.next().ok_or_else(|| format!("missing value for {flag}"))?;
                args.flags.push((flag, value.clone()));
            }
            Some(&(flag, false)) => args.flags.push((flag, String::new())),
            None if takes_files && !arg.starts_with('-') => args.files.push(PathBuf::from(arg)),
            None => return Err(format!("unknown `{what}` flag `{arg}` (try --help)")),
        }
    }
    Ok(Some(args))
}

/// Parses `v`, the value (or one item of the list) given to `flag`.
fn number<T: FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {flag} `{v}`"))
}

impl Args {
    /// The value of `flag`'s last occurrence (empty for a switch).
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| *f == flag).map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    fn path(&self, flag: &str) -> Option<PathBuf> {
        self.value(flag).map(PathBuf::from)
    }

    /// The values of `flags`, all of which this entry point needs.
    fn required<const N: usize>(&self, flags: [&str; N]) -> Result<[&str; N], String> {
        let missing: Vec<&str> = flags.iter().copied().filter(|f| !self.has(f)).collect();
        if !missing.is_empty() {
            return Err(format!("`{}` needs {} (try --help)", self.what, missing.join(", ")));
        }
        Ok(flags.map(|f| self.value(f).unwrap_or_default()))
    }

    /// `flag`'s value as a number, or `default` when it is absent.
    fn num<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.value(flag).map_or(Ok(default), |v| number(flag, v))
    }

    /// `flag`'s value as a decimal or `0x` hex seed, or `default`.
    fn seed(&self, flag: &str, default: u64) -> Result<u64, String> {
        let Some(v) = self.value(flag) else { return Ok(default) };
        match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => v.parse().ok(),
        }
        .ok_or_else(|| format!("bad {flag} `{v}`"))
    }

    /// `flag`'s comma-separated items, each read by `item`, or `default`.
    fn list<T>(
        &self,
        flag: &str,
        default: Vec<T>,
        item: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.value(flag).map_or(Ok(default), |v| v.split(',').map(item).collect())
    }

    /// The run's [`FleetConfig`], from the [`CONFIG`] flags.
    fn config(&self) -> Result<FleetConfig, String> {
        let shard_size = self.num("--shard-size", 16)?;
        if shard_size == 0 {
            return Err("--shard-size must be at least 1".to_string());
        }
        let progress = !self.has("--no-progress");
        Ok(FleetConfig { threads: self.num("--threads", 0)?, shard_size, progress })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    // Subcommands take over before flag parsing.
    let result = match argv.first().map(String::as_str) {
        Some("worker") => run_worker(rest),
        Some("merge") => run_merge(rest),
        Some("gc") => run_gc(rest),
        Some("record-tape") => run_record_tape(rest),
        Some("replay") => run_replay(rest),
        Some("chaos") => run_chaos(rest),
        Some("trace-check") => run_trace_check(rest),
        Some("lint") => {
            return ExitCode::from(u8::try_from(sleepy_lint::run_cli(rest)).unwrap_or(2))
        }
        _ => run_sweep(&argv),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            errln!("fleet: {msg}");
            ExitCode::FAILURE
        }
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

/// One code path for the end-of-run stderr line of every plan run.
fn print_run_line(
    what: &str,
    elapsed: std::time::Duration,
    threads: usize,
    cache: Option<&CacheStats>,
) {
    let threads = sleepy_fleet::pool::resolve_threads(threads);
    errln!("fleet: {what} in {elapsed:.2?} ({threads} threads)");
    if let Some(c) = cache {
        errln!(
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
        sleepy_fleet::sink::print_stderr(format_args!("{}", snap.render_summary()));
    }
    if let Some(dir) = out_dir {
        let text =
            serde_json::to_string_pretty(&snap.run_metrics_value()).expect("metrics serialize");
        let path = dir.join("run_metrics.json");
        std::fs::write(&path, format!("{text}\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        errln!("fleet: wrote {}", path.display());
    }
    if let Some(path) = trace_out {
        snap.write_chrome_trace(path, process_name)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        errln!("fleet: wrote trace {}", path.display());
    }
    Ok(())
}

/// `fleet trace-check`: validate a Chrome trace-event file written by
/// `--trace-out` (or any B/E/M trace) and summarize what it holds.
fn run_trace_check(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet trace-check", &[], true, argv)? else { return Ok(()) };
    if a.files.is_empty() {
        return Err("trace-check needs at least one FILE (try --help)".to_string());
    }
    for path in &a.files {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let check = sleepy_telemetry::validate_trace(&text)
            .map_err(|e| format!("{}: INVALID — {e}", path.display()))?;
        outln!(
            "{}: OK — {} events, {} spans, {} counters, {} timelines, categories [{}]",
            path.display(),
            check.events,
            check.spans,
            check.counters,
            check.timelines,
            check.categories.join(", "),
        );
    }
    Ok(())
}

/// `fleet worker`: execute one contiguous shard of a plan, recording
/// every result into this worker's store. The store *is* the output;
/// the coordinator (or `fleet merge`) recovers aggregates from it.
fn run_worker(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet worker", &[WORKER, CONFIG], false, argv)? else { return Ok(()) };
    let [plan_path, shard, store_dir] = a.required(["--plan", "--shard", "--store"])?;
    let (index, count) = shard
        .split_once('/')
        .and_then(|(k, n)| k.parse::<usize>().ok().zip(n.parse::<usize>().ok()))
        .filter(|(k, n)| k < n)
        .ok_or_else(|| format!("bad --shard `{shard}` (expected K/N with K < N)"))?;
    let config = a.config()?;
    // Test-only fault injection, driven by the supervisor's chaos
    // config. The marker file makes the fault fire exactly once: the
    // first attempt misbehaves, the retry runs the shard for real.
    let first_attempt = |marker: &Path| {
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
    if a.path("--chaos-wedge").is_some_and(|marker| first_attempt(&marker)) {
        errln!("fleet worker {index}/{count}: chaos wedge — hanging until killed");
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let chaos_kill_now = a.path("--chaos-kill").is_some_and(|marker| first_attempt(&marker));
    set_telemetry_mode(a.has("--trace-out"));
    let plan = read_plan_file(Path::new(plan_path)).map_err(|e| e.to_string())?;
    let mut store = Store::open(store_dir).map_err(|e| e.to_string())?;
    if chaos_kill_now {
        // Execute exactly the first half of this worker's shard —
        // shard 2k/2N is a prefix of shard k/N — then die with a
        // nonzero exit so the supervisor classifies and retries. The
        // retry finds the half-filled store and completes the rest.
        let (index, count) = (2 * index, 2 * count);
        errln!("fleet worker: chaos kill — running half shard {index}/{count}, then exit 17");
        run_plan_shard(&plan, &config, &mut [], Some(&mut store), index, count)
            .map_err(|e| format!("chaos half-shard {index}/{count} failed: {e}"))?;
        std::process::exit(17);
    }
    let out = run_plan_shard(&plan, &config, &mut [], Some(&mut store), index, count)
        .map_err(|e| format!("worker {index}/{count} failed: {e}"))?;
    errln!(
        "fleet worker {index}/{count}: {} trials ({} executed, {} cached, {} stored) in {:.2?}",
        out.total_trials,
        out.cache.executed,
        out.cache.hits,
        out.cache.stored,
        out.elapsed,
    );
    let name = format!("fleet-worker-{index}");
    finish_telemetry(None, a.path("--trace-out").as_deref(), &name, !config.progress)
}

/// `fleet merge`: union shard stores into one store, then replay the
/// plan warm against it — recovering aggregates byte-identical to a
/// single-process run (missing trials simply execute during replay).
fn run_merge(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet merge", &[MERGE, CONFIG], false, argv)? else { return Ok(()) };
    let [plan_path, from, store_dir] = a.required(["--plan", "--from", "--store"])?;
    if a.has("--trace-from") && !a.has("--trace-out") {
        return Err("--trace-from needs --trace-out (nowhere to put the merged trace)".to_string());
    }
    let config = a.config()?;
    set_telemetry_mode(a.has("--trace-out"));
    let plan = read_plan_file(Path::new(plan_path)).map_err(|e| e.to_string())?;
    let mut merged = Store::open(store_dir).map_err(|e| e.to_string())?;
    for dir in from.split(',') {
        let shard = Store::open(dir).map_err(|e| e.to_string())?;
        let added = merged.merge_from(&shard).map_err(|e| e.to_string())?;
        errln!("fleet merge: {} entries from {dir} ({added} new)", shard.len());
    }
    let out = run_plan_cached(&plan, &config, &mut [], Some(&mut merged), true)
        .map_err(|e| format!("merge replay failed: {e}"))?;
    let report = out.report(&plan);
    print_static_table(&report);
    let what = format!("merge replayed {} trials", out.total_trials);
    print_run_line(&what, out.elapsed, config.threads, Some(&out.cache));
    let out_dir = a.path("--out");
    if let Some(dir) = &out_dir {
        write_static_outputs(dir, &report, Some(&out.cache))
            .map_err(|e| format!("writing aggregates failed: {e}"))?;
        errln!(
            "fleet merge: wrote {}/aggregates.json, aggregates.csv, cache_stats.json",
            dir.display()
        );
    }
    for path in a.value("--trace-from").into_iter().flat_map(|v| v.split(',')) {
        if let Err(e) = sleepy_telemetry::import_trace_file(path) {
            errln!("fleet: warning: trace not imported: {e}");
        }
    }
    let trace_out = a.path("--trace-out");
    finish_telemetry(out_dir.as_deref(), trace_out.as_deref(), "fleet-merge", !config.progress)
}

/// `fleet gc`: expire entries past their TTL and compact the store's
/// segments into one.
fn run_gc(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet gc", &[GC], false, argv)? else { return Ok(()) };
    let [store_dir] = a.required(["--store"])?;
    let expire_before = match a.value("--ttl-secs") {
        Some(v) => {
            let ttl: u64 = number("--ttl-secs", v)?;
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
    let mut store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let gc = store.gc(expire_before).map_err(|e| e.to_string())?;
    errln!(
        "fleet gc: kept {} entries, dropped {}, {} segments -> {}",
        gc.kept,
        gc.dropped,
        gc.segments_before,
        gc.segments_after,
    );
    Ok(())
}

/// One `HEAD:START:END` fault window of `flag`, its head read by `head`.
fn fault_window<T>(
    flag: &str,
    spec: &str,
    shape: &str,
    head: impl Fn(&str) -> Option<T>,
) -> Result<(T, u64, u64), String> {
    let window = match spec.split(':').collect::<Vec<_>>()[..] {
        [h, start, end] => head(h).zip(start.parse().ok()).zip(end.parse().ok()),
        _ => None,
    };
    window
        .map(|((h, start), end)| (h, start, end))
        .ok_or_else(|| format!("bad {flag} `{spec}` (expected {shape})"))
}

/// `fleet record-tape`: run one algorithm on one workload instance and
/// write the engine exchange as a versioned JSONL conformance tape.
fn run_record_tape(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet record-tape", &[RECORD_TAPE], false, argv)? else { return Ok(()) };
    let [algo] = a.required(["--algo"])?;
    let [algo] = parse_algos(algo)?[..] else {
        return Err("record-tape takes exactly one --algo".to_string());
    };
    let family = a.value("--family").map_or(Ok(GraphFamily::Star), parse_family)?;
    let (n, seed) = (a.num("--n", 16)?, a.seed("--seed", 1)?);
    let loss: f64 = a.num("--loss", 0.0)?;
    if !(0.0..=1.0).contains(&loss) {
        return Err("--loss must be in [0,1]".to_string());
    }
    let (loss_seed, fault_seed) = (a.seed("--loss-seed", 0)?, a.seed("--fault-seed", 0)?);
    let burst = match a.list("--fault-burst", Vec::new(), |p| number("--fault-burst", p))?[..] {
        [] => None,
        [p_enter, p_exit, loss_good, loss_bad] => {
            Some(FaultPlan::Burst { p_enter, p_exit, loss_good, loss_bad, seed: fault_seed })
        }
        _ => return Err("bad --fault-burst (expected E,X,G,B)".to_string()),
    };
    let crash = a.list("--fault-crash", Vec::new(), |spec| {
        let (node, start, end) =
            fault_window("--fault-crash", spec, "NODE:START:END", |h| h.parse().ok())?;
        Ok(CrashWindow { node, start, end })
    })?;
    let partition = a.list("--fault-partition", Vec::new(), |spec| {
        let edge =
            |h: &str| h.split_once('-').and_then(|(u, v)| u.parse().ok().zip(v.parse().ok()));
        let ((u, v), start, end) = fault_window("--fault-partition", spec, "U-V:START:END", edge)?;
        Ok(LinkWindow { a: u, b: v, start, end })
    })?;
    let mut plans = [
        (loss > 0.0).then_some(FaultPlan::Iid { probability: loss, seed: loss_seed }),
        burst,
        (!crash.is_empty()).then_some(FaultPlan::Crash { windows: crash }),
        (!partition.is_empty()).then_some(FaultPlan::Partition { windows: partition }),
    ]
    .into_iter()
    .flatten();
    let fault = plans.next().unwrap_or_default();
    if plans.next().is_some() {
        return Err(
            "--loss, --fault-burst, --fault-crash and --fault-partition are mutually exclusive"
                .to_string(),
        );
    }
    fault.validate().map_err(|e| format!("invalid fault plan: {e}"))?;
    let defaults = EngineConfig::default();
    let max_rounds = a.num("--max-rounds", defaults.max_rounds)?;
    let config = EngineConfig { max_rounds, fault, ..defaults };
    let tape = sleepy_fleet::tape::record_tape(algo, family, n, seed, &config)
        .map_err(|e| e.to_string())?;
    let path = a.path("--out").unwrap_or_else(|| {
        let slug = sleepy_fleet::tape::algo_slug(algo);
        PathBuf::from(format!("tape_{slug}_n{n}_s{seed}.jsonl"))
    });
    std::fs::write(&path, tape.to_jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    errln!(
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
    Ok(())
}

/// `fleet chaos`: run the seeded fault-injection matrix (see
/// `sleepy_fleet::chaos`) and exit nonzero unless every leg's recovery
/// invariant holds.
fn run_chaos(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet chaos", &[CHAOS], false, argv)? else { return Ok(()) };
    let exe =
        std::env::current_exe().map_err(|e| format!("cannot locate the fleet binary: {e}"))?;
    let dir = a.path("--dir").unwrap_or_else(|| {
        std::env::temp_dir().join(format!("fleet-chaos-{}", std::process::id()))
    });
    let mut cfg = if a.has("--smoke") {
        sleepy_fleet::chaos::ChaosConfig::smoke(&exe, &dir)
    } else {
        sleepy_fleet::chaos::ChaosConfig::full(&exe, &dir)
    };
    cfg.seed = a.seed("--seed", cfg.seed)?;
    cfg.n = a.num("--n", cfg.n)?;
    cfg.trials = a.num("--trials", cfg.trials)?;
    cfg.procs = a.num("--procs", cfg.procs)?;
    cfg.threads = a.num("--threads", cfg.threads)?;
    if cfg.procs == 0 {
        return Err("--procs must be at least 1".to_string());
    }
    let report = sleepy_fleet::chaos::run_chaos_matrix(&cfg)
        .map_err(|e| format!("chaos matrix could not run: {e}"))?;
    outln!("{report}");
    if report.passed() {
        Ok(())
    } else {
        Err("chaos matrix failed (see the FAIL legs above)".to_string())
    }
}

/// `fleet replay`: re-run committed tapes through the sans-io engine in
/// parallel and fail on any divergence. Per-tape report lines are
/// printed in argument order — byte-identical regardless of --threads.
fn run_replay(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet replay", &[REPLAY], true, argv)? else { return Ok(()) };
    if a.files.is_empty() {
        return Err("replay needs at least one tape FILE (try --help)".to_string());
    }
    let lines = sleepy_fleet::deterministic_map(a.files.len(), a.num("--threads", 0)?, |i| {
        let path = &a.files[i];
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        sleepy_fleet::tape::replay_text(&path.display().to_string(), &text)
    })?;
    for line in lines {
        outln!("{line}");
    }
    outln!("replay: {} tapes OK", a.files.len());
    Ok(())
}

/// `fleet [OPTIONS]`: checks the sweep flags, then runs the static or
/// the `--dynamic` plan they describe.
fn run_sweep(argv: &[String]) -> Result<(), String> {
    let Some(a) = parse("fleet", &[SWEEP, CONFIG], false, argv)? else { return Ok(()) };
    let dynamic = a.has("--dynamic");
    let (foreign, why) = if dynamic {
        (STATIC_ONLY, "cannot be used with --dynamic (static runs only)")
    } else {
        (DYNAMIC_ONLY, "only make sense with --dynamic (did you forget it?)")
    };
    let foreign: Vec<&str> = foreign.iter().copied().filter(|f| a.has(f)).collect();
    if !foreign.is_empty() {
        return Err(format!("{} {why}", foreign.join(", ")));
    }
    if a.has("--no-cache") && !a.has("--store") {
        return Err("--no-cache only makes sense with --store".to_string());
    }
    if a.has("--round-timeline") && !a.has("--out") {
        return Err("--round-timeline needs --out (it writes round_timeline.jsonl there)".into());
    }
    let families = a.list("--families", standard_families(), parse_family)?;
    let sizes = a.list("--sizes", vec![256, 512], |s| number("--sizes", s))?;
    let algos = a.value("--algos").map_or(Ok(ALL_ALGOS.to_vec()), parse_algos)?;
    let (trials, seed) = (a.num("--trials", 25)?, a.seed("--seed", 0x51EE9)?);
    let execution = if a.has("--engine") { Execution::ForceEngine } else { Execution::Auto };
    let config = a.config()?;
    set_telemetry_mode(a.has("--trace-out"));
    if !dynamic {
        let plan = TrialPlan::sweep(&families, &sizes, &algos, trials, seed, execution);
        errln!(
            "fleet: {} jobs ({} families x {} sizes x {} algorithms), {} trials total",
            plan.jobs.len(),
            families.len(),
            sizes.len(),
            algos.len(),
            plan.total_trials(),
        );
        return run_static(&a, &plan, &config);
    }
    let phases = a.num("--phases", 4)?;
    if phases == 0 {
        return Err("--phases must be >= 1".to_string());
    }
    let strategies = match a.value("--repair").unwrap_or("both") {
        "recompute" => vec![RepairStrategy::Recompute],
        "repair" => vec![RepairStrategy::Repair],
        "incremental" => vec![RepairStrategy::Incremental],
        "both" => vec![RepairStrategy::Recompute, RepairStrategy::Repair],
        "all" => ALL_STRATEGIES.to_vec(),
        other => return Err(format!("unknown repair mode `{other}` (try --help)")),
    };
    let (edge_churn, node_churn) = (a.num("--edge-churn", 0.05)?, a.num("--node-churn", 0.02)?);
    let churn = ChurnSpec {
        edge_delete_frac: edge_churn,
        edge_insert_frac: edge_churn,
        node_delete_frac: node_churn,
        node_insert_frac: node_churn,
        arrival_degree: a.num("--arrival-degree", 3)?,
        model: match a.value("--churn-model").unwrap_or("uniform") {
            "uniform" => ChurnModel::Uniform,
            "adversarial" => ChurnModel::Adversarial,
            other => return Err(format!("unknown churn model `{other}` (try --help)")),
        },
    };
    churn.validate().map_err(|e| format!("bad churn: {e}"))?;
    let plan = DynamicPlan::sweep(
        &families,
        &sizes,
        &algos,
        &strategies,
        phases,
        churn,
        trials,
        seed,
        execution,
    );
    errln!(
        "fleet: dynamic plan, {} jobs ({} families x {} sizes x {} algorithms x {} strategies), \
         {} phases per trial, {} trials total",
        plan.jobs.len(),
        families.len(),
        sizes.len(),
        algos.len(),
        strategies.len(),
        phases,
        plan.total_trials(),
    );
    run_dynamic(&a, &plan, &config, phases)
}

/// `--dry-run`: prints the plan's jobs, and says whether to stop there.
fn dry_run(a: &Args, jobs: impl Iterator<Item = (String, usize)>) -> bool {
    if !a.has("--dry-run") {
        return false;
    }
    for (i, (label, trials)) in jobs.enumerate() {
        outln!("job {i:4}  {label}  x{trials}");
    }
    true
}

/// Opens the `--store` directory (when given), logging its stats.
fn open_store(a: &Args) -> Result<Option<Store>, String> {
    let Some(dir) = a.path("--store") else { return Ok(None) };
    let store = Store::open(&dir).map_err(|e| e.to_string())?;
    let stats = store.stats();
    errln!(
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

/// Creates the `--out` directory and the JSONL file `name` in it, when
/// `--out` was given.
fn create_jsonl(out_dir: Option<&Path>, name: &str) -> Result<Option<BufWriter<File>>, String> {
    let Some(dir) = out_dir else { return Ok(None) };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let file = File::create(dir.join(name)).map_err(|e| format!("cannot create {name}: {e}"))?;
    Ok(Some(BufWriter::new(file)))
}

/// Writes `cache_stats.json` into `dir`. Cache stats live in their own
/// file on purpose: the aggregates stay byte-identical between cold and
/// warm runs of the same plan.
fn write_cache_stats(dir: &Path, cache: &CacheStats) -> std::io::Result<()> {
    let text = serde_json::to_string_pretty(&cache.to_json()).expect("stats serialize");
    std::fs::write(dir.join("cache_stats.json"), format!("{text}\n"))
}

/// Runs a `--dynamic` sweep: its console tables, then phases.jsonl and
/// dynamic_aggregates.json under `--out`.
fn run_dynamic(
    a: &Args,
    plan: &DynamicPlan,
    config: &FleetConfig,
    phases: usize,
) -> Result<(), String> {
    if dry_run(a, plan.jobs.iter().map(|job| (job.label(), job.trials))) {
        return Ok(());
    }
    let mut store = open_store(a)?;
    let out_dir = a.path("--out");
    let mut jsonl = create_jsonl(out_dir.as_deref(), "phases.jsonl")?.map(PhaseJsonlSink::new);
    let mut sinks: Vec<&mut dyn PhaseSink> =
        jsonl.iter_mut().map(|s| s as &mut dyn PhaseSink).collect();
    let read_cache = !a.has("--no-cache");
    let out = run_dynamic_plan_cached(plan, config, &mut sinks, store.as_mut(), read_cache)
        .map_err(|e| format!("dynamic run failed: {e}"))?;
    let report = out.report(plan);

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
    let cache = store.is_some().then_some(out.cache);
    let what = format!("{} dynamic trials ({phases} phases each)", out.total_trials);
    print_run_line(&what, out.elapsed, config.threads, cache.as_ref());

    if let Some(dir) = &out_dir {
        let write_all = || -> std::io::Result<()> {
            let file = File::create(dir.join("dynamic_aggregates.json"))?;
            write_dynamic_aggregate_json(BufWriter::new(file), &report)?;
            cache.as_ref().map_or(Ok(()), |cache| write_cache_stats(dir, cache))
        };
        write_all().map_err(|e| format!("writing aggregates failed: {e}"))?;
        errln!(
            "fleet: wrote {}/phases.jsonl, dynamic_aggregates.json{}",
            dir.display(),
            if cache.is_some() { ", cache_stats.json" } else { "" },
        );
    }
    let trace_out = a.path("--trace-out");
    finish_telemetry(out_dir.as_deref(), trace_out.as_deref(), "fleet", !config.progress)
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
/// `cache_stats.json`) into `dir`.
fn write_static_outputs(
    dir: &Path,
    report: &FleetReport,
    cache: Option<&CacheStats>,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_aggregate_json(BufWriter::new(File::create(dir.join("aggregates.json"))?), report)?;
    write_aggregate_csv(BufWriter::new(File::create(dir.join("aggregates.csv"))?), report)?;
    cache.map_or(Ok(()), |cache| write_cache_stats(dir, cache))
}

/// Runs a static sweep: its console table, then trials.jsonl and the
/// aggregates under `--out`, then the optional protocol recordings.
fn run_static(a: &Args, plan: &TrialPlan, config: &FleetConfig) -> Result<(), String> {
    if let Some(path) = a.path("--emit-plan") {
        std::fs::write(&path, format!("{}\n", plan_to_json(plan)))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        errln!("fleet: wrote plan to {}", path.display());
    }
    if dry_run(a, plan.jobs.iter().map(|job| (job.label(), job.trials))) {
        return Ok(());
    }
    let mut store = open_store(a)?;
    let out_dir = a.path("--out");
    let mut jsonl = create_jsonl(out_dir.as_deref(), "trials.jsonl")?.map(JsonlSink::new);
    let mut sinks: Vec<&mut dyn TrialSink> =
        jsonl.iter_mut().map(|s| s as &mut dyn TrialSink).collect();
    let read_cache = !a.has("--no-cache");
    let out = run_plan_cached(plan, config, &mut sinks, store.as_mut(), read_cache)
        .map_err(|e| format!("run failed: {e}"))?;
    let report = out.report(plan);

    print_static_table(&report);
    let cache = store.is_some().then_some(out.cache);
    let what = format!("{} trials", out.total_trials);
    print_run_line(&what, out.elapsed, config.threads, cache.as_ref());

    if let Some(dir) = &out_dir {
        write_static_outputs(dir, &report, cache.as_ref())
            .map_err(|e| format!("writing aggregates failed: {e}"))?;
        errln!(
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
    if let Some(dir) = out_dir.as_deref().filter(|_| a.has("--round-timeline")) {
        let path = dir.join("round_timeline.jsonl");
        let _span = sleepy_telemetry::span!("scope", "round_timeline");
        let trials = sleepy_fleet::write_round_timeline(plan, config.threads, &path)
            .map_err(|e| format!("round timeline failed: {e}"))?;
        errln!("fleet: wrote {} ({trials} trials)", path.display());
    }
    if let Some(path) = a.path("--protocol-trace") {
        let _span = sleepy_telemetry::span!("scope", "protocol_trace");
        sleepy_fleet::write_protocol_trace(plan, &path)
            .map_err(|e| format!("protocol trace failed: {e}"))?;
        errln!("fleet: wrote protocol trace {}", path.display());
    }
    let trace_out = a.path("--trace-out");
    finish_telemetry(out_dir.as_deref(), trace_out.as_deref(), "fleet", !config.progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every flag a table holds is documented in `USAGE`, and every
    /// `--flag` `USAGE` names is in some table: the help text and the
    /// parser cannot drift apart.
    #[test]
    fn usage_names_exactly_the_table_flags() {
        let tables = [CONFIG, SWEEP, WORKER, MERGE, GC, RECORD_TAPE, REPLAY, CHAOS];
        let in_tables: BTreeSet<&str> = tables.iter().copied().flatten().map(|f| f.0).collect();
        let mut in_usage = BTreeSet::new();
        for (at, _) in USAGE.match_indices("--") {
            let rest = &USAGE[at + 2..];
            let len =
                rest.find(|c: char| !c.is_ascii_lowercase() && c != '-').unwrap_or(rest.len());
            in_usage.insert(&USAGE[at..at + 2 + len]);
        }
        assert!(in_usage.remove("--help"), "the parser answers --help everywhere");
        assert_eq!(in_usage, in_tables);
        for only in STATIC_ONLY.iter().chain(DYNAMIC_ONLY) {
            assert!(SWEEP.iter().any(|f| f.0 == *only), "{only} is not a sweep flag");
        }
    }
}
