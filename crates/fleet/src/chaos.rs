//! The seeded chaos matrix behind `fleet chaos`: drive every fault
//! surface the runtime claims to survive — worker crashes, wedged
//! workers, corrupted stores, lossy/partitioned/crashing networks —
//! and assert the recovery invariants end-to-end:
//!
//! * **Infrastructure faults are invisible.** A run that lost a worker
//!   (crash or wedge) or a store segment (truncation, bit rot, torn
//!   manifest) must produce trials/aggregate artifacts *byte-identical*
//!   to a fault-free oracle run of the same plan: recovery means the
//!   fault never happened, not "close enough".
//! * **Engine faults are reproducible.** A fault plan deliberately
//!   *changes* results (messages are lost), so the invariant is
//!   determinism: recording the same faulted run twice yields identical
//!   tapes, and the tapes replay.
//! * **Failures are really exercised.** The kill leg asserts the
//!   supervisor observed the injected nonzero exit and retried; the
//!   store legs assert the quarantine actually re-executed trials.
//!   A chaos run where nothing failed proves nothing.
//!
//! Everything is seeded, so a failing matrix is replayable exactly.

use crate::error::FleetError;
use crate::measure::{AlgoKind, Execution};
use crate::procs::{run_plan_sharded_procs_supervised, ProcsConfig, SupervisionReport};
use crate::run::{run_plan_cached, FleetConfig, FleetOutput};
use crate::sink::{write_aggregate_json, JsonlSink};
use crate::spec::TrialPlan;
use crate::tape;
use crate::WorkerStatus;
use sleepy_graph::GraphFamily;
use sleepy_net::{CrashWindow, EngineConfig, FaultPlan};
use sleepy_store::{Store, StoreFault, StoreFaultInjector};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Parameters of one chaos matrix run.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// The `fleet` binary to spawn workers from (the kill/wedge legs
    /// run real child processes).
    pub fleet_bin: PathBuf,
    /// Scratch directory for stores, plans, and shard outputs.
    pub dir: PathBuf,
    /// Master seed: plan seeds, fault seeds, and tape seeds all derive
    /// from it.
    pub seed: u64,
    /// Node count of the matrix workloads.
    pub n: usize,
    /// Trials per job.
    pub trials: usize,
    /// Worker processes for the supervision legs.
    pub procs: usize,
    /// Worker threads for in-process runs (0 = all cores).
    pub threads: usize,
    /// Wait timeout for the wedge leg, in seconds (kept small: the
    /// wedged attempt really sits out the whole window).
    pub wedge_timeout_secs: u64,
}

impl ChaosConfig {
    /// The CI shape: small plan, two workers, everything in seconds.
    pub fn smoke(fleet_bin: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        ChaosConfig {
            fleet_bin: fleet_bin.into(),
            dir: dir.into(),
            seed: 0xC4A05,
            n: 32,
            trials: 2,
            procs: 2,
            threads: 1,
            wedge_timeout_secs: 2,
        }
    }

    /// The default shape: a somewhat larger plan and three workers.
    pub fn full(fleet_bin: impl Into<PathBuf>, dir: impl Into<PathBuf>) -> Self {
        ChaosConfig {
            fleet_bin: fleet_bin.into(),
            dir: dir.into(),
            seed: 0xC4A05,
            n: 48,
            trials: 4,
            procs: 3,
            threads: 0,
            wedge_timeout_secs: 3,
        }
    }
}

/// One leg of the matrix: a fault class plus the verdict on its
/// recovery invariant.
#[derive(Debug, Clone)]
pub struct ChaosLeg {
    /// Leg name (`worker-kill`, `store-truncate`, ...).
    pub name: &'static str,
    /// Whether every assertion of the leg held.
    pub passed: bool,
    /// Human-readable evidence (what was injected, what recovered) or
    /// the first failed assertion.
    pub detail: String,
}

/// The full matrix outcome.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Every leg, in execution order.
    pub legs: Vec<ChaosLeg>,
}

impl ChaosReport {
    /// Whether every leg passed.
    pub fn passed(&self) -> bool {
        self.legs.iter().all(|l| l.passed)
    }
}

impl std::fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for leg in &self.legs {
            writeln!(
                f,
                "{} {}: {}",
                if leg.passed { "ok  " } else { "FAIL" },
                leg.name,
                leg.detail
            )?;
        }
        write!(
            f,
            "chaos: {}/{} legs passed",
            self.legs.iter().filter(|l| l.passed).count(),
            self.legs.len()
        )
    }
}

/// The trials.jsonl and aggregates.json bytes of one run — the
/// byte-identity oracle currency.
struct Artifacts {
    trials: Vec<u8>,
    aggregates: Vec<u8>,
    output: FleetOutput,
}

/// Runs `plan` in-process, capturing artifacts (optionally against a
/// store).
fn run_artifacts(
    plan: &TrialPlan,
    config: &FleetConfig,
    store: Option<&mut Store>,
    read_cache: bool,
) -> Result<Artifacts, FleetError> {
    let mut trials = JsonlSink::new(Vec::new());
    let output = run_plan_cached(plan, config, &mut [&mut trials], store, read_cache)?;
    let mut aggregates = Vec::new();
    write_aggregate_json(&mut aggregates, &output.report(plan))?;
    Ok(Artifacts { trials: trials.into_inner(), aggregates, output })
}

/// The store's live records as a key → compact-payload map (stamps are
/// wall-clock metadata and excluded on purpose).
fn store_payloads(store: &Store) -> BTreeMap<String, String> {
    store
        .entries()
        .map(|e| (e.key.to_string(), serde::value::to_compact_string(e.payload)))
        .collect()
}

/// Asserts `got` equals `want` byte-for-byte, naming the artifact.
fn expect_bytes(what: &str, got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let at = got.iter().zip(want).take_while(|(a, b)| a == b).count();
        Err(format!(
            "{what} diverged from the oracle at byte {at} ({} vs {} bytes)",
            got.len(),
            want.len()
        ))
    }
}

/// Runs the full matrix. Infrastructure errors (a scratch directory
/// that cannot be created, a plan that cannot run at all) surface as
/// `Err`; *invariant violations* land as failed legs in the report.
///
/// # Errors
///
/// Setup failures only — see above.
pub fn run_chaos_matrix(cfg: &ChaosConfig) -> Result<ChaosReport, FleetError> {
    std::fs::create_dir_all(&cfg.dir)?;
    let plan = matrix_plan(cfg);
    let fleet_config = FleetConfig { threads: cfg.threads, shard_size: 8, progress: false };

    // The fault-free oracle every infrastructure leg must reproduce.
    let oracle = run_artifacts(&plan, &fleet_config, None, false)?;

    let mut report = ChaosReport::default();
    let mut leg = |name: &'static str, result: Result<String, String>| match result {
        Ok(detail) => report.legs.push(ChaosLeg { name, passed: true, detail }),
        Err(detail) => report.legs.push(ChaosLeg { name, passed: false, detail }),
    };

    leg("worker-kill", kill_leg(cfg, &plan, &fleet_config, &oracle));
    leg("worker-wedge", wedge_leg(cfg, &plan, &fleet_config, &oracle));
    leg("store-truncate", store_leg(cfg, &plan, &fleet_config, &oracle, "truncate"));
    leg("store-bitflip", store_leg(cfg, &plan, &fleet_config, &oracle, "bitflip"));
    leg("store-manifest", store_leg(cfg, &plan, &fleet_config, &oracle, "manifest"));
    leg("engine-burst", tape_leg(cfg, "burst"));
    leg("engine-crash", tape_leg(cfg, "crash"));
    Ok(report)
}

/// The matrix plan: two families × two algorithms at the configured
/// size and trial count.
fn matrix_plan(cfg: &ChaosConfig) -> TrialPlan {
    TrialPlan::sweep(
        &[GraphFamily::GnpAvgDeg(6.0), GraphFamily::Tree],
        &[cfg.n],
        &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
        cfg.trials,
        cfg.seed,
        Execution::Auto,
    )
}

/// Shared tail of the two supervision legs: run supervised with the
/// given chaos injection, then assert oracle bytes and a nonempty
/// failure record.
fn supervised_leg(
    plan: &TrialPlan,
    fleet_config: &FleetConfig,
    procs_config: &ProcsConfig,
    dir: &std::path::Path,
    oracle: &Artifacts,
) -> Result<(Artifacts, SupervisionReport), String> {
    let mut trials = JsonlSink::new(Vec::new());
    let (output, sup) = run_plan_sharded_procs_supervised(
        plan,
        fleet_config,
        procs_config,
        dir,
        &mut [&mut trials],
    )
    .map_err(|e| format!("supervised run failed: {e}"))?;
    let mut aggregates = Vec::new();
    write_aggregate_json(&mut aggregates, &output.report(plan))
        .map_err(|e| format!("serializing aggregates: {e}"))?;
    let got = Artifacts { trials: trials.into_inner(), aggregates, output };
    expect_bytes("trials.jsonl", &got.trials, &oracle.trials)?;
    expect_bytes("aggregates.json", &got.aggregates, &oracle.aggregates)?;
    if sup.retries == 0 {
        return Err("supervisor recorded no retries — the fault was not injected".into());
    }
    Ok((got, sup))
}

/// Worker-kill leg: one worker dies with exit 17 halfway through its
/// shard; the supervisor must classify, retry, and still produce
/// oracle bytes.
fn kill_leg(
    cfg: &ChaosConfig,
    plan: &TrialPlan,
    fleet_config: &FleetConfig,
    oracle: &Artifacts,
) -> Result<String, String> {
    let victim = cfg.procs - 1;
    let mut procs_config = ProcsConfig::new(&cfg.fleet_bin, cfg.procs);
    procs_config.backoff_base_ms = 10;
    procs_config.chaos_kill = Some(victim);
    let dir = cfg.dir.join("kill");
    let (_, sup) = supervised_leg(plan, fleet_config, &procs_config, &dir, oracle)?;
    let seventeen = sup
        .failures
        .iter()
        .any(|f| f.worker == victim && f.status == WorkerStatus::Exited { code: Some(17) });
    if !seventeen {
        return Err(format!(
            "no Exited{{17}} failure recorded for worker {victim}: {:?}",
            sup.failures
        ));
    }
    Ok(format!(
        "worker {victim} killed mid-shard, {} retr{} healed it, bytes == oracle",
        sup.retries,
        if sup.retries == 1 { "y" } else { "ies" }
    ))
}

/// Worker-wedge leg: one worker hangs forever; the wait timeout must
/// kill it, the retry must complete the shard, bytes must equal the
/// oracle.
fn wedge_leg(
    cfg: &ChaosConfig,
    plan: &TrialPlan,
    fleet_config: &FleetConfig,
    oracle: &Artifacts,
) -> Result<String, String> {
    let victim = 0;
    let mut procs_config = ProcsConfig::new(&cfg.fleet_bin, cfg.procs);
    procs_config.backoff_base_ms = 10;
    procs_config.wait_timeout_secs = Some(cfg.wedge_timeout_secs);
    procs_config.chaos_wedge = Some(victim);
    let dir = cfg.dir.join("wedge");
    let (_, sup) = supervised_leg(plan, fleet_config, &procs_config, &dir, oracle)?;
    let timed_out = sup.failures.iter().any(|f| {
        f.worker == victim
            && f.status == WorkerStatus::TimedOut { timeout_secs: cfg.wedge_timeout_secs }
    });
    if !timed_out {
        return Err(format!(
            "no TimedOut failure recorded for worker {victim}: {:?}",
            sup.failures
        ));
    }
    Ok(format!(
        "worker {victim} wedged, killed after {}s, retry healed it, bytes == oracle",
        cfg.wedge_timeout_secs
    ))
}

/// Store leg: cold run into a store, corrupt it the named way, reopen
/// (quarantine), warm rerun — bytes and surviving payloads must equal
/// the fault-free run, and quarantined trials must actually re-execute.
fn store_leg(
    cfg: &ChaosConfig,
    plan: &TrialPlan,
    fleet_config: &FleetConfig,
    oracle: &Artifacts,
    kind: &'static str,
) -> Result<String, String> {
    let dir = cfg.dir.join(format!("store-{kind}"));
    let fe = |e: FleetError| format!("store leg setup: {e}");
    let mut store = Store::open(&dir).map_err(|e| fe(e.into()))?;
    let cold = run_artifacts(plan, fleet_config, Some(&mut store), true).map_err(fe)?;
    expect_bytes("cold trials.jsonl", &cold.trials, &oracle.trials)?;
    let before = store_payloads(&store);
    drop(store);

    let mut injector = StoreFaultInjector::new(&dir, cfg.seed ^ 0x5707E);
    let fault = match kind {
        "truncate" => injector.truncate_segment(),
        "bitflip" => injector.flip_bit(),
        _ => injector.tear_manifest(),
    }
    .map_err(|e| format!("injecting fault: {e}"))?;
    if fault == StoreFault::Nothing {
        return Err("nothing to corrupt — the cold run stored no segments".into());
    }

    let mut store = Store::open(&dir).map_err(|e| fe(e.into()))?;
    let warm = run_artifacts(plan, fleet_config, Some(&mut store), true).map_err(fe)?;
    expect_bytes("warm trials.jsonl", &warm.trials, &oracle.trials)?;
    expect_bytes("warm aggregates.json", &warm.aggregates, &oracle.aggregates)?;
    let after = store_payloads(&store);
    if after != before {
        return Err(format!(
            "healed store diverged: {} records before, {} after",
            before.len(),
            after.len()
        ));
    }
    let executed = warm.output.cache.executed;
    let hits = warm.output.cache.hits;
    match kind {
        // Data corruption quarantines at least one segment, so the
        // warm rerun must have re-executed something.
        "truncate" | "bitflip" if executed == 0 => {
            Err("corruption injected but the warm rerun re-executed nothing".into())
        }
        // A torn manifest loses no data: everything must be served.
        "manifest" if executed != 0 => {
            Err(format!("manifest tear should lose nothing, yet {executed} trials re-executed"))
        }
        _ => Ok(format!(
            "{fault}; rerun healed it ({executed} re-executed, {hits} served), bytes == oracle"
        )),
    }
}

/// Engine-fault leg: a fault plan deliberately changes results, so the
/// invariant is reproducibility — record the same faulted run twice,
/// require identical tape bytes, and require the tape to replay.
fn tape_leg(cfg: &ChaosConfig, kind: &'static str) -> Result<String, String> {
    let fault = match kind {
        "burst" => FaultPlan::Burst {
            p_enter: 0.1,
            p_exit: 0.3,
            loss_good: 0.02,
            loss_bad: 0.9,
            seed: cfg.seed ^ 0xB0B0,
        },
        _ => FaultPlan::Crash { windows: vec![CrashWindow { node: 0, start: 0, end: 50 }] },
    };
    let config = EngineConfig { fault, ..EngineConfig::default() };
    let record = || {
        tape::record_tape(AlgoKind::SleepingMis, GraphFamily::Star, cfg.n, cfg.seed, &config)
            .map(|t| t.to_jsonl())
            .map_err(|e| format!("recording {kind} tape: {e}"))
    };
    let first = record()?;
    let second = record()?;
    if first != second {
        return Err(format!("two recordings of the same {kind}-faulted run differ"));
    }
    let report = tape::replay_text(&format!("chaos-{kind}"), &first)
        .map_err(|e| format!("replaying {kind} tape: {e}"))?;
    Ok(format!("faulted run recorded twice identically ({} bytes); {report}", first.len()))
}
