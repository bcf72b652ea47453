//! The repository benchmark: four workloads over the fleet runtime,
//! each timed end to end with tracing off and replayed layer by layer
//! in a separate traced run. README.md records why each workload exists
//! and which end-to-end metric each layer metric should move.
//!
//! One process runs one workload:
//!
//! 1. **setup** — preparation before the first timed call, repeated
//!    and reported as a median (`setup_s`);
//! 2. **reference** — one untimed call whose report bytes every later
//!    call must reproduce;
//! 3. **timed calls** into the real fleet entry point until `--seconds`
//!    have been measured, with VmHWM reset before and read after each
//!    (`peak_rss_mb` is the median peak);
//! 4. **traced replay** of the same trials through each layer's public
//!    function, one span per call, which must reproduce the reference
//!    bytes too. With `--trace 1` it also yields the per-layer metrics.
//!
//! Every gate runs before anything is printed. A failed gate prints
//! `"correct": false`; an operation whose output is not an MIS (or
//! that errors) is counted in `failed` and the run goes on.

mod layers;
mod replay;
mod trace;
mod workloads;

use replay::Counts;
use std::fs;
use std::path::{Path, PathBuf};
use trace::{now, secs_since, SpanLog, Summary};

/// Command-line synopsis.
pub const USAGE: &str =
    "usage: perfbench --workload <sweep-exec|sweep-engine|store-warm|churn> --seed <n> \
     --seconds <s> --trace <0|1>";

/// The workloads, by their BENCHMARK.json names.
pub const WORKLOADS: [&str; 4] = ["sweep-exec", "sweep-engine", "store-warm", "churn"];

/// Directory, relative to the working directory, that holds each run's
/// scratch files (stores, the span file); removed when the run ends.
pub const SCRATCH_ROOT: &str = ".perfbench-tmp";

/// Input sizes: the benchmark's own, or tiny ones for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes BENCHMARK.json's workloads are defined at.
    Full,
    /// Sizes small enough for a test to run every gate in seconds.
    Tiny,
}

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Seconds of timed calls to measure.
    pub seconds: f64,
    /// Print the per-layer metrics of the traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed flag.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => {
                    workload = Some(value.clone())
                }
                "--workload" => return Err(format!("unknown workload {value:?}")),
                "--seed" => {
                    seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?)
                }
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            scale: Scale::Full,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// BENCHMARK.json name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Outcome {
    /// Every gate passed.
    pub correct: bool,
    /// Distinct operations the workload attempts (trials; churn phases
    /// on `churn`): those of the reference call, which every timed call
    /// repeats with byte-identical results.
    pub attempted: u64,
    /// Of those, operations whose output failed `verify_mis` or that
    /// returned an error.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones with `--trace 1`.
    pub metrics: Vec<Metric>,
    /// Human-readable report printed before the JSON line.
    pub lines: Vec<String>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure (an unwritable scratch
/// directory, an unreadable `/proc/self/status`).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let scratch = Scratch::create(&args.workload)?;
    drive(workloads::build(args).as_mut(), args, &scratch)
}

/// A per-run scratch directory under [`SCRATCH_ROOT`], removed on drop.
pub(crate) struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn create(workload: &str) -> Result<Scratch, String> {
        let dir = Path::new(SCRATCH_ROOT).join(format!("{workload}-{}", std::process::id()));
        // A directory left by a killed run with a recycled pid.
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Scratch { dir })
    }

    /// A path inside the scratch directory.
    pub(crate) fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
        // Only succeeds once no other run is using the root.
        let _ = fs::remove_dir(SCRATCH_ROOT);
    }
}

/// One untraced call into a plan entry point.
#[derive(Debug)]
pub(crate) struct Rep {
    /// Wall time of the call.
    pub wall: f64,
    /// Trials completed.
    pub trials: u64,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Cache hits the call reported.
    pub hits: u64,
    /// The serialized aggregate report (or the error).
    pub bytes: String,
}

/// Paper-level quantities of a reference call, summed over trials.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Tally {
    /// Trials (static) or initial full runs (churn) summed below.
    pub runs: f64,
    pub node_avg_awake: f64,
    pub worst_awake: f64,
    /// Awake rounds spent absorbing updates, and the updates absorbed.
    pub update_awake: f64,
    pub updates: f64,
}

impl Tally {
    /// Adds one full run of the algorithm. With `arrivals` (static
    /// trials) the run also counts as absorbing all `n` nodes as
    /// arrivals in one from-scratch pass, so its awake cost per update
    /// is its node-averaged awake complexity.
    pub fn add_run(&mut self, s: &sleepy_net::ComplexitySummary, arrivals: bool) {
        self.runs += 1.0;
        self.node_avg_awake += s.node_avg_awake;
        self.worst_awake += s.worst_awake as f64;
        if arrivals {
            self.update_awake += s.node_avg_awake * s.n as f64;
            self.updates += s.n as f64;
        }
    }
}

/// The reference call: the bytes every later call must reproduce.
pub(crate) struct Reference {
    /// Report bytes per plan variant (store-warm replays three sweeps).
    pub bytes: Vec<String>,
    pub tally: Tally,
    /// Operations of all variants, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
}

/// Spans and counts of the traced replay.
pub(crate) struct Traced {
    /// Spans inside the traced calls' wall time.
    pub timed: SpanLog,
    /// Spans of preparation outside it (store opens and fills).
    pub setup: SpanLog,
    /// Counts of the current traced call.
    pub counts: Counts,
    /// Counts of the preparation.
    pub setup_counts: Counts,
}

/// What one workload supplies to the shared driver.
pub(crate) trait Bench {
    /// Threads the entry point runs on.
    fn threads(&self) -> usize;
    /// Operations one call attempts.
    fn ops_per_call(&self) -> u64;
    /// `verify_mis` calls one traced call makes.
    fn verifications_per_call(&self) -> u64;
    /// Which reference variant call `i` reproduces.
    fn variant(&self, _i: usize) -> usize {
        0
    }
    /// Cache hits call `i` must report.
    fn expected_hits(&self, _i: usize) -> u64 {
        0
    }
    /// One preparation (the `rep`-th); returns its timed seconds.
    fn setup(&mut self, scratch: &Scratch, rep: usize) -> Result<f64, String>;
    /// The untimed reference call(s).
    fn reference(&mut self, scratch: &Scratch, gates: &mut Gates) -> Result<Reference, String>;
    /// Timed call `i` into the entry point.
    fn timed(&mut self, scratch: &Scratch, i: usize) -> Result<Rep, String>;
    /// Traced preparation, for the write-path layer metrics (trace mode).
    fn traced_setup(
        &mut self,
        _scratch: &Scratch,
        _t: &mut Traced,
        _reference: &Reference,
        _gates: &mut Gates,
    ) -> Result<(), String> {
        Ok(())
    }
    /// Traced replay of call `i`: returns its report bytes (or the
    /// error) and the wall time that matches the timed call's.
    fn traced(
        &mut self,
        scratch: &Scratch,
        i: usize,
        t: &mut Traced,
    ) -> Result<(String, f64), String>;
}

/// Gate verdicts, printed before any timing.
#[derive(Debug, Default)]
pub(crate) struct Gates {
    lines: Vec<String>,
    failed: bool,
}

impl Gates {
    /// Records gate `name`: passes when `ok`, else fails with `detail`.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.lines.push(format!("gate {name}: ok"));
        } else {
            self.failed = true;
            self.lines.push(format!("gate {name}: FAILED: {}", detail()));
        }
    }
}

/// Minimum preparations and timed calls per run, whatever `--seconds`.
const MIN_SETUPS: usize = 3;
const MIN_CALLS: usize = 3;
/// Setup samples stop once they have taken this long.
const SETUP_BUDGET_S: f64 = 0.25;
const MAX_SETUPS: usize = 101;
/// Each setup sample averages preparations until they add up to this
/// long, so sub-microsecond preparations are not read at clock
/// resolution.
const SETUP_SAMPLE_S: f64 = 0.002;
/// Calls per layer the trace mode aims for, so its p90s rest on at
/// least this many samples.
const TRACE_CALLS: u64 = 100;
/// Traced calls at least, in trace mode: one more than the traced
/// fill's single (empty-store) open, so `store.open_ms_p50` is a real
/// open on `store-warm`.
const MIN_TRACED_CALLS: u64 = 2;

fn drive(bench: &mut dyn Bench, args: &Args, scratch: &Scratch) -> Result<Outcome, String> {
    let mut gates = Gates::default();

    let mut setup_secs = Vec::new();
    let mut preparations = 0;
    let started = now();
    while setup_secs.len() < MIN_SETUPS
        || (secs_since(started) < SETUP_BUDGET_S && setup_secs.len() < MAX_SETUPS)
    {
        let (mut sum, mut k) = (0.0, 0);
        while k == 0 || sum < SETUP_SAMPLE_S {
            sum += bench.setup(scratch, preparations)?;
            preparations += 1;
            k += 1;
        }
        setup_secs.push(sum / k as f64);
    }
    let reference = bench.reference(scratch, &mut gates)?;

    let mut reps: Vec<Rep> = Vec::new();
    let mut peaks_mb = Vec::new();
    let mut resets_ok = true;
    let mut measured = 0.0;
    while reps.len() < MIN_CALLS || measured < args.seconds {
        resets_ok &= reset_vm_hwm().is_ok();
        let rep = bench.timed(scratch, reps.len())?;
        peaks_mb.push(vm_hwm_kb()? as f64 / 1024.0);
        measured += rep.wall;
        reps.push(rep);
    }
    let repeat_ok =
        reps.iter().enumerate().all(|(i, r)| r.bytes == reference.bytes[bench.variant(i)]);
    gates.check("repeat-exact", repeat_ok, || {
        "a timed call's report bytes differ from the reference call's".into()
    });
    let hits_ok = reps.iter().enumerate().all(|(i, r)| r.hits == bench.expected_hits(i));
    gates.check("cache-hits", hits_ok, || {
        let got: Vec<u64> = reps.iter().map(|r| r.hits).collect();
        format!("hits per call {got:?}, expected {}", bench.expected_hits(0))
    });

    let epoch = now();
    let mut traced = Traced {
        timed: SpanLog::new(epoch),
        setup: SpanLog::new(epoch),
        counts: Counts::default(),
        setup_counts: Counts::default(),
    };
    if args.trace {
        bench.traced_setup(scratch, &mut traced, &reference, &mut gates)?;
    }
    let traced_calls = if args.trace {
        TRACE_CALLS.div_ceil(bench.ops_per_call()).max(MIN_TRACED_CALLS)
    } else {
        1
    };
    let mut traced_walls = Vec::new();
    let mut call_counts: Vec<Counts> = Vec::new();
    let mut traced_bytes_ok = true;
    for i in 0..traced_calls as usize {
        traced.counts = Counts::default();
        let (bytes, wall) = bench.traced(scratch, i, &mut traced)?;
        traced_bytes_ok &= bytes == reference.bytes[bench.variant(i)];
        traced_walls.push(wall);
        call_counts.push(traced.counts);
    }
    gates.check("traced-bytes", traced_bytes_ok, || {
        "the traced replay's report bytes differ from the untraced call's".into()
    });
    let first = call_counts[0];
    let counts_ok = call_counts.iter().all(|c| *c == first);
    gates.check("counts-exact", counts_ok, || "traced calls counted different work".into());
    let failed_per_call = reps[0].failed;
    gates.check(
        "verified",
        first.verified == bench.verifications_per_call()
            && (first.verified == 0 || first.invalid == failed_per_call),
        || {
            format!(
                "traced call verified {} outputs ({} invalid); expected {} verifications, {} failures",
                first.verified,
                first.invalid,
                bench.verifications_per_call(),
                failed_per_call
            )
        },
    );

    let Traced { timed: timed_log, setup: mut log, setup_counts, .. } = traced;
    let timed = Summary::of(timed_log.spans());
    log.adopt(timed_log);
    let spans = log.spans().len();
    let span_file = scratch.path("spans.jsonl");
    write_spans(&span_file, &log).map_err(|e| format!("writing {}: {e}", span_file.display()))?;

    let (attempted, failed) = (reference.attempted, reference.failed);
    let untraced_wall = median(reps.iter().map(|r| r.wall).collect());
    let digest = sleepy_store::fnv1a64(reference.bytes.concat().as_bytes());
    let mut lines = vec![format!(
        "workload {} seed {} threads {} (of {} available)",
        args.workload,
        args.seed,
        bench.threads(),
        std::thread::available_parallelism().map_or(0, |p| p.get())
    )];
    lines.push(format!("digest {digest:016x}"));
    lines.extend(gates.lines.iter().cloned());
    lines.push(format!(
        "setup samples x{}, timed calls x{} ({:.2} s measured), traced calls x{}, {spans} spans",
        setup_secs.len(),
        reps.len(),
        measured,
        traced_calls
    ));
    let mut walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    walls.sort_by(f64::total_cmp);
    lines.push(format!(
        "timed call wall s: min {:.4} median {:.4} max {:.4}",
        walls[0],
        untraced_wall,
        walls[walls.len() - 1]
    ));
    let peak_rss_mb = median(peaks_mb.clone());
    lines.push(format!(
        "VmHWM during a timed call MB: min {:.2} median {peak_rss_mb:.2} max {:.2}{}",
        peaks_mb.iter().copied().fold(f64::INFINITY, f64::min),
        peaks_mb.iter().copied().fold(0.0, f64::max),
        if resets_ok { "" } else { " (reset unavailable: peaks since process start)" }
    ));
    lines.push(format!(
        "operations: {attempted} attempted, {failed} failed ({:.4} of attempted)",
        if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 }
    ));

    let metrics = if args.trace {
        let all = Summary::of(log.spans());
        let mut totals = setup_counts;
        for c in &call_counts {
            totals.add(c);
        }
        let input = layers::Input {
            timed: &timed,
            all: &all,
            per_call: &first,
            totals: &totals,
            traced_wall: traced_walls.iter().sum(),
            threads: bench.threads() as f64,
            trace_overhead: median(traced_walls) / untraced_wall - 1.0,
        };
        let (metrics, table) = layers::metrics(&input);
        lines.extend(table);
        metrics
    } else {
        let t = &reference.tally;
        let per_run = |x: f64| if t.runs == 0.0 { 0.0 } else { x / t.runs };
        let e2e = vec![
            metric(
                "trials_per_s",
                median(reps.iter().map(|r| r.trials as f64 / r.wall).collect()),
                "trials/s",
            ),
            metric("setup_s", median(setup_secs), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("node_avg_awake", per_run(t.node_avg_awake), "rounds"),
            metric("worst_awake", per_run(t.worst_awake), "rounds"),
            metric(
                "awake_per_update",
                if t.updates == 0.0 { 0.0 } else { t.update_awake / t.updates },
                "rounds",
            ),
        ];
        for m in &e2e {
            lines.push(format!("{:<18} {:>14.6} {}", m.name, m.value, m.unit));
        }
        e2e
    };
    Ok(Outcome { correct: !gates.failed, attempted, failed, metrics, lines })
}

pub(crate) fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// Median (mean of the middle pair for even counts); 0 when empty.
pub(crate) fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Writes the log's spans as JSON Lines.
fn write_spans(path: &Path, log: &SpanLog) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(fs::File::create(path)?);
    log.write_jsonl(&mut out)?;
    std::io::Write::flush(&mut out)
}

/// Resets this process's VmHWM to its current resident set size, so
/// the next read is the peak of what ran in between. Where `/proc` is
/// read-only the reads become peaks since process start.
fn reset_vm_hwm() -> std::io::Result<()> {
    fs::write("/proc/self/clear_refs", "5")
}

/// This process's peak resident set size (VmHWM), in kB.
fn vm_hwm_kb() -> Result<u64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = Args::parse(&argv("--workload churn --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("churn", 7, 10.0, true));
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload churn --seed x --seconds 1 --trace 0",
            "--workload churn --seed 1 --seconds 0 --trace 0",
            "--workload churn --seed 1 --seconds 1 --trace 2",
            "--workload churn --seed 1 --seconds 1",
            "--workload churn --seed 1 --seconds 1 --trace",
        ] {
            assert!(Args::parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn peak_rss_resets_to_the_current_size() {
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = vm_hwm_kb().unwrap();
        drop(big);
        reset_vm_hwm().unwrap();
        assert!(vm_hwm_kb().unwrap() + (32 << 10) < with_big, "the 64 MB peak was forgotten");
    }
}
