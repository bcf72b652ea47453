//! Result sinks: per-trial JSONL logs, aggregate JSON/CSV writers, and
//! the stdout and stderr writers the command-line runners print through.
//!
//! The runner feeds sinks in global trial order (and, within a dynamic
//! trial, phase order), so every sink's output is byte-identical across
//! thread counts.

use crate::measure::{ComplexityReport, PhaseReport};
use crate::run::{DynamicFleetReport, FleetReport};
use crate::spec::{DynamicJobSpec, JobSpec};
use std::io::{self, Write};

/// Writes `args` to stdout as `print!` does, except that a reader that
/// has gone away (`BrokenPipe`) is not an error: the files a run writes
/// and its exit status must not depend on whether anyone still reads
/// its stdout. Any other write failure panics, as `print!`'s does.
pub fn print_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().write_fmt(args) {
        assert!(e.kind() == io::ErrorKind::BrokenPipe, "failed printing to stdout: {e}");
    }
}

/// [`print_stdout`]'s twin for stderr: a closed stderr is not an error
/// either, and any other write failure panics, as `eprint!`'s does.
pub fn print_stderr(args: std::fmt::Arguments<'_>) {
    if let Err(e) = io::stderr().write_fmt(args) {
        assert!(e.kind() == io::ErrorKind::BrokenPipe, "failed printing to stderr: {e}");
    }
}

/// `println!` through [`print_stdout`](crate::sink::print_stdout): a
/// closed stdout is not an error.
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::sink::print_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`print_stderr`](crate::sink::print_stderr): a
/// closed stderr is not an error.
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::sink::print_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Context for one finished trial, as handed to sinks.
pub struct TrialRecord<'a> {
    /// Index of the job in the plan.
    pub job_index: usize,
    /// The job spec.
    pub job: &'a JobSpec,
    /// Trial index within the job.
    pub trial: usize,
    /// The trial's seed.
    pub seed: u64,
    /// The trial's measurements.
    pub report: &'a ComplexityReport,
}

/// Receives finished trials in deterministic global order.
pub trait TrialSink {
    /// Records one trial.
    ///
    /// # Errors
    ///
    /// I/O failures abort the run.
    fn record(&mut self, trial: &TrialRecord<'_>) -> io::Result<()>;

    /// Flushes buffered output at the end of the run.
    ///
    /// # Errors
    ///
    /// I/O failures abort the run.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one compact JSON object per trial (JSON Lines).
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer (callers typically pass a `BufWriter`).
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> TrialSink for JsonlSink<W> {
    fn record(&mut self, t: &TrialRecord<'_>) -> io::Result<()> {
        let s = &t.report.summary;
        // Assembled field by field (not via to_value) to keep the line
        // format an explicit, stable contract.
        let line = serde_json::json!({
            "job": t.job_index,
            "trial": t.trial,
            "seed": t.seed,
            "algo": t.report.algo,
            "workload": t.job.workload.label(),
            "n": t.report.n,
            "node_avg_awake": s.node_avg_awake,
            "worst_awake": s.worst_awake,
            "worst_round": s.worst_round,
            "node_avg_round": s.node_avg_round,
            "messages": s.total_messages,
            "mis_size": t.report.mis_size,
            "valid": t.report.valid,
            "base_timeouts": t.report.base_timeouts
        });
        writeln!(self.writer, "{line}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Context for one finished phase of a dynamic trial, as handed to
/// phase sinks.
pub struct PhaseRecord<'a> {
    /// Index of the job in the dynamic plan.
    pub job_index: usize,
    /// The dynamic job spec.
    pub job: &'a DynamicJobSpec,
    /// Trial index within the job.
    pub trial: usize,
    /// The trial's seed.
    pub seed: u64,
    /// The phase's measurements.
    pub report: &'a PhaseReport,
}

/// Receives finished phases of dynamic trials in deterministic global
/// order (trials in plan order, phases in phase order within a trial).
pub trait PhaseSink {
    /// Records one phase.
    ///
    /// # Errors
    ///
    /// I/O failures abort the run.
    fn record(&mut self, phase: &PhaseRecord<'_>) -> io::Result<()>;

    /// Flushes buffered output at the end of the run.
    ///
    /// # Errors
    ///
    /// I/O failures abort the run.
    fn finish(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one compact JSON object per phase (JSON Lines).
pub struct PhaseJsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> PhaseJsonlSink<W> {
    /// Wraps a writer (callers typically pass a `BufWriter`).
    pub fn new(writer: W) -> Self {
        PhaseJsonlSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: Write> PhaseSink for PhaseJsonlSink<W> {
    fn record(&mut self, t: &PhaseRecord<'_>) -> io::Result<()> {
        let r = &t.report.report;
        let s = &r.summary;
        let line = serde_json::json!({
            "job": t.job_index,
            "trial": t.trial,
            "seed": t.seed,
            "phase": t.report.phase,
            "algo": r.algo,
            "strategy": t.job.strategy.to_string(),
            "workload": t.job.workload.label(),
            "n": r.n,
            "m": t.report.m,
            "repair_scope": t.report.repair_scope,
            "carried": t.report.carried,
            "updates": t.report.updates.len(),
            "node_avg_awake": s.node_avg_awake,
            "worst_awake": s.worst_awake,
            "worst_round": s.worst_round,
            "node_avg_round": s.node_avg_round,
            "messages": s.total_messages,
            "mis_size": r.mis_size,
            "valid": r.valid,
            "base_timeouts": r.base_timeouts
        });
        writeln!(self.writer, "{line}")
    }

    fn finish(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Counts trials (cheap sink for tests and progress cross-checks).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Trials recorded.
    pub trials: u64,
}

impl TrialSink for CountingSink {
    fn record(&mut self, _t: &TrialRecord<'_>) -> io::Result<()> {
        self.trials += 1;
        Ok(())
    }
}

/// Serializes the aggregate report as pretty JSON.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_aggregate_json<W: Write>(mut w: W, report: &FleetReport) -> io::Result<()> {
    let text = serde_json::to_string_pretty(report).expect("report serializes");
    writeln!(w, "{text}")?;
    // Callers pass owned BufWriters; flushing here keeps deferred write
    // errors from being swallowed by Drop.
    w.flush()
}

/// Serializes a dynamic run's aggregate report as pretty JSON.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_dynamic_aggregate_json<W: Write>(
    mut w: W,
    report: &DynamicFleetReport,
) -> io::Result<()> {
    let text = serde_json::to_string_pretty(report).expect("report serializes");
    writeln!(w, "{text}")?;
    w.flush()
}

const CSV_HEADER: &str = "label,algo,workload,n,trials,valid_fraction,base_timeouts,\
avg_awake_mean,avg_awake_std,avg_awake_p50,avg_awake_p99,\
worst_awake_mean,worst_awake_p99,worst_round_mean,worst_round_p99,\
avg_round_mean,avg_round_p99,messages_mean,mis_size_mean";

/// Serializes the aggregate report as CSV (one row per job).
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_aggregate_csv<W: Write>(mut w: W, report: &FleetReport) -> io::Result<()> {
    writeln!(w, "{CSV_HEADER}")?;
    for j in &report.jobs {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_escape(&j.label),
            csv_escape(&j.algo),
            csv_escape(&j.workload),
            j.n,
            j.trials,
            j.valid_fraction,
            j.base_timeouts,
            j.node_avg_awake.mean,
            j.node_avg_awake.std_dev,
            j.node_avg_awake.p50,
            j.node_avg_awake.p99,
            j.worst_awake.mean,
            j.worst_awake.p99,
            j.worst_round.mean,
            j.worst_round.p99,
            j.node_avg_round.mean,
            j.node_avg_round.p99,
            j.messages.mean,
            j.mis_size.mean,
        )?;
    }
    w.flush()
}

fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{AlgoKind, Execution};
    use crate::run::{run_plan_with_sinks, FleetConfig};
    use crate::spec::TrialPlan;
    use sleepy_graph::GraphFamily;

    fn plan() -> TrialPlan {
        TrialPlan::sweep(
            &[GraphFamily::Cycle],
            &[32],
            &[AlgoKind::SleepingMis, AlgoKind::FastSleepingMis],
            4,
            77,
            Execution::Auto,
        )
    }

    #[test]
    fn jsonl_lines_are_ordered_and_thread_invariant() {
        let render = |threads: usize| {
            let mut sink = JsonlSink::new(Vec::new());
            let cfg = FleetConfig { threads, shard_size: 1, ..FleetConfig::default() };
            run_plan_with_sinks(&plan(), &cfg, &mut [&mut sink]).unwrap();
            String::from_utf8(sink.into_inner()).unwrap()
        };
        let a = render(1);
        let b = render(4);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), 8);
        assert!(a.lines().next().unwrap().contains("\"job\":0,\"trial\":0"));
        assert!(a.lines().last().unwrap().contains("\"job\":1,\"trial\":3"));
    }

    #[test]
    fn phase_jsonl_is_ordered_valid_and_thread_invariant() {
        use crate::measure::RepairStrategy;
        use crate::run::run_dynamic_plan_with_sinks;
        use crate::spec::DynamicPlan;
        use crate::workload::{DynamicWorkload, Workload};
        let plan = DynamicPlan::sweep(
            &[GraphFamily::Cycle],
            &[48],
            &[AlgoKind::SleepingMis],
            &[RepairStrategy::Repair],
            3,
            sleepy_graph::ChurnSpec::edges(0.1),
            2,
            99,
            Execution::Auto,
        );
        let render = |threads: usize| {
            let mut sink = PhaseJsonlSink::new(Vec::new());
            let cfg = FleetConfig { threads, shard_size: 1, ..FleetConfig::default() };
            run_dynamic_plan_with_sinks(&plan, &cfg, &mut [&mut sink]).unwrap();
            String::from_utf8(sink.into_inner()).unwrap()
        };
        let a = render(1);
        assert_eq!(a, render(4));
        // 1 job x 2 trials x 3 phases.
        assert_eq!(a.lines().count(), 6);
        assert!(a.lines().next().unwrap().contains("\"phase\":0"));
        assert!(a.lines().all(|l| l.contains("\"valid\":true")));
        assert!(a.contains("\"strategy\":\"repair\""));
        // The degenerate static case also flows through the sink.
        let w = DynamicWorkload::from_static(Workload::new(GraphFamily::Cycle, 16));
        assert_eq!(w.phases, 1);
    }

    #[test]
    fn counting_sink_counts() {
        let mut sink = CountingSink::default();
        run_plan_with_sinks(&plan(), &FleetConfig::default(), &mut [&mut sink]).unwrap();
        assert_eq!(sink.trials, 8);
    }

    #[test]
    fn csv_shape_and_escaping() {
        let p = plan();
        let out = crate::run::run_plan(&p, &FleetConfig::default()).unwrap();
        let mut buf = Vec::new();
        write_aggregate_csv(&mut buf, &out.report(&p)).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().next().unwrap().starts_with("label,algo"));
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("a\"b"), "\"a\"\"b\"");
        assert_eq!(csv_escape("plain"), "plain");
    }
}
