//! Engine tapes: serializable recordings of a run's complete
//! [`EngineInput`] sequence, replayable through the sans-io
//! [`SleepyEngine`] without any protocol code.
//!
//! A tape is the conformance artifact of the sans-io refactor. Because
//! the state machine's inputs carry only ports, bit sizes, and
//! [`Action`](crate::Action)s — never payloads — the full input stream
//! of any run fits in a small, versioned JSONL file, and replaying it
//! deterministically regenerates the *entire* output stream: every
//! round boundary, every trace event, every delivery, in the engine's
//! canonical byte order. [`replay_tape`] re-runs a tape and checks the
//! regenerated stream against the digest recorded at capture time, so a
//! committed tape corpus pins the engine's behavior byte-for-byte
//! across refactors (see `docs/tapes.md`).
//!
//! # Format (version 1)
//!
//! One JSON value per line:
//!
//! 1. a header line carrying the magic (`"tape":"sleepy-engine-tape"`),
//!    the format version, a label/seed stamped by the recording tool,
//!    the graph (`n` plus a canonical edge list — [`Graph::from_edges`]
//!    rebuilds the identical CSR from it), and the engine knobs that
//!    affect replay (`max_rounds`, `congest_bits`, the fault plan, and
//!    whether message-level events were generated);
//! 2. one line per [`EngineInput`], in order;
//! 3. an end line with the output count, the FNV-1a-64 digest of the
//!    output stream (each output rendered as compact JSON plus a
//!    newline), and the run's error, if it failed.
//!
//! Version 1 spells a [`FaultPlan::Iid`] plan as the header pair
//! `loss_probability`/`loss_seed` and writes no `fault` key; any other
//! plan is written as the pair `0.0`/`0` plus a `fault` key. On replay a
//! `fault` key other than `null` wins, and otherwise a nonzero pair is
//! the `Iid` plan. This module is the only place that knows the pair.

use crate::engine::EngineConfig;
use crate::fault::FaultPlan;
use crate::metrics::RunMetrics;
use crate::protocol::Action;
use crate::statemachine::{EngineInput, OutMsg, SleepyEngine};
use crate::Round;
use serde::{Serialize, Value};
use sleepy_graph::{Graph, NodeId, Port};

/// The tape format version this build writes and reads.
pub const TAPE_VERSION: u64 = 1;

/// Magic string identifying a tape header line.
const TAPE_MAGIC: &str = "sleepy-engine-tape";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a-64 digest.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// Digests one engine output exactly as the tape format defines it:
/// compact JSON rendering plus a trailing newline.
fn digest_output(fnv: &mut Fnv, output: &crate::statemachine::EngineOutput) {
    fnv.update(serde::value::to_compact_string(&output.to_value()).as_bytes());
    fnv.update(b"\n");
}

/// Everything needed to replay a tape: the graph, the engine knobs that
/// affect the run, and provenance stamps.
#[derive(Debug, Clone, PartialEq)]
pub struct TapeHeader {
    /// Human-readable provenance (e.g. `"alg1/star/n=8"`), stamped by
    /// the recording tool; empty when recorded via
    /// [`run_protocol_taped`](crate::run_protocol_taped) directly.
    pub label: String,
    /// The protocol seed the recording tool used (provenance only — the
    /// tape replays without protocol code).
    pub seed: u64,
    /// Node count.
    pub n: usize,
    /// Canonical edge list (`u < v`, ascending); [`Graph::from_edges`]
    /// rebuilds the identical port numbering from it.
    pub edges: Vec<(NodeId, NodeId)>,
    /// [`EngineConfig::max_rounds`] at capture time.
    pub max_rounds: Round,
    /// [`EngineConfig::congest_bits`] at capture time.
    pub congest_bits: Option<usize>,
    /// The loss probability of a [`FaultPlan::Iid`] plan at capture
    /// time, `0.0` for any other plan (exact: the JSON rendering
    /// round-trips the f64 bit pattern).
    pub loss_probability: f64,
    /// The seed of a [`FaultPlan::Iid`] plan at capture time, `0` for
    /// any other plan.
    pub loss_seed: u64,
    /// [`EngineConfig::fault`] at capture time unless it is
    /// [`FaultPlan::Iid`] (which rides in the pair above), else
    /// [`FaultPlan::None`]. Serialized as an optional `fault` header key
    /// only when it is not [`FaultPlan::None`], so fault-free and i.i.d.
    /// tapes keep their exact pre-fault byte layout.
    pub fault: FaultPlan,
    /// Whether message-level events were generated (the recording
    /// sink's [`wants_messages`](crate::TraceSink::wants_messages)) —
    /// part of the output stream's definition, so part of the tape.
    pub messages: bool,
}

impl TapeHeader {
    /// The fault plan a replay must run under: the `fault` key wins, and
    /// otherwise a nonzero loss pair is the [`FaultPlan::Iid`] plan.
    fn fault_plan(&self) -> FaultPlan {
        if self.fault.is_none() && self.loss_probability > 0.0 {
            FaultPlan::Iid { probability: self.loss_probability, seed: self.loss_seed }
        } else {
            self.fault.clone()
        }
    }

    /// The engine configuration a replay must run under.
    fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            max_rounds: self.max_rounds,
            congest_bits: self.congest_bits,
            fault: self.fault_plan(),
        }
    }

    /// Rebuilds the graph the tape was recorded on.
    fn graph(&self) -> Result<Graph, TapeError> {
        Graph::from_edges(self.n, self.edges.iter().copied())
            .map_err(|e| TapeError::Graph(e.to_string()))
    }
}

/// One recorded engine run: header, input stream, and the recorded
/// output digest that replays are held to.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    /// Replay context and provenance.
    pub header: TapeHeader,
    /// The complete input sequence, in the order the driver fed it.
    pub inputs: Vec<EngineInput>,
    /// Number of [`EngineOutput`](crate::EngineOutput)s the recorded run
    /// emitted.
    pub output_count: u64,
    /// FNV-1a-64 over the recorded output stream (compact JSON, one
    /// trailing newline per output).
    pub outputs_fnv: u64,
    /// The error the recorded run failed with, if any (rendered via
    /// `Display`); `None` for completed runs.
    pub error: Option<String>,
}

impl Tape {
    /// Serializes the tape to its canonical JSONL text (one trailing
    /// newline, byte-stable: re-serializing a parsed tape reproduces the
    /// input bytes).
    pub fn to_jsonl(&self) -> String {
        let h = &self.header;
        let edges: Vec<Value> = h
            .edges
            .iter()
            .map(|&(u, v)| Value::Array(vec![Value::UInt(u64::from(u)), Value::UInt(u64::from(v))]))
            .collect();
        let mut entries = vec![
            ("tape".to_string(), Value::String(TAPE_MAGIC.to_string())),
            ("version".to_string(), Value::UInt(TAPE_VERSION)),
            ("label".to_string(), Value::String(h.label.clone())),
            ("seed".to_string(), Value::UInt(h.seed)),
            ("n".to_string(), Value::UInt(h.n as u64)),
            ("edges".to_string(), Value::Array(edges)),
            ("max_rounds".to_string(), Value::UInt(h.max_rounds)),
            (
                "congest_bits".to_string(),
                h.congest_bits.map_or(Value::Null, |c| Value::UInt(c as u64)),
            ),
            ("loss_probability".to_string(), Value::Float(h.loss_probability)),
            ("loss_seed".to_string(), Value::UInt(h.loss_seed)),
        ];
        if !h.fault.is_none() {
            entries.push(("fault".to_string(), h.fault.to_value()));
        }
        entries.push(("messages".to_string(), Value::Bool(h.messages)));
        let header = Value::Object(entries);
        let mut out = String::new();
        out.push_str(&serde::value::to_compact_string(&header));
        out.push('\n');
        for input in &self.inputs {
            out.push_str(&serde::value::to_compact_string(&input.to_value()));
            out.push('\n');
        }
        let end = Value::Object(vec![
            ("end".to_string(), Value::Bool(true)),
            ("outputs".to_string(), Value::UInt(self.output_count)),
            ("fnv".to_string(), Value::String(format!("{:016x}", self.outputs_fnv))),
            (
                "error".to_string(),
                self.error.as_ref().map_or(Value::Null, |e| Value::String(e.clone())),
            ),
        ]);
        out.push_str(&serde::value::to_compact_string(&end));
        out.push('\n');
        out
    }

    /// Parses a tape from its JSONL text.
    ///
    /// # Errors
    ///
    /// [`TapeError::Parse`] (with a 1-based line number) on malformed
    /// lines, [`TapeError::Version`] on an unknown format version, and
    /// [`TapeError::Truncated`] when the end line is missing.
    pub fn from_jsonl(text: &str) -> Result<Tape, TapeError> {
        let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
        let (line_no, header_line) = lines.next().ok_or(TapeError::Truncated)?;
        let header = parse_header(line_no + 1, header_line)?;
        let mut inputs = Vec::new();
        let mut end: Option<(u64, u64, Option<String>)> = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            if end.is_some() {
                return Err(TapeError::Parse {
                    line: line_no,
                    reason: "content after the end line".to_string(),
                });
            }
            let v = serde_json::from_str(line)
                .map_err(|e| TapeError::Parse { line: line_no, reason: e.to_string() })?;
            if v.get("end").is_some() {
                end = Some(parse_end(line_no, &v)?);
            } else {
                inputs.push(parse_input(line_no, &v)?);
            }
        }
        let (output_count, outputs_fnv, error) = end.ok_or(TapeError::Truncated)?;
        Ok(Tape { header, inputs, output_count, outputs_fnv, error })
    }
}

fn field<'v>(line: usize, v: &'v Value, key: &str) -> Result<&'v Value, TapeError> {
    v.get(key).ok_or_else(|| TapeError::Parse { line, reason: format!("missing field `{key}`") })
}

fn field_u64(line: usize, v: &Value, key: &str) -> Result<u64, TapeError> {
    field(line, v, key)?.as_u64().ok_or_else(|| TapeError::Parse {
        line,
        reason: format!("field `{key}` is not an unsigned integer"),
    })
}

fn field_str<'v>(line: usize, v: &'v Value, key: &str) -> Result<&'v str, TapeError> {
    field(line, v, key)?
        .as_str()
        .ok_or_else(|| TapeError::Parse { line, reason: format!("field `{key}` is not a string") })
}

fn field_bool(line: usize, v: &Value, key: &str) -> Result<bool, TapeError> {
    match field(line, v, key)? {
        Value::Bool(b) => Ok(*b),
        _ => Err(TapeError::Parse { line, reason: format!("field `{key}` is not a boolean") }),
    }
}

fn field_node(line: usize, v: &Value, key: &str) -> Result<NodeId, TapeError> {
    NodeId::try_from(field_u64(line, v, key)?).map_err(|_| TapeError::Parse {
        line,
        reason: format!("field `{key}` exceeds the node id range"),
    })
}

fn parse_header(line: usize, text: &str) -> Result<TapeHeader, TapeError> {
    let v =
        serde_json::from_str(text).map_err(|e| TapeError::Parse { line, reason: e.to_string() })?;
    if field_str(line, &v, "tape")? != TAPE_MAGIC {
        return Err(TapeError::Parse { line, reason: "not a sleepy-engine-tape".to_string() });
    }
    let version = field_u64(line, &v, "version")?;
    if version != TAPE_VERSION {
        return Err(TapeError::Version { found: version });
    }
    let edges_v = field(line, &v, "edges")?.as_array().ok_or_else(|| TapeError::Parse {
        line,
        reason: "field `edges` is not an array".to_string(),
    })?;
    let mut edges = Vec::with_capacity(edges_v.len());
    for e in edges_v {
        let pair = e.as_array().filter(|p| p.len() == 2).ok_or_else(|| TapeError::Parse {
            line,
            reason: "edge is not a two-element array".to_string(),
        })?;
        let endpoint = |x: &Value| {
            x.as_u64().and_then(|u| NodeId::try_from(u).ok()).ok_or_else(|| TapeError::Parse {
                line,
                reason: "edge endpoint is not a node id".to_string(),
            })
        };
        edges.push((endpoint(&pair[0])?, endpoint(&pair[1])?));
    }
    let congest_bits = match field(line, &v, "congest_bits")? {
        Value::Null => None,
        c => Some(c.as_u64().ok_or_else(|| TapeError::Parse {
            line,
            reason: "field `congest_bits` is not an unsigned integer or null".to_string(),
        })? as usize),
    };
    let loss_probability = field(line, &v, "loss_probability")?.as_f64().ok_or_else(|| {
        TapeError::Parse { line, reason: "field `loss_probability` is not a number".to_string() }
    })?;
    // Optional for backward compatibility: pre-fault tapes have no
    // `fault` key and parse as `FaultPlan::None`.
    let fault = match v.get("fault") {
        None => FaultPlan::None,
        Some(f) => FaultPlan::from_value(f).map_err(|reason| TapeError::Parse { line, reason })?,
    };
    let header = TapeHeader {
        label: field_str(line, &v, "label")?.to_string(),
        seed: field_u64(line, &v, "seed")?,
        n: field_u64(line, &v, "n")? as usize,
        edges,
        max_rounds: field_u64(line, &v, "max_rounds")?,
        congest_bits,
        loss_probability,
        loss_seed: field_u64(line, &v, "loss_seed")?,
        fault,
        messages: field_bool(line, &v, "messages")?,
    };
    // The pair is an unvalidated plan until here; an out-of-range one
    // must not reach `FaultPlan::build`.
    header.fault_plan().validate().map_err(|reason| TapeError::Parse { line, reason })?;
    Ok(header)
}

fn parse_input(line: usize, v: &Value) -> Result<EngineInput, TapeError> {
    match field_str(line, v, "i")? {
        "sends" => {
            let node = field_node(line, v, "node")?;
            let msgs_v = field(line, v, "msgs")?.as_array().ok_or_else(|| TapeError::Parse {
                line,
                reason: "field `msgs` is not an array".to_string(),
            })?;
            let mut msgs = Vec::with_capacity(msgs_v.len());
            for m in msgs_v {
                let pair =
                    m.as_array().filter(|p| p.len() == 2).ok_or_else(|| TapeError::Parse {
                        line,
                        reason: "message is not a [port, bits] pair".to_string(),
                    })?;
                let uint = |x: &Value| {
                    x.as_u64().ok_or_else(|| TapeError::Parse {
                        line,
                        reason: "message entry is not an unsigned integer".to_string(),
                    })
                };
                msgs.push(OutMsg { port: uint(&pair[0])? as Port, bits: uint(&pair[1])? as usize });
            }
            Ok(EngineInput::Sends { node, msgs })
        }
        "step" => {
            let node = field_node(line, v, "node")?;
            let action = match field(line, v, "act")? {
                Value::String(s) if s == "c" => Action::Continue,
                Value::String(s) if s == "t" => Action::Terminate,
                obj => {
                    Action::SleepUntil(field_u64(line, obj, "s").map_err(|_| TapeError::Parse {
                        line,
                        reason: "field `act` is not \"c\", \"t\", or {\"s\": round}".to_string(),
                    })?)
                }
            };
            Ok(EngineInput::Step { node, action, output_some: field_bool(line, v, "out")? })
        }
        other => Err(TapeError::Parse { line, reason: format!("unknown input kind `{other}`") }),
    }
}

fn parse_end(line: usize, v: &Value) -> Result<(u64, u64, Option<String>), TapeError> {
    let outputs = field_u64(line, v, "outputs")?;
    let fnv_hex = field_str(line, v, "fnv")?;
    let fnv = u64::from_str_radix(fnv_hex, 16).map_err(|_| TapeError::Parse {
        line,
        reason: "field `fnv` is not a hex digest".to_string(),
    })?;
    let error = match field(line, v, "error")? {
        Value::Null => None,
        Value::String(s) => Some(s.clone()),
        _ => {
            return Err(TapeError::Parse {
                line,
                reason: "field `error` is not a string or null".to_string(),
            })
        }
    };
    Ok((outputs, fnv, error))
}

/// Records a run's inputs and output digest as the driver executes it.
/// Constructed by [`run_protocol_taped`](crate::run_protocol_taped).
#[derive(Debug)]
pub(crate) struct TapeRecorder {
    header: TapeHeader,
    inputs: Vec<EngineInput>,
    count: u64,
    fnv: Fnv,
}

impl TapeRecorder {
    pub(crate) fn new(graph: &Graph, config: &EngineConfig, messages: bool) -> Self {
        let (loss_probability, loss_seed, fault) = match config.fault {
            FaultPlan::Iid { probability, seed } => (probability, seed, FaultPlan::None),
            ref other => (0.0, 0, other.clone()),
        };
        TapeRecorder {
            header: TapeHeader {
                label: String::new(),
                seed: 0,
                n: graph.n(),
                edges: graph.edges().collect(),
                max_rounds: config.max_rounds,
                congest_bits: config.congest_bits,
                loss_probability,
                loss_seed,
                fault,
                messages,
            },
            inputs: Vec::new(),
            count: 0,
            fnv: Fnv::new(),
        }
    }

    pub(crate) fn record_input(&mut self, input: &EngineInput) {
        self.inputs.push(input.clone());
    }

    pub(crate) fn record_output(&mut self, output: &crate::statemachine::EngineOutput) {
        self.count += 1;
        digest_output(&mut self.fnv, output);
    }

    pub(crate) fn finish(self, error: Option<String>) -> Tape {
        Tape {
            header: self.header,
            inputs: self.inputs,
            output_count: self.count,
            outputs_fnv: self.fnv.0,
            error,
        }
    }
}

/// What a successful replay reproduced.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Number of outputs the replay emitted (equals the recorded count).
    pub output_count: u64,
    /// The replayed output stream's digest (equals the recorded digest).
    pub outputs_fnv: u64,
    /// The replayed run's error, if the recorded run failed (equals the
    /// recorded error).
    pub error: Option<String>,
    /// The replayed run's metrics, for completed runs (`None` when the
    /// tape records a failed run).
    pub metrics: Option<RunMetrics>,
}

/// Replays `tape` through a fresh [`SleepyEngine`] and checks the
/// regenerated output stream against the digest recorded at capture
/// time.
///
/// # Errors
///
/// [`TapeError::Graph`] if the header's graph is invalid, and
/// [`TapeError::Divergence`] whenever the replay does not reproduce the
/// recording exactly: an input the state machine rejects that the
/// recording did not, a premature end of input, or any mismatch in
/// output count, output digest, or recorded error.
pub fn replay_tape(tape: &Tape) -> Result<ReplayOutcome, TapeError> {
    let graph = tape.header.graph()?;
    let config = tape.header.engine_config();
    let mut sm = SleepyEngine::new(&graph, &config, tape.header.messages);
    let mut count: u64 = 0;
    let mut fnv = Fnv::new();
    let mut error: Option<String> = None;
    while let Some(o) = sm.poll_output() {
        count += 1;
        digest_output(&mut fnv, &o);
    }
    for (i, input) in tape.inputs.iter().enumerate() {
        if error.is_some() {
            return Err(TapeError::Divergence {
                reason: format!(
                    "input {i} follows an engine error; the recording fed {} inputs",
                    tape.inputs.len()
                ),
            });
        }
        if let Err(e) = sm.handle_input(input) {
            error = Some(e.to_string());
        }
        while let Some(o) = sm.poll_output() {
            count += 1;
            digest_output(&mut fnv, &o);
        }
    }
    if error.is_none() && !sm.is_finished() {
        return Err(TapeError::Divergence {
            reason: "tape input ended before the run finished".to_string(),
        });
    }
    if count != tape.output_count {
        return Err(TapeError::Divergence {
            reason: format!("replay emitted {count} outputs, tape recorded {}", tape.output_count),
        });
    }
    if fnv.0 != tape.outputs_fnv {
        return Err(TapeError::Divergence {
            reason: format!(
                "replay output digest {:016x} != recorded {:016x}",
                fnv.0, tape.outputs_fnv
            ),
        });
    }
    if error != tape.error {
        return Err(TapeError::Divergence {
            reason: format!("replay error {error:?} != recorded {:?}", tape.error),
        });
    }
    let metrics = if error.is_none() { Some(sm.finish()) } else { None };
    Ok(ReplayOutcome { output_count: count, outputs_fnv: fnv.0, error, metrics })
}

/// Tape parsing and replay failures.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TapeError {
    /// A line failed to parse (1-based line number).
    Parse {
        /// Line number in the JSONL text.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The tape was written by an unknown format version.
    Version {
        /// The version the header claims.
        found: u64,
    },
    /// The text ends before the end line (or is empty).
    Truncated,
    /// The header's graph description is invalid.
    Graph(String),
    /// The replay did not reproduce the recording.
    Divergence {
        /// What diverged.
        reason: String,
    },
}

impl std::fmt::Display for TapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TapeError::Parse { line, reason } => {
                write!(f, "tape parse error at line {line}: {reason}")
            }
            TapeError::Version { found } => {
                write!(f, "unsupported tape version {found} (this build reads {TAPE_VERSION})")
            }
            TapeError::Truncated => write!(f, "tape is truncated: no end line"),
            TapeError::Graph(e) => write!(f, "tape graph is invalid: {e}"),
            TapeError::Divergence { reason } => write!(f, "tape replay divergence: {reason}"),
        }
    }
}

impl std::error::Error for TapeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_protocol_taped, RunOutcome};
    use crate::message::{Incoming, Outbox};
    use crate::protocol::{NodeCtx, Protocol};
    use crate::sink::{NullSink, TraceBuffer};
    use crate::EngineError;

    /// Node 0 broadcasts its round; everyone terminates at round 3, except
    /// node 1 which sleeps rounds 1..=2.
    struct Mixer {
        id: NodeId,
        heard: u64,
    }
    impl Protocol for Mixer {
        type Msg = u64;
        type Output = u64;
        fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<u64>) {
            if self.id == 0 {
                out.broadcast(ctx.round);
            }
        }
        fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u64>]) -> Action {
            self.heard += inbox.len() as u64;
            match (self.id, ctx.round) {
                (1, 0) => Action::SleepUntil(3),
                (_, r) if r >= 3 => Action::Terminate,
                _ => Action::Continue,
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    fn record() -> (Result<RunOutcome<u64>, EngineError>, Tape) {
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        let cfg = EngineConfig {
            fault: FaultPlan::Iid { probability: 0.1, seed: 5 },
            ..EngineConfig::default()
        };
        let mut buffer = TraceBuffer::new(true);
        run_protocol_taped(&g, &cfg, |id, _| Mixer { id, heard: 0 }, &mut buffer)
    }

    #[test]
    fn record_replay_round_trip() {
        let (run, tape) = record();
        let run = run.unwrap();
        assert!(tape.error.is_none());
        assert!(!tape.inputs.is_empty());
        let replay = replay_tape(&tape).unwrap();
        assert_eq!(replay.output_count, tape.output_count);
        assert_eq!(replay.outputs_fnv, tape.outputs_fnv);
        assert_eq!(replay.metrics.as_ref(), Some(&run.metrics));
    }

    #[test]
    fn jsonl_round_trip_is_byte_stable() {
        let (_, mut tape) = record();
        tape.header.label = "mixer/triangle/n=3".to_string();
        tape.header.seed = 17;
        let text = tape.to_jsonl();
        let parsed = Tape::from_jsonl(&text).unwrap();
        assert_eq!(parsed, tape);
        assert_eq!(parsed.to_jsonl(), text);
        replay_tape(&parsed).unwrap();
    }

    #[test]
    fn tampered_tape_diverges() {
        let (_, mut tape) = record();
        // Flip one recorded Step's action to sleeping: the replayed output
        // stream must no longer match the recorded digest (or the input
        // becomes outright invalid), never silently pass.
        let step = tape
            .inputs
            .iter()
            .position(|i| matches!(i, EngineInput::Step { .. }))
            .expect("every run has steps");
        if let EngineInput::Step { action, .. } = &mut tape.inputs[step] {
            *action = Action::SleepUntil(100);
        }
        let err = replay_tape(&tape).unwrap_err();
        assert!(matches!(err, TapeError::Divergence { .. }), "got {err}");
    }

    #[test]
    fn failed_runs_are_faithfully_replayed() {
        /// Sends on a port it does not have at round 1.
        struct BadSecondRound(NodeId);
        impl Protocol for BadSecondRound {
            type Msg = ();
            type Output = ();
            fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<()>) {
                if ctx.round == 1 && self.0 == 0 {
                    out.send(99, ());
                }
            }
            fn receive(&mut self, _: &NodeCtx, _: &[Incoming<()>]) -> Action {
                Action::Continue
            }
            fn output(&self) -> Option<()> {
                None
            }
        }
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let (run, tape) = run_protocol_taped(
            &g,
            &EngineConfig::default(),
            |id, _| BadSecondRound(id),
            &mut NullSink,
        );
        let err = run.unwrap_err();
        assert!(matches!(err, EngineError::InvalidPort { .. }));
        assert_eq!(tape.error.as_deref(), Some(err.to_string().as_str()));
        let replay = replay_tape(&tape).unwrap();
        assert_eq!(replay.error, tape.error);
        assert!(replay.metrics.is_none());
        // And the error survives a serialization round trip.
        let parsed = Tape::from_jsonl(&tape.to_jsonl()).unwrap();
        assert_eq!(parsed, tape);
        replay_tape(&parsed).unwrap();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(Tape::from_jsonl(""), Err(TapeError::Truncated)));
        assert!(matches!(
            Tape::from_jsonl("{\"tape\":\"other\"}\n"),
            Err(TapeError::Parse { line: 1, .. })
        ));
        let versioned =
            "{\"tape\":\"sleepy-engine-tape\",\"version\":99,\"label\":\"\",\"seed\":0,\
             \"n\":0,\"edges\":[],\"max_rounds\":10,\"congest_bits\":null,\
             \"loss_probability\":0.0,\"loss_seed\":0,\"messages\":false}\n";
        assert!(matches!(Tape::from_jsonl(versioned), Err(TapeError::Version { found: 99 })));
        let (_, tape) = record();
        let text = tape.to_jsonl();
        let headerless = text.lines().next().unwrap().to_string();
        assert!(matches!(Tape::from_jsonl(&headerless), Err(TapeError::Truncated)));
    }

    /// Faulted runs are first-class tapes: the plan rides in the header,
    /// the recorded stream replays byte-for-byte, and fault-free tapes
    /// keep the exact pre-fault header layout (no `fault` key at all).
    #[test]
    fn fault_plans_ride_in_headers_and_replay() {
        use crate::fault::{CrashWindow, FaultPlan};
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        let plans = [
            FaultPlan::Burst { p_enter: 0.3, p_exit: 0.5, loss_good: 0.0, loss_bad: 1.0, seed: 3 },
            FaultPlan::Crash { windows: vec![CrashWindow { node: 1, start: 0, end: 2 }] },
        ];
        for plan in plans {
            let cfg = EngineConfig { fault: plan.clone(), ..EngineConfig::default() };
            let mut buffer = TraceBuffer::new(true);
            let (run, tape) =
                run_protocol_taped(&g, &cfg, |id, _| Mixer { id, heard: 0 }, &mut buffer);
            run.unwrap();
            assert_eq!(tape.header.fault, plan);
            let text = tape.to_jsonl();
            assert!(text.contains("\"fault\":{\"kind\":"), "header carries the plan: {text}");
            let parsed = Tape::from_jsonl(&text).unwrap();
            assert_eq!(parsed, tape);
            assert_eq!(parsed.to_jsonl(), text, "canonical round trip");
            let replay = replay_tape(&parsed).unwrap();
            assert_eq!(replay.outputs_fnv, tape.outputs_fnv);
        }
        // Fault-free recordings emit no `fault` key, and headers without
        // one (every pre-fault tape) still parse.
        let (_, tape) = record();
        let text = tape.to_jsonl();
        assert!(!text.contains("\"fault\""), "legacy layout preserved: {text}");
        assert_eq!(Tape::from_jsonl(&text).unwrap().header.fault, FaultPlan::None);
        // A malformed plan is a parse error, not a panic.
        let bad = text.replacen(
            "\"loss_seed\":5",
            "\"loss_seed\":5,\"fault\":{\"kind\":\"iid\",\"probability\":7.0,\"seed\":0}",
            1,
        );
        assert!(matches!(Tape::from_jsonl(&bad), Err(TapeError::Parse { line: 1, .. })));
    }

    /// Version 1 spells an i.i.d. plan as the header's loss pair: no
    /// `fault` key on write, and the pair is the plan on replay unless a
    /// `fault` key says otherwise.
    #[test]
    fn iid_plans_record_as_the_v1_loss_pair() {
        use crate::fault::CrashWindow;
        let (_, tape) = record();
        assert_eq!((tape.header.loss_probability, tape.header.loss_seed), (0.1, 5));
        assert_eq!(tape.header.fault, FaultPlan::None);
        assert_eq!(tape.header.fault_plan(), FaultPlan::Iid { probability: 0.1, seed: 5 });
        let text = tape.to_jsonl();
        assert!(text.contains("\"loss_probability\":0.1,\"loss_seed\":5,\"messages\""), "{text}");
        // Any other plan writes a zero pair plus the `fault` key.
        let g = Graph::from_edges(3, [(0, 1), (0, 2), (1, 2)]).unwrap();
        let crash = FaultPlan::Crash { windows: vec![CrashWindow { node: 1, start: 0, end: 2 }] };
        let cfg = EngineConfig { fault: crash.clone(), ..EngineConfig::default() };
        let (_, tape) = run_protocol_taped(&g, &cfg, |id, _| Mixer { id, heard: 0 }, &mut NullSink);
        assert_eq!((tape.header.loss_probability, tape.header.loss_seed), (0.0, 0));
        // A header carrying both a nonzero pair and a `fault` key (older
        // writers produced one) replays under the `fault` key.
        let both = tape.to_jsonl().replacen(
            "\"loss_probability\":0.0,\"loss_seed\":0",
            "\"loss_probability\":0.5,\"loss_seed\":3",
            1,
        );
        let parsed = Tape::from_jsonl(&both).unwrap();
        assert_eq!(parsed.header.fault_plan(), crash);
        assert_eq!(replay_tape(&parsed).unwrap().outputs_fnv, tape.outputs_fnv);
        // An out-of-range pair is a parse error, not a panic at replay.
        let bad = text.replacen("\"loss_probability\":0.1", "\"loss_probability\":7.0", 1);
        assert!(matches!(Tape::from_jsonl(&bad), Err(TapeError::Parse { line: 1, .. })));
    }

    #[test]
    fn loss_probability_round_trips_exactly() {
        let (_, mut tape) = record();
        // One ulp above 0.1: a value whose decimal rendering must carry
        // enough digits to reparse to the same bit pattern.
        tape.header.loss_probability = f64::from_bits(0.1f64.to_bits() + 1);
        let parsed = Tape::from_jsonl(&tape.to_jsonl()).unwrap();
        assert_eq!(
            parsed.header.loss_probability.to_bits(),
            tape.header.loss_probability.to_bits()
        );
    }
}
