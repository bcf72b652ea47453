//! The sans-io engine core: a state machine that consumes
//! [`EngineInput`]s and emits [`EngineOutput`]s, with no protocol code,
//! no I/O, and no clocks inside.
//!
//! [`SleepyEngine`] owns everything the round loop used to own inline —
//! node statuses, the wake-alarm [`TimerWheel`], the per-node counters
//! behind [`NodeMetrics`], the fault process, CONGEST budget enforcement,
//! and trace-event generation — while the *protocol instances* stay
//! outside, behind a driver (see
//! [`run_protocol_with_sink`](crate::run_protocol_with_sink)). The
//! driver answers [`EngineOutput::PollSend`] / [`EngineOutput::PollReceive`]
//! prompts by running one node's callback and feeding the result back
//! as an [`EngineInput`].
//!
//! Because inputs carry only ports, bit sizes, and [`Action`]s — never
//! message payloads — every input sequence is serializable: the
//! [`tape`](crate::tape) module records them as versioned JSONL tapes
//! that replay through this state machine *without any protocol code*,
//! reproducing the exact output stream byte-for-byte.
//!
//! The output stream preserves the engine's documented deterministic
//! order (see [`TraceSink`](crate::TraceSink)): per active round, one
//! [`EngineOutput::RoundBegin`], `Wake` events ascending by id, the send
//! phase's message events sender-major, then the receive phase's
//! `Decide`/`Sleep`/`Terminate` events ascending by id. Exactly one
//! poll prompt is pending at any time, which is what pins the
//! interleaving to the legacy loop's byte-identical trace order.

use crate::alarm::TimerWheel;
use crate::engine::{merge_sorted_into, EngineConfig};
use crate::error::EngineError;
use crate::fault::FaultModel;
use crate::metrics::{NodeMetrics, RunMetrics};
use crate::protocol::Action;
use crate::trace::TraceEvent;
use crate::Round;
use serde::{Serialize, Value};
use sleepy_graph::{Graph, NodeId, Port};

/// Node lifecycle inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Awake,
    Asleep,
    Done,
}

/// One outgoing message as the state machine sees it: the sender-local
/// port and the payload size in bits. The payload itself never enters
/// the state machine — the driver's [`Outbox`](crate::Outbox) keeps it
/// at the same index and pairs it back up via
/// [`EngineOutput::Deliver`]'s index — which is what makes inputs
/// serializable as tapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutMsg {
    /// Sender-local out-port (`0..degree`).
    pub port: Port,
    /// Payload size in bits (drives metrics and the CONGEST budget).
    pub bits: usize,
}

/// One unit of input to the state machine.
///
/// The driver feeds exactly one input per poll prompt: a [`Sends`]
/// answering [`EngineOutput::PollSend`], a [`Step`] answering
/// [`EngineOutput::PollReceive`].
///
/// [`Sends`]: EngineInput::Sends
/// [`Step`]: EngineInput::Step
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineInput {
    /// The complete send phase of one node this round, in emission order.
    Sends {
        /// The sending node.
        node: NodeId,
        /// Its outgoing messages, in the order they were queued.
        msgs: Vec<OutMsg>,
    },
    /// The receive-phase result of one node this round.
    Step {
        /// The node.
        node: NodeId,
        /// What the node chose to do.
        action: Action,
        /// Whether the node's output is `Some` after this receive (drives
        /// `decide_round` accounting and the terminate-without-output
        /// check without the state machine ever calling protocol code).
        output_some: bool,
    },
}

/// One unit of output from the state machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineOutput {
    /// A new active round begins with `awake` nodes awake.
    RoundBegin {
        /// The round number.
        round: Round,
        /// Awake node count (carried over plus newly woken).
        awake: u64,
    },
    /// A trace event, in the engine's deterministic order. Message-level
    /// events appear only when the engine was built with `messages`.
    Event(TraceEvent),
    /// The driver must run `node`'s send callback and feed
    /// [`EngineInput::Sends`].
    PollSend {
        /// The node to poll.
        node: NodeId,
        /// The current round (for the node's context).
        round: Round,
    },
    /// Deliver the sender's `index`-th message of the input just consumed
    /// into `to`'s inbox under receiver-local port `port`.
    Deliver {
        /// The receiving node.
        to: NodeId,
        /// Receiver-local in-port (the port leading back to the sender).
        port: Port,
        /// The sending node.
        from: NodeId,
        /// Index into the sender's [`EngineInput::Sends`] message list.
        index: usize,
    },
    /// The driver must run `node`'s receive callback (its inbox now holds
    /// every message delivered this round) and feed [`EngineInput::Step`].
    PollReceive {
        /// The node to poll.
        node: NodeId,
        /// The current round (for the node's context).
        round: Round,
    },
    /// Every node has terminated; no further input is expected.
    Finished,
}

impl Serialize for OutMsg {
    fn to_value(&self) -> Value {
        Value::Array(vec![Value::UInt(self.port as u64), Value::UInt(self.bits as u64)])
    }
}

impl Serialize for EngineInput {
    fn to_value(&self) -> Value {
        match self {
            EngineInput::Sends { node, msgs } => Value::Object(vec![
                ("i".to_string(), Value::String("sends".to_string())),
                ("node".to_string(), Value::UInt(*node as u64)),
                ("msgs".to_string(), Value::Array(msgs.iter().map(Serialize::to_value).collect())),
            ]),
            EngineInput::Step { node, action, output_some } => {
                let act = match action {
                    Action::Continue => Value::String("c".to_string()),
                    Action::SleepUntil(r) => {
                        Value::Object(vec![("s".to_string(), Value::UInt(*r))])
                    }
                    Action::Terminate => Value::String("t".to_string()),
                };
                Value::Object(vec![
                    ("i".to_string(), Value::String("step".to_string())),
                    ("node".to_string(), Value::UInt(*node as u64)),
                    ("act".to_string(), act),
                    ("out".to_string(), Value::Bool(*output_some)),
                ])
            }
        }
    }
}

impl Serialize for EngineOutput {
    fn to_value(&self) -> Value {
        match self {
            EngineOutput::RoundBegin { round, awake } => Value::Object(vec![
                ("o".to_string(), Value::String("round".to_string())),
                ("round".to_string(), Value::UInt(*round)),
                ("awake".to_string(), Value::UInt(*awake)),
            ]),
            EngineOutput::Event(e) => Value::Object(vec![
                ("o".to_string(), Value::String("event".to_string())),
                ("e".to_string(), e.to_value()),
            ]),
            EngineOutput::PollSend { node, round } => Value::Object(vec![
                ("o".to_string(), Value::String("send".to_string())),
                ("node".to_string(), Value::UInt(*node as u64)),
                ("round".to_string(), Value::UInt(*round)),
            ]),
            EngineOutput::Deliver { to, port, from, index } => Value::Object(vec![
                ("o".to_string(), Value::String("deliver".to_string())),
                ("to".to_string(), Value::UInt(*to as u64)),
                ("port".to_string(), Value::UInt(*port as u64)),
                ("from".to_string(), Value::UInt(*from as u64)),
                ("index".to_string(), Value::UInt(*index as u64)),
            ]),
            EngineOutput::PollReceive { node, round } => Value::Object(vec![
                ("o".to_string(), Value::String("recv".to_string())),
                ("node".to_string(), Value::UInt(*node as u64)),
                ("round".to_string(), Value::UInt(*round)),
            ]),
            EngineOutput::Finished => {
                Value::Object(vec![("o".to_string(), Value::String("finished".to_string()))])
            }
        }
    }
}

/// Where the state machine is within a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for `Sends` from `active[idx]`.
    Send { idx: usize },
    /// Waiting for `Step` from `active[idx]`.
    Receive { idx: usize },
    /// Run complete ([`EngineOutput::Finished`] emitted).
    Done,
    /// A prior input raised an error; no further input is accepted.
    Failed,
}

/// For every directed edge, the port leading back, laid out like the
/// graph's adjacency: entry `p` of `v`'s [`Graph::adj_range`] is the port
/// of `graph.endpoint(v, p)` whose edge leads to `v`, i.e.
/// `graph.port_to(graph.endpoint(v, p), v)` without the binary search.
/// `Graph::from_edges` caps n at `u32::MAX`, so every port fits a `u32`.
///
/// One O(n + m) pass over the sorted neighbor lists builds it: visiting
/// `v` in ascending order, the k-th time `v` shows up in `u`'s list it is
/// `u`'s k-th smallest neighbor, hence `u`'s port `k`.
fn twin_ports(graph: &Graph) -> Vec<u32> {
    let mut seen = vec![0u32; graph.n()];
    let mut twin = Vec::with_capacity(2 * graph.m());
    for v in graph.node_ids() {
        for &u in graph.neighbors(v) {
            twin.push(seen[u as usize]);
            seen[u as usize] += 1;
        }
    }
    twin
}

/// The per-node counters behind [`NodeMetrics`], one array per counter,
/// so that a delivery touches a single `u64` of the receiver's and the
/// arrays it touches stay small enough to cache; [`SleepyEngine::finish`]
/// assembles the records.
#[derive(Debug)]
struct Counters {
    awake_rounds: Vec<u64>,
    /// `Round::MAX` until the node's output is `Some`, and
    /// `finish_round` likewise until it terminates. The engine never
    /// processes round `Round::MAX` (see `SleepyEngine::begin_round`),
    /// so no node can decide or finish in it and the sentinel is
    /// unambiguous.
    decide_round: Vec<Round>,
    finish_round: Vec<Round>,
    messages_sent: Vec<u64>,
    bits_sent: Vec<u64>,
    messages_received: Vec<u64>,
    messages_dropped: Vec<u64>,
    messages_lost: Vec<u64>,
}

impl Counters {
    fn new(n: usize) -> Self {
        Counters {
            awake_rounds: vec![0; n],
            decide_round: vec![Round::MAX; n],
            finish_round: vec![Round::MAX; n],
            messages_sent: vec![0; n],
            bits_sent: vec![0; n],
            messages_received: vec![0; n],
            messages_dropped: vec![0; n],
            messages_lost: vec![0; n],
        }
    }

    fn into_node_metrics(self) -> Vec<NodeMetrics> {
        let round = |r: Round| (r != Round::MAX).then_some(r);
        (0..self.awake_rounds.len())
            .map(|v| NodeMetrics {
                awake_rounds: self.awake_rounds[v],
                finish_round: round(self.finish_round[v]),
                decide_round: round(self.decide_round[v]),
                messages_sent: self.messages_sent[v],
                messages_received: self.messages_received[v],
                messages_dropped: self.messages_dropped[v],
                messages_lost: self.messages_lost[v],
                bits_sent: self.bits_sent[v],
            })
            .collect()
    }
}

/// The sans-io sleeping-model engine core. The module-level docs
/// describe the driving protocol.
#[derive(Debug)]
pub struct SleepyEngine<'g> {
    graph: &'g Graph,
    twins: Vec<u32>,
    max_rounds: Round,
    congest_bits: Option<usize>,
    fault: Option<Box<dyn FaultModel>>,
    messages: bool,
    status: Vec<Status>,
    counters: Counters,
    /// Nodes awake in the round being processed, ascending ids.
    active: Vec<NodeId>,
    /// Nodes that chose `Continue` and carry over to the next round.
    carry: Vec<NodeId>,
    /// Scratch for the nodes woken at the start of a round.
    woken: Vec<NodeId>,
    /// Scratch the carried-over and woken nodes merge into; it then
    /// trades places with `active`, so no round allocates a new list.
    merged: Vec<NodeId>,
    alarms: TimerWheel,
    /// The queued outputs; `outputs[next..]` are still pollable. The
    /// polled prefix is dropped at each [`SleepyEngine::handle_input`],
    /// so the queue reuses its capacity for the whole run.
    outputs: Vec<EngineOutput>,
    next: usize,
    phase: Phase,
    remaining: usize,
    round: Round,
    active_rounds: u64,
    max_finish: Round,
}

impl<'g> SleepyEngine<'g> {
    /// A fresh engine over `graph`. `messages` controls whether
    /// message-level [`EngineOutput::Event`]s are generated (drivers pass
    /// their sink's [`wants_messages`](crate::TraceSink::wants_messages));
    /// delivery outputs are always generated. Builds the twin-port table
    /// that gives each [`EngineOutput::Deliver`] its receiver-local port
    /// in O(n + m).
    pub fn new(graph: &'g Graph, config: &EngineConfig, messages: bool) -> Self {
        let n = graph.n();
        let mut sm = SleepyEngine {
            graph,
            twins: twin_ports(graph),
            max_rounds: config.max_rounds,
            congest_bits: config.congest_bits,
            fault: config.fault.build(),
            messages,
            status: vec![Status::Awake; n],
            counters: Counters::new(n),
            active: (0..n as NodeId).collect(),
            carry: Vec::with_capacity(n),
            woken: Vec::new(),
            merged: Vec::with_capacity(n),
            alarms: TimerWheel::new(),
            outputs: Vec::new(),
            next: 0,
            phase: Phase::Done,
            remaining: n,
            round: 0,
            active_rounds: 0,
            max_finish: 0,
        };
        if n == 0 {
            sm.outputs.push(EngineOutput::Finished);
        } else {
            sm.begin_round().expect("round 0 is always within the cap");
        }
        sm
    }

    /// Starts the round at `self.round` (or jumps to the next deadline if
    /// no node carried over): wakes due sleepers, emits `RoundBegin`,
    /// `Wake` events, and the first `PollSend` prompt.
    fn begin_round(&mut self) -> Result<(), EngineError> {
        if self.active.is_empty() {
            match self.alarms.next_deadline() {
                Some(r) => self.round = r,
                None => {
                    return Err(EngineError::Deadlock {
                        round: self.round,
                        unfinished: self.remaining,
                    })
                }
            }
        }
        // Round `Round::MAX` is never processed: the counter could not
        // advance past it, nor could `finish` count it.
        if self.round > self.max_rounds || self.round == Round::MAX {
            return Err(EngineError::MaxRoundsExceeded {
                max_rounds: self.max_rounds,
                unfinished: self.remaining,
            });
        }
        self.woken.clear();
        self.alarms.pop_due(self.round, &mut self.woken);
        for &v in &self.woken {
            self.status[v as usize] = Status::Awake;
        }
        if !self.woken.is_empty() {
            merge_sorted_into(&self.active, &self.woken, &mut self.merged);
            std::mem::swap(&mut self.active, &mut self.merged);
        }
        debug_assert!(self.active.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(!self.active.is_empty(), "a begun round has at least one awake node");
        self.active_rounds += 1;
        self.outputs
            .push(EngineOutput::RoundBegin { round: self.round, awake: self.active.len() as u64 });
        for &v in &self.woken {
            self.outputs.push(EngineOutput::Event(TraceEvent::Wake { round: self.round, node: v }));
        }
        self.carry.clear();
        self.phase = Phase::Send { idx: 0 };
        self.outputs.push(EngineOutput::PollSend { node: self.active[0], round: self.round });
        Ok(())
    }

    /// Feeds one input. Outputs already polled are dropped from the queue
    /// here, so it reuses its capacity for the whole run. On error the
    /// state machine refuses all further input; outputs already queued
    /// (events preceding the failure, as a sink on the legacy loop would
    /// have observed them) remain pollable.
    ///
    /// # Errors
    ///
    /// The protocol-bug and cap errors of
    /// [`run_protocol`](crate::run_protocol), plus
    /// [`EngineError::UnexpectedInput`] if `input` does not answer the
    /// pending poll prompt (a driver bug or a corrupted tape).
    pub fn handle_input(&mut self, input: &EngineInput) -> Result<(), EngineError> {
        // Drop what was polled; anything a driver left unpolled stays.
        self.outputs.drain(..self.next);
        self.next = 0;
        let r = match *input {
            EngineInput::Sends { node, ref msgs } => self.on_sends(node, msgs),
            EngineInput::Step { node, action, output_some } => {
                self.on_step(node, action, output_some)
            }
        };
        if r.is_err() {
            self.phase = Phase::Failed;
        }
        r
    }

    fn expect_node(&self, idx: usize, node: NodeId, what: &str) -> Result<(), EngineError> {
        let expected = self.active[idx];
        if node != expected {
            return Err(EngineError::UnexpectedInput {
                round: self.round,
                detail: format!("{what} from node {node}, expected node {expected}"),
            });
        }
        Ok(())
    }

    fn on_sends(&mut self, node: NodeId, msgs: &[OutMsg]) -> Result<(), EngineError> {
        let Phase::Send { idx } = self.phase else {
            return Err(EngineError::UnexpectedInput {
                round: self.round,
                detail: format!("Sends from node {node} outside the send phase"),
            });
        };
        self.expect_node(idx, node, "Sends")?;
        let round = self.round;
        let neighbors = self.graph.neighbors(node);
        let twins = &self.twins[self.graph.adj_range(node)];
        let degree = neighbors.len();
        for (index, m) in msgs.iter().enumerate() {
            if m.port >= degree {
                return Err(EngineError::InvalidPort { node, port: m.port, degree });
            }
            if let Some(budget) = self.congest_bits {
                if m.bits > budget {
                    return Err(EngineError::MessageTooLarge { node, bits: m.bits, budget });
                }
            }
            self.counters.messages_sent[node as usize] += 1;
            self.counters.bits_sent[node as usize] += m.bits as u64;
            let dst = neighbors[m.port];
            if let Some(model) = self.fault.as_mut() {
                if model.message_lost(round, node, dst) {
                    self.counters.messages_lost[dst as usize] += 1;
                    if self.messages {
                        self.outputs.push(EngineOutput::Event(TraceEvent::MessageLost {
                            round,
                            from: node,
                            to: dst,
                        }));
                    }
                    continue;
                }
            }
            let delivered = self.status[dst as usize] == Status::Awake;
            if self.messages {
                self.outputs.push(EngineOutput::Event(TraceEvent::Message {
                    round,
                    from: node,
                    to: dst,
                    dropped: !delivered,
                }));
            }
            if delivered {
                let port = twins[m.port] as Port;
                debug_assert_eq!(Some(port), self.graph.port_to(dst, node), "twin-port table");
                self.outputs.push(EngineOutput::Deliver { to: dst, port, from: node, index });
                self.counters.messages_received[dst as usize] += 1;
            } else {
                self.counters.messages_dropped[dst as usize] += 1;
            }
        }
        let next = idx + 1;
        if next < self.active.len() {
            self.phase = Phase::Send { idx: next };
            self.outputs.push(EngineOutput::PollSend { node: self.active[next], round });
        } else {
            self.phase = Phase::Receive { idx: 0 };
            self.outputs.push(EngineOutput::PollReceive { node: self.active[0], round });
        }
        Ok(())
    }

    fn on_step(
        &mut self,
        node: NodeId,
        action: Action,
        output_some: bool,
    ) -> Result<(), EngineError> {
        let Phase::Receive { idx } = self.phase else {
            return Err(EngineError::UnexpectedInput {
                round: self.round,
                detail: format!("Step from node {node} outside the receive phase"),
            });
        };
        self.expect_node(idx, node, "Step")?;
        let round = self.round;
        let v = node as usize;
        self.counters.awake_rounds[v] += 1;
        if output_some && self.counters.decide_round[v] == Round::MAX {
            self.counters.decide_round[v] = round;
            self.outputs.push(EngineOutput::Event(TraceEvent::Decide { round, node }));
        }
        match action {
            Action::Continue => self.carry.push(node),
            Action::SleepUntil(wake_at) => {
                if wake_at <= round {
                    return Err(EngineError::SleepIntoPast { node, round, wake_at });
                }
                self.status[v] = Status::Asleep;
                self.alarms.schedule(wake_at, node);
                self.outputs.push(EngineOutput::Event(TraceEvent::Sleep {
                    round,
                    node,
                    until: wake_at,
                }));
            }
            Action::Terminate => {
                if !output_some {
                    return Err(EngineError::TerminatedWithoutOutput { node, round });
                }
                self.status[v] = Status::Done;
                self.counters.finish_round[v] = round;
                self.max_finish = self.max_finish.max(round);
                self.remaining -= 1;
                self.outputs.push(EngineOutput::Event(TraceEvent::Terminate { round, node }));
            }
        }
        let next = idx + 1;
        if next < self.active.len() {
            self.phase = Phase::Receive { idx: next };
            self.outputs.push(EngineOutput::PollReceive { node: self.active[next], round });
        } else {
            std::mem::swap(&mut self.active, &mut self.carry);
            self.round += 1;
            if self.remaining == 0 {
                self.phase = Phase::Done;
                self.outputs.push(EngineOutput::Finished);
            } else {
                self.begin_round()?;
            }
        }
        Ok(())
    }

    /// The next queued output, if any. Between two inputs the queue drains
    /// completely; a driver that polls until `None` before feeding the
    /// pending prompt observes the canonical stream order.
    pub fn poll_output(&mut self) -> Option<EngineOutput> {
        let out = *self.outputs.get(self.next)?;
        self.next += 1;
        Some(out)
    }

    /// The earliest pending wake alarm, if any — the round the engine
    /// will jump to if every awake node goes to sleep.
    pub fn next_deadline(&self) -> Option<Round> {
        self.alarms.next_deadline()
    }

    /// The round currently being processed (or about to begin).
    pub fn round(&self) -> Round {
        self.round
    }

    /// Number of nodes that have not terminated yet.
    pub fn unfinished(&self) -> usize {
        self.remaining
    }

    /// Whether the run completed (every node terminated and
    /// [`EngineOutput::Finished`] was emitted).
    pub fn is_finished(&self) -> bool {
        self.phase == Phase::Done && self.remaining == 0
    }

    /// Consumes the engine, yielding the run's metrics. Meaningful only
    /// once [`SleepyEngine::is_finished`]; callable anytime for
    /// diagnostics.
    pub fn finish(self) -> RunMetrics {
        let total_rounds = if self.status.is_empty() { 0 } else { self.max_finish + 1 };
        RunMetrics {
            per_node: self.counters.into_node_metrics(),
            total_rounds,
            active_rounds: self.active_rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(sm: &mut SleepyEngine<'_>) -> Vec<EngineOutput> {
        let mut out = Vec::new();
        while let Some(o) = sm.poll_output() {
            out.push(o);
        }
        out
    }

    #[test]
    fn empty_graph_finishes_immediately() {
        let g = Graph::from_edges(0, []).unwrap();
        let mut sm = SleepyEngine::new(&g, &EngineConfig::default(), false);
        assert_eq!(drain(&mut sm), vec![EngineOutput::Finished]);
        assert!(sm.is_finished());
        let m = sm.finish();
        assert_eq!(m.total_rounds, 0);
        assert_eq!(m.active_rounds, 0);
    }

    #[test]
    fn two_node_round_trip_with_delivery() {
        // Path 0-1; node 0 sends one 8-bit message to node 1, both
        // terminate in round 0.
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut sm = SleepyEngine::new(&g, &EngineConfig::default(), true);
        assert_eq!(
            drain(&mut sm),
            vec![
                EngineOutput::RoundBegin { round: 0, awake: 2 },
                EngineOutput::PollSend { node: 0, round: 0 },
            ]
        );
        sm.handle_input(&EngineInput::Sends { node: 0, msgs: vec![OutMsg { port: 0, bits: 8 }] })
            .unwrap();
        assert_eq!(
            drain(&mut sm),
            vec![
                EngineOutput::Event(TraceEvent::Message {
                    round: 0,
                    from: 0,
                    to: 1,
                    dropped: false
                }),
                EngineOutput::Deliver { to: 1, port: 0, from: 0, index: 0 },
                EngineOutput::PollSend { node: 1, round: 0 },
            ]
        );
        sm.handle_input(&EngineInput::Sends { node: 1, msgs: vec![] }).unwrap();
        assert_eq!(drain(&mut sm), vec![EngineOutput::PollReceive { node: 0, round: 0 }]);
        sm.handle_input(&EngineInput::Step {
            node: 0,
            action: Action::Terminate,
            output_some: true,
        })
        .unwrap();
        assert_eq!(
            drain(&mut sm),
            vec![
                EngineOutput::Event(TraceEvent::Decide { round: 0, node: 0 }),
                EngineOutput::Event(TraceEvent::Terminate { round: 0, node: 0 }),
                EngineOutput::PollReceive { node: 1, round: 0 },
            ]
        );
        sm.handle_input(&EngineInput::Step {
            node: 1,
            action: Action::Terminate,
            output_some: true,
        })
        .unwrap();
        assert_eq!(
            drain(&mut sm),
            vec![
                EngineOutput::Event(TraceEvent::Decide { round: 0, node: 1 }),
                EngineOutput::Event(TraceEvent::Terminate { round: 0, node: 1 }),
                EngineOutput::Finished,
            ]
        );
        assert!(sm.is_finished());
        let m = sm.finish();
        assert_eq!(m.total_rounds, 1);
        assert_eq!(m.per_node[0].messages_sent, 1);
        assert_eq!(m.per_node[1].messages_received, 1);
    }

    #[test]
    fn unexpected_inputs_are_rejected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut sm = SleepyEngine::new(&g, &EngineConfig::default(), false);
        drain(&mut sm);
        // A Step during the send phase.
        let err = sm
            .handle_input(&EngineInput::Step {
                node: 0,
                action: Action::Continue,
                output_some: false,
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::UnexpectedInput { .. }));
        // After a failure, all input is refused.
        let err = sm.handle_input(&EngineInput::Sends { node: 0, msgs: vec![] }).unwrap_err();
        assert!(matches!(err, EngineError::UnexpectedInput { .. }));
    }

    #[test]
    fn wrong_node_is_rejected() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let mut sm = SleepyEngine::new(&g, &EngineConfig::default(), false);
        drain(&mut sm);
        let err = sm.handle_input(&EngineInput::Sends { node: 1, msgs: vec![] }).unwrap_err();
        match err {
            EngineError::UnexpectedInput { round, detail } => {
                assert_eq!(round, 0);
                assert!(detail.contains("expected node 0"), "{detail}");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn deadline_tracks_sleepers_and_idle_jump() {
        // Two isolated nodes: node 1 sleeps at round 0, node 0 stays awake
        // one more round so the pending deadline is observable, then
        // sleeps too, triggering the idle jump straight to round 50.
        let g = Graph::from_edges(2, []).unwrap();
        let mut sm = SleepyEngine::new(&g, &EngineConfig::default(), false);
        drain(&mut sm);
        assert_eq!(sm.next_deadline(), None);
        for node in [0, 1] {
            sm.handle_input(&EngineInput::Sends { node, msgs: vec![] }).unwrap();
            drain(&mut sm);
        }
        sm.handle_input(&EngineInput::Step {
            node: 0,
            action: Action::Continue,
            output_some: false,
        })
        .unwrap();
        drain(&mut sm);
        sm.handle_input(&EngineInput::Step {
            node: 1,
            action: Action::SleepUntil(50),
            output_some: false,
        })
        .unwrap();
        // Round 1 began with node 0 still awake; node 1's alarm is pending.
        assert_eq!(sm.round(), 1);
        assert_eq!(sm.next_deadline(), Some(50));
        let outs = drain(&mut sm);
        assert!(outs.contains(&EngineOutput::Event(TraceEvent::Sleep {
            round: 0,
            node: 1,
            until: 50
        })));
        assert!(outs.contains(&EngineOutput::RoundBegin { round: 1, awake: 1 }));
        // Node 0 now sleeps until 50 as well: no one is awake, so
        // handle_input jumps the engine straight to round 50 and wakes both.
        sm.handle_input(&EngineInput::Sends { node: 0, msgs: vec![] }).unwrap();
        drain(&mut sm);
        sm.handle_input(&EngineInput::Step {
            node: 0,
            action: Action::SleepUntil(50),
            output_some: false,
        })
        .unwrap();
        let outs = drain(&mut sm);
        assert!(outs.contains(&EngineOutput::RoundBegin { round: 50, awake: 2 }));
        assert!(outs.contains(&EngineOutput::Event(TraceEvent::Wake { round: 50, node: 0 })));
        assert!(outs.contains(&EngineOutput::Event(TraceEvent::Wake { round: 50, node: 1 })));
        assert_eq!(sm.round(), 50);
        assert_eq!(sm.next_deadline(), None);
    }

    #[test]
    fn deadlock_detected_when_all_sleep_forever() {
        // Single node terminates nothing and no alarms remain -> the
        // round-ending Step triggers Deadlock... which cannot happen for
        // Continue (node stays active). Exercise via max_rounds instead,
        // and deadlock via an impossible state is covered in engine tests.
        let g = Graph::from_edges(1, []).unwrap();
        let cfg = EngineConfig { max_rounds: 3, ..EngineConfig::default() };
        let mut sm = SleepyEngine::new(&g, &cfg, false);
        drain(&mut sm);
        sm.handle_input(&EngineInput::Sends { node: 0, msgs: vec![] }).unwrap();
        drain(&mut sm);
        let err = sm
            .handle_input(&EngineInput::Step {
                node: 0,
                action: Action::SleepUntil(9),
                output_some: false,
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::MaxRoundsExceeded { max_rounds: 3, unfinished: 1 }));
        // Outputs queued before the failure (the Sleep event) stay pollable.
        let outs = drain(&mut sm);
        assert!(outs.contains(&EngineOutput::Event(TraceEvent::Sleep {
            round: 0,
            node: 0,
            until: 9
        })));
    }

    /// A run stopped by the round cap still yields per-node metrics: the
    /// `Round::MAX` sentinels of undecided and unfinished nodes come out
    /// as `None`, every recorded round as `Some`.
    #[test]
    fn failed_run_reports_unset_rounds_as_none() {
        let g = Graph::from_edges(4, []).unwrap();
        let cfg = EngineConfig { max_rounds: 1, ..EngineConfig::default() };
        let mut sm = SleepyEngine::new(&g, &cfg, false);
        // (node, round 0 step, round 1 step), each as (action, output_some).
        let steps = [
            (0, (Action::Terminate, true), None),
            (1, (Action::Continue, true), Some((Action::Terminate, true))),
            (2, (Action::Continue, false), Some((Action::Continue, true))),
            (3, (Action::Continue, false), Some((Action::Continue, false))),
        ];
        for round in 0..2 {
            let awake: Vec<_> = steps
                .iter()
                .filter_map(|&(node, first, second)| {
                    if round == 0 { Some(first) } else { second }.map(|step| (node, step))
                })
                .collect();
            for &(node, _) in &awake {
                drain(&mut sm);
                sm.handle_input(&EngineInput::Sends { node, msgs: vec![] }).unwrap();
            }
            for (i, &(node, (action, output_some))) in awake.iter().enumerate() {
                drain(&mut sm);
                let r = sm.handle_input(&EngineInput::Step { node, action, output_some });
                if round == 1 && i + 1 == awake.len() {
                    let capped = EngineError::MaxRoundsExceeded { max_rounds: 1, unfinished: 2 };
                    assert_eq!(r.unwrap_err(), capped);
                } else {
                    r.unwrap();
                }
            }
        }
        let m = sm.finish();
        assert_eq!((m.total_rounds, m.active_rounds), (2, 2));
        let rounds: Vec<_> =
            m.per_node.iter().map(|v| (v.awake_rounds, v.decide_round, v.finish_round)).collect();
        assert_eq!(
            rounds,
            vec![(1, Some(0), Some(0)), (2, Some(0), Some(1)), (2, Some(1), None), (2, None, None)]
        );
    }

    /// The twin-port table agrees with `port_to` on every directed edge
    /// (the delivery path also checks this with a `debug_assert_eq!`).
    #[test]
    fn twin_ports_match_port_to() {
        use sleepy_graph::generators;
        let graphs = [
            generators::empty(0).unwrap(),
            generators::empty(5).unwrap(),
            Graph::from_edges(6, [(1, 4), (4, 2)]).unwrap(),
            generators::star(9).unwrap(),
            generators::clique(7).unwrap(),
            generators::gnp(60, 0.1, 3).unwrap(),
            generators::random_geometric(80, 0.2, 5).unwrap(),
            generators::barabasi_albert(70, 3, 7).unwrap(),
        ];
        for (i, graph) in graphs.iter().enumerate() {
            let twins = twin_ports(graph);
            assert_eq!(twins.len(), 2 * graph.m(), "graph {i}");
            for v in graph.node_ids() {
                for (p, &twin) in twins[graph.adj_range(v)].iter().enumerate() {
                    let u = graph.endpoint(v, p);
                    assert_eq!(Some(twin as Port), graph.port_to(u, v), "graph {i} edge {v}:{p}");
                }
            }
        }
    }

    #[test]
    fn serialization_is_compact_and_stable() {
        let sends = EngineInput::Sends {
            node: 3,
            msgs: vec![OutMsg { port: 0, bits: 32 }, OutMsg { port: 2, bits: 8 }],
        };
        assert_eq!(
            serde::value::to_compact_string(&sends.to_value()),
            r#"{"i":"sends","node":3,"msgs":[[0,32],[2,8]]}"#
        );
        let step = EngineInput::Step { node: 1, action: Action::SleepUntil(77), output_some: true };
        assert_eq!(
            serde::value::to_compact_string(&step.to_value()),
            r#"{"i":"step","node":1,"act":{"s":77},"out":true}"#
        );
        let out = EngineOutput::Deliver { to: 4, port: 1, from: 2, index: 0 };
        assert_eq!(
            serde::value::to_compact_string(&out.to_value()),
            r#"{"o":"deliver","to":4,"port":1,"from":2,"index":0}"#
        );
    }
}
