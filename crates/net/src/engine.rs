//! The event-driven sleeping-model round engine.
//!
//! Since the sans-io refactor, the round semantics live in
//! [`SleepyEngine`](crate::SleepyEngine) (`statemachine` module) and the
//! functions here are thin drivers: they run protocol callbacks whenever
//! the state machine asks ([`EngineOutput::PollSend`] /
//! [`EngineOutput::PollReceive`]), copy delivered payloads from the
//! sender's [`Outbox`] into an inbox arena laid out like the graph's
//! adjacency, and forward trace outputs into the caller's sink.
//!
//! Unless it records a tape, a run allocates its fixed buffers up front
//! (the arena at the first delivery). After that it allocates only when
//! a reused buffer reaches a new high-water mark (the outbox, the `Sends`
//! list, the engine's output queue, timer-wheel buckets and id lists,
//! and the per-node `Vec` of an inbox that outgrows its arena slots), in
//! the timer wheel's `BTreeMap` overflow once per new far-future wake
//! round, and inside the protocols for their own state.
//!
//! The pre-refactor monolithic loop survives as
//! [`run_protocol_with_sink_legacy`] — a differential oracle the test
//! suite holds the state machine byte-identical to.

use crate::error::EngineError;
use crate::fault::FaultPlan;
use crate::message::{Incoming, Outbox};
use crate::metrics::{NodeMetrics, RunMetrics};
use crate::protocol::{Action, NodeCtx, Protocol};
use crate::sink::{NullSink, TraceSink};
use crate::statemachine::{EngineInput, EngineOutput, OutMsg, SleepyEngine};
use crate::tape::{Tape, TapeRecorder};
use crate::trace::TraceEvent;
use crate::Round;
use sleepy_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Abort with [`EngineError::MaxRoundsExceeded`] if the round counter
    /// passes this value (or reaches `Round::MAX`, which no run may
    /// process). The default is effectively unlimited; set a cap in tests
    /// and failure-injection experiments.
    pub max_rounds: Round,
    /// If `Some(budget)`, abort with
    /// [`EngineError::MessageTooLarge`] when a message exceeds `budget`
    /// bits — an executable check of the CONGEST(log n) restriction; see
    /// [`congest_bits_budget`](crate::congest_bits_budget).
    pub congest_bits: Option<usize>,
    /// Failure injection: which messages are lost in transit on top of
    /// the model's dropping at sleeping receivers — i.i.d. loss, burst
    /// loss, link partitions or node crashes (see [`FaultPlan`]).
    /// [`FaultPlan::None`] is the paper's reliable model. Losses are
    /// deterministic given the plan and are counted in
    /// [`NodeMetrics::messages_lost`].
    pub fault: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig { max_rounds: Round::MAX / 4, congest_bits: None, fault: FaultPlan::None }
    }
}

/// The result of a completed run: per-node outputs and metrics.
#[derive(Debug, Clone)]
pub struct RunOutcome<O> {
    /// Final outputs, indexed by node id (`Some` for every node, since the
    /// run only completes when all nodes have terminated).
    pub outputs: Vec<Option<O>>,
    /// Collected metrics.
    pub metrics: RunMetrics,
}

/// Node lifecycle inside the legacy engine loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Awake,
    Asleep,
    Done,
}

/// Runs `protocol` instances (one per node, built by `factory`) on `graph`
/// until every node terminates.
///
/// All nodes start awake at round 0. Node iteration within a round is in
/// ascending id order, and all randomness must live inside the protocol
/// values, so runs are fully deterministic.
///
/// # Errors
///
/// See [`EngineError`]; apart from the configurable round cap, every error
/// indicates a protocol bug (invalid port, sleeping into the past,
/// terminating without output, oversized message, or a deadlock where all
/// unfinished nodes sleep forever).
///
/// # Example
///
/// See the [crate-level documentation](crate) for a complete protocol.
pub fn run_protocol<P, F>(
    graph: &Graph,
    config: &EngineConfig,
    factory: F,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: Protocol,
    F: FnMut(NodeId, &NodeCtx) -> P,
{
    run_protocol_with_sink(graph, config, factory, &mut NullSink)
}

/// Runs `protocol` instances on `graph` like [`run_protocol`], streaming
/// every engine event into `sink`; pass a
/// [`TraceBuffer`](crate::TraceBuffer) to keep a [`Trace`](crate::Trace).
///
/// The sink observes the run in deterministic order — see
/// [`TraceSink`](crate::TraceSink) for the exact per-round sequence.
/// Message-level events are generated only when
/// [`TraceSink::wants_messages`](crate::TraceSink::wants_messages) is
/// true. The sink type is a generic parameter, so a concrete sink (such
/// as [`NullSink`]) is called statically and a `&mut dyn TraceSink`
/// works as well.
///
/// # Errors
///
/// See [`run_protocol`].
pub fn run_protocol_with_sink<P, F, S>(
    graph: &Graph,
    config: &EngineConfig,
    factory: F,
    sink: &mut S,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: Protocol,
    F: FnMut(NodeId, &NodeCtx) -> P,
    S: TraceSink + ?Sized,
{
    drive(graph, config, factory, sink, None)
}

/// Runs a protocol like [`run_protocol_with_sink`] while recording the
/// run as a [`Tape`]: the graph and engine config, every
/// [`EngineInput`] the driver fed, and a digest of every
/// [`EngineOutput`] the state machine emitted.
///
/// The tape is returned even when the run fails — the recorded error is
/// part of the conformance artifact (replaying must reproduce it). The
/// returned tape's [`label`](crate::tape::TapeHeader::label) and
/// [`seed`](crate::tape::TapeHeader::seed) are empty/zero; callers that
/// archive tapes stamp them afterwards.
pub fn run_protocol_taped<P, F>(
    graph: &Graph,
    config: &EngineConfig,
    factory: F,
    sink: &mut dyn TraceSink,
) -> (Result<RunOutcome<P::Output>, EngineError>, Tape)
where
    P: Protocol,
    F: FnMut(NodeId, &NodeCtx) -> P,
{
    let mut recorder = TapeRecorder::new(graph, config, sink.wants_messages());
    let result = drive(graph, config, factory, sink, Some(&mut recorder));
    let error = result.as_ref().err().map(|e| e.to_string());
    (result, recorder.finish(error))
}

/// The driver's inboxes, one arena laid out like the graph's adjacency.
///
/// While node `v` has received at most `degree(v)` messages this round,
/// its inbox is `slots[start .. start + len[v]]` for `start =
/// graph.adj_range(v).start`. The next message spills the inbox into
/// `spill[v]`, in order, and the rest of the round appends there. The
/// engine polls receivers in ascending id order, so the receive phase
/// reads the arena front to back.
struct Inboxes<'g, M> {
    graph: &'g Graph,
    /// One slot per directed edge. Empty until the run's first delivery,
    /// which fills every slot with a clone of that message; from then on
    /// a delivery overwrites a slot, a slot keeps its payload until the
    /// next one, and `receive` reads the slots in place.
    slots: Vec<Incoming<M>>,
    /// Messages delivered to each node this round.
    len: Vec<usize>,
    /// Per-node overflow; empty until some node first spills.
    spill: Vec<Vec<Incoming<M>>>,
}

impl<'g, M: Clone> Inboxes<'g, M> {
    fn new(graph: &'g Graph) -> Self {
        Inboxes { graph, slots: Vec::new(), len: vec![0; graph.n()], spill: Vec::new() }
    }

    /// Appends `message` to `to`'s inbox.
    fn push(&mut self, to: NodeId, message: Incoming<M>) {
        let v = to as usize;
        let range = self.graph.adj_range(to);
        let len = self.len[v];
        self.len[v] = len + 1;
        if len < range.len() {
            if self.slots.is_empty() {
                self.slots = vec![message.clone(); 2 * self.graph.m()];
            }
            self.slots[range.start + len] = message;
            return;
        }
        if self.spill.is_empty() {
            self.spill.resize_with(self.graph.n(), Vec::new);
        }
        let spill = &mut self.spill[v];
        if len == range.len() {
            spill.extend_from_slice(&self.slots[range]);
        }
        spill.push(message);
    }

    /// `v`'s inbox this round, in delivery order.
    fn get(&self, v: NodeId) -> &[Incoming<M>] {
        let range = self.graph.adj_range(v);
        match self.len[v as usize] {
            0 => &[],
            len if len <= range.len() => &self.slots[range.start..range.start + len],
            _ => &self.spill[v as usize],
        }
    }

    /// Empties `v`'s inbox; its slots are overwritten next round.
    fn clear(&mut self, v: NodeId) {
        if self.len[v as usize] > self.graph.degree(v) {
            self.spill[v as usize].clear();
        }
        self.len[v as usize] = 0;
    }
}

/// The shared driver: builds the protocol instances, then serves the
/// [`SleepyEngine`]'s output stream — poll prompts run protocol
/// callbacks, `Deliver` outputs copy payloads into the [`Inboxes`]
/// arena, trace outputs feed the sink (and everything feeds the tape
/// recorder when present).
fn drive<P, F, S>(
    graph: &Graph,
    config: &EngineConfig,
    mut factory: F,
    sink: &mut S,
    mut tap: Option<&mut TapeRecorder>,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: Protocol,
    F: FnMut(NodeId, &NodeCtx) -> P,
    S: TraceSink + ?Sized,
{
    let n = graph.n();
    let mut nodes: Vec<P> = Vec::with_capacity(n);
    for id in 0..n as NodeId {
        let ctx = NodeCtx { id, n, degree: graph.degree(id), round: 0 };
        nodes.push(factory(id, &ctx));
    }
    let mut sm = SleepyEngine::new(graph, config, sink.wants_messages());

    // Reusable message plumbing. The outbox holds the most recent
    // sender's messages; `Deliver` outputs index into its payloads (they
    // are always drained before the next `PollSend` refills it).
    let mut outbox: Outbox<P::Msg> = Outbox::new();
    let mut inboxes: Inboxes<P::Msg> = Inboxes::new(graph);

    let mut failure: Option<EngineError> = None;
    while let Some(out) = sm.poll_output() {
        if let Some(t) = tap.as_deref_mut() {
            t.record_output(&out);
        }
        match out {
            EngineOutput::RoundBegin { round, awake } => sink.round_begin(round, awake as usize),
            EngineOutput::Event(e) => sink.event(&e),
            EngineOutput::Deliver { to, port, from: _, index } => {
                inboxes.push(to, Incoming { port, msg: outbox.payload(index).clone() });
            }
            EngineOutput::PollSend { node, round } => {
                debug_assert!(failure.is_none(), "no prompt survives a failed input");
                let ctx = NodeCtx { id: node, n, degree: graph.degree(node), round };
                outbox.reset(ctx.degree);
                nodes[node as usize].send(&ctx, &mut outbox);
                // The engine reads the queued `OutMsg` list as it stands;
                // it then goes back to the outbox with its capacity.
                let input = EngineInput::Sends { node, msgs: outbox.take_msgs() };
                if let Some(t) = tap.as_deref_mut() {
                    t.record_input(&input);
                }
                if let Err(e) = sm.handle_input(&input) {
                    // Keep draining: outputs queued before the failure are
                    // part of the sink-visible (and taped) stream, exactly
                    // as the legacy loop emitted them eagerly.
                    failure = Some(e);
                }
                if let EngineInput::Sends { msgs, .. } = input {
                    outbox.restore_msgs(msgs);
                }
            }
            EngineOutput::PollReceive { node, round } => {
                debug_assert!(failure.is_none(), "no prompt survives a failed input");
                let ctx = NodeCtx { id: node, n, degree: graph.degree(node), round };
                let action = nodes[node as usize].receive(&ctx, inboxes.get(node));
                // The send phase completed before the first receive of the
                // round, so this inbox is final and can be recycled now.
                inboxes.clear(node);
                let output_some = nodes[node as usize].output().is_some();
                let input = EngineInput::Step { node, action, output_some };
                if let Some(t) = tap.as_deref_mut() {
                    t.record_input(&input);
                }
                if let Err(e) = sm.handle_input(&input) {
                    failure = Some(e);
                }
            }
            EngineOutput::Finished => break,
        }
    }
    if let Some(e) = failure {
        return Err(e);
    }
    debug_assert!(sm.is_finished(), "output stream ended without Finished");
    let outputs: Vec<Option<P::Output>> = nodes.iter().map(|p| p.output()).collect();
    debug_assert!(outputs.iter().all(Option::is_some));
    Ok(RunOutcome { outputs, metrics: sm.finish() })
}

/// The pre-refactor monolithic round loop, kept verbatim as the
/// differential-testing oracle for the sans-io state machine: the
/// conformance suite (`tests/engine_statemachine.rs`) holds
/// [`run_protocol_with_sink`] byte-identical to this function on random
/// graphs × protocols × loss rates. Production callers should not use it.
///
/// # Errors
///
/// See [`run_protocol`].
pub fn run_protocol_with_sink_legacy<P, F>(
    graph: &Graph,
    config: &EngineConfig,
    mut factory: F,
    sink: &mut dyn TraceSink,
) -> Result<RunOutcome<P::Output>, EngineError>
where
    P: Protocol,
    F: FnMut(NodeId, &NodeCtx) -> P,
{
    let n = graph.n();
    let wants_messages = sink.wants_messages();
    let mut nodes: Vec<P> = Vec::with_capacity(n);
    for id in 0..n as NodeId {
        let ctx = NodeCtx { id, n, degree: graph.degree(id), round: 0 };
        nodes.push(factory(id, &ctx));
    }
    let mut fault = config.fault.build();

    let mut status = vec![Status::Awake; n];
    let mut metrics: Vec<NodeMetrics> = vec![NodeMetrics::default(); n];

    // Nodes awake in the round currently being processed, ascending ids.
    let mut active: Vec<NodeId> = (0..n as NodeId).collect();
    // Nodes that chose `Continue` and carry over to the next round.
    let mut carry: Vec<NodeId> = Vec::with_capacity(n);
    // Sleep queue: (wake_round, node id).
    let mut wake_heap: BinaryHeap<Reverse<(Round, NodeId)>> = BinaryHeap::new();

    // Reusable message plumbing.
    let mut outbox: Outbox<P::Msg> = Outbox::new();
    let mut inboxes: Vec<Vec<Incoming<P::Msg>>> = (0..n).map(|_| Vec::new()).collect();
    let mut touched_inboxes: Vec<NodeId> = Vec::new();

    let mut remaining = n;
    let mut round: Round = 0;
    let mut active_rounds: u64 = 0;
    let mut max_finish: Round = 0;

    while remaining > 0 {
        // Choose the next round with any awake node.
        if active.is_empty() {
            match wake_heap.peek() {
                Some(&Reverse((r, _))) => round = r,
                None => return Err(EngineError::Deadlock { round, unfinished: remaining }),
            }
        }
        if round > config.max_rounds || round == Round::MAX {
            return Err(EngineError::MaxRoundsExceeded {
                max_rounds: config.max_rounds,
                unfinished: remaining,
            });
        }
        // Wake scheduled sleepers. They pop in ascending id order for equal
        // rounds; merge them with the carried-over awake nodes.
        let mut woken: Vec<NodeId> = Vec::new();
        while let Some(&Reverse((r, v))) = wake_heap.peek() {
            debug_assert!(r >= round, "missed a wake-up");
            if r != round {
                break;
            }
            wake_heap.pop();
            status[v as usize] = Status::Awake;
            woken.push(v);
        }
        if !woken.is_empty() {
            active = merge_sorted(&active, &woken);
        }
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]));
        active_rounds += 1;
        sink.round_begin(round, active.len());
        for &v in &woken {
            sink.event(&TraceEvent::Wake { round, node: v });
        }

        // --- Send phase ---
        for &v in &active {
            let ctx = NodeCtx { id: v, n, degree: graph.degree(v), round };
            outbox.reset(ctx.degree);
            nodes[v as usize].send(&ctx, &mut outbox);
            for (OutMsg { port, bits }, msg) in outbox.drain() {
                if port >= ctx.degree {
                    return Err(EngineError::InvalidPort { node: v, port, degree: ctx.degree });
                }
                if let Some(budget) = config.congest_bits {
                    if bits > budget {
                        return Err(EngineError::MessageTooLarge { node: v, bits, budget });
                    }
                }
                let vm = &mut metrics[v as usize];
                vm.messages_sent += 1;
                vm.bits_sent += bits as u64;
                let dst = graph.endpoint(v, port);
                if let Some(model) = fault.as_mut() {
                    if model.message_lost(round, v, dst) {
                        metrics[dst as usize].messages_lost += 1;
                        if wants_messages {
                            sink.event(&TraceEvent::MessageLost { round, from: v, to: dst });
                        }
                        continue;
                    }
                }
                let delivered = status[dst as usize] == Status::Awake;
                if wants_messages {
                    sink.event(&TraceEvent::Message {
                        round,
                        from: v,
                        to: dst,
                        dropped: !delivered,
                    });
                }
                if delivered {
                    let back_port = graph
                        .port_to(dst, v)
                        .expect("endpoint/port_to must be mutually consistent");
                    if inboxes[dst as usize].is_empty() {
                        touched_inboxes.push(dst);
                    }
                    inboxes[dst as usize].push(Incoming { port: back_port, msg });
                    metrics[dst as usize].messages_received += 1;
                } else {
                    metrics[dst as usize].messages_dropped += 1;
                }
            }
        }

        // --- Receive phase ---
        carry.clear();
        for &v in &active {
            let ctx = NodeCtx { id: v, n, degree: graph.degree(v), round };
            let action = nodes[v as usize].receive(&ctx, &inboxes[v as usize]);
            let vm = &mut metrics[v as usize];
            vm.awake_rounds += 1;
            if vm.decide_round.is_none() && nodes[v as usize].output().is_some() {
                vm.decide_round = Some(round);
                sink.event(&TraceEvent::Decide { round, node: v });
            }
            match action {
                Action::Continue => carry.push(v),
                Action::SleepUntil(wake_at) => {
                    if wake_at <= round {
                        return Err(EngineError::SleepIntoPast { node: v, round, wake_at });
                    }
                    status[v as usize] = Status::Asleep;
                    wake_heap.push(Reverse((wake_at, v)));
                    sink.event(&TraceEvent::Sleep { round, node: v, until: wake_at });
                }
                Action::Terminate => {
                    if nodes[v as usize].output().is_none() {
                        return Err(EngineError::TerminatedWithoutOutput { node: v, round });
                    }
                    status[v as usize] = Status::Done;
                    vm.finish_round = Some(round);
                    max_finish = max_finish.max(round);
                    remaining -= 1;
                    sink.event(&TraceEvent::Terminate { round, node: v });
                }
            }
        }
        for &v in touched_inboxes.drain(..).as_ref() {
            inboxes[v as usize].clear();
        }
        std::mem::swap(&mut active, &mut carry);
        round += 1;
    }

    let outputs: Vec<Option<P::Output>> = nodes.iter().map(|p| p.output()).collect();
    debug_assert!(outputs.iter().all(Option::is_some));
    let total_rounds = if n == 0 { 0 } else { max_finish + 1 };
    Ok(RunOutcome {
        outputs,
        metrics: RunMetrics { per_node: metrics, total_rounds, active_rounds },
    })
}

/// Merges two ascending id lists into one (both deduplicated by
/// construction: a node cannot be both carried over and woken).
fn merge_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    merge_sorted_into(a, b, &mut out);
    out
}

/// [`merge_sorted`] into `out`, replacing its contents and keeping its
/// capacity.
pub(crate) fn merge_sorted_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceBuffer;
    use sleepy_graph::generators;
    use sleepy_graph::Port;

    /// Terminates immediately with its own id.
    struct Immediate(NodeId);
    impl Protocol for Immediate {
        type Msg = ();
        type Output = NodeId;
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &NodeCtx, _: &[Incoming<()>]) -> Action {
            Action::Terminate
        }
        fn output(&self) -> Option<NodeId> {
            Some(self.0)
        }
    }

    #[test]
    fn immediate_termination() {
        let g = generators::cycle(4).unwrap();
        let run = run_protocol(&g, &EngineConfig::default(), |id, _| Immediate(id)).unwrap();
        assert_eq!(run.metrics.total_rounds, 1);
        assert_eq!(run.metrics.active_rounds, 1);
        for (id, out) in run.outputs.iter().enumerate() {
            assert_eq!(*out, Some(id as NodeId));
        }
        for m in &run.metrics.per_node {
            assert_eq!(m.awake_rounds, 1);
            assert_eq!(m.finish_round, Some(0));
        }
    }

    /// Sleeps for a long interval then terminates; checks idle-round
    /// skipping.
    struct LongSleeper {
        done_after_wake: bool,
    }
    impl Protocol for LongSleeper {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, ctx: &NodeCtx, _: &[Incoming<()>]) -> Action {
            if ctx.round == 0 {
                Action::SleepUntil(1_000_000)
            } else {
                self.done_after_wake = true;
                Action::Terminate
            }
        }
        fn output(&self) -> Option<()> {
            self.done_after_wake.then_some(())
        }
    }

    #[test]
    fn engine_skips_idle_rounds() {
        let g = generators::empty(3).unwrap();
        let run = run_protocol(&g, &EngineConfig::default(), |_, _| LongSleeper {
            done_after_wake: false,
        })
        .unwrap();
        assert_eq!(run.metrics.total_rounds, 1_000_001);
        // Only two rounds were processed: round 0 and round 1_000_000.
        assert_eq!(run.metrics.active_rounds, 2);
        for m in &run.metrics.per_node {
            assert_eq!(m.awake_rounds, 2);
        }
    }

    /// Node 0 stays awake and broadcasts every round; node 1 sleeps rounds
    /// 1..=3; messages to it must be dropped while asleep and delivered
    /// while awake.
    struct DropProbe {
        id: NodeId,
        heard: u64,
    }
    impl Protocol for DropProbe {
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
                (1, 0) => Action::SleepUntil(4),
                (1, 4) => Action::Terminate,
                (_, r) if r >= 5 => Action::Terminate,
                _ => Action::Continue,
            }
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn messages_to_sleeping_nodes_drop() {
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let run =
            run_protocol(&g, &EngineConfig::default(), |id, _| DropProbe { id, heard: 0 }).unwrap();
        // Node 1 hears round 0 and round 4 broadcasts only.
        assert_eq!(run.outputs[1], Some(2));
        // Dropped while asleep (rounds 1,2,3) and after termination (round 5).
        assert_eq!(run.metrics.per_node[1].messages_dropped, 4);
        assert_eq!(run.metrics.per_node[1].messages_received, 2);
        assert_eq!(run.metrics.per_node[0].messages_sent, 6); // rounds 0..=5
    }

    struct BadPort;
    impl Protocol for BadPort {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, out: &mut Outbox<()>) {
            out.send(99, ());
        }
        fn receive(&mut self, _: &NodeCtx, _: &[Incoming<()>]) -> Action {
            Action::Continue
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn invalid_port_is_an_error() {
        let g = generators::path(2).unwrap();
        let err = run_protocol(&g, &EngineConfig::default(), |_, _| BadPort).unwrap_err();
        assert!(matches!(err, EngineError::InvalidPort { port: 99, .. }));
    }

    struct SleepsIntoPast;
    impl Protocol for SleepsIntoPast {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, ctx: &NodeCtx, _: &[Incoming<()>]) -> Action {
            if ctx.round < 3 {
                Action::Continue
            } else {
                Action::SleepUntil(3)
            }
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn sleep_into_past_is_an_error() {
        let g = generators::empty(1).unwrap();
        let err = run_protocol(&g, &EngineConfig::default(), |_, _| SleepsIntoPast).unwrap_err();
        assert!(matches!(err, EngineError::SleepIntoPast { round: 3, wake_at: 3, .. }));
    }

    struct NeverEnds;
    impl Protocol for NeverEnds {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &NodeCtx, _: &[Incoming<()>]) -> Action {
            Action::Continue
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn round_cap_enforced() {
        let g = generators::empty(2).unwrap();
        let cfg = EngineConfig { max_rounds: 10, ..EngineConfig::default() };
        let err = run_protocol(&g, &cfg, |_, _| NeverEnds).unwrap_err();
        assert!(matches!(err, EngineError::MaxRoundsExceeded { max_rounds: 10, unfinished: 2 }));
    }

    /// Sleeps at round 0 until `wake`, then does `then` there.
    #[derive(Clone, Copy)]
    struct LateRiser {
        wake: Round,
        then: Action,
    }
    impl Protocol for LateRiser {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, ctx: &NodeCtx, _: &[Incoming<()>]) -> Action {
            if ctx.round == 0 {
                Action::SleepUntil(self.wake)
            } else {
                self.then
            }
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    /// Round `Round::MAX` is never processed, so the round counter cannot
    /// wrap: waking into it or continuing into it is the round cap in both
    /// loops, and the round before it still completes and is counted.
    #[test]
    fn round_counter_stops_before_round_max() {
        let g = generators::empty(1).unwrap();
        let cfg = EngineConfig { max_rounds: Round::MAX, ..EngineConfig::default() };
        let run_both = |p: LateRiser| {
            let new = run_protocol(&g, &cfg, |_, _| p);
            let old = run_protocol_with_sink_legacy(&g, &cfg, |_, _| p, &mut NullSink);
            (new, old)
        };
        let capped = EngineError::MaxRoundsExceeded { max_rounds: Round::MAX, unfinished: 1 };
        for (wake, then) in [
            (Round::MAX, Action::Terminate),
            (Round::MAX, Action::Continue),
            (Round::MAX - 1, Action::Continue),
        ] {
            let (new, old) = run_both(LateRiser { wake, then });
            assert_eq!(new.unwrap_err(), capped, "wake {wake} then {then:?}");
            assert_eq!(old.unwrap_err(), capped, "wake {wake} then {then:?}");
        }
        let (new, old) = run_both(LateRiser { wake: Round::MAX - 1, then: Action::Terminate });
        assert_eq!(new.unwrap().metrics.total_rounds, Round::MAX);
        assert_eq!(old.unwrap().metrics.total_rounds, Round::MAX);
    }

    struct TerminatesSilently;
    impl Protocol for TerminatesSilently {
        type Msg = ();
        type Output = ();
        fn send(&mut self, _: &NodeCtx, _: &mut Outbox<()>) {}
        fn receive(&mut self, _: &NodeCtx, _: &[Incoming<()>]) -> Action {
            Action::Terminate
        }
        fn output(&self) -> Option<()> {
            None
        }
    }

    #[test]
    fn terminate_without_output_is_an_error() {
        let g = generators::empty(1).unwrap();
        let err =
            run_protocol(&g, &EngineConfig::default(), |_, _| TerminatesSilently).unwrap_err();
        assert!(matches!(err, EngineError::TerminatedWithoutOutput { node: 0, round: 0 }));
    }

    struct BigTalker;
    impl Protocol for BigTalker {
        type Msg = u128;
        type Output = ();
        fn send(&mut self, _: &NodeCtx, out: &mut Outbox<u128>) {
            out.broadcast(1);
        }
        fn receive(&mut self, _: &NodeCtx, _: &[Incoming<u128>]) -> Action {
            Action::Terminate
        }
        fn output(&self) -> Option<()> {
            Some(())
        }
    }

    #[test]
    fn congest_budget_enforced() {
        let g = generators::path(2).unwrap();
        let cfg = EngineConfig { congest_bits: Some(64), ..EngineConfig::default() };
        let err = run_protocol(&g, &cfg, |_, _| BigTalker).unwrap_err();
        assert!(matches!(err, EngineError::MessageTooLarge { bits: 128, budget: 64, .. }));
        // With a roomier budget it passes.
        let cfg = EngineConfig { congest_bits: Some(128), ..EngineConfig::default() };
        assert!(run_protocol(&g, &cfg, |_, _| BigTalker).is_ok());
    }

    /// Two nodes ping-pong: odd node sleeps odd rounds, even node sleeps
    /// even rounds; they never exchange a message because the sender is
    /// awake exactly when the receiver sleeps.
    struct Alternator {
        id: NodeId,
        heard: u64,
    }
    impl Protocol for Alternator {
        type Msg = u8;
        type Output = u64;
        fn send(&mut self, _: &NodeCtx, out: &mut Outbox<u8>) {
            out.broadcast(1);
        }
        fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u8>]) -> Action {
            self.heard += inbox.len() as u64;
            if ctx.round >= 6 {
                return Action::Terminate;
            }
            Action::SleepUntil(ctx.round + 2)
        }
        fn output(&self) -> Option<u64> {
            Some(self.heard)
        }
    }

    #[test]
    fn disjoint_wake_schedules_never_communicate() {
        let g = generators::path(2).unwrap();
        let run = run_protocol(&g, &EngineConfig::default(), |id, _| {
            // Node 1 starts by sleeping odd rounds: shift its phase by
            // sleeping at round 0 to round 1.
            Alternator { id, heard: 0 }
        })
        .unwrap();
        // Same phase -> they actually always hear each other; sanity check
        // the complementary case by phase-shifting node 1.
        assert!(run.outputs[0].unwrap() > 0);

        struct Shifted(Alternator);
        impl Protocol for Shifted {
            type Msg = u8;
            type Output = u64;
            fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<u8>) {
                if self.0.id == 0 || ctx.round > 0 {
                    self.0.send(ctx, out);
                }
            }
            fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u8>]) -> Action {
                if self.0.id == 1 && ctx.round == 0 {
                    return Action::SleepUntil(1);
                }
                self.0.receive(ctx, inbox)
            }
            fn output(&self) -> Option<u64> {
                if self.0.id == 1 {
                    Some(self.0.heard)
                } else {
                    self.0.output()
                }
            }
        }
        let run = run_protocol(&g, &EngineConfig::default(), |id, _| {
            Shifted(Alternator { id, heard: 0 })
        })
        .unwrap();
        // Node 0 awake rounds: 0,2,4,6...; node 1: 1,3,5,... -> no message
        // is ever delivered to node 1 or node 0 after the shift.
        assert_eq!(run.outputs[1], Some(0));
    }

    #[test]
    fn trace_records_lifecycle() {
        let g = generators::empty(1).unwrap();
        let mut buffer = TraceBuffer::new(false);
        run_protocol_with_sink(
            &g,
            &EngineConfig::default(),
            |_, _| LongSleeper { done_after_wake: false },
            &mut buffer,
        )
        .unwrap();
        let t = buffer.into_trace();
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sleep { node: 0, until: 1_000_000, .. })));
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Wake { node: 0, round: 1_000_000 })));
        assert!(t
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Terminate { node: 0, round: 1_000_000 })));
    }

    #[test]
    fn message_loss_injection() {
        // Node 0 broadcasts every round for 200 rounds on a star; with 30%
        // loss the leaves hear roughly 70% of the traffic.
        struct Chatter {
            id: NodeId,
            heard: u64,
        }
        impl Protocol for Chatter {
            type Msg = u8;
            type Output = u64;
            fn send(&mut self, _: &NodeCtx, out: &mut Outbox<u8>) {
                if self.id == 0 {
                    out.broadcast(1);
                }
            }
            fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<u8>]) -> Action {
                self.heard += inbox.len() as u64;
                if ctx.round >= 199 {
                    Action::Terminate
                } else {
                    Action::Continue
                }
            }
            fn output(&self) -> Option<u64> {
                Some(self.heard)
            }
        }
        let g = generators::star(11).unwrap();
        let cfg = EngineConfig {
            fault: FaultPlan::Iid { probability: 0.3, seed: 42 },
            ..EngineConfig::default()
        };
        let run = run_protocol(&g, &cfg, |id, _| Chatter { id, heard: 0 }).unwrap();
        let heard: u64 = run.outputs.iter().skip(1).map(|o| o.unwrap()).sum();
        let lost: u64 = run.metrics.per_node.iter().map(|m| m.messages_lost).sum();
        let sent = run.metrics.per_node[0].messages_sent;
        assert_eq!(sent, 2000);
        assert_eq!(heard + lost, sent, "every message is delivered or lost");
        let rate = lost as f64 / sent as f64;
        assert!((rate - 0.3).abs() < 0.05, "loss rate {rate} far from 0.3");
        // Deterministic per loss seed.
        let run2 = run_protocol(&g, &cfg, |id, _| Chatter { id, heard: 0 }).unwrap();
        assert_eq!(run.outputs, run2.outputs);
        // The fault-free default loses nothing.
        let cfg0 = EngineConfig::default();
        let run0 = run_protocol(&g, &cfg0, |id, _| Chatter { id, heard: 0 }).unwrap();
        assert_eq!(run0.metrics.per_node.iter().map(|m| m.messages_lost).sum::<u64>(), 0);
    }

    /// The state-machine driver and the legacy loop agree under every
    /// fault plan, and each plan behaves as specified end to end.
    #[test]
    fn fault_plans_drive_both_loops_identically() {
        use crate::fault::{CrashWindow, LinkWindow};
        let g = generators::star(11).unwrap();
        let plans = [
            FaultPlan::Burst {
                p_enter: 0.1,
                p_exit: 0.2,
                loss_good: 0.02,
                loss_bad: 0.95,
                seed: 13,
            },
            FaultPlan::Partition { windows: vec![LinkWindow { a: 0, b: 3, start: 1, end: 4 }] },
            FaultPlan::Crash { windows: vec![CrashWindow { node: 5, start: 0, end: 200 }] },
        ];
        for plan in plans {
            let cfg = EngineConfig { fault: plan.clone(), ..EngineConfig::default() };
            let mut new_buf = TraceBuffer::new(true);
            let new_run =
                run_protocol_with_sink(&g, &cfg, |id, _| DropProbe { id, heard: 0 }, &mut new_buf)
                    .unwrap();
            let mut old_buf = TraceBuffer::new(true);
            let old_run = run_protocol_with_sink_legacy(
                &g,
                &cfg,
                |id, _| DropProbe { id, heard: 0 },
                &mut old_buf,
            )
            .unwrap();
            assert_eq!(new_run.outputs, old_run.outputs, "{plan:?}");
            assert_eq!(new_run.metrics, old_run.metrics, "{plan:?}");
            assert_eq!(new_buf.into_trace(), old_buf.into_trace(), "{plan:?}");
            let lost: u64 = new_run.metrics.per_node.iter().map(|m| m.messages_lost).sum();
            assert!(lost > 0, "{plan:?} should lose something on this workload");
        }
    }

    /// A node crashed for the whole run hears nothing; everyone else is
    /// untouched relative to a fault-free run.
    #[test]
    fn crash_windows_silence_exactly_the_crashed_node() {
        use crate::fault::CrashWindow;
        let g = generators::star(6).unwrap();
        let crashed = EngineConfig {
            fault: FaultPlan::Crash {
                windows: vec![CrashWindow { node: 2, start: 0, end: Round::MAX }],
            },
            ..EngineConfig::default()
        };
        let run = run_protocol(&g, &crashed, |id, _| DropProbe { id, heard: 0 }).unwrap();
        let clean =
            run_protocol(&g, &EngineConfig::default(), |id, _| DropProbe { id, heard: 0 }).unwrap();
        assert_eq!(run.outputs[2], Some(0), "crashed leaf hears nothing");
        for id in [1, 3, 4, 5] {
            assert_eq!(run.outputs[id], clean.outputs[id], "node {id} unaffected");
        }
        // The hub loses exactly the crashed leaf's replies... which a
        // DropProbe leaf never sends; node 2's inbound messages are the
        // only losses.
        let lost: u64 = run.metrics.per_node.iter().map(|m| m.messages_lost).sum();
        assert_eq!(lost, run.metrics.per_node[2].messages_lost);
        assert!(lost > 0);
    }

    #[test]
    fn empty_graph_runs() {
        let g = generators::empty(0).unwrap();
        let run = run_protocol(&g, &EngineConfig::default(), |id, _| Immediate(id)).unwrap();
        assert_eq!(run.metrics.total_rounds, 0);
        assert!(run.outputs.is_empty());
    }

    #[test]
    fn merge_sorted_works() {
        assert_eq!(merge_sorted(&[1, 4, 6], &[2, 3, 7]), vec![1, 2, 3, 4, 6, 7]);
        assert_eq!(merge_sorted(&[], &[2]), vec![2]);
        assert_eq!(merge_sorted(&[5], &[]), vec![5]);
        let mut out = vec![9, 9, 9, 9, 9];
        merge_sorted_into(&[0, 8], &[3], &mut out);
        assert_eq!(out, vec![0, 3, 8], "replaces what was there");
    }

    /// A payload naming its sender, round and place in the sender's
    /// queue on that port.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Tag {
        from: NodeId,
        round: Round,
        seq: u32,
    }

    impl crate::message::MessageSize for Tag {
        fn bits(&self) -> usize {
            64
        }
    }

    /// Never sleeps. Each round it queues `plan(id, round)` tagged
    /// messages on every port, logs its inbox, and terminates at round
    /// `end`.
    #[derive(Clone)]
    struct Scripted {
        id: NodeId,
        end: Round,
        plan: fn(NodeId, Round) -> u32,
        log: Vec<(Round, Port, Tag)>,
    }

    impl Protocol for Scripted {
        type Msg = Tag;
        type Output = Vec<(Round, Port, Tag)>;
        fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<Tag>) {
            for port in 0..ctx.degree {
                for seq in 0..(self.plan)(self.id, ctx.round) {
                    out.send(port, Tag { from: self.id, round: ctx.round, seq });
                }
            }
        }
        fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<Tag>]) -> Action {
            self.log.extend(inbox.iter().map(|m| (ctx.round, m.port, m.msg)));
            if ctx.round == self.end {
                Action::Terminate
            } else {
                Action::Continue
            }
        }
        fn output(&self) -> Option<Self::Output> {
            Some(self.log.clone())
        }
    }

    /// Runs [`Scripted`] and checks every node's log against the inbox
    /// order the engine documents (neighbors ascending, each one's
    /// messages in queue order, under the receiver's port) and against
    /// the legacy loop's plain per-node `Vec` inboxes.
    fn assert_scripted_inboxes(g: &Graph, end: Round, plan: fn(NodeId, Round) -> u32) {
        let factory = |id, _: &NodeCtx| Scripted { id, end, plan, log: Vec::new() };
        let cfg = EngineConfig::default();
        let run = run_protocol(g, &cfg, factory).unwrap();
        let legacy = run_protocol_with_sink_legacy(g, &cfg, factory, &mut NullSink).unwrap();
        assert_eq!(run.outputs, legacy.outputs);
        assert_eq!(run.metrics, legacy.metrics);
        for v in g.node_ids() {
            let mut expected = Vec::new();
            for round in 0..=end {
                for (port, &u) in g.neighbors(v).iter().enumerate() {
                    for seq in 0..plan(u, round) {
                        expected.push((round, port, Tag { from: u, round, seq }));
                    }
                }
            }
            assert_eq!(run.outputs[v as usize].as_ref().unwrap(), &expected, "node {v}");
        }
    }

    /// The hub of a star gets more messages than it has ports, then
    /// exactly as many, then fewer, then more again: its inbox spills,
    /// goes back to the arena, and spills again, always in order. The
    /// leaves (degree 1) spill in round 0 as well.
    #[test]
    fn inbox_spills_past_degree_and_returns_to_the_arena() {
        let g = generators::star(4).unwrap();
        assert_eq!(g.degree(0), 3);
        assert_scripted_inboxes(&g, 4, |v, round| match (v, round) {
            (0, 0) => 2,
            (0, 2) => 1,
            (_, 0) => 2,
            (_, 1) => 1,
            (1, 2) => 1,
            (2, 3) => 4,
            _ => 0,
        });
    }

    /// Isolated nodes, first, last and in between, get empty inboxes
    /// whether or not the arena has been filled yet.
    #[test]
    fn degree_zero_nodes_get_empty_inboxes() {
        let g = Graph::from_edges(6, [(1, 3), (3, 4)]).unwrap();
        assert_scripted_inboxes(&g, 2, |_, round| u32::from(round > 0));
        let edgeless = generators::empty(3).unwrap();
        assert_scripted_inboxes(&edgeless, 2, |_, _| 1);
    }

    /// No message moves until round 7, so every inbox before that is
    /// empty and the arena is first filled late in the run.
    #[test]
    fn first_delivery_late_in_the_run() {
        let g = generators::gnp(30, 0.2, 4).unwrap();
        assert_scripted_inboxes(&g, 9, |v, round| match round {
            7 => 1 + v % 2,
            8 => 1,
            _ => 0,
        });
    }

    use sleepy_graph::Graph;

    /// A protocol where node 0 relays through ports to verify port-to-id
    /// mapping: it sends its round number only on port 0.
    struct PortSender {
        id: NodeId,
        seen_from_port: Option<Port>,
    }
    impl Protocol for PortSender {
        type Msg = u8;
        type Output = u8;
        fn send(&mut self, _: &NodeCtx, out: &mut Outbox<u8>) {
            if self.id == 1 && out.degree() > 0 {
                out.send(0, 42);
            }
        }
        fn receive(&mut self, _: &NodeCtx, inbox: &[Incoming<u8>]) -> Action {
            if let Some(first) = inbox.first() {
                self.seen_from_port = Some(first.port);
            }
            Action::Terminate
        }
        fn output(&self) -> Option<u8> {
            Some(self.seen_from_port.map(|p| p as u8).unwrap_or(255))
        }
    }

    #[test]
    fn sink_path_reproduces_the_buffered_trace_and_validates() {
        use crate::sink::{RoundSeries, Tee};
        use crate::validate::{
            validate_series_against_metrics, validate_series_against_trace,
            validate_trace_against_metrics,
        };
        let g = Graph::from_edges(2, [(0, 1)]).unwrap();
        let cfg = EngineConfig {
            fault: FaultPlan::Iid { probability: 0.25, seed: 9 },
            ..EngineConfig::default()
        };
        let silent = run_protocol(&g, &cfg, |id, _| DropProbe { id, heard: 0 }).unwrap();
        let mut buffer = TraceBuffer::new(true);
        let buffered =
            run_protocol_with_sink(&g, &cfg, |id, _| DropProbe { id, heard: 0 }, &mut buffer)
                .unwrap();
        let mut tee_buffer = TraceBuffer::new(true);
        let mut series = RoundSeries::new();
        let mut tee = Tee::new(&mut tee_buffer, &mut series);
        let streamed =
            run_protocol_with_sink(&g, &cfg, |id, _| DropProbe { id, heard: 0 }, &mut tee).unwrap();
        // Observing never changes the run.
        assert_eq!(streamed.outputs, silent.outputs);
        assert_eq!(streamed.metrics, silent.metrics);
        assert_eq!(buffered.metrics, silent.metrics);
        let trace = tee_buffer.into_trace();
        assert_eq!(trace, buffer.into_trace(), "a teed buffer sees the same stream");
        assert!(trace.events.iter().any(|e| matches!(e, TraceEvent::Decide { .. })));
        validate_trace_against_metrics(&trace, &streamed.metrics, true).unwrap();
        let rows = series.into_rows();
        validate_series_against_metrics(&rows, &streamed.metrics).unwrap();
        validate_series_against_trace(&rows, &trace).unwrap();
        // The series' awake counts reproduce the engine's accounting.
        assert_eq!(rows.len() as u64, streamed.metrics.active_rounds);
        assert_eq!(
            rows.last().unwrap().cum_awake,
            streamed.metrics.per_node.iter().map(|m| m.awake_rounds).sum::<u64>()
        );
    }

    #[test]
    fn incoming_port_is_receiver_local() {
        // Triangle 0-1-2: node 1's port 0 leads to node 0. Node 0's port to
        // node 1 is 0 (neighbors of 0 are [1, 2]).
        let g = Graph::from_edges(3, [(0, 1), (1, 2), (0, 2)]).unwrap();
        let run = run_protocol(&g, &EngineConfig::default(), |id, _| PortSender {
            id,
            seen_from_port: None,
        })
        .unwrap();
        assert_eq!(run.outputs[0], Some(0));
        assert_eq!(run.outputs[2], Some(255)); // nothing received
    }

    /// The state-machine driver and the legacy loop must agree event for
    /// event, metric for metric. The broad randomized version lives in
    /// `tests/engine_statemachine.rs`; this is the in-crate smoke check.
    #[test]
    fn driver_matches_legacy_loop() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).unwrap();
        let cfg = EngineConfig {
            fault: FaultPlan::Iid { probability: 0.2, seed: 7 },
            ..EngineConfig::default()
        };
        let mut new_buf = TraceBuffer::new(true);
        let new_run =
            run_protocol_with_sink(&g, &cfg, |id, _| DropProbe { id, heard: 0 }, &mut new_buf)
                .unwrap();
        let mut old_buf = TraceBuffer::new(true);
        let old_run = run_protocol_with_sink_legacy(
            &g,
            &cfg,
            |id, _| DropProbe { id, heard: 0 },
            &mut old_buf,
        )
        .unwrap();
        assert_eq!(new_run.outputs, old_run.outputs);
        assert_eq!(new_run.metrics, old_run.metrics);
        assert_eq!(new_buf.into_trace(), old_buf.into_trace());
    }

    /// Error runs must also agree, including the events the sink saw
    /// before the failure.
    #[test]
    fn driver_matches_legacy_loop_on_errors() {
        let g = generators::empty(1).unwrap();
        let mut new_buf = TraceBuffer::new(true);
        let new_err = run_protocol_with_sink(
            &g,
            &EngineConfig::default(),
            |_, _| SleepsIntoPast,
            &mut new_buf,
        )
        .unwrap_err();
        let mut old_buf = TraceBuffer::new(true);
        let old_err = run_protocol_with_sink_legacy(
            &g,
            &EngineConfig::default(),
            |_, _| SleepsIntoPast,
            &mut old_buf,
        )
        .unwrap_err();
        assert_eq!(new_err, old_err);
        assert_eq!(new_buf.into_trace(), old_buf.into_trace());
    }
}
