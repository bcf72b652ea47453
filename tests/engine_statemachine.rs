//! Differential conformance: the sans-io state-machine driver against
//! the legacy round loop, across random graphs × protocols × drop rates.
//!
//! [`run_protocol_with_sink`] now drives a [`SleepyEngine`] state
//! machine; [`run_protocol_with_sink_legacy`] is the pre-refactor loop
//! kept verbatim as the differential oracle. For every sampled
//! configuration the two must agree on **everything observable**: the
//! full message-level trace, per-node metrics, the complexity summary
//! and the final outputs. On top of that, recording the run as a tape
//! and replaying it through a fresh engine must reproduce the same
//! metrics — the tape path shares no protocol code with the live run.
//! The `Chorus` protocol adds what the algorithms never do: several
//! messages on one port in a round, so inboxes that outgrow the driver's
//! one-slot-per-port arena, and a send phase that fails partway through.
//!
//! [`run_protocol_with_sink`]: sleepy::net::run_protocol_with_sink
//! [`run_protocol_with_sink_legacy`]: sleepy::net::run_protocol_with_sink_legacy
//! [`SleepyEngine`]: sleepy::net::SleepyEngine

use proptest::prelude::*;
use sleepy::baselines::{Ghaffari, GreedyCrt, LubyA, LubyB};
use sleepy::graph::{Graph, NodeId};
use sleepy::mis::{MisConfig, PreparedMis, SleepingMisProtocol};
use sleepy::net::{
    replay_tape, run_protocol, run_protocol_taped, run_protocol_with_sink,
    run_protocol_with_sink_legacy, Action, EngineConfig, EngineError, FaultPlan, Incoming,
    MessageSize, NodeCtx, Outbox, Port, Protocol, Round, Tape, TraceBuffer, TraceEvent,
};

/// Strategy: an arbitrary simple graph as (n, edge set).
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (1..max_n).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n as NodeId, 0..n as NodeId), 0..max_edges.min(4 * n))
            .prop_map(move |pairs| {
                let edges: Vec<(NodeId, NodeId)> =
                    pairs.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, edges).expect("filtered edges are valid")
            })
    })
}

/// Strategy: an engine config sweeping the loss process. Lossy runs get
/// `lossy_cap` as a round cap: message-waiting protocols (the baselines)
/// may legitimately stall forever once messages drop, and a capped run
/// that errors identically on both drivers is just as much a conformance
/// check as a finishing one. The paper's algorithms follow a fixed
/// rank-determined schedule, so they terminate under loss — but reach
/// Θ(n³) round *numbers*, hence their cap stays effectively unlimited.
fn arb_config(lossy_cap: u64) -> impl Strategy<Value = EngineConfig> {
    (0usize..3, 0u64..50).prop_map(move |(p, s)| {
        let loss = [0.0, 0.15, 0.5][p];
        if loss > 0.0 {
            EngineConfig {
                max_rounds: lossy_cap,
                fault: FaultPlan::Iid { probability: loss, seed: s },
                ..EngineConfig::default()
            }
        } else {
            EngineConfig::default()
        }
    })
}

/// Runs `factory`'s protocol through the state-machine driver, the
/// legacy loop, and the tape record/replay cycle, asserting byte-level
/// agreement everywhere.
fn assert_statemachine_conformance<P, F>(graph: &Graph, config: &EngineConfig, factory: F)
where
    P: Protocol,
    P::Output: PartialEq + std::fmt::Debug,
    F: FnMut(NodeId, &NodeCtx) -> P + Clone,
{
    let mut new_buf = TraceBuffer::new(true);
    let new = run_protocol_with_sink(graph, config, factory.clone(), &mut new_buf);
    let mut old_buf = TraceBuffer::new(true);
    let old = run_protocol_with_sink_legacy(graph, config, factory.clone(), &mut old_buf);
    match (new, old) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.outputs, b.outputs, "outputs diverge");
            assert_eq!(a.metrics, b.metrics, "metrics diverge");
            assert_eq!(a.metrics.summary(), b.metrics.summary(), "summaries diverge");
        }
        (a, b) => {
            let (a, b) = (a.map(|_| ()), b.map(|_| ()));
            assert_eq!(
                a.as_ref().err().map(ToString::to_string),
                b.as_ref().err().map(ToString::to_string),
                "error behavior diverges"
            );
        }
    }
    assert_eq!(new_buf.into_trace(), old_buf.into_trace(), "traces diverge");

    // Tape cycle: the recorded exchange must replay to the same digest
    // and metrics through a fresh engine, and serialize canonically.
    let mut tape_buf = TraceBuffer::new(true);
    let (result, tape) = run_protocol_taped(graph, config, factory, &mut tape_buf);
    let outcome = replay_tape(&tape).expect("fresh tape replays");
    if let Ok(run) = result {
        assert_eq!(outcome.metrics.as_ref(), Some(&run.metrics), "replay metrics diverge");
    } else {
        assert!(outcome.error.is_some(), "live error missing from replay");
    }
    let text = tape.to_jsonl();
    let reparsed = Tape::from_jsonl(&text).expect("canonical tape parses");
    assert_eq!(reparsed.to_jsonl(), text, "tape serialization not canonical");
}

/// A payload naming its sender, its place in the sender's emission
/// order this round, and the round.
#[derive(Debug, Clone, PartialEq)]
struct Tagged {
    from: NodeId,
    seq: u32,
    round: Round,
}

impl MessageSize for Tagged {
    fn bits(&self) -> usize {
        64
    }
}

/// Every awake round, each node queues a broadcast (seq 1), two sends on
/// port 0 (seqs 2 and 3), one on its last port (seq 4) and a second
/// broadcast (seq 5); the `bad` node then queues an out-of-range port
/// (seq 6) in round 1. Nodes `v % 3 == 1` sleep through round 1, and
/// everyone terminates in round 2. The output is the node's whole inbox
/// log, in arrival order.
#[derive(Debug, Clone)]
struct Chorus {
    id: NodeId,
    bad: bool,
    log: Vec<(Port, Tagged)>,
}

impl Chorus {
    fn awake(v: NodeId, round: Round) -> bool {
        round != 1 || v % 3 != 1
    }

    /// The seqs a sender of degree `degree` queues on its port `port`.
    fn seqs(port: Port, degree: usize) -> Vec<u32> {
        let mut seqs = vec![1];
        if port == 0 {
            seqs.extend([2, 3]);
        }
        if port == degree - 1 {
            seqs.push(4);
        }
        seqs.push(5);
        seqs
    }
}

impl Protocol for Chorus {
    type Msg = Tagged;
    type Output = Vec<(Port, Tagged)>;

    fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<Tagged>) {
        let tag = |seq| Tagged { from: self.id, seq, round: ctx.round };
        out.broadcast(tag(1));
        if ctx.degree > 0 {
            out.send(0, tag(2));
            out.send(0, tag(3));
            out.send(ctx.degree - 1, tag(4));
        }
        out.broadcast(tag(5));
        if self.bad && ctx.round == 1 {
            out.send(ctx.degree + 1, tag(6));
        }
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<Tagged>]) -> Action {
        self.log.extend(inbox.iter().map(|m| (m.port, m.msg.clone())));
        match ctx.round {
            0 if !Chorus::awake(self.id, 1) => Action::SleepUntil(2),
            0 | 1 => Action::Continue,
            _ => Action::Terminate,
        }
    }

    fn output(&self) -> Option<Self::Output> {
        Some(self.log.clone())
    }
}

/// A fixed graph on which `Chorus` spills every inbox it fills: each
/// awake neighbor sends at least two messages on each port, so a node
/// that hears anything hears more messages than it has ports, and its
/// inbox overflows the driver's per-port arena. The random cases can
/// draw edgeless graphs, which never spill.
#[test]
fn chorus_spills_past_degree_on_a_fixed_graph() {
    let g = Graph::from_edges(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]).unwrap();
    let factory = |id, _: &NodeCtx| Chorus { id, bad: false, log: Vec::new() };
    let lossy = EngineConfig {
        fault: FaultPlan::Iid { probability: 0.15, seed: 3 },
        ..EngineConfig::default()
    };
    for config in [EngineConfig::default(), lossy] {
        assert_statemachine_conformance(&g, &config, factory);
    }
    let run = run_protocol(&g, &EngineConfig::default(), factory).unwrap();
    let spilled: Vec<NodeId> = g
        .node_ids()
        .filter(|&v| {
            let log = run.outputs[v as usize].as_ref().unwrap();
            (0..3).any(|r| log.iter().filter(|(_, t)| t.round == r).count() > g.degree(v))
        })
        .collect();
    assert_eq!(spilled, vec![0, 1, 2, 3, 4], "every node with a neighbor spills");
}

/// Whether `sub` is `full` with some entries left out.
fn is_subsequence<T: PartialEq>(sub: &[T], full: &[T]) -> bool {
    let mut rest = full.iter();
    sub.iter().all(|x| rest.any(|y| y == x))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn delivery_order_and_ports_agree(
        g in arb_graph(20),
        config in arb_config(EngineConfig::default().max_rounds),
        seed in 0u64..60,
    ) {
        // On a third of the seeds one node queues an invalid port in
        // round 1, after its valid messages.
        let bad = (seed % 3 == 0).then(|| (seed / 3) as NodeId % g.n() as NodeId);
        let factory = |id, _: &NodeCtx| Chorus { id, bad: bad == Some(id), log: Vec::new() };
        assert_statemachine_conformance(&g, &config, factory);

        let mut buf = TraceBuffer::new(true);
        let run = run_protocol_with_sink(&g, &config, factory, &mut buf);
        let trace = buf.into_trace();
        match (run, bad) {
            (Ok(run), _) => {
                // Inboxes hold, per round, the awake neighbors ascending by
                // id, each one's messages in emission order, under the
                // receiver's port to that neighbor.
                for v in g.node_ids() {
                    let mut expected = Vec::new();
                    for round in (0..3).filter(|&r| Chorus::awake(v, r)) {
                        for (port, &u) in g.neighbors(v).iter().enumerate() {
                            if !Chorus::awake(u, round) {
                                continue;
                            }
                            let sender_port = g.port_to(u, v).unwrap();
                            for seq in Chorus::seqs(sender_port, g.degree(u)) {
                                expected.push((port, Tagged { from: u, seq, round }));
                            }
                        }
                    }
                    let log = run.outputs[v as usize].as_ref().unwrap();
                    if config.fault == FaultPlan::None {
                        prop_assert_eq!(log, &expected, "node {}", v);
                    } else {
                        prop_assert!(is_subsequence(log, &expected), "node {}: {:?}", v, log);
                    }
                }
            }
            (Err(err), Some(b)) => {
                // Only the bad node fails, and the sink still saw every
                // message it queued before the invalid one.
                let degree = g.degree(b);
                prop_assert_eq!(
                    err,
                    EngineError::InvalidPort { node: b, port: degree + 1, degree }
                );
                let before = trace
                    .events
                    .iter()
                    .filter(|e| match **e {
                        TraceEvent::Message { round, from, .. }
                        | TraceEvent::MessageLost { round, from, .. } => round == 1 && from == b,
                        _ => false,
                    })
                    .count();
                let queued = if degree == 0 { 0 } else { 2 * degree + 3 };
                prop_assert_eq!(before, queued);
            }
            (Err(err), None) => prop_assert!(false, "unexpected error {}", err),
        }
    }

    #[test]
    fn alg1_statemachine_matches_legacy(
        g in arb_graph(30),
        config in arb_config(EngineConfig::default().max_rounds),
        seed in 0u64..100,
    ) {
        let prepared = PreparedMis::new(g.n(), MisConfig::alg1(seed)).unwrap();
        assert_statemachine_conformance(&g, &config, |id, _| {
            SleepingMisProtocol::new(id, &prepared)
        });
    }

    #[test]
    fn alg2_statemachine_matches_legacy(
        g in arb_graph(24),
        config in arb_config(EngineConfig::default().max_rounds),
        seed in 0u64..100,
    ) {
        let prepared = PreparedMis::new(g.n(), MisConfig::alg2(seed)).unwrap();
        assert_statemachine_conformance(&g, &config, |id, _| {
            SleepingMisProtocol::new(id, &prepared)
        });
    }

    #[test]
    fn baselines_statemachine_matches_legacy(
        g in arb_graph(24),
        config in arb_config(500),
        seed in 0u64..100,
        which in 0usize..4,
    ) {
        match which {
            0 => assert_statemachine_conformance(&g, &config, |id, _| LubyA::new(id, seed)),
            1 => assert_statemachine_conformance(&g, &config, |id, _| LubyB::new(id, seed)),
            2 => assert_statemachine_conformance(&g, &config, |id, _| GreedyCrt::new(id, seed)),
            _ => assert_statemachine_conformance(&g, &config, |id, _| Ghaffari::new(id, seed)),
        }
    }

    #[test]
    fn error_runs_agree_under_round_caps(
        g in arb_graph(16),
        seed in 0u64..50,
        cap in 1u64..4,
    ) {
        // Tiny round caps force MaxRoundsExceeded on most instances;
        // driver and legacy loop must fail identically (same error, same
        // pre-failure trace) and the tape must reproduce the error.
        let config = EngineConfig { max_rounds: cap, ..EngineConfig::default() };
        assert_statemachine_conformance(&g, &config, |id, _| Ghaffari::new(id, seed));
    }
}
