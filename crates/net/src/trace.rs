//! Optional execution traces for debugging and recursion-tree extraction.

use crate::Round;
use serde::{Deserialize, Serialize};
use sleepy_graph::NodeId;

/// One engine event. Message-level events are only generated for sinks
/// whose [`wants_messages`](crate::TraceSink::wants_messages) is true,
/// since they dominate trace volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum TraceEvent {
    /// A node returned to the awake state at this round.
    Wake {
        /// Round of the event.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A node went to sleep at the end of this round, to wake at `until`.
    Sleep {
        /// Round of the event.
        round: Round,
        /// The node.
        node: NodeId,
        /// Absolute wake round.
        until: Round,
    },
    /// A node terminated at this round.
    Terminate {
        /// Round of the event.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A node's [`Protocol::output`](crate::Protocol::output) first became
    /// `Some` at this round (the node committed its output).
    Decide {
        /// Round of the event.
        round: Round,
        /// The node.
        node: NodeId,
    },
    /// A message was routed (only with message tracing enabled).
    Message {
        /// Round of the event.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Addressee.
        to: NodeId,
        /// Whether the addressee was asleep and the message dropped.
        dropped: bool,
    },
    /// A message was lost to injected transit failure before reaching the
    /// addressee (only with message tracing enabled; see
    /// [`EngineConfig::fault`](crate::EngineConfig::fault)).
    MessageLost {
        /// Round of the event.
        round: Round,
        /// Sender.
        from: NodeId,
        /// Addressee.
        to: NodeId,
    },
}

impl TraceEvent {
    /// The round the event occurred in.
    pub fn round(&self) -> Round {
        match *self {
            TraceEvent::Wake { round, .. }
            | TraceEvent::Sleep { round, .. }
            | TraceEvent::Terminate { round, .. }
            | TraceEvent::Decide { round, .. }
            | TraceEvent::Message { round, .. }
            | TraceEvent::MessageLost { round, .. } => round,
        }
    }
}

/// An ordered log of [`TraceEvent`]s from one run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Events in chronological order (ties in engine processing order).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Events concerning a particular node.
    pub fn for_node(&self, node: NodeId) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.events.iter().filter(move |e| match **e {
            TraceEvent::Wake { node: n, .. }
            | TraceEvent::Sleep { node: n, .. }
            | TraceEvent::Terminate { node: n, .. }
            | TraceEvent::Decide { node: n, .. } => n == node,
            TraceEvent::Message { from, to, .. } | TraceEvent::MessageLost { from, to, .. } => {
                from == node || to == node
            }
        })
    }

    /// The contiguous slice of events in a particular round, found by
    /// binary search over the round-sorted log (the engine appends events
    /// in non-decreasing round order, so no scan of the whole log is
    /// needed).
    pub fn round_range(&self, round: Round) -> &[TraceEvent] {
        let start = self.events.partition_point(|e| e.round() < round);
        let len = self.events[start..].partition_point(|e| e.round() <= round);
        &self.events[start..start + len]
    }

    /// Events in a particular round.
    pub fn in_round(&self, round: Round) -> impl Iterator<Item = &TraceEvent> + '_ {
        self.round_range(round).iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filters() {
        let t = Trace {
            events: vec![
                TraceEvent::Wake { round: 0, node: 1 },
                TraceEvent::Sleep { round: 0, node: 2, until: 5 },
                TraceEvent::Message { round: 1, from: 1, to: 2, dropped: true },
                TraceEvent::Terminate { round: 2, node: 1 },
            ],
        };
        assert_eq!(t.for_node(1).count(), 3);
        assert_eq!(t.for_node(2).count(), 2);
        assert_eq!(t.in_round(0).count(), 2);
        assert_eq!(t.events[2].round(), 1);
    }

    #[test]
    fn round_range_matches_linear_scan() {
        let t = Trace {
            events: vec![
                TraceEvent::Wake { round: 0, node: 1 },
                TraceEvent::Sleep { round: 0, node: 2, until: 5 },
                TraceEvent::Decide { round: 2, node: 1 },
                TraceEvent::Terminate { round: 2, node: 1 },
                TraceEvent::MessageLost { round: 5, from: 2, to: 1 },
                TraceEvent::Terminate { round: 5, node: 2 },
            ],
        };
        for round in 0..=6 {
            let linear: Vec<&TraceEvent> = t.events.iter().filter(|e| e.round() == round).collect();
            let ranged: Vec<&TraceEvent> = t.round_range(round).iter().collect();
            assert_eq!(linear, ranged, "round {round}");
            assert_eq!(t.in_round(round).count(), linear.len());
        }
        assert!(t.round_range(1).is_empty());
        assert!(t.round_range(99).is_empty());
    }

    #[test]
    fn new_event_kinds_carry_node_and_round() {
        let d = TraceEvent::Decide { round: 7, node: 3 };
        let l = TraceEvent::MessageLost { round: 8, from: 3, to: 4 };
        assert_eq!(d.round(), 7);
        assert_eq!(l.round(), 8);
        let t = Trace { events: vec![d, l] };
        assert_eq!(t.for_node(3).count(), 2);
        assert_eq!(t.for_node(4).count(), 1);
        assert_eq!(t.for_node(9).count(), 0);
    }
}
