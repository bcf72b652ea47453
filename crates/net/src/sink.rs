//! Streaming observers for engine execution: the [`TraceSink`] trait and
//! its built-in implementations.
//!
//! The engine narrates every run through a sink —
//! [`run_protocol_with_sink`](crate::run_protocol_with_sink) — instead of
//! materializing a `Vec<TraceEvent>` unconditionally. The classic
//! [`Trace`] is now just one sink ([`TraceBuffer`]); aggregate-only
//! observers like [`RoundSeries`] keep O(1) state per round, which is what
//! makes round-level recording affordable on runs whose full event log
//! would dwarf the graph.
//!
//! Sinks receive events in the engine's deterministic order: for each
//! active round, one [`TraceSink::round_begin`] carrying the awake count,
//! then `Wake` events (ascending node id), then the send phase's
//! `Message`/`MessageLost` events (sender-major, ascending id), then the
//! receive phase's `Decide`/`Sleep`/`Terminate` events (ascending id).

use crate::trace::{Trace, TraceEvent};
use crate::Round;
use serde::Serialize;

/// A streaming observer of one engine run.
///
/// All methods are called single-threaded, in deterministic engine order,
/// so a sink's output is a pure function of the run.
pub trait TraceSink {
    /// Whether the engine should generate message-level events
    /// (`Message`/`MessageLost`) for this sink. Message traffic dominates
    /// event volume, so sinks must opt in. The engine reads this once per
    /// run; it must be constant.
    fn wants_messages(&self) -> bool {
        false
    }

    /// A new active round begins: `round` is the round number, `awake` the
    /// number of nodes awake in it (carried-over plus newly woken).
    fn round_begin(&mut self, round: Round, awake: usize) {
        let _ = (round, awake);
    }

    /// One engine event, in deterministic engine order.
    fn event(&mut self, event: &TraceEvent);
}

/// The no-op sink: recording disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _event: &TraceEvent) {}
}

/// The classic full-trace sink: buffers every event into a [`Trace`].
///
/// Pass one to [`run_protocol_with_sink`](crate::run_protocol_with_sink)
/// to keep a run's trace. Message events are kept only when constructed
/// with `messages = true`, so a `TraceBuffer` records the same `Trace`
/// whether it runs alone or teed with a message-hungry sink.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    trace: Trace,
    messages: bool,
}

impl TraceBuffer {
    /// A new buffer; `messages` controls whether message-level events are
    /// retained.
    pub fn new(messages: bool) -> Self {
        TraceBuffer { trace: Trace::default(), messages }
    }

    /// Consumes the buffer, yielding the recorded [`Trace`].
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

impl TraceSink for TraceBuffer {
    fn wants_messages(&self) -> bool {
        self.messages
    }

    fn event(&mut self, event: &TraceEvent) {
        if !self.messages
            && matches!(event, TraceEvent::Message { .. } | TraceEvent::MessageLost { .. })
        {
            return;
        }
        self.trace.events.push(*event);
    }
}

/// Fans one engine run out to two sinks.
pub struct Tee<'a> {
    a: &'a mut dyn TraceSink,
    b: &'a mut dyn TraceSink,
}

impl<'a> Tee<'a> {
    /// Tees `a` and `b`; both observe every round and event.
    pub fn new(a: &'a mut dyn TraceSink, b: &'a mut dyn TraceSink) -> Self {
        Tee { a, b }
    }
}

impl TraceSink for Tee<'_> {
    fn wants_messages(&self) -> bool {
        self.a.wants_messages() || self.b.wants_messages()
    }

    fn round_begin(&mut self, round: Round, awake: usize) {
        self.a.round_begin(round, awake);
        self.b.round_begin(round, awake);
    }

    fn event(&mut self, event: &TraceEvent) {
        self.a.event(event);
        self.b.event(event);
    }
}

/// Per-round aggregates of one engine run, as computed by [`RoundSeries`].
///
/// Every field is an integer so the row has one canonical rendering —
/// round outputs stay byte-identical across platforms and thread counts.
/// The running node-averaged awake complexity after this round is
/// `cum_awake / n` (left to consumers so no float ever enters the row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RoundRow {
    /// The round number (active rounds only; skipped idle rounds never get
    /// a row).
    pub round: Round,
    /// Nodes awake this round.
    pub awake: u64,
    /// Nodes that woke from sleep at the start of this round.
    pub wakes: u64,
    /// Nodes that went to sleep at the end of this round.
    pub sleeps: u64,
    /// Nodes that terminated this round.
    pub terminations: u64,
    /// Nodes whose output first became `Some` this round.
    pub decided: u64,
    /// Messages sent this round (delivered + dropped + lost).
    pub sent: u64,
    /// Messages dropped at sleeping addressees this round.
    pub dropped: u64,
    /// Messages lost to injected transit failure this round.
    pub lost: u64,
    /// Total awake rounds accrued by all nodes through this round — the
    /// numerator of the paper's node-averaged awake complexity.
    pub cum_awake: u64,
}

/// An O(1)-memory-per-round sink computing the per-round aggregate
/// timeline: awake counts, lifecycle transitions, message totals, and the
/// running awake-round sum.
#[derive(Debug, Clone, Default)]
pub struct RoundSeries {
    rows: Vec<RoundRow>,
    cum_awake: u64,
}

impl RoundSeries {
    /// An empty series.
    pub fn new() -> Self {
        RoundSeries::default()
    }

    /// The rows recorded so far, one per active round, in round order.
    pub fn rows(&self) -> &[RoundRow] {
        &self.rows
    }

    /// Consumes the series, yielding its rows.
    pub fn into_rows(self) -> Vec<RoundRow> {
        self.rows
    }
}

impl TraceSink for RoundSeries {
    fn wants_messages(&self) -> bool {
        true
    }

    fn round_begin(&mut self, round: Round, awake: usize) {
        self.cum_awake += awake as u64;
        self.rows.push(RoundRow {
            round,
            awake: awake as u64,
            cum_awake: self.cum_awake,
            ..RoundRow::default()
        });
    }

    fn event(&mut self, event: &TraceEvent) {
        let Some(row) = self.rows.last_mut() else {
            return;
        };
        match event {
            TraceEvent::Wake { .. } => row.wakes += 1,
            TraceEvent::Sleep { .. } => row.sleeps += 1,
            TraceEvent::Terminate { .. } => row.terminations += 1,
            TraceEvent::Decide { .. } => row.decided += 1,
            TraceEvent::Message { dropped, .. } => {
                row.sent += 1;
                if *dropped {
                    row.dropped += 1;
                }
            }
            TraceEvent::MessageLost { .. } => {
                row.sent += 1;
                row.lost += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(sink: &mut dyn TraceSink) {
        sink.round_begin(0, 3);
        sink.event(&TraceEvent::Message { round: 0, from: 0, to: 1, dropped: false });
        sink.event(&TraceEvent::Message { round: 0, from: 1, to: 2, dropped: true });
        sink.event(&TraceEvent::MessageLost { round: 0, from: 2, to: 0 });
        sink.event(&TraceEvent::Decide { round: 0, node: 0 });
        sink.event(&TraceEvent::Sleep { round: 0, node: 0, until: 4 });
        sink.event(&TraceEvent::Terminate { round: 0, node: 1 });
        sink.round_begin(4, 2);
        sink.event(&TraceEvent::Wake { round: 4, node: 0 });
        sink.event(&TraceEvent::Terminate { round: 4, node: 0 });
        sink.event(&TraceEvent::Terminate { round: 4, node: 2 });
    }

    #[test]
    fn round_series_aggregates_per_round() {
        let mut series = RoundSeries::new();
        feed(&mut series);
        let rows = series.into_rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0],
            RoundRow {
                round: 0,
                awake: 3,
                wakes: 0,
                sleeps: 1,
                terminations: 1,
                decided: 1,
                sent: 3,
                dropped: 1,
                lost: 1,
                cum_awake: 3,
            }
        );
        assert_eq!(
            rows[1],
            RoundRow {
                round: 4,
                awake: 2,
                wakes: 1,
                sleeps: 0,
                terminations: 2,
                decided: 0,
                sent: 0,
                dropped: 0,
                lost: 0,
                cum_awake: 5,
            }
        );
    }

    #[test]
    fn trace_buffer_filters_messages_unless_asked() {
        let mut quiet = TraceBuffer::new(false);
        feed(&mut quiet);
        let mut chatty = TraceBuffer::new(true);
        feed(&mut chatty);
        let quiet = quiet.into_trace();
        let chatty = chatty.into_trace();
        assert_eq!(quiet.events.len(), 6);
        assert_eq!(chatty.events.len(), 9);
        assert!(quiet
            .events
            .iter()
            .all(|e| !matches!(e, TraceEvent::Message { .. } | TraceEvent::MessageLost { .. })));
    }

    #[test]
    fn tee_feeds_both_and_unions_message_appetite() {
        let mut buffer = TraceBuffer::new(false);
        let mut series = RoundSeries::new();
        {
            let mut tee = Tee::new(&mut buffer, &mut series);
            assert!(tee.wants_messages(), "RoundSeries needs messages");
            feed(&mut tee);
        }
        // The buffer still excludes message events despite the tee.
        assert_eq!(buffer.into_trace().events.len(), 6);
        assert_eq!(series.rows().len(), 2);
        assert_eq!(series.rows()[0].sent, 3);
        let mut a = NullSink;
        let mut b = NullSink;
        assert!(!Tee::new(&mut a, &mut b).wants_messages());
    }
}
