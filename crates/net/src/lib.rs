//! # sleepy-net
//!
//! A synchronous CONGEST simulator for the **sleeping model** of
//! Chatterjee, Gmyr, Pandurangan (PODC 2020).
//!
//! In the sleeping model a node is, at every round, either *awake* (the
//! default CONGEST behavior: it may send one message per incident edge,
//! receives messages, and computes) or *asleep* (it sends nothing, receives
//! nothing — messages addressed to it are **dropped** — computes nothing,
//! and incurs no cost). A node chooses when to sleep and the absolute round
//! at which to wake, matching the paper's model where a node "sets an alarm"
//! before sleeping.
//!
//! The engine is **event driven**: rounds in which no node is awake are
//! skipped in O(log n) time, which is what makes Algorithm 1's padded
//! Θ(n³)-round schedule simulatable (only O(n) rounds are expected to have
//! any node awake).
//!
//! ## Complexity measures
//!
//! [`RunMetrics::summary`] computes the four measures of the paper:
//! node-averaged awake complexity, worst-case awake complexity, worst-case
//! round complexity, and node-averaged round complexity, plus message/bit
//! totals and (via [`EnergyModel`]) energy figures.
//!
//! ## Writing a protocol
//!
//! Implement [`Protocol`] per node; each awake round the engine calls
//! [`Protocol::send`] (emit messages through an [`Outbox`]) and then
//! [`Protocol::receive`] (consume the inbox and return an [`Action`]:
//! continue awake, sleep until a given round, or terminate with an output).
//!
//! ```
//! use sleepy_graph::generators;
//! use sleepy_net::{Action, EngineConfig, Incoming, NodeCtx, Outbox, Protocol, run_protocol};
//!
//! /// Every node broadcasts its id once and terminates with the minimum
//! /// id it has heard (including its own).
//! struct MinId { best: u32, sent: bool }
//!
//! impl Protocol for MinId {
//!     type Msg = u32;
//!     type Output = u32;
//!     fn send(&mut self, _ctx: &NodeCtx, out: &mut Outbox<u32>) {
//!         if !self.sent { out.broadcast(self.best); self.sent = true; }
//!     }
//!     fn receive(&mut self, _ctx: &NodeCtx, inbox: &[Incoming<u32>]) -> Action {
//!         for m in inbox { self.best = self.best.min(m.msg); }
//!         Action::Terminate
//!     }
//!     fn output(&self) -> Option<u32> { Some(self.best) }
//! }
//!
//! let g = generators::cycle(5).unwrap();
//! let run = run_protocol(&g, &EngineConfig::default(), |id, _ctx| {
//!     MinId { best: id, sent: false }
//! }).unwrap();
//! assert_eq!(run.outputs[1], Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alarm;
mod energy;
mod engine;
mod error;
mod fault;
mod message;
mod metrics;
mod protocol;
mod sink;
mod statemachine;
mod tape;
mod trace;
mod validate;

pub use alarm::{TimerWheel, WHEEL_SLOTS};
pub use energy::{EnergyModel, EnergyReport};
pub use engine::{
    run_protocol, run_protocol_taped, run_protocol_with_sink, run_protocol_with_sink_legacy,
    EngineConfig, RunOutcome,
};
pub use error::EngineError;
pub use fault::{CrashWindow, FaultModel, FaultPlan, LinkWindow};
pub use message::{congest_bits_budget, Incoming, MessageSize, Outbox};
pub use metrics::{ComplexitySummary, NodeMetrics, RunMetrics};
pub use protocol::{Action, NodeCtx, Protocol};
pub use sink::{NullSink, RoundRow, RoundSeries, Tee, TraceBuffer, TraceSink};
pub use statemachine::{EngineInput, EngineOutput, OutMsg, SleepyEngine};
pub use tape::{replay_tape, ReplayOutcome, Tape, TapeError, TapeHeader, TAPE_VERSION};
pub use trace::{Trace, TraceEvent};
pub use validate::{
    validate_series_against_metrics, validate_series_against_trace, validate_trace_against_metrics,
};

/// Round number (0-based).
pub type Round = u64;

pub use sleepy_graph::{NodeId, Port};
