//! Message plumbing: size accounting, outboxes and inboxes.

use crate::statemachine::OutMsg;
use sleepy_graph::Port;

/// Size of a message in bits, used for CONGEST accounting.
///
/// The CONGEST(log n) model allows O(log n)-bit messages per edge per round;
/// implement this trait on protocol message types so the engine can track
/// total communication volume and (optionally) enforce a per-message budget
/// via [`EngineConfig::congest_bits`](crate::EngineConfig::congest_bits).
pub trait MessageSize {
    /// The number of bits this message occupies on the wire.
    fn bits(&self) -> usize;
}

impl MessageSize for () {
    fn bits(&self) -> usize {
        0
    }
}

impl MessageSize for bool {
    fn bits(&self) -> usize {
        1
    }
}

macro_rules! int_message_size {
    ($($t:ty),*) => {
        $(impl MessageSize for $t {
            fn bits(&self) -> usize {
                <$t>::BITS as usize
            }
        })*
    };
}

int_message_size!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// The per-message bit budget of the CONGEST(log n) model for an `n`-node
/// network: `c · ⌈log₂ n⌉` bits with the customary constant c = 32 (room
/// for a constant number of node ids plus flags).
pub fn congest_bits_budget(n: usize) -> usize {
    let log = if n <= 2 { 1 } else { (n - 1).ilog2() as usize + 1 };
    32 * log
}

/// A message delivered to a node, tagged with the local port it arrived on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Incoming<M> {
    /// The receiver's local port the message arrived through.
    pub port: Port,
    /// The payload.
    pub msg: M,
}

/// Buffer a protocol writes its outgoing messages into during
/// [`Protocol::send`](crate::Protocol::send).
///
/// The engine owns and reuses the buffer; protocols only call
/// [`send`](Outbox::send) / [`broadcast`](Outbox::broadcast). Each queued
/// message is stored as the state machine's [`OutMsg`] (port and size,
/// measured once at queue time) plus its payload at the same index, so
/// the driver hands the `OutMsg` list to the engine as it stands.
#[derive(Debug)]
pub struct Outbox<M> {
    degree: usize,
    msgs: Vec<OutMsg>,
    payloads: Vec<M>,
}

impl<M: Clone + MessageSize> Outbox<M> {
    /// Creates an empty outbox (engine use).
    pub(crate) fn new() -> Self {
        Outbox { degree: 0, msgs: Vec::new(), payloads: Vec::new() }
    }

    /// Prepares the outbox for a node of the given degree (engine use).
    pub(crate) fn reset(&mut self, degree: usize) {
        self.degree = degree;
        self.msgs.clear();
        self.payloads.clear();
    }

    /// Moves the queued `OutMsg` list out, leaving an empty one behind;
    /// hand it back with [`Outbox::restore_msgs`] to keep its capacity
    /// (engine use).
    pub(crate) fn take_msgs(&mut self) -> Vec<OutMsg> {
        std::mem::take(&mut self.msgs)
    }

    /// Returns a list taken by [`Outbox::take_msgs`] (engine use).
    pub(crate) fn restore_msgs(&mut self, msgs: Vec<OutMsg>) {
        self.msgs = msgs;
    }

    /// The payload of the `index`-th queued message (engine use).
    pub(crate) fn payload(&self, index: usize) -> &M {
        &self.payloads[index]
    }

    /// Drains the queued messages in emission order (engine use).
    pub(crate) fn drain(&mut self) -> impl Iterator<Item = (OutMsg, M)> + '_ {
        self.msgs.drain(..).zip(self.payloads.drain(..))
    }

    /// Queues `msg` on local port `port`.
    ///
    /// Port validity is checked by the engine after the send phase; an
    /// out-of-range port aborts the run with
    /// [`EngineError::InvalidPort`](crate::EngineError::InvalidPort).
    pub fn send(&mut self, port: Port, msg: M) {
        self.msgs.push(OutMsg { port, bits: msg.bits() });
        self.payloads.push(msg);
    }

    /// Queues `msg` on every port (a local broadcast to all neighbors).
    pub fn broadcast(&mut self, msg: M) {
        let bits = msg.bits();
        self.msgs.extend((0..self.degree).map(|port| OutMsg { port, bits }));
        self.payloads.extend(std::iter::repeat_n(msg, self.degree));
    }

    /// The degree of the node currently sending.
    pub fn degree(&self) -> usize {
        self.degree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(().bits(), 0);
        assert_eq!(true.bits(), 1);
        assert_eq!(7u32.bits(), 32);
        assert_eq!(7u128.bits(), 128);
    }

    #[test]
    fn congest_budget_grows_logarithmically() {
        assert_eq!(congest_bits_budget(2), 32);
        assert_eq!(congest_bits_budget(1024), 32 * 10);
        assert!(congest_bits_budget(1 << 20) > congest_bits_budget(1 << 10));
    }

    #[test]
    fn outbox_broadcast_hits_every_port() {
        let mut ob: Outbox<u32> = Outbox::new();
        ob.reset(3);
        ob.broadcast(9);
        ob.send(1, 5);
        let queued: Vec<(OutMsg, u32)> = ob.drain().collect();
        let sent = |port, msg| (OutMsg { port, bits: 32 }, msg);
        assert_eq!(queued, vec![sent(0, 9), sent(1, 9), sent(2, 9), sent(1, 5)]);
        ob.send(0, 1);
        ob.reset(1);
        assert!(ob.take_msgs().is_empty());
        assert_eq!(ob.degree(), 1);
    }
}
