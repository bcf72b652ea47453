//! Per-node and aggregate run metrics, and the paper's complexity measures.

use crate::Round;
use serde::{Deserialize, Serialize};

/// Per-node counters collected by the engine.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeMetrics {
    /// Rounds this node was awake (the paper's a_v).
    pub awake_rounds: u64,
    /// Round at which the node terminated, if it did.
    pub finish_round: Option<Round>,
    /// First round at which [`Protocol::output`](crate::Protocol::output)
    /// became `Some` (the node "committed" its output).
    pub decide_round: Option<Round>,
    /// Messages this node sent.
    pub messages_sent: u64,
    /// Messages delivered to this node.
    pub messages_received: u64,
    /// Messages addressed to this node while it was asleep (dropped, per
    /// the sleeping model).
    pub messages_dropped: u64,
    /// Messages addressed to this node lost by injected transit failures
    /// (see [`EngineConfig::fault`](crate::EngineConfig::fault)).
    #[serde(default)]
    pub messages_lost: u64,
    /// Total bits this node sent.
    pub bits_sent: u64,
}

/// Aggregate metrics for a completed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Per-node counters, indexed by node id.
    pub per_node: Vec<NodeMetrics>,
    /// Worst-case round complexity: rounds elapsed until the last node
    /// terminated (`max finish_round + 1`; 0 for an empty network).
    pub total_rounds: u64,
    /// Rounds the engine actually processed (rounds with ≥ 1 awake node).
    pub active_rounds: u64,
}

impl RunMetrics {
    /// The four complexity measures of the paper plus communication totals.
    pub fn summary(&self) -> ComplexitySummary {
        let n = self.per_node.len();
        let total_awake: u64 = self.per_node.iter().map(|m| m.awake_rounds).sum();
        let worst_awake = self.per_node.iter().map(|m| m.awake_rounds).max().unwrap_or(0);
        let total_finish: u64 = self
            .per_node
            .iter()
            .map(|m| m.finish_round.map(|r| r + 1).unwrap_or(self.total_rounds))
            .sum();
        let total_messages: u64 = self.per_node.iter().map(|m| m.messages_sent).sum();
        let total_bits: u64 = self.per_node.iter().map(|m| m.bits_sent).sum();
        let dropped_messages: u64 = self.per_node.iter().map(|m| m.messages_dropped).sum();
        let lost_messages: u64 = self.per_node.iter().map(|m| m.messages_lost).sum();
        ComplexitySummary {
            n,
            node_avg_awake: if n == 0 { 0.0 } else { total_awake as f64 / n as f64 },
            worst_awake,
            worst_round: self.total_rounds,
            node_avg_round: if n == 0 { 0.0 } else { total_finish as f64 / n as f64 },
            active_rounds: self.active_rounds,
            total_messages,
            dropped_messages,
            lost_messages,
            total_bits,
        }
    }
}

/// The paper's complexity measures for one run.
///
/// *Awake* measures count only rounds a node spent awake; *round* measures
/// count wall-clock rounds including sleep (the traditional measure).
#[derive(Debug, Clone, Copy, PartialEq, Deserialize)]
pub struct ComplexitySummary {
    /// Number of nodes.
    pub n: usize,
    /// Node-averaged awake complexity: (1/n)·Σ_v a_v.
    pub node_avg_awake: f64,
    /// Worst-case awake complexity: max_v a_v.
    pub worst_awake: u64,
    /// Worst-case round complexity: rounds until the last node finished.
    pub worst_round: u64,
    /// Node-averaged round complexity: (1/n)·Σ_v (finish round of v + 1).
    pub node_avg_round: f64,
    /// Rounds the engine actually processed (diagnostic; not a paper
    /// measure).
    pub active_rounds: u64,
    /// Total messages sent.
    pub total_messages: u64,
    /// Messages dropped because the addressee was asleep.
    pub dropped_messages: u64,
    /// Messages lost to injected transit failures (serde-defaulted: absent
    /// in JSON written before the field existed, and omitted when zero).
    #[serde(default)]
    pub lost_messages: u64,
    /// Total bits sent.
    pub total_bits: u64,
}

// Hand-written so `lost_messages` is *omitted when zero*: every summary
// from a loss-free run — i.e. every artifact the byte-identity suites
// pin — serializes to exactly the bytes the derived impl produced before
// the field existed.
impl Serialize for ComplexitySummary {
    fn to_value(&self) -> serde::Value {
        let mut obj = vec![
            ("n".to_string(), Serialize::to_value(&self.n)),
            ("node_avg_awake".to_string(), Serialize::to_value(&self.node_avg_awake)),
            ("worst_awake".to_string(), Serialize::to_value(&self.worst_awake)),
            ("worst_round".to_string(), Serialize::to_value(&self.worst_round)),
            ("node_avg_round".to_string(), Serialize::to_value(&self.node_avg_round)),
            ("active_rounds".to_string(), Serialize::to_value(&self.active_rounds)),
            ("total_messages".to_string(), Serialize::to_value(&self.total_messages)),
            ("dropped_messages".to_string(), Serialize::to_value(&self.dropped_messages)),
        ];
        if self.lost_messages > 0 {
            obj.push(("lost_messages".to_string(), Serialize::to_value(&self.lost_messages)));
        }
        obj.push(("total_bits".to_string(), Serialize::to_value(&self.total_bits)));
        serde::Value::Object(obj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(awake: u64, finish: Round) -> NodeMetrics {
        NodeMetrics {
            awake_rounds: awake,
            finish_round: Some(finish),
            decide_round: Some(finish),
            messages_sent: awake,
            messages_received: 0,
            messages_dropped: 1,
            messages_lost: 0,
            bits_sent: 8 * awake,
        }
    }

    #[test]
    fn summary_math() {
        let m = RunMetrics {
            per_node: vec![node(3, 9), node(5, 19), node(1, 4), node(3, 9)],
            total_rounds: 20,
            active_rounds: 12,
        };
        let s = m.summary();
        assert_eq!(s.n, 4);
        assert!((s.node_avg_awake - 3.0).abs() < 1e-12);
        assert_eq!(s.worst_awake, 5);
        assert_eq!(s.worst_round, 20);
        // finish+1: 10, 20, 5, 10 -> mean 11.25
        assert!((s.node_avg_round - 11.25).abs() < 1e-12);
        assert_eq!(s.total_messages, 12);
        assert_eq!(s.dropped_messages, 4);
        assert_eq!(s.lost_messages, 0);
        assert_eq!(s.total_bits, 96);
        assert_eq!(s.active_rounds, 12);
    }

    #[test]
    fn summary_sums_lost_messages() {
        let mut a = node(1, 2);
        a.messages_lost = 3;
        let mut b = node(1, 2);
        b.messages_lost = 4;
        let m = RunMetrics { per_node: vec![a, b], total_rounds: 3, active_rounds: 3 };
        assert_eq!(m.summary().lost_messages, 7);
    }

    #[test]
    fn lost_messages_field_is_omitted_when_zero() {
        let m = RunMetrics {
            per_node: vec![node(3, 9), node(5, 19)],
            total_rounds: 20,
            active_rounds: 12,
        };
        let mut s = m.summary();
        let clean = serde::value::to_compact_string(&s.to_value());
        assert!(!clean.contains("lost_messages"), "zero-loss summary must keep legacy bytes");
        s.lost_messages = 2;
        let lossy = serde::value::to_compact_string(&s.to_value());
        assert!(lossy.contains("\"lost_messages\":2"));
        // Field order: between dropped_messages and total_bits.
        let d = lossy.find("dropped_messages").unwrap();
        let l = lossy.find("lost_messages").unwrap();
        let t = lossy.find("total_bits").unwrap();
        assert!(d < l && l < t);
    }

    #[test]
    fn empty_network_summary() {
        let m = RunMetrics { per_node: vec![], total_rounds: 0, active_rounds: 0 };
        let s = m.summary();
        assert_eq!(s.n, 0);
        assert_eq!(s.node_avg_awake, 0.0);
        assert_eq!(s.worst_awake, 0);
    }

    #[test]
    fn unfinished_nodes_charged_total_rounds() {
        let mut unfinished = node(2, 0);
        unfinished.finish_round = None;
        let m = RunMetrics {
            per_node: vec![unfinished, node(2, 3)],
            total_rounds: 10,
            active_rounds: 10,
        };
        // (10 + 4) / 2
        assert!((m.summary().node_avg_round - 7.0).abs() < 1e-12);
    }
}
