//! Deterministic message-fault plans: the engine's loss process,
//! generalized.
//!
//! A [`FaultPlan`] describes *which messages are lost in transit*, fully
//! deterministically: every plan is a pure function of its seed (and the
//! engine's canonical message order), so a faulted run replays
//! byte-for-byte from its tape like any other run. The plan lives in
//! [`EngineConfig`](crate::EngineConfig) and is serialized into tape
//! headers; the state machine consults the built [`FaultModel`] exactly
//! once per message, in emission order, which is what pins the decision
//! sequence.
//!
//! Four fault processes are modeled:
//!
//! * [`FaultPlan::Iid`] — independent per-message loss, the engine's
//!   original loss process (tape format v1 records it as the header's
//!   loss pair);
//! * [`FaultPlan::Burst`] — a two-state Gilbert–Elliott channel: a
//!   hidden good/bad state flips with `p_enter`/`p_exit` per message and
//!   each state has its own loss probability, producing correlated loss
//!   bursts;
//! * [`FaultPlan::Partition`] — per-edge link cuts over half-open round
//!   windows: while a window is active, every message on that link (both
//!   directions) is lost;
//! * [`FaultPlan::Crash`] — node crash/recover schedules as omission
//!   faults: while a node is crashed, every message to or from it is
//!   lost. The node's local computation state is untouched (the sleeping
//!   model keeps scheduling it), which keeps the input stream — and thus
//!   the tape format — identical in shape to a fault-free run.
//!
//! Lost messages are counted in
//! [`NodeMetrics::messages_lost`](crate::NodeMetrics::messages_lost) and
//! emit [`TraceEvent::MessageLost`](crate::TraceEvent::MessageLost) when
//! message-level tracing is on, exactly like the original loss process.

use crate::Round;
use serde::Value;
use sleepy_graph::NodeId;

/// A round window `[start, end)` during which the undirected link
/// `a`–`b` loses every message in both directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkWindow {
    /// One endpoint of the link.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First round of the cut (inclusive).
    pub start: Round,
    /// First round after the cut (exclusive).
    pub end: Round,
}

/// A round window `[start, end)` during which `node` is crashed: every
/// message to or from it is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed node.
    pub node: NodeId,
    /// First crashed round (inclusive).
    pub start: Round,
    /// First recovered round (exclusive).
    pub end: Round,
}

/// A seeded, deterministic description of the fault process — see the
/// module docs of `fault.rs` for the taxonomy.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum FaultPlan {
    /// No injected faults (the paper's reliable model).
    #[default]
    None,
    /// Independent per-message loss: one Bernoulli draw per message from
    /// a seeded RNG.
    Iid {
        /// Per-message loss probability in `[0, 1]`.
        probability: f64,
        /// Seed of the loss RNG.
        seed: u64,
    },
    /// Gilbert–Elliott burst loss: a hidden good/bad channel state.
    Burst {
        /// Per-message probability of flipping good → bad.
        p_enter: f64,
        /// Per-message probability of flipping bad → good.
        p_exit: f64,
        /// Loss probability while the channel is good.
        loss_good: f64,
        /// Loss probability while the channel is bad.
        loss_bad: f64,
        /// Seed of the channel RNG.
        seed: u64,
    },
    /// Per-edge link cuts over round windows (no randomness).
    Partition {
        /// The cut windows; a message is lost if any window covers it.
        windows: Vec<LinkWindow>,
    },
    /// Node crash/recover schedules as omission faults (no randomness).
    Crash {
        /// The crash windows; a message is lost if any window covers
        /// either endpoint.
        windows: Vec<CrashWindow>,
    },
}

/// The built, stateful fault process. The engine calls
/// [`message_lost`](FaultModel::message_lost) exactly once per message,
/// in the canonical send order (sender-major, emission order within a
/// sender), so stateful models advance deterministically.
pub trait FaultModel: std::fmt::Debug {
    /// Whether the message `from → to` sent in `round` is lost in
    /// transit.
    fn message_lost(&mut self, round: Round, from: NodeId, to: NodeId) -> bool;
}

#[derive(Debug)]
struct IidLoss {
    probability: f64,
    rng: rand::rngs::SmallRng,
}

impl FaultModel for IidLoss {
    fn message_lost(&mut self, _round: Round, _from: NodeId, _to: NodeId) -> bool {
        use rand::Rng as _;
        self.rng.gen_bool(self.probability)
    }
}

#[derive(Debug)]
struct BurstLoss {
    p_enter: f64,
    p_exit: f64,
    loss_good: f64,
    loss_bad: f64,
    bad: bool,
    rng: rand::rngs::SmallRng,
}

impl FaultModel for BurstLoss {
    fn message_lost(&mut self, _round: Round, _from: NodeId, _to: NodeId) -> bool {
        use rand::Rng as _;
        // Exactly two draws per message — one state transition, one loss
        // decision — regardless of the probabilities, so the decision
        // sequence is a pure function of the seed and the message index.
        let flip = self.rng.gen_bool(if self.bad { self.p_exit } else { self.p_enter });
        if flip {
            self.bad = !self.bad;
        }
        let p = if self.bad { self.loss_bad } else { self.loss_good };
        self.rng.gen_bool(p)
    }
}

#[derive(Debug)]
struct PartitionFaults {
    windows: Vec<LinkWindow>,
}

impl FaultModel for PartitionFaults {
    fn message_lost(&mut self, round: Round, from: NodeId, to: NodeId) -> bool {
        self.windows.iter().any(|w| {
            round >= w.start
                && round < w.end
                && ((w.a == from && w.b == to) || (w.a == to && w.b == from))
        })
    }
}

#[derive(Debug)]
struct CrashFaults {
    windows: Vec<CrashWindow>,
}

impl FaultModel for CrashFaults {
    fn message_lost(&mut self, round: Round, from: NodeId, to: NodeId) -> bool {
        self.windows
            .iter()
            .any(|w| round >= w.start && round < w.end && (w.node == from || w.node == to))
    }
}

impl FaultPlan {
    /// Whether this is [`FaultPlan::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, FaultPlan::None)
    }

    /// Checks that every probability is a finite value in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid field. Plans
    /// from untrusted text (tape headers, CLI flags) are validated before
    /// [`build`](FaultPlan::build), whose models would panic on an
    /// out-of-range probability.
    pub fn validate(&self) -> Result<(), String> {
        let check = |name: &str, p: f64| {
            if p.is_finite() && (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("fault {name} must be in [0, 1], got {p}"))
            }
        };
        match self {
            FaultPlan::None | FaultPlan::Partition { .. } | FaultPlan::Crash { .. } => Ok(()),
            FaultPlan::Iid { probability, .. } => check("probability", *probability),
            FaultPlan::Burst { p_enter, p_exit, loss_good, loss_bad, .. } => {
                check("p_enter", *p_enter)?;
                check("p_exit", *p_exit)?;
                check("loss_good", *loss_good)?;
                check("loss_bad", *loss_bad)
            }
        }
    }

    /// Builds the stateful fault model, or `None` for
    /// [`FaultPlan::None`] (no per-message overhead in fault-free runs).
    pub fn build(&self) -> Option<Box<dyn FaultModel>> {
        use rand::SeedableRng as _;
        match self {
            FaultPlan::None => None,
            FaultPlan::Iid { probability, seed } => Some(Box::new(IidLoss {
                probability: *probability,
                rng: rand::rngs::SmallRng::seed_from_u64(*seed),
            })),
            FaultPlan::Burst { p_enter, p_exit, loss_good, loss_bad, seed } => {
                Some(Box::new(BurstLoss {
                    p_enter: *p_enter,
                    p_exit: *p_exit,
                    loss_good: *loss_good,
                    loss_bad: *loss_bad,
                    bad: false,
                    rng: rand::rngs::SmallRng::seed_from_u64(*seed),
                }))
            }
            FaultPlan::Partition { windows } => {
                Some(Box::new(PartitionFaults { windows: windows.clone() }))
            }
            FaultPlan::Crash { windows } => {
                Some(Box::new(CrashFaults { windows: windows.clone() }))
            }
        }
    }

    /// The canonical JSON rendering ([`Value::Null`] for
    /// [`FaultPlan::None`]); floats round-trip their exact bit pattern,
    /// like every number in a tape header.
    pub fn to_value(&self) -> Value {
        let obj = |kind: &str, rest: Vec<(String, Value)>| {
            let mut entries = vec![("kind".to_string(), Value::String(kind.to_string()))];
            entries.extend(rest);
            Value::Object(entries)
        };
        match self {
            FaultPlan::None => Value::Null,
            FaultPlan::Iid { probability, seed } => obj(
                "iid",
                vec![
                    ("probability".to_string(), Value::Float(*probability)),
                    ("seed".to_string(), Value::UInt(*seed)),
                ],
            ),
            FaultPlan::Burst { p_enter, p_exit, loss_good, loss_bad, seed } => obj(
                "burst",
                vec![
                    ("p_enter".to_string(), Value::Float(*p_enter)),
                    ("p_exit".to_string(), Value::Float(*p_exit)),
                    ("loss_good".to_string(), Value::Float(*loss_good)),
                    ("loss_bad".to_string(), Value::Float(*loss_bad)),
                    ("seed".to_string(), Value::UInt(*seed)),
                ],
            ),
            FaultPlan::Partition { windows } => obj(
                "partition",
                vec![(
                    "windows".to_string(),
                    Value::Array(
                        windows
                            .iter()
                            .map(|w| {
                                Value::Array(vec![
                                    Value::UInt(u64::from(w.a)),
                                    Value::UInt(u64::from(w.b)),
                                    Value::UInt(w.start),
                                    Value::UInt(w.end),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
            FaultPlan::Crash { windows } => obj(
                "crash",
                vec![(
                    "windows".to_string(),
                    Value::Array(
                        windows
                            .iter()
                            .map(|w| {
                                Value::Array(vec![
                                    Value::UInt(u64::from(w.node)),
                                    Value::UInt(w.start),
                                    Value::UInt(w.end),
                                ])
                            })
                            .collect(),
                    ),
                )],
            ),
        }
    }

    /// Parses the rendering produced by [`to_value`](FaultPlan::to_value)
    /// and [`validate`](FaultPlan::validate)s the result.
    ///
    /// # Errors
    ///
    /// A human-readable reason on any malformed or out-of-range field.
    pub fn from_value(v: &Value) -> Result<FaultPlan, String> {
        if matches!(v, Value::Null) {
            return Ok(FaultPlan::None);
        }
        let float = |key: &str| {
            v.get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("fault field `{key}` is not a number"))
        };
        let uint = |key: &str| {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("fault field `{key}` is not an unsigned integer"))
        };
        let node = |x: &Value| {
            x.as_u64()
                .and_then(|u| NodeId::try_from(u).ok())
                .ok_or_else(|| "fault window entry is not a node id".to_string())
        };
        let round = |x: &Value| {
            x.as_u64().ok_or_else(|| "fault window entry is not a round number".to_string())
        };
        let windows = |arity: usize| -> Result<Vec<&Vec<Value>>, String> {
            v.get("windows")
                .and_then(Value::as_array)
                .ok_or_else(|| "fault field `windows` is not an array".to_string())?
                .iter()
                .map(|w| {
                    w.as_array()
                        .filter(|a| a.len() == arity)
                        .ok_or_else(|| format!("fault window is not a {arity}-element array"))
                })
                .collect()
        };
        let plan = match v.get("kind").and_then(Value::as_str) {
            Some("iid") => {
                FaultPlan::Iid { probability: float("probability")?, seed: uint("seed")? }
            }
            Some("burst") => FaultPlan::Burst {
                p_enter: float("p_enter")?,
                p_exit: float("p_exit")?,
                loss_good: float("loss_good")?,
                loss_bad: float("loss_bad")?,
                seed: uint("seed")?,
            },
            Some("partition") => FaultPlan::Partition {
                windows: windows(4)?
                    .into_iter()
                    .map(|w| {
                        Ok(LinkWindow {
                            a: node(&w[0])?,
                            b: node(&w[1])?,
                            start: round(&w[2])?,
                            end: round(&w[3])?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            },
            Some("crash") => FaultPlan::Crash {
                windows: windows(3)?
                    .into_iter()
                    .map(|w| {
                        Ok(CrashWindow {
                            node: node(&w[0])?,
                            start: round(&w[1])?,
                            end: round(&w[2])?,
                        })
                    })
                    .collect::<Result<_, String>>()?,
            },
            Some(other) => return Err(format!("unknown fault kind `{other}`")),
            None => return Err("fault field `kind` is not a string".to_string()),
        };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decisions(model: &mut dyn FaultModel, rounds: Round, msgs_per_round: u32) -> Vec<bool> {
        let mut out = Vec::new();
        for r in 0..rounds {
            for m in 0..msgs_per_round {
                out.push(model.message_lost(r, m % 3, (m + 1) % 3));
            }
        }
        out
    }

    #[test]
    fn iid_matches_the_legacy_loss_sequence() {
        use rand::{Rng as _, SeedableRng as _};
        let plan = FaultPlan::Iid { probability: 0.3, seed: 42 };
        let mut model = plan.build().unwrap();
        let mut rng = rand::rngs::SmallRng::seed_from_u64(42);
        for i in 0..500 {
            assert_eq!(model.message_lost(i, 0, 1), rng.gen_bool(0.3), "draw {i}");
        }
    }

    #[test]
    fn burst_is_deterministic_and_actually_bursty() {
        let plan = FaultPlan::Burst {
            p_enter: 0.05,
            p_exit: 0.3,
            loss_good: 0.01,
            loss_bad: 0.9,
            seed: 7,
        };
        let a = decisions(plan.build().unwrap().as_mut(), 100, 10);
        let b = decisions(plan.build().unwrap().as_mut(), 100, 10);
        assert_eq!(a, b, "same seed, same decisions");
        // A burst channel produces runs of consecutive losses far more
        // often than an i.i.d. channel at the same average rate would.
        let pairs = a.windows(2).filter(|w| w[0] && w[1]).count();
        assert!(pairs > 0, "no loss bursts in 1000 draws");
        // Degenerate parameters pin the state machine: always enter bad,
        // never leave, lose everything.
        let all =
            FaultPlan::Burst { p_enter: 1.0, p_exit: 0.0, loss_good: 0.0, loss_bad: 1.0, seed: 1 };
        assert!(decisions(all.build().unwrap().as_mut(), 10, 4).iter().all(|&l| l));
    }

    #[test]
    fn partition_cuts_both_directions_in_window_only() {
        let plan =
            FaultPlan::Partition { windows: vec![LinkWindow { a: 1, b: 2, start: 5, end: 8 }] };
        let mut m = plan.build().unwrap();
        assert!(!m.message_lost(4, 1, 2), "before the window");
        assert!(m.message_lost(5, 1, 2), "start is inclusive");
        assert!(m.message_lost(7, 2, 1), "both directions");
        assert!(!m.message_lost(8, 1, 2), "end is exclusive");
        assert!(!m.message_lost(6, 0, 1), "other links unaffected");
    }

    #[test]
    fn crash_loses_all_traffic_of_the_node() {
        let plan = FaultPlan::Crash { windows: vec![CrashWindow { node: 3, start: 2, end: 4 }] };
        let mut m = plan.build().unwrap();
        assert!(m.message_lost(2, 3, 0), "outgoing");
        assert!(m.message_lost(3, 0, 3), "incoming");
        assert!(!m.message_lost(4, 3, 0), "recovered");
        assert!(!m.message_lost(2, 0, 1), "others unaffected");
    }

    #[test]
    fn json_round_trips_every_variant_exactly() {
        let plans = [
            FaultPlan::None,
            FaultPlan::Iid { probability: f64::from_bits(0.1f64.to_bits() + 1), seed: 9 },
            FaultPlan::Burst {
                p_enter: 0.05,
                p_exit: 0.33,
                loss_good: 0.0,
                loss_bad: 0.97,
                seed: 0xDEAD,
            },
            FaultPlan::Partition {
                windows: vec![
                    LinkWindow { a: 0, b: 1, start: 0, end: 10 },
                    LinkWindow { a: 4, b: 2, start: 3, end: 3 },
                ],
            },
            FaultPlan::Crash { windows: vec![CrashWindow { node: 7, start: 1, end: 100 }] },
        ];
        for plan in plans {
            let text = serde::value::to_compact_string(&plan.to_value());
            let reparsed = serde_json::from_str(&text).unwrap();
            let back = FaultPlan::from_value(&reparsed).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, plan, "{text}");
            if let (FaultPlan::Iid { probability: a, .. }, FaultPlan::Iid { probability: b, .. }) =
                (&plan, &back)
            {
                assert_eq!(a.to_bits(), b.to_bits(), "float bit pattern must survive");
            }
        }
    }

    #[test]
    fn parse_rejects_bad_plans() {
        for text in [
            r#"{"kind":"iid","probability":1.5,"seed":0}"#,
            r#"{"kind":"burst","p_enter":-0.1,"p_exit":0.1,"loss_good":0.1,"loss_bad":0.1,"seed":0}"#,
            r#"{"kind":"teleport"}"#,
            r#"{"kind":"partition","windows":[[1,2,3]]}"#,
            r#"{"probability":0.1}"#,
        ] {
            let v = serde_json::from_str(text).unwrap();
            assert!(FaultPlan::from_value(&v).is_err(), "{text} should be rejected");
        }
        let valid = serde_json::from_str(r#"{"kind":"crash","windows":[]}"#).unwrap();
        assert_eq!(FaultPlan::from_value(&valid).unwrap(), FaultPlan::Crash { windows: vec![] });
    }

    #[test]
    fn none_builds_no_model() {
        assert!(FaultPlan::None.build().is_none());
        assert!(FaultPlan::None.is_none());
        assert!(!FaultPlan::Iid { probability: 0.0, seed: 0 }.is_none());
    }
}
