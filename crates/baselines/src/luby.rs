//! Luby's classical MIS algorithm, in both standard variants.

use crate::runner::sent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleepy_graph::{NodeId, Port};
use sleepy_net::{Action, Incoming, MessageSize, NodeCtx, Outbox, Protocol};

/// Messages of [`LubyB`] (random-priority variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LubyBMsg {
    /// This phase's fresh random priority and the sender id.
    Propose {
        /// Fresh 64-bit priority for this phase.
        priority: u64,
        /// Sender id (tie-break).
        id: NodeId,
    },
    /// The sender joined the MIS.
    Join,
    /// The sender was eliminated.
    Removed,
}

impl MessageSize for LubyBMsg {
    fn bits(&self) -> usize {
        match self {
            LubyBMsg::Propose { .. } => 2 + 64 + 32,
            LubyBMsg::Join | LubyBMsg::Removed => 2,
        }
    }
}

/// Luby's algorithm, random-priority variant: each phase every undecided
/// node draws a fresh priority and broadcasts it; strict local minima join
/// the MIS; their neighbors are eliminated and announce removal.
///
/// Phase layout (3 rounds): propose → join → cleanup.
#[derive(Debug)]
pub struct LubyB {
    rng: SmallRng,
    priority: u64,
    in_mis: Option<bool>,
    announced_join: bool,
    eliminated_now: bool,
    /// Priorities heard this phase.
    heard: Vec<(u64, NodeId)>,
}

impl LubyB {
    /// Creates the node protocol; `seed` is the run's master seed.
    pub fn new(id: NodeId, seed: u64) -> Self {
        LubyB {
            rng: SmallRng::seed_from_u64(crate::runner::mix_seed(seed, id)),
            priority: 0,
            in_mis: None,
            announced_join: false,
            eliminated_now: false,
            heard: Vec::new(),
        }
    }
}

impl Protocol for LubyB {
    type Msg = LubyBMsg;
    type Output = bool;

    fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<LubyBMsg>) {
        match ctx.round % 3 {
            0 => {
                self.priority = self.rng.gen();
                out.broadcast(LubyBMsg::Propose { priority: self.priority, id: ctx.id });
            }
            1 => {
                let wins = self.heard.iter().all(|&(p, i)| (self.priority, ctx.id) < (p, i));
                if self.in_mis.is_none() && wins {
                    self.in_mis = Some(true);
                    self.announced_join = true;
                    out.broadcast(LubyBMsg::Join);
                }
            }
            _ => {
                if self.eliminated_now {
                    out.broadcast(LubyBMsg::Removed);
                }
            }
        }
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<LubyBMsg>]) -> Action {
        match ctx.round % 3 {
            0 => {
                self.heard.clear();
                self.heard.extend(inbox.iter().filter_map(|m| match m.msg {
                    LubyBMsg::Propose { priority, id } => Some((priority, id)),
                    _ => None,
                }));
                Action::Continue
            }
            1 => {
                if self.announced_join {
                    return Action::Terminate;
                }
                if inbox.iter().any(|m| m.msg == LubyBMsg::Join) {
                    debug_assert!(self.in_mis.is_none());
                    self.in_mis = Some(false);
                    self.eliminated_now = true;
                }
                Action::Continue
            }
            _ => {
                if self.eliminated_now {
                    return Action::Terminate;
                }
                Action::Continue
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.in_mis
    }
}

/// Messages of [`LubyA`] (degree-marking variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LubyAMsg {
    /// The sender's current degree in the surviving graph.
    Degree {
        /// Number of undecided neighbors.
        degree: u32,
    },
    /// The sender marked itself (with its degree and id for conflict
    /// resolution).
    Mark {
        /// Sender's current degree.
        degree: u32,
        /// Sender id (tie-break).
        id: NodeId,
    },
    /// The sender joined the MIS.
    Join,
    /// The sender was eliminated.
    Removed,
}

impl MessageSize for LubyAMsg {
    fn bits(&self) -> usize {
        match self {
            LubyAMsg::Degree { .. } => 2 + 32,
            LubyAMsg::Mark { .. } => 2 + 32 + 32,
            LubyAMsg::Join | LubyAMsg::Removed => 2,
        }
    }
}

/// Luby's algorithm, marking variant: each phase an undecided node of
/// current degree d marks itself with probability 1/(2d) (degree-0 nodes
/// join outright); a marked node unmarks if a marked neighbor has higher
/// degree (ties by id); surviving marked nodes join; neighbors are
/// eliminated.
///
/// Phase layout (4 rounds): degree exchange → mark → join → cleanup.
#[derive(Debug)]
pub struct LubyA {
    rng: SmallRng,
    /// Ports of still-undecided neighbors.
    alive: Vec<Port>,
    marked: bool,
    in_mis: Option<bool>,
    announced_join: bool,
    eliminated_now: bool,
    initialized: bool,
}

impl LubyA {
    /// Creates the node protocol; `seed` is the run's master seed.
    pub fn new(id: NodeId, seed: u64) -> Self {
        LubyA {
            rng: SmallRng::seed_from_u64(crate::runner::mix_seed(seed, id) ^ 0xA5A5),
            alive: Vec::new(),
            marked: false,
            in_mis: None,
            announced_join: false,
            eliminated_now: false,
            initialized: false,
        }
    }

    fn degree(&self) -> u32 {
        self.alive.len() as u32
    }
}

impl Protocol for LubyA {
    type Msg = LubyAMsg;
    type Output = bool;

    fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<LubyAMsg>) {
        if !self.initialized {
            self.alive = (0..ctx.degree).collect();
            self.initialized = true;
        }
        match ctx.round % 4 {
            0 => out.broadcast(LubyAMsg::Degree { degree: self.degree() }),
            1 => {
                let d = self.degree();
                self.marked = if d == 0 { true } else { self.rng.gen_range(0..2 * d as u64) == 0 };
                if self.marked {
                    out.broadcast(LubyAMsg::Mark { degree: d, id: ctx.id });
                }
            }
            2 => {
                if self.marked && self.in_mis.is_none() {
                    self.in_mis = Some(true);
                    self.announced_join = true;
                    out.broadcast(LubyAMsg::Join);
                }
            }
            _ => {
                if self.eliminated_now {
                    out.broadcast(LubyAMsg::Removed);
                }
            }
        }
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<LubyAMsg>]) -> Action {
        match ctx.round % 4 {
            0 => Action::Continue, // degrees are re-announced in marks
            1 => {
                if self.marked {
                    let me = (self.degree(), ctx.id);
                    let beaten = inbox.iter().any(|m| match m.msg {
                        LubyAMsg::Mark { degree, id } => (degree, id) > me,
                        _ => false,
                    });
                    if beaten {
                        self.marked = false;
                    }
                }
                Action::Continue
            }
            2 => {
                if self.announced_join {
                    return Action::Terminate;
                }
                if inbox.iter().any(|m| m.msg == LubyAMsg::Join) {
                    self.alive.retain(|&p| !sent(inbox, p, LubyAMsg::Join));
                    debug_assert!(self.in_mis.is_none());
                    self.in_mis = Some(false);
                    self.eliminated_now = true;
                }
                Action::Continue
            }
            _ => {
                self.alive.retain(|&p| !sent(inbox, p, LubyAMsg::Removed));
                if self.eliminated_now {
                    return Action::Terminate;
                }
                Action::Continue
            }
        }
    }

    fn output(&self) -> Option<bool> {
        self.in_mis
    }
}

#[cfg(test)]
mod tests {
    use crate::runner::{run_baseline, tests::assert_valid_mis, BaselineKind};
    use sleepy_graph::generators;
    use sleepy_net::EngineConfig;

    #[test]
    fn luby_b_valid_mis() {
        for (i, g) in [
            generators::cycle(25).unwrap(),
            generators::clique(9).unwrap(),
            generators::gnp(80, 0.08, 2).unwrap(),
            generators::grid2d(6, 6).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..4 {
                let run =
                    run_baseline(g, BaselineKind::LubyB, seed, &EngineConfig::default()).unwrap();
                assert_valid_mis(g, &run.in_mis, &format!("lubyB g{i} s{seed}"));
            }
        }
    }

    #[test]
    fn luby_a_valid_mis() {
        for (i, g) in [
            generators::cycle(25).unwrap(),
            generators::star(14).unwrap(),
            generators::gnp(80, 0.08, 2).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..4 {
                let run =
                    run_baseline(g, BaselineKind::LubyA, seed, &EngineConfig::default()).unwrap();
                assert_valid_mis(g, &run.in_mis, &format!("lubyA g{i} s{seed}"));
            }
        }
    }

    #[test]
    fn luby_b_rounds_logarithmic() {
        let n = 2000;
        let g = generators::gnp(n, 10.0 / n as f64, 8).unwrap();
        let run = run_baseline(&g, BaselineKind::LubyB, 8, &EngineConfig::default()).unwrap();
        let cap = (12.0 * (n as f64).log2()) as u64;
        assert!(run.metrics.total_rounds < cap, "{} rounds", run.metrics.total_rounds);
    }

    #[test]
    fn always_awake_baselines_never_sleep() {
        let g = generators::gnp(60, 0.1, 3).unwrap();
        for kind in [BaselineKind::LubyA, BaselineKind::LubyB] {
            let run = run_baseline(&g, kind, 3, &EngineConfig::default()).unwrap();
            for m in &run.metrics.per_node {
                // Awake every round of its life: awake == finish + 1.
                assert_eq!(m.awake_rounds, m.finish_round.unwrap() + 1, "{kind:?}");
            }
        }
    }
}
