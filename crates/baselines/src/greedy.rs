//! The parallel/distributed randomized greedy MIS
//! (Coppersmith–Raghavan–Tompa; tight O(log n) analysis by
//! Fischer–Noever).

use crate::runner::sent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sleepy_graph::{NodeId, Port};
use sleepy_net::{Action, Incoming, MessageSize, NodeCtx, Outbox, Protocol};

/// Messages of [`GreedyCrt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyMsg {
    /// Rank exchange (round 0): the sender's fixed random rank and id.
    Rank {
        /// Random 64-bit rank, drawn once.
        rank: u64,
        /// Sender id (tie-break).
        id: NodeId,
    },
    /// The sender joined the MIS this phase.
    Join,
    /// The sender was eliminated and leaves the graph.
    Removed,
}

impl MessageSize for GreedyMsg {
    fn bits(&self) -> usize {
        match self {
            GreedyMsg::Rank { .. } => 2 + 64 + 32,
            GreedyMsg::Join | GreedyMsg::Removed => 2,
        }
    }
}

/// Per-node state of the distributed randomized greedy MIS.
///
/// An order (random ranks, tie-broken by id) is chosen once; each phase,
/// every undecided node that holds the highest rank among its undecided
/// neighbors joins the MIS and its neighbors are eliminated. The output is
/// the **lexicographically-first MIS** of the rank order — the same MIS the
/// sequential greedy computes (used by the Corollary 1 experiments).
///
/// Round layout: round 0 exchanges ranks; thereafter phases of two rounds
/// (join announcements, removal announcements).
#[derive(Debug, Clone)]
pub struct GreedyCrt {
    rank: u64,
    alive: Vec<(Port, u64, NodeId)>,
    in_mis: Option<bool>,
    announced_join: bool,
    eliminated_now: bool,
}

impl GreedyCrt {
    /// Creates the node protocol; `seed` is the run's master seed.
    pub fn new(id: NodeId, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(crate::runner::mix_seed(seed, id));
        GreedyCrt {
            rank: rng.gen(),
            alive: Vec::new(),
            in_mis: None,
            announced_join: false,
            eliminated_now: false,
        }
    }

    /// The node's fixed rank (exposed for the Corollary 1 reference
    /// comparison).
    pub fn rank_of(id: NodeId, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(crate::runner::mix_seed(seed, id));
        rng.gen()
    }

    fn wins(&self, id: NodeId) -> bool {
        self.alive.iter().all(|&(_, r, i)| (self.rank, id) > (r, i))
    }
}

impl Protocol for GreedyCrt {
    type Msg = GreedyMsg;
    type Output = bool;

    fn send(&mut self, ctx: &NodeCtx, out: &mut Outbox<GreedyMsg>) {
        if ctx.round == 0 {
            out.broadcast(GreedyMsg::Rank { rank: self.rank, id: ctx.id });
        } else if (ctx.round - 1).is_multiple_of(2) {
            // Join round.
            if self.in_mis.is_none() && self.wins(ctx.id) {
                self.in_mis = Some(true);
                self.announced_join = true;
                out.broadcast(GreedyMsg::Join);
            }
        } else {
            // Removal round.
            if self.eliminated_now {
                out.broadcast(GreedyMsg::Removed);
            }
        }
    }

    fn receive(&mut self, ctx: &NodeCtx, inbox: &[Incoming<GreedyMsg>]) -> Action {
        if ctx.round == 0 {
            self.alive = inbox
                .iter()
                .filter_map(|m| match m.msg {
                    GreedyMsg::Rank { rank, id } => Some((m.port, rank, id)),
                    _ => None,
                })
                .collect();
            return Action::Continue;
        }
        if (ctx.round - 1).is_multiple_of(2) {
            // Join round.
            if self.announced_join {
                return Action::Terminate;
            }
            if inbox.iter().any(|m| m.msg == GreedyMsg::Join) {
                self.alive.retain(|&(p, _, _)| !sent(inbox, p, GreedyMsg::Join));
                debug_assert!(self.in_mis.is_none());
                self.in_mis = Some(false);
                self.eliminated_now = true;
            }
            Action::Continue
        } else {
            // Removal round.
            self.alive.retain(|&(p, _, _)| !sent(inbox, p, GreedyMsg::Removed));
            if self.eliminated_now {
                return Action::Terminate;
            }
            Action::Continue
        }
    }

    fn output(&self) -> Option<bool> {
        self.in_mis
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_baseline, BaselineKind};
    use sleepy_graph::generators;
    use sleepy_net::EngineConfig;

    #[test]
    fn greedy_is_valid_mis() {
        for (i, g) in [
            generators::cycle(21).unwrap(),
            generators::clique(8).unwrap(),
            generators::gnp(90, 0.07, 3).unwrap(),
            generators::star(15).unwrap(),
            generators::empty(5).unwrap(),
        ]
        .iter()
        .enumerate()
        {
            for seed in 0..4 {
                let run = run_baseline(g, BaselineKind::GreedyCrt, seed, &EngineConfig::default())
                    .unwrap();
                crate::runner::tests::assert_valid_mis(g, &run.in_mis, &format!("g{i} s{seed}"));
            }
        }
    }

    #[test]
    fn isolated_node_joins_fast() {
        let g = generators::empty(3).unwrap();
        let run = run_baseline(&g, BaselineKind::GreedyCrt, 0, &EngineConfig::default()).unwrap();
        assert!(run.in_mis.iter().all(|&b| b));
        assert_eq!(run.metrics.total_rounds, 2); // rank round + join round
    }

    #[test]
    fn rounds_logarithmic_in_practice() {
        let n = 2000;
        let g = generators::gnp(n, 8.0 / n as f64, 5).unwrap();
        let run = run_baseline(&g, BaselineKind::GreedyCrt, 5, &EngineConfig::default()).unwrap();
        // Fischer–Noever: O(log n) phases whp; generous cap of 8·log2(n)
        // rounds total.
        let cap = (8.0 * (n as f64).log2()) as u64;
        assert!(run.metrics.total_rounds < cap, "{} rounds", run.metrics.total_rounds);
    }

    #[test]
    fn rank_of_matches_protocol() {
        let p = GreedyCrt::new(5, 99);
        assert_eq!(p.rank, GreedyCrt::rank_of(5, 99));
    }
}
