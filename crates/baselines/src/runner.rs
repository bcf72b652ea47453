//! Uniform runner over the baseline algorithms.

use crate::{Ghaffari, GreedyCrt, LubyA, LubyB};
use serde::{Deserialize, Serialize};
use sleepy_graph::{Graph, NodeId, Port};
use sleepy_net::{
    run_protocol_taped, run_protocol_with_sink, EngineConfig, EngineError, Incoming, NullSink,
    RunMetrics, Tape, TraceSink,
};

/// Which baseline MIS algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BaselineKind {
    /// Luby's marking variant.
    LubyA,
    /// Luby's random-priority variant.
    LubyB,
    /// Distributed randomized greedy (CRT / Fischer–Noever).
    GreedyCrt,
    /// Ghaffari's 2016 desire-level algorithm.
    Ghaffari,
}

impl std::fmt::Display for BaselineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineKind::LubyA => f.write_str("Luby-A"),
            BaselineKind::LubyB => f.write_str("Luby-B"),
            BaselineKind::GreedyCrt => f.write_str("Greedy-CRT"),
            BaselineKind::Ghaffari => f.write_str("Ghaffari"),
        }
    }
}

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// MIS membership per node.
    pub in_mis: Vec<bool>,
    /// Engine metrics.
    pub metrics: RunMetrics,
}

/// Derives a per-node RNG seed from the master seed (SplitMix64 mix).
pub(crate) fn mix_seed(master: u64, node: NodeId) -> u64 {
    let mut z = master ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(node as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether the neighbor on `port` sent `msg` this round.
pub(crate) fn sent<M: PartialEq>(inbox: &[Incoming<M>], port: Port, msg: M) -> bool {
    inbox.iter().any(|m| m.port == port && m.msg == msg)
}

/// Runs the chosen baseline on `graph` with the given master seed.
///
/// # Errors
///
/// Propagates engine failures (in particular
/// [`EngineError::MaxRoundsExceeded`] if a round cap is configured).
///
/// # Example
///
/// ```
/// use sleepy_baselines::{run_baseline, BaselineKind};
/// use sleepy_graph::generators;
/// use sleepy_net::EngineConfig;
///
/// let g = generators::star(10).unwrap();
/// let run = run_baseline(&g, BaselineKind::GreedyCrt, 1, &EngineConfig::default())?;
/// // On a star either the hub alone or all leaves form the MIS.
/// let size = run.in_mis.iter().filter(|&&b| b).count();
/// assert!(size == 1 || size == 9);
/// # Ok::<(), sleepy_net::EngineError>(())
/// ```
pub fn run_baseline(
    graph: &Graph,
    kind: BaselineKind,
    seed: u64,
    engine_config: &EngineConfig,
) -> Result<BaselineRun, EngineError> {
    run_baseline_with_sink(graph, kind, seed, engine_config, &mut NullSink)
}

/// [`run_baseline`] with the engine streaming every protocol event into
/// `sink` — the entry point for round-timeline recorders and schedule
/// validators.
///
/// # Errors
///
/// Same as [`run_baseline`].
pub fn run_baseline_with_sink<S: TraceSink + ?Sized>(
    graph: &Graph,
    kind: BaselineKind,
    seed: u64,
    engine_config: &EngineConfig,
    sink: &mut S,
) -> Result<BaselineRun, EngineError> {
    match kind {
        BaselineKind::LubyA => collect(run_protocol_with_sink(
            graph,
            engine_config,
            |id, _| LubyA::new(id, seed),
            sink,
        )?),
        BaselineKind::LubyB => collect(run_protocol_with_sink(
            graph,
            engine_config,
            |id, _| LubyB::new(id, seed),
            sink,
        )?),
        BaselineKind::GreedyCrt => collect(run_protocol_with_sink(
            graph,
            engine_config,
            |id, _| GreedyCrt::new(id, seed),
            sink,
        )?),
        BaselineKind::Ghaffari => collect(run_protocol_with_sink(
            graph,
            engine_config,
            |id, _| Ghaffari::new(id, seed),
            sink,
        )?),
    }
}

/// [`run_baseline_with_sink`] recording the run as an engine
/// [`Tape`] — the entry point behind `fleet record-tape`.
///
/// The tape is returned even when the engine errors (the recorded error
/// is part of the conformance artifact); its `label` and `seed` stamps
/// are left empty for the caller to fill.
pub fn run_baseline_taped(
    graph: &Graph,
    kind: BaselineKind,
    seed: u64,
    engine_config: &EngineConfig,
    sink: &mut dyn TraceSink,
) -> (Result<BaselineRun, EngineError>, Tape) {
    let (result, tape) = match kind {
        BaselineKind::LubyA => {
            run_protocol_taped(graph, engine_config, |id, _| LubyA::new(id, seed), sink)
        }
        BaselineKind::LubyB => {
            run_protocol_taped(graph, engine_config, |id, _| LubyB::new(id, seed), sink)
        }
        BaselineKind::GreedyCrt => {
            run_protocol_taped(graph, engine_config, |id, _| GreedyCrt::new(id, seed), sink)
        }
        BaselineKind::Ghaffari => {
            run_protocol_taped(graph, engine_config, |id, _| Ghaffari::new(id, seed), sink)
        }
    };
    (result.and_then(collect), tape)
}

fn collect(outcome: sleepy_net::RunOutcome<bool>) -> Result<BaselineRun, EngineError> {
    let in_mis =
        outcome.outputs.into_iter().map(|o| o.expect("completed run has all outputs")).collect();
    Ok(BaselineRun { in_mis, metrics: outcome.metrics })
}

/// All baseline kinds, for sweeps.
pub const ALL_BASELINES: [BaselineKind; 4] =
    [BaselineKind::LubyA, BaselineKind::LubyB, BaselineKind::GreedyCrt, BaselineKind::Ghaffari];

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sleepy_graph::generators;

    pub(crate) fn assert_valid_mis(g: &Graph, in_mis: &[bool], label: &str) {
        for (u, v) in g.edges() {
            assert!(
                !(in_mis[u as usize] && in_mis[v as usize]),
                "{label}: edge ({u},{v}) inside MIS"
            );
        }
        for v in g.node_ids() {
            assert!(
                in_mis[v as usize] || g.neighbors(v).iter().any(|&u| in_mis[u as usize]),
                "{label}: node {v} undominated"
            );
        }
    }

    #[test]
    fn all_baselines_run_and_are_valid() {
        let g = generators::gnp(50, 0.1, 1).unwrap();
        for kind in ALL_BASELINES {
            let run = run_baseline(&g, kind, 3, &EngineConfig::default()).unwrap();
            assert_valid_mis(&g, &run.in_mis, &kind.to_string());
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let g = generators::gnp(40, 0.12, 2).unwrap();
        for kind in ALL_BASELINES {
            let a = run_baseline(&g, kind, 5, &EngineConfig::default()).unwrap();
            let b = run_baseline(&g, kind, 5, &EngineConfig::default()).unwrap();
            assert_eq!(a.in_mis, b.in_mis, "{kind}");
        }
    }

    #[test]
    fn congest_budget_respected() {
        let n = 64;
        let g = generators::gnp(n, 0.1, 7).unwrap();
        let cfg = EngineConfig {
            congest_bits: Some(sleepy_net::congest_bits_budget(n)),
            ..EngineConfig::default()
        };
        for kind in ALL_BASELINES {
            run_baseline(&g, kind, 1, &cfg).unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn round_cap_propagates() {
        let g = generators::clique(30).unwrap();
        let cfg = EngineConfig { max_rounds: 1, ..EngineConfig::default() };
        // With a 1-round cap at least one baseline cannot finish.
        let err = run_baseline(&g, BaselineKind::Ghaffari, 1, &cfg);
        assert!(err.is_err());
    }

    #[test]
    fn display_labels() {
        assert_eq!(BaselineKind::LubyA.to_string(), "Luby-A");
        assert_eq!(BaselineKind::GreedyCrt.to_string(), "Greedy-CRT");
    }
}
