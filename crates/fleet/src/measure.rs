//! Unified measurement of any MIS algorithm on any workload (the trial
//! body every fleet job runs), both static and dynamic: a dynamic trial
//! runs one phase per churn batch, either recomputing the MIS from
//! scratch, repairing it on the restricted damaged neighborhood in one
//! batched pass, or absorbing the batch *incrementally* — one update
//! event at a time, with per-update awake-cost accounting
//! ([`UpdateRecord`], [`IncrementalRepairer`]).

use crate::error::FleetError;
use crate::seed;
use crate::workload::DynamicWorkload;
use serde::{Deserialize, Serialize};
use sleepy_baselines::{run_baseline, BaselineKind};
use sleepy_graph::{DeltaEvent, DynGraph, Graph, GraphError, NodeId};
use sleepy_mis::{execute_sleeping_mis, run_sleeping_mis, MisConfig};
use sleepy_net::{ComplexitySummary, EngineConfig};
use sleepy_verify::verify_mis;

/// Every algorithm the fleet can measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlgoKind {
    /// Algorithm 1 (SleepingMIS).
    SleepingMis,
    /// Algorithm 2 (Fast-SleepingMIS).
    FastSleepingMis,
    /// A traditional-model baseline.
    Baseline(BaselineKind),
}

impl std::fmt::Display for AlgoKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoKind::SleepingMis => f.write_str("SleepingMIS"),
            AlgoKind::FastSleepingMis => f.write_str("Fast-SleepingMIS"),
            AlgoKind::Baseline(b) => write!(f, "{b}"),
        }
    }
}

/// The paper's two algorithms.
pub const SLEEPING_ALGOS: [AlgoKind; 2] = [AlgoKind::SleepingMis, AlgoKind::FastSleepingMis];

/// All algorithms: the paper's two plus all four baselines.
pub const ALL_ALGOS: [AlgoKind; 6] = [
    AlgoKind::SleepingMis,
    AlgoKind::FastSleepingMis,
    AlgoKind::Baseline(BaselineKind::LubyA),
    AlgoKind::Baseline(BaselineKind::LubyB),
    AlgoKind::Baseline(BaselineKind::GreedyCrt),
    AlgoKind::Baseline(BaselineKind::Ghaffari),
];

/// How to execute a sleeping-model algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Execution {
    /// Sleeping algorithms run on the fast combinatorial executor
    /// (bit-identical to the engine); baselines run on the engine.
    Auto,
    /// Everything runs on the message-passing engine (slower; used for
    /// cross-validation and when message/energy accounting is needed).
    ForceEngine,
}

/// One run's complexity measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ComplexityReport {
    /// Algorithm label.
    pub algo: String,
    /// Node count of the instance.
    pub n: usize,
    /// The four paper measures plus communication totals.
    pub summary: ComplexitySummary,
    /// Size of the computed MIS.
    pub mis_size: usize,
    /// Whether the output verified as a maximal independent set.
    pub valid: bool,
    /// Algorithm 2 base-case timeouts in this run.
    pub base_timeouts: usize,
}

/// Runs `algo` once on `graph` with the given seed.
///
/// # Errors
///
/// Propagates configuration, generation and engine errors.
pub fn measure_once(
    graph: &Graph,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
) -> Result<ComplexityReport, FleetError> {
    let (in_mis, summary, base_timeouts) = run_algo(graph, algo, seed, execution)?;
    let valid = verify_mis(graph, &in_mis).is_ok();
    Ok(ComplexityReport {
        algo: algo.to_string(),
        n: graph.n(),
        summary,
        mis_size: in_mis.iter().filter(|&&b| b).count(),
        valid,
        base_timeouts,
    })
}

/// Executes `algo` on `graph`, returning the raw membership vector along
/// with the complexity summary (the shared body of [`measure_once`] and
/// the dynamic per-phase path, which must carry membership across
/// phases).
fn run_algo(
    graph: &Graph,
    algo: AlgoKind,
    seed: u64,
    execution: Execution,
) -> Result<(Vec<bool>, ComplexitySummary, usize), FleetError> {
    let out = match (algo, execution) {
        (AlgoKind::SleepingMis, Execution::Auto) => {
            let out = execute_sleeping_mis(graph, MisConfig::alg1(seed))?;
            let timeouts = out.base_timeout.iter().filter(|&&t| t).count();
            (out.in_mis.clone(), out.summary(), timeouts)
        }
        (AlgoKind::FastSleepingMis, Execution::Auto) => {
            let out = execute_sleeping_mis(graph, MisConfig::alg2(seed))?;
            let timeouts = out.base_timeout.iter().filter(|&&t| t).count();
            (out.in_mis.clone(), out.summary(), timeouts)
        }
        (AlgoKind::SleepingMis, Execution::ForceEngine) => {
            let run = run_sleeping_mis(graph, MisConfig::alg1(seed), &EngineConfig::default())?;
            let t = run.base_timeouts.len();
            (run.in_mis, run.metrics.summary(), t)
        }
        (AlgoKind::FastSleepingMis, Execution::ForceEngine) => {
            let run = run_sleeping_mis(graph, MisConfig::alg2(seed), &EngineConfig::default())?;
            let t = run.base_timeouts.len();
            (run.in_mis, run.metrics.summary(), t)
        }
        (AlgoKind::Baseline(kind), _) => {
            let run = run_baseline(graph, kind, seed, &EngineConfig::default())?;
            (run.in_mis, run.metrics.summary(), 0)
        }
    };
    Ok(out)
}

/// How a dynamic trial reacts to each churn batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RepairStrategy {
    /// Rerun the algorithm from scratch on the mutated graph.
    Recompute,
    /// Keep the surviving MIS, evict one endpoint of every newly
    /// conflicting edge, and rerun the algorithm only on the induced
    /// subgraph of *undecided* nodes (not in the set and not dominated
    /// by it) — everyone else stays asleep through the whole phase.
    Repair,
    /// Absorb the churn batch one update event at a time
    /// ([`GraphDelta::events`](sleepy_graph::GraphDelta::events)): after
    /// every single edge flip or node arrival/departure the MIS is made
    /// valid again by evicting at most one conflicting member and
    /// re-running only on the event's undecided frontier. Records one
    /// [`UpdateRecord`] per event — the measurement granularity of
    /// Ghaffari–Portmann-style amortized per-update awake bounds.
    Incremental,
}

impl std::fmt::Display for RepairStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairStrategy::Recompute => f.write_str("recompute"),
            RepairStrategy::Repair => f.write_str("repair"),
            RepairStrategy::Incremental => f.write_str("incremental"),
        }
    }
}

/// All repair strategies, in canonical sweep order.
pub const ALL_STRATEGIES: [RepairStrategy; 3] =
    [RepairStrategy::Recompute, RepairStrategy::Repair, RepairStrategy::Incremental];

/// The kind of one absorbed update event (mirrors
/// [`DeltaEvent`], without the ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UpdateKind {
    /// An edge was deleted.
    EdgeDelete,
    /// An edge was inserted.
    EdgeInsert,
    /// A node departed with its incident edges.
    NodeDeparture,
    /// An isolated node arrived.
    NodeArrival,
}

impl UpdateKind {
    /// The kind of a [`DeltaEvent`].
    pub fn of(event: &DeltaEvent) -> Self {
        match event {
            DeltaEvent::RemoveEdge(..) => UpdateKind::EdgeDelete,
            DeltaEvent::AddEdge(..) => UpdateKind::EdgeInsert,
            DeltaEvent::RemoveNode(..) => UpdateKind::NodeDeparture,
            DeltaEvent::AddNode => UpdateKind::NodeArrival,
        }
    }

    /// Short stable label, identical to [`DeltaEvent::label`].
    pub fn label(&self) -> &'static str {
        match self {
            UpdateKind::EdgeDelete => "edge-del",
            UpdateKind::EdgeInsert => "edge-ins",
            UpdateKind::NodeDeparture => "node-dep",
            UpdateKind::NodeArrival => "node-arr",
        }
    }
}

impl std::fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The cost of absorbing one update event in an incremental phase.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UpdateRecord {
    /// What kind of mutation this update was.
    pub kind: UpdateKind,
    /// Nodes the algorithm re-ran on to absorb it (0 = free update).
    pub scope: usize,
    /// Total awake rounds spent absorbing it, summed over those nodes.
    pub awake_sum: f64,
}

/// One phase's measurements in a dynamic trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseReport {
    /// 0-based phase index (phase 0 is the initial full run).
    pub phase: usize,
    /// The phase's complexity measurements. For repair phases the
    /// averages are taken over the *whole* phase graph: nodes outside
    /// the repair scope sleep through the phase and contribute zero
    /// awake rounds — the quantity of interest for churn workloads.
    pub report: ComplexityReport,
    /// Edge count of the phase graph.
    pub m: usize,
    /// Nodes the algorithm actually ran on this phase (the whole graph
    /// for phase 0 and for [`RepairStrategy::Recompute`]; for
    /// [`RepairStrategy::Incremental`] the *sum* of per-update scopes).
    pub repair_scope: usize,
    /// MIS members carried over unchanged from the previous phase.
    pub carried: usize,
    /// Per-update cost records, in absorption order — populated only by
    /// [`RepairStrategy::Incremental`] (empty for phase 0 and for the
    /// batched strategies).
    pub updates: Vec<UpdateRecord>,
}

/// The full result of one dynamic trial: one report per phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DynamicReport {
    /// Per-phase reports, in phase order.
    pub phases: Vec<PhaseReport>,
}

impl DynamicReport {
    /// Whether every phase's output verified as an MIS of its graph.
    pub fn all_valid(&self) -> bool {
        self.phases.iter().all(|p| p.report.valid)
    }
}

/// Runs one dynamic trial: generates the phase-0 instance, runs `algo`
/// in full, then alternates seeded churn batches with per-phase
/// recompute or repair, re-verifying validity on every mutated graph.
///
/// Phase randomness is domain-separated: graph generation, churn
/// sampling, and per-phase coins come from independent SplitMix64
/// streams rooted at `trial_seed`, so the whole trial is a pure function
/// of `(workload, algo, trial_seed, execution, strategy)`.
///
/// # Errors
///
/// Propagates generation, churn-spec, and execution errors.
///
/// # Example
///
/// ```
/// use sleepy_fleet::{
///     measure_dynamic, AlgoKind, DynamicWorkload, Execution, RepairStrategy, Workload,
/// };
/// use sleepy_graph::{ChurnSpec, GraphFamily};
///
/// let w = DynamicWorkload::new(
///     Workload::new(GraphFamily::Cycle, 32),
///     3,                      // phases (phase 0 = initial full run)
///     ChurnSpec::edges(0.2),  // 20% edge churn per phase
/// );
/// let r = measure_dynamic(&w, AlgoKind::SleepingMis, 1, Execution::Auto,
///     RepairStrategy::Incremental)?;
/// assert_eq!(r.phases.len(), 3);
/// assert!(r.all_valid());
/// // The incremental strategy recorded one cost entry per update event.
/// assert!(!r.phases[1].updates.is_empty());
/// # Ok::<(), sleepy_fleet::FleetError>(())
/// ```
pub fn measure_dynamic(
    workload: &DynamicWorkload,
    algo: AlgoKind,
    trial_seed: u64,
    execution: Execution,
    strategy: RepairStrategy,
) -> Result<DynamicReport, FleetError> {
    let mut graph = workload.initial_instance(trial_seed)?;
    let mut phases = Vec::with_capacity(workload.phases);
    let (mut in_mis, summary, timeouts) =
        run_algo(&graph, algo, seed::phase_seed(trial_seed, 0), execution)?;
    phases.push(phase_report(
        0,
        &graph,
        algo,
        &in_mis,
        summary,
        timeouts,
        graph.n(),
        0,
        Vec::new(),
    ));

    for phase in 1..workload.phases {
        let _phase_span = sleepy_telemetry::span!("repair", "phase", {
            "phase": phase,
            "strategy": strategy.to_string(),
        });
        // The churn batch is sampled against the *current* MIS so the
        // adversarial model can aim; strategies then differ only in how
        // they absorb it.
        let delta = workload.churn_batch(&graph, trial_seed, phase, Some(&in_mis))?;
        let phase_seed = seed::phase_seed(trial_seed, phase as u64);
        let (set, summary, timeouts, scope, carried, updates) = match strategy {
            // The batched strategies share a single delta application —
            // the outcome (graph + id mapping) is computed once and both
            // arms reuse it.
            RepairStrategy::Recompute | RepairStrategy::Repair => {
                let outcome = delta.apply(&graph)?;
                if strategy == RepairStrategy::Recompute {
                    graph = outcome.graph;
                    let (set, summary, timeouts) = run_algo(&graph, algo, phase_seed, execution)?;
                    (set, summary, timeouts, graph.n(), 0, Vec::new())
                } else {
                    // Carry membership through the id mapping (departed
                    // members drop).
                    let mut carried_set = vec![false; outcome.graph.n()];
                    for (old, new) in outcome.old_to_new.iter().enumerate() {
                        if let Some(new) = new {
                            carried_set[*new as usize] = in_mis[old];
                        }
                    }
                    graph = outcome.graph;
                    let (set, summary, timeouts, scope, carried) =
                        repair_phase(&graph, carried_set, algo, phase_seed, execution)?;
                    (set, summary, timeouts, scope, carried, Vec::new())
                }
            }
            RepairStrategy::Incremental => {
                let owned = std::mem::replace(&mut graph, empty_graph());
                let mut repairer =
                    IncrementalRepairer::new(owned, std::mem::take(&mut in_mis), algo, execution);
                let mut updates = Vec::new();
                for (k, event) in delta.events().into_iter().enumerate() {
                    updates.push(repairer.absorb(event, seed::update_seed(phase_seed, k as u64))?);
                }
                let done = repairer.finish();
                graph = done.graph;
                (done.set, done.summary, done.base_timeouts, done.scope, done.carried, updates)
            }
        };
        phases.push(phase_report(
            phase, &graph, algo, &set, summary, timeouts, scope, carried, updates,
        ));
        in_mis = set;
    }
    Ok(DynamicReport { phases })
}

/// The zero-node graph (placeholder while a phase owns the real one).
fn empty_graph() -> Graph {
    Graph::from_edges(0, std::iter::empty::<(NodeId, NodeId)>()).expect("empty graph is valid")
}

/// Everything one incremental phase produced, returned by
/// [`IncrementalRepairer::finish`].
#[derive(Debug)]
pub struct IncrementalPhase {
    /// The phase-end graph.
    pub graph: Graph,
    /// The phase-end MIS membership.
    pub set: Vec<bool>,
    /// The phase's complexity summary over the whole phase-end graph
    /// (awake/round averages re-divide the per-update sums by `n`;
    /// `worst_awake`/`worst_round` are per-update maxima).
    pub summary: ComplexitySummary,
    /// Algorithm 2 base-case timeouts across all updates.
    pub base_timeouts: usize,
    /// Sum of per-update repair scopes.
    pub scope: usize,
    /// Members that survived from phase start to phase end untouched.
    pub carried: usize,
}

// sleepy-lint: deny(telemetry-purity): AbsorbTotals is the arithmetic both repair
// paths must agree on bit-for-bit; a telemetry call here would be a side channel
// the in-place-vs-rebuild oracle cannot see. This file legitimately opens spans
// elsewhere, so the purity zone is re-imposed just for this region.
/// The per-update complexity sums an incremental phase accumulates
/// (shared by [`IncrementalRepairer`] and [`RebuildRepairer`], whose
/// records must stay bit-identical).
#[derive(Debug, Default)]
struct AbsorbTotals {
    awake_sum: f64,
    round_sum: f64,
    worst_awake: u64,
    worst_round: u64,
    active_rounds: u64,
    messages: u64,
    dropped: u64,
    lost: u64,
    bits: u64,
    timeouts: usize,
    scope_total: usize,
}

impl AbsorbTotals {
    /// Folds one frontier re-run's summary in, returning the update's
    /// awake-round sum (the [`UpdateRecord::awake_sum`] value).
    fn absorb(&mut self, summary: &ComplexitySummary, scope: usize, timeouts: usize) -> f64 {
        let awake_sum = summary.node_avg_awake * scope as f64;
        self.awake_sum += awake_sum;
        self.round_sum += summary.node_avg_round * scope as f64;
        self.worst_awake = self.worst_awake.max(summary.worst_awake);
        self.worst_round = self.worst_round.max(summary.worst_round);
        self.active_rounds += summary.active_rounds;
        self.messages += summary.total_messages;
        self.dropped += summary.dropped_messages;
        self.lost += summary.lost_messages;
        self.bits += summary.total_bits;
        self.timeouts += timeouts;
        self.scope_total += scope;
        awake_sum
    }

    /// The whole-phase summary over an `n`-node phase-end graph (nodes
    /// that slept through every update contribute zero awake rounds, so
    /// averages re-divide the per-update sums by `n`).
    fn summary(&self, n: usize) -> ComplexitySummary {
        let scale = |sum: f64| if n == 0 { 0.0 } else { sum / n as f64 };
        ComplexitySummary {
            n,
            node_avg_awake: scale(self.awake_sum),
            worst_awake: self.worst_awake,
            worst_round: self.worst_round,
            node_avg_round: scale(self.round_sum),
            active_rounds: self.active_rounds,
            total_messages: self.messages,
            dropped_messages: self.dropped,
            lost_messages: self.lost,
            total_bits: self.bits,
        }
    }
}
// sleepy-lint: end-deny(telemetry-purity)

/// Absorbs [`DeltaEvent`]s one at a time, keeping the MIS valid after
/// *every single update* — the incremental counterpart of the batched
/// [`RepairStrategy::Repair`] pass.
///
/// Per event it: applies the mutation **in place** on a [`DynGraph`]
/// (O(degree · log n), no CSR rebuild), carries membership on stable
/// slot handles (so nothing is remapped when ids compact), evicts (at
/// most) one endpoint of a newly conflicting edge, recomputes
/// decidedness only on the event's *frontier* — the nodes whose
/// dominator could have changed — and re-runs the algorithm on the
/// induced subgraph of undecided frontier nodes, assembled from reused
/// scratch buffers. Everyone else sleeps through the update, which is
/// what makes the per-update awake cost ([`UpdateRecord`]) the
/// Ghaffari–Portmann quantity rather than a whole-graph pass.
///
/// The records and the phase-end graph are bit-identical to
/// [`RebuildRepairer`]'s (the pre-refactor rebuild-per-event path,
/// kept as the equivalence oracle); only the wall-clock differs.
/// [`rebuild_count`](Self::rebuild_count) exposes how many CSR
/// materializations happened — zero until [`finish`](Self::finish)
/// snapshots the phase-end graph.
#[derive(Debug)]
pub struct IncrementalRepairer {
    graph: DynGraph,
    /// Membership by slot handle (stable across unrelated events).
    set: Vec<bool>,
    /// Phase-start members never evicted nor departed, by slot.
    carried: Vec<bool>,
    algo: AlgoKind,
    execution: Execution,
    totals: AbsorbTotals,
    // Scratch reused across absorbs (the rebuild path allocated all of
    // these afresh per event).
    /// Slots whose decidedness this event may have changed.
    candidates: Vec<NodeId>,
    /// Undecided frontier as (compact id, slot), sorted by compact id.
    frontier: Vec<(NodeId, NodeId)>,
    /// Slot-indexed frontier-membership marks (cleared after each use).
    in_frontier: Vec<bool>,
    /// Slot-indexed local subgraph index (valid only under the marks).
    local_of: Vec<NodeId>,
    /// Edge list of the frontier-induced subgraph, local ids.
    sub_edges: Vec<(NodeId, NodeId)>,
    // Telemetry tallies for this phase, flushed to the registry by
    // `finish`. Kept out of `AbsorbTotals`, which `RebuildRepairer`
    // shares and whose records must stay bit-identical.
    /// Events absorbed this phase.
    events_absorbed: u64,
    /// Member evictions forced by edge insertions.
    evictions: u64,
    /// Events whose frontier was empty (no re-run needed).
    zero_scope: u64,
}

impl IncrementalRepairer {
    /// Starts a phase from a graph and a valid MIS of it.
    pub fn new(graph: Graph, in_mis: Vec<bool>, algo: AlgoKind, execution: Execution) -> Self {
        let graph = graph.to_dyn();
        let cap = graph.capacity();
        let carried = in_mis.clone();
        IncrementalRepairer {
            graph,
            set: in_mis,
            carried,
            algo,
            execution,
            totals: AbsorbTotals::default(),
            candidates: Vec::new(),
            frontier: Vec::new(),
            in_frontier: vec![false; cap],
            local_of: vec![0; cap],
            sub_edges: Vec::new(),
            events_absorbed: 0,
            evictions: 0,
            zero_scope: 0,
        }
    }

    /// The current graph (slot-handle view; see [`DynGraph`]).
    pub fn graph(&self) -> &DynGraph {
        &self.graph
    }

    /// The current membership by **slot handle** — a valid MIS of
    /// [`graph`](Self::graph) after every [`absorb`](Self::absorb).
    /// For the compact-id view use [`current`](Self::current).
    pub fn in_mis(&self) -> &[bool] {
        &self.set
    }

    /// CSR materializations so far — 0 during absorption; the
    /// phase-end [`finish`](Self::finish) performs exactly one. The
    /// smoke tests pin the incremental path to this invariant.
    pub fn rebuild_count(&self) -> u64 {
        self.graph.rebuild_count()
    }

    /// The CSR snapshot, the compact-space membership, and the carried
    /// count — the one slot→compact projection [`current`](Self::current)
    /// and [`finish`](Self::finish) share.
    fn compact_view(&self) -> (Graph, Vec<bool>, usize) {
        let (snapshot, compact) = self.graph.snapshot_with_ids();
        let mut set = vec![false; snapshot.n()];
        let mut carried = 0usize;
        for (slot, &id) in compact.iter().enumerate() {
            if id != NodeId::MAX {
                set[id as usize] = self.set[slot];
                carried += self.carried[slot] as usize;
            }
        }
        (snapshot, set, carried)
    }

    /// The current graph and membership in compact-id space, for
    /// verification and diagnostics. Materializes a CSR snapshot, so
    /// this *does* count as a rebuild — don't call it per absorbed
    /// event outside tests.
    pub fn current(&self) -> (Graph, Vec<bool>) {
        let (snapshot, set, _) = self.compact_view();
        (snapshot, set)
    }

    /// Grows the slot-indexed state after an arrival extended the slot
    /// space, and resets the new slot's membership.
    fn init_slot(&mut self, slot: NodeId) {
        let cap = self.graph.capacity();
        if self.set.len() < cap {
            self.set.resize(cap, false);
            self.carried.resize(cap, false);
            self.in_frontier.resize(cap, false);
            self.local_of.resize(cap, 0);
        }
        self.set[slot as usize] = false;
        self.carried[slot as usize] = false;
    }

    /// Range-validates a compact id exactly as the delta path would
    /// (delegates to the one shared rule,
    /// [`DynGraph::check_compact`]).
    fn check_compact(&self, id: NodeId) -> Result<(), FleetError> {
        Ok(self.graph.check_compact(id)?)
    }

    /// Absorbs one update event, restoring MIS validity before
    /// returning. `seed` drives the frontier re-run's coins (callers
    /// use [`seed::update_seed`](crate::seed::update_seed)). The
    /// event's node ids are compact ids (the [`DeltaEvent`] contract);
    /// everything past the boundary runs on slot handles.
    ///
    /// # Errors
    ///
    /// Propagates event-validation and execution errors.
    pub fn absorb(&mut self, event: DeltaEvent, seed: u64) -> Result<UpdateRecord, FleetError> {
        let kind = UpdateKind::of(&event);
        let _span = sleepy_telemetry::span!("repair", "event", {"kind": kind.label()});
        self.events_absorbed += 1;
        self.candidates.clear();
        // Apply the mutation in place and gather the candidate slots
        // whose decidedness it can change: the edge endpoints, a
        // departing node's neighborhood (they may lose their only
        // dominator), an evicted member's neighborhood, the arrival.
        match event {
            DeltaEvent::RemoveEdge(u, v) => {
                self.check_compact(u)?;
                self.check_compact(v)?;
                if u != v {
                    let (a, b) = (self.graph.slot_at(u), self.graph.slot_at(v));
                    self.graph.remove_edge(a, b);
                    self.candidates.push(a);
                    self.candidates.push(b);
                }
            }
            DeltaEvent::RemoveNode(v) => {
                self.check_compact(v)?;
                let slot = self.graph.slot_at(v);
                self.candidates.extend_from_slice(self.graph.neighbors(slot));
                self.graph.remove_node(slot);
                self.set[slot as usize] = false;
                self.carried[slot as usize] = false;
            }
            DeltaEvent::AddNode => {
                // The arrival is undecided by construction.
                let slot = self.graph.add_node();
                self.init_slot(slot);
                self.candidates.push(slot);
            }
            DeltaEvent::AddEdge(u, v) => {
                self.check_compact(u)?;
                self.check_compact(v)?;
                if u == v {
                    return Err(GraphError::SelfLoop { node: u }.into());
                }
                let (a, b) = (self.graph.slot_at(u), self.graph.slot_at(v));
                self.graph.add_edge(a, b);
                self.candidates.push(a);
                self.candidates.push(b);
                // The insertion can join two members; evict the larger
                // *compact* id (the same lexicographic rule as the
                // batched repair), whose neighbors may thereby lose
                // their dominator.
                if self.set[a as usize] && self.set[b as usize] {
                    let evicted = if u > v { a } else { b };
                    self.set[evicted as usize] = false;
                    self.carried[evicted as usize] = false;
                    self.candidates.extend_from_slice(self.graph.neighbors(evicted));
                    self.evictions += 1;
                }
            }
        }
        // Undecided frontier: candidates outside the set with no
        // neighbor in it. (All other nodes were decided before the
        // event and nothing about their neighborhood changed.) Sorted
        // by compact id so the induced subgraph is bit-identical to the
        // one the rebuild path extracts.
        self.candidates.sort_unstable();
        self.candidates.dedup();
        self.frontier.clear();
        for i in 0..self.candidates.len() {
            let c = self.candidates[i];
            let decided = self.set[c as usize]
                || self.graph.neighbors(c).iter().any(|&w| self.set[w as usize]);
            if !decided {
                self.frontier.push((self.graph.compact_id(c), c));
            }
        }
        if self.frontier.is_empty() {
            self.zero_scope += 1;
            return Ok(UpdateRecord { kind, scope: 0, awake_sum: 0.0 });
        }
        self.frontier.sort_unstable();
        let scope = self.frontier.len();
        for (local, &(_, slot)) in self.frontier.iter().enumerate() {
            self.in_frontier[slot as usize] = true;
            self.local_of[slot as usize] = local as NodeId;
        }
        self.sub_edges.clear();
        for &(_, slot) in &self.frontier {
            let lu = self.local_of[slot as usize];
            for &w in self.graph.neighbors(slot) {
                if self.in_frontier[w as usize] {
                    let lw = self.local_of[w as usize];
                    if lu < lw {
                        self.sub_edges.push((lu, lw));
                    }
                }
            }
        }
        let sub = Graph::from_edges(scope, self.sub_edges.iter().copied())?;
        for &(_, slot) in &self.frontier {
            self.in_frontier[slot as usize] = false;
        }
        let (sub_mis, summary, timeouts) = run_algo(&sub, self.algo, seed, self.execution)?;
        for (local, &(_, slot)) in self.frontier.iter().enumerate() {
            if sub_mis[local] {
                self.set[slot as usize] = true;
            }
        }
        let awake_sum = self.totals.absorb(&summary, scope, timeouts);
        Ok(UpdateRecord { kind, scope, awake_sum })
    }

    /// Ends the phase, snapshotting the phase-end graph into compact-id
    /// CSR form (the phase's single rebuild) and folding the per-update
    /// sums into one whole-phase-graph summary. Flushes this phase's
    /// telemetry counters (`repair.*`, `graph.*`) to the registry.
    pub fn finish(self) -> IncrementalPhase {
        if sleepy_telemetry::enabled() {
            sleepy_telemetry::counter_add("repair.events", self.events_absorbed);
            sleepy_telemetry::counter_add("repair.evictions", self.evictions);
            sleepy_telemetry::counter_add("repair.zero_scope", self.zero_scope);
            sleepy_telemetry::counter_add("repair.frontier_nodes", self.totals.scope_total as u64);
            // Absorption itself triggers no CSR rebuilds; this counter
            // shows it in normal runs.
            sleepy_telemetry::counter_add("graph.absorb_rebuilds", self.graph.rebuild_count());
            for (key, buf) in [
                ("repair.scratch_candidates_hw", self.candidates.capacity()),
                ("repair.scratch_frontier_hw", self.frontier.capacity()),
                ("repair.scratch_edges_hw", self.sub_edges.capacity()),
            ] {
                sleepy_telemetry::gauge_max(key, buf as u64);
            }
        }
        let (graph, set, carried) = self.compact_view();
        // After the snapshot: the phase's one rebuild, plus any counted
        // above.
        sleepy_telemetry::counter_add("graph.rebuilds", self.graph.rebuild_count());
        let n = graph.n();
        IncrementalPhase {
            graph,
            set,
            summary: self.totals.summary(n),
            base_timeouts: self.totals.timeouts,
            scope: self.totals.scope_total,
            carried,
        }
    }
}

/// The pre-[`DynGraph`] incremental path: absorbs each event by
/// rebuilding the CSR graph from a one-event [`GraphDelta`] — O(n + m)
/// *per event*. Kept (not as a `RepairStrategy`) as the oracle the
/// equivalence proptests compare [`IncrementalRepairer`] against: both
/// must produce bit-identical [`UpdateRecord`]s, graphs and memberships
/// for the same event sequence and seeds.
///
/// [`GraphDelta`]: sleepy_graph::GraphDelta
#[derive(Debug)]
pub struct RebuildRepairer {
    graph: Graph,
    set: Vec<bool>,
    carried: Vec<bool>,
    algo: AlgoKind,
    execution: Execution,
    totals: AbsorbTotals,
}

impl RebuildRepairer {
    /// Starts a phase from a graph and a valid MIS of it.
    pub fn new(graph: Graph, in_mis: Vec<bool>, algo: AlgoKind, execution: Execution) -> Self {
        let carried = in_mis.clone();
        RebuildRepairer {
            graph,
            set: in_mis,
            carried,
            algo,
            execution,
            totals: AbsorbTotals::default(),
        }
    }

    /// The current graph (compact-id CSR — rebuilt by every absorb).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The current membership in compact-id space.
    pub fn in_mis(&self) -> &[bool] {
        &self.set
    }

    /// Absorbs one update event by full CSR rebuild — semantically
    /// identical to [`IncrementalRepairer::absorb`], O(n + m) slower.
    ///
    /// # Errors
    ///
    /// Propagates delta-application and execution errors.
    pub fn absorb(&mut self, event: DeltaEvent, seed: u64) -> Result<UpdateRecord, FleetError> {
        let kind = UpdateKind::of(&event);
        // Candidate nodes in pre-event ids: the edge endpoints, or a
        // departing node's neighborhood.
        let candidates_old: Vec<NodeId> = match event {
            DeltaEvent::RemoveEdge(u, v) | DeltaEvent::AddEdge(u, v) => vec![u, v],
            DeltaEvent::RemoveNode(v) => self.graph.neighbors(v).to_vec(),
            DeltaEvent::AddNode => Vec::new(),
        };
        let outcome = event.to_delta().apply(&self.graph)?;
        let n = outcome.graph.n();
        let mut set = vec![false; n];
        let mut carried = vec![false; n];
        for (old, new) in outcome.old_to_new.iter().enumerate() {
            if let Some(new) = new {
                set[*new as usize] = self.set[old];
                carried[*new as usize] = self.carried[old];
            }
        }
        let mut candidates: Vec<NodeId> =
            candidates_old.iter().filter_map(|&v| outcome.old_to_new[v as usize]).collect();
        self.graph = outcome.graph;
        match event {
            DeltaEvent::AddNode => candidates.push((n - 1) as NodeId),
            DeltaEvent::AddEdge(u, v) if set[u as usize] && set[v as usize] => {
                let evicted = u.max(v);
                set[evicted as usize] = false;
                carried[evicted as usize] = false;
                candidates.extend_from_slice(self.graph.neighbors(evicted));
            }
            _ => {}
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut undecided = vec![false; n];
        let mut any = false;
        for &c in &candidates {
            let decided =
                set[c as usize] || self.graph.neighbors(c).iter().any(|&w| set[w as usize]);
            if !decided {
                undecided[c as usize] = true;
                any = true;
            }
        }
        self.set = set;
        self.carried = carried;
        if !any {
            return Ok(UpdateRecord { kind, scope: 0, awake_sum: 0.0 });
        }
        let (sub, orig) = self.graph.induced_subgraph(&undecided);
        let scope = sub.n();
        let (sub_mis, summary, timeouts) = run_algo(&sub, self.algo, seed, self.execution)?;
        for (i, &o) in orig.iter().enumerate() {
            if sub_mis[i] {
                self.set[o as usize] = true;
            }
        }
        let awake_sum = self.totals.absorb(&summary, scope, timeouts);
        Ok(UpdateRecord { kind, scope, awake_sum })
    }

    /// Ends the phase; same contract as [`IncrementalRepairer::finish`].
    pub fn finish(self) -> IncrementalPhase {
        let n = self.graph.n();
        let carried = self.carried.iter().filter(|&&b| b).count();
        IncrementalPhase {
            summary: self.totals.summary(n),
            base_timeouts: self.totals.timeouts,
            scope: self.totals.scope_total,
            graph: self.graph,
            set: self.set,
            carried,
        }
    }
}

/// The repair step of one phase: conflict eviction, then a restricted
/// re-run on the undecided neighborhood only.
fn repair_phase(
    graph: &Graph,
    mut set: Vec<bool>,
    algo: AlgoKind,
    phase_seed: u64,
    execution: Execution,
) -> Result<(Vec<bool>, ComplexitySummary, usize, usize, usize), FleetError> {
    let n = graph.n();
    // Inserted edges can join two carried members; evict the larger
    // endpoint of each conflict (a single lexicographic pass leaves the
    // set independent, since membership only ever shrinks here).
    for (u, v) in graph.edges() {
        if set[u as usize] && set[v as usize] {
            set[v as usize] = false;
        }
    }
    let carried = set.iter().filter(|&&b| b).count();
    // Undecided: outside the carried set and not dominated by it —
    // evictees, arrivals, and nodes whose only dominator departed.
    let undecided: Vec<bool> = (0..n)
        .map(|v| {
            !set[v] && !graph.neighbors(v as sleepy_graph::NodeId).iter().any(|&w| set[w as usize])
        })
        .collect();
    let (sub, orig) = graph.induced_subgraph(&undecided);
    let scope = sub.n();
    let (sub_summary, timeouts) = if scope == 0 {
        (zero_summary(0), 0)
    } else {
        let (sub_mis, sub_summary, timeouts) = run_algo(&sub, algo, phase_seed, execution)?;
        for (i, &o) in orig.iter().enumerate() {
            if sub_mis[i] {
                set[o as usize] = true;
            }
        }
        (sub_summary, timeouts)
    };
    // Re-express the subgraph run over the whole phase graph: the n −
    // scope untouched nodes slept through the phase, so sums are
    // unchanged and averages re-divide by n.
    let scale = |avg: f64| if n == 0 { 0.0 } else { avg * scope as f64 / n as f64 };
    let summary = ComplexitySummary {
        n,
        node_avg_awake: scale(sub_summary.node_avg_awake),
        worst_awake: sub_summary.worst_awake,
        worst_round: sub_summary.worst_round,
        node_avg_round: scale(sub_summary.node_avg_round),
        active_rounds: sub_summary.active_rounds,
        total_messages: sub_summary.total_messages,
        dropped_messages: sub_summary.dropped_messages,
        lost_messages: sub_summary.lost_messages,
        total_bits: sub_summary.total_bits,
    };
    Ok((set, summary, timeouts, scope, carried))
}

/// An all-zero summary for phases whose repair scope is empty.
fn zero_summary(n: usize) -> ComplexitySummary {
    ComplexitySummary {
        n,
        node_avg_awake: 0.0,
        worst_awake: 0,
        worst_round: 0,
        node_avg_round: 0.0,
        active_rounds: 0,
        total_messages: 0,
        dropped_messages: 0,
        lost_messages: 0,
        total_bits: 0,
    }
}

#[allow(clippy::too_many_arguments)]
fn phase_report(
    phase: usize,
    graph: &Graph,
    algo: AlgoKind,
    set: &[bool],
    summary: ComplexitySummary,
    base_timeouts: usize,
    repair_scope: usize,
    carried: usize,
    updates: Vec<UpdateRecord>,
) -> PhaseReport {
    let valid = verify_mis(graph, set).is_ok();
    PhaseReport {
        phase,
        report: ComplexityReport {
            algo: algo.to_string(),
            n: graph.n(),
            summary,
            mis_size: set.iter().filter(|&&b| b).count(),
            valid,
            base_timeouts,
        },
        m: graph.m(),
        repair_scope,
        carried,
        updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use sleepy_graph::GraphFamily;

    #[test]
    fn measure_once_all_algorithms() {
        let g = Workload::new(GraphFamily::GnpAvgDeg(6.0), 80).instance(1).unwrap();
        for algo in ALL_ALGOS {
            let r = measure_once(&g, algo, 7, Execution::Auto).unwrap();
            assert!(r.valid, "{algo} invalid");
            assert!(r.mis_size > 0);
            assert!(r.summary.node_avg_awake > 0.0);
        }
    }

    #[test]
    fn measure_once_on_degenerate_graphs() {
        // The dynamic path can empty a graph or isolate every node;
        // measurement must stay well-defined for every algorithm.
        for family in [GraphFamily::Empty, GraphFamily::Grid2d, GraphFamily::Hypercube] {
            for n in [0usize, 1, 2] {
                let g = Workload::new(family, n).instance(1).unwrap();
                for algo in ALL_ALGOS {
                    let r = measure_once(&g, algo, 3, Execution::Auto)
                        .unwrap_or_else(|e| panic!("{algo} on {family} n={n}: {e}"));
                    assert!(r.valid, "{algo} on {family} n={n}");
                    assert_eq!(r.n, g.n());
                    if g.n() == 0 {
                        assert_eq!(r.mis_size, 0);
                        assert_eq!(r.summary.node_avg_awake, 0.0);
                    }
                }
            }
        }
    }

    #[test]
    fn dynamic_phases_all_valid_under_every_strategy() {
        let w = DynamicWorkload::new(
            Workload::new(GraphFamily::GnpAvgDeg(6.0), 120),
            4,
            sleepy_graph::ChurnSpec {
                edge_delete_frac: 0.1,
                edge_insert_frac: 0.1,
                node_delete_frac: 0.05,
                node_insert_frac: 0.05,
                arrival_degree: 3,
                ..sleepy_graph::ChurnSpec::none()
            },
        );
        for strategy in ALL_STRATEGIES {
            let r =
                measure_dynamic(&w, AlgoKind::SleepingMis, 9, Execution::Auto, strategy).unwrap();
            assert_eq!(r.phases.len(), 4);
            assert!(r.all_valid(), "{strategy}");
            for p in &r.phases {
                assert_eq!(p.report.algo, "SleepingMIS");
                assert!(p.report.mis_size > 0);
                if strategy == RepairStrategy::Incremental && p.phase > 0 {
                    assert!(!p.updates.is_empty(), "churn phases absorb events");
                    let scope_sum: usize = p.updates.iter().map(|u| u.scope).sum();
                    assert_eq!(scope_sum, p.repair_scope);
                    let awake_sum: f64 = p.updates.iter().map(|u| u.awake_sum).sum();
                    assert!(
                        (awake_sum - p.report.summary.node_avg_awake * p.report.n as f64).abs()
                            < 1e-9
                    );
                } else {
                    assert!(p.updates.is_empty());
                }
            }
        }
    }

    #[test]
    fn update_kind_labels_match_delta_event_labels() {
        // The doc contract: UpdateKind::label is identical to the
        // corresponding DeltaEvent::label. Pin it so the two string
        // tables (fleet vs graph crate) cannot drift apart.
        for event in [
            DeltaEvent::RemoveEdge(0, 1),
            DeltaEvent::AddEdge(0, 1),
            DeltaEvent::RemoveNode(0),
            DeltaEvent::AddNode,
        ] {
            assert_eq!(UpdateKind::of(&event).label(), event.label());
            assert_eq!(UpdateKind::of(&event).to_string(), event.label());
        }
    }

    #[test]
    fn incremental_repairer_keeps_mis_valid_after_every_event() {
        use sleepy_verify::verify_mis;
        let w = Workload::new(GraphFamily::GnpAvgDeg(6.0), 150);
        let g = w.instance(5).unwrap();
        let (in_mis, _, _) =
            super::run_algo(&g, AlgoKind::SleepingMis, 5, Execution::Auto).unwrap();
        let spec = sleepy_graph::ChurnSpec {
            edge_delete_frac: 0.15,
            edge_insert_frac: 0.15,
            node_delete_frac: 0.08,
            node_insert_frac: 0.08,
            arrival_degree: 2,
            ..sleepy_graph::ChurnSpec::none()
        };
        let delta = sleepy_graph::churn_delta_with_mis(&g, &spec, 3, Some(&in_mis)).unwrap();
        let mut rep = IncrementalRepairer::new(g, in_mis, AlgoKind::SleepingMis, Execution::Auto);
        let mut absorbed = 0;
        for (k, event) in delta.events().into_iter().enumerate() {
            rep.absorb(event, seed::update_seed(77, k as u64)).unwrap();
            let (g_now, set_now) = rep.current();
            assert!(verify_mis(&g_now, &set_now).is_ok(), "MIS invalid after event {k}");
            absorbed += 1;
        }
        assert!(absorbed > 10, "the batch must decompose into many events");
        let done = rep.finish();
        assert!(verify_mis(&done.graph, &done.set).is_ok());
        assert!(done.carried > 0);
        assert!(done.scope < done.graph.n(), "incremental repair must not touch everyone");
    }

    #[test]
    fn incremental_under_adversarial_churn_still_valid_and_costlier() {
        let churn = sleepy_graph::ChurnSpec::edges(0.08);
        let base = Workload::new(GraphFamily::GnpAvgDeg(6.0), 200);
        let uniform = DynamicWorkload::new(base, 5, churn);
        let adversarial = DynamicWorkload::new(base, 5, churn.adversarial());
        let run = |w: &DynamicWorkload| {
            measure_dynamic(
                w,
                AlgoKind::SleepingMis,
                8,
                Execution::Auto,
                RepairStrategy::Incremental,
            )
            .unwrap()
        };
        let (u, a) = (run(&uniform), run(&adversarial));
        assert!(u.all_valid() && a.all_valid());
        // The adversary aims every deletion at the MIS, so more updates
        // force a re-run (fewer zero-scope absorptions).
        let busy = |r: &DynamicReport| {
            r.phases[1..].iter().flat_map(|p| &p.updates).filter(|up| up.scope > 0).count() as f64
                / r.phases[1..].iter().map(|p| p.updates.len()).sum::<usize>() as f64
        };
        assert!(
            busy(&a) > busy(&u),
            "adversarial churn should force more non-trivial repairs ({} vs {})",
            busy(&a),
            busy(&u)
        );
        assert_ne!(uniform.key(), adversarial.key(), "model must discriminate content keys");
    }

    #[test]
    fn repair_scope_is_restricted_and_cheaper() {
        let w = DynamicWorkload::new(
            Workload::new(GraphFamily::GnpAvgDeg(6.0), 400),
            5,
            sleepy_graph::ChurnSpec::edges(0.02),
        );
        let repair =
            measure_dynamic(&w, AlgoKind::SleepingMis, 4, Execution::Auto, RepairStrategy::Repair)
                .unwrap();
        assert!(repair.all_valid());
        // Phase 0 runs everywhere; later phases must touch far fewer nodes.
        assert_eq!(repair.phases[0].repair_scope, 400);
        for p in &repair.phases[1..] {
            assert!(p.repair_scope < 150, "phase {} scope {}", p.phase, p.repair_scope);
            assert!(p.carried > 0);
            assert!(
                p.report.summary.node_avg_awake <= repair.phases[0].report.summary.node_avg_awake,
                "repair phase should cost no more per node than the full run"
            );
        }
    }

    #[test]
    fn single_phase_dynamic_matches_static_measurement() {
        let base = Workload::new(GraphFamily::GeometricAvgDeg(6.0), 90);
        let w = DynamicWorkload::from_static(base);
        let seed = 0xA11CE;
        let dynamic = measure_dynamic(
            &w,
            AlgoKind::FastSleepingMis,
            seed,
            Execution::Auto,
            RepairStrategy::Repair,
        )
        .unwrap();
        let g = base.instance(seed).unwrap();
        let stat = measure_once(&g, AlgoKind::FastSleepingMis, seed, Execution::Auto).unwrap();
        let p0 = &dynamic.phases[0].report;
        assert_eq!(p0.mis_size, stat.mis_size);
        assert_eq!(p0.summary.worst_round, stat.summary.worst_round);
        assert_eq!(p0.summary.node_avg_awake, stat.summary.node_avg_awake);
    }

    #[test]
    fn churn_that_empties_the_graph_is_handled() {
        // 100% node departure, no arrivals: phase 1 onward is the empty
        // graph; both strategies must report valid zero-cost phases.
        let w = DynamicWorkload::new(
            Workload::new(GraphFamily::Cycle, 24),
            3,
            sleepy_graph::ChurnSpec { node_delete_frac: 1.0, ..sleepy_graph::ChurnSpec::none() },
        );
        for strategy in ALL_STRATEGIES {
            let r =
                measure_dynamic(&w, AlgoKind::SleepingMis, 1, Execution::Auto, strategy).unwrap();
            assert!(r.all_valid(), "{strategy}");
            assert_eq!(r.phases[1].report.n, 0);
            assert_eq!(r.phases[1].report.mis_size, 0);
            assert_eq!(r.phases[2].report.summary.node_avg_awake, 0.0);
        }
    }

    #[test]
    fn engine_and_auto_agree_for_sleeping_algos() {
        let g = Workload::new(GraphFamily::GnpAvgDeg(5.0), 60).instance(2).unwrap();
        for algo in SLEEPING_ALGOS {
            let a = measure_once(&g, algo, 3, Execution::Auto).unwrap();
            let b = measure_once(&g, algo, 3, Execution::ForceEngine).unwrap();
            assert_eq!(a.mis_size, b.mis_size, "{algo}");
            assert_eq!(a.summary.worst_round, b.summary.worst_round, "{algo}");
            assert!((a.summary.node_avg_awake - b.summary.node_avg_awake).abs() < 1e-9);
        }
    }
}
