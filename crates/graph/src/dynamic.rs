//! Dynamic-graph support: deltas (edge insert/delete, node
//! arrival/departure), single-event decomposition, and seeded churn
//! generators.
//!
//! A [`GraphDelta`] is one batch of mutations applied between phases of a
//! dynamic workload. Applying a delta produces a fresh [`Graph`] together
//! with the old-id → new-id mapping ([`DeltaOutcome::old_to_new`]), which
//! is what lets an MIS-repair algorithm carry per-node state (membership)
//! across the mutation. [`GraphDelta::events`] decomposes a batch into
//! single-event deltas ([`DeltaEvent`]) whose sequential application
//! reproduces the batch exactly — the substrate for *incremental*
//! (per-update) repair and Ghaffari–Portmann-style amortized
//! per-update accounting. Hot event loops should apply events to a
//! [`DynGraph`](crate::DynGraph) ([`apply_event`]) instead of paying
//! this module's O(n + m) CSR rebuild per event; the two are
//! equivalent by construction (and by proptest).
//!
//! [`apply_event`]: crate::DynGraph::apply_event
//!
//! [`churn_delta`] samples a delta from a [`ChurnSpec`] with an explicit
//! seed, so — like every generator in this crate — a whole churn
//! *sequence* is reproducible from `(initial graph parameters, seeds)`.
//! [`churn_delta_with_mis`] additionally takes the current MIS
//! membership so the *adversarial* churn model ([`ChurnModel`]) can
//! target its deletions at the nodes the solution actually depends on.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One batch of graph mutations.
///
/// Apply order (see [`GraphDelta::apply`]):
///
/// 1. delete `remove_edges` (old-id space; absent edges are ignored),
/// 2. delete `remove_nodes` with all incident edges (old-id space),
/// 3. compact surviving node ids, preserving relative order,
/// 4. append `add_nodes` fresh isolated nodes after the survivors,
/// 5. insert `add_edges`, given in the **post-compaction id space**
///    (so they may reference arriving nodes; duplicates collapse).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Edges to delete, in the pre-delta id space (either orientation).
    pub remove_edges: Vec<(NodeId, NodeId)>,
    /// Nodes departing, in the pre-delta id space.
    pub remove_nodes: Vec<NodeId>,
    /// Number of arriving nodes (appended after surviving nodes).
    pub add_nodes: usize,
    /// Edges to insert, in the post-delta id space.
    pub add_edges: Vec<(NodeId, NodeId)>,
}

/// Result of applying a [`GraphDelta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// The mutated graph.
    pub graph: Graph,
    /// For every pre-delta node id: its post-delta id, or `None` if the
    /// node departed. Arriving nodes occupy the ids after the survivors.
    pub old_to_new: Vec<Option<NodeId>>,
}

impl GraphDelta {
    /// A delta that changes nothing.
    pub fn empty() -> Self {
        GraphDelta::default()
    }

    /// Whether this delta mutates anything.
    pub fn is_empty(&self) -> bool {
        self.remove_edges.is_empty()
            && self.remove_nodes.is_empty()
            && self.add_nodes == 0
            && self.add_edges.is_empty()
    }

    /// Applies the delta to `g`, returning the mutated graph and the
    /// node-id mapping.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if a departing node or an edge
    ///   endpoint is out of range for its id space.
    /// * [`GraphError::SelfLoop`] if an inserted edge is a self loop.
    pub fn apply(&self, g: &Graph) -> Result<DeltaOutcome, GraphError> {
        let n = g.n();
        for &(u, v) in &self.remove_edges {
            for e in [u, v] {
                if e as usize >= n {
                    return Err(GraphError::NodeOutOfRange { node: e as u64, n });
                }
            }
        }
        let mut departed = vec![false; n];
        for &v in &self.remove_nodes {
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v as u64, n });
            }
            departed[v as usize] = true;
        }
        // Old → new id mapping: survivors keep relative order, compacted.
        let mut old_to_new = vec![None; n];
        let mut survivors = 0usize;
        for v in 0..n {
            if !departed[v] {
                old_to_new[v] = Some(survivors as NodeId);
                survivors += 1;
            }
        }
        let new_n = survivors + self.add_nodes;

        // Deleted edges, normalized for O(log) lookup during the copy.
        let mut dropped: Vec<(NodeId, NodeId)> =
            self.remove_edges.iter().map(|&(u, v)| if u < v { (u, v) } else { (v, u) }).collect();
        dropped.sort_unstable();
        dropped.dedup();

        let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(g.m() + self.add_edges.len());
        for (u, v) in g.edges() {
            if dropped.binary_search(&(u, v)).is_ok() {
                continue;
            }
            if let (Some(nu), Some(nv)) = (old_to_new[u as usize], old_to_new[v as usize]) {
                edges.push((nu, nv));
            }
        }
        for &(u, v) in &self.add_edges {
            for e in [u, v] {
                if e as usize >= new_n {
                    return Err(GraphError::NodeOutOfRange { node: e as u64, n: new_n });
                }
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            edges.push((u, v));
        }
        Ok(DeltaOutcome { graph: Graph::from_edges(new_n, edges)?, old_to_new })
    }

    /// Decomposes the batch into single-event deltas whose *sequential*
    /// application reproduces [`apply`](GraphDelta::apply) exactly:
    /// same final graph, same composed id mapping.
    ///
    /// Event order mirrors the batch apply order — edge deletions, then
    /// node departures in **descending id order** (a departure only
    /// shifts ids above it, so every remaining departure id is still
    /// valid verbatim), then arrivals, then edge insertions (which the
    /// batch already expresses in the post-delta id space).
    ///
    /// # Example
    ///
    /// ```
    /// use sleepy_graph::{generators, DeltaEvent, GraphDelta};
    ///
    /// let g = generators::path(4).unwrap(); // 0-1-2-3
    /// let delta = GraphDelta {
    ///     remove_nodes: vec![1],
    ///     add_edges: vec![(0, 1)], // post-delta ids: 0-(2)
    ///     ..GraphDelta::default()
    /// };
    /// let batch = delta.apply(&g).unwrap();
    /// let mut stepped = g.clone();
    /// for event in delta.events() {
    ///     stepped = event.to_delta().apply(&stepped).unwrap().graph;
    /// }
    /// assert_eq!(stepped, batch.graph);
    /// assert_eq!(delta.events().len(), 2);
    /// assert_eq!(delta.events()[0], DeltaEvent::RemoveNode(1));
    /// ```
    pub fn events(&self) -> Vec<DeltaEvent> {
        let mut events = Vec::with_capacity(
            self.remove_edges.len()
                + self.remove_nodes.len()
                + self.add_nodes
                + self.add_edges.len(),
        );
        events.extend(self.remove_edges.iter().map(|&(u, v)| DeltaEvent::RemoveEdge(u, v)));
        let mut departures = self.remove_nodes.clone();
        departures.sort_unstable_by(|a, b| b.cmp(a));
        departures.dedup();
        events.extend(departures.into_iter().map(DeltaEvent::RemoveNode));
        events.extend(std::iter::repeat_n(DeltaEvent::AddNode, self.add_nodes));
        events.extend(self.add_edges.iter().map(|&(u, v)| DeltaEvent::AddEdge(u, v)));
        events
    }
}

/// A single atomic graph mutation, produced by [`GraphDelta::events`].
///
/// Each event's node ids refer to the id space *current at the moment
/// the event is applied* (earlier events in the same decomposition have
/// already taken effect). Apply with [`to_delta`](DeltaEvent::to_delta)
/// and [`GraphDelta::apply`] (O(n + m), batch semantics) or in place
/// with [`DynGraph::apply_event`](crate::DynGraph::apply_event), which
/// costs O(degree · log n).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaEvent {
    /// Delete one edge (either orientation; absent edges are a no-op).
    RemoveEdge(NodeId, NodeId),
    /// One node departs; ids above it shift down by one.
    RemoveNode(NodeId),
    /// One isolated node arrives with id `n` (the current node count).
    AddNode,
    /// Insert one edge.
    AddEdge(NodeId, NodeId),
}

impl DeltaEvent {
    /// The equivalent one-event [`GraphDelta`].
    pub fn to_delta(self) -> GraphDelta {
        match self {
            DeltaEvent::RemoveEdge(u, v) => {
                GraphDelta { remove_edges: vec![(u, v)], ..GraphDelta::default() }
            }
            DeltaEvent::RemoveNode(v) => {
                GraphDelta { remove_nodes: vec![v], ..GraphDelta::default() }
            }
            DeltaEvent::AddNode => GraphDelta { add_nodes: 1, ..GraphDelta::default() },
            DeltaEvent::AddEdge(u, v) => {
                GraphDelta { add_edges: vec![(u, v)], ..GraphDelta::default() }
            }
        }
    }

    /// A short stable label (`edge-del`, `node-dep`, …) for logs and
    /// per-update reports.
    pub fn label(&self) -> &'static str {
        match self {
            DeltaEvent::RemoveEdge(..) => "edge-del",
            DeltaEvent::RemoveNode(..) => "node-dep",
            DeltaEvent::AddNode => "node-arr",
            DeltaEvent::AddEdge(..) => "edge-ins",
        }
    }
}

/// How churn *targets* are selected (intensities stay in [`ChurnSpec`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChurnModel {
    /// Targets are drawn uniformly at random.
    #[default]
    Uniform,
    /// Deletions preferentially hit the current MIS: departing nodes
    /// are drawn from MIS members first, deleted edges from edges
    /// incident to a member first (falling back to uniform once the
    /// targeted pool is exhausted, so the configured intensities are
    /// always met). This is the worst case for repair strategies —
    /// every deletion lands where the solution actually depends on the
    /// graph. Requires membership via [`churn_delta_with_mis`];
    /// without it the model degrades to [`ChurnModel::Uniform`].
    Adversarial,
}

impl ChurnModel {
    /// Stable identifier used in labels and content keys.
    pub fn label(&self) -> &'static str {
        match self {
            ChurnModel::Uniform => "uni",
            ChurnModel::Adversarial => "adv",
        }
    }
}

/// Per-phase churn intensities for [`churn_delta`].
///
/// All fractions are relative to the *current* graph, so a churn
/// sequence keeps its relative intensity as the graph grows or shrinks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Fraction of current edges deleted per phase, in `[0, 1]`.
    pub edge_delete_frac: f64,
    /// Edges inserted per phase, as a fraction of the current edge count
    /// (nonnegative; may exceed 1).
    pub edge_insert_frac: f64,
    /// Fraction of current nodes departing per phase, in `[0, 1]`.
    pub node_delete_frac: f64,
    /// Arrivals per phase, as a fraction of the current node count
    /// (nonnegative).
    pub node_insert_frac: f64,
    /// Number of uniformly random attachment edges each arriving node
    /// brings (clamped to the available nodes).
    pub arrival_degree: usize,
    /// How deletion targets are selected (uniform or adversarial).
    pub model: ChurnModel,
}

impl ChurnSpec {
    /// No churn at all (the static degenerate case).
    pub fn none() -> Self {
        ChurnSpec {
            edge_delete_frac: 0.0,
            edge_insert_frac: 0.0,
            node_delete_frac: 0.0,
            node_insert_frac: 0.0,
            arrival_degree: 0,
            model: ChurnModel::Uniform,
        }
    }

    /// This spec with the adversarial targeting model (builder-style).
    #[must_use]
    pub fn adversarial(mut self) -> Self {
        self.model = ChurnModel::Adversarial;
        self
    }

    /// Pure edge churn: delete and insert the given fraction of edges.
    pub fn edges(frac: f64) -> Self {
        ChurnSpec { edge_delete_frac: frac, edge_insert_frac: frac, ..ChurnSpec::none() }
    }

    /// Node churn: the given fraction departs and arrives each phase,
    /// arrivals attaching with `arrival_degree` edges.
    pub fn nodes(frac: f64, arrival_degree: usize) -> Self {
        ChurnSpec {
            node_delete_frac: frac,
            node_insert_frac: frac,
            arrival_degree,
            ..ChurnSpec::none()
        }
    }

    /// Whether every intensity is zero. (`arrival_degree` does not
    /// matter: arrivals with degree 0 still add isolated nodes, which
    /// is churn.)
    pub fn is_none(&self) -> bool {
        self.edge_delete_frac == 0.0
            && self.edge_insert_frac == 0.0
            && self.node_delete_frac == 0.0
            && self.node_insert_frac == 0.0
    }

    /// Checks the churn intensities, the rule [`churn_delta`] applies
    /// before it draws anything, so that a caller can reject a bad spec
    /// before it runs anything.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidParameter`] if a delete fraction lies outside
    /// `[0, 1]` or an insert fraction is negative or not finite.
    pub fn validate(&self) -> Result<(), GraphError> {
        let in_unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
        let nonneg = |x: f64| x.is_finite() && x >= 0.0;
        if !in_unit(self.edge_delete_frac) || !in_unit(self.node_delete_frac) {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "churn delete fractions (edge {}, node {}) must lie in [0, 1]",
                    self.edge_delete_frac, self.node_delete_frac
                ),
            });
        }
        if !nonneg(self.edge_insert_frac) || !nonneg(self.node_insert_frac) {
            return Err(GraphError::InvalidParameter {
                reason: format!(
                    "churn insert fractions (edge {}, node {}) must be nonnegative and finite",
                    self.edge_insert_frac, self.node_insert_frac
                ),
            });
        }
        Ok(())
    }

    /// Stable identifier used in workload labels and content keys.
    pub fn label(&self) -> String {
        if self.is_none() {
            "static".to_string()
        } else {
            let adv = match self.model {
                ChurnModel::Uniform => "",
                ChurnModel::Adversarial => "!adv",
            };
            format!(
                "e-{}+{}/v-{}+{}x{}{adv}",
                self.edge_delete_frac,
                self.edge_insert_frac,
                self.node_delete_frac,
                self.node_insert_frac,
                self.arrival_degree
            )
        }
    }
}

/// Samples one churn batch for `g` from `spec`, deterministically in
/// `(g, spec, seed)`.
///
/// Counts are floors of the requested fractions, so light churn on tiny
/// graphs can round to a no-op delta. Departing nodes are drawn
/// uniformly without replacement, deleted edges uniformly among current
/// edges, inserted edges uniformly among node pairs (skipping pairs that
/// survive as edges, with a bounded retry budget on dense graphs), and
/// each arrival attaches to `arrival_degree` distinct uniform targets.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for out-of-range churn fractions.
///
/// # Example
///
/// ```
/// use sleepy_graph::{churn_delta, generators, ChurnSpec};
///
/// let g = generators::gnp(100, 0.05, 7).unwrap();
/// let spec = ChurnSpec::edges(0.1); // delete AND insert 10% of edges
/// let delta = churn_delta(&g, &spec, 3).unwrap();
/// assert_eq!(delta.remove_edges.len(), g.m() / 10);
/// // Deterministic in (g, spec, seed):
/// assert_eq!(delta, churn_delta(&g, &spec, 3).unwrap());
/// let mutated = delta.apply(&g).unwrap().graph;
/// assert_eq!(mutated.n(), g.n());
/// ```
pub fn churn_delta(g: &Graph, spec: &ChurnSpec, seed: u64) -> Result<GraphDelta, GraphError> {
    churn_delta_with_mis(g, spec, seed, None)
}

/// Partial Fisher–Yates: after the call, `items[..k]` is a uniform
/// draw of `k` distinct items.
fn partial_shuffle<T>(items: &mut [T], k: usize, rng: &mut SmallRng) {
    let len = items.len();
    for i in 0..k.min(len) {
        let j = rng.gen_range(i..len);
        items.swap(i, j);
    }
}

/// Draws `k` distinct items, exhausting the (shuffled) `targeted` pool
/// before falling back to the (shuffled) `rest` pool. A uniform draw
/// passes an empty `targeted` pool, which degenerates to a plain
/// partial Fisher–Yates over `rest`.
fn draw_preferring<T: Copy>(
    targeted: &mut [T],
    rest: &mut [T],
    k: usize,
    rng: &mut SmallRng,
) -> Vec<T> {
    let from_targeted = k.min(targeted.len());
    partial_shuffle(targeted, from_targeted, rng);
    let from_rest = (k - from_targeted).min(rest.len());
    partial_shuffle(rest, from_rest, rng);
    let mut chosen = Vec::with_capacity(from_targeted + from_rest);
    chosen.extend_from_slice(&targeted[..from_targeted]);
    chosen.extend_from_slice(&rest[..from_rest]);
    chosen
}

/// [`churn_delta`] with the current MIS membership, which the
/// [`ChurnModel::Adversarial`] model needs to aim its deletions:
/// departing nodes are drawn from current members first, deleted edges
/// from member-incident edges first. With `in_mis == None` (or the
/// uniform model) this is exactly [`churn_delta`]. Deterministic in
/// `(g, spec, seed, in_mis)`.
///
/// # Errors
///
/// [`GraphError::InvalidParameter`] for out-of-range churn fractions or
/// a membership slice whose length differs from `g.n()`.
pub fn churn_delta_with_mis(
    g: &Graph,
    spec: &ChurnSpec,
    seed: u64,
    in_mis: Option<&[bool]>,
) -> Result<GraphDelta, GraphError> {
    spec.validate()?;
    let n = g.n();
    let m = g.m();
    if let Some(set) = in_mis {
        if set.len() != n {
            return Err(GraphError::InvalidParameter {
                reason: format!("membership length {} != node count {n}", set.len()),
            });
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed);
    let adversarial = spec.model == ChurnModel::Adversarial && in_mis.is_some();
    let member = |v: NodeId| in_mis.map(|s| s[v as usize]).unwrap_or(false);

    // Departures: distinct nodes; the adversary drains MIS members first.
    let departures = ((spec.node_delete_frac * n as f64).floor() as usize).min(n);
    let (mut targeted_nodes, mut rest_nodes): (Vec<NodeId>, Vec<NodeId>) = if adversarial {
        (0..n as NodeId).partition(|&v| member(v))
    } else {
        (Vec::new(), (0..n as NodeId).collect())
    };
    let mut remove_nodes =
        draw_preferring(&mut targeted_nodes, &mut rest_nodes, departures, &mut rng);
    remove_nodes.sort_unstable();
    let mut departed = vec![false; n];
    for &v in &remove_nodes {
        departed[v as usize] = true;
    }

    // Edge deletions: distinct current edges (incident edges of
    // departing nodes vanish anyway; sampling ignores that overlap).
    // The adversary prefers edges a member is an endpoint of — exactly
    // the edges whose loss can leave a neighbor undominated.
    let deletions = ((spec.edge_delete_frac * m as f64).floor() as usize).min(m);
    let (mut targeted_edges, mut rest_edges): (Vec<_>, Vec<_>) = if adversarial {
        g.edges().partition(|&(u, v)| member(u) || member(v))
    } else {
        (Vec::new(), g.edges().collect())
    };
    let remove_edges = draw_preferring(&mut targeted_edges, &mut rest_edges, deletions, &mut rng);

    // Post-delta id space: survivors (compacted) then arrivals.
    let survivors = n - departures;
    let arrivals = (spec.node_insert_frac * n as f64).floor() as usize;
    let new_n = survivors + arrivals;
    let mut old_to_new = vec![NodeId::MAX; n];
    let mut next = 0 as NodeId;
    for v in 0..n {
        if !departed[v] {
            old_to_new[v] = next;
            next += 1;
        }
    }

    let mut add_edges: Vec<(NodeId, NodeId)> = Vec::new();
    // Edge insertions among the post-delta nodes. Skip pairs that
    // survive as edges (present in the old graph and not deleted this
    // batch) or were already inserted this batch, so the count of
    // distinct new edges matches the requested fraction; a bounded
    // retry budget keeps this O(count) in expectation and always
    // terminating on near-complete graphs.
    if new_n >= 2 {
        let insertions = (spec.edge_insert_frac * m as f64).floor() as usize;
        // Survivor new-id → old-id, to consult `has_edge` on the old graph.
        let mut new_to_old = vec![NodeId::MAX; survivors];
        for v in 0..n {
            if old_to_new[v] != NodeId::MAX {
                new_to_old[old_to_new[v] as usize] = v as NodeId;
            }
        }
        let deleted: std::collections::BTreeSet<(NodeId, NodeId)> =
            remove_edges.iter().copied().collect();
        let mut batch: std::collections::BTreeSet<(NodeId, NodeId)> =
            std::collections::BTreeSet::new();
        let mut budget = 12 * insertions + 64;
        let mut inserted = 0usize;
        while inserted < insertions && budget > 0 {
            budget -= 1;
            let u = rng.gen_range(0..new_n) as NodeId;
            let v = rng.gen_range(0..new_n) as NodeId;
            if u == v {
                continue;
            }
            let pair = if u < v { (u, v) } else { (v, u) };
            if batch.contains(&pair) {
                continue;
            }
            let survives = (u as usize) < survivors && (v as usize) < survivors && {
                let (ou, ov) = (new_to_old[u as usize], new_to_old[v as usize]);
                let old_pair = if ou < ov { (ou, ov) } else { (ov, ou) };
                g.has_edge(ou, ov) && !deleted.contains(&old_pair)
            };
            if survives {
                continue;
            }
            batch.insert(pair);
            add_edges.push(pair);
            inserted += 1;
        }
    }
    // Arrival attachment: each new node brings up to `arrival_degree`
    // distinct edges to uniformly random other nodes.
    for a in 0..arrivals {
        let v = (survivors + a) as NodeId;
        let others = new_n - 1;
        let degree = spec.arrival_degree.min(others);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(degree);
        while chosen.len() < degree {
            let t = rng.gen_range(0..new_n) as NodeId;
            if t != v && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for t in chosen {
            add_edges.push(if t < v { (t, v) } else { (v, t) });
        }
    }
    // Arrival attachments sample independently of the insertion batch
    // (and of each other across arrivals), so normalize: with every pair
    // already stored as (min, max), a sort + dedup makes add_edges a set
    // of distinct edges and keeps `add_edges.len()` an honest count of
    // the edges the delta actually materializes.
    add_edges.sort_unstable();
    add_edges.dedup();
    Ok(GraphDelta { remove_edges, remove_nodes, add_nodes: arrivals, add_edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn empty_delta_is_identity_with_identity_mapping() {
        let g = generators::gnp(40, 0.1, 3).unwrap();
        let out = GraphDelta::empty().apply(&g).unwrap();
        assert_eq!(out.graph, g);
        assert!(out.old_to_new.iter().enumerate().all(|(v, &new)| new == Some(v as NodeId)));
        assert!(GraphDelta::empty().is_empty());
    }

    #[test]
    fn edge_mutations() {
        let g = generators::cycle(5).unwrap();
        let delta = GraphDelta {
            remove_edges: vec![(1, 0), (4, 0)], // either orientation
            add_edges: vec![(0, 2)],
            ..GraphDelta::default()
        };
        let out = delta.apply(&g).unwrap();
        assert_eq!(out.graph.n(), 5);
        assert!(!out.graph.has_edge(0, 1));
        assert!(!out.graph.has_edge(0, 4));
        assert!(out.graph.has_edge(0, 2));
        assert_eq!(out.graph.m(), 4);
    }

    #[test]
    fn removing_absent_edge_is_a_no_op() {
        let g = generators::path(4).unwrap();
        let delta = GraphDelta { remove_edges: vec![(0, 3)], ..GraphDelta::default() };
        assert_eq!(delta.apply(&g).unwrap().graph, g);
    }

    #[test]
    fn node_departure_compacts_ids() {
        let g = generators::path(5).unwrap(); // 0-1-2-3-4
        let delta = GraphDelta { remove_nodes: vec![2], ..GraphDelta::default() };
        let out = delta.apply(&g).unwrap();
        assert_eq!(out.graph.n(), 4);
        assert_eq!(out.old_to_new, vec![Some(0), Some(1), None, Some(2), Some(3)]);
        // Surviving edges 0-1 and 3-4 map to 0-1 and 2-3.
        assert!(out.graph.has_edge(0, 1));
        assert!(out.graph.has_edge(2, 3));
        assert_eq!(out.graph.m(), 2);
    }

    #[test]
    fn arrivals_append_after_survivors() {
        let g = generators::path(3).unwrap();
        let delta = GraphDelta {
            remove_nodes: vec![0],
            add_nodes: 2,
            add_edges: vec![(2, 0), (3, 2)], // new-id space: survivors are 0,1
            ..GraphDelta::default()
        };
        let out = delta.apply(&g).unwrap();
        assert_eq!(out.graph.n(), 4);
        assert_eq!(out.old_to_new, vec![None, Some(0), Some(1)]);
        assert!(out.graph.has_edge(0, 2));
        assert!(out.graph.has_edge(2, 3));
    }

    #[test]
    fn apply_rejects_bad_ids() {
        let g = generators::path(3).unwrap();
        let bad_node = GraphDelta { remove_nodes: vec![7], ..GraphDelta::default() };
        assert!(matches!(bad_node.apply(&g), Err(GraphError::NodeOutOfRange { node: 7, .. })));
        let bad_edge = GraphDelta { add_edges: vec![(0, 9)], ..GraphDelta::default() };
        assert!(matches!(bad_edge.apply(&g), Err(GraphError::NodeOutOfRange { node: 9, .. })));
        let self_loop = GraphDelta { add_edges: vec![(1, 1)], ..GraphDelta::default() };
        assert!(matches!(self_loop.apply(&g), Err(GraphError::SelfLoop { node: 1 })));
        let bad_removal = GraphDelta { remove_edges: vec![(0, 5)], ..GraphDelta::default() };
        assert!(bad_removal.apply(&g).is_err());
    }

    #[test]
    fn delta_can_empty_the_graph() {
        let g = generators::clique(4).unwrap();
        let delta = GraphDelta { remove_nodes: vec![0, 1, 2, 3], ..GraphDelta::default() };
        let out = delta.apply(&g).unwrap();
        assert_eq!(out.graph.n(), 0);
        assert!(out.old_to_new.iter().all(Option::is_none));
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let g = generators::gnp(120, 0.05, 9).unwrap();
        let spec = ChurnSpec {
            edge_delete_frac: 0.1,
            edge_insert_frac: 0.1,
            node_delete_frac: 0.05,
            node_insert_frac: 0.05,
            arrival_degree: 3,
            ..ChurnSpec::none()
        };
        let a = churn_delta(&g, &spec, 7).unwrap();
        assert_eq!(a, churn_delta(&g, &spec, 7).unwrap());
        assert_ne!(a, churn_delta(&g, &spec, 8).unwrap());
        assert!(!a.is_empty());
        let out = a.apply(&g).unwrap();
        // 5% of 120 depart and arrive: node count is preserved.
        assert_eq!(out.graph.n(), 120);
    }

    #[test]
    fn churn_respects_intensities() {
        let g = generators::gnp(200, 0.08, 4).unwrap();
        let m = g.m();
        let spec = ChurnSpec::edges(0.25);
        let delta = churn_delta(&g, &spec, 3).unwrap();
        assert_eq!(delta.remove_nodes.len(), 0);
        assert_eq!(delta.add_nodes, 0);
        assert_eq!(delta.remove_edges.len(), m / 4);
        assert_eq!(delta.add_edges.len(), m / 4);
        // Deleted edges are real, distinct edges.
        for &(u, v) in &delta.remove_edges {
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn churn_none_is_empty() {
        let g = generators::gnp(50, 0.1, 2).unwrap();
        assert!(ChurnSpec::none().is_none());
        assert!(churn_delta(&g, &ChurnSpec::none(), 1).unwrap().is_empty());
        assert_eq!(ChurnSpec::none().label(), "static");
        assert!(ChurnSpec::nodes(0.1, 2).label().contains("x2"));
    }

    #[test]
    fn churn_on_degenerate_graphs() {
        let spec = ChurnSpec {
            edge_delete_frac: 0.5,
            edge_insert_frac: 0.5,
            node_delete_frac: 0.5,
            node_insert_frac: 0.5,
            arrival_degree: 2,
            ..ChurnSpec::none()
        };
        for n in 0..4 {
            let g = generators::empty(n).unwrap();
            let delta = churn_delta(&g, &spec, 1).unwrap();
            let out = delta.apply(&g).unwrap();
            // No panics, and the result stays within the sampled bounds.
            assert!(out.graph.n() <= n + n / 2 + 1);
        }
    }

    #[test]
    fn churn_rejects_bad_fractions() {
        let g = generators::path(5).unwrap();
        let bad = ChurnSpec { edge_delete_frac: 1.5, ..ChurnSpec::none() };
        assert!(churn_delta(&g, &bad, 0).is_err());
        let bad = ChurnSpec { node_delete_frac: -0.1, ..ChurnSpec::none() };
        assert!(churn_delta(&g, &bad, 0).is_err());
        let bad = ChurnSpec { edge_insert_frac: f64::NAN, ..ChurnSpec::none() };
        assert!(churn_delta(&g, &bad, 0).is_err());
        let bad = ChurnSpec { node_insert_frac: -2.0, ..ChurnSpec::none() };
        assert!(churn_delta(&g, &bad, 0).is_err());
    }

    /// Applies `delta` one event at a time, composing the id mappings.
    fn apply_stepped(g: &Graph, delta: &GraphDelta) -> (Graph, Vec<Option<NodeId>>) {
        let mut graph = g.clone();
        let mut mapping: Vec<Option<NodeId>> = (0..g.n() as NodeId).map(Some).collect();
        for event in delta.events() {
            let out = event.to_delta().apply(&graph).unwrap();
            for slot in mapping.iter_mut() {
                *slot = slot.and_then(|v| out.old_to_new[v as usize]);
            }
            graph = out.graph;
        }
        (graph, mapping)
    }

    #[test]
    fn event_decomposition_reproduces_batch_apply() {
        let g = generators::gnp(60, 0.08, 11).unwrap();
        let spec = ChurnSpec {
            edge_delete_frac: 0.2,
            edge_insert_frac: 0.2,
            node_delete_frac: 0.15,
            node_insert_frac: 0.15,
            arrival_degree: 2,
            ..ChurnSpec::none()
        };
        for seed in 0..8 {
            let delta = churn_delta(&g, &spec, seed).unwrap();
            let batch = delta.apply(&g).unwrap();
            let (stepped, mapping) = apply_stepped(&g, &delta);
            assert_eq!(stepped, batch.graph, "seed {seed}");
            assert_eq!(mapping, batch.old_to_new, "seed {seed}");
            assert_eq!(
                delta.events().len(),
                delta.remove_edges.len()
                    + delta.remove_nodes.len()
                    + delta.add_nodes
                    + delta.add_edges.len()
            );
        }
    }

    #[test]
    fn event_labels_and_deltas() {
        assert_eq!(DeltaEvent::RemoveEdge(0, 1).label(), "edge-del");
        assert_eq!(DeltaEvent::RemoveNode(0).label(), "node-dep");
        assert_eq!(DeltaEvent::AddNode.label(), "node-arr");
        assert_eq!(DeltaEvent::AddEdge(0, 1).label(), "edge-ins");
        assert_eq!(DeltaEvent::AddNode.to_delta().add_nodes, 1);
        assert!(DeltaEvent::RemoveNode(3).to_delta().remove_nodes == vec![3]);
    }

    #[test]
    fn adversarial_churn_targets_mis_members() {
        let g = generators::gnp(100, 0.06, 3).unwrap();
        // A deterministic greedy MIS to aim at.
        let mut in_mis = vec![false; g.n()];
        for v in 0..g.n() {
            if !g.neighbors(v as NodeId).iter().any(|&w| in_mis[w as usize]) {
                in_mis[v] = true;
            }
        }
        let members = in_mis.iter().filter(|&&b| b).count();
        let spec = ChurnSpec { node_delete_frac: 0.1, edge_delete_frac: 0.3, ..ChurnSpec::none() }
            .adversarial();
        let delta = churn_delta_with_mis(&g, &spec, 9, Some(&in_mis)).unwrap();
        // 10% of 100 departures, all drawn from the member pool (which
        // is larger than the draw on this instance).
        assert_eq!(delta.remove_nodes.len(), 10);
        assert!(members > 10, "test instance must have enough members");
        assert!(delta.remove_nodes.iter().all(|&v| in_mis[v as usize]));
        // Every deleted edge touches a member (member-incident edges
        // outnumber the draw: every edge with a dominated endpoint is
        // incident to some member's neighborhood — check the pool).
        let targeted = g.edges().filter(|&(u, v)| in_mis[u as usize] || in_mis[v as usize]).count();
        assert!(targeted >= delta.remove_edges.len());
        assert!(delta.remove_edges.iter().all(|&(u, v)| in_mis[u as usize] || in_mis[v as usize]));
        // Deterministic, and distinct from the uniform draw.
        assert_eq!(delta, churn_delta_with_mis(&g, &spec, 9, Some(&in_mis)).unwrap());
        let uniform =
            churn_delta(&g, &ChurnSpec { model: ChurnModel::Uniform, ..spec }, 9).unwrap();
        assert_ne!(delta, uniform);
        // Without membership the adversarial model degrades to uniform.
        assert_eq!(churn_delta(&g, &spec, 9).unwrap().remove_nodes.len(), 10);
        assert!(spec.label().ends_with("!adv"));
    }

    #[test]
    fn adversarial_draw_falls_back_once_members_exhausted() {
        // Star: 1 member (the center) but 30% of 11 nodes = 3 departures.
        let g = generators::star(11).unwrap();
        let mut in_mis = vec![false; 11];
        in_mis[0] = true;
        let spec = ChurnSpec { node_delete_frac: 0.3, ..ChurnSpec::none() }.adversarial();
        let delta = churn_delta_with_mis(&g, &spec, 2, Some(&in_mis)).unwrap();
        assert_eq!(delta.remove_nodes.len(), 3, "intensity must still be met");
        assert!(delta.remove_nodes.contains(&0), "the lone member goes first");
    }

    #[test]
    fn mismatched_membership_is_rejected() {
        let g = generators::path(5).unwrap();
        let spec = ChurnSpec::edges(0.5).adversarial();
        let short = vec![true; 3];
        assert!(matches!(
            churn_delta_with_mis(&g, &spec, 0, Some(&short)),
            Err(GraphError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn near_complete_graph_insertions_terminate() {
        // Insertion sampling must not spin when almost no non-edge exists.
        let g = generators::clique(12).unwrap();
        let spec = ChurnSpec { edge_insert_frac: 0.9, ..ChurnSpec::none() };
        let delta = churn_delta(&g, &spec, 5).unwrap();
        // Budget-bounded: fewer insertions than requested is acceptable.
        assert!(delta.add_edges.len() <= (0.9 * g.m() as f64) as usize);
        delta.apply(&g).unwrap();
    }
}
