//! In-place dynamic adjacency: a mutable graph whose single-event
//! mutations cost O(degree · log n) instead of the O(n + m) CSR rebuild
//! that [`GraphDelta::apply`](crate::GraphDelta::apply) pays.
//!
//! # Two id spaces
//!
//! [`DynGraph`] hands out **stable slot handles**: a node keeps its slot
//! for its whole life, so per-node state held outside the graph
//! (membership flags, scratch marks) never has to be remapped when some
//! *other* node departs. The CSR world — [`Graph`], [`DeltaOutcome`],
//! phase reports — instead uses **compact ids**: departures shift every
//! higher id down by one and arrivals append at the end
//! ([`DeltaOutcome::old_to_new`] semantics).
//!
//! The bridge between the two is an order-statistics index over node
//! *birth sequence numbers*: survivors keep their relative birth order
//! under compaction and arrivals are always the youngest, so a node's
//! compact id is exactly the rank of its birth among the living. A
//! Fenwick tree maintains those ranks in O(log n) per query and per
//! mutation — this is what makes node departure O(degree · log n)
//! rather than the O(n) renumbering a dense mapping table would need.
//!
//! [`DynGraph::snapshot`] materializes the CSR [`Graph`] (and counts
//! how often it is asked to — the *rebuild counter* that lets tests
//! assert an event loop never fell back to O(n + m) work), and
//! [`Graph::to_dyn`] converts the other way. Event application parity
//! with the delta path is pinned by a proptest: a [`DeltaEvent`]
//! sequence applied via [`DynGraph::apply_event`] snapshots to the same
//! graph as the sequential `event.to_delta().apply(..)` chain.
//!
//! [`DeltaOutcome`]: crate::DeltaOutcome
//! [`DeltaOutcome::old_to_new`]: crate::DeltaOutcome::old_to_new

use crate::dynamic::DeltaEvent;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use std::cell::Cell;

/// Fenwick (binary indexed) tree over birth-sequence positions holding
/// one bit per node: 1 while the node is alive, 0 after it departs.
/// Prefix sums give compact ids; a descending select gives the inverse.
#[derive(Debug, Clone)]
struct AliveRanks {
    /// 1-indexed Fenwick array; `tree[0]` is unused.
    tree: Vec<u32>,
}

impl AliveRanks {
    /// Ranks over `len` positions, all alive. Built in O(len).
    fn all_alive(len: usize) -> Self {
        let mut tree = vec![1u32; len + 1];
        tree[0] = 0;
        for i in 1..=len {
            let j = i + (i & i.wrapping_neg());
            if j <= len {
                tree[j] += tree[i];
            }
        }
        AliveRanks { tree }
    }

    /// Number of positions tracked.
    fn len(&self) -> usize {
        self.tree.len() - 1
    }

    /// Appends one alive position at the end in O(log len).
    fn push_alive(&mut self) {
        let i = self.tree.len();
        let lsb = i & i.wrapping_neg();
        // tree[i] covers positions (i - lsb, i]: the new bit plus the
        // already-known sum of the covered prefix.
        let covered = self.prefix1(i - 1) - self.prefix1(i - lsb);
        self.tree.push(1 + covered as u32);
    }

    /// Marks 0-based position `pos` dead.
    fn clear(&mut self, pos: usize) {
        let mut i = pos + 1;
        while i < self.tree.len() {
            self.tree[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// Alive count among 1-based positions `1..=i`.
    fn prefix1(&self, mut i: usize) -> usize {
        let mut sum = 0usize;
        while i > 0 {
            sum += self.tree[i] as usize;
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Alive count among 0-based positions `0..=pos`.
    fn alive_through(&self, pos: usize) -> usize {
        self.prefix1(pos + 1)
    }

    /// 0-based position of the `k`-th alive bit (`k >= 1`), i.e. the
    /// smallest position whose prefix count reaches `k`.
    fn select(&self, k: usize) -> usize {
        let len = self.len();
        let mut step = len.next_power_of_two();
        let mut pos = 0usize;
        let mut remaining = k;
        while step > 0 {
            let next = pos + step;
            if next <= len && (self.tree[next] as usize) < remaining {
                pos = next;
                remaining -= self.tree[next] as usize;
            }
            step >>= 1;
        }
        pos // 1-based answer is pos + 1; as 0-based it is pos
    }
}

/// A mutable, undirected, simple graph with O(degree · log n) single
/// mutations — the in-place counterpart of the immutable CSR [`Graph`].
///
/// Nodes are addressed by **slot handles** (stable across unrelated
/// mutations, reused after departure); the compacted id space that
/// [`Graph`] and [`DeltaOutcome::old_to_new`](crate::DeltaOutcome::old_to_new)
/// speak is reachable through [`compact_id`](DynGraph::compact_id) /
/// [`slot_at`](DynGraph::slot_at). See the [module docs](self) for why
/// the two spaces exist and how they correspond.
///
/// # Example
///
/// ```
/// use sleepy_graph::{generators, DeltaEvent};
///
/// let mut g = generators::path(4).unwrap().to_dyn(); // 0-1-2-3
/// g.apply_event(DeltaEvent::RemoveNode(1)).unwrap(); // compact ids shift
/// g.apply_event(DeltaEvent::AddEdge(0, 1)).unwrap(); // post-compaction ids
/// assert_eq!(g.n(), 3);
/// let csr = g.snapshot();
/// assert!(csr.has_edge(0, 1)); // old node 2, now compact id 1
/// assert_eq!(g.rebuild_count(), 1); // the snapshot above
/// ```
#[derive(Debug, Clone)]
pub struct DynGraph {
    /// Per-slot sorted neighbor lists (slot handles). Empty for dead
    /// slots; capacity is retained across reuse.
    adj: Vec<Vec<NodeId>>,
    /// Per-slot birth sequence number (its position in `slot_of_seq`).
    seq_of: Vec<usize>,
    /// Birth order: `slot_of_seq[s]` is the slot born `s`-th. A dead
    /// birth keeps its entry (its bit in `ranks` is simply 0).
    slot_of_seq: Vec<NodeId>,
    /// Alive bits over birth positions; prefix ranks are compact ids.
    ranks: AliveRanks,
    /// Per-slot liveness (O(1) handle validation).
    alive: Vec<bool>,
    /// Dead slots available for reuse, youngest death first.
    free: Vec<NodeId>,
    /// Alive node count.
    n: usize,
    /// Undirected edge count.
    m: usize,
    /// Times [`snapshot`](DynGraph::snapshot) materialized a CSR graph.
    snapshots: Cell<u64>,
}

impl DynGraph {
    /// A graph of `n` isolated nodes (slots `0..n`, compact ids equal).
    pub fn new(n: usize) -> Self {
        DynGraph {
            adj: vec![Vec::new(); n],
            seq_of: (0..n).collect(),
            slot_of_seq: (0..n as NodeId).collect(),
            ranks: AliveRanks::all_alive(n),
            alive: vec![true; n],
            free: Vec::new(),
            n,
            m: 0,
            snapshots: Cell::new(0),
        }
    }

    /// Converts a CSR graph; slot `v` starts out as compact id `v`.
    pub fn from_graph(g: &Graph) -> Self {
        let mut dyn_g = DynGraph::new(g.n());
        for v in g.node_ids() {
            dyn_g.adj[v as usize] = g.neighbors(v).to_vec();
        }
        dyn_g.m = g.m();
        dyn_g
    }

    /// Alive node count.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Undirected edge count.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Slot-space size: every slot handle is `< capacity()`. Size
    /// slot-indexed scratch arrays (marks, membership) to this.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.adj.len()
    }

    /// Whether `slot` currently holds a living node.
    #[inline]
    pub fn is_alive(&self, slot: NodeId) -> bool {
        self.alive.get(slot as usize).copied().unwrap_or(false)
    }

    /// Degree of the node in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not alive.
    #[inline]
    pub fn degree(&self, slot: NodeId) -> usize {
        assert!(self.is_alive(slot), "slot {slot} is not alive");
        self.adj[slot as usize].len()
    }

    /// Neighbor slots of `slot`, sorted by slot handle.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not alive.
    #[inline]
    pub fn neighbors(&self, slot: NodeId) -> &[NodeId] {
        assert!(self.is_alive(slot), "slot {slot} is not alive");
        &self.adj[slot as usize]
    }

    /// Whether the edge `{a, b}` (slot handles) exists.
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        if a == b || !self.is_alive(a) || !self.is_alive(b) {
            return false;
        }
        let (s, t) =
            if self.adj[a as usize].len() <= self.adj[b as usize].len() { (a, b) } else { (b, a) };
        self.adj[s as usize].binary_search(&t).is_ok()
    }

    /// Adds an isolated node in O(log n), returning its slot (a reused
    /// dead slot when one exists). Its compact id is `n() - 1`: compact
    /// ids order nodes by birth, so the newcomer is always last.
    pub fn add_node(&mut self) -> NodeId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.adj.push(Vec::new());
                self.seq_of.push(0); // overwritten below
                self.alive.push(false); // flipped below
                (self.adj.len() - 1) as NodeId
            }
        };
        self.seq_of[slot as usize] = self.slot_of_seq.len();
        self.slot_of_seq.push(slot);
        self.ranks.push_alive();
        self.alive[slot as usize] = true;
        self.n += 1;
        slot
    }

    /// Removes the node in `slot` and all incident edges, in
    /// O(Σ degree(neighbor) + log n). Compact ids above the departed
    /// node's shift down by one; slot handles are untouched.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not alive.
    pub fn remove_node(&mut self, slot: NodeId) {
        assert!(self.is_alive(slot), "slot {slot} is not alive");
        let nbrs = std::mem::take(&mut self.adj[slot as usize]);
        for &w in &nbrs {
            let list = &mut self.adj[w as usize];
            let at = list.binary_search(&slot).expect("adjacency is symmetric");
            list.remove(at);
        }
        self.m -= nbrs.len();
        // Hand the (now empty) allocation back to the slot so a future
        // arrival reusing it starts with capacity.
        let mut empty = nbrs;
        empty.clear();
        self.adj[slot as usize] = empty;
        self.ranks.clear(self.seq_of[slot as usize]);
        self.alive[slot as usize] = false;
        self.free.push(slot);
        self.n -= 1;
    }

    /// Inserts the edge `{a, b}` (slot handles) in O(degree), returning
    /// `false` if it already existed (duplicates collapse, exactly as
    /// [`Graph::from_edges`] collapses them).
    ///
    /// # Panics
    ///
    /// Panics on a self loop or a dead endpoint.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert_ne!(a, b, "self loops are not representable");
        assert!(self.is_alive(a) && self.is_alive(b), "edge endpoints must be alive");
        match self.adj[a as usize].binary_search(&b) {
            Ok(_) => false,
            Err(at_a) => {
                self.adj[a as usize].insert(at_a, b);
                let at_b =
                    self.adj[b as usize].binary_search(&a).expect_err("adjacency is symmetric");
                self.adj[b as usize].insert(at_b, a);
                self.m += 1;
                true
            }
        }
    }

    /// Deletes the edge `{a, b}` (slot handles) in O(degree), returning
    /// `false` if it was absent (a no-op, matching the delta path).
    ///
    /// # Panics
    ///
    /// Panics on a dead endpoint.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(self.is_alive(a) && self.is_alive(b), "edge endpoints must be alive");
        if a == b {
            return false;
        }
        match self.adj[a as usize].binary_search(&b) {
            Err(_) => false,
            Ok(at_a) => {
                self.adj[a as usize].remove(at_a);
                let at_b = self.adj[b as usize].binary_search(&a).expect("adjacency is symmetric");
                self.adj[b as usize].remove(at_b);
                self.m -= 1;
                true
            }
        }
    }

    /// The compact id of the node in `slot`, in O(log n): its rank by
    /// birth among the living — exactly the id the node has in
    /// [`snapshot`](DynGraph::snapshot) and in the composed
    /// [`DeltaOutcome::old_to_new`](crate::DeltaOutcome::old_to_new)
    /// mapping of the event sequence applied so far.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is not alive.
    pub fn compact_id(&self, slot: NodeId) -> NodeId {
        assert!(self.is_alive(slot), "slot {slot} is not alive");
        (self.ranks.alive_through(self.seq_of[slot as usize]) - 1) as NodeId
    }

    /// The slot currently holding compact id `id`, in O(log n) — the
    /// inverse of [`compact_id`](DynGraph::compact_id).
    ///
    /// # Panics
    ///
    /// Panics if `id >= n()`.
    pub fn slot_at(&self, id: NodeId) -> NodeId {
        assert!((id as usize) < self.n, "compact id {id} out of range for {} nodes", self.n);
        self.slot_of_seq[self.ranks.select(id as usize + 1)]
    }

    /// Fills `out` (slot-indexed, resized to [`capacity`](DynGraph::capacity))
    /// with every living slot's compact id, [`NodeId::MAX`] for dead
    /// slots. O(births) — cheaper than n [`compact_id`](DynGraph::compact_id)
    /// calls when the whole mapping is needed at once.
    pub fn fill_compact_ids(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.resize(self.capacity(), NodeId::MAX);
        let mut next = 0 as NodeId;
        for (seq, &slot) in self.slot_of_seq.iter().enumerate() {
            // A birth is alive iff its slot still points back at it
            // (reuse bumps `seq_of`) and the slot itself is alive.
            if self.seq_of[slot as usize] == seq && self.alive[slot as usize] {
                out[slot as usize] = next;
                next += 1;
            }
        }
        debug_assert_eq!(next as usize, self.n);
    }

    /// Materializes the CSR [`Graph`] in compact-id order, through
    /// [`Graph::from_edges`]'s counting build. This is the **rebuild
    /// counter** hot spot: every call
    /// increments [`rebuild_count`](DynGraph::rebuild_count), so a test
    /// can assert that an event-absorption loop never paid for one.
    pub fn snapshot(&self) -> Graph {
        self.snapshot_with_ids().0
    }

    /// [`snapshot`](DynGraph::snapshot) plus the slot-indexed compact-id
    /// mapping it was built from (the [`fill_compact_ids`] layout), in
    /// one pass — for callers that project slot-indexed state into the
    /// snapshot's id space and would otherwise recompute the mapping.
    /// Counts as one rebuild.
    ///
    /// [`fill_compact_ids`]: DynGraph::fill_compact_ids
    pub fn snapshot_with_ids(&self) -> (Graph, Vec<NodeId>) {
        self.snapshots.set(self.snapshots.get() + 1);
        let mut compact = Vec::new();
        self.fill_compact_ids(&mut compact);
        let mut edges = Vec::with_capacity(self.m);
        for (slot, nbrs) in self.adj.iter().enumerate() {
            let cu = compact[slot];
            if cu == NodeId::MAX {
                continue;
            }
            for &w in nbrs {
                let cw = compact[w as usize];
                if cu < cw {
                    edges.push((cu, cw));
                }
            }
        }
        let graph =
            Graph::from_edges(self.n, edges).expect("dynamic adjacency is a valid simple graph");
        (graph, compact)
    }

    /// How many times [`snapshot`](DynGraph::snapshot) has materialized
    /// a CSR graph — O(n + m) work an incremental event loop must never
    /// do per event.
    pub fn rebuild_count(&self) -> u64 {
        self.snapshots.get()
    }

    /// Applies one [`DeltaEvent`] in place, with the event's node ids
    /// read in the **compact** space current at the call — the same
    /// contract as applying `event.to_delta()` to the CSR graph, with
    /// the same validation and the same duplicate/absent-edge no-op
    /// semantics, but in O(degree · log n) instead of O(n + m).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] / [`GraphError::SelfLoop`] exactly
    /// when `event.to_delta().apply(..)` would return them.
    ///
    /// # Example
    ///
    /// ```
    /// use sleepy_graph::{generators, DeltaEvent, GraphDelta};
    ///
    /// let csr = generators::gnp(40, 0.1, 7).unwrap();
    /// let mut dyn_g = csr.to_dyn();
    /// let delta = GraphDelta { remove_nodes: vec![3, 11], add_nodes: 1,
    ///     ..GraphDelta::default() };
    /// for event in delta.events() {
    ///     dyn_g.apply_event(event).unwrap();
    /// }
    /// assert_eq!(dyn_g.snapshot(), delta.apply(&csr).unwrap().graph);
    /// ```
    pub fn apply_event(&mut self, event: DeltaEvent) -> Result<(), GraphError> {
        match event {
            DeltaEvent::RemoveEdge(u, v) => {
                self.check_compact(u)?;
                self.check_compact(v)?;
                if u != v {
                    let (a, b) = (self.slot_at(u), self.slot_at(v));
                    self.remove_edge(a, b);
                }
            }
            DeltaEvent::RemoveNode(v) => {
                self.check_compact(v)?;
                let slot = self.slot_at(v);
                self.remove_node(slot);
            }
            DeltaEvent::AddNode => {
                self.add_node();
            }
            DeltaEvent::AddEdge(u, v) => {
                self.check_compact(u)?;
                self.check_compact(v)?;
                if u == v {
                    return Err(GraphError::SelfLoop { node: u });
                }
                let (a, b) = (self.slot_at(u), self.slot_at(v));
                self.add_edge(a, b);
            }
        }
        Ok(())
    }

    /// Range-validates a compact id exactly the way the delta path
    /// ([`GraphDelta::apply`](crate::GraphDelta::apply)) does — the one
    /// definition of that rule, shared by [`apply_event`]
    /// (DynGraph::apply_event) and external event loops that must keep
    /// error parity with it.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfRange`] if `id >= n()`.
    ///
    /// [`apply_event`]: DynGraph::apply_event
    pub fn check_compact(&self, id: NodeId) -> Result<(), GraphError> {
        if (id as usize) >= self.n {
            return Err(GraphError::NodeOutOfRange { node: id as u64, n: self.n });
        }
        Ok(())
    }
}

impl Graph {
    /// This graph as an in-place-mutable [`DynGraph`] (slot `v` starts
    /// out as compact id `v`). See the [module docs](crate::dyngraph)
    /// for the id-space correspondence.
    ///
    /// # Example
    ///
    /// ```
    /// use sleepy_graph::generators;
    ///
    /// let g = generators::cycle(6).unwrap();
    /// let mut d = g.to_dyn();
    /// assert_eq!(d.n(), 6);
    /// d.remove_edge(0, 1);
    /// assert_eq!(d.m(), g.m() - 1);
    /// assert!(!d.snapshot().has_edge(0, 1));
    /// ```
    pub fn to_dyn(&self) -> DynGraph {
        DynGraph::from_graph(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::GraphDelta;
    use crate::generators;

    #[test]
    fn roundtrip_is_identity() {
        let g = generators::gnp(60, 0.08, 3).unwrap();
        let d = g.to_dyn();
        assert_eq!(d.n(), g.n());
        assert_eq!(d.m(), g.m());
        assert_eq!(d.snapshot(), g);
        assert_eq!(d.rebuild_count(), 1);
    }

    #[test]
    fn edge_mutations_are_exact_and_idempotent() {
        let g = generators::cycle(5).unwrap();
        let mut d = g.to_dyn();
        assert!(d.remove_edge(0, 1));
        assert!(!d.remove_edge(0, 1), "absent edge removal is a no-op");
        assert!(d.add_edge(0, 2));
        assert!(!d.add_edge(2, 0), "duplicate insertion collapses");
        assert!(d.has_edge(0, 2));
        assert!(!d.has_edge(0, 1));
        assert_eq!(d.m(), 5);
        let expected = GraphDelta {
            remove_edges: vec![(0, 1)],
            add_edges: vec![(0, 2)],
            ..GraphDelta::default()
        };
        assert_eq!(d.snapshot(), expected.apply(&g).unwrap().graph);
    }

    #[test]
    fn departure_shifts_compact_ids_but_not_slots() {
        let g = generators::path(5).unwrap(); // 0-1-2-3-4
        let mut d = g.to_dyn();
        d.remove_node(2);
        assert_eq!(d.n(), 4);
        assert!(!d.is_alive(2));
        // Slots 3 and 4 keep their handles but compact down by one.
        assert_eq!(d.compact_id(3), 2);
        assert_eq!(d.compact_id(4), 3);
        assert_eq!(d.compact_id(0), 0);
        assert_eq!(d.slot_at(2), 3);
        assert_eq!(d.slot_at(3), 4);
        // Same graph as the delta path.
        let delta = GraphDelta { remove_nodes: vec![2], ..GraphDelta::default() };
        assert_eq!(d.snapshot(), delta.apply(&g).unwrap().graph);
    }

    #[test]
    fn arrivals_reuse_slots_but_compact_last() {
        let mut d = DynGraph::new(3);
        d.remove_node(0);
        let slot = d.add_node();
        assert_eq!(slot, 0, "dead slot is reused");
        assert_eq!(d.n(), 3);
        // The reborn node is the youngest: compact id n - 1.
        assert_eq!(d.compact_id(0), 2);
        assert_eq!(d.compact_id(1), 0);
        assert_eq!(d.compact_id(2), 1);
        assert_eq!(d.slot_at(2), 0);
        let fresh = d.add_node();
        assert_eq!(fresh, 3, "no free slot left: slot space grows");
        assert_eq!(d.capacity(), 4);
        assert_eq!(d.compact_id(fresh), 3);
    }

    #[test]
    fn fill_compact_ids_matches_pointwise_queries() {
        let mut d = DynGraph::new(8);
        d.remove_node(1);
        d.remove_node(5);
        d.add_node(); // reuses slot 5
        let mut ids = Vec::new();
        d.fill_compact_ids(&mut ids);
        assert_eq!(ids.len(), d.capacity());
        for slot in 0..d.capacity() as NodeId {
            if d.is_alive(slot) {
                assert_eq!(ids[slot as usize], d.compact_id(slot), "slot {slot}");
                assert_eq!(d.slot_at(ids[slot as usize]), slot, "slot {slot}");
            } else {
                assert_eq!(ids[slot as usize], NodeId::MAX);
            }
        }
    }

    #[test]
    fn apply_event_validation_matches_delta_path() {
        let g = generators::path(3).unwrap();
        let mut d = g.to_dyn();
        for (event, csr_err) in [
            (DeltaEvent::RemoveNode(7), GraphDelta { remove_nodes: vec![7], ..Default::default() }),
            (
                DeltaEvent::AddEdge(0, 9),
                GraphDelta { add_edges: vec![(0, 9)], ..Default::default() },
            ),
            (
                DeltaEvent::AddEdge(1, 1),
                GraphDelta { add_edges: vec![(1, 1)], ..Default::default() },
            ),
            (
                DeltaEvent::RemoveEdge(0, 5),
                GraphDelta { remove_edges: vec![(0, 5)], ..Default::default() },
            ),
        ] {
            let expect = csr_err.apply(&g).unwrap_err();
            assert_eq!(d.apply_event(event).unwrap_err(), expect, "{event:?}");
        }
        // Valid events still apply after the failed attempts.
        d.apply_event(DeltaEvent::RemoveEdge(0, 1)).unwrap();
        assert_eq!(d.m(), 1);
    }

    #[test]
    fn event_sequence_matches_sequential_csr_applies() {
        // A hand-built mixed sequence crossing every event kind,
        // including a departure that shifts ids *under* later events.
        let g = generators::gnp(30, 0.12, 9).unwrap();
        let events = vec![
            DeltaEvent::RemoveNode(4),
            DeltaEvent::AddNode,
            DeltaEvent::AddEdge(0, 29), // the arrival, post-compaction id
            DeltaEvent::RemoveEdge(1, 2),
            DeltaEvent::RemoveNode(17),
            DeltaEvent::AddEdge(3, 5),
            DeltaEvent::AddNode,
            DeltaEvent::RemoveEdge(3, 5),
        ];
        let mut csr = g.clone();
        let mut dyn_g = g.to_dyn();
        for &event in &events {
            csr = event.to_delta().apply(&csr).unwrap().graph;
            dyn_g.apply_event(event).unwrap();
            assert_eq!(dyn_g.n(), csr.n());
            assert_eq!(dyn_g.m(), csr.m());
        }
        assert_eq!(dyn_g.snapshot(), csr);
    }

    #[test]
    fn empty_and_degenerate_graphs() {
        let mut d = DynGraph::new(0);
        assert_eq!(d.n(), 0);
        assert_eq!(d.capacity(), 0);
        let s = d.add_node();
        assert_eq!(d.compact_id(s), 0);
        d.remove_node(s);
        assert_eq!(d.n(), 0);
        assert_eq!(d.snapshot().n(), 0);
        assert!(matches!(
            d.apply_event(DeltaEvent::RemoveNode(0)),
            Err(GraphError::NodeOutOfRange { node: 0, n: 0 })
        ));
    }

    #[test]
    fn clone_keeps_independent_state() {
        let mut a = generators::clique(4).unwrap().to_dyn();
        let b = a.clone();
        a.remove_node(0);
        assert_eq!(a.n(), 3);
        assert_eq!(b.n(), 4);
        assert_eq!(b.snapshot(), generators::clique(4).unwrap());
    }
}
