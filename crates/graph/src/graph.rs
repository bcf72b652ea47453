//! The CSR-backed undirected simple graph.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// Dense node identifier. Nodes of an `n`-node graph are `0..n as NodeId`.
pub type NodeId = u32;

/// Local port number of a node: `0..degree(v)`. Port `p` of node `v` is
/// attached to the edge leading to the p-th smallest neighbor of `v`.
pub type Port = usize;

/// An immutable, undirected, simple graph in compressed sparse row form.
///
/// Neighbor lists are sorted ascending, which fixes the CONGEST port
/// numbering: port `p` of `v` leads to `neighbors(v)[p]`.
///
/// Construct with [`Graph::from_edges`], [`GraphBuilder`](crate::GraphBuilder)
/// or one of the [`generators`](crate::generators).
///
/// # Example
///
/// ```
/// use sleepy_graph::Graph;
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
/// assert_eq!(g.n(), 4);
/// assert_eq!(g.m(), 4);
/// assert!(g.has_edge(0, 3));
/// assert!(!g.has_edge(0, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    n: usize,
    /// CSR offsets; `offsets[v]..offsets[v + 1]` indexes `adj`.
    offsets: Vec<usize>,
    /// Concatenated sorted neighbor lists.
    adj: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph with `n` nodes from an edge iterator.
    ///
    /// Duplicate edges (in either orientation) are collapsed. Edge order does
    /// not affect the result.
    ///
    /// A counting build in O(n + m + Σ d log d) for m input pairs and
    /// final degrees d: both endpoints of each pair are counted, each pair
    /// is scattered into per-node slots, and each node's short list is
    /// sorted and deduplicated in place.
    ///
    /// # Errors
    ///
    /// Pairs are checked in iteration order; the first bad one names the
    /// error.
    ///
    /// * [`GraphError::TooManyNodes`] if `n` exceeds the `u32` index space.
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if an edge connects a node to itself.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (NodeId, NodeId)>,
    {
        if n > u32::MAX as usize {
            return Err(GraphError::TooManyNodes { n });
        }
        let edges = edges.into_iter();
        let mut pairs: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.size_hint().0);
        // `offsets[v]` first counts v's endpoints, then (as a prefix sum)
        // marks the end of v's slots, and is the fill cursor that the
        // scatter moves down to the start of v's slots.
        let mut offsets = vec![0usize; n + 1];
        for (u, v) in edges {
            if u as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: u as u64, n });
            }
            if v as usize >= n {
                return Err(GraphError::NodeOutOfRange { node: v as u64, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            offsets[u as usize] += 1;
            offsets[v as usize] += 1;
            pairs.push((u, v));
        }
        let mut acc = 0usize;
        for slot in &mut offsets {
            acc += *slot;
            *slot = acc;
        }
        let mut adj = vec![0 as NodeId; acc];
        for &(u, v) in &pairs {
            offsets[u as usize] -= 1;
            adj[offsets[u as usize]] = v;
            offsets[v as usize] -= 1;
            adj[offsets[v as usize]] = u;
        }
        drop(pairs);
        // Sort each node's slots and move its distinct neighbors down to
        // `len`, which never passes the slot being read.
        let mut len = 0usize;
        for v in 0..n {
            let slots = offsets[v]..offsets[v + 1];
            offsets[v] = len;
            adj[slots.clone()].sort_unstable();
            for i in slots {
                if len == offsets[v] || adj[len - 1] != adj[i] {
                    adj[len] = adj[i];
                    len += 1;
                }
            }
        }
        offsets[n] = len;
        adj.truncate(len);
        adj.shrink_to_fit();
        Ok(Graph { n, offsets, adj })
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Sorted neighbor list of `v`. Port `p` of `v` leads to `neighbors(v)[p]`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[self.adj_range(v)]
    }

    /// Where `v`'s neighbor list sits in the concatenated adjacency
    /// (`0..2m`, node-major): port `p` of `v` is entry `start + p`. An
    /// array with one entry per directed edge can use the same layout.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn adj_range(&self, v: NodeId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// The neighbor reached through port `p` of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n` or `p >= degree(v)`.
    #[inline]
    pub fn endpoint(&self, v: NodeId, p: Port) -> NodeId {
        self.neighbors(v)[p]
    }

    /// The port of `v` whose edge leads to `u`, if `{u, v}` is an edge.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors(v).binary_search(&u).ok()
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        // Search from the lower-degree endpoint.
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n as NodeId
    }

    /// Iterator over all undirected edges as `(u, v)` with `u < v`,
    /// in lexicographic order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.n as NodeId).flat_map(move |u| {
            self.neighbors(u).iter().copied().filter(move |&v| u < v).map(move |v| (u, v))
        })
    }

    /// Maximum degree Δ, or 0 for the empty graph.
    pub fn max_degree(&self) -> usize {
        (0..self.n as NodeId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Summary degree statistics.
    pub fn degree_stats(&self) -> DegreeStats {
        if self.n == 0 {
            return DegreeStats { min: 0, max: 0, mean: 0.0, isolated: 0 };
        }
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut isolated = 0usize;
        for v in 0..self.n as NodeId {
            let d = self.degree(v);
            min = min.min(d);
            max = max.max(d);
            if d == 0 {
                isolated += 1;
            }
        }
        DegreeStats { min, max, mean: 2.0 * self.m() as f64 / self.n as f64, isolated }
    }

    /// Builds the subgraph induced by `keep` (where `keep[v]` marks kept
    /// nodes), returning the subgraph together with the mapping from new
    /// ids to original ids.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != n`.
    pub fn induced_subgraph(&self, keep: &[bool]) -> (Graph, Vec<NodeId>) {
        assert_eq!(keep.len(), self.n, "keep mask length must equal n");
        let mut new_id = vec![NodeId::MAX; self.n];
        let mut orig = Vec::new();
        for v in 0..self.n {
            if keep[v] {
                new_id[v] = orig.len() as NodeId;
                orig.push(v as NodeId);
            }
        }
        let mut edges = Vec::new();
        for &(u, v) in self.edges().collect::<Vec<_>>().iter() {
            if keep[u as usize] && keep[v as usize] {
                edges.push((new_id[u as usize], new_id[v as usize]));
            }
        }
        let g = Graph::from_edges(orig.len(), edges).expect("induced subgraph edges are valid");
        (g, orig)
    }
}

/// Degree summary returned by [`Graph::degree_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree Δ.
    pub max: usize,
    /// Mean degree 2m/n.
    pub mean: f64,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = k4();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 6);
        assert_eq!(g.max_degree(), 3);
        for v in 0..4 {
            assert_eq!(g.degree(v), 3);
        }
    }

    #[test]
    fn neighbors_sorted_and_ports_consistent() {
        let g = Graph::from_edges(5, [(3, 1), (3, 0), (3, 4), (3, 2)]).unwrap();
        assert_eq!(g.neighbors(3), &[0, 1, 2, 4]);
        for p in 0..g.degree(3) {
            let u = g.endpoint(3, p);
            assert_eq!(g.port_to(3, u), Some(p));
        }
        assert_eq!(g.port_to(3, 3), None);
        assert_eq!(g.port_to(0, 1), None);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn rejects_self_loop() {
        assert_eq!(Graph::from_edges(3, [(1, 1)]).unwrap_err(), GraphError::SelfLoop { node: 1 });
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(matches!(
            Graph::from_edges(3, [(0, 7)]).unwrap_err(),
            GraphError::NodeOutOfRange { node: 7, n: 3 }
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, []).unwrap();
        assert_eq!(g.n(), 0);
        assert_eq!(g.m(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.edges().count(), 0);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = Graph::from_edges(5, [(0, 1)]).unwrap();
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.degree_stats().isolated, 3);
        assert!(g.neighbors(4).is_empty());
    }

    #[test]
    fn has_edge_symmetric() {
        let g = k4();
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(g.has_edge(u, v), g.has_edge(v, u));
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn edges_iterator_lexicographic() {
        let g = k4();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn induced_subgraph_drops_edges() {
        let g = k4();
        let (sub, orig) = g.induced_subgraph(&[true, false, true, true]);
        assert_eq!(sub.n(), 3);
        assert_eq!(sub.m(), 3); // triangle on {0,2,3}
        assert_eq!(orig, vec![0, 2, 3]);
    }

    #[test]
    fn degree_stats_mean() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2)]).unwrap();
        let s = g.degree_stats();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 2);
        assert!((s.mean - 1.0).abs() < 1e-12);
        assert_eq!(s.isolated, 1);
    }
}
