//! Identity gates for graph construction. `Graph::from_edges` must build
//! the CSR the sort-and-dedup builder built, and must reject a bad edge
//! with the same error; every generator must build the graph whose
//! digest was pinned on the sort-based builder and the two-pass
//! geometric scan.

use proptest::prelude::*;
use sleepy_graph::{Graph, GraphError, GraphFamily, NodeId};

/// A graph's CSR, read back through the public API: the offsets
/// (`n + 1` entries) and the concatenated neighbor lists.
fn csr(g: &Graph) -> (Vec<usize>, Vec<NodeId>) {
    let mut offsets = vec![0];
    let mut adj = Vec::new();
    for v in g.node_ids() {
        adj.extend_from_slice(g.neighbors(v));
        offsets.push(adj.len());
    }
    (offsets, adj)
}

/// The builder `Graph::from_edges` used before its counting build, as
/// the oracle: validate each pair in iteration order, normalise it to
/// `(min, max)`, sort and dedup all pairs, then scatter them into the
/// CSR in pair order.
fn sorting_builder(
    n: usize,
    edges: &[(NodeId, NodeId)],
) -> Result<(Vec<usize>, Vec<NodeId>), GraphError> {
    if n > u32::MAX as usize {
        return Err(GraphError::TooManyNodes { n });
    }
    let mut pairs = Vec::new();
    for &(u, v) in edges {
        if u as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: u as u64, n });
        }
        if v as usize >= n {
            return Err(GraphError::NodeOutOfRange { node: v as u64, n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        pairs.push((u.min(v), u.max(v)));
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut offsets = vec![0usize; n + 1];
    for &(a, b) in &pairs {
        offsets[a as usize + 1] += 1;
        offsets[b as usize + 1] += 1;
    }
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    let mut adj = vec![0; offsets[n]];
    let mut cursor = offsets[..n].to_vec();
    for &(a, b) in &pairs {
        adj[cursor[a as usize]] = b;
        cursor[a as usize] += 1;
        adj[cursor[b as usize]] = a;
        cursor[b as usize] += 1;
    }
    Ok((offsets, adj))
}

/// A deterministic shuffle driven by `key`, so a case's edge order is
/// part of the case.
fn shuffle<T>(items: &mut [T], mut key: u64) {
    for i in (1..items.len()).rev() {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        items.swap(i, (key >> 33) as usize % (i + 1));
    }
}

/// `(n, edges, key)`: a shuffled multiset of valid edges among the
/// first nodes of an `n`-node graph (the rest stay isolated), each edge
/// given one to three times in either orientation, and a key that picks
/// the fault position in the rejection property.
fn arb_multiset() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>, u64)> {
    (2usize..90, 0usize..12).prop_flat_map(|(used, isolated)| {
        let edge = (0..used as NodeId, 1..used as NodeId, 0u8..6);
        (proptest::collection::vec(edge, 0..4 * used), any::<u64>()).prop_map(move |(raw, key)| {
            let mut edges = Vec::new();
            for (u, step, copies) in raw {
                // A step in 1..used keeps v != u.
                let v = (u + step) % used as NodeId;
                for c in 0..=copies / 2 {
                    edges.push(if (copies + c) % 2 == 0 { (u, v) } else { (v, u) });
                }
            }
            shuffle(&mut edges, key);
            (used + isolated, edges, key)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_edges_builds_the_sorting_builders_csr((n, edges, _key) in arb_multiset()) {
        let g = Graph::from_edges(n, edges.iter().copied()).unwrap();
        prop_assert_eq!(csr(&g), sorting_builder(n, &edges).unwrap());
        // The same multiset in another order builds the same graph.
        let mut reversed = edges.clone();
        reversed.reverse();
        prop_assert_eq!(Graph::from_edges(n, reversed).unwrap(), g);
    }

    #[test]
    fn from_edges_rejects_a_bad_edge_as_the_sorting_builder_does(
        (n, mut edges, key) in arb_multiset(),
        kind in 0u8..4,
        far in 0u32..3,
    ) {
        let node = (key >> 8) as NodeId % n as NodeId;
        let out = n as NodeId + far;
        let bad = match kind {
            0 => (node, node),
            1 => (out, node),
            2 => (node, out),
            _ => (out, out + 1),
        };
        edges.insert(key as usize % (edges.len() + 1), bad);
        let want = sorting_builder(n, &edges).unwrap_err();
        prop_assert_eq!(Graph::from_edges(n, edges).unwrap_err(), want);
    }
}

#[test]
fn the_first_bad_edge_in_iteration_order_names_the_error() {
    let edges = [(0, 1), (2, 2), (0, 9), (1, 0)];
    assert_eq!(Graph::from_edges(4, edges).unwrap_err(), GraphError::SelfLoop { node: 2 });
    let edges = [(0, 1), (7, 2), (2, 2)];
    assert_eq!(
        Graph::from_edges(4, edges).unwrap_err(),
        GraphError::NodeOutOfRange { node: 7, n: 4 }
    );
    // Too many nodes is checked before a single pair is read.
    let n = u32::MAX as usize + 1;
    assert_eq!(Graph::from_edges(n, [(0, 0)]).unwrap_err(), GraphError::TooManyNodes { n });
}

/// FNV-1a-64 over the CSR: each offset as 8 little-endian bytes, then
/// each adjacency entry as 4.
fn digest(g: &Graph) -> u64 {
    let (offsets, adj) = csr(g);
    let bytes = offsets
        .iter()
        .flat_map(|&o| (o as u64).to_le_bytes())
        .chain(adj.iter().flat_map(|a| a.to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Every `GraphFamily` variant, with the parameters of the fleet
/// defaults and perfbench, plus a geometric degree below π, where the
/// cell grid is capped at ⌊√n⌋ cells per side.
const FAMILIES: [GraphFamily; 14] = [
    GraphFamily::GnpAvgDeg(8.0),
    GraphFamily::GnpLogDensity(1.5),
    GraphFamily::RandomRegular(4),
    GraphFamily::GeometricAvgDeg(8.0),
    GraphFamily::GeometricAvgDeg(2.0),
    GraphFamily::BarabasiAlbert(3),
    GraphFamily::Tree,
    GraphFamily::Cycle,
    GraphFamily::Path,
    GraphFamily::Star,
    GraphFamily::Clique,
    GraphFamily::Grid2d,
    GraphFamily::Hypercube,
    GraphFamily::Empty,
];

const SEEDS: [u64; 3] = [7, 0x51EE9, u64::MAX];

/// Checks every family at each size in `sizes` against [`PINNED`];
/// the clique only up to n = 1024.
fn check_pinned(sizes: &[usize]) {
    let mut wrong = Vec::new();
    for fam in FAMILIES {
        for &n in sizes {
            if fam == GraphFamily::Clique && n > 1024 {
                continue;
            }
            let got = SEEDS.map(|seed| digest(&fam.generate(n, seed).unwrap()));
            let label = fam.label();
            match PINNED.iter().find(|row| row.0 == label && row.1 == n) {
                Some(row) if row.2 == got => {}
                _ => {
                    let [a, b, c] = got;
                    wrong.push(format!("(\"{label}\", {n}, [{a:#018x}, {b:#018x}, {c:#018x}]),"));
                }
            }
        }
    }
    assert!(wrong.is_empty(), "digests differ from the pinned rows:\n{}", wrong.join("\n"));
}

#[test]
fn generated_graphs_match_the_pinned_digests() {
    check_pinned(&[0, 1, 2, 3, 17, 1000]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 2^16 runs in the release test step")]
fn generated_graphs_match_the_pinned_digests_at_2_16() {
    check_pinned(&[1 << 16]);
}

/// `(family label, n, digest per seed in SEEDS)`, recorded on the
/// sort-based `from_edges` and the two-pass geometric scan.
#[rustfmt::skip]
const PINNED: &[(&str, usize, [u64; 3])] = &[
    ("gnp-avg8", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("gnp-avg8", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("gnp-avg8", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("gnp-avg8", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("gnp-avg8", 17, [0xd159c7e7c57487d7, 0xa0def5cd36bc4f05, 0xb426b00a3dbca985]),
    ("gnp-avg8", 1000, [0xfa586371a6b6a3b7, 0xc3c7a275cc7ec962, 0x2eb47530ee5ab967]),
    ("gnp-avg8", 65536, [0x4347148efde961a2, 0xe1208f1ba45e6304, 0x1f141ed86119f5e3]),
    ("gnp-logn-c1.5", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("gnp-logn-c1.5", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("gnp-logn-c1.5", 2, [0x81d23fd7003c2305, 0xa2d159d5c13a85e7, 0x81d23fd7003c2305]),
    ("gnp-logn-c1.5", 3, [0x0c8210784d8af5a5, 0x8a740782ca836451, 0x5e99d426dff31133]),
    ("gnp-logn-c1.5", 17, [0xc1ac226f11115269, 0x84bafaf1c13d2081, 0x6a023d2ed1aa82f1]),
    ("gnp-logn-c1.5", 1000, [0x365611192e9b9a45, 0x229b9cc9544aec9c, 0xbacf69c26b5b701d]),
    ("gnp-logn-c1.5", 65536, [0xb1cb1732e2c82a2f, 0x36fb54a5b86a1c07, 0xc155549d0d6c5993]),
    ("regular-4", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("regular-4", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("regular-4", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("regular-4", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("regular-4", 17, [0x759b2931ee353661, 0xa478fa381008a341, 0xd4113649d0aa1a21]),
    ("regular-4", 1000, [0x7935ec5c9caa0da4, 0x26d4198c2baaa0f8, 0xed18a07425342950]),
    ("regular-4", 65536, [0x852bfd9b025a1e41, 0x0753da9148ebe835, 0x91b60615bc2639d9]),
    ("geometric-avg8", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("geometric-avg8", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("geometric-avg8", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("geometric-avg8", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("geometric-avg8", 17, [0x533653bf6e6c2e4b, 0xe46a80282caa1977, 0x52df37047a3f319d]),
    ("geometric-avg8", 1000, [0x03b8cf9ab8c0bf21, 0x71f8da19514b5d36, 0x1c029f8c59e37889]),
    ("geometric-avg8", 65536, [0xb12c92c3da904022, 0xf5018e88a2e0b516, 0x845205c9f36c49a5]),
    ("geometric-avg2", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("geometric-avg2", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("geometric-avg2", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0x81d23fd7003c2305]),
    ("geometric-avg2", 3, [0x1a303e579a0dcab5, 0x6cb20554eca52ac3, 0x1a303e579a0dcab5]),
    ("geometric-avg2", 17, [0x2d16eba42697e479, 0x205cb1953de02a17, 0x103c3bb7bed4729b]),
    ("geometric-avg2", 1000, [0xc31914be064bd6e7, 0x5cd98dc26414ebd2, 0x03d910211dab21ff]),
    ("geometric-avg2", 65536, [0xf2f601b6b2a46759, 0x18a840d87d5827c3, 0x4e9d0e6b5f08fc60]),
    ("ba-3", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("ba-3", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("ba-3", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("ba-3", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("ba-3", 17, [0x6768d6038905d375, 0xdc200eb947541aab, 0x24fb42755cfcafc1]),
    ("ba-3", 1000, [0xa7445c009dcfb152, 0x26f50091dba603d7, 0xc04726a2547512a3]),
    ("ba-3", 65536, [0x6fa4e2b7fa3ff407, 0xd7f0d83639c557a3, 0xce1094f46143a699]),
    ("tree", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("tree", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("tree", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("tree", 3, [0x6cb20554eca52ac3, 0x6cb20554eca52ac3, 0x6cb20554eca52ac3]),
    ("tree", 17, [0xb9c797ed9b89abf7, 0xf40f7c9a75adb745, 0x80d035f71422715f]),
    ("tree", 1000, [0xf52bbe7f66b9086a, 0xed750797851bcc11, 0x1972f15d96b90318]),
    ("tree", 65536, [0xb18197ec6204925b, 0x51a8e852239f9b0f, 0x2241c7636ce818a6]),
    ("cycle", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("cycle", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("cycle", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("cycle", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("cycle", 17, [0xb4140c545cfd11e7, 0xb4140c545cfd11e7, 0xb4140c545cfd11e7]),
    ("cycle", 1000, [0x1658cab018a54718, 0x1658cab018a54718, 0x1658cab018a54718]),
    ("cycle", 65536, [0xd85ccf3e1a82e257, 0xd85ccf3e1a82e257, 0xd85ccf3e1a82e257]),
    ("path", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("path", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("path", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("path", 3, [0x8a740782ca836451, 0x8a740782ca836451, 0x8a740782ca836451]),
    ("path", 17, [0x5882353fd53a0bf5, 0x5882353fd53a0bf5, 0x5882353fd53a0bf5]),
    ("path", 1000, [0x6de9f35afdf343fa, 0x6de9f35afdf343fa, 0x6de9f35afdf343fa]),
    ("path", 65536, [0x081fecc1d84733ce, 0x081fecc1d84733ce, 0x081fecc1d84733ce]),
    ("star", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("star", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("star", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("star", 3, [0x6cb20554eca52ac3, 0x6cb20554eca52ac3, 0x6cb20554eca52ac3]),
    ("star", 17, [0xd9df25a84db73a75, 0xd9df25a84db73a75, 0xd9df25a84db73a75]),
    ("star", 1000, [0x664da03d5d700279, 0x664da03d5d700279, 0x664da03d5d700279]),
    ("star", 65536, [0x81bed13af4f0292c, 0x81bed13af4f0292c, 0x81bed13af4f0292c]),
    ("clique", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("clique", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("clique", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("clique", 3, [0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5, 0x001b2f014e6c3ff5]),
    ("clique", 17, [0x3d169dd4cbf7fb95, 0x3d169dd4cbf7fb95, 0x3d169dd4cbf7fb95]),
    ("clique", 1000, [0xa82e7bdd77825cbd, 0xa82e7bdd77825cbd, 0xa82e7bdd77825cbd]),
    ("grid2d", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("grid2d", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("grid2d", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("grid2d", 3, [0x8a740782ca836451, 0x8a740782ca836451, 0x8a740782ca836451]),
    ("grid2d", 17, [0x6108260b9b85212d, 0x6108260b9b85212d, 0x6108260b9b85212d]),
    ("grid2d", 1000, [0x7caaeab00190ff18, 0x7caaeab00190ff18, 0x7caaeab00190ff18]),
    ("grid2d", 65536, [0x329b3986b49571c3, 0x329b3986b49571c3, 0x329b3986b49571c3]),
    ("hypercube", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("hypercube", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("hypercube", 2, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("hypercube", 3, [0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7, 0xa2d159d5c13a85e7]),
    ("hypercube", 17, [0xc12d909fd937fd05, 0xc12d909fd937fd05, 0xc12d909fd937fd05]),
    ("hypercube", 1000, [0x8010ea85778d4527, 0x8010ea85778d4527, 0x8010ea85778d4527]),
    ("hypercube", 65536, [0x6221523827a8e795, 0x6221523827a8e795, 0x6221523827a8e795]),
    ("empty", 0, [0xa8c7f832281a39c5, 0xa8c7f832281a39c5, 0xa8c7f832281a39c5]),
    ("empty", 1, [0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465]),
    ("empty", 2, [0x81d23fd7003c2305, 0x81d23fd7003c2305, 0x81d23fd7003c2305]),
    ("empty", 3, [0x0c8210784d8af5a5, 0x0c8210784d8af5a5, 0x0c8210784d8af5a5]),
    ("empty", 17, [0xec32669a74fcae65, 0xec32669a74fcae65, 0xec32669a74fcae65]),
    ("empty", 1000, [0xa56e1ecc3b7e2ac5, 0xa56e1ecc3b7e2ac5, 0xa56e1ecc3b7e2ac5]),
    ("empty", 65536, [0x5a17746b08ba39c5, 0x5a17746b08ba39c5, 0x5a17746b08ba39c5]),
];
