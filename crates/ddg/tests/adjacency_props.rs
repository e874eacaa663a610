//! Differential test of the graph's compressed-sparse-row adjacency: for
//! every node, the four adjacency slices must equal a naive per-node
//! adjacency rebuilt here from the edge list alone.

use cvliw_ddg::{Ddg, DepKind, NodeId, OpKind};
use proptest::prelude::*;

/// Valid graphs that stress the row layout: forward distance-0 edges,
/// arbitrary loop-carried edges (self-loops included), edges that may be
/// repeated verbatim (`x * x` reads one value twice), and trailing nodes
/// that no edge touches.
fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let kinds = prop::collection::vec(prop::sample::select(OpKind::ALL.to_vec()), 1..12);
    (kinds, 0usize..4)
        .prop_flat_map(|(kinds, isolated)| {
            let n = kinds.len();
            let edges = prop::collection::vec(
                (0..n, 0..n, 0u32..3, prop::bool::ANY, 1usize..3),
                0..(3 * n),
            );
            (Just(kinds), Just(isolated), edges)
        })
        .prop_map(|(kinds, isolated, edges)| {
            let mut b = Ddg::builder();
            let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
            for _ in 0..isolated {
                b.add_node(OpKind::IntAdd);
            }
            for (src, dst, dist, mem, copies) in edges {
                let kind = if mem || !kinds[src].produces_value() {
                    DepKind::Mem
                } else {
                    DepKind::Data
                };
                if dist > 0 || src < dst {
                    for _ in 0..copies {
                        b.edge(ids[src], ids[dst], kind, dist);
                    }
                }
            }
            b.build().expect("valid by construction")
        })
}

/// The oracle: one `Vec` per node, filled by a single pass over
/// [`Ddg::edges`].
struct NaiveAdjacency {
    out_ids: Vec<Vec<u32>>,
    in_ids: Vec<Vec<u32>>,
    data_preds: Vec<Vec<NodeId>>,
    data_succs: Vec<Vec<NodeId>>,
}

impl NaiveAdjacency {
    fn of(ddg: &Ddg) -> Self {
        let n = ddg.node_count();
        let mut adj = NaiveAdjacency {
            out_ids: vec![Vec::new(); n],
            in_ids: vec![Vec::new(); n],
            data_preds: vec![Vec::new(); n],
            data_succs: vec![Vec::new(); n],
        };
        for (i, e) in ddg.edges().enumerate() {
            adj.out_ids[e.src.index()].push(i as u32);
            adj.in_ids[e.dst.index()].push(i as u32);
            if e.is_data() {
                adj.data_preds[e.dst.index()].push(e.src);
                adj.data_succs[e.src.index()].push(e.dst);
            }
        }
        for row in adj.data_preds.iter_mut().chain(adj.data_succs.iter_mut()) {
            row.sort_unstable();
            row.dedup();
        }
        adj
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn csr_rows_equal_the_naive_adjacency(ddg in arb_ddg()) {
        let want = NaiveAdjacency::of(&ddg);
        for n in ddg.node_ids() {
            let i = n.index();
            prop_assert_eq!(ddg.out_edge_ids(n), &want.out_ids[i][..], "out-edges of {}", n);
            prop_assert_eq!(ddg.in_edge_ids(n), &want.in_ids[i][..], "in-edges of {}", n);
            prop_assert_eq!(ddg.data_preds(n), &want.data_preds[i][..], "data preds of {}", n);
            prop_assert_eq!(ddg.data_succs(n), &want.data_succs[i][..], "data succs of {}", n);
        }
    }
}
