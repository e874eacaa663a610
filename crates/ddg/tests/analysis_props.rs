//! Property tests for the graph analyses: topological order, ASAP/ALAP
//! time bounds, and the recurrence-constrained MII — including the
//! topological longest-path kernel against the edge-order Bellman-Ford it
//! replaced, the per-component RecMII against the whole-graph binary
//! search it replaced, and the flat (CSR) strongly-connected-component
//! pass against the one-`Vec`-per-component Tarjan it replaced, all kept
//! here as oracles.

use cvliw_ddg::{
    longest_paths, rec_mii, scc_rec_mii, sccs, topo_order, Ddg, DepKind, Edge, NodeId, OpKind,
};
use proptest::prelude::*;

/// ASAP/ALAP issue-time bounds of every node, as [`time_bounds`] computes
/// them.
#[derive(Clone, Debug, PartialEq, Eq)]
struct TimeBounds {
    asap: Vec<i64>,
    alap: Vec<i64>,
    length: i64,
}

/// The simplest executable form of the bounds, and the oracle of
/// [`longest_paths`]: an edge-order Bellman-Ford from a virtual source at
/// 0 for ASAP, and again from `max(asap)` downwards for ALAP, each giving
/// up after `n + 1` passes (a positive cycle: `ii` below RecMII).
fn time_bounds(ddg: &Ddg, ii: u32, lat: impl Fn(&Edge) -> u32) -> Option<TimeBounds> {
    let n = ddg.node_count();
    let weight = |e: &Edge| -> i64 { i64::from(lat(e)) - i64::from(ii) * i64::from(e.distance) };

    let mut asap = vec![0i64; n];
    let mut changed = true;
    let mut passes = 0usize;
    while changed {
        changed = false;
        passes += 1;
        if passes > n + 1 {
            return None;
        }
        for e in ddg.edges() {
            let t = asap[e.src.index()] + weight(e);
            if t > asap[e.dst.index()] {
                asap[e.dst.index()] = t;
                changed = true;
            }
        }
    }

    let length = asap.iter().copied().max().unwrap_or(0);

    let mut alap = vec![length; n];
    let mut changed = true;
    let mut passes = 0usize;
    while changed {
        changed = false;
        passes += 1;
        if passes > n + 1 {
            return None;
        }
        for e in ddg.edges() {
            let t = alap[e.dst.index()] - weight(e);
            if t < alap[e.src.index()] {
                alap[e.src.index()] = t;
                changed = true;
            }
        }
    }

    Some(TimeBounds { asap, alap, length })
}

/// Whether an initiation interval satisfies every recurrence of the loop:
/// no dependence cycle has positive weight under `lat(e) − ii·distance(e)`.
fn is_feasible_ii(ddg: &Ddg, ii: u32, lat: impl Fn(&Edge) -> u32) -> bool {
    time_bounds(ddg, ii, lat).is_some()
}

/// [`longest_paths`] in the oracle's shape, ASAP and ALAP both asked for.
fn kernel_bounds(ddg: &Ddg, ii: u32, edge_lat: &[u32]) -> Option<TimeBounds> {
    let (mut asap, mut alap) = (Vec::new(), Vec::new());
    let length = longest_paths(
        ddg,
        &topo_order(ddg),
        ii,
        edge_lat,
        &mut asap,
        Some(&mut alap),
    )?;
    Some(TimeBounds { asap, alap, length })
}

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop::sample::select(OpKind::ALL.to_vec())
}

/// Valid graphs: forward distance-0 edges, arbitrary loop-carried edges.
fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let nodes = prop::collection::vec(arb_kind(), 1..12);
    nodes
        .prop_flat_map(|kinds| {
            let n = kinds.len();
            let edges = prop::collection::vec((0..n, 0..n, 0u32..3, prop::bool::ANY), 0..(3 * n));
            (Just(kinds), edges)
        })
        .prop_map(|(kinds, edges)| {
            let mut b = Ddg::builder();
            let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
            for (src, dst, dist, mem) in edges {
                let kind = if mem || !kinds[src].produces_value() {
                    DepKind::Mem
                } else {
                    DepKind::Data
                };
                if dist > 0 {
                    b.edge(ids[src], ids[dst], kind, dist);
                } else if src < dst {
                    b.edge(ids[src], ids[dst], kind, 0);
                }
            }
            b.build().expect("valid by construction")
        })
}

/// Graphs rich in recurrences, with per-node producer latencies: loop-carried
/// distances up to 4 (so self-loops with distance > 1 are common) and up to
/// four edges per node, which yields acyclic graphs, single self-loops and
/// several recurrent components side by side.
fn arb_recurrent_ddg() -> impl Strategy<Value = (Ddg, Vec<u32>)> {
    let nodes = prop::collection::vec(arb_kind(), 1..14);
    nodes
        .prop_flat_map(|kinds| {
            let n = kinds.len();
            let edges = prop::collection::vec((0..n, 0..n, 0u32..5), 0..(4 * n));
            let lats = prop::collection::vec(1u32..25, n);
            (Just(kinds), edges, lats)
        })
        .prop_map(|(kinds, edges, lats)| {
            let mut b = Ddg::builder();
            let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
            for (src, dst, dist) in edges {
                let kind = if kinds[src].produces_value() {
                    DepKind::Data
                } else {
                    DepKind::Mem
                };
                if dist > 0 || src < dst {
                    b.edge(ids[src], ids[dst], kind, dist);
                }
            }
            (b.build().expect("valid by construction"), lats)
        })
}

/// The whole-graph RecMII search: binary search on [`is_feasible_ii`] over
/// every edge of the loop. The oracle the per-component `rec_mii` must
/// equal.
fn whole_graph_rec_mii(ddg: &Ddg, lat: impl Fn(&Edge) -> u32) -> u32 {
    // Upper bound: total latency of all edges always satisfies every cycle
    // (each cycle has distance ≥ 1 and latency sum ≤ this bound).
    let ub: u64 = ddg.edges().map(|e| u64::from(lat(e))).sum::<u64>().max(1);
    let ub = u32::try_from(ub.min(u64::from(u32::MAX / 2))).expect("bounded above");

    if is_feasible_ii(ddg, 1, &lat) {
        return 1;
    }
    let (mut lo, mut hi) = (1u32, ub); // lo infeasible, hi feasible
    debug_assert!(
        is_feasible_ii(ddg, hi, &lat),
        "upper bound must be feasible"
    );
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if is_feasible_ii(ddg, mid, &lat) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// The subgraph induced by one component: its nodes (renumbered in index
/// order) and the edges between them, each keeping its producer latency.
fn induced(ddg: &Ddg, comp: &[NodeId], lats: &[u32]) -> (Ddg, Vec<u32>) {
    let mut b = Ddg::builder();
    let ids: Vec<_> = comp.iter().map(|&n| b.add_node(ddg.kind(n))).collect();
    let slot = |n: NodeId| comp.binary_search(&n).ok();
    for e in ddg.edges() {
        if let (Some(s), Some(d)) = (slot(e.src), slot(e.dst)) {
            b.edge(ids[s], ids[d], e.kind, e.distance);
        }
    }
    let sub_lats = comp.iter().map(|n| lats[n.index()]).collect();
    (
        b.build().expect("an induced subgraph stays valid"),
        sub_lats,
    )
}

#[test]
fn rec_mii_matches_the_oracle_on_named_shapes() {
    // Acyclic: RecMII 1, no recurrent component.
    let mut b = Ddg::builder();
    let ld = b.add_node(OpKind::Load);
    let mul = b.add_node(OpKind::FpMul);
    b.data(ld, mul);
    let acyclic = b.build().unwrap();
    // A self-loop with distance 3: ceil(7 / 3) = 3.
    let mut b = Ddg::builder();
    let acc = b.add_node(OpKind::FpAdd);
    b.data_dist(acc, acc, 3);
    let self_loop = b.build().unwrap();
    // Two recurrences joined by a bridge: ring A carries 7 + 7 cycles over
    // distance 2 (RecMII 7), ring B 9 + 7 over distance 1 (RecMII 16).
    let mut b = Ddg::builder();
    let a0 = b.add_node(OpKind::FpAdd);
    let a1 = b.add_node(OpKind::FpAdd);
    let c0 = b.add_node(OpKind::FpAdd);
    let c1 = b.add_node(OpKind::FpAdd);
    b.data(a0, a1).data_dist(a1, a0, 2);
    b.data(c0, c1).data_dist(c1, c0, 1);
    b.data(a1, c0);
    let two_rings = b.build().unwrap();
    let lat = |ddg: &Ddg| {
        let lats: Vec<u32> = ddg
            .node_ids()
            .map(|n| if n.index() == 2 { 9 } else { 7 })
            .collect();
        move |e: &Edge| lats[e.src.index()]
    };
    for (ddg, expect) in [(&acyclic, 1), (&self_loop, 3), (&two_rings, 16)] {
        assert_eq!(rec_mii(ddg, lat(ddg)), expect);
        assert_eq!(whole_graph_rec_mii(ddg, lat(ddg)), expect);
    }
    let per_comp: Vec<Option<u32>> = sccs(&two_rings)
        .iter()
        .map(|c| scc_rec_mii(&two_rings, c, lat(&two_rings)))
        .collect();
    assert_eq!(per_comp, vec![Some(16), Some(7)]);
    assert!(sccs(&acyclic)
        .iter()
        .all(|c| scc_rec_mii(&acyclic, c, lat(&acyclic)).is_none()));
}

/// The one-`Vec`-per-component Tarjan that [`sccs`] replaced: the oracle
/// of the flat pass (same discovery order, members sorted by index).
fn nested_sccs(ddg: &Ddg) -> Vec<Vec<NodeId>> {
    let n = ddg.node_count();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut result: Vec<Vec<NodeId>> = Vec::new();
    let mut counter = 0usize;
    let mut call_stack: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call_stack.push((root, 0));
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let out = ddg.out_edge_ids(NodeId::new(v as u32));
            if let Some(&id) = out.get(*pos) {
                let w = ddg.edge(id).dst.index();
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call_stack.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call_stack.pop();
                if let Some(&(parent, _)) = call_stack.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(NodeId::new(w as u32));
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    result.push(comp);
                }
            }
        }
    }
    result
}

/// Graphs for the kernel differential: recurrences, self-loops and memory
/// edges, a random latency on every edge, and node ids shuffled so that
/// id order is not a topological order.
fn arb_kernel_case() -> impl Strategy<Value = (Ddg, Vec<u32>)> {
    (1usize..16)
        .prop_flat_map(|n| {
            let keys = prop::collection::vec(0u64..1 << 32, n);
            let edges = prop::collection::vec((0..n, 0..n, 0u32..4, prop::bool::ANY), 0..(4 * n));
            let lats = prop::collection::vec(0u32..12, 4 * n);
            (Just(n), keys, edges, lats)
        })
        .prop_map(|(n, keys, edges, lats)| {
            let mut by_key: Vec<usize> = (0..n).collect();
            by_key.sort_by_key(|&p| (keys[p], p));
            let mut b = Ddg::builder();
            let ids: Vec<NodeId> = (0..n).map(|_| b.add_node(OpKind::FpAdd)).collect();
            let id_of = |p: usize| ids[by_key.iter().position(|&q| q == p).expect("a permutation")];
            for (src, dst, dist, mem) in edges {
                if dist == 0 && src >= dst {
                    continue; // distance-0 edges point forward in position
                }
                let kind = if mem { DepKind::Mem } else { DepKind::Data };
                b.edge(id_of(src), id_of(dst), kind, dist);
            }
            let ddg = b.build().expect("distance-0 edges point forward");
            let edge_lat = (0..ddg.edge_count())
                .map(|e| lats[e % lats.len()])
                .collect();
            (ddg, edge_lat)
        })
}

/// Unit latency for every edge — keeps the properties easy to state.
fn unit(_: &Edge) -> u32 {
    1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The topological kernel solves exactly what the edge-order oracle
    /// does — ASAP, ALAP, length, and `None` below the RecMII — from one
    /// II under the loop's RecMII to three above it.
    #[test]
    fn kernel_equals_the_edge_order_oracle(case in arb_kernel_case()) {
        let (ddg, edge_lat) = case;
        let lat = |e: &Edge| {
            let id = ddg.edges().position(|x| std::ptr::eq(x, e)).expect("an edge of ddg");
            edge_lat[id]
        };
        let rec = whole_graph_rec_mii(&ddg, lat);
        for ii in rec.saturating_sub(1).max(1)..=rec + 3 {
            prop_assert_eq!(kernel_bounds(&ddg, ii, &edge_lat), time_bounds(&ddg, ii, lat), "ii {}", ii);
        }
        if rec > 1 {
            prop_assert!(kernel_bounds(&ddg, rec - 1, &edge_lat).is_none());
        }
    }

    #[test]
    fn flat_sccs_match_the_nested_oracle(case in arb_recurrent_ddg(), plain in arb_ddg()) {
        for ddg in [&case.0, &plain] {
            let flat = sccs(ddg);
            let nested = nested_sccs(ddg);
            prop_assert_eq!(flat.len(), nested.len());
            prop_assert_eq!(flat.iter().len(), nested.len());
            let comps: Vec<Vec<NodeId>> = flat.iter().map(<[NodeId]>::to_vec).collect();
            prop_assert_eq!(comps, nested);
        }
    }

    #[test]
    fn topo_order_is_a_permutation_respecting_dist0_edges(ddg in arb_ddg()) {
        let order = topo_order(&ddg);
        let mut position = vec![usize::MAX; ddg.node_count()];
        for (i, &n) in order.iter().enumerate() {
            position[n.index()] = i;
        }
        prop_assert!(position.iter().all(|&p| p != usize::MAX), "permutation");
        for e in ddg.edges() {
            if e.distance == 0 {
                prop_assert!(
                    position[e.src.index()] < position[e.dst.index()],
                    "edge {} -> {} violated",
                    e.src,
                    e.dst
                );
            }
        }
    }

    #[test]
    fn rec_mii_is_the_feasibility_threshold(ddg in arb_ddg()) {
        let mii = rec_mii(&ddg, unit);
        prop_assert!(mii >= 1);
        prop_assert!(is_feasible_ii(&ddg, mii, unit), "RecMII itself must be feasible");
        if mii > 1 {
            prop_assert!(
                !is_feasible_ii(&ddg, mii - 1, unit),
                "RecMII must be the *minimum* feasible II (claimed {mii})"
            );
        }
        // Feasibility is monotone above the threshold.
        for ii in mii..mii + 3 {
            prop_assert!(is_feasible_ii(&ddg, ii, unit));
        }
    }

    #[test]
    fn time_bounds_respect_dependences(ddg in arb_ddg()) {
        let ii = rec_mii(&ddg, unit);
        let tb = time_bounds(&ddg, ii, unit).expect("feasible at RecMII");
        for n in ddg.node_ids() {
            prop_assert!(
                tb.asap[n.index()] <= tb.alap[n.index()],
                "{n}: asap {} > alap {}",
                tb.asap[n.index()],
                tb.alap[n.index()]
            );
        }
        // Every dependence is satisfied by the ASAP times: a consumer can
        // never be forced earlier than producer + latency - distance·II.
        for e in ddg.edges() {
            let lhs = tb.asap[e.src.index()] + 1; // unit latency
            let rhs = tb.asap[e.dst.index()] + i64::from(e.distance) * i64::from(ii);
            prop_assert!(lhs <= rhs, "edge {} -> {} (dist {})", e.src, e.dst, e.distance);
        }
    }

    #[test]
    fn larger_ii_never_delays_asap(ddg in arb_ddg()) {
        // ASAP is a longest path over weights `lat − II·dist`; growing the
        // II weakens every loop-carried constraint and leaves intra-
        // iteration ones untouched, so ASAP times (and the critical-path
        // length) are non-increasing in the II. (Mobility `alap − asap` is
        // NOT monotone — ALAP is anchored to the shifting length — which
        // is why the partitioner recomputes slack at every II.)
        let mii = rec_mii(&ddg, unit);
        let tight = time_bounds(&ddg, mii, unit).expect("feasible");
        let loose = time_bounds(&ddg, mii + 4, unit).expect("feasible above RecMII");
        for n in ddg.node_ids() {
            prop_assert!(
                loose.asap[n.index()] <= tight.asap[n.index()],
                "{n}: asap grew from {} to {}",
                tight.asap[n.index()],
                loose.asap[n.index()]
            );
        }
        prop_assert!(loose.length <= tight.length);
    }

    #[test]
    fn below_rec_mii_is_reported_infeasible(ddg in arb_ddg()) {
        let mii = rec_mii(&ddg, unit);
        if mii > 1 {
            prop_assert!(time_bounds(&ddg, mii - 1, unit).is_none());
        }
    }

    #[test]
    fn rec_mii_equals_the_whole_graph_search(case in arb_recurrent_ddg()) {
        let (ddg, lats) = case;
        let lat = |e: &Edge| lats[e.src.index()];
        prop_assert_eq!(rec_mii(&ddg, lat), whole_graph_rec_mii(&ddg, lat));
        prop_assert_eq!(rec_mii(&ddg, unit), whole_graph_rec_mii(&ddg, unit));
    }

    #[test]
    fn scc_rec_mii_is_the_rec_mii_of_the_component_alone(case in arb_recurrent_ddg()) {
        let (ddg, lats) = case;
        for comp in sccs(&ddg).iter() {
            let per_comp = scc_rec_mii(&ddg, comp, |e: &Edge| lats[e.src.index()]);
            let self_loop = ddg.out_edges(comp[0]).any(|e| e.dst == comp[0]);
            prop_assert_eq!(per_comp.is_some(), comp.len() > 1 || self_loop);
            if let Some(mii) = per_comp {
                let (sub, sub_lats) = induced(&ddg, comp, &lats);
                let oracle = whole_graph_rec_mii(&sub, |e: &Edge| sub_lats[e.src.index()]);
                prop_assert_eq!(mii, oracle);
            }
        }
    }
}
