//! Graph analyses: topological order, strongly connected components,
//! recurrence-aware ASAP/ALAP bounds, depth and height.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::graph::{Ddg, Edge, NodeId};

/// Topological order of the distance-0 (same-iteration) subgraph.
///
/// A valid [`Ddg`] always has one; ties are broken by node index (the
/// smallest ready index goes first) so the result is deterministic.
#[must_use]
pub fn topo_order(ddg: &Ddg) -> Vec<NodeId> {
    let n = ddg.node_count();
    let mut indeg = vec![0usize; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut ready: BinaryHeap<Reverse<usize>> = BinaryHeap::with_capacity(n);
    ready.extend((0..n).filter(|&i| indeg[i] == 0).map(Reverse));
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(i)) = ready.pop() {
        let id = NodeId::new(i as u32);
        order.push(id);
        for e in ddg.out_edges(id) {
            if e.distance == 0 {
                let d = e.dst.index();
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(Reverse(d));
                }
            }
        }
    }
    debug_assert_eq!(order.len(), n, "validated DDGs are acyclic at distance 0");
    order
}

/// Strongly connected components over **all** edges (including loop-carried
/// ones), in reverse-topological discovery order of Tarjan's algorithm.
///
/// Nodes inside each component are sorted by index. Trivial components
/// (single node without a self-loop) are included, so the result partitions
/// the node set. The components are stored flat, CSR-style (one node list
/// and one start offset per component), so the pass allocates a fixed
/// handful of buffers however many components the graph has.
#[must_use]
pub fn sccs(ddg: &Ddg) -> Sccs {
    // Iterative Tarjan to avoid recursion limits on large loop bodies.
    let n = ddg.node_count();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<NodeId> = Vec::with_capacity(n);
    let mut out = Sccs {
        start: Vec::with_capacity(n + 1),
        nodes: Vec::with_capacity(n),
    };
    out.start.push(0);
    let mut counter = 0u32;

    // Explicit DFS state: (node, position in its out-edge row).
    let mut call_stack: Vec<(usize, usize)> = Vec::with_capacity(n);

    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        call_stack.push((root, 0));
        index[root] = counter;
        low[root] = counter;
        counter += 1;
        stack.push(NodeId::new(root as u32));
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = call_stack.last_mut() {
            let row = ddg.out_edge_ids(NodeId::new(v as u32));
            if let Some(&id) = row.get(*pos) {
                let w = ddg.edge(id).dst.index();
                *pos += 1;
                if index[w] == u32::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(NodeId::new(w as u32));
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
                    // `v` is still on the stack: everything above it is
                    // its component.
                    let first = out.nodes.len();
                    while let Some(w) = stack.pop() {
                        on_stack[w.index()] = false;
                        out.nodes.push(w);
                        if w.index() == v {
                            break;
                        }
                    }
                    out.nodes[first..].sort_unstable();
                    out.start.push(out.nodes.len() as u32);
                }
            }
        }
    }
    out
}

/// The strongly connected components of a graph, as [`sccs`] returns them:
/// component `i` is `nodes[start[i]..start[i + 1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sccs {
    start: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl Sccs {
    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether there are no components (the graph has no nodes).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Component `i`'s nodes, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[must_use]
    pub fn comp(&self, i: usize) -> &[NodeId] {
        &self.nodes[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The components in discovery order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[NodeId]> + '_ {
        self.start
            .windows(2)
            .map(|w| &self.nodes[w[0] as usize..w[1] as usize])
    }
}

/// The recurrence-aware longest-path kernel: earliest (ASAP) and, when
/// `alap` is given, latest (ALAP) issue times of every node for initiation
/// interval `ii`, with per-edge latencies given as a dense slice aligned
/// with `ddg.edges()` order.
///
/// Every dependence `src → dst` (distance `d`) imposes
/// `t(dst) ≥ t(src) + lat − ii·d`. ASAP is the least solution at or above
/// 0; ALAP is the greatest solution at or below `max(asap)`, so a node's
/// mobility `alap − asap` is how far it can slip without lengthening the
/// iteration. Both are unique, so any relaxation order reaches them; this
/// one sweeps the nodes in `order`, a topological order of the distance-0
/// subgraph ([`topo_order`], or `LoopAnalysis::topo_order()`), pushing
/// along out-edges for ASAP and, in reverse, along in-edges for ALAP. A
/// distance-0 edge therefore always relaxes into a node the sweep has not
/// reached yet, and another sweep runs only while the previous one moved
/// a value through a loop-carried edge: a loop without carried edges
/// settles in one sweep each way.
///
/// Returns the estimated issue span (`max(asap)`), or `None` when the
/// constraints are unsatisfiable (some recurrence has positive cycle
/// weight at this `ii`): like a Bellman-Ford fixpoint, a solve still
/// moving values after `n + 1` sweeps has a positive cycle — and so does
/// one still moving after `c + 2`, for a loop with `c` loop-carried edges,
/// since only those can point backwards in `order`. On `None` the buffers
/// hold no meaningful times.
///
/// # Panics
///
/// Panics in debug builds if `edge_lat` is not aligned with `ddg.edges()`
/// or `order` does not rank every node.
#[must_use]
pub fn longest_paths(
    ddg: &Ddg,
    order: &[NodeId],
    ii: u32,
    edge_lat: &[u32],
    asap: &mut Vec<i64>,
    alap: Option<&mut Vec<i64>>,
) -> Option<i64> {
    asap_sweeps(ddg, order, ii, edge_lat, asap)?;
    let length = asap.iter().copied().max().unwrap_or(0);
    if let Some(alap) = alap {
        alap_sweeps(ddg, order, ii, edge_lat, length, alap)?;
    }
    Some(length)
}

/// The ASAP half of [`longest_paths`]: the number of sweeps it took, or
/// `None` on a positive cycle.
fn asap_sweeps(
    ddg: &Ddg,
    order: &[NodeId],
    ii: u32,
    edge_lat: &[u32],
    asap: &mut Vec<i64>,
) -> Option<usize> {
    debug_assert_eq!(edge_lat.len(), ddg.edge_count(), "one latency per edge");
    debug_assert_eq!(order.len(), ddg.node_count(), "one rank per node");
    let n = ddg.node_count();
    asap.clear();
    asap.resize(n, 0);
    let ii = i64::from(ii);
    // Only a loop-carried edge can point backwards in `order`, and a
    // simple path crosses at most `min(carried edges, n − 1)` of them;
    // without a positive cycle every value is such a path's weight, so it
    // is final one sweep after that many, and the next sweep moves
    // nothing. A solve still moving after that proves a positive cycle.
    // Sweep 1 visits every edge, so it counts the carried ones.
    let mut cap = n + 1;
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        if sweeps > cap {
            return None; // positive cycle: ii below RecMII
        }
        let mut carried = false;
        let mut carried_edges = 0;
        for &v in order {
            let t0 = asap[v.index()];
            for &id in ddg.out_edge_ids(v) {
                let e = ddg.edge(id);
                carried_edges += usize::from(e.distance > 0);
                let t = t0 + i64::from(edge_lat[id as usize]) - ii * i64::from(e.distance);
                if t > asap[e.dst.index()] {
                    asap[e.dst.index()] = t;
                    carried |= e.distance > 0;
                }
            }
        }
        if !carried {
            return Some(sweeps);
        }
        if sweeps == 1 {
            cap = cap.min(carried_edges + 2);
        }
    }
}

/// The ALAP half of [`longest_paths`], anchored at `length`: the number
/// of sweeps it took, or `None` on a positive cycle.
fn alap_sweeps(
    ddg: &Ddg,
    order: &[NodeId],
    ii: u32,
    edge_lat: &[u32],
    length: i64,
    alap: &mut Vec<i64>,
) -> Option<usize> {
    let n = ddg.node_count();
    alap.clear();
    alap.resize(n, length);
    let ii = i64::from(ii);
    let mut sweeps = 0;
    loop {
        sweeps += 1;
        if sweeps > n + 1 {
            return None;
        }
        let mut carried = false;
        for &v in order.iter().rev() {
            let t0 = alap[v.index()];
            for &id in ddg.in_edge_ids(v) {
                let e = ddg.edge(id);
                let t = t0 - i64::from(edge_lat[id as usize]) + ii * i64::from(e.distance);
                if t < alap[e.src.index()] {
                    alap[e.src.index()] = t;
                    carried |= e.distance > 0;
                }
            }
        }
        if !carried {
            return Some(sweeps);
        }
    }
}

/// Longest-path **depth** (from sources) and **height** (to sinks) of every
/// node over the distance-0 subgraph, as used by the swing modulo
/// scheduling ordering.
///
/// `depth(n)` is the length of the longest latency-weighted path from any
/// source ending at `n` (sources have depth 0); `height(n)` the longest
/// path from `n` to any sink. `order` is a topological order of the
/// distance-0 subgraph, as [`topo_order`] returns it; callers that need the
/// order themselves compute it once and pass it in.
#[must_use]
pub fn depth_height(
    ddg: &Ddg,
    order: &[NodeId],
    lat: impl Fn(&Edge) -> u32,
) -> (Vec<i64>, Vec<i64>) {
    debug_assert_eq!(order.len(), ddg.node_count(), "one rank per node");
    let n = ddg.node_count();
    let mut depth = vec![0i64; n];
    for &v in order {
        for e in ddg.out_edges(v) {
            if e.distance == 0 {
                let t = depth[v.index()] + i64::from(lat(e));
                if t > depth[e.dst.index()] {
                    depth[e.dst.index()] = t;
                }
            }
        }
    }
    let mut height = vec![0i64; n];
    for &v in order.iter().rev() {
        for e in ddg.out_edges(v) {
            if e.distance == 0 {
                let t = height[e.dst.index()] + i64::from(lat(e));
                if t > height[v.index()] {
                    height[v.index()] = t;
                }
            }
        }
    }
    (depth, height)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    fn unit_lat(_: &Edge) -> u32 {
        1
    }

    /// a → b → c with a loop-carried edge c → a (distance 1).
    fn ring() -> Ddg {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        b.build().unwrap()
    }

    #[test]
    fn topo_respects_edges() {
        let ddg = ring();
        let order = topo_order(&ddg);
        assert_eq!(order.len(), 3);
        let pos: Vec<usize> = ddg
            .node_ids()
            .map(|n| order.iter().position(|&o| o == n).unwrap())
            .collect();
        for e in ddg.edges() {
            if e.distance == 0 {
                assert!(pos[e.src.index()] < pos[e.dst.index()]);
            }
        }
    }

    #[test]
    fn topo_is_deterministic_and_index_biased() {
        let mut b = Ddg::builder();
        let n0 = b.add_node(OpKind::IntAdd);
        let n1 = b.add_node(OpKind::IntAdd);
        let n2 = b.add_node(OpKind::IntAdd);
        let _ = (n0, n1, n2);
        let ddg = b.build().unwrap();
        assert_eq!(
            topo_order(&ddg),
            vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]
        );
    }

    #[test]
    fn ring_is_one_scc() {
        let ddg = ring();
        let comps = sccs(&ddg);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps.comp(0).len(), 3);
    }

    #[test]
    fn forest_has_trivial_sccs() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c = b.add_node(OpKind::FpMul);
        b.data(a, c);
        let ddg = b.build().unwrap();
        let comps = sccs(&ddg);
        assert_eq!(comps.len(), 2);
        assert!(comps.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn two_sccs_are_separated() {
        let mut b = Ddg::builder();
        let a0 = b.add_node(OpKind::FpAdd);
        let a1 = b.add_node(OpKind::FpAdd);
        let c0 = b.add_node(OpKind::FpAdd);
        let c1 = b.add_node(OpKind::FpAdd);
        b.data(a0, a1).data_dist(a1, a0, 1); // scc A
        b.data(c0, c1).data_dist(c1, c0, 2); // scc B
        b.data(a1, c0); // bridge
        let ddg = b.build().unwrap();
        let comps = sccs(&ddg);
        // Reverse-topological discovery: the downstream component first.
        let comps: Vec<&[NodeId]> = comps.iter().collect();
        assert_eq!(comps, [[c0, c1], [a0, a1]]);
    }

    /// ASAP, ALAP and length of `ddg` at `ii` with one latency per edge.
    fn bounds(ddg: &Ddg, ii: u32, lat: impl Fn(&Edge) -> u32) -> Option<(Vec<i64>, Vec<i64>, i64)> {
        let edge_lat: Vec<u32> = ddg.edges().map(lat).collect();
        let (mut asap, mut alap) = (Vec::new(), Vec::new());
        let length = longest_paths(
            ddg,
            &topo_order(ddg),
            ii,
            &edge_lat,
            &mut asap,
            Some(&mut alap),
        )?;
        Some((asap, alap, length))
    }

    #[test]
    fn time_bounds_on_chain() {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z);
        let ddg = b.build().unwrap();
        let (asap, alap, length) = bounds(&ddg, 1, |_| 3).unwrap();
        assert_eq!(asap, vec![0, 3, 6]);
        assert_eq!(alap, vec![0, 3, 6]);
        assert_eq!(length, 6);
    }

    #[test]
    fn time_bounds_mobility_on_diamond() {
        // a → (b long | c short) → d : c has slack.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let long = b.add_node(OpKind::FpDiv);
        let short = b.add_node(OpKind::FpAdd);
        let d = b.add_node(OpKind::Store);
        b.data(a, long).data(a, short).data(long, d).data(short, d);
        let ddg = b.build().unwrap();
        let lat = |e: &Edge| match ddg.kind(e.src) {
            OpKind::FpDiv => 18,
            OpKind::FpAdd => 3,
            _ => 2,
        };
        let (asap, alap, _) = bounds(&ddg, 1, lat).unwrap();
        let mobility = |n: NodeId| alap[n.index()] - asap[n.index()];
        assert_eq!(mobility(long), 0);
        assert_eq!(mobility(short), 15); // 18 - 3
        assert_eq!(mobility(a), 0);
    }

    #[test]
    fn time_bounds_infeasible_below_recmii() {
        let ddg = ring(); // cycle latency 3, distance 1 → RecMII = 3
        assert!(bounds(&ddg, 2, unit_lat).is_none());
        let (asap, _, _) = bounds(&ddg, 3, unit_lat).unwrap();
        // At exactly RecMII the recurrence is tight.
        assert!(asap.iter().all(|&t| t >= 0));
    }

    #[test]
    fn loop_carried_edges_relax_asap() {
        // b depends on a from the previous iteration: at large ii the edge
        // imposes nothing.
        let mut bld = Ddg::builder();
        let a = bld.add_node(OpKind::FpAdd);
        let b = bld.add_node(OpKind::FpAdd);
        bld.data_dist(a, b, 1);
        let ddg = bld.build().unwrap();
        assert_eq!(bounds(&ddg, 10, |_| 3).unwrap().0[b.index()], 0);
        assert_eq!(bounds(&ddg, 1, |_| 3).unwrap().0[b.index()], 2); // 3 - 1
    }

    /// Without loop-carried edges every dependence points forward in the
    /// sweep order, so one sweep settles each direction — on a graph whose
    /// node ids run against the topological order, where an edge-order
    /// sweep would need one pass per chain link.
    #[test]
    fn a_loop_without_carried_edges_settles_in_one_sweep_each_way() {
        const N: usize = 24;
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..N).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2).rev() {
            b.data(w[1], w[0]);
        }
        b.data(nodes[N - 1], nodes[N / 2]);
        let ddg = b.build().unwrap();
        let order = topo_order(&ddg);
        let edge_lat = vec![3u32; ddg.edge_count()];
        let (mut asap, mut alap) = (Vec::new(), Vec::new());
        assert_eq!(asap_sweeps(&ddg, &order, 1, &edge_lat, &mut asap), Some(1));
        let length = asap.iter().copied().max().unwrap();
        assert_eq!(length, 3 * (N as i64 - 1));
        assert_eq!(
            alap_sweeps(&ddg, &order, 1, &edge_lat, length, &mut alap),
            Some(1)
        );
        assert_eq!(asap, alap, "a chain has no slack");

        // A loop-carried edge that moves a value costs one more sweep.
        let mut b = Ddg::builder();
        let y = b.add_node(OpKind::FpAdd);
        let nodes: Vec<_> = (0..N).map(|_| b.add_node(OpKind::FpAdd)).collect();
        let z = b.add_node(OpKind::FpAdd);
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        b.data_dist(nodes[N - 1], y, 1).data(y, z);
        let ddg = b.build().unwrap();
        let order = topo_order(&ddg);
        let edge_lat = vec![3u32; ddg.edge_count()];
        assert_eq!(asap_sweeps(&ddg, &order, 1, &edge_lat, &mut asap), Some(2));
        assert_eq!(asap[z.index()], 3 * (N as i64 - 1) + 3 - 1 + 3);
    }

    #[test]
    fn depth_height_chain() {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        let ddg = b.build().unwrap();
        let (depth, height) = depth_height(&ddg, &topo_order(&ddg), |_| 3);
        // loop-carried edge is ignored for depth/height
        assert_eq!(depth, vec![0, 3, 6]);
        assert_eq!(height, vec![6, 3, 0]);
    }
}
