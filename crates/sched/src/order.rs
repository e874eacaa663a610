//! Node ordering for modulo scheduling, following Swing Modulo Scheduling
//! (Llosa et al., PACT'96 — reference [18] of the paper).
//!
//! The ordering walks the DDG so that every node is placed while at least
//! one of its neighbours is already ordered (keeping issue windows tight and
//! register lifetimes short), gives priority to the most critical
//! recurrences, and alternates top-down/bottom-up sweeps.
//!
//! [`crate::LoopAnalysis`] computes the order once per (loop, machine) from
//! its cached depth/height and recurrences. Every pass works on dense
//! per-node flags.

use std::cmp::Reverse;

use cvliw_ddg::{Ddg, NodeId};

/// Group index of a node not yet assigned to a priority group.
const UNGROUPED: u32 = u32::MAX;

/// Computes the swing-modulo-scheduling order of all nodes.
///
/// `recurrences` holds each recurrent strongly connected component (sorted
/// by node index) with its RecMII. Recurrences are processed in decreasing
/// RecMII order, each together with the nodes on paths connecting it to the
/// already-grouped subgraph; the remaining (non-recurrent) nodes come last.
/// Within a group the classic alternating height/depth sweep is used. Ties
/// break on node index, so the result is deterministic.
pub(crate) fn sms_order_parts(
    ddg: &Ddg,
    depth: &[i64],
    height: &[i64],
    recurrences: &mut [(u32, &[NodeId])],
) -> Vec<NodeId> {
    let n = ddg.node_count();
    let group_of = priority_groups(ddg, recurrences);
    // Every node, by priority group and ascending within a group.
    let mut by_group: Vec<NodeId> = ddg.node_ids().collect();
    by_group.sort_by_key(|v| group_of[v.index()]);

    let mut sweeper = Sweeper {
        ddg,
        depth,
        height,
        group_of: &group_of,
        group: 0,
        order: Vec::with_capacity(n),
        ordered: vec![false; n],
        ready: Vec::new(),
        in_ready: vec![false; n],
    };
    for members in by_group.chunk_by(|a, b| group_of[a.index()] == group_of[b.index()]) {
        sweeper.order_group(members);
    }
    debug_assert_eq!(sweeper.order.len(), n);
    sweeper.order
}

/// Direction of the current sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Sweep {
    TopDown,
    BottomUp,
}

/// The ordering state: the order so far, which nodes it holds, and the
/// ready set of the group being ordered as a list plus membership flags.
struct Sweeper<'a> {
    ddg: &'a Ddg,
    depth: &'a [i64],
    height: &'a [i64],
    group_of: &'a [u32],
    /// The group being ordered.
    group: u32,
    order: Vec<NodeId>,
    ordered: Vec<bool>,
    ready: Vec<NodeId>,
    in_ready: Vec<bool>,
}

impl Sweeper<'_> {
    /// Orders every node of one priority group; `members` is non-empty.
    fn order_group(&mut self, members: &[NodeId]) {
        self.group = self.group_of[members[0].index()];
        let mut remaining = members.len();
        while remaining > 0 {
            // Ready the members adjacent to the ordered prefix: below it
            // first (a top-down sweep), else above it (bottom-up). A sweep
            // runs until no member is left adjacent on its own side, so
            // this scan is also the switch between alternating sweeps.
            let mut sweep = Sweep::TopDown;
            self.collect_adjacent(members, sweep);
            if self.ready.is_empty() {
                sweep = Sweep::BottomUp;
                self.collect_adjacent(members, sweep);
            }
            if self.ready.is_empty() {
                // Fresh component: start top-down from the highest node.
                sweep = Sweep::TopDown;
                // `remaining > 0`, so some member is still unordered.
                let Some(seed) = members
                    .iter()
                    .copied()
                    .filter(|v| !self.ordered[v.index()])
                    .max_by_key(|v| (self.height[v.index()], Reverse(v.index())))
                else {
                    break;
                };
                self.offer(seed);
            }
            while let Some(v) = self.pick(sweep) {
                self.ordered[v.index()] = true;
                self.order.push(v);
                remaining -= 1;
                match sweep {
                    Sweep::TopDown => {
                        for e in self.ddg.out_edges(v) {
                            self.offer(e.dst);
                        }
                    }
                    Sweep::BottomUp => {
                        for e in self.ddg.in_edges(v) {
                            self.offer(e.src);
                        }
                    }
                }
            }
        }
    }

    /// Readies every unordered member with an ordered neighbour on the
    /// side `sweep` walks away from: an ordered predecessor when sweeping
    /// top-down, an ordered successor when sweeping bottom-up.
    fn collect_adjacent(&mut self, members: &[NodeId], sweep: Sweep) {
        for &w in members {
            if self.ordered[w.index()] {
                continue;
            }
            let adjacent = match sweep {
                Sweep::TopDown => self.ddg.in_edges(w).any(|e| self.ordered[e.src.index()]),
                Sweep::BottomUp => self.ddg.out_edges(w).any(|e| self.ordered[e.dst.index()]),
            };
            if adjacent {
                self.offer(w);
            }
        }
    }

    /// Adds `w` to the ready set if it is an unordered, not yet ready node
    /// of the group being ordered.
    fn offer(&mut self, w: NodeId) {
        let i = w.index();
        if self.group_of[i] == self.group && !self.ordered[i] && !self.in_ready[i] {
            self.in_ready[i] = true;
            self.ready.push(w);
        }
    }

    /// Removes and returns the next node of the ready set: highest height
    /// when sweeping top-down, highest depth when sweeping bottom-up; ties
    /// break on the other metric and then on the lowest node index.
    fn pick(&mut self, sweep: Sweep) -> Option<NodeId> {
        let (depth, height) = (self.depth, self.height);
        let (slot, _) = self.ready.iter().enumerate().max_by_key(|&(_, v)| {
            let (primary, secondary) = match sweep {
                Sweep::TopDown => (height[v.index()], depth[v.index()]),
                Sweep::BottomUp => (depth[v.index()], height[v.index()]),
            };
            (primary, secondary, Reverse(v.index()))
        })?;
        let v = self.ready.swap_remove(slot);
        self.in_ready[v.index()] = false;
        Some(v)
    }
}

/// Assigns every node its priority group and returns the group index per
/// node: each recurrence in decreasing RecMII order (ties on its lowest
/// node), together with the nodes on paths between it and earlier groups,
/// then one group holding everything else.
///
/// A node lies on such a path when it descends from some earlier-grouped
/// node and is an ancestor of some node of the recurrence, or the other
/// way round. Four multi-source depth-first passes per recurrence answer
/// that for every node at once.
fn priority_groups(ddg: &Ddg, recurrences: &mut [(u32, &[NodeId])]) -> Vec<u32> {
    recurrences.sort_by_key(|&(mii, comp)| (Reverse(mii), comp[0].index()));
    let n = ddg.node_count();
    let mut group_of = vec![UNGROUPED; n];
    let mut groups = 0u32;
    let [mut below_grouped, mut above_grouped, mut below_rec, mut above_rec] =
        [(); 4].map(|()| vec![false; n]);
    let mut stack = Vec::new();
    for &(_, comp) in recurrences.iter() {
        let mut joined = false;
        for &v in comp {
            if group_of[v.index()] == UNGROUPED {
                group_of[v.index()] = groups;
                joined = true;
            }
        }
        if groups > 0 {
            let grouped: Vec<NodeId> = ddg
                .node_ids()
                .filter(|v| group_of[v.index()] < groups)
                .collect();
            reach(ddg, &grouped, true, &mut below_grouped, &mut stack);
            reach(ddg, &grouped, false, &mut above_grouped, &mut stack);
            reach(ddg, comp, true, &mut below_rec, &mut stack);
            reach(ddg, comp, false, &mut above_rec, &mut stack);
            for (mid, g) in group_of.iter_mut().enumerate() {
                if *g == UNGROUPED
                    && ((below_grouped[mid] && above_rec[mid])
                        || (below_rec[mid] && above_grouped[mid]))
                {
                    *g = groups;
                    joined = true;
                }
            }
        }
        if joined {
            groups += 1;
        }
    }
    for g in &mut group_of {
        if *g == UNGROUPED {
            *g = groups;
        }
    }
    group_of
}

/// Marks in `seen` every node reachable by one or more edges from some node
/// of `sources`, following edges forwards (descendants) or backwards
/// (ancestors). A source is marked only when it lies on a cycle or below
/// another source.
fn reach(ddg: &Ddg, sources: &[NodeId], forward: bool, seen: &mut [bool], stack: &mut Vec<NodeId>) {
    seen.fill(false);
    stack.clear();
    stack.extend_from_slice(sources);
    while let Some(v) = stack.pop() {
        let edge_ids = if forward {
            ddg.out_edge_ids(v)
        } else {
            ddg.in_edge_ids(v)
        };
        for &id in edge_ids {
            let e = ddg.edge(id);
            let w = if forward { e.dst } else { e.src };
            if !seen[w.index()] {
                seen[w.index()] = true;
                stack.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LoopAnalysis;
    use cvliw_ddg::OpKind;
    use cvliw_machine::MachineConfig;

    fn sms_order(ddg: &Ddg) -> Vec<NodeId> {
        let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
        LoopAnalysis::new(ddg, &machine).sms_order().to_vec()
    }

    /// Fraction of non-first nodes adjacent to an earlier node in the
    /// order (1.0 for connected graphs).
    fn neighbor_adjacency_ratio(ddg: &Ddg, order: &[NodeId]) -> f64 {
        if order.len() <= 1 {
            return 1.0;
        }
        let mut placed = vec![false; ddg.node_count()];
        placed[order[0].index()] = true;
        let mut adjacent = 0usize;
        for &v in &order[1..] {
            let has_neighbor = ddg
                .in_edges(v)
                .map(|e| e.src)
                .chain(ddg.out_edges(v).map(|e| e.dst))
                .any(|w| placed[w.index()]);
            if has_neighbor {
                adjacent += 1;
            }
            placed[v.index()] = true;
        }
        adjacent as f64 / (order.len() - 1) as f64
    }

    #[test]
    fn order_is_a_permutation() {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..8).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        b.data_dist(nodes[7], nodes[0], 1);
        let ddg = b.build().unwrap();
        let mut order = sms_order(&ddg);
        assert_eq!(order.len(), 8);
        order.sort_unstable();
        order.dedup();
        assert_eq!(order.len(), 8);
    }

    #[test]
    fn connected_graph_orders_adjacently() {
        // Diamond with a tail: every non-first node should touch the
        // ordered prefix.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let l = b.add_node(OpKind::FpMul);
        let r = b.add_node(OpKind::FpAdd);
        let j = b.add_node(OpKind::FpAdd);
        let s = b.add_node(OpKind::Store);
        b.data(a, l).data(a, r).data(l, j).data(r, j).data(j, s);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg);
        assert_eq!(neighbor_adjacency_ratio(&ddg, &order), 1.0);
    }

    #[test]
    fn recurrence_nodes_come_first() {
        // A long-latency recurrence and an independent cheap chain: the
        // recurrence (higher RecMII) must be ordered before the chain.
        let mut b = Ddg::builder();
        let chain0 = b.add_node(OpKind::IntAdd);
        let chain1 = b.add_node(OpKind::IntAdd);
        b.data(chain0, chain1);
        let rec0 = b.add_node(OpKind::FpDiv);
        let rec1 = b.add_node(OpKind::FpAdd);
        b.data(rec0, rec1).data_dist(rec1, rec0, 1);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg);
        let pos = |n: NodeId| order.iter().position(|&o| o == n).unwrap();
        assert!(pos(rec0) < pos(chain0));
        assert!(pos(rec1) < pos(chain0));
    }

    #[test]
    fn higher_recmii_scc_ordered_earlier() {
        let mut b = Ddg::builder();
        // slow recurrence: fdiv self-loop (RecMII 18)
        let slow = b.add_node(OpKind::FpDiv);
        b.data_dist(slow, slow, 1);
        // fast recurrence: int add self-loop (RecMII 1)
        let fast = b.add_node(OpKind::IntAdd);
        b.data_dist(fast, fast, 1);
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg);
        assert_eq!(order[0], slow);
        assert_eq!(order[1], fast);
    }

    #[test]
    fn path_nodes_join_recurrence_groups() {
        // rec1 → bridge → rec2: the bridge should be ordered with the
        // second recurrence group, before any leftover node.
        let mut b = Ddg::builder();
        let r1 = b.add_node(OpKind::FpDiv);
        b.data_dist(r1, r1, 1);
        let bridge = b.add_node(OpKind::FpAdd);
        let r2a = b.add_node(OpKind::FpMul);
        let r2b = b.add_node(OpKind::FpAdd);
        b.data(r1, bridge)
            .data(bridge, r2a)
            .data(r2a, r2b)
            .data_dist(r2b, r2a, 1);
        let leftover = b.add_node(OpKind::Load);
        let _ = leftover;
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg);
        let pos = |n: NodeId| order.iter().position(|&o| o == n).unwrap();
        assert!(pos(bridge) < pos(leftover));
        assert_eq!(order.len(), 5);
    }

    #[test]
    fn deterministic_across_calls() {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..12)
            .map(|i| {
                b.add_node(if i % 3 == 0 {
                    OpKind::Load
                } else {
                    OpKind::FpAdd
                })
            })
            .collect();
        for i in 1..nodes.len() {
            b.data(nodes[i / 2], nodes[i]);
        }
        let ddg = b.build().unwrap();
        let o1 = sms_order(&ddg);
        let o2 = sms_order(&ddg);
        assert_eq!(o1, o2);
    }

    #[test]
    fn disconnected_components_are_all_ordered() {
        let mut b = Ddg::builder();
        for _ in 0..5 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let order = sms_order(&ddg);
        assert_eq!(order.len(), 5);
    }
}
