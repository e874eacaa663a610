//! Instance liveness: which instances are useful, which are removable.
//!
//! This generalizes the paper's Figure-5 algorithm for finding removable
//! instructions. An instance `(node, cluster)` is **live** when its value is
//! observable: it feeds a live consumer instance in the same cluster, it is
//! the source its bus copy reads from, it is a store (a side effect), or it
//! is the home instance of a live-out value (a producer with no consumers
//! at all). Everything else is dead and can be removed from the schedule,
//! freeing resources (§3.2).
//!
//! The paper's subtle cases fall out naturally:
//!
//! * a node whose value is still communicated keeps its source instance —
//!   its copy is effectively an in-cluster child (so, in Figure 3, `D`
//!   cannot be removed when `S_E` is replicated, but becomes removable once
//!   `S_D` itself is);
//! * instructions that were removable can stop being removable when new
//!   replicas appear in their cluster, and vice versa (§3.4).

use std::collections::BTreeSet;

use cvliw_ddg::{Ddg, NodeId};
use cvliw_sched::{Assignment, ClusterSet};

/// A hypothetical instance configuration to run liveness over.
#[derive(Clone, Debug)]
pub struct InstanceView {
    /// Clusters holding an instance of each node (indexed by node).
    pub instances: Vec<ClusterSet>,
    /// Values still communicated over a bus.
    pub coms: BTreeSet<NodeId>,
    /// Source cluster each communicated value is read from.
    pub com_source: Vec<u8>,
}

impl InstanceView {
    /// Captures the current state of an assignment.
    #[must_use]
    pub fn from_assignment(ddg: &Ddg, assignment: &Assignment, coms: &BTreeSet<NodeId>) -> Self {
        InstanceView {
            instances: ddg.node_ids().map(|n| assignment.instances(n)).collect(),
            coms: coms.clone(),
            com_source: ddg.node_ids().map(|n| assignment.copy_source(n)).collect(),
        }
    }
}

/// Marks every node sitting on a dependence cycle (a recurrent SCC) — the
/// recurrence anchors of the Figure-5 liveness rule — straight from the
/// graph. The map-based reference [`live_instances`] is the only caller;
/// every pipeline stage reads the same flags from its cached
/// `LoopAnalysis::on_cycle`.
fn on_cycle_into(ddg: &Ddg, on_cycle: &mut Vec<bool>) {
    on_cycle.clear();
    on_cycle.resize(ddg.node_count(), false);
    for comp in &cvliw_ddg::sccs(ddg) {
        // Only membership matters: under zero latencies every recurrence
        // is satisfied at II 1, so the RecMII search stops at its first
        // probe.
        if cvliw_ddg::scc_rec_mii(ddg, comp, |_| 0).is_some() {
            for &node in comp {
                on_cycle[node.index()] = true;
            }
        }
    }
}

/// The borrowed ingredients of a liveness query: instance sets, the sorted
/// communicated list and each communicated value's copy-source cluster.
/// [`InstanceView`] owns the same data; the scratch paths borrow it
/// straight from an [`Assignment`] instead of copying.
#[derive(Clone, Copy)]
pub(crate) struct ViewRef<'a> {
    /// Clusters holding an instance of each node (indexed by node).
    pub instances: &'a [ClusterSet],
    /// Values still communicated, sorted by node id.
    pub coms: &'a [NodeId],
    /// Source cluster each communicated value is read from.
    pub com_source: &'a [u8],
}

/// Marks every node the Figure-5 anchor rule fires for unconditionally —
/// stores, leaves (no data successors) and recurrence members (`on_cycle`,
/// read from the loop's `LoopAnalysis`). A pure function of the loop, so
/// each replication pass fills it once on entry and the dense liveness
/// queries below read a bool instead of re-deriving the three conditions
/// per node per plan.
pub(crate) fn always_anchor_into(ddg: &Ddg, on_cycle: &[bool], anchor: &mut Vec<bool>) {
    anchor.clear();
    anchor.extend(ddg.node_ids().map(|n| {
        ddg.kind(n) == cvliw_ddg::OpKind::Store || !ddg.has_data_succs(n) || on_cycle[n.index()]
    }));
}

/// The dense twin of [`ViewRef`]: the copy-source slice is aligned with
/// `coms` (one entry per communicated value) instead of indexed by node,
/// so callers fill `O(|coms|)` bytes per query instead of `O(V)`.
#[derive(Clone, Copy)]
pub(crate) struct DenseViewRef<'a> {
    /// Clusters holding an instance of each node (indexed by node).
    pub instances: &'a [ClusterSet],
    /// Values still communicated, sorted by node id.
    pub coms: &'a [NodeId],
    /// Source cluster of each communicated value, aligned with `coms`.
    pub com_src: &'a [u8],
}

/// [`dead_instances_into`] over a [`DenseViewRef`] and a precomputed
/// always-anchor slice. The anchor pass reads one bool per node and then
/// walks the (short) communicated list directly — no per-node binary
/// search. The worklist propagation reaches the same fixpoint whatever
/// order the anchors were seeded in, and the dead list is generated by
/// the same ascending node scan, so the result is bit-identical to the
/// [`ViewRef`] path.
pub(crate) fn dead_instances_dense(
    ddg: &Ddg,
    view: DenseViewRef<'_>,
    always_anchor: &[bool],
    live: &mut Vec<ClusterSet>,
    worklist: &mut Vec<(NodeId, u8)>,
    dead: &mut Vec<(NodeId, u8)>,
) {
    let n = ddg.node_count();
    live.clear();
    live.resize(n, ClusterSet::empty());
    worklist.clear();

    for node in ddg.node_ids() {
        if always_anchor[node.index()] {
            let set = view.instances[node.index()];
            if !set.is_empty() {
                live[node.index()] = set;
                for c in set.iter() {
                    worklist.push((node, c));
                }
            }
        }
    }
    for (&node, &src) in view.coms.iter().zip(view.com_src) {
        if !always_anchor[node.index()]
            && view.instances[node.index()].contains(src)
            && !live[node.index()].contains(src)
        {
            live[node.index()].insert(src);
            worklist.push((node, src));
        }
    }

    while let Some((node, cluster)) = worklist.pop() {
        for e in ddg.in_edges(node) {
            if !e.is_data() {
                continue;
            }
            let p = e.src;
            if view.instances[p.index()].contains(cluster) && !live[p.index()].contains(cluster) {
                live[p.index()].insert(cluster);
                worklist.push((p, cluster));
            }
        }
    }

    dead.clear();
    for node in ddg.node_ids() {
        for c in view.instances[node.index()]
            .difference(live[node.index()])
            .iter()
        {
            dead.push((node, c));
        }
    }
}

/// Epoch-stamped buffers for [`dead_after_decommunicating`] — region
/// membership and liveness marks never need clearing between queries, a
/// bump of the epoch invalidates them all at once.
#[derive(Clone, Debug, Default)]
pub(crate) struct RegionScratch {
    mark: Vec<u32>,
    live: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    list: Vec<NodeId>,
}

/// The dead set after the communication of `com` disappears, computed on
/// the **affected region only** instead of the whole graph.
///
/// Precondition (checked by the callers' debug assertions against
/// [`dead_instances_dense`]): every instance in `instances` is currently
/// live, and the hypothetical state differs from it by (a) dropping `com`
/// from the communicated set and (b) adding instances only in clusters
/// other than `c0 = copy_source(com)`. Then:
///
/// * liveness propagates along same-cluster data edges only, so clusters
///   other than `c0` see a monotone change (instances and anchors only
///   grow) — nothing that exists today can die there;
/// * within `c0` the only lost derivation is the communication anchor of
///   `(com, c0)`, so any instance that dies lies in the backward
///   same-cluster closure of `(com, c0)` — the region below;
/// * a region member with a data successor **outside** the region holding
///   an instance in `c0` stays live: that successor's own liveness cannot
///   depend on the region (a same-cluster path from it into the region
///   would put it in the region).
///
/// `is_com` marks the values communicated *before* the removal (`com`
/// itself is excluded explicitly); `copy_src(v)` must equal the incumbent
/// copy source of each communicated `v`. `dead` receives the dead
/// instances in ascending node order — the order the full dense scan
/// emits, every entry being in cluster `c0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dead_after_decommunicating(
    ddg: &Ddg,
    instances: &[ClusterSet],
    com: NodeId,
    c0: u8,
    is_com: &[bool],
    copy_src: impl Fn(NodeId) -> u8,
    always_anchor: &[bool],
    scratch: &mut RegionScratch,
    dead: &mut Vec<(NodeId, u8)>,
) {
    let n = ddg.node_count();
    scratch.mark.resize(n, 0);
    scratch.live.resize(n, 0);
    scratch.epoch += 1;
    let epoch = scratch.epoch;

    // Region: backward closure of (com, c0) along data edges whose source
    // also holds an instance in c0.
    scratch.stack.clear();
    scratch.list.clear();
    scratch.mark[com.index()] = epoch;
    scratch.stack.push(com);
    while let Some(u) = scratch.stack.pop() {
        scratch.list.push(u);
        for &p in ddg.data_preds(u) {
            if scratch.mark[p.index()] != epoch && instances[p.index()].contains(c0) {
                scratch.mark[p.index()] = epoch;
                scratch.stack.push(p);
            }
        }
    }

    // Seed: unconditional anchors, surviving communication anchors, and
    // members with a live out-of-region consumer in c0.
    scratch.stack.clear();
    for &u in &scratch.list {
        let anchored = always_anchor[u.index()]
            || (u != com && is_com[u.index()] && copy_src(u) == c0)
            || ddg
                .data_succs(u)
                .iter()
                .any(|&s| scratch.mark[s.index()] != epoch && instances[s.index()].contains(c0));
        if anchored {
            scratch.live[u.index()] = epoch;
            scratch.stack.push(u);
        }
    }
    // Propagate liveness backward within the region.
    while let Some(u) = scratch.stack.pop() {
        for &p in ddg.data_preds(u) {
            if scratch.mark[p.index()] == epoch && scratch.live[p.index()] != epoch {
                scratch.live[p.index()] = epoch;
                scratch.stack.push(p);
            }
        }
    }

    dead.clear();
    for &u in &scratch.list {
        if scratch.live[u.index()] != epoch {
            dead.push((u, c0));
        }
    }
    dead.sort_unstable();
}

/// [`live_instances`] over borrowed state and caller-owned buffers; `live`
/// receives the result. Bit-identical to the owning entry point.
pub(crate) fn live_instances_into(
    ddg: &Ddg,
    view: ViewRef<'_>,
    on_cycle: &[bool],
    live: &mut Vec<ClusterSet>,
    worklist: &mut Vec<(NodeId, u8)>,
) {
    let n = ddg.node_count();
    live.clear();
    live.resize(n, ClusterSet::empty());
    worklist.clear();

    let anchor = |node: NodeId,
                  cluster: u8,
                  live: &mut Vec<ClusterSet>,
                  worklist: &mut Vec<(NodeId, u8)>| {
        if view.instances[node.index()].contains(cluster) && !live[node.index()].contains(cluster) {
            live[node.index()].insert(cluster);
            worklist.push((node, cluster));
        }
    };

    for node in ddg.node_ids() {
        let kind = ddg.kind(node);
        if kind == cvliw_ddg::OpKind::Store || !ddg.has_data_succs(node) || on_cycle[node.index()] {
            for c in view.instances[node.index()].iter() {
                anchor(node, c, live, worklist);
            }
        } else if view.coms.binary_search(&node).is_ok() {
            anchor(node, view.com_source[node.index()], live, worklist);
        }
    }

    while let Some((node, cluster)) = worklist.pop() {
        for e in ddg.in_edges(node) {
            if !e.is_data() {
                continue;
            }
            let p = e.src;
            if view.instances[p.index()].contains(cluster) && !live[p.index()].contains(cluster) {
                live[p.index()].insert(cluster);
                worklist.push((p, cluster));
            }
        }
    }
}

/// Computes the live instances of a configuration.
///
/// Anchors (always live): store instances, the source instance of every
/// communicated value, the instances of any producer without data
/// consumers (a live-out value), and the instances of every node on a
/// dependence cycle (recurrence values — accumulators — are observable
/// after the loop; the paper's Figure-5 rule likewise never removes them).
/// Liveness then propagates backwards along same-cluster data dependences:
/// the producer instance a live consumer reads locally is live.
///
/// These anchors guarantee every node keeps at least one live instance:
/// walking any dependence chain downwards ends at a store, a leaf or a
/// recurrence, all anchored; a node whose live consumer sits in another
/// cluster is communicated and anchored at its source.
#[must_use]
pub fn live_instances(ddg: &Ddg, view: &InstanceView) -> Vec<ClusterSet> {
    let mut on_cycle = Vec::new();
    on_cycle_into(ddg, &mut on_cycle);
    let coms: Vec<NodeId> = view.coms.iter().copied().collect();
    let mut live = Vec::new();
    let mut worklist = Vec::new();
    live_instances_into(
        ddg,
        ViewRef {
            instances: &view.instances,
            coms: &coms,
            com_source: &view.com_source,
        },
        &on_cycle,
        &mut live,
        &mut worklist,
    );
    live
}

/// The dead (removable) instances of a configuration: every existing
/// instance that [`live_instances`] does not mark live.
#[must_use]
pub fn dead_instances(ddg: &Ddg, view: &InstanceView) -> Vec<(NodeId, u8)> {
    let live = live_instances(ddg, view);
    let mut dead = Vec::new();
    for node in ddg.node_ids() {
        for c in view.instances[node.index()]
            .difference(live[node.index()])
            .iter()
        {
            dead.push((node, c));
        }
    }
    dead
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn view(ddg: &Ddg, parts: &[u8], coms: &[u32]) -> InstanceView {
        let asg = Assignment::from_partition(parts);
        let coms: BTreeSet<NodeId> = coms.iter().map(|&i| NodeId::new(i)).collect();
        InstanceView::from_assignment(ddg, &asg, &coms)
    }

    #[test]
    fn stores_and_their_feeders_are_live() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m).data(m, st);
        let ddg = b.build().unwrap();
        let v = view(&ddg, &[0, 0, 0], &[]);
        assert!(dead_instances(&ddg, &v).is_empty());
    }

    #[test]
    fn unconsumed_producer_is_live_out() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let _ = a;
        let ddg = b.build().unwrap();
        let v = view(&ddg, &[0], &[]);
        assert!(dead_instances(&ddg, &v).is_empty());
    }

    #[test]
    fn communicated_value_keeps_its_source() {
        // producer in cluster 0, consumer in cluster 1 → com keeps n0@0.
        let mut b = Ddg::builder();
        let p = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpAdd);
        b.data(p, c);
        let ddg = b.build().unwrap();
        let v = view(&ddg, &[0, 1], &[0]);
        assert!(dead_instances(&ddg, &v).is_empty());
    }

    #[test]
    fn replicated_producer_original_dies_when_unread() {
        // E-like case: producer replicated next to both consumers; original
        // instance no longer communicated and has no local readers.
        let mut b = Ddg::builder();
        let e = b.add_node(OpKind::FpAdd);
        let j = b.add_node(OpKind::FpAdd);
        let g = b.add_node(OpKind::FpAdd);
        b.data(e, j).data(e, g);
        let ddg = b.build().unwrap();
        let asg = {
            let mut a = Assignment::from_partition(&[2, 1, 3]);
            a.add_instance(e, 1);
            a.add_instance(e, 3);
            a
        };
        let v = InstanceView::from_assignment(&ddg, &asg, &BTreeSet::new());
        let dead = dead_instances(&ddg, &v);
        assert_eq!(dead, vec![(e, 2)]);
    }

    #[test]
    fn communicated_replica_source_survives() {
        // Same as above but the value still communicated (e.g. a third
        // consumer elsewhere): the source instance must survive.
        let mut b = Ddg::builder();
        let e = b.add_node(OpKind::FpAdd);
        let j = b.add_node(OpKind::FpAdd);
        let g = b.add_node(OpKind::FpAdd);
        let k = b.add_node(OpKind::FpAdd);
        b.data(e, j).data(e, g).data(e, k);
        let ddg = b.build().unwrap();
        let mut asg = Assignment::from_partition(&[2, 1, 3, 0]);
        asg.add_instance(e, 1);
        asg.add_instance(e, 3);
        let coms: BTreeSet<NodeId> = [e].into_iter().collect();
        let v = InstanceView::from_assignment(&ddg, &asg, &coms);
        assert!(dead_instances(&ddg, &v).is_empty());
    }

    #[test]
    fn dead_chains_cascade() {
        // a → b → c(store in another cluster via copy is NOT how stores
        // work; instead): a → b, b communicated… here: a and b in cluster 0,
        // consumer moved entirely to cluster 1 with replicas a', b' — the
        // originals both die.
        let mut b_ = Ddg::builder();
        let a = b_.add_node(OpKind::IntAdd);
        let b = b_.add_node(OpKind::IntMul);
        let c = b_.add_node(OpKind::Store);
        b_.data(a, b).data(b, c);
        let ddg = b_.build().unwrap();
        let mut asg = Assignment::from_partition(&[0, 0, 1]);
        asg.add_instance(a, 1);
        asg.add_instance(b, 1);
        let v = InstanceView::from_assignment(&ddg, &asg, &BTreeSet::new());
        let dead = dead_instances(&ddg, &v);
        assert_eq!(dead, vec![(a, 0), (b, 0)]);
    }

    #[test]
    fn closed_recurrence_chain_is_anchored() {
        // An accumulator ring that feeds nothing else (its value is only
        // observable after the loop): every instance must stay live — the
        // regression that once removed entire store-less recurrence chains.
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpMul);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        let ddg = b.build().unwrap();
        let v = view(&ddg, &[0, 0, 0], &[]);
        assert!(dead_instances(&ddg, &v).is_empty());
    }

    #[test]
    fn every_node_keeps_an_instance_after_removal() {
        // A communicated chain plus a recurrence: removing communications
        // must never leave a node with zero instances.
        let mut b = Ddg::builder();
        let acc = b.add_node(OpKind::FpAdd);
        b.data_dist(acc, acc, 1);
        let p = b.add_node(OpKind::IntAdd);
        let c = b.add_node(OpKind::Store);
        b.data(p, c).data(p, acc);
        let ddg = b.build().unwrap();
        let mut asg = Assignment::from_partition(&[0, 1, 2]);
        asg.add_instance(p, 2);
        asg.add_instance(p, 0);
        let v = InstanceView::from_assignment(&ddg, &asg, &BTreeSet::new());
        let live = live_instances(&ddg, &v);
        for n in ddg.node_ids() {
            assert!(!live[n.index()].is_empty(), "{n} lost all instances");
        }
    }

    #[test]
    fn local_consumer_keeps_partial_chain() {
        // b has a local consumer in cluster 0, so only nothing dies even
        // though b is also replicated into cluster 1.
        let mut b_ = Ddg::builder();
        let a = b_.add_node(OpKind::IntAdd);
        let b = b_.add_node(OpKind::IntMul);
        let local = b_.add_node(OpKind::Store);
        let remote = b_.add_node(OpKind::Store);
        b_.data(a, b).data(b, local).data(b, remote);
        let ddg = b_.build().unwrap();
        let mut asg = Assignment::from_partition(&[0, 0, 0, 1]);
        asg.add_instance(a, 1);
        asg.add_instance(b, 1);
        let v = InstanceView::from_assignment(&ddg, &asg, &BTreeSet::new());
        assert!(dead_instances(&ddg, &v).is_empty());
    }
}
