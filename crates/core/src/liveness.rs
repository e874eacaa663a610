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

use cvliw_ddg::{Ddg, NodeId};
use cvliw_sched::ClusterSet;

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

/// The borrowed ingredients of a liveness query: instance sets, the
/// communicated values and their copy-source clusters. The copy-source
/// slice is aligned with `coms` (one entry per communicated value) instead
/// of indexed by node, so callers fill `O(|coms|)` bytes per query instead
/// of `O(V)`.
#[derive(Clone, Copy)]
pub(crate) struct DenseViewRef<'a> {
    /// Clusters holding an instance of each node (indexed by node).
    pub instances: &'a [ClusterSet],
    /// Values still communicated, sorted by node id.
    pub coms: &'a [NodeId],
    /// Source cluster of each communicated value, aligned with `coms`.
    pub com_src: &'a [u8],
}

/// The Figure-5 query: the live instances of a configuration into `live`,
/// and every existing instance not marked live into `dead`, ascending by
/// node then cluster.
///
/// Anchors (always live): store instances, the source instance of every
/// communicated value, the instances of any producer without data
/// consumers (a live-out value), and the instances of every node on a
/// dependence cycle (recurrence values — accumulators — are observable
/// after the loop; the paper's Figure-5 rule likewise never removes them).
/// The unconditional anchors — stores, leaves and recurrence members —
/// come precomputed in `always_anchor` ([`always_anchor_into`]), so the
/// anchor pass reads one bool per node and then walks the (short)
/// communicated list. Liveness then propagates backwards along
/// same-cluster data dependences: the producer instance a live consumer
/// reads locally is live.
///
/// These anchors guarantee every node keeps at least one live instance:
/// walking any dependence chain downwards ends at a store, a leaf or a
/// recurrence, all anchored; a node whose live consumer sits in another
/// cluster is communicated and anchored at its source.
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

/// The dead set after the bus anchor of `(com, c0)` disappears, computed
/// on the **affected region only** instead of the whole graph.
///
/// `live` holds the Figure-5 live instance sets of the current state (its
/// instance sets when every instance is live). Precondition (checked by
/// the callers' debug assertions against [`dead_instances_dense`]): the
/// hypothetical state differs from the current one by (a) dropping the
/// communication anchor of `(com, c0)`, where `c0` is `com`'s current copy
/// source — `com` stops being communicated, or is read from another
/// cluster — and (b) adding instances only in clusters other than `c0`.
/// Then:
///
/// * liveness propagates along same-cluster data edges only, so nothing
///   in `c0` can come alive, and nothing that is live today in another
///   cluster can die there (instances and anchors only grow);
/// * within `c0` the only lost derivation is the anchor of `(com, c0)`, so
///   any instance that dies lies in the backward same-cluster closure of
///   `(com, c0)` through live instances — the region below;
/// * a region member with a data successor **outside** the region live in
///   `c0` stays live: that successor's own liveness cannot depend on the
///   region (a same-cluster path from it into the region would put it in
///   the region).
///
/// `is_com` marks the values communicated *before* the change (`com`
/// itself is excluded explicitly); `copy_src(v)` must equal the incumbent
/// copy source of each communicated `v`. `dead` receives the instances
/// that die, in ascending node order — every entry in cluster `c0`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dead_after_decommunicating(
    ddg: &Ddg,
    live: &[ClusterSet],
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
    // also holds a live instance in c0.
    scratch.stack.clear();
    scratch.list.clear();
    scratch.mark[com.index()] = epoch;
    scratch.stack.push(com);
    while let Some(u) = scratch.stack.pop() {
        scratch.list.push(u);
        for &p in ddg.data_preds(u) {
            if scratch.mark[p.index()] != epoch && live[p.index()].contains(c0) {
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
                .any(|&s| scratch.mark[s.index()] != epoch && live[s.index()].contains(c0));
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

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;
    use cvliw_machine::MachineConfig;
    use cvliw_sched::{Assignment, LoopAnalysis};

    /// The production query over `asg` with `coms` communicated from their
    /// copy sources, anchored as the pipeline anchors it (recurrence
    /// membership from the loop's `LoopAnalysis`): `(live, dead)`.
    fn query(ddg: &Ddg, asg: &Assignment, coms: &[NodeId]) -> (Vec<ClusterSet>, Vec<(NodeId, u8)>) {
        let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let analysis = LoopAnalysis::new(ddg, &machine);
        let mut anchor = Vec::new();
        always_anchor_into(ddg, analysis.on_cycle(), &mut anchor);
        let com_src: Vec<u8> = coms.iter().map(|&v| asg.copy_source(v)).collect();
        let (mut live, mut worklist, mut dead) = (Vec::new(), Vec::new(), Vec::new());
        dead_instances_dense(
            ddg,
            DenseViewRef {
                instances: asg.instance_sets(),
                coms,
                com_src: &com_src,
            },
            &anchor,
            &mut live,
            &mut worklist,
            &mut dead,
        );
        (live, dead)
    }

    fn dead(ddg: &Ddg, asg: &Assignment, coms: &[NodeId]) -> Vec<(NodeId, u8)> {
        query(ddg, asg, coms).1
    }

    /// [`dead`] over a plain partition, `coms` given by node index.
    fn dead_in(ddg: &Ddg, parts: &[u8], coms: &[u32]) -> Vec<(NodeId, u8)> {
        let coms: Vec<NodeId> = coms.iter().map(|&i| NodeId::new(i)).collect();
        dead(ddg, &Assignment::from_partition(parts), &coms)
    }

    #[test]
    fn stores_and_their_feeders_are_live() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m).data(m, st);
        let ddg = b.build().unwrap();
        assert!(dead_in(&ddg, &[0, 0, 0], &[]).is_empty());
    }

    #[test]
    fn unconsumed_producer_is_live_out() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let _ = a;
        let ddg = b.build().unwrap();
        assert!(dead_in(&ddg, &[0], &[]).is_empty());
    }

    #[test]
    fn communicated_value_keeps_its_source() {
        // producer in cluster 0, consumer in cluster 1 → com keeps n0@0.
        let mut b = Ddg::builder();
        let p = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpAdd);
        b.data(p, c);
        let ddg = b.build().unwrap();
        assert!(dead_in(&ddg, &[0, 1], &[0]).is_empty());
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
        assert_eq!(dead(&ddg, &asg, &[]), vec![(e, 2)]);
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
        assert!(dead(&ddg, &asg, &[e]).is_empty());
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
        assert_eq!(dead(&ddg, &asg, &[]), vec![(a, 0), (b, 0)]);
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
        assert!(dead_in(&ddg, &[0, 0, 0], &[]).is_empty());
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
        let (live, _) = query(&ddg, &asg, &[]);
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
        assert!(dead(&ddg, &asg, &[]).is_empty());
    }
}
