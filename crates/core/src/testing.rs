//! Test-only reference implementations of the paper's two core algorithms,
//! compiled for this crate's own tests and for dependents that enable the
//! `testing` feature (only dev-dependencies do): never part of a release
//! build.
//!
//! Each is the simplest executable form of its rule, on ordered maps and
//! owned state: [`replication_plan`] walks Figure 4 for one communicated
//! value, [`dead_instances`] runs Figure 5 with its own recurrence
//! analysis, and [`share_counts`]/[`plan_weight`] weigh plans as §3.3
//! states. The differential tests require the production paths — the
//! [`ReplicationEngine`](crate::ReplicationEngine)'s plan arena, the §5.1
//! extension's per-candidate walk and the dense liveness query exposed as
//! [`dense_dead_instances`] — to agree with them exactly.

use std::collections::{BTreeMap, BTreeSet};

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};

use crate::liveness::{always_anchor_into, dead_instances_dense, DenseViewRef};
use crate::ReplicationPlan;

/// A hypothetical instance configuration to run liveness over.
#[derive(Clone, Debug)]
pub struct InstanceView {
    /// Clusters holding an instance of each node (indexed by node).
    pub instances: Vec<ClusterSet>,
    /// Values still communicated over a bus.
    pub coms: BTreeSet<NodeId>,
    /// Source cluster each communicated value is read from (indexed by
    /// node).
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

/// The live instances of a configuration under the Figure-5 rule: stores,
/// leaves, recurrence members (found here by a fresh SCC pass over the
/// graph) and the source instance of every communicated value are live,
/// and liveness propagates backwards along same-cluster data edges.
fn live_instances(ddg: &Ddg, view: &InstanceView) -> Vec<ClusterSet> {
    let mut on_cycle = vec![false; ddg.node_count()];
    for comp in cvliw_ddg::sccs(ddg).iter() {
        // Only membership matters: under zero latencies every recurrence
        // is satisfied at II 1, so the RecMII search stops at its first
        // probe.
        if cvliw_ddg::scc_rec_mii(ddg, comp, |_| 0).is_some() {
            for &node in comp {
                on_cycle[node.index()] = true;
            }
        }
    }

    let mut live = vec![ClusterSet::empty(); ddg.node_count()];
    let mut worklist: Vec<(NodeId, u8)> = Vec::new();
    let mut mark = |node: NodeId, cluster: u8, worklist: &mut Vec<(NodeId, u8)>| {
        if view.instances[node.index()].contains(cluster) && !live[node.index()].contains(cluster) {
            live[node.index()].insert(cluster);
            worklist.push((node, cluster));
        }
    };
    for node in ddg.node_ids() {
        if ddg.kind(node) == cvliw_ddg::OpKind::Store
            || !ddg.has_data_succs(node)
            || on_cycle[node.index()]
        {
            for c in view.instances[node.index()].iter() {
                mark(node, c, &mut worklist);
            }
        } else if view.coms.contains(&node) {
            mark(node, view.com_source[node.index()], &mut worklist);
        }
    }
    while let Some((node, cluster)) = worklist.pop() {
        for &p in ddg.data_preds(node) {
            mark(p, cluster, &mut worklist);
        }
    }
    live
}

/// The dead (removable) instances of a configuration: every existing
/// instance that the Figure-5 rule does not mark live, ascending.
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

/// The production Figure-5 query over the same configuration: recurrence
/// anchors from `analysis`, the dense liveness pass the replication engine
/// and the §5.1 extension run.
#[must_use]
pub fn dense_dead_instances(
    ddg: &Ddg,
    analysis: &LoopAnalysis,
    view: &InstanceView,
) -> Vec<(NodeId, u8)> {
    let mut always_anchor = Vec::new();
    always_anchor_into(ddg, analysis.on_cycle(), &mut always_anchor);
    let coms: Vec<NodeId> = view.coms.iter().copied().collect();
    let com_src: Vec<u8> = coms.iter().map(|v| view.com_source[v.index()]).collect();
    let (mut live, mut worklist, mut dead) = (Vec::new(), Vec::new(), Vec::new());
    dead_instances_dense(
        ddg,
        DenseViewRef {
            instances: &view.instances,
            coms: &coms,
            com_src: &com_src,
        },
        &always_anchor,
        &mut live,
        &mut worklist,
        &mut dead,
    );
    dead
}

/// Computes the replication plan of `com` (Figure 4, applied per target
/// cluster): walk upwards from `com`; parents whose values are themselves
/// communicated are available everywhere and stop the walk, as do parents
/// that already have an instance in the target cluster.
#[must_use]
pub fn replication_plan(
    ddg: &Ddg,
    assignment: &Assignment,
    coms: &BTreeSet<NodeId>,
    com: NodeId,
) -> ReplicationPlan {
    let targets = assignment.missing_consumer_clusters(ddg, com);
    replication_plan_into(ddg, assignment, coms, com, targets)
}

/// Like [`replication_plan`] but replicating only into the given clusters.
///
/// The oracle of the §5.1 schedule-length extension's per-candidate walk,
/// which copies a producer next to one critical consumer without
/// necessarily removing the communication (Figure 11 of the paper).
#[must_use]
pub fn replication_plan_into(
    ddg: &Ddg,
    assignment: &Assignment,
    coms: &BTreeSet<NodeId>,
    com: NodeId,
    targets: ClusterSet,
) -> ReplicationPlan {
    let mut adds: BTreeMap<NodeId, ClusterSet> = BTreeMap::new();

    for target in targets.iter() {
        let mut stack = vec![com];
        let mut visited: BTreeSet<NodeId> = BTreeSet::new();
        while let Some(u) = stack.pop() {
            if !visited.insert(u) {
                continue;
            }
            if assignment.instances(u).contains(target) {
                continue; // already available locally
            }
            adds.entry(u).or_default().insert(target);
            for &p in ddg.data_preds(u) {
                if coms.contains(&p) && p != com {
                    continue; // broadcast value: available in every cluster
                }
                stack.push(p);
            }
        }
    }

    // Anticipate removable instances: liveness over the hypothetical state,
    // with the communication set recomputed for the hypothetical instances
    // (a partial replication may leave `com` communicated).
    let mut hypothetical = assignment.clone();
    for (&n, &set) in &adds {
        for c in set.iter() {
            hypothetical.add_instance(n, c);
        }
    }
    let hyp_coms: BTreeSet<NodeId> = hypothetical.communicated(ddg).into_iter().collect();
    let view = InstanceView::from_assignment(ddg, &hypothetical, &hyp_coms);
    let removable: Vec<(NodeId, u8)> = dead_instances(ddg, &view)
        .into_iter()
        // only instances that exist today count as removals
        .filter(|&(n, c)| assignment.instances(n).contains(c))
        .collect();

    ReplicationPlan {
        com,
        targets,
        adds,
        removable,
    }
}

/// How many plans would reuse each `(node, cluster)` replica: the sharing
/// divisor of §3.3 ("if a node belongs to more than one subgraph, it can be
/// replicated once and used more times").
#[must_use]
pub fn share_counts(plans: &BTreeMap<NodeId, ReplicationPlan>) -> BTreeMap<(NodeId, u8), u32> {
    let mut counts: BTreeMap<(NodeId, u8), u32> = BTreeMap::new();
    for plan in plans.values() {
        for (&n, &set) in &plan.adds {
            for c in set.iter() {
                *counts.entry((n, c)).or_insert(0) += 1;
            }
        }
    }
    counts
}

/// The §3.3 weight of a plan: the load each new instance brings its target
/// cluster's units to, divided by the number of plans sharing that replica,
/// minus one freed slot per removable instance. The production form is
/// the engine's dense weights
/// ([`ReplicationEngine::weights`](crate::ReplicationEngine::weights)).
#[must_use]
pub fn plan_weight(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    assignment: &Assignment,
    shares: &BTreeMap<(NodeId, u8), u32>,
    plan: &ReplicationPlan,
) -> f64 {
    let usage = assignment.class_usage(ddg, machine.clusters());
    let extra = plan.added_by_class_per_cluster(ddg, machine.clusters());
    let mut weight = 0.0;
    for (&n, &set) in &plan.adds {
        let class = ddg.kind(n).class();
        for c in set.iter() {
            let denom = f64::from(u32::from(machine.fu_count_in(c, class)) * ii);
            let load =
                f64::from(usage[c as usize][class.index()] + extra[c as usize][class.index()]);
            let share = f64::from(*shares.get(&(n, c)).unwrap_or(&1));
            weight += load / denom / share;
        }
    }
    for &(n, c) in &plan.removable {
        let class = ddg.kind(n).class();
        let denom = f64::from(u32::from(machine.fu_count_in(c, class)) * ii);
        weight -= 1.0 / denom;
    }
    weight
}

/// The §5.1 extension in its whole-graph form: per round one ASAP/ALAP
/// solve; per candidate a full communication recount, a whole-graph
/// Figure-5 query and a fresh latency vector. The differential tests
/// require [`crate::extend_for_length`], which prices candidates against
/// the round's state instead, to return the same assignment and count the
/// same `[rounds, candidates, commits]`.
#[must_use]
pub fn extend_for_length_oracle(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut assignment: Assignment,
    analysis: &LoopAnalysis,
) -> (Assignment, [u64; 3]) {
    let node_lat = analysis.node_lat();
    let order = analysis.topo_order();
    let n = ddg.node_count();
    let mut counts = [0u64; 3];
    let mut always_anchor = Vec::new();
    always_anchor_into(ddg, analysis.on_cycle(), &mut always_anchor);
    let (mut asap, mut alap, mut cand_asap) = (Vec::new(), Vec::new(), Vec::new());
    let (mut live, mut worklist, mut dead) = (Vec::new(), Vec::new(), Vec::new());

    for _ in 0..crate::sched_len::MAX_ROUNDS {
        counts[0] += 1;
        let edge_lat: Vec<u32> = ddg
            .edges()
            .map(crate::sched_len::comm_lat(machine, &assignment, node_lat))
            .collect();
        let Some(current_len) =
            cvliw_ddg::longest_paths(ddg, order, ii, &edge_lat, &mut asap, Some(&mut alap))
        else {
            return (assignment, counts);
        };
        let coms = assignment.communicated(ddg);
        let mut is_com = vec![false; n];
        for &v in &coms {
            is_com[v.index()] = true;
        }
        let usage = assignment.class_usage(ddg, machine.clusters());

        let mut committed = false;
        'edges: for (idx, e) in ddg.edges().enumerate() {
            if !e.is_data() {
                continue;
            }
            let missing = assignment
                .instances(e.dst)
                .difference(assignment.instances(e.src));
            if missing.is_empty() {
                continue;
            }
            let slack = alap[e.dst.index()] - asap[e.src.index()] - i64::from(edge_lat[idx])
                + i64::from(ii) * i64::from(e.distance);
            if slack != 0 {
                continue;
            }
            let com = e.src;
            for target in missing.iter() {
                counts[1] += 1;
                // Figure 4 towards `target` alone.
                let mut visited = vec![false; n];
                let mut adds = Vec::new();
                let mut stack = vec![com];
                while let Some(u) = stack.pop() {
                    if std::mem::replace(&mut visited[u.index()], true) {
                        continue;
                    }
                    if assignment.instances(u).contains(target) {
                        continue;
                    }
                    adds.push(u);
                    for &p in ddg.data_preds(u) {
                        if !(is_com[p.index()] && p != com) {
                            stack.push(p);
                        }
                    }
                }
                adds.sort_unstable();
                for &u in &adds {
                    assignment.add_instance(u, target);
                }
                // Figure 5 over the whole applied state; an added pair is
                // not a removal.
                let cand_coms = assignment.communicated(ddg);
                let com_src: Vec<u8> = cand_coms
                    .iter()
                    .map(|&v| assignment.copy_source(v))
                    .collect();
                dead_instances_dense(
                    ddg,
                    DenseViewRef {
                        instances: assignment.instance_sets(),
                        coms: &cand_coms,
                        com_src: &com_src,
                    },
                    &always_anchor,
                    &mut live,
                    &mut worklist,
                    &mut dead,
                );
                let removable: Vec<(NodeId, u8)> = dead
                    .iter()
                    .copied()
                    .filter(|&(u, c)| !(c == target && adds.binary_search(&u).is_ok()))
                    .collect();
                let fits = (0..machine.clusters()).all(|c| {
                    cvliw_ddg::OpClass::ALL.into_iter().all(|class| {
                        let extra = if c == target {
                            adds.iter()
                                .filter(|&&u| ddg.kind(u).class() == class)
                                .count() as u32
                        } else {
                            0
                        };
                        let freed = removable
                            .iter()
                            .filter(|&&(u, rc)| rc == c && ddg.kind(u).class() == class)
                            .count() as u32;
                        let cap = u32::from(machine.fu_count_in(c, class)) * ii;
                        usage[c as usize][class.index()] + extra <= cap + freed
                    })
                });
                let shorter = fits
                    && cand_coms.len() as u32 <= machine.coms_capacity_per_ii(ii)
                    && {
                        let cand_lat: Vec<u32> = ddg
                            .edges()
                            .map(crate::sched_len::comm_lat(machine, &assignment, node_lat))
                            .collect();
                        matches!(
                            cvliw_ddg::longest_paths(ddg, order, ii, &cand_lat, &mut cand_asap, None),
                            Some(len) if len < current_len
                        )
                    };
                if shorter {
                    counts[2] += 1;
                    committed = true;
                    break 'edges;
                }
                for &u in &adds {
                    assignment.remove_instance(u, target);
                }
            }
        }
        if !committed {
            break;
        }
    }
    (assignment, counts)
}

/// The `[rounds, candidates, commits]` the §5.1 extension counted in
/// `scratch`, in the order [`extend_for_length_oracle`] returns them.
#[must_use]
pub fn sched_len_counts(scratch: &crate::EngineScratch) -> [u64; 3] {
    [
        scratch.sched_len_rounds,
        scratch.sched_len_candidates,
        scratch.sched_len_commits,
    ]
}
