//! §5.1: replicate to reduce the schedule length.
//!
//! For loops with small trip counts the prolog/epilog dominates execution
//! time, so shaving the schedule length matters more than the II. The
//! extension finds communication edges on the critical path of one
//! iteration and copies the producer's subgraph into just the consumer's
//! cluster (Figure 11) — without necessarily removing the communication —
//! whenever that shortens the estimated schedule and fits the resources.
//!
//! Each round makes one pass of the assignment-adjusted edge latencies
//! ([`comm_lat`]). That vector feeds the longest-path kernel
//! ([`cvliw_ddg::longest_paths`], swept in `LoopAnalysis::topo_order()`),
//! whose ASAP and ALAP times give the round's length and every edge's
//! slack, and the zero-slack scan reads it again. The first candidate of a
//! round builds the round's state: the communicated list, the class
//! census and the dense Figure-5 liveness. Every candidate is then priced
//! against that state instead of the whole graph:
//!
//! * **communications**: adding instances can only remove
//!   communications, and only those of the added nodes and their data
//!   predecessors, so only those are rechecked;
//! * **removals**: the round's dead instances, less the ones the new
//!   instances revive in the target cluster, plus the ones that die in the
//!   replicated value's copy-source cluster when its bus anchor leaves —
//!   found on that region alone ([`dead_after_decommunicating`] bounded by
//!   the round's liveness);
//! * **length**: the round's latency vector, patched on the added nodes'
//!   in- and out-edges, then one ASAP solve.
//!
//! Every buffer lives in the [`EngineScratch`] the replication engine
//! uses, which also counts the rounds, candidates and commits.

use cvliw_ddg::{longest_paths, Ddg, NodeId, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};

use crate::engine::EngineScratch;
use crate::liveness::{
    always_anchor_into, dead_after_decommunicating, dead_instances_dense, DenseViewRef,
    RegionScratch,
};

/// Upper bound on extension rounds; each round commits one replication.
pub(crate) const MAX_ROUNDS: usize = 8;

/// The assignment-adjusted edge latency: the producer's base latency, plus
/// the transfer cost when some consumer instance lives in a cluster
/// without the producer (pair-dependent on point-to-point fabrics, the
/// flat bus latency on shared buses). `node_lat` is the cached per-node
/// producer latency vector of the loop's [`LoopAnalysis`]. An edge's value
/// depends only on the instances of its endpoints.
pub(crate) fn comm_lat<'a>(
    machine: &'a MachineConfig,
    assignment: &'a Assignment,
    node_lat: &'a [u32],
) -> impl Fn(&cvliw_ddg::Edge) -> u32 + 'a {
    let uniform = machine.uniform_transfer_latency();
    move |e: &cvliw_ddg::Edge| {
        let base = node_lat[e.src.index()];
        if !e.is_data() {
            return base;
        }
        let missing = assignment
            .instances(e.dst)
            .difference(assignment.instances(e.src));
        if missing.is_empty() {
            base
        } else {
            base + cvliw_sched::comm_penalty(machine, assignment, e.src, missing, uniform)
        }
    }
}

/// The §5.1 extension's own buffers, kept in the [`EngineScratch`] beside
/// the liveness and census buffers it shares with the engine. Epoch stamps
/// only ever grow, so a scratch moves between loops without clearing.
#[derive(Clone, Debug, Default)]
pub(crate) struct LengthScratch {
    /// The round's adjusted edge latencies, patched in place while a
    /// candidate is priced.
    edge_lat: Vec<u32>,
    /// `(edge id, round latency)` of every edge the candidate patched.
    patched: Vec<(u32, u32)>,
    /// The round's ASAP and ALAP times, and the candidate's ASAP times.
    asap: Vec<i64>,
    alap: Vec<i64>,
    cand_asap: Vec<i64>,
    /// The round's communicated values.
    is_com: Vec<bool>,
    /// Per-candidate stamps: walk visits, added nodes, and nodes whose
    /// target-cluster instance the candidate makes live.
    visited: Vec<u32>,
    added: Vec<u32>,
    revived: Vec<u32>,
    epoch: u32,
    stack: Vec<NodeId>,
    /// The candidate's added nodes, ascending.
    adds: Vec<NodeId>,
    /// Values the candidate stops communicating.
    gone: Vec<NodeId>,
    /// The candidate's removable instances, ascending.
    removable: Vec<(NodeId, u8)>,
    region: RegionScratch,
    region_dead: Vec<(NodeId, u8)>,
}

impl LengthScratch {
    /// Sizes the stamp buffers for an `n`-node loop.
    fn reset(&mut self, n: usize) {
        self.is_com.clear();
        self.is_com.resize(n, false);
        self.visited.resize(n, 0);
        self.added.resize(n, 0);
        self.revived.resize(n, 0);
    }

    /// A fresh stamp for the next candidate.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.visited.fill(0);
            self.added.fill(0);
            self.revived.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }

    /// The Figure-4 walk from `com` towards `target` alone, into `adds`
    /// (ascending): every node on the way not yet instantiated in
    /// `target`, stopping at values the bus already broadcasts.
    fn walk(&mut self, ddg: &Ddg, assignment: &Assignment, com: NodeId, target: u8, epoch: u32) {
        self.adds.clear();
        self.stack.clear();
        self.stack.push(com);
        while let Some(u) = self.stack.pop() {
            if self.visited[u.index()] == epoch {
                continue;
            }
            self.visited[u.index()] = epoch;
            if assignment.instances(u).contains(target) {
                continue; // already available locally
            }
            self.added[u.index()] = epoch;
            self.adds.push(u);
            for &p in ddg.data_preds(u) {
                if self.is_com[p.index()] && p != com {
                    continue; // broadcast value: available everywhere
                }
                self.stack.push(p);
            }
        }
        self.adds.sort_unstable();
    }

    /// The removable instances of the applied candidate (the adds of
    /// `com`'s walk, instantiated in `target`) into `removable`, ascending
    /// by node then cluster — exactly the dead instances of a whole-graph
    /// Figure-5 query over the applied state, added pairs excepted.
    ///
    /// `live` and `dead` are the round's Figure-5 liveness. Liveness only
    /// flows along same-cluster data edges, and the candidate changes two
    /// clusters:
    ///
    /// * `target` gains instances and anchors, so its liveness only grows:
    ///   the round's dead instances there stay dead unless a same-cluster
    ///   path now reaches an anchor through the new instances;
    /// * `c0`, `com`'s round copy source (never `target`), loses at most
    ///   `com`'s bus anchor — when `com` stops being communicated or its
    ///   copy source moves — so what dies there is confined to the backward
    ///   region of `(com, c0)`.
    #[allow(clippy::too_many_arguments)]
    fn removals(
        &mut self,
        ddg: &Ddg,
        assignment: &Assignment,
        live: &[ClusterSet],
        dead: &[(NodeId, u8)],
        always_anchor: &[bool],
        com: NodeId,
        c0: u8,
        target: u8,
        epoch: u32,
    ) {
        let com_stays = !self.gone.contains(&com);
        let src_now = assignment.copy_source(com);

        // Revive target-cluster instances from the new anchors: added
        // always-anchors, the moved copy source, and added instances with
        // a consumer already live in `target`.
        self.stack.clear();
        for &u in &self.adds {
            let anchored = always_anchor[u.index()]
                || (u == com && com_stays && src_now == target)
                || ddg
                    .data_succs(u)
                    .iter()
                    .any(|&s| live[s.index()].contains(target));
            if anchored {
                self.revived[u.index()] = epoch;
                self.stack.push(u);
            }
        }
        while let Some(v) = self.stack.pop() {
            for &p in ddg.data_preds(v) {
                if assignment.instances(p).contains(target)
                    && !live[p.index()].contains(target)
                    && self.revived[p.index()] != epoch
                {
                    self.revived[p.index()] = epoch;
                    self.stack.push(p);
                }
            }
        }

        self.region_dead.clear();
        if !com_stays || src_now != c0 {
            dead_after_decommunicating(
                ddg,
                live,
                com,
                c0,
                &self.is_com,
                |v| assignment.copy_source(v),
                always_anchor,
                &mut self.region,
                &mut self.region_dead,
            );
        }

        self.removable.clear();
        self.removable.extend(
            dead.iter()
                .copied()
                .filter(|&(u, c)| !(c == target && self.revived[u.index()] == epoch)),
        );
        if !self.region_dead.is_empty() {
            self.removable.extend_from_slice(&self.region_dead);
            self.removable.sort_unstable();
        }
    }

    /// Patches the round's latencies on the adds' in- and out-edges to the
    /// applied candidate's; [`LengthScratch::unpatch`] restores them.
    fn patch(&mut self, ddg: &Ddg, lat: impl Fn(&cvliw_ddg::Edge) -> u32) {
        self.patched.clear();
        for &u in &self.adds {
            for &id in ddg.out_edge_ids(u).iter().chain(ddg.in_edge_ids(u)) {
                let new = lat(ddg.edge(id));
                let old = self.edge_lat[id as usize];
                if new != old {
                    self.patched.push((id, old));
                    self.edge_lat[id as usize] = new;
                }
            }
        }
    }

    fn unpatch(&mut self) {
        for &(id, old) in self.patched.iter().rev() {
            self.edge_lat[id as usize] = old;
        }
    }
}

/// Applies the §5.1 extension: repeatedly pick a zero-slack cross-cluster
/// data edge, replicate the producer into that one consumer cluster, and
/// keep the change only if the estimated schedule length shrinks. Producer
/// latencies, the sweep order and recurrence membership are read from the
/// cached [`LoopAnalysis`]; every buffer comes from `scratch`, which also
/// counts the rounds, candidates and commits (see the module docs for how
/// a candidate is priced).
#[must_use]
pub fn extend_for_length(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut assignment: Assignment,
    analysis: &LoopAnalysis,
    scratch: &mut EngineScratch,
) -> Assignment {
    let EngineScratch {
        always_anchor,
        usage,
        com_src,
        live,
        worklist,
        dead,
        coms_buf: coms,
        len,
        sched_len_rounds,
        sched_len_candidates,
        sched_len_commits,
        ..
    } = scratch;
    let node_lat = analysis.node_lat();
    let order = analysis.topo_order();
    always_anchor_into(ddg, analysis.on_cycle(), always_anchor);
    len.reset(ddg.node_count());
    let capacity = machine.coms_capacity_per_ii(ii);

    for _ in 0..MAX_ROUNDS {
        *sched_len_rounds += 1;
        // One latency pass feeds the solve (length and slacks) and the
        // zero-slack scan.
        len.edge_lat.clear();
        len.edge_lat
            .extend(ddg.edges().map(comm_lat(machine, &assignment, node_lat)));
        let Some(current_len) = longest_paths(
            ddg,
            order,
            ii,
            &len.edge_lat,
            &mut len.asap,
            Some(&mut len.alap),
        ) else {
            return assignment;
        };

        let mut round_built = false;
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
            let slack =
                len.alap[e.dst.index()] - len.asap[e.src.index()] - i64::from(len.edge_lat[idx])
                    + i64::from(ii) * i64::from(e.distance);
            if slack != 0 {
                continue; // not on the critical path
            }
            if !round_built {
                // The round's state every candidate is priced against.
                round_built = true;
                assignment.communicated_into(ddg, coms);
                for &v in coms.iter() {
                    len.is_com[v.index()] = true;
                }
                com_src.clear();
                com_src.extend(coms.iter().map(|&v| assignment.copy_source(v)));
                assignment.class_usage_into(ddg, machine.clusters(), usage);
                dead_instances_dense(
                    ddg,
                    DenseViewRef {
                        instances: assignment.instance_sets(),
                        coms,
                        com_src,
                    },
                    always_anchor,
                    live,
                    worklist,
                    dead,
                );
            }
            // Replicate the producer into each consumer cluster that needs
            // it, one cluster at a time (Figure 11 replicates A into
            // cluster 1 only). Candidates are applied in place and undone
            // on rejection — exact, because the walk only records
            // instances absent from the target cluster.
            let com = e.src;
            let c0 = assignment.copy_source(com);
            for target in missing.iter() {
                *sched_len_candidates += 1;
                let epoch = len.next_epoch();
                len.walk(ddg, &assignment, com, target, epoch);
                for &u in &len.adds {
                    assignment.add_instance(u, target);
                }

                len.gone.clear();
                for &u in &len.adds {
                    for &v in std::iter::once(&u).chain(ddg.data_preds(u)) {
                        if len.is_com[v.index()]
                            && !len.gone.contains(&v)
                            && !assignment.needs_comm(ddg, v)
                        {
                            len.gone.push(v);
                        }
                    }
                }
                debug_assert!(
                    len.gone.iter().all(|&v| v == com),
                    "only the replicated value can stop being communicated"
                );
                let ncoms = (coms.len() - len.gone.len()) as u32;
                len.removals(
                    ddg,
                    &assignment,
                    live,
                    dead,
                    always_anchor,
                    com,
                    c0,
                    target,
                    epoch,
                );

                // The §3.3 feasibility rule on the round's usage census:
                // the target cluster must absorb the new instances, freed
                // slots credited.
                let fits = (0..machine.clusters()).all(|c| {
                    OpClass::ALL.into_iter().all(|class| {
                        let extra = if c == target {
                            len.adds
                                .iter()
                                .filter(|&&u| ddg.kind(u).class() == class)
                                .count() as u32
                        } else {
                            0
                        };
                        let freed = len
                            .removable
                            .iter()
                            .filter(|&&(u, rc)| rc == c && ddg.kind(u).class() == class)
                            .count() as u32;
                        let cap = u32::from(machine.fu_count_in(c, class)) * ii;
                        usage[c as usize][class.index()] + extra <= cap + freed
                    })
                });
                #[cfg(all(debug_assertions, feature = "testing"))]
                {
                    // Differential guard against the map-based oracle.
                    debug_assert_eq!(ncoms, assignment.comm_count(ddg));
                    for &u in &len.adds {
                        assignment.remove_instance(u, target);
                    }
                    let oracle_coms = assignment.communicated(ddg).into_iter().collect();
                    let oracle = crate::testing::replication_plan_into(
                        ddg,
                        &assignment,
                        &oracle_coms,
                        com,
                        ClusterSet::single(target),
                    );
                    debug_assert_eq!(oracle.subgraph(), len.adds);
                    debug_assert_eq!(oracle.removable, len.removable);
                    debug_assert_eq!(oracle.fits(ddg, machine, ii, &assignment), fits);
                    for &u in &len.adds {
                        assignment.add_instance(u, target);
                    }
                }
                // Bus bandwidth must keep fitting (replication can only
                // reduce the communication count, but be defensive); then
                // the candidate length needs the ASAP sweep only.
                let shorter = fits && ncoms <= capacity && {
                    len.patch(ddg, comm_lat(machine, &assignment, node_lat));
                    let new_len =
                        longest_paths(ddg, order, ii, &len.edge_lat, &mut len.cand_asap, None);
                    len.unpatch();
                    matches!(new_len, Some(new_len) if new_len < current_len)
                };
                if shorter {
                    *sched_len_commits += 1;
                    committed = true;
                    break 'edges;
                }
                for &u in &len.adds {
                    assignment.remove_instance(u, target);
                }
            }
        }
        if round_built {
            for &v in coms.iter() {
                len.is_com[v.index()] = false;
            }
        }
        if !committed {
            break;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    /// Estimated critical-path length of one iteration (issue span) with bus
    /// latency charged on cross-cluster data edges; `None` below RecMII.
    fn estimated_length(
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        assignment: &Assignment,
        node_lat: &[u32],
    ) -> Option<i64> {
        let lat: Vec<u32> = ddg
            .edges()
            .map(comm_lat(machine, assignment, node_lat))
            .collect();
        let order = cvliw_ddg::topo_order(ddg);
        longest_paths(ddg, &order, ii, &lat, &mut Vec::new(), None)
    }

    /// The Figure-11 situation: A feeds B (local), D (cluster 1) and F
    /// (cluster 3); the A→D edge is on the critical path.
    fn fig11() -> (Ddg, Assignment) {
        let mut bld = Ddg::builder();
        let a = bld.add_labeled(OpKind::IntAdd, "A");
        let b = bld.add_labeled(OpKind::IntAdd, "B");
        let c = bld.add_labeled(OpKind::IntAdd, "C");
        let d = bld.add_labeled(OpKind::IntAdd, "D");
        let e = bld.add_labeled(OpKind::IntAdd, "E");
        let f = bld.add_labeled(OpKind::IntAdd, "F");
        bld.data(a, b).data(b, c); // cluster 2 chain
        bld.data(a, d).data(d, e); // cluster 1 chain (critical: depth 3)
        bld.data(a, f); // cluster 3 single consumer
        let ddg = bld.build().unwrap();
        // clusters: A,B,C → 1 (index 1); D,E → 0; F → 2.
        let asg = Assignment::from_partition(&[1, 1, 1, 0, 0, 2]);
        (ddg, asg)
    }

    fn machine() -> MachineConfig {
        cvliw_machine::MachineConfig::new(
            4,
            2,
            1,
            64,
            cvliw_machine::FuCounts {
                int: 4,
                fp: 4,
                mem: 4,
            },
            cvliw_machine::LatencyTable::UNIT,
        )
        .unwrap()
    }

    #[test]
    fn replicates_onto_the_critical_path_only() {
        let (ddg, asg) = fig11();
        let m = machine();
        let ii = 3;
        let analysis = LoopAnalysis::new(&ddg, &m);
        let lat = analysis.node_lat();
        let before = estimated_length(&ddg, &m, ii, &asg, lat).unwrap();
        let extended =
            extend_for_length(&ddg, &m, ii, asg, &analysis, &mut EngineScratch::default());
        let after = estimated_length(&ddg, &m, ii, &extended, lat).unwrap();
        assert!(after < before, "length must shrink: {after} vs {before}");
        // A was copied into cluster 0 (the critical consumer D's cluster)…
        let a = ddg.find_by_label("A").unwrap();
        assert!(extended.instances(a).contains(0));
        // …but the communication of A itself may remain for F's cluster.
        assert!(extended.instances(a).len() >= 2);
    }

    /// `z` (cluster 1) → `x` (cluster 0) → `d` (cluster 1) is the critical
    /// path, and `x` also reads `a`, which is communicated to `f` in
    /// cluster 2. Copying `x` next to `d` shortens the loop; the walk from
    /// `x` stops at `z`, already in cluster 1, and at `a`, whose value the
    /// bus already broadcasts, so `a` is never copied.
    #[test]
    fn communicated_parents_stop_the_walk() {
        let mut bld = Ddg::builder();
        let z = bld.add_node(OpKind::IntAdd);
        let a = bld.add_node(OpKind::IntAdd);
        let x = bld.add_node(OpKind::IntAdd);
        let d = bld.add_node(OpKind::Store);
        let f = bld.add_node(OpKind::Store);
        bld.data(x, d).data(z, x).data(a, x).data(a, f);
        let ddg = bld.build().unwrap();
        let asg = Assignment::from_partition(&[1, 0, 0, 1, 2]);
        let m = machine();
        let ii = 3;
        let analysis = LoopAnalysis::new(&ddg, &m);
        let lat = analysis.node_lat();
        let before = estimated_length(&ddg, &m, ii, &asg, lat).unwrap();
        let extended =
            extend_for_length(&ddg, &m, ii, asg, &analysis, &mut EngineScratch::default());
        let after = estimated_length(&ddg, &m, ii, &extended, lat).unwrap();
        assert!(after < before, "length must shrink: {after} vs {before}");
        assert!(extended.instances(x).contains(1));
        assert_eq!(
            extended.instances(a),
            ClusterSet::single(0),
            "a is broadcast"
        );
    }

    #[test]
    fn no_op_when_nothing_is_critical_across_clusters() {
        // Everything in one cluster: nothing to do.
        let mut bld = Ddg::builder();
        let a = bld.add_node(OpKind::IntAdd);
        let b = bld.add_node(OpKind::IntAdd);
        bld.data(a, b);
        let ddg = bld.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0]);
        let m = machine();
        let out = extend_for_length(
            &ddg,
            &m,
            2,
            asg.clone(),
            &LoopAnalysis::new(&ddg, &m),
            &mut EngineScratch::default(),
        );
        assert_eq!(out, asg);
    }
}
