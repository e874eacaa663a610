//! §5.2: replicating macro-nodes for multiple communications at once.
//!
//! The paper explored replicating whole macro-nodes from the coarsening
//! hierarchy so one replication removes several communications, and found
//! it ineffective: "too many unnecessary instructions were replicated".
//! This module implements that alternative so the ablation benchmark can
//! reproduce the comparison.

use cvliw_ddg::{Ddg, NodeId, OpClass, OpKind};
use cvliw_machine::MachineConfig;
use cvliw_partition::{coarsen, Hierarchy, Partition, RefineScratch};
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};

use crate::engine::ReplicationStats;
use crate::liveness::{always_anchor_into, dead_instances_dense, DenseViewRef};

/// Replicates coarsening macro-nodes instead of per-communication
/// subgraphs: for each macro containing communicated values, copy the whole
/// macro into every cluster those values are needed in, as long as it fits.
///
/// Returns the resulting assignment and the same statistics the §3 engine
/// reports, so the two strategies compare directly. `analysis` is the
/// loop's cached [`LoopAnalysis`] on `machine`.
#[must_use]
pub fn macro_replicate(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    partition: &Partition,
    analysis: &LoopAnalysis,
) -> (Assignment, ReplicationStats) {
    let mut assignment = partition.to_assignment();
    // Ascending node order, as `Assignment::communicated` emits it.
    let mut coms: Vec<NodeId> = assignment.communicated(ddg);
    let mut stats = ReplicationStats {
        initial_coms: coms.len() as u32,
        final_coms: coms.len() as u32,
        ..ReplicationStats::default()
    };

    let mut hierarchy = Hierarchy::default();
    coarsen(
        ddg,
        machine,
        ii,
        analysis,
        &mut RefineScratch::default(),
        &mut hierarchy,
    );
    let mut always_anchor = Vec::new();
    always_anchor_into(ddg, analysis.on_cycle(), &mut always_anchor);
    let (mut live, mut worklist, mut dead) = (Vec::new(), Vec::new(), Vec::new());
    // Work at a mid level: coarse enough that macros bundle several
    // operations, fine enough that they are not whole clusters.
    let level = hierarchy.level(hierarchy.len() / 2);

    for group in level.groups() {
        if (coms.len() as u32) <= machine.coms_capacity_per_ii(ii) {
            break; // bus fits: stop, as the §3 engine would
        }
        let members: Vec<NodeId> = group.iter().map(|&i| NodeId::new(i as u32)).collect();
        // Clusters that need any value produced inside this macro.
        let mut targets = ClusterSet::empty();
        let mut macro_coms = 0u32;
        for &n in &members {
            if coms.binary_search(&n).is_ok() {
                macro_coms += 1;
                targets = targets.union(assignment.missing_consumer_clusters(ddg, n));
            }
        }
        if macro_coms == 0 || targets.is_empty() {
            continue;
        }

        // Candidate adds: every non-store member lacking an instance in a
        // target cluster (stores are never replicated).
        let mut adds: Vec<(NodeId, u8)> = Vec::new();
        for &n in &members {
            if ddg.kind(n) == OpKind::Store {
                continue;
            }
            for c in targets.iter() {
                if !assignment.instances(n).contains(c) {
                    adds.push((n, c));
                }
            }
        }
        if adds.is_empty() {
            continue;
        }

        // Capacity check.
        let usage = assignment.class_usage(ddg, machine.clusters());
        let mut extra_ops = vec![[0u32; 3]; machine.clusters() as usize];
        for &(n, c) in &adds {
            extra_ops[c as usize][ddg.kind(n).class().index()] += 1;
        }
        let fits = (0..machine.clusters() as usize).all(|c| {
            OpClass::ALL.iter().all(|&class| {
                usage[c][class.index()] + extra_ops[c][class.index()]
                    <= u32::from(machine.fu_count_in(c as u8, class)) * ii
            })
        });
        if !fits {
            continue;
        }

        // Commit only if at least one communication disappears.
        let mut candidate = assignment.clone();
        for &(n, c) in &adds {
            candidate.add_instance(n, c);
        }
        let new_coms = candidate.communicated(ddg);
        if new_coms.len() >= coms.len() {
            continue;
        }
        for &(n, _) in &adds {
            stats.added_by_class[ddg.kind(n).class().index()] += 1;
        }
        stats.subgraphs_replicated += 1;
        assignment = candidate;
        let com_src: Vec<u8> = new_coms
            .iter()
            .map(|&v| assignment.copy_source(v))
            .collect();
        dead_instances_dense(
            ddg,
            DenseViewRef {
                instances: assignment.instance_sets(),
                coms: &new_coms,
                com_src: &com_src,
            },
            &always_anchor,
            &mut live,
            &mut worklist,
            &mut dead,
        );
        for &(n, c) in &dead {
            assignment.remove_instance(n, c);
            stats.removed_instances += 1;
            stats.removed_by_class[ddg.kind(n).class().index()] += 1;
        }
        coms = assignment.communicated(ddg);
    }

    stats.final_coms = coms.len() as u32;
    (assignment, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineScratch, ReplicationEngine};

    /// A producer pair in one macro feeding two remote clusters.
    fn case() -> (Ddg, Partition) {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::IntAdd);
        let y = b.add_node(OpKind::IntMul);
        b.data(x, y);
        let c0 = b.add_node(OpKind::Store);
        let c1 = b.add_node(OpKind::Store);
        b.data(y, c0).data(x, c1);
        let ddg = b.build().unwrap();
        let part = Partition::from_vec(vec![0, 0, 1, 2]);
        (ddg, part)
    }

    #[test]
    fn macro_replication_removes_communications() {
        let (ddg, part) = case();
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        // II=2: capacity 1, two coms → work needed.
        let (asg, stats) = macro_replicate(&ddg, &m, 2, &part, &LoopAnalysis::new(&ddg, &m));
        assert!(stats.final_coms <= stats.initial_coms);
        assert!(asg.comm_count(&ddg) == stats.final_coms);
    }

    #[test]
    fn macro_replication_is_no_op_when_bus_fits() {
        let (ddg, part) = case();
        let m = MachineConfig::from_spec("4c2b2l64r").unwrap();
        let (_, stats) = macro_replicate(&ddg, &m, 2, &part, &LoopAnalysis::new(&ddg, &m));
        assert_eq!(stats.added_instances(), 0);
    }

    #[test]
    fn macro_replication_costs_at_least_as_much_as_subgraphs() {
        let (ddg, part) = case();
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let (_, macro_stats) = macro_replicate(&ddg, &m, 2, &part, &LoopAnalysis::new(&ddg, &m));
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 2, part.to_assignment(), &analysis);
        engine.run(&mut EngineScratch::default());
        let (_, fine_stats) = engine.into_parts();
        if macro_stats.removed_coms() >= fine_stats.removed_coms() {
            assert!(
                macro_stats.added_instances() >= fine_stats.added_instances(),
                "the paper's finding: macro replication wastes instructions"
            );
        }
    }
}
