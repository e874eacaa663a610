//! Value cloning (Kuras, Carr & Sweany, 1998) — the restricted precursor of
//! instruction replication the paper cites as closest related work (§6,
//! reference [17]).
//!
//! Value cloning copies only two kinds of producers into consuming
//! clusters: **read-only values** (operations with no register inputs, e.g.
//! address bases and loop invariants) and **induction variables**
//! (operations whose only register input is themselves, one or more
//! iterations back). Both are self-contained — cloning them never drags a
//! subgraph along — which keeps the technique cheap but leaves every
//! communication from a compound expression in place. The ablation bench
//! (`ablation_value_cloning`) measures exactly how much of the paper's §3
//! benefit that restriction gives up.

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;
use cvliw_sched::{Assignment, LoopAnalysis};

use crate::engine::ReplicationStats;
use crate::liveness::{
    always_anchor_into, dead_after_decommunicating, dead_instances_dense, DenseViewRef,
    RegionScratch,
};

/// Whether `n` is cloneable under Kuras et al.'s rules: it produces a
/// value and its register inputs are at most itself (loop-carried).
///
/// # Example
///
/// ```
/// use cvliw_ddg::{Ddg, OpKind};
/// use cvliw_replicate::is_cloneable_value;
///
/// let mut b = Ddg::builder();
/// let iv = b.add_node(OpKind::IntAdd);   // i = i + 1: induction variable
/// b.data_dist(iv, iv, 1);
/// let ld = b.add_node(OpKind::Load);     // a[i]: depends on iv
/// b.data(iv, ld);
/// let ddg = b.build()?;
///
/// assert!(is_cloneable_value(&ddg, iv));
/// assert!(!is_cloneable_value(&ddg, ld));
/// # Ok::<(), cvliw_ddg::DdgError>(())
/// ```
#[must_use]
pub fn is_cloneable_value(ddg: &Ddg, n: NodeId) -> bool {
    ddg.kind(n).produces_value() && ddg.data_preds(n).iter().all(|&p| p == n)
}

/// The communications value cloning can **never** remove from an
/// assignment: communicated values that are not cloneable.
///
/// This is the driver's failure-driven II bound for the value-clone mode.
/// It is a true floor because the whole procedure preserves non-cloneable
/// communications: cloning only ever *adds* instances of cloneable values
/// (which, having no register inputs, consume nothing), so no consumer of
/// any other value appears or disappears; and the dead-instance cascade
/// only removes instances that lost their consumers, which — consumers
/// being unaffected for non-cloneable values — can only be instances of
/// cloneable values themselves. A non-cloneable communicated value
/// therefore stays communicated at every II, and the bus must have room
/// for all of them before [`value_clone`] can possibly succeed.
#[must_use]
pub fn uncloneable_coms(ddg: &Ddg, assignment: &Assignment) -> u32 {
    ddg.node_ids()
        .filter(|&n| assignment.needs_comm(ddg, n) && !is_cloneable_value(ddg, n))
        .count() as u32
}

/// Applies value cloning to a partitioned loop: clones read-only values and
/// induction variables into the clusters that consume them, cheapest first,
/// until the remaining communications fit the bus (or no clone is possible).
///
/// Returns the updated assignment and statistics in the same shape the §3
/// replication engine reports, so the two techniques compare directly.
/// Recurrence membership, which anchors liveness, is read from the cached
/// [`LoopAnalysis`] of `(ddg, machine)`.
#[must_use]
pub fn value_clone(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut assignment: Assignment,
    analysis: &LoopAnalysis,
) -> (Assignment, ReplicationStats) {
    let mut coms: Vec<NodeId> = Vec::new();
    assignment.communicated_into(ddg, &mut coms);
    let mut stats = ReplicationStats {
        initial_coms: coms.len() as u32,
        final_coms: coms.len() as u32,
        ..ReplicationStats::default()
    };
    let capacity = machine.coms_capacity_per_ii(ii);

    // The liveness anchors are a function of the loop alone, and only the
    // rare call that actually clones needs them — most calls exit on the
    // capacity check above without ever running a liveness query. The
    // censuses and worklists below are reused across clone rounds.
    let mut always_anchor = Vec::new();
    let mut anchors_ready = false;
    let mut usage = Vec::new();
    let mut com_src: Vec<u8> = Vec::new();
    let mut live = Vec::new();
    let mut worklist = Vec::new();
    let mut dead = Vec::new();
    let mut is_com = vec![false; ddg.node_count()];
    let mut region = RegionScratch::default();
    // Settledness gates the constant-size liveness query below. It is
    // established lazily (the common early-exit pays nothing) and preserved
    // by every settled round: the removals equal the complete dead cascade
    // and — the clone consuming nothing — change no communication.
    let mut settled: Option<bool> = None;

    loop {
        if coms.len() as u32 <= capacity {
            break;
        }
        if !anchors_ready {
            anchors_ready = true;
            always_anchor_into(ddg, analysis.on_cycle(), &mut always_anchor);
        }
        let settled = *settled.get_or_insert_with(|| {
            com_src.clear();
            com_src.extend(coms.iter().map(|&v| assignment.copy_source(v)));
            dead_instances_dense(
                ddg,
                DenseViewRef {
                    instances: assignment.instance_sets(),
                    coms: &coms,
                    com_src: &com_src,
                },
                &always_anchor,
                &mut live,
                &mut worklist,
                &mut dead,
            );
            dead.is_empty()
        });
        // Candidate = cloneable communicated value; cost = number of target
        // clusters (each costs one cloned instruction).
        assignment.class_usage_into(ddg, machine.clusters(), &mut usage);
        let mut best: Option<(u32, NodeId)> = None;
        for &n in &coms {
            if !is_cloneable_value(ddg, n) {
                continue;
            }
            let targets = assignment.missing_consumer_clusters(ddg, n);
            if targets.is_empty() {
                continue;
            }
            // Capacity check: one cloned instance per target cluster must
            // not overflow any functional-unit class.
            let class = ddg.kind(n).class();
            if !targets.iter().all(|c| {
                usage[c as usize][class.index()] < u32::from(machine.fu_count_in(c, class)) * ii
            }) {
                continue;
            }
            let cost = targets.len();
            if best.is_none_or(|(c, b)| (cost, n) < (c, b)) {
                best = Some((cost, n));
            }
        }
        let Some((_, n)) = best else { break };

        let targets = assignment.missing_consumer_clusters(ddg, n);
        if settled {
            // Cloning `n` into every consumer cluster decommunicates it
            // entirely; with no other dead instance in the incumbent, the
            // dead set of the post-clone state is confined to the backward
            // same-cluster region of `n` in its copy-source cluster — and a
            // cloneable value has no register inputs, so that region is the
            // single original instance.
            let c0 = assignment.copy_source(n);
            for &v in &coms {
                is_com[v.index()] = true;
            }
            dead_after_decommunicating(
                ddg,
                assignment.instance_sets(),
                n,
                c0,
                &is_com,
                |v| assignment.copy_source(v),
                &always_anchor,
                &mut region,
                &mut dead,
            );
            for &v in &coms {
                is_com[v.index()] = false;
            }
        }
        for c in targets.iter() {
            assignment.add_instance(n, c);
            stats.added_by_class[ddg.kind(n).class().index()] += 1;
        }
        stats.subgraphs_replicated += 1;
        assignment.communicated_into(ddg, &mut coms);

        // The original instance may now be dead (e.g. an address base whose
        // only consumers were remote).
        if settled {
            #[cfg(debug_assertions)]
            {
                let mut full = Vec::new();
                com_src.clear();
                com_src.extend(coms.iter().map(|&v| assignment.copy_source(v)));
                dead_instances_dense(
                    ddg,
                    DenseViewRef {
                        instances: assignment.instance_sets(),
                        coms: &coms,
                        com_src: &com_src,
                    },
                    &always_anchor,
                    &mut live,
                    &mut worklist,
                    &mut full,
                );
                debug_assert_eq!(
                    full, dead,
                    "region liveness diverged from the full Figure-5 query"
                );
            }
        } else {
            com_src.clear();
            com_src.extend(coms.iter().map(|&v| assignment.copy_source(v)));
            dead_instances_dense(
                ddg,
                DenseViewRef {
                    instances: assignment.instance_sets(),
                    coms: &coms,
                    com_src: &com_src,
                },
                &always_anchor,
                &mut live,
                &mut worklist,
                &mut dead,
            );
        }
        for &(d, c) in &dead {
            assignment.remove_instance(d, c);
            stats.removed_instances += 1;
            stats.removed_by_class[ddg.kind(d).class().index()] += 1;
        }
        assignment.communicated_into(ddg, &mut coms);
    }

    stats.final_coms = coms.len() as u32;
    (assignment, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::{OpClass, OpKind};
    use cvliw_sched::ClusterSet;

    /// An induction variable feeding loads in three other clusters, plus a
    /// compound fp value communicated from cluster 0 to cluster 1.
    fn case() -> (Ddg, Assignment) {
        let mut b = Ddg::builder();
        let iv = b.add_labeled(OpKind::IntAdd, "iv");
        b.data_dist(iv, iv, 1);
        let mut clusters = vec![0u8];
        for c in 1..4u8 {
            let ld = b.add_node(OpKind::Load);
            let st = b.add_node(OpKind::Store);
            b.data(iv, ld).data(ld, st);
            clusters.extend([c, c]);
        }
        // Compound value: load → fmul chain crossing 0 → 1.
        let ld = b.add_node(OpKind::Load);
        let m = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m).data(m, st);
        clusters.extend([0, 0, 1]);
        (b.build().unwrap(), Assignment::from_partition(&clusters))
    }

    #[test]
    fn classifier_accepts_leaves_and_induction_variables() {
        let (ddg, _) = case();
        let iv = ddg.find_by_label("iv").unwrap();
        assert!(is_cloneable_value(&ddg, iv));
        // Loads depend on iv: not cloneable. Stores produce nothing.
        for n in ddg.node_ids() {
            match ddg.kind(n) {
                OpKind::Load if !ddg.data_preds(n).is_empty() => {
                    assert!(!is_cloneable_value(&ddg, n));
                }
                OpKind::Store => assert!(!is_cloneable_value(&ddg, n)),
                _ => {}
            }
        }
    }

    #[test]
    fn leaf_loads_are_cloneable() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load); // no address operand: read-only
        let m = b.add_node(OpKind::FpMul);
        b.data(ld, m);
        let ddg = b.build().unwrap();
        assert!(is_cloneable_value(&ddg, ld));
    }

    #[test]
    fn clones_the_induction_variable_not_the_compound_value() {
        let (ddg, asg) = case();
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        // II=2 → capacity 1; two communications (iv, fmul-chain load... the
        // fmul value) → one must go. Only iv is cloneable.
        let before = asg.comm_count(&ddg);
        let (after, stats) = value_clone(&ddg, &m, 2, asg, &LoopAnalysis::new(&ddg, &m));
        assert!(before >= 2);
        let iv = ddg.find_by_label("iv").unwrap();
        assert!(
            after.instances(iv).len() >= 3,
            "iv cloned into consumer clusters"
        );
        assert_eq!(
            stats.removed_coms(),
            1,
            "only the iv communication is removable"
        );
        assert!(stats.added_by_class[OpClass::Int.index()] >= 2);
    }

    #[test]
    fn no_op_when_bus_already_fits() {
        let (ddg, asg) = case();
        let m = MachineConfig::from_spec("4c4b4l64r").unwrap();
        // II=8 → capacity 8 ≥ coms: nothing to do.
        let (_, stats) = value_clone(&ddg, &m, 8, asg, &LoopAnalysis::new(&ddg, &m));
        assert_eq!(stats.added_instances(), 0);
        assert_eq!(stats.initial_coms, stats.final_coms);
    }

    #[test]
    fn respects_capacity() {
        // Target cluster already saturated with int ops at II=1.
        let mut b = Ddg::builder();
        let iv = b.add_labeled(OpKind::IntAdd, "iv");
        b.data_dist(iv, iv, 1);
        let busy = b.add_node(OpKind::IntAdd); // fills cluster 1's only int FU
        let ld = b.add_node(OpKind::Load);
        b.data(iv, ld);
        let st = b.add_node(OpKind::Store);
        b.data(ld, st).data(busy, st);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1, 1, 1]);
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let (after, stats) = value_clone(&ddg, &m, 1, asg, &LoopAnalysis::new(&ddg, &m));
        assert_eq!(stats.added_instances(), 0, "no room for the clone at II=1");
        assert_eq!(after.instances(iv), ClusterSet::single(0));
    }

    #[test]
    fn stats_balance() {
        let (ddg, asg) = case();
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let (after, stats) = value_clone(&ddg, &m, 2, asg, &LoopAnalysis::new(&ddg, &m));
        assert_eq!(stats.final_coms, after.comm_count(&ddg));
        assert_eq!(
            stats.added_instances() as i64 - stats.removed_instances as i64,
            after.instance_count() as i64 - ddg.node_count() as i64
        );
    }
}
