//! Test-only reference implementations, compiled for this crate's own
//! tests and for dependents that enable the `testing` feature (only
//! dev-dependencies do): never part of a release build.
//!
//! [`refine_existing_oracle`] is the simplest executable form of the
//! refinement walk; the differential tests require
//! [`refine_existing`](crate::refine_existing) to accept exactly its moves,
//! read back with [`RefineScratch::moves`]. [`walked_move_comms`] is the
//! successor-walk reference for the consumer-cluster census that prices a
//! move's communications, read back with [`census_move_comms`].

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

use crate::refine::{comm_count_moved, MAX_PASSES};
use crate::{score_partition, Partition, PartitionScore, RefineScratch};

/// An accepted refinement move: `(node or group-representative index,
/// source cluster, destination cluster)`.
pub type RefineMove = (u32, u8, u8);

impl RefineScratch {
    /// The moves accepted by the most recent
    /// [`refine_existing`](crate::refine_existing) (or multilevel) call, in
    /// acceptance order — the production side of the move-sequence
    /// differential against [`refine_existing_oracle`].
    #[must_use]
    pub fn moves(&self) -> &[RefineMove] {
        &self.move_log
    }
}

/// A from-scratch reference implementation of
/// [`refine_existing`](crate::refine_existing): the same greedy walk, but
/// every candidate is scored with a full pseudo-schedule — no lazy
/// rejection, no incremental ASAP, no cache. Returns the refined partition
/// and the accepted-move sequence; the differential tests assert both
/// match the production path exactly.
#[must_use]
pub fn refine_existing_oracle(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut part: Partition,
    analysis: &LoopAnalysis,
) -> (Partition, Vec<RefineMove>) {
    let mut moves = Vec::new();
    if machine.clusters() == 1 {
        return (part, moves);
    }
    let mut scratch = RefineScratch::default();
    let mut best = score_partition(ddg, &part, machine, ii, analysis, &mut scratch);
    for _ in 0..MAX_PASSES {
        let mut improved = false;
        let consider_all = !best.feasible();
        for i in 0..ddg.node_count() {
            let n = NodeId::new(i as u32);
            let current = part.cluster_of(n);
            let boundary = ddg
                .out_edges(n)
                .map(|e| e.dst)
                .chain(ddg.in_edges(n).map(|e| e.src))
                .any(|other| part.cluster_of(other) != current);
            if !consider_all && !boundary {
                continue;
            }
            let mut best_move: Option<(u8, PartitionScore)> = None;
            for target in 0..machine.clusters() {
                if target == current {
                    continue;
                }
                part.set_cluster(n, target);
                let score = score_partition(ddg, &part, machine, ii, analysis, &mut scratch);
                part.set_cluster(n, current);
                let thresh = best_move.as_ref().map_or(&best, |(_, s)| s);
                if score < *thresh {
                    best_move = Some((target, score));
                }
            }
            if let Some((target, score)) = best_move {
                part.set_cluster(n, target);
                best = score;
                improved = true;
                moves.push((i as u32, current, target));
            }
        }
        if !improved {
            break;
        }
    }
    (part, moves)
}

/// Communications paid by the producers a move of `group` can affect — the
/// members and their data predecessors — with the group re-homed to each
/// target cluster `0..clusters`, priced by the production consumer census.
#[must_use]
pub fn census_move_comms(ddg: &Ddg, part: &Partition, group: &[usize], clusters: u8) -> Vec<u32> {
    let mut scratch = RefineScratch::default();
    scratch.in_group.resize(ddg.node_count(), false);
    scratch.seen.resize(ddg.node_count(), 0);
    scratch.census_group(ddg, part, group);
    (0..clusters)
        .map(|target| comm_count_moved(&scratch.affected, target))
        .collect()
}

/// [`census_move_comms`] by the reference walk: every affected producer
/// walks its successor list once per target and compares each consumer's
/// cluster with its own, both read from the moved partition.
#[must_use]
pub fn walked_move_comms(ddg: &Ddg, part: &Partition, group: &[usize], clusters: u8) -> Vec<u32> {
    let mut in_group = vec![false; ddg.node_count()];
    for &i in group {
        in_group[i] = true;
    }
    let mut affected: Vec<NodeId> = group
        .iter()
        .flat_map(|&i| {
            let m = NodeId::new(i as u32);
            std::iter::once(m).chain(ddg.data_preds(m).iter().copied())
        })
        .collect();
    affected.sort_unstable();
    affected.dedup();
    (0..clusters)
        .map(|target| {
            let home = |n: NodeId| {
                if in_group[n.index()] {
                    target
                } else {
                    part.cluster_of(n)
                }
            };
            affected
                .iter()
                .filter(|&&x| {
                    ddg.kind(x).produces_value()
                        && ddg.data_succs(x).iter().any(|&y| home(y) != home(x))
                })
                .count() as u32
        })
        .collect()
}
