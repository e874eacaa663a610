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
//! [`coarsen_oracle`] is the nested coarsening the flat
//! [`coarsen`](crate::coarsen) replaced: every round re-aggregates the
//! inter-macro weights over all DDG edges and matches with
//! [`greedy_matching`], and every level is its own `Vec`.

use cvliw_ddg::{Ddg, NodeId, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

pub use crate::matching::greedy_matching;
use crate::refine::{comm_count_moved, MAX_PASSES};
use crate::weights::edge_weights;
use crate::{score_partition, Hierarchy, Partition, PartitionScore, RefineScratch};

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

/// One level of [`NestedHierarchy`]: a node → macro map over `n_macros`
/// macros.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestedLevel {
    /// Original node index → macro index at this level.
    pub macro_of: Vec<usize>,
    /// Number of macro-nodes at this level.
    pub n_macros: usize,
}

/// The coarsening hierarchy of [`coarsen_oracle`], one `Vec` per level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NestedHierarchy {
    /// Levels in coarsening order, the identity level first.
    pub levels: Vec<NestedLevel>,
}

impl NestedHierarchy {
    /// Whether `flat` holds exactly these levels.
    #[must_use]
    pub fn matches(&self, flat: &Hierarchy) -> bool {
        self.levels.len() == flat.len()
            && self.levels.iter().enumerate().all(|(l, want)| {
                let got = flat.level(l);
                got.n_macros == want.n_macros
                    && got
                        .macro_of
                        .iter()
                        .map(|&m| m as usize)
                        .eq(want.macro_of.iter().copied())
            })
    }
}

/// The nested reference of [`coarsen`](crate::coarsen): each round counts
/// the macros' classes from the nodes, sums `weight + 1` per connected
/// macro pair over every DDG edge, drops the pairs that would overflow the
/// largest cluster's `units·II`, takes [`greedy_matching`] truncated to
/// `n_macros − clusters` pairs (or force-merges the two smallest macros
/// when nothing matches), and renumbers the survivors in index order.
#[must_use]
pub fn coarsen_oracle(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
) -> NestedHierarchy {
    let (mut asap, mut alap) = (Vec::new(), Vec::new());
    let weights: Vec<u64> =
        edge_weights(ddg, machine, ii, analysis, &mut asap, &mut alap).collect();
    let n = ddg.node_count();
    let clusters = machine.clusters() as usize;
    let mut macro_of: Vec<usize> = (0..n).collect();
    let mut n_macros = n;
    let mut levels = vec![NestedLevel {
        macro_of: macro_of.clone(),
        n_macros,
    }];
    let cap = |class: OpClass| u32::from(machine.max_fu_count(class)) * ii.max(1);
    while n_macros > clusters {
        let mut counts = vec![[0u32; 3]; n_macros];
        for v in ddg.node_ids() {
            counts[macro_of[v.index()]][ddg.kind(v).class().index()] += 1;
        }
        let mut sums = std::collections::BTreeMap::new();
        for (e, &w) in ddg.edges().zip(&weights) {
            let (a, b) = (macro_of[e.src.index()], macro_of[e.dst.index()]);
            if a != b {
                *sums.entry((a.min(b), a.max(b))).or_insert(0) += w + 1;
            }
        }
        let agg: Vec<(usize, usize, u64)> = sums
            .into_iter()
            .map(|((a, b), w)| (a, b, w))
            .filter(|&(a, b, _)| {
                OpClass::ALL
                    .iter()
                    .all(|&c| counts[a][c.index()] + counts[b][c.index()] <= cap(c))
            })
            .collect();
        let mut pairs = greedy_matching(n_macros, &agg);
        pairs.truncate(n_macros - clusters);
        if pairs.is_empty() {
            let mut by_size: Vec<usize> = (0..n_macros).collect();
            by_size.sort_by_key(|&m| counts[m].iter().sum::<u32>());
            pairs.push((by_size[0].min(by_size[1]), by_size[0].max(by_size[1])));
        }
        let mut target: Vec<usize> = (0..n_macros).collect();
        for &(a, b) in &pairs {
            target[b] = a;
        }
        let mut remap = vec![usize::MAX; n_macros];
        let mut next = 0;
        for m in 0..n_macros {
            if target[m] == m {
                remap[m] = next;
                next += 1;
            }
        }
        for m in 0..n_macros {
            if target[m] != m {
                remap[m] = remap[target[m]];
            }
        }
        for slot in &mut macro_of {
            *slot = remap[target[*slot]];
        }
        n_macros = next;
        levels.push(NestedLevel {
            macro_of: macro_of.clone(),
            n_macros,
        });
    }
    NestedHierarchy { levels }
}
