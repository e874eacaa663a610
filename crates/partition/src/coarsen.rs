//! Multilevel coarsening: heavy-edge matching into macro-nodes.

use cvliw_ddg::{Ddg, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

use crate::matching::greedy_matching;
use crate::partition::Partition;
use crate::weights::edge_weights;

/// One level of the coarsening hierarchy: a grouping of the original nodes
/// into `n_macros` macro-nodes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoarseLevel {
    /// Original node index → macro index at this level.
    pub macro_of: Vec<usize>,
    /// Number of macro-nodes at this level.
    pub n_macros: usize,
}

impl CoarseLevel {
    /// The member node indices of every macro, in macro order.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.n_macros];
        for (node, &m) in self.macro_of.iter().enumerate() {
            groups[m].push(node);
        }
        groups
    }
}

/// The whole coarsening hierarchy, from the identity level (every node its
/// own macro) down to a level with at most as many macro-nodes as clusters.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// Levels in coarsening order: `levels[0]` is the identity grouping,
    /// the last level is the coarsest.
    pub levels: Vec<CoarseLevel>,
    clusters: u8,
}

impl Hierarchy {
    /// The coarsest level.
    #[must_use]
    pub fn coarsest(&self) -> &CoarseLevel {
        // `coarsen` always records the identity level first.
        &self.levels[self.levels.len() - 1]
    }

    /// The preliminary partition induced by the coarsest level: macro `i`
    /// lands in cluster `i` (the paper's step 1).
    #[must_use]
    pub fn initial_partition(&self) -> Partition {
        let coarsest = self.coarsest();
        debug_assert!(coarsest.n_macros <= self.clusters as usize);
        // At most `clusters` (a `u8`) macros remain, so every index fits.
        Partition::from_vec(coarsest.macro_of.iter().map(|&m| m as u8).collect())
    }
}

/// Per-macro operation counts by class, used for capacity-aware matching.
fn macro_class_counts(ddg: &Ddg, macro_of: &[usize], n_macros: usize) -> Vec<[u32; 3]> {
    let mut counts = vec![[0u32; 3]; n_macros];
    for n in ddg.node_ids() {
        counts[macro_of[n.index()]][ddg.kind(n).class().index()] += 1;
    }
    counts
}

/// Fills `agg` with one `(a, b, w)` per connected macro pair `a < b`,
/// ascending: `w` sums `weight + 1` over the edges between the two macros
/// (the +1 lets plain connectivity count even for weight-0 memory edges).
/// Sorts the per-edge terms by pair and merges each run of equal pairs.
fn aggregate_weights(
    ddg: &Ddg,
    weights: &[u64],
    macro_of: &[usize],
    agg: &mut Vec<(usize, usize, u64)>,
) {
    agg.clear();
    for (e, &w) in ddg.edges().zip(weights) {
        let a = macro_of[e.src.index()];
        let b = macro_of[e.dst.index()];
        if a != b {
            agg.push((a.min(b), a.max(b), w + 1));
        }
    }
    agg.sort_unstable_by_key(|&(a, b, _)| (a, b));
    agg.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
}

/// Coarsens the DDG until at most `machine.clusters()` macro-nodes remain.
///
/// Each round aggregates the slack-based edge weights between macro-nodes,
/// takes a greedy maximum-weight matching among pairs whose merged size
/// still fits a cluster's `units·II` capacity, and merges. When matching
/// stalls (disconnected or capacity-blocked graphs) the two smallest
/// macro-nodes are force-merged so the process always terminates. The
/// weights read the RecMII and SCC decomposition from `analysis`.
#[must_use]
pub fn coarsen(ddg: &Ddg, machine: &MachineConfig, ii: u32, analysis: &LoopAnalysis) -> Hierarchy {
    let weights = edge_weights(ddg, machine, ii, analysis);
    let n = ddg.node_count();
    let clusters = machine.clusters() as usize;

    let mut macro_of: Vec<usize> = (0..n).collect();
    let mut n_macros = n;
    let mut levels = vec![CoarseLevel {
        macro_of: macro_of.clone(),
        n_macros,
    }];

    // Macro-nodes must fit in *some* cluster; the largest one bounds them
    // (exact per-cluster fit is enforced later by refinement/scheduling).
    let cap = |class: OpClass| u32::from(machine.max_fu_count(class)) * ii.max(1);

    // Inter-macro weights of one round, `(a, b, w)` with `a < b`; reused.
    let mut agg: Vec<(usize, usize, u64)> = Vec::new();
    while n_macros > clusters {
        let counts = macro_class_counts(ddg, &macro_of, n_macros);
        aggregate_weights(ddg, &weights, &macro_of, &mut agg);
        let fits = |a: usize, b: usize| {
            OpClass::ALL
                .iter()
                .all(|&class| counts[a][class.index()] + counts[b][class.index()] <= cap(class))
        };
        agg.retain(|&(a, b, _)| fits(a, b));

        // `greedy_matching` orders pairs totally by `(w, a, b)`, so the
        // matching does not depend on the order of `agg`.
        let mut pairs = greedy_matching(n_macros, &agg);
        // Never overshoot below the cluster count.
        pairs.truncate(n_macros - clusters);

        if pairs.is_empty() {
            // Force-merge the two smallest macros.
            let mut by_size: Vec<usize> = (0..n_macros).collect();
            by_size.sort_by_key(|&m| counts[m].iter().sum::<u32>());
            pairs.push((by_size[0].min(by_size[1]), by_size[0].max(by_size[1])));
        }

        // Apply merges and compact macro indices.
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
        for slot in macro_of.iter_mut() {
            *slot = remap[target[*slot]];
        }
        n_macros = next;
        levels.push(CoarseLevel {
            macro_of: macro_of.clone(),
            n_macros,
        });
    }

    Hierarchy {
        levels,
        clusters: machine.clusters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;
    use std::collections::BTreeMap;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn coarsen_on(ddg: &Ddg, spec: &str, ii: u32) -> Hierarchy {
        let m = machine(spec);
        coarsen(ddg, &m, ii, &LoopAnalysis::new(ddg, &m))
    }

    fn chain(n: usize) -> Ddg {
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..n).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        b.build().unwrap()
    }

    #[test]
    fn coarsens_to_cluster_count() {
        let ddg = chain(10);
        let h = coarsen_on(&ddg, "4c1b2l64r", 4);
        assert!(h.coarsest().n_macros <= 4);
        assert_eq!(h.levels[0].n_macros, 10);
        // levels strictly shrink
        for w in h.levels.windows(2) {
            assert!(w[1].n_macros < w[0].n_macros);
        }
    }

    #[test]
    fn initial_partition_covers_all_nodes() {
        let ddg = chain(9);
        let h = coarsen_on(&ddg, "2c1b2l64r", 4);
        let p = h.initial_partition();
        assert_eq!(p.node_count(), 9);
        assert!(p.as_slice().iter().all(|&c| c < 2));
    }

    #[test]
    fn groups_partition_the_nodes() {
        let ddg = chain(7);
        let h = coarsen_on(&ddg, "2c1b2l64r", 3);
        for level in &h.levels {
            let groups = level.groups();
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, 7);
            assert!(groups.iter().all(|g| !g.is_empty()));
        }
    }

    /// The sorted aggregation equals a per-pair map sum on every level of
    /// a graph with parallel, reversed and memory edges between macros.
    #[test]
    fn aggregated_weights_match_a_pair_map() {
        let mut b = Ddg::builder();
        let n: Vec<_> = (0..8).map(|_| b.add_node(OpKind::FpAdd)).collect();
        b.data(n[0], n[1]).data(n[1], n[2]).data(n[2], n[3]);
        b.data(n[0], n[4]).data(n[4], n[5]).data(n[5], n[3]);
        b.data(n[3], n[6]).data(n[6], n[7]).data_dist(n[7], n[0], 1);
        b.data(n[1], n[5])
            .mem_dep(n[6], n[2], 1)
            .data_dist(n[5], n[1], 2);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let weights = edge_weights(&ddg, &m, 3, &analysis);
        let h = coarsen(&ddg, &m, 3, &analysis);
        assert!(h.levels.len() > 2);
        let mut agg = Vec::new();
        for level in &h.levels {
            let mut want: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for (e, &w) in ddg.edges().zip(&weights) {
                let (a, b) = (level.macro_of[e.src.index()], level.macro_of[e.dst.index()]);
                if a != b {
                    *want.entry((a.min(b), a.max(b))).or_insert(0) += w + 1;
                }
            }
            aggregate_weights(&ddg, &weights, &level.macro_of, &mut agg);
            let want: Vec<_> = want.into_iter().map(|((a, b), w)| (a, b, w)).collect();
            assert_eq!(agg, want, "level with {} macros", level.n_macros);
        }
    }

    #[test]
    fn disconnected_graph_still_coarsens() {
        let mut b = Ddg::builder();
        for _ in 0..6 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let h = coarsen_on(&ddg, "2c1b2l64r", 3);
        assert!(h.coarsest().n_macros <= 2);
    }

    #[test]
    fn small_graphs_stay_as_is() {
        let ddg = chain(2);
        let h = coarsen_on(&ddg, "4c1b2l64r", 1);
        assert_eq!(h.levels.len(), 1);
        assert_eq!(h.coarsest().n_macros, 2);
        let p = h.initial_partition();
        assert_eq!(p.as_slice(), &[0, 1]);
    }

    #[test]
    fn heavy_edges_merge_first() {
        // A tight recurrence pair plus a loose consumer: the recurrence
        // nodes must end up in the same macro before the loose node joins.
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        b.data(x, y).data_dist(y, x, 1);
        let loose = b.add_node(OpKind::IntAdd);
        b.data(y, loose);
        let ddg = b.build().unwrap();
        let h = coarsen_on(&ddg, "2c1b2l64r", 6);
        // after the first merge round, x and y share a macro
        let level1 = &h.levels[1];
        assert_eq!(level1.macro_of[x.index()], level1.macro_of[y.index()]);
        assert_ne!(level1.macro_of[x.index()], level1.macro_of[loose.index()]);
    }
}
