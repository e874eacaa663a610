//! Multilevel coarsening: heavy-edge matching into macro-nodes.
//!
//! Each round works on the *coarse graph* of the previous level: one
//! `(a, b, w)` entry per connected macro pair `a < b`, where `w` sums
//! `weight + 1` over the DDG edges between the two macros (the +1 lets
//! plain connectivity count even for weight-0 memory edges). Only the
//! first round reads the DDG; every later round contracts the previous
//! round's list through the merge map, so the sums stay exact `u64`
//! totals of the same per-edge terms. The levels and all round buffers
//! are flat vectors that are cleared, never freed, between calls.

use cvliw_ddg::{Ddg, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

use crate::partition::Partition;
use crate::refine::RefineScratch;
use crate::weights::edge_weights;

/// One level of a [`Hierarchy`]: a grouping of the original nodes into
/// `n_macros` macro-nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoarseLevel<'a> {
    /// Original node index → macro index at this level.
    pub macro_of: &'a [u32],
    /// Number of macro-nodes at this level.
    pub n_macros: usize,
}

impl CoarseLevel<'_> {
    /// The member node indices of every macro, in macro order.
    #[must_use]
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.n_macros];
        for (node, &m) in self.macro_of.iter().enumerate() {
            groups[m as usize].push(node);
        }
        groups
    }
}

/// The whole coarsening hierarchy, from the identity level (every node its
/// own macro) down to a level with at most as many macro-nodes as clusters.
///
/// The levels are stored level-major in one flat vector, so a hierarchy
/// reused across [`coarsen`] calls allocates nothing once warm.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Hierarchy {
    /// Level `l`'s node → macro map is `macro_of[l·nodes..(l + 1)·nodes]`.
    macro_of: Vec<u32>,
    /// Macro count of each level, in coarsening order.
    n_macros: Vec<u32>,
    nodes: usize,
    clusters: u8,
}

impl Hierarchy {
    /// Number of levels, the identity level included (at least one once
    /// [`coarsen`] has filled the hierarchy).
    #[must_use]
    pub fn len(&self) -> usize {
        self.n_macros.len()
    }

    /// Whether no level has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_macros.is_empty()
    }

    /// Level `l` in coarsening order: level 0 is the identity grouping,
    /// the last level the coarsest.
    ///
    /// # Panics
    ///
    /// Panics if `l >= self.len()`.
    #[must_use]
    pub fn level(&self, l: usize) -> CoarseLevel<'_> {
        CoarseLevel {
            macro_of: &self.macro_of[l * self.nodes..(l + 1) * self.nodes],
            n_macros: self.n_macros[l] as usize,
        }
    }

    /// The coarsest level.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy is empty.
    #[must_use]
    pub fn coarsest(&self) -> CoarseLevel<'_> {
        self.level(self.len() - 1)
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

/// The round buffers of [`coarsen`], kept in the [`RefineScratch`] and
/// cleared at every call, so they carry nothing from one graph to the next.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoarsenScratch {
    /// The coarse graph of the current level: `(a, b, w)` per connected
    /// macro pair `a < b`.
    pairs: Vec<(u32, u32, u64)>,
    /// Operation count per macro and class.
    counts: Vec<[u32; 3]>,
    /// Whether each macro is already matched this round.
    matched: Vec<bool>,
    /// The macro each merged macro joins this round (`u32::MAX` for a
    /// macro that keeps its own identity).
    merged_into: Vec<u32>,
    /// Old macro index → new macro index of this round's merge.
    remap: Vec<u32>,
    /// ASAP and ALAP times behind the edge weights' slacks.
    asap: Vec<i64>,
    alap: Vec<i64>,
}

/// Marker of [`CoarsenScratch::merged_into`] for a surviving macro.
const SURVIVES: u32 = u32::MAX;

/// Coarsens the DDG into `hierarchy` until at most `machine.clusters()`
/// macro-nodes remain, with the round buffers of `scratch`; counts the
/// rounds in [`RefineScratch::coarsen_rounds`].
///
/// Each round takes a greedy maximum-weight matching of the coarse graph
/// among pairs whose merged size still fits a cluster's `units·II`
/// capacity, heaviest pair first (ties by macro index), and merges. When
/// matching stalls (disconnected or capacity-blocked graphs) the two
/// smallest macro-nodes are force-merged so the process always terminates.
/// The edge weights read the RecMII and SCC decomposition from `analysis`.
pub fn coarsen(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    hierarchy: &mut Hierarchy,
) {
    let n = ddg.node_count();
    let clusters = machine.clusters() as usize;
    hierarchy.macro_of.clear();
    hierarchy.macro_of.extend(0..n as u32);
    hierarchy.n_macros.clear();
    hierarchy.n_macros.push(n as u32);
    hierarchy.nodes = n;
    hierarchy.clusters = machine.clusters();

    let CoarsenScratch {
        pairs,
        counts,
        matched,
        merged_into,
        remap,
        asap,
        alap,
    } = &mut scratch.coarsen;
    pairs.clear();
    for (e, w) in ddg
        .edges()
        .zip(edge_weights(ddg, machine, ii, analysis, asap, alap))
    {
        let (a, b) = (e.src.index() as u32, e.dst.index() as u32);
        if a != b {
            pairs.push((a.min(b), a.max(b), w + 1));
        }
    }
    merge_parallel_pairs(pairs);
    counts.clear();
    counts.extend(ddg.node_ids().map(|v| {
        let mut c = [0u32; 3];
        c[ddg.kind(v).class().index()] = 1;
        c
    }));

    // Macro-nodes must fit in *some* cluster; the largest one bounds them
    // (exact per-cluster fit is enforced later by refinement/scheduling).
    let cap = OpClass::ALL.map(|class| u32::from(machine.max_fu_count(class)) * ii.max(1));
    let fits = |x: &[u32; 3], y: &[u32; 3]| (0..3).all(|k| x[k] + y[k] <= cap[k]);

    let mut n_macros = n;
    while n_macros > clusters {
        // Heaviest pair first; the pairs are distinct, so the order is
        // total and the matching does not depend on how they were built.
        pairs.sort_unstable_by(|x, y| (y.2, x.0, x.1).cmp(&(x.2, y.0, y.1)));
        matched.clear();
        matched.resize(n_macros, false);
        merged_into.clear();
        merged_into.resize(n_macros, SURVIVES);
        // Never overshoot below the cluster count.
        let mut budget = n_macros - clusters;
        for &(a, b, _) in pairs.iter() {
            if budget == 0 {
                break;
            }
            let (a, b) = (a as usize, b as usize);
            if !matched[a] && !matched[b] && fits(&counts[a], &counts[b]) {
                matched[a] = true;
                matched[b] = true;
                merged_into[b] = a as u32;
                budget -= 1;
            }
        }
        if budget == n_macros - clusters {
            // Nothing matched: force-merge the two smallest macros (by
            // size, then index).
            let size = |m: usize| (counts[m].iter().sum::<u32>(), m);
            let (mut lo, mut hi) = (size(0), size(1));
            if hi < lo {
                std::mem::swap(&mut lo, &mut hi);
            }
            for m in 2..n_macros {
                let s = size(m);
                if s < lo {
                    hi = lo;
                    lo = s;
                } else if s < hi {
                    hi = s;
                }
            }
            merged_into[lo.1.max(hi.1)] = lo.1.min(hi.1) as u32;
        }

        // Survivors keep their relative order; a merged macro takes its
        // partner's new index (the partner has the lower old index, so it
        // is numbered first). Class counts merge in the same ascending
        // pass: a new index never exceeds the old one, so no slot is
        // overwritten before it is read.
        remap.clear();
        let mut next = 0u32;
        for m in 0..n_macros {
            let into = merged_into[m];
            if into == SURVIVES {
                remap.push(next);
                counts[next as usize] = counts[m];
                next += 1;
            } else {
                let r = remap[into as usize];
                remap.push(r);
                let merged = counts[m];
                for (slot, c) in counts[r as usize].iter_mut().zip(merged) {
                    *slot += c;
                }
            }
        }
        n_macros = next as usize;
        counts.truncate(n_macros);

        // Contract the coarse graph through the merge map.
        pairs.retain_mut(|p| {
            let (a, b) = (remap[p.0 as usize], remap[p.1 as usize]);
            *p = (a.min(b), a.max(b), p.2);
            a != b
        });
        merge_parallel_pairs(pairs);

        let prev = (hierarchy.n_macros.len() - 1) * n;
        hierarchy.macro_of.extend_from_within(prev..prev + n);
        for m in &mut hierarchy.macro_of[prev + n..] {
            *m = remap[*m as usize];
        }
        hierarchy.n_macros.push(next);
        scratch.coarsen_rounds += 1;
    }
}

/// Sorts `(a, b, w)` entries by pair and merges each run of equal pairs
/// into one entry carrying the summed weight.
fn merge_parallel_pairs(pairs: &mut Vec<(u32, u32, u64)>) {
    pairs.sort_unstable_by_key(|&(a, b, _)| (a, b));
    pairs.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 += next.2;
        }
        same
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::coarsen_oracle;
    use cvliw_ddg::OpKind;
    use std::collections::BTreeMap;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn coarsen_on(ddg: &Ddg, spec: &str, ii: u32) -> Hierarchy {
        let m = machine(spec);
        let mut h = Hierarchy::default();
        let analysis = LoopAnalysis::new(ddg, &m);
        coarsen(
            ddg,
            &m,
            ii,
            &analysis,
            &mut RefineScratch::default(),
            &mut h,
        );
        h
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
        assert_eq!(h.level(0).n_macros, 10);
        // levels strictly shrink
        for l in 1..h.len() {
            assert!(h.level(l).n_macros < h.level(l - 1).n_macros);
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
        for l in 0..h.len() {
            let groups = h.level(l).groups();
            let total: usize = groups.iter().map(Vec::len).sum();
            assert_eq!(total, 7);
            assert!(groups.iter().all(|g| !g.is_empty()));
        }
    }

    /// The contracted coarse graph equals a per-pair map sum over the DDG
    /// edges on every level of a graph with parallel, reversed and memory
    /// edges between macros, and the levels equal the oracle's.
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
        let (mut asap, mut alap) = (Vec::new(), Vec::new());
        let weights: Vec<u64> =
            edge_weights(&ddg, &m, 3, &analysis, &mut asap, &mut alap).collect();
        let mut scratch = RefineScratch::default();
        let mut h = Hierarchy::default();
        coarsen(&ddg, &m, 3, &analysis, &mut scratch, &mut h);
        assert!(h.len() > 2);
        let oracle = coarsen_oracle(&ddg, &m, 3, &analysis);
        assert_eq!(oracle.levels.len(), h.len());
        for (l, want) in oracle.levels.iter().enumerate() {
            let got = h.level(l);
            assert_eq!(got.n_macros, want.n_macros, "level {l}");
            assert!(got
                .macro_of
                .iter()
                .map(|&m| m as usize)
                .eq(want.macro_of.iter().copied()));
        }
        // Replay the contraction level by level through the levels' maps.
        let pair_map = |macro_of: &[u32]| {
            let mut want: BTreeMap<(u32, u32), u64> = BTreeMap::new();
            for (e, &w) in ddg.edges().zip(&weights) {
                let (a, b) = (macro_of[e.src.index()], macro_of[e.dst.index()]);
                if a != b {
                    *want.entry((a.min(b), a.max(b))).or_insert(0) += w + 1;
                }
            }
            want.into_iter()
                .map(|((a, b), w)| (a, b, w))
                .collect::<Vec<_>>()
        };
        let mut pairs = pair_map(h.level(0).macro_of);
        for l in 1..h.len() {
            let (prev, next) = (h.level(l - 1), h.level(l));
            let mut remap = vec![0u32; prev.n_macros];
            for (&p, &q) in prev.macro_of.iter().zip(next.macro_of) {
                remap[p as usize] = q;
            }
            pairs.retain_mut(|p| {
                let (a, b) = (remap[p.0 as usize], remap[p.1 as usize]);
                *p = (a.min(b), a.max(b), p.2);
                a != b
            });
            merge_parallel_pairs(&mut pairs);
            assert_eq!(pairs, pair_map(next.macro_of), "level {l}");
        }
        // The last round's list is the scratch's coarse graph, up to order.
        let mut last = scratch.coarsen.pairs.clone();
        merge_parallel_pairs(&mut last);
        assert_eq!(last, pairs);
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
        assert_eq!(h.len(), 1);
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
        let level1 = h.level(1);
        assert_eq!(level1.macro_of[x.index()], level1.macro_of[y.index()]);
        assert_ne!(level1.macro_of[x.index()], level1.macro_of[loose.index()]);
    }

    /// A reused scratch and hierarchy carry nothing from one graph to the
    /// next, and the rounds are counted.
    #[test]
    fn reused_buffers_match_fresh_ones() {
        let m = machine("2c1b2l64r");
        let mut scratch = RefineScratch::default();
        let mut h = Hierarchy::default();
        for n in [12, 3, 9] {
            let ddg = chain(n);
            let analysis = LoopAnalysis::new(&ddg, &m);
            let before = scratch.coarsen_rounds();
            coarsen(&ddg, &m, 2, &analysis, &mut scratch, &mut h);
            assert_eq!(h, coarsen_on(&ddg, "2c1b2l64r", 2), "{n} nodes");
            assert_eq!(scratch.coarsen_rounds() - before, h.len() as u64 - 1);
        }
    }
}
