//! Incrementally maintained recurrence-aware ASAP times.
//!
//! Partition refinement evaluates hundreds of candidate single-group moves
//! per II, and each evaluation used to re-run the full
//! [`longest_paths`] fixpoint from zero. A candidate move only
//! changes the latency of the edges incident to the moved group, so
//! [`IncrementalAsap`] maintains the fixpoint across speculations: it
//! updates only the **affected cone** with a dirty-node worklist seeded
//! from the changed edges' destinations, and restores the previous state
//! via an undo log when the speculation is rolled back — or keeps it as the
//! new base state when the move is accepted ([`IncrementalAsap::commit`]).
//!
//! The worklist pops in **topological rank** order of the distance-0
//! subgraph (the caller hands the order to [`IncrementalAsap::rebuild`]):
//! it is a bitset over ranks whose lowest set bit is popped next. Along
//! intra-iteration edges a node is therefore recomputed only after every
//! dirty predecessor has settled, so a chain cone of `k` nodes costs `k`
//! pops; a loop-carried edge that dirties a lower rank moves the sweep
//! back. Any other order can recompute a node once per dirty predecessor:
//! a LIFO stack over a breadth-first chain cone pops `O(k²)` times.
//!
//! # Exactness
//!
//! The ASAP system `t(v) = max(0, max over in-edges e of t(src(e)) +
//! lat(e) − ii·dist(e))` has a unique **least** fixpoint whenever it is
//! satisfiable, and every other fixpoint dominates it. The speculation
//! algorithm maintains two invariants that pin the result to exactly that
//! least fixpoint, no matter in which order the worklist drains:
//!
//! * **Start below.** Raised edges leave the old fixpoint a valid
//!   under-approximation of the new one (the least fixpoint is monotone in
//!   the latencies). Lowered edges do not: values downstream of a lowered
//!   edge may be *supported only by the old latency* — on a zero-weight
//!   recurrence they would stay stuck at the stale height forever. So the
//!   cone reachable from every lowered edge's destination is reset to 0
//!   first. Nodes outside that cone have all predecessors outside it too
//!   (the cone is successor-closed), so their old values are still exact.
//! * **Recompute, never just relax.** Each popped node is recomputed from
//!   *all* its in-edges, so the state can only move toward the fixpoint;
//!   starting ≤ the least fixpoint it can never overshoot, and when the
//!   worklist drains every constraint holds — the state *is* the least
//!   fixpoint.
//!
//! Divergence (the new system is infeasible because `ii` < RecMII, so no
//! finite fixpoint exists) can never drain the worklist. It is caught by a
//! **ceiling**: when the new system is feasible, every node's least
//! fixpoint value is the weight of some simple path, and a simple path
//! gains at most the summed raise `Δ` of all raised edges over its base
//! weight, which the base length bounds. So no value of a feasible
//! candidate exceeds `length + Δ`, and since the iterates stay at or below
//! the least fixpoint, an iterate above that ceiling proves the candidate
//! infeasible — exactly when [`longest_paths`] reports it. A pop budget
//! still bounds the incremental attempt and falls back to the full sweep,
//! and so does a speculation on an infeasible base state. Either way the
//! result is **exactly** what the full recompute would produce; debug
//! assertions in the caller (partition refinement) verify that per
//! candidate.

use crate::analysis::longest_paths;
use crate::graph::{Ddg, NodeId};

/// Pop budget multiplier: speculations that have not converged after
/// `SPEC_BUDGET_PER_NODE · (n + 8)` worklist pops fall back to the full
/// sweep. Generous enough that feasible updates essentially never hit it;
/// infeasible ones are normally cut earlier by the ceiling (see the module
/// docs), and the budget bounds the rest.
const SPEC_BUDGET_PER_NODE: usize = 8;

/// The incrementally maintained ASAP fixpoint of one (graph, II, edge
/// latency vector) state, supporting speculative single-move updates with
/// exact rollback. See the module docs for the algorithm and its
/// exactness argument.
#[derive(Clone, Debug, Default)]
pub struct IncrementalAsap {
    asap: Vec<i64>,
    length: i64,
    /// How many nodes sit at `length` in the base state — lets a
    /// speculation derive its new maximum from its changed nodes alone
    /// unless every holder of the old maximum changed.
    max_count: usize,
    feasible: bool,
    /// Successor-closed set of nodes reset for a lowered-edge speculation.
    cone: Vec<u32>,
    in_cone: Vec<bool>,
    /// Topological rank of each node in the distance-0 subgraph, and the
    /// node at each rank (the sweep order of the full solves).
    rank: Vec<u32>,
    by_rank: Vec<NodeId>,
    /// Dirty-node worklist: a bitset over ranks, popped lowest rank first
    /// (the fixpoint is order-independent; the order only saves pops).
    pending: Vec<u64>,
    /// The lowest word of `pending` that may be non-zero;
    /// `pending.len()` when the worklist is empty.
    lo: usize,
    /// `(node, previous value)` log of the active speculation, one record
    /// per written node; once the speculation converges, only the nodes
    /// whose value changed (see [`IncrementalAsap::spec_changed`]).
    undo: Vec<(u32, i64)>,
    /// Whether a node already has its record in `undo`.
    saved: Vec<bool>,
    /// Whether the active speculation fell back to a full sweep (the
    /// pre-speculation state then lives in `full_tmp`).
    swapped_full: bool,
    full_tmp: Vec<i64>,
    /// What the active speculation returned, for [`IncrementalAsap::commit`].
    spec_len: Option<i64>,
    /// Calls to [`IncrementalAsap::speculate`] and worklist pops since
    /// construction or the last [`IncrementalAsap::reset_counts`].
    speculations: u64,
    pops: u64,
}

impl IncrementalAsap {
    /// Rebuilds the fixpoint from scratch for the given edge-latency
    /// vector (aligned with `ddg.edges()` order) — the non-incremental
    /// baseline every speculation is measured against. `topo` is a
    /// topological order of the distance-0 subgraph (every node once, as
    /// [`topo_order`](crate::topo_order) returns it); the worklist pops by its ranks.
    pub fn rebuild(&mut self, ddg: &Ddg, ii: u32, edge_lat: &[u32], topo: &[NodeId]) {
        debug_assert!(self.undo.is_empty() && !self.swapped_full);
        let n = ddg.node_count();
        debug_assert_eq!(topo.len(), n, "one rank per node");
        self.rank.clear();
        self.rank.resize(n, 0);
        self.by_rank.clear();
        self.by_rank.extend_from_slice(topo);
        for (r, &v) in topo.iter().enumerate() {
            self.rank[v.index()] = r as u32;
        }
        match longest_paths(ddg, &self.by_rank, ii, edge_lat, &mut self.asap, None) {
            Some(length) => {
                self.feasible = true;
                self.length = length;
                self.max_count = self.asap.iter().filter(|&&t| t == length).count();
            }
            None => {
                self.feasible = false;
                self.length = i64::MAX;
                self.max_count = 0;
            }
        }
        self.in_cone.clear();
        self.in_cone.resize(n, false);
        self.saved.clear();
        self.saved.resize(n, false);
        self.pending.clear();
        self.pending.resize(n.div_ceil(64), 0);
        self.lo = self.pending.len();
        self.cone.clear();
    }

    /// Whether the maintained base state satisfies all recurrences.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// `max(asap)` of the maintained state (the estimated issue span);
    /// `i64::MAX` when infeasible.
    #[must_use]
    pub fn length(&self) -> i64 {
        self.length
    }

    /// The maintained ASAP times. During a speculation this is the
    /// *speculated* state (meaningful only when the speculation returned
    /// `Some`); otherwise the base state.
    #[must_use]
    pub fn asap(&self) -> &[i64] {
        &self.asap
    }

    /// The nodes whose ASAP value the active speculation changed, each
    /// exactly once as `(node index, value before the speculation)`, in no
    /// particular order. A node the speculation recomputed to its old
    /// value is not listed. Meaningful only when the speculation returned
    /// `Some`; `None` when it ran the full-sweep fallback (every node may
    /// have changed).
    #[must_use]
    pub fn spec_changed(&self) -> Option<&[(u32, i64)]> {
        if self.swapped_full {
            None
        } else {
            Some(&self.undo)
        }
    }

    /// Calls to [`IncrementalAsap::speculate`] since construction or the
    /// last [`IncrementalAsap::reset_counts`].
    #[must_use]
    pub fn speculations(&self) -> u64 {
        self.speculations
    }

    /// Worklist pops of the incremental speculations counted by
    /// [`IncrementalAsap::speculations`]: the host-independent measure of
    /// their work.
    #[must_use]
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// Zeroes [`IncrementalAsap::speculations`] and
    /// [`IncrementalAsap::pops`].
    pub fn reset_counts(&mut self) {
        self.speculations = 0;
        self.pops = 0;
    }

    /// Speculatively re-solves the fixpoint after an edge-latency change.
    ///
    /// `edge_lat` must already contain the *candidate* latencies;
    /// `changes` lists `(edge id, base latency)` for every edge whose
    /// latency differs from the state of the last
    /// [`IncrementalAsap::rebuild`], each edge once. Returns the new
    /// `max(asap)` or `None` when the candidate system is infeasible,
    /// exactly as [`longest_paths`] would. The caller must end every
    /// speculation with [`IncrementalAsap::rollback`] or
    /// [`IncrementalAsap::commit`].
    pub fn speculate(
        &mut self,
        ddg: &Ddg,
        ii: u32,
        edge_lat: &[u32],
        changes: &[(u32, u32)],
    ) -> Option<i64> {
        let len = self.speculate_inner(ddg, ii, edge_lat, changes);
        self.spec_len = len;
        len
    }

    fn speculate_inner(
        &mut self,
        ddg: &Ddg,
        ii: u32,
        edge_lat: &[u32],
        changes: &[(u32, u32)],
    ) -> Option<i64> {
        debug_assert!(self.undo.is_empty() && !self.swapped_full && self.lo == self.pending.len());
        self.speculations += 1;
        if !self.feasible {
            return self.speculate_full(ddg, ii, edge_lat);
        }
        let n = ddg.node_count();

        // Raised edges dirty their destinations and lift the ceiling;
        // lowered ones seed the cone that is reset to the unsupported
        // floor (successor-closed; everything in it gets recomputed from
        // its predecessors).
        let mut ceiling = self.length;
        for &(eid, old) in changes {
            let new = edge_lat[eid as usize];
            let d = ddg.edge(eid).dst.index();
            if new > old {
                ceiling += i64::from(new - old);
                self.push(d as u32);
            } else if new < old && !self.in_cone[d] {
                self.in_cone[d] = true;
                self.cone.push(d as u32);
            }
        }
        let mut head = 0;
        while head < self.cone.len() {
            let v = NodeId::new(self.cone[head]);
            head += 1;
            for &eid in ddg.out_edge_ids(v) {
                let w = ddg.edge(eid).dst.index();
                if !self.in_cone[w] {
                    self.in_cone[w] = true;
                    self.cone.push(w as u32);
                }
            }
        }
        for i in 0..self.cone.len() {
            let v = self.cone[i];
            self.in_cone[v as usize] = false;
            self.save(v);
            self.asap[v as usize] = 0;
            self.push(v);
        }
        self.cone.clear();

        let budget = SPEC_BUDGET_PER_NODE * (n + 8);
        let mut pops = 0usize;
        while let Some(v) = self.pop() {
            pops += 1;
            if pops > budget {
                // Pathologically slow; the full sweep settles it exactly.
                self.pops += pops as u64;
                self.abandon();
                return self.speculate_full(ddg, ii, edge_lat);
            }
            let node = NodeId::new(v);
            let mut val = 0i64;
            for &eid in ddg.in_edge_ids(node) {
                let e = ddg.edge(eid);
                let t = self.asap[e.src.index()] + i64::from(edge_lat[eid as usize])
                    - i64::from(ii) * i64::from(e.distance);
                val = val.max(t);
            }
            if val > ceiling {
                // Diverging: the candidate is infeasible.
                self.pops += pops as u64;
                self.abandon();
                return None;
            }
            if val != self.asap[v as usize] {
                self.save(v);
                self.asap[v as usize] = val;
                for &eid in ddg.out_edge_ids(node) {
                    self.push(ddg.edge(eid).dst.index() as u32);
                }
            }
        }
        // Keep only the nodes whose value changed, and derive the new
        // maximum from them: unchanged nodes keep their base values, whose
        // maximum is `length` iff some holder of the base maximum is among
        // them. Only when the speculation changed *every* holder is a full
        // scan needed.
        let IncrementalAsap {
            asap,
            length,
            undo,
            saved,
            ..
        } = self;
        let mut max_new = i64::MIN;
        let mut holders_changed = 0usize;
        undo.retain(|&(v, old)| {
            saved[v as usize] = false;
            let now = asap[v as usize];
            if now == old {
                return false;
            }
            if old == *length {
                holders_changed += 1;
            }
            max_new = max_new.max(now);
            true
        });
        self.pops += pops as u64;
        Some(if holders_changed < self.max_count {
            self.length.max(max_new)
        } else {
            self.asap.iter().copied().max().unwrap_or(0)
        })
    }

    /// Ends the active speculation and restores the base state exactly.
    pub fn rollback(&mut self) {
        if self.swapped_full {
            std::mem::swap(&mut self.asap, &mut self.full_tmp);
            self.swapped_full = false;
        } else {
            for &(v, old) in &self.undo {
                self.asap[v as usize] = old;
            }
            self.undo.clear();
        }
    }

    /// Ends the active speculation by making its state the new base state:
    /// afterwards the fixpoint is exactly what [`IncrementalAsap::rebuild`]
    /// would compute for `edge_lat`, the candidate latencies the
    /// speculation ran on. A speculation the ceiling proved infeasible left
    /// the base values in place, so that one case re-runs the full sweep;
    /// every other case keeps the speculated values as they are.
    pub fn commit(&mut self, ddg: &Ddg, ii: u32, edge_lat: &[u32]) {
        match self.spec_len {
            Some(length) => {
                self.feasible = true;
                self.length = length;
                self.max_count = self.asap.iter().filter(|&&t| t == length).count();
            }
            None => {
                if !self.swapped_full {
                    let full =
                        longest_paths(ddg, &self.by_rank, ii, edge_lat, &mut self.asap, None);
                    debug_assert!(
                        full.is_none(),
                        "the ceiling proved the candidate infeasible"
                    );
                }
                self.feasible = false;
                self.length = i64::MAX;
                self.max_count = 0;
            }
        }
        self.swapped_full = false;
        self.undo.clear();
    }

    fn speculate_full(&mut self, ddg: &Ddg, ii: u32, edge_lat: &[u32]) -> Option<i64> {
        let res = longest_paths(ddg, &self.by_rank, ii, edge_lat, &mut self.full_tmp, None);
        std::mem::swap(&mut self.asap, &mut self.full_tmp);
        self.swapped_full = true;
        res
    }

    /// Drops the worklist and restores the base state of an unfinished
    /// speculation.
    fn abandon(&mut self) {
        self.pending[self.lo..].fill(0);
        self.lo = self.pending.len();
        for &(v, old) in &self.undo {
            self.asap[v as usize] = old;
            self.saved[v as usize] = false;
        }
        self.undo.clear();
    }

    /// Records `v`'s pre-speculation value, once per speculation.
    fn save(&mut self, v: u32) {
        if !self.saved[v as usize] {
            self.saved[v as usize] = true;
            self.undo.push((v, self.asap[v as usize]));
        }
    }

    fn push(&mut self, v: u32) {
        let r = self.rank[v as usize] as usize;
        self.pending[r / 64] |= 1 << (r % 64);
        self.lo = self.lo.min(r / 64);
    }

    /// Pops the dirty node of lowest topological rank.
    fn pop(&mut self) -> Option<u32> {
        while let Some(&word) = self.pending.get(self.lo) {
            if word != 0 {
                self.pending[self.lo] = word & (word - 1);
                let r = self.lo * 64 + word.trailing_zeros() as usize;
                return Some(self.by_rank[r].index() as u32);
            }
            self.lo += 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::topo_order;
    use crate::op::OpKind;

    /// Chain a→b→c plus the recurrence c→a (distance 1).
    fn ring() -> Ddg {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        b.build().unwrap()
    }

    fn full(ddg: &Ddg, ii: u32, lat: &[u32]) -> (Option<i64>, Vec<i64>) {
        let mut asap = Vec::new();
        let r = longest_paths(ddg, &topo_order(ddg), ii, lat, &mut asap, None);
        (r, asap)
    }

    #[test]
    fn raise_matches_full_recompute() {
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 12, &base, &topo_order(&ddg));
        assert!(inc.is_feasible());

        let raised = vec![5u32, 3, 3]; // edge 0 (a→b) got a bus penalty
        let got = inc.speculate(&ddg, 12, &raised, &[(0, 3)]);
        let (want, want_asap) = full(&ddg, 12, &raised);
        assert_eq!(got, Some(8));
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
        let (_, base_asap) = full(&ddg, 12, &base);
        assert_eq!(inc.asap(), &base_asap[..]);
    }

    #[test]
    fn lower_on_tight_recurrence_matches_full_recompute() {
        // At II = RecMII the cycle is zero-weight: exactly the case where
        // naive re-relaxation without the cone reset would stay stuck at
        // the stale (higher) fixpoint.
        let ddg = ring();
        let with_bus = vec![5u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 11, &with_bus, &topo_order(&ddg)); // RecMII of the raised system
        assert!(inc.is_feasible());

        let without = vec![3u32, 3, 3];
        let got = inc.speculate(&ddg, 11, &without, &[(0, 5)]);
        let (want, want_asap) = full(&ddg, 11, &without);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
    }

    #[test]
    fn infeasible_speculation_is_detected_and_rolls_back() {
        let ddg = ring();
        let base = vec![3u32, 3, 3]; // RecMII 9
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 9, &base, &topo_order(&ddg));
        assert!(inc.is_feasible());

        let raised = vec![9u32, 3, 3]; // cycle weight 15 > 9: infeasible
        assert_eq!(inc.speculate(&ddg, 9, &raised, &[(0, 3)]), None);
        inc.rollback();
        let (_, base_asap) = full(&ddg, 9, &base);
        assert_eq!(inc.asap(), &base_asap[..]);
        assert!(inc.is_feasible());
    }

    #[test]
    fn infeasible_base_falls_back_to_full() {
        let ddg = ring();
        let heavy = vec![9u32, 9, 9];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 3, &heavy, &topo_order(&ddg));
        assert!(!inc.is_feasible());
        assert_eq!(inc.length(), i64::MAX);

        let light = vec![1u32, 1, 1];
        let got = inc.speculate(&ddg, 3, &light, &[(0, 9), (1, 9), (2, 9)]);
        let (want, want_asap) = full(&ddg, 3, &light);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        assert!(inc.spec_changed().is_none());
        inc.rollback();
    }

    #[test]
    fn lowering_every_max_holder_still_finds_the_new_max() {
        // Base fixpoint a=0, b=3, c=6: the unique holder of the maximum is
        // in the lowered cone, so the incremental max derivation must take
        // the full-scan fallback and still agree with the full recompute.
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 20, &base, &topo_order(&ddg));
        assert_eq!(inc.length(), 6);

        let lowered = vec![3u32, 1, 3];
        let got = inc.speculate(&ddg, 20, &lowered, &[(1, 3)]);
        let (want, want_asap) = full(&ddg, 20, &lowered);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        inc.rollback();
    }

    #[test]
    fn spec_changed_lists_each_changed_node_once() {
        let ddg = ring();
        let base = vec![3u32, 3, 3];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 20, &base, &topo_order(&ddg));
        let base_asap = inc.asap().to_vec();
        // Raising a→b moves b and, through it, c. Lowering c→a resets the
        // whole ring; a recomputes to its old value and must not be listed.
        let moved = vec![6u32, 3, 2];
        inc.speculate(&ddg, 20, &moved, &[(0, 3), (2, 3)]);
        let mut changed = inc.spec_changed().expect("incremental path").to_vec();
        changed.sort_unstable();
        assert_eq!(changed, vec![(1, base_asap[1]), (2, base_asap[2])]);
        inc.rollback();
        assert!(inc.spec_changed().expect("no active spec").is_empty());
        assert_eq!(inc.asap(), &base_asap[..]);
    }

    /// Committing a speculation leaves exactly the state a rebuild on the
    /// candidate latencies has — after a raise, a lower, an infeasible
    /// candidate the ceiling caught, and a speculation on an infeasible
    /// base — and the next speculation starts from it.
    #[test]
    fn commit_equals_a_rebuild_on_the_candidate_latencies() {
        let ddg = ring();
        let topo = topo_order(&ddg);
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 12, &[3, 3, 3], &topo);
        let steps = [
            (vec![5, 3, 3], vec![(0, 3)]),
            (vec![5, 1, 3], vec![(1, 3)]),
            (vec![5, 9, 3], vec![(1, 1)]),
            (vec![1, 1, 1], vec![(0, 5), (1, 9), (2, 3)]),
        ];
        for (lat, changes) in &steps {
            let got = inc.speculate(&ddg, 12, lat, changes);
            inc.commit(&ddg, 12, lat);
            let mut fresh = IncrementalAsap::default();
            fresh.rebuild(&ddg, 12, lat, &topo);
            assert_eq!(got, fresh.is_feasible().then(|| fresh.length()));
            assert_eq!(inc.is_feasible(), fresh.is_feasible(), "{lat:?}");
            assert_eq!(inc.length(), fresh.length(), "{lat:?}");
            assert_eq!(inc.max_count, fresh.max_count, "{lat:?}");
            assert_eq!(inc.asap(), fresh.asap(), "{lat:?}");
            assert!(inc.spec_changed().is_some_and(<[_]>::is_empty));
        }
    }

    /// Lowering the head edge of a chain resets the whole tail; popped in
    /// topological order each tail node is recomputed once.
    #[test]
    fn chain_cone_costs_one_pop_per_node() {
        const N: usize = 64;
        let mut b = Ddg::builder();
        let nodes: Vec<_> = (0..N).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in nodes.windows(2) {
            b.data(w[0], w[1]);
        }
        let ddg = b.build().unwrap();
        let base = vec![3u32; N - 1];
        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, 1, &base, &topo_order(&ddg));
        let mut lowered = base.clone();
        lowered[0] = 1;
        let got = inc.speculate(&ddg, 1, &lowered, &[(0, 3)]);
        let (want, want_asap) = full(&ddg, 1, &lowered);
        assert_eq!(got, want);
        assert_eq!(inc.asap(), &want_asap[..]);
        assert_eq!(inc.spec_changed().map(<[_]>::len), Some(N - 1));
        inc.rollback();
        assert_eq!(inc.speculations(), 1);
        assert!(inc.pops() <= 2 * N as u64, "{} pops", inc.pops());
        inc.reset_counts();
        assert_eq!((inc.speculations(), inc.pops()), (0, 0));
    }
}
