//! The replication selection loop (§3.3–§3.4): greedily replicate the
//! lightest subgraph until the bus is no longer oversubscribed.

use std::collections::BTreeSet;

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};

use crate::liveness::{always_anchor_into, dead_instances_dense, DenseViewRef};
use crate::plan::{
    plan_fits_dense, plan_weight_dense, share_counts_dense, PlanArena, PlanRef, ReplicationPlan,
};
use crate::sched_len::LengthScratch;

/// The replication engine's persistent workspace: the always-anchor slice
/// the liveness queries run on, the dense [`PlanArena`], the
/// usage/extra/freed censuses and the share table. One scratch serves
/// every engine run of a compilation (every II of every replicating mode)
/// and every run of the §5.1 extension
/// ([`extend_for_length`](crate::extend_for_length)), which shares the
/// anchors, census, liveness and communication buffers and counts its
/// work here; each run resets what it needs, so a scratch may move freely
/// between loops.
#[derive(Clone, Debug, Default)]
pub struct EngineScratch {
    pub(crate) always_anchor: Vec<bool>,
    arena: PlanArena,
    share: Vec<u32>,
    pub(crate) usage: Vec<[u32; 3]>,
    extra: Vec<[u32; 3]>,
    freed: Vec<[u32; 3]>,
    pub(crate) com_src: Vec<u8>,
    pub(crate) live: Vec<ClusterSet>,
    pub(crate) worklist: Vec<(NodeId, u8)>,
    pub(crate) dead: Vec<(NodeId, u8)>,
    pub(crate) coms_buf: Vec<NodeId>,
    /// The §5.1 extension's own buffers.
    pub(crate) len: LengthScratch,
    /// §5.1 extension rounds run (one latency pass each).
    pub(crate) sched_len_rounds: u64,
    /// §5.1 candidate replications priced.
    pub(crate) sched_len_candidates: u64,
    /// §5.1 candidate replications committed.
    pub(crate) sched_len_commits: u64,
}

impl EngineScratch {
    /// Zeroes the §5.1 extension's work counters.
    pub(crate) fn reset_counts(&mut self) {
        self.sched_len_rounds = 0;
        self.sched_len_candidates = 0;
        self.sched_len_commits = 0;
    }
}

/// Counters describing what a replication pass did to one loop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Communications implied by the partition before replication.
    pub initial_coms: u32,
    /// Communications remaining afterwards.
    pub final_coms: u32,
    /// Instances created, per functional-unit class (`[int, fp, mem]`).
    pub added_by_class: [u32; 3],
    /// Distinct subgraph replications committed.
    pub subgraphs_replicated: u32,
    /// Instances removed because they became useless (§3.2).
    pub removed_instances: u32,
    /// Instances removed, per functional-unit class (`[int, fp, mem]`).
    pub removed_by_class: [u32; 3],
}

impl ReplicationStats {
    /// Total instances created.
    #[must_use]
    pub fn added_instances(&self) -> u32 {
        self.added_by_class.iter().sum()
    }

    /// Communications removed.
    #[must_use]
    pub fn removed_coms(&self) -> u32 {
        self.initial_coms - self.final_coms
    }

    /// Net instances added per class (added − removed; negative values are
    /// clamped to zero for reporting).
    #[must_use]
    pub fn net_added_by_class(&self) -> [u32; 3] {
        let mut net = [0u32; 3];
        for (slot, (&added, &removed)) in net
            .iter_mut()
            .zip(self.added_by_class.iter().zip(&self.removed_by_class))
        {
            *slot = added.saturating_sub(removed);
        }
        net
    }
}

/// Result of running the replication engine at one II.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationOutcome {
    /// Bus bandwidth now fits every remaining communication.
    Fits,
    /// Resource constraints stopped replication early; the paper's driver
    /// reacts by increasing the II and refining the partition.
    Stuck {
        /// Communications still exceeding bus bandwidth.
        remaining_extra: u32,
    },
}

/// The iterative replication engine of §3.
///
/// Holds the evolving multi-instance [`Assignment`] plus the set of values
/// still communicated, recomputing every plan and weight after each commit
/// (the §3.4 updates: subgraphs grow, shrink and change target clusters as
/// replicas appear).
#[derive(Clone, Debug)]
pub struct ReplicationEngine<'a> {
    ddg: &'a Ddg,
    machine: &'a MachineConfig,
    /// The loop's cached analysis; its recurrence flags anchor liveness.
    analysis: &'a LoopAnalysis,
    ii: u32,
    assignment: Assignment,
    coms: BTreeSet<NodeId>,
    stats: ReplicationStats,
    /// Lazily (re)built [`PlanArena`] behind [`ReplicationEngine::plans`],
    /// invalidated by every commit.
    cache: PlanArena,
    cache_valid: bool,
    /// Weights aligned with `cache`'s plan order.
    cached_weights: Vec<f64>,
    weights_valid: bool,
    /// Whether the assignment is known to hold no dead instance — true
    /// after a commit whose removals left the communication set unchanged
    /// (the liveness anchors are then exactly the ones the commit's dead
    /// pass already settled). Gates the arena's region-only fast path.
    settled: bool,
}

impl<'a> ReplicationEngine<'a> {
    /// Creates an engine over a partition-derived assignment at `ii`;
    /// `analysis` must have been built for `(ddg, machine)`.
    #[must_use]
    pub fn new(
        ddg: &'a Ddg,
        machine: &'a MachineConfig,
        ii: u32,
        assignment: Assignment,
        analysis: &'a LoopAnalysis,
    ) -> Self {
        debug_assert_eq!(analysis.on_cycle().len(), ddg.node_count());
        let coms: BTreeSet<NodeId> = assignment.communicated(ddg).into_iter().collect();
        let stats = ReplicationStats {
            initial_coms: coms.len() as u32,
            final_coms: coms.len() as u32,
            ..ReplicationStats::default()
        };
        ReplicationEngine {
            ddg,
            machine,
            analysis,
            ii,
            assignment,
            coms,
            stats,
            cache: PlanArena::default(),
            cache_valid: false,
            cached_weights: Vec::new(),
            weights_valid: false,
            settled: false,
        }
    }

    /// Communications exceeding bus bandwidth at the current II
    /// (`extra_coms = nof_coms − bus_coms`, §3).
    #[must_use]
    pub fn extra_coms(&self) -> u32 {
        (self.coms.len() as u32).saturating_sub(self.machine.coms_capacity_per_ii(self.ii))
    }

    fn refresh_plans(&mut self) {
        if self.cache_valid {
            return;
        }
        let mut anchor = Vec::new();
        always_anchor_into(self.ddg, self.analysis.on_cycle(), &mut anchor);
        let coms: Vec<NodeId> = self.coms.iter().copied().collect();
        let clean = self
            .cache
            .build(self.ddg, &self.assignment, &coms, &anchor, self.settled);
        self.settled = clean;
        self.cache_valid = true;
        self.weights_valid = false;
    }

    fn refresh_weights(&mut self) {
        self.refresh_plans();
        if self.weights_valid {
            return;
        }
        let mut share = Vec::new();
        share_counts_dense(
            &self.cache,
            self.ddg.node_count(),
            self.machine.clusters(),
            &mut share,
        );
        let mut usage = Vec::new();
        self.assignment
            .class_usage_into(self.ddg, self.machine.clusters(), &mut usage);
        let mut extra = Vec::new();
        self.cached_weights.clear();
        for i in 0..self.cache.len() {
            self.cached_weights.push(plan_weight_dense(
                self.ddg,
                self.machine,
                self.ii,
                &usage,
                &mut extra,
                &share,
                self.cache.get(i),
            ));
        }
        self.weights_valid = true;
    }

    /// The current plans of every remaining communication, in ascending
    /// value order — a borrowed view into the engine's [`PlanArena`],
    /// rebuilt lazily after commits instead of allocating maps per call.
    pub fn plans(&mut self) -> &PlanArena {
        self.refresh_plans();
        &self.cache
    }

    /// The current plan removing the communication of `com`, if any.
    pub fn plan_of(&mut self, com: NodeId) -> Option<PlanRef<'_>> {
        self.refresh_plans();
        self.cache.by_com(com)
    }

    /// The §3.3 weights of the current plans, aligned with the plan order
    /// of [`ReplicationEngine::plans`].
    pub fn weights(&mut self) -> &[f64] {
        self.refresh_weights();
        &self.cached_weights
    }

    /// The §3.3 weight of `com`'s current plan, if `com` is communicated.
    pub fn weight_of(&mut self, com: NodeId) -> Option<f64> {
        self.refresh_weights();
        self.cache
            .by_com(com)
            .map(|p| self.cached_weights[p.index()])
    }

    /// Runs the greedy loop: while communications exceed bus bandwidth,
    /// commit the feasible plan with the lowest weight; stop when the bus
    /// fits or no plan fits the remaining resources (no over-replication,
    /// §3.3).
    ///
    /// The plan arena, the liveness anchors and every census and worklist
    /// live in `scratch` and are reused across engine runs; the anchors
    /// are refilled from the analysis on entry, so a warm scratch yields
    /// the same outcomes, assignments and statistics as a fresh one. The arena builds plans in the same ascending-value order the
    /// map oracle iterates, and every weight is the same arithmetic in the
    /// same order.
    pub fn run(&mut self, scratch: &mut EngineScratch) -> ReplicationOutcome {
        always_anchor_into(
            self.ddg,
            self.analysis.on_cycle(),
            &mut scratch.always_anchor,
        );
        while self.extra_coms() > 0 {
            let EngineScratch {
                always_anchor,
                arena,
                share,
                usage,
                extra,
                freed,
                com_src,
                live,
                worklist,
                dead,
                coms_buf,
                ..
            } = scratch;
            coms_buf.clear();
            coms_buf.extend(self.coms.iter().copied());
            let clean = arena.build(
                self.ddg,
                &self.assignment,
                coms_buf,
                always_anchor,
                self.settled,
            );
            self.settled = clean;
            share_counts_dense(arena, self.ddg.node_count(), self.machine.clusters(), share);
            self.assignment
                .class_usage_into(self.ddg, self.machine.clusters(), usage);
            let mut best: Option<(f64, u32, NodeId)> = None;
            let mut best_idx = usize::MAX;
            for (i, plan) in arena.iter().enumerate() {
                if !plan_fits_dense(self.ddg, self.machine, self.ii, usage, extra, freed, plan) {
                    continue;
                }
                let w =
                    plan_weight_dense(self.ddg, self.machine, self.ii, usage, extra, share, plan);
                let key = (w, plan.added_instances(), plan.com());
                // Ties break on fewer added instances, then node id.
                if best.as_ref().is_none_or(|b| key < *b) {
                    best = Some(key);
                    best_idx = i;
                }
            }
            if best.is_none() {
                return ReplicationOutcome::Stuck {
                    remaining_extra: self.extra_coms(),
                };
            }
            let plan = arena.get(best_idx);
            self.commit_dense(
                plan.com(),
                plan.adds(),
                always_anchor,
                com_src,
                live,
                worklist,
                dead,
                coms_buf,
            );
        }
        ReplicationOutcome::Fits
    }

    /// Applies one plan: create its instances, drop the communication,
    /// remove instances that became dead, refresh statistics.
    pub fn commit(&mut self, plan: &ReplicationPlan) {
        let mut always_anchor = Vec::new();
        always_anchor_into(self.ddg, self.analysis.on_cycle(), &mut always_anchor);
        let adds: Vec<(NodeId, ClusterSet)> = plan.adds.iter().map(|(&n, &set)| (n, set)).collect();
        self.commit_dense(
            plan.com,
            &adds,
            &always_anchor,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut Vec::new(),
        );
    }

    /// [`ReplicationEngine::commit`] over caller-owned buffers and a
    /// dense adds slice (ascending by node, matching map iteration).
    #[allow(clippy::too_many_arguments)]
    fn commit_dense(
        &mut self,
        com: NodeId,
        adds: &[(NodeId, ClusterSet)],
        always_anchor: &[bool],
        com_src: &mut Vec<u8>,
        live: &mut Vec<ClusterSet>,
        worklist: &mut Vec<(NodeId, u8)>,
        dead: &mut Vec<(NodeId, u8)>,
        coms_buf: &mut Vec<NodeId>,
    ) {
        for &(n, set) in adds {
            for c in set.iter() {
                debug_assert!(!self.assignment.instances(n).contains(c));
                self.assignment.add_instance(n, c);
                self.stats.added_by_class[self.ddg.kind(n).class().index()] += 1;
            }
        }
        self.stats.subgraphs_replicated += 1;

        // The communication set can only shrink (side removals may satisfy
        // other communications too); recompute from scratch.
        self.assignment.communicated_into(self.ddg, coms_buf);
        self.coms.clear();
        self.coms.extend(coms_buf.iter().copied());
        debug_assert!(!self.coms.contains(&com));

        // Remove dead instances (§3.2).
        com_src.clear();
        com_src.extend(coms_buf.iter().map(|&v| self.assignment.copy_source(v)));
        dead_instances_dense(
            self.ddg,
            DenseViewRef {
                instances: self.assignment.instance_sets(),
                coms: coms_buf,
                com_src,
            },
            always_anchor,
            live,
            worklist,
            dead,
        );
        for &(n, c) in dead.iter() {
            self.assignment.remove_instance(n, c);
            self.stats.removed_instances += 1;
            self.stats.removed_by_class[self.ddg.kind(n).class().index()] += 1;
        }
        // Removals can alter the communication set further; settle. If it
        // is unchanged, the liveness anchors still match the dead pass
        // above, so the surviving instances are all provably live (dead
        // removals never sat on a live instance's anchor chain) — the next
        // plan build may take the region-only fast path.
        self.assignment.communicated_into(self.ddg, coms_buf);
        self.settled = self.coms.len() == coms_buf.len()
            && self.coms.iter().zip(coms_buf.iter()).all(|(a, b)| a == b);
        self.coms.clear();
        self.coms.extend(coms_buf.iter().copied());
        self.stats.final_coms = self.coms.len() as u32;
        self.cache_valid = false;
        self.weights_valid = false;
    }

    /// The values still communicated.
    #[must_use]
    pub fn communicated(&self) -> &BTreeSet<NodeId> {
        &self.coms
    }

    /// The loop body being replicated.
    #[must_use]
    pub fn ddg(&self) -> &Ddg {
        self.ddg
    }

    /// The target machine.
    #[must_use]
    pub fn machine(&self) -> &MachineConfig {
        self.machine
    }

    /// The initiation interval replication is working at.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Read access to the evolving assignment.
    #[must_use]
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Consumes the engine, returning the final assignment and statistics.
    #[must_use]
    pub fn into_parts(self) -> (Assignment, ReplicationStats) {
        (self.assignment, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// Two independent producer → remote-consumer pairs: 2 communications.
    fn two_coms() -> (Ddg, Assignment) {
        let mut b = Ddg::builder();
        let p0 = b.add_node(OpKind::IntAdd);
        let c0 = b.add_node(OpKind::Store);
        let p1 = b.add_node(OpKind::IntAdd);
        let c1 = b.add_node(OpKind::Store);
        b.data(p0, c0).data(p1, c1);
        let ddg = b.build().unwrap();
        (ddg, Assignment::from_partition(&[0, 1, 0, 2]))
    }

    #[test]
    fn engine_replicates_exactly_extra_coms() {
        let (ddg, asg) = two_coms();
        let m = machine("4c1b2l64r");
        // II = 2 → bus capacity 1 → extra = 1: exactly one replication.
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 2, asg, &analysis);
        assert_eq!(engine.extra_coms(), 1);
        assert_eq!(
            engine.run(&mut EngineScratch::default()),
            ReplicationOutcome::Fits
        );
        let (_, stats) = engine.into_parts();
        assert_eq!(stats.removed_coms(), 1, "no over-replication");
        assert_eq!(stats.final_coms, 1);
        assert_eq!(stats.added_by_class, [1, 0, 0]);
        // the dead original producer instance was cleaned up
        assert_eq!(stats.removed_instances, 1);
    }

    #[test]
    fn engine_removes_all_when_bus_has_no_room() {
        let (ddg, asg) = two_coms();
        let m = machine("4c1b2l64r");
        // II = 1 → capacity 0 → both communications must go.
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 1, asg, &analysis);
        assert_eq!(engine.extra_coms(), 2);
        assert_eq!(
            engine.run(&mut EngineScratch::default()),
            ReplicationOutcome::Fits
        );
        assert!(engine.communicated().is_empty());
    }

    #[test]
    fn engine_no_ops_when_bus_fits() {
        let (ddg, asg) = two_coms();
        let m = machine("4c2b2l64r");
        // II = 2, 2 buses → capacity 2 → nothing to do.
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 2, asg, &analysis);
        assert_eq!(engine.extra_coms(), 0);
        assert_eq!(
            engine.run(&mut EngineScratch::default()),
            ReplicationOutcome::Fits
        );
        let (asg2, stats) = engine.into_parts();
        assert_eq!(stats.added_instances(), 0);
        assert!(asg2.is_singleton());
    }

    #[test]
    fn engine_gets_stuck_when_nothing_fits() {
        // Producer chains too large for the target cluster's capacity:
        // 2 int ops must move into a cluster whose int unit has capacity
        // II·1 = 1 and already holds 1 int op.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        let p = b.add_node(OpKind::IntMul);
        let local = b.add_node(OpKind::IntAdd); // fills cluster 1's int slot
        let c = b.add_node(OpKind::Store);
        b.data(a, p).data(p, c).data(local, c);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0, 1, 1]);
        let m = machine("4c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 1, asg, &analysis);
        assert_eq!(engine.extra_coms(), 1);
        assert_eq!(
            engine.run(&mut EngineScratch::default()),
            ReplicationOutcome::Stuck { remaining_extra: 1 }
        );
    }

    #[test]
    fn weights_prefer_cheaper_subgraphs() {
        // com A needs 1 replica; com B needs a 3-node chain: A is lighter.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        let ca = b.add_node(OpKind::Store);
        let x = b.add_node(OpKind::IntAdd);
        let y = b.add_node(OpKind::IntAdd);
        let z = b.add_node(OpKind::IntMul);
        let cz = b.add_node(OpKind::Store);
        b.data(a, ca).data(x, y).data(y, z).data(z, cz);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1, 0, 0, 0, 2]);
        let m = machine("4c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 4, asg, &analysis);
        let wa = engine.weight_of(a).unwrap();
        let wz = engine.weight_of(z).unwrap();
        assert!(wa < wz, "single-node subgraph is lighter");
    }

    #[test]
    fn commit_updates_other_plans() {
        // After removing one communication, the other plan's subgraph can
        // grow to include the freshly replicated nodes (Figure 6, S_J).
        let mut b = Ddg::builder();
        let e = b.add_node(OpKind::IntAdd);
        let j = b.add_node(OpKind::IntMul);
        let ce = b.add_node(OpKind::Store); // remote consumer of e
        let cj = b.add_node(OpKind::Store); // remote consumer of j
        b.data(e, j).data(e, ce).data(j, cj);
        let ddg = b.build().unwrap();
        // e, j in cluster 0; ce in 1; cj in 2.
        let asg = Assignment::from_partition(&[0, 0, 1, 2]);
        let m = machine("4c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut engine = ReplicationEngine::new(&ddg, &m, 8, asg, &analysis);
        // S_j excludes e while e is communicated.
        let before_j: Vec<NodeId> = engine.plan_of(j).unwrap().subgraph().collect();
        assert_eq!(before_j, vec![j]);
        let plan_e = engine.plan_of(e).unwrap().to_plan();
        engine.commit(&plan_e);
        // e is no longer a communication: S_j must now pull it.
        let after_j: Vec<NodeId> = engine.plan_of(j).unwrap().subgraph().collect();
        assert_eq!(after_j, vec![e, j]);
    }
}
