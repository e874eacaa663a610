//! Pseudo-schedule-guided refinement of a partition (reference [2]).
//!
//! Refinement is the compilation driver's hottest loop: every II bump
//! re-scores hundreds of candidate single-node moves. Three layers keep
//! that cheap without changing a single accepted move:
//!
//! * **Lazy lexicographic rejection**: a candidate dies as soon as a cheap
//!   prefix of the score key — capacity overflow and bus overflow, both
//!   computed exactly from O(degree) deltas — already compares worse than
//!   the incumbent. The lexicographic comparison is decided by the first
//!   differing component, so the verdict equals the full score's. The bus
//!   delta comes from a *consumer-cluster census* taken once per move
//!   group: for every producer the move can affect, the cluster bitmask
//!   of its data consumers outside the group and whether one is inside
//!   it. Each target cluster then costs one mask test per producer, not a
//!   successor walk.
//! * **A critical-path witness bound**: every move base records one
//!   *witness path* of its ASAP fixpoint — a chain of tight edges from a
//!   node at time 0 to a node at the base length `L`, so the path's
//!   weight is exactly `L`. A candidate's fixpoint still contains that
//!   path, with only the latency changes the move makes on it, so its
//!   length is at least `L + Σ(new − old)` over the witness edges it
//!   changes (or it is infeasible, which is worse still). When the
//!   candidate ties the incumbent on everything before the length, that
//!   lower bound alone can prove it loses, and it is rejected without
//!   speculating. The bound is a proof, not an estimate, so the verdict
//!   equals the full score's.
//! * **Incremental scoring** for the survivors: a move only changes the
//!   latencies of the data edges incident to the moved group, so the
//!   recurrence check, the estimated length and the register pressure are
//!   re-derived from an incrementally maintained ASAP fixpoint
//!   ([`IncrementalAsap`]) instead of a from-scratch pseudo-schedule. The
//!   affected cone is updated, speculatively, and rolled back; debug
//!   builds re-score every candidate in full and assert byte equality.
//!
//! An accepted move does not rebuild that base either: the winner's
//! latencies are re-applied and its speculation *committed*, the usage
//! census and communication count take its deltas, and the register costs
//! are re-derived over the producers its cone touched; only the witness
//! path is walked again. Debug builds compare every committed base with a
//! fresh rebuild. A group whose scan found no move is not scanned again
//! until the next accept (the partition and the incumbent it was scanned
//! against are unchanged), and the next finer level of the multilevel walk
//! inherits that mark for the groups that are whole macros of the level
//! above; debug builds re-score every skipped target and assert none
//! improves.
//!
//! All of it is observationally pure, and no state survives a call:
//! [`refine_existing`] accepts exactly the moves of the full-rescore
//! oracle in the crate's `testing` module, pinned by debug assertions and
//! by `tests/refine_incremental_props.rs` over random and suite loops.

use cvliw_ddg::{Ddg, IncrementalAsap, NodeId, OpClass};
use cvliw_machine::MachineConfig;
use cvliw_sched::{pseudo_schedule, Assignment, LoopAnalysis, PseudoScratch};

use crate::coarsen::{CoarseLevel, CoarsenScratch, Hierarchy};
use crate::partition::Partition;

/// Comparable quality of a partition at a given II; **lower is better**.
///
/// The ordering is lexicographic over, in priority order: functional-unit
/// capacity overflow, bus-bandwidth overflow, recurrence infeasibility,
/// register overflow, communication count, estimated schedule length and
/// load imbalance — i.e. first make the partition schedulable, then
/// minimize communications, then the critical path, then balance.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartitionScore {
    key: (u32, u32, u8, u32, u32, i64, u32),
}

impl PartitionScore {
    /// Number of communications in the scored partition.
    #[must_use]
    pub fn comms(&self) -> u32 {
        self.key.4
    }

    /// Whether nothing rules the partition out at the scored II.
    #[must_use]
    pub fn feasible(&self) -> bool {
        let (cap, bus, rec, reg, ..) = self.key;
        cap == 0 && bus == 0 && rec == 0 && reg == 0
    }

    /// Estimated schedule length under the pseudo-schedule.
    #[must_use]
    pub fn est_length(&self) -> i64 {
        self.key.5
    }
}

/// Reusable state for refinement and scoring: the pseudo-schedule buffers,
/// a reusable [`Assignment`], the move groups of the level being refined,
/// the delta-evaluation worklists (group membership stamps,
/// affected-producer lists, usage censuses) and the incremental-ASAP
/// move-speculation state.
///
/// One `RefineScratch` serves a whole compilation — every II of every mode
/// — via `cvliw_replicate::CompileContext`'s compile scratch. All
/// incremental state is rebuilt at every `refine_level` entry, and the
/// coarsening buffers at every [`crate::coarsen`] call, so a scratch may
/// be reused across unrelated graphs.
#[derive(Clone, Debug)]
pub struct RefineScratch {
    pseudo: PseudoScratch,
    assignment: Assignment,
    /// The move groups of the level being refined, CSR-style: group `g`
    /// is `group_nodes[group_start[g]..group_start[g + 1]]`, its members
    /// in ascending node order.
    group_start: Vec<usize>,
    group_nodes: Vec<usize>,
    /// Current-partition instance census per cluster and class.
    usage: Vec<[u32; 3]>,
    /// Node stamps marking membership of the group being scanned.
    pub(crate) in_group: Vec<bool>,
    /// Consumer census of the producers whose communication status the
    /// move of the group being scanned can change.
    pub(crate) affected: Vec<ConsumerCensus>,
    /// Dedup stamps for building `affected` and the register-update set.
    pub(crate) seen: Vec<u32>,
    /// Current epoch for `seen`.
    epoch: u32,
    /// Incrementally maintained ASAP fixpoint of the current partition.
    inc: IncrementalAsap,
    /// Comm-adjusted per-edge latencies of the current partition.
    cur_edge_lat: Vec<u32>,
    /// `(edge id, previous latency)` log of the speculated candidate.
    edge_changes: Vec<(u32, u32)>,
    /// Per-producer register cost under the current partition's ASAP.
    node_regs: Vec<u64>,
    /// Per-cluster register estimate of the current partition.
    est_base: Vec<u64>,
    /// Per-cluster register estimate of the speculated candidate.
    est_tmp: Vec<u64>,
    /// The base fixpoint's witness path, one in-edge id per node on it
    /// (`NO_EDGE` elsewhere): edge `e` is on the path iff
    /// `witness_in[dst(e)] == e`.
    witness_in: Vec<u32>,
    /// Whether `witness_in` holds a witness path: off on an infeasible base
    /// and when the walk met a tight zero-weight cycle.
    witness_on: bool,
    /// Candidates the witness bound rejected without speculating, since
    /// creation or the last [`RefineScratch::reset_counts`].
    bound_rejections: u64,
    /// Communication count of the partition the move base describes, so a
    /// follow-up `refine_level` on the *same* (graph, II, partition) state
    /// can skip the entry recount (its `reuse_base`).
    base_ncoms: u32,
    /// Per group of the level being refined: the accept count at which
    /// its last scan found no move (see `refine_level`); on entry, 1 for a
    /// group the parent level left checked, 0 otherwise. On exit, 1 for a
    /// group checked since the level's last accept, 0 otherwise.
    checked: Vec<u32>,
    /// The parent level's exit `checked` flags, and its macro sizes.
    parent_checked: Vec<u32>,
    parent_size: Vec<u32>,
    /// The round buffers of [`crate::coarsen`].
    pub(crate) coarsen: CoarsenScratch,
    /// The seed hierarchy of [`crate::partition_loop_scratch`].
    pub(crate) hierarchy: Hierarchy,
    /// Coarsening rounds and moves accepted by multilevel (seed)
    /// refinement since creation or the last reset.
    pub(crate) coarsen_rounds: u64,
    seed_moves: u64,
    /// Moves accepted by the most recent refinement call, read by the
    /// move-sequence differential of the `testing` module.
    #[cfg(any(test, feature = "testing"))]
    pub(crate) move_log: Vec<(u32, u8, u8)>,
}

impl Default for RefineScratch {
    fn default() -> Self {
        RefineScratch {
            pseudo: PseudoScratch::default(),
            assignment: Assignment::from_partition(&[]),
            group_start: Vec::new(),
            group_nodes: Vec::new(),
            usage: Vec::new(),
            in_group: Vec::new(),
            affected: Vec::new(),
            seen: Vec::new(),
            epoch: 0,
            inc: IncrementalAsap::default(),
            cur_edge_lat: Vec::new(),
            edge_changes: Vec::new(),
            node_regs: Vec::new(),
            est_base: Vec::new(),
            est_tmp: Vec::new(),
            witness_in: Vec::new(),
            witness_on: false,
            bound_rejections: 0,
            base_ncoms: 0,
            checked: Vec::new(),
            parent_checked: Vec::new(),
            parent_size: Vec::new(),
            coarsen: CoarsenScratch::default(),
            hierarchy: Hierarchy::default(),
            coarsen_rounds: 0,
            seed_moves: 0,
            #[cfg(any(test, feature = "testing"))]
            move_log: Vec::new(),
        }
    }
}

impl RefineScratch {
    /// Incremental-ASAP move speculations run on this scratch since it was
    /// created or its counts were last reset.
    #[must_use]
    pub fn asap_speculations(&self) -> u64 {
        self.inc.speculations()
    }

    /// Worklist pops of those speculations: a host-independent measure of
    /// refinement's scoring work.
    #[must_use]
    pub fn asap_pops(&self) -> u64 {
        self.inc.pops()
    }

    /// Candidate moves the critical-path witness bound rejected without an
    /// incremental-ASAP speculation (see the module docs).
    #[must_use]
    pub fn bound_rejections(&self) -> u64 {
        self.bound_rejections
    }

    /// Coarsening rounds run by [`crate::coarsen`] on this scratch: one per
    /// level below the identity level.
    #[must_use]
    pub fn coarsen_rounds(&self) -> u64 {
        self.coarsen_rounds
    }

    /// Moves accepted by multilevel (seed) refinement,
    /// [`refine_hierarchy`], on this scratch.
    #[must_use]
    pub fn seed_moves(&self) -> u64 {
        self.seed_moves
    }

    /// Zeroes [`RefineScratch::asap_speculations`],
    /// [`RefineScratch::asap_pops`],
    /// [`RefineScratch::bound_rejections`],
    /// [`RefineScratch::coarsen_rounds`] and [`RefineScratch::seed_moves`].
    pub fn reset_counts(&mut self) {
        self.inc.reset_counts();
        self.bound_rejections = 0;
        self.coarsen_rounds = 0;
        self.seed_moves = 0;
    }

    /// Fills the group lists with one group per macro of `level` by
    /// counting sort: macros in index order, members in node order.
    fn set_groups(&mut self, level: CoarseLevel<'_>) {
        // Counts land at `m + 2`, so after the prefix sum `group_start[m +
        // 1]` is macro `m`'s start; placing each node advances that cursor
        // to macro `m + 1`'s start, which leaves `group_start[m]` = start
        // of `m` for every macro.
        self.group_start.clear();
        self.group_start.resize(level.n_macros + 2, 0);
        for &m in level.macro_of {
            self.group_start[m as usize + 2] += 1;
        }
        for m in 2..self.group_start.len() {
            self.group_start[m] += self.group_start[m - 1];
        }
        self.group_nodes.clear();
        self.group_nodes.resize(level.macro_of.len(), 0);
        for (node, &m) in level.macro_of.iter().enumerate() {
            self.group_nodes[self.group_start[m as usize + 1]] = node;
            self.group_start[m as usize + 1] += 1;
        }
        self.group_start.pop();
    }

    /// Carries the exit `checked` flags of `parent`, the next coarser
    /// level just refined, to the groups in the current group lists: a
    /// group is checked iff it is a whole macro of `parent` (its parent
    /// macro has no other members) and that macro was checked.
    fn carry_checked(&mut self, parent: CoarseLevel<'_>) {
        std::mem::swap(&mut self.checked, &mut self.parent_checked);
        self.parent_size.clear();
        self.parent_size.resize(parent.n_macros, 0);
        for &m in parent.macro_of {
            self.parent_size[m as usize] += 1;
        }
        self.checked.clear();
        self.checked.extend(self.group_start.windows(2).map(|g| {
            if g[0] == g[1] {
                return 0;
            }
            let p = parent.macro_of[self.group_nodes[g[0]]] as usize;
            let whole = self.parent_size[p] as usize == g[1] - g[0];
            u32::from(whole && self.parent_checked[p] == 1)
        }));
    }

    /// Marks every group of the current group lists unchecked.
    fn clear_checked(&mut self) {
        self.checked.clear();
        self.checked.resize(self.group_start.len() - 1, 0);
    }

    /// Fills the group lists with one singleton group per node.
    fn set_singleton_groups(&mut self, nodes: usize) {
        self.group_start.clear();
        self.group_start.extend(0..=nodes);
        self.group_nodes.clear();
        self.group_nodes.extend(0..nodes);
    }

    /// Rebuilds the incremental move-speculation base state — the current
    /// partition's comm-adjusted latencies, ASAP fixpoint, its witness path
    /// and per-producer register costs — from scratch. Called at
    /// `refine_level` entry; an accepted move updates the base state in
    /// place instead ([`RefineScratch::commit_move`]).
    fn rebuild_move_base(
        &mut self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        part: &Partition,
        analysis: &LoopAnalysis,
    ) {
        let base = analysis.edge_lat();
        let uniform = machine.uniform_transfer_latency();
        self.cur_edge_lat.clear();
        self.cur_edge_lat
            .extend(ddg.edges().zip(base).map(|(e, &lat)| {
                if !e.is_data() {
                    return lat;
                }
                let cs = part.cluster_of(e.src);
                let cd = part.cluster_of(e.dst);
                if cs == cd {
                    lat
                } else {
                    lat + uniform.unwrap_or_else(|| machine.transfer_latency(cs, cd))
                }
            }));
        self.inc
            .rebuild(ddg, ii, &self.cur_edge_lat, analysis.topo_order());
        self.rebuild_witness(ddg, ii);
        self.recount_regs(ddg, machine, ii, part, analysis);
    }

    /// Recomputes every producer's register cost and the per-cluster
    /// estimate from the maintained fixpoint (all zero when it is
    /// infeasible).
    fn recount_regs(
        &mut self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        part: &Partition,
        analysis: &LoopAnalysis,
    ) {
        self.node_regs.clear();
        self.node_regs.resize(ddg.node_count(), 0);
        self.est_base.clear();
        self.est_base.resize(machine.clusters() as usize, 0);
        if self.inc.is_feasible() {
            let asap = self.inc.asap();
            for n in ddg.node_ids() {
                if !ddg.kind(n).produces_value() {
                    continue;
                }
                let regs = node_reg_cost(ddg, ii, analysis, asap, n);
                self.node_regs[n.index()] = regs;
                self.est_base[part.cluster_of(n) as usize] += regs;
            }
        }
    }

    /// Records the base fixpoint's witness path: from the lowest-index node
    /// at the base length `L`, walk back along tight in-edges (`asap[u] +
    /// lat(e) − II·dist(e) == asap[v]`, the first in edge-id order) until a
    /// node at time 0. Tight edges telescope, so the path weighs exactly
    /// `L`. A node with a positive time always has a tight in-edge (it is a
    /// least fixpoint), but the walk may close a tight cycle — a zero-weight
    /// recurrence at II = RecMII — and then the bound is off for this base.
    fn rebuild_witness(&mut self, ddg: &Ddg, ii: u32) {
        self.witness_in.clear();
        self.witness_in.resize(ddg.node_count(), NO_EDGE);
        self.witness_on = false;
        if !self.inc.is_feasible() {
            return;
        }
        let asap = self.inc.asap();
        let Some(mut v) = asap.iter().position(|&t| t == self.inc.length()) else {
            return;
        };
        while asap[v] != 0 {
            if self.witness_in[v] != NO_EDGE {
                return;
            }
            let tight = ddg.in_edge_ids(NodeId::new(v as u32)).iter().find(|&&eid| {
                let e = ddg.edge(eid);
                asap[e.src.index()] + i64::from(self.cur_edge_lat[eid as usize])
                    - i64::from(ii) * i64::from(e.distance)
                    == asap[v]
            });
            let Some(&eid) = tight else {
                return;
            };
            self.witness_in[v] = eid;
            v = ddg.edge(eid).src.index();
        }
        self.witness_on = true;
    }
}

/// `witness_in` marker for a node off the witness path.
const NO_EDGE: u32 = u32::MAX;

/// Register cost of producer `n` under `asap`: its value lives from
/// definition to its furthest consumer (plus iteration distance), and an
/// overlapped lifetime of `span` cycles pins `ceil(span / II)` rotating
/// registers. Mirrors the pseudo-schedule's estimate exactly.
fn node_reg_cost(ddg: &Ddg, ii: u32, analysis: &LoopAnalysis, asap: &[i64], n: NodeId) -> u64 {
    let def = asap[n.index()];
    let mut last = def + i64::from(analysis.node_lat()[n.index()]);
    for e in ddg.out_edges(n) {
        if e.is_data() {
            last = last.max(asap[e.dst.index()] + i64::from(ii) * i64::from(e.distance));
        }
    }
    let span = (last - def).max(1) as u64;
    span.div_ceil(u64::from(ii))
}

/// Scores a partition with a pseudo-schedule (see [`PartitionScore`]) on a
/// cached [`LoopAnalysis`] and a reusable [`RefineScratch`] — allocation-free
/// once the scratch is warm.
#[must_use]
pub fn score_partition(
    ddg: &Ddg,
    part: &Partition,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
) -> PartitionScore {
    scratch.assignment.set_from_partition(part.as_slice());
    let ps = pseudo_schedule(
        ddg,
        &scratch.assignment,
        machine,
        ii,
        analysis,
        &mut scratch.pseudo,
    );
    let bus_overflow = ps.ncoms.saturating_sub(machine.coms_capacity_per_ii(ii));
    let totals = scratch.pseudo.usage.iter().map(|u| u.iter().sum());
    let (min, max) = totals.fold((u32::MAX, 0u32), |(lo, hi), t: u32| (lo.min(t), hi.max(t)));
    let imbalance = max - min.min(max);
    PartitionScore {
        key: (
            ps.cap_overflow,
            bus_overflow,
            u8::from(!ps.recurrences_ok),
            ps.reg_overflow,
            ps.ncoms,
            if ps.recurrences_ok {
                ps.est_length
            } else {
                i64::MAX
            },
            imbalance,
        ),
    }
}

/// Maximum improvement passes per hierarchy level.
pub(crate) const MAX_PASSES: usize = 2;

/// Refines a partition by walking the hierarchy from coarse to fine,
/// greedily moving macro-nodes between clusters while the score improves —
/// the refinement half of [`crate::partition_loop_scratch`]. Reads the
/// hierarchy only, so several variants may refine one hierarchy at once,
/// each on its own scratch.
///
/// `variant` is the best-of-N seed-racing perturbation: it rotates the
/// target-cluster scan order inside every level, so score *ties* between
/// destination clusters break differently and the greedy walk explores a
/// different trajectory. `variant == 0` is the canonical order.
#[must_use]
pub fn refine_hierarchy(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    hierarchy: &Hierarchy,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    variant: u32,
) -> Partition {
    #[cfg(any(test, feature = "testing"))]
    scratch.move_log.clear();
    let mut part = hierarchy.initial_partition();
    // Skip the coarsest level: each of its macros is an entire cluster.
    // Consecutive levels see the same (graph, II, partition) state, so the
    // first level's exit move base is every later level's entry base.
    let mut reuse_base = false;
    let top = hierarchy.len().saturating_sub(1);
    for l in (0..top).rev() {
        scratch.set_groups(hierarchy.level(l));
        if l + 1 < top {
            scratch.carry_checked(hierarchy.level(l + 1));
        } else {
            scratch.clear_checked();
        }
        let accepted;
        (part, accepted) = refine_level(
            ddg, machine, ii, part, analysis, scratch, variant, reuse_base,
        );
        scratch.seed_moves += accepted;
        reuse_base = true;
    }
    part
}

/// The "Refine Partition" box of the paper's Figure 2: refinement at node
/// granularity only, used by the driver whenever it increases the II.
/// Nothing outlives the call but the scratch's allocations, so one
/// [`RefineScratch`] may serve any sequence of graphs and machines.
#[must_use]
pub fn refine_existing(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    part: Partition,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
) -> Partition {
    #[cfg(any(test, feature = "testing"))]
    scratch.move_log.clear();
    if machine.clusters() == 1 {
        return part;
    }
    scratch.set_singleton_groups(ddg.node_count());
    scratch.clear_checked();
    refine_level(ddg, machine, ii, part, analysis, scratch, 0, false).0
}

/// Where one affected producer's data consumers live, relative to the move
/// group being scanned: the cluster bitmask of its consumers outside the
/// group (`MAX_CLUSTERS` is 32, so a `u32` holds any machine), whether it
/// has a consumer inside the group, and its own cluster — `None` for a
/// group member, whose home moves with the group.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConsumerCensus {
    outside: u32,
    inside: bool,
    home: Option<u8>,
}

impl ConsumerCensus {
    /// Takes the census of producer `x` under `part` with the group marked
    /// in `in_group`; `None` if `x` produces no value and so never pays.
    fn of(ddg: &Ddg, part: &Partition, in_group: &[bool], x: NodeId) -> Option<Self> {
        if !ddg.kind(x).produces_value() {
            return None;
        }
        let mut census = ConsumerCensus {
            outside: 0,
            inside: false,
            home: (!in_group[x.index()]).then(|| part.cluster_of(x)),
        };
        for &y in ddg.data_succs(x) {
            if in_group[y.index()] {
                census.inside = true;
            } else {
                census.outside |= 1 << part.cluster_of(y);
            }
        }
        Some(census)
    }

    /// Whether the producer needs a bus with the group re-homed to
    /// `target`: some consumer sits outside its home cluster — the exact
    /// [`Assignment::needs_comm`] predicate of the moved partition.
    fn pays(self, target: u8) -> bool {
        let home = self.home.unwrap_or(target);
        let inside = if self.inside { 1 << target } else { 0 };
        (self.outside | inside) & !(1u32 << home) != 0
    }
}

impl RefineScratch {
    /// Marks the members of `group` in `in_group` and takes the consumer
    /// census of every producer a move of the group can affect — the
    /// members and their data predecessors, each once — into `affected`.
    /// Returns the group's instance count per class. The caller clears the
    /// marks when done with the group.
    pub(crate) fn census_group(
        &mut self,
        ddg: &Ddg,
        part: &Partition,
        group: &[usize],
    ) -> [u32; 3] {
        self.epoch += 1;
        let epoch = self.epoch;
        for &i in group {
            self.in_group[i] = true;
        }
        self.affected.clear();
        let mut class_census = [0u32; 3];
        for &i in group {
            let m = NodeId::new(i as u32);
            class_census[ddg.kind(m).class().index()] += 1;
            for x in std::iter::once(m).chain(ddg.data_preds(m).iter().copied()) {
                if self.seen[x.index()] != epoch {
                    self.seen[x.index()] = epoch;
                    self.affected
                        .extend(ConsumerCensus::of(ddg, part, &self.in_group, x));
                }
            }
        }
        class_census
    }
}

/// Communications paid by the affected producers of a census with the
/// group re-homed to `target`.
pub(crate) fn comm_count_moved(affected: &[ConsumerCensus], target: u8) -> u32 {
    affected.iter().filter(|c| c.pays(target)).count() as u32
}

/// Per-cluster capacity overflow of one cluster under a usage census.
fn cluster_overflow(machine: &MachineConfig, ii: u32, cluster: u8, usage: &[u32; 3]) -> u32 {
    OpClass::ALL
        .iter()
        .map(|&class| {
            let cap = u32::from(machine.fu_count_in(cluster, class)) * ii;
            usage[class.index()].saturating_sub(cap)
        })
        .sum()
}

/// One greedy refinement walk over the groups in the scratch's group
/// lists. Returns the refined partition and the number of accepted moves.
///
/// `variant` rotates the target-cluster scan order (see
/// [`refine_hierarchy`]). `reuse_base` says the scratch already holds the
/// move base (census, comm count, ASAP fixpoint, register estimates) of
/// exactly this (graph, II, partition) — true between consecutive levels
/// of the multilevel walk, where the previous level's exit state *is* this
/// level's entry state. It skips the O(V + E) entry recount; the
/// entry-score debug assertion still cross-checks the reused state against
/// a full pseudo-schedule.
///
/// Whether a group's scan finds a move depends only on the group, the
/// partition, the incumbent score and `variant`: it finds one iff some
/// target scores below the incumbent, and every rejection layer is exact.
/// The partition and the incumbent change only on an accept. So a group
/// whose scan found no move, with no accept since, cannot move and is
/// skipped: `checked[g]` holds the accept count at which group `g` was last
/// scanned without a move, and the group is skipped while that is the
/// current count. This spares the second pass the groups after the first
/// pass's last accept, and — through the entry flags the multilevel walk
/// carries over (see [`RefineScratch::carry_checked`]) — the groups a
/// level shares with its parent that the parent checked after its last
/// accept: at level entry the partition and the score are the parent's
/// exit ones. Debug builds re-score every target of a skipped group in
/// full and assert that none improves.
#[allow(clippy::too_many_arguments)]
fn refine_level(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    mut part: Partition,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    variant: u32,
    reuse_base: bool,
) -> (Partition, u64) {
    let group_start = std::mem::take(&mut scratch.group_start);
    let group_nodes = std::mem::take(&mut scratch.group_nodes);
    let mut checked = std::mem::take(&mut scratch.checked);
    debug_assert_eq!(checked.len() + 1, group_start.len(), "one flag per group");
    // Accepts so far, plus one: the stamp of a scan under the current state.
    let mut state = 1u32;
    let bus_cap = machine.coms_capacity_per_ii(ii);
    // The cheap-delta base state of the *current* partition: instance
    // census, communication count and the incremental ASAP fixpoint,
    // refreshed after every accepted move. The entry score is assembled
    // from the same base state instead of a second full pseudo-schedule.
    let mut usage = std::mem::take(&mut scratch.usage);
    let mut ncoms;
    if reuse_base {
        ncoms = scratch.base_ncoms;
    } else {
        scratch.assignment.set_from_partition(part.as_slice());
        scratch
            .assignment
            .class_usage_into(ddg, machine.clusters(), &mut usage);
        ncoms = scratch.assignment.comm_count(ddg);
        scratch.rebuild_move_base(ddg, machine, ii, &part, analysis);
        scratch.base_ncoms = ncoms;
    }
    let mut best_score = base_score(
        machine,
        ii,
        bus_cap,
        &usage,
        ncoms,
        &scratch.inc,
        &scratch.est_base,
    );
    debug_assert_eq!(
        best_score,
        score_partition(ddg, &part, machine, ii, analysis, scratch),
        "base-state entry score diverged from the full pseudo-schedule"
    );

    scratch.in_group.clear();
    scratch.in_group.resize(ddg.node_count(), false);
    scratch.seen.clear();
    scratch.seen.resize(ddg.node_count(), 0);

    // Only macros touching a cross-cluster data edge are move candidates.
    let is_boundary = |part: &Partition, group: &[usize]| {
        group.iter().any(|&i| {
            let n = NodeId::new(i as u32);
            let c = part.cluster_of(n);
            ddg.out_edges(n)
                .map(|e| e.dst)
                .chain(ddg.in_edges(n).map(|e| e.src))
                .any(|other| part.cluster_of(other) != c)
        })
    };

    for _ in 0..MAX_PASSES {
        let mut improved = false;
        // Boundary gating is an optimization for feasible partitions; an
        // infeasible one (e.g. fp work stranded in a cluster without fp
        // units on a heterogeneous machine) may need interior moves.
        let consider_all = !best_score.feasible();
        for (g, bounds) in group_start.windows(2).enumerate() {
            let group = &group_nodes[bounds[0]..bounds[1]];
            // A checked group was scanned under this very partition and
            // score, so it also passes the gate below.
            if checked[g] == state {
                let current = part.cluster_of(NodeId::new(group[0] as u32));
                debug_check_checked(
                    ddg,
                    machine,
                    ii,
                    &mut part,
                    analysis,
                    scratch,
                    group,
                    current,
                    &best_score,
                );
                continue;
            }
            if group.is_empty() || (!consider_all && !is_boundary(&part, group)) {
                continue;
            }
            let current = part.cluster_of(NodeId::new(group[0] as u32));

            // Group-invariant delta ingredients, shared by every target:
            // membership marks, the consumer census of the affected
            // producers, the group's class census and the communications
            // those producers pay under `part`.
            let group_census = scratch.census_group(ddg, &part, group);
            let before = comm_count_moved(&scratch.affected, current);
            // The incumbent is the current partition's score, so its
            // capacity component is the total overflow of `usage`.
            let cap_rest =
                best_score.key.0 - cluster_overflow(machine, ii, current, &usage[current as usize]);
            let mut src_usage = usage[current as usize];
            for (slot, &g) in src_usage.iter_mut().zip(&group_census) {
                *slot -= g;
            }

            let mut best_move: Option<(u8, PartitionScore)> = None;
            // The `variant` rotation only changes which *tied* destination
            // is scanned (and therefore kept) first; variant 0 is the
            // canonical ascending order.
            let clusters = u32::from(machine.clusters());
            for t in 0..clusters {
                let target = ((t + variant) % clusters) as u8;
                if target == current {
                    continue;
                }
                let thresh = best_move.as_ref().map_or(&best_score, |(_, s)| s);
                // Lazy lexicographic rejection on the exact cheap prefix:
                // (capacity, bus). `thresh` is what the full score would
                // be compared against.
                let mut dst_usage = usage[target as usize];
                for (slot, &g) in dst_usage.iter_mut().zip(&group_census) {
                    *slot += g;
                }
                let cap = cap_rest - cluster_overflow(machine, ii, target, &usage[target as usize])
                    + cluster_overflow(machine, ii, current, &src_usage)
                    + cluster_overflow(machine, ii, target, &dst_usage);
                if cap > thresh.key.0 {
                    debug_check_rejection(
                        ddg,
                        machine,
                        ii,
                        &mut part,
                        analysis,
                        scratch,
                        group,
                        current,
                        target,
                        &best_score,
                        &best_move,
                    );
                    continue;
                }
                // Exact communication delta of the move, from the census.
                let after = comm_count_moved(&scratch.affected, target);
                let q_ncoms = ncoms - before + after;
                let bus = q_ncoms.saturating_sub(bus_cap);
                if cap == thresh.key.0 && bus > thresh.key.1 {
                    debug_check_rejection(
                        ddg,
                        machine,
                        ii,
                        &mut part,
                        analysis,
                        scratch,
                        group,
                        current,
                        target,
                        &best_score,
                        &best_move,
                    );
                    continue;
                }
                // One more exact cheap rejection: with (cap, bus) tied and
                // an incumbent that is recurrence- and register-feasible,
                // a candidate with MORE communications loses no matter what
                // its own expensive components are — its key tail is at
                // best (0, 0, q_ncoms, ..) which already compares greater.
                // This is the common shape in the II climb (stable feasible
                // partition, every move adds a communication) and is what
                // keeps most candidates away from the ASAP speculation.
                if cap == thresh.key.0
                    && bus == thresh.key.1
                    && thresh.key.2 == 0
                    && thresh.key.3 == 0
                    && q_ncoms > thresh.key.4
                {
                    debug_check_rejection(
                        ddg,
                        machine,
                        ii,
                        &mut part,
                        analysis,
                        scratch,
                        group,
                        current,
                        target,
                        &best_score,
                        &best_move,
                    );
                    continue;
                }

                // Still in the race: derive the expensive key components
                // (recurrences, registers, length, imbalance) from a
                // speculative incremental-ASAP update instead of a full
                // pseudo-schedule. `None` is a witness-bound rejection.
                let score = speculate_move_score(
                    ddg, machine, ii, &part, analysis, scratch, group, target, cap, bus, q_ncoms,
                    &usage, current, &src_usage, &dst_usage, thresh,
                );
                #[cfg(debug_assertions)]
                {
                    for &i in group {
                        part.set_cluster(NodeId::new(i as u32), target);
                    }
                    let full = score_partition(ddg, &part, machine, ii, analysis, scratch);
                    for &i in group {
                        part.set_cluster(NodeId::new(i as u32), current);
                    }
                    match &score {
                        Some(score) => debug_assert_eq!(
                            score, &full,
                            "incremental candidate score diverged from the full pseudo-schedule"
                        ),
                        None => debug_assert!(
                            full >= *best_move.as_ref().map_or(&best_score, |(_, s)| s),
                            "witness bound rejected an improving move"
                        ),
                    }
                }
                let Some(score) = score else { continue };
                let thresh = best_move.as_ref().map_or(&best_score, |(_, s)| s);
                if score < *thresh {
                    best_move = Some((target, score));
                }
            }
            if let Some((target, score)) = best_move {
                // Commit the winner into the base state: its census deltas
                // for the usage and the communication count, its
                // speculation for the rest.
                for (c, &k) in group_census.iter().enumerate() {
                    usage[current as usize][c] -= k;
                    usage[target as usize][c] += k;
                }
                ncoms = score.comms();
                scratch.base_ncoms = ncoms;
                scratch.commit_move(ddg, machine, ii, &mut part, analysis, group, target);
                best_score = score;
                improved = true;
                state += 1;
                #[cfg(any(test, feature = "testing"))]
                scratch.move_log.push((group[0] as u32, current, target));
                #[cfg(debug_assertions)]
                scratch
                    .debug_check_committed_base(ddg, machine, ii, &part, analysis, &usage, ncoms);
            } else {
                checked[g] = state;
            }
            for &i in group {
                scratch.in_group[i] = false;
            }
        }
        if !improved {
            break;
        }
    }
    for c in &mut checked {
        *c = u32::from(*c == state);
    }
    scratch.usage = usage;
    scratch.group_start = group_start;
    scratch.group_nodes = group_nodes;
    scratch.checked = checked;
    (part, state as u64 - 1)
}

/// Debug-build proof obligation of the lazy (cap, bus) rejection: re-score
/// the rejected candidate in full and assert the verdict matches.
#[allow(clippy::too_many_arguments, unused_variables)]
fn debug_check_rejection(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    part: &mut Partition,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    group: &[usize],
    current: u8,
    target: u8,
    best_score: &PartitionScore,
    best_move: &Option<(u8, PartitionScore)>,
) {
    #[cfg(debug_assertions)]
    {
        for &i in group {
            part.set_cluster(NodeId::new(i as u32), target);
        }
        let full = score_partition(ddg, part, machine, ii, analysis, scratch);
        for &i in group {
            part.set_cluster(NodeId::new(i as u32), current);
        }
        let thresh = best_move.as_ref().map_or(best_score, |(_, s)| s);
        debug_assert!(
            full >= *thresh,
            "lazy prefix rejected an improving move: {full:?} < {thresh:?}"
        );
    }
}

/// Scores one surviving candidate move incrementally: applies the move's
/// edge-latency changes, speculates the ASAP fixpoint through the affected
/// cone, re-derives the register estimate over only the producers whose
/// lifetime or home could have changed, and rolls everything back. The
/// returned score is byte-identical to [`score_partition`] of the
/// moved partition (asserted per candidate in debug builds).
///
/// Returns `None` without speculating when the witness bound proves the
/// candidate cannot beat `thresh`: it ties `thresh` on capacity, bus and
/// communications, `thresh` is recurrence- and register-feasible, and the
/// candidate's length, at least `L + Σ(new − old)` over the witness edges
/// it changes (see [`RefineScratch::rebuild_witness`]), already exceeds
/// `thresh`'s — or equals it with no better imbalance. A candidate that is
/// infeasible instead loses on the recurrence component, so the rejection
/// is exact either way.
#[allow(clippy::too_many_arguments)]
fn speculate_move_score(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    part: &Partition,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    group: &[usize],
    target: u8,
    cap: u32,
    bus: u32,
    q_ncoms: u32,
    usage: &[[u32; 3]],
    current: u8,
    src_usage: &[u32; 3],
    dst_usage: &[u32; 3],
    thresh: &PartitionScore,
) -> Option<PartitionScore> {
    // 1. Apply the move's edge-latency changes, summing the changes on the
    // witness path on the way.
    let (lowers, witness_delta) =
        scratch.apply_move_latencies(ddg, machine, part, analysis, group, target);
    let RefineScratch {
        in_group,
        seen,
        epoch,
        inc,
        cur_edge_lat,
        edge_changes,
        node_regs,
        est_base,
        est_tmp,
        witness_on,
        bound_rejections,
        ..
    } = scratch;
    let imbalance = imbalance_of(machine, usage, current, target, src_usage, dst_usage);

    // 2. The witness bound: a candidate that ties the whole prefix can only
    // still win on length and imbalance.
    let bound_rejects = *witness_on
        && cap == thresh.key.0
        && bus == thresh.key.1
        && thresh.key.2 == 0
        && thresh.key.3 == 0
        && q_ncoms == thresh.key.4
        && {
            let bound = inc.length() + witness_delta;
            bound > thresh.key.5 || (bound == thresh.key.5 && imbalance >= thresh.key.6)
        };
    if bound_rejects {
        *bound_rejections += 1;
        restore_edge_lat(cur_edge_lat, edge_changes);
        return None;
    }

    // 3. Raising latencies keeps every positive cycle positive, so a
    // candidate on an infeasible base that lowers nothing stays infeasible:
    // the full score reports reg 0 and max est, and no sweep is needed.
    if !inc.is_feasible() && !lowers {
        restore_edge_lat(cur_edge_lat, edge_changes);
        return Some(PartitionScore {
            key: (cap, bus, 1, 0, q_ncoms, i64::MAX, imbalance),
        });
    }

    // 4. Speculate the ASAP fixpoint through the affected cone.
    let (rec, est, reg) = match inc.speculate(ddg, ii, cur_edge_lat, edge_changes) {
        // Infeasible candidate: the full score reports reg 0 and max est.
        None => (1u8, i64::MAX, 0u32),
        Some(len) => {
            // 5. Register estimate. A producer's cost changes only if its
            // own ASAP or a data successor's ASAP moved, or it is in the
            // group (its home cluster changes); update exactly that set,
            // walking each changed node once.
            let reg = match inc.spec_changed() {
                Some(changed) => {
                    est_tmp.clone_from(est_base);
                    *epoch += 1;
                    let ep = *epoch;
                    let asap = inc.asap();
                    let mut update = |i: usize| {
                        if seen[i] == ep {
                            return;
                        }
                        seen[i] = ep;
                        let n = NodeId::new(i as u32);
                        if !ddg.kind(n).produces_value() {
                            return;
                        }
                        est_tmp[part.cluster_of(n) as usize] -= node_regs[i];
                        let home = if in_group[i] {
                            target
                        } else {
                            part.cluster_of(n)
                        };
                        est_tmp[home as usize] += node_reg_cost(ddg, ii, analysis, asap, n);
                    };
                    for &(v, _) in changed {
                        update(v as usize);
                        for &p in ddg.data_preds(NodeId::new(v)) {
                            update(p.index());
                        }
                    }
                    for &i in group {
                        update(i);
                    }
                    reg_overflow_of(est_tmp, machine)
                }
                // The speculation fell back to a full sweep (infeasible
                // base or budget blown): recompute the estimate in full.
                None => {
                    est_tmp.clear();
                    est_tmp.resize(machine.clusters() as usize, 0);
                    let asap = inc.asap();
                    for n in ddg.node_ids() {
                        if !ddg.kind(n).produces_value() {
                            continue;
                        }
                        let home = if in_group[n.index()] {
                            target
                        } else {
                            part.cluster_of(n)
                        };
                        est_tmp[home as usize] += node_reg_cost(ddg, ii, analysis, asap, n);
                    }
                    reg_overflow_of(est_tmp, machine)
                }
            };
            (0u8, len, reg)
        }
    };

    // 6. Roll the speculation back; the base state is untouched.
    inc.rollback();
    restore_edge_lat(cur_edge_lat, edge_changes);

    Some(PartitionScore {
        key: (cap, bus, rec, reg, q_ncoms, est, imbalance),
    })
}

impl RefineScratch {
    /// Writes the comm-adjusted latencies a move of `group` (marked in
    /// `in_group`) to `target` gives its incident data edges into
    /// `cur_edge_lat`, logging `(edge id, previous latency)` for each edge
    /// that changes in `edge_changes`. Each edge is visited exactly once
    /// (in-edges whose source is also in the group were already seen as
    /// out-edges). Returns whether any latency drops and the summed change
    /// on the witness path.
    fn apply_move_latencies(
        &mut self,
        ddg: &Ddg,
        machine: &MachineConfig,
        part: &Partition,
        analysis: &LoopAnalysis,
        group: &[usize],
        target: u8,
    ) -> (bool, i64) {
        let RefineScratch {
            in_group,
            cur_edge_lat,
            edge_changes,
            witness_in,
            ..
        } = self;
        edge_changes.clear();
        let base = analysis.edge_lat();
        let uniform = machine.uniform_transfer_latency();
        let mut lowers = false;
        let mut witness_delta = 0i64;
        let eff = |n: NodeId| {
            if in_group[n.index()] {
                target
            } else {
                part.cluster_of(n)
            }
        };
        let mut consider = |eid: u32| {
            let e = ddg.edge(eid);
            if !e.is_data() {
                return;
            }
            let cs = eff(e.src);
            let cd = eff(e.dst);
            let lat = base[eid as usize]
                + if cs == cd {
                    0
                } else {
                    uniform.unwrap_or_else(|| machine.transfer_latency(cs, cd))
                };
            let old = cur_edge_lat[eid as usize];
            if lat != old {
                edge_changes.push((eid, old));
                cur_edge_lat[eid as usize] = lat;
                lowers |= lat < old;
                if witness_in[e.dst.index()] == eid {
                    witness_delta += i64::from(lat) - i64::from(old);
                }
            }
        };
        for &i in group {
            let m = NodeId::new(i as u32);
            for &eid in ddg.out_edge_ids(m) {
                consider(eid);
            }
            for &eid in ddg.in_edge_ids(m) {
                if !in_group[ddg.edge(eid).src.index()] {
                    consider(eid);
                }
            }
        }
        (lowers, witness_delta)
    }

    /// Commits the accepted move of `group` (still marked in `in_group`)
    /// to `target` into the move base and `part`: the move's latencies stay
    /// in `cur_edge_lat`, one speculation through its cone becomes the new
    /// ASAP fixpoint, the register costs are re-derived over only the
    /// producers the speculation can have changed (every producer, as a
    /// rebuild does, when it ran a full sweep, the base was infeasible or
    /// the candidate is), and the witness path is walked again. The caller updates the usage census and the
    /// communication count from the move's deltas. Debug builds assert the
    /// result equals a fresh [`RefineScratch::rebuild_move_base`].
    #[allow(clippy::too_many_arguments)]
    fn commit_move(
        &mut self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        part: &mut Partition,
        analysis: &LoopAnalysis,
        group: &[usize],
        target: u8,
    ) {
        let current = part.cluster_of(NodeId::new(group[0] as u32));
        self.apply_move_latencies(ddg, machine, part, analysis, group, target);
        let feasible = self
            .inc
            .speculate(ddg, ii, &self.cur_edge_lat, &self.edge_changes)
            .is_some();
        for &i in group {
            part.set_cluster(NodeId::new(i as u32), target);
        }
        let RefineScratch {
            in_group,
            seen,
            epoch,
            inc,
            cur_edge_lat,
            node_regs,
            est_base,
            ..
        } = self;
        match inc.spec_changed() {
            // The incremental path from a feasible base: exactly the
            // producers whose own or a data successor's ASAP moved, or
            // whose home moves, change cost.
            Some(changed) if feasible => {
                *epoch += 1;
                let ep = *epoch;
                let asap = inc.asap();
                let mut update = |i: usize| {
                    if seen[i] == ep {
                        return;
                    }
                    seen[i] = ep;
                    let n = NodeId::new(i as u32);
                    if !ddg.kind(n).produces_value() {
                        return;
                    }
                    let home = part.cluster_of(n);
                    est_base[if in_group[i] { current } else { home } as usize] -= node_regs[i];
                    let regs = node_reg_cost(ddg, ii, analysis, asap, n);
                    node_regs[i] = regs;
                    est_base[home as usize] += regs;
                };
                for &(v, _) in changed {
                    update(v as usize);
                    for &p in ddg.data_preds(NodeId::new(v)) {
                        update(p.index());
                    }
                }
                for &i in group {
                    update(i);
                }
                inc.commit(ddg, ii, cur_edge_lat);
            }
            _ => {
                inc.commit(ddg, ii, cur_edge_lat);
                self.recount_regs(ddg, machine, ii, part, analysis);
            }
        }
        self.edge_changes.clear();
        self.rebuild_witness(ddg, ii);
    }

    /// Debug-build proof obligation of [`RefineScratch::commit_move`]: the
    /// committed move base, usage census and communication count equal the
    /// ones a from-scratch rebuild derives from the moved partition.
    #[cfg(debug_assertions)]
    #[allow(clippy::too_many_arguments)]
    fn debug_check_committed_base(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        part: &Partition,
        analysis: &LoopAnalysis,
        usage: &[[u32; 3]],
        ncoms: u32,
    ) {
        let mut fresh = RefineScratch::default();
        fresh.rebuild_move_base(ddg, machine, ii, part, analysis);
        let assignment = part.to_assignment();
        let mut fresh_usage = Vec::new();
        assignment.class_usage_into(ddg, machine.clusters(), &mut fresh_usage);
        let what = "a committed move base diverged from a fresh rebuild";
        debug_assert_eq!(usage, fresh_usage.as_slice(), "{what}: usage");
        debug_assert_eq!(ncoms, assignment.comm_count(ddg), "{what}: ncoms");
        debug_assert_eq!(self.cur_edge_lat, fresh.cur_edge_lat, "{what}: latencies");
        debug_assert_eq!(self.inc.is_feasible(), fresh.inc.is_feasible(), "{what}");
        debug_assert_eq!(self.inc.length(), fresh.inc.length(), "{what}: length");
        debug_assert_eq!(self.inc.asap(), fresh.inc.asap(), "{what}: asap");
        debug_assert_eq!(self.witness_on, fresh.witness_on, "{what}: witness");
        debug_assert_eq!(self.witness_in, fresh.witness_in, "{what}: witness");
        debug_assert_eq!(self.node_regs, fresh.node_regs, "{what}: registers");
        debug_assert_eq!(self.est_base, fresh.est_base, "{what}: registers");
    }
}

/// Debug-build proof obligation of the checked-group skip: no target of
/// the skipped group scores below the incumbent, so the scan it skipped
/// would have found no move.
#[allow(clippy::too_many_arguments, unused_variables)]
fn debug_check_checked(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    part: &mut Partition,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    group: &[usize],
    current: u8,
    best_score: &PartitionScore,
) {
    #[cfg(debug_assertions)]
    for target in (0..machine.clusters()).filter(|&t| t != current) {
        for &i in group {
            part.set_cluster(NodeId::new(i as u32), target);
        }
        let full = score_partition(ddg, part, machine, ii, analysis, scratch);
        for &i in group {
            part.set_cluster(NodeId::new(i as u32), current);
        }
        debug_assert!(
            full >= *best_score,
            "a group checked since the last accept can move: {full:?} < {best_score:?}"
        );
    }
}

/// Undoes a candidate's in-place edge-latency overrides from its
/// `(edge id, base latency)` log.
fn restore_edge_lat(cur_edge_lat: &mut [u32], edge_changes: &[(u32, u32)]) {
    for &(eid, old) in edge_changes {
        cur_edge_lat[eid as usize] = old;
    }
}

/// Load imbalance of the candidate partition, from the base census with
/// the group's source / destination rows substituted — O(clusters).
fn imbalance_of(
    machine: &MachineConfig,
    usage: &[[u32; 3]],
    current: u8,
    target: u8,
    src_usage: &[u32; 3],
    dst_usage: &[u32; 3],
) -> u32 {
    let mut lo = u32::MAX;
    let mut hi = 0u32;
    for c in 0..machine.clusters() {
        let total: u32 = if c == current {
            src_usage.iter().sum()
        } else if c == target {
            dst_usage.iter().sum()
        } else {
            usage[c as usize].iter().sum()
        };
        lo = lo.min(total);
        hi = hi.max(total);
    }
    hi - lo.min(hi)
}

/// [`score_partition`] of the *current* partition assembled from
/// the already-maintained base state (usage census, communication count,
/// incremental ASAP fixpoint, per-cluster register estimate) — byte-equal
/// by construction, asserted at every `refine_level` entry in debug builds.
fn base_score(
    machine: &MachineConfig,
    ii: u32,
    bus_cap: u32,
    usage: &[[u32; 3]],
    ncoms: u32,
    inc: &IncrementalAsap,
    est_base: &[u64],
) -> PartitionScore {
    let cap: u32 = (0..machine.clusters())
        .map(|c| cluster_overflow(machine, ii, c, &usage[c as usize]))
        .sum();
    let bus = ncoms.saturating_sub(bus_cap);
    let (rec, est, reg) = if inc.is_feasible() {
        (0u8, inc.length(), reg_overflow_of(est_base, machine))
    } else {
        (1u8, i64::MAX, 0u32)
    };
    let (lo, hi) = usage
        .iter()
        .map(|u| u.iter().sum::<u32>())
        .fold((u32::MAX, 0u32), |(lo, hi), t| (lo.min(t), hi.max(t)));
    PartitionScore {
        key: (cap, bus, rec, reg, ncoms, est, hi - lo.min(hi)),
    }
}

/// Total register-file excess of a per-cluster estimate.
fn reg_overflow_of(est: &[u64], machine: &MachineConfig) -> u32 {
    est.iter()
        .map(|&e| {
            u32::try_from(e.saturating_sub(u64::from(machine.regs_per_cluster())))
                .unwrap_or(u32::MAX)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::refine_existing_oracle;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// Two independent chains that obviously belong in separate clusters.
    fn two_chains() -> Ddg {
        let mut b = Ddg::builder();
        for _ in 0..2 {
            let x = b.add_node(OpKind::Load);
            let y = b.add_node(OpKind::FpMul);
            let z = b.add_node(OpKind::Store);
            b.data(x, y).data(y, z);
        }
        b.build().unwrap()
    }

    fn score(ddg: &Ddg, part: &Partition, m: &MachineConfig, ii: u32) -> PartitionScore {
        let analysis = LoopAnalysis::new(ddg, m);
        score_partition(ddg, part, m, ii, &analysis, &mut RefineScratch::default())
    }

    fn refine_fresh(ddg: &Ddg, m: &MachineConfig, ii: u32, part: Partition) -> Partition {
        let analysis = LoopAnalysis::new(ddg, m);
        refine_existing(ddg, m, ii, part, &analysis, &mut RefineScratch::default())
    }

    #[test]
    fn refinement_never_worsens_the_score() {
        let ddg = two_chains();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut scratch = RefineScratch::default();
        let mut h = Hierarchy::default();
        crate::coarsen(&ddg, &m, 2, &analysis, &mut scratch, &mut h);
        let initial_score = score(&ddg, &h.initial_partition(), &m, 2);
        let refined = refine_hierarchy(&ddg, &m, 2, &h, &analysis, &mut scratch, 0);
        assert!(score(&ddg, &refined, &m, 2) <= initial_score);
    }

    /// The flat group lists hold every level's groups in `groups()` order.
    #[test]
    fn flat_groups_match_level_groups() {
        let mut b = Ddg::builder();
        let n: Vec<_> = (0..9).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for w in n.windows(2) {
            b.data(w[0], w[1]);
        }
        b.data(n[0], n[5]).data(n[2], n[7]).data_dist(n[8], n[3], 1);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let mut scratch = RefineScratch::default();
        let mut h = Hierarchy::default();
        crate::coarsen(
            &ddg,
            &m,
            2,
            &LoopAnalysis::new(&ddg, &m),
            &mut scratch,
            &mut h,
        );
        assert!(h.len() > 2);
        for l in 0..h.len() {
            let level = h.level(l);
            scratch.set_groups(level);
            let flat: Vec<Vec<usize>> = scratch
                .group_start
                .windows(2)
                .map(|g| scratch.group_nodes[g[0]..g[1]].to_vec())
                .collect();
            assert_eq!(flat, level.groups());
            // A group inherits its parent's flag iff it is also a group of
            // the next level.
            if l + 1 < h.len() {
                let parent = h.level(l + 1).groups();
                let parent_flags: Vec<u32> = (0..parent.len() as u32).map(|p| p % 2).collect();
                scratch.checked.clone_from(&parent_flags);
                scratch.carry_checked(h.level(l + 1));
                let want: Vec<u32> = flat
                    .iter()
                    .map(|g| {
                        parent
                            .iter()
                            .position(|p| p == g)
                            .map_or(0, |p| parent_flags[p])
                    })
                    .collect();
                assert_eq!(scratch.checked, want, "level {l}");
            }
        }
        scratch.set_singleton_groups(3);
        assert_eq!(scratch.group_start, [0, 1, 2, 3]);
        assert_eq!(scratch.group_nodes, [0, 1, 2]);
    }

    #[test]
    fn bad_partition_gets_fixed() {
        // Deliberately split both chains across clusters: refinement should
        // remove all communications.
        let ddg = two_chains();
        let m = machine("2c1b2l64r");
        let bad = Partition::from_vec(vec![0, 1, 0, 1, 0, 1]);
        assert!(bad.comm_count(&ddg) > 0);
        let fixed = refine_fresh(&ddg, &m, 2, bad);
        assert_eq!(
            fixed.comm_count(&ddg),
            0,
            "chains reunited: {:?}",
            fixed.as_slice()
        );
    }

    #[test]
    fn capacity_overflow_dominates_score() {
        let mut b = Ddg::builder();
        for _ in 0..4 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r"); // 1 mem port per cluster
        let packed = Partition::from_vec(vec![0, 0, 0, 0]);
        let spread = Partition::from_vec(vec![0, 1, 2, 3]);
        let s_packed = score(&ddg, &packed, &m, 1);
        let s_spread = score(&ddg, &spread, &m, 1);
        assert!(s_spread < s_packed);
        assert!(s_spread.feasible());
        assert!(!s_packed.feasible());
    }

    #[test]
    fn score_prefers_fewer_communications() {
        let ddg = two_chains();
        let m = machine("2c1b2l64r");
        let clean = Partition::from_vec(vec![0, 0, 0, 1, 1, 1]);
        let split = Partition::from_vec(vec![0, 0, 1, 1, 1, 1]);
        assert!(score(&ddg, &clean, &m, 4) < score(&ddg, &split, &m, 4));
    }

    #[test]
    fn single_cluster_refinement_is_identity() {
        let ddg = two_chains();
        let m = MachineConfig::unified(64);
        let p = Partition::single_cluster(ddg.node_count());
        assert_eq!(refine_fresh(&ddg, &m, 2, p.clone()), p);
    }

    /// The lazy delta-scoring path must agree with a from-scratch score for
    /// every candidate it rejects or accepts: spot-check by comparing a
    /// full refinement pass against one driven through a dirty scratch.
    #[test]
    fn scratch_reuse_matches_fresh_refinement() {
        let ddg = two_chains();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut scratch = RefineScratch::default();
        for ii in 1..6 {
            let bad = Partition::from_vec(vec![0, 1, 0, 1, 0, 1]);
            let fresh = refine_fresh(&ddg, &m, ii, bad.clone());
            let reused = refine_existing(&ddg, &m, ii, bad, &analysis, &mut scratch);
            assert_eq!(fresh, reused, "ii={ii}");
        }
    }

    /// Scores moving `node` to `target` the way `refine_level` scores a
    /// singleton candidate that survived the cheap prefix, against the
    /// base score of `part`. Returns `(base score, full score of the moved
    /// partition, incremental verdict)`.
    fn score_one_move(
        ddg: &Ddg,
        m: &MachineConfig,
        ii: u32,
        part: &Partition,
        scratch: &mut RefineScratch,
        node: usize,
        target: u8,
    ) -> (PartitionScore, PartitionScore, Option<PartitionScore>) {
        let analysis = LoopAnalysis::new(ddg, m);
        let n = NodeId::new(node as u32);
        let current = part.cluster_of(n);
        let mut moved = part.clone();
        moved.set_cluster(n, target);
        let full = score_partition(ddg, &moved, m, ii, &analysis, scratch);

        let mut usage = Vec::new();
        scratch.assignment.set_from_partition(part.as_slice());
        scratch
            .assignment
            .class_usage_into(ddg, m.clusters(), &mut usage);
        let ncoms = scratch.assignment.comm_count(ddg);
        scratch.rebuild_move_base(ddg, m, ii, part, &analysis);
        let base = base_score(
            m,
            ii,
            m.coms_capacity_per_ii(ii),
            &usage,
            ncoms,
            &scratch.inc,
            &scratch.est_base,
        );
        let class = ddg.kind(n).class().index();
        let mut src = usage[current as usize];
        src[class] -= 1;
        let mut dst = usage[target as usize];
        dst[class] += 1;
        scratch.in_group.clear();
        scratch.in_group.resize(ddg.node_count(), false);
        scratch.in_group[node] = true;
        scratch.seen.clear();
        scratch.seen.resize(ddg.node_count(), 0);
        let (cap, bus, _, _, q_ncoms, ..) = full.key;
        let got = speculate_move_score(
            ddg,
            m,
            ii,
            part,
            &analysis,
            scratch,
            &[node],
            target,
            cap,
            bus,
            q_ncoms,
            &usage,
            current,
            &src,
            &dst,
            &base,
        );
        scratch.in_group[node] = false;
        (base, full, got)
    }

    /// `x → p → n` in cluster 0 with `p` already sending a loop-carried
    /// value to `r` in cluster 1: moving the store `n` next to `r` keeps the
    /// communication count and evens out the load, but raises the witness
    /// edge `p → n` and lowers nothing, so the bound rejects it unscored.
    /// Against a register-infeasible incumbent the same move could still
    /// win on registers, so there it is speculated.
    #[test]
    fn witness_bound_rejects_a_raise_on_the_critical_path_unspeculated() {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::Load);
        let p = b.add_node(OpKind::FpMul);
        let n = b.add_node(OpKind::Store);
        let r = b.add_node(OpKind::Store);
        b.data(x, p).data(p, n).data_dist(p, r, 1);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let part = Partition::from_vec(vec![0, 0, 0, 1]);
        let mut scratch = RefineScratch::default();
        let (base, full, got) = score_one_move(&ddg, &m, 4, &part, &mut scratch, n.index(), 1);
        assert!(scratch.witness_on);
        let pn = ddg.in_edge_ids(n)[0];
        assert_eq!(scratch.witness_in[n.index()], pn, "p → n is the witness");
        assert_eq!(full.comms(), base.comms());
        assert!(full.est_length() > base.est_length());
        assert_eq!(got, None);
        assert!(full >= base, "the rejection is exact");
        assert_eq!(scratch.asap_speculations(), 0);
        assert_eq!(scratch.bound_rejections(), 1);

        let m = machine("2c1b2l1r");
        let mut scratch = RefineScratch::default();
        let (base, full, got) = score_one_move(&ddg, &m, 4, &part, &mut scratch, n.index(), 1);
        assert!(
            base.key.3 > 0,
            "one register per cluster overflows: {base:?}"
        );
        assert_eq!(got, Some(full));
        assert_eq!(scratch.asap_speculations(), 1);
        assert_eq!(scratch.bound_rejections(), 0);
    }

    /// `p` feeds `n` across the bus on the critical path; moving `n` home
    /// lowers that witness edge, so the bound drops below the base length
    /// and the move is speculated — and accepted, for its shorter length.
    #[test]
    fn lowering_a_critical_edge_is_speculated_and_accepted() {
        let mut b = Ddg::builder();
        let p = b.add_node(OpKind::FpAdd);
        let n = b.add_node(OpKind::Store);
        let u = b.add_node(OpKind::Store);
        let v = b.add_node(OpKind::Store);
        b.data(p, n).data_dist(p, u, 1).data(p, v);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let part = Partition::from_vec(vec![0, 1, 1, 0]);
        let mut scratch = RefineScratch::default();
        let got = refine_existing(&ddg, &m, 4, part.clone(), &analysis, &mut scratch);
        let (want, want_moves) = refine_existing_oracle(&ddg, &m, 4, part, &analysis);
        assert_eq!(got, want);
        assert_eq!(scratch.moves(), want_moves);
        assert_eq!(scratch.moves()[0], (n.index() as u32, 1, 0));
        assert!(scratch.asap_speculations() >= 2, "p's and n's moves");
    }

    /// `x → a` feeding the ring `a → b → c → a` at II = RecMII: the ring is
    /// a tight zero-weight cycle, and `a`'s first tight in-edge closes it,
    /// so the witness walk revisits `c` and turns the bound off. Refinement
    /// then speculates as before and still retraces the oracle.
    #[test]
    fn tight_zero_weight_cycle_turns_the_bound_off() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let bb = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpAdd);
        let x = b.add_node(OpKind::Load);
        let y = b.add_node(OpKind::Store);
        b.data(a, bb)
            .data(bb, c)
            .data_dist(c, a, 1)
            .data(x, a)
            .data(c, y);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let ii = analysis.rec_mii();
        assert!(ii >= analysis.mii());
        let part = Partition::from_vec(vec![0, 0, 0, 1, 1]);
        let mut scratch = RefineScratch::default();
        let got = refine_existing(&ddg, &m, ii, part.clone(), &analysis, &mut scratch);
        let (want, want_moves) = refine_existing_oracle(&ddg, &m, ii, part.clone(), &analysis);
        assert_eq!(got, want);
        assert_eq!(scratch.moves(), want_moves);
        scratch.rebuild_move_base(&ddg, &m, ii, &part, &analysis);
        assert!(scratch.inc.is_feasible());
        assert!(!scratch.witness_on, "the walk must close the ring");
        assert_eq!(scratch.bound_rejections(), 0);
    }

    /// The oracle and the production path accept the same move sequence.
    #[test]
    fn trace_matches_oracle() {
        let ddg = two_chains();
        let m = machine("2c1b2l64r");
        let analysis = LoopAnalysis::new(&ddg, &m);
        let mut scratch = RefineScratch::default();
        for ii in 1..6 {
            let bad = Partition::from_vec(vec![0, 1, 0, 1, 0, 1]);
            let got = refine_existing(&ddg, &m, ii, bad.clone(), &analysis, &mut scratch);
            let (want, want_moves) = refine_existing_oracle(&ddg, &m, ii, bad, &analysis);
            assert_eq!(got, want, "ii={ii}");
            assert_eq!(scratch.moves(), want_moves, "ii={ii}");
        }
    }
}
