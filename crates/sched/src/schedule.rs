//! The modulo scheduler and the [`Schedule`] it produces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cvliw_ddg::{Ddg, DepKind, NodeId};
use cvliw_machine::MachineConfig;

use crate::assign::{Assignment, ClusterSet};
use crate::cache::LoopAnalysis;
use crate::error::{ScheduleError, VerifyError};
use crate::mrt::Mrt;
use crate::regs::{max_live, max_live_scratch, RegScratch};

/// One schedulable operation: an instance of a DDG node in a concrete
/// cluster, or the bus copy of a communicated value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SchedOp {
    /// `(node, cluster)` instance.
    Instance(NodeId, u8),
    /// Bus copy broadcasting `node`'s value.
    Copy(NodeId),
}

/// Placement of a bus copy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CopyPlacement {
    /// Issue cycle (absolute, within the flat one-iteration schedule).
    pub cycle: i64,
    /// Shared bus carrying the transfer; `0` on point-to-point fabrics,
    /// whose links are determined by `(source, destination)` pairs instead
    /// of chosen.
    pub bus: u8,
    /// Cluster whose instance the copy reads.
    pub source: u8,
}

/// A request to schedule one loop at a fixed initiation interval.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleRequest<'a> {
    /// The loop body.
    pub ddg: &'a Ddg,
    /// Target machine.
    pub machine: &'a MachineConfig,
    /// Cluster assignment (possibly with replicated instances).
    pub assignment: &'a Assignment,
    /// Candidate initiation interval.
    pub ii: u32,
    /// §5.1 upper-bound study: treat the bus as zero-latency for
    /// *dependences* while still consuming bus bandwidth. Schedules built
    /// this way are intentionally optimistic and marked as such.
    pub zero_bus_dep_latency: bool,
}

/// A modulo schedule: issue cycles for every instance and every copy.
///
/// All cycles are absolute within the flat schedule of one iteration
/// (normalized so the earliest issue is cycle 0); the kernel slot of an
/// operation is its cycle modulo [`Schedule::ii`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    ii: u32,
    instances: BTreeMap<(NodeId, u8), i64>,
    copies: BTreeMap<NodeId, CopyPlacement>,
    length: u32,
    zero_bus_dep_latency: bool,
}

impl Schedule {
    /// The initiation interval.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// Schedule length in issue rows (`max cycle − min cycle + 1`).
    #[must_use]
    pub fn length(&self) -> u32 {
        self.length
    }

    /// Stage count `SC = ceil(length / II)`.
    #[must_use]
    pub fn stage_count(&self) -> u32 {
        self.length.div_ceil(self.ii).max(1)
    }

    /// Execution cycles for `n` iterations: `(N − 1 + SC)·II` (paper §2.2);
    /// `0` when `n == 0`.
    #[must_use]
    pub fn texec(&self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        (n - 1 + u64::from(self.stage_count())) * u64::from(self.ii)
    }

    /// Whether this schedule was built with the §5.1 zero-bus-latency
    /// relaxation (its timing is optimistic and must not be simulated).
    #[must_use]
    pub fn is_zero_bus_relaxed(&self) -> bool {
        self.zero_bus_dep_latency
    }

    /// Issue cycle of the instance of `n` in `cluster`, if scheduled there.
    #[must_use]
    pub fn instance_cycle(&self, n: NodeId, cluster: u8) -> Option<i64> {
        self.instances.get(&(n, cluster)).copied()
    }

    /// All `(node, cluster) → cycle` placements in deterministic order.
    pub fn instances(&self) -> impl Iterator<Item = ((NodeId, u8), i64)> + '_ {
        self.instances.iter().map(|(&k, &v)| (k, v))
    }

    /// All copies in deterministic order.
    pub fn copies(&self) -> impl Iterator<Item = (NodeId, CopyPlacement)> + '_ {
        self.copies.iter().map(|(&k, &v)| (k, v))
    }

    /// The copy of `n`, if its value is communicated.
    #[must_use]
    pub fn copy_of(&self, n: NodeId) -> Option<CopyPlacement> {
        self.copies.get(&n).copied()
    }

    /// Clusters holding an instance of `n`.
    #[must_use]
    pub fn instance_clusters(&self, n: NodeId) -> ClusterSet {
        self.instances
            .range((n, 0)..=(n, u8::MAX))
            .map(|(&(_, c), _)| c)
            .collect()
    }

    /// Number of functional-unit operations in the kernel (instances,
    /// including replicas; excluding copies).
    #[must_use]
    pub fn op_count(&self) -> u32 {
        self.instances.len() as u32
    }

    /// Number of bus copies in the kernel.
    #[must_use]
    pub fn copy_count(&self) -> u32 {
        self.copies.len() as u32
    }

    /// Checks the schedule against every machine and dependence constraint.
    ///
    /// # Errors
    ///
    /// Returns the first [`VerifyError`] found: a node without instances, a
    /// replicated store, a violated latency, a value unavailable in a
    /// consumer's cluster, oversubscribed units or buses, or register
    /// pressure above the file size.
    pub fn verify(&self, ddg: &Ddg, machine: &MachineConfig) -> Result<(), VerifyError> {
        let ii = i64::from(self.ii);
        // The latency a consumer in `cluster` waits on a copy's delivery:
        // pair-dependent on point-to-point fabrics, the bus latency on the
        // paper's shared buses, zero under the §5.1 relaxation.
        let copy_dep_lat = |copy: &CopyPlacement, cluster: u8| -> i64 {
            if self.zero_bus_dep_latency {
                0
            } else {
                i64::from(machine.transfer_latency(copy.source, cluster))
            }
        };

        // Instances present, stores unique.
        for n in ddg.node_ids() {
            let clusters = self.instance_clusters(n);
            if clusters.is_empty() {
                return Err(VerifyError::MissingInstance { node: n });
            }
            if ddg.kind(n) == cvliw_ddg::OpKind::Store && clusters.len() > 1 {
                return Err(VerifyError::ReplicatedStore { node: n });
            }
        }

        // Copy sources exist and the fabric can carry them.
        for (&value, copy) in &self.copies {
            if !self.instance_clusters(value).contains(copy.source) {
                return Err(VerifyError::CopyWithoutSource { value });
            }
            let valid_resource = match machine.interconnect() {
                cvliw_machine::Interconnect::SharedBus { buses, .. } => copy.bus < buses,
                // Point-to-point links are pair-addressed, not chosen: the
                // fabric must exist and the bus field must be the
                // documented placeholder 0.
                cvliw_machine::Interconnect::PointToPoint { .. } => {
                    machine.links() > 0 && copy.bus == 0
                }
            };
            if !valid_resource {
                return Err(VerifyError::InvalidBus { value });
            }
            let t_src = self.instances[&(value, copy.source)];
            let lat = i64::from(machine.latency(ddg.kind(value)));
            if copy.cycle < t_src + lat {
                return Err(VerifyError::LatencyViolated {
                    src: value,
                    dst: value,
                    cluster: copy.source,
                });
            }
        }

        // Dependences.
        for e in ddg.edges() {
            let lat = i64::from(machine.latency(ddg.kind(e.src)));
            let dist = i64::from(e.distance) * ii;
            match e.kind {
                DepKind::Mem => {
                    for ((_, _), &t_src) in self.instances.range((e.src, 0)..=(e.src, u8::MAX)) {
                        for (&(_, c_dst), &t_dst) in
                            self.instances.range((e.dst, 0)..=(e.dst, u8::MAX))
                        {
                            if t_dst + dist < t_src + lat {
                                return Err(VerifyError::LatencyViolated {
                                    src: e.src,
                                    dst: e.dst,
                                    cluster: c_dst,
                                });
                            }
                        }
                    }
                }
                DepKind::Data => {
                    let src_clusters = self.instance_clusters(e.src);
                    for (&(_, c), &t_dst) in self.instances.range((e.dst, 0)..=(e.dst, u8::MAX)) {
                        if src_clusters.contains(c) {
                            let t_src = self.instances[&(e.src, c)];
                            if t_dst + dist < t_src + lat {
                                return Err(VerifyError::LatencyViolated {
                                    src: e.src,
                                    dst: e.dst,
                                    cluster: c,
                                });
                            }
                        } else {
                            let Some(copy) = self.copies.get(&e.src) else {
                                return Err(VerifyError::ValueUnavailable {
                                    src: e.src,
                                    dst: e.dst,
                                    cluster: c,
                                });
                            };
                            if t_dst + dist < copy.cycle + copy_dep_lat(copy, c) {
                                return Err(VerifyError::LatencyViolated {
                                    src: e.src,
                                    dst: e.dst,
                                    cluster: c,
                                });
                            }
                        }
                    }
                }
            }
        }

        // Functional units: one flat `(cluster, class, slot)` occupancy
        // table instead of a `Vec<[Vec<u32>; 3]>` per call.
        let slots = self.ii as usize;
        let mut fu = vec![0u32; machine.clusters() as usize * 3 * slots];
        for (&(n, c), &t) in &self.instances {
            let class = ddg.kind(n).class();
            let slot = t.rem_euclid(ii) as usize;
            let count = &mut fu[(c as usize * 3 + class.index()) * slots + slot];
            *count += 1;
            if *count > u32::from(machine.fu_count_in(c, class)) {
                return Err(VerifyError::FuOversubscribed {
                    cluster: c,
                    class,
                    slot: slot as u32,
                });
            }
        }

        // Interconnect links: a copy occupies its link(s) for the
        // transfer's occupancy (= latency on the paper's unpipelined
        // buses, 1 cycle on the pipelined variant, the per-pair occupancy
        // on point-to-point fabrics, where a broadcast books the dedicated
        // link of every destination). Same flat-table treatment as the
        // functional units.
        let mut link_table = vec![false; machine.links() as usize * slots];
        let mut book = |link: u32, occ: u32, cycle: i64| -> Result<(), VerifyError> {
            for k in 0..occ {
                let slot = (cycle + i64::from(k)).rem_euclid(ii) as usize;
                let cell = &mut link_table[link as usize * slots + slot];
                if *cell {
                    return Err(VerifyError::BusOversubscribed {
                        bus: link,
                        slot: slot as u32,
                    });
                }
                *cell = true;
            }
            Ok(())
        };
        for (&value, copy) in &self.copies {
            if machine.interconnect().is_shared_bus() {
                book(u32::from(copy.bus), machine.bus_occupancy(), copy.cycle)?;
            } else {
                // Destinations: every consumer cluster without an instance
                // of the value.
                let mut dests = ClusterSet::empty();
                let sources = self.instance_clusters(value);
                for e in ddg.out_edges(value) {
                    if !e.is_data() {
                        continue;
                    }
                    dests = dests.union(self.instance_clusters(e.dst).difference(sources));
                }
                for d in dests.iter() {
                    book(
                        machine.link_of(copy.source, d),
                        machine.link_occupancy(copy.source, d),
                        copy.cycle,
                    )?;
                }
            }
        }

        // Register pressure.
        let pressure = max_live(self, ddg, machine);
        for (c, &p) in pressure.iter().enumerate() {
            if p > machine.regs_per_cluster() {
                return Err(VerifyError::RegisterPressure {
                    cluster: c as u8,
                    maxlive: p,
                    available: machine.regs_per_cluster(),
                });
            }
        }
        Ok(())
    }

    /// Renders the kernel as a text table: one row per modulo slot, one
    /// column per cluster plus a bus column. The number after `@` is the
    /// operation's stage (absolute cycle divided by the II).
    #[must_use]
    pub fn render(&self, ddg: &Ddg) -> String {
        let mut rows: Vec<Vec<String>> = Vec::new();
        let ii = i64::from(self.ii);
        let clusters = 1 + self
            .instances
            .keys()
            .map(|&(_, c)| c as usize)
            .max()
            .unwrap_or(0);
        for slot in 0..self.ii {
            let mut row = vec![String::new(); clusters + 1];
            for (&(n, c), &t) in &self.instances {
                if t.rem_euclid(ii) == i64::from(slot) {
                    let cell = &mut row[c as usize];
                    if !cell.is_empty() {
                        cell.push_str("; ");
                    }
                    let _ = write!(cell, "{}@{}", ddg.display_label(n), t.div_euclid(ii));
                }
            }
            for (&n, copy) in &self.copies {
                if copy.cycle.rem_euclid(ii) == i64::from(slot) {
                    let cell = &mut row[clusters];
                    if !cell.is_empty() {
                        cell.push_str("; ");
                    }
                    let _ = write!(cell, "copy({})b{}", ddg.display_label(n), copy.bus);
                }
            }
            rows.push(row);
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "II={} length={} SC={}",
            self.ii,
            self.length,
            self.stage_count()
        );
        for (slot, row) in rows.iter().enumerate() {
            let _ = write!(out, "{slot:>3} |");
            for cell in row {
                let _ = write!(out, " {cell:<24}|");
            }
            out.push('\n');
        }
        out
    }
}

/// Chooses the cluster a value's copy reads from (the shared
/// [`Assignment::copy_source`] rule).
fn copy_source(assignment: &Assignment, n: NodeId) -> u8 {
    assignment.copy_source(n)
}

/// The per-call operation arena: every schedulable op gets a compact
/// dense id (its index in `ops`), and all call-local state — dependence
/// arcs, placements, bus choices — lives in plain `Vec`s indexed by that
/// id instead of `BTreeMap<SchedOp, _>` lookups on the hot placement path.
///
/// Ids are node-major: node 0's instances (copy source first, then the
/// other clusters ascending), then node 0's copy, then node 1's ops, and
/// so on; `node_start[n]..node_start[n + 1]` are node `n`'s ids. The
/// numbering depends on no node order, so one arena serves both the swing
/// and the topological placement pass, each walking its own visit list
/// (its node order expanded through `node_start`). Arc lists keep the
/// DDG's edge order, so the numbering never changes a placement decision.
///
/// The arena is a clear-and-reuse workspace: [`OpArena::reset`] empties it
/// without releasing its buffers, so the driver's II loop re-populates the
/// same allocations attempt after attempt (see [`SchedScratch`]).
#[derive(Clone, Debug, Default)]
struct OpArena {
    /// Ops in node-major order; the index is the op's id.
    ops: Vec<SchedOp>,
    /// `node → id` of the node's first op; one trailing entry closes the
    /// last node's range.
    node_start: Vec<u32>,
    /// `node · clusters + cluster → id` (`u32::MAX` when absent).
    instance_id: Vec<u32>,
    /// `node → id` of the node's bus copy (`u32::MAX` when absent).
    copy_id: Vec<u32>,
    /// Incoming arcs per id: `(pred id, latency, distance)`.
    preds: Vec<Vec<(u32, i64, i64)>>,
    /// Outgoing arcs per id: `(succ id, latency, distance)`.
    succs: Vec<Vec<(u32, i64, i64)>>,
    clusters: usize,
}

impl OpArena {
    fn instance(&self, n: NodeId, c: u8) -> u32 {
        self.instance_id[n.index() * self.clusters + c as usize]
    }

    fn copy(&self, n: NodeId) -> u32 {
        self.copy_id[n.index()]
    }

    fn arc(&mut self, from: u32, to: u32, lat: i64, dist: i64) {
        self.preds[to as usize].push((from, lat, dist));
        self.succs[from as usize].push((to, lat, dist));
    }

    /// Empties the arena for `nodes` DDG nodes on `clusters` clusters,
    /// keeping every buffer's capacity.
    fn reset(&mut self, nodes: usize, clusters: usize) {
        self.ops.clear();
        self.node_start.clear();
        self.instance_id.clear();
        self.instance_id.resize(nodes * clusters, u32::MAX);
        self.copy_id.clear();
        self.copy_id.resize(nodes, u32::MAX);
        self.clusters = clusters;
    }

    /// Clears the adjacency rows for `n_ops` operations, reusing the inner
    /// vectors' capacity.
    fn reset_arcs(&mut self, n_ops: usize) {
        for row in &mut self.preds {
            row.clear();
        }
        for row in &mut self.succs {
            row.clear();
        }
        if self.preds.len() < n_ops {
            self.preds.resize_with(n_ops, Vec::new);
            self.succs.resize_with(n_ops, Vec::new);
        }
    }

    /// Fills `visit` with the ids of every op in `node_order`, each node's
    /// ops in arena order.
    fn visit_list(&self, node_order: &[NodeId], visit: &mut Vec<u32>) {
        visit.clear();
        for &nd in node_order {
            visit.extend(self.node_start[nd.index()]..self.node_start[nd.index() + 1]);
        }
    }
}

/// The scheduler's persistent per-compilation workspace: the operation
/// arena, the visit list, the modulo reservation table, the placement
/// arrays, the communicated list and the MaxLive buffers. One
/// `SchedScratch`, reset between calls, replaces the per-II allocations the
/// attempt loop used to make; results are bit-identical to a fresh scratch.
#[derive(Clone, Debug)]
pub struct SchedScratch {
    arena: OpArena,
    /// The current placement pass's op ids, in visiting order.
    visit: Vec<u32>,
    communicated: Vec<NodeId>,
    /// Per-node cluster ordering buffer (copy source first).
    cs: Vec<u8>,
    placed: Vec<i64>,
    bus_of: Vec<u8>,
    mrt: Mrt,
    regs: RegScratch,
}

impl Default for SchedScratch {
    fn default() -> Self {
        SchedScratch {
            arena: OpArena::default(),
            visit: Vec::new(),
            communicated: Vec::new(),
            cs: Vec::new(),
            placed: Vec::new(),
            bus_of: Vec::new(),
            // The scheduler resets the table for every pass's machine and
            // II before any query, so the unsized state never leaks.
            mrt: Mrt::unset(),
            regs: RegScratch::default(),
        }
    }
}

/// Aggregate bandwidth check (IIpart ≤ II in the paper's driver): exact on
/// shared buses; a sound necessary condition on point-to-point fabrics,
/// where each copy books at least one link slot. Leaves the communicated
/// values, sorted, in `scratch.communicated`.
fn check_bandwidth(
    req: &ScheduleRequest<'_>,
    scratch: &mut SchedScratch,
) -> Result<(), ScheduleError> {
    req.assignment
        .communicated_into(req.ddg, &mut scratch.communicated);
    let needed = scratch.communicated.len() as u32;
    let capacity = req.machine.coms_capacity_per_ii(req.ii);
    if needed > capacity {
        return Err(ScheduleError::Bus { needed, capacity });
    }
    Ok(())
}

/// Builds the node-major arena in `scratch`: the operation list, the dense
/// id maps and the dependence arcs. Reads `scratch.communicated`, so
/// [`check_bandwidth`] runs first.
fn build_arena(req: &ScheduleRequest<'_>, scratch: &mut SchedScratch) {
    let ddg = req.ddg;
    let asg = req.assignment;
    let machine = req.machine;
    let communicated = &scratch.communicated;
    let is_com = |n: NodeId| communicated.binary_search(&n).is_ok();

    let n = ddg.node_count();
    let clusters = machine.clusters() as usize;
    let arena = &mut scratch.arena;
    arena.reset(n, clusters);
    for nd in ddg.node_ids() {
        arena.node_start.push(arena.ops.len() as u32);
        let cs = &mut scratch.cs;
        cs.clear();
        cs.extend(asg.instances(nd).iter());
        let src = copy_source(asg, nd);
        cs.sort_by_key(|&c| (c != src, c));
        for &c in cs.iter() {
            arena.instance_id[nd.index() * clusters + c as usize] = arena.ops.len() as u32;
            arena.ops.push(SchedOp::Instance(nd, c));
        }
        if is_com(nd) {
            arena.copy_id[nd.index()] = arena.ops.len() as u32;
            arena.ops.push(SchedOp::Copy(nd));
        }
    }
    arena.node_start.push(arena.ops.len() as u32);
    let n_ops = arena.ops.len();
    arena.reset_arcs(n_ops);

    for e in ddg.edges() {
        let lat = i64::from(machine.latency(ddg.kind(e.src)));
        let dist = i64::from(e.distance);
        match e.kind {
            DepKind::Mem => {
                for cu in asg.instances(e.src).iter() {
                    for cv in asg.instances(e.dst).iter() {
                        let (from, to) = (arena.instance(e.src, cu), arena.instance(e.dst, cv));
                        arena.arc(from, to, lat, dist);
                    }
                }
            }
            DepKind::Data => {
                let src_set = asg.instances(e.src);
                for c in asg.instances(e.dst).iter() {
                    let to = arena.instance(e.dst, c);
                    if src_set.contains(c) {
                        let from = arena.instance(e.src, c);
                        arena.arc(from, to, lat, dist);
                    } else {
                        debug_assert!(is_com(e.src), "missing value must be communicated");
                        let from = arena.copy(e.src);
                        // Delivery latency of the copy into this consumer's
                        // cluster: pair-dependent on point-to-point
                        // fabrics, the flat bus latency on shared buses.
                        let dep_lat = if req.zero_bus_dep_latency {
                            0
                        } else {
                            i64::from(machine.transfer_latency(copy_source(asg, e.src), c))
                        };
                        arena.arc(from, to, dep_lat, dist);
                    }
                }
            }
        }
    }
    for &nd in communicated {
        let src = copy_source(asg, nd);
        let lat = i64::from(machine.latency(ddg.kind(nd)));
        let (from, to) = (arena.instance(nd, src), arena.copy(nd));
        arena.arc(from, to, lat, 0);
    }
}

/// Modulo-schedules one loop at a fixed initiation interval.
///
/// Follows the paper's base scheduler (§2.3.2): operations are visited in
/// the swing order read from the cached [`LoopAnalysis`], and each is
/// placed as close as possible to its already-scheduled neighbours without
/// backtracking. Copies occupy buses; instances occupy functional units.
///
/// The swing order gives the best schedules, but its alternating sweeps
/// can sandwich a node between placed neighbours whose window never opens.
/// When swing placement fails that way (a recurrence or copy-slot window
/// closed), the call retries in topological order, whose windows provably
/// relax as the II grows; the topological failure then carries the honest
/// cause. The bandwidth check and the dependence arena are built once and
/// serve both passes.
///
/// Every call-local buffer — the arena, visit list, reservation table,
/// placement arrays and MaxLive buffers — is drawn from `scratch`, which
/// is fully reset first, so a scratch reused across calls yields the same
/// schedules as a fresh one.
///
/// # Errors
///
/// Returns a [`ScheduleError`] describing why this II is insufficient; the
/// driver is expected to increase the II and retry (Figure 2 of the paper).
pub fn schedule(
    req: &ScheduleRequest<'_>,
    analysis: &LoopAnalysis,
    scratch: &mut SchedScratch,
) -> Result<Schedule, ScheduleError> {
    assert!(req.ii > 0, "initiation interval must be positive");
    check_bandwidth(req, scratch)?;
    build_arena(req, scratch);
    place_in_order(req, analysis.sms_order(), scratch).or_else(|first| {
        if matches!(
            first,
            ScheduleError::Recurrence { .. } | ScheduleError::CopySlots { .. }
        ) {
            place_in_order(req, analysis.topo_order(), scratch)
        } else {
            Err(first)
        }
    })
}

/// One placement pass over the arena already built in `scratch`, visiting
/// the nodes in `node_order`.
fn place_in_order(
    req: &ScheduleRequest<'_>,
    node_order: &[NodeId],
    scratch: &mut SchedScratch,
) -> Result<Schedule, ScheduleError> {
    let mut visit = std::mem::take(&mut scratch.visit);
    scratch.arena.visit_list(node_order, &mut visit);
    let out = place(req, &visit, scratch);
    scratch.visit = visit;
    out
}

/// Places the arena's ops in `visit` order on a fresh reservation table,
/// assembles the schedule and applies the register-pressure gate.
fn place(
    req: &ScheduleRequest<'_>,
    visit: &[u32],
    scratch: &mut SchedScratch,
) -> Result<Schedule, ScheduleError> {
    let machine = req.machine;
    let ii = req.ii;
    let arena = &scratch.arena;
    let n_ops = arena.ops.len();

    let mrt = &mut scratch.mrt;
    mrt.reset(machine, ii);
    /// Sentinel for "not placed yet" in the dense placement array.
    const UNPLACED: i64 = i64::MIN;
    scratch.placed.clear();
    scratch.placed.resize(n_ops, UNPLACED);
    let placed = &mut scratch.placed;
    scratch.bus_of.clear();
    scratch.bus_of.resize(n_ops, 0);
    let bus_of = &mut scratch.bus_of;
    let ii_i = i64::from(ii);

    // Whether the fabric needs (source, destinations) per copy: shared
    // buses broadcast from any source, point-to-point links are
    // pair-addressed.
    let pair_addressed = !machine.interconnect().is_shared_bus();

    for &id in visit {
        let id = id as usize;
        let op = arena.ops[id];
        // The copy's routing, resolved once per operation (not per slot).
        let (copy_src, copy_dests) = match op {
            SchedOp::Copy(n) if pair_addressed => (
                copy_source(req.assignment, n),
                req.assignment.missing_consumer_clusters(req.ddg, n),
            ),
            _ => (0, ClusterSet::empty()),
        };
        let mut estart: Option<i64> = None;
        let mut lstart: Option<i64> = None;
        // Whether the binding bound flows through a bus copy: a closed
        // window then signals communication latency, not a recurrence.
        let mut bound_by_copy = matches!(op, SchedOp::Copy(_));
        for &(p, lat, dist) in &arena.preds[id] {
            let tp = placed[p as usize];
            if tp != UNPLACED {
                let bound = tp + lat - ii_i * dist;
                if estart.is_none_or(|e| bound > e) {
                    estart = Some(bound);
                    if matches!(arena.ops[p as usize], SchedOp::Copy(_)) {
                        bound_by_copy = true;
                    }
                }
            }
        }
        for &(s, lat, dist) in &arena.succs[id] {
            let ts = placed[s as usize];
            if ts != UNPLACED {
                let bound = ts - lat + ii_i * dist;
                if lstart.is_none_or(|l| bound < l) {
                    lstart = Some(bound);
                    if matches!(arena.ops[s as usize], SchedOp::Copy(_)) {
                        bound_by_copy = true;
                    }
                }
            }
        }

        let candidates: std::ops::Range<i64> = match (estart, lstart) {
            (Some(e), Some(l)) => {
                if l < e {
                    return Err(window_closed(op, bound_by_copy));
                }
                e..l.min(e + ii_i - 1) + 1
            }
            (Some(e), None) => e..e + ii_i,
            (None, Some(l)) => l - ii_i + 1..l + 1,
            (None, None) => 0..ii_i,
        };
        // The unbounded-from-above case walks downward from `l`.
        let downward = estart.is_none() && lstart.is_some();
        let doubly_bounded = estart.is_some() && lstart.is_some();

        let mut done = false;
        let mut try_slot = |t: i64| -> bool {
            match op {
                SchedOp::Instance(n, c) => {
                    let class = req.ddg.kind(n).class();
                    if mrt.fu_free(c, class, t) {
                        mrt.place_fu(c, class, t);
                        placed[id] = t;
                        return true;
                    }
                }
                SchedOp::Copy(_) => {
                    if let Some(bus) = mrt.copy_available(copy_src, copy_dests, t) {
                        mrt.place_copy(copy_src, copy_dests, bus, t);
                        placed[id] = t;
                        bus_of[id] = bus;
                        return true;
                    }
                }
            }
            false
        };
        if downward {
            for t in candidates.rev() {
                if try_slot(t) {
                    done = true;
                    break;
                }
            }
        } else {
            for t in candidates {
                if try_slot(t) {
                    done = true;
                    break;
                }
            }
        }
        if !done {
            return Err(if doubly_bounded {
                window_closed(op, bound_by_copy)
            } else {
                match op {
                    SchedOp::Instance(n, c) => ScheduleError::FuSlots {
                        node: n,
                        class: req.ddg.kind(n).class(),
                        cluster: c,
                    },
                    SchedOp::Copy(n) => ScheduleError::CopySlots { value: n },
                }
            });
        }
    }

    // Normalize to cycle 0 and assemble.
    let min_t = placed.iter().copied().min().unwrap_or(0);
    let max_t = placed.iter().copied().max().unwrap_or(0);
    let mut instances = BTreeMap::new();
    let mut copies = BTreeMap::new();
    for (id, &t) in placed.iter().enumerate() {
        let t = t - min_t;
        match arena.ops[id] {
            SchedOp::Instance(n, c) => {
                instances.insert((n, c), t);
            }
            SchedOp::Copy(n) => {
                copies.insert(
                    n,
                    CopyPlacement {
                        cycle: t,
                        bus: bus_of[id],
                        source: copy_source(req.assignment, n),
                    },
                );
            }
        }
    }
    let sched = Schedule {
        ii,
        instances,
        copies,
        length: u32::try_from(max_t - min_t + 1).unwrap_or(u32::MAX),
        zero_bus_dep_latency: req.zero_bus_dep_latency,
    };

    // Register-pressure gate (the third Figure-1 cause).
    let pressure = max_live_scratch(&sched, req.ddg, machine, &mut scratch.regs);
    for (c, &p) in pressure.iter().enumerate() {
        if p > machine.regs_per_cluster() {
            return Err(ScheduleError::Registers {
                cluster: c as u8,
                maxlive: p,
                available: machine.regs_per_cluster(),
            });
        }
    }
    Ok(sched)
}

/// Classifies an empty issue window: when the binding bound flows through
/// a bus copy (or the operation *is* a copy), the communication latency is
/// at fault — Figure 1 counts those as "bus"; otherwise a recurrence does
/// not fit the II.
fn window_closed(op: SchedOp, bound_by_copy: bool) -> ScheduleError {
    match op {
        _ if bound_by_copy => ScheduleError::CopySlots {
            value: match op {
                SchedOp::Instance(n, _) | SchedOp::Copy(n) => n,
            },
        },
        SchedOp::Instance(n, _) => ScheduleError::Recurrence { node: n },
        SchedOp::Copy(n) => ScheduleError::CopySlots { value: n },
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// load → fmul → store, all in cluster 0.
    fn chain_single_cluster() -> (Ddg, Assignment) {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m).data(m, st);
        (b.build().unwrap(), Assignment::from_partition(&[0, 0, 0]))
    }

    /// One attempt on a fresh analysis and scratch.
    pub(crate) fn schedule_fresh(req: &ScheduleRequest<'_>) -> Result<Schedule, ScheduleError> {
        let analysis = LoopAnalysis::new(req.ddg, req.machine);
        schedule(req, &analysis, &mut SchedScratch::default())
    }

    fn request<'a>(
        ddg: &'a Ddg,
        machine: &'a MachineConfig,
        asg: &'a Assignment,
        ii: u32,
    ) -> ScheduleRequest<'a> {
        ScheduleRequest {
            ddg,
            machine,
            assignment: asg,
            ii,
            zero_bus_dep_latency: false,
        }
    }

    #[test]
    fn schedules_chain_at_res_mii() {
        // Two memory ops on a 1-port cluster force II ≥ 2.
        let (ddg, asg) = chain_single_cluster();
        let m = machine("4c1b2l64r");
        assert!(matches!(
            schedule_fresh(&request(&ddg, &m, &asg, 1)),
            Err(ScheduleError::FuSlots { .. })
        ));
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        assert_eq!(s.ii(), 2);
        // load at 0 (slot 0), fmul at 2, store earliest at 8 but slot 0 is
        // taken by the load → cycle 9; length 10.
        assert_eq!(s.length(), 10);
        assert_eq!(s.stage_count(), 5);
        s.verify(&ddg, &m).unwrap();
        assert_eq!(s.copy_count(), 0);
        assert_eq!(s.op_count(), 3);
    }

    #[test]
    fn texec_formula() {
        let (ddg, asg) = chain_single_cluster();
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        let sc = u64::from(s.stage_count());
        assert_eq!(s.texec(100), (100 - 1 + sc) * 2);
        assert_eq!(s.texec(0), 0);
        assert_eq!(s.texec(1), sc * 2);
    }

    #[test]
    fn cross_cluster_inserts_copy() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1]);
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        assert_eq!(s.copy_count(), 1);
        let copy = s.copy_of(NodeId::new(0)).unwrap();
        assert_eq!(copy.source, 0);
        // copy waits for the load (lat 2), consumer waits bus latency 2.
        let t_ld = s.instance_cycle(NodeId::new(0), 0).unwrap();
        let t_m0 = s.instance_cycle(NodeId::new(1), 1).unwrap();
        assert!(copy.cycle >= t_ld + 2);
        assert!(t_m0 >= copy.cycle + 2);
        s.verify(&ddg, &m).unwrap();
    }

    #[test]
    fn bus_capacity_rejects_too_many_coms() {
        // Two communicated values but II=2 with a 2-cycle bus fits only 1.
        let mut b = Ddg::builder();
        let p0 = b.add_node(OpKind::IntAdd);
        let p1 = b.add_node(OpKind::IntAdd);
        let c0 = b.add_node(OpKind::FpAdd);
        let c1 = b.add_node(OpKind::FpAdd);
        b.data(p0, c0).data(p1, c1);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0, 1, 1]);
        let m = machine("4c1b2l64r");
        let err = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Bus {
                needed: 2,
                capacity: 1
            }
        );
        assert_eq!(err.cause(), crate::error::IiCause::Bus);
        // II=4 fits both.
        let s = schedule_fresh(&request(&ddg, &m, &asg, 4)).unwrap();
        assert_eq!(s.copy_count(), 2);
        s.verify(&ddg, &m).unwrap();
    }

    #[test]
    fn fu_saturation_fails_with_resources() {
        // 3 independent loads in one cluster with 1 mem port at II=2.
        let mut b = Ddg::builder();
        for _ in 0..3 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0, 0]);
        let m = machine("4c1b2l64r");
        let err = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap_err();
        assert!(matches!(err, ScheduleError::FuSlots { .. }));
        assert!(schedule_fresh(&request(&ddg, &m, &asg, 3)).is_ok());
    }

    #[test]
    fn recurrence_window_fails_below_recmii_effects() {
        // fadd ring with distance 1: RecMII = 9 (3 fadds of latency 3).
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        let z = b.add_node(OpKind::FpAdd);
        b.data(x, y).data(y, z).data_dist(z, x, 1);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0, 0]);
        let m = machine("4c1b2l64r");
        let err = schedule_fresh(&request(&ddg, &m, &asg, 8)).unwrap_err();
        assert_eq!(err.cause(), crate::error::IiCause::Recurrence);
        let s = schedule_fresh(&request(&ddg, &m, &asg, 9)).unwrap();
        s.verify(&ddg, &m).unwrap();
    }

    #[test]
    fn replicated_instance_schedules_in_both_clusters() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let m1 = b.add_node(OpKind::FpMul);
        b.data(ld, m0).data(ld, m1);
        let ddg = b.build().unwrap();
        let mut asg = Assignment::from_partition(&[0, 0, 1]);
        asg.add_instance(NodeId::new(0), 1);
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 1)).unwrap();
        assert_eq!(s.copy_count(), 0, "replication removed the communication");
        assert_eq!(s.instance_clusters(NodeId::new(0)).len(), 2);
        s.verify(&ddg, &m).unwrap();
    }

    #[test]
    fn zero_bus_mode_shortens_but_still_uses_bandwidth() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1]);
        let m = machine("4c1b2l64r");
        let normal = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        let mut req = request(&ddg, &m, &asg, 2);
        req.zero_bus_dep_latency = true;
        let relaxed = schedule_fresh(&req).unwrap();
        assert!(relaxed.is_zero_bus_relaxed());
        assert!(relaxed.length() <= normal.length());
        assert_eq!(relaxed.copy_count(), 1, "bandwidth still consumed");
        relaxed.verify(&ddg, &m).unwrap();
    }

    #[test]
    fn verify_catches_tampered_latency() {
        let (ddg, asg) = chain_single_cluster();
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        let mut bad = s.clone();
        // Move the store to cycle 0: violates the fmul → store latency.
        bad.instances.insert((NodeId::new(2), 0), 0);
        assert!(matches!(
            bad.verify(&ddg, &m),
            Err(VerifyError::LatencyViolated { .. }) | Err(VerifyError::FuOversubscribed { .. })
        ));
    }

    #[test]
    fn verify_catches_missing_copy() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1]);
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        let mut bad = s.clone();
        bad.copies.clear();
        assert!(matches!(
            bad.verify(&ddg, &m),
            Err(VerifyError::ValueUnavailable { .. })
        ));
    }

    /// The ISSUE-5 oversubscription property: on **every** topology
    /// variant, double-booking one link in an otherwise valid schedule
    /// must be caught by [`Schedule::verify`].
    ///
    /// Construction: `k` independent producer→consumer pairs all crossing
    /// the same cluster pair `0 → 1`, scheduled at the first feasible II
    /// (so every copy is legally placed), then tampered: the second copy
    /// is re-timed onto the first copy's modulo slot and bus, and its
    /// consumer pushed later by whole IIs (slot-invariant, so functional
    /// units and every latency stay legal — the *only* remaining defect is
    /// the double-booked link).
    mod oversubscription {
        use super::*;
        use proptest::prelude::*;

        fn cross_pairs(k: usize) -> (Ddg, Assignment) {
            let mut b = Ddg::builder();
            let mut part = Vec::new();
            for _ in 0..k {
                let p = b.add_node(OpKind::IntAdd);
                let c = b.add_node(OpKind::FpAdd);
                b.data(p, c);
                part.extend([0u8, 1u8]);
            }
            (b.build().unwrap(), Assignment::from_partition(&part))
        }

        fn first_feasible(ddg: &Ddg, m: &MachineConfig, asg: &Assignment) -> Schedule {
            for ii in 1..=64 {
                if let Ok(s) = schedule_fresh(&ScheduleRequest {
                    ddg,
                    machine: m,
                    assignment: asg,
                    ii,
                    zero_bus_dep_latency: false,
                }) {
                    return s;
                }
            }
            panic!("no feasible II up to 64");
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn verify_rejects_a_double_booked_link(
                spec_idx in 0usize..6,
                k in 2usize..=4,
            ) {
                let spec = [
                    "2c1b2l64r",
                    "4c2b4l64r",
                    "4c-ring1l64r",
                    "4c-ring2l64r",
                    "4c-xbar1l64r",
                    "2c-xbar2l64r",
                ][spec_idx];
                let m = MachineConfig::from_spec(spec).unwrap();
                let (ddg, asg) = cross_pairs(k);
                let sched = first_feasible(&ddg, &m, &asg);
                prop_assert_eq!(sched.copy_count(), k as u32);
                sched.verify(&ddg, &m).expect("pristine schedule verifies");

                let ii = i64::from(sched.ii());
                let values: Vec<NodeId> = sched.copies.keys().copied().collect();
                let (v1, v2) = (values[0], values[1]);
                let c1 = sched.copies[&v1];
                let c2 = sched.copies[&v2];

                let mut bad = sched.clone();
                // Re-time copy 2 onto copy 1's modulo slot (never earlier
                // than its own legal cycle) and the same bus.
                let delta = (c1.cycle - c2.cycle).rem_euclid(ii);
                let tampered = bad.copies.get_mut(&v2).unwrap();
                tampered.cycle = c2.cycle + delta;
                tampered.bus = c1.bus;
                // Push copy 2's consumer later by whole IIs so its read
                // still follows the delivery (same modulo slot → same
                // functional-unit booking).
                let consumer = ddg
                    .out_edges(v2)
                    .find(|e| e.is_data())
                    .map(|e| e.dst)
                    .unwrap();
                let t = bad.instances[&(consumer, 1)];
                bad.instances.insert((consumer, 1), t + 2 * ii);
                bad.length += u32::try_from(2 * ii).unwrap();

                prop_assert!(
                    matches!(
                        bad.verify(&ddg, &m),
                        Err(VerifyError::BusOversubscribed { .. })
                    ),
                    "{spec}: tampered schedule must fail with an oversubscribed link, got {:?}",
                    bad.verify(&ddg, &m)
                );
            }
        }
    }

    /// The node-major arena against the order-major one it replaced: the
    /// old arena numbered ops in placement order, so walking it by id was
    /// the placement pass. Both must give the same schedule or error for
    /// either node order, and [`schedule`] must equal the old driver's
    /// swing-then-topological composition.
    mod arena_oracle {
        use super::*;
        use proptest::prelude::*;

        /// The order-major arena, kept verbatim as the oracle: the
        /// operation list in the requested node order, the dense id maps
        /// and the dependence arcs.
        fn build_arena_order_major(
            req: &ScheduleRequest<'_>,
            node_order: &[NodeId],
            scratch: &mut SchedScratch,
        ) {
            let ddg = req.ddg;
            let asg = req.assignment;
            let machine = req.machine;
            let communicated = &scratch.communicated;
            let is_com = |n: NodeId| communicated.binary_search(&n).is_ok();

            let n = ddg.node_count();
            let clusters = machine.clusters() as usize;
            let arena = &mut scratch.arena;
            arena.reset(n, clusters);
            for &nd in node_order {
                let cs = &mut scratch.cs;
                cs.clear();
                cs.extend(asg.instances(nd).iter());
                let src = copy_source(asg, nd);
                cs.sort_by_key(|&c| (c != src, c));
                for &c in cs.iter() {
                    arena.instance_id[nd.index() * clusters + c as usize] = arena.ops.len() as u32;
                    arena.ops.push(SchedOp::Instance(nd, c));
                }
                if is_com(nd) {
                    arena.copy_id[nd.index()] = arena.ops.len() as u32;
                    arena.ops.push(SchedOp::Copy(nd));
                }
            }
            let n_ops = arena.ops.len();
            arena.reset_arcs(n_ops);

            for e in ddg.edges() {
                let lat = i64::from(machine.latency(ddg.kind(e.src)));
                let dist = i64::from(e.distance);
                match e.kind {
                    DepKind::Mem => {
                        for cu in asg.instances(e.src).iter() {
                            for cv in asg.instances(e.dst).iter() {
                                let (from, to) =
                                    (arena.instance(e.src, cu), arena.instance(e.dst, cv));
                                arena.arc(from, to, lat, dist);
                            }
                        }
                    }
                    DepKind::Data => {
                        let src_set = asg.instances(e.src);
                        for c in asg.instances(e.dst).iter() {
                            let to = arena.instance(e.dst, c);
                            if src_set.contains(c) {
                                let from = arena.instance(e.src, c);
                                arena.arc(from, to, lat, dist);
                            } else {
                                debug_assert!(is_com(e.src), "missing value must be communicated");
                                let from = arena.copy(e.src);
                                // Delivery latency of the copy into this consumer's
                                // cluster: pair-dependent on point-to-point
                                // fabrics, the flat bus latency on shared buses.
                                let dep_lat = if req.zero_bus_dep_latency {
                                    0
                                } else {
                                    i64::from(machine.transfer_latency(copy_source(asg, e.src), c))
                                };
                                arena.arc(from, to, dep_lat, dist);
                            }
                        }
                    }
                }
            }
            for &nd in communicated {
                let src = copy_source(asg, nd);
                let lat = i64::from(machine.latency(ddg.kind(nd)));
                let (from, to) = (arena.instance(nd, src), arena.copy(nd));
                arena.arc(from, to, lat, 0);
            }
        }

        /// One pass in `node_order` on the order-major arena, walked by id.
        fn order_major(
            req: &ScheduleRequest<'_>,
            node_order: &[NodeId],
            scratch: &mut SchedScratch,
        ) -> Result<Schedule, ScheduleError> {
            check_bandwidth(req, scratch)?;
            build_arena_order_major(req, node_order, scratch);
            let identity: Vec<u32> = (0..scratch.arena.ops.len() as u32).collect();
            place(req, &identity, scratch)
        }

        /// One pass in `node_order` on the node-major arena.
        fn node_major(
            req: &ScheduleRequest<'_>,
            node_order: &[NodeId],
            scratch: &mut SchedScratch,
        ) -> Result<Schedule, ScheduleError> {
            check_bandwidth(req, scratch)?;
            build_arena(req, scratch);
            place_in_order(req, node_order, scratch)
        }

        /// An op with its incoming and outgoing arcs, named by op.
        type VisitedOp = (SchedOp, Vec<(SchedOp, i64, i64)>, Vec<(SchedOp, i64, i64)>);

        /// The arena in `scratch` as the placement pass sees it: every op
        /// of `visit` in order, with its arcs in list order.
        fn visited(scratch: &SchedScratch, visit: &[u32]) -> Vec<VisitedOp> {
            let arena = &scratch.arena;
            let named = |arcs: &[(u32, i64, i64)]| {
                arcs.iter()
                    .map(|&(id, lat, dist)| (arena.ops[id as usize], lat, dist))
                    .collect()
            };
            visit
                .iter()
                .map(|&id| {
                    let id = id as usize;
                    (
                        arena.ops[id],
                        named(&arena.preds[id]),
                        named(&arena.succs[id]),
                    )
                })
                .collect()
        }

        /// SplitMix64: the generated loops are a pure function of the seed.
        struct Rng(u64);

        impl Rng {
            fn next(&mut self) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            }

            fn below(&mut self, n: u64) -> u64 {
                self.next() % n
            }

            fn chance(&mut self, percent: u64) -> bool {
                self.below(100) < percent
            }
        }

        /// A random loop: forward data and memory edges, loop-carried back
        /// edges and self-loops, never a data edge out of a store.
        fn random_loop(rng: &mut Rng) -> Ddg {
            let n = 3 + rng.below(14) as usize;
            let kinds: Vec<OpKind> = (0..n)
                .map(|_| OpKind::ALL[rng.below(OpKind::ALL.len() as u64) as usize])
                .collect();
            let mut b = Ddg::builder();
            let nodes: Vec<NodeId> = kinds.iter().map(|&k| b.add_node(k)).collect();
            for j in 1..n {
                for _ in 0..1 + rng.below(3) {
                    let i = rng.below(j as u64) as usize;
                    if kinds[i] != OpKind::Store {
                        b.data(nodes[i], nodes[j]);
                    } else if kinds[j] == OpKind::Load {
                        b.mem_dep(nodes[i], nodes[j], 0);
                    }
                }
                if rng.chance(25) {
                    let i = rng.below(j as u64 + 1) as usize;
                    if kinds[j] != OpKind::Store {
                        b.data_dist(nodes[j], nodes[i], 1 + rng.below(3) as u32);
                    } else if kinds[i] == OpKind::Load {
                        b.mem_dep(nodes[j], nodes[i], 1 + rng.below(2) as u32);
                    }
                }
            }
            b.build().expect("generated loops are valid")
        }

        /// A random partition with replicas: some non-store nodes gain
        /// instances in other clusters, and some of those lose their home
        /// instance, so the copy source is not always the lowest cluster.
        fn random_assignment(rng: &mut Rng, ddg: &Ddg, clusters: u8) -> Assignment {
            let part: Vec<u8> = ddg
                .node_ids()
                .map(|_| rng.below(u64::from(clusters)) as u8)
                .collect();
            let mut asg = Assignment::from_partition(&part);
            for n in ddg.node_ids() {
                if ddg.kind(n) == OpKind::Store || !rng.chance(40) {
                    continue;
                }
                for _ in 0..1 + rng.below(2) {
                    asg.add_instance(n, rng.below(u64::from(clusters)) as u8);
                }
                if asg.instances(n).len() > 1 && rng.chance(40) {
                    asg.remove_instance(n, asg.home(n));
                }
            }
            asg
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(200))]

            #[test]
            fn node_major_arena_matches_order_major_for_both_orders(
                seed in 0u64..u64::MAX,
                spec_idx in 0usize..7,
                zero_bus_dep_latency in prop::bool::ANY,
            ) {
                let spec = [
                    "2c1b2l64r",
                    "4c1b2l64r",
                    "4c2b4l64r",
                    "4c1b1l16r",
                    "4c-ring1l64r",
                    "4c-xbar1l64r",
                    "2c-xbar2l64r",
                ][spec_idx];
                let m = machine(spec);
                let mut rng = Rng(seed);
                let ddg = random_loop(&mut rng);
                let asg = random_assignment(&mut rng, &ddg, m.clusters());
                let analysis = LoopAnalysis::new(&ddg, &m);
                let mut dirty = SchedScratch::default();
                let lo = analysis.mii().saturating_sub(2).max(1);
                for ii in lo..=analysis.mii() + 4 {
                    let req = ScheduleRequest {
                        ddg: &ddg,
                        machine: &m,
                        assignment: &asg,
                        ii,
                        zero_bus_dep_latency,
                    };
                    let mut outcomes = Vec::new();
                    for order in [analysis.sms_order(), analysis.topo_order()] {
                        // Same ops, arcs and arc order in visiting order.
                        let mut fresh = SchedScratch::default();
                        if check_bandwidth(&req, &mut fresh).is_ok() {
                            build_arena_order_major(&req, order, &mut fresh);
                            let identity: Vec<u32> = (0..fresh.arena.ops.len() as u32).collect();
                            let old = visited(&fresh, &identity);
                            check_bandwidth(&req, &mut dirty).expect("same check");
                            build_arena(&req, &mut dirty);
                            let mut visit = Vec::new();
                            dirty.arena.visit_list(order, &mut visit);
                            prop_assert_eq!(old, visited(&dirty, &visit), "{} ii {}", spec, ii);
                        }
                        let old = order_major(&req, order, &mut SchedScratch::default());
                        let new = node_major(&req, order, &mut dirty);
                        prop_assert_eq!(&old, &new, "{} ii {}", spec, ii);
                        outcomes.push(old);
                    }
                    // The swing-then-topological composition the driver
                    // used to run around two calls.
                    let [swing, topo]: [_; 2] = outcomes.try_into().expect("two orders");
                    let composed = match swing {
                        Err(
                            ScheduleError::Recurrence { .. } | ScheduleError::CopySlots { .. },
                        ) => topo,
                        other => other,
                    };
                    prop_assert_eq!(composed, schedule(&req, &analysis, &mut dirty));
                }
            }
        }
    }

    #[test]
    fn render_contains_kernel_shape() {
        let (ddg, asg) = chain_single_cluster();
        let m = machine("4c1b2l64r");
        let s = schedule_fresh(&request(&ddg, &m, &asg, 2)).unwrap();
        let text = s.render(&ddg);
        assert!(text.contains("II=2"));
        assert!(text.contains("load"));
    }
}
