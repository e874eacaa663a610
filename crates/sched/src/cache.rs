//! The II-invariant analysis cache.
//!
//! The driver's Figure-2 loop retries `partition → replicate → schedule`
//! at every candidate initiation interval, and the suite compiles the same
//! loop under five policies on the same machine. Most of the analysis work
//! those retries perform does not depend on the II or the policy at all —
//! it is a pure function of `(Ddg, MachineConfig)`:
//!
//! * per-node producer latencies and the dense per-edge latency vector,
//! * longest-path depth/height over the distance-0 subgraph,
//! * the SCC of each node and whether it sits on a recurrence,
//! * the loop-wide RecMII / unclustered ResMII / MII triple,
//! * the operation census per functional-unit class, and
//! * the full swing-modulo-scheduling priority order plus the topological
//!   fallback order.
//!
//! [`LoopAnalysis`] computes all of it exactly once and is threaded **by
//! shared reference** through partitioning, replication and the scheduler,
//! so an II bump or a policy switch reuses it instead of recomputing. It
//! is also the only place a loop's recurrence structure is derived: one
//! Tarjan pass yields the components, each recurrent component's RecMII
//! (`cvliw_ddg::scc_rec_mii`) feeds both the loop-wide RecMII and the
//! swing order's priority groups, and every consumer reads the per-node
//! flags instead of recomputing them.

use cvliw_ddg::{depth_height, scc_rec_mii, sccs, topo_order, Ddg, Edge, NodeId};
use cvliw_machine::MachineConfig;

use crate::mii::res_mii_unclustered;
use crate::order::sms_order_parts;

/// Every II-invariant artifact of one `(loop, machine)` pair.
///
/// Build it once per loop × machine and pass it by reference to every
/// pipeline stage ([`crate::schedule`], [`crate::pseudo_schedule`],
/// `partition_loop_scratch`, …); `cvliw_replicate::CompileContext` owns one
/// per compilation. All accessors are cheap slice reads.
#[derive(Clone, Debug)]
pub struct LoopAnalysis {
    node_lat: Vec<u32>,
    edge_lat: Vec<u32>,
    depth: Vec<i64>,
    height: Vec<i64>,
    scc_of: Vec<usize>,
    on_cycle: Vec<bool>,
    rec_mii: u32,
    res_mii: u32,
    mii: u32,
    count_by_class: [u32; 3],
    sms_order: Vec<NodeId>,
    topo_order: Vec<NodeId>,
}

impl LoopAnalysis {
    /// Computes every II-invariant artifact of `(ddg, machine)`.
    #[must_use]
    pub fn new(ddg: &Ddg, machine: &MachineConfig) -> Self {
        let n = ddg.node_count();
        let node_lat: Vec<u32> = ddg
            .node_ids()
            .map(|v| machine.latency(ddg.kind(v)))
            .collect();
        let edge_lat: Vec<u32> = ddg.edges().map(|e| node_lat[e.src.index()]).collect();
        let lat = |e: &Edge| node_lat[e.src.index()];

        let topo_order = topo_order(ddg);
        let (depth, height) = depth_height(ddg, &topo_order, lat);
        let comps = sccs(ddg);
        let mut scc_of = vec![0usize; n];
        let mut on_cycle = vec![false; n];
        let mut recurrences: Vec<(u32, &[NodeId])> = Vec::new();
        for (i, comp) in comps.iter().enumerate() {
            for &v in comp {
                scc_of[v.index()] = i;
            }
            if let Some(comp_mii) = scc_rec_mii(ddg, comp, lat) {
                for &v in comp {
                    on_cycle[v.index()] = true;
                }
                recurrences.push((comp_mii, comp));
            }
        }
        // Every circuit lies inside one component.
        let rec = recurrences.iter().map(|&(m, _)| m).max().unwrap_or(1);
        let res = res_mii_unclustered(ddg, machine);
        let order = sms_order_parts(ddg, &depth, &height, &mut recurrences);

        LoopAnalysis {
            node_lat,
            edge_lat,
            depth,
            height,
            scc_of,
            on_cycle,
            rec_mii: rec,
            res_mii: res,
            mii: res.max(rec),
            count_by_class: ddg.count_by_class(),
            sms_order: order,
            topo_order,
        }
    }

    /// Latency of the value each node produces, indexed by node.
    #[must_use]
    pub fn node_lat(&self) -> &[u32] {
        &self.node_lat
    }

    /// Per-edge latencies, aligned with `ddg.edges()` order.
    #[must_use]
    pub fn edge_lat(&self) -> &[u32] {
        &self.edge_lat
    }

    /// The edge-latency closure over the cached vector — a drop-in for
    /// `MachineConfig::edge_latency` without the per-call kind lookup.
    pub fn lat(&self) -> impl Fn(&Edge) -> u32 + '_ {
        move |e: &Edge| self.node_lat[e.src.index()]
    }

    /// Longest latency-weighted path from any source to each node.
    #[must_use]
    pub fn depth(&self) -> &[i64] {
        &self.depth
    }

    /// Longest latency-weighted path from each node to any sink.
    #[must_use]
    pub fn height(&self) -> &[i64] {
        &self.height
    }

    /// Index of each node's strongly connected component (in the order
    /// `cvliw_ddg::sccs` discovers them).
    #[must_use]
    pub fn scc_of(&self) -> &[usize] {
        &self.scc_of
    }

    /// Whether each node sits on a dependence cycle: its component has
    /// more than one node, or the node depends on itself.
    #[must_use]
    pub fn on_cycle(&self) -> &[bool] {
        &self.on_cycle
    }

    /// The loop-wide recurrence-constrained MII.
    #[must_use]
    pub fn rec_mii(&self) -> u32 {
        self.rec_mii
    }

    /// The unclustered resource-constrained MII.
    #[must_use]
    pub fn res_mii(&self) -> u32 {
        self.res_mii
    }

    /// `max(ResMII, RecMII)`: the II the driver's attempt loop starts at.
    #[must_use]
    pub fn mii(&self) -> u32 {
        self.mii
    }

    /// Operations per functional-unit class (`[int, fp, mem]`).
    #[must_use]
    pub fn count_by_class(&self) -> &[u32; 3] {
        &self.count_by_class
    }

    /// The full swing-modulo-scheduling priority order.
    #[must_use]
    pub fn sms_order(&self) -> &[NodeId] {
        &self.sms_order
    }

    /// The topological fallback order of the distance-0 subgraph.
    #[must_use]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo_order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// A recurrence plus an independent chain, exercising every artifact.
    fn sample() -> Ddg {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpMul);
        b.data(x, y).data_dist(y, x, 1);
        let ld = b.add_node(OpKind::Load);
        let st = b.add_node(OpKind::Store);
        b.data(ld, st);
        b.build().unwrap()
    }

    #[test]
    fn matches_the_graph_analyses() {
        let ddg = sample();
        let m = machine("4c1b2l64r");
        let a = LoopAnalysis::new(&ddg, &m);
        let lat = m.edge_latency(&ddg);
        let rec = cvliw_ddg::rec_mii(&ddg, &lat);
        assert_eq!(a.rec_mii(), rec);
        assert_eq!(a.res_mii(), res_mii_unclustered(&ddg, &m));
        assert_eq!(a.mii(), a.res_mii().max(rec));
        assert_eq!(a.topo_order(), cvliw_ddg::topo_order(&ddg).as_slice());
        assert_eq!(a.count_by_class(), &ddg.count_by_class());
        let expect: Vec<u32> = ddg.edges().map(&lat).collect();
        assert_eq!(a.edge_lat(), expect.as_slice());
        let (depth, height) = cvliw_ddg::depth_height(&ddg, a.topo_order(), &lat);
        assert_eq!(a.depth(), depth.as_slice());
        assert_eq!(a.height(), height.as_slice());
        // The ring's group comes first, each group from its highest node.
        let ids: Vec<NodeId> = ddg.node_ids().collect();
        assert_eq!(a.sms_order(), ids.as_slice());
    }

    #[test]
    fn scc_artifacts_are_aligned() {
        let ddg = sample();
        let a = LoopAnalysis::new(&ddg, &machine("4c1b2l64r"));
        assert_eq!(a.scc_of().len(), ddg.node_count());
        // the fp ring is one recurrent component with RecMII 3+6=9; ld/st
        // are trivial components of their own.
        assert_eq!(a.scc_of()[0], a.scc_of()[1]);
        assert_ne!(a.scc_of()[2], a.scc_of()[3]);
        assert_eq!(a.on_cycle(), &[true, true, false, false]);
        assert_eq!(a.rec_mii(), 9);
    }

    #[test]
    fn lat_closure_reads_the_cached_vector() {
        let ddg = sample();
        let m = machine("4c1b2l64r");
        let a = LoopAnalysis::new(&ddg, &m);
        let lat = a.lat();
        for (e, &expect) in ddg.edges().zip(a.edge_lat()) {
            assert_eq!(lat(e), expect);
        }
    }
}
