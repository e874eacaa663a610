//! Slack-based edge weights: the cost of paying a bus latency on a
//! dependence (reference [1] of the paper).

use cvliw_ddg::{longest_paths, Ddg};
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

/// Weight applied per bus-latency cycle to an edge inside a recurrence:
/// communications on cycles raise the RecMII directly, so they are treated
/// as (almost) uncuttable.
const RECURRENCE_PENALTY: u64 = 10;

/// Weight applied per cycle by which the bus latency exceeds an acyclic
/// edge's slack (each such cycle lengthens the critical path).
const SLACK_PENALTY: u64 = 2;

/// Base weight of any data edge (every cut consumes bus bandwidth).
const BASE_WEIGHT: u64 = 1;

/// Yields one weight per edge, aligned with `ddg.edges()` order.
///
/// Memory-ordering edges get weight 0: cutting them costs nothing because
/// the memory hierarchy is centralized. Data edges cost more the less slack
/// they have at the loop's MII-feasible II, and far more when they sit on a
/// recurrence. The RecMII, recurrence membership, edge latencies and
/// topological order are read from the cached [`LoopAnalysis`]; only the
/// II-dependent slack bounds are solved per call, into the caller's `asap`
/// and `alap` buffers.
pub(crate) fn edge_weights<'a>(
    ddg: &'a Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &'a LoopAnalysis,
    asap: &'a mut Vec<i64>,
    alap: &'a mut Vec<i64>,
) -> impl Iterator<Item = u64> + 'a {
    let lat = analysis.edge_lat();
    let feasible_ii = ii.max(analysis.rec_mii());
    // An II at or above RecMII always has time bounds; without them no
    // edge would have a measurable slack, so none would pay a shortfall.
    let bounded = longest_paths(
        ddg,
        analysis.topo_order(),
        feasible_ii,
        lat,
        asap,
        Some(&mut *alap),
    )
    .is_some();
    let (asap, alap): (&'a [i64], &'a [i64]) = (asap, alap);
    let of = analysis.scc_of();
    let on_cycle = analysis.on_cycle();
    // The conservative scalar communication cost: the worst transfer
    // latency any cluster pair can pay (= the bus latency on shared-bus
    // machines, so the paper configurations score identically).
    let bus_lat = machine.max_transfer_latency();
    let bus = u64::from(bus_lat);
    ddg.edges().zip(lat).map(move |(e, &lat)| {
        if !e.is_data() {
            return 0;
        }
        let mut w = BASE_WEIGHT;
        let same_scc = of[e.src.index()] == of[e.dst.index()];
        if same_scc && on_cycle[e.src.index()] {
            w += RECURRENCE_PENALTY * bus;
        }
        let shortfall = if bounded {
            let slack = alap[e.dst.index()] - asap[e.src.index()] - i64::from(lat)
                + i64::from(feasible_ii) * i64::from(e.distance);
            (i64::from(bus_lat) - slack).max(0) as u64
        } else {
            0
        };
        w + SLACK_PENALTY * shortfall
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine() -> MachineConfig {
        MachineConfig::from_spec("4c1b2l64r").unwrap()
    }

    fn weights(ddg: &Ddg, ii: u32) -> Vec<u64> {
        let m = machine();
        let analysis = LoopAnalysis::new(ddg, &m);
        let (mut asap, mut alap) = (Vec::new(), Vec::new());
        edge_weights(ddg, &m, ii, &analysis, &mut asap, &mut alap).collect()
    }

    #[test]
    fn mem_edges_are_free() {
        let mut b = Ddg::builder();
        let st = b.add_node(OpKind::Store);
        let ld = b.add_node(OpKind::Load);
        b.mem_dep(st, ld, 1);
        let ddg = b.build().unwrap();
        assert_eq!(weights(&ddg, 1), vec![0]);
    }

    #[test]
    fn recurrence_edges_outweigh_acyclic_edges() {
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::FpAdd);
        let y = b.add_node(OpKind::FpAdd);
        b.data(x, y).data_dist(y, x, 1); // recurrence
        let z = b.add_node(OpKind::FpAdd);
        b.data(y, z); // acyclic exit edge — wait, y is in the SCC, z outside
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 6);
        assert!(
            w[0] > w[2],
            "cycle edge {} should outweigh exit edge {}",
            w[0],
            w[2]
        );
        assert!(w[1] > w[2]);
    }

    #[test]
    fn tight_edges_outweigh_slack_edges() {
        // diamond: a → (long chain | single short op) → sink. The short
        // op's edges have slack; the chain's do not.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c1 = b.add_node(OpKind::FpMul);
        let c2 = b.add_node(OpKind::FpMul);
        let short = b.add_node(OpKind::IntAdd);
        let sink = b.add_node(OpKind::Store);
        b.data(a, c1).data(c1, c2).data(c2, sink); // critical path
        b.data(a, short).data(short, sink); // slack path
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 2);
        // edge 0 (a→c1, critical) heavier than edge 3 (a→short, slack)
        assert!(w[0] > w[3], "critical {} vs slack {}", w[0], w[3]);
    }

    #[test]
    fn weights_align_with_edges() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c = b.add_node(OpKind::FpMul);
        b.data(a, c);
        let ddg = b.build().unwrap();
        let w = weights(&ddg, 1);
        assert_eq!(w.len(), ddg.edge_count());
        assert!(w[0] >= 1);
    }
}
