//! Minimum initiation interval bounds.

use cvliw_ddg::{Ddg, OpClass};
use cvliw_machine::MachineConfig;

use crate::assign::Assignment;

/// Resource-constrained MII of the whole (unclustered) machine:
/// `max over classes ceil(ops / total units)`.
#[must_use]
pub fn res_mii_unclustered(ddg: &Ddg, machine: &MachineConfig) -> u32 {
    let counts = ddg.count_by_class();
    OpClass::ALL
        .iter()
        .map(|&class| {
            let units = machine.total_fu(class).max(1);
            counts[class.index()].div_ceil(units)
        })
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Resource-constrained MII of a concrete assignment: the most loaded
/// (cluster, class) pair determines how many cycles each iteration needs.
/// Replicated instances count in every cluster holding them.
#[must_use]
pub fn res_mii_assigned(ddg: &Ddg, assignment: &Assignment, machine: &MachineConfig) -> u32 {
    let usage = assignment.class_usage(ddg, machine.clusters());
    let mut bound = 1;
    for (c, per_cluster) in usage.iter().enumerate() {
        for class in OpClass::ALL {
            let units = u32::from(machine.fu_count_in(c as u8, class)).max(1);
            bound = bound.max(per_cluster[class.index()].div_ceil(units));
        }
    }
    bound
}

/// The interconnect-induced lower bound of a partition (the paper's
/// `IIpart`, generalized to every [`cvliw_machine::Interconnect`]): the
/// smallest II whose aggregate link bandwidth carries all communications,
/// or `u32::MAX` when the machine has no links but communication is
/// required.
#[must_use]
pub fn ii_part(ddg: &Ddg, assignment: &Assignment, machine: &MachineConfig) -> u32 {
    let ncoms = assignment.comm_count(ddg);
    machine.min_ii_for_coms(ncoms).unwrap_or(u32::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// Six independent fp adds and two loads.
    fn wide_ddg() -> Ddg {
        let mut b = Ddg::builder();
        for _ in 0..6 {
            b.add_node(OpKind::FpAdd);
        }
        for _ in 0..2 {
            b.add_node(OpKind::Load);
        }
        b.build().unwrap()
    }

    #[test]
    fn unclustered_res_mii_uses_total_units() {
        let ddg = wide_ddg();
        // 6 fp ops over 4 fp units → 2.
        assert_eq!(res_mii_unclustered(&ddg, &machine("4c1b2l64r")), 2);
        assert_eq!(res_mii_unclustered(&ddg, &machine("2c1b2l64r")), 2);
    }

    #[test]
    fn assigned_res_mii_sees_imbalance() {
        let ddg = wide_ddg();
        // 1 fp unit per cluster; all 6 fp ops in cluster 0 → 6 cycles there.
        let m = machine("4c1b2l64r");
        let asg = Assignment::from_partition(&[0, 0, 0, 0, 0, 0, 1, 1]);
        assert_eq!(res_mii_assigned(&ddg, &asg, &m), 6);
        // balanced: 2,2,1,1 → 2.
        let asg = Assignment::from_partition(&[0, 0, 1, 1, 2, 3, 0, 1]);
        assert_eq!(res_mii_assigned(&ddg, &asg, &m), 2);
    }

    #[test]
    fn replication_raises_assigned_res_mii() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let m1 = b.add_node(OpKind::FpMul);
        b.data(ld, m0).data(ld, m1);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let mut asg = Assignment::from_partition(&[0, 0, 1]);
        assert_eq!(res_mii_assigned(&ddg, &asg, &m), 1);
        asg.add_instance(NodeIdExt::nid(0), 1);
        // cluster 1 now has a load replica + its own fp mul: still 1 per class.
        assert_eq!(res_mii_assigned(&ddg, &asg, &m), 1);
    }

    /// Tiny helper so tests read naturally.
    struct NodeIdExt;
    impl NodeIdExt {
        fn nid(i: u32) -> cvliw_ddg::NodeId {
            cvliw_ddg::NodeId::new(i)
        }
    }

    #[test]
    fn ii_part_matches_bus_formula() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let consumers: Vec<_> = (0..3).map(|_| b.add_node(OpKind::FpAdd)).collect();
        for &c in &consumers {
            b.data(ld, c);
        }
        // three producers each communicated
        let p1 = b.add_node(OpKind::IntAdd);
        let p2 = b.add_node(OpKind::IntAdd);
        b.data(p1, consumers[0]).data(p2, consumers[1]);
        let ddg = b.build().unwrap();
        // ld, p1, p2 in cluster 0; consumers spread out → 3 communications.
        let asg = Assignment::from_partition(&[0, 1, 2, 3, 0, 0]);
        assert_eq!(asg.comm_count(&ddg), 3);
        let m = machine("4c1b2l64r"); // 1 bus, 2-cycle latency
        assert_eq!(ii_part(&ddg, &asg, &m), 6); // 2 * ceil(3/1)
        let m = machine("4c2b2l64r");
        assert_eq!(ii_part(&ddg, &asg, &m), 4); // 2 * ceil(3/2)
    }

    #[test]
    fn ii_part_without_buses_is_infinite() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpAdd);
        b.data(a, c);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1]);
        let mut unified = MachineConfig::unified(64);
        // hand-build a bus-less 2-cluster machine by abusing unified: not
        // possible through the public API, so emulate with clusters=1 where
        // the partition cannot cross — instead check unified accepts.
        assert_eq!(
            ii_part(&ddg, &Assignment::from_partition(&[0, 0]), &unified),
            0
        );
        // And a clustered machine sees the communication.
        let m = machine("2c1b2l64r");
        assert_eq!(ii_part(&ddg, &asg, &m), 2);
        let _ = &mut unified;
    }

    #[test]
    fn mii_combines_resources_and_recurrences() {
        let mii = |ddg: &Ddg, m: &MachineConfig| crate::LoopAnalysis::new(ddg, m).mii();
        // Recurrence: fp add self-loop distance 1 → RecMII = 3 under Table 1.
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        b.data_dist(a, a, 1);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        assert_eq!(mii(&ddg, &m), 3);
        // Resources dominate: 9 loads on 4 mem ports → 3 > rec 1.
        let mut b = Ddg::builder();
        for _ in 0..9 {
            b.add_node(OpKind::Load);
        }
        let ddg = b.build().unwrap();
        assert_eq!(mii(&ddg, &m), 3);
    }
}
