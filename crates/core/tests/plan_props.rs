//! Differential property tests for the dense replication-plan engine: on
//! arbitrary loop graphs and partitions, the [`ReplicationEngine`]'s
//! arena-backed plans and weights must equal the map-based oracle
//! ([`replication_plan`] / [`share_counts`] / [`plan_weight`]) — including
//! across commits, which is exactly where the incremental settledness /
//! region-liveness fast path takes over from the full Figure-5 query. The
//! production Figure-5 query itself must equal the map-based
//! [`dead_instances`] on arbitrary instance configurations.

use std::collections::{BTreeMap, BTreeSet};

use cvliw_ddg::{Ddg, DepKind, NodeId, OpKind};
use cvliw_machine::MachineConfig;
use cvliw_replicate::testing::{
    dead_instances, dense_dead_instances, plan_weight, replication_plan, share_counts, InstanceView,
};
use cvliw_replicate::{ReplicationEngine, ReplicationPlan};
use cvliw_sched::{Assignment, ClusterSet, LoopAnalysis};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop::sample::select(OpKind::ALL.to_vec())
}

fn arb_ddg() -> impl Strategy<Value = Ddg> {
    let nodes = prop::collection::vec(arb_kind(), 1..16);
    nodes
        .prop_flat_map(|kinds| {
            let n = kinds.len();
            let edges = prop::collection::vec((0..n, 0..n, 0u32..2, prop::bool::ANY), 0..(2 * n));
            (Just(kinds), edges)
        })
        .prop_map(|(kinds, edges)| {
            let mut b = Ddg::builder();
            let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
            for (src, dst, dist, mem) in edges {
                let kind = if mem || !kinds[src].produces_value() {
                    DepKind::Mem
                } else {
                    DepKind::Data
                };
                if dist > 0 {
                    b.edge(ids[src], ids[dst], kind, dist);
                } else if src < dst {
                    b.edge(ids[src], ids[dst], kind, 0);
                }
            }
            b.build().expect("valid by construction")
        })
}

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    prop::sample::select(vec!["2c1b2l64r", "4c1b2l64r", "4c2b4l64r"])
        .prop_map(|s| MachineConfig::from_spec(s).expect("valid"))
}

/// The oracle's view of one engine round: every communicated value with a
/// missing consumer cluster gets a map-based [`ReplicationPlan`].
fn oracle_plans(ddg: &Ddg, engine: &ReplicationEngine) -> BTreeMap<NodeId, ReplicationPlan> {
    let coms = engine.communicated();
    coms.iter()
        .filter_map(|&com| {
            let targets = engine.assignment().missing_consumer_clusters(ddg, com);
            (!targets.is_empty())
                .then(|| (com, replication_plan(ddg, engine.assignment(), coms, com)))
        })
        .collect()
}

/// xorshift64 stream for the per-case pseudo-random choices.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Deterministic pseudo-random partition over the machine's clusters.
fn random_partition(ddg: &Ddg, machine: &MachineConfig, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..ddg.node_count())
        .map(|_| (xorshift(&mut state) % u64::from(machine.clusters())) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The production Figure-5 query (recurrence anchors from the loop's
    /// `LoopAnalysis`, dense worklist) equals the map-based oracle with its
    /// own SCC pass, on a random partition plus random extra replicas and
    /// a random communicated set whose copy sources are random clusters —
    /// held or not.
    #[test]
    fn dense_liveness_equals_oracle(
        ddg in arb_ddg(),
        machine in arb_machine(),
        seed in any::<u64>(),
    ) {
        let part = random_partition(&ddg, &machine, seed);
        let clusters = u64::from(machine.clusters());
        let mut state = seed.rotate_left(17) | 1;
        let mut instances: Vec<ClusterSet> =
            part.iter().map(|&c| ClusterSet::single(c)).collect();
        let mut coms = BTreeSet::new();
        let mut com_source = vec![0u8; ddg.node_count()];
        for (i, set) in instances.iter_mut().enumerate() {
            let r = xorshift(&mut state);
            if r % 3 == 0 {
                set.insert(((r >> 8) % clusters) as u8);
            }
            if (r >> 16) % 3 == 0 {
                coms.insert(NodeId::new(i as u32));
                com_source[i] = ((r >> 24) % clusters) as u8;
            }
        }
        let view = InstanceView { instances, coms, com_source };
        let analysis = LoopAnalysis::new(&ddg, &machine);
        prop_assert_eq!(dense_dead_instances(&ddg, &analysis, &view), dead_instances(&ddg, &view));
    }

    /// The dense arena path — subgraph walk, anticipated removals, and
    /// weights — is plan-for-plan identical to the oracle, before any
    /// commit and after each of several commits.
    #[test]
    fn plan_dense_equals_oracle(
        ddg in arb_ddg(),
        machine in arb_machine(),
        ii in 1u32..6,
        seed in any::<u64>(),
    ) {
        let part = random_partition(&ddg, &machine, seed);
        let assignment = Assignment::from_partition(&part);
        let analysis = LoopAnalysis::new(&ddg, &machine);
        let mut engine = ReplicationEngine::new(&ddg, &machine, ii, assignment, &analysis);

        for _round in 0..4 {
            let oracle = oracle_plans(&ddg, &engine);
            let shares = share_counts(&oracle);
            let expected_weights: Vec<f64> = oracle
                .values()
                .map(|p| plan_weight(&ddg, &machine, engine.ii(), engine.assignment(), &shares, p))
                .collect();

            {
                let arena = engine.plans();
                prop_assert_eq!(arena.len(), oracle.len());
                for p in arena.iter() {
                    let o = oracle.get(&p.com()).expect("oracle has every arena com");
                    prop_assert_eq!(&p.to_plan(), o, "plan for {:?} diverged", p.com());
                }
            }
            // Weights align because both sides walk the communicated set
            // in ascending node order; equality is exact (bit-identical
            // f64), not approximate.
            prop_assert_eq!(engine.weights().to_vec(), expected_weights);

            // Advance like the §3.3 loop: commit the first feasible plan
            // (ascending com order) and re-compare — this drives the
            // settledness bookkeeping and the region-liveness fast path.
            let ii = engine.ii();
            let next = oracle
                .values()
                .find(|p| p.fits(&ddg, &machine, ii, engine.assignment()))
                .cloned();
            match next {
                Some(plan) => engine.commit(&plan),
                None => break,
            }
        }
    }
}
