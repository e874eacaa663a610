//! Property tests for the multilevel partitioner: structural invariants of
//! coarsening, matching, and refinement on arbitrary loop graphs.

use cvliw_ddg::{Ddg, DepKind, NodeId, OpKind};
use cvliw_machine::MachineConfig;
use cvliw_partition::testing::{
    census_move_comms, coarsen_oracle, greedy_matching, walked_move_comms,
};
use cvliw_partition::{
    coarsen, partition_loop, refine_existing, score_partition, Hierarchy, Partition, RefineScratch,
};
use cvliw_sched::LoopAnalysis;
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = OpKind> {
    prop::sample::select(OpKind::ALL.to_vec())
}

fn arb_ddg() -> impl Strategy<Value = Ddg> {
    arb_ddg_sized(1..16, false)
}

/// Random loop graphs of `nodes` nodes; with `self_loop`, node 0 is an
/// integer add carrying its own value to the next iteration.
fn arb_ddg_sized(nodes: std::ops::Range<usize>, self_loop: bool) -> impl Strategy<Value = Ddg> {
    let nodes = prop::collection::vec(arb_kind(), nodes);
    nodes
        .prop_flat_map(|kinds| {
            let n = kinds.len();
            let edges = prop::collection::vec((0..n, 0..n, 0u32..2, prop::bool::ANY), 0..(2 * n));
            (Just(kinds), edges)
        })
        .prop_map(move |(mut kinds, edges)| {
            let mut b = Ddg::builder();
            if self_loop {
                kinds[0] = OpKind::IntAdd;
            }
            let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
            if self_loop {
                b.data_dist(ids[0], ids[0], 1);
            }
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

/// A deterministic xorshift stream over `seed`.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// The move groups the census property covers: a random singleton, the
/// self-looping node 0 alone, a random root with every data consumer it
/// has (so members consume members) plus a random extra node, and a
/// random subset of the whole graph.
fn census_groups(ddg: &Ddg, next: &mut impl FnMut() -> u64) -> Vec<Vec<usize>> {
    let n = ddg.node_count();
    let mut pick = || (next() % n as u64) as usize;
    let root = pick();
    let mut macro_group: Vec<usize> = std::iter::once(root)
        .chain(
            ddg.data_succs(NodeId::new(root as u32))
                .iter()
                .map(|s| s.index()),
        )
        .chain(std::iter::once(pick()))
        .collect();
    macro_group.sort_unstable();
    macro_group.dedup();
    let mut groups = vec![vec![pick()], vec![0], macro_group];
    let subset: Vec<usize> = (0..n).filter(|_| next() % 3 == 0).collect();
    if !subset.is_empty() {
        groups.push(subset);
    }
    groups
}

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    prop::sample::select(vec!["2c1b2l64r", "4c1b2l64r", "4c2b4l64r"])
        .prop_map(|s| MachineConfig::from_spec(s).expect("valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn partition_loop_assigns_every_node_in_range(
        ddg in arb_ddg(),
        machine in arb_machine(),
        ii in 1u32..8,
    ) {
        let part = partition_loop(&ddg, &machine, ii);
        prop_assert_eq!(part.node_count(), ddg.node_count());
        prop_assert!(part.as_slice().iter().all(|&c| c < machine.clusters()));
    }

    #[test]
    fn coarsening_levels_shrink_to_cluster_count(
        ddg in arb_ddg(),
        machine in arb_machine(),
        ii in 1u32..8,
    ) {
        let mut h = Hierarchy::default();
        let analysis = LoopAnalysis::new(&ddg, &machine);
        coarsen(&ddg, &machine, ii, &analysis, &mut RefineScratch::default(), &mut h);
        prop_assert!(!h.is_empty());
        // Level 0 is the identity; macro counts never grow level to level.
        prop_assert_eq!(h.level(0).n_macros, ddg.node_count());
        for l in 1..h.len() {
            prop_assert!(h.level(l).n_macros <= h.level(l - 1).n_macros);
        }
        let last = h.coarsest();
        prop_assert!(last.n_macros <= (machine.clusters() as usize).max(1)
            || ddg.node_count() <= machine.clusters() as usize);
        // Every level is a total map into its macro count.
        for l in 0..h.len() {
            let level = h.level(l);
            prop_assert_eq!(level.macro_of.len(), ddg.node_count());
            prop_assert!(level.macro_of.iter().all(|&m| (m as usize) < level.n_macros));
        }
    }

    /// The flat coarsening records exactly the nested oracle's levels on
    /// arbitrary graphs (disconnected parts, memory edges, self-loops), on
    /// 2–8 clusters with their own unit mixes, at MII to MII + 3, with one
    /// scratch and hierarchy carried across every call.
    #[test]
    fn flat_coarsening_matches_the_nested_oracle(
        ddg in arb_ddg_sized(1..24, true),
        mixes in prop::collection::vec((1u8..=3, 1u8..=3, 1u8..=2), 2..=8),
        bus in 1u32..=4,
    ) {
        let mix: Vec<String> = mixes.iter().map(|(i, f, m)| format!("{i}.{f}.{m}")).collect();
        let spec = format!("het:{}:1b{bus}l64r", mix.join("+"));
        let machine = MachineConfig::from_extended_spec(&spec).expect("valid spec");
        let analysis = LoopAnalysis::new(&ddg, &machine);
        let mut scratch = RefineScratch::default();
        let mut h = Hierarchy::default();
        for ii in analysis.mii()..analysis.mii() + 4 {
            coarsen(&ddg, &machine, ii, &analysis, &mut scratch, &mut h);
            let oracle = coarsen_oracle(&ddg, &machine, ii, &analysis);
            prop_assert!(oracle.matches(&h), "{} at ii {}: {:?} vs {:?}", spec, ii, h, oracle);
        }
    }

    #[test]
    fn greedy_matching_is_a_matching(
        n in 2usize..20,
        edges in prop::collection::vec((0usize..20, 0usize..20, 1u64..100), 0..40),
    ) {
        let edges: Vec<(usize, usize, u64)> = edges
            .into_iter()
            .filter(|&(a, b, _)| a < n && b < n && a != b)
            .collect();
        let matching = greedy_matching(n, &edges);
        let mut seen = vec![false; n];
        for &(a, b) in &matching {
            prop_assert!(a < n && b < n && a != b);
            prop_assert!(!seen[a], "node {a} matched twice");
            prop_assert!(!seen[b], "node {b} matched twice");
            seen[a] = true;
            seen[b] = true;
            prop_assert!(
                edges.iter().any(|&(x, y, _)| (x, y) == (a, b) || (y, x) == (a, b)),
                "matched pair ({a},{b}) is not an edge"
            );
        }
    }

    #[test]
    fn refinement_never_worsens_the_score(
        ddg in arb_ddg(),
        machine in arb_machine(),
        ii in 1u32..8,
        seed in any::<u64>(),
    ) {
        // Start from a deterministic pseudo-random partition and refine.
        let mut next = xorshift(seed);
        let initial: Vec<u8> = (0..ddg.node_count())
            .map(|_| (next() % u64::from(machine.clusters())) as u8)
            .collect();
        let initial = Partition::from_vec(initial);
        let analysis = LoopAnalysis::new(&ddg, &machine);
        let mut scratch = RefineScratch::default();
        let before = score_partition(&ddg, &initial, &machine, ii, &analysis, &mut scratch);
        let refined = refine_existing(&ddg, &machine, ii, initial, &analysis, &mut scratch);
        let after = score_partition(&ddg, &refined, &machine, ii, &analysis, &mut scratch);
        prop_assert!(after <= before, "refinement worsened the partition");
    }

    /// The consumer-cluster census that prices a move's communications
    /// equals the successor-walk reference for every target, and the
    /// refiner's delta `ncoms − before + after` equals the recount of the
    /// moved partition — on singleton groups, a self-looping node, macros
    /// whose members consume each other, and arbitrary node subsets.
    #[test]
    fn move_census_matches_the_successor_walk(
        ddg in arb_ddg_sized(2..16, true),
        clusters in 2u8..9,
        seed in any::<u64>(),
    ) {
        let mut next = xorshift(seed);
        for group in census_groups(&ddg, &mut next) {
            // Refinement moves a group whose members share one cluster.
            let current = (next() % u64::from(clusters)) as u8;
            let mut part: Vec<u8> = (0..ddg.node_count())
                .map(|_| (next() % u64::from(clusters)) as u8)
                .collect();
            for &i in &group {
                part[i] = current;
            }
            let part = Partition::from_vec(part);
            let census = census_move_comms(&ddg, &part, &group, clusters);
            let walked = walked_move_comms(&ddg, &part, &group, clusters);
            prop_assert_eq!(&census, &walked, "group {:?}", &group);
            let ncoms = part.to_assignment().comm_count(&ddg);
            for target in 0..clusters {
                let mut moved = part.clone();
                for &i in &group {
                    moved.set_cluster(NodeId::new(i as u32), target);
                }
                prop_assert_eq!(
                    ncoms - census[current as usize] + census[target as usize],
                    moved.to_assignment().comm_count(&ddg),
                    "group {:?} -> {}", &group, target
                );
            }
        }
    }

    #[test]
    fn single_node_graphs_partition_trivially(
        kind in arb_kind(),
        machine in arb_machine(),
    ) {
        let mut b = Ddg::builder();
        b.add_node(kind);
        let ddg = b.build().expect("valid");
        let part = partition_loop(&ddg, &machine, 1);
        prop_assert_eq!(part.node_count(), 1);
        prop_assert_eq!(part.comm_count(&ddg), 0);
    }
}
