//! Differential properties of [`IncrementalAsap`] against the full
//! [`longest_paths`] solve (itself pinned to the edge-order Bellman-Ford
//! oracle in `analysis_props.rs`).
//!
//! The graphs are generated on logical positions (distance-0 edges point
//! forward) and then given permuted node ids, so id order is not a
//! topological order and the worklist's rank order is really exercised.
//! Each graph runs at its RecMII, where the critical recurrences have zero
//! weight and a lowered edge's stale support would survive naive
//! relaxation, and above it; several speculations with random raised and
//! lowered edge sets run on one maintained state, each rolled back.

use cvliw_ddg::{longest_paths, topo_order, Ddg, DepKind, IncrementalAsap, NodeId, OpKind};

/// The full ASAP solve of `lat` at `ii` into `asap`.
fn full_asap(ddg: &Ddg, ii: u32, lat: &[u32], asap: &mut Vec<i64>) -> Option<i64> {
    longest_paths(ddg, &topo_order(ddg), ii, lat, asap, None)
}
use proptest::prelude::*;

/// A graph, its base per-edge latencies, the II offset above RecMII and
/// the speculations to run: per speculation, `(edge selector, new
/// latency)` pairs.
type Case = (Ddg, Vec<u32>, u32, Vec<Vec<(usize, u32)>>);

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..40)
        .prop_flat_map(|n| {
            let keys = prop::collection::vec(0u64..1 << 32, n);
            let edges = prop::collection::vec((0..n, 0..n, 0u32..3, prop::bool::ANY), 1..(3 * n));
            let lats = prop::collection::vec(0u32..8, 3 * n);
            let specs = prop::collection::vec(
                prop::collection::vec((0usize..1 << 16, 0u32..8), 1..6),
                1..5,
            );
            (Just(n), keys, edges, lats, 0u32..3, specs)
        })
        .prop_map(|(n, keys, edges, lats, above, specs)| {
            // Position `p` gets node id `id_of[p]`: the positions sorted by
            // their random key.
            let mut by_key: Vec<usize> = (0..n).collect();
            by_key.sort_by_key(|&p| (keys[p], p));
            let mut id_of = vec![0usize; n];
            for (id, &p) in by_key.iter().enumerate() {
                id_of[p] = id;
            }
            let mut b = Ddg::builder();
            let ids: Vec<NodeId> = (0..n).map(|_| b.add_node(OpKind::FpAdd)).collect();
            for (src, dst, dist, mem) in edges {
                if dist == 0 && src >= dst {
                    continue;
                }
                let kind = if mem { DepKind::Mem } else { DepKind::Data };
                b.edge(ids[id_of[src]], ids[id_of[dst]], kind, dist);
            }
            let ddg = b.build().expect("distance-0 edges point forward");
            let base = (0..ddg.edge_count())
                .map(|e| lats[e % lats.len()])
                .collect();
            (ddg, base, above, specs)
        })
}

/// The smallest II at which `lat` is feasible: feasibility is monotone in
/// the II, and above the sum of all latencies every cycle (each carries a
/// distance of at least 1) has negative weight.
fn rec_ii(ddg: &Ddg, lat: &[u32]) -> u32 {
    let mut buf = Vec::new();
    let (mut lo, mut hi) = (1u32, lat.iter().sum::<u32>() + 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if full_asap(ddg, mid, lat, &mut buf).is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn speculation_matches_the_full_sweep(case in arb_case()) {
        let (ddg, base, above, specs) = case;
        let ii = rec_ii(&ddg, &base) + above;
        let mut want = Vec::new();
        let base_len = full_asap(&ddg, ii, &base, &mut want);
        prop_assert!(base_len.is_some());
        let base_asap = want.clone();

        let mut inc = IncrementalAsap::default();
        inc.rebuild(&ddg, ii, &base, &topo_order(&ddg));
        prop_assert!(inc.is_feasible());
        prop_assert_eq!(Some(inc.length()), base_len);
        prop_assert_eq!(inc.asap(), &base_asap[..]);

        for changes in &specs {
            let mut lat = base.clone();
            let edges = lat.len();
            for &(sel, new) in changes.iter().filter(|_| edges > 0) {
                lat[sel % edges] = new;
            }
            let changed_edges: Vec<(u32, u32)> = (0..edges)
                .filter(|&e| lat[e] != base[e])
                .map(|e| (e as u32, base[e]))
                .collect();
            let got = inc.speculate(&ddg, ii, &lat, &changed_edges);
            let expected = full_asap(&ddg, ii, &lat, &mut want);
            prop_assert_eq!(got, expected);
            if got.is_some() {
                prop_assert_eq!(inc.asap(), &want[..]);
            }
            if let Some(changed) = inc.spec_changed().filter(|_| got.is_some()) {
                // Each changed node exactly once, with its base value, and
                // no unchanged node.
                let mut listed = vec![false; ddg.node_count()];
                for &(v, old) in changed {
                    let v = v as usize;
                    prop_assert!(!listed[v], "node {} listed twice", v);
                    listed[v] = true;
                    prop_assert_eq!(old, base_asap[v], "node {}'s old value", v);
                    prop_assert!(inc.asap()[v] != old, "node {} did not change", v);
                }
                for v in 0..ddg.node_count() {
                    prop_assert!(
                        listed[v] || inc.asap()[v] == base_asap[v],
                        "node {} changed but is not listed", v
                    );
                }
            }
            inc.rollback();
            prop_assert!(inc.is_feasible());
            prop_assert_eq!(Some(inc.length()), base_len);
            prop_assert_eq!(inc.asap(), &base_asap[..]);
            prop_assert_eq!(inc.spec_changed().map(<[_]>::len), Some(0));
        }
        prop_assert_eq!(inc.speculations(), specs.len() as u64);
    }
}
