//! Recurrence-induced minimum initiation interval (RecMII).

use crate::analysis::sccs;
use crate::graph::{Ddg, Edge, NodeId};

/// The recurrence-constrained lower bound on the initiation interval:
/// the maximum over all dependence circuits of
/// `ceil(total latency / total distance)`.
///
/// Returns `1` for acyclic graphs (every schedule satisfies them). Every
/// circuit lies inside one strongly connected component, so this is the
/// largest [`scc_rec_mii`] over the components of [`sccs`].
#[must_use]
pub fn rec_mii(ddg: &Ddg, lat: impl Fn(&Edge) -> u32) -> u32 {
    sccs(ddg)
        .iter()
        .filter_map(|comp| scc_rec_mii(ddg, comp, &lat))
        .max()
        .unwrap_or(1)
}

/// Whether a strongly connected component carries a recurrence: more than
/// one node, or a single node with a loop-carried self-dependence.
fn is_recurrent(ddg: &Ddg, comp: &[NodeId]) -> bool {
    comp.len() > 1 || ddg.out_edges(comp[0]).any(|e| e.dst == comp[0])
}

/// RecMII of the recurrence one strongly connected component carries, or
/// `None` when it carries none (a single node without a self-dependence).
///
/// `comp` is one component of [`sccs`], sorted by node index. The result
/// is the smallest II at which the component's internal edges admit no
/// positive-weight cycle under `lat(e) - ii·distance(e)`, found by binary
/// search over a Bellman-Ford feasibility probe restricted to the
/// component.
#[must_use]
pub fn scc_rec_mii(ddg: &Ddg, comp: &[NodeId], lat: impl Fn(&Edge) -> u32) -> Option<u32> {
    if !is_recurrent(ddg, comp) {
        return None;
    }
    // Internal edges as (src slot, dst slot, latency, distance).
    let slot = |n: NodeId| comp.binary_search(&n).ok();
    let mut internal: Vec<(usize, usize, i64, i64)> = Vec::new();
    for (u, &node) in comp.iter().enumerate() {
        for e in ddg.out_edges(node) {
            if let Some(v) = slot(e.dst) {
                internal.push((u, v, i64::from(lat(e)), i64::from(e.distance)));
            }
        }
    }
    let mut t = vec![0i64; comp.len()];
    let mut feasible = |ii: u32| -> bool {
        t.fill(0);
        for _ in 0..=comp.len() {
            let mut changed = false;
            for &(u, v, lat, dist) in &internal {
                let cand = t[u] + lat - i64::from(ii) * dist;
                if cand > t[v] {
                    t[v] = cand;
                    changed = true;
                }
            }
            if !changed {
                return true;
            }
        }
        false // still relaxing after |comp| + 1 passes: a positive cycle
    };
    if feasible(1) {
        return Some(1);
    }
    // Any II above the total internal latency satisfies every circuit
    // (each has distance >= 1).
    let total: i64 = internal.iter().map(|&(_, _, lat, _)| lat).sum();
    let ub = u32::try_from(total + 1).unwrap_or(u32::MAX);
    let (mut lo, mut hi) = (1u32, ub); // lo infeasible, hi feasible
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if feasible(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;

    #[test]
    fn acyclic_rec_mii_is_one() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let c = b.add_node(OpKind::FpMul);
        b.data(a, c);
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg, |_| 10), 1);
    }

    #[test]
    fn single_cycle_ratio() {
        // a → b → a(dist 2), latencies 3 and 5 → RecMII = ceil(8/2) = 4.
        let mut bld = Ddg::builder();
        let a = bld.add_node(OpKind::FpAdd);
        let b = bld.add_node(OpKind::FpAdd);
        bld.data(a, b).data_dist(b, a, 2);
        let ddg = bld.build().unwrap();
        let lat = move |e: &Edge| if e.src == a { 3 } else { 5 };
        assert_eq!(rec_mii(&ddg, lat), 4);
        let edge_lat: Vec<u32> = ddg.edges().map(lat).collect();
        let order = crate::topo_order(&ddg);
        let feasible =
            |ii| crate::longest_paths(&ddg, &order, ii, &edge_lat, &mut Vec::new(), None).is_some();
        assert!(!feasible(3));
        assert!(feasible(4));
    }

    #[test]
    fn max_over_multiple_cycles() {
        // cycle 1: ratio 2/1 = 2; cycle 2: ratio 9/3 = 3 → RecMII 3.
        let mut bld = Ddg::builder();
        let a = bld.add_node(OpKind::FpAdd);
        let b = bld.add_node(OpKind::FpAdd);
        let c = bld.add_node(OpKind::FpAdd);
        let d = bld.add_node(OpKind::FpAdd);
        bld.data(a, b).data_dist(b, a, 1); // lat 1+1 = 2, dist 1
        bld.data(c, d).data_dist(d, c, 3); // lat assigned below
        let ddg = bld.build().unwrap();
        let lat = move |e: &Edge| {
            if e.src == c || e.src == d {
                if e.src == c {
                    4
                } else {
                    5
                }
            } else {
                1
            }
        };
        assert_eq!(rec_mii(&ddg, lat), 3);
    }

    #[test]
    fn self_loop_induction_variable() {
        // i = i + 1 with latency 1 → RecMII 1.
        let mut b = Ddg::builder();
        let i = b.add_node(OpKind::IntAdd);
        b.data_dist(i, i, 1);
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg, |_| 1), 1);
    }

    #[test]
    fn long_latency_recurrence() {
        // fp divide feeding itself across one iteration: RecMII = 18.
        let mut b = Ddg::builder();
        let d = b.add_node(OpKind::FpDiv);
        b.data_dist(d, d, 1);
        let ddg = b.build().unwrap();
        assert_eq!(rec_mii(&ddg, |_| 18), 18);
    }

    #[test]
    fn distance_scales_down_recmii() {
        for dist in 1..=6u32 {
            let mut b = Ddg::builder();
            let d = b.add_node(OpKind::FpAdd);
            b.data_dist(d, d, dist);
            let ddg = b.build().unwrap();
            assert_eq!(rec_mii(&ddg, |_| 12), 12u32.div_ceil(dist));
        }
    }

    #[test]
    fn trivial_components_carry_no_recurrence() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let i = b.add_node(OpKind::IntAdd);
        b.data(a, i).data_dist(i, i, 1);
        let ddg = b.build().unwrap();
        assert_eq!(scc_rec_mii(&ddg, &[a], |_| 5), None);
        assert_eq!(scc_rec_mii(&ddg, &[i], |_| 5), Some(5));
    }
}
