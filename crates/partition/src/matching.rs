//! Greedy maximum-weight matching of the reference coarsening in the
//! `testing` module (the production coarsener matches in place over its
//! sorted coarse graph).

/// Computes a matching over `n` vertices from weighted candidate pairs,
/// greedily taking the heaviest edges first (classic heavy-edge matching;
/// a ½-approximation of the maximum-weight matching, which is what
/// multilevel partitioners use in practice).
///
/// `edges` are `(a, b, weight)` with `a != b`; ties break on the vertex
/// indices so results are deterministic. Returns matched pairs.
#[must_use]
pub fn greedy_matching(n: usize, edges: &[(usize, usize, u64)]) -> Vec<(usize, usize)> {
    let mut sorted: Vec<&(usize, usize, u64)> = edges
        .iter()
        .filter(|(a, b, _)| a != b && *a < n && *b < n)
        .collect();
    sorted.sort_by(|x, y| (y.2, x.0, x.1).cmp(&(x.2, y.0, y.1)));
    let mut matched = vec![false; n];
    let mut pairs = Vec::new();
    for &&(a, b, _) in &sorted {
        if !matched[a] && !matched[b] {
            matched[a] = true;
            matched[b] = true;
            pairs.push((a.min(b), a.max(b)));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_heaviest_edges_first() {
        let edges = [(0, 1, 10), (1, 2, 20), (2, 3, 5)];
        let pairs = greedy_matching(4, &edges);
        assert!(pairs.contains(&(1, 2)));
        assert!(!pairs.contains(&(0, 1)), "0-1 blocked by matched 1");
        assert!(!pairs.contains(&(2, 3)), "2-3 blocked by matched 2");
    }

    #[test]
    fn matching_is_valid() {
        let edges = [(0, 1, 3), (2, 3, 3), (0, 2, 2), (1, 3, 2)];
        let pairs = greedy_matching(4, &edges);
        let mut seen = [0; 4];
        for (a, b) in &pairs {
            seen[*a] += 1;
            seen[*b] += 1;
        }
        assert!(
            seen.iter().all(|&s| s <= 1),
            "each vertex matched at most once"
        );
        assert_eq!(pairs.len(), 2);
    }

    #[test]
    fn ignores_self_and_out_of_range_edges() {
        let edges = [(0, 0, 100), (0, 9, 100), (0, 1, 1)];
        let pairs = greedy_matching(2, &edges);
        assert_eq!(pairs, vec![(0, 1)]);
    }

    #[test]
    fn empty_input_gives_empty_matching() {
        assert!(greedy_matching(5, &[]).is_empty());
        assert!(greedy_matching(0, &[(0, 1, 1)]).is_empty());
    }

    #[test]
    fn deterministic_under_ties() {
        let edges = [(0, 1, 5), (2, 3, 5), (1, 2, 5)];
        let a = greedy_matching(4, &edges);
        let b = greedy_matching(4, &edges);
        assert_eq!(a, b);
    }
}
