//! The data-dependence graph and its builder.

use std::fmt;

use crate::error::DdgError;
use crate::op::{OpClass, OpKind};

/// Identifier of a node (operation) in a [`Ddg`].
///
/// Node ids are dense indices assigned in creation order by
/// [`DdgBuilder::add_node`]; they are only meaningful for the graph that
/// created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// Mostly useful in tests; prefer the ids returned by
    /// [`DdgBuilder::add_node`].
    #[must_use]
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The dense index of this node.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A single operation of the loop body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    kind: OpKind,
    label: Option<Box<str>>,
}

impl Node {
    /// The operation this node performs.
    #[must_use]
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Optional human-readable label (used in schedules and DOT dumps).
    #[must_use]
    pub fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }
}

/// The kind of dependence an [`Edge`] represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// A register (flow) dependence: the destination reads the value the
    /// source produces. If producer and consumer end up in different
    /// clusters, the value must be communicated over a bus — these are the
    /// dependences instruction replication targets.
    Data,
    /// A memory-ordering dependence (e.g. store → load on the same address).
    /// It constrains issue times but carries no register value; because the
    /// memory hierarchy is centralized it never causes inter-cluster
    /// communication and is never part of a replication subgraph.
    Mem,
}

/// A dependence between two operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Producer (or predecessor, for memory ordering).
    pub src: NodeId,
    /// Consumer (or successor).
    pub dst: NodeId,
    /// Register value or memory ordering.
    pub kind: DepKind,
    /// Iteration distance: `dst` of iteration `i` depends on `src` of
    /// iteration `i - distance`.
    pub distance: u32,
}

impl Edge {
    /// Whether this is a register dependence.
    #[must_use]
    pub fn is_data(&self) -> bool {
        self.kind == DepKind::Data
    }
}

/// An immutable, validated data-dependence graph of a loop body.
///
/// Construct one through [`Ddg::builder`]. After a successful
/// [`DdgBuilder::build`] the following invariants hold:
///
/// * every edge endpoint is a valid node,
/// * no [`DepKind::Data`] edge starts at a store,
/// * the distance-0 subgraph is acyclic (the loop body has a topological
///   order), and
/// * the graph has at least one node.
///
/// Adjacency is stored as compressed sparse rows (CSR), one per
/// direction: an offsets vector of `node_count + 1` entries and one flat
/// item vector, so node `n`'s row is `items[off[n]..off[n + 1]]`. Four
/// such pairs cover out-edge ids, in-edge ids (each row in
/// [`Ddg::edges`] order) and the deduplicated, sorted data producers and
/// consumers. Adjacency is thus eight allocations whatever the graph's
/// size, and every accessor hands out a slice of one of them.
#[derive(Clone, Debug)]
pub struct Ddg {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    succs: Csr<u32>,
    preds: Csr<u32>,
    /// Deduplicated data-dependence adjacency, precomputed at build time:
    /// the replication planner walks these for every candidate subgraph, so
    /// they are slices, not per-call allocations.
    data_preds: Csr<NodeId>,
    data_succs: Csr<NodeId>,
}

/// Compressed sparse rows: row `r` is `items[off[r]..off[r + 1]]`.
#[derive(Clone, Debug)]
struct Csr<T> {
    off: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Counting sort of `(row, item)` pairs into `rows` rows, each row
    /// keeping its items in input order. `fill` only pre-sizes the item
    /// vector; every slot is overwritten.
    fn from_pairs<I>(rows: usize, pairs: I, fill: T) -> Self
    where
        I: Iterator<Item = (usize, T)> + Clone,
    {
        let mut off = vec![0u32; rows + 1];
        for (r, _) in pairs.clone() {
            off[r + 1] += 1;
        }
        for r in 0..rows {
            off[r + 1] += off[r];
        }
        let mut cursor = off[..rows].to_vec();
        let mut items = vec![fill; off[rows] as usize];
        for (r, item) in pairs {
            items[cursor[r] as usize] = item;
            cursor[r] += 1;
        }
        Csr { off, items }
    }

    fn row(&self, r: usize) -> &[T] {
        &self.items[self.off[r] as usize..self.off[r + 1] as usize]
    }
}

impl Ddg {
    /// Starts building a new graph.
    #[must_use]
    pub fn builder() -> DdgBuilder {
        DdgBuilder::new()
    }

    /// Number of operations in the loop body.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of dependences.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Shorthand for `self.node(id).kind()`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    #[must_use]
    pub fn kind(&self, id: NodeId) -> OpKind {
        self.nodes[id.index()].kind
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edges.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.edges.iter()
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.succs
            .row(n.index())
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> impl ExactSizeIterator<Item = &Edge> + '_ {
        self.preds
            .row(n.index())
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Indices (into [`Ddg::edges`] order) of the outgoing edges of `n` —
    /// for callers that maintain per-edge side tables (e.g. the
    /// incrementally updated latency vector of partition refinement).
    #[must_use]
    pub fn out_edge_ids(&self, n: NodeId) -> &[u32] {
        self.succs.row(n.index())
    }

    /// Indices (into [`Ddg::edges`] order) of the incoming edges of `n`.
    #[must_use]
    pub fn in_edge_ids(&self, n: NodeId) -> &[u32] {
        self.preds.row(n.index())
    }

    /// The edge with the given index in [`Ddg::edges`] order.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn edge(&self, idx: u32) -> &Edge {
        &self.edges[idx as usize]
    }

    /// Producers whose register values `n` reads (deduplicated, sorted).
    #[must_use]
    pub fn data_preds(&self, n: NodeId) -> &[NodeId] {
        self.data_preds.row(n.index())
    }

    /// Consumers that read the register value `n` produces (deduplicated,
    /// sorted).
    #[must_use]
    pub fn data_succs(&self, n: NodeId) -> &[NodeId] {
        self.data_succs.row(n.index())
    }

    /// Whether `n` has at least one data consumer.
    #[must_use]
    pub fn has_data_succs(&self, n: NodeId) -> bool {
        self.out_edges(n).any(|e| e.is_data())
    }

    /// Counts operations per functional-unit class (`[int, fp, mem]`).
    #[must_use]
    pub fn count_by_class(&self) -> [u32; 3] {
        let mut counts = [0u32; 3];
        for node in &self.nodes {
            counts[node.kind.class().index()] += 1;
        }
        counts
    }

    /// Counts operations of one class.
    #[must_use]
    pub fn count_of_class(&self, class: OpClass) -> u32 {
        self.count_by_class()[class.index()]
    }

    /// All store nodes.
    pub fn stores(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.kind(n) == OpKind::Store)
    }

    /// A printable label for a node: its explicit label if set, otherwise
    /// `"<mnemonic> <id>"`.
    #[must_use]
    pub fn display_label(&self, n: NodeId) -> String {
        match self.node(n).label() {
            Some(l) => l.to_string(),
            None => format!("{} {}", self.kind(n).mnemonic(), n),
        }
    }

    /// Finds the node with the given label, if any.
    #[must_use]
    pub fn find_by_label(&self, label: &str) -> Option<NodeId> {
        self.node_ids()
            .find(|&n| self.node(n).label() == Some(label))
    }
}

/// Incremental builder for a [`Ddg`].
///
/// # Example
///
/// ```
/// use cvliw_ddg::{Ddg, OpKind};
///
/// let mut b = Ddg::builder();
/// let addr = b.add_labeled(OpKind::IntAdd, "addr");
/// let load = b.add_node(OpKind::Load);
/// b.data(addr, load);
/// let ddg = b.build()?;
/// assert_eq!(ddg.data_preds(load), vec![addr]);
/// # Ok::<(), cvliw_ddg::DdgError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct DdgBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl DdgBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an operation and returns its id.
    pub fn add_node(&mut self, kind: OpKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { kind, label: None });
        id
    }

    /// Adds a labeled operation and returns its id.
    pub fn add_labeled(&mut self, kind: OpKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            label: Some(label.into().into_boxed_str()),
        });
        id
    }

    /// Adds an edge of arbitrary kind and distance.
    pub fn edge(&mut self, src: NodeId, dst: NodeId, kind: DepKind, distance: u32) -> &mut Self {
        self.edges.push(Edge {
            src,
            dst,
            kind,
            distance,
        });
        self
    }

    /// Adds a same-iteration register dependence `src → dst`.
    pub fn data(&mut self, src: NodeId, dst: NodeId) -> &mut Self {
        self.edge(src, dst, DepKind::Data, 0)
    }

    /// Adds a loop-carried register dependence with the given distance.
    pub fn data_dist(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.edge(src, dst, DepKind::Data, distance)
    }

    /// Adds a memory-ordering dependence with the given distance.
    pub fn mem_dep(&mut self, src: NodeId, dst: NodeId, distance: u32) -> &mut Self {
        self.edge(src, dst, DepKind::Mem, distance)
    }

    /// Number of nodes added so far.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validates the graph and freezes it.
    ///
    /// # Errors
    ///
    /// Returns a [`DdgError`] if the graph is empty, an edge references an
    /// unknown node, a store is the source of a data dependence, or the
    /// same-iteration dependences contain a cycle.
    pub fn build(self) -> Result<Ddg, DdgError> {
        let node_count = self.nodes.len();
        if node_count == 0 {
            return Err(DdgError::Empty);
        }
        for e in &self.edges {
            for endpoint in [e.src, e.dst] {
                if endpoint.index() >= node_count {
                    return Err(DdgError::NodeOutOfRange {
                        node: endpoint,
                        node_count,
                    });
                }
            }
            if e.kind == DepKind::Data && !self.nodes[e.src.index()].kind.produces_value() {
                return Err(DdgError::StoreHasDataSuccessor {
                    store: e.src,
                    consumer: e.dst,
                });
            }
            if e.distance == 0 && e.src == e.dst {
                return Err(DdgError::ZeroDistanceSelfLoop { node: e.src });
            }
        }

        let edge_ids = || self.edges.iter().zip(0u32..);
        let succs = Csr::from_pairs(node_count, edge_ids().map(|(e, i)| (e.src.index(), i)), 0);
        let preds = Csr::from_pairs(node_count, edge_ids().map(|(e, i)| (e.dst.index(), i)), 0);
        // Data rows are sorted and deduplicated: sorting the pairs first
        // hands `from_pairs` each row's items in order.
        let data_rows = |pair: fn(&Edge) -> (usize, NodeId)| {
            let mut pairs: Vec<_> = self
                .edges
                .iter()
                .filter(|e| e.is_data())
                .map(pair)
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            Csr::from_pairs(node_count, pairs.iter().copied(), NodeId(0))
        };
        let data_preds = data_rows(|e| (e.dst.index(), e.src));
        let data_succs = data_rows(|e| (e.src.index(), e.dst));

        let ddg = Ddg {
            nodes: self.nodes,
            edges: self.edges,
            succs,
            preds,
            data_preds,
            data_succs,
        };
        check_zero_distance_acyclic(&ddg)?;
        Ok(ddg)
    }
}

/// Kahn's algorithm over distance-0 edges; errors with a witness node if a
/// cycle remains.
fn check_zero_distance_acyclic(ddg: &Ddg) -> Result<(), DdgError> {
    let n = ddg.node_count();
    let mut indeg = vec![0usize; n];
    for e in ddg.edges() {
        if e.distance == 0 {
            indeg[e.dst.index()] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
    while let Some(i) = ready.pop() {
        for e in ddg.out_edges(NodeId(i as u32)) {
            if e.distance == 0 {
                let d = e.dst.index();
                indeg[d] -= 1;
                if indeg[d] == 0 {
                    ready.push(d);
                }
            }
        }
    }
    // Every node whose in-degree drained was visited; any left over sits
    // on or behind a distance-0 cycle.
    match (0..n).find(|&i| indeg[i] > 0) {
        None => Ok(()),
        Some(witness) => Err(DdgError::ZeroDistanceCycle {
            witness: NodeId(witness as u32),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> Ddg {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::Load);
        let m = b.add_node(OpKind::FpMul);
        let s = b.add_node(OpKind::Store);
        b.data(a, m).data(m, s);
        b.build().unwrap()
    }

    #[test]
    fn builds_simple_chain() {
        let ddg = chain();
        assert_eq!(ddg.node_count(), 3);
        assert_eq!(ddg.edge_count(), 2);
        assert_eq!(ddg.count_by_class(), [0, 1, 2]);
    }

    #[test]
    fn adjacency_is_consistent() {
        let ddg = chain();
        let m = NodeId::new(1);
        assert_eq!(ddg.data_preds(m), vec![NodeId::new(0)]);
        assert_eq!(ddg.data_succs(m), vec![NodeId::new(2)]);
        assert_eq!(ddg.in_edges(m).count(), 1);
        assert_eq!(ddg.out_edges(m).count(), 1);
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(Ddg::builder().build().unwrap_err(), DdgError::Empty);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        b.data(a, NodeId::new(9));
        assert!(matches!(
            b.build().unwrap_err(),
            DdgError::NodeOutOfRange { .. }
        ));
    }

    #[test]
    fn store_data_successor_is_rejected() {
        let mut b = Ddg::builder();
        let st = b.add_node(OpKind::Store);
        let ld = b.add_node(OpKind::Load);
        b.data(st, ld);
        assert!(matches!(
            b.build().unwrap_err(),
            DdgError::StoreHasDataSuccessor { .. }
        ));
    }

    #[test]
    fn store_mem_successor_is_fine() {
        let mut b = Ddg::builder();
        let st = b.add_node(OpKind::Store);
        let ld = b.add_node(OpKind::Load);
        b.mem_dep(st, ld, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn zero_distance_self_loop_is_rejected() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        b.data(a, a);
        assert!(matches!(
            b.build().unwrap_err(),
            DdgError::ZeroDistanceSelfLoop { .. }
        ));
    }

    #[test]
    fn loop_carried_self_dependence_is_accepted() {
        // classic induction variable: i = i + 1
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        b.data_dist(a, a, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn zero_distance_cycle_is_rejected() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::IntAdd);
        let c = b.add_node(OpKind::IntAdd);
        b.data(a, c).data(c, a);
        assert!(matches!(
            b.build().unwrap_err(),
            DdgError::ZeroDistanceCycle { .. }
        ));
    }

    #[test]
    fn loop_carried_cycle_is_accepted() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpMul);
        b.data(a, c).data_dist(c, a, 1);
        assert!(b.build().is_ok());
    }

    #[test]
    fn labels_round_trip() {
        let mut b = Ddg::builder();
        let a = b.add_labeled(OpKind::FpAdd, "A");
        let _ = b.add_node(OpKind::FpAdd);
        let ddg = b.build().unwrap();
        assert_eq!(ddg.node(a).label(), Some("A"));
        assert_eq!(ddg.find_by_label("A"), Some(a));
        assert_eq!(ddg.find_by_label("Z"), None);
        assert_eq!(ddg.display_label(a), "A");
        assert_eq!(ddg.display_label(NodeId::new(1)), "fadd n1");
    }

    #[test]
    fn duplicate_operand_edges_are_kept() {
        // x * x reads the same value twice.
        let mut b = Ddg::builder();
        let x = b.add_node(OpKind::Load);
        let sq = b.add_node(OpKind::FpMul);
        b.data(x, sq).data(x, sq);
        let ddg = b.build().unwrap();
        assert_eq!(ddg.in_edges(sq).count(), 2);
        // ...but data_preds deduplicates.
        assert_eq!(ddg.data_preds(sq), vec![x]);
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
    }
}
