//! Cluster assignments: which clusters hold an instance of each operation.
//!
//! A plain partition maps every node to exactly one cluster. Instruction
//! replication generalizes this: a node may have **instances** in several
//! clusters (paper §3), and an instance may even disappear from its original
//! cluster when it becomes useless there (§3.2). [`Assignment`] captures
//! both with a per-node [`ClusterSet`].

use std::fmt;

use cvliw_ddg::{Ddg, NodeId};

/// A small set of cluster indices, stored as a bitmask (up to 32 clusters).
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterSet(u32);

impl ClusterSet {
    /// The empty set.
    #[must_use]
    pub fn empty() -> Self {
        ClusterSet(0)
    }

    /// The set containing a single cluster.
    #[must_use]
    pub fn single(cluster: u8) -> Self {
        debug_assert!(cluster < 32);
        ClusterSet(1 << cluster)
    }

    /// The set of all clusters `0..n`.
    #[must_use]
    pub fn all(n: u8) -> Self {
        debug_assert!(n <= 32);
        if n as u32 == 32 {
            ClusterSet(u32::MAX)
        } else {
            ClusterSet((1u32 << n) - 1)
        }
    }

    /// Whether the set contains `cluster`.
    #[must_use]
    pub fn contains(self, cluster: u8) -> bool {
        cluster < 32 && self.0 & (1 << cluster) != 0
    }

    /// Adds a cluster (no-op if present).
    pub fn insert(&mut self, cluster: u8) {
        debug_assert!(cluster < 32);
        self.0 |= 1 << cluster;
    }

    /// Removes a cluster (no-op if absent).
    pub fn remove(&mut self, cluster: u8) {
        debug_assert!(cluster < 32);
        self.0 &= !(1 << cluster);
    }

    /// Number of clusters in the set.
    #[must_use]
    pub fn len(self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: Self) -> Self {
        ClusterSet(self.0 | other.0)
    }

    /// Set difference (`self \ other`).
    #[must_use]
    pub fn difference(self, other: Self) -> Self {
        ClusterSet(self.0 & !other.0)
    }

    /// Iterates over the clusters in ascending order.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0..32u8).filter(move |&c| self.contains(c))
    }
}

impl FromIterator<u8> for ClusterSet {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        let mut s = ClusterSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl fmt::Debug for ClusterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for ClusterSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

/// Which clusters hold an instance of each operation of a loop.
///
/// Created from a partition (one cluster per node); the replication pass
/// then adds and removes instances. The **home** cluster of a node is the
/// cluster the partitioner chose — when a value is communicated, its bus
/// copy always reads from the home instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    instances: Vec<ClusterSet>,
    home: Vec<u8>,
}

impl Assignment {
    /// Builds a single-instance assignment from a partition (node index →
    /// cluster).
    #[must_use]
    pub fn from_partition(cluster_of: &[u8]) -> Self {
        Assignment {
            instances: cluster_of.iter().map(|&c| ClusterSet::single(c)).collect(),
            home: cluster_of.to_vec(),
        }
    }

    /// Rewrites this assignment in place from a partition, reusing the
    /// existing buffers — the clear-and-reuse twin of
    /// [`Assignment::from_partition`] for the compile scratch, where a fresh
    /// single-instance assignment is needed at every candidate II.
    pub fn set_from_partition(&mut self, cluster_of: &[u8]) {
        self.instances.clear();
        self.instances
            .extend(cluster_of.iter().map(|&c| ClusterSet::single(c)));
        self.home.clear();
        self.home.extend_from_slice(cluster_of);
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.instances.len()
    }

    /// The clusters holding an instance of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn instances(&self, n: NodeId) -> ClusterSet {
        self.instances[n.index()]
    }

    /// The per-node instance sets as a slice indexed by node — the
    /// borrow-don't-copy access the replication engine's liveness queries
    /// use.
    #[must_use]
    pub fn instance_sets(&self) -> &[ClusterSet] {
        &self.instances
    }

    /// Overwrites this assignment with a copy of `other`, reusing the
    /// existing buffers (the replication engine rebuilds a hypothetical
    /// assignment once per candidate plan).
    pub fn copy_from(&mut self, other: &Assignment) {
        self.instances.clone_from(&other.instances);
        self.home.clone_from(&other.home);
    }

    /// The cluster the partitioner originally assigned `n` to.
    #[must_use]
    pub fn home(&self, n: NodeId) -> u8 {
        self.home[n.index()]
    }

    /// The cluster a bus copy of `n`'s value reads from: the home cluster
    /// if an instance still lives there, otherwise the lowest-numbered
    /// instance cluster (falling back to the home for nodes with no
    /// instances at all, which no legal configuration produces). This is
    /// the single source of the copy-source rule — the scheduler's bus
    /// sources and the liveness analysis's anchors must agree on it.
    #[must_use]
    pub fn copy_source(&self, n: NodeId) -> u8 {
        let home = self.home(n);
        if self.instances(n).contains(home) {
            home
        } else {
            self.instances(n).iter().next().unwrap_or(home)
        }
    }

    /// Adds an instance of `n` in `cluster`.
    pub fn add_instance(&mut self, n: NodeId, cluster: u8) {
        self.instances[n.index()].insert(cluster);
    }

    /// Removes the instance of `n` in `cluster` (no-op if absent).
    pub fn remove_instance(&mut self, n: NodeId, cluster: u8) {
        self.instances[n.index()].remove(cluster);
    }

    /// Whether every node still has exactly one instance.
    #[must_use]
    pub fn is_singleton(&self) -> bool {
        self.instances.iter().all(|s| s.len() == 1)
    }

    /// Total number of instances across all nodes.
    #[must_use]
    pub fn instance_count(&self) -> u32 {
        self.instances.iter().map(|s| s.len()).sum()
    }

    /// Whether the value of `n` must be communicated over a bus: some
    /// consumer instance lives in a cluster with no local instance of `n`.
    #[must_use]
    pub fn needs_comm(&self, ddg: &Ddg, n: NodeId) -> bool {
        if !ddg.kind(n).produces_value() {
            return false;
        }
        let mine = self.instances(n);
        ddg.out_edges(n)
            .filter(|e| e.is_data())
            .any(|e| !self.instances(e.dst).difference(mine).is_empty())
    }

    /// All values that must be communicated, in node order (the paper's
    /// `nof_coms` is the length of this list).
    #[must_use]
    pub fn communicated(&self, ddg: &Ddg) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.communicated_into(ddg, &mut out);
        out
    }

    /// [`Assignment::communicated`] into a caller-owned buffer (cleared
    /// first) — the replication engine recomputes this list after every
    /// committed plan, so the scratch path reuses one allocation.
    pub fn communicated_into(&self, ddg: &Ddg, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(ddg.node_ids().filter(|&n| self.needs_comm(ddg, n)));
    }

    /// Number of communicated values (allocation-free; equals
    /// `communicated(ddg).len()`).
    #[must_use]
    pub fn comm_count(&self, ddg: &Ddg) -> u32 {
        ddg.node_ids().filter(|&n| self.needs_comm(ddg, n)).count() as u32
    }

    /// The clusters that need the value of `n` but hold no instance of it
    /// (the clusters a replication of `n`'s subgraph must target).
    #[must_use]
    pub fn missing_consumer_clusters(&self, ddg: &Ddg, n: NodeId) -> ClusterSet {
        let mine = self.instances(n);
        let mut needed = ClusterSet::empty();
        for e in ddg.out_edges(n) {
            if e.is_data() {
                needed = needed.union(self.instances(e.dst).difference(mine));
            }
        }
        needed
    }

    /// Instance counts per cluster and functional-unit class:
    /// `usage[cluster][class.index()]`.
    #[must_use]
    pub fn class_usage(&self, ddg: &Ddg, clusters: u8) -> Vec<[u32; 3]> {
        let mut usage = Vec::new();
        self.class_usage_into(ddg, clusters, &mut usage);
        usage
    }

    /// [`Assignment::class_usage`] into a caller-owned buffer (cleared
    /// first).
    pub fn class_usage_into(&self, ddg: &Ddg, clusters: u8, usage: &mut Vec<[u32; 3]>) {
        usage.clear();
        usage.resize(clusters as usize, [0u32; 3]);
        for n in ddg.node_ids() {
            let class = ddg.kind(n).class().index();
            for c in self.instances(n).iter() {
                usage[c as usize][class] += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    #[test]
    fn cluster_set_basics() {
        let mut s = ClusterSet::empty();
        assert!(s.is_empty());
        s.insert(2);
        s.insert(0);
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(2) && !s.contains(1));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 2]);
        s.remove(0);
        assert_eq!(s, ClusterSet::single(2));
        assert_eq!(s.to_string(), "{2}");
    }

    #[test]
    fn cluster_set_algebra() {
        let a: ClusterSet = [0u8, 1].into_iter().collect();
        let b: ClusterSet = [1u8, 2].into_iter().collect();
        assert_eq!(a.union(b), ClusterSet::all(3));
        assert_eq!(a.difference(b), ClusterSet::single(0));
        assert_eq!(ClusterSet::all(4).len(), 4);
    }

    /// load → {mulA in cluster 0, mulB in cluster 1}.
    fn fanout() -> (Ddg, Assignment) {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let ma = b.add_node(OpKind::FpMul);
        let mb = b.add_node(OpKind::FpMul);
        b.data(ld, ma).data(ld, mb);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 0, 1]);
        (ddg, asg)
    }

    #[test]
    fn communication_is_detected() {
        let (ddg, asg) = fanout();
        let ld = NodeId::new(0);
        assert!(asg.needs_comm(&ddg, ld));
        assert_eq!(asg.communicated(&ddg), vec![ld]);
        assert_eq!(asg.comm_count(&ddg), 1);
        assert_eq!(
            asg.missing_consumer_clusters(&ddg, ld),
            ClusterSet::single(1)
        );
    }

    #[test]
    fn replication_removes_communication() {
        let (ddg, mut asg) = fanout();
        let ld = NodeId::new(0);
        asg.add_instance(ld, 1);
        assert!(!asg.needs_comm(&ddg, ld));
        assert_eq!(asg.comm_count(&ddg), 0);
        assert!(!asg.is_singleton());
        assert_eq!(asg.instance_count(), 4);
        assert_eq!(asg.home(ld), 0);
    }

    #[test]
    fn stores_never_communicate() {
        let mut b = Ddg::builder();
        let st = b.add_node(OpKind::Store);
        let ld = b.add_node(OpKind::Load);
        b.mem_dep(st, ld, 1);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[0, 1]);
        assert_eq!(asg.comm_count(&ddg), 0);
    }

    #[test]
    fn class_usage_counts_instances() {
        let (ddg, mut asg) = fanout();
        asg.add_instance(NodeId::new(0), 1);
        let usage = asg.class_usage(&ddg, 2);
        assert_eq!(usage[0], [0, 1, 1]); // mulA + load
        assert_eq!(usage[1], [0, 1, 1]); // mulB + load replica
    }

    #[test]
    fn same_cluster_needs_no_comm() {
        let mut b = Ddg::builder();
        let a = b.add_node(OpKind::FpAdd);
        let c = b.add_node(OpKind::FpAdd);
        b.data(a, c);
        let ddg = b.build().unwrap();
        let asg = Assignment::from_partition(&[1, 1]);
        assert_eq!(asg.comm_count(&ddg), 0);
    }
}
