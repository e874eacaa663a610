//! Loop data-dependence graphs for clustered-VLIW modulo scheduling.
//!
//! This crate is the bottom layer of the `cvliw` workspace, a reproduction of
//! *"Instruction Replication for Clustered Microarchitectures"* (Aletà,
//! Codina, González, Kaeli — MICRO-36, 2003). It models the body of an
//! innermost loop as a **data-dependence graph** (DDG):
//!
//! * nodes are operations ([`OpKind`]) executed once per loop iteration,
//! * edges are dependences ([`Edge`]) carrying an **iteration distance**
//!   (`0` = same iteration, `k > 0` = value produced `k` iterations earlier),
//! * register dependences ([`DepKind::Data`]) move values between clusters
//!   and are the communications the replication pass tries to remove, while
//!   memory-ordering dependences ([`DepKind::Mem`]) constrain scheduling but
//!   never require inter-cluster traffic (the paper's memory hierarchy is
//!   centralized).
//!
//! On top of the graph the crate provides the analyses every scheduler layer
//! needs: topological order of the acyclic (distance-0) subgraph, strongly
//! connected components over loop-carried edges, recurrence-constrained
//! ASAP/ALAP issue-time bounds, and the recurrence-induced minimum initiation
//! interval (RecMII) of each component and of the whole loop.
//!
//! # Example
//!
//! Build the three-instruction loop `a[i] = a[i-1] * 2.0` and compute the
//! RecMII of its one recurrence under Table-1 latencies:
//!
//! ```
//! use cvliw_ddg::{rec_mii, scc_rec_mii, sccs, Ddg, DepKind, OpKind};
//!
//! let mut b = Ddg::builder();
//! let load = b.add_node(OpKind::Load);
//! let mul = b.add_node(OpKind::FpMul);
//! let store = b.add_node(OpKind::Store);
//! b.data(load, mul).data(mul, store);
//! // the store feeds next iteration's load: loop-carried memory dependence
//! b.edge(store, load, DepKind::Mem, 1);
//! let ddg = b.build()?;
//!
//! assert_eq!(ddg.node_count(), 3);
//! // 2 (load) + 6 (fp mul) + 2 (store) cycles of latency around a
//! // distance-1 cycle force II >= 10 under Table-1 latencies.
//! let lat = |e: &cvliw_ddg::Edge| match ddg.kind(e.src) {
//!     OpKind::Load | OpKind::Store => 2,
//!     OpKind::FpMul => 6,
//!     _ => 1,
//! };
//! let comps = sccs(&ddg);
//! assert_eq!(comps.len(), 1); // load, mul and store form one recurrence
//! assert_eq!(scc_rec_mii(&ddg, comps.comp(0), lat), Some(10));
//! // The loop-wide RecMII is the largest per-component one.
//! assert_eq!(rec_mii(&ddg, lat), 10);
//! # Ok::<(), cvliw_ddg::DdgError>(())
//! ```

#![forbid(unsafe_code)]
// The daemon compiles untrusted loops through this crate, so no
// `unwrap`/`expect` may be reachable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod analysis;
mod dot;
mod error;
mod graph;
mod incremental;
mod op;
mod recurrence;

pub use analysis::{depth_height, longest_paths, sccs, topo_order, Sccs};
pub use dot::to_dot;
pub use error::DdgError;
pub use graph::{Ddg, DdgBuilder, DepKind, Edge, Node, NodeId};
pub use incremental::IncrementalAsap;
pub use op::{LatencyClass, OpClass, OpKind, ParseOpKindError};
pub use recurrence::{rec_mii, scc_rec_mii};
