//! Multilevel data-dependence-graph partitioning for clustered VLIW
//! scheduling — the baseline scheduler's cluster-assignment stage
//! (references \[1\] and \[2\] of the MICRO-36 2003 replication paper).
//!
//! The pipeline follows the paper's description:
//!
//! 1. **Edge weighting**: every data dependence is weighted by the
//!    execution-time impact of paying a bus latency on it — low-slack
//!    edges and edges inside recurrences are expensive to cut.
//! 2. **Coarsening** ([`coarsen`]): repeated maximum-weight matchings group
//!    nodes into macro-nodes until as many macro-nodes remain as the
//!    machine has clusters, recording every intermediate level. Only the
//!    first round reads the DDG: each later round *contracts* the previous
//!    round's coarse graph (one summed `(a, b, w)` entry per connected
//!    macro pair) through the merge map, matches over it sorted in place,
//!    and merges the macros' class counts. The levels of a [`Hierarchy`]
//!    sit level-major in one flat vector and the round buffers live in the
//!    [`RefineScratch`], both cleared per call, so a warm scratch coarsens
//!    without allocating and still carries nothing between graphs.
//! 3. **Initial partition** ([`Hierarchy::initial_partition`]): the
//!    coarsest macro-nodes map one-to-one onto clusters.
//! 4. **Refinement** ([`refine_hierarchy`]): walking the hierarchy back
//!    from coarse to fine, macro-nodes are greedily moved between clusters
//!    whenever a pseudo-schedule-based score ([`score_partition`])
//!    improves. An accepted move is *committed* into the incremental move
//!    base (its speculation becomes the new ASAP fixpoint, its deltas
//!    update the census and the register estimate) instead of rebuilding
//!    it. A group whose scan found no move is skipped until the next
//!    accept, since the partition and the score it was scanned against
//!    have not changed; the next finer level inherits that mark for its
//!    groups that are whole macros of the level above.
//!
//! [`partition_loop_scratch`] bundles the whole pipeline (with
//! [`partition_loop`] as its one-shot form); [`refine_existing`] is the
//! "Refine Partition" box of the paper's Figure 2, used by the driver each
//! time the II is bumped. [`RefineScratch::coarsen_rounds`] and
//! [`RefineScratch::seed_moves`] count the coarsening rounds and the seed
//! refinement's accepted moves beside the scoring counters.
//!
//! # Example
//!
//! ```
//! use cvliw_ddg::{Ddg, OpKind};
//! use cvliw_machine::MachineConfig;
//! use cvliw_partition::partition_loop;
//!
//! let mut b = Ddg::builder();
//! let ld = b.add_node(OpKind::Load);
//! let m0 = b.add_node(OpKind::FpMul);
//! let m1 = b.add_node(OpKind::FpMul);
//! b.data(ld, m0).data(m0, m1);
//! let ddg = b.build()?;
//! let machine = MachineConfig::from_spec("2c1b2l64r")?;
//!
//! let part = partition_loop(&ddg, &machine, 1);
//! // A dependent chain should stay in one cluster: no communications.
//! assert_eq!(part.to_assignment().comm_count(&ddg), 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// The daemon compiles untrusted loops through this crate, so no
// `unwrap`/`expect` may be reachable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod coarsen;
#[cfg(any(test, feature = "testing"))]
mod matching;
mod partition;
mod refine;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
mod weights;

pub use coarsen::{coarsen, CoarseLevel, Hierarchy};
pub use partition::Partition;
pub use refine::{
    refine_existing, refine_hierarchy, score_partition, PartitionScore, RefineScratch,
};

use cvliw_ddg::Ddg;
use cvliw_machine::MachineConfig;
use cvliw_sched::LoopAnalysis;

/// One-shot [`partition_loop_scratch`]: computes the [`LoopAnalysis`] and a
/// fresh scratch internally, canonical seed.
#[must_use]
pub fn partition_loop(ddg: &Ddg, machine: &MachineConfig, ii: u32) -> Partition {
    partition_loop_scratch(
        ddg,
        machine,
        ii,
        &LoopAnalysis::new(ddg, machine),
        &mut RefineScratch::default(),
        0,
    )
}

/// Runs the full multilevel pipeline: weight, coarsen, seed, refine.
///
/// `ii` is the initiation interval the partition is being built for
/// (normally the loop's MII); capacities and pseudo-schedules are evaluated
/// at this II. The edge weights reuse the analysis's RecMII and SCC
/// decomposition, every pseudo-schedule reads its latency vector, and the
/// refinement walk runs allocation-free on `scratch`.
///
/// `variant` is the refinement perturbation index of best-of-N seed
/// racing: it rotates the target-cluster scan order inside every
/// refinement level, so ties in the greedy move selection break toward
/// different clusters and the walk explores a different trajectory
/// through the same score landscape. `variant == 0` is the canonical
/// order; any other variant still only ever accepts strictly
/// score-improving moves.
#[must_use]
pub fn partition_loop_scratch(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    analysis: &LoopAnalysis,
    scratch: &mut RefineScratch,
    variant: u32,
) -> Partition {
    if machine.clusters() == 1 {
        return Partition::single_cluster(ddg.node_count());
    }
    let mut hierarchy = std::mem::take(&mut scratch.hierarchy);
    coarsen(ddg, machine, ii, analysis, scratch, &mut hierarchy);
    let part = refine_hierarchy(ddg, machine, ii, &hierarchy, analysis, scratch, variant);
    scratch.hierarchy = hierarchy;
    part
}
