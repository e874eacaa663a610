//! **Instruction replication for clustered microarchitectures** — the core
//! algorithm of Aletà, Codina, González and Kaeli (MICRO-36, 2003),
//! implemented on top of the `cvliw` scheduling substrate.
//!
//! On a clustered VLIW, a value consumed in a cluster other than its
//! producer's must travel over a shared register bus; when the bus is
//! oversubscribed the initiation interval (II) of a software-pipelined loop
//! grows and performance drops. This crate removes communications by
//! **selectively recomputing values where they are needed**:
//!
//! 1. For every communicated value, compute its **replication subgraph**
//!    (Figure 4, one [`PlanRef`] per value in the engine's [`PlanArena`]):
//!    the minimum set of instructions to copy into the consuming clusters,
//!    stopping at other communicated values (already available everywhere)
//!    and at existing replicas.
//! 2. Anticipate the **removable instructions** (Figure 5,
//!    [`PlanRef::removable`]): instances that become useless once a
//!    communication disappears.
//! 3. **Weigh** each subgraph by the resource pressure it adds, shared
//!    replicas discounted, removable instructions credited
//!    ([`ReplicationEngine::weights`], §3.3).
//! 4. Greedily replicate the lightest subgraphs until the bus fits
//!    ([`ReplicationEngine`], §3.3–3.4) — never more than `extra_coms`
//!    of them.
//!
//! [`compile_loop`] wires this into the full Figure-2 driver (partition →
//! replicate → schedule, bumping the II on failure) and also provides the
//! paper's §5 alternatives: the schedule-length extension
//! ([`extend_for_length`]), the zero-bus-latency upper bound
//! ([`Mode::ZeroBusLatency`]) and macro-node replication
//! ([`macro_replicate`]).
//!
//! The worked example of the paper's Figures 3 and 6 ships as
//! [`paper_example`] and is reproduced number-for-number in this crate's
//! tests.
//!
//! # Example
//!
//! ```
//! use cvliw_ddg::{Ddg, OpKind};
//! use cvliw_machine::MachineConfig;
//! use cvliw_replicate::{compile_loop, CompileOptions};
//!
//! // One shared address computation feeding two fp chains.
//! let mut b = Ddg::builder();
//! let addr = b.add_node(OpKind::IntAdd);
//! b.data_dist(addr, addr, 1);
//! for _ in 0..2 {
//!     let ld = b.add_node(OpKind::Load);
//!     let mul = b.add_node(OpKind::FpMul);
//!     let st = b.add_node(OpKind::Store);
//!     b.data(addr, ld).data(ld, mul).data(mul, st).data(addr, st);
//! }
//! let ddg = b.build()?;
//! let machine = MachineConfig::from_spec("4c1b2l64r")?;
//!
//! let baseline = compile_loop(&ddg, &machine, &CompileOptions::baseline())?;
//! let replicated = compile_loop(&ddg, &machine, &CompileOptions::replicate())?;
//! assert!(replicated.stats.ii <= baseline.stats.ii);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// The daemon compiles untrusted loops through this crate, so no
// `unwrap`/`expect` may be reachable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod acyclic;
mod driver;
mod engine;
mod fingerprint;
mod liveness;
mod macro_rep;
pub mod paper_example;
mod plan;
mod sched_len;
#[cfg(any(test, feature = "testing"))]
pub mod testing;
mod value_clone;

pub use acyclic::{replicate_for_acyclic_length, schedule_acyclic, AcyclicError, AcyclicSchedule};
pub use cvliw_sched::LoopAnalysis;
pub use driver::{
    compile_loop, compile_loop_ctx, compile_stats, compile_stats_ctx, CancelToken, CauseCounts,
    CompileContext, CompileError, CompileOptions, CompileScratch, CompiledLoop, LoopStats, Mode,
    Stage, WorkCounts, MAX_REFINE_SEEDS,
};
pub use engine::{EngineScratch, ReplicationEngine, ReplicationOutcome, ReplicationStats};
pub use fingerprint::{fnv1a_64, loop_fingerprint};
pub use macro_rep::macro_replicate;
pub use plan::{PlanArena, PlanRef, ReplicationPlan};
pub use sched_len::extend_for_length;
pub use value_clone::{is_cloneable_value, uncloneable_coms, value_clone};
