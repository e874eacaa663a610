//! # cvliw — instruction replication for clustered VLIW microarchitectures
//!
//! A faithful, from-scratch Rust reproduction of *"Instruction Replication
//! for Clustered Microarchitectures"* (A. Aletà, J. M. Codina, A. González,
//! D. Kaeli — MICRO-36, 2003), together with every substrate the paper
//! depends on:
//!
//! * [`ddg`] — loop data-dependence graphs with loop-carried edges,
//!   strongly-connected-component and recurrence analysis;
//! * [`machine`] — the clustered VLIW machine model (`wcxbylzr`
//!   configurations, Table-1 functional-unit mix and latencies, register
//!   buses);
//! * [`sched`] — modulo scheduling: MII bounds, swing ordering, modulo
//!   reservation tables, copy insertion, register pressure, pseudo-schedules;
//! * [`partition`] — the multilevel DDG partitioner of the baseline
//!   scheduler (slack-weighted heavy-edge matching, pseudo-schedule guided
//!   refinement);
//! * [`replicate`] — **the paper's contribution**: replication subgraphs,
//!   removable instructions, the weighting heuristic, the selection loop and
//!   the full compilation driver (plus the §5 alternative algorithms);
//! * [`workloads`] — a seeded synthetic stand-in for the paper's 678
//!   SPECfp95 loops with per-program structure and profiles;
//! * [`sim`] — a cycle-level lockstep simulator that validates schedules
//!   functionally and reproduces the paper's `(N-1+SC)·II` timing model;
//! * [`ir`] — a textual loop format (parser + printer) and the `cvliw`
//!   command-line front end;
//! * [`unroll`] — loop unrolling, the code-size-hungry alternative the
//!   paper's related work compares against (reference \[22\]);
//! * [`exp`] — experiment orchestration: the §4 (workload × machine ×
//!   policy) grid, a deterministic parallel suite runner, and the
//!   JSON/CSV/Markdown report emitters behind `cvliw suite` and the
//!   regenerable `docs/RESULTS.md` results book;
//! * [`serve`] — compile-as-a-service: the JSONL protocol,
//!   content-addressed result cache and persistent worker pool behind
//!   `cvliw serve`, pinned byte-identical to one-shot compilation by a
//!   differential test layer.
//!
//! ## Quickstart
//!
//! ```
//! use cvliw::prelude::*;
//!
//! // A tiny loop: two coupled floating-point chains sharing loads.
//! let mut b = Ddg::builder();
//! let i = b.add_node(OpKind::IntAdd);     // induction variable
//! b.data_dist(i, i, 1);
//! let ld = b.add_node(OpKind::Load);
//! let mul = b.add_node(OpKind::FpMul);
//! let acc = b.add_node(OpKind::FpAdd);
//! let st = b.add_node(OpKind::Store);
//! b.data(i, ld).data(ld, mul).data(mul, acc).data(acc, st).data(i, st);
//! let ddg = b.build()?;
//!
//! let machine = MachineConfig::from_spec("4c1b2l64r")?;
//! let compiled = compile_loop(&ddg, &machine, &CompileOptions::replicate())?;
//! assert!(compiled.schedule.verify(&ddg, &machine).is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cvliw_ddg as ddg;
pub use cvliw_exp as exp;
pub use cvliw_ir as ir;
pub use cvliw_machine as machine;
pub use cvliw_partition as partition;
pub use cvliw_replicate as replicate;
pub use cvliw_sched as sched;
pub use cvliw_serve as serve;
pub use cvliw_sim as sim;
pub use cvliw_unroll as unroll;
pub use cvliw_workloads as workloads;

/// Convenient glob import of the most frequently used items.
pub mod prelude {
    pub use cvliw_ddg::{Ddg, DdgBuilder, DepKind, Edge, NodeId, OpClass, OpKind};
    pub use cvliw_ir::{parse_loop, parse_module, print_loop};
    pub use cvliw_machine::MachineConfig;
    pub use cvliw_partition::partition_loop;
    pub use cvliw_replicate::{compile_loop, CompileOptions, CompiledLoop, Mode};
    pub use cvliw_sched::{Assignment, ClusterSet, Schedule};
    pub use cvliw_sim::{simulate, IpcAccumulator};
    pub use cvliw_workloads::{BenchmarkProgram, WorkloadLoop};
}
