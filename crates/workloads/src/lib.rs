//! Synthetic SPECfp95-like workloads for clustered-VLIW scheduling
//! research.
//!
//! The paper evaluates on 678 innermost loops from SPECfp95, modulo
//! scheduled and weighted by profile data (visit counts × trip counts).
//! Neither the benchmarks nor the Ictineo compiler that extracted the loops
//! are available, so this crate generates a deterministic, seeded stand-in
//! suite whose *structure* follows what the paper reports about each
//! program (see `DESIGN.md` for the substitution argument):
//!
//! * communication-bound programs (su2cor, tomcatv, swim) get wide,
//!   cross-coupled floating-point chains hanging off shared integer
//!   address computations — the paper's "integer instructions in the upper
//!   levels of the DDG that appear in multiple subgraphs";
//! * mgrid generates nearly decoupled chains, so a good partitioner needs
//!   almost no communications (Figure 8);
//! * applu runs its loops for ~4 iterations per visit (its II barely
//!   matters — Figure 9's discussion);
//! * fpppp has very large loop bodies.
//!
//! [`suite_with_salt`] returns all ten programs (678 loops, optionally
//! capped and re-seeded); [`program`] builds one;
//! [`kernels`] contains hand-written kernels (FIR, daxpy, dot product,
//! stencils) used by examples and tests.
//!
//! # Example
//!
//! ```
//! use cvliw_workloads::{program, suite_loop_count};
//!
//! let mgrid = program("mgrid").expect("known benchmark");
//! assert!(!mgrid.loops.is_empty());
//! assert_eq!(suite_loop_count(), 678);
//! // Deterministic: rebuilding gives the same graphs.
//! let again = program("mgrid").unwrap();
//! assert_eq!(mgrid.loops[0].ddg.node_count(), again.loops[0].ddg.node_count());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod generator;
pub mod kernels;
mod profile;
mod programs;

pub use generator::{generate_loop, GeneratorParams};
pub use profile::LoopProfile;
pub use programs::{
    program, program_names, program_subset, suite_loop_count, suite_with_salt, BenchmarkProgram,
    WorkloadLoop,
};
