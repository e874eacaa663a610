//! Cycle-level validation and performance accounting for clustered-VLIW
//! modulo schedules.
//!
//! The paper evaluates schedules analytically (`Texec = (N − 1 + SC)·II`
//! from profile data). This crate provides that accounting
//! ([`IpcAccumulator`], [`harmonic_mean`]) **and** a lockstep cycle
//! simulator ([`simulate`]) that executes a kernel with concrete values:
//! every operand must arrive on time — through a local (possibly
//! replicated) instance or over a bus copy — and must carry exactly the
//! value a reference execution of the original loop produces. A schedule
//! transformed by instruction replication therefore cannot silently change
//! program semantics without a test failing.
//!
//! # Example
//!
//! ```
//! use cvliw_ddg::{Ddg, OpKind};
//! use cvliw_machine::MachineConfig;
//! use cvliw_sched::{schedule, Assignment, LoopAnalysis, SchedScratch, ScheduleRequest};
//! use cvliw_sim::simulate;
//!
//! let mut b = Ddg::builder();
//! let ld = b.add_node(OpKind::Load);
//! let mul = b.add_node(OpKind::FpMul);
//! b.data(ld, mul);
//! let ddg = b.build()?;
//! let machine = MachineConfig::from_spec("2c1b2l64r")?;
//! let assignment = Assignment::from_partition(&[0, 1]);
//! let sched = schedule(
//!     &ScheduleRequest {
//!         ddg: &ddg, machine: &machine, assignment: &assignment,
//!         ii: 2, zero_bus_dep_latency: false,
//!     },
//!     &LoopAnalysis::new(&ddg, &machine),
//!     &mut SchedScratch::default(),
//! )?;
//!
//! let report = simulate(&ddg, &machine, &sched, 16)?;
//! assert_eq!(report.copies_executed, 16);
//! assert!(report.makespan <= report.texec_formula);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cycle;
mod ipc;
mod value;

pub use cycle::{simulate, SimError, SimReport};
pub use ipc::{harmonic_mean, IpcAccumulator};
pub use value::{apply, live_in_value, operand_values, reference_values, Value};
