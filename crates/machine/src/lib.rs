//! Clustered VLIW machine model for the MICRO-36 2003 instruction
//! replication paper.
//!
//! The paper evaluates a statically scheduled VLIW with a total issue width
//! of 12 (4 integer units, 4 floating-point units, 4 memory ports) whose
//! resources are split into 1, 2 or 4 **clusters**. Each cluster has a
//! private register file; values move between clusters over an
//! [`Interconnect`] — the paper's shared **register buses** with
//! multi-cycle latency, or a point-to-point ring / full crossbar.
//! Configurations are named `wcxbylzr`: `w` clusters, `x` buses, `y`
//! cycles of bus latency and `z` registers per cluster — e.g. `4c2b4l64r`
//! — with a topology suffix replacing the bus fields for point-to-point
//! fabrics, e.g. `4c-ring1l64r`.
//!
//! # Example
//!
//! ```
//! use cvliw_machine::MachineConfig;
//!
//! let m = MachineConfig::from_spec("4c2b4l64r")?;
//! assert_eq!(m.clusters(), 4);
//! assert_eq!(m.fu_count(cvliw_ddg::OpClass::Fp), 1); // 4 FP units / 4 clusters
//! assert_eq!(m.coms_capacity_per_ii(8), 4);          // floor(8/4) per bus × 2 buses
//! assert_eq!(m.spec(), "4c2b4l64r");
//!
//! let ring = MachineConfig::from_spec("4c-ring1l64r")?;
//! assert_eq!(ring.links(), 12);            // one directed link per ordered pair
//! assert_eq!(ring.transfer_latency(0, 2), 2); // two 1-cycle hops
//! # Ok::<(), cvliw_machine::SpecError>(())
//! ```

#![forbid(unsafe_code)]
// The daemon parses untrusted input through this crate, so no
// `unwrap`/`expect` may be reachable outside test code.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(missing_docs)]

mod config;
mod error;
mod interconnect;
mod latency;
mod presets;

pub use config::{FuCounts, MachineConfig};
pub use error::SpecError;
pub use interconnect::{Interconnect, PtpShape};
pub use latency::LatencyTable;
pub use presets::{
    fig10_specs, fig1_specs, fig8_specs, paper_specs, register_sweep_specs, topology_specs,
};
