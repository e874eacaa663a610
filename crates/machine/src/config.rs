//! The clustered machine configuration.

use std::fmt;

use cvliw_ddg::{Ddg, Edge, OpClass, OpKind};

use crate::error::SpecError;
use crate::interconnect::{Interconnect, PtpShape};
use crate::latency::LatencyTable;

/// Functional units of each class available **per cluster**.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FuCounts {
    /// Integer units.
    pub int: u8,
    /// Floating-point units.
    pub fp: u8,
    /// Memory ports.
    pub mem: u8,
}

impl FuCounts {
    /// Units of a given class.
    #[must_use]
    pub fn of(self, class: OpClass) -> u8 {
        match class {
            OpClass::Int => self.int,
            OpClass::Fp => self.fp,
            OpClass::Mem => self.mem,
        }
    }

    /// Total issue slots per cluster.
    #[must_use]
    pub fn issue_width(self) -> u32 {
        u32::from(self.int) + u32::from(self.fp) + u32::from(self.mem)
    }
}

/// A clustered VLIW machine configuration.
///
/// Immutable once constructed; see [`MachineConfig::from_spec`] for the
/// `wcxbylzr` naming used throughout the paper and this workspace, and
/// [`Interconnect`] for the communication fabric joining the clusters.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    clusters: u8,
    interconnect: Interconnect,
    regs_per_cluster: u32,
    /// One entry per cluster. All entries are equal for the paper's
    /// homogeneous machines; [`MachineConfig::heterogeneous`] allows them
    /// to differ (§2.1 of the paper: "the proposed algorithm can be easily
    /// extended to deal with heterogeneous clusters").
    fu: Vec<FuCounts>,
    latencies: LatencyTable,
}

/// Total units of each class across the whole 12-issue machine of the paper.
const TOTAL_PER_CLASS: u8 = 4;

/// Cluster sets are 32-bit masks throughout the workspace.
const MAX_CLUSTERS: usize = 32;

impl MachineConfig {
    /// Builds a homogeneous shared-bus configuration from explicit parts.
    ///
    /// `fu` is the per-cluster unit mix, identical in every cluster. A
    /// machine with `buses == 0` cannot communicate between clusters at all
    /// (only meaningful together with `clusters == 1`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroField`] if `clusters`, `bus_latency` (with
    /// `buses > 0`) or `regs_per_cluster` is zero.
    pub fn new(
        clusters: u8,
        buses: u8,
        bus_latency: u32,
        regs_per_cluster: u32,
        fu: FuCounts,
        latencies: LatencyTable,
    ) -> Result<Self, SpecError> {
        if clusters == 0 {
            return Err(SpecError::zero_field("clusters"));
        }
        Self::heterogeneous(
            vec![fu; clusters as usize],
            buses,
            bus_latency,
            regs_per_cluster,
            latencies,
        )
    }

    /// Builds a shared-bus configuration with a **different unit mix per
    /// cluster** — the §2.1 extension. The number of clusters is
    /// `cluster_fu.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroField`] if `cluster_fu` is empty,
    /// `regs_per_cluster` is zero, or `bus_latency` is zero while
    /// `buses > 0`; [`SpecError::TooManyClusters`] beyond 32 clusters (the
    /// width of the cluster bit-masks used throughout the workspace).
    ///
    /// # Example
    ///
    /// ```
    /// use cvliw_machine::{FuCounts, LatencyTable, MachineConfig};
    ///
    /// // An fp-heavy cluster next to an int/mem "address engine".
    /// let m = MachineConfig::heterogeneous(
    ///     vec![
    ///         FuCounts { int: 0, fp: 3, mem: 1 },
    ///         FuCounts { int: 3, fp: 0, mem: 2 },
    ///     ],
    ///     1,
    ///     2,
    ///     64,
    ///     LatencyTable::PAPER,
    /// )?;
    /// assert!(m.is_heterogeneous());
    /// assert_eq!(m.issue_width(), 9);
    /// # Ok::<(), cvliw_machine::SpecError>(())
    /// ```
    pub fn heterogeneous(
        cluster_fu: Vec<FuCounts>,
        buses: u8,
        bus_latency: u32,
        regs_per_cluster: u32,
        latencies: LatencyTable,
    ) -> Result<Self, SpecError> {
        Self::clustered(
            cluster_fu,
            Interconnect::SharedBus {
                buses,
                latency: bus_latency,
                pipelined: false,
            },
            regs_per_cluster,
            latencies,
        )
    }

    /// The general constructor: clusters joined by an explicit
    /// [`Interconnect`]. Every other constructor funnels through it.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::ZeroField`] if `cluster_fu` is empty,
    /// `regs_per_cluster` is zero, a shared bus has `buses > 0` with zero
    /// latency, or a point-to-point fabric has zero hop latency;
    /// [`SpecError::TooManyClusters`] beyond 32 clusters.
    ///
    /// # Example
    ///
    /// ```
    /// use cvliw_machine::{FuCounts, Interconnect, LatencyTable, MachineConfig, PtpShape};
    ///
    /// let fu = FuCounts { int: 1, fp: 1, mem: 1 };
    /// let m = MachineConfig::clustered(
    ///     vec![fu; 4],
    ///     Interconnect::PointToPoint { shape: PtpShape::Ring, hop_latency: 1 },
    ///     64,
    ///     LatencyTable::PAPER,
    /// )?;
    /// assert_eq!(m.links(), 12); // one directed link per ordered pair
    /// assert_eq!(m.transfer_latency(0, 2), 2); // two hops around the ring
    /// # Ok::<(), cvliw_machine::SpecError>(())
    /// ```
    pub fn clustered(
        cluster_fu: Vec<FuCounts>,
        interconnect: Interconnect,
        regs_per_cluster: u32,
        latencies: LatencyTable,
    ) -> Result<Self, SpecError> {
        if cluster_fu.is_empty() {
            return Err(SpecError::zero_field("clusters"));
        }
        if cluster_fu.len() > MAX_CLUSTERS {
            return Err(SpecError::TooManyClusters {
                clusters: cluster_fu.len(),
            });
        }
        if regs_per_cluster == 0 {
            return Err(SpecError::zero_field("registers"));
        }
        match interconnect {
            Interconnect::SharedBus { buses, latency, .. } if buses > 0 && latency == 0 => {
                return Err(SpecError::zero_field("bus latency"));
            }
            Interconnect::PointToPoint { hop_latency: 0, .. } => {
                return Err(SpecError::zero_field("hop latency"));
            }
            _ => {}
        }
        Ok(MachineConfig {
            clusters: cluster_fu.len() as u8,
            interconnect,
            regs_per_cluster,
            fu: cluster_fu,
            latencies,
        })
    }

    /// Returns the same machine with **pipelined** register buses: a bus
    /// accepts a new transfer every cycle while each transfer still takes
    /// [`MachineConfig::bus_latency`] cycles to deliver. The paper's
    /// machines are unpipelined (`bus_coms = ⌊II/bus_lat⌋·nof_buses`, §3);
    /// this knob exists for the `ablation_bus_model` experiment. A no-op on
    /// point-to-point fabrics, whose links are always unpipelined.
    ///
    /// # Example
    ///
    /// ```
    /// use cvliw_machine::MachineConfig;
    /// let m = MachineConfig::from_spec("4c1b2l64r")?.with_pipelined_buses();
    /// assert!(m.pipelined_buses());
    /// assert_eq!(m.coms_capacity_per_ii(4), 4); // one per cycle, not ⌊4/2⌋
    /// # Ok::<(), cvliw_machine::SpecError>(())
    /// ```
    #[must_use]
    pub fn with_pipelined_buses(mut self) -> Self {
        if let Interconnect::SharedBus { pipelined, .. } = &mut self.interconnect {
            *pipelined = true;
        }
        self
    }

    /// Whether buses accept a new transfer every cycle (always `false` on
    /// point-to-point fabrics).
    #[must_use]
    pub fn pipelined_buses(&self) -> bool {
        matches!(
            self.interconnect,
            Interconnect::SharedBus {
                pipelined: true,
                ..
            }
        )
    }

    /// Cycles a transfer occupies a shared bus: 1 when pipelined, the full
    /// [`MachineConfig::bus_latency`] otherwise. On point-to-point fabrics
    /// this is the single-hop occupancy; pair-dependent occupancies come
    /// from [`MachineConfig::link_occupancy`].
    #[must_use]
    pub fn bus_occupancy(&self) -> u32 {
        match self.interconnect {
            Interconnect::SharedBus {
                latency, pipelined, ..
            } => {
                if pipelined {
                    1
                } else {
                    latency
                }
            }
            Interconnect::PointToPoint { hop_latency, .. } => hop_latency,
        }
    }

    /// Parses a `wcxbylzr` spec such as `"4c2b4l64r"`: `w` clusters, `x`
    /// buses, `y` cycles of bus latency, `z` registers per cluster. The
    /// paper's 12-issue unit pool (4 INT, 4 FP, 4 MEM) is divided evenly
    /// among clusters and Table-1 latencies are used.
    ///
    /// The bus fields may be replaced by a **topology suffix** naming a
    /// point-to-point fabric instead: `4c-ring1l64r` is four clusters on a
    /// bidirectional ring with 1-cycle hops, `4c-xbar1l64r` a full crossbar
    /// with 1-cycle links.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] for syntax errors,
    /// [`SpecError::UnevenSplit`] if `w` does not divide 4, and
    /// [`SpecError::ZeroField`] (carrying the spec and the offending span)
    /// for zero fields.
    ///
    /// # Example
    ///
    /// ```
    /// use cvliw_machine::MachineConfig;
    /// let m = MachineConfig::from_spec("2c1b2l64r")?;
    /// assert_eq!((m.clusters(), m.buses(), m.bus_latency(), m.regs_per_cluster()),
    ///            (2, 1, 2, 64));
    /// let r = MachineConfig::from_spec("4c-ring1l64r")?;
    /// assert_eq!(r.links(), 12);
    /// assert_eq!(r.spec(), "4c-ring1l64r");
    /// # Ok::<(), cvliw_machine::SpecError>(())
    /// ```
    pub fn from_spec(spec: &str) -> Result<Self, SpecError> {
        let mut p = SpecParser::new(spec);
        let (w, w_span) = p.number('c')?;
        let clusters =
            u8::try_from(w).map_err(|_| p.malformed("cluster count does not fit in 8 bits"))?;
        if clusters == 0 {
            return Err(SpecError::zero_field_in("clusters", spec, w_span));
        }
        if TOTAL_PER_CLASS % clusters != 0 {
            return Err(SpecError::UnevenSplit { clusters });
        }

        let interconnect = if p.peek_is('-') {
            let shape = p.topology_name()?;
            let (y, y_span) = p.number('l')?;
            if y == 0 {
                return Err(SpecError::zero_field_in("hop latency", spec, y_span));
            }
            Interconnect::PointToPoint {
                shape,
                hop_latency: y,
            }
        } else {
            let (x, _) = p.number('b')?;
            let buses =
                u8::try_from(x).map_err(|_| p.malformed("bus count does not fit in 8 bits"))?;
            let (y, y_span) = p.number('l')?;
            if buses > 0 && y == 0 {
                return Err(SpecError::zero_field_in("bus latency", spec, y_span));
            }
            Interconnect::SharedBus {
                buses,
                latency: y,
                pipelined: false,
            }
        };

        let (z, z_span) = p.number('r')?;
        if z == 0 {
            return Err(SpecError::zero_field_in("registers", spec, z_span));
        }
        p.finish()?;

        let per = TOTAL_PER_CLASS / clusters;
        MachineConfig::clustered(
            vec![
                FuCounts {
                    int: per,
                    fp: per,
                    mem: per,
                };
                clusters as usize
            ],
            interconnect,
            z,
            LatencyTable::PAPER,
        )
    }

    /// Parses either a plain `wcxbylzr` / topology spec, the word
    /// `unified`, or the extended heterogeneous form
    /// `het:<int>.<fp>.<mem>[+<int>.<fp>.<mem>...]:<x>b<y>l<z>r` — one
    /// `int.fp.mem` triple per cluster.
    ///
    /// # Errors
    ///
    /// Everything [`MachineConfig::from_spec`] and
    /// [`MachineConfig::heterogeneous`] reject, with
    /// [`SpecError::Malformed`] for syntax errors in the extended form.
    ///
    /// # Example
    ///
    /// ```
    /// use cvliw_machine::MachineConfig;
    ///
    /// // An fp cluster and an int-heavy address engine, one 2-cycle bus.
    /// let m = MachineConfig::from_extended_spec("het:0.3.1+3.0.2:1b2l64r")?;
    /// assert!(m.is_heterogeneous());
    /// assert_eq!(m.clusters(), 2);
    /// assert_eq!(m.buses(), 1);
    ///
    /// // Plain specs still work.
    /// let p = MachineConfig::from_extended_spec("4c2b4l64r")?;
    /// assert_eq!(p.clusters(), 4);
    /// # Ok::<(), cvliw_machine::SpecError>(())
    /// ```
    pub fn from_extended_spec(spec: &str) -> Result<Self, SpecError> {
        if spec == "unified" {
            return Ok(MachineConfig::unified(256));
        }
        let Some(rest) = spec.strip_prefix("het:") else {
            return MachineConfig::from_spec(spec);
        };
        let malformed = |detail: &str| SpecError::Malformed {
            spec: spec.to_string(),
            detail: detail.to_string(),
        };
        let (mix, tail) = rest
            .split_once(':')
            .ok_or_else(|| malformed("missing `:` between unit mix and bus fields"))?;
        let mut cluster_fu = Vec::new();
        for triple in mix.split('+') {
            let mut parts = triple.split('.');
            let mut next = || -> Result<u8, SpecError> {
                parts
                    .next()
                    .ok_or_else(|| malformed("unit mix needs int.fp.mem triples"))?
                    .parse()
                    .map_err(|_| malformed("unit counts must be small numbers"))
            };
            let fu = FuCounts {
                int: next()?,
                fp: next()?,
                mem: next()?,
            };
            if parts.next().is_some() {
                return Err(malformed("unit mix triple has more than three parts"));
            }
            cluster_fu.push(fu);
        }
        // The tail reuses the bus/latency/register part of the plain
        // grammar: <x>b<y>l<z>r.
        let mut p = SpecParser::new_at(spec, spec.len() - tail.len());
        let (buses, _) = p.number('b')?;
        let (lat, _) = p.number('l')?;
        let (regs, _) = p.number('r')?;
        p.finish()?;
        MachineConfig::heterogeneous(
            cluster_fu,
            u8::try_from(buses).map_err(|_| malformed("bus count does not fit in 8 bits"))?,
            lat,
            regs,
            LatencyTable::PAPER,
        )
    }

    /// The unified (non-clustered) machine of Figure 8: all 12 issue slots
    /// in a single cluster, no buses, `regs` registers (a `regs` of zero is
    /// taken as one, the fewest any machine may have).
    #[must_use]
    pub fn unified(regs: u32) -> Self {
        // What `MachineConfig::new(1, 0, 1, regs, ..)` builds, without its
        // fallible checks: one cluster, no buses, at least one register.
        MachineConfig {
            clusters: 1,
            interconnect: Interconnect::SharedBus {
                buses: 0,
                latency: 1,
                pipelined: false,
            },
            regs_per_cluster: regs.max(1),
            fu: vec![FuCounts {
                int: TOTAL_PER_CLASS,
                fp: TOTAL_PER_CLASS,
                mem: TOTAL_PER_CLASS,
            }],
            latencies: LatencyTable::PAPER,
        }
    }

    /// The spec name of this configuration (inverse of
    /// [`MachineConfig::from_spec`] for evenly split machines):
    /// `wcxbylzr` for shared buses, `wc-<topo><y>l<z>r` for point-to-point
    /// fabrics. Heterogeneous machines carry a `+het` suffix since no
    /// plain spec can reconstruct them.
    #[must_use]
    pub fn spec(&self) -> String {
        let het = if self.is_heterogeneous() { "+het" } else { "" };
        format!(
            "{}c{}{}r{het}",
            self.clusters, self.interconnect, self.regs_per_cluster
        )
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> u8 {
        self.clusters
    }

    /// Cluster indices `0..clusters`.
    pub fn cluster_ids(&self) -> impl ExactSizeIterator<Item = u8> {
        0..self.clusters
    }

    /// The communication fabric joining the clusters.
    #[must_use]
    pub fn interconnect(&self) -> Interconnect {
        self.interconnect
    }

    /// Number of inter-cluster register buses (0 on point-to-point
    /// fabrics, which have [`MachineConfig::links`] instead).
    #[must_use]
    pub fn buses(&self) -> u8 {
        match self.interconnect {
            Interconnect::SharedBus { buses, .. } => buses,
            Interconnect::PointToPoint { .. } => 0,
        }
    }

    /// Latency, in cycles, of one shared-bus transfer — or of a single hop
    /// on point-to-point fabrics. Pair-dependent latencies come from
    /// [`MachineConfig::transfer_latency`].
    #[must_use]
    pub fn bus_latency(&self) -> u32 {
        match self.interconnect {
            Interconnect::SharedBus { latency, .. } => latency,
            Interconnect::PointToPoint { hop_latency, .. } => hop_latency,
        }
    }

    /// Number of link resources the interconnect provides (buses on a
    /// shared-bus fabric, one directed link per ordered cluster pair
    /// otherwise). A machine with `links() == 0` cannot communicate.
    #[must_use]
    pub fn links(&self) -> u32 {
        self.interconnect.links(self.clusters)
    }

    /// Delivery latency of a transfer from cluster `src` to cluster `dst`.
    #[must_use]
    pub fn transfer_latency(&self, src: u8, dst: u8) -> u32 {
        self.interconnect.latency_between(self.clusters, src, dst)
    }

    /// Cycles a `src → dst` transfer occupies its link.
    #[must_use]
    pub fn link_occupancy(&self, src: u8, dst: u8) -> u32 {
        self.interconnect.occupancy_between(self.clusters, src, dst)
    }

    /// Index of the directed link carrying `src → dst` transfers on a
    /// point-to-point fabric (see [`Interconnect::link_of`]).
    #[must_use]
    pub fn link_of(&self, src: u8, dst: u8) -> u32 {
        self.interconnect.link_of(self.clusters, src, dst)
    }

    /// The transfer latency when it is the same for every cluster pair
    /// (`None` only on rings with diameter > 1).
    #[must_use]
    pub fn uniform_transfer_latency(&self) -> Option<u32> {
        self.interconnect.uniform_latency(self.clusters)
    }

    /// The largest transfer latency any cluster pair can pay.
    #[must_use]
    pub fn max_transfer_latency(&self) -> u32 {
        self.interconnect.max_latency(self.clusters)
    }

    /// Registers per cluster.
    #[must_use]
    pub fn regs_per_cluster(&self) -> u32 {
        self.regs_per_cluster
    }

    /// The functional-unit mix of cluster 0 (the mix of *every* cluster on
    /// homogeneous machines; use [`MachineConfig::fu_counts_in`] when the
    /// machine may be heterogeneous).
    #[must_use]
    pub fn fu_counts(&self) -> FuCounts {
        self.fu[0]
    }

    /// The functional-unit mix of one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn fu_counts_in(&self, cluster: u8) -> FuCounts {
        self.fu[cluster as usize]
    }

    /// Functional units of `class` in cluster 0 (every cluster, on
    /// homogeneous machines; use [`MachineConfig::fu_count_in`] when the
    /// machine may be heterogeneous).
    #[must_use]
    pub fn fu_count(&self, class: OpClass) -> u8 {
        self.fu[0].of(class)
    }

    /// Functional units of `class` in one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn fu_count_in(&self, cluster: u8, class: OpClass) -> u8 {
        self.fu[cluster as usize].of(class)
    }

    /// The largest per-cluster count of `class` across all clusters (used
    /// for capacity pre-checks that only need *some* cluster to fit).
    #[must_use]
    pub fn max_fu_count(&self, class: OpClass) -> u8 {
        self.fu.iter().map(|f| f.of(class)).max().unwrap_or(0)
    }

    /// Whether any two clusters differ in their unit mix.
    #[must_use]
    pub fn is_heterogeneous(&self) -> bool {
        self.fu.iter().any(|f| *f != self.fu[0])
    }

    /// Functional units of `class` across the whole machine.
    #[must_use]
    pub fn total_fu(&self, class: OpClass) -> u32 {
        self.fu.iter().map(|f| u32::from(f.of(class))).sum()
    }

    /// Total issue width of the machine.
    #[must_use]
    pub fn issue_width(&self) -> u32 {
        self.fu.iter().map(|f| f.issue_width()).sum()
    }

    /// Whether the machine has more than one cluster.
    #[must_use]
    pub fn is_clustered(&self) -> bool {
        self.clusters > 1
    }

    /// The latency table in effect.
    #[must_use]
    pub fn latencies(&self) -> &LatencyTable {
        &self.latencies
    }

    /// Latency of one operation.
    #[must_use]
    pub fn latency(&self, kind: OpKind) -> u32 {
        self.latencies.latency(kind)
    }

    /// Edge-latency closure for the analyses in [`cvliw_ddg`]: the latency
    /// of a dependence is the latency of its producing operation.
    pub fn edge_latency<'a>(&'a self, ddg: &'a Ddg) -> impl Fn(&Edge) -> u32 + 'a {
        move |e: &Edge| self.latency(ddg.kind(e.src))
    }

    /// Aggregate number of communications schedulable in one initiation
    /// interval: `floor(II / bus_lat) · nof_buses` on the paper's shared
    /// buses (§3), the sum of per-link slots on point-to-point fabrics
    /// (see [`Interconnect::coms_capacity_per_ii`]).
    #[must_use]
    pub fn coms_capacity_per_ii(&self, ii: u32) -> u32 {
        self.interconnect.coms_capacity_per_ii(self.clusters, ii)
    }

    /// The smallest initiation interval whose aggregate link bandwidth fits
    /// `ncoms` communications (the paper's `IIpart`, generalized to every
    /// topology), or `None` if the machine has no links and `ncoms > 0`.
    #[must_use]
    pub fn min_ii_for_coms(&self, ncoms: u32) -> Option<u32> {
        self.interconnect.min_ii_for_coms(self.clusters, ncoms)
    }

    /// The driver's failure-driven II-skip bound (see
    /// [`Interconnect::closed_form_min_ii_for_coms`]): the exact
    /// bandwidth-feasibility inverse on shared buses, `0` ("never skip")
    /// on fabrics where the closed form is not the binding constraint.
    #[must_use]
    pub fn closed_form_min_ii_for_coms(&self, ncoms: u32) -> u32 {
        self.interconnect
            .closed_form_min_ii_for_coms(self.clusters, ncoms)
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec())
    }
}

/// A tiny cursor over a spec string that parses `<number><marker>` fields
/// while tracking byte spans for error reporting.
struct SpecParser<'a> {
    spec: &'a str,
    pos: usize,
}

impl<'a> SpecParser<'a> {
    fn new(spec: &'a str) -> Self {
        SpecParser { spec, pos: 0 }
    }

    /// A cursor starting mid-string (the `het:` tail reuses the grammar).
    fn new_at(spec: &'a str, pos: usize) -> Self {
        SpecParser { spec, pos }
    }

    fn malformed(&self, detail: &str) -> SpecError {
        SpecError::Malformed {
            spec: self.spec.to_string(),
            detail: detail.to_string(),
        }
    }

    fn rest(&self) -> &'a str {
        &self.spec[self.pos..]
    }

    fn peek_is(&self, c: char) -> bool {
        self.rest().starts_with(c)
    }

    /// Parses a decimal number terminated by `marker`, returning the value
    /// and the number's byte span in the spec.
    fn number(&mut self, marker: char) -> Result<(u32, (usize, usize)), SpecError> {
        let rest = self.rest();
        let end = rest
            .find(marker)
            .ok_or_else(|| self.malformed(&format!("missing `{marker}` field")))?;
        let start = self.pos;
        let num = &rest[..end];
        let value = num
            .parse()
            .map_err(|_| self.malformed(&format!("`{num}` before `{marker}` is not a number")))?;
        self.pos += end + marker.len_utf8();
        Ok((value, (start, start + end)))
    }

    /// Parses a `-<name>` topology suffix after the cluster field.
    fn topology_name(&mut self) -> Result<PtpShape, SpecError> {
        debug_assert!(self.peek_is('-'));
        self.pos += 1;
        let rest = self.rest();
        let len = rest.chars().take_while(char::is_ascii_alphabetic).count();
        let name = &rest[..len];
        let shape = match name {
            "ring" => PtpShape::Ring,
            "xbar" => PtpShape::Crossbar,
            _ => {
                return Err(self.malformed(&format!(
                    "unknown topology `{name}` (expected ring or xbar)"
                )))
            }
        };
        self.pos += len;
        Ok(shape)
    }

    fn finish(&self) -> Result<(), SpecError> {
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(self.malformed(&format!("trailing `{}` after the spec", self.rest())))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_paper_specs() {
        for spec in [
            "2c1b2l64r",
            "2c2b4l64r",
            "4c1b2l64r",
            "4c2b4l64r",
            "4c2b2l64r",
            "4c4b4l64r",
        ] {
            let m = MachineConfig::from_spec(spec).unwrap();
            assert_eq!(m.spec(), spec);
            assert_eq!(m.issue_width(), 12);
            assert!(m.interconnect().is_shared_bus());
        }
    }

    #[test]
    fn parses_topology_specs() {
        let r = MachineConfig::from_spec("4c-ring1l64r").unwrap();
        assert_eq!(r.spec(), "4c-ring1l64r");
        assert_eq!(r.clusters(), 4);
        assert_eq!(r.links(), 12);
        assert_eq!(r.buses(), 0, "no shared buses on a ring");
        assert_eq!(r.transfer_latency(0, 2), 2);
        assert_eq!(r.transfer_latency(0, 3), 1);
        assert_eq!(r.regs_per_cluster(), 64);

        let x = MachineConfig::from_spec("2c-xbar2l32r").unwrap();
        assert_eq!(x.spec(), "2c-xbar2l32r");
        assert_eq!(x.links(), 2);
        assert_eq!(x.transfer_latency(0, 1), 2);
        assert_eq!(x.uniform_transfer_latency(), Some(2));
    }

    #[test]
    fn two_cluster_split_matches_table_1() {
        let m = MachineConfig::from_spec("2c1b2l64r").unwrap();
        assert_eq!(
            m.fu_counts(),
            FuCounts {
                int: 2,
                fp: 2,
                mem: 2
            }
        );
        assert_eq!(m.total_fu(OpClass::Int), 4);
    }

    #[test]
    fn four_cluster_split_matches_table_1() {
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        assert_eq!(
            m.fu_counts(),
            FuCounts {
                int: 1,
                fp: 1,
                mem: 1
            }
        );
        assert_eq!(m.total_fu(OpClass::Mem), 4);
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "4c",
            "c1b2l64r",
            "4c2b4l64",
            "4x2b4l64r",
            "4c2b4l64r1",
            "ac2b4l64r",
            "4c-mesh1l64r",
            "4c-ring1l64",
            "4c-ringxl64r",
        ] {
            assert!(
                matches!(
                    MachineConfig::from_spec(bad),
                    Err(SpecError::Malformed { .. })
                ),
                "{bad} should be malformed"
            );
        }
    }

    #[test]
    fn malformed_errors_name_the_missing_piece() {
        let e = MachineConfig::from_spec("4c2b4l64").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("4c2b4l64"), "{msg}");
        assert!(msg.contains("`r`"), "{msg}");
        let e = MachineConfig::from_spec("4c-mesh1l64r").unwrap_err();
        assert!(e.to_string().contains("mesh"), "{e}");
    }

    #[test]
    fn rejects_uneven_split() {
        assert_eq!(
            MachineConfig::from_spec("3c1b2l64r").unwrap_err(),
            SpecError::UnevenSplit { clusters: 3 }
        );
        assert!(matches!(
            MachineConfig::from_spec("3c-ring1l64r").unwrap_err(),
            SpecError::UnevenSplit { clusters: 3 }
        ));
    }

    #[test]
    fn rejects_zero_fields_with_spec_and_span() {
        let e = MachineConfig::from_spec("0c1b2l64r").unwrap_err();
        assert!(
            matches!(
                &e,
                SpecError::ZeroField {
                    field: "clusters",
                    spec: Some(s),
                    span: Some((0, 1)),
                } if s == "0c1b2l64r"
            ),
            "{e:?}"
        );
        let e = MachineConfig::from_spec("4c1b0l64r").unwrap_err();
        assert!(
            matches!(
                &e,
                SpecError::ZeroField {
                    field: "bus latency",
                    spec: Some(_),
                    span: Some((4, 5)),
                }
            ),
            "{e:?}"
        );
        assert!(matches!(
            MachineConfig::from_spec("4c1b2l0r"),
            Err(SpecError::ZeroField {
                field: "registers",
                ..
            })
        ));
        let e = MachineConfig::from_spec("4c-ring0l64r").unwrap_err();
        assert!(
            matches!(
                &e,
                SpecError::ZeroField {
                    field: "hop latency",
                    span: Some((7, 8)),
                    ..
                }
            ),
            "{e:?}"
        );
    }

    #[test]
    fn zero_field_messages_point_into_the_spec() {
        let e = MachineConfig::from_spec("4c1b0l64r").unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("bus latency"), "{msg}");
        assert!(msg.contains("4c1b0l64r"), "{msg}");
        assert!(msg.contains("4..5"), "{msg}");
    }

    #[test]
    fn unified_machine() {
        let m = MachineConfig::unified(256);
        assert!(!m.is_clustered());
        assert_eq!(m.issue_width(), 12);
        assert_eq!(m.buses(), 0);
        assert_eq!(m.links(), 0);
        assert_eq!(m.coms_capacity_per_ii(100), 0);
        assert_eq!(m.min_ii_for_coms(0), Some(0));
        assert_eq!(m.min_ii_for_coms(1), None);
    }

    #[test]
    fn bus_capacity_formula() {
        let m = MachineConfig::from_spec("4c2b4l64r").unwrap();
        // floor(II/4) * 2 buses
        assert_eq!(m.coms_capacity_per_ii(3), 0);
        assert_eq!(m.coms_capacity_per_ii(4), 2);
        assert_eq!(m.coms_capacity_per_ii(7), 2);
        assert_eq!(m.coms_capacity_per_ii(8), 4);
    }

    #[test]
    fn min_ii_for_coms_is_inverse_of_capacity() {
        for spec in [
            "2c1b2l64r",
            "4c2b4l64r",
            "4c4b4l64r",
            "4c-ring1l64r",
            "4c-ring2l64r",
            "4c-xbar1l64r",
            "2c-xbar2l64r",
        ] {
            let m = MachineConfig::from_spec(spec).unwrap();
            for ncoms in 0..40u32 {
                let ii = m.min_ii_for_coms(ncoms).unwrap();
                assert!(m.coms_capacity_per_ii(ii.max(1)) >= ncoms || ii == 0 && ncoms == 0);
                if ii > 0 {
                    assert!(
                        m.coms_capacity_per_ii(ii - 1) < ncoms,
                        "{spec} ncoms={ncoms}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_skip_bound_matches_shared_bus_and_disarms_off_bus() {
        let m = MachineConfig::from_spec("4c2b4l64r").unwrap();
        for n in 0..20 {
            assert_eq!(
                m.closed_form_min_ii_for_coms(n),
                m.min_ii_for_coms(n).unwrap()
            );
        }
        assert_eq!(
            MachineConfig::unified(64).closed_form_min_ii_for_coms(3),
            u32::MAX
        );
        for spec in ["4c-ring1l64r", "4c-xbar1l64r"] {
            let t = MachineConfig::from_spec(spec).unwrap();
            assert_eq!(t.closed_form_min_ii_for_coms(50), 0, "{spec} must not skip");
        }
    }

    #[test]
    fn edge_latency_closure_uses_producer() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let mul = b.add_node(OpKind::FpMul);
        b.data(ld, mul);
        let ddg = b.build().unwrap();
        let m = MachineConfig::from_spec("2c1b2l64r").unwrap();
        let lat = m.edge_latency(&ddg);
        let e = ddg.edges().next().unwrap();
        assert_eq!(lat(e), 2); // load latency
    }

    #[test]
    fn display_is_spec() {
        let m = MachineConfig::from_spec("4c4b4l64r").unwrap();
        assert_eq!(m.to_string(), "4c4b4l64r");
        let r = MachineConfig::from_spec("4c-xbar1l64r").unwrap();
        assert_eq!(r.to_string(), "4c-xbar1l64r");
    }

    fn fp_and_int_clusters() -> MachineConfig {
        MachineConfig::heterogeneous(
            vec![
                FuCounts {
                    int: 0,
                    fp: 3,
                    mem: 1,
                },
                FuCounts {
                    int: 3,
                    fp: 0,
                    mem: 2,
                },
            ],
            1,
            2,
            64,
            LatencyTable::PAPER,
        )
        .unwrap()
    }

    #[test]
    fn heterogeneous_counts_are_per_cluster() {
        let m = fp_and_int_clusters();
        assert!(m.is_heterogeneous());
        assert_eq!(m.clusters(), 2);
        assert_eq!(m.fu_count_in(0, OpClass::Fp), 3);
        assert_eq!(m.fu_count_in(1, OpClass::Fp), 0);
        assert_eq!(m.fu_count_in(0, OpClass::Int), 0);
        assert_eq!(m.fu_count_in(1, OpClass::Int), 3);
        assert_eq!(m.total_fu(OpClass::Mem), 3);
        assert_eq!(m.max_fu_count(OpClass::Fp), 3);
        assert_eq!(m.max_fu_count(OpClass::Int), 3);
        assert_eq!(m.issue_width(), 9);
    }

    #[test]
    fn heterogeneous_spec_is_marked() {
        let m = fp_and_int_clusters();
        assert_eq!(m.spec(), "2c1b2l64r+het");
    }

    #[test]
    fn homogeneous_machines_report_uniform_counts() {
        let m = MachineConfig::from_spec("2c1b2l64r").unwrap();
        assert!(!m.is_heterogeneous());
        for c in m.cluster_ids() {
            for class in OpClass::ALL {
                assert_eq!(m.fu_count_in(c, class), m.fu_count(class));
            }
        }
        assert_eq!(m.fu_counts_in(1), m.fu_counts());
    }

    #[test]
    fn pipelined_buses_change_occupancy_not_latency() {
        let m = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let p = m.clone().with_pipelined_buses();
        assert!(!m.pipelined_buses() && p.pipelined_buses());
        assert_eq!(m.bus_occupancy(), 2);
        assert_eq!(p.bus_occupancy(), 1);
        assert_eq!(
            p.bus_latency(),
            m.bus_latency(),
            "delivery latency unchanged"
        );
        // Capacity: floor(II/occ)·buses.
        assert_eq!(m.coms_capacity_per_ii(5), 2);
        assert_eq!(p.coms_capacity_per_ii(5), 5);
        // And the inverse stays consistent.
        for n in 0..20 {
            let ii = p.min_ii_for_coms(n).unwrap();
            assert!(p.coms_capacity_per_ii(ii.max(1)) >= n || n == 0);
        }
    }

    #[test]
    fn pipelining_is_a_no_op_on_point_to_point_fabrics() {
        let r = MachineConfig::from_spec("4c-ring2l64r").unwrap();
        let piped = r.clone().with_pipelined_buses();
        assert_eq!(r, piped);
        assert!(!piped.pipelined_buses());
    }

    #[test]
    fn extended_spec_parses_het_machines() {
        let m = MachineConfig::from_extended_spec("het:0.3.1+3.0.2:1b2l64r").unwrap();
        assert!(m.is_heterogeneous());
        assert_eq!(
            m.fu_counts_in(0),
            FuCounts {
                int: 0,
                fp: 3,
                mem: 1
            }
        );
        assert_eq!(
            m.fu_counts_in(1),
            FuCounts {
                int: 3,
                fp: 0,
                mem: 2
            }
        );
        assert_eq!(
            (m.buses(), m.bus_latency(), m.regs_per_cluster()),
            (1, 2, 64)
        );
    }

    #[test]
    fn extended_spec_accepts_plain_topology_and_unified() {
        assert_eq!(
            MachineConfig::from_extended_spec("4c2b4l64r").unwrap(),
            MachineConfig::from_spec("4c2b4l64r").unwrap()
        );
        assert_eq!(
            MachineConfig::from_extended_spec("4c-ring1l64r").unwrap(),
            MachineConfig::from_spec("4c-ring1l64r").unwrap()
        );
        assert_eq!(
            MachineConfig::from_extended_spec("unified").unwrap(),
            MachineConfig::unified(256)
        );
    }

    #[test]
    fn extended_spec_rejects_garbage() {
        for bad in [
            "het:",
            "het:1.1.1",           // missing tail
            "het:1.1:1b2l64r",     // two-part triple
            "het:1.1.1.1:1b2l64r", // four-part triple
            "het:a.b.c:1b2l64r",   // non-numeric
            "het:1.1.1:1b2l64",    // malformed tail
            "het:1.1.1:1b2l64rX",  // trailing junk
        ] {
            assert!(
                matches!(
                    MachineConfig::from_extended_spec(bad),
                    Err(SpecError::Malformed { .. })
                ),
                "{bad} should be malformed"
            );
        }
    }

    #[test]
    fn heterogeneous_rejects_empty_and_oversized() {
        assert!(matches!(
            MachineConfig::heterogeneous(vec![], 1, 2, 64, LatencyTable::PAPER).unwrap_err(),
            SpecError::ZeroField {
                field: "clusters",
                ..
            }
        ));
        let too_many = vec![
            FuCounts {
                int: 1,
                fp: 1,
                mem: 1
            };
            33
        ];
        assert_eq!(
            MachineConfig::heterogeneous(too_many, 1, 2, 64, LatencyTable::PAPER).unwrap_err(),
            SpecError::TooManyClusters { clusters: 33 }
        );
    }

    #[test]
    fn clustered_rejects_zero_hop_latency() {
        let fu = FuCounts {
            int: 1,
            fp: 1,
            mem: 1,
        };
        let e = MachineConfig::clustered(
            vec![fu; 4],
            Interconnect::PointToPoint {
                shape: PtpShape::Crossbar,
                hop_latency: 0,
            },
            64,
            LatencyTable::PAPER,
        )
        .unwrap_err();
        assert!(matches!(
            e,
            SpecError::ZeroField {
                field: "hop latency",
                ..
            }
        ));
    }

    #[test]
    fn link_indexing_is_exposed() {
        let r = MachineConfig::from_spec("4c-ring1l64r").unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for s in r.cluster_ids() {
            for d in r.cluster_ids() {
                if s != d {
                    assert!(seen.insert(r.link_of(s, d)));
                    assert_eq!(r.link_occupancy(s, d), r.transfer_latency(s, d));
                }
            }
        }
        assert_eq!(seen.len() as u32, r.links());
    }
}
