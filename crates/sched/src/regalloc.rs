//! Rotating-register allocation for modulo-scheduled loops.
//!
//! [`max_live`](crate::max_live) bounds how many registers a schedule
//! *needs*; this module performs the actual assignment, following the
//! rotating-register-file model modulo schedulers assume (Rau's iterative
//! modulo scheduling, the paper's reference [21]): the file rotates by one
//! register per iteration, so iteration `i` of a value allocated at base
//! `b` lives in physical register `b + i (mod R)` and overlapping lifetimes
//! of consecutive iterations never clobber each other.
//!
//! Geometrically each live range is a strip on the (register, kernel-slot)
//! torus: a lifetime of `L` cycles starting at cycle `def` covers
//! `⌊L / II⌋` whole registers (one per iteration in flight) plus a partial
//! arc of `L mod II` slots on the next. The allocator first-fit packs these
//! strips; the resulting register count is exact for the machine model and
//! always ≥ MaxLive, usually within one or two of it.

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;

use crate::regs::{live_ranges, Range};
use crate::schedule::Schedule;

/// Where one value lives in its cluster's rotating file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegAssignment {
    /// The value (DDG node) this register holds.
    pub value: NodeId,
    /// Base register of the allocated strip.
    pub base: u32,
    /// Registers occupied (`⌈L / II⌉` rounded up to at least 1, or the
    /// exact strip: `whole + (partial arc ? 1 : 0)`).
    pub width: u32,
}

/// The allocation of one cluster's register file.
#[derive(Clone, Debug, Default)]
pub struct ClusterAllocation {
    /// Per-value placements.
    pub assignments: Vec<RegAssignment>,
    /// Physical registers used (highest occupied index + 1).
    pub registers_used: u32,
}

/// A full per-cluster register allocation.
#[derive(Clone, Debug)]
pub struct RegisterAllocation {
    clusters: Vec<ClusterAllocation>,
}

impl RegisterAllocation {
    /// Allocation of one cluster.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster(&self, cluster: u8) -> &ClusterAllocation {
        &self.clusters[cluster as usize]
    }

    /// Registers used per cluster.
    #[must_use]
    pub fn registers_used(&self) -> Vec<u32> {
        self.clusters.iter().map(|c| c.registers_used).collect()
    }
}

/// Allocation failure: some cluster needs more registers than it has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfRegisters {
    /// The cluster that overflowed.
    pub cluster: u8,
    /// Registers the allocator needed.
    pub needed: u32,
    /// Registers the machine provides per cluster.
    pub available: u32,
}

impl std::fmt::Display for OutOfRegisters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cluster {} needs {} rotating registers but has {}",
            self.cluster, self.needed, self.available
        )
    }
}

impl std::error::Error for OutOfRegisters {}

/// Assigns every live range of `schedule` a strip of rotating registers,
/// first-fit, per cluster.
///
/// # Errors
///
/// Returns [`OutOfRegisters`] when a cluster's file
/// ([`MachineConfig::regs_per_cluster`]) cannot hold its ranges. The
/// compilation driver admits schedules by the MaxLive bound, which is
/// necessary but not sufficient for first-fit: fragmentation can cost a
/// register or two over MaxLive (see the `alloc_close_to_maxlive` test),
/// so allocation may fail for schedules sitting within a register of the
/// file limit.
///
/// # Example
///
/// ```
/// use cvliw_ddg::{Ddg, OpKind};
/// use cvliw_machine::MachineConfig;
/// use cvliw_sched::{
///     allocate_registers, schedule, Assignment, LoopAnalysis, SchedScratch, ScheduleRequest,
/// };
///
/// let mut b = Ddg::builder();
/// let ld = b.add_node(OpKind::Load);
/// let m = b.add_node(OpKind::FpMul);
/// let st = b.add_node(OpKind::Store);
/// b.data(ld, m).data(m, st);
/// let ddg = b.build()?;
/// let machine = MachineConfig::from_spec("2c1b2l64r")?;
/// let sched = schedule(
///     &ScheduleRequest {
///         ddg: &ddg,
///         machine: &machine,
///         assignment: &Assignment::from_partition(&[0, 0, 0]),
///         ii: 1,
///         zero_bus_dep_latency: false,
///     },
///     &LoopAnalysis::new(&ddg, &machine),
///     &mut SchedScratch::default(),
/// )?;
///
/// let alloc = allocate_registers(&sched, &ddg, &machine)?;
/// // MaxLive for this chain at II=1 is 8; first-fit matches it here.
/// assert_eq!(alloc.registers_used()[0], 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn allocate_registers(
    schedule: &Schedule,
    ddg: &Ddg,
    machine: &MachineConfig,
) -> Result<RegisterAllocation, OutOfRegisters> {
    let ii = i64::from(schedule.ii());
    let ranges = live_ranges(schedule, ddg, machine);
    let mut clusters: Vec<ClusterAllocation> = (0..machine.clusters())
        .map(|_| ClusterAllocation::default())
        .collect();
    let mut files: Vec<RegFile> = (0..machine.clusters())
        .map(|_| RegFile::new(ii as usize))
        .collect();

    // Longest (widest) strips first: classic first-fit-decreasing.
    let mut order: Vec<&Range> = ranges.iter().filter(|r| r.span() > 0).collect();
    order.sort_unstable_by_key(|r| (std::cmp::Reverse(r.span()), r.value, r.cluster));

    for r in order {
        let file = &mut files[r.cluster as usize];
        let strip = Strip::of(r, ii);
        let base = file.first_fit(&strip);
        file.occupy(base, &strip);
        clusters[r.cluster as usize]
            .assignments
            .push(RegAssignment {
                value: r.value,
                base: base as u32,
                width: strip.width() as u32,
            });
        let used = &mut clusters[r.cluster as usize].registers_used;
        *used = (*used).max((base + strip.width()) as u32);
    }

    for (c, alloc) in clusters.iter().enumerate() {
        if alloc.registers_used > machine.regs_per_cluster() {
            return Err(OutOfRegisters {
                cluster: c as u8,
                needed: alloc.registers_used,
                available: machine.regs_per_cluster(),
            });
        }
    }
    Ok(RegisterAllocation { clusters })
}

/// A live range reduced to torus geometry: `whole` fully-covered registers
/// plus a partial arc `[arc_start, arc_start + arc_len)` (mod II) on the
/// register after them.
struct Strip {
    whole: usize,
    arc_start: usize,
    arc_len: usize,
}

impl Strip {
    fn of(r: &Range, ii: i64) -> Strip {
        let span = r.span();
        Strip {
            whole: (span / ii) as usize,
            arc_start: r.def.rem_euclid(ii) as usize,
            arc_len: (span % ii) as usize,
        }
    }

    fn width(&self) -> usize {
        self.whole + usize::from(self.arc_len > 0)
    }
}

/// Occupancy bitmap of one rotating file: `regs[r][slot]`.
struct RegFile {
    ii: usize,
    regs: Vec<Vec<bool>>,
}

impl RegFile {
    fn new(ii: usize) -> RegFile {
        RegFile {
            ii,
            regs: Vec::new(),
        }
    }

    fn grow_to(&mut self, n: usize) {
        while self.regs.len() < n {
            self.regs.push(vec![false; self.ii]);
        }
    }

    fn reg_empty(&self, r: usize) -> bool {
        self.regs.get(r).is_none_or(|row| row.iter().all(|&b| !b))
    }

    fn arc_free(&self, r: usize, start: usize, len: usize) -> bool {
        let Some(row) = self.regs.get(r) else {
            return true;
        };
        (0..len).all(|k| !row[(start + k) % self.ii])
    }

    fn fits(&self, base: usize, strip: &Strip) -> bool {
        (base..base + strip.whole).all(|r| self.reg_empty(r))
            && (strip.arc_len == 0
                || self.arc_free(base + strip.whole, strip.arc_start, strip.arc_len))
    }

    /// The lowest base the strip fits at; the file grows on demand, so
    /// the search always ends past the last occupied register.
    fn first_fit(&self, strip: &Strip) -> usize {
        let mut base = 0;
        while !self.fits(base, strip) {
            base += 1;
        }
        base
    }

    fn occupy(&mut self, base: usize, strip: &Strip) {
        self.grow_to(base + strip.width());
        for r in base..base + strip.whole {
            self.regs[r].iter_mut().for_each(|b| *b = true);
        }
        for k in 0..strip.arc_len {
            let slot = (strip.arc_start + k) % self.ii;
            self.regs[base + strip.whole][slot] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::regs::max_live;
    use crate::schedule::{tests::schedule_fresh, ScheduleRequest};
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn sched(ddg: &Ddg, m: &MachineConfig, part: &[u8], ii: u32) -> Schedule {
        schedule_fresh(&ScheduleRequest {
            ddg,
            machine: m,
            assignment: &Assignment::from_partition(part),
            ii,
            zero_bus_dep_latency: false,
        })
        .unwrap()
    }

    fn chain() -> Ddg {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m0).data(m0, st);
        b.build().unwrap()
    }

    #[test]
    fn allocation_covers_every_value_with_a_lifetime() {
        let ddg = chain();
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0, 0, 0], 2);
        let alloc = allocate_registers(&s, &ddg, &m).unwrap();
        // load and fmul produce consumed values; the store produces none.
        assert_eq!(alloc.cluster(0).assignments.len(), 2);
        assert!(alloc.cluster(1).assignments.is_empty());
    }

    #[test]
    fn alloc_never_below_maxlive() {
        let ddg = chain();
        let m = machine("2c1b2l64r");
        for ii in 1..5 {
            let s = sched(&ddg, &m, &[0, 0, 0], ii);
            let alloc = allocate_registers(&s, &ddg, &m).unwrap();
            let pressure = max_live(&s, &ddg, &m);
            for (c, &p) in pressure.iter().enumerate() {
                assert!(
                    alloc.registers_used()[c] >= p,
                    "ii={ii} cluster {c}: {} < MaxLive {p}",
                    alloc.registers_used()[c]
                );
            }
        }
    }

    #[test]
    fn alloc_close_to_maxlive() {
        // First-fit-decreasing should not waste more than a couple of
        // registers over the MaxLive bound on a simple chain.
        let ddg = chain();
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0, 0, 0], 1);
        let alloc = allocate_registers(&s, &ddg, &m).unwrap();
        let p = max_live(&s, &ddg, &m)[0];
        assert!(
            alloc.registers_used()[0] <= p + 2,
            "{} vs {p}",
            alloc.registers_used()[0]
        );
    }

    #[test]
    fn strips_never_overlap() {
        // Rebuild the occupancy from the assignments and check disjointness.
        let ddg = {
            let mut b = Ddg::builder();
            let iv = b.add_node(OpKind::IntAdd);
            b.data_dist(iv, iv, 1);
            for _ in 0..3 {
                let ld = b.add_node(OpKind::Load);
                let m0 = b.add_node(OpKind::FpMul);
                let st = b.add_node(OpKind::Store);
                b.data(iv, ld).data(ld, m0).data(m0, st);
            }
            b.build().unwrap()
        };
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0; 10], 3);
        let alloc = allocate_registers(&s, &ddg, &m).unwrap();
        let ranges = live_ranges(&s, &ddg, &m);
        let ii = 3i64;
        let used = alloc.registers_used()[0] as usize;
        let mut occ = vec![vec![0u32; 3]; used];
        for a in &alloc.cluster(0).assignments {
            let r = ranges
                .iter()
                .find(|r| r.value == a.value && r.cluster == 0)
                .expect("assignment has a range");
            for off in 0..r.span() {
                let reg = a.base as usize + ((off) / ii) as usize;
                let slot = (r.def + off).rem_euclid(ii) as usize;
                occ[reg][slot] += 1;
            }
        }
        for (reg, row) in occ.iter().enumerate() {
            for (slot, &k) in row.iter().enumerate() {
                assert!(k <= 1, "register {reg} slot {slot} double-booked");
            }
        }
    }

    #[test]
    fn copy_destinations_get_registers_too() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let s = sched(&ddg, &m, &[0, 1], 2);
        let alloc = allocate_registers(&s, &ddg, &m).unwrap();
        assert!(alloc.cluster(0).registers_used >= 1);
        assert!(
            alloc.cluster(1).registers_used >= 1,
            "copied value needs a register"
        );
    }

    #[test]
    fn overflow_is_reported() {
        // The scheduler itself refuses over-pressure schedules, so build
        // against a roomy file and allocate against a tiny one (II=1 chain
        // pressure is 8; the small machine has 4 registers).
        let ddg = chain();
        let roomy = machine("2c1b2l64r");
        let tiny = MachineConfig::from_spec("2c1b2l4r").unwrap();
        let s = sched(&ddg, &roomy, &[0, 0, 0], 1);
        let err = allocate_registers(&s, &ddg, &tiny).unwrap_err();
        assert_eq!(err.cluster, 0);
        assert!(err.needed > err.available);
        assert!(err.to_string().contains("rotating registers"));
    }

    #[test]
    fn zero_span_values_need_no_register() {
        // A load feeding only a store in another cluster via copy: its home
        // lifetime is just the latency; still allocated. But a store itself
        // never appears.
        let ddg = chain();
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0, 0, 0], 2);
        let alloc = allocate_registers(&s, &ddg, &m).unwrap();
        for a in &alloc.cluster(0).assignments {
            assert!(ddg.kind(a.value).produces_value());
            assert!(a.width >= 1);
        }
    }
}
