//! Register pressure (MaxLive) of a modulo schedule.
//!
//! A value born each iteration stays live from its definition to its last
//! read; in a modulo schedule lifetimes of consecutive iterations overlap,
//! so the pressure at kernel slot `m` counts every iteration whose copy of
//! the value is live at `m`. A schedule is only accepted when the MaxLive of
//! each cluster fits its register file (the "registers" cause of Figure 1).

use cvliw_ddg::{Ddg, NodeId};
use cvliw_machine::MachineConfig;

use crate::schedule::Schedule;

/// A live range in one cluster: `(def_cycle, last_use_cycle]`.
///
/// Produced by [`live_ranges`]; consumed by MaxLive ([`max_live`]) and by
/// the rotating register allocator (`crate::regalloc`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Range {
    /// The node whose value this range holds.
    pub value: NodeId,
    /// The cluster whose register file holds it.
    pub cluster: u8,
    /// Definition cycle (issue of the instance, or of the bus copy for
    /// ranges in copy-destination clusters).
    pub def: i64,
    /// Last cycle at which the value is read in this cluster.
    pub last_use: i64,
}

impl Range {
    /// Lifetime in cycles (zero for a value that is never read locally).
    #[must_use]
    pub fn span(&self) -> i64 {
        (self.last_use - self.def).max(0)
    }
}

/// Reusable buffers for [`max_live_scratch`]: the collected live ranges,
/// the per-value copy-destination list, the flat per-(cluster, slot)
/// pressure table and the per-cluster peaks. One scratch serves every
/// scheduling attempt of a compilation.
#[derive(Clone, Debug, Default)]
pub struct RegScratch {
    ranges: Vec<Range>,
    /// `(destination cluster, last use)` of the copy being collected.
    dest_last: Vec<(u8, i64)>,
    /// `pressure[cluster·ii + slot]`.
    pressure: Vec<u32>,
    peaks: Vec<u32>,
}

/// Collects every register live range of a schedule (see [`max_live`] for
/// the accounting rules).
#[must_use]
pub fn live_ranges(schedule: &Schedule, ddg: &Ddg, machine: &MachineConfig) -> Vec<Range> {
    let mut scratch = RegScratch::default();
    collect_ranges_into(schedule, ddg, machine, &mut scratch);
    scratch.ranges
}

/// Computes the per-cluster MaxLive of a schedule.
///
/// Values accounted:
/// * every instance of a value-producing node owns a register in its
///   cluster from issue to its last local read (including the read by its
///   bus copy, when it is the copy's source);
/// * every bus copy owns a register in each **destination** cluster (a
///   cluster whose consumers have no local instance) from the copy's issue
///   to the last read there — the transfer itself is counted conservatively
///   as part of the lifetime.
#[must_use]
pub fn max_live(schedule: &Schedule, ddg: &Ddg, machine: &MachineConfig) -> Vec<u32> {
    let mut scratch = RegScratch::default();
    max_live_scratch(schedule, ddg, machine, &mut scratch);
    scratch.peaks
}

/// [`max_live`] into caller-owned buffers; returns the per-cluster peaks as
/// a slice of the scratch. Bit-identical to [`max_live`].
pub fn max_live_scratch<'s>(
    schedule: &Schedule,
    ddg: &Ddg,
    machine: &MachineConfig,
    scratch: &'s mut RegScratch,
) -> &'s [u32] {
    collect_ranges_into(schedule, ddg, machine, scratch);
    let ii = i64::from(schedule.ii());
    let clusters = machine.clusters() as usize;
    let slots = ii as usize;
    scratch.pressure.clear();
    scratch.pressure.resize(clusters * slots, 0);
    for r in &scratch.ranges {
        let span = (r.last_use - r.def).max(0);
        let full_wraps = span / ii;
        let rem = span % ii;
        let row = &mut scratch.pressure[r.cluster as usize * slots..][..slots];
        if full_wraps > 0 {
            let wraps = u32::try_from(full_wraps).unwrap_or(u32::MAX);
            for slot in row.iter_mut() {
                *slot = slot.saturating_add(wraps);
            }
        }
        for off in 1..=rem {
            let slot = (r.def + off).rem_euclid(ii) as usize;
            row[slot] += 1;
        }
    }
    scratch.peaks.clear();
    scratch.peaks.extend(
        scratch
            .pressure
            .chunks_exact(slots)
            .map(|row| row.iter().copied().max().unwrap_or(0)),
    );
    &scratch.peaks
}

/// Collects every live range into `scratch.ranges`, using
/// `scratch.dest_last` as the per-copy destination buffer.
fn collect_ranges_into(
    schedule: &Schedule,
    ddg: &Ddg,
    machine: &MachineConfig,
    scratch: &mut RegScratch,
) {
    let ii = i64::from(schedule.ii());
    let RegScratch {
        ranges, dest_last, ..
    } = scratch;
    ranges.clear();

    for n in ddg.node_ids() {
        if !ddg.kind(n).produces_value() {
            continue;
        }
        let instance_set = schedule.instance_clusters(n);
        let copy = schedule.copy_of(n);

        // Local instances.
        // `instance_clusters` lists exactly the clusters holding a
        // placement, so the `else` arms below never run.
        for c in instance_set.iter() {
            let Some(def) = schedule.instance_cycle(n, c) else {
                continue;
            };
            let mut last_use = def + i64::from(machine.latency(ddg.kind(n)));
            for e in ddg.out_edges(n) {
                if !e.is_data() {
                    continue;
                }
                if let Some(t) = schedule.instance_cycle(e.dst, c) {
                    last_use = last_use.max(t + ii * i64::from(e.distance));
                }
            }
            if let Some(cp) = copy {
                if cp.source == c {
                    last_use = last_use.max(cp.cycle);
                }
            }
            ranges.push(Range {
                value: n,
                cluster: c,
                def,
                last_use,
            });
        }

        // Copy destinations.
        if let Some(cp) = copy {
            dest_last.clear();
            for e in ddg.out_edges(n) {
                if !e.is_data() {
                    continue;
                }
                for c in schedule.instance_clusters(e.dst).iter() {
                    if instance_set.contains(c) {
                        continue; // consumer reads the local instance
                    }
                    let Some(t) = schedule.instance_cycle(e.dst, c) else {
                        continue;
                    };
                    let t = t + ii * i64::from(e.distance);
                    match dest_last.iter_mut().find(|(dc, _)| *dc == c) {
                        Some((_, last)) => *last = (*last).max(t),
                        None => dest_last.push((c, t)),
                    }
                }
            }
            for &(c, last_use) in dest_last.iter() {
                ranges.push(Range {
                    value: n,
                    cluster: c,
                    def: cp.cycle,
                    last_use,
                });
            }
        }
    }
}

/// Convenience wrapper: the highest pressure across all clusters.
#[must_use]
pub fn peak_pressure(schedule: &Schedule, ddg: &Ddg, machine: &MachineConfig) -> u32 {
    max_live(schedule, ddg, machine)
        .into_iter()
        .max()
        .unwrap_or(0)
}

/// Returns the last-use-based lifetime (in cycles) of node `n`'s value in
/// its home cluster, if scheduled. Exposed for diagnostics and tests.
#[must_use]
pub fn lifetime_of(
    schedule: &Schedule,
    ddg: &Ddg,
    machine: &MachineConfig,
    n: NodeId,
) -> Option<i64> {
    if !ddg.kind(n).produces_value() {
        return None;
    }
    let ii = i64::from(schedule.ii());
    let c = schedule.instance_clusters(n).iter().next()?;
    let def = schedule.instance_cycle(n, c)?;
    let mut last = def + i64::from(machine.latency(ddg.kind(n)));
    for e in ddg.out_edges(n) {
        if !e.is_data() {
            continue;
        }
        if let Some(t) = schedule.instance_cycle(e.dst, c) {
            last = last.max(t + ii * i64::from(e.distance));
        }
    }
    if let Some(cp) = schedule.copy_of(n) {
        if cp.source == c {
            last = last.max(cp.cycle);
        }
    }
    Some(last - def)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assignment;
    use crate::schedule::{tests::schedule_fresh, ScheduleRequest};
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn sched(ddg: &Ddg, m: &MachineConfig, part: &[u8], ii: u32) -> Schedule {
        let asg = Assignment::from_partition(part);
        schedule_fresh(&ScheduleRequest {
            ddg,
            machine: m,
            assignment: &asg,
            ii,
            zero_bus_dep_latency: false,
        })
        .unwrap()
    }

    #[test]
    fn chain_pressure_counts_overlap() {
        // load → fmul → store at II=1 on a 2-port cluster: the load's value
        // is live 2 cycles (born, consumed by fmul at +2), fmul's 6 →
        // MaxLive = 8 overlapping iterations.
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m0).data(m0, st);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0, 0, 0], 1);
        let p = max_live(&s, &ddg, &m);
        assert_eq!(p.len(), 2);
        assert_eq!(p[0], 8); // 2 (load live) + 6 (fmul live)
        assert_eq!(p[1], 0);
    }

    #[test]
    fn larger_ii_reduces_pressure() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m0).data(m0, st);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let p1 = max_live(&sched(&ddg, &m, &[0, 0, 0], 1), &ddg, &m)[0];
        let p4 = max_live(&sched(&ddg, &m, &[0, 0, 0], 4), &ddg, &m)[0];
        assert!(p4 < p1, "pressure {p4} should drop below {p1}");
    }

    #[test]
    fn copy_destination_holds_a_register() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let s = sched(&ddg, &m, &[0, 1], 2);
        let p = max_live(&s, &ddg, &m);
        assert!(p[0] >= 1, "source cluster holds the load value");
        assert!(p[1] >= 1, "destination cluster holds the copied value");
    }

    #[test]
    fn lifetime_includes_loop_carried_uses() {
        // acc = acc + x: accumulator lives a full iteration.
        let mut b = Ddg::builder();
        let acc = b.add_node(OpKind::FpAdd);
        b.data_dist(acc, acc, 1);
        let ddg = b.build().unwrap();
        let m = machine("4c1b2l64r");
        let s = sched(&ddg, &m, &[0], 3);
        let life = lifetime_of(&s, &ddg, &m, NodeId::new(0)).unwrap();
        assert_eq!(life, 3); // self use next iteration: def + ii
    }

    #[test]
    fn stores_have_no_lifetime() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let st = b.add_node(OpKind::Store);
        b.data(ld, st);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = sched(&ddg, &m, &[0, 0], 1);
        assert_eq!(lifetime_of(&s, &ddg, &m, NodeId::new(1)), None);
    }
}
