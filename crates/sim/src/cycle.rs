//! Lockstep cycle-level execution of a modulo schedule.

use std::error::Error;
use std::fmt;

use cvliw_ddg::{Ddg, DepKind, NodeId};
use cvliw_machine::MachineConfig;
use cvliw_sched::Schedule;

use crate::value::{apply, live_in_value, operand_values, reference_values, Value};

/// Outcome of a simulation run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimReport {
    /// Measured completion time: issue row of the last operation of the
    /// last iteration, plus one.
    pub makespan: u64,
    /// The paper's analytic `(N − 1 + SC)·II`; always ≥ `makespan` and
    /// within one II of it.
    pub texec_formula: u64,
    /// Functional-unit operations issued (instances × iterations).
    pub instructions_executed: u64,
    /// Bus copies issued.
    pub copies_executed: u64,
    /// Operand deliveries checked for timing and value.
    pub values_checked: u64,
}

/// A violation observed while executing the schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Schedules built with the §5.1 zero-bus-latency relaxation are
    /// intentionally optimistic and cannot be executed.
    RelaxedSchedule,
    /// A value had not arrived when its consumer issued.
    LatencyViolated {
        /// Producer node.
        src: NodeId,
        /// Consumer node.
        dst: NodeId,
        /// Consumer cluster.
        cluster: u8,
        /// Iteration at which the violation occurred.
        iteration: u64,
    },
    /// A consumer observed a different value than the reference execution.
    ValueMismatch {
        /// The consuming node.
        node: NodeId,
        /// Consumer cluster.
        cluster: u8,
        /// Iteration at which the mismatch occurred.
        iteration: u64,
    },
    /// A consumer had no local instance and no copy to read.
    ValueUnavailable {
        /// Producer node.
        src: NodeId,
        /// Consumer node.
        dst: NodeId,
        /// Consumer cluster.
        cluster: u8,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::RelaxedSchedule => {
                f.write_str("zero-bus-latency schedules cannot be simulated")
            }
            SimError::LatencyViolated {
                src,
                dst,
                cluster,
                iteration,
            } => write!(
                f,
                "iteration {iteration}: {dst} in cluster {cluster} issued before {src} arrived"
            ),
            SimError::ValueMismatch {
                node,
                cluster,
                iteration,
            } => write!(
                f,
                "iteration {iteration}: {node} in cluster {cluster} computed a wrong value"
            ),
            SimError::ValueUnavailable { src, dst, cluster } => {
                write!(f, "{dst} in cluster {cluster} has no way to read {src}")
            }
        }
    }
}

impl Error for SimError {}

/// Executes `iterations` iterations of a modulo schedule in lockstep,
/// checking that every operand arrives on time (through a local instance or
/// a bus copy) and carries the value the reference execution produces.
///
/// Register files rotate (as modulo scheduling assumes): each iteration's
/// value occupies its own rotated register, so overlapping lifetimes do not
/// clobber each other — the register *count* is checked statically by
/// [`Schedule::verify`] via MaxLive.
///
/// # Errors
///
/// Returns the first [`SimError`] encountered.
pub fn simulate(
    ddg: &Ddg,
    machine: &MachineConfig,
    schedule: &Schedule,
    iterations: u64,
) -> Result<SimReport, SimError> {
    if schedule.is_zero_bus_relaxed() {
        return Err(SimError::RelaxedSchedule);
    }
    let ii = i64::from(schedule.ii());
    let reference = reference_values(ddg, iterations);
    let mut values_checked = 0u64;

    for i in 0..iterations {
        let i_i64 = i as i64;
        for (&(v, c), &t_v) in schedule
            .instances()
            .collect::<Vec<_>>()
            .iter()
            .map(|x| (&x.0, &x.1))
        {
            let issue = t_v + i_i64 * ii;
            let mut operands: Vec<Value> = Vec::new();
            for e in ddg.in_edges(v) {
                let src_iter = i_i64 - i64::from(e.distance);
                match e.kind {
                    DepKind::Mem => {
                        if src_iter < 0 {
                            continue;
                        }
                        // Ordering against every instance of the producer.
                        for cu in schedule.instance_clusters(e.src).iter() {
                            let t_u = schedule.instance_cycle(e.src, cu).expect("instance exists");
                            let ready =
                                t_u + src_iter * ii + i64::from(machine.latency(ddg.kind(e.src)));
                            if ready > issue {
                                return Err(SimError::LatencyViolated {
                                    src: e.src,
                                    dst: v,
                                    cluster: c,
                                    iteration: i,
                                });
                            }
                        }
                    }
                    DepKind::Data => {
                        let value = if src_iter < 0 {
                            live_in_value(e.src, src_iter)
                        } else {
                            reference[src_iter as usize][e.src.index()]
                        };
                        operands.push(value);
                        if src_iter < 0 {
                            continue; // live-ins are ready before the loop
                        }
                        let ready = if schedule.instance_clusters(e.src).contains(c) {
                            let t_u = schedule.instance_cycle(e.src, c).expect("instance exists");
                            t_u + src_iter * ii + i64::from(machine.latency(ddg.kind(e.src)))
                        } else {
                            let Some(copy) = schedule.copy_of(e.src) else {
                                return Err(SimError::ValueUnavailable {
                                    src: e.src,
                                    dst: v,
                                    cluster: c,
                                });
                            };
                            // Delivery into this consumer's cluster:
                            // pair-dependent on point-to-point fabrics.
                            copy.cycle
                                + src_iter * ii
                                + i64::from(machine.transfer_latency(copy.source, c))
                        };
                        values_checked += 1;
                        if ready > issue {
                            return Err(SimError::LatencyViolated {
                                src: e.src,
                                dst: v,
                                cluster: c,
                                iteration: i,
                            });
                        }
                    }
                }
            }
            // Functional check: the instance recomputes the reference value.
            if ddg.kind(v).produces_value() {
                let expected = reference[i as usize][v.index()];
                debug_assert_eq!(
                    operands,
                    operand_values(ddg, v, i, &reference[..i as usize], &reference[i as usize]),
                );
                let got = apply(ddg.kind(v), v, &operands);
                if got != expected {
                    return Err(SimError::ValueMismatch {
                        node: v,
                        cluster: c,
                        iteration: i,
                    });
                }
            }
        }
    }

    let last_issue = schedule
        .instances()
        .map(|(_, t)| t)
        .chain(schedule.copies().map(|(_, cp)| cp.cycle))
        .max()
        .unwrap_or(0);
    let makespan = if iterations == 0 {
        0
    } else {
        u64::try_from(last_issue + (iterations as i64 - 1) * ii + 1).expect("non-negative")
    };
    Ok(SimReport {
        makespan,
        texec_formula: schedule.texec(iterations),
        instructions_executed: u64::from(schedule.op_count()) * iterations,
        copies_executed: u64::from(schedule.copy_count()) * iterations,
        values_checked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;
    use cvliw_sched::{schedule, Assignment, LoopAnalysis, SchedScratch, ScheduleRequest};

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    fn build_schedule(req: &ScheduleRequest<'_>) -> Result<Schedule, cvliw_sched::ScheduleError> {
        let analysis = LoopAnalysis::new(req.ddg, req.machine);
        schedule(req, &analysis, &mut SchedScratch::default())
    }

    fn compile(ddg: &Ddg, m: &MachineConfig, part: &[u8], ii: u32) -> Schedule {
        let asg = Assignment::from_partition(part);
        build_schedule(&ScheduleRequest {
            ddg,
            machine: m,
            assignment: &asg,
            ii,
            zero_bus_dep_latency: false,
        })
        .unwrap()
    }

    #[test]
    fn clean_schedule_simulates() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        let st = b.add_node(OpKind::Store);
        b.data(ld, m0).data(m0, st);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = compile(&ddg, &m, &[0, 0, 0], 2);
        let report = simulate(&ddg, &m, &s, 10).unwrap();
        assert_eq!(report.instructions_executed, 30);
        assert_eq!(report.copies_executed, 0);
        assert!(report.values_checked > 0);
        assert!(report.makespan <= report.texec_formula);
        assert!(report.texec_formula - report.makespan < u64::from(s.ii()));
    }

    #[test]
    fn cross_cluster_copies_deliver_values() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = compile(&ddg, &m, &[0, 1], 2);
        assert_eq!(s.copy_count(), 1);
        let report = simulate(&ddg, &m, &s, 8).unwrap();
        assert_eq!(report.copies_executed, 8);
    }

    #[test]
    fn loop_carried_values_flow() {
        let mut b = Ddg::builder();
        let acc = b.add_node(OpKind::FpAdd);
        b.data_dist(acc, acc, 1);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = compile(&ddg, &m, &[0], 3);
        simulate(&ddg, &m, &s, 12).unwrap();
    }

    #[test]
    fn zero_iterations_is_trivial() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let _ = ld;
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let s = compile(&ddg, &m, &[0], 1);
        let r = simulate(&ddg, &m, &s, 0).unwrap();
        assert_eq!(r.makespan, 0);
        assert_eq!(r.texec_formula, 0);
    }

    #[test]
    fn relaxed_schedules_are_rejected() {
        let mut b = Ddg::builder();
        let ld = b.add_node(OpKind::Load);
        let m0 = b.add_node(OpKind::FpMul);
        b.data(ld, m0);
        let ddg = b.build().unwrap();
        let m = machine("2c1b2l64r");
        let asg = Assignment::from_partition(&[0, 1]);
        let s = build_schedule(&ScheduleRequest {
            ddg: &ddg,
            machine: &m,
            assignment: &asg,
            ii: 2,
            zero_bus_dep_latency: true,
        })
        .unwrap();
        assert_eq!(simulate(&ddg, &m, &s, 4), Err(SimError::RelaxedSchedule));
    }
}
