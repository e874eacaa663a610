//! Software-pipeline expansion: prologue / kernel / epilogue generation.
//!
//! A modulo schedule describes *one* iteration laid over a kernel of `II`
//! cycles; real code needs the pipeline filled and drained. This module
//! expands a [`Schedule`] into the flat code a compiler would emit:
//!
//! * a **prologue** of `(SC − 1) · II` rows that ramps the pipeline up,
//! * a **kernel** of `II` rows executed `N − SC + 1` times,
//! * an **epilogue** of `(SC − 1) · II` rows that drains it,
//!
//! where `SC = ⌈length / II⌉` is the stage count. The expansion is the
//! concrete object behind the paper's execution model (`Texec =
//! (N − 1 + SC) · II`, §2.2) and behind the §5.1 observation that loops
//! with short trip counts (applu's `N ≈ 4`) spend most of their time in
//! the prologue/epilogue rather than the kernel.

use cvliw_ddg::Ddg;

use crate::schedule::{SchedOp, Schedule};

/// One operation issue in an expanded listing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpandedOp {
    /// The instance or copy being issued.
    pub op: SchedOp,
    /// The loop iteration this issue belongs to (0-based).
    pub iteration: u64,
}

/// A fully expanded execution trace of a software-pipelined loop.
#[derive(Clone, Debug)]
pub struct Expansion {
    ii: u32,
    stage_count: u32,
    iterations: u64,
    /// `rows[cycle]` = operations issued at that absolute cycle.
    rows: Vec<Vec<ExpandedOp>>,
}

impl Expansion {
    /// Total rows (cycles), equal to the paper's `(N − 1 + SC) · II` for
    /// `N ≥ 1`.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The rows of the trace.
    #[must_use]
    pub fn rows(&self) -> &[Vec<ExpandedOp>] {
        &self.rows
    }

    /// Number of operations issued over the whole trace.
    #[must_use]
    pub fn issued_ops(&self) -> u64 {
        self.rows.iter().map(|r| r.len() as u64).sum()
    }

    /// The absolute cycle at which the pipeline is first full (the kernel's
    /// steady state): `(SC − 1) · II`. Equals `cycles()` when the trip
    /// count is too small to ever fill the pipeline (`N < SC`).
    #[must_use]
    pub fn steady_state_start(&self) -> u64 {
        (u64::from(self.stage_count) - 1) * u64::from(self.ii)
    }

    /// Cycles spent with the pipeline full. Zero when `N < SC` — the §5.1
    /// situation where prologue and epilogue dominate.
    #[must_use]
    pub fn steady_cycles(&self) -> u64 {
        if self.iterations < u64::from(self.stage_count) {
            return 0;
        }
        (self.iterations - u64::from(self.stage_count) + 1) * u64::from(self.ii)
    }

    /// Fraction of the execution spent in the filled pipeline; the §5.1
    /// proxy for "does the II dominate this loop's runtime?".
    #[must_use]
    pub fn steady_fraction(&self) -> f64 {
        if self.cycles() == 0 {
            return 0.0;
        }
        self.steady_cycles() as f64 / self.cycles() as f64
    }
}

/// Expands `schedule` into the flat issue trace of `iterations` iterations.
///
/// Row `t + i·II` holds every operation scheduled at flat cycle `t` for
/// iteration `i`; trailing rows up to `Texec` are drain cycles (results
/// still in flight). For `iterations == 0` the trace is empty.
///
/// # Example
///
/// ```
/// use cvliw_ddg::{Ddg, OpKind};
/// use cvliw_machine::MachineConfig;
/// use cvliw_sched::{expand, schedule, Assignment, LoopAnalysis, SchedScratch, ScheduleRequest};
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
///         ii: 2,
///         zero_bus_dep_latency: false,
///     },
///     &LoopAnalysis::new(&ddg, &machine),
///     &mut SchedScratch::default(),
/// )?;
///
/// let trace = expand(&sched, 10);
/// assert_eq!(trace.cycles(), sched.texec(10)); // (N-1+SC)·II
/// assert_eq!(trace.issued_ops(), 30);          // 3 ops × 10 iterations
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use]
pub fn expand(schedule: &Schedule, iterations: u64) -> Expansion {
    let ii = schedule.ii();
    let stage_count = schedule.stage_count();
    // A schedule's cycles are normalized to start at 0, so each one plus
    // its iteration's base indexes a row of the trace directly.
    let mut rows: Vec<Vec<ExpandedOp>> = vec![Vec::new(); row_index(schedule.texec(iterations))];
    for i in 0..iterations {
        let base = i * u64::from(ii);
        let placements = schedule
            .instances()
            .map(|((n, c), t)| (SchedOp::Instance(n, c), t))
            .chain(
                schedule
                    .copies()
                    .map(|(n, copy)| (SchedOp::Copy(n), copy.cycle)),
            );
        for (op, t) in placements {
            rows[row_index(base + t.unsigned_abs())].push(ExpandedOp { op, iteration: i });
        }
    }
    for row in &mut rows {
        row.sort_unstable_by_key(|e| (e.op, e.iteration));
    }
    Expansion {
        ii,
        stage_count,
        iterations,
        rows,
    }
}

/// The `usize` position of trace row `row`. A row past `usize::MAX`
/// saturates, so it fails the allocation or the bounds check loudly
/// instead of wrapping onto another row.
fn row_index(row: u64) -> usize {
    usize::try_from(row).unwrap_or(usize::MAX)
}

/// The static shape of the emitted code: how many rows (VLIW instructions)
/// the prologue, kernel and epilogue occupy, and how many operation slots
/// they contain. This is the code-size currency of the paper's DSP
/// motivation (related work holds unrolling's code growth against it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodeShape {
    /// Rows before the steady state: `(SC − 1) · II`.
    pub prologue_rows: u64,
    /// Kernel rows: `II`.
    pub kernel_rows: u64,
    /// Rows after the last kernel issue: `(SC − 1) · II`.
    pub epilogue_rows: u64,
    /// Operation issues in the prologue.
    pub prologue_ops: u64,
    /// Operation issues in one kernel repetition.
    pub kernel_ops: u64,
    /// Operation issues in the epilogue.
    pub epilogue_ops: u64,
}

impl CodeShape {
    /// Total static rows emitted.
    #[must_use]
    pub fn total_rows(&self) -> u64 {
        self.prologue_rows + self.kernel_rows + self.epilogue_rows
    }

    /// Total static operation slots emitted.
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.prologue_ops + self.kernel_ops + self.epilogue_ops
    }
}

/// Computes the static prologue/kernel/epilogue shape of a schedule.
///
/// Identity: `prologue_ops + epilogue_ops == (SC − 1) · kernel_ops` — the
/// ramp-up and drain together issue exactly the iterations the kernel has
/// not yet (or no longer) covered.
#[must_use]
pub fn code_shape(schedule: &Schedule) -> CodeShape {
    let ii = u64::from(schedule.ii());
    let sc = u64::from(schedule.stage_count());
    let per_iter = u64::from(schedule.op_count() + schedule.copy_count());

    // Expand exactly SC iterations: rows [0, (SC-1)·II) are the prologue
    // and rows [(SC-1)·II, SC·II) are the first steady-state kernel block.
    let trace = expand(schedule, sc);
    let prologue_rows = (sc - 1) * ii;
    let prologue_ops: u64 = trace
        .rows()
        .iter()
        .take(row_index(prologue_rows))
        .map(|r| r.len() as u64)
        .sum();
    let kernel_ops: u64 = trace
        .rows()
        .iter()
        .skip(row_index(prologue_rows))
        .take(row_index(ii))
        .map(|r| r.len() as u64)
        .sum();
    debug_assert_eq!(
        kernel_ops, per_iter,
        "a full kernel issues one whole iteration"
    );
    CodeShape {
        prologue_rows,
        kernel_rows: ii,
        epilogue_rows: prologue_rows,
        prologue_ops,
        kernel_ops,
        epilogue_ops: (sc - 1) * per_iter - prologue_ops,
    }
}

/// Renders an expansion as text, one row per cycle, marking the prologue,
/// steady-state and drain regions.
#[must_use]
pub fn render_expansion(trace: &Expansion, ddg: &Ddg) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let steady = trace.steady_state_start();
    let steady_end = steady + trace.steady_cycles();
    let _ = writeln!(
        out,
        "{} iterations, {} cycles ({} steady, {:.0}%)",
        trace.iterations,
        trace.cycles(),
        trace.steady_cycles(),
        100.0 * trace.steady_fraction()
    );
    for (cycle, row) in trace.rows().iter().enumerate() {
        let cycle = cycle as u64;
        let region = if cycle < steady {
            "fill "
        } else if cycle < steady_end {
            "steady"
        } else {
            "drain"
        };
        let _ = write!(out, "{cycle:>4} {region:<6}|");
        for e in row {
            match e.op {
                SchedOp::Instance(n, c) => {
                    let _ = write!(out, " {}#{}.c{}", ddg.display_label(n), e.iteration, c);
                }
                SchedOp::Copy(n) => {
                    let _ = write!(out, " copy({})#{}", ddg.display_label(n), e.iteration);
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{tests::schedule_fresh, ScheduleRequest};
    use crate::Assignment;
    use cvliw_ddg::OpKind;
    use cvliw_machine::MachineConfig;

    fn pipelined_schedule() -> (Ddg, Schedule) {
        // A chain long enough to span several stages at II=2.
        let mut b = Ddg::builder();
        let ld = b.add_labeled(OpKind::Load, "x");
        let m0 = b.add_labeled(OpKind::FpMul, "m0");
        let m1 = b.add_labeled(OpKind::FpMul, "m1");
        let st = b.add_labeled(OpKind::Store, "s");
        b.data(ld, m0).data(m0, m1).data(m1, st);
        let ddg = b.build().unwrap();
        let machine = MachineConfig::from_spec("2c1b2l64r").unwrap();
        let sched = schedule_fresh(&ScheduleRequest {
            ddg: &ddg,
            machine: &machine,
            assignment: &Assignment::from_partition(&[0, 0, 0, 0]),
            ii: 2,
            zero_bus_dep_latency: false,
        })
        .unwrap();
        assert!(sched.stage_count() >= 3, "test needs a deep pipeline");
        (ddg, sched)
    }

    #[test]
    fn trace_length_matches_the_paper_formula() {
        let (_, sched) = pipelined_schedule();
        for n in [1u64, 2, 3, 4, 10, 33] {
            let trace = expand(&sched, n);
            assert_eq!(trace.cycles(), sched.texec(n), "n={n}");
        }
    }

    #[test]
    fn every_iteration_issues_every_op() {
        let (_, sched) = pipelined_schedule();
        let n = 7;
        let trace = expand(&sched, n);
        assert_eq!(
            trace.issued_ops(),
            n * u64::from(sched.op_count() + sched.copy_count())
        );
        // Each iteration index appears exactly op_count times.
        let mut per_iter = vec![0u64; n as usize];
        for row in trace.rows() {
            for e in row {
                per_iter[e.iteration as usize] += 1;
            }
        }
        assert!(per_iter.iter().all(|&k| k == u64::from(sched.op_count())));
    }

    #[test]
    fn zero_iterations_is_empty() {
        let (_, sched) = pipelined_schedule();
        let trace = expand(&sched, 0);
        assert_eq!(trace.cycles(), 0);
        assert_eq!(trace.issued_ops(), 0);
        assert_eq!(trace.steady_cycles(), 0);
    }

    #[test]
    fn short_trip_counts_never_reach_steady_state() {
        let (_, sched) = pipelined_schedule();
        let sc = u64::from(sched.stage_count());
        let short = expand(&sched, sc - 1);
        assert_eq!(short.steady_cycles(), 0);
        assert_eq!(short.steady_fraction(), 0.0);
        let long = expand(&sched, 100);
        assert!(
            long.steady_fraction() > 0.8,
            "got {}",
            long.steady_fraction()
        );
    }

    #[test]
    fn steady_state_rows_repeat_the_kernel() {
        let (_, sched) = pipelined_schedule();
        let trace = expand(&sched, 12);
        let ii = u64::from(sched.ii());
        let start = trace.steady_state_start();
        // Two consecutive steady-state kernel blocks issue the same ops
        // shifted by exactly one iteration.
        for r in 0..ii {
            let a = &trace.rows()[(start + r) as usize];
            let b = &trace.rows()[(start + ii + r) as usize];
            assert_eq!(a.len(), b.len(), "row {r}");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.op, y.op);
                assert_eq!(x.iteration + 1, y.iteration);
            }
        }
    }

    #[test]
    fn code_shape_identity_holds() {
        let (_, sched) = pipelined_schedule();
        let shape = code_shape(&sched);
        let per_iter = u64::from(sched.op_count() + sched.copy_count());
        assert_eq!(shape.kernel_ops, per_iter);
        assert_eq!(
            shape.prologue_ops + shape.epilogue_ops,
            (u64::from(sched.stage_count()) - 1) * per_iter,
            "ramp-up plus drain covers the non-kernel iterations"
        );
        assert_eq!(shape.prologue_rows, shape.epilogue_rows);
        assert_eq!(shape.kernel_rows, u64::from(sched.ii()));
        assert_eq!(
            shape.total_rows(),
            (2 * (u64::from(sched.stage_count()) - 1) + 1) * u64::from(sched.ii())
        );
        assert!(shape.total_ops() >= per_iter);
    }

    #[test]
    fn render_marks_regions() {
        let (ddg, sched) = pipelined_schedule();
        let text = render_expansion(&expand(&sched, 8), &ddg);
        assert!(text.contains("fill"), "{text}");
        assert!(text.contains("steady"), "{text}");
        assert!(text.contains("drain"), "{text}");
        assert!(text.contains("x#0"), "{text}");
    }
}
