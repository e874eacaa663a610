//! Running one grid cell: compile every loop of one program for one
//! machine under one policy, and fold the per-loop statistics into
//! integer accumulators.
//!
//! Everything in [`CellResult`] is an exact integer sum in loop order, so
//! a cell's result — and therefore a whole report — is bit-identical no
//! matter how many workers ran the suite or in what order cells finished.
//! Floating point only appears in the derived accessors ([`CellResult::ipc`]
//! and friends), computed at read time from the integer sums.

use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_stats_ctx, CompileContext, CompileOptions, CompileScratch, LoopStats, Mode, WorkCounts,
};
use cvliw_sim::IpcAccumulator;
use cvliw_workloads::WorkloadLoop;

use crate::grid::CellSpec;

/// Aggregated result of one (program × machine × mode) cell.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CellResult {
    /// Benchmark program name.
    pub program: String,
    /// Machine specification string.
    pub spec: String,
    /// Replication policy the cell compiled under.
    pub mode: Mode,
    /// Loops attempted.
    pub loops: usize,
    /// Loops that failed to compile (healthy suites report zero).
    pub failures: usize,
    /// Dynamic original operations (profile-weighted; replicas excluded).
    pub ops: u64,
    /// Analytic execution cycles under the `(N − 1 + SC)·II` model.
    pub cycles: u64,
    /// Dynamic net replicated instructions (profile-weighted).
    pub added_ops: u64,
    /// `Σ dynamic_iterations × II` — numerator of the weighted mean II.
    pub weighted_ii: u64,
    /// `Σ dynamic_iterations × MII`.
    pub weighted_mii: u64,
    /// `Σ dynamic_iterations` — denominator of the weighted means.
    pub dyn_iters: u64,
    /// Communications implied by the partition, summed over loops.
    pub partition_coms: u64,
    /// Communications actually scheduled on buses, summed over loops.
    pub final_coms: u64,
    /// Scheduled functional-unit instances per iteration, summed over
    /// loops (with [`CellResult::final_coms`], the static code size).
    pub instances: u64,
    /// Figure 1's II bumps past the MII, `[bus, recurrence, registers,
    /// resources]`, summed over loops.
    pub ii_causes: [u64; 4],
    /// Compiled loops whose II exceeds their MII.
    pub loops_over_mii: u64,
    /// Static instances the replication pass created, summed over loops.
    pub added_instances: u64,
    /// Static communications the replication pass removed, summed over
    /// loops.
    pub removed_coms: u64,
    /// [`CellResult::added_ops`] split by functional-unit class
    /// (`[int, fp, mem]`, profile-weighted).
    pub added_ops_by_class: [u64; 3],
}

impl CellResult {
    /// An empty result for the given cell.
    #[must_use]
    pub fn empty(cell: &CellSpec) -> Self {
        CellResult {
            program: cell.program.clone(),
            spec: cell.spec.clone(),
            mode: cell.mode,
            loops: 0,
            failures: 0,
            ops: 0,
            cycles: 0,
            added_ops: 0,
            weighted_ii: 0,
            weighted_mii: 0,
            dyn_iters: 0,
            partition_coms: 0,
            final_coms: 0,
            instances: 0,
            ii_causes: [0; 4],
            loops_over_mii: 0,
            added_instances: 0,
            removed_coms: 0,
            added_ops_by_class: [0; 3],
        }
    }

    /// Folds one compiled loop into the accumulators.
    pub fn add_loop(&mut self, l: &WorkloadLoop, stats: &LoopStats) {
        let mut acc = IpcAccumulator::new();
        acc.add_loop(
            l.profile.visits,
            l.profile.iterations,
            stats.ops_per_iter,
            stats.ii,
            stats.stage_count,
        );
        let dyn_iters = l.profile.total_iterations();
        self.loops += 1;
        self.ops += acc.ops();
        self.cycles += acc.cycles();
        self.added_ops += dyn_iters * u64::from(stats.net_added());
        self.weighted_ii += dyn_iters * u64::from(stats.ii);
        self.weighted_mii += dyn_iters * u64::from(stats.mii);
        self.dyn_iters += dyn_iters;
        self.partition_coms += u64::from(stats.partition_coms);
        self.final_coms += u64::from(stats.final_coms);
        self.instances += u64::from(stats.instances_per_iter);
        let c = stats.causes;
        let causes = [c.bus, c.recurrence, c.registers, c.resources];
        for (sum, n) in self.ii_causes.iter_mut().zip(causes) {
            *sum += u64::from(n);
        }
        self.loops_over_mii += u64::from(stats.ii > stats.mii);
        self.added_instances += u64::from(stats.replication.added_instances());
        self.removed_coms += u64::from(stats.replication.removed_coms());
        let net = stats.replication.net_added_by_class();
        for (sum, n) in self.added_ops_by_class.iter_mut().zip(net) {
            *sum += dyn_iters * u64::from(n);
        }
    }

    /// Profile-weighted IPC of the cell (original operations per cycle).
    #[must_use]
    pub fn ipc(&self) -> f64 {
        ratio(self.ops, self.cycles)
    }

    /// Iteration-weighted mean II.
    #[must_use]
    pub fn mean_ii(&self) -> f64 {
        ratio(self.weighted_ii, self.dyn_iters)
    }

    /// Iteration-weighted mean MII.
    #[must_use]
    pub fn mean_mii(&self) -> f64 {
        ratio(self.weighted_mii, self.dyn_iters)
    }

    /// Dynamic executed-instruction overhead: net replicas over original
    /// operations (the paper's Figure 10 metric).
    #[must_use]
    pub fn overhead(&self) -> f64 {
        ratio(self.added_ops, self.ops)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The suite's atomic unit of work: one loop of one (machine, program)
/// pair under every mode of `cells`, on one [`CompileContext`] built over
/// a recycled [`CompileScratch`]. Returns the per-mode outcome (`None` =
/// compile failure), the context's per-stage wall clock and work counts,
/// and the scratch for the caller's next unit.
///
/// `refine_seeds > 1` races that many perturbed refinements per loop for
/// the MII seed partition (deterministic winner; see
/// [`CompileContext::with_refine_seeds`]). Every raced seed's wall clock
/// lands in the partition stage bucket, so the stage breakdown charges
/// the losers' CPU too.
pub(crate) fn compile_loop_all_modes(
    l: &WorkloadLoop,
    machine: &MachineConfig,
    cells: &[CellSpec],
    refine_seeds: u32,
    scratch: CompileScratch,
) -> (Vec<Option<LoopStats>>, [u64; 4], WorkCounts, CompileScratch) {
    let ctx =
        CompileContext::new_with_scratch(&l.ddg, machine, scratch).with_refine_seeds(refine_seeds);
    let per_mode = cells
        .iter()
        .map(|cell| {
            let opts = CompileOptions {
                mode: cell.mode,
                max_ii: None,
            };
            compile_stats_ctx(&l.ddg, machine, &opts, &ctx).ok()
        })
        .collect();
    let stages = ctx.stage_nanos();
    let work = ctx.work();
    (per_mode, stages, work, ctx.into_scratch())
}

/// Folds one loop's per-mode outcomes into the pair's cell accumulators,
/// given in mode order. Failures count, they never silently drop.
pub(crate) fn fold_loop<'a>(
    outs: impl IntoIterator<Item = &'a mut CellResult>,
    l: &WorkloadLoop,
    per_mode: &[Option<LoopStats>],
) {
    for (out, stats) in outs.into_iter().zip(per_mode) {
        match stats {
            Some(stats) => out.add_loop(l, stats),
            None => {
                out.loops += 1;
                out.failures += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_suite, SuiteGrid};
    use cvliw_workloads::program_subset;

    /// One cell through the production pool: the first two tomcatv loops
    /// on a 4-cluster machine under `mode`.
    fn small_cell(mode: Mode) -> CellResult {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into()])
            .with_specs(vec!["4c2b2l64r".into()])
            .with_modes(vec![mode])
            .with_max_loops(2);
        let mut report = run_suite(&grid, 1).unwrap();
        assert_eq!(report.cells.len(), 1);
        report.cells.pop().unwrap()
    }

    #[test]
    fn run_cell_accumulates_all_loops() {
        let r = small_cell(Mode::Replicate);
        assert_eq!(r.loops, 2);
        assert_eq!(r.failures, 0);
        assert!(r.ipc() > 0.0);
        assert!(r.mean_ii() >= r.mean_mii());
        assert!(r.dyn_iters > 0);
    }

    #[test]
    fn baseline_cell_adds_no_instructions() {
        let r = small_cell(Mode::Baseline);
        assert_eq!(r.added_ops, 0);
        assert_eq!(r.overhead(), 0.0);
    }

    #[test]
    fn appendix_sums_match_the_per_loop_stats() {
        // Against one-shot compiles of every loop, on a machine where
        // baseline loops climb past their MII and replication removes
        // communications.
        let program = program_subset("su2cor", 6).unwrap();
        let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
        let grid = SuiteGrid::paper()
            .with_programs(vec!["su2cor".into()])
            .with_specs(vec!["4c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(6);
        let cells = run_suite(&grid, 1).unwrap().cells;
        for cell in &cells {
            let mut expect = CellResult::empty(&CellSpec {
                program: cell.program.clone(),
                spec: cell.spec.clone(),
                mode: cell.mode,
            });
            let mut initial_coms = 0u64;
            for l in &program.loops {
                let opts = CompileOptions {
                    mode: cell.mode,
                    max_ii: None,
                };
                let s = cvliw_replicate::compile_stats(&l.ddg, &machine, &opts).unwrap();
                let c = s.causes;
                let causes = [c.bus, c.recurrence, c.registers, c.resources];
                for (sum, n) in expect.ii_causes.iter_mut().zip(causes) {
                    *sum += u64::from(n);
                }
                expect.loops_over_mii += u64::from(s.ii > s.mii);
                expect.instances += u64::from(s.instances_per_iter);
                expect.added_instances += u64::from(s.replication.added_instances());
                expect.removed_coms += u64::from(s.replication.removed_coms());
                let net = s.replication.net_added_by_class();
                for (sum, n) in expect.added_ops_by_class.iter_mut().zip(net) {
                    *sum += l.profile.total_iterations() * u64::from(n);
                }
                initial_coms += u64::from(s.replication.initial_coms);
            }
            let mode = cell.mode;
            assert_eq!(cell.ii_causes, expect.ii_causes, "{mode:?}");
            assert_eq!(cell.loops_over_mii, expect.loops_over_mii, "{mode:?}");
            assert_eq!(cell.instances, expect.instances, "{mode:?}");
            assert_eq!(cell.added_instances, expect.added_instances, "{mode:?}");
            assert_eq!(cell.removed_coms, expect.removed_coms, "{mode:?}");
            assert_eq!(cell.added_ops_by_class, expect.added_ops_by_class);
            assert_eq!(cell.added_ops_by_class.iter().sum::<u64>(), cell.added_ops);
            // The appendix reads "communications before replication" from
            // the partition count.
            assert_eq!(cell.partition_coms, initial_coms, "{mode:?}");
        }
        // The sample exercises every sum it checks.
        assert!(cells[0].loops_over_mii > 0 && cells[0].ii_causes[0] > 0);
        assert!(cells[1].removed_coms > 0 && cells[1].added_ops_by_class[0] > 0);
    }

    #[test]
    fn empty_ratios_are_zero() {
        let cell = CellSpec {
            program: "tomcatv".into(),
            spec: "unified".into(),
            mode: Mode::Baseline,
        };
        let r = CellResult::empty(&cell);
        assert_eq!(r.ipc(), 0.0);
    }
}
