//! The typed result of a suite run and its config-level aggregates.

use cvliw_replicate::Mode;
use cvliw_sim::harmonic_mean;
use cvliw_workloads::BenchmarkProgram;

use crate::cell::{ratio, CellResult};
use crate::grid::SuiteGrid;

/// Everything one suite run produced: the grid it covered and one
/// [`CellResult`] per cell, in the grid's canonical order.
#[derive(Clone, Debug, PartialEq)]
pub struct SuiteReport {
    /// Program names, in grid order.
    pub programs: Vec<String>,
    /// Machine specs, in grid order.
    pub specs: Vec<String>,
    /// Modes, in grid order.
    pub modes: Vec<Mode>,
    /// The per-program loop cap the run used (`None` = full suite).
    pub max_loops: Option<usize>,
    /// Loops per (spec × mode) configuration — the suite size.
    pub suite_loops: usize,
    /// One result per cell, ordered exactly as [`SuiteGrid::cells`].
    pub cells: Vec<CellResult>,
}

impl SuiteReport {
    /// Assembles a report from a finished run.
    #[must_use]
    pub fn new(grid: &SuiteGrid, cells: Vec<CellResult>, programs: &[BenchmarkProgram]) -> Self {
        SuiteReport {
            programs: grid.programs.clone(),
            specs: grid.specs.clone(),
            modes: grid.modes.clone(),
            max_loops: grid.max_loops,
            suite_loops: programs.iter().map(|p| p.loops.len()).sum(),
            cells,
        }
    }

    /// The result of one cell, if the grid covered it.
    #[must_use]
    pub fn cell(&self, spec: &str, mode: Mode, program: &str) -> Option<&CellResult> {
        self.cells
            .iter()
            .find(|c| c.spec == spec && c.mode == mode && c.program == program)
    }

    /// All cells of one (spec × mode) configuration, in program order.
    pub fn config_cells<'a>(
        &'a self,
        spec: &'a str,
        mode: Mode,
    ) -> impl Iterator<Item = &'a CellResult> + 'a {
        self.cells
            .iter()
            .filter(move |c| c.spec == spec && c.mode == mode)
    }

    /// Sums `field` over one configuration's cells.
    #[must_use]
    pub fn config_sum(&self, spec: &str, mode: Mode, field: fn(&CellResult) -> u64) -> u64 {
        self.config_cells(spec, mode).map(field).sum()
    }

    /// Suite-total IPC of a configuration: all dynamic operations over all
    /// cycles (what the CLI's old `TOTAL` row reported).
    #[must_use]
    pub fn config_ipc(&self, spec: &str, mode: Mode) -> f64 {
        let sum = |field| self.config_sum(spec, mode, field);
        ratio(sum(|c| c.ops), sum(|c| c.cycles))
    }

    /// Harmonic mean of the per-program IPCs of a configuration — the
    /// paper's cross-benchmark aggregate (`HMEAN`, Figure 7). `None` when
    /// the configuration has no cells or any program's IPC is non-positive
    /// (e.g. every loop failed).
    #[must_use]
    pub fn config_hmean(&self, spec: &str, mode: Mode) -> Option<f64> {
        let ipcs: Vec<f64> = self.config_cells(spec, mode).map(CellResult::ipc).collect();
        (!ipcs.is_empty() && ipcs.iter().all(|&ipc| ipc > 0.0)).then(|| harmonic_mean(&ipcs))
    }

    /// Suite-wide executed-instruction overhead of a configuration.
    #[must_use]
    pub fn config_overhead(&self, spec: &str, mode: Mode) -> f64 {
        let sum = |field| self.config_sum(spec, mode, field);
        ratio(sum(|c| c.added_ops), sum(|c| c.ops))
    }

    /// Iteration-weighted mean II of a configuration.
    #[must_use]
    pub fn config_mean_ii(&self, spec: &str, mode: Mode) -> f64 {
        let sum = |field| self.config_sum(spec, mode, field);
        ratio(sum(|c| c.weighted_ii), sum(|c| c.dyn_iters))
    }

    /// Total compile failures across every cell.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.cells.iter().map(|c| c.failures).sum()
    }

    /// Whether the grid ran the given mode.
    #[must_use]
    pub fn has_mode(&self, mode: Mode) -> bool {
        self.modes.contains(&mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SuiteGrid;
    use crate::runner::run_suite;

    fn report() -> SuiteReport {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "mgrid".into()])
            .with_specs(vec!["4c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(2);
        run_suite(&grid, 2).unwrap()
    }

    #[test]
    fn aggregates_are_consistent() {
        let r = report();
        assert_eq!(r.suite_loops, 4);
        let total = r.config_ipc("4c1b2l64r", Mode::Replicate);
        assert!(total > 0.0);
        let hmean = r.config_hmean("4c1b2l64r", Mode::Replicate).unwrap();
        // HMEAN is dominated by the slowest program; both are positive.
        assert!(hmean > 0.0);
        assert!(r.config_mean_ii("4c1b2l64r", Mode::Baseline) >= 1.0);
    }

    #[test]
    fn replication_beats_baseline_on_comm_bound_programs() {
        let r = report();
        // tomcatv is the paper's 65%-speedup case; at the very least
        // replication must not lose to baseline on this machine.
        let base = r.cell("4c1b2l64r", Mode::Baseline, "tomcatv").unwrap();
        let repl = r.cell("4c1b2l64r", Mode::Replicate, "tomcatv").unwrap();
        assert!(repl.ipc() >= base.ipc() - 1e-12);
    }

    #[test]
    fn missing_cells_are_none() {
        let r = report();
        assert!(r
            .cell("4c1b2l64r", Mode::ZeroBusLatency, "tomcatv")
            .is_none());
        assert!(r.cell("unified", Mode::Baseline, "tomcatv").is_none());
        assert!(!r.has_mode(Mode::ZeroBusLatency));
    }
}
