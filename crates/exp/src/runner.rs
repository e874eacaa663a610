//! The suite worker pool: shard grid work across scoped threads and
//! collect results by cell index.
//!
//! The unit of work is **one loop of one (machine, program) pair** — all
//! modes of that loop run on one worker, sharing one `CompileContext`.
//! Workers pull unit indices from a shared atomic counter (dynamic
//! work-stealing — loops vary a lot in cost, fpppp's dozen huge loops vs
//! wave5's 276 small ones), but every result lands in its unit's slot, and
//! aggregation walks the slots in grid order after the pool joins. The
//! worker count therefore changes wall-clock time and nothing else:
//! `--jobs 1` and `--jobs 4` produce byte-identical reports.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use cvliw_machine::{MachineConfig, SpecError};
use cvliw_replicate::{CompileScratch, LoopStats, WorkCounts};
use cvliw_workloads::{program, program_subset, BenchmarkProgram};

use crate::cell::{compile_loop_all_modes, fold_loop, CellResult};
use crate::grid::{CellSpec, SuiteGrid};
use crate::report::SuiteReport;

/// The static cost proxy that orders pair dispatch: `Σ ops × edges` over
/// the program's loops, times the machine's cluster count. Computed from
/// the inputs alone, so dispatch never depends on a measurement artifact.
/// It ranks the paper grid's pairs close to their measured wall clocks
/// (Spearman ρ ≈ 0.92 against a single-core timing run), which is all
/// longest-first dispatch needs.
fn pair_cost(program: &BenchmarkProgram, machine: &MachineConfig) -> u64 {
    let loops: u64 = program
        .loops
        .iter()
        .map(|l| l.ddg.node_count() as u64 * l.ddg.edge_count() as u64)
        .sum();
    loops * u64::from(machine.clusters())
}

/// A suite run that could not start.
#[derive(Debug)]
pub enum SuiteError {
    /// A machine spec in the grid does not parse.
    Spec {
        /// The offending spec string.
        spec: String,
        /// The underlying parse error.
        source: SpecError,
    },
    /// A program name the workload suite does not define.
    UnknownProgram(String),
    /// The grid enumerates no cells.
    EmptyGrid,
    /// The serve-restart bench could not persist or recover its cache.
    Persist(String),
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SuiteError::Spec { spec, source } => {
                write!(f, "bad machine spec `{spec}` in grid: {source}")
            }
            SuiteError::UnknownProgram(name) => {
                write!(f, "unknown benchmark program `{name}`")
            }
            SuiteError::EmptyGrid => write!(f, "the grid enumerates no cells"),
            SuiteError::Persist(detail) => {
                write!(f, "cache persistence failed: {detail}")
            }
        }
    }
}

impl std::error::Error for SuiteError {}

/// The default worker count for suite runs: the machine's available
/// parallelism, capped at 8. The cap is a tail-latency observation, not a
/// cell-count limit: the 300-cell paper grid dispatches 60 machine×program
/// work units whose costs vary ~50×, and beyond about 8 workers the heavy
/// fpppp/applu pairs dominate the critical path while the extra threads
/// idle after the short tail drains.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
}

/// A validated, ready-to-run suite: machines, generated programs and the
/// enumerated cell list. Shared by [`run_suite`], the appendices' side
/// runs and the bench harness, whose warmup and measured runs reuse one
/// validation pass.
pub(crate) struct PreparedSuite {
    pub machines: Vec<MachineConfig>,
    pub programs: Vec<BenchmarkProgram>,
    pub cells: Vec<CellSpec>,
    pub n_programs: usize,
    pub n_modes: usize,
    /// Best-of-N refinement seeds raced per loop (from the grid).
    pub refine_seeds: u32,
    /// Pair indices in dispatch order: heaviest first by [`pair_cost`],
    /// ties in machine-major order. Work distribution only — results land
    /// in grid-order slots regardless.
    pub dispatch: Vec<usize>,
}

impl PreparedSuite {
    /// A ready-to-run suite of `machines` over `programs`, labelled by
    /// `grid`: `machines[s]` runs as `grid.specs[s]` and `programs[j]` as
    /// `grid.programs[j]`. The labels need not parse, so a machine no spec
    /// string expresses (a pipelined bus) runs under a name of its own.
    ///
    /// # Errors
    ///
    /// Returns [`SuiteError::EmptyGrid`] if the grid enumerates no cells.
    pub fn new(
        grid: &SuiteGrid,
        machines: Vec<MachineConfig>,
        programs: Vec<BenchmarkProgram>,
    ) -> Result<Self, SuiteError> {
        debug_assert_eq!(machines.len(), grid.specs.len(), "one machine per spec");
        debug_assert_eq!(programs.len(), grid.programs.len(), "one program per name");
        let cells = grid.cells();
        if cells.is_empty() {
            return Err(SuiteError::EmptyGrid);
        }

        // Longest-first dispatch: the costliest pairs go out first, so a
        // multi-worker run starts su2cor and wave5 immediately instead of
        // discovering them behind a short tail. This is scheduling only —
        // every report stays byte-identical for any `--jobs`.
        let n_programs = programs.len();
        let cost = |k: usize| pair_cost(&programs[k % n_programs], &machines[k / n_programs]);
        let mut dispatch: Vec<usize> = (0..machines.len() * n_programs).collect();
        dispatch.sort_by_key(|&k| (std::cmp::Reverse(cost(k)), k));

        Ok(PreparedSuite {
            machines,
            programs,
            cells,
            n_programs,
            n_modes: grid.modes.len(),
            refine_seeds: grid.refine_seeds,
            dispatch,
        })
    }

    /// Number of (machine, program) work units.
    pub fn pair_count(&self) -> usize {
        self.machines.len() * self.n_programs
    }

    /// The worker count the pool will actually use for a requested `jobs`
    /// (the single source of the clamp, also reported by the bench
    /// harness).
    pub fn effective_jobs(&self, jobs: usize) -> usize {
        jobs.max(1).min(self.pair_count())
    }

    /// The cell index of `(spec s, mode m, program j)` — the `cells()`
    /// order is spec-major, then mode, then program.
    fn cell_index(&self, s: usize, m: usize, j: usize) -> usize {
        (s * self.n_modes + m) * self.n_programs + j
    }
}

/// Resolves a grid's machine specs and program names: parses every spec
/// and generates every program once (workers spend their time compiling,
/// not generating).
fn resolve(grid: &SuiteGrid) -> Result<(Vec<MachineConfig>, Vec<BenchmarkProgram>), SuiteError> {
    let machines = grid
        .specs
        .iter()
        .map(|s| {
            MachineConfig::from_extended_spec(s).map_err(|source| SuiteError::Spec {
                spec: s.clone(),
                source,
            })
        })
        .collect::<Result<_, _>>()?;
    let programs = grid
        .programs
        .iter()
        .map(|name| {
            match grid.max_loops {
                Some(cap) => program_subset(name, cap),
                None => program(name),
            }
            .ok_or_else(|| SuiteError::UnknownProgram(name.clone()))
        })
        .collect::<Result<_, _>>()?;
    Ok((machines, programs))
}

/// Validates the grid up front ([`resolve`]) and prepares its suite.
pub(crate) fn prepare(grid: &SuiteGrid) -> Result<PreparedSuite, SuiteError> {
    let (machines, programs) = resolve(grid)?;
    PreparedSuite::new(grid, machines, programs)
}

/// One compiled unit of the pool: the per-mode outcomes of one loop, the
/// context's per-stage clocks and work counts, and the unit's wall time.
type LoopUnitResult = (Vec<Option<LoopStats>>, [u64; 4], WorkCounts, u64);

/// What one pass of the worker pool produced.
pub(crate) struct PoolRun {
    /// Per-cell results in grid order.
    pub(crate) results: Vec<CellResult>,
    /// Each pair's nanoseconds (indexed `spec-major × program`).
    pub(crate) pair_nanos: Vec<u64>,
    /// Each pair's per-stage nanoseconds, same indexing.
    pub(crate) pair_stages: Vec<[u64; 4]>,
    /// The work counts of every unit, summed.
    pub(crate) work: WorkCounts,
}

/// Runs the worker pool over the grid, returning the per-cell results in
/// grid order plus each pair's nanoseconds and per-stage nanoseconds and
/// the summed work counts (the bench harness reads the measurements,
/// plain suite runs drop them).
///
/// The unit of work is one **loop** of one pair: the heavy su2cor/fpppp
/// pairs do not serialize a whole worker each, so `--jobs N` cuts the
/// critical path *inside* a pair, not just across pairs. A pair's time is
/// the sum of its loops' unit clocks — CPU time, the same convention seed
/// racing uses — so the per-stage breakdown still sums to it. Units are
/// *dispatched* longest-pair-first (see [`PreparedSuite::dispatch`]) but
/// every result lands in its grid-order slot. Each worker recycles one
/// [`CompileScratch`] across all the units it runs.
pub(crate) fn run_pool(prep: &PreparedSuite, jobs: usize) -> PoolRun {
    let n_pairs = prep.pair_count();

    // Flat (pair, loop) units in dispatch order: the heaviest pair's loops
    // go out first and spread over every idle worker. Loops within a pair
    // keep their program order for the deterministic fold below.
    let units: Vec<(usize, usize)> = prep
        .dispatch
        .iter()
        .flat_map(|&k| {
            let j = k % prep.n_programs;
            (0..prep.programs[j].loops.len()).map(move |li| (k, li))
        })
        .collect();
    let pair_cells: Vec<Vec<CellSpec>> = (0..n_pairs)
        .map(|k| {
            let (s, j) = (k / prep.n_programs, k % prep.n_programs);
            (0..prep.n_modes)
                .map(|m| prep.cells[prep.cell_index(s, m, j)].clone())
                .collect()
        })
        .collect();
    let jobs = jobs.max(1).min(units.len().max(1));

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<LoopUnitResult>> = (0..units.len()).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| {
                let mut scratch = CompileScratch::default();
                loop {
                    let u = next.fetch_add(1, Ordering::Relaxed);
                    if u >= units.len() {
                        break;
                    }
                    let (k, li) = units[u];
                    let (s, j) = (k / prep.n_programs, k % prep.n_programs);
                    let started = Instant::now();
                    let (per_mode, stages, work, recycled) = compile_loop_all_modes(
                        &prep.programs[j].loops[li],
                        &prep.machines[s],
                        &pair_cells[k],
                        prep.refine_seeds,
                        std::mem::take(&mut scratch),
                    );
                    scratch = recycled;
                    let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    slots[u]
                        .set((per_mode, stages, work, nanos))
                        .expect("each unit index is claimed exactly once");
                }
            });
        }
    });

    // Deterministic fold: units are grouped per pair with loops ascending,
    // so each cell accumulates its loops in program order — scheduling
    // cannot reach a single byte.
    let mut results: Vec<CellResult> = prep.cells.iter().map(CellResult::empty).collect();
    let mut nanos = vec![0u64; n_pairs];
    let mut stages = vec![[0u64; 4]; n_pairs];
    let mut work = WorkCounts::default();
    for (slot, &(k, li)) in slots.into_iter().zip(units.iter()) {
        let (per_mode, unit_stages, unit_work, unit_nanos) =
            slot.into_inner().expect("pool completed every unit");
        let (s, j) = (k / prep.n_programs, k % prep.n_programs);
        // The pair's cells sit one program-stride apart (mode-major).
        let pair_cells = results[prep.cell_index(s, 0, j)..]
            .iter_mut()
            .step_by(prep.n_programs)
            .take(prep.n_modes);
        fold_loop(pair_cells, &prep.programs[j].loops[li], &per_mode);
        nanos[k] = nanos[k].saturating_add(unit_nanos);
        for (total, stage) in stages[k].iter_mut().zip(unit_stages) {
            *total += stage;
        }
        work.add(unit_work);
    }
    PoolRun {
        results,
        pair_nanos: nanos,
        pair_stages: stages,
        work,
    }
}

/// Runs every cell of `grid` on a pool of `jobs` worker threads and
/// aggregates the results into a [`SuiteReport`].
///
/// The report is a pure function of the grid: worker count and scheduling
/// order cannot affect a single byte of any emitted format.
///
/// # Errors
///
/// Returns [`SuiteError`] if a spec does not parse, a program is unknown,
/// or the grid is empty — all validated before any worker starts.
pub fn run_suite(grid: &SuiteGrid, jobs: usize) -> Result<SuiteReport, SuiteError> {
    let prep = prepare(grid)?;
    let run = run_pool(&prep, jobs);
    Ok(SuiteReport::new(grid, run.results, &prep.programs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_replicate::Mode;

    fn tiny_grid() -> SuiteGrid {
        SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "mgrid".into()])
            .with_specs(vec!["2c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(2)
    }

    #[test]
    fn suite_runs_and_orders_cells() {
        let report = run_suite(&tiny_grid(), 2).unwrap();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.cells[0].program, "tomcatv");
        assert_eq!(report.cells[1].program, "mgrid");
        assert_eq!(report.cells[0].mode, Mode::Baseline);
        assert_eq!(report.cells[2].mode, Mode::Replicate);
        assert_eq!(report.failures(), 0);
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let grid = tiny_grid();
        let one = run_suite(&grid, 1).unwrap();
        let many = run_suite(&grid, 7).unwrap();
        assert_eq!(one.cells, many.cells);
    }

    #[test]
    fn seed_racing_reports_are_byte_identical_across_jobs_and_vs_disabled() {
        // Best-of-N seed racing picks its winner by (score, seed-index),
        // never by thread completion order — so a raced suite must be
        // byte-identical at any worker count, and because seed 0 is the
        // canonical unperturbed pipeline (winning every score tie), it
        // must also match the seeds-disabled run whenever no perturbation
        // finds a strictly better partition, as on this subset.
        let raced = tiny_grid().with_refine_seeds(4);
        let one = run_suite(&raced, 1).unwrap();
        let four = run_suite(&raced, 4).unwrap();
        assert_eq!(
            one, four,
            "seed racing leaked thread scheduling into a report"
        );
        let disabled = run_suite(&tiny_grid(), 1).unwrap();
        assert_eq!(
            one, disabled,
            "a raced report diverged from the canonical pipeline"
        );
    }

    #[test]
    fn intra_pair_jobs_are_byte_identical() {
        // The loop-granular pool must not be able to change a single byte
        // of any emitted report at any lane count. Compare the rendered
        // bytes, not just the structs: the emitters are the determinism
        // contract.
        let grid = tiny_grid();
        let lanes1 = run_suite(&grid, 1).unwrap();
        for lanes in [2, 4] {
            let report = run_suite(&grid, lanes).unwrap();
            for format in [
                crate::Format::Text,
                crate::Format::Csv,
                crate::Format::Json,
                crate::Format::Markdown,
            ] {
                assert_eq!(
                    crate::emit(&lanes1, format),
                    crate::emit(&report, format),
                    "{lanes} lanes leaked into {format:?} bytes"
                );
            }
        }
    }

    #[test]
    fn labelled_machines_compile_like_their_specs() {
        // A label only names a machine's cells: the same machine under a
        // name no spec parser accepts yields the same sums.
        let grid = tiny_grid();
        let (machines, programs) = resolve(&grid).unwrap();
        let labelled = grid.clone().with_specs(vec!["my machine".into()]);
        let prep = PreparedSuite::new(&labelled, machines, programs).unwrap();
        let cells = run_pool(&prep, 2).results;
        let by_spec = run_suite(&grid, 1).unwrap().cells;
        assert_eq!(cells.len(), by_spec.len());
        for (mut cell, expect) in cells.into_iter().zip(by_spec) {
            assert_eq!(cell.spec, "my machine");
            cell.spec = expect.spec.clone();
            assert_eq!(cell, expect);
        }
    }

    #[test]
    fn bad_spec_is_rejected_up_front() {
        let grid = tiny_grid().with_specs(vec!["notaspec".into()]);
        assert!(matches!(run_suite(&grid, 1), Err(SuiteError::Spec { .. })));
    }

    #[test]
    fn unknown_program_is_rejected() {
        let grid = tiny_grid().with_programs(vec!["gcc".into()]);
        assert!(matches!(
            run_suite(&grid, 1),
            Err(SuiteError::UnknownProgram(_))
        ));
    }

    #[test]
    fn empty_grid_is_rejected() {
        let grid = tiny_grid().with_modes(vec![]);
        assert!(matches!(run_suite(&grid, 1), Err(SuiteError::EmptyGrid)));
    }

    #[test]
    fn dispatch_is_a_longest_first_permutation() {
        let grid = SuiteGrid::paper().with_max_loops(1);
        let prep = prepare(&grid).unwrap();
        let mut sorted = prep.dispatch.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..prep.pair_count()).collect::<Vec<_>>());

        // Dispatch order must walk the static cost proxy in
        // non-increasing order.
        let cost = |k: usize| {
            pair_cost(
                &prep.programs[k % prep.n_programs],
                &prep.machines[k / prep.n_programs],
            )
        };
        for pair in prep.dispatch.windows(2) {
            assert!(cost(pair[0]) >= cost(pair[1]), "not longest-first");
        }
    }
}
