//! Wall-clock benchmarking of suite compilation — the measurement layer
//! every perf PR lands with.
//!
//! [`bench_suite`] runs the same validated grid the suite runs, but times
//! it: `warmup` untimed passes to populate caches and settle the CPU, then
//! `runs` measured passes, reporting the **median** total wall clock, the
//! derived cells-per-second throughput, and the median wall clock of every
//! (machine × program) work unit. [`emit_bench_json`] renders the report as
//! the `BENCH_compile.json` document the CLI's `cvliw bench` subcommand
//! writes.
//!
//! Timing is inherently machine-dependent; the JSON is a measurement
//! artifact, **not** part of the determinism contract (`docs/RESULTS.md`
//! and the golden emitter files never contain a timestamp or a duration).

use std::fmt::Write as _;
use std::time::Instant;

use cvliw_replicate::{Stage, WorkCounts};

use crate::grid::SuiteGrid;
use crate::runner::{prepare, run_pool, SuiteError};

/// Median wall clock of one (machine × program) work unit: all modes of
/// the pair, every loop, one shared `LoopAnalysis` per loop.
#[derive(Clone, Debug, PartialEq)]
pub struct PairTiming {
    /// Machine specification string.
    pub spec: String,
    /// Benchmark program name.
    pub program: String,
    /// Median wall-clock milliseconds across the measured runs.
    pub wall_ms: f64,
}

/// One of the slowest work units, with its wall clock split by stage —
/// the `pairs_top` section of `BENCH_compile.json`, which answers "where
/// would a perf PR aim" without re-deriving it from the 60 pair rows.
#[derive(Clone, Debug, PartialEq)]
pub struct PairStageTiming {
    /// Machine specification string.
    pub spec: String,
    /// Benchmark program name.
    pub program: String,
    /// Median wall-clock milliseconds across the measured runs.
    pub wall_ms: f64,
    /// Median per-stage milliseconds of this pair, in
    /// `cvliw_replicate::Stage` order.
    pub stage_ms: [f64; 4],
}

/// The result of one [`bench_suite`] call.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Measured runs (the median is taken over these).
    pub runs: usize,
    /// Untimed warmup passes that preceded the measurement.
    pub warmup: usize,
    /// Worker threads used.
    pub jobs: usize,
    /// Cells in the grid.
    pub cells: usize,
    /// Loops per configuration (after any `max_loops` cap).
    pub loops_per_config: usize,
    /// Per-run total wall-clock milliseconds, in run order.
    pub run_wall_ms: Vec<f64>,
    /// Median total wall-clock milliseconds.
    pub total_wall_ms: f64,
    /// Cells compiled per second at the median total.
    pub cells_per_sec: f64,
    /// Median per-stage wall-clock milliseconds summed over all pairs, in
    /// `cvliw_replicate::Stage` order (analysis, partition+refine,
    /// replicate, schedule). Shows where compile time goes so a perf PR
    /// can aim before it fires.
    pub stage_ms: [f64; 4],
    /// Host-independent work counts of the last measured run. Every run
    /// compiles the same grid, so every run counts the same, at any worker
    /// count.
    pub work: WorkCounts,
    /// Median per-pair timings, spec-major then program (grid order).
    pub pairs: Vec<PairTiming>,
    /// The slowest pairs (at most ten), heaviest first, each with its
    /// per-stage split. Ties break toward grid order, so the section is a
    /// pure function of the medians.
    pub pairs_top: Vec<PairStageTiming>,
    /// Loopback serve replay of the same grid (`cvliw bench --serve`);
    /// `None` when the serving layer was not benched.
    pub serve: Option<crate::serve_bench::ServeReport>,
    /// Persistence-backed restart replay (`cvliw bench --serve
    /// --restart`); `None` when the restart leg was not benched.
    pub serve_restart: Option<crate::serve_bench::ServeRestartReport>,
}

/// Median of a non-empty slice (mean of the two middles for even lengths).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Times suite compilation over `grid`: `warmup` untimed passes, then
/// `runs` measured passes (median-reported). `runs` is clamped to at
/// least 1.
///
/// # Errors
///
/// Returns [`SuiteError`] for the same invalid grids [`crate::run_suite`]
/// rejects.
pub fn bench_suite(
    grid: &SuiteGrid,
    jobs: usize,
    runs: usize,
    warmup: usize,
) -> Result<BenchReport, SuiteError> {
    let prep = prepare(grid)?;
    let runs = runs.max(1);

    for _ in 0..warmup {
        let _ = run_pool(&prep, jobs);
    }

    let mut run_wall_ms = Vec::with_capacity(runs);
    let mut pair_samples: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); prep.pair_count()];
    let mut stage_samples: [Vec<f64>; 4] = std::array::from_fn(|_| Vec::with_capacity(runs));
    let mut pair_stage_samples: Vec<[Vec<f64>; 4]> = (0..prep.pair_count())
        .map(|_| std::array::from_fn(|_| Vec::with_capacity(runs)))
        .collect();
    let mut work = WorkCounts::default();
    for _ in 0..runs {
        let started = Instant::now();
        let run = run_pool(&prep, jobs);
        run_wall_ms.push(started.elapsed().as_secs_f64() * 1e3);
        work = run.work;
        for (samples, nanos) in pair_samples.iter_mut().zip(&run.pair_nanos) {
            samples.push(*nanos as f64 / 1e6);
        }
        for (stage, samples) in stage_samples.iter_mut().enumerate() {
            let total: u64 = run.pair_stages.iter().map(|s| s[stage]).sum();
            samples.push(total as f64 / 1e6);
        }
        for (per_pair, stages) in pair_stage_samples.iter_mut().zip(&run.pair_stages) {
            for (samples, &nanos) in per_pair.iter_mut().zip(stages.iter()) {
                samples.push(nanos as f64 / 1e6);
            }
        }
    }

    let total_wall_ms = median(&mut run_wall_ms.clone());
    let stage_ms = std::array::from_fn(|i| median(&mut stage_samples[i]));
    let pairs: Vec<PairTiming> = pair_samples
        .iter_mut()
        .enumerate()
        .map(|(k, samples)| {
            let (s, j) = (k / prep.n_programs, k % prep.n_programs);
            PairTiming {
                spec: grid.specs[s].clone(),
                program: grid.programs[j].clone(),
                wall_ms: median(samples),
            }
        })
        .collect();

    // The ten heaviest pairs with their stage split, heaviest first; ties
    // break toward grid order so the section is deterministic given the
    // medians.
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_by(|&a, &b| {
        pairs[b]
            .wall_ms
            .total_cmp(&pairs[a].wall_ms)
            .then(a.cmp(&b))
    });
    let pairs_top = order
        .into_iter()
        .take(10)
        .map(|k| PairStageTiming {
            spec: pairs[k].spec.clone(),
            program: pairs[k].program.clone(),
            wall_ms: pairs[k].wall_ms,
            stage_ms: std::array::from_fn(|i| median(&mut pair_stage_samples[k][i])),
        })
        .collect();

    let loops_per_config = prep.programs.iter().map(|p| p.loops.len()).sum();
    let cells = prep.cells.len();
    Ok(BenchReport {
        runs,
        warmup,
        jobs: prep.effective_jobs(jobs),
        cells,
        loops_per_config,
        run_wall_ms,
        total_wall_ms,
        cells_per_sec: cells as f64 / (total_wall_ms / 1e3),
        stage_ms,
        work,
        pairs,
        pairs_top,
        serve: None,
        serve_restart: None,
    })
}

/// Renders a [`BenchReport`] as the `BENCH_compile.json` document.
#[must_use]
pub fn emit_bench_json(report: &BenchReport) -> String {
    let mut o = String::new();
    o.push_str("{\n  \"bench\": {\n");
    let _ = writeln!(o, "    \"runs\": {},", report.runs);
    let _ = writeln!(o, "    \"warmup\": {},", report.warmup);
    let _ = writeln!(o, "    \"jobs\": {},", report.jobs);
    let _ = writeln!(o, "    \"cells\": {},", report.cells);
    let _ = writeln!(o, "    \"loops_per_config\": {}", report.loops_per_config);
    o.push_str("  },\n  \"total\": {\n");
    let _ = writeln!(o, "    \"wall_ms\": {:.1},", report.total_wall_ms);
    let _ = writeln!(o, "    \"cells_per_sec\": {:.2},", report.cells_per_sec);
    let runs: Vec<String> = report
        .run_wall_ms
        .iter()
        .map(|ms| format!("{ms:.1}"))
        .collect();
    let _ = writeln!(o, "    \"run_wall_ms\": [{}]", runs.join(", "));
    o.push_str("  },\n  \"stage_ms\": {\n");
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let _ = write!(
            o,
            "    \"{}\": {:.1}",
            stage.name(),
            report.stage_ms[*stage as usize]
        );
        o.push_str(if i + 1 < Stage::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    // Deterministic work counts beside the clocks. No key here may be a
    // stage name: CI's gate reads the first line holding `"<stage>":`.
    o.push_str("  },\n  \"work\": {\n");
    let _ = writeln!(
        o,
        "    \"schedule_attempts_run\": {},",
        report.work.schedule_attempts_run
    );
    let _ = writeln!(
        o,
        "    \"schedule_attempts_reused\": {},",
        report.work.schedule_attempts_reused
    );
    let _ = writeln!(
        o,
        "    \"asap_speculations\": {},",
        report.work.asap_speculations
    );
    let _ = writeln!(o, "    \"asap_pops\": {},", report.work.asap_pops);
    let _ = writeln!(
        o,
        "    \"refine_bound_rejections\": {},",
        report.work.refine_bound_rejections
    );
    let _ = writeln!(o, "    \"coarsen_rounds\": {},", report.work.coarsen_rounds);
    let _ = writeln!(o, "    \"seed_moves\": {},", report.work.seed_moves);
    let _ = writeln!(
        o,
        "    \"sched_len_rounds\": {},",
        report.work.sched_len_rounds
    );
    let _ = writeln!(
        o,
        "    \"sched_len_candidates\": {},",
        report.work.sched_len_candidates
    );
    let _ = writeln!(
        o,
        "    \"sched_len_commits\": {}",
        report.work.sched_len_commits
    );
    // Per-stage share of the median total wall clock. On one worker the
    // shares nearly sum to 1; with more workers (or seed racing) the
    // buckets are CPU time against an elapsed total, so the sum exceeds it.
    o.push_str("  },\n  \"stage_share\": {\n");
    for (i, stage) in Stage::ALL.iter().enumerate() {
        let share = if report.total_wall_ms > 0.0 {
            report.stage_ms[*stage as usize] / report.total_wall_ms
        } else {
            0.0
        };
        let _ = write!(o, "    \"{}\": {share:.3}", stage.name());
        o.push_str(if i + 1 < Stage::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    // Key naming is deliberate: no key (or key-bearing line) in this
    // section may contain the literal `"spec"` or `"wall_ms"` byte
    // sequences — the committed book's pair rows are recovered by exactly
    // that line filter (see CI's awk extraction). `unit` carries "<spec> <program>" and `ms` the wall
    // clock, keeping both quoted sequences out.
    o.push_str("  },\n  \"pairs_top\": [\n");
    for (i, p) in report.pairs_top.iter().enumerate() {
        let _ = write!(
            o,
            "    {{\"unit\": \"{} {}\", \"ms\": {:.2}",
            p.spec, p.program, p.wall_ms
        );
        for stage in Stage::ALL {
            let _ = write!(
                o,
                ", \"{}_ms\": {:.2}",
                stage.name(),
                p.stage_ms[stage as usize]
            );
        }
        o.push('}');
        o.push_str(if i + 1 < report.pairs_top.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    o.push_str("  ],\n");
    if let Some(serve) = &report.serve {
        // Same filter discipline: `cold_wall_ms`/`warm_wall_ms` keep the
        // quote character away from `wall_ms`.
        o.push_str("  \"serve\": {\n");
        let _ = writeln!(o, "    \"requests\": {},", serve.requests);
        let _ = writeln!(o, "    \"jobs\": {},", serve.jobs);
        let _ = writeln!(o, "    \"cold_wall_ms\": {:.1},", serve.cold_wall_ms);
        let _ = writeln!(o, "    \"warm_wall_ms\": {:.1},", serve.warm_wall_ms);
        let _ = writeln!(o, "    \"cold_requests_per_sec\": {:.0},", serve.cold_rps);
        let _ = writeln!(o, "    \"warm_requests_per_sec\": {:.0},", serve.warm_rps);
        let _ = writeln!(o, "    \"warm_hit_rate\": {:.3},", serve.warm_hit_rate);
        let _ = writeln!(o, "    \"errors\": {}", serve.errors);
        o.push_str("  },\n");
    }
    if let Some(restart) = &report.serve_restart {
        // Same filter discipline as the serve section: `restart_wall_ms`
        // and friends keep the quote character away from `wall_ms` and
        // `spec`, so the pair-row recovery never matches these lines.
        o.push_str("  \"serve_restart\": {\n");
        let _ = writeln!(o, "    \"restart_requests\": {},", restart.requests);
        let _ = writeln!(o, "    \"restart_jobs\": {},", restart.jobs);
        let _ = writeln!(o, "    \"loaded_entries\": {},", restart.loaded_entries);
        let _ = writeln!(
            o,
            "    \"restart_wall_ms\": {:.1},",
            restart.restart_wall_ms
        );
        let _ = writeln!(
            o,
            "    \"restart_requests_per_sec\": {:.0},",
            restart.restart_rps
        );
        let _ = writeln!(
            o,
            "    \"restart_hit_rate\": {:.3}",
            restart.restart_hit_rate
        );
        o.push_str("  },\n");
    }
    o.push_str("  \"pairs\": [\n");
    for (i, p) in report.pairs.iter().enumerate() {
        let _ = write!(
            o,
            "    {{\"spec\": \"{}\", \"program\": \"{}\", \"wall_ms\": {:.2}}}",
            p.spec, p.program, p.wall_ms
        );
        o.push_str(if i + 1 < report.pairs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    o.push_str("  ]\n}\n");
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_replicate::Mode;

    fn tiny_grid() -> SuiteGrid {
        SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into()])
            .with_specs(vec!["2c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(1)
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn bench_reports_grid_shape_and_timings() {
        let report = bench_suite(&tiny_grid(), 1, 2, 0).unwrap();
        assert_eq!(report.cells, 2);
        assert_eq!(report.loops_per_config, 1);
        assert_eq!(report.runs, 2);
        assert_eq!(report.run_wall_ms.len(), 2);
        assert_eq!(report.pairs.len(), 1);
        assert_eq!(report.pairs[0].spec, "2c1b2l64r");
        assert_eq!(report.pairs[0].program, "tomcatv");
        assert!(report.total_wall_ms > 0.0);
        assert!(report.cells_per_sec > 0.0);
        assert!(report.pairs[0].wall_ms > 0.0);
    }

    #[test]
    fn zero_runs_is_clamped_to_one() {
        let report = bench_suite(&tiny_grid(), 1, 0, 0).unwrap();
        assert_eq!(report.runs, 1);
        assert_eq!(report.run_wall_ms.len(), 1);
    }

    #[test]
    fn bad_grid_is_rejected() {
        let grid = tiny_grid().with_specs(vec!["nope".into()]);
        assert!(matches!(
            bench_suite(&grid, 1, 1, 0),
            Err(SuiteError::Spec { .. })
        ));
    }

    #[test]
    fn work_counts_are_identical_across_runs_and_jobs() {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "wave5".into()])
            .with_specs(vec!["2c1b2l64r".into(), "4c1b2l64r".into()])
            .with_max_loops(2);
        let first = bench_suite(&grid, 1, 1, 0).unwrap().work;
        let second = bench_suite(&grid, 1, 1, 0).unwrap().work;
        let two_jobs = bench_suite(&grid, 2, 2, 0).unwrap().work;
        assert_eq!(first, second, "two runs counted differently");
        assert_eq!(first, two_jobs, "--jobs 2 counted differently");
        assert!(first.schedule_attempts_run > 0);
        assert!(
            first.schedule_attempts_reused > 0,
            "all five modes share each context, so some attempt repeats: {first:?}"
        );
        assert!(
            first.asap_speculations > 0 && first.asap_pops > 0,
            "refinement scored no move incrementally: {first:?}"
        );
        assert!(
            first.coarsen_rounds > 0 && first.seed_moves > 0,
            "no seed partition coarsened or moved: {first:?}"
        );
        assert!(
            first.sched_len_rounds > 0 && first.sched_len_candidates > 0,
            "the schedule-length extension priced nothing: {first:?}"
        );
    }

    #[test]
    fn work_section_follows_stage_ms_and_names_no_stage() {
        let report = bench_suite(&tiny_grid(), 1, 1, 0).unwrap();
        let json = emit_bench_json(&report);
        let work = json.find("\"work\"").expect("work section");
        let stage_ms = json.find("\"stage_ms\"").unwrap();
        let stage_share = json.find("\"stage_share\"").unwrap();
        assert!(stage_ms < work && work < stage_share);
        let section = &json[work..stage_share];
        assert!(section.contains(&format!(
            "\"schedule_attempts_run\": {}",
            report.work.schedule_attempts_run
        )));
        assert!(section.contains("\"schedule_attempts_reused\""));
        assert!(section.contains(&format!(
            "\"asap_speculations\": {}",
            report.work.asap_speculations
        )));
        assert!(section.contains(&format!("\"asap_pops\": {},", report.work.asap_pops)));
        assert!(section.contains(&format!(
            "\"refine_bound_rejections\": {},",
            report.work.refine_bound_rejections
        )));
        assert!(section.contains(&format!(
            "\"coarsen_rounds\": {},",
            report.work.coarsen_rounds
        )));
        assert!(section.contains(&format!("\"seed_moves\": {},", report.work.seed_moves)));
        assert!(section.contains(&format!(
            "\"sched_len_rounds\": {},",
            report.work.sched_len_rounds
        )));
        assert!(section.contains(&format!(
            "\"sched_len_candidates\": {},",
            report.work.sched_len_candidates
        )));
        assert!(section.contains(&format!(
            "\"sched_len_commits\": {}\n",
            report.work.sched_len_commits
        )));
        for stage in Stage::ALL {
            assert!(!section.contains(&format!("\"{}\":", stage.name())));
        }
    }

    #[test]
    fn json_has_the_advertised_shape() {
        let report = bench_suite(&tiny_grid(), 1, 1, 0).unwrap();
        let json = emit_bench_json(&report);
        assert!(json.contains("\"total\""));
        assert!(json.contains("\"cells_per_sec\""));
        assert!(json.contains("\"stage_ms\""));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}\"", stage.name())));
        }
        assert!(json.contains("\"pairs\""));
        assert!(json.contains("\"tomcatv\""));
    }

    #[test]
    fn serve_section_renders_and_stays_out_of_the_pair_filter() {
        let mut report = bench_suite(&tiny_grid(), 1, 1, 0).unwrap();
        report.serve = Some(crate::serve_bench::ServeReport {
            requests: 120,
            jobs: 2,
            cold_wall_ms: 80.0,
            warm_wall_ms: 5.0,
            cold_rps: 1500.0,
            warm_rps: 24000.0,
            warm_hit_rate: 1.0,
            errors: 0,
        });
        report.serve_restart = Some(crate::serve_bench::ServeRestartReport {
            requests: 120,
            jobs: 2,
            loaded_entries: 120,
            restart_wall_ms: 6.0,
            restart_rps: 20000.0,
            restart_hit_rate: 1.0,
        });
        let json = emit_bench_json(&report);
        assert!(json.contains("\"serve\": {"));
        assert!(json.contains("\"warm_hit_rate\": 1.000"));
        assert!(json.contains("\"serve_restart\": {"));
        assert!(json.contains("\"restart_hit_rate\": 1.000"));
        assert!(json.contains("\"loaded_entries\": 120"));
        // The committed book's pair rows are recovered by filtering lines
        // that contain both `"spec"` and `"wall_ms"`; CI's regression awk
        // keys on the *first* `"wall_ms"` line. The serve section must
        // never collide with either filter.
        for line in json.lines().filter(|l| l.contains("\"wall_ms\"")) {
            assert!(
                !line.contains("cold_") && !line.contains("warm_"),
                "serve keys leaked into the wall_ms filter: {line}"
            );
        }
        let first_wall = json
            .lines()
            .find(|l| l.contains("\"wall_ms\""))
            .expect("total wall_ms line");
        assert!(
            first_wall.trim_start().starts_with("\"wall_ms\""),
            "{first_wall}"
        );
        assert!(
            !json
                .lines()
                .any(|l| l.contains("\"serve\"") && l.contains("\"spec\"")),
            "serve section must not look like a pair row"
        );
    }

    #[test]
    fn stage_breakdown_sums_to_total_wall_clock() {
        // One worker and no seed racing: every stage bucket is wall clock
        // the single thread actually spent compiling, so the four buckets
        // must account for nearly all of the measured run — the remainder
        // is per-loop bookkeeping and pool overhead. (With seed racing
        // the sum may legitimately exceed the total: every raced seed's
        // thread time is charged to the partition bucket.)
        let grid = tiny_grid().with_max_loops(6);
        let report = bench_suite(&grid, 1, 1, 1).unwrap();
        let sum: f64 = report.stage_ms.iter().sum();
        assert!(
            sum >= 0.5 * report.total_wall_ms && sum <= 1.05 * report.total_wall_ms,
            "stage_ms sums to {sum:.2} ms but the run took {:.2} ms",
            report.total_wall_ms
        );
    }

    #[test]
    fn pairs_top_ranks_heaviest_first_with_stage_split() {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "mgrid".into()])
            .with_specs(vec!["2c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline, Mode::Replicate])
            .with_max_loops(2);
        let report = bench_suite(&grid, 1, 1, 0).unwrap();
        assert_eq!(report.pairs_top.len(), 2, "capped at ten, two pairs here");
        assert!(report.pairs_top[0].wall_ms >= report.pairs_top[1].wall_ms);
        // Each top entry's wall clock must be one of the pair medians and
        // its stage split must roughly account for it (pool bookkeeping is
        // the only slack).
        for top in &report.pairs_top {
            assert!(report.pairs.iter().any(|p| p.spec == top.spec
                && p.program == top.program
                && (p.wall_ms - top.wall_ms).abs() < 1e-9));
            let split: f64 = top.stage_ms.iter().sum();
            assert!(
                split <= top.wall_ms * 1.05,
                "stage split {split:.2} exceeds the unit wall {:.2}",
                top.wall_ms
            );
        }

        let json = emit_bench_json(&report);
        assert!(json.contains("\"pairs_top\": ["));
        assert!(json.contains("\"unit\": \"2c1b2l64r tomcatv\""));
        assert!(json.contains("\"stage_share\": {"));
        for stage in Stage::ALL {
            assert!(json.contains(&format!("\"{}_ms\"", stage.name())));
        }
        // The committed-book pair filter (both `"spec"` and `"wall_ms"` on
        // one line) must see exactly the pair rows — never a top entry or
        // a share line.
        let pair_rows = json
            .lines()
            .filter(|l| l.contains("\"spec\"") && l.contains("\"wall_ms\""))
            .count();
        assert_eq!(pair_rows, report.pairs.len());
        let first_wall = json
            .lines()
            .find(|l| l.contains("\"wall_ms\""))
            .expect("total wall_ms line");
        assert!(
            first_wall.trim_start().starts_with("\"wall_ms\""),
            "pairs_top must not precede the total in the wall_ms filter: {first_wall}"
        );
    }

    #[test]
    fn stage_share_is_total_relative() {
        let report = bench_suite(&tiny_grid(), 1, 1, 0).unwrap();
        let json = emit_bench_json(&report);
        let share_block: Vec<&str> = json
            .lines()
            .skip_while(|l| !l.contains("\"stage_share\""))
            .skip(1)
            .take(Stage::ALL.len())
            .collect();
        assert_eq!(share_block.len(), Stage::ALL.len());
        for (line, stage) in share_block.iter().zip(Stage::ALL) {
            assert!(line.contains(&format!("\"{}\"", stage.name())), "{line}");
        }
    }

    #[test]
    fn stage_breakdown_is_populated() {
        let report = bench_suite(&tiny_grid(), 1, 1, 0).unwrap();
        // Analysis and partitioning always run; their buckets cannot be
        // empty for a real compile.
        assert!(report.stage_ms[Stage::Analysis as usize] > 0.0);
        assert!(report.stage_ms[Stage::Partition as usize] > 0.0);
        assert!(report.stage_ms.iter().all(|&ms| ms >= 0.0));
    }
}
