//! Golden-file and determinism tests for the suite report emitters.
//!
//! The golden files under `tests/golden/` pin the exact bytes of every
//! machine-readable format for a small fixed grid. If an emitter change is
//! intentional, regenerate them (and `docs/RESULTS.md`) with:
//!
//! ```text
//! CVLIW_UPDATE_GOLDEN=1 cargo test -p cvliw_exp --test emitters
//! cargo run --release --bin cvliw -- suite --jobs 4 --format md
//! ```

use std::path::PathBuf;

use cvliw_exp::{emit, emit_appendices, run_suite, Format, SuiteGrid, SuiteReport};
use cvliw_replicate::Mode;

/// The fixed grid the golden files were generated from: two programs with
/// opposite characters (communication-bound tomcatv, decoupled mgrid), a
/// 2- and a 4-cluster machine, the two headline modes, two loops each.
fn golden_grid() -> SuiteGrid {
    SuiteGrid::paper()
        .with_programs(vec!["tomcatv".into(), "mgrid".into()])
        .with_specs(vec!["2c1b2l64r".into(), "4c2b2l64r".into()])
        .with_modes(vec![Mode::Baseline, Mode::Replicate])
        .with_max_loops(2)
}

fn golden_report() -> SuiteReport {
    run_suite(&golden_grid(), 2).expect("golden grid runs")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("CVLIW_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e} (run with CVLIW_UPDATE_GOLDEN=1)",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden file; if intentional, regenerate \
         with CVLIW_UPDATE_GOLDEN=1 cargo test -p cvliw_exp --test emitters\n\
         --- golden ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// The topology golden grid: one paper machine plus a ring and a crossbar,
/// pinning the appendix rendering (the acceptance criterion for the
/// interconnect refactor) — main sections must show only the shared-bus
/// machine, the appendix only the point-to-point ones.
fn topology_grid() -> SuiteGrid {
    SuiteGrid::paper()
        .with_programs(vec!["tomcatv".into(), "mgrid".into()])
        .with_specs(vec![
            "4c1b2l64r".into(),
            "4c-ring1l64r".into(),
            "4c-xbar1l64r".into(),
        ])
        .with_modes(vec![Mode::Baseline, Mode::Replicate])
        .with_max_loops(2)
}

#[test]
fn json_matches_golden() {
    check_golden("small.json", &emit(&golden_report(), Format::Json));
}

#[test]
fn topology_markdown_matches_golden() {
    let report = run_suite(&topology_grid(), 2).expect("topology grid runs");
    let md = emit(&report, Format::Markdown);
    // Structure first: the paper sections cover only the shared-bus
    // machine, the appendix only the fabrics.
    assert!(
        md.contains("## Appendix A. Point-to-point topology grid"),
        "{md}"
    );
    let (main, appendix) = md.split_once("## Appendix A.").unwrap();
    assert!(main.contains("`4c1b2l64r`"));
    assert!(!main.contains("4c-ring1l64r") && !main.contains("4c-xbar1l64r"));
    assert!(appendix.contains("`4c-ring1l64r`") && appendix.contains("`4c-xbar1l64r`"));
    assert!(appendix.contains("Replication win by topology"));
    check_golden("topology.md", &md);
}

/// A shared-bus-only grid must not grow an appendix — the paper book's
/// bytes are governed by `small.md`; this pins the absence explicitly.
#[test]
fn shared_bus_grids_have_no_appendix() {
    let md = emit(&golden_report(), Format::Markdown);
    assert!(!md.contains("Appendix"), "{md}");
}

/// The book's appendices B onwards on a one-loop-per-program paper grid:
/// pins every appendix generator's bytes, including the side runs over
/// re-seeded suites, pipelined buses and unrolled loops.
#[test]
fn appendices_match_golden() {
    let grid = SuiteGrid::paper()
        .with_programs(vec!["tomcatv".into(), "mgrid".into()])
        .with_max_loops(1);
    let report = run_suite(&grid, 2).expect("capped paper grid runs");
    let appendices = emit_appendices(&report, 2).expect("appendices render");
    check_golden("appendices.md", &appendices);
}

#[test]
fn csv_matches_golden() {
    check_golden("small.csv", &emit(&golden_report(), Format::Csv));
}

#[test]
fn markdown_matches_golden() {
    check_golden("small.md", &emit(&golden_report(), Format::Markdown));
}

#[test]
fn text_matches_golden() {
    check_golden("small.txt", &emit(&golden_report(), Format::Text));
}

/// The acceptance-criterion invariant: the worker count must not change a
/// single byte of any emitted format.
#[test]
fn jobs_1_and_jobs_4_emit_identical_reports() {
    let grid = golden_grid();
    let one = run_suite(&grid, 1).expect("jobs=1 runs");
    let four = run_suite(&grid, 4).expect("jobs=4 runs");
    for format in [Format::Json, Format::Csv, Format::Markdown, Format::Text] {
        assert_eq!(
            emit(&one, format),
            emit(&four, format),
            "{} output depends on the worker count",
            format.name()
        );
    }
}

/// JSON output stays structurally sane: balanced braces, no NaN/inf leaks.
#[test]
fn json_is_well_formed_enough() {
    let json = emit(&golden_report(), Format::Json);
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "unbalanced braces");
    assert_eq!(json.matches('[').count(), json.matches(']').count());
    assert!(!json.contains("NaN") && !json.contains("inf"), "{json}");
    assert!(json.ends_with("}\n"));
}

/// CSV has exactly one row per cell plus the header, all with the same
/// column count.
#[test]
fn csv_row_and_column_counts_match_the_grid() {
    let report = golden_report();
    let csv = emit(&report, Format::Csv);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + report.cells.len());
    let columns = lines[0].split(',').count();
    for line in &lines {
        assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
    }
}
