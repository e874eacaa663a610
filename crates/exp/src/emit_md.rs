//! The Markdown results book: a checked-in, regenerable document
//! (`docs/RESULTS.md`) reproducing the shape of the paper's Table 1 and
//! Figures 7, 9, 10 and 12 from a [`SuiteReport`].
//!
//! Sections render only when the grid actually covered the modes they
//! compare, so a restricted run (say `--mode baseline`) still produces a
//! valid, smaller book. No timestamps, hostnames or float nondeterminism:
//! the same grid always emits byte-identical Markdown.

use std::fmt::Write as _;

use cvliw_ddg::OpClass;
use cvliw_machine::MachineConfig;
use cvliw_replicate::Mode;

use crate::report::SuiteReport;

pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

fn hmean_cell(report: &SuiteReport, spec: &str, mode: Mode) -> String {
    match report.config_hmean(spec, mode) {
        Some(h) => format!("{h:.2}"),
        None => "—".to_string(),
    }
}

/// Whether a spec names a point-to-point fabric (appendix material): the
/// main sections reproduce the paper and must stay byte-identical to a
/// shared-bus-only run, so topology machines render separately.
fn is_topology_spec(spec: &str) -> bool {
    MachineConfig::from_extended_spec(spec)
        .map(|m| !m.interconnect().is_shared_bus())
        .unwrap_or(false)
}

/// Compile failures across the cells of the given specs only — sections
/// must report their own machines' failures, not the whole grid's, or the
/// appendix would perturb the paper sections' bytes.
fn failures_in(report: &SuiteReport, specs: &[String]) -> usize {
    report
        .cells
        .iter()
        .filter(|c| specs.contains(&c.spec))
        .map(|c| c.failures)
        .sum()
}

/// Renders the whole results book.
///
/// The paper's shared-bus machines fill the main sections; any
/// point-to-point machines in the grid render into a trailing appendix, so
/// adding the topology grid never changes a byte of the paper sections. A
/// topology-only grid (e.g. `--machine 4c-ring1l64r`) skips the empty
/// paper sections and lets the header describe the appendix grid.
#[must_use]
pub fn emit_markdown(report: &SuiteReport) -> String {
    let (main, appendix): (Vec<String>, Vec<String>) = report
        .specs
        .iter()
        .cloned()
        .partition(|s| !is_topology_spec(s));
    let mut o = String::new();
    let described = if main.is_empty() { &appendix } else { &main };
    header(&mut o, report, described);
    if !main.is_empty() {
        machine_table(&mut o, &main);
        ipc_tables(&mut o, report, &main);
        applu_ii_table(&mut o, report, &main);
        sched_len_table(&mut o, report, &main);
        overhead_table(&mut o, report, &main);
        comms_table(&mut o, report, &main);
    }
    topology_appendix(&mut o, report, &appendix, !main.is_empty());
    o
}

fn header(o: &mut String, report: &SuiteReport, specs: &[String]) {
    o.push_str("# Results book\n\n");
    o.push_str(
        "> **Generated file — do not edit.** Regenerate with\n\
         > `cargo run --release --bin cvliw -- suite --jobs 4 --format md`.\n\
         > CI checks that this file matches what the command produces.\n\n",
    );
    let _ = writeln!(
        o,
        "Synthetic stand-in for the paper's 678-loop SPECfp95 suite \
         (see `crates/workloads`): **{} loops** across **{} programs**, \
         compiled for **{} machine configurations** under **{} modes** \
         ({} cells), profile-weighted by `visits × iterations` and timed \
         with the paper's `(N − 1 + SC)·II` model.",
        report.suite_loops,
        report.programs.len(),
        specs.len(),
        report.modes.len(),
        specs.len() * report.modes.len() * report.programs.len()
    );
    o.push('\n');
    if let Some(cap) = report.max_loops {
        let _ = writeln!(
            o,
            "**Reduced grid:** capped at {cap} loops per program — \
             figures below are not the full-suite numbers.\n"
        );
    }
    let failures = failures_in(report, specs);
    if failures > 0 {
        let _ = writeln!(
            o,
            "**⚠ {failures} loop compilations failed** — figures below \
             exclude the failing loops.\n"
        );
    }
    let _ = writeln!(
        o,
        "Modes: {}.\n",
        report
            .modes
            .iter()
            .map(|m| format!("`{}`", m.name()))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn machine_table(o: &mut String, specs: &[String]) {
    o.push_str("## 1. Machine configurations (Table 1)\n\n");
    o.push_str(
        "Specs read `<clusters>c<buses>b<bus-latency>l<registers>r`; \
         every cluster holds the same slice of the 12-wide machine.\n\n",
    );
    o.push_str("| config | clusters | INT | FP | MEM | regs/cluster | buses | bus latency |\n");
    o.push_str("|---|---:|---:|---:|---:|---:|---:|---:|\n");
    for spec in specs {
        // Specs were validated when the suite ran; an unparsable one here
        // means the report was hand-built, so render a placeholder row.
        match MachineConfig::from_extended_spec(spec) {
            Ok(m) => {
                let _ = writeln!(
                    o,
                    "| `{spec}` | {} | {} | {} | {} | {} | {} | {} |",
                    m.clusters(),
                    m.fu_count(OpClass::Int),
                    m.fu_count(OpClass::Fp),
                    m.fu_count(OpClass::Mem),
                    m.regs_per_cluster(),
                    m.buses(),
                    m.bus_latency()
                );
            }
            Err(_) => {
                let _ = writeln!(o, "| `{spec}` | — | — | — | — | — | — | — |");
            }
        }
    }
    o.push('\n');
}

fn ipc_tables(o: &mut String, report: &SuiteReport, specs: &[String]) {
    o.push_str("## 2. IPC by configuration (Figure 7)\n\n");
    o.push_str(
        "Profile-weighted IPC of **original** operations (replicas and bus \
         copies are overhead, not work). `HMEAN` is the paper's \
         cross-benchmark aggregate; `TOTAL` weighs programs by their \
         dynamic operation counts.\n\n",
    );
    let speedup = report.has_mode(Mode::Baseline) && report.has_mode(Mode::Replicate);
    for spec in specs {
        ipc_table_for(o, report, spec, speedup);
    }
}

/// One configuration's per-program IPC table (shared between the main
/// Figure-7 section and the topology appendix).
fn ipc_table_for(o: &mut String, report: &SuiteReport, spec: &str, speedup: bool) {
    let _ = writeln!(o, "### `{spec}`\n");
    let _ = write!(o, "| program |");
    for &mode in &report.modes {
        let _ = write!(o, " {} |", mode.name());
    }
    if speedup {
        o.push_str(" repl/base |");
    }
    o.push('\n');
    let _ = write!(o, "|---|");
    for _ in &report.modes {
        o.push_str("---:|");
    }
    if speedup {
        o.push_str("---:|");
    }
    o.push('\n');
    for program in &report.programs {
        let _ = write!(o, "| {program} |");
        for &mode in &report.modes {
            match report.cell(spec, mode, program) {
                Some(c) => {
                    let _ = write!(o, " {:.2} |", c.ipc());
                }
                None => o.push_str(" — |"),
            }
        }
        if speedup {
            let base = report.cell(spec, Mode::Baseline, program);
            let repl = report.cell(spec, Mode::Replicate, program);
            match (base, repl) {
                (Some(b), Some(r)) if b.ipc() > 0.0 => {
                    let _ = write!(o, " {} |", pct(r.ipc() / b.ipc() - 1.0));
                }
                _ => o.push_str(" — |"),
            }
        }
        o.push('\n');
    }
    let _ = write!(o, "| **HMEAN** |");
    for &mode in &report.modes {
        let _ = write!(o, " {} |", hmean_cell(report, spec, mode));
    }
    if speedup {
        match (
            report.config_hmean(spec, Mode::Baseline),
            report.config_hmean(spec, Mode::Replicate),
        ) {
            (Some(b), Some(r)) if b > 0.0 => {
                let _ = write!(o, " **{}** |", pct(r / b - 1.0));
            }
            _ => o.push_str(" — |"),
        }
    }
    o.push('\n');
    let _ = write!(o, "| **TOTAL** |");
    for &mode in &report.modes {
        let _ = write!(o, " {:.2} |", report.config_ipc(spec, mode));
    }
    if speedup {
        let b = report.config_ipc(spec, Mode::Baseline);
        let r = report.config_ipc(spec, Mode::Replicate);
        if b > 0.0 {
            let _ = write!(o, " **{}** |", pct(r / b - 1.0));
        } else {
            o.push_str(" — |");
        }
    }
    o.push_str("\n\n");
}

fn applu_ii_table(o: &mut String, report: &SuiteReport, specs: &[String]) {
    if !report.programs.iter().any(|p| p == "applu")
        || !report.has_mode(Mode::Baseline)
        || !report.has_mode(Mode::Replicate)
    {
        return;
    }
    o.push_str("## 3. applu: II reduction vs IPC (Figure 9)\n\n");
    o.push_str(
        "applu's loops run ~4 iterations per visit, so prologue/epilogue \
         dominate and a large II reduction barely moves IPC — the paper's \
         argument for reporting both. II is the iteration-weighted mean.\n\n",
    );
    o.push_str("| config | base II | repl II | II reduction | base IPC | repl IPC | IPC gain |\n");
    o.push_str("|---|---:|---:|---:|---:|---:|---:|\n");
    for spec in specs {
        let base = report.cell(spec, Mode::Baseline, "applu");
        let repl = report.cell(spec, Mode::Replicate, "applu");
        let (Some(b), Some(r)) = (base, repl) else {
            continue;
        };
        let ii_red = if b.mean_ii() > 0.0 {
            pct(1.0 - r.mean_ii() / b.mean_ii())
        } else {
            "—".into()
        };
        let gain = if b.ipc() > 0.0 {
            pct(r.ipc() / b.ipc() - 1.0)
        } else {
            "—".into()
        };
        let _ = writeln!(
            o,
            "| `{spec}` | {:.2} | {:.2} | {ii_red} | {:.2} | {:.2} | {gain} |",
            b.mean_ii(),
            r.mean_ii(),
            b.ipc(),
            r.ipc()
        );
    }
    o.push('\n');
}

fn sched_len_table(o: &mut String, report: &SuiteReport, specs: &[String]) {
    if !report.has_mode(Mode::Replicate)
        || !report.has_mode(Mode::ReplicateSchedLen)
        || !report.has_mode(Mode::ZeroBusLatency)
    {
        return;
    }
    o.push_str("## 4. Schedule-length potential (Figure 12)\n\n");
    o.push_str(
        "HMEAN IPC of replication, the §5.1 schedule-length extension, and \
         the zero-bus-latency upper bound (bandwidth still charged). \
         *potential* is how much headroom the upper bound leaves; \
         *realized* is what the extension captures.\n\n",
    );
    o.push_str("| config | replicate | sched-len | zero-bus | realized | potential |\n");
    o.push_str("|---|---:|---:|---:|---:|---:|\n");
    for spec in specs {
        let repl = report.config_hmean(spec, Mode::Replicate);
        let ext = report.config_hmean(spec, Mode::ReplicateSchedLen);
        let zero = report.config_hmean(spec, Mode::ZeroBusLatency);
        let rel = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) if y > 0.0 => pct(x / y - 1.0),
            _ => "—".into(),
        };
        let _ = writeln!(
            o,
            "| `{spec}` | {} | {} | {} | {} | {} |",
            hmean_cell(report, spec, Mode::Replicate),
            hmean_cell(report, spec, Mode::ReplicateSchedLen),
            hmean_cell(report, spec, Mode::ZeroBusLatency),
            rel(ext, repl),
            rel(zero, repl)
        );
    }
    o.push('\n');
}

fn overhead_table(o: &mut String, report: &SuiteReport, specs: &[String]) {
    if !report.has_mode(Mode::Replicate) {
        return;
    }
    o.push_str("## 5. Replicated instructions (Figure 10)\n\n");
    o.push_str(
        "Dynamic executed-instruction overhead of `replicate`: net added \
         instances over original operations, profile-weighted.\n\n",
    );
    let _ = write!(o, "| program |");
    for spec in specs {
        let _ = write!(o, " `{spec}` |");
    }
    o.push('\n');
    o.push_str("|---|");
    for _ in specs {
        o.push_str("---:|");
    }
    o.push('\n');
    for program in &report.programs {
        let _ = write!(o, "| {program} |");
        for spec in specs {
            match report.cell(spec, Mode::Replicate, program) {
                Some(c) => {
                    let _ = write!(o, " {} |", pct(c.overhead()));
                }
                None => o.push_str(" — |"),
            }
        }
        o.push('\n');
    }
    let _ = write!(o, "| **suite** |");
    for spec in specs {
        let _ = write!(
            o,
            " **{}** |",
            pct(report.config_overhead(spec, Mode::Replicate))
        );
    }
    o.push_str("\n\n");
}

fn comms_table(o: &mut String, report: &SuiteReport, specs: &[String]) {
    if !report.has_mode(Mode::Replicate) {
        return;
    }
    o.push_str("## 6. Communications removed\n\n");
    o.push_str(
        "Static communications per configuration: implied by the partition \
         before replication vs actually scheduled on buses after it.\n\n",
    );
    o.push_str("| config | partition coms | scheduled coms | removed |\n");
    o.push_str("|---|---:|---:|---:|\n");
    for spec in specs {
        let (part, fin) = report
            .config_cells(spec, Mode::Replicate)
            .fold((0u64, 0u64), |(p, f), c| {
                (p + c.partition_coms, f + c.final_coms)
            });
        let removed = if part > 0 {
            pct(1.0 - fin as f64 / part as f64)
        } else {
            "—".into()
        };
        let _ = writeln!(o, "| `{spec}` | {part} | {fin} | {removed} |");
    }
    o.push('\n');
}

/// The topology appendix: every point-to-point machine in the grid, with
/// its fabric parameters and the same per-program IPC tables as Figure 7.
/// Skipped entirely when the grid is shared-bus only, which is what keeps
/// paper-only books byte-identical.
fn topology_appendix(o: &mut String, report: &SuiteReport, specs: &[String], warn_failures: bool) {
    if specs.is_empty() {
        return;
    }
    o.push_str("## Appendix A. Point-to-point topology grid\n\n");
    // Appendix machines report their own failures here; when the grid is
    // topology-only the header already covered them.
    let failures = failures_in(report, specs);
    if warn_failures && failures > 0 {
        let _ = writeln!(
            o,
            "**⚠ {failures} loop compilations failed on the appendix \
             machines** — figures below exclude the failing loops.\n"
        );
    }
    let _ = writeln!(
        o,
        "The same 12-issue cluster splits re-joined by point-to-point \
         fabrics instead of shared buses (`<clusters>c-<topo><hop>l\
         <registers>r` specs): one dedicated directed link per ordered \
         cluster pair, latency and occupancy scaling with hop distance. \
         **{} machines × {} modes × {} programs** ({} cells). \
         Pair-dedicated links multiply aggregate bandwidth, so the \
         replication win here bounds how much of the paper's benefit is \
         bus *contention* rather than transfer *latency*.",
        specs.len(),
        report.modes.len(),
        report.programs.len(),
        specs.len() * report.modes.len() * report.programs.len()
    );
    o.push('\n');

    o.push_str("| config | clusters | interconnect | links | transfer latency | regs/cluster |\n");
    o.push_str("|---|---:|---|---:|---:|---:|\n");
    for spec in specs {
        match MachineConfig::from_extended_spec(spec) {
            Ok(m) => {
                let lat_min = m.bus_latency();
                let lat_max = m.max_transfer_latency();
                let lat = if lat_min == lat_max {
                    format!("{lat_min}")
                } else {
                    format!("{lat_min}\u{2013}{lat_max}")
                };
                let _ = writeln!(
                    o,
                    "| `{spec}` | {} | {} | {} | {lat} | {} |",
                    m.clusters(),
                    m.interconnect().describe(m.clusters()),
                    m.links(),
                    m.regs_per_cluster()
                );
            }
            Err(_) => {
                let _ = writeln!(o, "| `{spec}` | — | — | — | — | — |");
            }
        }
    }
    o.push('\n');

    let speedup = report.has_mode(Mode::Baseline) && report.has_mode(Mode::Replicate);
    for spec in specs {
        ipc_table_for(o, report, spec, speedup);
    }

    if speedup {
        o.push_str("### Replication win by topology\n\n");
        o.push_str(
            "HMEAN IPC gain of `replicate` over `baseline` per machine \
             (paper shared-bus machines shown for contrast).\n\n",
        );
        o.push_str("| config | fabric | repl/base |\n|---|---|---:|\n");
        for spec in report.specs.iter() {
            let fabric = match MachineConfig::from_extended_spec(spec) {
                Ok(m) => m.interconnect().describe(m.clusters()),
                Err(_) => "—".to_string(),
            };
            let win = match (
                report.config_hmean(spec, Mode::Baseline),
                report.config_hmean(spec, Mode::Replicate),
            ) {
                (Some(b), Some(r)) if b > 0.0 => pct(r / b - 1.0),
                _ => "—".into(),
            };
            let _ = writeln!(o, "| `{spec}` | {fabric} | {win} |");
        }
        o.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SuiteGrid;
    use crate::runner::run_suite;

    #[test]
    fn restricted_grids_skip_unavailable_sections() {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["mgrid".into()])
            .with_specs(vec!["2c1b2l64r".into()])
            .with_modes(vec![Mode::Baseline])
            .with_max_loops(1);
        let report = run_suite(&grid, 1).unwrap();
        let md = emit_markdown(&report);
        assert!(md.contains("# Results book"));
        assert!(md.contains("## 1. Machine configurations"));
        assert!(md.contains("## 2. IPC by configuration"));
        assert!(!md.contains("Figure 9"), "no replicate mode, no fig 9");
        assert!(!md.contains("Figure 12"));
        assert!(!md.contains("Figure 10"));
        assert!(md.contains("Reduced grid"));
    }

    #[test]
    fn full_mode_set_renders_every_section() {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["applu".into()])
            .with_specs(vec!["4c2b2l64r".into()])
            .with_max_loops(1);
        let report = run_suite(&grid, 2).unwrap();
        let md = emit_markdown(&report);
        for section in [
            "Figure 7",
            "Figure 9",
            "Figure 10",
            "Figure 12",
            "Communications removed",
        ] {
            assert!(md.contains(section), "missing {section}:\n{md}");
        }
    }
}
