//! The results book's appendices B onwards: every published number that
//! the main sections do not print, each from one generator.
//!
//! Appendices that are functions of main-grid cells (Figure 1's causes,
//! the Figure 7/10 extras, the communication statistics, value cloning)
//! read the [`SuiteReport`]'s exact integer sums. Every whole-program run
//! under baseline and replicate — the register sweep, mgrid on the unified
//! machine, pipelined buses, re-seeded suites and the rows of the
//! unrolling table that do not unroll — goes through the suite pool on a side report of
//! its own, so one loop on one machine shares one compile context across
//! modes exactly as in the main grid, and every HMEAN is
//! [`SuiteReport::config_hmean`]. Only what the pool cannot express is
//! compiled here: unrolled loops, non-paper selection policies and
//! macro-nodes at the MII partition, and the worst-loops table.
//!
//! Every appendix draws its programs and loop cap from the report, so a
//! capped report renders a capped book. Appendices are independent and
//! run on up to `jobs` threads, but each lands in its fixed slot, so the
//! bytes never depend on the worker count.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use cvliw_ddg::{Ddg, NodeId, OpKind};
use cvliw_machine::{
    fig10_specs, fig1_specs, fig8_specs, paper_specs, register_sweep_specs, MachineConfig,
};
use cvliw_partition::{partition_loop_scratch, Partition, RefineScratch};
use cvliw_replicate::{
    compile_loop_ctx, macro_replicate, CompileContext, CompileOptions, CompiledLoop, EngineScratch,
    LoopAnalysis, Mode, ReplicationEngine, ReplicationOutcome, ReplicationPlan, ReplicationStats,
};
use cvliw_sched::ClusterSet;
use cvliw_sim::IpcAccumulator;
use cvliw_unroll::compile_unrolled;
use cvliw_workloads::{suite_with_salt, BenchmarkProgram};

use crate::cell::CellResult;
use crate::emit_md::pct;
use crate::grid::SuiteGrid;
use crate::report::SuiteReport;
use crate::runner::{run_pool, run_suite, PreparedSuite, SuiteError};

/// Loops per program in the bus-model and seed-sensitivity ablations.
const ABLATION_LOOPS: usize = 16;
/// Loops per program in the unrolling ablation: unrolled bodies are up to
/// four times larger and the partitioner is super-linear.
const UNROLL_LOOPS: usize = 12;
/// Re-seeded suites in the seed-sensitivity ablation (salt 0 is the suite).
const SALTS: u64 = 5;
/// Rows of the worst-loops table.
const WORST_LOOPS: usize = 10;
/// The 4-cluster, 1-bus machine of the single-machine ablations and the
/// worst-loops table.
const ABLATION_SPEC: &str = "4c1b2l64r";

/// One appendix body; an error means a side grid could not run.
type Body<'a> = &'a (dyn Fn() -> Result<String, SuiteError> + Sync);

/// A non-paper subgraph selection rule: orders the `(weight, plan)`
/// candidates, and the first that fits the machine is committed.
type Policy = fn(&mut [(f64, ReplicationPlan)]);

/// The programs and loop cap the appendices draw their own workloads from.
struct Workload<'a> {
    programs: &'a [String],
    max_loops: Option<usize>,
}

impl Workload<'_> {
    /// The smaller of the report's loop cap and `cap`.
    fn cap(&self, cap: Option<usize>) -> Option<usize> {
        match (self.max_loops, cap) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The report's programs re-seeded with `salt` (0 is the suite itself),
    /// capped at [`Workload::cap`].
    fn suite(&self, salt: u64, cap: Option<usize>) -> Vec<BenchmarkProgram> {
        suite_with_salt(salt, self.cap(cap).unwrap_or(usize::MAX))
            .into_iter()
            .filter(|p| self.programs.iter().any(|n| n == p.name))
            .collect()
    }

    /// A baseline-and-replicate side grid over `programs` and `specs`,
    /// capped at [`Workload::cap`].
    fn grid(&self, programs: Vec<String>, specs: Vec<String>, cap: Option<usize>) -> SuiteGrid {
        let mut grid = SuiteGrid::paper()
            .with_programs(programs)
            .with_specs(specs)
            .with_modes(vec![Mode::Baseline, Mode::Replicate]);
        grid.max_loops = self.cap(cap);
        grid
    }

    /// Runs labelled `machines` over the suite re-seeded with `salt` and
    /// capped at `cap` on one pool worker, under baseline and replicate.
    /// A label names its machine's cells in the side report.
    fn run(
        &self,
        machines: &[(String, MachineConfig)],
        salt: u64,
        cap: usize,
    ) -> Result<SuiteReport, SuiteError> {
        let programs = self.suite(salt, Some(cap));
        let names = programs.iter().map(|p| p.name.to_string()).collect();
        let (specs, machines) = machines.iter().cloned().unzip();
        let grid = self.grid(names, specs, Some(cap));
        let prep = PreparedSuite::new(&grid, machines, programs)?;
        let run = run_pool(&prep, 1);
        Ok(SuiteReport::new(&grid, run.results, &prep.programs))
    }

    /// Calls `each` with every uncapped suite loop on the ablation machine,
    /// its analysis and its MII seed partition.
    fn each_mii_partition(
        &self,
        mut each: impl FnMut(&Ddg, &MachineConfig, &LoopAnalysis, &Partition),
    ) {
        let machine = MachineConfig::from_spec(ABLATION_SPEC).expect("spec parses");
        let mut scratch = RefineScratch::default();
        for l in self.suite(0, None).iter().flat_map(|p| &p.loops) {
            let analysis = LoopAnalysis::new(&l.ddg, &machine);
            let mii = analysis.mii();
            let partition =
                partition_loop_scratch(&l.ddg, &machine, mii, &analysis, &mut scratch, 0);
            each(&l.ddg, &machine, &analysis, &partition);
        }
    }
}

/// Renders appendices B onwards of the results book for a report of the
/// default grid, running their side workloads on up to `jobs` threads.
/// The bytes are a function of the report alone.
///
/// # Errors
///
/// Returns [`SuiteError`] if a side report cannot run, e.g. for a report
/// of an unknown program.
pub fn emit_appendices(report: &SuiteReport, jobs: usize) -> Result<String, SuiteError> {
    let w = Workload {
        programs: &report.programs,
        max_loops: report.max_loops,
    };
    // One walk over the suite's MII partitions feeds two appendices.
    let mii_runs = OnceLock::new();
    let sections: [(&str, Body<'_>); 14] = [
        ("Causes for increasing the II (Figure 1)", &|| {
            Ok(ii_causes(report))
        }),
        ("Speedup by program (Figure 7)", &|| {
            Ok(fig7_speedups(report))
        }),
        ("mgrid against the unified machine (Figure 8)", &|| {
            fig8_mgrid(report, &w)
        }),
        ("Replicated instructions by class (Figure 10)", &|| {
            Ok(fig10_classes(report))
        }),
        ("Operation latencies (Table 1)", &|| Ok(latencies())),
        ("Instructions per removed communication", &|| {
            Ok(comms_removed(report))
        }),
        ("Register-file sensitivity", &|| register_sweep(report, &w)),
        ("Ablation: unpipelined vs pipelined buses", &|| {
            bus_model(&w)
        }),
        ("Ablation: subgraph selection policy", &|| {
            Ok(selection_policy(mii_runs.get_or_init(|| mii_ablations(&w))))
        }),
        ("Ablation: macro-node vs subgraph replication", &|| {
            Ok(macro_nodes(mii_runs.get_or_init(|| mii_ablations(&w))))
        }),
        ("Ablation: value cloning vs subgraph replication", &|| {
            Ok(value_cloning(report))
        }),
        ("Ablation: loop unrolling vs replication", &|| unrolling(&w)),
        ("Ablation: suite-seed sensitivity", &|| seed_sensitivity(&w)),
        ("Worst loops by II/MII", &|| Ok(worst_loops(&w))),
    ];

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<String, SuiteError>>> =
        sections.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, sections.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some((_, body)) = sections.get(i) else {
                    break;
                };
                slots[i]
                    .set(body())
                    .expect("each appendix is claimed exactly once");
            });
        }
    });

    let mut o = String::new();
    for ((title, _), (slot, letter)) in sections.iter().zip(slots.into_iter().zip('B'..)) {
        let body = slot.into_inner().expect("every appendix ran")?;
        let _ = write!(o, "## Appendix {letter}. {title}\n\n{body}");
    }
    Ok(o)
}

/// `n / d` as a percentage (`d = 0` reads as 1).
fn share(n: u64, d: u64) -> String {
    pct(n as f64 / d.max(1) as f64)
}

/// `n / d` with two decimals (`d = 0` reads as 1).
fn per(n: u64, d: u64) -> String {
    format!("{:.2}", n as f64 / d.max(1) as f64)
}

/// `hi / lo − 1` as a percentage, `—` without a positive `lo`.
fn gain(hi: Option<f64>, lo: Option<f64>) -> String {
    match (hi, lo) {
        (Some(h), Some(l)) if l > 0.0 => pct(h / l - 1.0),
        _ => "—".into(),
    }
}

fn ipc_cell(ipc: Option<f64>) -> String {
    ipc.map_or_else(|| "—".into(), |x| format!("{x:.2}"))
}

/// Starts an appendix body: its prose, then a table header whose first
/// column is left-aligned and the rest right-aligned.
fn table(prose: &str, header: &str) -> String {
    let columns = header.matches('|').count() - 1;
    format!(
        "{prose}\n\n{header}\n|---|{}\n",
        "---:|".repeat(columns - 1)
    )
}

/// Closes a table, flagging compile failures with the header's warning.
fn finish(mut o: String, failures: usize) -> String {
    o.push('\n');
    if failures > 0 {
        let _ = writeln!(
            o,
            "**⚠ {failures} loop compilations failed** — figures above \
             exclude the failing loops.\n"
        );
    }
    o
}

fn ii_causes(report: &SuiteReport) -> String {
    let mut o = table(
        "Why the baseline scheduler raised the II past the MII: each cause's \
         share of all II bumps, and the share of loops that needed any. The \
         paper reports 70–90% of bumps on the bus, 2–4% on recurrences and \
         the rest on registers.",
        "| config | bus | recurrences | registers | resources | loops II>MII |",
    );
    for spec in fig1_specs() {
        let sum = |field| report.config_sum(spec, Mode::Baseline, field);
        let causes = [
            sum(|c| c.ii_causes[0]),
            sum(|c| c.ii_causes[1]),
            sum(|c| c.ii_causes[2]),
            sum(|c| c.ii_causes[3]),
        ];
        let total = causes.iter().sum();
        let [bus, rec, regs, res] = causes.map(|n| share(n, total));
        let compiled = sum(|c| (c.loops - c.failures) as u64);
        let over = share(sum(|c| c.loops_over_mii), compiled);
        let _ = writeln!(o, "| `{spec}` | {bus} | {rec} | {regs} | {res} | {over} |");
    }
    finish(o, 0)
}

fn fig7_speedups(report: &SuiteReport) -> String {
    let specs = paper_specs();
    let header: String = specs.iter().map(|s| format!(" `{s}` |")).collect();
    let mut o = table(
        "IPC speedup of `replicate` over `baseline` per program, the HMEAN \
         speedup, and the arithmetic mean of the per-program speedups. The \
         paper reports ~25% on average on `4c2b4l64r`, up to ~70% for \
         su2cor, with mgrid and applu nearly flat.",
        &format!("| program |{header}"),
    );
    let ipc = |spec, mode, program| report.cell(spec, mode, program).map(CellResult::ipc);
    let mut sums = specs.map(|_| (0.0f64, 0usize));
    for program in &report.programs {
        let _ = write!(o, "| {program} |");
        for (spec, sum) in specs.iter().zip(&mut sums) {
            let repl = ipc(spec, Mode::Replicate, program);
            let base = ipc(spec, Mode::Baseline, program);
            if let (Some(r), Some(b)) = (repl, base) {
                if b > 0.0 {
                    *sum = (sum.0 + r / b - 1.0, sum.1 + 1);
                }
            }
            let _ = write!(o, " {} |", gain(repl, base));
        }
        o.push('\n');
    }
    o.push_str("| **HMEAN** |");
    for spec in specs {
        let repl = report.config_hmean(spec, Mode::Replicate);
        let base = report.config_hmean(spec, Mode::Baseline);
        let _ = write!(o, " {} |", gain(repl, base));
    }
    o.push_str("\n| **average** |");
    for (sum, n) in sums {
        let avg = if n == 0 {
            "—".into()
        } else {
            pct(sum / n as f64)
        };
        let _ = write!(o, " {avg} |");
    }
    o.push('\n');
    finish(o, 0)
}

fn fig8_mgrid(report: &SuiteReport, w: &Workload<'_>) -> Result<String, SuiteError> {
    let mut o = table(
        "mgrid's IPC on the 12-wide unified machine (no communications, so \
         replication has nothing to remove) against the clustered machines \
         with a 2-cycle bus. The paper's point: mgrid partitions so cleanly \
         that clustering barely costs anything, which is why replication \
         cannot help it.",
        "| machine | base IPC | repl IPC |",
    );
    if !w.programs.iter().any(|p| p == "mgrid") {
        return Ok(finish(o, 0));
    }
    let grid = w.grid(vec!["mgrid".into()], vec!["unified".into()], None);
    let unified = run_suite(&grid, 1)?;
    let machines = std::iter::once((&unified, "unified")).chain(fig8_specs().map(|s| (report, s)));
    for (r, spec) in machines {
        let ipc = |mode| ipc_cell(r.cell(spec, mode, "mgrid").map(CellResult::ipc));
        let (base, repl) = (ipc(Mode::Baseline), ipc(Mode::Replicate));
        let _ = writeln!(o, "| `{spec}` | {base} | {repl} |");
    }
    Ok(finish(o, unified.failures()))
}

fn fig10_classes(report: &SuiteReport) -> String {
    let mut o = table(
        "The dynamic overhead of `replicate` (section 5) split by \
         functional-unit class: net added instances of each class over \
         original operations, in the paper's bar order. The paper reports \
         under ~5% for most configurations, integer instructions the most \
         replicated.",
        "| config | int | fp | mem | total |",
    );
    for spec in fig10_specs() {
        let sum = |field| report.config_sum(spec, Mode::Replicate, field);
        let ops = sum(|c| c.ops);
        let class = [
            sum(|c| c.added_ops_by_class[0]),
            sum(|c| c.added_ops_by_class[1]),
            sum(|c| c.added_ops_by_class[2]),
        ];
        let total = share(class.iter().sum(), ops);
        let [int, fp, mem] = class.map(|n| share(n, ops));
        let _ = writeln!(o, "| `{spec}` | {int} | {fp} | {mem} | {total} |");
    }
    finish(o, 0)
}

fn latencies() -> String {
    let mut o = table(
        "Operation latencies in cycles, the same on every paper machine.",
        "| operation | INT | FP |",
    );
    let m = MachineConfig::from_spec(ABLATION_SPEC).expect("preset parses");
    for (name, int, fp) in [
        ("MEM", OpKind::Load, OpKind::Load),
        ("ARITH", OpKind::IntAdd, OpKind::FpAdd),
        ("MUL/ABS", OpKind::IntMul, OpKind::FpMul),
        ("DIV/SQRT", OpKind::IntDiv, OpKind::FpDiv),
    ] {
        let _ = writeln!(o, "| {name} | {} | {} |", m.latency(int), m.latency(fp));
    }
    finish(o, 0)
}

fn comms_removed(report: &SuiteReport) -> String {
    let mut o = table(
        "Static communications before replication, those `replicate` \
         removed, and the instances it added per removed communication. \
         The paper reports ~36% removed on `4c1b2l64r` at ~2.1 instructions \
         each.",
        "| config | coms before | removed | removed % | instr/com |",
    );
    for spec in paper_specs() {
        let sum = |field| report.config_sum(spec, Mode::Replicate, field);
        let before = sum(|c| c.partition_coms);
        let removed = sum(|c| c.removed_coms);
        let (rm, ipc) = (
            share(removed, before),
            per(sum(|c| c.added_instances), removed),
        );
        let _ = writeln!(o, "| `{spec}` | {before} | {removed} | {rm} | {ipc} |");
    }
    finish(o, 0)
}

/// Cells of `mode` on `spec` that failed, summed over programs.
fn config_failures(report: &SuiteReport, spec: &str, mode: Mode) -> usize {
    report.config_cells(spec, mode).map(|c| c.failures).sum()
}

/// `spec`'s baseline and replicate HMEAN IPCs and the replication gain,
/// as `base | repl | gain` table cells.
fn hmean_cells(report: &SuiteReport, spec: &str) -> String {
    let [base, repl] = [Mode::Baseline, Mode::Replicate].map(|m| report.config_hmean(spec, m));
    let (b, r, g) = (ipc_cell(base), ipc_cell(repl), gain(repl, base));
    format!("{b} | {r} | {g}")
}

fn register_sweep(report: &SuiteReport, w: &Workload<'_>) -> Result<String, SuiteError> {
    let mut o = table(
        "HMEAN IPC with 32, 64 and 128 registers per cluster on the \
         4-cluster, 1-bus machine. The paper states the 32- and 128-register \
         variants behave like the 64-register machines.",
        "| config | base | repl | speedup |",
    );
    // The main report holds the `4c1b2l64r` cells; compile the other two.
    let specs = register_sweep_specs();
    let others = specs
        .into_iter()
        .filter(|&s| s != ABLATION_SPEC)
        .map(String::from);
    let sweep = run_suite(&w.grid(w.programs.to_vec(), others.collect(), None), 1)?;
    for spec in specs {
        let source = if spec == ABLATION_SPEC {
            report
        } else {
            &sweep
        };
        let _ = writeln!(o, "| `{spec}` | {} |", hmean_cells(source, spec));
    }
    let failures = sweep.failures()
        + config_failures(report, ABLATION_SPEC, Mode::Baseline)
        + config_failures(report, ABLATION_SPEC, Mode::Replicate);
    Ok(finish(o, failures))
}

fn bus_model(w: &Workload<'_>) -> Result<String, SuiteError> {
    let mut o = table(
        "The paper's §3 bus model holds each bus for the full transfer \
         latency. A pipelined bus accepts one transfer per cycle at the same \
         latency, multiplying bandwidth without touching latency. Replication \
         gains that vanish on pipelined buses were bus occupancy, not \
         latency. HMEAN IPC over the first 16 loops of each program.",
        "| machine | HMEAN base | HMEAN repl | repl gain |",
    );
    // A pipelined bus has no spec string: each machine runs under its
    // row heading.
    let mut machines = Vec::new();
    for spec in ["4c1b2l64r", "4c2b4l64r"] {
        let standard = MachineConfig::from_spec(spec).expect("spec parses");
        let pipelined = standard.clone().with_pipelined_buses();
        machines.push((format!("`{spec}`"), standard));
        machines.push((format!("`{spec}` pipelined"), pipelined));
    }
    let side = w.run(&machines, 0, ABLATION_LOOPS)?;
    for label in &side.specs {
        let _ = writeln!(o, "| {label} | {} |", hmean_cells(&side, label));
    }
    Ok(finish(o, side.failures()))
}

/// Replicates under a non-paper `policy` through the engine's public plan
/// surface.
fn run_policy(engine: &mut ReplicationEngine<'_>, policy: Policy) -> ReplicationOutcome {
    while engine.extra_coms() > 0 {
        let weights = engine.weights().to_vec();
        let mut candidates: Vec<_> = engine
            .plans()
            .iter()
            .zip(weights)
            .map(|(p, w)| (w, p.to_plan()))
            .collect();
        policy(&mut candidates);
        let chosen = candidates.into_iter().map(|(_, p)| p).find(|p| {
            p.fits(
                engine.ddg(),
                engine.machine(),
                engine.ii(),
                engine.assignment(),
            )
        });
        match chosen {
            Some(plan) => engine.commit(&plan),
            None => {
                return ReplicationOutcome::Stuck {
                    remaining_extra: engine.extra_coms(),
                }
            }
        }
    }
    ReplicationOutcome::Fits
}

/// Adds `stats` to static `[coms before, removed, added instances]` sums.
fn tally(sum: &mut [u64; 3], stats: &ReplicationStats) {
    sum[0] += u64::from(stats.initial_coms);
    sum[1] += u64::from(stats.removed_coms());
    sum[2] += u64::from(stats.added_instances());
}

/// The selection rules of the policy ablation, the paper's weight first.
fn policies() -> [(&'static str, Option<Policy>); 4] {
    [
        ("weight", None),
        (
            "fewest",
            Some(|c| c.sort_by_key(|(_, p)| (p.added_instances(), p.com))),
        ),
        ("first", Some(|c| c.sort_by_key(|(_, p)| p.com))),
        (
            "heaviest",
            Some(|c| c.sort_by(|(a, _), (b, _)| b.partial_cmp(a).expect("finite weights"))),
        ),
    ]
}

/// The replication runs at the MII partition of every uncapped suite loop
/// on `4c1b2l64r`, which the policy and macro-node ablations both read.
struct MiiAblations {
    /// Per rule of [`policies`]: `[coms before, removed, added instances]`
    /// sums and the loops left stuck. The `weight` rule is the §3 engine.
    policies: [([u64; 3], u64); 4],
    /// The same sums for macro-node replication.
    macro_node: [u64; 3],
}

/// One walk over [`Workload::each_mii_partition`]: every policy's engine
/// run and the macro-node replication of each loop.
fn mii_ablations(w: &Workload<'_>) -> MiiAblations {
    let policies = policies();
    let mut out = MiiAblations {
        policies: [([0; 3], 0); 4],
        macro_node: [0; 3],
    };
    let mut scratch = EngineScratch::default();
    w.each_mii_partition(|ddg, machine, analysis, partition| {
        let mii = analysis.mii();
        for ((_, policy), (sum, stuck)) in policies.iter().zip(&mut out.policies) {
            let assignment = partition.to_assignment();
            let mut engine = ReplicationEngine::new(ddg, machine, mii, assignment, analysis);
            let outcome = match policy {
                None => engine.run(&mut scratch),
                Some(policy) => run_policy(&mut engine, *policy),
            };
            *stuck += u64::from(outcome != ReplicationOutcome::Fits);
            tally(sum, &engine.into_parts().1);
        }
        tally(
            &mut out.macro_node,
            &macro_replicate(ddg, machine, mii, partition, analysis).1,
        );
    });
    out
}

fn selection_policy(runs: &MiiAblations) -> String {
    let mut o = table(
        "§3.3 picks the subgraph to replicate by its load-sharing-removal \
         weight. Other rules, at the MII partition of every loop on \
         `4c1b2l64r`: fewest added instances first, lowest communication \
         first, and the heaviest weight first (adversarial). *stuck loops* \
         still exceed the bus capacity when no candidate fits.",
        "| policy | removed % | instr/com | added | stuck loops |",
    );
    for ((name, _), ([before, removed, added], stuck)) in policies().iter().zip(runs.policies) {
        let (rm, ipc) = (share(removed, before), per(added, removed));
        let _ = writeln!(o, "| {name} | {rm} | {ipc} | {added} | {stuck} |");
    }
    finish(o, 0)
}

fn macro_nodes(runs: &MiiAblations) -> String {
    let mut o = table(
        "§5.2: replicating the partitioner's coarsening macro-nodes (one \
         replication may remove several communications) against the §3 \
         per-communication subgraphs, at the MII partition of every loop on \
         `4c1b2l64r`. The paper finds macro-nodes copy too many unneeded \
         instructions to pay off.",
        "| strategy | removed % | added | instr/com |",
    );
    let fine = runs.policies[0].0;
    for (name, [before, removed, added]) in [("subgraph", fine), ("macro-node", runs.macro_node)] {
        let (rm, ipc) = (share(removed, before), per(added, removed));
        let _ = writeln!(o, "| {name} | {rm} | {added} | {ipc} |");
    }
    finish(o, 0)
}

fn value_cloning(report: &SuiteReport) -> String {
    let mut o = table(
        "§6 / reference [17]: value cloning copies only read-only values \
         and induction variables; `replicate` copies whole subgraphs. On \
         `4c1b2l64r`, HMEAN IPC and its gain over `baseline`, the share of \
         static communications removed, and the static instances added. \
         Cloning leaves compound-expression communications in place.",
        "| strategy | HMEAN IPC | vs baseline | removed % | added ops |",
    );
    let spec = ABLATION_SPEC;
    let base = report.config_hmean(spec, Mode::Baseline);
    for mode in [Mode::Baseline, Mode::ValueClone, Mode::Replicate] {
        let hmean = report.config_hmean(spec, mode);
        let sum = |field| report.config_sum(spec, mode, field);
        let _ = writeln!(
            o,
            "| `{}` | {} | {} | {} | {} |",
            mode.name(),
            ipc_cell(hmean),
            gain(hmean, base),
            share(sum(|c| c.removed_coms), sum(|c| c.partition_coms)),
            sum(|c| c.added_instances)
        );
    }
    finish(o, 0)
}

fn unrolling(w: &Workload<'_>) -> Result<String, SuiteError> {
    let mut o = table(
        "§6 / reference [22]: unrolling by 2 and 4 before scheduling \
         (without replication) against replication, over the first 12 loops \
         of each program on `4c1b2l64r`. *code ops* counts scheduled \
         instances and bus copies of every kernel. The paper: unrolling \
         removes most communications and performs well but grows code size \
         significantly, which is why replication suits code-size-critical \
         DSPs.",
        "| strategy | IPC | code ops | code size | coms/iter | failed |",
    );
    let machine = MachineConfig::from_spec(ABLATION_SPEC).expect("spec parses");
    let side = w.run(&[(ABLATION_SPEC.into(), machine.clone())], 0, UNROLL_LOOPS)?;
    let sum = |mode, field| side.config_sum(ABLATION_SPEC, mode, field);
    let base_size = sum(Mode::Baseline, |c| c.instances + c.final_coms);
    let mut failures = 0;
    let mut row = |name: &str, ipc: f64, code_size: u64, coms: f64, failed: usize| {
        failures += failed;
        let size = share(code_size, base_size);
        let _ = writeln!(
            o,
            "| {name} | {ipc:.2} | {code_size} | {size} | {coms:.2} | {failed} |"
        );
    };
    for mode in [Mode::Baseline, Mode::Replicate] {
        let ipc = side.config_ipc(ABLATION_SPEC, mode);
        let coms = sum(mode, |c| c.final_coms);
        let code_size = sum(mode, |c| c.instances) + coms;
        let failed = config_failures(&side, ABLATION_SPEC, mode);
        row(mode.name(), ipc, code_size, coms as f64, failed);
    }
    let programs = w.suite(0, Some(UNROLL_LOOPS));
    for factor in [2, 4] {
        let (mut acc, mut code_size, mut coms, mut failed) = (IpcAccumulator::new(), 0, 0.0, 0);
        for l in programs.iter().flat_map(|p| &p.loops) {
            match compile_unrolled(&l.ddg, &machine, factor) {
                Ok(report) => {
                    // Profile-weighted: `visits` runs of `iters` each.
                    let (visits, iters) = (l.profile.visits, l.profile.iterations);
                    let cycles = visits * report.texec(iters);
                    let ops = visits * iters * l.ddg.node_count() as u64;
                    acc.add(ops, cycles.max(1));
                    code_size += u64::from(report.code_size());
                    coms += report.coms_per_orig_iter();
                }
                Err(_) => failed += 1,
            }
        }
        let name = format!("unroll x{factor}");
        row(&name, acc.ipc(), code_size, coms, failed);
    }
    Ok(finish(o, failures))
}

fn seed_sensitivity(w: &Workload<'_>) -> Result<String, SuiteError> {
    let mut o = table(
        "The Figure 7 headline must hold on re-seeded synthetic suites, not \
         just the default one: each salt keeps every program's structural \
         knobs and redraws its loops (salt 0 is the default suite). HMEAN \
         IPC on `4c2b4l64r` over the first 16 loops of each program.",
        "| salt | HMEAN base | HMEAN repl | speedup | failed |",
    );
    let spec = "4c2b4l64r";
    let machine = MachineConfig::from_spec(spec).expect("spec parses");
    let machines = [(spec.to_string(), machine)];
    let mut failures = 0;
    for salt in 0..SALTS {
        let side = w.run(&machines, salt, ABLATION_LOOPS)?;
        let failed = side.failures();
        failures += failed;
        let _ = writeln!(o, "| {salt} | {} | {failed} |", hmean_cells(&side, spec));
    }
    Ok(finish(o, failures))
}

/// `(non-trivial SCCs, those whose instances span more than one cluster)`.
fn split_sccs(analysis: &LoopAnalysis, out: &CompiledLoop) -> (usize, usize) {
    let scc_of = analysis.scc_of();
    let comps = scc_of.iter().max().map_or(0, |&c| c + 1);
    let mut size = vec![0usize; comps];
    let mut clusters = vec![ClusterSet::empty(); comps];
    for (i, &c) in scc_of.iter().enumerate() {
        size[c] += 1;
        clusters[c] = clusters[c].union(out.assignment.instances(NodeId::new(i as u32)));
    }
    let nontrivial = size.iter().filter(|&&s| s > 1).count();
    let split = size
        .iter()
        .zip(&clusters)
        .filter(|&(&s, set)| s > 1 && set.len() > 1)
        .count();
    (nontrivial, split)
}

fn worst_loops(w: &Workload<'_>) -> String {
    let mut o = table(
        "The loops whose baseline II exceeds their MII by the largest factor \
         on `4c1b2l64r`, with the Figure 1 cause tally of the gap, the II \
         replication reaches on the same loop, and how many recurrences \
         (non-trivial SCCs) ended up split across clusters, where bus \
         latency sits on a cycle.",
        "| loop | II/MII | MII | II | bus | rec | reg | res | repl II | split SCCs |",
    );
    let machine = MachineConfig::from_spec(ABLATION_SPEC).expect("spec parses");
    let mut rows: Vec<(f64, String)> = Vec::new();
    let mut failures = 0;
    for l in w.suite(0, None).iter().flat_map(|p| &p.loops) {
        let name = &l.name;
        // Both modes and the SCC census share one analysis and seed
        // partition.
        let ctx = CompileContext::new(&l.ddg, &machine);
        let compile = |opts| compile_loop_ctx(&l.ddg, &machine, &opts, &ctx);
        let Ok(base) = compile(CompileOptions::baseline()) else {
            failures += 1;
            rows.push((
                f64::INFINITY,
                format!("| {name} | failed |{}\n", " — |".repeat(8)),
            ));
            continue;
        };
        let s = &base.stats;
        if s.ii == s.mii {
            continue;
        }
        let ratio = f64::from(s.ii) / f64::from(s.mii);
        let repl = compile(CompileOptions::replicate())
            .map_or_else(|_| "—".into(), |r| r.stats.ii.to_string());
        let (nontrivial, split) = split_sccs(ctx.analysis(), &base);
        let (mii, ii, c) = (s.mii, s.ii, s.causes);
        let causes = format!(
            "{} | {} | {} | {}",
            c.bus, c.recurrence, c.registers, c.resources
        );
        rows.push((
            ratio,
            format!("| {name} | {ratio:.2} | {mii} | {ii} | {causes} | {repl} | {split}/{nontrivial} |\n"),
        ));
    }
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    for (_, line) in rows.iter().take(WORST_LOOPS) {
        o.push_str(line);
    }
    finish(o, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn appendices_are_byte_identical_across_jobs() {
        let grid = SuiteGrid::paper()
            .with_programs(vec!["tomcatv".into(), "mgrid".into()])
            .with_max_loops(1);
        let report = run_suite(&grid, 2).unwrap();
        let one = emit_appendices(&report, 1).unwrap();
        let two = emit_appendices(&report, 2).unwrap();
        assert_eq!(one, two, "the worker count leaked into the appendices");
        assert!(one.starts_with("## Appendix B. "), "{one}");
        assert!(one.contains("## Appendix O. Worst loops"), "{one}");
        assert!(!one.contains("failed**"), "{one}");
    }
}
