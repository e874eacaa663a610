//! Output checks, run outside the timed regions. A mismatch counts as
//! failed operations in the report, never as a crash.

use cvliw_ddg::Ddg;
use cvliw_exp::{emit_markdown, CellResult, SuiteGrid, SuiteReport};
use cvliw_ir::parse_loop;
use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_loop_ctx, compile_stats, CompileContext, CompileOptions, LoopStats, Mode,
};
use cvliw_serve::{render_compile_error_body, render_ok_body};

use crate::common::{bench_dir, Inputs, Report, Rng};

/// Loops compiled and executed by the simulator per run.
const SIM_SAMPLE: usize = 24;

/// The first pass of the committed suite, folded into the suite's cells
/// in grid order and rendered as the results book, must reproduce the paper
/// sections (everything before the topology appendix) of the committed
/// `docs/RESULTS.md`. Each differing line counts as one failed operation.
pub fn results_book(inputs: &Inputs, first: &[Option<LoopStats>], r: &mut Report) {
    let grid = SuiteGrid::paper();
    assert_eq!(
        grid.specs, inputs.specs,
        "the suite grid uses the paper machines in order"
    );
    let mut cells = Vec::with_capacity(grid.cell_count());
    for cell in grid.cells() {
        let m = inputs
            .specs
            .iter()
            .position(|s| *s == cell.spec)
            .expect("paper spec");
        let mi = Mode::ALL
            .iter()
            .position(|&x| x == cell.mode)
            .expect("mode");
        let p = inputs
            .programs
            .iter()
            .position(|p| p.name == cell.program)
            .expect("paper program");
        let mut out = CellResult::empty(&cell);
        for (g, &(gp, li)) in inputs.loops.iter().enumerate() {
            if gp != p {
                continue;
            }
            let key = (m * inputs.loops.len() + g) * Mode::ALL.len() + mi;
            match &first[key] {
                Some(stats) => out.add_loop(&inputs.programs[p].loops[li], stats),
                None => {
                    out.loops += 1;
                    out.failures += 1;
                }
            }
        }
        cells.push(out);
    }
    let book = emit_markdown(&SuiteReport::new(&grid, cells, &inputs.programs));
    let path = bench_dir().join("../docs/RESULTS.md");
    let committed = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            r.fail(1, format!("cannot read {}: {e}", path.display()));
            return;
        }
    };
    let paper = committed
        .find("## Appendix A.")
        .map_or(committed.as_str(), |at| &committed[..at]);
    if book != paper {
        let differing = book
            .lines()
            .zip(paper.lines())
            .filter(|(a, b)| a != b)
            .count()
            + book.lines().count().abs_diff(paper.lines().count());
        r.fail(
            differing.max(1) as u64,
            format!("results book differs from docs/RESULTS.md in {differing} lines"),
        );
    }
}

/// Compiles a seeded sample of keys (zero-bus schedules are relaxed and
/// not executable, so that mode is skipped) with `compile_loop_ctx`,
/// executes each schedule in the cycle-level simulator, which checks every
/// value against `reference_values`, and asks `agrees` whether the
/// workload's own output for that key matches the compiled stats.
/// `reparse` compiles the printed-and-parsed loop, as the daemon does.
///
/// For a seed other than 0 a second sample is drawn from the suite that
/// seed salts (`suite_with_salt`): loops no timed workload compiles. Each
/// is simulated too, and its stats must equal a one-shot `compile_stats`.
/// Returns `[loops verified, mismatches]`.
pub fn simulate_sample(
    inputs: &Inputs,
    seed: u64,
    reparse: bool,
    r: &mut Report,
    agrees: &dyn Fn(usize, &LoopStats) -> bool,
) -> [u64; 2] {
    let mut rng = Rng::new(seed ^ 0x51);
    let mut tally = [0u64; 2];
    verify(
        inputs,
        &mut rng,
        reparse,
        r,
        &mut tally,
        &|key, _, stats| agrees(key, stats),
    );
    if seed != 0 {
        let (heldout, _) = Inputs::generate(seed);
        verify(
            &heldout,
            &mut rng,
            false,
            r,
            &mut tally,
            &|key, ddg, stats| {
                let (u, mode) = heldout.key(key);
                let machine = &heldout.machines[heldout.unit(u).0];
                compile_stats(ddg, machine, &CompileOptions { mode, max_ii: None }).as_ref()
                    == Ok(stats)
            },
        );
    }
    tally
}

/// One sample of [`simulate_sample`]; `tally` counts `[verified, mismatches]`.
fn verify(
    inputs: &Inputs,
    rng: &mut Rng,
    reparse: bool,
    r: &mut Report,
    tally: &mut [u64; 2],
    agrees: &dyn Fn(usize, &Ddg, &LoopStats) -> bool,
) {
    let mut tried = 0;
    while tried < SIM_SAMPLE {
        let key = rng.below(inputs.keys());
        let (u, mode) = inputs.key(key);
        if mode == Mode::ZeroBusLatency {
            continue;
        }
        tried += 1;
        let (m, g) = inputs.unit(u);
        let l = inputs.workload_loop(g);
        let machine = &inputs.machines[m];
        let what = format!("sim: {} on {} ({})", l.name, inputs.specs[m], mode.name());
        let ddg = if reparse {
            parse_loop(&cvliw_ir::print_loop(&l.name, &l.ddg)).map(|named| named.ddg)
        } else {
            Ok(l.ddg.clone())
        };
        let outcome = ddg.map_err(|e| e.to_string()).and_then(|ddg| {
            let ctx = CompileContext::new(&ddg, machine);
            let opts = CompileOptions { mode, max_ii: None };
            let c = compile_loop_ctx(&ddg, machine, &opts, &ctx).map_err(|e| e.to_string())?;
            let iterations = u64::from(c.stats.stage_count) + 4;
            cvliw_sim::simulate(&ddg, machine, &c.schedule, iterations)
                .map_err(|e| e.to_string())?;
            if agrees(key, &ddg, &c.stats) {
                Ok(())
            } else {
                Err("disagrees with the workload's output".to_string())
            }
        });
        match outcome {
            Ok(()) => tally[0] += 1,
            Err(e) => {
                tally[1] += 1;
                r.fail(1, format!("{what}: {e}"));
            }
        }
    }
}

/// The one-shot rendering of a request: parse the loop text, compile it
/// with `compile_stats` on a fresh context, render the body the daemon
/// would send. Also returns the compiled stats (`None` for a compile
/// error).
pub fn oneshot_body(
    text: &str,
    machine: &MachineConfig,
    mode: Mode,
) -> Result<(String, Option<LoopStats>), String> {
    let ddg = parse_loop(text).map_err(|e| e.to_string())?.ddg;
    let mut body = String::new();
    let stats = match compile_stats(&ddg, machine, &CompileOptions { mode, max_ii: None }) {
        Ok(stats) => {
            render_ok_body(&stats, &mut body);
            Some(stats)
        }
        Err(e) => {
            render_compile_error_body(&e, &mut body);
            None
        }
    };
    Ok((body, stats))
}
