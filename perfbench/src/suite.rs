//! The `suite` workload: the paper's grid (6 machines × 5 modes × every
//! loop of the suite) compiled by one worker, one `CompileContext` per
//! (machine, loop) shared by the five modes, every `compile_stats_ctx`
//! call timed.

use std::time::{Duration, Instant};

use cvliw_replicate::{
    compile_stats_ctx, CompileContext, CompileOptions, CompileScratch, LoopStats, Mode,
};

use crate::checks;
use crate::common::{
    gen_metrics, median, peak_rss_mb, percentile, sorted, stratified_order, Blocks, Histogram,
    HostTimes, Inputs, Report, Rng, SetupTimer, Tracer, WorkCounts,
};

/// Size classes of the unit order (each block of this many consecutive
/// units holds one unit of every class); also the units per throughput
/// block.
const STRATA: usize = 100;

pub struct SuiteRun {
    /// Set-up repetitions (see `SetupTimer`) and the generation part of
    /// each.
    setup: SetupTimer,
    gen_s: Vec<f64>,
    /// Wall time per `compile_stats_ctx` call.
    latency: Histogram,
    /// Compile calls per wall second of each block of `STRATA` units.
    blocks: Blocks,
    /// Wall time of the timed region, seconds, and what the host took.
    region_s: f64,
    host: String,
    /// `VmHWM` at the end of the timed region, before the output checks.
    peak_rss_mb: f64,
    units_done: u64,
    /// First-pass stats per key (`None` = compile error).
    first: Vec<Option<LoopStats>>,
    /// Later passes that disagreed with the first pass.
    repeat_mismatches: u64,
    compile_errors: u64,
    // Traced runs only: wall time per `compile_stats_ctx` call and per
    // `CompileContext::new`, the contexts' stage clocks, and their sum.
    compile_wall: Histogram,
    ctx_build_wall: Histogram,
    stage_ns: [u64; 4],
    core_s: f64,
    /// First-pass wall per unit (context build + five compiles), seconds.
    unit_wall_s: Vec<f64>,
}

impl SuiteRun {
    /// Median compile calls per wall second of a block.
    pub fn throughput(&self) -> f64 {
        self.blocks.median_rate()
    }
}

/// One set-up repetition: generate the committed suite and parse the
/// machines. The run compiles its own copy, made once before.
fn set_up_once(run: &mut SuiteRun) {
    let t0 = Instant::now();
    let (fresh, generate_s) = Inputs::generate(0);
    std::hint::black_box(&fresh);
    run.setup.samples.push(t0.elapsed().as_secs_f64());
    run.gen_s.push(generate_s);
}

/// Compiles units in stratified seeded order, cycling, until `seconds`
/// of wall time have passed and at least one full pass over the grid is
/// done. Set-up repetitions are interleaved between blocks.
pub fn run(inputs: &Inputs, seed: u64, seconds: f64, tracer: &mut Tracer) -> SuiteRun {
    let order = stratified_order(&inputs.unit_sizes(), STRATA, &mut Rng::new(seed));
    let modes = Mode::ALL;
    let mut run = SuiteRun {
        setup: SetupTimer::new(seconds),
        gen_s: Vec::new(),
        latency: Histogram::new(),
        blocks: Blocks::new(),
        region_s: 0.0,
        host: String::new(),
        peak_rss_mb: 0.0,
        units_done: 0,
        first: vec![None; inputs.keys()],
        repeat_mismatches: 0,
        compile_errors: 0,
        compile_wall: Histogram::new(),
        ctx_build_wall: Histogram::new(),
        stage_ns: [0; 4],
        core_s: 0.0,
        unit_wall_s: vec![0.0; inputs.units()],
    };
    let budget = Duration::from_secs_f64(seconds);
    let mut scratch = CompileScratch::default();
    set_up_once(&mut run);
    let mut excluded = Duration::ZERO;
    let host = HostTimes::now();
    let started = Instant::now();
    run.blocks.restart(started);
    for (i, &u) in order.iter().cycle().enumerate() {
        let pass = i / order.len();
        if i > 0 && (i % order.len()).is_multiple_of(STRATA) {
            let now = Instant::now();
            run.blocks.close(now);
            if run.setup.due((now - started - excluded).as_secs_f64()) {
                set_up_once(&mut run);
                let resumed = Instant::now();
                excluded += resumed - now;
                run.blocks.restart(resumed);
            }
        }
        if pass >= 1 && started.elapsed() - excluded >= budget {
            break;
        }
        let (m, g) = inputs.unit(u);
        let ddg = &inputs.workload_loop(g).ddg;
        let machine = &inputs.machines[m];

        let t0 = Instant::now();
        let ctx = CompileContext::new_with_scratch(ddg, machine, scratch);
        let t1 = Instant::now();
        let root = tracer.record("unit", t0, t0, None, u as u64);
        tracer.record("CompileContext::new", t0, t1, root, u as u64);
        let mut unit_s = (t1 - t0).as_secs_f64();
        if tracer.on {
            run.ctx_build_wall.record(unit_s);
        }
        for (mi, &mode) in modes.iter().enumerate() {
            let opts = CompileOptions { mode, max_ii: None };
            let c0 = Instant::now();
            let result = compile_stats_ctx(ddg, machine, &opts, &ctx);
            let c1 = Instant::now();
            let call_s = (c1 - c0).as_secs_f64();
            run.latency.record(call_s);
            unit_s += call_s;
            if tracer.on {
                tracer.record("compile_stats_ctx", c0, c1, root, u as u64);
                run.compile_wall.record(call_s);
            }
            let key = u * modes.len() + mi;
            match result {
                Ok(stats) if pass == 0 => run.first[key] = Some(stats),
                Ok(stats) => run.repeat_mismatches += u64::from(run.first[key] != Some(stats)),
                Err(_) => run.compile_errors += 1,
            }
        }
        tracer.close(root, Instant::now());
        if tracer.on {
            for (total, s) in run.stage_ns.iter_mut().zip(ctx.stage_nanos()) {
                *total += s;
            }
            run.core_s += unit_s;
        }
        if pass == 0 {
            run.unit_wall_s[u] = unit_s;
        }
        run.units_done += 1;
        run.blocks.add(modes.len() as u64);
        scratch = ctx.into_scratch();
    }
    run.region_s = (started.elapsed() - excluded).as_secs_f64();
    run.host = HostTimes::since(host, run.region_s, run.latency.count());
    run.peak_rss_mb = peak_rss_mb();
    run
}

/// The end-to-end metrics of a run and its output checks; returns the
/// simulation check's `[loops verified, mismatches]`.
pub fn report(inputs: &Inputs, seed: u64, run: &SuiteRun, r: &mut Report) -> [u64; 2] {
    let compiles = run.latency.count();
    r.attempted += compiles;
    if run.compile_errors > 0 {
        r.fail(
            run.compile_errors,
            format!("{} compile errors", run.compile_errors),
        );
    }
    if run.repeat_mismatches > 0 {
        r.fail(
            run.repeat_mismatches,
            format!(
                "{} recompiles disagreed with the first pass",
                run.repeat_mismatches
            ),
        );
    }
    checks::results_book(inputs, &run.first, r);
    let sim = checks::simulate_sample(inputs, seed, false, r, &|key, stats| {
        run.first[key] == Some(*stats)
    });

    r.metric("setup_s", median(&run.setup.samples), "s");
    r.metric("throughput_per_s", run.throughput(), "1/s");
    r.latencies(&run.latency);
    r.ok_share();
    r.metric("peak_rss_mb", run.peak_rss_mb, "MiB");
    gen_metrics(inputs, &run.first, r);
    r.note(format!(
        "suite: {} units ({compiles} compile_stats_ctx calls, latency n = {compiles}) in {:.3} wall \
         s ({:.1} calls/s over the region, median of {} blocks {:.1}) over {:.2} passes of {} \
         units; setup n = {}",
        run.units_done,
        run.region_s,
        compiles as f64 / run.region_s,
        run.blocks.count(),
        run.throughput(),
        run.units_done as f64 / inputs.units() as f64,
        inputs.units(),
        run.setup.samples.len()
    ));
    r.note(format!("{}; {}", run.host, run.blocks.spread()));
    sim
}

/// Per-layer metrics of a traced run (counts from the first pass, times
/// from every unit of the traced region).
pub fn layers(inputs: &Inputs, run: &SuiteRun, r: &mut Report) {
    r.metric("workloads.generate_ms", median(&run.gen_s) * 1e3, "ms");
    r.metric(
        "sched.context_build_us",
        run.ctx_build_wall.percentile(0.5) * 1e6,
        "us",
    );
    r.metric(
        "sched.context_builds_per_compile",
        run.units_done as f64 / run.latency.count().max(1) as f64,
        "count",
    );
    crate::stage_metrics(r, run.stage_ns, run.core_s, &run.compile_wall);

    let mut work = WorkCounts::default();
    for s in run.first.iter().flatten() {
        work.add_stats(s);
    }
    work.emit(r);

    // Pair = (machine, program), the suite runner's unit of scheduling:
    // with several workers the slowest pair bounds the wall clock.
    let mut pair_s = vec![0.0; inputs.machines.len() * inputs.programs.len()];
    for (u, s) in run.unit_wall_s.iter().enumerate() {
        let (m, g) = inputs.unit(u);
        pair_s[m * inputs.programs.len() + inputs.loops[g].0] += s;
    }
    let total: f64 = pair_s.iter().sum();
    let pairs = sorted(pair_s);
    let max = pairs.last().copied().unwrap_or(0.0);
    r.metric("exp.pair_ms.p50", percentile(&pairs, 0.5) * 1e3, "ms");
    r.metric("exp.pair_ms.max", max * 1e3, "ms");
    r.metric(
        "exp.tail_share",
        max / total.max(f64::MIN_POSITIVE),
        "share",
    );
}
