//! The cvliw benchmark: one closed-loop workload per invocation, end-to-end
//! metrics by default, per-layer metrics with `--trace 1`.
//!
//! ```text
//! cvliw_perfbench --workload <suite|serve-cold|serve-hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines go first; the last line of standard output is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this package for the metric → layer → workload map.

mod checks;
mod common;
mod serve;
mod suite;

use std::time::Instant;

use cvliw_machine::MachineConfig;
use cvliw_replicate::Stage;

use common::{bench_dir, median, Histogram, Inputs, Report, Tracer};
use serve::{Kind, Traffic};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["suite", "serve-cold", "serve-hot"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (suite, serve-cold, serve-hot)"
        ));
    }
    let seconds: f64 = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace,
    })
}

/// `core.stage.*`, their reconciliation with the timed core calls, and
/// the per-call compile latency. By construction
/// `Σ core.stage.* + core.unattributed_ms = core.compile_ms`, the summed
/// wall of the timed `CompileContext::new` and `compile_stats_ctx` calls.
fn stage_metrics(r: &mut Report, stage_ns: [u64; 4], core_s: f64, compile_wall: &Histogram) {
    let mut attributed_ms = 0.0;
    for stage in Stage::ALL {
        let ms = stage_ns[stage as usize] as f64 / 1e6;
        attributed_ms += ms;
        r.metric(&format!("core.stage.{}_ms", stage.name()), ms, "ms");
    }
    r.metric("core.compile_ms", core_s * 1e3, "ms");
    r.metric("core.unattributed_ms", core_s * 1e3 - attributed_ms, "ms");
    r.metric(
        "core.compile_us.p50",
        compile_wall.percentile(0.5) * 1e6,
        "us",
    );
    r.metric(
        "core.compile_us.p99",
        compile_wall.percentile(0.99) * 1e6,
        "us",
    );
}

/// Median `MachineConfig::from_spec` time over repeated parses of the
/// paper specs.
fn spec_parse_us(inputs: &Inputs) -> f64 {
    let mut samples = Vec::new();
    for _ in 0..200 {
        for spec in &inputs.specs {
            let t0 = Instant::now();
            let m = MachineConfig::from_spec(std::hint::black_box(spec));
            samples.push(t0.elapsed().as_secs_f64());
            let _ = std::hint::black_box(m);
        }
    }
    median(&samples) * 1e6
}

/// Names the per-layer metrics every traced run reports, so a layer the
/// workload bypasses still appears (as 0).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.generate_ms", "ms"),
    ("ir.parse_us", "us"),
    ("machine.spec_parse_us", "us"),
    ("sched.context_build_us", "us"),
    ("sched.context_builds_per_compile", "count"),
    ("core.stage.analysis_ms", "ms"),
    ("core.stage.partition_ms", "ms"),
    ("core.stage.replicate_ms", "ms"),
    ("core.stage.schedule_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.compile_us.p50", "us"),
    ("core.compile_us.p99", "us"),
    ("core.fresh_ctx_compile_us", "us"),
    ("core.warm_ctx_compile_us", "us"),
    ("core.ii_attempts_per_compile", "count"),
    ("core.ii_at_mii_share", "share"),
    ("core.cause.bus", "count"),
    ("core.cause.recurrence", "count"),
    ("core.cause.registers", "count"),
    ("core.cause.resources", "count"),
    ("core.coms_removed_share", "share"),
    ("core.net_added_per_compile", "count"),
    ("partition.coms_per_compile", "count"),
    ("exp.pair_ms.p50", "ms"),
    ("exp.pair_ms.max", "ms"),
    ("exp.tail_share", "share"),
    ("serve.hit_us.p50", "us"),
    ("serve.hit_us.p99", "us"),
    ("serve.miss_us.p50", "us"),
    ("serve.miss_us.p99", "us"),
    ("serve.hit_share", "share"),
    ("serve.evictions", "count"),
    ("serve.coalesced", "count"),
    ("serve.errors", "count"),
    ("serve.shed", "count"),
    ("serve.miss_overhead_us", "us"),
    ("serve.persist.load_ms", "ms"),
    ("serve.persist.loaded_entries", "count"),
    ("serve.persist.journal_bytes_per_insert", "B"),
    ("serve.persist.snapshots", "count"),
    ("sim.loops_verified", "count"),
    ("sim.mismatches", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

fn run(args: &Args) -> Result<Report, String> {
    let mut r = Report::default();
    let mut layer = Report::default();
    let mut tracer = Tracer::new(args.trace);
    let seconds = args.seconds;
    let sim;
    let (inputs, _) = Inputs::generate(0);

    if args.workload == "suite" {
        // A traced invocation first repeats the run untraced, to state
        // the tracing overhead against it.
        let untraced = args
            .trace
            .then(|| suite::run(&inputs, args.seed, seconds, &mut Tracer::new(false)).throughput());
        let run = suite::run(&inputs, args.seed, seconds, &mut tracer);
        sim = suite::report(&inputs, args.seed, &run, &mut r);
        if let Some(plain) = untraced {
            suite::layers(&inputs, &run, &mut layer);
            layer.metric("machine.spec_parse_us", spec_parse_us(&inputs), "us");
            layer.metric(
                "trace.overhead_pct",
                (plain / run.throughput() - 1.0) * 100.0,
                "%",
            );
        }
    } else {
        let kind = if args.workload == "serve-cold" {
            Kind::Cold
        } else {
            Kind::Hot
        };
        let traffic = Traffic::new(&inputs);
        let io = |e: std::io::Error| format!("serve cache directory: {e}");
        let untraced = if args.trace {
            let plain = serve::run(
                kind,
                &inputs,
                &traffic,
                args.seed,
                seconds,
                &mut Tracer::new(false),
            );
            Some(plain.map_err(io)?.throughput())
        } else {
            None
        };
        let run =
            serve::run(kind, &inputs, &traffic, args.seed, seconds, &mut tracer).map_err(io)?;
        let stats;
        (sim, stats) = serve::report(&inputs, &traffic, args.seed, &run, &mut r);
        if let Some(plain) = untraced {
            serve::layers(&inputs, &traffic, args.seed, &run, &stats, &mut layer);
            layer.metric("machine.spec_parse_us", spec_parse_us(&inputs), "us");
            layer.metric(
                "trace.overhead_pct",
                (plain / run.throughput() - 1.0) * 100.0,
                "%",
            );
        }
    }

    if args.trace {
        layer.metric("trace.spans", tracer.spans.len() as f64, "count");
        layer.metric("sim.loops_verified", sim[0] as f64, "count");
        layer.metric("sim.mismatches", sim[1] as f64, "count");
        let path = bench_dir()
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        r.note(format!(
            "{} spans ({} dropped) written to {}",
            tracer.spans.len(),
            tracer.dropped,
            path.display()
        ));
        for (name, unit) in LAYER_METRICS {
            if !layer.metrics.iter().any(|(n, _, _)| n == name) {
                layer.metric(name, 0.0, unit);
            }
        }
        r.notes
            .push("end-to-end metrics of the traced run (for reference):".into());
        for (name, value, unit) in &r.metrics {
            r.notes.push(format!("  {name:<28} {value:>14.6} {unit}"));
        }
        r.metrics = layer.metrics;
    }
    Ok(r)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: cvliw_perfbench --workload <suite|serve-cold|serve-hot> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &r.notes {
        println!("{note}");
    }
    for (name, value, unit) in &r.metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    for p in &r.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", r.json());
}
