//! Criterion micro-benchmarks for the compiler itself: the `LoopAnalysis`
//! cache the driver threads through every stage (latencies, recurrences
//! and the swing order), partitioning, scheduling and the full pipeline
//! with and without replication. These measure *our* implementation's
//! throughput, not a paper result.
//!
//! This is the one target a plain `cargo bench` runs (every figure
//! regenerator is `bench = false` and invoked explicitly); the suite-level
//! wall-clock harness is `cvliw bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cvliw_machine::MachineConfig;
use cvliw_partition::partition_loop;
use cvliw_replicate::{
    compile_loop, compile_loop_ctx, CompileContext, CompileOptions, LoopAnalysis, Mode,
};
use cvliw_workloads::{generate_loop, GeneratorParams};

fn representative_loop() -> cvliw_ddg::Ddg {
    let params = GeneratorParams {
        coupling: 0.35,
        chains: (6, 6),
        depth: (5, 5),
        ..GeneratorParams::medium()
    };
    generate_loop(1234, &params).expect("valid loop").ddg
}

fn bench_pipeline(c: &mut Criterion) {
    let ddg = representative_loop();
    let machine = MachineConfig::from_spec("4c1b2l64r").expect("spec parses");
    let ctx = CompileContext::new(&ddg, &machine);

    c.bench_function("loop_analysis/build", |b| {
        b.iter(|| black_box(LoopAnalysis::new(black_box(&ddg), black_box(&machine))));
    });

    c.bench_function("partition/40ops", |b| {
        b.iter(|| black_box(partition_loop(black_box(&ddg), black_box(&machine), 4)));
    });

    c.bench_function("compile/baseline", |b| {
        b.iter(|| {
            black_box(compile_loop(
                black_box(&ddg),
                black_box(&machine),
                &CompileOptions::baseline(),
            ))
        });
    });

    c.bench_function("compile/replicate", |b| {
        b.iter(|| {
            black_box(compile_loop(
                black_box(&ddg),
                black_box(&machine),
                &CompileOptions::replicate(),
            ))
        });
    });

    // The driver entry the suite and the daemon use: one context built
    // once, every compile reusing it — the analysis, the memoized
    // refinement chain and engine outcomes, and the warm scratch. The
    // delta vs `compile/replicate` is what the context saves per call.
    c.bench_function("compile/replicate_cached", |b| {
        b.iter(|| {
            black_box(compile_loop_ctx(
                black_box(&ddg),
                black_box(&machine),
                &CompileOptions::replicate(),
                black_box(&ctx),
            ))
        });
    });

    // One grid cell pair's worth of work: all five modes sharing one
    // fresh context, as `cvliw suite` schedules it.
    c.bench_function("compile/all_modes_shared_analysis", |b| {
        b.iter(|| {
            let ctx = CompileContext::new(black_box(&ddg), black_box(&machine));
            for mode in Mode::ALL {
                let opts = CompileOptions { mode, max_ii: None };
                black_box(compile_loop_ctx(&ddg, &machine, &opts, &ctx)).ok();
            }
        });
    });
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
