//! Equivalence property test for the II-invariant analysis cache and the
//! dense-arena scheduler: one `CompileContext` shared across all five modes
//! (`compile_loop_ctx`) and a scheduler scratch reused across attempts must
//! produce **bit-identical** results — same instances, copies, length and
//! II — to a fresh context per compile (`compile_loop`) and a fresh scratch
//! per attempt, across generated loops × machines × modes.
//!
//! This is the determinism contract of the perf work: caching and the
//! arena are observationally pure, and `docs/RESULTS.md` plus the golden
//! emitter files stay byte-identical because every cell compiles to the
//! same statistics no matter which entry point ran it.

use cvliw::ddg::Ddg;
use cvliw::machine::{paper_specs, FuCounts, LatencyTable, MachineConfig};
use cvliw::prelude::*;
use cvliw::replicate::{compile_loop_ctx, CompileContext, WorkCounts};
use cvliw::sched::{schedule, Assignment, LoopAnalysis, SchedScratch, ScheduleRequest};
use cvliw::workloads::{generate_loop, suite_with_salt, GeneratorParams};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        (1usize..=6, 1usize..=5),
        0.0f64..0.6,
        0.0f64..1.0,
        0.0f64..0.3,
    )
        .prop_map(
            |((chains, depth), coupling, shared_addr, recurrence)| GeneratorParams {
                chains: (chains, chains + 2),
                depth: (depth, depth + 2),
                coupling,
                shared_addr,
                recurrence,
                ..GeneratorParams::medium()
            },
        )
}

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    (
        prop_oneof![Just(1u8), Just(2u8), Just(4u8)],
        1u8..=4,
        1u32..=4,
        prop_oneof![Just(32u32), Just(64u32), Just(128u32)],
    )
        .prop_map(|(clusters, buses, bus_lat, regs)| {
            let per = 4 / clusters;
            MachineConfig::new(
                clusters,
                buses,
                bus_lat,
                regs,
                FuCounts {
                    int: per,
                    fp: per,
                    mem: per,
                },
                LatencyTable::PAPER,
            )
            .expect("valid machine")
        })
}

/// Drives one `CompileContext` per mode order — `Mode::ALL` forward,
/// reversed and rotated — and checks every compile against a fresh
/// `compile_loop` of its mode: same schedule, assignment and statistics,
/// or the same error. The schedule memo serves later modes the attempts
/// earlier ones ran, so this is its soundness check whichever mode gets
/// to an attempt first. Returns the contexts' work counts, which must not
/// depend on the order.
fn check_every_mode_order(ddg: &Ddg, machine: &MachineConfig) -> Result<WorkCounts, String> {
    let opts = |mode| CompileOptions { mode, max_ii: None };
    let fresh: Vec<_> = Mode::ALL
        .iter()
        .map(|&mode| compile_loop(ddg, machine, &opts(mode)))
        .collect();
    let forward: Vec<usize> = (0..Mode::ALL.len()).collect();
    let reversed: Vec<usize> = forward.iter().rev().copied().collect();
    let rotated: Vec<usize> = forward.iter().map(|&i| (i + 2) % forward.len()).collect();
    let mut counts: Option<WorkCounts> = None;
    for order in [forward, reversed, rotated] {
        let ctx = CompileContext::new(ddg, machine);
        for &i in &order {
            let mode = Mode::ALL[i];
            let shared = compile_loop_ctx(ddg, machine, &opts(mode), &ctx);
            let agree = match (&fresh[i], &shared) {
                (Ok(a), Ok(b)) => {
                    a.schedule == b.schedule && a.assignment == b.assignment && a.stats == b.stats
                }
                (Err(a), Err(b)) => a == b,
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "mode {} in order {order:?} differs from a fresh compile",
                    mode.name()
                ));
            }
        }
        let work = ctx.work();
        match counts {
            Some(c) if c != work => {
                return Err(format!("order {order:?} counted {work:?}, not {c:?}"));
            }
            _ => counts = Some(work),
        }
    }
    Ok(counts.expect("three orders ran"))
}

/// The mode-order check on a sample of suite loops under all six paper
/// machines: the first two loops of each program with at most 32
/// operations, which keeps this debug-build test to seconds (the
/// generated-loop property above covers the larger shapes). The sample
/// must reuse attempts, or the memo was never exercised.
#[test]
fn schedule_memo_matches_fresh_compiles_on_suite_loops() {
    let mut total = WorkCounts::default();
    for spec in paper_specs() {
        let machine = MachineConfig::from_spec(spec).expect("paper spec parses");
        for program in suite_with_salt(0, usize::MAX) {
            let sample = program.loops.iter().filter(|l| l.ddg.node_count() <= 32);
            for l in sample.take(2) {
                let work = check_every_mode_order(&l.ddg, &machine)
                    .unwrap_or_else(|e| panic!("{spec} {}: {e}", l.name));
                total.add(work);
            }
        }
    }
    assert!(
        total.schedule_attempts_reused > 0 && total.schedule_attempts_run > 0,
        "the sample never reused a schedule attempt: {total:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The schedule memo is sound whichever mode reaches an attempt first:
    /// the mode-order check on generated loops and machines.
    #[test]
    fn schedule_memo_is_independent_of_mode_order(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let checked = check_every_mode_order(&ddg, &machine);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    /// One shared `CompileContext` across all five modes versus a fresh
    /// self-contained `compile_loop` per mode: identical schedules,
    /// assignments, statistics — and identical errors when no II fits.
    #[test]
    fn cached_context_is_bit_identical_across_all_modes(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let ctx = CompileContext::new(&ddg, &machine);

        for mode in Mode::ALL {
            let opts = CompileOptions { mode, max_ii: None };
            let fresh = compile_loop(&ddg, &machine, &opts);
            let shared = compile_loop_ctx(&ddg, &machine, &opts, &ctx);
            match (&fresh, &shared) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(&a.schedule, &b.schedule, "mode {}", mode.name());
                    prop_assert_eq!(&a.assignment, &b.assignment);
                    prop_assert_eq!(a.stats, b.stats);
                    // The shared fields the suite aggregates, spelled out.
                    prop_assert_eq!(a.stats.ii, b.stats.ii);
                    prop_assert_eq!(a.schedule.length(), b.schedule.length());
                    prop_assert_eq!(a.schedule.op_count(), b.schedule.op_count());
                    prop_assert_eq!(a.schedule.copy_count(), b.schedule.copy_count());
                    a.schedule.verify(&ddg, &machine).expect("schedule verifies");
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                _ => prop_assert!(
                    false,
                    "cached and uncached paths disagree on success for mode {}",
                    mode.name()
                ),
            }
        }
    }

    /// Scratch reuse is observationally pure: compiling through one
    /// `CompileContext` — whose `CompileScratch` stays dirty across modes
    /// and repeated compilations — must equal a fresh-state `compile_loop`
    /// per call: same II, same schedule, same statistics. "Dirty" here
    /// covers every piece of incremental refinement state this crate
    /// maintains: the `RefineScratch` with its incremental-ASAP engine
    /// (per-candidate edge-latency overrides, cone worklists, undo logs),
    /// the per-group consumer census and the reused base-state
    /// communication counts of the multilevel walk. An arbitrary capped pre-compile
    /// first abandons the II climb at an arbitrary prefix — possibly as
    /// an error — so the comparison passes start from a genuinely
    /// arbitrary dirty state, not just a completed one. The second pass
    /// through every mode then exercises reuse of buffers left behind by
    /// a *different* mode's attempt loop (including the failure-driven
    /// II-skip state), and the driver's debug assertions re-verify every
    /// skipped attempt along the way.
    ///
    /// The scratch itself arrives *recycled from a different loop*, the
    /// way the suite's loop-granular worker pool hands it around: a donor
    /// loop is compiled first and its `CompileScratch` — dense `PlanArena`,
    /// engine buffers, refinement scratch, all sized and filled for the
    /// donor's graph — is recovered with `into_scratch` and threaded into
    /// this loop's context via `new_with_scratch`. Equality with the
    /// fresh-state path proves the scratch holds nothing graph-bound: every
    /// refinement call rebuilds its state from the partition it is handed,
    /// and the engine refills its liveness anchors from this loop's
    /// analysis.
    #[test]
    fn scratch_reuse_equals_fresh_state_compilation(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
        cap_bump in 0u32..3,
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;

        // Dirty the scratch on a *different* loop first — different node
        // count, different partitions, a populated plan arena — before it
        // ever sees this test's graph.
        let donor = generate_loop(seed ^ 0x9e37_79b9, &params)
            .expect("generator is total")
            .ddg;
        let donor_ctx = CompileContext::new(&donor, &machine);
        let donor_opts = CompileOptions { mode: Mode::Replicate, max_ii: None };
        let _ = compile_loop_ctx(&donor, &machine, &donor_opts, &donor_ctx);
        let ctx = CompileContext::new_with_scratch(&ddg, &machine, donor_ctx.into_scratch());

        // Dirty every incremental structure with a prior compile that may
        // abort partway: the refinement chain and the incremental-ASAP
        // scratch are left at whatever prefix the capped climb reached.
        let capped = CompileOptions {
            mode: Mode::Replicate,
            max_ii: Some(ctx.analysis().mii() + cap_bump),
        };
        let _ = compile_loop_ctx(&ddg, &machine, &capped, &ctx);

        for pass in 0..2 {
            for mode in Mode::ALL {
                let opts = CompileOptions { mode, max_ii: None };
                let fresh = compile_loop(&ddg, &machine, &opts);
                let reused = compile_loop_ctx(&ddg, &machine, &opts, &ctx);
                match (&fresh, &reused) {
                    (Ok(a), Ok(b)) => {
                        prop_assert_eq!(
                            a.stats.ii, b.stats.ii,
                            "pass {} mode {}", pass, mode.name()
                        );
                        prop_assert_eq!(&a.schedule, &b.schedule);
                        prop_assert_eq!(&a.assignment, &b.assignment);
                        prop_assert_eq!(a.stats, b.stats);
                    }
                    (Err(a), Err(b)) => prop_assert_eq!(a, b),
                    _ => prop_assert!(
                        false,
                        "dirty-scratch and fresh-state compilation disagree on \
                         success for mode {} (pass {})",
                        mode.name(),
                        pass
                    ),
                }
            }
        }
    }

    /// Best-of-N seed racing is deterministic at the context level: two
    /// independently constructed seeded contexts — each racing its
    /// perturbed refinements on its own scoped threads — must agree
    /// bit-for-bit across every mode, because the winner is selected by
    /// `(score, seed-index)`, never by thread completion order.
    #[test]
    fn seed_racing_context_is_deterministic(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let a = CompileContext::new(&ddg, &machine).with_refine_seeds(4);
        let b = CompileContext::new(&ddg, &machine).with_refine_seeds(4);
        for mode in Mode::ALL {
            let opts = CompileOptions { mode, max_ii: None };
            let ra = compile_loop_ctx(&ddg, &machine, &opts, &a);
            let rb = compile_loop_ctx(&ddg, &machine, &opts, &b);
            match (&ra, &rb) {
                (Ok(x), Ok(y)) => {
                    prop_assert_eq!(&x.schedule, &y.schedule, "mode {}", mode.name());
                    prop_assert_eq!(&x.assignment, &y.assignment);
                    prop_assert_eq!(x.stats, y.stats);
                }
                (Err(x), Err(y)) => prop_assert_eq!(x, y),
                _ => prop_assert!(
                    false,
                    "raced contexts disagree on success for mode {}",
                    mode.name()
                ),
            }
        }
    }

    /// The cached analysis holds the topological order the graph analysis
    /// computes (the swing order is pinned against the set-based oracle in
    /// `swing_order_oracle.rs`), and a scheduler scratch left dirty by
    /// attempts at another II and under the zero-bus relaxation yields the
    /// same schedules (or errors) as a fresh one on a plain
    /// partition-derived assignment. Each call runs the swing pass and,
    /// when swing placement closes a window, the topological pass on the
    /// same arena, so both orders see the dirty scratch.
    #[test]
    fn scheduler_arena_matches_for_both_strategies(
        seed in 0u64..10_000,
        params in arb_params(),
        machine in arb_machine(),
        ii_bump in 0u32..4,
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let analysis = LoopAnalysis::new(&ddg, &machine);
        let partition = cvliw::partition::partition_loop(&ddg, &machine, analysis.mii());
        let assignment: Assignment = partition.to_assignment();
        prop_assert_eq!(analysis.topo_order(), &cvliw::ddg::topo_order(&ddg)[..]);
        let request = |ii, zero_bus_dep_latency| ScheduleRequest {
            ddg: &ddg,
            machine: &machine,
            assignment: &assignment,
            ii,
            zero_bus_dep_latency,
        };
        let ii = analysis.mii() + ii_bump;
        let mut dirty = SchedScratch::default();
        let _ = schedule(&request(ii + 1, false), &analysis, &mut dirty);
        let _ = schedule(&request(ii, true), &analysis, &mut dirty);
        for zero_bus in [false, true] {
            let fresh = schedule(&request(ii, zero_bus), &analysis, &mut SchedScratch::default());
            let reused = schedule(&request(ii, zero_bus), &analysis, &mut dirty);
            match (fresh, reused) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => prop_assert!(false, "disagreement: {a:?} vs {b:?}"),
            }
        }
    }
}
