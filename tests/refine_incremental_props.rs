//! Differential properties of incremental partition refinement.
//!
//! The production refinement path earns its speed from three layers that
//! all skip work: lazy lexicographic rejection (most candidates are
//! discarded from a partial score, their bus delta priced by a one-pass
//! consumer-cluster census), a critical-path witness bound (ties on the
//! prefix are rejected from a lower bound on the length) and incremental
//! ASAP maintenance (the survivors are scored by updating only the
//! affected cone of the pseudo-schedule fixpoint). None of that may be
//! observable: on random loops across every interconnect topology
//! variant, the production path must produce the **identical
//! accepted-move sequence and final partition** as a naive oracle that
//! re-scores every candidate with a full from-scratch pseudo-schedule.
//!
//! The II sweep mirrors the driver's Figure-2 climb — each II refines the
//! previous II's result, with one `RefineScratch` carried across the
//! whole chain, exactly as `cvliw_replicate::CompileContext` does — so
//! every call starts from the buffers the previous II left behind. The
//! same climb also runs over suite loops on the paper's six machines, up
//! to the II the baseline compile settles at.

use cvliw::machine::{paper_specs, MachineConfig};
use cvliw::partition::testing::refine_existing_oracle;
use cvliw::partition::{partition_loop_scratch, refine_existing, RefineScratch};
use cvliw::prelude::{compile_loop, CompileOptions};
use cvliw::sched::LoopAnalysis;
use cvliw::workloads::{generate_loop, program, program_names, GeneratorParams};
use proptest::prelude::*;

/// Every interconnect fabric the machine model supports, on the cluster
/// counts the suite exercises: the paper's shared buses (2- and
/// 4-cluster, narrow and wide) plus the PR 5 topology appendix's
/// point-to-point rings (both latencies) and crossbar.
const TOPOLOGY_VARIANTS: [&str; 6] = [
    "2c1b2l64r",
    "4c1b2l64r",
    "4c4b4l64r",
    "4c-ring1l64r",
    "4c-ring2l64r",
    "4c-xbar1l64r",
];

/// IIs swept above the MII — enough for the carried scratch to cross IIs
/// without making the (slow, full-rescoring) oracle the dominant cost of
/// the test suite.
const II_STEPS: u32 = 3;

fn arb_params() -> impl Strategy<Value = GeneratorParams> {
    (
        (1usize..=5, 1usize..=4),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Production refinement (lazy rejection + witness bound + incremental
    /// ASAP, scratch carried across the II climb) versus the full-recompute
    /// oracle, move for move.
    #[test]
    fn incremental_refinement_matches_full_recompute_oracle(
        seed in 0u64..10_000,
        params in arb_params(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        for spec in TOPOLOGY_VARIANTS {
            let machine = MachineConfig::from_spec(spec).expect("preset parses");
            let analysis = LoopAnalysis::new(&ddg, &machine);
            let mii = analysis.mii();
            // One scratch across the whole climb, like the driver's
            // compile scratch.
            let mut scratch = RefineScratch::default();
            let mut part = partition_loop_scratch(&ddg, &machine, mii, &analysis, &mut scratch, 0);
            for ii in mii..mii + II_STEPS {
                let (oracle_part, oracle_moves) =
                    refine_existing_oracle(&ddg, &machine, ii, part.clone(), &analysis);
                let refined =
                    refine_existing(&ddg, &machine, ii, part.clone(), &analysis, &mut scratch);
                prop_assert_eq!(
                    scratch.moves(), &oracle_moves[..],
                    "{} at ii {}: accepted-move sequences diverged", spec, ii
                );
                prop_assert_eq!(
                    &refined, &oracle_part,
                    "{} at ii {}: refined partitions diverged", spec, ii
                );
                part = refined;
            }
        }
    }

    /// Scratch reuse alone must also be invisible: the climb on one
    /// carried scratch must retrace the same climb with a fresh scratch
    /// per call (the unit tests in `refine.rs` cover single calls; this
    /// pins the cross-II chain on generated loops).
    #[test]
    fn carried_scratch_climb_retraces_fresh_scratch_climb(
        seed in 0u64..10_000,
        params in arb_params(),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        for spec in TOPOLOGY_VARIANTS {
            let machine = MachineConfig::from_spec(spec).expect("preset parses");
            let analysis = LoopAnalysis::new(&ddg, &machine);
            let mii = analysis.mii();
            let mut carried = RefineScratch::default();
            let seed_part = partition_loop_scratch(&ddg, &machine, mii, &analysis, &mut carried, 0);
            let mut carried_part = seed_part.clone();
            let mut fresh_part = seed_part;
            for ii in mii..mii + II_STEPS {
                carried_part = refine_existing(
                    &ddg,
                    &machine,
                    ii,
                    carried_part.clone(),
                    &analysis,
                    &mut carried,
                );
                let mut fresh = RefineScratch::default();
                fresh_part = refine_existing(
                    &ddg,
                    &machine,
                    ii,
                    fresh_part.clone(),
                    &analysis,
                    &mut fresh,
                );
                prop_assert_eq!(
                    carried.moves(), fresh.moves(),
                    "{} at ii {}: scratch reuse changed the move sequence", spec, ii
                );
                prop_assert_eq!(&carried_part, &fresh_part);
            }
        }
    }
}

/// Suite loops per program in the suite differential, and their size cap
/// (the oracle re-scores every candidate with a full pseudo-schedule).
const SUITE_LOOPS_PER_PROGRAM: usize = 2;
const SUITE_MAX_OPS: usize = 32;

/// The climb above on suite loops: the first two loops of at most 32 ops of
/// every program, on the six paper machines, from the MII seed partition
/// up to the II the baseline compile settles at (at least `II_STEPS`
/// steps). Every chain step must retrace the oracle, and the witness bound
/// must have rejected some candidate, or this pins nothing about it.
#[test]
fn suite_chain_matches_full_recompute_oracle() {
    let mut bound_rejections = 0;
    for name in program_names() {
        let prog = program(name).expect("suite program");
        let loops = prog
            .loops
            .iter()
            .filter(|l| l.ddg.node_count() <= SUITE_MAX_OPS)
            .take(SUITE_LOOPS_PER_PROGRAM);
        for l in loops {
            for spec in paper_specs() {
                let machine = MachineConfig::from_spec(spec).expect("preset parses");
                let analysis = LoopAnalysis::new(&l.ddg, &machine);
                let mii = analysis.mii();
                let top = compile_loop(&l.ddg, &machine, &CompileOptions::baseline())
                    .expect("suite loops compile")
                    .stats
                    .ii
                    .max(mii + II_STEPS - 1);
                let mut scratch = RefineScratch::default();
                let mut part =
                    partition_loop_scratch(&l.ddg, &machine, mii, &analysis, &mut scratch, 0);
                scratch.reset_counts();
                for ii in mii..=top {
                    let (oracle_part, oracle_moves) =
                        refine_existing_oracle(&l.ddg, &machine, ii, part.clone(), &analysis);
                    part = refine_existing(&l.ddg, &machine, ii, part, &analysis, &mut scratch);
                    assert_eq!(
                        scratch.moves(),
                        &oracle_moves[..],
                        "{} on {spec} at ii {ii}: accepted-move sequences diverged",
                        l.name
                    );
                    assert_eq!(
                        part, oracle_part,
                        "{} on {spec} at ii {ii}: refined partitions diverged",
                        l.name
                    );
                }
                bound_rejections += scratch.bound_rejections();
            }
        }
    }
    assert!(bound_rejections > 0, "the witness bound never fired");
}
