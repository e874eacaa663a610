//! Differential properties of the flat coarsening.
//!
//! `cvliw_partition::coarsen` builds each round's coarse graph by
//! contracting the previous round's pair list, matches over it sorted in
//! place, merges class counts and stores the levels level-major in one
//! vector, with every buffer reused across calls. None of that may be
//! observable: on generated loops over 2–8 clusters with random unit mixes,
//! at every II from the MII to MII + 3, and on a sample of suite loops on
//! the paper's machines, every level must equal the one the nested
//! reference (`testing::coarsen_oracle`, a fresh aggregation over every DDG
//! edge per round) records. One scratch and one hierarchy are carried
//! across every loop and machine, as the compile scratch carries them.

use cvliw::ddg::Ddg;
use cvliw::machine::{paper_specs, MachineConfig};
use cvliw::partition::testing::coarsen_oracle;
use cvliw::partition::{coarsen, Hierarchy, RefineScratch};
use cvliw::sched::LoopAnalysis;
use cvliw::workloads::{generate_loop, program, program_names, GeneratorParams};
use proptest::prelude::*;

/// IIs checked above the MII.
const II_STEPS: u32 = 4;

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

/// Machines of 2–8 clusters, each with its own `int.fp.mem` unit mix (so
/// the largest cluster, which bounds a macro, varies by class) and a bus
/// latency of 1–4.
fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    (
        prop::collection::vec((1u8..=3, 1u8..=3, 1u8..=2), 2..=8),
        1u32..=4,
    )
        .prop_map(|(mixes, lat)| {
            let clusters: Vec<String> = mixes
                .iter()
                .map(|(i, f, m)| format!("{i}.{f}.{m}"))
                .collect();
            let spec = format!("het:{}:1b{lat}l64r", clusters.join("+"));
            MachineConfig::from_extended_spec(&spec).expect("valid spec")
        })
}

/// Coarsens `ddg` on `machine` at every II from the MII to `MII +
/// II_STEPS − 1` into the carried buffers and compares each hierarchy with
/// the oracle's, level by level.
fn check_levels(
    ddg: &Ddg,
    machine: &MachineConfig,
    scratch: &mut RefineScratch,
    hierarchy: &mut Hierarchy,
) -> Result<(), String> {
    let analysis = LoopAnalysis::new(ddg, machine);
    let mii = analysis.mii();
    for ii in mii..mii + II_STEPS {
        let rounds = scratch.coarsen_rounds();
        coarsen(ddg, machine, ii, &analysis, scratch, hierarchy);
        let oracle = coarsen_oracle(ddg, machine, ii, &analysis);
        if !oracle.matches(hierarchy) {
            return Err(format!(
                "{} at ii {ii}: flat levels {hierarchy:?} differ from the oracle's {oracle:?}",
                machine.spec()
            ));
        }
        if scratch.coarsen_rounds() - rounds != oracle.levels.len() as u64 - 1 {
            return Err(format!("{} at ii {ii}: miscounted rounds", machine.spec()));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn flat_coarsening_matches_the_nested_oracle(
        seed in 0u64..10_000,
        params in arb_params(),
        machines in prop::collection::vec(arb_machine(), 1..4),
    ) {
        let ddg = generate_loop(seed, &params).expect("generator is total").ddg;
        let mut scratch = RefineScratch::default();
        let mut hierarchy = Hierarchy::default();
        for machine in &machines {
            let checked = check_levels(&ddg, machine, &mut scratch, &mut hierarchy);
            prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
        }
    }
}

/// Suite loops per program in the sample.
const SUITE_LOOPS_PER_PROGRAM: usize = 4;

/// The same comparison on the first loops of every suite program, on the
/// six paper machines.
#[test]
fn flat_coarsening_matches_the_nested_oracle_on_suite_loops() {
    let mut scratch = RefineScratch::default();
    let mut hierarchy = Hierarchy::default();
    let mut multi_level = 0;
    for name in program_names() {
        let prog = program(name).expect("suite program");
        for l in prog.loops.iter().take(SUITE_LOOPS_PER_PROGRAM) {
            for spec in paper_specs() {
                let machine = MachineConfig::from_spec(spec).expect("preset parses");
                check_levels(&l.ddg, &machine, &mut scratch, &mut hierarchy)
                    .unwrap_or_else(|e| panic!("{}: {e}", l.name));
                multi_level += usize::from(hierarchy.len() > 2);
            }
        }
    }
    assert!(
        multi_level > 0,
        "the sample must coarsen over several rounds"
    );
}
