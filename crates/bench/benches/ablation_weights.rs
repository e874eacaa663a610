//! Ablation of the §3.3 selection heuristic (beyond the paper): what
//! happens if subgraphs are picked by a different rule than the
//! load-sharing-removal weight?
//!
//! Policies compared, all driven through the public engine API:
//! * `weight`  — the paper's heuristic ([`ReplicationEngine::run`]);
//! * `fewest`  — smallest number of added instances first;
//! * `first`   — lowest node id (arbitrary but deterministic);
//! * `heaviest`— highest weight first (adversarial).

use cvliw_bench::{banner, f2, pct, print_row, suite_for_bench};
use cvliw_machine::MachineConfig;
use cvliw_replicate::{EngineScratch, LoopAnalysis, ReplicationEngine, ReplicationStats};
use cvliw_workloads::BenchmarkProgram;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Policy {
    Weight,
    Fewest,
    First,
    Heaviest,
}

fn run_policy(
    programs: &[BenchmarkProgram],
    machine: &MachineConfig,
    policy: Policy,
) -> (u64, u64, u64, u64) {
    // (coms before, coms removed, instances added, loops stuck)
    let mut before = 0u64;
    let mut removed = 0u64;
    let mut added = 0u64;
    let mut stuck = 0u64;
    for program in programs {
        for l in &program.loops {
            let analysis = LoopAnalysis::new(&l.ddg, machine);
            let mii = analysis.mii();
            let partition = cvliw_partition::partition_loop(&l.ddg, machine, mii);
            let mut engine =
                ReplicationEngine::new(&l.ddg, machine, mii, partition.to_assignment(), &analysis);
            let outcome = match policy {
                Policy::Weight => engine.run(&mut EngineScratch::default()),
                _ => run_custom(&mut engine, policy),
            };
            let fits = outcome == cvliw_replicate::ReplicationOutcome::Fits;
            let (_, stats): (_, ReplicationStats) = engine.into_parts();
            before += u64::from(stats.initial_coms);
            removed += u64::from(stats.removed_coms());
            added += u64::from(stats.added_instances());
            if !fits {
                stuck += 1;
            }
        }
    }
    (before, removed, added, stuck)
}

fn run_custom(
    engine: &mut ReplicationEngine<'_>,
    policy: Policy,
) -> cvliw_replicate::ReplicationOutcome {
    use cvliw_replicate::ReplicationOutcome;
    while engine.extra_coms() > 0 {
        let weights = engine.weights().to_vec();
        let mut candidates: Vec<_> = engine
            .plans()
            .iter()
            .zip(weights)
            .map(|(p, w)| (w, p.to_plan()))
            .collect();
        match policy {
            Policy::Fewest => candidates.sort_by_key(|(_, p)| (p.added_instances(), p.com)),
            Policy::First => candidates.sort_by_key(|(_, p)| p.com),
            Policy::Heaviest => {
                candidates.sort_by(|(wa, _), (wb, _)| wb.partial_cmp(wa).expect("finite weights"));
            }
            Policy::Weight => unreachable!("handled by engine.run"),
        }
        // Take the first candidate that fits the machine; mirror the
        // engine's feasibility rule by attempting the commit only when the
        // subgraph fits (the engine would refuse otherwise).
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

fn main() {
    banner("Ablation: subgraph selection policy", "§3.3 design choice");
    let suite = suite_for_bench();
    let machine = MachineConfig::from_spec("4c1b2l64r").expect("spec parses");

    print_row(
        "policy",
        &[
            "removed %".into(),
            "instr/com".into(),
            "added".into(),
            "stuck loops".into(),
        ],
    );
    for (name, policy) in [
        ("weight", Policy::Weight),
        ("fewest", Policy::Fewest),
        ("first", Policy::First),
        ("heaviest", Policy::Heaviest),
    ] {
        let (before, removed, added, stuck) = run_policy(&suite, &machine, policy);
        print_row(
            name,
            &[
                pct(removed as f64 / before.max(1) as f64),
                f2(added as f64 / removed.max(1) as f64),
                added.to_string(),
                stuck.to_string(),
            ],
        );
    }
    println!("\nexpected: the paper's weight policy removes communications at the lowest instruction cost");
}
