//! Regenerates the §5.2 comparison: replicating coarsening macro-nodes
//! (one replication may remove several communications) against the §3
//! per-communication subgraph engine.
//!
//! The paper's finding: macro-node replication copies too many
//! unnecessary instructions and is rarely beneficial.

use cvliw_bench::{banner, f2, pct, print_row, suite_for_bench};
use cvliw_machine::MachineConfig;
use cvliw_replicate::{macro_replicate, EngineScratch, LoopAnalysis, ReplicationEngine};

fn main() {
    banner("Ablation: macro-node vs subgraph replication", "§5.2");
    let suite = suite_for_bench();
    let machine = MachineConfig::from_spec("4c1b2l64r").expect("spec parses");

    let mut fine = (0u64, 0u64, 0u64); // (before, removed, added)
    let mut coarse = (0u64, 0u64, 0u64);
    for program in &suite {
        for l in &program.loops {
            let analysis = LoopAnalysis::new(&l.ddg, &machine);
            let mii = analysis.mii();
            let partition = cvliw_partition::partition_loop(&l.ddg, &machine, mii);

            let mut engine =
                ReplicationEngine::new(&l.ddg, &machine, mii, partition.to_assignment(), &analysis);
            engine.run(&mut EngineScratch::default());
            let (_, s) = engine.into_parts();
            fine.0 += u64::from(s.initial_coms);
            fine.1 += u64::from(s.removed_coms());
            fine.2 += u64::from(s.added_instances());

            let (_, s) = macro_replicate(&l.ddg, &machine, mii, &partition, &analysis);
            coarse.0 += u64::from(s.initial_coms);
            coarse.1 += u64::from(s.removed_coms());
            coarse.2 += u64::from(s.added_instances());
        }
    }

    print_row(
        "strategy",
        &["removed %".into(), "added".into(), "instr/com".into()],
    );
    for (name, (before, removed, added)) in [("subgraph", fine), ("macro-node", coarse)] {
        print_row(
            name,
            &[
                pct(removed as f64 / before.max(1) as f64),
                added.to_string(),
                f2(added as f64 / removed.max(1) as f64),
            ],
        );
    }
    println!("\npaper shape: macro-nodes pay more instructions per removed communication");
}
