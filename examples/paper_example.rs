//! Walk through the paper's worked example (Figures 3 and 6): build the
//! 14-instruction graph, print the replication subgraphs and weights,
//! replicate the lightest one and show how the remaining plans update.
//!
//! Run with `cargo run --example paper_example`.

use cvliw::replicate::paper_example::{fig3_example, fig3_machine, FIG3_II};
use cvliw::replicate::{LoopAnalysis, ReplicationEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (ddg, assignment, _) = fig3_example()?;
    let machine = fig3_machine()?;

    println!(
        "Figure 3: {} instructions on 4 clusters, II = {FIG3_II}",
        ddg.node_count()
    );
    let coms = assignment.communicated(&ddg);
    println!(
        "communicated values: {:?}",
        coms.iter()
            .map(|&n| ddg.display_label(n))
            .collect::<Vec<_>>()
    );

    let analysis = LoopAnalysis::new(&ddg, &machine);
    let mut engine = ReplicationEngine::new(&ddg, &machine, FIG3_II, assignment, &analysis);
    println!(
        "extra_coms = {} (3 communications, bus fits 2 per II)\n",
        engine.extra_coms()
    );

    println!("replication subgraphs and weights (paper: S_D=49/16, S_J=40/16):");
    let weights = engine.weights().to_vec();
    let plan = {
        let plans = engine.plans();
        for (plan, &w) in plans.iter().zip(&weights) {
            println!(
                "  S_{}: nodes {:?} into clusters {}, removable {:?}, weight {w:.4} ({}/16)",
                ddg.display_label(plan.com()),
                plan.subgraph()
                    .map(|n| ddg.display_label(n))
                    .collect::<Vec<_>>(),
                plan.targets(),
                plan.removable()
                    .iter()
                    .map(|&(n, c)| format!("{}@{}", ddg.display_label(n), c + 1))
                    .collect::<Vec<_>>(),
                (w * 16.0).round() as i64,
            );
        }

        // Commit the lightest subgraph (S_E), exactly what the engine does.
        let lightest = weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite weights"))
            .map(|(i, _)| i)
            .expect("three plans exist");
        plans.get(lightest).to_plan()
    };
    println!("\nreplicating S_{} …\n", ddg.display_label(plan.com));
    engine.commit(&plan);

    println!("updated subgraphs (Figure 6: S_D=44/8 into clusters 2 and 4, S_J=42/8):");
    let weights = engine.weights().to_vec();
    let plans = engine.plans();
    for (plan, &w) in plans.iter().zip(&weights) {
        println!(
            "  S_{}: nodes {:?} into clusters {}, removable {:?}, weight {w:.4} ({}/8)",
            ddg.display_label(plan.com()),
            plan.subgraph()
                .map(|n| ddg.display_label(n))
                .collect::<Vec<_>>(),
            plan.targets(),
            plan.removable()
                .iter()
                .map(|&(n, c)| format!("{}@{}", ddg.display_label(n), c + 1))
                .collect::<Vec<_>>(),
            (w * 8.0).round() as i64,
        );
    }

    let (final_assignment, stats) = engine.into_parts();
    println!("\nfinal statistics: {stats:?}");
    println!(
        "E now lives in clusters {:?} (paper: replicated into 2 and 4, removed from 3)",
        final_assignment
            .instances(ddg.find_by_label("E").expect("E exists"))
            .iter()
            .map(|c| c + 1)
            .collect::<Vec<_>>()
    );
    Ok(())
}
