//! Diagnostic sweep: rank the suite's worst loops by `II / MII` on one
//! machine and explain every lost cycle.
//!
//! ```bash
//! cargo run --release -p cvliw-bench --bin diagnose -- 4c1b2l64r 15
//! ```
//!
//! For each of the worst `N` loops (default 10) under baseline scheduling,
//! prints the MII, the achieved II, the Figure-1 cause tally for the gap,
//! what replication achieves on the same loop, and whether any recurrence
//! (non-trivial SCC) ended up split across clusters — the situation where
//! communication latency sits on a cycle and the II pays for it.

use cvliw_ddg::NodeId;
use cvliw_machine::MachineConfig;
use cvliw_replicate::{compile_loop, CompileOptions, CompiledLoop};
use cvliw_sched::{ClusterSet, LoopAnalysis};

/// `(non-trivial SCCs, those whose instances span more than one cluster)`,
/// with the components read from the loop's [`LoopAnalysis`].
fn split_sccs(analysis: &LoopAnalysis, out: &CompiledLoop) -> (usize, usize) {
    let scc_of = analysis.scc_of();
    let comps = scc_of.iter().max().map_or(0, |&c| c + 1);
    let mut size = vec![0usize; comps];
    let mut clusters = vec![ClusterSet::empty(); comps];
    for (i, &c) in scc_of.iter().enumerate() {
        size[c] += 1;
        clusters[c] = clusters[c].union(out.assignment.instances(NodeId::new(i as u32)));
    }
    let nontrivial = size.iter().filter(|&&s| s > 1).count();
    let split = size
        .iter()
        .zip(&clusters)
        .filter(|&(&s, set)| s > 1 && set.len() > 1)
        .count();
    (nontrivial, split)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let spec = args.next().unwrap_or_else(|| "4c1b2l64r".to_string());
    let worst: usize = args.next().and_then(|v| v.parse().ok()).unwrap_or(10);
    let machine = MachineConfig::from_extended_spec(&spec).expect("machine spec parses");

    let mut rows: Vec<(f64, String)> = Vec::new();
    for program in cvliw_workloads::suite() {
        for l in &program.loops {
            let Ok(base) = compile_loop(&l.ddg, &machine, &CompileOptions::baseline()) else {
                rows.push((f64::INFINITY, format!("{:<14} failed to compile", l.name)));
                continue;
            };
            if base.stats.ii == base.stats.mii {
                continue;
            }
            let ratio = f64::from(base.stats.ii) / f64::from(base.stats.mii);
            let repl = compile_loop(&l.ddg, &machine, &CompileOptions::replicate()).ok();
            let (nontrivial, split) = split_sccs(&LoopAnalysis::new(&l.ddg, &machine), &base);
            let c = base.stats.causes;
            rows.push((
                ratio,
                format!(
                    "{:<14} mii={:<3} ii={:<3} (bus {} rec {} reg {} res {})  \
                     repl ii={:<3} sccs {}/{} split",
                    l.name,
                    base.stats.mii,
                    base.stats.ii,
                    c.bus,
                    c.recurrence,
                    c.registers,
                    c.resources,
                    repl.map_or_else(|| "-".to_string(), |r| r.stats.ii.to_string()),
                    split,
                    nontrivial,
                ),
            ));
        }
    }
    rows.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("ratios are finite or inf"));
    println!("worst {worst} loops by II/MII on {spec} (baseline scheduler):\n");
    for (ratio, line) in rows.iter().take(worst) {
        println!("x{ratio:<5.2} {line}");
    }
    if rows.is_empty() {
        println!("every loop achieved its MII — nothing to diagnose");
    }
}
