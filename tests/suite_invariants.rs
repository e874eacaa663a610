//! Invariants over the synthetic SPECfp95-like suite: every loop of every
//! program must compile into a verifiable schedule whose statistics are
//! internally consistent, on a 2- and a 4-cluster machine.

use cvliw::prelude::*;
use cvliw::sim::simulate;
use cvliw::workloads::suite_with_salt;

/// Loops per program in these tests; the full 678-loop sweep runs when
/// `cvliw suite` regenerates the results book, `docs/RESULTS.md`.
const LOOPS_PER_PROGRAM: usize = 3;

fn check_config(spec: &str) {
    let machine = MachineConfig::from_spec(spec).unwrap();
    for program in suite_with_salt(0, LOOPS_PER_PROGRAM) {
        for l in &program.loops {
            let base = compile_loop(&l.ddg, &machine, &CompileOptions::baseline())
                .unwrap_or_else(|e| panic!("{} baseline on {spec}: {e}", l.name));
            let repl = compile_loop(&l.ddg, &machine, &CompileOptions::replicate())
                .unwrap_or_else(|e| panic!("{} replicate on {spec}: {e}", l.name));

            for (mode, out) in [("baseline", &base), ("replicate", &repl)] {
                out.schedule
                    .verify(&l.ddg, &machine)
                    .unwrap_or_else(|e| panic!("{} {mode} on {spec}: {e}", l.name));
                let s = &out.stats;
                assert!(s.ii >= s.mii, "{}: II below MII", l.name);
                assert_eq!(s.causes.total(), s.ii - s.mii, "{}: cause tally", l.name);
                assert!(
                    s.final_coms <= machine.coms_capacity_per_ii(s.ii),
                    "{}: bus oversubscribed",
                    l.name
                );
                assert_eq!(
                    s.instances_per_iter,
                    s.ops_per_iter + s.replication.added_instances()
                        - s.replication.removed_instances,
                    "{}: instance accounting",
                    l.name
                );
            }

            // Replication must not lose: same or lower II; and at the same
            // II (identical deterministic partition path) it cannot end
            // with more communications.
            assert!(
                repl.stats.ii <= base.stats.ii,
                "{}: replication raised II",
                l.name
            );
            if repl.stats.ii == base.stats.ii {
                assert!(
                    repl.stats.final_coms <= base.stats.final_coms,
                    "{}: replication added communications at the same II",
                    l.name
                );
            }
        }
    }
}

#[test]
fn four_cluster_one_bus_invariants() {
    check_config("4c1b2l64r");
}

#[test]
fn two_cluster_invariants() {
    check_config("2c1b2l64r");
}

#[test]
fn four_cluster_wide_bus_invariants() {
    check_config("4c4b4l64r");
}

#[test]
fn replicated_schedules_stay_functionally_correct() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    for program in suite_with_salt(0, 2) {
        for l in &program.loops {
            let out = compile_loop(&l.ddg, &machine, &CompileOptions::replicate()).unwrap();
            let iters = u64::from(out.schedule.stage_count()) + 3;
            let report = simulate(&l.ddg, &machine, &out.schedule, iters)
                .unwrap_or_else(|e| panic!("{}: {e}", l.name));
            assert_eq!(
                report.instructions_executed,
                u64::from(out.schedule.op_count()) * iters
            );
            assert!(report.texec_formula >= report.makespan);
            assert!(report.texec_formula - report.makespan < u64::from(out.stats.ii));
        }
    }
}

#[test]
fn suite_is_deterministic_across_processes() {
    // Two builds of the same subset agree on structure and profile.
    let a = suite_with_salt(0, 2);
    let b = suite_with_salt(0, 2);
    for (pa, pb) in a.iter().zip(&b) {
        assert_eq!(pa.name, pb.name);
        for (la, lb) in pa.loops.iter().zip(&pb.loops) {
            assert_eq!(la.ddg.node_count(), lb.ddg.node_count());
            assert_eq!(la.ddg.edge_count(), lb.ddg.edge_count());
            assert_eq!(la.profile, lb.profile);
        }
    }
}
