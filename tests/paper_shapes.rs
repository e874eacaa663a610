//! Qualitative paper shapes on reduced workloads: who wins, in which
//! direction, and where the effects vanish. The full-scale numbers live in
//! the results book, `docs/RESULTS.md`; these tests pin the directions so
//! a regression cannot silently flip a conclusion.

use cvliw::prelude::*;
use cvliw::sim::IpcAccumulator;

const LOOPS: usize = 4;

fn program_ipc(name: &str, machine: &MachineConfig, opts: &CompileOptions) -> f64 {
    let program = cvliw::workloads::program(name).expect("known program");
    let mut acc = IpcAccumulator::new();
    for l in program.loops.iter().take(LOOPS) {
        let out = compile_loop(&l.ddg, machine, opts).expect("suite loops compile");
        acc.add_loop(
            l.profile.visits,
            l.profile.iterations,
            out.stats.ops_per_iter,
            out.stats.ii,
            out.stats.stage_count,
        );
    }
    acc.ipc()
}

/// Figure 7's headline: the communication-bound programs gain a lot from
/// replication on the 4-cluster, 1-bus machine; mgrid gains almost nothing.
#[test]
fn comm_bound_programs_gain_mgrid_does_not() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    let speedup = |name: &str| {
        program_ipc(name, &machine, &CompileOptions::replicate())
            / program_ipc(name, &machine, &CompileOptions::baseline())
    };
    let su2cor = speedup("su2cor");
    let mgrid = speedup("mgrid");
    assert!(su2cor > 1.10, "su2cor should gain notably, got {su2cor:.3}");
    assert!(
        mgrid < su2cor,
        "mgrid ({mgrid:.3}) must gain less than su2cor ({su2cor:.3})"
    );
    assert!(mgrid < 1.10, "mgrid barely gains, got {mgrid:.3}");
}

/// Figure 8: mgrid's clustered IPC stays near the unified machine's.
#[test]
fn mgrid_clustered_is_close_to_unified() {
    let unified = program_ipc(
        "mgrid",
        &MachineConfig::unified(256),
        &CompileOptions::baseline(),
    );
    for spec in ["2c1b2l64r", "4c1b2l64r", "4c2b2l64r"] {
        let machine = MachineConfig::from_spec(spec).unwrap();
        let clustered = program_ipc("mgrid", &machine, &CompileOptions::baseline());
        assert!(
            clustered > 0.85 * unified,
            "{spec}: mgrid IPC {clustered:.2} far below unified {unified:.2}"
        );
    }
}

/// Figure 9's discussion: applu's short trip counts mute the IPC effect of
/// replication relative to a long-trip-count program with similar coupling.
#[test]
fn applu_gains_less_than_long_trip_programs() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    let speedup = |name: &str| {
        program_ipc(name, &machine, &CompileOptions::replicate())
            / program_ipc(name, &machine, &CompileOptions::baseline())
    };
    let applu = speedup("applu");
    let swim = speedup("swim");
    assert!(
        applu < swim,
        "applu ({applu:.3}) must gain less than swim ({swim:.3}): trip count ~4"
    );
}

/// Figure 1's direction: when the baseline scheduler raises the II beyond
/// the MII on a communication-heavy program, the bus is the main culprit.
#[test]
fn bus_dominates_ii_increases() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    let program = cvliw::workloads::program("su2cor").unwrap();
    let mut bus = 0u64;
    let mut other = 0u64;
    for l in program.loops.iter().take(8) {
        let out = compile_loop(&l.ddg, &machine, &CompileOptions::baseline()).unwrap();
        bus += u64::from(out.stats.causes.bus);
        other += u64::from(
            out.stats.causes.recurrence + out.stats.causes.registers + out.stats.causes.resources,
        );
    }
    assert!(bus > 0, "su2cor loops must be communication-bound");
    assert!(
        bus >= other,
        "bus ({bus}) should dominate other causes ({other})"
    );
}

/// §6's related-work ordering: the restricted value-cloning technique of
/// Kuras et al. [17] sits between the baseline and full subgraph
/// replication on a communication-bound program.
#[test]
fn value_cloning_sits_between_baseline_and_replication() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    let ipc = |opts: &CompileOptions| program_ipc("su2cor", &machine, opts);
    let base = ipc(&CompileOptions::baseline());
    let clone = ipc(&CompileOptions {
        mode: Mode::ValueClone,
        max_ii: None,
    });
    let repl = ipc(&CompileOptions::replicate());
    assert!(
        base <= clone * 1.001,
        "cloning must not lose to baseline: {base:.3} vs {clone:.3}"
    );
    assert!(
        clone <= repl * 1.001,
        "full replication must not lose to cloning: {clone:.3} vs {repl:.3}"
    );
}

/// §4's cost claim: replication adds only a small fraction of extra
/// instructions.
#[test]
fn replication_overhead_is_small() {
    let machine = MachineConfig::from_spec("4c1b2l64r").unwrap();
    let mut original = 0u64;
    let mut added = 0u64;
    for program in cvliw::workloads::suite_with_salt(0, 3) {
        for l in &program.loops {
            let out = compile_loop(&l.ddg, &machine, &CompileOptions::replicate()).unwrap();
            let w = l.profile.total_iterations();
            original += w * u64::from(out.stats.ops_per_iter);
            let net: u32 = out.stats.replication.net_added_by_class().iter().sum();
            added += w * u64::from(net);
        }
    }
    let overhead = added as f64 / original as f64;
    assert!(
        overhead < 0.15,
        "added-instruction overhead too large: {overhead:.3}"
    );
}
