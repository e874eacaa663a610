//! Differential functional validation: for random loops, every compilation
//! mode (baseline, value cloning, replication, §5.1 extension) must produce
//! a schedule that (a) verifies statically, (b) executes in lockstep with
//! every operand arriving on time, and (c) recomputes exactly the reference
//! value in **every** cluster holding a replica — i.e. replication never
//! changes what the loop computes.

use cvliw::machine::{FuCounts, LatencyTable, MachineConfig};
use cvliw::prelude::*;
use cvliw::replicate::{compile_loop, CompileOptions, Mode};
use cvliw::sim::simulate;
use proptest::prelude::*;

/// Random loop bodies shaped like compiler output: an induction chain, a
/// few address computations, load/compute/store chains with occasional
/// cross-links and reductions.
fn arb_loop() -> impl Strategy<Value = Ddg> {
    (2usize..5, 1u32..4, any::<u64>()).prop_map(|(chains, coupling, seed)| {
        // Deterministic pseudo-random structure from the seed, no rand
        // dependency needed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = Ddg::builder();
        let iv = b.add_labeled(OpKind::IntAdd, "iv");
        b.data_dist(iv, iv, 1);
        let mut producers = vec![iv];
        for chain in 0..chains {
            let addr = b.add_labeled(OpKind::IntAdd, format!("a{chain}"));
            b.data(iv, addr);
            let ld = b.add_labeled(OpKind::Load, format!("x{chain}"));
            b.data(addr, ld);
            let mut cur = ld;
            let ops = 1 + (next() as usize % 3);
            for k in 0..ops {
                let kind = match next() % 4 {
                    0 => OpKind::FpAdd,
                    1 => OpKind::FpMul,
                    2 => OpKind::IntAdd,
                    _ => OpKind::FpAbs,
                };
                let n = b.add_labeled(kind, format!("c{chain}_{k}"));
                b.data(cur, n);
                // Occasionally read another chain's producer too.
                if coupling > 1 && next() % u64::from(coupling) == 0 {
                    let extra = producers[next() as usize % producers.len()];
                    b.data(extra, n);
                }
                producers.push(n);
                cur = n;
            }
            // Half the chains accumulate (loop-carried self dependence).
            if next() % 2 == 0 {
                b.data_dist(cur, cur, 1);
            }
            let st = b.add_labeled(OpKind::Store, format!("s{chain}"));
            b.data(cur, st).data(addr, st);
        }
        b.build().expect("generator output is valid")
    })
}

fn arb_machine() -> impl Strategy<Value = MachineConfig> {
    prop_oneof![
        prop::sample::select(vec![
            "2c1b2l64r",
            "2c2b4l64r",
            "4c1b2l64r",
            "4c2b4l64r",
            "4c2b2l64r",
            "4c4b4l64r",
        ])
        .prop_map(|s| MachineConfig::from_spec(s).expect("valid spec")),
        Just(MachineConfig::unified(256)),
        Just(
            MachineConfig::heterogeneous(
                vec![
                    FuCounts {
                        int: 1,
                        fp: 3,
                        mem: 2
                    },
                    FuCounts {
                        int: 3,
                        fp: 1,
                        mem: 2
                    },
                ],
                2,
                2,
                64,
                LatencyTable::PAPER,
            )
            .expect("valid heterogeneous machine")
        ),
    ]
}

/// Modes whose schedules are executable (zero-bus is intentionally
/// optimistic and excluded by design).
const EXECUTABLE_MODES: [Mode; 4] = [
    Mode::Baseline,
    Mode::ValueClone,
    Mode::Replicate,
    Mode::ReplicateSchedLen,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_mode_verifies_and_executes(ddg in arb_loop(), machine in arb_machine()) {
        for mode in EXECUTABLE_MODES {
            let opts = CompileOptions { mode, max_ii: None };
            let out = compile_loop(&ddg, &machine, &opts)
                .unwrap_or_else(|e| panic!("{mode:?} failed to compile: {e}"));
            out.schedule
                .verify(&ddg, &machine)
                .unwrap_or_else(|e| panic!("{mode:?} schedule invalid: {e}"));
            let report = simulate(&ddg, &machine, &out.schedule, 6)
                .unwrap_or_else(|e| panic!("{mode:?} execution failed: {e}"));
            prop_assert!(report.values_checked > 0 || ddg.edge_count() == 0);
            prop_assert!(report.makespan <= report.texec_formula);
        }
    }

    #[test]
    fn replication_preserves_instruction_accounting(
        ddg in arb_loop(),
        machine in arb_machine(),
    ) {
        let out = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        let s = &out.stats;
        // Stores are never replicated (§3.1).
        let store_instances: u32 = ddg
            .stores()
            .map(|st| out.assignment.instances(st).len())
            .sum();
        prop_assert_eq!(store_instances, ddg.stores().count() as u32);
        // The schedule holds exactly the assignment's instances.
        prop_assert_eq!(s.instances_per_iter, out.assignment.instance_count());
        // Replication may only *remove* communications.
        prop_assert!(s.final_coms <= s.partition_coms);
    }

    #[test]
    fn replication_never_hurts_ii_or_comms(ddg in arb_loop(), machine in arb_machine()) {
        let base = compile_loop(&ddg, &machine, &CompileOptions::baseline()).unwrap();
        let repl = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        prop_assert!(repl.stats.ii <= base.stats.ii,
            "replication raised the II: {} vs {}", repl.stats.ii, base.stats.ii);
        let clone = compile_loop(&ddg, &machine, &CompileOptions {
            mode: Mode::ValueClone,
            max_ii: None,
        }).unwrap();
        prop_assert!(clone.stats.ii <= base.stats.ii,
            "value cloning raised the II: {} vs {}", clone.stats.ii, base.stats.ii);
        // The restricted technique can never beat full replication on
        // communications removed at the same II.
        if clone.stats.ii == repl.stats.ii {
            prop_assert!(repl.stats.final_coms <= clone.stats.final_coms + 1,
                "subgraph replication should remove at least as much as cloning");
        }
    }

    #[test]
    fn registers_allocate_within_the_file(ddg in arb_loop(), machine in arb_machine()) {
        // Every accepted schedule must be register-allocatable on a
        // rotating file: at least MaxLive registers, and — for these loop
        // sizes against the paper's 64-register files — within the file
        // (first-fit can fragment slightly past MaxLive, but nowhere near
        // the 64-register headroom these bodies leave).
        let out = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        let alloc = cvliw::sched::allocate_registers(&out.schedule, &ddg, &machine)
            .unwrap_or_else(|e| panic!("allocation failed: {e}"));
        let pressure = cvliw::sched::max_live(&out.schedule, &ddg, &machine);
        for (c, (&used, &need)) in
            alloc.registers_used().iter().zip(pressure.iter()).enumerate()
        {
            prop_assert!(used >= need, "cluster {c}: used {used} < MaxLive {need}");
            prop_assert!(
                used <= machine.regs_per_cluster(),
                "cluster {c}: used {used} registers of {}",
                machine.regs_per_cluster()
            );
        }
    }

    #[test]
    fn expansion_matches_the_analytic_model(ddg in arb_loop(), n in 1u64..24) {
        let machine = MachineConfig::from_spec("4c2b4l64r").expect("valid spec");
        let out = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        let trace = cvliw::sched::expand(&out.schedule, n);
        prop_assert_eq!(trace.cycles(), out.schedule.texec(n));
        prop_assert_eq!(
            trace.issued_ops(),
            n * u64::from(out.schedule.op_count() + out.schedule.copy_count())
        );
    }

    #[test]
    fn verifier_rejects_transfers_longer_than_the_kernel(
        ddg in arb_loop(),
    ) {
        // Metamorphic failure injection: compile for a 2-cycle bus, then
        // claim the bus takes 6 cycles. When the kernel is shorter than one
        // transfer (II < 6), the copy cannot fit at all, so the static
        // verifier must reject any schedule that uses a bus. (With II ≥ 6 a
        // slack-rich schedule may legitimately tolerate the slower bus —
        // that case is not an error.)
        let fast = MachineConfig::from_spec("4c1b2l64r").expect("valid spec");
        let slow = MachineConfig::from_spec("4c1b6l64r").expect("valid spec");
        let out = compile_loop(&ddg, &fast, &CompileOptions::baseline()).unwrap();
        prop_assume!(out.stats.final_coms > 0 && out.stats.ii < 6);
        prop_assert!(
            out.schedule.verify(&ddg, &slow).is_err(),
            "a 6-cycle transfer cannot fit an II-{} kernel",
            out.stats.ii
        );
    }
}

#[test]
fn simulation_catches_understated_operation_latencies() {
    // Compile against unit latencies (everything takes 1 cycle), then
    // execute under the paper's Table-1 latencies. A dependent chain
    // scheduled back-to-back must now violate the load's 2-cycle latency.
    use cvliw::machine::LatencyTable;
    let mut b = Ddg::builder();
    let ld = b.add_node(OpKind::Load);
    let m = b.add_node(OpKind::FpMul);
    let st = b.add_node(OpKind::Store);
    b.data(ld, m).data(m, st);
    let ddg = b.build().unwrap();

    let optimistic = MachineConfig::new(
        1,
        0,
        1,
        64,
        FuCounts {
            int: 4,
            fp: 4,
            mem: 4,
        },
        LatencyTable::UNIT,
    )
    .unwrap();
    let honest = MachineConfig::unified(64);

    let out = compile_loop(&ddg, &optimistic, &CompileOptions::baseline()).unwrap();
    simulate(&ddg, &optimistic, &out.schedule, 4).expect("consistent machine passes");
    let err = simulate(&ddg, &honest, &out.schedule, 4)
        .expect_err("a unit-latency schedule cannot satisfy Table-1 latencies");
    assert!(
        matches!(err, cvliw::sim::SimError::LatencyViolated { .. }),
        "{err}"
    );
}

#[test]
fn deterministic_compilation() {
    // The whole pipeline is deterministic: compiling twice gives the same
    // II, length, assignment and schedule statistics.
    let machine = MachineConfig::from_spec("4c2b4l64r").unwrap();
    for (_, ddg) in cvliw::workloads::kernels::all() {
        let a = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        let b = compile_loop(&ddg, &machine, &CompileOptions::replicate()).unwrap();
        assert_eq!(a.stats, b.stats);
        let ia: Vec<_> = a.schedule.instances().collect();
        let ib: Vec<_> = b.schedule.instances().collect();
        assert_eq!(ia, ib);
    }
}
