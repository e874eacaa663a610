//! Differential property tests for the §5.1 schedule-length extension: on
//! random loops and partitions, run through the replication engine at
//! II = MII…MII + 2, [`extend_for_length`] — which prices each candidate
//! against its round's latency vector, communication list and liveness —
//! must return exactly the assignment of the whole-graph
//! [`extend_for_length_oracle`], and count the same rounds, candidates and
//! commits. The fixed run below shares one scratch across its cases, so
//! the scratch's reuse across loops is exercised too. The machines cover shared buses at two widths and a
//! ring, whose transfer latency depends on the copy-source cluster.

use cvliw_ddg::{Ddg, DepKind, OpKind};
use cvliw_machine::MachineConfig;
use cvliw_replicate::testing::{extend_for_length_oracle, sched_len_counts};
use cvliw_replicate::{extend_for_length, EngineScratch, ReplicationEngine};
use cvliw_sched::{Assignment, LoopAnalysis};
use proptest::prelude::*;

const MACHINES: [&str; 3] = ["4c1b2l64r", "2c1b2l64r", "4c-ring2l64r"];

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random loop of 2–20 operations (forward same-iteration edges, any
/// loop-carried edge, some memory edges) and a random partition of it on
/// one of [`MACHINES`].
fn case(seed: u64) -> (Ddg, MachineConfig, Vec<u8>) {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut below = |k: u64| xorshift(&mut s) % k;
    let machine = MachineConfig::from_spec(MACHINES[below(3) as usize]).expect("valid spec");
    let n = 2 + below(19) as usize;
    let mut b = Ddg::builder();
    let kinds: Vec<OpKind> = (0..n)
        .map(|_| OpKind::ALL[below(OpKind::ALL.len() as u64) as usize])
        .collect();
    let ids: Vec<_> = kinds.iter().map(|&k| b.add_node(k)).collect();
    for _ in 0..below(3 * n as u64) {
        let (src, dst) = (below(n as u64) as usize, below(n as u64) as usize);
        let dist = if below(4) == 0 {
            1 + below(2) as u32
        } else {
            0
        };
        if dist == 0 && src >= dst {
            continue;
        }
        let kind = if below(5) == 0 || !kinds[src].produces_value() {
            DepKind::Mem
        } else {
            DepKind::Data
        };
        b.edge(ids[src], ids[dst], kind, dist);
    }
    let ddg = b.build().expect("valid by construction");
    let parts = (0..n)
        .map(|_| below(u64::from(machine.clusters())) as u8)
        .collect();
    (ddg, machine, parts)
}

/// Runs `seed`'s case through the engine and both extensions at each II
/// from the MII up; returns the oracle's `[rounds, candidates, commits]`.
fn check(seed: u64, scratch: &mut EngineScratch) -> Result<[u64; 3], TestCaseError> {
    let (ddg, machine, parts) = case(seed);
    let analysis = LoopAnalysis::new(&ddg, &machine);
    let mut total = [0u64; 3];
    for ii in analysis.mii()..=analysis.mii() + 2 {
        let mut engine = ReplicationEngine::new(
            &ddg,
            &machine,
            ii,
            Assignment::from_partition(&parts),
            &analysis,
        );
        engine.run(scratch);
        let (assignment, _) = engine.into_parts();
        let (want, counts) =
            extend_for_length_oracle(&ddg, &machine, ii, assignment.clone(), &analysis);
        let before = sched_len_counts(scratch);
        let got = extend_for_length(&ddg, &machine, ii, assignment, &analysis, scratch);
        let after = sched_len_counts(scratch);
        prop_assert_eq!(got, want, "seed {} at ii {}", seed, ii);
        let counted: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
        prop_assert_eq!(counted, counts.to_vec(), "seed {} at ii {}", seed, ii);
        for (t, c) in total.iter_mut().zip(counts) {
            *t += c;
        }
    }
    Ok(total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn extension_equals_the_whole_graph_oracle(seed in any::<u64>()) {
        check(seed, &mut EngineScratch::default())?;
    }
}

/// A fixed run of cases on one warm scratch actually prices and commits
/// candidates, so the property above is not vacuous.
#[test]
fn the_differential_reaches_commits() {
    let mut scratch = EngineScratch::default();
    let mut total = [0u64; 3];
    for seed in 0..300 {
        let counts = check(seed, &mut scratch).unwrap_or_else(|e| panic!("{e:?}"));
        for (t, c) in total.iter_mut().zip(counts) {
            *t += c;
        }
    }
    let [rounds, candidates, commits] = total;
    assert!(rounds > 0 && candidates > 0, "{total:?}");
    assert!(commits >= 10, "too few commits exercised: {total:?}");
}
