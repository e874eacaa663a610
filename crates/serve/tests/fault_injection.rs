//! The fault-injection harness: for arbitrary seeded [`FaultPlan`]s the
//! daemon must survive — worker panics contained to `compile_panic`
//! responses, slow compiles cut off at the deadline, torn client streams
//! answered for every complete line — while every *unaffected* request
//! stays byte-identical to the one-shot oracle, and no fault ever leaves
//! a poisoned payload in the result cache (a disarmed replay of the same
//! stream compiles cleanly and matches the oracle everywhere).
//!
//! The panic and deadline properties run in two batch shapes: one-line
//! batches keep one worker busy, which compiles on the calling thread and
//! spawns nothing; one batch of the whole stream keeps both workers busy,
//! so one of them compiles on a spawned thread.
//!
//! Runs only under the `fault-inject` feature, which compiles the
//! injection hooks into the server:
//! `cargo test -p cvliw_serve --features fault-inject`.
#![cfg(feature = "fault-inject")]

use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_stats_ctx, fnv1a_64, loop_fingerprint, CompileContext, CompileOptions, Mode,
};
use cvliw_serve::testutil::request_line;
use cvliw_serve::{
    render_compile_error_body, render_ok_body, render_response, CacheKey, FaultPlan, Server,
    ServerConfig,
};
use proptest::prelude::*;

const SPEC: &str = "4c1b2l64r";

/// A family of structurally distinct loops (the recurrence distance
/// differs), all compiling in microseconds — so only injected faults can
/// make a request slow or fail.
fn distinct_loop(i: u64) -> String {
    format!(
        "loop l {{\n  i: iadd i@{}\n  ld: load i\n  m: fmul ld\n  st: store m\n}}",
        i + 1
    )
}

/// Exactly what a one-shot compile of this request renders, from a fresh
/// context — the same oracle `tests/serve_equals_oneshot.rs` pins the
/// fault-free server against.
fn oneshot_response(id: u64, src: &str) -> String {
    let ddg = cvliw_ir::parse_loop(src).expect("fixture loop parses").ddg;
    let machine = MachineConfig::from_extended_spec(SPEC).expect("paper spec");
    let ctx = CompileContext::new(&ddg, &machine).with_refine_seeds(1);
    let opts = CompileOptions {
        mode: Mode::Replicate,
        max_ii: None,
    };
    let mut body = String::new();
    match compile_stats_ctx(&ddg, &machine, &opts, &ctx) {
        Ok(stats) => render_ok_body(&stats, &mut body),
        Err(e) => render_compile_error_body(&e, &mut body),
    }
    let mut out = String::new();
    render_response(Some(id), &body, &mut out);
    out
}

/// Feeds request `i` as its own single-line batch so global stamps equal
/// request indices and duplicates can't coalesce.
fn serve_one(s: &mut Server, id: u64, src: &str) -> String {
    let mut out = String::new();
    s.process_batch(&[request_line(id, src, SPEC, "replicate", 1)], &mut out);
    out
}

/// Serves requests `0..n` (id = stamp = index) and returns one response
/// line per request: as one-line batches, or as a single batch of all `n`
/// lines. Either way the global stamps equal the request indices, and the
/// loops are distinct, so nothing coalesces.
fn serve_stream(s: &mut Server, n: u64, one_batch: bool) -> Vec<String> {
    if !one_batch {
        return (0..n).map(|i| serve_one(s, i, &distinct_loop(i))).collect();
    }
    let lines: Vec<String> = (0..n)
        .map(|i| request_line(i, &distinct_loop(i), SPEC, "replicate", 1))
        .collect();
    let mut out = String::new();
    s.process_batch(&lines, &mut out);
    out.lines().map(|l| format!("{l}\n")).collect()
}

/// The worker request `i` routes to on a fresh `jobs`-worker server: the
/// daemon shards misses by `fnv1a(key) % jobs`, and the first spec a
/// server interns gets id 0.
fn worker_of(i: u64, jobs: u64) -> u64 {
    let ddg = cvliw_ir::parse_loop(&distinct_loop(i))
        .expect("fixture loop parses")
        .ddg;
    let key = CacheKey {
        fp: loop_fingerprint(&ddg),
        spec: 0,
        mode: Mode::Replicate.index(),
        seeds: 1,
    };
    fnv1a_64(&key.bytes()) % jobs
}

/// Precondition of the one-batch runs: a batch of requests `0..n` keeps
/// both of two workers busy.
fn assert_batch_busies_two_workers(n: u64) {
    let first = worker_of(0, 2);
    assert!(
        (1..n).any(|i| worker_of(i, 2) != first),
        "a batch of {n} fixture loops routes to one worker; no worker runs on a spawned thread"
    );
}

/// Replays the whole stream with faults disarmed and asserts every
/// response matches the oracle — the proof that no fault corrupted the
/// shared cache (a poisoned payload would be served right back here).
fn assert_clean_replay(s: &mut Server, n: u64) -> Result<(), TestCaseError> {
    s.set_fault_plan(FaultPlan::default());
    for i in 0..n {
        let src = distinct_loop(i);
        let got = serve_one(s, 1000 + i, &src);
        let want = oneshot_response(1000 + i, &src);
        prop_assert_eq!(got, want, "disarmed replay diverged at request {}", i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Worker panics at seeded stamps: the daemon answers them with
    /// structured `compile_panic` errors, answers everything else
    /// byte-identically to the oracle, and recovers completely — on the
    /// calling thread and on a spawned one.
    #[test]
    fn injected_panics_never_kill_the_daemon(seed in 0u64..1_000_000) {
        const N: u64 = 6;
        assert_batch_busies_two_workers(N);
        for one_batch in [false, true] {
            let plan = FaultPlan::seeded(seed, N, 10);
            let faulted = plan.faulted_stamps(false);
            let mut s = Server::new(ServerConfig { jobs: 2, ..ServerConfig::default() });
            s.set_fault_plan(plan);

            let got = serve_stream(&mut s, N, one_batch);
            prop_assert_eq!(got.len() as u64, N);
            for (i, got) in (0..N).zip(&got) {
                if faulted.contains(&i) {
                    let prefix = format!("{{\"id\":{i},\"error\":{{\"kind\":\"compile_panic\"");
                    prop_assert!(got.starts_with(&prefix), "stamp {} (one batch: {}): {}", i, one_batch, got);
                } else {
                    let want = oneshot_response(i, &distinct_loop(i));
                    prop_assert_eq!(got, &want, "unaffected stamp {} (one batch: {})", i, one_batch);
                }
            }
            prop_assert_eq!(s.stats().panics, faulted.len() as u64);
            assert_clean_replay(&mut s, N)?;
        }
    }

    /// Slow compiles under an armed deadline: the seeded stalls (200 ms)
    /// deterministically blow the 50 ms budget and answer
    /// `deadline_exceeded`; panics still answer `compile_panic`; every
    /// unaffected request still matches the oracle (its compile runs in
    /// microseconds, three orders of magnitude inside the budget, and its
    /// clock starts when its own job does). Both batch shapes.
    #[test]
    fn slow_compiles_exceed_the_deadline_and_nothing_else_does(seed in 0u64..1_000_000) {
        const N: u64 = 5;
        assert_batch_busies_two_workers(N);
        for one_batch in [false, true] {
            let plan = FaultPlan::seeded(seed, N, 200);
            let panicked = plan.faulted_stamps(false);
            let faulted = plan.faulted_stamps(true);
            let mut s = Server::new(ServerConfig {
                jobs: 2,
                deadline_ms: Some(50),
                ..ServerConfig::default()
            });
            s.set_fault_plan(plan);

            let got = serve_stream(&mut s, N, one_batch);
            prop_assert_eq!(got.len() as u64, N);
            let mut deadline_hits = 0u64;
            for (i, got) in (0..N).zip(&got) {
                if panicked.contains(&i) {
                    let prefix = format!("{{\"id\":{i},\"error\":{{\"kind\":\"compile_panic\"");
                    prop_assert!(got.starts_with(&prefix), "stamp {} (one batch: {}): {}", i, one_batch, got);
                } else if faulted.contains(&i) {
                    let prefix = format!("{{\"id\":{i},\"error\":{{\"kind\":\"deadline_exceeded\"");
                    prop_assert!(got.starts_with(&prefix), "stamp {} (one batch: {}): {}", i, one_batch, got);
                    prop_assert!(got.contains("\"deadline_ms\":50"), "{}", got);
                    deadline_hits += 1;
                } else {
                    let want = oneshot_response(i, &distinct_loop(i));
                    prop_assert_eq!(got, &want, "unaffected stamp {} (one batch: {})", i, one_batch);
                }
            }
            prop_assert_eq!(s.stats().deadlines, deadline_hits);
            assert_clean_replay(&mut s, N)?;
        }
    }

    /// Torn client streams — a write truncated mid-line, a disconnect
    /// between lines — through the real [`Server::run_jsonl`] pump:
    /// every complete line is answered (oracle bytes, or the structured
    /// fault its stamp was seeded with), a non-empty torn tail gets a
    /// structured error, and the pump returns cleanly.
    #[test]
    fn torn_client_streams_never_kill_the_pump(seed in 0u64..1_000_000) {
        const N: usize = 5;
        let plan = FaultPlan::seeded(seed, N as u64, 10);
        let faulted = plan.faulted_stamps(false);
        let lines: Vec<String> = (0..N)
            .map(|i| request_line(i as u64, &distinct_loop(i as u64), SPEC, "replicate", 1))
            .collect();

        // Mutilate the byte stream the way a dying client would: stop
        // after `disconnect_after` complete lines, or cut one line short
        // and end the stream right there — whichever comes first.
        let disconnect = plan.disconnect_after.unwrap_or(N).min(N);
        let mut input = String::new();
        let mut complete = 0usize;
        let mut torn_tail = false;
        for (i, line) in lines.iter().enumerate() {
            if i >= disconnect {
                break;
            }
            if let Some((at, bytes)) = plan.truncate_write {
                if i == at {
                    let cut = bytes.min(line.len());
                    input.push_str(&line[..cut]);
                    torn_tail = cut > 0;
                    break;
                }
            }
            input.push_str(line);
            input.push('\n');
            complete += 1;
        }

        let mut s = Server::new(ServerConfig { jobs: 2, ..ServerConfig::default() });
        s.set_fault_plan(plan);
        let mut out = Vec::new();
        s.run_jsonl(std::io::Cursor::new(input), &mut out).expect("pump died");
        let out = String::from_utf8(out).expect("responses are UTF-8");
        let got: Vec<&str> = out.lines().collect();

        prop_assert_eq!(got.len(), complete + usize::from(torn_tail), "{}", out);
        for (i, line) in got.iter().take(complete).enumerate() {
            let stamp = i as u64;
            if faulted.contains(&stamp) {
                let prefix = format!("{{\"id\":{i},\"error\":{{\"kind\":\"compile_panic\"");
                prop_assert!(line.starts_with(&prefix), "stamp {}: {}", i, line);
            } else {
                let want = oneshot_response(stamp, &distinct_loop(stamp));
                prop_assert_eq!(*line, want.trim_end(), "complete line {}", i);
            }
        }
        if torn_tail {
            let tail = got[complete];
            prop_assert!(tail.contains("\"error\""), "torn tail got: {}", tail);
            prop_assert!(tail.ends_with('}'), "torn response line itself torn: {}", tail);
        }
        assert_clean_replay(&mut s, N as u64)?;
    }
}

/// A unique scratch cache directory for the disk-fault property,
/// removed on drop (a failed case reports its seed, not its litter).
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(seed: u64) -> Scratch {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "cvliw-diskfault-{}-{}-{}",
            std::process::id(),
            seed,
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash recovery under every seeded disk fault — the persister dies
    /// mid-journal-append or mid-snapshot (exactly as `kill -9` would:
    /// a written prefix, no cleanup), or the harness truncates /
    /// bit-flips the journal between runs. Whatever the fault, the
    /// restarted daemon must (a) recover without panicking, (b) answer
    /// the replayed stream byte-identical to the one-shot oracle — a
    /// corrupted entry surviving into the cache would diverge right
    /// here — and (c) leave a directory that then verifies clean.
    #[test]
    fn any_disk_fault_recovers_byte_identical_to_the_oracle(seed in 0u64..1_000_000) {
        use cvliw_serve::{PersistConfig, SharedState};

        const N: u64 = 6;
        let scratch = Scratch::new(seed);
        let plan = FaultPlan::seeded_disk(seed, 2048);
        let cfg = ServerConfig {
            jobs: 1,
            cache_entries: 64,
            ..ServerConfig::default()
        };
        let pcfg = PersistConfig {
            dir: scratch.0.clone(),
            snapshot_every: 2, // snapshots fire mid-stream, so their kill can land
        };

        // Life 1: serve with the write-time deaths armed. Responses are
        // oracle-correct regardless — a dead persister stops writing,
        // never serving.
        {
            let (shared, _) = SharedState::with_persistence(&cfg, &pcfg).expect("cold open");
            shared.set_disk_faults(plan.disk_faults());
            let mut s = Server::with_shared(cfg, shared);
            for i in 0..N {
                let src = distinct_loop(i);
                let got = serve_one(&mut s, i, &src);
                prop_assert_eq!(got, oneshot_response(i, &src), "life-1 stamp {}", i);
            }
            // No final snapshot: the "process" dies right here.
        }

        // Between runs the harness-side faults mutilate the journal.
        let journal = scratch.0.join(cvliw_serve::persist::JOURNAL_FILE);
        if let Some(at) = plan.truncate_file {
            if let Ok(data) = std::fs::read(&journal) {
                let cut = (at as usize).min(data.len());
                std::fs::write(&journal, &data[..cut]).expect("truncate journal");
            }
        }
        if let Some((byte, bit)) = plan.flip_bit {
            if let Ok(mut data) = std::fs::read(&journal) {
                if !data.is_empty() {
                    let at = (byte as usize) % data.len();
                    data[at] ^= 1 << bit;
                    std::fs::write(&journal, &data).expect("flip journal bit");
                }
            }
        }

        // Life 2: recover and replay. Hits serve recovered bytes, misses
        // recompile — either way every response must match the oracle.
        let (shared, _) = SharedState::with_persistence(&cfg, &pcfg).expect("recovery");
        let mut s = Server::with_shared(cfg, shared);
        for i in 0..N {
            let src = distinct_loop(i);
            let got = serve_one(&mut s, 100 + i, &src);
            prop_assert_eq!(got, oneshot_response(100 + i, &src), "life-2 stamp {}", i);
        }

        // Recovery repaired whatever it read.
        let verify = cvliw_serve::verify_dir(&scratch.0).expect("verify");
        prop_assert!(verify.clean(), "directory not clean after recovery: {:?}", verify);
    }
}
