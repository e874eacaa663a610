//! End-to-end tests of the `cvliw` command-line binary: every subcommand,
//! exit codes, and error reporting.

use std::path::Path;
use std::process::{Command, Output};

fn cvliw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cvliw"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const FIR: &str = "examples/loops/fir.loop";

#[test]
fn sample_loops_exist() {
    for f in ["fir.loop", "stencil.loop", "recurrence.loop"] {
        assert!(
            Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("examples/loops")
                .join(f)
                .exists(),
            "missing sample {f}"
        );
    }
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = cvliw(&["help"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("USAGE"));
    assert!(text.contains("schedule"));
}

#[test]
fn no_arguments_prints_usage_with_exit_2() {
    let out = cvliw(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn schedule_reports_and_verifies() {
    let out = cvliw(&["schedule", FIR, "--machine", "4c1b2l64r"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("MII"));
    assert!(text.contains("schedule verified OK"), "{text}");
    assert!(
        text.contains("lockstep simulation (8 iterations) OK"),
        "{text}"
    );
}

#[test]
fn schedule_accepts_every_mode() {
    for mode in ["baseline", "replicate", "sched-len", "zero-bus"] {
        let out = cvliw(&["schedule", FIR, "--machine", "4c1b2l64r", "--mode", mode]);
        assert!(out.status.success(), "mode {mode}: {}", stderr(&out));
    }
}

#[test]
fn schedule_on_unified_machine_has_no_copies() {
    let out = cvliw(&["schedule", FIR, "--machine", "unified"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("0 scheduled on buses"));
}

#[test]
fn expand_emits_pipelined_code() {
    let out = cvliw(&["expand", FIR, "--machine", "4c1b2l64r", "--iterations", "3"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("static code"), "{text}");
    assert!(text.contains("fill"), "{text}");
    assert!(text.contains("#0"), "iteration tags missing: {text}");
    assert!(text.contains("prologue"), "{text}");
}

#[test]
fn compare_lists_all_four_modes() {
    let out = cvliw(&["compare", FIR, "--machine", "4c2b4l64r"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    for mode in [
        "baseline",
        "value-clone",
        "replicate",
        "sched-len",
        "zero-bus",
    ] {
        assert!(text.contains(mode), "missing {mode} in:\n{text}");
    }
}

#[test]
fn mii_prints_decomposition() {
    let out = cvliw(&[
        "mii",
        "examples/loops/recurrence.loop",
        "--machine",
        "4c1b2l64r",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("ResMII"));
    // The fdiv recurrence dominates: RecMII = 18 + 3 (fdiv + fadd).
    assert!(text.contains("21"), "{text}");
}

#[test]
fn machines_lists_paper_and_topology_grids() {
    let out = cvliw(&["machines"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    // Every paper machine and every topology machine, with its parsed
    // interconnect and capacity-derived numbers.
    for spec in [
        "2c1b2l64r",
        "4c4b4l64r",
        "4c-ring1l64r",
        "4c-ring2l64r",
        "4c-xbar1l64r",
    ] {
        assert!(text.contains(spec), "missing {spec} in:\n{text}");
    }
    assert!(text.contains("shared bus"), "{text}");
    assert!(text.contains("ring"), "{text}");
    assert!(text.contains("crossbar"), "{text}");
    assert!(text.contains("links"), "{text}");
}

#[test]
fn schedule_accepts_topology_machines() {
    for spec in ["4c-ring1l64r", "4c-xbar1l64r"] {
        let out = cvliw(&["schedule", FIR, "--machine", spec]);
        assert!(out.status.success(), "{spec}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains("schedule verified OK"), "{spec}: {text}");
        assert!(
            text.contains("lockstep simulation (8 iterations) OK"),
            "{spec}: {text}"
        );
    }
}

#[test]
fn suite_restricted_to_a_topology_machine_runs() {
    let out = cvliw(&[
        "suite",
        "--machine",
        "4c-xbar1l64r",
        "--mode",
        "baseline",
        "--max-loops",
        "1",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("tomcatv"));
}

#[test]
fn print_emits_reparseable_text() {
    let out = cvliw(&["print", FIR]);
    assert!(out.status.success());
    let text = stdout(&out);
    let l = cvliw::ir::parse_loop(&text).expect("canonical form parses");
    assert_eq!(l.name, "fir");
    assert_eq!(l.ddg.node_count(), 8);
}

#[test]
fn dot_emits_graphviz() {
    let out = cvliw(&["dot", FIR]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("// loop fir"));
    assert!(text.contains("digraph"));
}

#[test]
fn suite_runs_capped() {
    let out = cvliw(&["suite", "--machine", "4c1b2l64r", "--max-loops", "2"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("tomcatv"));
    assert!(text.contains("TOTAL"));
}

const SMALL_SUITE: &[&str] = &[
    "suite",
    "--machine",
    "2c1b2l64r",
    "--mode",
    "baseline",
    "--max-loops",
    "1",
];

fn small_suite_with<'a>(extra: &'a [&'a str]) -> Vec<&'a str> {
    SMALL_SUITE.iter().chain(extra).copied().collect()
}

#[test]
fn suite_emits_csv_and_json_to_stdout() {
    let csv = cvliw(&small_suite_with(&["--format", "csv"]));
    assert!(csv.status.success(), "{}", stderr(&csv));
    let text = stdout(&csv);
    assert!(text.starts_with("spec,mode,program"), "{text}");
    assert!(text.contains("2c1b2l64r,baseline,tomcatv"), "{text}");

    let json = cvliw(&small_suite_with(&["--format", "json"]));
    assert!(json.status.success(), "{}", stderr(&json));
    let text = stdout(&json);
    assert!(text.starts_with('{'), "{text}");
    assert!(text.contains("\"cells\""), "{text}");
}

#[test]
fn suite_md_writes_to_the_given_path() {
    let dir = std::env::temp_dir().join("cvliw-suite-md-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("book.md");
    let out = cvliw(&small_suite_with(&[
        "--format",
        "md",
        "--out",
        path.to_str().unwrap(),
    ]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("wrote"), "{}", stderr(&out));
    let book = std::fs::read_to_string(&path).unwrap();
    assert!(book.starts_with("# Results book"), "{book}");
    assert!(book.contains("Reduced grid"), "{book}");
}

#[test]
fn suite_out_dash_forces_stdout() {
    let out = cvliw(&small_suite_with(&["--format", "md", "--out", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).starts_with("# Results book"));
}

#[test]
fn restricted_md_book_has_no_later_appendices() {
    // Appendices B onwards belong to the default grid's book only.
    let out = cvliw(&small_suite_with(&["--format", "md", "--out", "-"]));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stdout(&out).contains("## Appendix B"), "{}", stdout(&out));
}

#[test]
fn suite_worker_count_does_not_change_output() {
    let one = cvliw(&small_suite_with(&["--format", "csv", "--jobs", "1"]));
    let four = cvliw(&small_suite_with(&["--format", "csv", "--jobs", "4"]));
    assert!(one.status.success() && four.status.success());
    assert_eq!(stdout(&one), stdout(&four));
}

#[test]
fn suite_rejects_unknown_format() {
    let out = cvliw(&small_suite_with(&["--format", "yaml"]));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown format"), "{}", stderr(&out));
}

#[test]
fn loop_selector_picks_one_loop() {
    let out = cvliw(&["print", FIR, "--loop", "fir"]);
    assert!(out.status.success());
    let missing = cvliw(&["print", FIR, "--loop", "nope"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(stderr(&missing).contains("no loop named"));
}

#[test]
fn block_schedules_acyclic_regions() {
    let out = cvliw(&[
        "block",
        "examples/loops/block.loop",
        "--machine",
        "4c1b2l64r",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("length"), "{text}");
    assert!(
        text.contains("c0@") || text.contains("c1@"),
        "placements missing: {text}"
    );
    // Loop-carried inputs are rejected with a clear message.
    let bad = cvliw(&["block", FIR, "--machine", "4c1b2l64r"]);
    assert_eq!(bad.status.code(), Some(1));
    assert!(stderr(&bad).contains("loop-carried"), "{}", stderr(&bad));
}

#[test]
fn heterogeneous_machine_specs_work() {
    let out = cvliw(&["schedule", FIR, "--machine", "het:0.3.1+3.0.2:1b2l64r"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("2 clusters"));
}

#[test]
fn bad_machine_spec_fails_with_exit_1() {
    let out = cvliw(&["schedule", FIR, "--machine", "notaspec"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("machine spec"));
}

#[test]
fn missing_file_fails_with_io_error() {
    let out = cvliw(&["schedule", "does/not/exist.loop", "--machine", "4c1b2l64r"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn unknown_command_and_options_exit_2_family() {
    let out = cvliw(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown command"));

    let out = cvliw(&["schedule", FIR, "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown option"));
}

#[test]
fn unknown_mode_is_rejected() {
    let out = cvliw(&["schedule", FIR, "--machine", "4c1b2l64r", "--mode", "yolo"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("unknown mode"));
}

#[test]
fn zero_and_overflow_counts_are_usage_errors() {
    // Zero is never a usable worker/loop/seed count; the old code path
    // accepted `--jobs 0` and hung the thread pool.
    for args in [
        &["suite", "--jobs", "0"][..],
        &["suite", "--max-loops", "0"],
        &["suite", "--refine-seeds", "0"],
        &["serve", "--jobs", "0"],
        &["bench", "--runs", "0"],
    ] {
        let out = cvliw(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("must be at least 1"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // One thread per raced seed: past the fixed cap is a usage error,
    // diagnosed before any loop is compiled.
    for args in [
        &["suite", "--refine-seeds", "65"][..],
        &["bench", "--refine-seeds", "65"],
    ] {
        let out = cvliw(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("--refine-seeds must be at most 64"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
    // Overflowing and garbage values are diagnosed, not wrapped.
    for val in ["99999999999999999999999", "three", "-2"] {
        let out = cvliw(&["suite", "--jobs", val]);
        assert_eq!(out.status.code(), Some(2), "{val}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("cannot parse"),
            "{val}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn suite_and_bench_reject_serve_only_options() {
    let out = cvliw(&small_suite_with(&["--serve"]));
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--serve"), "{}", stderr(&out));

    let out = cvliw(&small_suite_with(&["--socket", "/tmp/x.sock"]));
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    let out = cvliw(&["bench", "--socket", "/tmp/x.sock"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));

    // The fault-tolerance knobs are daemon-only too.
    for (opt, val) in [
        ("--deadline-ms", "100"),
        ("--sessions", "2"),
        ("--max-inflight", "8"),
    ] {
        let out = cvliw(&small_suite_with(&[opt, val]));
        assert_eq!(out.status.code(), Some(2), "{opt}: {}", stderr(&out));
        let out = cvliw(&["bench", opt, val]);
        assert_eq!(out.status.code(), Some(2), "{opt}: {}", stderr(&out));
    }
}

#[test]
fn serve_sessions_requires_a_socket() {
    let out = cvliw(&["serve", "--sessions", "2"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--socket"), "{}", stderr(&out));
}

#[test]
fn serve_rejects_per_request_options() {
    // Machine, mode and seeds travel on each request line, not the
    // command line; passing them to `serve` is a misunderstanding worth
    // a pointed diagnostic.
    let out = cvliw(&["serve", "--machine", "4c1b2l64r"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("not a `cvliw serve` option"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_answers_a_piped_jsonl_session() {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_cvliw"))
        .args(["serve", "--jobs", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let req = concat!(
        r#"{"id": 1, "loop": "loop t {\n  i: iadd i@1\n  x: load i\n  y: fmul x\n  s: store y\n}", "machine": "4c1b2l64r", "mode": "replicate"}"#,
        "\n",
        r#"{"id": 2, "loop": "loop t {\n  i: iadd i@1\n  x: load i\n  y: fmul x\n  s: store y\n}", "machine": "4c1b2l64r", "mode": "replicate"}"#,
        "\n",
        "this is not json\n",
        r#"{"id": 4, "op": "stats"}"#,
        "\n",
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(req.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let lines: Vec<String> = stdout(&out).lines().map(String::from).collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert!(
        lines[0].starts_with("{\"id\":1,\"ok\":{\"mii\":"),
        "{}",
        lines[0]
    );
    // The duplicate is answered byte-identically (id aside).
    assert_eq!(
        lines[0].trim_start_matches("{\"id\":1,"),
        lines[1].trim_start_matches("{\"id\":2,")
    );
    assert!(
        lines[2].starts_with("{\"id\":null,\"error\":{\"kind\":\"json\""),
        "{}",
        lines[2]
    );
    assert!(lines[3].contains("\"requests\":4"), "{}", lines[3]);
    // EOF ends the session with a one-line accounting summary on stderr.
    assert!(stderr(&out).contains("serve:"), "{}", stderr(&out));
}

#[test]
fn serve_accepts_the_fault_tolerance_knobs() {
    use std::io::Write as _;
    use std::process::Stdio;

    // A generous deadline and in-flight bound: both armed, neither
    // tripped — requests answer normally and the stats op reports the
    // fault counters at zero.
    let mut child = Command::new(env!("CARGO_BIN_EXE_cvliw"))
        .args([
            "serve",
            "--jobs",
            "2",
            "--deadline-ms",
            "10000",
            "--max-inflight",
            "8",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    let req = concat!(
        r#"{"id": 1, "loop": "loop t {\n  i: iadd i@1\n  x: load i\n  y: fmul x\n  s: store y\n}", "machine": "4c1b2l64r", "mode": "replicate"}"#,
        "\n",
        r#"{"id": 2, "op": "stats"}"#,
        "\n",
    );
    child
        .stdin
        .take()
        .unwrap()
        .write_all(req.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{}", stderr(&out));
    let lines: Vec<String> = stdout(&out).lines().map(String::from).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(lines[0].starts_with("{\"id\":1,\"ok\":"), "{}", lines[0]);
    assert!(lines[1].contains("\"shed\":0"), "{}", lines[1]);
    assert!(lines[1].contains("\"deadlines\":0"), "{}", lines[1]);
    assert!(lines[1].contains("\"panics\":0"), "{}", lines[1]);
}

#[test]
fn parse_errors_carry_positions() {
    let dir = std::env::temp_dir().join("cvliw-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.loop");
    std::fs::write(&bad, "loop l {\n x: frobnicate y\n}\n").unwrap();
    let out = cvliw(&["schedule", bad.to_str().unwrap(), "--machine", "4c1b2l64r"]);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.contains("2:5"), "position missing: {err}");
    assert!(err.contains("frobnicate"), "{err}");
}

/// Spawns the stdin daemon with `args`, pipes `input`, returns output.
fn serve_piped(args: &[&str], input: &str) -> Output {
    use std::io::Write as _;
    use std::process::Stdio;

    let mut child = Command::new(env!("CARGO_BIN_EXE_cvliw"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon starts");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

const COMPILE_REQ: &str = concat!(
    r#"{"id": 1, "loop": "loop t {\n  i: iadd i@1\n  x: load i\n  y: fmul x\n  s: store y\n}", "machine": "4c1b2l64r", "mode": "replicate"}"#,
    "\n",
);

#[test]
fn serve_cache_zero_is_disabled_mode_not_an_error() {
    // `--cache-entries 0` / `--cache-mb 0` now mean "run without a
    // result cache" — an explicit measurement/debugging mode. The
    // exchange is interactive (one request per batch) so the repeat
    // cannot be coalesced away: it must be a genuine second miss.
    use std::io::{BufRead as _, BufReader, Write as _};
    use std::process::Stdio;

    for knob in ["--cache-entries", "--cache-mb"] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_cvliw"))
            .args(["serve", "--jobs", "1", knob, "0"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon starts");
        let mut stdin = child.stdin.take().unwrap();
        let mut reader = BufReader::new(child.stdout.take().unwrap());
        let mut exchange = |req: &str| -> String {
            stdin.write_all(req.as_bytes()).unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        assert!(exchange(COMPILE_REQ).contains("\"ok\""), "{knob}");
        assert!(exchange(COMPILE_REQ).contains("\"ok\""), "{knob}");
        let stats = exchange("{\"id\": 3, \"op\": \"stats\"}\n");
        drop(stdin);
        let out = child.wait_with_output().unwrap();
        assert!(out.status.success(), "{knob}: {}", stderr(&out));
        assert!(
            stderr(&out).contains("result cache disabled"),
            "{knob}: {}",
            stderr(&out)
        );
        // The repeat is *not* a hit, and nothing was stored: there is
        // no cache to hit.
        assert!(stats.contains("\"hits\":0"), "{knob}: {stats}");
        assert!(stats.contains("\"misses\":2"), "{knob}: {stats}");
        assert!(stats.contains("\"cache_entries\":0"), "{knob}: {stats}");
    }
}

#[test]
fn cache_path_with_a_disabled_cache_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("cvliw-cli-conflict-{}", std::process::id()));
    let out = cvliw(&[
        "serve",
        "--cache-entries",
        "0",
        "--cache-path",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("contradicts"), "{}", stderr(&out));
    assert!(!dir.exists(), "a refused configuration must create nothing");

    // --snapshot-every is meaningless without --cache-path.
    let out = cvliw(&["serve", "--snapshot-every", "16"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("only meaningful with --cache-path"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn serve_persists_across_restarts_and_cache_verify_audits_the_directory() {
    let dir = std::env::temp_dir().join(format!("cvliw-cli-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_s = dir.to_str().unwrap();

    // Life 1: one compile, then EOF (which books a final snapshot).
    let out = serve_piped(
        &["serve", "--jobs", "1", "--cache-path", dir_s],
        COMPILE_REQ,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("final snapshot: 1 entries"),
        "{}",
        stderr(&out)
    );

    // Life 2: the same request is a cache hit served from disk.
    let req = format!("{COMPILE_REQ}{{\"id\": 2, \"op\": \"stats\"}}\n");
    let out = serve_piped(&["serve", "--jobs", "1", "--cache-path", dir_s], &req);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("1 entries restored"),
        "{}",
        stderr(&out)
    );
    let lines: Vec<String> = stdout(&out).lines().map(String::from).collect();
    assert!(
        lines[0].starts_with("{\"id\":1,\"ok\":{\"mii\":"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"hits\":1"), "{}", lines[1]);

    // A clean directory verifies with exit 0.
    let out = cvliw(&["cache", "verify", dir_s]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("clean"), "{}", stdout(&out));

    // Flip one payload byte: verify must fail with a located diagnostic.
    let snap = dir.join("snapshot.bin");
    let mut bytes = std::fs::read(&snap).unwrap();
    let at = bytes.len() - 4;
    bytes[at] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();
    let out = cvliw(&["cache", "verify", dir_s]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stdout(&out).contains("at byte"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("failed verification"),
        "{}",
        stderr(&out)
    );

    // The daemon recovers anyway: corrupt snapshot frames are
    // quarantined and the journal (or a recompile) fills the gap.
    let out = serve_piped(
        &["serve", "--jobs", "1", "--cache-path", dir_s],
        COMPILE_REQ,
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("quarantined"), "{}", stderr(&out));
    assert!(
        stdout(&out).starts_with("{\"id\":1,\"ok\":{\"mii\":"),
        "{}",
        stdout(&out)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_and_client_usage_errors() {
    // `cache` knows exactly one action.
    let out = cvliw(&["cache", "audit", "/nonexistent"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("verify <dir>"), "{}", stderr(&out));

    // `client` needs a socket to talk to.
    let out = cvliw(&["client"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("missing required option --socket"),
        "{}",
        stderr(&out)
    );

    // Bench/suite knobs stay rejected on `client`.
    let out = cvliw(&["client", "--socket", "/tmp/x.sock", "--runs", "3"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("not a `cvliw client` option"),
        "{}",
        stderr(&out)
    );

    // An absent directory is a clean cold start, not an error.
    let out = cvliw(&["cache", "verify", "/nonexistent-cvliw-cache"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stdout(&out).contains("absent"), "{}", stdout(&out));
}
