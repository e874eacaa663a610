//! Implementations of the `cvliw` subcommands.

use std::fmt;
use std::fs;

use cvliw::ddg::to_dot;
use cvliw::exp::{
    bench_suite, default_jobs, emit, emit_appendices, emit_bench_json, run_suite, serve_replay,
    serve_restart_replay, Format, SuiteError, SuiteGrid,
};
use cvliw::ir::{parse_module, print_loop, NamedLoop, ParseError};
use cvliw::machine::{MachineConfig, SpecError};
use cvliw::replicate::{
    compile_loop, compile_loop_ctx, CompileContext, CompileError, CompileOptions, CompiledLoop,
    Mode, MAX_REFINE_SEEDS,
};
use cvliw::sched::LoopAnalysis;
use cvliw::sim::simulate;

use crate::args::{Args, UsageError};

/// Any failure a subcommand can produce.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(UsageError),
    /// Could not read the input file.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Could not write an output file (`--out`, the results book).
    Write {
        /// The path that failed.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The input file did not parse.
    Parse(ParseError),
    /// The `--machine` spec did not parse.
    Spec(SpecError),
    /// A loop name that the file does not define.
    NoSuchLoop(String),
    /// Compilation failed.
    Compile(CompileError),
    /// Acyclic-region scheduling failed.
    Block(String),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// Unknown `--mode` value.
    UnknownMode(String),
    /// Unknown `--format` value.
    UnknownFormat(String),
    /// A suite run could not start.
    Suite(SuiteError),
    /// A `cvliw bench` run exceeded its `--budget-ms` wall-clock budget.
    BudgetExceeded {
        /// Median total wall clock of the measured runs.
        wall_ms: f64,
        /// The budget that was exceeded.
        budget_ms: f64,
    },
    /// `cvliw serve` failed on its transport (stdin/stdout or the socket).
    Serve(std::io::Error),
    /// `cvliw cache verify` found damage in a persisted cache directory.
    CacheCorrupt {
        /// The directory that was verified.
        dir: String,
        /// How many issues (corrupt frames, torn tails, refused files).
        issues: usize,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::Io { path, source } => write!(f, "cannot read `{path}`: {source}"),
            CliError::Write { path, source } => write!(f, "cannot write `{path}`: {source}"),
            CliError::Parse(e) => write!(f, "parse error at {e}"),
            CliError::Spec(e) => write!(f, "bad machine spec: {e}"),
            CliError::NoSuchLoop(name) => write!(f, "the file defines no loop named `{name}`"),
            CliError::Compile(e) => write!(f, "compilation failed: {e}"),
            CliError::Block(e) => write!(f, "block scheduling failed: {e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command `{c}` (try `cvliw help`)")
            }
            CliError::UnknownMode(m) => write!(
                f,
                "unknown mode `{m}` (expected baseline, replicate, sched-len, zero-bus \
                 or value-clone)"
            ),
            CliError::UnknownFormat(x) => {
                write!(f, "unknown format `{x}` (expected text, json, csv or md)")
            }
            CliError::Suite(e) => write!(f, "suite failed: {e}"),
            CliError::BudgetExceeded { wall_ms, budget_ms } => write!(
                f,
                "bench exceeded its wall-clock budget: {wall_ms:.0} ms > {budget_ms:.0} ms"
            ),
            CliError::Serve(e) => write!(f, "serve i/o failed: {e}"),
            CliError::CacheCorrupt { dir, issues } => write!(
                f,
                "cache directory `{dir}` failed verification with {issues} issue{} \
                 (details above)",
                if *issues == 1 { "" } else { "s" }
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<CompileError> for CliError {
    fn from(e: CompileError) -> Self {
        CliError::Compile(e)
    }
}

/// Dispatches a parsed command line.
pub fn run(args: &Args) -> Result<(), CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        "print" => cmd_print(args),
        "dot" => cmd_dot(args),
        "mii" => cmd_mii(args),
        "machines" => cmd_machines(args),
        "schedule" => cmd_schedule(args),
        "block" => cmd_block(args),
        "expand" => cmd_expand(args),
        "compare" => cmd_compare(args),
        "suite" => cmd_suite(args),
        "bench" => cmd_bench(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "cache" => cmd_cache(args),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The help text.
#[must_use]
pub fn usage() -> String {
    "\
cvliw — modulo scheduling with instruction replication for clustered VLIWs
(reproduction of Aletà et al., MICRO-36 2003)

USAGE:
    cvliw <command> [arguments] [options]

COMMANDS:
    schedule <file.loop>   compile a loop and print schedule + statistics
    expand   <file.loop>   emit the software-pipelined code (prologue /
                           kernel / epilogue) for --iterations iterations
    block    <file.loop>   schedule an acyclic region (no loop-carried
                           edges) and apply critical-path replication
    compare  <file.loop>   baseline vs replication (and §5 modes) side by side
    mii      <file.loop>   print the MII decomposition of each loop
    machines               list every registered machine spec (paper grid +
                           topology grid) with its interconnect and derived
                           capacity numbers
    print    <file.loop>   parse and reprint in canonical form
    dot      <file.loop>   emit Graphviz DOT for the dependence graph
    suite                  run the 678-loop experiment grid in parallel
                           (paper machines + topology appendix × all modes
                           by default)
    bench                  time suite compilation (warmup + median-of-N)
                           and write BENCH_compile.json; --serve also
                           replays the grid through the compile daemon
                           (cold + warm pass) and records throughput
    serve                  run as a compile daemon: JSONL requests on
                           stdin (or --socket <path>), one response per
                           line, with a content-addressed result cache;
                           each job builds a fresh compile context on its
                           worker's recycled scratch;
                           --cache-path <dir> makes the cache survive
                           restarts (journal + snapshots, crash-safe)
    client                 talk to a socket daemon with reconnect +
                           backoff: compile a .loop file (--machine,
                           --mode), pump stdin JSONL, or --stats
    cache verify <dir>     check a persisted cache directory without
                           modifying it; nonzero exit + per-record byte
                           offsets on any corruption
    help                   show this message

OPTIONS:
    --machine <spec>       machine config: wcxbylzr (e.g. 4c1b2l64r), a
                           topology spec wc-<ring|xbar><y>l<z>r (e.g.
                           4c-ring1l64r), `unified` (12-wide, no clusters),
                           or the heterogeneous form het:INT.FP.MEM+...:xbylzr
                           (e.g. het:0.3.1+3.0.2:1b2l64r)
                           [required for schedule/compare/mii; for `suite`
                           it restricts the grid to one machine]
    --mode <mode>          baseline | replicate | sched-len | zero-bus |
                           value-clone (default: replicate; for `suite` it
                           restricts the grid to one mode)
    --loop <name>          pick one loop from a multi-loop file
    --iterations <n>       trip count for Texec/IPC reporting (default 100)
    --max-loops <n>        cap loops per program for `suite`
    --jobs <n>             suite worker threads (default: CPU count, max 8);
                           the report is identical for any worker count
    --refine-seeds <n>     suite/bench: race n perturbed refinement seeds
                           per loop for the MII seed partition (default 1 =
                           off, at most 64); the winner is picked by
                           (score, seed-index), so reports never depend on
                           thread scheduling
    --format <fmt>         suite output: text | json | csv | md
                           (default text; md is the docs/RESULTS.md book)
    --out <path>           suite output file; `-` forces stdout
                           (default: stdout, except md -> docs/RESULTS.md;
                           for `bench`: BENCH_compile.json)
    --runs <n>             bench: measured passes, median reported (default 3)
    --warmup <n>           bench: untimed warmup passes (default 1)
    --budget-ms <n>        bench: exit nonzero if the median total exceeds
                           this wall-clock budget (CI's 10×-regression net)
    --serve                bench: also replay the grid through an in-process
                           compile daemon and record cold/warm throughput
                           in the serve section of BENCH_compile.json
    --restart              bench --serve: additionally cold-compile into a
                           scratch --cache-path, drop the daemon, recover
                           the directory and record warm-restart hit rate
                           and throughput (serve_restart section)
    --socket <path>        serve: listen on a Unix socket instead of stdin
                           (refuses a path a live daemon serves; recovers
                           a stale one; removes the file on exit)
    --sessions <n>         serve: concurrent socket sessions sharing one
                           cache (default 4; requires --socket)
    --cache-entries <n>    serve: result-cache entry bound (default 1024;
                           0 disables the cache entirely)
    --cache-mb <n>         serve: result-cache payload bound in MiB
                           (default 64; 0 disables the cache entirely)
    --cache-path <dir>     serve: persist the cache in <dir> (crash-safe
                           journal + compacted snapshots) and recover it
                           on startup, tolerating torn/corrupt/alien
                           files; incompatible with a disabled cache
    --snapshot-every <n>   serve: journal records between compacted
                           snapshots (default 1024; requires --cache-path)
    --deadline-ms <n>      serve: per-request compile budget; a compile
                           that exceeds it is cancelled at its next II
                           attempt and answers `deadline_exceeded`
                           (default: no deadline)
    --max-inflight <n>     serve: daemon-wide in-flight compile bound;
                           misses beyond it answer `overloaded` with a
                           retry_after_ms hint that scales with the
                           observed in-flight depth (default 256)
    --stats                client: ask the daemon for its counters
                           instead of compiling

SERVE PROTOCOL (one JSON object per line):
    {\"id\": 1, \"loop\": \"loop t {\\n i: iadd i@1\\n x: load i\\n}\",
     \"machine\": \"4c1b2l64r\", \"mode\": \"replicate\", \"seeds\": 1}
    {\"id\": 2, \"op\": \"stats\"}
    -> {\"id\":1,\"ok\":{...same counters as one-shot compilation...}}
    -> {\"id\":2,\"ok\":{...cache hit/miss/eviction accounting...}}
    error kinds: json | field | oversized | spec | parse | compile |
    deadline_exceeded | overloaded | compile_panic | internal — one
    response per request even when its compile panics or is shed; the
    daemon itself never exits on a request. Exit code 0 on EOF or a
    drained SIGTERM/SIGINT, 1 on transport errors (socket in use, bind
    failure), 2 on usage errors.

EXAMPLES:
    cvliw schedule examples/loops/fir.loop --machine 4c1b2l64r
    cvliw compare  examples/loops/fir.loop --machine 4c2b4l64r
    cvliw suite --machine 4c1b2l64r --mode baseline --max-loops 16
    cvliw suite --jobs 4 --format md        # regenerate docs/RESULTS.md
    cvliw suite --jobs 4 --format csv --out results.csv
    cvliw bench --max-loops 8 --runs 3      # quick perf snapshot
    cvliw bench                             # full-grid BENCH_compile.json
    cvliw bench --serve --max-loops 4       # daemon throughput snapshot
    cvliw serve --jobs 4                    # compile daemon on stdin/stdout
    cvliw serve --socket /tmp/cvliw.sock --cache-path /var/cache/cvliw
    cvliw client --socket /tmp/cvliw.sock examples/loops/fir.loop \\
                 --machine 4c1b2l64r       # resilient client: reconnects
    cvliw client --socket /tmp/cvliw.sock --stats
    cvliw cache verify /var/cache/cvliw     # offline corruption check
"
    .to_string()
}

fn parse_machine(spec: &str) -> Result<MachineConfig, CliError> {
    Ok(MachineConfig::from_extended_spec(spec)?)
}

fn parse_mode(args: &Args) -> Result<Mode, CliError> {
    let name = args.get("mode").unwrap_or("replicate");
    Mode::parse(name).ok_or_else(|| CliError::UnknownMode(name.to_string()))
}

fn read_loops(args: &Args) -> Result<Vec<NamedLoop>, CliError> {
    let path = args.one_positional("one input file")?;
    let text = fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_string(),
        source,
    })?;
    let module = parse_module(&text)?;
    match args.get("loop") {
        None => Ok(module.into_iter().collect()),
        Some(name) => match module.get(name) {
            Some(l) => Ok(vec![l.clone()]),
            None => Err(CliError::NoSuchLoop(name.to_string())),
        },
    }
}

fn cmd_print(args: &Args) -> Result<(), CliError> {
    for l in read_loops(args)? {
        print!("{}", print_loop(&l.name, &l.ddg));
    }
    Ok(())
}

fn cmd_dot(args: &Args) -> Result<(), CliError> {
    for l in read_loops(args)? {
        println!("// loop {}", l.name);
        print!("{}", to_dot(&l.ddg));
    }
    Ok(())
}

fn cmd_mii(args: &Args) -> Result<(), CliError> {
    let machine = parse_machine(args.require("machine")?)?;
    println!(
        "{:<16} {:>6} {:>7} {:>6}",
        "loop", "ResMII", "RecMII", "MII"
    );
    for l in read_loops(args)? {
        let a = LoopAnalysis::new(&l.ddg, &machine);
        let (res, rec, total) = (a.res_mii(), a.rec_mii(), a.mii());
        println!("{:<16} {res:>6} {rec:>7} {total:>6}", l.name);
    }
    Ok(())
}

/// Renders one compiled loop in full.
fn report_compiled(l: &NamedLoop, machine: &MachineConfig, out: &CompiledLoop, iterations: u64) {
    let s = &out.stats;
    println!(
        "loop {}: {} ops, {} deps",
        l.name,
        l.ddg.node_count(),
        l.ddg.edge_count()
    );
    println!(
        "machine {}: {} clusters",
        machine.spec(),
        machine.clusters()
    );
    println!();
    println!(
        "  MII {} -> II {} (length {}, {} stages)",
        s.mii, s.ii, s.length, s.stage_count
    );
    println!(
        "  communications: {} after partition, {} scheduled on buses",
        s.partition_coms, s.final_coms
    );
    if s.replication.subgraphs_replicated > 0 {
        println!(
            "  replication: {} subgraphs, +{} instances, -{} dead originals",
            s.replication.subgraphs_replicated,
            s.replication.added_instances(),
            s.replication.removed_instances,
        );
    }
    if s.causes.total() > 0 {
        println!(
            "  II increments: bus {}, recurrence {}, registers {}, resources {}",
            s.causes.bus, s.causes.recurrence, s.causes.registers, s.causes.resources
        );
    }
    let cycles = out.schedule.texec(iterations);
    let ops = iterations * u64::from(s.ops_per_iter);
    println!(
        "  Texec({iterations} iterations) = {cycles} cycles, IPC {:.2}",
        ops as f64 / cycles as f64
    );
    match cvliw::sched::allocate_registers(&out.schedule, &l.ddg, machine) {
        Ok(alloc) => println!(
            "  rotating registers: {:?} of {} per cluster",
            alloc.registers_used(),
            machine.regs_per_cluster()
        ),
        Err(e) => println!("  register allocation failed: {e}"),
    }
    println!();
    print!("{}", out.schedule.render(&l.ddg));
}

fn cmd_schedule(args: &Args) -> Result<(), CliError> {
    let machine = parse_machine(args.require("machine")?)?;
    let mode = parse_mode(args)?;
    let iterations = args.get_positive_num::<u64>("iterations")?.unwrap_or(100);
    let opts = CompileOptions { mode, max_ii: None };
    for l in read_loops(args)? {
        let out = compile_loop(&l.ddg, &machine, &opts)?;
        report_compiled(&l, &machine, &out, iterations);
        match out.schedule.verify(&l.ddg, &machine) {
            Ok(()) => println!("schedule verified OK"),
            Err(e) => println!("schedule verification FAILED: {e}"),
        }
        if mode != Mode::ZeroBusLatency {
            match simulate(&l.ddg, &machine, &out.schedule, 8) {
                Ok(_) => println!("lockstep simulation (8 iterations) OK"),
                Err(e) => println!("lockstep simulation FAILED: {e}"),
            }
        }
        println!();
    }
    Ok(())
}

fn cmd_block(args: &Args) -> Result<(), CliError> {
    use cvliw::partition::partition_loop;
    use cvliw::replicate::{replicate_for_acyclic_length, schedule_acyclic};
    let machine = parse_machine(args.require("machine")?)?;
    for l in read_loops(args)? {
        let part = partition_loop(&l.ddg, &machine, 1);
        let assignment = part.to_assignment();
        let before = schedule_acyclic(&l.ddg, &machine, &assignment)
            .map_err(|e| CliError::Block(e.to_string()))?;
        let (improved, after) = replicate_for_acyclic_length(&l.ddg, &machine, assignment)
            .map_err(|e| CliError::Block(e.to_string()))?;
        println!(
            "block {}: length {} -> {} cycles, copies {} -> {}",
            l.name,
            before.length(),
            after.length(),
            before.copy_count(),
            after.copy_count()
        );
        for n in l.ddg.node_ids() {
            let clusters: Vec<u8> = improved.instances(n).iter().collect();
            let cycles: Vec<String> = clusters
                .iter()
                .filter_map(|&c| after.instance_cycle(n, c).map(|t| format!("c{c}@{t}")))
                .collect();
            println!("  {:<12} {}", l.ddg.display_label(n), cycles.join("  "));
        }
        println!();
    }
    Ok(())
}

fn cmd_expand(args: &Args) -> Result<(), CliError> {
    let machine = parse_machine(args.require("machine")?)?;
    let mode = parse_mode(args)?;
    let iterations = args.get_positive_num::<u64>("iterations")?.unwrap_or(6);
    let opts = CompileOptions { mode, max_ii: None };
    for l in read_loops(args)? {
        let out = compile_loop(&l.ddg, &machine, &opts)?;
        let shape = cvliw::sched::code_shape(&out.schedule);
        println!(
            "loop {}: II={} SC={}; static code: {} rows / {} ops \
             (prologue {}, kernel {}, epilogue {})",
            l.name,
            out.stats.ii,
            out.stats.stage_count,
            shape.total_rows(),
            shape.total_ops(),
            shape.prologue_ops,
            shape.kernel_ops,
            shape.epilogue_ops,
        );
        let trace = cvliw::sched::expand(&out.schedule, iterations);
        print!("{}", cvliw::sched::render_expansion(&trace, &l.ddg));
        println!();
    }
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), CliError> {
    let machine = parse_machine(args.require("machine")?)?;
    let iterations = args.get_positive_num::<u64>("iterations")?.unwrap_or(100);
    const MODES: [Mode; 5] = [
        Mode::Baseline,
        Mode::ValueClone,
        Mode::Replicate,
        Mode::ReplicateSchedLen,
        Mode::ZeroBusLatency,
    ];
    for l in read_loops(args)? {
        println!("loop {} on {}:", l.name, machine.spec());
        println!(
            "{:<12} {:>4} {:>4} {:>7} {:>7} {:>6} {:>8} {:>7}",
            "mode", "MII", "II", "length", "stages", "coms", "+instrs", "IPC"
        );
        // One context per loop: every mode shares its analysis and seed.
        let ctx = CompileContext::new(&l.ddg, &machine);
        for mode in MODES {
            let (name, opts) = (mode.name(), CompileOptions { mode, max_ii: None });
            match compile_loop_ctx(&l.ddg, &machine, &opts, &ctx) {
                Ok(out) => {
                    let s = out.stats;
                    let cycles = out.schedule.texec(iterations);
                    let ipc = (iterations * u64::from(s.ops_per_iter)) as f64 / cycles as f64;
                    println!(
                        "{name:<12} {:>4} {:>4} {:>7} {:>7} {:>6} {:>8} {ipc:>7.2}",
                        s.mii,
                        s.ii,
                        s.length,
                        s.stage_count,
                        s.final_coms,
                        s.replication.added_instances(),
                    );
                }
                Err(e) => println!("{name:<12} failed: {e}"),
            }
        }
        println!();
    }
    Ok(())
}

/// `cvliw machines`: the registered machine specs (the paper's Table-1
/// grid plus the topology appendix grid) with their parsed interconnect,
/// per-cluster unit mix and MII-relevant derived numbers.
fn cmd_machines(args: &Args) -> Result<(), CliError> {
    let _ = args;
    println!(
        "{:<14} {:>8} {:>13} {:>5} {:<28} {:>5} {:>9} {:>7} {:>7}",
        "spec",
        "clusters",
        "int/fp/mem",
        "regs",
        "interconnect",
        "links",
        "lat",
        "cap@8",
        "IIpart4"
    );
    let specs = cvliw::machine::paper_specs()
        .into_iter()
        .chain(cvliw::machine::topology_specs());
    for spec in specs {
        let m = parse_machine(spec)?;
        let fu = m.fu_counts();
        let lat_min = m.bus_latency();
        let lat_max = m.max_transfer_latency();
        let lat = if lat_min == lat_max {
            format!("{lat_min}")
        } else {
            format!("{lat_min}-{lat_max}")
        };
        // MII-relevant derived numbers: aggregate transfer capacity at a
        // representative II of 8, and the smallest II whose bandwidth
        // carries 4 communications (the `IIpart` floor of a 4-com loop).
        let ii_part4 = m
            .min_ii_for_coms(4)
            .map_or("—".to_string(), |ii| ii.to_string());
        println!(
            "{:<14} {:>8} {:>13} {:>5} {:<28} {:>5} {:>9} {:>7} {:>7}",
            m.spec(),
            m.clusters(),
            format!("{}/{}/{}", fu.int, fu.fp, fu.mem),
            m.regs_per_cluster(),
            m.interconnect().describe(m.clusters()),
            m.links(),
            lat,
            m.coms_capacity_per_ii(8),
            ii_part4,
        );
    }
    Ok(())
}

/// Options only `cvliw serve` understands; `suite` and `bench` reject
/// them so a typo'd invocation fails loudly instead of silently ignoring
/// a daemon knob.
const SERVE_ONLY_OPTIONS: [&str; 8] = [
    "socket",
    "cache-entries",
    "cache-mb",
    "cache-path",
    "snapshot-every",
    "deadline-ms",
    "sessions",
    "max-inflight",
];

/// Where the Markdown results book lives relative to the repository root.
const RESULTS_BOOK: &str = "docs/RESULTS.md";

/// Where `cvliw bench` writes its timing artifact by default.
const BENCH_BOOK: &str = "BENCH_compile.json";

/// Builds the (possibly restricted) grid shared by `suite` and `bench`.
/// `suite` defaults to the paper grid plus the topology appendix; `bench`
/// times the paper grid only, so the committed `BENCH_compile.json` keeps
/// its shape (one row per paper machine × program pair).
fn grid_from_args(args: &Args, base: SuiteGrid) -> Result<SuiteGrid, CliError> {
    let mut grid = base;
    if let Some(spec) = args.get("machine") {
        parse_machine(spec)?; // report a spec error before the run starts
        grid = grid.with_specs(vec![spec.to_string()]);
    }
    if args.get("mode").is_some() {
        grid = grid.with_modes(vec![parse_mode(args)?]);
    }
    if let Some(cap) = args.get_positive_num::<usize>("max-loops")? {
        grid = grid.with_max_loops(cap);
    }
    if let Some(seeds) = args.get_bounded_num("refine-seeds", MAX_REFINE_SEEDS)? {
        grid = grid.with_refine_seeds(seeds);
    }
    Ok(grid)
}

fn cmd_suite(args: &Args) -> Result<(), CliError> {
    // The timing knobs belong to `bench`; accepting them here would
    // silently skip the wall-clock gate a CI author thought they set.
    for bench_only in ["runs", "warmup", "budget-ms", "serve", "restart"] {
        if args.get(bench_only).is_some() {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{bench_only} (only `cvliw bench` accepts it)"
            ))));
        }
    }
    for serve_only in SERVE_ONLY_OPTIONS {
        if args.get(serve_only).is_some() {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{serve_only} (only `cvliw serve` accepts it)"
            ))));
        }
    }
    if args.flag("stats") {
        return Err(CliError::Usage(UsageError::UnknownOption(
            "stats (only `cvliw client` accepts it)".to_string(),
        )));
    }
    let grid = grid_from_args(args, SuiteGrid::paper_with_topology())?;
    let jobs = args
        .get_positive_num::<usize>("jobs")?
        .unwrap_or_else(default_jobs);
    let format = match args.get("format") {
        None => Format::Text,
        Some(name) => Format::parse(name).ok_or_else(|| CliError::UnknownFormat(name.into()))?,
    };

    let started = std::time::Instant::now();
    let report = run_suite(&grid, jobs).map_err(CliError::Suite)?;
    let elapsed = started.elapsed().as_secs_f64();
    // The measured footer: throughput belongs on stderr so every emitted
    // format stays a pure (deterministic) function of the grid.
    eprintln!(
        "suite: {} cells on {} worker{} in {elapsed:.1}s ({:.1} cells/s)",
        report.cells.len(),
        jobs,
        if jobs == 1 { "" } else { "s" },
        report.cells.len() as f64 / elapsed
    );

    let mut rendered = emit(&report, format);
    // The default grid's book also carries appendices B onwards: every
    // other published table, from side workloads of their own.
    if format == Format::Markdown && grid == SuiteGrid::paper_with_topology() {
        let started = std::time::Instant::now();
        rendered.push_str(&emit_appendices(&report, jobs).map_err(CliError::Suite)?);
        eprintln!(
            "suite: appendices in {:.1}s",
            started.elapsed().as_secs_f64()
        );
    }
    // `--format md` regenerates the checked-in results book unless an
    // explicit destination is given; every other format prints to stdout.
    let destination = match (args.get("out"), format) {
        (Some("-"), _) | (None, Format::Text | Format::Json | Format::Csv) => None,
        (Some(path), _) => Some(path.to_string()),
        (None, Format::Markdown) => Some(RESULTS_BOOK.to_string()),
    };
    match destination {
        None => print!("{rendered}"),
        Some(path) => {
            if let Some(parent) = std::path::Path::new(&path).parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent).map_err(|source| CliError::Write {
                        path: path.clone(),
                        source,
                    })?;
                }
            }
            fs::write(&path, &rendered).map_err(|source| CliError::Write {
                path: path.clone(),
                source,
            })?;
            eprintln!("wrote {path}");
        }
    }
    Ok(())
}

/// `cvliw bench`: time suite compilation with warmup and median-of-N, write
/// `BENCH_compile.json`, and optionally enforce a wall-clock budget.
fn cmd_bench(args: &Args) -> Result<(), CliError> {
    for serve_only in SERVE_ONLY_OPTIONS {
        if args.get(serve_only).is_some() {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{serve_only} (only `cvliw serve` accepts it)"
            ))));
        }
    }
    if args.flag("stats") {
        return Err(CliError::Usage(UsageError::UnknownOption(
            "stats (only `cvliw client` accepts it)".to_string(),
        )));
    }
    if args.flag("restart") && !args.flag("serve") {
        return Err(CliError::Usage(UsageError::UnknownOption(
            "restart (only meaningful with --serve; it benches the serve cache \
             across a restart)"
                .to_string(),
        )));
    }
    let grid = grid_from_args(args, SuiteGrid::paper())?;
    let jobs = args
        .get_positive_num::<usize>("jobs")?
        .unwrap_or_else(default_jobs);
    let runs = args.get_positive_num::<usize>("runs")?.unwrap_or(3);
    let warmup = args.get_num::<usize>("warmup")?.unwrap_or(1);
    let budget_ms = args.get_num::<f64>("budget-ms")?;
    if let Some(budget) = budget_ms {
        // "0", "-5" and "NaN" all parse as f64; none is a usable budget.
        if budget.is_nan() || budget <= 0.0 {
            return Err(CliError::Usage(UsageError::NotPositive(
                "budget-ms".to_string(),
            )));
        }
    }

    let mut report = bench_suite(&grid, jobs, runs, warmup).map_err(CliError::Suite)?;
    eprintln!(
        "bench: {} cells × {} run{} (+{} warmup) on {} worker{}: median {:.0} ms, {:.1} cells/s",
        report.cells,
        report.runs,
        if report.runs == 1 { "" } else { "s" },
        report.warmup,
        report.jobs,
        if report.jobs == 1 { "" } else { "s" },
        report.total_wall_ms,
        report.cells_per_sec
    );
    eprintln!(
        "stage_ms: {}",
        cvliw::replicate::Stage::ALL
            .iter()
            .map(|s| format!("{} {:.0}", s.name(), report.stage_ms[*s as usize]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if args.flag("serve") {
        let sr = serve_replay(&grid, jobs).map_err(CliError::Suite)?;
        eprintln!(
            "serve: {} requests on {} worker{}: cold {:.0} ms ({:.0} req/s), \
             warm {:.0} ms ({:.0} req/s, hit rate {:.2}), {} errors",
            sr.requests,
            sr.jobs,
            if sr.jobs == 1 { "" } else { "s" },
            sr.cold_wall_ms,
            sr.cold_rps,
            sr.warm_wall_ms,
            sr.warm_rps,
            sr.warm_hit_rate,
            sr.errors
        );
        report.serve = Some(sr);
        if args.flag("restart") {
            let rr = serve_restart_replay(&grid, jobs).map_err(CliError::Suite)?;
            eprintln!(
                "serve_restart: {} requests on {} worker{}: {} entries recovered, \
                 warm-restart {:.0} ms ({:.0} req/s, hit rate {:.2})",
                rr.requests,
                rr.jobs,
                if rr.jobs == 1 { "" } else { "s" },
                rr.loaded_entries,
                rr.restart_wall_ms,
                rr.restart_rps,
                rr.restart_hit_rate
            );
            report.serve_restart = Some(rr);
        }
    }
    let rendered = emit_bench_json(&report);
    let destination = match args.get("out") {
        Some("-") => None,
        Some(path) => Some(path.to_string()),
        None => Some(BENCH_BOOK.to_string()),
    };
    match destination {
        None => print!("{rendered}"),
        Some(path) => {
            fs::write(&path, &rendered).map_err(|source| CliError::Write {
                path: path.clone(),
                source,
            })?;
            eprintln!("wrote {path}");
        }
    }

    if let Some(budget) = budget_ms {
        if report.total_wall_ms > budget {
            return Err(CliError::BudgetExceeded {
                wall_ms: report.total_wall_ms,
                budget_ms: budget,
            });
        }
    }
    Ok(())
}

/// `cvliw serve`: the long-running compile daemon. Requests arrive as
/// JSONL on stdin (or a Unix socket with `--socket`); each carries its own
/// loop, machine, mode and seed config, so none of the grid-shaping
/// options apply here.
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use cvliw::serve::{PersistConfig, Server, ServerConfig, SharedState};

    for not_serve in [
        "machine",
        "mode",
        "loop",
        "max-loops",
        "iterations",
        "seed",
        "format",
        "out",
        "runs",
        "warmup",
        "budget-ms",
        "refine-seeds",
        "serve",
        "restart",
        "stats",
    ] {
        if args.get(not_serve).is_some() {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{not_serve} (not a `cvliw serve` option; each request carries its own \
                 machine/mode/seeds)"
            ))));
        }
    }
    let jobs = args
        .get_positive_num::<usize>("jobs")?
        .unwrap_or_else(default_jobs);
    // Zero is meaningful here: an explicit "run without a result cache"
    // (every request recompiles — a measurement and debugging mode).
    let cache_entries = args.get_num::<usize>("cache-entries")?.unwrap_or(1024);
    let cache_mb = args.get_num::<usize>("cache-mb")?.unwrap_or(64);
    let cache_disabled = cache_entries == 0 || cache_mb == 0;
    let deadline_ms = args.get_positive_num::<u64>("deadline-ms")?;
    let max_inflight = args
        .get_positive_num::<usize>("max-inflight")?
        .unwrap_or(256);
    let sessions = args.get_positive_num::<usize>("sessions")?;
    if sessions.is_some() && args.get("socket").is_none() {
        return Err(CliError::Usage(UsageError::UnknownOption(
            "sessions (only meaningful with --socket; the stdin daemon is one session)".to_string(),
        )));
    }
    let snapshot_every = args.get_positive_num::<u64>("snapshot-every")?;
    if snapshot_every.is_some() && args.get("cache-path").is_none() {
        return Err(CliError::Usage(UsageError::UnknownOption(
            "snapshot-every (only meaningful with --cache-path)".to_string(),
        )));
    }
    let persist = match args.get("cache-path") {
        None => None,
        Some(dir) => {
            if cache_disabled {
                // Persisting a cache that was explicitly disabled is a
                // contradiction, not a degenerate configuration: fail
                // loudly (exit 2) instead of writing an empty journal.
                return Err(CliError::Usage(UsageError::UnknownOption(
                    "cache-path (contradicts --cache-entries 0 / --cache-mb 0: there is \
                     no cache to persist)"
                        .to_string(),
                )));
            }
            let mut pcfg = PersistConfig::new(dir.into());
            if let Some(every) = snapshot_every {
                pcfg.snapshot_every = every;
            }
            Some(pcfg)
        }
    };
    let cfg = ServerConfig {
        jobs,
        cache_entries,
        cache_bytes: cache_mb << 20,
        deadline_ms,
        max_inflight,
        ..ServerConfig::default()
    };
    if cache_disabled {
        eprintln!("serve: result cache disabled (every request compiles)");
    }

    let shared = match &persist {
        None => SharedState::new(&cfg),
        Some(pcfg) => {
            let (shared, report) =
                SharedState::with_persistence(&cfg, pcfg).map_err(CliError::Serve)?;
            eprintln!(
                "serve: cache-path {}: {}",
                pcfg.dir.display(),
                report.summary()
            );
            for refused in &report.refused {
                eprintln!("serve: warning: refused {refused}");
            }
            for warning in &report.warnings {
                eprintln!("serve: warning: {warning}");
            }
            shared
        }
    };

    match args.get("socket") {
        None => {
            // `StdinLock` is not `Send` (the reader runs on its own
            // thread), so buffer the handle instead of locking it. The
            // graceful shutdown path here is EOF on stdin.
            let mut server = Server::with_shared(cfg, std::sync::Arc::clone(&shared));
            let stdin = std::io::BufReader::new(std::io::stdin());
            let stdout = std::io::stdout().lock();
            server
                .run_jsonl(stdin, std::io::BufWriter::new(stdout))
                .map_err(CliError::Serve)?;
            eprintln!("{}", server.summary());
        }
        Some(path) => {
            let stats = serve_socket(cfg, path, sessions.unwrap_or(4), &shared)?;
            eprintln!("{stats}");
        }
    }
    finish_persistence(&shared);
    Ok(())
}

/// Compacts the persisted cache one last time on the way out (both the
/// EOF and the drained-SIGTERM exit paths go through here). A failure is
/// a warning, not an exit code: the journal already holds everything the
/// snapshot would, so the next start recovers regardless.
fn finish_persistence(shared: &cvliw::serve::SharedState) {
    if let Some(reason) = shared.persist_dead_reason() {
        eprintln!("serve: warning: persistence stopped mid-run: {reason}");
        return;
    }
    match shared.snapshot_now() {
        None => {}
        Some(Ok(n)) => eprintln!("serve: final snapshot: {n} entries"),
        Some(Err(e)) => eprintln!("serve: warning: final snapshot failed: {e}"),
    }
}

/// The Unix-socket daemon: concurrent sessions over one shared cache,
/// graceful drain on SIGTERM/SIGINT, socket file removed on every exit.
#[cfg(unix)]
fn serve_socket(
    cfg: cvliw::serve::ServerConfig,
    path: &str,
    sessions: usize,
    shared: &std::sync::Arc<cvliw::serve::SharedState>,
) -> Result<cvliw::serve::ServeStats, CliError> {
    use cvliw::serve::{run_socket_with, ShutdownFlag, SocketConfig};

    let shutdown = ShutdownFlag::new();
    crate::signals::install_shutdown_handler(&shutdown);
    eprintln!(
        "serve: listening on {path} (up to {sessions} concurrent session{}, \
         SIGTERM/ctrl-c drains and exits)",
        if sessions == 1 { "" } else { "s" }
    );
    let sock = SocketConfig {
        path: path.into(),
        sessions,
    };
    run_socket_with(cfg, &sock, &shutdown, std::sync::Arc::clone(shared)).map_err(CliError::Serve)
}

#[cfg(not(unix))]
fn serve_socket(
    _cfg: cvliw::serve::ServerConfig,
    _path: &str,
    _sessions: usize,
    _shared: &std::sync::Arc<cvliw::serve::SharedState>,
) -> Result<cvliw::serve::ServeStats, CliError> {
    Err(CliError::Usage(UsageError::UnknownOption(
        "socket (Unix sockets are unavailable on this platform; use stdin)".to_string(),
    )))
}

/// `cvliw client`: the resilient side of the socket protocol. Compiles a
/// `.loop` file, pumps stdin JSONL, or fetches `--stats` — reconnecting
/// with exponential backoff and honoring `retry_after_ms` shed hints.
#[cfg(unix)]
fn cmd_client(args: &Args) -> Result<(), CliError> {
    use cvliw::serve::Client;

    for not_client in [
        "max-loops",
        "iterations",
        "seed",
        "format",
        "out",
        "runs",
        "warmup",
        "budget-ms",
        "jobs",
        "cache-entries",
        "cache-mb",
        "cache-path",
        "snapshot-every",
        "deadline-ms",
        "sessions",
        "max-inflight",
    ] {
        if args.get(not_client).is_some() {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{not_client} (not a `cvliw client` option)"
            ))));
        }
    }
    for not_client in ["serve", "restart"] {
        if args.flag(not_client) {
            return Err(CliError::Usage(UsageError::UnknownOption(format!(
                "{not_client} (only `cvliw bench` accepts it)"
            ))));
        }
    }
    let socket = args.require("socket")?;
    let mut client = Client::new(std::path::Path::new(socket));

    if args.flag("stats") {
        if !args.positional.is_empty() {
            return Err(CliError::Usage(UsageError::Positional(
                "no input file with --stats",
            )));
        }
        let response = client.stats(0).map_err(CliError::Serve)?;
        println!("{response}");
        return Ok(());
    }

    if args.positional.is_empty() {
        // Raw mode: each stdin line is already a protocol request; the
        // client adds only the reconnect/backoff resilience.
        use std::io::BufRead;
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.map_err(CliError::Serve)?;
            if line.trim().is_empty() {
                continue;
            }
            let response = client.request(&line).map_err(CliError::Serve)?;
            println!("{response}");
        }
    } else {
        let machine = args.require("machine")?;
        // Validate locally before shipping requests: a typo should be a
        // usage error here, not a per-request `spec` error from the daemon.
        parse_machine(machine)?;
        let mode = parse_mode(args);
        let mode_name = mode?.name();
        let seeds = args
            .get_bounded_num("refine-seeds", MAX_REFINE_SEEDS)?
            .unwrap_or(1);
        for (id, l) in read_loops(args)?.iter().enumerate() {
            let source = print_loop(&l.name, &l.ddg);
            let response = client
                .compile(id as u64 + 1, &source, machine, mode_name, seeds)
                .map_err(CliError::Serve)?;
            println!("{response}");
        }
    }
    if client.reconnects() > 0 || client.sheds_honored() > 0 {
        eprintln!(
            "client: {} reconnect{}, {} shed hint{} honored",
            client.reconnects(),
            if client.reconnects() == 1 { "" } else { "s" },
            client.sheds_honored(),
            if client.sheds_honored() == 1 { "" } else { "s" },
        );
    }
    Ok(())
}

#[cfg(not(unix))]
fn cmd_client(_args: &Args) -> Result<(), CliError> {
    Err(CliError::Usage(UsageError::UnknownOption(
        "socket (Unix sockets are unavailable on this platform)".to_string(),
    )))
}

/// `cvliw cache verify <dir>`: a pure read-only audit of a persisted
/// cache directory. Prints one line per file plus one line per damaged
/// record (with its byte offset), and exits nonzero on any damage.
fn cmd_cache(args: &Args) -> Result<(), CliError> {
    use cvliw::serve::verify_dir;

    let dir = match args.positional.as_slice() {
        [verb, dir] if verb == "verify" => dir,
        _ => {
            return Err(CliError::Usage(UsageError::Positional(
                "`verify <dir>` (the only `cvliw cache` action)",
            )))
        }
    };
    let report = verify_dir(std::path::Path::new(dir)).map_err(CliError::Serve)?;
    for file in &report.files {
        if !file.present {
            println!("{}: absent (clean cold start)", file.name);
            continue;
        }
        if let Some(why) = &file.refused {
            println!("{}: REFUSED: {why}", file.name);
            continue;
        }
        let verdict = if file.issues.is_empty() {
            "ok"
        } else {
            "DAMAGED"
        };
        println!(
            "{}: {verdict}: {} verified record{}",
            file.name,
            file.records,
            if file.records == 1 { "" } else { "s" }
        );
        for issue in &file.issues {
            println!(
                "{}: record #{} at byte {}: {}",
                file.name, issue.record, issue.offset, issue.detail
            );
        }
    }
    if report.clean() {
        println!(
            "clean: {} record{} verified",
            report.records(),
            if report.records() == 1 { "" } else { "s" }
        );
        Ok(())
    } else {
        Err(CliError::CacheCorrupt {
            dir: dir.to_string(),
            issues: report.issue_count(),
        })
    }
}
