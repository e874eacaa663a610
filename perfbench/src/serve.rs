//! The two daemon workloads, both a closed loop of one client sending
//! one request line per `Server::process_batch` call to a server with
//! one worker:
//!
//! * `serve-cold`: every (loop × machine × mode) request of the suite
//!   once, in stratified seeded order, so every request is a cache miss;
//! * `serve-hot`: persistence on, requests over a working set four times
//!   the result cache's entry bound: a hot set that fits in the cache, and
//!   one request in `HOT_MISS_PERIOD` walking the rest, so that request
//!   misses, compiles, evicts and appends to the journal.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cvliw_ir::print_loop;
use cvliw_replicate::{
    compile_stats_ctx, loop_fingerprint, CompileContext, CompileOptions, LoopStats, Mode,
};
use cvliw_serve::testutil::{escape, request_line, TINY_LOOP};
use cvliw_serve::{PersistConfig, ServeStats, Server, ServerConfig, SharedState};

use crate::checks::oneshot_body;
use crate::common::{
    bench_dir, gen_metrics, median, peak_rss_mb, stratified_order, Blocks, Histogram, HostTimes,
    Inputs, Report, Rng, SetupTimer, Tracer, WorkCounts,
};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Hot,
}

/// Size classes of the request order (see `stratified_order`); also the
/// requests per serve-cold throughput block.
const STRATA: usize = 200;
/// The serve-hot mix is synthetic: the repository has no model of real
/// client traffic. Its two parameters follow from what the workload must
/// show. The hot set is half the cache's entry bound, requested uniformly,
/// so it always stays cached beside the recent misses. One request in
/// every `HOT_MISS_PERIOD`, at a seeded position, walks the rest of the
/// working set in order and misses. Misses are then 2% of requests, twice
/// the 1% beyond the p99, so `latency_p99_ms` reads the median miss
/// (compile, eviction, journal append) rather than a hit.
const HOT_MISS_PERIOD: usize = 50;
/// Requests per serve-hot throughput block (a hundred misses each).
const HOT_BLOCK: usize = 100 * HOT_MISS_PERIOD;
/// Timed requests every serve-hot run completes, whatever `--seconds`
/// says. A serve-cold run always completes one full pass.
const HOT_MIN_REQUESTS: usize = 100_000;
/// Misses timed three ways in a traced run (cold-gap attribution).
const ATTRIBUTION_SAMPLE: usize = 1000;

/// The daemon's configuration: defaults throughout (one worker, the
/// default cache bound, context pool and snapshot cadence).
fn config() -> ServerConfig {
    ServerConfig::default()
}

/// Request rendering: each loop printed once (`print_loop`, what a real
/// client pipes in) and JSON-escaped once.
pub struct Traffic {
    texts: Vec<String>,
    escaped: Vec<String>,
}

impl Traffic {
    pub fn new(inputs: &Inputs) -> Traffic {
        let texts: Vec<String> = (0..inputs.loops.len())
            .map(|g| {
                let l = inputs.workload_loop(g);
                print_loop(&l.name, &l.ddg)
            })
            .collect();
        let escaped = texts.iter().map(|t| escape(t)).collect();
        Traffic { texts, escaped }
    }

    fn line(&self, inputs: &Inputs, key: usize, id: u64, buf: &mut String) {
        let (u, mode) = inputs.key(key);
        let (m, g) = inputs.unit(u);
        buf.clear();
        let _ = write!(
            buf,
            "{{\"id\": {id}, \"loop\": \"{}\", \"machine\": \"{}\", \"mode\": \"{}\", \"seeds\": 1}}",
            self.escaped[g],
            inputs.specs[m],
            mode.name()
        );
    }
}

/// The request stream: every key once in stratified order (cold), or
/// uniform draws over the hot set with one miss per period (hot).
enum Stream {
    Cold {
        order: Vec<usize>,
    },
    Hot {
        /// The working set: the hot set, then the walked rest.
        set: Vec<usize>,
        hot: usize,
        /// Next position of the walk through `set[hot..]`.
        walk: usize,
        /// Position of the miss in the current period.
        slot: usize,
        rng: Rng,
    },
}

impl Stream {
    fn new(kind: Kind, inputs: &Inputs, seed: u64) -> Stream {
        let mut rng = Rng::new(seed);
        let sizes = inputs.unit_sizes();
        let modes = Mode::ALL.len();
        match kind {
            Kind::Cold => {
                let key_sizes: Vec<usize> = (0..inputs.keys()).map(|k| sizes[k / modes]).collect();
                Stream::Cold {
                    order: stratified_order(&key_sizes, STRATA, &mut rng),
                }
            }
            Kind::Hot => {
                // One mode per (machine, loop) unit, rotated across each
                // loop's six machines: every loop is in the working set
                // under every mode, and the set is the same for every seed
                // (so are its `gen_*`). The seed orders it: its stratified
                // prefix, with the size mix of the whole, is the hot set.
                let set: Vec<usize> = stratified_order(&sizes, STRATA, &mut rng)
                    .into_iter()
                    .map(|u| {
                        let (m, g) = inputs.unit(u);
                        u * modes + (g + m) % modes
                    })
                    .collect();
                let hot = (config().cache_entries / 2).clamp(1, set.len() - 1);
                Stream::Hot {
                    set,
                    hot,
                    walk: 0,
                    slot: 0,
                    rng,
                }
            }
        }
    }

    /// Key of request `i` (requests are drawn in order).
    fn key(&mut self, i: usize) -> usize {
        match self {
            Stream::Cold { order } => order[i % order.len()],
            Stream::Hot {
                set,
                hot,
                walk,
                slot,
                rng,
            } => {
                if i.is_multiple_of(HOT_MISS_PERIOD) {
                    *slot = rng.below(HOT_MISS_PERIOD);
                }
                if i % HOT_MISS_PERIOD == *slot {
                    let key = set[*hot + *walk];
                    *walk = (*walk + 1) % (set.len() - *hot);
                    key
                } else {
                    set[rng.below(*hot)]
                }
            }
        }
    }

    /// Whether a throughput block ends before request `i`: blocks of
    /// `STRATA` requests hold one request of every size class (cold);
    /// blocks of `HOT_BLOCK` requests hold the same number of misses (hot).
    fn block_ends(&self, i: usize) -> bool {
        i > 0
            && match self {
                Stream::Cold { order } => (i % order.len()).is_multiple_of(STRATA),
                Stream::Hot { .. } => i.is_multiple_of(HOT_BLOCK),
            }
    }

    /// Whether request `i` starts a new pass of a cold stream (served by
    /// a fresh server, so it misses again).
    fn wraps(&self, i: usize) -> bool {
        matches!(self, Stream::Cold { order } if i > 0 && i.is_multiple_of(order.len()))
    }
}

pub struct ServeRun {
    kind: Kind,
    /// Set-up repetitions (see `SetupTimer`), their server start (cold)
    /// or cache recovery (hot) part and their generation part.
    setup: SetupTimer,
    server_s: Vec<f64>,
    gen_s: Vec<f64>,
    /// Wall time per request of the timed region.
    latency: Histogram,
    /// Requests per wall second of each block (see `Stream::block_ends`).
    blocks: Blocks,
    /// Wall time of the timed region, seconds, and what the host took.
    region_s: f64,
    host: String,
    /// `VmHWM` at the end of the timed region, before the output checks.
    peak_rss_mb: f64,
    /// First body served per key (hot: the pre-pass serves every key of
    /// the working set).
    bodies: Vec<Option<Box<str>>>,
    /// Timed requests per key.
    counts: Vec<u32>,
    repeat_mismatches: u64,
    error_bodies: u64,
    stats: ServeStats,
    // Traced runs only.
    hit_wall: Histogram,
    miss_wall: Histogram,
    /// `(key, wall seconds)` of every miss.
    misses: Vec<(u32, f64)>,
    loaded_entries: usize,
    journal_growth: u64,
    journal_appends: u64,
    snapshots: u64,
}

impl ServeRun {
    /// Median requests per wall second of a block.
    pub fn throughput(&self) -> f64 {
        self.blocks.median_rate()
    }

    /// Keeps the first body served for `key`; every later one must equal it.
    fn file_body(&mut self, key: usize, body: &str) {
        if body.starts_with("\"error\"") {
            self.error_bodies += 1;
        }
        match &self.bodies[key] {
            Some(first) => self.repeat_mismatches += u64::from(**first != *body),
            None => self.bodies[key] = Some(body.into()),
        }
    }
}

/// A response line without its `{"id":<id>,` prefix and closing brace.
fn body_of(response: &str) -> &str {
    let rest = response.strip_prefix("{\"id\":").unwrap_or(response);
    let rest = rest.split_once(',').map_or(rest, |(_, b)| b);
    rest.trim_end().strip_suffix('}').unwrap_or(rest)
}

/// Field-wise `b - a` of two counter snapshots, added to `acc`.
fn accumulate(acc: &mut ServeStats, a: ServeStats, b: ServeStats) {
    acc.requests += b.requests - a.requests;
    acc.hits += b.hits - a.hits;
    acc.misses += b.misses - a.misses;
    acc.coalesced += b.coalesced - a.coalesced;
    acc.compiles += b.compiles - a.compiles;
    acc.evictions += b.evictions - a.evictions;
    acc.errors += b.errors - a.errors;
    acc.shed += b.shed - a.shed;
    acc.panics += b.panics - a.panics;
    acc.deadlines += b.deadlines - a.deadlines;
}

/// A started server that has answered its first request on every machine.
fn start_server(inputs: &Inputs) -> Server {
    let mut server = Server::new(config());
    let lines: Vec<String> = inputs
        .specs
        .iter()
        .enumerate()
        .map(|(i, spec)| request_line(u64::MAX - i as u64, TINY_LOOP, spec, "baseline", 1))
        .collect();
    let mut out = String::new();
    server.process_batch(&lines, &mut out);
    server
}

fn journal_len(dir: &Path) -> u64 {
    std::fs::metadata(dir.join("journal.bin")).map_or(0, |m| m.len())
}

/// The server the timed region talks to. The hot pre-pass serves the
/// whole working set once, the walked rest in walk order and then the hot
/// set (so the cache ends up holding the hot set and the end of the
/// walk), and persists it in `dirs.setup`. The live server recovers a
/// copy of it in `dirs.live`, so that set-up repetitions can recover the
/// same files while the live server appends to its own.
fn pre_pass(
    run: &mut ServeRun,
    stream: &Stream,
    inputs: &Inputs,
    traffic: &Traffic,
    dirs: &Dirs,
) -> std::io::Result<Server> {
    let Stream::Hot { set, hot, .. } = stream else {
        return Ok(start_server(inputs));
    };
    let _ = std::fs::remove_dir_all(&dirs.base);
    {
        let (shared, _) =
            SharedState::with_persistence(&config(), &PersistConfig::new(dirs.setup.clone()))?;
        let mut server = Server::with_shared(config(), shared.clone());
        let (mut line, mut out) = (String::new(), String::new());
        for (id, &key) in set[*hot..].iter().chain(&set[..*hot]).enumerate() {
            traffic.line(inputs, key, id as u64, &mut line);
            out.clear();
            server.process_batch(std::slice::from_ref(&line), &mut out);
            run.file_body(key, body_of(&out));
        }
        if let Some(done) = shared.snapshot_now() {
            done?;
        }
    }
    std::fs::create_dir_all(&dirs.live)?;
    for entry in std::fs::read_dir(&dirs.setup)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dirs.live.join(entry.file_name()))?;
    }
    let (shared, _) =
        SharedState::with_persistence(&config(), &PersistConfig::new(dirs.live.clone()))?;
    Ok(Server::with_shared(config(), shared))
}

/// One set-up repetition: what a fresh client and daemon pay before the
/// first request. Generate the suite, render the request lines, then start
/// a server (cold) or recover the persisted cache (hot). The run uses its
/// own copy of the inputs, made once before, and the server `pre_pass`
/// made.
fn set_up_once(run: &mut ServeRun, dirs: &Dirs) -> std::io::Result<()> {
    let t0 = Instant::now();
    let (fresh, generate_s) = Inputs::generate(0);
    std::hint::black_box(Traffic::new(&fresh));
    let t1 = Instant::now();
    let server = match run.kind {
        Kind::Cold => start_server(&fresh),
        Kind::Hot => {
            let pcfg = PersistConfig::new(dirs.setup.clone());
            let (shared, load) = SharedState::with_persistence(&config(), &pcfg)?;
            run.loaded_entries = load.loaded;
            Server::with_shared(config(), shared)
        }
    };
    let t2 = Instant::now();
    run.setup.samples.push((t2 - t0).as_secs_f64());
    run.server_s.push((t2 - t1).as_secs_f64());
    run.gen_s.push(generate_s);
    drop(server);
    Ok(())
}

/// The serve-hot cache directories, under `out/`.
struct Dirs {
    base: PathBuf,
    /// Recovered by every set-up repetition, written only by the pre-pass.
    setup: PathBuf,
    /// The live server's.
    live: PathBuf,
}

/// Runs one serve workload for `seconds` of wall time (and at least its
/// minimum request count). The hot workload's cache directory, under
/// `out/`, is removed before returning.
pub fn run(
    kind: Kind,
    inputs: &Inputs,
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> std::io::Result<ServeRun> {
    let mut stream = Stream::new(kind, inputs, seed);
    let mut run = ServeRun {
        kind,
        setup: SetupTimer::new(seconds),
        server_s: Vec::new(),
        gen_s: Vec::new(),
        latency: Histogram::new(),
        blocks: Blocks::new(),
        region_s: 0.0,
        host: String::new(),
        peak_rss_mb: 0.0,
        bodies: vec![None; inputs.keys()],
        counts: vec![0; inputs.keys()],
        repeat_mismatches: 0,
        error_bodies: 0,
        stats: ServeStats::default(),
        hit_wall: Histogram::new(),
        miss_wall: Histogram::new(),
        misses: Vec::new(),
        loaded_entries: 0,
        journal_growth: 0,
        journal_appends: 0,
        snapshots: 0,
    };
    let base = bench_dir()
        .join("out")
        .join(format!("hot-cache-{}-{seed}", std::process::id()));
    let dirs = Dirs {
        setup: base.join("setup"),
        live: base.join("live"),
        base,
    };
    let mut server = pre_pass(&mut run, &stream, inputs, traffic, &dirs)?;
    set_up_once(&mut run, &dirs)?;

    let min_requests = match kind {
        Kind::Cold => inputs.keys(),
        Kind::Hot => HOT_MIN_REQUESTS,
    };
    let budget = Duration::from_secs_f64(seconds);
    let (mut line, mut out) = (String::new(), String::new());
    let mut stats_at_start = server.stats();
    let mut journal = journal_len(&dirs.live);
    let mut excluded = Duration::ZERO;
    let host = HostTimes::now();
    let started = Instant::now();
    run.blocks.restart(started);
    let mut i = 0usize;
    while i < min_requests || started.elapsed() - excluded < budget {
        if stream.block_ends(i) {
            let now = Instant::now();
            run.blocks.close(now);
            if run.setup.due((now - started - excluded).as_secs_f64()) {
                set_up_once(&mut run, &dirs)?;
                let resumed = Instant::now();
                excluded += resumed - now;
                run.blocks.restart(resumed);
            }
        }
        if stream.wraps(i) {
            // A cold stream ran out of unique requests: a fresh server
            // (untimed) makes the next pass miss again.
            let t0 = Instant::now();
            accumulate(&mut run.stats, stats_at_start, server.stats());
            server = start_server(inputs);
            stats_at_start = server.stats();
            let t1 = Instant::now();
            excluded += t1 - t0;
            run.blocks.restart(t1);
        }
        let key = stream.key(i);
        traffic.line(inputs, key, i as u64, &mut line);
        out.clear();
        let hits_before = tracer.on.then(|| server.stats().hits);
        let t0 = Instant::now();
        server.process_batch(std::slice::from_ref(&line), &mut out);
        let t1 = Instant::now();
        let wall = (t1 - t0).as_secs_f64();
        run.latency.record(wall);
        run.blocks.add(1);
        run.counts[key] += 1;
        if let Some(hits_before) = hits_before {
            tracer.record("process_batch", t0, t1, None, i as u64);
            if server.stats().hits > hits_before {
                run.hit_wall.record(wall);
            } else {
                run.miss_wall.record(wall);
                run.misses.push((key as u32, wall));
                if kind == Kind::Hot {
                    let now = journal_len(&dirs.live);
                    if now >= journal {
                        run.journal_growth += now - journal;
                        run.journal_appends += 1;
                    } else {
                        run.snapshots += 1;
                    }
                    journal = now;
                }
            }
        }
        run.file_body(key, body_of(&out));
        i += 1;
    }
    run.region_s = (started.elapsed() - excluded).as_secs_f64();
    run.host = HostTimes::since(host, run.region_s, run.latency.count());
    accumulate(&mut run.stats, stats_at_start, server.stats());
    run.peak_rss_mb = peak_rss_mb();
    drop(server);
    if kind == Kind::Hot {
        std::fs::remove_dir_all(&dirs.base)?;
    }
    Ok(run)
}

/// End-to-end metrics and output checks of a serve run; returns the
/// simulation check's `[loops verified, mismatches]` and, per key, the
/// one-shot stats of every request served whose body matched them.
pub fn report(
    inputs: &Inputs,
    traffic: &Traffic,
    seed: u64,
    run: &ServeRun,
    r: &mut Report,
) -> ([u64; 2], Vec<Option<LoopStats>>) {
    let requests = run.latency.count();
    r.attempted += requests;
    if run.error_bodies > 0 {
        r.fail(
            run.error_bodies,
            format!("{} error responses", run.error_bodies),
        );
    }
    if run.repeat_mismatches > 0 {
        r.fail(
            run.repeat_mismatches,
            format!(
                "{} responses differ from the first answer to the same request",
                run.repeat_mismatches
            ),
        );
    }
    let s = run.stats;
    if s.shed + s.panics + s.deadlines > 0 {
        r.problems.push(format!("fault paths tripped: {s:?}"));
    }

    // Every distinct request served (all keys for cold, one full pass;
    // the whole working set for hot, served once by the pre-pass) equals
    // its one-shot rendering. Checked on two threads: the oracle
    // recompiles every key.
    let served: Vec<usize> = (0..run.bodies.len())
        .filter(|&k| run.bodies[k].is_some())
        .collect();
    let checked: Vec<(usize, Result<LoopStats, String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .chunks(served.len().div_ceil(2).max(1))
            .map(|chunk| scope.spawn(move || oneshot_check(inputs, traffic, run, chunk)))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("one-shot check thread panicked"))
            .collect()
    });
    let mut stats = vec![None; inputs.keys()];
    for (key, outcome) in checked {
        match outcome {
            Ok(s) => stats[key] = Some(s),
            Err(what) => r.fail(u64::from(run.counts[key]).max(1), what),
        }
    }
    let sim = crate::checks::simulate_sample(inputs, seed, true, r, &|key, stats| {
        run.bodies[key].as_deref().is_none_or(|body| {
            let mut expected = String::new();
            cvliw_serve::render_ok_body(stats, &mut expected);
            expected == body
        })
    });

    r.metric("setup_s", median(&run.setup.samples), "s");
    r.metric("throughput_per_s", run.throughput(), "1/s");
    r.latencies(&run.latency);
    r.ok_share();
    r.metric("peak_rss_mb", run.peak_rss_mb, "MiB");
    gen_metrics(inputs, &stats, r);
    r.note(format!(
        "{}: {requests} requests (latency n = {requests}) in {:.3} wall s ({:.1} req/s over the \
         region, median of {} blocks {:.1}); {} hits, {} misses ({:.2}%), {} evictions; {} \
         distinct requests checked against one-shot compiles; setup n = {}, of which the server \
         start or recovery {:.3} ms (median)",
        match run.kind {
            Kind::Cold => "serve-cold",
            Kind::Hot => "serve-hot",
        },
        run.region_s,
        requests as f64 / run.region_s,
        run.blocks.count(),
        run.throughput(),
        s.hits,
        s.misses,
        s.misses as f64 / s.requests.max(1) as f64 * 100.0,
        s.evictions,
        served.len(),
        run.setup.samples.len(),
        median(&run.server_s) * 1e3
    ));
    r.note(format!("{}; {}", run.host, run.blocks.spread()));
    (sim, stats)
}

/// The one-shot stats of each of `keys` whose served body equals the
/// one-shot render, or what went wrong.
fn oneshot_check(
    inputs: &Inputs,
    traffic: &Traffic,
    run: &ServeRun,
    keys: &[usize],
) -> Vec<(usize, Result<LoopStats, String>)> {
    keys.iter()
        .map(|&key| {
            let (u, mode) = inputs.key(key);
            let (m, g) = inputs.unit(u);
            let served = run.bodies[key].as_deref().unwrap_or_default();
            let what = format!(
                "{} on {} ({})",
                inputs.workload_loop(g).name,
                inputs.specs[m],
                mode.name()
            );
            let outcome = match oneshot_body(&traffic.texts[g], &inputs.machines[m], mode) {
                Ok((expected, Some(stats))) if expected == served => Ok(stats),
                Ok((_, None)) => Err(format!("{what}: the one-shot compile failed")),
                Ok(_) => Err(format!(
                    "{what}: served body differs from the one-shot render"
                )),
                Err(e) => Err(format!("{what}: one-shot parse failed: {e}")),
            };
            (key, outcome)
        })
        .collect()
}

/// Per-layer metrics of a traced serve run, including the cold-gap
/// attribution: a seeded sample of misses re-timed as a compile on a
/// fresh `CompileContext::new` and on a context already used by another
/// mode.
pub fn layers(
    inputs: &Inputs,
    traffic: &Traffic,
    seed: u64,
    run: &ServeRun,
    stats: &[Option<LoopStats>],
    r: &mut Report,
) {
    let mut sample: Vec<usize> = (0..run.misses.len()).collect();
    Rng::new(seed ^ 0xa77).shuffle(&mut sample);
    sample.truncate(ATTRIBUTION_SAMPLE);
    sample.sort_unstable();
    let mut parse_s = Vec::new();
    let mut build_s = Vec::new();
    let mut fresh_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut sample_miss_s = Vec::new();
    let mut compile = Histogram::new();
    let mut stage_ns = [0u64; 4];
    let mut core_s = 0.0;
    for &i in &sample {
        let (key, miss_s) = run.misses[i];
        let (u, mode) = inputs.key(key as usize);
        let (m, g) = inputs.unit(u);
        let machine = &inputs.machines[m];
        let t0 = Instant::now();
        let parsed = cvliw_ir::parse_loop(&traffic.texts[g]);
        parse_s.push(t0.elapsed().as_secs_f64());
        let Ok(named) = parsed else { continue };
        let ddg = named.ddg;
        let opts = CompileOptions { mode, max_ii: None };

        let t0 = Instant::now();
        let ctx = CompileContext::new(&ddg, machine);
        let t1 = Instant::now();
        let _ = std::hint::black_box(compile_stats_ctx(&ddg, machine, &opts, &ctx));
        let t2 = Instant::now();
        build_s.push((t1 - t0).as_secs_f64());
        compile.record((t2 - t1).as_secs_f64());
        fresh_s.push((t2 - t0).as_secs_f64());
        core_s += (t2 - t0).as_secs_f64();
        for (total, s) in stage_ns.iter_mut().zip(ctx.stage_nanos()) {
            *total += s;
        }
        sample_miss_s.push(miss_s);

        let other = Mode::ALL[(mode.index() as usize + 1) % Mode::ALL.len()];
        let warm = CompileContext::new(&ddg, machine);
        let other_opts = CompileOptions {
            mode: other,
            max_ii: None,
        };
        let _ = std::hint::black_box(compile_stats_ctx(&ddg, machine, &other_opts, &warm));
        let t0 = Instant::now();
        let _ = std::hint::black_box(compile_stats_ctx(&ddg, machine, &opts, &warm));
        warm_s.push(t0.elapsed().as_secs_f64());
    }

    r.metric("workloads.generate_ms", median(&run.gen_s) * 1e3, "ms");
    r.metric("ir.parse_us", median(&parse_s) * 1e6, "us");
    r.metric("sched.context_build_us", median(&build_s) * 1e6, "us");
    r.metric(
        "sched.context_builds_per_compile",
        replay_context_pool(inputs, run),
        "count",
    );
    crate::stage_metrics(r, stage_ns, core_s, &compile);
    r.metric("core.fresh_ctx_compile_us", median(&fresh_s) * 1e6, "us");
    r.metric("core.warm_ctx_compile_us", median(&warm_s) * 1e6, "us");

    let mut work = WorkCounts::default();
    for &(key, _) in &run.misses {
        if let Some(s) = &stats[key as usize] {
            work.add_stats(s);
        }
    }
    work.emit(r);

    r.metric("serve.hit_us.p50", run.hit_wall.percentile(0.5) * 1e6, "us");
    r.metric(
        "serve.hit_us.p99",
        run.hit_wall.percentile(0.99) * 1e6,
        "us",
    );
    r.metric(
        "serve.miss_us.p50",
        run.miss_wall.percentile(0.5) * 1e6,
        "us",
    );
    r.metric(
        "serve.miss_us.p99",
        run.miss_wall.percentile(0.99) * 1e6,
        "us",
    );
    let s = run.stats;
    r.metric(
        "serve.hit_share",
        s.hits as f64 / s.requests.max(1) as f64,
        "share",
    );
    r.metric("serve.evictions", s.evictions as f64, "count");
    r.metric("serve.coalesced", s.coalesced as f64, "count");
    r.metric("serve.errors", s.errors as f64, "count");
    r.metric("serve.shed", s.shed as f64, "count");
    r.metric(
        "serve.miss_overhead_us",
        (median(&sample_miss_s) - median(&fresh_s)) * 1e6,
        "us",
    );
    let hot = run.kind == Kind::Hot;
    r.metric(
        "serve.persist.load_ms",
        if hot {
            median(&run.server_s) * 1e3
        } else {
            0.0
        },
        "ms",
    );
    r.metric(
        "serve.persist.loaded_entries",
        run.loaded_entries as f64,
        "count",
    );
    r.metric(
        "serve.persist.journal_bytes_per_insert",
        run.journal_growth as f64 / run.journal_appends.max(1) as f64,
        "B",
    );
    r.metric("serve.persist.snapshots", run.snapshots as f64, "count");
    r.note(format!(
        "attribution: {} misses re-timed (of {}); hits n = {}, misses n = {}",
        sample.len(),
        run.misses.len(),
        run.hit_wall.count(),
        run.miss_wall.count()
    ));
}

/// Context builds per compile the server's worker performs on this miss
/// stream: a replay of its context pool (keyed by loop fingerprint and
/// machine, least recently used evicted beyond the configured bound).
/// The pool is internal to the server, so this count is derived from the
/// observed miss stream, not observed directly.
fn replay_context_pool(inputs: &Inputs, run: &ServeRun) -> f64 {
    let fps: Vec<u64> = (0..inputs.loops.len())
        .map(|g| loop_fingerprint(&inputs.workload_loop(g).ddg))
        .collect();
    let cap = config().contexts_per_worker.max(1);
    let mut pool: Vec<((u64, usize), usize)> = Vec::with_capacity(cap);
    let mut builds = 0u64;
    for (t, &(key, _)) in run.misses.iter().enumerate() {
        let (m, g) = inputs.unit(inputs.key(key as usize).0);
        let k = (fps[g], m);
        if let Some(entry) = pool.iter_mut().find(|(seen, _)| *seen == k) {
            entry.1 = t;
            continue;
        }
        builds += 1;
        if pool.len() >= cap {
            let victim = (0..pool.len()).min_by_key(|&j| pool[j].1).unwrap_or(0);
            pool.swap_remove(victim);
        }
        pool.push((k, t));
    }
    builds as f64 / run.misses.len().max(1) as f64
}
