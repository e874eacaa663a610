//! Pieces every workload shares: the seeded inputs, a deterministic RNG,
//! order statistics, the span recorder and the result a run reports.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use cvliw_exp::{CellResult, CellSpec};
use cvliw_machine::MachineConfig;
use cvliw_replicate::{LoopStats, Mode};
use cvliw_workloads::{BenchmarkProgram, WorkloadLoop};

/// The benchmark package's own directory (span files and scratch caches
/// go under `out/` here, inside the checkout).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// Host-side counters read at the edges of a timed region. Every
/// reported time is wall-clock time, what a user waits for; these say how
/// much of a region the machine itself took away, so a slow run can be
/// told apart from a slow program.
#[derive(Clone, Copy, Default)]
pub struct HostTimes {
    /// CPU time of this process, every thread (`/proc/self/stat`).
    pub cpu_s: f64,
    /// Time the hypervisor ran other guests on this machine's CPUs,
    /// summed over CPUs (the `steal` column of `/proc/stat`).
    pub steal_s: f64,
}

impl HostTimes {
    /// Reads both counters; 0 where `/proc` is unavailable. Both count in
    /// clock ticks of 10 ms.
    pub fn now() -> HostTimes {
        const TICK_S: f64 = 0.01;
        let ticks = |text: Option<String>, fields: &[usize]| -> f64 {
            text.map_or(0, |t| {
                let words: Vec<&str> = t.split_whitespace().collect();
                fields
                    .iter()
                    .filter_map(|&i| words.get(i)?.parse::<u64>().ok())
                    .sum()
            }) as f64
                * TICK_S
        };
        let stat = std::fs::read_to_string("/proc/self/stat").ok();
        // The command name may hold spaces; the fields after it start at
        // state, so utime and stime are the 12th and 13th from there.
        let after_comm = stat.and_then(|s| s.rsplit_once(')').map(|(_, rest)| rest.to_string()));
        let host = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| s.lines().next().map(str::to_string));
        HostTimes {
            cpu_s: ticks(after_comm, &[11, 12]),
            steal_s: ticks(host, &[8]),
        }
    }

    /// The counters' growth since `start`, as a note for the report.
    pub fn since(start: HostTimes, wall_s: f64, ops: u64) -> String {
        let now = HostTimes::now();
        let cpu = now.cpu_s - start.cpu_s;
        let steal = now.steal_s - start.steal_s;
        format!(
            "host: {cpu:.2} process CPU s ({:.1} ops per CPU s) and {steal:.2} s stolen by the \
             hypervisor ({:.1}% of the wall time of all CPUs) in {wall_s:.3} wall s",
            ops as f64 / cpu.max(f64::MIN_POSITIVE),
            steal / (wall_s * cpus() as f64).max(f64::MIN_POSITIVE) * 100.0,
        )
    }
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Wall-clock rates of consecutive blocks of operations. Throughput is
/// their median: the rate the program sustains in a typical block, which
/// a stall of a few blocks (the machine taken away, a burst of other
/// tenants' work) does not move. The whole region's mean rate is printed
/// beside it.
pub struct Blocks {
    started: Instant,
    ops: u64,
    rates: Vec<f64>,
}

impl Blocks {
    pub fn new() -> Blocks {
        Blocks {
            started: Instant::now(),
            ops: 0,
            rates: Vec::new(),
        }
    }

    /// Counts `n` finished operations of the open block.
    pub fn add(&mut self, n: u64) {
        self.ops += n;
    }

    /// Closes the open block at `now` and opens the next.
    pub fn close(&mut self, now: Instant) {
        let secs = (now - self.started).as_secs_f64();
        if self.ops > 0 && secs > 0.0 {
            self.rates.push(self.ops as f64 / secs);
        }
        self.restart(now);
    }

    /// Drops the open block (time spent outside the workload) and opens
    /// the next at `now`.
    pub fn restart(&mut self, now: Instant) {
        self.started = now;
        self.ops = 0;
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Median block rate, operations per wall second.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates)
    }

    /// The 10th, 50th and 90th percentile block rates, for the report.
    pub fn spread(&self) -> String {
        let r = sorted(self.rates.clone());
        format!(
            "block rates p10 {:.1}, p50 {:.1}, p90 {:.1}",
            percentile(&r, 0.1),
            percentile(&r, 0.5),
            percentile(&r, 0.9)
        )
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// When a run repeats its set-up: once before the timed region, then at
/// each further fifteenth of the time budget, between two blocks, with
/// the repetition's time left out of the region. Each repetition does
/// all of the set-up again and throws the result away. On a shared
/// 2-vCPU virtual machine the host's speed drifts over tens of seconds: a
/// set-up repeated only before the region read 26% apart between the
/// medians of two sets of ten runs, while spread over the run it drifts
/// with the other timings.
pub struct SetupTimer {
    every_s: f64,
    /// Wall seconds of each repetition.
    pub samples: Vec<f64>,
}

impl SetupTimer {
    pub fn new(budget_s: f64) -> SetupTimer {
        SetupTimer {
            every_s: budget_s / SETUP_REPS as f64,
            samples: Vec::with_capacity(SETUP_REPS),
        }
    }

    /// Whether the next repetition is due `region_s` into the region.
    pub fn due(&self, region_s: f64) -> bool {
        self.samples.len() < SETUP_REPS && region_s >= self.every_s * self.samples.len() as f64
    }
}

/// SplitMix64: small, seedable and stable across platforms and across
/// changes to the repository's vendored `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A seeded order of `0..sizes.len()` whose every prefix has about the
/// same size mix as the whole. Items are ranked by size (larger first,
/// ties in seeded order) and cut into `strata` size classes; block `b` of
/// the output takes the `b`-th item of every class, with the items of
/// each class and the order inside each block shuffled. Compile cost is heavy-tailed in loop size, so a plain
/// shuffle would let a time-limited prefix draw more or fewer of the few
/// giant loops from one seed to the next.
pub fn stratified_order(sizes: &[usize], strata: usize, rng: &mut Rng) -> Vec<usize> {
    let mut ranked: Vec<usize> = (0..sizes.len()).collect();
    rng.shuffle(&mut ranked);
    ranked.sort_by_key(|&i| std::cmp::Reverse(sizes[i]));
    let per_class = sizes.len().div_ceil(strata.clamp(1, sizes.len().max(1)));
    let mut classes: Vec<Vec<usize>> = ranked
        .chunks(per_class.max(1))
        .map(<[usize]>::to_vec)
        .collect();
    for class in &mut classes {
        rng.shuffle(class);
    }
    let mut out = Vec::with_capacity(sizes.len());
    for b in 0..per_class {
        let start = out.len();
        out.extend(classes.iter().filter_map(|c| c.get(b).copied()));
        rng.shuffle(&mut out[start..]);
    }
    out
}

/// The generated programs and the six paper machines. A *unit* is one
/// (machine, loop) pair; a *key* is a unit under one mode.
pub struct Inputs {
    pub programs: Vec<BenchmarkProgram>,
    pub specs: Vec<&'static str>,
    pub machines: Vec<MachineConfig>,
    /// Every loop of the suite as `(program index, loop index)`.
    pub loops: Vec<(usize, usize)>,
}

impl Inputs {
    /// Draws the suite for `salt` (0 is the committed 678-loop suite) and
    /// parses the paper machines; also returns the generation time alone.
    pub fn generate(salt: u64) -> (Inputs, f64) {
        let started = Instant::now();
        let programs = cvliw_workloads::suite_with_salt(salt, usize::MAX);
        let generate_s = started.elapsed().as_secs_f64();
        let specs = cvliw_machine::paper_specs().to_vec();
        let machines = specs
            .iter()
            .map(|s| MachineConfig::from_spec(s).expect("paper specs parse"))
            .collect();
        let loops = programs
            .iter()
            .enumerate()
            .flat_map(|(p, prog)| (0..prog.loops.len()).map(move |l| (p, l)))
            .collect();
        let inputs = Inputs {
            programs,
            specs,
            machines,
            loops,
        };
        (inputs, generate_s)
    }

    pub fn workload_loop(&self, g: usize) -> &WorkloadLoop {
        let (p, l) = self.loops[g];
        &self.programs[p].loops[l]
    }

    /// Loop size (operations) of every unit, for [`stratified_order`].
    pub fn unit_sizes(&self) -> Vec<usize> {
        (0..self.units())
            .map(|u| self.workload_loop(self.unit(u).1).ddg.node_count())
            .collect()
    }

    pub fn units(&self) -> usize {
        self.machines.len() * self.loops.len()
    }

    pub fn keys(&self) -> usize {
        self.units() * Mode::ALL.len()
    }

    /// `(machine, global loop)` of a unit.
    pub fn unit(&self, u: usize) -> (usize, usize) {
        (u / self.loops.len(), u % self.loops.len())
    }

    /// `(unit, mode)` of a key.
    pub fn key(&self, k: usize) -> (usize, Mode) {
        (k / Mode::ALL.len(), Mode::ALL[k % Mode::ALL.len()])
    }
}

/// `gen_cycles` and `gen_added_ops` of the compiles in `stats` (indexed
/// by key; `None` is skipped), folded the way the suite runner folds a
/// grid cell: `(N−1+SC)·II` cycles per original op, i.e. 1/IPC (Fig 7),
/// and net replicated instructions per original op (Fig 10).
pub fn gen_metrics(inputs: &Inputs, stats: &[Option<LoopStats>], r: &mut Report) {
    let mut total = CellResult::empty(&CellSpec {
        program: "all".into(),
        spec: "all".into(),
        mode: Mode::Baseline,
    });
    for (key, s) in stats.iter().enumerate() {
        if let Some(s) = s {
            total.add_loop(inputs.workload_loop(inputs.unit(inputs.key(key).0).1), s);
        }
    }
    r.metric(
        "gen_cycles",
        total.cycles as f64 / total.ops.max(1) as f64,
        "cycles/op",
    );
    r.metric("gen_added_ops", total.overhead(), "ops/op");
}

/// Work counts read from returned [`LoopStats`] (the `core.*` and
/// `partition.*` per-layer metrics).
#[derive(Default)]
pub struct WorkCounts {
    pub compiles: u64,
    pub ii_attempts: u64,
    pub at_mii: u64,
    /// `[bus, recurrence, registers, resources]` II bumps.
    pub causes: [u64; 4],
    pub partition_coms: u64,
    pub final_coms: u64,
    pub net_added: u64,
}

impl WorkCounts {
    pub fn add_stats(&mut self, s: &LoopStats) {
        let c = &s.causes;
        self.compiles += 1;
        self.ii_attempts += u64::from(s.ii.saturating_sub(s.mii)) + 1;
        self.at_mii += u64::from(s.ii == s.mii);
        for (total, c) in
            self.causes
                .iter_mut()
                .zip([c.bus, c.recurrence, c.registers, c.resources])
        {
            *total += u64::from(c);
        }
        self.partition_coms += u64::from(s.partition_coms);
        self.final_coms += u64::from(s.final_coms);
        self.net_added += u64::from(s.net_added());
    }

    pub fn emit(&self, r: &mut Report) {
        let n = self.compiles.max(1) as f64;
        r.metric(
            "core.ii_attempts_per_compile",
            self.ii_attempts as f64 / n,
            "count",
        );
        r.metric("core.ii_at_mii_share", self.at_mii as f64 / n, "share");
        for (name, c) in ["bus", "recurrence", "registers", "resources"]
            .iter()
            .zip(self.causes)
        {
            r.metric(&format!("core.cause.{name}"), c as f64 / n, "count");
        }
        let removed = if self.partition_coms == 0 {
            0.0
        } else {
            1.0 - self.final_coms as f64 / self.partition_coms as f64
        };
        r.metric("core.coms_removed_share", removed, "share");
        r.metric(
            "core.net_added_per_compile",
            self.net_added as f64 / n,
            "count",
        );
        r.metric(
            "partition.coms_per_compile",
            self.partition_coms as f64 / n,
            "count",
        );
    }
}

/// Sub-bucket bits of [`Histogram`]: 1024 buckets per power of two.
const SUB_BITS: u32 = 10;

/// Log-linear histogram of durations (nanosecond resolution below 1 µs,
/// 1/1024 relative above): fixed memory whatever the run length, so
/// `peak_rss_mb` does not grow with the number of requests timed.
pub struct Histogram {
    counts: Vec<u32>,
    n: u64,
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
            n: 0,
        }
    }

    pub fn record(&mut self, secs: f64) {
        let ns = (secs.max(0.0) * 1e9).round() as u64;
        let index = if ns < 1 << SUB_BITS {
            ns as usize
        } else {
            let shift = 63 - ns.leading_zeros() - SUB_BITS;
            (((shift + 1) << SUB_BITS) as usize) + ((ns >> shift) as usize & ((1 << SUB_BITS) - 1))
        };
        self.counts[index] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile (`q` in `[0, 1]`), in seconds, at the
    /// middle of its bucket; 0 when empty.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut seen = 0u64;
        for (index, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                let sub = 1usize << SUB_BITS;
                let ns = if index < sub {
                    index as f64
                } else {
                    let shift = (index / sub - 1) as u32;
                    let lower = ((sub + index % sub) as u64) << shift;
                    lower as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
                };
                return ns * 1e-9;
            }
        }
        unreachable!("the ranks sum to n")
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded call into the program: `[start, end)` in nanoseconds
/// since the run's epoch, the span that caused it (`None` for a root)
/// and the request (or compile unit) it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub req: u64,
}

/// In-memory span recorder. Disabled, it records nothing; the workloads
/// time their calls either way, so tracing adds only the pushes.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Spans kept per run; later ones are counted in `dropped` (the layer
/// metrics come from their own accumulators, not from the span file).
const MAX_SPANS: usize = 1 << 18;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Records a finished call; returns its id for children to name as
    /// parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        req: u64,
    ) -> Option<u32> {
        if !self.on {
            return None;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            req,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Sets the end of a span recorded before its children finished.
    pub fn close(&mut self, id: Option<u32>, end: Instant) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns =
                end.saturating_duration_since(self.epoch).as_nanos() as u64;
        }
    }

    /// Writes the spans as JSON lines: `id`, `name`, `req`, `parent`,
    /// `start_ns`, `end_ns`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one invocation prints: the checks' verdict, operation counts
/// and named metrics with units.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable context printed before the JSON line (sample
    /// counts, run shape).
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Records a failed output check. `ops` operations count as failed.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// `ok_share`: operations that succeeded and passed every check ÷
    /// operations attempted.
    pub fn ok_share(&mut self) {
        let ok = self.attempted - self.failed.min(self.attempted);
        self.metric(
            "ok_share",
            ok as f64 / self.attempted.max(1) as f64,
            "share",
        );
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    /// Emits `latency_p50_ms` and `latency_p99_ms`; a p99 needs at least
    /// ten samples beyond it.
    pub fn latencies(&mut self, h: &Histogram) {
        self.metric("latency_p50_ms", h.percentile(0.5) * 1e3, "ms");
        self.metric("latency_p99_ms", h.percentile(0.99) * 1e3, "ms");
        if h.count() < 1000 {
            self.problems
                .push(format!("{} latency samples, too few for a p99", h.count()));
        }
    }

    /// The final line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                o,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        o.push_str("}}");
        o
    }
}
