//! The daemon proper: admission, the persistent worker pool and the
//! batched request pump.
//!
//! A batch of request lines flows through four strictly ordered phases:
//!
//! 1. **Admission** (single-threaded, in line order): parse, intern the
//!    machine spec, fingerprint the loop (via a raw-text memo that lets a
//!    repeated request skip unescape *and* parse), then classify each
//!    line as a cache **hit**, a **coalesced** duplicate of a miss
//!    already admitted this batch, or a fresh **miss** routed to a
//!    worker by `fnv(key) % jobs` — unless the daemon-wide in-flight
//!    bound is reached, in which case the miss is **shed** with an
//!    `overloaded` error and a `retry_after` hint.
//! 2. **Compile fan-out**: each worker with jobs runs them on its own
//!    thread. A worker owns one [`CompileScratch`], the same policy as a
//!    suite lane: each job builds a fresh [`CompileContext`] over it,
//!    compiles, and takes the scratch back, so only allocations outlive
//!    a job. Workers never touch the cache. Every job runs under
//!    `catch_unwind`: a panicking compile renders a structured
//!    `compile_panic` response instead of killing the daemon, and the
//!    scratch it held unwinds with its context. When a deadline is
//!    configured the job arms its context's
//!    [`cvliw_replicate::CancelToken`], and a compile that blows the
//!    budget renders `deadline_exceeded`.
//! 3. **Cache insert** (single-threaded, in admission order): freshly
//!    rendered payloads — compile failures included — enter the LRU
//!    stamped with their request seq, so the cache state after a batch
//!    is independent of worker count and thread scheduling. Fault
//!    payloads (`compile_panic`, `deadline_exceeded`) are **never**
//!    cached: they reflect load or a bug, not the request, and a
//!    follow-up identical request must compile cleanly.
//! 4. **Emit** (in line order): every line gets exactly one response
//!    line, hits and misses rendered from the same cached bytes.
//!
//! The warm path (every line a hit) allocates nothing: slots, job queues
//! and the output string are reused across batches, payload clones are
//! `Arc` refcount bumps, counters are atomics, and the compile fan-out —
//! the only phase that spawns threads — is skipped entirely when no jobs
//! were admitted. The fault-tolerance plumbing is free when disarmed: no
//! deadline means no token is ever armed, and the shed gate is two
//! atomic operations per miss, none per hit.
//!
//! Cross-session state — the result cache, the spec interner, the seq
//! counter, the counters and the shed gate — lives in [`SharedState`];
//! a `Server` is one *session* over it. A single-session daemon behaves
//! bit-for-bit like the old single-owner design, which is what lets the
//! differential layer keep pinning byte identity.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::io::{self, BufRead, Write};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use cvliw_ddg::Ddg;
use cvliw_ir::parse_loop;
use cvliw_machine::MachineConfig;
use cvliw_replicate::{
    compile_stats_ctx, fnv1a_64, loop_fingerprint, CompileContext, CompileError, CompileOptions,
    CompileScratch, Mode,
};

use crate::cache::CacheKey;
#[cfg(feature = "fault-inject")]
use crate::fault::FaultPlan;
use crate::json;
use crate::protocol::{self, ErrorKind, Request, MAX_LINE_BYTES};
use crate::shared::SharedState;

/// Upper bound on lines drained into one batch by [`Server::run_jsonl`].
pub const MAX_BATCH: usize = 64;

/// Floor of the shed back-off hint, in milliseconds.
pub const RETRY_AFTER_BASE_MS: u64 = 10;

/// Added to the hint per observed in-flight compile, in milliseconds —
/// a deeper queue earns callers a longer pause.
pub const RETRY_AFTER_PER_INFLIGHT_MS: u64 = 5;

/// Ceiling of the shed back-off hint, in milliseconds.
pub const RETRY_AFTER_MAX_MS: u64 = 2000;

/// Raw-text memo entries per session (escaped loop source → fingerprint).
const TEXT_MEMO_ENTRIES: usize = 1024;

/// The back-off hint attached to `overloaded` responses: scales with
/// the in-flight compile depth observed at shed time, clamped to
/// [`RETRY_AFTER_MAX_MS`]. A pure function of the observed depth (no
/// wall clock), so the client backoff tests can pin the contract.
#[must_use]
pub fn retry_after_hint(inflight: u64) -> u64 {
    RETRY_AFTER_BASE_MS
        .saturating_add(RETRY_AFTER_PER_INFLIGHT_MS.saturating_mul(inflight))
        .min(RETRY_AFTER_MAX_MS)
}

/// Sizing knobs for a [`Server`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Result-cache entry bound.
    pub cache_entries: usize,
    /// Result-cache payload-byte bound.
    pub cache_bytes: usize,
    /// Has no effect: a worker keeps one [`CompileScratch`] and no
    /// [`CompileContext`] between jobs. It stays only because the
    /// benchmark reads it.
    pub contexts_per_worker: usize,
    /// Per-request compile budget in milliseconds; `None` disarms the
    /// deadline entirely (no token is ever armed).
    pub deadline_ms: Option<u64>,
    /// Daemon-wide bound on in-flight compile jobs; misses beyond it are
    /// shed with an `overloaded` error (clamped to at least 1).
    pub max_inflight: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            jobs: 1,
            cache_entries: 1024,
            cache_bytes: 64 << 20,
            contexts_per_worker: 64,
            deadline_ms: None,
            max_inflight: 256,
        }
    }
}

/// Lifetime accounting, all counters monotonic. Daemon-wide: sessions
/// sharing a [`SharedState`] report combined counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Request lines admitted (blank lines not counted).
    pub requests: u64,
    /// Lines answered from the result cache.
    pub hits: u64,
    /// Lines that required a compile (shed lines not counted).
    pub misses: u64,
    /// Lines that duplicated a miss admitted earlier in the same batch
    /// and shared its compile instead of running their own.
    pub coalesced: u64,
    /// Compiles executed by the pool (successes, failures, faults).
    pub compiles: u64,
    /// Result-cache evictions.
    pub evictions: u64,
    /// Responses that carried an `error` body.
    pub errors: u64,
    /// Misses shed at the in-flight bound (`overloaded` responses).
    pub shed: u64,
    /// Compile jobs that panicked and were contained (`compile_panic`).
    pub panics: u64,
    /// Compile jobs that blew the budget (`deadline_exceeded`).
    pub deadlines: u64,
}

impl fmt::Display for ServeStats {
    /// The one-line human summary the daemon prints to stderr at exit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve: {} requests, {} hits, {} misses ({} coalesced), {} compiles, {} evictions, \
             {} errors, {} shed, {} panics, {} deadline",
            self.requests,
            self.hits,
            self.misses,
            self.coalesced,
            self.compiles,
            self.evictions,
            self.errors,
            self.shed,
            self.panics,
            self.deadlines,
        )
    }
}

/// A clonable, thread-safe shutdown request. Hand one to
/// [`Server::run_jsonl_until`] (or the socket daemon) and
/// [`ShutdownFlag::request`] it from a signal handler watcher or another
/// thread: readers stop at the next line boundary, every admitted
/// request is still answered and flushed, and the stream ends with no
/// torn output line.
#[derive(Clone, Debug, Default)]
pub struct ShutdownFlag(Arc<AtomicBool>);

impl ShutdownFlag {
    /// A fresh, unrequested flag.
    #[must_use]
    pub fn new() -> Self {
        ShutdownFlag::default()
    }

    /// Requests shutdown (idempotent, sticky).
    pub fn request(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

struct TextEntry {
    escaped: Box<str>,
    fp: u64,
    stamp: u64,
}

/// What became of one compile job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobOutcome {
    /// Worker has not filled the job (unreachable once phase 2 ran).
    Pending,
    /// Compiled; payload is an `ok` body.
    Ok,
    /// Compiled to a structured compile error (cached like a success).
    CompileErr,
    /// An internal invariant failed; payload is an `internal` error.
    Internal,
    /// The worker panicked; payload is a `compile_panic` error.
    Panicked,
    /// The compile blew its budget; payload is `deadline_exceeded`.
    DeadlineExceeded,
}

impl JobOutcome {
    /// Fault payloads reflect load or a bug, never the request — only
    /// honest compile outcomes may enter the shared cache.
    fn cacheable(self) -> bool {
        matches!(self, JobOutcome::Ok | JobOutcome::CompileErr)
    }
}

struct Job {
    key: CacheKey,
    mode: Mode,
    ddg: Ddg,
    stamp: u64,
    payload: Option<Arc<str>>,
    outcome: JobOutcome,
}

enum Slot {
    /// Whitespace-only line: no response.
    Blank,
    /// Answered from cache.
    Hit { id: u64, payload: Arc<str> },
    /// Awaiting the payload computed by `worker_jobs[worker][idx]`.
    Job { id: u64, worker: u32, idx: u32 },
    /// Rejected before compilation.
    Reject { id: Option<u64>, kind: ErrorKind },
    /// Accounting request.
    Stats { id: u64 },
}

/// Everything a worker thread needs besides its scratch: the session's
/// spec mirror, the deadline and (under `fault-inject`) the fault plan.
struct WorkerEnv<'a> {
    machines: &'a HashMap<u32, MachineConfig>,
    deadline_ms: Option<u64>,
    #[cfg(feature = "fault-inject")]
    fault: &'a FaultPlan,
}

/// One session of the compile daemon. Feed it batches of JSONL request
/// lines (or a whole stream via [`Server::run_jsonl`]); session state —
/// worker scratch, the raw-text memo — lives here, daemon state — the
/// cache, the spec interner, counters — in the [`SharedState`] all
/// sessions of one daemon share.
pub struct Server {
    cfg: ServerConfig,
    shared: Arc<SharedState>,
    /// Session-local mirror of the shared spec table (id → config),
    /// lock-free on the warm path.
    machines: HashMap<u32, MachineConfig>,
    /// Session-local mirror: escaped spec text → shared id.
    spec_ids: HashMap<Box<str>, u32>,
    text_memo: HashMap<u64, TextEntry>,
    /// One recycled compile scratch per worker.
    workers: Vec<CompileScratch>,
    worker_jobs: Vec<Vec<Job>>,
    pending: HashMap<CacheKey, (u32, u32)>,
    slots: Vec<Slot>,
    body_buf: String,
    #[cfg(feature = "fault-inject")]
    fault: FaultPlan,
}

impl Server {
    /// Creates a single-session server with its own private
    /// [`SharedState`] and `cfg.jobs` workers (clamped to at least 1).
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Self {
        let shared = SharedState::new(&cfg);
        Server::with_shared(cfg, shared)
    }

    /// Creates a session over existing daemon-wide state. Every session
    /// of one daemon must be built from the same `Arc` — the cache keys
    /// carry interned spec ids that only the shared table can mint.
    #[must_use]
    pub fn with_shared(cfg: ServerConfig, shared: Arc<SharedState>) -> Self {
        let jobs = cfg.jobs.max(1);
        Server {
            cfg: ServerConfig { jobs, ..cfg },
            shared,
            machines: HashMap::new(),
            spec_ids: HashMap::new(),
            text_memo: HashMap::new(),
            workers: (0..jobs).map(|_| CompileScratch::default()).collect(),
            worker_jobs: (0..jobs).map(|_| Vec::new()).collect(),
            pending: HashMap::new(),
            slots: Vec::new(),
            body_buf: String::new(),
            #[cfg(feature = "fault-inject")]
            fault: FaultPlan::default(),
        }
    }

    /// The daemon-wide state this session shares.
    #[must_use]
    pub fn shared(&self) -> &Arc<SharedState> {
        &self.shared
    }

    /// Arms a deterministic [`FaultPlan`] for this session's workers
    /// (test builds only).
    #[cfg(feature = "fault-inject")]
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Lifetime counters (daemon-wide when sessions share state).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.shared.stats().snapshot()
    }

    /// One-line human summary for stderr.
    #[must_use]
    pub fn summary(&self) -> String {
        self.stats().to_string()
    }

    fn intern_spec(&mut self, escaped: &str) -> Result<u32, ErrorKind> {
        if let Some(&id) = self.spec_ids.get(escaped) {
            return Ok(id);
        }
        let (id, machine) = self.shared.intern_spec(escaped)?;
        self.spec_ids.insert(Box::from(escaped), id);
        self.machines.insert(id, machine);
        Ok(id)
    }

    /// Fingerprints the escaped loop source, via the raw-text memo when it
    /// has seen these exact bytes before. Returns the parsed DDG only when
    /// parsing actually happened (memo misses).
    fn fingerprint_loop(
        &mut self,
        escaped: &str,
        stamp: u64,
    ) -> Result<(u64, Option<Ddg>), ErrorKind> {
        let h = fnv1a_64(escaped.as_bytes());
        if let Some(e) = self.text_memo.get_mut(&h) {
            // Full-text equality guards against a 64-bit collision ever
            // aliasing two different loops.
            if &*e.escaped == escaped {
                e.stamp = stamp;
                return Ok((e.fp, None));
            }
        }
        let text = json::unescape(escaped).map_err(|e| ErrorKind::BadField {
            field: "loop",
            detail: e.to_string(),
        })?;
        let named = parse_loop(&text).map_err(ErrorKind::Parse)?;
        let fp = loop_fingerprint(&named.ddg);
        if self.text_memo.len() >= TEXT_MEMO_ENTRIES {
            if let Some(&victim) = self
                .text_memo
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                self.text_memo.remove(&victim);
            }
        }
        self.text_memo.insert(
            h,
            TextEntry {
                escaped: Box::from(escaped),
                fp,
                stamp,
            },
        );
        Ok((fp, Some(named.ddg)))
    }

    fn admit_compile(
        &mut self,
        id: u64,
        loop_src: &str,
        machine: &str,
        mode: Mode,
        seeds: u32,
        stamp: u64,
    ) -> Slot {
        let spec = match self.intern_spec(machine) {
            Ok(spec) => spec,
            Err(kind) => return Slot::Reject { id: Some(id), kind },
        };
        let (fp, parsed) = match self.fingerprint_loop(loop_src, stamp) {
            Ok(pair) => pair,
            Err(kind) => return Slot::Reject { id: Some(id), kind },
        };
        let key = CacheKey {
            fp,
            spec,
            mode: mode.index(),
            seeds,
        };

        if let Some(payload) = self.shared.cache_lookup(&key, stamp) {
            self.shared.stats().hits(1);
            if payload.starts_with("\"error\"") {
                self.shared.stats().errors(1);
            }
            return Slot::Hit { id, payload };
        }
        if let Some(&(worker, idx)) = self.pending.get(&key) {
            self.shared.stats().coalesced(1);
            return Slot::Job { id, worker, idx };
        }

        // A miss always carries its DDG: the worker builds a fresh context
        // from it, and re-parsing here costs noise next to the compile the
        // miss is about to pay for anyway.
        let ddg = match parsed {
            Some(d) => d,
            None => match json::unescape(loop_src)
                .ok()
                .and_then(|text| parse_loop(&text).ok())
            {
                Some(named) => named.ddg,
                // Unreachable in practice: a memo hit means these exact
                // bytes parsed before. Fail closed if it ever happens.
                None => {
                    return Slot::Reject {
                        id: Some(id),
                        kind: ErrorKind::BadField {
                            field: "loop",
                            detail: "loop no longer parses".into(),
                        },
                    }
                }
            },
        };

        // Load shedding: a fresh miss claims one daemon-wide in-flight
        // slot or is turned away with a back-off hint — never queued
        // unboundedly. Hits and coalesced duplicates above cost nothing.
        if !self.shared.try_acquire_compile() {
            self.shared.stats().shed(1);
            return Slot::Reject {
                id: Some(id),
                kind: ErrorKind::Overloaded {
                    retry_after_ms: retry_after_hint(self.shared.inflight_depth()),
                },
            };
        }
        self.shared.stats().misses(1);
        let worker = (fnv1a_64(&key.bytes()) % self.cfg.jobs as u64) as u32;
        let idx = match u32::try_from(self.worker_jobs[worker as usize].len()) {
            Ok(idx) => idx,
            Err(_) => {
                self.shared.release_compiles(1);
                return Slot::Reject {
                    id: Some(id),
                    kind: ErrorKind::Internal {
                        detail: "batch job index overflow",
                    },
                };
            }
        };
        self.worker_jobs[worker as usize].push(Job {
            key,
            mode,
            ddg,
            stamp,
            payload: None,
            outcome: JobOutcome::Pending,
        });
        self.pending.insert(key, (worker, idx));
        Slot::Job { id, worker, idx }
    }

    /// Processes one batch of request lines, appending one response line
    /// per non-blank input line (in input order) to `out`.
    ///
    /// A `stats` request reports the counters as of the end of this
    /// batch's admission and compile work — deterministic for a given
    /// request stream, whatever the worker count.
    pub fn process_batch<S: AsRef<str>>(&mut self, lines: &[S], out: &mut String) {
        self.slots.clear();
        self.pending.clear();

        // Phase 1: admission, in line order.
        for line in lines {
            let line = line.as_ref();
            if line.trim().is_empty() {
                self.slots.push(Slot::Blank);
                continue;
            }
            self.shared.stats().requests(1);
            let stamp = self.shared.next_stamp();
            if line.len() > MAX_LINE_BYTES {
                self.shared.stats().errors(1);
                self.slots.push(Slot::Reject {
                    id: None,
                    kind: ErrorKind::Oversized { bytes: line.len() },
                });
                continue;
            }
            let slot = match protocol::parse_request(line) {
                Ok(Request::Stats { id }) => Slot::Stats { id },
                Ok(Request::Compile {
                    id,
                    loop_src,
                    machine,
                    mode,
                    seeds,
                }) => self.admit_compile(id, loop_src, machine, mode, seeds, stamp),
                Err((id, kind)) => Slot::Reject { id, kind },
            };
            if let Slot::Reject { .. } = slot {
                self.shared.stats().errors(1);
            }
            self.slots.push(slot);
        }

        // Phase 2: compile fan-out. Skipped entirely on an all-hit batch —
        // even spawning a scope would allocate.
        if self.worker_jobs.iter().any(|jobs| !jobs.is_empty()) {
            let env = WorkerEnv {
                machines: &self.machines,
                deadline_ms: self.cfg.deadline_ms,
                #[cfg(feature = "fault-inject")]
                fault: &self.fault,
            };
            let env = &env;
            thread::scope(|scope| {
                for (scratch, jobs) in self.workers.iter_mut().zip(self.worker_jobs.iter_mut()) {
                    if jobs.is_empty() {
                        continue;
                    }
                    scope.spawn(move || run_worker(scratch, jobs, env));
                }
            });
        }

        // Phase 3: cache insertion in admission (stamp) order, so the
        // cache state never depends on which worker finished first. Every
        // job claimed an in-flight slot at admission; return them all.
        let mut done: Vec<(u64, u32, u32)> = Vec::new();
        for (w, jobs) in self.worker_jobs.iter().enumerate() {
            for (i, job) in jobs.iter().enumerate() {
                done.push((job.stamp, w as u32, i as u32));
            }
        }
        done.sort_unstable();
        for &(stamp, w, i) in &done {
            let job = &self.worker_jobs[w as usize][i as usize];
            let stats = self.shared.stats();
            stats.compiles(1);
            match job.outcome {
                JobOutcome::Ok => {}
                JobOutcome::CompileErr | JobOutcome::Internal | JobOutcome::Pending => {
                    stats.errors(1);
                }
                JobOutcome::Panicked => {
                    stats.errors(1);
                    stats.panics(1);
                }
                JobOutcome::DeadlineExceeded => {
                    stats.errors(1);
                    stats.deadlines(1);
                }
            }
            if job.outcome.cacheable() {
                if let Some(payload) = job.payload.clone() {
                    stats.evictions(self.shared.cache_insert(job.key, payload, stamp));
                }
            }
        }
        self.shared.release_compiles(done.len() as u64);

        // Phase 4: emit, in line order.
        for slot in &self.slots {
            match slot {
                Slot::Blank => {}
                Slot::Hit { id, payload } => protocol::render_response(Some(*id), payload, out),
                Slot::Job { id, worker, idx } => {
                    let job = &self.worker_jobs[*worker as usize][*idx as usize];
                    match job.payload.as_deref() {
                        Some(payload) => protocol::render_response(Some(*id), payload, out),
                        // Unreachable: phase 2 fills every job, panic or
                        // not. Fail closed with a structured answer.
                        None => {
                            self.body_buf.clear();
                            protocol::render_error_body(
                                &ErrorKind::Internal {
                                    detail: "worker returned no payload",
                                },
                                &mut self.body_buf,
                            );
                            protocol::render_response(Some(*id), &self.body_buf, out);
                        }
                    }
                }
                Slot::Reject { id, kind } => {
                    self.body_buf.clear();
                    protocol::render_error_body(kind, &mut self.body_buf);
                    protocol::render_response(*id, &self.body_buf, out);
                }
                Slot::Stats { id } => {
                    self.body_buf.clear();
                    let s = self.shared.stats().snapshot();
                    let _ = write!(
                        self.body_buf,
                        "\"ok\":{{\"requests\":{},\"hits\":{},\"misses\":{},\"coalesced\":{},\
                         \"compiles\":{},\"evictions\":{},\"errors\":{},\"shed\":{},\
                         \"panics\":{},\"deadlines\":{},\"cache_entries\":{},\"cache_bytes\":{}}}",
                        s.requests,
                        s.hits,
                        s.misses,
                        s.coalesced,
                        s.compiles,
                        s.evictions,
                        s.errors,
                        s.shed,
                        s.panics,
                        s.deadlines,
                        self.shared.cache_len(),
                        self.shared.cache_bytes(),
                    );
                    protocol::render_response(Some(*id), &self.body_buf, out);
                }
            }
        }

        for jobs in &mut self.worker_jobs {
            jobs.clear();
        }
    }

    /// Pumps a JSONL stream: reads request lines from `reader` (on a
    /// dedicated thread, so a slow client never stalls compilation of
    /// lines already received), batches up to [`MAX_BATCH`] at a time
    /// through [`Server::process_batch`], and writes response lines to
    /// `writer`, flushing after every batch. Returns at input EOF. A final
    /// line without a trailing newline is still a request — a truncated
    /// one gets a structured error response like any other malformed line.
    ///
    /// # Errors
    ///
    /// Propagates `writer` failures; `reader` errors end the stream.
    pub fn run_jsonl<R, W>(&mut self, reader: R, writer: W) -> io::Result<()>
    where
        R: BufRead + Send,
        W: Write,
    {
        self.run_jsonl_until(reader, writer, &ShutdownFlag::new())
    }

    /// [`Server::run_jsonl`] with cooperative shutdown: when `shutdown`
    /// is requested, the reader stops at the next line boundary (or read
    /// timeout), every line already read is processed and answered, the
    /// writer is flushed, and the pump returns `Ok`. The reader side
    /// tolerates `WouldBlock`/`TimedOut` (a socket with a read timeout)
    /// by retrying, retaining any partial line across retries — that
    /// polling is what lets a blocking socket session observe the flag.
    ///
    /// # Errors
    ///
    /// Propagates `writer` failures; `reader` errors end the stream.
    pub fn run_jsonl_until<R, W>(
        &mut self,
        reader: R,
        mut writer: W,
        shutdown: &ShutdownFlag,
    ) -> io::Result<()>
    where
        R: BufRead + Send,
        W: Write,
    {
        let (tx, rx) = mpsc::sync_channel::<String>(4 * MAX_BATCH);
        // Set once the pump stops consuming (EOF or a writer error), so
        // a reader waking from a read timeout exits instead of pumping
        // lines nobody will answer.
        let done = AtomicBool::new(false);
        let done = &done;
        thread::scope(|scope| {
            scope.spawn(move || pump_lines(reader, &tx, shutdown, done));
            let result = (|| {
                let mut lines: Vec<String> = Vec::with_capacity(MAX_BATCH);
                let mut out = String::new();
                while let Ok(first) = rx.recv() {
                    lines.clear();
                    lines.push(first);
                    while lines.len() < MAX_BATCH {
                        match rx.try_recv() {
                            Ok(line) => lines.push(line),
                            Err(_) => break,
                        }
                    }
                    out.clear();
                    self.process_batch(&lines, &mut out);
                    writer.write_all(out.as_bytes())?;
                    writer.flush()?;
                }
                Ok(())
            })();
            done.store(true, Ordering::Release);
            drop(rx);
            result
        })
    }
}

/// The reader half of [`Server::run_jsonl_until`]: assembles lines from
/// `reader` and sends them to the pump. Memory-bounded — once a line
/// passes the protocol cap its tail is discarded (the line is already
/// doomed to an `oversized` rejection, reported at the cap) — and
/// timeout-tolerant: `WouldBlock`/`TimedOut`/`Interrupted` re-check the
/// shutdown and done flags and retry, keeping the partial line.
fn pump_lines<R: BufRead>(
    mut reader: R,
    tx: &mpsc::SyncSender<String>,
    shutdown: &ShutdownFlag,
    done: &AtomicBool,
) {
    let mut line: Vec<u8> = Vec::new();
    loop {
        if shutdown.is_requested() || done.load(Ordering::Acquire) {
            return;
        }
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                continue;
            }
            // A hard reader error ends the stream like EOF.
            Err(_) => &[][..],
        };
        if chunk.is_empty() {
            // EOF: a final line without a trailing newline is still a
            // request.
            if !line.is_empty() {
                let _ = tx.send(String::from_utf8_lossy(&line).into_owned());
            }
            return;
        }
        let (take, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        let body = if complete { take - 1 } else { take };
        let room = (MAX_LINE_BYTES + 1).saturating_sub(line.len());
        line.extend_from_slice(&chunk[..body.min(room)]);
        reader.consume(take);
        if complete {
            let mut text = String::from_utf8_lossy(&line).into_owned();
            if text.ends_with('\r') {
                text.pop();
            }
            line.clear();
            if tx.send(text).is_err() {
                return;
            }
        }
    }
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.as_str()
    } else {
        "worker panicked (non-string payload)"
    }
}

fn run_worker(scratch: &mut CompileScratch, jobs: &mut [Job], env: &WorkerEnv<'_>) {
    let mut body = String::new();
    for job in jobs {
        body.clear();
        // The containment boundary: a panic anywhere in context
        // construction or compilation converts to a structured response —
        // `thread::scope` would otherwise re-raise the panic on join and
        // take the daemon down. The panicking job's context took the
        // scratch with it, so the next job starts on a fresh one.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            compile_one(scratch, job, env, &mut body)
        }));
        job.outcome = match outcome {
            Ok(outcome) => outcome,
            Err(panic_payload) => {
                body.clear();
                protocol::render_panic_body(&job.key, panic_message(&*panic_payload), &mut body);
                JobOutcome::Panicked
            }
        };
        job.payload = Some(Arc::from(body.as_str()));
    }
}

/// Runs one compile job on a fresh context over the worker's recycled
/// scratch, rendering the response body and reporting what happened. May
/// panic (a compiler bug or an injected fault); [`run_worker`] contains
/// that.
fn compile_one(
    scratch: &mut CompileScratch,
    job: &Job,
    env: &WorkerEnv<'_>,
    body: &mut String,
) -> JobOutcome {
    #[cfg(feature = "fault-inject")]
    if env.fault.panics_at(job.stamp) {
        panic!("injected fault: worker panic at request {}", job.stamp);
    }
    let Some(machine) = env.machines.get(&job.key.spec) else {
        protocol::render_error_body(
            &ErrorKind::Internal {
                detail: "no machine for interned spec id",
            },
            body,
        );
        return JobOutcome::Internal;
    };
    let ctx = CompileContext::new_with_scratch(&job.ddg, machine, mem::take(scratch))
        .with_refine_seeds(job.key.seeds);
    // Deadline checkpoints live in the driver's II attempt loop. The
    // context's token is fresh for every job, so arming it needs no
    // matching disarm; with no deadline configured it is never touched.
    if let Some(ms) = env.deadline_ms {
        ctx.cancel_token()
            .arm_deadline(Instant::now() + Duration::from_millis(ms));
    }
    #[cfg(feature = "fault-inject")]
    if let Some(stall) = env.fault.stall_at(job.stamp) {
        thread::sleep(stall);
    }
    let opts = CompileOptions {
        mode: job.mode,
        max_ii: None,
    };
    let result = compile_stats_ctx(&job.ddg, machine, &opts, &ctx);
    *scratch = ctx.into_scratch();
    match result {
        Ok(stats) => {
            protocol::render_ok_body(&stats, body);
            JobOutcome::Ok
        }
        Err(CompileError::Cancelled { .. }) => {
            protocol::render_deadline_body(env.deadline_ms.unwrap_or(0), body);
            JobOutcome::DeadlineExceeded
        }
        Err(e) => {
            protocol::render_compile_error_body(&e, body);
            JobOutcome::CompileErr
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{escape, request_line, TINY_LOOP};

    fn server(jobs: usize) -> Server {
        Server::new(ServerConfig {
            jobs,
            ..ServerConfig::default()
        })
    }

    /// A second loop structurally distinct from [`TINY_LOOP`].
    const OTHER_LOOP: &str =
        "loop other {\n  i: iadd i@1\n  a: load i\n  b: load i\n  m: fadd a, b\n  st: store m\n}";

    #[test]
    fn one_request_compiles_and_repeats_hit_the_cache() {
        let mut s = server(2);
        let line = request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let mut cold = String::new();
        s.process_batch(std::slice::from_ref(&line), &mut cold);
        assert!(cold.starts_with("{\"id\":1,\"ok\":{\"mii\":"), "{cold}");
        assert_eq!(s.stats().misses, 1);

        let line2 = request_line(2, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let mut warm = String::new();
        s.process_batch(&[line2], &mut warm);
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().compiles, 1, "hit must not recompile");
        // Same body, different id.
        assert_eq!(
            cold.trim_start_matches("{\"id\":1,"),
            warm.trim_start_matches("{\"id\":2,")
        );
    }

    #[test]
    fn duplicates_within_a_batch_coalesce() {
        let mut s = server(3);
        let a = request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let b = request_line(2, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let mut out = String::new();
        s.process_batch(&[a, b], &mut out);
        assert_eq!(s.stats().compiles, 1);
        assert_eq!(s.stats().coalesced, 1);
        assert_eq!(out.lines().count(), 2);
    }

    #[test]
    fn alpha_renaming_and_whitespace_still_hit() {
        let mut s = server(1);
        let renamed = TINY_LOOP.replace("acc", "total").replace("ld", "v");
        let spaced = format!("  {}", TINY_LOOP.replace('\n', "\n  "));
        let mut out = String::new();
        s.process_batch(
            &[
                request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
                request_line(2, &renamed, "4c1b2l64r", "replicate", 1),
                request_line(3, &spaced, "4c1b2l64r", "replicate", 1),
            ],
            &mut out,
        );
        assert_eq!(s.stats().compiles, 1);
        assert_eq!(s.stats().hits + s.stats().coalesced, 2);
    }

    #[test]
    fn errors_answer_without_killing_the_server() {
        let mut s = server(2);
        let mut out = String::new();
        let lines = [
            "not json".to_string(),
            format!(
                "{{\"id\": 1, \"loop\": \"{}\", \"machine\": \"bogus\"}}",
                escape(TINY_LOOP)
            ),
            request_line(2, "loop broken {", "4c1b2l64r", "replicate", 1),
            request_line(3, TINY_LOOP, "4c1b2l64r", "replicate", 1),
        ];
        s.process_batch(&lines, &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("{\"id\":null,\"error\":{\"kind\":\"json\""));
        assert!(lines[1].starts_with("{\"id\":1,\"error\":{\"kind\":\"spec\""));
        assert!(lines[2].starts_with("{\"id\":2,\"error\":{\"kind\":\"parse\""));
        assert!(lines[3].starts_with("{\"id\":3,\"ok\":"));
        assert_eq!(s.stats().errors, 3);
    }

    #[test]
    fn stats_op_reports_accounting() {
        let mut s = server(1);
        let mut out = String::new();
        s.process_batch(
            &[
                request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
                "{\"id\": 9, \"op\": \"stats\"}".to_string(),
            ],
            &mut out,
        );
        let stats_line = out.lines().nth(1).unwrap();
        assert!(stats_line.contains("\"requests\":2"), "{stats_line}");
        assert!(stats_line.contains("\"compiles\":1"), "{stats_line}");
        assert!(stats_line.contains("\"shed\":0"), "{stats_line}");
    }

    #[test]
    fn run_jsonl_round_trips_a_stream() {
        let mut s = server(2);
        let input = format!(
            "{}\n{}\n{}",
            request_line(1, TINY_LOOP, "4c1b2l64r", "baseline", 1),
            "",
            // Truncated final line, no newline: still answered.
            "{\"id\": 3, \"loo"
        );
        let mut out = Vec::new();
        s.run_jsonl(io::Cursor::new(input), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(lines[0].starts_with("{\"id\":1,\"ok\":"));
        assert!(lines[1].starts_with("{\"id\":3,\"error\":{\"kind\":\"json\""));
    }

    #[test]
    fn responses_are_identical_for_any_worker_count() {
        let reqs: Vec<String> = (0..6)
            .map(|i| {
                request_line(
                    i,
                    TINY_LOOP,
                    ["4c1b2l64r", "2c1b2l64r", "unified"][i as usize % 3],
                    ["baseline", "replicate"][i as usize % 2],
                    1,
                )
            })
            .collect();
        let mut one = String::new();
        server(1).process_batch(&reqs, &mut one);
        let mut four = String::new();
        server(4).process_batch(&reqs, &mut four);
        assert_eq!(one, four);
    }

    #[test]
    fn zero_deadline_is_exceeded_deterministically_and_never_cached() {
        let cfg = ServerConfig {
            jobs: 1,
            deadline_ms: Some(0),
            ..ServerConfig::default()
        };
        let shared = SharedState::new(&cfg);
        let mut strict = Server::with_shared(cfg, Arc::clone(&shared));
        let mut out = String::new();
        let line = request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        strict.process_batch(std::slice::from_ref(&line), &mut out);
        assert!(
            out.starts_with("{\"id\":1,\"error\":{\"kind\":\"deadline_exceeded\""),
            "{out}"
        );
        assert!(out.contains("\"deadline_ms\":0"), "{out}");
        assert_eq!(strict.stats().deadlines, 1);

        // Not cached: the same request on the same session compiles again
        // (another miss, another deadline error), never a poisoned hit.
        out.clear();
        strict.process_batch(std::slice::from_ref(&line), &mut out);
        assert!(out.contains("deadline_exceeded"), "{out}");
        assert_eq!(strict.stats().misses, 2, "fault payload must not be cached");
        assert_eq!(strict.stats().hits, 0);

        // A sibling session over the same shared cache, deadline
        // disarmed: compiles cleanly — the shared cache was not corrupted.
        let relaxed_cfg = ServerConfig {
            deadline_ms: None,
            ..cfg
        };
        let mut relaxed = Server::with_shared(relaxed_cfg, shared);
        out.clear();
        relaxed.process_batch(
            &[request_line(9, TINY_LOOP, "4c1b2l64r", "replicate", 1)],
            &mut out,
        );
        assert!(out.starts_with("{\"id\":9,\"ok\":{\"mii\":"), "{out}");
    }

    #[test]
    fn inflight_bound_sheds_with_retry_after_and_recovers() {
        let mut s = Server::new(ServerConfig {
            jobs: 1,
            max_inflight: 1,
            ..ServerConfig::default()
        });
        let mut out = String::new();
        s.process_batch(
            &[
                request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1),
                request_line(2, OTHER_LOOP, "4c1b2l64r", "replicate", 1),
            ],
            &mut out,
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"id\":1,\"ok\":"), "{out}");
        assert!(
            lines[1].starts_with("{\"id\":2,\"error\":{\"kind\":\"overloaded\""),
            "{out}"
        );
        // One compile was in flight when request 2 was shed, so the hint
        // is exactly base + 1×per-inflight: the depth-scaling contract.
        assert!(
            lines[1].contains(&format!(
                "\"retry_after_ms\":{}",
                RETRY_AFTER_BASE_MS + RETRY_AFTER_PER_INFLIGHT_MS
            )),
            "{out}"
        );
        assert_eq!(s.stats().shed, 1);
        assert_eq!(s.stats().misses, 1, "a shed line is not a miss");

        // The batch released its slot: the shed request now compiles.
        out.clear();
        s.process_batch(
            &[request_line(3, OTHER_LOOP, "4c1b2l64r", "replicate", 1)],
            &mut out,
        );
        assert!(out.starts_with("{\"id\":3,\"ok\":"), "{out}");
        assert_eq!(s.stats().shed, 1, "no further shedding");
    }

    #[test]
    fn sessions_share_the_cache_and_the_spec_interner() {
        let cfg = ServerConfig::default();
        let shared = SharedState::new(&cfg);
        let mut a = Server::with_shared(cfg, Arc::clone(&shared));
        let mut b = Server::with_shared(cfg, shared);

        let mut cold = String::new();
        a.process_batch(
            &[request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1)],
            &mut cold,
        );
        let mut warm = String::new();
        b.process_batch(
            &[request_line(2, TINY_LOOP, "4c1b2l64r", "replicate", 1)],
            &mut warm,
        );

        assert!(cold.starts_with("{\"id\":1,\"ok\":"), "{cold}");
        assert_eq!(
            cold.trim_start_matches("{\"id\":1,"),
            warm.trim_start_matches("{\"id\":2,"),
            "session B must serve session A's cached bytes"
        );
        let s = a.stats();
        assert_eq!((s.misses, s.hits, s.compiles), (1, 1, 1));
    }

    #[test]
    fn requested_shutdown_stops_the_pump_before_reading() {
        let mut s = server(1);
        let shutdown = ShutdownFlag::new();
        shutdown.request();
        let input = request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let mut out = Vec::new();
        s.run_jsonl_until(io::Cursor::new(input), &mut out, &shutdown)
            .unwrap();
        assert!(out.is_empty(), "pre-requested shutdown must read nothing");
        assert_eq!(s.stats().requests, 0);
    }

    #[test]
    fn oversized_lines_are_rejected_with_bounded_memory() {
        let mut s = server(1);
        // 2 MiB of garbage on one line, then a valid request: the reader
        // truncates at the cap, the response is a structured oversized
        // error, and the following line is served normally.
        let mut input = "x".repeat(2 * MAX_LINE_BYTES);
        input.push('\n');
        input.push_str(&request_line(7, TINY_LOOP, "4c1b2l64r", "baseline", 1));
        let mut out = Vec::new();
        s.run_jsonl(io::Cursor::new(input), &mut out).unwrap();
        let out = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].starts_with("{\"id\":null,\"error\":{\"kind\":\"oversized\""),
            "{out}"
        );
        assert!(lines[1].starts_with("{\"id\":7,\"ok\":"), "{out}");
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_panic_is_contained_and_the_context_rebuilt() {
        let mut s = server(2);
        s.set_fault_plan(FaultPlan {
            panic_at: vec![0],
            ..FaultPlan::default()
        });
        let line = request_line(1, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        let mut out = String::new();
        s.process_batch(std::slice::from_ref(&line), &mut out);
        assert!(
            out.starts_with("{\"id\":1,\"error\":{\"kind\":\"compile_panic\""),
            "{out}"
        );
        assert!(out.contains("injected fault"), "{out}");
        assert_eq!(s.stats().panics, 1);

        // Stamp 1 is not in the plan: the same request recompiles and
        // matches a fresh server's answer.
        out.clear();
        let line2 = request_line(2, TINY_LOOP, "4c1b2l64r", "replicate", 1);
        s.process_batch(std::slice::from_ref(&line2), &mut out);
        let mut oracle = String::new();
        server(1).process_batch(std::slice::from_ref(&line2), &mut oracle);
        assert_eq!(out, oracle, "post-panic compile diverged");
        assert_eq!(s.stats().hits, 0, "panic payload must not be cached");
    }
}
