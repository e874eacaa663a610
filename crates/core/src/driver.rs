//! The full compilation driver: the II loop of the paper's Figure 2 with
//! instruction replication slotted between partitioning and scheduling.

use std::cell::{Cell, OnceCell, RefCell};
use std::error::Error;
use std::fmt;
use std::time::Instant;

use cvliw_ddg::Ddg;
use cvliw_machine::MachineConfig;
use cvliw_partition::{
    coarsen, partition_loop_scratch, refine_existing, refine_hierarchy, score_partition, Hierarchy,
    Partition, PartitionScore, RefineScratch,
};
use cvliw_sched::{
    schedule, Assignment, IiCause, LoopAnalysis, SchedScratch, Schedule, ScheduleError,
    ScheduleRequest,
};

use crate::engine::{EngineScratch, ReplicationEngine, ReplicationOutcome, ReplicationStats};
use crate::sched_len::extend_for_length;
use crate::value_clone::{uncloneable_coms, value_clone};

/// Which compilation pipeline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Mode {
    /// The state-of-the-art baseline of the paper's reference \[2\]:
    /// partition, refine, schedule — no replication.
    Baseline,
    /// The paper's contribution (§3): replicate subgraphs until the bus
    /// bandwidth fits the remaining communications.
    Replicate,
    /// §5.1: replication plus the schedule-length extension that copies
    /// producers next to critical-path consumers.
    ReplicateSchedLen,
    /// The §5.1 upper-bound study: replication with bus latency treated as
    /// zero for dependences (bandwidth still charged). Schedules are
    /// optimistic by construction.
    ZeroBusLatency,
    /// The restricted related-work technique of Kuras et al. (§6,
    /// reference \[17\]): clone only read-only values and induction
    /// variables, never compound subgraphs.
    ValueClone,
}

impl Mode {
    /// Every pipeline, in the order the paper's comparisons present them:
    /// the two non-replicating references first, then §3, then the §5
    /// variants.
    pub const ALL: [Mode; 5] = [
        Mode::Baseline,
        Mode::ValueClone,
        Mode::Replicate,
        Mode::ReplicateSchedLen,
        Mode::ZeroBusLatency,
    ];

    /// Whether this mode runs the full §3 replication engine.
    #[must_use]
    pub fn replicates(self) -> bool {
        !matches!(self, Mode::Baseline | Mode::ValueClone)
    }

    /// The stable CLI/report name of this mode (`baseline`, `replicate`,
    /// `sched-len`, `zero-bus`, `value-clone`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Mode::Baseline => "baseline",
            Mode::Replicate => "replicate",
            Mode::ReplicateSchedLen => "sched-len",
            Mode::ZeroBusLatency => "zero-bus",
            Mode::ValueClone => "value-clone",
        }
    }

    /// Parses a mode name as produced by [`Mode::name`].
    #[must_use]
    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }

    /// This mode's index in [`Mode::ALL`] — the stable discriminant used
    /// by cache keys and wire formats. Infallible by construction.
    #[must_use]
    pub fn index(self) -> u8 {
        match self {
            Mode::Baseline => 0,
            Mode::ValueClone => 1,
            Mode::Replicate => 2,
            Mode::ReplicateSchedLen => 3,
            Mode::ZeroBusLatency => 4,
        }
    }
}

/// Options for [`compile_loop`].
#[derive(Clone, Copy, Debug)]
pub struct CompileOptions {
    /// Pipeline selection.
    pub mode: Mode,
    /// Hard II cap; defaults to `4·MII + 256` when `None`.
    pub max_ii: Option<u32>,
}

impl CompileOptions {
    /// Baseline scheduler (no replication).
    #[must_use]
    pub fn baseline() -> Self {
        CompileOptions {
            mode: Mode::Baseline,
            max_ii: None,
        }
    }

    /// The paper's replication scheduler.
    #[must_use]
    pub fn replicate() -> Self {
        CompileOptions {
            mode: Mode::Replicate,
            max_ii: None,
        }
    }

    /// Replication plus the §5.1 schedule-length extension.
    #[must_use]
    pub fn sched_len() -> Self {
        CompileOptions {
            mode: Mode::ReplicateSchedLen,
            max_ii: None,
        }
    }

    /// The zero-bus-latency upper bound of §5.1.
    #[must_use]
    pub fn zero_bus() -> Self {
        CompileOptions {
            mode: Mode::ZeroBusLatency,
            max_ii: None,
        }
    }
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions::replicate()
    }
}

/// How many II increments each Figure-1 cause was responsible for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CauseCounts {
    /// Communications exceeded bus bandwidth.
    pub bus: u32,
    /// A recurrence did not fit.
    pub recurrence: u32,
    /// Register pressure exceeded the file.
    pub registers: u32,
    /// Plain functional-unit saturation.
    pub resources: u32,
}

impl CauseCounts {
    /// Records one II bump.
    pub fn add(&mut self, cause: IiCause) {
        match cause {
            IiCause::Bus => self.bus += 1,
            IiCause::Recurrence => self.recurrence += 1,
            IiCause::Registers => self.registers += 1,
            IiCause::Resources => self.resources += 1,
        }
    }

    /// The counter of one cause.
    #[must_use]
    pub fn get(&self, cause: IiCause) -> u32 {
        match cause {
            IiCause::Bus => self.bus,
            IiCause::Recurrence => self.recurrence,
            IiCause::Registers => self.registers,
            IiCause::Resources => self.resources,
        }
    }

    /// Total II increments beyond the MII.
    #[must_use]
    pub fn total(&self) -> u32 {
        self.bus + self.recurrence + self.registers + self.resources
    }
}

/// Per-loop compilation statistics (feeds every figure of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LoopStats {
    /// Lower bound `max(ResMII, RecMII)`.
    pub mii: u32,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Schedule length in issue rows.
    pub length: u32,
    /// Stage count `ceil(length/II)`.
    pub stage_count: u32,
    /// Communications implied by the partition at the accepted II, before
    /// replication.
    pub partition_coms: u32,
    /// Communications actually scheduled on buses.
    pub final_coms: u32,
    /// What the replication pass did.
    pub replication: ReplicationStats,
    /// Why the II had to grow beyond the MII.
    pub causes: CauseCounts,
    /// Operations of the original loop body.
    pub ops_per_iter: u32,
    /// Scheduled functional-unit operations per iteration (with replicas,
    /// after dead-instance removal).
    pub instances_per_iter: u32,
    /// Bus copies per iteration.
    pub copies_per_iter: u32,
}

impl LoopStats {
    /// Net replicated instructions per iteration across all classes.
    #[must_use]
    pub fn net_added(&self) -> u32 {
        self.replication.net_added_by_class().iter().sum()
    }
}

/// A successfully compiled loop.
#[derive(Clone, Debug)]
pub struct CompiledLoop {
    /// The verified modulo schedule.
    pub schedule: Schedule,
    /// The final (possibly multi-instance) cluster assignment.
    pub assignment: Assignment,
    /// Compilation statistics.
    pub stats: LoopStats,
}

/// Compilation failure.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CompileError {
    /// No II up to the cap produced a legal schedule (e.g. a clustered
    /// machine without buses facing an unavoidable communication).
    IiLimitExceeded {
        /// The loop's MII.
        mii: u32,
        /// The II cap that was reached.
        max_ii: u32,
        /// Cause tally accumulated while trying.
        causes: CauseCounts,
    },
    /// The compile's [`CancelToken`] fired (deadline expired or an
    /// explicit cancel) before any II produced a schedule. The partial
    /// work — refinement chain, engine and schedule memos — stays
    /// consistent: only fully completed steps were memoized, so the
    /// context remains safe to reuse.
    Cancelled {
        /// The II the sweep was about to attempt when it observed the
        /// cancellation.
        ii_reached: u32,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::IiLimitExceeded { mii, max_ii, .. } => {
                write!(
                    f,
                    "no schedule found between MII {mii} and the II cap {max_ii}"
                )
            }
            CompileError::Cancelled { ii_reached } => {
                write!(f, "compilation cancelled while attempting II {ii_reached}")
            }
        }
    }
}

impl Error for CompileError {}

/// Index of each stage in [`CompileContext::stage_nanos`] /
/// `CompileScratch::stage_nanos`: II-invariant analysis, partitioning +
/// refinement, replication (engine, value cloning, §5.1 extension), and
/// modulo scheduling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// [`LoopAnalysis`] construction.
    Analysis = 0,
    /// Multilevel partitioning and per-II refinement.
    Partition = 1,
    /// The replication engine, value cloning and the §5.1 extension.
    Replicate = 2,
    /// Modulo scheduling attempts (including the topological retry and
    /// the clones served from the schedule memo).
    Schedule = 3,
}

impl Stage {
    /// All stages in reporting order.
    pub const ALL: [Stage; 4] = [
        Stage::Analysis,
        Stage::Partition,
        Stage::Replicate,
        Stage::Schedule,
    ];

    /// Report label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Analysis => "analysis",
            Stage::Partition => "partition",
            Stage::Replicate => "replicate",
            Stage::Schedule => "schedule",
        }
    }
}

/// A clonable cancellation handle shared between a compile's caller and
/// the attempt loop. The loop polls [`CancelToken::expired`] at the top
/// of every II attempt — the natural checkpoint where no partial state
/// is in flight — so cancellation is cooperative, prompt (one attempt's
/// latency at worst) and never leaves a [`CompileContext`] memo
/// half-written.
///
/// Two triggers, checked together: an explicit [`CancelToken::cancel`]
/// (sticky until [`CancelToken::reset`]) and an optional wall-clock
/// deadline armed per compile via [`CancelToken::arm_deadline`]. A
/// default token never fires, so single-shot callers pay one relaxed
/// atomic load per II and nothing else.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: std::sync::Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: std::sync::atomic::AtomicBool,
    deadline: std::sync::Mutex<Option<Instant>>,
}

impl CancelToken {
    /// A fresh token, not cancelled, with no deadline.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; sticky until [`CancelToken::reset`].
    pub fn cancel(&self) {
        self.inner
            .cancelled
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Arms (or re-arms) a wall-clock deadline; the token reads as
    /// expired once `Instant::now()` passes it.
    pub fn arm_deadline(&self, deadline: Instant) {
        if let Ok(mut slot) = self.inner.deadline.lock() {
            *slot = Some(deadline);
        }
    }

    /// Disarms the deadline (the explicit-cancel flag is untouched).
    pub fn disarm_deadline(&self) {
        if let Ok(mut slot) = self.inner.deadline.lock() {
            *slot = None;
        }
    }

    /// Clears both the cancel flag and the deadline.
    pub fn reset(&self) {
        self.inner
            .cancelled
            .store(false, std::sync::atomic::Ordering::Release);
        self.disarm_deadline();
    }

    /// Whether the compile should stop: explicitly cancelled, or past an
    /// armed deadline. A poisoned deadline lock (impossible today — no
    /// holder can panic) fails open to "not expired" rather than killing
    /// the compile.
    #[must_use]
    pub fn expired(&self) -> bool {
        if self
            .inner
            .cancelled
            .load(std::sync::atomic::Ordering::Acquire)
        {
            return true;
        }
        match self.inner.deadline.lock() {
            Ok(slot) => slot.is_some_and(|d| Instant::now() >= d),
            Err(_) => false,
        }
    }
}

/// The persistent compile scratch: every mutable workspace the attempt
/// loop needs, reused clear-and-refill across IIs and modes instead of
/// being reallocated per attempt — the partition refiner's scoring state,
/// the replication engine's plan worklists, and the scheduler's operation
/// arena / reservation table / MaxLive buffers. Also accumulates the
/// per-stage wall-clock the bench harness reports, and carries the
/// [`CancelToken`] the attempt loop polls.
#[derive(Debug, Default)]
pub struct CompileScratch {
    /// Cooperative cancellation, polled once per II attempt.
    cancel: CancelToken,
    refine: RefineScratch,
    engine: EngineScratch,
    sched: SchedScratch,
    /// Wall-clock nanoseconds per [`Stage`].
    stage_nanos: [u64; 4],
}

impl CompileScratch {
    /// Readies a recycled scratch for a *different* loop: zeroes the stage
    /// clocks and the refinement work counts, and replaces the
    /// [`CancelToken`] so a deadline armed against the previous loop's
    /// context cannot leak into this one.
    /// Nothing in the scratch is graph-bound: it is graph-agnostic
    /// ([`RefineScratch`], the scheduler buffers) or refilled on every use
    /// (the engine's anchors, from the context's analysis) and keeps its
    /// allocations — which is the whole point.
    fn reset_for_new_loop(&mut self) {
        self.refine.reset_counts();
        self.engine.reset_counts();
        self.stage_nanos = [0; 4];
        self.cancel = CancelToken::new();
    }
}

/// One memoized step of the refinement chain: the partition refined at
/// `ii = mii + k`, its communication count, and whether refinement changed
/// it relative to the previous step (the driver's II-skip disarm signal).
#[derive(Clone, Debug)]
struct ChainStep {
    partition: Partition,
    coms: u32,
    changed: bool,
}

/// One memoized replication-engine run at `ii = mii + k`.
#[derive(Clone, Debug)]
enum EngineStep {
    /// Bandwidth fits: the multi-instance assignment plus its statistics.
    Fits(Assignment, ReplicationStats),
    /// Resource constraints stopped replication early at this II.
    Stuck,
}

/// One memoized schedule attempt at `ii = mii + k` (the row it sits in):
/// the rest of its key and its outcome.
#[derive(Clone, Debug)]
struct ScheduleAttempt {
    zero_bus_dep_latency: bool,
    assignment: Assignment,
    outcome: Result<Schedule, ScheduleError>,
}

/// Host-independent work counts of a [`CompileContext`]: deterministic
/// units of work that sit beside the stage clocks, so a change in how much
/// work a compile does shows on any host, whatever its timing noise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Schedule attempts the scheduler actually ran.
    pub schedule_attempts_run: u64,
    /// Schedule attempts served from the context's memo instead.
    pub schedule_attempts_reused: u64,
    /// Candidate refinement moves scored by an incremental-ASAP
    /// speculation (`cvliw_ddg::IncrementalAsap::speculate` calls).
    pub asap_speculations: u64,
    /// Worklist pops those speculations made.
    pub asap_pops: u64,
    /// Candidate refinement moves the critical-path witness bound rejected
    /// without a speculation.
    pub refine_bound_rejections: u64,
    /// Coarsening rounds of the seed partitions (one per hierarchy level
    /// below the identity level).
    pub coarsen_rounds: u64,
    /// Moves the seed partitions' multilevel refinement accepted.
    pub seed_moves: u64,
    /// Rounds of the §5.1 schedule-length extension (one latency pass
    /// each).
    pub sched_len_rounds: u64,
    /// Candidate replications the §5.1 extension priced.
    pub sched_len_candidates: u64,
    /// Candidate replications the §5.1 extension committed.
    pub sched_len_commits: u64,
}

impl WorkCounts {
    /// Adds another tally into this one.
    pub fn add(&mut self, other: WorkCounts) {
        self.schedule_attempts_run += other.schedule_attempts_run;
        self.schedule_attempts_reused += other.schedule_attempts_reused;
        self.asap_speculations += other.asap_speculations;
        self.asap_pops += other.asap_pops;
        self.refine_bound_rejections += other.refine_bound_rejections;
        self.coarsen_rounds += other.coarsen_rounds;
        self.seed_moves += other.seed_moves;
        self.sched_len_rounds += other.sched_len_rounds;
        self.sched_len_candidates += other.sched_len_candidates;
        self.sched_len_commits += other.sched_len_commits;
    }

    /// Adds the refinement work counted by `refine`.
    fn add_refine(&mut self, refine: &RefineScratch) {
        self.asap_speculations += refine.asap_speculations();
        self.asap_pops += refine.asap_pops();
        self.refine_bound_rejections += refine.bound_rejections();
        self.coarsen_rounds += refine.coarsen_rounds();
        self.seed_moves += refine.seed_moves();
    }

    /// Adds the §5.1 extension work counted by `engine`.
    fn add_sched_len(&mut self, engine: &EngineScratch) {
        self.sched_len_rounds += engine.sched_len_rounds;
        self.sched_len_candidates += engine.sched_len_candidates;
        self.sched_len_commits += engine.sched_len_commits;
    }
}

/// The per-(loop, machine) compilation context: the II-invariant
/// [`LoopAnalysis`], the memoized refinement chain, the memoized
/// replication-engine outcomes, the memoized schedule attempts, and the
/// persistent [`CompileScratch`] threaded by `&mut` through the whole
/// attempt loop.
///
/// The driver's Figure-2 loop always starts from `partition_loop` at the
/// MII and refines the *current* partition at each II bump — a chain that
/// is a pure function of `(loop, machine, ii)`, identical for every
/// [`Mode`] (no refinement input depends on the mode). The suite compiles
/// each (loop, machine) pair under all five modes, so [`CompileContext`]
/// memoizes the whole chain: the first mode to reach an II pays for its
/// refinement, the other modes clone the result. The §3 replication engine
/// is likewise a pure function of `(loop, machine, ii)` given the chain —
/// the three replicating modes differ only *after* the engine (the §5.1
/// extension, the zero-bus-latency relaxation) — so its per-II outcome is
/// memoized the same way. A schedule attempt is a pure function of
/// `(loop, machine, ii, zero_bus_dep_latency, assignment)`; when replication
/// has nothing to do, several modes hand the scheduler the same assignment
/// at the same II, so the context memoizes every completed attempt under
/// that key and later modes clone its outcome (debug builds re-run each hit
/// and compare). The memos live here, not in the scratch, so a scratch
/// recycled into another loop's context can never alias them, and they
/// hold only completed steps, so cancellation and `max_ii` caps leave them
/// sound. The scratch warms up once and keeps its buffers for every II of
/// every mode.
#[derive(Debug)]
pub struct CompileContext {
    analysis: LoopAnalysis,
    initial_partition: OnceCell<Partition>,
    /// `chain[k]` = refinement state at `ii = mii + k` (`chain[0]` wraps
    /// the seed partition). Grown lazily as modes climb.
    chain: RefCell<Vec<ChainStep>>,
    /// `engine_memo[k]` = the §3 engine outcome at `ii = mii + k`, `None`
    /// until some replicating mode first reaches that II.
    engine_memo: RefCell<Vec<Option<EngineStep>>>,
    /// `sched_memo[k]` = every schedule attempt run at `ii = mii + k`, in
    /// the order some mode first ran it.
    sched_memo: RefCell<Vec<Vec<ScheduleAttempt>>>,
    /// Schedule attempts run and reused through this context, plus the
    /// refinement work of raced seed partitions (the rest of the
    /// refinement work is counted in the scratch).
    work: Cell<WorkCounts>,
    /// Parallel refinement seeds to race for the MII seed partition
    /// (1 = racing disabled; see [`CompileContext::with_refine_seeds`]).
    refine_seeds: u32,
    scratch: RefCell<CompileScratch>,
}

impl CompileContext {
    /// Computes the analysis for `(ddg, machine)`; the seed partition is
    /// computed on first use.
    #[must_use]
    pub fn new(ddg: &Ddg, machine: &MachineConfig) -> Self {
        Self::new_with_scratch(ddg, machine, CompileScratch::default())
    }

    /// [`CompileContext::new`] on a recycled [`CompileScratch`] — the
    /// warmed-up buffers of a previous loop's context (recovered with
    /// [`CompileContext::into_scratch`]) carry over; only the clocks, work
    /// counts and cancel token are reset. A suite worker compiling
    /// hundreds of loops in sequence allocates its big workspaces once
    /// instead of once per loop; results are identical either way, which
    /// `scratch_reuse_equals_fresh_state_compilation` pins.
    #[must_use]
    pub fn new_with_scratch(
        ddg: &Ddg,
        machine: &MachineConfig,
        mut scratch: CompileScratch,
    ) -> Self {
        let started = Instant::now();
        scratch.reset_for_new_loop();
        let analysis = LoopAnalysis::new(ddg, machine);
        scratch.stage_nanos[Stage::Analysis as usize] = elapsed_nanos(started);
        CompileContext {
            analysis,
            initial_partition: OnceCell::new(),
            chain: RefCell::new(Vec::new()),
            engine_memo: RefCell::new(Vec::new()),
            sched_memo: RefCell::new(Vec::new()),
            work: Cell::new(WorkCounts::default()),
            refine_seeds: 1,
            scratch: RefCell::new(scratch),
        }
    }

    /// Consumes the context and returns its scratch for recycling into the
    /// next loop's [`CompileContext::new_with_scratch`]. Read
    /// [`CompileContext::stage_nanos`] first — the clocks travel with the
    /// scratch and are zeroed at the next hand-over.
    #[must_use]
    pub fn into_scratch(self) -> CompileScratch {
        self.scratch.into_inner()
    }

    /// Enables best-of-N seed racing for the MII seed partition: `seeds`
    /// perturbed multilevel refinements race on scoped threads and the
    /// winner is selected deterministically by `(score, seed-index)` —
    /// thread scheduling can never change the outcome, and on score ties
    /// the canonical seed 0 (the unperturbed pipeline) always wins, which
    /// is what keeps reports byte-identical whether racing is enabled or
    /// not as long as no perturbation finds a strictly better partition.
    /// `seeds` is clamped to `1..=`[`MAX_REFINE_SEEDS`].
    #[must_use]
    pub fn with_refine_seeds(mut self, seeds: u32) -> Self {
        self.refine_seeds = seeds.clamp(1, MAX_REFINE_SEEDS);
        self
    }

    /// The cached II-invariant analysis.
    #[must_use]
    pub fn analysis(&self) -> &LoopAnalysis {
        &self.analysis
    }

    /// The seed-racing width this context compiles with (1 = racing
    /// disabled). A context's results are a pure function of
    /// `(loop structure, machine, mode, refine_seeds)`, so any cache keyed
    /// on a context must fold this in — it is part of the canonical cache
    /// key, alongside [`crate::loop_fingerprint`] and the machine spec.
    #[must_use]
    pub fn refine_seeds(&self) -> u32 {
        self.refine_seeds
    }

    /// A clone of this context's [`CancelToken`]: arm a deadline or
    /// cancel from any thread and every compile running through this
    /// context observes it at its next II attempt. The token is part of
    /// the scratch, so a context serves exactly one token for its whole
    /// lifetime; callers that arm a per-request deadline must disarm (or
    /// [`CancelToken::reset`]) it afterwards or the next compile on this
    /// context inherits it.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.scratch.borrow().cancel.clone()
    }

    /// Wall-clock nanoseconds spent per [`Stage`] across every compilation
    /// run through this context (indexed by `Stage as usize`). Purely a
    /// measurement by-product: timing never influences any result. When
    /// seed racing is enabled the partition bucket accumulates **every**
    /// raced seed's wall clock — losers burned real CPU, so the stage
    /// breakdown charges them (summed thread time, not winner-only).
    #[must_use]
    pub fn stage_nanos(&self) -> [u64; 4] {
        self.scratch.borrow().stage_nanos
    }

    /// How many schedule attempts every compilation run through this
    /// context ran and reused, and how much refinement scoring and §5.1
    /// extension work it did.
    /// Deterministic: each mode's II climb is, and the refinement chain is
    /// shared, so the counts do not depend on the order the modes run in.
    /// With seed racing, every raced seed's refinement is counted.
    #[must_use]
    pub fn work(&self) -> WorkCounts {
        let mut work = self.work.get();
        let scratch = self.scratch.borrow();
        work.add_refine(&scratch.refine);
        work.add_sched_len(&scratch.engine);
        work
    }

    /// The memoized `partition_loop` result at the loop's MII (racing
    /// `refine_seeds` perturbed variants when configured).
    fn initial_partition(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        scratch: &mut CompileScratch,
    ) -> &Partition {
        self.initial_partition.get_or_init(|| {
            let mii = self.analysis.mii();
            if self.refine_seeds > 1 && machine.clusters() > 1 {
                let (seed, raced_nanos, raced_work) =
                    race_seed_partitions(ddg, machine, mii, &self.analysis, self.refine_seeds);
                scratch.stage_nanos[Stage::Partition as usize] += raced_nanos;
                let mut work = self.work.get();
                work.add(raced_work);
                self.work.set(work);
                return seed;
            }
            let started = Instant::now();
            let seed =
                partition_loop_scratch(ddg, machine, mii, &self.analysis, &mut scratch.refine, 0);
            scratch.stage_nanos[Stage::Partition as usize] += elapsed_nanos(started);
            seed
        })
    }

    /// The memoized refinement-chain step at `ii = mii + k`: refines lazily
    /// from the previous step the first time any mode reaches `ii`, then
    /// serves clones. Also yields the partition's communication count and
    /// the changed-vs-previous flag so per-mode callers never recount.
    fn chain_step(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        scratch: &mut CompileScratch,
    ) -> ChainStep {
        let k = (ii - self.analysis.mii()) as usize;
        let mut chain = self.chain.borrow_mut();
        if chain.is_empty() {
            let partition = self.initial_partition(ddg, machine, scratch).clone();
            let coms = partition.to_assignment().comm_count(ddg);
            chain.push(ChainStep {
                partition,
                coms,
                changed: false,
            });
        }
        while chain.len() <= k {
            let prev = &chain[chain.len() - 1].partition;
            let started = Instant::now();
            let refined = refine_existing(
                ddg,
                machine,
                self.analysis.mii() + chain.len() as u32,
                prev.clone(),
                &self.analysis,
                &mut scratch.refine,
            );
            scratch.stage_nanos[Stage::Partition as usize] += elapsed_nanos(started);
            let changed = refined != *prev;
            let coms = if changed {
                refined.to_assignment().comm_count(ddg)
            } else {
                chain[chain.len() - 1].coms
            };
            chain.push(ChainStep {
                partition: refined,
                coms,
                changed,
            });
        }
        chain[k].clone()
    }

    /// The memoized §3 replication-engine outcome at `ii = mii + k`. The
    /// engine input is the chain partition at `ii`, so the outcome is the
    /// same for every replicating mode; the first one to reach `ii` runs
    /// the engine, the others clone. Timing is charged when the work runs.
    fn engine_step(
        &self,
        ddg: &Ddg,
        machine: &MachineConfig,
        ii: u32,
        base: &Partition,
        scratch: &mut CompileScratch,
    ) -> EngineStep {
        let k = (ii - self.analysis.mii()) as usize;
        {
            let memo = self.engine_memo.borrow();
            if let Some(Some(step)) = memo.get(k) {
                return step.clone();
            }
        }
        let started = Instant::now();
        let mut engine =
            ReplicationEngine::new(ddg, machine, ii, base.to_assignment(), &self.analysis);
        let step = match engine.run(&mut scratch.engine) {
            ReplicationOutcome::Fits => {
                let (assignment, stats) = engine.into_parts();
                EngineStep::Fits(assignment, stats)
            }
            ReplicationOutcome::Stuck { .. } => EngineStep::Stuck,
        };
        scratch.stage_nanos[Stage::Replicate as usize] += elapsed_nanos(started);
        let mut memo = self.engine_memo.borrow_mut();
        if memo.len() <= k {
            memo.resize(k + 1, None);
        }
        memo[k] = Some(step.clone());
        step
    }

    /// The memoized schedule attempt for `req` (whose `ii` is at least the
    /// MII): the first mode to reach an `(ii, zero_bus_dep_latency,
    /// assignment)` runs the scheduler, later modes clone the outcome.
    fn schedule_step(
        &self,
        req: &ScheduleRequest<'_>,
        sched: &mut SchedScratch,
    ) -> Result<Schedule, ScheduleError> {
        let k = (req.ii - self.analysis.mii()) as usize;
        let mut work = self.work.get();
        let hit = self.sched_memo.borrow().get(k).and_then(|row| {
            row.iter()
                .find(|a| {
                    a.zero_bus_dep_latency == req.zero_bus_dep_latency
                        && a.assignment == *req.assignment
                })
                .map(|a| a.outcome.clone())
        });
        if let Some(outcome) = hit {
            debug_assert_eq!(
                outcome,
                schedule(req, &self.analysis, sched),
                "a memoized schedule attempt must equal a fresh one"
            );
            work.schedule_attempts_reused += 1;
            self.work.set(work);
            return outcome;
        }
        let outcome = schedule(req, &self.analysis, sched);
        work.schedule_attempts_run += 1;
        self.work.set(work);
        let mut memo = self.sched_memo.borrow_mut();
        if memo.len() <= k {
            memo.resize_with(k + 1, Vec::new);
        }
        memo[k].push(ScheduleAttempt {
            zero_bus_dep_latency: req.zero_bus_dep_latency,
            assignment: req.assignment.clone(),
            outcome: outcome.clone(),
        });
        outcome
    }
}

/// The most refinement seeds one compile may race. Every seed beyond the
/// first runs on its own scoped thread, so the count is bounded before any
/// thread is spawned; the daemon protocol and the CLI reject larger values.
pub const MAX_REFINE_SEEDS: u32 = 64;

/// Races `seeds` perturbed multilevel partitionings of `(ddg, machine)` at
/// the MII — seed 0 on the calling thread, the others on scoped threads —
/// and picks the winner by `(score, seed-index)`: the smallest score wins,
/// ties resolve to the lowest index, so seed 0 (the canonical, unperturbed
/// pipeline) wins unless a perturbation is strictly better. Coarsening
/// does not depend on the perturbation, so the hierarchy is built once and
/// every lane refines it read-only. Returns the winning partition plus the
/// **summed** wall-clock nanoseconds and refinement work of the coarsening
/// and every raced seed (losers included), which the caller charges to the
/// partition stage.
fn race_seed_partitions(
    ddg: &Ddg,
    machine: &MachineConfig,
    mii: u32,
    analysis: &LoopAnalysis,
    seeds: u32,
) -> (Partition, u64, WorkCounts) {
    let started = Instant::now();
    let mut seed_scratch = RefineScratch::default();
    let mut hierarchy = Hierarchy::default();
    coarsen(
        ddg,
        machine,
        mii,
        analysis,
        &mut seed_scratch,
        &mut hierarchy,
    );
    let coarsen_nanos = elapsed_nanos(started);
    let hierarchy = &hierarchy;
    let run = |variant: u32, mut scratch: RefineScratch| {
        let started = Instant::now();
        let part = refine_hierarchy(
            ddg,
            machine,
            mii,
            hierarchy,
            analysis,
            &mut scratch,
            variant,
        );
        let score = score_partition(ddg, &part, machine, mii, analysis, &mut scratch);
        let mut work = WorkCounts::default();
        work.add_refine(&scratch);
        (score, part, elapsed_nanos(started), work)
    };
    let mut lanes: Vec<Option<(PartitionScore, Partition, u64, WorkCounts)>> =
        (1..seeds).map(|_| None).collect();
    let (mut best, mut winner, mut raced_nanos, mut raced_work) = std::thread::scope(|scope| {
        for (lane, variant) in lanes.iter_mut().zip(1..) {
            scope.spawn(move || *lane = Some(run(variant, RefineScratch::default())));
        }
        run(0, seed_scratch)
    });
    raced_nanos += coarsen_nanos;
    // The scope joined every thread, so every lane is filled; ascending
    // order with a strict `<` keeps the lowest index among equal scores.
    for (score, part, nanos, work) in lanes.into_iter().flatten() {
        raced_nanos += nanos;
        raced_work.add(work);
        if score < best {
            best = score;
            winner = part;
        }
    }
    (winner, raced_nanos, raced_work)
}

fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Compiles one loop for one machine: Figure 2's `II = MII; loop
/// {partition/refine → replicate → schedule}` with cause attribution for
/// every II increment.
///
/// Computes the loop's [`CompileContext`] internally. Callers compiling the
/// same loop on the same machine more than once (the experiment suite runs
/// all five [`Mode`]s per cell) should build the context once and call
/// [`compile_loop_ctx`] instead.
///
/// # Errors
///
/// Returns [`CompileError::IiLimitExceeded`] if no II up to the cap works.
pub fn compile_loop(
    ddg: &Ddg,
    machine: &MachineConfig,
    opts: &CompileOptions,
) -> Result<CompiledLoop, CompileError> {
    compile_loop_ctx(ddg, machine, opts, &CompileContext::new(ddg, machine))
}

/// [`compile_loop`] on a shared [`CompileContext`]: the analysis, the
/// refinement chain, the engine and schedule memos *and* the persistent
/// compile scratch are reused across calls. Results are bit-identical to
/// [`compile_loop`].
///
/// # Errors
///
/// Returns [`CompileError::IiLimitExceeded`] if no II up to the cap works,
/// or [`CompileError::Cancelled`] if the context's [`CancelToken`] fires.
pub fn compile_loop_ctx(
    ddg: &Ddg,
    machine: &MachineConfig,
    opts: &CompileOptions,
    ctx: &CompileContext,
) -> Result<CompiledLoop, CompileError> {
    let scratch = &mut *ctx.scratch.borrow_mut();
    let analysis = &ctx.analysis;
    debug_assert_eq!(
        ddg.node_count(),
        analysis.node_lat().len(),
        "the context must have been built for this loop"
    );
    let mii = analysis.mii();
    let max_ii = opts
        .max_ii
        .unwrap_or_else(|| mii.saturating_mul(4).saturating_add(256));
    let mut causes = CauseCounts::default();

    let ChainStep {
        mut partition,
        coms: mut partition_coms,
        ..
    } = ctx.chain_step(ddg, machine, mii, scratch);
    let mut ii = mii;
    // Failure-driven II skipping (non-replicating modes): after a bus
    // failure, the smallest II whose bandwidth could possibly fit the
    // partition's communication floor. While the refined partition stays
    // *unchanged* — the common case during a bus-bound climb — every II
    // below the bound provably fails the same bandwidth check, so the
    // attempt body is skipped and the cause tallied directly. The moment
    // refinement changes the partition the bound is discarded, which is
    // what keeps the sweep byte-identical to the plain linear one: the
    // refinement chain itself (whose outcome future attempts depend on)
    // is never skipped. Debug builds re-run each skipped check.
    let mut bus_bound = 0u32;
    while ii <= max_ii {
        // Cooperative cancellation checkpoint: between attempts nothing
        // is half-done — the chain, engine and schedule memos only ever
        // hold fully completed steps — so bailing here leaves the context
        // reusable.
        if scratch.cancel.expired() {
            return Err(CompileError::Cancelled { ii_reached: ii });
        }
        if ii > mii {
            let step = ctx.chain_step(ddg, machine, ii, scratch);
            if step.changed {
                partition = step.partition;
                bus_bound = 0;
            }
            partition_coms = step.coms;
        }
        if ii < bus_bound {
            debug_assert!(
                skipped_attempt_fails_bus(ddg, machine, opts.mode, &partition, ii, ctx.analysis()),
                "the II-skip bound must only skip provably failing attempts"
            );
            causes.add(IiCause::Bus);
            ii += 1;
            continue;
        }
        let started = Instant::now();
        let (assignment, replication) = if opts.mode.replicates() {
            let step = ctx.engine_step(ddg, machine, ii, &partition, scratch);
            match step {
                EngineStep::Fits(assignment, stats) => (assignment, stats),
                EngineStep::Stuck => {
                    causes.add(IiCause::Bus);
                    ii += 1;
                    continue;
                }
            }
        } else if opts.mode == Mode::ValueClone {
            let out = value_clone(ddg, machine, ii, partition.to_assignment(), ctx.analysis());
            scratch.stage_nanos[Stage::Replicate as usize] += elapsed_nanos(started);
            out
        } else {
            let stats = ReplicationStats {
                initial_coms: partition_coms,
                final_coms: partition_coms,
                ..ReplicationStats::default()
            };
            let base = partition.to_assignment();
            scratch.stage_nanos[Stage::Replicate as usize] += elapsed_nanos(started);
            (base, stats)
        };

        // Every branch above already tracked the surviving communication
        // count in its stats; recounting per II would walk the whole DDG
        // again for nothing. Debug builds assert the books are honest.
        let ncoms = replication.final_coms;
        debug_assert_eq!(
            ncoms,
            assignment.comm_count(ddg),
            "ReplicationStats::final_coms tracks the assignment"
        );
        if ncoms > machine.coms_capacity_per_ii(ii) {
            causes.add(IiCause::Bus);
            // The failure's bound arithmetic: baseline communications are
            // exactly the partition's, so the closed-form capacity inverse
            // is the first II that could pass this check; value cloning
            // can shed cloneable communications as capacity grows, so its
            // floor is the communications cloning can never remove. The
            // closed form is exact only on shared buses, whose transfers
            // are interchangeable — on point-to-point fabrics
            // `closed_form_min_ii_for_coms` returns 0 and the skip
            // soundly disarms (every II is attempted, as before PR 4).
            bus_bound = match opts.mode {
                Mode::Baseline => machine.closed_form_min_ii_for_coms(ncoms),
                Mode::ValueClone => {
                    machine.closed_form_min_ii_for_coms(uncloneable_coms(ddg, &assignment))
                }
                _ => 0,
            };
            ii += 1;
            continue;
        }

        let assignment = if opts.mode == Mode::ReplicateSchedLen {
            let started = Instant::now();
            let extended =
                extend_for_length(ddg, machine, ii, assignment, analysis, &mut scratch.engine);
            scratch.stage_nanos[Stage::Replicate as usize] += elapsed_nanos(started);
            extended
        } else {
            assignment
        };

        let request = ScheduleRequest {
            ddg,
            machine,
            assignment: &assignment,
            ii,
            zero_bus_dep_latency: opts.mode == Mode::ZeroBusLatency,
        };
        let started = Instant::now();
        let attempt = ctx.schedule_step(&request, &mut scratch.sched);
        scratch.stage_nanos[Stage::Schedule as usize] += elapsed_nanos(started);
        match attempt {
            Ok(sched) => {
                let stats = LoopStats {
                    mii,
                    ii,
                    length: sched.length(),
                    stage_count: sched.stage_count(),
                    partition_coms,
                    final_coms: sched.copy_count(),
                    replication,
                    causes,
                    ops_per_iter: ddg.node_count() as u32,
                    instances_per_iter: sched.op_count(),
                    copies_per_iter: sched.copy_count(),
                };
                return Ok(CompiledLoop {
                    schedule: sched,
                    assignment,
                    stats,
                });
            }
            Err(e) => {
                causes.add(e.cause());
                ii += 1;
            }
        }
    }
    Err(CompileError::IiLimitExceeded {
        mii,
        max_ii,
        causes,
    })
}

/// Debug-build verification of the failure-driven II skip: re-runs the
/// attempt the skip elided — exactly what the linear sweep would have done
/// at `ii` — and reports whether it fails the bus-bandwidth check, which
/// is what the bound arithmetic promised. Only ever invoked from a
/// `debug_assert!`, so release builds never pay for it.
fn skipped_attempt_fails_bus(
    ddg: &Ddg,
    machine: &MachineConfig,
    mode: Mode,
    partition: &Partition,
    ii: u32,
    analysis: &LoopAnalysis,
) -> bool {
    let base = partition.to_assignment();
    let ncoms = match mode {
        Mode::Baseline => base.comm_count(ddg),
        Mode::ValueClone => value_clone(ddg, machine, ii, base, analysis).1.final_coms,
        _ => return false, // the bound is never armed for replicating modes
    };
    ncoms > machine.coms_capacity_per_ii(ii)
}

/// The single-cell entry point for suite orchestration: compiles one loop
/// and returns only its [`LoopStats`], dropping the schedule. Everything an
/// experiment grid aggregates (II, IPC inputs, replication ratios, cause
/// tallies) lives in the stats; the schedule itself is only needed by
/// callers that render, verify or simulate it.
///
/// # Errors
///
/// Returns [`CompileError::IiLimitExceeded`] if no II up to the cap works.
pub fn compile_stats(
    ddg: &Ddg,
    machine: &MachineConfig,
    opts: &CompileOptions,
) -> Result<LoopStats, CompileError> {
    compile_loop(ddg, machine, opts).map(|out| out.stats)
}

/// [`compile_stats`] on a shared [`CompileContext`] — the suite's per-cell
/// entry point, where one context serves all five modes of a (loop,
/// machine) pair.
///
/// # Errors
///
/// Returns [`CompileError::IiLimitExceeded`] if no II up to the cap works.
pub fn compile_stats_ctx(
    ddg: &Ddg,
    machine: &MachineConfig,
    opts: &CompileOptions,
    ctx: &CompileContext,
) -> Result<LoopStats, CompileError> {
    compile_loop_ctx(ddg, machine, opts, ctx).map(|out| out.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvliw_ddg::OpKind;

    fn machine(spec: &str) -> MachineConfig {
        MachineConfig::from_spec(spec).unwrap()
    }

    /// A communication-bound loop: one shared integer address chain feeding
    /// four fp chains that end in stores.
    fn comm_bound() -> Ddg {
        let mut b = Ddg::builder();
        let iv = b.add_node(OpKind::IntAdd);
        b.data_dist(iv, iv, 1);
        let base = b.add_node(OpKind::IntAdd);
        b.data(iv, base);
        for _ in 0..4 {
            let ld = b.add_node(OpKind::Load);
            b.data(base, ld);
            let m0 = b.add_node(OpKind::FpMul);
            let a0 = b.add_node(OpKind::FpAdd);
            b.data(ld, m0).data(m0, a0);
            let st = b.add_node(OpKind::Store);
            b.data(a0, st).data(base, st);
        }
        b.build().unwrap()
    }

    #[test]
    fn baseline_and_replication_both_compile() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let base = compile_loop(&ddg, &m, &CompileOptions::baseline()).unwrap();
        let repl = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        base.schedule.verify(&ddg, &m).unwrap();
        repl.schedule.verify(&ddg, &m).unwrap();
        assert!(
            repl.stats.ii <= base.stats.ii,
            "replication never hurts the II"
        );
    }

    #[test]
    fn replication_reduces_communications() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let base = compile_loop(&ddg, &m, &CompileOptions::baseline()).unwrap();
        let repl = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        assert!(
            repl.stats.final_coms <= base.stats.final_coms,
            "replication: {} vs baseline: {}",
            repl.stats.final_coms,
            base.stats.final_coms
        );
    }

    #[test]
    fn unified_machine_needs_no_replication() {
        let ddg = comm_bound();
        let m = MachineConfig::unified(256);
        let out = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        assert_eq!(out.stats.final_coms, 0);
        assert_eq!(out.stats.replication.added_instances(), 0);
        assert_eq!(out.stats.ii, out.stats.mii, "unified machine achieves MII");
    }

    #[test]
    fn cause_attribution_blames_the_bus() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let base = compile_loop(&ddg, &m, &CompileOptions::baseline()).unwrap();
        if base.stats.ii > base.stats.mii {
            assert!(
                base.stats.causes.bus > 0,
                "II grew: {:?}",
                base.stats.causes
            );
        }
    }

    #[test]
    fn stats_are_internally_consistent() {
        let ddg = comm_bound();
        let m = machine("4c2b2l64r");
        let out = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        let s = &out.stats;
        assert_eq!(s.stage_count, s.length.div_ceil(s.ii).max(1));
        assert!(s.ii >= s.mii);
        assert_eq!(s.final_coms, s.copies_per_iter);
        assert_eq!(
            s.instances_per_iter,
            s.ops_per_iter + s.replication.added_instances() - s.replication.removed_instances
        );
        assert_eq!(s.causes.total(), s.ii - s.mii);
    }

    #[test]
    fn topology_machines_compile_all_modes() {
        // Ring and crossbar fabrics must carry the full pipeline: every
        // mode compiles, schedules verify (per-pair latencies, per-link
        // occupancy), and the II-skip stays disarmed (debug builds assert
        // any armed skip, so compiling at all exercises that path).
        let ddg = comm_bound();
        for spec in [
            "4c-ring1l64r",
            "4c-ring2l64r",
            "4c-xbar1l64r",
            "2c-xbar2l64r",
        ] {
            let m = machine(spec);
            for mode in Mode::ALL {
                let out = compile_loop(&ddg, &m, &CompileOptions { mode, max_ii: None })
                    .unwrap_or_else(|e| panic!("{spec} {}: {e}", mode.name()));
                out.schedule
                    .verify(&ddg, &m)
                    .unwrap_or_else(|e| panic!("{spec} {}: {e}", mode.name()));
                assert!(
                    out.stats.final_coms <= m.coms_capacity_per_ii(out.stats.ii),
                    "{spec} {}: capacity respected",
                    mode.name()
                );
            }
        }
    }

    #[test]
    fn crossbar_needs_less_replication_than_the_bus() {
        // Pair-dedicated links give the crossbar far more aggregate
        // bandwidth than one shared bus, so the replication engine has
        // less to do — the scenario the topology appendix measures.
        let ddg = comm_bound();
        let bus = compile_loop(&ddg, &machine("4c1b2l64r"), &CompileOptions::replicate()).unwrap();
        let xbar =
            compile_loop(&ddg, &machine("4c-xbar1l64r"), &CompileOptions::replicate()).unwrap();
        assert!(
            xbar.stats.replication.added_instances() <= bus.stats.replication.added_instances(),
            "crossbar {} vs bus {}",
            xbar.stats.replication.added_instances(),
            bus.stats.replication.added_instances()
        );
        assert!(xbar.stats.ii <= bus.stats.ii);
    }

    #[test]
    fn ii_cap_is_reported() {
        // A clustered machine with one bus but II capped below what the
        // communications need.
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let opts = CompileOptions {
            mode: Mode::Baseline,
            max_ii: Some(1),
        };
        match compile_loop(&ddg, &m, &opts) {
            Err(CompileError::IiLimitExceeded { max_ii, .. }) => assert_eq!(max_ii, 1),
            other => panic!("expected cap error, got {other:?}"),
        }
    }

    #[test]
    fn zero_bus_mode_is_marked() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let out = compile_loop(&ddg, &m, &CompileOptions::zero_bus()).unwrap();
        assert!(out.schedule.is_zero_bus_relaxed());
        let normal = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        assert!(out.schedule.length() <= normal.schedule.length());
    }

    #[test]
    fn sched_len_mode_compiles_and_verifies() {
        let ddg = comm_bound();
        let m = machine("4c2b2l64r");
        let out = compile_loop(&ddg, &m, &CompileOptions::sched_len()).unwrap();
        out.schedule.verify(&ddg, &m).unwrap();
        let normal = compile_loop(&ddg, &m, &CompileOptions::replicate()).unwrap();
        assert!(
            out.stats.ii <= normal.stats.ii + 1,
            "extension must not wreck the II"
        );
    }

    #[test]
    fn mode_index_matches_position_in_all() {
        for (i, m) in Mode::ALL.into_iter().enumerate() {
            assert_eq!(m.index() as usize, i, "{m:?}");
        }
    }

    #[test]
    fn cancelled_token_stops_the_sweep_and_leaves_the_context_reusable() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let ctx = CompileContext::new(&ddg, &m);
        let token = ctx.cancel_token();
        token.cancel();
        let opts = CompileOptions::replicate();
        match compile_loop_ctx(&ddg, &m, &opts, &ctx) {
            Err(CompileError::Cancelled { ii_reached }) => {
                assert_eq!(ii_reached, ctx.analysis().mii());
            }
            other => panic!("expected cancellation, got {other:?}"),
        }
        // Reset and the same context compiles cleanly — no memo was left
        // half-written by the bail-out.
        token.reset();
        let stats = compile_stats_ctx(&ddg, &m, &opts, &ctx).unwrap();
        let oracle = compile_stats(&ddg, &m, &opts).unwrap();
        assert_eq!(stats, oracle, "post-cancel compile diverged");
    }

    #[test]
    fn expired_deadline_cancels_and_disarming_restores() {
        let ddg = comm_bound();
        let m = machine("4c1b2l64r");
        let ctx = CompileContext::new(&ddg, &m);
        let token = ctx.cancel_token();
        token.arm_deadline(Instant::now() - std::time::Duration::from_millis(1));
        assert!(matches!(
            compile_loop_ctx(&ddg, &m, &CompileOptions::replicate(), &ctx),
            Err(CompileError::Cancelled { .. })
        ));
        token.disarm_deadline();
        assert!(compile_loop_ctx(&ddg, &m, &CompileOptions::replicate(), &ctx).is_ok());
    }
}
