//! The acquisition executor: one claim → capture → fold pipeline that
//! captures a stimulus schedule on a `std::thread` worker pool,
//! isolating and recovering from per-trace failures.
//!
//! Workers claim index ranges, capture them on the event-driven or the
//! bit-sliced engine, and fold each trace into a chunk-local
//! [`FoldState`] leaf of the [`FOLD_CHUNK`] grid that
//! `leakage_core::online` owns; the caller's thread checkpoints new
//! traces and pushes each leaf into that grid's [`TreeReducer`], which
//! hands leaves to an observer in schedule order. [`fold_schedule_into`]
//! returns the merged state. [`capture_schedule_with`] is the same run
//! with an empty fold that keeps every trace in its schedule slot.
//!
//! Determinism: trace `i`'s value depends only on the (pre-computed)
//! schedule entry `i` and its per-trace seed `trace_seed(base_seed, i)`
//! — never on which worker captured it or when. Workers pull fixed-size
//! index chunks from a shared atomic cursor (dynamic load balancing: the
//! seven netlists differ ~10× in event count per trace) and results are
//! written back by index, so the output is bit-identical for any worker
//! count, including 1.
//!
//! Fault tolerance: each capture runs inside `catch_unwind`, so one
//! panicking trace cannot unwind the worker scope and lose everything
//! already captured. A failed index is retried up to
//! [`ExecPolicy::max_retries`] times — the per-trace seed is re-derived,
//! so a successful retry is bit-identical to a never-failed capture —
//! and an index that keeps failing is **quarantined** into the
//! [`ExecutorReport`] while the rest of the run completes. When a
//! [`ResumeState`] carries a checkpoint, completed traces stream to it
//! as they arrive and previously checkpointed indices are skipped, so a
//! killed run resumes instead of restarting.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use acquisition::{trace_seed, Backend, Stimulus};
use gatesim::{
    BitslicedSession, CaptureSession, CaptureStats, LaneStimulus, SamplingConfig, Simulator, LANES,
};
use leakage_core::online::{ChunkObserver, FoldState, Merge, TreeReducer, FOLD_CHUNK};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::fault::{FaultPlan, InjectedFault};
use crate::store::CheckpointWriter;

/// What one worker did, for the utilization report.
#[derive(Debug, Clone)]
pub struct WorkerLoad {
    /// Traces this worker captured.
    pub traces: usize,
    /// Wall-clock time this worker spent capturing (not waiting).
    pub busy: Duration,
}

/// One schedule index the executor gave up on: every allowed attempt
/// panicked or failed validation.
#[derive(Debug, Clone)]
pub struct CaptureFailure {
    /// The schedule index that could not be captured.
    pub index: usize,
    /// Capture attempts made (1 + retries).
    pub attempts: u32,
    /// The final failure's message.
    pub message: String,
}

/// A shareable cancellation flag: clone it, hand one clone to the run,
/// trip the other from anywhere (another thread, a signal handler, a
/// job-server frontend). The executor polls it at chunk boundaries.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cooperative cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before completing its schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The wall-clock deadline expired.
    Deadline,
    /// The new-trace budget was spent.
    TraceBudget,
    /// The run's [`CancelToken`] was tripped.
    Cancelled,
}

impl fmt::Display for StopCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopCause::Deadline => write!(f, "deadline expired"),
            StopCause::TraceBudget => write!(f, "trace budget spent"),
            StopCause::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A typed record of an early stop: the cause, and how many schedule
/// indices were left uncaptured (they stay in the checkpoint's future).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interruption {
    /// What stopped the run.
    pub cause: StopCause,
    /// Schedule indices not captured, resumed, or quarantined.
    pub remaining: usize,
}

/// Resource limits for one run: a wall-clock time limit, a cap on newly
/// captured traces, and a cooperative [`CancelToken`]. All unlimited by
/// default.
///
/// Budgets are enforced at **chunk boundaries**: workers stop claiming
/// chunks once any limit trips, in-flight chunks complete normally, the
/// checkpoint gets a final sync, and the report carries a typed
/// [`Interruption`]. Because a chunk either completes or was never
/// claimed, an interrupted run's checkpoint holds only whole, verified
/// frames — resuming it reproduces the uninterrupted run bit for bit.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Stop claiming work this long after the run starts.
    pub time_limit: Option<Duration>,
    /// Stop after at least this many *new* captures (resumed traces are
    /// free). The overshoot is at most one chunk per worker.
    pub max_new_traces: Option<usize>,
    /// Cooperative cancellation flag, polled at chunk boundaries.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// No limits (the production default).
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Whether every limit is absent.
    pub fn is_unlimited(&self) -> bool {
        self.time_limit.is_none() && self.max_new_traces.is_none() && self.cancel.is_none()
    }

    /// Set the wall-clock time limit.
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Set the new-trace cap.
    pub fn with_max_new_traces(mut self, max: usize) -> Self {
        self.max_new_traces = Some(max);
        self
    }

    /// Attach a cancellation token (keep a clone to trip it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Shared budget enforcement: workers ask [`BudgetGate::should_stop`]
/// before claiming each chunk; the first tripped limit is recorded and
/// every later check short-circuits to "stop".
struct BudgetGate {
    deadline: Option<Instant>,
    max_new: Option<usize>,
    cancel: Option<CancelToken>,
    captured: AtomicUsize,
    /// 0 = running; otherwise the encoded [`StopCause`] + 1.
    stop: AtomicUsize,
}

impl BudgetGate {
    fn new(budget: &RunBudget) -> Self {
        Self {
            deadline: budget.time_limit.map(|limit| Instant::now() + limit),
            max_new: budget.max_new_traces,
            cancel: budget.cancel.clone(),
            captured: AtomicUsize::new(0),
            stop: AtomicUsize::new(0),
        }
    }

    fn note_captured(&self, n: usize) {
        if n > 0 {
            self.captured.fetch_add(n, Ordering::Relaxed);
        }
    }

    fn should_stop(&self) -> bool {
        if self.stop.load(Ordering::Relaxed) != 0 {
            return true;
        }
        let cause = if self.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            Some(StopCause::Cancelled)
        } else if self.deadline.is_some_and(|d| Instant::now() >= d) {
            Some(StopCause::Deadline)
        } else if self
            .max_new
            .is_some_and(|m| self.captured.load(Ordering::Relaxed) >= m)
        {
            Some(StopCause::TraceBudget)
        } else {
            None
        };
        match cause {
            Some(c) => {
                let code = match c {
                    StopCause::Deadline => 1,
                    StopCause::TraceBudget => 2,
                    StopCause::Cancelled => 3,
                };
                // First cause wins; racing workers may observe different
                // causes in the same instant, but only one is recorded.
                let _ = self
                    .stop
                    .compare_exchange(0, code, Ordering::Relaxed, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    fn cause(&self) -> Option<StopCause> {
        match self.stop.load(Ordering::Relaxed) {
            0 => None,
            1 => Some(StopCause::Deadline),
            2 => Some(StopCause::TraceBudget),
            _ => Some(StopCause::Cancelled),
        }
    }
}

/// Execution policy: parallelism, failure handling, and resource
/// budgets.
#[derive(Debug, Clone)]
pub struct ExecPolicy {
    /// Worker threads; 0 means all available cores.
    pub workers: usize,
    /// Retries per failing index after its first attempt. Retries
    /// re-derive the same per-trace seed, so a recovered capture is
    /// bit-identical to one that never failed.
    pub max_retries: u32,
    /// Fault-injection plan (inert by default).
    pub faults: FaultPlan,
    /// Deadline / trace cap / cancellation (unlimited by default).
    pub budget: RunBudget,
    /// Per-capture watchdog: an attempt that takes longer than this is
    /// discarded and counted as a failed (retryable) attempt, so one
    /// pathologically slow capture degrades to a quarantined index
    /// instead of wedging its worker. Cooperative — the attempt must
    /// return before the overrun is seen — so it bounds damage from
    /// *slow* captures; a truly wedged simulation needs process-level
    /// supervision. On the bit-sliced backend the watchdog applies to
    /// the scalar-routed indices only (a batch pass is one uniform
    /// levelized sweep, not a per-trace event loop).
    pub capture_timeout: Option<Duration>,
    /// Capture engine. [`Backend::Bitsliced`] and [`Backend::Auto`]
    /// claim work in [`LANES`]-sized batches, so a [`RunBudget`]'s
    /// overshoot bound grows from one chunk to one batch per
    /// worker; everything else — trace values, retry/quarantine
    /// behaviour, fold results — is bit-identical to the event engine.
    pub backend: Backend,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        Self {
            workers: 0,
            max_retries: 2,
            faults: FaultPlan::none(),
            budget: RunBudget::unlimited(),
            capture_timeout: None,
            backend: Backend::Event,
        }
    }
}

/// What a resumed run already knows, and where new progress should be
/// flushed.
#[derive(Debug, Default)]
pub struct ResumeState<'a> {
    /// Traces completed by a previous (killed or quarantined) run, as
    /// `(schedule index, samples)`. Out-of-range indices are ignored.
    pub completed: Vec<(usize, Vec<f64>)>,
    /// Checkpoint sink for newly completed traces (`None` = no
    /// checkpointing). Write failures degrade to a warning in the
    /// report; they never fail the run.
    pub checkpoint: Option<&'a mut CheckpointWriter>,
    /// Sync the checkpoint after this many newly captured traces
    /// (0 = only at the end of the run).
    pub sync_every: usize,
}

impl ResumeState<'_> {
    /// A run starting from nothing, with no checkpointing.
    pub fn fresh() -> Self {
        Self::default()
    }
}

/// Timing and accounting of one executor run.
#[derive(Debug, Clone)]
pub struct ExecutorReport {
    /// Worker count actually used.
    pub workers: usize,
    /// Per-worker load.
    pub loads: Vec<WorkerLoad>,
    /// End-to-end wall time of the parallel section.
    pub wall: Duration,
    /// Aggregated simulator event counters (newly simulated traces only
    /// — resumed traces cost zero events).
    pub stats: CaptureStats,
    /// Indices that failed at least once but succeeded on a retry.
    pub retried: usize,
    /// Indices that failed every allowed attempt. They fold zero times,
    /// and their slots in [`capture_schedule_with`]'s traces are empty.
    pub quarantined: Vec<CaptureFailure>,
    /// Traces served from the resume state instead of simulated.
    pub resumed: usize,
    /// Largest number of newly captured traces resident in memory at
    /// once. For [`fold_schedule_into`] it is bounded by
    /// `O(workers × FOLD_CHUNK)`, independent of schedule length. Always 0
    /// for [`capture_schedule_with`], which keeps every trace by design.
    pub peak_resident: usize,
    /// Merge depth of the final fold state: 0 for single-chunk runs and
    /// for [`capture_schedule_with`], whose fold is empty.
    pub merge_depth: usize,
    /// Set when a [`RunBudget`] limit stopped the run before the
    /// schedule completed; the results cover a prefix of the work and
    /// the checkpoint (if any) is valid for resuming.
    pub interrupted: Option<Interruption>,
    /// The engine that actually captured newly simulated traces:
    /// [`Backend::Bitsliced`] when the fast path ran, [`Backend::Event`]
    /// otherwise (including a requested-but-unsupported bitsliced run,
    /// which also records a warning). Never [`Backend::Auto`] — that
    /// request resolves before capture starts.
    pub backend: Backend,
    /// Fraction of bit-sliced lane slots that carried real stimuli,
    /// over all batch passes (`< 1.0` when `traces % LANES` leaves a
    /// partial final batch, or when faulted indices were routed to the
    /// scalar path). `None` on the event engine or when no batch ran.
    pub lane_utilization: Option<f64>,
    /// Non-fatal degradations (checkpoint write failures, …).
    pub warnings: Vec<String>,
}

impl ExecutorReport {
    /// Fraction of `workers × wall` spent capturing (1.0 = perfectly
    /// balanced, no idle tails).
    pub fn utilization(&self) -> f64 {
        let busy: f64 = self.loads.iter().map(|l| l.busy.as_secs_f64()).sum();
        let capacity = self.wall.as_secs_f64() * self.workers as f64;
        if capacity > 0.0 {
            (busy / capacity).min(1.0)
        } else {
            1.0
        }
    }

    /// Traces captured per second of wall time.
    pub fn traces_per_sec(&self) -> f64 {
        let n: usize = self.loads.iter().map(|l| l.traces).sum();
        if self.wall.as_secs_f64() > 0.0 {
            n as f64 / self.wall.as_secs_f64()
        } else {
            f64::INFINITY
        }
    }
}

/// Resolve a requested worker count: 0 means "all available cores".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// Lane occupancy of the bit-sliced batch passes a worker ran (zero on
/// the event engine).
#[derive(Debug, Clone, Copy, Default)]
struct LaneUse {
    /// Batch passes executed.
    batches: usize,
    /// Lane slots that carried real stimuli, summed over those passes.
    lanes: usize,
}

impl LaneUse {
    fn merge(&mut self, other: LaneUse) {
        self.batches += other.batches;
        self.lanes += other.lanes;
    }

    /// `lanes / (batches × LANES)`, or `None` if no batch ran.
    fn utilization(self) -> Option<f64> {
        (self.batches > 0).then(|| self.lanes as f64 / (self.batches * LANES) as f64)
    }
}

/// Resolve the policy's requested backend against the simulator's
/// netlist with [`Backend::resolve`]. Where that refuses an explicit
/// [`Backend::Bitsliced`] request, the run degrades to the event engine
/// *with a recorded warning*.
fn resolve_backend(
    sim: &Simulator<'_>,
    policy: &ExecPolicy,
    warnings: &mut Vec<String>,
) -> Backend {
    match policy.backend.resolve(sim) {
        Ok(Some(_)) => Backend::Bitsliced,
        Ok(None) => Backend::Event,
        Err(e) => {
            warnings.push(format!(
                "bitsliced backend unavailable for this netlist, using the \
                 event-driven engine: {e}"
            ));
            Backend::Event
        }
    }
}

/// One worker's capture engines: the scalar event-driven session
/// (always present — the retry, fault-injection, and validation-failure
/// paths run on it) plus the bit-sliced batch session when the resolved
/// backend is [`Backend::Bitsliced`].
struct WorkerEngine<'s> {
    scalar: CaptureSession<'s>,
    batch: Option<BitslicedSession<'s>>,
}

impl<'s> WorkerEngine<'s> {
    fn new(sim: &'s Simulator<'_>, backend: Backend) -> Self {
        Self {
            scalar: sim.session(),
            // `backend` is already resolved (never `Auto`), and the
            // support check is a pure function of the netlist.
            batch: backend.resolve(sim).expect("support probed at run start"),
        }
    }

    /// Indices claimed per cursor advance: a full lane batch on the
    /// bit-sliced engine, one merge-tree leaf on the event engine (small
    /// enough to balance the ~10× per-scheme cost spread, large enough
    /// that the atomic cursor never contends).
    fn claim(&self) -> usize {
        if self.batch.is_some() {
            LANES
        } else {
            FOLD_CHUNK
        }
    }
}

/// Whether `index` must be captured on the scalar event-driven path
/// even under the bit-sliced backend: validation failures quarantine
/// through the scalar path's typed error, and indices with scheduled
/// capture faults or delays go through its `catch_unwind`/retry/
/// watchdog loop so fault-injection semantics (and the resulting
/// reports) are backend-independent.
fn needs_scalar_path(
    stimulus: &Stimulus,
    expected_inputs: usize,
    index: usize,
    policy: &ExecPolicy,
) -> bool {
    stimulus.validate(expected_inputs).is_err()
        || policy.faults.capture_fault_due(index, 0)
        || policy.faults.capture_delay(index, 0).is_some()
}

/// Capture `schedule` under an explicit [`ExecPolicy`] and
/// [`ResumeState`], keeping every trace.
///
/// Returns the traces in schedule order plus the run report. Quarantined
/// indices (listed in [`ExecutorReport::quarantined`]) keep an empty
/// `Vec` in their slot, as do indices a budget interruption never
/// claimed. This is a [`fold_schedule_into`] run with an empty fold:
/// every newly captured trace moves into its slot as its chunk arrives,
/// and resumed traces move into theirs at the end. With one worker
/// everything runs inline on the caller's thread (no pool overhead),
/// which also serves as the reference for the determinism guarantee.
pub fn capture_schedule_with(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    policy: &ExecPolicy,
    resume: ResumeState<'_>,
) -> (Vec<Vec<f64>>, ExecutorReport) {
    let mut traces = vec![Vec::new(); schedule.len()];
    let (NoFold, report) = run(
        sim,
        schedule,
        sampling,
        base_seed,
        policy,
        resume,
        &|| NoFold,
        None,
        Some(traces.as_mut_slice()),
    );
    (traces, report)
}

/// The fold state of a run that keeps its raw traces instead: there is
/// nothing to fold, the traces themselves are the result.
#[derive(Clone)]
pub(crate) struct NoFold;

impl Merge for NoFold {
    fn merge(self, _later: Self) -> Self {
        self
    }
}

impl FoldState for NoFold {
    fn fold(&mut self, _label: u16, _trace: &[f64]) {}
}

/// One worker's progress on one merge-tree leaf of the schedule.
struct Chunk<S> {
    worker: usize,
    /// Position of this chunk in the schedule's chunk sequence — the
    /// leaf index of the deterministic merge tree.
    seq: u64,
    acc: S,
    /// Newly captured traces, retained only while a checkpoint sink or
    /// the caller's trace slots need them; empty otherwise.
    raw: Vec<(usize, Vec<f64>)>,
    captured: usize,
    failures: Vec<CaptureFailure>,
    stats: CaptureStats,
    busy: Duration,
    retried: usize,
    lanes: LaneUse,
}

/// Shared context of one run: read-only inputs plus the atomics every
/// worker updates.
struct Ctx<'a, S> {
    schedule: &'a [Stimulus],
    sampling: &'a SamplingConfig,
    base_seed: u64,
    policy: &'a ExecPolicy,
    /// Constructor for empty chunk-local fold states.
    make: &'a (dyn Fn() -> S + Sync),
    /// Traces completed by a previous run, folded in place of
    /// re-simulation at their schedule position.
    resumed: HashMap<usize, Vec<f64>>,
    /// Whether workers must retain raw traces for the collector.
    keep_raw: bool,
    gate: BudgetGate,
    /// Newly captured traces currently resident (shared counter) and
    /// its high-water mark.
    resident: AtomicUsize,
    peak: AtomicUsize,
}

impl<S> Ctx<'_, S> {
    fn note_resident(&self) {
        let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn release_resident(&self, n: usize) {
        if n > 0 {
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
    }
}

/// Capture `schedule` and fold every trace into a caller-supplied
/// [`FoldState`] instead of retaining it: memory is the fold state plus
/// `O(workers × FOLD_CHUNK)` traces in flight, independent of schedule
/// length. Any streaming consumer plugs in here — spectral
/// accumulators, the attack engine's co-moment state, or composites
/// folding several analyses in one pass over the traces.
///
/// `make` constructs an empty chunk-local state; the caller's thread
/// merges chunk states with a [`TreeReducer`] keyed by chunk position.
/// The folded result never depends on the worker count or chunk
/// completion order because the fold states sum exactly, so any
/// grouping of chunks gives the same bits; the tree only orders what
/// `observer` sees and bounds how many states stay buffered.
/// Quarantined indices fold zero times, a retried index folds exactly
/// once, and resumed traces fold at their schedule position without
/// being re-simulated (checkpointed refold-on-resume); newly captured
/// traces stream to the [`ResumeState`] checkpoint as they arrive.
///
/// `observer` (if any) is the merge tree's ([`TreeReducer::observed`]):
/// it sees every chunk-local state in ascending chunk order *before* it
/// is merged, enabling single-pass prefix trajectories; buffering for
/// in-order delivery is bounded by the number of in-flight chunks
/// (≤ workers + channel capacity).
///
/// The report's [`peak_resident`](ExecutorReport::peak_resident) and
/// [`merge_depth`](ExecutorReport::merge_depth) are live in this mode.
/// Resumed traces are held in memory for the duration of the run (they
/// arrive as a batch from the checkpoint reader) and are not counted by
/// `peak_resident`, which tracks newly captured traces only.
#[allow(clippy::too_many_arguments)]
pub fn fold_schedule_into<S, F>(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    policy: &ExecPolicy,
    resume: ResumeState<'_>,
    make: &F,
    observer: Option<ChunkObserver<'_, S>>,
) -> (S, ExecutorReport)
where
    S: FoldState,
    F: Fn() -> S + Sync,
{
    run(
        sim, schedule, sampling, base_seed, policy, resume, make, observer, None,
    )
}

/// The one claim → capture → fold pipeline behind both entry points.
/// `slots`, when given, receives every trace — newly captured or
/// resumed — at its schedule index, and the run reports no resident
/// bound (it keeps everything by design).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<S: FoldState>(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    policy: &ExecPolicy,
    resume: ResumeState<'_>,
    make: &(dyn Fn() -> S + Sync),
    observer: Option<ChunkObserver<'_, S>>,
    slots: Option<&mut [Vec<f64>]>,
) -> (S, ExecutorReport) {
    let workers = resolve_workers(policy.workers).min(schedule.len()).max(1);
    let started = Instant::now();
    let mut warnings = Vec::new();
    let backend = resolve_backend(sim, policy, &mut warnings);

    let mut resumed: HashMap<usize, Vec<f64>> = HashMap::new();
    for (index, samples) in resume.completed {
        if index < schedule.len() {
            resumed.entry(index).or_insert(samples);
        }
    }
    let ctx = Ctx {
        schedule,
        sampling,
        base_seed,
        policy,
        make,
        resumed,
        keep_raw: resume.checkpoint.is_some() || slots.is_some(),
        gate: BudgetGate::new(&policy.budget),
        resident: AtomicUsize::new(0),
        peak: AtomicUsize::new(0),
    };
    let mut collector = Collector {
        loads: vec![
            WorkerLoad {
                traces: 0,
                busy: Duration::ZERO,
            };
            workers
        ],
        stats: CaptureStats::default(),
        retried: 0,
        quarantined: Vec::new(),
        lanes: LaneUse::default(),
        sink: CheckpointSink {
            writer: resume.checkpoint,
            sync_every: resume.sync_every,
            since_sync: 0,
            warning: None,
        },
        reducer: TreeReducer::observed(observer),
        slots,
    };

    let cursor = AtomicUsize::new(0);
    if workers == 1 {
        work(sim, backend, &ctx, &cursor, 0, &mut |chunk| {
            collector.absorb(chunk, &ctx);
            true
        });
    } else {
        // A *bounded* channel: workers block once `workers` chunks are
        // queued, so the number of raw traces in flight cannot grow with
        // schedule length even if the collector falls behind. (On the
        // bit-sliced backend a worker additionally holds one lane batch
        // of raw traces while it slices the batch into chunks — see
        // `fold_claim`.)
        let (tx, rx) = mpsc::sync_channel::<Chunk<S>>(workers);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                let (ctx, cursor) = (&ctx, &cursor);
                scope.spawn(move || {
                    // The receiver outlives the workers; a send can only
                    // fail if the parent panicked, in which case the
                    // scope unwinds anyway.
                    work(sim, backend, ctx, cursor, worker, &mut |chunk| {
                        tx.send(chunk).is_ok()
                    });
                });
            }
            drop(tx);
            // Collect on the caller's thread while workers run, so
            // checkpoint frames land on disk as progress is made, not
            // after the fact.
            for chunk in rx {
                collector.absorb(chunk, &ctx);
            }
        });
    }

    let Collector {
        loads,
        stats,
        retried,
        mut quarantined,
        lanes,
        sink,
        reducer,
        slots,
    } = collector;
    sink.finish(&mut warnings);
    quarantined.sort_by_key(|f| f.index);

    let resumed = ctx.resumed.len();
    let captured: usize = loads.iter().map(|l| l.traces).sum();
    let interrupted = ctx.gate.cause().map(|cause| Interruption {
        cause,
        remaining: schedule.len() - resumed - captured - quarantined.len(),
    });
    let peak_resident = match slots {
        Some(slots) => {
            for (index, trace) in ctx.resumed {
                slots[index] = trace;
            }
            0
        }
        None => ctx.peak.load(Ordering::Relaxed),
    };

    let acc = reducer.finish().unwrap_or_else(make);
    let report = ExecutorReport {
        workers,
        loads,
        wall: started.elapsed(),
        stats,
        retried,
        quarantined,
        resumed,
        peak_resident,
        merge_depth: acc.merge_depth(),
        interrupted,
        backend,
        lane_utilization: lanes.utilization(),
        warnings,
    };
    (acc, report)
}

/// The caller's side of a run: totals merged from every chunk, the
/// checkpoint, the merge tree, and (on the batch path) the trace slots.
struct Collector<'a, 'o, S> {
    loads: Vec<WorkerLoad>,
    stats: CaptureStats,
    retried: usize,
    quarantined: Vec<CaptureFailure>,
    lanes: LaneUse,
    sink: CheckpointSink<'a>,
    /// The merge tree; its observer (if any) sees each chunk in order.
    reducer: TreeReducer<'o, S>,
    slots: Option<&'a mut [Vec<f64>]>,
}

impl<S: FoldState> Collector<'_, '_, S> {
    /// Fold one chunk's outcome into the run totals, the checkpoint, the
    /// trace slots, and the merge tree.
    fn absorb(&mut self, chunk: Chunk<S>, ctx: &Ctx<'_, S>) {
        let load = &mut self.loads[chunk.worker];
        load.traces += chunk.captured;
        load.busy += chunk.busy;
        self.stats.merge(&chunk.stats);
        self.retried += chunk.retried;
        self.quarantined.extend(chunk.failures);
        self.lanes.merge(chunk.lanes);
        let raw_len = chunk.raw.len();
        for (index, trace) in chunk.raw {
            self.sink.push(index, ctx.schedule[index].label, &trace);
            if let Some(slots) = self.slots.as_deref_mut() {
                slots[index] = trace;
            }
        }
        ctx.release_resident(raw_len);
        self.reducer.push(chunk.seq, chunk.acc);
    }
}

/// One worker's claim loop: take the next range from the shared cursor
/// until the schedule or the budget runs out, handing every chunk to
/// `emit` (which returns `false` once the collector is gone).
fn work<S: FoldState>(
    sim: &Simulator<'_>,
    backend: Backend,
    ctx: &Ctx<'_, S>,
    cursor: &AtomicUsize,
    worker: usize,
    emit: &mut dyn FnMut(Chunk<S>) -> bool,
) {
    // One persistent engine per worker, reused for its entire shard
    // (retries included). Sessions only borrow the simulator, so this is
    // free of synchronization.
    let mut engine = WorkerEngine::new(sim, backend);
    while !ctx.gate.should_stop() {
        let start = cursor.fetch_add(engine.claim(), Ordering::Relaxed);
        if start >= ctx.schedule.len() {
            break;
        }
        let end = (start + engine.claim()).min(ctx.schedule.len());
        if !fold_claim(&mut engine, ctx, worker, start..end, emit) {
            break;
        }
    }
}

/// Capture and fold every index in `range` on the worker's engine,
/// emitting one [`Chunk`] per merge-tree leaf the range covers, in
/// ascending sequence, so the reduction tree is the same on either
/// backend. Returns `false` if `emit` refused a chunk.
///
/// On the event engine the range *is* one leaf and every index runs on
/// the scalar session. On the bit-sliced engine one levelized sweep
/// first captures every batchable lane of the claim (up to
/// `LANES / FOLD_CHUNK` leaves); resumed traces and scalar-routed indices
/// (validation failures and fault-injected captures, which keep the
/// event session's retry/quarantine semantics so reports are
/// backend-independent) fold exactly where the event engine would fold
/// them.
fn fold_claim<S: FoldState>(
    engine: &mut WorkerEngine<'_>,
    ctx: &Ctx<'_, S>,
    worker: usize,
    range: Range<usize>,
    emit: &mut dyn FnMut(Chunk<S>) -> bool,
) -> bool {
    let mut t_mark = Instant::now();
    let expected = engine.scalar.simulator().netlist().num_inputs();
    let batchable: Vec<usize> = match engine.batch {
        Some(_) => range
            .clone()
            .filter(|&i| {
                !ctx.resumed.contains_key(&i)
                    && !needs_scalar_path(&ctx.schedule[i], expected, i, ctx.policy)
            })
            .collect(),
        None => Vec::new(),
    };
    let mut lanes = LaneUse::default();
    // `None` means the sweep panicked (never expected): every batchable
    // index then degrades to per-index scalar capture below, under the
    // standard retry loop.
    let mut swept: Option<(Vec<Vec<f64>>, Vec<CaptureStats>)> = Some((Vec::new(), Vec::new()));
    if let (Some(batch), false) = (&mut engine.batch, batchable.is_empty()) {
        let lane_stimuli: Vec<LaneStimulus<'_>> = batchable
            .iter()
            .map(|&i| LaneStimulus {
                initial: &ctx.schedule[i].initial,
                final_inputs: &ctx.schedule[i].final_inputs,
                noise_seed: trace_seed(ctx.base_seed, i as u64),
            })
            .collect();
        swept = panic::catch_unwind(AssertUnwindSafe(|| {
            let (traces, stats) = batch.capture_batch(&lane_stimuli, ctx.sampling);
            (traces.to_vec(), stats.to_vec())
        }))
        .ok();
        if swept.is_some() {
            lanes = LaneUse {
                batches: 1,
                lanes: batchable.len(),
            };
        }
    }

    let mut next_batch = 0usize;
    for chunk_start in range.clone().step_by(FOLD_CHUNK) {
        let chunk_end = (chunk_start + FOLD_CHUNK).min(range.end);
        let mut chunk = Chunk {
            worker,
            seq: (chunk_start / FOLD_CHUNK) as u64,
            acc: (ctx.make)(),
            raw: Vec::new(),
            captured: 0,
            failures: Vec::new(),
            stats: CaptureStats::default(),
            busy: Duration::ZERO,
            retried: 0,
            lanes: std::mem::take(&mut lanes),
        };
        for index in chunk_start..chunk_end {
            let stimulus = &ctx.schedule[index];
            if let Some(trace) = ctx.resumed.get(&index) {
                chunk.acc.fold(stimulus.label, trace);
                continue;
            }
            let outcome = match &mut swept {
                Some((traces, stats)) if batchable.get(next_batch) == Some(&index) => {
                    let k = next_batch;
                    next_batch += 1;
                    Ok((std::mem::take(&mut traces[k]), stats[k], 1))
                }
                _ => capture_index(
                    &mut engine.scalar,
                    stimulus,
                    ctx.sampling,
                    ctx.base_seed,
                    index,
                    ctx.policy,
                ),
            };
            match outcome {
                Ok((trace, stats, attempts)) => {
                    chunk.stats.merge(&stats);
                    chunk.retried += usize::from(attempts > 1);
                    chunk.captured += 1;
                    ctx.note_resident();
                    chunk.acc.fold(stimulus.label, &trace);
                    if ctx.keep_raw {
                        chunk.raw.push((index, trace));
                    } else {
                        drop(trace);
                        ctx.release_resident(1);
                    }
                }
                Err(failure) => chunk.failures.push(failure),
            }
        }
        chunk.busy = t_mark.elapsed();
        t_mark = Instant::now();
        ctx.gate.note_captured(chunk.captured);
        if !emit(chunk) {
            return false;
        }
    }
    true
}

/// Capture one index with panic isolation and bounded, seed-stable
/// retries. Returns the trace, its stats, and how many attempts it took.
fn capture_index(
    session: &mut CaptureSession<'_>,
    stimulus: &Stimulus,
    sampling: &SamplingConfig,
    base_seed: u64,
    index: usize,
    policy: &ExecPolicy,
) -> Result<(Vec<f64>, CaptureStats, u32), CaptureFailure> {
    // A stimulus that cannot fit this simulator fails the same way on
    // every attempt — quarantine immediately with a typed message
    // instead of burning retries on panics.
    if let Err(e) = stimulus.validate(session.simulator().netlist().num_inputs()) {
        return Err(CaptureFailure {
            index,
            attempts: 1,
            message: e.to_string(),
        });
    }
    let attempts = policy.max_retries + 1;
    let mut last = String::new();
    for attempt in 0..attempts {
        // Re-derived fresh each attempt: a retry replays the identical
        // noise stream, so recovery is bit-identical. The session resets
        // its scratch on entry, so a panicked attempt cannot leak state
        // into the retry.
        let mut noise = SmallRng::seed_from_u64(trace_seed(base_seed, index as u64));
        let attempt_started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            policy.faults.maybe_inject_capture(index, attempt);
            if let Some(delay) = policy.faults.capture_delay(index, attempt) {
                std::thread::sleep(delay);
            }
            // One owned trace per kept capture: it moves into its chunk.
            let mut trace = Vec::new();
            let stats = session.capture_into(
                &stimulus.initial,
                &stimulus.final_inputs,
                sampling,
                &mut noise,
                &mut trace,
            );
            (trace, stats)
        }));
        match outcome {
            Ok((trace, stats)) => {
                // Cooperative watchdog: an attempt that blew past the
                // per-capture budget is discarded and retried rather
                // than silently stretching the run. (A capture stuck in
                // an infinite loop cannot be preempted from safe code;
                // the watchdog bounds *slow* captures, and the retry
                // replays the identical seed so recovery stays
                // bit-identical.)
                if let Some(limit) = policy.capture_timeout {
                    let elapsed = attempt_started.elapsed();
                    if elapsed > limit {
                        last = format!(
                            "watchdog: capture attempt took {}ms (limit {}ms)",
                            elapsed.as_millis(),
                            limit.as_millis()
                        );
                        continue;
                    }
                }
                return Ok((trace, stats, attempt + 1));
            }
            Err(payload) => last = panic_message(payload.as_ref()),
        }
    }
    Err(CaptureFailure {
        index,
        attempts,
        message: last,
    })
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(fault) = payload.downcast_ref::<InjectedFault>() {
        fault.to_string()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "capture panicked with a non-string payload".to_string()
    }
}

/// Streams completed traces to the checkpoint, degrading to a warning
/// (and no further writes) on the first failure.
struct CheckpointSink<'a> {
    writer: Option<&'a mut CheckpointWriter>,
    sync_every: usize,
    since_sync: usize,
    warning: Option<String>,
}

impl CheckpointSink<'_> {
    fn push(&mut self, index: usize, label: u16, samples: &[f64]) {
        let Some(writer) = self.writer.as_deref_mut() else {
            return;
        };
        let outcome = writer.record(index as u32, label, samples).and_then(|()| {
            self.since_sync += 1;
            if self.sync_every > 0 && self.since_sync >= self.sync_every {
                self.since_sync = 0;
                writer.sync()
            } else {
                Ok(())
            }
        });
        if let Err(e) = outcome {
            self.warning = Some(format!(
                "checkpoint write failed ({e}); continuing without checkpoints"
            ));
            self.writer = None;
        }
    }

    fn finish(mut self, warnings: &mut Vec<String>) {
        if let Some(writer) = self.writer.take() {
            if let Err(e) = writer.sync() {
                self.warning = Some(format!("checkpoint final sync failed ({e})"));
            }
        }
        warnings.extend(self.warning.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::resume_checkpoint;
    use acquisition::{classified_schedule, ProtocolConfig};
    use leakage_core::online::{SpectrumAccumulator, SumMode};
    use sbox_circuits::{SboxCircuit, Scheme};

    fn small_config() -> ProtocolConfig {
        ProtocolConfig {
            traces_per_class: 4,
            ..ProtocolConfig::default()
        }
    }

    /// A clean batch capture of `schedule` on `workers` threads.
    fn capture(
        sim: &Simulator<'_>,
        schedule: &[Stimulus],
        config: &ProtocolConfig,
        workers: usize,
    ) -> (Vec<Vec<f64>>, ExecutorReport) {
        let policy = ExecPolicy {
            workers,
            ..ExecPolicy::default()
        };
        capture_schedule_with(
            sim,
            schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        )
    }

    /// A 16-class spectral fold of `schedule` under `policy`.
    fn fold(
        sim: &Simulator<'_>,
        schedule: &[Stimulus],
        config: &ProtocolConfig,
        policy: &ExecPolicy,
    ) -> (SpectrumAccumulator, ExecutorReport) {
        let make = || SpectrumAccumulator::new(16, config.sampling.samples, SumMode::Exact);
        fold_schedule_into(
            sim,
            schedule,
            &config.sampling,
            config.seed,
            policy,
            ResumeState::fresh(),
            &make,
            None,
        )
    }

    #[test]
    fn any_worker_count_is_bit_identical() {
        let circuit = SboxCircuit::build(Scheme::Rsm);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, r1) = capture(&sim, &schedule, &config, 1);
        assert_eq!(r1.workers, 1);
        for workers in [2, 3, 8] {
            let (traces, report) = capture(&sim, &schedule, &config, workers);
            assert_eq!(traces, reference, "{workers} workers");
            assert_eq!(
                report.loads.iter().map(|l| l.traces).sum::<usize>(),
                schedule.len()
            );
            assert_eq!(report.stats, r1.stats, "{workers} workers");
            assert!(report.quarantined.is_empty());
            assert_eq!(report.retried, 0);
            assert_eq!(report.resumed, 0);
        }
    }

    #[test]
    fn worker_resolution_and_utilization_bounds() {
        assert_eq!(resolve_workers(3), 3);
        assert!(resolve_workers(0) >= 1);
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (_, report) = capture(&sim, &schedule, &config, 2);
        let u = report.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u}");
        assert!(report.traces_per_sec() > 0.0);
        assert!(report.stats.events > 0);
    }

    #[test]
    fn bitsliced_backend_is_bit_identical_for_any_worker_count() {
        let circuit = SboxCircuit::build(Scheme::Rsm);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, event) = capture(&sim, &schedule, &config, 1);
        assert_eq!(event.backend, Backend::Event);
        assert_eq!(event.lane_utilization, None);
        for workers in [1usize, 2, 8] {
            for backend in [Backend::Bitsliced, Backend::Auto] {
                let policy = ExecPolicy {
                    workers,
                    backend,
                    ..ExecPolicy::default()
                };
                let (traces, report) = capture_schedule_with(
                    &sim,
                    &schedule,
                    &config.sampling,
                    config.seed,
                    &policy,
                    ResumeState::fresh(),
                );
                assert_eq!(traces, reference, "{workers} workers / {backend}");
                assert_eq!(report.stats, event.stats, "{workers} workers / {backend}");
                assert_eq!(report.backend, Backend::Bitsliced);
                let util = report.lane_utilization.expect("batch passes ran");
                // 64 traces in LANES-sized batches: one batch, 64 lanes.
                assert!((util - 64.0 / LANES as f64).abs() < 1e-12, "util {util}");
                assert!(report.warnings.is_empty());
            }
        }
    }

    #[test]
    fn bitsliced_fold_is_bit_identical_to_the_event_fold() {
        let circuit = SboxCircuit::build(Scheme::Glut);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, ref_report) = fold(
            &sim,
            &schedule,
            &config,
            &ExecPolicy {
                workers: 1,
                ..ExecPolicy::default()
            },
        );
        for workers in [1usize, 3, 8] {
            let policy = ExecPolicy {
                workers,
                backend: Backend::Bitsliced,
                ..ExecPolicy::default()
            };
            let (acc, report) = fold(&sim, &schedule, &config, &policy);
            assert_eq!(
                &acc, &reference,
                "{workers} workers: folded state must be bitwise"
            );
            assert_eq!(report.backend, Backend::Bitsliced);
            assert!(report.lane_utilization.is_some());
            assert_eq!(
                report.merge_depth, ref_report.merge_depth,
                "chunk sequence (and so the merge tree) must match the event path"
            );
        }
    }

    #[test]
    fn unsupported_netlist_falls_back_to_the_event_engine() {
        // A derating factor far below the engine's time resolution
        // drives effective delays under the bitsliced support threshold:
        // commit order is no longer reproducible from levelized
        // evaluation, so the static check must reject the netlist and
        // the executor must route the run to the event engine.
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let gates = circuit.netlist().gates().len();
        let derating = gatesim::Derating::from_factors(vec![1e-12; gates], vec![1.0; gates]);
        let sim = Simulator::with_derating(circuit.netlist(), &config.sim, &derating);
        assert!(
            sim.bitsliced_session().is_err(),
            "support check must reject"
        );
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);

        // An explicit bitsliced request degrades loudly…
        let policy = ExecPolicy {
            workers: 2,
            backend: Backend::Bitsliced,
            ..ExecPolicy::default()
        };
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(traces, reference);
        assert_eq!(report.backend, Backend::Event);
        assert_eq!(report.lane_utilization, None);
        assert!(
            report
                .warnings
                .iter()
                .any(|w| w.contains("bitsliced backend unavailable")),
            "{:?}",
            report.warnings
        );

        // …while auto degrades silently.
        let policy = ExecPolicy {
            workers: 2,
            backend: Backend::Auto,
            ..ExecPolicy::default()
        };
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(traces, reference);
        assert_eq!(report.backend, Backend::Event);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn bitsliced_faults_route_through_the_scalar_retry_path() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        for workers in [1usize, 4] {
            let policy = ExecPolicy {
                workers,
                max_retries: 2,
                faults: FaultPlan::none()
                    .with_transient_panics([0, 9, 31])
                    .with_sticky_panics([40]),
                backend: Backend::Bitsliced,
                ..ExecPolicy::default()
            };
            let (traces, report) = capture_schedule_with(
                &sim,
                &schedule,
                &config.sampling,
                config.seed,
                &policy,
                ResumeState::fresh(),
            );
            assert_eq!(report.retried, 3, "{workers} workers");
            assert_eq!(
                report
                    .quarantined
                    .iter()
                    .map(|f| f.index)
                    .collect::<Vec<_>>(),
                vec![40]
            );
            for (i, trace) in traces.iter().enumerate() {
                if i == 40 {
                    assert!(trace.is_empty());
                } else {
                    assert_eq!(*trace, reference[i], "trace {i} ({workers} workers)");
                }
            }
            // Faulted indices were carved out of the batch lanes.
            let util = report.lane_utilization.expect("batch ran");
            assert!((util - 60.0 / LANES as f64).abs() < 1e-12, "util {util}");
        }
    }

    #[test]
    fn transient_faults_are_retried_bit_identically() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        for workers in [1usize, 4] {
            let policy = ExecPolicy {
                workers,
                max_retries: 2,
                faults: FaultPlan::none().with_transient_panics([0, 9, 31, 63]),
                ..ExecPolicy::default()
            };
            let (traces, report) = capture_schedule_with(
                &sim,
                &schedule,
                &config.sampling,
                config.seed,
                &policy,
                ResumeState::fresh(),
            );
            assert_eq!(traces, reference, "{workers} workers");
            assert_eq!(report.retried, 4, "{workers} workers");
            assert!(report.quarantined.is_empty());
        }
    }

    #[test]
    fn sticky_faults_quarantine_without_losing_the_rest() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        let policy = ExecPolicy {
            workers: 3,
            max_retries: 1,
            faults: FaultPlan::none().with_sticky_panics([5, 40]),
            ..ExecPolicy::default()
        };
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|f| f.index)
                .collect::<Vec<_>>(),
            vec![5, 40]
        );
        assert!(report.quarantined.iter().all(|f| f.attempts == 2));
        assert!(report.quarantined[0].message.contains("injected"));
        for (i, trace) in traces.iter().enumerate() {
            if i == 5 || i == 40 {
                assert!(trace.is_empty(), "quarantined slot must stay empty");
            } else {
                assert_eq!(*trace, reference[i], "surviving trace {i}");
            }
        }
    }

    /// A malformed schedule entry fails typed validation and is
    /// quarantined after one attempt — never retried as a panic — on
    /// either engine, while every other trace matches a clean run.
    #[test]
    fn malformed_stimuli_quarantine_after_one_attempt_on_both_backends() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        assert!(sim.bitsliced_session().is_ok(), "the batch engine must run");
        let mut schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        schedule[17].final_inputs.push(false);
        for backend in [Backend::Event, Backend::Bitsliced] {
            for workers in [1usize, 3] {
                let policy = ExecPolicy {
                    workers,
                    backend,
                    ..ExecPolicy::default()
                };
                let (traces, report) = capture_schedule_with(
                    &sim,
                    &schedule,
                    &config.sampling,
                    config.seed,
                    &policy,
                    ResumeState::fresh(),
                );
                let context = format!("{backend}, {workers} workers");
                assert_eq!(report.backend, backend, "{context}");
                assert_eq!(report.retried, 0, "{context}");
                assert_eq!(report.quarantined.len(), 1, "{context}");
                let failure = &report.quarantined[0];
                assert_eq!((failure.index, failure.attempts), (17, 1), "{context}");
                assert!(failure.message.contains("final vector"), "{context}");
                for (i, trace) in traces.iter().enumerate() {
                    if i == 17 {
                        assert!(trace.is_empty(), "{context}");
                    } else {
                        assert_eq!(*trace, reference[i], "trace {i} ({context})");
                    }
                }
                if backend == Backend::Bitsliced {
                    // The malformed index was carved out of the lanes.
                    let util = report.lane_utilization.expect("batch ran");
                    assert!((util - 63.0 / LANES as f64).abs() < 1e-12, "util {util}");
                }
            }
        }
    }

    #[test]
    fn streaming_fold_is_bit_identical_to_batch_at_any_worker_count() {
        let circuit = SboxCircuit::build(Scheme::Isw);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (traces, _) = capture(&sim, &schedule, &config, 1);
        let mut set = leakage_core::ClassifiedTraces::new(16, config.sampling.samples);
        for (s, t) in schedule.iter().zip(traces) {
            set.push(usize::from(s.label), t);
        }
        let batch = leakage_core::LeakageSpectrum::from_class_means(&set.class_means());

        let mut previous: Option<SpectrumAccumulator> = None;
        for workers in [1usize, 2, 8] {
            let (acc, report) = fold(
                &sim,
                &schedule,
                &config,
                &ExecPolicy {
                    workers,
                    ..ExecPolicy::default()
                },
            );
            assert_eq!(acc.spectrum(), batch, "{workers} workers vs batch");
            assert_eq!(acc.len(), schedule.len() as u64);
            if let Some(prev) = &previous {
                assert_eq!(&acc, prev, "{workers} workers: accumulator drifted");
            }
            assert!(report.merge_depth > 0, "64 traces span multiple chunks");
            previous = Some(acc);
        }
    }

    #[test]
    fn streaming_fold_bounds_resident_traces() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = ProtocolConfig {
            traces_per_class: 16, // 256 traces
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let workers = 4usize;
        let (acc, report) = fold(
            &sim,
            &schedule,
            &config,
            &ExecPolicy {
                workers,
                ..ExecPolicy::default()
            },
        );
        assert_eq!(acc.len(), 256);
        // Without a checkpoint sink no raw trace outlives its fold: at
        // most one capture per worker is resident at any instant.
        assert!(
            report.peak_resident <= workers,
            "peak resident {} with {workers} workers",
            report.peak_resident
        );
        // Accumulator state is O(classes × samples × log chunks), far
        // below one float per trace sample.
        assert!(
            acc.resident_floats() < schedule.len() * config.sampling.samples,
            "accumulator holds {} floats for {} traces",
            acc.resident_floats(),
            schedule.len()
        );
    }

    #[test]
    fn streaming_fold_quarantines_and_retries_like_batch() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        // Reference: clean streaming fold minus the sticky indices.
        let (clean, _) = fold(&sim, &schedule, &config, &ExecPolicy::default());
        for workers in [1usize, 3] {
            let policy = ExecPolicy {
                workers,
                max_retries: 2,
                faults: FaultPlan::none()
                    .with_transient_panics([2, 17])
                    .with_sticky_panics([5, 40]),
                ..ExecPolicy::default()
            };
            let (acc, report) = fold(&sim, &schedule, &config, &policy);
            assert_eq!(report.retried, 2, "{workers} workers");
            assert_eq!(
                report
                    .quarantined
                    .iter()
                    .map(|f| f.index)
                    .collect::<Vec<_>>(),
                vec![5, 40]
            );
            // Retried indices folded exactly once, quarantined ones not
            // at all: 62 of 64 traces.
            assert_eq!(acc.len(), schedule.len() as u64 - 2, "{workers} workers");
            assert_ne!(acc, clean, "quarantined traces must be absent");
        }
    }

    #[test]
    fn resume_skips_completed_indices_and_checkpoints_new_ones() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, clean) = capture(&sim, &schedule, &config, 1);

        let path = std::env::temp_dir().join(format!(
            "executor-resume-{}-{:?}.sckp",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let meta = crate::store::StoreMeta {
            kind: crate::store::StoreKind::Classified,
            name: "OPT".into(),
            seed: config.seed,
            age_months: 0.0,
            config_digest: 1,
            class_or_key: 16,
            traces: schedule.len() as u32,
            samples: config.sampling.samples as u32,
        };
        let (_, mut writer) = resume_checkpoint(&path, &meta).expect("ckpt");

        // First 40 indices "already done" by a previous run.
        let completed: Vec<(usize, Vec<f64>)> =
            reference.iter().take(40).cloned().enumerate().collect();
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &ExecPolicy {
                workers: 2,
                ..ExecPolicy::default()
            },
            ResumeState {
                completed,
                checkpoint: Some(&mut writer),
                sync_every: 8,
            },
        );
        assert_eq!(traces, reference, "resumed run must be bit-identical");
        assert_eq!(report.resumed, 40);
        assert!(
            report.stats.events < clean.stats.events,
            "resume must not re-simulate completed indices"
        );
        drop(writer);
        let (records, _) = resume_checkpoint(&path, &meta).expect("reread");
        assert_eq!(
            records.len(),
            schedule.len() - 40,
            "only newly captured indices are checkpointed"
        );
        let mut seen: Vec<u32> = records.iter().map(|r| r.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, (40..schedule.len() as u32).collect::<Vec<_>>());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_budget_interrupts_then_resume_is_bit_identical() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);

        let path = std::env::temp_dir().join(format!(
            "executor-budget-{}-{:?}.sckp",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        let meta = crate::store::StoreMeta {
            kind: crate::store::StoreKind::Classified,
            name: "OPT".into(),
            seed: config.seed,
            age_months: 0.0,
            config_digest: 1,
            class_or_key: 16,
            traces: schedule.len() as u32,
            samples: config.sampling.samples as u32,
        };
        let (_, mut writer) = resume_checkpoint(&path, &meta).expect("ckpt");
        let policy = ExecPolicy {
            workers: 1,
            budget: RunBudget::unlimited().with_max_new_traces(20),
            ..ExecPolicy::default()
        };
        let (_, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState {
                completed: Vec::new(),
                checkpoint: Some(&mut writer),
                sync_every: 0,
            },
        );
        // One worker claims whole chunks of 16: 16 < 20 keeps going, so
        // the budget trips after the second chunk with 32 captured.
        let interruption = report.interrupted.expect("budget must interrupt");
        assert_eq!(interruption.cause, StopCause::TraceBudget);
        assert_eq!(interruption.remaining, schedule.len() - 32);
        assert_eq!(report.loads.iter().map(|l| l.traces).sum::<usize>(), 32);
        drop(writer);

        // Resume from the interrupted run's checkpoint: the final traces
        // must be bit-identical to an uninterrupted run.
        let (records, mut writer) = resume_checkpoint(&path, &meta).expect("reopen");
        assert_eq!(records.len(), 32);
        let completed = records
            .into_iter()
            .map(|(i, _, t)| (i as usize, t))
            .collect();
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &ExecPolicy::default(),
            ResumeState {
                completed,
                checkpoint: Some(&mut writer),
                sync_every: 0,
            },
        );
        assert!(report.interrupted.is_none());
        assert_eq!(report.resumed, 32);
        assert_eq!(traces, reference, "resumed run must be bit-identical");
        drop(writer);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cancellation_stops_before_any_capture() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let token = CancelToken::new();
        token.cancel();
        for workers in [1usize, 4] {
            let policy = ExecPolicy {
                workers,
                budget: RunBudget::unlimited().with_cancel(token.clone()),
                ..ExecPolicy::default()
            };
            let (traces, report) = capture_schedule_with(
                &sim,
                &schedule,
                &config.sampling,
                config.seed,
                &policy,
                ResumeState::fresh(),
            );
            let interruption = report.interrupted.expect("cancelled run must report it");
            assert_eq!(interruption.cause, StopCause::Cancelled);
            assert_eq!(interruption.remaining, schedule.len());
            assert!(traces.iter().all(|t| t.is_empty()), "{workers} workers");
        }
    }

    #[test]
    fn expired_deadline_interrupts_batch_and_streaming_runs() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let policy = ExecPolicy {
            workers: 2,
            budget: RunBudget::unlimited().with_time_limit(Duration::ZERO),
            ..ExecPolicy::default()
        };
        let (_, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(
            report.interrupted.map(|i| i.cause),
            Some(StopCause::Deadline)
        );

        let (acc, report) = fold(&sim, &schedule, &config, &policy);
        assert_eq!(
            report.interrupted.map(|i| i.cause),
            Some(StopCause::Deadline)
        );
        assert_eq!(acc.len(), 0, "no chunk may be claimed past the deadline");
    }

    #[test]
    fn watchdog_retries_slow_captures_bit_identically() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        // Index 3's first attempt stalls for 400 ms against a 50 ms
        // watchdog; the retry runs at full speed and must reproduce the
        // clean trace exactly.
        let policy = ExecPolicy {
            workers: 1,
            max_retries: 2,
            faults: FaultPlan::none().with_slow_capture(3, 400),
            capture_timeout: Some(Duration::from_millis(50)),
            ..ExecPolicy::default()
        };
        let (traces, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(traces, reference, "watchdog retry must be bit-identical");
        assert_eq!(report.retried, 1);
        assert!(report.quarantined.is_empty());

        // With retries exhausted the slow index degrades to a typed,
        // quarantined failure instead of wedging the run.
        let policy = ExecPolicy {
            workers: 1,
            max_retries: 0,
            faults: FaultPlan::none().with_slow_capture(3, 400),
            capture_timeout: Some(Duration::from_millis(50)),
            ..ExecPolicy::default()
        };
        let (_, report) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
        );
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 3);
        assert!(
            report.quarantined[0].message.contains("watchdog"),
            "{}",
            report.quarantined[0].message
        );
    }

    #[test]
    fn batch_capture_and_streaming_fold_checkpoint_identically() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config();
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let meta = crate::store::StoreMeta {
            kind: crate::store::StoreKind::Classified,
            name: "OPT".into(),
            seed: config.seed,
            age_months: 0.0,
            config_digest: 1,
            class_or_key: 16,
            traces: schedule.len() as u32,
            samples: config.sampling.samples as u32,
        };
        let clean = ExecPolicy {
            workers: 1,
            ..ExecPolicy::default()
        };
        let (reference, _) = capture_schedule_with(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &clean,
            ResumeState::fresh(),
        );
        let make = || SpectrumAccumulator::new(16, config.sampling.samples, SumMode::Exact);

        // One run on either entry point, checkpointing into a fresh file
        // and resuming the first five indices: the checkpoint bytes plus
        // the report's accounting.
        let run = |policy: &ExecPolicy, batch: bool| {
            let path = std::env::temp_dir().join(format!(
                "executor-equiv-{}-{:?}-{batch}.sckp",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_file(&path);
            let (_, mut writer) = resume_checkpoint(&path, &meta).expect("ckpt");
            let resume = ResumeState {
                completed: reference.iter().take(5).cloned().enumerate().collect(),
                checkpoint: Some(&mut writer),
                sync_every: 8,
            };
            let report = if batch {
                let (traces, report) = capture_schedule_with(
                    &sim,
                    &schedule,
                    &config.sampling,
                    config.seed,
                    policy,
                    resume,
                );
                assert_eq!(traces, reference);
                report
            } else {
                fold_schedule_into(
                    &sim,
                    &schedule,
                    &config.sampling,
                    config.seed,
                    policy,
                    resume,
                    &make,
                    None,
                )
                .1
            };
            drop(writer);
            let bytes = std::fs::read(&path).expect("reread");
            let _ = std::fs::remove_file(&path);
            (bytes, report)
        };

        for backend in [Backend::Event, Backend::Bitsliced] {
            for faults in [
                FaultPlan::none(),
                FaultPlan::none().with_transient_panics([9, 31, 63]),
            ] {
                let policy = ExecPolicy {
                    faults,
                    backend,
                    ..clean.clone()
                };
                let (batch_bytes, batch) = run(&policy, true);
                let (fold_bytes, fold) = run(&policy, false);
                assert!(batch_bytes == fold_bytes, "{backend}: checkpoint bytes");
                assert_eq!(batch.stats, fold.stats, "{backend}");
                assert_eq!(batch.retried, fold.retried, "{backend}");
                assert_eq!(batch.resumed, 5, "{backend}");
                assert_eq!(batch.resumed, fold.resumed, "{backend}");
                let failed = |r: &ExecutorReport| {
                    r.quarantined
                        .iter()
                        .map(|f| (f.index, f.attempts))
                        .collect::<Vec<_>>()
                };
                assert_eq!(failed(&batch), failed(&fold), "{backend}");
                assert_eq!(batch.lane_utilization, fold.lane_utilization, "{backend}");
            }
        }
    }
}
