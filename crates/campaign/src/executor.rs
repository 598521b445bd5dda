//! The acquisition executor: one claim → capture → fold pipeline that
//! captures a stimulus schedule on a `std::thread` worker pool,
//! isolating and recovering from per-trace failures.
//!
//! Workers claim index ranges, capture them on the event-driven or the
//! bit-sliced engine, and fold each trace into a chunk-local
//! [`FoldState`] leaf of the [`FOLD_CHUNK`] grid that
//! `leakage_core::online` owns; the caller's thread checkpoints new
//! traces and pushes each leaf into that grid's [`TreeReducer`], which
//! parks early leaves, merges each into one running state in schedule
//! order and hands every prefix to an observer. [`fold_schedule_into`]
//! is the one entry point, and the running state is its one output:
//! online accumulators for a streamed analysis, a `ClassifiedTraces`
//! set for an acquisition that keeps its traces.
//!
//! Determinism: trace `i`'s value depends only on the (pre-computed)
//! schedule entry `i` and its per-trace seed `trace_seed(base_seed, i)`
//! — never on which worker captured it or when. Workers pull index
//! claims from a shared claim cursor (dynamic load balancing: the
//! seven netlists differ ~10× in event count per trace) and the chain
//! merges their leaves in schedule order, so the output is bit-identical
//! for any worker count, including 1. No worker starts a claim more
//! than `workers × LANES` indices past the claim block (one chunk, or
//! one lane batch on the bit-sliced engine) holding the chain's next
//! leaf, so fewer than `workers × LANES / FOLD_CHUNK` leaves wait in the
//! reorder buffer.
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
use std::sync::{mpsc, Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use acquisition::{trace_seed, Stimulus};
use gatesim::{
    Backend, BitslicedSession, CaptureSession, CaptureStats, LaneStimulus, SamplingConfig,
    Simulator, LANES,
};
use leakage_core::online::{ChunkObserver, FoldState, TreeReducer, FOLD_CHUNK};
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
    /// Schedule indices not captured, folded from the resume state, or
    /// quarantined: the scheduled count minus the traces in the fold
    /// state and the quarantined indices.
    pub remaining: usize,
}

/// Resource limits for one run: a wall-clock time limit, a cap on newly
/// captured traces, and a cooperative [`CancelToken`]. All unlimited by
/// default.
///
/// Budgets are enforced at **claim boundaries** (a claim is one chunk
/// on the event engine, one sweep of up to [`LANES`] indices on the
/// bit-sliced engine, cut to what a deadline or a trace cap leaves
/// room for): workers stop claiming once any limit trips, claims in
/// flight complete normally, the checkpoint gets a final sync, and the
/// report carries a typed [`Interruption`]. Because a claim either
/// completes or was never taken, an interrupted run's checkpoint holds
/// only whole, verified frames — resuming it reproduces the
/// uninterrupted run bit for bit.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Stop claiming work this long after the run starts. Claims are cut
    /// to what a worker is expected to capture in the time left, at the
    /// pool's rate so far, so either engine runs about one chunk per
    /// worker past the limit.
    pub time_limit: Option<Duration>,
    /// Stop after at least this many *new* captures (resumed traces are
    /// free). Claims are cut to what is left of the cap, rounded up to
    /// whole chunks, and none is taken while the claims in flight cover
    /// it, so on either engine the run captures fewer than `max +`
    /// [`FOLD_CHUNK`] new traces at any worker count.
    pub max_new_traces: Option<usize>,
    /// Cooperative cancellation flag, polled before each claim.
    pub cancel: Option<CancelToken>,
}

impl RunBudget {
    /// No limits (the production default).
    pub fn unlimited() -> Self {
        Self::default()
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
/// before each claim and size it with [`BudgetGate::claim_len`]; the
/// first tripped limit is recorded and every later check
/// short-circuits to "stop".
struct BudgetGate {
    started: Instant,
    /// Workers in the pool, which share its capture rate.
    workers: usize,
    deadline: Option<Instant>,
    max_new: Option<usize>,
    cancel: Option<CancelToken>,
    captured: AtomicUsize,
    /// The first limit that tripped.
    stop: OnceLock<StopCause>,
}

impl BudgetGate {
    fn new(budget: &RunBudget, workers: usize) -> Self {
        let started = Instant::now();
        Self {
            started,
            workers,
            deadline: budget.time_limit.map(|limit| started + limit),
            max_new: budget.max_new_traces,
            cancel: budget.cancel.clone(),
            captured: AtomicUsize::new(0),
            stop: OnceLock::new(),
        }
    }

    fn note_captured(&self, n: usize) {
        if n > 0 {
            self.captured.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Length of the next claim, at most `max` indices (a multiple of
    /// [`FOLD_CHUNK`]), given the `settled` and `in_flight` claimed
    /// indices. Under a deadline it is what one worker can expect to
    /// capture in the time left, at the pool's rate so far (one chunk
    /// until a chunk has settled); under a trace cap, what is left of the
    /// cap once the claims in flight are counted, or `None` while they
    /// already cover it. Both round up to whole chunks.
    fn claim_len(&self, settled: usize, in_flight: usize, max: usize) -> Option<usize> {
        let mut len = max;
        if let Some(deadline) = self.deadline {
            let fit = if settled == 0 {
                0.0
            } else {
                let left = deadline.saturating_duration_since(Instant::now());
                let pool_secs = self.started.elapsed().as_secs_f64() * self.workers as f64;
                left.as_secs_f64() * settled as f64 / pool_secs
            };
            let fit = fit.min(max as f64) as usize;
            len = len.min(fit.next_multiple_of(FOLD_CHUNK).max(FOLD_CHUNK));
        }
        if let Some(cap) = self.max_new {
            let left = cap.saturating_sub(self.captured.load(Ordering::Relaxed) + in_flight);
            if left == 0 {
                return None;
            }
            len = len.min(left.next_multiple_of(FOLD_CHUNK));
        }
        Some(len)
    }

    fn should_stop(&self) -> bool {
        if self.stop.get().is_some() {
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
        // First cause wins; racing workers may observe different causes
        // in the same instant, but only one is recorded.
        cause.map(|c| self.stop.get_or_init(|| c)).is_some()
    }

    fn cause(&self) -> Option<StopCause> {
        self.stop.get().copied()
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
    /// Capture engine, [`Backend::Auto`] by default: bit-sliced
    /// wherever the netlist passes the static support check. The
    /// bit-sliced engine claims work in sweeps of up to [`LANES`]
    /// indices, so a cancel, seen between claims, lets each worker
    /// finish one sweep instead of one chunk; trace values, trace-cap
    /// stops, retry/quarantine behaviour and fold results are
    /// bit-identical to the event engine.
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
            backend: Backend::default(),
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
    /// Indices that failed every allowed attempt. They fold zero times:
    /// the fold state simply lacks them.
    pub quarantined: Vec<CaptureFailure>,
    /// Traces folded from the resume state instead of simulated. A
    /// budget stop folds the claimed prefix only, so resumed traces past
    /// it are not counted here; they count as
    /// [`remaining`](Interruption::remaining).
    pub resumed: usize,
    /// Largest number of newly captured traces in flight outside the
    /// fold state at once, counted from each trace's capture until its
    /// worker or the checkpoint sink drops it. Without a checkpoint that
    /// is at most one per worker on the event engine, and up to one lane
    /// batch ([`LANES`] traces) per worker on the bit-sliced engine,
    /// whose sweep captures a whole claim before the first trace folds;
    /// a checkpoint adds `O(workers × FOLD_CHUNK)`. It is independent of
    /// schedule length. What the fold state itself keeps (a
    /// `ClassifiedTraces` set keeps every trace) is not counted.
    pub peak_resident: usize,
    /// Length of the fold chain: one merge per leaf after the first, so
    /// leaves − 1 (0 for single-chunk runs).
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
    /// bit-sliced engine, one fold-chain leaf on the event engine (small
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

/// One worker's progress on one fold-chain leaf of the schedule.
struct Chunk<S> {
    worker: usize,
    /// Position of this chunk in the schedule's chunk sequence — its
    /// place in the fold chain.
    seq: u64,
    acc: S,
    /// Newly captured traces, retained only while a checkpoint sink
    /// needs them; empty otherwise.
    raw: Vec<(usize, Vec<f64>)>,
    captured: usize,
    /// Traces folded from the resume state.
    resumed: usize,
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
    /// Whether workers must retain raw traces for the checkpoint sink.
    keep_raw: bool,
    gate: BudgetGate,
    /// Claims may start at most this many schedule indices past the
    /// start of the claim block holding the chain's next leaf: `workers`
    /// lane batches, so `workers` whole claims on the bit-sliced engine and
    /// `workers × LANES / FOLD_CHUNK` single-leaf claims on the event
    /// engine.
    window: usize,
    claims: Mutex<Claims>,
    /// Signalled whenever the collector advances `claims.next_leaf`.
    advanced: Condvar,
    /// Newly captured traces currently resident (shared counter) and
    /// its high-water mark.
    resident: AtomicUsize,
    peak: AtomicUsize,
}

impl<S> Ctx<'_, S> {
    fn note_resident(&self, n: usize) {
        let now = self.resident.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn release_resident(&self, n: usize) {
        if n > 0 {
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Take the next claim of up to `size` indices, or `None` once the
    /// schedule or the budget runs out or the claims are closed. A claim
    /// never crosses a multiple of `size`, and a trace cap cuts it to
    /// what is left of the cap ([`BudgetGate::claim_len`]). It is taken
    /// only while it starts within [`window`](Self::window) indices of
    /// the `size` block holding the chain's next leaf, and while the
    /// claims in flight leave room under the cap; until then the worker
    /// waits, polling the budget so a stop or cancel still ends it. The
    /// oldest unfinished claim is always inside the window and, under a
    /// cap, a claim in flight always settles, so some worker can always
    /// make progress while no thread has panicked; a panicking thread
    /// closes the claims (see [`CloseOnUnwind`]).
    fn next_claim(&self, size: usize) -> Option<Range<usize>> {
        const POLL: Duration = Duration::from_millis(10);
        let mut claims = self.claims.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if claims.closed || self.gate.should_stop() || claims.cursor >= self.schedule.len() {
                return None;
            }
            let start = claims.cursor;
            let oldest = claims.next_leaf as usize * FOLD_CHUNK / size * size;
            let block_end = (start / size + 1) * size;
            let in_window = start < oldest + self.window;
            let settled = start - claims.in_flight;
            let len = self
                .gate
                .claim_len(settled, claims.in_flight, block_end - start);
            if let Some(len) = len.filter(|_| in_window) {
                let end = (start + len).min(self.schedule.len());
                claims.cursor = end;
                claims.in_flight += end - start;
                return Some(start..end);
            }
            claims = self
                .advanced
                .wait_timeout(claims, POLL)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Settle a finished chunk of `len` claimed indices, `captured` of
    /// them newly captured: they leave the claims in flight and count
    /// against the trace cap in one step.
    fn settle(&self, len: usize, captured: usize) {
        let mut claims = self.claims.lock().unwrap_or_else(PoisonError::into_inner);
        claims.in_flight -= len;
        self.gate.note_captured(captured);
    }

    /// Publish the chain's next leaf to waiting workers.
    fn advance(&self, next_leaf: u64) {
        self.claims
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_leaf = next_leaf;
        self.advanced.notify_all();
    }
}

/// The claim cursor and the chain's next leaf, behind one lock so a
/// claim is only taken against an up-to-date window. No update can
/// panic halfway, so a poisoned lock still guards valid claims.
struct Claims {
    /// First schedule index not yet claimed.
    cursor: usize,
    /// Sequence number of the leaf the fold chain merges next.
    next_leaf: u64,
    /// Claimed indices whose chunks have not settled yet.
    in_flight: usize,
    /// Set once a worker or the collector panicked: the chain can no
    /// longer advance, so a worker waiting on the window would wait
    /// forever.
    closed: bool,
}

/// Closes the run's claims if dropped while its thread unwinds, so a
/// panic in the collector (an observer, a merge, the checkpoint sink)
/// or in a worker (outside a capture's `catch_unwind`) ends the other
/// workers' claim loops and propagates instead of leaving them waiting
/// on a chain that no longer advances.
struct CloseOnUnwind<'c, 'a, S>(&'c Ctx<'a, S>);

impl<S> Drop for CloseOnUnwind<'_, '_, S> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let ctx = self.0;
            ctx.claims
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .closed = true;
            ctx.advanced.notify_all();
        }
    }
}

/// Capture `schedule` and fold every trace into a caller-supplied
/// [`FoldState`], the run's one output. Memory is the fold state plus
/// the traces in flight: `O(workers × FOLD_CHUNK)` of them, or one lane
/// batch per worker on the bit-sliced engine, plus the parked leaves
/// below, independent of schedule length. Any consumer plugs in here:
/// spectral accumulators, the attack engine's co-moment state,
/// composites folding several analyses in one pass over the traces, or
/// a `ClassifiedTraces` set that keeps the traces themselves.
///
/// `make` constructs an empty chunk-local state; the caller's thread
/// merges chunk states, in chunk order, into the running state of a
/// [`TreeReducer`], so the result is the schedule-order fold at any
/// worker count: a trace list comes out in schedule order, and the
/// exact-sum accumulators would give the same bits under any grouping.
/// Quarantined indices fold zero times, a retried index folds exactly
/// once, and resumed traces fold at their schedule position without
/// being re-simulated (checkpointed refold-on-resume); newly captured
/// traces stream to the [`ResumeState`] checkpoint as they arrive. A
/// budget stop folds the claimed prefix only: resumed traces past it
/// stay in the checkpoint and count as remaining, not resumed.
///
/// `observer` (if any) is the chain's ([`TreeReducer::observed`]): after
/// each chunk is merged in, in ascending chunk order, it sees the
/// running prefix state, enabling single-pass prefix trajectories.
/// Chunks that finish ahead of an earlier one wait in the reducer's
/// reorder buffer. No worker starts a claim more than `workers × LANES`
/// indices past the claim block (one chunk, or one lane batch on the
/// bit-sliced engine) holding the chain's next leaf, so fewer than
/// `workers × LANES / FOLD_CHUNK` chunk states wait there: at most
/// `(workers − 1) × LANES / FOLD_CHUNK` on the bit-sliced engine while
/// its claims are whole batches, which emit `LANES / FOLD_CHUNK` chunks
/// together.
///
/// Resumed traces are held in memory for the duration of the run (they
/// arrive as a batch from the checkpoint reader) and are not counted by
/// [`peak_resident`](ExecutorReport::peak_resident), which tracks newly
/// captured traces only: without a checkpoint, one per worker on the
/// event engine and up to one swept lane batch per worker on the
/// bit-sliced engine. With one worker everything runs inline on the
/// caller's thread (no pool overhead), which also serves as the
/// reference for the determinism guarantee.
#[allow(clippy::too_many_arguments)]
pub fn fold_schedule_into<S: FoldState>(
    sim: &Simulator<'_>,
    schedule: &[Stimulus],
    sampling: &SamplingConfig,
    base_seed: u64,
    policy: &ExecPolicy,
    resume: ResumeState<'_>,
    make: &(dyn Fn() -> S + Sync),
    observer: Option<ChunkObserver<'_, S>>,
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
        keep_raw: resume.checkpoint.is_some(),
        gate: BudgetGate::new(&policy.budget, workers),
        window: workers * LANES,
        claims: Mutex::new(Claims {
            cursor: 0,
            next_leaf: 0,
            in_flight: 0,
            closed: false,
        }),
        advanced: Condvar::new(),
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
        resumed: 0,
        lanes: LaneUse::default(),
        sink: CheckpointSink {
            writer: resume.checkpoint,
            sync_every: resume.sync_every,
            since_sync: 0,
            warning: None,
        },
        reducer: TreeReducer::observed(observer),
    };

    if workers == 1 {
        work(sim, backend, &ctx, 0, &mut |chunk| {
            collector.absorb(chunk, &ctx);
            true
        });
    } else {
        // A *bounded* channel: workers block once `workers` chunks are
        // queued, so the number of raw traces in flight cannot grow with
        // schedule length even if the collector falls behind. (On the
        // bit-sliced backend a worker additionally holds one lane batch
        // of raw traces while it slices the batch into chunks — see
        // `fold_claim`. Chunk *states* that arrive early wait in the
        // reducer's reorder buffer, which the claim window bounds — see
        // `Ctx::next_claim`.)
        let (tx, rx) = mpsc::sync_channel::<Chunk<S>>(workers);
        std::thread::scope(|scope| {
            for worker in 0..workers {
                let tx = tx.clone();
                let ctx = &ctx;
                scope.spawn(move || {
                    let _close = CloseOnUnwind(ctx);
                    // The receiver outlives the workers; a send can only
                    // fail if the parent panicked, in which case the
                    // scope unwinds anyway.
                    work(sim, backend, ctx, worker, &mut |chunk| {
                        tx.send(chunk).is_ok()
                    });
                });
            }
            drop(tx);
            let _close = CloseOnUnwind(&ctx);
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
        resumed,
        lanes,
        sink,
        reducer,
    } = collector;
    sink.finish(&mut warnings);
    quarantined.sort_by_key(|f| f.index);

    let captured: usize = loads.iter().map(|l| l.traces).sum();
    let interrupted = ctx.gate.cause().map(|cause| Interruption {
        cause,
        remaining: schedule.len() - resumed - captured - quarantined.len(),
    });
    // The chain merges every leaf after the first once.
    let merge_depth = reducer.consumed().saturating_sub(1) as usize;
    let acc = reducer.finish().unwrap_or_else(make);
    let report = ExecutorReport {
        workers,
        loads,
        wall: started.elapsed(),
        stats,
        retried,
        quarantined,
        resumed,
        peak_resident: ctx.peak.load(Ordering::Relaxed),
        merge_depth,
        interrupted,
        backend,
        lane_utilization: lanes.utilization(),
        warnings,
    };
    (acc, report)
}

/// The caller's side of a run: totals merged from every chunk, the
/// checkpoint, and the fold chain.
struct Collector<'a, 'o, S> {
    loads: Vec<WorkerLoad>,
    stats: CaptureStats,
    retried: usize,
    quarantined: Vec<CaptureFailure>,
    resumed: usize,
    lanes: LaneUse,
    sink: CheckpointSink<'a>,
    /// The fold chain; its observer (if any) sees each prefix in order.
    reducer: TreeReducer<'o, S>,
}

impl<S: FoldState> Collector<'_, '_, S> {
    /// Fold one chunk's outcome into the run totals, the checkpoint and
    /// the fold chain, and publish the chain's next leaf to the workers.
    fn absorb(&mut self, chunk: Chunk<S>, ctx: &Ctx<'_, S>) {
        let load = &mut self.loads[chunk.worker];
        load.traces += chunk.captured;
        load.busy += chunk.busy;
        self.stats.merge(&chunk.stats);
        self.retried += chunk.retried;
        self.quarantined.extend(chunk.failures);
        self.resumed += chunk.resumed;
        self.lanes.merge(chunk.lanes);
        let raw_len = chunk.raw.len();
        for (index, trace) in chunk.raw {
            self.sink.push(index, ctx.schedule[index].label, &trace);
        }
        ctx.release_resident(raw_len);
        self.reducer.push(chunk.seq, chunk.acc);
        ctx.advance(self.reducer.consumed());
    }
}

/// One worker's claim loop: take the next range off the claim cursor
/// until the schedule or the budget runs out, handing every chunk to
/// `emit` (which returns `false` once the collector is gone).
fn work<S: FoldState>(
    sim: &Simulator<'_>,
    backend: Backend,
    ctx: &Ctx<'_, S>,
    worker: usize,
    emit: &mut dyn FnMut(Chunk<S>) -> bool,
) {
    // One persistent engine per worker, reused for its entire shard
    // (retries included). Sessions only borrow the simulator, so this is
    // free of synchronization.
    let mut engine = WorkerEngine::new(sim, backend);
    let size = engine.claim();
    while let Some(range) = ctx.next_claim(size) {
        if !fold_claim(&mut engine, ctx, worker, range, emit) {
            break;
        }
    }
}

/// Capture and fold every index in `range` on the worker's engine,
/// emitting one [`Chunk`] per fold-chain leaf the range covers, in
/// ascending sequence, so the chain is the same on either backend. Returns `false` if `emit` refused a chunk.
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
            // The whole swept batch is resident from here until each
            // trace is folded (or the checkpoint sink drops it).
            ctx.note_resident(batchable.len());
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
            resumed: 0,
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
                chunk.resumed += 1;
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
                )
                .inspect(|_| ctx.note_resident(1)),
            };
            match outcome {
                Ok((trace, stats, attempts)) => {
                    chunk.stats.merge(&stats);
                    chunk.retried += usize::from(attempts > 1);
                    chunk.captured += 1;
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
        ctx.settle(chunk_end - chunk_start, chunk.captured);
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
    use leakage_core::ClassifiedTraces;
    use sbox_circuits::{SboxCircuit, Scheme};

    fn small_config() -> ProtocolConfig {
        ProtocolConfig {
            traces_per_class: 4,
            ..ProtocolConfig::default()
        }
    }

    /// A batch capture: `schedule` folded into a trace set under
    /// `policy`.
    fn capture_with(
        sim: &Simulator<'_>,
        schedule: &[Stimulus],
        config: &ProtocolConfig,
        policy: &ExecPolicy,
        resume: ResumeState<'_>,
    ) -> (ClassifiedTraces, ExecutorReport) {
        let make = || ClassifiedTraces::new(16, config.sampling.samples);
        fold_schedule_into(
            sim,
            schedule,
            &config.sampling,
            config.seed,
            policy,
            resume,
            &make,
            None,
        )
    }

    /// A clean batch capture of `schedule` on `workers` threads of the
    /// event engine, the reference the bit-sliced runs are held to.
    fn capture(
        sim: &Simulator<'_>,
        schedule: &[Stimulus],
        config: &ProtocolConfig,
        workers: usize,
    ) -> (ClassifiedTraces, ExecutorReport) {
        let policy = ExecPolicy {
            workers,
            backend: Backend::Event,
            ..ExecPolicy::default()
        };
        capture_with(sim, schedule, config, &policy, ResumeState::fresh())
    }

    /// `reference`, a complete capture, without the traces at the
    /// schedule indices in `skipped`.
    fn without(reference: &ClassifiedTraces, skipped: &[usize]) -> ClassifiedTraces {
        let mut set = ClassifiedTraces::new(reference.num_classes(), reference.samples());
        for (index, (class, trace)) in reference.iter().enumerate() {
            if !skipped.contains(&index) {
                set.push(class, trace.to_vec());
            }
        }
        set
    }

    /// The first `n` traces of a complete capture as resume records.
    fn completed(reference: &ClassifiedTraces, n: usize) -> Vec<(usize, Vec<f64>)> {
        reference
            .iter()
            .take(n)
            .map(|(_, trace)| trace.to_vec())
            .enumerate()
            .collect()
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
                let (traces, report) =
                    capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
                "chunk sequence (and so the fold chain) must match the event path"
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
        let (traces, report) =
            capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        let (traces, report) =
            capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
            let (traces, report) =
                capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
            assert_eq!(report.retried, 3, "{workers} workers");
            assert_eq!(
                report
                    .quarantined
                    .iter()
                    .map(|f| f.index)
                    .collect::<Vec<_>>(),
                vec![40]
            );
            assert_eq!(traces, without(&reference, &[40]), "{workers} workers");
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
            let (traces, report) =
                capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        let (traces, report) =
            capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        assert_eq!(
            traces,
            without(&reference, &[5, 40]),
            "the survivors, in order, and no quarantined trace"
        );
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
                let (traces, report) =
                    capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
                let context = format!("{backend}, {workers} workers");
                assert_eq!(report.backend, backend, "{context}");
                assert_eq!(report.retried, 0, "{context}");
                assert_eq!(report.quarantined.len(), 1, "{context}");
                let failure = &report.quarantined[0];
                assert_eq!((failure.index, failure.attempts), (17, 1), "{context}");
                assert!(failure.message.contains("final vector"), "{context}");
                assert_eq!(traces, without(&reference, &[17]), "{context}");
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
        let (set, _) = capture(&sim, &schedule, &config, 1);
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
            assert_eq!(report.merge_depth, 3, "64 traces chain four leaves");
            previous = Some(acc);
        }
    }

    /// Counts traces and, in a counter every copy shares, merge calls.
    #[derive(Clone)]
    struct CountingFold {
        traces: u64,
        merges: Arc<AtomicUsize>,
    }

    impl FoldState for CountingFold {
        fn fold(&mut self, _label: u16, _trace: &[f64]) {
            self.traces += 1;
        }

        fn merge(mut self, later: Self) -> Self {
            self.merges.fetch_add(1, Ordering::Relaxed);
            self.traces += later.traces;
            self
        }
    }

    /// The fold chain merges each leaf once, and its observer sees the
    /// running prefix after every leaf, in schedule order, at any worker
    /// count.
    #[test]
    fn fold_chain_merges_each_leaf_once_and_shows_every_prefix() {
        let circuit = SboxCircuit::build(Scheme::Isw);
        let config = ProtocolConfig {
            traces_per_class: 6, // 96 traces: six leaves
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let leaves = schedule.len().div_ceil(FOLD_CHUNK);
        for workers in [1usize, 3] {
            let merges = Arc::new(AtomicUsize::new(0));
            let make = || CountingFold {
                traces: 0,
                merges: Arc::clone(&merges),
            };
            let mut seen = Vec::new();
            let mut observe = |seq: u64, prefix: &CountingFold| seen.push((seq, prefix.traces));
            let policy = ExecPolicy {
                workers,
                ..ExecPolicy::default()
            };
            let (state, report) = fold_schedule_into(
                &sim,
                &schedule,
                &config.sampling,
                config.seed,
                &policy,
                ResumeState::fresh(),
                &make,
                Some(&mut observe),
            );
            assert_eq!(state.traces, schedule.len() as u64, "{workers} workers");
            assert_eq!(
                merges.load(Ordering::Relaxed),
                leaves - 1,
                "{workers} workers"
            );
            assert_eq!(report.merge_depth, leaves - 1, "{workers} workers");
            let want: Vec<(u64, u64)> = (0..leaves)
                .map(|i| (i as u64, ((i + 1) * FOLD_CHUNK) as u64))
                .collect();
            assert_eq!(seen, want, "{workers} workers");
        }
    }

    /// A fold state that counts its live copies in a counter every copy
    /// shares, and their high-water mark in another.
    struct LiveFold {
        live: Arc<AtomicUsize>,
    }

    impl LiveFold {
        fn new(live: &Arc<AtomicUsize>, peak: &Arc<AtomicUsize>) -> Self {
            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            Self {
                live: Arc::clone(live),
            }
        }
    }

    impl Drop for LiveFold {
        fn drop(&mut self) {
            self.live.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl FoldState for LiveFold {
        fn fold(&mut self, _label: u16, _trace: &[f64]) {}

        fn merge(self, _later: Self) -> Self {
            self
        }
    }

    /// While claim 0 stalls, the other workers may run at most
    /// `workers − 1` bit-sliced claims ahead of it, so the reorder buffer
    /// parks at most `(workers − 1) × LANES / FOLD_CHUNK` leaves instead
    /// of every later claim's.
    #[test]
    fn claim_window_bounds_the_parked_leaves() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = ProtocolConfig {
            traces_per_class: 512, // 8,192 traces: 8 claims of 64 leaves
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let workers = 4usize;
        let per_claim = LANES / FOLD_CHUNK;
        let policy = ExecPolicy {
            workers,
            faults: FaultPlan::none().with_slow_capture(0, 500),
            backend: Backend::Bitsliced,
            ..ExecPolicy::default()
        };
        let (live, peak) = (Arc::default(), Arc::default());
        let make = || LiveFold::new(&live, &peak);
        let (state, report) = fold_schedule_into(
            &sim,
            &schedule,
            &config.sampling,
            config.seed,
            &policy,
            ResumeState::fresh(),
            &make,
            None,
        );
        drop(state);
        assert_eq!(report.backend, Backend::Bitsliced);
        assert_eq!(live.load(Ordering::SeqCst), 0, "every leaf state dropped");
        assert_eq!(report.merge_depth, 8 * per_claim - 1);
        // Live leaves: the running state, at most `workers − 1` claims'
        // parked ones, and per worker one leaf being filled plus one
        // queued in the channel, plus the one the collector is absorbing.
        let bound = 1 + (workers - 1) * per_claim + 2 * workers + 1;
        let peak = peak.load(Ordering::SeqCst);
        assert!(peak <= bound, "{peak} live leaf states, bound {bound}");

        // A deadline or a cancel that trips while workers wait on the
        // window ends them: no claim past the window is started.
        for cause in [StopCause::Deadline, StopCause::Cancelled] {
            let token = CancelToken::new();
            let budget = match cause {
                StopCause::Cancelled => RunBudget::unlimited().with_cancel(token.clone()),
                _ => RunBudget::unlimited().with_time_limit(Duration::from_millis(100)),
            };
            let policy = ExecPolicy {
                budget,
                ..policy.clone()
            };
            let (_, report) = std::thread::scope(|scope| {
                scope.spawn(|| {
                    std::thread::sleep(Duration::from_millis(100));
                    token.cancel();
                });
                fold_schedule_into(
                    &sim,
                    &schedule,
                    &config.sampling,
                    config.seed,
                    &policy,
                    ResumeState::fresh(),
                    &make,
                    None,
                )
            });
            assert_eq!(report.interrupted.map(|i| i.cause), Some(cause));
            assert!(
                report.merge_depth < workers * per_claim,
                "{} leaves folded past a stalled claim 0",
                report.merge_depth
            );
        }
    }

    /// A panic in the collector (here the observer) or in a worker
    /// (here `make`) closes the claims, so workers waiting on the window
    /// behind a stalled claim 0 exit and the panic propagates instead
    /// of hanging the run.
    #[test]
    fn a_panic_ends_workers_waiting_on_the_window() {
        for panic_in_make in [false, true] {
            // A detached thread, so a hung run fails the test instead of
            // hanging it.
            let (done_tx, done_rx) = mpsc::channel();
            std::thread::spawn(move || {
                let circuit = SboxCircuit::build(Scheme::Opt);
                let config = ProtocolConfig {
                    traces_per_class: 16, // 256 traces: 16 single-leaf claims
                    ..ProtocolConfig::default()
                };
                let sim = Simulator::new(circuit.netlist(), &config.sim);
                let schedule = classified_schedule(&circuit, &config);
                let policy = ExecPolicy {
                    workers: 4,
                    faults: FaultPlan::none().with_slow_capture(0, 300),
                    ..ExecPolicy::default()
                };
                let made = AtomicUsize::new(0);
                let make = || {
                    let n = made.fetch_add(1, Ordering::SeqCst);
                    assert!(!panic_in_make || n != 1, "make failed");
                    SpectrumAccumulator::new(16, config.sampling.samples, SumMode::Exact)
                };
                let mut observe = |_: u64, _: &SpectrumAccumulator| panic!("observer failed");
                let observer: Option<ChunkObserver<'_, SpectrumAccumulator>> =
                    (!panic_in_make).then_some(&mut observe);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                    fold_schedule_into(
                        &sim,
                        &schedule,
                        &config.sampling,
                        config.seed,
                        &policy,
                        ResumeState::fresh(),
                        &make,
                        observer,
                    )
                }));
                let _ = done_tx.send(outcome.is_err());
            });
            let propagated = done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("the run hung after a panic");
            assert!(
                propagated,
                "panic_in_make={panic_in_make}: the panic was lost"
            );
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
                backend: Backend::Event,
                ..ExecPolicy::default()
            },
        );
        assert_eq!(acc.len(), 256);
        // Without a checkpoint sink no raw trace outlives its fold: at
        // most one capture per worker is resident at any instant on the
        // event engine.
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

    /// The bit-sliced sweep captures a whole lane batch before its first
    /// trace folds, so one uncheckpointed worker holds `LANES` traces at
    /// its peak, not one.
    #[test]
    fn bitsliced_fold_counts_its_swept_batch_as_resident() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = ProtocolConfig {
            traces_per_class: LANES / 16,
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let policy = ExecPolicy {
            workers: 1,
            backend: Backend::Bitsliced,
            ..ExecPolicy::default()
        };
        let (acc, report) = fold(&sim, &schedule, &config, &policy);
        assert_eq!(acc.len(), LANES as u64);
        assert_eq!(report.backend, Backend::Bitsliced);
        assert_eq!(report.peak_resident, LANES);
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
        let (traces, report) = capture_with(
            &sim,
            &schedule,
            &config,
            &ExecPolicy {
                workers: 2,
                ..ExecPolicy::default()
            },
            ResumeState {
                completed: completed(&reference, 40),
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
        for backend in [Backend::Event, Backend::Bitsliced] {
            let path = std::env::temp_dir().join(format!(
                "executor-budget-{}-{:?}-{backend}.sckp",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_file(&path);
            let (_, mut writer) = resume_checkpoint(&path, &meta).expect("ckpt");
            let policy = ExecPolicy {
                workers: 1,
                budget: RunBudget::unlimited().with_max_new_traces(20),
                backend,
                ..ExecPolicy::default()
            };
            let (_, report) = capture_with(
                &sim,
                &schedule,
                &config,
                &policy,
                ResumeState {
                    completed: Vec::new(),
                    checkpoint: Some(&mut writer),
                    sync_every: 0,
                },
            );
            // Claims are cut to the cap in whole chunks: 20 rounds up to
            // 32, one sweep on the bit-sliced engine and two chunks on
            // the event engine, and the budget trips with 32 captured.
            assert_eq!(report.backend, backend);
            let interruption = report.interrupted.expect("budget must interrupt");
            assert_eq!(interruption.cause, StopCause::TraceBudget);
            assert_eq!(interruption.remaining, schedule.len() - 32, "{backend}");
            assert_eq!(report.loads.iter().map(|l| l.traces).sum::<usize>(), 32);
            drop(writer);

            // Resume from the interrupted run's checkpoint: the final
            // traces must be bit-identical to an uninterrupted run.
            let (records, mut writer) = resume_checkpoint(&path, &meta).expect("reopen");
            assert_eq!(records.len(), 32);
            let completed = records
                .into_iter()
                .map(|(i, _, t)| (i as usize, t))
                .collect();
            let (traces, report) = capture_with(
                &sim,
                &schedule,
                &config,
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
    }

    /// A trace cap stops both engines at the same whole-chunk prefix at
    /// any worker count: no claim is taken while the claims in flight
    /// cover the cap, so the overshoot stays under one chunk.
    #[test]
    fn trace_cap_overshoots_less_than_one_chunk_at_any_worker_count() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = ProtocolConfig {
            traces_per_class: 16, // 256 traces
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        let prefix = without(&reference, &(112..256).collect::<Vec<_>>());
        for backend in [Backend::Event, Backend::Bitsliced] {
            for workers in [1usize, 4] {
                let policy = ExecPolicy {
                    workers,
                    budget: RunBudget::unlimited().with_max_new_traces(100),
                    backend,
                    ..ExecPolicy::default()
                };
                let (traces, report) =
                    capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
                let interruption = report.interrupted.expect("budget must interrupt");
                assert_eq!(interruption.cause, StopCause::TraceBudget);
                assert_eq!(interruption.remaining, 256 - 112, "{backend} / {workers}");
                assert_eq!(traces, prefix, "{backend} / {workers} workers");
            }
        }
    }

    /// A budget stop on a resumed batch run folds the claimed prefix,
    /// resumed traces included; resumed traces past it are neither in
    /// the set nor counted as resumed, so the set, the remaining and the
    /// quarantined indices add up to the schedule.
    #[test]
    fn interrupted_resume_accounts_for_every_index() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = small_config(); // 64 traces: four leaves
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        let (reference, _) = capture(&sim, &schedule, &config, 1);
        // Four resumed traces in leaf 0, sixteen (all of leaf 3) past the
        // prefix the budget lets the run claim.
        let resumed: Vec<_> = completed(&reference, 64)
            .into_iter()
            .filter(|(i, _)| *i < 4 || *i >= 48)
            .collect();
        for backend in [Backend::Event, Backend::Bitsliced] {
            let policy = ExecPolicy {
                workers: 1,
                budget: RunBudget::unlimited().with_max_new_traces(20),
                backend,
                ..ExecPolicy::default()
            };
            let (traces, report) = capture_with(
                &sim,
                &schedule,
                &config,
                &policy,
                ResumeState {
                    completed: resumed.clone(),
                    ..ResumeState::fresh()
                },
            );
            // The first claim covers leaves 0 and 1 (20 rounds up to 32
            // claimed indices) on the bit-sliced engine; on the event
            // engine leaf 0 captures 12 (12 < 20) and leaf 1 follows.
            // Either way the budget trips after a 32-trace prefix holding
            // 4 resumed and 28 new traces.
            let interruption = report.interrupted.expect("budget must interrupt");
            assert_eq!(traces.len(), 32, "{backend}");
            assert_eq!(traces, without(&reference, &(32..64).collect::<Vec<_>>()));
            assert_eq!(report.resumed, 4);
            assert_eq!(interruption.remaining, 32);
            assert_eq!(
                traces.len() + interruption.remaining + report.quarantined.len(),
                schedule.len()
            );
        }
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
            let (traces, report) =
                capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
            let interruption = report.interrupted.expect("cancelled run must report it");
            assert_eq!(interruption.cause, StopCause::Cancelled);
            assert_eq!(interruption.remaining, schedule.len());
            assert!(traces.is_empty(), "{workers} workers");
        }
    }

    /// A deadline cuts the first claim to one chunk, so a deadline that
    /// expires while that chunk captures stops a one-batch schedule
    /// after it, on either engine.
    #[test]
    fn deadline_stops_a_single_batch_schedule_after_one_chunk() {
        let circuit = SboxCircuit::build(Scheme::Opt);
        let config = ProtocolConfig {
            traces_per_class: LANES / 16, // one lane batch
            ..ProtocolConfig::default()
        };
        let sim = Simulator::new(circuit.netlist(), &config.sim);
        let schedule = classified_schedule(&circuit, &config);
        for backend in [Backend::Event, Backend::Bitsliced] {
            let policy = ExecPolicy {
                workers: 1,
                faults: FaultPlan::none().with_slow_capture(0, 300),
                budget: RunBudget::unlimited().with_time_limit(Duration::from_millis(100)),
                backend,
                ..ExecPolicy::default()
            };
            let (acc, report) = fold(&sim, &schedule, &config, &policy);
            let interruption = report.interrupted.expect("deadline must interrupt");
            assert_eq!(interruption.cause, StopCause::Deadline);
            assert_eq!(acc.len(), FOLD_CHUNK as u64, "{backend}");
            assert_eq!(interruption.remaining, LANES - FOLD_CHUNK);
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
        let (_, report) = capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        let (traces, report) =
            capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        let (_, report) = capture_with(&sim, &schedule, &config, &policy, ResumeState::fresh());
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
        let (reference, _) = capture_with(&sim, &schedule, &config, &clean, ResumeState::fresh());
        let make = || SpectrumAccumulator::new(16, config.sampling.samples, SumMode::Exact);

        // One run per fold state (the trace set or the spectral
        // accumulators), checkpointing into a fresh file and resuming the
        // first five indices: the checkpoint bytes plus the report's
        // accounting.
        let run = |policy: &ExecPolicy, batch: bool| {
            let path = std::env::temp_dir().join(format!(
                "executor-equiv-{}-{:?}-{batch}.sckp",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_file(&path);
            let (_, mut writer) = resume_checkpoint(&path, &meta).expect("ckpt");
            let resume = ResumeState {
                completed: completed(&reference, 5),
                checkpoint: Some(&mut writer),
                sync_every: 8,
            };
            let report = if batch {
                let (traces, report) = capture_with(&sim, &schedule, &config, policy, resume);
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
