//! The serving engine: a persistent supervised cluster turned into a
//! multi-tenant transform service.
//!
//! # Architecture
//!
//! [`ServeEngine::start`] plans one [`SoiFft`] and launches a background
//! thread running [`Supervisor::run`]. Inside the supervised closure,
//! **rank 0 doubles as the dispatcher**: it pulls admitted jobs from the
//! per-tenant queues (round-robin fair share), sheds anything whose
//! deadline already expired, and publishes the batch to the other ranks
//! through a sequence-numbered batch board. Every rank then executes the
//! batch job by job against its pooled [`SoiWorkspace`].
//!
//! # The per-job decision protocol
//!
//! Distributed execution must never let ranks disagree about a job's
//! fate (one rank retrying while another moves on deadlocks the next
//! collective). After each attempt every rank `fetch_max`es its outcome
//! severity into the job slot, then crosses a [`Comm::try_barrier`]
//! **twice**:
//!
//! 1. the first barrier fences the merge — after it, the maximum
//!    severity is frozen and every rank reads the same value, so all
//!    ranks compute the same decision (done / retry) from pure shared
//!    state;
//! 2. the second barrier fences the decision — only after it does rank 0
//!    finalize the slot (publish the result, wake the client), which is
//!    what makes the slot recyclable. No rank can observe a recycled
//!    slot's fresh lease mid-protocol.
//!
//! Retries re-merge into an attempt-parity-indexed severity cell, with
//! rank 0 pre-clearing the *other* cell between the two barriers, so the
//! retry loop costs no extra rendezvous. A **failed** barrier means a
//! rank died: survivors note the epoch abort (once, via a sequence-keyed
//! latch) and return, letting the supervisor respawn the epoch. In-flight
//! jobs of the aborted batch are finalized as [`JobError::RankFailure`]
//! by the next epoch's recovery scan (after every old rank thread has
//! exited — finalizing earlier would race a straggling survivor against
//! the slot's next lease); queued jobs simply survive in the queues.
//!
//! # Overload behaviour
//!
//! Admission is bounded (per-tenant queues + token buckets + deadline
//! feasibility, see [`Admission`]); expired queued jobs are shed before
//! execution; in-flight jobs past deadline are cancelled cooperatively at
//! collective boundaries via [`CancelGate`]; a completed-but-late job is
//! *discarded*, never delivered as a success. Repeated crash/SDC
//! escalations trip the [`CircuitBreaker`] into its configured
//! [`DegradedMode`]. The result: goodput plateaus at saturation instead
//! of collapsing, and every unserved job gets a typed answer.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};
use soifft_cluster::{
    ClusterConfig, Comm, CommError, CommStats, ExchangePolicy, HealthMonitor, RankOutcome,
    RestartPolicy, Supervisor, ValidationPolicy,
};
use soifft_core::pipeline::phases;
use soifft_core::{SoiError, SoiFft, SoiParams, SoiWorkspace};
use soifft_num::c64;

use crate::admission::{Admission, RateLimit};
use crate::breaker::{BreakerConfig, BreakerState, BreakerVerdict, CircuitBreaker};
use crate::job::{
    classify, FailDetail, JobError, JobSlot, Rejected, ShedPoint, Stage, NO_DEADLINE,
    SEV_CANCELLED, SEV_OK, SEV_TRANSIENT,
};

/// Jittered exponential backoff for transient-fault retries.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryConfig {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff · 2^k`, jittered.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(10),
        }
    }
}

/// Serving-layer configuration (the transform itself comes from the
/// [`SoiParams`] passed to [`ServeEngine::start`]).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Number of tenants sharing the engine.
    pub tenants: usize,
    /// Admission-queue bound per tenant.
    pub queue_capacity: usize,
    /// Jobs coalesced per dispatched batch.
    pub max_batch: usize,
    /// Optional per-tenant token-bucket rate limit (each tenant gets its
    /// own bucket of this shape).
    pub rate_limit: Option<RateLimit>,
    /// Transient-fault retry budget and backoff.
    pub retry: RetryConfig,
    /// Crash/SDC circuit breaker.
    pub breaker: BreakerConfig,
    /// Per-collective deadline/round budget for the resilient exchanges.
    pub exchange: ExchangePolicy,
    /// Compute-side validation for normal (non-degraded) service.
    pub validation: ValidationPolicy,
    /// Supervisor restart budget for rank deaths.
    pub restart: RestartPolicy,
    /// Cluster runtime configuration (fault plans, tracing, pool caps).
    /// `join_deadline` is raised to at least one day: a serving epoch
    /// legitimately outlives batch-run defaults, and the engine's own
    /// protocol bounds every wait.
    pub cluster: ClusterConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            tenants: 1,
            queue_capacity: 16,
            max_batch: 4,
            rate_limit: None,
            retry: RetryConfig::default(),
            breaker: BreakerConfig::default(),
            exchange: ExchangePolicy::default(),
            validation: ValidationPolicy::Off,
            restart: RestartPolicy::default(),
            cluster: ClusterConfig::default(),
        }
    }
}

/// Monotone counters over the engine's lifetime (all `Relaxed`; exact
/// totals are settled by [`ServeEngine::shutdown`]).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    shed_queue: AtomicU64,
    shed_inflight: AtomicU64,
    failed: AtomicU64,
    rank_failures: AtomicU64,
    rejected: AtomicU64,
    retries: AtomicU64,
    epoch_aborts: AtomicU64,
}

/// A point-in-time snapshot of the engine's serving counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServeStats {
    /// Jobs admitted past the front door.
    pub submitted: u64,
    /// Jobs completed within deadline.
    pub completed: u64,
    /// Jobs shed on deadline expiry while still queued.
    pub shed_queue: u64,
    /// Jobs shed on deadline expiry in flight (cancelled or late).
    pub shed_inflight: u64,
    /// Jobs failed permanently (corruption, retry exhaustion).
    pub failed: u64,
    /// Jobs failed because a rank died mid-flight.
    pub rank_failures: u64,
    /// Submissions rejected at the front door.
    pub rejected: u64,
    /// Transient-fault batch retries.
    pub retries: u64,
    /// Batches aborted by a rank death.
    pub epoch_aborts: u64,
}

impl ServeStats {
    /// Jobs that got a typed error instead of a result.
    pub fn unserved(&self) -> u64 {
        self.shed_queue + self.shed_inflight + self.failed + self.rank_failures
    }
}

/// What kind of work a published batch carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BatchKind {
    Work,
    Quit,
}

/// The dispatcher-to-ranks batch board: rank 0 writes under the lock and
/// bumps `seq`; other ranks wait for `seq` to advance and copy the job
/// list out. Quiescent between epochs (every writer is a rank thread).
#[derive(Debug)]
struct BatchBoard {
    seq: u64,
    kind: BatchKind,
    validation_off: bool,
    jobs: Vec<usize>,
}

/// Per-tenant admission queues plus the slot free list, under one lock
/// (lock order: this hub, then a slot's `state` — never the reverse).
#[derive(Debug)]
struct AdmissionHub {
    adm: Admission,
    queues: Vec<std::collections::VecDeque<usize>>,
    rr_cursor: usize,
    free: Vec<usize>,
    draining: bool,
}

/// State shared between the client-facing engine handle and the rank
/// threads.
pub(crate) struct EngineShared {
    n: usize,
    procs: usize,
    out_lens: Vec<usize>,
    out_offsets: Vec<usize>,
    max_batch: usize,
    origin: Instant,
    slots: Vec<JobSlot>,
    hub: Mutex<AdmissionHub>,
    /// Wakes the dispatcher on submit/drain.
    hub_cv: Condvar,
    board: Mutex<BatchBoard>,
    board_cv: Condvar,
    breaker: Mutex<CircuitBreaker>,
    /// EWMA of per-job execution time, nanoseconds (0 = no estimate yet).
    ewma_exec_ns: AtomicU64,
    /// Batch sequence that already charged an epoch abort (dedup latch).
    aborted_seq: AtomicU64,
    dead: AtomicBool,
    ctr: Counters,
}

impl EngineShared {
    fn now_ns(&self) -> u64 {
        Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64
    }
}

/// Immutable per-engine plans captured by the rank closure.
struct EnginePlans {
    fft_on: SoiFft,
    fft_off: SoiFft,
    exchange: ExchangePolicy,
    retry: RetryConfig,
    per_rank: usize,
}

/// What `run_job` tells the rank loop to do next.
enum JobFlow {
    Continue,
    EpochAbort,
}

/// FNV-1a mix for deterministic, cross-rank-identical retry jitter.
fn jitter_unit(seq: u64, slot: usize, attempt: u32) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [seq, slot as u64, u64::from(attempt)] {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn backoff(retry: &RetryConfig, seq: u64, slot: usize, attempt: u32) -> Duration {
    let exp = retry
        .base_backoff
        .saturating_mul(1u32 << attempt.min(16))
        .min(retry.max_backoff);
    // Jitter in [0.5, 1.0] — deterministic per (batch, job, attempt), so
    // every rank sleeps the same duration and re-enters together.
    exp.mul_f64(0.5 + 0.5 * jitter_unit(seq, slot, attempt))
}

/// Finalizes a slot exactly once: publishes `result`, wakes the client,
/// recycles immediately if the ticket was already abandoned. Returns
/// whether this call won the finalize race.
fn finalize_slot(shared: &EngineShared, idx: usize, result: Result<(), JobError>) -> bool {
    let slot = &shared.slots[idx];
    if slot
        .finalized
        .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        return false;
    }
    match &result {
        Ok(()) => shared.ctr.completed.fetch_add(1, Ordering::Relaxed),
        Err(JobError::DeadlineExpired {
            shed_at: ShedPoint::Queue,
        }) => shared.ctr.shed_queue.fetch_add(1, Ordering::Relaxed),
        Err(JobError::DeadlineExpired {
            shed_at: ShedPoint::InFlight,
        }) => shared.ctr.shed_inflight.fetch_add(1, Ordering::Relaxed),
        Err(JobError::RankFailure) => shared.ctr.rank_failures.fetch_add(1, Ordering::Relaxed),
        Err(_) => shared.ctr.failed.fetch_add(1, Ordering::Relaxed),
    };
    let abandoned = {
        let mut st = slot.state.lock();
        st.result = Some(result);
        st.stage = Stage::Done;
        slot.done_cv.notify_all();
        st.abandoned
    };
    if abandoned {
        recycle_slot(shared, idx);
    }
    true
}

/// Returns a finished (or abandoned-and-finalized) slot to the free pool.
fn recycle_slot(shared: &EngineShared, idx: usize) {
    {
        let mut st = shared.slots[idx].state.lock();
        st.stage = Stage::Free;
        st.result = None;
        st.abandoned = false;
    }
    shared.hub.lock().free.push(idx);
}

/// The supervised per-rank closure body.
fn rank_loop(shared: &EngineShared, plans: &EnginePlans, comm: &mut Comm) {
    let rank = comm.rank();
    let mut ws = plans.fft_on.make_workspace();
    let mut local_jobs: Vec<usize> = Vec::with_capacity(shared.max_batch);

    // Snapshot the batch sequence BEFORE the entry barrier: the board is
    // quiescent between epochs, and the barrier orders every snapshot
    // before the dispatcher's first publication — no rank can miss a
    // batch (a missed batch would wedge the per-job barriers).
    let mut last_seq = shared.board.lock().seq;
    if comm.try_barrier().is_err() {
        return;
    }
    if rank == 0 {
        recover_stale_batch(shared, comm);
    }

    loop {
        let (kind, validation_off) = if rank == 0 {
            dispatch(shared, comm, &mut local_jobs, &mut last_seq)
        } else {
            await_batch(shared, &mut local_jobs, &mut last_seq)
        };
        if kind == BatchKind::Quit {
            return;
        }
        let fft = if validation_off {
            &plans.fft_off
        } else {
            &plans.fft_on
        };
        // Nothing reads the per-phase records of a finished batch (the
        // report's counters and the trace buffer live elsewhere), so drop
        // them here: the ledger stays bounded by one batch however long
        // the engine serves.
        comm.stats_mut().clear_records();
        comm.stats_mut().span_open("serve-batch");
        for &idx in &local_jobs {
            match run_job(shared, plans, fft, comm, &mut ws, idx, last_seq, rank) {
                JobFlow::Continue => {}
                JobFlow::EpochAbort => {
                    comm.stats_mut().span_close("serve-batch");
                    note_epoch_abort(shared, last_seq);
                    return;
                }
            }
        }
        comm.stats_mut().span_close("serve-batch");
    }
}

/// Charges one epoch abort per batch sequence (the first survivor to get
/// here wins) and feeds the circuit breaker.
fn note_epoch_abort(shared: &EngineShared, seq: u64) {
    if shared.aborted_seq.swap(seq, Ordering::AcqRel) != seq {
        shared.ctr.epoch_aborts.fetch_add(1, Ordering::Relaxed);
        shared.breaker.lock().on_failure(Instant::now());
    }
}

/// New-epoch recovery (rank 0, after the entry barrier): every thread of
/// the previous epoch has exited, so in-flight jobs of an aborted batch
/// can now be failed without racing a straggler against the slot's next
/// lease.
fn recover_stale_batch(shared: &EngineShared, comm: &mut Comm) {
    let stale: Vec<usize> = {
        let board = shared.board.lock();
        if board.kind != BatchKind::Work {
            return;
        }
        board.jobs.clone()
    };
    for idx in stale {
        if finalize_slot(shared, idx, Err(JobError::RankFailure)) {
            comm.stats_mut().note_job_shed();
        }
    }
}

/// Rank 0: build and publish the next batch (or `Quit` once draining and
/// empty). Sheds expired queued jobs while scanning.
fn dispatch(
    shared: &EngineShared,
    comm: &mut Comm,
    local_jobs: &mut Vec<usize>,
    last_seq: &mut u64,
) -> (BatchKind, bool) {
    loop {
        let now_ns = shared.now_ns();
        let mut hub = shared.hub.lock();
        // Shed queued jobs whose deadline already expired: they get their
        // typed answer *now*, without costing the ranks anything.
        for tenant in 0..hub.queues.len() {
            let mut kept = 0;
            while kept < hub.queues[tenant].len() {
                let idx = hub.queues[tenant][kept];
                let dl = shared.slots[idx].deadline_ns.load(Ordering::Acquire);
                if dl != NO_DEADLINE && now_ns >= dl {
                    hub.queues[tenant].remove(kept);
                    hub.adm.release(tenant);
                    finalize_slot(
                        shared,
                        idx,
                        Err(JobError::DeadlineExpired {
                            shed_at: ShedPoint::Queue,
                        }),
                    );
                    comm.stats_mut().note_job_shed();
                } else {
                    kept += 1;
                }
            }
        }
        // Fair-share collection: rotate the cursor, take at most one job
        // per tenant per rotation until the batch fills or queues empty.
        local_jobs.clear();
        let tenants = hub.queues.len();
        let mut empty_rotations = 0;
        while local_jobs.len() < shared.max_batch && empty_rotations < tenants {
            let t = hub.rr_cursor % tenants;
            hub.rr_cursor = (hub.rr_cursor + 1) % tenants;
            if let Some(idx) = hub.queues[t].pop_front() {
                hub.adm.release(t);
                let waited_ns =
                    now_ns.saturating_sub(shared.slots[idx].enqueued_ns.load(Ordering::Acquire));
                comm.stats_mut().add_queue_wait(waited_ns as f64 * 1e-9);
                shared.slots[idx].state.lock().stage = Stage::InFlight;
                local_jobs.push(idx);
                empty_rotations = 0;
            } else {
                empty_rotations += 1;
            }
        }
        if !local_jobs.is_empty() {
            drop(hub);
            let validation_off = shared.breaker.lock().batch_validation_off(Instant::now());
            publish(
                shared,
                BatchKind::Work,
                local_jobs,
                validation_off,
                last_seq,
            );
            return (BatchKind::Work, validation_off);
        }
        if hub.draining {
            drop(hub);
            local_jobs.clear();
            publish(shared, BatchKind::Quit, local_jobs, false, last_seq);
            return (BatchKind::Quit, false);
        }
        // Idle: sleep until a submit/drain signal, waking periodically to
        // shed newly expired queued jobs.
        shared.hub_cv.wait_for(&mut hub, Duration::from_millis(1));
    }
}

fn publish(
    shared: &EngineShared,
    kind: BatchKind,
    jobs: &[usize],
    validation_off: bool,
    last_seq: &mut u64,
) {
    let mut board = shared.board.lock();
    board.seq += 1;
    board.kind = kind;
    board.validation_off = validation_off;
    board.jobs.clear();
    board.jobs.extend_from_slice(jobs);
    *last_seq = board.seq;
    shared.board_cv.notify_all();
}

/// Non-dispatcher ranks: wait for the next published batch.
fn await_batch(
    shared: &EngineShared,
    local_jobs: &mut Vec<usize>,
    last_seq: &mut u64,
) -> (BatchKind, bool) {
    let mut board = shared.board.lock();
    while board.seq == *last_seq {
        shared.board_cv.wait(&mut board);
    }
    *last_seq = board.seq;
    local_jobs.clear();
    local_jobs.extend_from_slice(&board.jobs);
    (board.kind, board.validation_off)
}

/// Pure decision from the frozen post-barrier severity (identical on
/// every rank).
enum Decision {
    Finalize(Result<(), JobError>),
    Retry,
}

fn decide(slot: &JobSlot, parity: usize, attempt: u32, max_retries: u32) -> Decision {
    let sev = slot.severity[parity].load(Ordering::Acquire);
    match sev {
        SEV_OK => Decision::Finalize(Ok(())),
        SEV_CANCELLED => Decision::Finalize(Err(JobError::DeadlineExpired {
            shed_at: ShedPoint::InFlight,
        })),
        SEV_TRANSIENT if attempt < max_retries => Decision::Retry,
        _ => {
            let detail = slot.detail[parity].lock().clone();
            let (phase, error) = match detail {
                Some(FailDetail { phase, error, .. }) => (phase, error),
                // A rank merged a severity but its detail write lost the
                // lattice race to an equal class; report generically.
                None => (phases::ALL_TO_ALL, CommError::Timeout),
            };
            let err = if sev == SEV_TRANSIENT {
                JobError::RetriesExhausted {
                    attempts: attempt + 1,
                    last: error,
                }
            } else {
                // SEV_PERMANENT, or a typed fatal error whose barrier
                // still completed (no actual death): the job fails
                // permanently, the batch continues.
                JobError::Failed { phase, error }
            };
            Decision::Finalize(Err(err))
        }
    }
}

/// Executes one job collectively: attempt → severity merge → double
/// barrier → shared decision → finalize (rank 0) or deterministic
/// jittered retry.
#[allow(clippy::too_many_arguments)]
fn run_job(
    shared: &EngineShared,
    plans: &EnginePlans,
    fft: &SoiFft,
    comm: &mut Comm,
    ws: &mut SoiWorkspace,
    idx: usize,
    seq: u64,
    rank: usize,
) -> JobFlow {
    let slot = &shared.slots[idx];
    let mut attempt: u32 = 0;
    loop {
        let parity = (attempt % 2) as usize;
        // Cooperative deadline shed: any rank noticing expiry cancels the
        // gate; the first rank to reach a collective boundary fixes one
        // consistent shed-or-proceed decision for everyone.
        let dl = slot.deadline_ns.load(Ordering::Acquire);
        if dl != NO_DEADLINE && shared.now_ns() >= dl {
            slot.gate.cancel();
        }
        let started = Instant::now();
        let result = {
            let input = slot.input.read();
            let lo = rank * plans.per_rank;
            let mut part = slot.parts[rank].lock();
            part.resize(shared.out_lens[rank], c64::ZERO);
            fft.try_forward_into_cancellable(
                comm,
                &input[lo..lo + plans.per_rank],
                &plans.exchange,
                &slot.gate,
                ws,
                &mut part,
            )
        };
        if let Err(run_err) = result {
            let sev = classify(&run_err.error);
            slot.severity[parity].fetch_max(sev, Ordering::AcqRel);
            let mut detail = slot.detail[parity].lock();
            let replace = detail.as_ref().is_none_or(|d| sev > d.sev);
            if replace {
                *detail = Some(FailDetail {
                    sev,
                    phase: run_err.phase,
                    error: run_err.error,
                });
            }
        }
        // Barrier 1: fence the merge. Failure = a peer died.
        if comm.try_barrier().is_err() {
            return JobFlow::EpochAbort;
        }
        let decision = decide(slot, parity, attempt, plans.retry.max_retries);
        if rank == 0 {
            if let Decision::Retry = decision {
                // Pre-clear the other parity cell for the next attempt —
                // unused by anyone until barrier 2 releases the ranks.
                let next = (parity + 1) % 2;
                slot.severity[next].store(SEV_OK, Ordering::Release);
                *slot.detail[next].lock() = None;
                slot.gate.reset();
                comm.stats_mut().note_serve_retry();
                shared.ctr.retries.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Barrier 2: fence the decision (and rank 0's parity reset).
        // Only after this may the slot be finalized and thus recycled.
        if comm.try_barrier().is_err() {
            return JobFlow::EpochAbort;
        }
        match decision {
            Decision::Retry => {
                std::thread::sleep(backoff(&plans.retry, seq, idx, attempt));
                attempt += 1;
            }
            Decision::Finalize(result) => {
                if rank == 0 {
                    let now = Instant::now();
                    let result = match result {
                        // A job that completed *after* its deadline is
                        // discarded, never delivered: late success is a
                        // correctness bug in a deadline-driven service.
                        Ok(()) => {
                            let dl = slot.deadline_ns.load(Ordering::Acquire);
                            if dl != NO_DEADLINE && shared.now_ns() >= dl {
                                Err(JobError::DeadlineExpired {
                                    shed_at: ShedPoint::InFlight,
                                })
                            } else {
                                Ok(())
                            }
                        }
                        other => other,
                    };
                    match &result {
                        Ok(()) => {
                            let exec_ns = now.saturating_duration_since(started).as_nanos() as u64;
                            let old = shared.ewma_exec_ns.load(Ordering::Relaxed);
                            let new = if old == 0 {
                                exec_ns
                            } else {
                                (old / 10) * 7 + (exec_ns / 10) * 3
                            };
                            shared.ewma_exec_ns.store(new.max(1), Ordering::Relaxed);
                            shared.breaker.lock().on_success(now);
                        }
                        Err(JobError::DeadlineExpired { .. }) => {
                            comm.stats_mut().note_job_shed();
                        }
                        Err(JobError::Failed {
                            error: CommError::SilentCorruption { .. },
                            ..
                        }) => {
                            shared.breaker.lock().on_failure(now);
                        }
                        Err(_) => {}
                    }
                    finalize_slot(shared, idx, result);
                }
                return JobFlow::Continue;
            }
        }
    }
}

/// Fails every slot that still holds a lease (engine teardown: drain
/// completed with abandoned stragglers, or the restart budget ran out).
fn fail_leftovers(shared: &EngineShared) {
    for idx in 0..shared.slots.len() {
        let stage = shared.slots[idx].state.lock().stage;
        let err = match stage {
            Stage::Free | Stage::Done => continue,
            Stage::InFlight => JobError::RankFailure,
            Stage::Queued => JobError::EngineDown,
        };
        finalize_slot(shared, idx, Err(err));
    }
    let mut hub = shared.hub.lock();
    for q in &mut hub.queues {
        q.clear();
    }
}

/// Exit summary carried back from the engine thread.
struct EngineExit {
    restarts: u32,
    epochs: u64,
    clean: bool,
    rank_stats: Vec<Option<CommStats>>,
}

/// Final report from [`ServeEngine::shutdown`].
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ServeReport {
    /// Serving counters at shutdown.
    pub stats: ServeStats,
    /// Supervisor restarts consumed over the engine's lifetime.
    pub restarts: u32,
    /// Epochs launched (`restarts + 1`).
    pub epochs: u64,
    /// True when the final epoch drained cleanly on every rank.
    pub clean: bool,
    /// Each rank's communication ledger from the final epoch (`None` for
    /// ranks that did not exit normally).
    pub rank_stats: Vec<Option<CommStats>>,
    /// True when the engine's plan was constructed from tuned wisdom
    /// (the auto-tuner had installed execution knobs for this shape
    /// before [`ServeEngine::start`] ran).
    pub wisdom_backed: bool,
}

/// Handle to a completed or in-flight submission. Obtain the result with
/// [`JobTicket::wait`] / [`JobTicket::wait_into`]; dropping the ticket
/// abandons the job (it still runs, or is shed, but its slot recycles
/// automatically).
///
/// While waiting, the ticket doubles as the job's deadline watchdog: if
/// the deadline passes mid-flight, the waiter cancels the job's
/// [`CancelGate`] so the ranks shed it at the next collective boundary.
#[must_use = "a ticket is the only way to observe the job's result"]
pub struct JobTicket {
    shared: Arc<EngineShared>,
    idx: usize,
    waited: bool,
}

impl std::fmt::Debug for JobTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobTicket")
            .field("slot", &self.idx)
            .finish()
    }
}

impl JobTicket {
    /// Blocks until the job resolves; returns the full transform output.
    pub fn wait(self) -> Result<Vec<c64>, JobError> {
        let mut out = Vec::new();
        self.wait_into(&mut out)?;
        Ok(out)
    }

    /// Blocks until the job resolves; writes the full transform output
    /// into `out` (resized to `N`; a warm `out` of capacity `N` makes
    /// the collect path allocation-free).
    pub fn wait_into(mut self, out: &mut Vec<c64>) -> Result<(), JobError> {
        self.waited = true;
        let shared = Arc::clone(&self.shared);
        let idx = self.idx;
        wait_and_recycle(&shared, idx, out)
    }
}

impl Drop for JobTicket {
    fn drop(&mut self) {
        if self.waited {
            return;
        }
        let done = {
            let mut st = self.shared.slots[self.idx].state.lock();
            match st.stage {
                Stage::Done => true,
                _ => {
                    st.abandoned = true;
                    false
                }
            }
        };
        if done {
            recycle_slot(&self.shared, self.idx);
        }
    }
}

fn wait_and_recycle(shared: &EngineShared, idx: usize, out: &mut Vec<c64>) -> Result<(), JobError> {
    let slot = &shared.slots[idx];
    let deadline_ns = slot.deadline_ns.load(Ordering::Acquire);
    let mut cancelled = false;
    let mut st = slot.state.lock();
    while st.stage != Stage::Done {
        let now_ns = shared.now_ns();
        if deadline_ns != NO_DEADLINE && now_ns >= deadline_ns && !cancelled {
            // Deadline watchdog: shed the job at its next collective
            // boundary instead of letting it run to a late completion.
            slot.gate.cancel();
            cancelled = true;
        }
        let nap = if deadline_ns == NO_DEADLINE || cancelled {
            Duration::from_millis(50)
        } else {
            Duration::from_nanos(deadline_ns - now_ns).min(Duration::from_millis(50))
        };
        slot.done_cv.wait_for(&mut st, nap);
    }
    let result = st.result.clone().unwrap_or(Err(JobError::EngineDown));
    if result.is_ok() {
        out.resize(shared.n, c64::ZERO);
        for r in 0..shared.procs {
            let part = slot.parts[r].lock();
            let off = shared.out_offsets[r];
            out[off..off + shared.out_lens[r]].copy_from_slice(&part);
        }
    }
    st.stage = Stage::Free;
    st.result = None;
    st.abandoned = false;
    drop(st);
    shared.hub.lock().free.push(idx);
    result
}

/// The overload-safe serving front end (see module docs).
pub struct ServeEngine {
    shared: Arc<EngineShared>,
    monitor: Arc<HealthMonitor>,
    handle: Option<JoinHandle<EngineExit>>,
    wisdom_backed: bool,
}

impl ServeEngine {
    /// Plans the transform and launches the supervised serving cluster.
    pub fn start(params: SoiParams, config: ServeConfig) -> Result<ServeEngine, SoiError> {
        assert!(config.max_batch >= 1, "batch size must be positive");
        let fft_on = SoiFft::new(params)?.with_validation(config.validation);
        // `SoiFft::new` consulted the wisdom registry for this shape;
        // record whether tuned knobs were available so operators can
        // tell a tuned engine from one running on static defaults.
        let wisdom_backed = soifft_core::wisdom::contains(&soifft_core::WisdomKey {
            n: params.n,
            procs: params.procs,
            precision: fft_on.precision(),
        });
        let fft_off = fft_on.clone().with_validation(ValidationPolicy::Off);
        let procs = params.procs;
        let out_lens: Vec<usize> = (0..procs).map(|r| fft_on.output_len(r)).collect();
        let mut out_offsets = Vec::with_capacity(procs);
        let mut acc = 0;
        for &len in &out_lens {
            out_offsets.push(acc);
            acc += len;
        }
        let now = Instant::now();
        // Slot pool: every queueable job + a batch in flight + a batch of
        // completed-but-uncollected results. Lazy collectors exhaust the
        // pool and see QueueFull — backpressure, not memory growth.
        let slot_count = config.tenants * config.queue_capacity + 2 * config.max_batch;
        let shared = Arc::new(EngineShared {
            n: params.n,
            procs,
            out_lens: out_lens.clone(),
            out_offsets,
            max_batch: config.max_batch,
            origin: now,
            slots: (0..slot_count)
                .map(|_| JobSlot::new(params.n, &out_lens))
                .collect(),
            hub: Mutex::new(AdmissionHub {
                adm: Admission::new(
                    config.tenants,
                    config.queue_capacity,
                    config.rate_limit,
                    now,
                ),
                queues: (0..config.tenants)
                    .map(|_| std::collections::VecDeque::with_capacity(config.queue_capacity))
                    .collect(),
                rr_cursor: 0,
                free: (0..slot_count).rev().collect(),
                draining: false,
            }),
            hub_cv: Condvar::new(),
            board: Mutex::new(BatchBoard {
                seq: 0,
                kind: BatchKind::Quit,
                validation_off: false,
                jobs: Vec::with_capacity(config.max_batch),
            }),
            board_cv: Condvar::new(),
            breaker: Mutex::new(CircuitBreaker::new(config.breaker)),
            ewma_exec_ns: AtomicU64::new(0),
            aborted_seq: AtomicU64::new(u64::MAX),
            dead: AtomicBool::new(false),
            ctr: Counters::default(),
        });
        // Initial board kind is Quit but seq 0 is never "new", so no rank
        // acts on it; make that explicit for the first recovery scan.
        shared.board.lock().kind = BatchKind::Quit;

        let mut cluster = config.cluster.clone();
        // A serving epoch idles at condvars between batches and may
        // legitimately outlive batch-run join deadlines; every wait in
        // the engine protocol is otherwise bounded (exchange deadlines,
        // cancellable barriers), so a huge deadline costs nothing.
        cluster.join_deadline = cluster.join_deadline.max(Duration::from_secs(86_400));
        let supervisor = Supervisor::new(cluster, config.restart);
        let monitor = supervisor.monitor();
        let plans = Arc::new(EnginePlans {
            fft_on,
            fft_off,
            exchange: config.exchange,
            retry: config.retry,
            per_rank: params.per_rank(),
        });
        let loop_shared = Arc::clone(&shared);
        let exit_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("soifft-serve".into())
            .spawn(move || {
                let run = supervisor.run(procs, |comm, _ctx| {
                    rank_loop(&loop_shared, &plans, comm);
                    comm.stats().clone()
                });
                exit_shared.dead.store(true, Ordering::Release);
                // Every rank thread has exited: leftover leases can be
                // failed without racing a straggler.
                fail_leftovers(&exit_shared);
                exit_shared.hub_cv.notify_all();
                EngineExit {
                    restarts: run.restarts,
                    epochs: run.epochs,
                    clean: run.all_ok(),
                    rank_stats: run
                        .outcomes
                        .into_iter()
                        .map(|o| match o {
                            RankOutcome::Ok(stats) => Some(stats),
                            _ => None,
                        })
                        .collect(),
                }
            })
            .expect("spawn serve engine thread");
        Ok(ServeEngine {
            shared,
            monitor,
            handle: Some(handle),
            wisdom_backed,
        })
    }

    /// True when this engine's plan came from tuned wisdom rather than
    /// the static defaults (see [`soifft_core::wisdom`]).
    pub fn wisdom_backed(&self) -> bool {
        self.wisdom_backed
    }

    /// The planned transform length `N` (required input length).
    pub fn transform_len(&self) -> usize {
        self.shared.n
    }

    /// Submits one transform for `tenant`, with an optional completion
    /// deadline relative to now. On admission the input is copied into a
    /// pooled slot and a [`JobTicket`] is returned; on rejection, nothing
    /// was queued and the typed [`Rejected`] says why and (where
    /// meaningful) how long to back off.
    pub fn submit(
        &self,
        tenant: usize,
        input: &[c64],
        deadline: Option<Duration>,
    ) -> Result<JobTicket, Rejected> {
        let shared = &self.shared;
        let reject = |r: Rejected| {
            shared.ctr.rejected.fetch_add(1, Ordering::Relaxed);
            Err(r)
        };
        if shared.dead.load(Ordering::Acquire) {
            return reject(Rejected::Unavailable { retry_after: None });
        }
        if input.len() != shared.n {
            return reject(Rejected::InvalidInput {
                expected: shared.n,
                got: input.len(),
            });
        }
        let now = Instant::now();
        match shared.breaker.lock().admit(now) {
            BreakerVerdict::Admit | BreakerVerdict::AdmitDegraded => {}
            BreakerVerdict::Reject(retry_after) => {
                return reject(Rejected::Unavailable {
                    retry_after: Some(retry_after),
                });
            }
        }
        let mut hub = shared.hub.lock();
        if hub.draining {
            return reject(Rejected::Draining);
        }
        // Deadline feasibility against the live backlog estimate, before
        // a token is consumed.
        if let Some(d) = deadline {
            let ewma = shared.ewma_exec_ns.load(Ordering::Relaxed);
            if ewma > 0 {
                let batches_ahead = 1 + hub.adm.total_depth() as u64 / shared.max_batch as u64;
                let estimated = Duration::from_nanos(ewma.saturating_mul(batches_ahead));
                if d < estimated {
                    return reject(Rejected::DeadlineInfeasible {
                        deadline: d,
                        estimated,
                    });
                }
            }
        }
        if let Err(r) = hub.adm.try_admit(tenant, now) {
            return reject(r);
        }
        let Some(idx) = hub.free.pop() else {
            // Pool exhausted by uncollected results: backpressure.
            let capacity = hub.adm.queue_capacity();
            hub.adm.release(tenant);
            return reject(Rejected::QueueFull { tenant, capacity });
        };
        {
            let slot = &shared.slots[idx];
            let mut st = slot.state.lock();
            st.stage = Stage::Queued;
            st.result = None;
            st.abandoned = false;
            slot.finalized.store(false, Ordering::Release);
            slot.severity[0].store(SEV_OK, Ordering::Release);
            slot.severity[1].store(SEV_OK, Ordering::Release);
            *slot.detail[0].lock() = None;
            *slot.detail[1].lock() = None;
            slot.gate.reset();
            slot.tenant.store(tenant, Ordering::Release);
            let now_ns = shared.now_ns();
            slot.enqueued_ns.store(now_ns, Ordering::Release);
            slot.deadline_ns.store(
                deadline.map_or(NO_DEADLINE, |d| now_ns.saturating_add(d.as_nanos() as u64)),
                Ordering::Release,
            );
            let mut inp = slot.input.write();
            inp.clear();
            inp.extend_from_slice(input);
        }
        hub.queues[tenant].push_back(idx);
        drop(hub);
        shared.ctr.submitted.fetch_add(1, Ordering::Relaxed);
        shared.hub_cv.notify_all();
        Ok(JobTicket {
            shared: Arc::clone(shared),
            idx,
            waited: false,
        })
    }

    /// Stops admitting work; queued and in-flight jobs still complete.
    pub fn drain(&self) {
        self.shared.hub.lock().draining = true;
        self.shared.hub_cv.notify_all();
    }

    /// Drains, waits for the cluster to quit, and reports.
    pub fn shutdown(mut self) -> ServeReport {
        self.drain();
        let exit = self
            .handle
            .take()
            .map(|h| h.join().expect("serve engine thread panicked"));
        let stats = self.stats();
        match exit {
            Some(e) => ServeReport {
                stats,
                restarts: e.restarts,
                epochs: e.epochs,
                clean: e.clean,
                rank_stats: e.rank_stats,
                wisdom_backed: self.wisdom_backed,
            },
            None => ServeReport {
                stats,
                restarts: 0,
                epochs: 0,
                clean: false,
                rank_stats: Vec::new(),
                wisdom_backed: self.wisdom_backed,
            },
        }
    }

    /// Live serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.ctr;
        ServeStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            shed_queue: c.shed_queue.load(Ordering::Relaxed),
            shed_inflight: c.shed_inflight.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            rank_failures: c.rank_failures.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            epoch_aborts: c.epoch_aborts.load(Ordering::Relaxed),
        }
    }

    /// The supervisor's live health counters (epochs, deaths, restarts).
    pub fn health(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    /// Current breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.lock().state(Instant::now())
    }

    /// True once the cluster has exited (drained or budget-exhausted).
    pub fn is_down(&self) -> bool {
        self.shared.dead.load(Ordering::Acquire)
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.shared.hub.lock().draining = true;
            self.shared.hub_cv.notify_all();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{SEV_FATAL, SEV_PERMANENT};

    fn retry() -> RetryConfig {
        RetryConfig {
            max_retries: 2,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(10),
        }
    }

    #[test]
    fn backoff_is_deterministic_jittered_and_bounded() {
        let r = retry();
        for attempt in 0..8 {
            let a = backoff(&r, 7, 3, attempt);
            let b = backoff(&r, 7, 3, attempt);
            // Same (batch, job, attempt) on every rank: identical sleeps,
            // so the ranks re-enter the retry together.
            assert_eq!(a, b);
            let exp = r
                .base_backoff
                .saturating_mul(1 << attempt.min(16))
                .min(r.max_backoff);
            assert!(a >= exp.mul_f64(0.5) && a <= exp);
        }
        // Different jobs jitter differently (with overwhelming probability
        // for any fixed pair; these constants are part of the test vector).
        assert_ne!(backoff(&r, 7, 3, 1), backoff(&r, 7, 4, 1));
    }

    fn slot_with_sev(sev: u8, error: CommError) -> JobSlot {
        let slot = JobSlot::new(8, &[4, 4]);
        slot.severity[0].store(sev, Ordering::Release);
        *slot.detail[0].lock() = Some(FailDetail {
            sev,
            phase: phases::GHOST,
            error,
        });
        slot
    }

    #[test]
    fn decide_covers_the_severity_lattice() {
        let slot = JobSlot::new(8, &[4, 4]);
        assert!(matches!(decide(&slot, 0, 0, 2), Decision::Finalize(Ok(()))));

        let slot = slot_with_sev(SEV_TRANSIENT, CommError::Timeout);
        assert!(matches!(decide(&slot, 0, 0, 2), Decision::Retry));
        assert!(matches!(decide(&slot, 0, 1, 2), Decision::Retry));
        // Retry budget exhausted: typed RetriesExhausted with the count.
        match decide(&slot, 0, 2, 2) {
            Decision::Finalize(Err(JobError::RetriesExhausted { attempts, last })) => {
                assert_eq!(attempts, 3);
                assert_eq!(last, CommError::Timeout);
            }
            _ => panic!("expected RetriesExhausted"),
        }

        let slot = slot_with_sev(
            SEV_PERMANENT,
            CommError::SilentCorruption {
                rank: 1,
                segment: None,
            },
        );
        match decide(&slot, 0, 0, 2) {
            Decision::Finalize(Err(JobError::Failed { phase, .. })) => {
                assert_eq!(phase, phases::GHOST)
            }
            _ => panic!("expected permanent failure"),
        }

        // Fatal severity whose barrier still completed: permanent failure,
        // not a retry.
        let slot = slot_with_sev(SEV_FATAL, CommError::Shutdown);
        assert!(matches!(
            decide(&slot, 0, 0, 2),
            Decision::Finalize(Err(JobError::Failed { .. }))
        ));

        // Cancellation wins over nothing-happened but loses to transient.
        let slot = JobSlot::new(8, &[4, 4]);
        slot.severity[0].store(SEV_CANCELLED, Ordering::Release);
        assert!(matches!(
            decide(&slot, 0, 0, 2),
            Decision::Finalize(Err(JobError::DeadlineExpired {
                shed_at: ShedPoint::InFlight
            }))
        ));
    }
}
