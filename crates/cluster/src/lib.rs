//! Simulated message-passing cluster runtime.
//!
//! The paper runs on 512 Stampede nodes over FDR InfiniBand with Intel MPI;
//! this crate is the substitution substrate (DESIGN.md §1): it runs `P`
//! ranks as OS threads and gives them an MPI-flavoured interface —
//! point-to-point sends with tags, barriers, and the collectives the two
//! distributed FFT algorithms need. The *algorithmic* communication
//! structure (message counts, sizes, and who-talks-to-whom) is exactly the
//! paper's; only the transport is threads + channels instead of
//! InfiniBand.
//!
//! Every rank keeps a [`CommStats`] ledger of bytes and wall time per named
//! phase, which is how the `fig1_trace` / `fig2_trace` binaries show the
//! "3 all-to-alls vs 1 all-to-all + ghost exchange" contrast, and how
//! functional runs are cross-checked against the analytic model's
//! byte-volume predictions.
//!
//! # Fault model (DESIGN.md §1, "Fault model")
//!
//! A real 512-node run sees dropped packets, stragglers, and node deaths;
//! the runtime therefore layers a fault-injection and recovery stack on the
//! perfect thread-and-channel transport:
//!
//! * [`FaultPlan`] / [`FaultInjector`] ([`fault`]) — seeded, deterministic
//!   injection of drops, delays, duplicates, bit corruption, and targeted
//!   rank crashes, installed per-[`Comm`] by [`Cluster::run_with`] or
//!   [`run_cluster_with_faults`].
//! * Link-layer reliability — every wire message carries a sequence number
//!   and (under injection) a checksum; [`Comm::try_send`] retransmits
//!   dropped/corrupted copies with exponential backoff up to a
//!   [`RetryPolicy`] budget, and the receive path discards corrupt copies
//!   and duplicates.
//! * Typed failures ([`resilience`]) — [`CommError`] replaces the seed
//!   runtime's panics; the classic infallible API ([`Comm::send`],
//!   [`Comm::recv`], [`Comm::barrier`]) survives as thin wrappers that
//!   convert errors into rank-fatal panics the launcher captures.
//! * Crash containment — [`Cluster::run_with`] wraps every rank in
//!   `catch_unwind` and returns per-rank [`RankOutcome`]s; a dying rank
//!   cancels the shared [`CancellableBarrier`] and flips a cluster-health
//!   flag, so survivors blocked in `recv`/`barrier` unblock with
//!   [`CommError::PeerFailed`] instead of deadlocking.
//! * Coordinated retry — [`Comm::all_to_all_resilient`] runs the exchange
//!   in rounds on fresh tags with an end-of-round consensus, absorbing
//!   transient faults that outlive the link-layer budget.
//! * Checkpoint/restart ([`checkpoint`], [`supervisor`], DESIGN.md §1c) —
//!   a [`Supervisor`] re-launches the whole rank set after a crash (bounded
//!   restarts with backoff); recoverable pipelines snapshot phase
//!   boundaries into a shared [`CheckpointStore`] and resume from the last
//!   globally committed phase. Every wire message carries the sender
//!   incarnation's *generation*, so in-flight traffic from a dead epoch is
//!   discarded on arrival instead of corrupting the retry.
//! * Stage-boundary hooks ([`abft`]) — the silent-corruption guard loop and
//!   checkpoint restore / write-verified save, one copy that both
//!   distributed executors call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abft;
pub mod checkpoint;
pub mod fault;
pub mod resilience;
pub mod stats;
pub mod supervisor;
pub mod trace;
pub mod transport;

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use soifft_num::c64;

pub use checkpoint::{CheckpointError, CheckpointStore};
pub use fault::{
    BitFlipSite, BitFlipSpec, CrashSite, CrashSpec, FaultAction, FaultEvents, FaultInjector,
    FaultPlan,
};
pub use resilience::{
    checksum, CancellableBarrier, CommError, ExchangePolicy, FailureDetection, RankOutcome,
    RetryPolicy, ValidationPolicy,
};
pub use stats::{CommStats, CostModel, PhaseRecord, RecoveryOutcome};
pub use supervisor::{HealthMonitor, RecoveryCtx, RestartPolicy, SupervisedRun, Supervisor};
pub use trace::{chrome_trace_json, text_tree, PhaseProfile, RunProfile, TraceConfig, TraceEvent};
pub use transport::{InProcTransport, SendOutcome, Transport, WaitOutcome};

use resilience::{ClusterState, CommFailure, InjectedCrash};

/// How long a blocking receive sleeps per poll slice before re-checking
/// cluster health and its deadline.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// A tagged message between ranks — the unit a [`Transport`] moves.
///
/// Public only so [`Transport`] implementations outside this crate can
/// carry it; the fields stay crate-private (the resilience layer owns
/// their meaning), so foreign code can move messages but not mint or
/// inspect them.
pub struct Message {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    /// Per-sender sequence number (unique per `src`); lets the receiver
    /// discard injected duplicates.
    pub(crate) seq: u64,
    /// FNV-1a checksum of `data` at send time (0 when verification is off);
    /// lets the receiver discard injected corruption.
    pub(crate) checksum: u64,
    /// Supervision epoch of the sending incarnation; receivers discard
    /// messages from generations other than their own, so a respawned
    /// epoch never consumes traffic a dead incarnation left in flight.
    pub(crate) generation: u64,
    pub(crate) data: Vec<c64>,
}

/// Per-rank freelist of recycled message payload buffers, binned by
/// power-of-two capacity class. Buffers acquired here are allocated with
/// capacity rounded up to the class size, so a recycled buffer always
/// satisfies any later request of its class — the invariant that makes
/// the steady-state exchange allocation-free: every send stages from the
/// pool, every consumed receive is recycled back, and after warmup the
/// two flows balance. Misses are counted in the [`CommStats`]
/// `comm_allocs` ledger by the callers that stage message payloads.
///
/// Retention is bounded two ways: each class keeps at most
/// [`POOL_BIN_DEPTH`] buffers, and the pool as a whole retains at most
/// `max_retained_bytes` of capacity ([`POOL_MAX_RETAINED_BYTES`] by
/// default, tunable via [`ClusterConfig::pool_max_retained_bytes`]).
/// Without the byte cap, a workload that churns through many distinct
/// transform shapes (a multi-tenant server, or an adversary cycling
/// request sizes) would leave `POOL_BIN_DEPTH` warm buffers in *every*
/// capacity class it ever touched — resident memory growing with the
/// number of shapes seen, not the working set. When admitting a buffer
/// would exceed the cap, the pool evicts from its largest class first
/// (big stale buffers are the cheapest to re-allocate relative to the
/// memory they pin); evictions are reported to the caller so the
/// [`CommStats`] ledger can expose them.
#[derive(Debug)]
struct BufferPool {
    bins: Vec<Vec<Vec<c64>>>,
    /// Total capacity bytes currently retained across all bins.
    retained_bytes: usize,
    /// Retention ceiling in bytes (0 = pool nothing).
    max_retained_bytes: usize,
}

/// Recycled buffers kept per capacity class; beyond this the surplus is
/// dropped (bounds pool memory under bursty exchanges).
const POOL_BIN_DEPTH: usize = 32;

/// Default ceiling on the capacity bytes a rank's transport buffer pool
/// retains (64 MiB). Generous for any single transform shape; what it actually
/// bounds is the *accumulation across shapes* under churn.
pub const POOL_MAX_RETAINED_BYTES: usize = 64 << 20;

impl Default for BufferPool {
    fn default() -> Self {
        BufferPool::with_limit(POOL_MAX_RETAINED_BYTES)
    }
}

impl BufferPool {
    /// A pool retaining at most `max_retained_bytes` of buffer capacity.
    fn with_limit(max_retained_bytes: usize) -> Self {
        BufferPool {
            bins: Vec::new(),
            retained_bytes: 0,
            max_retained_bytes,
        }
    }

    /// Class that guarantees capacity for `len`: smallest k with 2^k ≥ len.
    fn class_for_len(len: usize) -> usize {
        len.next_power_of_two().trailing_zeros() as usize
    }

    /// Class a buffer of capacity `cap` can serve: largest k with 2^k ≤ cap.
    fn class_for_cap(cap: usize) -> usize {
        (usize::BITS - 1 - cap.leading_zeros()) as usize
    }

    /// Capacity bytes a pooled buffer of capacity `cap` pins.
    fn bytes_for(cap: usize) -> usize {
        cap * std::mem::size_of::<c64>()
    }

    /// Pops an empty buffer with capacity ≥ `len`, if one is pooled.
    fn take(&mut self, len: usize) -> Option<Vec<c64>> {
        let k = Self::class_for_len(len);
        let mut buf = self.bins.get_mut(k)?.pop()?;
        self.retained_bytes -= Self::bytes_for(buf.capacity());
        buf.clear();
        Some(buf)
    }

    /// Returns `buf` to its capacity class, evicting from the largest
    /// class first when retaining it would exceed the byte ceiling.
    /// Buffers dropped to honour the ceiling (including `buf` itself when
    /// it alone exceeds the budget, and class-depth overflow) are counted
    /// in the returned eviction tally.
    fn give(&mut self, buf: Vec<c64>) -> u64 {
        let cap = buf.capacity();
        if cap == 0 {
            return 0;
        }
        let incoming = Self::bytes_for(cap);
        if incoming > self.max_retained_bytes {
            return 1;
        }
        let mut evicted = 0;
        while self.retained_bytes + incoming > self.max_retained_bytes {
            let victim_bin = self
                .bins
                .iter_mut()
                .rev()
                .find(|bin| !bin.is_empty())
                .expect("retained_bytes > 0 implies a non-empty bin");
            let victim = victim_bin.pop().expect("bin checked non-empty");
            self.retained_bytes -= Self::bytes_for(victim.capacity());
            evicted += 1;
        }
        let k = Self::class_for_cap(cap);
        if self.bins.len() <= k {
            self.bins.resize_with(k + 1, Vec::new);
        }
        let bin = &mut self.bins[k];
        if bin.len() < POOL_BIN_DEPTH {
            self.retained_bytes += incoming;
            bin.push(buf);
            evicted
        } else {
            evicted + 1
        }
    }
}

/// One rank's endpoint into the cluster: rank id, peers, and statistics.
///
/// `Comm` is the backend-agnostic resilience layer — pending map,
/// duplicate/checksum filtering, fault injection, retry, the buffer
/// pool, statistics — over a pluggable [`Transport`] that does the
/// actual moving of [`Message`]s (threads + channels by default,
/// real OS processes via `transport::proc`).
pub struct Comm {
    rank: usize,
    size: usize,
    /// The message-moving backend (delivery, failure detection, barrier).
    transport: Box<dyn Transport>,
    pending: HashMap<(usize, u64), Vec<Vec<c64>>>,
    /// Sequence numbers already accepted, per source (duplicate filter;
    /// only populated when verification is on).
    seen: HashMap<usize, HashSet<u64>>,
    injector: Option<FaultInjector>,
    /// Whether wire messages carry/verify checksums and sequence filtering
    /// (on exactly when a fault plan is installed).
    verify: bool,
    retry: RetryPolicy,
    recv_deadline_default: Duration,
    next_seq: u64,
    /// Monotone counter agreeing across ranks (collective calls are
    /// collective), isolating each resilient exchange's tag space.
    exchange_epoch: u64,
    /// Supervision epoch of this incarnation (0 outside supervised runs);
    /// stamped on every outgoing message and checked on every arrival.
    generation: u64,
    stats: CommStats,
    /// Freelist of recycled payload buffers (see [`BufferPool`]).
    pool: BufferPool,
}

/// Warm `(src, tag)` queues kept in the pending map before the map is
/// compacted; empty queues are retained below this so steady-state
/// exchanges re-fill an existing entry instead of re-allocating it, while
/// resilient runs (which mint fresh epoch tags) still get garbage-collected.
const PENDING_GC_LEN: usize = 512;

impl Comm {
    /// Builds an endpoint over an externally-constructed [`Transport`] —
    /// how a child *process* of the multi-process backend gets its
    /// `Comm` (the in-process launcher builds its own). Fault injection
    /// is off (faults are real in that regime); `config` supplies the
    /// retry policy, receive deadline, and pool ceiling.
    pub fn from_transport(transport: Box<dyn Transport>, config: &ClusterConfig) -> Comm {
        let rank = transport.rank();
        let size = transport.size();
        let generation = transport.generation();
        Comm {
            rank,
            size,
            transport,
            pending: HashMap::new(),
            seen: HashMap::new(),
            injector: None,
            verify: false,
            retry: config.retry,
            recv_deadline_default: config.recv_deadline,
            next_seq: 0,
            exchange_epoch: 0,
            generation,
            stats: CommStats::default(),
            pool: BufferPool::with_limit(config.pool_max_retained_bytes),
        }
    }

    /// This rank's id in `[0, size)`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The statistics ledger accumulated so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Mutable access to the ledger (for recording compute phases).
    pub fn stats_mut(&mut self) -> &mut CommStats {
        &mut self.stats
    }

    /// The injected-fault counters for this rank, when a [`FaultPlan`] is
    /// installed.
    pub fn fault_events(&self) -> Option<FaultEvents> {
        self.injector.as_ref().map(|i| i.events())
    }

    /// Panics with an [`InjectedCrash`] if the installed plan kills this
    /// rank at `site`; marks the cluster unhealthy first so survivors
    /// unblock immediately.
    fn maybe_crash(&self, site: CrashSite) {
        if let Some(inj) = &self.injector {
            if inj.crash_due(site) {
                self.die();
            }
        }
    }

    /// As [`Comm::maybe_crash`], for the send-count trigger.
    fn maybe_crash_sends(&self) {
        if let Some(inj) = &self.injector {
            if inj.crash_due_sends() {
                self.die();
            }
        }
    }

    /// Applies the installed fault plan's bit flip to `data` if the plan
    /// targets this rank and `site`, returning the flipped element index.
    /// Pipelines call this at each silent-data-corruption site *after* the
    /// phase's integrity guard (checksum or energy) has been computed, so
    /// the flip models memory corruption the link layer never observes.
    /// A no-op (`None`) without a matching plan or once the flip budget is
    /// spent.
    pub fn inject_bit_flip(&mut self, site: BitFlipSite, data: &mut [c64]) -> Option<usize> {
        self.injector
            .as_mut()
            .and_then(|i| i.apply_bit_flip(site, data))
    }

    /// Whether the installed fault plan still has a pending bit flip for
    /// this rank at `site`. Lets pipelines avoid defensive copies (e.g. a
    /// pre-image clone for write-time checkpoint verification) on the vast
    /// majority of ranks where no flip will ever fire.
    pub fn flip_planned(&self, site: BitFlipSite) -> bool {
        self.injector.as_ref().is_some_and(|i| i.flip_planned(site))
    }

    /// Fires the installed fault plan's [`CrashSite::Phase`] trigger for
    /// the named compute phase. Pipelines call this on entering each phase
    /// so a chaos plan can kill a rank *between* collectives — the regime
    /// where only checkpoint/restart (not link-layer retry) saves the run.
    /// A no-op unless the plan targets exactly this rank and phase.
    pub fn crash_point(&self, phase: &'static str) {
        self.maybe_crash(CrashSite::Phase(phase));
    }

    fn die(&self) -> ! {
        self.transport.announce_death(self.rank);
        // resume_unwind, not panic_any: an injected crash is part of the
        // fault plan, so it unwinds silently instead of invoking the
        // process panic hook and printing a backtrace.
        std::panic::resume_unwind(Box::new(InjectedCrash { rank: self.rank }))
    }

    /// Sends `data` to `dst` with `tag`. Non-blocking on unbounded
    /// channels; on a bounded cluster ([`ClusterConfig::capacity`]) it
    /// applies backpressure, blocking while the destination queue is full.
    ///
    /// Thin infallible wrapper over [`Comm::try_send`]: a typed failure
    /// becomes a rank-fatal panic that [`Cluster::run_with`] captures as a
    /// [`RankOutcome::Err`].
    pub fn send(&mut self, dst: usize, tag: u64, data: Vec<c64>) {
        if let Err(e) = self.try_send(dst, tag, data) {
            resilience::raise(e)
        }
    }

    /// Fallible send with link-layer fault handling.
    ///
    /// Under an installed [`FaultPlan`], each delivery attempt may be
    /// dropped, delayed, duplicated, or bit-corrupted; dropped and
    /// corrupted attempts are retransmitted with exponential backoff up to
    /// [`RetryPolicy::max_attempts`]. Self-messages short-circuit into the
    /// local queue and are exempt from injection (they never cross the
    /// wire).
    ///
    /// # Errors
    /// * [`CommError::PeerFailed`] — `dst` (or, under backpressure, any
    ///   rank) is dead.
    /// * [`CommError::Timeout`] — retransmit budget exhausted, all copies
    ///   dropped.
    /// * [`CommError::ChecksumMismatch`] — budget exhausted and at least
    ///   one corrupted copy reached the wire.
    /// * [`CommError::Shutdown`] — the destination endpoint is gone.
    /// * [`CommError::InvalidArgument`] — `dst` is not a rank of this
    ///   cluster.
    #[must_use = "a failed send leaves the collective incomplete; handle or escalate the error"]
    pub fn try_send(&mut self, dst: usize, tag: u64, data: Vec<c64>) -> Result<(), CommError> {
        self.post(dst, tag, data, 0)
    }

    /// [`Comm::try_send`] charged as one message of `data.len() + kept`
    /// elements: `kept` counts data the caller keeps at home instead of
    /// posting (see [`Comm::all_to_all_keep_own`]).
    fn post(&mut self, dst: usize, tag: u64, data: Vec<c64>, kept: usize) -> Result<(), CommError> {
        if dst >= self.size {
            return Err(CommError::InvalidArgument {
                what: "destination rank out of range",
            });
        }
        self.maybe_crash_sends();
        let bytes = ((data.len() + kept) * std::mem::size_of::<c64>()) as u64;
        self.stats.add_bytes_sent(bytes);
        if dst == self.rank {
            // Self-message: short-circuit into the pending map.
            self.pending.entry((self.rank, tag)).or_default().push(data);
            return Ok(());
        }
        if let Some(pf) = self.transport.peer_failure(dst) {
            return Err(pf.into_error());
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let sum = if self.verify { checksum(&data) } else { 0 };
        let src = self.rank;
        let generation = self.generation;
        let mut wired_corrupt = false;
        let mut attempt: u32 = 0;
        loop {
            let action = match self.injector.as_mut() {
                Some(inj) => inj.action(attempt),
                None => FaultAction::Deliver,
            };
            match action {
                FaultAction::Deliver => {
                    self.wire(
                        dst,
                        Message {
                            src,
                            tag,
                            seq,
                            checksum: sum,
                            generation,
                            data,
                        },
                    )?;
                    break;
                }
                FaultAction::Delay(d) => {
                    std::thread::sleep(d);
                    self.wire(
                        dst,
                        Message {
                            src,
                            tag,
                            seq,
                            checksum: sum,
                            generation,
                            data,
                        },
                    )?;
                    break;
                }
                FaultAction::Duplicate => {
                    let copy = data.clone();
                    self.wire(
                        dst,
                        Message {
                            src,
                            tag,
                            seq,
                            checksum: sum,
                            generation,
                            data: copy,
                        },
                    )?;
                    // The surplus copy is best-effort: the receiver only
                    // needs the first, and may legitimately tear down its
                    // endpoint before this one lands.
                    let _ = self.wire(
                        dst,
                        Message {
                            src,
                            tag,
                            seq,
                            checksum: sum,
                            generation,
                            data,
                        },
                    );
                    break;
                }
                FaultAction::Corrupt => {
                    let mut bad = data.clone();
                    self.injector
                        .as_mut()
                        .expect("corrupt action implies injector")
                        .corrupt_payload(&mut bad);
                    // The stale checksum makes the receiver discard it.
                    self.wire(
                        dst,
                        Message {
                            src,
                            tag,
                            seq,
                            checksum: sum,
                            generation,
                            data: bad,
                        },
                    )?;
                    wired_corrupt = true;
                    self.stats.note_retransmit();
                    attempt += 1;
                    if attempt >= self.retry.max_attempts {
                        return Err(CommError::ChecksumMismatch { src, tag });
                    }
                    std::thread::sleep(self.retry.backoff(attempt - 1));
                }
                FaultAction::Drop => {
                    self.stats.note_retransmit();
                    attempt += 1;
                    if attempt >= self.retry.max_attempts {
                        return Err(if wired_corrupt {
                            CommError::ChecksumMismatch { src, tag }
                        } else {
                            CommError::Timeout
                        });
                    }
                    std::thread::sleep(self.retry.backoff(attempt - 1));
                }
            }
        }
        if let Some(inj) = self.injector.as_mut() {
            inj.note_send();
        }
        self.stats.note_queue_depth(self.transport.queue_depth(dst));
        Ok(())
    }

    /// Pushes one message onto the destination link, blocking under
    /// backpressure (bounded clusters) with periodic health checks — but
    /// never forever: the stall is bounded by the default receive
    /// deadline, so a destination that silently stops draining yields
    /// [`CommError::Timeout`] instead of a hang.
    fn wire(&mut self, dst: usize, msg: Message) -> Result<(), CommError> {
        let mut msg = msg;
        let end = Instant::now() + self.recv_deadline_default;
        loop {
            match self.transport.try_send(dst, msg) {
                SendOutcome::Sent => return Ok(()),
                SendOutcome::Closed(_) => {
                    // Attribute the closed endpoint to a crash when the
                    // failure detector knows of one — `dst` itself first,
                    // else the root-cause rank (survivors unwind by
                    // dropping their endpoints, which must not masquerade
                    // as an orderly shutdown).
                    return Err(if let Some(pf) = self.transport.peer_failure(dst) {
                        pf.into_error()
                    } else if let Some(pf) = self.transport.failed_peer() {
                        pf.into_error()
                    } else {
                        CommError::Shutdown
                    });
                }
                SendOutcome::Full(m) => {
                    msg = m;
                    if let Some(pf) = self.transport.failed_peer() {
                        return Err(pf.into_error());
                    }
                    if Instant::now() >= end {
                        self.stats.note_recv_timeout();
                        return Err(CommError::Timeout);
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
    }

    /// Validates and files an arriving wire message: corrupt copies and
    /// duplicates are discarded (counted in the ledger), everything else
    /// joins the pending map.
    fn ingest(&mut self, msg: Message) {
        if msg.generation != self.generation {
            // In-flight traffic from a dead incarnation (or, symmetrically,
            // from a newer epoch this straggler no longer belongs to).
            self.stats.note_stale_discarded();
            return;
        }
        if self.verify {
            if msg.checksum != checksum(&msg.data) {
                self.stats.note_corrupt_discarded();
                return;
            }
            if !self.seen.entry(msg.src).or_default().insert(msg.seq) {
                self.stats.note_duplicate_discarded();
                return;
            }
        }
        self.pending
            .entry((msg.src, msg.tag))
            .or_default()
            .push(msg.data);
    }

    fn take_pending(&mut self, src: usize, tag: u64) -> Option<Vec<c64>> {
        let queue = self.pending.get_mut(&(src, tag))?;
        if queue.is_empty() {
            // Keep the drained entry warm: steady-state exchanges reuse the
            // same (src, tag) keys every iteration, and re-inserting the
            // entry would allocate. Compact only once the map has grown past
            // the warm working set (resilient epochs mint fresh tags).
            if self.pending.len() > PENDING_GC_LEN {
                self.pending.retain(|_, q| !q.is_empty());
            }
            return None;
        }
        Some(queue.remove(0))
    }

    /// Takes a cleared buffer with capacity ≥ `len` from this rank's
    /// freelist, or allocates one (rounded up to the pool's capacity
    /// class) and charges the `comm_allocs` ledger. Message payloads the
    /// transport stages (ghost halos, packed all-to-all parts, resilient
    /// retransmit copies) come from here, so a steady-state exchange that
    /// recycles what it receives allocates nothing.
    pub fn acquire_buffer(&mut self, len: usize) -> Vec<c64> {
        if len == 0 {
            return Vec::new();
        }
        match self.pool.take(len) {
            Some(buf) => buf,
            None => {
                self.stats.note_comm_alloc();
                Vec::with_capacity(len.next_power_of_two())
            }
        }
    }

    /// Returns a no-longer-needed payload buffer to this rank's freelist
    /// so a later [`Comm::acquire_buffer`] of its capacity class is served
    /// without allocating. Contents are discarded; zero-capacity buffers
    /// are dropped. Buffers the pool declines under its retained-bytes
    /// ceiling are charged to the `pool_evictions` ledger.
    pub fn recycle_buffer(&mut self, buf: Vec<c64>) {
        let evicted = self.pool.give(buf);
        self.stats.note_pool_evictions(evicted);
    }

    /// Blocks until a message from `src` with `tag` arrives and returns it.
    ///
    /// Thin infallible wrapper over the deadline-based receive path (the
    /// default deadline is [`ClusterConfig::recv_deadline`], generous
    /// enough to be "forever" for healthy runs): a typed failure — peer
    /// death, shutdown, deadline — becomes a rank-fatal panic that
    /// [`Cluster::run_with`] captures.
    pub fn recv(&mut self, src: usize, tag: u64) -> Vec<c64> {
        let end = Instant::now() + self.recv_deadline_default;
        match self.recv_until(src, tag, end) {
            Ok(data) => data,
            Err(e) => resilience::raise(e),
        }
    }

    /// Receives a message from `src` with `tag`, waiting at most `timeout`.
    ///
    /// # Errors
    /// * [`CommError::Timeout`] — nothing matched within `timeout`.
    /// * [`CommError::PeerFailed`] — a rank died while we would block
    ///   (already-delivered matching messages are still returned first).
    /// * [`CommError::Shutdown`] — every peer endpoint is gone.
    /// * [`CommError::InvalidArgument`] — `src` is not a rank of this
    ///   cluster.
    #[must_use = "a failed receive leaves the collective incomplete; handle or escalate the error"]
    pub fn recv_deadline(
        &mut self,
        src: usize,
        tag: u64,
        timeout: Duration,
    ) -> Result<Vec<c64>, CommError> {
        self.recv_until(src, tag, Instant::now() + timeout)
    }

    /// Deadline-based receive against an absolute instant (lets a
    /// collective spread one budget across many receives).
    fn recv_until(&mut self, src: usize, tag: u64, end: Instant) -> Result<Vec<c64>, CommError> {
        if src >= self.size {
            return Err(CommError::InvalidArgument {
                what: "source rank out of range",
            });
        }
        loop {
            if let Some(data) = self.take_pending(src, tag) {
                return Ok(data);
            }
            // Drain everything already delivered before deciding to block.
            let mut progressed = false;
            while let Some(msg) = self.transport.try_recv() {
                self.ingest(msg);
                progressed = true;
            }
            if progressed {
                continue;
            }
            if let Some(pf) = self.transport.failed_peer() {
                return Err(pf.into_error());
            }
            let now = Instant::now();
            if now >= end {
                self.stats.note_recv_timeout();
                return Err(CommError::Timeout);
            }
            let slice = POLL_SLICE.min(end - now);
            match self.transport.recv_wait(slice) {
                WaitOutcome::Message(msg) => self.ingest(msg),
                WaitOutcome::Idle => {}
                WaitOutcome::Closed => {
                    return Err(match self.transport.failed_peer() {
                        Some(pf) => pf.into_error(),
                        None => CommError::Shutdown,
                    })
                }
            }
        }
    }

    /// Non-blocking receive: returns a matching message if one has already
    /// arrived, without waiting (the `MPI_Iprobe + MPI_Recv` pattern used
    /// when polling for segment parts while computing).
    ///
    /// # Panics
    /// If `src` is not a rank of this cluster. (The `Option` return means
    /// "no message yet", which an out-of-range source would silently —
    /// and forever — masquerade as; the fallible receive for probing
    /// questionable arguments is [`Comm::recv_deadline`].)
    pub fn try_recv(&mut self, src: usize, tag: u64) -> Option<Vec<c64>> {
        assert!(src < self.size, "source rank out of range");
        // Drain the link into the pending map without blocking.
        while let Some(msg) = self.transport.try_recv() {
            self.ingest(msg);
        }
        self.take_pending(src, tag)
    }

    /// Combined send + receive (deadlock-free regardless of ordering since
    /// sends never block).
    pub fn send_recv(
        &mut self,
        dst: usize,
        send_tag: u64,
        data: Vec<c64>,
        src: usize,
        recv_tag: u64,
    ) -> Vec<c64> {
        self.send(dst, send_tag, data);
        self.recv(src, recv_tag)
    }

    /// Synchronizes all ranks.
    ///
    /// Thin infallible wrapper over [`Comm::try_barrier`]: if a rank died,
    /// the cancelled barrier's [`CommError::PeerFailed`] becomes a
    /// rank-fatal panic captured by the launcher.
    pub fn barrier(&mut self) {
        if let Err(e) = self.try_barrier() {
            resilience::raise(e)
        }
    }

    /// Synchronizes all ranks; `Err(PeerFailed` / `PeerDown)` if any rank
    /// has died (all survivors unblock — no deadlock on a poisoned
    /// barrier), `Err(Timeout)` when the default receive deadline elapses
    /// with the barrier still pending.
    #[must_use = "an unacknowledged barrier failure desynchronizes the ranks; handle the error"]
    pub fn try_barrier(&mut self) -> Result<(), CommError> {
        self.maybe_crash(CrashSite::Barrier);
        // Barrier entry is the natural harvest point for the transport's
        // heartbeat plane: every rank passes through periodically, and
        // the counters are phase-attributable from here.
        let hb = self.transport.take_heartbeat_delta();
        self.stats.note_heartbeats(hb.sent, hb.missed);
        let link = self.transport.take_link_delta();
        self.stats.note_link_activity(&link);
        self.transport.barrier(self.recv_deadline_default)
    }

    /// The all-to-all personalized exchange: rank `r` sends `outgoing[d]`
    /// to rank `d` and receives what every rank addressed to `r`, returned
    /// indexed by source. This is the `Perm_{L,N'}` step of SOI and each of
    /// the three exchanges of Cooley–Tukey.
    ///
    /// Thin wrapper over [`Comm::all_to_all_into`]: the whole exchange is
    /// recorded as one `"all-to-all"` phase.
    pub fn all_to_all(&mut self, mut outgoing: Vec<Vec<c64>>) -> Vec<Vec<c64>> {
        let mut incoming = Vec::with_capacity(self.size);
        self.all_to_all_into(&mut outgoing, &mut incoming);
        incoming
    }

    /// [`Comm::all_to_all`] against caller-owned buffers — the workspace
    /// form of the exchange. Whatever `incoming` held from a previous
    /// iteration is recycled into the pool, then each `outgoing[d]` is
    /// moved onto the wire (left empty) and the received payloads are
    /// pushed, so an iterated exchange that refills its outgoing buffers
    /// from the pool allocates nothing in steady state.
    ///
    /// Infallible like [`Comm::send`]: a typed failure of the exchange
    /// (under the default receive deadline) becomes a rank-fatal panic.
    pub fn all_to_all_into(&mut self, outgoing: &mut [Vec<c64>], incoming: &mut Vec<Vec<c64>>) {
        if let Err(e) = self.exchange_plain(outgoing, 0, incoming) {
            resilience::raise(e)
        }
    }

    /// An all-to-all whose sender keeps its own block at home: a
    /// transpose reads that block straight from its local matrix, so
    /// copying it into `outgoing[rank]` and posting it to itself would only
    /// move it twice. The own slot must be empty; it is still posted
    /// (empty), so send counts, tags and crash-after-k-sends schedules are
    /// those of the full exchange, and `incoming[rank]` comes back empty.
    ///
    /// An own block is charged like a self-send: the own slot counts as
    /// one message of `own_len` elements inside the `"all-to-all"` phase,
    /// so `messages_sent`, `total_bytes_sent` and `bytes_in("all-to-all")`
    /// read what the same exchange with a full own slot reads.
    ///
    /// Without a `policy` this is [`Comm::all_to_all_into`] (a failure is
    /// rank-fatal); with one it is [`Comm::all_to_all_resilient`], and the
    /// outgoing buffers are recycled once it returns. Either way the
    /// outgoing slots come back empty.
    ///
    /// # Errors
    /// Those of [`Comm::all_to_all_resilient`] under a `policy`, and
    /// [`CommError::InvalidArgument`] for a non-empty own slot.
    pub fn all_to_all_keep_own(
        &mut self,
        outgoing: &mut [Vec<c64>],
        own_len: usize,
        incoming: &mut Vec<Vec<c64>>,
        policy: Option<&ExchangePolicy>,
    ) -> Result<(), CommError> {
        if outgoing.get(self.rank).is_some_and(|own| !own.is_empty()) {
            return Err(CommError::InvalidArgument {
                what: "a kept own block leaves its slot empty",
            });
        }
        let Some(policy) = policy else {
            if let Err(e) = self.exchange_plain(outgoing, own_len, incoming) {
                resilience::raise(e)
            }
            return Ok(());
        };
        let result = self.exchange_resilient(outgoing, own_len, policy);
        // The resilient exchange posts copies (it may retransmit across
        // rounds); the originals go back to the pool once it returns.
        for slot in outgoing.iter_mut() {
            self.recycle_buffer(std::mem::take(slot));
        }
        for old in incoming.drain(..) {
            self.recycle_buffer(old);
        }
        *incoming = result?;
        Ok(())
    }

    /// The plain exchange behind [`Comm::all_to_all_into`] and
    /// [`Comm::all_to_all_keep_own`], `kept` own elements charged on top
    /// of the own slot.
    fn exchange_plain(
        &mut self,
        outgoing: &mut [Vec<c64>],
        kept: usize,
        incoming: &mut Vec<Vec<c64>>,
    ) -> Result<(), CommError> {
        assert_eq!(outgoing.len(), self.size, "need one buffer per rank");
        self.maybe_crash(CrashSite::AllToAll);
        let t = self.stats.phase_start();
        for old in incoming.drain(..) {
            self.recycle_buffer(old);
        }
        let end = Instant::now() + self.recv_deadline_default;
        let take = |_: &mut Comm, dst: usize| std::mem::take(&mut outgoing[dst]);
        self.post_collect(tags::ALL_TO_ALL, end, kept, incoming, take)?;
        self.stats.phase_end("all-to-all", t);
        Ok(())
    }

    /// The one all-to-all core: posts `stage(self, d)` to every rank `d`
    /// on `tag`, then collects one message from every source into
    /// `incoming` (indexed by source), every receive against the one
    /// deadline `end`. Stops at the first failure.
    ///
    /// The own slot is charged `kept` elements on top of what it posts:
    /// the one place the ledger counts an own block the caller kept at
    /// home ([`Comm::all_to_all_keep_own`]) as sent.
    fn post_collect(
        &mut self,
        tag: u64,
        end: Instant,
        kept: usize,
        incoming: &mut Vec<Vec<c64>>,
        mut stage: impl FnMut(&mut Comm, usize) -> Vec<c64>,
    ) -> Result<(), CommError> {
        for dst in 0..self.size {
            let data = stage(self, dst);
            let kept = if dst == self.rank { kept } else { 0 };
            self.post(dst, tag, data, kept)?;
        }
        for src in 0..self.size {
            let got = self.recv_until(src, tag, end)?;
            incoming.push(got);
        }
        Ok(())
    }

    /// Fault-tolerant all-to-all: the exchange runs in *rounds* on fresh
    /// tags, each round one post-to-all / collect-from-all pass; after each
    /// round the ranks run a small consensus (max-reduce of a failure flag)
    /// and, if anyone failed, everyone retries — up to
    /// [`ExchangePolicy::max_rounds`] rounds, each under
    /// [`ExchangePolicy::deadline`]. Absorbs transient faults that outlive
    /// the link-layer retransmit budget; structural failures (a dead peer)
    /// abort immediately.
    ///
    /// Every rank must call this collectively with the same policy.
    /// Recorded as one `"all-to-all"` phase (even on failure, so partial
    /// ledgers stay meaningful).
    ///
    /// # Errors
    /// The last round's [`CommError`] when the budget is exhausted, the
    /// first structural failure ([`CommError::PeerFailed`] /
    /// [`CommError::Shutdown`]), or [`CommError::InvalidArgument`] for a
    /// wrong buffer count or a round budget of zero / beyond the
    /// per-epoch tag space.
    pub fn all_to_all_resilient(
        &mut self,
        outgoing: &[Vec<c64>],
        policy: &ExchangePolicy,
    ) -> Result<Vec<Vec<c64>>, CommError> {
        self.exchange_resilient(outgoing, 0, policy)
    }

    /// The round loop behind [`Comm::all_to_all_resilient`] and
    /// [`Comm::all_to_all_keep_own`], `kept` own elements charged on top
    /// of the own slot in every round.
    fn exchange_resilient(
        &mut self,
        outgoing: &[Vec<c64>],
        kept: usize,
        policy: &ExchangePolicy,
    ) -> Result<Vec<Vec<c64>>, CommError> {
        if outgoing.len() != self.size {
            return Err(CommError::InvalidArgument {
                what: "need one buffer per rank",
            });
        }
        if policy.max_rounds < 1 {
            return Err(CommError::InvalidArgument {
                what: "need at least one round",
            });
        }
        // 4 tags per round, 256 tag slots per epoch (tags::resilient_tags).
        if policy.max_rounds > 64 {
            return Err(CommError::InvalidArgument {
                what: "round budget exceeds the per-epoch tag space",
            });
        }
        self.maybe_crash(CrashSite::AllToAll);
        let t = self.stats.phase_start();
        let epoch = self.exchange_epoch;
        self.exchange_epoch += 1;
        let mut last_err = CommError::Timeout;
        let result = 'rounds: {
            for round in 0..policy.max_rounds {
                let (data_tag, reduce_tag, bcast_tag) = tags::resilient_tags(epoch, round);
                let end = Instant::now() + policy.deadline;
                let mut incoming = Vec::with_capacity(self.size);
                // Each round posts pool-staged copies (the caller keeps the
                // originals for potential retransmission next round).
                let stage = |comm: &mut Comm, dst: usize| {
                    let mut copy = comm.acquire_buffer(outgoing[dst].len());
                    copy.extend_from_slice(&outgoing[dst]);
                    copy
                };
                let posted = self.post_collect(data_tag, end, kept, &mut incoming, stage);
                // Structural failures cannot be retried away.
                if let Err(e) = &posted {
                    if !e.is_transient() {
                        break 'rounds Err(e.clone());
                    }
                }
                // Consensus: retry only if someone failed; its own time budget.
                let flag = if posted.is_err() { 1.0 } else { 0.0 };
                let c_end = Instant::now() + policy.deadline;
                match self.allreduce_max_until(flag, reduce_tag, bcast_tag, c_end) {
                    Ok(0.0) => break 'rounds Ok(incoming),
                    Ok(_) => last_err = posted.err().unwrap_or(CommError::Timeout),
                    Err(e) => break 'rounds Err(e),
                }
            }
            Err(last_err)
        };
        self.stats.phase_end("all-to-all", t);
        result
    }

    /// Ghost exchange with typed failures and bounded retry: like
    /// [`Comm::exchange_ghost`] but returns `Err` instead of panicking.
    ///
    /// Transient faults are retried for up to
    /// [`ExchangePolicy::max_rounds`] rounds: a failed *send* is re-posted
    /// (the receiver only ever needs one copy), while a timed-out *receive*
    /// simply waits another round — so no round can create a stale
    /// duplicate for a later exchange. Structural failures return
    /// immediately. Recorded as one `"ghost"` phase either way.
    ///
    /// # Errors
    /// Besides the transport failures, [`CommError::InvalidArgument`]
    /// when `ghost_len` exceeds the local buffer or the round budget is
    /// zero — misuse a `try_*` API reports, never panics on.
    pub fn try_exchange_ghost(
        &mut self,
        local: &[c64],
        ghost_len: usize,
        policy: &ExchangePolicy,
    ) -> Result<Vec<c64>, CommError> {
        if ghost_len > local.len() {
            return Err(CommError::InvalidArgument {
                what: "ghost larger than local data",
            });
        }
        if policy.max_rounds < 1 {
            return Err(CommError::InvalidArgument {
                what: "need at least one round",
            });
        }
        self.maybe_crash(CrashSite::Ghost);
        let t = self.stats.phase_start();
        let prev = (self.rank + self.size - 1) % self.size;
        let next = (self.rank + 1) % self.size;
        let mut sent = false;
        let mut last = CommError::Timeout;
        for _ in 0..policy.max_rounds {
            if !sent {
                // Staged fresh per attempt from the pool (the transport owns
                // each posted payload; `local` stays borrowed for re-sends).
                let mut out = self.acquire_buffer(ghost_len);
                out.extend_from_slice(&local[..ghost_len]);
                match self.try_send(prev, tags::GHOST, out) {
                    Ok(()) => sent = true,
                    Err(e) if e.is_transient() => {
                        last = e;
                        continue;
                    }
                    Err(e) => {
                        self.stats.phase_end("ghost", t);
                        return Err(e);
                    }
                }
            }
            match self.recv_deadline(next, tags::GHOST, policy.deadline) {
                Ok(got) => {
                    self.stats.phase_end("ghost", t);
                    return Ok(got);
                }
                Err(e) if e.is_transient() => last = e,
                Err(e) => {
                    self.stats.phase_end("ghost", t);
                    return Err(e);
                }
            }
        }
        self.stats.phase_end("ghost", t);
        Err(last)
    }

    /// Max-reduce against an absolute deadline with explicit tags (the
    /// consensus step of the resilient collectives).
    fn allreduce_max_until(
        &mut self,
        value: f64,
        reduce_tag: u64,
        bcast_tag: u64,
        end: Instant,
    ) -> Result<f64, CommError> {
        if self.rank == 0 {
            let mut m = value;
            for src in 1..self.size {
                m = m.max(self.recv_until(src, reduce_tag, end)?[0].re);
            }
            for dst in 1..self.size {
                self.try_send(dst, bcast_tag, vec![c64::new(m, 0.0)])?;
            }
            Ok(m)
        } else {
            self.try_send(0, reduce_tag, vec![c64::new(value, 0.0)])?;
            Ok(self.recv_until(0, bcast_tag, end)?[0].re)
        }
    }

    /// Ghost exchange (Fig 2's nearest-neighbour step): every rank sends
    /// the first `ghost_len` elements of its local input to its predecessor
    /// and receives its successor's prefix (circularly). Recorded as the
    /// `"ghost"` phase.
    ///
    /// Thin infallible wrapper over [`Comm::try_exchange_ghost`] (one
    /// round under the default receive deadline).
    pub fn exchange_ghost(&mut self, local: &[c64], ghost_len: usize) -> Vec<c64> {
        assert!(ghost_len <= local.len(), "ghost larger than local data");
        let once = ExchangePolicy {
            deadline: self.recv_deadline_default,
            max_rounds: 1,
        };
        match self.try_exchange_ghost(local, ghost_len, &once) {
            Ok(ghost) => ghost,
            Err(e) => resilience::raise(e),
        }
    }

    /// Gathers every rank's buffer to rank 0 (returns `None` elsewhere).
    pub fn gather(&mut self, data: Vec<c64>) -> Option<Vec<Vec<c64>>> {
        if self.rank == 0 {
            let mut all: Vec<Vec<c64>> = Vec::with_capacity(self.size);
            all.push(data);
            for src in 1..self.size {
                all.push(self.recv(src, tags::GATHER));
            }
            Some(all)
        } else {
            self.send(0, tags::GATHER, data);
            None
        }
    }

    /// Broadcast from `root`: the root's `data` is returned on every rank.
    pub fn broadcast(&mut self, root: usize, data: Vec<c64>) -> Vec<c64> {
        assert!(root < self.size, "root out of range");
        if self.rank == root {
            for dst in 0..self.size {
                if dst != root {
                    self.send(dst, tags::BCAST, data.clone());
                }
            }
            data
        } else {
            self.recv(root, tags::BCAST)
        }
    }

    /// All-gather: every rank contributes `data` and receives everyone's
    /// contribution, indexed by rank. Implemented as a symmetric exchange
    /// (each rank sends its buffer to every peer), which is how the
    /// verification steps of the examples collect distributed spectra.
    pub fn allgather(&mut self, data: Vec<c64>) -> Vec<Vec<c64>> {
        let outgoing: Vec<Vec<c64>> = (0..self.size).map(|_| data.clone()).collect();
        self.all_to_all(outgoing)
    }

    /// All-reduce of a scalar by maximum (used for error norms and timing
    /// reductions): gather-to-0 + broadcast. Thin infallible wrapper over
    /// the deadline-bounded core the resilient consensus runs.
    pub fn allreduce_max(&mut self, value: f64) -> f64 {
        let end = Instant::now() + self.recv_deadline_default;
        match self.allreduce_max_until(value, tags::REDUCE, tags::BCAST, end) {
            Ok(m) => m,
            Err(e) => resilience::raise(e),
        }
    }
}

/// Reserved tags for built-in collectives; user tags should start at
/// [`tags::USER`] and stay below [`tags::RESILIENT`].
pub mod tags {
    /// Blocking all-to-all.
    pub const ALL_TO_ALL: u64 = 1;
    /// Ghost (nearest-neighbour) exchange.
    pub const GHOST: u64 = 3;
    /// Gather to root.
    pub const GATHER: u64 = 4;
    /// Reduction upsweep.
    pub const REDUCE: u64 = 5;
    /// Broadcast downsweep.
    pub const BCAST: u64 = 6;
    /// First tag available to applications.
    pub const USER: u64 = 1 << 16;
    /// Base of the tag space reserved for resilient-exchange rounds
    /// (per-epoch, per-round tags keep retries from mixing with stale
    /// packets of earlier attempts).
    pub const RESILIENT: u64 = 1 << 48;

    /// `(data, reduce, bcast)` tags for round `round` of resilient
    /// exchange `epoch`.
    pub(crate) fn resilient_tags(epoch: u64, round: u32) -> (u64, u64, u64) {
        let base = RESILIENT + (epoch << 8) + (round as u64) * 4;
        (base, base + 1, base + 2)
    }
}

/// Cluster-wide launch options: channel bounds, fault plan, link-layer
/// retry policy, and the default deadline backing the infallible
/// [`Comm::recv`].
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-rank incoming-queue capacity in *messages*. `None` (default) =
    /// unbounded, the seed behaviour; `Some(k)` applies backpressure — a
    /// fast sender blocks once a destination queue holds `k` messages, so
    /// it cannot queue unbounded `Vec<c64>` buffers during an all-to-all.
    pub capacity: Option<usize>,
    /// Fault plan to install (each rank derives its own deterministic
    /// [`FaultInjector`] from it). Also switches on checksum/sequence
    /// verification of every wire message.
    pub faults: Option<FaultPlan>,
    /// Link-layer retransmit budget and backoff.
    pub retry: RetryPolicy,
    /// Deadline backing the infallible [`Comm::recv`] — effectively
    /// "forever" for healthy runs, a hang-stop for broken ones.
    pub recv_deadline: Duration,
    /// How long the launcher waits for all rank threads to finish before
    /// declaring the stragglers wedged: missing ranks are marked failed
    /// (unblocking anyone they would deadlock) and reported as
    /// [`RankOutcome::Panicked`]`("join timeout")` instead of hanging the
    /// launcher forever. Comfortably above `recv_deadline` by default so
    /// it only fires for hangs the comm layer cannot see.
    pub join_deadline: Duration,
    /// Hierarchical trace collection (off by default). When enabled, every
    /// rank's [`CommStats`] records [`TraceEvent`]s against one shared
    /// origin instant, so cross-rank timelines align in the
    /// [`chrome_trace_json`] / [`text_tree`] exporters.
    pub trace: TraceConfig,
    /// Ceiling on the capacity bytes each rank's payload-buffer freelist
    /// retains ([`POOL_MAX_RETAINED_BYTES`] by default). Bounds resident
    /// memory under transform-shape churn; buffers declined under the
    /// ceiling are counted in [`CommStats::pool_evictions`].
    pub pool_max_retained_bytes: usize,
    /// Failure-detection and link-repair timing for the real-process and
    /// TCP transports (poll period, heartbeat interval, staleness budget,
    /// reconnect backoff caps). Ignored by the in-process backend, whose
    /// failure detection is a shared flag with no timing dimension.
    pub detection: FailureDetection,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            capacity: None,
            faults: None,
            retry: RetryPolicy::default(),
            recv_deadline: Duration::from_secs(120),
            join_deadline: Duration::from_secs(600),
            trace: TraceConfig::default(),
            pool_max_retained_bytes: POOL_MAX_RETAINED_BYTES,
            detection: FailureDetection::default(),
        }
    }
}

impl ClusterConfig {
    /// Config with a fault plan installed (and everything else default).
    pub fn with_faults(plan: FaultPlan) -> Self {
        ClusterConfig {
            faults: Some(plan),
            ..ClusterConfig::default()
        }
    }

    /// Config with bounded per-rank queues (backpressure knob).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        ClusterConfig {
            capacity: Some(capacity),
            ..ClusterConfig::default()
        }
    }

    /// Config with hierarchical tracing enabled (and everything else
    /// default).
    pub fn with_trace() -> Self {
        ClusterConfig {
            trace: TraceConfig::enabled(),
            ..ClusterConfig::default()
        }
    }
}

/// The cluster launcher.
///
/// # Example
///
/// ```
/// use soifft_cluster::{Cluster, tags};
/// use soifft_num::c64;
///
/// // A 3-rank ring: everyone passes a token to the right.
/// let out = Cluster::run(3, |comm| {
///     let next = (comm.rank() + 1) % comm.size();
///     let prev = (comm.rank() + 2) % comm.size();
///     let token = vec![c64::real(comm.rank() as f64)];
///     let got = comm.send_recv(next, tags::USER, token, prev, tags::USER);
///     got[0].re as usize
/// });
/// assert_eq!(out, vec![2, 0, 1]);
/// ```
pub struct Cluster;

impl Cluster {
    /// Runs `f` on `ranks` concurrent ranks and returns each rank's result,
    /// indexed by rank.
    ///
    /// `f` receives a [`Comm`] wired to all peers. Panics in any rank
    /// propagate (the run aborts). For fault-tolerant launches that report
    /// per-rank outcomes instead, use [`Cluster::run_with`].
    pub fn run<T, F>(ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        Self::run_with(ClusterConfig::default(), ranks, f)
            .into_iter()
            .map(|outcome| match outcome {
                RankOutcome::Ok(v) => v,
                RankOutcome::Err(e) => panic!("rank panicked: {e}"),
                RankOutcome::Crashed => panic!("rank panicked: injected crash"),
                RankOutcome::Panicked(msg) => panic!("rank panicked: {msg}"),
            })
            .collect()
    }

    /// Fault-tolerant launcher: runs `f` on `ranks` concurrent ranks under
    /// `config` and returns each rank's [`RankOutcome`], indexed by rank.
    ///
    /// Every rank runs inside `catch_unwind`; a panicking or fault-crashed
    /// rank is reported as [`RankOutcome::Panicked`] /
    /// [`RankOutcome::Crashed`] while its death cancels the shared barrier
    /// and flips the cluster-health flag, so surviving ranks unblock from
    /// `recv`/`barrier` with [`CommError::PeerFailed`]
    /// ([`RankOutcome::Err`]) instead of deadlocking. The launcher itself
    /// never panics on rank failure.
    pub fn run_with<T, F>(config: ClusterConfig, ranks: usize, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(&mut Comm) -> T + Sync,
    {
        assert!(ranks >= 1, "need at least one rank");
        let (txs, rxs) = make_channels(&config, ranks);
        launch_epoch(&config, ranks, 0, txs, &rxs, &f)
    }
}

/// Builds the per-rank mailboxes for a cluster of `ranks`. The receivers
/// are shared handles so a supervisor can keep them alive across epochs
/// (dead-incarnation traffic is filtered by generation, not by channel
/// teardown).
pub(crate) fn make_channels(
    config: &ClusterConfig,
    ranks: usize,
) -> (Vec<Sender<Message>>, Vec<Arc<Receiver<Message>>>) {
    let mut txs = Vec::with_capacity(ranks);
    let mut rxs = Vec::with_capacity(ranks);
    for _ in 0..ranks {
        let (tx, rx) = match config.capacity {
            Some(cap) => bounded::<Message>(cap),
            None => unbounded::<Message>(),
        };
        txs.push(tx);
        rxs.push(Arc::new(rx));
    }
    (txs, rxs)
}

/// Runs one in-process epoch through [`launch_ranks`]: every rank gets a
/// fresh [`Comm`] (fresh barrier, failure detector, and injector for
/// incarnation `generation`) over the *given* channels.
///
/// `txs` is taken by value and dropped once the comms are built, so an
/// epoch's senders disconnect exactly as in a plain launch. `rxs` is
/// borrowed — the caller decides whether endpoints outlive the epoch.
pub(crate) fn launch_epoch<T, F>(
    config: &ClusterConfig,
    ranks: usize,
    generation: u64,
    txs: Vec<Sender<Message>>,
    rxs: &[Arc<Receiver<Message>>],
    f: &F,
) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert_eq!(rxs.len(), ranks, "need one mailbox per rank");
    let barrier = Arc::new(CancellableBarrier::new(ranks));
    let state = Arc::new(ClusterState::new());
    // One origin for the whole epoch, so every rank's trace timestamps
    // share a zero point and cross-rank timelines line up.
    let trace_origin = config.trace.enabled.then(Instant::now);
    let builders: Vec<_> = (0..ranks)
        .map(|rank| {
            let transport = InProcTransport::new(
                rank,
                ranks,
                generation,
                txs.clone(),
                Arc::clone(&rxs[rank]),
                Arc::clone(&barrier),
                Arc::clone(&state),
            );
            let mut comm = Comm::from_transport(Box::new(transport), config);
            comm.injector = config
                .faults
                .as_ref()
                .map(|p| p.injector_for_epoch(rank, ranks, generation));
            comm.verify = config.faults.is_some();
            if let Some(origin) = trace_origin {
                comm.stats.enable_trace(origin);
            }
            move || Ok(comm)
        })
        .collect();
    drop(txs);
    let abandon = |rank| {
        state.mark_failed(rank);
        barrier.cancel(rank);
    };
    launch_ranks(config.join_deadline, builders, &abandon, &|comm| {
        Ok(f(comm))
    })
}

/// The rank-thread launcher under [`Cluster::run_with`],
/// [`Supervisor::run`] and the TCP supervisor. Rank `r`'s thread runs
/// `builders[r]` (a setup `Err` is reported as [`RankOutcome::Panicked`])
/// and then `f` under `catch_unwind`; a rank that unwinds announces its
/// own death through its transport before its [`Comm`] drops. A rank
/// still running at `join_deadline` is handed to `abandon`, which
/// declares it dead to its peers, and reported as `Panicked("join
/// timeout")` whatever it eventually returns.
pub(crate) fn launch_ranks<T, B, F>(
    join_deadline: Duration,
    builders: Vec<B>,
    abandon: &(dyn Fn(usize) + Sync),
    f: &F,
) -> Vec<RankOutcome<T>>
where
    T: Send,
    B: FnOnce() -> Result<Comm, String> + Send,
    F: Fn(&mut Comm) -> Result<T, CommError> + Sync,
{
    let ranks = builders.len();
    std::thread::scope(|s| {
        // Completion channel: each rank announces itself as it finishes,
        // so the launcher can bound its joins instead of blocking forever
        // on a wedged thread.
        let (done_tx, done_rx) = unbounded::<usize>();
        let mut handles = Vec::with_capacity(ranks);
        for (rank, build) in builders.into_iter().enumerate() {
            let done_tx = done_tx.clone();
            handles.push(s.spawn(move || {
                let outcome = build().map_or_else(RankOutcome::Panicked, |mut comm| {
                    match catch_unwind(AssertUnwindSafe(|| f(&mut comm))) {
                        Ok(Ok(v)) => RankOutcome::Ok(v),
                        Ok(Err(e)) => RankOutcome::Err(e),
                        Err(payload) => {
                            // Unblock everyone *before* reporting.
                            comm.transport.announce_death(rank);
                            classify_panic(payload)
                        }
                    }
                });
                let _ = done_tx.send(rank);
                outcome
            }));
        }
        // Drop the launcher's sender, so the channel disconnects once
        // every rank has finished.
        drop(done_tx);
        let deadline = Instant::now() + join_deadline;
        let mut completed = vec![false; ranks];
        while let Ok(rank) =
            done_rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            completed[rank] = true;
        }
        // Deadline breached: declare the stragglers failed so any rank
        // blocked *on* them (recv, barrier, backpressure) unwinds, then
        // join. A thread wedged outside the comm layer still delays scope
        // exit until it actually ends — threads cannot be killed — but it
        // is reported as a join timeout regardless of what it returns.
        for rank in (0..ranks).filter(|&r| !completed[r]) {
            abandon(rank);
        }
        handles
            .into_iter()
            .zip(completed)
            .map(|(h, done)| match h.join() {
                _ if !done => RankOutcome::Panicked("join timeout".to_string()),
                Ok(outcome) => outcome,
                Err(_) => RankOutcome::Panicked("rank thread died".to_string()),
            })
            .collect()
    })
}

/// Convenience launcher for chaos runs: [`Cluster::run_with`] with `plan`
/// installed and default retry/deadline settings.
pub fn run_cluster_with_faults<T, F>(ranks: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<T>>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    Cluster::run_with(ClusterConfig::with_faults(plan), ranks, f)
}

/// Maps a captured panic payload to a typed outcome.
fn classify_panic<T>(payload: Box<dyn std::any::Any + Send>) -> RankOutcome<T> {
    match payload.downcast::<InjectedCrash>() {
        Ok(_) => RankOutcome::Crashed,
        Err(payload) => match payload.downcast::<CommFailure>() {
            Ok(failure) => RankOutcome::Err(failure.0),
            Err(payload) => {
                let msg = if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_string()
                } else if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else {
                    "unknown panic payload".to_string()
                };
                RankOutcome::Panicked(msg)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_runs() {
        let out = Cluster::run(1, |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            comm.barrier();
            42
        });
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn point_to_point_ring() {
        let p = 5;
        let out = Cluster::run(p, |comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            let payload = vec![c64::real(comm.rank() as f64)];
            let got = comm.send_recv(next, tags::USER, payload, prev, tags::USER);
            got[0].re as usize
        });
        for (rank, &got) in out.iter().enumerate() {
            assert_eq!(got, (rank + p - 1) % p, "rank {rank}");
        }
    }

    #[test]
    fn tag_matching_keeps_streams_separate() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, tags::USER + 1, vec![c64::real(1.0)]);
                comm.send(1, tags::USER + 2, vec![c64::real(2.0)]);
                0.0
            } else {
                // Receive in the opposite order of sending.
                let b = comm.recv(0, tags::USER + 2)[0].re;
                let a = comm.recv(0, tags::USER + 1)[0].re;
                a * 10.0 + b
            }
        });
        assert_eq!(out[1], 12.0);
    }

    #[test]
    fn self_send_works() {
        let out = Cluster::run(1, |comm| {
            comm.send(0, tags::USER, vec![c64::real(7.0)]);
            comm.recv(0, tags::USER)[0].re
        });
        assert_eq!(out[0], 7.0);
    }

    #[test]
    fn self_send_short_circuit_preserves_fifo_and_interleaves_with_remote() {
        // The self-message path bypasses the channel entirely; it must
        // still obey FIFO per (src, tag) and coexist with remote traffic
        // on the same tag.
        let out = Cluster::run(2, |comm| {
            let me = comm.rank();
            let peer = 1 - me;
            for i in 0..4 {
                comm.send(me, tags::USER, vec![c64::real(i as f64)]);
            }
            comm.send(peer, tags::USER, vec![c64::real(100.0 + me as f64)]);
            // Self-messages come back in send order...
            let selfs: Vec<f64> = (0..4).map(|_| comm.recv(me, tags::USER)[0].re).collect();
            // ...and the remote message is matched by src, not arrival.
            let remote = comm.recv(peer, tags::USER)[0].re;
            (selfs, remote)
        });
        for (me, (selfs, remote)) in out.iter().enumerate() {
            assert_eq!(selfs, &vec![0.0, 1.0, 2.0, 3.0], "rank {me} self FIFO");
            assert_eq!(*remote, 100.0 + (1 - me) as f64);
        }
    }

    #[test]
    fn self_send_through_try_recv() {
        let out = Cluster::run(1, |comm| {
            assert!(comm.try_recv(0, tags::USER).is_none());
            comm.send(0, tags::USER, vec![c64::real(3.0)]);
            comm.send(0, tags::USER, vec![c64::real(4.0)]);
            let a = comm.try_recv(0, tags::USER).expect("first self message")[0].re;
            let b = comm.try_recv(0, tags::USER).expect("second self message")[0].re;
            assert!(comm.try_recv(0, tags::USER).is_none());
            (a, b)
        });
        assert_eq!(out[0], (3.0, 4.0));
    }

    #[test]
    fn fifo_order_within_same_src_tag() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..8 {
                    comm.send(1, tags::USER, vec![c64::real(i as f64)]);
                }
                Vec::new()
            } else {
                (0..8)
                    .map(|_| comm.recv(0, tags::USER)[0].re as usize)
                    .collect()
            }
        });
        assert_eq!(out[1], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                // Rank 1 sends only after the first barrier, so this poll
                // is guaranteed to see nothing.
                let early = comm.try_recv(1, tags::USER).is_none();
                comm.barrier(); // release rank 1 to send
                comm.barrier(); // wait until it has sent
                                // Poll until it arrives (bounded spin).
                let mut got = None;
                for _ in 0..1_000_000 {
                    if let Some(v) = comm.try_recv(1, tags::USER) {
                        got = Some(v);
                        break;
                    }
                }
                (early, got.expect("message must arrive")[0].re)
            } else {
                comm.barrier();
                comm.send(0, tags::USER, vec![c64::real(5.0)]);
                comm.barrier();
                (true, 0.0)
            }
        });
        assert!(out[0].0, "early poll must be empty");
        assert_eq!(out[0].1, 5.0);
    }

    #[test]
    fn try_recv_preserves_fifo_across_buffered_messages() {
        // Messages queued before the first poll must still come out in
        // send order, across tags and interleaved with blocking recv.
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                for i in 0..6 {
                    let tag = tags::USER + (i % 2) as u64;
                    comm.send(1, tag, vec![c64::real(i as f64)]);
                }
                comm.barrier();
                Vec::new()
            } else {
                comm.barrier(); // everything is in flight (or queued) now
                                // Poll tag USER (even values 0,2,4) then USER+1 (1,3,5):
                                // each per-(src,tag) stream must be FIFO.
                let mut evens = Vec::new();
                while evens.len() < 3 {
                    if let Some(v) = comm.try_recv(0, tags::USER) {
                        evens.push(v[0].re);
                    }
                }
                assert!(
                    comm.try_recv(0, tags::USER).is_none(),
                    "even stream drained"
                );
                let odds: Vec<f64> = (0..3).map(|_| comm.recv(0, tags::USER + 1)[0].re).collect();
                evens.into_iter().chain(odds).collect::<Vec<f64>>()
            }
        });
        assert_eq!(out[1], vec![0.0, 2.0, 4.0, 1.0, 3.0, 5.0]);
    }

    #[test]
    fn all_to_all_is_a_global_transpose() {
        let p = 4;
        let out = Cluster::run(p, |comm| {
            let r = comm.rank();
            // outgoing[d][j] encodes (src=r, dst=d, j).
            let outgoing: Vec<Vec<c64>> = (0..p)
                .map(|d| {
                    (0..3)
                        .map(|j| c64::new(r as f64, (d * 10 + j) as f64))
                        .collect()
                })
                .collect();
            comm.all_to_all(outgoing)
        });
        for (r, incoming) in out.iter().enumerate() {
            for (src, buf) in incoming.iter().enumerate() {
                for (j, v) in buf.iter().enumerate() {
                    assert_eq!(v.re as usize, src);
                    assert_eq!(v.im as usize, r * 10 + j);
                }
            }
        }
    }

    #[test]
    fn ghost_exchange_brings_successor_prefix() {
        let p = 4;
        let out = Cluster::run(p, |comm| {
            let r = comm.rank();
            let local: Vec<c64> = (0..8).map(|i| c64::new(r as f64, i as f64)).collect();
            comm.exchange_ghost(&local, 3)
        });
        for (r, ghost) in out.iter().enumerate() {
            let next = (r + 1) % p;
            assert_eq!(ghost.len(), 3);
            for (i, v) in ghost.iter().enumerate() {
                assert_eq!(v.re as usize, next);
                assert_eq!(v.im as usize, i);
            }
        }
    }

    #[test]
    fn gather_collects_everything_at_root() {
        let p = 3;
        let out = Cluster::run(p, |comm| {
            let r = comm.rank();
            comm.gather(vec![c64::real(r as f64); r + 1])
        });
        let root = out[0].as_ref().expect("root should have data");
        assert!(out[1].is_none() && out[2].is_none());
        for (src, buf) in root.iter().enumerate() {
            assert_eq!(buf.len(), src + 1);
            assert!(buf.iter().all(|v| v.re as usize == src));
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let out = Cluster::run(4, |comm| {
            let data = if comm.rank() == 2 {
                vec![c64::new(3.0, -1.0); 5]
            } else {
                Vec::new()
            };
            comm.broadcast(2, data)
        });
        for v in &out {
            assert_eq!(v.len(), 5);
            assert!(v.iter().all(|z| *z == c64::new(3.0, -1.0)));
        }
    }

    #[test]
    fn allgather_collects_by_rank() {
        let out = Cluster::run(3, |comm| {
            comm.allgather(vec![c64::real(comm.rank() as f64); comm.rank() + 1])
        });
        for (me, all) in out.iter().enumerate() {
            assert_eq!(all.len(), 3, "rank {me}");
            for (src, buf) in all.iter().enumerate() {
                assert_eq!(buf.len(), src + 1);
                assert!(buf.iter().all(|z| z.re as usize == src));
            }
        }
    }

    #[test]
    fn allreduce_max_agrees_everywhere() {
        let vals = [3.0, -1.0, 7.5, 2.0];
        let out = Cluster::run(4, |comm| comm.allreduce_max(vals[comm.rank()]));
        assert!(out.iter().all(|&v| v == 7.5));
    }

    #[test]
    fn all_to_all_handles_empty_and_asymmetric_volumes() {
        // Heterogeneous segment layouts ship empty buffers to some peers
        // and receive different volumes from different sources.
        let p = 3;
        let out = Cluster::run(p, |comm| {
            let r = comm.rank();
            let outgoing: Vec<Vec<c64>> = (0..p)
                .map(|d| vec![c64::real((r * 10 + d) as f64); (r + d) % 2 * (r + 1)])
                .collect();
            comm.all_to_all(outgoing)
        });
        for (r, incoming) in out.iter().enumerate() {
            for (src, buf) in incoming.iter().enumerate() {
                assert_eq!(buf.len(), (src + r) % 2 * (src + 1), "r={r} src={src}");
                assert!(buf.iter().all(|z| z.re as usize == src * 10 + r));
            }
        }
    }

    #[test]
    fn allreduce_single_rank() {
        let out = Cluster::run(1, |comm| comm.allreduce_max(-3.5));
        assert_eq!(out[0], -3.5);
    }

    #[test]
    fn try_exchange_ghost_rejects_oversized_ghost_with_typed_error() {
        // Regression: this used to `assert!` and take the rank down. A
        // `try_*` API must report misuse as a typed error instead.
        let out = Cluster::run(2, |comm| {
            let local = vec![c64::ZERO; 4];
            let too_big = comm.try_exchange_ghost(&local, 5, &ExchangePolicy::default());
            let no_rounds = comm.try_exchange_ghost(
                &local,
                2,
                &ExchangePolicy {
                    max_rounds: 0,
                    ..ExchangePolicy::default()
                },
            );
            (too_big.err(), no_rounds.err())
        });
        for (too_big, no_rounds) in out {
            assert!(matches!(too_big, Some(CommError::InvalidArgument { .. })));
            assert!(matches!(no_rounds, Some(CommError::InvalidArgument { .. })));
        }
    }

    #[test]
    fn try_paths_reject_invalid_arguments_without_panicking() {
        let out = Cluster::run(2, |comm| {
            let bad_send = comm.try_send(99, tags::USER, vec![c64::ZERO]);
            let bad_recv = comm.recv_deadline(99, tags::USER, Duration::from_millis(5));
            let short = vec![Vec::new(); 1];
            let bad_bufs = comm.all_to_all_resilient(&short, &ExchangePolicy::default());
            let ok_bufs = vec![Vec::new(); comm.size()];
            let no_rounds = comm.all_to_all_resilient(
                &ok_bufs,
                &ExchangePolicy {
                    max_rounds: 0,
                    ..ExchangePolicy::default()
                },
            );
            let too_many_rounds = comm.all_to_all_resilient(
                &ok_bufs,
                &ExchangePolicy {
                    max_rounds: 65,
                    ..ExchangePolicy::default()
                },
            );
            (
                bad_send.err(),
                bad_recv.err(),
                bad_bufs.err(),
                no_rounds.err(),
                too_many_rounds.err(),
            )
        });
        for errs in out {
            assert!(matches!(errs.0, Some(CommError::InvalidArgument { .. })));
            assert!(matches!(errs.1, Some(CommError::InvalidArgument { .. })));
            assert!(matches!(errs.2, Some(CommError::InvalidArgument { .. })));
            assert!(matches!(errs.3, Some(CommError::InvalidArgument { .. })));
            assert!(matches!(errs.4, Some(CommError::InvalidArgument { .. })));
        }
    }

    #[test]
    fn iterated_all_to_all_into_stops_allocating_once_warm() {
        // Payloads staged from the pool and received payloads recycled
        // back: after one warm-up call the exchange is served entirely
        // from the freelist.
        let out = Cluster::run(3, |comm| {
            let mut outgoing = vec![Vec::new(); comm.size()];
            let mut incoming = Vec::new();
            let mut allocs = Vec::new();
            for i in 0..3 {
                for slot in outgoing.iter_mut() {
                    *slot = comm.acquire_buffer(17);
                    slot.resize(17, c64::real(i as f64));
                }
                comm.all_to_all_into(&mut outgoing, &mut incoming);
                assert!(incoming
                    .iter()
                    .all(|b| b.len() == 17 && b[0].re == i as f64));
                allocs.push(comm.stats().comm_allocs());
            }
            allocs
        });
        for allocs in out {
            assert_eq!(allocs[1], allocs[2], "warm exchange allocated: {allocs:?}");
        }
    }

    #[test]
    fn ghost_exchange_at_full_local_length() {
        // Satellite edge case: ghost_len == per-rank length (the whole
        // local buffer is the ghost region), on both the infallible and
        // fallible paths.
        let p = 3;
        let per_rank = 6;
        let out = Cluster::run(p, |comm| {
            let r = comm.rank();
            let local: Vec<c64> = (0..per_rank)
                .map(|i| c64::new(r as f64, i as f64))
                .collect();
            let infallible = comm.exchange_ghost(&local, per_rank);
            let fallible = comm
                .try_exchange_ghost(&local, per_rank, &ExchangePolicy::default())
                .expect("full-length ghost is valid");
            (infallible, fallible)
        });
        for (r, (infallible, fallible)) in out.into_iter().enumerate() {
            let next = (r + 1) % p;
            assert_eq!(infallible.len(), per_rank);
            assert_eq!(infallible, fallible);
            for (i, v) in infallible.iter().enumerate() {
                assert_eq!(v.re as usize, next);
                assert_eq!(v.im as usize, i);
            }
        }
    }

    #[test]
    fn tracing_disabled_by_default_enabled_by_config() {
        let out = Cluster::run(2, |comm| {
            comm.all_to_all(vec![vec![c64::ZERO; 4]; 2]);
            comm.stats().clone()
        });
        for s in &out {
            assert!(!s.trace_enabled());
            assert!(s.trace_events().is_empty());
        }

        let outcomes = Cluster::run_with(ClusterConfig::with_trace(), 2, |comm| {
            comm.stats_mut().span_open("superstep");
            comm.all_to_all(vec![vec![c64::ZERO; 4]; 2]);
            comm.stats_mut().span_close("superstep");
            comm.stats().clone()
        });
        for o in outcomes {
            let s = o.unwrap();
            assert!(s.trace_enabled());
            // The flat ledger is identical either way...
            let phases: Vec<&str> = s.records().iter().map(|r| r.name).collect();
            assert_eq!(phases, vec!["all-to-all"]);
            // ...while the trace holds the phase leaf nested in the span.
            let names: Vec<&str> = s.trace_events().iter().map(|e| e.name).collect();
            assert_eq!(names, vec!["all-to-all", "superstep"]);
            assert_eq!(s.trace_events()[0].depth, 1);
            assert_eq!(s.trace_events()[0].bytes, 2 * 4 * 16);
        }
    }

    #[test]
    fn stats_record_bytes_and_phases() {
        let out = Cluster::run(2, |comm| {
            let outgoing = vec![vec![c64::ZERO; 10], vec![c64::ZERO; 10]];
            comm.all_to_all(outgoing);
            let local = vec![c64::ZERO; 6];
            comm.exchange_ghost(&local, 2);
            comm.stats().clone()
        });
        for s in &out {
            // 20 elements in the all-to-all + 2 in the ghost, 16 B each.
            assert_eq!(s.total_bytes_sent(), (20 + 2) * 16);
            let phases: Vec<&str> = s.records().iter().map(|r| r.name).collect();
            assert_eq!(phases, vec!["all-to-all", "ghost"]);
            assert!(s.records()[0].seconds >= 0.0);
        }
    }

    #[test]
    fn randomized_message_storm_is_lossless() {
        // Every rank fires a deterministic pseudo-random sequence of sends
        // (varied sizes, tags, destinations), then receives everything in
        // a fixed matching order. Exercises the pending-queue plumbing
        // under out-of-order arrival.
        let p = 4;
        let msgs_per_pair = 16;
        let out = Cluster::run(p, |comm| {
            let me = comm.rank();
            let mut rng = (me as u64 + 1) * 0x9E37_79B9;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            // Send msgs_per_pair messages to every rank with mixed tags.
            for k in 0..msgs_per_pair {
                for dst in 0..p {
                    let tag = tags::USER + (k % 3) as u64;
                    let len = (next() % 50 + 1) as usize;
                    let payload = vec![c64::new(me as f64, (k * p + dst) as f64); len];
                    comm.send(dst, tag, payload);
                }
            }
            // Receive them all, counting per (src, tag-class).
            let mut total = 0usize;
            let mut checksum = 0.0f64;
            for k in 0..msgs_per_pair {
                for src in 0..p {
                    let tag = tags::USER + (k % 3) as u64;
                    let got = comm.recv(src, tag);
                    assert!(got.iter().all(|z| z.re as usize == src));
                    total += 1;
                    checksum += got[0].im;
                }
            }
            (total, checksum)
        });
        for (total, _) in &out {
            assert_eq!(*total, p * msgs_per_pair);
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        Cluster::run(4, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must see all 4 increments.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    // ------------------------------------------------------------------
    // Fault-injection and resilience tests.
    // ------------------------------------------------------------------

    #[test]
    fn recv_deadline_times_out_cleanly() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                let err = comm
                    .recv_deadline(1, tags::USER, Duration::from_millis(30))
                    .expect_err("nothing was sent");
                comm.barrier();
                err == CommError::Timeout
            } else {
                comm.barrier();
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn dead_peer_fails_recv_typed_instead_of_hanging() {
        // A peer that *died* (not merely silent) must surface as a typed
        // peer failure long before the recv deadline — no blocking path
        // may wait out a deadline the failure detector already resolved.
        let plan = FaultPlan::new(5).crash(1, CrashSite::Barrier);
        let outcomes = run_cluster_with_faults(2, plan, |comm| {
            if comm.rank() == 1 {
                comm.barrier(); // injected crash fires here
                unreachable!("rank 1 died at the barrier");
            }
            let start = Instant::now();
            let err = comm
                .recv_deadline(1, tags::USER, Duration::from_secs(30))
                .expect_err("peer is dead");
            assert_eq!(err, CommError::PeerFailed { rank: 1 });
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "death must preempt the deadline"
            );
            true
        });
        assert!(matches!(outcomes[1], RankOutcome::Crashed));
        assert!(matches!(outcomes[0], RankOutcome::Ok(true)));
    }

    #[test]
    fn silent_peer_timeout_is_counted_in_stats() {
        let out = Cluster::run(2, |comm| {
            if comm.rank() == 0 {
                let err = comm
                    .recv_deadline(1, tags::USER, Duration::from_millis(20))
                    .expect_err("silent peer");
                let counted = comm.stats().recv_timeouts();
                comm.barrier();
                (err == CommError::Timeout, counted)
            } else {
                comm.barrier();
                (true, 1)
            }
        });
        assert!(out[0].0, "silent peer must read as a typed Timeout");
        assert!(out[0].1 >= 1, "the expiry must land in the stats counter");
    }

    #[test]
    fn transient_drops_are_retransmitted_transparently() {
        let plan = FaultPlan::new(11).drop(0.4); // fault_limit 2 < 4 attempts
        let outcomes = run_cluster_with_faults(3, plan, |comm| {
            let p = comm.size();
            let outgoing: Vec<Vec<c64>> = (0..p)
                .map(|d| vec![c64::new(comm.rank() as f64, d as f64); 20])
                .collect();
            let incoming = comm.all_to_all(outgoing);
            let ok = incoming
                .iter()
                .enumerate()
                .all(|(src, buf)| buf.len() == 20 && buf[0].re as usize == src);
            (ok, comm.stats().retransmits())
        });
        let mut total_retransmits = 0;
        for o in outcomes {
            let (ok, retransmits) = o.unwrap();
            assert!(ok, "payloads must survive drops");
            total_retransmits += retransmits;
        }
        assert!(total_retransmits > 0, "plan must actually drop something");
    }

    #[test]
    fn corruption_is_detected_and_retransmitted() {
        let plan = FaultPlan::new(23).corrupt(0.5);
        let outcomes = run_cluster_with_faults(2, plan, |comm| {
            let peer = 1 - comm.rank();
            for i in 0..32 {
                comm.send(peer, tags::USER, vec![c64::real(i as f64); 8]);
            }
            let clean = (0..32).all(|i| {
                let got = comm.recv(peer, tags::USER);
                got.len() == 8 && got[0].re == i as f64
            });
            (clean, comm.stats().corrupt_discarded())
        });
        let mut discarded = 0;
        for o in outcomes {
            let (clean, d) = o.unwrap();
            assert!(clean, "no corrupted payload may be delivered");
            discarded += d;
        }
        assert!(discarded > 0, "plan must actually corrupt something");
    }

    #[test]
    fn duplicates_are_filtered() {
        let plan = FaultPlan::new(5).duplicate(0.6);
        let outcomes = run_cluster_with_faults(2, plan, |comm| {
            let peer = 1 - comm.rank();
            for i in 0..24 {
                comm.send(peer, tags::USER, vec![c64::real(i as f64)]);
            }
            comm.barrier(); // everything in flight
            let inorder = (0..24).all(|i| comm.recv(peer, tags::USER)[0].re == i as f64);
            // Nothing extra may be left over.
            std::thread::sleep(Duration::from_millis(10));
            let empty = comm.try_recv(peer, tags::USER).is_none();
            (inorder, empty, comm.stats().duplicates_discarded())
        });
        let mut dups = 0;
        for o in outcomes {
            let (inorder, empty, d) = o.unwrap();
            assert!(inorder, "stream must stay FIFO and exactly-once");
            assert!(empty, "duplicates must not surface");
            dups += d;
        }
        assert!(dups > 0, "plan must actually duplicate something");
    }

    #[test]
    fn delays_preserve_content() {
        let plan = FaultPlan::new(17).delay(0.5, Duration::from_micros(300));
        let outcomes = run_cluster_with_faults(2, plan, |comm| {
            let peer = 1 - comm.rank();
            for i in 0..16 {
                comm.send(peer, tags::USER, vec![c64::real(i as f64)]);
            }
            (0..16).all(|i| comm.recv(peer, tags::USER)[0].re == i as f64)
        });
        for o in outcomes {
            assert!(o.unwrap());
        }
    }

    #[test]
    fn permanent_drop_fails_with_typed_timeout() {
        let plan = FaultPlan::new(2).drop(1.0).permanent();
        let config = ClusterConfig {
            faults: Some(plan),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_micros(10),
            },
            ..ClusterConfig::default()
        };
        let outcomes = Cluster::run_with(config, 2, |comm| {
            let peer = 1 - comm.rank();
            comm.try_send(peer, tags::USER, vec![c64::ZERO; 4])
        });
        for o in outcomes {
            assert_eq!(o.unwrap(), Err(CommError::Timeout));
        }
    }

    #[test]
    fn injected_crash_unblocks_survivors() {
        let plan = FaultPlan::new(0).crash(1, CrashSite::Barrier);
        let outcomes: Vec<RankOutcome<()>> = run_cluster_with_faults(3, plan, |comm| {
            comm.barrier(); // rank 1 dies here; 0 and 2 must not hang
        });
        assert_eq!(outcomes[1], RankOutcome::Crashed);
        for rank in [0, 2] {
            match &outcomes[rank] {
                RankOutcome::Err(CommError::PeerFailed { rank: r }) => assert_eq!(*r, 1),
                other => panic!("rank {rank}: expected PeerFailed, got {other:?}"),
            }
        }
    }

    #[test]
    fn crash_mid_exchange_fails_survivor_recvs() {
        let plan = FaultPlan::new(0).crash(0, CrashSite::AllToAll);
        let outcomes: Vec<RankOutcome<()>> = run_cluster_with_faults(2, plan, |comm| {
            let outgoing = (0..comm.size()).map(|_| vec![c64::ZERO; 4]).collect();
            comm.all_to_all(outgoing);
        });
        assert_eq!(outcomes[0], RankOutcome::Crashed);
        match &outcomes[1] {
            RankOutcome::Err(CommError::PeerFailed { rank }) => assert_eq!(*rank, 0),
            other => panic!("expected PeerFailed, got {other:?}"),
        }
    }

    #[test]
    fn resilient_all_to_all_without_faults_matches_plain() {
        let p = 3;
        let make = |r: usize| -> Vec<Vec<c64>> {
            (0..p)
                .map(|d| {
                    (0..9)
                        .map(|j| c64::new((r * 10 + d) as f64, j as f64))
                        .collect()
                })
                .collect()
        };
        let plain = Cluster::run(p, |comm| comm.all_to_all(make(comm.rank())));
        let resilient = Cluster::run(p, |comm| {
            comm.all_to_all_resilient(&make(comm.rank()), &ExchangePolicy::default())
                .expect("healthy cluster")
        });
        assert_eq!(plain, resilient);
    }

    #[test]
    fn resilient_all_to_all_survives_heavy_transient_faults() {
        let plan = FaultPlan::new(31).drop(0.3).corrupt(0.2).duplicate(0.2);
        let p = 4;
        let outcomes = run_cluster_with_faults(p, plan, |comm| {
            let r = comm.rank();
            let outgoing: Vec<Vec<c64>> = (0..p)
                .map(|d| vec![c64::new(r as f64, d as f64); 15])
                .collect();
            let policy = ExchangePolicy {
                deadline: Duration::from_secs(2),
                max_rounds: 4,
            };
            comm.all_to_all_resilient(&outgoing, &policy)
        });
        for (rank, o) in outcomes.into_iter().enumerate() {
            let incoming = o.unwrap().expect("transient faults must be absorbed");
            for (src, buf) in incoming.iter().enumerate() {
                assert_eq!(buf.len(), 15, "rank {rank} src {src}");
                assert_eq!(buf[0], c64::new(src as f64, rank as f64));
            }
        }
    }

    #[test]
    fn keep_own_exchange_charges_the_own_block_like_a_self_send() {
        let (p, len) = (3, 7);
        let part = |r: usize, d: usize| -> Vec<c64> {
            (0..len)
                .map(|j| c64::new((r * 10 + d) as f64, j as f64))
                .collect()
        };
        let policy = ExchangePolicy {
            deadline: Duration::from_secs(2),
            max_rounds: 4,
        };
        for resilient in [false, true] {
            // Self-sends skip injection, so both runs draw the same faults.
            let plan = FaultPlan::new(31).drop(0.3).corrupt(0.2);
            let run = |keep: bool| {
                run_cluster_with_faults(p, plan.clone(), |comm| {
                    let r = comm.rank();
                    let mut outgoing: Vec<Vec<c64>> = (0..p)
                        .map(|d| {
                            if keep && d == r {
                                Vec::new()
                            } else {
                                part(r, d)
                            }
                        })
                        .collect();
                    let mut incoming = Vec::new();
                    let policy = resilient.then_some(&policy);
                    match (keep, policy) {
                        (true, _) => {
                            comm.all_to_all_keep_own(&mut outgoing, len, &mut incoming, policy)?
                        }
                        (false, Some(policy)) => {
                            incoming = comm.all_to_all_resilient(&outgoing, policy)?
                        }
                        (false, None) => comm.all_to_all_into(&mut outgoing, &mut incoming),
                    }
                    let s = comm.stats();
                    let ledger = (
                        s.messages_sent(),
                        s.total_bytes_sent(),
                        s.bytes_in("all-to-all"),
                        s.retransmits(),
                    );
                    Ok::<_, CommError>((outgoing, incoming, ledger))
                })
            };
            let (full, kept) = (run(false), run(true));
            let mut retransmits = 0;
            for (r, (f, k)) in full.into_iter().zip(kept).enumerate() {
                let (_, f_in, f_ledger) = f.unwrap().expect("full own slot");
                let (k_out, k_in, k_ledger) = k.unwrap().expect("kept own block");
                assert!(
                    k_out.iter().all(Vec::is_empty),
                    "rank {r}: slots come back empty"
                );
                assert!(k_in[r].is_empty(), "rank {r}: the own slot is posted empty");
                for q in (0..p).filter(|&q| q != r) {
                    assert_eq!(k_in[q], part(q, r), "rank {r} from {q}");
                    assert_eq!(k_in[q], f_in[q], "rank {r} from {q}");
                }
                assert_eq!(k_ledger, f_ledger, "rank {r}, resilient {resilient}");
                assert!(k_ledger.2 >= (p * len * 16) as u64);
                retransmits += k_ledger.3;
            }
            assert!(retransmits > 0, "the plan injected faults");
        }
    }

    #[test]
    fn keep_own_exchange_rejects_a_filled_own_slot() {
        let out = Cluster::run(2, |comm| {
            let mut outgoing = vec![vec![c64::ZERO; 3]; 2];
            let err = comm.all_to_all_keep_own(&mut outgoing, 3, &mut Vec::new(), None);
            (err.err(), comm.stats().messages_sent())
        });
        for (err, sent) in out {
            assert!(matches!(err, Some(CommError::InvalidArgument { .. })));
            assert_eq!(sent, 0, "nothing is posted");
        }
    }

    #[test]
    fn bounded_capacity_applies_backpressure_and_records_watermark() {
        let config = ClusterConfig::with_capacity(4);
        let outcomes = Cluster::run_with(config, 2, |comm| {
            let peer = 1 - comm.rank();
            // 32 messages through a 4-deep queue: the sender must block
            // (backpressure) rather than queueing everything.
            if comm.rank() == 0 {
                for i in 0..32 {
                    comm.send(peer, tags::USER, vec![c64::real(i as f64); 64]);
                }
                comm.barrier();
                comm.stats().queue_high_watermark()
            } else {
                let ok = (0..32).all(|i| comm.recv(0, tags::USER)[0].re == i as f64);
                assert!(ok);
                comm.barrier();
                comm.stats().queue_high_watermark()
            }
        });
        let watermark0 = outcomes[0].clone().unwrap();
        assert!(watermark0 <= 4, "queue depth may never exceed capacity");
        assert!(watermark0 > 0, "sender must have observed queued messages");
    }

    #[test]
    fn unbounded_watermark_tracks_queue_depth() {
        let outcomes = Cluster::run_with(ClusterConfig::default(), 2, |comm| {
            if comm.rank() == 0 {
                for i in 0..16 {
                    comm.send(1, tags::USER, vec![c64::real(i as f64)]);
                }
                comm.barrier(); // receiver drains only after this
                comm.stats().queue_high_watermark()
            } else {
                comm.barrier();
                for _ in 0..16 {
                    comm.recv(0, tags::USER);
                }
                0
            }
        });
        assert!(
            outcomes[0].clone().unwrap() >= 8,
            "watermark should see the built-up queue"
        );
    }

    #[test]
    fn fault_events_are_deterministic_across_runs() {
        let run = || {
            let plan = FaultPlan::new(77).drop(0.3).corrupt(0.3).duplicate(0.2);
            let outcomes = run_cluster_with_faults(3, plan, |comm| {
                let p = comm.size();
                let outgoing: Vec<Vec<c64>> =
                    (0..p).map(|d| vec![c64::real(d as f64); 10]).collect();
                let incoming = comm.all_to_all(outgoing);
                (incoming, comm.fault_events().expect("plan installed"))
            });
            outcomes.into_iter().map(|o| o.unwrap()).collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed + plan must give identical runs");
    }

    #[test]
    fn join_deadline_reports_wedged_rank() {
        let config = ClusterConfig {
            join_deadline: Duration::from_millis(50),
            ..ClusterConfig::default()
        };
        let outcomes = Cluster::run_with(config, 3, |comm| {
            if comm.rank() == 2 {
                // Wedged *outside* the comm layer, where no failure
                // detector can unblock it — only the join deadline sees it.
                std::thread::sleep(Duration::from_millis(400));
            }
            comm.rank()
        });
        assert_eq!(
            outcomes[2],
            RankOutcome::Panicked("join timeout".to_string())
        );
        assert_eq!(outcomes[0], RankOutcome::Ok(0));
        assert_eq!(outcomes[1], RankOutcome::Ok(1));
    }

    #[test]
    fn run_with_reports_plain_panics() {
        let outcomes: Vec<RankOutcome<()>> =
            Cluster::run_with(ClusterConfig::default(), 2, |comm| {
                if comm.rank() == 1 {
                    panic!("boom on rank 1");
                }
                comm.barrier();
            });
        match &outcomes[1] {
            RankOutcome::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Rank 0 was blocked in the barrier; the dying rank cancels it.
        match &outcomes[0] {
            RankOutcome::Err(CommError::PeerFailed { rank }) => assert_eq!(*rank, 1),
            other => panic!("expected PeerFailed, got {other:?}"),
        }
    }

    /// Bytes of capacity a `Vec<c64>` of capacity `cap` pins.
    fn cap_bytes(cap: usize) -> usize {
        cap * std::mem::size_of::<c64>()
    }

    #[test]
    fn pool_retains_within_byte_ceiling() {
        // Room for exactly two 64-element buffers.
        let mut pool = BufferPool::with_limit(cap_bytes(128));
        assert_eq!(pool.give(Vec::with_capacity(64)), 0);
        assert_eq!(pool.give(Vec::with_capacity(64)), 0);
        assert_eq!(pool.retained_bytes, cap_bytes(128));
        // A third buffer forces one eviction to make room.
        assert_eq!(pool.give(Vec::with_capacity(64)), 1);
        assert_eq!(pool.retained_bytes, cap_bytes(128));
        // Taking drains the ledger symmetrically.
        assert!(pool.take(64).is_some());
        assert_eq!(pool.retained_bytes, cap_bytes(64));
    }

    #[test]
    fn pool_declines_buffer_larger_than_ceiling() {
        let mut pool = BufferPool::with_limit(cap_bytes(16));
        assert_eq!(pool.give(Vec::with_capacity(32)), 1, "declined outright");
        assert_eq!(pool.retained_bytes, 0);
        assert!(pool.take(32).is_none());
    }

    #[test]
    fn pool_evicts_largest_class_first_under_shape_churn() {
        let mut pool = BufferPool::with_limit(cap_bytes(1024 + 12));
        assert_eq!(pool.give(Vec::with_capacity(1024)), 0);
        assert_eq!(pool.give(Vec::with_capacity(8)), 0);
        // Admitting another small-class buffer overflows the ceiling; the
        // stale 1024-element buffer goes, not the hot small class.
        assert_eq!(pool.give(Vec::with_capacity(8)), 1);
        assert!(pool.take(1024).is_none(), "large class was evicted");
        assert!(pool.take(8).is_some());
        assert!(pool.take(8).is_some());
    }

    #[test]
    fn pool_evictions_surface_in_comm_stats() {
        let config = ClusterConfig {
            // Below any payload this run stages: every recycle is declined.
            pool_max_retained_bytes: 8,
            ..ClusterConfig::default()
        };
        let evictions = Cluster::run_with(config, 2, |comm| {
            let dst = (comm.rank() + 1) % comm.size();
            let mut buf = comm.acquire_buffer(32);
            buf.resize(32, c64::ZERO);
            comm.send(dst, tags::USER, buf);
            let src = (comm.rank() + 1) % comm.size();
            let got = comm.recv(src, tags::USER);
            comm.recycle_buffer(got);
            comm.stats().pool_evictions()
        });
        for (rank, outcome) in evictions.into_iter().enumerate() {
            match outcome {
                RankOutcome::Ok(n) => {
                    assert!(
                        n >= 1,
                        "rank {rank}: recycle under a tiny ceiling must evict"
                    )
                }
                other => panic!("rank {rank} failed: {other:?}"),
            }
        }
    }
}
