//! Pluggable transports under [`Comm`](crate::Comm).
//!
//! The resilience stack — sequence numbers, checksums, duplicate
//! filtering, retransmit budgets, generations — was already
//! transport-shaped; this module draws the boundary explicitly. A
//! [`Transport`] moves opaque [`Message`]s between ranks and answers
//! liveness questions; everything above it (the pending map,
//! fault injection, retry, the buffer pool, statistics) lives in
//! [`Comm`](crate::Comm) and is backend-agnostic.
//!
//! Two backends ship:
//!
//! * [`InProcTransport`] — the classic simulated cluster: ranks are OS
//!   threads, links are crossbeam channels, failure detection is a
//!   shared health flag, and the barrier is a condvar. This remains the
//!   default used by [`Cluster::run`](crate::Cluster::run).
//! * [`TcpTransport`](tcp::TcpTransport) — a full mesh of per-peer TCP
//!   connections speaking the [`wire`] codec, suitable for ranks on
//!   separate hosts. Transient link drops heal by
//!   reconnect-with-backoff inside the staleness budget; longer
//!   partitions escalate to [`CommError::PeerDown`]. The [`netchaos`]
//!   module puts a deterministic fault proxy (partitions, resets,
//!   latency, bandwidth caps, slow-loris) in front of it.
//!
//! Two supervisors run ranks on the mesh: [`TcpSupervisor`](tcp::TcpSupervisor)
//! as threads, and [`ProcSupervisor`](proc::ProcSupervisor) as child OS
//! processes, each joining the mesh through
//! [`ProcEndpoint::connect`](proc::ProcEndpoint::connect). There, peer
//! death is *real* (`kill -9`): the supervisor sees the exit status or a
//! silent control link and announces it to the survivors as
//! [`CommError::PeerDown`].

pub mod netchaos;
#[cfg(unix)]
pub mod proc;
pub mod tcp;
pub mod wire;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::resilience::{CancellableBarrier, ClusterState, CommError};
use crate::Message;

/// Result of a non-blocking [`Transport::try_send`]. `Full` and `Closed`
/// hand the message back so the caller can retry or drop it without a
/// clone.
pub enum SendOutcome {
    /// The message was accepted by the link.
    Sent,
    /// The destination queue is full (bounded links under backpressure);
    /// the caller may retry after a pause.
    Full(Message),
    /// The destination endpoint is gone.
    Closed(Message),
}

/// Result of a bounded-blocking [`Transport::recv_wait`].
pub enum WaitOutcome {
    /// A message arrived.
    Message(Message),
    /// The wait slice elapsed without traffic (not an error — the caller
    /// re-checks health and its own deadline, then waits again).
    Idle,
    /// Every sending endpoint is gone; nothing further can arrive.
    Closed,
}

/// How a failed peer was lost, which decides the [`CommError`] surfaced
/// to the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerFailureKind {
    /// Cooperative death inside the process model: a rank thread
    /// panicked or was fault-injected to crash ([`CommError::PeerFailed`]).
    Crashed,
    /// Process-level death: the peer's OS process exited or stopped
    /// heartbeating ([`CommError::PeerDown`]).
    Down,
}

/// A failed peer as reported by a transport's failure detector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerFailure {
    /// The dead rank.
    pub rank: usize,
    /// How it was lost.
    pub kind: PeerFailureKind,
}

impl PeerFailure {
    /// The typed error this failure surfaces as.
    pub fn into_error(self) -> CommError {
        match self.kind {
            PeerFailureKind::Crashed => CommError::PeerFailed { rank: self.rank },
            PeerFailureKind::Down => CommError::PeerDown { rank: self.rank },
        }
    }
}

/// Heartbeat activity harvested from a transport since the last harvest
/// (all zeros for transports without a heartbeat plane).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HeartbeatDelta {
    /// Liveness beacons this rank sent.
    pub sent: u64,
    /// Peers this rank saw declared dead by heartbeat staleness.
    pub missed: u64,
}

/// Per-link activity harvested from a transport since the last harvest
/// (empty/zero for backends without real links).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkDelta {
    /// Successful re-dials of a dropped connection (transparent heals).
    pub reconnects: u64,
    /// Wall-clock seconds outbound links spent broken before healing or
    /// escalation — the observed partition time.
    pub partition_seconds: f64,
    /// Payload + header bytes written toward each destination rank,
    /// indexed by rank (this rank's own slot stays 0).
    pub bytes_by_peer: Vec<u64>,
}

/// Shared peer-liveness table a transport's detector threads feed and
/// its blocking primitives poll (used by the process and TCP backends).
pub(crate) struct PeerMap {
    pub(crate) any: AtomicBool,
    pub(crate) flags: Mutex<Vec<Option<PeerFailureKind>>>,
    /// Peers lost to heartbeat staleness (vs. connection/exit loss).
    pub(crate) hb_missed: AtomicU64,
}

impl PeerMap {
    pub(crate) fn new(size: usize) -> Self {
        PeerMap {
            any: AtomicBool::new(false),
            flags: Mutex::new(vec![None; size]),
            hb_missed: AtomicU64::new(0),
        }
    }

    /// Marks `rank` failed with `kind`; first marking wins. Returns true
    /// when this call was the first to mark it.
    pub(crate) fn mark(&self, rank: usize, kind: PeerFailureKind) -> bool {
        let mut g = self.flags.lock().unwrap_or_else(|e| e.into_inner());
        let fresh = rank < g.len() && g[rank].is_none();
        if fresh {
            g[rank] = Some(kind);
        }
        self.any.store(true, Ordering::SeqCst);
        fresh
    }

    pub(crate) fn first(&self) -> Option<PeerFailure> {
        if !self.any.load(Ordering::SeqCst) {
            return None;
        }
        let g = self.flags.lock().unwrap_or_else(|e| e.into_inner());
        g.iter()
            .enumerate()
            .find_map(|(rank, kind)| kind.map(|kind| PeerFailure { rank, kind }))
    }

    pub(crate) fn get(&self, rank: usize) -> Option<PeerFailure> {
        if !self.any.load(Ordering::SeqCst) {
            return None;
        }
        let g = self.flags.lock().unwrap_or_else(|e| e.into_inner());
        g.get(rank)
            .copied()
            .flatten()
            .map(|kind| PeerFailure { rank, kind })
    }
}

/// A message-moving backend under [`Comm`](crate::Comm): point-to-point
/// delivery, a failure detector, and a barrier. Implementations must
/// deliver messages FIFO per (src, dst) pair; everything else (ordering
/// across pairs, retries, checksummed payload verification) is the
/// resilience layer's job.
pub trait Transport: Send {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// Number of ranks in the cluster.
    fn size(&self) -> usize;

    /// Supervision epoch this endpoint belongs to.
    fn generation(&self) -> u64;

    /// Non-blocking send of `msg` to `dst` (`dst != rank`, in range —
    /// the caller validates).
    fn try_send(&mut self, dst: usize, msg: Message) -> SendOutcome;

    /// Non-blocking poll for any delivered message.
    fn try_recv(&mut self) -> Option<Message>;

    /// Blocks up to `slice` for a message. Callers loop on short slices
    /// so they can interleave health checks and deadline checks.
    fn recv_wait(&mut self, slice: Duration) -> WaitOutcome;

    /// The first peer known dead, if any (the fast-path health check
    /// every blocking primitive polls).
    fn failed_peer(&self) -> Option<PeerFailure>;

    /// `rank`'s failure, if the detector knows of one.
    fn peer_failure(&self, rank: usize) -> Option<PeerFailure>;

    /// Records this endpoint's own rank as dead and unblocks every
    /// party that might wait on it (called on the way out of an
    /// injected crash or panic).
    fn announce_death(&self, rank: usize);

    /// Synchronizes all ranks, waiting at most `timeout`.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when the deadline elapses,
    /// [`CommError::PeerFailed`] / [`CommError::PeerDown`] when a rank
    /// died while the barrier was pending (every survivor unblocks).
    fn barrier(&mut self, timeout: Duration) -> Result<(), CommError>;

    /// Messages currently queued toward `dst` (0 where unknowable);
    /// feeds the backpressure watermark statistic.
    fn queue_depth(&self, dst: usize) -> usize {
        let _ = dst;
        0
    }

    /// Harvests heartbeat activity since the last call (zeros for
    /// backends without heartbeats).
    fn take_heartbeat_delta(&self) -> HeartbeatDelta {
        HeartbeatDelta::default()
    }

    /// Harvests per-link activity (reconnects, partition time, bytes by
    /// peer) since the last call; the default covers backends without
    /// real links.
    fn take_link_delta(&self) -> LinkDelta {
        LinkDelta::default()
    }
}

/// The in-process backend: threads, crossbeam channels, a shared health
/// flag, and a condvar barrier — the simulated cluster the repo grew up
/// on, now one implementation of [`Transport`] among several.
pub struct InProcTransport {
    rank: usize,
    size: usize,
    generation: u64,
    senders: Vec<Sender<Message>>,
    receiver: Arc<Receiver<Message>>,
    barrier: Arc<CancellableBarrier>,
    state: Arc<ClusterState>,
}

impl InProcTransport {
    /// Wires an endpoint for `rank` over the given channels and shared
    /// health/barrier primitives (one set per epoch, built by the
    /// launcher).
    pub(crate) fn new(
        rank: usize,
        size: usize,
        generation: u64,
        senders: Vec<Sender<Message>>,
        receiver: Arc<Receiver<Message>>,
        barrier: Arc<CancellableBarrier>,
        state: Arc<ClusterState>,
    ) -> Self {
        InProcTransport {
            rank,
            size,
            generation,
            senders,
            receiver,
            barrier,
            state,
        }
    }
}

impl Transport for InProcTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn generation(&self) -> u64 {
        self.generation
    }

    fn try_send(&mut self, dst: usize, msg: Message) -> SendOutcome {
        match self.senders[dst].try_send(msg) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Full(m)) => SendOutcome::Full(m),
            Err(TrySendError::Disconnected(m)) => SendOutcome::Closed(m),
        }
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.receiver.try_recv().ok()
    }

    fn recv_wait(&mut self, slice: Duration) -> WaitOutcome {
        match self.receiver.recv_timeout(slice) {
            Ok(msg) => WaitOutcome::Message(msg),
            Err(RecvTimeoutError::Timeout) => WaitOutcome::Idle,
            Err(RecvTimeoutError::Disconnected) => WaitOutcome::Closed,
        }
    }

    fn failed_peer(&self) -> Option<PeerFailure> {
        self.state.check().map(|rank| PeerFailure {
            rank,
            kind: PeerFailureKind::Crashed,
        })
    }

    fn peer_failure(&self, rank: usize) -> Option<PeerFailure> {
        self.state.has_failed(rank).then_some(PeerFailure {
            rank,
            kind: PeerFailureKind::Crashed,
        })
    }

    fn announce_death(&self, rank: usize) {
        self.state.mark_failed(rank);
        self.barrier.cancel(rank);
    }

    fn barrier(&mut self, timeout: Duration) -> Result<(), CommError> {
        self.barrier.wait_for(timeout)
    }

    fn queue_depth(&self, dst: usize) -> usize {
        self.senders[dst].len()
    }
}
