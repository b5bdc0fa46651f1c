//! The TCP mesh backend: ranks on real sockets, possibly real hosts.
//!
//! Topology is a full mesh of unidirectional links: rank `s` dials one
//! TCP connection toward each peer `d` (possibly through the
//! [`netchaos`](super::netchaos) fault proxy) and that connection
//! carries all `s → d` frames; the accepted side is receive-only after
//! answering the handshake. Every connection opens with a
//! generation-stamped [`FrameKind::Hello`] / [`FrameKind::Welcome`]
//! exchange — an acceptor drops a wrong-generation dialer without a
//! Welcome, so a straggler from a dead epoch can never rejoin.
//!
//! **Transparent healing.** Each outbound link is owned by a sender
//! thread holding a bounded frame queue. When the connection breaks the
//! thread re-dials with capped exponential backoff
//! ([`FailureDetection::reconnect_backoff`]), keeping the in-flight
//! frame for retransmission on the fresh connection; the receive side
//! filters re-delivered data frames by per-source sequence number, so a
//! drop-and-reconnect inside the staleness budget is invisible to the
//! layers above (it surfaces only in the [`LinkDelta`] counters).
//!
//! **Escalation.** Continuous link downtime or inbound silence beyond
//! [`FailureDetection::staleness_timeout`] declares the peer down:
//! a [`FrameKind::PeerDown`] notice is broadcast (including *toward*
//! the dead rank — under an asymmetric partition it may still hear us
//! and must abort too), every blocked receive and barrier surfaces
//! [`CommError::PeerDown`], and the [`TcpSupervisor`] respawns the rank
//! set into a bumped generation that resumes from the shared
//! [`CheckpointStore`] — the same failure ladder as the process
//! backend, now driven by a real network fault.
//!
//! **Deadline-bounding.** Every blocking operation is bounded: socket
//! reads and writes carry the staleness timeout, handshakes inherit it,
//! barrier waits take an explicit deadline, and dial attempts are
//! capped — no code path waits forever on a partitioned peer.

use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use super::netchaos::{NetChaos, NetChaosEvents, NetChaosPlan};
use super::wire::{self, frame_to_message, message_to_frame, Frame, FrameKind};
use super::{
    HeartbeatDelta, LinkDelta, PeerFailure, PeerFailureKind, PeerMap, SendOutcome, Transport,
    WaitOutcome,
};
use crate::checkpoint::CheckpointStore;
use crate::resilience::{CommError, FailureDetection, RankOutcome};
use crate::supervisor::{respawn_ladder, HealthMonitor, RecoveryCtx, RestartPolicy};
use crate::{launch_ranks, ClusterConfig, Comm};

/// Per-peer outbound queue capacity in frames; a full queue surfaces as
/// [`SendOutcome::Full`] backpressure to the link layer.
const OUT_QUEUE_FRAMES: usize = 1024;

/// How long the acceptor sleeps between non-blocking accept polls.
const ACCEPT_SLICE: Duration = Duration::from_millis(5);

/// One rank's launch parameters for the TCP mesh.
#[derive(Clone, Debug)]
pub struct TcpEndpoint {
    /// This rank's id.
    pub rank: usize,
    /// Number of ranks in the cluster.
    pub size: usize,
    /// Supervision generation of this incarnation.
    pub generation: u64,
    /// Restarts that preceded this incarnation.
    pub restarts: u32,
    /// Address this rank listens on ([`TcpTransport::connect`] binds
    /// it; [`TcpTransport::with_listener`] uses the pre-bound socket).
    pub listen: SocketAddr,
    /// Address to dial to reach each rank (`dial[rank]` is unused). In
    /// chaos runs these are the [`NetChaos`] proxy addresses.
    pub dial: Vec<SocketAddr>,
    /// Failure-detection and reconnect timing.
    pub detection: FailureDetection,
}

struct BarrierSvc {
    waiting: Vec<bool>,
    /// Highest barrier ordinal each rank has entered — duplicate
    /// entries re-delivered across a reconnect are ignored.
    entered: Vec<u64>,
    /// Once set, every pending and future entry releases with this
    /// failed rank.
    failed: Option<usize>,
}

pub(crate) struct TcpShared {
    rank: usize,
    size: usize,
    generation: u64,
    detection: FailureDetection,
    alive: AtomicBool,
    peers: PeerMap,
    /// Peers that sent an orderly [`FrameKind::Shutdown`] goodbye —
    /// finished, not failed; staleness detection is suppressed for them.
    finished: Vec<AtomicBool>,
    /// Peers counted as gone (down or finished), for the all-sources-
    /// exhausted receive outcome.
    gone_counted: Vec<AtomicBool>,
    gone: AtomicUsize,
    inbox_tx: Sender<crate::Message>,
    barrier_tx: Sender<u64>,
    barrier: Mutex<BarrierSvc>,
    /// Next acceptable data-frame seq per source: the reconnect
    /// duplicate filter ([`Comm`] stamps strictly increasing per-source
    /// sequence numbers, so re-delivered frames sort below the floor).
    data_floor: Vec<Mutex<u64>>,
    /// Outbound frame queues per destination (`None` at own rank).
    outq: Vec<Option<Sender<Frame>>>,
    last_seen: Mutex<Vec<Instant>>,
    /// Inbound streams, severed at teardown to unblock readers.
    inbound: Mutex<Vec<TcpStream>>,
    hb_sent: AtomicU64,
    reconnects: AtomicU64,
    partition_ns: AtomicU64,
    bytes_to: Vec<AtomicU64>,
    /// Silences a process rank's control-link beacon (the chaos hook in
    /// [`proc`](super::proc)); the mesh itself never reads it.
    pub(crate) beacon_muted: AtomicBool,
    /// How long a drop waits for the mesh threads to flush and exit —
    /// set for process ranks, which exit right after the drop.
    pub(crate) linger: OnceLock<Duration>,
}

impl TcpShared {
    pub(crate) fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    fn is_finished(&self, rank: usize) -> bool {
        self.finished[rank].load(Ordering::SeqCst)
    }

    fn note_gone(&self, rank: usize) {
        if !self.gone_counted[rank].swap(true, Ordering::SeqCst) {
            self.gone.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn mark_finished(&self, rank: usize) {
        if rank < self.size && !self.finished[rank].swap(true, Ordering::SeqCst) {
            self.note_gone(rank);
        }
    }

    /// Best-effort control/data enqueue toward `dst`.
    fn enqueue(&self, dst: usize, frame: Frame) -> bool {
        match self.outq.get(dst).and_then(|q| q.as_ref()) {
            Some(q) => q.try_send(frame).is_ok(),
            None => false,
        }
    }

    /// Declares `dead` lost (`kind`, for `reason`): a detector's verdict,
    /// this rank's own death, or the launcher abandoning it. Broadcasts
    /// the notice to every peer, including the dead rank, which under an
    /// asymmetric partition may still hear us and must learn it has been
    /// declared dead, and fails pending barriers.
    fn declare_down(&self, dead: usize, kind: PeerFailureKind, reason: u64) {
        if dead >= self.size || !self.peers.mark(dead, kind) {
            return;
        }
        self.note_gone(dead);
        if reason == Frame::PEER_DOWN_HEARTBEAT {
            self.peers.hb_missed.fetch_add(1, Ordering::SeqCst);
        }
        let mut notice = Frame::control(FrameKind::PeerDown, dead as u32, self.generation);
        notice.tag = reason;
        for r in 0..self.size {
            if r != self.rank {
                self.enqueue(r, notice.clone());
            }
        }
        if self.rank == 0 {
            self.fail_barrier(dead);
        }
    }

    /// Records a remotely broadcast peer death.
    pub(crate) fn note_remote_down(&self, dead: usize, reason: u64) {
        if dead >= self.size || !self.peers.mark(dead, PeerFailureKind::Down) {
            return;
        }
        self.note_gone(dead);
        if reason == Frame::PEER_DOWN_HEARTBEAT {
            self.peers.hb_missed.fetch_add(1, Ordering::SeqCst);
        }
        if self.rank == 0 {
            self.fail_barrier(dead);
        }
    }

    /// Releases one rank's pending barrier wait with `tag` (0 =
    /// success, `r + 1` = rank `r` died).
    fn release_to(&self, rank: usize, tag: u64) {
        if rank == self.rank {
            let _ = self.barrier_tx.send(tag);
        } else {
            let mut f =
                Frame::control(FrameKind::BarrierRelease, self.rank as u32, self.generation);
            f.tag = tag;
            self.enqueue(rank, f);
        }
    }

    /// Rank 0's barrier coordinator: one entry from `entrant` with its
    /// barrier ordinal `ord`.
    fn barrier_enter(&self, entrant: usize, ord: u64) {
        if entrant >= self.size {
            return;
        }
        enum Action {
            None,
            ReleaseFailed(usize),
            ReleaseAll,
        }
        let action = {
            let mut b = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
            if ord <= b.entered[entrant] {
                Action::None // duplicate re-delivered across a reconnect
            } else {
                b.entered[entrant] = ord;
                if let Some(dead) = b.failed {
                    Action::ReleaseFailed(dead)
                } else {
                    b.waiting[entrant] = true;
                    let all_in = (0..self.size)
                        .all(|r| b.waiting[r] || self.gone_counted[r].load(Ordering::SeqCst));
                    if all_in {
                        for w in b.waiting.iter_mut() {
                            *w = false;
                        }
                        Action::ReleaseAll
                    } else {
                        Action::None
                    }
                }
            }
        };
        match action {
            Action::None => {}
            Action::ReleaseFailed(dead) => self.release_to(entrant, (dead + 1) as u64),
            Action::ReleaseAll => {
                // Remote releases must hit the outbound queues before the
                // local one: releasing rank 0 returns its `barrier()`
                // caller, who may immediately drop the transport — the
                // goodbye Shutdown then retires the sender threads, and a
                // release enqueued after that lands in a disconnected
                // queue and is silently lost (the peer times out).
                for r in (0..self.size)
                    .filter(|&r| r != self.rank)
                    .chain([self.rank])
                {
                    if !self.gone_counted[r].load(Ordering::SeqCst) {
                        self.release_to(r, 0);
                    }
                }
            }
        }
    }

    /// Fails the barrier service (rank 0): pending waiters release with
    /// the dead rank, future entrants release on arrival.
    fn fail_barrier(&self, dead: usize) {
        let mut waiting: Vec<usize> = {
            let mut b = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
            b.failed = Some(dead);
            let w = (0..self.size).filter(|&r| b.waiting[r]).collect();
            for x in b.waiting.iter_mut() {
                *x = false;
            }
            w
        };
        // Self-release last, for the same reason as the all-in release:
        // waking the local waiter can tear the transport down before the
        // remote releases reach the outbound queues.
        waiting.sort_by_key(|&r| r == self.rank);
        for r in waiting {
            self.release_to(r, (dead + 1) as u64);
        }
    }

    fn note_seen(&self, rank: usize) {
        let mut g = self.last_seen.lock().unwrap_or_else(|e| e.into_inner());
        if rank < g.len() {
            g[rank] = Instant::now();
        }
    }
}

/// One rank's endpoint of the TCP mesh (see module docs).
pub struct TcpTransport {
    shared: Arc<TcpShared>,
    inbox: Receiver<crate::Message>,
    barrier_rx: Receiver<u64>,
    barrier_seq: u64,
}

impl TcpTransport {
    /// Binds `endpoint.listen` and wires the mesh endpoint.
    ///
    /// # Errors
    /// Socket errors binding the listener or spawning threads.
    pub fn connect(endpoint: &TcpEndpoint) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(endpoint.listen)?;
        Self::with_listener(listener, endpoint)
    }

    /// Wires the mesh endpoint over a pre-bound listener (how the
    /// [`TcpSupervisor`] avoids a rebind race with port-0 listeners).
    ///
    /// # Errors
    /// Socket errors configuring the listener.
    pub fn with_listener(
        listener: TcpListener,
        endpoint: &TcpEndpoint,
    ) -> io::Result<TcpTransport> {
        assert!(endpoint.rank < endpoint.size, "rank out of range");
        assert_eq!(
            endpoint.dial.len(),
            endpoint.size,
            "need one dial address per rank"
        );
        listener.set_nonblocking(true)?;
        let (inbox_tx, inbox) = unbounded();
        let (barrier_tx, barrier_rx) = unbounded();
        let size = endpoint.size;
        let mut outq: Vec<Option<Sender<Frame>>> = Vec::with_capacity(size);
        let mut rxs: Vec<Option<Receiver<Frame>>> = Vec::with_capacity(size);
        for d in 0..size {
            if d == endpoint.rank {
                outq.push(None);
                rxs.push(None);
            } else {
                let (tx, rx) = bounded(OUT_QUEUE_FRAMES);
                outq.push(Some(tx));
                rxs.push(Some(rx));
            }
        }
        let shared = Arc::new(TcpShared {
            rank: endpoint.rank,
            size,
            generation: endpoint.generation,
            detection: endpoint.detection,
            alive: AtomicBool::new(true),
            peers: PeerMap::new(size),
            finished: (0..size).map(|_| AtomicBool::new(false)).collect(),
            gone_counted: (0..size).map(|_| AtomicBool::new(false)).collect(),
            gone: AtomicUsize::new(0),
            inbox_tx,
            barrier_tx,
            barrier: Mutex::new(BarrierSvc {
                waiting: vec![false; size],
                entered: vec![0; size],
                failed: None,
            }),
            data_floor: (0..size).map(|_| Mutex::new(0)).collect(),
            outq,
            last_seen: Mutex::new(vec![Instant::now(); size]),
            inbound: Mutex::new(Vec::new()),
            hb_sent: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            partition_ns: AtomicU64::new(0),
            bytes_to: (0..size).map(|_| AtomicU64::new(0)).collect(),
            beacon_muted: AtomicBool::new(false),
            linger: OnceLock::new(),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(shared, listener));
        }
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || detector_loop(shared));
        }
        for (d, rx) in rxs.into_iter().enumerate() {
            if let Some(rx) = rx {
                let shared = Arc::clone(&shared);
                let addr = endpoint.dial[d];
                std::thread::spawn(move || sender_loop(shared, d, addr, rx));
            }
        }
        Ok(TcpTransport {
            shared,
            inbox,
            barrier_rx,
            barrier_seq: 0,
        })
    }

    /// The mesh state, for a process rank's control thread.
    pub(crate) fn mesh(&self) -> Arc<TcpShared> {
        Arc::clone(&self.shared)
    }

    fn closed_error(&self) -> CommError {
        match self.shared.peers.first() {
            Some(pf) => pf.into_error(),
            None => CommError::Shutdown,
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Orderly goodbye on every link: a peer that hears Shutdown
        // marks us finished instead of waiting for staleness. Sender
        // threads deliver these after we return (they hold the shared
        // state), then exit.
        for d in 0..self.shared.size {
            if d != self.shared.rank {
                self.shared.enqueue(
                    d,
                    Frame::control(
                        FrameKind::Shutdown,
                        self.shared.rank as u32,
                        self.shared.generation,
                    ),
                );
            }
        }
        self.shared.alive.store(false, Ordering::SeqCst);
        for stream in self
            .shared
            .inbound
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Every mesh thread holds the shared state, so a count of one
        // means each queued frame was written or given up on.
        if let Some(&linger) = self.shared.linger.get() {
            let end = Instant::now() + linger;
            while Arc::strong_count(&self.shared) > 1 && Instant::now() < end {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.shared.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn generation(&self) -> u64 {
        self.shared.generation
    }

    fn try_send(&mut self, dst: usize, msg: crate::Message) -> SendOutcome {
        if self.shared.peers.get(dst).is_some() || self.shared.is_finished(dst) {
            return SendOutcome::Closed(msg);
        }
        let Some(q) = self.shared.outq[dst].as_ref() else {
            return SendOutcome::Closed(msg);
        };
        match q.try_send(message_to_frame(dst, msg)) {
            Ok(()) => SendOutcome::Sent,
            Err(TrySendError::Full(f)) => SendOutcome::Full(frame_to_message(f)),
            Err(TrySendError::Disconnected(f)) => SendOutcome::Closed(frame_to_message(f)),
        }
    }

    fn try_recv(&mut self) -> Option<crate::Message> {
        self.inbox.try_recv().ok()
    }

    fn recv_wait(&mut self, slice: Duration) -> WaitOutcome {
        match self.inbox.recv_timeout(slice) {
            Ok(msg) => WaitOutcome::Message(msg),
            Err(RecvTimeoutError::Timeout) => {
                let all_gone = self.shared.gone.load(Ordering::SeqCst) >= self.shared.size - 1;
                if all_gone && self.inbox.is_empty() {
                    WaitOutcome::Closed
                } else {
                    WaitOutcome::Idle
                }
            }
            Err(RecvTimeoutError::Disconnected) => WaitOutcome::Closed,
        }
    }

    fn failed_peer(&self) -> Option<PeerFailure> {
        self.shared.peers.first()
    }

    fn peer_failure(&self, rank: usize) -> Option<PeerFailure> {
        self.shared.peers.get(rank)
    }

    fn announce_death(&self, rank: usize) {
        self.shared
            .declare_down(rank, PeerFailureKind::Crashed, Frame::PEER_DOWN_EXIT);
    }

    fn barrier(&mut self, timeout: Duration) -> Result<(), CommError> {
        self.barrier_seq += 1;
        // Drain releases a previously aborted barrier left behind (the
        // local failure detector can return before the release lands).
        while self.barrier_rx.try_recv().is_ok() {}
        if self.shared.rank == 0 {
            self.shared.barrier_enter(0, self.barrier_seq);
        } else {
            let mut enter = Frame::control(
                FrameKind::BarrierEnter,
                self.shared.rank as u32,
                self.shared.generation,
            );
            enter.seq = self.barrier_seq;
            if !self.shared.enqueue(0, enter) {
                return Err(self.closed_error());
            }
        }
        let end = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= end {
                return Err(CommError::Timeout);
            }
            let slice = Duration::from_millis(10).min(end - now);
            match self.barrier_rx.recv_timeout(slice) {
                Ok(0) => return Ok(()),
                Ok(failed_plus_one) => {
                    return Err(CommError::PeerDown {
                        rank: (failed_plus_one - 1) as usize,
                    })
                }
                Err(RecvTimeoutError::Timeout) => {
                    // The release frame itself can be lost to a
                    // partition; the local detector is the backstop.
                    if let Some(pf) = self.shared.peers.first() {
                        return Err(pf.into_error());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.closed_error()),
            }
        }
    }

    fn queue_depth(&self, dst: usize) -> usize {
        self.shared.outq[dst].as_ref().map_or(0, |q| q.len())
    }

    fn take_heartbeat_delta(&self) -> HeartbeatDelta {
        HeartbeatDelta {
            sent: self.shared.hb_sent.swap(0, Ordering::SeqCst),
            missed: self.shared.peers.hb_missed.swap(0, Ordering::SeqCst),
        }
    }

    fn take_link_delta(&self) -> LinkDelta {
        LinkDelta {
            reconnects: self.shared.reconnects.swap(0, Ordering::SeqCst),
            partition_seconds: self.shared.partition_ns.swap(0, Ordering::SeqCst) as f64 / 1e9,
            bytes_by_peer: self
                .shared
                .bytes_to
                .iter()
                .map(|b| b.swap(0, Ordering::Relaxed))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Mesh threads
// ---------------------------------------------------------------------

fn accept_loop(shared: Arc<TcpShared>, listener: TcpListener) {
    while shared.alive() {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || inbound_conn(shared, stream));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_SLICE),
            Err(_) => break,
        }
    }
}

/// Handshakes one accepted connection and runs its reader loop.
fn inbound_conn(shared: Arc<TcpShared>, mut stream: TcpStream) {
    let staleness = shared.detection.staleness_timeout;
    if stream.set_read_timeout(Some(staleness)).is_err()
        || stream.set_write_timeout(Some(staleness)).is_err()
    {
        return;
    }
    let Ok(Ok(hello)) = wire::read_frame(&mut stream) else {
        return;
    };
    let src = hello.src as usize;
    if hello.kind != FrameKind::Hello
        || !hello.is_for_generation(shared.generation)
        || src >= shared.size
        || src == shared.rank
    {
        // Wrong epoch (a straggler) or garbage: close without a
        // Welcome — the dialer's handshake fails typed.
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    if wire::write_frame(
        &mut stream,
        &Frame::control(FrameKind::Welcome, shared.rank as u32, shared.generation),
    )
    .is_err()
    {
        return;
    }
    if let Ok(clone) = stream.try_clone() {
        let mut g = shared.inbound.lock().unwrap_or_else(|e| e.into_inner());
        g.push(clone);
    }
    shared.note_seen(src);
    let mut reader = BufReader::new(stream);
    while shared.alive() {
        match wire::read_frame(&mut reader) {
            Ok(Ok(frame)) => {
                if !frame.is_for_generation(shared.generation) {
                    continue;
                }
                shared.note_seen(src);
                match frame.kind {
                    FrameKind::Data => {
                        let from = frame.src as usize;
                        if from < shared.size {
                            let mut floor = shared.data_floor[from]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner());
                            // Reconnect duplicate filter: Comm stamps
                            // strictly increasing per-source seqs, so a
                            // re-delivered frame sorts below the floor.
                            if frame.seq >= *floor {
                                *floor = frame.seq + 1;
                                let _ = shared.inbox_tx.send(frame_to_message(frame));
                            }
                        }
                    }
                    FrameKind::Heartbeat => {}
                    FrameKind::PeerDown => shared.note_remote_down(frame.src as usize, frame.tag),
                    FrameKind::BarrierEnter => {
                        if shared.rank == 0 {
                            shared.barrier_enter(src, frame.seq);
                        }
                    }
                    FrameKind::BarrierRelease => {
                        let _ = shared.barrier_tx.send(frame.tag);
                    }
                    FrameKind::Shutdown => {
                        shared.mark_finished(src);
                        return;
                    }
                    FrameKind::Hello | FrameKind::Welcome => {}
                }
            }
            // EOF, a read timeout (which may have consumed partial
            // bytes — the stream is no longer frame-aligned), or a
            // decode error: drop the connection. The dialer re-dials;
            // a real death is the detectors' call, not the reader's.
            _ => return,
        }
    }
}

/// Owns the outbound link to `dst`: dials (through the chaos proxy, in
/// chaos runs), drains the frame queue, heartbeats when idle, re-dials
/// on breakage with capped backoff, and escalates to a peer-down
/// declaration when continuous downtime exceeds the staleness budget.
fn sender_loop(shared: Arc<TcpShared>, dst: usize, addr: SocketAddr, q: Receiver<Frame>) {
    let det = shared.detection;
    let hb = Frame::control(FrameKind::Heartbeat, shared.rank as u32, shared.generation);
    let mut conn: Option<TcpStream> = None;
    let mut pending: Option<Frame> = None;
    let mut down_since: Option<Instant> = None;
    let mut attempt: u32 = 0;
    let mut ever_connected = false;
    loop {
        if shared.peers.get(dst).is_some() || shared.is_finished(dst) {
            break;
        }
        if pending.is_none() {
            match q.recv_timeout(det.heartbeat_interval) {
                Ok(f) => pending = Some(f),
                Err(RecvTimeoutError::Timeout) => {
                    if !shared.alive() {
                        break;
                    }
                    pending = Some(hb.clone());
                }
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if conn.is_none() {
            let since = *down_since.get_or_insert_with(Instant::now);
            if since.elapsed() > det.staleness_timeout {
                if ever_connected {
                    shared
                        .partition_ns
                        .fetch_add(since.elapsed().as_nanos() as u64, Ordering::SeqCst);
                }
                shared.declare_down(dst, PeerFailureKind::Down, Frame::PEER_DOWN_PARTITION);
                break;
            }
            match dial(&shared, addr) {
                Ok(stream) => {
                    if ever_connected {
                        shared.reconnects.fetch_add(1, Ordering::SeqCst);
                        shared
                            .partition_ns
                            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                    ever_connected = true;
                    down_since = None;
                    attempt = 0;
                    conn = Some(stream);
                }
                Err(_) => {
                    if !shared.alive() {
                        break;
                    }
                    std::thread::sleep(det.reconnect_backoff(attempt));
                    attempt = attempt.saturating_add(1);
                    // A queued heartbeat is pointless on a dead link.
                    if pending
                        .as_ref()
                        .is_some_and(|f| f.kind == FrameKind::Heartbeat)
                    {
                        pending = None;
                    }
                    continue;
                }
            }
        }
        if conn.as_ref().is_some_and(link_is_dead) {
            // The peer's FIN/RST arrived even though writes may still
            // be succeeding: a half-closed socket keeps ACKing into a
            // discarded buffer, so a severed link does not reliably
            // fail writes. Cycle the zombie connection now instead of
            // waiting for a write error that may never come.
            if let Some(c) = conn.take() {
                let _ = c.shutdown(Shutdown::Both);
            }
            if pending
                .as_ref()
                .is_some_and(|f| f.kind == FrameKind::Heartbeat)
            {
                pending = None;
            }
            continue;
        }
        let frame = pending.take().expect("pending frame present");
        match wire::write_frame(conn.as_mut().expect("connected"), &frame) {
            Ok(()) => {
                shared.bytes_to[dst].fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
                match frame.kind {
                    FrameKind::Heartbeat => {
                        shared.hb_sent.fetch_add(1, Ordering::SeqCst);
                    }
                    FrameKind::Shutdown => break, // goodbye delivered
                    _ => {}
                }
            }
            Err(_) => {
                // Connection broke (or the write timed out half-way):
                // drop it and re-dial; the frame is retransmitted on
                // the fresh connection (the receiver's seq floor drops
                // the duplicate if the old write did land).
                if let Some(c) = conn.take() {
                    let _ = c.shutdown(Shutdown::Both);
                }
                if frame.kind != FrameKind::Heartbeat {
                    pending = Some(frame);
                }
            }
        }
    }
}

/// Liveness probe for an outbound connection. After the Welcome
/// handshake the acceptor never writes again, so the dialer's read side
/// carries no data — it is a pure liveness channel: a nonblocking read
/// returns `WouldBlock` on a healthy idle link, and EOF or an error the
/// moment the peer's FIN/RST lands. This is the only reliable local
/// signal for a severed link, because writes into a half-closed socket
/// can keep succeeding indefinitely (the remote kernel ACKs into a
/// discarded buffer).
fn link_is_dead(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let dead = match io::Read::read(&mut (&*conn), &mut probe) {
        // EOF, or protocol-violating bytes after the handshake.
        Ok(_) => true,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => false,
        Err(_) => true,
    };
    dead || conn.set_nonblocking(false).is_err()
}

fn dial(shared: &Arc<TcpShared>, addr: SocketAddr) -> io::Result<TcpStream> {
    let det = shared.detection;
    let connect_timeout = det.staleness_timeout.min(Duration::from_secs(2));
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(det.staleness_timeout))?;
    stream.set_write_timeout(Some(det.staleness_timeout))?;
    wire::write_frame(
        &mut stream,
        &Frame::control(FrameKind::Hello, shared.rank as u32, shared.generation),
    )?;
    let welcome = wire::read_frame(&mut stream)?
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    if welcome.kind != FrameKind::Welcome || !welcome.is_for_generation(shared.generation) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "peer rejected handshake (wrong kind or generation)",
        ));
    }
    Ok(stream)
}

/// Watches inbound traffic per peer and declares staleness — the
/// second prong of the dual detector (the sender threads watch
/// outbound downtime), which is what catches asymmetric partitions.
fn detector_loop(shared: Arc<TcpShared>) {
    loop {
        std::thread::sleep(shared.detection.poll_period);
        if !shared.alive() {
            break;
        }
        let now = Instant::now();
        let stale: Vec<usize> = {
            let seen = shared.last_seen.lock().unwrap_or_else(|e| e.into_inner());
            (0..shared.size)
                .filter(|&r| {
                    r != shared.rank
                        && !shared.is_finished(r)
                        && shared.peers.get(r).is_none()
                        && now.duration_since(seen[r]) > shared.detection.staleness_timeout
                })
                .collect()
        };
        for r in stale {
            shared.declare_down(r, PeerFailureKind::Down, Frame::PEER_DOWN_HEARTBEAT);
        }
    }
}

// ---------------------------------------------------------------------
// TCP supervisor
// ---------------------------------------------------------------------

/// Launch options for a [`TcpSupervisor`].
#[derive(Clone, Debug, Default)]
pub struct TcpConfig {
    /// Comm-layer configuration for every rank; its `detection` field
    /// drives the mesh's failure detection and reconnect timing.
    pub cluster: ClusterConfig,
    /// Respawn budget and backoff across epochs.
    pub restart: RestartPolicy,
    /// Scripted network chaos, applied only to the generation named in
    /// the plan (a respawned epoch runs fault-free).
    pub chaos: Option<NetChaosPlan>,
}

/// What a supervised TCP-mesh run produced.
pub struct TcpRun<T> {
    /// Final epoch's per-rank outcomes.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Epochs launched (1 = fault-free).
    pub epochs: u64,
    /// Respawns performed.
    pub restarts: u32,
    /// Typed [`CommError::PeerDown`] aborts observed across all epochs
    /// — how partitions surface, since no thread actually dies.
    pub peer_down_aborts: u64,
    /// What the chaos proxy did, when one was installed.
    pub chaos_events: Option<NetChaosEvents>,
    /// The shared checkpoint store (inspectable after the run).
    pub store: Arc<CheckpointStore>,
}

impl<T> TcpRun<T> {
    /// True when every rank of the final epoch returned a value.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.is_ok())
    }
}

/// Runs ranks as threads over a loopback TCP mesh, respawning the set
/// into a bumped generation when an epoch fails — the TCP sibling of
/// the in-process [`Supervisor`](crate::Supervisor) and the process
/// [`ProcSupervisor`](super::proc::ProcSupervisor).
///
/// A network partition kills no thread, so this supervisor respawns on
/// any non-Ok outcome, typed comm errors included (see
/// [`supervisor`](crate::supervisor)).
pub struct TcpSupervisor {
    config: TcpConfig,
}

impl TcpSupervisor {
    /// A supervisor with the given options.
    pub fn new(config: TcpConfig) -> Self {
        TcpSupervisor { config }
    }

    /// Runs `ranks` rank bodies over a fresh loopback mesh per epoch.
    /// `f(comm, ctx)` is each rank's work; an `Err` return is the typed
    /// abort path (what a partition produces on every survivor).
    ///
    /// # Errors
    /// Socket errors standing up listeners or the chaos proxy — rank
    /// failures are *outcomes*, not errors.
    pub fn run<T, F>(&self, ranks: usize, f: F) -> io::Result<TcpRun<T>>
    where
        T: Send,
        F: Fn(&mut Comm, &RecoveryCtx) -> Result<T, CommError> + Sync,
    {
        assert!(ranks >= 1, "need at least one rank");
        let store = Arc::new(CheckpointStore::new(ranks));
        let cluster = &self.config.cluster;
        let mut peer_down_aborts = 0u64;
        let mut chaos_events: Option<NetChaosEvents> = None;
        let monitor = HealthMonitor::default();
        let (outcomes, restarts) = respawn_ladder(self.config.restart, &monitor, |restarts| {
            let generation = u64::from(restarts);
            let mut listeners = Vec::with_capacity(ranks);
            let mut real = Vec::with_capacity(ranks);
            for _ in 0..ranks {
                let l = TcpListener::bind("127.0.0.1:0")?;
                real.push(l.local_addr()?);
                listeners.push(l);
            }
            let chaos = match &self.config.chaos {
                Some(plan) if plan.generation == generation => {
                    Some(NetChaos::install(&real, plan)?)
                }
                _ => None,
            };
            let ctx = RecoveryCtx::resume(Arc::clone(&store), generation, restarts);
            // Each rank's mesh state, published once its thread has
            // dialled in, so the launcher can abandon a wedged rank.
            let meshes: Vec<OnceLock<Arc<TcpShared>>> =
                (0..ranks).map(|_| OnceLock::new()).collect();
            let builders: Vec<_> = listeners
                .into_iter()
                .enumerate()
                .map(|(r, listener)| {
                    let ep = TcpEndpoint {
                        rank: r,
                        size: ranks,
                        generation,
                        restarts,
                        listen: real[r],
                        dial: chaos.as_ref().map_or_else(|| real.clone(), |c| c.dial(r)),
                        detection: cluster.detection,
                    };
                    let mesh = &meshes[r];
                    move || {
                        let transport = TcpTransport::with_listener(listener, &ep)
                            .map_err(|e| format!("transport setup failed: {e}"))?;
                        let _ = mesh.set(Arc::clone(&transport.shared));
                        Ok(Comm::from_transport(Box::new(transport), cluster))
                    }
                })
                .collect();
            let abandon = |r: usize| {
                if let Some(shared) = meshes[r].get() {
                    shared.declare_down(r, PeerFailureKind::Crashed, Frame::PEER_DOWN_EXIT);
                }
            };
            let outcomes = launch_ranks(cluster.join_deadline, builders, &abandon, &|comm| {
                f(comm, &ctx)
            });
            if let Some(c) = &chaos {
                chaos_events = Some(c.events());
                c.shutdown();
            }
            peer_down_aborts += outcomes
                .iter()
                .filter(|o| matches!(o, RankOutcome::Err(CommError::PeerDown { .. })))
                .count() as u64;
            let failed = !outcomes.iter().all(RankOutcome::is_ok);
            Ok::<_, io::Error>((outcomes, failed))
        })?;
        Ok(TcpRun {
            outcomes,
            epochs: u64::from(restarts) + 1,
            restarts,
            peer_down_aborts,
            chaos_events,
            store,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Message;

    fn endpoint(rank: usize, size: usize, dial: Vec<SocketAddr>) -> TcpEndpoint {
        TcpEndpoint {
            rank,
            size,
            generation: 0,
            restarts: 0,
            listen: "127.0.0.1:0".parse().expect("literal addr"),
            dial,
            detection: FailureDetection {
                staleness_timeout: Duration::from_secs(5),
                ..FailureDetection::default()
            },
        }
    }

    #[test]
    fn two_rank_mesh_moves_messages_and_barriers() {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let dial = vec![
            l0.local_addr().expect("addr"),
            l1.local_addr().expect("addr"),
        ];
        let d0 = dial.clone();
        let d1 = dial.clone();
        let h0 = std::thread::spawn(move || {
            let mut t = TcpTransport::with_listener(l0, &endpoint(0, 2, d0)).expect("rank 0");
            let msg = Message {
                src: 0,
                tag: 7,
                seq: 0,
                checksum: 0,
                generation: 0,
                data: vec![soifft_num::c64::new(1.5, -2.5)],
            };
            assert!(matches!(t.try_send(1, msg), SendOutcome::Sent));
            t.barrier(Duration::from_secs(10)).expect("barrier");
        });
        let h1 = std::thread::spawn(move || {
            let mut t = TcpTransport::with_listener(l1, &endpoint(1, 2, d1)).expect("rank 1");
            let got = loop {
                match t.recv_wait(Duration::from_millis(20)) {
                    WaitOutcome::Message(m) => break m,
                    WaitOutcome::Idle => continue,
                    WaitOutcome::Closed => panic!("mesh closed before delivery"),
                }
            };
            assert_eq!(got.src, 0);
            assert_eq!(got.tag, 7);
            assert_eq!(got.data.len(), 1);
            t.barrier(Duration::from_secs(10)).expect("barrier");
        });
        h0.join().expect("rank 0 thread");
        h1.join().expect("rank 1 thread");
    }

    fn supervisor(cluster: ClusterConfig, restart: RestartPolicy) -> TcpSupervisor {
        TcpSupervisor::new(TcpConfig {
            cluster,
            restart,
            chaos: None,
        })
    }

    #[test]
    fn join_deadline_reports_wedged_rank() {
        let config = ClusterConfig {
            join_deadline: Duration::from_secs(1),
            ..ClusterConfig::default()
        };
        let run = supervisor(config, RestartPolicy::disabled())
            .run(3, |comm, _ctx| {
                if comm.rank() == 2 {
                    // Wedged *outside* the comm layer, where no failure
                    // detector can unblock it — only the join deadline sees it.
                    std::thread::sleep(Duration::from_secs(3));
                }
                Ok(comm.rank())
            })
            .expect("mesh launches");
        assert_eq!(
            run.outcomes[2],
            RankOutcome::Panicked("join timeout".to_string())
        );
        assert_eq!(run.outcomes[0], RankOutcome::Ok(0));
        assert_eq!(run.outcomes[1], RankOutcome::Ok(1));
    }

    #[test]
    fn plain_panic_announces_death_to_a_peer_in_barrier() {
        // A short receive deadline: a survivor that never hears of the
        // death gives up in 3 s instead of the default two minutes.
        let config = ClusterConfig {
            recv_deadline: Duration::from_secs(3),
            ..ClusterConfig::default()
        };
        let run = supervisor(config, RestartPolicy::disabled())
            .run(2, |comm, _ctx| {
                if comm.rank() == 1 {
                    panic!("boom on rank 1");
                }
                comm.try_barrier()
            })
            .expect("mesh launches");
        match &run.outcomes[1] {
            RankOutcome::Panicked(msg) => assert!(msg.contains("boom"), "{msg}"),
            other => panic!("expected Panicked, got {other:?}"),
        }
        // Rank 0 sat in the barrier; the dying rank's notice fails it.
        assert_eq!(
            run.outcomes[0],
            RankOutcome::Err(CommError::PeerDown { rank: 1 })
        );
    }

    #[test]
    fn backoff_doubles_from_the_first_restart_to_the_second() {
        let base = Duration::from_millis(400);
        let restart = RestartPolicy {
            max_restarts: 2,
            base_backoff: base,
        };
        let starts = Mutex::new(Vec::new());
        let run = supervisor(ClusterConfig::default(), restart)
            .run(2, |comm, ctx| {
                if comm.rank() == 0 {
                    starts.lock().expect("unpoisoned").push(Instant::now());
                }
                if ctx.epoch() < 2 {
                    Err(CommError::Timeout)
                } else {
                    Ok(())
                }
            })
            .expect("mesh launches");
        assert!(run.all_ok(), "the third epoch succeeds");
        assert_eq!(run.restarts, 2);
        let starts = starts.into_inner().expect("unpoisoned");
        // Both gaps hold one epoch's setup and teardown, which cancel:
        // what is left is backoff(2) - backoff(1) = base.
        let (first, second) = (starts[1] - starts[0], starts[2] - starts[1]);
        assert!(
            second >= first + base * 3 / 4,
            "gaps {first:?} then {second:?}: restart 2 must wait backoff(2)"
        );
    }

    #[test]
    fn stale_generation_dialer_is_rejected_without_welcome() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut ep = endpoint(0, 2, vec![addr, addr]);
        ep.generation = 3;
        let _t = TcpTransport::with_listener(listener, &ep).expect("transport");
        // A dialer from a dead epoch: Hello carries generation 2.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        wire::write_frame(&mut stream, &Frame::control(FrameKind::Hello, 1, 2))
            .expect("hello goes out");
        // No Welcome: the connection is closed without a reply.
        match wire::read_frame(&mut stream) {
            Err(_) => {}
            Ok(frame) => panic!("stale dialer must not be welcomed, got {frame:?}"),
        }
    }
}
