//! The multi-process backend: real OS processes, real `kill -9`.
//!
//! Topology is hub-and-spoke: a parent process (the
//! [`ProcSupervisor`]) binds a Unix-domain socket, spawns one child
//! process per rank, and routes frames between them. Children connect
//! with a [`FrameKind::Hello`] handshake carrying their rank id and
//! supervision generation; the hub validates the generation and answers
//! [`FrameKind::Welcome`] — a straggler from a dead epoch can never
//! join the new one.
//!
//! Data frames travel child → hub over the socket and hub → child
//! either over the same socket or (default) through a per-rank inbound
//! [`ShmRing`] — the same-host shared-memory data plane. Control frames
//! (peer-death notices, barrier releases) always use the socket.
//!
//! **Failure detection** is two-pronged: every child runs a heartbeat
//! thread beaconing [`FrameKind::Heartbeat`] at a configurable
//! interval, and the supervisor both polls child exit statuses and
//! watches heartbeat staleness. A peer lost either way is broadcast as
//! [`FrameKind::PeerDown`] (with the detection reason), which surfaces
//! on every survivor as [`CommError::PeerDown`] from any blocking
//! receive or barrier — no survivor ever hangs on a corpse.
//!
//! **Recovery** reuses the epoch/generation protocol of the in-process
//! [`Supervisor`](crate::Supervisor): when a rank dies the whole set is
//! respawned under `generation + 1` (bounded by a
//! [`RestartPolicy`]), and children resume from the disk-persisted
//! [`CheckpointStore`](crate::CheckpointStore) the supervisor points
//! them at via [`ENV_CKPT_DIR`].

use std::io::{self, BufReader};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};

use super::shm::ShmRing;
use super::wire::{self, frame_to_message, message_to_frame, Frame, FrameKind};
use super::{
    HeartbeatDelta, LinkDelta, PeerFailure, PeerFailureKind, PeerMap, SendOutcome, Transport,
    WaitOutcome,
};
use crate::resilience::{CommError, FailureDetection};
use crate::supervisor::{respawn_ladder, HealthMonitor, RestartPolicy};
use crate::Message;

/// Env var carrying the child's rank id.
pub const ENV_RANK: &str = "SOIFFT_PROC_RANK";
/// Env var carrying the cluster size.
pub const ENV_SIZE: &str = "SOIFFT_PROC_SIZE";
/// Env var carrying the supervision generation of this launch.
pub const ENV_GENERATION: &str = "SOIFFT_PROC_GENERATION";
/// Env var carrying the restart count so far (for recovery reporting).
pub const ENV_RESTARTS: &str = "SOIFFT_PROC_RESTARTS";
/// Env var carrying the hub's Unix-domain socket path.
pub const ENV_SOCKET: &str = "SOIFFT_PROC_SOCKET";
/// Env var carrying this rank's inbound shared-memory ring path (absent
/// when the data plane is socket-only).
pub const ENV_RING: &str = "SOIFFT_PROC_RING";
/// Env var carrying the heartbeat beacon interval in milliseconds.
pub const ENV_HB_INTERVAL_MS: &str = "SOIFFT_PROC_HB_INTERVAL_MS";
/// Env var carrying the heartbeat staleness timeout in milliseconds.
pub const ENV_HB_TIMEOUT_MS: &str = "SOIFFT_PROC_HB_TIMEOUT_MS";
/// Env var carrying the shared on-disk checkpoint directory.
pub const ENV_CKPT_DIR: &str = "SOIFFT_PROC_CKPT_DIR";

/// Exit code a child uses to report "a peer died and I aborted with a
/// typed [`CommError`]" — a casualty of someone else's death, which the
/// supervisor distinguishes from the death itself.
pub const CHILD_COMM_ABORT: i32 = 42;

/// Default capacity of each rank's inbound shared-memory ring.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

fn env_parse<T: std::str::FromStr>(key: &str) -> Option<T> {
    std::env::var(key).ok()?.parse().ok()
}

/// A child process's view of its launch parameters, decoded from the
/// environment the [`ProcSupervisor`] set.
#[derive(Clone, Debug)]
pub struct ProcEndpoint {
    /// This child's rank id.
    pub rank: usize,
    /// Number of ranks in the cluster.
    pub size: usize,
    /// Supervision generation of this incarnation.
    pub generation: u64,
    /// Restarts that preceded this incarnation.
    pub restarts: u32,
    /// The hub socket to connect to.
    pub socket: PathBuf,
    /// This rank's inbound shared-memory ring, when the data plane is
    /// shm.
    pub ring: Option<PathBuf>,
    /// The shared on-disk checkpoint directory, when recovery is on.
    pub checkpoint_dir: Option<PathBuf>,
    /// Heartbeat beacon interval.
    pub heartbeat_interval: Duration,
    /// Heartbeat staleness timeout (informational on the child side).
    pub heartbeat_timeout: Duration,
}

impl ProcEndpoint {
    /// Decodes the launch environment; `None` when not running as a
    /// supervised rank process (the standard "am I a child?" probe).
    pub fn from_env() -> Option<ProcEndpoint> {
        let rank = env_parse(ENV_RANK)?;
        let size = env_parse(ENV_SIZE)?;
        let socket = PathBuf::from(std::env::var(ENV_SOCKET).ok()?);
        Some(ProcEndpoint {
            rank,
            size,
            generation: env_parse(ENV_GENERATION).unwrap_or(0),
            restarts: env_parse(ENV_RESTARTS).unwrap_or(0),
            socket,
            ring: std::env::var(ENV_RING).ok().map(PathBuf::from),
            checkpoint_dir: std::env::var(ENV_CKPT_DIR).ok().map(PathBuf::from),
            heartbeat_interval: Duration::from_millis(env_parse(ENV_HB_INTERVAL_MS).unwrap_or(50)),
            heartbeat_timeout: Duration::from_millis(env_parse(ENV_HB_TIMEOUT_MS).unwrap_or(1000)),
        })
    }
}

/// The child-side endpoint of the multi-process transport (see module
/// docs): one hub socket (control + outbound data), an optional inbound
/// shm ring, a reader thread, and a heartbeat thread.
pub struct ProcTransport {
    rank: usize,
    size: usize,
    generation: u64,
    writer: Arc<Mutex<UnixStream>>,
    inbox: Receiver<Message>,
    barrier_rx: Receiver<u64>,
    barrier_seq: u64,
    peers: Arc<PeerMap>,
    alive: Arc<AtomicBool>,
    wedged: Arc<AtomicBool>,
    hb_sent: Arc<AtomicU64>,
    /// Wire bytes written toward each destination rank (hub routing
    /// means one physical link, but attribution stays per-peer).
    bytes_to: Vec<AtomicU64>,
    /// Kept to shut the socket down on drop, unblocking the reader.
    stream: UnixStream,
}

impl ProcTransport {
    /// Connects to the hub named by `endpoint`, performs the
    /// Hello/Welcome handshake, and spawns the reader/drainer/heartbeat
    /// threads.
    ///
    /// # Errors
    /// Any socket error; `InvalidData` when the hub speaks a different
    /// generation (a stale child must not join a respawned epoch).
    pub fn connect(endpoint: &ProcEndpoint) -> io::Result<ProcTransport> {
        let mut stream = UnixStream::connect(&endpoint.socket)?;
        wire::write_frame(
            &mut stream,
            &Frame::control(FrameKind::Hello, endpoint.rank as u32, endpoint.generation),
        )?;
        let welcome = wire::read_frame(&mut stream)?
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        if welcome.kind != FrameKind::Welcome || welcome.generation != endpoint.generation {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "hub rejected handshake (wrong kind or generation)",
            ));
        }
        let (inbox_tx, inbox) = unbounded::<Message>();
        let (barrier_tx, barrier_rx) = unbounded::<u64>();
        let peers = Arc::new(PeerMap::new(endpoint.size));
        let alive = Arc::new(AtomicBool::new(true));
        let wedged = Arc::new(AtomicBool::new(false));
        let hb_sent = Arc::new(AtomicU64::new(0));
        let bytes_to = (0..endpoint.size).map(|_| AtomicU64::new(0)).collect();
        let writer = Arc::new(Mutex::new(stream.try_clone()?));

        // Reader: control + (socket-plane) data frames from the hub.
        {
            let mut reader = BufReader::new(stream.try_clone()?);
            let inbox_tx = inbox_tx.clone();
            let peers = Arc::clone(&peers);
            let generation = endpoint.generation;
            std::thread::spawn(move || loop {
                match wire::read_frame(&mut reader) {
                    Ok(Ok(frame)) => {
                        if !frame.is_for_generation(generation) {
                            continue;
                        }
                        match frame.kind {
                            FrameKind::Data => {
                                let _ = inbox_tx.send(frame_to_message(frame));
                            }
                            FrameKind::PeerDown => {
                                if frame.tag == Frame::PEER_DOWN_HEARTBEAT {
                                    peers.hb_missed.fetch_add(1, Ordering::SeqCst);
                                }
                                peers.mark(frame.src as usize, PeerFailureKind::Down);
                            }
                            FrameKind::BarrierRelease => {
                                let _ = barrier_tx.send(frame.tag);
                            }
                            FrameKind::Shutdown => {
                                peers.closed.store(true, Ordering::SeqCst);
                                break;
                            }
                            _ => {}
                        }
                    }
                    // EOF, socket error, or an undecodable frame: the hub
                    // link is unusable either way.
                    _ => {
                        peers.closed.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            });
        }

        // Ring drainer: the shm data plane, reassembling frames from the
        // byte stream.
        if let Some(ring_path) = &endpoint.ring {
            let ring = ShmRing::open(ring_path)?;
            let inbox_tx = inbox_tx.clone();
            let peers = Arc::clone(&peers);
            let alive = Arc::clone(&alive);
            let generation = endpoint.generation;
            std::thread::spawn(move || {
                let mut acc: Vec<u8> = Vec::new();
                let mut buf = vec![0u8; 64 * 1024];
                while alive.load(Ordering::SeqCst) && !peers.closed.load(Ordering::SeqCst) {
                    let n = match ring.try_pop(&mut buf) {
                        Ok(n) => n,
                        Err(_) => break,
                    };
                    if n == 0 {
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    }
                    acc.extend_from_slice(&buf[..n]);
                    let mut at = 0usize;
                    loop {
                        match wire::decode_frame(&acc[at..]) {
                            Ok((frame, used)) => {
                                at += used;
                                if frame.is_for_generation(generation)
                                    && frame.kind == FrameKind::Data
                                {
                                    let _ = inbox_tx.send(frame_to_message(frame));
                                }
                            }
                            Err(wire::WireError::Truncated { .. }) => break,
                            // The ring is a private per-epoch file; any
                            // other decode error means it is torn beyond
                            // recovery.
                            Err(_) => {
                                peers.closed.store(true, Ordering::SeqCst);
                                return;
                            }
                        }
                    }
                    acc.drain(..at);
                }
            });
        }

        // Heartbeat beacon.
        {
            let writer = Arc::clone(&writer);
            let alive = Arc::clone(&alive);
            let wedged = Arc::clone(&wedged);
            let hb_sent = Arc::clone(&hb_sent);
            let interval = endpoint.heartbeat_interval;
            let frame = Frame::control(
                FrameKind::Heartbeat,
                endpoint.rank as u32,
                endpoint.generation,
            );
            std::thread::spawn(move || {
                while alive.load(Ordering::SeqCst) {
                    if !wedged.load(Ordering::SeqCst) {
                        let mut w = writer.lock().unwrap_or_else(|e| e.into_inner());
                        if wire::write_frame(&mut *w, &frame).is_err() {
                            break;
                        }
                        drop(w);
                        hb_sent.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::sleep(interval);
                }
            });
        }

        Ok(ProcTransport {
            rank: endpoint.rank,
            size: endpoint.size,
            generation: endpoint.generation,
            writer,
            inbox,
            barrier_rx,
            barrier_seq: 0,
            peers,
            alive,
            wedged,
            hb_sent,
            bytes_to,
            stream,
        })
    }

    /// Chaos hook: silences this rank's heartbeat thread, simulating a
    /// process that is alive but wedged (the failure mode only the
    /// hub's heartbeat-staleness detector can see).
    pub fn wedge_heartbeats(&self) {
        self.wedged.store(true, Ordering::SeqCst);
    }

    fn closed_error(&self) -> CommError {
        match self.peers.first() {
            Some(pf) => pf.into_error(),
            None => CommError::Shutdown,
        }
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        self.alive.store(false, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

impl Transport for ProcTransport {
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
        let frame = message_to_frame(dst, msg);
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        match wire::write_frame(&mut *w, &frame) {
            Ok(()) => {
                self.bytes_to[dst].fetch_add(frame.encoded_len() as u64, Ordering::Relaxed);
                SendOutcome::Sent
            }
            Err(_) => SendOutcome::Closed(frame_to_message(frame)),
        }
    }

    fn try_recv(&mut self) -> Option<Message> {
        self.inbox.try_recv().ok()
    }

    fn recv_wait(&mut self, slice: Duration) -> WaitOutcome {
        match self.inbox.recv_timeout(slice) {
            Ok(msg) => WaitOutcome::Message(msg),
            Err(RecvTimeoutError::Timeout) => {
                if self.peers.closed.load(Ordering::SeqCst) && self.inbox.is_empty() {
                    WaitOutcome::Closed
                } else {
                    WaitOutcome::Idle
                }
            }
            Err(RecvTimeoutError::Disconnected) => WaitOutcome::Closed,
        }
    }

    fn failed_peer(&self) -> Option<PeerFailure> {
        self.peers.first()
    }

    fn peer_failure(&self, rank: usize) -> Option<PeerFailure> {
        self.peers.get(rank)
    }

    fn announce_death(&self, rank: usize) {
        self.peers.mark(rank, PeerFailureKind::Crashed);
        let frame = Frame::control(FrameKind::Shutdown, rank as u32, self.generation);
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let _ = wire::write_frame(&mut *w, &frame);
    }

    fn barrier(&mut self, timeout: Duration) -> Result<(), CommError> {
        self.barrier_seq += 1;
        let mut enter = Frame::control(FrameKind::BarrierEnter, self.rank as u32, self.generation);
        enter.seq = self.barrier_seq;
        {
            let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            if wire::write_frame(&mut *w, &enter).is_err() {
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
                    if self.peers.closed.load(Ordering::SeqCst) {
                        return Err(self.closed_error());
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return Err(self.closed_error()),
            }
        }
    }

    fn take_heartbeat_delta(&self) -> HeartbeatDelta {
        HeartbeatDelta {
            sent: self.hb_sent.swap(0, Ordering::SeqCst),
            missed: self.peers.hb_missed.swap(0, Ordering::SeqCst),
        }
    }

    fn take_link_delta(&self) -> LinkDelta {
        LinkDelta {
            reconnects: 0,
            partition_seconds: 0.0,
            bytes_by_peer: self
                .bytes_to
                .iter()
                .map(|b| b.swap(0, Ordering::Relaxed))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// Hub (parent side)
// ---------------------------------------------------------------------

struct BarrierSvc {
    waiting: Vec<bool>,
    /// Once set, every pending and future barrier entry is released with
    /// this failed rank.
    failed: Option<usize>,
}

struct HubShared {
    ranks: usize,
    generation: u64,
    alive: AtomicBool,
    /// Writer halves of the per-rank connections (`None` until the rank
    /// connects / after it disconnects).
    conns: Mutex<Vec<Option<UnixStream>>>,
    /// Hub-side producer endpoints of the per-rank inbound rings
    /// (present when the shm data plane is on).
    rings: Vec<Option<Mutex<ShmRing>>>,
    last_seen: Mutex<Vec<Instant>>,
    /// Declared-dead ranks with the broadcast reason.
    down: Mutex<Vec<Option<u64>>>,
    /// Ranks whose connection reached EOF (the process exited — cleanly
    /// or not). Distinct from `conns` being `None`, which also covers
    /// "not connected yet": a departed rank's ring has no consumer, so
    /// routing to it must drop rather than wait for space.
    departed: Vec<AtomicBool>,
    barrier: Mutex<BarrierSvc>,
}

impl HubShared {
    fn send_to(&self, rank: usize, frame: &Frame) {
        let mut g = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = g.get_mut(rank).and_then(|s| s.as_mut()) {
            if wire::write_frame(stream, frame).is_err() {
                g[rank] = None;
            }
        }
    }

    fn is_down(&self, rank: usize) -> bool {
        self.down.lock().unwrap_or_else(|e| e.into_inner())[rank].is_some()
    }

    /// True once `rank` can no longer receive: declared dead, or its
    /// process exited (socket EOF) and nothing drains its ring.
    fn unreachable(&self, rank: usize) -> bool {
        self.is_down(rank) || self.departed[rank].load(Ordering::SeqCst)
    }

    /// Routes one data frame toward its destination rank.
    fn route(&self, frame: Frame) {
        let dst = frame.dst as usize;
        if dst >= self.ranks || self.unreachable(dst) {
            return;
        }
        if let Some(ring) = self.rings.get(dst).and_then(|r| r.as_ref()) {
            let bytes = wire::encode_frame(&frame);
            let deadline = Instant::now() + Duration::from_secs(10);
            let ring = ring.lock().unwrap_or_else(|e| e.into_inner());
            // A consumer that died stops draining its ring. Push in short
            // slices and re-check liveness between them: blocking here
            // would also stall this reader thread's heartbeat bookkeeping
            // for its own (live) child, turning one real death into a
            // false staleness on a survivor. A partially pushed frame is
            // fine — rings are per-generation and the dead consumer's
            // ring is discarded at respawn.
            let mut done = 0;
            while done < bytes.len() {
                let slice = (Instant::now() + Duration::from_millis(50)).min(deadline);
                match ring.push(&bytes[done..], slice) {
                    Ok(n) => done += n,
                    Err(_) => return,
                }
                if done < bytes.len() && (self.unreachable(dst) || Instant::now() >= deadline) {
                    return;
                }
            }
        } else {
            self.send_to(dst, &frame);
        }
    }

    fn barrier_enter(&self, rank: usize) {
        let release_failed = {
            let b = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
            b.failed
        };
        if let Some(dead) = release_failed {
            let mut f = Frame::control(FrameKind::BarrierRelease, 0, self.generation);
            f.tag = (dead + 1) as u64;
            self.send_to(rank, &f);
            return;
        }
        let released = {
            let mut b = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
            if rank < b.waiting.len() {
                b.waiting[rank] = true;
            }
            let down = self.down.lock().unwrap_or_else(|e| e.into_inner());
            let all_in = (0..self.ranks).all(|r| b.waiting[r] || down[r].is_some());
            if all_in {
                for w in b.waiting.iter_mut() {
                    *w = false;
                }
            }
            all_in
        };
        if released {
            let f = Frame::control(FrameKind::BarrierRelease, 0, self.generation);
            for r in 0..self.ranks {
                if !self.is_down(r) {
                    self.send_to(r, &f);
                }
            }
        }
    }

    /// Declares `rank` dead for `reason`, broadcasting
    /// [`FrameKind::PeerDown`] to the survivors and failing any pending
    /// (and all future) barrier entries.
    fn declare_down(&self, rank: usize, reason: u64) {
        {
            let mut g = self.down.lock().unwrap_or_else(|e| e.into_inner());
            if g[rank].is_some() {
                return;
            }
            g[rank] = Some(reason);
        }
        let mut notice = Frame::control(FrameKind::PeerDown, rank as u32, self.generation);
        notice.tag = reason;
        for r in 0..self.ranks {
            if r != rank && !self.is_down(r) {
                self.send_to(r, &notice);
            }
        }
        // Release every rank already waiting in the barrier with the
        // failure; future entrants are released on arrival (failed set).
        let waiting: Vec<usize> = {
            let mut b = self.barrier.lock().unwrap_or_else(|e| e.into_inner());
            b.failed = Some(rank);
            let w = (0..self.ranks).filter(|&r| b.waiting[r]).collect();
            for x in b.waiting.iter_mut() {
                *x = false;
            }
            w
        };
        let mut release = Frame::control(FrameKind::BarrierRelease, 0, self.generation);
        release.tag = (rank + 1) as u64;
        for r in waiting {
            self.send_to(r, &release);
        }
    }

    /// Ranks whose last frame is older than `timeout` (connected, not
    /// already declared dead).
    fn stale_ranks(&self, timeout: Duration) -> Vec<usize> {
        let now = Instant::now();
        let seen = self.last_seen.lock().unwrap_or_else(|e| e.into_inner());
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        let down = self.down.lock().unwrap_or_else(|e| e.into_inner());
        (0..self.ranks)
            .filter(|&r| {
                conns[r].is_some() && down[r].is_none() && now.duration_since(seen[r]) > timeout
            })
            .collect()
    }
}

/// The parent-side frame router for one epoch.
struct Hub {
    shared: Arc<HubShared>,
    socket_path: PathBuf,
}

impl Hub {
    /// Binds the epoch socket, creates the per-rank rings, and spawns
    /// the accept loop.
    fn start(
        socket_path: &Path,
        ranks: usize,
        generation: u64,
        ring_capacity: Option<usize>,
        ring_dir: &Path,
    ) -> io::Result<(Hub, Vec<Option<PathBuf>>)> {
        let listener = UnixListener::bind(socket_path)?;
        let mut rings = Vec::with_capacity(ranks);
        let mut ring_paths = Vec::with_capacity(ranks);
        for r in 0..ranks {
            match ring_capacity {
                Some(cap) => {
                    let path = ring_dir.join(format!("ring-{r}.shm"));
                    rings.push(Some(Mutex::new(ShmRing::create(&path, cap)?)));
                    ring_paths.push(Some(path));
                }
                None => {
                    rings.push(None);
                    ring_paths.push(None);
                }
            }
        }
        let shared = Arc::new(HubShared {
            ranks,
            generation,
            alive: AtomicBool::new(true),
            conns: Mutex::new((0..ranks).map(|_| None).collect()),
            rings,
            last_seen: Mutex::new(vec![Instant::now(); ranks]),
            down: Mutex::new(vec![None; ranks]),
            departed: (0..ranks).map(|_| AtomicBool::new(false)).collect(),
            barrier: Mutex::new(BarrierSvc {
                waiting: vec![false; ranks],
                failed: None,
            }),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut joined = 0usize;
                while joined < shared.ranks && shared.alive.load(Ordering::SeqCst) {
                    let Ok((stream, _)) = listener.accept() else {
                        break;
                    };
                    if !shared.alive.load(Ordering::SeqCst) {
                        break;
                    }
                    if Self::admit(&shared, stream).is_some() {
                        joined += 1;
                    }
                }
            });
        }
        Ok((
            Hub {
                shared,
                socket_path: socket_path.to_path_buf(),
            },
            ring_paths,
        ))
    }

    /// Handshakes one incoming connection; returns the admitted rank.
    fn admit(shared: &Arc<HubShared>, mut stream: UnixStream) -> Option<usize> {
        let hello = wire::read_frame(&mut stream).ok()?.ok()?;
        if hello.kind != FrameKind::Hello || hello.generation != shared.generation {
            // Wrong epoch (a straggler) or garbage: drop the connection
            // without a Welcome — the peer's handshake fails typed.
            return None;
        }
        let rank = hello.src as usize;
        if rank >= shared.ranks {
            return None;
        }
        let mut writer = stream.try_clone().ok()?;
        wire::write_frame(
            &mut writer,
            &Frame::control(FrameKind::Welcome, rank as u32, shared.generation),
        )
        .ok()?;
        {
            let mut g = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            g[rank] = Some(writer);
        }
        {
            let mut g = shared.last_seen.lock().unwrap_or_else(|e| e.into_inner());
            g[rank] = Instant::now();
        }
        let shared = Arc::clone(shared);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(stream);
            // EOF / decode error ends the loop: clean for a finished
            // rank, and for a killed one the exit-status poll (or
            // heartbeat staleness) makes the death call — the reader
            // just stops routing.
            while let Ok(Ok(frame)) = wire::read_frame(&mut reader) {
                if !shared.alive.load(Ordering::SeqCst) {
                    break;
                }
                {
                    let mut g = shared.last_seen.lock().unwrap_or_else(|e| e.into_inner());
                    g[rank] = Instant::now();
                }
                match frame.kind {
                    FrameKind::Heartbeat => {}
                    FrameKind::Data => shared.route(frame),
                    FrameKind::BarrierEnter => shared.barrier_enter(rank),
                    FrameKind::Shutdown => break,
                    _ => {}
                }
            }
            shared.departed[rank].store(true, Ordering::SeqCst);
            let mut g = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
            g[rank] = None;
        });
        Some(rank)
    }

    fn shutdown(&self) {
        self.shared.alive.store(false, Ordering::SeqCst);
        // Unblock a pending accept.
        let _ = UnixStream::connect(&self.socket_path);
        let mut g = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for slot in g.iter_mut() {
            if let Some(stream) = slot.take() {
                let _ = wire::write_frame(
                    &mut &stream,
                    &Frame::control(FrameKind::Shutdown, 0, self.shared.generation),
                );
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        let _ = std::fs::remove_file(&self.socket_path);
    }
}

// ---------------------------------------------------------------------
// Process supervisor
// ---------------------------------------------------------------------

/// When the chaos kill fires.
#[derive(Clone, Debug)]
pub enum KillWhen {
    /// As soon as the named file exists — e.g. a checkpoint image, so
    /// the kill lands *mid-phase* right after a specific save.
    FileExists(PathBuf),
    /// A fixed delay after the epoch's children were spawned.
    After(Duration),
}

/// A scripted `kill -9` for chaos runs: SIGKILL `rank` during
/// `generation` when the trigger fires.
#[derive(Clone, Debug)]
pub struct KillPlan {
    /// The rank to kill.
    pub rank: usize,
    /// The generation during which to kill it (so a respawned epoch is
    /// left alone and the run can prove recovery).
    pub generation: u64,
    /// The trigger.
    pub when: KillWhen,
}

/// Launch options for a [`ProcSupervisor`].
#[derive(Clone, Debug)]
pub struct ProcConfig {
    /// Failure-detection timing: exit-status poll period, heartbeat
    /// beacon interval, and the staleness threshold after which a
    /// silent child is declared down.
    pub detection: FailureDetection,
    /// Capacity of each rank's inbound shm ring; `None` routes data
    /// over the socket instead.
    pub ring_capacity: Option<usize>,
    /// Respawn budget and backoff across epochs.
    pub restart: RestartPolicy,
    /// Wall-clock ceiling per epoch before every child is killed and
    /// the epoch declared failed.
    pub epoch_deadline: Duration,
    /// Scripted chaos kill, if any.
    pub kill: Option<KillPlan>,
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            detection: FailureDetection::default(),
            ring_capacity: Some(DEFAULT_RING_CAPACITY),
            restart: RestartPolicy::default(),
            epoch_deadline: Duration::from_secs(600),
            kill: None,
        }
    }
}

/// A rank child that was never reaped when its epoch ended — the typed
/// error [`ProcSupervisor::run`] returns (wrapped in `io::Error`)
/// instead of panicking mid-teardown. Callers can recover it with
/// `err.get_ref().and_then(|e| e.downcast_ref::<ReapError>())`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReapError {
    /// The rank whose exit status is missing.
    pub rank: usize,
    /// The epoch in which it was lost.
    pub generation: u64,
}

impl std::fmt::Display for ReapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rank {} of generation {} was never reaped (no exit status at epoch end)",
            self.rank, self.generation
        )
    }
}

impl std::error::Error for ReapError {}

/// One child's final status in the last epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProcOutcome {
    /// Exited 0: the rank completed its work.
    Ok,
    /// Exited [`CHILD_COMM_ABORT`]: aborted with a typed [`CommError`]
    /// after a peer died (a casualty, not the root cause).
    CommAborted,
    /// Exited with any other code (the code).
    Exited(i32),
    /// Terminated by a signal (`kill -9`, or the supervisor reaping a
    /// wedged child).
    Killed,
}

impl ProcOutcome {
    fn from_status(st: ExitStatus) -> ProcOutcome {
        match st.code() {
            Some(0) => ProcOutcome::Ok,
            Some(c) if c == CHILD_COMM_ABORT => ProcOutcome::CommAborted,
            Some(c) => ProcOutcome::Exited(c),
            None => ProcOutcome::Killed,
        }
    }
}

/// What a supervised multi-process run produced.
#[derive(Clone, Debug)]
pub struct ProcRun {
    /// Final epoch's per-rank outcomes.
    pub outcomes: Vec<ProcOutcome>,
    /// Epochs launched (1 = fault-free).
    pub epochs: u64,
    /// Respawns performed.
    pub restarts: u32,
    /// Rank deaths observed across all epochs (root causes, not
    /// comm-abort casualties).
    pub deaths: u64,
    /// Deaths detected by heartbeat staleness specifically.
    pub heartbeat_deaths: u64,
    /// Scripted kills actually delivered.
    pub injected_kills: u32,
}

impl ProcRun {
    /// True when every rank of the final epoch completed.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(|o| *o == ProcOutcome::Ok)
    }
}

/// Spawns ranks as child OS processes, detects their deaths (exit or
/// heartbeat staleness), and respawns the whole set into a new
/// generation — the process-level sibling of the in-process
/// [`Supervisor`](crate::Supervisor).
pub struct ProcSupervisor {
    config: ProcConfig,
    workdir: PathBuf,
}

impl ProcSupervisor {
    /// A supervisor with default [`ProcConfig`] rooted at `workdir`
    /// (sockets, rings, and the shared checkpoint directory live under
    /// it).
    pub fn new(workdir: impl Into<PathBuf>) -> Self {
        ProcSupervisor {
            config: ProcConfig::default(),
            workdir: workdir.into(),
        }
    }

    /// A supervisor with explicit options.
    pub fn with_config(workdir: impl Into<PathBuf>, config: ProcConfig) -> Self {
        ProcSupervisor {
            config,
            workdir: workdir.into(),
        }
    }

    /// The on-disk checkpoint directory children are pointed at via
    /// [`ENV_CKPT_DIR`].
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.workdir.join("ckpt")
    }

    /// Runs `ranks` child processes to completion, respawning the set
    /// (bounded by the restart policy) whenever a rank dies.
    /// `make_cmd(rank, generation)` builds each child's base command;
    /// the supervisor adds the [`ENV_RANK`]-family environment before
    /// spawning.
    ///
    /// # Errors
    /// Socket/spawn I/O errors only — rank deaths are *outcomes*, not
    /// errors.
    pub fn run<F>(&self, ranks: usize, mut make_cmd: F) -> io::Result<ProcRun>
    where
        F: FnMut(usize, u64) -> Command,
    {
        assert!(ranks >= 1, "need at least one rank");
        std::fs::create_dir_all(self.checkpoint_dir())?;
        let mut deaths = 0u64;
        let mut heartbeat_deaths = 0u64;
        let mut injected_kills = 0u32;
        let det = &self.config.detection;
        let hb_interval_ms = det.heartbeat_interval.as_millis().to_string();
        let hb_timeout_ms = det.staleness_timeout.as_millis().to_string();
        let monitor = HealthMonitor::default();
        let (outcomes, restarts) = respawn_ladder(self.config.restart, &monitor, |restarts| {
            let generation = u64::from(restarts);
            let epoch_dir = self.workdir.join(format!("epoch-{generation}"));
            std::fs::create_dir_all(&epoch_dir)?;
            let socket = epoch_dir.join("hub.sock");
            let (hub, ring_paths) = Hub::start(
                &socket,
                ranks,
                generation,
                self.config.ring_capacity,
                &epoch_dir,
            )?;
            let spawn_time = Instant::now();
            let mut children: Vec<Child> = Vec::with_capacity(ranks);
            for (r, ring_path) in ring_paths.iter().enumerate() {
                let mut cmd = make_cmd(r, generation);
                cmd.env(ENV_RANK, r.to_string())
                    .env(ENV_SIZE, ranks.to_string())
                    .env(ENV_GENERATION, generation.to_string())
                    .env(ENV_RESTARTS, restarts.to_string())
                    .env(ENV_SOCKET, &socket)
                    .env(ENV_HB_INTERVAL_MS, &hb_interval_ms)
                    .env(ENV_HB_TIMEOUT_MS, &hb_timeout_ms)
                    .env(ENV_CKPT_DIR, self.checkpoint_dir());
                if let Some(path) = ring_path {
                    cmd.env(ENV_RING, path);
                }
                children.push(cmd.spawn()?);
            }
            let mut kill_armed = self
                .config
                .kill
                .clone()
                .filter(|k| k.generation == generation && k.rank < ranks);
            let mut statuses: Vec<Option<ExitStatus>> = vec![None; ranks];
            let deadline = spawn_time + self.config.epoch_deadline;
            loop {
                let mut pending = false;
                for (r, child) in children.iter_mut().enumerate() {
                    if statuses[r].is_none() {
                        match child.try_wait()? {
                            Some(st) => {
                                statuses[r] = Some(st);
                                match ProcOutcome::from_status(st) {
                                    ProcOutcome::Ok | ProcOutcome::CommAborted => {}
                                    // Skip ranks already declared down (e.g.
                                    // by staleness, which then killed them)
                                    // so each death is counted once.
                                    _ if hub.shared.is_down(r) => {}
                                    _ => {
                                        deaths += 1;
                                        hub.shared.declare_down(r, Frame::PEER_DOWN_EXIT);
                                    }
                                }
                            }
                            None => pending = true,
                        }
                    }
                }
                if !pending {
                    break;
                }
                if let Some(plan) = &kill_armed {
                    let fire = match &plan.when {
                        KillWhen::FileExists(path) => path.exists(),
                        KillWhen::After(d) => spawn_time.elapsed() >= *d,
                    };
                    if fire {
                        if statuses[plan.rank].is_none() {
                            let _ = children[plan.rank].kill(); // SIGKILL
                            injected_kills += 1;
                        }
                        kill_armed = None;
                    }
                }
                for r in hub
                    .shared
                    .stale_ranks(self.config.detection.staleness_timeout)
                {
                    if statuses[r].is_none() {
                        heartbeat_deaths += 1;
                        deaths += 1;
                        hub.shared.declare_down(r, Frame::PEER_DOWN_HEARTBEAT);
                        // A wedged process never exits on its own; reap it
                        // so the epoch can end and the respawn proceed.
                        let _ = children[r].kill();
                    }
                }
                if Instant::now() >= deadline {
                    for (r, child) in children.iter_mut().enumerate() {
                        if statuses[r].is_none() {
                            let _ = child.kill();
                        }
                    }
                }
                std::thread::sleep(self.config.detection.poll_period);
            }
            hub.shutdown();
            let mut outcomes: Vec<ProcOutcome> = Vec::with_capacity(ranks);
            for (rank, st) in statuses.into_iter().enumerate() {
                // Every exit from the wait loop has all statuses filled;
                // if that invariant ever breaks, surface a typed reap
                // error instead of panicking mid-teardown with children
                // possibly still holding the sockets.
                let st = st.ok_or_else(|| io::Error::other(ReapError { rank, generation }))?;
                outcomes.push(ProcOutcome::from_status(st));
            }
            let failed = outcomes.iter().any(|o| *o != ProcOutcome::Ok);
            Ok::<_, io::Error>((outcomes, failed))
        })?;
        Ok(ProcRun {
            outcomes,
            epochs: u64::from(restarts) + 1,
            restarts,
            deaths,
            heartbeat_deaths,
            injected_kills,
        })
    }
}
