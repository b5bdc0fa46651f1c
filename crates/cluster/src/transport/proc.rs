//! The multi-process backend: real OS processes, real `kill -9`.
//!
//! Each rank is a child OS process and a [`TcpTransport`] endpoint of
//! the same loopback mesh a [`TcpSupervisor`](super::tcp::TcpSupervisor)
//! thread rank joins: data, barriers, reconnects and the in-mesh failure
//! detectors are the mesh's. The parent process (the [`ProcSupervisor`])
//! spawns the children and keeps one Unix-domain *control link* per rank
//! for three jobs:
//!
//! * **Rendezvous.** A child binds its mesh listener on `127.0.0.1:0`,
//!   connects to the epoch's control socket and sends
//!   [`FrameKind::Hello`] with its rank, generation and port (in `tag`).
//!   Once every rank has joined, the supervisor answers each with
//!   [`FrameKind::Welcome`], whose payload lists every rank's port. A
//!   Hello from another generation gets no Welcome and takes no slot, so
//!   a straggler from a dead epoch can never join the new one; the mesh
//!   handshake fences it a second time.
//! * **Liveness.** A control thread in every child beacons
//!   [`FrameKind::Heartbeat`]. The supervisor polls exit statuses and
//!   watches beacon staleness, SIGKILLing a silent (wedged) child.
//! * **Death notices.** A rank lost either way is announced to the
//!   survivors as [`FrameKind::PeerDown`] (with the detection reason).
//!   Their control threads hand it to the mesh, so every blocked receive
//!   or barrier surfaces [`CommError::PeerDown`](crate::CommError::PeerDown)
//!   at once instead of waiting out the mesh's own staleness budget.
//!
//! **Recovery** reuses the epoch/generation protocol of the in-process
//! [`Supervisor`](crate::Supervisor): when a rank dies the whole set is
//! respawned under `generation + 1` (bounded by a
//! [`RestartPolicy`]), and children resume from the disk-persisted
//! [`CheckpointStore`](crate::CheckpointStore) the supervisor points
//! them at via [`ENV_CKPT_DIR`].

use std::io::{self, BufReader};
use std::net::{Ipv4Addr, SocketAddr, TcpListener};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use soifft_num::c64;

use super::tcp::{TcpEndpoint, TcpShared, TcpTransport};
use super::wire::{self, Frame, FrameKind};
use crate::resilience::FailureDetection;
use crate::supervisor::{respawn_ladder, HealthMonitor, RestartPolicy};

/// Env var carrying the child's rank id.
pub const ENV_RANK: &str = "SOIFFT_PROC_RANK";
/// Env var carrying the cluster size.
pub const ENV_SIZE: &str = "SOIFFT_PROC_SIZE";
/// Env var carrying the supervision generation of this launch.
pub const ENV_GENERATION: &str = "SOIFFT_PROC_GENERATION";
/// Env var carrying the restart count so far (for recovery reporting).
pub const ENV_RESTARTS: &str = "SOIFFT_PROC_RESTARTS";
/// Env var carrying the epoch's control socket path.
pub const ENV_SOCKET: &str = "SOIFFT_PROC_SOCKET";
/// Env var carrying the heartbeat beacon interval in milliseconds.
pub const ENV_HB_INTERVAL_MS: &str = "SOIFFT_PROC_HB_INTERVAL_MS";
/// Env var carrying the heartbeat staleness timeout in milliseconds.
pub const ENV_HB_TIMEOUT_MS: &str = "SOIFFT_PROC_HB_TIMEOUT_MS";
/// Env var carrying the shared on-disk checkpoint directory.
pub const ENV_CKPT_DIR: &str = "SOIFFT_PROC_CKPT_DIR";

/// Exit code a child uses to report "a peer died and I aborted with a
/// typed [`CommError`](crate::CommError)" — a casualty of someone
/// else's death, which the supervisor distinguishes from the death
/// itself.
pub const CHILD_COMM_ABORT: i32 = 42;

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
    /// The epoch's control socket to connect to.
    pub socket: PathBuf,
    /// The shared on-disk checkpoint directory, when recovery is on.
    pub checkpoint_dir: Option<PathBuf>,
    /// Heartbeat interval of the control beacon and of the mesh links.
    pub heartbeat_interval: Duration,
    /// The mesh's staleness budget.
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
            checkpoint_dir: std::env::var(ENV_CKPT_DIR).ok().map(PathBuf::from),
            heartbeat_interval: Duration::from_millis(env_parse(ENV_HB_INTERVAL_MS).unwrap_or(50)),
            heartbeat_timeout: Duration::from_millis(env_parse(ENV_HB_TIMEOUT_MS).unwrap_or(1000)),
        })
    }

    /// Joins the epoch: binds this rank's mesh listener, rendezvous with
    /// every rank over the control socket, wires the mesh endpoint, and
    /// starts the control thread (module docs).
    ///
    /// # Errors
    /// Socket errors; `ConnectionAborted` when the supervisor closes the
    /// link without a Welcome (a wrong generation, or a peer died before
    /// every rank joined); `InvalidData` for a malformed Welcome.
    pub fn connect(&self) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
        let listen = listener.local_addr()?;
        let mut link = UnixStream::connect(&self.socket)?;
        let mut hello = Frame::control(FrameKind::Hello, self.rank as u32, self.generation);
        hello.tag = u64::from(listen.port());
        wire::write_frame(&mut link, &hello)?;
        let welcome = match wire::read_frame(&mut link) {
            Ok(frame) => frame.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "supervisor closed the control link without a Welcome",
                ))
            }
            Err(e) => return Err(e),
        };
        // The ports travel as exact integers in the payload's real parts.
        let ports: Option<Vec<u16>> = (welcome.payload.iter())
            .map(|z| Some(z.re as u16).filter(|&p| f64::from(p) == z.re && z.im == 0.0))
            .collect();
        let Some(ports) = ports.filter(|p| {
            welcome.kind == FrameKind::Welcome
                && welcome.is_for_generation(self.generation)
                && p.len() == self.size
        }) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed Welcome (wrong kind, generation or port list)",
            ));
        };
        let detection = FailureDetection {
            heartbeat_interval: self.heartbeat_interval,
            staleness_timeout: self.heartbeat_timeout,
            ..FailureDetection::default()
        };
        let endpoint = TcpEndpoint {
            rank: self.rank,
            size: self.size,
            generation: self.generation,
            restarts: self.restarts,
            listen,
            dial: (ports.into_iter())
                .map(|port| SocketAddr::from((Ipv4Addr::LOCALHOST, port)))
                .collect(),
            detection,
        };
        let transport = TcpTransport::with_listener(listener, &endpoint)?;
        let mesh = transport.mesh();
        let _ = mesh.linger.set(detection.staleness_timeout);
        let mesh = Arc::downgrade(&mesh);
        let beat = Frame::control(FrameKind::Heartbeat, self.rank as u32, self.generation);
        let interval = self.heartbeat_interval;
        std::thread::spawn(move || control_loop(&mesh, link, &beat, interval));
        Ok(transport)
    }
}

/// A child's control thread: beacons to the supervisor every `interval`
/// and hands each death notice to the mesh, until the mesh shuts down or
/// the supervisor goes away. It holds the mesh only between reads, so a
/// dropping transport's linger never waits out a read timeout.
fn control_loop(mesh: &Weak<TcpShared>, mut link: UnixStream, beat: &Frame, interval: Duration) {
    if link.set_read_timeout(Some(interval)).is_err() {
        return;
    }
    loop {
        match mesh.upgrade() {
            Some(m) if m.alive() => {
                if !m.beacon_muted.load(Ordering::SeqCst)
                    && wire::write_frame(&mut link, beat).is_err()
                {
                    break;
                }
            }
            _ => break,
        }
        // A frame is one write on a local socket, so a timed-out read
        // never leaves half a frame behind.
        match wire::read_frame(&mut link) {
            Ok(Ok(notice)) if notice.kind == FrameKind::PeerDown => {
                if let Some(m) = mesh
                    .upgrade()
                    .filter(|_| notice.is_for_generation(beat.generation))
                {
                    m.note_remote_down(notice.src as usize, notice.tag);
                }
            }
            Ok(Ok(_)) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            _ => break,
        }
    }
}

impl TcpTransport {
    /// Chaos hook: silences this process rank's control-link beacon,
    /// simulating a process that is alive but wedged (the failure mode
    /// only the supervisor's staleness detector can see).
    pub fn wedge_heartbeats(&self) {
        self.mesh().beacon_muted.store(true, Ordering::SeqCst);
    }
}

// ---------------------------------------------------------------------
// Control links (parent side)
// ---------------------------------------------------------------------

struct ControlShared {
    ranks: usize,
    generation: u64,
    alive: AtomicBool,
    /// Writer halves of the welcomed ranks' links (`None` before the
    /// rendezvous completes and after the link closes).
    conns: Mutex<Vec<Option<UnixStream>>>,
    last_seen: Mutex<Vec<Instant>>,
    /// Ranks declared dead this epoch.
    down: Mutex<Vec<bool>>,
}

impl ControlShared {
    fn send_to(&self, rank: usize, frame: &Frame) {
        let mut g = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(stream) = g.get_mut(rank).and_then(|s| s.as_mut()) {
            if wire::write_frame(stream, frame).is_err() {
                g[rank] = None;
            }
        }
    }

    fn is_down(&self, rank: usize) -> bool {
        self.down.lock().unwrap_or_else(|e| e.into_inner())[rank]
    }

    /// Declares `rank` dead for `reason` and sends
    /// [`FrameKind::PeerDown`] to the survivors.
    fn declare_down(&self, rank: usize, reason: u64) {
        {
            let mut g = self.down.lock().unwrap_or_else(|e| e.into_inner());
            if g[rank] {
                return;
            }
            g[rank] = true;
        }
        let mut notice = Frame::control(FrameKind::PeerDown, rank as u32, self.generation);
        notice.tag = reason;
        for r in 0..self.ranks {
            if r != rank && !self.is_down(r) {
                self.send_to(r, &notice);
            }
        }
    }

    /// Ranks whose last frame is older than `timeout` (welcomed, link
    /// open, not already declared dead).
    fn stale_ranks(&self, timeout: Duration) -> Vec<usize> {
        let now = Instant::now();
        let seen = self.last_seen.lock().unwrap_or_else(|e| e.into_inner());
        let conns = self.conns.lock().unwrap_or_else(|e| e.into_inner());
        let down = self.down.lock().unwrap_or_else(|e| e.into_inner());
        (0..self.ranks)
            .filter(|&r| conns[r].is_some() && !down[r] && now.duration_since(seen[r]) > timeout)
            .collect()
    }

    /// Reads one child's Hello; returns its rank and mesh port when it
    /// belongs to this generation and names a free, in-range rank.
    fn admit(
        &self,
        stream: &mut UnixStream,
        joined: &[Option<(UnixStream, u16)>],
    ) -> Option<(usize, u16)> {
        let hello = wire::read_frame(stream).ok()?.ok()?;
        let rank = hello.src as usize;
        let port = u16::try_from(hello.tag).ok()?;
        let fresh = hello.kind == FrameKind::Hello
            && hello.is_for_generation(self.generation)
            && joined.get(rank).is_some_and(Option::is_none);
        fresh.then_some((rank, port))
    }
}

/// One epoch's control socket (parent side).
struct Control {
    shared: Arc<ControlShared>,
    socket_path: PathBuf,
}

impl Control {
    /// Binds the epoch's control socket and spawns the rendezvous.
    fn start(socket_path: &Path, ranks: usize, generation: u64) -> io::Result<Control> {
        let listener = UnixListener::bind(socket_path)?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ControlShared {
            ranks,
            generation,
            alive: AtomicBool::new(true),
            conns: Mutex::new((0..ranks).map(|_| None).collect()),
            last_seen: Mutex::new(vec![Instant::now(); ranks]),
            down: Mutex::new(vec![false; ranks]),
        });
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || Self::rendezvous(&shared, &listener));
        }
        Ok(Control {
            shared,
            socket_path: socket_path.to_path_buf(),
        })
    }

    /// Admits one Hello per rank, then welcomes every rank with the port
    /// list and starts its liveness reader. A death or shutdown first
    /// drops the joined links unwelcomed, which ends those children's
    /// [`ProcEndpoint::connect`] with `ConnectionAborted`.
    fn rendezvous(shared: &Arc<ControlShared>, listener: &UnixListener) {
        let mut joined: Vec<Option<(UnixStream, u16)>> = (0..shared.ranks).map(|_| None).collect();
        while joined.iter().any(Option::is_none) {
            let down = shared
                .down
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .contains(&true);
            if down || !shared.alive.load(Ordering::SeqCst) {
                return;
            }
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    if let Some((rank, port)) = shared.admit(&mut stream, &joined) {
                        joined[rank] = Some((stream, port));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => return,
            }
        }
        let mut welcome = Frame::control(FrameKind::Welcome, 0, shared.generation);
        welcome.payload = (joined.iter().flatten())
            .map(|&(_, port)| c64::new(f64::from(port), 0.0))
            .collect();
        for (rank, (mut stream, _)) in joined.into_iter().flatten().enumerate() {
            let Ok(writer) = stream.try_clone() else {
                continue;
            };
            if wire::write_frame(&mut stream, &welcome).is_err() {
                continue;
            }
            shared.last_seen.lock().unwrap_or_else(|e| e.into_inner())[rank] = Instant::now();
            shared.conns.lock().unwrap_or_else(|e| e.into_inner())[rank] = Some(writer);
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                // Beacons refresh `last_seen`. EOF ends the link: a clean
                // exit or a death, which the exit-status poll classifies.
                let mut reader = BufReader::new(stream);
                while let Ok(Ok(_)) = wire::read_frame(&mut reader) {
                    if !shared.alive.load(Ordering::SeqCst) {
                        break;
                    }
                    shared.last_seen.lock().unwrap_or_else(|e| e.into_inner())[rank] =
                        Instant::now();
                }
                shared.conns.lock().unwrap_or_else(|e| e.into_inner())[rank] = None;
            });
        }
    }

    fn shutdown(&self) {
        self.shared.alive.store(false, Ordering::SeqCst);
        let mut g = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for stream in g.iter_mut().filter_map(Option::take) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
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
    /// Failure-detection timing. The supervisor polls exit statuses
    /// every `poll_period` and declares a child down once its control
    /// beacon is silent past `staleness_timeout`. Children get
    /// `heartbeat_interval` and `staleness_timeout` (through
    /// [`ENV_HB_INTERVAL_MS`] / [`ENV_HB_TIMEOUT_MS`]) for their beacon
    /// and their mesh endpoint; the mesh's other fields (poll period,
    /// reconnect backoffs) stay at their defaults.
    pub detection: FailureDetection,
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
    /// Exited [`CHILD_COMM_ABORT`]: aborted with a typed
    /// [`CommError`](crate::CommError) after a peer died (a casualty,
    /// not the root cause).
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
    /// (control sockets and the shared checkpoint directory live under
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
            let socket = epoch_dir.join("control.sock");
            let control = Control::start(&socket, ranks, generation)?;
            let spawn_time = Instant::now();
            let mut children: Vec<Child> = Vec::with_capacity(ranks);
            for r in 0..ranks {
                let mut cmd = make_cmd(r, generation);
                cmd.env(ENV_RANK, r.to_string())
                    .env(ENV_SIZE, ranks.to_string())
                    .env(ENV_GENERATION, generation.to_string())
                    .env(ENV_RESTARTS, restarts.to_string())
                    .env(ENV_SOCKET, &socket)
                    .env(ENV_HB_INTERVAL_MS, &hb_interval_ms)
                    .env(ENV_HB_TIMEOUT_MS, &hb_timeout_ms)
                    .env(ENV_CKPT_DIR, self.checkpoint_dir());
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
                                    _ if control.shared.is_down(r) => {}
                                    _ => {
                                        deaths += 1;
                                        control.shared.declare_down(r, Frame::PEER_DOWN_EXIT);
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
                for r in control
                    .shared
                    .stale_ranks(self.config.detection.staleness_timeout)
                {
                    if statuses[r].is_none() {
                        heartbeat_deaths += 1;
                        deaths += 1;
                        control.shared.declare_down(r, Frame::PEER_DOWN_HEARTBEAT);
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
            control.shutdown();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn hello(rank: u32, generation: u64, port: u64) -> Frame {
        let mut f = Frame::control(FrameKind::Hello, rank, generation);
        f.tag = port;
        f
    }

    /// Sends `frame` on a fresh control connection and returns what the
    /// supervisor answers (`None`: the link closed without a reply).
    fn join(socket: &Path, frame: &Frame) -> Option<Frame> {
        let mut link = UnixStream::connect(socket).expect("control socket accepts");
        link.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        wire::write_frame(&mut link, frame).expect("hello goes out");
        wire::read_frame(&mut link).ok()?.ok()
    }

    #[test]
    fn stale_generation_hello_gets_no_welcome_and_no_slot() {
        let dir = std::env::temp_dir().join(format!("soifft-proc-fence-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        let socket = dir.join("control.sock");
        let control = Control::start(&socket, 1, 1).expect("control starts");
        // A straggler from generation 0 asks for rank 0.
        assert_eq!(join(&socket, &hello(0, 0, 4000)), None);
        // Rank 0 of generation 1 still gets its slot and the port list.
        let welcome = join(&socket, &hello(0, 1, 4001)).expect("welcomed");
        assert_eq!(welcome.kind, FrameKind::Welcome);
        assert_eq!(welcome.generation, 1);
        assert_eq!(welcome.payload, vec![c64::new(4001.0, 0.0)]);
        control.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
