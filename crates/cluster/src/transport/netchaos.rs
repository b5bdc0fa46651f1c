//! Deterministic in-path network-fault injection for the TCP transport.
//!
//! [`NetChaos::install`] stands up one loopback proxy listener per
//! ordered rank pair; the TCP mesh dials *through* the proxy instead of
//! straight at its peers, and the proxy's pump threads inject the
//! failures TCP actually produces:
//!
//! * **partitions** — symmetric or asymmetric (inbound-only /
//!   outbound-only): existing connections through the severed links are
//!   torn down and new ones are accepted-then-closed, so the dialer's
//!   handshake fails and its reconnect backoff spins until the
//!   partition lifts (or the staleness budget escalates it);
//! * **connection resets** — a one-shot hard close of a specific link
//!   after a byte threshold, leaving a frame half-delivered
//!   (slow-loris' evil sibling);
//! * **latency/jitter and bandwidth caps** — per-chunk delays drawn
//!   from a per-link seeded stream, so the same seed replays the same
//!   delay schedule;
//! * **slow-loris forwarding** — frames trickled through in small
//!   chunks with stalls between them, exercising the receiver's
//!   partial-frame reads.
//!
//! Triggers are deterministic like [`fault`](crate::fault)'s plans:
//! fixed byte thresholds ([`ChaosTrigger::BytesThrough`]) land a
//! partition at the same point in the exchange on every run, and all
//! randomness (jitter) comes from SplitMix64 streams derived from the
//! plan seed and the link endpoints. Reordering *across* reconnects is
//! emergent: per-link outages scramble cross-pair arrival order while
//! each pair stays FIFO, which is exactly what the resilience layer
//! must absorb.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a pump blocks in one read before re-checking partition
/// state and liveness — the reaction latency of a mid-stream sever.
const PUMP_SLICE: Duration = Duration::from_millis(20);

/// Which directions of a rank's links a partition severs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionKind {
    /// Both directions: the rank can neither send nor receive.
    Symmetric,
    /// Only links *toward* the rank: it falls silent to the world but
    /// still hears everyone (its own sends keep flowing).
    InboundOnly,
    /// Only links *from* the rank: it keeps receiving but its sends go
    /// nowhere — the half-open failure mode.
    OutboundOnly,
}

/// When a scripted fault fires.
#[derive(Clone, Debug)]
pub enum ChaosTrigger {
    /// A fixed delay after the proxy was installed.
    After(Duration),
    /// Once `bytes` of forwarded traffic have touched `rank`'s links
    /// (either direction) — deterministic mid-exchange placement.
    BytesThrough {
        /// The rank whose traffic is counted.
        rank: usize,
        /// The byte threshold.
        bytes: u64,
    },
}

/// A scripted partition of one rank.
#[derive(Clone, Debug)]
pub struct PartitionSpec {
    /// The rank to cut off.
    pub rank: usize,
    /// Which link directions are severed.
    pub kind: PartitionKind,
    /// When the partition starts.
    pub trigger: ChaosTrigger,
    /// How long it lasts; `None` = until the proxy is torn down (the
    /// budget-exceeding case).
    pub duration: Option<Duration>,
}

/// A one-shot connection reset of the `src → dst` link after
/// `after_bytes` forwarded bytes.
#[derive(Clone, Debug)]
pub struct ResetSpec {
    /// Sending rank of the link.
    pub src: usize,
    /// Receiving rank of the link.
    pub dst: usize,
    /// Forwarded-byte threshold on that link.
    pub after_bytes: u64,
}

/// A deterministic network-fault schedule (builder-style, seeded like
/// [`FaultPlan`](crate::FaultPlan)).
#[derive(Clone, Debug)]
pub struct NetChaosPlan {
    /// Seed for the per-link jitter streams.
    pub seed: u64,
    /// The supervision generation this plan applies to; a respawned
    /// epoch runs fault-free so recovery can be proven.
    pub generation: u64,
    partitions: Vec<PartitionSpec>,
    resets: Vec<ResetSpec>,
    latency: Option<(Duration, Duration)>,
    bandwidth: Option<u64>,
    slow_loris: Option<(usize, Duration)>,
}

impl NetChaosPlan {
    /// An empty plan under `seed`, applying to generation 0.
    pub fn new(seed: u64) -> NetChaosPlan {
        NetChaosPlan {
            seed,
            generation: 0,
            partitions: Vec::new(),
            resets: Vec::new(),
            latency: None,
            bandwidth: None,
            slow_loris: None,
        }
    }

    /// Adds a scripted partition.
    pub fn partition(mut self, spec: PartitionSpec) -> Self {
        self.partitions.push(spec);
        self
    }

    /// Adds a one-shot connection reset on the `src → dst` link.
    pub fn reset_link(mut self, src: usize, dst: usize, after_bytes: u64) -> Self {
        self.resets.push(ResetSpec {
            src,
            dst,
            after_bytes,
        });
        self
    }

    /// Delays every forwarded chunk by `base` plus a seeded fraction of
    /// `jitter`.
    pub fn latency(mut self, base: Duration, jitter: Duration) -> Self {
        self.latency = Some((base, jitter));
        self
    }

    /// Caps forwarding throughput at `bytes_per_sec` per link.
    pub fn bandwidth(mut self, bytes_per_sec: u64) -> Self {
        assert!(bytes_per_sec > 0, "bandwidth cap must be positive");
        self.bandwidth = Some(bytes_per_sec);
        self
    }

    /// Trickles traffic through in `chunk`-byte pieces with `stall`
    /// between them, splitting frames across the receiver's reads.
    pub fn slow_loris(mut self, chunk: usize, stall: Duration) -> Self {
        assert!(chunk > 0, "slow-loris chunk must be positive");
        self.slow_loris = Some((chunk, stall));
        self
    }
}

/// What the proxy actually did — counters chaos tests assert against
/// (a scripted partition that never fired proves nothing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetChaosEvents {
    /// Scripted partitions whose trigger fired.
    pub partitions_fired: u64,
    /// One-shot link resets delivered.
    pub resets_fired: u64,
    /// Connection attempts refused while a partition was active.
    pub conns_refused: u64,
    /// Established connections torn down by a partition or reset.
    pub conns_severed: u64,
    /// Connections successfully proxied end-to-end.
    pub conns_proxied: u64,
    /// Total bytes forwarded in the data (src → dst) direction.
    pub bytes_forwarded: u64,
}

/// SplitMix64 — the same tiny deterministic generator `fault.rs` uses.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct ChaosShared {
    plan: NetChaosPlan,
    alive: AtomicBool,
    start: Instant,
    ranks: usize,
    /// Forwarded bytes touching each rank (either endpoint of the link).
    rank_bytes: Vec<AtomicU64>,
    /// Forwarded bytes per ordered link (flattened `src * ranks + dst`).
    link_bytes: Vec<AtomicU64>,
    /// Per-partition-spec fire time (None until the trigger trips).
    partition_fired: Vec<Mutex<Option<Instant>>>,
    /// Per-reset-spec one-shot latch.
    reset_fired: Vec<AtomicBool>,
    /// Per-link jitter streams (continue across reconnects, so a seed
    /// replays the same delay schedule regardless of conn churn).
    jitter: Vec<Mutex<SplitMix64>>,
    /// Live proxied streams, so teardown can sever them.
    conns: Mutex<Vec<TcpStream>>,
    ev_partitions: AtomicU64,
    ev_resets: AtomicU64,
    ev_refused: AtomicU64,
    ev_severed: AtomicU64,
    ev_proxied: AtomicU64,
    ev_bytes: AtomicU64,
}

impl ChaosShared {
    fn alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Evaluates (and lazily fires) every partition spec covering the
    /// `src → dst` link; true while any active one severs it.
    fn severed(&self, src: usize, dst: usize) -> bool {
        let now = Instant::now();
        let mut cut = false;
        for (i, spec) in self.plan.partitions.iter().enumerate() {
            let covers = match spec.kind {
                PartitionKind::Symmetric => src == spec.rank || dst == spec.rank,
                PartitionKind::OutboundOnly => src == spec.rank,
                PartitionKind::InboundOnly => dst == spec.rank,
            };
            if !covers {
                continue;
            }
            let mut fired = self.partition_fired[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if fired.is_none() {
                let trip = match &spec.trigger {
                    ChaosTrigger::After(delay) => self.start.elapsed() >= *delay,
                    ChaosTrigger::BytesThrough { rank, bytes } => {
                        *rank < self.ranks
                            && self.rank_bytes[*rank].load(Ordering::Relaxed) >= *bytes
                    }
                };
                if trip {
                    *fired = Some(now);
                    self.ev_partitions.fetch_add(1, Ordering::Relaxed);
                }
            }
            if let Some(at) = *fired {
                match spec.duration {
                    None => cut = true,
                    Some(d) if now < at + d => cut = true,
                    Some(_) => {}
                }
            }
        }
        cut
    }

    /// True exactly once when a one-shot reset of `src → dst` is due.
    fn reset_due(&self, src: usize, dst: usize) -> bool {
        for (i, spec) in self.plan.resets.iter().enumerate() {
            if spec.src == src
                && spec.dst == dst
                && !self.reset_fired[i].load(Ordering::Relaxed)
                && self.link_bytes[src * self.ranks + dst].load(Ordering::Relaxed)
                    >= spec.after_bytes
                && !self.reset_fired[i].swap(true, Ordering::SeqCst)
            {
                self.ev_resets.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    fn count_forwarded(&self, src: usize, dst: usize, n: usize) {
        let n = n as u64;
        self.rank_bytes[src].fetch_add(n, Ordering::Relaxed);
        self.rank_bytes[dst].fetch_add(n, Ordering::Relaxed);
        self.link_bytes[src * self.ranks + dst].fetch_add(n, Ordering::Relaxed);
        self.ev_bytes.fetch_add(n, Ordering::Relaxed);
    }

    fn register(&self, stream: &TcpStream) {
        if let Ok(clone) = stream.try_clone() {
            let mut g = self.conns.lock().unwrap_or_else(|e| e.into_inner());
            g.push(clone);
        }
    }
}

/// The installed proxy mesh: one listener per ordered rank pair, pump
/// threads applying the plan, and the dial matrix the transport uses
/// instead of the real addresses.
pub struct NetChaos {
    shared: Arc<ChaosShared>,
    matrix: Vec<Vec<SocketAddr>>,
}

impl NetChaos {
    /// Binds a loopback proxy in front of every ordered rank pair of
    /// `real` (the ranks' actual listen addresses) and starts the
    /// accept/pump threads.
    ///
    /// # Errors
    /// Socket errors binding the proxy listeners.
    pub fn install(real: &[SocketAddr], plan: &NetChaosPlan) -> io::Result<NetChaos> {
        let n = real.len();
        let shared = Arc::new(ChaosShared {
            plan: plan.clone(),
            alive: AtomicBool::new(true),
            start: Instant::now(),
            ranks: n,
            rank_bytes: (0..n).map(|_| AtomicU64::new(0)).collect(),
            link_bytes: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
            partition_fired: plan.partitions.iter().map(|_| Mutex::new(None)).collect(),
            reset_fired: plan.resets.iter().map(|_| AtomicBool::new(false)).collect(),
            jitter: (0..n * n)
                .map(|link| {
                    Mutex::new(SplitMix64(
                        plan.seed ^ (link as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
                    ))
                })
                .collect(),
            conns: Mutex::new(Vec::new()),
            ev_partitions: AtomicU64::new(0),
            ev_resets: AtomicU64::new(0),
            ev_refused: AtomicU64::new(0),
            ev_severed: AtomicU64::new(0),
            ev_proxied: AtomicU64::new(0),
            ev_bytes: AtomicU64::new(0),
        });
        let mut matrix = vec![vec!["0.0.0.0:0".parse().expect("literal addr"); n]; n];
        for (s, row) in matrix.iter_mut().enumerate() {
            for (d, slot) in row.iter_mut().enumerate() {
                if s == d {
                    *slot = real[d];
                    continue;
                }
                let listener = TcpListener::bind("127.0.0.1:0")?;
                listener.set_nonblocking(true)?;
                *slot = listener.local_addr()?;
                let shared = Arc::clone(&shared);
                let target = real[d];
                std::thread::spawn(move || accept_loop(shared, listener, s, d, target));
            }
        }
        Ok(NetChaos { shared, matrix })
    }

    /// The addresses rank `src` should dial to reach each peer —
    /// `dial(src)[dst]` lands on the proxied `src → dst` link.
    pub fn dial(&self, src: usize) -> Vec<SocketAddr> {
        self.matrix[src].clone()
    }

    /// Snapshot of what the proxy has done so far.
    pub fn events(&self) -> NetChaosEvents {
        NetChaosEvents {
            partitions_fired: self.shared.ev_partitions.load(Ordering::Relaxed),
            resets_fired: self.shared.ev_resets.load(Ordering::Relaxed),
            conns_refused: self.shared.ev_refused.load(Ordering::Relaxed),
            conns_severed: self.shared.ev_severed.load(Ordering::Relaxed),
            conns_proxied: self.shared.ev_proxied.load(Ordering::Relaxed),
            bytes_forwarded: self.shared.ev_bytes.load(Ordering::Relaxed),
        }
    }

    /// Tears the proxy down: stops the accept loops and severs every
    /// proxied connection.
    pub fn shutdown(&self) {
        self.shared.alive.store(false, Ordering::SeqCst);
        let mut g = self.shared.conns.lock().unwrap_or_else(|e| e.into_inner());
        for stream in g.drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for NetChaos {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    shared: Arc<ChaosShared>,
    listener: TcpListener,
    src: usize,
    dst: usize,
    target: SocketAddr,
) {
    while shared.alive() {
        match listener.accept() {
            Ok((client, _)) => {
                if shared.severed(src, dst) {
                    // Accept-then-close: the dialer's handshake read
                    // fails immediately and its backoff takes over.
                    shared.ev_refused.fetch_add(1, Ordering::Relaxed);
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let Ok(server) = TcpStream::connect_timeout(&target, Duration::from_secs(2)) else {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                };
                shared.ev_proxied.fetch_add(1, Ordering::Relaxed);
                shared.register(&client);
                shared.register(&server);
                let counted = Arc::new(AtomicBool::new(false));
                if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
                    let fwd_shared = Arc::clone(&shared);
                    let fwd_counted = Arc::clone(&counted);
                    std::thread::spawn(move || {
                        pump(fwd_shared, client, server, src, dst, true, fwd_counted)
                    });
                    let rev_shared = Arc::clone(&shared);
                    std::thread::spawn(move || pump(rev_shared, s2, c2, src, dst, false, counted));
                } else {
                    let _ = client.shutdown(Shutdown::Both);
                    let _ = server.shutdown(Shutdown::Both);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5))
            }
            Err(_) => break,
        }
    }
}

/// One direction of a proxied connection. `forward` is the data
/// direction (`src → dst` frames), where the byte accounting and the
/// injected faults live; the reverse direction (the Welcome handshake
/// reply) is a transparent copy that still honours severing.
fn pump(
    shared: Arc<ChaosShared>,
    mut from: TcpStream,
    mut to: TcpStream,
    src: usize,
    dst: usize,
    forward: bool,
    sever_counted: Arc<AtomicBool>,
) {
    let _ = from.set_read_timeout(Some(PUMP_SLICE));
    let mut buf = vec![0u8; 16 * 1024];
    let sever = |a: &TcpStream, b: &TcpStream| {
        if !sever_counted.swap(true, Ordering::SeqCst) {
            shared.ev_severed.fetch_add(1, Ordering::Relaxed);
        }
        let _ = a.shutdown(Shutdown::Both);
        let _ = b.shutdown(Shutdown::Both);
    };
    loop {
        if !shared.alive() {
            break;
        }
        if shared.severed(src, dst) {
            sever(&from, &to);
            break;
        }
        let n = match from.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        };
        if forward {
            if let Some((base, jitter)) = shared.plan.latency {
                let frac = {
                    let mut g = shared.jitter[src * shared.ranks + dst]
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    g.next_f64()
                };
                std::thread::sleep(base + jitter.mul_f64(frac));
            }
            if let Some(bw) = shared.plan.bandwidth {
                std::thread::sleep(Duration::from_secs_f64(n as f64 / bw as f64));
            }
            let wrote = if let Some((chunk, stall)) = shared.plan.slow_loris {
                let mut ok = true;
                for piece in buf[..n].chunks(chunk) {
                    if to.write_all(piece).is_err() {
                        ok = false;
                        break;
                    }
                    std::thread::sleep(stall);
                }
                ok
            } else {
                to.write_all(&buf[..n]).is_ok()
            };
            if !wrote {
                break;
            }
            shared.count_forwarded(src, dst, n);
            if shared.reset_due(src, dst) {
                sever(&from, &to);
                break;
            }
        } else if to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}
