//! The distributed workloads (`soi_large`, `soi_small_tcp`, `ct_large`):
//! one measuring loop for the end-to-end numbers, one traced loop for the
//! in-situ ledger and the isolated stage replay. Both are generic over the
//! transform ([`Transform`]) and the transport ([`Fabric`]).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

use soifft::cluster::transport::tcp::{TcpConfig, TcpSupervisor};
use soifft::cluster::{checksum, Cluster, Comm, RankOutcome};
use soifft::ct::{CtWorkspace, DistributedCtFft};
use soifft::fft::{batch, Plan, SixStepFft, SixStepScratch, SixStepVariant};
use soifft::num::c64;
use soifft::par::Pool;
use soifft::soi::conv::{convolve_with_scratch, ConvScratch};
use soifft::soi::{ConvStrategy, SoiFft, SoiParams, SoiWorkspace, Window};

use crate::spans::{Recorder, Span};
use crate::stats::median;

/// Output SNR below which a double-precision operation counts as failed.
pub const SNR_FLOOR_F64_DB: f64 = 100.0;

/// A planned distributed transform with a reusable per-rank workspace and
/// the uniform block layout (rank `r` holds `[r·N/P, (r+1)·N/P)` in and
/// out).
pub trait Transform: Sync {
    /// Per-rank reusable working set.
    type Ws;
    /// Transform length `N`.
    fn n(&self) -> usize;
    /// Rank count `P`.
    fn procs(&self) -> usize;
    /// Plans one rank's workspace.
    fn make_ws(&self) -> Self::Ws;
    /// Warm-path forward transform of this rank's slice.
    fn forward(&self, comm: &mut Comm, x: &[c64], ws: &mut Self::Ws, y: &mut [c64]);
}

impl Transform for SoiFft {
    type Ws = SoiWorkspace;
    fn n(&self) -> usize {
        self.params().n
    }
    fn procs(&self) -> usize {
        self.params().procs
    }
    fn make_ws(&self) -> SoiWorkspace {
        self.make_workspace()
    }
    fn forward(&self, comm: &mut Comm, x: &[c64], ws: &mut SoiWorkspace, y: &mut [c64]) {
        self.forward_into(comm, x, ws, y);
    }
}

/// The CT baseline with its rank count (which the plan does not expose).
pub struct Ct {
    /// The planned transform.
    pub fft: DistributedCtFft,
    /// Ranks it was planned for.
    pub procs: usize,
}

impl Transform for Ct {
    type Ws = CtWorkspace;
    fn n(&self) -> usize {
        self.fft.len()
    }
    fn procs(&self) -> usize {
        self.procs
    }
    fn make_ws(&self) -> CtWorkspace {
        self.fft.make_workspace()
    }
    fn forward(&self, comm: &mut Comm, x: &[c64], ws: &mut CtWorkspace, y: &mut [c64]) {
        self.fft.forward_into(comm, x, ws, y);
    }
}

/// Which transport carries the ranks' messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// `Cluster::run`: rank threads over in-process channels.
    InProc,
    /// `TcpSupervisor::run`: rank threads over a loopback TCP mesh.
    Tcp,
}

/// Runs `f` on `ranks` rank threads over `fabric` and returns each rank's
/// result. A rank that fails takes the process down: these workloads are
/// chosen so that no operation fails.
pub fn launch<T: Send>(fabric: Fabric, ranks: usize, f: impl Fn(&mut Comm) -> T + Sync) -> Vec<T> {
    match fabric {
        Fabric::InProc => Cluster::run(ranks, f),
        Fabric::Tcp => TcpSupervisor::new(TcpConfig::default())
            .run(ranks, |comm, _ctx| Ok(f(comm)))
            .expect("loopback mesh launches")
            .outcomes
            .into_iter()
            .map(|o| match o {
                RankOutcome::Ok(v) => v,
                RankOutcome::Err(e) => panic!("TCP rank failed: {e}"),
                RankOutcome::Crashed => panic!("TCP rank crashed"),
                RankOutcome::Panicked(msg) => panic!("TCP rank panicked: {msg}"),
                _ => panic!("TCP rank did not complete"),
            })
            .collect(),
    }
}

/// What one measuring run of a distributed workload produced.
#[derive(Debug, Default)]
pub struct E2e {
    /// Plan → launch → workspace → first cold operation, seconds.
    pub setup_s: f64,
    /// Per-operation latency, `max over ranks(end) − min over ranks(start)`.
    pub latencies: Vec<f64>,
    /// Σ over ranks of bytes sent in the timed loop ÷ operations.
    pub wire_bytes_per_transform: f64,
    /// Lowest oracle SNR over the input ring, dB.
    pub snr_db: f64,
    /// Operations attempted (ring verification + timed loop).
    pub attempted: usize,
    /// One line per failed operation.
    pub failures: Vec<String>,
}

/// One rank's `(start, end)` of every operation, seconds since the origin
/// all ranks share.
#[derive(Default)]
struct Timeline {
    starts: Vec<f64>,
    ends: Vec<f64>,
}

impl Timeline {
    /// Runs `op` and records when it started and ended.
    fn timed(&mut self, origin: Instant, op: impl FnOnce()) {
        let start = origin.elapsed().as_secs_f64();
        op();
        self.ends.push(origin.elapsed().as_secs_f64());
        self.starts.push(start);
    }
}

/// One rank's record of a measuring run.
#[derive(Default)]
struct RankE2e {
    setup_done_s: f64,
    sums: Vec<(f64, f64)>,
    timeline: Timeline,
    bytes: u64,
    mismatched: Vec<usize>,
}

/// `Σ|want|²` and `Σ|got − want|²` over one rank's slice.
pub fn snr_sums(got: &[c64], want: &[c64]) -> (f64, f64) {
    let signal = want.iter().map(|w| w.norm_sqr()).sum();
    let noise = got
        .iter()
        .zip(want)
        .map(|(g, w)| (*g - *w).norm_sqr())
        .sum();
    (signal, noise)
}

/// SNR in dB from summed signal and noise energies. An exact match reads
/// as the largest finite value so the result stays a JSON number.
pub fn snr_from_sums(signal: f64, noise: f64) -> f64 {
    if noise == 0.0 {
        f64::MAX.log10() * 10.0
    } else {
        10.0 * (signal / noise).log10()
    }
}

/// Merges the ranks' timelines into per-operation latencies
/// (`max over ranks(end) − min over ranks(start)`) and the median end skew
/// (`(max − min rank end) ÷ latency`).
fn merge_latencies(ranks: &[&Timeline]) -> (Vec<f64>, f64) {
    let ops = ranks.iter().map(|t| t.starts.len()).min().unwrap_or(0);
    let mut lat = Vec::with_capacity(ops);
    let mut skew = Vec::with_capacity(ops);
    for i in 0..ops {
        let first = ranks
            .iter()
            .map(|t| t.starts[i])
            .fold(f64::INFINITY, f64::min);
        let last = ranks.iter().map(|t| t.ends[i]).fold(0.0, f64::max);
        let earliest_end = ranks
            .iter()
            .map(|t| t.ends[i])
            .fold(f64::INFINITY, f64::min);
        lat.push(last - first);
        skew.push((last - earliest_end) / (last - first));
    }
    let skew = if skew.is_empty() { 0.0 } else { median(&skew) };
    (lat, skew)
}

/// Measures one distributed workload in this (fresh) process.
///
/// `plan` is timed as part of set-up; `inputs` is the ring (full-length
/// vectors); the timed loop runs until `seconds` have passed *and*
/// `min_ops` operations are done. With `setup_only` the run stops after
/// the first cold operation.
pub fn run_e2e<X: Transform>(
    plan: impl FnOnce() -> X,
    fabric: Fabric,
    inputs: &[Vec<c64>],
    seconds: f64,
    min_ops: usize,
    setup_only: bool,
) -> E2e {
    let t_setup = Instant::now();
    let xf = plan();
    let (n, ranks) = (xf.n(), xf.procs());
    let per = n / ranks;
    let stop = AtomicBool::new(false);
    let oracle: RwLock<Vec<c64>> = RwLock::new(Vec::new());
    let oracle_plan: OnceLock<Plan> = OnceLock::new();
    let origin = Instant::now();

    let per_rank = launch(fabric, ranks, |comm| {
        let r = comm.rank();
        let slice = |k: usize| &inputs[k][r * per..(r + 1) * per];
        let mut out = RankE2e::default();
        let mut ws = xf.make_ws();
        let mut y = vec![c64::ZERO; per];
        xf.forward(comm, slice(0), &mut ws, &mut y);
        out.setup_done_s = t_setup.elapsed().as_secs_f64();
        if setup_only {
            return out;
        }

        // Oracle gate on the first output of every ring input; later
        // outputs of the same input must match it bit for bit.
        let mut first_sum = Vec::with_capacity(inputs.len());
        for (k, input) in inputs.iter().enumerate() {
            if r == 0 {
                let mut want = oracle.write().expect("oracle lock");
                want.clear();
                want.extend_from_slice(input);
                oracle_plan.get_or_init(|| Plan::new(n)).forward(&mut want);
            }
            comm.barrier();
            xf.forward(comm, slice(k), &mut ws, &mut y);
            let want = oracle.read().expect("oracle lock");
            out.sums.push(snr_sums(&y, &want[r * per..(r + 1) * per]));
            first_sum.push(checksum(&y));
            drop(want);
            comm.barrier();
        }
        if r == 0 {
            *oracle.write().expect("oracle lock") = Vec::new();
        }

        out.timeline.starts.reserve(1 << 16);
        out.timeline.ends.reserve(1 << 16);
        comm.stats_mut().clear_records();
        let bytes0 = comm.stats().total_bytes_sent();
        let t_loop = Instant::now();
        let mut i = 0usize;
        loop {
            // Untimed opening barrier; rank 0's stop decision was stored
            // before it arrived here, so every rank reads the same value.
            comm.barrier();
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let k = i % inputs.len();
            out.timeline
                .timed(origin, || xf.forward(comm, slice(k), &mut ws, &mut y));
            if checksum(&y) != first_sum[k] {
                out.mismatched.push(i);
            }
            comm.stats_mut().clear_records();
            i += 1;
            if r == 0 && i >= min_ops && t_loop.elapsed().as_secs_f64() >= seconds {
                stop.store(true, Ordering::SeqCst);
            }
        }
        out.bytes = comm.stats().total_bytes_sent() - bytes0;
        out
    });

    let mut e2e = E2e {
        setup_s: per_rank.iter().map(|o| o.setup_done_s).fold(0.0, f64::max),
        ..E2e::default()
    };
    if setup_only {
        return e2e;
    }
    e2e.snr_db = f64::INFINITY;
    for k in 0..inputs.len() {
        let signal: f64 = per_rank.iter().map(|o| o.sums[k].0).sum();
        let noise: f64 = per_rank.iter().map(|o| o.sums[k].1).sum();
        let snr = snr_from_sums(signal, noise);
        if snr < SNR_FLOOR_F64_DB {
            e2e.failures.push(format!(
                "ring input {k}: snr {snr:.2} dB under the {SNR_FLOOR_F64_DB} dB floor"
            ));
        }
        e2e.snr_db = e2e.snr_db.min(snr);
    }
    let timelines: Vec<&Timeline> = per_rank.iter().map(|o| &o.timeline).collect();
    e2e.latencies = merge_latencies(&timelines).0;
    let ops = e2e.latencies.len();
    let mut bad: Vec<usize> = per_rank
        .iter()
        .flat_map(|o| o.mismatched.iter().copied())
        .collect();
    bad.sort_unstable();
    bad.dedup();
    e2e.failures.extend(bad.iter().map(|i| {
        format!("operation {i}: output differs from the first verified output of its input")
    }));
    e2e.attempted = inputs.len() + ops;
    e2e.wire_bytes_per_transform =
        per_rank.iter().map(|o| o.bytes).sum::<u64>() as f64 / ops as f64;
    e2e
}

/// Phase names of the program's public `CommStats` ledger, plus the `pack`
/// span that only its trace buffer records.
pub const PHASES: [&str; 6] = [
    "ghost",
    "convolution",
    "segment-fft",
    "pack",
    "all-to-all",
    "local-fft",
];

/// Stage names of the isolated SOI replay, in pipeline order (`F_M'` and
/// the demodulation are one fused call in the program, so one stage here).
pub const REPLAY_STAGES: [&str; 6] = [
    "replay.ghost",
    "replay.conv",
    "replay.f_l",
    "replay.pack",
    "replay.exchange",
    "replay.f_mprime_demod",
];

/// The SOI pipeline re-assembled from the program's public stage
/// functions at one plan's shapes, so each stage can be timed in isolation
/// and in pipeline order. Its output must match `forward_into` bit for bit.
pub struct SoiReplay {
    params: SoiParams,
    window: Arc<Window>,
    strategy: ConvStrategy,
    plan_l: Arc<Plan>,
    seg_fft: SixStepFft,
    demod: Vec<c64>,
}

/// One rank's buffers for [`SoiReplay::round`].
pub struct ReplayState {
    input_ext: Vec<c64>,
    u: Vec<c64>,
    conv: ConvScratch,
    row_scratch: Vec<c64>,
    outgoing: Vec<Vec<c64>>,
    incoming: Vec<Vec<c64>>,
    z: Vec<c64>,
    aux: Vec<c64>,
    six: SixStepScratch,
    /// The replayed output slice.
    pub y: Vec<c64>,
}

impl SoiReplay {
    /// Mirrors `fft`'s plan: same window, strategy, `F_L` plan, fused
    /// six-step `F_M'` and demodulation diagonal.
    pub fn new(fft: &SoiFft) -> Self {
        let params = *fft.params();
        let (m, m_prime) = (params.m(), params.m_prime());
        let mut demod = vec![c64::ZERO; m_prime];
        demod[..m].copy_from_slice(&fft.window().demod()[..m]);
        SoiReplay {
            params,
            window: Arc::clone(fft.window()),
            strategy: fft.strategy(),
            plan_l: soifft::fft::shared_plan(params.total_segments()),
            seg_fft: SixStepFft::new(m_prime, SixStepVariant::FusedDynamic),
            demod,
        }
    }

    /// Buffers for one rank.
    pub fn state(&self) -> ReplayState {
        let p = &self.params;
        ReplayState {
            input_ext: Vec::with_capacity(p.per_rank() + p.ghost_len()),
            u: vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()],
            conv: ConvScratch::new(p, &self.plan_l, &Pool::serial()),
            row_scratch: self.plan_l.make_scratch(),
            outgoing: vec![Vec::new(); p.procs],
            incoming: Vec::with_capacity(p.procs),
            z: Vec::with_capacity(p.m_prime()),
            aux: vec![c64::ZERO; p.m_prime()],
            six: self.seg_fft.make_scratch(),
            y: vec![c64::ZERO; p.per_rank()],
        }
    }

    /// One replay of the pipeline on this rank's slice `x`, each stage in
    /// its own span under a `replay` parent.
    pub fn round(
        &self,
        comm: &mut Comm,
        rec: &mut Recorder,
        op: u64,
        x: &[c64],
        st: &mut ReplayState,
    ) {
        let p = &self.params;
        let (l, blocks, m, s_per) = (
            p.total_segments(),
            p.blocks_per_rank(),
            p.m(),
            p.segments_per_proc,
        );
        let pool = Pool::serial();
        rec.span("replay", op, |rec| {
            let ghost = rec.span(REPLAY_STAGES[0], op, |_| {
                comm.exchange_ghost(x, p.ghost_len())
            });
            st.input_ext.clear();
            st.input_ext.extend_from_slice(x);
            st.input_ext.extend_from_slice(&ghost);
            comm.recycle_buffer(ghost);
            rec.span(REPLAY_STAGES[1], op, |_| {
                convolve_with_scratch(
                    p,
                    &self.window,
                    self.strategy,
                    &st.input_ext,
                    &mut st.u,
                    &pool,
                    &mut st.conv,
                );
            });
            rec.span(REPLAY_STAGES[2], op, |_| {
                batch::forward_rows_with(&self.plan_l, &mut st.u, &mut st.row_scratch);
            });
            rec.span(REPLAY_STAGES[3], op, |_| {
                for (q, slot) in st.outgoing.iter_mut().enumerate() {
                    let mut buf = comm.acquire_buffer(s_per * blocks);
                    for sl in 0..s_per {
                        let s = q * s_per + sl;
                        buf.extend(st.u.chunks_exact(l).map(|block| block[s]));
                    }
                    *slot = buf;
                }
            });
            rec.span(REPLAY_STAGES[4], op, |_| {
                comm.all_to_all_into(&mut st.outgoing, &mut st.incoming)
            });
            rec.span(REPLAY_STAGES[5], op, |_| {
                for sl in 0..s_per {
                    st.z.clear();
                    for part in &st.incoming {
                        st.z.extend_from_slice(&part[sl * blocks..(sl + 1) * blocks]);
                    }
                    self.seg_fft.forward_scaled_with(
                        &mut st.z,
                        &mut st.aux,
                        &self.demod,
                        &mut st.six,
                    );
                    st.y[sl * m..(sl + 1) * m].copy_from_slice(&st.z[..m]);
                }
            });
            for buf in st.incoming.drain(..) {
                comm.recycle_buffer(buf);
            }
        });
        comm.stats_mut().clear_records();
    }
}

/// What the traced run of a distributed workload produced.
#[derive(Debug, Default)]
pub struct InSitu {
    /// Median latency of the untraced block.
    pub untraced_p50_s: f64,
    /// Median latency of the traced block.
    pub traced_p50_s: f64,
    /// Per [`PHASES`] entry: median over operations of the max over ranks.
    pub phase_s: [f64; 6],
    /// Per [`REPLAY_STAGES`] entry, likewise (zeros without a replay).
    pub replay_s: [f64; 6],
    /// Counts from the untraced block, per operation.
    pub counts: Counts,
    /// Span lists, one per rank thread.
    pub spans: Vec<(String, Vec<Span>)>,
    /// One line per violated check.
    pub failures: Vec<String>,
}

/// Exact per-operation counts from `Comm::stats()`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Σ ranks messages sent ÷ operations.
    pub messages_per_transform: f64,
    /// Σ ranks transport staging allocations ÷ operations.
    pub comm_allocs_per_transform: f64,
    /// Σ ranks link-layer retransmits over the whole run.
    pub retransmits: f64,
    /// Σ ranks TCP reconnects over the whole run.
    pub link_reconnects: f64,
    /// Median `(max − min rank end) ÷ latency`.
    pub rank_skew_frac: f64,
}

impl InSitu {
    /// `1 − Σ phases ÷ traced p50`: the share of a transform the program's
    /// own ledger does not account for.
    pub fn unexplained_frac(&self) -> f64 {
        1.0 - self.phase_s.iter().sum::<f64>() / self.traced_p50_s
    }

    /// `1 − Σ isolated stages ÷ traced p50`.
    pub fn replay_residual_frac(&self) -> f64 {
        1.0 - self.replay_s.iter().sum::<f64>() / self.traced_p50_s
    }

    /// `traced p50 ÷ untraced p50 − 1`.
    pub fn trace_overhead_frac(&self) -> f64 {
        self.traced_p50_s / self.untraced_p50_s - 1.0
    }
}

#[derive(Default)]
struct RankTrace {
    untraced: Timeline,
    traced: Timeline,
    phases: Vec<[f64; 6]>,
    replay: Vec<[f64; 6]>,
    messages: u64,
    allocs: u64,
    retransmits: u64,
    reconnects: u64,
    spans: Vec<Span>,
    replay_matches: bool,
}

/// The traced run: `ops` untraced operations, then the program's own
/// tracing is switched on (what `ClusterConfig::with_trace()` does at
/// launch) for `ops` traced operations with a span around each composed
/// call and the in-situ phase ledger read after each, then `replay_rounds`
/// isolated replays when `replay` is given.
pub fn run_traced<X: Transform>(
    xf: &X,
    fabric: Fabric,
    input: &[c64],
    ops: usize,
    call_name: &'static str,
    replay: Option<(&SoiReplay, usize)>,
) -> InSitu {
    let ranks = xf.procs();
    let per = xf.n() / ranks;
    let origin = Instant::now();
    let per_rank = launch(fabric, ranks, |comm| {
        let r = comm.rank();
        let x = &input[r * per..(r + 1) * per];
        let mut out = RankTrace::default();
        let mut rec = Recorder::new(origin);
        let mut ws = xf.make_ws();
        let mut y = vec![c64::ZERO; per];
        xf.forward(comm, x, &mut ws, &mut y);
        xf.forward(comm, x, &mut ws, &mut y);
        comm.stats_mut().clear_records();

        let messages0 = comm.stats().messages_sent();
        let allocs0 = comm.stats().comm_allocs();
        for _ in 0..ops {
            comm.barrier();
            out.untraced
                .timed(origin, || xf.forward(comm, x, &mut ws, &mut y));
            comm.stats_mut().clear_records();
        }
        out.messages = comm.stats().messages_sent() - messages0;
        out.allocs = comm.stats().comm_allocs() - allocs0;

        comm.stats_mut().enable_trace(origin);
        let mut seen = 0;
        for i in 0..ops {
            comm.barrier();
            out.traced.timed(origin, || {
                rec.span(call_name, i as u64, |_| {
                    xf.forward(comm, x, &mut ws, &mut y)
                })
            });
            let stats = comm.stats();
            let events = stats.trace_events();
            let pack: f64 = events[seen..]
                .iter()
                .filter(|e| e.name == "pack")
                .map(|e| e.dur_s)
                .sum();
            seen = events.len();
            out.phases.push(PHASES.map(|name| {
                if name == "pack" {
                    pack
                } else {
                    stats.seconds_in(name)
                }
            }));
            comm.stats_mut().clear_records();
        }

        out.replay_matches = true;
        if let Some((replay, rounds)) = replay {
            let mut st = replay.state();
            for j in 0..rounds {
                comm.barrier();
                replay.round(comm, &mut rec, (ops + j) as u64, x, &mut st);
                out.replay
                    .push(REPLAY_STAGES.map(|name| rec.last_seconds(name)));
            }
            out.replay_matches = checksum(&st.y) == checksum(&y);
        }
        out.retransmits = comm.stats().retransmits();
        out.reconnects = comm.stats().link_reconnects();
        out.spans = rec.into_spans();
        out
    });

    // Median over operations of the max over ranks, per column.
    let reduce = |rows: &dyn Fn(&RankTrace) -> &Vec<[f64; 6]>| -> [f64; 6] {
        let count = rows(&per_rank[0]).len();
        let mut out = [0.0; 6];
        if count == 0 {
            return out;
        }
        for (c, slot) in out.iter_mut().enumerate() {
            let per_op: Vec<f64> = (0..count)
                .map(|i| per_rank.iter().map(|o| rows(o)[i][c]).fold(0.0, f64::max))
                .collect();
            *slot = median(&per_op);
        }
        out
    };
    let (untraced, skew) =
        merge_latencies(&per_rank.iter().map(|o| &o.untraced).collect::<Vec<_>>());
    let (traced, _) = merge_latencies(&per_rank.iter().map(|o| &o.traced).collect::<Vec<_>>());
    let sum = |f: &dyn Fn(&RankTrace) -> u64| per_rank.iter().map(f).sum::<u64>() as f64;
    let mut failures = Vec::new();
    if per_rank.iter().any(|o| !o.replay_matches) {
        failures.push("stage replay output differs from forward_into output".to_string());
    }
    InSitu {
        untraced_p50_s: median(&untraced),
        traced_p50_s: median(&traced),
        phase_s: reduce(&|o| &o.phases),
        replay_s: reduce(&|o| &o.replay),
        counts: Counts {
            messages_per_transform: sum(&|o| o.messages) / ops as f64,
            comm_allocs_per_transform: sum(&|o| o.allocs) / ops as f64,
            retransmits: sum(&|o| o.retransmits),
            link_reconnects: sum(&|o| o.reconnects),
            rank_skew_frac: skew,
        },
        spans: per_rank
            .into_iter()
            .enumerate()
            .map(|(r, o)| (format!("rank {r}"), o.spans))
            .collect(),
        failures,
    }
}
