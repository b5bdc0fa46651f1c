//! The distributed SOI FFT pipeline (Fig 2): one stage sequence, and the
//! hooks that ride on it.
//!
//! Every transform entry point on [`SoiFft`] is a configuration of one
//! private executor over a [`SoiWorkspace`]. Per rank, in order, with each
//! phase recorded in the rank's [`soifft_cluster::CommStats`]:
//!
//! | stage | ledger phase | what it does |
//! |---|---|---|
//! | ghost | `ghost` | receive `(B−d_µ)·L` elements from the successor rank (tens of KB; the latency-bound nearest-neighbour step of §5.1) |
//! | front | `convolution`, `segment-fft` | `u = W x` on the extended local input, then an `L`-point FFT per output block (`I_{M'} ⊗ F_L`) — one fused sweep when planned |
//! | pack | (`pack` span) | one sweep over `u`, scattering each destination's segment parts in the planned wire format |
//! | exchange | `all-to-all` | the single `Perm_{L,N'}` exchange — monolithic, chunk-pipelined, proxied, or split per segment so later exchanges overlap earlier segments' recovery (§6.1's multi-segment trick) |
//! | verify | (`sdc-verify` span) | re-check what was gathered against the senders' checksum tags |
//! | recover | `local-fft` | `F_{M'}` per owned segment with the demodulation `W⁻¹` fused into the final write-back (§5.2.4), keeping the first `M` bins |
//!
//! The output is the natural-order spectrum, block-distributed: rank `r`
//! ends with `y[r·N/P .. (r+1)·N/P)`.
//!
//! Everything else is a hook applied at stage boundaries by one piece of
//! code each, switched by the plan or by the entry point's `Run`:
//!
//! | hook | switched by | where |
//! |---|---|---|
//! | asserts, cost model, `superstep` span, plan-cache gauges | always | `execute` |
//! | typed errors + bounded retry | `try_*` (an [`ExchangePolicy`]) | `ghost`, `exchange` |
//! | cancellation | [`CancelGate`] | `gate`, before each collective |
//! | crash points | a fault plan | `front`, at each phase entry |
//! | checkpoint restore-or-run-then-save | a [`RecoveryCtx`] | `restore` / `save` around every stage |
//! | ABFT guard → verify → repair | [`ValidationPolicy`] | `guarded` (phase buffers), `verify_incoming` (gathered parts), `save` (snapshot images) |
//! | precision | [`Precision`] | the wire format of `pack_tile` / `recover_segment` |
//! | tracing | the communicator | the spans and phase records above |

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

use soifft_cluster::stats::PhaseToken;
use soifft_cluster::{
    checksum, BitFlipSite, CheckpointStore, Cluster, ClusterConfig, Comm, CommError, CommStats,
    ExchangePolicy, RankOutcome, RecoveryCtx, RecoveryOutcome, RestartPolicy, Supervisor,
    ValidationPolicy,
};
use soifft_fft::{batch, Plan, SixStepFft, SixStepScratch, SixStepVariant};
use soifft_num::{c32, c64};
use soifft_par::Pool;

use crate::conv::{
    convolve_fused_fft_with_scratch, convolve_with_scratch, ConvScratch, ConvStrategy,
};
use crate::params::{SoiError, SoiParams};
use crate::verify;
use crate::window::{Window, WindowKind};

/// How the all-to-all is performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangePlan {
    /// One monolithic exchange (longest messages, no overlap) — the
    /// paper's few-segments/many-nodes setting.
    Monolithic,
    /// Split into chunks of the given element count, sent round-robin
    /// (§5.1 pipelining).
    Chunked(usize),
    /// One exchange per local segment index; segment `σ`'s recovery FFT
    /// runs before segment `σ+1`'s exchange, the §6.1 overlap structure.
    PerSegment,
    /// Send-ahead with polling receives: ALL segments' packets are posted
    /// up front, then each segment is recovered as soon as its last packet
    /// arrives (non-blocking `try_recv` polling between FFTs). The closest
    /// software analogue of the paper's overlapped multi-segment mode on a
    /// transport without true asynchrony.
    Overlapped,
    /// Route the exchange through the §5.1 reverse-communication proxy
    /// core: a dedicated background worker stages each chunk (the PCIe DMA
    /// stand-in) and pushes it to the wire, pipelined chunk-by-chunk.
    /// Uniform segment layouts only.
    Proxied(usize),
}

/// Arithmetic and wire precision of the pipeline's back half (the
/// all-to-all payload and the per-segment recovery `F_{M'}`).
///
/// The front end (ghost exchange, convolution, block DFTs) always runs in
/// double precision — the window's stopband depth is what the whole
/// algorithm's accuracy rests on. What `Precision` selects is what happens
/// from the exchange frontier on:
///
/// * [`Precision::F64`] — double precision end to end (the paper's native
///   format). The default.
/// * [`Precision::F32`] — the frontier is demoted to `c32` once, the
///   all-to-all ships **half-width** payloads (two `c32` bit-packed per
///   `c64` wire element, so message volume halves without touching the
///   transport), and the recovery `F_{M'}` plus demodulation run in single
///   precision ([`soifft_fft::shared_plan_f32`]). Cheapest, noisiest:
///   accuracy is bounded by the f32 FFT (~1e-6 relative).
/// * [`Precision::Split`] — the same half-width exchange as `F32`, but
///   receivers promote the payload back to `c64` and the fused six-step
///   `F_{M'}` + demodulation run in double precision. The only
///   single-precision event is the one frontier quantization, so accuracy
///   sits between `F32` and `F64` (~1e-7 relative, transport-limited).
///
/// Only the pack stage's wire format and the recover stage's arithmetic
/// know the precision, so it applies to every transform entry point,
/// [`ExchangePlan`] and [`ConvStrategy`] alike — resilient, cancellable,
/// checkpointed and degraded-mode runs included, with bits equal to the
/// fault-free run's. Checksum tags, retransmit staging and `"all-to-all"`
/// checkpoints carry the wire elements as shipped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Double precision end to end (default).
    #[default]
    F64,
    /// Single-precision exchange payload and recovery FFT.
    F32,
    /// Single-precision exchange payload, double-precision recovery
    /// (f32 transport, f64 accumulate).
    Split,
}

impl Precision {
    /// All supported precisions, for test/bench sweeps.
    pub const ALL: [Precision; 3] = [Precision::F64, Precision::F32, Precision::Split];

    /// True when the exchange ships the bit-packed half-width payload.
    pub fn half_width_exchange(self) -> bool {
        self != Precision::F64
    }
}

/// Frontier rows (blocks) per pack tile: `16·L` elements, 4 KB at `L = 16`
/// — L1-resident while its columns are scattered, and 256 contiguous bytes
/// per destination stream. Even, so half-width pairs never straddle tiles.
const PACK_ROWS: usize = 16;

/// Bit-packs two `c32` into one `c64` wire element. Pure bit moves: the
/// transport only copies (or byte-serializes) `c64` buffers, so arbitrary
/// bit patterns — including ones that would be NaNs if interpreted as
/// `f64` — survive the trip unchanged.
#[inline]
fn pack_c32_pair(a: c32, b: c32) -> c64 {
    c64::new(
        f64::from_bits(((a.re.to_bits() as u64) << 32) | a.im.to_bits() as u64),
        f64::from_bits(((b.re.to_bits() as u64) << 32) | b.im.to_bits() as u64),
    )
}

/// Appends the `blocks` `c32` values of one half-width part to `out`
/// (dropping the zero pad element when `blocks` is odd), through the
/// dispatched unpack kernel — the receive side touches the whole
/// frontier, so this copy is bandwidth that matters.
fn unpack_part_into(part: &[c64], blocks: usize, out: &mut Vec<c32>) {
    let start = out.len();
    out.resize(start + blocks, c32::ZERO);
    soifft_num::simd::unpack_c32_pairs(part, &mut out[start..]);
}

/// Virtual-time rates for a modeled target machine (DESIGN.md §1): when
/// installed via [`SoiFft::with_sim`], every phase of a functional run is
/// annotated with the seconds it would take at these rates — wall-clock
/// correctness from the simulation, paper-scale timing from the model, in
/// one ledger.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimSpec {
    /// Effective node-local FFT rate (efficiency × peak), flops/s.
    pub fft_flops_per_s: f64,
    /// Effective convolution rate, flops/s.
    pub conv_flops_per_s: f64,
    /// Per-rank injection bandwidth, bytes/s.
    pub net_bytes_per_s: f64,
    /// Per-exchange latency floor, seconds.
    pub net_latency_s: f64,
}

/// Phase names of the recoverable SOI pipeline: the checkpoint keys used
/// by [`SoiFft::try_forward_recoverable`] in the supervisor's
/// [`CheckpointStore`], and the labels accepted by
/// [`CrashSite::Phase`](soifft_cluster::CrashSite::Phase) crash plans.
pub mod phases {
    /// Ghost exchange result (the successor rank's input prefix).
    pub const GHOST: &str = "ghost";
    /// Post-convolution `u = W x` (non-fused pipelines only — the fused
    /// form has no standalone convolution boundary).
    pub const CONVOLUTION: &str = "convolution";
    /// `u` after the block DFTs (`I ⊗ F_L`) — the exchange frontier.
    pub const SEGMENT_FFT: &str = "segment-fft";
    /// The flattened all-to-all result (everything this rank needs to
    /// recover its segments without further communication).
    pub const ALL_TO_ALL: &str = "all-to-all";
}

/// A distributed SOI run that could not complete: which pipeline phase
/// failed, the underlying [`CommError`], and the partial [`CommStats`]
/// ledger accumulated up to the failure (so a chaos harness or operator
/// can still see how far the superstep got and what it cost).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SoiRunError {
    /// Pipeline phase that failed (`"ghost"`, `"all-to-all"`, or
    /// `"checkpoint"` when a recovery resume found its snapshot missing or
    /// corrupt).
    pub phase: &'static str,
    /// The communication failure.
    pub error: CommError,
    /// This rank's ledger at the moment of failure (boxed to keep the
    /// error small enough to move through `Result` cheaply).
    pub stats: Box<CommStats>,
}

impl SoiRunError {
    /// `error` at `phase`, with the rank's ledger so far.
    fn at(comm: &Comm, phase: &'static str, error: CommError) -> Self {
        let stats = Box::new(comm.stats().clone());
        SoiRunError {
            phase,
            error,
            stats,
        }
    }
}

impl std::fmt::Display for SoiRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SOI pipeline failed in {} phase: {}",
            self.phase, self.error
        )
    }
}

impl std::error::Error for SoiRunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Cooperative cancellation token for
/// [`SoiFft::try_forward_into_cancellable`], shared by every rank of one
/// superstep (and by whoever may cancel it — a serving dispatcher's
/// deadline watchdog, a drain path, an operator).
///
/// The hazard with cancelling a *collective* pipeline is divergence: if
/// each rank polled a plain flag, a cancel landing mid-phase could let
/// rank 0 enter the all-to-all while rank 1 aborts — and the survivors
/// would hang waiting for a peer that already left. `CancelGate` prevents
/// this with a decide-once slot per collective boundary: the first rank
/// to reach the boundary atomically fixes the decision (proceed or
/// cancel) from the flag's state at that instant, and every later rank
/// obeys the recorded decision rather than re-reading the flag. All ranks
/// therefore take the same collective path, with no extra communication.
///
/// A gate covers exactly one superstep. Call [`CancelGate::reset`] only
/// between supersteps, once no rank can still be inside the previous one
/// (the serving engine does this at batch boundaries, behind its own
/// barrier).
#[derive(Debug, Default)]
pub struct CancelGate {
    /// The request: sticky until [`CancelGate::reset`].
    cancelled: AtomicBool,
    /// Decide-once slot per collective boundary.
    decisions: [AtomicU8; 2],
}

impl CancelGate {
    /// Boundary index: before the ghost exchange.
    const BOUNDARY_GHOST: usize = 0;
    /// Boundary index: before the all-to-all.
    const BOUNDARY_ALL_TO_ALL: usize = 1;
    /// The phase a cancellation at each boundary is reported under.
    const PHASES: [&'static str; 2] = [phases::GHOST, phases::ALL_TO_ALL];

    const UNDECIDED: u8 = 0;
    const PROCEED: u8 = 1;
    const CANCEL: u8 = 2;

    /// A fresh, un-cancelled gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Takes effect at the next collective boundary
    /// whose decision is not yet fixed; boundaries already decided
    /// `proceed` run to completion. Idempotent.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested (not whether any boundary
    /// has acted on it yet).
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// Re-arms the gate for the next superstep: clears the request and all
    /// boundary decisions. Caller must guarantee no rank is still inside
    /// the previous superstep.
    pub fn reset(&self) {
        self.cancelled.store(false, Ordering::Release);
        for slot in &self.decisions {
            slot.store(Self::UNDECIDED, Ordering::Release);
        }
    }

    /// Fixes (or reads) the decision at `boundary`; `true` means proceed
    /// into the collective.
    fn proceed_at(&self, boundary: usize) -> bool {
        let wish = if self.is_cancelled() {
            Self::CANCEL
        } else {
            Self::PROCEED
        };
        match self.decisions[boundary].compare_exchange(
            Self::UNDECIDED,
            wish,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => wish == Self::PROCEED,
            Err(decided) => decided == Self::PROCEED,
        }
    }
}

/// The result of a supervised, checkpointing SOI run
/// ([`SoiFft::forward_recovered`]): every rank's output, present even when
/// rank incarnations died along the way.
#[derive(Clone, Debug)]
pub struct RecoveredRun {
    /// Per-rank output slices, indexed by rank (natural order, exactly as
    /// [`SoiFft::forward`] would have returned them).
    pub outputs: Vec<Vec<c64>>,
    /// Per-rank communication ledgers. A rank that died mid-epoch keeps
    /// the ledger of its final incarnation; degraded-mode recompute work is
    /// absorbed into the ledger of the survivor that performed it.
    pub stats: Vec<CommStats>,
    /// How the run completed — [`RecoveryOutcome::None`] for a clean run,
    /// [`RecoveryOutcome::Recovered`] when restarts or degraded-mode
    /// recomputation were needed. Mirrored into every ledger in `stats`.
    pub recovery: RecoveryOutcome,
}

/// One rank's preallocated working set for the SOI pipeline, planned by
/// [`SoiFft::make_workspace`] and threaded through
/// [`SoiFft::forward_into`] (and the `try_*_into` variants): the extended
/// input staging, the convolution output `u` and its per-worker scratch,
/// the segment-FFT worker scratch, the pack/unpack exchange slots, and
/// the per-segment recovery buffers (assembly, six-step aux and scratch).
///
/// Reusing one workspace across back-to-back transforms is what makes the
/// steady-state hot path allocation-free on the default configuration:
/// every buffer is sized at plan time, exchange payloads cycle through
/// the communicator's pool ([`Comm::acquire_buffer`] /
/// [`Comm::recycle_buffer`]), and after a warmup call the pipeline
/// touches the allocator zero times per [`SoiFft::forward_into`] call
/// (see `tests/alloc_steady_state.rs`).
#[derive(Clone, Debug)]
pub struct SoiWorkspace {
    /// Local input extended with the ghost prefix (`per_rank + ghost_len`).
    input_ext: Vec<c64>,
    /// Post-convolution / post-block-DFT frontier (`blocks · L`).
    u: Vec<c64>,
    /// Convolution scratch (the fused front end's per-worker `F_L` scratch).
    conv: ConvScratch,
    /// One row-FFT scratch per pool worker for the block DFTs.
    seg_workers: Vec<Vec<c64>>,
    /// Per-destination pack slots; refilled from the pool each call and
    /// moved onto the wire by the exchange.
    outgoing: Vec<Vec<c64>>,
    /// Received exchange payloads; recycled into the pool after recovery.
    incoming: Vec<Vec<c64>>,
    /// Assembled segment `z_s` (`M'`).
    z: Vec<c64>,
    /// Six-step auxiliary buffer (`M'`).
    aux: Vec<c64>,
    /// Six-step internal scratch for the recovery FFTs.
    seg_scratch: SixStepScratch,
    /// Assembled low-precision segment (`M'`); empty unless the plan's
    /// [`Precision`] ships the half-width exchange.
    z32: Vec<c32>,
    /// Scratch for the `f32` recovery plan ([`Precision::F32`] only).
    fft32_scratch: Vec<c32>,
}

/// The hooks one superstep runs with ([`SoiFft::execute`]); all `None` is
/// the plain infallible transform.
#[derive(Clone, Copy, Default)]
struct Run<'a> {
    /// Communication goes through the typed, round-retrying collectives.
    policy: Option<&'a ExchangePolicy>,
    /// Polled before each collective.
    gate: Option<&'a CancelGate>,
    /// Phase boundaries snapshot into, and resume from, this context's
    /// [`CheckpointStore`].
    ckpt: Option<&'a RecoveryCtx>,
}

impl Run<'_> {
    /// Whether `phase` is globally committed in the frozen list every rank
    /// of this epoch sees.
    fn committed(&self, phase: &'static str) -> bool {
        self.ckpt.is_some_and(|ctx| ctx.committed(phase))
    }
}

/// A planned distributed SOI transform. Plan once (collectively — every
/// rank constructs the same plan), call [`SoiFft::forward`] inside a
/// cluster closure. Plans are `Clone`, so one rank can plan and others
/// adapt a copy (e.g. per-rank [`SimSpec`]s).
///
/// # Example
///
/// ```
/// use soifft_cluster::Cluster;
/// use soifft_core::{Rational, SoiFft, SoiParams};
/// use soifft_num::c64;
///
/// let params = SoiParams {
///     n: 4096,
///     procs: 4,
///     segments_per_proc: 2,
///     mu: Rational::new(2, 1),
///     conv_width: 16,
/// };
/// let fft = SoiFft::new(params).unwrap();
/// let per = params.per_rank();
/// let x: Vec<c64> = (0..params.n).map(|i| c64::real(i as f64)).collect();
/// let slices: Vec<Vec<c64>> =
///     x.chunks(per).map(|s| s.to_vec()).collect();
/// let outputs = Cluster::run(params.procs, |comm| {
///     fft.forward(comm, &slices[comm.rank()]) // ONE all-to-all inside
/// });
/// assert_eq!(outputs.len(), 4);
/// assert_eq!(outputs[0].len(), per);
/// ```
#[derive(Clone)]
pub struct SoiFft {
    params: SoiParams,
    window: Arc<Window>,
    plan_l: Arc<Plan>,
    segment_fft: SixStepFft,
    demod_scale: Vec<c64>,
    strategy: ConvStrategy,
    exchange: ExchangePlan,
    precision: Precision,
    /// `f32` recovery plan for `F_{M'}` ([`Precision::F32`] only).
    plan_mp32: Option<Arc<Plan<f32>>>,
    /// Demodulation diagonal demoted to `c32` ([`Precision::F32`] only).
    demod_scale32: Vec<c32>,
    pool: Pool,
    sim: Option<SimSpec>,
    fuse_segment_fft: bool,
    validation: ValidationPolicy,
    /// Segments owned by each rank (uniform `S` by default; heterogeneous
    /// for mixed Xeon/Phi clusters per §6.1's load-balance rule).
    seg_counts: Vec<usize>,
    /// Prefix sums of `seg_counts`: global id of rank `q`'s first segment.
    seg_base: Vec<usize>,
}

impl SoiFft {
    /// Plans the transform for `params` with the default Gaussian-sinc
    /// window.
    pub fn new(params: SoiParams) -> Result<Self, SoiError> {
        Self::with_window(params, WindowKind::GaussianSinc)
    }

    /// Plans with an explicit window family.
    ///
    /// Construction consults the process-wide [`crate::wisdom`] registry
    /// for this `(N, P, F64)` shape: when a tuning run has installed
    /// execution knobs, they replace the static defaults (strategy,
    /// exchange, fusion — never the shape). Builder calls made after
    /// construction still override wisdom; [`SoiFft::with_precision`]
    /// re-consults under the new precision key.
    pub fn with_window(params: SoiParams, kind: WindowKind) -> Result<Self, SoiError> {
        params.validate()?;
        let window = Arc::new(Window::new(kind, &params));
        let m = params.m();
        let m_prime = params.m_prime();
        let mut demod_scale = vec![c64::ZERO; m_prime];
        demod_scale[..m].copy_from_slice(&window.demod()[..m]);
        let counts = vec![params.segments_per_proc; params.procs];
        let base = prefix_sums(&counts);
        let tuned = crate::wisdom::lookup(&crate::wisdom::WisdomKey {
            n: params.n,
            procs: params.procs,
            precision: Precision::F64,
        });
        let fft = SoiFft {
            // `F_L` comes from the process-wide plan cache: every rank of
            // a simulated cluster shares the same segment count, so all
            // ranks share one twiddle table.
            plan_l: soifft_fft::shared_plan(params.total_segments()),
            segment_fft: SixStepFft::new(m_prime, SixStepVariant::FusedDynamic),
            demod_scale,
            window,
            params,
            strategy: ConvStrategy::InterchangedBuffered,
            exchange: ExchangePlan::Monolithic,
            precision: Precision::F64,
            plan_mp32: None,
            demod_scale32: Vec::new(),
            pool: Pool::serial(),
            sim: None,
            fuse_segment_fft: false,
            validation: ValidationPolicy::Off,
            seg_counts: counts,
            seg_base: base,
        };
        Ok(match tuned {
            Some(exec) => fft.with_tuned_exec(exec),
            None => fft,
        })
    }

    /// Applies tuned execution knobs (wisdom): strategy, exchange plan and
    /// front-end fusion. Never touches the shape.
    pub fn with_tuned_exec(mut self, exec: crate::wisdom::TunedExec) -> Self {
        self.strategy = exec.strategy;
        self.exchange = exec.exchange;
        if exec.fused {
            self = self.with_fused_segment_fft();
        } else {
            self.fuse_segment_fft = false;
        }
        self
    }

    /// Assigns a heterogeneous number of segments to each rank (the §6.1
    /// load-balance rule for mixed clusters: "1 segment per socket of Xeon
    /// E5-2680 and 6 segments per Xeon Phi"). `counts` must have one entry
    /// per rank and sum to `total_segments()`; rank `q`'s output is then
    /// `counts[q]·M` elements covering its contiguous segment range.
    ///
    /// # Panics
    /// Panics if the counts do not partition the segments.
    pub fn with_segment_counts(mut self, counts: Vec<usize>) -> Self {
        assert_eq!(counts.len(), self.params.procs, "one count per rank");
        assert_eq!(
            counts.iter().sum::<usize>(),
            self.params.total_segments(),
            "counts must sum to L"
        );
        self.seg_base = prefix_sums(&counts);
        self.seg_counts = counts;
        self
    }

    /// This rank's output length (`counts[rank]·M`; uniform layouts give
    /// `N/P`).
    pub fn output_len(&self, rank: usize) -> usize {
        self.seg_counts[rank] * self.params.m()
    }

    /// Selects the convolution strategy.
    pub fn with_strategy(mut self, strategy: ConvStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Selects the all-to-all plan.
    pub fn with_exchange(mut self, exchange: ExchangePlan) -> Self {
        self.exchange = exchange;
        self
    }

    /// Selects the wire/arithmetic [`Precision`] of the exchange and
    /// recovery half of the pipeline. `F32` additionally plans the `f32`
    /// recovery `F_{M'}` (from the process-wide single-precision plan
    /// cache) and demotes the demodulation diagonal once, here at plan
    /// time.
    ///
    /// Re-consults the [`crate::wisdom`] registry under the new
    /// `(N, P, precision)` key — a tuning run may have found different
    /// execution knobs for the half-width exchange than for full-width —
    /// so call `with_precision` *before* manual strategy/exchange
    /// overrides when combining both.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        if let Some(exec) = crate::wisdom::lookup(&crate::wisdom::WisdomKey {
            n: self.params.n,
            procs: self.params.procs,
            precision,
        }) {
            self = self.with_tuned_exec(exec);
        }
        if precision == Precision::F32 {
            self.plan_mp32 = Some(soifft_fft::shared_plan_f32(self.params.m_prime()));
            self.demod_scale32 = self.demod_scale.iter().map(|&v| c32::from_c64(v)).collect();
        } else {
            self.plan_mp32 = None;
            self.demod_scale32 = Vec::new();
        }
        self
    }

    /// The planned [`Precision`].
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// The planned convolution strategy.
    pub fn strategy(&self) -> ConvStrategy {
        self.strategy
    }

    /// The planned all-to-all plan.
    pub fn exchange(&self) -> ExchangePlan {
        self.exchange
    }

    /// True when the block DFTs are fused into the convolution sweep.
    pub fn fused_segment_fft(&self) -> bool {
        self.fuse_segment_fft
    }

    /// Selects the intra-node pool.
    pub fn with_pool(mut self, pool: Pool) -> Self {
        self.pool = pool;
        self
    }

    /// Installs virtual-time rates: phases of subsequent runs carry
    /// `sim_seconds` for the modeled machine alongside wall clock.
    pub fn with_sim(mut self, sim: SimSpec) -> Self {
        self.sim = Some(sim);
        self
    }

    /// Selects the silent-data-corruption defense (ABFT) level. `Off`
    /// (the default) runs no invariant checks; `CheckOnly` verifies the
    /// phase-boundary invariants of [`crate::verify`] and surfaces the
    /// first violation as
    /// [`CommError::SilentCorruption`]; `Recover` additionally re-executes
    /// only the flagged phase or segment on the owning rank, up to
    /// [`verify::RETRY_BUDGET`] attempts, before escalating. Detection and
    /// repair events land in the rank's [`CommStats`] SDC counters.
    ///
    /// The fused front end ([`SoiFft::with_fused_segment_fft`]) has no
    /// standalone convolution boundary, so its per-phase Parseval check is
    /// unavailable; validation there falls back to a whole-front-end
    /// checksum guard plus the machinery linearity probe.
    pub fn with_validation(mut self, validation: ValidationPolicy) -> Self {
        self.validation = validation;
        self
    }

    /// Fuses the block DFTs (`I ⊗ F_L`) into the convolution loop (§5.3's
    /// sweep-saving fusion). Forces the row-major convolution form — the
    /// paper notes the fusion cannot apply to the decomposed form.
    pub fn with_fused_segment_fft(mut self) -> Self {
        self.fuse_segment_fft = true;
        self.strategy = ConvStrategy::RowMajor;
        self
    }

    /// The planned parameters.
    pub fn params(&self) -> &SoiParams {
        &self.params
    }

    /// The planned window.
    pub fn window(&self) -> &Arc<Window> {
        &self.window
    }

    /// Plans this transform's reusable working set: every buffer the
    /// pipeline touches per call, sized for this plan's parameters and
    /// pool, allocated once. Thread it through [`SoiFft::forward_into`]
    /// (or [`SoiFft::try_forward_into`] /
    /// [`SoiFft::try_forward_into_cancellable`]) to run back-to-back
    /// transforms without per-call allocation.
    pub fn make_workspace(&self) -> SoiWorkspace {
        let p = &self.params;
        let l = p.total_segments();
        let blocks = p.blocks_per_rank();
        let m_prime = p.m_prime();
        SoiWorkspace {
            input_ext: Vec::with_capacity(p.per_rank() + p.ghost_len()),
            u: vec![c64::ZERO; blocks * l],
            conv: ConvScratch::new(p, &self.plan_l, &self.pool),
            seg_workers: batch::make_worker_scratch(&self.plan_l, &self.pool),
            outgoing: vec![Vec::new(); p.procs],
            incoming: Vec::with_capacity(p.procs),
            z: Vec::with_capacity(m_prime),
            aux: vec![c64::ZERO; m_prime],
            seg_scratch: self.segment_fft.make_scratch(),
            z32: Vec::with_capacity(if self.precision.half_width_exchange() {
                m_prime
            } else {
                0
            }),
            fft32_scratch: match &self.plan_mp32 {
                Some(plan) => plan.make_scratch(),
                None => Vec::new(),
            },
        }
    }

    /// Computes this rank's slice of `y = F_N x`.
    ///
    /// `local_input` is rank `r`'s `x[r·N/P .. (r+1)·N/P)`; the return
    /// value is `y[r·N/P .. (r+1)·N/P)` (natural order).
    ///
    /// Thin wrapper over [`SoiFft::forward_into`] that owns a fresh
    /// [`SoiWorkspace`] and output buffer for one call; iterated callers
    /// should plan the workspace once and use the `_into` form (or
    /// [`SoiFft::forward_many`]) to keep the steady state allocation-free.
    pub fn forward(&self, comm: &mut Comm, local_input: &[c64]) -> Vec<c64> {
        let mut ws = self.make_workspace();
        let mut y = vec![c64::ZERO; self.output_len(comm.rank())];
        self.forward_into(comm, local_input, &mut ws, &mut y);
        y
    }

    /// [`SoiFft::forward`] against a caller-planned [`SoiWorkspace`] and
    /// output slice (`y.len() == output_len(rank)`). Bit-identical to
    /// [`SoiFft::forward`]; on the default configuration a warm workspace
    /// makes the whole call allocation-free (exchange payloads cycle
    /// through the communicator's buffer pool).
    ///
    /// The infallible API has no typed error channel, so a communication
    /// failure or an unrepairable silent-corruption detection surfaces as
    /// a rank panic; use [`SoiFft::try_forward`] for structured reports.
    pub fn forward_into(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        ws: &mut SoiWorkspace,
        y: &mut [c64],
    ) {
        self.execute(comm, local_input, ws, y, Run::default())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Throughput (batch) mode: runs `inputs.len()` back-to-back
    /// transforms through one planned workspace — transform `b` consumes
    /// `inputs[b]` (this rank's slice) and yields `outputs[b]`. After the
    /// first call warms the workspace and the communicator's buffer pool,
    /// each remaining transform runs the whole pipeline without touching
    /// the allocator (default configuration), which is where the
    /// throughput gain over repeated [`SoiFft::forward`] calls comes
    /// from — the per-call working set is bandwidth, not heap churn.
    pub fn forward_many(&self, comm: &mut Comm, inputs: &[Vec<c64>]) -> Vec<Vec<c64>> {
        let mut ws = self.make_workspace();
        let mut outputs = vec![Vec::new(); inputs.len()];
        self.forward_many_into(comm, inputs, &mut ws, &mut outputs);
        outputs
    }

    /// [`SoiFft::forward_many`] against a caller-planned workspace and
    /// output set — the fully planned serving shape: `outputs[b]` is
    /// resized to `output_len(rank)` if needed, so a reused output ring
    /// costs nothing after its first batch and the warm steady state is
    /// bandwidth-bound, not heap-bound (the §5.3 argument applied to
    /// serving).
    pub fn forward_many_into(
        &self,
        comm: &mut Comm,
        inputs: &[Vec<c64>],
        ws: &mut SoiWorkspace,
        outputs: &mut [Vec<c64>],
    ) {
        assert_eq!(inputs.len(), outputs.len(), "one output slot per input");
        let out_len = self.output_len(comm.rank());
        for (x, y) in inputs.iter().zip(outputs.iter_mut()) {
            y.resize(out_len, c64::ZERO);
            self.forward_into(comm, x, ws, y);
        }
    }

    /// Fault-tolerant forward transform: the same pipeline as
    /// [`SoiFft::forward`], but the superstep's communication retries
    /// transient faults up to `policy`'s round budget (the ghost exchange
    /// through [`Comm::try_exchange_ghost`], the all-to-all through the
    /// consensus-checked [`Comm::all_to_all_resilient`]) and permanent
    /// failures surface as a structured [`SoiRunError`] carrying the
    /// partial [`CommStats`] ledger, instead of panicking or hanging.
    ///
    /// Always uses the monolithic exchange form (the resilient collective
    /// re-sends whole rounds; chunk pipelining and round-based retry do not
    /// compose). Every rank must call this collectively with the same
    /// `policy`.
    pub fn try_forward(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
    ) -> Result<Vec<c64>, SoiRunError> {
        let mut ws = self.make_workspace();
        let mut y = vec![c64::ZERO; self.output_len(comm.rank())];
        self.try_forward_into(comm, local_input, policy, &mut ws, &mut y)?;
        Ok(y)
    }

    /// [`SoiFft::try_forward`] against a caller-planned [`SoiWorkspace`]
    /// and output slice. The fault-free steady state allocates only what
    /// the resilient collective itself must (per-round retransmit staging
    /// and consensus messages — bounded, pool-recycled copies), never the
    /// pipeline's working set.
    pub fn try_forward_into(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
        ws: &mut SoiWorkspace,
        y: &mut [c64],
    ) -> Result<(), SoiRunError> {
        let run = Run {
            policy: Some(policy),
            ..Run::default()
        };
        self.execute(comm, local_input, ws, y, run)
    }

    /// Cancellation-aware [`SoiFft::try_forward_into`]: the same resilient
    /// pipeline, but polling `gate` at each collective boundary (before the
    /// ghost exchange and before the all-to-all). When a boundary *decides*
    /// cancel — once, for every rank; see [`CancelGate`] — the run stops
    /// with `SoiRunError { error: CommError::Cancelled { .. }, .. }`
    /// instead of starting the next collective.
    ///
    /// Every rank must call this collectively with the *same* `gate` (one
    /// gate per superstep; [`CancelGate::reset`] re-arms it between
    /// supersteps). A serving dispatcher uses this to shed a job whose
    /// deadline expired while it was already on the ranks (see
    /// `soifft-serve`).
    pub fn try_forward_into_cancellable(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
        gate: &CancelGate,
        ws: &mut SoiWorkspace,
        y: &mut [c64],
    ) -> Result<(), SoiRunError> {
        let run = Run {
            policy: Some(policy),
            gate: Some(gate),
            ..Run::default()
        };
        self.execute(comm, local_input, ws, y, run)
    }

    /// Checkpointing forward transform for supervised runs: the same
    /// fault-tolerant pipeline as [`SoiFft::try_forward`], but each phase
    /// boundary snapshots its state into the supervisor's
    /// [`CheckpointStore`], and on a respawned epoch the rank *resumes* at
    /// the deepest globally committed phase instead of recomputing from
    /// scratch — restoring its snapshot and skipping the communication the
    /// collective already agreed on. Intended to run under
    /// [`Supervisor::run`] (see [`SoiFft::forward_recovered`]); `ctx` is the
    /// per-epoch recovery context the supervisor passes to each rank.
    ///
    /// The *frozen committed-phase list* decides which collectives re-run
    /// (every rank sees the same list, so every rank takes the same
    /// communication path): a committed `"all-to-all"` skips straight to
    /// the local recovery FFTs; an uncommitted `"ghost"` re-runs the ghost
    /// exchange for everyone, snapshots or not (peers need this rank's
    /// prefix). *Local* state then resumes from this rank's own deepest
    /// snapshot — `"segment-fft"` as-is, `"convolution"` plus a redo of
    /// the block DFTs, else the full front end — committed or not, since a
    /// rank's own snapshot is valid either way and phase `k` is pruned
    /// only once `k+1` commits, which requires this rank's own `k+1` save.
    ///
    /// A restore of committed state that finds its snapshot missing or
    /// corrupt surfaces as
    /// `SoiRunError { phase: "checkpoint", error: CommError::CheckpointCorrupt, .. }`.
    pub fn try_forward_recoverable(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        policy: &ExchangePolicy,
        ctx: &RecoveryCtx,
    ) -> Result<Vec<c64>, SoiRunError> {
        let mut ws = self.make_workspace();
        let mut y = vec![c64::ZERO; self.output_len(comm.rank())];
        let run = Run {
            policy: Some(policy),
            ckpt: Some(ctx),
            ..Run::default()
        };
        self.execute(comm, local_input, &mut ws, &mut y, run)?;
        Ok(y)
    }

    /// The one superstep every transform entry point configures (module
    /// header). Owns the per-superstep bookkeeping around
    /// [`SoiFft::stages`], so the `"superstep"` span closes on errors too.
    fn execute(
        &self,
        comm: &mut Comm,
        x: &[c64],
        ws: &mut SoiWorkspace,
        y: &mut [c64],
        run: Run,
    ) -> Result<(), SoiRunError> {
        let p = &self.params;
        assert_eq!(comm.size(), p.procs, "cluster size != planned procs");
        assert_eq!(x.len(), p.per_rank(), "wrong local input length");
        assert_eq!(y.len(), self.output_len(comm.rank()), "wrong output length");
        if let Some(ctx) = run.ckpt {
            let parties = ctx.store().parties();
            assert_eq!(
                parties, p.procs,
                "checkpoint store sized for a different cluster"
            );
        }

        // Virtual-time accounting, when configured — and *cleared* when
        // not: a plan without a `SimSpec` must not inherit the cost model
        // a previous plan left on this reused `Comm`.
        match self.sim {
            Some(sim) => comm.stats_mut().set_cost_model(soifft_cluster::CostModel {
                bytes_per_s: sim.net_bytes_per_s,
                latency_s: sim.net_latency_s,
            }),
            None => comm.stats_mut().clear_cost_model(),
        }
        comm.stats_mut().span_open("superstep");
        let result = self.stages(comm, x, ws, y, run);
        comm.stats_mut().span_close("superstep");
        publish_plan_cache_gauges(comm);
        result
    }

    /// The stage sequence. Which collectives a rank enters depends only on
    /// `run`, the frozen committed-phase list and the gate's decide-once
    /// slots — all identical on every rank — so no rank can diverge.
    fn stages(
        &self,
        comm: &mut Comm,
        x: &[c64],
        ws: &mut SoiWorkspace,
        y: &mut [c64],
        run: Run,
    ) -> Result<(), SoiRunError> {
        let p = &self.params;
        self.gate(comm, run, CancelGate::BOUNDARY_GHOST)?;
        if self.validation.is_on() {
            if let Some(ctx) = run.ckpt {
                // Belt-and-braces for in-store rot: the store re-verifies
                // every snapshot against its checksum before a phase commits.
                ctx.store().enable_scrub_on_commit();
            }
            self.probe_machinery(comm)?;
        }

        if run.committed(phases::ALL_TO_ALL) {
            // The collective half of the superstep is over: recover
            // locally from the snapshot of what the exchange delivered.
            let flat = self.restore_committed(comm, run, phases::ALL_TO_ALL)?;
            // Each source contributed the same count: mine · wire blocks.
            let chunk = flat.len() / p.procs;
            ws.incoming = (0..p.procs)
                .map(|q| flat[q * chunk..(q + 1) * chunk].to_vec())
                .collect();
            self.recover_all(comm, ws, y);
            return Ok(());
        }

        let ghost = self.ghost(comm, x, run)?;
        self.front(comm, x, ghost, ws, run)?;
        self.gate(comm, run, CancelGate::BOUNDARY_ALL_TO_ALL)?;
        match (run.policy, self.exchange) {
            // The two interleaving plans recover each segment between
            // their own exchanges.
            (None, ExchangePlan::PerSegment) => self.recover_per_segment(comm, ws, y),
            (None, ExchangePlan::Overlapped) => self.recover_overlapped(comm, ws, y),
            // Every other plan delivers the monolithic layout.
            _ => {
                let tagged = self.validation.is_on();
                self.pack_into(comm, &ws.u, &mut ws.outgoing, tagged, |_, _| true);
                self.exchange_parts(comm, ws, run)?;
                // Verify (and strip the tags) BEFORE the snapshot, so a
                // committed all-to-all checkpoint always holds clean,
                // payload-only data.
                self.verify_incoming(comm, &mut ws.incoming)?;
                if run.ckpt.is_some() {
                    let flat: Vec<c64> = ws.incoming.iter().flatten().copied().collect();
                    self.save(comm, run, phases::ALL_TO_ALL, &flat)?;
                }
                self.recover_all(comm, ws, y);
            }
        }
        Ok(())
    }

    /// Cancellation hook: fixes (or obeys) the gate's decision at one
    /// collective boundary.
    fn gate(&self, comm: &Comm, run: Run, boundary: usize) -> Result<(), SoiRunError> {
        let phase = CancelGate::PHASES[boundary];
        match run.gate {
            Some(g) if !g.proceed_at(boundary) => {
                Err(SoiRunError::at(comm, phase, CommError::Cancelled { phase }))
            }
            _ => Ok(()),
        }
    }

    /// Ghost stage: the successor rank's input prefix (`None` once
    /// globally committed). The exchange is collective, so until then even
    /// ranks holding deeper snapshots re-run it: their peers need theirs.
    fn ghost(&self, comm: &mut Comm, x: &[c64], run: Run) -> Result<Option<Vec<c64>>, SoiRunError> {
        if run.committed(phases::GHOST) {
            return Ok(None);
        }
        let len = self.params.ghost_len();
        let ghost = match run.policy {
            Some(policy) => comm
                .try_exchange_ghost(x, len, policy)
                .map_err(|e| SoiRunError::at(comm, "ghost", e))?,
            None => comm.exchange_ghost(x, len),
        };
        self.save(comm, run, phases::GHOST, &ghost)?;
        Ok(Some(ghost))
    }

    /// Front stage: extends the local input with its ghost into
    /// `ws.input_ext`, convolves (`u = W x`), and runs the block DFTs
    /// (`I ⊗ F_L`) — fused into one pass when configured (§5.3's loop
    /// fusion) — leaving the exchange frontier in `ws.u`. Local state
    /// resumes from this rank's OWN deepest snapshot, committed or not
    /// (why that is safe: [`SoiFft::try_forward_recoverable`]).
    ///
    /// Crash points named after the phases fire at each phase entry, so
    /// [`CrashSite::Phase`](soifft_cluster::CrashSite::Phase) plans can
    /// kill a rank mid-front-end; each phase output is
    /// [guarded](SoiFft::guarded) the moment it exists, then snapshotted.
    /// The fused form has no standalone convolution boundary: it exposes
    /// only the `"convolution"` crash point, and one checksum guards its
    /// whole front end under the block-DFT site and phase key.
    fn front(
        &self,
        comm: &mut Comm,
        x: &[c64],
        ghost: Option<Vec<c64>>,
        ws: &mut SoiWorkspace,
        run: Run,
    ) -> Result<(), SoiRunError> {
        let p = &self.params;
        let l = p.total_segments();
        let validate = self.validation.is_on();
        let fused = self.fuse_segment_fft;
        let seg_fft_flops = p.blocks_per_rank() as f64 * soifft_fft::fft_flops(l);

        if let Some(u) = self.restore(comm, run, phases::SEGMENT_FFT) {
            ws.u = u;
            return Ok(());
        }
        let rows = if fused {
            None
        } else {
            self.restore(comm, run, phases::CONVOLUTION)
        };
        // Rows resumed from a snapshot cannot be rebuilt by re-running the
        // convolution (its input was never staged): a repairing run keeps
        // a copy for the block-DFT guard's redo.
        let mut resumed_rows = None;
        if let Some(rows) = rows {
            resumed_rows = self.validation.recovers().then(|| rows.clone());
            ws.u = rows;
        } else {
            let ghost = match ghost {
                Some(g) => g,
                None => self.restore_committed(comm, run, phases::GHOST)?,
            };
            ws.input_ext.clear();
            ws.input_ext.extend_from_slice(x);
            ws.input_ext.extend_from_slice(&ghost);
            // The received prefix goes back to the pool once staged,
            // balancing the staging buffer the exchange acquired.
            comm.recycle_buffer(ghost);
            ws.u.resize(p.blocks_per_rank() * l, c64::ZERO);

            comm.crash_point(phases::CONVOLUTION);
            let t = comm.stats_mut().phase_start();
            self.convolve_rows(ws);
            let conv_flops = p.conv_flops() / p.procs as f64;
            let fft_flops = if fused { seg_fft_flops } else { 0.0 };
            self.end_phase(comm, "convolution", t, conv_flops, fft_flops);
            let (phase, site) = if fused {
                (phases::SEGMENT_FFT, BitFlipSite::LocalFftBuffer)
            } else {
                (phases::CONVOLUTION, BitFlipSite::ConvBuffer)
            };
            let sum = validate.then(|| checksum(&ws.u));
            let intact = |u: &[c64]| Some(checksum(u)) == sum;
            self.guarded(comm, ws, (phase, site), intact, |ws| self.convolve_rows(ws))?;
            self.save(comm, run, phase, &ws.u)?;
        }
        if fused {
            return Ok(());
        }

        comm.crash_point(phases::SEGMENT_FFT);
        // Parseval guard: an unnormalized L-point row DFT scales total
        // energy by exactly L, so `E_out ≈ L·E_in` checks the whole batch
        // in one O(n) pass. The transform is in place; a repair rebuilds
        // the pre-FFT rows by re-running the deterministic convolution,
        // keeping a frontier-sized clone off the fault-free hot path.
        let e_in = validate.then(|| verify::energy(&ws.u));
        let t = comm.stats_mut().phase_start();
        self.fft_rows(ws);
        self.end_phase(comm, "segment-fft", t, 0.0, seg_fft_flops);
        let tol = verify::energy_tolerance(l);
        let intact =
            |u: &[c64]| e_in.is_some_and(|e| verify::parseval_ok(e, verify::energy(u), l, tol));
        let redo = |ws: &mut SoiWorkspace| {
            match &resumed_rows {
                Some(rows) => ws.u.copy_from_slice(rows),
                None => self.convolve_rows(ws),
            }
            self.fft_rows(ws);
        };
        let site = (phases::SEGMENT_FFT, BitFlipSite::LocalFftBuffer);
        self.guarded(comm, ws, site, intact, redo)?;
        self.save(comm, run, phases::SEGMENT_FFT, &ws.u)
    }

    /// `ws.u ← W · ws.input_ext` in the planned strategy, with the block
    /// DFTs fused into the sweep when planned.
    fn convolve_rows(&self, ws: &mut SoiWorkspace) {
        if self.fuse_segment_fft {
            convolve_fused_fft_with_scratch(
                &self.params,
                &self.window,
                &ws.input_ext,
                &mut ws.u,
                &self.plan_l,
                &self.pool,
                &mut ws.conv,
            );
        } else {
            convolve_with_scratch(
                &self.params,
                &self.window,
                self.strategy,
                &ws.input_ext,
                &mut ws.u,
                &self.pool,
                &mut ws.conv,
            );
        }
    }

    /// The block DFTs `I ⊗ F_L` over `ws.u`, in place.
    fn fft_rows(&self, ws: &mut SoiWorkspace) {
        batch::forward_rows_parallel_with(&self.plan_l, &self.pool, &mut ws.u, &mut ws.seg_workers);
    }

    /// Closes a compute phase record of `conv` convolution and `fft` FFT
    /// flops, with their virtual time when a [`SimSpec`] is installed.
    fn end_phase(&self, comm: &mut Comm, name: &'static str, t: PhaseToken, conv: f64, fft: f64) {
        match self.sim {
            Some(s) => {
                let sim_s = conv / s.conv_flops_per_s + fft / s.fft_flops_per_s;
                comm.stats_mut().phase_end_sim(name, t, sim_s)
            }
            None => comm.stats_mut().phase_end(name, t),
        }
    }

    /// ABFT hook for a phase output held in `ws.u` — the detection model
    /// for memory corruption that never crosses a wire. The caller takes
    /// its guard (a checksum, an input energy) the moment the buffer is
    /// produced; any planned flip is injected here, *after* the guard, and
    /// `intact` re-verifies before the next phase consumes the buffer.
    /// Under `Recover` a violation re-executes only this phase (`redo`),
    /// up to [`verify::RETRY_BUDGET`] times, before escalating.
    fn guarded(
        &self,
        comm: &mut Comm,
        ws: &mut SoiWorkspace,
        (phase, site): (&'static str, BitFlipSite),
        intact: impl Fn(&[c64]) -> bool,
        redo: impl Fn(&mut SoiWorkspace),
    ) -> Result<(), SoiRunError> {
        comm.inject_bit_flip(site, &mut ws.u);
        if !self.validation.is_on() {
            return Ok(());
        }
        comm.stats_mut().span_open("sdc-verify");
        let mut attempts = 0u32;
        let verdict = loop {
            if intact(&ws.u) {
                break Ok(());
            }
            // Re-evaluate before acting: a disturbed invariant
            // *evaluation* over clean data is a detector false positive,
            // not data corruption.
            if intact(&ws.u) {
                comm.stats_mut().note_sdc_false_positive();
                break Ok(());
            }
            comm.stats_mut().note_sdc_detected();
            if !self.validation.recovers() || attempts >= verify::RETRY_BUDGET {
                break Err(self.sdc_error(comm, phase, None));
            }
            attempts += 1;
            comm.stats_mut().span_open("sdc-repair");
            redo(ws);
            // A stuck-at fault corrupts the re-execution too.
            comm.inject_bit_flip(site, &mut ws.u);
            comm.stats_mut().span_close("sdc-repair");
        };
        if verdict.is_ok() && attempts > 0 {
            comm.stats_mut().note_sdc_repaired();
        }
        comm.stats_mut().span_close("sdc-verify");
        verdict
    }

    /// Supervised forward transform: runs the whole cluster under a
    /// [`Supervisor`], so a crashed SOI run *completes* instead of merely
    /// failing cleanly. The driver owns every rank's input slice (as a real
    /// launcher would own the on-disk input), which is what makes the two
    /// recovery layers possible:
    ///
    /// 1. **Respawn** — while the `restart` budget lasts, a death re-runs
    ///    the collective as a new epoch; each rank resumes from the last
    ///    globally committed checkpoint via
    ///    [`SoiFft::try_forward_recoverable`], and stale messages from dead
    ///    incarnations are discarded by generation tag.
    /// 2. **Degraded mode** — if ranks still died with the budget
    ///    exhausted, the survivors re-derive every missing rank's exchange
    ///    frontier (from its deepest surviving snapshot, or from the
    ///    inputs) and recompute the missing output segments themselves,
    ///    split round-robin — through the live run's wire format and
    ///    segment recovery, so the bits equal the fault-free run's in
    ///    every [`Precision`].
    ///
    /// On success, `recovery` (mirrored into every ledger) reports what it
    /// took: [`RecoveryOutcome::None`] for a clean first epoch, otherwise
    /// `Recovered { restarts, recomputed_segments }`. Returns the first
    /// rank's [`SoiRunError`] only when the run failed for a reason
    /// recovery cannot paper over (e.g. a fault storm exhausting the
    /// retry budget with no rank actually dead, or a corrupt checkpoint
    /// discovered on resume).
    ///
    /// Always uses the monolithic exchange form, like
    /// [`SoiFft::try_forward`].
    pub fn forward_recovered(
        &self,
        config: ClusterConfig,
        restart: RestartPolicy,
        policy: &ExchangePolicy,
        inputs: &[Vec<c64>],
    ) -> Result<RecoveredRun, SoiRunError> {
        let p = &self.params;
        assert_eq!(inputs.len(), p.procs, "one input slice per rank");
        for (rank, input) in inputs.iter().enumerate() {
            assert_eq!(
                input.len(),
                p.per_rank(),
                "wrong input length for rank {rank}"
            );
        }

        let supervisor = Supervisor::new(config, restart);
        let run = supervisor.run(p.procs, |comm, ctx| {
            let out = self.try_forward_recoverable(comm, &inputs[comm.rank()], policy, ctx);
            (out, comm.stats().clone())
        });
        let restarts = run.restarts;
        let store = run.store;

        let mut outputs: Vec<Option<Vec<c64>>> = vec![None; p.procs];
        let mut stats: Vec<CommStats> = vec![CommStats::default(); p.procs];
        let mut survivors: Vec<usize> = Vec::new();
        let mut first_err: Option<SoiRunError> = None;
        for (rank, outcome) in run.outcomes.into_iter().enumerate() {
            match outcome {
                RankOutcome::Ok((result, ledger)) => {
                    stats[rank] = ledger;
                    match result {
                        Ok(y) => outputs[rank] = Some(y),
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
                // The thread survived (returned via the typed-abort path)
                // but produced no output.
                RankOutcome::Err(_) => {}
                // Crashed, panicked — or, `RankOutcome` being
                // non-exhaustive, any future outcome kind: a dead rank, so
                // degraded mode can still complete the run rather than
                // silently dropping a slice.
                _ => continue,
            }
            survivors.push(rank);
        }

        let degraded = outputs.iter().any(Option::is_none);
        let mut recomputed_segments = 0;
        if degraded {
            // Ranks failed but nothing died (or nothing survived): a
            // failure respawn and degraded recomputation cannot paper over
            // (a fault storm past the retry budget, a corrupt checkpoint
            // on resume). Surface it typed.
            let workers = survivors.len();
            if workers == p.procs || workers == 0 {
                let error = match workers {
                    0 => CommError::PeerFailed { rank: 0 },
                    _ => CommError::Shutdown,
                };
                let stats = Box::default();
                return Err(first_err.unwrap_or(SoiRunError {
                    phase: "recovery",
                    error,
                    stats,
                }));
            }

            // Degraded mode: the restart budget is exhausted and ranks are
            // dead. Re-derive every rank's exchange frontier (from
            // snapshots where they survive, from the driver-held inputs
            // where they don't), then let the surviving ranks recompute
            // the missing output segments round-robin.
            let m = p.m();
            let us: Vec<Vec<c64>> = (0..p.procs)
                .map(|q| self.exchange_frontier(&store, q, inputs))
                .collect();
            let jobs: Vec<(usize, usize)> = (0..p.procs)
                .filter(|&q| outputs[q].is_none())
                .flat_map(|owner| (0..self.seg_counts[owner]).map(move |sl| (owner, sl)))
                .collect();
            recomputed_segments = jobs.len();
            let results = Cluster::run(workers, |comm| {
                let mut ws = self.make_workspace();
                ws.incoming.resize(p.procs, Vec::new());
                let mut done: Vec<(usize, usize, Vec<c64>)> = Vec::new();
                let t = comm.stats_mut().phase_start();
                for &(owner, sl) in jobs.iter().skip(comm.rank()).step_by(workers) {
                    // What each source would have put on the wire for
                    // this segment, then the live run's recovery.
                    for (part, u_q) in ws.incoming.iter_mut().zip(&us) {
                        part.clear();
                        self.pack_part(u_q, self.seg_base[owner] + sl, part);
                    }
                    let mut bins = vec![c64::ZERO; m];
                    self.recover_segment(&mut ws, 0, &mut bins);
                    done.push((owner, sl, bins));
                }
                comm.stats_mut().phase_end("degraded-recover", t);
                (done, comm.stats().clone())
            });
            for (worker, (done, ledger)) in results.into_iter().enumerate() {
                stats[survivors[worker]].absorb(&ledger);
                for (owner, sl, bins) in done {
                    let out = outputs[owner]
                        .get_or_insert_with(|| vec![c64::ZERO; self.seg_counts[owner] * m]);
                    out[sl * m..(sl + 1) * m].copy_from_slice(&bins);
                }
            }
        }

        let recovery = if degraded || restarts > 0 {
            RecoveryOutcome::Recovered {
                restarts,
                recomputed_segments,
            }
        } else {
            RecoveryOutcome::None
        };
        for ledger in &mut stats {
            ledger.set_recovery(recovery);
        }
        Ok(RecoveredRun {
            outputs: outputs.into_iter().map(|y| y.unwrap_or_default()).collect(),
            stats,
            recovery,
        })
    }

    /// Rank `q`'s exchange frontier (post-block-DFT `u`) for degraded-mode
    /// recovery — [`SoiFft::front`]'s resume ladder run driver-side, with
    /// no communicator, ledger, or crash points. The ghost is just the
    /// successor rank's input prefix, so a missing or corrupt ghost
    /// snapshot only means more recomputation, never failure.
    fn exchange_frontier(
        &self,
        store: &CheckpointStore,
        q: usize,
        inputs: &[Vec<c64>],
    ) -> Vec<c64> {
        let p = &self.params;
        if let Ok(u) = store.restore(q, phases::SEGMENT_FFT) {
            return u;
        }
        let mut ws = self.make_workspace();
        if let Ok(rows) = store.restore(q, phases::CONVOLUTION) {
            ws.u = rows;
        } else {
            let ghost = store.restore(q, phases::GHOST);
            let ghost =
                ghost.unwrap_or_else(|_| inputs[(q + 1) % p.procs][..p.ghost_len()].to_vec());
            ws.input_ext.extend_from_slice(&inputs[q]);
            ws.input_ext.extend_from_slice(&ghost);
            self.convolve_rows(&mut ws);
        }
        if !self.fuse_segment_fft {
            self.fft_rows(&mut ws);
        }
        ws.u
    }

    /// Computes only the requested *segments of interest*, distributed —
    /// the capability the algorithm is named for. The convolution and
    /// block DFTs run in full (they feed every segment), but the all-to-all
    /// ships only the wanted segments' data (volume `µN·|wanted|/L` instead
    /// of `µN`) and only their recovery FFTs run.
    ///
    /// Every rank passes the same `wanted` list (a collective argument).
    /// Returns this rank's owned ∩ wanted segments as
    /// `(global_segment_id, bins)` pairs.
    pub fn forward_segments(
        &self,
        comm: &mut Comm,
        local_input: &[c64],
        wanted: &[usize],
    ) -> Vec<(usize, Vec<c64>)> {
        let p = &self.params;
        assert_eq!(comm.size(), p.procs, "cluster size != planned procs");
        assert_eq!(local_input.len(), p.per_rank(), "wrong local input length");
        let l = p.total_segments();
        let mut is_wanted = vec![false; l];
        for &s in wanted {
            assert!(s < l, "segment {s} out of range (L = {l})");
            is_wanted[s] = true;
        }

        // Ghost and front stages exactly as in `forward`.
        let run = Run::default();
        let mut ws = self.make_workspace();
        self.ghost(comm, local_input, run)
            .and_then(|ghost| self.front(comm, local_input, ghost, &mut ws, run))
            .unwrap_or_else(|e| panic!("{e}"));

        // Reduced exchange: per destination, only its wanted segments (in
        // destination-local order, which both sides can derive).
        let keep = |q: usize, sl: usize| is_wanted[self.seg_base[q] + sl];
        self.pack_into(comm, &ws.u, &mut ws.outgoing, false, keep);
        comm.all_to_all_into(&mut ws.outgoing, &mut ws.incoming);

        // Recover owned ∩ wanted, reading parts back in the same order.
        let me = comm.rank();
        let wb = self.wire_blocks();
        let t = comm.stats_mut().phase_start();
        let mut out = Vec::new();
        let owned = (0..self.seg_counts[me]).map(|sl| self.seg_base[me] + sl);
        for (i, s) in owned.filter(|&s| is_wanted[s]).enumerate() {
            let mut bins = vec![c64::ZERO; p.m()];
            self.recover_segment(&mut ws, i * wb, &mut bins);
            out.push((s, bins));
        }
        comm.stats_mut().phase_end("local-fft", t);
        out
    }

    /// Computes this rank's slice of `x = F_N⁻¹ y` (normalized), by
    /// conjugation around the forward pipeline — the same communication
    /// structure (one all-to-all) in the synthesis direction.
    pub fn inverse(&self, comm: &mut Comm, local_input: &[c64]) -> Vec<c64> {
        assert!(
            self.uniform_layout(),
            "inverse requires the uniform segment layout (forward's input and \
             output distributions must coincide)"
        );
        let conjugated: Vec<c64> = local_input.iter().map(|z| z.conj()).collect();
        let mut x = self.forward(comm, &conjugated);
        let s = 1.0 / self.params.n as f64;
        for z in x.iter_mut() {
            *z = z.conj() * s;
        }
        x
    }

    /// Wire elements per `(source, segment)` part: one per local block at
    /// full width, two blocks per element under the half-width precisions.
    fn wire_blocks(&self) -> usize {
        let blocks_per_word = if self.precision.half_width_exchange() {
            2
        } else {
            1
        };
        self.params.blocks_per_rank().div_ceil(blocks_per_word)
    }

    /// Writes rows `m0 .. m0 + PACK_ROWS` (clipped to the frontier) of
    /// column `s` of `u` into their place in `part`, the wire form of
    /// global segment `s` — `v_m[s]` for every local block `m`: as-is at
    /// full width; demoted to `c32` and bit-packed two per `c64` under the
    /// half-width precisions (odd block counts pad the final pair with
    /// zero, which the receiver drops). Every packer walks the frontier
    /// tile by tile and calls this for each stream it keeps, so `u` is
    /// read from memory once — a tile stays cached while its `L` columns
    /// are scattered — instead of once per segment at stride `L`.
    fn pack_tile(&self, u: &[c64], m0: usize, s: usize, part: &mut [c64]) {
        let l = self.params.total_segments();
        let rows = &u[m0 * l..u.len().min((m0 + PACK_ROWS) * l)];
        let mut column = rows.chunks_exact(l).map(|block| block[s]);
        if self.precision.half_width_exchange() {
            for slot in &mut part[m0 / 2..] {
                let Some(a) = column.next() else { break };
                let b = column.next().unwrap_or(c64::ZERO);
                *slot = pack_c32_pair(c32::from_c64(a), c32::from_c64(b));
            }
        } else {
            for (slot, v) in part[m0..].iter_mut().zip(column) {
                *slot = v;
            }
        }
    }

    /// First rows of the tiles [`SoiFft::pack_tile`] is called with.
    fn pack_tiles(&self) -> impl Iterator<Item = usize> {
        (0..self.params.blocks_per_rank()).step_by(PACK_ROWS)
    }

    /// Appends to `buf` the wire form of the part of global segment `s`
    /// held in frontier `u`.
    fn pack_part(&self, u: &[c64], s: usize, buf: &mut Vec<c64>) {
        let start = buf.len();
        buf.resize(start + self.wire_blocks(), c64::ZERO);
        for m0 in self.pack_tiles() {
            self.pack_tile(u, m0, s, &mut buf[start..]);
        }
    }

    /// Pack stage: refills each destination's slot from the communicator's
    /// buffer pool (a warm pool serves every slot from last call's
    /// recycled receive payloads) with the parts of its `keep`-selected
    /// segments in destination-local order — `[sl][block]`, the monolithic
    /// exchange layout when everything is kept. With `tagged`, one element
    /// per packed segment follows the payload, carrying the FNV-1a
    /// checksum of that segment's part for [`SoiFft::verify_incoming`].
    fn pack_into(
        &self,
        comm: &mut Comm,
        u: &[c64],
        outgoing: &mut [Vec<c64>],
        tagged: bool,
        keep: impl Fn(usize, usize) -> bool,
    ) {
        let wb = self.wire_blocks();
        comm.stats_mut().span_open("pack");
        let keep = &keep;
        let kept = |q: usize| (0..self.seg_counts[q]).filter(move |&sl| keep(q, sl));
        for (q, slot) in outgoing.iter_mut().enumerate() {
            let n = kept(q).count();
            let mut buf = comm.acquire_buffer(n * (wb + usize::from(tagged)));
            buf.resize(n * wb, c64::ZERO);
            *slot = buf;
        }
        for m0 in self.pack_tiles() {
            for (q, buf) in outgoing.iter_mut().enumerate() {
                for (part, sl) in buf.chunks_exact_mut(wb).zip(kept(q)) {
                    self.pack_tile(u, m0, self.seg_base[q] + sl, part);
                }
            }
        }
        if tagged {
            for buf in outgoing.iter_mut() {
                for i in 0..buf.len() / wb {
                    let sum = checksum(&buf[i * wb..(i + 1) * wb]);
                    buf.push(verify::encode_checksum(sum));
                }
            }
        }
        comm.stats_mut().span_close("pack");
    }

    /// Exchange stage for the monolithic layout: `ws.outgoing` goes onto
    /// the wire, what every source addressed to this rank lands in
    /// `ws.incoming`. A retry policy overrides the plan
    /// ([`SoiFft::try_forward`] says why).
    fn exchange_parts(
        &self,
        comm: &mut Comm,
        ws: &mut SoiWorkspace,
        run: Run,
    ) -> Result<(), SoiRunError> {
        let p = &self.params;
        if let Some(policy) = run.policy {
            ws.incoming = comm
                .all_to_all_resilient(&ws.outgoing, policy)
                .map_err(|e| SoiRunError::at(comm, "all-to-all", e))?;
            // The resilient exchange borrows the outgoing buffers (it may
            // retransmit them across rounds); recycle them once it returns.
            for slot in ws.outgoing.iter_mut() {
                comm.recycle_buffer(std::mem::take(slot));
            }
            return Ok(());
        }
        let mut take_outgoing = || std::mem::replace(&mut ws.outgoing, vec![Vec::new(); p.procs]);
        match self.exchange {
            ExchangePlan::Chunked(chunk) if self.uniform_layout() => {
                ws.incoming = comm.all_to_all_chunked(take_outgoing(), chunk);
            }
            ExchangePlan::Chunked(chunk) => {
                // Heterogeneous layouts have asymmetric per-peer volumes:
                // every source sends *me* my segments' parts (and tags).
                let per_part = self.wire_blocks() + usize::from(self.validation.is_on());
                let expected = vec![self.seg_counts[comm.rank()] * per_part; p.procs];
                ws.incoming = comm.all_to_all_chunked_v(take_outgoing(), chunk, &expected);
            }
            ExchangePlan::Proxied(chunk) => {
                assert!(
                    self.uniform_layout(),
                    "proxied exchange supports uniform segment layouts only"
                );
                let proxy = soifft_cluster::ProxyCore::new();
                ws.incoming = comm.all_to_all_proxied(&proxy, take_outgoing(), chunk);
            }
            _ => comm.all_to_all_into(&mut ws.outgoing, &mut ws.incoming),
        }
        Ok(())
    }

    /// Verify stage, on the monolithic layout the exchange delivered.
    /// Applies any planned [`BitFlipSite::GatheredSegment`] flip to the
    /// received data (modeling corruption in the window between the link
    /// layer's receive verification and the recovery FFTs consuming the
    /// buffer); then, when validation is on, strips the sender-side
    /// checksum tags and re-verifies every `(source, segment)` part. Under
    /// `Recover`, a flagged part is rolled back to the pristine received
    /// bytes (the corruption is receiver-side); escalation carries the
    /// *global* id of the owned segment the flagged part feeds.
    fn verify_incoming(&self, comm: &mut Comm, data: &mut [Vec<c64>]) -> Result<(), SoiRunError> {
        let wb = self.wire_blocks();
        let me = comm.rank();
        let mine = self.seg_counts[me];
        let chunk = mine * wb;
        let part = |sl: usize| sl * wb..(sl + 1) * wb;

        let tags: Vec<Vec<c64>> = if self.validation.is_on() {
            data.iter_mut().map(|buf| buf.split_off(chunk)).collect()
        } else {
            Vec::new()
        };
        let planned = comm.flip_planned(BitFlipSite::GatheredSegment);
        let pristine = (self.validation.recovers() && planned).then(|| data.to_vec());
        if chunk > 0 && planned {
            let mut flat: Vec<c64> = data.iter().flatten().copied().collect();
            comm.inject_bit_flip(BitFlipSite::GatheredSegment, &mut flat);
            for (dst, src_chunk) in data.iter_mut().zip(flat.chunks_exact(chunk)) {
                dst.copy_from_slice(src_chunk);
            }
        }
        if !self.validation.is_on() {
            return Ok(());
        }

        comm.stats_mut().span_open("sdc-verify");
        let mut attempts = 0u32;
        let verdict = loop {
            let bad = (0..data.len())
                .flat_map(|src| (0..mine).map(move |sl| (src, sl)))
                .find(|&(src, sl)| {
                    checksum(&data[src][part(sl)]) != verify::decode_checksum(tags[src][sl])
                });
            let Some((src, sl)) = bad else { break Ok(()) };
            comm.stats_mut().note_sdc_detected();
            let Some(pr) = pristine
                .as_ref()
                .filter(|_| attempts < verify::RETRY_BUDGET)
            else {
                break Err(self.sdc_error(comm, "all-to-all", Some(self.seg_base[me] + sl)));
            };
            attempts += 1;
            comm.stats_mut().span_open("sdc-repair");
            data[src][part(sl)].copy_from_slice(&pr[src][part(sl)]);
            // A stuck-at fault corrupts the re-executed reassembly too.
            comm.inject_bit_flip(BitFlipSite::GatheredSegment, &mut data[src][part(sl)]);
            comm.stats_mut().span_close("sdc-repair");
        };
        if verdict.is_ok() && attempts > 0 {
            comm.stats_mut().note_sdc_repaired();
        }
        comm.stats_mut().span_close("sdc-verify");
        verdict
    }

    /// Checkpoint hook, restore side: this rank's snapshot of `phase`, if
    /// a recovery context is installed and its store holds an intact one.
    fn restore(&self, comm: &mut Comm, run: Run, phase: &'static str) -> Option<Vec<c64>> {
        let ctx = run.ckpt?;
        comm.stats_mut().span_open("checkpoint-restore");
        let result = ctx.store().restore(comm.rank(), phase);
        comm.stats_mut().span_close("checkpoint-restore");
        result.ok()
    }

    /// [`SoiFft::restore`] of state the resume cannot proceed without: a
    /// missing or corrupt snapshot is a `"checkpoint"` failure.
    fn restore_committed(
        &self,
        comm: &mut Comm,
        run: Run,
        phase: &'static str,
    ) -> Result<Vec<c64>, SoiRunError> {
        let rank = comm.rank();
        self.restore(comm, run, phase).ok_or_else(|| {
            SoiRunError::at(comm, "checkpoint", CommError::CheckpointCorrupt { rank })
        })
    }

    /// Checkpoint hook, save side (a no-op without a recovery context),
    /// with write-time verification: when validation is on, the committed
    /// checksum is read back and compared against the *live* buffer. This
    /// catches a flip that landed on the snapshot image before the store
    /// hashed it: such an image is self-consistent, so the store's
    /// restore-time check (and its commit-time scrub) can never see it.
    /// Under `Recover` a flagged save is redone from the live buffer.
    fn save(
        &self,
        comm: &mut Comm,
        run: Run,
        phase: &'static str,
        data: &[c64],
    ) -> Result<(), SoiRunError> {
        let Some(ctx) = run.ckpt else { return Ok(()) };
        let (store, epoch, rank) = (ctx.store(), ctx.epoch(), comm.rank());
        comm.stats_mut().span_open("checkpoint-save");
        let mut attempts = 0u32;
        let verdict = loop {
            if comm.flip_planned(BitFlipSite::CheckpointImage) {
                // Flip a private copy so the planned fault corrupts the
                // stored bytes, not the live pipeline buffer.
                let mut image = data.to_vec();
                comm.inject_bit_flip(BitFlipSite::CheckpointImage, &mut image);
                store.save(rank, phase, epoch, &image);
            } else {
                store.save(rank, phase, epoch, data);
            }
            if !self.validation.is_on()
                || store.stored_checksum(rank, phase) == Some(checksum(data))
            {
                break Ok(());
            }
            comm.stats_mut().note_sdc_detected();
            if !self.validation.recovers() || attempts >= verify::RETRY_BUDGET {
                break Err(self.sdc_error(comm, "checkpoint", None));
            }
            attempts += 1;
        };
        if verdict.is_ok() && attempts > 0 {
            comm.stats_mut().note_sdc_repaired();
        }
        comm.stats_mut().span_close("checkpoint-save");
        verdict
    }

    /// Once-per-run FFT machinery check: verifies `F(x+αr) = F(x)+αF(r)`
    /// on seeded vectors through the row-FFT plan
    /// ([`verify::linearity_probe`]), catching corrupted plan state
    /// (twiddle tables, dispatch) that per-buffer checksums cannot see. A
    /// failure has no localized repair — the plan itself is suspect — so
    /// it escalates immediately under every validating policy.
    fn probe_machinery(&self, comm: &mut Comm) -> Result<(), SoiRunError> {
        let seed = PROBE_SEED ^ comm.rank() as u64;
        comm.stats_mut().span_open("sdc-verify");
        let ok = verify::linearity_probe(&self.plan_l, seed, verify::PROBE_TOLERANCE);
        comm.stats_mut().span_close("sdc-verify");
        if ok {
            return Ok(());
        }
        comm.stats_mut().note_sdc_detected();
        Err(self.sdc_error(comm, "verify-probe", None))
    }

    /// A [`CommError::SilentCorruption`] escalation at `phase`, carrying
    /// the ledger with its recorded detections.
    fn sdc_error(&self, comm: &Comm, phase: &'static str, segment: Option<usize>) -> SoiRunError {
        let rank = comm.rank();
        SoiRunError::at(comm, phase, CommError::SilentCorruption { rank, segment })
    }

    /// True when every rank owns the same number of segments.
    fn uniform_layout(&self) -> bool {
        self.seg_counts
            .iter()
            .all(|&c| c == self.params.segments_per_proc)
    }

    /// Recovers one segment into `out` (`M` bins) from its per-source
    /// parts `ws.incoming[src][off..off + wire_blocks]`: reassembly,
    /// `F_{M'}` with the demodulation fused into the final write-back,
    /// projection — `f32` `F_{M'}` + demoted demodulation for
    /// [`Precision::F32`], promote-then-fused-`f64`-six-step for
    /// [`Precision::Split`]. Every exchange plan, degraded-mode
    /// recomputation and [`SoiFft::forward_segments`] recover through
    /// here, so the bits cannot depend on who asked.
    fn recover_segment(&self, ws: &mut SoiWorkspace, off: usize, out: &mut [c64]) {
        let m = self.params.m();
        let m_prime = self.params.m_prime();
        let wb = self.wire_blocks();
        let parts = ws.incoming.iter().map(|part| &part[off..off + wb]);
        if self.precision.half_width_exchange() {
            let blocks = self.params.blocks_per_rank();
            ws.z32.clear();
            for part in parts {
                unpack_part_into(part, blocks, &mut ws.z32);
            }
            debug_assert_eq!(ws.z32.len(), m_prime);
            if let Some(plan) = &self.plan_mp32 {
                ws.fft32_scratch.resize(plan.scratch_len(), c32::ZERO);
                plan.forward_with_scratch(&mut ws.z32, &mut ws.fft32_scratch);
                soifft_num::kernels::mul_pointwise(&mut ws.z32[..m], &self.demod_scale32[..m]);
                soifft_num::simd::promote_c32_c64(&ws.z32[..m], out);
                return;
            }
            ws.z.clear();
            ws.z.resize(m_prime, c64::ZERO);
            soifft_num::simd::promote_c32_c64(&ws.z32, &mut ws.z);
        } else {
            ws.z.clear();
            for part in parts {
                ws.z.extend_from_slice(part);
            }
            debug_assert_eq!(ws.z.len(), m_prime);
        }
        self.segment_fft.forward_scaled_with(
            &mut ws.z,
            &mut ws.aux,
            &self.demod_scale,
            &mut ws.seg_scratch,
        );
        out.copy_from_slice(&ws.z[..m]);
    }

    /// Recover stage over the monolithic layout (`ws.incoming[src]` holds
    /// `[sl][wire block]`), recorded as the `"local-fft"` phase. The
    /// received payloads are then handed back so next call's pack (same
    /// capacity classes on uniform layouts) is served from the pool — the
    /// balance that keeps an iterated steady state allocation-free.
    fn recover_all(&self, comm: &mut Comm, ws: &mut SoiWorkspace, y: &mut [c64]) {
        let p = &self.params;
        let wb = self.wire_blocks();
        let t = comm.stats_mut().phase_start();
        for (sl, out) in y.chunks_exact_mut(p.m()).enumerate() {
            self.recover_segment(ws, sl * wb, out);
        }
        let fft_flops = self.seg_counts[comm.rank()] as f64 * soifft_fft::fft_flops(p.m_prime());
        self.end_phase(comm, "local-fft", t, 0.0, fft_flops);
        for buf in ws.incoming.drain(..) {
            comm.recycle_buffer(buf);
        }
    }

    /// Per-segment exchange: segment `σ`'s recovery runs between exchanges
    /// (the overlap structure of §6.1; wall-clock overlap needs async
    /// transports, but the packet-size and interleaving structure is
    /// faithful).
    fn recover_per_segment(&self, comm: &mut Comm, ws: &mut SoiWorkspace, y: &mut [c64]) {
        let m = self.params.m();
        let mine = self.seg_counts[comm.rank()];
        // All ranks must participate in every collective round, so the
        // round count is the maximum segment count; ranks with fewer
        // segments ship/receive empty buffers in the tail rounds.
        let rounds = self.seg_counts.iter().copied().max().unwrap_or(0);
        for sl in 0..rounds {
            self.pack_into(comm, &ws.u, &mut ws.outgoing, false, |_, s| s == sl);
            comm.all_to_all_into(&mut ws.outgoing, &mut ws.incoming);
            if sl < mine {
                let t = comm.stats_mut().phase_start();
                self.recover_segment(ws, 0, &mut y[sl * m..(sl + 1) * m]);
                comm.stats_mut().phase_end("local-fft", t);
            }
        }
        for buf in ws.incoming.drain(..) {
            comm.recycle_buffer(buf);
        }
    }

    /// Send-ahead + polling recovery: every segment's packets go out
    /// immediately (tagged by destination-local segment index); each owned
    /// segment is recovered as soon as all of its parts have arrived,
    /// polling with non-blocking receives in arrival order.
    fn recover_overlapped(&self, comm: &mut Comm, ws: &mut SoiWorkspace, y: &mut [c64]) {
        use soifft_cluster::tags;
        let p = &self.params;
        let m = p.m();
        let wb = self.wire_blocks();
        let mine = self.seg_counts[comm.rank()];

        // Post everything up front (sends never block in this transport;
        // on real MPI these would be MPI_Isend).
        let t = comm.stats_mut().phase_start();
        let mut parts: Vec<Vec<c64>> = (0..p.total_segments())
            .map(|_| {
                let mut buf = comm.acquire_buffer(wb);
                buf.resize(wb, c64::ZERO);
                buf
            })
            .collect();
        for m0 in self.pack_tiles() {
            for (s, part) in parts.iter_mut().enumerate() {
                self.pack_tile(&ws.u, m0, s, part);
            }
        }
        let mut parts = parts.into_iter();
        for q in 0..p.procs {
            for (sl, buf) in parts.by_ref().take(self.seg_counts[q]).enumerate() {
                comm.send(q, tags::USER + sl as u64, buf);
            }
        }

        // Poll: segments become ready in whatever order the parts land.
        let tag = |sl: usize| tags::USER + sl as u64;
        let mut slots: Vec<Vec<Option<Vec<c64>>>> = vec![vec![None; p.procs]; mine];
        let mut pending: Vec<(usize, usize)> = (0..mine)
            .flat_map(|sl| (0..p.procs).map(move |src| (sl, src)))
            .collect();
        while !pending.is_empty() {
            // Take whatever has arrived; when nothing has, block on the
            // lowest missing part to avoid a hot spin.
            let before = pending.len();
            pending.retain(|&(sl, src)| {
                slots[sl][src] = comm.try_recv(src, tag(sl));
                slots[sl][src].is_none()
            });
            if pending.len() == before {
                let (sl, src) = pending.remove(0);
                slots[sl][src] = Some(comm.recv(src, tag(sl)));
            }
            // Recover each segment that just completed — later packets
            // keep flowing while we compute (the overlap).
            for (sl, slot) in slots.iter_mut().enumerate() {
                if !slot.is_empty() && slot.iter().all(Option::is_some) {
                    ws.incoming.extend(slot.drain(..).flatten());
                    self.recover_segment(ws, 0, &mut y[sl * m..(sl + 1) * m]);
                    for buf in ws.incoming.drain(..) {
                        comm.recycle_buffer(buf);
                    }
                }
            }
        }
        comm.stats_mut().phase_end("all-to-all", t);
    }
}

/// Seed of the once-per-validated-run linearity probe (xor-ed with the
/// rank so ranks draw distinct probe vectors).
const PROBE_SEED: u64 = 0x50D1_F1A6_0B5E_55ED;

/// Publishes the process-global FFT plan-cache counters into this rank's
/// ledger at the end of a superstep. The counters are gauges (the cache
/// is shared by every rank in-process), so `RunProfile` aggregates them
/// as a max across ranks.
fn publish_plan_cache_gauges(comm: &mut Comm) {
    let s = soifft_fft::global_plan_cache_stats();
    comm.stats_mut()
        .note_plan_cache(s.hits, s.misses, s.evictions);
}

/// Exclusive prefix sums (`[0, c0, c0+c1, ...]`, length `counts.len()`).
fn prefix_sums(counts: &[usize]) -> Vec<usize> {
    let mut base = Vec::with_capacity(counts.len());
    let mut acc = 0;
    for &c in counts {
        base.push(acc);
        acc += c;
    }
    base
}

/// Splits a global input among ranks (testing/benching helper): rank `r`
/// gets `x[r·N/P .. (r+1)·N/P)`.
pub fn scatter_input(x: &[c64], procs: usize) -> Vec<Vec<c64>> {
    assert_eq!(x.len() % procs, 0);
    let per = x.len() / procs;
    (0..procs)
        .map(|r| x[r * per..(r + 1) * per].to_vec())
        .collect()
}

/// Reassembles rank outputs into the global vector (testing/benching
/// helper).
pub fn gather_output(parts: Vec<Vec<c64>>) -> Vec<c64> {
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Rational;
    use soifft_cluster::Cluster;
    use soifft_num::error::rel_l2;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64::new((0.05 * t).sin() + 0.4, 0.3 * (0.11 * t).cos())
            })
            .collect()
    }

    fn reference_fft(x: &[c64]) -> Vec<c64> {
        let plan = Plan::new(x.len());
        let mut y = x.to_vec();
        plan.forward(&mut y);
        y
    }

    fn run_distributed(params: SoiParams, exchange: ExchangePlan) -> (Vec<c64>, Vec<c64>) {
        let x = signal(params.n);
        let inputs = scatter_input(&x, params.procs);
        let fft = SoiFft::new(params).unwrap().with_exchange(exchange);
        let outputs = Cluster::run(params.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        (gather_output(outputs), reference_fft(&x))
    }

    fn params(procs: usize, s: usize) -> SoiParams {
        SoiParams {
            n: 1 << 12,
            procs,
            segments_per_proc: s,
            mu: Rational::new(2, 1),
            conv_width: 20,
        }
    }

    fn run_precision(
        params: SoiParams,
        exchange: ExchangePlan,
        precision: Precision,
    ) -> (Vec<c64>, Vec<c64>) {
        let x = signal(params.n);
        let inputs = scatter_input(&x, params.procs);
        let fft = SoiFft::new(params)
            .unwrap()
            .with_exchange(exchange)
            .with_precision(precision);
        let outputs = Cluster::run(params.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        (gather_output(outputs), reference_fft(&x))
    }

    /// Inverse of [`pack_c32_pair`]. Production unpacking goes through the
    /// dispatched bulk kernel (`simd::unpack_c32_pairs`); this single-element
    /// form is the round-trip reference the packing test pins against.
    fn unpack_c32_pair(v: c64) -> (c32, c32) {
        let re = v.re.to_bits();
        let im = v.im.to_bits();
        (
            c32::new(f32::from_bits((re >> 32) as u32), f32::from_bits(re as u32)),
            c32::new(f32::from_bits((im >> 32) as u32), f32::from_bits(im as u32)),
        )
    }

    #[test]
    fn c32_pair_bit_packing_round_trips_exactly() {
        let values = [
            c32::new(1.5, -2.25),
            c32::new(f32::MIN_POSITIVE, -0.0),
            c32::new(3.4e38, -1.1e-38),
            c32::ZERO,
        ];
        for &a in &values {
            for &b in &values {
                let (ua, ub) = unpack_c32_pair(pack_c32_pair(a, b));
                assert_eq!(a.re.to_bits(), ua.re.to_bits());
                assert_eq!(a.im.to_bits(), ua.im.to_bits());
                assert_eq!(b.re.to_bits(), ub.re.to_bits());
                assert_eq!(b.im.to_bits(), ub.im.to_bits());
            }
        }
        // Odd element counts: the pad is packed and dropped on unpack.
        let packed = vec![
            pack_c32_pair(values[0], values[1]),
            pack_c32_pair(values[2], c32::ZERO),
        ];
        let mut out = Vec::new();
        unpack_part_into(&packed, 3, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[2].re.to_bits(), values[2].re.to_bits());
    }

    #[test]
    fn f32_precision_tracks_reference_across_exchanges() {
        for exchange in [
            ExchangePlan::Monolithic,
            ExchangePlan::Chunked(37),
            ExchangePlan::PerSegment,
            ExchangePlan::Overlapped,
            ExchangePlan::Proxied(64),
        ] {
            let (got, want) = run_precision(params(4, 2), exchange, Precision::F32);
            let snr = crate::accuracy::snr_db(&got, &want);
            assert!(snr > 100.0, "{exchange:?}: SNR {snr:.1} dB");
        }
    }

    #[test]
    fn split_precision_tracks_reference_across_exchanges() {
        for exchange in [
            ExchangePlan::Monolithic,
            ExchangePlan::Chunked(37),
            ExchangePlan::PerSegment,
            ExchangePlan::Overlapped,
            ExchangePlan::Proxied(64),
        ] {
            let (got, want) = run_precision(params(4, 2), exchange, Precision::Split);
            let snr = crate::accuracy::snr_db(&got, &want);
            assert!(snr > 120.0, "{exchange:?}: SNR {snr:.1} dB");
        }
    }

    #[test]
    fn precision_ladder_orders_as_designed() {
        let (f64_out, want) = run_precision(params(4, 2), ExchangePlan::Monolithic, Precision::F64);
        let (split_out, _) =
            run_precision(params(4, 2), ExchangePlan::Monolithic, Precision::Split);
        let (f32_out, _) = run_precision(params(4, 2), ExchangePlan::Monolithic, Precision::F32);
        let snr64 = crate::accuracy::snr_db(&f64_out, &want);
        let snr_split = crate::accuracy::snr_db(&split_out, &want);
        let snr32 = crate::accuracy::snr_db(&f32_out, &want);
        assert!(
            snr64 > snr_split && snr_split > snr32,
            "ladder violated: f64 {snr64:.1} dB, split {snr_split:.1} dB, f32 {snr32:.1} dB"
        );
    }

    #[test]
    fn lowprec_exchange_plans_are_bit_identical() {
        for precision in [Precision::F32, Precision::Split] {
            let (mono, _) = run_precision(params(4, 4), ExchangePlan::Monolithic, precision);
            for exchange in [
                ExchangePlan::Chunked(53),
                ExchangePlan::PerSegment,
                ExchangePlan::Overlapped,
                ExchangePlan::Proxied(96),
            ] {
                let (other, _) = run_precision(params(4, 4), exchange, precision);
                assert_eq!(mono, other, "{precision:?} {exchange:?}");
            }
        }
    }

    #[test]
    fn lowprec_fused_front_end_matches_reference() {
        let x = signal(1 << 12);
        let p = params(4, 2);
        let inputs = scatter_input(&x, p.procs);
        for precision in [Precision::F32, Precision::Split] {
            let fft = SoiFft::new(p)
                .unwrap()
                .with_fused_segment_fft()
                .with_precision(precision);
            let got = gather_output(Cluster::run(p.procs, |comm| {
                fft.forward(comm, &inputs[comm.rank()])
            }));
            let snr = crate::accuracy::snr_db(&got, &reference_fft(&x));
            assert!(snr > 100.0, "{precision:?}: SNR {snr:.1} dB");
        }
    }

    #[test]
    fn lowprec_heterogeneous_layout_chunked() {
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p)
            .unwrap()
            .with_segment_counts(vec![1, 3, 1, 3])
            .with_exchange(ExchangePlan::Chunked(41))
            .with_precision(Precision::Split);
        let mut outs = vec![Vec::new(); p.procs];
        let collected = Cluster::run(p.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        for (slot, y) in outs.iter_mut().zip(collected) {
            *slot = y;
        }
        let got = gather_output(outs);
        let snr = crate::accuracy::snr_db(&got, &reference_fft(&x));
        assert!(snr > 120.0, "SNR {snr:.1} dB");
    }

    #[test]
    fn lowprec_inverse_round_trips() {
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap().with_precision(Precision::Split);
        let spectrum = Cluster::run(p.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        let back = gather_output(Cluster::run(p.procs, |comm| {
            fft.inverse(comm, &spectrum[comm.rank()])
        }));
        let snr = crate::accuracy::snr_db(&back, &x);
        assert!(snr > 110.0, "round-trip SNR {snr:.1} dB");
    }

    #[test]
    fn distributed_matches_reference_various_cluster_shapes() {
        for (procs, s) in [(1, 8), (2, 4), (4, 2), (8, 1), (4, 4)] {
            let (got, want) = run_distributed(params(procs, s), ExchangePlan::Monolithic);
            let err = rel_l2(&got, &want);
            assert!(err < 1e-7, "P={procs} S={s}: err={err:.3e}");
        }
    }

    #[test]
    fn per_segment_exchange_gives_identical_results() {
        let p = params(4, 4);
        let (mono, want) = run_distributed(p, ExchangePlan::Monolithic);
        let (seg, _) = run_distributed(p, ExchangePlan::PerSegment);
        assert_eq!(mono, seg);
        assert!(rel_l2(&mono, &want) < 1e-7);
    }

    #[test]
    fn overlapped_exchange_gives_identical_results() {
        for (procs, s) in [(4usize, 4usize), (2, 8), (8, 1)] {
            let p = params(procs, s);
            let (mono, want) = run_distributed(p, ExchangePlan::Monolithic);
            let (ovl, _) = run_distributed(p, ExchangePlan::Overlapped);
            assert_eq!(mono, ovl, "P={procs} S={s}");
            assert!(rel_l2(&mono, &want) < 1e-7);
        }
    }

    #[test]
    fn overlapped_exchange_heterogeneous() {
        let p = params(4, 2);
        let counts = vec![1usize, 3, 1, 3];
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p)
            .unwrap()
            .with_segment_counts(counts)
            .with_exchange(ExchangePlan::Overlapped);
        let got = gather_output(Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()])
        }));
        let want = reference_fft(&x);
        assert!(rel_l2(&got, &want) < 1e-7);
    }

    #[test]
    fn distributed_matches_single_node_pipeline() {
        let p = params(4, 2);
        let x = signal(p.n);
        let (dist, _) = run_distributed(p, ExchangePlan::Monolithic);
        let local = crate::single::SoiFftLocal::new(p.n, p.total_segments(), p.mu, p.conv_width)
            .unwrap()
            .forward(&x);
        // Same algorithm, same window ⇒ results agree to rounding.
        assert!(rel_l2(&dist, &local) < 1e-10);
    }

    #[test]
    fn phase_ledger_shows_soi_structure() {
        // Fig 2's structure: ghost + ONE all-to-all (vs CT's three).
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let stats = Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()]);
            comm.stats().clone()
        });
        for s in &stats {
            assert_eq!(
                s.count_of("all-to-all"),
                1,
                "SOI needs exactly one all-to-all"
            );
            assert_eq!(s.count_of("ghost"), 1);
            assert_eq!(s.count_of("convolution"), 1);
            assert!(s.seconds_in("local-fft") > 0.0);
            // Ghost volume: (B−d_µ)·L elements · 16 bytes.
            let ghost_bytes = (p.ghost_len() * 16) as u64;
            assert_eq!(s.bytes_in("ghost"), ghost_bytes);
            // All-to-all volume: S·blocks per destination, P destinations.
            let a2a = (p.segments_per_proc * p.blocks_per_rank() * p.procs * 16) as u64;
            assert_eq!(s.bytes_in("all-to-all"), a2a);
        }
    }

    #[test]
    fn paper_parameters_distributed() {
        // µ = 8/7, B = 72 at small scale: P = 4, S = 2, M = 7·2^6.
        let p = SoiParams {
            n: 7 * (1 << 6) * 8,
            procs: 4,
            segments_per_proc: 2,
            mu: Rational::new(8, 7),
            conv_width: 72,
        };
        p.validate().unwrap();
        let (got, want) = run_distributed(p, ExchangePlan::Monolithic);
        let err = rel_l2(&got, &want);
        assert!(err < 1e-4, "err={err:.3e}");
    }

    #[test]
    fn partial_spectrum_matches_full_and_ships_less() {
        let p = params(4, 2); // L = 8
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let m = p.m();

        let full = gather_output(Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()])
        }));

        let wanted = vec![1usize, 6];
        let runs = Cluster::run(p.procs, |comm| {
            let segs = fft.forward_segments(comm, &inputs[comm.rank()], &wanted);
            (segs, comm.stats().bytes_in("all-to-all"))
        });

        // Correct owners, correct values.
        let mut found = 0;
        for (rank, (segs, _)) in runs.iter().enumerate() {
            for (s, bins) in segs {
                assert_eq!(s / p.segments_per_proc, rank, "owner of segment {s}");
                assert!(wanted.contains(s));
                assert!(
                    rel_l2(bins, &full[s * m..(s + 1) * m]) < 1e-12,
                    "segment {s}"
                );
                found += 1;
            }
        }
        assert_eq!(found, wanted.len());

        // Volume: 2 of 8 segments ⇒ 1/4 of the full exchange.
        let full_bytes = (p.segments_per_proc * p.blocks_per_rank() * p.procs * 16) as u64;
        for (_, bytes) in &runs {
            assert_eq!(*bytes, full_bytes / 4);
        }
    }

    #[test]
    fn heterogeneous_segment_layout_matches_reference() {
        // 4 ranks playing "2 Xeons + 2 Phis": segment counts 1,3,1,3
        // (total 8 = the plan's S·P). Output is non-uniform: ranks 1 and 3
        // produce 3 segments' worth of spectrum each.
        let p = params(4, 2); // L = 8
        let counts = vec![1usize, 3, 1, 3];
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap().with_segment_counts(counts.clone());
        let outs = Cluster::run(p.procs, |comm| {
            let y = fft.forward(comm, &inputs[comm.rank()]);
            assert_eq!(y.len(), fft.output_len(comm.rank()));
            y
        });
        // Concatenated in rank order the segments are globally ordered.
        let got = gather_output(outs);
        let want = reference_fft(&x);
        let err = rel_l2(&got, &want);
        assert!(err < 1e-7, "err={err:.3e}");
    }

    #[test]
    fn heterogeneous_layout_with_chunked_exchange_falls_back_safely() {
        let p = params(4, 2);
        let counts = vec![1usize, 3, 1, 3];
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p)
            .unwrap()
            .with_segment_counts(counts)
            .with_exchange(ExchangePlan::Chunked(64));
        let got = gather_output(Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()])
        }));
        let want = reference_fft(&x);
        assert!(rel_l2(&got, &want) < 1e-7);
    }

    #[test]
    fn heterogeneous_layout_with_per_segment_exchange() {
        let p = params(4, 2);
        let counts = vec![2usize, 4, 0, 2]; // a rank may own none
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p)
            .unwrap()
            .with_segment_counts(counts)
            .with_exchange(ExchangePlan::PerSegment);
        let outs = Cluster::run(p.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        assert!(outs[2].is_empty());
        let got = gather_output(outs);
        let want = reference_fft(&x);
        assert!(rel_l2(&got, &want) < 1e-7);
    }

    #[test]
    #[should_panic(expected = "counts must sum to L")]
    fn bad_segment_counts_rejected() {
        let p = params(4, 2);
        let _ = SoiFft::new(p)
            .unwrap()
            .with_segment_counts(vec![1, 2, 3, 4]);
    }

    #[test]
    fn fused_segment_fft_pipeline_matches_unfused() {
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let plain = SoiFft::new(p).unwrap();
        let fused = SoiFft::new(p).unwrap().with_fused_segment_fft();
        let a = gather_output(Cluster::run(p.procs, |comm| {
            plain.forward(comm, &inputs[comm.rank()])
        }));
        let b = gather_output(Cluster::run(p.procs, |comm| {
            fused.forward(comm, &inputs[comm.rank()])
        }));
        assert!(rel_l2(&b, &a) < 1e-12);
        // Ledger: the fused pipeline has no separate segment-fft phase.
        let stats = Cluster::run(p.procs, |comm| {
            fused.forward(comm, &inputs[comm.rank()]);
            comm.stats().clone()
        });
        for s in &stats {
            assert_eq!(s.count_of("segment-fft"), 0);
            assert_eq!(s.count_of("convolution"), 1);
        }
    }

    #[test]
    fn virtual_time_matches_hand_computed_model() {
        // Install paper-flavoured rates and check the sim ledger equals the
        // closed-form expectation exactly (the functional/model bridge).
        let p = params(4, 2);
        let sim = SimSpec {
            fft_flops_per_s: 1e9,
            conv_flops_per_s: 2e9,
            net_bytes_per_s: 1e8,
            net_latency_s: 1e-4,
        };
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap().with_sim(sim);
        let stats = Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()]);
            comm.stats().clone()
        });
        for s in &stats {
            let conv_expect = p.conv_flops() / p.procs as f64 / sim.conv_flops_per_s;
            assert!((s.sim_seconds_in("convolution") - conv_expect).abs() < 1e-12);

            let seg_expect = p.blocks_per_rank() as f64 * soifft_fft::fft_flops(p.total_segments())
                / sim.fft_flops_per_s;
            assert!((s.sim_seconds_in("segment-fft") - seg_expect).abs() < 1e-12);

            let local_expect = p.segments_per_proc as f64 * soifft_fft::fft_flops(p.m_prime())
                / sim.fft_flops_per_s;
            assert!((s.sim_seconds_in("local-fft") - local_expect).abs() < 1e-12);

            // All-to-all: µ·(N/P)·16 bytes at the configured bandwidth.
            let bytes = (p.segments_per_proc * p.blocks_per_rank() * p.procs * 16) as f64;
            let a2a_expect = sim.net_latency_s + bytes / sim.net_bytes_per_s;
            assert!(
                (s.sim_seconds_in("all-to-all") - a2a_expect).abs() < 1e-12,
                "{} vs {}",
                s.sim_seconds_in("all-to-all"),
                a2a_expect
            );
        }
    }

    #[test]
    fn plan_without_sim_clears_stale_cost_model_on_reused_comm() {
        // Regression: a simulated plan installs a CostModel on the Comm's
        // ledger; a later plain plan on the SAME Comm must not keep
        // annotating phases with the stale model's virtual time.
        let p = params(4, 2);
        let sim = SimSpec {
            fft_flops_per_s: 1e9,
            conv_flops_per_s: 2e9,
            net_bytes_per_s: 1e8,
            net_latency_s: 1e-4,
        };
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let simulated = SoiFft::new(p).unwrap().with_sim(sim);
        let plain = SoiFft::new(p).unwrap();
        let stats = Cluster::run(p.procs, |comm| {
            simulated.forward(comm, &inputs[comm.rank()]);
            let after_sim = comm.stats().records().len();
            plain.forward(comm, &inputs[comm.rank()]);
            (after_sim, comm.stats().clone())
        });
        for (after_sim, s) in &stats {
            // First run is simulated: its comm phases carry sim time.
            assert!(s.records()[..*after_sim]
                .iter()
                .any(|r| r.sim_seconds.is_some()));
            // Second run is not: every later record must be wall-clock only.
            for r in &s.records()[*after_sim..] {
                assert_eq!(
                    r.sim_seconds, None,
                    "phase {:?} kept the stale cost model",
                    r.name
                );
            }
        }

        // The same leak applies to the fault-tolerant path.
        let stats = Cluster::run(p.procs, |comm| {
            let policy = ExchangePolicy::default();
            simulated
                .try_forward(comm, &inputs[comm.rank()], &policy)
                .unwrap();
            let after_sim = comm.stats().records().len();
            plain
                .try_forward(comm, &inputs[comm.rank()], &policy)
                .unwrap();
            (after_sim, comm.stats().clone())
        });
        for (after_sim, s) in &stats {
            for r in &s.records()[*after_sim..] {
                assert_eq!(r.sim_seconds, None, "try_forward leaked the cost model");
            }
        }
    }

    #[test]
    fn traced_superstep_nests_every_phase() {
        // With tracing on, the forward superstep emits one "superstep"
        // span whose children are the pipeline phases plus the pack span,
        // and the flat ledger is unchanged by tracing.
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let traced: Vec<CommStats> = Cluster::run_with(
            soifft_cluster::ClusterConfig::with_trace(),
            p.procs,
            |comm| {
                fft.forward(comm, &inputs[comm.rank()]);
                comm.stats().clone()
            },
        )
        .into_iter()
        .map(|o| match o {
            RankOutcome::Ok(s) => s,
            other => panic!("rank failed: {other:?}"),
        })
        .collect();
        let plain = Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()]);
            comm.stats().clone()
        });
        for (t, u) in traced.iter().zip(&plain) {
            let t_names: Vec<_> = t.records().iter().map(|r| r.name).collect();
            let u_names: Vec<_> = u.records().iter().map(|r| r.name).collect();
            assert_eq!(t_names, u_names, "tracing must not change the flat ledger");

            let events = t.trace_events();
            let supersteps: Vec<_> = events.iter().filter(|e| e.name == "superstep").collect();
            assert_eq!(supersteps.len(), 1);
            assert_eq!(supersteps[0].depth, 0);
            for name in [
                "ghost",
                "convolution",
                "segment-fft",
                "pack",
                "all-to-all",
                "local-fft",
            ] {
                let ev = events
                    .iter()
                    .find(|e| e.name == name)
                    .unwrap_or_else(|| panic!("missing span {name}"));
                assert_eq!(ev.depth, 1, "{name} must nest under the superstep");
            }
        }
    }

    #[test]
    fn distributed_inverse_round_trips() {
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let spectra = Cluster::run(p.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        let back = Cluster::run(p.procs, |comm| fft.inverse(comm, &spectra[comm.rank()]));
        let got = gather_output(back);
        let err = rel_l2(&got, &x);
        assert!(err < 1e-7, "round trip err={err:.3e}");
    }

    #[test]
    fn try_forward_surfaces_structured_error_with_partial_stats() {
        use soifft_cluster::{run_cluster_with_faults, CrashSite, FaultPlan, RankOutcome};
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        // Rank 2 dies entering the all-to-all: the ghost phase completes,
        // then the exchange must fail with a structured error carrying the
        // partial ledger — on every survivor, within the deadline.
        let plan = FaultPlan::new(9).crash(2, CrashSite::AllToAll);
        let outcomes = run_cluster_with_faults(p.procs, plan, |comm| {
            let policy = soifft_cluster::ExchangePolicy {
                deadline: std::time::Duration::from_secs(2),
                max_rounds: 2,
            };
            fft.try_forward(comm, &inputs[comm.rank()], &policy)
        });
        assert!(matches!(outcomes[2], RankOutcome::Crashed));
        for rank in [0usize, 1, 3] {
            let run = outcomes[rank].clone().unwrap();
            let err = run.expect_err("survivors must see the failure");
            assert_eq!(err.phase, "all-to-all", "rank {rank}");
            assert!(
                matches!(err.error, soifft_cluster::CommError::PeerFailed { rank: 2 }),
                "rank {rank}: {:?}",
                err.error
            );
            // The partial ledger still shows the completed ghost phase.
            assert_eq!(err.stats.count_of("ghost"), 1);
        }
    }

    #[test]
    fn scatter_gather_round_trip() {
        let x = signal(64);
        let parts = scatter_input(&x, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts[0].len(), 16);
        assert_eq!(gather_output(parts), x);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn wrong_cluster_size_panics() {
        let p = params(4, 2);
        let fft = SoiFft::new(p).unwrap();
        Cluster::run(2, |comm| {
            let input = vec![c64::ZERO; p.per_rank()];
            fft.forward(comm, &input);
        });
    }

    #[test]
    fn cancel_gate_decides_once_then_rearms() {
        let gate = CancelGate::new();
        assert!(
            gate.proceed_at(CancelGate::BOUNDARY_GHOST),
            "fresh gate proceeds"
        );
        gate.cancel();
        assert!(
            gate.proceed_at(CancelGate::BOUNDARY_GHOST),
            "a decided boundary must not flip, even after cancel"
        );
        assert!(
            !gate.proceed_at(CancelGate::BOUNDARY_ALL_TO_ALL),
            "undecided boundary observes the cancel"
        );
        gate.reset();
        assert!(!gate.is_cancelled());
        assert!(
            gate.proceed_at(CancelGate::BOUNDARY_ALL_TO_ALL),
            "reset re-arms"
        );
    }

    #[test]
    fn pre_cancelled_gate_sheds_before_any_collective() {
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let gate = CancelGate::new();
        gate.cancel();
        Cluster::run(p.procs, |comm| {
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
            let policy = soifft_cluster::ExchangePolicy::default();
            let err = fft
                .try_forward_into_cancellable(
                    comm,
                    &inputs[comm.rank()],
                    &policy,
                    &gate,
                    &mut ws,
                    &mut y,
                )
                .expect_err("pre-cancelled run must shed");
            assert_eq!(err.phase, phases::GHOST);
            assert!(
                matches!(err.error, CommError::Cancelled { phase: "ghost" }),
                "{:?}",
                err.error
            );
            // Shed *before* execution: no ghost exchange was recorded.
            assert_eq!(err.stats.count_of("ghost"), 0);
        });
        // The same gate, re-armed, runs to completion with correct output.
        gate.reset();
        let outputs = Cluster::run(p.procs, |comm| {
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
            let policy = soifft_cluster::ExchangePolicy::default();
            fft.try_forward_into_cancellable(
                comm,
                &inputs[comm.rank()],
                &policy,
                &gate,
                &mut ws,
                &mut y,
            )
            .expect("re-armed gate runs clean");
            y
        });
        let err = rel_l2(&gather_output(outputs), &reference_fft(&x));
        assert!(err < 1e-7, "err={err:.3e}");
    }

    #[test]
    fn racing_cancel_keeps_ranks_collectively_consistent() {
        // A cancel that lands while ranks are mid-superstep must never
        // diverge the collective: either every rank sheds at the same
        // boundary, or every rank completes. Race a rank-local cancel
        // against the pipeline across several trials.
        let p = params(4, 2);
        let x = signal(p.n);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        for trial in 0..6u64 {
            let gate = CancelGate::new();
            let phases_seen = Cluster::run(p.procs, |comm| {
                if comm.rank() == (trial as usize) % p.procs {
                    gate.cancel();
                }
                let mut ws = fft.make_workspace();
                let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
                let policy = soifft_cluster::ExchangePolicy::default();
                match fft.try_forward_into_cancellable(
                    comm,
                    &inputs[comm.rank()],
                    &policy,
                    &gate,
                    &mut ws,
                    &mut y,
                ) {
                    Ok(()) => None,
                    Err(e) => {
                        assert!(
                            matches!(e.error, CommError::Cancelled { .. }),
                            "{:?}",
                            e.error
                        );
                        Some(e.phase)
                    }
                }
            });
            let first = &phases_seen[0];
            assert!(
                phases_seen.iter().all(|o| o == first),
                "trial {trial}: ranks diverged: {phases_seen:?}"
            );
        }
    }
}
