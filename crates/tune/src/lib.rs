//! Self-tuning planner for the SOI FFT (FFTW-style wisdom).
//!
//! Given a transform shape `(N, P, precision)` and this machine's
//! fingerprint, the [`Tuner`]:
//!
//! 1. **enumerates** the candidate space — execution knobs
//!    ([`soifft_core::ConvStrategy`], [`soifft_core::ExchangePlan`],
//!    front-end fusion) and, optionally, alternative SOI shapes
//!    `(S, µ, B)` that keep at least the baseline's accuracy exponent;
//! 2. **ranks** candidates with the performance model as a prior
//!    ([`PlanReport::predicted_phases`] plus the
//!    [`soifft_model::schedule`] overlap timeline for pipelined
//!    exchanges);
//! 3. **probes** the top-k candidates with short best-of-R measured runs
//!    over the warm `forward_into` path ([`probe::MeasuredProber`]),
//!    barrier-aligned exactly like the throughput bench;
//! 4. **reconciles** predicted vs measured per phase from the trace
//!    ledger and refits the [`RateModel`] coefficients, so the *next*
//!    tuning run's prior starts closer to this machine
//!    ([`Tuner::refit`]);
//! 5. **persists** winners in a versioned, checksummed wisdom file
//!    ([`wisdom`]) keyed by `(N, P, precision, machine fingerprint)`,
//!    and installs them in the in-process registry
//!    ([`soifft_core::wisdom`]) that `SoiFft::with_window` and the
//!    serving engine consult at construction.
//!
//! The three [`Tier`]s mirror FFTW's planner rigor flags: `Estimate`
//! never runs the transform, `Measure` probes, and `WisdomOnly` fails
//! closed so latency-sensitive callers (the serve path) can refuse to
//! plan from scratch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod probe;
pub mod wisdom;

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use soifft_cluster::CommStats;
use soifft_core::wisdom as registry;
use soifft_core::{
    ConvStrategy, ExchangePlan, PlanReport, Precision, Rational, SoiError, SoiFft, SoiParams,
};

pub use probe::{probe_executions, MeasuredProber, ProbeMeasurement, Prober};
pub use wisdom::{
    machine_fingerprint, WisdomEntry, WisdomError, WisdomFile, WISDOM_SCHEMA_VERSION,
};

/// Planner rigor, mirroring FFTW's `ESTIMATE` / `MEASURE` /
/// `WISDOM_ONLY` flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Rank candidates with the cost model only; never run the transform.
    Estimate,
    /// Probe the top-k model-ranked candidates with measured runs and
    /// pick the fastest (always probing the default plan too, so the
    /// tuned pick can never be adopted on a worse measurement).
    Measure,
    /// Only accept a plan already present in wisdom; fail closed
    /// ([`TuneError::NoWisdom`]) otherwise. For latency-sensitive
    /// callers that must not probe at startup.
    WisdomOnly,
}

/// Why a tuning request could not be satisfied.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TuneError {
    /// A candidate shape failed [`SoiParams::validate`].
    InvalidShape(SoiError),
    /// No valid SOI parameterization exists for `(n, procs)` — even
    /// [`SoiParams::suggest`] found nothing.
    NoCandidates {
        /// Requested transform size.
        n: usize,
        /// Requested rank count.
        procs: usize,
    },
    /// [`Tier::WisdomOnly`] and no wisdom entry covers the request.
    NoWisdom {
        /// Requested transform size.
        n: usize,
        /// Requested rank count.
        procs: usize,
    },
    /// The measured prober failed (cluster spawn, etc.).
    Probe(String),
    /// Wisdom persistence failed.
    Wisdom(WisdomError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::InvalidShape(e) => write!(f, "invalid candidate shape: {e}"),
            TuneError::NoCandidates { n, procs } => {
                write!(f, "no valid SOI parameterization for n={n}, procs={procs}")
            }
            TuneError::NoWisdom { n, procs } => write!(
                f,
                "wisdom-only planning requested but no wisdom covers n={n}, procs={procs}"
            ),
            TuneError::Probe(msg) => write!(f, "probe failed: {msg}"),
            TuneError::Wisdom(e) => write!(f, "wisdom persistence failed: {e}"),
        }
    }
}

impl std::error::Error for TuneError {}

impl From<WisdomError> for TuneError {
    fn from(e: WisdomError) -> Self {
        TuneError::Wisdom(e)
    }
}

/// Effective machine rates — the cost-model coefficients the tuner
/// refits from measured probes. Convertible to the core crate's
/// [`soifft_core::SimSpec`] for [`PlanReport::predicted_phases`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateModel {
    /// Effective node-local FFT rate, flops/s.
    pub fft_flops_per_s: f64,
    /// Effective convolution rate, flops/s.
    pub conv_flops_per_s: f64,
    /// Per-rank injection bandwidth, bytes/s.
    pub net_bytes_per_s: f64,
    /// Per-exchange latency floor, seconds.
    pub net_latency_s: f64,
}

impl RateModel {
    /// A deliberately generic prior: plausible for commodity hardware but
    /// expected to be off by a sizable factor on any particular machine —
    /// the refit-shrinks-error acceptance test measures exactly that gap
    /// closing.
    pub fn default_prior() -> Self {
        RateModel {
            fft_flops_per_s: 2.0e9,
            // Nominal `8BµN` flops per second of the panel-outer kernel
            // inside a transform on a ~2 GHz AVX2 core.
            conv_flops_per_s: 3.0e10,
            net_bytes_per_s: 4.0e9,
            net_latency_s: 5.0e-6,
        }
    }

    /// The core crate's simulation spec with these rates.
    pub fn to_sim(self) -> soifft_core::SimSpec {
        soifft_core::SimSpec {
            fft_flops_per_s: self.fft_flops_per_s,
            conv_flops_per_s: self.conv_flops_per_s,
            net_bytes_per_s: self.net_bytes_per_s,
            net_latency_s: self.net_latency_s,
        }
    }
}

/// Measured wall seconds per pipeline phase, reduced max-over-ranks from
/// the trace ledger (the slowest rank sets the superstep's critical
/// path).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseSeconds {
    /// Ghost exchange.
    pub ghost_s: f64,
    /// Convolution `u = Wx` (under the fused front end this record also
    /// contains the block DFTs — see [`Observation::fused`]).
    pub convolution_s: f64,
    /// Block DFTs (`I ⊗ F_L`); zero under the fused front end, which
    /// records no separate `segment-fft` phase.
    pub segment_fft_s: f64,
    /// The single all-to-all.
    pub all_to_all_s: f64,
    /// Recovery FFTs.
    pub local_fft_s: f64,
}

impl PhaseSeconds {
    /// Max-over-ranks per-phase seconds from each rank's
    /// [`CommStats`] ledger snapshot.
    pub fn from_stats(stats: &[CommStats]) -> Self {
        let max_of = |name: &str| {
            stats
                .iter()
                .map(|s| s.seconds_in(name))
                .fold(0.0_f64, f64::max)
        };
        PhaseSeconds {
            ghost_s: max_of("ghost"),
            convolution_s: max_of("convolution"),
            segment_fft_s: max_of("segment-fft"),
            all_to_all_s: max_of("all-to-all"),
            local_fft_s: max_of("local-fft"),
        }
    }

    /// Sum over phases.
    pub fn total_s(&self) -> f64 {
        self.ghost_s
            + self.convolution_s
            + self.segment_fft_s
            + self.all_to_all_s
            + self.local_fft_s
    }
}

/// One reconciled probe: the plan's static byte/flop counts plus the
/// measured per-phase seconds, ready for [`Tuner::refit`].
#[derive(Clone, Debug)]
pub struct Observation {
    /// Static counts for the probed plan.
    pub report: PlanReport,
    /// Whether the probed plan used the fused front end. Fusion records
    /// the convolution and the block DFTs as one `convolution` ledger
    /// entry with no `segment-fft` record, so the refit must attribute
    /// `conv_flops + seg_fft_flops` to that single measurement.
    pub fused: bool,
    /// Measured per-phase seconds.
    pub phases: PhaseSeconds,
}

/// One point of the candidate space: a transform shape plus execution
/// knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// SOI shape (`N`, `P`, `S`, `µ`, `B`).
    pub params: SoiParams,
    /// Execution knobs.
    pub exec: registry::TunedExec,
    /// Back-half precision.
    pub precision: Precision,
}

impl Candidate {
    /// Builds the distributed FFT for this candidate. Precision is
    /// applied *before* the explicit knobs so a registry hit inside
    /// `with_precision` cannot override the candidate under test.
    pub fn build(&self) -> Result<SoiFft, SoiError> {
        Ok(SoiFft::new(self.params)?
            .with_precision(self.precision)
            .with_tuned_exec(self.exec))
    }

    /// The registry key this candidate would be installed under.
    pub fn key(&self) -> registry::WisdomKey {
        registry::WisdomKey {
            n: self.params.n,
            procs: self.params.procs,
            precision: self.precision,
        }
    }

    /// Stable one-line description (used for dedup and logs).
    pub fn describe(&self) -> String {
        format!(
            "s={} mu={}/{} b={} strategy={} exchange={} fused={}",
            self.params.segments_per_proc,
            self.params.mu.num(),
            self.params.mu.den(),
            self.params.conv_width,
            self.exec.strategy.label(),
            wisdom::exchange_label(self.exec.exchange),
            u8::from(self.exec.fused),
        )
    }
}

/// A tuning request: the shape to plan for plus search bounds.
#[derive(Clone, Copy, Debug)]
pub struct TuneRequest {
    /// Total transform size `N`.
    pub n: usize,
    /// Rank count `P`.
    pub procs: usize,
    /// Back-half precision.
    pub precision: Precision,
    /// Baseline shape; `None` means [`SoiParams::suggest`].
    pub base: Option<SoiParams>,
    /// Also vary the SOI shape `(S, µ, B)` — never below the baseline's
    /// accuracy exponent. When false only execution knobs are explored.
    pub explore_shapes: bool,
    /// How many model-ranked candidates to probe under [`Tier::Measure`]
    /// (the default plan is always probed in addition).
    pub top_k: usize,
    /// Timed repetitions per probe; the best (minimum) wall is kept.
    pub reps: usize,
}

impl TuneRequest {
    /// A request with the default search bounds.
    pub fn new(n: usize, procs: usize) -> Self {
        TuneRequest {
            n,
            procs,
            precision: Precision::F64,
            base: None,
            explore_shapes: true,
            top_k: 4,
            reps: 2,
        }
    }
}

/// Where the chosen plan came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanSource {
    /// Loaded from persisted wisdom; zero probes run.
    Wisdom,
    /// Picked by measured probes this run.
    Measured,
    /// Picked by the cost model alone.
    Estimated,
}

/// The result of one [`Tuner::plan`] call.
#[derive(Clone, Debug)]
pub struct TuneOutcome {
    /// The winning candidate (its `params` may differ from the baseline
    /// when shape exploration found a faster valid shape — callers adopt
    /// it explicitly by building from `chosen.params`).
    pub chosen: Candidate,
    /// Provenance of the decision.
    pub source: PlanSource,
    /// Probes executed by this call (0 for wisdom hits and estimates).
    pub probes_run: usize,
    /// Best measured wall seconds of the winner, when probed.
    pub measured_s: Option<f64>,
    /// Best measured wall seconds of the default plan, when probed.
    pub default_measured_s: Option<f64>,
    /// Model-predicted seconds for the winner under the current rates.
    pub predicted_s: f64,
    /// Mean per-phase relative prediction error over this run's probes
    /// *before* the refit.
    pub prior_error: Option<f64>,
    /// Same, re-evaluated *after* the refit. The acceptance test asserts
    /// `post_error < prior_error`.
    pub post_error: Option<f64>,
}

/// Shape grid explored when [`TuneRequest::explore_shapes`] is set:
/// `(µ num, µ den, B)` points spanning the paper's accuracy/flops
/// trade (§4): wide guard bands (8/7, 72) down to cheap high-µ points
/// (2, 16) whose exponent still beats the default's.
const SHAPE_GRID: &[(usize, usize, usize)] = &[
    (8, 7, 72),
    (8, 7, 36),
    (5, 4, 48),
    (4, 3, 36),
    (3, 2, 24),
    (2, 1, 16),
];

/// Segments-per-rank grid (§6.1 explores 1–32).
const SEGMENT_GRID: &[usize] = &[1, 2, 4, 8, 16, 32];

/// Chunk/proxy granularity probed for the pipelined exchanges.
const CHUNK_ELEMS: usize = 8192;

/// Tap-table size above which the chunk-outer convolution, which streams
/// the whole table once per chunk, is penalized harder in the prior
/// (nominal private-L2 bytes). The panel-outer orders keep one panel's
/// taps in L1 at any size.
const TAP_CACHE_BYTES: usize = 1 << 20;

/// Prior discount for the fused front end: one fewer sweep over `u`
/// (§5.3 loop fusion).
const FUSED_SWEEP_FACTOR: f64 = 0.9;

/// The self-tuning planner: model prior, measured probes, persisted
/// wisdom.
#[derive(Debug)]
pub struct Tuner {
    rates: RateModel,
    entries: Vec<WisdomEntry>,
    fingerprint: String,
    path: Option<PathBuf>,
    degraded: Option<WisdomError>,
}

impl Tuner {
    /// A tuner with no persistence: default-prior rates, empty wisdom.
    pub fn in_memory() -> Self {
        Tuner {
            rates: RateModel::default_prior(),
            entries: Vec::new(),
            fingerprint: machine_fingerprint(),
            path: None,
            degraded: None,
        }
    }

    /// A tuner backed by the wisdom file at `path`. A missing file is a
    /// fresh start; a malformed, stale-schema, checksum-failing or
    /// foreign-fingerprint file **degrades** to an empty tuner (the
    /// error is kept in [`Tuner::degraded`]) rather than failing or
    /// adopting bogus plans. Loaded entries are installed in the
    /// in-process registry immediately.
    pub fn with_wisdom_file(path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        let mut tuner = Tuner::in_memory();
        if !path.exists() {
            tuner.path = Some(path);
            return tuner;
        }
        match WisdomFile::load_for(&path, &tuner.fingerprint) {
            Ok(file) => {
                tuner.rates = file.rates;
                tuner.entries = file.entries;
                for e in &tuner.entries {
                    registry::install(e.key(), e.exec);
                }
            }
            Err(e) => tuner.degraded = Some(e),
        }
        tuner.path = Some(path);
        tuner
    }

    /// The load error, if construction degraded to an empty tuner.
    pub fn degraded(&self) -> Option<&WisdomError> {
        self.degraded.as_ref()
    }

    /// Current rate coefficients.
    pub fn rates(&self) -> &RateModel {
        &self.rates
    }

    /// Overrides the rate coefficients (tests; calibrated priors).
    pub fn set_rates(&mut self, rates: RateModel) {
        self.rates = rates;
    }

    /// Wisdom entries currently held (loaded + learned this session).
    pub fn entries(&self) -> &[WisdomEntry] {
        &self.entries
    }

    /// This tuner's machine fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The baseline (default) candidate for a request: the shape the
    /// untuned path would run, with the untuned execution knobs.
    pub fn default_candidate(&self, req: &TuneRequest) -> Result<Candidate, TuneError> {
        let params = match req.base {
            Some(p) => p,
            None => SoiParams::suggest(req.n, req.procs).ok_or(TuneError::NoCandidates {
                n: req.n,
                procs: req.procs,
            })?,
        };
        params.validate().map_err(TuneError::InvalidShape)?;
        // Mirror `SoiFft`'s construction defaults exactly, so "default"
        // here means what an untuned caller actually runs.
        Ok(Candidate {
            params,
            exec: registry::TunedExec {
                strategy: ConvStrategy::InterchangedBuffered,
                exchange: ExchangePlan::Monolithic,
                fused: false,
            },
            precision: req.precision,
        })
    }

    /// Enumerates the candidate space for `req`, deterministically
    /// ordered. Shape exploration keeps only shapes whose accuracy
    /// exponent is at least the baseline's: the tuner never trades
    /// accuracy for speed.
    pub fn enumerate(&self, req: &TuneRequest) -> Result<Vec<Candidate>, TuneError> {
        let base = self.default_candidate(req)?.params;
        let base_exponent = PlanReport::new(base)
            .map_err(|(e, _)| TuneError::InvalidShape(e))?
            .accuracy_exponent;

        let mut shapes: Vec<SoiParams> = vec![base];
        if req.explore_shapes {
            let mut grid: Vec<(usize, usize, usize)> = SHAPE_GRID.to_vec();
            let base_point = (base.mu.num(), base.mu.den(), base.conv_width);
            if !grid.contains(&base_point) {
                grid.push(base_point);
            }
            for &s in SEGMENT_GRID {
                for &(num, den, b) in &grid {
                    let p = SoiParams {
                        n: req.n,
                        procs: req.procs,
                        segments_per_proc: s,
                        mu: Rational::new(num, den),
                        conv_width: b,
                    };
                    if p == base || p.validate().is_err() {
                        continue;
                    }
                    let Ok(report) = PlanReport::new(p) else {
                        continue;
                    };
                    // Strictly never below the baseline's accuracy.
                    if report.accuracy_exponent + 1e-9 < base_exponent {
                        continue;
                    }
                    if !shapes.contains(&p) {
                        shapes.push(p);
                    }
                }
            }
        }

        let exchanges = [
            ExchangePlan::Monolithic,
            ExchangePlan::Chunked(CHUNK_ELEMS),
            ExchangePlan::PerSegment,
            ExchangePlan::Overlapped,
            ExchangePlan::Proxied(CHUNK_ELEMS),
        ];
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        let mut push = |cand: Candidate, out: &mut Vec<Candidate>| {
            let tag = format!(
                "{} {} {}",
                cand.params.segments_per_proc,
                cand.params.conv_width,
                cand.describe()
            );
            if seen.insert(tag) {
                out.push(cand);
            }
        };
        for &params in &shapes {
            for strategy in ConvStrategy::ALL {
                for exchange in exchanges {
                    push(
                        Candidate {
                            params,
                            exec: registry::TunedExec {
                                strategy,
                                exchange,
                                fused: false,
                            },
                            precision: req.precision,
                        },
                        &mut out,
                    );
                }
            }
            // Fusion forces the row-major sweep; one candidate per
            // exchange plan.
            for exchange in exchanges {
                push(
                    Candidate {
                        params,
                        exec: registry::TunedExec {
                            strategy: ConvStrategy::RowMajor,
                            exchange,
                            fused: true,
                        },
                        precision: req.precision,
                    },
                    &mut out,
                );
            }
        }
        if out.is_empty() {
            return Err(TuneError::NoCandidates {
                n: req.n,
                procs: req.procs,
            });
        }
        Ok(out)
    }

    /// Model-predicted seconds for one candidate under the current
    /// rates: the per-phase breakdown from [`PlanReport`], adjusted for
    /// the candidate's execution knobs (strategy cache behaviour, fused
    /// sweep saving, and the §6.1 overlap timeline for pipelined
    /// exchanges via [`soifft_model::schedule`]).
    pub fn prior_seconds(&self, cand: &Candidate) -> Result<f64, TuneError> {
        let report = PlanReport::new(cand.params).map_err(|(e, _)| TuneError::InvalidShape(e))?;
        let b = report.predicted_phases(&self.rates.to_sim());

        // Refit to the panel kernel (2-core AVX2 host, µ = 5/4, B = 72):
        // chunk-outer over an L2-resident table (L = 16, 92 KB) runs 1.3×
        // the panel-outer time, over a 2.9 MB table (L = 512) about 2×.
        // The fused front end is chunk-outer too. The two interchanged
        // variants are one loop nest.
        let chunk_outer = cand.exec.fused || cand.exec.strategy == ConvStrategy::RowMajor;
        let strategy_factor = match (chunk_outer, report.tap_bytes > TAP_CACHE_BYTES) {
            (false, _) => 1.0,
            (true, false) => 1.3,
            (true, true) => 2.0,
        };
        let mut conv_s = b.convolution_s * strategy_factor;
        let mut seg_s = b.segment_fft_s;
        if cand.exec.fused {
            conv_s = (conv_s + seg_s) * FUSED_SWEEP_FACTOR;
            seg_s = 0.0;
        }
        let preamble = b.ghost_s + conv_s + seg_s;

        let s = cand.params.segments_per_proc as u32;
        let overlapped = matches!(
            cand.exec.exchange,
            ExchangePlan::PerSegment | ExchangePlan::Overlapped
        );
        if overlapped && s > 1 {
            let t = soifft_model::schedule::try_overlapped_timeline(
                preamble,
                b.all_to_all_s / f64::from(s),
                b.local_fft_s / f64::from(s),
                s,
            )
            .expect("s > 1 segments");
            Ok(t.total)
        } else {
            Ok(preamble + b.all_to_all_s + b.local_fft_s)
        }
    }

    /// Mean absolute per-phase prediction error relative to the measured
    /// total: `Σ|pred_i − meas_i| / Σ meas_i`. Under a fused plan the
    /// predicted convolution and segment-FFT phases are compared jointly
    /// against the single measured `convolution` record.
    pub fn prediction_error(&self, report: &PlanReport, fused: bool, m: &PhaseSeconds) -> f64 {
        let p = report.predicted_phases(&self.rates.to_sim());
        let pairs: Vec<(f64, f64)> = if fused {
            vec![
                (p.ghost_s, m.ghost_s),
                (p.convolution_s + p.segment_fft_s, m.convolution_s),
                (p.all_to_all_s, m.all_to_all_s),
                (p.local_fft_s, m.local_fft_s),
            ]
        } else {
            vec![
                (p.ghost_s, m.ghost_s),
                (p.convolution_s, m.convolution_s),
                (p.segment_fft_s, m.segment_fft_s),
                (p.all_to_all_s, m.all_to_all_s),
                (p.local_fft_s, m.local_fft_s),
            ]
        };
        let denom: f64 = pairs.iter().map(|&(_, meas)| meas).sum();
        if denom <= 0.0 {
            return 0.0;
        }
        pairs
            .iter()
            .map(|&(pred, meas)| (pred - meas).abs())
            .sum::<f64>()
            / denom
    }

    /// Refits the rate coefficients from measured observations: each
    /// rate becomes total attributed work over total measured seconds.
    /// Fused observations attribute `conv + seg_fft` flops to the single
    /// combined `convolution` measurement. The latency floor is the mean
    /// measured ghost time in excess of its bandwidth term, clamped at
    /// zero. Phases with no measured time leave their coefficient
    /// untouched.
    pub fn refit(&mut self, observations: &[Observation]) {
        let (mut conv_flops, mut conv_secs) = (0.0_f64, 0.0_f64);
        let (mut fft_flops, mut fft_secs) = (0.0_f64, 0.0_f64);
        let (mut net_bytes, mut net_secs) = (0.0_f64, 0.0_f64);
        for o in observations {
            if o.fused {
                conv_flops += o.report.conv_flops + o.report.seg_fft_flops;
                conv_secs += o.phases.convolution_s;
            } else {
                conv_flops += o.report.conv_flops;
                conv_secs += o.phases.convolution_s;
                fft_flops += o.report.seg_fft_flops;
                fft_secs += o.phases.segment_fft_s;
            }
            fft_flops += o.report.recovery_fft_flops;
            fft_secs += o.phases.local_fft_s;
            net_bytes += o.report.alltoall_bytes as f64;
            net_secs += o.phases.all_to_all_s;
        }
        if conv_secs > 0.0 && conv_flops > 0.0 {
            self.rates.conv_flops_per_s = conv_flops / conv_secs;
        }
        if fft_secs > 0.0 && fft_flops > 0.0 {
            self.rates.fft_flops_per_s = fft_flops / fft_secs;
        }
        if net_secs > 0.0 && net_bytes > 0.0 {
            self.rates.net_bytes_per_s = net_bytes / net_secs;
        }
        let latencies: Vec<f64> = observations
            .iter()
            .filter(|o| o.phases.ghost_s > 0.0 && o.report.ghost_bytes > 0)
            .map(|o| {
                (o.phases.ghost_s - o.report.ghost_bytes as f64 / self.rates.net_bytes_per_s)
                    .max(0.0)
            })
            .collect();
        if !latencies.is_empty() {
            self.rates.net_latency_s = latencies.iter().sum::<f64>() / latencies.len() as f64;
        }
    }

    fn entry_for(&self, n: usize, procs: usize, precision: Precision) -> Option<WisdomEntry> {
        self.entries
            .iter()
            .find(|e| e.params.n == n && e.params.procs == procs && e.precision == precision)
            .cloned()
    }

    fn upsert(&mut self, entry: WisdomEntry) {
        match self.entries.iter_mut().find(|e| {
            e.params.n == entry.params.n
                && e.params.procs == entry.params.procs
                && e.precision == entry.precision
        }) {
            Some(slot) => *slot = entry,
            None => self.entries.push(entry),
        }
    }

    /// Plans for `req` at the given rigor. All tiers install the chosen
    /// execution knobs in the in-process registry so subsequent
    /// [`SoiFft::with_window`] / serve-engine constructions of the same
    /// shape pick them up.
    pub fn plan(
        &mut self,
        req: &TuneRequest,
        tier: Tier,
        prober: &mut dyn Prober,
    ) -> Result<TuneOutcome, TuneError> {
        // Warm wisdom answers every tier without probing.
        if let Some(entry) = self.entry_for(req.n, req.procs, req.precision) {
            let chosen = Candidate {
                params: entry.params,
                exec: entry.exec,
                precision: entry.precision,
            };
            registry::install(entry.key(), entry.exec);
            let predicted_s = self.prior_seconds(&chosen)?;
            return Ok(TuneOutcome {
                chosen,
                source: PlanSource::Wisdom,
                probes_run: 0,
                measured_s: Some(entry.measured_s),
                default_measured_s: None,
                predicted_s,
                prior_error: None,
                post_error: None,
            });
        }
        if tier == Tier::WisdomOnly {
            return Err(TuneError::NoWisdom {
                n: req.n,
                procs: req.procs,
            });
        }

        let candidates = self.enumerate(req)?;
        let mut ranked: Vec<(f64, Candidate)> = Vec::with_capacity(candidates.len());
        for cand in candidates {
            ranked.push((self.prior_seconds(&cand)?, cand));
        }
        // Stable sort: equal priors keep enumeration order, so ranking
        // is deterministic.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));

        if tier == Tier::Estimate {
            let (predicted_s, chosen) = ranked[0];
            registry::install(chosen.key(), chosen.exec);
            return Ok(TuneOutcome {
                chosen,
                source: PlanSource::Estimated,
                probes_run: 0,
                measured_s: None,
                default_measured_s: None,
                predicted_s,
                prior_error: None,
                post_error: None,
            });
        }

        // Measure: always probe the default plan first so the tuned pick
        // can never be adopted on a worse measurement than the default's.
        let default_cand = self.default_candidate(req)?;
        let mut probe_set: Vec<Candidate> = vec![default_cand];
        for &(_, cand) in ranked.iter().take(req.top_k.max(1)) {
            if cand != default_cand {
                probe_set.push(cand);
            }
        }

        let mut observations = Vec::with_capacity(probe_set.len());
        let mut measured: Vec<(f64, Candidate)> = Vec::with_capacity(probe_set.len());
        for cand in &probe_set {
            let m = prober.probe(cand, req.reps)?;
            let report =
                PlanReport::new(cand.params).map_err(|(e, _)| TuneError::InvalidShape(e))?;
            observations.push(Observation {
                report,
                fused: cand.exec.fused,
                phases: m.phases,
            });
            measured.push((m.wall_s, *cand));
        }

        let mean_error = |tuner: &Tuner| {
            observations
                .iter()
                .map(|o| tuner.prediction_error(&o.report, o.fused, &o.phases))
                .sum::<f64>()
                / observations.len() as f64
        };
        let prior_error = mean_error(self);
        self.refit(&observations);
        let post_error = mean_error(self);

        let (best_wall, chosen) = measured
            .iter()
            .copied()
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .expect("probe set is never empty");
        let default_wall = measured[0].0;

        let entry = WisdomEntry {
            params: chosen.params,
            exec: chosen.exec,
            precision: chosen.precision,
            measured_s: best_wall,
        };
        registry::install(entry.key(), entry.exec);
        self.upsert(entry);
        self.save()?;

        let predicted_s = self.prior_seconds(&chosen)?;
        Ok(TuneOutcome {
            chosen,
            source: PlanSource::Measured,
            probes_run: probe_set.len(),
            measured_s: Some(best_wall),
            default_measured_s: Some(default_wall),
            predicted_s,
            prior_error: Some(prior_error),
            post_error: Some(post_error),
        })
    }

    /// Persists rates + entries to the wisdom file (atomic tmp + rename).
    /// A no-op for in-memory tuners.
    pub fn save(&self) -> Result<(), WisdomError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let file = WisdomFile {
            fingerprint: self.fingerprint.clone(),
            rates: self.rates,
            entries: self.entries.clone(),
        };
        file.save(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic fake prober: "measures" a candidate as its model
    /// prior under fixed synthetic rates, plus a seed-keyed jitter that
    /// is a pure function of (seed, candidate). Two same-seed tuner runs
    /// therefore observe identical measurements.
    pub(crate) struct SyntheticProber {
        seed: u64,
        rates: RateModel,
        pub probes: usize,
    }

    impl SyntheticProber {
        pub(crate) fn new(seed: u64) -> Self {
            SyntheticProber {
                seed,
                rates: RateModel {
                    fft_flops_per_s: 1.1e9,
                    conv_flops_per_s: 2.3e9,
                    net_bytes_per_s: 1.7e9,
                    net_latency_s: 2.0e-6,
                },
                probes: 0,
            }
        }

        fn jitter(&self, cand: &Candidate) -> f64 {
            let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ self.seed;
            for b in cand.describe().bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
            // ±2 % multiplicative jitter.
            1.0 + ((h >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.04
        }
    }

    impl Prober for SyntheticProber {
        fn probe(&mut self, cand: &Candidate, _reps: usize) -> Result<ProbeMeasurement, TuneError> {
            self.probes += 1;
            let report =
                PlanReport::new(cand.params).map_err(|(e, _)| TuneError::InvalidShape(e))?;
            let b = report.predicted_phases(&self.rates.to_sim());
            let j = self.jitter(cand);
            let fused = cand.exec.fused;
            let phases = PhaseSeconds {
                ghost_s: b.ghost_s * j,
                convolution_s: if fused {
                    (b.convolution_s + b.segment_fft_s) * j
                } else {
                    b.convolution_s * j
                },
                segment_fft_s: if fused { 0.0 } else { b.segment_fft_s * j },
                all_to_all_s: b.all_to_all_s * j,
                local_fft_s: b.local_fft_s * j,
            };
            Ok(ProbeMeasurement {
                wall_s: phases.total_s(),
                phases,
            })
        }
    }

    fn request() -> TuneRequest {
        TuneRequest::new(1 << 14, 4)
    }

    #[test]
    fn enumeration_is_deterministic_and_respects_accuracy_floor() {
        let tuner = Tuner::in_memory();
        let req = request();
        let a = tuner.enumerate(&req).unwrap();
        let b = tuner.enumerate(&req).unwrap();
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x == y));
        assert!(
            a.len() > 20,
            "expected a real candidate space, got {}",
            a.len()
        );

        let base = tuner.default_candidate(&req).unwrap().params;
        let floor = PlanReport::new(base).unwrap().accuracy_exponent;
        for cand in &a {
            let exp = PlanReport::new(cand.params).unwrap().accuracy_exponent;
            assert!(
                exp + 1e-6 >= floor,
                "candidate {} trades accuracy: {exp} < {floor}",
                cand.describe()
            );
        }
    }

    #[test]
    fn estimate_tier_never_probes() {
        let mut tuner = Tuner::in_memory();
        let mut prober = SyntheticProber::new(7);
        let out = tuner.plan(&request(), Tier::Estimate, &mut prober).unwrap();
        assert_eq!(out.source, PlanSource::Estimated);
        assert_eq!(out.probes_run, 0);
        assert_eq!(prober.probes, 0);
        assert!(out.predicted_s > 0.0);
    }

    #[test]
    fn wisdom_only_fails_closed_without_wisdom() {
        let mut tuner = Tuner::in_memory();
        let mut prober = SyntheticProber::new(7);
        let err = tuner
            .plan(&request(), Tier::WisdomOnly, &mut prober)
            .unwrap_err();
        assert!(matches!(err, TuneError::NoWisdom { .. }));
        assert_eq!(prober.probes, 0);
    }

    #[test]
    fn measure_tier_probes_default_and_never_loses_to_it() {
        let mut tuner = Tuner::in_memory();
        let req = request();
        let mut prober = SyntheticProber::new(42);
        let out = tuner.plan(&req, Tier::Measure, &mut prober).unwrap();
        assert_eq!(out.source, PlanSource::Measured);
        assert!(out.probes_run >= 2);
        assert_eq!(prober.probes, out.probes_run);
        let best = out.measured_s.unwrap();
        let default = out.default_measured_s.unwrap();
        assert!(
            best <= default,
            "tuned pick measured {best} slower than default {default}"
        );
        // The winner is persisted in-session: a second plan call is a
        // wisdom hit with zero probes.
        let out2 = tuner.plan(&req, Tier::Measure, &mut prober).unwrap();
        assert_eq!(out2.source, PlanSource::Wisdom);
        assert_eq!(out2.probes_run, 0);
        assert_eq!(prober.probes, out.probes_run);
        assert_eq!(out2.chosen, out.chosen);
    }

    #[test]
    fn same_seed_runs_pick_the_same_plan() {
        let req = request();
        let run = || {
            let mut tuner = Tuner::in_memory();
            let mut prober = SyntheticProber::new(1234);
            tuner.plan(&req, Tier::Measure, &mut prober).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.chosen, b.chosen);
        assert_eq!(a.measured_s, b.measured_s);
        assert_eq!(a.probes_run, b.probes_run);
    }

    #[test]
    fn refit_shrinks_prediction_error() {
        let mut tuner = Tuner::in_memory();
        let req = request();
        let mut prober = SyntheticProber::new(99);
        let out = tuner.plan(&req, Tier::Measure, &mut prober).unwrap();
        let prior = out.prior_error.unwrap();
        let post = out.post_error.unwrap();
        assert!(
            post < prior,
            "refit did not shrink per-phase prediction error: {prior} -> {post}"
        );
    }

    #[test]
    fn refit_handles_fused_observations() {
        // One fused observation: conv + seg-fft flops land in the single
        // combined convolution measurement; the fitted conv rate must
        // reflect the combined work, and the fft rate only the recovery.
        let params = SoiParams::suggest(1 << 14, 4).unwrap();
        let report = PlanReport::new(params).unwrap();
        let phases = PhaseSeconds {
            ghost_s: 0.0,
            convolution_s: 0.010,
            segment_fft_s: 0.0,
            all_to_all_s: 0.004,
            local_fft_s: 0.005,
        };
        let mut tuner = Tuner::in_memory();
        tuner.refit(&[Observation {
            report: report.clone(),
            fused: true,
            phases,
        }]);
        let expect_conv = (report.conv_flops + report.seg_fft_flops) / 0.010;
        let expect_fft = report.recovery_fft_flops / 0.005;
        assert!((tuner.rates().conv_flops_per_s - expect_conv).abs() / expect_conv < 1e-12);
        assert!((tuner.rates().fft_flops_per_s - expect_fft).abs() / expect_fft < 1e-12);
    }
}
