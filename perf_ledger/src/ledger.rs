//! What runs inside one fresh child process: a workload's end-to-end
//! measurement ([`child_e2e`]) or one section of the traced per-layer
//! ledger ([`child_section`]). Children print `M name value` lines (plus
//! `X` auxiliaries, `A` attempted, `F` failures) that the parent collects.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use soifft::cluster::{Comm, ExchangePolicy};
use soifft::ct::DistributedCtFft;
use soifft::num::c64;
use soifft::serve::{Rejected, ServeEngine};
use soifft::soi::{
    CancelGate, PlanReport, Precision, Rational, SoiFft, SoiFftLocal, SoiParams, SoiWorkspace,
    Window, WindowKind,
};
use soifft::tune::{MeasuredProber, RateModel, Tier, TuneRequest, Tuner};

use crate::dist::{run_e2e, run_traced, Ct, Fabric, InSitu, SoiReplay, Transform, PHASES};
use crate::host::{cache_sizes_kib, mem_available_kib, peak_rss_mib, RANKS};
use crate::input::{ring, RING};
use crate::layers::{conv_rates, fabric_rates, fft_rates, fork_join_us, host_bandwidth, num_rates};
use crate::metrics::Workload;
use crate::spans::{chrome_trace, self_time_table, self_time_text, Span};
use crate::stats::{median, min_count_for, percentile, sorted};
use crate::{serve, stats};

/// Transform lengths per workload.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// `soi_large` and `ct_large`.
    pub large_n: usize,
    /// `soi_small_tcp`.
    pub small_n: usize,
    /// `serve_closed`.
    pub serve_n: usize,
    /// Fewest timed operations of a measuring run.
    pub min_ops: usize,
    /// Largest array of the bandwidth ceilings, bytes: what keeps one
    /// traced run inside its time budget.
    pub stream_cap_bytes: usize,
}

impl Sizes {
    /// The benchmark's sizes, or the 1/64-size smoke variant (the two small
    /// workloads stop at N = 2^12, the smallest the design point admits).
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Sizes {
                large_n: 1 << 15,
                small_n: 1 << 12,
                serve_n: 1 << 12,
                min_ops: 4,
                stream_cap_bytes: 8 << 20,
            }
        } else {
            Sizes {
                large_n: 1 << 21,
                small_n: 1 << 14,
                serve_n: 1 << 12,
                min_ops: min_count_for(0.90),
                stream_cap_bytes: 256 << 20,
            }
        }
    }
}

/// `serve_closed` runs this many jobs per second of `--seconds` (40 000 at
/// the declared 20 s; about 15 s of wall at the seed commit's ~2.7 k jobs/s).
pub const SERVE_JOBS_PER_SECOND: f64 = 2000.0;

/// The one SOI design point every workload uses: µ = 5/4, B = 72, eight
/// segments per rank, P = 2.
pub fn soi_params(n: usize) -> SoiParams {
    SoiParams {
        n,
        procs: RANKS,
        segments_per_proc: 8,
        mu: Rational::new(5, 4),
        conv_width: 72,
    }
}

/// Lines a child hands to its parent.
#[derive(Default)]
pub struct Emit {
    lines: Vec<String>,
}

impl Emit {
    /// A metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.lines.push(format!("M {name} {value:e}"));
    }
    /// A value the parent derives metrics from.
    pub fn aux(&mut self, name: &str, value: f64) {
        self.lines.push(format!("X {name} {value:e}"));
    }
    /// Operations attempted.
    pub fn attempted(&mut self, count: usize) {
        self.lines.push(format!("A {count}"));
    }
    /// Failed operations or violated invariants, one line each.
    pub fn failures(&mut self, failures: &[String]) {
        self.lines.extend(
            failures
                .iter()
                .map(|f| format!("F {}", f.replace('\n', " "))),
        );
    }
    /// Prints everything to standard output.
    pub fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
    }
}

/// What a parent reads back from a child's [`Emit`] lines.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// `M` lines.
    pub metrics: BTreeMap<String, f64>,
    /// `X` lines.
    pub aux: BTreeMap<String, f64>,
    /// Sum of the `A` lines.
    pub attempted: usize,
    /// `F` lines.
    pub failures: Vec<String>,
}

impl ChildReport {
    /// Parses a child's standard output; lines of no known kind are skipped.
    pub fn parse(stdout: &str) -> Result<Self, String> {
        let mut report = ChildReport::default();
        for line in stdout.lines() {
            let bad = || format!("malformed child line: {line}");
            let Some((kind, rest)) = line.split_once(' ') else {
                continue;
            };
            match kind {
                "M" | "X" => {
                    let (name, value) = rest.split_once(' ').ok_or_else(bad)?;
                    let value = value.parse::<f64>().map_err(|_| bad())?;
                    let map = if kind == "M" {
                        &mut report.metrics
                    } else {
                        &mut report.aux
                    };
                    map.insert(name.to_string(), value);
                }
                "A" => report.attempted += rest.parse::<usize>().map_err(|_| bad())?,
                "F" => report.failures.push(rest.to_string()),
                _ => {}
            }
        }
        Ok(report)
    }
}

/// The eight end-to-end metrics from a time-ordered latency list and its
/// companions. Latency percentiles (and, unless the caller measured it
/// over a wall-clock window, throughput as count ÷ Σ latencies) are the
/// median over [`stats::blocks`] of each block's value.
#[allow(clippy::too_many_arguments)]
fn emit_end_to_end(
    emit: &mut Emit,
    latencies: &[f64],
    window_tps: Option<f64>,
    setup_s: f64,
    snr_db: f64,
    wire_bytes: f64,
    attempted: usize,
    failures: &[String],
) {
    let blocks = stats::blocks(latencies, min_count_for(0.90));
    let over_blocks =
        |f: &dyn Fn(&[f64]) -> f64| median(&blocks.iter().map(|b| f(b)).collect::<Vec<_>>());
    let p90s: Vec<(f64, usize)> = blocks
        .iter()
        .map(|b| percentile(&sorted(b.to_vec()), 0.90))
        .collect();
    let beyond = p90s.iter().map(|p| p.1).min().unwrap_or(0);
    emit.metric("latency_p50_s", over_blocks(&|b| median(b)));
    emit.metric(
        "latency_p90_s",
        median(&p90s.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    emit.aux("latency_samples", latencies.len() as f64);
    emit.aux("latency_blocks", blocks.len() as f64);
    emit.aux("latency_p90_samples_beyond", beyond as f64);
    let block_tps = over_blocks(&|b| b.len() as f64 / b.iter().sum::<f64>());
    emit.metric("throughput_tps", window_tps.unwrap_or(block_tps));
    emit.metric("setup_s", setup_s);
    emit.metric("peak_rss_mb", peak_rss_mib());
    emit.metric("snr_db", snr_db);
    emit.metric("wire_bytes_per_transform", wire_bytes);
    emit.metric(
        "ok_frac",
        1.0 - failures.len().min(attempted) as f64 / attempted as f64,
    );
    emit.attempted(attempted);
    emit.failures(failures);
}

/// Runs `workload` end to end in this process. With `setup_only`, stops
/// after the first cold operation and reports `setup_s` alone.
pub fn child_e2e(
    workload: Workload,
    seed: u64,
    seconds: f64,
    smoke: bool,
    setup_only: bool,
) -> Emit {
    let sizes = Sizes::new(smoke);
    let mut emit = Emit::default();
    let inputs = |n: usize| ring(n, seed, if setup_only { 1 } else { RING });
    let e2e = match workload {
        Workload::SoiLarge | Workload::SoiSmallTcp => {
            let (n, fabric) = if workload == Workload::SoiLarge {
                (sizes.large_n, Fabric::InProc)
            } else {
                (sizes.small_n, Fabric::Tcp)
            };
            run_e2e(
                || SoiFft::new(soi_params(n)).expect("valid plan"),
                fabric,
                &inputs(n),
                seconds,
                sizes.min_ops,
                setup_only,
            )
        }
        Workload::CtLarge => {
            let x = inputs(sizes.large_n);
            run_e2e(
                || ct_plan(sizes.large_n),
                Fabric::InProc,
                &x,
                seconds,
                sizes.min_ops,
                setup_only,
            )
        }
        Workload::ServeClosed => {
            let x = inputs(sizes.serve_n);
            // A fixed job count, not a fixed time: the engine's memory grows
            // with every job it has served, so `peak_rss_mb` is comparable
            // between two versions only at equal counts.
            let jobs = (SERVE_JOBS_PER_SECOND * seconds) as usize;
            let run = serve::run(
                soi_params(sizes.serve_n),
                &x,
                jobs.div_ceil(serve::CLIENTS),
                false,
                setup_only,
            );
            if setup_only {
                emit.metric("setup_s", run.setup_s);
                return emit;
            }
            let tps = run.latencies.len() as f64 / run.window_s;
            let wire = run.wire_bytes_per_transform();
            emit_end_to_end(
                &mut emit,
                &run.latencies,
                Some(tps),
                run.setup_s,
                run.snr_db,
                wire,
                run.attempted,
                &run.failures,
            );
            return emit;
        }
    };
    if setup_only {
        emit.metric("setup_s", e2e.setup_s);
        return emit;
    }
    emit_end_to_end(
        &mut emit,
        &e2e.latencies,
        None,
        e2e.setup_s,
        e2e.snr_db,
        e2e.wire_bytes_per_transform,
        e2e.attempted,
        &e2e.failures,
    );
    emit
}

fn ct_plan(n: usize) -> Ct {
    Ct {
        fft: DistributedCtFft::new(n, RANKS).expect("P² divides N"),
        procs: RANKS,
    }
}

/// Where trace files go: `perf_ledger/out/`, git-ignored.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes `<section>.trace.json` (chrome trace) and `<section>.self_time.txt`.
fn write_trace(section: Workload, threads: &[(String, Vec<Span>)]) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).expect("create perf_ledger/out");
    let table = self_time_text(&self_time_table(threads.iter().map(|(_, s)| s.as_slice())));
    std::fs::write(
        dir.join(format!("{}.trace.json", section.name())),
        chrome_trace(threads),
    )
    .expect("write chrome trace");
    std::fs::write(
        dir.join(format!("{}.self_time.txt", section.name())),
        &table,
    )
    .expect("write self-time table");
    eprintln!("# self time, {} traced run\n{table}", section.name());
}

/// Operation counts of a ledger section: `base` at the declared run
/// length, scaled with `--seconds`, never fewer than `floor`.
fn count(base: usize, scale: f64, floor: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(floor)
}

/// The in-situ ledger of `insitu` under `prefix` (`core.` / `core.small_`),
/// restricted to `phases`.
fn emit_in_situ(emit: &mut Emit, prefix: &str, insitu: &InSitu, phases: &[&str]) {
    for (name, seconds) in PHASES.iter().zip(insitu.phase_s) {
        if phases.contains(name) {
            emit.metric(
                &format!("{prefix}phase_{}_s", name.replace('-', "_")),
                seconds,
            );
        }
    }
    emit.metric(
        &format!("{prefix}unexplained_frac"),
        insitu.unexplained_frac(),
    );
    emit.metric(
        &format!("{prefix}replay_residual_frac"),
        insitu.replay_residual_frac(),
    );
}

/// The `soi_large` section: host ceilings, `num`, `par`, `fft`, in-process
/// `cluster`, `core`, `model` and `tune`, all at the large SOI plan's shapes.
fn section_soi_large(emit: &mut Emit, seed: u64, scale: f64, sizes: Sizes) {
    let p = soi_params(sizes.large_n);
    let budget = 0.25 * scale;

    let t = Instant::now();
    drop(Window::new(WindowKind::GaussianSinc, &p));
    emit.metric("core.window_build_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let fft = SoiFft::new(p).expect("valid plan");
    emit.metric("core.plan_new_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    drop(fft.make_workspace());
    emit.metric("core.workspace_build_s", t.elapsed().as_secs_f64());

    // Ceilings: arrays of 4× the reported LLC, capped at ⅛ of MemAvailable
    // and at the size that keeps a traced run inside its time budget.
    let llc_bytes = cache_sizes_kib().1 as usize * 1024;
    let array_bytes = (4 * llc_bytes)
        .min(mem_available_kib() as usize * 1024 / 8)
        .min(sizes.stream_cap_bytes)
        .max(1 << 20);
    emit.aux("host.stream_array_mib", (array_bytes >> 20) as f64);
    emit.aux("host.llc_mib", (llc_bytes >> 20) as f64);
    emit.aux(
        "host.stream_capped",
        (array_bytes < 4 * llc_bytes) as u8 as f64,
    );
    let (copy, triad) = host_bandwidth(RANKS, array_bytes, budget);
    emit.metric("host.copy_gbps", copy);
    emit.metric("host.triad_gbps", triad);

    let ct_split = ct_plan(p.n).fft.split();
    let num = num_rates(&p, ct_split.0 / RANKS, ct_split.1, budget);
    emit.metric("num.dot_c64_gflops", num.dot_c64_gflops);
    emit.metric("num.mul_pointwise_c64_gbps", num.mul_pointwise_c64_gbps);
    emit.metric("num.transpose_gbps", num.transpose_gbps);
    emit.metric("num.unpack_c32_pairs_gbps", num.unpack_c32_pairs_gbps);
    emit.metric("num.promote_c32_c64_gbps", num.promote_c32_c64_gbps);
    emit.metric("par.fork_join_us", fork_join_us(budget));

    let rates = fft_rates(&p, budget);
    emit.metric("fft.rows_l_gflops", rates.rows_l_gflops);
    emit.metric("fft.plan_mprime_gflops", rates.plan_mprime_gflops);
    emit.metric("fft.plan_mprime_f32_gflops", rates.plan_mprime_f32_gflops);
    emit.metric("fft.plan_full_n_gflops", rates.plan_full_n_gflops);
    emit.metric("fft.sixstep_full_n_gflops", rates.sixstep_full_n_gflops);
    emit.metric("fft.plan_build_mprime_s", rates.plan_build_mprime_s);
    // Computed traffic: one read and one write of the M' points per rank.
    let fft_gbps = (RANKS * 32 * p.m_prime()) as f64 * 1e-9 / rates.plan_mprime_s;
    emit.metric("fft.plan_mprime_pct_of_triad", 100.0 * fft_gbps / triad);

    let conv = conv_rates(&fft, budget);
    emit.metric("core.conv_gflops", conv.conv_gflops);
    emit.metric("core.conv_fused_gflops", conv.conv_fused_gflops);
    // Computed traffic: the extended input read once, the frontier written once.
    let conv_bytes =
        RANKS * 16 * (p.per_rank() + p.ghost_len() + p.blocks_per_rank() * p.total_segments());
    emit.metric(
        "core.conv_pct_of_triad",
        100.0 * conv_bytes as f64 * 1e-9 / conv.conv_s / triad,
    );

    let small = soi_params(sizes.small_n);
    let a2a_len = p.segments_per_proc * p.blocks_per_rank();
    let a2a_small_len = small.segments_per_proc * small.blocks_per_rank();
    let fabric = fabric_rates(Fabric::InProc, a2a_len, a2a_small_len, p.ghost_len(), scale);
    emit.metric("cluster.inproc_pingpong_us", fabric.pingpong_us);
    emit.metric("cluster.inproc_barrier_us", fabric.barrier_us);
    emit.metric("cluster.inproc_a2a_gbps", fabric.a2a_gbps);
    emit.metric("cluster.ghost_exchange_us", fabric.ghost_us);
    emit.metric("cluster.launch_inproc_s", fabric.launch_s);

    let inputs = ring(p.n, seed, 1);
    let replay = SoiReplay::new(&fft);
    let (ops, rounds) = (count(8, scale, 3), count(4, scale, 2));
    let insitu = run_traced(
        &fft,
        Fabric::InProc,
        &inputs[0],
        ops,
        "soi.forward_into",
        Some((&replay, rounds)),
    );
    emit.attempted(2 * ops + rounds);
    emit_in_situ(emit, "core.", &insitu, &PHASES);
    emit.metric("core.trace_overhead_frac", insitu.trace_overhead_frac());
    emit.metric(
        "core.reported_gflops",
        p.reported_flops() * 1e-9 / insitu.untraced_p50_s,
    );
    emit.metric(
        "core.vs_plan_full_n",
        rates.plan_full_n_s / insitu.untraced_p50_s,
    );
    emit.metric("cluster.rank_skew_frac", insitu.counts.rank_skew_frac);
    emit.metric(
        "cluster.messages_per_transform",
        insitu.counts.messages_per_transform,
    );
    emit.metric(
        "cluster.comm_allocs_per_transform",
        insitu.counts.comm_allocs_per_transform,
    );
    emit.aux("soi_large_p50_s", insitu.untraced_p50_s);
    emit.failures(&insitu.failures);
    write_trace(Workload::SoiLarge, &insitu.spans);

    // The cost model's prior against the measured phases.
    let predicted = PlanReport::new(p)
        .expect("valid plan")
        .predicted_phases(&RateModel::default_prior().to_sim());
    emit.metric(
        "model.predicted_over_measured",
        predicted.total_s() / insitu.untraced_p50_s,
    );
    let worst = predicted
        .phases()
        .iter()
        .map(|(name, pred)| {
            let measured =
                insitu.phase_s[PHASES.iter().position(|p| p == name).expect("ledger phase")];
            (pred - measured).abs() / measured
        })
        .fold(0.0, f64::max);
    emit.metric("model.phase_max_rel_err", worst);

    let few = count(5, scale, 3);
    let f32_run = run_e2e(
        || {
            SoiFft::new(p)
                .expect("valid plan")
                .with_precision(Precision::F32)
        },
        Fabric::InProc,
        &inputs,
        0.0,
        few,
        false,
    );
    emit.metric("core.f32_forward_p50_s", median(&f32_run.latencies));
    emit.metric("core.f32_snr_db", f32_run.snr_db);
    emit.metric(
        "core.f32_wire_bytes_per_transform",
        f32_run.wire_bytes_per_transform,
    );
    emit.attempted(f32_run.attempted);
    emit.failures(&f32_run.failures);

    // Strong scaling: the same problem and the same L = 16 on one rank.
    let single = SoiParams {
        procs: 1,
        segments_per_proc: p.total_segments(),
        ..p
    };
    let p1 = run_e2e(
        || SoiFft::new(single).expect("valid plan"),
        Fabric::InProc,
        &inputs,
        0.0,
        few,
        false,
    );
    emit.metric(
        "core.strong_scaling_eff_p2",
        median(&p1.latencies) / (RANKS as f64 * insitu.untraced_p50_s),
    );
    emit.attempted(p1.attempted);
    emit.failures(&p1.failures);

    let local = SoiFftLocal::from_params(single, WindowKind::GaussianSinc).expect("valid plan");
    let local_s: Vec<f64> = (0..2)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(local.forward(&inputs[0]));
            t.elapsed().as_secs_f64()
        })
        .collect();
    emit.metric("core.local_forward_s", median(&local_s));

    // Last: `Tuner::plan` installs its pick in the process-wide wisdom
    // registry, which no measured plan may see.
    let mut tuner = Tuner::in_memory();
    let request = TuneRequest {
        base: Some(p),
        ..TuneRequest::new(p.n, p.procs)
    };
    let t = Instant::now();
    tuner
        .plan(&request, Tier::Estimate, &mut MeasuredProber::new())
        .expect("estimate tier plans");
    emit.metric("tune.estimate_plan_ms", t.elapsed().as_secs_f64() * 1e3);
    soifft::soi::wisdom::clear();
}

/// The `soi_small_tcp` section: TCP `cluster` primitives and the small SOI
/// plan's in-situ ledger over the loopback mesh.
fn section_soi_small_tcp(emit: &mut Emit, seed: u64, scale: f64, sizes: Sizes) {
    let p = soi_params(sizes.small_n);
    let large = soi_params(sizes.large_n);
    let fabric = fabric_rates(
        Fabric::Tcp,
        large.segments_per_proc * large.blocks_per_rank(),
        p.segments_per_proc * p.blocks_per_rank(),
        p.ghost_len(),
        scale,
    );
    emit.metric("cluster.tcp_pingpong_us", fabric.pingpong_us);
    emit.metric("cluster.tcp_barrier_us", fabric.barrier_us);
    emit.metric("cluster.tcp_a2a_gbps", fabric.a2a_gbps);
    emit.metric("cluster.tcp_a2a_small_us", fabric.a2a_small_us);
    emit.metric("cluster.launch_tcp_s", fabric.launch_s);

    let fft = SoiFft::new(p).expect("valid plan");
    let inputs = ring(p.n, seed, 1);
    let replay = SoiReplay::new(&fft);
    let (ops, rounds) = (count(1000, scale, 20), count(300, scale, 10));
    let insitu = run_traced(
        &fft,
        Fabric::Tcp,
        &inputs[0],
        ops,
        "soi.forward_into",
        Some((&replay, rounds)),
    );
    emit.attempted(2 * ops + rounds);
    emit_in_situ(emit, "core.small_", &insitu, &["ghost", "all-to-all"]);
    emit.metric("cluster.retransmits", insitu.counts.retransmits);
    emit.metric("cluster.link_reconnects", insitu.counts.link_reconnects);
    emit.failures(&insitu.failures);
    write_trace(Workload::SoiSmallTcp, &insitu.spans);

    let inproc = run_e2e(
        || SoiFft::new(p).expect("valid plan"),
        Fabric::InProc,
        &inputs,
        0.3 * scale,
        20,
        false,
    );
    emit.metric("core.small_forward_inproc_s", median(&inproc.latencies));
    emit.attempted(inproc.attempted);
    emit.failures(&inproc.failures);
}

/// The `ct_large` section: the baseline's in-situ ledger.
fn section_ct_large(emit: &mut Emit, seed: u64, scale: f64, sizes: Sizes) {
    let ct = ct_plan(sizes.large_n);
    let inputs = ring(sizes.large_n, seed, 1);
    let ops = count(10, scale, 3);
    let insitu = run_traced(
        &ct,
        Fabric::InProc,
        &inputs[0],
        ops,
        "ct.forward_into",
        None,
    );
    emit.attempted(2 * ops);
    let phase = |name: &str| {
        insitu.phase_s[PHASES
            .iter()
            .position(|p| *p == name)
            .expect("ledger phase")]
    };
    emit.metric("ct.phase_local_fft_s", phase("local-fft"));
    emit.metric("ct.phase_all_to_all_s", phase("all-to-all"));
    emit.metric("ct.unexplained_frac", insitu.unexplained_frac());
    emit.aux("ct_large_p50_s", insitu.untraced_p50_s);
    emit.failures(&insitu.failures);
    write_trace(Workload::CtLarge, &insitu.spans);
}

/// The serving engine's plan driven directly: the warm resilient,
/// cancellable forward the engine's rank loop calls, without the engine.
struct BareServe {
    fft: SoiFft,
    policy: ExchangePolicy,
    gate: CancelGate,
}

impl Transform for BareServe {
    type Ws = SoiWorkspace;
    fn n(&self) -> usize {
        self.fft.params().n
    }
    fn procs(&self) -> usize {
        self.fft.params().procs
    }
    fn make_ws(&self) -> SoiWorkspace {
        self.fft.make_workspace()
    }
    fn forward(&self, comm: &mut Comm, x: &[c64], ws: &mut SoiWorkspace, y: &mut [c64]) {
        self.fft
            .try_forward_into_cancellable(comm, x, &self.policy, &self.gate, ws, y)
            .expect("fault-free transform");
    }
}

/// One thread submitting as fast as the engine admits, waiting on its
/// oldest ticket only when refused: completed jobs per second.
fn saturation_jobs_per_s(params: SoiParams, input: &[c64], seconds: f64) -> f64 {
    let engine = ServeEngine::start(params, serve::config()).expect("valid serving parameters");
    let mut tickets = std::collections::VecDeque::new();
    let mut out = Vec::with_capacity(params.n);
    let mut done = 0u64;
    let mut next = 0usize;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < seconds {
        match engine.submit(next % serve::CLIENTS, input, None) {
            Ok(ticket) => {
                tickets.push_back(ticket);
                next += 1;
            }
            Err(Rejected::QueueFull { .. }) => {
                if let Some(ticket) = tickets.pop_front() {
                    let ticket: soifft::serve::JobTicket = ticket;
                    ticket.wait_into(&mut out).expect("flooded job completes");
                    done += 1;
                }
            }
            Err(other) => panic!("unexpected refusal under flood: {other:?}"),
        }
    }
    for ticket in tickets {
        ticket.wait_into(&mut out).expect("flooded job completes");
        done += 1;
    }
    let wall = t.elapsed().as_secs_f64();
    drop(engine.shutdown());
    done as f64 / wall
}

/// The `serve_closed` section: the engine's costs around its transform.
fn section_serve_closed(emit: &mut Emit, seed: u64, scale: f64, sizes: Sizes) {
    let p = soi_params(sizes.serve_n);
    let inputs = ring(p.n, seed, RING);
    let jobs = count(5100, scale, 40);
    let run = serve::run(p, &inputs, jobs, true, false);
    let lat = sorted(run.latencies.clone());
    let p50 = median(&lat);
    emit.metric("serve.engine_start_s", run.engine_start_s);
    emit.metric("serve.shutdown_s", run.shutdown_s);
    emit.metric("serve.submit_call_us", median(&run.submit_s) * 1e6);
    for (name, q) in [("serve.job_p99_s", 0.99), ("serve.job_p999_s", 0.999)] {
        let (value, beyond) = percentile(&lat, q);
        if beyond < stats::MIN_TAIL {
            eprintln!("# {name}: only {beyond} of {} samples beyond it", lat.len());
        }
        emit.metric(name, value);
    }
    let queue_wait: f64 = run
        .report
        .rank_stats
        .iter()
        .flatten()
        .map(|s| s.queue_wait_seconds())
        .sum();
    emit.metric(
        "serve.queue_wait_frac",
        queue_wait / lat.iter().sum::<f64>(),
    );
    let s = run.report.stats;
    emit.metric("serve.rejected", s.rejected as f64);
    emit.metric("serve.shed", (s.shed_queue + s.shed_inflight) as f64);
    emit.metric("serve.failed", (s.failed + s.rank_failures) as f64);
    emit.metric("serve.retries", s.retries as f64);
    emit.metric("serve.epoch_aborts", s.epoch_aborts as f64);
    emit.attempted(run.attempted);
    emit.failures(&run.failures);
    write_trace(Workload::ServeClosed, &run.spans);

    let bare = run_e2e(
        || BareServe {
            fft: SoiFft::new(p).expect("valid plan"),
            policy: ExchangePolicy::default(),
            gate: CancelGate::new(),
        },
        Fabric::InProc,
        &inputs[..1],
        0.5 * scale,
        20,
        false,
    );
    let bare_p50 = median(&bare.latencies);
    emit.metric("serve.bare_forward_p50_s", bare_p50);
    emit.metric("serve.overhead_frac", p50 / bare_p50 - 1.0);
    emit.attempted(bare.attempted);
    emit.failures(&bare.failures);
    emit.metric(
        "serve.saturation_jobs_per_s",
        saturation_jobs_per_s(p, &inputs[0], 1.5 * scale),
    );
}

/// Runs one section of the per-layer ledger in this process.
pub fn child_section(section: Workload, seed: u64, scale: f64, smoke: bool) -> Emit {
    let sizes = Sizes::new(smoke);
    let mut emit = Emit::default();
    match section {
        Workload::SoiLarge => section_soi_large(&mut emit, seed, scale, sizes),
        Workload::SoiSmallTcp => section_soi_small_tcp(&mut emit, seed, scale, sizes),
        Workload::CtLarge => section_ct_large(&mut emit, seed, scale, sizes),
        Workload::ServeClosed => section_serve_closed(&mut emit, seed, scale, sizes),
    }
    emit
}
