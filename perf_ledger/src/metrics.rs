//! The benchmark's declared surface — workloads, end-to-end metrics with
//! their bounds, per-layer metrics — as data. `BENCHMARK.json` is generated
//! from these tables (`--print-benchmark-json`), and a self-test holds the
//! committed file, the tables and the names a run emits equal.

use std::fmt::Write as _;

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// SOI, N = 2^21, in-process transport: compute dominates.
    SoiLarge,
    /// SOI, N = 2^14, loopback TCP mesh: per-message latency dominates.
    SoiSmallTcp,
    /// Distributed Cooley–Tukey baseline, N = 2^21, in-process.
    CtLarge,
    /// Serving engine, N = 4096, two closed-loop clients.
    ServeClosed,
}

impl Workload {
    /// All workloads, in the order a full set runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SoiLarge,
        Workload::SoiSmallTcp,
        Workload::CtLarge,
        Workload::ServeClosed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoiLarge => "soi_large",
            Workload::SoiSmallTcp => "soi_small_tcp",
            Workload::CtLarge => "ct_large",
            Workload::ServeClosed => "serve_closed",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SoiLarge => {
                "SOI at N=2^21, P=2 in-process: convolution, F_L, F_M', pack and demod do the work, so a kernel, layout or memory-sweep gain must show here"
            }
            Workload::SoiSmallTcp => {
                "same SOI design point at N=2^14 over loopback TCP: compute is negligible, so message hops, wire codec, socket writes and barriers dominate"
            }
            Workload::CtLarge => {
                "Cooley-Tukey baseline at N=2^21: three all-to-alls and no convolution, so an exchange-path gain shows largest here and a convolution gain not at all"
            }
            Workload::ServeClosed => {
                "ServeEngine at N=4096 with 2 closed-loop clients: admission, batching, consensus and ticket hand-off dominate, the guard for always-on serve instruments"
            }
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A declared end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when larger is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// The end-to-end metrics, the same names on every workload. Each bound is
/// about three times the widest quartile spread the seed commit showed over
/// the four workloads on this shared 2-core host (see `BASELINE.md`), and
/// never above the 0.25 the benchmark contract allows.
pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "latency_p50_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.15,
    },
    EndToEnd {
        name: "latency_p90_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_tps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.08,
    },
    EndToEnd {
        name: "snr_db",
        unit: "dB",
        higher_is_better: true,
        bound: 0.02,
    },
    EndToEnd {
        name: "wire_bytes_per_transform",
        unit: "B",
        higher_is_better: false,
        bound: 0.02,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        higher_is_better: true,
        bound: 0.001,
    },
];

/// A declared per-layer metric.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>_<unit>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when larger is better.
    pub higher_is_better: bool,
    /// The ledger section (named after the workload whose shapes it uses)
    /// that measures it.
    pub section: Workload,
}

const fn pl(name: &'static str, unit: &'static str, higher: bool, section: Workload) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: higher,
        section,
    }
}

use Workload::{CtLarge as CT, ServeClosed as SV, SoiLarge as SL, SoiSmallTcp as ST};

/// The per-layer ledger. Layers are the workspace crates; `host.*` are the
/// ceilings measured in the same run.
pub const PER_LAYER: &[PerLayer] = &[
    pl("host.copy_gbps", "GB/s", true, SL),
    pl("host.triad_gbps", "GB/s", true, SL),
    pl("num.dot_c64_gflops", "GFlop/s", true, SL),
    pl("num.mul_pointwise_c64_gbps", "GB/s", true, SL),
    pl("num.transpose_gbps", "GB/s", true, SL),
    pl("num.unpack_c32_pairs_gbps", "GB/s", true, SL),
    pl("num.promote_c32_c64_gbps", "GB/s", true, SL),
    pl("par.fork_join_us", "us", false, SL),
    pl("fft.rows_l_gflops", "GFlop/s", true, SL),
    pl("fft.plan_mprime_gflops", "GFlop/s", true, SL),
    pl("fft.plan_mprime_f32_gflops", "GFlop/s", true, SL),
    pl("fft.plan_full_n_gflops", "GFlop/s", true, SL),
    pl("fft.sixstep_full_n_gflops", "GFlop/s", true, SL),
    pl("fft.plan_mprime_pct_of_triad", "%", true, SL),
    pl("fft.plan_build_mprime_s", "s", false, SL),
    pl("cluster.inproc_pingpong_us", "us", false, SL),
    pl("cluster.tcp_pingpong_us", "us", false, ST),
    pl("cluster.inproc_barrier_us", "us", false, SL),
    pl("cluster.tcp_barrier_us", "us", false, ST),
    pl("cluster.inproc_a2a_gbps", "GB/s", true, SL),
    pl("cluster.tcp_a2a_gbps", "GB/s", true, ST),
    pl("cluster.tcp_a2a_small_us", "us", false, ST),
    pl("cluster.ghost_exchange_us", "us", false, SL),
    pl("cluster.launch_inproc_s", "s", false, SL),
    pl("cluster.launch_tcp_s", "s", false, ST),
    pl("cluster.rank_skew_frac", "ratio", false, SL),
    pl("cluster.messages_per_transform", "count", false, SL),
    pl("cluster.comm_allocs_per_transform", "count", false, SL),
    pl("cluster.retransmits", "count", false, ST),
    pl("cluster.link_reconnects", "count", false, ST),
    pl("core.window_build_s", "s", false, SL),
    pl("core.plan_new_s", "s", false, SL),
    pl("core.workspace_build_s", "s", false, SL),
    pl("core.conv_gflops", "GFlop/s", true, SL),
    pl("core.conv_fused_gflops", "GFlop/s", true, SL),
    pl("core.conv_pct_of_triad", "%", true, SL),
    pl("core.phase_ghost_s", "s", false, SL),
    pl("core.phase_convolution_s", "s", false, SL),
    pl("core.phase_segment_fft_s", "s", false, SL),
    pl("core.phase_pack_s", "s", false, SL),
    pl("core.phase_all_to_all_s", "s", false, SL),
    pl("core.phase_local_fft_s", "s", false, SL),
    pl("core.unexplained_frac", "ratio", false, SL),
    pl("core.replay_residual_frac", "ratio", false, SL),
    pl("core.trace_overhead_frac", "ratio", false, SL),
    pl("core.reported_gflops", "GFlop/s", true, SL),
    pl("core.vs_plan_full_n", "ratio", true, SL),
    pl("core.strong_scaling_eff_p2", "ratio", true, SL),
    pl("core.local_forward_s", "s", false, SL),
    pl("core.small_forward_inproc_s", "s", false, ST),
    pl("core.f32_forward_p50_s", "s", false, SL),
    pl("core.f32_snr_db", "dB", true, SL),
    pl("core.f32_wire_bytes_per_transform", "B", false, SL),
    pl("ct.phase_local_fft_s", "s", false, CT),
    pl("ct.phase_all_to_all_s", "s", false, CT),
    pl("ct.unexplained_frac", "ratio", false, CT),
    pl("ct.soi_over_ct_ratio", "ratio", false, CT),
    pl("model.predicted_over_measured", "ratio", true, SL),
    pl("model.phase_max_rel_err", "ratio", false, SL),
    pl("serve.engine_start_s", "s", false, SV),
    pl("serve.shutdown_s", "s", false, SV),
    pl("serve.submit_call_us", "us", false, SV),
    pl("serve.bare_forward_p50_s", "s", false, SV),
    pl("serve.overhead_frac", "ratio", false, SV),
    pl("serve.saturation_jobs_per_s", "1/s", true, SV),
    pl("serve.job_p99_s", "s", false, SV),
    pl("serve.job_p999_s", "s", false, SV),
    pl("serve.queue_wait_frac", "ratio", false, SV),
    pl("serve.rejected", "count", false, SV),
    pl("serve.shed", "count", false, SV),
    pl("serve.failed", "count", false, SV),
    pl("serve.retries", "count", false, SV),
    pl("serve.epoch_aborts", "count", false, SV),
    pl("tune.estimate_plan_ms", "ms", false, SL),
    // Small-shape twins of the in-situ SOI ledger: the same code as
    // `core.phase_*`, read where latency rather than bandwidth rules — the
    // two communication phases and the two reconciliation residuals.
    pl("core.small_phase_ghost_s", "s", false, ST),
    pl("core.small_phase_all_to_all_s", "s", false, ST),
    pl("core.small_unexplained_frac", "ratio", false, ST),
    pl("core.small_replay_residual_frac", "ratio", false, ST),
];

/// How long one run measures, seconds.
pub const RUN_SECONDS: u32 = 20;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let better = |higher| if higher { "higher" } else { "lower" };
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \"--manifest-path\", \"perf_ledger/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"perf_ledger\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let sep = if i + 1 < Workload::ALL.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name(),
            w.why()
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better),
            m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name,
            m.unit,
            better(m.higher_is_better)
        );
    }
    out.push_str("  ]\n}\n");
    out
}
