//! The `serve_closed` workload: `ServeEngine` under a closed loop of
//! client threads, one per tenant, each `submit → wait_into → next`.

use std::time::{Duration, Instant};

use soifft::cluster::checksum;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::serve::{ServeConfig, ServeEngine, ServeReport};
use soifft::soi::SoiParams;

use crate::dist::{snr_from_sums, snr_sums, SNR_FLOOR_F64_DB};
use crate::host::RANKS;
use crate::spans::{Recorder, Span};

/// Closed-loop client threads (= tenants).
pub const CLIENTS: usize = RANKS;

/// What one run of the serving workload produced.
#[derive(Debug)]
pub struct ServeRun {
    /// `ServeEngine::start` → first job verified, seconds.
    pub setup_s: f64,
    /// `ServeEngine::start` alone, seconds.
    pub engine_start_s: f64,
    /// `shutdown()` wall, seconds.
    pub shutdown_s: f64,
    /// Per-job latency (`submit` call → `wait_into` return) of successful jobs.
    pub latencies: Vec<f64>,
    /// Per-job duration of the `submit` call alone.
    pub submit_s: Vec<f64>,
    /// Wall of the closed-loop window (first submit → last completion).
    pub window_s: f64,
    /// Lowest oracle SNR over the input ring, dB.
    pub snr_db: f64,
    /// Jobs attempted (ring verification + closed loop).
    pub attempted: usize,
    /// One line per failed job or violated invariant.
    pub failures: Vec<String>,
    /// The engine's final report.
    pub report: ServeReport,
    /// Span lists, one per client thread (empty unless traced).
    pub spans: Vec<(String, Vec<Span>)>,
}

impl ServeRun {
    /// Σ over ranks of bytes sent over the engine's life ÷ completed jobs.
    pub fn wire_bytes_per_transform(&self) -> f64 {
        let bytes: u64 = self
            .report
            .rank_stats
            .iter()
            .flatten()
            .map(|s| s.total_bytes_sent())
            .sum();
        bytes as f64 / self.report.stats.completed as f64
    }
}

/// Default serving configuration with one tenant per client.
pub fn config() -> ServeConfig {
    ServeConfig {
        tenants: CLIENTS,
        ..ServeConfig::default()
    }
}

/// One job through the engine; `Err` carries the typed refusal or failure.
fn job(engine: &ServeEngine, tenant: usize, x: &[c64], out: &mut Vec<c64>) -> Result<(), String> {
    engine
        .submit(tenant, x, None)
        .map_err(|e| format!("rejected: {e:?}"))?
        .wait_into(out)
        .map_err(|e| format!("failed: {e:?}"))
}

/// Runs the workload in this (fresh) process: start, verify the ring
/// against the single-rank oracle, then `CLIENTS` closed-loop clients of
/// `jobs_per_client` jobs each. `traced` records `job > submit, wait` spans per client. With
/// `setup_only` the run stops after the first verified job.
pub fn run(
    params: SoiParams,
    inputs: &[Vec<c64>],
    jobs_per_client: usize,
    traced: bool,
    setup_only: bool,
) -> ServeRun {
    let n = params.n;
    let t_setup = Instant::now();
    let engine = ServeEngine::start(params, config()).expect("valid serving parameters");
    let engine_start_s = t_setup.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(n);
    let mut failures = Vec::new();
    if let Err(e) = job(&engine, 0, &inputs[0], &mut out) {
        failures.push(format!("first job: {e}"));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let mut snr_db = f64::INFINITY;
    let mut first_sum = Vec::with_capacity(inputs.len());
    let mut attempted = 0;
    if !setup_only {
        let oracle = Plan::new(n);
        for (k, x) in inputs.iter().enumerate() {
            attempted += 1;
            if let Err(e) = job(&engine, k % CLIENTS, x, &mut out) {
                failures.push(format!("ring input {k}: {e}"));
                first_sum.push(0);
                continue;
            }
            let mut want = x.clone();
            oracle.forward(&mut want);
            let (signal, noise) = snr_sums(&out, &want);
            let snr = snr_from_sums(signal, noise);
            if snr < SNR_FLOOR_F64_DB {
                failures.push(format!(
                    "ring input {k}: snr {snr:.2} dB under the {SNR_FLOOR_F64_DB} dB floor"
                ));
            }
            snr_db = snr_db.min(snr);
            first_sum.push(checksum(&out));
        }
    }

    struct Client {
        latencies: Vec<f64>,
        submit_s: Vec<f64>,
        failures: Vec<String>,
        jobs: usize,
        first: Duration,
        last: Duration,
        spans: Vec<Span>,
    }
    let origin = Instant::now();
    let clients: Vec<Client> = if setup_only {
        Vec::new()
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|tenant| {
                    let (engine, first_sum) = (&engine, &first_sum);
                    scope.spawn(move || {
                        let mut c = Client {
                            latencies: Vec::with_capacity(jobs_per_client),
                            submit_s: Vec::with_capacity(jobs_per_client),
                            failures: Vec::new(),
                            jobs: 0,
                            first: origin.elapsed(),
                            last: Duration::ZERO,
                            spans: Vec::new(),
                        };
                        let mut rec = if traced { Recorder::new(origin) } else { Recorder::disabled() };
                        let mut out = Vec::with_capacity(n);
                        while c.jobs < jobs_per_client {
                            let k = (c.jobs + tenant) % inputs.len();
                            let op = (c.jobs * CLIENTS + tenant) as u64;
                            let t0 = Instant::now();
                            let mut submit_s = 0.0;
                            let result = rec.span("serve.job", op, |rec| {
                                let ticket = rec.span("serve.submit", op, |_| engine.submit(tenant, &inputs[k], None));
                                submit_s = t0.elapsed().as_secs_f64();
                                let ticket = ticket.map_err(|e| format!("rejected: {e:?}"))?;
                                rec.span("serve.wait", op, |_| ticket.wait_into(&mut out))
                                    .map_err(|e| format!("failed: {e:?}"))
                            });
                            let latency = t0.elapsed().as_secs_f64();
                            c.last = origin.elapsed();
                            match result {
                                Ok(()) if checksum(&out) == first_sum[k] => {
                                    c.latencies.push(latency);
                                    c.submit_s.push(submit_s);
                                }
                                Ok(()) => c.failures.push(format!(
                                    "client {tenant} job {}: output differs from the first verified output of its input",
                                    c.jobs
                                )),
                                Err(e) => c.failures.push(format!("client {tenant} job {}: {e}", c.jobs)),
                            }
                            c.jobs += 1;
                        }
                        c.spans = rec.into_spans();
                        c
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        })
    };

    let t_shutdown = Instant::now();
    let report = engine.shutdown();
    let shutdown_s = t_shutdown.elapsed().as_secs_f64();

    let loop_jobs: usize = clients.iter().map(|c| c.jobs).sum();
    attempted += loop_jobs;
    let submitted_by_us = (1 + if setup_only { 0 } else { inputs.len() } + loop_jobs) as u64;
    let s = report.stats;
    if s.submitted + s.rejected != submitted_by_us {
        failures.push(format!(
            "conservation: {} submit calls but submitted {} + rejected {}",
            submitted_by_us, s.submitted, s.rejected
        ));
    }
    if s.submitted != s.completed + s.unserved() {
        failures.push(format!(
            "conservation: submitted {} != completed {} + unserved {}",
            s.submitted,
            s.completed,
            s.unserved()
        ));
    }
    let first = clients.iter().map(|c| c.first).min().unwrap_or_default();
    let last = clients.iter().map(|c| c.last).max().unwrap_or_default();
    let mut run = ServeRun {
        setup_s,
        engine_start_s,
        shutdown_s,
        latencies: Vec::new(),
        submit_s: Vec::new(),
        window_s: last.saturating_sub(first).as_secs_f64(),
        snr_db,
        attempted,
        failures,
        report,
        spans: Vec::new(),
    };
    for (tenant, c) in clients.into_iter().enumerate() {
        run.latencies.extend(c.latencies);
        run.submit_s.extend(c.submit_s);
        run.failures.extend(c.failures);
        run.spans.push((format!("client {tenant}"), c.spans));
    }
    run
}
