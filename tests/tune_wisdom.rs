//! Acceptance tests for the self-tuning planner (ISSUE 10).
//!
//! * wisdom files round-trip losslessly and every corruption mode —
//!   truncation, bit flips, stale schema, foreign fingerprint — degrades
//!   the tuner to Estimate mode, never panics, never adopts a bogus
//!   plan (proptests);
//! * a wisdom-warm tuner satisfies a `Measure` request with **zero**
//!   probe executions;
//! * per-phase prediction error shrinks after one refit reconciled from
//!   real trace ledgers;
//! * the in-process registry feeds `SoiFft` construction and the serve
//!   engine (`wisdom_backed`);
//! * plan-cache hit/miss/eviction gauges surface through `CommStats`
//!   and `RunProfile`.

use proptest::prelude::*;

use soifft::cluster::{Cluster, RunProfile};
use soifft::num::c64;
use soifft::soi::wisdom as registry;
use soifft::soi::{
    ConvStrategy, ExchangePlan, Precision, Rational, SoiFft, SoiParams, TunedExec, WisdomKey,
};
use soifft::tune::{
    machine_fingerprint, probe_executions, MeasuredProber, PlanSource, Tier, TuneRequest, Tuner,
    WisdomEntry, WisdomError, WisdomFile,
};

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("soifft-tune-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_entry(n: usize, procs: usize) -> WisdomEntry {
    WisdomEntry {
        params: SoiParams {
            n,
            procs,
            segments_per_proc: 2,
            mu: Rational::new(8, 7),
            conv_width: 36,
        },
        exec: TunedExec {
            strategy: ConvStrategy::Interchanged,
            exchange: ExchangePlan::Overlapped,
            fused: false,
        },
        precision: Precision::F64,
        measured_s: 4.2e-3,
    }
}

fn sample_file(fingerprint: &str) -> WisdomFile {
    WisdomFile {
        fingerprint: fingerprint.to_string(),
        rates: *Tuner::in_memory().rates(),
        entries: vec![sample_entry(7 << 11, 2), sample_entry(7 << 13, 4)],
    }
}

/// The exact file the committed golden fixture was generated from.
/// Fixed fingerprint and round-representable rates, so the fixture is
/// byte-stable across machines.
fn golden_file() -> WisdomFile {
    WisdomFile {
        fingerprint: "golden|4|x86_64|linux".to_string(),
        rates: soifft::tune::RateModel {
            fft_flops_per_s: 2.5e9,
            conv_flops_per_s: 5.0e9,
            net_bytes_per_s: 1.25e9,
            net_latency_s: 2.0e-6,
        },
        entries: vec![
            sample_entry(7 << 11, 2),
            WisdomEntry {
                params: SoiParams {
                    n: 1 << 20,
                    procs: 8,
                    segments_per_proc: 16,
                    mu: Rational::new(5, 4),
                    conv_width: 48,
                },
                exec: TunedExec {
                    strategy: ConvStrategy::RowMajor,
                    exchange: ExchangePlan::Overlapped,
                    fused: true,
                },
                precision: Precision::Split,
                measured_s: 1.5e-2,
            },
        ],
    }
}

fn fixture(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name)
}

/// Schema gate (run per-PR by ci.yml): the committed v2 fixture must
/// keep parsing byte-for-byte. If the line format changes, this fails
/// before any user's persisted wisdom does — bump
/// `WISDOM_SCHEMA_VERSION`, regenerate with `SOIFFT_WRITE_GOLDEN=1`,
/// and commit a new fixture alongside the old one's loader behaviour.
#[test]
fn golden_v2_wisdom_fixture_still_parses() {
    let path = fixture("golden_v2.wisdom");
    let expected = golden_file();
    if std::env::var("SOIFFT_WRITE_GOLDEN").is_ok() {
        std::fs::write(&path, expected.to_text()).unwrap();
    }
    let loaded = WisdomFile::load(&path).unwrap_or_else(|e| {
        panic!(
            "golden v2 wisdom fixture no longer loads ({e}) — a schema \
             change must bump WISDOM_SCHEMA_VERSION and add a new fixture"
        )
    });
    assert_eq!(loaded, expected);
    assert_eq!(soifft::tune::WISDOM_SCHEMA_VERSION, 2);
}

/// The v1 fixture names a strategy (`buffering`) and an exchange plan
/// (`per-segment`) that v2 dropped: it is the stale-schema input, and
/// must be rejected whole — the tuner degrades to Estimate, never panics.
/// Its recorded body checksum still verifies under the shared FNV-1a, so
/// the checksum function itself did not change with the schema.
#[test]
fn golden_v1_wisdom_fixture_degrades_to_estimate() {
    let text = std::fs::read_to_string(fixture("golden_v1.wisdom")).unwrap();
    assert_eq!(
        WisdomFile::parse(&text),
        Err(WisdomError::UnsupportedSchema { found: 1 })
    );
    let mut lines = text.splitn(4, '\n');
    let recorded = lines
        .nth(2)
        .and_then(|l| l.strip_prefix("checksum "))
        .unwrap();
    let body = lines.next().unwrap();
    assert_eq!(
        format!("{:016x}", soifft::num::fnv1a(body.as_bytes())),
        recorded
    );

    // A private copy: a tuner owns the file it loaded from.
    let dir = scratch_dir("golden-v1");
    let path = dir.join("v1.wisdom");
    std::fs::write(&path, &text).unwrap();
    let mut tuner = Tuner::with_wisdom_file(&path);
    assert_eq!(
        tuner.degraded(),
        Some(&WisdomError::UnsupportedSchema { found: 1 })
    );
    assert!(tuner.entries().is_empty());
    let out = tuner
        .plan(
            &TuneRequest::new(7 << 11, 2),
            Tier::Estimate,
            &mut MeasuredProber::new(),
        )
        .unwrap();
    assert_eq!(out.source, PlanSource::Estimated);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wisdom_file_round_trips_through_disk_and_tuner() {
    let dir = scratch_dir("roundtrip");
    let path = dir.join("w.wisdom");
    let file = sample_file(&machine_fingerprint());
    file.save(&path).unwrap();

    let loaded = WisdomFile::load(&path).unwrap();
    assert_eq!(loaded, file);

    let tuner = Tuner::with_wisdom_file(&path);
    assert!(tuner.degraded().is_none(), "{:?}", tuner.degraded());
    assert_eq!(tuner.entries(), file.entries.as_slice());
    // Loading installed the entries in the in-process registry.
    for e in &file.entries {
        assert!(registry::contains(&e.key()));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_degrades_to_estimate() {
    let dir = scratch_dir("schema");
    let path = dir.join("w.wisdom");
    let text = sample_file(&machine_fingerprint())
        .to_text()
        .replace("soifft-wisdom 2", "soifft-wisdom 1");
    std::fs::write(&path, text).unwrap();

    let mut tuner = Tuner::with_wisdom_file(&path);
    assert_eq!(
        tuner.degraded(),
        Some(&WisdomError::UnsupportedSchema { found: 1 })
    );
    assert!(tuner.entries().is_empty());
    // Degraded, not dead: Estimate-tier planning still works...
    let out = tuner
        .plan(
            &TuneRequest::new(7 << 11, 2),
            Tier::Estimate,
            &mut MeasuredProber::new(),
        )
        .unwrap();
    assert_eq!(out.source, PlanSource::Estimated);
    assert_eq!(out.probes_run, 0);
    // ...while WisdomOnly fails closed.
    let err = tuner
        .plan(
            &TuneRequest::new(7 << 11, 2),
            Tier::WisdomOnly,
            &mut MeasuredProber::new(),
        )
        .unwrap_err();
    assert!(matches!(err, soifft::tune::TuneError::NoWisdom { .. }));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn foreign_fingerprint_is_never_adopted() {
    let dir = scratch_dir("foreign");
    let path = dir.join("w.wisdom");
    sample_file("someone|elses|big|machine")
        .save(&path)
        .unwrap();

    let tuner = Tuner::with_wisdom_file(&path);
    assert!(matches!(
        tuner.degraded(),
        Some(WisdomError::ForeignFingerprint { .. })
    ));
    assert!(tuner.entries().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any truncation of a valid wisdom file parses to a typed error —
    /// never a panic, never a partially adopted plan set.
    #[test]
    fn truncated_wisdom_degrades(cut in 0usize..1000) {
        let text = sample_file(&machine_fingerprint()).to_text();
        prop_assume!(cut < text.len());
        // Cut at a char boundary (the format is ASCII, so every byte is).
        let truncated = &text[..cut];
        let parsed = WisdomFile::parse(truncated);
        prop_assert!(parsed.is_err(), "truncation at {cut} parsed: {parsed:?}");
    }

    /// Any single bit flip anywhere in the file degrades the tuner:
    /// either the parse fails (checksum, magic, schema, structure) or
    /// the fingerprint no longer matches this machine. In every case
    /// `Tuner::with_wisdom_file` holds zero entries and records the
    /// error.
    #[test]
    fn bit_flipped_wisdom_degrades(byte_idx in 0usize..1000, bit in 0u8..8) {
        let text = sample_file(&machine_fingerprint()).to_text();
        let mut bytes = text.into_bytes();
        prop_assume!(byte_idx < bytes.len());
        bytes[byte_idx] ^= 1 << bit;

        let dir = scratch_dir(&format!("flip-{byte_idx}-{bit}"));
        let path = dir.join("w.wisdom");
        std::fs::write(&path, &bytes).unwrap();
        let tuner = Tuner::with_wisdom_file(&path);
        prop_assert!(
            tuner.degraded().is_some(),
            "bit {bit} of byte {byte_idx} flipped yet the file loaded"
        );
        prop_assert!(tuner.entries().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Estimate-tier planning is a pure function of the request and rates:
/// two independent tuners rank identically and pick the same plan.
#[test]
fn estimate_tier_is_deterministic() {
    let req = TuneRequest::new(7 << 12, 4);
    let mut prober = MeasuredProber::new();
    let a = Tuner::in_memory()
        .plan(&req, Tier::Estimate, &mut prober)
        .unwrap();
    let b = Tuner::in_memory()
        .plan(&req, Tier::Estimate, &mut prober)
        .unwrap();
    assert_eq!(a.chosen, b.chosen);
    assert_eq!(a.predicted_s, b.predicted_s);
}

/// The real-prober acceptance path, kept in ONE test so the process-wide
/// probe counter is not raced by sibling tests:
///
/// 1. a `Measure` plan probes, refits from the trace ledgers, and the
///    per-phase prediction error strictly shrinks;
/// 2. the winner is persisted to a wisdom file;
/// 3. a fresh tuner loading that file satisfies the same request with
///    **zero** probe executions (the warm-wisdom acceptance gate).
#[test]
fn measured_tuning_refits_persists_and_warm_wisdom_skips_probes() {
    let dir = scratch_dir("measure");
    let path = dir.join("w.wisdom");
    let mut req = TuneRequest::new(1 << 12, 2);
    req.top_k = 2;
    req.reps = 1;

    let mut tuner = Tuner::with_wisdom_file(&path);
    assert!(tuner.degraded().is_none());
    let mut prober = MeasuredProber::new();
    let out = tuner.plan(&req, Tier::Measure, &mut prober).unwrap();
    assert_eq!(out.source, PlanSource::Measured);
    assert!(out.probes_run >= 2, "default + at least one candidate");
    let before = out.prior_error.expect("measure reports prior error");
    let after = out.post_error.expect("measure reports post error");
    assert!(
        after < before,
        "refit from trace ledgers did not shrink per-phase prediction \
         error: {before} -> {after}"
    );
    assert!(
        out.measured_s.unwrap() <= out.default_measured_s.unwrap(),
        "tuned pick lost to the default it probed"
    );

    // 2: the winner reached disk.
    let on_disk = WisdomFile::load(&path).unwrap();
    assert_eq!(on_disk.entries.len(), 1);
    assert_eq!(on_disk.fingerprint, machine_fingerprint());

    // 3: a cold process (modeled by a fresh tuner) plans the same shape
    // from wisdom without running a single probe.
    let probes_before = probe_executions();
    let mut warm = Tuner::with_wisdom_file(&path);
    assert!(warm.degraded().is_none());
    let warm_out = warm
        .plan(&req, Tier::Measure, &mut MeasuredProber::new())
        .unwrap();
    assert_eq!(warm_out.source, PlanSource::Wisdom);
    assert_eq!(warm_out.probes_run, 0);
    assert_eq!(
        probe_executions(),
        probes_before,
        "warm wisdom still executed a probe"
    );
    assert_eq!(warm_out.chosen, out.chosen);
    // WisdomOnly — the serve path's startup tier — also succeeds warm.
    let wo = warm
        .plan(&req, Tier::WisdomOnly, &mut MeasuredProber::new())
        .unwrap();
    assert_eq!(wo.source, PlanSource::Wisdom);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Installed wisdom feeds `SoiFft` construction: the same `SoiParams`
/// build picks up the tuned knobs, and the serve engine reports itself
/// wisdom-backed.
#[test]
fn registry_feeds_sofft_construction_and_serve_engine() {
    // Distinctive shape: no other test installs n = 7 * 2^10, P = 2.
    let params = SoiParams {
        n: 7 << 10,
        procs: 2,
        segments_per_proc: 2,
        mu: Rational::new(8, 7),
        conv_width: 24,
    };
    params.validate().unwrap();
    let key = WisdomKey {
        n: params.n,
        procs: params.procs,
        precision: Precision::F64,
    };

    // Untuned: the construction defaults.
    let cold = SoiFft::new(params).unwrap();
    assert_eq!(cold.strategy(), ConvStrategy::Interchanged);
    assert_eq!(cold.exchange(), ExchangePlan::Monolithic);

    let exec = TunedExec {
        strategy: ConvStrategy::RowMajor,
        exchange: ExchangePlan::Overlapped,
        fused: false,
    };
    registry::install(key, exec);
    let warm = SoiFft::new(params).unwrap();
    assert_eq!(warm.strategy(), ConvStrategy::RowMajor);
    assert_eq!(warm.exchange(), ExchangePlan::Overlapped);
    assert!(!warm.fused_segment_fft());

    // The tuned plan still transforms correctly end to end.
    let input: Vec<c64> = (0..params.n)
        .map(|i| c64::new((0.03 * i as f64).sin(), (0.07 * i as f64).cos()))
        .collect();
    let inputs = soifft::soi::pipeline::scatter_input(&input, params.procs);
    let fft = warm;
    let outs = Cluster::run(params.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
    assert!(outs.iter().all(|o| !o.is_empty()));

    // Serve engine: wisdom-backed start is observable on the engine and
    // in its shutdown report.
    let engine =
        soifft::serve::ServeEngine::start(params, soifft::serve::ServeConfig::default()).unwrap();
    assert!(engine.wisdom_backed());
    let report = engine.shutdown();
    assert!(report.wisdom_backed);
}

/// Plan-cache gauges cross the crate boundary: after a distributed
/// forward, every rank's `CommStats` carries the process-global plan
/// cache counters and `RunProfile` aggregates them (max, not sum —
/// they are gauges of one shared cache).
#[test]
fn plan_cache_gauges_surface_in_stats_and_profile() {
    let params = SoiParams {
        n: 7 << 9,
        procs: 2,
        segments_per_proc: 1,
        mu: Rational::new(8, 7),
        conv_width: 16,
    };
    params.validate().unwrap();
    let input: Vec<c64> = (0..params.n)
        .map(|i| c64::new(i as f64 * 1e-3, 0.0))
        .collect();
    let inputs = soifft::soi::pipeline::scatter_input(&input, params.procs);
    let fft = SoiFft::new(params).unwrap();
    let stats = Cluster::run(params.procs, |comm| {
        let mut ws = fft.make_workspace();
        let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
        fft.forward_into(comm, &inputs[comm.rank()], &mut ws, &mut y);
        comm.stats().clone()
    });
    // The forward planned FFTs, so the global cache saw traffic; the
    // superstep's epilogue published the gauges into every ledger.
    for s in &stats {
        assert!(
            s.plan_cache_hits() + s.plan_cache_misses() > 0,
            "no plan-cache traffic recorded in a rank ledger"
        );
    }
    let profile = RunProfile::from_stats(&stats);
    let max_hits = stats.iter().map(|s| s.plan_cache_hits()).max().unwrap();
    let max_misses = stats.iter().map(|s| s.plan_cache_misses()).max().unwrap();
    assert_eq!(profile.plan_cache_hits, max_hits);
    assert_eq!(profile.plan_cache_misses, max_misses);
}
