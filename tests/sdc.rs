//! Silent-data-corruption (SDC) suite: the ABFT invariant checks of
//! `soifft_core::verify` and the shared guard and checkpoint hooks of
//! `soifft_cluster::abft` against seeded bit flips at every compute-side
//! fault site the link layer provably cannot observe — through the SOI
//! pipeline, and through the Cooley–Tukey baseline's checkpoint saves.
//!
//! The contract, per [`BitFlipSite`] and [`ValidationPolicy`]:
//!
//! * **Off** — the flipped run *completes* and its spectrum is wrong
//!   (that is the gap the defense exists for);
//! * **CheckOnly** — the flip is detected and reported as
//!   [`CommError::SilentCorruption`], localized to the owning rank (and
//!   segment, where one exists);
//! * **Recover** — the flip is detected, repaired by localized
//!   re-execution, and the recovered spectrum is **bit-identical** to the
//!   fault-free run's; a fault-free run under `Recover` reports zero
//!   detections and zero false positives.

use std::time::Duration;

use soifft::cluster::{
    run_cluster_with_faults, BitFlipSite, ClusterConfig, CommError, CommStats, CrashSite,
    ExchangePolicy, FaultPlan, RankOutcome, RecoveryCtx, RecoveryOutcome, RestartPolicy,
    ValidationPolicy,
};
use soifft::ct::DistributedCtFft;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::{gather_output, scatter_input};
use soifft::soi::{ExchangePlan, Rational, SoiFft, SoiParams, SoiRunError};

const PROCS: usize = 4;
const SEGMENTS_PER_PROC: usize = 2;
const VICTIM: usize = 1;

/// The three sites exercised through the plain resilient pipeline; the
/// fourth ([`BitFlipSite::CheckpointImage`]) needs the supervised
/// checkpointing pipeline and has its own scenarios below.
const PIPELINE_SITES: [BitFlipSite; 3] = [
    BitFlipSite::ConvBuffer,
    BitFlipSite::LocalFftBuffer,
    BitFlipSite::GatheredSegment,
];

fn soi_params() -> SoiParams {
    SoiParams {
        n: 1 << 12,
        procs: PROCS,
        segments_per_proc: SEGMENTS_PER_PROC,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

fn signal(n: usize) -> Vec<c64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            c64::new((0.07 * t).sin() - 0.2, 0.5 * (0.013 * t).cos())
        })
        .collect()
}

fn reference_fft(x: &[c64]) -> Vec<c64> {
    let mut y = x.to_vec();
    Plan::new(x.len()).forward(&mut y);
    y
}

fn policy() -> ExchangePolicy {
    ExchangePolicy {
        deadline: Duration::from_secs(2),
        max_rounds: 3,
    }
}

/// For scenarios *expected* to fail: peers of the erroring rank must time
/// out of the collective quickly, not after minutes.
fn short_policy() -> ExchangePolicy {
    ExchangePolicy {
        deadline: Duration::from_millis(300),
        max_rounds: 2,
    }
}

type SdcOutcome = RankOutcome<(Result<Vec<c64>, SoiRunError>, CommStats)>;

/// Runs the resilient SOI pipeline under `plan` and `validation`,
/// returning each rank's result *and* its communication ledger (the SDC
/// counters live there).
fn run_soi(
    plan: FaultPlan,
    validation: ValidationPolicy,
    policy: ExchangePolicy,
) -> Vec<SdcOutcome> {
    let p = soi_params();
    let x = signal(p.n);
    let inputs = scatter_input(&x, p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_validation(validation);
    run_cluster_with_faults(p.procs, plan, move |comm| {
        let res = fft.try_forward(comm, &inputs[comm.rank()], &policy);
        (res, comm.stats().clone())
    })
}

/// Every rank succeeded: gathered spectrum plus per-rank ledgers.
fn unwrap_all(outcomes: Vec<SdcOutcome>) -> (Vec<c64>, Vec<CommStats>) {
    let mut parts = Vec::new();
    let mut ledgers = Vec::new();
    for (rank, o) in outcomes.into_iter().enumerate() {
        match o {
            RankOutcome::Ok((Ok(y), stats)) => {
                parts.push(y);
                ledgers.push(stats);
            }
            other => panic!("rank {rank}: expected success, got {other:?}"),
        }
    }
    (gather_output(parts), ledgers)
}

// ---------------------------------------------------------------------
// Off: the flip slips through and silently corrupts the spectrum.
// ---------------------------------------------------------------------

#[test]
fn unchecked_flips_complete_with_a_wrong_spectrum() {
    let want = reference_fft(&signal(soi_params().n));
    for site in PIPELINE_SITES {
        let plan = FaultPlan::new(301).bit_flip(VICTIM, site);
        let (got, ledgers) = unwrap_all(run_soi(plan, ValidationPolicy::Off, policy()));
        let err = rel_l2(&got, &want);
        assert!(
            err > 1e-6,
            "{site:?}: an unchecked flip must corrupt the spectrum (err {err:.3e})"
        );
        for (rank, ledger) in ledgers.iter().enumerate() {
            assert_eq!(
                ledger.sdc_detected(),
                0,
                "{site:?}: rank {rank} checked under Off"
            );
        }
    }
}

// ---------------------------------------------------------------------
// CheckOnly: detected, reported, localized.
// ---------------------------------------------------------------------

#[test]
fn check_only_detects_and_localizes_every_pipeline_site() {
    for site in PIPELINE_SITES {
        let plan = FaultPlan::new(302).bit_flip(VICTIM, site);
        let outcomes = run_soi(plan, ValidationPolicy::CheckOnly, short_policy());
        let mut detected = false;
        for (rank, o) in outcomes.into_iter().enumerate() {
            match o {
                RankOutcome::Ok((Err(e), stats)) if rank == VICTIM => {
                    let CommError::SilentCorruption { rank: r, segment } = e.error else {
                        panic!("{site:?}: victim reported {e}");
                    };
                    assert_eq!(r, VICTIM, "{site:?}: localized to the owning rank");
                    match site {
                        BitFlipSite::GatheredSegment => {
                            let s = segment.expect("gathered flips localize to a segment");
                            let base = VICTIM * SEGMENTS_PER_PROC;
                            assert!(
                                (base..base + SEGMENTS_PER_PROC).contains(&s),
                                "{site:?}: segment {s} not owned by rank {VICTIM}"
                            );
                        }
                        _ => assert_eq!(segment, None, "{site:?}: phase-level localization"),
                    }
                    assert!(stats.sdc_detected() >= 1, "{site:?}: detection counted");
                    assert_eq!(stats.sdc_repaired(), 0, "{site:?}: CheckOnly never repairs");
                    detected = true;
                }
                // Peers may finish (post-exchange sites) or fail
                // collaterally when the victim abandons the collective.
                RankOutcome::Ok(_) | RankOutcome::Err(_) => {}
                other => panic!("{site:?}: rank {rank}: unexpected outcome {other:?}"),
            }
        }
        assert!(
            detected,
            "{site:?}: the victim must report SilentCorruption"
        );
    }
}

// ---------------------------------------------------------------------
// Recover: detected, repaired, bit-identical to the fault-free run.
// ---------------------------------------------------------------------

#[test]
fn recover_repairs_every_pipeline_site_bit_identically() {
    let (clean, _) = unwrap_all(run_soi(
        FaultPlan::new(303),
        ValidationPolicy::Recover,
        policy(),
    ));
    for site in PIPELINE_SITES {
        let plan = FaultPlan::new(303).bit_flip(VICTIM, site);
        let (got, ledgers) = unwrap_all(run_soi(plan, ValidationPolicy::Recover, policy()));
        assert_eq!(got, clean, "{site:?}: repair must be bit-identical");
        assert!(
            ledgers[VICTIM].sdc_detected() >= 1,
            "{site:?}: detection counted on the victim"
        );
        assert!(
            ledgers[VICTIM].sdc_repaired() >= 1,
            "{site:?}: repair counted on the victim"
        );
        for (rank, ledger) in ledgers.iter().enumerate() {
            assert_eq!(
                ledger.sdc_false_positives(),
                0,
                "{site:?}: rank {rank} false positive"
            );
        }
    }
}

#[test]
fn recover_escalates_when_the_fault_is_permanent() {
    // A stuck-at fault re-corrupts every localized re-execution; once the
    // retry budget is spent the victim must escalate instead of spinning.
    for site in PIPELINE_SITES {
        let plan = FaultPlan::new(304).bit_flip_times(VICTIM, site, u32::MAX);
        let outcomes = run_soi(plan, ValidationPolicy::Recover, short_policy());
        let mut escalated = false;
        for (rank, o) in outcomes.into_iter().enumerate() {
            if rank != VICTIM {
                continue;
            }
            match o {
                RankOutcome::Ok((Err(e), stats)) => {
                    assert!(
                        matches!(e.error, CommError::SilentCorruption { rank: r, .. } if r == VICTIM),
                        "{site:?}: got {e}"
                    );
                    // Budget exhausted: initial detection plus one per retry.
                    assert!(
                        stats.sdc_detected() >= 3,
                        "{site:?}: {}",
                        stats.sdc_detected()
                    );
                    escalated = true;
                }
                other => panic!("{site:?}: victim outcome {other:?}"),
            }
        }
        assert!(escalated, "{site:?}: the victim must escalate");
    }
}

#[test]
fn recover_extra_seeds_sweep_stays_bit_identical() {
    // Nightly sets SDC_EXTRA_SEEDS to widen the sweep; the per-PR run
    // covers one seed so the path is always exercised.
    let seeds: Vec<u64> = match std::env::var("SDC_EXTRA_SEEDS") {
        Ok(s) => s
            .split(',')
            .filter(|t| !t.trim().is_empty())
            .map(|t| t.trim().parse().expect("SDC_EXTRA_SEEDS: u64 list"))
            .collect(),
        Err(_) => vec![7],
    };
    let (clean, _) = unwrap_all(run_soi(
        FaultPlan::new(305),
        ValidationPolicy::Recover,
        policy(),
    ));
    for seed in seeds {
        for site in PIPELINE_SITES {
            let plan = FaultPlan::new(seed).bit_flip(seed as usize % PROCS, site);
            let (got, _) = unwrap_all(run_soi(plan, ValidationPolicy::Recover, policy()));
            assert_eq!(got, clean, "seed {seed}, {site:?}");
        }
    }
}

#[test]
fn recover_repairs_a_gathered_flip_on_the_half_width_wire() {
    // Tags, verification and rollback work on wire elements, whatever
    // they encode: under F32 a flipped word holds two packed c32 values,
    // and the repaired spectrum still equals the fault-free F32 run's.
    use soifft::soi::Precision;
    let p = soi_params();
    let inputs = scatter_input(&signal(p.n), p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_precision(Precision::F32)
        .with_validation(ValidationPolicy::Recover);
    let run = |plan: FaultPlan| {
        let (fft, inputs) = (fft.clone(), inputs.clone());
        unwrap_all(run_cluster_with_faults(p.procs, plan, move |comm| {
            let res = fft.try_forward(comm, &inputs[comm.rank()], &policy());
            (res, comm.stats().clone())
        }))
    };
    let (clean, _) = run(FaultPlan::new(313));
    let (got, ledgers) = run(FaultPlan::new(313).bit_flip(VICTIM, BitFlipSite::GatheredSegment));
    assert_eq!(got, clean, "repair must be bit-identical");
    assert!(ledgers[VICTIM].sdc_detected() >= 1);
    assert!(ledgers[VICTIM].sdc_repaired() >= 1);
}

// ---------------------------------------------------------------------
// The overlapped exchange plan: validation is never silently off. Its
// per-segment parts carry no checksum tags, so a validating plan runs
// the tagged monolithic exchange instead.
// ---------------------------------------------------------------------

type PlainOutcome = RankOutcome<(Vec<c64>, CommStats)>;

/// The plain (infallible) pipeline under the overlapped plan: each rank's
/// spectrum and ledger.
fn run_overlapped(plan: FaultPlan, validation: ValidationPolicy) -> Vec<PlainOutcome> {
    let p = soi_params();
    let inputs = scatter_input(&signal(p.n), p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_exchange(ExchangePlan::Overlapped)
        .with_validation(validation);
    run_cluster_with_faults(p.procs, plan, move |comm| {
        let y = fft.forward(comm, &inputs[comm.rank()]);
        (y, comm.stats().clone())
    })
}

#[test]
fn overlapped_plan_under_check_only_detects_a_gathered_flip() {
    let plan = FaultPlan::new(308).bit_flip(VICTIM, BitFlipSite::GatheredSegment);
    let outcomes = run_overlapped(plan, ValidationPolicy::CheckOnly);
    // The infallible entry point escalates a detection as a rank panic.
    match &outcomes[VICTIM] {
        RankOutcome::Panicked(msg) => assert!(
            msg.contains(&format!("silent data corruption detected on rank {VICTIM}")),
            "{msg}"
        ),
        other => panic!("the victim must report the flip, got {other:?}"),
    }
}

#[test]
fn overlapped_plan_under_recover_repairs_a_gathered_flip_bit_identically() {
    let spectrum = |outcomes: Vec<PlainOutcome>| -> (Vec<Vec<c64>>, Vec<CommStats>) {
        outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, o)| match o {
                RankOutcome::Ok(pair) => pair,
                other => panic!("rank {rank}: expected success, got {other:?}"),
            })
            .unzip()
    };
    // The genuinely overlapped run (validation off) is the reference.
    let (clean, _) = spectrum(run_overlapped(FaultPlan::new(309), ValidationPolicy::Off));
    let plan = FaultPlan::new(309).bit_flip(VICTIM, BitFlipSite::GatheredSegment);
    let (got, ledgers) = spectrum(run_overlapped(plan, ValidationPolicy::Recover));
    assert_eq!(
        gather_output(got),
        gather_output(clean),
        "repair must be bit-identical"
    );
    assert!(ledgers[VICTIM].sdc_detected() >= 1, "detection counted");
    assert!(ledgers[VICTIM].sdc_repaired() >= 1, "repair counted");
}

// ---------------------------------------------------------------------
// Fault-free validated runs: no detections, no behavior change.
// ---------------------------------------------------------------------

#[test]
fn fault_free_recover_run_is_clean_and_identical_to_off() {
    let (off, _) = unwrap_all(run_soi(
        FaultPlan::new(306),
        ValidationPolicy::Off,
        policy(),
    ));
    let (rec, ledgers) = unwrap_all(run_soi(
        FaultPlan::new(306),
        ValidationPolicy::Recover,
        policy(),
    ));
    assert_eq!(off, rec, "validation must not perturb the data path");
    for (rank, ledger) in ledgers.iter().enumerate() {
        assert_eq!(ledger.sdc_detected(), 0, "rank {rank} detected");
        assert_eq!(ledger.sdc_repaired(), 0, "rank {rank} repaired");
        assert_eq!(
            ledger.sdc_false_positives(),
            0,
            "rank {rank} false positive"
        );
    }
}

#[test]
fn fault_free_recover_overhead_stays_within_budget() {
    // The ≤5 % wall-clock budget is a release-mode contract (the nightly
    // job runs this suite in release); debug skips the timing assertion
    // but still exercises both paths. Sized so per-rank compute, not
    // thread spawn/sync, dominates the wall clock — the regime the
    // budget is about (validation work is O(frontier) against an
    // O(frontier·W) convolution, so fixed per-run costs wash out only
    // once the frontier is large enough).
    let p = SoiParams {
        n: 1 << 17,
        ..soi_params()
    };
    let x = signal(p.n);
    let inputs = scatter_input(&x, p.procs);
    let run_once = |validation: ValidationPolicy| {
        let fft = SoiFft::new(p)
            .expect("valid params")
            .with_validation(validation);
        let inputs = inputs.clone();
        let t = std::time::Instant::now();
        let out = run_cluster_with_faults(p.procs, FaultPlan::new(307), move |comm| {
            fft.try_forward(comm, &inputs[comm.rank()], &policy())
        });
        assert!(out.iter().all(|o| matches!(o, RankOutcome::Ok(Ok(_)))));
        t.elapsed()
    };
    // Run-to-run scheduler/cache jitter on a loaded host is larger than
    // the overhead under test, so batched one-after-the-other timing
    // measures the machine, not the validation. Instead pair each Off
    // run with an adjacent Recover run and take the median of the pair
    // ratios — robust to asymmetric jitter spikes in either direction.
    run_once(ValidationPolicy::Off);
    run_once(ValidationPolicy::Recover);
    let reps = if cfg!(debug_assertions) { 3 } else { 9 };
    let measure = || {
        let mut ratios: Vec<f64> = (0..reps)
            .map(|_| {
                let base = run_once(ValidationPolicy::Off);
                let validated = run_once(ValidationPolicy::Recover);
                validated.as_secs_f64() / base.as_secs_f64()
            })
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[reps / 2]
    };
    // The budget is a capability claim — validation fits inside 5% — so a
    // trial spoiled by an unlucky preemption is re-measured rather than
    // failed; three median-of-pairs trials all landing high means the
    // overhead is real.
    let mut ratio = measure();
    for _ in 0..2 {
        if ratio <= 1.05 {
            break;
        }
        ratio = measure();
    }
    if cfg!(debug_assertions) {
        eprintln!("debug build: ABFT overhead ratio {ratio:.3} (not asserted)");
    } else {
        assert!(ratio <= 1.05, "ABFT overhead ratio {ratio:.3} exceeds 5%");
    }
}

// ---------------------------------------------------------------------
// CheckpointImage: the flip lands on a snapshot before the store hashes
// it, so only write-time read-back (or the Off gap) can tell.
// ---------------------------------------------------------------------

/// Supervised run helper for the checkpoint-site scenarios.
fn run_soi_recovered(
    plan: FaultPlan,
    validation: ValidationPolicy,
    restart: RestartPolicy,
    policy: &ExchangePolicy,
) -> Result<(Vec<c64>, RecoveryOutcome), SoiRunError> {
    let p = soi_params();
    let x = signal(p.n);
    let inputs = scatter_input(&x, p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_validation(validation);
    let run = fft.forward_recovered(ClusterConfig::with_faults(plan), restart, policy, &inputs)?;
    Ok((gather_output(run.outputs), run.recovery))
}

#[test]
fn unchecked_checkpoint_flip_survives_a_restart_and_corrupts_the_result() {
    // The flip corrupts the ghost snapshot image *before* the store hashes
    // it, so the snapshot is self-consistent and restores cleanly; the
    // planned crash then forces epoch 1 to resume from it. Under `Off`
    // the run completes — with a silently wrong spectrum.
    //
    // The resume path is timing-dependent: the ghost phase only commits
    // (and is only restored on epoch 1) if every rank finished its ghost
    // save before the victim's crash tore the epoch down, and a slow
    // neighbor can lose that race. Retry the scenario until the corrupt
    // snapshot actually gets replayed; what the test pins is that WHEN it
    // is replayed, the poisoned spectrum sails through unvalidated.
    let want = reference_fft(&signal(soi_params().n));
    let mut last_err = 0.0;
    for _ in 0..10 {
        let plan = FaultPlan::new(308)
            .bit_flip(VICTIM, BitFlipSite::CheckpointImage)
            .crash(VICTIM, CrashSite::Phase("convolution"));
        let (got, recovery) = run_soi_recovered(
            plan,
            ValidationPolicy::Off,
            RestartPolicy::default(),
            &policy(),
        )
        .expect("the Off run must complete");
        assert_eq!(
            recovery,
            RecoveryOutcome::Recovered {
                restarts: 1,
                recomputed_segments: 0
            }
        );
        last_err = rel_l2(&got, &want);
        if last_err > 1e-6 {
            return;
        }
    }
    panic!("corrupt snapshot never poisoned the result ({last_err:.3e})");
}

#[test]
fn check_only_catches_the_checkpoint_flip_at_write_time() {
    // Victim rank 0 so the supervised run surfaces ITS typed error (the
    // first per rank order) rather than a peer's collateral timeout.
    let plan = FaultPlan::new(309).bit_flip(0, BitFlipSite::CheckpointImage);
    let err = run_soi_recovered(
        plan,
        ValidationPolicy::CheckOnly,
        RestartPolicy::default(),
        &short_policy(),
    )
    .expect_err("write-time read-back must reject the flipped image");
    assert_eq!(err.phase, "checkpoint");
    assert!(
        matches!(
            err.error,
            CommError::SilentCorruption {
                rank: 0,
                segment: None
            }
        ),
        "got {err}"
    );
}

#[test]
fn recover_rewrites_the_flipped_snapshot_and_survives_the_crash() {
    let (clean, _) = run_soi_recovered(
        FaultPlan::new(310),
        ValidationPolicy::Recover,
        RestartPolicy::default(),
        &policy(),
    )
    .expect("fault-free supervised run");
    let plan = FaultPlan::new(310)
        .bit_flip(VICTIM, BitFlipSite::CheckpointImage)
        .crash(VICTIM, CrashSite::Phase("convolution"));
    let (got, recovery) = run_soi_recovered(
        plan,
        ValidationPolicy::Recover,
        RestartPolicy::default(),
        &policy(),
    )
    .expect("repair at save time, then respawn");
    assert_eq!(
        recovery,
        RecoveryOutcome::Recovered {
            restarts: 1,
            recomputed_segments: 0
        }
    );
    assert_eq!(
        got, clean,
        "the re-saved snapshot must restore bit-identically"
    );
}

#[test]
fn block_dfts_resumed_from_a_snapshot_are_guarded_too() {
    // The guard rides on the stage, not on the path that reached it. The
    // injector arms flips in epoch 0 only, so the two epochs are driven
    // by hand over one store: in the first the victim dies entering the
    // block DFTs (its "convolution" snapshot is saved); in the second it
    // resumes from that snapshot and the flip lands on the resumed
    // stage's output — detected, repaired from the resumed rows,
    // bit-identical to the fault-free run.
    use soifft::cluster::CheckpointStore;
    use std::sync::Arc;

    let p = soi_params();
    let inputs = scatter_input(&signal(p.n), p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_validation(ValidationPolicy::Recover);
    let (clean, _) = unwrap_all(run_soi(
        FaultPlan::new(314),
        ValidationPolicy::Recover,
        policy(),
    ));

    let store = Arc::new(CheckpointStore::new(p.procs));
    let epoch = |n: u64, plan: FaultPlan, policy: ExchangePolicy| {
        let ctx = RecoveryCtx::resume(Arc::clone(&store), n, n as u32);
        let (fft, inputs) = (fft.clone(), inputs.clone());
        run_cluster_with_faults(p.procs, plan, move |comm| {
            let res = fft.try_forward_recoverable(comm, &inputs[comm.rank()], &policy, &ctx);
            (res, comm.stats().clone())
        })
    };
    let died = epoch(
        0,
        FaultPlan::new(314).crash(VICTIM, CrashSite::Phase("segment-fft")),
        short_policy(),
    );
    assert!(matches!(died[VICTIM], RankOutcome::Crashed));
    assert!(store.has(VICTIM, "convolution") && !store.has(VICTIM, "segment-fft"));

    let plan = FaultPlan::new(314).bit_flip(VICTIM, BitFlipSite::LocalFftBuffer);
    let (got, ledgers) = unwrap_all(epoch(1, plan, policy()));
    assert_eq!(got, clean, "repair must be bit-identical");
    assert_eq!(ledgers[VICTIM].count_of("convolution"), 0, "resumed");
    assert!(ledgers[VICTIM].sdc_detected() >= 1);
    assert!(ledgers[VICTIM].sdc_repaired() >= 1);
}

// ---------------------------------------------------------------------
// The Cooley–Tukey baseline's checkpoint saves run the same hook.
// ---------------------------------------------------------------------

type CtOutcome = RankOutcome<(Result<Vec<c64>, CommError>, CommStats)>;

/// The CT baseline's checkpointing transform, one epoch over a fresh
/// store, under `plan` and `validation`: each rank's result and ledger.
fn run_ct_recoverable(
    plan: FaultPlan,
    validation: ValidationPolicy,
    policy: ExchangePolicy,
) -> Vec<CtOutcome> {
    let n = soi_params().n;
    let inputs = scatter_input(&signal(n), PROCS);
    let fft = DistributedCtFft::new(n, PROCS)
        .expect("P² divides N")
        .with_validation(validation);
    let ctx = RecoveryCtx::fresh(PROCS);
    run_cluster_with_faults(PROCS, plan, move |comm| {
        let res = fft.try_forward_recoverable(comm, &inputs[comm.rank()], &policy, &ctx);
        (res, comm.stats().clone())
    })
}

#[test]
fn ct_check_only_catches_the_checkpoint_flip_at_write_time() {
    let plan = FaultPlan::new(315).bit_flip(VICTIM, BitFlipSite::CheckpointImage);
    let outcomes = run_ct_recoverable(plan, ValidationPolicy::CheckOnly, short_policy());
    match &outcomes[VICTIM] {
        RankOutcome::Ok((Err(e), stats)) => {
            assert_eq!(
                *e,
                CommError::SilentCorruption {
                    rank: VICTIM,
                    segment: None
                }
            );
            assert_eq!(stats.sdc_detected(), 1);
            assert_eq!(stats.sdc_repaired(), 0, "CheckOnly never repairs");
        }
        other => panic!("the victim must report the flip, got {other:?}"),
    }
}

#[test]
fn ct_recover_rewrites_the_flipped_checkpoint_bit_identically() {
    let outputs = |outcomes: Vec<CtOutcome>| -> (Vec<c64>, Vec<CommStats>) {
        let (parts, ledgers): (Vec<Vec<c64>>, Vec<CommStats>) = outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, o)| match o {
                RankOutcome::Ok((Ok(y), stats)) => (y, stats),
                other => panic!("rank {rank}: expected success, got {other:?}"),
            })
            .unzip();
        (gather_output(parts), ledgers)
    };
    let (clean, _) = outputs(run_ct_recoverable(
        FaultPlan::new(316),
        ValidationPolicy::Recover,
        policy(),
    ));
    let plan = FaultPlan::new(316).bit_flip(VICTIM, BitFlipSite::CheckpointImage);
    let (got, ledgers) = outputs(run_ct_recoverable(
        plan,
        ValidationPolicy::Recover,
        policy(),
    ));
    assert_eq!(got, clean, "repair must be bit-identical");
    assert!(ledgers[VICTIM].sdc_detected() >= 1, "detection counted");
    assert!(ledgers[VICTIM].sdc_repaired() >= 1, "repair counted");
}

// ---------------------------------------------------------------------
// Degraded-mode recomputation accounting (budget-exhausted paths).
// ---------------------------------------------------------------------

#[test]
fn degraded_recomputation_accounting_matches_the_crash_schedule() {
    // The crash schedule decides the exact degraded workload: the victim
    // dies before the exchange in every incarnation, so once the restart
    // budget is spent, ALL P·S output segments are lost with the
    // uncommitted all-to-all and must be recomputed — no more, no fewer.
    // Validation rides along to prove ABFT does not perturb the
    // accounting.
    let all_segments = PROCS * SEGMENTS_PER_PROC;
    for (crashes, restart, expected_restarts) in [
        (1, RestartPolicy::disabled(), 0),
        (
            10,
            RestartPolicy {
                max_restarts: 1,
                ..RestartPolicy::default()
            },
            1,
        ),
        (
            10,
            RestartPolicy {
                max_restarts: 2,
                ..RestartPolicy::default()
            },
            2,
        ),
    ] {
        let plan = FaultPlan::new(311).crash_times(2, CrashSite::Phase("segment-fft"), crashes);
        let (_, recovery) = run_soi_recovered(plan, ValidationPolicy::Recover, restart, &policy())
            .expect("degraded mode must complete the run");
        assert_eq!(
            recovery,
            RecoveryOutcome::Recovered {
                restarts: expected_restarts,
                recomputed_segments: all_segments
            },
            "schedule: {crashes} crashes, budget {expected_restarts}"
        );
    }
}

// ---------------------------------------------------------------------
// Error plumbing.
// ---------------------------------------------------------------------

#[test]
fn soi_run_error_sources_chain_to_the_comm_error() {
    let plan = FaultPlan::new(312).bit_flip(VICTIM, BitFlipSite::ConvBuffer);
    let outcomes = run_soi(plan, ValidationPolicy::CheckOnly, short_policy());
    let run_err = outcomes
        .into_iter()
        .enumerate()
        .find_map(|(rank, o)| match o {
            RankOutcome::Ok((Err(e), _)) if rank == VICTIM => Some(e),
            _ => None,
        })
        .expect("the victim reports a structured error");
    let display = run_err.to_string();
    assert!(display.contains("convolution"), "{display}");
    let source = std::error::Error::source(&run_err).expect("SoiRunError chains its source");
    let comm: &CommError = source.downcast_ref().expect("source is the CommError");
    assert!(
        matches!(comm, CommError::SilentCorruption { rank, .. } if *rank == VICTIM),
        "{comm}"
    );
    assert!(
        comm.to_string().contains("silent data corruption"),
        "{comm}"
    );
    assert!(
        std::error::Error::source(comm).is_none(),
        "CommError is the end of the chain"
    );
}
