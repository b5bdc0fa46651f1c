//! Checkpoint/restart contract: snapshots restore byte-identically,
//! corruption is detected (never silently restored), the commit/prune
//! lifecycle holds under arbitrary save orders, and supervised recovery is
//! deterministic — the same fault plan yields bit-identical recovered
//! spectra and the identical [`RecoveryOutcome`] on every run.

use proptest::prelude::*;

use soifft::cluster::{
    CheckpointError, CheckpointStore, ClusterConfig, CrashSite, ExchangePolicy, FaultPlan,
    RecoveryOutcome, RestartPolicy,
};
use soifft::num::c64;
use soifft::soi::pipeline::scatter_input;
use soifft::soi::{Rational, SoiFft, SoiParams};

fn payload(seed: u64, len: usize) -> Vec<c64> {
    // SplitMix64-style stream: cheap, deterministic, seedable.
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64 - 0.5
    };
    (0..len).map(|_| c64::new(next(), next())).collect()
}

fn bits(y: &[c64]) -> Vec<u64> {
    y.iter()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

// ---------------------------------------------------------------------
// Store-level properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn snapshots_round_trip_byte_identically(
        seed in any::<u64>(),
        parties in 1usize..5,
        len in 1usize..200,
    ) {
        let store = CheckpointStore::new(parties);
        let data: Vec<Vec<c64>> =
            (0..parties).map(|r| payload(seed ^ r as u64, len)).collect();
        for (rank, d) in data.iter().enumerate() {
            store.save(rank, "phase", 0, d);
        }
        for (rank, d) in data.iter().enumerate() {
            let restored = store.restore(rank, "phase").expect("saved snapshot restores");
            prop_assert_eq!(bits(&restored), bits(d));
        }
    }

    #[test]
    fn corruption_is_detected_and_resave_repairs(
        seed in any::<u64>(),
        len in 1usize..100,
    ) {
        let store = CheckpointStore::new(2);
        let d = payload(seed, len);
        store.save(0, "phase", 0, &d);
        prop_assert!(store.corrupt(0, "phase"), "chaos hook must find the snapshot");
        prop_assert_eq!(
            store.restore(0, "phase").unwrap_err(),
            CheckpointError::Corrupt { rank: 0, phase: "phase" }
        );
        // A fresh save over the corrupt slot makes it restorable again.
        store.save(0, "phase", 1, &d);
        prop_assert_eq!(bits(&store.restore(0, "phase").unwrap()), bits(&d));
    }

    #[test]
    fn commit_and_prune_lifecycle_is_order_independent(
        seed in any::<u64>(),
        order_seed in any::<u64>(),
    ) {
        // Phases commit exactly when every party has saved them, no matter
        // the interleaving; committing a phase prunes all earlier
        // committed phases' snapshots but never the newest generation.
        let parties = 3;
        let store = CheckpointStore::new(parties);
        let mut saves: Vec<(usize, &'static str)> = Vec::new();
        for phase in ["a", "b"] {
            for rank in 0..parties {
                saves.push((rank, phase));
            }
        }
        // Deterministic shuffle of the save order (phase order per rank is
        // preserved only as much as the shuffle allows — the store must
        // not care).
        let mut state = order_seed;
        for i in (1..saves.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            saves.swap(i, (state as usize) % (i + 1));
        }
        for (i, &(rank, phase)) in saves.iter().enumerate() {
            store.save(rank, phase, 0, &payload(seed ^ i as u64, 8));
        }
        prop_assert!(store.is_committed("a"));
        prop_assert!(store.is_committed("b"));
        // Whichever phase committed last pruned the other.
        let last = store.committed_phases().last().copied().unwrap();
        let pruned = if last == "a" { "b" } else { "a" };
        for rank in 0..parties {
            prop_assert!(store.has(rank, last));
            prop_assert!(!store.has(rank, pruned));
        }
    }
}

#[test]
fn missing_and_corrupt_are_distinct_errors() {
    let store = CheckpointStore::new(2);
    assert_eq!(
        store.restore(1, "nope").unwrap_err(),
        CheckpointError::Missing {
            rank: 1,
            phase: "nope"
        }
    );
    store.save(1, "phase", 0, &payload(7, 16));
    assert!(store.corrupt(1, "phase"));
    assert_eq!(
        store.restore(1, "phase").unwrap_err(),
        CheckpointError::Corrupt {
            rank: 1,
            phase: "phase"
        }
    );
}

#[test]
fn epoch_tags_follow_the_latest_save() {
    let store = CheckpointStore::new(1);
    store.save(0, "phase", 0, &payload(1, 4));
    assert_eq!(store.epoch_of(0, "phase"), Some(0));
    store.save(0, "phase", 3, &payload(2, 4));
    assert_eq!(store.epoch_of(0, "phase"), Some(3));
}

// ---------------------------------------------------------------------
// End-to-end: recovery determinism.
// ---------------------------------------------------------------------

fn soi_params() -> SoiParams {
    SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

/// One supervised run under `plan`: per-rank spectrum bits + the recovery
/// outcome.
fn recovered_run(plan: FaultPlan, restart: RestartPolicy) -> (Vec<Vec<u64>>, RecoveryOutcome) {
    let p = soi_params();
    let x: Vec<c64> = (0..p.n)
        .map(|i| c64::new((0.11 * i as f64).cos(), (0.07 * i as f64).sin()))
        .collect();
    let inputs = scatter_input(&x, p.procs);
    let fft = SoiFft::new(p).expect("valid params");
    let run = fft
        .forward_recovered(
            ClusterConfig::with_faults(plan),
            restart,
            &ExchangePolicy::default(),
            &inputs,
        )
        .expect("supervised run must complete");
    (run.outputs.iter().map(|y| bits(y)).collect(), run.recovery)
}

#[test]
fn respawn_recovery_is_bit_deterministic() {
    // Same crash plan, same seed → bit-identical recovered spectra and the
    // identical Recovered outcome, run after run.
    let plan = || FaultPlan::new(31).crash(2, CrashSite::AllToAll);
    let (bits_a, rec_a) = recovered_run(plan(), RestartPolicy::default());
    let (bits_b, rec_b) = recovered_run(plan(), RestartPolicy::default());
    assert_eq!(
        rec_a,
        RecoveryOutcome::Recovered {
            restarts: 1,
            recomputed_segments: 0
        }
    );
    assert_eq!(rec_a, rec_b);
    assert_eq!(bits_a, bits_b);
}

#[test]
fn degraded_recovery_is_bit_deterministic() {
    let plan = || FaultPlan::new(32).crash(1, CrashSite::Phase("segment-fft"));
    let (bits_a, rec_a) = recovered_run(plan(), RestartPolicy::disabled());
    let (bits_b, rec_b) = recovered_run(plan(), RestartPolicy::disabled());
    assert_eq!(
        rec_a,
        RecoveryOutcome::Recovered {
            restarts: 0,
            recomputed_segments: 8
        }
    );
    assert_eq!(rec_a, rec_b);
    assert_eq!(bits_a, bits_b);
}

#[test]
fn recovered_spectrum_matches_the_fault_free_run_bit_for_bit() {
    // Resuming from checkpoints replays the identical arithmetic, so the
    // recovered spectrum is not merely within tolerance — it is the same
    // f64 bit pattern the fault-free pipeline produces.
    let (clean, rec) = recovered_run(FaultPlan::new(33), RestartPolicy::default());
    assert_eq!(rec, RecoveryOutcome::None);
    let (respawned, rec) = recovered_run(
        FaultPlan::new(33).crash(2, CrashSite::AllToAll),
        RestartPolicy::default(),
    );
    assert_eq!(
        rec,
        RecoveryOutcome::Recovered {
            restarts: 1,
            recomputed_segments: 0
        }
    );
    assert_eq!(clean, respawned);
}

#[test]
fn f32_run_resumes_from_checkpoints_bit_for_bit() {
    // Snapshots hold what the stage produced — for the "all-to-all" phase
    // the wire elements as shipped — so a half-width run resumes exactly
    // like a full-width one, at every depth.
    use soifft::cluster::{Cluster, RecoveryCtx};
    use soifft::soi::Precision;
    use std::sync::Arc;

    let p = soi_params();
    let x: Vec<c64> = (0..p.n)
        .map(|i| c64::new((0.11 * i as f64).cos(), (0.07 * i as f64).sin()))
        .collect();
    let inputs = scatter_input(&x, p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_precision(Precision::F32);
    let policy = ExchangePolicy::default();

    // Under the supervisor: a death in the block DFTs resumes from the
    // "convolution" snapshot, a death entering the exchange from
    // "segment-fft".
    let supervised = |plan: FaultPlan| {
        fft.forward_recovered(
            ClusterConfig::with_faults(plan),
            RestartPolicy::default(),
            &policy,
            &inputs,
        )
        .expect("supervised run must complete")
    };
    let clean = supervised(FaultPlan::new(34));
    assert_eq!(clean.recovery, RecoveryOutcome::None);
    for site in [CrashSite::Phase("segment-fft"), CrashSite::AllToAll] {
        let resumed = supervised(FaultPlan::new(34).crash(2, site));
        assert_eq!(
            resumed.recovery,
            RecoveryOutcome::Recovered {
                restarts: 1,
                recomputed_segments: 0
            },
            "{site:?}"
        );
        assert_eq!(resumed.outputs, clean.outputs, "{site:?}");
    }

    // By hand: a complete epoch commits "all-to-all"; the next epoch over
    // the same store skips every collective and recovers from the
    // half-width snapshot alone.
    let store = Arc::new(CheckpointStore::new(p.procs));
    for epoch in 0..2u64 {
        let ctx = RecoveryCtx::resume(Arc::clone(&store), epoch, epoch as u32);
        assert_eq!(ctx.committed("all-to-all"), epoch == 1);
        let runs = Cluster::run(p.procs, |comm| {
            let y = fft
                .try_forward_recoverable(comm, &inputs[comm.rank()], &policy, &ctx)
                .expect("healthy cluster");
            (y, comm.stats().count_of("all-to-all"))
        });
        for (rank, (y, exchanges)) in runs.into_iter().enumerate() {
            assert_eq!(y, clean.outputs[rank], "epoch {epoch}, rank {rank}");
            assert_eq!(exchanges, 1 - epoch as usize, "epoch {epoch}, rank {rank}");
        }
    }
}
