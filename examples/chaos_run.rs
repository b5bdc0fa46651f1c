//! Chaos run: the distributed SOI FFT under injected link faults and a
//! rank crash.
//!
//! ```sh
//! cargo run --release --example chaos_run
//! ```
//!
//! Scenario 1 runs a 4-rank SOI transform through a fault storm (drops,
//! bit corruption, duplicates, delays). The link layer detects every
//! corrupt frame by checksum, filters duplicates by sequence number and
//! retransmits dropped frames, so the run completes and the spectrum
//! verifies against a single-process reference FFT.
//!
//! Scenario 2 crashes rank 2 in the middle of the all-to-all. The
//! survivors must not hang: the failure detector turns their blocked
//! receives into typed `PeerFailed` errors carrying the partial
//! communication ledger.
//!
//! Scenario 3 runs the same crash under supervision: the supervisor
//! respawns the dead rank, the replacement resumes from its phase
//! checkpoints, and the run completes and verifies.
//!
//! Scenario 4 exhausts the restart budget (it is zero): the survivors
//! recompute the dead rank's segments from checkpointed exchange inputs
//! and the run still completes, degraded but correct.
//!
//! Scenario 5 flips one bit in a rank's local FFT buffer — memory
//! corruption the link layer never sees. Under `CheckOnly` the Parseval
//! invariant flags it as a typed `SilentCorruption`; under `Recover` the
//! flagged phase is re-executed locally and the spectrum comes out
//! bit-identical to a fault-free run.
//!
//! Scenario 6 leaves the in-process world entirely: ranks become real OS
//! processes on a loopback TCP mesh (a Unix-socket control link each to
//! the supervisor, disk checkpoints), and the fault is a genuine `kill -9` of
//! rank 2 as it enters the all-to-all. The supervisor detects the death,
//! respawns the rank set into a new generation, and the recovered
//! spectrum is bit-identical to a fault-free multi-process run.
//!
//! Scenario 7 moves to the TCP mesh with the deterministic network-fault
//! proxy in path. First a brief partition of rank 2 mid-all-to-all heals
//! transparently — the senders reconnect and resend, zero restarts. Then
//! a partition that outlasts the staleness budget escalates: every rank
//! aborts with a typed `PeerDown`, the TCP supervisor respawns the mesh
//! into a new generation, and the recovered spectrum is bit-identical to
//! the fault-free TCP run.

use std::path::PathBuf;
use std::time::Duration;

use soifft::cluster::transport::netchaos::{
    ChaosTrigger, NetChaosPlan, PartitionKind, PartitionSpec,
};
use soifft::cluster::transport::proc::{KillPlan, KillWhen, ProcConfig, ProcSupervisor};
use soifft::cluster::transport::tcp::{TcpConfig, TcpSupervisor};
use soifft::cluster::{
    run_cluster_with_faults, BitFlipSite, ClusterConfig, CommError, CrashSite, ExchangePolicy,
    FailureDetection, FaultPlan, RankOutcome, RecoveryOutcome, RestartPolicy, ValidationPolicy,
};
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::{gather_output, scatter_input};
use soifft::soi::procrun::{self, read_rank_output, seeded_input};
use soifft::soi::tcprun::run_tcp_rank;
use soifft::soi::{Rational, SoiFft, SoiParams};

const PROC_SEED: u64 = 0xC4A0_5FF7;

/// Scenario 6's problem: bigger than the in-process scenarios so the
/// post-checkpoint tail comfortably outlasts the supervisor's kill poll.
fn proc_params() -> SoiParams {
    SoiParams {
        n: 1 << 18,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

fn main() {
    // Child probe: when scenario 6's supervisor re-executes this binary
    // with the SOIFFT_PROC_* environment, become the rank process.
    if let Ok(out) = std::env::var("SOIFFT_CHAOS_OUT") {
        if let Some(code) = procrun::child_main(&proc_params(), PROC_SEED, &PathBuf::from(out)) {
            std::process::exit(code);
        }
    }
    let procs = 4;
    let params = SoiParams {
        n: 1 << 12,
        procs,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    };
    let n = params.n;

    let x: Vec<c64> = (0..n)
        .map(|i| {
            let t = i as f64;
            c64::new((0.07 * t).sin() - 0.2, 0.5 * (0.013 * t).cos())
        })
        .collect();
    let mut reference = x.clone();
    Plan::new(n).forward(&mut reference);
    let inputs = scatter_input(&x, procs);
    let fft = SoiFft::new(params).expect("valid SOI parameters");

    // --- scenario 1: transient fault storm, absorbed by the link layer ----
    let plan = FaultPlan::new(42)
        .drop(0.25)
        .corrupt(0.15)
        .duplicate(0.15)
        .delay(0.2, Duration::from_micros(100));
    let policy = ExchangePolicy {
        deadline: Duration::from_secs(2),
        max_rounds: 3,
    };
    println!("scenario 1: SOI N = {n}, P = {procs}, fault storm (seed 42)");
    println!("  plan: drop 25% / corrupt 15% / duplicate 15% / delay 20%\n");

    let outcomes = run_cluster_with_faults(procs, plan, |comm| {
        let y = fft
            .try_forward(comm, &inputs[comm.rank()], &policy)
            .expect("transient faults must be absorbed");
        (
            y,
            comm.fault_events().expect("plan installed"),
            comm.stats().retransmits(),
        )
    });

    let mut parts = Vec::new();
    println!("  rank  drops  corrupt  dup  delay  retransmits");
    for (rank, o) in outcomes.into_iter().enumerate() {
        let (y, ev, retx) = o.unwrap();
        println!(
            "  {rank:>4}  {:>5}  {:>7}  {:>3}  {:>5}  {retx:>11}",
            ev.drops, ev.corruptions, ev.duplicates, ev.delays
        );
        parts.push(y);
    }
    let got = gather_output(parts);
    let err = rel_l2(&got, &reference);
    println!("\n  spectrum verified: rel_l2 = {err:.3e}");
    assert!(err < 1e-9);

    // --- scenario 2: rank 2 crashes mid-exchange, survivors unblock -------
    let crash_plan = FaultPlan::new(7).crash(2, CrashSite::AllToAll);
    let short = ExchangePolicy {
        deadline: Duration::from_millis(300),
        max_rounds: 2,
    };
    println!("\nscenario 2: rank 2 crashes in the all-to-all");

    let outcomes = run_cluster_with_faults(procs, crash_plan, |comm| {
        fft.try_forward(comm, &inputs[comm.rank()], &short)
    });
    for (rank, o) in outcomes.iter().enumerate() {
        match o {
            RankOutcome::Crashed => println!("  rank {rank}: crashed (injected)"),
            RankOutcome::Ok(Err(e)) => {
                assert_eq!(e.error, CommError::PeerFailed { rank: 2 });
                println!(
                    "  rank {rank}: typed failure in {} phase: {} ({} ledger phases retained)",
                    e.phase,
                    e.error,
                    e.stats.records().len()
                );
            }
            RankOutcome::Err(e) => {
                assert_eq!(*e, CommError::PeerFailed { rank: 2 });
                println!("  rank {rank}: typed failure: {e}");
            }
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        }
    }
    assert!(matches!(outcomes[2], RankOutcome::Crashed));

    // --- scenario 3: same crash, but supervised — respawn and complete ----
    println!("\nscenario 3: rank 2 crashes in the all-to-all, supervisor respawns it");
    let crash_plan = FaultPlan::new(7).crash(2, CrashSite::AllToAll);
    let run = fft
        .forward_recovered(
            ClusterConfig::with_faults(crash_plan),
            RestartPolicy::default(),
            &policy,
            &inputs,
        )
        .expect("supervised run completes");
    let RecoveryOutcome::Recovered {
        restarts,
        recomputed_segments,
    } = run.recovery
    else {
        panic!("expected a recovery, got {:?}", run.recovery);
    };
    println!("  recovery: {restarts} restart(s), {recomputed_segments} segment(s) recomputed");
    let got = gather_output(run.outputs);
    let err = rel_l2(&got, &reference);
    println!("  spectrum verified after respawn: rel_l2 = {err:.3e}");
    assert!(err < 1e-9);

    // --- scenario 4: restart budget exhausted, degraded-mode completion ---
    println!("\nscenario 4: rank 1 crashes in the segment FFT, restart budget is zero");
    let crash_plan = FaultPlan::new(9).crash(1, CrashSite::Phase("segment-fft"));
    let run = fft
        .forward_recovered(
            ClusterConfig::with_faults(crash_plan),
            RestartPolicy::disabled(),
            &policy,
            &inputs,
        )
        .expect("degraded run completes");
    let RecoveryOutcome::Recovered {
        restarts,
        recomputed_segments,
    } = run.recovery
    else {
        panic!("expected a degraded recovery, got {:?}", run.recovery);
    };
    println!(
        "  recovery: {restarts} restart(s), {recomputed_segments} segment(s) recomputed by survivors"
    );
    let got = gather_output(run.outputs);
    let err = rel_l2(&got, &reference);
    println!("  spectrum verified in degraded mode: rel_l2 = {err:.3e}");
    assert!(err < 1e-9);

    // --- scenario 5: silent bit flip in a local FFT buffer ----------------
    println!("\nscenario 5: one bit flips in rank 1's local FFT buffer (seed 55)");
    let flip = |seed| FaultPlan::new(seed).bit_flip(1, BitFlipSite::LocalFftBuffer);

    let checked = fft.clone().with_validation(ValidationPolicy::CheckOnly);
    let outcomes = run_cluster_with_faults(procs, flip(55), |comm| {
        checked.try_forward(comm, &inputs[comm.rank()], &short)
    });
    match &outcomes[1] {
        RankOutcome::Ok(Err(e)) => {
            assert!(matches!(
                e.error,
                CommError::SilentCorruption { rank: 1, .. }
            ));
            println!(
                "  CheckOnly: rank 1 flagged in {} phase: {}",
                e.phase, e.error
            );
        }
        other => panic!("rank 1: expected a typed detection, got {other:?}"),
    }

    let recovering = fft.clone().with_validation(ValidationPolicy::Recover);
    let clean = {
        let outcomes = run_cluster_with_faults(procs, FaultPlan::new(56), |comm| {
            recovering.try_forward(comm, &inputs[comm.rank()], &policy)
        });
        gather_output(outcomes.into_iter().map(|o| o.unwrap().unwrap()).collect())
    };
    let outcomes = run_cluster_with_faults(procs, flip(55), |comm| {
        let y = recovering.try_forward(comm, &inputs[comm.rank()], &policy);
        (y, comm.stats().sdc_detected(), comm.stats().sdc_repaired())
    });
    let mut parts = Vec::new();
    for (rank, o) in outcomes.into_iter().enumerate() {
        let (y, detected, repaired) = o.unwrap();
        if detected > 0 {
            println!("  Recover: rank {rank} detected {detected} and repaired {repaired} flip(s)");
        }
        parts.push(y.expect("the flip is repaired in place"));
    }
    let got = gather_output(parts);
    assert_eq!(
        got, clean,
        "repair must be bit-identical to the fault-free run"
    );
    println!("  spectrum verified after repair: bit-identical to the fault-free run");

    // --- scenario 6: kill -9 a real rank process, recover bit-identical ---
    let pp = proc_params();
    println!(
        "\nscenario 6: multi-process backend, kill -9 rank 2 entering the all-to-all (N = {})",
        pp.n
    );
    let exe = std::env::current_exe().expect("own path");
    let work = std::env::temp_dir().join(format!("soifft-chaos-run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let proc_run = |tag: &str, kill: Option<KillPlan>| {
        let dir = work.join(tag);
        let out = dir.join("out");
        let config = ProcConfig {
            detection: FailureDetection {
                heartbeat_interval: Duration::from_millis(25),
                staleness_timeout: Duration::from_secs(3),
                ..FailureDetection::default()
            },
            kill,
            ..ProcConfig::default()
        };
        let run = ProcSupervisor::with_config(&dir, config)
            .run(pp.procs, |_, _| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.env("SOIFFT_CHAOS_OUT", &out);
                cmd
            })
            .expect("supervised run launches");
        println!(
            "  {tag}: epochs {} | deaths {} | kills injected {} | outcomes {:?}",
            run.epochs, run.deaths, run.injected_kills, run.outcomes
        );
        assert!(run.all_ok(), "{tag}: all rank processes must complete");
        let parts: Vec<Vec<c64>> = (0..pp.procs)
            .map(|r| read_rank_output(&out, r).expect("rank output present"))
            .collect();
        (run, parts)
    };
    let (clean_run, clean_parts) = proc_run("clean", None);
    assert_eq!(clean_run.epochs, 1);
    let kill = KillPlan {
        rank: 2,
        generation: 0,
        when: KillWhen::FileExists(work.join("kill9").join("ckpt").join("r2-segment-fft.ckpt")),
    };
    let (chaos_run, chaos_parts) = proc_run("kill9", Some(kill));
    assert_eq!(chaos_run.injected_kills, 1, "the scripted kill must fire");
    assert!(
        chaos_run.epochs >= 2,
        "recovery takes a respawned generation"
    );
    assert_eq!(
        chaos_parts
            .iter()
            .flatten()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>(),
        clean_parts
            .iter()
            .flatten()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect::<Vec<_>>(),
        "recovered spectrum must be bit-identical to the fault-free run"
    );
    let mut proc_want = seeded_input(pp.n, PROC_SEED);
    Plan::new(pp.n).forward(&mut proc_want);
    let err = rel_l2(&gather_output(chaos_parts), &proc_want);
    println!("  recovered spectrum: bit-identical to fault-free, rel_l2 = {err:.3e}");
    assert!(err < 1e-9);
    let _ = std::fs::remove_dir_all(&work);

    // --- scenario 7: TCP mesh behind the network-fault proxy --------------
    let tp = SoiParams {
        n: 1 << 16,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    };
    println!(
        "\nscenario 7: TCP mesh, rank 2 partitioned mid-all-to-all (N = {})",
        tp.n
    );
    let tcp_seed = 0x07C9_F0A2u64;
    let tcp_run = |tag: &str, detection: FailureDetection, chaos: Option<NetChaosPlan>| {
        let sup = TcpSupervisor::new(TcpConfig {
            cluster: ClusterConfig {
                detection,
                ..ClusterConfig::default()
            },
            chaos,
            ..TcpConfig::default()
        });
        let run = sup
            .run(tp.procs, |comm, ctx| run_tcp_rank(comm, ctx, &tp, tcp_seed))
            .expect("TCP mesh launches");
        if let Some(ev) = run.chaos_events {
            println!(
                "  {tag}: epochs {} | restarts {} | peer-down aborts {} | proxy: {} partitions, {} conns severed, {} refused",
                run.epochs, run.restarts, run.peer_down_aborts,
                ev.partitions_fired, ev.conns_severed, ev.conns_refused
            );
        } else {
            println!(
                "  {tag}: epochs {} | restarts {} | peer-down aborts {}",
                run.epochs, run.restarts, run.peer_down_aborts
            );
        }
        assert!(run.all_ok(), "{tag}: final epoch must complete");
        let mut parts = Vec::new();
        for o in run.outcomes {
            match o {
                RankOutcome::Ok(y) => parts.push(y),
                other => panic!("{tag}: unexpected outcome {other:?}"),
            }
        }
        (run.epochs, run.restarts, parts)
    };

    // Detection budgets: generous staleness lets the brief partition heal
    // by reconnecting; the tight budget forces escalation.
    let lenient = FailureDetection {
        heartbeat_interval: Duration::from_millis(20),
        staleness_timeout: Duration::from_secs(3),
        ..FailureDetection::default()
    };
    let strict = FailureDetection {
        heartbeat_interval: Duration::from_millis(20),
        staleness_timeout: Duration::from_millis(900),
        ..FailureDetection::default()
    };
    let partition_at = |duration: Option<Duration>| {
        NetChaosPlan::new(0xBAD1_1ACE).partition(PartitionSpec {
            rank: 2,
            kind: PartitionKind::Symmetric,
            trigger: ChaosTrigger::BytesThrough {
                rank: 2,
                bytes: 48 * 1024,
            },
            duration,
        })
    };

    let (_, _, clean_parts) = tcp_run("fault-free", lenient, None);
    let (epochs, restarts, healed_parts) = tcp_run(
        "heal",
        lenient,
        Some(partition_at(Some(Duration::from_millis(250)))),
    );
    assert_eq!(epochs, 1, "a brief partition must heal without respawn");
    assert_eq!(restarts, 0);
    assert_eq!(
        healed_parts, clean_parts,
        "healed run must be bit-identical to fault-free"
    );
    println!("  heal: reconnect absorbed the partition — no respawn, bits identical");

    let (epochs, restarts, recovered_parts) = tcp_run("escalate", strict, Some(partition_at(None)));
    assert!(
        epochs >= 2 && restarts >= 1,
        "an unhealed partition must consume a respawn"
    );
    assert_eq!(
        recovered_parts, clean_parts,
        "recovered run must be bit-identical to fault-free"
    );
    let mut tcp_want = seeded_input(tp.n, tcp_seed);
    Plan::new(tp.n).forward(&mut tcp_want);
    let err = rel_l2(&gather_output(recovered_parts), &tcp_want);
    println!(
        "  escalate: PeerDown on every rank, respawned generation recovered — rel_l2 = {err:.3e}"
    );
    assert!(err < 1e-9);

    println!(
        "\nok: faults absorbed when transient, typed when unsupervised, recovered when supervised, \
         silent flips caught by invariants, a kill -9'd rank process resumed from disk checkpoints \
         bit-exactly, and a network partition first healed by reconnect then recovered by respawn."
    );
}
