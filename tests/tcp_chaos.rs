//! TCP-mesh chaos: the SOI pipeline over real sockets with a
//! deterministic network-fault proxy in path.
//!
//! Two invariants:
//!
//! 1. **Heal**: a partition shorter than the staleness budget, or a
//!    one-shot connection reset, is absorbed by the transport alone —
//!    senders reconnect with capped backoff and resend, the receive side
//!    drops re-delivered frames by sequence floor, and the run completes
//!    in one epoch with zero restarts, bit-identical to a fault-free TCP
//!    run.
//! 2. **Escalate**: a partition that outlasts the budget surfaces as a
//!    typed `PeerDown` on every blocked rank, the supervisor respawns
//!    the mesh into a bumped generation, the ranks resume from shared
//!    checkpoints, and the recovered spectrum is again bit-identical to
//!    the fault-free run — and numerically correct against the
//!    single-process reference FFT.

use std::time::Duration;

use soifft::cluster::transport::netchaos::{
    ChaosTrigger, NetChaosPlan, PartitionKind, PartitionSpec,
};
use soifft::cluster::transport::tcp::{TcpConfig, TcpSupervisor};
use soifft::cluster::{ClusterConfig, FailureDetection, RankOutcome};
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::gather_output;
use soifft::soi::procrun::seeded_input;
use soifft::soi::tcprun::run_tcp_rank;
use soifft::soi::{Rational, SoiParams};

const RANKS: usize = 4;
const SEED: u64 = 0x07C9_C4A0;

fn params() -> SoiParams {
    SoiParams {
        // Large enough that the all-to-all moves hundreds of KiB per
        // link, so a byte-count partition trigger reliably lands
        // mid-exchange (after the segment-fft checkpoint committed).
        n: 1 << 18,
        procs: RANKS,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 40,
    }
}

fn bits(parts: &[Vec<c64>]) -> Vec<u64> {
    parts
        .iter()
        .flatten()
        .flat_map(|z| [z.re.to_bits(), z.im.to_bits()])
        .collect()
}

fn detection(staleness: Duration) -> FailureDetection {
    FailureDetection {
        heartbeat_interval: Duration::from_millis(20),
        staleness_timeout: staleness,
        ..FailureDetection::default()
    }
}

/// Partition rank 2 symmetrically once ~128 KiB have crossed its links —
/// mid-all-to-all, after the segment-fft checkpoint landed.
fn partition(duration: Option<Duration>) -> NetChaosPlan {
    NetChaosPlan::new(0x0C4A_05F7).partition(PartitionSpec {
        rank: 2,
        kind: PartitionKind::Symmetric,
        trigger: ChaosTrigger::BytesThrough {
            rank: 2,
            bytes: 128 * 1024,
        },
        duration,
    })
}

fn run_mesh(
    staleness: Duration,
    chaos: Option<NetChaosPlan>,
) -> soifft::cluster::transport::tcp::TcpRun<Vec<c64>> {
    let p = params();
    let sup = TcpSupervisor::new(TcpConfig {
        cluster: ClusterConfig {
            detection: detection(staleness),
            ..ClusterConfig::default()
        },
        chaos,
        ..TcpConfig::default()
    });
    sup.run(RANKS, move |comm, ctx| run_tcp_rank(comm, ctx, &p, SEED))
        .expect("mesh launches")
}

fn parts_of(run: soifft::cluster::transport::tcp::TcpRun<Vec<c64>>) -> Vec<Vec<c64>> {
    run.outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, o)| match o {
            RankOutcome::Ok(y) => y,
            other => panic!("rank {rank}: unexpected outcome {other:?}"),
        })
        .collect()
}

#[test]
fn brief_partition_heals_by_reconnect_without_respawn() {
    // Fault-free TCP run: the baseline bits.
    let clean = run_mesh(Duration::from_secs(3), None);
    assert!(clean.all_ok(), "fault-free mesh must complete");
    assert_eq!(clean.epochs, 1);
    assert_eq!(clean.restarts, 0);
    let clean_parts = parts_of(clean);

    // 250 ms symmetric partition of rank 2 against a 3 s staleness
    // budget: the senders must reconnect and resend, with no escalation.
    let run = run_mesh(
        Duration::from_secs(3),
        Some(partition(Some(Duration::from_millis(250)))),
    );
    let events = run.chaos_events.expect("proxy was installed");
    println!(
        "tcp-chaos heal: epochs {} | restarts {} | peer-down aborts {} | proxy {events:?}",
        run.epochs, run.restarts, run.peer_down_aborts
    );
    assert!(events.partitions_fired >= 1, "the partition must fire");
    assert_eq!(run.epochs, 1, "healing must not take a respawn");
    assert_eq!(run.restarts, 0, "healing must not consume the budget");
    assert_eq!(run.peer_down_aborts, 0, "no rank may see a PeerDown");
    assert!(run.all_ok(), "healed run must complete: outcomes failed");
    assert_eq!(
        bits(&parts_of(run)),
        bits(&clean_parts),
        "healed spectrum must be bit-identical to the fault-free TCP run"
    );
}

#[test]
fn unhealed_partition_escalates_to_peer_down_and_recovers_bit_identical() {
    let clean = run_mesh(Duration::from_secs(3), None);
    assert!(clean.all_ok(), "fault-free mesh must complete");
    let clean_parts = parts_of(clean);

    // The partition never lifts and the staleness budget is under a
    // second: reconnects cannot heal it, so every rank must abort with
    // a typed PeerDown and the supervisor must respawn. The plan names
    // generation 0 only, so the respawned mesh runs fault-free and
    // resumes from the shared checkpoints.
    let run = run_mesh(Duration::from_millis(900), Some(partition(None)));
    let events = run.chaos_events.expect("proxy was installed");
    println!(
        "tcp-chaos escalate: epochs {} | restarts {} | peer-down aborts {} | proxy {events:?}",
        run.epochs, run.restarts, run.peer_down_aborts
    );
    assert!(events.partitions_fired >= 1, "the partition must fire");
    assert!(
        run.peer_down_aborts >= 1,
        "the partition must surface as typed PeerDown aborts"
    );
    assert!(run.restarts >= 1, "recovery must consume a restart");
    assert!(run.epochs >= 2, "recovery must take a respawned generation");
    assert!(
        run.all_ok(),
        "respawned generation must complete: outcomes failed"
    );
    let parts = parts_of(run);
    assert_eq!(
        bits(&parts),
        bits(&clean_parts),
        "recovered spectrum must be bit-identical to the fault-free TCP run"
    );

    let p = params();
    let mut want = seeded_input(p.n, SEED);
    Plan::new(p.n).forward(&mut want);
    let err = rel_l2(&gather_output(parts), &want);
    assert!(
        err < 1e-9,
        "recovered spectrum must verify: rel err {err:.3e}"
    );
}

#[test]
fn connection_reset_mid_exchange_heals_without_respawn() {
    let clean = run_mesh(Duration::from_secs(3), None);
    assert!(clean.all_ok(), "fault-free mesh must complete");
    let clean_parts = parts_of(clean);

    // Hard-close rank 2's link toward rank 3 once 64 KiB have crossed
    // it. That link carries no ghost traffic (ghosts flow from rank
    // r + 1 to rank r), so the reset lands mid-all-to-all and may cut
    // a frame in half. The sender must re-dial and resend inside the
    // 3 s staleness budget.
    let plan = NetChaosPlan::new(0x0C4A_05F7).reset_link(2, 3, 64 * 1024);
    let run = run_mesh(Duration::from_secs(3), Some(plan));
    let events = run.chaos_events.expect("proxy was installed");
    println!(
        "tcp-chaos reset: epochs {} | restarts {} | peer-down aborts {} | proxy {events:?}",
        run.epochs, run.restarts, run.peer_down_aborts
    );
    assert_eq!(events.resets_fired, 1, "the reset must fire exactly once");
    assert_eq!(run.epochs, 1, "a reset must not take a respawn");
    assert_eq!(run.restarts, 0, "a reset must not consume the budget");
    assert_eq!(run.peer_down_aborts, 0, "no rank may see a PeerDown");
    assert!(run.all_ok(), "the run must complete across the reset");
    assert_eq!(
        bits(&parts_of(run)),
        bits(&clean_parts),
        "spectrum after a reset must be bit-identical to the fault-free TCP run"
    );
}
