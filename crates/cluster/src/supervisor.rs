//! Supervised cluster launches: detect a failed epoch, respawn it,
//! resume from checkpoints.
//!
//! The resilience layer makes a crashed run *fail well* (typed
//! [`RankOutcome`]s, no hangs); a supervisor makes it *finish*. Each
//! **epoch** is one launch of the whole rank set, and all three
//! supervisors climb one respawn ladder: it owns the generation and
//! restart counters, sleeps [`RestartPolicy::backoff`]`(k)` before
//! restart `k`, records epochs and deaths in a [`HealthMonitor`], and
//! stops at the first epoch that needs no respawn or once
//! [`RestartPolicy::max_restarts`] is spent. Each backend brings one
//! epoch-launch closure and its own respawn verdict:
//!
//! * [`Supervisor`]: rank threads over in-process channels that live
//!   across epochs. It respawns on a rank *death* (injected crash, panic
//!   or join timeout); a survivor's typed error is the symptom.
//! * [`TcpSupervisor`](crate::transport::tcp::TcpSupervisor): rank
//!   threads over a fresh loopback mesh per epoch. It respawns on any
//!   non-Ok outcome, since a partition kills no thread and surfaces as a
//!   typed [`CommError::PeerDown`](crate::CommError::PeerDown) instead.
//! * [`ProcSupervisor`](crate::transport::proc::ProcSupervisor): child
//!   OS processes around a hub. It respawns on any non-Ok exit.
//!
//! Both thread-backed supervisors start their ranks through the launcher
//! under [`Cluster::run_with`](crate::Cluster::run_with): `catch_unwind`,
//! a death notice from every rank that unwinds, and the join deadline.
//!
//! Respawned ranks do not redo the whole pipeline: each epoch receives a
//! [`RecoveryCtx`] carrying the shared [`CheckpointStore`] and a *frozen*
//! list of globally committed phases, so every rank makes the same
//! collective decision about where to rejoin. Stale in-flight messages
//! from the dead incarnation are discarded by the wire layer's generation
//! tag (the epoch number).

use std::convert::Infallible;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::checkpoint::CheckpointStore;
use crate::resilience::RankOutcome;
use crate::{launch_epoch, make_channels, ClusterConfig, Comm};

/// Live, shareable health signal of a supervised engine.
///
/// The supervisor updates these counters as epochs launch and die, so a
/// layer *outside* the rank closures (the serving front end's circuit
/// breaker) can observe crash pressure while the run is still in
/// progress — [`SupervisedRun`] only reports after the fact. Counters
/// accumulate across successive [`Supervisor::run`] calls on the same
/// supervisor, which is exactly what a breaker keyed on "repeated
/// escalations" wants.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    epochs: AtomicU64,
    deaths: AtomicU64,
    restarts: AtomicU32,
    budget_exhausted: AtomicBool,
}

impl HealthMonitor {
    /// Epochs launched so far (across every run of the owning supervisor).
    pub fn epochs_launched(&self) -> u64 {
        self.epochs.load(Ordering::SeqCst)
    }

    /// Epochs that ended with at least one rank death (injected crash,
    /// panic, or join timeout).
    pub fn deaths(&self) -> u64 {
        self.deaths.load(Ordering::SeqCst)
    }

    /// Restarts consumed respawning dead epochs.
    pub fn restarts(&self) -> u32 {
        self.restarts.load(Ordering::SeqCst)
    }

    /// True once a run ended with deaths it no longer had budget to
    /// respawn — the strongest escalation the supervisor can report.
    pub fn budget_exhausted(&self) -> bool {
        self.budget_exhausted.load(Ordering::SeqCst)
    }

    fn note_epoch(&self) {
        self.epochs.fetch_add(1, Ordering::SeqCst);
    }

    fn note_death(&self, respawning: bool) {
        self.deaths.fetch_add(1, Ordering::SeqCst);
        if respawning {
            self.restarts.fetch_add(1, Ordering::SeqCst);
        } else {
            self.budget_exhausted.store(true, Ordering::SeqCst);
        }
    }
}

/// Restart budget and backoff of a [`Supervisor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RestartPolicy {
    /// How many times a dead epoch may be re-launched (0 = never respawn;
    /// callers fall through to degraded-mode recomputation instead).
    pub max_restarts: u32,
    /// Backoff before restart `k` is `base_backoff · 2^(k-1)`, capped at
    /// one second — a token of the real-world stabilization delay before
    /// re-admitting a node.
    pub base_backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            base_backoff: Duration::from_millis(5),
        }
    }
}

impl RestartPolicy {
    /// A policy that never respawns (restart budget 0).
    pub fn disabled() -> Self {
        RestartPolicy {
            max_restarts: 0,
            ..RestartPolicy::default()
        }
    }

    /// The pause before restart number `restart` (1-based).
    pub fn backoff(&self, restart: u32) -> Duration {
        let factor = 1u32 << restart.saturating_sub(1).min(16);
        (self.base_backoff * factor).min(Duration::from_secs(1))
    }
}

/// What one epoch of a supervised run knows about recovery: the shared
/// checkpoint store, which incarnation this is, and which phases had
/// committed globally when the epoch launched.
///
/// The committed list is *frozen at launch* — phases that commit while the
/// epoch runs do not appear — so all ranks of the epoch agree on the
/// resume point without racing the store.
pub struct RecoveryCtx {
    store: Arc<CheckpointStore>,
    epoch: u64,
    restarts: u32,
    committed: Vec<&'static str>,
}

impl RecoveryCtx {
    /// Builds a recovery context for an externally launched epoch — the
    /// multi-process supervisor's children call this after opening the
    /// shared disk-mode [`CheckpointStore`], freezing the committed list
    /// at the moment the epoch (generation) starts. All ranks of a
    /// generation open the same directory before any of them saves new
    /// phases, so they freeze the same resume frontier.
    pub fn resume(store: Arc<CheckpointStore>, epoch: u64, restarts: u32) -> Self {
        RecoveryCtx::for_epoch(&store, epoch, restarts)
    }

    /// Snapshot of `store` for an epoch about to launch.
    pub(crate) fn for_epoch(store: &Arc<CheckpointStore>, epoch: u64, restarts: u32) -> Self {
        RecoveryCtx {
            store: Arc::clone(store),
            epoch,
            restarts,
            committed: store.committed_phases(),
        }
    }

    /// A first-epoch context over a fresh store — what a recoverable
    /// pipeline sees when invoked outside a supervisor (nothing committed,
    /// nothing to resume).
    pub fn fresh(parties: usize) -> Self {
        RecoveryCtx {
            store: Arc::new(CheckpointStore::new(parties)),
            epoch: 0,
            restarts: 0,
            committed: Vec::new(),
        }
    }

    /// The shared checkpoint store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// This incarnation's epoch (0 on the first launch).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Restarts consumed before this epoch launched.
    pub fn restarts(&self) -> u32 {
        self.restarts
    }

    /// True if `phase` had committed globally when this epoch launched.
    pub fn committed(&self, phase: &'static str) -> bool {
        self.committed.contains(&phase)
    }
}

/// The result of a supervised run.
pub struct SupervisedRun<T> {
    /// The final epoch's per-rank outcomes.
    pub outcomes: Vec<RankOutcome<T>>,
    /// Restarts consumed.
    pub restarts: u32,
    /// Epochs launched (`restarts + 1`).
    pub epochs: u64,
    /// The run's checkpoint store (degraded-mode recovery reads the dead
    /// rank's surviving snapshots out of it).
    pub store: Arc<CheckpointStore>,
}

impl<T> SupervisedRun<T> {
    /// True when every rank of the final epoch completed normally.
    pub fn all_ok(&self) -> bool {
        self.outcomes.iter().all(RankOutcome::is_ok)
    }
}

/// Supervised launcher: [`Cluster::run_with`](crate::Cluster::run_with)
/// plus rank-lifecycle ownership (see module docs).
///
/// # Example
///
/// ```
/// use soifft_cluster::{ClusterConfig, RestartPolicy, Supervisor};
///
/// let sup = Supervisor::new(ClusterConfig::default(), RestartPolicy::default());
/// let run = sup.run(2, |comm, ctx| {
///     assert_eq!(ctx.epoch(), 0); // no faults: first epoch succeeds
///     comm.rank()
/// });
/// assert!(run.all_ok());
/// assert_eq!(run.restarts, 0);
/// ```
pub struct Supervisor {
    config: ClusterConfig,
    policy: RestartPolicy,
    monitor: Arc<HealthMonitor>,
}

impl Supervisor {
    /// A supervisor launching under `config` with restart budget `policy`.
    pub fn new(config: ClusterConfig, policy: RestartPolicy) -> Self {
        Supervisor {
            config,
            policy,
            monitor: Arc::new(HealthMonitor::default()),
        }
    }

    /// The restart policy in force.
    pub fn policy(&self) -> RestartPolicy {
        self.policy
    }

    /// A shared handle onto this supervisor's live health counters,
    /// updated while [`Supervisor::run`] is in progress (see
    /// [`HealthMonitor`]).
    pub fn monitor(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    /// Runs `f` on `ranks` ranks, re-launching the epoch (with a fresh
    /// [`RecoveryCtx`]) every time a rank dies, until the run completes
    /// without deaths or the restart budget is exhausted. Typed rank
    /// *errors* ([`RankOutcome::Err`]) do not consume restarts — only
    /// deaths (crashes, panics, join timeouts) do, since a survivor's
    /// error is the symptom, not the cause.
    pub fn run<T, F>(&self, ranks: usize, f: F) -> SupervisedRun<T>
    where
        T: Send,
        F: Fn(&mut Comm, &RecoveryCtx) -> T + Sync,
    {
        assert!(ranks >= 1, "need at least one rank");
        let store = Arc::new(CheckpointStore::new(ranks));
        let (txs, rxs) = make_channels(&self.config, ranks);
        let Ok((outcomes, restarts)) = respawn_ladder(self.policy, &self.monitor, |restarts| {
            let epoch = u64::from(restarts);
            let ctx = RecoveryCtx::for_epoch(&store, epoch, restarts);
            let g = |comm: &mut Comm| f(comm, &ctx);
            let outcomes = launch_epoch(&self.config, ranks, epoch, txs.clone(), &rxs, &g);
            let died = outcomes
                .iter()
                .any(|o| matches!(o, RankOutcome::Crashed | RankOutcome::Panicked(_)));
            Ok::<_, Infallible>((outcomes, died))
        });
        SupervisedRun {
            outcomes,
            restarts,
            epochs: u64::from(restarts) + 1,
            store,
        }
    }
}

/// The respawn ladder (see module docs). `launch(k)` runs epoch `k`,
/// which follows `k` restarts, and returns its result with the backend's
/// respawn verdict; the ladder returns the last epoch's result and `k`.
/// A launch error ends the climb.
pub(crate) fn respawn_ladder<R, E>(
    policy: RestartPolicy,
    monitor: &HealthMonitor,
    mut launch: impl FnMut(u32) -> Result<(R, bool), E>,
) -> Result<(R, u32), E> {
    let mut restarts = 0u32;
    loop {
        monitor.note_epoch();
        let (result, respawn) = launch(restarts)?;
        if respawn {
            monitor.note_death(restarts < policy.max_restarts);
        }
        if !respawn || restarts >= policy.max_restarts {
            return Ok((result, restarts));
        }
        restarts += 1;
        std::thread::sleep(policy.backoff(restarts));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tags, CrashSite, FaultPlan, RankOutcome};
    use soifft_num::c64;
    use std::time::Instant;

    fn echo_ring(comm: &mut Comm, _ctx: &RecoveryCtx) -> usize {
        let next = (comm.rank() + 1) % comm.size();
        let prev = (comm.rank() + comm.size() - 1) % comm.size();
        let token = vec![c64::real(comm.rank() as f64)];
        let got = comm.send_recv(next, tags::USER, token, prev, tags::USER);
        got[0].re as usize
    }

    #[test]
    fn healthy_run_uses_one_epoch() {
        let sup = Supervisor::new(ClusterConfig::default(), RestartPolicy::default());
        let run = sup.run(3, echo_ring);
        assert!(run.all_ok());
        assert_eq!(run.restarts, 0);
        assert_eq!(run.epochs, 1);
    }

    #[test]
    fn single_crash_respawns_and_completes() {
        let plan = FaultPlan::new(17).crash(1, CrashSite::Barrier);
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::default());
        let run = sup.run(3, |comm, ctx| {
            comm.barrier();
            ctx.epoch()
        });
        assert!(run.all_ok(), "outcomes: restarts={}", run.restarts);
        assert_eq!(run.restarts, 1);
        assert_eq!(run.epochs, 2);
        for o in &run.outcomes {
            assert_eq!(*o, RankOutcome::Ok(1), "work ran in the respawned epoch");
        }
    }

    #[test]
    fn repeated_crash_consumes_budget_then_completes() {
        let plan = FaultPlan::new(17).crash_times(2, CrashSite::Barrier, 2);
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::default());
        let run = sup.run(3, |comm, _ctx| {
            comm.barrier();
            comm.rank()
        });
        assert!(run.all_ok());
        assert_eq!(run.restarts, 2);
        assert_eq!(run.epochs, 3);
    }

    #[test]
    fn exhausted_budget_reports_the_final_dead_epoch() {
        let plan = FaultPlan::new(17).crash_times(0, CrashSite::Barrier, 5);
        let sup = Supervisor::new(
            ClusterConfig::with_faults(plan),
            RestartPolicy {
                max_restarts: 1,
                base_backoff: Duration::from_millis(1),
            },
        );
        let run = sup.run(2, |comm, _ctx| {
            comm.barrier();
            comm.rank()
        });
        assert!(!run.all_ok());
        assert_eq!(run.restarts, 1);
        assert_eq!(run.outcomes[0], RankOutcome::Crashed);
    }

    #[test]
    fn disabled_policy_never_respawns() {
        let plan = FaultPlan::new(17).crash(0, CrashSite::Barrier);
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::disabled());
        let run = sup.run(2, |comm, _ctx| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(run.restarts, 0);
        assert_eq!(run.epochs, 1);
        assert_eq!(run.outcomes[0], RankOutcome::Crashed);
    }

    #[test]
    fn committed_phases_are_frozen_per_epoch() {
        // Every rank checkpoints "stage" in epoch 0 and rank 1 then dies;
        // epoch 1's ctx must see "stage" as committed (it committed before
        // the crash) while epoch 0's ctx saw nothing.
        let plan = FaultPlan::new(3).crash(1, CrashSite::Barrier);
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::default());
        let run = sup.run(2, |comm, ctx| {
            let saw_committed = ctx.committed("stage");
            if !saw_committed {
                let data = vec![c64::real(comm.rank() as f64)];
                ctx.store().save(comm.rank(), "stage", ctx.epoch(), &data);
            }
            comm.barrier(); // rank 1 dies here in epoch 0
            saw_committed
        });
        assert!(run.all_ok());
        assert_eq!(run.restarts, 1);
        for o in run.outcomes {
            assert_eq!(o, RankOutcome::Ok(true), "epoch 1 resumed from the commit");
        }
    }

    #[test]
    fn monitor_tracks_deaths_and_restarts() {
        let plan = FaultPlan::new(17).crash(1, CrashSite::Barrier);
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::default());
        let mon = sup.monitor();
        assert_eq!(mon.epochs_launched(), 0);
        let run = sup.run(3, |comm, _ctx| {
            comm.barrier();
            comm.rank()
        });
        assert!(run.all_ok());
        assert_eq!(mon.epochs_launched(), 2);
        assert_eq!(mon.deaths(), 1);
        assert_eq!(mon.restarts(), 1);
        assert!(!mon.budget_exhausted());
    }

    #[test]
    fn monitor_reports_budget_exhaustion() {
        let plan = FaultPlan::new(17).crash_times(0, CrashSite::Barrier, 5);
        let sup = Supervisor::new(
            ClusterConfig::with_faults(plan),
            RestartPolicy {
                max_restarts: 1,
                base_backoff: Duration::from_millis(1),
            },
        );
        let mon = sup.monitor();
        let run = sup.run(2, |comm, _ctx| {
            comm.barrier();
            comm.rank()
        });
        assert!(!run.all_ok());
        assert_eq!(mon.deaths(), 2, "both epochs died");
        assert_eq!(mon.restarts(), 1, "only the first death had budget");
        assert!(mon.budget_exhausted());
    }

    #[test]
    fn backoff_grows_and_caps() {
        let p = RestartPolicy {
            max_restarts: 8,
            base_backoff: Duration::from_millis(4),
        };
        assert_eq!(p.backoff(1), Duration::from_millis(4));
        assert_eq!(p.backoff(2), Duration::from_millis(8));
        assert_eq!(p.backoff(3), Duration::from_millis(16));
        assert_eq!(p.backoff(40), Duration::from_secs(1), "capped");
    }

    #[test]
    fn ladder_sleeps_backoff_k_before_restart_k() {
        let policy = RestartPolicy {
            max_restarts: 2,
            base_backoff: Duration::from_millis(40),
        };
        let monitor = HealthMonitor::default();
        let mut starts = Vec::new();
        let Ok((last, restarts)) = respawn_ladder(policy, &monitor, |k| {
            starts.push(Instant::now());
            Ok::<_, Infallible>((k, k < 2)) // epochs 0 and 1 fail
        });
        assert_eq!((last, restarts), (2, 2), "the third epoch's result");
        assert!(starts[1] - starts[0] >= policy.backoff(1));
        assert!(
            starts[2] - starts[1] >= policy.backoff(2),
            "restart 2 waits backoff(2) = {:?}, not backoff(1)",
            policy.backoff(2)
        );
        assert_eq!(monitor.epochs_launched(), 3);
        assert_eq!(monitor.deaths(), 2);
        assert_eq!(monitor.restarts(), 2);
        assert!(!monitor.budget_exhausted());
    }

    #[test]
    fn ladder_stops_when_the_budget_is_spent_or_a_launch_fails() {
        let policy = RestartPolicy {
            max_restarts: 1,
            base_backoff: Duration::from_millis(1),
        };
        let monitor = HealthMonitor::default();
        let spent = respawn_ladder(policy, &monitor, |k| Ok::<_, ()>((k, true)));
        assert_eq!(spent, Ok((1, 1)), "the last dead epoch is reported");
        assert!(monitor.budget_exhausted());
        let mut launches = 0;
        let failed = respawn_ladder(policy, &HealthMonitor::default(), |k| {
            launches += 1;
            if k == 0 {
                Ok((k, true))
            } else {
                Err("listener bind failed")
            }
        });
        assert_eq!(failed, Err("listener bind failed"));
        assert_eq!(launches, 2);
    }

    #[test]
    fn stale_messages_from_dead_epoch_are_discarded() {
        // In epoch 0, rank 0 wires one generation-0 message to rank 1 and
        // dies on its second send attempt; rank 1 never picks it up. The
        // respawned epoch must not consume the stranded copy: rank 1 sees
        // the generation-1 payloads and counts exactly one stale discard.
        let plan = FaultPlan::new(5).crash(0, CrashSite::AfterSends(1));
        let sup = Supervisor::new(ClusterConfig::with_faults(plan), RestartPolicy::default());
        let run = sup.run(2, |comm, ctx| {
            if comm.rank() == 0 {
                comm.send(1, tags::USER, vec![c64::real(10.0 + ctx.epoch() as f64)]);
                comm.send(
                    1,
                    tags::USER + 1,
                    vec![c64::real(20.0 + ctx.epoch() as f64)],
                );
                comm.barrier();
                (0.0, 0.0, 0)
            } else {
                comm.barrier();
                let a = comm.recv(0, tags::USER)[0].re;
                let b = comm.recv(0, tags::USER + 1)[0].re;
                (a, b, comm.stats().stale_discarded())
            }
        });
        assert_eq!(run.restarts, 1);
        assert!(run.all_ok());
        let (a, b, stale) = match &run.outcomes[1] {
            RankOutcome::Ok(v) => *v,
            other => panic!("rank 1 should complete, got an error outcome: {other:?}"),
        };
        assert_eq!(a, 11.0, "payload must come from the live epoch");
        assert_eq!(b, 21.0);
        assert_eq!(
            stale, 1,
            "exactly the stranded epoch-0 message is discarded"
        );
    }
}
