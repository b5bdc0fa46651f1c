//! Property tests on the serving layer's pure control-plane state
//! machines ([`Admission`], [`TokenBucket`], [`CircuitBreaker`]).
//!
//! All three take an explicit clock, so the properties drive them through
//! arbitrary *virtual* arrival schedules — thousands of admission
//! decisions per case with zero sleeping — and pin the two ISSUE
//! invariants: queue depth never exceeds the configured bound, and no
//! tenant's accepted count ever outruns its token-bucket envelope
//! `burst + rate · elapsed`.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use soifft::serve::{
    Admission, BreakerConfig, BreakerState, BreakerVerdict, CircuitBreaker, RateLimit, Rejected,
    TokenBucket,
};

/// One submit in a virtual arrival schedule: which tenant, after how much
/// virtual time, and whether the engine dequeues (releases) a job first.
#[derive(Clone, Debug)]
struct Arrival {
    tenant: usize,
    advance_us: u64,
    dequeue_first: bool,
}

fn arrivals(tenants: usize, len: usize) -> impl Strategy<Value = Vec<Arrival>> {
    prop::collection::vec(
        (0..tenants, 0u64..5_000, any::<bool>()).prop_map(|(tenant, advance_us, dequeue_first)| {
            Arrival {
                tenant,
                advance_us,
                dequeue_first,
            }
        }),
        1..len + 1,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Queue depth never exceeds the bound, for any tenant, under any
    /// interleaving of submits and dequeues — and the ledger's depth
    /// exactly tracks accepted − released.
    #[test]
    fn admission_never_exceeds_the_queue_bound(
        schedule in arrivals(3, 200),
        capacity in 1usize..8,
    ) {
        let t0 = Instant::now();
        let mut now = t0;
        let mut adm = Admission::new(3, capacity, None, now);
        let mut shadow = [0usize; 3];
        for a in schedule {
            now += Duration::from_micros(a.advance_us);
            if a.dequeue_first && shadow[a.tenant] > 0 {
                adm.release(a.tenant);
                shadow[a.tenant] -= 1;
            }
            match adm.try_admit(a.tenant, now) {
                Ok(()) => shadow[a.tenant] += 1,
                Err(Rejected::QueueFull { tenant, capacity: c }) => {
                    prop_assert_eq!(tenant, a.tenant);
                    prop_assert_eq!(c, capacity);
                    prop_assert_eq!(shadow[a.tenant], capacity);
                }
                Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
            }
            for (t, &depth) in shadow.iter().enumerate() {
                prop_assert!(adm.queue_depth(t) <= capacity);
                prop_assert_eq!(adm.queue_depth(t), depth);
            }
        }
    }

    /// Accepted submissions per tenant never outrun the token-bucket
    /// envelope `burst + rate · elapsed`, under any arrival schedule, and
    /// every RateLimited rejection carries an honest retry hint (waiting
    /// that long makes the next submit succeed).
    #[test]
    fn rate_limits_hold_under_any_arrival_schedule(
        schedule in arrivals(2, 200),
        rate in 1.0f64..2_000.0,
        burst in 1.0f64..16.0,
    ) {
        let t0 = Instant::now();
        let mut now = t0;
        // Huge queue bound: isolate the rate-limit invariant.
        let limit = RateLimit { rate_per_s: rate, burst };
        let mut adm = Admission::new(2, 10_000, Some(limit), now);
        let mut accepted = [0u64; 2];
        for a in schedule {
            now += Duration::from_micros(a.advance_us);
            match adm.try_admit(a.tenant, now) {
                Ok(()) => accepted[a.tenant] += 1,
                Err(Rejected::RateLimited { retry_after, .. }) => {
                    // The hint is honest: one token accumulates by then
                    // (tolerate one f64 ulp-ish slop via a nanosecond).
                    let later = now + retry_after + Duration::from_nanos(1);
                    prop_assert!(adm.try_admit(a.tenant, later).is_ok());
                    accepted[a.tenant] += 1;
                    now = later;
                }
                Err(other) => prop_assert!(false, "unexpected rejection {other:?}"),
            }
            let elapsed = (now - t0).as_secs_f64();
            for (t, &count) in accepted.iter().enumerate() {
                let envelope = burst + rate * elapsed;
                // Strict bound plus float-accumulation headroom of one job.
                prop_assert!(
                    (count as f64) <= envelope + 1.0,
                    "tenant {} accepted {} > envelope {:.3}",
                    t, count, envelope
                );
            }
        }
    }

    /// A lone bucket obeys its own envelope exactly when drained greedily:
    /// after `d` virtual microseconds it has granted precisely
    /// `min(burst + rate·d, …)` whole tokens.
    #[test]
    fn greedy_bucket_grants_floor_of_the_envelope(
        rate in 1.0f64..500.0,
        burst in 1.0f64..8.0,
        advance_ms in 1u64..10_000,
    ) {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(RateLimit { rate_per_s: rate, burst }, t0);
        // Drain the initial burst.
        let mut granted = 0u64;
        while bucket.try_take(t0).is_ok() {
            granted += 1;
        }
        prop_assert_eq!(granted, burst as u64);
        // Advance once, drain again: exactly the refill, never more.
        let later = t0 + Duration::from_millis(advance_ms);
        let mut refilled = 0u64;
        while bucket.try_take(later).is_ok() {
            refilled += 1;
        }
        let expect = (rate * advance_ms as f64 / 1e3).min(burst);
        prop_assert!(refilled as f64 <= expect + 1.0);
        prop_assert!(refilled as f64 >= expect.floor() - 1.0);
    }

    /// The breaker's verdict is always consistent with its state, and the
    /// state machine never wedges: from any event sequence it can always
    /// be driven back to Closed.
    #[test]
    fn breaker_never_wedges(events in prop::collection::vec(0u8..3, 1..60)) {
        let t0 = Instant::now();
        let cfg = BreakerConfig {
            failure_threshold: 2,
            cooldown: Duration::from_millis(10),
            half_open_probes: 1,
            ..BreakerConfig::default()
        };
        let mut b = CircuitBreaker::new(cfg);
        let mut now = t0;
        for e in events {
            now += Duration::from_millis(3);
            match e {
                0 => b.on_success(now),
                1 => b.on_failure(now),
                _ => {
                    let state = b.state(now);
                    match b.admit(now) {
                        BreakerVerdict::Admit => prop_assert!(state != BreakerState::Open),
                        BreakerVerdict::AdmitDegraded => prop_assert!(false, "RejectNew never degrades"),
                        BreakerVerdict::Reject(hint) => {
                            prop_assert_eq!(state, BreakerState::Open);
                            prop_assert!(hint <= cfg.cooldown);
                        }
                    }
                }
            }
        }
        // Recovery is always reachable: cooldown, then a clean probe.
        now += cfg.cooldown + Duration::from_millis(1);
        prop_assert_eq!(b.admit(now), BreakerVerdict::Admit);
        b.on_success(now);
        prop_assert_eq!(b.state(now), BreakerState::Closed);
    }
}

/// A long-lived engine's per-rank ledger stays bounded: the phase records
/// are dropped batch by batch (nothing reads a finished batch's records),
/// while the counters the report is built from still cover every job.
#[test]
fn rank_ledgers_stay_bounded_over_thousands_of_jobs() {
    use soifft::num::c64;
    use soifft::serve::{ServeConfig, ServeEngine};
    use soifft::soi::{Rational, SoiParams};

    const JOBS: u64 = 2_000;
    /// Phase records one superstep can close (generous; the pipeline
    /// closes five).
    const RECORDS_PER_JOB: usize = 16;

    let params = SoiParams {
        n: 1 << 10,
        procs: 2,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 8,
    };
    let config = ServeConfig::default();
    let max_batch = config.max_batch;
    let engine = ServeEngine::start(params, config).expect("valid params");
    let x: Vec<c64> = (0..params.n)
        .map(|i| c64::new((0.01 * i as f64).sin(), 0.25))
        .collect();
    let mut out = Vec::new();
    for _ in 0..JOBS {
        let ticket = engine.submit(0, &x, None).expect("admitted");
        ticket.wait_into(&mut out).expect("fault-free serve");
    }
    let report = engine.shutdown();
    assert_eq!(report.stats.completed, JOBS);

    // Every job's all-to-all payload crossed the wire from every rank:
    // S·blocks elements to each of P destinations, 16 bytes each.
    let payload = (params.segments_per_proc * params.blocks_per_rank() * params.procs * 16) as u64;
    let mut queue_wait = 0.0;
    for (rank, ledger) in report.rank_stats.iter().enumerate() {
        let ledger = ledger.as_ref().expect("clean shutdown keeps every ledger");
        assert!(
            ledger.records().len() <= max_batch * RECORDS_PER_JOB,
            "rank {rank} kept {} phase records after {JOBS} jobs",
            ledger.records().len()
        );
        assert!(
            ledger.total_bytes_sent() >= JOBS * payload,
            "rank {rank}: byte counter lost jobs ({} < {})",
            ledger.total_bytes_sent(),
            JOBS * payload
        );
        queue_wait += ledger.queue_wait_seconds();
    }
    assert!(queue_wait > 0.0, "queue-wait counter lost the jobs");
}
