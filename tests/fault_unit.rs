//! Direct unit-level tests of the fault layer's building blocks, driven
//! through the public facade: the breaker state machine's full
//! closed → open → half-open cycle, retry backoff/jitter bounds, the
//! simulated clock's monotonicity, and the fetch engine's
//! attempt-accounting invariant.

use webstruct::crawl::fetch::FetchSim;
use webstruct::util::fault::{
    backoff_ticks, BreakerState, CircuitBreaker, FaultConfig, FaultPlan, SimClock,
    BACKOFF_JITTER, BASE_BACKOFF_TICKS, BREAKER_COOLDOWN_TICKS, BREAKER_FAILURE_THRESHOLD,
    MAX_BACKOFF_TICKS,
};
use webstruct::util::rng::Seed;

/// Trip a fresh breaker at tick `now` with threshold-many failures.
fn tripped_at(now: u64) -> CircuitBreaker {
    let mut b = CircuitBreaker::new();
    for i in 1..BREAKER_FAILURE_THRESHOLD {
        assert!(!b.record_failure(now), "failure {i} is below threshold");
    }
    assert!(b.record_failure(now), "threshold-th failure trips it");
    b
}

#[test]
fn breaker_half_open_probe_success_closes_it() {
    assert_eq!((BREAKER_FAILURE_THRESHOLD, BREAKER_COOLDOWN_TICKS), (3, 500));
    let mut b = CircuitBreaker::new();
    assert_eq!(b.state(), BreakerState::Closed);
    for tick in 0..2 {
        assert!(!b.record_failure(tick), "below threshold");
        assert_eq!(b.state(), BreakerState::Closed);
    }
    assert!(b.record_failure(2), "third consecutive failure trips it");
    assert_eq!(b.state(), BreakerState::Open);
    assert!(!b.allow(10), "open rejects before cooldown");
    assert!(b.allow(502), "cooldown elapsed: probe admitted");
    assert_eq!(b.state(), BreakerState::HalfOpen);
    b.record_success();
    assert_eq!(b.state(), BreakerState::Closed);
    // Fully reset: the next failure starts counting from zero again.
    assert!(!b.record_failure(510));
    assert!(!b.record_failure(511));
    assert_eq!(b.state(), BreakerState::Closed);
}

#[test]
fn breaker_half_open_probe_failure_reopens_immediately() {
    let mut b = tripped_at(0);
    assert!(b.allow(500), "boundary tick admits the probe");
    assert_eq!(b.state(), BreakerState::HalfOpen);
    // One failed probe re-opens without needing `BREAKER_FAILURE_THRESHOLD`
    // consecutive failures again, and reports it as a new trip.
    assert!(b.record_failure(501));
    assert_eq!(b.state(), BreakerState::Open);
    // The new cooldown is measured from the re-open, not the first trip.
    assert!(!b.allow(1000));
    assert!(b.allow(1001));
    assert_eq!(b.state(), BreakerState::HalfOpen);
}

#[test]
fn breaker_failures_while_open_do_not_extend_or_recount() {
    let mut b = tripped_at(0);
    // In-flight failures reported while open are absorbed: no new trip.
    assert!(!b.record_failure(5));
    assert!(!b.record_failure(10));
    assert_eq!(b.state(), BreakerState::Open);
    assert!(b.allow(500), "cooldown unchanged by absorbed failures");
}

#[test]
fn retry_backoff_is_within_jitter_bounds_for_every_retry_and_salt() {
    for retry in 0..12u32 {
        let exp = BASE_BACKOFF_TICKS
            .saturating_mul(1u64 << retry.min(32))
            .min(MAX_BACKOFF_TICKS);
        for salt in 0..64u64 {
            let ticks = backoff_ticks(retry, salt);
            assert!(
                ticks >= exp,
                "jitter must only add: retry {retry} salt {salt} gave {ticks} < {exp}"
            );
            let ceiling = exp + (exp as f64 * BACKOFF_JITTER) as u64;
            assert!(
                ticks <= ceiling,
                "jitter above amplitude: retry {retry} salt {salt} gave {ticks} > {ceiling}"
            );
            assert_eq!(
                ticks,
                backoff_ticks(retry, salt),
                "backoff must be deterministic"
            );
        }
    }
}

#[test]
fn retry_jitter_decorrelates_across_salts_but_not_across_calls() {
    // At the cap the integer jitter window (exp .. exp*(1+jitter)) has
    // room to show the spread: 160..200 ticks from retry 4 on.
    let across_salts: std::collections::HashSet<u64> =
        (0..100u64).map(|salt| backoff_ticks(4, salt)).collect();
    assert!(
        across_salts.len() > 10,
        "salts should spread the jitter: got {} distinct values",
        across_salts.len()
    );
    for salt in [0u64, 1, 99, u64::MAX] {
        let first = backoff_ticks(2, salt);
        for _ in 0..5 {
            assert_eq!(backoff_ticks(2, salt), first);
        }
    }
}

#[test]
fn sim_clock_is_monotonic_under_any_advance_sequence() {
    let mut clock = SimClock::new();
    assert_eq!(clock.now(), 0);
    let mut last = 0u64;
    for step in [0u64, 1, 3, 0, 250, 1, 0, u64::MAX / 2] {
        clock.advance(step);
        assert!(
            clock.now() >= last,
            "clock went backwards: {} after {last}",
            clock.now()
        );
        assert_eq!(clock.now(), last.saturating_add(step));
        last = clock.now();
    }
    // Saturates instead of wrapping — a wrap would un-order every
    // breaker cooldown derived from it.
    clock.advance(u64::MAX);
    assert_eq!(clock.now(), u64::MAX);
    clock.advance(1);
    assert_eq!(clock.now(), u64::MAX);
}

#[test]
fn fetch_stats_invariant_holds_throughout_a_flaky_crawl() {
    let plan = FaultPlan::new(FaultConfig::flaky(0.4), Seed(99));
    let n_sites = 24;
    let mut sim = FetchSim::new(&plan, n_sites);
    let mut budget = 600usize;
    for round in 0..40 {
        let site = round % n_sites;
        if !sim.allow(site) {
            continue;
        }
        let (_, spent) = sim.fetch_round(site, budget);
        budget = budget.saturating_sub(spent);
        // The invariant is not just a final-state property: every
        // intermediate snapshot must satisfy it too.
        let mid = sim.stats();
        assert!(mid.is_consistent(), "mid-crawl snapshot violated: {mid:?}");
        if budget == 0 {
            break;
        }
    }
    let stats = sim.into_stats();
    assert!(stats.is_consistent(), "final snapshot violated: {stats:?}");
    assert!(stats.attempts > 0, "the crawl should have issued attempts");
    assert_eq!(
        stats.attempts,
        stats.ok + stats.timeouts + stats.transients + stats.rate_limited + stats.dead_attempts
    );
}

#[test]
fn fetch_stats_consistency_check_rejects_miscounted_stats() {
    let plan = FaultPlan::none();
    let sim = FetchSim::new(&plan, 1);
    let mut stats = sim.into_stats();
    assert!(stats.is_consistent(), "fresh stats are trivially consistent");
    stats.attempts += 1;
    assert!(!stats.is_consistent(), "orphan attempt must be flagged");
    stats.ok += 1;
    assert!(stats.is_consistent(), "classified attempt balances again");
}
