//! Deterministic fault injection: a seeded model of a flaky web.
//!
//! The paper's §5.3 robustness analysis asks a *static* question (does the
//! entity–site graph stay connected when the top-k sites are removed); a
//! real bootstrapping system faces the *dynamic* version — fetches time
//! out, pages truncate, sites go dead mid-crawl, query endpoints
//! rate-limit. This module provides the fault model the crawl and extract
//! pipelines degrade against:
//!
//! * [`FaultPlan`] — per-site failure profiles drawn from the same seeded
//!   RNG discipline as the corpus. Every decision is a **pure function of
//!   `(seed, site, attempt)`** — no mutable generator state — so fault
//!   streams are byte-reproducible regardless of thread count or the
//!   order in which sites are visited.
//! * [`SimClock`] — a simulated tick clock; backoff waits and timeout
//!   costs advance it deterministically (never the wall clock).
//! * [`backoff_ticks`] — capped exponential backoff with deterministic,
//!   seed-derived jitter.
//! * [`CircuitBreaker`] — a per-site closed → open → half-open breaker
//!   that stops budget from being burned on known-dead sites.
//!
//! The retry and breaker tunings are constants ([`MAX_RETRIES`],
//! [`BREAKER_COOLDOWN_TICKS`] and their neighbours): every experiment
//! runs with the same ones, and only the [`FaultConfig`] varies.
//!
//! [`FaultPlan::none`] is the fault-free plan: it injects nothing, costs
//! nothing, and every consumer is required (and tested) to be
//! bit-identical to its pre-fault behaviour under it.

use crate::rng::Seed;

/// One injected fault, as observed by a fetcher.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Connection reset / 5xx — retryable immediately (after backoff).
    Transient,
    /// The fetch hung until the deadline — retryable, but costs extra
    /// simulated time ([`SimClock`] ticks).
    Timeout,
    /// 429 — the site is throttling this client; retryable after backoff.
    RateLimited,
    /// The site is permanently gone. Indistinguishable from a transient
    /// error to the fetcher (it still retries), but no attempt ever
    /// succeeds.
    Dead,
    /// The fetch "succeeded" but returned only this fraction of the page
    /// (always in `(0, 1)`). A partial result, not an error.
    Truncated(f64),
}

/// How a site behaves for the lifetime of a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteClass {
    /// Normal site: per-attempt transient/timeout/truncation faults only.
    Healthy,
    /// Permanently dead: every attempt fails with [`Fault::Dead`].
    Dead,
    /// Rate-limited: the first [`FaultConfig::rate_limit_attempts`]
    /// attempts fail with [`Fault::RateLimited`], then the site behaves
    /// like a healthy one.
    RateLimited,
}

/// Failure-rate knobs for a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-attempt probability of a transient error or timeout.
    pub failure_rate: f64,
    /// Of those per-attempt failures, the fraction that are timeouts
    /// (the rest are transients).
    pub timeout_share: f64,
    /// Per-successful-attempt probability the page comes back truncated.
    pub truncation_rate: f64,
    /// Per-site probability the site is permanently dead.
    pub dead_site_rate: f64,
    /// Per-site probability the site rate-limits this client.
    pub rate_limited_site_rate: f64,
    /// Attempts a rate-limited site rejects before letting the client in.
    pub rate_limit_attempts: u32,
}

impl FaultConfig {
    /// The fault-free configuration (all rates zero).
    #[must_use]
    pub fn none() -> Self {
        FaultConfig {
            failure_rate: 0.0,
            timeout_share: 0.0,
            truncation_rate: 0.0,
            dead_site_rate: 0.0,
            rate_limited_site_rate: 0.0,
            rate_limit_attempts: 0,
        }
    }

    /// A one-knob preset: `rate` is the headline per-attempt failure
    /// probability, and the structural rates (dead sites, rate limiters,
    /// truncation) scale down from it in fixed proportions chosen to
    /// exercise every fault kind at realistic relative frequencies.
    #[must_use]
    pub fn flaky(rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        FaultConfig {
            failure_rate: rate,
            timeout_share: 0.3,
            truncation_rate: rate * 0.5,
            dead_site_rate: rate * 0.2,
            rate_limited_site_rate: rate * 0.25,
            rate_limit_attempts: 2,
        }
    }

    /// Whether this configuration can ever inject a fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.failure_rate > 0.0
            || self.truncation_rate > 0.0
            || self.dead_site_rate > 0.0
            || self.rate_limited_site_rate > 0.0
    }
}

/// A seeded, immutable fault schedule over a universe of sites.
///
/// All queries are pure functions of the plan's seed and the `(site,
/// attempt)` coordinates, so a plan can be shared freely across threads
/// and produces identical streams however it is interleaved.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    class_seed: Seed,
    attempt_seed: Seed,
    trunc_seed: Seed,
}

/// Map a derived seed to a uniform f64 in `[0, 1)` (top 53 bits).
#[inline]
fn unit(seed: Seed, site: u64, attempt: u64) -> f64 {
    let h = seed.derive_u64(site).derive_u64(attempt).0;
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// Build a plan from a configuration and a seed.
    #[must_use]
    pub fn new(config: FaultConfig, seed: Seed) -> Self {
        FaultPlan {
            config,
            class_seed: seed.derive("fault-class"),
            attempt_seed: seed.derive("fault-attempt"),
            trunc_seed: seed.derive("fault-trunc"),
        }
    }

    /// The fault-free plan: [`FaultPlan::fault`] always returns `None`.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::new(FaultConfig::none(), Seed(0))
    }

    /// Whether this plan can ever inject a fault.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.config.is_active()
    }

    /// The permanent class of `site` under this plan.
    #[must_use]
    pub fn site_class(&self, site: usize) -> SiteClass {
        if !self.is_active() {
            return SiteClass::Healthy;
        }
        let u = unit(self.class_seed, site as u64, 0);
        if u < self.config.dead_site_rate {
            SiteClass::Dead
        } else if u < self.config.dead_site_rate + self.config.rate_limited_site_rate {
            SiteClass::RateLimited
        } else {
            SiteClass::Healthy
        }
    }

    /// The fault injected into attempt number `attempt` (0-based, counted
    /// per site) against `site`, or `None` for a clean full fetch.
    #[must_use]
    pub fn fault(&self, site: usize, attempt: u32) -> Option<Fault> {
        if !self.is_active() {
            return None;
        }
        match self.site_class(site) {
            SiteClass::Dead => return Some(Fault::Dead),
            SiteClass::RateLimited if attempt < self.config.rate_limit_attempts => {
                return Some(Fault::RateLimited)
            }
            SiteClass::RateLimited | SiteClass::Healthy => {}
        }
        let u = unit(self.attempt_seed, site as u64, u64::from(attempt));
        if u < self.config.failure_rate {
            // Reuse the residual uniform to split timeout vs. transient.
            if u / self.config.failure_rate < self.config.timeout_share {
                return Some(Fault::Timeout);
            }
            return Some(Fault::Transient);
        }
        let v = unit(self.trunc_seed, site as u64, u64::from(attempt));
        if v < self.config.truncation_rate {
            // Residual uniform → kept fraction in [0.1, 0.9].
            let frac = 0.1 + 0.8 * (v / self.config.truncation_rate);
            return Some(Fault::Truncated(frac));
        }
        None
    }
}

/// A simulated clock counting abstract ticks. Backoff waits, fetch costs
/// and breaker cooldowns all live on this clock, never the wall clock, so
/// "time" is part of the reproducible experiment state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// A clock at tick zero.
    #[must_use]
    pub fn new() -> Self {
        SimClock::default()
    }

    /// Current tick.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance by `ticks` (saturating).
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }
}

/// Retries after the first attempt, so a fetch round is at most
/// `1 + MAX_RETRIES` attempts.
pub const MAX_RETRIES: u32 = 3;
/// Backoff before the first retry, in [`SimClock`] ticks.
pub const BASE_BACKOFF_TICKS: u64 = 10;
/// Ceiling on the exponential backoff (pre-jitter).
pub const MAX_BACKOFF_TICKS: u64 = 160;
/// Jitter amplitude as a fraction of the backoff. The jitter itself is
/// derived from `(salt, retry)`: deterministic, but decorrelated across
/// sites so retries don't synchronise.
pub const BACKOFF_JITTER: f64 = 0.25;
/// Consecutive failed rounds that trip a [`CircuitBreaker`].
pub const BREAKER_FAILURE_THRESHOLD: u32 = 3;
/// Ticks an open breaker waits before allowing a half-open probe.
pub const BREAKER_COOLDOWN_TICKS: u64 = 500;

/// Ticks to wait before retry number `retry` (0-based): capped
/// exponential backoff plus jitter, salted by the caller (typically the
/// site id) so different sites' retries decorrelate.
#[must_use]
pub fn backoff_ticks(retry: u32, salt: u64) -> u64 {
    let exp = BASE_BACKOFF_TICKS
        .saturating_mul(1u64 << retry.min(32))
        .min(MAX_BACKOFF_TICKS);
    let j = unit(Seed(0x6A77_7E52).derive_u64(salt), u64::from(retry), 1) * BACKOFF_JITTER;
    exp + (exp as f64 * j) as u64
}

/// Breaker state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; failures are being counted.
    #[default]
    Closed,
    /// Tripped: traffic is rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe is allowed through.
    HalfOpen,
}

/// A per-site circuit breaker over the simulated clock: it opens after
/// [`BREAKER_FAILURE_THRESHOLD`] consecutive failed rounds and half-opens
/// [`BREAKER_COOLDOWN_TICKS`] later.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    open_until: u64,
}

impl CircuitBreaker {
    /// A closed breaker.
    #[must_use]
    pub fn new() -> Self {
        CircuitBreaker::default()
    }

    /// Current state (as of the last transition).
    #[must_use]
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may proceed at tick `now`. Transitions
    /// `Open → HalfOpen` once the cooldown has elapsed.
    pub fn allow(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.open_until {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful round: closes the breaker and resets the count.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Record a failed round at tick `now`. Returns `true` when this
    /// failure tripped the breaker open.
    pub fn record_failure(&mut self, now: u64) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                self.trip(now);
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_FAILURE_THRESHOLD {
                    self.trip(now);
                    true
                } else {
                    false
                }
            }
            // Failures reported while open (e.g. from an in-flight fetch)
            // keep it open without re-counting.
            BreakerState::Open => false,
        }
    }

    fn trip(&mut self, now: u64) {
        self.state = BreakerState::Open;
        self.open_until = now.saturating_add(BREAKER_COOLDOWN_TICKS);
        self.consecutive_failures = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_inactive_and_clean() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for site in 0..100 {
            assert_eq!(plan.site_class(site), SiteClass::Healthy);
            for attempt in 0..10 {
                assert_eq!(plan.fault(site, attempt), None);
            }
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_coordinates() {
        let a = FaultPlan::new(FaultConfig::flaky(0.3), Seed(7));
        let b = FaultPlan::new(FaultConfig::flaky(0.3), Seed(7));
        // Query in different orders: identical answers.
        let mut forward = Vec::new();
        for site in 0..50 {
            for attempt in 0..4 {
                forward.push(a.fault(site, attempt));
            }
        }
        let mut backward = Vec::new();
        for site in (0..50).rev() {
            for attempt in (0..4).rev() {
                backward.push(b.fault(site, attempt));
            }
        }
        backward.reverse();
        let reordered: Vec<_> = (0..50)
            .flat_map(|site| (0..4).map(move |attempt| (site, attempt)))
            .map(|(s, at)| {
                // Interleave with unrelated queries: must not matter.
                let _ = b.site_class((s + 13) % 50);
                b.fault(s, at)
            })
            .collect();
        assert_eq!(forward, reordered);
        // Reversed iteration reversed back gives a site-major, attempt-major
        // order mismatch; compare via the coordinates instead.
        for (i, (site, attempt)) in (0..50)
            .flat_map(|s| (0..4).map(move |a| (s, a)))
            .enumerate()
        {
            let j = (49 - site) * 4 + (3 - attempt);
            assert_eq!(forward[i], backward[backward.len() - 1 - j]);
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = FaultPlan::new(FaultConfig::flaky(0.5), Seed(1));
        let b = FaultPlan::new(FaultConfig::flaky(0.5), Seed(2));
        let stream = |p: &FaultPlan| -> Vec<Option<Fault>> {
            (0..200).map(|s| p.fault(s, 0)).collect()
        };
        assert_ne!(stream(&a), stream(&b));
    }

    #[test]
    fn fault_rates_are_calibrated() {
        let plan = FaultPlan::new(
            FaultConfig {
                failure_rate: 0.4,
                timeout_share: 0.5,
                truncation_rate: 0.2,
                dead_site_rate: 0.0,
                rate_limited_site_rate: 0.0,
                rate_limit_attempts: 0,
            },
            Seed(11),
        );
        let n = 20_000u32;
        let mut failures = 0;
        let mut timeouts = 0;
        let mut truncated = 0;
        for attempt in 0..n {
            match plan.fault(0, attempt) {
                Some(Fault::Timeout) => {
                    failures += 1;
                    timeouts += 1;
                }
                Some(Fault::Transient) => failures += 1,
                Some(Fault::Truncated(f)) => {
                    assert!((0.1..0.9).contains(&f), "fraction {f}");
                    truncated += 1;
                }
                Some(_) => unreachable!("no dead/rate-limited sites configured"),
                None => {}
            }
        }
        let fail_rate = f64::from(failures) / f64::from(n);
        assert!((fail_rate - 0.4).abs() < 0.02, "failure rate {fail_rate}");
        let timeout_share = f64::from(timeouts) / f64::from(failures);
        assert!((timeout_share - 0.5).abs() < 0.05, "timeout share {timeout_share}");
        // Truncation applies to the non-failing 60%.
        let trunc_rate = f64::from(truncated) / (f64::from(n) * 0.6);
        assert!((trunc_rate - 0.2).abs() < 0.02, "truncation rate {trunc_rate}");
    }

    #[test]
    fn dead_sites_fail_every_attempt() {
        let plan = FaultPlan::new(
            FaultConfig {
                dead_site_rate: 1.0,
                ..FaultConfig::none()
            },
            Seed(3),
        );
        // dead_site_rate alone leaves is_active true.
        assert!(plan.is_active());
        for site in 0..20 {
            assert_eq!(plan.site_class(site), SiteClass::Dead);
            for attempt in 0..5 {
                assert_eq!(plan.fault(site, attempt), Some(Fault::Dead));
            }
        }
    }

    #[test]
    fn rate_limited_sites_recover_after_the_configured_attempts() {
        let plan = FaultPlan::new(
            FaultConfig {
                rate_limited_site_rate: 1.0,
                rate_limit_attempts: 2,
                ..FaultConfig::none()
            },
            Seed(4),
        );
        assert_eq!(plan.site_class(9), SiteClass::RateLimited);
        assert_eq!(plan.fault(9, 0), Some(Fault::RateLimited));
        assert_eq!(plan.fault(9, 1), Some(Fault::RateLimited));
        assert_eq!(plan.fault(9, 2), None, "limit lifts after 2 attempts");
    }

    #[test]
    fn dead_site_rate_is_calibrated() {
        let plan = FaultPlan::new(FaultConfig::flaky(0.5), Seed(5));
        let dead = (0..10_000)
            .filter(|&s| plan.site_class(s) == SiteClass::Dead)
            .count();
        // flaky(0.5) → dead_site_rate 0.1.
        let rate = dead as f64 / 10_000.0;
        assert!((rate - 0.1).abs() < 0.01, "dead-site rate {rate}");
    }

    #[test]
    fn sim_clock_advances_and_saturates() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now(), 0);
        clock.advance(10);
        clock.advance(5);
        assert_eq!(clock.now(), 15);
        clock.advance(u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    /// The pre-jitter backoff before retry `retry`: `BASE << retry`,
    /// capped. Jitter only adds, by at most `BACKOFF_JITTER` of it.
    fn exp_backoff(retry: u32) -> u64 {
        BASE_BACKOFF_TICKS
            .saturating_mul(1u64 << retry.min(32))
            .min(MAX_BACKOFF_TICKS)
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        assert_eq!(
            (BASE_BACKOFF_TICKS, MAX_BACKOFF_TICKS, BACKOFF_JITTER),
            (10, 160, 0.25)
        );
        // The jitter windows [exp, exp * 1.25] of consecutive retries do
        // not overlap, so each reading pins its exponential step.
        for (retry, exp) in [(0, 10), (1, 20), (2, 40), (3, 80), (4, 160), (9, 160)] {
            let ticks = backoff_ticks(retry, 1);
            assert!(
                (exp..=exp + exp / 4).contains(&ticks),
                "retry {retry}: {ticks} outside [{exp}, {}]",
                exp + exp / 4
            );
        }
        // Huge retry numbers must not overflow the shift.
        assert!((160..=200).contains(&backoff_ticks(u32::MAX, 1)), "capped");
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        for retry in 0..5 {
            for salt in 0..20 {
                let a = backoff_ticks(retry, salt);
                let b = backoff_ticks(retry, salt);
                assert_eq!(a, b, "jitter must be deterministic");
                let exp = exp_backoff(retry);
                assert!(a >= exp && a <= exp + (exp as f64 * BACKOFF_JITTER) as u64 + 1);
            }
        }
        // Different salts de-synchronise.
        let distinct: std::collections::HashSet<u64> =
            (0..50).map(|salt| backoff_ticks(2, salt)).collect();
        assert!(distinct.len() > 1, "jitter should vary across salts");
    }

    #[test]
    fn breaker_opens_after_threshold_and_half_opens_after_cooldown() {
        assert_eq!((BREAKER_FAILURE_THRESHOLD, BREAKER_COOLDOWN_TICKS), (3, 500));
        let mut b = CircuitBreaker::new();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(0));
        assert!(!b.record_failure(10));
        assert!(!b.record_failure(15));
        assert!(b.allow(16));
        assert!(b.record_failure(20), "third failure trips it");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(519), "still cooling down");
        assert!(b.allow(520), "cooldown elapsed: half-open probe allowed");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe re-opens immediately, reported as a new trip.
        assert!(b.record_failure(521));
        assert_eq!(b.state(), BreakerState::Open);
        // Successful probe closes it fully.
        assert!(b.allow(1021));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(1022));
    }

    #[test]
    fn breaker_success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new();
        assert!(!b.record_failure(1));
        assert!(!b.record_failure(2));
        b.record_success();
        assert!(!b.record_failure(3), "count restarted after success");
        assert!(!b.record_failure(4));
        assert!(b.record_failure(5));
    }

    #[test]
    fn flaky_preset_scales_from_one_knob() {
        let cfg = FaultConfig::flaky(0.2);
        assert!((cfg.failure_rate - 0.2).abs() < 1e-12);
        assert!((cfg.dead_site_rate - 0.04).abs() < 1e-12);
        assert!(cfg.is_active());
        assert!(!FaultConfig::flaky(0.0).is_active());
        // Out-of-range headline rates clamp.
        assert!((FaultConfig::flaky(7.0).failure_rate - 1.0).abs() < 1e-12);
    }
}
