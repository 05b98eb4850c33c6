//! Typed fetch outcomes and the fault-aware fetch simulator.
//!
//! The crawler's fetch step used to be an infallible array lookup; this
//! module is the layer that makes it behave like the web. A [`FetchSim`]
//! consults a [`FaultPlan`] for every attempt, charges retries and
//! timeouts to the simulated clock, waits out [`backoff_ticks`] between
//! retries (at most [`MAX_RETRIES`] per round), and runs a per-site
//! [`CircuitBreaker`] so the crawler stops burning budget on sites that
//! never answer. It counts into one plain [`FetchStats`], whose
//! attempt-accounting invariant is checked on every read. Everything it
//! does is a deterministic function of the plan seed and per-site attempt
//! ordinals, so faulty crawls are as reproducible as clean ones.

use webstruct_util::fault::{
    backoff_ticks, BreakerState, CircuitBreaker, Fault, FaultPlan, SimClock, MAX_RETRIES,
};
use webstruct_util::obs;

/// Simulated cost of one fetch attempt, in [`SimClock`] ticks.
pub const FETCH_COST_TICKS: u64 = 10;
/// Extra ticks a timed-out attempt wastes before the deadline fires.
pub const TIMEOUT_COST_TICKS: u64 = 60;

/// Why a fetch attempt (or a whole round of attempts) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchError {
    /// Connection reset / 5xx.
    Transient,
    /// Deadline exceeded.
    Timeout,
    /// 429 — throttled by the site.
    RateLimited,
    /// The site never answers (permanently dead). The fetcher only
    /// learns this by repeated failure; the error is what the breaker
    /// eventually acts on.
    Dead,
    /// The retry budget (or the crawl's fetch budget) ran out before any
    /// attempt succeeded; wraps the last error observed.
    Exhausted(&'static str),
}

impl std::fmt::Display for FetchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FetchError::Exhausted(last) => write!(f, "retries exhausted (last: {last})"),
            other => f.write_str(other.label()),
        }
    }
}

impl FetchError {
    fn from_fault(fault: Fault) -> Self {
        match fault {
            Fault::Transient => FetchError::Transient,
            Fault::Timeout => FetchError::Timeout,
            Fault::RateLimited => FetchError::RateLimited,
            Fault::Dead => FetchError::Dead,
            Fault::Truncated(_) => {
                unreachable!("truncation is a partial success, not an error")
            }
        }
    }

    fn label(self) -> &'static str {
        match self {
            FetchError::Transient => "transient error",
            FetchError::Timeout => "timeout",
            FetchError::RateLimited => "rate limited",
            FetchError::Dead => "site dead",
            FetchError::Exhausted(_) => "exhausted",
        }
    }
}

/// Result of one fetch *round*: an initial attempt plus its retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FetchOutcome {
    /// The page came back. `truncated` carries the kept fraction when the
    /// response was cut short (`None` for a full page).
    Success {
        /// Fraction of the page delivered, if truncated.
        truncated: Option<f64>,
    },
    /// Every attempt in the round failed.
    Failed(FetchError),
}

/// Counters accumulated by a [`FetchSim`] over a crawl.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Fetch attempts issued (each one charges the fetch budget).
    pub attempts: usize,
    /// Rounds that ended in a (possibly truncated) success.
    pub ok: usize,
    /// Retries issued (attempts beyond the first of each round).
    pub retries: usize,
    /// Rounds that ended in failure.
    pub failed_rounds: usize,
    /// Successful rounds that returned a truncated page.
    pub truncated: usize,
    /// Attempts that failed with a timeout.
    pub timeouts: usize,
    /// Attempts that failed with a transient error.
    pub transients: usize,
    /// Attempts rejected by a rate limiter.
    pub rate_limited: usize,
    /// Attempts against permanently dead sites.
    pub dead_attempts: usize,
    /// Times a per-site circuit breaker tripped open.
    pub breaker_opens: usize,
    /// Sites dropped (pop-time or post-failure) because their breaker
    /// was open.
    pub breaker_skips: usize,
    /// Final reading of the simulated clock, in ticks.
    pub sim_ticks: u64,
}

impl FetchStats {
    /// The attempt-accounting invariant: every issued attempt is either
    /// the success that ended its round or a classified failure, so
    /// `attempts == ok + timeouts + transients + rate_limited +
    /// dead_attempts`. [`FetchSim::stats`] asserts it on every read, in
    /// release builds too.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.attempts
            == self.ok + self.timeouts + self.transients + self.rate_limited + self.dead_attempts
    }

    /// Every counter under its `fetch.*` metric name.
    fn named(&self) -> [(&'static str, u64); 12] {
        [
            ("fetch.attempts", self.attempts as u64),
            ("fetch.ok", self.ok as u64),
            ("fetch.retries", self.retries as u64),
            ("fetch.failed_rounds", self.failed_rounds as u64),
            ("fetch.truncated", self.truncated as u64),
            ("fetch.timeouts", self.timeouts as u64),
            ("fetch.transients", self.transients as u64),
            ("fetch.rate_limited", self.rate_limited as u64),
            ("fetch.dead_attempts", self.dead_attempts as u64),
            ("fetch.breaker_opens", self.breaker_opens as u64),
            ("fetch.breaker_skips", self.breaker_skips as u64),
            ("fetch.sim_ticks", self.sim_ticks),
        ]
    }
}

/// The fault-aware fetch engine: one per crawl, shared by all its rounds.
pub struct FetchSim<'p> {
    plan: &'p FaultPlan,
    clock: SimClock,
    breakers: Vec<CircuitBreaker>,
    /// Per-site attempt ordinals — the `attempt` coordinate fed to the
    /// plan, so fault streams don't depend on global interleaving.
    attempts_by_site: Vec<u32>,
    /// The counters; `sim_ticks` is read off `clock` by [`FetchSim::stats`].
    stats: FetchStats,
}

impl<'p> FetchSim<'p> {
    /// A fresh simulator over `n_sites` sites.
    #[must_use]
    pub fn new(plan: &'p FaultPlan, n_sites: usize) -> Self {
        FetchSim {
            plan,
            clock: SimClock::new(),
            breakers: vec![CircuitBreaker::new(); n_sites],
            attempts_by_site: vec![0; n_sites],
            stats: FetchStats::default(),
        }
    }

    /// The counters so far, clock included.
    ///
    /// # Panics
    /// Panics when the counters break [`FetchStats::is_consistent`]: that
    /// is a bug in this simulator, never a fault the plan injected.
    #[must_use]
    pub fn stats(&self) -> FetchStats {
        let stats = FetchStats {
            sim_ticks: self.clock.now(),
            ..self.stats
        };
        assert!(
            stats.is_consistent(),
            "fetch counter invariant violated: {stats:?}"
        );
        stats
    }

    /// Whether the crawler may fetch `site` now. A denial (breaker open,
    /// cooldown not elapsed) is free — it charges no budget — and is
    /// counted in [`FetchStats::breaker_skips`].
    pub fn allow(&mut self, site: usize) -> bool {
        if self.breakers[site].allow(self.clock.now()) {
            true
        } else {
            self.stats.breaker_skips += 1;
            false
        }
    }

    /// Whether `site` is worth re-offering to the frontier after a failed
    /// round. `false` once its breaker has tripped open — that is the
    /// breaker doing its job: the site is treated as dead for the rest of
    /// the crawl. Counted in [`FetchStats::breaker_skips`].
    pub fn retry_later(&mut self, site: usize) -> bool {
        if self.breakers[site].state() == BreakerState::Open {
            self.stats.breaker_skips += 1;
            false
        } else {
            true
        }
    }

    /// Run one fetch round against `site`: an attempt plus up to
    /// [`MAX_RETRIES`] retries, never exceeding `budget_left` attempts.
    /// Returns the outcome and the attempts consumed (≥ 1 when
    /// `budget_left > 0`).
    pub fn fetch_round(&mut self, site: usize, budget_left: usize) -> (FetchOutcome, usize) {
        let mut used = 0usize;
        let mut last_error = FetchError::Transient;
        loop {
            if used >= budget_left {
                // Budget died mid-round: the round fails as exhausted.
                let outcome = FetchOutcome::Failed(FetchError::Exhausted(last_error.label()));
                self.round_failed(site);
                return (outcome, used);
            }
            let attempt = self.attempts_by_site[site];
            self.attempts_by_site[site] += 1;
            self.stats.attempts += 1;
            used += 1;
            self.clock.advance(FETCH_COST_TICKS);
            match self.plan.fault(site, attempt) {
                None => {
                    self.round_ok(site);
                    return (FetchOutcome::Success { truncated: None }, used);
                }
                Some(Fault::Truncated(frac)) => {
                    self.stats.truncated += 1;
                    self.round_ok(site);
                    return (
                        FetchOutcome::Success {
                            truncated: Some(frac),
                        },
                        used,
                    );
                }
                Some(fault) => {
                    match fault {
                        Fault::Timeout => {
                            self.stats.timeouts += 1;
                            self.clock.advance(TIMEOUT_COST_TICKS);
                        }
                        Fault::Transient => self.stats.transients += 1,
                        Fault::RateLimited => self.stats.rate_limited += 1,
                        Fault::Dead => self.stats.dead_attempts += 1,
                        Fault::Truncated(_) => unreachable!("handled above"),
                    }
                    last_error = FetchError::from_fault(fault);
                    let retry = (used - 1) as u32;
                    if retry >= MAX_RETRIES {
                        self.round_failed(site);
                        return (FetchOutcome::Failed(last_error), used);
                    }
                    self.stats.retries += 1;
                    self.clock.advance(backoff_ticks(retry, site as u64));
                }
            }
        }
    }

    fn round_ok(&mut self, site: usize) {
        self.stats.ok += 1;
        self.breakers[site].record_success();
    }

    fn round_failed(&mut self, site: usize) {
        self.stats.failed_rounds += 1;
        if self.breakers[site].record_failure(self.clock.now()) {
            self.stats.breaker_opens += 1;
        }
    }

    /// Finalise: read the counters (clock included), publish the crawl's
    /// totals to the global `fetch.*` metrics, and return them.
    /// Publication happens once per crawl with value-deterministic
    /// totals, so the global registry snapshot stays byte-identical
    /// across thread counts.
    #[must_use]
    pub fn into_stats(self) -> FetchStats {
        let stats = self.stats();
        let m = obs::metrics();
        for (name, value) in stats.named() {
            m.add(name, value);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::fault::{FaultConfig, BREAKER_FAILURE_THRESHOLD};
    use webstruct_util::rng::Seed;

    #[test]
    fn clean_plan_fetches_in_one_attempt() {
        let plan = FaultPlan::none();
        let mut sim = FetchSim::new(&plan, 5);
        for site in 0..5 {
            assert!(sim.allow(site));
            let (outcome, used) = sim.fetch_round(site, usize::MAX);
            assert_eq!(outcome, FetchOutcome::Success { truncated: None });
            assert_eq!(used, 1);
        }
        let stats = sim.into_stats();
        assert_eq!(stats.attempts, 5);
        assert_eq!(stats.ok, 5);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.failed_rounds, 0);
        assert_eq!(stats.sim_ticks, 5 * FETCH_COST_TICKS);
    }

    #[test]
    fn dead_site_exhausts_retries_then_trips_the_breaker() {
        let plan = FaultPlan::new(
            FaultConfig {
                dead_site_rate: 1.0,
                ..FaultConfig::none()
            },
            Seed(1),
        );
        assert_eq!((MAX_RETRIES, BREAKER_FAILURE_THRESHOLD), (3, 3));
        let mut sim = FetchSim::new(&plan, 1);
        for round in 1..=2 {
            let (outcome, used) = sim.fetch_round(0, usize::MAX);
            assert_eq!(outcome, FetchOutcome::Failed(FetchError::Dead));
            assert_eq!(used, 4, "1 attempt + 3 retries");
            assert!(sim.retry_later(0), "{round} failed round(s): breaker still closed");
        }
        let (outcome, _) = sim.fetch_round(0, usize::MAX);
        assert_eq!(outcome, FetchOutcome::Failed(FetchError::Dead));
        assert!(!sim.retry_later(0), "third round tripped the breaker");
        assert!(!sim.allow(0), "open breaker rejects the site");
        let stats = sim.into_stats();
        assert_eq!(stats.failed_rounds, 3);
        assert_eq!(stats.breaker_opens, 1);
        assert_eq!(stats.dead_attempts, 12);
        assert_eq!(stats.breaker_skips, 2, "retry_later denial + allow denial");
    }

    #[test]
    fn budget_exhaustion_mid_retry_fails_the_round() {
        let plan = FaultPlan::new(
            FaultConfig {
                failure_rate: 1.0,
                ..FaultConfig::none()
            },
            Seed(2),
        );
        let mut sim = FetchSim::new(&plan, 1);
        // Budget allows 2 attempts; the policy would allow 4.
        let (outcome, used) = sim.fetch_round(0, 2);
        assert_eq!(used, 2);
        match outcome {
            FetchOutcome::Failed(FetchError::Exhausted(_)) => {}
            other => panic!("expected exhausted, got {other:?}"),
        }
        let stats = sim.into_stats();
        assert_eq!(stats.attempts, 2);
        assert_eq!(stats.retries, 2, "both attempts were followed by a retry wait");
        assert_eq!(stats.failed_rounds, 1);
    }

    #[test]
    fn zero_budget_round_consumes_nothing() {
        let plan = FaultPlan::none();
        let mut sim = FetchSim::new(&plan, 1);
        let (outcome, used) = sim.fetch_round(0, 0);
        assert_eq!(used, 0);
        assert!(matches!(
            outcome,
            FetchOutcome::Failed(FetchError::Exhausted(_))
        ));
    }

    #[test]
    fn truncated_success_counts_and_reports_fraction() {
        let plan = FaultPlan::new(
            FaultConfig {
                truncation_rate: 1.0,
                ..FaultConfig::none()
            },
            Seed(3),
        );
        let mut sim = FetchSim::new(&plan, 1);
        let (outcome, used) = sim.fetch_round(0, usize::MAX);
        assert_eq!(used, 1);
        match outcome {
            FetchOutcome::Success {
                truncated: Some(f),
            } => assert!((0.1..0.9).contains(&f)),
            other => panic!("expected truncated success, got {other:?}"),
        }
        let stats = sim.into_stats();
        assert_eq!(stats.ok, 1);
        assert_eq!(stats.truncated, 1);
    }

    #[test]
    fn timeouts_cost_extra_simulated_time() {
        let plan = FaultPlan::new(
            FaultConfig {
                failure_rate: 1.0,
                timeout_share: 1.0,
                ..FaultConfig::none()
            },
            Seed(4),
        );
        let mut sim = FetchSim::new(&plan, 1);
        let (outcome, used) = sim.fetch_round(0, usize::MAX);
        assert_eq!(outcome, FetchOutcome::Failed(FetchError::Timeout));
        assert_eq!(used, 4);
        let stats = sim.into_stats();
        assert_eq!(stats.timeouts, 4);
        // Each attempt costs the fetch plus the timeout; each retry also
        // waits out its backoff (salted by the site id, 0).
        let backoff: u64 = (0..MAX_RETRIES).map(|r| backoff_ticks(r, 0)).sum();
        assert_eq!(
            stats.sim_ticks,
            4 * (FETCH_COST_TICKS + TIMEOUT_COST_TICKS) + backoff
        );
    }

    #[test]
    fn stats_snapshots_satisfy_the_attempt_invariant() {
        let plan = FaultPlan::new(FaultConfig::flaky(0.3), Seed(7));
        let mut sim = FetchSim::new(&plan, 16);
        for round in 0..64 {
            let site = round % 16;
            if sim.allow(site) {
                let _ = sim.fetch_round(site, 4);
            }
            let mid = sim.stats();
            assert!(mid.is_consistent(), "mid-crawl snapshot: {mid:?}");
        }
        let stats = sim.into_stats();
        assert!(stats.is_consistent(), "final snapshot: {stats:?}");
        assert!(stats.attempts > 0);
    }

    #[test]
    fn inconsistent_stats_are_detected() {
        let bad = FetchStats {
            attempts: 5,
            ok: 1,
            timeouts: 1,
            ..FetchStats::default()
        };
        assert!(!bad.is_consistent());
    }

    #[test]
    fn fetch_error_display_is_stable() {
        assert_eq!(FetchError::Transient.to_string(), "transient error");
        assert_eq!(FetchError::Dead.to_string(), "site dead");
        assert_eq!(
            FetchError::Exhausted("timeout").to_string(),
            "retries exhausted (last: timeout)"
        );
    }
}
