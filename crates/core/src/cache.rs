//! Lazy, shared generation of domain webs and traffic studies so that
//! experiments reusing the same domain (Figures 1, 2, 4, 5, 9, Table 2 all
//! touch Restaurants) generate it exactly once.
//!
//! The cache is thread-safe: experiment families running on different
//! threads can request domains concurrently. Each key holds its own
//! [`OnceLock`], so two threads asking for the *same* domain block on one
//! generation while threads asking for *different* domains generate in
//! parallel. Generation is seeded per key, so which thread wins the race
//! never changes the bytes produced.

use crate::study::{DomainStudy, StudyConfig};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use webstruct_corpus::domain::Domain;
use webstruct_demand::{StudySite, TrafficConfig, TrafficStudy};

/// A study session: configuration plus memoised generated artifacts.
pub struct Study {
    /// The configuration all experiments share.
    pub config: StudyConfig,
    domains: Mutex<HashMap<Domain, Arc<OnceLock<Arc<DomainStudy>>>>>,
    traffic: Mutex<HashMap<StudySite, Arc<OnceLock<Arc<TrafficStudy>>>>>,
}

impl Study {
    /// Start a session.
    #[must_use]
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            domains: Mutex::new(HashMap::new()),
            traffic: Mutex::new(HashMap::new()),
        }
    }

    /// The generated catalog+web for a domain (generated on first use).
    ///
    /// # Panics
    /// Panics if the cache mutex was poisoned by a panicking generator.
    pub fn domain(&self, domain: Domain) -> Arc<DomainStudy> {
        // Requests and builds are both pure functions of the experiment
        // set, so the counters stay snapshot-deterministic; *which* caller
        // builds the cell races, so cache "hits" are deliberately derived
        // (requests − builds) rather than counted.
        webstruct_util::obs::metrics().add("cache.domain_requests", 1);
        let cell = {
            let mut map = self.domains.lock().expect("domain cache poisoned");
            Arc::clone(map.entry(domain).or_default())
        };
        // Generate outside the map lock: distinct domains proceed
        // concurrently, same-domain callers block on this cell only.
        Arc::clone(cell.get_or_init(|| {
            webstruct_util::obs::metrics().add("cache.domain_builds", 1);
            let _span = webstruct_util::span!("generate_domain", domain);
            Arc::new(DomainStudy::generate(domain, &self.config))
        }))
    }

    /// The simulated traffic study for a site (generated on first use).
    ///
    /// # Panics
    /// Panics if the cache mutex was poisoned by a panicking generator.
    pub fn traffic(&self, site: StudySite) -> Arc<TrafficStudy> {
        webstruct_util::obs::metrics().add("cache.traffic_requests", 1);
        let cell = {
            let mut map = self.traffic.lock().expect("traffic cache poisoned");
            Arc::clone(map.entry(site).or_default())
        };
        Arc::clone(cell.get_or_init(|| {
            webstruct_util::obs::metrics().add("cache.traffic_builds", 1);
            let _span = webstruct_util::span!("simulate_traffic", site);
            let cfg = TrafficConfig::preset(site).scaled(self.config.scale);
            Arc::new(TrafficStudy::simulate(&cfg, self.config.seed))
        }))
    }

    /// Number of domain webs generated so far.
    ///
    /// # Panics
    /// Panics if the cache mutex was poisoned by a panicking generator.
    #[must_use]
    pub fn domains_generated(&self) -> usize {
        self.domains
            .lock()
            .expect("domain cache poisoned")
            .values()
            .filter(|cell| cell.get().is_some())
            .count()
    }
}

/// Derive the cache hit-rate gauge from the `cache.*` counters and make
/// sure the `cache.invalidations` counter exists in every report, even
/// when it stayed at zero.
///
/// Requests and builds are snapshot-deterministic (pure functions of the
/// work done); *hit rate* is derived from them rather than counted, so no
/// race over which caller builds a cell can skew it. The gauge is
/// published in basis points (`10_000` = every request was a hit) under
/// `cache.hit_rate_bp` — gauges land in `RUN_REPORT.json`'s
/// non-deterministic section, which is where a rate belongs: it depends
/// on which commands ran, not on the corpus.
pub fn publish_cache_hit_rate() {
    let m = webstruct_util::obs::metrics();
    m.add("cache.invalidations", 0);
    let requests = m.counter("cache.domain_requests").get()
        + m.counter("cache.traffic_requests").get()
        + m.counter("cache.ext_requests").get();
    let builds = m.counter("cache.domain_builds").get()
        + m.counter("cache.traffic_builds").get()
        + m.counter("cache.ext_misses").get();
    #[allow(clippy::cast_precision_loss)]
    m.set_gauge("cache.hit_rate_bp", hit_rate_bp(requests, builds) as f64);
}

/// Hit rate in basis points given total requests and cache builds/misses.
/// A build satisfies the request that triggered it, so it is not a hit;
/// zero requests is reported as a zero rate rather than a division error.
fn hit_rate_bp(requests: u64, builds: u64) -> u64 {
    let hits = requests.saturating_sub(builds);
    (hits * 10_000).checked_div(requests).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_arithmetic() {
        assert_eq!(hit_rate_bp(0, 0), 0);
        assert_eq!(hit_rate_bp(1, 1), 0); // cold: the only request built
        assert_eq!(hit_rate_bp(3, 1), 6666); // 2 hits of 3 requests
        assert_eq!(hit_rate_bp(100, 0), 10_000); // fully warm
        assert_eq!(hit_rate_bp(1, 5), 0); // over-built never underflows
    }

    #[test]
    fn publish_registers_gauge_and_invalidations() {
        // Other tests share the global metrics registry, so assert
        // presence and range, not exact values.
        publish_cache_hit_rate();
        let m = webstruct_util::obs::metrics();
        let snap = m.snapshot();
        assert!(snap.counters.contains_key("cache.invalidations"));
        let bp = m.gauge("cache.hit_rate_bp").get();
        assert!((0.0..=10_000.0).contains(&bp), "bp out of range: {bp}");
    }

    #[test]
    fn domain_is_generated_once() {
        let study = Study::new(StudyConfig::quick());
        let a = study.domain(Domain::Banks);
        let b = study.domain(Domain::Banks);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(study.domains_generated(), 1);
        let _ = study.domain(Domain::Schools);
        assert_eq!(study.domains_generated(), 2);
    }

    #[test]
    fn traffic_is_memoised() {
        let study = Study::new(StudyConfig::quick());
        let a = study.traffic(StudySite::Yelp);
        let b = study.traffic(StudySite::Yelp);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.demand_search.is_empty());
    }

    #[test]
    fn concurrent_requests_share_one_generation() {
        let study = Study::new(StudyConfig::quick());
        let handles: Vec<Arc<DomainStudy>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| s.spawn(|| study.domain(Domain::Libraries)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(study.domains_generated(), 1);
        for pair in handles.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
    }
}
