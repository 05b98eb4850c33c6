//! The study session: one configuration, and the domain pass every
//! consumer goes through.
//!
//! [`Study::domain`] is the one way to get a domain: it generates the
//! domain's catalog and web, counts it, and hands it out as a
//! [`LiveDomain`] that derefs to [`DomainStudy`]. Nothing is memoised:
//! the domain lives as long as its handle, so a consumer that is done
//! with a domain frees it, and a consumer that asks again regenerates it
//! (generation is seeded per domain, so the bytes are the same).
//! [`run_all`] asks for each domain once and feeds every family from
//! that one pass, so a run holds one domain per busy worker, not all
//! nine; [`run_extensions`] does the same with its one Restaurants.
//!
//! While a handle lives, a worker with nothing left to do can join its
//! extraction (`Study::help_live_extractions`); once it is dropped,
//! nothing regenerates it. [`Study::traffic`] simulates a traffic study
//! the same way, unmemoised.
//!
//! [`run_all`]: crate::runner::run_all
//! [`run_extensions`]: crate::runner::run_extensions

use crate::study::{DomainStudy, StudyConfig};
use std::ops::Deref;
use std::sync::{Arc, Mutex, PoisonError, Weak};
use webstruct_corpus::domain::Domain;
use webstruct_demand::{StudySite, TrafficConfig, TrafficStudy};

/// A study session: the configuration, plus the domains handed out and
/// still alive.
pub struct Study {
    /// The configuration all experiments share.
    pub config: StudyConfig,
    /// The domains [`Study::domain`] handed out that are still alive, for
    /// [`Study::help_live_extractions`]. Every update leaves the list
    /// valid, so a poisoned lock is taken over, not propagated.
    live: Mutex<Vec<Weak<DomainStudy>>>,
}

/// A domain generated by [`Study::domain`]: it is dropped with this
/// handle, or, if a helper is still on its extraction, when that helper
/// lets go.
pub struct LiveDomain<'a> {
    study: &'a Study,
    domain: Arc<DomainStudy>,
}

impl Deref for LiveDomain<'_> {
    type Target = DomainStudy;

    fn deref(&self) -> &DomainStudy {
        &self.domain
    }
}

impl Drop for LiveDomain<'_> {
    fn drop(&mut self) {
        let mut live = self
            .study
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        live.retain(|d| !std::ptr::eq(d.as_ptr(), Arc::as_ptr(&self.domain)));
    }
}

impl Study {
    /// Start a session.
    #[must_use]
    pub fn new(config: StudyConfig) -> Self {
        Study {
            config,
            live: Mutex::new(Vec::new()),
        }
    }

    /// Generate `domain`'s catalog and web, counted as one request and
    /// one build. While the handle lives, an idle worker of the same
    /// study can join its extraction.
    pub fn domain(&self, domain: Domain) -> LiveDomain<'_> {
        let m = webstruct_util::obs::metrics();
        m.add("cache.domain_requests", 1);
        m.add("cache.domain_builds", 1);
        let built = {
            let _span = webstruct_util::span!("generate_domain", domain);
            Arc::new(DomainStudy::generate(domain, &self.config))
        };
        self.live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::downgrade(&built));
        LiveDomain {
            study: self,
            domain: built,
        }
    }

    /// Work on every extraction of a [`Study::domain`] handle that is in
    /// flight, one after the other. Starts none, and regenerates no
    /// dropped domain. A helper adds to no counter: the participant that
    /// finishes a job publishes its metrics, whoever that is. A poisoned
    /// job is the owner's failure to report, so a helper swallows it.
    pub(crate) fn help_live_extractions(&self) {
        let live = self
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for domain in live.iter().filter_map(Weak::upgrade) {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                domain.help_extraction();
            }));
        }
    }

    /// Simulate the traffic study for a site, counted as one request and
    /// one build.
    #[must_use]
    pub fn traffic(&self, site: StudySite) -> TrafficStudy {
        let m = webstruct_util::obs::metrics();
        m.add("cache.traffic_requests", 1);
        m.add("cache.traffic_builds", 1);
        let _span = webstruct_util::span!("simulate_traffic", site);
        let cfg = TrafficConfig::preset(site).scaled(self.config.scale);
        TrafficStudy::simulate(&cfg, self.config.seed)
    }
}

/// Derive the cache hit-rate gauge from the `cache.*` counters and make
/// sure the `cache.invalidations` counter exists in every report, even
/// when it stayed at zero.
///
/// Requests and builds are snapshot-deterministic (pure functions of the
/// work done); *hit rate* is derived from them rather than counted. Only
/// the epoch's extraction cache (`cache.ext_*`) has hits: a domain or a
/// traffic study is built for every request. The gauge is published in
/// basis points (`10_000` = every request was a hit) under
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
}
