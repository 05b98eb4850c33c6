//! The budgeted bootstrapping crawler.
//!
//! §5's idealised expander assumes unlimited fetches; a real discovery
//! system pays for every search query and every site crawl. This crawler
//! makes those costs explicit: starting from seed entities it alternates
//! *query* steps (look up an un-queried known entity in the
//! [`SearchIndex`], counting each query) and *fetch* steps (crawl a
//! frontier site through a [`FetchSim`] over a [`FaultPlan`], harvesting
//! its entities), under a frontier policy and a fetch budget.
//! [`Crawler::run`] is the one way to run it; [`crawl`] is that run on
//! the fault-free plan. The output is a discovery trace — entities known
//! as a function of budget spent — which is what the frontier policies
//! and failure rates are compared on.

use crate::fetch::{FetchOutcome, FetchSim, FetchStats};
use crate::frontier::FrontierPolicy;
use crate::index::SearchIndex;
use webstruct_util::fault::FaultPlan;
use webstruct_util::ids::EntityId;

/// Crawl outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CrawlResult {
    /// Entities known at the end (including seeds that resolved).
    pub entities_found: usize,
    /// Fetch attempts charged against the budget (on a fault-free web,
    /// exactly the number of sites fetched; under faults, retries charge
    /// it too).
    pub sites_fetched: usize,
    /// Search queries issued.
    pub queries_issued: u64,
    /// Whether the crawl drained every reachable site (vs. hit the budget).
    pub exhausted: bool,
    /// Seed ids outside the entity universe, dropped at construction.
    pub seeds_dropped: usize,
    /// Fetch-layer counters: attempts, retries, failures, truncations,
    /// breaker activity, simulated time.
    pub fetch: FetchStats,
    /// Discovery trace: `(budget_spent, entities_known)` after each fetch
    /// round.
    pub trace: Vec<(usize, usize)>,
}

impl CrawlResult {
    /// Entities known after at most `fetches` fetches (0 → seeds only).
    #[must_use]
    pub fn entities_at(&self, fetches: usize) -> usize {
        match self.trace.binary_search_by_key(&fetches, |&(f, _)| f) {
            Ok(i) => self.trace[i].1,
            Err(0) => 0,
            Err(i) => self.trace[i - 1].1,
        }
    }
}

/// The crawler: owns discovery state, borrows the index and the site
/// contents.
pub struct Crawler<'a, P: FrontierPolicy> {
    index: &'a SearchIndex,
    /// Per-site entity lists (what fetching a site yields).
    site_entities: &'a [Vec<EntityId>],
    policy: P,
    entity_known: Vec<bool>,
    site_seen: Vec<bool>,
    /// Known entities not yet queried against the index.
    query_queue: Vec<EntityId>,
    /// Seed ids outside `[0, n_entities)`, counted rather than silently
    /// ignored.
    seeds_dropped: usize,
}

impl<'a, P: FrontierPolicy> Crawler<'a, P> {
    /// Start a crawl from `seeds`.
    #[must_use]
    pub fn new(
        index: &'a SearchIndex,
        site_entities: &'a [Vec<EntityId>],
        policy: P,
        seeds: &[EntityId],
    ) -> Self {
        let mut crawler = Crawler {
            index,
            site_entities,
            policy,
            entity_known: vec![false; index.n_entities()],
            site_seen: vec![false; site_entities.len()],
            query_queue: Vec::new(),
            seeds_dropped: 0,
        };
        for &s in seeds {
            if s.index() >= crawler.entity_known.len() {
                crawler.seeds_dropped += 1;
            } else if !crawler.entity_known[s.index()] {
                crawler.entity_known[s.index()] = true;
                crawler.query_queue.push(s);
            }
        }
        crawler
    }

    /// Run until `fetch_budget` attempts have been spent or discovery
    /// drains. Every fetch *attempt* — including retries — charges the
    /// fetch budget; timed-out and backed-off time accrues on the
    /// simulated clock; per-site circuit breakers drop sites that keep
    /// failing, so budget is not burned on the dead. Truncated responses
    /// harvest a prefix of the site's entity list. Under
    /// [`FaultPlan::none`] every round is one successful attempt, so the
    /// budget counts sites fetched.
    ///
    /// All fault decisions are pure functions of `(plan seed, site,
    /// attempt#)`, so the same inputs produce a byte-identical
    /// [`CrawlResult`] on every run.
    #[must_use]
    pub fn run(mut self, fetch_budget: usize, plan: &FaultPlan) -> CrawlResult {
        let n_sites = self.site_entities.len();
        let mut span = webstruct_util::span!("crawl", fetch_budget, n_sites);
        let mut sim = FetchSim::new(plan, n_sites);
        let mut spent = 0usize;
        let mut queries = 0u64;
        let mut trace = Vec::new();
        loop {
            // Drain the query queue: every known entity gets one search.
            while let Some(entity) = self.query_queue.pop() {
                queries += 1;
                for site in self.index.query_sites(entity) {
                    if !self.site_seen[site.index()] {
                        self.site_seen[site.index()] = true;
                        // The size hint a real crawler gets from result
                        // snippets/counts; here the true mention count.
                        let size_hint = self.site_entities[site.index()].len();
                        self.policy.offer(site, size_hint);
                    }
                }
            }
            if spent >= fetch_budget {
                break;
            }
            // Fetch the next site per policy.
            let Some(site) = self.policy.next() else {
                break; // frontier drained
            };
            if !sim.allow(site.index()) {
                // Breaker open: the site is dropped for free, budget
                // untouched, and the loop moves to the next frontier
                // entry.
                continue;
            }
            let (outcome, used) = sim.fetch_round(site.index(), fetch_budget - spent);
            spent += used;
            match outcome {
                FetchOutcome::Success { truncated } => {
                    let list = &self.site_entities[site.index()];
                    // A truncated page yields a prefix of the site's
                    // entity list (ceil, so a non-empty page always
                    // yields at least one entity).
                    let keep = truncated.map_or(list.len(), |frac| {
                        ((frac * list.len() as f64).ceil() as usize).min(list.len())
                    });
                    for &e in &list[..keep] {
                        if !self.entity_known[e.index()] {
                            self.entity_known[e.index()] = true;
                            self.query_queue.push(e);
                        }
                    }
                }
                FetchOutcome::Failed(_) => {
                    if sim.retry_later(site.index()) {
                        let size_hint = self.site_entities[site.index()].len();
                        self.policy.offer(site, size_hint);
                    }
                }
            }
            if used > 0 {
                trace.push((spent, self.count_known()));
            }
        }
        // Every exit drains the query queue first, so only the frontier
        // can still hold work.
        let exhausted = self.policy.is_empty();
        let fetch = sim.into_stats();
        span.set_sim_ticks(fetch.sim_ticks);
        let m = webstruct_util::obs::metrics();
        m.add("crawl.rounds", trace.len() as u64);
        m.add("crawl.queries_issued", queries);
        CrawlResult {
            entities_found: self.count_known(),
            sites_fetched: spent,
            queries_issued: queries,
            exhausted,
            seeds_dropped: self.seeds_dropped,
            fetch,
            trace,
        }
    }

    fn count_known(&self) -> usize {
        self.entity_known.iter().filter(|&&k| k).count()
    }
}

/// Convenience: crawl with a policy and budget in one call, on the
/// fault-free plan.
#[must_use]
pub fn crawl<P: FrontierPolicy>(
    index: &SearchIndex,
    site_entities: &[Vec<EntityId>],
    policy: P,
    seeds: &[EntityId],
    fetch_budget: usize,
) -> CrawlResult {
    Crawler::new(index, site_entities, policy, seeds).run(fetch_budget, &FaultPlan::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{Fifo, LargestFirst};

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    fn chain_world() -> Vec<Vec<EntityId>> {
        // s0: {0,1}, s1: {1,2}, s2: {2,3}
        vec![vec![e(0), e(1)], vec![e(1), e(2)], vec![e(2), e(3)]]
    }

    #[test]
    fn crawl_discovers_whole_chain() {
        let world = chain_world();
        let index = SearchIndex::build(4, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(0)], 100);
        assert_eq!(result.entities_found, 4);
        assert_eq!(result.sites_fetched, 3);
        assert!(result.exhausted);
        assert_eq!(result.queries_issued, 4, "every entity gets queried once");
        // Trace is monotone and ends at the final count.
        assert!(result.trace.windows(2).all(|w| w[1].1 >= w[0].1));
        assert_eq!(result.trace.last().unwrap().1, 4);
    }

    #[test]
    fn fetch_budget_limits_discovery() {
        let world = chain_world();
        let index = SearchIndex::build(4, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(0)], 1);
        assert_eq!(result.sites_fetched, 1);
        assert!(!result.exhausted);
        assert!(result.entities_found < 4);
    }

    #[test]
    fn entities_at_interpolates_trace() {
        let world = chain_world();
        let index = SearchIndex::build(4, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(0)], 100);
        assert_eq!(result.entities_at(0), 0);
        assert_eq!(result.entities_at(3), 4);
        assert_eq!(result.entities_at(99), 4);
    }

    #[test]
    fn largest_first_discovers_faster() {
        // One giant site + many small ones; seed entity appears on both a
        // small site and the giant. LargestFirst should fetch the giant
        // first and know (almost) everything after one fetch.
        let mut world: Vec<Vec<EntityId>> = Vec::new();
        let giant: Vec<EntityId> = (0..50).map(e).collect();
        world.push(vec![e(0), e(1)]); // small site with the seed
        world.push(giant);
        for i in 0..10 {
            world.push(vec![e(i), e(i + 1)]);
        }
        let index = SearchIndex::build(50, &world, None);
        let largest = crawl(&index, &world, LargestFirst::default(), &[e(0)], 1);
        assert_eq!(largest.entities_found, 50, "giant site fetched first");
        let fifo = crawl(&index, &world, Fifo::default(), &[e(0)], 1);
        assert!(fifo.entities_found <= largest.entities_found);
    }

    #[test]
    fn disconnected_component_unreachable() {
        let world = vec![vec![e(0), e(1)], vec![e(2), e(3)]];
        let index = SearchIndex::build(4, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(0)], 100);
        assert_eq!(result.entities_found, 2);
        assert!(result.exhausted);
    }

    #[test]
    fn absent_seed_discovers_nothing() {
        let world = vec![vec![e(0)]];
        let index = SearchIndex::build(3, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(2)], 100);
        assert_eq!(result.entities_found, 1, "the seed itself is 'known'");
        assert_eq!(result.sites_fetched, 0);
        assert!(result.exhausted);
    }

    #[test]
    fn duplicate_seeds_and_zero_budget() {
        let world = chain_world();
        let index = SearchIndex::build(4, &world, None);
        let result = crawl(&index, &world, Fifo::default(), &[e(0), e(0)], 0);
        assert_eq!(result.sites_fetched, 0);
        assert_eq!(result.entities_found, 1);
    }

    #[test]
    fn result_page_caps_can_break_tail_discovery() {
        // A real hazard of search-mediated discovery: with a 1-result
        // page, entity 1's query returns only its top-ranked site (s0,
        // already fetched), so the chain beyond it is never reached.
        let world = chain_world();
        let index = SearchIndex::build(4, &world, Some(1));
        let capped = crawl(&index, &world, Fifo::default(), &[e(0)], 100);
        assert_eq!(capped.entities_found, 2);
        assert!(capped.exhausted, "the crawl drains without reaching e2/e3");
        // A 2-result page restores full discovery.
        let index2 = SearchIndex::build(4, &world, Some(2));
        let uncapped = crawl(&index2, &world, Fifo::default(), &[e(0)], 100);
        assert_eq!(uncapped.entities_found, 4);
    }
}
