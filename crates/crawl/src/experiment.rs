//! Discovery experiments: frontier-policy comparison and the paper's
//! seed-robustness claim.
//!
//! > "…this suggests that any seed set of structured entities will
//! > contain, with high probability, at least one entity from the largest
//! > component; thus we are all but surely guaranteed to discover and
//! > extract most of the entities from random seed sets."

use crate::crawler::{crawl, CrawlResult, Crawler};
use crate::frontier::{Fifo, LargestFirst, RandomOrder, SmallestFirst};
use crate::index::SearchIndex;
use webstruct_graph::{component_stats, BipartiteGraph};
use webstruct_util::fault::{FaultConfig, FaultPlan};
use webstruct_util::ids::EntityId;
use webstruct_util::report::{Figure, Series};
use webstruct_util::rng::{Seed, Xoshiro256};
use webstruct_util::stats::log_ticks;

/// Compare frontier policies on the same world: discovery curves
/// (entities known vs. sites fetched), log-sampled.
#[must_use]
pub fn policy_comparison(
    n_entities: usize,
    site_entities: &[Vec<EntityId>],
    seeds: &[EntityId],
    fetch_budget: usize,
    seed: Seed,
) -> Figure {
    let index = SearchIndex::build(n_entities, site_entities, None);
    let mut fig = Figure::new(
        "ext-discovery-policies",
        "Source discovery: entities found vs. sites fetched",
    )
    .with_axes("sites fetched", "fraction of entities discovered")
    .with_log_x();
    let runs: Vec<(&'static str, crate::crawler::CrawlResult)> = vec![
        (
            "largest-first",
            crawl(&index, site_entities, LargestFirst::default(), seeds, fetch_budget),
        ),
        (
            "fifo",
            crawl(&index, site_entities, Fifo::default(), seeds, fetch_budget),
        ),
        (
            "random",
            crawl(&index, site_entities, RandomOrder::new(seed), seeds, fetch_budget),
        ),
        (
            "smallest-first",
            crawl(&index, site_entities, SmallestFirst::default(), seeds, fetch_budget),
        ),
    ];
    for (name, result) in runs {
        if result.sites_fetched == 0 {
            fig.push(Series::new(name, Vec::new()));
            continue;
        }
        let points: Vec<(f64, f64)> = log_ticks(result.sites_fetched)
            .into_iter()
            .map(|f| (f as f64, result.entities_at(f) as f64 / n_entities as f64))
            .collect();
        fig.push(Series::new(name, points));
    }
    fig
}

/// Seed-robustness experiment: `trials` independent single-entity seeds;
/// returns the fraction of trials whose unbudgeted crawl recovered at
/// least `recall_target` of the *present* entities.
#[must_use]
pub fn seed_robustness(
    n_entities: usize,
    site_entities: &[Vec<EntityId>],
    trials: usize,
    recall_target: f64,
    seed: Seed,
) -> SeedRobustness {
    let index = SearchIndex::build(n_entities, site_entities, None);
    let graph =
        BipartiteGraph::from_occurrences(n_entities, site_entities).expect("valid ids");
    let present = graph.entities_present();
    let largest_fraction = component_stats(&graph, &[]).largest_fraction();
    let mut rng = Xoshiro256::from_seed(seed.derive("seed-robustness"));
    let mut successes = 0usize;
    let mut total_iter_recall = 0.0f64;
    for _ in 0..trials {
        let s = EntityId::new(rng.u64_below(n_entities as u64) as u32);
        let result = crawl(&index, site_entities, Fifo::default(), &[s], usize::MAX);
        let recall = if present == 0 {
            0.0
        } else {
            result.entities_found as f64 / present as f64
        };
        total_iter_recall += recall;
        if recall >= recall_target {
            successes += 1;
        }
    }
    SeedRobustness {
        trials,
        successes,
        mean_recall: if trials == 0 {
            0.0
        } else {
            total_iter_recall / trials as f64
        },
        largest_component_fraction: largest_fraction,
    }
}

/// One point of a [`failure_sweep`]: a full crawl at one failure rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePoint {
    /// Headline per-attempt failure probability
    /// ([`FaultConfig::flaky`]'s knob).
    pub failure_rate: f64,
    /// The crawl outcome, including fetch-layer counters.
    pub result: CrawlResult,
}

/// Sweep failure rates: re-run the same largest-first budgeted crawl
/// under [`FaultConfig::flaky`] plans of increasing severity. Rate 0
/// reproduces the fault-free crawl bit-for-bit (the plan is inactive).
/// Each rate gets an independently derived plan seed, so curves differ
/// only through fault severity, not through stream reuse.
#[must_use]
pub fn failure_sweep(
    n_entities: usize,
    site_entities: &[Vec<EntityId>],
    seeds: &[EntityId],
    fetch_budget: usize,
    rates: &[f64],
    seed: Seed,
) -> Vec<FailurePoint> {
    let index = SearchIndex::build(n_entities, site_entities, None);
    let plan_seed = seed.derive("fault-plan");
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let plan = FaultPlan::new(FaultConfig::flaky(rate), plan_seed.derive_u64(i as u64));
            let crawler = Crawler::new(&index, site_entities, LargestFirst::default(), seeds);
            let result = crawler.run(fetch_budget, &plan);
            FailurePoint {
                failure_rate: rate,
                result,
            }
        })
        .collect()
}

/// Result of [`seed_robustness`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeedRobustness {
    /// Number of random single-seed trials.
    pub trials: usize,
    /// Trials reaching the recall target.
    pub successes: usize,
    /// Mean recall (of present entities) across trials.
    pub mean_recall: f64,
    /// Fraction of present entities in the largest component — the
    /// theoretical ceiling for a random seed.
    pub largest_component_fraction: f64,
}

impl SeedRobustness {
    /// Success rate over trials.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.successes as f64 / self.trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::rng::Xoshiro256;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    /// A head-heavy synthetic world: one big aggregator + local chains.
    fn world(n: usize, seed: Seed) -> Vec<Vec<EntityId>> {
        let mut rng = Xoshiro256::from_seed(seed);
        let mut sites = Vec::new();
        // Aggregator covering 70% of entities.
        sites.push(
            (0..n as u32)
                .filter(|_| rng.bool_with(0.7))
                .map(e)
                .collect::<Vec<_>>(),
        );
        // Tail sites of 2-5 entities.
        for _ in 0..n {
            let k = 2 + rng.usize_below(4);
            sites.push((0..k).map(|_| e(rng.u64_below(n as u64) as u32)).collect());
        }
        sites
    }

    #[test]
    fn policy_comparison_orders_as_expected() {
        let w = world(300, Seed(9));
        let fig = policy_comparison(300, &w, &[e(0)], 50, Seed(10));
        assert_eq!(fig.series.len(), 4);
        let at_10 = |name: &str| {
            fig.series_named(name)
                .unwrap()
                .interpolate(10.0)
                .unwrap_or(0.0)
        };
        // Largest-first dominates smallest-first early, with random and
        // fifo in between.
        assert!(
            at_10("largest-first") > at_10("smallest-first"),
            "largest {} vs smallest {}",
            at_10("largest-first"),
            at_10("smallest-first")
        );
        assert!(at_10("largest-first") >= at_10("random") - 0.05);
    }

    #[test]
    fn seed_robustness_matches_component_ceiling() {
        let w = world(400, Seed(11));
        let r = seed_robustness(400, &w, 25, 0.9, Seed(12));
        assert_eq!(r.trials, 25);
        // The paper's claim: random seeds almost surely land in the giant
        // component and recover nearly everything.
        assert!(
            r.success_rate() > 0.9,
            "success rate {} (ceiling {})",
            r.success_rate(),
            r.largest_component_fraction
        );
        assert!(r.mean_recall > 0.85, "mean recall {}", r.mean_recall);
        assert!(r.largest_component_fraction > 0.9);
    }

    #[test]
    fn seed_robustness_on_fragmented_world() {
        // Two equal halves: a random seed recovers ~half, so the 0.9
        // target fails about half the time... actually always (each
        // component is 50% < 90%).
        let mut sites = Vec::new();
        for i in 0..50u32 {
            sites.push(vec![e(i), e((i + 1) % 50)]); // component A: 0..50
            sites.push(vec![e(50 + i), e(50 + (i + 1) % 50)]); // component B
        }
        let r = seed_robustness(100, &sites, 10, 0.9, Seed(13));
        assert_eq!(r.successes, 0);
        assert!((r.mean_recall - 0.5).abs() < 0.05, "mean {}", r.mean_recall);
    }

    #[test]
    fn failure_sweep_zero_rate_matches_clean_crawl() {
        let w = world(200, Seed(21));
        let index = SearchIndex::build(200, &w, None);
        let clean = crawl(&index, &w, LargestFirst::default(), &[e(0)], 80);
        let sweep = failure_sweep(200, &w, &[e(0)], 80, &[0.0], Seed(22));
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep[0].result, clean, "rate 0 must be bit-identical");
    }

    #[test]
    fn failure_sweep_degrades_discovery_monotonically_enough() {
        let w = world(300, Seed(23));
        let sweep = failure_sweep(300, &w, &[e(0)], 120, &[0.0, 0.1, 0.3], Seed(24));
        assert_eq!(sweep.len(), 3);
        let found: Vec<usize> = sweep.iter().map(|p| p.result.entities_found).collect();
        // Faults burn budget on retries, so severe rates discover no more
        // than the clean run (usually strictly less).
        assert!(found[1] <= found[0], "10% ({}) vs clean ({})", found[1], found[0]);
        assert!(found[2] <= found[0], "30% ({}) vs clean ({})", found[2], found[0]);
        // The faulty runs actually exercised the fault machinery.
        assert!(sweep[2].result.fetch.retries > 0);
        assert!(sweep[2].result.fetch.failed_rounds > 0);
        assert_eq!(sweep[0].result.fetch.retries, 0);
    }

    #[test]
    fn failure_sweep_is_deterministic() {
        let w = world(150, Seed(25));
        let a = failure_sweep(150, &w, &[e(0), e(5)], 60, &[0.1, 0.3], Seed(26));
        let b = failure_sweep(150, &w, &[e(0), e(5)], 60, &[0.1, 0.3], Seed(26));
        assert_eq!(a, b);
    }

    #[test]
    fn zero_trials_degenerate() {
        let w = world(50, Seed(14));
        let r = seed_robustness(50, &w, 0, 0.9, Seed(15));
        assert_eq!(r.success_rate(), 0.0);
        assert_eq!(r.mean_recall, 0.0);
    }
}
