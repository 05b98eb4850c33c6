//! Extension experiment: operational source discovery.
//!
//! §5 argues the entity–site graph's connectivity makes bootstrapping
//! discovery feasible; this experiment runs the discovery *process* on the
//! generated webs — budgeted crawls through a metered search index — and
//! measures (a) how frontier policy changes the discovery rate and (b) the
//! paper's random-seed robustness claim.

use crate::study::{DomainStudy, StudyConfig};
use webstruct_corpus::domain::identifying_attribute;
use webstruct_crawl::{failure_sweep, policy_comparison, seed_robustness, SeedRobustness};
use webstruct_util::ids::EntityId;
use webstruct_util::report::{Figure, Series, Table};
use webstruct_util::rng::Xoshiro256;
use webstruct_util::stats::log_ticks;

/// Failure rates swept by [`discovery_under_failure`] — clean baseline
/// plus two faulty regimes.
pub const FAILURE_RATES: [f64; 3] = [0.0, 0.1, 0.3];

/// Policy-comparison figure for `built`: fraction of entities discovered
/// vs. sites fetched, per frontier policy.
pub fn discovery_policies(built: &DomainStudy, config: &StudyConfig, budget: usize) -> Figure {
    let domain = built.domain;
    let lists = built.occurrence_lists(identifying_attribute(domain), config);
    let mut rng = Xoshiro256::from_seed(config.seed.derive("discovery-seeds"));
    let seeds: Vec<EntityId> = (0..3)
        .map(|_| EntityId::new(rng.u64_below(built.catalog.len() as u64) as u32))
        .collect();
    let mut fig = policy_comparison(
        built.catalog.len(),
        &lists,
        &seeds,
        budget,
        config.seed.derive("discovery-policy"),
    );
    fig.id = format!("ext-discovery-{}", domain.slug());
    fig.title = format!("{}: source discovery under a fetch budget", domain.display_name());
    fig
}

/// Discovery under failure: the dynamic counterpart of the Figure 9
/// site-removal sweep. The same largest-first budgeted crawl runs
/// against seeded [`webstruct_util::fault::FaultPlan`]s of increasing
/// severity; every retry and timeout charges the fetch budget, and the
/// figure shows what fraction of the domain's entities each budget level
/// still discovers. The companion table reports the fetch-layer
/// counters — attempts, retries, failed rounds, truncations, breaker
/// activity — per failure rate.
pub fn discovery_under_failure(
    built: &DomainStudy,
    config: &StudyConfig,
    fetch_budget: usize,
) -> (Figure, Table) {
    let domain = built.domain;
    let lists = built.occurrence_lists(identifying_attribute(domain), config);
    let n_entities = built.catalog.len();
    let mut rng = Xoshiro256::from_seed(config.seed.derive("failure-seeds"));
    let seeds: Vec<EntityId> = (0..3)
        .map(|_| EntityId::new(rng.u64_below(n_entities as u64) as u32))
        .collect();
    let sweep = failure_sweep(
        n_entities,
        &lists,
        &seeds,
        fetch_budget,
        &FAILURE_RATES,
        config.seed.derive("failure-plan"),
    );
    let mut fig = Figure::new(
        format!("ext-discovery-under-failure-{}", domain.slug()),
        format!(
            "{}: discovery under failure (entities found vs. fetch budget spent)",
            domain.display_name()
        ),
    )
    .with_axes("fetch budget spent (attempts)", "fraction of entities discovered")
    .with_log_x();
    let mut table = Table::new(
        format!("Fetch-layer counters under failure ({})", domain.slug()),
        &[
            "Failure rate",
            "Entities found",
            "Attempts",
            "OK rounds",
            "Retries",
            "Failed rounds",
            "Truncated",
            "Breaker opens",
            "Breaker skips",
            "Sim ticks",
        ],
    );
    for point in &sweep {
        let result = &point.result;
        let name = format!("fail={:.0}%", point.failure_rate * 100.0);
        if result.sites_fetched == 0 {
            fig.push(Series::new(name.clone(), Vec::new()));
        } else {
            let points: Vec<(f64, f64)> = log_ticks(result.sites_fetched)
                .into_iter()
                .map(|f| (f as f64, result.entities_at(f) as f64 / n_entities as f64))
                .collect();
            fig.push(Series::new(name.clone(), points));
        }
        let s = &result.fetch;
        table.push_row(vec![
            name,
            result.entities_found.to_string(),
            s.attempts.to_string(),
            s.ok.to_string(),
            s.retries.to_string(),
            s.failed_rounds.to_string(),
            s.truncated.to_string(),
            s.breaker_opens.to_string(),
            s.breaker_skips.to_string(),
            s.sim_ticks.to_string(),
        ]);
    }
    (fig, table)
}

/// Seed-robustness experiment for `built`.
pub fn discovery_seed_robustness(
    built: &DomainStudy,
    config: &StudyConfig,
    trials: usize,
) -> SeedRobustness {
    let lists = built.occurrence_lists(identifying_attribute(built.domain), config);
    seed_robustness(
        built.catalog.len(),
        &lists,
        trials,
        0.95,
        config.seed.derive("discovery-robustness"),
    )
}

/// [`discovery_seed_robustness`] as a one-row table: how many random
/// single seeds recover at least 95% of the present entities.
pub fn seed_robustness_table(built: &DomainStudy, config: &StudyConfig, trials: usize) -> Table {
    let r = discovery_seed_robustness(built, config, trials);
    let mut table = Table::new(
        format!("{}: discovery from one random seed", built.domain.display_name()),
        &["Trials", "Seeds reaching 95%", "Mean recall", "Largest component"],
    );
    table.push_row(vec![
        r.trials.to_string(),
        r.successes.to_string(),
        format!("{:.3}", r.mean_recall),
        format!("{:.3}", r.largest_component_fraction),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_corpus::domain::Domain;

    fn quick(domain: Domain) -> (DomainStudy, StudyConfig) {
        let config = StudyConfig::quick();
        (DomainStudy::generate(domain, &config), config)
    }

    #[test]
    fn policies_produce_four_series_with_largest_first_leading() {
        let (built, config) = quick(Domain::Restaurants);
        let fig = discovery_policies(&built, &config, 200);
        assert_eq!(fig.series.len(), 4);
        let at = |name: &str| {
            fig.series_named(name)
                .unwrap()
                .interpolate(20.0)
                .unwrap_or(0.0)
        };
        assert!(
            at("largest-first") > at("smallest-first"),
            "largest {} vs smallest {}",
            at("largest-first"),
            at("smallest-first")
        );
        // Size-guided discovery is near-complete within the budget;
        // every policy makes at least some progress.
        assert!(
            fig.series_named("largest-first").unwrap().final_y().unwrap() > 0.9,
            "largest-first should nearly finish within the budget"
        );
        for s in &fig.series {
            assert!(s.final_y().unwrap_or(0.0) > 0.02, "{} stalled", s.name);
        }
    }

    #[test]
    fn failure_sweep_has_a_curve_and_counters_per_rate() {
        let (built, config) = quick(Domain::Restaurants);
        let (fig, table) = discovery_under_failure(&built, &config, 500);
        assert_eq!(fig.series.len(), FAILURE_RATES.len());
        assert_eq!(table.rows.len(), FAILURE_RATES.len());
        assert!(fig.series_named("fail=0%").is_some());
        assert!(fig.series_named("fail=30%").is_some());
        // The clean baseline discovers at least as much as the worst rate.
        let clean = fig.series_named("fail=0%").unwrap().final_y().unwrap_or(0.0);
        let worst = fig
            .series_named("fail=30%")
            .unwrap()
            .final_y()
            .unwrap_or(0.0);
        assert!(clean >= worst, "clean {clean} vs 30% {worst}");
        // Counters: the clean run has zero retries, the faulty runs don't.
        assert_eq!(table.rows[0][4], "0", "clean run retries");
        let faulty_retries: u64 = table.rows[2][4].parse().unwrap();
        assert!(faulty_retries > 0, "30% run should have retried");
    }

    #[test]
    fn failure_sweep_is_deterministic_across_runs() {
        let (built_a, config) = quick(Domain::Restaurants);
        let (built_b, _) = quick(Domain::Restaurants);
        let a = discovery_under_failure(&built_a, &config, 300);
        let b = discovery_under_failure(&built_b, &config, 300);
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn random_seeds_recover_almost_everything() {
        let (built, config) = quick(Domain::Banks);
        let r = discovery_seed_robustness(&built, &config, 10);
        assert!(
            r.success_rate() > 0.85,
            "success {} with ceiling {}",
            r.success_rate(),
            r.largest_component_fraction
        );
        assert!(r.mean_recall > 0.9, "mean recall {}", r.mean_recall);
    }
}
