//! The fault-injection layer's contract, end to end:
//!
//! * crawler edge cases under faults — empty seed set, zero fetch
//!   budget, budget exhausted mid-retry, all-sites-dead plans — degrade
//!   to well-defined results (`exhausted` flags, monotone traces,
//!   honest counters) instead of panicking;
//! * a zero-rate plan is *provably inert*: a crawl under
//!   `FaultConfig::flaky(0.0)` equals the `FaultPlan::none()` crawl field
//!   for field;
//! * faulty runs are byte-reproducible at any `WEBSTRUCT_THREADS`
//!   setting — fault decisions are pure functions of `(seed, site,
//!   attempt)`, never of scheduling.

use std::sync::{Mutex, MutexGuard, OnceLock};
use webstruct::core::runner::{run_extensions, write_outputs};
use webstruct::core::study::StudyConfig;
use webstruct::crawl::{crawl, Crawler, Fifo, LargestFirst, SearchIndex};
use webstruct::util::fault::{FaultConfig, FaultPlan};
use webstruct::util::ids::EntityId;
use webstruct::util::par;
use webstruct::util::rng::Seed;
use webstruct::util::TempDir;

fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("env lock poisoned")
}

/// Run `f` with `WEBSTRUCT_THREADS` pinned to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = env_lock();
    std::env::set_var(par::THREADS_ENV, threads.to_string());
    let out = f();
    std::env::remove_var(par::THREADS_ENV);
    out
}

fn e(id: u32) -> EntityId {
    EntityId::new(id)
}

/// s0: {0,1}, s1: {1,2}, s2: {2,3} — the chain world.
fn chain_world() -> Vec<Vec<EntityId>> {
    vec![vec![e(0), e(1)], vec![e(1), e(2)], vec![e(2), e(3)]]
}

fn run_faulty(
    world: &[Vec<EntityId>],
    n_entities: usize,
    seeds: &[EntityId],
    fetch_budget: usize,
    plan: &FaultPlan,
) -> webstruct::crawl::CrawlResult {
    let index = SearchIndex::build(n_entities, world, None);
    Crawler::new(&index, world, Fifo::default(), seeds).run(fetch_budget, plan)
}

#[test]
fn none_plan_reproduces_the_plain_crawl_field_for_field() {
    let world = chain_world();
    let index = SearchIndex::build(4, &world, None);
    let plain = crawl(&index, &world, LargestFirst::default(), &[e(0)], 100);
    let zero_rate = FaultPlan::new(FaultConfig::flaky(0.0), Seed(9));
    let faulty = Crawler::new(&index, &world, LargestFirst::default(), &[e(0)]).run(100, &zero_rate);
    assert_eq!(plain, faulty, "a zero-rate plan must be inert");
    assert_eq!(plain.fetch.attempts, plain.sites_fetched);
    assert_eq!(plain.fetch.retries, 0);
    assert_eq!(plain.fetch.failed_rounds, 0);
}

#[test]
fn empty_seed_set_exhausts_immediately() {
    let world = chain_world();
    let plan = FaultPlan::new(FaultConfig::flaky(0.5), Seed(1));
    let result = run_faulty(&world, 4, &[], 100, &plan);
    assert_eq!(result.entities_found, 0);
    assert_eq!(result.sites_fetched, 0);
    assert!(result.exhausted, "nothing to do is a drained crawl");
    assert!(result.trace.is_empty());
    assert_eq!(result.fetch.attempts, 0);
}

#[test]
fn zero_fetch_budget_spends_nothing() {
    let world = chain_world();
    let plan = FaultPlan::new(FaultConfig::flaky(0.5), Seed(2));
    let result = run_faulty(&world, 4, &[e(0)], 0, &plan);
    assert_eq!(result.sites_fetched, 0);
    assert_eq!(result.entities_found, 1, "the seed itself is known");
    assert!(!result.exhausted, "the frontier still holds unfetched sites");
    assert_eq!(result.fetch.attempts, 0);
    assert_eq!(result.fetch.sim_ticks, 0);
}

#[test]
fn budget_exhausted_mid_retry_is_charged_honestly() {
    // Every attempt fails; the budget (2) dies inside the first round
    // (1 attempt + up to 3 retries). The spent budget must equal the
    // attempts actually issued, and the round is reported as failed.
    let world = chain_world();
    let plan = FaultPlan::new(
        FaultConfig {
            failure_rate: 1.0,
            ..FaultConfig::none()
        },
        Seed(3),
    );
    let result = run_faulty(&world, 4, &[e(0)], 2, &plan);
    assert_eq!(result.sites_fetched, 2, "both budget units were spent");
    assert_eq!(result.fetch.attempts, 2);
    assert_eq!(result.fetch.ok, 0);
    assert_eq!(result.fetch.retries, 2);
    assert_eq!(result.fetch.failed_rounds, 1);
    assert_eq!(result.entities_found, 1, "no site ever yielded");
    assert!(!result.exhausted);
    // The trace records the failed round: budget moved, knowledge didn't.
    assert_eq!(result.trace, vec![(2, 1)]);
}

#[test]
fn all_sites_dead_discovers_only_seeds_and_trips_breakers() {
    let world = chain_world();
    let plan = FaultPlan::new(
        FaultConfig {
            dead_site_rate: 1.0,
            ..FaultConfig::none()
        },
        Seed(4),
    );
    let result = run_faulty(&world, 4, &[e(0)], 10_000, &plan);
    assert_eq!(result.entities_found, 1, "only the seed");
    assert_eq!(result.fetch.ok, 0);
    assert!(result.fetch.dead_attempts > 0);
    // The seed's site (s0) keeps failing until its breaker opens, after
    // which it is dropped and the crawl drains.
    assert_eq!(result.fetch.breaker_opens, 1);
    assert!(result.exhausted, "breakers drained the frontier");
    assert!(
        result.sites_fetched < 10_000,
        "breakers must stop the budget burn (spent {})",
        result.sites_fetched
    );
}

#[test]
fn traces_stay_monotone_under_any_fault_mix() {
    for (i, rate) in [0.1, 0.3, 0.6, 0.9].iter().enumerate() {
        let plan = FaultPlan::new(FaultConfig::flaky(*rate), Seed(100 + i as u64));
        // A larger random-ish world: one aggregator + chains.
        let mut world: Vec<Vec<EntityId>> = vec![(0..40).map(e).collect()];
        for j in 0..40u32 {
            world.push(vec![e(j), e((j + 1) % 40)]);
        }
        let result = run_faulty(&world, 40, &[e(0)], 200, &plan);
        assert!(
            result.trace.windows(2).all(|w| w[0].0 < w[1].0),
            "budget coordinates strictly increase (rate {rate})"
        );
        assert!(
            result.trace.windows(2).all(|w| w[0].1 <= w[1].1),
            "knowledge never regresses (rate {rate})"
        );
        if let Some(&(spent, known)) = result.trace.last() {
            assert!(spent <= 200);
            assert_eq!(known, result.entities_found);
        }
        // entities_at never exceeds the final count and is monotone.
        let mut prev = 0;
        for budget in [0, 1, 5, 50, 200, 10_000] {
            let at = result.entities_at(budget);
            assert!(at >= prev);
            assert!(at <= result.entities_found);
            prev = at;
        }
    }
}

#[test]
fn seeds_dropped_counts_out_of_range_ids() {
    let world = chain_world();
    let index = SearchIndex::build(4, &world, None);
    let result = Crawler::new(
        &index,
        &world,
        Fifo::default(),
        &[e(0), e(999), e(7), e(1)],
    )
    .run(100, &FaultPlan::none());
    assert_eq!(result.seeds_dropped, 2, "e(999) and e(7) are out of range");
    assert_eq!(result.entities_found, 4, "valid seeds still crawl fine");
}

#[test]
fn faulty_crawl_is_deterministic_and_thread_independent() {
    let plan = FaultPlan::new(FaultConfig::flaky(0.3), Seed(55));
    let mut world: Vec<Vec<EntityId>> = vec![(0..30).map(e).collect()];
    for j in 0..30u32 {
        world.push(vec![e(j), e((j + 7) % 30)]);
    }
    let baseline = with_threads(1, || run_faulty(&world, 30, &[e(3)], 150, &plan));
    for threads in [1, 8] {
        let again = with_threads(threads, || run_faulty(&world, 30, &[e(3)], 150, &plan));
        assert_eq!(
            again, baseline,
            "faulty crawl diverged at {threads} threads"
        );
    }
}

#[test]
fn run_extensions_with_fault_experiment_is_identical_across_thread_counts() {
    // The extensions run includes discovery_under_failure — the full
    // fault pipeline — and fans families across worker threads. Output
    // must be byte-identical at every thread count.
    let cfg = StudyConfig::quick();
    let baseline = with_threads(1, || run_extensions(&cfg));
    assert!(baseline.is_complete());
    assert_eq!(baseline.figures.len(), 3);
    assert_eq!(baseline.tables.len(), 9);
    for threads in [2, 8] {
        let parallel = with_threads(threads, || run_extensions(&cfg));
        assert_eq!(
            parallel.figures, baseline.figures,
            "figures diverged at {threads} threads"
        );
        assert_eq!(
            parallel.tables, baseline.tables,
            "tables diverged at {threads} threads"
        );
        assert!(parallel.failures.is_empty());
    }
}

#[test]
fn degraded_artifacts_are_byte_reproducible_too() {
    // A chaos run (one family killed) must still be deterministic: same
    // surviving figures, same degradation report, at 1 and 8 threads.
    let cfg = StudyConfig::quick();
    let a = with_threads(1, || {
        webstruct::core::runner::run_extensions_chaos(&cfg, Some("ext-redundancy"))
    });
    let b = with_threads(8, || {
        webstruct::core::runner::run_extensions_chaos(&cfg, Some("ext-redundancy"))
    });
    assert_eq!(a.figures, b.figures);
    assert_eq!(a.tables, b.tables);
    assert_eq!(a.failures, b.failures);
    assert_eq!(a.failures.len(), 1);
    assert_eq!(a.failures[0].family, "ext-redundancy");
    // And writing them produces the DEGRADED.md report.
    let dir = TempDir::new("faults-degraded");
    write_outputs(&dir, &a).expect("degradation is not an I/O error");
    let report = std::fs::read_to_string(dir.join("DEGRADED.md")).expect("report exists");
    assert!(report.contains("ext-redundancy"));
}
