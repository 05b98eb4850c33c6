//! The full downstream story in one test file: generate a world, discover
//! its sites with the budgeted crawler, track coverage online, extract,
//! fuse, and deduplicate — every substrate cooperating.

use webstruct::core::study::{DomainStudy, StudyConfig};
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::coverage::StreamingCoverage;
use webstruct::crawl::{crawl, LargestFirst, SearchIndex};
use webstruct::dedup::{
    dedup_and_evaluate, generate_records, Blocking, CandidateTable, VariantModel,
};
use webstruct::fuse::{evaluate, ClaimSet, ErrorModel, MajorityVote};
use webstruct::util::ids::EntityId;
use webstruct::util::rng::Seed;

#[test]
fn crawl_then_track_coverage_online() {
    let cfg = StudyConfig::quick().with_scale(0.03);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let lists = study.occurrence_lists(Attribute::Phone, &cfg);
    let n = study.catalog.len();
    let index = SearchIndex::build(n, &lists, None);

    // Crawl with the size-greedy policy, replaying fetches into the
    // streaming coverage accumulator.
    let result = crawl(&index, &lists, LargestFirst::default(), &[EntityId::new(0)], 500);
    assert!(result.entities_found > 0);

    // Re-run the fetch order through streaming coverage: the crawler's
    // trace and the accumulator must agree at the end.
    let mut sc = StreamingCoverage::new(n, 3);
    // (The crawler does not expose its fetch order directly; emulate by
    // ingesting the k-coverage ordering for the same number of fetches —
    // LargestFirst fetches by size, which is exactly that ordering when
    // the whole frontier is known. We assert the weaker, order-free
    // property: streaming over *all* sites reaches the batch totals.)
    for l in &lists {
        sc.add_site(l);
    }
    let batch = webstruct::coverage::k_coverage(n, &lists, 3).unwrap();
    for k in 1..=3 {
        let expected = *batch.curves[k - 1].last().unwrap();
        assert!((sc.coverage(k) - expected).abs() < 1e-12);
    }
    // Crawler recall at a 500-fetch budget is substantial in a connected
    // world.
    let present = lists.iter().flatten().collect::<std::collections::HashSet<_>>();
    assert!(
        result.entities_found as f64 >= 0.8 * present.len() as f64,
        "found {} of {}",
        result.entities_found,
        present.len()
    );
}

#[test]
fn discover_extract_fuse_dedup_pipeline() {
    let cfg = StudyConfig::quick().with_scale(0.03);
    let study = DomainStudy::generate(Domain::Banks, &cfg);

    // 1. Fuse noisy claims into a database.
    let claims = ClaimSet::generate(
        &study.catalog,
        &study.web,
        &ErrorModel::default(),
        0.2,
        Seed(5),
    );
    let fused = evaluate(&MajorityVote, &claims, 10);
    assert!(fused.accuracy > 0.95, "fusion accuracy {}", fused.accuracy);

    // 2. Deduplicate listing records for the same catalog.
    let records = generate_records(&study.catalog, 3, &VariantModel::default(), Seed(6));
    let dedup = dedup_and_evaluate(&CandidateTable::new(&records), Blocking::PhoneOrName);
    assert!(dedup.f1() > 0.85, "dedup F1 {}", dedup.f1());

    // 3. The two stages are consistent: both operate on the same entity
    //    universe.
    assert_eq!(claims.n_entities, study.catalog.len());
    assert_eq!(records.len(), study.catalog.len() * 3);
}
