//! Figures 1–5: the spread-of-data experiments (§3 of the paper).

use crate::cache::Study;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_coverage::{aggregate_coverage, greedy_cover, k_coverage, KCoverage};
use webstruct_util::report::Figure;
use webstruct_util::EntityId;

/// Maximum k for the k-coverage sweeps: the paper plots k = 1..10.
pub const MAX_K: usize = 10;

/// The coverage universe and occurrence lists for a (domain, attribute)
/// pair. For homepages the universe is restricted to the entities that
/// *have* a homepage — a business without a website can never be covered,
/// and the paper's Figure 2 curves approach 1 — with ids remapped to that
/// dense sub-universe.
fn universe_lists(study: &Study, domain: Domain, attr: Attribute) -> (usize, Vec<Vec<EntityId>>) {
    let built = study.domain(domain);
    let lists = built.occurrence_lists(attr, &study.config);
    if attr != Attribute::Homepage {
        return (built.catalog.len(), lists);
    }
    let mut has_homepage = vec![false; built.catalog.len()];
    for e in built.catalog.with_homepage() {
        has_homepage[e.id.index()] = true;
    }
    homepage_universe(domain, &has_homepage, &lists).unwrap_or_else(|e| panic!("{e}"))
}

/// A homepage occurrence of an entity that has no homepage: the
/// occurrence table and the catalog disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
struct HomepageMentionError {
    /// Domain of the occurrence table.
    domain: Domain,
    /// Catalog id of the entity mentioned.
    entity: u32,
}

impl std::fmt::Display for HomepageMentionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: homepage mention of entity {}, which has no homepage",
            self.domain.display_name(),
            self.entity
        )
    }
}

impl std::error::Error for HomepageMentionError {}

/// Remap homepage occurrence `lists` onto the dense universe of entities
/// with a homepage (`has_homepage[id]`), numbered in id order. Returns
/// the universe size and the remapped lists.
///
/// # Errors
/// The first mention of an entity without a homepage (or outside the
/// catalog), naming `domain` and the entity id.
fn homepage_universe(
    domain: Domain,
    has_homepage: &[bool],
    lists: &[Vec<EntityId>],
) -> Result<(usize, Vec<Vec<EntityId>>), HomepageMentionError> {
    let mut remap = vec![u32::MAX; has_homepage.len()];
    let mut n_universe = 0u32;
    for (id, _) in has_homepage.iter().enumerate().filter(|(_, &has)| has) {
        remap[id] = n_universe;
        n_universe += 1;
    }
    let remapped = lists
        .iter()
        .map(|l| {
            l.iter()
                .map(|e| match remap.get(e.index()) {
                    Some(&dense) if dense != u32::MAX => Ok(EntityId::new(dense)),
                    _ => Err(HomepageMentionError {
                        domain,
                        entity: e.raw(),
                    }),
                })
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok((n_universe as usize, remapped))
}

fn coverage_for(study: &Study, domain: Domain, attr: Attribute) -> KCoverage {
    let (n, lists) = universe_lists(study, domain, attr);
    k_coverage(n, &lists, MAX_K)
        .expect("generated corpora always have entities and valid ids")
}

/// Figure 1: spread of the phone attribute for the eight local-business
/// domains. Returns figures in the paper's (a)–(h) order.
pub fn fig1(study: &Study) -> Vec<Figure> {
    fig_for_attribute(study, Attribute::Phone, "fig1")
}

/// Figure 2: spread of the homepage attribute for the eight local-business
/// domains.
pub fn fig2(study: &Study) -> Vec<Figure> {
    fig_for_attribute(study, Attribute::Homepage, "fig2")
}

fn fig_for_attribute(study: &Study, attr: Attribute, id_prefix: &str) -> Vec<Figure> {
    let order = [
        Domain::Restaurants,
        Domain::Automotive,
        Domain::Banks,
        Domain::HotelsLodging,
        Domain::Libraries,
        Domain::RetailShopping,
        Domain::HomeGarden,
        Domain::Schools,
    ];
    order
        .iter()
        .enumerate()
        .map(|(i, &domain)| {
            let cov = coverage_for(study, domain, attr);
            let letter = (b'a' + i as u8) as char;
            cov.to_figure(
                &format!("{id_prefix}{letter}"),
                &format!("{} {}s", domain.display_name(), attr.slug()),
            )
        })
        .collect()
}

/// Figure 3: spread of book ISBN numbers.
pub fn fig3(study: &Study) -> Figure {
    let cov = coverage_for(study, Domain::Books, Attribute::Isbn);
    cov.to_figure("fig3", "Books books")
}

/// Figure 4(a): k-coverage of restaurant reviews; Figure 4(b): aggregate
/// review-page coverage.
pub fn fig4(study: &Study) -> (Figure, Figure) {
    let fig4a = coverage_for(study, Domain::Restaurants, Attribute::Review)
        .to_figure("fig4a", "Restaurant Reviews");
    let built = study.domain(Domain::Restaurants);
    let pages = built.review_page_lists(&study.config);
    let fig4b = aggregate_coverage(&pages).to_figure("fig4b", "Aggregate Reviews");
    (fig4a, fig4b)
}

/// Figure 5: greedy set cover vs. order-by-size for restaurant homepages.
pub fn fig5(study: &Study) -> Figure {
    let (n, lists) = universe_lists(study, Domain::Restaurants, Attribute::Homepage);
    let by_size = k_coverage(n, &lists, 1).expect("valid corpus");
    let greedy = greedy_cover(n, &lists).expect("valid corpus");
    let size_fig = by_size.to_figure("tmp", "tmp");
    webstruct_coverage::comparison_figure(
        "fig5",
        "Greedy Covering For Restaurant Homepages",
        &size_fig.series[0],
        &greedy,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn quick_study() -> Study {
        Study::new(StudyConfig::quick())
    }

    #[test]
    fn homepage_universe_is_dense_and_names_a_stray_mention() {
        let e = EntityId::new;
        let has_homepage = [false, true, true, false, true];
        let lists = vec![vec![e(1), e(4)], vec![], vec![e(2)]];
        assert_eq!(
            homepage_universe(Domain::Banks, &has_homepage, &lists),
            Ok((3, vec![vec![e(0), e(2)], vec![], vec![e(1)]]))
        );
        let err =
            homepage_universe(Domain::Banks, &has_homepage, &[vec![e(1)], vec![e(3)]]).unwrap_err();
        assert_eq!(
            err,
            HomepageMentionError {
                domain: Domain::Banks,
                entity: 3
            }
        );
        assert_eq!(
            err.to_string(),
            "Banks: homepage mention of entity 3, which has no homepage"
        );
        // An id past the catalog is the same error, not an index panic.
        assert_eq!(
            homepage_universe(Domain::Schools, &has_homepage, &[vec![e(9)]]),
            Err(HomepageMentionError {
                domain: Domain::Schools,
                entity: 9
            })
        );
    }

    #[test]
    fn fig1_has_eight_panels_with_ten_curves() {
        let study = quick_study();
        let figs = fig1(&study);
        assert_eq!(figs.len(), 8);
        for f in &figs {
            assert_eq!(f.series.len(), MAX_K);
            assert!(f.log_x);
            // k=1 coverage at full site list is near-total.
            let k1 = f.series_named("k=1").unwrap();
            assert!(
                k1.final_y().unwrap() > 0.95,
                "{}: k=1 final coverage {:?}",
                f.title,
                k1.final_y()
            );
        }
        assert_eq!(figs[0].id, "fig1a");
        assert!(figs[0].title.contains("Restaurants"));
        assert_eq!(figs[7].id, "fig1h");
        assert!(figs[7].title.contains("Schools"));
    }

    #[test]
    fn fig2_spread_is_wider_than_fig1() {
        let study = quick_study();
        let phones = fig1(&study);
        let homepages = fig2(&study);
        // Paper: homepage coverage at small t is far below phone coverage.
        // Compare k=1 coverage of the top-10 sites for restaurants.
        let p = phones[0].series_named("k=1").unwrap().interpolate(10.0).unwrap();
        let h = homepages[0]
            .series_named("k=1")
            .unwrap()
            .interpolate(10.0)
            .unwrap();
        assert!(
            h < p - 0.1,
            "homepage top-10 coverage {h} should trail phone coverage {p}"
        );
    }

    #[test]
    fn fig3_books_cover_eventually() {
        let study = quick_study();
        let fig = fig3(&study);
        assert_eq!(fig.series.len(), MAX_K);
        assert!(fig.series_named("k=1").unwrap().final_y().unwrap() > 0.9);
    }

    #[test]
    fn fig4_review_coverage_spreads_wider_than_existence() {
        let study = quick_study();
        let (a, b) = fig4(&study);
        assert_eq!(a.id, "fig4a");
        assert_eq!(b.id, "fig4b");
        assert_eq!(b.series.len(), 1);
        // Paper: at the same t, aggregate-page coverage trails entity
        // coverage ("top 1000 sites cover 95% of restaurants but only 80%
        // of reviews"). Compare at a small prefix.
        let t = 10.0;
        let entity_cov = a.series_named("k=1").unwrap().interpolate(t).unwrap();
        let page_cov = b.series[0].interpolate(t).unwrap();
        assert!(
            page_cov < entity_cov,
            "page coverage {page_cov} should trail entity coverage {entity_cov} at t={t}"
        );
    }

    #[test]
    fn fig5_greedy_dominates_but_modestly() {
        let study = quick_study();
        let fig = fig5(&study);
        let by_size = fig.series_named("Order by Size").unwrap();
        let greedy = fig.series_named("Greedy Set Cover").unwrap();
        // At every shared t, greedy is at least on par with by-size.
        // (Greedy is stepwise-optimal, not prefix-dominant, so tiny
        // violations are legitimate; allow a small slack.)
        for &(t, g) in &greedy.points {
            let s = by_size.interpolate(t).unwrap();
            assert!(g + 0.02 >= s, "greedy {g} < by-size {s} at t={t}");
        }
        // And the improvement is modest (the paper's conclusion): final
        // coverage difference is small.
        let gf = greedy.final_y().unwrap();
        let sf = by_size.final_y().unwrap();
        assert!(gf - sf < 0.1, "greedy {gf} vs size {sf}");
    }
}
