//! Figures 1–5: the spread-of-data experiments (§3 of the paper).

use crate::cache::Study;
use crate::study::{DomainStudy, StudyConfig};
use std::borrow::Cow;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_coverage::{aggregate_coverage, greedy_cover, k_coverage};
use webstruct_extract::phone_precision_study;
use webstruct_util::report::{Figure, Table};
use webstruct_util::EntityId;

/// Maximum k for the k-coverage sweeps: the paper plots k = 1..10.
pub const MAX_K: usize = 10;

/// The eight local-business domains, in the panel order (a)–(h) of
/// Figures 1 and 2.
const PANELS: [Domain; 8] = [
    Domain::Restaurants,
    Domain::Automotive,
    Domain::Banks,
    Domain::HotelsLodging,
    Domain::Libraries,
    Domain::RetailShopping,
    Domain::HomeGarden,
    Domain::Schools,
];

/// `lists`, one of `built`'s (domain, attribute) occurrence tables, on
/// its coverage universe, and that universe's size. For homepages the
/// universe is restricted to the entities that *have* a homepage — a
/// business without a website can never be covered, and the paper's
/// Figure 2 curves approach 1 — with ids remapped to that dense
/// sub-universe.
fn universe<'a>(
    built: &DomainStudy,
    attr: Attribute,
    lists: &'a [Vec<EntityId>],
) -> (usize, Cow<'a, [Vec<EntityId>]>) {
    if attr != Attribute::Homepage {
        return (built.catalog.len(), Cow::Borrowed(lists));
    }
    let mut has_homepage = vec![false; built.catalog.len()];
    for e in built.catalog.with_homepage() {
        has_homepage[e.id.index()] = true;
    }
    let (n, remapped) =
        homepage_universe(built.domain, &has_homepage, lists).unwrap_or_else(|e| panic!("{e}"));
    (n, Cow::Owned(remapped))
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

/// The k-coverage panel of `domain`'s `attr` over a universe of `n`
/// entities: a panel of Figure 1 (phones), 2 (homepages), 3 (ISBNs) or
/// 4(a) (reviews).
fn coverage_figure(domain: Domain, attr: Attribute, n: usize, lists: &[Vec<EntityId>]) -> Figure {
    let cov =
        k_coverage(n, lists, MAX_K).expect("generated corpora always have entities and valid ids");
    match attr {
        Attribute::Isbn => cov.to_figure("fig3", "Books books"),
        Attribute::Review => cov.to_figure("fig4a", "Restaurant Reviews"),
        Attribute::Phone | Attribute::Homepage => {
            let prefix = if attr == Attribute::Phone {
                "fig1"
            } else {
                "fig2"
            };
            let i = PANELS
                .iter()
                .position(|&d| d == domain)
                .expect("phones and homepages belong to the local-business domains");
            cov.to_figure(
                &format!("{prefix}{}", (b'a' + i as u8) as char),
                &format!("{} {}s", domain.display_name(), attr.slug()),
            )
        }
    }
}

/// Figure 5 from Restaurants' homepage `lists` on their universe of `n`.
fn greedy_figure(n: usize, lists: &[Vec<EntityId>]) -> Figure {
    let by_size = k_coverage(n, lists, 1).expect("valid corpus");
    let greedy = greedy_cover(n, lists).expect("valid corpus");
    let size_fig = by_size.to_figure("tmp", "tmp");
    webstruct_coverage::comparison_figure(
        "fig5",
        "Greedy Covering For Restaurant Homepages",
        &size_fig.series[0],
        &greedy,
    )
}

/// Figure 4(b) from Restaurants' per-site review-page lists.
pub(crate) fn review_pages_figure(pages: &[Vec<(EntityId, u32)>]) -> Figure {
    aggregate_coverage(pages).to_figure("fig4b", "Aggregate Reviews")
}

/// Every spread figure that `lists`, `built`'s occurrence table for
/// `attr`, feeds: its k-coverage panel, and Figure 5 for Restaurants
/// homepages (both from the one remapped universe).
pub(crate) fn attr_figures(
    built: &DomainStudy,
    attr: Attribute,
    lists: &[Vec<EntityId>],
) -> Vec<Figure> {
    let (n, lists) = universe(built, attr, lists);
    let mut figures = vec![coverage_figure(built.domain, attr, n, &lists)];
    if (built.domain, attr) == (Domain::Restaurants, Attribute::Homepage) {
        figures.push(greedy_figure(n, &lists));
    }
    figures
}

/// The spread family's figures, gathered from its domains in any order,
/// put in paper order. Their ids (`fig1a`…`fig1h`, `fig2a`…`fig2h`,
/// `fig3`, `fig4a`, `fig4b`, `fig5`) sort into it.
pub(crate) fn in_paper_order(mut figures: Vec<Figure>) -> Vec<Figure> {
    figures.sort_by(|a, b| a.id.cmp(&b.id));
    figures
}

/// One pass over `domain` for `attr`: its Figure 1, 2 or 3 panel.
pub(crate) fn coverage_pass(study: &Study, domain: Domain, attr: Attribute) -> Figure {
    let built = study.domain(domain);
    let lists = built.occurrence_lists(attr, &study.config);
    let (n, lists) = universe(&built, attr, &lists);
    coverage_figure(domain, attr, n, &lists)
}

/// Figure 1: spread of the phone attribute for the eight local-business
/// domains. Returns figures in the paper's (a)–(h) order.
pub fn fig1(study: &Study) -> Vec<Figure> {
    PANELS
        .iter()
        .map(|&d| coverage_pass(study, d, Attribute::Phone))
        .collect()
}

/// Figure 2: spread of the homepage attribute for the eight local-business
/// domains.
pub fn fig2(study: &Study) -> Vec<Figure> {
    PANELS
        .iter()
        .map(|&d| coverage_pass(study, d, Attribute::Homepage))
        .collect()
}

/// Figure 3: spread of book ISBN numbers.
pub fn fig3(study: &Study) -> Figure {
    coverage_pass(study, Domain::Books, Attribute::Isbn)
}

/// Figure 4(a): k-coverage of restaurant reviews; Figure 4(b): aggregate
/// review-page coverage. One pass over Restaurants.
pub fn fig4(study: &Study) -> (Figure, Figure) {
    let built = study.domain(Domain::Restaurants);
    let lists = built.occurrence_lists(Attribute::Review, &study.config);
    let fig4a = attr_figures(&built, Attribute::Review, &lists).swap_remove(0);
    let fig4b = review_pages_figure(&built.review_page_lists(&study.config));
    (fig4a, fig4b)
}

/// Figure 5: greedy set cover vs. order-by-size for restaurant homepages.
pub fn fig5(study: &Study) -> Figure {
    let built = study.domain(Domain::Restaurants);
    let lists = built.occurrence_lists(Attribute::Homepage, &study.config);
    let (n, lists) = universe(&built, Attribute::Homepage, &lists);
    greedy_figure(n, &lists)
}

/// §3.5's false-match study: render `built`'s pages with
/// `noise_per_page` valid-format noise phones each, extract, and score
/// the extracted (site, entity) pairs against the truth.
pub fn precision_table(built: &DomainStudy, config: &StudyConfig, noise_per_page: f64) -> Table {
    let r = phone_precision_study(
        &built.catalog,
        &built.web,
        noise_per_page,
        config.seed.derive("precision"),
    );
    let mut table = Table::new(
        format!(
            "{}: phone false matches under page noise",
            built.domain.display_name()
        ),
        &[
            "Noise per page",
            "Truth pairs",
            "Extracted pairs",
            "False positives",
            "Unmatched noise",
            "Precision",
            "Recall",
        ],
    );
    table.push_row(vec![
        noise_per_page.to_string(),
        r.truth_pairs.to_string(),
        r.extracted_pairs.to_string(),
        r.false_positives.to_string(),
        r.unmatched_noise.to_string(),
        format!("{:.6}", r.precision()),
        format!("{:.6}", r.recall()),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

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
