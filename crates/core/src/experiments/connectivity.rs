//! Table 2 and Figure 9: connectivity of the entity–site graphs (§5).

use crate::bootstrap::bootstrap_expansion;
use crate::cache::Study;
use crate::study::{DomainStudy, StudyConfig};
use webstruct_corpus::domain::{identifying_attribute, Attribute, Domain};
use webstruct_graph::{ifub_diameter, robustness_series, robustness_sweep, BipartiteGraph};
use webstruct_util::ids::EntityId;
use webstruct_util::report::{Figure, Series, Table};
use webstruct_util::rng::Xoshiro256;

/// BFS budget for the exact-diameter computation. Above it, Table 2
/// prints a `+` lower bound instead of the diameter. The margin is not
/// wide: at scale 3 the Hotels & Lodging homepage graph needs 35,819 BFS
/// (72% of the budget), and the budget is what keeps such graphs from
/// running unbounded.
pub const DIAMETER_BFS_BUDGET: u32 = 50_000;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphMetricsRow {
    /// Domain of the graph.
    pub domain: Domain,
    /// Attribute inducing the graph.
    pub attr: Attribute,
    /// Average number of sites per present entity.
    pub avg_sites_per_entity: f64,
    /// Diameter of the giant component.
    pub diameter: u32,
    /// Whether the diameter is exact (iFUB converged within budget).
    pub diameter_exact: bool,
    /// Number of connected components.
    pub n_components: usize,
    /// Percentage of present entities inside the largest component.
    pub pct_in_largest: f64,
}

/// The eight local-business domains, in the row order Table 2 and
/// Figure 9 share.
const LOCALS: [Domain; 8] = [
    Domain::Automotive,
    Domain::Banks,
    Domain::HomeGarden,
    Domain::HotelsLodging,
    Domain::Libraries,
    Domain::Restaurants,
    Domain::RetailShopping,
    Domain::Schools,
];

/// Removals plotted by Figure 9: k = 0..=10.
const FIG9_MAX_K: usize = 10;

/// Figure 9's panels: id, title and the attribute whose graphs each
/// plots, one series per Table 2 graph of that attribute.
const FIG9_PANELS: [(&str, &str, Attribute); 3] = [
    ("fig9a", "Robustness: Phones", Attribute::Phone),
    ("fig9b", "Robustness: Home Pages", Attribute::Homepage),
    ("fig9c", "Robustness: Book ISBN", Attribute::Isbn),
];

/// The (domain, attribute) pairs of Table 2, in the paper's row order.
#[must_use]
pub fn table2_graphs() -> Vec<(Domain, Attribute)> {
    let mut rows = vec![(Domain::Books, Attribute::Isbn)];
    rows.extend(LOCALS.map(|d| (d, Attribute::Phone)));
    rows.extend(LOCALS.map(|d| (d, Attribute::Homepage)));
    rows
}

/// Build `built`'s entity–site graph for `attr`.
pub fn build_graph(built: &DomainStudy, attr: Attribute, config: &StudyConfig) -> BipartiteGraph {
    graph_of(built.catalog.len(), &built.occurrence_lists(attr, config))
}

/// The entity–site graph of occurrence `lists` over `n_entities`.
fn graph_of(n_entities: usize, lists: &[Vec<EntityId>]) -> BipartiteGraph {
    BipartiteGraph::from_occurrences(n_entities, lists).expect("generated ids are always in range")
}

/// Figure 9's series and Table 2's row for one Table 2 graph.
pub(crate) type GraphPiece = (Series, GraphMetricsRow);

/// The piece of the graph that `lists`, `domain`'s occurrence table for
/// `attr` over `n_entities`, induces, or `None` when Table 2 has no such
/// graph (reviews): one build, one robustness sweep and one iFUB. The
/// row's component columns come from the sweep's `k = 0` point, which
/// is the whole graph.
pub(crate) fn graph_piece(
    domain: Domain,
    attr: Attribute,
    n_entities: usize,
    lists: &[Vec<EntityId>],
) -> Option<GraphPiece> {
    if attr == Attribute::Review {
        return None;
    }
    let graph = graph_of(n_entities, lists);
    let sweep = robustness_sweep(&graph, FIG9_MAX_K);
    let full = &sweep[0].stats;
    let diameter = ifub_diameter(&graph, DIAMETER_BFS_BUDGET);
    let row = GraphMetricsRow {
        domain,
        attr,
        avg_sites_per_entity: graph.avg_sites_per_entity(),
        diameter: diameter.value,
        diameter_exact: diameter.exact,
        n_components: full.n_components,
        pct_in_largest: 100.0 * full.largest_fraction(),
    };
    Some((robustness_series(domain.display_name(), &sweep), row))
}

/// Every Table 2 graph's piece, one pass per domain.
fn pieces(study: &Study) -> Vec<GraphPiece> {
    let mut pieces = Vec::new();
    for domain in std::iter::once(Domain::Books).chain(LOCALS) {
        let built = study.domain(domain);
        for &attr in domain
            .attributes()
            .iter()
            .filter(|&&a| a != Attribute::Review)
        {
            let lists = built.occurrence_lists(attr, &study.config);
            pieces.extend(graph_piece(domain, attr, built.catalog.len(), &lists));
        }
    }
    pieces
}

/// Figure 9 and Table 2's rows, in the paper's order, from the pieces of
/// all 17 graphs, given in any order.
pub(crate) fn family(mut pieces: Vec<GraphPiece>) -> (Vec<Figure>, Vec<GraphMetricsRow>) {
    let order = table2_graphs();
    pieces.sort_by_key(|(_, r)| order.iter().position(|&g| g == (r.domain, r.attr)));
    let figures = FIG9_PANELS
        .iter()
        .map(|&(id, title, attr)| {
            let mut fig = fig9_panel(id, title);
            for (series, row) in &pieces {
                if row.attr == attr {
                    fig.push(series.clone());
                }
            }
            fig
        })
        .collect();
    (figures, pieces.into_iter().map(|(_, r)| r).collect())
}

/// An empty Figure 9 panel.
fn fig9_panel(id: &str, title: &str) -> Figure {
    Figure::new(id, title).with_axes("Top-K sites removed", "Fraction in Largest Component")
}

/// Compute `built`'s Table 2 row for `attr`.
///
/// # Panics
/// Panics for reviews, which induce no Table 2 graph.
pub fn graph_metrics(
    built: &DomainStudy,
    attr: Attribute,
    config: &StudyConfig,
) -> GraphMetricsRow {
    let lists = built.occurrence_lists(attr, config);
    graph_piece(built.domain, attr, built.catalog.len(), &lists)
        .expect("Table 2 has a graph for every attribute but reviews")
        .1
}

/// §5.2's set expansion on `built`'s graph: iterations and recall from
/// 1 and then 5 random seeds, beside the crawler bound d/2.
pub fn bootstrap_table(built: &DomainStudy, config: &StudyConfig) -> Table {
    let domain = built.domain;
    let attr = identifying_attribute(domain);
    let graph = build_graph(built, attr, config);
    let diameter = ifub_diameter(&graph, DIAMETER_BFS_BUDGET).value;
    let mut table = Table::new(
        format!("{domain} / {attr}: set expansion vs. the d/2 bound"),
        &["Seeds", "Diameter", "Bound d/2", "Iterations", "Recall %"],
    );
    let mut rng = Xoshiro256::from_seed(config.seed.derive("cli-seeds"));
    for n_seeds in [1usize, 5] {
        let seeds: Vec<EntityId> = (0..n_seeds)
            .map(|_| EntityId::new(rng.u64_below(graph.n_entities() as u64) as u32))
            .collect();
        let r = bootstrap_expansion(&graph, &seeds);
        table.push_row(vec![
            n_seeds.to_string(),
            diameter.to_string(),
            (diameter as usize).div_ceil(2).to_string(),
            r.iterations.to_string(),
            format!("{:.2}", 100.0 * r.recall(&graph)),
        ]);
    }
    table
}

/// All 17 rows of Table 2, one pass per domain.
pub fn table2_rows(study: &Study) -> Vec<GraphMetricsRow> {
    family(pieces(study)).1
}

/// Table 2 rendered as a report table.
pub fn table2(study: &Study) -> Table {
    render_table2(table2_rows(study))
}

/// Table 2 from its rows, in the order given.
pub(crate) fn render_table2(rows: Vec<GraphMetricsRow>) -> Table {
    let mut table = Table::new(
        "Table 2: Entity-Site Graphs and Metrics",
        &[
            "Domain",
            "Attr",
            "Avg #sites per entity",
            "diameter",
            "# conn. comp.",
            "% entities in largest comp.",
        ],
    );
    for row in rows {
        table.push_row(vec![
            row.domain.display_name().to_string(),
            row.attr.slug().to_string(),
            format!("{:.0}", row.avg_sites_per_entity),
            format!(
                "{}{}",
                row.diameter,
                if row.diameter_exact { "" } else { "+" }
            ),
            row.n_components.to_string(),
            format!("{:.2}", row.pct_in_largest),
        ]);
    }
    table
}

/// Figure 9: fraction of entities in the largest component after removing
/// the top-k sites, k = 0..10. Three panels: (a) phones for the eight
/// local domains, (b) homepages, (c) book ISBNs. One pass per domain,
/// which also finds Table 2's rows.
pub fn fig9(study: &Study) -> Vec<Figure> {
    family(pieces(study)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::DataSource;
    use webstruct_graph::component_stats;

    fn quick_study() -> Study {
        Study::new(StudyConfig::quick())
    }

    #[test]
    fn table2_has_seventeen_rows_in_paper_order() {
        let graphs = table2_graphs();
        assert_eq!(graphs.len(), 17);
        assert_eq!(graphs[0], (Domain::Books, Attribute::Isbn));
        assert!(graphs[1..9].iter().all(|&(_, a)| a == Attribute::Phone));
        assert!(graphs[9..].iter().all(|&(_, a)| a == Attribute::Homepage));
    }

    #[test]
    fn metrics_match_paper_shape_for_phones() {
        let config = StudyConfig::quick();
        let built = DomainStudy::generate(Domain::Restaurants, &config);
        let row = graph_metrics(&built, Attribute::Phone, &config);
        assert!(row.diameter_exact, "iFUB should converge");
        assert!(
            (4..=12).contains(&row.diameter),
            "diameter {} outside the paper's small-world range",
            row.diameter
        );
        assert!(
            row.pct_in_largest > 99.0,
            "largest component {}% (paper: >99%)",
            row.pct_in_largest
        );
        assert!(
            row.avg_sites_per_entity > 3.0,
            "avg sites/entity {}",
            row.avg_sites_per_entity
        );
    }

    #[test]
    fn family_is_byte_identical_to_fig9_and_table2() {
        for source in [DataSource::Oracle, DataSource::Extracted] {
            let config = StudyConfig::quick().with_source(source);
            let study = Study::new(config.clone());
            // Pieces in reverse Table 2 order: the assembly orders them.
            let pieces = table2_graphs()
                .into_iter()
                .rev()
                .filter_map(|(domain, attr)| {
                    let built = study.domain(domain);
                    let lists = built.occurrence_lists(attr, &config);
                    graph_piece(domain, attr, built.catalog.len(), &lists)
                })
                .collect();
            let (figures, rows) = family(pieces);
            let table = render_table2(rows);
            let (want_figs, want_table) = (fig9(&study), table2(&study));
            assert_eq!(figures.len(), want_figs.len(), "{source:?}");
            for (got, want) in figures.iter().zip(&want_figs) {
                assert_eq!(got.to_dat(), want.to_dat(), "{source:?} {}", want.id);
            }
            assert_eq!(table.to_markdown(), want_table.to_markdown(), "{source:?}");
        }
    }

    #[test]
    fn corpus_sweeps_match_per_k_component_stats() {
        let study = Study::new(StudyConfig::quick().with_scale(0.02));
        for (domain, attr) in table2_graphs() {
            let graph = build_graph(&study.domain(domain), attr, &study.config);
            let order = graph.sites_by_size();
            let sweep = robustness_sweep(&graph, FIG9_MAX_K);
            assert_eq!(sweep.len(), FIG9_MAX_K.min(order.len()) + 1);
            let baseline = component_stats(&graph, &[]);
            for p in &sweep {
                let stats = component_stats(&graph, &order[..p.removed]);
                let want = if baseline.entities_present == 0 {
                    0.0
                } else {
                    stats.largest_entities as f64 / baseline.entities_present as f64
                };
                assert_eq!(p.stats, stats, "{domain:?} {attr:?} k {}", p.removed);
                assert_eq!(
                    p.fraction_of_original.to_bits(),
                    want.to_bits(),
                    "{domain:?} {attr:?} k {}",
                    p.removed
                );
            }
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let study = quick_study();
        let t = table2(&study);
        assert_eq!(t.rows.len(), 17);
        let md = t.to_markdown();
        assert!(md.contains("Books"));
        assert!(md.contains("homepage"));
    }

    #[test]
    fn fig9_panels_and_robustness() {
        // Robustness depends on tail-site mass, so this test runs at a
        // larger scale than the other quick tests.
        let study = Study::new(StudyConfig::quick().with_scale(0.2));
        let panels = fig9(&study);
        assert_eq!(panels.len(), 3);
        assert_eq!(panels[0].series.len(), 8);
        assert_eq!(panels[1].series.len(), 8);
        assert_eq!(panels[2].series.len(), 1);
        for panel in &panels {
            // Identifier graphs (phones, ISBNs) are denser than homepage
            // graphs; the paper reports >99% vs. >90% for them. Quick-scale
            // corpora are a little noisier, so thresholds carry margin.
            // (Full-scale calibration asserts tighter bounds in the
            // integration tests; quick scale keeps generous margins.)
            let (k0_min, k10_min) = if panel.id == "fig9b" {
                (0.80, 0.55)
            } else {
                (0.96, 0.88)
            };
            for s in &panel.series {
                assert_eq!(s.points.len(), 11, "k = 0..=10");
                // At k=0 the y value is the full-graph largest-component
                // fraction — near (but not exactly) 1, as in Table 2.
                assert!(
                    s.points[0].1 > k0_min,
                    "{} {}: k=0 fraction {}",
                    panel.id,
                    s.name,
                    s.points[0].1
                );
                // Monotone non-increasing in k.
                assert!(s.points.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-9));
                // The paper's robustness finding: even after removing the
                // top 10 sites, the largest component keeps the vast
                // majority of entities.
                let k10 = s.points[10].1;
                assert!(
                    k10 > k10_min,
                    "{} {}: fraction after top-10 removal {k10}",
                    panel.id,
                    s.name
                );
            }
        }
    }
}
