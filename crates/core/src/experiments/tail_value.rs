//! Figures 6–8: demand and the value of tail extraction (§4).

use crate::cache::Study;
use webstruct_demand::{
    cdf_figure, fig7 as demand_fig7, fig8 as demand_fig8, pdf_figure, Channel, InfoDecay,
    StudySite, TrafficStudy,
};
use webstruct_util::report::{Figure, Table};

/// Every site's traffic study, in [`StudySite::ALL`] order.
pub type Traffic = [TrafficStudy; 3];

/// Simulate every site's traffic study once.
pub fn simulate(study: &Study) -> Traffic {
    StudySite::ALL.map(|s| study.traffic(s))
}

/// Figures 6–8 from one simulated traffic set, in paper order.
pub(crate) fn figures(traffic: &Traffic) -> Vec<Figure> {
    let mut figures = fig6_of(traffic);
    figures.extend(per_site(traffic, demand_fig7));
    figures.extend(per_site(traffic, |t| demand_fig8(t, InfoDecay::InverseLinear)));
    figures
}

/// Figure 6's four panels from `traffic`.
fn fig6_of(traffic: &Traffic) -> Vec<Figure> {
    let refs: Vec<&TrafficStudy> = traffic.iter().collect();
    vec![
        cdf_figure(&refs, Channel::Search),
        pdf_figure(&refs, Channel::Search),
        cdf_figure(&refs, Channel::Browse),
        pdf_figure(&refs, Channel::Browse),
    ]
}

/// One panel per site, drawn by `panel`, in the order of Figures 7 and 8
/// (yelp, amazon, imdb): [`StudySite::ALL`] reversed.
fn per_site(traffic: &Traffic, panel: impl Fn(&TrafficStudy) -> Figure) -> Vec<Figure> {
    traffic.iter().rev().map(panel).collect()
}

/// Figure 6: the four aggregate demand panels — CDF and PDF for search and
/// browse data, each with one curve per site (imdb, amazon, yelp).
pub fn fig6(study: &Study) -> Vec<Figure> {
    fig6_of(&simulate(study))
}

/// Figure 7: normalized demand vs. number of existing reviews, one panel
/// per site (yelp, amazon, imdb — the paper's order).
pub fn fig7(study: &Study) -> Vec<Figure> {
    per_site(&simulate(study), demand_fig7)
}

/// Figure 8: average relative value-add `VA(n)/VA(0)`, one panel per site.
pub fn fig8(study: &Study) -> Vec<Figure> {
    fig8_with_decay(study, InfoDecay::InverseLinear)
}

/// Figure 8 under an alternative information-decay model (the paper's
/// step-function discussion).
pub fn fig8_with_decay(study: &Study, decay: InfoDecay) -> Vec<Figure> {
    per_site(&simulate(study), |t| demand_fig8(t, decay))
}

/// Extension: the user-level tail analysis §4.2 cites from Goel et al. —
/// tail entities hold a minority of demand yet nearly every user touches
/// them.
pub fn user_tail_table(traffic: &Traffic) -> Table {
    let mut table = Table::new(
        "User-level tail analysis (tail = bottom 80% of inventory)",
        &[
            "Site",
            "Channel",
            "Tail demand share",
            "Users touching tail",
            "Regular tail users",
        ],
    );
    for t in traffic {
        for (channel, stats) in [
            ("search", t.tail_stats_search),
            ("browse", t.tail_stats_browse),
        ] {
            table.push_row(vec![
                t.site.slug().to_string(),
                channel.to_string(),
                format!("{:.1}%", 100.0 * stats.tail_demand_share),
                format!("{:.1}%", 100.0 * stats.touching_fraction()),
                format!("{:.1}%", 100.0 * stats.regular_fraction()),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    fn quick_study() -> Study {
        Study::new(StudyConfig::quick())
    }

    #[test]
    fn fig6_has_four_panels_of_three_sites() {
        let study = quick_study();
        let figs = fig6(&study);
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert_eq!(f.series.len(), 3, "{}", f.id);
            assert!(f.series_named("imdb").is_some());
            assert!(f.series_named("yelp").is_some());
        }
        assert!(figs[1].log_x && figs[1].log_y, "pdf panels are log-log");
    }

    #[test]
    fn fig6_ordering_imdb_sharpest() {
        let study = quick_study();
        let figs = fig6(&study);
        // In the CDF panel, at 20% inventory imdb > amazon > yelp.
        let cdf = &figs[0];
        let at = |name: &str| cdf.series_named(name).unwrap().interpolate(0.2).unwrap();
        let (i, a, y) = (at("imdb"), at("amazon"), at("yelp"));
        assert!(i > a && a > y, "imdb {i}, amazon {a}, yelp {y}");
        assert!(i > 0.85, "imdb top-20% share {i}");
    }

    #[test]
    fn fig7_demand_rises_with_reviews() {
        let study = quick_study();
        let figs = fig7(&study);
        assert_eq!(figs.len(), 3);
        for f in &figs {
            for s in &f.series {
                let first = s.points.first().unwrap().1;
                let last = s.points.last().unwrap().1;
                assert!(
                    last > first,
                    "{} {}: head z-demand {last} should exceed tail {first}",
                    f.id,
                    s.name
                );
            }
        }
    }

    #[test]
    fn fig8_shapes_match_paper() {
        let study = quick_study();
        let figs = fig8(&study);
        assert_eq!(figs.len(), 3);
        for f in &figs {
            for s in &f.series {
                assert!(!s.points.is_empty(), "{} {}", f.id, s.name);
                assert!((s.points[0].1 - 1.0).abs() < 1e-9, "VA(0)/VA(0) = 1");
            }
        }
        // Yelp and Amazon decline at the head.
        for f in &figs[..2] {
            for s in &f.series {
                assert!(
                    s.points.last().unwrap().1 < 1.0,
                    "{} {}: head ratio should fall below 1",
                    f.id,
                    s.name
                );
            }
        }
        // Imdb has an interior bump above 1.
        let imdb = &figs[2];
        for s in &imdb.series {
            let max = s
                .points
                .iter()
                .map(|&(_, y)| y)
                .fold(f64::MIN, f64::max);
            assert!(max > 1.0, "imdb {}: bump {max}", s.name);
            assert!(
                s.points.last().unwrap().1 < max,
                "imdb {}: head must fall from the bump",
                s.name
            );
        }
    }

    #[test]
    fn user_tail_table_has_six_rows() {
        let table = user_tail_table(&simulate(&quick_study()));
        assert_eq!(table.rows.len(), 6);
        let md = table.to_markdown();
        assert!(md.contains("imdb"));
        assert!(md.contains("browse"));
    }

    #[test]
    fn step_decay_variant_runs() {
        let study = quick_study();
        let figs = fig8_with_decay(&study, InfoDecay::Step(10));
        assert_eq!(figs.len(), 3);
        // Step decay zeroes head-bin value-add entirely.
        for f in &figs {
            for s in &f.series {
                assert!(s.points.last().unwrap().1 < 0.5, "{} {}", f.id, s.name);
            }
        }
    }
}
