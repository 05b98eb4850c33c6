//! The atlas: every domain of Table 1 surveyed in one run — corpus
//! statistics, coverage milestones, graph structure, and crawlability.
//!
//! Run with `cargo run --release --example domain_atlas [scale]`.

use webstruct::core::cache::Study;
use webstruct::core::experiments::connectivity::graph_metrics;
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::corpus::stats::web_stats;
use webstruct::coverage::k_coverage;
use webstruct::graph::{entity_degrees, sampled_avg_entity_distance, BipartiteGraph};
use webstruct::util::rng::Seed;
use webstruct::util::Table;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    println!("== domain atlas (scale {scale}) ==\n");
    let study = Study::new(
        webstruct::core::study::StudyConfig::default().with_scale(scale),
    );

    let mut table = Table::new(
        "Nine domains at a glance (identifying attribute)",
        &[
            "Domain",
            "Entities",
            "Sites",
            "Mentions",
            "Gini",
            "Top-10 cov",
            "Diameter",
            "Avg dist",
            "% largest",
        ],
    );
    for domain in Domain::ALL {
        let built = study.domain(domain);
        let attr = if domain == Domain::Books {
            Attribute::Isbn
        } else {
            Attribute::Phone
        };
        let stats = web_stats(&built.web, attr);
        let lists = built.occurrence_lists(attr, &study.config);
        let cov = k_coverage(built.catalog.len(), &lists, 1).expect("valid corpus");
        let graph =
            BipartiteGraph::from_occurrences(built.catalog.len(), &lists).expect("valid ids");
        let metrics = graph_metrics(&built, attr, &study.config);
        let avg_dist = sampled_avg_entity_distance(&graph, 8, Seed::DEFAULT)
            .map_or("n/a".to_string(), |d| format!("{d:.2}"));
        table.push_row(vec![
            domain.display_name().to_string(),
            built.catalog.len().to_string(),
            stats.nonempty_sites.to_string(),
            stats.mentions.to_string(),
            format!("{:.2}", stats.site_gini),
            format!("{:.2}", cov.coverage_at(1, 10)),
            metrics.diameter.to_string(),
            avg_dist,
            format!("{:.2}", metrics.pct_in_largest),
        ]);
        let deg = entity_degrees(&graph);
        println!(
            "{:<18} entity degree: mean {:.1}, max {}, tail exponent {}",
            domain.display_name(),
            deg.mean,
            deg.max,
            deg.tail_exponent
                .map_or("n/a".to_string(), |a| format!("{a:.2}")),
        );
    }
    println!("\n{}", table.to_text());
    println!(
        "Reading: high Gini = mention mass concentrated on aggregators; small\n\
         diameters + >99% largest components = the §5 connectivity findings; yet\n\
         top-10 coverage < 1 everywhere = the §3 tail-extraction motivation."
    );
}
