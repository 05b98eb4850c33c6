//! The §5 connectivity study as a working crawler: build the entity–site
//! graph, measure its components / diameter / robustness, then run the
//! "perfect" set-expansion algorithm from tiny seed sets and verify the
//! paper's d/2 iteration bound.
//!
//! Run with `cargo run --release --example bootstrap_discovery [scale]`.

use webstruct::core::bootstrap::bootstrap_expansion;
use webstruct::core::cache::Study;
use webstruct::core::experiments::connectivity::{build_graph, graph_metrics};
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::graph::robustness_sweep;
use webstruct::util::ids::EntityId;
use webstruct::util::rng::{Seed, Xoshiro256};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    println!("== bootstrap discovery (scale {scale}) ==\n");
    let study = Study::new(StudyConfig::default().with_scale(scale));
    let domain = Domain::Restaurants;
    let attr = Attribute::Phone;

    let built = study.domain(domain);
    let metrics = graph_metrics(&built, attr, &study.config);
    println!(
        "entity–site graph ({domain}, {attr}): avg {:.0} sites/entity, diameter {}{}, {} components, largest holds {:.2}% of entities",
        metrics.avg_sites_per_entity,
        metrics.diameter,
        if metrics.diameter_exact { "" } else { "+" },
        metrics.n_components,
        metrics.pct_in_largest,
    );
    let bound = (metrics.diameter as usize).div_ceil(2);
    println!("⇒ a perfect set-expansion crawler needs at most d/2 = {bound} iterations\n");

    let graph = build_graph(&built, attr, &study.config);
    let mut rng = Xoshiro256::from_seed(Seed::DEFAULT.derive("seeds"));
    for n_seeds in [1usize, 3, 10] {
        let seeds: Vec<EntityId> = (0..n_seeds)
            .map(|_| EntityId::new(rng.u64_below(graph.n_entities() as u64) as u32))
            .collect();
        let result = bootstrap_expansion(&graph, &seeds);
        println!(
            "seeds={n_seeds:>2}: {} iterations, {} sites discovered, recall {:.2}% of present entities{}",
            result.iterations,
            result.sites_found,
            100.0 * result.recall(&graph),
            if result.iterations <= bound + 1 { "  (within the d/2 bound)" } else { "  (!! exceeded bound)" },
        );
    }

    // Robustness: does discovery survive without the head aggregators?
    println!("\nrobustness to removing the top-k sites:");
    let sweep = robustness_sweep(&graph, 10);
    for p in sweep.iter().step_by(2) {
        println!(
            "  k={:>2}: largest component keeps {:.2}% of the original entities ({} components)",
            p.removed,
            100.0 * p.fraction_of_original,
            p.stats.n_components,
        );
    }
    println!(
        "\nConclusion (paper §5): content redundancy keeps the graph connected even\nwithout the top sites, so bootstrapping-based extraction is robust to seeds."
    );
}
