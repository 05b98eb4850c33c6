//! Quickstart: the whole pipeline on one domain, end to end.
//!
//! Generates a reference restaurant database and a synthetic web, renders
//! every page, runs the real extraction pipeline (phone scanner + review
//! classifier) over the rendered text, and computes the paper's coverage
//! analysis from the extracted relation.
//!
//! Run with `cargo run --release --example quickstart [scale]`.

use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct::corpus::page::PageConfig;
use webstruct::corpus::web::{Web, WebConfig};
use webstruct::corpus::ShardedWeb;
use webstruct::coverage::k_coverage;
use webstruct::extract::{train_review_classifier, Extractor};
use webstruct::util::par;
use webstruct::util::rng::Seed;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.05);
    let seed = Seed::DEFAULT;

    println!("== webstruct quickstart (scale {scale}) ==\n");

    // 1. The reference database: comprehensive entity list with
    //    identifying attributes (the paper's Yahoo! Business Listings).
    let n_entities = ((20_000.0 * scale) as usize).max(200);
    let catalog = EntityCatalog::generate(
        &CatalogConfig::new(Domain::Restaurants, n_entities),
        seed,
    );
    println!(
        "catalog: {} restaurants, e.g. {:?} at {}",
        catalog.len(),
        catalog.entities[0].name,
        catalog.entities[0].phone.expect("restaurants have phones"),
    );

    // 2. The synthetic web: aggregators, regional directories, niche blogs.
    let web = Web::generate(
        &catalog,
        &WebConfig::preset(Domain::Restaurants).scaled(scale),
        seed,
    );
    println!(
        "web: {} sites, {} (site, entity) mentions",
        web.n_sites(),
        web.n_mentions()
    );

    // 3. Render pages and extract — the expensive, honest path.
    let clf = train_review_classifier(seed.derive("nb"), 300).expect("balanced training set");
    let extractor = Extractor::new(&catalog).with_review_classifier(clf);
    let threads = par::num_threads();
    let sharded = ShardedWeb::rendered(
        &web,
        &catalog,
        PageConfig::default(),
        seed.derive("render"),
        threads,
    );
    let extracted = extractor
        .extract(&sharded, threads)
        .expect("rendered shards have no I/O to fail");
    println!(
        "extraction: {} pages processed, {} phone occurrences, {} review-page hits",
        extracted.pages_processed,
        extracted.total_occurrences(Attribute::Phone),
        extracted.total_occurrences(Attribute::Review),
    );

    // 4. The paper's coverage analysis on the *extracted* relation.
    let lists = extracted.occurrence_lists(Attribute::Phone);
    let cov = k_coverage(catalog.len(), &lists, 10).expect("valid relation");
    println!();
    let fig = cov.to_figure("fig1a", "Restaurants phones (extracted)");
    println!("{}", fig.ascii_plot(72, 18));
    for (k, target) in [(1, 0.9), (1, 0.99), (5, 0.9)] {
        match cov.sites_needed(k, target) {
            Some(t) => println!(
                "  k={k}: need the top {t} sites for {:.0}% coverage",
                target * 100.0
            ),
            None => println!(
                "  k={k}: {:.0}% coverage not reachable at this scale",
                target * 100.0
            ),
        }
    }
    println!("\nDone. See examples/restaurant_census.rs for the full §3 study.");
}
