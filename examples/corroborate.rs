//! The value of redundancy (extension of §2/§3.3): fuse noisy per-source
//! phone claims and measure how accuracy grows with the number of
//! corroborating sites — the reason the paper's k-coverage analysis goes
//! beyond k = 1.
//!
//! Run with `cargo run --release --example corroborate [scale]`.

use webstruct::core::cache::Study;
use webstruct::core::experiments::redundancy;
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::Domain;
use webstruct::fuse::{evaluate, ClaimSet, ErrorModel, FirstClaim, MajorityVote};
use webstruct::util::rng::Seed;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    println!("== corroborated extraction (scale {scale}) ==\n");
    let study = Study::new(StudyConfig::default().with_scale(scale));

    let restaurants = study.domain(Domain::Restaurants);
    let fig = redundancy::redundancy_experiment(&restaurants, &study.config);
    println!("{}", fig.ascii_plot(72, 16));
    for r in redundancy::fusion_reports(&restaurants, &study.config) {
        println!(
            "  {:<16} overall accuracy {:.4} ({} entities claimed)",
            r.strategy, r.accuracy, r.entities_claimed
        );
    }

    // Sensitivity: how bad can sources get before majority voting cracks?
    println!("\nsensitivity to source quality (majority vote, Banks):");
    let built = study.domain(Domain::Banks);
    for niche_error in [0.1, 0.3, 0.5, 0.7] {
        let model = ErrorModel {
            aggregator: niche_error / 4.0,
            regional: niche_error / 2.0,
            niche: niche_error,
        };
        let claims = ClaimSet::generate(&built.catalog, &built.web, &model, 0.2, Seed(7));
        let majority = evaluate(&MajorityVote, &claims, 10);
        let first = evaluate(&FirstClaim, &claims, 10);
        println!(
            "  niche error {niche_error:.1}: majority {:.4} vs single-source {:.4}",
            majority.accuracy, first.accuracy
        );
    }
    println!(
        "\nConclusion: redundancy across the tail (what k-coverage measures) converts\n\
         noisy per-site extractions into a reliable database — the paper's rationale\n\
         for studying k-coverage with k up to 10."
    );
}
