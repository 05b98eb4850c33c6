//! Extension experiment: the value of redundancy.
//!
//! Not a numbered figure in the paper, but the direct quantification of
//! its §2/§3.3 argument: k-coverage matters because corroborating an
//! extraction from k sources buys confidence. We generate noisy claims
//! from the corpus web (per-site-kind error rates), fuse them with three
//! strategies, and measure accuracy as a function of how many sources
//! corroborate each entity.

use crate::cache::Study;
use webstruct_corpus::domain::Domain;
use webstruct_fuse::{
    evaluate, redundancy_figure, ClaimSet, ErrorModel, FirstClaim, FusionReport,
    IterativeTrust, MajorityVote,
};
use webstruct_util::report::{Figure, Table};

/// Redundancy bucket cap (entities with more claims land in the top
/// bucket).
pub const MAX_REDUNDANCY: usize = 10;

/// Generate the claim corpus for a domain under the default error model.
pub fn claims_for(study: &Study, domain: Domain) -> ClaimSet {
    let built = study.domain(domain);
    ClaimSet::generate(
        &built.catalog,
        &built.web,
        &ErrorModel::default(),
        0.2,
        study.config.seed.derive("claims"),
    )
}

/// Run all three fusion strategies over one domain's claims.
pub fn fusion_reports(study: &Study, domain: Domain) -> Vec<FusionReport> {
    let claims = claims_for(study, domain);
    vec![
        evaluate(&FirstClaim, &claims, MAX_REDUNDANCY),
        evaluate(&MajorityVote, &claims, MAX_REDUNDANCY),
        evaluate(&IterativeTrust::default(), &claims, MAX_REDUNDANCY),
    ]
}

/// Overall accuracy of each fusion strategy over one domain's claims.
pub fn fusion_table(study: &Study, domain: Domain) -> Table {
    let mut table = Table::new(
        format!("{}: overall accuracy per fusion strategy", domain.display_name()),
        &["Strategy", "Accuracy", "Entities claimed"],
    );
    for r in fusion_reports(study, domain) {
        table.push_row(vec![
            r.strategy.to_string(),
            format!("{:.4}", r.accuracy),
            r.entities_claimed.to_string(),
        ]);
    }
    table
}

/// The extension figure: fused accuracy vs. corroborating sources.
pub fn redundancy_experiment(study: &Study, domain: Domain) -> Figure {
    let mut fig = redundancy_figure(&fusion_reports(study, domain));
    fig.id = format!("ext-redundancy-{}", domain.slug());
    fig.title = format!(
        "{}: extraction accuracy vs. corroborating sources",
        domain.display_name()
    );
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    #[test]
    fn fusion_beats_single_source_on_corpus_claims() {
        let study = Study::new(StudyConfig::quick());
        let reports = fusion_reports(&study, Domain::Restaurants);
        assert_eq!(reports.len(), 3);
        let first = &reports[0];
        let majority = &reports[1];
        let trust = &reports[2];
        assert_eq!(first.strategy, "first-claim");
        assert!(majority.accuracy > first.accuracy);
        assert!(trust.accuracy >= majority.accuracy - 0.01);
        assert!(majority.accuracy > 0.9);
    }

    #[test]
    fn redundancy_figure_is_monotoneish() {
        let study = Study::new(StudyConfig::quick());
        let fig = redundancy_experiment(&study, Domain::Banks);
        assert!(fig.id.contains("banks"));
        let majority = fig.series_named("majority").expect("majority series");
        // Accuracy at the top redundancy bucket beats the bottom one.
        let first = majority.points.first().unwrap().1;
        let last = majority.points.last().unwrap().1;
        assert!(
            last >= first,
            "majority accuracy should not degrade with redundancy: {first} -> {last}"
        );
    }
}
