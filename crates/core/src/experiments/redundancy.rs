//! Extension experiment: the value of redundancy.
//!
//! Not a numbered figure in the paper, but the direct quantification of
//! its §2/§3.3 argument: k-coverage matters because corroborating an
//! extraction from k sources buys confidence. We generate noisy claims
//! from the corpus web (per-site-kind error rates), fuse them with three
//! strategies, and measure accuracy as a function of how many sources
//! corroborate each entity.

use crate::study::{DomainStudy, StudyConfig};
use webstruct_fuse::{
    evaluate, redundancy_figure, ClaimSet, ErrorModel, FirstClaim, FusionReport,
    IterativeTrust, MajorityVote,
};
use webstruct_util::report::{Figure, Table};

/// Redundancy bucket cap (entities with more claims land in the top
/// bucket).
pub const MAX_REDUNDANCY: usize = 10;

/// Run all three fusion strategies over `built`'s claims, generated under
/// the default error model.
pub fn fusion_reports(built: &DomainStudy, config: &StudyConfig) -> Vec<FusionReport> {
    let claims = ClaimSet::generate(
        &built.catalog,
        &built.web,
        &ErrorModel::default(),
        0.2,
        config.seed.derive("claims"),
    );
    vec![
        evaluate(&FirstClaim, &claims, MAX_REDUNDANCY),
        evaluate(&MajorityVote, &claims, MAX_REDUNDANCY),
        evaluate(&IterativeTrust::default(), &claims, MAX_REDUNDANCY),
    ]
}

/// Overall accuracy of each fusion strategy over `built`'s claims.
pub fn fusion_table(built: &DomainStudy, config: &StudyConfig) -> Table {
    let mut table = Table::new(
        format!("{}: overall accuracy per fusion strategy", built.domain.display_name()),
        &["Strategy", "Accuracy", "Entities claimed"],
    );
    for r in fusion_reports(built, config) {
        table.push_row(vec![
            r.strategy.to_string(),
            format!("{:.4}", r.accuracy),
            r.entities_claimed.to_string(),
        ]);
    }
    table
}

/// The extension figure: fused accuracy vs. corroborating sources.
pub fn redundancy_experiment(built: &DomainStudy, config: &StudyConfig) -> Figure {
    let domain = built.domain;
    let mut fig = redundancy_figure(&fusion_reports(built, config));
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
    use webstruct_corpus::domain::Domain;

    #[test]
    fn fusion_beats_single_source_on_corpus_claims() {
        let config = StudyConfig::quick();
        let reports = fusion_reports(&DomainStudy::generate(Domain::Restaurants, &config), &config);
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
        let config = StudyConfig::quick();
        let fig = redundancy_experiment(&DomainStudy::generate(Domain::Banks, &config), &config);
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
