//! Extension experiment: deduplication of extracted listings.
//!
//! §1 of the paper lists "deduplication and linking" among the stages of
//! the end-to-end web-extraction challenge. This experiment generates
//! noisy per-site listing records for a domain's catalog (name variants,
//! missing/wrong phones), runs the blocking + matching + clustering
//! pipeline from `webstruct-dedup`, and reports pairwise quality.

use crate::study::{DomainStudy, StudyConfig};
use webstruct_dedup::{
    dedup_and_evaluate, evaluate_blocking, generate_records, Blocking, BlockingReport,
    CandidateTable, DedupReport, VariantModel,
};
use webstruct_util::report::Table;

/// Records per entity in the linkage experiment (distinct "sites").
pub const RECORDS_PER_ENTITY: usize = 4;

/// Run dedup over `built`'s catalog under every blocking strategy.
pub fn dedup_reports(
    built: &DomainStudy,
    config: &StudyConfig,
) -> Vec<(BlockingReport, DedupReport)> {
    let records = generate_records(
        &built.catalog,
        RECORDS_PER_ENTITY,
        &VariantModel::default(),
        config.seed.derive("linkage"),
    );
    let table = CandidateTable::new(&records);
    [Blocking::Phone, Blocking::RegionFirstToken, Blocking::PhoneOrName]
        .into_iter()
        .map(|b| {
            (
                evaluate_blocking(&table, b),
                dedup_and_evaluate(&table, b),
            )
        })
        .collect()
}

/// Render the linkage experiment as a table.
pub fn linkage_table(built: &DomainStudy, config: &StudyConfig) -> Table {
    let mut table = Table::new(
        format!(
            "{}: deduplication of {}x noisy listings",
            built.domain.display_name(),
            RECORDS_PER_ENTITY
        ),
        &[
            "Blocking",
            "Candidates",
            "Block recall",
            "Precision",
            "Recall",
            "F1",
        ],
    );
    for (block, dedup) in dedup_reports(built, config) {
        table.push_row(vec![
            block.strategy.name().to_string(),
            block.candidates.to_string(),
            format!("{:.3}", block.pair_recall),
            format!("{:.3}", dedup.precision),
            format!("{:.3}", dedup.recall),
            format!("{:.3}", dedup.f1()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_corpus::domain::Domain;

    #[test]
    fn union_blocking_wins_on_f1() {
        let config = StudyConfig::quick();
        let reports = dedup_reports(&DomainStudy::generate(Domain::Restaurants, &config), &config);
        assert_eq!(reports.len(), 3);
        let f1 = |i: usize| reports[i].1.f1();
        // phone | name union dominates each alone.
        assert!(f1(2) >= f1(0) - 1e-9, "union {} vs phone {}", f1(2), f1(0));
        assert!(f1(2) >= f1(1) - 1e-9, "union {} vs name {}", f1(2), f1(1));
        assert!(f1(2) > 0.85, "union F1 {}", f1(2));
        // Precision stays high everywhere (phone veto + thresholds).
        for (_, d) in &reports {
            assert!(d.precision > 0.9, "{:?} precision {}", d.blocking, d.precision);
        }
    }

    #[test]
    fn table_renders_three_strategies() {
        let config = StudyConfig::quick();
        let t = linkage_table(&DomainStudy::generate(Domain::Banks, &config), &config);
        assert_eq!(t.rows.len(), 3);
        assert!(t.to_markdown().contains("phone|name"));
    }
}
