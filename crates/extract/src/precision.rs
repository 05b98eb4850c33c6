//! The §3.5 methodology-error study: how often do accidental
//! identifier-shaped strings falsely match the reference database?
//!
//! > "A second potential source of error is the false matching of
//! > identifying attributes. ... Based on small random samples, we
//! > observed that the regular expression matching of US phone numbers,
//! > URLs and ISBN numbers had a high accuracy. ... Even if false matches
//! > do creep in, they will only lead to over-estimation of the coverage."
//!
//! This module measures that precisely on the synthetic web: pages are
//! rendered with a configurable volume of valid-format noise numbers, the
//! pipeline runs, and extracted (site, entity) pairs are compared against
//! the generative ground truth.

use crate::pipeline::Extractor;
use webstruct_corpus::domain::Attribute;
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::shard::ShardedWeb;
use webstruct_corpus::web::Web;
use webstruct_util::hash::FxHashSet;
use webstruct_util::ids::{EntityId, SiteId};
use webstruct_util::rng::Seed;

/// Result of the precision study.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionReport {
    /// Ground-truth (site, entity) pairs for the attribute.
    pub truth_pairs: usize,
    /// Extracted pairs.
    pub extracted_pairs: usize,
    /// Extracted pairs that are in the ground truth.
    pub true_positives: usize,
    /// Extracted pairs *not* in the ground truth — accidental collisions.
    pub false_positives: usize,
    /// Valid-format noise numbers that were scanned but matched nothing.
    pub unmatched_noise: u64,
}

impl PrecisionReport {
    /// Pair-level precision.
    #[must_use]
    pub fn precision(&self) -> f64 {
        if self.extracted_pairs == 0 {
            return 1.0;
        }
        self.true_positives as f64 / self.extracted_pairs as f64
    }

    /// Pair-level recall.
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.truth_pairs == 0 {
            return 1.0;
        }
        self.true_positives as f64 / self.truth_pairs as f64
    }
}

/// Run the phone-precision study: render pages with `noise_per_page`
/// expected valid-format noise phones per listing page, extract, and
/// compare to ground truth.
#[must_use]
pub fn phone_precision_study(
    catalog: &EntityCatalog,
    web: &Web,
    noise_per_page: f64,
    seed: Seed,
) -> PrecisionReport {
    let config = PageConfig {
        noise_valid_phone_rate: noise_per_page,
        ..PageConfig::default()
    };
    let extractor = Extractor::new(catalog);
    let extracted = extractor
        .extract(&ShardedWeb::rendered(web, catalog, config, seed, 1), 1)
        .expect("rendered shards have no I/O to fail");

    let truth: FxHashSet<(SiteId, EntityId)> = web
        .occurrence_lists(Attribute::Phone)
        .iter()
        .enumerate()
        .flat_map(|(s, l)| {
            l.iter()
                .map(move |&e| (SiteId::new(s as u32), e))
        })
        .collect();
    let got: FxHashSet<(SiteId, EntityId)> = extracted
        .occurrence_lists(Attribute::Phone)
        .iter()
        .enumerate()
        .flat_map(|(s, l)| {
            l.iter()
                .map(move |&e| (SiteId::new(s as u32), e))
        })
        .collect();
    let true_positives = got.intersection(&truth).count();
    PrecisionReport {
        truth_pairs: truth.len(),
        extracted_pairs: got.len(),
        true_positives,
        false_positives: got.len() - true_positives,
        unmatched_noise: extracted.unmatched_phones,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_corpus::domain::Domain;
    use webstruct_corpus::entity::CatalogConfig;
    use webstruct_corpus::web::WebConfig;

    fn fixture() -> (EntityCatalog, Web) {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 500), Seed(81));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Restaurants).scaled(0.02),
            Seed(81),
        );
        (catalog, web)
    }

    #[test]
    fn no_noise_means_perfect_extraction() {
        let (catalog, web) = fixture();
        let report = phone_precision_study(&catalog, &web, 0.0, Seed(82));
        assert_eq!(report.false_positives, 0);
        assert_eq!(report.precision(), 1.0);
        assert_eq!(report.recall(), 1.0);
        assert!(report.truth_pairs > 0);
    }

    #[test]
    fn heavy_noise_barely_dents_precision() {
        // The paper's argument: the identifier space is so much larger
        // than the database that accidental collisions are negligible.
        // 500 catalog phones / ~6.3e9 valid numbers → collision odds per
        // noise number ≈ 8e-8.
        let (catalog, web) = fixture();
        let report = phone_precision_study(&catalog, &web, 3.0, Seed(82));
        assert!(
            report.unmatched_noise > 1_000,
            "noise must actually be scanned: {}",
            report.unmatched_noise
        );
        assert!(
            report.precision() > 0.999,
            "precision {} despite heavy noise",
            report.precision()
        );
        assert_eq!(report.recall(), 1.0, "noise must not mask true mentions");
    }

    #[test]
    fn false_matches_only_inflate_coverage() {
        // §3.5: "false matches ... will only lead to over-estimation of
        // the coverage" — extracted pairs are a superset of truth.
        let (catalog, web) = fixture();
        let report = phone_precision_study(&catalog, &web, 3.0, Seed(83));
        assert_eq!(
            report.true_positives, report.truth_pairs,
            "every true pair must still be found"
        );
        assert!(report.extracted_pairs >= report.truth_pairs);
    }

    #[test]
    fn report_edge_cases() {
        let empty = PrecisionReport {
            truth_pairs: 0,
            extracted_pairs: 0,
            true_positives: 0,
            false_positives: 0,
            unmatched_noise: 0,
        };
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
    }
}
