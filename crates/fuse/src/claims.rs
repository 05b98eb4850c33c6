//! Claims: per-source assertions about a closed attribute's value.
//!
//! §2 of the paper motivates redundancy: *"What if we want some redundancy
//! in the data sources to overcome errors introduced by a single source
//! (e.g., mistakes in the underlying database or noise in the
//! extraction)?"* and §3.3 analyses k-coverage precisely because *"one may
//! be looking for a piece of information from k different sources to place
//! a high confidence in the extraction."*
//!
//! This module turns a generated web into a claim corpus: each (site,
//! entity) mention asserts a value for the identifying attribute, correct
//! with a per-site reliability, corrupted otherwise.

use webstruct_corpus::domain::{identifying_attribute, Attribute};
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::phone::PhoneNumber;
use webstruct_corpus::site::SiteKind;
use webstruct_corpus::web::Web;
use webstruct_util::ids::{EntityId, SiteId};
use webstruct_util::rng::{Seed, Xoshiro256};

/// One source's assertion of an entity's attribute value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The asserting site.
    pub source: SiteId,
    /// The entity the claim is about.
    pub entity: EntityId,
    /// The claimed value (canonical phone digits / ISBN core).
    pub value: u64,
}

/// Per-site-kind error rates for claim generation.
#[derive(Debug, Clone, Copy)]
pub struct ErrorModel {
    /// P(wrong value) on aggregator sites (clean, curated feeds).
    pub aggregator: f64,
    /// P(wrong value) on regional directories.
    pub regional: f64,
    /// P(wrong value) on niche sites (stale listings, typos).
    pub niche: f64,
}

impl Default for ErrorModel {
    fn default() -> Self {
        ErrorModel {
            aggregator: 0.02,
            regional: 0.08,
            niche: 0.20,
        }
    }
}

impl ErrorModel {
    /// Error rate for a site kind.
    #[must_use]
    pub fn rate(&self, kind: SiteKind) -> f64 {
        match kind {
            SiteKind::Aggregator => self.aggregator,
            SiteKind::Regional => self.regional,
            SiteKind::Niche => self.niche,
        }
    }
}

/// A claim corpus grouped by entity, with the ground truth retained for
/// evaluation.
#[derive(Debug, Clone)]
pub struct ClaimSet {
    /// Number of entities in the universe.
    pub n_entities: usize,
    /// Number of sites.
    pub n_sites: usize,
    /// Claims about each entity (indexed by `EntityId::index()`).
    pub by_entity: Vec<Vec<Claim>>,
    /// The true value of each entity's attribute.
    pub truth: Vec<u64>,
    /// Ground-truth per-site error rates (for diagnostics; fusion
    /// strategies must not read this).
    pub true_error_rates: Vec<f64>,
}

impl ClaimSet {
    /// Generate claims from a web: every mention exposing the identifying
    /// attribute asserts it, wrong with the site's error rate. Wrong
    /// values are *plausible* (another valid phone / ISBN core), and with
    /// probability `copy_error_prob` a wrong claim copies another random
    /// catalog entity's value — the hard confusion case for fusion.
    ///
    /// # Panics
    /// Panics if the error model rates are outside `[0, 1]`.
    #[must_use]
    pub fn generate(
        catalog: &EntityCatalog,
        web: &Web,
        errors: &ErrorModel,
        copy_error_prob: f64,
        seed: Seed,
    ) -> Self {
        for rate in [errors.aggregator, errors.regional, errors.niche] {
            assert!((0.0..=1.0).contains(&rate), "error rate out of range");
        }
        let id_attr = identifying_attribute(catalog.domain);
        let truth: Vec<u64> = catalog
            .entities
            .iter()
            .map(|e| match id_attr {
                Attribute::Isbn => u64::from(e.isbn.expect("books have isbns").core()),
                _ => e.phone.expect("local businesses have phones").digits(),
            })
            .collect();
        let mut rng = Xoshiro256::from_seed(seed.derive("claims"));
        let mut by_entity: Vec<Vec<Claim>> = vec![Vec::new(); catalog.len()];
        let mut true_error_rates = Vec::with_capacity(web.n_sites());
        for site in &web.sites {
            // Per-site error rate: kind baseline with mild site-level noise.
            let base = errors.rate(site.kind);
            let rate = (base * rng.range_f64(0.5, 1.5)).clamp(0.0, 0.95);
            true_error_rates.push(rate);
            for m in web.mentions_of(site.id) {
                if !m.attrs.contains(id_attr) {
                    continue;
                }
                let true_value = truth[m.entity.index()];
                let value = if rng.bool_with(rate) {
                    if rng.bool_with(copy_error_prob) {
                        // Copy another entity's value (e.g. a franchise
                        // listing the wrong branch's phone).
                        truth[rng.usize_below(truth.len())]
                    } else {
                        corrupt(true_value, id_attr, &mut rng)
                    }
                } else {
                    true_value
                };
                by_entity[m.entity.index()].push(Claim {
                    source: site.id,
                    entity: m.entity,
                    value,
                });
            }
        }
        ClaimSet {
            n_entities: catalog.len(),
            n_sites: web.n_sites(),
            by_entity,
            truth,
            true_error_rates,
        }
    }

    /// Total number of claims.
    #[must_use]
    pub fn n_claims(&self) -> usize {
        self.by_entity.iter().map(Vec::len).sum()
    }

    /// Entities with at least `k` claims.
    #[must_use]
    pub fn entities_with_at_least(&self, k: usize) -> usize {
        self.by_entity.iter().filter(|c| c.len() >= k).count()
    }
}

/// Produce a *valid but different* value of the same attribute type.
fn corrupt(value: u64, attr: Attribute, rng: &mut Xoshiro256) -> u64 {
    match attr {
        Attribute::Isbn => loop {
            // Perturb a few digits of the core.
            let delta = 1 + rng.u64_below(9_999);
            let candidate = (value + delta) % 1_000_000_000;
            if candidate != value {
                break candidate;
            }
        },
        _ => loop {
            // A typo-like perturbation of the line number, or a fresh
            // random phone.
            let candidate = if rng.bool_with(0.7) {
                let line = value % 10_000;
                let new_line = (line + 1 + rng.u64_below(9_998)) % 10_000;
                value - line + new_line
            } else {
                PhoneNumber::random(rng).digits()
            };
            if candidate != value && PhoneNumber::from_digits(candidate).is_ok() {
                break candidate;
            }
        },
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
            EntityCatalog::generate(&CatalogConfig::new(Domain::Banks, 500), Seed(61));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Banks).scaled(0.02),
            Seed(61),
        );
        (catalog, web)
    }

    #[test]
    fn generation_is_deterministic_and_grouped() {
        let (catalog, web) = fixture();
        let a = ClaimSet::generate(&catalog, &web, &ErrorModel::default(), 0.2, Seed(1));
        let b = ClaimSet::generate(&catalog, &web, &ErrorModel::default(), 0.2, Seed(1));
        assert_eq!(a.n_claims(), b.n_claims());
        assert!(a.n_claims() > 0);
        for (e, claims) in a.by_entity.iter().enumerate() {
            for c in claims {
                assert_eq!(c.entity.index(), e);
            }
        }
    }

    #[test]
    fn error_rates_shape_claim_accuracy() {
        let (catalog, web) = fixture();
        let clean = ClaimSet::generate(
            &catalog,
            &web,
            &ErrorModel {
                aggregator: 0.0,
                regional: 0.0,
                niche: 0.0,
            },
            0.0,
            Seed(2),
        );
        for (e, claims) in clean.by_entity.iter().enumerate() {
            for c in claims {
                assert_eq!(c.value, clean.truth[e], "no-error model must be exact");
            }
        }
        let noisy = ClaimSet::generate(
            &catalog,
            &web,
            &ErrorModel {
                aggregator: 0.5,
                regional: 0.5,
                niche: 0.5,
            },
            0.0,
            Seed(2),
        );
        let wrong: usize = noisy
            .by_entity
            .iter()
            .enumerate()
            .map(|(e, claims)| claims.iter().filter(|c| c.value != noisy.truth[e]).count())
            .sum();
        let frac = wrong as f64 / noisy.n_claims() as f64;
        assert!((0.35..0.65).contains(&frac), "wrong fraction {frac}");
    }

    #[test]
    fn corrupted_values_are_valid_but_different() {
        let mut rng = Xoshiro256::from_seed(Seed(3));
        let phone = PhoneNumber::new(415, 555, 134).unwrap().digits();
        for _ in 0..200 {
            let c = corrupt(phone, Attribute::Phone, &mut rng);
            assert_ne!(c, phone);
            assert!(PhoneNumber::from_digits(c).is_ok());
        }
        for _ in 0..200 {
            let c = corrupt(123_456_789, Attribute::Isbn, &mut rng);
            assert_ne!(c, 123_456_789);
            assert!(c < 1_000_000_000);
        }
    }

    #[test]
    fn redundancy_counts() {
        let (catalog, web) = fixture();
        let set = ClaimSet::generate(&catalog, &web, &ErrorModel::default(), 0.2, Seed(4));
        let k1 = set.entities_with_at_least(1);
        let k5 = set.entities_with_at_least(5);
        assert!(k1 > 0);
        assert!(k5 <= k1);
        assert_eq!(set.entities_with_at_least(0), set.n_entities);
    }

    #[test]
    fn books_claims_use_isbn_cores() {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Books, 300), Seed(62));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Books).scaled(0.02),
            Seed(62),
        );
        let set = ClaimSet::generate(&catalog, &web, &ErrorModel::default(), 0.1, Seed(5));
        assert!(set.n_claims() > 0);
        assert!(set.truth.iter().all(|&v| v < 1_000_000_000));
    }
}
