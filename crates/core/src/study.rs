//! Study-level configuration: scales, seeds and the oracle/extracted data
//! source switch shared by every experiment.

use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::shard::ShardedWeb;
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_extract::{train_review_classifier, Extractor, NaiveBayes};
use webstruct_util::ids::EntityId;
use webstruct_util::rng::Seed;

/// Where the (site, entity) occurrence tables come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataSource {
    /// Ground-truth relations straight from the generative model. Fast;
    /// used for the full-scale figures.
    Oracle,
    /// Render every page and run the full extraction pipeline (phone/ISBN
    /// scanners, href matching, Naïve Bayes review classification). Slower
    /// but exercises the entire system; the equivalence of the two sources
    /// is itself a tested property.
    Extracted,
}

/// Global experiment configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Root seed for all randomness.
    pub seed: Seed,
    /// Scale factor on entity counts, site counts and traffic volumes.
    /// `1.0` is the documented reproduction scale (see EXPERIMENTS.md).
    pub scale: f64,
    /// Occurrence-table source.
    pub source: DataSource,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            seed: Seed::DEFAULT,
            scale: 1.0,
            source: DataSource::Oracle,
        }
    }
}

impl StudyConfig {
    /// A configuration scaled down for fast tests and benches.
    #[must_use]
    pub fn quick() -> Self {
        StudyConfig {
            seed: Seed::DEFAULT,
            scale: 0.05,
            source: DataSource::Oracle,
        }
    }

    /// Builder: set the data source.
    #[must_use]
    pub fn with_source(mut self, source: DataSource) -> Self {
        self.source = source;
        self
    }

    /// Builder: set the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: Seed) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: set the scale.
    ///
    /// # Panics
    /// Panics unless `scale > 0`.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.scale = scale;
        self
    }
}

/// Reference entity-count per domain at scale 1.0. The paper's absolute
/// counts (1.4M books, millions of businesses) are scaled to laptop size;
/// relative proportions (libraries are scarce, retail plentiful) are kept.
#[must_use]
pub fn reference_entity_count(domain: Domain) -> usize {
    match domain {
        Domain::Books => 30_000,
        Domain::Restaurants => 20_000,
        Domain::Automotive => 15_000,
        Domain::Banks => 10_000,
        Domain::Libraries => 4_000,
        Domain::Schools => 12_000,
        Domain::HotelsLodging => 8_000,
        Domain::RetailShopping => 25_000,
        Domain::HomeGarden => 20_000,
    }
}

/// The Naïve Bayes review classifier that extraction under study seed
/// `seed` runs: a pure function of `seed.derive("nb")`.
#[must_use]
pub fn review_classifier(seed: Seed) -> NaiveBayes {
    train_review_classifier(seed.derive("nb"), 300)
        .expect("training set is balanced by construction")
}

/// A fully generated domain: catalog plus web.
#[derive(Debug)]
pub struct DomainStudy {
    /// The domain.
    pub domain: Domain,
    /// The reference entity database.
    pub catalog: EntityCatalog,
    /// The generated web.
    pub web: Web,
    /// Memoised full-text extraction result, keyed by the seed it was
    /// rendered with (rendering + extraction is by far the most expensive
    /// step, and several experiments ask for different attributes of the
    /// same extracted web). A `Mutex` rather than `RefCell` so a
    /// `DomainStudy` can be shared across experiment threads.
    extracted_cache: std::sync::Mutex<Option<(Seed, std::sync::Arc<webstruct_extract::ExtractedWeb>)>>,
}

impl DomainStudy {
    /// Generate the catalog and web for `domain` under `config`.
    #[must_use]
    pub fn generate(domain: Domain, config: &StudyConfig) -> Self {
        let n_entities =
            ((reference_entity_count(domain) as f64 * config.scale).round() as usize).max(64);
        let catalog_cfg = CatalogConfig::new(domain, n_entities);
        let catalog = EntityCatalog::generate(&catalog_cfg, config.seed);
        let web_cfg = WebConfig::preset(domain).scaled(config.scale);
        let web = Web::generate(&catalog, &web_cfg, config.seed);
        DomainStudy {
            domain,
            catalog,
            web,
            extracted_cache: std::sync::Mutex::new(None),
        }
    }

    /// The per-site entity lists for `attr`, via the configured source.
    ///
    /// For [`DataSource::Extracted`] this renders every page of the web and
    /// runs the full pipeline (including classifier training when reviews
    /// are requested).
    #[must_use]
    pub fn occurrence_lists(&self, attr: Attribute, config: &StudyConfig) -> Vec<Vec<EntityId>> {
        match config.source {
            DataSource::Oracle => self.web.occurrence_lists(attr),
            DataSource::Extracted => self.extracted(config).occurrence_lists(attr),
        }
    }

    /// Per-site review-page lists via the configured source.
    #[must_use]
    pub fn review_page_lists(
        &self,
        config: &StudyConfig,
    ) -> Vec<Vec<(EntityId, u32)>> {
        match config.source {
            DataSource::Oracle => self.web.review_page_lists(),
            DataSource::Extracted => self.extracted(config).review_page_lists(),
        }
    }

    fn extracted(&self, config: &StudyConfig) -> std::sync::Arc<webstruct_extract::ExtractedWeb> {
        // Compute under the lock: concurrent callers for the same seed
        // block on one render rather than racing to do it twice.
        let mut cache = self.extracted_cache.lock().expect("extracted cache poisoned");
        if let Some((seed, cached)) = cache.as_ref() {
            if *seed == config.seed {
                return std::sync::Arc::clone(cached);
            }
        }
        let mut extractor = Extractor::new(&self.catalog);
        if self.domain.has_attribute(Attribute::Review) {
            extractor = extractor.with_review_classifier(review_classifier(config.seed));
        }
        // Site-sharded parallel render+extract; bit-identical at any
        // worker count (WEBSTRUCT_THREADS=1 runs it inline).
        let threads = webstruct_util::par::num_threads();
        let sharded = ShardedWeb::rendered(
            &self.web,
            &self.catalog,
            PageConfig::default(),
            config.seed.derive("render"),
            threads,
        );
        let extracted = std::sync::Arc::new(
            extractor
                .extract(&sharded, threads)
                .expect("rendered shards have no I/O to fail"),
        );
        *cache = Some((config.seed, std::sync::Arc::clone(&extracted)));
        extracted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_small() {
        let cfg = StudyConfig::quick();
        assert!(cfg.scale < 0.1);
        assert_eq!(cfg.source, DataSource::Oracle);
    }

    #[test]
    fn builders_apply() {
        let cfg = StudyConfig::default()
            .with_scale(0.5)
            .with_seed(Seed(9))
            .with_source(DataSource::Extracted);
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.seed, Seed(9));
        assert_eq!(cfg.source, DataSource::Extracted);
    }

    #[test]
    fn generate_respects_scale() {
        let small = DomainStudy::generate(Domain::Banks, &StudyConfig::quick());
        assert_eq!(
            small.catalog.len(),
            (reference_entity_count(Domain::Banks) as f64 * 0.05).round() as usize
        );
        assert!(small.web.n_sites() > 0);
    }

    #[test]
    fn oracle_and_extracted_sources_agree() {
        // The figures are computed from the oracle relations; this is the
        // equivalence that lets them stand for real extraction — every
        // domain, every attribute it has, and the review-page counts.
        for scale in [0.02, 0.05] {
            let oracle = StudyConfig::quick().with_scale(scale);
            let extracted = oracle.clone().with_source(DataSource::Extracted);
            for domain in Domain::ALL {
                let study = DomainStudy::generate(domain, &oracle);
                for &attr in domain.attributes() {
                    assert_eq!(
                        study.occurrence_lists(attr, &oracle),
                        study.occurrence_lists(attr, &extracted),
                        "{domain:?} {attr:?} at scale {scale}"
                    );
                }
                assert_eq!(
                    study.review_page_lists(&oracle),
                    study.review_page_lists(&extracted),
                    "{domain:?} review pages at scale {scale}"
                );
            }
        }
    }

    #[test]
    fn entity_floor_is_enforced() {
        let cfg = StudyConfig::default().with_scale(1e-9);
        let study = DomainStudy::generate(Domain::Libraries, &cfg);
        assert_eq!(study.catalog.len(), 64);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = StudyConfig::default().with_scale(0.0);
    }
}
