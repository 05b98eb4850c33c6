//! Study-level configuration: scales, seeds and the oracle/extracted data
//! source switch shared by every experiment.

use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::shard::{
    RecoverMode, RecoveryReport, ShardError, ShardSpec, ShardStore, ShardedWeb,
};
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_extract::{train_review_classifier, ExtractJob, ExtractedWeb, Extractor, NaiveBayes};
use webstruct_util::ids::EntityId;
use webstruct_util::iofault::FaultSession;
use webstruct_util::par;
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

/// The web-generator configuration [`DomainStudy::generate`] uses for
/// `domain`: its preset at `config`'s scale.
pub(crate) fn web_config(domain: Domain, config: &StudyConfig) -> WebConfig {
    WebConfig::preset(domain).scaled(config.scale)
}

/// The Naïve Bayes review classifier that extraction under study seed
/// `seed` runs: a pure function of `seed.derive("nb")`.
fn review_classifier(seed: Seed) -> NaiveBayes {
    train_review_classifier(seed.derive("nb"), 300)
        .expect("training set is balanced by construction")
}

/// A fully generated domain: catalog plus web, and the one place that
/// knows how that web renders and extracts.
#[derive(Debug)]
pub struct DomainStudy {
    /// The domain.
    pub domain: Domain,
    /// The reference entity database.
    pub catalog: EntityCatalog,
    /// The generated web. Mutate it through
    /// [`bump_revisions`](DomainStudy::bump_revisions), which also drops
    /// the memoised extraction of the old revisions.
    pub web: Web,
    /// The study seed the domain was generated under; rendering and the
    /// review classifier derive from it.
    seed: Seed,
    /// The trained review classifier, a pure function of the seed:
    /// trained on first use, then shared by every extractor of the study.
    review_clf: OnceLock<Arc<NaiveBayes>>,
    /// The full-text extraction of this web, in flight or finished.
    /// Rendering + extraction is by far the most expensive step, and
    /// several experiments ask for different attributes of the same
    /// extracted web — often from different family threads at once,
    /// which then all work on the one job instead of waiting for each
    /// other.
    extraction: Mutex<Option<Arc<DomainExtraction>>>,
}

/// One extraction of a domain's web: the shard plan every participant
/// renders and extracts, fixed when the job starts, plus the job itself.
#[derive(Debug)]
struct DomainExtraction {
    specs: Vec<ShardSpec>,
    job: ExtractJob,
}

impl DomainExtraction {
    /// The finished extraction.
    fn web(&self) -> &ExtractedWeb {
        self.job
            .result()
            .expect("extraction finished")
            .as_ref()
            .expect("rendered shards have no I/O to fail")
    }
}

/// Clears the domain's extraction slot if its participant unwinds, so a
/// poisoned job is never left in flight for the next request.
struct ClearOnUnwind<'a> {
    slot: &'a Mutex<Option<Arc<DomainExtraction>>>,
    ext: &'a Arc<DomainExtraction>,
}

impl Drop for ClearOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.as_ref().is_some_and(|e| Arc::ptr_eq(e, self.ext)) {
                *slot = None;
            }
        }
    }
}

impl DomainStudy {
    /// Generate the catalog and web for `domain` under `config`.
    #[must_use]
    pub fn generate(domain: Domain, config: &StudyConfig) -> Self {
        let n_entities =
            ((reference_entity_count(domain) as f64 * config.scale).round() as usize).max(64);
        let catalog_cfg = CatalogConfig::new(domain, n_entities);
        let catalog = EntityCatalog::generate(&catalog_cfg, config.seed);
        let web = Web::generate(&catalog, &web_config(domain, config), config.seed);
        DomainStudy {
            domain,
            catalog,
            web,
            seed: config.seed,
            review_clf: OnceLock::new(),
            extraction: Mutex::new(None),
        }
    }

    /// The seed pages render with, under [`PageConfig::default`]: the
    /// study seed's `render` stream. Stores and in-memory extraction both
    /// render through it, so they see the same page bytes.
    fn render_seed(&self) -> Seed {
        self.seed.derive("render")
    }

    /// The domain's extractor: the catalog, plus the review classifier
    /// when the domain has reviews (trained once per study, on first
    /// use).
    #[must_use]
    pub fn extractor(&self) -> Extractor<'_> {
        let extractor = Extractor::new(&self.catalog);
        if !self.domain.has_attribute(Attribute::Review) {
            return extractor;
        }
        let clf = self
            .review_clf
            .get_or_init(|| Arc::new(review_classifier(self.seed)));
        extractor.with_review_classifier(Arc::clone(clf))
    }

    /// Render the web into a shard store under `dir` in `mode`, cut at
    /// `shard_bytes` per shard.
    ///
    /// # Errors
    /// Propagates the store's render and I/O failures.
    pub(crate) fn recover_store(
        &self,
        dir: &Path,
        shard_bytes: u64,
        mode: RecoverMode,
    ) -> Result<(ShardStore, RecoveryReport), ShardError> {
        ShardStore::recover(
            dir,
            &self.web,
            &self.catalog,
            &PageConfig::default(),
            self.render_seed(),
            shard_bytes,
            mode,
            &FaultSession::clean(),
        )
    }

    /// Bump the revision of each site in `sites`, dropping any memoised
    /// extraction: it describes the old revisions.
    pub fn bump_revisions(&mut self, sites: &[usize]) {
        for &s in sites {
            self.web.bump_revision(s);
        }
        *self
            .extraction
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner) = None;
    }

    /// The per-site entity lists for `attr`, via the configured source.
    ///
    /// For [`DataSource::Extracted`] this renders every page of the web and
    /// runs the full pipeline (including classifier training when reviews
    /// are requested) under the study's own seed.
    #[must_use]
    pub fn occurrence_lists(&self, attr: Attribute, config: &StudyConfig) -> Vec<Vec<EntityId>> {
        match config.source {
            DataSource::Oracle => self.web.occurrence_lists(attr),
            DataSource::Extracted => self.extracted().web().occurrence_lists(attr),
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
            DataSource::Extracted => self.extracted().web().review_page_lists(),
        }
    }

    /// The extraction, finished. The first request starts the job; a
    /// request that finds it in flight joins it and claims shards
    /// alongside the threads already working on it.
    fn extracted(&self) -> Arc<DomainExtraction> {
        let ext = {
            let mut slot = self.extraction.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(slot.get_or_insert_with(|| Arc::new(self.plan_extraction())))
        };
        self.join_extraction(&ext);
        ext
    }

    /// Work on this domain's extraction if it is in flight, and return
    /// once it finishes. Never starts an extraction: with none in flight,
    /// or a finished one, this returns at once.
    pub(crate) fn help_extraction(&self) {
        let ext = self
            .extraction
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(ext) = ext {
            self.join_extraction(&ext);
        }
    }

    /// Work on `ext`'s job until it finishes. If this participant
    /// unwinds, the domain's slot no longer holds `ext`.
    fn join_extraction(&self, ext: &Arc<DomainExtraction>) {
        if ext.job.result().is_some() {
            return;
        }
        let _clear = ClearOnUnwind {
            slot: &self.extraction,
            ext,
        };
        // A standalone caller brings `num_threads()` participants; a
        // family thread (already `par` work) brings itself plus whatever
        // of that budget is idle.
        self.extractor().join(
            &ext.job,
            &self.sharded(ext.specs.clone()),
            par::num_threads(),
            |shard, acc| shard.extract_into(acc),
        );
    }

    /// The web rendered in memory and cut at `specs`.
    fn sharded(&self, specs: Vec<ShardSpec>) -> ShardedWeb<'_> {
        ShardedWeb::Rendered {
            web: &self.web,
            catalog: &self.catalog,
            config: PageConfig::default(),
            seed: self.render_seed(),
            specs,
        }
    }

    /// A not-yet-joined extraction, with its shard plan cut for
    /// [`par::num_threads`] workers (the plan only decides scheduling;
    /// the result is the same bytes for any cut).
    fn plan_extraction(&self) -> DomainExtraction {
        let sharded = ShardedWeb::rendered(
            &self.web,
            &self.catalog,
            PageConfig::default(),
            self.render_seed(),
            par::num_threads(),
        );
        let job = ExtractJob::new(&sharded);
        let ShardedWeb::Rendered { specs, .. } = sharded else {
            unreachable!("ShardedWeb::rendered plans rendered shards")
        };
        DomainExtraction { specs, job }
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
    fn a_participant_panic_poisons_the_job_and_frees_the_domain() {
        let cfg = StudyConfig::quick()
            .with_scale(0.02)
            .with_source(DataSource::Extracted);
        let study = DomainStudy::generate(Domain::Restaurants, &cfg);
        // Plant an in-flight job whose middle shard names sites past the
        // end of the web: whichever participant claims it dies mid-job,
        // after others have started on the shards before it. Every
        // participant joins this one job, however late it arrives.
        let mut ext = study.plan_extraction();
        assert!(ext.specs.len() >= 3, "need shards on both sides of the bad one");
        let n = study.web.n_sites();
        let mid = ext.specs.len() / 2;
        ext.specs[mid].sites = n + 1..n + 2;
        let want = format!("site range {:?} exceeds {n} sites", n + 1..n + 2);
        let ext = Arc::new(ext);
        *study.extraction.lock().unwrap() = Some(Arc::clone(&ext));

        let study = &study;
        let (tx, rx) = std::sync::mpsc::channel();
        let start = &std::sync::Barrier::new(3);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let (tx, ext) = (tx.clone(), Arc::clone(&ext));
                scope.spawn(move || {
                    start.wait();
                    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        study.join_extraction(&ext);
                    }));
                    let _ = tx.send(out.map_err(|p| par::panic_message(p.as_ref())));
                });
            }
            drop(tx);
            for _ in 0..3 {
                let out = rx
                    .recv_timeout(std::time::Duration::from_secs(120))
                    .expect("a participant hung on the poisoned job");
                assert_eq!(out.err().as_deref(), Some(want.as_str()));
            }
        });
        assert!(
            study.extraction.lock().unwrap().is_none(),
            "the poisoned job must not stay in flight"
        );
        // The next request starts a fresh job and gets the right answer.
        assert_eq!(
            study.occurrence_lists(Attribute::Phone, &cfg),
            study.web.occurrence_lists(Attribute::Phone)
        );
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
