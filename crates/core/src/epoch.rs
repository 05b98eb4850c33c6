//! The incremental recomputation engine: epochs, dirty slices and the
//! content-addressed extraction cache.
//!
//! ## The dependency map
//!
//! Everything downstream of the corpus is a pure function of bytes the
//! store already fingerprints:
//!
//! ```text
//! site revisions ──> page bytes ──> shard payloads (WSP1 sha256)
//!                                        │
//!                        extractor fingerprint (version + config)
//!                                        │
//!                            extraction snapshots (ext-NNNNN.wse)
//!                                        │
//!              ┌─────────────────────────┼─────────────────────────┐
//!        ExtractedWeb            StreamingCoverage          GraphAccumulator
//!              └─────────────────────────┴─────────────────────────┘
//!                               epoch output digest
//! ```
//!
//! A mutation bumps the *revision* of a handful of sites; only the shards
//! containing those sites change payload digest, so the store re-renders
//! exactly the dirty slice ([`RecoveryReport::shards_stale`]) and every
//! clean shard's extraction replays from its cached snapshot. The merge
//! operators downstream (`ExtractedWeb::merge`, `StreamingCoverage::merge`,
//! `GraphAccumulator::merge`) are commutative over disjoint site ranges,
//! which is what makes the warm path byte-identical to a cold run at the
//! same epoch — at any thread count.
//!
//! ## Determinism contract
//!
//! [`Epoch::mutate`] is seed-pure: the dirty set is a function of
//! `(fraction, seed, n_sites)` only, in the `FaultPlan` style — no clocks,
//! no global RNG. Two processes that apply the same mutation sequence and
//! call [`Epoch::run`] produce identical manifests, identical cache files
//! and identical [`EpochReport::output_digest`]s, whether they arrived
//! warm or cold.

use crate::study::{review_classifier, DomainStudy, StudyConfig};
use std::path::Path;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::extcache::{self, ExtLoad};
use webstruct_corpus::manifest::ExtEntry;
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::shard::{RecoveryReport, ShardError, ShardStore, ShardedWeb};
use webstruct_corpus::web::Web;
use webstruct_coverage::StreamingCoverage;
use webstruct_extract::{ExtractedWeb, Extractor, EXTRACTOR_VERSION};
use webstruct_graph::{BipartiteGraph, GraphAccumulator, GraphError};
use webstruct_util::ids::SiteId;
use webstruct_util::iofault::FaultSession;
use webstruct_util::rng::{Seed, Xoshiro256};
use webstruct_util::sha::Sha256;
use webstruct_util::{obs, par};

/// Coverage is tracked for `k = 1..=COVERAGE_MAX_K`, matching the
/// paper's redundancy sweep.
pub const COVERAGE_MAX_K: usize = 5;

/// Default shard size for epoch stores: small enough that a 1% site
/// mutation dirties a small *fraction* of shards at quick scale.
pub const DEFAULT_EPOCH_SHARD_BYTES: u64 = 1 << 20;

/// What went wrong during an epoch run.
#[derive(Debug)]
pub enum EpochError {
    /// The shard store failed (render, recovery, cache or manifest I/O).
    Store(ShardError),
    /// A cached snapshot passed its digest but failed structural decode —
    /// only reachable if the snapshot encoding changed without bumping
    /// [`EXTRACTOR_VERSION`].
    Snapshot(&'static str),
    /// The entity–site graph rejected an extracted occurrence.
    Graph(GraphError),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::Store(e) => write!(f, "epoch store error: {e}"),
            EpochError::Snapshot(m) => write!(f, "epoch snapshot error: {m}"),
            EpochError::Graph(e) => write!(f, "epoch graph error: {e}"),
        }
    }
}

impl std::error::Error for EpochError {}

impl From<ShardError> for EpochError {
    fn from(e: ShardError) -> Self {
        EpochError::Store(e)
    }
}

/// What one [`Epoch::run`] did and produced.
#[derive(Debug, Clone)]
pub struct EpochReport {
    /// Epoch counter after the mutations applied so far (0 = pristine).
    pub epoch: u32,
    /// What the store's recovery pass did (dirty slice =
    /// [`shards_stale`](RecoveryReport::shards_stale) +
    /// [`shards_rendered`](RecoveryReport::shards_rendered) on a warm
    /// run).
    pub recovery: RecoveryReport,
    /// Shards whose extraction replayed from the content-addressed cache.
    pub cache_hits: usize,
    /// Shards extracted from page bytes (no usable cache entry).
    pub cache_misses: usize,
    /// Cache entries that existed but could not be trusted: poisoned
    /// payloads, stale keys or an extractor-fingerprint change.
    pub cache_invalidations: usize,
    /// k-coverage of the identifying attribute, `k = 1..=COVERAGE_MAX_K`.
    pub coverages: Vec<f64>,
    /// Edges of the entity–site graph at this epoch.
    pub graph_edges: usize,
    /// Total (site, entity) occurrence pairs for the identifying
    /// attribute.
    pub occurrences: usize,
    /// SHA-256 over every output of the run: the merged extraction
    /// snapshot, the coverage curve, the graph summary and the committed
    /// manifest. Two runs that reach the same epoch state must agree on
    /// this digest byte for byte, warm or cold, at any thread count.
    pub output_digest: [u8; 32],
}

impl EpochReport {
    /// The output digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        webstruct_util::sha::hex(&self.output_digest)
    }
}

/// The identifying attribute whose occurrence tables feed coverage and
/// the graph: ISBNs for books, phone numbers everywhere else (the
/// paper's Table 2 convention).
#[must_use]
pub fn identifying_attribute(domain: Domain) -> Attribute {
    if domain == Domain::Books {
        Attribute::Isbn
    } else {
        Attribute::Phone
    }
}

/// A mutable corpus plus the machinery to re-run the pipeline
/// incrementally after each mutation.
///
/// ```no_run
/// use webstruct_core::epoch::Epoch;
/// use webstruct_core::study::StudyConfig;
/// use webstruct_corpus::domain::Domain;
/// use webstruct_util::Seed;
///
/// let mut epoch = Epoch::new(Domain::Restaurants, StudyConfig::quick());
/// let dir = std::path::Path::new("artifacts/epoch-store");
/// let cold = epoch.run(dir, 4).unwrap();          // epoch 0: everything renders
/// epoch.mutate(0.01, Seed(7));                    // dirty 1% of sites
/// let warm = epoch.run(dir, 4).unwrap();          // re-runs only the dirty slice
/// assert!(warm.cache_hits > 0);
/// ```
pub struct Epoch {
    domain: Domain,
    config: StudyConfig,
    catalog: EntityCatalog,
    web: Web,
    shard_bytes: u64,
    epoch: u32,
    // The trained review classifier is a pure function of the training
    // seed, so it is memoised across runs: a warm re-run must not pay
    // the (fixed, non-incremental) training cost again.
    review_clf: std::sync::OnceLock<webstruct_extract::NaiveBayes>,
}

impl Epoch {
    /// Generate the catalog and web for `domain` at epoch 0 with
    /// [`DomainStudy::generate`], so an epoch-0 store is byte-identical to
    /// the streaming pipeline's.
    #[must_use]
    pub fn new(domain: Domain, config: StudyConfig) -> Self {
        let DomainStudy { catalog, web, .. } = DomainStudy::generate(domain, &config);
        Epoch {
            domain,
            config,
            catalog,
            web,
            shard_bytes: DEFAULT_EPOCH_SHARD_BYTES,
            epoch: 0,
            review_clf: std::sync::OnceLock::new(),
        }
    }

    /// Builder: override the shard size the epoch store renders at.
    #[must_use]
    pub fn with_shard_bytes(mut self, bytes: u64) -> Self {
        self.shard_bytes = bytes;
        self
    }

    /// The web at its current revision state.
    #[must_use]
    pub fn web(&self) -> &Web {
        &self.web
    }

    /// The entity catalog.
    #[must_use]
    pub fn catalog(&self) -> &EntityCatalog {
        &self.catalog
    }

    /// The domain this epoch's corpus was generated for.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The study configuration the corpus was generated at.
    #[must_use]
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// Epochs applied so far (number of [`mutate`](Epoch::mutate) calls).
    #[must_use]
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Deterministically perturb `fraction` of the corpus's sites —
    /// seed-pure: the dirty set is a function of `(fraction, seed,
    /// n_sites)` only, so two processes applying the same mutation
    /// sequence agree on every byte that follows. Each selected site's
    /// revision is bumped, which re-keys its pages' content RNG; page
    /// *counts* and shard cuts never change, so the dirty shard set is
    /// exactly the shards containing selected sites.
    ///
    /// Returns the number of sites mutated (`⌊fraction · n_sites⌋`,
    /// minimum 1 for any positive fraction).
    ///
    /// # Panics
    /// Panics unless `0.0 <= fraction <= 1.0`.
    pub fn mutate(&mut self, fraction: f64, seed: Seed) -> usize {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "mutation fraction must be in [0, 1]"
        );
        self.epoch += 1;
        if fraction == 0.0 {
            return 0;
        }
        let n = self.web.n_sites();
        let k = ((n as f64 * fraction).floor() as usize).clamp(1, n);
        let mut rng = Xoshiro256::from_seed(seed.derive("epoch-mutate"));
        let mut picked = rng.sample_indices(n, k);
        picked.sort_unstable();
        for s in picked {
            self.web.bump_revision(s);
        }
        k
    }

    /// Fingerprint of everything that determines extraction output for
    /// fixed page bytes: the pipeline version, the domain, the catalog
    /// universe and the classifier's training seed (the seed fully
    /// determines the trained classifier). Cached snapshots are keyed by
    /// this plus the shard's payload digest; change either and the entry
    /// stops matching.
    #[must_use]
    pub fn extractor_fingerprint(&self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"webstruct-extractor-fingerprint-v1\n");
        h.update(&EXTRACTOR_VERSION.to_le_bytes());
        h.update(format!("{:?}", self.domain).as_bytes());
        h.update(&(self.catalog.len() as u64).to_le_bytes());
        h.update(&[u8::from(self.domain.has_attribute(Attribute::Review))]);
        h.update(&self.config.seed.derive("nb").0.to_le_bytes());
        h.finalize()
    }

    fn build_extractor(&self) -> Extractor<'_> {
        let mut extractor = Extractor::new(&self.catalog);
        if self.domain.has_attribute(Attribute::Review) {
            let clf = self.review_clf.get_or_init(|| review_classifier(self.config.seed));
            extractor = extractor.with_review_classifier(clf.clone());
        }
        extractor
    }

    /// Bring the store under `dir` to the current epoch state and re-run
    /// the pipeline over it, extracting only shards without a valid
    /// cached snapshot. Produces the merged extraction, the streaming
    /// coverage curve, the entity–site graph, and a digest over all of
    /// them plus the committed manifest.
    ///
    /// Work is scheduled shard-by-shard across `threads` workers; every
    /// downstream accumulator merges commutatively over the disjoint
    /// per-shard site ranges, so the report is byte-identical at any
    /// thread count.
    ///
    /// # Errors
    /// Store/render/cache I/O failures and graph construction failures.
    ///
    /// # Panics
    /// Panics if a worker's partial state goes missing (a bug, not an
    /// environment condition).
    pub fn run(&self, dir: &Path, threads: usize) -> Result<EpochReport, EpochError> {
        self.run_extracted(dir, threads).map(|(report, _)| report)
    }

    /// [`run`](Epoch::run), but also hand back the merged
    /// [`ExtractedWeb`] instead of discarding it after the digest — the
    /// serving layer builds its warm in-memory indexes from exactly the
    /// state the digest covers.
    ///
    /// # Errors
    /// See [`run`](Epoch::run).
    pub fn run_extracted(
        &self,
        dir: &Path,
        threads: usize,
    ) -> Result<(EpochReport, ExtractedWeb), EpochError> {
        let _span = webstruct_util::span!("epoch.run", threads);
        let n_sites = self.web.n_sites();
        let n_entities = self.catalog.len();
        let render_seed = self.config.seed.derive("render");
        let (mut store, recovery) = ShardStore::write_resumable(
            dir,
            &self.web,
            &self.catalog,
            &PageConfig::default(),
            render_seed,
            self.shard_bytes,
        )?;
        let fp = self.extractor_fingerprint();
        let manifest = store.manifest().clone();
        let n_shards = manifest.shards.len();
        // A fingerprint change orphans every carried cache entry at once:
        // count them as invalidations and fall through to re-extraction.
        let manifest_fp_ok = manifest.ext.as_ref().is_some_and(|s| s.fingerprint == fp);
        let fp_invalidations = match &manifest.ext {
            Some(s) if !manifest_fp_ok => s.entries.iter().flatten().count(),
            _ => 0,
        };

        let extractor = self.build_extractor();
        let attr = identifying_attribute(self.domain);
        let sharded = ShardedWeb::Stored(&store);

        struct EpochFold {
            acc: ExtractedWeb,
            cov: StreamingCoverage,
            graph: GraphAccumulator,
            new_entries: Vec<(usize, ExtEntry)>,
            hits: usize,
            misses: usize,
            invalidations: usize,
            err: Option<EpochError>,
        }
        let mut workers = par::par_fold_dynamic_threads(
            threads,
            n_shards,
            || EpochFold {
                acc: ExtractedWeb::new(n_sites, n_entities),
                cov: StreamingCoverage::new(n_entities, COVERAGE_MAX_K),
                graph: GraphAccumulator::new(n_entities, n_sites),
                new_entries: Vec::new(),
                hits: 0,
                misses: 0,
                invalidations: 0,
                err: None,
            },
            |w, i| {
                let entry = &manifest.shards[i];
                let shard_sha = entry.sha256;
                let sites = entry.sites.start as usize..entry.sites.end as usize;
                let cached = if manifest_fp_ok {
                    match manifest.ext.as_ref().and_then(|s| s.entries.get(i)) {
                        Some(Some(e)) => match extcache::load_entry(dir, i, e, shard_sha, fp) {
                            ExtLoad::Hit(payload) => Some(payload),
                            ExtLoad::Miss => None,
                            ExtLoad::Poisoned(_) => {
                                // Detected via digest/key mismatch:
                                // recompute, never trust.
                                w.invalidations += 1;
                                None
                            }
                        },
                        _ => None,
                    }
                } else {
                    None
                };
                let payload = match cached {
                    Some(p) => {
                        w.hits += 1;
                        p
                    }
                    None => {
                        w.misses += 1;
                        let fresh = match extractor.extract_one_shard(&sharded, i, n_sites) {
                            Ok(a) => a,
                            Err(e) => {
                                w.err = Some(EpochError::Store(e));
                                return false;
                            }
                        };
                        let bytes = fresh.shard_snapshot_bytes(sites.clone());
                        // FaultSession is single-threaded by design; each
                        // worker writes under its own clean session.
                        let session = FaultSession::clean();
                        match extcache::write_entry(dir, i, shard_sha, fp, &bytes, &session) {
                            Ok(e) => w.new_entries.push((i, e)),
                            Err(e) => {
                                w.err = Some(EpochError::Store(e));
                                return false;
                            }
                        }
                        bytes
                    }
                };
                // Replay the snapshot into a shard-local accumulator so
                // the streaming aggregates can be fed site by site, then
                // fold it into the worker's partials. Hit and miss paths
                // run the exact same code from here on — that shared
                // suffix is the byte-identity argument in miniature.
                let mut shard_acc = ExtractedWeb::new(n_sites, n_entities);
                if let Err(m) = shard_acc.merge_snapshot(&payload) {
                    w.err = Some(EpochError::Snapshot(m));
                    return false;
                }
                for s in sites {
                    let entities = shard_acc.site_entities(s, attr);
                    w.cov.add_site(&entities);
                    w.graph.add_page(SiteId::new(s as u32), &entities);
                }
                w.acc.merge(shard_acc);
                true
            },
        );

        // Merge worker partials. Every merge below is commutative over
        // the disjoint site ranges the workers processed, so scheduling
        // cannot leak into the outputs.
        let mut first = workers.remove(0);
        for w in workers {
            if let Some(e) = w.err {
                return Err(e);
            }
            first.acc.merge(w.acc);
            first.cov.merge(&w.cov);
            first.graph.merge(w.graph);
            first.new_entries.extend(w.new_entries);
            first.hits += w.hits;
            first.misses += w.misses;
            first.invalidations += w.invalidations;
        }
        if let Some(e) = first.err {
            return Err(e);
        }

        // Commit the cache state: carried entries survive, recomputed
        // shards get their fresh entries, all under our fingerprint.
        let mut entries: Vec<Option<ExtEntry>> = vec![None; n_shards];
        if manifest_fp_ok {
            if let Some(section) = &manifest.ext {
                entries.clone_from_slice(&section.entries);
            }
        }
        for (i, e) in first.new_entries {
            entries[i] = Some(e);
        }
        store.commit_extractions(fp, entries, &FaultSession::clean())?;

        let invalidations = first.invalidations + fp_invalidations;
        let m = obs::metrics();
        m.add("cache.ext_requests", n_shards as u64);
        m.add("cache.ext_hits", first.hits as u64);
        m.add("cache.ext_misses", first.misses as u64);
        m.add("cache.invalidations", invalidations as u64);
        crate::cache::publish_cache_hit_rate();

        let coverages = first.cov.coverages();
        let graph: BipartiteGraph = first.graph.finish().map_err(EpochError::Graph)?;
        let occurrences = first.acc.total_occurrences(attr);

        let mut h = Sha256::new();
        h.update(b"webstruct-epoch-output-v1\n");
        h.update(&first.acc.shard_snapshot_bytes(0..n_sites));
        for c in &coverages {
            h.update(&c.to_bits().to_le_bytes());
        }
        h.update(&(graph.n_edges() as u64).to_le_bytes());
        h.update(&(graph.entities_present() as u64).to_le_bytes());
        h.update(&(occurrences as u64).to_le_bytes());
        h.update(store.manifest().render().as_bytes());
        let output_digest = h.finalize();

        Ok((
            EpochReport {
                epoch: self.epoch,
                recovery,
                cache_hits: first.hits,
                cache_misses: first.misses,
                cache_invalidations: invalidations,
                coverages,
                graph_edges: graph.n_edges(),
                occurrences,
                output_digest,
            },
            first.acc,
        ))
    }

    /// [`run`](Epoch::run) against a throwaway directory with no prior
    /// state — the cold oracle the incremental path is tested against.
    /// The directory is wiped first so nothing can be reused.
    ///
    /// # Errors
    /// See [`run`](Epoch::run).
    pub fn run_cold(&self, dir: &Path, threads: usize) -> Result<EpochReport, EpochError> {
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| EpochError::Store(ShardError::Io(e)))?;
        }
        self.run(dir, threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::TempDir;

    fn quick() -> StudyConfig {
        StudyConfig::quick().with_scale(0.02)
    }

    #[test]
    fn mutate_is_seed_pure_and_counts_sites() {
        let mut a = Epoch::new(Domain::Banks, quick());
        let mut b = Epoch::new(Domain::Banks, quick());
        let ka = a.mutate(0.1, Seed(9));
        let kb = b.mutate(0.1, Seed(9));
        assert_eq!(ka, kb);
        assert!(ka >= 1);
        assert_eq!(a.web().revisions(), b.web().revisions());
        // A different seed dirties a different set.
        let mut c = Epoch::new(Domain::Banks, quick());
        c.mutate(0.1, Seed(10));
        assert_ne!(a.web().revisions(), c.web().revisions());
    }

    #[test]
    fn zero_fraction_mutates_nothing() {
        let mut e = Epoch::new(Domain::Banks, quick());
        assert_eq!(e.mutate(0.0, Seed(1)), 0);
        assert!(e.web().revisions().iter().all(|&r| r == 0));
        assert_eq!(e.epoch(), 1);
    }

    #[test]
    fn warm_rerun_hits_cache_and_matches_cold_digest() {
        let dir = TempDir::new("epoch-warm");
        let colddir = TempDir::new("epoch-warm-oracle");
        // Small shards so a 5% site mutation leaves most shards clean.
        let mut e = Epoch::new(Domain::Banks, quick()).with_shard_bytes(16 << 10);
        let first = e.run(&dir, 2).unwrap();
        assert_eq!(first.cache_hits, 0, "epoch 0 has no cache to hit");
        e.mutate(0.05, Seed(3));
        let warm = e.run(&dir, 2).unwrap();
        assert!(warm.cache_hits > 0, "clean shards must replay: {warm:?}");
        assert!(
            warm.recovery.shards_stale > 0,
            "dirty shards re-render: {:?}",
            warm.recovery
        );
        let cold = e.run_cold(&colddir, 2).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(
            warm.output_digest, cold.output_digest,
            "incremental(mutate(E)) must equal cold(mutate(E))"
        );
    }
}
