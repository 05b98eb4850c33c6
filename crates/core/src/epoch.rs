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
//!       merged ExtractedWeb (hit: merge_snapshot; miss: extract in place)
//!                                        │
//!                 k-coverage, occurrences, entities present
//!                                        │
//!                               epoch output digest
//! ```
//!
//! A mutation bumps the *revision* of a handful of sites; only the shards
//! containing those sites change payload digest, so the store re-renders
//! exactly the dirty slice ([`RecoveryReport::shards_stale`]) and every
//! clean shard's extraction replays from its cached snapshot. The run is
//! the study's [`ExtractJob`] with a cache step per shard: a hit merges
//! the cached snapshot into the participant's accumulator, a miss
//! extracts the shard straight into it and writes the shard's site range
//! from there as the cache entry. Shards cover disjoint site ranges and
//! an entry's header counts its shard alone, so the entry is the bytes
//! the shard extracted alone would write, and the merge is order-free:
//! the warm path is byte-identical to a cold run at the same epoch, at
//! any thread count. The summaries are read from the merged (site,
//! entity) relation in one pass after the merge.
//!
//! ## Determinism contract
//!
//! [`Epoch::mutate`] is seed-pure: the dirty set is a function of
//! `(fraction, seed, n_sites)` only, in the `FaultPlan` style — no clocks,
//! no global RNG. Two processes that apply the same mutation sequence and
//! call [`Epoch::run`] produce identical manifests, identical cache files
//! and identical [`EpochReport::output_digest`]s, whether they arrived
//! warm or cold.

use crate::study::{DomainStudy, StudyConfig};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::extcache::{self, ExtLoad};
use webstruct_corpus::manifest::ExtEntry;
use webstruct_corpus::shard::{RecoverMode, RecoveryReport, ShardError, ShardStore, ShardedWeb};
use webstruct_corpus::web::Web;
use webstruct_coverage::StreamingCoverage;
use webstruct_extract::{ExtractJob, ExtractedWeb, EXTRACTOR_VERSION};
use webstruct_util::iofault::FaultSession;
use webstruct_util::rng::{Seed, Xoshiro256};
use webstruct_util::sha::Sha256;
use webstruct_util::obs;

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
    /// A cached snapshot passed its digest but failed structural
    /// validation (`ExtractedWeb::merge_snapshot`): the encoding changed
    /// without bumping [`EXTRACTOR_VERSION`], or the entry names sites or
    /// entities outside this corpus.
    Snapshot(&'static str),
}

impl std::fmt::Display for EpochError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EpochError::Store(e) => write!(f, "epoch store error: {e}"),
            EpochError::Snapshot(m) => write!(f, "epoch snapshot error: {m}"),
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Distinct (site, entity) occurrence pairs for the identifying
    /// attribute: the edges of the entity–site graph at this epoch.
    pub occurrences: usize,
    /// SHA-256 over every output of the run: the merged extraction
    /// snapshot, the coverage curve, the graph summary (edges and
    /// entities present) and the committed manifest. Two runs that reach
    /// the same epoch state must agree on this digest byte for byte, warm
    /// or cold, at any thread count.
    pub output_digest: [u8; 32],
}

impl EpochReport {
    /// The output digest as lowercase hex.
    #[must_use]
    pub fn digest_hex(&self) -> String {
        webstruct_util::sha::hex(&self.output_digest)
    }
}

pub use webstruct_corpus::domain::identifying_attribute;

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
    // The study renders, extracts and memoises the review classifier, so
    // a warm re-run does not pay the (fixed) training cost again.
    study: DomainStudy,
    config: StudyConfig,
    shard_bytes: u64,
    epoch: u32,
}

impl Epoch {
    /// Generate the catalog and web for `domain` at epoch 0 with
    /// [`DomainStudy::generate`], so an epoch-0 store is byte-identical to
    /// the streaming pipeline's.
    #[must_use]
    pub fn new(domain: Domain, config: StudyConfig) -> Self {
        Epoch {
            study: DomainStudy::generate(domain, &config),
            config,
            shard_bytes: DEFAULT_EPOCH_SHARD_BYTES,
            epoch: 0,
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
        &self.study.web
    }

    /// The entity catalog.
    #[must_use]
    pub fn catalog(&self) -> &EntityCatalog {
        &self.study.catalog
    }

    /// The domain this epoch's corpus was generated for.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.study.domain
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
        let n = self.study.web.n_sites();
        let k = ((n as f64 * fraction).floor() as usize).clamp(1, n);
        let mut rng = Xoshiro256::from_seed(seed.derive("epoch-mutate"));
        let mut picked = rng.sample_indices(n, k);
        picked.sort_unstable();
        self.study.bump_revisions(&picked);
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
        h.update(format!("{:?}", self.study.domain).as_bytes());
        h.update(&(self.study.catalog.len() as u64).to_le_bytes());
        h.update(&[u8::from(self.study.domain.has_attribute(Attribute::Review))]);
        h.update(&self.config.seed.derive("nb").0.to_le_bytes());
        h.finalize()
    }

    /// Bring the store under `dir` to the current epoch state and re-run
    /// the pipeline over it, extracting only shards without a valid
    /// cached snapshot. Produces the merged extraction, its k-coverage
    /// curve and entity–site graph summary, and a digest over all of
    /// them plus the committed manifest.
    ///
    /// Work is scheduled shard-by-shard across `threads` participants of
    /// one [`ExtractJob`], whose accumulators merge commutatively over
    /// the disjoint per-shard site ranges, so the report is
    /// byte-identical at any thread count. The job also publishes
    /// `extract.*`, counting the whole merged web, replayed shards
    /// included.
    ///
    /// The run holds the store's `LOCK` ([`ShardStore::lock`]) from
    /// recovery to the final commit.
    ///
    /// # Errors
    /// Store/render/cache I/O failures, cached snapshots that fail
    /// validation, and [`ShardError::Locked`] while another run holds the
    /// store.
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
        let _lock = ShardStore::lock(dir)?;
        let study = &self.study;
        let n_sites = study.web.n_sites();
        let n_entities = study.catalog.len();
        let (mut store, recovery) =
            study.recover_store(dir, self.shard_bytes, RecoverMode::Resume)?;
        let fp = self.extractor_fingerprint();
        let manifest = store.manifest();
        let n_shards = manifest.shards.len();
        // Only entries made under our fingerprint can be replayed. A
        // fingerprint change orphans every carried entry at once: count
        // them as invalidations and fall through to re-extraction.
        let carried = manifest.ext.as_ref().filter(|s| s.fingerprint == fp);
        let fp_invalidations = match &manifest.ext {
            Some(s) if carried.is_none() => s.entries.iter().flatten().count(),
            _ => 0,
        };

        // A miss's fresh cache entry fills its shard's slot, which also
        // counts the miss.
        let hits = AtomicUsize::new(0);
        let poisoned = AtomicUsize::new(0);
        let fresh: Vec<OnceLock<ExtEntry>> = std::iter::repeat_with(OnceLock::new)
            .take(n_shards)
            .collect();
        let sharded = ShardedWeb::Stored(&store);
        let job = ExtractJob::new(&sharded);
        study.extractor().join(&job, &sharded, threads, |shard, acc| {
            let i = shard.index();
            let entry = &manifest.shards[i];
            let cached = carried.and_then(|s| s.entries.get(i)?.as_ref());
            let load = cached.map(|e| {
                let _span = webstruct_util::span!("extcache.load");
                extcache::load_entry(dir, i, e, entry.sha256, fp)
            });
            match load {
                Some(ExtLoad::Hit(payload)) => {
                    hits.fetch_add(1, Ordering::Relaxed);
                    let _span = webstruct_util::span!("merge.snapshot");
                    return acc.merge_snapshot(&payload).map_err(EpochError::Snapshot);
                }
                // Detected via digest/key mismatch: recompute, never trust.
                Some(ExtLoad::Poisoned(_)) => {
                    poisoned.fetch_add(1, Ordering::Relaxed);
                }
                Some(ExtLoad::Miss) | None => {}
            }
            let sites = entry.sites.start as usize..entry.sites.end as usize;
            let bytes = shard.extract_snapshot(acc, sites)?;
            // FaultSession is single-threaded by design; each write runs
            // under its own clean session.
            let _span = webstruct_util::span!("extcache.write");
            let written =
                extcache::write_entry(dir, i, entry.sha256, fp, &bytes, &FaultSession::clean())?;
            fresh[i].set(written).expect("each shard is claimed once");
            Ok(())
        });
        let merged = job.into_result().expect("every participant returned, so the job finished")?;

        // Commit the cache state: carried entries survive, recomputed
        // shards get their fresh entries, all under our fingerprint.
        let mut entries: Vec<Option<ExtEntry>> = vec![None; n_shards];
        if let Some(section) = carried {
            entries.clone_from_slice(&section.entries);
        }
        let mut misses = 0;
        for (slot, e) in entries.iter_mut().zip(fresh) {
            if let Some(e) = e.into_inner() {
                *slot = Some(e);
                misses += 1;
            }
        }
        store.commit_extractions(fp, entries, &FaultSession::clean())?;
        let hits = hits.into_inner();

        let invalidations = poisoned.into_inner() + fp_invalidations;
        let m = obs::metrics();
        m.add("cache.ext_requests", n_shards as u64);
        m.add("cache.ext_hits", hits as u64);
        m.add("cache.ext_misses", misses as u64);
        m.add("cache.invalidations", invalidations as u64);
        crate::cache::publish_cache_hit_rate();

        // The summaries read the merged relation. Every entity id in it
        // passed `merge_snapshot`'s range check, and each distinct
        // (site, entity) pair is one edge of the entity–site graph.
        let attr = identifying_attribute(study.domain);
        let mut cov = StreamingCoverage::new(n_entities, COVERAGE_MAX_K);
        for s in 0..n_sites {
            cov.add_site(&merged.site_entities(s, attr));
        }
        let coverages = cov.coverages();
        let occurrences = merged.total_occurrences(attr);
        let entities_present = cov.reached(1);

        let digest_span = webstruct_util::span!("epoch.digest");
        let mut h = Sha256::new();
        h.update(b"webstruct-epoch-output-v1\n");
        h.update(&merged.shard_snapshot_bytes(0..n_sites));
        for c in &coverages {
            h.update(&c.to_bits().to_le_bytes());
        }
        // The graph summary (edges, entities present), then the
        // occurrences: the v1 layout, whose edge count is the occurrences.
        h.update(&(occurrences as u64).to_le_bytes());
        h.update(&(entities_present as u64).to_le_bytes());
        h.update(&(occurrences as u64).to_le_bytes());
        h.update(store.manifest().render().as_bytes());
        let output_digest = h.finalize();
        drop(digest_span);

        Ok((
            EpochReport {
                epoch: self.epoch,
                recovery,
                cache_hits: hits,
                cache_misses: misses,
                cache_invalidations: invalidations,
                coverages,
                occurrences,
                output_digest,
            },
            merged,
        ))
    }

    /// Scrub the store under `dir` against its manifest, quarantine every
    /// shard, cache entry and stray that fails verification, and bring it
    /// back to this epoch's bytes ([`RecoverMode::Repair`]). Replaying the
    /// dropped cache entries is left to the next [`run`](Epoch::run).
    ///
    /// Holds the store's `LOCK` ([`ShardStore::lock`]) throughout.
    ///
    /// # Errors
    /// [`ShardError::ConfigMismatch`], touching no file, when `dir` holds
    /// another store or this store at another epoch;
    /// [`ShardError::Locked`], touching no file, while another run holds
    /// the store; file-system errors otherwise.
    pub fn repair(&self, dir: &Path) -> Result<RecoveryReport, ShardError> {
        let _lock = ShardStore::lock(dir)?;
        let (_, recovery) = self
            .study
            .recover_store(dir, self.shard_bytes, RecoverMode::Repair)?;
        Ok(recovery)
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
