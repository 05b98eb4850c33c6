//! The end-to-end extraction pipeline: pages in, per-attribute
//! (site, entity) occurrence tables out.
//!
//! This is the paper's §3.1 methodology: "for each domain, we go through
//! the entire Web cache and look for the identifying attributes of the
//! entities on each page. We group pages by hosts, and for each host, we
//! aggregate the set of entities found on all the pages in that host."

use std::sync::Arc;
use crate::html;
use crate::isbn_scan::{for_each_isbn, has_marker_in};
use crate::nb::NaiveBayes;
use crate::phone_scan::for_each_phone_in;
use webstruct_corpus::domain::Attribute;
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::page::Page;
use webstruct_corpus::shard::{ShardError, ShardedWeb};
use webstruct_util::bytescan::{blocks64, classes64, Classes64};
use webstruct_util::hash::FxHashSet;
use webstruct_util::ids::{EntityId, SiteId};
use webstruct_util::obs::{self, LocalHistogram};
use webstruct_util::par;
use webstruct_util::wire::Reader;

/// Extraction-semantics version, hashed into extractor-config
/// fingerprints that key the content-addressed cache. Bump whenever the
/// pipeline's output for the same page bytes can change — matching rules,
/// classifier features, aggregation semantics, or the
/// [`ExtractedWeb::shard_snapshot_bytes`] encoding — so stale cached
/// extractions stop matching instead of being silently trusted.
pub const EXTRACTOR_VERSION: u32 = 1;

/// Magic of the serialized shard-extraction snapshot ("WebStruct
/// eXtraction v1") produced by [`ExtractedWeb::shard_snapshot_bytes`].
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"WSX1";
/// Fixed header bytes before the per-site lists in a snapshot.
const SNAPSHOT_HEADER_LEN: usize = 4 + 4 + 4 + 4 + 7 * 8 + LocalHistogram::WIRE_LEN;

/// What one page yielded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageExtraction {
    /// Entities matched via phone numbers.
    pub phone_entities: Vec<EntityId>,
    /// Entities matched via ISBNs.
    pub isbn_entities: Vec<EntityId>,
    /// Entities matched via homepage hrefs.
    pub homepage_entities: Vec<EntityId>,
    /// Phone matches that hit no catalog entity (precision diagnostics).
    pub unmatched_phones: u32,
    /// ISBN matches that hit no catalog entity.
    pub unmatched_isbns: u32,
    /// Anchor hosts that matched no catalog homepage.
    pub unmatched_hrefs: u32,
    /// Review-classifier verdict (false when no classifier is installed).
    pub is_review: bool,
}

impl PageExtraction {
    /// Reset to the empty extraction, keeping the entity `Vec` capacities —
    /// the hot path reuses one `PageExtraction` across every page.
    pub fn clear(&mut self) {
        self.phone_entities.clear();
        self.isbn_entities.clear();
        self.homepage_entities.clear();
        self.unmatched_phones = 0;
        self.unmatched_isbns = 0;
        self.unmatched_hrefs = 0;
        self.is_review = false;
    }
}

/// Every buffer the per-page extraction work needs, allocated once and
/// reused across pages. Steady state (after the buffers have grown to the
/// largest page seen) per-page extraction allocates nothing.
#[derive(Debug, Default)]
pub struct ExtractScratch {
    bufs: PageBuffers,
}

impl ExtractScratch {
    /// Fresh scratch with empty buffers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent per-page extraction result.
    #[must_use]
    pub fn extraction(&self) -> &PageExtraction {
        &self.bufs.extraction
    }
}

/// The reusable per-page working buffers, borrowed alongside the page
/// text the shard loop hands out.
#[derive(Debug, Default)]
struct PageBuffers {
    /// Tag-stripped visible text.
    text: String,
    /// The class index of `text`: one [`Classes64`] per 64-byte block,
    /// built once and walked by the phone, ISBN-marker and NB scans.
    classes: Vec<Classes64>,
    /// Token assembly buffer for the review classifier.
    tokens: String,
    /// Normalised anchor host.
    host: String,
    seen_phones: FxHashSet<EntityId>,
    seen_isbns: FxHashSet<EntityId>,
    seen_homepages: FxHashSet<EntityId>,
    extraction: PageExtraction,
}

/// The extractor: catalog indexes plus an optional review classifier.
pub struct Extractor<'a> {
    catalog: &'a EntityCatalog,
    review_clf: Option<Arc<NaiveBayes>>,
}

impl<'a> Extractor<'a> {
    /// Build an extractor without review classification.
    #[must_use]
    pub fn new(catalog: &'a EntityCatalog) -> Self {
        Extractor {
            catalog,
            review_clf: None,
        }
    }

    /// Install a review classifier (required for the Review attribute).
    /// An `Arc` lets the participants of one [`ExtractJob`] share it.
    #[must_use]
    pub fn with_review_classifier(mut self, clf: impl Into<Arc<NaiveBayes>>) -> Self {
        self.review_clf = Some(clf.into());
        self
    }

    /// The allocation-free core: extract everything from one page body
    /// into the reused buffers. Result lands in `bufs.extraction`.
    fn extract_html_into(&self, html: &str, bufs: &mut PageBuffers) {
        let PageBuffers {
            text,
            classes,
            tokens,
            host,
            seen_phones,
            seen_isbns,
            seen_homepages,
            extraction,
        } = bufs;
        extraction.clear();
        seen_phones.clear();
        seen_isbns.clear();
        seen_homepages.clear();
        // One walk over the HTML: strip the tags and resolve each anchor
        // href against the catalog in document order.
        html::strip_tags_and_hrefs_into(html, text, |href, _offset| {
            if !html::url_host_into(href, host) {
                extraction.unmatched_hrefs += 1;
                return;
            }
            match self.catalog.by_homepage(host) {
                Some(e) => {
                    if seen_homepages.insert(e) {
                        extraction.homepage_entities.push(e);
                    }
                }
                None => extraction.unmatched_hrefs += 1,
            }
        });
        classes.clear();
        classes.extend(blocks64(text.as_bytes(), classes64));

        for_each_phone_in(text, classes.iter().copied(), |m| {
            match self.catalog.by_phone(m.phone.digits()) {
                Some(e) => {
                    if seen_phones.insert(e) {
                        extraction.phone_entities.push(e);
                    }
                }
                None => extraction.unmatched_phones += 1,
            }
        });

        // The marker gate is exact (see `has_marker_in`), so skipping the
        // scan on pages without `isbn` leaves `unmatched_isbns` unchanged.
        if has_marker_in(text, classes.iter().map(|c| c.b)) {
            for_each_isbn(text, |m| match self.catalog.by_isbn(m.isbn.core()) {
                Some(e) => {
                    if seen_isbns.insert(e) {
                        extraction.isbn_entities.push(e);
                    }
                }
                None => extraction.unmatched_isbns += 1,
            });
        }

        if let Some(clf) = &self.review_clf {
            extraction.is_review =
                clf.log_odds_in(text, classes.iter().map(|c| c.letters), tokens) > 0.0;
        }
    }

    /// Extract everything from one page.
    ///
    /// Owned-result convenience over [`Extractor::extract_page_into`]:
    /// allocates fresh working buffers per call. Loops should reuse an
    /// [`ExtractScratch`] instead.
    #[must_use]
    pub fn extract_page(&self, page: &Page) -> PageExtraction {
        let mut bufs = PageBuffers::default();
        self.extract_html_into(&page.text, &mut bufs);
        bufs.extraction
    }

    /// Extract everything from one page through reused scratch buffers.
    /// Steady state this allocates nothing beyond entity-set growth.
    pub fn extract_page_into<'s>(
        &self,
        page: &Page,
        scratch: &'s mut ExtractScratch,
    ) -> &'s PageExtraction {
        self.extract_html_into(&page.text, &mut scratch.bufs);
        &scratch.bufs.extraction
    }

    /// Render (or read) and extract every page of a sharded web — the one
    /// whole-web extraction call, for webs rendered on the fly
    /// ([`ShardedWeb::rendered`]) and shard stores on disk alike: a fresh
    /// [`ExtractJob`] joined by `threads` participants whose step only
    /// extracts (see [`Extractor::join`]).
    ///
    /// # Errors
    /// Propagates shard validation/read failures ([`ShardError`]).
    pub fn extract(&self, web: &ShardedWeb<'_>, threads: usize) -> Result<ExtractedWeb, ShardError> {
        let job = ExtractJob::new(web);
        self.join(&job, web, threads, |shard, acc| shard.extract_into(acc));
        job.into_result().expect("every participant returned, so the job finished")
    }

    /// Work on `job`, an extraction of `web`, with up to `threads`
    /// participants — the calling thread and `threads - 1` more, or,
    /// when it is already running `par` work, only as many more as are
    /// idle (the `par` thread rule) — and
    /// return its result once every claimed shard is done. Any number of
    /// threads may join the same job at once; later joins of a finished
    /// job return at once.
    ///
    /// Shards are claimed from the job's one cursor: site sizes are
    /// Zipfian and stored shards hide their cost until read, so no
    /// static plan balances them. Each claimed shard goes to `step` with
    /// the participant's one accumulator, made on its first claim, so
    /// peak state is O(participants × accumulator) + O(largest shard) —
    /// never O(shards × accumulator), which at full scale is the
    /// corpus-sized footprint this path exists to avoid. A step's error
    /// stops its own participant and becomes the job's result.
    ///
    /// Which shards land in which participant is scheduling-dependent,
    /// but every shard covers a *disjoint* site range and every page
    /// renders from `(seed, page id)` alone, so the merge is commutative
    /// (disjoint per-site lists union, counters add, histogram buckets
    /// add) and the result is byte-identical at any thread count, any
    /// shard plan and any mix of participants. The participant that
    /// completes the job merges and publishes the `extract.*` metrics
    /// once, counting what the merged result holds (shards an epoch
    /// replayed too). Per-participant byte totals land in the
    /// `extract.worker_bytes.*` gauges (plus `extract.shard_imbalance`,
    /// max/mean) so scheduling imbalance is visible in `RUN_REPORT.json`.
    ///
    /// Every participant must pass the same `web`, an extractor with
    /// the same catalog and classifier, and the same `step`.
    ///
    /// # Panics
    /// Panics when any participant of the job panicked (see [`par::Job`]).
    pub fn join<'j, E: Send + Sync>(
        &self,
        job: &'j ExtractJob<E>,
        web: &ShardedWeb<'_>,
        threads: usize,
        step: impl Fn(ClaimedShard<'_>, &mut ExtractedWeb) -> Result<(), E> + Sync,
    ) -> &'j Result<ExtractedWeb, E> {
        if let Some(done) = job.0.result() {
            return done;
        }
        let n_shards = web.n_shards();
        let _span = webstruct_util::span!("extract", n_shards, threads);
        let (n_sites, n_entities) = (web.n_sites(), self.catalog.len());
        par::par_workers(threads.min(n_shards), |_| {
            let mut bufs = PageBuffers::default();
            job.0.join(
                || Ok(ExtractedWeb::new(n_sites, n_entities)),
                |w, index| {
                    // A participant stops at its first error.
                    let Ok(acc) = w else { return false };
                    let shard = ClaimedShard {
                        index,
                        extractor: self,
                        web,
                        bufs: &mut bufs,
                    };
                    match step(shard, acc) {
                        Ok(()) => true,
                        Err(e) => {
                            *w = Err(e);
                            false
                        }
                    }
                },
                |folds| {
                    publish_worker_gauges(folds.iter().flatten().map(|acc| acc.bytes_rendered));
                    // Fold into the first deposit rather than a fresh
                    // accumulator: a full-width ExtractedWeb carries
                    // n_sites list headers before a single entry lands,
                    // and at full scale a third instance is real memory.
                    let mut merged: Option<ExtractedWeb> = None;
                    for acc in folds {
                        let acc = acc?;
                        match &mut merged {
                            None => merged = Some(acc),
                            Some(m) => m.merge(acc),
                        }
                    }
                    let merged = merged.unwrap_or_else(|| ExtractedWeb::new(n_sites, n_entities));
                    merged.publish_metrics();
                    Ok(merged)
                },
            );
        });
        job.0.result().expect("a returned participant saw the job finish")
    }

    /// Extract exactly one shard of a sharded web into a fresh full-width
    /// accumulator, sealed and ready to snapshot with
    /// [`ExtractedWeb::shard_snapshot_bytes`]: the lone-shard reference
    /// for [`ClaimedShard::extract_snapshot`], which the epoch pipeline
    /// uses instead to skip this `n_sites`-wide allocation.
    ///
    /// # Errors
    /// Propagates shard validation/read failures ([`ShardError`]).
    ///
    /// # Panics
    /// Panics when `i` is out of range for the sharded web.
    pub fn extract_one_shard(
        &self,
        sharded: &ShardedWeb<'_>,
        i: usize,
        n_sites: usize,
    ) -> Result<ExtractedWeb, ShardError> {
        let mut acc = ExtractedWeb::new(n_sites, self.catalog.len());
        self.fold_shard(sharded, i, &mut PageBuffers::default(), &mut acc)?;
        Ok(acc)
    }

    /// The page loop behind every extraction: extract every page of
    /// shard `i` into `acc`, then seal the shard's sites, and return
    /// what this shard alone added to the counters. Shards partition
    /// sites, so a finished shard's lists are final: sealing drops
    /// their growth slack now instead of carrying ~2x the data size to
    /// the end of the run.
    fn fold_shard(
        &self,
        web: &ShardedWeb<'_>,
        i: usize,
        bufs: &mut PageBuffers,
        acc: &mut ExtractedWeb,
    ) -> Result<ShardTally, ShardError> {
        let before = acc.counters();
        let mut page_bytes = LocalHistogram::new();
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        web.for_each_page(i, |_id, site, _kind, text| {
            lo = lo.min(site.raw());
            hi = hi.max(site.raw());
            self.extract_html_into(text, bufs);
            acc.bytes_rendered += text.len() as u64;
            page_bytes.record(text.len() as u64);
            acc.ingest(site, &bufs.extraction);
        })?;
        acc.page_bytes.merge(&page_bytes);
        if lo <= hi {
            acc.seal_sites(lo, hi);
        }
        let after = acc.counters();
        Ok(ShardTally {
            counters: std::array::from_fn(|k| after[k] - before[k]),
            page_bytes,
        })
    }
}

/// A shard claimed by an [`ExtractJob`] participant, handed to the job's
/// per-shard step with the participant's accumulator. The step extracts
/// it, or drops it and merges the shard's cached snapshot instead.
pub struct ClaimedShard<'s> {
    index: usize,
    extractor: &'s Extractor<'s>,
    web: &'s ShardedWeb<'s>,
    bufs: &'s mut PageBuffers,
}

impl ClaimedShard<'_> {
    /// The shard's index in the sharded web.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Extract every page of the shard into `acc`.
    ///
    /// # Errors
    /// Propagates shard validation/read failures ([`ShardError`]).
    pub fn extract_into(self, acc: &mut ExtractedWeb) -> Result<(), ShardError> {
        self.extractor.fold_shard(self.web, self.index, self.bufs, acc).map(drop)
    }

    /// [`extract_into`](ClaimedShard::extract_into), then return the
    /// shard's WSX1 snapshot over `sites`, its site range: `acc`'s lists
    /// there under a header of this shard's own counters. Shards
    /// partition sites, so these are the bytes of the shard extracted
    /// alone ([`Extractor::extract_one_shard`]).
    ///
    /// # Errors
    /// Propagates shard validation/read failures ([`ShardError`]).
    pub fn extract_snapshot(
        self,
        acc: &mut ExtractedWeb,
        sites: std::ops::Range<usize>,
    ) -> Result<Vec<u8>, ShardError> {
        let tally = self.extractor.fold_shard(self.web, self.index, self.bufs, acc)?;
        Ok(acc.snapshot_bytes(&tally, sites))
    }
}

/// A whole-web extraction that threads join rather than wait on: the
/// shard cursor, the participants' deposits (an accumulator, or the step
/// error `E` that stopped one) and, once the last claimed shard is
/// folded, the merged result or an error. Start one with
/// [`ExtractJob::new`] and work on it with [`Extractor::join`] from as
/// many threads as need the result.
pub struct ExtractJob<E = ShardError>(par::Job<Result<ExtractedWeb, E>, Result<ExtractedWeb, E>>);

impl<E> ExtractJob<E> {
    /// A job over every shard of `web`, not yet joined.
    #[must_use]
    pub fn new(web: &ShardedWeb<'_>) -> Self {
        ExtractJob(par::Job::new(web.n_shards()))
    }

    /// The finished extraction, or `None` while the job is in flight.
    #[must_use]
    pub fn result(&self) -> Option<&Result<ExtractedWeb, E>> {
        self.0.result()
    }

    /// The finished extraction by value, or `None` when the job never
    /// finished.
    #[must_use]
    pub fn into_result(self) -> Option<Result<ExtractedWeb, E>> {
        self.0.into_result()
    }
}

impl<E> std::fmt::Debug for ExtractJob<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExtractJob")
            .field("finished", &self.result().is_some())
            .finish_non_exhaustive()
    }
}

/// Publish per-worker rendered-byte totals and the max/mean imbalance
/// ratio as gauges. Gauges are the *non-deterministic* metric space —
/// worker count and packing vary with `WEBSTRUCT_THREADS` — so these feed
/// `RUN_REPORT.json`'s `gauges` key, not the deterministic metrics tail.
fn publish_worker_gauges(worker_bytes: impl Iterator<Item = u64>) {
    let m = obs::metrics();
    let mut max = 0u64;
    let mut sum = 0u64;
    let mut n = 0usize;
    for (w, bytes) in worker_bytes.enumerate() {
        m.set_gauge(&format!("extract.worker_bytes.w{w}"), bytes as f64);
        max = max.max(bytes);
        sum += bytes;
        n += 1;
    }
    if n > 0 && sum > 0 {
        let mean = sum as f64 / n as f64;
        m.set_gauge("extract.shard_imbalance", max as f64 / mean);
    }
}

/// A site's occurrence list may hold at most this many uncompacted
/// (possibly duplicate) entries beyond its sorted prefix before it is
/// sorted + folded in place — the same amortisation the graph
/// accumulator uses, bounding per-site memory at distinct + slack no
/// matter how many pages repeat the same entities.
const COMPACT_SLACK: usize = 64;

/// Attribute tags for packed occurrence entries (bits 62..64).
const TAG_PHONE: u64 = 0;
const TAG_ISBN: u64 = 1;
const TAG_HOMEPAGE: u64 = 2;
const TAG_REVIEW: u64 = 3;

fn attr_tag(attr: Attribute) -> u64 {
    match attr {
        Attribute::Phone => TAG_PHONE,
        Attribute::Isbn => TAG_ISBN,
        Attribute::Homepage => TAG_HOMEPAGE,
        Attribute::Review => TAG_REVIEW,
    }
}

/// Pack one occurrence: `[tag:2][entity:30][page_count:32]`. Sorting the
/// packed words sorts by (tag, entity) with the count in the low bits, so
/// equal (tag, entity) entries land adjacent and fold by adding counts.
fn pack(tag: u64, e: EntityId, pages: u32) -> u64 {
    debug_assert!(u64::from(e.raw()) < (1 << 30), "entity id overflows pack");
    (tag << 62) | (u64::from(e.raw()) << 32) | u64::from(pages)
}

fn packed_key(x: u64) -> u64 {
    x >> 32
}

fn packed_entity(x: u64) -> EntityId {
    EntityId::new(((x >> 32) & ((1 << 30) - 1)) as u32)
}

fn packed_pages(x: u64) -> u32 {
    x as u32
}

/// Sort + fold a site's packed occurrences: duplicate (tag, entity) keys
/// collapse to one entry whose page count is the sum.
fn compact_packed(l: &mut Vec<u64>) {
    l.sort_unstable();
    let mut w = 0usize;
    for r in 1..l.len() {
        if packed_key(l[r]) == packed_key(l[w]) {
            let pages = packed_pages(l[w]).saturating_add(packed_pages(l[r]));
            l[w] = (l[w] & !0xFFFF_FFFF) | u64::from(pages);
        } else {
            w += 1;
            l[w] = l[r];
        }
    }
    l.truncate(w + usize::from(!l.is_empty()));
}

/// Per-site packed occurrence lists with amortised sort+fold — the
/// spill-friendly storage behind [`ExtractedWeb`]. All four attributes
/// share one sorted `Vec<u64>` per site (plus a 4-byte compaction mark):
/// 28 bytes of per-site header against ~192 for four hash tables, and 8
/// bytes per occurrence flat. With one accumulator per worker the
/// per-site headers are most of a full-scale worker's footprint, so the
/// cheap representation is what keeps the streamed pipeline's peak RSS
/// flat across thread counts.
#[derive(Debug, Clone, Default)]
struct SiteOccurrences {
    lists: Vec<Vec<u64>>,
    /// Length of each site's sorted+folded prefix.
    sorted: Vec<u32>,
}

impl SiteOccurrences {
    fn new(n_sites: usize) -> Self {
        SiteOccurrences {
            lists: vec![Vec::new(); n_sites],
            sorted: vec![0; n_sites],
        }
    }

    fn n_sites(&self) -> usize {
        self.lists.len()
    }

    fn maybe_compact(&mut self, s: usize) {
        let l = &mut self.lists[s];
        if l.len() >= self.sorted[s] as usize + COMPACT_SLACK {
            compact_packed(l);
            self.sorted[s] = l.len() as u32;
        }
    }

    fn push(&mut self, s: usize, tag: u64, ids: &[EntityId], pages: u32) {
        if ids.is_empty() {
            return;
        }
        self.lists[s].extend(ids.iter().map(|&e| pack(tag, e, pages)));
    }


    /// Run `f` over the site's occurrences, sorted + folded: in place when
    /// the site is sealed (its whole list is the sorted prefix, the
    /// steady state after a shard completes), else over a compacted copy
    /// of a list still buffering a slack tail.
    fn with_compacted<R>(&self, s: usize, f: impl FnOnce(&[u64]) -> R) -> R {
        let l = &self.lists[s];
        if self.sorted[s] as usize == l.len() {
            f(l)
        } else {
            let mut v = l.clone();
            compact_packed(&mut v);
            f(&v)
        }
    }

    /// The site's distinct entities for `tag`, sorted ascending.
    fn entities(&self, s: usize, tag: u64) -> Vec<EntityId> {
        self.with_compacted(s, |entries| {
            entries
                .iter()
                .filter(|&&x| x >> 62 == tag)
                .map(|&x| packed_entity(x))
                .collect()
        })
    }

    fn distinct_count(&self, s: usize, tag: u64) -> usize {
        self.with_compacted(s, |entries| entries.iter().filter(|&&x| x >> 62 == tag).count())
    }

    /// Compact and shrink every list in `lo..=hi` to its exact final
    /// size. Shard workers call this when a shard completes: shards never
    /// split a site, so those lists will not grow again, and dropping the
    /// `Vec` doubling slack roughly halves the accumulator's resident
    /// footprint at full scale. Sealing is idempotent and safe even if a
    /// site *were* pushed again — the list simply regrows.
    fn seal(&mut self, lo: usize, hi: usize) {
        if self.lists.is_empty() {
            return;
        }
        for s in lo..=hi.min(self.lists.len() - 1) {
            let l = &mut self.lists[s];
            if (self.sorted[s] as usize) < l.len() {
                compact_packed(l);
            }
            l.shrink_to_fit();
            self.sorted[s] = l.len() as u32;
        }
    }

    fn merge(&mut self, other: SiteOccurrences) {
        for (s, (src, sm)) in other.lists.into_iter().zip(other.sorted).enumerate() {
            if src.is_empty() {
                continue;
            }
            let dst = &mut self.lists[s];
            if dst.is_empty() {
                *dst = src;
                self.sorted[s] = sm;
            } else {
                dst.extend_from_slice(&src);
                compact_packed(dst);
                self.sorted[s] = dst.len() as u32;
            }
        }
    }
}

/// What one shard's pages added to an accumulator's counters and
/// page-size histogram: the header of that shard's WSX1 snapshot, kept
/// apart because the accumulator may hold other shards too.
struct ShardTally {
    /// Pages, bytes, unmatched phones, ISBNs and hrefs, in header order.
    counters: [u64; 5],
    page_bytes: LocalHistogram,
}

/// Aggregated extraction results, grouped by host as in the paper.
#[derive(Debug, Clone)]
pub struct ExtractedWeb {
    n_entities: usize,
    /// Packed per-site (attribute, entity, review_page_count) occurrences;
    /// Figure 4(b) counts review *pages*, so review entries carry counts.
    occurrences: SiteOccurrences,
    /// Diagnostics.
    pub pages_processed: u64,
    /// Total bytes of page text that entered extraction. Drives MB/sec
    /// throughput reporting.
    pub bytes_rendered: u64,
    /// Phone matches not in the catalog (noise hits).
    pub unmatched_phones: u64,
    /// ISBN matches not in the catalog.
    pub unmatched_isbns: u64,
    /// Anchors pointing outside the catalog.
    pub unmatched_hrefs: u64,
    /// Log₂-bucketed distribution of per-page text sizes — scratch-local
    /// (plain array increments on the hot path), merged shard-wise with
    /// the rest of the accumulator and published once per
    /// [`Extractor::extract`] run.
    pub page_bytes: LocalHistogram,
}

impl ExtractedWeb {
    /// Empty accumulator for `n_sites` sites.
    #[must_use]
    pub fn new(n_sites: usize, n_entities: usize) -> Self {
        ExtractedWeb {
            n_entities,
            occurrences: SiteOccurrences::new(n_sites),
            pages_processed: 0,
            bytes_rendered: 0,
            unmatched_phones: 0,
            unmatched_isbns: 0,
            unmatched_hrefs: 0,
            page_bytes: LocalHistogram::new(),
        }
    }

    /// Publish this accumulation's totals to the global `extract.*`
    /// metrics. Every value is a pure function of the workload (counter
    /// addition and histogram merge are commutative), so the registry
    /// snapshot is identical for any shard count.
    pub fn publish_metrics(&self) {
        let m = obs::metrics();
        m.add("extract.pages", self.pages_processed);
        m.add("extract.bytes", self.bytes_rendered);
        // No extraction path truncates or skips pages; the counters stay
        // (at 0) so the metrics tail keeps its shape.
        m.add("extract.truncated_pages", 0);
        m.add("extract.skipped_pages", 0);
        m.add("extract.unmatched_phones", self.unmatched_phones);
        m.add("extract.unmatched_isbns", self.unmatched_isbns);
        m.add("extract.unmatched_hrefs", self.unmatched_hrefs);
        m.merge_histogram("extract.page_bytes", &self.page_bytes);
    }

    /// Fold one page's extraction into the per-site aggregates.
    ///
    /// # Panics
    /// Panics when `site` is out of range for the accumulator.
    pub fn ingest(&mut self, site: SiteId, ex: &PageExtraction) {
        let s = site.index();
        self.pages_processed += 1;
        self.unmatched_phones += u64::from(ex.unmatched_phones);
        self.unmatched_isbns += u64::from(ex.unmatched_isbns);
        self.unmatched_hrefs += u64::from(ex.unmatched_hrefs);
        self.occurrences.push(s, TAG_PHONE, &ex.phone_entities, 0);
        self.occurrences.push(s, TAG_ISBN, &ex.isbn_entities, 0);
        self.occurrences.push(s, TAG_HOMEPAGE, &ex.homepage_entities, 0);
        if ex.is_review {
            // The paper attributes a review page to every restaurant whose
            // phone appears on it (usually exactly one).
            self.occurrences.push(s, TAG_REVIEW, &ex.phone_entities, 1);
        }
        self.occurrences.maybe_compact(s);
    }

    /// The five diagnostic counters, in WSX1 header order.
    fn counters(&self) -> [u64; 5] {
        [
            self.pages_processed,
            self.bytes_rendered,
            self.unmatched_phones,
            self.unmatched_isbns,
            self.unmatched_hrefs,
        ]
    }

    /// Number of sites tracked.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.occurrences.n_sites()
    }

    /// Seal the sites in `lo..=hi`: compact their occurrence lists and
    /// shrink them to exact-fit capacity. Called by the shard workers
    /// after each finished shard (shards partition sites, so a finished
    /// shard's lists are final).
    pub fn seal_sites(&mut self, lo: u32, hi: u32) {
        self.occurrences.seal(lo as usize, hi as usize);
    }

    /// Number of catalog entities.
    #[must_use]
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Per-site sorted entity lists for an attribute — the same shape as
    /// `Web::occurrence_lists`, so oracle and extracted data feed the same
    /// analyses.
    ///
    /// # Panics
    /// Panics for attributes the pipeline does not extract (none today).
    #[must_use]
    pub fn occurrence_lists(&self, attr: Attribute) -> Vec<Vec<EntityId>> {
        let tag = attr_tag(attr);
        (0..self.n_sites())
            .map(|s| self.occurrences.entities(s, tag))
            .collect()
    }

    /// One site's distinct entities for `attr`, sorted ascending — the
    /// ranged counterpart of
    /// [`occurrence_lists`](ExtractedWeb::occurrence_lists), so the
    /// incremental pipeline can feed streaming accumulators shard by
    /// shard without materializing the full-width table.
    ///
    /// # Panics
    /// Panics when `site` is out of range.
    #[must_use]
    pub fn site_entities(&self, site: usize, attr: Attribute) -> Vec<EntityId> {
        self.occurrences.entities(site, attr_tag(attr))
    }

    /// Per-site `(entity, review_page_count)` lists.
    #[must_use]
    pub fn review_page_lists(&self) -> Vec<Vec<(EntityId, u32)>> {
        (0..self.n_sites())
            .map(|s| {
                self.occurrences.with_compacted(s, |entries| {
                    entries
                        .iter()
                        .filter(|&&x| x >> 62 == TAG_REVIEW)
                        .map(|&x| (packed_entity(x), packed_pages(x)))
                        .collect()
                })
            })
            .collect()
    }

    /// Total (site, entity) pairs for an attribute.
    ///
    /// Sealed sites (the steady state) are counted straight from their
    /// lists; a site still buffering a slack tail compacts a copy.
    #[must_use]
    pub fn total_occurrences(&self, attr: Attribute) -> usize {
        let tag = attr_tag(attr);
        (0..self.n_sites())
            .map(|s| self.occurrences.distinct_count(s, tag))
            .sum()
    }

    /// Fold another accumulator over the same site/entity universe into
    /// this one. Shards produced by site-partitioned extraction touch
    /// disjoint sites, but the merge is correct for overlapping ones too:
    /// entity sets union, review page counts add, diagnostics add.
    ///
    /// # Panics
    /// Panics when the accumulators track different numbers of sites or
    /// entities.
    pub fn merge(&mut self, other: ExtractedWeb) {
        assert_eq!(self.n_sites(), other.n_sites(), "site universe mismatch");
        assert_eq!(self.n_entities, other.n_entities, "entity universe mismatch");
        self.pages_processed += other.pages_processed;
        self.bytes_rendered += other.bytes_rendered;
        self.unmatched_phones += other.unmatched_phones;
        self.unmatched_isbns += other.unmatched_isbns;
        self.unmatched_hrefs += other.unmatched_hrefs;
        self.page_bytes.merge(&other.page_bytes);
        self.occurrences.merge(other.occurrences);
    }

    /// Serialize this accumulator's results for the sites in `sites` as a
    /// canonical, content-addressable snapshot — the payload format the
    /// extraction cache stores beside each shard. The encoding is
    /// deterministic (per-site lists are emitted compacted: sorted and
    /// folded), so extracting the same shard bytes always serializes to
    /// the same snapshot bytes regardless of thread schedule. The header's
    /// counters and page-size histogram are the *whole* accumulator's, so
    /// for one shard's entry call this on that shard extracted alone
    /// ([`Extractor::extract_one_shard`]); the epoch pipeline writes the
    /// same bytes with [`ClaimedShard::extract_snapshot`], whose header
    /// is the shard's own.
    ///
    /// Layout, little-endian: `"WSX1"`, version `u32`, site range
    /// `[lo, hi)` as two `u32`s, seven diagnostic counters (`u64` each:
    /// pages, bytes, unmatched phones/isbns/hrefs, then two reserved
    /// slots, always 0, that once counted truncated and skipped pages),
    /// the page-size histogram
    /// ([`LocalHistogram::to_bytes`]), then per site an entry count
    /// `u32` followed by that many packed `u64` occurrences.
    #[must_use]
    pub fn shard_snapshot_bytes(&self, sites: std::ops::Range<usize>) -> Vec<u8> {
        let page_bytes = self.page_bytes.clone();
        self.snapshot_bytes(&ShardTally { counters: self.counters(), page_bytes }, sites)
    }

    /// The snapshot of `sites` under the header `tally`.
    fn snapshot_bytes(&self, tally: &ShardTally, sites: std::ops::Range<usize>) -> Vec<u8> {
        let mut out = Vec::with_capacity(SNAPSHOT_HEADER_LEN + 64 * sites.len());
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(sites.start as u32).to_le_bytes());
        out.extend_from_slice(&(sites.end as u32).to_le_bytes());
        for c in tally.counters.into_iter().chain([0, 0]) {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&tally.page_bytes.to_bytes());
        for s in sites {
            self.occurrences.with_compacted(s, |entries| {
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for e in entries {
                    out.extend_from_slice(&e.to_le_bytes());
                }
            });
        }
        out
    }

    /// Fold a serialized shard snapshot into this accumulator — the
    /// cache-hit half of the incremental pipeline, equivalent to merging
    /// the [`ExtractedWeb`] the snapshot was taken from. Merging a
    /// snapshot into an accumulator whose sites in the snapshot's range
    /// are empty reproduces byte-for-byte the state a fresh extraction of
    /// that shard would have merged (snapshots store compacted lists, and
    /// [`merge`](ExtractedWeb::merge) compacts on contact).
    ///
    /// # Errors
    /// A static description of the first structural problem: wrong magic
    /// or version, a truncated buffer, a site range or entity id outside
    /// this accumulator's universe, a site list that is not in the
    /// canonical form [`shard_snapshot_bytes`](ExtractedWeb::shard_snapshot_bytes)
    /// writes (strictly ascending by (attribute, entity)), or a counter or
    /// histogram bucket that would overflow this accumulator's. An error
    /// leaves the accumulator exactly as it was. Digest-level corruption is the cache
    /// layer's job to catch before the bytes get here.
    pub fn merge_snapshot(&mut self, bytes: &[u8]) -> Result<(), &'static str> {
        // Read the whole header before checking any of it, so a buffer
        // shorter than the header is that error whatever its bytes.
        let short = |_| "snapshot shorter than its header";
        let mut r = Reader::new(bytes);
        let magic: [u8; 4] = r.array().map_err(short)?;
        let version = r.u32().map_err(short)?;
        let lo = r.u32().map_err(short)? as usize;
        let hi = r.u32().map_err(short)? as usize;
        let mut deltas = [0u64; 7];
        for d in &mut deltas {
            *d = r.u64().map_err(short)?;
        }
        let hist = r.take(LocalHistogram::WIRE_LEN).map_err(short)?;
        if magic != SNAPSHOT_MAGIC {
            return Err("bad snapshot magic (want WSX1)");
        }
        if version != 1 {
            return Err("unsupported snapshot version");
        }
        if lo > hi || hi > self.n_sites() {
            return Err("snapshot site range outside accumulator universe");
        }
        // Validate everything before mutating anything: checked sums for
        // the counters and the histogram, then a full walk of the site
        // table. Any error leaves the accumulator untouched. The last two
        // counter slots are reserved.
        let mut counters = self.counters();
        for (c, d) in counters.iter_mut().zip(deltas) {
            *c = c.checked_add(d).ok_or("snapshot counter overflow")?;
        }
        let hist = LocalHistogram::from_bytes(hist).ok_or("undecodable snapshot histogram")?;
        let page_bytes = self
            .page_bytes
            .checked_merge(&hist)
            .ok_or("snapshot histogram overflow")?;
        // Each non-empty site's validated list, for the apply pass.
        let mut lists = Vec::new();
        for s in lo..hi {
            let n = r.u32().map_err(|_| "snapshot truncated in site table")? as usize;
            let list = r
                .take(n.saturating_mul(8))
                .map_err(|_| "snapshot truncated in occurrence list")?;
            let mut words = Reader::new(list);
            let mut prev_key = None;
            while let Ok(x) = words.u64() {
                if packed_entity(x).index() >= self.n_entities {
                    return Err("snapshot entity outside accumulator universe");
                }
                if prev_key.is_some_and(|p| p >= packed_key(x)) {
                    return Err("snapshot site list not strictly ascending");
                }
                prev_key = Some(packed_key(x));
            }
            if n > 0 {
                lists.push((s, list));
            }
        }
        if r.remaining() != 0 {
            return Err("snapshot has trailing bytes");
        }

        [
            self.pages_processed,
            self.bytes_rendered,
            self.unmatched_phones,
            self.unmatched_isbns,
            self.unmatched_hrefs,
        ] = counters;
        self.page_bytes = page_bytes;
        for (s, list) in lists {
            let dst = &mut self.occurrences.lists[s];
            let was_empty = dst.is_empty();
            dst.reserve_exact(list.len() / 8);
            let mut words = Reader::new(list);
            while let Ok(x) = words.u64() {
                dst.push(x);
            }
            // Snapshots store compacted lists, so a fresh site is
            // already canonical; a site with prior entries re-folds.
            if !was_empty {
                compact_packed(dst);
            }
            dst.shrink_to_fit();
            self.occurrences.sorted[s] = dst.len() as u32;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_review_classifier;
    use webstruct_corpus::domain::Domain;
    use webstruct_corpus::entity::CatalogConfig;
    use webstruct_corpus::page::{PageConfig, PageKind, PageStream};
    use webstruct_corpus::shard::{plan_shards, ShardStore};
    use webstruct_corpus::web::{Web, WebConfig};
    use webstruct_util::rng::Seed;
    use webstruct_util::TempDir;

    fn restaurant_fixture() -> (EntityCatalog, Web) {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 400), Seed(31));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Restaurants).scaled(0.01),
            Seed(31),
        );
        (catalog, web)
    }

    /// Render and extract the whole of `web` at `threads` workers.
    fn extract_rendered(
        extractor: &Extractor<'_>,
        web: &Web,
        seed: Seed,
        threads: usize,
    ) -> ExtractedWeb {
        let sharded =
            ShardedWeb::rendered(web, extractor.catalog, PageConfig::default(), seed, threads);
        extractor.extract(&sharded, threads).expect("rendered shards")
    }

    #[test]
    fn extracted_phone_relation_equals_ground_truth() {
        let (catalog, web) = restaurant_fixture();
        let extracted = extract_rendered(&Extractor::new(&catalog), &web, Seed(32), 1);
        assert_eq!(
            extracted.occurrence_lists(Attribute::Phone),
            web.occurrence_lists(Attribute::Phone),
            "extraction must reproduce the ground-truth phone relation"
        );
    }

    #[test]
    fn extracted_homepage_relation_equals_ground_truth() {
        let (catalog, web) = restaurant_fixture();
        let extracted = extract_rendered(&Extractor::new(&catalog), &web, Seed(32), 1);
        assert_eq!(
            extracted.occurrence_lists(Attribute::Homepage),
            web.occurrence_lists(Attribute::Homepage)
        );
        // Noise anchors were present but never matched the catalog.
        assert!(extracted.unmatched_hrefs > 0);
    }

    #[test]
    fn extracted_isbn_relation_equals_ground_truth() {
        let catalog = EntityCatalog::generate(&CatalogConfig::new(Domain::Books, 400), Seed(33));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Books).scaled(0.01),
            Seed(33),
        );
        let extracted = extract_rendered(&Extractor::new(&catalog), &web, Seed(34), 1);
        assert_eq!(
            extracted.occurrence_lists(Attribute::Isbn),
            web.occurrence_lists(Attribute::Isbn)
        );
    }

    #[test]
    fn review_extraction_recovers_review_pages() {
        let (catalog, web) = restaurant_fixture();
        let clf = train_review_classifier(Seed(35), 150).unwrap();
        let extractor = Extractor::new(&catalog).with_review_classifier(clf);
        let n_review_pages = PageStream::new(&web, &catalog, PageConfig::default(), Seed(32))
            .filter(|p| p.kind == PageKind::Review)
            .count();
        let extracted = extract_rendered(&extractor, &web, Seed(32), 1);
        let recovered: u32 = extracted
            .review_page_lists()
            .iter()
            .flat_map(|l| l.iter().map(|&(_, c)| c))
            .sum();
        assert!(n_review_pages > 0);
        // The classifier is imperfect, but recall should be high and false
        // positives rare.
        let recall = f64::from(recovered) / n_review_pages as f64;
        assert!(
            (0.9..=1.1).contains(&recall),
            "recovered {recovered} of {n_review_pages} review pages"
        );
    }

    #[test]
    fn unmatched_phone_noise_is_counted_but_excluded() {
        let (catalog, web) = restaurant_fixture();
        let extracted = extract_rendered(&Extractor::new(&catalog), &web, Seed(32), 1);
        // Invalid lookalikes (area < 200) are rejected by the scanner, so
        // they never even reach the unmatched counter; tracking numbers are
        // too long. Unmatched phones only arise from valid-format numbers
        // in training-noise, which our listing pages do not contain.
        assert_eq!(extracted.unmatched_phones, 0);
        assert!(extracted.pages_processed > 0);
    }

    #[test]
    fn snapshot_replay_is_bit_identical_to_direct_extraction() {
        let (catalog, web) = restaurant_fixture();
        let clf = train_review_classifier(Seed(35), 150).unwrap();
        let extractor = Extractor::new(&catalog).with_review_classifier(clf);
        let sharded = ShardedWeb::rendered(&web, &catalog, PageConfig::default(), Seed(32), 2);
        let ShardedWeb::Rendered { ref specs, .. } = sharded else {
            unreachable!()
        };
        let specs = specs.clone();
        let direct = extractor.extract(&sharded, 2).unwrap();
        // Extract each shard alone, serialize, and replay the snapshots
        // into a fresh accumulator — the cache-hit path end to end.
        let mut replayed = ExtractedWeb::new(web.n_sites(), catalog.len());
        for (i, spec) in specs.iter().enumerate() {
            let acc = extractor
                .extract_one_shard(&sharded, i, web.n_sites())
                .unwrap();
            let bytes = acc.shard_snapshot_bytes(spec.sites.clone());
            replayed.merge_snapshot(&bytes).unwrap();
        }
        for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
            assert_eq!(replayed.occurrence_lists(attr), direct.occurrence_lists(attr));
        }
        assert_eq!(replayed.review_page_lists(), direct.review_page_lists());
        assert_eq!(replayed.pages_processed, direct.pages_processed);
        assert_eq!(replayed.page_bytes, direct.page_bytes);
        // The strongest form: the two accumulators serialize identically.
        assert_eq!(
            replayed.shard_snapshot_bytes(0..web.n_sites()),
            direct.shard_snapshot_bytes(0..web.n_sites())
        );
    }

    #[test]
    fn a_shard_extracted_into_a_shared_accumulator_snapshots_as_if_alone() {
        let (catalog, web) = restaurant_fixture();
        let clf = train_review_classifier(Seed(35), 150).unwrap();
        let extractor = Extractor::new(&catalog).with_review_classifier(clf);
        let dir = TempDir::new("extract-shard-step");
        let store = ShardStore::write(&dir, &web, &catalog, &PageConfig::default(), Seed(32), 16 * 1024)
            .expect("write shards");
        let sharded = ShardedWeb::Stored(&store);
        let ranges: Vec<std::ops::Range<usize>> = store
            .manifest()
            .shards
            .iter()
            .map(|e| e.sites.start as usize..e.sites.end as usize)
            .collect();
        assert!(ranges.len() > 8, "several shards per participant at 4 threads");
        let alone: Vec<Vec<u8>> = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let acc = extractor.extract_one_shard(&sharded, i, web.n_sites()).unwrap();
                acc.shard_snapshot_bytes(r.clone())
            })
            .collect();
        let direct = extractor.extract(&sharded, 1).unwrap();
        // The whole-web snapshot's header carries every counter and the
        // page-size histogram, so equal bytes mean equal diagnostics too.
        let whole = |w: &ExtractedWeb| w.shard_snapshot_bytes(0..web.n_sites());
        for threads in [1, 4] {
            // Every shard misses: each snapshot is written from the
            // participant's accumulator, which holds its other shards.
            let written: Vec<std::sync::OnceLock<Vec<u8>>> =
                std::iter::repeat_with(Default::default).take(ranges.len()).collect();
            let job = ExtractJob::new(&sharded);
            extractor.join(&job, &sharded, threads, |shard, acc| {
                let i = shard.index();
                let bytes = shard.extract_snapshot(acc, ranges[i].clone())?;
                written[i].set(bytes).expect("each shard is claimed once");
                Ok::<_, ShardError>(())
            });
            for (i, bytes) in written.iter().enumerate() {
                assert_eq!(bytes.get(), Some(&alone[i]), "shard {i} at {threads} threads");
            }
            assert_eq!(whole(job.into_result().unwrap().as_ref().unwrap()), whole(&direct));

            // Even shards replay those snapshots, odd shards extract.
            let job = ExtractJob::new(&sharded);
            extractor.join(&job, &sharded, threads, |shard, acc| {
                let i = shard.index();
                if i % 2 == 0 {
                    acc.merge_snapshot(&alone[i]).map_err(String::from)
                } else {
                    shard.extract_into(acc).map_err(|e| e.to_string())
                }
            });
            let mixed = job.into_result().unwrap().unwrap();
            assert_eq!(whole(&mixed), whole(&direct), "mixed job at {threads} threads");
        }
    }

    #[test]
    fn merge_snapshot_rejects_structural_damage() {
        let (catalog, web) = restaurant_fixture();
        let extractor = Extractor::new(&catalog);
        let sharded = ShardedWeb::rendered(&web, &catalog, PageConfig::default(), Seed(32), 1);
        let acc = extractor
            .extract_one_shard(&sharded, 0, web.n_sites())
            .unwrap();
        let bytes = acc.shard_snapshot_bytes(0..web.n_sites());
        let mut fresh = ExtractedWeb::new(web.n_sites(), catalog.len());
        assert!(fresh.merge_snapshot(&bytes[..10]).is_err(), "truncated header");
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(fresh.merge_snapshot(&bad).is_err(), "bad magic");
        assert!(
            fresh.merge_snapshot(&bytes[..bytes.len() - 1]).is_err(),
            "truncated tail"
        );
        for (damage, want) in non_canonical_lists(&bytes, catalog.len()) {
            assert_eq!(fresh.merge_snapshot(&damage), Err(want));
        }
    }

    /// Byte offset of the first site list with at least two entries, and
    /// its length.
    fn first_multi_entry_list(bytes: &[u8]) -> (usize, usize) {
        let mut at = SNAPSHOT_HEADER_LEN;
        loop {
            let n = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            if n >= 2 {
                return (at + 4, n);
            }
            at += 4 + n * 8;
        }
    }

    /// Copies of a valid snapshot, each damaged in one site list so that
    /// only the canonical-form walk can catch it, with the error each
    /// must get: an entity `== n_entities`, two entries swapped, and one
    /// (tag, entity) key written twice.
    fn non_canonical_lists(bytes: &[u8], n_entities: usize) -> Vec<(Vec<u8>, &'static str)> {
        let (list, n) = first_multi_entry_list(bytes);
        let at = |k: usize| list + 8 * k..list + 8 * k + 8;
        let word = |k: usize| u64::from_le_bytes(bytes[at(k)].try_into().unwrap());
        let with = |edits: &[(usize, u64)]| {
            let mut b = bytes.to_vec();
            for &(k, x) in edits {
                b[at(k)].copy_from_slice(&x.to_le_bytes());
            }
            b
        };
        let entity_bits = ((1u64 << 30) - 1) << 32;
        let past_end = (word(n - 1) & !entity_bits) | ((n_entities as u64) << 32);
        let (outside, unsorted) = (
            "snapshot entity outside accumulator universe",
            "snapshot site list not strictly ascending",
        );
        vec![
            (with(&[(n - 1, past_end)]), outside),
            (with(&[(0, word(1)), (1, word(0))]), unsorted),
            (with(&[(1, word(0))]), unsorted),
        ]
    }

    #[test]
    fn merge_snapshot_rejects_a_lying_counter() {
        let (catalog, web) = restaurant_fixture();
        let extractor = Extractor::new(&catalog);
        let sharded = ShardedWeb::rendered(&web, &catalog, PageConfig::default(), Seed(32), 1);
        let acc = extractor
            .extract_one_shard(&sharded, 0, web.n_sites())
            .unwrap();
        let bytes = acc.shard_snapshot_bytes(0..web.n_sites());
        let mut target = ExtractedWeb::new(web.n_sites(), catalog.len());
        target.merge_snapshot(&bytes).unwrap();
        assert!(target.pages_processed > 0 && target.bytes_rendered > 0);
        let counters = |w: &ExtractedWeb| {
            [
                w.pages_processed,
                w.bytes_rendered,
                w.unmatched_phones,
                w.unmatched_isbns,
                w.unmatched_hrefs,
            ]
        };
        let before = counters(&target);
        let lists = target.occurrence_lists(Attribute::Phone);
        // Each of the five counters in turn claims u64::MAX; the ones the
        // accumulator holds at zero must still add up exactly.
        for k in 0..5 {
            let mut lying = bytes.clone();
            lying[16 + 8 * k..24 + 8 * k].copy_from_slice(&u64::MAX.to_le_bytes());
            let got = target.merge_snapshot(&lying);
            if before[k] == 0 {
                assert_eq!(got, Ok(()), "counter {k}");
                target = ExtractedWeb::new(web.n_sites(), catalog.len());
                target.merge_snapshot(&bytes).unwrap();
            } else {
                assert_eq!(got, Err("snapshot counter overflow"), "counter {k}");
                assert_eq!(counters(&target), before, "counter {k} left a partial merge");
                assert_eq!(target.occurrence_lists(Attribute::Phone), lists);
            }
        }
    }

    #[test]
    fn failed_merge_snapshot_leaves_the_accumulator_untouched() {
        let (catalog, web) = restaurant_fixture();
        let extractor = Extractor::new(&catalog);
        let sharded = ShardedWeb::rendered(&web, &catalog, PageConfig::default(), Seed(32), 1);
        let acc = extractor
            .extract_one_shard(&sharded, 0, web.n_sites())
            .unwrap();
        let bytes = acc.shard_snapshot_bytes(0..web.n_sites());
        let mut target = ExtractedWeb::new(web.n_sites(), catalog.len());
        target.merge_snapshot(&bytes).unwrap();
        let before = target.shard_snapshot_bytes(0..web.n_sites());

        // A histogram bucket the accumulator already holds claims u64::MAX.
        let hist_at = 16 + 7 * 8;
        let bucket = (0..webstruct_util::obs::HIST_BUCKETS)
            .find(|i| bytes[hist_at + 8 * i..hist_at + 8 * i + 8] != [0; 8])
            .expect("the shard recorded page sizes");
        let mut lying = bytes.clone();
        lying[hist_at + 8 * bucket..hist_at + 8 * bucket + 8]
            .copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            target.merge_snapshot(&lying),
            Err("snapshot histogram overflow")
        );
        assert_eq!(
            target.shard_snapshot_bytes(0..web.n_sites()),
            before,
            "lying bucket"
        );

        // Truncated snapshots: every cut in the header and through the
        // first non-empty site list, then every 8th byte to the end, and
        // one byte short.
        let mut first_list_end = SNAPSHOT_HEADER_LEN;
        loop {
            let n = Reader::new(&bytes[first_list_end..]).u32().unwrap();
            first_list_end += 4 + 8 * n as usize;
            if n > 0 {
                break;
            }
        }
        let cuts = (0..=first_list_end)
            .chain((first_list_end..bytes.len()).step_by(8))
            .chain([bytes.len() - 1]);
        for cut in cuts {
            let got = target.merge_snapshot(&bytes[..cut]);
            if cut < SNAPSHOT_HEADER_LEN {
                assert_eq!(got, Err("snapshot shorter than its header"), "cut at {cut}");
            }
            assert!(got.is_err(), "cut at {cut}");
            assert_eq!(
                target.shard_snapshot_bytes(0..web.n_sites()),
                before,
                "truncation at {cut} left a partial merge"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            target.merge_snapshot(&trailing),
            Err("snapshot has trailing bytes")
        );
        assert_eq!(
            target.shard_snapshot_bytes(0..web.n_sites()),
            before,
            "trailing byte"
        );

        // Out-of-range and non-canonical site lists behind valid headers.
        for (damage, want) in non_canonical_lists(&bytes, catalog.len()) {
            assert_eq!(target.merge_snapshot(&damage), Err(want));
            assert_eq!(
                target.shard_snapshot_bytes(0..web.n_sites()),
                before,
                "{want} left a partial merge"
            );
        }
    }

    #[test]
    fn parallel_extraction_is_bit_identical_to_sequential() {
        let (catalog, web) = restaurant_fixture();
        let clf = train_review_classifier(Seed(35), 150).unwrap();
        let extractor = Extractor::new(&catalog).with_review_classifier(clf);
        let sequential = extract_rendered(&extractor, &web, Seed(32), 1);
        for threads in [2, 3, 8] {
            let parallel = extract_rendered(&extractor, &web, Seed(32), threads);
            for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
                assert_eq!(
                    parallel.occurrence_lists(attr),
                    sequential.occurrence_lists(attr),
                    "{attr:?} diverged at {threads} threads"
                );
            }
            assert_eq!(parallel.review_page_lists(), sequential.review_page_lists());
            assert_eq!(parallel.pages_processed, sequential.pages_processed);
            assert_eq!(parallel.unmatched_phones, sequential.unmatched_phones);
            assert_eq!(parallel.unmatched_isbns, sequential.unmatched_isbns);
            assert_eq!(parallel.unmatched_hrefs, sequential.unmatched_hrefs);
        }
    }

    #[test]
    fn sharded_extraction_is_independent_of_the_shard_plan() {
        let (catalog, web) = restaurant_fixture();
        let clf = train_review_classifier(Seed(35), 150).unwrap();
        let extractor = Extractor::new(&catalog).with_review_classifier(clf);
        let cfg = PageConfig::default();
        let reference = extract_rendered(&extractor, &web, Seed(32), 1);

        // Rendered shards at a fixed small target (no disk), across
        // thread counts.
        let specs = plan_shards(&web, &cfg, 64 * 1024);
        assert!(specs.len() > 2, "fixture should cut several shards");
        let rendered = ShardedWeb::Rendered {
            web: &web,
            catalog: &catalog,
            config: cfg.clone(),
            seed: Seed(32),
            specs,
        };
        for threads in [1usize, 2, 8] {
            let streamed = extractor.extract(&rendered, threads).expect("rendered shards");
            for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
                assert_eq!(
                    streamed.occurrence_lists(attr),
                    reference.occurrence_lists(attr),
                    "{attr:?} diverged at {threads} threads"
                );
            }
            assert_eq!(streamed.pages_processed, reference.pages_processed);
            assert_eq!(streamed.bytes_rendered, reference.bytes_rendered);
            assert_eq!(streamed.page_bytes, reference.page_bytes);
        }

        // Stored shards (round-trip through disk).
        let dir = TempDir::new("extract-store");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(32), 64 * 1024)
            .expect("write shards");
        for threads in [1usize, 4] {
            let from_disk = extractor
                .extract(&ShardedWeb::Stored(&store), threads)
                .expect("read shards");
            assert_eq!(
                from_disk.occurrence_lists(Attribute::Phone),
                reference.occurrence_lists(Attribute::Phone)
            );
            assert_eq!(from_disk.review_page_lists(), reference.review_page_lists());
            assert_eq!(from_disk.pages_processed, reference.pages_processed);
            assert_eq!(from_disk.bytes_rendered, reference.bytes_rendered);
        }
    }

    #[test]
    fn stored_shard_corruption_surfaces_as_an_error() {
        let (catalog, web) = restaurant_fixture();
        let extractor = Extractor::new(&catalog);
        let cfg = PageConfig::default();
        let dir = TempDir::new("extract-corrupt");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(32), 64 * 1024)
            .expect("write shards");
        // Flip one payload byte in the first shard.
        let path = &store.paths()[0];
        let mut bytes = std::fs::read(path).expect("read shard");
        let k = bytes.len() - 9;
        bytes[k] ^= 0x40;
        std::fs::write(path, &bytes).expect("rewrite shard");
        let err = extractor
            .extract(&ShardedWeb::Stored(&store), 2)
            .expect_err("corruption must surface");
        assert!(matches!(err, ShardError::ChecksumMismatch), "got {err}");
    }

    #[test]
    fn merge_unions_sets_and_adds_counts() {
        let mut a = ExtractedWeb::new(2, 10);
        let mut b = ExtractedWeb::new(2, 10);
        let e1 = EntityId::new(1);
        let e2 = EntityId::new(2);
        a.ingest(
            SiteId::new(0),
            &PageExtraction {
                phone_entities: vec![e1],
                is_review: true,
                ..PageExtraction::default()
            },
        );
        b.ingest(
            SiteId::new(0),
            &PageExtraction {
                phone_entities: vec![e1, e2],
                is_review: true,
                ..PageExtraction::default()
            },
        );
        b.ingest(
            SiteId::new(1),
            &PageExtraction {
                unmatched_phones: 3,
                ..PageExtraction::default()
            },
        );
        a.merge(b);
        assert_eq!(a.pages_processed, 3);
        assert_eq!(a.unmatched_phones, 3);
        assert_eq!(a.total_occurrences(Attribute::Phone), 2);
        assert_eq!(a.review_page_lists()[0], vec![(e1, 2), (e2, 1)]);
    }

    #[test]
    fn repeated_ingest_keeps_per_site_lists_compact() {
        // 10k pages repeating the same two entities must not grow the
        // site's buffers past distinct + slack — the property that keeps
        // a worker's accumulator memory proportional to distinct
        // occurrences, not page count.
        let mut acc = ExtractedWeb::new(1, 10);
        let ex = PageExtraction {
            phone_entities: vec![EntityId::new(3), EntityId::new(7)],
            is_review: true,
            ..PageExtraction::default()
        };
        for _ in 0..10_000 {
            acc.ingest(SiteId::new(0), &ex);
        }
        // 4 distinct (tag, entity) keys: 2 phone + 2 review.
        assert!(acc.occurrences.lists[0].len() <= 4 + COMPACT_SLACK);
        assert_eq!(acc.total_occurrences(Attribute::Phone), 2);
        assert_eq!(
            acc.review_page_lists()[0],
            vec![(EntityId::new(3), 10_000), (EntityId::new(7), 10_000)]
        );
    }

    #[test]
    fn total_occurrences_matches_list_lengths() {
        let (catalog, web) = restaurant_fixture();
        let extracted = extract_rendered(&Extractor::new(&catalog), &web, Seed(32), 1);
        for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
            let listed: usize = extracted
                .occurrence_lists(attr)
                .iter()
                .map(Vec::len)
                .sum();
            assert_eq!(extracted.total_occurrences(attr), listed, "{attr:?}");
        }
    }

    #[test]
    fn extraction_of_empty_accumulator_is_empty() {
        let acc = ExtractedWeb::new(3, 10);
        assert_eq!(acc.n_sites(), 3);
        assert_eq!(acc.n_entities(), 10);
        assert_eq!(acc.total_occurrences(Attribute::Phone), 0);
        assert!(acc
            .occurrence_lists(Attribute::Review)
            .iter()
            .all(Vec::is_empty));
    }

    #[test]
    fn sealed_and_unsealed_sites_read_like_a_compacted_copy() {
        // Site 0 is sealed; site 1 still buffers an uncompacted tail with
        // repeats; site 2 is empty. Every reader must return what
        // compacting a clone and then filtering it returns.
        let ids = |raw: &[u32]| raw.iter().map(|&e| EntityId::new(e)).collect::<Vec<_>>();
        let mut web = ExtractedWeb::new(3, 64);
        for round in 0..4u32 {
            for site in [0u32, 1] {
                web.ingest(
                    SiteId::new(site),
                    &PageExtraction {
                        phone_entities: ids(&[9 - round % 2, 3, 40 + site]),
                        isbn_entities: ids(&[round + 1]),
                        homepage_entities: ids(&[5, 7 * site]),
                        is_review: round != 2,
                        ..PageExtraction::default()
                    },
                );
            }
        }
        web.seal_sites(0, 0);
        let occ = &web.occurrences;
        assert_eq!(occ.sorted[0] as usize, occ.lists[0].len(), "site 0 is sealed");
        assert!((occ.sorted[1] as usize) < occ.lists[1].len(), "site 1 is not");
        let reference = |s: usize, tag: u64| -> Vec<u64> {
            let mut v = occ.lists[s].clone();
            compact_packed(&mut v);
            v.into_iter().filter(|&x| x >> 62 == tag).collect()
        };
        for attr in [
            Attribute::Phone,
            Attribute::Isbn,
            Attribute::Homepage,
            Attribute::Review,
        ] {
            let tag = attr_tag(attr);
            let lists = web.occurrence_lists(attr);
            for (s, list) in lists.iter().enumerate() {
                let want: Vec<EntityId> = reference(s, tag).into_iter().map(packed_entity).collect();
                assert_eq!(list, &want, "{attr:?} site {s}");
                assert_eq!(web.site_entities(s, attr), want, "{attr:?} site {s}");
            }
            let total: usize = (0..3).map(|s| reference(s, tag).len()).sum();
            assert_eq!(web.total_occurrences(attr), total, "{attr:?}");
        }
        let reviews: Vec<Vec<(EntityId, u32)>> = (0..3)
            .map(|s| {
                reference(s, TAG_REVIEW)
                    .into_iter()
                    .map(|x| (packed_entity(x), packed_pages(x)))
                    .collect()
            })
            .collect();
        assert_eq!(web.review_page_lists(), reviews);
        // Rounds 0, 1 and 3 are review pages: phones 9, 8 and 8.
        let pages = |raw: &[(u32, u32)]| raw.iter().map(|&(e, c)| (EntityId::new(e), c)).collect::<Vec<_>>();
        assert_eq!(reviews[0], pages(&[(3, 3), (8, 2), (9, 1), (40, 3)]));
        // Snapshots encode the same compacted lists either way.
        let mut sealed = web.clone();
        sealed.seal_sites(0, 2);
        assert_eq!(sealed.shard_snapshot_bytes(0..3), web.shard_snapshot_bytes(0..3));
    }
}
