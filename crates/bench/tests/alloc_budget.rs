//! Allocation-regression guard for the render→extract hot path.
//!
//! This binary installs [`CountingAlloc`] as its global allocator and
//! runs [`Extractor::extract`] over a small Restaurants corpus, asserting
//! its heap traffic stays under a documented per-page budget. A change
//! that reintroduces per-page allocations (a `format!` in the render
//! loop, an owned `String` token, a cloned `Page`) fails this test rather
//! than silently eroding throughput.
//!
//! It also holds steady-state page rendering, indexed per-page
//! extraction (one tag walk that strips tags and resolves anchors) and
//! the review classifier's block scorer to zero allocations per page once
//! their buffers are warm, and the Figure 9 removal sweep to an
//! allocation count that does not grow with the number of removals.
//!
//! The file contains exactly one `#[test]` on purpose: parallel tests in
//! the same binary would pollute the process-global counters.

use webstruct_bench::alloc::{count_allocs, CountingAlloc};
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::page::{Page, PageConfig, PageScratch, PageStream};
use webstruct_corpus::shard::ShardedWeb;
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_extract::{html, train_review_classifier, ExtractScratch, ExtractedWeb, Extractor};
use webstruct_graph::{robustness_sweep, BipartiteGraph};
use webstruct_util::rng::Seed;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The per-page allocation ceiling that separates the scratch-buffer hot
/// path from one that allocates per page.
///
/// The owned-`Page` path runs at ~16 allocations/page. The ceiling sits
/// at 2.0 — an order of magnitude below that, so any reintroduced
/// per-page allocation (which costs at least +1.0) trips the guard.
const ALLOCS_PER_PAGE_BUDGET: f64 = 2.0;

/// The budget [`Extractor::extract`] must meet at every thread count.
/// Measured at scale 0.02 it runs at ~0.3 allocations/page: the residual
/// traffic is per-site occurrence-list growth and sealing in the fresh
/// accumulators, plus per-shard scratch — setup that scales with sites
/// and shards, not pages.
const EXTRACT_ALLOCS_PER_PAGE_BUDGET: f64 = 0.5;

/// Allocations of one [`PageStream::render_into`] pass through a warm
/// [`PageScratch`]: the stream's own set-up (site plan queue, metrics
/// publish on drop), measured at 11 for the fixture below. Rendering a
/// page allocates nothing, so this does not grow with the page count.
const RENDER_PASS_ALLOCS: u64 = 11;

#[test]
fn fused_hot_path_stays_within_alloc_budget() {
    let catalog = EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 400), Seed(71));
    let web = Web::generate(
        &catalog,
        &WebConfig::preset(Domain::Restaurants).scaled(0.02),
        Seed(71),
    );
    let clf = train_review_classifier(Seed(72), 200).expect("balanced training set");
    let extractor = Extractor::new(&catalog).with_review_classifier(clf.clone());
    let config = PageConfig::default();
    let extract_at = |threads: usize| {
        let sharded = ShardedWeb::rendered(&web, &catalog, config.clone(), Seed(73), threads);
        extractor
            .extract(&sharded, threads)
            .expect("rendered shards")
    };

    let (extracted, fused) = count_allocs(|| extract_at(1));
    let pages = extracted.pages_processed;
    assert!(pages > 500, "fixture too small to be meaningful");
    let fused_per_page = fused.calls as f64 / pages as f64;
    assert!(
        fused_per_page <= ALLOCS_PER_PAGE_BUDGET,
        "fused hot path allocates {fused_per_page:.2}/page over {pages} pages \
         (budget {ALLOCS_PER_PAGE_BUDGET}); a per-page allocation crept back in"
    );

    // >= 2x fewer allocations per page than the owned-Page baseline (in
    // practice the gap is ~50x).
    let (owned_extracted, owned) = count_allocs(|| {
        let pages = PageStream::new(&web, &catalog, config.clone(), Seed(73));
        let mut acc = ExtractedWeb::new(web.n_sites(), catalog.len());
        for page in pages {
            let ex = extractor.extract_page(&page);
            acc.bytes_rendered += page.text.len() as u64;
            acc.ingest(page.site, &ex);
        }
        acc
    });
    assert_eq!(owned_extracted.pages_processed, pages);
    let owned_per_page = owned.calls as f64 / pages as f64;
    assert!(
        fused_per_page * 2.0 <= owned_per_page,
        "fused path ({fused_per_page:.2}/page) is not >=2x below owned ({owned_per_page:.2}/page)"
    );

    // The whole call — plan, per-worker accumulators and scratch, merge —
    // counted in the window, at 1 worker and at a parallel worker count.
    for threads in [1usize, 4] {
        let (run, counted) = count_allocs(|| extract_at(threads));
        assert_eq!(
            run.pages_processed, pages,
            "extraction diverged at {threads} threads"
        );
        let per_page = counted.calls as f64 / pages as f64;
        assert!(
            per_page <= EXTRACT_ALLOCS_PER_PAGE_BUDGET,
            "extract allocates {per_page:.3}/page at {threads} threads \
             (budget {EXTRACT_ALLOCS_PER_PAGE_BUDGET}); per-page allocation is creeping in"
        );
    }

    // Steady-state rendering: a second pass over the corpus through the
    // page scratch the first pass grew allocates only the stream's own
    // per-pass set-up, never per page.
    let render_all = |scratch: &mut PageScratch| {
        let mut stream = PageStream::new(&web, &catalog, config.clone(), Seed(73));
        let mut n = 0u64;
        while stream.render_into(scratch) {
            n += 1;
        }
        n
    };
    let mut page_scratch = PageScratch::default();
    let rendered = render_all(&mut page_scratch);
    let (again, counted) = count_allocs(|| render_all(&mut page_scratch));
    assert_eq!(again, rendered);
    assert!(
        counted.calls <= RENDER_PASS_ALLOCS,
        "a warm render pass allocated {} times over {rendered} pages (budget \
         {RENDER_PASS_ALLOCS}); page rendering allocates again",
        counted.calls
    );

    // Steady-state indexed extraction over a page batch: once the
    // scratch (text, class index, token buffer, entity sets) has grown in
    // a warm-up pass, extracting a page allocates nothing.
    let pages: Vec<Page> = PageStream::new(&web, &catalog, config.clone(), Seed(73))
        .take(2_000)
        .collect();
    let mut scratch = ExtractScratch::new();
    let mut extract_all = || {
        pages
            .iter()
            .map(|p| {
                let ex = extractor.extract_page_into(p, &mut scratch);
                ex.phone_entities.len() + usize::from(ex.is_review)
            })
            .sum::<usize>()
    };
    let warm = extract_all();
    let (steady, counted) = count_allocs(&mut extract_all);
    assert_eq!(steady, warm);
    assert_eq!(
        counted.calls,
        0,
        "extract_page_into allocated {} times over {} pages in steady state",
        counted.calls,
        pages.len()
    );

    // The Figure 9 sweep is one union-find pass whatever the number of
    // removals: its allocations (flags, union-find, per-root counts,
    // the pre-sized result) do not grow with k.
    let graph =
        BipartiteGraph::from_occurrences(catalog.len(), &web.occurrence_lists(Attribute::Phone))
            .expect("generated ids are in range");
    assert!(
        graph.sites_by_size().len() > 10,
        "fixture graph too small for k = 10"
    );
    let (_, k1) = count_allocs(|| robustness_sweep(&graph, 1));
    let (_, k10) = count_allocs(|| robustness_sweep(&graph, 10));
    assert_eq!(
        k1.calls, k10.calls,
        "robustness_sweep allocates per removal: {} calls at k = 1, {} at k = 10",
        k1.calls, k10.calls
    );

    // Steady-state review scoring over a page batch: once the token
    // buffer has grown in a warm-up pass, the block scorer (bitmasks,
    // packed-key lookups and the token-loop fallback) allocates nothing.
    let mut text = String::new();
    let texts: Vec<String> = pages
        .iter()
        .map(|page| {
            html::strip_tags_into(&page.text, &mut text);
            text.clone()
        })
        // Runs the packed table cannot hold take the token loop.
        .chain(std::iter::once("Crème brûlée — incomprehensibilities".to_string()))
        .collect();
    let mut token_buf = String::new();
    let score_all = |buf: &mut String| texts.iter().map(|t| clf.log_odds_with(t, buf)).sum::<f64>();
    let warm = score_all(&mut token_buf);
    let (steady, counted) = count_allocs(|| score_all(&mut token_buf));
    assert_eq!(steady.to_bits(), warm.to_bits());
    assert_eq!(
        counted.calls, 0,
        "log_odds_with allocated {} times over {} pages in steady state",
        counted.calls,
        texts.len()
    );
}
