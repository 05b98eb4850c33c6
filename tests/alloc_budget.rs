//! Allocation-regression guard for the render→extract hot path and the
//! serving layer's cache hits.
//!
//! This binary installs [`CountingAlloc`] as its global allocator and
//! runs [`Extractor::extract`] over a small Restaurants corpus, asserting
//! its heap traffic stays under a documented per-page budget. A change
//! that reintroduces per-page allocations (a `format!` in the render
//! loop, an owned `String` token, a copied page) fails this test rather
//! than silently eroding throughput.
//!
//! It also holds steady-state page rendering, indexed per-page
//! extraction (one tag walk that strips tags and resolves anchors) and
//! the review classifier's block scorer to zero allocations per page once
//! their buffers are warm, the Figure 9 removal sweep to an allocation
//! count that does not grow with the number of removals, a snapshot with
//! a lying length field to no allocation at all, an oversized cache file
//! to less heap than its excess bytes, and a cached HTTP hit to (at most)
//! half an allocation per request.
//!
//! The file contains exactly one `#[test]` on purpose: parallel tests in
//! the same binary would pollute the process-global counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct::corpus::extcache::{self, ExtLoad};
use webstruct::corpus::page::{PageConfig, PageScratch, PageStream};
use webstruct::corpus::shard::ShardedWeb;
use webstruct::corpus::web::{Web, WebConfig};
use webstruct::extract::{html, train_review_classifier, ExtractScratch, ExtractedWeb, Extractor};
use webstruct::graph::{robustness_sweep, BipartiteGraph};
use webstruct::serve::{fetch, ServeConfig, ServeState, Server};
use webstruct::util::iofault::FaultSession;
use webstruct::util::rng::Seed;
use webstruct::util::wire::Reader;
use webstruct::util::TempDir;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by the counted calls (a `realloc` counts its new size).
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Counting is off until a measured window opens: warmup passes (scratch
/// growth, pool setup, classifier training) run before [`count_allocs`]
/// enables the counter, so windows report steady state only.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// System allocator wrapper that counts allocation calls (alloc,
/// alloc_zeroed, realloc) and the bytes they request while a
/// [`count_allocs`] or [`count_alloc_bytes`] window is open.
/// Deallocations are not tracked: the metric of interest is how much new
/// heap traffic each page or request costs, not peak usage.
struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter is a side effect.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn count_call(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` inside a counting window and return its result plus the
/// allocation calls it made (from any thread of the process).
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counted(&ALLOC_CALLS, f)
}

/// [`count_allocs`], but returning the bytes the calls requested.
fn count_alloc_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counted(&ALLOC_BYTES, f)
}

fn counted<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> (T, u64) {
    ENABLED.store(true, Ordering::Relaxed);
    let before = counter.load(Ordering::Relaxed);
    let out = f();
    let after = counter.load(Ordering::Relaxed);
    ENABLED.store(false, Ordering::Relaxed);
    (out, after - before)
}

/// The per-page allocation ceiling that separates the scratch-buffer hot
/// path from one that allocates per page.
///
/// Rendering and extracting each page through fresh buffers runs at ~13
/// allocations/page. The ceiling sits at 2.0 — an order of magnitude
/// below that, so any reintroduced per-page allocation (which costs at
/// least +1.0) trips the guard.
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

/// Cache-hit requests measured inside the serving window.
const CACHED_WINDOW: u64 = 256;

/// Allocations per cached HTTP hit, server and client together. Measured
/// at 0.0: a hit copies a pre-serialised wire buffer onto the socket.
const ALLOCS_PER_CACHED_REQUEST_BUDGET: f64 = 0.5;

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
    let fused_per_page = fused as f64 / pages as f64;
    assert!(
        fused_per_page <= ALLOCS_PER_PAGE_BUDGET,
        "fused hot path allocates {fused_per_page:.2}/page over {pages} pages \
         (budget {ALLOCS_PER_PAGE_BUDGET}); a per-page allocation crept back in"
    );

    // >= 2x fewer allocations per page than rendering and extracting
    // each page through fresh buffers (in practice the gap is ~40x).
    let (fresh_extracted, fresh) = count_allocs(|| {
        let mut stream = PageStream::new(&web, &catalog, config.clone(), Seed(73));
        let mut acc = ExtractedWeb::new(web.n_sites(), catalog.len());
        loop {
            let mut page = PageScratch::default();
            if !stream.render_into(&mut page) {
                break acc;
            }
            let mut scratch = ExtractScratch::new();
            let ex = extractor.extract_page_into(page.text(), &mut scratch);
            acc.bytes_rendered += page.text().len() as u64;
            acc.ingest(page.site(), ex);
        }
    });
    assert_eq!(fresh_extracted.pages_processed, pages);
    let fresh_per_page = fresh as f64 / pages as f64;
    assert!(
        fused_per_page * 2.0 <= fresh_per_page,
        "fused path ({fused_per_page:.2}/page) is not >=2x below fresh buffers \
         ({fresh_per_page:.2}/page)"
    );

    // The whole call — plan, per-worker accumulators and scratch, merge —
    // counted in the window, at 1 worker and at a parallel worker count.
    for threads in [1usize, 4] {
        let (run, counted) = count_allocs(|| extract_at(threads));
        assert_eq!(
            run.pages_processed, pages,
            "extraction diverged at {threads} threads"
        );
        let per_page = counted as f64 / pages as f64;
        assert!(
            per_page <= EXTRACT_ALLOCS_PER_PAGE_BUDGET,
            "extract allocates {per_page:.3}/page at {threads} threads \
             (budget {EXTRACT_ALLOCS_PER_PAGE_BUDGET}); per-page allocation is creeping in"
        );
    }

    // A lying length field costs a comparison, not an allocation: a WSX1
    // snapshot whose first site claims u32::MAX entries is rejected before
    // anything is sized by it, and so is the bare read behind that check.
    let header_len = extracted.shard_snapshot_bytes(0..0).len();
    let mut lying = extracted.shard_snapshot_bytes(0..web.n_sites());
    lying[header_len..header_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut target = ExtractedWeb::new(web.n_sites(), catalog.len());
    let (rejected, counted) = count_allocs(|| {
        let short = Reader::new(&lying).take(u32::MAX as usize).is_err();
        (short, target.merge_snapshot(&lying))
    });
    assert_eq!(
        rejected,
        (true, Err("snapshot truncated in occurrence list"))
    );
    assert_eq!(
        counted, 0,
        "rejecting a lying length allocated {counted} times"
    );

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
        counted <= RENDER_PASS_ALLOCS,
        "a warm render pass allocated {counted} times over {rendered} pages (budget \
         {RENDER_PASS_ALLOCS}); page rendering allocates again"
    );

    // Steady-state indexed extraction over a page batch: once the
    // scratch (text, class index, token buffer, entity sets) has grown in
    // a warm-up pass, extracting a page allocates nothing.
    let mut pages: Vec<String> = Vec::with_capacity(2_000);
    let mut stream = PageStream::new(&web, &catalog, config.clone(), Seed(73));
    while pages.len() < 2_000 && stream.render_into(&mut page_scratch) {
        pages.push(page_scratch.text().to_string());
    }
    drop(stream);
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
        counted,
        0,
        "extract_page_into allocated {counted} times over {} pages in steady state",
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
        k1, k10,
        "robustness_sweep allocates per removal: {k1} calls at k = 1, {k10} at k = 10"
    );

    // Steady-state review scoring over a page batch: once the token
    // buffer has grown in a warm-up pass, the block scorer (bitmasks,
    // packed-key lookups and the token-loop fallback) allocates nothing.
    let mut text = String::new();
    let texts: Vec<String> = pages
        .iter()
        .map(|page| {
            html::strip_tags_into(page, &mut text);
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
        counted, 0,
        "log_odds_with allocated {counted} times over {} pages in steady state",
        texts.len()
    );

    // A cache file padded far past its manifest length is rejected on its
    // size before the payload is read, so the load allocates less than
    // the padding (reading the whole file would allocate all of it).
    const PADDING: usize = 1 << 20;
    let dir = TempDir::new("alloc-budget-extcache");
    let entry = extcache::write_entry(&dir, 0, [7; 32], [9; 32], &[0xCD; 64], &FaultSession::clean())
        .expect("write cache entry");
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(extcache::ext_path(&dir, 0))
        .expect("open cache entry");
    file.write_all(&vec![0u8; PADDING]).expect("pad cache entry");
    drop(file);
    let (load, bytes) =
        count_alloc_bytes(|| extcache::load_entry(&dir, 0, &entry, [7; 32], [9; 32]));
    assert!(
        matches!(load, ExtLoad::Poisoned("cache payload truncated")),
        "padded cache file: {load:?}"
    );
    assert!(
        bytes < PADDING as u64,
        "rejecting a cache file padded by {PADDING} bytes allocated {bytes} bytes"
    );

    // Cached HTTP hits: a single-worker server answers a keep-alive
    // connection cycling hot endpoints. Every allocation in the window
    // is the server's, because the client reads known byte counts into
    // a pre-sized buffer.
    let dir = TempDir::new("alloc-budget-serve");
    let state = ServeState::build(
        Domain::Restaurants,
        StudyConfig::default().with_scale(0.02),
        &dir,
        2,
    )
    .expect("serve state builds on a clean temp dir");
    let server = Server::start(
        Arc::new(state),
        &ServeConfig {
            threads: 1,
            max_requests_per_conn: 1_000_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let per_request = allocs_per_cached_request(server.local_addr());
    fetch(server.local_addr(), "POST", "/shutdown").expect("shutdown request");
    let stats = server.join();
    assert!(stats.is_consistent(), "serve stats inconsistent: {stats:?}");
    assert!(
        stats.cache_hits >= CACHED_WINDOW,
        "the measured requests must be cache hits: {stats:?}"
    );
    assert!(
        per_request <= ALLOCS_PER_CACHED_REQUEST_BUDGET,
        "a cached hit allocates {per_request:.3} times per request over {CACHED_WINDOW} \
         requests (budget {ALLOCS_PER_CACHED_REQUEST_BUDGET}); the hit path touches the heap"
    );
}

/// Allocation calls per request over [`CACHED_WINDOW`] cache hits on one
/// keep-alive connection. Warmup passes learn each target's exact wire
/// length (and fill the entity-slab cells), so the measured loop does no
/// client-side heap work.
fn allocs_per_cached_request(addr: SocketAddr) -> f64 {
    let targets = ["/sites", "/coverage", "/coverage.csv", "/entity/1", "/entity/7"];
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\n\r\n").into_bytes())
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.set_nodelay(true).expect("set nodelay");
    let mut scratch: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut lens = Vec::with_capacity(requests.len());
    for req in &requests {
        stream.write_all(req).expect("warmup write");
        lens.push(read_one_response(&mut stream, &mut scratch));
    }
    for req in &requests {
        stream.write_all(req).expect("warmup write");
        read_one_response(&mut stream, &mut scratch);
    }
    let mut buf = vec![0u8; lens.iter().copied().max().unwrap_or(0)];
    let ((), calls) = count_allocs(|| {
        for i in 0..CACHED_WINDOW as usize {
            let k = i % requests.len();
            stream.write_all(&requests[k]).expect("measured write");
            stream
                .read_exact(&mut buf[..lens[k]])
                .expect("measured read");
        }
    });
    calls as f64 / CACHED_WINDOW as f64
}

/// Read exactly one HTTP response off `stream` into `scratch`, returning
/// its total wire length (head + body). Warmup only: allocates freely.
fn read_one_response(stream: &mut TcpStream, scratch: &mut Vec<u8>) -> usize {
    scratch.clear();
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = scratch.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&scratch[..pos]).into_owned();
            let content_length: usize = head
                .split("\r\n")
                .find_map(|line| {
                    let (name, value) = line.split_once(':')?;
                    name.eq_ignore_ascii_case("content-length")
                        .then(|| value.trim().parse().ok())?
                })
                .expect("response carries Content-Length");
            let total = pos + 4 + content_length;
            if scratch.len() < total {
                let have = scratch.len();
                scratch.resize(total, 0);
                stream
                    .read_exact(&mut scratch[have..])
                    .expect("read response body");
            }
            assert_eq!(scratch.len(), total, "over-read past one response");
            return total;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        scratch.extend_from_slice(&chunk[..n]);
    }
}
