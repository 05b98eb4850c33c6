//! Golden equivalence for the extraction hot path: the one whole-web
//! call ([`Extractor::extract`], which folds shards through reused
//! scratch buffers) must produce byte-identical results to a per-page
//! reference loop over the whole page stream, folded by hand, across
//! domains, thread counts and both shard sources (rendered on the fly and
//! read back from disk).

use webstruct::corpus::domain::Domain;
use webstruct::corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct::corpus::page::{PageConfig, PageScratch, PageStream};
use webstruct::corpus::web::{Web, WebConfig};
use webstruct::corpus::{ShardStore, ShardedWeb};
use webstruct::extract::pipeline::ExtractScratch;
use webstruct::extract::{train_review_classifier, ExtractedWeb, Extractor};
use webstruct::util::rng::Seed;
use webstruct::util::TempDir;

fn fixture(domain: Domain, entities: usize, scale: f64) -> (EntityCatalog, Web) {
    let catalog = EntityCatalog::generate(&CatalogConfig::new(domain, entities), Seed(91));
    let web = Web::generate(&catalog, &WebConfig::preset(domain).scaled(scale), Seed(91));
    (catalog, web)
}

fn assert_same(scratch_path: &ExtractedWeb, owned_path: &ExtractedWeb, label: &str) {
    for attr in [
        webstruct::corpus::domain::Attribute::Phone,
        webstruct::corpus::domain::Attribute::Isbn,
        webstruct::corpus::domain::Attribute::Homepage,
        webstruct::corpus::domain::Attribute::Review,
    ] {
        assert_eq!(
            scratch_path.occurrence_lists(attr),
            owned_path.occurrence_lists(attr),
            "{label}: {attr:?} occurrence lists diverged"
        );
    }
    assert_eq!(
        scratch_path.review_page_lists(),
        owned_path.review_page_lists(),
        "{label}: review page lists diverged"
    );
    assert_eq!(scratch_path.pages_processed, owned_path.pages_processed, "{label}");
    assert_eq!(scratch_path.bytes_rendered, owned_path.bytes_rendered, "{label}");
    assert_eq!(scratch_path.unmatched_phones, owned_path.unmatched_phones, "{label}");
    assert_eq!(scratch_path.unmatched_isbns, owned_path.unmatched_isbns, "{label}");
    assert_eq!(scratch_path.unmatched_hrefs, owned_path.unmatched_hrefs, "{label}");
    assert_eq!(scratch_path.page_bytes, owned_path.page_bytes, "{label}");
}

#[test]
fn scratch_path_matches_owned_path_across_domains_and_threads() {
    for (domain, entities, scale) in [
        (Domain::Restaurants, 300, 0.01),
        (Domain::Books, 300, 0.01),
        (Domain::Banks, 300, 0.01),
    ] {
        let (catalog, web) = fixture(domain, entities, scale);
        let mut extractor = Extractor::new(&catalog);
        if domain == Domain::Restaurants {
            let clf = train_review_classifier(Seed(92), 150).expect("balanced training set");
            extractor = extractor.with_review_classifier(clf);
        }
        let seed = Seed(93);
        let config = PageConfig::default();
        // Reference: one unsharded stream, one page at a time through
        // the per-page call, folded by hand.
        let mut owned = ExtractedWeb::new(web.n_sites(), catalog.len());
        let mut scratch = ExtractScratch::new();
        let mut stream = PageStream::new(&web, &catalog, config.clone(), seed);
        let mut page = PageScratch::default();
        while stream.render_into(&mut page) {
            let ex = extractor.extract_page_into(page.text(), &mut scratch);
            owned.bytes_rendered += page.text().len() as u64;
            owned.page_bytes.record(page.text().len() as u64);
            owned.ingest(page.site(), ex);
        }
        for threads in [1usize, 2, 8] {
            let rendered = ShardedWeb::rendered(&web, &catalog, config.clone(), seed, threads);
            let extracted = extractor
                .extract(&rendered, threads)
                .expect("rendered shards");
            assert_same(
                &extracted,
                &owned,
                &format!("{domain:?} rendered at {threads} threads"),
            );
        }
        let dir = TempDir::new("golden-store");
        let store = ShardStore::write(&dir, &web, &catalog, &config, seed, 64 * 1024)
            .expect("write shards");
        let stored = extractor
            .extract(&ShardedWeb::Stored(&store), 2)
            .expect("stored shards");
        assert_same(&stored, &owned, &format!("{domain:?} stored"));
    }
}

#[test]
fn per_page_scratch_reuse_matches_fresh_extraction() {
    let (catalog, web) = fixture(Domain::Restaurants, 300, 0.01);
    let clf = train_review_classifier(Seed(92), 150).expect("balanced training set");
    let extractor = Extractor::new(&catalog).with_review_classifier(clf);
    let mut stream = PageStream::new(&web, &catalog, PageConfig::default(), Seed(93));
    let mut page = PageScratch::default();
    let mut scratch = ExtractScratch::new();
    while stream.render_into(&mut page) {
        let fresh = extractor
            .extract_page_into(page.text(), &mut ExtractScratch::new())
            .clone();
        let reused = extractor.extract_page_into(page.text(), &mut scratch);
        assert_eq!(
            *reused,
            fresh,
            "page {:?} diverged under buffer reuse",
            page.id()
        );
    }
}
