//! The out-of-core contract, end to end at the workspace level: a corpus
//! rendered into page shards on disk and extracted shard-by-shard must
//! produce byte-identical results to extraction rendered on the fly, at
//! every thread count, and the shard files themselves must be byte-stable
//! across writes (the format has no timestamps or other nondeterminism).

use webstruct::core::study::{DomainStudy, StudyConfig};
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::corpus::page::PageConfig;
use webstruct::corpus::{ShardStore, ShardedWeb};
use webstruct::extract::Extractor;
use webstruct::util::rng::Seed;
use webstruct::util::TempDir;

#[test]
fn streamed_extraction_matches_in_memory_at_every_thread_count() {
    let cfg = StudyConfig::quick().with_scale(0.02);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let extractor = Extractor::new(&study.catalog);
    let page_config = PageConfig::default();
    let seed = Seed(77);

    let rendered = ShardedWeb::rendered(&study.web, &study.catalog, page_config.clone(), seed, 1);
    let baseline = extractor.extract(&rendered, 1).expect("rendered shards");

    // Small shard target so the streamed path crosses many shard
    // boundaries even at this scale.
    let dir = TempDir::new("stream-test-roundtrip");
    let store = ShardStore::write(&dir, &study.web, &study.catalog, &page_config, seed, 512 * 1024)
        .expect("write shards");
    assert!(store.len() > 2, "want several shards, got {}", store.len());

    for threads in [1usize, 2, 8] {
        let streamed = extractor
            .extract(&ShardedWeb::Stored(&store), threads)
            .expect("stream shards");
        for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
            assert_eq!(
                streamed.occurrence_lists(attr),
                baseline.occurrence_lists(attr),
                "{attr:?} diverged at {threads} threads"
            );
        }
        assert_eq!(streamed.pages_processed, baseline.pages_processed);
        assert_eq!(streamed.bytes_rendered, baseline.bytes_rendered);
    }
}

#[test]
fn shard_files_are_byte_stable_across_writes() {
    let cfg = StudyConfig::quick().with_scale(0.01);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let page_config = PageConfig::default();
    let seed = Seed(9);
    let (a, b) = (TempDir::new("stream-test-stable-a"), TempDir::new("stream-test-stable-b"));
    let store_a = ShardStore::write(&a, &study.web, &study.catalog, &page_config, seed, 512 * 1024)
        .expect("write shards (a)");
    let store_b = ShardStore::write(&b, &study.web, &study.catalog, &page_config, seed, 512 * 1024)
        .expect("write shards (b)");
    assert_eq!(store_a.len(), store_b.len());
    for (pa, pb) in store_a.paths().iter().zip(store_b.paths()) {
        let (bytes_a, bytes_b) = (
            std::fs::read(pa).expect("read shard (a)"),
            std::fs::read(pb).expect("read shard (b)"),
        );
        assert_eq!(bytes_a, bytes_b, "{} differs from {}", pa.display(), pb.display());
    }
}

#[test]
fn reopened_store_reads_what_was_written() {
    let cfg = StudyConfig::quick().with_scale(0.01);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let page_config = PageConfig::default();
    let seed = Seed(9);
    let dir = TempDir::new("stream-test-reopen");
    let written =
        ShardStore::write(&dir, &study.web, &study.catalog, &page_config, seed, 512 * 1024)
            .expect("write shards");
    let reopened = ShardStore::open(&dir).expect("open store");
    assert_eq!(reopened.len(), written.len());
    assert_eq!(reopened.paths(), written.paths());
    let extractor = Extractor::new(&study.catalog);
    let from_written = extractor
        .extract(&ShardedWeb::Stored(&written), 2)
        .expect("extract written");
    let from_reopened = extractor
        .extract(&ShardedWeb::Stored(&reopened), 2)
        .expect("extract reopened");
    assert_eq!(
        from_written.occurrence_lists(Attribute::Phone),
        from_reopened.occurrence_lists(Attribute::Phone)
    );
}
