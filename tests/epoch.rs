//! Incremental-recomputation properties: for any mutation fraction and
//! any worker-thread count, `incremental(mutate(E))` must be
//! byte-identical to `cold(mutate(E))` — same output digest, same
//! committed manifest — and a poisoned cache entry must be detected by
//! its digest and recomputed, never trusted. A cache entry whose digest
//! holds but whose payload lies must be an error, never a panic.
//!
//! Also pins the epoch output digest of a fixed scenario in
//! `tests/EPOCH.sha256` (re-bless with `scripts/bless.sh` after an
//! intentional output change).

use std::path::Path;
use webstruct::core::epoch::{identifying_attribute, Epoch, EpochError, EpochReport};
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::Domain;
use webstruct::corpus::extcache::{self, ExtLoad};
use webstruct::corpus::{ShardError, ShardStore, StoreManifest};
use webstruct::graph::BipartiteGraph;
use webstruct::util::iofault::FaultSession;
use webstruct::util::rng::Seed;
use webstruct::util::{LocalHistogram, TempDir};

/// The fixture every test runs: small corpus, small shards, so a
/// fractional mutation leaves most shards clean.
fn fixture() -> Epoch {
    Epoch::new(Domain::Banks, StudyConfig::quick().with_scale(0.02)).with_shard_bytes(16 << 10)
}

/// The cache counts every run must satisfy: each shard is exactly one
/// of a hit or a miss, and an untrusted entry is re-extracted.
fn assert_cache_counts(r: &EpochReport, run: &str) {
    assert_eq!(
        r.cache_hits + r.cache_misses,
        r.recovery.shards_total,
        "{run}: hits + misses must cover every shard once: {r:?}"
    );
    assert!(
        r.cache_invalidations <= r.cache_misses,
        "{run}: an invalidated entry must be re-extracted: {r:?}"
    );
}

#[test]
fn incremental_equals_cold_across_fractions_and_threads() {
    let warm_dir = TempDir::new("epoch-test-fractions-warm");
    let cold_dir = TempDir::new("epoch-test-fractions-cold");
    for fraction in [0.0, 0.01, 0.1, 1.0] {
        // The cold oracle at the mutated state, computed once per
        // fraction; the seed-pure mutation lets every thread count
        // reconstruct the identical state from scratch.
        let mut oracle = fixture();
        oracle.mutate(fraction, Seed(17));
        let cold = oracle
            .run_cold(&cold_dir, 2)
            .expect("cold oracle run");
        assert_cache_counts(&cold, &format!("cold at fraction {fraction}"));

        for threads in [1usize, 2, 8] {
            let mut epoch = fixture();
            let _ = std::fs::remove_dir_all(&warm_dir);
            let base = epoch.run(&warm_dir, threads).expect("populate run");
            assert_eq!(base.cache_hits, 0, "fresh store cannot hit");
            assert_cache_counts(&base, &format!("base at threads {threads}"));
            epoch.mutate(fraction, Seed(17));
            let (warm, web) = epoch.run_extracted(&warm_dir, threads).expect("warm run");
            assert_cache_counts(&warm, &format!("warm at fraction {fraction}, threads {threads}"));
            assert_eq!(
                warm.output_digest, cold.output_digest,
                "incremental(mutate(E)) != cold(mutate(E)) at \
                 fraction {fraction}, threads {threads}"
            );
            // The report's graph summary equals a batch graph built from
            // the merged extraction.
            let n_entities = epoch.catalog().len();
            let graph = BipartiteGraph::from_occurrences(
                n_entities,
                &web.occurrence_lists(identifying_attribute(epoch.domain())),
            )
            .expect("extracted occurrences form a graph");
            let present = (warm.coverages[0] * n_entities as f64).round() as usize;
            assert_eq!(
                (warm.occurrences, present),
                (graph.n_edges(), graph.entities_present()),
                "graph summary at fraction {fraction}, threads {threads}"
            );
            // Exactly the dirty slice re-renders and re-extracts: the
            // shards whose site range holds a mutated site.
            let revisions = epoch.web().revisions();
            let dirty = StoreManifest::load(&warm_dir)
                .expect("warm manifest loads")
                .shards
                .iter()
                .filter(|e| revisions[e.sites.start as usize..e.sites.end as usize]
                    .iter()
                    .any(|&r| r > 0))
                .count();
            assert_eq!(
                (warm.cache_misses, warm.recovery.shards_stale),
                (dirty, dirty),
                "warm run must redo exactly the {dirty} dirty shards at fraction {fraction}, \
                 threads {threads}"
            );
            if fraction == 0.0 {
                assert_eq!(warm.cache_misses, 0, "nothing mutated, nothing recomputes");
                assert_eq!(warm.recovery.shards_stale, 0);
            } else if fraction == 1.0 {
                assert_eq!(warm.cache_hits, 0, "everything mutated, nothing replays");
            } else {
                assert!(
                    warm.cache_hits > 0,
                    "fraction {fraction} left clean shards that must replay: {warm:?}"
                );
            }
            // The committed stores must agree byte for byte too.
            assert_eq!(
                std::fs::read(warm_dir.join("MANIFEST.wsm")).expect("warm manifest"),
                std::fs::read(cold_dir.join("MANIFEST.wsm")).expect("cold manifest"),
                "manifest divergence at fraction {fraction}, threads {threads}"
            );
        }
    }
}

#[test]
fn poisoned_cache_entry_is_detected_and_recomputed() {
    let dir = TempDir::new("epoch-test-poison");
    let oracle_dir = TempDir::new("epoch-test-poison-oracle");
    let epoch = fixture();
    let base = epoch.run(&dir, 2).expect("populate run");
    assert!(base.cache_misses > 1, "need at least two shards: {base:?}");

    // Flip one bit in the payload of the first cache entry, past the
    // 112-byte header so the keys still match and only the payload
    // digest can catch it.
    let victim = dir.join("ext-00000.wse");
    let mut bytes = std::fs::read(&victim).expect("read cache entry");
    assert!(bytes.len() > 112, "entry has a payload");
    bytes[112] ^= 0x40;
    std::fs::write(&victim, bytes).expect("rewrite cache entry");

    let warm = epoch.run(&dir, 2).expect("warm run over poisoned cache");
    assert!(
        warm.cache_invalidations >= 1,
        "the flipped payload must be rejected: {warm:?}"
    );
    assert!(
        warm.cache_misses >= 1,
        "the rejected entry must be recomputed: {warm:?}"
    );
    let cold = epoch.run_cold(&oracle_dir, 2).expect("cold oracle");
    assert_eq!(
        warm.output_digest, cold.output_digest,
        "recomputation after poisoning must converge to the cold bytes"
    );
    // The rewritten cache entry must now verify again: a second warm run
    // replays everything.
    let healed = epoch.run(&dir, 2).expect("healed run");
    assert_eq!(healed.cache_invalidations, 0, "{healed:?}");
    assert_eq!(healed.cache_misses, 0, "{healed:?}");
    assert_eq!(healed.output_digest, cold.output_digest);
}

#[test]
fn repair_over_a_cached_store_quarantines_and_the_cache_replays_the_rest() {
    let dir = TempDir::new("epoch-test-repair");
    let epoch = fixture();
    let cold = epoch.run(&dir, 2).expect("cold run");

    // Damage two different shards' files: one payload byte of shard `a`,
    // and one payload byte of shard `b`'s cache entry (past the 64- and
    // 112-byte headers, so only a digest can tell).
    let manifest = StoreManifest::load(&dir).expect("cold manifest");
    let mut nonempty = (0..manifest.shards.len()).filter(|&i| manifest.shards[i].payload_len > 0);
    let (a, b) = (
        nonempty.next().expect("shard a"),
        nonempty.next().expect("shard b"),
    );
    let flip = |name: String, header: usize| {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).expect("read store file");
        let at = header + (bytes.len() - header) / 2;
        bytes[at] ^= 0x20;
        std::fs::write(&path, bytes).expect("rewrite store file");
    };
    flip(manifest.shards[a].file.clone(), 64);
    flip(extcache::ext_name(b), 112);

    let scrub = ShardStore::scrub_dir(&dir).expect("scrub");
    assert_eq!(
        (scrub.corrupt(), scrub.ext_bad()),
        (1, 1),
        "{}",
        scrub.to_text()
    );

    let repair = epoch.repair(&dir).expect("repair");
    // The corrupt shard is quarantined and re-rendered; its cache entry
    // and the corrupt one are both dropped.
    assert_eq!(
        (
            repair.shards_quarantined,
            repair.shards_rendered,
            repair.ext_dropped
        ),
        (1, 1, 2),
        "{repair:?}"
    );
    let ext = StoreManifest::load(&dir)
        .expect("repaired manifest")
        .ext
        .expect("the other entries stay committed");
    assert!(ext.entries[a].is_none() && ext.entries[b].is_none());
    assert!(ShardStore::scrub_dir(&dir).expect("re-scrub").is_clean());

    // The next run re-extracts exactly the two dropped entries and lands
    // on the cold run's bytes.
    let after = epoch.run(&dir, 2).expect("run after repair");
    assert_eq!(
        (after.cache_misses, after.cache_invalidations),
        (2, 0),
        "{after:?}"
    );
    assert_eq!(after.output_digest, cold.output_digest);
}

#[test]
fn a_locked_store_is_refused_and_left_untouched() {
    // Another run holds the store's LOCK while this one would have work
    // to do: a corrupt shard to quarantine and an interrupted write's
    // temp file to sweep. Both `repair` and `run` refuse with
    // `ShardError::Locked` and leave every file as it was.
    let dir = TempDir::new("epoch-test-locked");
    let epoch = fixture();
    epoch.run(&dir, 2).expect("cold run");
    let shard = dir.join("shard-00000.wsp");
    let mut bytes = std::fs::read(&shard).expect("read shard");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x20;
    std::fs::write(&shard, bytes).expect("corrupt shard");
    std::fs::write(dir.join("shard-00001.wsp.tmp"), b"a swap's write").expect("temp file");
    let files = |dir: &Path| {
        let mut all: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read store dir")
            .map(|e| {
                let e = e.expect("dir entry");
                let bytes = std::fs::read(e.path()).unwrap_or_default();
                (e.file_name().to_string_lossy().into_owned(), bytes)
            })
            .collect();
        all.sort();
        all
    };
    let before = files(&dir);

    let lock = std::fs::File::open(dir.join("LOCK")).expect("the run left a LOCK");
    lock.lock().expect("take the store lock");
    let repaired = epoch.repair(&dir);
    assert!(matches!(repaired, Err(ShardError::Locked)), "{repaired:?}");
    let ran = epoch.run(&dir, 2);
    assert!(
        matches!(ran, Err(EpochError::Store(ShardError::Locked))),
        "{ran:?}"
    );
    assert_eq!(files(&dir), before, "a locked-out run touched the store");

    // Once the lock is free, repair does the work it was refused.
    drop(lock);
    let recovery = epoch.repair(&dir).expect("repair");
    assert_eq!((recovery.shards_quarantined, recovery.tmp_removed), (1, 1));
}

#[test]
fn lying_cache_entry_is_a_snapshot_error() {
    let dir = TempDir::new("epoch-test-lying");
    let epoch = fixture();
    epoch.run(&dir, 2).expect("populate run");

    // Rewrite shard 0's entry under valid keys and digests, with one
    // packed entity in its payload raised to 2^30 − 1: far outside the
    // catalog, but only a structural check of the payload can tell.
    let mut store = ShardStore::open(&dir).expect("store reopens");
    let shard_sha = store.manifest().shards[0].sha256;
    let fp = epoch.extractor_fingerprint();
    let mut entries = store
        .manifest()
        .ext
        .as_ref()
        .expect("cache committed")
        .entries
        .clone();
    let entry = entries[0].as_ref().expect("shard 0 cached");
    let ExtLoad::Hit(mut payload) = extcache::load_entry(&dir, 0, entry, shard_sha, fp) else {
        panic!("shard 0's entry must load");
    };
    // Walk the WSX1 site table to the first list with a phone entry (tag
    // 0 in the top two bits, the identifying attribute for banks) and
    // raise its last one, so the list stays ascending by (tag, entity).
    let mut at = 16 + 7 * 8 + LocalHistogram::WIRE_LEN;
    let victim = loop {
        let n = u32::from_le_bytes(payload[at..at + 4].try_into().unwrap()) as usize;
        let list = at + 4..at + 4 + n * 8;
        at = list.end;
        let phones = payload[list.clone()]
            .chunks_exact(8)
            .filter(|w| w[7] >> 6 == 0)
            .count();
        if phones > 0 {
            break list.start + (phones - 1) * 8;
        }
    };
    let word = u64::from_le_bytes(payload[victim..victim + 8].try_into().unwrap());
    let lying = word | (((1 << 30) - 1) << 32);
    payload[victim..victim + 8].copy_from_slice(&lying.to_le_bytes());
    let session = FaultSession::clean();
    entries[0] = Some(extcache::write_entry(&dir, 0, shard_sha, fp, &payload, &session).unwrap());
    store.commit_extractions(fp, entries, &session).unwrap();

    match epoch.run(&dir, 2) {
        Err(EpochError::Snapshot(m)) => {
            assert_eq!(m, "snapshot entity outside accumulator universe");
        }
        other => panic!("a lying cache entry must be a snapshot error: {other:?}"),
    }
}

#[test]
fn extractor_fingerprint_keys_the_cache() {
    // Same corpus, different extraction config (a different training
    // seed) → different fingerprint → every carried entry is an
    // invalidation, and the two runs' digests differ only through the
    // manifest's fingerprint section (occurrences are classifier-free
    // for Banks, but the manifest commits the fingerprint).
    let a = fixture();
    let mut other = StudyConfig::quick().with_scale(0.02);
    other.seed = Seed(999);
    let b = Epoch::new(Domain::Banks, other).with_shard_bytes(16 << 10);
    assert_ne!(
        a.extractor_fingerprint(),
        b.extractor_fingerprint(),
        "config seed must re-key the cache"
    );
}

/// Golden pin: the output digest of a fixed scenario (populate, mutate
/// 5% with seed 3, warm re-run) — catches silent drift in any layer the
/// digest covers: page bytes, extraction, coverage, graph, manifest.
#[test]
fn epoch_digest_matches_golden() {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/EPOCH.sha256");
    let dir = TempDir::new("epoch-test-golden");
    let mut epoch = fixture();
    epoch.run(&dir, 2).expect("populate run");
    epoch.mutate(0.05, Seed(3));
    let warm = epoch.run(&dir, 2).expect("warm run");
    let actual = warm.digest_hex();

    if std::env::var("WEBSTRUCT_BLESS").is_ok_and(|v| v == "1") {
        let body = format!(
            "# Output digest of the golden epoch scenario (banks, quick scale 0.02,\n\
             # 16 KiB shards, mutate 5% with seed 3, warm re-run at 2 threads).\n\
             # Re-bless with scripts/bless.sh after an INTENTIONAL output change.\n\
             {actual}  epoch-banks-quick\n"
        );
        std::fs::write(&golden_path, body).expect("write EPOCH.sha256");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let text = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run scripts/bless.sh", golden_path.display()));
    let expected = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().next())
        .unwrap_or_else(|| panic!("no digest line in {}", golden_path.display()));
    assert_eq!(
        actual, expected,
        "epoch output digest drifted from tests/EPOCH.sha256 — if the change\n\
         is intentional, re-bless with scripts/bless.sh"
    );
}

/// The span label up to its first field (`"epoch.run threads=1"` →
/// `"epoch.run"`).
fn span_base(name: &str) -> &str {
    name.split(' ').next().unwrap_or(name)
}

/// Run `f` under a fresh root span on the global trace and return its
/// result with the base names of every span below the root's one child
/// named `child`, counted.
fn spans_under<T>(
    root: &str,
    child: &str,
    f: impl FnOnce() -> T,
) -> (T, std::collections::BTreeMap<String, usize>) {
    use webstruct::util::obs;
    let out = {
        let _root = webstruct::util::span!(root);
        f()
    };
    let spans = obs::trace().spans();
    let root_id = spans.iter().find(|s| s.name == root).expect("root span recorded").id;
    let top: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == Some(root_id) && span_base(&s.name) == child)
        .map(|s| s.id)
        .collect();
    assert_eq!(top.len(), 1, "{root}: exactly one {child} span under the root");
    let parent_of: std::collections::HashMap<u64, Option<u64>> =
        spans.iter().map(|s| (s.id, s.parent)).collect();
    let below = |mut id: u64| {
        while let Some(Some(p)) = parent_of.get(&id) {
            if *p == top[0] {
                return true;
            }
            id = *p;
        }
        false
    };
    let mut names = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| below(s.id)) {
        *names.entry(span_base(&s.name).to_owned()).or_insert(0) += 1;
    }
    (out, names)
}

/// Every per-layer stage of the epoch path has its own span under
/// `epoch.run` (and the serving build's under `serve.state_build`), at
/// shard or call grain, and tracing changes no output.
#[test]
fn traced_epoch_runs_span_every_layer_under_epoch_run() {
    use webstruct::serve::{ResponseCache, ServeState};
    let oracle_dir = TempDir::new("epoch-test-spans-oracle");
    let mut oracle = fixture();
    let oracle_cold = oracle.run(&oracle_dir, 1).expect("untraced cold run");
    oracle.mutate(0.05, Seed(3));
    let oracle_warm = oracle.run(&oracle_dir, 1).expect("untraced warm run");

    let dir = TempDir::new("epoch-test-spans");
    let mut epoch = fixture();
    webstruct::util::obs::trace().set_enabled(true);
    let (cold, cold_spans) = spans_under("test.spans.cold", "epoch.run", || epoch.run(&dir, 1));
    epoch.mutate(0.05, Seed(3));
    let (warm, warm_spans) = spans_under("test.spans.warm", "epoch.run", || epoch.run(&dir, 1));
    let (state, serve_spans) = spans_under("test.spans.serve", "serve.state_build", || {
        ServeState::from_epoch(&epoch, &dir, 1).expect("serve state")
    });
    // `spans_under` asserts the one `serve.cache_build` span itself.
    let _ = spans_under("test.spans.cache", "serve.cache_build", || {
        ResponseCache::build(&state)
    });
    webstruct::util::obs::trace().set_enabled(false);

    let (cold, warm) = (cold.expect("traced cold run"), warm.expect("traced warm run"));
    assert_eq!(cold, oracle_cold, "tracing changed the cold report");
    assert_eq!(warm, oracle_warm, "tracing changed the warm report");
    assert!(warm.cache_hits > 0 && warm.cache_misses > 0, "{warm:?}");

    let count = |names: &std::collections::BTreeMap<String, usize>, n: &str| {
        names.get(n).copied().unwrap_or(0)
    };
    // Cold: every shard renders, extracts and writes its cache entry; no
    // entry exists to load. A cold store commits its manifest after each
    // rendered shard but the last, then once more, then commits the
    // cache section.
    let shards = cold.recovery.shards_total;
    for (name, want) in [
        ("store.write", shards),
        ("store.commit", shards + 1),
        ("extract.snapshot", shards),
        ("extcache.write", shards),
        ("extcache.load", 0),
        ("merge.snapshot", 0),
        ("epoch.digest", 1),
    ] {
        assert_eq!(count(&cold_spans, name), want, "cold {name}: {cold_spans:?}");
    }
    // Warm: the dirty slice re-renders and re-extracts, every clean
    // shard loads and merges its cached snapshot.
    let stale = warm.recovery.shards_stale;
    for (name, want) in [
        ("store.write", stale),
        ("extract.snapshot", warm.cache_misses),
        ("extcache.write", warm.cache_misses),
        ("extcache.load", warm.cache_hits),
        ("merge.snapshot", warm.cache_hits),
        ("epoch.digest", 1),
    ] {
        assert_eq!(count(&warm_spans, name), want, "warm {name}: {warm_spans:?}");
    }
    assert!(count(&warm_spans, "store.commit") >= 2, "{warm_spans:?}");
    // The serving build runs the epoch (all hits now) and the demand
    // simulation beside it.
    assert_eq!(count(&serve_spans, "epoch.run"), 1, "{serve_spans:?}");
    assert_eq!(count(&serve_spans, "demand.simulate"), 1, "{serve_spans:?}");
}
