//! Workspace-level durability contract: the store the CLI `stream`
//! command writes is crash-safe, resumable, and self-describing — killed
//! runs resume to a byte-identical store, corrupted shards are
//! quarantined and re-rendered, and every recovery publishes `store.*`
//! metrics through the observability layer.

use std::path::Path;
use webstruct::core::study::{DomainStudy, StudyConfig};
use webstruct::corpus::domain::Domain;
use webstruct::corpus::page::PageConfig;
use webstruct::corpus::{RecoverMode, ShardStore, StoreManifest};
use webstruct::util::iofault::{FaultSession, IoFaultPlan};
use webstruct::util::obs;
use webstruct::util::rng::Seed;
use webstruct::util::TempDir;

const TARGET: u64 = 512 * 1024;

fn fixture() -> DomainStudy {
    DomainStudy::generate(Domain::Restaurants, &StudyConfig::quick().with_scale(0.02))
}

fn manifest_bytes(dir: &Path) -> Vec<u8> {
    std::fs::read(StoreManifest::path_in(dir)).expect("read MANIFEST.wsm")
}

#[test]
fn killed_stream_write_resumes_to_identical_manifest() {
    let study = fixture();
    let cfg = PageConfig::default();
    let seed = Seed(42);

    let cold_dir = TempDir::new("durability-cold");
    let session = FaultSession::clean();
    ShardStore::recover(
        &cold_dir, &study.web, &study.catalog, &cfg, seed, TARGET, RecoverMode::Cold, &session,
    )
    .expect("cold write");
    let total_ops = session.ops_issued();
    let cold_manifest = manifest_bytes(&cold_dir);

    // Kill three different points of the write — early, middle, late —
    // and resume each; the recovered manifest (fingerprint + per-shard
    // digests) must match the cold run bit for bit.
    let dir = TempDir::new("durability-killed");
    for frac in [1u64, 5, 9] {
        let _ = std::fs::remove_dir_all(&dir);
        let kill_at = total_ops * frac / 10;
        let session = FaultSession::new(IoFaultPlan::crash_at(kill_at, Seed(frac)));
        assert!(
            ShardStore::recover(
                &dir, &study.web, &study.catalog, &cfg, seed, TARGET, RecoverMode::Cold, &session,
            )
            .is_err(),
            "kill at op {kill_at} did not surface"
        );
        let (store, report) =
            ShardStore::write_resumable(&dir, &study.web, &study.catalog, &cfg, seed, TARGET)
                .expect("resume after kill");
        assert_eq!(
            report.shards_reused + report.shards_rendered,
            report.shards_total
        );
        assert_eq!(
            manifest_bytes(&dir),
            cold_manifest,
            "manifest diverged after kill at op {kill_at}"
        );
        assert!(ShardStore::open(&dir).is_ok());
        assert!(store.scrub().is_clean());
    }
}

#[test]
fn corrupted_shard_is_quarantined_and_rebuilt() {
    let study = fixture();
    let cfg = PageConfig::default();
    let seed = Seed(42);
    let dir = TempDir::new("durability-quarantine");
    let store = ShardStore::write(&dir, &study.web, &study.catalog, &cfg, seed, TARGET)
        .expect("write store");
    let reference = manifest_bytes(&dir);

    // Flip one payload byte in the middle shard.
    let victim = store.paths()[store.len() / 2].clone();
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim, &bytes).expect("corrupt shard");

    // open() is header-level and cannot see a payload flip — but scrub
    // must, and repair must quarantine + reconstruct.
    let report = ShardStore::scrub_dir(&dir).expect("scrub");
    assert_eq!(report.corrupt(), 1, "scrub missed the flip:\n{}", report.to_text());

    let (_, recovery) =
        ShardStore::recover(
            &dir,
            &study.web,
            &study.catalog,
            &cfg,
            seed,
            TARGET,
            RecoverMode::Repair,
            &FaultSession::clean(),
        )
            .expect("repair");
    assert_eq!(recovery.shards_quarantined, 1);
    assert_eq!(recovery.shards_rendered, 1);
    assert_eq!(manifest_bytes(&dir), reference);
    assert!(ShardStore::scrub_dir(&dir).expect("re-scrub").is_clean());

    // The corrupted original survives as evidence.
    let quarantined: Vec<_> = std::fs::read_dir(dir.join(".quarantine"))
        .expect("quarantine dir")
        .collect();
    assert_eq!(quarantined.len(), 1);
}

#[test]
fn recovery_publishes_store_metrics() {
    let study = fixture();
    let cfg = PageConfig::default();
    let dir = TempDir::new("durability-metrics");
    obs::metrics().reset();
    let (store, _) =
        ShardStore::write_resumable(&dir, &study.web, &study.catalog, &cfg, Seed(7), TARGET)
            .expect("write");
    let _ = store.scrub();
    let snapshot = obs::metrics().snapshot().to_deterministic_json();
    for key in [
        "store.shards_rendered",
        "store.resume_skipped",
        "store.shards_quarantined",
        "store.shards_verified",
    ] {
        assert!(snapshot.contains(key), "missing {key} in:\n{snapshot}");
    }
}
