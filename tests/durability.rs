//! Workspace-level durability contract: the store the CLI `epoch`
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

/// Run the `webstruct` binary on `args` at two worker threads.
fn webstruct(args: &[&str]) -> std::process::Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_webstruct"))
        .args(args)
        .env(webstruct::util::par::THREADS_ENV, "2")
        .output()
        .expect("spawn webstruct")
}

/// Every file under `dir`, `.quarantine/` included, with its bytes, in
/// path order.
fn tree(dir: &Path) -> Vec<(std::path::PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("read store dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            files.extend(tree(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read store file");
            files.push((path, bytes));
        }
    }
    files.sort();
    files
}

/// The two `output digest` lines an `epoch` run prints (epoch 0, then
/// epoch 1).
fn digests(out: &std::process::Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.contains("output digest"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn cli_epoch_scrub_repair_round_trip() {
    let dir = TempDir::new("durability-cli");
    let d = dir.to_str().expect("utf-8 temp dir");
    let code = |out: &std::process::Output| out.status.code().expect("exit code");
    // A non-Restaurants store in KiB shards, left at epoch 1 by a 1%
    // mutation; `repair` takes the same arguments.
    let plan = ["banks", "0.01", d, "0.01"];
    let with = |cmd: &str, args: &[&str]| {
        let mut all = vec![cmd];
        all.extend_from_slice(args);
        webstruct(&all)
    };

    // A FRACTION outside [0, 1], or NaN, is a usage error for both
    // commands: exit 2 without a panic, before any file is written.
    for cmd in ["epoch", "repair"] {
        for fraction in ["1.5", "-0.5", "NaN"] {
            let out = with(cmd, &["banks", "0.01", d, fraction]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(code(&out), 2, "{cmd} at FRACTION {fraction}: {stderr}");
            assert!(
                !stderr.contains("panicked"),
                "{cmd} at FRACTION {fraction}: {stderr}"
            );
            assert!(stderr.contains("FRACTION"), "{stderr}");
            assert!(
                tree(&dir).is_empty(),
                "{cmd} at FRACTION {fraction} wrote a file"
            );
        }
    }

    let epoch = with("epoch", &plan);
    assert_eq!(
        code(&epoch),
        0,
        "epoch: {}",
        String::from_utf8_lossy(&epoch.stderr)
    );
    let fresh = digests(&epoch);
    assert_eq!(fresh.len(), 2, "{}", String::from_utf8_lossy(&epoch.stdout));
    assert_eq!(
        code(&webstruct(&["scrub", d])),
        0,
        "a fresh store scrubs clean"
    );

    // One payload byte flipped: scrub sees it, repair quarantines and
    // re-renders the shard, and the store scrubs clean again.
    let victim = dir.join("shard-00001.wsp");
    let mut bytes = std::fs::read(&victim).expect("read shard");
    let mid = 64 + (bytes.len() - 64) / 2;
    bytes[mid] ^= 0x08;
    std::fs::write(&victim, bytes).expect("corrupt shard");
    let scrub = webstruct(&["scrub", d]);
    assert_eq!(
        code(&scrub),
        1,
        "{}",
        String::from_utf8_lossy(&scrub.stdout)
    );
    let repair = with("repair", &plan);
    assert_eq!(
        code(&repair),
        0,
        "repair: {}",
        String::from_utf8_lossy(&repair.stderr)
    );
    assert!(String::from_utf8_lossy(&repair.stdout).contains("1 quarantined"));
    assert!(
        dir.join("DEGRADED.md").exists(),
        "repair marks the store degraded"
    );
    assert_eq!(
        code(&webstruct(&["scrub", d])),
        0,
        "the repaired store scrubs clean"
    );

    // The repaired store is the one `epoch` wrote: re-running it prints
    // the digests of a run on a fresh directory.
    let again = with("epoch", &plan);
    assert_eq!(code(&again), 0);
    assert_eq!(digests(&again), fresh);

    // Repair with another FRACTION or at another SCALE names a different
    // store: it refuses with exit 2 and leaves every file as it was.
    let before = tree(&dir);
    for foreign in [["banks", "0.01", d, "0.02"], ["banks", "0.02", d, "0.01"]] {
        let out = with("repair", &foreign);
        assert_eq!(
            code(&out),
            2,
            "{foreign:?}: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("other parameters"));
        assert_eq!(tree(&dir), before, "a refused repair touched the store");
    }

    // While another run holds the store's LOCK, repair refuses the same
    // way.
    let lock = std::fs::File::open(dir.join("LOCK")).expect("the store has a LOCK");
    lock.lock().expect("take the store lock");
    let out = with("repair", &plan);
    assert_eq!(code(&out), 2, "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("in use"));
    assert_eq!(tree(&dir), before, "a locked-out repair touched the store");
}
