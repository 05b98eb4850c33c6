//! Durability bench: the crash-point torture sweep and resume-after-kill
//! cost measurement behind `BENCH_durability.json`.
//!
//! Three measurements:
//!
//! 1. **Cold write** of a scale-`s` store (the baseline all recovery
//!    costs are compared against), counting the I/O ops it issues.
//! 2. **Resume after kill**: the same write killed at 70% of its ops and
//!    resumed; `resume_cost_fraction` = resume seconds / cold seconds.
//!    The acceptance gate is < 0.5 — resume must re-render only the
//!    missing tail, never the whole store — and the resumed manifest
//!    must be byte-identical to the cold one.
//! 3. **Torture sweeps** over a micro store: a stride of crash points
//!    across every write/rename/fsync site (open-or-resume must converge
//!    to the cold bytes at each), plus flaky-I/O trials with silent bit
//!    flips (scrub-then-repair must converge). `sweep_failures` and
//!    `corruption_failures` are gated at zero.

use std::path::Path;
use std::time::Instant;
use webstruct_core::study::{DomainStudy, StudyConfig};
use webstruct_corpus::domain::Domain;
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_corpus::{RecoverMode, ShardStore, StoreManifest};
use webstruct_util::iofault::{FaultSession, IoFaultPlan};
use webstruct_util::rng::Seed;
use webstruct_util::TempDir;

/// Everything `BENCH_durability.json` records.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Corpus scale of the resume measurement.
    pub scale: f64,
    /// Shard payload target in bytes.
    pub shard_bytes: u64,
    /// I/O operations one cold write issues (the crash-sweep domain).
    pub ops_per_cold_write: u64,
    /// Seconds for the cold write.
    pub cold_write_secs: f64,
    /// Seconds to resume after the 70%-kill.
    pub resume_secs: f64,
    /// `resume_secs / cold_write_secs` — gated below 0.5.
    pub resume_cost_fraction: f64,
    /// Shards the resume kept without re-rendering.
    pub resume_reused_shards: usize,
    /// Shards the resume re-rendered.
    pub resume_rendered_shards: usize,
    /// Whether the resumed manifest matched the cold manifest exactly.
    pub resume_manifest_identical: bool,
    /// Crash points injected in the sweep.
    pub sweep_points: usize,
    /// Crash points that failed to converge to the cold store — gated at 0.
    pub sweep_failures: usize,
    /// Flaky-I/O trials (bit flips, torn/lost writes, ENOSPC).
    pub corruption_trials: usize,
    /// Flaky trials that failed to converge — gated at 0.
    pub corruption_failures: usize,
}

impl DurabilityReport {
    /// Render the report as a stable, hand-rolled JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scale\": {},\n  \"shard_bytes\": {},\n  \"ops_per_cold_write\": {},\n  \
             \"cold_write_secs\": {:.6},\n  \"resume_secs\": {:.6},\n  \
             \"resume_cost_fraction\": {:.6},\n  \"resume_reused_shards\": {},\n  \
             \"resume_rendered_shards\": {},\n  \"resume_manifest_identical\": {},\n  \
             \"sweep_points\": {},\n  \"sweep_failures\": {},\n  \
             \"corruption_trials\": {},\n  \"corruption_failures\": {}\n}}\n",
            self.scale,
            self.shard_bytes,
            self.ops_per_cold_write,
            self.cold_write_secs,
            self.resume_secs,
            self.resume_cost_fraction,
            self.resume_reused_shards,
            self.resume_rendered_shards,
            self.resume_manifest_identical,
            self.sweep_points,
            self.sweep_failures,
            self.corruption_trials,
            self.corruption_failures,
        )
    }
}

/// Every top-level store file, name-sorted: the convergence oracle.
fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().is_file())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read store file"),
            )
        })
        .collect();
    out.sort();
    out
}

/// The micro corpus the sweeps torture: small enough that hundreds of
/// crash-and-recover cycles stay cheap, large enough to cut several
/// shards.
fn micro_web() -> (EntityCatalog, Web) {
    let catalog =
        EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 120), Seed(21));
    let config = WebConfig::preset(Domain::Restaurants).scaled(0.004);
    let web = Web::generate(&catalog, &config, Seed(21));
    (catalog, web)
}

/// Run the full durability bench: resume cost at `scale`, then the
/// crash-point sweep (one point per `sweep_stride` ops) and
/// `corruption_trials` flaky-I/O trials on the micro store.
#[must_use]
pub fn run_durability_bench(
    scale: f64,
    shard_bytes: u64,
    sweep_stride: u64,
    corruption_trials: usize,
) -> DurabilityReport {
    let cfg = PageConfig::default();
    let seed = Seed(3);

    // --- resume-after-kill cost at the requested scale ---
    // Both sides of the ratio are best-of-3: the cold write and the
    // resume each take well under two seconds, so a single contended
    // scheduler slice can easily double one of them and push the
    // fraction over its gate. Minima are the standard noise filter for
    // a ratio of two short wall-clock measurements.
    let study = DomainStudy::generate(Domain::Restaurants, &StudyConfig::default().with_scale(scale));
    let cold_dir = TempDir::new("bench-durability-cold");
    let kill_dir = TempDir::new("bench-durability-killed");
    const REPS: usize = 3;
    let mut cold_write_secs = f64::INFINITY;
    let mut resume_secs = f64::INFINITY;
    let mut ops_per_cold_write = 0u64;
    let mut resume_report = None;
    let mut resume_manifest_identical = true;
    for _ in 0..REPS {
        let _ = std::fs::remove_dir_all(&cold_dir);
        let session = FaultSession::clean();
        let t0 = Instant::now();
        ShardStore::recover(
            &cold_dir,
            &study.web,
            &study.catalog,
            &cfg,
            seed,
            shard_bytes,
            RecoverMode::Cold,
            &session,
        )
        .expect("cold write");
        cold_write_secs = cold_write_secs.min(t0.elapsed().as_secs_f64());
        ops_per_cold_write = session.ops_issued();
        let cold_manifest =
            std::fs::read(StoreManifest::path_in(&cold_dir)).expect("cold manifest");

        // The manifest recommits after every rendered shard, so resume
        // pays only (a) rendering the missing tail, (b) a 64-byte header
        // read per surviving shard, and (c) at most one re-render for a
        // shard whose rename beat the kill but whose manifest commit did
        // not. Killing at 70% of the ops leaves a ~30% tail.
        let _ = std::fs::remove_dir_all(&kill_dir);
        let kill_at = ops_per_cold_write * 7 / 10;
        let killed = FaultSession::new(IoFaultPlan::crash_at(kill_at, Seed(1)));
        assert!(
            ShardStore::recover(
                &kill_dir,
                &study.web,
                &study.catalog,
                &cfg,
                seed,
                shard_bytes,
                RecoverMode::Cold,
                &killed,
            )
            .is_err(),
            "kill at op {kill_at} did not surface"
        );
        let t1 = Instant::now();
        let (_, report) = ShardStore::write_resumable(
            &kill_dir, &study.web, &study.catalog, &cfg, seed, shard_bytes,
        )
        .expect("resume after kill");
        resume_secs = resume_secs.min(t1.elapsed().as_secs_f64());
        resume_report = Some(report);
        resume_manifest_identical &= std::fs::read(StoreManifest::path_in(&kill_dir))
            .expect("resumed manifest")
            == cold_manifest;
    }
    let resume_report = resume_report.expect("at least one resume rep");

    // --- crash-point sweep on the micro store ---
    let (catalog, web) = micro_web();
    let micro_target = 256 * 1024;
    let refdir = TempDir::new("bench-durability-sweep-ref");
    let ref_session = FaultSession::clean();
    ShardStore::recover(
        &refdir, &web, &catalog, &cfg, seed, micro_target, RecoverMode::Cold, &ref_session,
    )
    .expect("micro reference write");
    let micro_ops = ref_session.ops_issued();
    let reference = store_files(&refdir);

    let sweep_dir = TempDir::new("bench-durability-sweep");
    let mut sweep_points = 0usize;
    let mut sweep_failures = 0usize;
    let mut op = 0u64;
    while op < micro_ops {
        sweep_points += 1;
        let _ = std::fs::remove_dir_all(&sweep_dir);
        let s = FaultSession::new(IoFaultPlan::crash_at(op, Seed(1_000 + op)));
        let crashed = ShardStore::recover(
            &sweep_dir, &web, &catalog, &cfg, seed, micro_target, RecoverMode::Cold, &s,
        );
        let converged = crashed.is_err()
            && (ShardStore::open(&sweep_dir).is_ok()
                || ShardStore::write_resumable(&sweep_dir, &web, &catalog, &cfg, seed, micro_target)
                    .is_ok())
            && store_files(&sweep_dir) == reference;
        if !converged {
            eprintln!("  SWEEP FAILURE at op {op}/{micro_ops}");
            sweep_failures += 1;
        }
        op += sweep_stride.max(1);
    }

    // --- flaky-I/O (silent corruption) trials ---
    let mut corruption_failures = 0usize;
    for trial in 0..corruption_trials as u64 {
        let _ = std::fs::remove_dir_all(&sweep_dir);
        let s = FaultSession::new(IoFaultPlan::flaky(0.01, 0.5, Seed(7_000 + trial)));
        let wrote = ShardStore::recover(
            &sweep_dir, &web, &catalog, &cfg, seed, micro_target, RecoverMode::Cold, &s,
        );
        let clean = wrote.is_ok()
            && matches!(ShardStore::scrub_dir(&sweep_dir), Ok(r) if r.is_clean());
        let converged = (clean
            || ShardStore::recover(
                &sweep_dir,
                &web,
                &catalog,
                &cfg,
                seed,
                micro_target,
                RecoverMode::Repair,
                &FaultSession::clean(),
            )
            .is_ok())
            && store_files(&sweep_dir) == reference;
        if !converged {
            eprintln!("  CORRUPTION FAILURE in trial {trial}");
            corruption_failures += 1;
        }
    }

    DurabilityReport {
        scale,
        shard_bytes,
        ops_per_cold_write,
        cold_write_secs,
        resume_secs,
        resume_cost_fraction: if cold_write_secs > 0.0 {
            resume_secs / cold_write_secs
        } else {
            0.0
        },
        resume_reused_shards: resume_report.shards_reused,
        resume_rendered_shards: resume_report.shards_rendered,
        resume_manifest_identical,
        sweep_points,
        sweep_failures,
        corruption_trials,
        corruption_failures,
    }
}
