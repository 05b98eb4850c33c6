//! The parallel execution layer's contract: every parallel path produces
//! byte-identical figures, tables and occurrence lists to the sequential
//! (`WEBSTRUCT_THREADS=1`) path.
//!
//! Thread counts are driven through the `WEBSTRUCT_THREADS` environment
//! variable — the same knob operators use — so these tests serialise
//! their env mutations through a process-wide lock. Determinism means
//! the *results* of any concurrently running test are unaffected; only
//! scheduling changes.

use std::sync::{Mutex, MutexGuard, OnceLock};
use webstruct::core::experiments::discovery::discovery_under_failure;
use webstruct::core::runner::{run_all, run_extensions};
use webstruct::core::study::{DataSource, DomainStudy, StudyConfig};
use webstruct::corpus::domain::{Attribute, Domain};
use webstruct::corpus::page::PageConfig;
use webstruct::corpus::ShardedWeb;
use webstruct::extract::Extractor;
use webstruct::util::obs;
use webstruct::util::par;
use webstruct::util::rng::Seed;

fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("env lock poisoned")
}

/// Run `f` with `WEBSTRUCT_THREADS` pinned to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = env_lock();
    std::env::set_var(par::THREADS_ENV, threads.to_string());
    let out = f();
    std::env::remove_var(par::THREADS_ENV);
    out
}

/// Reset the global metric registries, run `f` at `threads`, and return
/// the resulting snapshot's deterministic JSON rendering — counters and
/// histograms, the space the determinism contract covers. Gauges are
/// deliberately outside it: per-worker load gauges (`extract.worker_bytes.*`)
/// and timing-derived gauges legitimately vary with the thread count. The whole measurement runs under the env lock, which every
/// metrics-publishing test in this binary also holds — so nothing
/// pollutes the registry mid-measurement.
fn metrics_snapshot_at(threads: usize, f: impl FnOnce()) -> String {
    with_threads(threads, || {
        obs::metrics().reset();
        f();
        obs::metrics().snapshot().to_deterministic_json()
    })
}

#[test]
fn threads_env_override_is_respected() {
    with_threads(3, || assert_eq!(par::num_threads(), 3));
    with_threads(1, || assert_eq!(par::num_threads(), 1));
}

#[test]
fn run_all_is_identical_across_thread_counts() {
    let cfg = StudyConfig::quick();
    let baseline = with_threads(1, || run_all(&cfg));
    assert_eq!(baseline.figures.len(), 33);
    for threads in [2, 8] {
        let parallel = with_threads(threads, || run_all(&cfg));
        assert_eq!(
            parallel.figures, baseline.figures,
            "figures diverged at {threads} threads"
        );
        assert_eq!(
            parallel.tables, baseline.tables,
            "tables diverged at {threads} threads"
        );
    }
}

#[test]
fn fault_injected_run_is_identical_across_thread_counts() {
    // The fault layer's retry loops, backoff clocks and circuit breakers
    // must not leak scheduling into results: a faulty sweep is as
    // deterministic as a clean run.
    use webstruct::core::cache::Study;
    use webstruct::corpus::domain::Domain;
    let baseline = with_threads(1, || {
        let study = Study::new(StudyConfig::quick());
        let built = study.domain(Domain::Restaurants);
        discovery_under_failure(&built, &study.config, 400)
    });
    for threads in [2, 8] {
        let parallel = with_threads(threads, || {
            let study = Study::new(StudyConfig::quick());
            let built = study.domain(Domain::Restaurants);
            discovery_under_failure(&built, &study.config, 400)
        });
        assert_eq!(
            parallel.0, baseline.0,
            "failure figure diverged at {threads} threads"
        );
        assert_eq!(
            parallel.1, baseline.1,
            "counter table diverged at {threads} threads"
        );
    }
}

#[test]
fn extracted_source_run_is_identical_across_thread_counts() {
    // Extracted source renders every page; keep the corpus small.
    let cfg = StudyConfig::quick()
        .with_scale(0.02)
        .with_source(DataSource::Extracted);
    let baseline = with_threads(1, || run_all(&cfg));
    for threads in [2, 4, 8] {
        let parallel = with_threads(threads, || run_all(&cfg));
        assert_eq!(
            parallel.figures, baseline.figures,
            "figures diverged at {threads} threads"
        );
        assert_eq!(
            parallel.tables, baseline.tables,
            "tables diverged at {threads} threads"
        );
    }
}

#[test]
fn extracted_run_metrics_snapshot_is_identical_across_thread_counts() {
    // Families that need the same domain join one extraction job, so
    // which thread folds which shard, and which one publishes, changes
    // with the schedule; `extract.*` and `cache.domain_*` must not.
    let cfg = StudyConfig::quick()
        .with_scale(0.02)
        .with_source(DataSource::Extracted);
    let baseline = metrics_snapshot_at(1, || {
        let _ = run_all(&cfg);
    });
    assert!(baseline.contains("extract.pages"), "snapshot: {baseline}");
    assert!(baseline.contains("cache.domain_requests"), "snapshot: {baseline}");
    for threads in [2, 8] {
        let snap = metrics_snapshot_at(threads, || {
            let _ = run_all(&cfg);
        });
        assert_eq!(snap, baseline, "metrics snapshot diverged at {threads} threads");
    }
}

#[test]
fn extracted_run_never_exceeds_num_threads_workers() {
    // Every test in this binary that runs parallel work holds the env
    // lock, so the process-wide peak measured here is this run's alone.
    // run_all has ten steps, one per domain plus the traffic step; at 8
    // threads the workers left without a step join the extractions still
    // in flight, so the idle budget goes to work as well.
    let cfg = StudyConfig::quick().with_source(DataSource::Extracted);
    for (threads, least) in [(2, 2), (8, 4)] {
        let peak = with_threads(threads, || {
            par::reset_peak_workers();
            let out = run_all(&cfg);
            assert!(out.is_complete(), "failures at {threads} threads: {:?}", out.failures);
            par::peak_workers()
        });
        assert!(peak >= least, "a {threads}-thread run used only {peak} workers");
        assert!(peak <= threads, "a {threads}-thread run ran {peak} workers at once");
    }
}

#[test]
fn metrics_snapshot_is_identical_across_thread_counts() {
    // The observability contract: the full counter/histogram snapshot —
    // not just the figure bytes — is byte-identical for any
    // WEBSTRUCT_THREADS. Wall-clock data lives in spans and per-worker
    // load data in gauges; both are deliberately outside the snapshot.
    let cfg = StudyConfig::quick();
    let baseline = metrics_snapshot_at(1, || {
        let _ = run_all(&cfg);
    });
    assert!(baseline.contains("cache.domain_requests"), "snapshot: {baseline}");
    assert!(baseline.contains("runner.figures"), "snapshot: {baseline}");
    for threads in [2, 8] {
        let snap = metrics_snapshot_at(threads, || {
            let _ = run_all(&cfg);
        });
        assert_eq!(snap, baseline, "metrics snapshot diverged at {threads} threads");
    }
}

#[test]
fn metrics_snapshot_identical_across_threads_under_fault_injection() {
    // Same contract with the fault layer live: the failure sweep runs
    // 10% and 30% FaultPlans through retries, backoff and breakers, and
    // the fetch.* counters must still not depend on scheduling.
    use webstruct::core::cache::Study;
    let snapshot_for = |threads: usize| {
        metrics_snapshot_at(threads, || {
            let study = Study::new(StudyConfig::quick());
            let _ = discovery_under_failure(&study.domain(Domain::Restaurants), &study.config, 400);
        })
    };
    let baseline = snapshot_for(1);
    assert!(baseline.contains("fetch.attempts"), "snapshot: {baseline}");
    assert!(baseline.contains("fetch.retries"), "snapshot: {baseline}");
    for threads in [2, 8] {
        let snap = snapshot_for(threads);
        assert_eq!(snap, baseline, "fault-run snapshot diverged at {threads} threads");
    }
}

#[test]
fn extracted_metrics_snapshot_identical_across_thread_counts() {
    // The sharded render→extract path: per-shard scratch-local counters
    // merged at join must equal the sequential totals, including the
    // page-size histogram.
    let cfg = StudyConfig::quick().with_scale(0.02);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let extractor = Extractor::new(&study.catalog);
    let snapshot_for = |threads: usize| {
        metrics_snapshot_at(threads, || {
            let web = ShardedWeb::rendered(
                &study.web,
                &study.catalog,
                PageConfig::default(),
                Seed(77),
                threads,
            );
            let _ = extractor.extract(&web, threads).expect("rendered shards");
        })
    };
    let baseline = snapshot_for(1);
    assert!(baseline.contains("extract.pages"), "snapshot: {baseline}");
    assert!(baseline.contains("extract.page_bytes"), "snapshot: {baseline}");
    assert!(baseline.contains("corpus.pages_rendered"), "snapshot: {baseline}");
    for threads in [2, 8] {
        let snap = snapshot_for(threads);
        assert_eq!(snap, baseline, "extract snapshot diverged at {threads} threads");
    }
}

#[test]
fn extracted_occurrences_identical_across_thread_counts() {
    // Holds the env lock (without touching the env) so its metric
    // publications never land inside another test's measurement window.
    let _guard = env_lock();
    let cfg = StudyConfig::quick().with_scale(0.02);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let extractor = Extractor::new(&study.catalog);
    let extract_at = |threads: usize| {
        let web = ShardedWeb::rendered(
            &study.web,
            &study.catalog,
            PageConfig::default(),
            Seed(77),
            threads,
        );
        extractor.extract(&web, threads).expect("rendered shards")
    };
    let baseline = extract_at(1);
    for threads in [2, 8] {
        let parallel = extract_at(threads);
        for attr in [Attribute::Phone, Attribute::Homepage, Attribute::Review] {
            assert_eq!(
                parallel.occurrence_lists(attr),
                baseline.occurrence_lists(attr),
                "{attr:?} diverged at {threads} threads"
            );
            assert_eq!(
                parallel.total_occurrences(attr),
                baseline.total_occurrences(attr)
            );
        }
        assert_eq!(parallel.pages_processed, baseline.pages_processed);
    }
}

#[test]
fn iofault_plans_are_seed_pure_at_every_thread_count() {
    // The storage-fault layer joins the determinism contract: the same
    // plan seed must reproduce the same failure sequence — and the same
    // crashed-then-recovered store — no matter what WEBSTRUCT_THREADS
    // says, because fault decisions are pure functions of (seed, op,
    // kind), never of scheduling.
    use webstruct::corpus::{RecoverMode, ShardStore};
    use webstruct::util::iofault::{FaultSession, IoFaultPlan, OpKind};
    use webstruct::util::TempDir;

    let kinds = [
        OpKind::Create,
        OpKind::Write,
        OpKind::Seek,
        OpKind::Fsync,
        OpKind::Rename,
        OpKind::SyncDir,
    ];
    let sequence_of = |plan: &IoFaultPlan| {
        let mut seq = Vec::new();
        for op in 0..400u64 {
            for kind in kinds {
                seq.push(format!("{:?}", plan.fault_for(op, kind, 4096)));
            }
        }
        seq
    };
    let baseline = sequence_of(&IoFaultPlan::flaky(0.07, 0.5, Seed(99)));
    for threads in [1usize, 2, 8] {
        let seq = with_threads(threads, || sequence_of(&IoFaultPlan::flaky(0.07, 0.5, Seed(99))));
        assert_eq!(seq, baseline, "fault sequence diverged at {threads} threads");
    }

    // End to end: crash the same write at the same op under different
    // thread counts; the surviving files and the recovered store must be
    // byte-identical.
    let cfg = StudyConfig::quick().with_scale(0.01);
    let study = DomainStudy::generate(Domain::Restaurants, &cfg);
    let run = |threads: usize, tag: &str| {
        with_threads(threads, || {
            let dir = TempDir::new(&format!("iofault-det-{tag}"));
            let session = FaultSession::new(IoFaultPlan::crash_at(33, Seed(4)));
            let crashed = ShardStore::recover(
                &dir,
                &study.web,
                &study.catalog,
                &PageConfig::default(),
                Seed(9),
                256 * 1024,
                RecoverMode::Cold,
                &session,
            );
            assert!(crashed.is_err(), "crash at op 33 did not surface");
            let error = format!("{}", crashed.expect_err("crash error"));
            ShardStore::write_resumable(
                &dir,
                &study.web,
                &study.catalog,
                &PageConfig::default(),
                Seed(9),
                256 * 1024,
            )
            .expect("resume");
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .expect("read store dir")
                .map(|e| e.expect("dir entry"))
                .filter(|e| e.path().is_file())
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read(e.path()).expect("read file"),
                    )
                })
                .collect();
            files.sort();
            (error, session.ops_issued(), files)
        })
    };
    let baseline = run(1, "t1");
    for threads in [2usize, 8] {
        let other = run(threads, &format!("t{threads}"));
        assert_eq!(other, baseline, "recovery diverged at {threads} threads");
    }
}

#[test]
fn oracle_and_extracted_sources_agree_under_parallel_path() {
    let cfg = StudyConfig::quick().with_scale(0.02);
    let study = DomainStudy::generate(Domain::Banks, &cfg);
    let oracle = study.occurrence_lists(Attribute::Phone, &cfg);
    let extracted = with_threads(8, || {
        study.occurrence_lists(
            Attribute::Phone,
            &cfg.clone().with_source(DataSource::Extracted),
        )
    });
    assert_eq!(oracle, extracted);
}

#[test]
fn traced_run_all_spans_every_step_under_run_all() {
    // One `step` span per step (nine domains and the traffic studies),
    // each directly under `run_all`, and one `generate_domain` per
    // domain, under its step. At one thread every span nests on the
    // calling thread. Tracing changes no output.
    let cfg = StudyConfig::quick();
    let (untraced, traced, spans) = with_threads(1, || {
        let untraced = run_all(&cfg);
        obs::trace().set_enabled(true);
        let traced = {
            let _root = webstruct::util::span!("test.run_all_steps");
            run_all(&cfg)
        };
        obs::trace().set_enabled(false);
        (untraced, traced, obs::trace().spans())
    });
    assert_eq!(traced.figures, untraced.figures, "tracing changed the figures");
    assert_eq!(traced.tables, untraced.tables, "tracing changed the tables");
    assert_eq!(traced.failures, untraced.failures);
    let families = |out: &webstruct::core::RunOutput| -> Vec<String> {
        out.timings.iter().map(|t| t.family.clone()).collect()
    };
    assert_eq!(families(&traced), families(&untraced));

    let root = spans
        .iter()
        .find(|s| s.name == "test.run_all_steps")
        .expect("root span recorded")
        .id;
    let runs: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "run_all")
        .map(|s| s.id)
        .collect();
    assert_eq!(runs.len(), 1, "exactly one run_all span under the root");
    // The subtree under run_all, found in start order: a parent starts
    // before its children.
    let mut subtree = vec![runs[0]];
    for s in &spans {
        if s.parent.is_some_and(|p| subtree.contains(&p)) {
            subtree.push(s.id);
        }
    }
    let below: Vec<&obs::SpanRecord> =
        spans.iter().filter(|s| s.id != runs[0] && subtree.contains(&s.id)).collect();
    let named = |base: &str| -> Vec<&obs::SpanRecord> {
        below
            .iter()
            .copied()
            .filter(|s| s.name.split(' ').next() == Some(base))
            .collect()
    };
    let steps = named("step");
    assert_eq!(steps.len(), 10, "one step span per step: {steps:?}");
    assert!(steps.iter().all(|s| s.parent == Some(runs[0])), "{steps:?}");
    assert_eq!(
        steps.iter().filter(|s| s.name.starts_with("step domain=")).count(),
        9
    );
    assert_eq!(steps.iter().filter(|s| s.name == "step traffic").count(), 1);
    let generated = named("generate_domain");
    assert_eq!(generated.len(), 9, "one generate_domain per domain: {generated:?}");
    assert!(
        generated
            .iter()
            .all(|g| steps.iter().any(|step| g.parent == Some(step.id))),
        "each generate_domain sits under its step"
    );
}

#[test]
fn traced_run_extensions_generates_six_domains() {
    // One Restaurants pass for the eight families that read it, and one
    // Restaurants pass per ext-stability seed (five): six
    // `generate_domain` spans under `run_extensions`, each directly under
    // its step. At one thread every span nests on the calling thread.
    // Tracing changes no output.
    let cfg = StudyConfig::quick();
    let (untraced, traced, spans) = with_threads(1, || {
        let untraced = run_extensions(&cfg);
        obs::trace().set_enabled(true);
        let traced = {
            let _root = webstruct::util::span!("test.run_extensions_steps");
            run_extensions(&cfg)
        };
        obs::trace().set_enabled(false);
        (untraced, traced, obs::trace().spans())
    });
    assert_eq!(traced.figures, untraced.figures, "tracing changed the figures");
    assert_eq!(traced.tables, untraced.tables, "tracing changed the tables");
    assert_eq!(traced.failures, untraced.failures);

    let root = spans
        .iter()
        .find(|s| s.name == "test.run_extensions_steps")
        .expect("root span recorded")
        .id;
    let runs: Vec<u64> = spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "run_extensions")
        .map(|s| s.id)
        .collect();
    assert_eq!(runs.len(), 1, "exactly one run_extensions span under the root");
    let mut subtree = vec![runs[0]];
    for s in &spans {
        if s.parent.is_some_and(|p| subtree.contains(&p)) {
            subtree.push(s.id);
        }
    }
    let generated: Vec<&obs::SpanRecord> = spans
        .iter()
        .filter(|s| subtree.contains(&s.id) && s.name.split(' ').next() == Some("generate_domain"))
        .collect();
    assert_eq!(generated.len(), 6, "six generate_domain spans: {generated:?}");
    let step_name = |g: &obs::SpanRecord| {
        spans
            .iter()
            .find(|s| Some(s.id) == g.parent)
            .map_or("", |s| s.name.as_str())
            .to_string()
    };
    let parents: Vec<String> = generated.iter().map(|g| step_name(g)).collect();
    assert_eq!(
        parents.iter().filter(|p| *p == "step domain=Restaurants").count(),
        1,
        "{parents:?}"
    );
    assert_eq!(
        parents.iter().filter(|p| *p == "step family=ext-stability").count(),
        5,
        "{parents:?}"
    );
}
