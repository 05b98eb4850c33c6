//! # webstruct-bench
//!
//! Std-only benchmark harness (the offline build environment cannot
//! resolve criterion). Two bench targets:
//!
//! * `benches/pipeline.rs` times the four pipeline stages — generate,
//!   render+extract, analyze (oracle figures), and the end-to-end
//!   Extracted-source study — at a sweep of worker-thread counts, and
//!   writes the measurements to `BENCH_pipeline.json`;
//! * `benches/faults.rs` times budgeted crawls under increasing
//!   fault-injection severity and writes crawl throughput (fetch
//!   attempts per second, including retry/backoff bookkeeping) to
//!   `BENCH_faults.json`;
//! * `benches/scale.rs` runs the out-of-core render+extract path at a
//!   ladder of corpus scales — one child process per scale so each peak
//!   RSS is clean — and writes `BENCH_scale.json` (see [`scale`]);
//! * `benches/durability.rs` runs the crash-point torture sweep and the
//!   resume-after-kill cost measurement and writes
//!   `BENCH_durability.json` (see [`durability`]);
//! * `benches/incremental.rs` measures the warm (dirty-slice) re-run
//!   after a small corpus mutation against a cold run at the same state
//!   and writes `BENCH_incremental.json` (see [`incremental`]);
//! * `benches/serve.rs` replays the simulated search/browse population
//!   over real loopback sockets against a sweep of server worker counts
//!   and writes `BENCH_serve.json` (see [`serve`]).
//!
//! Run them with:
//!
//! ```text
//! cargo bench -p webstruct-bench --bench pipeline -- --out artifacts/BENCH_pipeline.json
//! cargo bench -p webstruct-bench --bench faults -- --out artifacts/BENCH_faults.json
//! cargo bench -p webstruct-bench --bench scale -- --out artifacts/BENCH_scale.json
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod alloc;
pub mod durability;
pub mod incremental;
pub mod scale;
pub mod serve;

use crate::alloc::count_allocs;
use std::time::Instant;
use webstruct_core::cache::Study;
use webstruct_core::runner::run_all;
use webstruct_core::study::{DataSource, StudyConfig};
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::page::{PageConfig, PageStream};
use webstruct_corpus::shard::ShardedWeb;
use webstruct_extract::{train_review_classifier, ExtractedWeb, Extractor};
use webstruct_util::par;

/// The scale every benchmark runs at: small enough for stable timings,
/// large enough to exercise real data volumes.
pub const BENCH_SCALE: f64 = 0.05;

/// A fresh study session at bench scale.
#[must_use]
pub fn bench_study() -> Study {
    Study::new(StudyConfig::default().with_scale(BENCH_SCALE))
}

/// Throughput and heap-traffic statistics for a hot-path stage,
/// gathered from one instrumented (allocation-counted) run plus the
/// best-of timing of the same deterministic workload.
#[derive(Debug, Clone, Copy)]
pub struct HotPathStats {
    /// Pages processed by the stage.
    pub pages: u64,
    /// Bytes of page text that entered extraction.
    pub bytes: u64,
    /// Heap allocation calls during the instrumented run (0 unless the
    /// binary installed [`alloc::CountingAlloc`]).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Pages per best-of wall-clock second.
    pub pages_per_sec: f64,
    /// Megabytes of page text per best-of wall-clock second.
    pub mb_per_sec: f64,
    /// Allocation calls per page.
    pub allocs_per_page: f64,
    /// Allocated bytes per page.
    pub bytes_alloc_per_page: f64,
}

impl HotPathStats {
    /// Assemble the stats from a timed run (`secs`), the page/byte totals
    /// of the workload, and the allocation delta of one instrumented run.
    #[must_use]
    pub fn from_run(secs: f64, pages: u64, bytes: u64, delta: alloc::AllocSnapshot) -> Self {
        let per_sec = |x: f64| if secs > 0.0 { x / secs } else { 0.0 };
        let per_page = |x: u64| {
            if pages > 0 {
                x as f64 / pages as f64
            } else {
                0.0
            }
        };
        let stats = HotPathStats {
            pages,
            bytes,
            allocs: delta.calls,
            alloc_bytes: delta.bytes,
            pages_per_sec: per_sec(pages as f64),
            mb_per_sec: per_sec(bytes as f64 / 1e6),
            allocs_per_page: per_page(delta.calls),
            bytes_alloc_per_page: per_page(delta.bytes),
        };
        // Mirror the headline measurements into the obs registry as
        // gauges (latest wins), so a traced bench run carries its own
        // throughput/allocation numbers in RUN_REPORT.json. Gauges are
        // timing-derived, so they deliberately live outside the
        // determinism-checked counter space.
        let m = webstruct_util::obs::metrics();
        m.set_gauge("bench.pages_per_sec", stats.pages_per_sec);
        m.set_gauge("bench.allocs_per_page", stats.allocs_per_page);
        m.set_gauge("bench.bytes_alloc_per_page", stats.bytes_alloc_per_page);
        m.set_gauge(
            "bench.peak_rss_bytes",
            webstruct_util::obs::peak_rss_bytes() as f64,
        );
        stats
    }
}

/// One timed measurement: a named stage at a worker-thread count.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Stage name (`generate`, `render_extract`, `render_extract_owned`,
    /// `analyze_oracle`, `pipeline_extracted`, or a per-kernel `scan_*`
    /// stage).
    pub stage: String,
    /// Worker threads the stage was configured with.
    pub threads: usize,
    /// Best-of-`repeats` wall-clock seconds.
    pub secs: f64,
    /// Hot-path throughput/allocation stats (render+extract stages only).
    pub hot: Option<HotPathStats>,
    /// Scanner throughput for the `scan_*` kernel stages: megabytes of
    /// input handed to that one kernel per best-of second.
    pub scan_mb_per_sec: Option<f64>,
}

/// A full benchmark report, serialisable to JSON by hand (no serde in
/// the offline environment).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Corpus scale factor the stages ran at.
    pub scale: f64,
    /// Repeats per measurement (best time is kept).
    pub repeats: usize,
    /// `std::thread::available_parallelism()` on the machine that ran
    /// the bench — speedups are only physically possible up to this.
    pub hardware_threads: usize,
    /// All measurements, in execution order.
    pub measurements: Vec<Measurement>,
}

impl BenchReport {
    /// Best time recorded for `stage` at `threads`, if measured.
    #[must_use]
    pub fn secs_for(&self, stage: &str, threads: usize) -> Option<f64> {
        self.measurements
            .iter()
            .find(|m| m.stage == stage && m.threads == threads)
            .map(|m| m.secs)
    }

    /// Speedup of `stage` at `threads` relative to its 1-thread time.
    #[must_use]
    pub fn speedup(&self, stage: &str, threads: usize) -> Option<f64> {
        let base = self.secs_for(stage, 1)?;
        let t = self.secs_for(stage, threads)?;
        (t > 0.0).then(|| base / t)
    }

    /// Render the report as a stable, hand-rolled JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str(&format!(
            "  \"hardware_threads\": {},\n",
            self.hardware_threads
        ));
        out.push_str("  \"measurements\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            let speedup = self
                .speedup(&m.stage, m.threads)
                .map_or_else(|| "null".to_string(), |s| format!("{s:.3}"));
            let hot = m.hot.as_ref().map_or_else(String::new, |h| {
                format!(
                    ", \"pages\": {}, \"pages_per_sec\": {:.1}, \"mb_per_sec\": {:.3}, \
                     \"allocs\": {}, \"allocs_per_page\": {:.2}, \
                     \"bytes_alloc_per_page\": {:.1}",
                    h.pages,
                    h.pages_per_sec,
                    h.mb_per_sec,
                    h.allocs,
                    h.allocs_per_page,
                    h.bytes_alloc_per_page,
                )
            });
            let scan = m
                .scan_mb_per_sec
                .map_or_else(String::new, |s| format!(", \"scan_mb_per_sec\": {s:.3}"));
            out.push_str(&format!(
                "    {{\"stage\": \"{}\", \"threads\": {}, \"secs\": {:.6}, \"speedup_vs_1\": {}{}{}}}{}\n",
                m.stage,
                m.threads,
                m.secs,
                speedup,
                hot,
                scan,
                if i + 1 < self.measurements.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

pub(crate) fn best_of<F: FnMut()>(repeats: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// `std::thread::available_parallelism()`, defaulting to 1 where the
/// platform cannot say. Recorded in every bench report so gate baselines
/// are only compared against runs on comparable hardware.
#[must_use]
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Time the pipeline stages at each thread count in `thread_counts`.
///
/// Stages:
/// * `generate` — catalog + web generation for the Restaurants domain
///   (inherently sequential; measured once per thread count as a
///   baseline anchor);
/// * `render_extract` — page rendering plus full extraction via
///   [`Extractor::extract`] at the given worker count;
/// * `analyze_oracle` — the full 33-figure oracle-source study
///   ([`run_all`]) with `WEBSTRUCT_THREADS` pinned to the worker count;
/// * `pipeline_extracted` — the end-to-end Extracted-source study
///   (render + extract + every figure), the acceptance-criterion
///   workload.
///
/// # Panics
/// Panics if classifier training fails (impossible by construction).
#[must_use]
pub fn run_pipeline_bench(scale: f64, thread_counts: &[usize], repeats: usize) -> BenchReport {
    let mut report = BenchReport {
        scale,
        repeats,
        hardware_threads: hardware_threads(),
        measurements: Vec::new(),
    };
    let config = StudyConfig::default().with_scale(scale);
    let study = webstruct_core::study::DomainStudy::generate(Domain::Restaurants, &config);
    let clf = train_review_classifier(config.seed.derive("nb"), 300)
        .expect("training set is balanced by construction");
    let extractor = Extractor::new(&study.catalog).with_review_classifier(clf.clone());

    for &threads in thread_counts {
        let secs = best_of(repeats, || {
            let d = webstruct_core::study::DomainStudy::generate(Domain::Restaurants, &config);
            std::hint::black_box(d.web.n_sites());
        });
        report.measurements.push(Measurement {
            stage: "generate".into(),
            threads,
            secs,
            hot: None,
            scan_mb_per_sec: None,
        });

        let sharded = ShardedWeb::rendered(
            &study.web,
            &study.catalog,
            PageConfig::default(),
            config.seed.derive("render"),
            threads,
        );
        let extract = || {
            extractor
                .extract(&sharded, threads)
                .expect("rendered shards have no I/O to fail")
        };
        let secs = best_of(repeats, || {
            std::hint::black_box(extract().total_occurrences(Attribute::Phone));
        });
        // One extra instrumented run of the identical deterministic
        // workload measures its heap traffic (zero delta unless the
        // binary installed the counting allocator).
        let ((pages, bytes), delta) = count_allocs(|| {
            let extracted = extract();
            (extracted.pages_processed, extracted.bytes_rendered)
        });
        report.measurements.push(Measurement {
            stage: "render_extract".into(),
            threads,
            secs,
            hot: Some(HotPathStats::from_run(secs, pages, bytes, delta)),
            scan_mb_per_sec: None,
        });

        if threads == 1 {
            // The pre-scratch baseline: owned `Page` values off the
            // iterator, a fresh extraction per page. Recording it next to
            // the fused stage keeps the before/after allocation numbers
            // in one artifact.
            let run_owned = || {
                let pages = PageStream::new(
                    &study.web,
                    &study.catalog,
                    PageConfig::default(),
                    config.seed.derive("render"),
                );
                let mut acc = ExtractedWeb::new(study.web.n_sites(), study.catalog.len());
                for page in pages {
                    let ex = extractor.extract_page(&page);
                    acc.bytes_rendered += page.text.len() as u64;
                    acc.ingest(page.site, &ex);
                }
                acc
            };
            let secs = best_of(repeats, || {
                std::hint::black_box(run_owned().pages_processed);
            });
            let (extracted, delta) = count_allocs(run_owned);
            report.measurements.push(Measurement {
                stage: "render_extract_owned".into(),
                threads: 1,
                secs,
                hot: Some(HotPathStats::from_run(
                    secs,
                    extracted.pages_processed,
                    extracted.bytes_rendered,
                    delta,
                )),
                scan_mb_per_sec: None,
            });

            // Per-kernel scanner throughput: each extraction kernel timed
            // alone over the same rendered corpus.
            report
                .measurements
                .extend(run_scan_kernel_bench(&study, &config, &clf, repeats));
        }

        std::env::set_var(par::THREADS_ENV, threads.to_string());
        let secs = best_of(repeats, || {
            let out = run_all(&config);
            std::hint::black_box(out.figures.len());
        });
        report.measurements.push(Measurement {
            stage: "analyze_oracle".into(),
            threads,
            secs,
            hot: None,
            scan_mb_per_sec: None,
        });

        let secs = best_of(repeats, || {
            let cfg = config.clone().with_source(DataSource::Extracted);
            let out = run_all(&cfg);
            std::hint::black_box(out.figures.len());
        });
        report.measurements.push(Measurement {
            stage: "pipeline_extracted".into(),
            threads,
            secs,
            hot: None,
            scan_mb_per_sec: None,
        });
        std::env::remove_var(par::THREADS_ENV);
    }
    report
}

/// Time each extraction kernel in isolation over the full rendered
/// corpus: pages (and their tag-stripped texts) are materialised outside
/// the timed windows, so each `scan_*` stage measures exactly one
/// scanner's throughput over its real input. The HTML-facing kernels
/// (`strip_tags`, `anchor_href`) are fed page HTML; the text-facing ones
/// (`phone`, `isbn`, `token`, `nb`) the visible text, mirroring the
/// pipeline. `scan_nb` is the review classifier's block scorer
/// ([`NaiveBayes::log_odds_with`](webstruct_extract::NaiveBayes::log_odds_with)),
/// and `scan_index` the per-page class index the pipeline's phone,
/// ISBN-marker and NB scans share
/// ([`classes64`](webstruct_util::bytescan::classes64) over every block).
fn run_scan_kernel_bench(
    study: &webstruct_core::study::DomainStudy,
    config: &StudyConfig,
    clf: &webstruct_extract::NaiveBayes,
    repeats: usize,
) -> Vec<Measurement> {
    use webstruct_corpus::page::Page;
    use webstruct_extract::{html, isbn_scan, phone_scan, tokenize};
    use webstruct_util::bytescan::{blocks64, classes64};

    let pages: Vec<Page> = PageStream::new(
        &study.web,
        &study.catalog,
        PageConfig::default(),
        config.seed.derive("render"),
    )
    .collect();
    let html_bytes: u64 = pages.iter().map(|p| p.text.len() as u64).sum();
    let mut texts: Vec<String> = Vec::with_capacity(pages.len());
    let mut buf = String::new();
    for p in &pages {
        html::strip_tags_into(&p.text, &mut buf);
        texts.push(buf.clone());
    }
    let text_bytes: u64 = texts.iter().map(|t| t.len() as u64).sum();

    let mut out = Vec::new();
    let mut push = |stage: &str, bytes: u64, secs: f64| {
        out.push(Measurement {
            stage: stage.into(),
            threads: 1,
            secs,
            hot: None,
            scan_mb_per_sec: (secs > 0.0).then(|| bytes as f64 / 1e6 / secs),
        });
    };

    let mut strip = String::new();
    let secs = best_of(repeats, || {
        let mut n = 0usize;
        for p in &pages {
            html::strip_tags_into(&p.text, &mut strip);
            n += strip.len();
        }
        std::hint::black_box(n);
    });
    push("scan_strip_tags", html_bytes, secs);

    let secs = best_of(repeats, || {
        let mut n = 0usize;
        for p in &pages {
            html::for_each_anchor_href(&p.text, |href, _| n += href.len());
        }
        std::hint::black_box(n);
    });
    push("scan_anchor_href", html_bytes, secs);

    let secs = best_of(repeats, || {
        let mut n = 0u64;
        for t in &texts {
            phone_scan::for_each_phone(t, |m| n += m.phone.digits());
        }
        std::hint::black_box(n);
    });
    push("scan_phone", text_bytes, secs);

    let secs = best_of(repeats, || {
        let mut n = 0u64;
        for t in &texts {
            isbn_scan::for_each_isbn(t, |m| n += u64::from(m.isbn.core()));
        }
        std::hint::black_box(n);
    });
    push("scan_isbn", text_bytes, secs);

    let mut token_buf = String::new();
    let secs = best_of(repeats, || {
        let mut n = 0usize;
        for t in &texts {
            tokenize::for_each_token(t, &mut token_buf, |tok| n += tok.len());
        }
        std::hint::black_box(n);
    });
    push("scan_token", text_bytes, secs);

    let secs = best_of(repeats, || {
        let mut sum = 0.0;
        for t in &texts {
            sum += clf.log_odds_with(t, &mut token_buf);
        }
        std::hint::black_box(sum);
    });
    push("scan_nb", text_bytes, secs);

    let mut index = Vec::new();
    let secs = best_of(repeats, || {
        let mut n = 0u32;
        for t in &texts {
            index.clear();
            index.extend(blocks64(t.as_bytes(), classes64));
            n += index.iter().map(|c| c.digits.count_ones()).sum::<u32>();
        }
        std::hint::black_box(n);
    });
    push("scan_index", text_bytes, secs);

    out
}

/// One timed crawl under a fault plan of the given severity.
#[derive(Debug, Clone)]
pub struct FaultMeasurement {
    /// Injected failure rate (0.0 = clean baseline).
    pub failure_rate: f64,
    /// Best-of-`repeats` wall-clock seconds for the budgeted crawl.
    pub secs: f64,
    /// Fetch attempts charged against the budget (includes retries).
    pub attempts: u64,
    /// Retries issued inside those attempts.
    pub retries: u64,
    /// Rounds that exhausted their retries and failed.
    pub failed_rounds: u64,
    /// Circuit-breaker trips.
    pub breaker_opens: u64,
    /// Entities discovered by the end of the budget.
    pub entities_found: usize,
}

impl FaultMeasurement {
    /// Crawl throughput: fetch attempts per wall-clock second.
    #[must_use]
    pub fn attempts_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.attempts as f64 / self.secs
        } else {
            0.0
        }
    }
}

/// Report for the fault-injection bench, serialisable to JSON by hand.
#[derive(Debug, Clone)]
pub struct FaultBenchReport {
    /// Corpus scale factor the crawls ran at.
    pub scale: f64,
    /// Fetch budget each crawl ran with.
    pub fetch_budget: usize,
    /// Repeats per measurement (best time is kept).
    pub repeats: usize,
    /// One measurement per swept failure rate.
    pub measurements: Vec<FaultMeasurement>,
}

impl FaultBenchReport {
    /// Throughput at `failure_rate` relative to the clean (0.0) baseline.
    #[must_use]
    pub fn relative_throughput(&self, failure_rate: f64) -> Option<f64> {
        let base = self
            .measurements
            .iter()
            .find(|m| m.failure_rate == 0.0)?
            .attempts_per_sec();
        let at = self
            .measurements
            .iter()
            .find(|m| (m.failure_rate - failure_rate).abs() < 1e-9)?
            .attempts_per_sec();
        (base > 0.0).then(|| at / base)
    }

    /// Render the report as a stable, hand-rolled JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"fetch_budget\": {},\n", self.fetch_budget));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str("  \"measurements\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"failure_rate\": {}, \"secs\": {:.6}, \"attempts_per_sec\": {:.1}, \
                 \"attempts\": {}, \"retries\": {}, \"failed_rounds\": {}, \
                 \"breaker_opens\": {}, \"entities_found\": {}}}{}\n",
                m.failure_rate,
                m.secs,
                m.attempts_per_sec(),
                m.attempts,
                m.retries,
                m.failed_rounds,
                m.breaker_opens,
                m.entities_found,
                if i + 1 < self.measurements.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Time budgeted crawls at each failure rate in `rates`.
///
/// Every crawl uses the same Restaurants occurrence lists, seeds and
/// largest-first frontier; only the injected [`FaultConfig::flaky`]
/// severity varies, so the timing difference is exactly the cost of the
/// retry/backoff/breaker machinery plus the extra rounds faults force.
#[must_use]
pub fn run_fault_bench(
    scale: f64,
    fetch_budget: usize,
    rates: &[f64],
    repeats: usize,
) -> FaultBenchReport {
    use webstruct_crawl::{Crawler, LargestFirst, SearchIndex};
    use webstruct_util::fault::{BreakerConfig, FaultConfig, FaultPlan, RetryPolicy};
    use webstruct_util::ids::EntityId;
    use webstruct_util::rng::Xoshiro256;

    let config = StudyConfig::default().with_scale(scale);
    let study = Study::new(config.clone());
    let built = study.domain(Domain::Restaurants);
    let lists = built.occurrence_lists(webstruct_corpus::domain::Attribute::Phone, &config);
    let n_entities = built.catalog.len();
    let mut rng = Xoshiro256::from_seed(config.seed.derive("bench-fault-seeds"));
    let seeds: Vec<EntityId> = (0..3)
        .map(|_| EntityId::new(rng.u64_below(n_entities as u64) as u32))
        .collect();
    let plan_seed = config.seed.derive("bench-fault-plan");

    let mut report = FaultBenchReport {
        scale,
        fetch_budget,
        repeats,
        measurements: Vec::new(),
    };
    for (i, &rate) in rates.iter().enumerate() {
        let plan = FaultPlan::new(FaultConfig::flaky(rate), plan_seed.derive_u64(i as u64));
        let run = || {
            let index = SearchIndex::build(n_entities, &lists, None);
            Crawler::new(&index, &lists, LargestFirst::default(), &seeds).run_with_faults(
                fetch_budget,
                u64::MAX,
                &plan,
                RetryPolicy::default(),
                BreakerConfig::default(),
            )
        };
        let result = run();
        let secs = best_of(repeats, || {
            std::hint::black_box(run().entities_found);
        });
        report.measurements.push(FaultMeasurement {
            failure_rate: rate,
            secs,
            attempts: result.fetch.attempts as u64,
            retries: result.fetch.retries as u64,
            failed_rounds: result.fetch.failed_rounds as u64,
            breaker_opens: result.fetch.breaker_opens as u64,
            entities_found: result.entities_found,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_study_builds() {
        let s = super::bench_study();
        let d = s.domain(webstruct_corpus::domain::Domain::Banks);
        assert!(d.web.n_mentions() > 0);
    }

    #[test]
    fn report_json_is_well_formed() {
        let report = BenchReport {
            scale: 0.01,
            repeats: 1,
            hardware_threads: 4,
            measurements: vec![
                Measurement {
                    stage: "render_extract".into(),
                    threads: 1,
                    secs: 2.0,
                    hot: Some(HotPathStats {
                        pages: 1000,
                        bytes: 4_000_000,
                        allocs: 500,
                        alloc_bytes: 64_000,
                        pages_per_sec: 500.0,
                        mb_per_sec: 2.0,
                        allocs_per_page: 0.5,
                        bytes_alloc_per_page: 64.0,
                    }),
                    scan_mb_per_sec: None,
                },
                Measurement {
                    stage: "render_extract".into(),
                    threads: 4,
                    secs: 0.5,
                    hot: None,
                    scan_mb_per_sec: None,
                },
                Measurement {
                    stage: "scan_token".into(),
                    threads: 1,
                    secs: 0.25,
                    hot: None,
                    scan_mb_per_sec: Some(123.456),
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"hardware_threads\": 4"));
        assert!(json.contains("\"speedup_vs_1\": 4.000"));
        assert!(json.contains("\"pages_per_sec\": 500.0"));
        assert!(json.contains("\"mb_per_sec\": 2.000"));
        assert!(json.contains("\"allocs_per_page\": 0.50"));
        assert!(json.contains("\"bytes_alloc_per_page\": 64.0"));
        assert!(json.contains("\"scan_mb_per_sec\": 123.456"));
        assert_eq!(report.speedup("render_extract", 4), Some(4.0));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn fault_report_json_is_well_formed() {
        let report = FaultBenchReport {
            scale: 0.01,
            fetch_budget: 100,
            repeats: 1,
            measurements: vec![
                FaultMeasurement {
                    failure_rate: 0.0,
                    secs: 1.0,
                    attempts: 100,
                    retries: 0,
                    failed_rounds: 0,
                    breaker_opens: 0,
                    entities_found: 50,
                },
                FaultMeasurement {
                    failure_rate: 0.3,
                    secs: 2.0,
                    attempts: 100,
                    retries: 20,
                    failed_rounds: 3,
                    breaker_opens: 1,
                    entities_found: 30,
                },
            ],
        };
        let json = report.to_json();
        assert!(json.contains("\"failure_rate\": 0.3"));
        assert!(json.contains("\"attempts_per_sec\": 100.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        let rel = report.relative_throughput(0.3).unwrap();
        assert!((rel - 0.5).abs() < 1e-9, "rel {rel}");
    }

    #[test]
    fn fault_bench_runs_at_tiny_scale() {
        let report = run_fault_bench(0.01, 200, &[0.0, 0.3], 1);
        assert_eq!(report.measurements.len(), 2);
        let clean = &report.measurements[0];
        let faulty = &report.measurements[1];
        assert_eq!(clean.retries, 0, "clean run never retries");
        assert!(clean.attempts > 0);
        assert!(faulty.retries > 0, "30% run should retry");
        assert!(
            faulty.entities_found <= clean.entities_found,
            "faults cannot help discovery"
        );
    }
}
