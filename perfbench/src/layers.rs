//! The traced run: each workload's operation replayed at one thread by
//! calling the layers' public functions in pipeline order, with a span
//! around each call. The replica must reproduce the untraced operation's
//! outputs; the untraced operation runs first, also at one thread, and
//! the difference in wall time is the tracing overhead.

use crate::measure::{hex, percentile, proc_io, timed, Tracer};
use crate::{figures as figures_wl, serve as serve_wl, Ctx, Outcome};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use webstruct_core::epoch::{identifying_attribute, Epoch, COVERAGE_MAX_K};
use webstruct_core::experiments::{connectivity, spread, table1, tail_value};
use webstruct_core::Study;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::EntityCatalog;
use webstruct_corpus::extcache::{self, ExtLoad};
use webstruct_corpus::manifest::ExtEntry;
use webstruct_corpus::page::{PageConfig, PageScratch, PageStream};
use webstruct_corpus::shard::{ShardStore, ShardedWeb};
use webstruct_corpus::web::Web;
use webstruct_coverage::StreamingCoverage;
use webstruct_demand::model::{StudySite, TrafficConfig, TrafficStudy};
use webstruct_extract::html::{for_each_anchor_href, strip_tags_into};
use webstruct_extract::isbn_scan::for_each_isbn;
use webstruct_extract::phone_scan::for_each_phone;
use webstruct_extract::tokenize::for_each_token;
use webstruct_extract::{train_review_classifier, ExtractedWeb, Extractor, NaiveBayes};
use webstruct_graph::GraphAccumulator;
use webstruct_serve::http::{parse_head, write_response_head, HeadParse};
use webstruct_serve::{
    route, EpochManager, Request, ResponseCache, ServeConfig, ServeState, Server, SharedServing,
};
use webstruct_util::ids::SiteId;
use webstruct_util::iofault::FaultSession;
use webstruct_util::par::THREADS_ENV;
use webstruct_util::rng::Seed;
use webstruct_util::sha::Sha256;

/// Rendered bytes kept for the scan-kernel timings.
const KERNEL_SAMPLE_BYTES: usize = 16 << 20;
const MB: f64 = 1_048_576.0;

fn mb_per_s(bytes: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        bytes as f64 / MB / secs
    } else {
        0.0
    }
}

/// Pin the program to one worker thread for the whole traced run.
fn one_thread() {
    std::env::set_var(THREADS_ENV, "1");
}

fn write_trace(ctx: &Ctx, workload: &str, t: &Tracer, o: &mut Outcome) {
    let path = ctx
        .out
        .join("traces")
        .join(format!("{workload}-seed{}.json", ctx.seed));
    match t.write_chrome(&path) {
        Ok(()) => o.stamp("trace_file", path.display()),
        Err(e) => o.check(false, &format!("write trace {}: {e}", path.display())),
    }
}

fn overhead(o: &mut Outcome, untraced: f64, traced: f64) {
    o.set("trace.untraced_s", untraced);
    o.set("trace.traced_s", traced);
    o.set("trace.overhead_frac", traced / untraced - 1.0);
}

/// The extractor [`Epoch`] builds for its domain.
fn epoch_extractor(epoch: &Epoch) -> Extractor<'_> {
    let mut extractor = Extractor::new(epoch.catalog());
    if epoch.domain().has_attribute(Attribute::Review) {
        extractor = extractor.with_review_classifier(review_classifier(epoch.config().seed));
    }
    extractor
}

fn review_classifier(seed: Seed) -> NaiveBayes {
    train_review_classifier(seed.derive("nb"), 300).expect("training set is balanced")
}

/// Render every page of `web` with nothing written; returns the bytes
/// rendered and keeps the first [`KERNEL_SAMPLE_BYTES`] of page text.
fn render_probe(
    t: &mut Tracer,
    web: &Web,
    catalog: &EntityCatalog,
    seed: Seed,
    keep: &mut Vec<String>,
) -> u64 {
    t.span("corpus.render", |_| {
        let mut stream = PageStream::new(web, catalog, PageConfig::default(), seed);
        let mut scratch = PageScratch::default();
        let mut bytes = 0u64;
        let mut kept = 0usize;
        while stream.render_into(&mut scratch) {
            let text = scratch.text();
            bytes += text.len() as u64;
            if kept < KERNEL_SAMPLE_BYTES {
                kept += text.len();
                keep.push(text.to_string());
            }
        }
        bytes
    })
}

/// Time each scan kernel, and the review classifier, over `pages`.
fn kernels(t: &mut Tracer, o: &mut Outcome, pages: &[String], clf: &NaiveBayes) {
    let html: u64 = pages.iter().map(|p| p.len() as u64).sum();
    let mut stripped = Vec::with_capacity(pages.len());
    let (_, secs) = timed(|| {
        t.span("extract.scan.strip_tags", |_| {
            for p in pages {
                let mut out = String::with_capacity(p.len());
                strip_tags_into(p, &mut out);
                stripped.push(out);
            }
        })
    });
    o.set("extract.scan.strip_tags_mb_per_s", mb_per_s(html, secs));
    let text: u64 = stripped.iter().map(|p| p.len() as u64).sum();
    let (_, secs) = timed(|| {
        t.span("extract.scan.anchor_href", |_| {
            let mut n = 0usize;
            for p in pages {
                for_each_anchor_href(p, |h, _| n += h.len());
            }
            black_box(n)
        })
    });
    o.set("extract.scan.anchor_href_mb_per_s", mb_per_s(html, secs));
    let (_, secs) = timed(|| {
        t.span("extract.scan.phone", |_| {
            let mut n = 0usize;
            for p in &stripped {
                for_each_phone(p, |_| n += 1);
            }
            black_box(n)
        })
    });
    o.set("extract.scan.phone_mb_per_s", mb_per_s(text, secs));
    let (_, secs) = timed(|| {
        t.span("extract.scan.isbn", |_| {
            let mut n = 0usize;
            for p in &stripped {
                for_each_isbn(p, |_| n += 1);
            }
            black_box(n)
        })
    });
    o.set("extract.scan.isbn_mb_per_s", mb_per_s(text, secs));
    let mut buf = String::new();
    let (_, secs) = timed(|| {
        t.span("extract.scan.token", |_| {
            let mut n = 0usize;
            for p in &stripped {
                for_each_token(p, &mut buf, |tok| n += tok.len());
            }
            black_box(n)
        })
    });
    o.set("extract.scan.token_mb_per_s", mb_per_s(text, secs));
    let (_, secs) = timed(|| {
        t.span("extract.nb", |_| {
            let mut sum = 0.0;
            for p in &stripped {
                sum += clf.log_odds_with(p, &mut buf);
            }
            black_box(sum)
        })
    });
    o.set(
        "extract.nb_us_per_page",
        secs * 1e6 / stripped.len().max(1) as f64,
    );
}

/// What one replayed epoch pass produced.
struct Pass {
    digest: [u8; 32],
    hits: usize,
    shards: usize,
    /// Bytes read back through the store (shard payloads extracted) and
    /// loaded from the extraction cache.
    extracted_bytes: u64,
    loaded_bytes: u64,
}

/// Replay `Epoch::run_extracted` at one thread: store write (cold) or
/// recovery (warm), per-shard cache load or extract + snapshot + cache
/// write, merge, coverage and graph aggregation, commit and digest.
fn epoch_pass(
    t: &mut Tracer,
    epoch: &Epoch,
    dir: &Path,
    shard_bytes: u64,
    cold: bool,
) -> Result<Pass, String> {
    let web = epoch.web();
    let catalog = epoch.catalog();
    let n_sites = web.n_sites();
    let n_entities = catalog.len();
    let render_seed = epoch.config().seed.derive("render");
    let cfg = PageConfig::default();
    let mut store = if cold {
        t.span("store.write", |_| {
            ShardStore::write(dir, web, catalog, &cfg, render_seed, shard_bytes)
        })
    } else {
        t.span("store.recover", |_| {
            ShardStore::write_resumable(dir, web, catalog, &cfg, render_seed, shard_bytes)
                .map(|(s, _)| s)
        })
    }
    .map_err(|e| e.to_string())?;
    let extractor = epoch_extractor(epoch);
    let fp = epoch.extractor_fingerprint();
    let attr = identifying_attribute(epoch.domain());
    let manifest = store.manifest().clone();
    let n_shards = manifest.shards.len();
    let fp_ok = manifest.ext.as_ref().is_some_and(|s| s.fingerprint == fp);
    let sharded = ShardedWeb::Stored(&store);

    let mut acc = ExtractedWeb::new(n_sites, n_entities);
    let mut cov = StreamingCoverage::new(n_entities, COVERAGE_MAX_K);
    let mut graph = GraphAccumulator::new(n_entities, n_sites);
    let mut entries: Vec<Option<ExtEntry>> = vec![None; n_shards];
    let mut pass = Pass {
        digest: [0; 32],
        hits: 0,
        shards: n_shards,
        extracted_bytes: 0,
        loaded_bytes: 0,
    };
    for (i, entry) in manifest.shards.iter().enumerate() {
        let sites = entry.sites.start as usize..entry.sites.end as usize;
        let cached = match manifest.ext.as_ref().and_then(|s| s.entries.get(i)) {
            Some(Some(e)) if fp_ok => {
                match t.span("extcache.load", |_| {
                    extcache::load_entry(dir, i, e, entry.sha256, fp)
                }) {
                    ExtLoad::Hit(payload) => {
                        entries[i] = Some(e.clone());
                        Some(payload)
                    }
                    _ => None,
                }
            }
            _ => None,
        };
        let payload = match cached {
            Some(p) => {
                pass.hits += 1;
                pass.loaded_bytes += p.len() as u64;
                p
            }
            None => {
                let fresh = t
                    .span("extract.shard", |_| {
                        extractor.extract_one_shard(&sharded, i, n_sites)
                    })
                    .map_err(|e| e.to_string())?;
                pass.extracted_bytes += entry.payload_len;
                let bytes = t.span("extract.snapshot", |_| {
                    fresh.shard_snapshot_bytes(sites.clone())
                });
                let e = t
                    .span("extcache.write", |_| {
                        extcache::write_entry(
                            dir,
                            i,
                            entry.sha256,
                            fp,
                            &bytes,
                            &FaultSession::clean(),
                        )
                    })
                    .map_err(|e| e.to_string())?;
                entries[i] = Some(e);
                bytes
            }
        };
        let shard_acc = t.span("merge.snapshot", |_| {
            let mut shard_acc = ExtractedWeb::new(n_sites, n_entities);
            shard_acc.merge_snapshot(&payload).map(|()| shard_acc)
        })?;
        let lists: Vec<_> = t.span("coverage.add", |_| {
            sites
                .clone()
                .map(|s| {
                    let entities = shard_acc.site_entities(s, attr);
                    cov.add_site(&entities);
                    entities
                })
                .collect()
        });
        t.span("graph.add", |_| {
            for (s, entities) in sites.clone().zip(&lists) {
                graph.add_page(SiteId::new(s as u32), entities);
            }
        });
        t.span("merge.snapshot", |_| acc.merge(shard_acc));
    }
    t.span("extcache.write", |_| {
        store.commit_extractions(fp, entries, &FaultSession::clean())
    })
    .map_err(|e| e.to_string())?;
    let coverages = t.span("coverage.add", |_| cov.coverages());
    let graph = t
        .span("graph.finish", |_| graph.finish())
        .map_err(|e| e.to_string())?;
    pass.digest = t.span("epoch.digest", |_| {
        let occurrences = acc.total_occurrences(attr);
        let mut h = Sha256::new();
        h.update(b"webstruct-epoch-output-v1\n");
        h.update(&acc.shard_snapshot_bytes(0..n_sites));
        for c in &coverages {
            h.update(&c.to_bits().to_le_bytes());
        }
        h.update(&(graph.n_edges() as u64).to_le_bytes());
        h.update(&(graph.entities_present() as u64).to_le_bytes());
        h.update(&(occurrences as u64).to_le_bytes());
        h.update(store.manifest().render().as_bytes());
        h.finalize()
    });
    Ok(pass)
}

/// The layer spans a warm epoch pass records.
const WARM_PASS_LAYERS: [&str; 10] = [
    "store.recover",
    "extcache.load",
    "extract.shard",
    "extract.snapshot",
    "extcache.write",
    "merge.snapshot",
    "coverage.add",
    "graph.add",
    "graph.finish",
    "epoch.digest",
];

/// A cold pass with store-layer counters: `/proc/self/io` around the
/// write, a read-verify sweep and a render with nothing written.
fn cold_pass_with_store_metrics(
    t: &mut Tracer,
    o: &mut Outcome,
    epoch: &Epoch,
    dir: &Path,
    shard_bytes: u64,
    keep: &mut Vec<String>,
) -> Result<Pass, String> {
    let mark = t.len();
    let (w0, s0) = proc_io();
    let pass = epoch_pass(t, epoch, dir, shard_bytes, true)?;
    let (w1, s1) = proc_io();
    let store = ShardStore::open(dir).map_err(|e| e.to_string())?;
    let payload: u64 = store.manifest().shards.iter().map(|s| s.payload_len).sum();
    o.set("store.write_s", t.total_from(mark, "store.write"));
    o.set(
        "store.wchar_per_payload_byte",
        (w1 - w0) as f64 / payload.max(1) as f64,
    );
    o.set(
        "store.syscw_per_shard",
        (s1 - s0) as f64 / pass.shards.max(1) as f64,
    );
    o.set(
        "extract.shard_mb_per_s",
        mb_per_s(pass.extracted_bytes, t.total_from(mark, "extract.shard")),
    );
    o.set("extract.snapshot_s", t.total_from(mark, "extract.snapshot"));
    o.set("extcache.write_s", t.total_from(mark, "extcache.write"));

    let sharded = ShardedWeb::Stored(&store);
    let (read, secs) = timed(|| {
        t.span("store.read_verify", |_| {
            (0..sharded.n_shards()).try_fold(0u64, |acc, i| {
                sharded.for_each_page(i, |_, _, _, _| {}).map(|b| acc + b)
            })
        })
    });
    let read = read.map_err(|e| e.to_string())?;
    o.set("store.read_verify_mb_per_s", mb_per_s(read, secs));

    let (rendered, render_s) = timed(|| {
        render_probe(
            t,
            epoch.web(),
            epoch.catalog(),
            epoch.config().seed.derive("render"),
            keep,
        )
    });
    o.set("corpus.render_mb_per_s", mb_per_s(rendered, render_s));
    o.set(
        "store.commit_s",
        t.total_from(mark, "store.write") - render_s,
    );
    Ok(pass)
}

pub fn figures(ctx: &Ctx) -> Outcome {
    one_thread();
    let mut o = Outcome::default();
    o.stamp("scale", figures_wl::SCALE);
    let config = figures_wl::config();
    let mut t = Tracer::new();

    let (reference, untraced_s) = timed(|| figures_wl::single_thread_run(&config));
    let want = figures_wl::digest(&reference);

    let (out, traced_s) = timed(|| {
        let study = Study::new(config.clone());
        let built: Vec<_> = Domain::ALL
            .iter()
            .map(|&d| t.span("corpus.generate", |_| study.domain(d)))
            .collect();
        // Render + scan + classify every domain once; the memoised
        // extraction is what the families read.
        for b in &built {
            let attr = identifying_attribute(b.domain);
            t.span("figures.extract", |_| {
                black_box(b.occurrence_lists(attr, &config).len())
            });
        }
        for site in StudySite::ALL {
            t.span("demand.simulate", |_| study.traffic(site));
        }
        let mut figures = Vec::new();
        t.span("figures.spread", |_| {
            figures.extend(spread::fig1(&study));
            figures.extend(spread::fig2(&study));
            figures.push(spread::fig3(&study));
            let (a, b) = spread::fig4(&study);
            figures.push(a);
            figures.push(b);
            figures.push(spread::fig5(&study));
        });
        t.span("figures.tail_value", |_| {
            figures.extend(tail_value::fig6(&study));
            figures.extend(tail_value::fig7(&study));
            figures.extend(tail_value::fig8(&study));
        });
        let table2 = t.span("figures.connectivity", |_| {
            figures.extend(connectivity::fig9(&study));
            connectivity::table2(&study)
        });
        webstruct_core::RunOutput {
            figures,
            tables: vec![table1(), table2],
            failures: Vec::new(),
            timings: Vec::new(),
        }
    });
    let same = figures_wl::complete(&reference) && figures_wl::digest(&out) == want;
    o.check(same, "replica figure digest equals the untraced run");
    o.set("trace.replica_match", f64::from(u8::from(same)));
    o.stamp("digest", hex(&want));
    overhead(&mut o, untraced_s, traced_s);
    for (metric, span) in [
        ("corpus.generate_s", "corpus.generate"),
        ("figures.study_s", "corpus.generate"),
        ("figures.extract_s", "figures.extract"),
        ("demand.simulate_s", "demand.simulate"),
        ("figures.spread_s", "figures.spread"),
        ("figures.tail_value_s", "figures.tail_value"),
        ("figures.connectivity_s", "figures.connectivity"),
    ] {
        o.set(metric, t.total(span));
    }

    // Scan kernels over the rendered pages of the domain with the most
    // extraction work.
    let study = webstruct_core::study::DomainStudy::generate(Domain::Restaurants, &config);
    let mut pages = Vec::new();
    let (rendered, secs) = timed(|| {
        render_probe(
            &mut t,
            &study.web,
            &study.catalog,
            config.seed.derive("render"),
            &mut pages,
        )
    });
    o.set("corpus.render_mb_per_s", mb_per_s(rendered, secs));
    kernels(&mut t, &mut o, &pages, &review_classifier(config.seed));
    write_trace(ctx, "figures", &t, &mut o);
    o
}

pub fn serve(ctx: &Ctx, swapping: bool) -> Outcome {
    let threads = ctx.threads;
    one_thread();
    let mut o = Outcome::default();
    o.stamp("scale", serve_wl::SCALE);
    let shard_bytes = webstruct_core::epoch::DEFAULT_EPOCH_SHARD_BYTES;
    o.stamp("shard_bytes", shard_bytes);
    let mut t = Tracer::new();

    // The untraced operation at one thread: the serving state built cold,
    // then one warm epoch after a 1% mutation.
    let seed = serve_wl::corpus_seed(ctx);
    o.stamp("corpus_seed", seed.0);
    let fraction = serve_wl::SWAP_FRACTION_BP as f64 / 10_000.0;
    let mutation = Seed(ctx.seed).derive("perfbench-mutate");
    let mut plain = serve_wl::new_epoch(seed);
    let plain_dir = ctx.work.join("untraced");
    let (state, cold_s) = timed(|| ServeState::from_epoch(&plain, &plain_dir, 1));
    plain.mutate(fraction, mutation);
    let (warm_ref, warm_s) = timed(|| plain.run(&plain_dir, 1));
    let (Ok(state), Ok(warm_ref)) = (state, warm_ref) else {
        o.check(false, "untraced one-thread state build and warm epoch");
        return o;
    };

    // The replica: the state build's cold epoch run, the demand studies,
    // then the warm epoch.
    let mut replica = t.span("corpus.generate", |_| serve_wl::new_epoch(seed));
    o.set("corpus.generate_s", t.total("corpus.generate"));
    let dir = ctx.work.join("traced");
    let mut pages = Vec::new();
    let (cold, traced_cold_s) = timed(|| {
        cold_pass_with_store_metrics(&mut t, &mut o, &replica, &dir, shard_bytes, &mut pages)
    });
    // The probes inside are not part of the replicated operation.
    let probe_s = t.total("store.read_verify") + t.total("corpus.render");
    let demand = t.span("demand.simulate", |_| {
        StudySite::ALL
            .iter()
            .map(|&s| {
                let config = TrafficConfig::preset(s).scaled(serve_wl::SCALE);
                TrafficStudy::simulate(&config, replica.config().seed)
            })
            .count()
    });
    o.set("demand.simulate_s", t.total("demand.simulate"));
    replica.mutate(fraction, mutation);
    let mark = t.len();
    let (warm, traced_warm_s) = timed(|| epoch_pass(&mut t, &replica, &dir, shard_bytes, false));
    match (cold, warm) {
        (Ok(cold), Ok(warm)) => {
            let same = cold.digest == state.report.output_digest
                && demand == state.traffic.len()
                && warm.digest == warm_ref.output_digest
                && warm.hits == warm_ref.cache_hits;
            o.check(
                same,
                "replica digests equal the untraced cold and warm runs",
            );
            o.set("trace.replica_match", f64::from(u8::from(same)));
            o.stamp("digest", hex(&warm.digest));
            o.set("store.recover_s", t.total_from(mark, "store.recover"));
            o.set(
                "extcache.load_mb_per_s",
                mb_per_s(warm.loaded_bytes, t.total_from(mark, "extcache.load")),
            );
            o.set(
                "extcache.hit_rate",
                warm_ref.cache_hits as f64 / warm_ref.recovery.shards_total.max(1) as f64,
            );
            for (metric, span) in [
                ("merge.snapshot_s", "merge.snapshot"),
                ("coverage.add_s", "coverage.add"),
                ("graph.add_s", "graph.add"),
                ("graph.finish_s", "graph.finish"),
                ("epoch.digest_s", "epoch.digest"),
            ] {
                o.set(metric, t.total_from(mark, span));
            }
            let attributed: f64 = WARM_PASS_LAYERS.iter().map(|s| t.total_from(mark, s)).sum();
            o.set("epoch.attributed_frac", attributed / warm_s);
        }
        (cold, warm) => {
            let err = cold.err().or(warm.err()).unwrap_or_default();
            o.check(false, &format!("replica epoch pass: {err}"));
        }
    }
    overhead(
        &mut o,
        cold_s + warm_s,
        traced_cold_s - probe_s + t.total("demand.simulate") + traced_warm_s,
    );

    // The swap path: mutate 1%, rebuild the state on the warm store,
    // pre-render the cache.
    replica.mutate(
        serve_wl::SWAP_FRACTION_BP as f64 / 10_000.0,
        Seed(ctx.seed).derive("perfbench-refresh"),
    );
    let (rebuilt, secs) = timed(|| {
        t.span("serve.state_build", |_| {
            ServeState::from_epoch(&replica, &dir, 1)
        })
    });
    o.set("serve.state_build_s", secs);
    if let Ok(rebuilt) = rebuilt {
        let (_, secs) = timed(|| t.span("serve.cache_build", |_| ResponseCache::build(&rebuilt)));
        o.set("serve.cache_build_ms", secs * 1e3);
    } else {
        o.check(false, "warm state rebuild");
    }

    let state = Arc::new(state);
    let served = webstruct_serve::ServeEpoch::new(Arc::clone(&state));
    let etag = served.etag.to_string();
    let reqs = serve_wl::plan(ctx, state.catalog.len(), &etag);
    request_path(&mut t, &mut o, &served, &reqs);
    // The live server starts from an empty entity slab, as in the
    // untraced run.
    let served = webstruct_serve::ServeEpoch::new(state);
    kernels(
        &mut t,
        &mut o,
        &pages,
        &review_classifier(replica.config().seed),
    );

    std::env::set_var(THREADS_ENV, threads.to_string());
    live_replay(ctx, &mut o, served, plain, &reqs, swapping, threads);
    write_trace(
        ctx,
        if swapping { "serve_swap" } else { "serve_hot" },
        &t,
        &mut o,
    );
    o
}

/// Time the request path's layers over the replayed requests, in
/// batches: one span per layer around a loop over every request.
fn request_path(
    t: &mut Tracer,
    o: &mut Outcome,
    served: &webstruct_serve::ServeEpoch,
    reqs: &[serve_wl::Planned],
) {
    let n = reqs.len() as f64;
    let mut heads = Vec::with_capacity(reqs.len());
    let (_, secs) = timed(|| {
        t.span("serve.parse", |_| {
            for r in reqs {
                heads.push(parse_head(&r.wire));
            }
        })
    });
    o.set("serve.parse_ns", secs * 1e9 / n);
    let paths: Vec<&str> = heads
        .iter()
        .filter_map(|h| match h {
            HeadParse::Complete(head, _) => Some(head.path),
            _ => None,
        })
        .collect();
    o.check(paths.len() == reqs.len(), "every replayed request parses");
    // Fill the entity slab first: the timed lookups are the steady state.
    for p in &paths {
        let _ = served.cache.lookup(&served.state, p);
    }
    let mut bodies = Vec::with_capacity(paths.len());
    let (_, secs) = timed(|| {
        t.span("serve.cache_lookup", |_| {
            for p in &paths {
                if let Some((cached, _)) = served.cache.lookup(&served.state, p) {
                    bodies.push((cached.status, cached.content_type, Arc::clone(&cached.body)));
                }
            }
        })
    });
    o.set("serve.cache_lookup_ns", secs * 1e9 / n);
    let mut out = Vec::with_capacity(1 << 16);
    let (_, secs) = timed(|| {
        t.span("serve.write", |_| {
            for (status, content_type, body) in &bodies {
                out.clear();
                write_response_head(
                    &mut out,
                    *status,
                    content_type,
                    body.len(),
                    Some(&served.etag),
                    true,
                );
                out.extend_from_slice(body);
                black_box(out.len());
            }
        })
    });
    o.set("serve.write_ns", secs * 1e9 / bodies.len().max(1) as f64);
    let (_, secs) = timed(|| {
        t.span("serve.route", |_| {
            for h in &heads {
                if let HeadParse::Complete(head, _) = h {
                    black_box(
                        route(&served.state, &Request::from_head(head))
                            .response
                            .body
                            .len(),
                    );
                }
            }
        })
    });
    o.set("serve.route_us", secs * 1e6 / n);
}

/// A short replay at the fixed rate against a live server, for the
/// server-side latency histogram, connection and cache counters and the
/// generator's own lateness.
fn live_replay(
    ctx: &Ctx,
    o: &mut Outcome,
    served: webstruct_serve::ServeEpoch,
    epoch: Epoch,
    reqs: &[serve_wl::Planned],
    swapping: bool,
    threads: usize,
) {
    let shared = Arc::new(SharedServing::new(served));
    let manager =
        swapping.then(|| Arc::new(EpochManager::new(epoch, ctx.work.join("untraced"), threads)));
    let config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let server =
        match Server::start_with(Arc::clone(&shared), manager.clone(), &config, "127.0.0.1:0") {
            Ok(s) => s,
            Err(e) => {
                o.check(false, &format!("bind loopback: {e}"));
                return;
            }
        };
    let swap = manager.as_ref().map(|m| serve_wl::SwapCtl {
        shared: Arc::clone(&shared),
        manager: Arc::clone(m),
        seed: Seed(ctx.seed).derive("perfbench-swap").0,
    });
    let mut conns: Vec<serve_wl::Conn> = (0..serve_wl::CLIENTS)
        .map(|_| serve_wl::Conn::new(server.local_addr()))
        .collect();
    let check = serve_wl::Check::Consistency;
    let p = serve_wl::drive(
        &mut conns,
        reqs,
        &check,
        serve_wl::FIXED_RPS,
        2.0,
        0,
        swap.as_ref(),
    );
    o.attempted += p.ok + p.failed;
    o.failed += p.failed + p.dropped;
    if let Some(m) = &manager {
        while m.swap_in_flight() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
    drop(conns);
    server.shutdown();
    let stats = server.join();
    o.check(stats.is_consistent(), "server connection accounting");
    let server_p50 = stats.latency_percentile_us(0.5) as f64;
    o.set("serve.server_p50_us", server_p50);
    o.set(
        "serve.server_p99_us",
        stats.latency_percentile_us(0.99) as f64,
    );
    let sorted = p.sorted_latency_ms();
    o.set(
        "serve.transport_us",
        percentile(&sorted, 0.5).unwrap_or(0.0) * 1e3 - server_p50,
    );
    let lookups = stats.cache_hits + stats.cache_misses + stats.cache_revalidations;
    o.set(
        "serve.cache_hit_rate",
        (lookups - stats.cache_misses) as f64 / lookups.max(1) as f64,
    );
    o.set(
        "serve.conns_per_kreq",
        stats.accepted as f64 * 1e3 / stats.requests.max(1) as f64,
    );
    let mut late = p.late_ns.clone();
    late.sort_unstable();
    o.set(
        "gen.late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0) as f64 / 1e6,
    );
    o.stamp("swaps", p.swaps.len());
}
