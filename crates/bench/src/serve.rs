//! Serving-layer bench: replay the simulated search/browse population
//! over real sockets and record throughput, latency percentiles and the
//! response-cache speedup into `BENCH_serve.json`.
//!
//! One warm [`ServeState`] is built up front and shared by a sweep of
//! server worker counts; each sweep step replays the identical seed-pure
//! [`RequestPlan`] twice — once with the hot-path cache disabled (the
//! full-router baseline) and once with it enabled — and folds every
//! response into an order-independent digest. The numbers
//! `bench_gate.sh` reads:
//!
//! * `rps_t{n}` — uncached requests-per-second at `n` server workers,
//!   floor-gated per thread count against the baseline;
//! * `rps` / `rps_cached` — best uncached / cached rps across the sweep;
//! * `min_cached_ratio` — the *worst* cached-over-uncached speedup across
//!   the sweep (floor-gated: the cache must pay for itself at every
//!   worker count, not just the headline one);
//! * `p99_latency_ms` — 99th-percentile latency of the best uncached
//!   step (ceiling-gated);
//! * `allocs_per_request_cached` — steady-state allocator calls per
//!   request measured over a window of cache hits (ceiling-gated:
//!   a hit must not touch the heap);
//! * `rps_swap` — throughput of a cached replay with an epoch hot-swap
//!   triggered mid-stream (recorded, not gated — the interesting claim
//!   is that it completes with consistent accounting);
//! * `byte_identical` — whether every sweep step produced the same
//!   response digest with zero transport errors, per mode;
//! * `cached_digest_identical` — whether the cached and uncached replays
//!   produced the *same* digest at every worker count. A `false` in
//!   either digest field is a determinism violation and fails the gate
//!   in any mode.

use crate::alloc::count_allocs;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webstruct_core::epoch::Epoch;
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::Domain;
use webstruct_demand::model::{StudySite, TrafficConfig};
use webstruct_demand::traffic::RequestPlan;
use webstruct_serve::{
    fetch, replay, EpochManager, ReplayOptions, ReplayReport, ServeConfig, ServeEpoch, ServeState,
    Server, SharedServing,
};
use webstruct_util::TempDir;

/// Fraction of replayed events that send their cached validator
/// (`If-None-Match`) — enough conditional traffic to exercise the 304
/// path in both modes without dominating the stream.
const REVALIDATE_FRAC: f64 = 0.02;

/// Cache-hit requests measured inside the allocation-counting window.
const ALLOC_WINDOW: u64 = 256;

/// One sweep step: cached and uncached replays against servers at one
/// worker count.
#[derive(Debug, Clone)]
pub struct ServeMeasurement {
    /// Worker threads the servers ran with.
    pub server_threads: usize,
    /// Requests per second with the response cache enabled.
    pub rps: f64,
    /// Requests per second with the cache disabled (full router).
    pub rps_uncached: f64,
    /// Median latency of the cached replay, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency of the cached replay, milliseconds.
    pub p99_ms: f64,
    /// Mean latency of the cached replay, milliseconds.
    pub mean_ms: f64,
    /// p99 latency of the uncached replay, milliseconds.
    pub p99_uncached_ms: f64,
    /// 2xx/304 responses (cached replay).
    pub ok: u64,
    /// 4xx/5xx responses (cached replay).
    pub rejected: u64,
    /// Transport failures across both replays.
    pub errors: u64,
    /// Order-independent response digest of the cached replay (hex).
    pub digest: String,
    /// Order-independent response digest of the uncached replay (hex).
    pub digest_uncached: String,
    /// Cache hit rate of the cached replay: `hits / (hits + misses +
    /// revalidations)`, from the server's own counters.
    pub cache_hit_rate: f64,
}

/// Everything `BENCH_serve.json` records.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// Corpus scale the serving state was built at.
    pub scale: f64,
    /// Requests per replay.
    pub requests: u64,
    /// Concurrent replay clients.
    pub clients: usize,
    /// Entities in the served catalog.
    pub entities: usize,
    /// Sites in the served corpus.
    pub sites: usize,
    /// `available_parallelism` of the machine the bench ran on — gate
    /// baselines are only comparable at matching worker counts, so the
    /// gate records this next to its verdicts.
    pub hardware_threads: usize,
    /// One measurement per swept server worker count.
    pub measurements: Vec<ServeMeasurement>,
    /// Best *uncached* requests-per-second across the sweep (the
    /// floor-gated headline, comparable across bench versions).
    pub rps: f64,
    /// Best *cached* requests-per-second across the sweep.
    pub rps_cached: f64,
    /// Cache hit rate of the best cached step.
    pub cache_hit_rate: f64,
    /// Worst cached/uncached rps ratio across the sweep (floor-gated).
    pub min_cached_ratio: f64,
    /// p99 latency of the best-uncached-rps step (ceiling-gated).
    pub p99_latency_ms: f64,
    /// Allocator calls per request over a steady-state window of cache
    /// hits on a keep-alive connection.
    pub allocs_per_request_cached: f64,
    /// Throughput of a cached replay with a hot-swap mid-stream.
    pub rps_swap: f64,
    /// Whether every step produced the same response digest with zero
    /// transport errors, within each mode (hard-gated).
    pub byte_identical: bool,
    /// Whether cached and uncached digests agreed at every worker count
    /// (hard-gated in any mode).
    pub cached_digest_identical: bool,
}

impl ServeBenchReport {
    /// Render the report as a stable, hand-rolled JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"scale\": {},\n", self.scale));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"entities\": {},\n", self.entities));
        out.push_str(&format!("  \"sites\": {},\n", self.sites));
        out.push_str(&format!(
            "  \"hardware_threads\": {},\n",
            self.hardware_threads
        ));
        out.push_str("  \"measurements\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"server_threads\": {}, \"rps\": {:.1}, \"rps_uncached\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"mean_ms\": {:.3}, \
                 \"p99_uncached_ms\": {:.3}, \"ok\": {}, \"rejected\": {}, \"errors\": {}, \
                 \"cache_hit_rate\": {:.4}, \"digest\": \"{}\", \"digest_uncached\": \"{}\"}}{}\n",
                m.server_threads,
                m.rps,
                m.rps_uncached,
                m.p50_ms,
                m.p99_ms,
                m.mean_ms,
                m.p99_uncached_ms,
                m.ok,
                m.rejected,
                m.errors,
                m.cache_hit_rate,
                m.digest,
                m.digest_uncached,
                if i + 1 < self.measurements.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        // Flat per-thread uncached rps keys for the gate's grep-based
        // JSON reader (one line per swept worker count).
        for m in &self.measurements {
            out.push_str(&format!(
                "  \"rps_t{}\": {:.1},\n",
                m.server_threads, m.rps_uncached
            ));
        }
        out.push_str(&format!("  \"rps\": {:.1},\n", self.rps));
        out.push_str(&format!("  \"rps_cached\": {:.1},\n", self.rps_cached));
        out.push_str(&format!(
            "  \"cache_hit_rate\": {:.4},\n",
            self.cache_hit_rate
        ));
        out.push_str(&format!(
            "  \"min_cached_ratio\": {:.3},\n",
            self.min_cached_ratio
        ));
        out.push_str(&format!(
            "  \"p99_latency_ms\": {:.3},\n",
            self.p99_latency_ms
        ));
        out.push_str(&format!(
            "  \"allocs_per_request_cached\": {:.4},\n",
            self.allocs_per_request_cached
        ));
        out.push_str(&format!("  \"rps_swap\": {:.1},\n", self.rps_swap));
        out.push_str(&format!(
            "  \"byte_identical\": {},\n",
            self.byte_identical
        ));
        out.push_str(&format!(
            "  \"cached_digest_identical\": {}\n}}\n",
            self.cached_digest_identical
        ));
        out
    }
}

/// Start a server over `state` at `threads` workers with the cache on or
/// off, replay `plan` (one warmup pass, one measured pass), shut down and
/// return the measured report plus the joined stats.
fn replay_once(
    state: &Arc<ServeState>,
    threads: usize,
    cache: bool,
    plan: &RequestPlan,
    opts: &ReplayOptions,
) -> (ReplayReport, webstruct_serve::ServeStats) {
    let server = Server::start(
        Arc::clone(state),
        &ServeConfig {
            threads,
            cache,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    // One warmup pass primes connection state, the page cache and (when
    // enabled) the entity slab; the measured pass replays the identical
    // plan against steady state.
    let _ = replay(addr, plan, opts);
    let report = replay(addr, plan, opts);
    fetch(addr, "POST", "/shutdown").expect("shutdown request");
    let stats = server.join();
    assert!(stats.is_consistent(), "serve stats inconsistent: {stats:?}");
    (report, stats)
}

/// Read exactly one HTTP response off `stream` into `scratch`, returning
/// its total wire length (head + body). Warmup-only: allocates freely.
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
            while scratch.len() < total {
                let n = stream.read(&mut chunk).expect("read response body");
                assert!(n > 0, "connection closed mid-body");
                scratch.extend_from_slice(&chunk[..n]);
            }
            assert_eq!(scratch.len(), total, "over-read past one response");
            return total;
        }
        let n = stream.read(&mut chunk).expect("read response head");
        assert!(n > 0, "connection closed before response head");
        scratch.extend_from_slice(&chunk[..n]);
    }
}

/// Measure steady-state allocator calls per request over a window of
/// cache hits: a keep-alive connection cycles pre-rendered targets whose
/// exact response lengths were learned during warmup, so the client does
/// zero heap work inside the counted window and every allocation charged
/// to it is the server's.
///
/// Only meaningful in binaries that installed
/// [`CountingAlloc`](crate::alloc::CountingAlloc); elsewhere it reports
/// `0.0` (the counters stay flat).
fn measure_allocs_per_request(addr: SocketAddr) -> f64 {
    let targets = ["/sites", "/coverage", "/coverage.csv", "/entity/1", "/entity/7"];
    let requests: Vec<Vec<u8>> = targets
        .iter()
        .map(|t| format!("GET {t} HTTP/1.1\r\n\r\n").into_bytes())
        .collect();
    let mut stream = TcpStream::connect(addr).expect("connect for alloc window");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.set_nodelay(true).expect("set nodelay");
    // Warmup: learn every target's exact wire length (and fill the
    // entity-slab cells) so the measured loop reads fixed byte counts.
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
    let mut buf = vec![0u8; lens.iter().copied().max().unwrap_or(0).max(4096)];
    let ((), delta) = count_allocs(|| {
        for i in 0..ALLOC_WINDOW as usize {
            let k = i % requests.len();
            stream.write_all(&requests[k]).expect("measured write");
            let mut got = 0;
            while got < lens[k] {
                let n = stream.read(&mut buf[got..lens[k]]).expect("measured read");
                assert!(n > 0, "connection closed in measured window");
                got += n;
            }
        }
    });
    #[allow(clippy::cast_precision_loss)]
    let per_request = delta.calls as f64 / ALLOC_WINDOW as f64;
    per_request
}

/// Run the serving bench: build state once, then for each worker count
/// in `thread_counts` replay `requests` requests with `clients`
/// concurrent connections against an uncached and a cached server;
/// finish with an allocation window over cache hits and a cached replay
/// with an epoch hot-swap triggered mid-stream.
///
/// # Panics
/// Panics if the state build, server bind or shutdown request fails —
/// the bench runs on a loopback socket and a clean temp directory, so a
/// failure is a serving-layer bug, not an environment issue.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn run_serve_bench(
    scale: f64,
    requests: u64,
    clients: usize,
    thread_counts: &[usize],
) -> ServeBenchReport {
    let dir = TempDir::new("bench-serve");
    let config = StudyConfig::default().with_scale(scale);
    let seed = config.seed;
    let epoch = Epoch::new(Domain::Restaurants, config);
    let state = Arc::new(
        ServeState::from_epoch(&epoch, &dir, 2).expect("serve state builds on a clean temp dir"),
    );
    let plan = RequestPlan::new(
        &TrafficConfig::preset(StudySite::Amazon).scaled(scale),
        state.catalog.len(),
        seed,
    )
    .with_revalidate_frac(REVALIDATE_FRAC);
    let opts = ReplayOptions { clients, requests };

    let mut measurements = Vec::new();
    for &threads in thread_counts {
        let (uncached, _) = replay_once(&state, threads, false, &plan, &opts);
        let (cached, stats) = replay_once(&state, threads, true, &plan, &opts);
        let lookups = stats.cache_hits + stats.cache_misses + stats.cache_revalidations;
        #[allow(clippy::cast_precision_loss)]
        let cache_hit_rate = if lookups == 0 {
            0.0
        } else {
            stats.cache_hits as f64 / lookups as f64
        };
        measurements.push(ServeMeasurement {
            server_threads: threads,
            rps: cached.rps,
            rps_uncached: uncached.rps,
            p50_ms: cached.p50_ms,
            p99_ms: cached.p99_ms,
            mean_ms: cached.mean_ms,
            p99_uncached_ms: uncached.p99_ms,
            ok: cached.ok,
            rejected: cached.rejected,
            errors: cached.errors + uncached.errors,
            digest: cached.digest,
            digest_uncached: uncached.digest,
            cache_hit_rate,
        });
    }

    // Steady-state allocation window over cache hits: a dedicated
    // single-worker cached server so nothing else touches the heap while
    // the window is open.
    let alloc_server = Server::start(
        Arc::clone(&state),
        &ServeConfig {
            threads: 1,
            max_requests_per_conn: 1_000_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind alloc-window server");
    let allocs_per_request_cached = measure_allocs_per_request(alloc_server.local_addr());
    fetch(alloc_server.local_addr(), "POST", "/shutdown").expect("shutdown request");
    let alloc_stats = alloc_server.join();
    assert!(alloc_stats.is_consistent(), "alloc-window stats inconsistent");

    // Hot-swap run: cached server with a live EpochManager; a trigger
    // thread fires POST /admin/epoch once the replay is underway, so the
    // measured stream straddles the publish.
    let swap_threads = thread_counts.iter().copied().max().unwrap_or(1);
    let shared = Arc::new(SharedServing::new(ServeEpoch::new(Arc::clone(&state))));
    let manager = Arc::new(EpochManager::new(epoch, dir.to_path_buf(), swap_threads));
    let swap_server = Server::start_with(
        Arc::clone(&shared),
        Some(manager),
        &ServeConfig {
            threads: swap_threads,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind hot-swap server");
    let swap_addr = swap_server.local_addr();
    let trigger = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(30));
        fetch(swap_addr, "POST", "/admin/epoch?fraction_bp=100&seed=7").expect("trigger swap")
    });
    let t0 = Instant::now();
    let swap_report = replay(swap_addr, &plan, &opts);
    let trigger_resp = trigger.join().expect("trigger thread");
    assert!(
        trigger_resp.status == 200 || trigger_resp.status == 409,
        "unexpected swap-trigger status {}",
        trigger_resp.status
    );
    // Wait out any still-running rebuild so join() observes the final
    // swap count.
    while t0.elapsed() < Duration::from_secs(30) {
        let s = swap_server.stats();
        if s.cache_swaps > 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    fetch(swap_addr, "POST", "/shutdown").expect("shutdown request");
    let swap_stats = swap_server.join();
    assert!(
        swap_stats.is_consistent(),
        "hot-swap stats inconsistent: {swap_stats:?}"
    );

    let best_uncached = measurements
        .iter()
        .max_by(|a, b| a.rps_uncached.total_cmp(&b.rps_uncached))
        .expect("at least one sweep step");
    let best_cached = measurements
        .iter()
        .max_by(|a, b| a.rps.total_cmp(&b.rps))
        .expect("at least one sweep step");
    let byte_identical = measurements.iter().all(|m| {
        m.digest == measurements[0].digest
            && m.digest_uncached == measurements[0].digest_uncached
            && m.errors == 0
    });
    let cached_digest_identical = measurements.iter().all(|m| m.digest == m.digest_uncached);
    let min_cached_ratio = measurements
        .iter()
        .map(|m| {
            if m.rps_uncached > 0.0 {
                m.rps / m.rps_uncached
            } else {
                0.0
            }
        })
        .fold(f64::INFINITY, f64::min);
    ServeBenchReport {
        scale,
        requests,
        clients,
        entities: state.catalog.len(),
        sites: state.n_sites(),
        hardware_threads: crate::hardware_threads(),
        rps: best_uncached.rps_uncached,
        rps_cached: best_cached.rps,
        cache_hit_rate: best_cached.cache_hit_rate,
        min_cached_ratio,
        p99_latency_ms: best_uncached.p99_uncached_ms,
        allocs_per_request_cached,
        rps_swap: swap_report.rps,
        byte_identical,
        cached_digest_identical,
        measurements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_bench_runs_at_tiny_scale() {
        let report = run_serve_bench(0.01, 120, 2, &[1, 2]);
        assert_eq!(report.measurements.len(), 2);
        assert!(report.byte_identical, "{report:?}");
        assert!(report.cached_digest_identical, "{report:?}");
        assert!(report.rps > 0.0);
        assert!(report.rps_cached > 0.0);
        assert!(report.rps_swap > 0.0);
        assert!(report.min_cached_ratio > 0.0);
        assert!(
            report.cache_hit_rate > 0.5,
            "hot traffic should mostly hit: {report:?}"
        );
        let json = report.to_json();
        assert!(json.contains("\"byte_identical\": true"));
        assert!(json.contains("\"cached_digest_identical\": true"));
        assert!(json.contains("\"server_threads\": 2"));
        assert!(json.contains("\"rps_t1\":"));
        assert!(json.contains("\"hardware_threads\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
