//! The serving layer's contract, locked down over real sockets:
//!
//! * every endpoint's `(status, content-type, body)` is byte-identical
//!   across `WEBSTRUCT_THREADS ∈ {1, 2, 8}` — worker count changes
//!   scheduling, never bytes;
//! * a fixed endpoint sweep's combined digest is pinned in
//!   `tests/SERVE.sha256` (re-bless with `scripts/bless.sh` after an
//!   intentional output change);
//! * the HTTP/1.1 parser maps every adversarial input — torn reads, bad
//!   methods/versions, oversized heads, bodies, pipelining — onto its
//!   exact error-taxonomy variant, never a panic;
//! * a chaotic client population (driven by `webstruct_util::fault`)
//!   cannot break the connection-accounting invariant: after drain,
//!   every accepted connection is in exactly one `closed_*` bucket;
//! * replaying the same seed-pure `RequestPlan` against servers at
//!   different thread counts produces the same order-independent
//!   response digest;
//! * the hot-path response cache serves the router's exact bytes (the
//!   endpoint sweep is identical with the cache on and off);
//! * `ETag`/`If-None-Match` revalidation draws a 304 on a match, a full
//!   200 on a stale or malformed validator, in both cache modes;
//! * a live epoch hot-swap partitions responses cleanly: every response
//!   matches a cold server pinned at the epoch its `ETag` names, at any
//!   worker count, with a chaos client hammering through the window.
//!
//! Tests that publish metrics or mutate `WEBSTRUCT_THREADS` serialise
//! through the same process-wide env lock as `tests/determinism.rs`.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Duration;
use webstruct::core::epoch::Epoch;
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::Domain;
use webstruct::demand::model::{StudySite, TrafficConfig};
use webstruct::demand::traffic::RequestPlan;
use webstruct::serve::{
    fetch, fetch_with, replay, Connection, EpochManager, ReplayOptions, ServeConfig, ServeEpoch,
    ServeState, Server, SharedServing,
};
use webstruct::util::fault::{Fault, FaultConfig, FaultPlan};
use webstruct::util::obs;
use webstruct::util::rng::Seed;
use webstruct::util::sha::{hex, Sha256};
use webstruct::util::TempDir;

fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    // A panic under the lock (one failing test) must not cascade into
    // poison panics in every other serialised test.
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Run `f` with `WEBSTRUCT_THREADS` pinned to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    let _guard = env_lock();
    std::env::set_var(webstruct::util::par::THREADS_ENV, threads.to_string());
    let out = f();
    std::env::remove_var(webstruct::util::par::THREADS_ENV);
    out
}

/// The fixture config every serving test builds state at: small corpus,
/// fixed seed, so state builds in well under a second and every run is
/// bit-reproducible.
fn fixture_config() -> StudyConfig {
    StudyConfig::quick().with_scale(0.02)
}

/// Build fresh (cold-store) serving state in its own temp directory.
fn fixture_state(tag: &str, threads: usize) -> Arc<ServeState> {
    let dir = TempDir::new(&format!("serve-test-{tag}"));
    let state = ServeState::build(Domain::Restaurants, fixture_config(), &dir, threads)
        .expect("serve state builds");
    Arc::new(state)
}

/// Stop `server` via its own control endpoint and return drained stats.
fn stop(server: Server) -> webstruct::serve::ServeStats {
    let addr = server.local_addr();
    let resp = fetch(addr, "POST", "/shutdown").expect("shutdown request");
    assert_eq!(resp.status, 200);
    server.join()
}

/// The endpoint sweep every determinism/golden test walks, with the
/// status each target must answer — 2xx data paths and each arm of the
/// router's error taxonomy.
const SWEEP: &[(&str, u16)] = &[
    ("/", 200),
    ("/entity/0", 200),
    ("/entity/3", 200),
    ("/entity/banana", 400),
    ("/entity/999999999", 404),
    ("/entity?phone=xyz", 400),
    ("/sites", 200),
    ("/site/0", 200),
    ("/site/999999999", 404),
    ("/coverage", 200),
    ("/coverage.csv", 200),
    ("/demand/yelp/search.csv", 200),
    ("/demand/yelp/browse.csv", 200),
    ("/demand/imdb/search.csv", 200),
    ("/demand/amazon/browse.csv", 200),
    ("/demand/nosuch/search.csv", 404),
    ("/figures", 200),
    ("/figure/serve-coverage.csv", 200),
    ("/figure/nope.csv", 404),
    ("/nothing/here", 404),
    ("/shutdown", 405),    // GET to the POST-only control endpoint
    ("/admin/epoch", 405), // GET to the POST-only hot-swap endpoint
];

/// Fetch every sweep target over one keep-alive connection and return
/// one digest line per target: `target status content-type sha256(body)`.
fn sweep_digests(addr: SocketAddr) -> Vec<String> {
    let mut conn = Connection::new(addr);
    SWEEP
        .iter()
        .map(|&(target, want)| {
            let resp = conn.get(target).expect("sweep request");
            assert_eq!(resp.status, want, "{target}");
            let mut h = Sha256::new();
            h.update(&resp.body);
            let hex = hex(&h.finalize());
            format!("{target} {} {} {hex}", resp.status, resp.content_type)
        })
        .collect()
}

#[test]
fn endpoints_are_byte_identical_across_thread_counts() {
    // Build-and-serve at each WEBSTRUCT_THREADS — the operator knob
    // drives both the extraction pipeline and the default worker count —
    // and require identical response digests for the whole sweep.
    let run_at = |threads: usize| {
        with_threads(threads, || {
            let state = fixture_state(&format!("sweep-t{threads}"), threads);
            let server = Server::start(state, &ServeConfig::default(), "127.0.0.1:0")
                .expect("server binds");
            let digests = sweep_digests(server.local_addr());
            let stats = stop(server);
            assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
            digests
        })
    };
    let baseline = run_at(1);
    for threads in [2usize, 8] {
        let digests = run_at(threads);
        assert_eq!(
            digests, baseline,
            "endpoint bytes diverged at {threads} threads"
        );
    }
}

#[test]
fn serve_golden_digest_matches_blessed() {
    // The combined sweep digest of the fixed fixture, pinned on disk:
    // any change to a served byte anywhere in the resource tree must be
    // an intentional, blessed change.
    let lines = with_threads(2, || {
        let state = fixture_state("golden", 2);
        let server =
            Server::start(state, &ServeConfig::default(), "127.0.0.1:0").expect("server binds");
        let lines = sweep_digests(server.local_addr());
        let stats = stop(server);
        assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
        lines
    });
    let mut h = Sha256::new();
    for line in &lines {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    let hex = hex(&h.finalize());

    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/SERVE.sha256");
    if std::env::var("WEBSTRUCT_BLESS").is_ok() {
        std::fs::write(&golden_path, format!("{hex}\n")).expect("bless serve golden");
        return;
    }
    let blessed = std::fs::read_to_string(&golden_path)
        .expect("tests/SERVE.sha256 missing — run scripts/bless.sh");
    assert_eq!(
        blessed.trim(),
        hex,
        "served bytes changed; if intentional, re-bless with scripts/bless.sh\nsweep:\n{}",
        lines.join("\n")
    );
}

#[test]
fn metrics_tail_is_identical_across_thread_counts() {
    // `/metrics` serves the RUN_REPORT shape: spans and gauges are
    // wall-clock and legitimately vary, but the final `"metrics"` key —
    // counters and histograms — is the deterministic tail, and must not
    // depend on the worker count. One keep-alive connection issues a
    // fixed request sequence so the `serve.*` counters at publish time
    // are a pure function of the stream.
    let tail_at = |threads: usize| {
        with_threads(threads, || {
            let state = fixture_state(&format!("metrics-t{threads}"), threads);
            obs::metrics().reset();
            let server = Server::start(state, &ServeConfig::default(), "127.0.0.1:0")
                .expect("server binds");
            let mut conn = Connection::new(server.local_addr());
            for target in ["/", "/coverage", "/entity/1"] {
                assert_eq!(conn.get(target).expect("warmup request").status, 200);
            }
            let resp = conn.get("/metrics").expect("metrics request");
            assert_eq!(resp.status, 200);
            drop(conn);
            let body = resp.text();
            // The hit-rate gauge lives with the other gauges (wall-clock
            // section, excluded from the deterministic tail) but must be
            // present in every publish.
            assert!(
                body.contains("serve.cache.hit_rate_bp"),
                "hit-rate gauge missing: {body}"
            );
            let tail_pos = body.rfind("\"metrics\":").expect("metrics key present");
            let tail = body[tail_pos..].to_string();
            let stats = stop(server);
            assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
            tail
        })
    };
    let baseline = tail_at(1);
    assert!(baseline.contains("serve.requests"), "tail: {baseline}");
    assert!(baseline.contains("serve.accepted"), "tail: {baseline}");
    assert!(baseline.contains("serve.cache.hits"), "tail: {baseline}");
    assert!(baseline.contains("serve.cache.misses"), "tail: {baseline}");
    assert!(
        baseline.contains("serve.cache.revalidations"),
        "tail: {baseline}"
    );
    assert!(baseline.contains("serve.cache.swaps"), "tail: {baseline}");
    for threads in [2usize, 8] {
        assert_eq!(
            tail_at(threads),
            baseline,
            "metrics tail diverged at {threads} threads"
        );
    }
}

/// Write `head` on a fresh socket and read until EOF; the server closes
/// after an error response, so this captures the full wire reply.
fn raw_roundtrip(addr: SocketAddr, head: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // The server may answer (and close) before the full head is written
    // — e.g. the oversized-head rejection — so a write error is fine.
    let _ = s.write_all(head);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn adversarial_inputs_map_to_exact_taxonomy() {
    let _guard = env_lock();
    let state = fixture_state("adversarial", 2);
    let config = ServeConfig {
        threads: 2,
        read_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    };
    let server = Server::start(state, &config, "127.0.0.1:0").expect("server binds");
    let addr = server.local_addr();

    // Each malformed head must draw its exact taxonomy arm — status and
    // machine-readable slug — and the server must keep running.
    let reply = raw_roundtrip(addr, b"FROB / HTTP/1.1\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 405 "), "reply: {reply}");
    assert!(reply.contains("method_unsupported"), "reply: {reply}");

    let reply = raw_roundtrip(addr, b"GET / HTTP/9.9\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 505 "), "reply: {reply}");
    assert!(reply.contains("version_unsupported"), "reply: {reply}");

    let huge = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(64 * 1024));
    let reply = raw_roundtrip(addr, huge.as_bytes());
    assert!(reply.starts_with("HTTP/1.1 431 "), "reply: {reply}");
    assert!(reply.contains("head_too_large"), "reply: {reply}");

    let reply = raw_roundtrip(addr, b"complete garbage\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400 "), "reply: {reply}");
    assert!(reply.contains("bad_request_line"), "reply: {reply}");

    let reply = raw_roundtrip(addr, b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
    assert!(reply.starts_with("HTTP/1.1 413 "), "reply: {reply}");
    assert!(reply.contains("body_unsupported"), "reply: {reply}");

    let reply = raw_roundtrip(addr, b"GET / HTTP/1.1\r\nBad Header Name: x\r\n\r\n");
    assert!(reply.starts_with("HTTP/1.1 400 "), "reply: {reply}");
    assert!(reply.contains("bad_header"), "reply: {reply}");

    // Two pipelined requests in one write must draw two responses.
    let reply = raw_roundtrip(
        addr,
        b"GET /sites HTTP/1.1\r\n\r\nGET /coverage HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(
        reply.matches("HTTP/1.1 200 ").count(),
        2,
        "pipelined reply: {reply}"
    );

    // A request torn at every byte boundary must still parse to 200.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_nodelay(true).unwrap();
        for &b in b"GET /sites HTTP/1.1\r\nConnection: close\r\n\r\n".iter() {
            s.write_all(&[b]).expect("torn write");
            s.flush().expect("flush");
        }
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let reply = String::from_utf8_lossy(&out);
        assert!(reply.starts_with("HTTP/1.1 200 "), "torn reply: {reply}");
    }

    let stats = stop(server);
    assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
    assert_eq!(stats.parse_errors, 6, "one per malformed head: {stats:?}");
    assert_eq!(stats.requests, 4, "sites+coverage+torn+shutdown: {stats:?}");
}

#[test]
fn chaotic_clients_cannot_break_the_accounting_invariant() {
    // Drive a fault-plan-scripted population of misbehaving clients at
    // the server — slow-loris stalls, truncated heads, mid-response
    // disconnects, connect-and-vanish — and require that the pool
    // recovers (a clean request still answers) and that the final stats
    // account for every accepted connection exactly once.
    let _guard = env_lock();
    let state = fixture_state("chaos", 2);
    let config = ServeConfig {
        threads: 2,
        read_timeout: Duration::from_millis(150),
        ..ServeConfig::default()
    };
    let server = Server::start(state, &config, "127.0.0.1:0").expect("server binds");
    let addr = server.local_addr();

    let plan = FaultPlan::new(FaultConfig::flaky(0.6), Seed::DEFAULT.derive("serve-chaos"));
    let mut attempted = 0u64; // connections we actually opened
    let mut stalled = 0u64; // slow-loris clients (must close as timeout)
    let mut truncated = 0u64; // mid-head FINs (must close as error)
    let mut chaos_round = |fault: Option<Fault>| match fault {
        None => {
            let resp = fetch(addr, "GET", "/coverage").expect("clean request");
            assert_eq!(resp.status, 200);
            attempted += 1;
        }
        Some(Fault::Transient) => {
            // Connect and vanish without a byte: an idle EOF, clean close.
            let s = TcpStream::connect(addr).expect("connect");
            drop(s);
            attempted += 1;
        }
        Some(Fault::Timeout) => {
            // Slow loris: a partial head, then silence past the read
            // deadline.
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /cover").expect("partial write");
            std::thread::sleep(Duration::from_millis(250));
            drop(s);
            attempted += 1;
            stalled += 1;
        }
        Some(Fault::Truncated(_)) => {
            // A clean FIN mid-head: the request can never complete.
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /sites HT").expect("partial write");
            drop(s);
            // Give the worker time to observe the EOF before the next
            // chaos round competes for the 2-worker pool.
            std::thread::sleep(Duration::from_millis(30));
            attempted += 1;
            truncated += 1;
        }
        Some(Fault::RateLimited) => {
            // Mid-response disconnect: send a real request, read a few
            // bytes of the reply, hang up.
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(b"GET /coverage.csv HTTP/1.1\r\nConnection: close\r\n\r\n")
                .expect("write");
            let mut first = [0u8; 16];
            let _ = s.read(&mut first);
            drop(s);
            attempted += 1;
        }
        Some(Fault::Dead) => {} // this client never connects
    };
    // One deterministic instance of each behaviour, then the seeded mix.
    chaos_round(Some(Fault::Timeout));
    chaos_round(Some(Fault::Truncated(0.5)));
    for i in 0..24usize {
        chaos_round(plan.fault(i, 0));
    }

    // Pool recovery: after all that, a well-formed request still answers.
    let resp = fetch(addr, "GET", "/sites").expect("post-chaos request");
    assert_eq!(resp.status, 200);
    attempted += 1;

    let stats = stop(server);
    attempted += 1; // the shutdown POST's own connection
    assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
    assert_eq!(stats.accepted, attempted, "{stats:?}");
    assert!(
        stats.closed_timeout >= stalled.min(1),
        "slow-loris clients must land in closed_timeout: {stats:?}"
    );
    assert!(
        stats.closed_error >= truncated.min(1),
        "truncated heads must land in closed_error: {stats:?}"
    );
}

#[test]
fn replay_digest_is_identical_across_server_thread_counts() {
    // The end-to-end determinism check: the same seed-pure request plan,
    // replayed over real sockets against servers running 1 vs 4 workers,
    // must fold to the same order-independent response digest — and a
    // second replay against the same server must reproduce it too.
    let _guard = env_lock();
    let config = fixture_config();
    let plan_config = TrafficConfig::preset(StudySite::Amazon).scaled(config.scale);
    let opts = ReplayOptions {
        clients: 3,
        requests: 400,
    };

    let run_at = |server_threads: usize, tag: &str, twice: bool| {
        let state = fixture_state(tag, 2);
        let plan = RequestPlan::new(&plan_config, state.catalog.len(), config.seed);
        let server = Server::start(
            state,
            &ServeConfig {
                threads: server_threads,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("server binds");
        let report = replay(server.local_addr(), &plan, &opts);
        assert_eq!(report.errors, 0, "transport errors: {report:?}");
        assert_eq!(report.ok + report.rejected, 400);
        if twice {
            let again = replay(server.local_addr(), &plan, &opts);
            assert_eq!(again.digest, report.digest, "replay must reproduce itself");
        }
        let stats = stop(server);
        assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
        report
    };

    let t1 = run_at(1, "replay-t1", true);
    let t4 = run_at(4, "replay-t4", false);
    assert_eq!(
        t1.digest, t4.digest,
        "replay digest diverged across server thread counts"
    );
    assert!(t1.ok > 0, "the plan must include servable requests");
}

#[test]
fn sweep_bytes_identical_with_cache_on_and_off() {
    // The hot-path cache's core promise: a hit serves the router's exact
    // bytes. The full endpoint sweep — data paths and error arms — must
    // digest identically with the cache enabled and disabled.
    let _guard = env_lock();
    let run = |cache: bool, tag: &str| {
        let state = fixture_state(tag, 2);
        let server = Server::start(
            state,
            &ServeConfig {
                threads: 2,
                cache,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("server binds");
        let digests = sweep_digests(server.local_addr());
        let stats = stop(server);
        assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
        if cache {
            assert!(stats.cache_hits > 0, "sweep should hit the cache: {stats:?}");
        } else {
            assert_eq!(stats.cache_hits, 0, "cache disabled must not hit: {stats:?}");
        }
        digests
    };
    assert_eq!(
        run(true, "sweep-cached"),
        run(false, "sweep-uncached"),
        "cached bytes diverged from the router's"
    );
}

#[test]
fn etag_revalidation_over_real_sockets() {
    // ETag/If-None-Match semantics, in both cache modes (the 304 layer
    // is server-level, independent of the response cache): a matching
    // validator draws an empty-body 304 carrying the same tag; list and
    // wildcard forms match; a malformed or stale validator is a miss and
    // draws the full 200; error responses carry no validator.
    let _guard = env_lock();
    for cache in [true, false] {
        let state = fixture_state(&format!("etag-cache-{cache}"), 2);
        let server = Server::start(
            state,
            &ServeConfig {
                threads: 2,
                cache,
                ..ServeConfig::default()
            },
            "127.0.0.1:0",
        )
        .expect("server binds");
        let addr = server.local_addr();

        let first = fetch(addr, "GET", "/coverage").expect("first fetch");
        assert_eq!(first.status, 200);
        assert!(
            first.etag.starts_with('"') && first.etag.ends_with('"'),
            "etag must be a quoted validator: {:?}",
            first.etag
        );
        assert!(!first.body.is_empty());

        let not_modified =
            fetch_with(addr, "GET", "/coverage", Some(&first.etag)).expect("conditional fetch");
        assert_eq!(not_modified.status, 304, "matching validator → 304");
        assert!(not_modified.body.is_empty(), "304 must carry no body");
        assert_eq!(not_modified.etag, first.etag, "304 repeats the tag");

        let listed = fetch_with(
            addr,
            "GET",
            "/coverage",
            Some(&format!("\"stale-tag\", {}", first.etag)),
        )
        .expect("list-form conditional");
        assert_eq!(listed.status, 304, "validator list containing the tag → 304");
        let wildcard = fetch_with(addr, "GET", "/coverage", Some("*")).expect("wildcard");
        assert_eq!(wildcard.status, 304, "wildcard validator → 304");

        let malformed =
            fetch_with(addr, "GET", "/coverage", Some("W/\"unterminated")).expect("malformed");
        assert_eq!(malformed.status, 200, "malformed validator is a miss");
        assert_eq!(malformed.body, first.body, "miss serves the full bytes");
        assert_eq!(malformed.etag, first.etag);

        let err = fetch_with(addr, "GET", "/entity/banana", Some(&first.etag)).expect("error");
        assert_eq!(err.status, 400);
        assert!(err.etag.is_empty(), "errors carry no validator");

        let stats = stop(server);
        assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
        assert_eq!(stats.resp_3xx, 3, "three 304s: {stats:?}");
        assert_eq!(
            stats.cache_revalidations, 3,
            "each 304 is one revalidation in either mode: {stats:?}"
        );
    }
}

/// Every route the response cache pre-renders for `state`, plus two
/// slab-cached entity cards.
fn cached_targets(state: &ServeState) -> Vec<String> {
    let mut targets: Vec<String> =
        ["/", "/sites", "/coverage", "/coverage.csv", "/figures", "/entity/0", "/entity/3"]
            .map(String::from)
            .to_vec();
    for site in StudySite::ALL {
        for channel in ["search", "browse"] {
            targets.push(format!("/demand/{}/{channel}.csv", site.slug()));
        }
    }
    for fig in &state.figures {
        targets.push(format!("/figure/{}.csv", fig.id));
    }
    targets
}

#[test]
fn fresh_and_warm_stores_send_one_body_per_etag() {
    // One epoch served from a fresh store and from a warm one (the second
    // build replays every shard's cached extraction). Wherever the two
    // send the same ETag they must send the same bytes, or a 304 would
    // confirm a body the client never saw.
    let _guard = env_lock();
    let dir = TempDir::new("serve-test-fresh-warm");
    let build = || {
        Arc::new(
            ServeState::build(Domain::Restaurants, fixture_config(), &dir, 2)
                .expect("serve state builds"),
        )
    };
    let fresh = build();
    let warm = build();
    assert_eq!(fresh.report.cache_hits, 0, "a fresh store has nothing to replay");
    assert!(warm.report.cache_hits > 0, "a warm store must replay its cache");
    let targets = cached_targets(&fresh);
    let serve = |state: Arc<ServeState>| {
        let server = Server::start(state, &ServeConfig::default(), "127.0.0.1:0")
            .expect("server binds");
        let mut conn = Connection::new(server.local_addr());
        let responses: Vec<(String, Vec<u8>)> = targets
            .iter()
            .map(|target| {
                let resp = conn.get(target).expect("fetch");
                assert_eq!(resp.status, 200, "{target}");
                (resp.etag, resp.body)
            })
            .collect();
        drop(conn);
        let stats = stop(server);
        assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
        responses
    };
    let (from_fresh, from_warm) = (serve(fresh), serve(warm));
    for (target, ((fresh_tag, fresh_body), (warm_tag, warm_body))) in
        targets.iter().zip(from_fresh.iter().zip(&from_warm))
    {
        assert!(!fresh_tag.is_empty(), "{target}: cached routes carry a validator");
        assert_eq!(fresh_tag, warm_tag, "{target}: one epoch, one ETag");
        assert!(
            fresh_body == warm_body,
            "{target}: ETag {fresh_tag} names two bodies:\n{}\n---\n{}",
            String::from_utf8_lossy(fresh_body),
            String::from_utf8_lossy(warm_body)
        );
    }
}

/// The fixed target walk the hot-swap test replays: cached routes,
/// slab-cached entity cards and a figure CSV.
const SWAP_TARGETS: &[&str] = &[
    "/",
    "/sites",
    "/coverage",
    "/coverage.csv",
    "/entity/1",
    "/entity/3",
    "/demand/yelp/search.csv",
    "/figure/serve-coverage.csv",
];

/// Mutation the hot-swap test applies, mirrored by the cold oracle.
const SWAP_FRACTION_BP: u64 = 500;
const SWAP_SEED: u64 = 7;

/// Fetch every swap target from a cold server pinned at epoch 0 (or, if
/// `mutated`, at epoch 1 via the same mutation the live swap applies)
/// and return `(target → (status, body), etag)`. The mutated oracle
/// replays the live server's exact store history: build epoch 0 state,
/// then mutate and rebuild.
fn cold_oracle(tag: &str, mutated: bool) -> (BTreeMap<String, (u16, Vec<u8>)>, String) {
    let dir = TempDir::new(&format!("serve-test-{tag}"));
    let mut epoch = Epoch::new(Domain::Restaurants, fixture_config());
    if mutated {
        let _ = ServeState::from_epoch(&epoch, &dir, 2).expect("epoch-0 state builds");
        #[allow(clippy::cast_precision_loss)]
        let fraction = SWAP_FRACTION_BP as f64 / 10_000.0;
        epoch.mutate(fraction, Seed(SWAP_SEED));
    }
    let state = ServeState::from_epoch(&epoch, &dir, 2).expect("oracle state builds");
    let server = Server::start(
        Arc::new(state),
        &ServeConfig {
            threads: 2,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("oracle server binds");
    let mut conn = Connection::new(server.local_addr());
    let mut map = BTreeMap::new();
    let mut etag = String::new();
    for &target in SWAP_TARGETS {
        let resp = conn.get(target).expect("oracle fetch");
        assert_eq!(resp.status, 200, "{target}");
        etag = resp.etag.clone();
        map.insert(target.to_string(), (resp.status, resp.body));
    }
    drop(conn);
    let stats = stop(server);
    assert!(stats.is_consistent(), "oracle stats inconsistent: {stats:?}");
    (map, etag)
}

#[test]
fn hot_swap_responses_match_cold_restarts_at_each_epoch() {
    // The hot-swap correctness oracle: every response a live-swapping
    // server produces must be byte-identical to a cold server pinned at
    // the epoch the response's ETag names — before, during and after the
    // swap window, at any worker count, with a chaos client misbehaving
    // through the window. Snapshot isolation means there is no third
    // possibility: a response is wholly epoch 0 or wholly epoch 1.
    let (oracle0, etag0) = with_threads(2, || cold_oracle("swap-oracle0", false));
    let (oracle1, etag1) = with_threads(2, || cold_oracle("swap-oracle1", true));
    assert_ne!(etag0, etag1, "the mutation must change the epoch tag");

    for threads in [1usize, 2, 8] {
        with_threads(threads, || {
            let dir = TempDir::new(&format!("serve-test-swap-live-t{threads}"));
            let epoch = Epoch::new(Domain::Restaurants, fixture_config());
            let state =
                ServeState::from_epoch(&epoch, &dir, threads).expect("live state builds");
            let shared = Arc::new(SharedServing::new(ServeEpoch::new(Arc::new(state))));
            let manager = Arc::new(EpochManager::new(epoch, dir.to_path_buf(), threads));
            let server = Server::start_with(
                shared,
                Some(manager),
                &ServeConfig {
                    threads,
                    ..ServeConfig::default()
                },
                "127.0.0.1:0",
            )
            .expect("live server binds");
            let addr = server.local_addr();

            // A chaos client hammers the server for the whole test,
            // including the swap window: stalls, truncated heads,
            // connect-and-vanish, mid-response hangups.
            let stop_chaos = Arc::new(AtomicBool::new(false));
            let chaos = {
                let stop_chaos = Arc::clone(&stop_chaos);
                std::thread::spawn(move || {
                    let plan =
                        FaultPlan::new(FaultConfig::flaky(0.6), Seed::DEFAULT.derive("swap-chaos"));
                    let mut i = 0usize;
                    while !stop_chaos.load(Ordering::Relaxed) {
                        match plan.fault(i, 0) {
                            None | Some(Fault::RateLimited) => {
                                let mut s = TcpStream::connect(addr).expect("chaos connect");
                                let _ = s.write_all(
                                    b"GET /coverage HTTP/1.1\r\nConnection: close\r\n\r\n",
                                );
                                let mut first = [0u8; 32];
                                let _ = s.read(&mut first);
                            }
                            Some(Fault::Transient | Fault::Dead) => {
                                drop(TcpStream::connect(addr));
                            }
                            Some(Fault::Timeout | Fault::Truncated(_)) => {
                                let mut s = TcpStream::connect(addr).expect("chaos connect");
                                let _ = s.write_all(b"GET /cover");
                                std::thread::sleep(Duration::from_millis(5));
                            }
                        }
                        i += 1;
                        std::thread::sleep(Duration::from_millis(1));
                    }
                })
            };

            let mut recorded: Vec<(String, u16, Vec<u8>, String)> = Vec::new();
            let mut conn = Connection::new(addr);
            let walk = |recorded: &mut Vec<(String, u16, Vec<u8>, String)>,
                            conn: &mut Connection| {
                for &target in SWAP_TARGETS {
                    let resp = conn.get(target).expect("live fetch");
                    recorded.push((target.to_string(), resp.status, resp.body, resp.etag));
                }
            };
            // Pass A: wholly pre-swap.
            walk(&mut recorded, &mut conn);
            // Trigger the swap, then keep requesting through the rebuild
            // window — these land on whichever epoch is current.
            let trigger = fetch(
                addr,
                "POST",
                &format!("/admin/epoch?fraction_bp={SWAP_FRACTION_BP}&seed={SWAP_SEED}"),
            )
            .expect("swap trigger");
            assert_eq!(trigger.status, 200, "{}", trigger.text());
            assert!(trigger.text().contains("\"swap_started\": true"));
            walk(&mut recorded, &mut conn);
            // Wait for the publish, then a wholly post-swap pass.
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            while server.stats().cache_swaps == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "swap did not publish within 30s"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            walk(&mut recorded, &mut conn);

            // A stale validator (epoch 0's tag) now draws the fresh 200;
            // the new tag revalidates to 304.
            let stale = fetch_with(addr, "GET", "/coverage", Some(&etag0)).expect("stale");
            assert_eq!(stale.status, 200, "stale validator after swap → full 200");
            assert_eq!(stale.etag, etag1, "fresh response carries the new tag");
            let fresh = fetch_with(addr, "GET", "/coverage", Some(&etag1)).expect("fresh");
            assert_eq!(fresh.status, 304, "current validator → 304");
            drop(conn);

            stop_chaos.store(true, Ordering::Relaxed);
            chaos.join().expect("chaos client");
            let stats = stop(server);
            assert!(stats.is_consistent(), "stats inconsistent: {stats:?}");
            assert_eq!(stats.cache_swaps, 1, "exactly one publish: {stats:?}");

            // Every recorded response must match the cold oracle at the
            // epoch its ETag names, and both epochs must have been seen.
            let mut seen0 = 0usize;
            let mut seen1 = 0usize;
            for (target, status, body, etag) in &recorded {
                let oracle = if *etag == etag0 {
                    seen0 += 1;
                    &oracle0
                } else if *etag == etag1 {
                    seen1 += 1;
                    &oracle1
                } else {
                    panic!("response tagged with unknown epoch {etag:?} for {target}");
                };
                let (want_status, want_body) =
                    oracle.get(target).expect("target in oracle");
                assert_eq!(status, want_status, "{target} @ {etag}");
                assert_eq!(
                    body, want_body,
                    "{target} bytes diverged from the cold restart at {etag}"
                );
            }
            assert!(seen0 > 0, "no pre-swap responses recorded at {threads} threads");
            assert!(seen1 > 0, "no post-swap responses recorded at {threads} threads");
        });
    }
}
