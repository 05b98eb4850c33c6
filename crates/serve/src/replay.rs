//! The load generator: replay a [`RequestPlan`]'s population against a
//! running server over real sockets, measuring latency and throughput
//! and digesting every response.
//!
//! Client `c` of `clients` owns the plan indices `i ≡ c (mod clients)`,
//! so the request *multiset* is independent of the client count — and
//! because each response is digested individually and folded with a
//! commutative combine (word-wise wrapping addition of the per-response
//! SHA-256), [`ReplayReport::digest`] is independent of client
//! scheduling too. Replaying the same plan against servers running at
//! different thread counts must therefore produce the same digest —
//! that equality is the serving layer's end-to-end determinism check,
//! asserted by
//! `tests/serve.rs::replay_digest_is_identical_across_server_thread_counts`.

use crate::client::{fetch, Connection};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;
use webstruct_demand::traffic::RequestPlan;
use webstruct_util::par;
use webstruct_util::sha::Sha256;

/// Replay tuning.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Total requests to send.
    pub requests: u64,
}

/// One epoch's slice of a replay: every response carrying the same ETag,
/// digested separately so a replay that straddles a hot-swap can be
/// audited epoch by epoch (each slice must match a cold server pinned at
/// that epoch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochSlice {
    /// The ETag the responses carried (empty for untagged responses —
    /// errors and control endpoints).
    pub etag: String,
    /// How many responses landed in this slice.
    pub responses: u64,
    /// Order-independent hex digest over the slice's
    /// `(path, status, body)` triples.
    pub digest: String,
}

/// What a replay run measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests attempted.
    pub requests: u64,
    /// Responses with 2xx status or a 304 revalidation.
    pub ok: u64,
    /// Responses with 4xx/5xx status.
    pub rejected: u64,
    /// Transport failures (no response).
    pub errors: u64,
    /// Wall-clock seconds for the whole replay.
    pub wall_secs: f64,
    /// Requests per second.
    pub rps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Order-independent hex digest over every `(path, status, body)`.
    pub digest: String,
    /// The same digest partitioned by response ETag, ascending by tag.
    /// Single-epoch replays have exactly one tagged slice; a replay
    /// through a hot-swap window has one per epoch served.
    pub epochs: Vec<EpochSlice>,
}

/// One client's partial result.
struct ClientFold {
    ok: u64,
    rejected: u64,
    errors: u64,
    digest: [u64; 4],
    by_etag: BTreeMap<String, ([u64; 4], u64)>,
    latencies_us: Vec<u64>,
}

/// Fold one response digest into the order-independent accumulator.
fn fold_digest(acc: &mut [u64; 4], path: &str, status: u16, body: &[u8]) {
    let mut h = Sha256::new();
    h.update(path.as_bytes());
    h.update(&[0]);
    h.update(&status.to_le_bytes());
    h.update(&[0]);
    h.update(body);
    let d = h.finalize();
    for (i, word) in acc.iter_mut().enumerate() {
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&d[i * 8..i * 8 + 8]);
        *word = word.wrapping_add(u64::from_le_bytes(bytes));
    }
}

/// Replay `opts.requests` requests of `plan` against `addr` using
/// `opts.clients` concurrent connections.
///
/// # Panics
/// Panics if `opts.clients == 0` or `opts.requests == 0`.
#[must_use]
pub fn replay(addr: SocketAddr, plan: &RequestPlan, opts: &ReplayOptions) -> ReplayReport {
    assert!(opts.clients > 0, "need at least one client");
    assert!(opts.requests > 0, "need at least one request");
    let clients = usize::try_from(opts.requests).map_or(opts.clients, |r| opts.clients.min(r));
    // The validator conditional requests replay: fetched once up front
    // (outside the measured window, not folded into any digest) so every
    // client sends the same `If-None-Match` regardless of sharding. An
    // unreachable server or a tagless response degrades conditionals to
    // plain GETs.
    let validator: Option<String> = fetch(addr, "GET", "/coverage")
        .ok()
        .map(|r| r.etag)
        .filter(|t| !t.is_empty());
    let start = Instant::now();
    let folds: Vec<ClientFold> = par::par_map_threads(
        clients,
        (0..clients as u64).collect(),
        |client| {
            let mut fold = ClientFold {
                ok: 0,
                rejected: 0,
                errors: 0,
                digest: [0; 4],
                by_etag: BTreeMap::new(),
                latencies_us: Vec::new(),
            };
            let mut conn = Connection::new(addr);
            let mut i = client;
            while i < opts.requests {
                let req = plan.request(i);
                let inm = if req.conditional {
                    validator.as_deref()
                } else {
                    None
                };
                let t0 = Instant::now();
                match conn.get_with(&req.path, inm) {
                    Ok(resp) => {
                        let us =
                            u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
                        fold.latencies_us.push(us);
                        if resp.status / 100 == 2 || resp.status == 304 {
                            fold.ok += 1;
                        } else {
                            fold.rejected += 1;
                        }
                        fold_digest(&mut fold.digest, &req.path, resp.status, &resp.body);
                        let (slice, count) = fold
                            .by_etag
                            .entry(resp.etag.clone())
                            .or_insert(([0u64; 4], 0));
                        fold_digest(slice, &req.path, resp.status, &resp.body);
                        *count += 1;
                    }
                    Err(_) => fold.errors += 1,
                }
                i += clients as u64;
            }
            fold
        },
    );

    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let mut ok = 0;
    let mut rejected = 0;
    let mut errors = 0;
    let mut digest = [0u64; 4];
    let mut by_etag: BTreeMap<String, ([u64; 4], u64)> = BTreeMap::new();
    let mut latencies: Vec<u64> = Vec::new();
    for f in folds {
        ok += f.ok;
        rejected += f.rejected;
        errors += f.errors;
        for (a, b) in digest.iter_mut().zip(f.digest.iter()) {
            *a = a.wrapping_add(*b);
        }
        for (tag, (slice, count)) in f.by_etag {
            let (acc, n) = by_etag.entry(tag).or_insert(([0u64; 4], 0));
            for (a, b) in acc.iter_mut().zip(slice.iter()) {
                *a = a.wrapping_add(*b);
            }
            *n += count;
        }
        latencies.extend(f.latencies_us);
    }
    latencies.sort_unstable();
    let pct = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 - 1.0) * q).round() as usize;
        latencies[idx] as f64 / 1000.0
    };
    let mean_ms = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().map(|&u| u as f64).sum::<f64>() / latencies.len() as f64 / 1000.0
    };
    let to_hex = |words: [u64; 4]| {
        let mut hex = String::with_capacity(64);
        for word in words {
            hex.push_str(&format!("{word:016x}"));
        }
        hex
    };
    let hex = to_hex(digest);
    let epochs = by_etag
        .into_iter()
        .map(|(etag, (slice, responses))| EpochSlice {
            etag,
            responses,
            digest: to_hex(slice),
        })
        .collect();
    ReplayReport {
        requests: opts.requests,
        ok,
        rejected,
        errors,
        wall_secs,
        rps: (ok + rejected) as f64 / wall_secs,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        mean_ms,
        digest: hex,
        epochs,
    }
}
