//! The connection layer: a thread-per-connection HTTP/1.1 server over a
//! bounded worker pool, std-only.
//!
//! ## Request lifecycle
//!
//! One acceptor thread polls a non-blocking listener and pushes accepted
//! sockets onto a bounded queue (backpressure: the acceptor blocks when
//! all workers are busy and the queue is full). Each worker pops a
//! connection and owns it end to end: read with a deadline, incrementally
//! parse ([`parse_head`]) — torn reads and pipelined requests both
//! fall out of re-parsing the growing buffer — route against the warm
//! [`ServeState`], write the deterministic response, repeat while
//! keep-alive holds. Graceful shutdown closes the queue; workers drain
//! every already-accepted connection before exiting, which is why the
//! accounting invariant below can be exact.
//!
//! ## Accounting invariant
//!
//! Every accepted connection ends in exactly one of `closed_clean`
//! (EOF/keep-alive end), `closed_timeout` (deadline with a stalled
//! request — the slow-loris case) or `closed_error` (mid-stream I/O
//! failure or truncated request), and every response sent answers either
//! a parsed request or a parse error. [`ServeStats::is_consistent`]
//! checks both equations; the fault-injection tests drive chaotic
//! clients at the server and then assert them.

use crate::cache::CacheOutcome;
use crate::http::{
    if_none_match_matches, parse_head, write_response_head, HeadParse, Method, Request, Response,
};
use crate::router::{route, Control};
use crate::state::ServeState;
use crate::swap::{EpochManager, ServeEpoch, SharedServing};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use webstruct_util::obs::{self, Histogram, LocalHistogram};
use webstruct_util::par;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (connections served concurrently). Defaults to
    /// [`par::num_threads`], i.e. the `WEBSTRUCT_THREADS` contract.
    pub threads: usize,
    /// Per-read deadline; a connection that stalls mid-request past this
    /// is closed as `closed_timeout` (the slow-loris defence).
    pub read_timeout: Duration,
    /// Keep-alive cap: a connection is closed (cleanly) after serving
    /// this many requests, bounding per-connection state lifetime.
    pub max_requests_per_conn: usize,
    /// Bounded accept-queue depth.
    pub queue_depth: usize,
    /// Whether the hot-path response cache answers GET/HEAD requests.
    /// Off, every request takes the full router — the configuration the
    /// tests use to prove cached and uncached bytes are identical.
    pub cache: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let threads = par::num_threads();
        ServeConfig {
            threads,
            read_timeout: Duration::from_secs(5),
            max_requests_per_conn: 1024,
            queue_depth: 2 * threads.max(1),
            cache: true,
        }
    }
}

/// A snapshot of the server's connection/response accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted (counted when a worker takes them).
    pub accepted: u64,
    /// Connections that ended cleanly (EOF, keep-alive end, post-error
    /// close, idle timeout with nothing buffered).
    pub closed_clean: u64,
    /// Connections cut off with a stalled partial request buffered.
    pub closed_timeout: u64,
    /// Connections that died mid-stream (I/O error or truncated head).
    pub closed_error: u64,
    /// Requests successfully parsed.
    pub requests: u64,
    /// Heads rejected by the parser (each still gets one response).
    pub parse_errors: u64,
    /// Responses by status class.
    pub resp_2xx: u64,
    /// 3xx responses (`304 Not Modified` revalidations).
    pub resp_3xx: u64,
    /// 4xx responses.
    pub resp_4xx: u64,
    /// 5xx responses.
    pub resp_5xx: u64,
    /// Cache lookups served from already-pinned bytes.
    pub cache_hits: u64,
    /// Cache lookups that rendered and filled an entity slot.
    pub cache_misses: u64,
    /// Conditional requests answered `304` (the cheapest hit of all).
    pub cache_revalidations: u64,
    /// Epoch hot-swaps published since boot.
    pub cache_swaps: u64,
    /// Response bytes written.
    pub bytes_out: u64,
    /// Request latency in microseconds (parse start → response written).
    pub latency: LocalHistogram,
}

impl ServeStats {
    /// The accounting invariant: after the server has fully drained,
    /// every accepted connection is in exactly one `closed_*` bucket and
    /// every response answered a parsed request or a parse error.
    /// Only meaningful on the final stats from [`Server::join`] — a
    /// mid-flight snapshot legitimately has open connections.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.accepted == self.closed_clean + self.closed_timeout + self.closed_error
            && self.resp_2xx + self.resp_3xx + self.resp_4xx + self.resp_5xx
                == self.requests + self.parse_errors
    }

    /// Latency percentile in microseconds (histogram-bucket resolution).
    ///
    /// Ranks within the buckets, not `latency.count()`: a live snapshot
    /// loads each worker's buckets and count one by one while requests
    /// land, so its count can run ahead of its buckets.
    #[must_use]
    pub fn latency_percentile_us(&self, q: f64) -> u64 {
        let buckets = self.latency.nonzero_buckets();
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (floor, c) in buckets {
            cum += c;
            if cum >= target {
                return floor;
            }
        }
        unreachable!("the target rank is at most the bucket total")
    }
}

/// Live counters shared by the workers. Plain relaxed atomics: the exact
/// cross-thread ordering of increments is irrelevant, only totals are
/// ever read.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    closed_clean: AtomicU64,
    closed_timeout: AtomicU64,
    closed_error: AtomicU64,
    requests: AtomicU64,
    parse_errors: AtomicU64,
    resp_2xx: AtomicU64,
    resp_3xx: AtomicU64,
    resp_4xx: AtomicU64,
    resp_5xx: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_revalidations: AtomicU64,
    bytes_out: AtomicU64,
    /// One latency histogram per worker, so recording a request takes no
    /// lock and shares no cache line; [`Counters::snapshot`] merges them.
    latency: Vec<WorkerLatency>,
    /// Totals already pushed to the global registry, so republishing is
    /// a delta and the `serve.*` counters stay monotone.
    published: Mutex<[u64; 14]>,
}

/// A worker's own latency histogram, cache-line aligned so neighbouring
/// workers' count and sum words never share a line.
#[repr(align(64))]
#[derive(Default)]
struct WorkerLatency(Histogram);

impl Counters {
    /// Snapshot the counters. `swaps` comes from [`SharedServing`] — the
    /// background swap thread publishes there, not here.
    fn snapshot(&self, swaps: u64) -> ServeStats {
        ServeStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            closed_clean: self.closed_clean.load(Ordering::Relaxed),
            closed_timeout: self.closed_timeout.load(Ordering::Relaxed),
            closed_error: self.closed_error.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            parse_errors: self.parse_errors.load(Ordering::Relaxed),
            resp_2xx: self.resp_2xx.load(Ordering::Relaxed),
            resp_3xx: self.resp_3xx.load(Ordering::Relaxed),
            resp_4xx: self.resp_4xx.load(Ordering::Relaxed),
            resp_5xx: self.resp_5xx.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_revalidations: self.cache_revalidations.load(Ordering::Relaxed),
            cache_swaps: swaps,
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            latency: self.latency.iter().fold(LocalHistogram::new(), |mut all, w| {
                all.merge(&w.0.load());
                all
            }),
        }
    }

    /// Push deltas into the global `obs` registry under `serve.*`. The
    /// counters land in the deterministic metrics tail (they are a pure
    /// function of the request stream); latency, which is wall-clock, is
    /// published as gauges — gauges are excluded from the deterministic
    /// snapshot by design, which is also where the derived
    /// `serve.cache.hit_rate_bp` lives (a ratio, not a monotone count).
    fn publish(&self, swaps: u64) {
        let s = self.snapshot(swaps);
        let live = [
            s.accepted,
            s.closed_clean,
            s.closed_timeout,
            s.closed_error,
            s.requests,
            s.parse_errors,
            s.resp_2xx,
            s.resp_3xx,
            s.resp_4xx,
            s.resp_5xx,
            s.cache_hits,
            s.cache_misses,
            s.cache_revalidations,
            s.cache_swaps,
        ];
        const NAMES: [&str; 14] = [
            "serve.accepted",
            "serve.closed_clean",
            "serve.closed_timeout",
            "serve.closed_error",
            "serve.requests",
            "serve.parse_errors",
            "serve.resp_2xx",
            "serve.resp_3xx",
            "serve.resp_4xx",
            "serve.resp_5xx",
            "serve.cache.hits",
            "serve.cache.misses",
            "serve.cache.revalidations",
            "serve.cache.swaps",
        ];
        let m = obs::metrics();
        let mut published = self.published.lock().expect("publish lock");
        for ((name, &now), prev) in NAMES.iter().zip(live.iter()).zip(published.iter_mut()) {
            m.add(name, now.saturating_sub(*prev));
            *prev = now;
        }
        drop(published);
        // Derived hit rate in basis points, mirroring the extraction
        // cache's `cache.hit_rate_bp`: a revalidation is the cheapest hit
        // (no bytes moved at all), a fill is the only miss.
        let lookups = s.cache_hits + s.cache_misses + s.cache_revalidations;
        let rate_bp = ((lookups - s.cache_misses) * 10_000)
            .checked_div(lookups)
            .unwrap_or(0);
        m.set_gauge("serve.cache.hit_rate_bp", rate_bp as f64);
        m.set_gauge("serve.latency_p50_us", s.latency_percentile_us(0.50) as f64);
        m.set_gauge("serve.latency_p99_us", s.latency_percentile_us(0.99) as f64);
        m.set_gauge("serve.latency_count", s.latency.count() as f64);
        m.set_gauge("serve.bytes_out", s.bytes_out as f64);
    }
}

/// The bounded handoff between the acceptor and the workers.
struct ConnQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

struct QueueInner {
    deque: VecDeque<TcpStream>,
    closed: bool,
}

impl ConnQueue {
    fn new(cap: usize) -> Self {
        ConnQueue {
            inner: Mutex::new(QueueInner {
                deque: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocking push. A push after [`ConnQueue::close`] drops the
    /// connection; only the acceptor pushes and closes, so none is.
    fn push(&self, conn: TcpStream) {
        let mut inner = self.inner.lock().expect("queue lock");
        while inner.deque.len() >= self.cap && !inner.closed {
            inner = self.not_full.wait(inner).expect("queue lock");
        }
        if inner.closed {
            return;
        }
        inner.deque.push_back(conn);
        drop(inner);
        self.not_empty.notify_one();
    }

    /// Blocking pop; `None` once the queue is closed **and** drained, so
    /// every accepted connection is served even during shutdown.
    fn pop(&self) -> Option<TcpStream> {
        let mut inner = self.inner.lock().expect("queue lock");
        loop {
            if let Some(conn) = inner.deque.pop_front() {
                drop(inner);
                self.not_full.notify_one();
                return Some(conn);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock");
        }
    }

    fn close(&self) {
        self.inner.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// A running server: acceptor + worker pool bound to a local address.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
    shared: Arc<SharedServing>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `state` with `config`. The state is pinned for the server's
    /// lifetime — no hot swap; `POST /admin/epoch` answers 404. Use
    /// [`Server::start_with`] to serve a swappable epoch.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start(
        state: Arc<ServeState>,
        config: &ServeConfig,
        addr: &str,
    ) -> std::io::Result<Server> {
        let shared = Arc::new(SharedServing::new(ServeEpoch::new(state)));
        Server::start_with(shared, None, config, addr)
    }

    /// Bind `addr` and serve whatever epoch `shared` currently holds,
    /// with `manager` (if any) answering `POST /admin/epoch` hot-swaps.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn start_with(
        shared: Arc<SharedServing>,
        manager: Option<Arc<EpochManager>>,
        config: &ServeConfig,
        addr: &str,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = config.threads.max(1);
        let counters = Arc::new(Counters {
            latency: std::iter::repeat_with(WorkerLatency::default).take(threads).collect(),
            ..Counters::default()
        });
        let queue = Arc::new(ConnQueue::new(config.queue_depth));
        let command = format!("serve {}", shared.load().state.domain.slug());

        let acceptor = {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                loop {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((conn, _)) => queue.push(conn),
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(1)),
                    }
                }
                queue.close();
            })
        };

        let workers = (0..threads)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let shared = Arc::clone(&shared);
                let manager = manager.clone();
                let counters = Arc::clone(&counters);
                let shutdown = Arc::clone(&shutdown);
                let config = config.clone();
                let command = command.clone();
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        // Counted by the worker before it reads a byte, so
                        // every request on the connection, `/metrics`
                        // included, sees it.
                        counters.accepted.fetch_add(1, Ordering::Relaxed);
                        serve_connection(
                            conn,
                            &shared,
                            manager.as_ref(),
                            &config,
                            &counters,
                            &counters.latency[w].0,
                            &shutdown,
                            &command,
                        );
                    }
                })
            })
            .collect();

        Ok(Server {
            addr: local,
            shutdown,
            counters,
            shared,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (query this for the ephemeral port).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger graceful shutdown: stop accepting; already-accepted
    /// connections are still served.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// A live stats snapshot (connections may still be open; see
    /// [`ServeStats::is_consistent`]).
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot(self.shared.swaps())
    }

    /// Wait for the acceptor and every worker to drain, publish the
    /// final `serve.*` counters, and return the final stats.
    ///
    /// Blocks until shutdown is triggered — either via
    /// [`shutdown`](Server::shutdown) or a client's `POST /shutdown`.
    ///
    /// # Panics
    /// Panics if a server thread itself panicked (a bug: connection
    /// handlers catch handler panics and answer 500).
    #[must_use]
    pub fn join(mut self) -> ServeStats {
        if let Some(a) = self.acceptor.take() {
            a.join().expect("acceptor thread panicked");
        }
        for w in self.workers.drain(..) {
            w.join().expect("worker thread panicked");
        }
        let swaps = self.shared.swaps();
        self.counters.publish(swaps);
        self.counters.snapshot(swaps)
    }
}

/// How one connection ended — maps 1:1 onto the `closed_*` counters.
enum ConnEnd {
    Clean,
    Timeout,
    Error,
}

/// A fast-path resolution: status, content type, and the pinned body
/// bytes (`None` for a 304, whose body is empty by definition).
type FastResponse = (u16, &'static str, Option<Arc<[u8]>>);

/// Serve one connection to completion. Every return path records exactly
/// one [`ConnEnd`].
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    mut conn: TcpStream,
    shared: &Arc<SharedServing>,
    manager: Option<&Arc<EpochManager>>,
    config: &ServeConfig,
    counters: &Counters,
    latency: &Histogram,
    shutdown: &AtomicBool,
    command: &str,
) {
    let _ = conn.set_read_timeout(Some(config.read_timeout));
    let _ = conn.set_nodelay(true);
    let end = drive_connection(
        &mut conn, shared, manager, config, counters, latency, shutdown, command,
    );
    let bucket = match end {
        ConnEnd::Clean => &counters.closed_clean,
        ConnEnd::Timeout => &counters.closed_timeout,
        ConnEnd::Error => &counters.closed_error,
    };
    bucket.fetch_add(1, Ordering::Relaxed);
}

#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn drive_connection(
    conn: &mut TcpStream,
    shared: &Arc<SharedServing>,
    manager: Option<&Arc<EpochManager>>,
    config: &ServeConfig,
    counters: &Counters,
    latency: &Histogram,
    shutdown: &AtomicBool,
    command: &str,
) -> ConnEnd {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // The reusable wire buffer: every response on this connection is
    // assembled here, so a steady-state cache hit allocates nothing.
    let mut out_buf: Vec<u8> = Vec::with_capacity(4096);
    let mut served = 0usize;
    loop {
        // Drain every complete request already buffered (pipelining)
        // before touching the socket again.
        match parse_head(&buf) {
            HeadParse::Complete(head, consumed) => {
                counters.requests.fetch_add(1, Ordering::Relaxed);
                served += 1;
                let start = Instant::now();
                let _span = webstruct_util::span!("serve.request");
                // One epoch snapshot per request: the whole response is
                // served from it, so a concurrent hot-swap is invisible
                // until the next request.
                let epoch = shared.load();
                let head_only = head.method == Method::Head;
                let keep_alive = head.keep_alive;

                // ── Fast path: GET/HEAD on a cacheable route ──────────
                // Serves pinned bytes (or a 304) without building an
                // owned Request, touching the router, or allocating.
                let mut fast: Option<FastResponse> = None;
                if config.cache && matches!(head.method, Method::Get | Method::Head) {
                    if let Some(content_type) = epoch.cache.probe(head.path) {
                        let revalidated = head
                            .if_none_match
                            .is_some_and(|inm| if_none_match_matches(inm, &epoch.etag));
                        if revalidated {
                            counters.cache_revalidations.fetch_add(1, Ordering::Relaxed);
                            fast = Some((304, content_type, None));
                        } else if let Some((cached, outcome)) =
                            epoch.cache.lookup(&epoch.state, head.path)
                        {
                            match outcome {
                                CacheOutcome::Hit => {
                                    counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                                }
                                CacheOutcome::Filled => {
                                    counters.cache_misses.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            fast = Some((cached.status, cached.content_type, Some(Arc::clone(&cached.body))));
                        }
                    }
                }
                if let Some((status, content_type, body)) = fast {
                    buf.drain(..consumed);
                    let closing = !keep_alive
                        || served >= config.max_requests_per_conn
                        || shutdown.load(Ordering::Relaxed);
                    match status / 100 {
                        2 => counters.resp_2xx.fetch_add(1, Ordering::Relaxed),
                        _ => counters.resp_3xx.fetch_add(1, Ordering::Relaxed),
                    };
                    out_buf.clear();
                    let body_len = body.as_ref().map_or(0, |b| b.len());
                    write_response_head(
                        &mut out_buf,
                        status,
                        content_type,
                        body_len,
                        Some(&epoch.etag),
                        !closing,
                    );
                    if !head_only {
                        if let Some(b) = &body {
                            out_buf.extend_from_slice(b);
                        }
                    }
                    let written = conn.write_all(&out_buf).and_then(|()| conn.flush());
                    let micros =
                        u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                    latency.record(micros);
                    match written {
                        Ok(()) => {
                            counters
                                .bytes_out
                                .fetch_add(out_buf.len() as u64, Ordering::Relaxed);
                        }
                        Err(_) => return ConnEnd::Error,
                    }
                    if closing {
                        return ConnEnd::Clean;
                    }
                    continue;
                }

                // ── Slow path: the full router ────────────────────────
                let req = Request::from_head(&head);
                buf.drain(..consumed);
                // A handler panic must not take the worker down: catch it
                // and answer with the 500 arm of the taxonomy.
                let routed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(&epoch.state, &req)
                }));
                let (response, control) = match routed {
                    Ok(r) => (r.response, r.control),
                    Err(_) => (
                        Response::error(500, "internal", "handler panicked"),
                        Control::None,
                    ),
                };
                let response = match control {
                    Control::Metrics => {
                        counters.publish(shared.swaps());
                        Response::ok_json(obs::run_report_json(
                            command,
                            config.threads,
                            obs::global(),
                        ))
                    }
                    Control::EpochSwap { fraction_bp, seed } => match manager {
                        None => Response::error(
                            404,
                            "not_found",
                            "hot-swap disabled; start the server with --watch",
                        ),
                        Some(mgr) => {
                            if mgr.begin_swap(shared, fraction_bp, seed) {
                                Response::ok_json(format!(
                                    "{{\"swap_started\": true, \"from_epoch\": {}, \
                                     \"fraction_bp\": {fraction_bp}, \"seed\": {seed}}}\n",
                                    epoch.version,
                                ))
                            } else {
                                Response::error(
                                    409,
                                    "swap_in_progress",
                                    "an epoch swap is already running",
                                )
                            }
                        }
                    },
                    _ => response,
                };
                // The conditional layer: every plain-resource 200 carries
                // the epoch ETag, and a matching If-None-Match collapses
                // it to a 304. Deliberately independent of `config.cache`
                // so cached and uncached servers answer conditional
                // requests identically (the digest-equality guarantee).
                let response = if control == Control::None
                    && response.status == 200
                    && matches!(req.method, Method::Get | Method::Head)
                {
                    match req.if_none_match.as_deref() {
                        Some(inm) if if_none_match_matches(inm, &epoch.etag) => {
                            counters.cache_revalidations.fetch_add(1, Ordering::Relaxed);
                            Response::not_modified(
                                response.content_type,
                                Arc::clone(&epoch.etag),
                            )
                        }
                        _ => response.with_etag(Arc::clone(&epoch.etag)),
                    }
                } else {
                    response
                };
                let closing = !req.keep_alive
                    || served >= config.max_requests_per_conn
                    || control == Control::Shutdown
                    || shutdown.load(Ordering::Relaxed);
                match response.class() {
                    2 => counters.resp_2xx.fetch_add(1, Ordering::Relaxed),
                    3 => counters.resp_3xx.fetch_add(1, Ordering::Relaxed),
                    4 => counters.resp_4xx.fetch_add(1, Ordering::Relaxed),
                    _ => counters.resp_5xx.fetch_add(1, Ordering::Relaxed),
                };
                out_buf.clear();
                response.write_into(&mut out_buf, !closing, head_only);
                let written = conn.write_all(&out_buf).and_then(|()| conn.flush());
                let micros =
                    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                latency.record(micros);
                if control == Control::Shutdown {
                    shutdown.store(true, Ordering::Relaxed);
                }
                match written {
                    Ok(()) => {
                        counters
                            .bytes_out
                            .fetch_add(out_buf.len() as u64, Ordering::Relaxed);
                    }
                    // The mid-response disconnect: the client vanished
                    // while we were writing.
                    Err(_) => return ConnEnd::Error,
                }
                if closing {
                    return ConnEnd::Clean;
                }
                continue;
            }
            HeadParse::Error(e) => {
                // One response per parse error, then close: after a
                // malformed head there is no reliable way to resync the
                // stream.
                counters.parse_errors.fetch_add(1, Ordering::Relaxed);
                let response = Response::from_http_error(e);
                match response.class() {
                    4 => counters.resp_4xx.fetch_add(1, Ordering::Relaxed),
                    _ => counters.resp_5xx.fetch_add(1, Ordering::Relaxed),
                };
                out_buf.clear();
                response.write_into(&mut out_buf, false, false);
                match conn.write_all(&out_buf).and_then(|()| conn.flush()) {
                    Ok(()) => {
                        counters
                            .bytes_out
                            .fetch_add(out_buf.len() as u64, Ordering::Relaxed);
                        return ConnEnd::Clean;
                    }
                    Err(_) => return ConnEnd::Error,
                }
            }
            HeadParse::Partial => {}
        }
        match conn.read(&mut chunk) {
            // EOF with nothing buffered is the normal keep-alive end;
            // EOF mid-head is a truncated request.
            Ok(0) => {
                return if buf.is_empty() {
                    ConnEnd::Clean
                } else {
                    ConnEnd::Error
                };
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Deadline hit. An idle keep-alive connection is a clean
                // close; a stalled partial head is the slow-loris case.
                return if buf.is_empty() {
                    ConnEnd::Clean
                } else {
                    ConnEnd::Timeout
                };
            }
            Err(_) => return ConnEnd::Error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_torn_snapshot_rank_within_its_buckets() {
        // Ten samples of 100 µs in the buckets, but a count of 25: the
        // count was loaded after fifteen more requests recorded.
        let mut h = LocalHistogram::new();
        for _ in 0..10 {
            h.record(100);
        }
        let mut bytes = h.to_bytes();
        let count_at = LocalHistogram::WIRE_LEN - 16;
        bytes[count_at..count_at + 8].copy_from_slice(&25u64.to_le_bytes());
        let torn = LocalHistogram::from_bytes(&bytes).expect("well-formed");
        assert_eq!(torn.count(), 25);
        let stats = ServeStats {
            latency: torn,
            ..ServeStats::default()
        };
        let floor = stats.latency_percentile_us(0.5);
        assert!(floor > 0 && floor <= 100, "p50 {floor}");
        assert_eq!(stats.latency_percentile_us(0.99), floor);
        assert_eq!(ServeStats::default().latency_percentile_us(0.99), 0);
    }
}
