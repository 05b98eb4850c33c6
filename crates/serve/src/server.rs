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
//! fall out of re-parsing the growing buffer — then *resolve* each
//! complete head to an answer (a cached hit or 304 borrowing the epoch
//! snapshot's pinned body, a [`route`]d response, or a parse error's
//! taxonomy response) and end every answer in one tail that counts,
//! writes and times it; repeat while keep-alive holds. Graceful shutdown
//! closes the queue; workers drain every already-accepted connection
//! before exiting, which is why the accounting invariant below can be
//! exact.
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
    if_none_match_matches, parse_head, write_response_head, HeadParse, Method, Request,
    RequestHead, Response,
};
use crate::router::{route, Control, Routed};
use crate::state::ServeState;
use crate::swap::{EpochManager, ServeEpoch, SharedServing};
use std::borrow::Cow;
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

/// Declares the counters the workers bump, each once: a row is a
/// [`Slot`] of [`Counters::counts`] and the `serve.*` counter
/// [`Counters::publish`] pushes it under.
macro_rules! slots {
    ($($slot:ident => $name:literal,)*) => {
        /// An index into [`Counters::counts`].
        #[derive(Clone, Copy)]
        enum Slot {
            $($slot,)*
        }

        /// Each slot's metric name, in slot order.
        const NAMES: &[&str] = &[$($name,)*];
    };
}

slots! {
    Accepted => "serve.accepted",
    ClosedClean => "serve.closed_clean",
    ClosedTimeout => "serve.closed_timeout",
    ClosedError => "serve.closed_error",
    Requests => "serve.requests",
    ParseErrors => "serve.parse_errors",
    Resp2xx => "serve.resp_2xx",
    Resp3xx => "serve.resp_3xx",
    Resp4xx => "serve.resp_4xx",
    Resp5xx => "serve.resp_5xx",
    CacheHits => "serve.cache.hits",
    CacheMisses => "serve.cache.misses",
    CacheRevalidations => "serve.cache.revalidations",
}

const SLOTS: usize = NAMES.len();

/// Live counters shared by the workers. Plain relaxed atomics: the exact
/// cross-thread ordering of increments is irrelevant, only totals are
/// ever read.
#[derive(Default)]
struct Counters {
    counts: [AtomicU64; SLOTS],
    /// Response bytes written; a gauge, not a counter, when published.
    bytes_out: AtomicU64,
    /// One latency histogram per worker, so recording a request takes no
    /// lock and shares no cache line; [`Counters::snapshot`] merges them.
    latency: Vec<WorkerLatency>,
    /// Totals already pushed to the global registry (the slots, then the
    /// swaps), so republishing is a delta and the `serve.*` counters stay
    /// monotone.
    published: Mutex<[u64; SLOTS + 1]>,
}

/// A worker's own latency histogram, cache-line aligned so neighbouring
/// workers' count and sum words never share a line.
#[repr(align(64))]
#[derive(Default)]
struct WorkerLatency(Histogram);

impl Counters {
    fn bump(&self, slot: Slot) {
        self.counts[slot as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the counters. `swaps` comes from [`SharedServing`] — the
    /// background swap thread publishes there, not here.
    fn snapshot(&self, swaps: u64) -> ServeStats {
        let c = |slot: Slot| self.counts[slot as usize].load(Ordering::Relaxed);
        ServeStats {
            accepted: c(Slot::Accepted),
            closed_clean: c(Slot::ClosedClean),
            closed_timeout: c(Slot::ClosedTimeout),
            closed_error: c(Slot::ClosedError),
            requests: c(Slot::Requests),
            parse_errors: c(Slot::ParseErrors),
            resp_2xx: c(Slot::Resp2xx),
            resp_3xx: c(Slot::Resp3xx),
            resp_4xx: c(Slot::Resp4xx),
            resp_5xx: c(Slot::Resp5xx),
            cache_hits: c(Slot::CacheHits),
            cache_misses: c(Slot::CacheMisses),
            cache_revalidations: c(Slot::CacheRevalidations),
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
        let m = obs::metrics();
        let mut published = self.published.lock().expect("publish lock");
        // The swaps are counted by `SharedServing`, not in a slot.
        let names = NAMES.iter().chain(&["serve.cache.swaps"]);
        let live = self.counts.iter().map(|c| c.load(Ordering::Relaxed));
        for ((name, now), prev) in names.zip(live.chain([swaps])).zip(published.iter_mut()) {
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
            .map(|index| {
                let queue = Arc::clone(&queue);
                let worker = Worker {
                    shared: Arc::clone(&shared),
                    manager: manager.clone(),
                    config: config.clone(),
                    counters: Arc::clone(&counters),
                    index,
                    shutdown: Arc::clone(&shutdown),
                    command: command.clone(),
                };
                std::thread::spawn(move || {
                    while let Some(conn) = queue.pop() {
                        worker.serve(conn);
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

/// What one request resolves to, before anything is written: everything
/// the tail needs to send it. The body borrows from the request's epoch
/// snapshot when the cache pinned it and owns the router's bytes
/// otherwise.
struct Answer<'e> {
    status: u16,
    content_type: &'static str,
    body: Cow<'e, [u8]>,
    /// The epoch ETag, on plain-resource 200s and their 304s.
    etag: Option<&'e str>,
    /// A HEAD request: `Content-Length` reports the body, which is not
    /// sent.
    head_only: bool,
    /// Close the connection after this response.
    close: bool,
}

impl<'e> Answer<'e> {
    /// A keep-alive answer without the ETag.
    fn new(status: u16, content_type: &'static str, body: Cow<'e, [u8]>) -> Self {
        Answer {
            status,
            content_type,
            body,
            etag: None,
            head_only: false,
            close: false,
        }
    }
}

impl From<Response> for Answer<'_> {
    fn from(r: Response) -> Self {
        Answer::new(r.status, r.content_type, Cow::Owned(r.body))
    }
}

/// One worker thread's share of the server.
struct Worker {
    shared: Arc<SharedServing>,
    manager: Option<Arc<EpochManager>>,
    config: ServeConfig,
    counters: Arc<Counters>,
    /// This worker's histogram in [`Counters::latency`].
    index: usize,
    shutdown: Arc<AtomicBool>,
    /// The `/metrics` report's command line.
    command: String,
}

impl Worker {
    /// Serve one connection to completion, recording exactly one
    /// [`ConnEnd`].
    fn serve(&self, mut conn: TcpStream) {
        // Counted before the worker reads a byte, so every request on the
        // connection, `/metrics` included, sees it.
        self.counters.bump(Slot::Accepted);
        let _ = conn.set_read_timeout(Some(self.config.read_timeout));
        let _ = conn.set_nodelay(true);
        self.counters.bump(match self.drive(&mut conn) {
            ConnEnd::Clean => Slot::ClosedClean,
            ConnEnd::Timeout => Slot::ClosedTimeout,
            ConnEnd::Error => Slot::ClosedError,
        });
    }

    fn drive(&self, conn: &mut TcpStream) -> ConnEnd {
        let mut buf: Vec<u8> = Vec::new();
        let mut chunk = [0u8; 4096];
        // The reusable wire buffer: every response on this connection is
        // assembled here, so a steady-state cache hit allocates nothing.
        let mut out_buf: Vec<u8> = Vec::with_capacity(4096);
        let mut served = 0usize;
        loop {
            // Both live to the end of the request, so the span times the
            // tail too and the answer may borrow the epoch's bytes.
            let epoch;
            let _span;
            // Drain every complete request already buffered (pipelining)
            // before touching the socket again.
            let (answer, consumed, start) = match parse_head(&buf) {
                HeadParse::Complete(head, consumed) => {
                    self.counters.bump(Slot::Requests);
                    served += 1;
                    let start = Instant::now();
                    _span = webstruct_util::span!("serve.request");
                    // One epoch snapshot per request: the whole response is
                    // served from it, so a concurrent hot-swap is invisible
                    // until the next request.
                    epoch = self.shared.load();
                    let mut answer = self.resolve(&head, &epoch);
                    answer.head_only = head.method == Method::Head;
                    answer.close |= !head.keep_alive
                        || served >= self.config.max_requests_per_conn
                        || self.shutdown.load(Ordering::Relaxed);
                    (answer, consumed, Some(start))
                }
                // One response per parse error, then close: after a
                // malformed head there is no reliable way to resync the
                // stream.
                HeadParse::Error(e) => {
                    self.counters.bump(Slot::ParseErrors);
                    let answer = Answer {
                        close: true,
                        ..Answer::from(Response::from_http_error(e))
                    };
                    (answer, 0, None)
                }
                HeadParse::Partial => {
                    match conn.read(&mut chunk) {
                        // EOF with nothing buffered is the normal
                        // keep-alive end; EOF mid-head is a truncated
                        // request.
                        Ok(0) if buf.is_empty() => return ConnEnd::Clean,
                        Ok(0) => return ConnEnd::Error,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        // Deadline hit. An idle keep-alive connection is a
                        // clean close; a stalled partial head is the
                        // slow-loris case.
                        Err(e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            return if buf.is_empty() {
                                ConnEnd::Clean
                            } else {
                                ConnEnd::Timeout
                            };
                        }
                        Err(_) => return ConnEnd::Error,
                    }
                    continue;
                }
            };

            // The tail every answer ends in.
            buf.drain(..consumed);
            self.counters.bump(match answer.status / 100 {
                2 => Slot::Resp2xx,
                3 => Slot::Resp3xx,
                4 => Slot::Resp4xx,
                _ => Slot::Resp5xx,
            });
            out_buf.clear();
            write_response_head(
                &mut out_buf,
                answer.status,
                answer.content_type,
                answer.body.len(),
                answer.etag,
                !answer.close,
            );
            if !answer.head_only {
                out_buf.extend_from_slice(&answer.body);
            }
            let written = conn.write_all(&out_buf).and_then(|()| conn.flush());
            if let Some(start) = start {
                let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                self.counters.latency[self.index].0.record(micros);
            }
            // A failed write is the mid-response disconnect: the client
            // vanished while we were writing.
            if written.is_err() {
                return ConnEnd::Error;
            }
            self.counters
                .bytes_out
                .fetch_add(out_buf.len() as u64, Ordering::Relaxed);
            if answer.close {
                return ConnEnd::Clean;
            }
        }
    }

    /// Resolve a complete head against `epoch`: from the response cache
    /// when it holds the path, else from the router.
    fn resolve<'e>(&self, head: &RequestHead<'_>, epoch: &'e ServeEpoch) -> Answer<'e> {
        let readable = matches!(head.method, Method::Get | Method::Head);
        // The conditional layer: every plain-resource 200 carries the
        // epoch ETag, and a matching If-None-Match collapses it to a 304.
        // Both sides of the cache apply it, so cached and uncached servers
        // answer conditional requests identically (the digest-equality
        // guarantee).
        let revalidated = readable
            && head
                .if_none_match
                .is_some_and(|inm| if_none_match_matches(inm, &epoch.etag));

        // Cached: pinned bytes (or a 304) without building an owned
        // Request, touching the router, or allocating. `probe` first, so
        // a 304 never fills the entity slab.
        if self.config.cache && readable {
            if let Some(content_type) = epoch.cache.probe(head.path) {
                if revalidated {
                    return self.not_modified(content_type, epoch);
                }
                if let Some((cached, outcome)) = epoch.cache.lookup(&epoch.state, head.path) {
                    self.counters.bump(match outcome {
                        CacheOutcome::Hit => Slot::CacheHits,
                        CacheOutcome::Filled => Slot::CacheMisses,
                    });
                    let body = Cow::Borrowed(&*cached.body);
                    return Answer {
                        etag: Some(&epoch.etag),
                        ..Answer::new(cached.status, cached.content_type, body)
                    };
                }
            }
        }

        // Routed. A handler panic must not take the worker down: catch it
        // and answer with the 500 arm of the taxonomy.
        let req = Request::from_head(head);
        let Routed { response, control } =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(&epoch.state, &req)))
                .unwrap_or_else(|_| Routed {
                    response: Response::error(500, "internal", "handler panicked"),
                    control: Control::None,
                });
        match control {
            Control::None if response.status == 200 && readable => {
                if revalidated {
                    self.not_modified(response.content_type, epoch)
                } else {
                    Answer {
                        etag: Some(&epoch.etag),
                        ..Answer::from(response)
                    }
                }
            }
            Control::None => Answer::from(response),
            Control::Shutdown => {
                self.shutdown.store(true, Ordering::Relaxed);
                Answer {
                    close: true,
                    ..Answer::from(response)
                }
            }
            Control::Metrics => {
                self.counters.publish(self.shared.swaps());
                Answer::from(Response::ok_json(obs::run_report_json(
                    &self.command,
                    self.config.threads,
                    obs::global(),
                )))
            }
            Control::EpochSwap { fraction_bp, seed } => Answer::from(match &self.manager {
                None => Response::error(
                    404,
                    "not_found",
                    "hot-swap disabled; start the server with --watch",
                ),
                Some(mgr) => {
                    if mgr.begin_swap(&self.shared, fraction_bp, seed) {
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
            }),
        }
    }

    /// The empty-bodied 304 for a matching `If-None-Match`.
    fn not_modified<'e>(&self, content_type: &'static str, epoch: &'e ServeEpoch) -> Answer<'e> {
        self.counters.bump(Slot::CacheRevalidations);
        Answer {
            etag: Some(&epoch.etag),
            ..Answer::new(304, content_type, Cow::Borrowed(&[]))
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
