//! `serve_hot` and `serve_swap`: an open-loop replay of the simulated
//! population against an in-process server over loopback sockets.
//!
//! The load comes from [`CLIENTS`] generator threads, each owning one
//! keep-alive connection. Request `i` is due at `t0 + i / rate`; a thread
//! sleeps until its next request is due (never spins: on a small machine a
//! spinning client would take a core from the server), sends it, and
//! waits for the answer. Latency is timed from the due time, so a stall
//! also delays every request queued behind it.

use crate::measure::{
    clean_median, clean_windows, cpu_secs, median, median_of, percentile, sampled, steal_secs,
    timed, Sample, StealMeter,
};
use crate::{Ctx, Outcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use webstruct_core::epoch::Epoch;
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::Domain;
use webstruct_demand::model::{StudySite, TrafficConfig};
use webstruct_demand::traffic::RequestPlan;
use webstruct_serve::{
    route, EpochManager, Method, Request, ServeConfig, ServeEpoch, ServeState, Server,
    SharedServing,
};
use webstruct_util::rng::Seed;

/// Corpus scale of the served state.
pub const SCALE: f64 = 0.05;
/// Share of requests that revalidate with `If-None-Match`.
pub const REVALIDATE_FRAC: f64 = 0.02;
/// Generator threads, one keep-alive connection each.
pub const CLIENTS: usize = 2;
/// The fixed offered rate latency is measured at, requests per second.
pub const FIXED_RPS: f64 = 20_000.0;
/// The tail percentile stamped. At p99 the host's scheduling stalls
/// (1-30 ms, several a second on a shared 2-core VM) decide the value,
/// not the server.
const TAIL_Q: f64 = 0.90;
/// Share of the measured window spent at the fixed rate; the rest
/// measures capacity.
const FIXED_SHARE: f64 = 0.8;
/// Window over which host steal and process CPU are read during a phase,
/// and capacity throughput is counted.
const WINDOW_S: f64 = 0.25;
/// Distinct replayed requests, cycled through in order.
const PLAN_LEN: u64 = 1 << 16;
/// Cold state builds timed for `cold_s`, each into a fresh directory.
const COLD_BUILDS: usize = 3;
/// Restarts on the warm store timed for `serve_hot`'s `refresh_s`.
const REFRESH_SAMPLES: usize = 5;
/// Mutation size of one hot swap, basis points of the sites.
pub const SWAP_FRACTION_BP: u64 = 100;

/// A pre-rendered request: wire bytes plus the resource path it names.
pub struct Planned {
    pub wire: Vec<u8>,
    pub path: String,
    pub conditional: bool,
}

pub fn new_epoch(seed: Seed) -> Epoch {
    let config = StudyConfig::default().with_scale(SCALE).with_seed(seed);
    Epoch::new(Domain::Restaurants, config)
}

pub fn corpus_seed(ctx: &Ctx) -> Seed {
    ctx.corpus_seed(Domain::Restaurants, SCALE)
}

/// The `webstruct replay` request plan (Amazon preset, scaled), with its
/// first [`PLAN_LEN`] requests rendered to wire bytes.
pub fn plan(ctx: &Ctx, n_entities: usize, validator: &str) -> Vec<Planned> {
    let plan = RequestPlan::new(
        &TrafficConfig::preset(StudySite::Amazon).scaled(SCALE),
        n_entities,
        Seed(ctx.seed).derive("perfbench-plan"),
    )
    .with_revalidate_frac(REVALIDATE_FRAC);
    (0..PLAN_LEN)
        .map(|i| {
            let r = plan.request(i);
            let wire = if r.conditional {
                format!(
                    "GET {} HTTP/1.1\r\nIf-None-Match: {validator}\r\n\r\n",
                    r.path
                )
            } else {
                format!("GET {} HTTP/1.1\r\n\r\n", r.path)
            };
            let path = r.path.split('?').next().unwrap_or("").to_string();
            Planned {
                wire: wire.into_bytes(),
                path,
                conditional: r.conditional,
            }
        })
        .collect()
}

/// Status and body the router gives a plain GET of `path`.
pub fn reference(state: &ServeState, path: &str) -> (u16, Vec<u8>) {
    let req = Request {
        method: Method::Get,
        path: path.to_string(),
        query: Vec::new(),
        if_none_match: None,
        http11: true,
        keep_alive: true,
    };
    let r = route(state, &req).response;
    (r.status, r.body)
}

/// How responses are checked.
pub enum Check {
    /// Exact status and body from the in-process router; `etag` is the
    /// one validator every tagged response must carry.
    Reference {
        bodies: HashMap<String, (u16, Vec<u8>)>,
        etag: String,
    },
    /// Only 2xx/304, and one body per path within one ETag.
    Consistency,
}

/// One parsed response, as ranges into the connection's buffer.
struct Reply {
    status: u16,
    etag: Range<usize>,
    body: Range<usize>,
    close: bool,
}

/// A keep-alive client connection that reconnects after the server
/// closes it (the per-connection request cap), reusing one buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    pub connects: u64,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Self {
        Conn {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
            connects: 0,
        }
    }

    fn roundtrip(&mut self, req: &[u8]) -> std::io::Result<Reply> {
        loop {
            let fresh = self.stream.is_none();
            if fresh {
                let s = TcpStream::connect(self.addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(Some(Duration::from_secs(10)))?;
                self.stream = Some(s);
                self.connects += 1;
            }
            match self.exchange(req) {
                Ok(r) => {
                    if r.close {
                        self.stream = None;
                    }
                    return Ok(r);
                }
                // A reused connection may have been closed by the server
                // between requests: retry once on a fresh one.
                Err(e) => {
                    self.stream = None;
                    if fresh {
                        return Err(e);
                    }
                }
            }
        }
    }

    fn exchange(&mut self, req: &[u8]) -> std::io::Result<Reply> {
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(req)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 << 10];
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = &self.buf[..head_end];
        let bad = || std::io::Error::from(std::io::ErrorKind::InvalidData);
        let status = head
            .get(9..12)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse().ok())
            .ok_or_else(bad)?;
        let mut len = 0usize;
        let mut etag = 0..0;
        let mut close = false;
        let mut at = 0usize;
        for line in head.split(|&b| b == b'\n') {
            let start = at;
            at += line.len() + 1;
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let Some(colon) = line.iter().position(|&b| b == b':') else {
                continue;
            };
            let name = &line[..colon];
            let value = std::str::from_utf8(&line[colon + 1..]).map_err(|_| bad())?;
            let trimmed = value.trim();
            if name.eq_ignore_ascii_case(b"content-length") {
                len = trimmed.parse().map_err(|_| bad())?;
            } else if name.eq_ignore_ascii_case(b"connection") {
                close = trimmed.eq_ignore_ascii_case("close");
            } else if name.eq_ignore_ascii_case(b"etag") {
                let off = start + colon + 1 + (value.len() - value.trim_start().len());
                etag = off..off + trimmed.len();
            }
        }
        let body_start = head_end + 4;
        while self.buf.len() < body_start + len {
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            etag,
            body: body_start..body_start + len,
            close,
        })
    }
}

/// Swap triggering for `serve_swap`, run by generator thread 0 between
/// its requests.
pub struct SwapCtl {
    pub shared: Arc<SharedServing>,
    pub manager: Arc<EpochManager>,
    pub seed: u64,
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// `(request index, latency from its due time in ns)` for every
    /// request sent; a failed request reads `u64::MAX`, so it misses any
    /// latency limit.
    pub latency_ns: Vec<(u64, u64)>,
    /// How late the generator sent each request, ns.
    pub late_ns: Vec<u64>,
    pub ok: u64,
    pub failed: u64,
    /// Requests never sent because the phase overran its deadline.
    pub dropped: u64,
    /// Completed swaps: trigger to publish, seconds, with host steal.
    pub swaps: Vec<Sample>,
    pub wall_s: f64,
    /// The offered rate.
    pub rate: f64,
    /// Per [`WINDOW_S`] window from the phase start: host steal
    /// share and process CPU seconds.
    pub windows: Vec<(f64, f64)>,
    /// Per-(etag, path) body hashes, for the consistency check.
    bodies: HashMap<(String, String), u64>,
}

impl Phase {
    pub fn sorted_latency_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latency_ns
            .iter()
            .map(|&(_, n)| n as f64 / 1e6)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Latencies (ms, ascending) of the requests due in windows the host
    /// left alone, with the process CPU seconds per such request.
    pub fn clean_latency_ms(&self) -> (Vec<f64>, f64) {
        let shares: Vec<f64> = self.windows.iter().map(|w| w.0).collect();
        let keep = clean_windows(&shares);
        let per_window = self.rate * WINDOW_S;
        let mut kept: Vec<f64> = self
            .latency_ns
            .iter()
            .filter(|&&(i, _)| keep.get((i as f64 / per_window) as usize) == Some(&true))
            .map(|&(_, n)| n as f64 / 1e6)
            .collect();
        kept.sort_by(f64::total_cmp);
        let cpu: f64 = self
            .windows
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(w, _)| w.1)
            .sum();
        let per_request = cpu / kept.len().max(1) as f64;
        (kept, per_request)
    }

    fn absorb(&mut self, other: Phase) {
        self.latency_ns.extend(other.latency_ns);
        self.late_ns.extend(other.late_ns);
        self.ok += other.ok;
        self.failed += other.failed;
        self.dropped += other.dropped;
        self.swaps.extend(other.swaps);
        for (k, v) in other.bodies {
            match self.bodies.get(&k) {
                Some(&prev) if prev != v => self.failed += 1,
                _ => {
                    self.bodies.insert(k, v);
                }
            }
        }
    }
}

mod slack {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;

    /// Let this thread's sleeps end within 1 µs of their deadline instead
    /// of the default 50 µs slack, so pacing with sleeps stays accurate.
    pub fn tighten() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long (nanoseconds)
        // and only changes the calling thread's timer slack; no memory is
        // passed to the kernel.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000u64);
        }
    }
}

fn body_hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

/// Drive `rate` requests per second for `secs` over `conns`, starting
/// at plan position `start`.
pub fn drive(
    conns: &mut [Conn],
    reqs: &[Planned],
    check: &Check,
    rate: f64,
    secs: f64,
    start: u64,
    swap: Option<&SwapCtl>,
) -> Phase {
    let total = (rate * secs).round() as u64;
    let k = conns.len() as u64;
    let t0 = Instant::now() + Duration::from_millis(2);
    let deadline = t0 + Duration::from_secs_f64(secs + 1.0);
    let mut marks: Vec<(f64, f64)> = Vec::new();
    let phases: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let swap = if c == 0 { swap } else { None };
                s.spawn(move || {
                    slack::tighten();
                    let mut p = Phase {
                        latency_ns: Vec::with_capacity((total / k + 1) as usize),
                        late_ns: Vec::with_capacity((total / k + 1) as usize),
                        ..Phase::default()
                    };
                    let mut swapper = swap.map(SwapState::new);
                    let mut i = c as u64;
                    while i < total {
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if now > deadline {
                            p.dropped += (total - i).div_ceil(k);
                            break;
                        }
                        if let Some(sw) = swapper.as_mut() {
                            sw.poll(conn);
                        }
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let planned = &reqs[((start + i) % PLAN_LEN) as usize];
                        match conn.roundtrip(&planned.wire) {
                            Ok(reply) => {
                                let done = Instant::now();
                                p.latency_ns.push((i, (done - due).as_nanos() as u64));
                                p.late_ns
                                    .push(sent.saturating_duration_since(due).as_nanos() as u64);
                                let ok = judge(check, planned, &reply, &conn.buf, &mut p.bodies);
                                if ok {
                                    p.ok += 1;
                                } else {
                                    p.failed += 1;
                                }
                            }
                            Err(_) => {
                                p.latency_ns.push((i, u64::MAX));
                                p.failed += 1;
                            }
                        }
                        i += k;
                    }
                    if let Some(sw) = swapper {
                        p.swaps = sw.times;
                    }
                    p
                })
            })
            .collect();
        // Read host steal and process CPU at every window boundary while
        // the generators run.
        std::thread::sleep(t0.saturating_duration_since(Instant::now()));
        marks.push((steal_secs(), cpu_secs()));
        let mut k = 1u32;
        while !handles.iter().all(|h| h.is_finished()) {
            let boundary = t0 + Duration::from_secs_f64(f64::from(k) * WINDOW_S);
            let now = Instant::now();
            if now >= boundary {
                marks.push((steal_secs(), cpu_secs()));
                k += 1;
            } else {
                std::thread::sleep((boundary - now).min(Duration::from_millis(10)));
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut out = Phase::default();
    for p in phases {
        out.absorb(p);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.rate = rate;
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64;
    out.windows = marks
        .windows(2)
        .map(|m| ((m[1].0 - m[0].0) / (WINDOW_S * cpus), m[1].1 - m[0].1))
        .collect();
    out
}

/// Check one reply against the workload's rule.
fn judge(
    check: &Check,
    planned: &Planned,
    reply: &Reply,
    buf: &[u8],
    seen: &mut HashMap<(String, String), u64>,
) -> bool {
    let body = &buf[reply.body.clone()];
    let etag = &buf[reply.etag.clone()];
    match check {
        Check::Reference { bodies, etag: want } => {
            let Some((status, expect)) = bodies.get(&planned.path) else {
                return false;
            };
            if *status == 200 {
                if etag != want.as_bytes() {
                    return false;
                }
                if planned.conditional {
                    return reply.status == 304 && body.is_empty();
                }
            }
            reply.status == *status && body == expect.as_slice()
        }
        Check::Consistency => {
            if !(reply.status / 100 == 2 || reply.status == 304) {
                return false;
            }
            if reply.status == 304 {
                return true;
            }
            let key = (
                String::from_utf8_lossy(etag).into_owned(),
                planned.path.clone(),
            );
            let h = body_hash(body);
            match seen.get(&key) {
                Some(&prev) => prev == h,
                None => {
                    seen.insert(key, h);
                    true
                }
            }
        }
    }
}

/// Back-to-back swap triggering: the next `POST /admin/epoch` fires once
/// the previous swap has been published.
struct SwapState<'a> {
    ctl: &'a SwapCtl,
    pending: Option<(Instant, StealMeter, u64)>,
    fired: u64,
    times: Vec<Sample>,
}

impl<'a> SwapState<'a> {
    fn new(ctl: &'a SwapCtl) -> Self {
        SwapState {
            ctl,
            pending: None,
            fired: 0,
            times: Vec::new(),
        }
    }

    fn poll(&mut self, conn: &mut Conn) {
        if let Some((t, meter, before)) = &self.pending {
            if self.ctl.shared.swaps() <= *before {
                return;
            }
            self.times.push((t.elapsed().as_secs_f64(), meter.share()));
            self.pending = None;
        }
        if self.ctl.manager.swap_in_flight() {
            return;
        }
        let before = self.ctl.shared.swaps();
        let seed = Seed(self.ctl.seed).derive_u64(self.fired).0;
        let wire = format!(
            "POST /admin/epoch?fraction_bp={SWAP_FRACTION_BP}&seed={seed} HTTP/1.1\r\n\r\n"
        );
        let (t, meter) = (Instant::now(), StealMeter::start());
        if let Ok(reply) = conn.roundtrip(wire.as_bytes()) {
            if reply.status == 200 {
                self.fired += 1;
                self.pending = Some((t, meter, before));
            }
        }
    }
}

/// Capacity: the rate at which the connections complete requests when
/// each sends its next request as soon as the previous answer arrives.
/// Any higher offered rate leaves a growing backlog. Counted per
/// [`WINDOW_S`] window; the median window is reported, so a host
/// stall costs one window, not the run.
fn capacity(
    conns: &mut [Conn],
    reqs: &[Planned],
    check: &Check,
    secs: f64,
    swap: Option<&SwapCtl>,
    o: &mut Outcome,
) -> (f64, Vec<Sample>) {
    let k = conns.len() as u64;
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(secs);
    let done: Vec<(Vec<f64>, u64, u64, Vec<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let swap = if c == 0 { swap } else { None };
                s.spawn(move || {
                    let mut swapper = swap.map(SwapState::new);
                    let mut seen = HashMap::new();
                    let (mut at, mut ok, mut failed) = (Vec::new(), 0u64, 0u64);
                    let mut i = c as u64;
                    while Instant::now() < end {
                        if let Some(sw) = swapper.as_mut() {
                            sw.poll(conn);
                        }
                        let planned = &reqs[(i % PLAN_LEN) as usize];
                        match conn.roundtrip(&planned.wire) {
                            Ok(reply) if judge(check, planned, &reply, &conn.buf, &mut seen) => {
                                ok += 1;
                                at.push(t0.elapsed().as_secs_f64());
                            }
                            _ => failed += 1,
                        }
                        i += k;
                    }
                    (
                        at,
                        ok,
                        failed,
                        swapper.map(|sw| sw.times).unwrap_or_default(),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let windows = (secs / WINDOW_S).floor() as usize;
    let mut counts = vec![0u64; windows];
    let mut swaps = Vec::new();
    for (at, ok, failed, swapped) in &done {
        swaps.extend_from_slice(swapped);
        o.attempted += ok + failed;
        o.failed += failed;
        for &t in at {
            if let Some(c) = counts.get_mut((t / WINDOW_S) as usize) {
                *c += 1;
            }
        }
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / WINDOW_S).collect();
    (median(&rates), swaps)
}

/// Build serving state into a fresh `dir` and pre-render its cache.
pub fn build_state(epoch: &Epoch, dir: &Path, threads: usize) -> Option<ServeEpoch> {
    ServeState::from_epoch(epoch, dir, threads)
        .ok()
        .map(|s| ServeEpoch::new(Arc::new(s)))
}

pub fn run(ctx: &Ctx, swapping: bool) -> Outcome {
    let mut o = Outcome::default();
    o.stamp("scale", SCALE);
    o.stamp(
        "shard_bytes",
        webstruct_core::epoch::DEFAULT_EPOCH_SHARD_BYTES,
    );
    o.stamp("offered_rps", FIXED_RPS);
    o.stamp("clients", CLIENTS);

    let seed = corpus_seed(ctx);
    o.stamp("corpus_seed", seed.0);
    let (epoch, setup) = median_of(5, || new_epoch(seed));
    // Three cold builds, each into a fresh directory; the last one serves.
    let mut served = None;
    let mut cold = Vec::new();
    for n in 0..COLD_BUILDS {
        let (state, sample) =
            sampled(|| build_state(&epoch, &ctx.work.join(format!("cold-{n}")), ctx.threads));
        served = state;
        cold.push(sample);
    }
    let dir = ctx.work.join(format!("cold-{}", COLD_BUILDS - 1));
    o.stamp("cold_s", clean_median(&cold).0);
    let Some(served) = served else {
        o.check(false, "serving state builds in a fresh directory");
        return o;
    };
    let state = Arc::clone(&served.state);
    let etag = served.etag.to_string();
    let (reqs, plan_s) = timed(|| plan(ctx, state.catalog.len(), &etag));
    o.set("setup_s", setup + plan_s);

    let check = if swapping {
        Check::Consistency
    } else {
        // Every path the plan can name: entity cards plus the aggregates.
        let mut bodies = HashMap::new();
        for p in &reqs {
            if !bodies.contains_key(&p.path) {
                bodies.insert(p.path.clone(), reference(&state, &p.path));
            }
        }
        Check::Reference {
            bodies,
            etag: etag.clone(),
        }
    };

    let shared = Arc::new(SharedServing::new(served));
    // With swaps the manager owns the epoch; without, it stays here for
    // the restart measurement.
    let (manager, epoch) = if swapping {
        let m = Arc::new(EpochManager::new(epoch, dir.clone(), ctx.threads));
        (Some(m), None)
    } else {
        (None, Some(epoch))
    };
    let config = ServeConfig {
        threads: ctx.threads,
        ..ServeConfig::default()
    };
    let server =
        match Server::start_with(Arc::clone(&shared), manager.clone(), &config, "127.0.0.1:0") {
            Ok(s) => s,
            Err(e) => {
                o.check(false, &format!("bind loopback: {e}"));
                return o;
            }
        };
    let addr = server.local_addr();
    let swap = manager.as_ref().map(|m| SwapCtl {
        shared: Arc::clone(&shared),
        manager: Arc::clone(m),
        seed: Seed(ctx.seed).derive("perfbench-swap").0,
    });
    let mut conns: Vec<Conn> = (0..CLIENTS).map(|_| Conn::new(addr)).collect();

    // Warm the entity slab and the connections before timing.
    let warm = drive(
        &mut conns,
        &reqs,
        &check,
        FIXED_RPS,
        0.3,
        PLAN_LEN / 2,
        None,
    );
    o.attempted += warm.ok + warm.failed;
    o.failed += warm.failed;

    let fixed_s = ctx.seconds * FIXED_SHARE;
    let p = drive(
        &mut conns,
        &reqs,
        &check,
        FIXED_RPS,
        fixed_s,
        0,
        swap.as_ref(),
    );
    o.attempted += p.ok + p.failed + p.dropped;
    o.failed += p.failed + p.dropped;
    let (clean, cpu_per_request) = p.clean_latency_ms();
    o.set("op_p50_ms", percentile(&clean, 0.5).unwrap_or(0.0));
    o.set("cpu_ms_per_op", cpu_per_request * 1e3);
    o.stamp(
        "requests_used",
        format!("{} of {}", clean.len(), p.latency_ns.len()),
    );
    o.stamp("op_tail_ms", percentile(&clean, TAIL_Q).unwrap_or(0.0));
    let sorted = p.sorted_latency_ms();
    let mut late: Vec<u64> = p.late_ns.clone();
    late.sort_unstable();
    o.stamp("samples", sorted.len());
    o.stamp("conns", conns.iter().map(|c| c.connects).sum::<u64>());
    o.stamp("p99_ms", percentile(&sorted, 0.99).unwrap_or(0.0));
    o.stamp(
        "gen_late_p99_ms",
        percentile(&late, 0.99).unwrap_or(0) as f64 / 1e6,
    );
    o.stamp("achieved_rps", sorted.len() as f64 / p.wall_s);

    let (capacity, more_swaps) = capacity(
        &mut conns,
        &reqs,
        &check,
        ctx.seconds - fixed_s,
        swap.as_ref(),
        &mut o,
    );
    o.stamp("capacity_rps", capacity);
    let mut swaps = p.swaps.clone();
    swaps.extend(more_swaps);

    if let Some(ctl) = &swap {
        // Let an in-flight rebuild finish so the server drains cleanly.
        let t = Instant::now();
        while ctl.manager.swap_in_flight() && t.elapsed() < Duration::from_secs(60) {
            std::thread::sleep(Duration::from_millis(5));
        }
        o.check(!swaps.is_empty(), "at least one swap published under load");
        o.stamp("refresh_s", clean_median(&swaps).0);
        o.stamp("swaps", swaps.len());
    }
    drop(conns);
    server.shutdown();
    let stats = server.join();
    o.check(stats.is_consistent(), "server connection accounting");
    let lookups = stats.cache_hits + stats.cache_misses + stats.cache_revalidations;
    o.stamp(
        "cache_hit_rate",
        (lookups - stats.cache_misses) as f64 / lookups.max(1) as f64,
    );

    if let Some(mut epoch) = epoch {
        // Without a watcher a change is served after a restart on the warm
        // store: mutate 1%, rebuild the state, pre-render the cache.
        let mut rebuilt = None;
        let mut refresh = Vec::new();
        for i in 0..REFRESH_SAMPLES {
            epoch.mutate(
                SWAP_FRACTION_BP as f64 / 10_000.0,
                Seed(ctx.seed)
                    .derive("perfbench-refresh")
                    .derive_u64(i as u64),
            );
            let (state, sample) = sampled(|| build_state(&epoch, &dir, ctx.threads));
            rebuilt = state;
            refresh.push(sample);
        }
        let refresh = clean_median(&refresh).0;
        o.check(
            rebuilt.is_some_and(|r| r.state.report.cache_hits > 0),
            "warm rebuild replays cached extraction",
        );
        o.stamp("refresh_s", refresh);
    }
    o
}
