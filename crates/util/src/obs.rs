//! Structured observability: hierarchical spans, metric registries and a
//! per-run event log — std-only and deterministic where it counts.
//!
//! A measurement study lives or dies on being able to account for every
//! page rendered, entity extracted and fetch retried. This module is the
//! accounting layer the rest of the workspace reports into:
//!
//! * [`Metrics`] — named **counter / gauge / histogram** registries. The
//!   hot paths never touch the registry per item: each shard accumulates
//!   into scratch-local plain integers (or a [`LocalHistogram`]) and
//!   publishes one merged total when it finishes. Because every published
//!   value is a pure function of the workload — never of scheduling — the
//!   full registry [`Metrics::snapshot`] renders **byte-identically for
//!   any `WEBSTRUCT_THREADS`**, which the determinism suite asserts.
//! * [`Trace`] — hierarchical spans ([`span!`](crate::span)) with wall-clock timing
//!   (plus optional [`SimClock`](crate::fault::SimClock) tick counts) and
//!   a sequenced event log. Wall-clock durations are inherently
//!   non-deterministic, so spans live *outside* the deterministic metric
//!   snapshot; they serialise to a chrome-trace `trace.json` and to the
//!   human-readable tree `WEBSTRUCT_TRACE=pretty` prints.
//! * [`run_report_json`] — the `artifacts/RUN_REPORT.json` artifact: the
//!   command, spans, events, and the metric snapshot as the final key so
//!   shell tooling can split the deterministic tail off with one `sed`.
//!
//! Tracing is **off by default** and costs one relaxed atomic load per
//! [`span!`](crate::span) site when disabled; metric publication is always on (it is a
//! handful of map operations per *run*, not per page).

use crate::wire::Reader;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Environment variable selecting the trace sink: `json`, `pretty` or
/// `off` (default).
pub const TRACE_ENV: &str = "WEBSTRUCT_TRACE";

/// How the CLI should emit the run's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// No tracing; spans are no-ops.
    Off,
    /// Emit `artifacts/RUN_REPORT.json` plus a chrome-trace `trace.json`.
    Json,
    /// Emit `artifacts/RUN_REPORT.json` plus a span tree on stderr.
    Pretty,
}

impl TraceMode {
    /// Parse [`TRACE_ENV`]. Unset, empty, `off` and unrecognised values
    /// all mean [`TraceMode::Off`].
    #[must_use]
    pub fn from_env() -> Self {
        match std::env::var(TRACE_ENV).as_deref() {
            Ok("json") => TraceMode::Json,
            Ok("pretty") => TraceMode::Pretty,
            _ => TraceMode::Off,
        }
    }

    /// Whether spans should be recorded under this mode.
    #[must_use]
    pub fn is_on(self) -> bool {
        self != TraceMode::Off
    }
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins `f64` gauge (stored as bit pattern).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Number of log₂ buckets a histogram tracks (`u64` value range).
pub const HIST_BUCKETS: usize = 65;

/// A scratch-local log₂-bucketed histogram of `u64` samples.
///
/// This is the shard-side half of the histogram story: each worker
/// records into its own `LocalHistogram` (one array increment per
/// sample, no atomics, no locks), and the owners merge shard histograms
/// in fixed order before publishing one total via
/// [`Metrics::merge_histogram`]. Bucket `i` counts samples whose value
/// has bit length `i` (bucket 0 is exactly the value 0), so merging is
/// plain element-wise addition and the result is independent of shard
/// boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalHistogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

/// Bucket index of a sample: 0 for the value 0, else its bit length
/// (`64 - leading_zeros`), so bucket `i ≥ 1` spans `[2^(i-1), 2^i)`.
#[must_use]
fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `i`.
#[must_use]
fn bucket_floor(i: usize) -> u64 {
    if i <= 1 {
        // Bucket 0 holds the value 0; bucket 1 holds exactly 1.
        i as u64
    } else {
        1u64 << (i - 1)
    }
}

impl LocalHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        LocalHistogram::default()
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
    }

    /// Fold another histogram into this one (element-wise addition).
    pub fn merge(&mut self, other: &LocalHistogram) {
        for (d, s) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *d += s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// [`merge`](LocalHistogram::merge) as a checked, non-mutating sum:
    /// the merged histogram, or `None` when a bucket or the count would
    /// overflow. The sum saturates, as in `merge`.
    #[must_use]
    pub fn checked_merge(&self, other: &LocalHistogram) -> Option<LocalHistogram> {
        let mut out = self.clone();
        for (d, s) in out.buckets.iter_mut().zip(other.buckets.iter()) {
            *d = d.checked_add(*s)?;
        }
        out.count = out.count.checked_add(other.count)?;
        out.sum = out.sum.saturating_add(other.sum);
        Some(out)
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Whether no sample has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs, ascending.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_floor(i), c))
            .collect()
    }

    /// Serialized size of [`to_bytes`](LocalHistogram::to_bytes): all 65
    /// buckets plus count and sum, little-endian u64s.
    pub const WIRE_LEN: usize = (HIST_BUCKETS + 2) * 8;

    /// Canonical fixed-width encoding, for embedding in content-addressed
    /// snapshots: the same histogram always serializes to the same bytes.
    #[must_use]
    pub fn to_bytes(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        for (i, b) in self.buckets.iter().enumerate() {
            out[i * 8..i * 8 + 8].copy_from_slice(&b.to_le_bytes());
        }
        out[HIST_BUCKETS * 8..HIST_BUCKETS * 8 + 8].copy_from_slice(&self.count.to_le_bytes());
        out[(HIST_BUCKETS + 1) * 8..].copy_from_slice(&self.sum.to_le_bytes());
        out
    }

    /// Decode [`to_bytes`](LocalHistogram::to_bytes) output. Returns
    /// `None` when `bytes` is not exactly
    /// [`WIRE_LEN`](LocalHistogram::WIRE_LEN) long.
    #[must_use]
    pub fn from_bytes(bytes: &[u8]) -> Option<LocalHistogram> {
        let mut r = Reader::new(bytes);
        let mut h = LocalHistogram::new();
        for b in &mut h.buckets {
            *b = r.u64().ok()?;
        }
        h.count = r.u64().ok()?;
        h.sum = r.u64().ok()?;
        (r.remaining() == 0).then_some(h)
    }
}

/// The shared half of a histogram: the registry-resident accumulator
/// shard-local histograms merge into.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(HIST_BUCKETS)
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one sample directly (registry-side; shard loops should use
    /// [`LocalHistogram`] and merge instead).
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Fold a scratch-local histogram in.
    pub fn merge(&self, local: &LocalHistogram) {
        for (dst, &src) in self.buckets.iter().zip(local.buckets.iter()) {
            if src > 0 {
                dst.fetch_add(src, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(local.count, Ordering::Relaxed);
        self.sum.fetch_add(local.sum, Ordering::Relaxed);
    }

    /// A point-in-time copy as a [`LocalHistogram`].
    #[must_use]
    pub fn load(&self) -> LocalHistogram {
        let mut out = LocalHistogram::new();
        for (d, s) in out.buckets.iter_mut().zip(self.buckets.iter()) {
            *d = s.load(Ordering::Relaxed);
        }
        out.count = self.count.load(Ordering::Relaxed);
        out.sum = self.sum.load(Ordering::Relaxed);
        out
    }
}

/// Named registries of counters, gauges and histograms.
///
/// Registration is name-keyed and idempotent; values are atomics, so
/// handles can be incremented from any thread. The snapshot iterates
/// names in sorted (`BTreeMap`) order, which makes its rendering a pure
/// function of the registered values.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Metrics {
    /// Empty registries.
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// Panics if the registry lock was poisoned.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        if let Some(c) = map.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        map.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// The gauge named `name`, registering it at zero on first use.
    ///
    /// # Panics
    /// Panics if the registry lock was poisoned.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        if let Some(g) = map.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::default());
        map.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// The histogram named `name`, registering it empty on first use.
    ///
    /// # Panics
    /// Panics if the registry lock was poisoned.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        if let Some(h) = map.get(name) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.insert(name.to_string(), Arc::clone(&h));
        h
    }

    /// Add `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.counter(name).add(delta);
    }

    /// Set the gauge `name`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.gauge(name).set(value);
    }

    /// Record one histogram sample under `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// Merge a scratch-local histogram into the histogram `name`.
    pub fn merge_histogram(&self, name: &str, local: &LocalHistogram) {
        if !local.is_empty() {
            self.histogram(name).merge(local);
        }
    }

    /// Forget every registered metric. Determinism tests call this before
    /// a measured run so the snapshot contains exactly that run's output.
    ///
    /// # Panics
    /// Panics if a registry lock was poisoned.
    pub fn reset(&self) {
        self.counters.lock().expect("counter registry poisoned").clear();
        self.gauges.lock().expect("gauge registry poisoned").clear();
        self.histograms
            .lock()
            .expect("histogram registry poisoned")
            .clear();
    }

    /// A point-in-time copy of every registered metric.
    ///
    /// # Panics
    /// Panics if a registry lock was poisoned.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen copy of the registries, renderable deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram contents by name.
    pub histograms: BTreeMap<String, LocalHistogram>,
}

impl MetricsSnapshot {
    /// Deterministic JSON rendering: keys sorted, values printed with
    /// Rust's shortest-round-trip float formatting, byte-identical for
    /// identical metric values.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// The workload-deterministic half of [`MetricsSnapshot::to_json`]:
    /// counters and histograms only. Gauges are *declared*
    /// non-deterministic — they carry timing- and schedule-derived
    /// readings (throughput, per-worker byte totals, peak RSS) whose
    /// values legitimately vary with `WEBSTRUCT_THREADS` — so the
    /// determinism suite and the cross-thread-count byte comparisons use
    /// this rendering, while `RUN_REPORT.json` reports gauges under their
    /// own (non-compared) key.
    #[must_use]
    pub fn to_deterministic_json(&self) -> String {
        self.render_json(false)
    }

    /// The one body behind [`MetricsSnapshot::to_json`] and
    /// [`MetricsSnapshot::to_deterministic_json`]: counters, then the
    /// gauges when `with_gauges`, then histograms.
    fn render_json(&self, with_gauges: bool) -> String {
        let mut out = String::from("{\n    \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("      \"{}\": {v}", escape_json(k)));
        }
        out.push_str(if first { "},\n" } else { "\n    },\n" });
        if with_gauges {
            out.push_str("    \"gauges\": {");
            first = true;
            for (k, v) in &self.gauges {
                out.push_str(if first { "\n" } else { ",\n" });
                first = false;
                out.push_str(&format!("      \"{}\": {v}", escape_json(k)));
            }
            out.push_str(if first { "},\n" } else { "\n    },\n" });
        }
        out.push_str("    \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            let buckets = h
                .nonzero_buckets()
                .iter()
                .map(|(lo, c)| format!("\"{lo}\": {c}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "      \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": {{{buckets}}}}}",
                escape_json(k),
                h.count(),
                h.sum(),
            ));
        }
        out.push_str(if first { "}\n  }" } else { "\n    }\n  }" });
        out
    }

    /// Just the gauges, as one flat JSON object (the non-deterministic
    /// complement of [`MetricsSnapshot::to_deterministic_json`]).
    #[must_use]
    pub fn gauges_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        for (k, v) in &self.gauges {
            out.push_str(if first { "\n" } else { ",\n" });
            first = false;
            out.push_str(&format!("    \"{}\": {v}", escape_json(k)));
        }
        out.push_str(if first { "}" } else { "\n  }" });
        out
    }

    /// Deterministic `name value` lines (counters and gauges only).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k} {v}\n"));
        }
        out
    }
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace (creation order).
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Label, e.g. `"family:spread"` or `"extract_shard sites=0..40"`.
    pub name: String,
    /// Dense per-process thread ordinal the span ran on.
    pub thread: u64,
    /// Start, µs since the trace epoch.
    pub start_us: u64,
    /// Wall-clock duration in µs.
    pub dur_us: u64,
    /// Simulated-clock ticks attributed to the span (0 unless the caller
    /// stamped a [`SimClock`](crate::fault::SimClock) reading).
    pub sim_ticks: u64,
}

/// One log event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// Global sequence number (creation order).
    pub seq: u64,
    /// Event text.
    pub name: String,
    /// Dense per-process thread ordinal the event fired on.
    pub thread: u64,
    /// µs since the trace epoch.
    pub at_us: u64,
}

/// A span/event recorder. Disabled by default: [`Trace::span`] returns an
/// inert guard and records nothing until [`Trace::set_enabled`]`(true)`.
#[derive(Debug)]
pub struct Trace {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_seq: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    events: Mutex<Vec<EventRecord>>,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            next_seq: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            events: Mutex::new(Vec::new()),
        }
    }
}

thread_local! {
    /// Per-thread stack of open span ids (parent attribution).
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Dense per-process ordinal of the current thread (0, 1, 2, … in first-
/// use order) — a stable `tid` for trace output, unlike the opaque
/// [`std::thread::ThreadId`].
#[must_use]
pub fn thread_ordinal() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static ORDINAL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    ORDINAL.with(|o| *o)
}

impl Trace {
    /// A fresh, disabled trace with its epoch at "now".
    #[must_use]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Turn span/event recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span. When tracing is disabled this is one atomic load and
    /// the guard is inert. Use the [`span!`](crate::span) macro to avoid
    /// even building the name string in that case.
    #[must_use]
    pub fn span(&self, name: String) -> Span<'_> {
        if !self.is_enabled() {
            return Span { data: None };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        Span {
            data: Some(SpanData {
                trace: self,
                id,
                parent,
                name,
                start: Instant::now(),
                sim_ticks: 0,
            }),
        }
    }

    /// Append an event to the log (no-op while disabled).
    pub fn event(&self, name: String) {
        if !self.is_enabled() {
            return;
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let at_us = self.epoch.elapsed().as_micros() as u64;
        self.events
            .lock()
            .expect("event log poisoned")
            .push(EventRecord {
                seq,
                name,
                thread: thread_ordinal(),
                at_us,
            });
    }

    /// Completed spans so far, sorted by `(start_us, id)`.
    ///
    /// # Panics
    /// Panics if the span log lock was poisoned.
    #[must_use]
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|s| (s.start_us, s.id));
        spans
    }

    /// Events so far, in sequence order.
    ///
    /// # Panics
    /// Panics if the event log lock was poisoned.
    #[must_use]
    pub fn events(&self) -> Vec<EventRecord> {
        let mut events = self.events.lock().expect("event log poisoned").clone();
        events.sort_by_key(|e| e.seq);
        events
    }

    /// Drop every recorded span and event (the enabled flag is kept).
    ///
    /// # Panics
    /// Panics if a log lock was poisoned.
    pub fn reset(&self) {
        self.spans.lock().expect("span log poisoned").clear();
        self.events.lock().expect("event log poisoned").clear();
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON: one complete
    /// (`"ph": "X"`) event per span, one instant event per log entry.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        let spans = self.spans();
        let events = self.events();
        for (i, s) in spans.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}, \"args\": {{\"sim_ticks\": {}}}}}{}\n",
                escape_json(&s.name),
                s.thread,
                s.start_us,
                s.dur_us,
                s.sim_ticks,
                if i + 1 < spans.len() || !events.is_empty() {
                    ","
                } else {
                    ""
                }
            ));
        }
        for (i, e) in events.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}}}{}\n",
                escape_json(&e.name),
                e.thread,
                e.at_us,
                if i + 1 < events.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        out
    }

    /// Human-readable span tree (children indented under parents, in
    /// start order), for `WEBSTRUCT_TRACE=pretty`.
    #[must_use]
    pub fn to_pretty(&self) -> String {
        let spans = self.spans();
        let mut children: BTreeMap<Option<u64>, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &spans {
            children.entry(s.parent).or_default().push(s);
        }
        let mut out = String::new();
        fn walk(
            out: &mut String,
            children: &BTreeMap<Option<u64>, Vec<&SpanRecord>>,
            parent: Option<u64>,
            depth: usize,
        ) {
            let Some(kids) = children.get(&parent) else {
                return;
            };
            for s in kids {
                let ms = s.dur_us as f64 / 1000.0;
                out.push_str(&format!("{}{} — {ms:.2} ms", "  ".repeat(depth), s.name));
                if s.sim_ticks > 0 {
                    out.push_str(&format!(" ({} sim ticks)", s.sim_ticks));
                }
                out.push('\n');
                walk(out, children, Some(s.id), depth + 1);
            }
        }
        walk(&mut out, &children, None, 0);
        for e in self.events() {
            out.push_str(&format!("! {} (t+{} µs)\n", e.name, e.at_us));
        }
        out
    }

    fn record(&self, record: SpanRecord) {
        self.spans.lock().expect("span log poisoned").push(record);
    }
}

/// RAII span guard: records the span on drop. Inert (free) when the
/// trace was disabled at creation.
#[derive(Debug)]
pub struct Span<'t> {
    data: Option<SpanData<'t>>,
}

#[derive(Debug)]
struct SpanData<'t> {
    trace: &'t Trace,
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    sim_ticks: u64,
}

impl Span<'_> {
    /// Attribute simulated-clock ticks to this span (stamped into the
    /// record on drop).
    pub fn set_sim_ticks(&mut self, ticks: u64) {
        if let Some(d) = &mut self.data {
            d.sim_ticks = ticks;
        }
    }

    /// Whether this guard is actually recording.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.data.is_some()
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(d) = self.data.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Usually a balanced pop of our own id; a retain keeps the
            // stack sane even if guards are dropped out of order.
            if s.last() == Some(&d.id) {
                s.pop();
            } else {
                s.retain(|&id| id != d.id);
            }
        });
        let start_us = d
            .start
            .duration_since(d.trace.epoch)
            .as_micros() as u64;
        let dur_us = d.start.elapsed().as_micros() as u64;
        d.trace.record(SpanRecord {
            id: d.id,
            parent: d.parent,
            name: d.name,
            thread: thread_ordinal(),
            start_us,
            dur_us,
            sim_ticks: d.sim_ticks,
        });
    }
}

/// The process-wide observability instance: one metric registry and one
/// trace, shared by every layer.
#[derive(Debug, Default)]
pub struct Obs {
    /// Counter/gauge/histogram registries.
    pub metrics: Metrics,
    /// Span and event recorder.
    pub trace: Trace,
}

/// The global [`Obs`] instance.
#[must_use]
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::default)
}

/// The global metric registries.
#[must_use]
pub fn metrics() -> &'static Metrics {
    &global().metrics
}

/// The global trace.
#[must_use]
pub fn trace() -> &'static Trace {
    &global().trace
}

/// Open a span on the global trace, building the name lazily so a
/// disabled trace never even formats it. Prefer the [`span!`](crate::span)
/// macro at call sites.
#[must_use]
pub fn span_with(name: impl FnOnce() -> String) -> Span<'static> {
    let t = trace();
    if t.is_enabled() {
        t.span(name())
    } else {
        Span { data: None }
    }
}

/// Append an event to the global trace, building the text lazily.
pub fn event_with(name: impl FnOnce() -> String) {
    let t = trace();
    if t.is_enabled() {
        t.event(name());
    }
}

/// Read [`TRACE_ENV`] and enable the global trace accordingly. Returns
/// the parsed mode so the caller can pick a sink.
pub fn init_trace_from_env() -> TraceMode {
    let mode = TraceMode::from_env();
    trace().set_enabled(mode.is_on());
    mode
}

/// Open a hierarchical span on the global trace.
///
/// ```
/// use webstruct_util::span;
/// let site_id = 7usize;
/// let _span = span!("render_site", site_id); // "render_site site_id=7"
/// let _bare = span!("analyze");
/// ```
///
/// Costs one relaxed atomic load when tracing is off; the label is only
/// formatted when it is on. Extra identifiers are appended as
/// `name=value` pairs via their `Debug` rendering.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::obs::span_with(|| ::std::string::String::from($name))
    };
    ($name:expr, $($field:ident),+ $(,)?) => {
        $crate::obs::span_with(|| {
            let mut s = ::std::string::String::from($name);
            $(
                s.push(' ');
                s.push_str(::core::stringify!($field));
                s.push('=');
                s.push_str(&::std::format!("{:?}", $field));
            )+
            s
        })
    };
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
#[must_use]
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Best-effort peak resident-set size of the current process, in bytes:
/// `VmHWM` from `/proc/self/status` on Linux, 0 anywhere that file does
/// not exist. The kernel's high-water mark is monotone for the process
/// lifetime, so per-stage peaks need a child process per stage.
#[must_use]
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Assemble `RUN_REPORT.json`: the command, every span and event of the
/// run, the gauge readings (timing/schedule-derived, so *outside* the
/// cross-thread-count comparison), and the deterministic metric snapshot
/// (counters + histograms) as the **final** key (so
/// `sed -n '/"metrics":/,$p'` splits the deterministic tail off for
/// byte-comparison across thread counts).
#[must_use]
pub fn run_report_json(command: &str, threads: usize, obs: &Obs) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": \"{}\",\n", escape_json(command)));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    let spans = obs.trace.spans();
    out.push_str("  \"spans\": [\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"thread\": {}, \
             \"start_us\": {}, \"dur_us\": {}, \"sim_ticks\": {}}}{}\n",
            s.id,
            s.parent.map_or_else(|| "null".into(), |p: u64| p.to_string()),
            escape_json(&s.name),
            s.thread,
            s.start_us,
            s.dur_us,
            s.sim_ticks,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let events = obs.trace.events();
    out.push_str("  \"events\": [\n");
    for (i, e) in events.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"seq\": {}, \"name\": \"{}\", \"thread\": {}, \"at_us\": {}}}{}\n",
            e.seq,
            escape_json(&e.name),
            e.thread,
            e.at_us,
            if i + 1 < events.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let snap = obs.metrics.snapshot();
    out.push_str(&format!("  \"gauges\": {},\n", snap.gauges_json()));
    out.push_str(&format!("  \"metrics\": {}\n}}\n", snap.to_deterministic_json()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_wire_roundtrip() {
        let mut h = LocalHistogram::new();
        for v in [0u64, 1, 7, 4096, u64::MAX] {
            h.record(v);
        }
        let bytes = h.to_bytes();
        assert_eq!(bytes.len(), LocalHistogram::WIRE_LEN);
        assert_eq!(LocalHistogram::from_bytes(&bytes), Some(h));
        let mut long = bytes.to_vec();
        long.push(0);
        for len in (0..=long.len()).filter(|&l| l != LocalHistogram::WIRE_LEN) {
            assert_eq!(
                LocalHistogram::from_bytes(&long[..len]),
                None,
                "{len} bytes"
            );
        }
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorts() {
        let m = Metrics::new();
        m.add("b.second", 2);
        m.add("a.first", 1);
        m.add("b.second", 3);
        let snap = m.snapshot();
        assert_eq!(snap.counters["a.first"], 1);
        assert_eq!(snap.counters["b.second"], 5);
        let names: Vec<&String> = snap.counters.keys().collect();
        assert_eq!(names, ["a.first", "b.second"]);
    }

    #[test]
    fn counter_handles_are_shared_by_name() {
        let m = Metrics::new();
        let a = m.counter("x");
        let b = m.counter("x");
        a.add(4);
        b.inc();
        assert_eq!(m.counter("x").get(), 5);
    }

    #[test]
    fn gauges_store_floats() {
        let m = Metrics::new();
        m.set_gauge("allocs_per_page", 0.3);
        assert!((m.gauge("allocs_per_page").get() - 0.3).abs() < 1e-12);
        let json = m.snapshot().to_json();
        assert!(json.contains("\"allocs_per_page\": 0.3"), "json: {json}");
    }

    #[test]
    fn histogram_buckets_by_log2_and_merges() {
        let mut a = LocalHistogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 7, 8, 1024] {
            a.record(v);
        }
        assert_eq!(a.count(), 9);
        assert_eq!(a.sum(), 1050);
        let buckets = a.nonzero_buckets();
        // value 0 → bucket floor 0; 1,1 → floor 1; 2,3 → floor 2; 4..7 →
        // floor 4; 8 → floor 8; 1024 → floor 1024.
        assert_eq!(
            buckets,
            vec![(0, 1), (1, 2), (2, 2), (4, 2), (8, 1), (1024, 1)]
        );
        let mut b = LocalHistogram::new();
        b.record(5);
        b.merge(&a);
        assert_eq!(b.count(), 10);
        assert_eq!(b.sum(), 1055);
    }

    #[test]
    fn histogram_extremes_do_not_panic() {
        let mut h = LocalHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.nonzero_buckets(), vec![(1u64 << 63, 2)]);
    }

    #[test]
    fn shared_histogram_merge_equals_local_merge() {
        let m = Metrics::new();
        let mut shard1 = LocalHistogram::new();
        let mut shard2 = LocalHistogram::new();
        for v in 0..100 {
            if v % 2 == 0 {
                shard1.record(v);
            } else {
                shard2.record(v);
            }
        }
        m.merge_histogram("h", &shard1);
        m.merge_histogram("h", &shard2);
        let mut whole = LocalHistogram::new();
        for v in 0..100 {
            whole.record(v);
        }
        assert_eq!(m.histogram("h").load(), whole);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_balanced() {
        let m = Metrics::new();
        m.add("pages", 10);
        m.set_gauge("rate", 1.5);
        m.record("bytes", 4096);
        let a = m.snapshot().to_json();
        let b = m.snapshot().to_json();
        assert_eq!(a, b);
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.contains("\"pages\": 10"));
        assert!(a.contains("\"4096\": 1"));
    }

    #[test]
    fn empty_snapshot_renders() {
        let m = Metrics::new();
        let json = m.snapshot().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn reset_clears_registrations() {
        let m = Metrics::new();
        m.add("x", 1);
        m.reset();
        assert!(m.snapshot().counters.is_empty());
        m.add("y", 2);
        assert_eq!(m.snapshot().counters.len(), 1);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::new();
        {
            let _s = t.span("ignored".into());
            t.event("ignored".into());
        }
        assert!(t.spans().is_empty());
        assert!(t.events().is_empty());
    }

    #[test]
    fn spans_nest_via_thread_local_stack() {
        let t = Trace::new();
        t.set_enabled(true);
        {
            let _outer = t.span("outer".into());
            {
                let _inner = t.span("inner".into());
            }
            let _sibling = t.span("sibling".into());
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let sibling = spans.iter().find(|s| s.name == "sibling").unwrap();
        assert_eq!(outer.parent, None);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(sibling.parent, Some(outer.id));
    }

    #[test]
    fn spans_on_other_threads_are_roots() {
        let t = Trace::new();
        t.set_enabled(true);
        let _outer = t.span("outer".into());
        std::thread::scope(|s| {
            s.spawn(|| {
                let _w = t.span("worker".into());
            });
        });
        let worker = t
            .spans()
            .into_iter()
            .find(|s| s.name == "worker")
            .unwrap();
        assert_eq!(worker.parent, None, "parent stacks are per-thread");
    }

    #[test]
    fn sim_ticks_are_stamped() {
        let t = Trace::new();
        t.set_enabled(true);
        {
            let mut s = t.span("crawl".into());
            s.set_sim_ticks(420);
        }
        assert_eq!(t.spans()[0].sim_ticks, 420);
        assert!(t.to_pretty().contains("420 sim ticks"));
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let t = Trace::new();
        t.set_enabled(true);
        {
            let _a = t.span("alpha \"quoted\"".into());
        }
        t.event("beta".into());
        let json = t.to_chrome_json();
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn pretty_tree_indents_children() {
        let t = Trace::new();
        t.set_enabled(true);
        {
            let _outer = t.span("outer".into());
            let _inner = t.span("inner".into());
        }
        let pretty = t.to_pretty();
        let inner_line = pretty.lines().find(|l| l.contains("inner")).unwrap();
        assert!(inner_line.starts_with("  "), "pretty: {pretty}");
    }

    #[test]
    fn span_macro_formats_fields_lazily() {
        // Global trace is disabled by default: the macro must be a no-op
        // that never formats.
        let site_id = 7usize;
        let s = span!("render_site", site_id);
        assert!(!s.is_recording());
        drop(s);
        // Enabled: names carry the field values.
        trace().set_enabled(true);
        {
            let _s = span!("render_site", site_id);
        }
        trace().set_enabled(false);
        let found = trace()
            .spans()
            .into_iter()
            .any(|s| s.name == "render_site site_id=7");
        assert!(found);
        trace().reset();
    }

    #[test]
    fn run_report_places_metrics_last() {
        let obs = Obs::default();
        obs.metrics.add("pages", 3);
        obs.trace.set_enabled(true);
        {
            let _s = obs.trace.span("family:spread".into());
        }
        let report = run_report_json("reproduce", 2, &obs);
        let metrics_at = report.find("\"metrics\":").unwrap();
        let spans_at = report.find("\"spans\":").unwrap();
        assert!(spans_at < metrics_at, "metrics must be the final key");
        assert!(report.contains("family:spread"));
        assert!(report.contains("\"pages\": 3"));
        assert_eq!(report.matches('{').count(), report.matches('}').count());
    }

    #[test]
    fn deterministic_json_excludes_gauges() {
        let m = Metrics::new();
        m.add("pages", 7);
        m.set_gauge("extract.worker_bytes.w0", 123.0);
        m.record("bytes", 64);
        let det = m.snapshot().to_deterministic_json();
        assert!(det.contains("\"pages\": 7"));
        assert!(det.contains("\"64\": 1"));
        assert!(!det.contains("worker_bytes"), "gauges leaked: {det}");
        assert_eq!(det.matches('{').count(), det.matches('}').count());
        // The gauges render under their own object instead.
        let gauges = m.snapshot().gauges_json();
        assert!(gauges.contains("\"extract.worker_bytes.w0\": 123"));
        assert_eq!(gauges.matches('{').count(), gauges.matches('}').count());
    }

    #[test]
    fn run_report_keeps_metrics_tail_gauge_free() {
        let obs = Obs::default();
        obs.metrics.add("pages", 3);
        obs.metrics.set_gauge("extract.shard_imbalance", 1.25);
        let report = run_report_json("reproduce", 2, &obs);
        let metrics_at = report.find("\"metrics\":").unwrap();
        let tail = &report[metrics_at..];
        assert!(!tail.contains("shard_imbalance"), "tail: {tail}");
        assert!(tail.contains("\"pages\": 3"));
        // The gauge is still reported, just before the deterministic tail.
        assert!(report[..metrics_at].contains("\"extract.shard_imbalance\": 1.25"));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should parse on Linux");
            // A test process certainly peaks above 1 MiB and below 1 TiB.
            assert!(rss > 1 << 20 && rss < 1 << 40, "implausible rss {rss}");
        }
    }

    #[test]
    fn trace_mode_parses() {
        assert!(!TraceMode::Off.is_on());
        assert!(TraceMode::Json.is_on());
        assert!(TraceMode::Pretty.is_on());
    }

    #[test]
    fn thread_ordinals_are_dense_and_distinct() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal(), "stable per thread");
        let other = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(mine, other);
    }
}
