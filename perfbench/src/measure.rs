//! Process counters, order statistics and the in-memory span recorder.

use std::path::Path;
use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat` (Linux fixes `USER_HZ` at 100 for that interface).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed by this process, all threads.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name: state is field 3, so
    // utime (14) and stime (15) sit at offsets 11 and 12.
    let rest = stat.rsplit_once(") ").map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Flush every file system's dirty data, so that writeback left by an
/// earlier run is not paid inside this run's timings.
pub fn sync_disks() {
    extern "C" {
        fn sync();
    }
    // SAFETY: sync(2) takes no arguments and cannot fail.
    unsafe { sync() }
}

/// Seconds the hypervisor ran something else while this machine's CPUs
/// wanted to run (`steal` in `/proc/stat`, summed over CPUs). Stamped
/// next to timings: a run with high steal was slowed by the host.
pub fn steal_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|f| f.parse::<f64>().ok())
        .map_or(0.0, |t| t / USER_HZ)
}

fn proc_field(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            (k.trim() == key).then(|| v.split_whitespace().next()?.parse().ok())?
        })
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM") as f64 / 1024.0
}

/// `(wchar, syscw)` from `/proc/self/io`: bytes handed to `write`-family
/// calls and the number of such calls.
pub fn proc_io() -> (u64, u64) {
    (
        proc_field("/proc/self/io", "wchar"),
        proc_field("/proc/self/io", "syscw"),
    )
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` of an ascending slice.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64) * q).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Host steal, as a share of this machine's CPU time, above which a
/// timed sample is set aside.
const STEAL_LIMIT: f64 = 0.05;

fn cpus() -> f64 {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64
}

/// Measures the share of this machine's CPU time the hypervisor stole
/// from a starting point on.
pub struct StealMeter {
    steal: f64,
    at: Instant,
}

impl StealMeter {
    pub fn start() -> Self {
        StealMeter {
            steal: steal_secs(),
            at: Instant::now(),
        }
    }

    /// Share of the CPU time since [`StealMeter::start`] that was stolen.
    pub fn share(&self) -> f64 {
        (steal_secs() - self.steal) / (self.at.elapsed().as_secs_f64() * cpus()).max(1e-9)
    }
}

/// A measured value and the host steal share while it was taken.
pub type Sample = (f64, f64);

/// Wall seconds `f` took, as a [`Sample`], with its result.
pub fn sampled<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    let meter = StealMeter::start();
    let (out, secs) = timed(f);
    (out, (secs, meter.share()))
}

/// Median over the samples taken while the host stole at most
/// [`STEAL_LIMIT`] of the CPU time, or over the least-stolen half when
/// fewer than half were. On a shared host a sample that lost a tenth of
/// its CPU to other guests runs up to 2-3x slower: it measures the host,
/// not the program. Returns the median and how many samples it used.
pub fn clean_median(samples: &[Sample]) -> (f64, usize) {
    let values = clean_values(samples);
    (median(&values), values.len())
}

/// Mean over the same samples as [`clean_median`]: for values read at a
/// coarse resolution, such as CPU time in 10 ms ticks, where a median of
/// short operations would repeat one tick count run after run.
pub fn clean_mean(samples: &[Sample]) -> f64 {
    let values = clean_values(samples);
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn clean_values(samples: &[Sample]) -> Vec<f64> {
    let shares: Vec<f64> = samples.iter().map(|s| s.1).collect();
    samples
        .iter()
        .zip(clean_windows(&shares))
        .filter(|(_, keep)| *keep)
        .map(|(s, _)| s.0)
        .collect()
}

/// Which of `shares` (steal shares of consecutive windows) count:
/// those at most [`STEAL_LIMIT`], or the least-stolen half.
pub fn clean_windows(shares: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    let clean = shares.iter().filter(|&&s| s <= STEAL_LIMIT).count();
    let keep = clean.max(shares.len().div_ceil(2));
    let mut out = vec![false; shares.len()];
    for &i in &order[..keep] {
        out[i] = true;
    }
    out
}

/// Wall seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Run `f` `n` times and return the median wall time and the last result.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let (out, secs) = timed(&mut f);
        times.push(secs);
        last = Some(out);
    }
    (last.expect("ran at least once"), median(&times))
}

/// Lowercase hex of a digest.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// One recorded span: a timed call into a layer's public function.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder for the traced run. Spans nest by call
/// order; nothing is written until [`Tracer::write_chrome`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Time `f` as a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Spans recorded so far; a mark for [`Tracer::total_from`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.total_from(0, name)
    }

    /// Total seconds spent in spans named `name` recorded since `mark`.
    pub fn total_from(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Write every span as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}{}\n",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
