//! The webstruct benchmark: one workload per process, measured with
//! tracing off (end-to-end metrics) or replayed layer by layer with a
//! timer around each public call (per-layer metrics).
//!
//! ```text
//! perfbench --workload <figures|serve_hot|serve_swap> --seed <n>
//!           --seconds <s> --trace <0|1> --work <dir> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `perfbench/run.py`
//! builds this binary and runs it; see `perfbench/README.md`.

mod figures;
mod layers;
mod measure;
mod serve;

use std::collections::BTreeMap;
use std::path::PathBuf;
use webstruct_core::study::{DomainStudy, StudyConfig};
use webstruct_corpus::domain::Domain;
use webstruct_corpus::page::{PageConfig, PageStream};
use webstruct_util::rng::Seed;

/// How far a workload corpus's rendered volume may sit from the default
/// corpus's at the same scale.
const VOLUME_BAND: f64 = 0.02;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload's path never calls reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("corpus.generate_s", "s"),
    ("corpus.render_mb_per_s", "MB/s"),
    ("store.write_s", "s"),
    ("store.commit_s", "s"),
    ("store.wchar_per_payload_byte", "ratio"),
    ("store.syscw_per_shard", "count"),
    ("store.recover_s", "s"),
    ("store.read_verify_mb_per_s", "MB/s"),
    ("extract.shard_mb_per_s", "MB/s"),
    ("extract.scan.strip_tags_mb_per_s", "MB/s"),
    ("extract.scan.anchor_href_mb_per_s", "MB/s"),
    ("extract.scan.phone_mb_per_s", "MB/s"),
    ("extract.scan.isbn_mb_per_s", "MB/s"),
    ("extract.scan.token_mb_per_s", "MB/s"),
    ("extract.nb_us_per_page", "us"),
    ("extract.snapshot_s", "s"),
    ("extcache.write_s", "s"),
    ("extcache.load_mb_per_s", "MB/s"),
    ("extcache.hit_rate", "ratio"),
    ("merge.snapshot_s", "s"),
    ("coverage.add_s", "s"),
    ("graph.add_s", "s"),
    ("graph.finish_s", "s"),
    ("epoch.digest_s", "s"),
    ("epoch.attributed_frac", "ratio"),
    ("figures.study_s", "s"),
    ("figures.extract_s", "s"),
    ("figures.spread_s", "s"),
    ("figures.tail_value_s", "s"),
    ("figures.connectivity_s", "s"),
    ("demand.simulate_s", "s"),
    ("serve.parse_ns", "ns"),
    ("serve.cache_lookup_ns", "ns"),
    ("serve.write_ns", "ns"),
    ("serve.route_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.conns_per_kreq", "count"),
    ("serve.state_build_s", "s"),
    ("serve.cache_build_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.replica_match", "bool"),
];

/// What one benchmark process was asked to do.
pub struct Ctx {
    /// The workload seed every input derives from.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Scratch directory for stores; removed by the caller afterwards.
    pub work: PathBuf,
    /// Directory for kept outputs (trace files).
    pub out: PathBuf,
    /// Worker threads the program runs with (its own default).
    pub threads: usize,
}

impl Ctx {
    /// The corpus seed for `domain` at `scale`: the first seed derived
    /// from the workload seed whose corpus renders within
    /// [`VOLUME_BAND`] of the default corpus's bytes. Site sizes are
    /// heavy-tailed, so unmatched seeds swing the render volume from 0.65x
    /// to 1.5x and every timing with it; matching keeps the content
    /// seed-dependent and the amount of work fixed.
    pub fn corpus_seed(&self, domain: Domain, scale: f64) -> Seed {
        let volume = |seed: Seed| -> f64 {
            let config = StudyConfig::default().with_scale(scale).with_seed(seed);
            let web = DomainStudy::generate(domain, &config).web;
            let page = PageConfig::default();
            (0..web.n_sites())
                .map(|s| PageStream::estimated_site_bytes(&web, &page, s) as f64)
                .sum()
        };
        let target = volume(Seed::DEFAULT);
        let base = Seed(self.seed).derive("perfbench");
        (0..2000)
            .map(|k| base.derive_u64(k))
            .find(|&c| (volume(c) / target - 1.0).abs() <= VOLUME_BAND)
            .unwrap_or(Seed::DEFAULT)
    }
}

/// The result of one run: operation counts, metric values and the
/// context stamped next to them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Count one operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: correctness check failed: {what}");
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn stamp(&mut self, key: &'static str, value: impl ToString) {
        self.context.push((key, value.to_string()));
    }
}

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <figures|serve_hot|serve_swap> --seed <n> \
         --seconds <s> --trace <0|1> --work <dir> [--out <dir>]"
    );
    std::process::exit(2)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = arg(&args, "--workload")
        .unwrap_or_else(|| usage())
        .to_string();
    let seed: u64 = arg(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| usage());
    let seconds: f64 = arg(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage());
    let trace = match arg(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => usage(),
    };
    let work = PathBuf::from(arg(&args, "--work").unwrap_or_else(|| usage()));
    let out = PathBuf::from(arg(&args, "--out").unwrap_or(".bench_out"));
    let ctx = Ctx {
        seed,
        seconds,
        work,
        out,
        threads: webstruct_util::par::num_threads(),
    };

    measure::sync_disks();
    let steal0 = measure::steal_secs();
    let mut outcome = match (workload.as_str(), trace) {
        ("figures", false) => figures::run(&ctx),
        ("serve_hot", false) => serve::run(&ctx, false),
        ("serve_swap", false) => serve::run(&ctx, true),
        ("figures", true) => layers::figures(&ctx),
        ("serve_hot", true) => layers::serve(&ctx, false),
        ("serve_swap", true) => layers::serve(&ctx, true),
        _ => usage(),
    };
    if !trace {
        outcome.set("peak_rss_mb", measure::peak_rss_mb());
    }
    outcome.stamp("steal_s", format!("{:.2}", measure::steal_secs() - steal0));
    outcome.stamp("workload", &workload);
    outcome.stamp("seed", seed);
    outcome.stamp("seconds", seconds);
    outcome.stamp("trace", u8::from(trace));
    outcome.stamp(
        "hardware_threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    outcome.stamp("program_threads", ctx.threads);

    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let context: Vec<String> = outcome
        .context
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"context\": {{{}}}}}", context.join(", "));
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        let value = if value.is_finite() { value } else { 0.0 };
        println!("{name:<36} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}
