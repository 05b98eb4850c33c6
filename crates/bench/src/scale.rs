//! The scale sweep behind `BENCH_scale.json`: streamed render+extract
//! at a ladder of corpus scales, with per-scale peak RSS.
//!
//! Peak RSS (`VmHWM` in `/proc/self/status`) is a process-lifetime
//! high-water mark — it never goes back down — so one process cannot
//! measure two scales without the small run inheriting the big run's
//! peak. The bench binary (`benches/scale.rs`) therefore re-executes
//! itself once per scale: each child runs [`run_scale_child`] for
//! exactly one scale, reports its measurement over a key/value file, and
//! the parent assembles the [`ScaleReport`].

use std::path::Path;
use webstruct_corpus::domain::Domain;
use webstruct_corpus::page::PageConfig;
use webstruct_corpus::{ShardError, ShardStore, ShardedWeb};
use webstruct_extract::{train_review_classifier, Extractor};
use webstruct_util::obs;

use crate::best_of;

/// Default shard payload target for the sweep: small enough that even
/// scale 0.1 cuts several shards (so the streamed path actually streams
/// and the work-stealing scheduler has work to steal).
pub const SCALE_SHARD_BYTES: u64 = 8 * 1024 * 1024;

/// One child process's measurement of the streamed pipeline at a scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMeasurement {
    /// Corpus scale factor.
    pub scale: f64,
    /// Pages extracted (identical across thread counts by construction).
    pub pages: u64,
    /// Bytes of page text extracted.
    pub bytes: u64,
    /// Shard files the corpus was cut into.
    pub shards: usize,
    /// Wall-clock seconds to render the corpus into shard files.
    pub write_secs: f64,
    /// `(threads, best-of seconds)` for the streamed extract stage.
    pub extract: Vec<(usize, f64)>,
    /// `VmHWM` of the child process after the run (0 off Linux).
    pub peak_rss_bytes: u64,
}

impl ScaleMeasurement {
    /// Shard-write throughput in MB of page text per second.
    #[must_use]
    pub fn write_mb_per_sec(&self) -> f64 {
        if self.write_secs > 0.0 {
            self.bytes as f64 / 1e6 / self.write_secs
        } else {
            0.0
        }
    }

    /// Best-of seconds for the streamed extract at `threads`.
    #[must_use]
    pub fn extract_secs(&self, threads: usize) -> Option<f64> {
        self.extract.iter().find(|(t, _)| *t == threads).map(|(_, s)| *s)
    }

    /// Streamed-extract throughput in pages per second at `threads`.
    #[must_use]
    pub fn pages_per_sec(&self, threads: usize) -> Option<f64> {
        let secs = self.extract_secs(threads)?;
        (secs > 0.0).then(|| self.pages as f64 / secs)
    }

    /// Streamed-extract throughput in MB per second at `threads`.
    #[must_use]
    pub fn mb_per_sec(&self, threads: usize) -> Option<f64> {
        let secs = self.extract_secs(threads)?;
        (secs > 0.0).then(|| self.bytes as f64 / 1e6 / secs)
    }

    /// Serialise as the key/value lines the child hands its parent.
    #[must_use]
    pub fn to_kv(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scale {}\n", self.scale));
        out.push_str(&format!("pages {}\n", self.pages));
        out.push_str(&format!("bytes {}\n", self.bytes));
        out.push_str(&format!("shards {}\n", self.shards));
        out.push_str(&format!("write_secs {}\n", self.write_secs));
        out.push_str(&format!("peak_rss_bytes {}\n", self.peak_rss_bytes));
        for (t, s) in &self.extract {
            out.push_str(&format!("extract {t} {s}\n"));
        }
        out
    }

    /// Parse the child's key/value lines; `None` on any malformed or
    /// missing field.
    #[must_use]
    pub fn from_kv(text: &str) -> Option<ScaleMeasurement> {
        let mut m = ScaleMeasurement {
            scale: f64::NAN,
            pages: 0,
            bytes: 0,
            shards: 0,
            write_secs: f64::NAN,
            extract: Vec::new(),
            peak_rss_bytes: u64::MAX,
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            let key = parts.next()?;
            match key {
                "scale" => m.scale = parts.next()?.parse().ok()?,
                "pages" => m.pages = parts.next()?.parse().ok()?,
                "bytes" => m.bytes = parts.next()?.parse().ok()?,
                "shards" => m.shards = parts.next()?.parse().ok()?,
                "write_secs" => m.write_secs = parts.next()?.parse().ok()?,
                "peak_rss_bytes" => m.peak_rss_bytes = parts.next()?.parse().ok()?,
                "extract" => {
                    let t = parts.next()?.parse().ok()?;
                    let s = parts.next()?.parse().ok()?;
                    m.extract.push((t, s));
                }
                _ => return None,
            }
        }
        (m.scale.is_finite() && m.write_secs.is_finite() && m.peak_rss_bytes != u64::MAX)
            .then_some(m)
    }
}

/// The assembled sweep, serialisable to JSON by hand.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Shard payload target every scale used.
    pub shard_target_bytes: u64,
    /// Repeats per extract timing (best kept).
    pub repeats: usize,
    /// One measurement per swept scale, ascending.
    pub measurements: Vec<ScaleMeasurement>,
}

impl ScaleReport {
    /// Measurement at `scale`, if swept.
    #[must_use]
    pub fn at(&self, scale: f64) -> Option<&ScaleMeasurement> {
        self.measurements.iter().find(|m| (m.scale - scale).abs() < 1e-9)
    }

    /// Peak-RSS ratio between two swept scales — the flat-memory
    /// acceptance number (`rss(hi) / rss(lo)`).
    #[must_use]
    pub fn rss_ratio(&self, hi: f64, lo: f64) -> Option<f64> {
        let hi = self.at(hi)?.peak_rss_bytes;
        let lo = self.at(lo)?.peak_rss_bytes;
        (lo > 0).then(|| hi as f64 / lo as f64)
    }

    /// Pages/s at `threads` relative to 1 thread for `scale` — the
    /// scheduler's non-regression number.
    #[must_use]
    pub fn thread_speedup(&self, scale: f64, threads: usize) -> Option<f64> {
        let m = self.at(scale)?;
        let base = m.pages_per_sec(1)?;
        let at = m.pages_per_sec(threads)?;
        (base > 0.0).then(|| at / base)
    }

    /// Worst 2-thread speedup across every swept scale.
    #[must_use]
    pub fn min_thread2_speedup(&self) -> Option<f64> {
        self.measurements
            .iter()
            .filter_map(|m| self.thread_speedup(m.scale, 2))
            .min_by(f64::total_cmp)
    }

    /// Render the report as a stable, hand-rolled JSON document. Per-scale
    /// numbers are flattened to one key per figure so line-oriented
    /// tooling (`scripts/bench_gate.sh`) can grep them.
    #[must_use]
    pub fn to_json(&self) -> String {
        let fmt_opt = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |x| format!("{x:.3}"));
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"shard_target_bytes\": {},\n",
            self.shard_target_bytes
        ));
        out.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        out.push_str("  \"measurements\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"scale\": {}, \"pages\": {}, \"bytes\": {}, \"shards\": {}, \
                 \"write_secs\": {:.6}, \"write_mb_per_sec\": {:.3}, \"peak_rss_bytes\": {}",
                m.scale,
                m.pages,
                m.bytes,
                m.shards,
                m.write_secs,
                m.write_mb_per_sec(),
                m.peak_rss_bytes,
            ));
            for &(t, s) in &m.extract {
                out.push_str(&format!(
                    ", \"extract_t{t}_secs\": {s:.6}, \"extract_t{t}_pages_per_sec\": {}, \
                     \"extract_t{t}_mb_per_sec\": {}",
                    fmt_opt(m.pages_per_sec(t)),
                    fmt_opt(m.mb_per_sec(t)),
                ));
            }
            out.push_str(&format!(
                ", \"thread2_speedup\": {}}}{}\n",
                fmt_opt(self.thread_speedup(m.scale, 2)),
                if i + 1 < self.measurements.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"min_thread2_speedup\": {},\n",
            fmt_opt(self.min_thread2_speedup())
        ));
        out.push_str(&format!(
            "  \"rss_ratio_full_vs_tenth\": {}\n}}\n",
            fmt_opt(self.rss_ratio(1.0, 0.1))
        ));
        out
    }
}

/// Run one scale of the sweep in the current process: render the
/// Restaurants corpus into shard files under `dir`, stream-extract the
/// store at each thread count, and read the process's peak RSS last so
/// it covers the whole workload. The shard files are removed before
/// returning.
///
/// # Errors
/// Propagates shard I/O and validation failures.
///
/// # Panics
/// Panics if classifier training fails (impossible by construction).
pub fn run_scale_child(
    scale: f64,
    thread_counts: &[usize],
    repeats: usize,
    shard_target_bytes: u64,
    dir: &Path,
) -> Result<ScaleMeasurement, ShardError> {
    // WEBSTRUCT_SCALE_PROBE=1 prints a per-phase RSS breakdown (high-water
    // mark + current) to stderr — the tool that attributes any future
    // peak-RSS regression to generate / shard write / extract without
    // recompiling. Costs nothing when unset.
    let probe = std::env::var("WEBSTRUCT_SCALE_PROBE").is_ok();
    let rss = |tag: &str| {
        if probe {
            let cur = std::fs::read_to_string("/proc/self/status")
                .ok()
                .and_then(|s| {
                    s.lines().find(|l| l.starts_with("VmRSS:")).and_then(|l| {
                        l.split_whitespace().nth(1).and_then(|v| v.parse::<u64>().ok())
                    })
                })
                .unwrap_or(0)
                * 1024;
            eprintln!(
                "probe[{scale}] {tag}: VmHWM {:.1} MB, VmRSS {:.1} MB",
                obs::peak_rss_bytes() as f64 / 1e6,
                cur as f64 / 1e6
            );
        }
    };
    let config = webstruct_core::study::StudyConfig::default().with_scale(scale);
    let study = webstruct_core::study::DomainStudy::generate(Domain::Restaurants, &config);
    let (catalog, web) = (study.catalog, study.web);
    rss("generate");
    let clf = train_review_classifier(config.seed.derive("nb"), 300)
        .expect("training set is balanced by construction");
    let extractor = Extractor::new(&catalog).with_review_classifier(clf);
    let page_config = PageConfig::default();
    let seed = config.seed.derive("render");

    let t = std::time::Instant::now();
    let store = ShardStore::write(dir, &web, &catalog, &page_config, seed, shard_target_bytes)?;
    let write_secs = t.elapsed().as_secs_f64();
    rss("shard write");

    // The whole point of the shard store: once the corpus is on disk,
    // the generated web is dead weight. Dropping it before the extract
    // phase keeps the measured peak honest about what streaming needs.
    drop(web);
    rss("web dropped");
    let mut measurement = ScaleMeasurement {
        scale,
        pages: 0,
        bytes: 0,
        shards: store.len(),
        write_secs,
        extract: Vec::new(),
        peak_rss_bytes: 0,
    };
    for &threads in thread_counts {
        let mut err = None;
        let secs = best_of(repeats, || {
            match extractor.extract(&ShardedWeb::Stored(&store), threads) {
                Ok(extracted) => {
                    measurement.pages = extracted.pages_processed;
                    measurement.bytes = extracted.bytes_rendered;
                }
                Err(e) => err = Some(e),
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        rss(&format!("extract t{threads}"));
        measurement.extract.push((threads, secs));
    }
    let _ = std::fs::remove_dir_all(dir);
    measurement.peak_rss_bytes = obs::peak_rss_bytes();
    Ok(measurement)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScaleMeasurement {
        ScaleMeasurement {
            scale: 0.1,
            pages: 1000,
            bytes: 5_000_000,
            shards: 3,
            write_secs: 0.5,
            extract: vec![(1, 2.0), (2, 1.0)],
            peak_rss_bytes: 100 << 20,
        }
    }

    #[test]
    fn kv_roundtrip_is_lossless() {
        let m = sample();
        assert_eq!(ScaleMeasurement::from_kv(&m.to_kv()), Some(m));
    }

    #[test]
    fn malformed_kv_is_rejected() {
        assert!(ScaleMeasurement::from_kv("scale 0.1\npages ??\n").is_none());
        assert!(ScaleMeasurement::from_kv("unknown 1\n").is_none());
        assert!(ScaleMeasurement::from_kv("scale 0.1\n").is_none(), "missing fields");
    }

    #[test]
    fn report_json_carries_ratios() {
        let mut big = sample();
        big.scale = 1.0;
        big.peak_rss_bytes = 250 << 20;
        big.extract = vec![(1, 20.0), (2, 11.0)];
        let report = ScaleReport {
            shard_target_bytes: SCALE_SHARD_BYTES,
            repeats: 2,
            measurements: vec![sample(), big],
        };
        let rss = report.rss_ratio(1.0, 0.1).unwrap();
        assert!((rss - 2.5).abs() < 1e-9, "rss ratio {rss}");
        let t2 = report.thread_speedup(0.1, 2).unwrap();
        assert!((t2 - 2.0).abs() < 1e-9, "t2 speedup {t2}");
        let min = report.min_thread2_speedup().unwrap();
        assert!((min - 20.0 / 11.0).abs() < 1e-9, "min {min}");
        let json = report.to_json();
        assert!(json.contains("\"rss_ratio_full_vs_tenth\": 2.500"));
        assert!(json.contains("\"min_thread2_speedup\": 1.818"));
        assert!(json.contains("\"extract_t2_pages_per_sec\": 1000.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn scale_child_runs_at_tiny_scale() {
        let dir = webstruct_util::TempDir::new("scale-test");
        let m = run_scale_child(0.01, &[1, 2], 1, 256 * 1024, &dir).unwrap();
        assert!(m.pages > 0);
        assert!(m.bytes > 0);
        assert!(m.shards >= 2, "256 KiB target should cut several shards");
        assert!(m.extract_secs(1).is_some() && m.extract_secs(2).is_some());
        assert!(!dir.exists(), "shard dir is cleaned up");
        if cfg!(target_os = "linux") {
            assert!(m.peak_rss_bytes > 0);
        }
    }
}
