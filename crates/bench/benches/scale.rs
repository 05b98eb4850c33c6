//! Scale-sweep benchmark: streamed (out-of-core) render+extract at a
//! ladder of corpus scales, one **child process per scale** so each
//! scale's peak RSS (`VmHWM`) is measured clean — the kernel's high-water
//! mark never resets, so sweeping in one process would report every
//! scale at the largest scale's footprint.
//!
//! ```text
//! cargo bench -p webstruct-bench --bench scale -- \
//!     --out artifacts/BENCH_scale.json --scales 0.02,0.1,0.5,1.0 \
//!     --threads 1,2 --repeats 2 --shard-mb 8
//! ```

use webstruct_bench::scale::{run_scale_child, ScaleMeasurement, ScaleReport, SCALE_SHARD_BYTES};
use webstruct_util::TempDir;

fn main() {
    let mut out_path = String::from("artifacts/BENCH_scale.json");
    let mut scales: Vec<f64> = vec![0.02, 0.1, 0.5, 1.0];
    let mut threads: Vec<usize> = vec![1, 2];
    let mut repeats = 2usize;
    let mut shard_bytes = SCALE_SHARD_BYTES;
    let mut child: Option<f64> = None;
    let mut child_out: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out_path = args[i + 1].clone();
                i += 2;
            }
            "--scales" if i + 1 < args.len() => {
                scales = args[i + 1]
                    .split(',')
                    .map(|s| s.trim().parse().expect("--scales takes e.g. 0.1,1.0"))
                    .collect();
                i += 2;
            }
            "--threads" if i + 1 < args.len() => {
                threads = args[i + 1]
                    .split(',')
                    .map(|t| t.trim().parse().expect("--threads takes e.g. 1,2"))
                    .collect();
                i += 2;
            }
            "--repeats" if i + 1 < args.len() => {
                repeats = args[i + 1].parse().expect("--repeats takes an integer");
                i += 2;
            }
            "--shard-mb" if i + 1 < args.len() => {
                let mb: u64 = args[i + 1].parse().expect("--shard-mb takes an integer");
                shard_bytes = mb * 1024 * 1024;
                i += 2;
            }
            "--child" if i + 1 < args.len() => {
                child = Some(args[i + 1].parse().expect("--child takes a scale"));
                i += 2;
            }
            "--child-out" if i + 1 < args.len() => {
                child_out = Some(args[i + 1].clone());
                i += 2;
            }
            // `cargo bench` forwards its own flags (e.g. --bench); skip them.
            _ => i += 1,
        }
    }

    if let Some(scale) = child {
        run_child(scale, &threads, repeats, shard_bytes, &child_out.expect("--child-out"));
        return;
    }

    eprintln!(
        "scale bench: scales={scales:?} threads={threads:?} repeats={repeats} \
         shard_bytes={shard_bytes} -> {out_path}"
    );
    let exe = std::env::current_exe().expect("current_exe");
    let kv_dir = TempDir::new("scale-kv");
    let mut report = ScaleReport {
        shard_target_bytes: shard_bytes,
        repeats,
        measurements: Vec::new(),
    };
    let threads_arg = threads
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    for &scale in &scales {
        let kv_path = kv_dir.join(format!("{}.txt", report.measurements.len()));
        let status = std::process::Command::new(&exe)
            // One malloc arena: glibc gives each worker thread its own
            // arena by default, so memory freed on the main thread (the
            // dropped Web, the previous thread-count's accumulator) is
            // invisible to worker-thread allocations and VmHWM measures
            // arena fragmentation instead of live data. The extract hot
            // path is allocation-free, so a single arena costs no
            // contention — it is the right production setting for the
            // streamed pipeline, and DESIGN.md §12 documents it.
            .env("MALLOC_ARENA_MAX", "1")
            .args([
                "--child",
                &scale.to_string(),
                "--threads",
                &threads_arg,
                "--repeats",
                &repeats.to_string(),
                "--shard-mb",
                &(shard_bytes / (1024 * 1024)).max(1).to_string(),
                "--child-out",
                kv_path.to_str().expect("utf-8 temp path"),
            ])
            .status()
            .expect("spawn scale child");
        assert!(status.success(), "scale {scale} child failed: {status}");
        let kv = std::fs::read_to_string(&kv_path).expect("read child measurement");
        let m = ScaleMeasurement::from_kv(&kv)
            .unwrap_or_else(|| panic!("scale {scale} child wrote malformed measurement:\n{kv}"));
        eprintln!(
            "  scale {:<5} {:>8} pages  {:>4} shards  write {:.2} MB/s  \
             t1 {:.0} pages/s  t2 {:.0} pages/s  peak RSS {:.1} MB",
            m.scale,
            m.pages,
            m.shards,
            m.write_mb_per_sec(),
            m.pages_per_sec(1).unwrap_or(0.0),
            m.pages_per_sec(2).unwrap_or(0.0),
            m.peak_rss_bytes as f64 / 1e6,
        );
        report.measurements.push(m);
    }

    if let Some(ratio) = report.rss_ratio(1.0, 0.1) {
        eprintln!("  peak-RSS ratio scale 1.0 / 0.1: {ratio:.2}x");
    }
    if let Some(min) = report.min_thread2_speedup() {
        eprintln!("  worst 2-thread speedup across scales: {min:.2}x");
    }
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output directory");
        }
    }
    std::fs::write(&out_path, report.to_json()).expect("write BENCH_scale.json");
    eprintln!("wrote {out_path}");
}

/// Child mode: measure exactly one scale in this process and report over
/// the key/value file. The process exits afterwards, so its `VmHWM` is
/// this scale's footprint and nothing else's.
fn run_child(scale: f64, threads: &[usize], repeats: usize, shard_bytes: u64, out: &str) {
    let dir = TempDir::new("scale-shards");
    let m = run_scale_child(scale, threads, repeats, shard_bytes, &dir)
        .unwrap_or_else(|e| panic!("scale {scale} streamed run failed: {e}"));
    std::fs::write(out, m.to_kv()).expect("write child measurement");
}
