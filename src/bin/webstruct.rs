//! `webstruct` — command-line front end for the reproduction.
//!
//! ```text
//! webstruct list                         list every artifact id
//! webstruct reproduce [SCALE] [OUTDIR]   regenerate all tables & figures
//! webstruct extensions [SCALE] [OUTDIR]  regenerate every extension experiment
//! webstruct figure <ID> [SCALE]          print one figure (ASCII + .dat)
//! webstruct table <1|2> [SCALE]          print one table
//! webstruct epoch [DOMAIN] [SCALE] [DIR] [FRAC] [KB]  render → shards → extract,
//!                                        mutate sites, re-run dirty slice
//! webstruct scrub [DIR]                  re-hash every shard against MANIFEST.wsm
//! webstruct repair [DOMAIN] [SCALE] [DIR] [FRAC] [KB]  quarantine damage, re-render
//! webstruct serve [DOMAIN] [SCALE] [DIR] [PORT]  HTTP server over the extracted web
//! webstruct replay [DOMAIN] [SCALE] [DIR] [N] [CLIENTS]  traffic replay against a local server
//! webstruct open-extract [DOMAIN] [SITES] [SCALE]  catalog-free database build
//! ```

use webstruct::core::cache::Study;
use webstruct::core::epoch::Epoch;
use webstruct::core::experiments::{connectivity, open_extraction, table1};
use webstruct::core::runner::{run_all, run_extensions, write_outputs, RunOutput};
use webstruct::core::study::StudyConfig;
use webstruct::corpus::domain::Domain;
use webstruct::util::obs::{self, TraceMode};
use webstruct::util::rng::Seed;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `webstruct trace <cmd> ...` wraps any command with JSON tracing;
    // `WEBSTRUCT_TRACE=json|pretty|off` picks the sink either way.
    let forced_trace = args.first().map(String::as_str) == Some("trace");
    if forced_trace {
        args.remove(0);
    }
    let mut mode = obs::init_trace_from_env();
    if forced_trace && mode == TraceMode::Off {
        mode = TraceMode::Json;
        obs::trace().set_enabled(true);
    }
    let command = args.first().map(String::as_str).unwrap_or("help");
    let command_line = args.join(" ");
    let code = match command {
        "list" => cmd(list),
        "reproduce" => run_and_write(&args[1..], "reproduce", run_all),
        "extensions" => run_and_write(&args[1..], "extensions", run_extensions),
        "figure" => cmd(|| figure(&args[1..])),
        "table" => cmd(|| table(&args[1..])),
        "scrub" => scrub_cmd(&args[1..]),
        "repair" => repair_cmd(&args[1..]),
        "epoch" => epoch_cmd(&args[1..]),
        "serve" => serve_cmd(&args[1..]),
        "replay" => replay_cmd(&args[1..]),
        "open-extract" => cmd(|| open_extract_cmd(&args[1..])),
        "help" | "--help" | "-h" => cmd(help),
        other => {
            eprintln!("unknown command '{other}'\n");
            help();
            std::process::exit(2);
        }
    };
    if mode.is_on() {
        emit_trace_report(mode, &command_line, &report_dir(&args));
    }
    if code != 0 {
        std::process::exit(code);
    }
}

/// Run a plain command that always succeeds at the process level.
fn cmd(f: impl FnOnce()) -> i32 {
    f();
    0
}

/// Where a traced run's `RUN_REPORT.json` belongs: the command's own
/// output directory when it has one, `artifacts/` otherwise. Store
/// commands report next to the store they touched, so the scrub span and
/// store.* counters land with the shards.
fn report_dir(args: &[String]) -> String {
    let rest: Vec<String> = args
        .iter()
        .skip(1)
        .filter(|a| *a != "--watch")
        .cloned()
        .collect();
    match args.first().map(String::as_str) {
        Some(c @ ("reproduce" | "extensions")) => out_dir(c, &rest),
        Some("scrub") => rest.first().cloned().unwrap_or_else(|| EPOCH_DIR.into()),
        Some(c @ ("epoch" | "repair" | "serve" | "replay")) => store_dir(c, &rest),
        _ => "artifacts".into(),
    }
}

/// Write `RUN_REPORT.json` (always) plus the mode-specific sink: a
/// chrome-trace `trace.json` for `json`, a span tree on stderr for
/// `pretty`. Reporting is best-effort — a failed write never fails the
/// run it describes.
fn emit_trace_report(mode: TraceMode, command: &str, dir: &str) {
    let dir = std::path::Path::new(dir);
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace: could not create {}: {e}", dir.display());
        return;
    }
    // Derive the cache hit-rate gauge (and force-register the
    // invalidations counter) so every RUN_REPORT.json carries them.
    webstruct::core::publish_cache_hit_rate();
    #[allow(clippy::cast_precision_loss)]
    obs::metrics().set_gauge(
        "process.peak_rss_mb",
        obs::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
    );
    let obs = obs::global();
    let report = obs::run_report_json(command, webstruct::util::par::num_threads(), obs);
    let report_path = dir.join("RUN_REPORT.json");
    match std::fs::write(&report_path, report) {
        Ok(()) => eprintln!("trace: wrote {}", report_path.display()),
        Err(e) => eprintln!("trace: could not write {}: {e}", report_path.display()),
    }
    match mode {
        TraceMode::Json => {
            let trace_path = dir.join("trace.json");
            match std::fs::write(&trace_path, obs.trace.to_chrome_json()) {
                Ok(()) => eprintln!("trace: wrote {} (chrome://tracing)", trace_path.display()),
                Err(e) => eprintln!("trace: could not write {}: {e}", trace_path.display()),
            }
        }
        TraceMode::Pretty => eprint!("{}", obs.trace.to_pretty()),
        TraceMode::Off => {}
    }
}

fn help() {
    println!(
        "webstruct — reproduction of 'An Analysis of Structured Data on the Web' (VLDB 2012)\n\
         \n\
         USAGE:\n\
         \twebstruct list\n\
         \twebstruct reproduce [SCALE] [OUTDIR]\n\
         \twebstruct trace <CMD> [ARGS...]        run any command with tracing on\n\
         \t                                       (WEBSTRUCT_TRACE=json|pretty|off;\n\
         \t                                       emits RUN_REPORT.json + trace.json)\n\
         \twebstruct extensions [SCALE] [OUTDIR] every extension experiment's figures/tables\n\
         \twebstruct figure <ID> [SCALE]      e.g. fig1a, fig4b, fig8-imdb,\n\
         \t                                   ext-discovery-restaurants\n\
         \twebstruct table <1|2> [SCALE]\n\
         \twebstruct epoch [DOMAIN] [SCALE] [DIR] [FRACTION] [SHARD_KB]  render to page\n\
         \t                                      shards and extract out-of-core (epoch 0),\n\
         \t                                      then mutate FRACTION (0 to 1) of sites, re-run\n\
         \t                                      the dirty slice (epoch 1)\n\
         \twebstruct scrub [DIR]                 re-hash every shard against MANIFEST.wsm\n\
         \twebstruct repair [DOMAIN] [SCALE] [DIR] [FRACTION] [SHARD_KB]  quarantine\n\
         \t                                      damage and re-render the store `epoch`\n\
         \t                                      left with the same arguments (a `serve`\n\
         \t                                      store: FRACTION 0, SHARD_KB 1024)\n\
         \twebstruct serve [--watch] [DOMAIN] [SCALE] [DIR] [PORT]  serve the extracted\n\
         \t                                      web over HTTP (entity lookup, coverage,\n\
         \t                                      demand curves, figure CSVs, /metrics;\n\
         \t                                      POST /shutdown stops; with --watch,\n\
         \t                                      POST /admin/epoch hot-swaps a new epoch)\n\
         \twebstruct replay [DOMAIN] [SCALE] [DIR] [N] [CLIENTS]  replay the simulated\n\
         \t                                      population against a local server\n\
         \twebstruct open-extract [DOMAIN] [SITES] [SCALE]  catalog-free database build\n\
         \n\
         DOMAINS: {}",
        Domain::ALL
            .iter()
            .map(|d| d.slug())
            .collect::<Vec<_>>()
            .join(", ")
    );
}

fn parse_scale(args: &[String], index: usize, default: f64) -> f64 {
    match args.get(index) {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("warning: could not parse '{raw}' as a number, using {default}");
            default
        }),
    }
}

fn parse_domain(args: &[String], index: usize) -> Domain {
    let slug = args.get(index).map(String::as_str).unwrap_or("restaurants");
    Domain::ALL
        .iter()
        .copied()
        .find(|d| d.slug() == slug)
        .unwrap_or_else(|| {
            eprintln!("unknown domain '{slug}', using restaurants");
            Domain::Restaurants
        })
}

/// Where `epoch`, `scrub` and `repair` find their store by default.
const EPOCH_DIR: &str = "artifacts/epoch";

/// The seed label of the one mutation the CLI applies: `epoch` takes the
/// store from epoch 0 to epoch 1 with it, and `repair` replays it to plan
/// the same epoch-1 store.
const MUTATION_LABEL: &str = "epoch-cli";

/// `[DOMAIN] [SCALE] [DIR]`, the leading arguments of every command that
/// keeps a store: `epoch`, `repair`, `serve` and `replay`.
fn store_args(command: &str, args: &[String]) -> (Domain, f64, String) {
    (
        parse_domain(args, 0),
        parse_scale(args, 1, 0.05),
        store_dir(command, args),
    )
}

/// The `[DIR]` of [`store_args`]; `serve` and `replay` default to their
/// own directory.
fn store_dir(command: &str, args: &[String]) -> String {
    let default = match command {
        "serve" | "replay" => "artifacts/serve",
        _ => EPOCH_DIR,
    };
    args.get(2).cloned().unwrap_or_else(|| default.into())
}

/// The store `epoch` and `repair` plan from `[DOMAIN] [SCALE] [DIR]
/// [FRACTION] [SHARD_KB]`: the epoch-0 corpus cut into SHARD_KB shards,
/// its directory, and the FRACTION of sites the CLI's mutation dirties.
/// A FRACTION outside [0, 1] (or NaN) is a usage error: exit 2 before
/// any file is touched.
fn epoch_plan(command: &str, args: &[String]) -> (Epoch, String, f64) {
    let (domain, scale, dir) = store_args(command, args);
    let fraction = parse_scale(args, 3, 0.01);
    if !(0.0..=1.0).contains(&fraction) {
        eprintln!(
            "usage: webstruct {command} [DOMAIN] [SCALE] [DIR] [FRACTION] [SHARD_KB]\n\
             FRACTION must be a number in [0, 1], got {fraction}"
        );
        std::process::exit(2);
    }
    let shard_kb: u64 = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(8);
    let config = StudyConfig::default().with_scale(scale);
    // Small shards (few sites per shard) so a small site mutation
    // dirties a small *fraction* of the shard count.
    let epoch = Epoch::new(domain, config).with_shard_bytes(shard_kb.max(1) * 1024);
    (epoch, dir, fraction)
}

fn list() {
    for (heading, out) in [
        ("", run_all(&StudyConfig::quick())),
        ("extension ", run_extensions(&StudyConfig::quick())),
    ] {
        println!("{heading}figures:");
        for f in &out.figures {
            println!("  {:<18} {}", f.id, f.title);
        }
        println!("{heading}tables:");
        for (i, t) in out.tables.iter().enumerate() {
            println!("  {:<18} {}", format!("table{}", i + 1), t.title);
        }
    }
}

/// Where `reproduce` and `extensions` write: `[OUTDIR]`, their second
/// argument.
fn out_dir(command: &str, args: &[String]) -> String {
    let default = match command {
        "extensions" => "artifacts/extensions",
        _ => "artifacts",
    };
    args.get(1).cloned().unwrap_or_else(|| default.into())
}

/// `reproduce` and `extensions`: run every family of `run` at `[SCALE]`
/// and write the artifacts under `[OUTDIR]`. Exit code 1 when a family
/// failed (the survivors are still written).
fn run_and_write(args: &[String], command: &str, run: fn(&StudyConfig) -> RunOutput) -> i32 {
    let scale = parse_scale(args, 0, 1.0);
    let outdir = out_dir(command, args);
    let config = StudyConfig::default().with_scale(scale);
    let t0 = std::time::Instant::now();
    let out = run(&config);
    println!(
        "generated {} figures, {} tables in {:.1?}",
        out.figures.len(),
        out.tables.len(),
        t0.elapsed()
    );
    for failure in &out.failures {
        eprintln!(
            "DEGRADED: family '{}' failed: {}",
            failure.family, failure.error
        );
    }
    write_outputs(std::path::Path::new(&outdir), &out).expect("write artifacts");
    println!("written to {outdir}/");
    i32::from(!out.failures.is_empty())
}

fn figure(args: &[String]) {
    let Some(id) = args.first() else {
        eprintln!("usage: webstruct figure <ID> [SCALE]");
        std::process::exit(2);
    };
    let scale = parse_scale(args, 1, 0.25);
    let config = StudyConfig::default().with_scale(scale);
    let out = if id.starts_with("ext-") {
        run_extensions(&config)
    } else {
        run_all(&config)
    };
    match out.figure(id) {
        Some(f) => {
            println!("{}", f.ascii_plot(76, 20));
            println!("{}", f.to_dat());
        }
        None => {
            eprintln!("no figure '{id}'; try `webstruct list`");
            std::process::exit(1);
        }
    }
}

fn table(args: &[String]) {
    let which = args.first().map(String::as_str).unwrap_or("2");
    let scale = parse_scale(args, 1, 0.25);
    match which {
        "1" => println!("{}", table1().to_text()),
        "2" => {
            let study = Study::new(StudyConfig::default().with_scale(scale));
            println!("{}", connectivity::table2(&study).to_text());
        }
        other => {
            eprintln!("no table '{other}' (the paper has tables 1 and 2)");
            std::process::exit(1);
        }
    }
}

/// Write (or clear) `DEGRADED.md` in the store directory: quarantined
/// shards degrade the run without aborting it, and the marker file makes
/// that loud for whoever picks up the artifacts.
fn surface_degradation(
    dir: &std::path::Path,
    command: &str,
    recovery: &webstruct::corpus::RecoveryReport,
) {
    let marker = dir.join("DEGRADED.md");
    if recovery.shards_quarantined == 0 {
        // A clean run supersedes any earlier degradation note.
        let _ = std::fs::remove_file(&marker);
        return;
    }
    let body = format!(
        "# Degraded store recovery\n\n\
         `webstruct {command}` found damage in this shard store and repaired it\n\
         instead of aborting. The store is now complete and verified, but the\n\
         original bytes of the affected shards are preserved under `.quarantine/`\n\
         for post-mortem.\n\n\
         | metric | count |\n|---|---|\n\
         | shards planned | {} |\n\
         | shards reused | {} |\n\
         | shards re-rendered | {} |\n\
         | shards quarantined | {} |\n\
         | temp files swept | {} |\n",
        recovery.shards_total,
        recovery.shards_reused,
        recovery.shards_rendered,
        recovery.shards_quarantined,
        recovery.tmp_removed,
    );
    match std::fs::write(&marker, body) {
        Ok(()) => eprintln!(
            "DEGRADED: {} shard(s) quarantined and re-rendered; see {}",
            recovery.shards_quarantined,
            marker.display()
        ),
        Err(e) => eprintln!("could not write {}: {e}", marker.display()),
    }
}

/// Full integrity pass over an existing store: re-hash and re-frame every
/// shard against `MANIFEST.wsm`. Exit code 0 = clean, 1 = damage found,
/// 2 = no usable manifest.
fn scrub_cmd(args: &[String]) -> i32 {
    use webstruct::corpus::ShardStore;

    let dir = args.first().cloned().unwrap_or_else(|| EPOCH_DIR.into());
    let report = match ShardStore::scrub_dir(std::path::Path::new(&dir)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("scrub: cannot read store under {dir}: {e}");
            return 2;
        }
    };
    println!("scrub of {dir}/:");
    print!("{}", report.to_text());
    if report.is_clean() {
        println!("store is clean: every shard digest verified against MANIFEST.wsm");
        0
    } else {
        println!("store is damaged — run `webstruct repair` to quarantine and re-render");
        1
    }
}

/// Quarantine-and-repair the store `epoch` left with the same arguments:
/// corrupt or stray files move to `.quarantine/` and the shards are
/// re-rendered at epoch 1 from the seed, converging to the bytes a cold
/// write would have produced; dropped cache entries replay on the next
/// `epoch` run. Exit code 0 = repaired, 1 = the repair failed, 2 = the
/// directory holds a store written with other parameters, or another run
/// holds its `LOCK` (nothing is touched either way).
fn repair_cmd(args: &[String]) -> i32 {
    use webstruct::corpus::ShardError;

    let (mut epoch, dir, fraction) = epoch_plan("repair", args);
    epoch.mutate(fraction, Seed::DEFAULT.derive(MUTATION_LABEL));
    let t0 = std::time::Instant::now();
    let recovery = match epoch.repair(std::path::Path::new(&dir)) {
        Ok(recovery) => recovery,
        Err(e @ ShardError::ConfigMismatch) => {
            eprintln!("repair: {dir}/ holds a store written with other parameters: {e}");
            return 2;
        }
        Err(e @ ShardError::Locked) => {
            eprintln!("repair: {dir}/ is in use, nothing touched: {e}");
            return 2;
        }
        Err(e) => {
            eprintln!("repair: could not rebuild store under {dir}: {e}");
            return 1;
        }
    };
    println!(
        "repaired {dir}/ in {:.2}s: {} shard(s) verified and kept, {} re-rendered,\n\
         \t{} quarantined to .quarantine/, {} temp file(s) swept; store now has {} shard(s)",
        t0.elapsed().as_secs_f64(),
        recovery.shards_reused,
        recovery.shards_rendered,
        recovery.shards_quarantined,
        recovery.tmp_removed,
        recovery.shards_total,
    );
    surface_degradation(std::path::Path::new(&dir), "repair", &recovery);
    0
}

/// The out-of-core pipeline and incremental recomputation end to end:
/// render the corpus into page shards and extract straight off the shard
/// files (cold if the directory is empty, a warm resume otherwise), then
/// mutate a fraction of the corpus's sites and re-run — only the dirty
/// shards re-render and re-extract; every clean shard's extraction
/// replays from its content-addressed `ext-*.wse` snapshot. A run that
/// quarantines damaged shards writes `DEGRADED.md`.
fn epoch_cmd(args: &[String]) -> i32 {
    use webstruct::core::epoch::EpochReport;

    let (mut epoch, dir, fraction) = epoch_plan("epoch", args);
    let threads = webstruct::util::par::num_threads();
    let run = |epoch: &Epoch, stage: &str| -> Option<(EpochReport, f64)> {
        let t = std::time::Instant::now();
        match epoch.run(std::path::Path::new(&dir), threads) {
            Ok(r) => {
                if r.recovery.shards_quarantined > 0 {
                    surface_degradation(std::path::Path::new(&dir), "epoch", &r.recovery);
                }
                Some((r, t.elapsed().as_secs_f64()))
            }
            Err(e) => {
                eprintln!("epoch: {stage} run failed under {dir}: {e}");
                None
            }
        }
    };

    let Some((base, base_secs)) = run(&epoch, "baseline") else {
        return 1;
    };
    println!(
        "epoch {}: {} shard(s), {} cache hit(s), {} miss(es) in {:.2}s\n\
         \toutput digest {}",
        base.epoch,
        base.recovery.shards_total,
        base.cache_hits,
        base.cache_misses,
        base_secs,
        base.digest_hex(),
    );

    let mutated = epoch.mutate(fraction, Seed::DEFAULT.derive(MUTATION_LABEL));
    println!(
        "mutated {mutated} site(s) ({:.1}% of the corpus)",
        100.0 * fraction
    );

    let Some((warm, warm_secs)) = run(&epoch, "incremental") else {
        return 1;
    };
    println!(
        "epoch {}: re-rendered {} stale shard(s), replayed {} from cache \
         ({} recomputed, {} invalidated) in {:.2}s\n\
         \toutput digest {}",
        warm.epoch,
        warm.recovery.shards_rendered,
        warm.cache_hits,
        warm.cache_misses,
        warm.cache_invalidations,
        warm_secs,
        warm.digest_hex(),
    );
    if base_secs > 0.0 {
        println!(
            "incremental cost: {:.1}% of the epoch-0 wall clock",
            100.0 * warm_secs / base_secs
        );
    }
    0
}

/// Serve the extracted web over HTTP until a client POSTs `/shutdown`.
/// The state is built from (or warms) the epoch store under DIR, so a
/// second boot replays cached extraction snapshots instead of
/// re-extracting.
fn serve_cmd(args: &[String]) -> i32 {
    use std::sync::Arc;
    use webstruct::serve::{
        EpochManager, ServeConfig, ServeEpoch, ServeState, Server, SharedServing,
    };

    let watch = args.iter().any(|a| a == "--watch");
    let args: Vec<String> = args.iter().filter(|a| *a != "--watch").cloned().collect();
    let (domain, scale, dir) = store_args("serve", &args);
    let port: u16 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0);
    let threads = webstruct::util::par::num_threads();
    let config = StudyConfig::default().with_scale(scale);

    let t0 = std::time::Instant::now();
    let epoch = Epoch::new(domain, config);
    let state = match ServeState::from_epoch(&epoch, std::path::Path::new(&dir), threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: could not build state under {dir}: {e}");
            return 1;
        }
    };
    println!(
        "built serving state for {domain} (scale {scale}) in {:.2}s: \
         {} entities, {} sites, epoch {} (digest {})",
        t0.elapsed().as_secs_f64(),
        state.catalog.len(),
        state.n_sites(),
        state.report.epoch,
        state.report.digest_hex(),
    );
    let serve_config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let shared = Arc::new(SharedServing::new(ServeEpoch::new(Arc::new(state))));
    let manager = watch.then(|| {
        Arc::new(EpochManager::new(
            epoch,
            std::path::PathBuf::from(&dir),
            threads,
        ))
    });
    let server = match Server::start_with(
        shared,
        manager,
        &serve_config,
        &format!("127.0.0.1:{port}"),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: could not bind 127.0.0.1:{port}: {e}");
            return 1;
        }
    };
    println!(
        "serving on http://{} with {threads} worker(s); POST /shutdown to stop{}",
        server.local_addr(),
        if watch {
            "; POST /admin/epoch hot-swaps the next epoch"
        } else {
            ""
        },
    );
    let stats = server.join();
    println!(
        "shut down: {} connection(s) ({} clean, {} timeout, {} error), \
         {} request(s), {} parse error(s), {}/{}/{}/{} 2xx/3xx/4xx/5xx, \
         cache {} hit(s) {} miss(es) {} revalidation(s) {} swap(s), \
         p50 {}us p99 {}us",
        stats.accepted,
        stats.closed_clean,
        stats.closed_timeout,
        stats.closed_error,
        stats.requests,
        stats.parse_errors,
        stats.resp_2xx,
        stats.resp_3xx,
        stats.resp_4xx,
        stats.resp_5xx,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_revalidations,
        stats.cache_swaps,
        stats.latency_percentile_us(0.50),
        stats.latency_percentile_us(0.99),
    );
    if stats.is_consistent() {
        0
    } else {
        eprintln!("serve: accounting invariant violated: {stats:?}");
        1
    }
}

/// Boot an in-process server, replay the simulated population against it
/// over real sockets, and print the latency/throughput report.
fn replay_cmd(args: &[String]) -> i32 {
    use std::sync::Arc;
    use webstruct::demand::model::{StudySite, TrafficConfig};
    use webstruct::demand::traffic::RequestPlan;
    use webstruct::serve::{replay, ReplayOptions, ServeConfig, ServeState, Server};

    let (domain, scale, dir) = store_args("replay", args);
    let requests: u64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let clients: usize = args.get(4).and_then(|s| s.parse().ok()).unwrap_or(4);
    let threads = webstruct::util::par::num_threads();
    let config = StudyConfig::default().with_scale(scale);
    let seed = config.seed;

    let state = match ServeState::build(domain, config, std::path::Path::new(&dir), threads) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("replay: could not build state under {dir}: {e}");
            return 1;
        }
    };
    let n_entities = state.catalog.len();
    let serve_config = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let server = match Server::start(Arc::new(state), &serve_config, "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("replay: could not bind an ephemeral port: {e}");
            return 1;
        }
    };
    let addr = server.local_addr();
    println!(
        "replaying {requests} request(s) from the simulated population \
         over {clients} client(s) against http://{addr} ({threads} server worker(s))"
    );
    let plan = RequestPlan::new(
        &TrafficConfig::preset(StudySite::Amazon).scaled(scale),
        n_entities,
        seed,
    );
    let report = replay(addr, &plan, &ReplayOptions { clients, requests });
    let _ = webstruct::serve::fetch(addr, "POST", "/shutdown");
    let stats = server.join();
    println!(
        "replay done in {:.2}s:\n\
         \t{} ok, {} rejected, {} transport error(s)\n\
         \t{:.0} req/s, latency p50 {:.2}ms p99 {:.2}ms mean {:.2}ms\n\
         \tresponse digest {}",
        report.wall_secs,
        report.ok,
        report.rejected,
        report.errors,
        report.rps,
        report.p50_ms,
        report.p99_ms,
        report.mean_ms,
        report.digest,
    );
    for slice in &report.epochs {
        let tag = if slice.etag.is_empty() {
            "(untagged)"
        } else {
            slice.etag.as_str()
        };
        println!(
            "\tepoch slice {tag}: {} response(s), digest {}",
            slice.responses, slice.digest
        );
    }
    if stats.is_consistent() {
        0
    } else {
        eprintln!("replay: accounting invariant violated: {stats:?}");
        1
    }
}

fn open_extract_cmd(args: &[String]) {
    let domain = parse_domain(args, 0);
    let max_sites = args
        .get(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100usize);
    let scale = parse_scale(args, 2, 0.1);
    let study = Study::new(StudyConfig::default().with_scale(scale));
    let r = open_extraction::open_extraction(&study, domain, max_sites);
    println!(
        "open extraction over the {} largest sites of {domain}:\n\
         \traw records extracted   {}\n\
         \tdatabase after dedup    {}\n\
         \ttrue entities on sites  {}\n\
         \tname recall             {:.2}%\n\n\
         No catalog was consulted during extraction — wrappers were induced from\n\
         page templates, phones came from the scanner, identity from the deduper.",
        r.sites_wrapped,
        r.raw_records,
        r.database_size,
        r.true_entities,
        100.0 * r.name_recall,
    );
}
