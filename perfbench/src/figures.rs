//! `figures`: the paper's deliverable. One operation is `run_all` over
//! the extracted data source: 33 figures and 2 tables over nine domains.

use crate::measure::{clean_mean, clean_median, cpu_secs, median, median_of, sampled, Sample};
use crate::{Ctx, Outcome};
use webstruct_core::runner::{run_all, RunOutput};
use webstruct_core::study::{DataSource, DomainStudy, StudyConfig};
use webstruct_corpus::domain::Domain;
use webstruct_util::par::THREADS_ENV;
use webstruct_util::sha::Sha256;

/// Corpus scale of every operation.
pub const SCALE: f64 = 0.15;
/// Figures and tables a complete run produces.
pub const FIGURES: usize = 33;
pub const TABLES: usize = 2;

/// The repository's reproduction corpus. Unlike the other workloads the
/// corpus does not follow the workload seed: the connectivity family's
/// iFUB diameter searches dominate an operation, and their BFS count
/// swings the operation's cost by up to 50% between corpora of the same
/// size, so a per-seed corpus would measure the corpus, not the code.
pub fn config() -> StudyConfig {
    StudyConfig::default()
        .with_scale(SCALE)
        .with_source(DataSource::Extracted)
}

/// SHA-256 over every artifact's rendered bytes, in paper order.
pub fn digest(out: &RunOutput) -> [u8; 32] {
    let mut h = Sha256::new();
    for f in &out.figures {
        h.update(f.id.as_bytes());
        h.update(f.to_dat().as_bytes());
    }
    for t in &out.tables {
        h.update(t.to_markdown().as_bytes());
    }
    h.finalize()
}

/// Whether `out` is a complete run.
pub fn complete(out: &RunOutput) -> bool {
    out.failures.is_empty() && out.figures.len() == FIGURES && out.tables.len() == TABLES
}

/// `run_all` with the program pinned to one worker thread: the
/// reference every timed operation must reproduce byte for byte.
pub fn single_thread_run(config: &StudyConfig) -> RunOutput {
    let previous = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, "1");
    let out = run_all(config);
    match previous {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    out
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut o = Outcome::default();
    let config = config();
    o.stamp("scale", SCALE);
    o.stamp("source", "extracted");

    // Set-up: generating the nine domains' catalogs and webs, the part
    // of an operation that does not depend on the figure code.
    let (_, setup) = median_of(3, || {
        Domain::ALL
            .iter()
            .map(|&d| DomainStudy::generate(d, &config).web.n_sites())
            .sum::<usize>()
    });
    o.set("setup_s", setup);

    // The first operation in a fresh process pays its cold costs.
    let (cold, (cold_s, cold_steal)) = sampled(|| run_all(&config));
    o.stamp("cold_s", cold_s);
    o.stamp("cold_steal", format!("{cold_steal:.3}"));
    let reference = single_thread_run(&config);
    let want = digest(&reference);
    o.check(
        complete(&reference),
        "single-thread reference run is complete",
    );
    o.check(
        complete(&cold) && digest(&cold) == want,
        "cold run matches the reference",
    );

    let mut times: Vec<Sample> = Vec::new();
    let mut cpu: Vec<Sample> = Vec::new();
    let mut families: Vec<Vec<f64>> = Vec::new();
    let window = std::time::Instant::now();
    while window.elapsed().as_secs_f64() < ctx.seconds || times.len() < 3 {
        let cpu0 = cpu_secs();
        let (out, sample) = sampled(|| run_all(&config));
        times.push(sample);
        cpu.push((cpu_secs() - cpu0, sample.1));
        families.push(out.timings.iter().map(|t| t.secs).collect());
        o.check(
            complete(&out) && digest(&out) == want,
            "run_all digest equals the single-thread reference",
        );
    }
    let (p50, used) = clean_median(&times);
    o.set("op_p50_ms", p50 * 1e3);
    o.set("cpu_ms_per_op", clean_mean(&cpu) * 1e3);
    // Any change to the inputs means a full re-run.
    o.stamp("refresh_s", p50);
    let slowest = times.iter().map(|s| s.0).fold(0.0, f64::max);
    o.stamp("op_tail_ms", slowest * 1e3);
    o.stamp("ops_used", format!("{used} of {}", times.len()));
    if let Some(first) = families.first() {
        let per: Vec<f64> = (0..first.len())
            .map(|i| median(&families.iter().map(|f| f[i]).collect::<Vec<_>>()))
            .collect();
        o.stamp(
            "family_s",
            format!("spread/tail-value/connectivity {per:.3?}"),
        );
    }
    o.stamp("digest", crate::measure::hex(&want));
    o
}
