//! Run every experiment and write report artifacts.
//!
//! The study splits into independent figure families (spread, tail value,
//! connectivity) that share only the thread-safe [`Study`] cache. With
//! more than one worker thread available (see
//! [`webstruct_util::par::num_threads`]) the families run concurrently;
//! output is assembled in fixed paper order either way, and per-key
//! seeding makes the artifacts byte-identical to the sequential run.
//!
//! Every family runs behind a `catch_unwind` backstop: a panic inside
//! one experiment removes that family's artifacts and records a
//! [`FamilyFailure`], but the other families still run and their
//! artifacts are still written (plus a `DEGRADED.md` report naming what
//! failed). Set the `WEBSTRUCT_FAIL_FAMILY` environment variable to a
//! family name to run a chaos drill against a live binary.

use crate::cache::Study;
use crate::experiments::{connectivity, discovery, linkage, redundancy, spread, table1, tail_value};
use webstruct_corpus::domain::Domain;
use crate::study::StudyConfig;
use std::io::Write as _;
use std::path::Path;
use webstruct_util::par;
use webstruct_util::report::{Figure, Table};

/// Environment variable naming a figure family to fail on purpose
/// (chaos drill): one of `spread`, `tail-value`, `connectivity`,
/// `ext-discovery`, `ext-redundancy`, `ext-user-tail`, `ext-linkage`,
/// `ext-failure`.
pub const FAIL_FAMILY_ENV: &str = "WEBSTRUCT_FAIL_FAMILY";

/// One figure family that died: which one, and the panic it died with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyFailure {
    /// Family name (e.g. `"tail-value"`).
    pub family: String,
    /// The panic message the family failed with.
    pub error: String,
}

/// Wall-clock timing of one figure family (observability only — never
/// part of the deterministic metric snapshot).
#[derive(Debug, Clone, PartialEq)]
pub struct FamilyTiming {
    /// Family name (e.g. `"spread"`).
    pub family: String,
    /// Wall-clock seconds the family took (including a failed attempt).
    pub secs: f64,
}

/// The complete output of a reproduction run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every figure, in paper order.
    pub figures: Vec<Figure>,
    /// Every table, in paper order.
    pub tables: Vec<Table>,
    /// Families that panicked instead of producing artifacts. Empty on a
    /// healthy run.
    pub failures: Vec<FamilyFailure>,
    /// Per-family wall-clock timings, in fixed family order regardless of
    /// scheduling.
    pub timings: Vec<FamilyTiming>,
}

impl RunOutput {
    /// Find a figure by id (e.g. `"fig4b"`).
    #[must_use]
    pub fn figure(&self, id: &str) -> Option<&Figure> {
        self.figures.iter().find(|f| f.id == id)
    }

    /// Whether every family completed.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one figure family behind a `catch_unwind` backstop, injecting a
/// panic first when `chaos` names this family. The closure only touches
/// the panic-safe [`Study`] cache (its locks are never held across
/// experiment code), so `AssertUnwindSafe` is sound: a dead family
/// leaves the cache usable by the others.
fn run_family<T>(
    name: &str,
    chaos: Option<&str>,
    f: impl FnOnce() -> T,
) -> (Result<T, FamilyFailure>, FamilyTiming) {
    let inject = chaos == Some(name);
    let _span = webstruct_util::obs::span_with(|| format!("family:{name}"));
    let start = std::time::Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        assert!(!inject, "chaos drill: injected failure into the '{name}' family");
        f()
    }))
    .map_err(|payload| FamilyFailure {
        family: name.to_string(),
        error: panic_message(payload.as_ref()),
    });
    let timing = FamilyTiming {
        family: name.to_string(),
        secs: start.elapsed().as_secs_f64(),
    };
    webstruct_util::obs::metrics().add(
        if result.is_ok() {
            "runner.families_ok"
        } else {
            "runner.families_failed"
        },
        1,
    );
    (result, timing)
}

/// The chaos target from [`FAIL_FAMILY_ENV`], if set.
fn chaos_from_env() -> Option<String> {
    std::env::var(FAIL_FAMILY_ENV).ok().filter(|s| !s.is_empty())
}

/// The spread family: Figures 1–5, in paper order.
fn spread_family(study: &Study) -> Vec<Figure> {
    let mut figures = Vec::new();
    figures.extend(spread::fig1(study));
    figures.extend(spread::fig2(study));
    figures.push(spread::fig3(study));
    let (fig4a, fig4b) = spread::fig4(study);
    figures.push(fig4a);
    figures.push(fig4b);
    figures.push(spread::fig5(study));
    figures
}

/// The tail-value family: Figures 6–8, in paper order.
fn tail_family(study: &Study) -> Vec<Figure> {
    let mut figures = Vec::new();
    figures.extend(tail_value::fig6(study));
    figures.extend(tail_value::fig7(study));
    figures.extend(tail_value::fig8(study));
    figures
}

/// Run the full study: every table and figure of the paper.
///
/// Independent figure families execute on separate threads when more than
/// one worker is configured; the artifact list is identical to the
/// sequential run either way. A panicking family degrades the output
/// (see [`RunOutput::failures`]) instead of killing the run; set
/// [`FAIL_FAMILY_ENV`] to drill that path.
#[must_use]
pub fn run_all(config: &StudyConfig) -> RunOutput {
    run_all_chaos(config, chaos_from_env().as_deref())
}

/// [`run_all`] with an explicit chaos target: when `fail_family` names a
/// family (`spread`, `tail-value`, `connectivity`), that family panics
/// on entry and the run degrades around it.
#[must_use]
pub fn run_all_chaos(config: &StudyConfig, fail_family: Option<&str>) -> RunOutput {
    let _span = webstruct_util::span!("run_all");
    let study = Study::new(config.clone());
    let chaos = fail_family;
    let ((spread_res, spread_t), (tail_res, tail_t), (conn_res, conn_t)) =
        if par::num_threads() == 1 {
            (
                run_family("spread", chaos, || spread_family(&study)),
                run_family("tail-value", chaos, || tail_family(&study)),
                run_family("connectivity", chaos, || connectivity::family(&study)),
            )
        } else {
            std::thread::scope(|s| {
                // Panics are caught inside each spawned closure, so `join`
                // only fails if a thread dies outside the backstop (it
                // cannot, short of an abort).
                let tail = s.spawn(|| run_family("tail-value", chaos, || tail_family(&study)));
                let conn =
                    s.spawn(|| run_family("connectivity", chaos, || connectivity::family(&study)));
                // The heaviest family runs on the current thread.
                let spread = run_family("spread", chaos, || spread_family(&study));
                (
                    spread,
                    tail.join().expect("tail-value worker died outside the backstop"),
                    conn.join().expect("connectivity worker died outside the backstop"),
                )
            })
        };
    let mut figures = Vec::new();
    let mut tables = vec![table1()];
    let mut failures = Vec::new();
    match spread_res {
        Ok(figs) => figures.extend(figs),
        Err(failure) => failures.push(failure),
    }
    match tail_res {
        Ok(figs) => figures.extend(figs),
        Err(failure) => failures.push(failure),
    }
    match conn_res {
        Ok((figs, table2)) => {
            figures.extend(figs);
            tables.push(table2);
        }
        Err(failure) => failures.push(failure),
    }
    let m = webstruct_util::obs::metrics();
    m.add("runner.figures", figures.len() as u64);
    m.add("runner.tables", tables.len() as u64);
    RunOutput {
        figures,
        tables,
        failures,
        timings: vec![spread_t, tail_t, conn_t],
    }
}

/// Run the extension experiments (beyond the paper's own artifacts):
/// discovery policies, redundancy fusion, user-level tail analysis,
/// listing deduplication, and discovery under failure, all for a
/// representative domain.
#[must_use]
pub fn run_extensions(config: &StudyConfig) -> RunOutput {
    run_extensions_chaos(config, chaos_from_env().as_deref())
}

/// [`run_extensions`] with an explicit chaos target (`ext-discovery`,
/// `ext-redundancy`, `ext-user-tail`, `ext-linkage`, `ext-failure`).
#[must_use]
pub fn run_extensions_chaos(config: &StudyConfig, fail_family: Option<&str>) -> RunOutput {
    let _span = webstruct_util::span!("run_extensions");
    let study = Study::new(config.clone());
    let chaos = fail_family;
    let run_disc = || discovery::discovery_policies(&study, Domain::Restaurants, 2_000);
    let run_red = || redundancy::redundancy_experiment(&study, Domain::Restaurants);
    let run_tail = || tail_value::user_tail_table(&study);
    let run_link = || linkage::linkage_table(&study, Domain::Restaurants);
    let run_fail = || discovery::discovery_under_failure(&study, Domain::Restaurants, 2_000);
    let ((disc, disc_t), (red, red_t), (tail, tail_t), (link, link_t), (fail, fail_t)) =
        if par::num_threads() == 1 {
            (
                run_family("ext-discovery", chaos, run_disc),
                run_family("ext-redundancy", chaos, run_red),
                run_family("ext-user-tail", chaos, run_tail),
                run_family("ext-linkage", chaos, run_link),
                run_family("ext-failure", chaos, run_fail),
            )
        } else {
            std::thread::scope(|s| {
                let disc = s.spawn(|| run_family("ext-discovery", chaos, run_disc));
                let red = s.spawn(|| run_family("ext-redundancy", chaos, run_red));
                let tail = s.spawn(|| run_family("ext-user-tail", chaos, run_tail));
                let fail = s.spawn(|| run_family("ext-failure", chaos, run_fail));
                let link = run_family("ext-linkage", chaos, run_link);
                (
                    disc.join().expect("discovery worker died outside the backstop"),
                    red.join().expect("redundancy worker died outside the backstop"),
                    tail.join().expect("user-tail worker died outside the backstop"),
                    link,
                    fail.join().expect("failure-sweep worker died outside the backstop"),
                )
            })
        };
    let mut figures = Vec::new();
    let mut tables = Vec::new();
    let mut failures = Vec::new();
    match disc {
        Ok(fig) => figures.push(fig),
        Err(failure) => failures.push(failure),
    }
    match red {
        Ok(fig) => figures.push(fig),
        Err(failure) => failures.push(failure),
    }
    match tail {
        Ok(table) => tables.push(table),
        Err(failure) => failures.push(failure),
    }
    match link {
        Ok(table) => tables.push(table),
        Err(failure) => failures.push(failure),
    }
    match fail {
        Ok((fig, table)) => {
            figures.push(fig);
            tables.push(table);
        }
        Err(failure) => failures.push(failure),
    }
    let m = webstruct_util::obs::metrics();
    m.add("runner.figures", figures.len() as u64);
    m.add("runner.tables", tables.len() as u64);
    RunOutput {
        figures,
        tables,
        failures,
        timings: vec![disc_t, red_t, tail_t, link_t, fail_t],
    }
}

/// Write every artifact under `dir`: one gnuplot `.dat` and one `.csv`
/// per figure, one Markdown file and one `.csv` per table, plus an
/// `index.md` linking them.
///
/// Writing is best-effort per artifact: a failed write is recorded and
/// the remaining artifacts are still attempted, so one bad path never
/// costs the rest of the run's output. When the run itself degraded
/// ([`RunOutput::failures`] non-empty) a `DEGRADED.md` report naming
/// each failed family (and any failed writes) is emitted alongside the
/// artifacts.
///
/// # Errors
/// Returns an error only after attempting every artifact; the message
/// lists each artifact that could not be written and the first error's
/// kind is preserved.
pub fn write_outputs(dir: &Path, output: &RunOutput) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut write_errors: Vec<(String, std::io::Error)> = Vec::new();
    let mut attempt = |name: String, content: Vec<u8>| {
        if let Err(e) = std::fs::write(dir.join(&name), content) {
            write_errors.push((name, e));
        }
    };
    let mut index = String::from("# Reproduction artifacts\n\n## Figures\n\n");
    for fig in &output.figures {
        attempt(format!("{}.dat", fig.id), fig.to_dat().into_bytes());
        attempt(
            format!("{}.csv", fig.id),
            webstruct_util::csv::figure_to_csv(fig).into_bytes(),
        );
        attempt(
            format!("{}.svg", fig.id),
            webstruct_util::svg::figure_to_svg(fig).into_bytes(),
        );
        index.push_str(&format!("- [{}]({}.dat) — {}\n", fig.id, fig.id, fig.title));
    }
    index.push_str("\n## Tables\n\n");
    for (i, table) in output.tables.iter().enumerate() {
        let name = format!("table{}.md", i + 1);
        attempt(name.clone(), table.to_markdown().into_bytes());
        attempt(
            format!("table{}.csv", i + 1),
            webstruct_util::csv::table_to_csv(table).into_bytes(),
        );
        index.push_str(&format!("- [{}]({name})\n", table.title));
    }
    if !output.failures.is_empty() {
        index.push_str("\n**Degraded run** — see [DEGRADED.md](DEGRADED.md).\n");
    }
    attempt("index.md".to_string(), index.into_bytes());
    if !output.failures.is_empty() || !write_errors.is_empty() {
        let mut report = String::from("# Degradation report\n");
        if !output.failures.is_empty() {
            report.push_str("\n## Failed figure families\n\n");
            for f in &output.failures {
                report.push_str(&format!("- `{}` — {}\n", f.family, f.error));
            }
            report.push_str(
                "\nArtifacts from these families are missing; everything else was produced.\n",
            );
        }
        if !write_errors.is_empty() {
            report.push_str("\n## Failed artifact writes\n\n");
            for (name, e) in &write_errors {
                report.push_str(&format!("- `{name}` — {e}\n"));
            }
        }
        if !output.timings.is_empty() {
            report.push_str("\n## Family timings\n\n");
            for t in &output.timings {
                report.push_str(&format!("- `{}` — {:.2}s\n", t.family, t.secs));
            }
        }
        let mut f = std::fs::File::create(dir.join("DEGRADED.md"))?;
        f.write_all(report.as_bytes())?;
    }
    if write_errors.is_empty() {
        Ok(())
    } else {
        let kind = write_errors[0].1.kind();
        let listing = write_errors
            .iter()
            .map(|(name, e)| format!("{name}: {e}"))
            .collect::<Vec<_>>()
            .join("; ");
        Err(std::io::Error::new(
            kind,
            format!(
                "{} of {} artifacts could not be written ({listing})",
                write_errors.len(),
                3 * output.figures.len() + 2 * output.tables.len() + 1
            ),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::TempDir;

    #[test]
    fn run_all_produces_every_artifact() {
        let out = run_all(&StudyConfig::quick());
        // 8 + 8 + 1 + 2 + 1 + 4 + 3 + 3 + 3 = 33 figures.
        assert_eq!(out.figures.len(), 33);
        assert_eq!(out.tables.len(), 2);
        for id in [
            "fig1a", "fig1h", "fig2a", "fig3", "fig4a", "fig4b", "fig5",
            "fig6-cdf-search", "fig6-pdf-browse", "fig7-yelp", "fig8-imdb",
            "fig9a", "fig9c",
        ] {
            assert!(out.figure(id).is_some(), "missing {id}");
        }
        // Ids are unique.
        let mut ids: Vec<&str> = out.figures.iter().map(|f| f.id.as_str()).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn run_extensions_produces_artifacts() {
        let out = run_extensions(&StudyConfig::quick());
        assert_eq!(out.figures.len(), 3);
        assert_eq!(out.tables.len(), 3);
        assert!(out.is_complete());
        assert!(out.figure("ext-discovery-restaurants").is_some());
        assert!(out.figure("ext-redundancy-restaurants").is_some());
        let fail_fig = out
            .figure("ext-discovery-under-failure-restaurants")
            .expect("failure-sweep figure present");
        assert_eq!(fail_fig.series.len(), 3, "one curve per failure rate");
        // The counters table carries breaker/retry columns per rate.
        let counters = &out.tables[2];
        assert_eq!(counters.rows.len(), 3);
        assert!(counters.headers.iter().any(|h| h == "Retries"));
        assert!(counters.headers.iter().any(|h| h == "Breaker opens"));
    }

    #[test]
    fn write_outputs_creates_files() {
        let out = run_all(&StudyConfig::quick());
        let dir = TempDir::new("runner-artifacts");
        write_outputs(&dir, &out).unwrap();
        assert!(dir.join("fig1a.dat").exists());
        assert!(dir.join("fig1a.csv").exists());
        assert!(dir.join("fig1a.svg").exists());
        assert!(dir.join("fig9c.dat").exists());
        assert!(dir.join("table2.md").exists());
        assert!(dir.join("table2.csv").exists());
        assert!(
            !dir.join("DEGRADED.md").exists(),
            "healthy runs produce no degradation report"
        );
        let index = std::fs::read_to_string(dir.join("index.md")).unwrap();
        assert!(index.contains("fig5"));
    }

    #[test]
    fn chaos_killing_one_family_leaves_the_rest_alive() {
        let out = run_all_chaos(&StudyConfig::quick(), Some("tail-value"));
        assert!(!out.is_complete());
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].family, "tail-value");
        assert!(
            out.failures[0].error.contains("chaos drill"),
            "failure message was: {}",
            out.failures[0].error
        );
        // Spread and connectivity artifacts survive; no fig6/7/8.
        assert!(out.figure("fig1a").is_some());
        assert!(out.figure("fig9a").is_some());
        assert!(out.figure("fig6-cdf-search").is_none());
        // fig6 (4) + fig7 (3) + fig8 (3) = 10 tail figures are gone.
        assert_eq!(out.figures.len(), 33 - 10);
        assert_eq!(out.tables.len(), 2, "table1 + table2 unaffected");
    }

    #[test]
    fn chaos_killing_connectivity_drops_table2_only() {
        let out = run_all_chaos(&StudyConfig::quick(), Some("connectivity"));
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].family, "connectivity");
        assert_eq!(out.tables.len(), 1, "table1 survives, table2 is gone");
        assert!(out.figure("fig9a").is_none());
        assert!(out.figure("fig1a").is_some());
        assert!(out.figure("fig6-cdf-search").is_some());
    }

    #[test]
    fn chaos_in_extensions_degrades_gracefully() {
        let out = run_extensions_chaos(&StudyConfig::quick(), Some("ext-failure"));
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].family, "ext-failure");
        assert_eq!(out.figures.len(), 2);
        assert_eq!(out.tables.len(), 2);
        assert!(out.figure("ext-discovery-restaurants").is_some());
    }

    #[test]
    fn degraded_run_writes_report_naming_the_failed_family() {
        let out = run_all_chaos(&StudyConfig::quick(), Some("tail-value"));
        let dir = TempDir::new("runner-degraded");
        write_outputs(&dir, &out).expect("writes succeed; degradation is not an I/O error");
        assert!(dir.join("fig1a.dat").exists());
        assert!(!dir.join("fig6-cdf-search.dat").exists());
        let report = std::fs::read_to_string(dir.join("DEGRADED.md")).unwrap();
        assert!(report.contains("`tail-value`"), "report: {report}");
        assert!(report.contains("chaos drill"));
        let index = std::fs::read_to_string(dir.join("index.md")).unwrap();
        assert!(index.contains("DEGRADED.md"));
    }

    #[test]
    fn write_outputs_surfaces_partial_failures_but_writes_the_rest() {
        let out = run_all(&StudyConfig::quick());
        let dir = TempDir::new("runner-partial-write");
        // Make two artifact paths unwritable by pre-creating directories
        // with those names (std::fs::write then fails with EISDIR — this
        // works even when the tests run as root, unlike a chmod).
        std::fs::create_dir_all(dir.join("fig1a.dat")).unwrap();
        std::fs::create_dir_all(dir.join("table1.md")).unwrap();
        let err = write_outputs(&dir, &out).expect_err("two artifacts are unwritable");
        let msg = err.to_string();
        assert!(msg.contains("fig1a.dat"), "error was: {msg}");
        assert!(msg.contains("table1.md"), "error was: {msg}");
        assert!(msg.contains("2 of"), "error was: {msg}");
        // Every other artifact was still written.
        assert!(dir.join("fig1a.csv").exists());
        assert!(dir.join("fig1a.svg").exists());
        assert!(dir.join("fig9c.dat").exists());
        assert!(dir.join("table2.md").exists());
        assert!(dir.join("index.md").exists());
        // The write failures are also recorded in the degradation report.
        let report = std::fs::read_to_string(dir.join("DEGRADED.md")).unwrap();
        assert!(report.contains("Failed artifact writes"));
    }
}
