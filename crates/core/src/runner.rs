//! Run every experiment and write report artifacts.
//!
//! A run is a list of steps, the paper's own shape (§3.1: "for each
//! domain, we go through the entire Web cache"). A domain step is one
//! pass over a domain: generate it, extract it once, feed every family
//! that reads it, and drop it. [`run_all`] has nine domain steps, whose
//! occurrence tables each feed the spread family's coverage curves and
//! the connectivity family's graph, sweep and diameter, and a traffic
//! step for the tail-value family. [`run_extensions`] has one
//! Restaurants step feeding eight extension families, a traffic step,
//! and a step for each of the two families that build their own
//! corpora. The per-figure functions (`spread::fig1` and so on) are the
//! same passes with one consumer each, so the artifacts are
//! byte-identical to theirs at any thread count.
//!
//! Steps are claimed costliest first over at most
//! [`webstruct_util::par::num_threads`] workers, the calling thread
//! being worker 0, so a run holds one domain per busy worker. A worker
//! with no step left joins any extraction still in flight instead of
//! idling; it never restarts a dropped domain. A step's own parallel
//! calls get only the workers the other steps leave idle (the `par`
//! thread rule), so a run never has more than `num_threads()` threads.
//!
//! Every family's pieces run behind a `catch_unwind` backstop: a panic
//! removes that family's artifacts and records a [`FamilyFailure`], but
//! the other families still run and their artifacts are still written
//! (plus a `DEGRADED.md` report naming what failed). A panic in a
//! domain's generation fails every family that reads the domain. Set
//! the `WEBSTRUCT_FAIL_FAMILY` environment variable to a family name to
//! run a chaos drill against a live binary.

use crate::cache::Study;
use crate::experiments::{
    ablations, connectivity, discovery, linkage, redundancy, spread, stability, table1, tail_value,
};
use crate::study::{DomainStudy, StudyConfig};
use std::io::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_util::par;
use webstruct_util::report::{Figure, Table};

/// Environment variable naming a figure family to fail on purpose
/// (chaos drill): one of `spread`, `tail-value`, `connectivity`,
/// `ext-discovery`, `ext-redundancy`, `ext-user-tail`, `ext-linkage`,
/// `ext-failure`, `ext-fusion`, `ext-seed-robustness`, `ext-bootstrap`,
/// `ext-precision`, `ext-ablations`, `ext-stability`.
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
    /// Wall-clock seconds the family's own code ran (including a failed
    /// attempt), summed over the steps it ran in. A domain's generation
    /// counts toward no family, and so does its extraction in [`run_all`];
    /// in [`run_extensions`] it counts toward the first family that reads it.
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

/// The chaos target from [`FAIL_FAMILY_ENV`], if set.
fn chaos_from_env() -> Option<String> {
    std::env::var(FAIL_FAMILY_ENV).ok().filter(|s| !s.is_empty())
}

/// What one figure family produces: its figures and its tables.
type FamilyOutput = (Vec<Figure>, Vec<Table>);

/// Assemble family results, in order, after the fixed `tables`.
fn collect_output(
    mut tables: Vec<Table>,
    results: Vec<(Result<FamilyOutput, FamilyFailure>, FamilyTiming)>,
) -> RunOutput {
    let mut figures = Vec::new();
    let mut failures = Vec::new();
    let mut timings = Vec::with_capacity(results.len());
    for (result, timing) in results {
        match result {
            Ok((figs, tabs)) => {
                figures.extend(figs);
                tables.extend(tabs);
            }
            Err(failure) => failures.push(failure),
        }
        timings.push(timing);
    }
    let m = webstruct_util::obs::metrics();
    m.add("runner.figures", figures.len() as u64);
    m.add("runner.tables", tables.len() as u64);
    RunOutput {
        figures,
        tables,
        failures,
        timings,
    }
}

/// The value of `f`, or the message of the panic it died with. A panic
/// leaves the step's domain and the [`Study`] valid (their locks are
/// taken over), so `AssertUnwindSafe` is sound.
fn caught<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| par::panic_message(payload.as_ref()))
}

/// One family's share of a run, gathered step by step: the pieces its
/// steps produced, or the first panic that killed it, and the seconds
/// its own code ran.
struct Share<T> {
    pieces: Result<Vec<T>, String>,
    secs: f64,
}

impl<T> Default for Share<T> {
    fn default() -> Self {
        Share {
            pieces: Ok(Vec::new()),
            secs: 0.0,
        }
    }
}

impl<T> Share<T> {
    /// Run `f` and keep the pieces it returns, unless the family already
    /// failed; a panic in `f` fails the family.
    fn run<I: IntoIterator<Item = T>>(&mut self, f: impl FnOnce() -> I) {
        let Ok(pieces) = &mut self.pieces else { return };
        let start = Instant::now();
        let got = caught(f);
        self.secs += start.elapsed().as_secs_f64();
        match got {
            Ok(got) => pieces.extend(got),
            Err(error) => self.pieces = Err(error),
        }
    }

    /// Fail the family with `error`, unless it already failed.
    fn fail(&mut self, error: String) {
        if self.pieces.is_ok() {
            self.pieces = Err(error);
        }
    }

    /// Add a later step's share to this one.
    fn absorb(&mut self, later: Share<T>) {
        self.secs += later.secs;
        match (&mut self.pieces, later.pieces) {
            (Ok(mine), Ok(pieces)) => mine.extend(pieces),
            (_, Err(error)) => self.fail(error),
            (Err(_), Ok(_)) => {}
        }
    }

    /// Put the family together behind a `catch_unwind` backstop,
    /// injecting a panic first when `chaos` names it: a panic a step
    /// recorded, or one in `assemble`, becomes the family's failure. Its
    /// timing adds the seconds its steps ran.
    fn finish(
        self,
        name: &str,
        chaos: Option<&str>,
        assemble: impl FnOnce(Vec<T>) -> FamilyOutput,
    ) -> (Result<FamilyOutput, FamilyFailure>, FamilyTiming) {
        let _span = webstruct_util::obs::span_with(|| format!("family:{name}"));
        let start = Instant::now();
        let result = caught(|| {
            assert!(chaos != Some(name), "chaos drill: injected failure into the '{name}' family");
            match self.pieces {
                Ok(pieces) => assemble(pieces),
                Err(error) => resume_unwind(Box::new(error)),
            }
        })
        .map_err(|error| FamilyFailure {
            family: name.to_string(),
            error,
        });
        webstruct_util::obs::metrics().add(
            if result.is_ok() {
                "runner.families_ok"
            } else {
                "runner.families_failed"
            },
            1,
        );
        let secs = self.secs + start.elapsed().as_secs_f64();
        let family = name.to_string();
        (result, FamilyTiming { family, secs })
    }
}

/// One step of a run: a pass over one domain, the traffic studies, or a
/// family that builds its own corpora.
#[derive(Debug, Clone, Copy)]
enum Step {
    Domain(Domain),
    Traffic,
    Family(&'static str),
}

/// Run `steps` over at most [`par::num_threads`] workers, the calling
/// thread being worker 0: each worker claims the next step from one
/// cursor, so steps start in list order, and a worker with no step left
/// joins any extraction still in flight. Each step runs under a `step`
/// span. Returns what each step gave the families, in step order, so
/// that a family failing in two steps reports the same panic whatever
/// the schedule.
fn run_steps<S: Send>(study: &Study, steps: &[Step], run: impl Fn(Step) -> S + Sync) -> Vec<S> {
    let next = AtomicUsize::new(0);
    let runs = par::par_workers(par::num_threads().min(steps.len()), |_| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(&step) = steps.get(i) else { break };
            let _span = webstruct_util::obs::span_with(|| match step {
                Step::Domain(domain) => format!("step domain={domain:?}"),
                Step::Traffic => "step traffic".to_string(),
                Step::Family(family) => format!("step family={family}"),
            });
            done.push((i, run(step)));
        }
        study.help_live_extractions();
        done
    });
    let mut done: Vec<(usize, S)> = runs.into_iter().flatten().collect();
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, shares)| shares).collect()
}

/// What the steps of [`run_all`] give each figure family.
#[derive(Default)]
struct Shares {
    spread: Share<Figure>,
    tail: Share<Figure>,
    connectivity: Share<connectivity::GraphPiece>,
}

impl Shares {
    /// Add a later step's shares to these.
    fn absorb(&mut self, later: Shares) {
        self.spread.absorb(later.spread);
        self.tail.absorb(later.tail);
        self.connectivity.absorb(later.connectivity);
    }
}

/// [`run_all`]'s steps, costliest first so that no long step starts
/// last: the order of their single-thread times at scale 0.15 over
/// extracted data. Restaurants, whose review classification makes its
/// extraction about half of a run's work, leads.
const STEPS: [Step; 10] = [
    Step::Domain(Domain::Restaurants),
    Step::Domain(Domain::RetailShopping),
    Step::Domain(Domain::Schools),
    Step::Domain(Domain::HotelsLodging),
    Step::Domain(Domain::HomeGarden),
    Step::Domain(Domain::Books),
    Step::Traffic,
    Step::Domain(Domain::Libraries),
    Step::Domain(Domain::Banks),
    Step::Domain(Domain::Automotive),
];

/// Run one step of [`run_all`].
fn paper_step(study: &Study, step: Step) -> Shares {
    let mut shares = Shares::default();
    match step {
        Step::Traffic => shares.tail.run(|| tail_family(study)),
        Step::Domain(domain) => {
            // Generation, extraction and the occurrence tables feed both
            // families, so a panic there fails both.
            if let Err(error) = caught(|| domain_step(study, domain, &mut shares)) {
                shares.spread.fail(error.clone());
                shares.connectivity.fail(error);
            }
        }
        Step::Family(family) => unreachable!("run_all has no step for {family}"),
    }
    shares
}

/// The tail-value family: Figures 6–8, in paper order, from one
/// simulation of each site's traffic.
fn tail_family(study: &Study) -> Vec<Figure> {
    tail_value::figures(&tail_value::simulate(study))
}

/// Generate `domain`, read each of its occurrence tables once, feed it
/// to every family that needs it, and drop the domain.
fn domain_step(study: &Study, domain: Domain, shares: &mut Shares) {
    let built = study.domain(domain);
    for &attr in domain.attributes() {
        let lists = built.occurrence_lists(attr, &study.config);
        shares
            .spread
            .run(|| spread::attr_figures(&built, attr, &lists));
        shares
            .connectivity
            .run(|| connectivity::graph_piece(domain, attr, built.catalog.len(), &lists));
    }
    if domain.has_attribute(Attribute::Review) {
        let pages = built.review_page_lists(&study.config);
        shares.spread.run(|| [spread::review_pages_figure(&pages)]);
    }
}

/// Run the full study: every table and figure of the paper.
///
/// One step per domain (and one for the traffic studies) runs on the
/// configured worker threads, and each domain is dropped when its step
/// ends (see the module docs); the artifact list is identical to the
/// sequential run either way. A panicking family degrades the output
/// (see [`RunOutput::failures`]) instead of killing the run; set
/// [`FAIL_FAMILY_ENV`] to drill that path.
#[must_use]
pub fn run_all(config: &StudyConfig) -> RunOutput {
    run_all_chaos(config, chaos_from_env().as_deref())
}

/// [`run_all`] with an explicit chaos target: when `fail_family` names a
/// family (`spread`, `tail-value`, `connectivity`), that family panics
/// as it is put together and the run degrades around it.
#[must_use]
pub fn run_all_chaos(config: &StudyConfig, fail_family: Option<&str>) -> RunOutput {
    let _span = webstruct_util::span!("run_all");
    let study = &Study::new(config.clone());
    let mut all = Shares::default();
    for shares in run_steps(study, &STEPS, |step| paper_step(study, step)) {
        all.absorb(shares);
    }
    collect_output(
        vec![table1()],
        vec![
            all.spread.finish("spread", fail_family, |figures| {
                (spread::in_paper_order(figures), Vec::new())
            }),
            all.tail
                .finish("tail-value", fail_family, |figures| (figures, Vec::new())),
            all.connectivity
                .finish("connectivity", fail_family, |pieces| {
                    let (figures, rows) = connectivity::family(pieces);
                    (figures, vec![connectivity::render_table2(rows)])
                }),
        ],
    )
}

/// What an extension family reads (the domain of a domain step, the
/// traffic studies, or only the configuration when it builds its own
/// corpora), and how it makes its output from it.
#[derive(Clone, Copy)]
enum Reads {
    Domain(fn(&DomainStudy, &StudyConfig) -> FamilyOutput),
    Traffic(fn(&tail_value::Traffic) -> FamilyOutput),
    Config(fn(&StudyConfig) -> FamilyOutput),
}

/// A family output of one figure.
fn figure(figure: Figure) -> FamilyOutput {
    (vec![figure], Vec::new())
}

/// A family output of one table.
fn table(table: Table) -> FamilyOutput {
    (Vec::new(), vec![table])
}

/// The extension families, in output order, and what each reads.
const EXT_FAMILIES: [(&str, Reads); 11] = [
    ("ext-discovery", Reads::Domain(|d, c| figure(discovery::discovery_policies(d, c, 2_000)))),
    ("ext-redundancy", Reads::Domain(|d, c| figure(redundancy::redundancy_experiment(d, c)))),
    ("ext-user-tail", Reads::Traffic(|t| table(tail_value::user_tail_table(t)))),
    ("ext-linkage", Reads::Domain(|d, c| table(linkage::linkage_table(d, c)))),
    ("ext-failure", Reads::Domain(|d, c| {
        let (fig, counters) = discovery::discovery_under_failure(d, c, 2_000);
        (vec![fig], vec![counters])
    })),
    ("ext-fusion", Reads::Domain(|d, c| table(redundancy::fusion_table(d, c)))),
    ("ext-seed-robustness", Reads::Domain(|d, c| {
        table(discovery::seed_robustness_table(d, c, 20))
    })),
    ("ext-bootstrap", Reads::Domain(|d, c| table(connectivity::bootstrap_table(d, c)))),
    ("ext-precision", Reads::Domain(|d, c| table(spread::precision_table(d, c, 3.0)))),
    ("ext-ablations", Reads::Config(|c| table(ablations::ablation_table(Domain::Restaurants, c)))),
    ("ext-stability", Reads::Config(|c| table(stability::stability_table(c, 5)))),
];

/// [`run_extensions`]' steps, costliest first: the order of their times
/// at scale 1.0. The Restaurants pass runs its eight families one after
/// the other, ext-linkage's deduplication the longest of them.
const EXT_STEPS: [Step; 4] = [
    Step::Domain(Domain::Restaurants),
    Step::Family("ext-stability"),
    Step::Traffic,
    Step::Family("ext-ablations"),
];

/// Run one step of [`run_extensions`]: every family that reads what the
/// step makes, in [`EXT_FAMILIES`] order.
fn ext_step(study: &Study, step: Step) -> [Share<FamilyOutput>; EXT_FAMILIES.len()] {
    let mut shares: [Share<FamilyOutput>; EXT_FAMILIES.len()] = Default::default();
    let config = &study.config;
    // A panic in the domain's generation fails every family that reads it.
    let built = match step {
        Step::Domain(domain) => Some(caught(|| study.domain(domain))),
        _ => None,
    };
    for (share, (name, reads)) in shares.iter_mut().zip(EXT_FAMILIES) {
        match (reads, &built, step) {
            (Reads::Domain(f), Some(Ok(built)), _) => share.run(|| [f(built, config)]),
            (Reads::Domain(_), Some(Err(error)), _) => share.fail(error.clone()),
            (Reads::Traffic(f), _, Step::Traffic) => {
                share.run(|| [f(&tail_value::simulate(study))]);
            }
            (Reads::Config(f), _, Step::Family(family)) if family == name => {
                share.run(|| [f(config)]);
            }
            _ => {}
        }
    }
    shares
}

/// Run the extension experiments (beyond the paper's own artifacts), all
/// for a representative domain: discovery policies, redundancy fusion,
/// user-level tail analysis, listing deduplication, discovery under
/// failure, fused accuracy per strategy, single-seed discovery, set
/// expansion against the d/2 bound, phone false matches, model ablations
/// and milestone stability across seeds.
#[must_use]
pub fn run_extensions(config: &StudyConfig) -> RunOutput {
    run_extensions_chaos(config, chaos_from_env().as_deref())
}

/// [`run_extensions`] with an explicit chaos target (any family name in
/// [`FAIL_FAMILY_ENV`]'s `ext-` list).
#[must_use]
pub fn run_extensions_chaos(config: &StudyConfig, fail_family: Option<&str>) -> RunOutput {
    let _span = webstruct_util::span!("run_extensions");
    let study = &Study::new(config.clone());
    let mut all: [Share<FamilyOutput>; EXT_FAMILIES.len()] = Default::default();
    for shares in run_steps(study, &EXT_STEPS, |step| ext_step(study, step)) {
        for (mine, later) in all.iter_mut().zip(shares) {
            mine.absorb(later);
        }
    }
    collect_output(
        Vec::new(),
        all.into_iter()
            .zip(EXT_FAMILIES)
            .map(|(share, (name, _))| {
                share.finish(name, fail_family, |outputs| {
                    let (figures, tables): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
                    (figures.concat(), tables.concat())
                })
            })
            .collect(),
    )
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
    use crate::study::DataSource;
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
        assert_eq!(out.tables.len(), 9);
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
    fn run_all_matches_the_per_figure_functions() {
        for source in [DataSource::Oracle, DataSource::Extracted] {
            let config = StudyConfig::quick().with_source(source);
            let out = run_all(&config);
            let study = Study::new(config);
            let mut want = spread::fig1(&study);
            want.extend(spread::fig2(&study));
            want.push(spread::fig3(&study));
            let (fig4a, fig4b) = spread::fig4(&study);
            want.extend([fig4a, fig4b, spread::fig5(&study)]);
            want.extend(tail_family(&study));
            want.extend(connectivity::fig9(&study));
            assert_eq!(out.figures, want, "{source:?}");
            assert_eq!(
                out.tables,
                vec![table1(), connectivity::table2(&study)],
                "{source:?}"
            );
            let names: Vec<&str> = out.timings.iter().map(|t| t.family.as_str()).collect();
            assert_eq!(names, ["spread", "tail-value", "connectivity"]);
        }
    }

    #[test]
    fn chaos_killing_spread_drops_figures_1_to_5_only() {
        let out = run_all_chaos(&StudyConfig::quick(), Some("spread"));
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].family, "spread");
        // fig1 (8) + fig2 (8) + fig3 + fig4 (2) + fig5 = 20 spread figures.
        assert_eq!(out.figures.len(), 33 - 20);
        assert!(out.figure("fig5").is_none());
        assert!(out.figure("fig6-cdf-search").is_some());
        assert!(out.figure("fig9a").is_some());
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
        assert_eq!(out.tables.len(), 8);
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
