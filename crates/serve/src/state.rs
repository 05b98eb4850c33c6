//! Warm serving state: everything the endpoints answer from, built once
//! at startup from the epoch store and held immutable for the server's
//! lifetime.
//!
//! [`ServeState::build`] runs the incremental pipeline
//! ([`Epoch::run_extracted`]) against the given store directory — a warm
//! store replays its cached extraction snapshots, a cold one renders from
//! scratch — and then derives the read-side indexes the endpoints need:
//! per-site entity lists, the inverse entity→sites map, the simulated
//! demand studies and the figure set. Because every input is seed-pure
//! and the epoch digest covers the merged extraction, two servers built
//! from the same `(domain, config)` serve byte-identical bodies at any
//! thread count — the property `tests/serve.rs` locks down.

use std::path::Path;
use webstruct_core::epoch::{identifying_attribute, Epoch, EpochError, EpochReport};
use webstruct_core::study::StudyConfig;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::EntityCatalog;
use webstruct_demand::curves::{cdf_figure, pdf_figure, Channel};
use webstruct_demand::model::{StudySite, TrafficConfig, TrafficStudy};
use webstruct_util::ids::EntityId;
use webstruct_util::report::{Figure, Series};

/// The immutable state one server instance answers from.
pub struct ServeState {
    /// The served domain.
    pub domain: Domain,
    /// The study configuration the state was built at.
    pub config: StudyConfig,
    /// The entity catalog (id doubles as popularity rank, 0 = head).
    pub catalog: EntityCatalog,
    /// The identifying attribute coverage/demand are keyed by.
    pub attr: Attribute,
    /// The epoch report of the run that produced this state.
    pub report: EpochReport,
    /// Per-site extracted entity lists (sorted by id).
    pub site_lists: Vec<Vec<EntityId>>,
    /// Inverse map: for each entity, the sites that carry it (ascending).
    pub entity_sites: Vec<Vec<u32>>,
    /// The simulated demand studies, one per study site, in
    /// [`StudySite::ALL`] order.
    pub traffic: Vec<TrafficStudy>,
    /// The figure set served under `/figure/{id}.csv`.
    pub figures: Vec<Figure>,
}

impl ServeState {
    /// Build serving state for `domain` at `config` from the store under
    /// `dir`, extracting with `threads` workers. Re-running against a
    /// warm store replays cached snapshots instead of re-extracting.
    ///
    /// # Errors
    /// Propagates pipeline failures ([`EpochError`]).
    pub fn build(
        domain: Domain,
        config: StudyConfig,
        dir: &Path,
        threads: usize,
    ) -> Result<Self, EpochError> {
        let epoch = Epoch::new(domain, config);
        Self::from_epoch(&epoch, dir, threads)
    }

    /// Build serving state from an existing [`Epoch`] — the hot-swap
    /// path: the epoch manager mutates its long-lived `Epoch` and
    /// rebuilds state from it (the dirty-slice recompute makes the re-run
    /// proportional to the mutation), leaving the old state serving until
    /// the new one is published.
    ///
    /// # Errors
    /// Propagates pipeline failures ([`EpochError`]).
    pub fn from_epoch(epoch: &Epoch, dir: &Path, threads: usize) -> Result<Self, EpochError> {
        let _span = webstruct_util::span!("serve.state_build", threads);
        let domain = epoch.domain();
        let config = epoch.config().clone();
        let (report, web) = epoch.run_extracted(dir, threads)?;
        let attr = identifying_attribute(domain);
        let catalog = epoch.catalog().clone();

        let site_lists = web.occurrence_lists(attr);
        let mut entity_sites: Vec<Vec<u32>> = vec![Vec::new(); catalog.len()];
        for (site, entities) in site_lists.iter().enumerate() {
            for e in entities {
                entity_sites[e.index()].push(site as u32);
            }
        }

        // The demand studies ride the same scale knob as the corpus so a
        // quick-scale server carries a quick-scale population.
        let demand_span = webstruct_util::span!("demand.simulate");
        let traffic: Vec<TrafficStudy> = StudySite::ALL
            .iter()
            .map(|&site| {
                TrafficStudy::simulate(
                    &TrafficConfig::preset(site).scaled(config.scale),
                    config.seed,
                )
            })
            .collect();
        drop(demand_span);
        let refs: Vec<&TrafficStudy> = traffic.iter().collect();
        let mut figures = vec![
            cdf_figure(&refs, Channel::Search),
            cdf_figure(&refs, Channel::Browse),
            pdf_figure(&refs, Channel::Search),
            pdf_figure(&refs, Channel::Browse),
        ];
        figures.push(coverage_figure(&report));

        Ok(ServeState {
            domain,
            config,
            catalog,
            attr,
            report,
            site_lists,
            entity_sites,
            traffic,
            figures,
        })
    }

    /// The traffic study for `site`, if simulated.
    #[must_use]
    pub fn study(&self, site: StudySite) -> Option<&TrafficStudy> {
        self.traffic.iter().find(|s| s.site == site)
    }

    /// The figure with the given id.
    #[must_use]
    pub fn figure(&self, id: &str) -> Option<&Figure> {
        self.figures.iter().find(|f| f.id == id)
    }

    /// Number of sites in the served corpus.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.site_lists.len()
    }
}

/// The k-coverage curve of the served epoch as a figure, so the serving
/// layer exposes the paper's redundancy sweep next to the demand curves.
fn coverage_figure(report: &EpochReport) -> Figure {
    let points = report
        .coverages
        .iter()
        .enumerate()
        .map(|(i, &c)| ((i + 1) as f64, c))
        .collect();
    let mut fig = Figure::new(
        "serve-coverage",
        format!("k-coverage at epoch {}", report.epoch),
    )
    .with_axes("k (minimum sites)", "coverage");
    fig.push(Series::new("coverage", points));
    fig
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::{Seed, TempDir};

    #[test]
    fn build_produces_consistent_indexes() {
        let dir = TempDir::new("serve-state-build");
        let config = StudyConfig::quick().with_scale(0.02).with_seed(Seed(3));
        let state = ServeState::build(Domain::Restaurants, config, &dir, 2).unwrap();
        // The inverse map agrees with the forward lists.
        let forward: usize = state.site_lists.iter().map(Vec::len).sum();
        let inverse: usize = state.entity_sites.iter().map(Vec::len).sum();
        assert_eq!(forward, inverse);
        assert_eq!(forward, state.report.occurrences);
        for sites in &state.entity_sites {
            assert!(sites.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
        }
        assert_eq!(state.traffic.len(), 3);
        assert_eq!(state.figures.len(), 5);
        assert!(state.figure("serve-coverage").is_some());
    }
}
