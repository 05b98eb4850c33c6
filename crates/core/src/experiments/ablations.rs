//! Model ablations: which generative ingredient produces which paper
//! finding?
//!
//! The substitution argument of DESIGN.md says the paper's findings
//! *emerge* from structural properties of the web (inclusion floors,
//! popularity tilt, tail-site mass) rather than being baked in. Each
//! ablation removes one ingredient and checks that the corresponding
//! finding degrades — the falsifiable version of that claim.

use crate::study::StudyConfig;
use webstruct_corpus::domain::{Attribute, Domain};
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_coverage::k_coverage;
use webstruct_graph::{component_stats, BipartiteGraph, ComponentStats};
use webstruct_util::report::Table;

/// Outcome of one ablation arm.
#[derive(Debug, Clone)]
pub struct AblationArm {
    /// Arm label (`"baseline"` or the ablated ingredient).
    pub label: &'static str,
    /// Largest-component stats of the phone graph.
    pub components: ComponentStats,
    /// k=1 coverage of the top-10 sites.
    pub top10_coverage: f64,
    /// k=5 coverage at the full site list.
    pub k5_final: f64,
}

fn build_arm(
    label: &'static str,
    catalog: &EntityCatalog,
    web_cfg: &WebConfig,
    config: &StudyConfig,
) -> AblationArm {
    let web = Web::generate(catalog, web_cfg, config.seed);
    let lists = web.occurrence_lists(Attribute::Phone);
    let graph = BipartiteGraph::from_occurrences(catalog.len(), &lists).expect("valid ids");
    let cov = k_coverage(catalog.len(), &lists, 5).expect("valid corpus");
    AblationArm {
        label,
        components: component_stats(&graph, &[]),
        top10_coverage: cov.coverage_at(1, 10),
        k5_final: cov
            .curves
            .get(4)
            .and_then(|c| c.last().copied())
            .unwrap_or(0.0),
    }
}

/// Run the ablation suite for one domain: baseline, no inclusion floor,
/// no aggregators, no tail sites.
#[must_use]
pub fn ablation_suite(domain: Domain, config: &StudyConfig) -> Vec<AblationArm> {
    let n_entities =
        ((crate::study::reference_entity_count(domain) as f64 * config.scale).round() as usize)
            .max(64);
    let catalog = EntityCatalog::generate(&CatalogConfig::new(domain, n_entities), config.seed);
    let base_cfg = WebConfig::preset(domain).scaled(config.scale);

    let mut arms = vec![build_arm("baseline", &catalog, &base_cfg, config)];

    // Ablation 1: no inclusion floor — tail entities become invisible to
    // aggregators, so connectivity and coverage must degrade.
    let mut no_floor = base_cfg.clone();
    no_floor.min_inclusion = 0.0;
    no_floor.popularity_tilt = 3.0;
    arms.push(build_arm("no-inclusion-floor", &catalog, &no_floor, config));

    // Ablation 2: no aggregators — the head of every coverage curve
    // collapses; connectivity survives on regional overlap.
    let mut no_agg = base_cfg.clone();
    no_agg.agg_reach_head = 0.0;
    arms.push(build_arm("no-aggregators", &catalog, &no_agg, config));

    // Ablation 3: no tail sites — head coverage unaffected, but
    // corroboration (k=5) and tail mass disappear.
    let mut no_tail = base_cfg.clone();
    no_tail.regional_frac_head = 0.0;
    no_tail.niche_mean_entities = 0.0;
    arms.push(build_arm("no-tail-sites", &catalog, &no_tail, config));

    arms
}

/// [`ablation_suite`] as a table, one row per arm.
#[must_use]
pub fn ablation_table(domain: Domain, config: &StudyConfig) -> Table {
    let mut table = Table::new(
        format!("{}: which model ingredient drives which finding", domain.display_name()),
        &["Arm", "Top-10 coverage", "k=5 final", "Components", "% in largest"],
    );
    for arm in ablation_suite(domain, config) {
        table.push_row(vec![
            arm.label.to_string(),
            format!("{:.3}", arm.top10_coverage),
            format!("{:.3}", arm.k5_final),
            arm.components.n_components.to_string(),
            format!("{:.2}", 100.0 * arm.components.largest_fraction()),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite() -> Vec<AblationArm> {
        ablation_suite(Domain::Restaurants, &StudyConfig::quick())
    }

    fn arm<'a>(arms: &'a [AblationArm], label: &str) -> &'a AblationArm {
        arms.iter().find(|a| a.label == label).expect("arm exists")
    }

    #[test]
    fn baseline_has_the_paper_properties() {
        let arms = suite();
        let base = arm(&arms, "baseline");
        assert!(base.top10_coverage > 0.8);
        assert!(base.components.largest_fraction() > 0.99);
        assert!(base.k5_final > 0.5);
    }

    #[test]
    fn floor_ablation_fragments_or_starves_the_tail() {
        let arms = suite();
        let base = arm(&arms, "baseline");
        let ablated = arm(&arms, "no-inclusion-floor");
        // Tail entities lose aggregator presence: either coverage of the
        // full database drops (entities missing entirely) or fragmentation
        // rises.
        assert!(
            ablated.components.entities_present < base.components.entities_present
                || ablated.components.n_components > base.components.n_components,
            "ablation must visibly damage tail reachability"
        );
    }

    #[test]
    fn aggregator_ablation_collapses_the_head() {
        let arms = suite();
        let base = arm(&arms, "baseline");
        let ablated = arm(&arms, "no-aggregators");
        assert!(
            ablated.top10_coverage < base.top10_coverage - 0.3,
            "top-10 coverage {} should collapse vs baseline {}",
            ablated.top10_coverage,
            base.top10_coverage
        );
    }

    #[test]
    fn tail_ablation_kills_corroboration() {
        let arms = suite();
        let base = arm(&arms, "baseline");
        let ablated = arm(&arms, "no-tail-sites");
        // Head coverage largely survives…
        assert!(ablated.top10_coverage > base.top10_coverage - 0.15);
        // …but k=5 corroboration collapses: the 5th source was a tail site.
        assert!(
            ablated.k5_final < base.k5_final * 0.7,
            "k=5 final {} should collapse vs baseline {}",
            ablated.k5_final,
            base.k5_final
        );
    }
}
