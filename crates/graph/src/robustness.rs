//! Connectivity robustness (§5.3, Figure 9): is the graph held together by
//! a few top sites?
//!
//! > "We re-examine the connectivity of these graphs after removing from
//! > them the k largest web sites (sorted by the number of entity
//! > mentions). ... Figure 9 plots the fraction of structured entities in
//! > the largest component after removing the top k sites."

use crate::bipartite::BipartiteGraph;
use crate::components::{component_stats, ComponentStats};
use webstruct_util::report::Series;

/// One sweep point of the robustness experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Number of top sites removed.
    pub removed: usize,
    /// Component statistics after removal.
    pub stats: ComponentStats,
    /// Fraction of the *original* present entities still in the largest
    /// component (this is the Figure 9 y-axis: entities that lose every
    /// site count against the fraction).
    pub fraction_of_original: f64,
}

/// Sweep `k = 0..=max_k` removals of the largest sites.
#[must_use]
pub fn robustness_sweep(graph: &BipartiteGraph, max_k: usize) -> Vec<RobustnessPoint> {
    removal_sweep(graph, &graph.sites_by_size(), max_k)
}

/// Sweep `k = 0..=max_k` removals of *random* sites — the baseline that
/// shows top-k removal is the adversarial case: random removals barely
/// dent the giant component because most sites are tail sites.
#[must_use]
pub fn random_removal_sweep(
    graph: &BipartiteGraph,
    max_k: usize,
    seed: webstruct_util::Seed,
) -> Vec<RobustnessPoint> {
    let mut rng = webstruct_util::Xoshiro256::from_seed(seed.derive("rand-removal"));
    let mut order: Vec<usize> = graph.sites_by_size();
    rng.shuffle(&mut order);
    removal_sweep(graph, &order, max_k)
}

/// Remove the first `k = 0..=max_k` sites of `order`. The `k = 0` point
/// is the whole graph, so its present entities are the baseline.
fn removal_sweep(graph: &BipartiteGraph, order: &[usize], max_k: usize) -> Vec<RobustnessPoint> {
    let sweep: Vec<ComponentStats> = (0..=max_k.min(order.len()))
        .map(|k| component_stats(graph, &order[..k]))
        .collect();
    let baseline_present = sweep[0].entities_present;
    sweep
        .into_iter()
        .enumerate()
        .map(|(removed, stats)| {
            let fraction_of_original = if baseline_present == 0 {
                0.0
            } else {
                stats.largest_entities as f64 / baseline_present as f64
            };
            RobustnessPoint {
                removed,
                stats,
                fraction_of_original,
            }
        })
        .collect()
}

/// Convert a sweep into a plot series (`x` = k, `y` = fraction).
#[must_use]
pub fn robustness_series(name: &str, sweep: &[RobustnessPoint]) -> Series {
    Series::new(
        name,
        sweep
            .iter()
            .map(|p| (p.removed as f64, p.fraction_of_original))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::ids::EntityId;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    #[test]
    fn hub_removal_fragments_a_star() {
        // Hub with 4 entities; one small site with 2 of them.
        let g = BipartiteGraph::from_occurrences(
            4,
            &[vec![e(0), e(1), e(2), e(3)], vec![e(0), e(1)]],
        )
        .expect("fixture ids lie inside the declared entity universe");
        let sweep = robustness_sweep(&g, 2);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0].fraction_of_original, 1.0);
        // Remove the hub: only {e0, e1} survive via the small site.
        assert_eq!(sweep[1].stats.largest_entities, 2);
        assert!((sweep[1].fraction_of_original - 0.5).abs() < 1e-12);
        // Remove both: nothing left.
        assert_eq!(sweep[2].stats.entities_present, 0);
        assert_eq!(sweep[2].fraction_of_original, 0.0);
    }

    #[test]
    fn redundant_graph_is_robust() {
        // Every entity on 3 overlapping sites: removing one changes nothing.
        let all: Vec<EntityId> = (0..10).map(e).collect();
        let g = BipartiteGraph::from_occurrences(
            10,
            &[all.clone(), all.clone(), all],
        )
        .expect("fixture ids lie inside the declared entity universe");
        let sweep = robustness_sweep(&g, 2);
        assert_eq!(sweep[0].fraction_of_original, 1.0);
        assert_eq!(sweep[1].fraction_of_original, 1.0);
        assert_eq!(sweep[2].fraction_of_original, 1.0);
    }

    #[test]
    fn max_k_clamped_to_site_count() {
        let g = BipartiteGraph::from_occurrences(2, &[vec![e(0), e(1)]]).expect("fixture ids lie inside the declared entity universe");
        let sweep = robustness_sweep(&g, 10);
        assert_eq!(sweep.len(), 2); // k = 0, 1
    }

    #[test]
    fn series_conversion() {
        let g = BipartiteGraph::from_occurrences(2, &[vec![e(0), e(1)]]).expect("fixture ids lie inside the declared entity universe");
        let sweep = robustness_sweep(&g, 1);
        let s = robustness_series("Banks", &sweep);
        assert_eq!(s.name, "Banks");
        assert_eq!(s.points, vec![(0.0, 1.0), (1.0, 0.0)]);
    }

    #[test]
    fn random_removal_is_gentler_than_top_k() {
        // Hub + tail world: removing the top site is catastrophic;
        // removing random sites (overwhelmingly tail) is not.
        let mut sites = vec![(0..40).map(e).collect::<Vec<_>>()];
        for i in 0..40u32 {
            sites.push(vec![e(i), e((i + 1) % 40)]);
        }
        let g = BipartiteGraph::from_occurrences(40, &sites).expect("fixture ids lie inside the declared entity universe");
        let top = robustness_sweep(&g, 5);
        let random = random_removal_sweep(&g, 5, webstruct_util::Seed(3));
        assert_eq!(random.len(), 6);
        assert!((random[0].fraction_of_original - 1.0).abs() < 1e-12);
        // On average across the sweep, random removal keeps at least as
        // much of the graph as adversarial top-k removal.
        let avg = |pts: &[super::RobustnessPoint]| {
            pts.iter().map(|p| p.fraction_of_original).sum::<f64>() / pts.len() as f64
        };
        assert!(avg(&random) >= avg(&top) - 1e-9);
    }

    #[test]
    fn empty_graph_sweep() {
        let g = BipartiteGraph::from_occurrences(2, &[]).expect("fixture ids lie inside the declared entity universe");
        let sweep = robustness_sweep(&g, 3);
        assert_eq!(sweep.len(), 1);
        assert_eq!(sweep[0].fraction_of_original, 0.0);
    }
}
