//! Connectivity robustness (§5.3, Figure 9): is the graph held together by
//! a few top sites?
//!
//! > "We re-examine the connectivity of these graphs after removing from
//! > them the k largest web sites (sorted by the number of entity
//! > mentions). ... Figure 9 plots the fraction of structured entities in
//! > the largest component after removing the top k sites."

use crate::bipartite::BipartiteGraph;
use crate::components::{ComponentStats, UnionFind};
use webstruct_util::ids::SiteId;
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
///
/// One union–find pass, not one per k: deletions are run backwards as
/// insertions. Union every site outside `order[..k_max]` (the last
/// point's graph), then add `order[k_max - 1]`, …, `order[0]` back one
/// at a time, snapshotting after each. Each root carries its count of
/// touched entities, so the three statistics update in O(1) per union:
/// `entities_present` grows when a site touches a new entity,
/// `n_components` falls by one when a union joins two entity-holding
/// roots, and `largest_entities` is a running max — sets only merge
/// under insertion, so no component ever shrinks.
fn removal_sweep(graph: &BipartiteGraph, order: &[usize], max_k: usize) -> Vec<RobustnessPoint> {
    let k_max = max_k.min(order.len());
    let mut removed = vec![false; graph.n_sites()];
    for &s in &order[..k_max] {
        removed[s] = true;
    }
    let mut sweep = SweepState::new(graph);
    for s in (0..graph.n_sites()).filter(|&s| !removed[s]) {
        sweep.add_site(s);
    }
    let mut points = Vec::with_capacity(k_max + 1);
    points.push(sweep.point(k_max));
    for k in (0..k_max).rev() {
        sweep.add_site(order[k]);
        points.push(sweep.point(k));
    }
    points.reverse();
    let baseline_present = points[0].stats.entities_present;
    for p in &mut points {
        p.fraction_of_original = fraction(p.stats.largest_entities, baseline_present);
    }
    points
}

/// The Figure 9 y value: `largest` over the `k = 0` baseline, 0 for an
/// empty baseline.
fn fraction(largest: usize, baseline_present: usize) -> f64 {
    if baseline_present == 0 {
        0.0
    } else {
        largest as f64 / baseline_present as f64
    }
}

/// The growing graph of [`removal_sweep`]: a union–find over every node,
/// plus each root's count of touched entities.
struct SweepState<'g> {
    graph: &'g BipartiteGraph,
    uf: UnionFind,
    /// Touched entities per root (0 on non-roots). An entity is
    /// untouched exactly when its root holds no entity: the first touch
    /// counts it before its first union.
    entities: Vec<u32>,
    stats: ComponentStats,
}

impl<'g> SweepState<'g> {
    fn new(graph: &'g BipartiteGraph) -> Self {
        SweepState {
            graph,
            uf: UnionFind::new(graph.n_nodes()),
            entities: vec![0; graph.n_nodes()],
            stats: ComponentStats::default(),
        }
    }

    /// Insert site `s` and its edges.
    fn add_site(&mut self, s: usize) {
        let site_node = (self.graph.n_entities() + s) as u32;
        for &e in self.graph.entities_of(SiteId::new(s as u32)) {
            if self.entities[self.uf.find(e) as usize] == 0 {
                // First touch: `e` is still a singleton root.
                self.entities[e as usize] = 1;
                self.stats.entities_present += 1;
                self.stats.n_components += 1;
                self.stats.largest_entities = self.stats.largest_entities.max(1);
            }
            if let Some((kept, absorbed)) = self.uf.union_roots(site_node, e) {
                let (a, b) = (
                    self.entities[kept as usize],
                    self.entities[absorbed as usize],
                );
                if a > 0 && b > 0 {
                    self.stats.n_components -= 1;
                }
                self.entities[kept as usize] = a + b;
                self.entities[absorbed as usize] = 0;
                self.stats.largest_entities = self.stats.largest_entities.max((a + b) as usize);
            }
        }
    }

    /// The current statistics as the point for `removed` sites; the
    /// fraction is filled in once the baseline is known.
    fn point(&self, removed: usize) -> RobustnessPoint {
        RobustnessPoint {
            removed,
            stats: self.stats.clone(),
            fraction_of_original: 0.0,
        }
    }
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

/// The per-k sweep, kept as the reference for [`removal_sweep`]: one
/// fresh [`component_stats`](crate::component_stats) pass per removal
/// count.
#[cfg(test)]
mod scalar {
    use super::{fraction, RobustnessPoint};
    use crate::bipartite::BipartiteGraph;
    use crate::components::{component_stats, ComponentStats};

    pub fn removal_sweep(
        graph: &BipartiteGraph,
        order: &[usize],
        max_k: usize,
    ) -> Vec<RobustnessPoint> {
        let sweep: Vec<ComponentStats> = (0..=max_k.min(order.len()))
            .map(|k| component_stats(graph, &order[..k]))
            .collect();
        let baseline_present = sweep[0].entities_present;
        sweep
            .into_iter()
            .enumerate()
            .map(|(removed, stats)| RobustnessPoint {
                removed,
                fraction_of_original: fraction(stats.largest_entities, baseline_present),
                stats,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{hub_and_pendants, random_graph};
    use webstruct_util::ids::EntityId;
    use webstruct_util::{Seed, Xoshiro256};

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

    /// Assert the incremental sweep equals the per-k reference point by
    /// point, fractions bitwise, for every `max_k` of interest.
    fn assert_matches_reference(g: &BipartiteGraph, order: &[usize], what: &str) {
        for max_k in [0, 1, 2, 10, order.len(), order.len() + 5] {
            let fast = removal_sweep(g, order, max_k);
            let slow = scalar::removal_sweep(g, order, max_k);
            assert_eq!(fast, slow, "{what}: sweep diverged at max_k {max_k}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(
                    f.fraction_of_original.to_bits(),
                    s.fraction_of_original.to_bits(),
                    "{what}: fraction bits at k {}",
                    f.removed
                );
            }
        }
    }

    /// Sites with duplicate ids, empty sites and entities no site
    /// mentions, over a seeded universe.
    fn ragged_graph(seed: u64) -> BipartiteGraph {
        let mut rng = Xoshiro256::from_seed(Seed(seed));
        let n = 30 + rng.u64_below(30);
        let sites: Vec<Vec<EntityId>> = (0..rng.range_u64(5, 25))
            .map(|_| {
                let len = rng.usize_below(6);
                let mut site: Vec<EntityId> =
                    (0..len).map(|_| e(rng.u64_below(n / 2) as u32)).collect();
                if let Some(&first) = site.first() {
                    site.push(first);
                }
                site
            })
            .collect();
        BipartiteGraph::from_occurrences(n as usize, &sites)
            .expect("fixture ids lie inside the declared entity universe")
    }

    #[test]
    fn incremental_sweep_matches_per_k_reference() {
        let graphs = [1usize, 63, 64, 65, 150]
            .iter()
            .map(|&f| hub_and_pendants(f as u64, f))
            .chain((200..208).map(random_graph))
            .chain((300..308).map(ragged_graph))
            .chain(std::iter::once(
                BipartiteGraph::from_occurrences(5, &[vec![], vec![e(1)], vec![]])
                    .expect("fixture ids lie inside the declared entity universe"),
            ))
            .chain(std::iter::once(
                BipartiteGraph::from_occurrences(3, &[])
                    .expect("fixture ids lie inside the declared entity universe"),
            ));
        for (i, g) in graphs.enumerate() {
            assert_matches_reference(&g, &g.sites_by_size(), &format!("graph {i} top-k"));
            let mut shuffled = g.sites_by_size();
            Xoshiro256::from_seed(Seed(i as u64)).shuffle(&mut shuffled);
            assert_matches_reference(&g, &shuffled, &format!("graph {i} random order"));
            for max_k in [0, 1, 10, g.n_sites() + 1] {
                assert_eq!(
                    robustness_sweep(&g, max_k),
                    scalar::removal_sweep(&g, &g.sites_by_size(), max_k),
                    "graph {i}: robustness_sweep at max_k {max_k}"
                );
                let seed = Seed(40 + i as u64);
                let mut order = g.sites_by_size();
                Xoshiro256::from_seed(seed.derive("rand-removal")).shuffle(&mut order);
                assert_eq!(
                    random_removal_sweep(&g, max_k, seed),
                    scalar::removal_sweep(&g, &order, max_k),
                    "graph {i}: random_removal_sweep at max_k {max_k}"
                );
            }
        }
    }

    #[test]
    fn sweep_point_zero_is_the_whole_graph() {
        for seed in 0..6 {
            let g = random_graph(seed);
            assert_eq!(
                robustness_sweep(&g, 10)[0].stats,
                crate::component_stats(&g, &[])
            );
        }
    }
}
