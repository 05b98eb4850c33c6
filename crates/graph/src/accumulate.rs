//! Streaming construction of the entity–site graph, page by page.
//!
//! The batch path ([`BipartiteGraph::from_occurrences`]) wants the whole
//! per-site occurrence table at once. A [`GraphAccumulator`] takes it a
//! page at a time instead: edges dedup *incrementally*, so its memory is
//! proportional to distinct edges, not pages, and one
//! [`GraphAccumulator::finish`] call yields the same graph the batch
//! path builds.

use crate::bipartite::{BipartiteGraph, GraphError};
use webstruct_util::ids::{EntityId, SiteId};

/// How many un-deduped entries a site's edge list may buffer before it is
/// compacted in place. Bounds per-site memory at `distinct + 64` entries
/// no matter how many pages mention the same entities.
const COMPACT_SLACK: usize = 64;

/// Incremental builder for [`BipartiteGraph`].
#[derive(Debug, Clone)]
pub struct GraphAccumulator {
    n_entities: usize,
    /// Per-site entity lists: a sorted, deduped prefix of `sorted[s]`
    /// entries followed by an unsorted tail of recent inserts.
    sites: Vec<Vec<EntityId>>,
    sorted: Vec<usize>,
}

impl GraphAccumulator {
    /// Empty accumulator over a fixed `(n_entities, n_sites)` universe.
    #[must_use]
    pub fn new(n_entities: usize, n_sites: usize) -> Self {
        GraphAccumulator {
            n_entities,
            sites: vec![Vec::new(); n_sites],
            sorted: vec![0; n_sites],
        }
    }

    /// Number of sites tracked.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Record that `site` mentions `entity` (idempotent — duplicate
    /// observations collapse, eventually, into one edge).
    ///
    /// # Panics
    /// Panics when `site` is out of range.
    pub fn add_occurrence(&mut self, site: SiteId, entity: EntityId) {
        let s = site.index();
        self.sites[s].push(entity);
        if self.sites[s].len() >= self.sorted[s] + COMPACT_SLACK {
            compact(&mut self.sites[s]);
            self.sorted[s] = self.sites[s].len();
        }
    }

    /// Record a page's worth of entities for `site`.
    ///
    /// # Panics
    /// Panics when `site` is out of range.
    pub fn add_page(&mut self, site: SiteId, entities: &[EntityId]) {
        for &e in entities {
            self.add_occurrence(site, e);
        }
    }

    /// Compact every buffered edge list and build the CSR graph —
    /// identical to [`BipartiteGraph::from_occurrences`] over the union
    /// of everything recorded.
    ///
    /// # Errors
    /// [`GraphError::EntityOutOfRange`] when a recorded entity falls
    /// outside the universe.
    pub fn finish(mut self) -> Result<BipartiteGraph, GraphError> {
        for list in &mut self.sites {
            compact(list);
        }
        BipartiteGraph::from_occurrences(self.n_entities, &self.sites)
    }
}

/// Sort + dedup one site's edge list in place.
fn compact(list: &mut Vec<EntityId>) {
    list.sort_unstable();
    list.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    fn s(id: u32) -> SiteId {
        SiteId::new(id)
    }

    #[test]
    fn accumulated_graph_matches_batch_construction() {
        let site_lists: Vec<Vec<EntityId>> = vec![
            vec![e(0), e(1), e(2)],
            vec![e(1), e(2)],
            vec![],
            vec![e(3), e(3), e(0)],
        ];
        let batch = BipartiteGraph::from_occurrences(4, &site_lists).unwrap();
        // Feed the same data page-wise, sites out of order.
        let mut acc = GraphAccumulator::new(4, 4);
        acc.add_page(s(3), &[e(3), e(3), e(0)]);
        acc.add_page(s(0), &[e(0), e(1)]);
        acc.add_page(s(1), &[e(1)]);
        acc.add_page(s(0), &[e(1), e(2)]); // duplicate edge (0,1) collapses
        acc.add_page(s(1), &[e(2)]);
        let streamed = acc.finish().unwrap();
        assert_eq!(streamed.n_edges(), batch.n_edges());
        for i in 0..4u32 {
            assert_eq!(streamed.sites_of(e(i)), batch.sites_of(e(i)), "entity {i}");
            assert_eq!(
                streamed.entities_of(s(i)),
                batch.entities_of(s(i)),
                "site {i}"
            );
        }
    }

    #[test]
    fn incremental_dedup_bounds_memory() {
        let mut acc = GraphAccumulator::new(2, 1);
        // 10k observations of the same two entities must not buffer 10k
        // entries: the compaction slack caps the list length.
        for _ in 0..10_000 {
            acc.add_occurrence(s(0), e(0));
            acc.add_occurrence(s(0), e(1));
        }
        assert!(
            acc.sites[0].len() <= 2 + COMPACT_SLACK,
            "buffered {} entries",
            acc.sites[0].len()
        );
        let g = acc.finish().unwrap();
        assert_eq!(g.n_edges(), 2);
    }

    #[test]
    fn out_of_range_entity_surfaces_at_finish() {
        let mut acc = GraphAccumulator::new(2, 1);
        acc.add_occurrence(s(0), e(7));
        assert!(matches!(
            acc.finish(),
            Err(GraphError::EntityOutOfRange { entity: 7, .. })
        ));
    }

    #[test]
    fn empty_accumulator_finishes_to_empty_graph() {
        let g = GraphAccumulator::new(3, 2).finish().unwrap();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.n_sites(), 2);
        assert_eq!(g.n_entities(), 3);
    }
}
