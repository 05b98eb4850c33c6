//! The search-engine substrate of §5's discovery loop.
//!
//! > "…use them to reach all sites covering these entities (for instance,
//! > via search engines)…"
//!
//! A [`SearchIndex`] is an inverted index from entity identifier to the
//! sites mentioning it — what a crawler gets by querying a search engine
//! with an identifying attribute (a phone number, an ISBN). Lookups are
//! optionally truncated to a `max_results` page size (real engines do not
//! return a million hits). The index is immutable and `Sync`: one index
//! serves every arm of an experiment, and the crawler counts the queries
//! it issues, which is the discovery *cost* the experiments account for.

use webstruct_util::ids::{EntityId, SiteId};

/// An immutable entity→sites inverted index.
#[derive(Debug)]
pub struct SearchIndex {
    /// CSR posting lists: sites mentioning each entity.
    offsets: Vec<u32>,
    postings: Vec<u32>,
    /// Result-page cap per query (`None` = unlimited).
    max_results: Option<usize>,
}

impl SearchIndex {
    /// Build from per-site entity lists (the same occurrence tables every
    /// other analysis consumes). Posting lists are ordered by site size
    /// descending — search engines rank big authorities first — with site
    /// id as the deterministic tiebreak.
    ///
    /// # Panics
    /// Panics when an entity id is out of range.
    #[must_use]
    pub fn build(
        n_entities: usize,
        site_entities: &[Vec<EntityId>],
        max_results: Option<usize>,
    ) -> Self {
        // Site sizes for ranking.
        let sizes: Vec<usize> = site_entities.iter().map(Vec::len).collect();
        // Count postings per entity.
        let mut counts = vec![0u32; n_entities];
        for list in site_entities {
            let mut seen = list.clone();
            seen.sort_unstable();
            seen.dedup();
            for e in seen {
                assert!(e.index() < n_entities, "entity id out of range");
                counts[e.index()] += 1;
            }
        }
        let mut offsets = vec![0u32; n_entities + 1];
        for i in 0..n_entities {
            offsets[i + 1] = offsets[i] + counts[i];
        }
        let mut postings = vec![0u32; offsets[n_entities] as usize];
        let mut cursor = offsets[..n_entities].to_vec();
        // Insert sites in ranked order so each posting list is ranked.
        let mut site_order: Vec<usize> = (0..site_entities.len()).collect();
        site_order.sort_by(|&a, &b| sizes[b].cmp(&sizes[a]).then(a.cmp(&b)));
        for &s in &site_order {
            let mut seen = site_entities[s].clone();
            seen.sort_unstable();
            seen.dedup();
            for e in seen {
                postings[cursor[e.index()] as usize] = s as u32;
                cursor[e.index()] += 1;
            }
        }
        SearchIndex {
            offsets,
            postings,
            max_results,
        }
    }

    /// Number of entities indexed.
    #[must_use]
    pub fn n_entities(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Query: the ranked sites mentioning `entity`, truncated to the
    /// result-page cap.
    #[must_use]
    pub fn query(&self, entity: EntityId) -> &[u32] {
        let i = entity.index();
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        let full = &self.postings[lo..hi];
        match self.max_results {
            Some(cap) => &full[..full.len().min(cap)],
            None => full,
        }
    }

    /// Convenience: sites of `entity` as [`SiteId`]s.
    pub fn query_sites(&self, entity: EntityId) -> impl Iterator<Item = SiteId> + '_ {
        self.query(entity).iter().map(|&s| SiteId::new(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    /// site 0 (big): {0,1,2}; site 1: {1}; site 2: {1,2}
    fn toy_world() -> Vec<Vec<EntityId>> {
        vec![vec![e(0), e(1), e(2)], vec![e(1)], vec![e(1), e(2)]]
    }

    fn toy_index(cap: Option<usize>) -> SearchIndex {
        SearchIndex::build(3, &toy_world(), cap)
    }

    #[test]
    fn posting_lists_are_ranked_by_site_size() {
        let idx = toy_index(None);
        assert_eq!(idx.query(e(1)), &[0, 2, 1]);
        assert_eq!(idx.query(e(2)), &[0, 2]);
        assert_eq!(idx.query(e(0)), &[0]);
        assert_eq!(idx.n_entities(), 3);
    }

    #[test]
    fn result_cap_truncates() {
        let idx = toy_index(Some(2));
        assert_eq!(idx.query(e(1)), &[0, 2]);
        assert_eq!(toy_index(None).query(e(1)).len(), 3, "true count is uncapped");
    }

    #[test]
    fn query_meter_counts() {
        // The index keeps no meter: the crawler counts the queries it
        // issues, so two crawls over one shared index each report their
        // own cost with nothing to reset in between.
        fn assert_sync<T: Sync>() {}
        assert_sync::<SearchIndex>();
        let idx = toy_index(None);
        let world = toy_world();
        for _ in 0..2 {
            let result = crate::crawl(&idx, &world, crate::Fifo::default(), &[e(0)], 100);
            assert_eq!(result.queries_issued, 3, "one query per known entity");
        }
        assert_eq!(idx.query(e(1)), &[0, 2, 1], "answers are unchanged by use");
    }

    #[test]
    fn duplicates_in_input_collapse() {
        let idx = SearchIndex::build(2, &[vec![e(0), e(0), e(1)]], None);
        assert_eq!(idx.query(e(0)), &[0]);
    }

    #[test]
    fn unmentioned_entity_has_empty_postings() {
        let idx = SearchIndex::build(3, &[vec![e(0)]], None);
        assert!(idx.query(e(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = SearchIndex::build(1, &[vec![e(3)]], None);
    }
}
