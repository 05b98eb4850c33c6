//! The entity–site bipartite graph of §5.1.
//!
//! > "We consider a bipartite graph between the set of entities in a given
//! > domain and the set of websites, where there is an edge between an
//! > entity e and a website h if there is a webpage in h that contains e."
//!
//! Stored as forward + reverse CSR over dense u32 ids; node `i` for
//! `i < n_entities` is an entity, and node `n_entities + s` is site `s`.

use webstruct_util::ids::{EntityId, SiteId};

/// Errors constructing a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An occurrence list referenced an entity outside the universe.
    EntityOutOfRange {
        /// Offending id.
        entity: u32,
        /// Universe size.
        n_entities: usize,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::EntityOutOfRange { entity, n_entities } => {
                write!(f, "entity id {entity} out of range (n = {n_entities})")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// An immutable entity–site bipartite graph in CSR form.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    n_entities: usize,
    n_sites: usize,
    /// CSR: sites adjacent to each entity.
    entity_offsets: Vec<u32>,
    entity_adj: Vec<u32>,
    /// CSR: entities adjacent to each site.
    site_offsets: Vec<u32>,
    site_adj: Vec<u32>,
}

impl BipartiteGraph {
    /// Build from per-site entity lists (duplicates are collapsed).
    ///
    /// # Errors
    /// See [`GraphError`].
    pub fn from_occurrences(
        n_entities: usize,
        site_entities: &[Vec<EntityId>],
    ) -> Result<Self, GraphError> {
        let n_sites = site_entities.len();
        // Site CSR straight from the lists: validate, append, then sort
        // and dedup a site's slice in place unless it is already strictly
        // ascending (extracted lists always are).
        let total: usize = site_entities.iter().map(Vec::len).sum();
        let mut site_offsets = Vec::with_capacity(n_sites + 1);
        site_offsets.push(0u32);
        let mut site_adj: Vec<u32> = Vec::with_capacity(total);
        let mut entity_degree = vec![0u32; n_entities];
        for list in site_entities {
            let start = site_adj.len();
            for e in list {
                if e.index() >= n_entities {
                    return Err(GraphError::EntityOutOfRange {
                        entity: e.raw(),
                        n_entities,
                    });
                }
                site_adj.push(e.raw());
            }
            if !site_adj[start..].windows(2).all(|w| w[0] < w[1]) {
                site_adj[start..].sort_unstable();
                let mut kept = start + 1;
                for r in start + 1..site_adj.len() {
                    if site_adj[r] != site_adj[kept - 1] {
                        site_adj[kept] = site_adj[r];
                        kept += 1;
                    }
                }
                site_adj.truncate(kept);
            }
            for &e in &site_adj[start..] {
                entity_degree[e as usize] += 1;
            }
            site_offsets.push(site_adj.len() as u32);
        }
        site_adj.shrink_to_fit();
        let total_edges = site_adj.len();
        // Entity CSR by counting sort.
        let mut entity_offsets = vec![0u32; n_entities + 1];
        for e in 0..n_entities {
            entity_offsets[e + 1] = entity_offsets[e] + entity_degree[e];
        }
        let mut cursor = entity_offsets[..n_entities].to_vec();
        let mut entity_adj = vec![0u32; total_edges];
        for s in 0..n_sites {
            for &e in &site_adj[site_offsets[s] as usize..site_offsets[s + 1] as usize] {
                entity_adj[cursor[e as usize] as usize] = s as u32;
                cursor[e as usize] += 1;
            }
        }
        Ok(BipartiteGraph {
            n_entities,
            n_sites,
            entity_offsets,
            entity_adj,
            site_offsets,
            site_adj,
        })
    }

    /// Number of entities in the universe (including unmentioned ones).
    #[must_use]
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Number of sites (including empty ones).
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.n_sites
    }

    /// Total node count (`n_entities + n_sites`).
    #[must_use]
    pub fn n_nodes(&self) -> usize {
        self.n_entities + self.n_sites
    }

    /// Number of edges (distinct (site, entity) pairs).
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.site_adj.len()
    }

    /// Sites mentioning an entity.
    #[must_use]
    pub fn sites_of(&self, e: EntityId) -> &[u32] {
        let i = e.index();
        &self.entity_adj[self.entity_offsets[i] as usize..self.entity_offsets[i + 1] as usize]
    }

    /// Entities mentioned by a site.
    #[must_use]
    pub fn entities_of(&self, s: SiteId) -> &[u32] {
        let i = s.index();
        &self.site_adj[self.site_offsets[i] as usize..self.site_offsets[i + 1] as usize]
    }

    /// Degree of a node in the unified node space.
    #[must_use]
    pub fn degree(&self, node: u32) -> usize {
        let n = node as usize;
        if n < self.n_entities {
            (self.entity_offsets[n + 1] - self.entity_offsets[n]) as usize
        } else {
            let s = n - self.n_entities;
            (self.site_offsets[s + 1] - self.site_offsets[s]) as usize
        }
    }

    /// Neighbours of a node in the unified node space.
    ///
    /// Entity neighbours are returned as site node ids (offset by
    /// `n_entities`) and vice versa; use with the BFS/components code.
    pub fn neighbors(&self, node: u32) -> impl Iterator<Item = u32> + '_ {
        let n = node as usize;
        let offset = self.n_entities as u32;
        let (slice, add): (&[u32], bool) = if n < self.n_entities {
            (self.sites_of(EntityId::new(node)), true)
        } else {
            (
                self.entities_of(SiteId::new((n - self.n_entities) as u32)),
                false,
            )
        };
        slice
            .iter()
            .map(move |&x| if add { x + offset } else { x })
    }

    /// Number of entities with at least one mention.
    #[must_use]
    pub fn entities_present(&self) -> usize {
        (0..self.n_entities)
            .filter(|&e| self.entity_offsets[e + 1] > self.entity_offsets[e])
            .count()
    }

    /// Average number of sites per *present* entity (Table 2 column).
    #[must_use]
    pub fn avg_sites_per_entity(&self) -> f64 {
        let present = self.entities_present();
        if present == 0 {
            return 0.0;
        }
        self.n_edges() as f64 / present as f64
    }

    /// Site indices ordered by entity count descending (ties by index) —
    /// "the k largest web sites (sorted by the number of entity mentions)".
    #[must_use]
    pub fn sites_by_size(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.n_sites)
            .filter(|&s| self.site_offsets[s + 1] > self.site_offsets[s])
            .collect();
        order.sort_by(|&a, &b| {
            let da = self.site_offsets[a + 1] - self.site_offsets[a];
            let db = self.site_offsets[b + 1] - self.site_offsets[b];
            db.cmp(&da).then(a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    fn toy() -> BipartiteGraph {
        // 4 entities, 3 sites: s0={0,1,2}, s1={1,2}, s2={} ; entity 3 unmentioned
        BipartiteGraph::from_occurrences(
            4,
            &[vec![e(0), e(1), e(2)], vec![e(1), e(2)], vec![]],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_degrees() {
        let g = toy();
        assert_eq!(g.n_entities(), 4);
        assert_eq!(g.n_sites(), 3);
        assert_eq!(g.n_nodes(), 7);
        assert_eq!(g.n_edges(), 5);
        assert_eq!(g.entities_present(), 3);
        assert!((g.avg_sites_per_entity() - 5.0 / 3.0).abs() < 1e-12);
        assert_eq!(g.degree(0), 1); // entity 0: only s0
        assert_eq!(g.degree(1), 2); // entity 1: s0, s1
        assert_eq!(g.degree(3), 0); // unmentioned entity
        assert_eq!(g.degree(4), 3); // site 0 node
        assert_eq!(g.degree(6), 0); // empty site
    }

    #[test]
    fn adjacency_is_consistent_both_ways() {
        let g = toy();
        assert_eq!(g.sites_of(e(1)), &[0, 1]);
        assert_eq!(g.entities_of(SiteId::new(0)), &[0, 1, 2]);
        // Unified-space neighbours.
        let n0: Vec<u32> = g.neighbors(0).collect();
        assert_eq!(n0, vec![4]); // entity 0 -> site node 4
        let n4: Vec<u32> = g.neighbors(4).collect();
        assert_eq!(n4, vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_collapse_to_one_edge() {
        let g = BipartiteGraph::from_occurrences(2, &[vec![e(0), e(0), e(1)]]).unwrap();
        assert_eq!(g.n_edges(), 2);
        assert_eq!(g.sites_of(e(0)), &[0]);
    }

    #[test]
    fn out_of_range_rejected() {
        let err = BipartiteGraph::from_occurrences(2, &[vec![e(5)]]).unwrap_err();
        assert_eq!(
            err,
            GraphError::EntityOutOfRange {
                entity: 5,
                n_entities: 2
            }
        );
    }

    #[test]
    fn sites_by_size_excludes_empty_and_orders() {
        let g = toy();
        assert_eq!(g.sites_by_size(), vec![0, 1]);
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteGraph::from_occurrences(3, &[]).unwrap();
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.entities_present(), 0);
        assert_eq!(g.avg_sites_per_entity(), 0.0);
        assert!(g.sites_by_size().is_empty());
    }
}
