//! Connected components of the entity–site graph (§5.3), via a union–find
//! with union by size and path halving.

use crate::bipartite::BipartiteGraph;
use webstruct_util::ids::SiteId;

/// Disjoint-set forest over dense u32 node ids.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    /// `n` singleton sets.
    #[must_use]
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    /// Representative of `x`'s set (path halving).
    pub fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x
    }

    /// Merge the sets of `a` and `b`; returns true when they were distinct.
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        self.union_roots(a, b).is_some()
    }

    /// Merge the sets of `a` and `b`. When they were distinct, returns
    /// `(kept, absorbed)`: the root of the merged set and the old root it
    /// absorbed, so callers can fold per-root data the same way.
    pub fn union_roots(&mut self, a: u32, b: u32) -> Option<(u32, u32)> {
        let (mut ra, mut rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        if self.size[ra as usize] < self.size[rb as usize] {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.parent[rb as usize] = ra;
        self.size[ra as usize] += self.size[rb as usize];
        Some((ra, rb))
    }

    /// Size of the set containing `x`.
    pub fn set_size(&mut self, x: u32) -> u32 {
        let r = self.find(x);
        self.size[r as usize]
    }
}

/// Component statistics for an entity–site graph, mirroring Table 2 and
/// Figure 9: components and sizes are counted over *entities* (sites are
/// connectors but the paper reports "% entities in largest comp").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentStats {
    /// Number of connected components (among nodes with >= 1 edge).
    pub n_components: usize,
    /// Number of entities in the largest component (largest by entity
    /// count).
    pub largest_entities: usize,
    /// Total entities present in the graph.
    pub entities_present: usize,
}

impl ComponentStats {
    /// Fraction of present entities inside the largest component.
    #[must_use]
    pub fn largest_fraction(&self) -> f64 {
        if self.entities_present == 0 {
            return 0.0;
        }
        self.largest_entities as f64 / self.entities_present as f64
    }
}

/// Compute component statistics, optionally pretending the sites in
/// `removed_sites` (graph site indices) do not exist — used by the Figure 9
/// robustness sweep.
#[must_use]
pub fn component_stats(graph: &BipartiteGraph, removed_sites: &[usize]) -> ComponentStats {
    let n_entities = graph.n_entities();
    let mut removed = vec![false; graph.n_sites()];
    for &s in removed_sites {
        removed[s] = true;
    }
    let mut uf = UnionFind::new(graph.n_nodes());
    let mut entity_touched = vec![false; n_entities];
    for (s, &is_removed) in removed.iter().enumerate() {
        if is_removed {
            continue;
        }
        let site_node = (n_entities + s) as u32;
        for &e in graph.entities_of(SiteId::new(s as u32)) {
            uf.union(site_node, e);
            entity_touched[e as usize] = true;
        }
    }
    // Count components by entity membership and find the entity-largest.
    let mut counts: webstruct_util::FxHashMap<u32, usize> = webstruct_util::FxHashMap::default();
    for (e, &touched) in entity_touched.iter().enumerate() {
        if touched {
            *counts.entry(uf.find(e as u32)).or_insert(0) += 1;
        }
    }
    let entities_present = entity_touched.iter().filter(|&&t| t).count();
    let largest_entities = counts.values().copied().max().unwrap_or(0);
    ComponentStats {
        n_components: counts.len(),
        largest_entities,
        entities_present,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::ids::EntityId;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(0), uf.find(1));
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.set_size(0), 2);
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.set_size(2), 4);
        assert_eq!(uf.set_size(4), 1);
    }

    #[test]
    fn two_islands() {
        // Component A: e0,e1 via s0; component B: e2 via s1.
        let g = BipartiteGraph::from_occurrences(3, &[vec![e(0), e(1)], vec![e(2)]]).expect("fixture ids lie inside the declared entity universe");
        let stats = component_stats(&g, &[]);
        assert_eq!(stats.n_components, 2);
        assert_eq!(stats.largest_entities, 2);
        assert_eq!(stats.entities_present, 3);
        assert!((stats.largest_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn shared_entity_bridges_sites() {
        let g = BipartiteGraph::from_occurrences(
            3,
            &[vec![e(0), e(1)], vec![e(1), e(2)]],
        )
        .expect("fixture ids lie inside the declared entity universe");
        let stats = component_stats(&g, &[]);
        assert_eq!(stats.n_components, 1);
        assert_eq!(stats.largest_entities, 3);
    }

    #[test]
    fn removal_splits_components() {
        // s0 is the hub; s1 and s2 are local.
        let g = BipartiteGraph::from_occurrences(
            4,
            &[
                vec![e(0), e(1), e(2), e(3)],
                vec![e(0), e(1)],
                vec![e(2)],
            ],
        )
        .expect("fixture ids lie inside the declared entity universe");
        let full = component_stats(&g, &[]);
        assert_eq!(full.n_components, 1);
        let removed = component_stats(&g, &[0]);
        // Without the hub: {e0,e1} via s1, {e2} via s2; e3 disappears.
        assert_eq!(removed.n_components, 2);
        assert_eq!(removed.largest_entities, 2);
        assert_eq!(removed.entities_present, 3);
    }

    #[test]
    fn empty_graph_stats() {
        let g = BipartiteGraph::from_occurrences(2, &[]).expect("fixture ids lie inside the declared entity universe");
        let stats = component_stats(&g, &[]);
        assert_eq!(stats.n_components, 0);
        assert_eq!(stats.largest_fraction(), 0.0);
    }

    #[test]
    fn removing_everything() {
        let g = BipartiteGraph::from_occurrences(2, &[vec![e(0), e(1)]]).expect("fixture ids lie inside the declared entity universe");
        let stats = component_stats(&g, &[0]);
        assert_eq!(stats.n_components, 0);
        assert_eq!(stats.entities_present, 0);
    }
}
