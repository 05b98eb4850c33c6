//! Graph diameter (§5.2).
//!
//! The paper runs BFS from every node on a cluster; we instead implement
//! the iFUB algorithm (Crescenzi et al.), which computes the *exact*
//! diameter of the largest component with a handful of BFS traversals on
//! hub-dominated graphs like these — plus a double-sweep lower bound and a
//! BFS-budgeted fallback for pathological inputs.
//!
//! From an extraction perspective the quantity that matters is `d/2`: the
//! iteration bound for a perfect set-expansion crawler (§5.2).

use crate::bipartite::BipartiteGraph;
use std::collections::VecDeque;
use webstruct_util::obs;

/// Result of a diameter computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Diameter {
    /// The diameter of the component containing the start node (exact when
    /// `exact` is true, otherwise a lower bound).
    pub value: u32,
    /// Whether the value is exact.
    pub exact: bool,
    /// Number of BFS traversals spent.
    pub bfs_runs: u32,
}

const UNVISITED: u32 = u32::MAX;

/// Sources per multi-source BFS: one bit of a `u64` word each.
const BATCH: usize = u64::BITS as usize;

/// Single-source BFS over the unified node space. Returns the distance
/// array and the farthest node (ties: smallest id).
fn bfs(graph: &BipartiteGraph, start: u32, dist: &mut Vec<u32>) -> (u32, u32) {
    dist.clear();
    dist.resize(graph.n_nodes(), UNVISITED);
    let mut queue = VecDeque::new();
    dist[start as usize] = 0;
    queue.push_back(start);
    let mut far_node = start;
    let mut far_dist = 0;
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for v in graph.neighbors(u) {
            if dist[v as usize] == UNVISITED {
                dist[v as usize] = du + 1;
                if du + 1 > far_dist {
                    far_dist = du + 1;
                    far_node = v;
                }
                queue.push_back(v);
            }
        }
    }
    (far_node, far_dist)
}

/// Eccentricity of `start` within its component.
#[must_use]
pub fn eccentricity(graph: &BipartiteGraph, start: u32) -> u32 {
    let mut dist = Vec::new();
    bfs(graph, start, &mut dist).1
}

/// Double-sweep lower bound: BFS from `start`, then BFS from the farthest
/// node found; the second eccentricity lower-bounds the diameter (and on
/// many real graphs equals it).
#[must_use]
pub fn double_sweep(graph: &BipartiteGraph, start: u32) -> Diameter {
    let mut dist = Vec::new();
    let (far, _) = bfs(graph, start, &mut dist);
    let (_, ecc) = bfs(graph, far, &mut dist);
    Diameter {
        value: ecc,
        exact: false,
        bfs_runs: 2,
    }
}

/// Exact diameter of the component containing the highest-degree node,
/// via iFUB with a BFS budget.
///
/// Returns `exact == false` (with the best lower bound found) if the budget
/// is exhausted. The cost is graph-dependent, not small: graphs whose
/// diameter is close to twice the start node's eccentricity make iFUB
/// evaluate whole fringe levels. At scale 1 the 17 Table 2 graphs need
/// ~25.8k BFS in total; at scale 3 the Hotels & Lodging homepage graph
/// (108,050 nodes) alone needs 35,819. `bfs_runs` counts one per source:
/// a batched fringe traversal of `k` nodes counts `k`.
#[must_use]
pub fn ifub_diameter(graph: &BipartiteGraph, max_bfs: u32) -> Diameter {
    let _span = obs::span_with(|| {
        format!(
            "ifub_diameter n_nodes={} n_edges={}",
            graph.n_nodes(),
            graph.n_edges()
        )
    });
    let mut batches = 0u32;
    let diameter = ifub(graph, max_bfs, &mut batches);
    obs::event_with(|| {
        format!(
            "ifub_diameter bfs_runs={} batches={batches}",
            diameter.bfs_runs
        )
    });
    diameter
}

/// [`ifub_diameter`], counting the multi-source traversals in `batches`.
fn ifub(graph: &BipartiteGraph, max_bfs: u32, batches: &mut u32) -> Diameter {
    // Start from the max-degree node: on hub-dominated graphs it is close
    // to the centre, which is what makes iFUB terminate quickly.
    let Some(start) = (0..graph.n_nodes() as u32).max_by_key(|&n| graph.degree(n)) else {
        return Diameter {
            value: 0,
            exact: true,
            bfs_runs: 0,
        };
    };
    if graph.degree(start) == 0 {
        return Diameter {
            value: 0,
            exact: true,
            bfs_runs: 0,
        };
    }
    let mut dist = Vec::new();
    let (far, _root_ecc) = bfs(graph, start, &mut dist);
    let levels = Levels::new(&dist);
    // Initial lower bound from a double sweep.
    let (_, mut lb) = bfs(graph, far, &mut dist);
    let mut bfs_runs = 2u32;
    let mut msbfs = MultiBfs::new(graph.n_nodes(), &levels);

    // Invariant: nodes at level i have eccentricity <= 2i, so once
    // 2i <= lb no deeper level can beat the bound and lb is the diameter.
    let mut i = levels.max_level();
    while i >= 1 && 2 * i > lb {
        // Examine every node at level i, `BATCH` per traversal; a batch
        // never takes more sources than the budget has left.
        let mut fringe = levels.at(i);
        while !fringe.is_empty() {
            let left = max_bfs.saturating_sub(bfs_runs) as usize;
            if left == 0 {
                return Diameter {
                    value: lb,
                    exact: false,
                    bfs_runs,
                };
            }
            let (batch, rest) = fringe.split_at(fringe.len().min(left).min(BATCH));
            lb = lb.max(msbfs.max_eccentricity(graph, batch, i as usize % 2));
            bfs_runs += batch.len() as u32;
            *batches += 1;
            fringe = rest;
        }
        if lb > 2 * (i - 1) {
            return Diameter {
                value: lb,
                exact: true,
                bfs_runs,
            };
        }
        i -= 1;
    }
    Diameter {
        value: lb,
        exact: true,
        bfs_runs,
    }
}

/// The nodes reached by one BFS, grouped by level: a counting sort of the
/// distance array, ascending node id within a level.
struct Levels {
    order: Vec<u32>,
    /// `order[start[l]..start[l + 1]]` is level `l`.
    start: Vec<usize>,
}

impl Levels {
    fn new(dist: &[u32]) -> Self {
        let reached = || dist.iter().copied().filter(|&d| d != UNVISITED);
        let max_level = reached().max().unwrap_or(0) as usize;
        let mut start = vec![0usize; max_level + 2];
        for d in reached() {
            start[d as usize + 1] += 1;
        }
        for l in 1..start.len() {
            start[l] += start[l - 1];
        }
        let mut cursor = start.clone();
        let mut order = vec![0u32; start[max_level + 1]];
        for (n, &d) in dist.iter().enumerate() {
            if d != UNVISITED {
                order[cursor[d as usize]] = n as u32;
                cursor[d as usize] += 1;
            }
        }
        Levels { order, start }
    }

    fn max_level(&self) -> u32 {
        (self.start.len() - 2) as u32
    }

    fn at(&self, level: u32) -> &[u32] {
        let l = level as usize;
        &self.order[self.start[l]..self.start[l + 1]]
    }
}

/// Bit-parallel multi-source BFS (MS-BFS; Then et al., VLDB 2015) over
/// one component: bit `j` of a node's word stands for source `j`, so one
/// traversal answers up to 64 single-source BFS runs exactly.
///
/// The graph is bipartite, so a BFS level's parity fixes its side: with
/// every source at root levels of one parity, the nodes first reached at
/// traversal level `t` all lie at root levels of the other parity when
/// `t` is odd and of the same parity when `t` is even. Each level scans
/// one side only, and only the nodes some source has not reached yet.
struct MultiBfs {
    /// Sources that have reached each node.
    seen: Vec<u64>,
    /// Sources that first reached each node at the latest level that
    /// scanned its side. A node that drops out of `active` keeps its last
    /// word: its neighbours take those bits at the next level, so after
    /// that the stale word sets no bit.
    frontier: Vec<u64>,
    /// Per side, the component's nodes not yet reached by every source.
    active: [Vec<u32>; 2],
    /// Per side (root-level parity), every node of the component.
    sides: [Vec<u32>; 2],
}

impl MultiBfs {
    /// Scratch for traversals over the component that `levels` spans.
    fn new(n_nodes: usize, levels: &Levels) -> Self {
        let mut sides = [Vec::new(), Vec::new()];
        for l in 0..=levels.max_level() {
            sides[l as usize % 2].extend_from_slice(levels.at(l));
        }
        MultiBfs {
            seen: vec![0; n_nodes],
            frontier: vec![0; n_nodes],
            active: [
                Vec::with_capacity(sides[0].len()),
                Vec::with_capacity(sides[1].len()),
            ],
            sides,
        }
    }

    /// The largest eccentricity among `sources`: 1 to `BATCH` distinct
    /// nodes of the component, all at root levels of parity `side`.
    fn max_eccentricity(&mut self, graph: &BipartiteGraph, sources: &[u32], side: usize) -> u32 {
        debug_assert!((1..=BATCH).contains(&sources.len()));
        // Unused bits of a partial batch count as reached, so a node drops
        // out of `active` as soon as every real source has reached it.
        let all = u64::MAX >> (BATCH - sources.len());
        self.seen.fill(0);
        self.frontier.fill(0);
        for (j, &s) in sources.iter().enumerate() {
            self.seen[s as usize] |= 1 << j;
            self.frontier[s as usize] |= 1 << j;
        }
        for (active, nodes) in self.active.iter_mut().zip(&self.sides) {
            active.clear();
            active.extend_from_slice(nodes);
        }
        let mut level = 0u32;
        loop {
            // Nodes first reached at `level + 1` lie on the other side
            // from those reached at `level`.
            let active = &mut self.active[(side + level as usize + 1) % 2];
            let mut reached_any = 0u64;
            let mut kept = 0;
            for k in 0..active.len() {
                let v = active[k] as usize;
                let missing = all & !self.seen[v];
                let mut reached = 0u64;
                for u in graph.neighbors(v as u32) {
                    reached |= self.frontier[u as usize];
                    if reached & missing == missing {
                        break;
                    }
                }
                let new = reached & missing;
                self.frontier[v] = new;
                self.seen[v] |= new;
                reached_any |= new;
                if new != missing {
                    active[kept] = v as u32;
                    kept += 1;
                }
            }
            active.truncate(kept);
            if reached_any == 0 {
                return level;
            }
            level += 1;
        }
    }
}

/// The one-source-per-BFS iFUB loop, kept as the differential reference
/// for the batched traversal above.
#[cfg(test)]
pub(crate) mod scalar {
    use super::{bfs, BipartiteGraph, Diameter, UNVISITED};

    pub fn ifub_diameter(graph: &BipartiteGraph, max_bfs: u32) -> Diameter {
        // Start from the max-degree node: on hub-dominated graphs it is close
        // to the centre, which is what makes iFUB terminate quickly.
        let Some(start) = (0..graph.n_nodes() as u32).max_by_key(|&n| graph.degree(n)) else {
            return Diameter {
                value: 0,
                exact: true,
                bfs_runs: 0,
            };
        };
        if graph.degree(start) == 0 {
            return Diameter {
                value: 0,
                exact: true,
                bfs_runs: 0,
            };
        }
        let mut dist = Vec::new();
        let mut bfs_runs = 1u32;
        let (far, _root_ecc) = bfs(graph, start, &mut dist);
        // Level structure from the root.
        let levels = dist.clone();
        let max_level = levels
            .iter()
            .filter(|&&d| d != UNVISITED)
            .copied()
            .max()
            .unwrap_or(0);
        // Nodes bucketed by level, processed top (deepest) first.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
        for (n, &d) in levels.iter().enumerate() {
            if d != UNVISITED {
                buckets[d as usize].push(n as u32);
            }
        }
        // Initial lower bound from a double sweep.
        bfs_runs += 1;
        let (_, mut lb) = bfs(graph, far, &mut dist);

        // Invariant: nodes at level i have eccentricity <= 2i, so once
        // 2i <= lb no deeper level can beat the bound and lb is the diameter.
        let mut i = max_level;
        while i >= 1 && 2 * i > lb {
            // Examine every node at level i.
            for &node in &buckets[i as usize] {
                if bfs_runs >= max_bfs {
                    return Diameter {
                        value: lb,
                        exact: false,
                        bfs_runs,
                    };
                }
                bfs_runs += 1;
                let (_, ecc) = bfs(graph, node, &mut dist);
                lb = lb.max(ecc);
            }
            if lb > 2 * (i - 1) {
                return Diameter {
                    value: lb,
                    exact: true,
                    bfs_runs,
                };
            }
            i -= 1;
        }
        Diameter {
            value: lb,
            exact: true,
            bfs_runs,
        }
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

    /// A path graph in bipartite form: e0 - s0 - e1 - s1 - e2 - ... with
    /// `n` entities and `n - 1` sites → diameter 2(n-1).
    fn path_graph(n: usize) -> BipartiteGraph {
        let sites: Vec<Vec<EntityId>> = (0..n - 1)
            .map(|s| vec![e(s as u32), e(s as u32 + 1)])
            .collect();
        BipartiteGraph::from_occurrences(n, &sites).expect("fixture ids lie inside the declared entity universe")
    }

    /// A star: one hub site covering all entities → diameter 2.
    fn star_graph(n: usize) -> BipartiteGraph {
        let all: Vec<EntityId> = (0..n as u32).map(e).collect();
        BipartiteGraph::from_occurrences(n, &[all]).expect("fixture ids lie inside the declared entity universe")
    }

    #[test]
    fn eccentricity_of_path_ends_and_middle() {
        let g = path_graph(5); // nodes: e0..e4, s0..s3; length 8 path
        assert_eq!(eccentricity(&g, 0), 8); // e0 end
        assert_eq!(eccentricity(&g, 2), 4); // middle entity e2
    }

    #[test]
    fn double_sweep_is_exact_on_paths_and_stars() {
        let g = path_graph(6);
        let d = double_sweep(&g, 2);
        assert_eq!(d.value, 10);
        assert_eq!(d.bfs_runs, 2);
        let s = star_graph(10);
        assert_eq!(double_sweep(&s, 0).value, 2);
    }

    #[test]
    fn ifub_exact_on_path() {
        let g = path_graph(7);
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 12);
    }

    #[test]
    fn ifub_exact_on_star() {
        let g = star_graph(50);
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 2);
        assert!(d.bfs_runs < 60);
    }

    #[test]
    fn ifub_on_two_hub_graph() {
        // Two hubs sharing one entity: diameter 4 (entity on hub A side to
        // entity on hub B side).
        let mut a: Vec<EntityId> = (0..20).map(e).collect();
        let b: Vec<EntityId> = (19..40).map(e).collect();
        a.push(e(19));
        let g = BipartiteGraph::from_occurrences(40, &[a, b]).expect("fixture ids lie inside the declared entity universe");
        let d = ifub_diameter(&g, 10_000);
        assert!(d.exact);
        assert_eq!(d.value, 4);
    }

    #[test]
    fn ifub_respects_budget() {
        let g = path_graph(64);
        let d = ifub_diameter(&g, 3);
        assert!(!d.exact);
        assert!(d.value <= 126);
        assert!(d.value >= 63, "lower bound should be substantial");
    }

    #[test]
    fn empty_and_isolated_graphs() {
        let g = BipartiteGraph::from_occurrences(3, &[]).expect("the empty occurrence list is always valid");
        let d = ifub_diameter(&g, 100);
        assert!(d.exact);
        assert_eq!(d.value, 0);
    }

    #[test]
    fn ifub_ignores_smaller_components() {
        // Big component: star of 30; small: path of 2 entities (diam 2).
        let mut sites: Vec<Vec<EntityId>> = vec![(0..30).map(e).collect()];
        sites.push(vec![e(30), e(31)]);
        let g = BipartiteGraph::from_occurrences(32, &sites).expect("fixture ids lie inside the declared entity universe");
        let d = ifub_diameter(&g, 10_000);
        // Hub of the big star dominates: diameter of that component is 2.
        assert!(d.exact);
        assert_eq!(d.value, 2);
    }

    const FRINGES: [usize; 5] = [1, 63, 64, 65, 150];

    #[test]
    fn hub_and_pendants_deepest_level_is_the_fringe() {
        for fringe in FRINGES {
            let g = hub_and_pendants(fringe as u64, fringe);
            let hub = (0..g.n_nodes() as u32).max_by_key(|&v| g.degree(v)).unwrap();
            let mut dist = Vec::new();
            bfs(&g, hub, &mut dist);
            let levels = Levels::new(&dist);
            assert_eq!(levels.at(levels.max_level()).len(), fringe);
        }
    }

    #[test]
    fn batched_ifub_matches_one_source_ifub() {
        for fringe in FRINGES {
            for seed in 0..4 {
                let g = hub_and_pendants(seed * 1000 + fringe as u64, fringe);
                for budget in [3, 64, 65, 130, 1_000_000] {
                    let batched = ifub_diameter(&g, budget);
                    assert_eq!(
                        batched,
                        scalar::ifub_diameter(&g, budget),
                        "fringe {fringe}, seed {seed}, budget {budget}"
                    );
                    assert!(batched.bfs_runs <= budget.max(2));
                }
                // The whole fringe bucket was examined.
                let full = ifub_diameter(&g, 1_000_000);
                assert!(full.exact);
                assert!(full.bfs_runs as usize >= 2 + fringe);
            }
        }
        for seed in 0..16 {
            let g = random_graph(seed);
            for budget in [3, 64, 65, 130, 1_000_000] {
                assert_eq!(ifub_diameter(&g, budget), scalar::ifub_diameter(&g, budget));
            }
        }
    }

    #[test]
    fn batch_max_eccentricity_is_the_max_of_one_source_eccentricities() {
        let graphs = FRINGES
            .iter()
            .map(|&f| hub_and_pendants(7 + f as u64, f))
            .chain((100..104).map(random_graph));
        let mut rng = Xoshiro256::from_seed(Seed(11));
        for g in graphs {
            let root = (0..g.n_nodes() as u32).max_by_key(|&v| g.degree(v)).unwrap();
            let mut dist = Vec::new();
            bfs(&g, root, &mut dist);
            let levels = Levels::new(&dist);
            let mut msbfs = MultiBfs::new(g.n_nodes(), &levels);
            for l in 0..=levels.max_level() {
                let nodes = levels.at(l);
                let ecc: Vec<u32> = nodes.iter().map(|&v| eccentricity(&g, v)).collect();
                let side = l as usize % 2;
                // Full-width and partial batches in level order ...
                for (batch, eccs) in nodes.chunks(64).zip(ecc.chunks(64)) {
                    let want = *eccs.iter().max().unwrap();
                    assert_eq!(msbfs.max_eccentricity(&g, batch, side), want);
                }
                // ... and random subsets of every size up to 64.
                for _ in 0..8 {
                    let k = 1 + rng.usize_below(nodes.len().min(64));
                    let picked = rng.sample_indices(nodes.len(), k);
                    let batch: Vec<u32> = picked.iter().map(|&i| nodes[i]).collect();
                    let want = picked.iter().map(|&i| ecc[i]).max().unwrap();
                    assert_eq!(msbfs.max_eccentricity(&g, &batch, side), want);
                }
            }
        }
    }
}
