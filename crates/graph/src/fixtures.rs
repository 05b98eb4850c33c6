//! Seed-pure graph fixtures shared by the diameter and robustness tests.

use crate::bipartite::BipartiteGraph;
use webstruct_util::ids::EntityId;
use webstruct_util::{Seed, Xoshiro256};

fn e(id: u32) -> EntityId {
    EntityId::new(id)
}

/// A hub site over `fringe + 40` entities and a deep arm off hub
/// entity 0 that forks into two branches of `hops` sites each. The
/// branches' last sites split `fringe` pendant entities between them,
/// so the deepest level below the hub holds exactly the pendants.
/// Seeded shallower arms and chord sites among the hub entities vary
/// the rest.
pub(crate) fn hub_and_pendants(seed: u64, fringe: usize) -> BipartiteGraph {
    let mut rng = Xoshiro256::from_seed(Seed(seed));
    let hub = fringe as u32 + 40;
    let mut n = hub;
    let mut fresh = || {
        n += 1;
        e(n - 1)
    };
    let mut sites = vec![(0..hub).map(e).collect::<Vec<_>>()];
    let mut arm = |sites: &mut Vec<Vec<EntityId>>, from: EntityId, hops: u64| {
        let mut tail = from;
        for _ in 1..hops {
            let mid = fresh();
            sites.push(vec![tail, mid]);
            tail = mid;
        }
        sites.push(vec![tail]);
        sites.len() - 1
    };
    let hops = rng.range_u64(2, 5);
    let ends = [arm(&mut sites, e(0), hops), arm(&mut sites, e(0), hops)];
    let mut pendants = Vec::new();
    for _ in 0..rng.range_u64(1, 6) {
        let from = e(rng.u64_below(u64::from(hub)) as u32);
        let end = arm(&mut sites, from, rng.range_u64(1, hops));
        pendants.push((end, 1 + rng.usize_below(4)));
    }
    for (end, k) in pendants {
        for _ in 0..k {
            sites[end].push(fresh());
        }
    }
    for _ in 0..fringe {
        sites[ends[rng.usize_below(2)]].push(fresh());
    }
    for _ in 0..rng.usize_below(10) {
        let k = 2 + rng.usize_below(3);
        sites.push((0..k).map(|_| e(rng.u64_below(u64::from(hub)) as u32)).collect());
    }
    let n_entities = sites.iter().flatten().map(|x| x.index() + 1).max().unwrap_or(0);
    BipartiteGraph::from_occurrences(n_entities, &sites)
        .expect("fixture ids lie inside the declared entity universe")
}

/// Random sites of up to 24 entities over 200-400 entities.
pub(crate) fn random_graph(seed: u64) -> BipartiteGraph {
    let mut rng = Xoshiro256::from_seed(Seed(seed));
    let n = rng.range_u64(200, 400);
    let sites: Vec<Vec<EntityId>> = (0..rng.range_u64(40, 80))
        .map(|_| (0..1 + rng.usize_below(24)).map(|_| e(rng.u64_below(n) as u32)).collect())
        .collect();
    BipartiteGraph::from_occurrences(n as usize, &sites)
        .expect("fixture ids lie inside the declared entity universe")
}
