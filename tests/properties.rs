//! Property-style tests on the core data structures and invariants of
//! the workspace.
//!
//! These were originally proptest properties; the offline build
//! environment cannot resolve external crates, so each property is now a
//! seeded deterministic loop over [`Xoshiro256`]-generated cases. Same
//! invariants, fixed case streams, reproducible failures.

use webstruct::corpus::isbn::Isbn;
use webstruct::corpus::phone::{PhoneFormat, PhoneNumber};
use webstruct::coverage::{greedy_cover, k_coverage};
use webstruct::crawl::{crawl, Fifo, SearchIndex};
use webstruct::dedup::{jaro, jaro_winkler, normalize, token_jaccard};
use webstruct::extract::phone_scan::for_each_phone;
use webstruct::graph::{component_stats, double_sweep, eccentricity, ifub_diameter, BipartiteGraph};
use webstruct::util::ids::EntityId;
use webstruct::util::rng::{Seed, Xoshiro256};
use webstruct::util::sample::AliasTable;

/// Cases per property — matches the proptest configuration it replaces.
const CASES: usize = 64;

/// A random string over `charset` with length in `[0, max_len]`.
fn rand_string(rng: &mut Xoshiro256, charset: &[u8], max_len: usize) -> String {
    let len = rng.usize_below(max_len + 1);
    (0..len)
        .map(|_| char::from(charset[rng.usize_below(charset.len())]))
        .collect()
}

const PROSE: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ ,.";
const PHONEISH: &[u8] = b"0123456789()+. -";
const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz ";

/// A random occurrence table over up to `max_entities` entities and
/// `max_sites` sites (the proptest strategy, made deterministic).
fn occurrence_table(
    rng: &mut Xoshiro256,
    max_entities: u32,
    max_sites: usize,
) -> (usize, Vec<Vec<EntityId>>) {
    occurrence_table_from(rng, 2, max_entities, max_sites)
}

/// [`occurrence_table`] over at least `min_entities` entities.
fn occurrence_table_from(
    rng: &mut Xoshiro256,
    min_entities: u32,
    max_entities: u32,
    max_sites: usize,
) -> (usize, Vec<Vec<EntityId>>) {
    let n = rng.range_u64(u64::from(min_entities), u64::from(max_entities)) as u32;
    let n_sites = rng.usize_below(max_sites);
    let lists = (0..n_sites)
        .map(|_| {
            let len = rng.usize_below(24);
            (0..len)
                .map(|_| EntityId::new(rng.u64_below(u64::from(n)) as u32))
                .collect()
        })
        .collect();
    (n as usize, lists)
}

#[test]
fn phone_scanner_finds_any_valid_phone_in_any_format() {
    let mut rng = Xoshiro256::from_seed(Seed(101));
    let mut checked = 0;
    while checked < CASES {
        let area = rng.range_u64(200, 1000) as u16;
        let exchange = rng.range_u64(200, 1000) as u16;
        if area % 100 == 11 || exchange % 100 == 11 {
            continue;
        }
        checked += 1;
        let line = rng.u64_below(10_000) as u16;
        let fmt = PhoneFormat::ALL[rng.usize_below(6)];
        let phone = PhoneNumber::new(area, exchange, line).unwrap();
        let prefix = rand_string(&mut rng, PROSE, 20);
        let suffix = rand_string(&mut rng, PROSE, 20);
        let text = format!("{prefix} {} {suffix}", phone.format(fmt));
        let mut found = false;
        for_each_phone(&text, |m| found |= m.phone == phone);
        assert!(
            found,
            "missed {} in {text:?}",
            phone.format(fmt)
        );
    }
}

#[test]
fn phone_scanner_never_reports_invalid_numbers() {
    let mut rng = Xoshiro256::from_seed(Seed(102));
    for _ in 0..CASES {
        let text = rand_string(&mut rng, PHONEISH, 60);
        for_each_phone(&text, |m| {
            // Every reported number must survive NANP re-validation.
            assert!(
                PhoneNumber::from_digits(m.phone.digits()).is_ok(),
                "invalid phone reported in {text:?}"
            );
        });
    }
}

#[test]
fn isbn_roundtrips_and_rejects_corruption() {
    let mut rng = Xoshiro256::from_seed(Seed(103));
    for _ in 0..CASES {
        let core = rng.u64_below(1_000_000_000);
        let isbn = Isbn::new(core).unwrap();
        for rendering in [
            isbn.to_isbn10(),
            isbn.to_isbn10_hyphenated(),
            isbn.to_isbn13(),
            isbn.to_isbn13_hyphenated(),
        ] {
            assert_eq!(Isbn::parse(&rendering), Ok(isbn));
        }
        // Single-digit corruption of the plain forms must be rejected
        // (check digits catch all single-digit substitutions).
        let s = isbn.to_isbn13();
        let bytes = s.as_bytes();
        for i in 0..bytes.len() {
            let orig = bytes[i] - b'0';
            let replaced = (orig + 1) % 10;
            let mut corrupted = s.clone().into_bytes();
            corrupted[i] = b'0' + replaced;
            let corrupted = String::from_utf8(corrupted).unwrap();
            if let Ok(parsed) = Isbn::parse(&corrupted) {
                assert_ne!(parsed, isbn, "corruption at {i} undetected");
            }
        }
    }
}

#[test]
fn k_coverage_invariants() {
    let mut rng = Xoshiro256::from_seed(Seed(104));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 200, 40);
        let cov = k_coverage(n, &lists, 10).unwrap();
        for k in 1..=10usize {
            let curve = &cov.curves[k - 1];
            // Bounded and monotone non-decreasing in t.
            for w in curve.windows(2) {
                assert!(w[1] + 1e-12 >= w[0]);
            }
            for &c in curve {
                assert!((0.0..=1.0).contains(&c));
            }
            // Anti-monotone in k at every tick.
            if k > 1 {
                for (hi, lo) in cov.curves[k - 2].iter().zip(curve) {
                    assert!(lo <= hi);
                }
            }
        }
        // Final 1-coverage equals the distinct-entity fraction.
        if let Some(&last) = cov.curves[0].last() {
            let mut all: Vec<u32> = lists.iter().flatten().map(|e| e.raw()).collect();
            all.sort_unstable();
            all.dedup();
            assert!((last - all.len() as f64 / n as f64).abs() < 1e-9);
        }
    }
}

#[test]
fn greedy_cover_invariants() {
    let mut rng = Xoshiro256::from_seed(Seed(105));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 150, 30);
        let g = greedy_cover(n, &lists).unwrap();
        // Monotone coverage, bounded by 1.
        for w in g.coverage.windows(2) {
            assert!(w[1] >= w[0]);
        }
        // Final coverage equals the union coverage.
        if let Some(&last) = g.coverage.last() {
            let mut all: Vec<u32> = lists.iter().flatten().map(|e| e.raw()).collect();
            all.sort_unstable();
            all.dedup();
            assert!((last - all.len() as f64 / n as f64).abs() < 1e-9);
        }
        // Picks are distinct sites.
        let mut picks = g.pick_order.clone();
        picks.sort_unstable();
        picks.dedup();
        assert_eq!(picks.len(), g.pick_order.len());
    }
}

#[test]
fn component_stats_invariants() {
    let mut rng = Xoshiro256::from_seed(Seed(106));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 150, 30);
        let graph = BipartiteGraph::from_occurrences(n, &lists).unwrap();
        let stats = component_stats(&graph, &[]);
        assert!(stats.largest_entities <= stats.entities_present);
        assert!(stats.n_components <= stats.entities_present);
        assert_eq!(stats.entities_present, graph.entities_present());
        if stats.entities_present > 0 {
            assert!(stats.n_components >= 1);
            assert!(stats.largest_fraction() > 0.0);
            assert!(stats.largest_fraction() <= 1.0);
        }
        // Removing all sites empties the graph.
        let all_sites: Vec<usize> = (0..lists.len()).collect();
        let removed = component_stats(&graph, &all_sites);
        assert_eq!(removed.entities_present, 0);
    }
}

#[test]
fn diameter_bounds() {
    let mut rng = Xoshiro256::from_seed(Seed(107));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 80, 20);
        let graph = BipartiteGraph::from_occurrences(n, &lists).unwrap();
        let exact = ifub_diameter(&graph, 1_000_000);
        assert!(exact.exact);
        // Double sweep from the max-degree node lower-bounds the exact
        // diameter of that node's component.
        if let Some(start) = (0..graph.n_nodes() as u32).max_by_key(|&v| graph.degree(v)) {
            if graph.degree(start) > 0 {
                let ds = double_sweep(&graph, start);
                assert!(ds.value <= exact.value);
                // Any node's eccentricity in that component never exceeds
                // the diameter.
                assert!(eccentricity(&graph, start) <= exact.value);
            }
        }
    }
}

#[test]
fn alias_table_samples_in_range() {
    let mut rng = Xoshiro256::from_seed(Seed(108));
    let mut checked = 0;
    while checked < CASES {
        let len = rng.range_u64(1, 50) as usize;
        let weights: Vec<f64> = (0..len).map(|_| rng.range_f64(0.0, 100.0)).collect();
        if weights.iter().sum::<f64>() <= 0.0 {
            continue;
        }
        checked += 1;
        let table = AliasTable::new(&weights);
        let mut draw_rng = Xoshiro256::from_seed(Seed(1));
        for _ in 0..200 {
            let i = table.sample(&mut draw_rng);
            assert!(i < weights.len());
            // Zero-weight buckets are never drawn.
            assert!(weights[i] > 0.0, "sampled zero-weight bucket {i}");
        }
    }
}

#[test]
fn rng_streams_are_reproducible() {
    let mut rng = Xoshiro256::from_seed(Seed(109));
    for _ in 0..CASES {
        let seed = rng.next_u64();
        let mut a = Xoshiro256::from_seed(Seed(seed));
        let mut b = Xoshiro256::from_seed(Seed(seed));
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}

/// iFUB's diameter against the largest eccentricity in the max-degree
/// node's component.
fn assert_ifub_matches_brute_force(graph: &BipartiteGraph) -> u32 {
    let fast = ifub_diameter(graph, 1_000_000);
    assert!(fast.exact);
    // iFUB reports the diameter of the component containing the
    // max-degree node; brute-force that component.
    let start = (0..graph.n_nodes() as u32)
        .max_by_key(|&v| graph.degree(v))
        .unwrap_or(0);
    if graph.degree(start) == 0 {
        assert_eq!(fast.value, 0);
        return fast.bfs_runs;
    }
    // Collect the component of `start`.
    let mut comp = Vec::new();
    let mut seen = vec![false; graph.n_nodes()];
    let mut queue = std::collections::VecDeque::new();
    seen[start as usize] = true;
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        comp.push(u);
        for v in graph.neighbors(u) {
            if !seen[v as usize] {
                seen[v as usize] = true;
                queue.push_back(v);
            }
        }
    }
    let brute = comp
        .iter()
        .map(|&u| eccentricity(graph, u))
        .max()
        .unwrap_or(0);
    assert_eq!(fast.value, brute, "iFUB {} vs brute {}", fast.value, brute);
    fast.bfs_runs
}

#[test]
fn ifub_matches_brute_force_diameter() {
    let mut rng = Xoshiro256::from_seed(Seed(110));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 24, 10);
        let graph = BipartiteGraph::from_occurrences(n, &lists).unwrap();
        assert_ifub_matches_brute_force(&graph);
    }
    // Graphs of 200+ entities, whose iFUB fringes span several 64-source
    // batches.
    let mut multi_batch = 0;
    for _ in 0..CASES / 4 {
        let (n, lists) = occurrence_table_from(&mut rng, 200, 400, 60);
        let graph = BipartiteGraph::from_occurrences(n, &lists).unwrap();
        if assert_ifub_matches_brute_force(&graph) > 2 + 64 {
            multi_batch += 1;
        }
    }
    assert!(multi_batch > 0, "no case left the first 64-source batch");
}

#[test]
fn crawler_invariants() {
    let mut rng = Xoshiro256::from_seed(Seed(111));
    for _ in 0..CASES {
        let (n, lists) = occurrence_table(&mut rng, 120, 25);
        let index = SearchIndex::build(n, &lists, None);
        let seed_entity = EntityId::new(0);
        let result = crawl(&index, &lists, Fifo::default(), &[seed_entity], usize::MAX);
        // Trace is monotone; totals are bounded by the universe.
        assert!(result.entities_found <= n);
        assert!(result.sites_fetched <= lists.len());
        assert!(result.trace.windows(2).all(|w| w[1].1 >= w[0].1));
        assert!(result.exhausted, "unbudgeted crawls drain");
        // An unbudgeted crawl recovers exactly the seed's connected
        // component (checked against the graph library).
        let graph = BipartiteGraph::from_occurrences(n, &lists).unwrap();
        let mut reach = vec![false; graph.n_nodes()];
        let mut queue = std::collections::VecDeque::new();
        reach[0] = true;
        queue.push_back(0u32);
        while let Some(u) = queue.pop_front() {
            for v in graph.neighbors(u) {
                if !reach[v as usize] {
                    reach[v as usize] = true;
                    queue.push_back(v);
                }
            }
        }
        let component_entities = reach[..n].iter().filter(|&&r| r).count();
        assert_eq!(result.entities_found, component_entities);
    }
}

#[test]
fn similarity_metrics_are_sane() {
    let mut rng = Xoshiro256::from_seed(Seed(112));
    for _ in 0..CASES {
        let a = rand_string(&mut rng, LOWER, 16);
        let b = rand_string(&mut rng, LOWER, 16);
        for f in [jaro, jaro_winkler, token_jaccard] {
            let ab = f(&a, &b);
            assert!((0.0..=1.0 + 1e-12).contains(&ab));
            assert!((f(&b, &a) - ab).abs() < 1e-12, "symmetry on {a:?}/{b:?}");
        }
        // Identity.
        assert!(jaro(&a, &a) > 0.999 || a.is_empty());
        // Normalisation is idempotent.
        let na = normalize(&a);
        let nna = normalize(&na);
        assert_eq!(nna.as_str(), na.as_str());
    }
}
