//! Incremental k-coverage: the online counterpart of [`crate::kcov`],
//! for consumers that discover sites one at a time (e.g. the budgeted
//! crawler in `webstruct-crawl`) and want coverage-so-far without
//! re-scanning history.

use webstruct_util::ids::EntityId;

/// Online k-coverage accumulator.
///
/// Sites are ingested in *arrival* order (unlike the batch analysis,
/// which sorts by size); the caller decides the order, which is exactly
/// the point for crawler-policy evaluation.
#[derive(Debug, Clone)]
pub struct StreamingCoverage {
    max_k: u8,
    counts: Vec<u8>,
    /// `reached[k]` = number of entities present on >= k ingested sites.
    reached: Vec<usize>,
    sites_ingested: usize,
    scratch: Vec<EntityId>,
}

impl StreamingCoverage {
    /// New accumulator over `n_entities` with coverage tracked for
    /// `k = 1..=max_k`.
    ///
    /// # Panics
    /// Panics when `n_entities == 0` or `max_k == 0` or `max_k > 255`.
    #[must_use]
    pub fn new(n_entities: usize, max_k: usize) -> Self {
        assert!(n_entities > 0, "entity universe must be non-empty");
        assert!((1..=255).contains(&max_k), "max_k must be in 1..=255");
        StreamingCoverage {
            max_k: max_k as u8,
            counts: vec![0; n_entities],
            reached: vec![0; max_k + 1],
            sites_ingested: 0,
            scratch: Vec::new(),
        }
    }

    /// Number of entities in the universe.
    #[must_use]
    pub fn n_entities(&self) -> usize {
        self.counts.len()
    }

    /// Sites ingested so far.
    #[must_use]
    pub fn sites_ingested(&self) -> usize {
        self.sites_ingested
    }

    /// Ingest one site's entity list (duplicates within the list count
    /// once).
    ///
    /// # Panics
    /// Panics when an entity id is out of range.
    pub fn add_site(&mut self, entities: &[EntityId]) {
        self.scratch.clear();
        self.scratch.extend_from_slice(entities);
        self.scratch.sort_unstable();
        self.scratch.dedup();
        for e in &self.scratch {
            let c = &mut self.counts[e.index()];
            if *c < self.max_k {
                *c += 1;
                self.reached[usize::from(*c)] += 1;
            }
        }
        self.sites_ingested += 1;
    }

    /// Number of entities on >= k ingested sites: the exact count behind
    /// [`coverage`](StreamingCoverage::coverage).
    ///
    /// # Panics
    /// Panics when `k` is 0 or above `max_k`.
    #[must_use]
    pub fn reached(&self, k: usize) -> usize {
        assert!(k >= 1 && k <= usize::from(self.max_k), "k out of range");
        self.reached[k]
    }

    /// Current k-coverage (fraction of entities on >= k ingested sites).
    ///
    /// # Panics
    /// Panics when `k` is 0 or above `max_k`.
    #[must_use]
    pub fn coverage(&self, k: usize) -> f64 {
        self.reached(k) as f64 / self.counts.len() as f64
    }

    /// All coverages `k = 1..=max_k` at once.
    #[must_use]
    pub fn coverages(&self) -> Vec<f64> {
        (1..=usize::from(self.max_k)).map(|k| self.coverage(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kcov::k_coverage;

    fn e(id: u32) -> EntityId {
        EntityId::new(id)
    }

    #[test]
    fn incremental_counts_match_expectations() {
        let mut sc = StreamingCoverage::new(4, 3);
        assert_eq!(sc.coverage(1), 0.0);
        sc.add_site(&[e(0), e(1)]);
        assert_eq!(sc.coverage(1), 0.5);
        assert_eq!(sc.coverage(2), 0.0);
        sc.add_site(&[e(1), e(2)]);
        assert_eq!(sc.coverage(1), 0.75);
        assert_eq!(sc.coverage(2), 0.25);
        assert_eq!((sc.reached(1), sc.reached(2), sc.reached(3)), (3, 1, 0));
        assert_eq!(sc.sites_ingested(), 2);
        assert_eq!(sc.coverages(), vec![0.75, 0.25, 0.0]);
    }

    #[test]
    fn duplicates_within_site_count_once() {
        let mut sc = StreamingCoverage::new(2, 2);
        sc.add_site(&[e(0), e(0), e(0)]);
        assert_eq!(sc.coverage(1), 0.5);
        assert_eq!(sc.coverage(2), 0.0);
    }

    #[test]
    fn counts_saturate_at_max_k() {
        let mut sc = StreamingCoverage::new(1, 2);
        for _ in 0..10 {
            sc.add_site(&[e(0)]);
        }
        assert_eq!(sc.coverage(1), 1.0);
        assert_eq!(sc.coverage(2), 1.0);
    }

    #[test]
    fn matches_batch_when_fed_in_size_order() {
        // Feeding sites in the batch analysis's order must yield the same
        // final coverages.
        let sites: Vec<Vec<EntityId>> = vec![
            vec![e(0), e(1), e(2), e(3)],
            vec![e(1), e(2)],
            vec![e(2)],
            vec![],
        ];
        let batch = k_coverage(5, &sites, 3).unwrap();
        let mut sc = StreamingCoverage::new(5, 3);
        for &s in &batch.site_order {
            sc.add_site(&sites[s]);
        }
        for k in 1..=3 {
            let final_batch = *batch.curves[k - 1].last().unwrap();
            assert!(
                (sc.coverage(k) - final_batch).abs() < 1e-12,
                "k={k}: streaming {} vs batch {}",
                sc.coverage(k),
                final_batch
            );
        }
    }

    #[test]
    #[should_panic(expected = "k out of range")]
    fn k_zero_rejected() {
        let sc = StreamingCoverage::new(2, 2);
        let _ = sc.coverage(0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_universe_rejected() {
        let _ = StreamingCoverage::new(0, 1);
    }
}
