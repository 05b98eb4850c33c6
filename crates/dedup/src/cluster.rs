//! Match scoring and clustering: [`is_match`] scores each candidate pair
//! once, and [`cluster`] unions the matched pairs of one [`Blocking`] view.

use crate::blocking::{groups_and_pairs, ratio_or_one, Blocking, CandidateTable};
use crate::records::Record;
use crate::similarity::name_similarity;
use webstruct_util::hash::FxHashMap;

/// Name-similarity threshold for a match without phone evidence.
pub const NAME_THRESHOLD: f64 = 0.82;

/// Name-similarity threshold when phones agree (much weaker evidence
/// needed).
pub const NAME_THRESHOLD_PHONE_MATCH: f64 = 0.45;

/// Pairwise decision: do two records describe the same entity?
/// Disagreeing phones veto a match outright.
#[must_use]
pub fn is_match(a: &Record, b: &Record) -> bool {
    match (a.phone, b.phone) {
        (Some(pa), Some(pb)) if pa != pb => false,
        (Some(_), Some(_)) => name_similarity(&a.name, &b.name) >= NAME_THRESHOLD_PHONE_MATCH,
        _ => name_similarity(&a.name, &b.name) >= NAME_THRESHOLD,
    }
}

/// The result of clustering records.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster id per record.
    pub assignment: Vec<u32>,
    /// Number of clusters.
    pub n_clusters: usize,
}

/// Cluster `table`'s records: union the matched entries of `blocking`'s
/// view. Cluster ids are dense, numbered in order of each cluster's
/// first record, so they depend only on the partition.
#[must_use]
pub fn cluster(table: &CandidateTable, blocking: Blocking) -> Clustering {
    let records = table.records;
    let mut parent: Vec<u32> = (0..records.len() as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }
    for c in table.view(blocking).filter(|c| c.matched) {
        let (ra, rb) = (find(&mut parent, c.a), find(&mut parent, c.b));
        if ra != rb {
            parent[rb as usize] = ra;
        }
    }
    // Densify cluster ids.
    let mut dense: FxHashMap<u32, u32> = FxHashMap::default();
    let mut assignment = Vec::with_capacity(records.len());
    for i in 0..records.len() as u32 {
        let root = find(&mut parent, i);
        let next = dense.len() as u32;
        let id = *dense.entry(root).or_insert(next);
        assignment.push(id);
    }
    Clustering {
        n_clusters: dense.len(),
        assignment,
    }
}

/// Pairwise precision/recall/F1 of a clustering against record truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupReport {
    /// Blocking strategy used.
    pub blocking: Blocking,
    /// Number of predicted clusters.
    pub n_clusters: usize,
    /// Number of true entities among the records.
    pub n_truth: usize,
    /// Pairwise precision.
    pub precision: f64,
    /// Pairwise recall.
    pub recall: f64,
}

impl DedupReport {
    /// Pairwise F1.
    #[must_use]
    pub fn f1(&self) -> f64 {
        if self.precision + self.recall == 0.0 {
            return 0.0;
        }
        2.0 * self.precision * self.recall / (self.precision + self.recall)
    }
}

/// Cluster `table`'s records under `blocking` and evaluate the result.
#[must_use]
pub fn dedup_and_evaluate(table: &CandidateTable, blocking: Blocking) -> DedupReport {
    let records = table.records;
    let clustering = cluster(table, blocking);
    // Pairwise counts via cluster/truth contingency.
    let truths = || records.iter().map(|r| r.truth);
    let (_, predicted) = groups_and_pairs(clustering.assignment.iter());
    let (n_truth, actual) = groups_and_pairs(truths());
    let (_, correct) = groups_and_pairs(clustering.assignment.iter().zip(truths()));
    DedupReport {
        blocking,
        n_clusters: clustering.n_clusters,
        n_truth,
        precision: ratio_or_one(correct, predicted),
        recall: ratio_or_one(correct, actual),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{generate_records, VariantModel};
    use webstruct_corpus::domain::Domain;
    use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
    use webstruct_util::ids::{EntityId, RegionId, SiteId};
    use webstruct_util::rng::Seed;

    fn rec(id: u32, name: &str, phone: Option<u64>, truth: u32) -> Record {
        Record {
            id,
            site: SiteId::new(0),
            name: name.to_string(),
            phone,
            region: RegionId::new(0),
            truth: EntityId::new(truth),
        }
    }

    #[test]
    fn phone_agreement_lowers_the_bar() {
        let a = rec(0, "Golden Dragon Cafe", Some(4_155_550_134), 0);
        let b = rec(1, "G D C Restaurant Group", Some(4_155_550_134), 0);
        // Weak name similarity, but phones agree.
        assert!(is_match(&a, &b) || name_similarity(&a.name, &b.name) < 0.45);
        let c = rec(2, "Golden Dragon Cafe", Some(2_125_559_999), 0);
        assert!(!is_match(&a, &c), "phone veto applies");
    }

    #[test]
    fn missing_phone_falls_back_to_names() {
        let a = rec(0, "Golden Dragon Cafe", None, 0);
        let b = rec(1, "Golden Dragon", Some(1), 0);
        assert!(is_match(&a, &b) == (name_similarity(&a.name, &b.name) >= 0.82));
    }

    #[test]
    fn end_to_end_dedup_quality() {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 300), Seed(111));
        let records = generate_records(&catalog, 4, &VariantModel::default(), Seed(112));
        let report = dedup_and_evaluate(&CandidateTable::new(&records), Blocking::PhoneOrName);
        assert!(report.precision > 0.97, "precision {}", report.precision);
        assert!(report.recall > 0.80, "recall {}", report.recall);
        assert!(report.f1() > 0.88, "f1 {}", report.f1());
        // Cluster count lands near the true entity count.
        let ratio = report.n_clusters as f64 / report.n_truth as f64;
        assert!((0.8..1.5).contains(&ratio), "cluster/truth ratio {ratio}");
    }

    #[test]
    fn clean_records_dedup_perfectly() {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Banks, 150), Seed(113));
        let clean = VariantModel {
            drop_suffix: 0.0,
            typo: 0.0,
            missing_phone: 0.0,
            wrong_phone: 0.0,
        };
        let records = generate_records(&catalog, 3, &clean, Seed(114));
        let report = dedup_and_evaluate(&CandidateTable::new(&records), Blocking::PhoneOrName);
        assert_eq!(report.precision, 1.0);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.n_clusters, report.n_truth);
    }

    #[test]
    fn singleton_records_stay_apart() {
        let records = vec![
            rec(0, "Alpha Bistro", Some(1_234), 0),
            rec(1, "Omega Grill", Some(5_678), 1),
        ];
        let clustering = cluster(&CandidateTable::new(&records), Blocking::PhoneOrName);
        assert_eq!(clustering.n_clusters, 2);
        assert_ne!(clustering.assignment[0], clustering.assignment[1]);
    }

    #[test]
    fn report_f1_edge_cases() {
        let r = DedupReport {
            blocking: Blocking::Phone,
            n_clusters: 0,
            n_truth: 0,
            precision: 0.0,
            recall: 0.0,
        };
        assert_eq!(r.f1(), 0.0);
    }
}
