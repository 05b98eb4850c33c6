//! Extension experiment: open (catalog-free) database construction.
//!
//! The paper's methodology locates *known* entities by their identifiers;
//! the end goal of domain-centric extraction (§1) is to build the database
//! from scratch. This experiment does that end to end on the synthetic
//! web: learn a wrapper per site (template induction), extract raw records
//! with no access to the reference catalog, deduplicate them across sites,
//! and measure how much of the true entity universe the constructed
//! database recovers.

use crate::cache::Study;
use webstruct_corpus::domain::Domain;
use webstruct_corpus::page::{PageConfig, PageKind, PageScratch, PageStream};
use webstruct_dedup::{cluster, Blocking, MatchConfig, Record};
use webstruct_extract::phone_scan::for_each_phone;
use webstruct_extract::wrapper::learn_wrapper;
use webstruct_util::hash::FxHashMap;
use webstruct_util::ids::{EntityId, SiteId};

/// Outcome of the open-extraction pipeline.
#[derive(Debug, Clone)]
pub struct OpenExtractionReport {
    /// Sites whose pages were wrapped and extracted.
    pub sites_wrapped: usize,
    /// Raw records extracted (pre-dedup).
    pub raw_records: usize,
    /// Clusters after cross-site deduplication (the constructed database).
    pub database_size: usize,
    /// True entities present on the processed sites.
    pub true_entities: usize,
    /// Fraction of true entities recovered by at least one record whose
    /// name matches exactly.
    pub name_recall: f64,
}

/// Run open extraction over the `max_sites` largest sites of a domain.
///
/// Every stage is catalog-free: wrappers come from template induction,
/// record phones from the scanner, and entity identity from the
/// cross-site deduper. The catalog is consulted only afterwards, for
/// evaluation.
pub fn open_extraction(
    study: &Study,
    domain: Domain,
    max_sites: usize,
) -> OpenExtractionReport {
    let built = study.domain(domain);
    let web = &built.web;
    let config = PageConfig::default();
    // Rank sites by listing pages, counted from the web alone, with each
    // site's first global page id, so a chosen site renders on its own
    // with the bytes the whole-domain stream would give it.
    let mut next_page = 0u32;
    let mut site_order: Vec<(usize, u32, u32)> = (0..web.n_sites())
        .map(|i| {
            let first_page = next_page;
            next_page += PageStream::site_page_count(web, &config, i);
            (
                i,
                PageStream::site_listing_count(web, &config, i),
                first_page,
            )
        })
        .filter(|&(_, listings, _)| listings > 0)
        .collect();
    site_order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    site_order.truncate(max_sites);

    // Wrap and extract, catalog-free.
    let mut records: Vec<Record> = Vec::new();
    let mut truth_entities = webstruct_util::FxHashSet::default();
    let seed = study.config.seed.derive("open-render");
    let mut page = PageScratch::default();
    let mut site_pages: Vec<String> = Vec::new();
    for &(i, _, first_page) in &site_order {
        let site = SiteId::new(i as u32);
        let mut stream = PageStream::for_site_range(
            web,
            &built.catalog,
            config.clone(),
            seed,
            i..i + 1,
            first_page,
        );
        site_pages.clear();
        while stream.render_into(&mut page) {
            if page.kind() == PageKind::Listing {
                site_pages.push(page.text().to_string());
            }
        }
        let wrapper = learn_wrapper(site_pages.iter().map(String::as_str), 0.4);
        for page in &site_pages {
            for raw in wrapper.extract(page) {
                // The first phone of the first field that has one.
                let phone = raw.fields.iter().find_map(|f| {
                    let mut first = None;
                    for_each_phone(f, |m| {
                        first.get_or_insert(m.phone.digits());
                    });
                    first
                });
                records.push(Record {
                    id: records.len() as u32,
                    site,
                    name: raw.name,
                    phone,
                    // Open extraction does not know regions; use a single
                    // block (region 0) so name blocking still works.
                    region: webstruct_util::RegionId::new(0),
                    // Truth is filled below for evaluation only.
                    truth: EntityId::new(0),
                });
            }
        }
        for m in web.mentions_of(site) {
            truth_entities.insert(m.entity);
        }
    }
    // Evaluation-only truth assignment by exact name lookup.
    let name_to_entity: FxHashMap<&str, EntityId> = built
        .catalog
        .entities
        .iter()
        .map(|e| (e.name.as_str(), e.id))
        .collect();
    let mut recovered = webstruct_util::FxHashSet::default();
    for r in &mut records {
        if let Some(&e) = name_to_entity.get(r.name.as_str()) {
            r.truth = e;
            recovered.insert(e);
        }
    }
    let clustering = cluster(&records, Blocking::PhoneOrName, &MatchConfig::default());
    let recovered_true = truth_entities
        .iter()
        .filter(|e| recovered.contains(*e))
        .count();
    OpenExtractionReport {
        sites_wrapped: site_order.len(),
        raw_records: records.len(),
        database_size: clustering.n_clusters,
        true_entities: truth_entities.len(),
        name_recall: if truth_entities.is_empty() {
            0.0
        } else {
            recovered_true as f64 / truth_entities.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;

    #[test]
    fn open_extraction_builds_a_credible_database() {
        let study = Study::new(StudyConfig::quick());
        let report = open_extraction(&study, Domain::Restaurants, 40);
        assert_eq!(report.sites_wrapped, 40);
        assert!(report.raw_records > report.true_entities);
        // Catalog-free recall: nearly every entity on the processed sites
        // is recovered by name.
        assert!(
            report.name_recall > 0.97,
            "open-extraction recall {}",
            report.name_recall
        );
        // Dedup compresses the raw records toward the true entity count
        // (name variants are absent here, so compression is strong).
        assert!(
            report.database_size < report.raw_records,
            "dedup must merge cross-site duplicates"
        );
        let ratio = report.database_size as f64 / report.true_entities as f64;
        assert!(
            (0.8..=1.6).contains(&ratio),
            "database size {} vs true {} (ratio {ratio})",
            report.database_size,
            report.true_entities
        );
    }
}
