//! Unsupervised wrapper induction — the site-extraction substrate the
//! paper's related work centres on (Arasu & Garcia-Molina; Crescenzi's
//! RoadRunner; Dalvi et al.'s automatic wrappers, refs [1, 6, 8]).
//!
//! Sites are templated: their pages share boilerplate (navigation,
//! footers, ad slots) around per-entity content. Given several pages from
//! one site, the learner identifies template lines by document frequency
//! and segments the remaining content into records at heading boundaries —
//! no reference database required. This is what lets the §1 "domain-centric
//! extraction" vision find *new* entities rather than only re-locating
//! known ones.

use webstruct_util::hash::FxHashMap;

/// A wrapper learned from one site's pages.
#[derive(Debug, Clone)]
pub struct Wrapper {
    /// Lines classified as template boilerplate (exact match).
    template_lines: webstruct_util::FxHashSet<String>,
    /// Document-frequency threshold used.
    pub df_threshold: f64,
    /// Pages the wrapper was trained on.
    pub pages_seen: usize,
}

/// One record segmented out of a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawRecord {
    /// The record's heading (entity name candidate).
    pub name: String,
    /// Content lines following the heading, template lines removed.
    pub fields: Vec<String>,
}

/// Learn a wrapper from the texts of a site's pages.
///
/// A line is template when it occurs on at least `df_threshold` of the
/// pages (exact string match after trimming). Headings (`<h2>…</h2>`) are
/// never template: they carry per-entity names.
///
/// # Panics
/// Panics when `pages` is empty or the threshold is outside `(0, 1]`.
#[must_use]
pub fn learn_wrapper<'a, I>(pages: I, df_threshold: f64) -> Wrapper
where
    I: IntoIterator<Item = &'a str>,
{
    assert!(
        df_threshold > 0.0 && df_threshold <= 1.0,
        "df_threshold must be in (0, 1]"
    );
    let mut df: FxHashMap<String, u32> = FxHashMap::default();
    let mut n_pages = 0usize;
    for page in pages {
        n_pages += 1;
        let mut seen_this_page = webstruct_util::FxHashSet::default();
        for line in page.lines() {
            let line = line.trim();
            if line.is_empty() || is_heading(line) {
                continue;
            }
            if seen_this_page.insert(line) {
                *df.entry(line.to_string()).or_insert(0) += 1;
            }
        }
    }
    assert!(n_pages > 0, "cannot learn a wrapper from zero pages");
    let min_df = (df_threshold * n_pages as f64).ceil() as u32;
    let template_lines = df
        .into_iter()
        .filter(|&(_, count)| count >= min_df.max(2))
        .map(|(line, _)| line)
        .collect();
    Wrapper {
        template_lines,
        df_threshold,
        pages_seen: n_pages,
    }
}

fn is_heading(line: &str) -> bool {
    line.starts_with("<h2>") && line.ends_with("</h2>")
}

fn heading_text(line: &str) -> Option<&str> {
    line.strip_prefix("<h2>")?.strip_suffix("</h2>")
}

impl Wrapper {
    /// Number of template lines learned.
    #[must_use]
    pub fn template_size(&self) -> usize {
        self.template_lines.len()
    }

    /// Whether a (trimmed) line is template boilerplate.
    #[must_use]
    pub fn is_template(&self, line: &str) -> bool {
        self.template_lines.contains(line.trim())
    }

    /// Extract records from one page's text: segment at headings, drop template
    /// lines, keep the rest as fields. Pages with no headings yield no
    /// records (they are pure boilerplate to this wrapper).
    #[must_use]
    pub fn extract(&self, page: &str) -> Vec<RawRecord> {
        let mut records: Vec<RawRecord> = Vec::new();
        let mut current: Option<RawRecord> = None;
        for line in page.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = heading_text(line) {
                if let Some(done) = current.take() {
                    records.push(done);
                }
                current = Some(RawRecord {
                    name: name.to_string(),
                    fields: Vec::new(),
                });
                continue;
            }
            if self.is_template(line) {
                continue;
            }
            if let Some(rec) = current.as_mut() {
                rec.fields.push(line.to_string());
            }
        }
        if let Some(done) = current.take() {
            records.push(done);
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_corpus::domain::Domain;
    use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
    use webstruct_corpus::page::{PageConfig, PageKind, PageScratch, PageStream};
    use webstruct_corpus::shard::ShardRecord;
    use webstruct_corpus::site::SiteKind;
    use webstruct_corpus::web::{Web, WebConfig};
    use webstruct_util::rng::Seed;

    fn fixture() -> (EntityCatalog, Web, Vec<ShardRecord>) {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 400), Seed(131));
        let web = Web::generate(
            &catalog,
            &WebConfig::preset(Domain::Restaurants).scaled(0.01),
            Seed(131),
        );
        let mut stream = PageStream::new(&web, &catalog, PageConfig::default(), Seed(132));
        let mut page = PageScratch::default();
        let mut pages = Vec::new();
        while stream.render_into(&mut page) {
            pages.push(ShardRecord {
                id: page.id(),
                site: page.site(),
                kind: page.kind(),
                url: String::new(),
                text: page.text().to_string(),
            });
        }
        drop(stream);
        (catalog, web, pages)
    }

    #[test]
    fn wrapper_learns_boilerplate_not_entities() {
        let (catalog, web, pages) = fixture();
        // Train on the biggest aggregator's listing pages.
        let agg = web
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::Aggregator)
            .expect("aggregator exists");
        let site_pages: Vec<&str> = pages
            .iter()
            .filter(|p| p.site == agg.id && p.kind == PageKind::Listing)
            .map(|p| p.text.as_str())
            .collect();
        assert!(site_pages.len() >= 5, "need training pages");
        let wrapper = learn_wrapper(site_pages.iter().copied(), 0.4);
        assert!(wrapper.template_size() > 0, "boilerplate must be learned");
        // No entity name ends up in the template.
        for e in &catalog.entities {
            assert!(
                !wrapper.is_template(&format!("<h2>{}</h2>", e.name)),
                "entity heading leaked into template"
            );
        }
    }

    #[test]
    fn site_chrome_is_learned_as_template() {
        let (_, web, pages) = fixture();
        let agg = web
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::Aggregator)
            .unwrap();
        let site_pages: Vec<&str> = pages
            .iter()
            .filter(|p| p.site == agg.id && p.kind == PageKind::Listing)
            .map(|p| p.text.as_str())
            .collect();
        let wrapper = learn_wrapper(site_pages.iter().copied(), 0.8);
        let nav = format!("Home | Categories | Contact — {}", agg.host);
        assert!(wrapper.is_template(&nav), "nav chrome must be template");
        // And extracted records never contain it.
        for page in site_pages.iter().take(5) {
            for record in wrapper.extract(page) {
                assert!(record.fields.iter().all(|f| f != &nav));
            }
        }
    }

    #[test]
    fn extraction_recovers_entity_names_without_the_catalog() {
        let (catalog, web, pages) = fixture();
        let agg = web
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::Aggregator)
            .unwrap();
        let site_pages: Vec<&str> = pages
            .iter()
            .filter(|p| p.site == agg.id && p.kind == PageKind::Listing)
            .map(|p| p.text.as_str())
            .collect();
        let wrapper = learn_wrapper(site_pages.iter().copied(), 0.4);
        let mut extracted_names = webstruct_util::FxHashSet::default();
        for page in &site_pages {
            for record in wrapper.extract(page) {
                extracted_names.insert(record.name);
            }
        }
        // Ground truth: the entities this site actually mentions.
        let truth: webstruct_util::FxHashSet<String> = web
            .mentions_of(agg.id)
            .iter()
            .map(|m| catalog.entity(m.entity).name.clone())
            .collect();
        let recovered = truth.iter().filter(|n| extracted_names.contains(*n)).count();
        let recall = recovered as f64 / truth.len() as f64;
        assert!(recall > 0.99, "open-extraction recall {recall}");
        // Precision: every extracted name is a true mention (headings are
        // only rendered for real entities).
        let precision = extracted_names
            .iter()
            .filter(|n| truth.contains(*n))
            .count() as f64
            / extracted_names.len() as f64;
        assert!(precision > 0.99, "open-extraction precision {precision}");
    }

    #[test]
    fn records_carry_contact_fields() {
        let (_, web, pages) = fixture();
        let agg = web
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::Aggregator)
            .unwrap();
        let site_pages: Vec<&str> = pages
            .iter()
            .filter(|p| p.site == agg.id && p.kind == PageKind::Listing)
            .map(|p| p.text.as_str())
            .collect();
        let wrapper = learn_wrapper(site_pages.iter().copied(), 0.4);
        let with_phone = site_pages
            .iter()
            .flat_map(|p| wrapper.extract(p))
            .filter(|r| r.fields.iter().any(|f| f.starts_with("Call ")))
            .count();
        assert!(with_phone > 0, "phone lines must survive as record fields");
    }

    #[test]
    fn small_sites_learn_degenerate_but_safe_wrappers() {
        let (_, web, pages) = fixture();
        // A niche site with a single page: nothing reaches df >= 2, so the
        // template is empty and extraction keeps all content.
        let single_page_site = web
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Niche)
            .find(|s| pages.iter().filter(|p| p.site == s.id).count() == 1);
        if let Some(site) = single_page_site {
            let site_pages: Vec<&str> =
                pages.iter().filter(|p| p.site == site.id).map(|p| p.text.as_str()).collect();
            let wrapper = learn_wrapper(site_pages.iter().copied(), 0.8);
            assert_eq!(wrapper.template_size(), 0);
            assert_eq!(wrapper.pages_seen, 1);
        }
    }

    #[test]
    #[should_panic(expected = "zero pages")]
    fn empty_training_set_rejected() {
        let _ = learn_wrapper(std::iter::empty(), 0.5);
    }

    #[test]
    #[should_panic(expected = "df_threshold")]
    fn bad_threshold_rejected() {
        let (_, _, pages) = fixture();
        let _ = learn_wrapper(pages.iter().take(1).map(|p| p.text.as_str()), 0.0);
    }
}
