//! Page materialisation: turning the site→mention relation into concrete
//! web pages with real text.
//!
//! Pages are rendered lazily and deterministically — page `i` has the same
//! bytes on every iteration of the stream — so full-corpus extraction runs
//! never need to hold the rendered web in memory.

use crate::domain::Attribute;
use crate::entity::EntityCatalog;
use crate::phone::PhoneFormat;
use crate::site::SiteKind;
use crate::text;
use crate::web::Web;
use std::collections::VecDeque;
use webstruct_util::ids::{PageId, SiteId};
use webstruct_util::rng::{Seed, Xoshiro256};

/// What a page is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageKind {
    /// A listing/directory page mentioning one or more entities.
    Listing,
    /// A page of user reviews for a single entity.
    Review,
}

/// How a page's URL is derived from its identity — enough to render the
/// URL string on demand, so extraction-only streams (which never read the
/// URL) skip building it entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UrlTail {
    /// `http://{host}/list/{page_id}`.
    Listing,
    /// `http://{host}/reviews/{entity}/{page_no}`.
    Review {
        /// Raw entity id in the URL path.
        entity: u32,
        /// Review page ordinal in the URL path.
        page_no: u32,
    },
}

/// Reusable per-worker rendering target: [`PageStream::render_into`]
/// writes each page's text into the same buffers, so steady-state
/// rendering performs no heap allocation. The URL is *not* materialised —
/// [`PageScratch::url_into`] renders it on demand for the few consumers
/// (the shard writer, tests) that need one.
#[derive(Debug, Clone)]
pub struct PageScratch {
    id: PageId,
    site: SiteId,
    kind: PageKind,
    /// Host of the owning site, copied into a reused buffer.
    host: String,
    url_tail: UrlTail,
    /// Rendered text (HTML-lite), in a reused buffer.
    text: String,
}

impl Default for PageScratch {
    fn default() -> Self {
        PageScratch {
            id: PageId::new(0),
            site: SiteId::new(0),
            kind: PageKind::Listing,
            host: String::new(),
            url_tail: UrlTail::Listing,
            text: String::new(),
        }
    }
}

impl PageScratch {
    /// Global page id of the most recently rendered page.
    #[must_use]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Site hosting the most recently rendered page.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Class of the most recently rendered page.
    #[must_use]
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Rendered text of the most recently rendered page.
    #[must_use]
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Append the page URL to `out` without allocating.
    pub fn url_into(&self, out: &mut String) {
        out.push_str("http://");
        out.push_str(&self.host);
        match self.url_tail {
            UrlTail::Listing => {
                out.push_str("/list/");
                text::push_decimal(out, u64::from(self.id.raw()), 1);
            }
            UrlTail::Review { entity, page_no } => {
                out.push_str("/reviews/");
                text::push_decimal(out, u64::from(entity), 1);
                out.push('/');
                text::push_decimal(out, u64::from(page_no), 1);
            }
        }
    }
}

/// Rendering parameters.
#[derive(Debug, Clone)]
pub struct PageConfig {
    /// Entities per directory page on aggregators.
    pub agg_listing_chunk: usize,
    /// Entities per page on regional/niche sites.
    pub tail_listing_chunk: usize,
    /// Probability a listing page carries an invalid phone-lookalike.
    pub noise_phone_rate: f64,
    /// Expected number of *valid-format* random phone numbers injected per
    /// listing page (Poisson). These are the §3.5 accidental-collision
    /// hazard: they scan as phones and may collide with catalog entries.
    pub noise_valid_phone_rate: f64,
    /// Probability a listing page carries a long tracking number.
    pub noise_tracking_rate: f64,
    /// Probability a listing page carries an unrelated anchor.
    pub noise_anchor_rate: f64,
    /// Boilerplate sentences per page: uniform in `[min, max]`.
    pub boilerplate_min: usize,
    /// See `boilerplate_min`.
    pub boilerplate_max: usize,
}

impl Default for PageConfig {
    fn default() -> Self {
        PageConfig {
            agg_listing_chunk: 25,
            tail_listing_chunk: 4,
            noise_phone_rate: 0.15,
            noise_valid_phone_rate: 0.0,
            noise_tracking_rate: 0.10,
            noise_anchor_rate: 0.25,
            boilerplate_min: 2,
            boilerplate_max: 5,
        }
    }
}

/// A planned page before rendering.
#[derive(Debug, Clone, Copy)]
enum PagePlan {
    /// Mentions `[start, end)` of the current site on one directory page.
    Listing { start: u32, end: u32 },
    /// Review page `page_no` for the mention at index `mention`.
    Review { mention: u32, page_no: u32 },
}

/// Lazy, deterministic renderer of every page of a [`Web`], one page per
/// [`PageStream::render_into`] call, in page-id order.
pub struct PageStream<'a> {
    web: &'a Web,
    catalog: &'a EntityCatalog,
    config: PageConfig,
    seed: Seed,
    site_cursor: usize,
    site_end: usize,
    plans: VecDeque<PagePlan>,
    next_page: u32,
    /// Scratch-local render counters — plain integers on the hot path,
    /// published to the global `corpus.*` metrics once, on drop.
    pages_rendered: u64,
    bytes_rendered: u64,
}

impl<'a> PageStream<'a> {
    /// Create a stream over every page of the web.
    #[must_use]
    pub fn new(web: &'a Web, catalog: &'a EntityCatalog, config: PageConfig, seed: Seed) -> Self {
        let site_end = web.n_sites();
        PageStream {
            web,
            catalog,
            config,
            seed: seed.derive("pages"),
            site_cursor: 0,
            site_end,
            plans: VecDeque::new(),
            next_page: 0,
            pages_rendered: 0,
            bytes_rendered: 0,
        }
    }

    /// Create a stream over the pages of sites `[sites.start, sites.end)`
    /// only, numbering them from `first_page`.
    ///
    /// Page rendering is a pure function of `(seed, page id)`, and the full
    /// stream assigns dense page ids in site order — so when `first_page`
    /// equals the number of pages contributed by sites `0..sites.start`
    /// (see [`PageStream::site_page_count`]), this shard yields bytes
    /// identical to the corresponding slice of [`PageStream::new`]. That is
    /// the determinism contract the parallel extraction path relies on.
    ///
    /// # Panics
    /// Panics when the range extends past `web.n_sites()`.
    #[must_use]
    pub fn for_site_range(
        web: &'a Web,
        catalog: &'a EntityCatalog,
        config: PageConfig,
        seed: Seed,
        sites: std::ops::Range<usize>,
        first_page: u32,
    ) -> Self {
        assert!(
            sites.end <= web.n_sites(),
            "site range {sites:?} exceeds {} sites",
            web.n_sites()
        );
        PageStream {
            web,
            catalog,
            config,
            seed: seed.derive("pages"),
            site_cursor: sites.start,
            site_end: sites.end,
            plans: VecDeque::new(),
            next_page: first_page,
            pages_rendered: 0,
            bytes_rendered: 0,
        }
    }

    /// Number of pages site `site_idx` contributes to the stream: its
    /// listing chunks plus one review page per `reviews_per_page` reviews.
    ///
    /// Mirrors the planning logic exactly, so prefix sums of this count
    /// give each site's first global page id.
    ///
    /// # Panics
    /// Panics when `site_idx` is out of range.
    #[must_use]
    pub fn site_page_count(web: &Web, config: &PageConfig, site_idx: usize) -> u32 {
        let rpp = web.reviews_per_page() as u32;
        let reviews: u32 = web
            .mentions_of(web.sites[site_idx].id)
            .iter()
            .filter(|m| m.reviews > 0)
            .map(|m| u32::from(m.reviews).div_ceil(rpp))
            .sum();
        Self::site_listing_count(web, config, site_idx) + reviews
    }

    /// Number of listing pages site `site_idx` contributes: one per
    /// listing chunk of its mentions, none for a site without mentions.
    ///
    /// # Panics
    /// Panics when `site_idx` is out of range.
    #[must_use]
    pub fn site_listing_count(web: &Web, config: &PageConfig, site_idx: usize) -> u32 {
        let site = &web.sites[site_idx];
        let chunk = match site.kind {
            SiteKind::Aggregator => config.agg_listing_chunk,
            SiteKind::Regional | SiteKind::Niche => config.tail_listing_chunk,
        }
        .max(1);
        web.mentions_of(site.id).len().div_ceil(chunk) as u32
    }

    /// Estimated rendered byte-size of site `site_idx`'s pages, from the
    /// same counts [`PageStream::site_page_count`] uses — no rendering.
    ///
    /// The coefficients are a coarse linear model of the renderer (page
    /// chrome ≈ 300 B, each mention block ≈ 80 B, each review ≈ 130 B).
    /// The estimate only has to *rank* sites for the size-aware scheduler
    /// and shard planner, so being off by a constant factor is harmless;
    /// being non-monotone in actual size is what would hurt.
    ///
    /// # Panics
    /// Panics when `site_idx` is out of range.
    #[must_use]
    pub fn estimated_site_bytes(web: &Web, config: &PageConfig, site_idx: usize) -> u64 {
        let site = &web.sites[site_idx];
        let mentions = web.mentions_of(site.id);
        if mentions.is_empty() {
            return 0;
        }
        let pages = u64::from(Self::site_page_count(web, config, site_idx));
        let mention_bytes = 80 * mentions.len() as u64;
        let review_bytes: u64 = mentions.iter().map(|m| u64::from(m.reviews) * 130).sum();
        pages * 300 + mention_bytes + review_bytes
    }

    fn plan_site(&mut self, site_idx: usize) {
        let site = &self.web.sites[site_idx];
        let mentions = self.web.mentions_of(site.id);
        if mentions.is_empty() {
            return;
        }
        let chunk = match site.kind {
            SiteKind::Aggregator => self.config.agg_listing_chunk,
            SiteKind::Regional | SiteKind::Niche => self.config.tail_listing_chunk,
        }
        .max(1);
        let mut start = 0u32;
        while (start as usize) < mentions.len() {
            let end = ((start as usize + chunk).min(mentions.len())) as u32;
            self.plans.push_back(PagePlan::Listing { start, end });
            start = end;
        }
        let rpp = self.web.reviews_per_page() as u32;
        for (mi, m) in mentions.iter().enumerate() {
            if m.reviews > 0 {
                let n_pages = u32::from(m.reviews).div_ceil(rpp);
                for page_no in 0..n_pages {
                    self.plans.push_back(PagePlan::Review {
                        mention: mi as u32,
                        page_no,
                    });
                }
            }
        }
    }

    /// Render the next page of the stream into `out`'s reused buffers.
    /// Returns `false` when the stream is exhausted. Steady-state calls
    /// perform no heap allocation (buffers only grow toward the largest
    /// page seen).
    pub fn render_into(&mut self, out: &mut PageScratch) -> bool {
        loop {
            if let Some(plan) = self.plans.pop_front() {
                // The plan belongs to the site we most recently planned.
                let site_idx = self.site_cursor - 1;
                self.render_plan_into(site_idx, plan, PageId::new(self.next_page), out);
                self.next_page += 1;
                self.pages_rendered += 1;
                self.bytes_rendered += out.text.len() as u64;
                return true;
            }
            if self.site_cursor >= self.site_end {
                return false;
            }
            let idx = self.site_cursor;
            self.site_cursor += 1;
            self.plan_site(idx);
        }
    }

    fn render_plan_into(
        &self,
        site_idx: usize,
        plan: PagePlan,
        page_id: PageId,
        scratch: &mut PageScratch,
    ) {
        let site = &self.web.sites[site_idx];
        let mentions = self.web.mentions_of(site.id);
        // Rendering is a pure function of (seed, page id, site revision):
        // revision 0 keys exactly as before the epoch model existed (so
        // epoch-0 stores are byte-identical to historical ones), and a
        // bumped revision re-keys only this site's pages.
        let rev = self.web.revision(site_idx);
        let page_seed = if rev == 0 {
            self.seed.derive_u64(u64::from(page_id.raw()))
        } else {
            self.seed
                .derive_u64(u64::from(page_id.raw()))
                .derive_u64(u64::from(rev))
        };
        let mut rng = Xoshiro256::from_seed(page_seed);
        scratch.id = page_id;
        scratch.site = site.id;
        scratch.host.clear();
        scratch.host.push_str(&site.host);
        let out = &mut scratch.text;
        out.clear();
        match plan {
            PagePlan::Listing { start, end } => {
                out.push_str("<html><title>");
                out.push_str(&site.host);
                out.push_str(" — local listings</title>\n");
                // Site-wide navigation chrome: identical on every page of
                // the site, which is exactly what wrapper induction learns
                // to discard.
                out.push_str("Home | Categories | Contact — ");
                out.push_str(&site.host);
                out.push('\n');
                let nb = rng.range_u64(
                    self.config.boilerplate_min as u64,
                    self.config.boilerplate_max as u64 + 1,
                ) as usize;
                text::boilerplate_block_into(&mut rng, nb, out);
                out.push('\n');
                for m in &mentions[start as usize..end as usize] {
                    let entity = self.catalog.entity(m.entity);
                    out.push_str("<h2>");
                    out.push_str(&entity.name);
                    out.push_str("</h2>\n");
                    if m.attrs.contains(Attribute::Phone) {
                        let phone = entity.phone.expect("phone attr implies phone");
                        out.push_str("Call ");
                        phone.format_into(PhoneFormat::random(&mut rng), out);
                        out.push_str(".\n");
                    }
                    if m.attrs.contains(Attribute::Isbn) {
                        let isbn = entity.isbn.expect("isbn attr implies isbn");
                        let sep = if rng.bool_with(0.5) { ": " } else { " " };
                        out.push_str("ISBN");
                        out.push_str(sep);
                        isbn.render_random_into(&mut rng, out);
                        out.push('\n');
                    }
                    if m.attrs.contains(Attribute::Homepage) {
                        let host = entity.homepage.as_ref().expect("homepage attr implies url");
                        out.push_str("<a href=\"http://");
                        out.push_str(host);
                        out.push_str("/\">");
                        out.push_str(&entity.name);
                        out.push_str(" website</a>\n");
                    }
                    if rng.bool_with(0.2) {
                        out.push_str(text::boilerplate_pick(&mut rng));
                        out.push('\n');
                    }
                }
                let n_valid_noise = rng.poisson(self.config.noise_valid_phone_rate);
                for _ in 0..n_valid_noise {
                    out.push_str("Customer service line ");
                    let phone = crate::phone::PhoneNumber::random(&mut rng);
                    phone.format_into(crate::phone::PhoneFormat::random(&mut rng), out);
                    out.push_str(".\n");
                }
                if rng.bool_with(self.config.noise_phone_rate) {
                    out.push_str("Reference code ");
                    text::invalid_phone_lookalike_into(&mut rng, out);
                    out.push_str(".\n");
                }
                if rng.bool_with(self.config.noise_tracking_rate) {
                    text::tracking_number_into(&mut rng, out);
                    out.push('\n');
                }
                if rng.bool_with(self.config.noise_anchor_rate) {
                    text::noise_anchor_into(&mut rng, out);
                    out.push('\n');
                }
                out.push_str("(c) ");
                out.push_str(&site.host);
                out.push_str(" — all listings are user submitted\n</html>");
                scratch.kind = PageKind::Listing;
                scratch.url_tail = UrlTail::Listing;
            }
            PagePlan::Review { mention, page_no } => {
                let m = &mentions[mention as usize];
                let entity = self.catalog.entity(m.entity);
                let rpp = self.web.reviews_per_page() as u32;
                let remaining = u32::from(m.reviews) - page_no * rpp;
                let on_page = remaining.min(rpp);
                out.push_str("<html><title>Reviews of ");
                out.push_str(&entity.name);
                out.push_str(" — ");
                out.push_str(&site.host);
                out.push_str("</title>\n");
                if let Some(phone) = entity.phone {
                    out.push_str("Contact: ");
                    phone.format_into(PhoneFormat::random(&mut rng), out);
                    out.push('\n');
                }
                for _ in 0..on_page {
                    text::review_paragraph_into(&mut rng, &entity.name, out);
                    out.push('\n');
                }
                out.push_str("</html>");
                scratch.kind = PageKind::Review;
                scratch.url_tail = UrlTail::Review {
                    entity: m.entity.raw(),
                    page_no,
                };
            }
        }
    }
}

impl Drop for PageStream<'_> {
    /// Publish this stream's render totals to the global metrics. A
    /// shard stream publishes its own totals, and counter addition is
    /// commutative, so the registry ends at the same values for any
    /// shard count or join order.
    fn drop(&mut self) {
        if self.pages_rendered > 0 {
            let m = webstruct_util::obs::metrics();
            m.add("corpus.pages_rendered", self.pages_rendered);
            m.add("corpus.bytes_streamed", self.bytes_rendered);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use crate::entity::{CatalogConfig, EntityCatalog};
    use crate::shard::ShardRecord;
    use crate::web::WebConfig;

    /// Every page of `stream`, copied out of the reused scratch.
    fn render_all(mut stream: PageStream<'_>) -> Vec<ShardRecord> {
        let mut scratch = PageScratch::default();
        let mut pages = Vec::new();
        while stream.render_into(&mut scratch) {
            let mut url = String::new();
            scratch.url_into(&mut url);
            pages.push(ShardRecord {
                id: scratch.id(),
                site: scratch.site(),
                kind: scratch.kind(),
                url,
                text: scratch.text().to_string(),
            });
        }
        pages
    }

    fn tiny_setup(domain: Domain) -> (EntityCatalog, Web) {
        let catalog = EntityCatalog::generate(&CatalogConfig::new(domain, 300), Seed(21));
        let config = WebConfig::preset(domain).scaled(0.01);
        let web = Web::generate(&catalog, &config, Seed(21));
        (catalog, web)
    }

    #[test]
    fn stream_is_deterministic() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let a = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3)));
        let b = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3)));
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.text, y.text);
            assert_eq!(x.url, y.url);
        }
        // Different seeds change the rendering.
        let c = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(4)));
        assert!(a.iter().zip(&c).any(|(x, y)| x.text != y.text));
    }

    #[test]
    fn presized_scratch_renders_identically() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let mut a = PageStream::new(&web, &catalog, PageConfig::default(), Seed(3));
        let mut b = PageStream::new(&web, &catalog, PageConfig::default(), Seed(3));
        let mut cold = PageScratch::default();
        // A scratch grown (and left holding the last page) by a whole
        // pass over another rendering.
        let mut warm = PageScratch::default();
        let mut other = PageStream::new(&web, &catalog, PageConfig::default(), Seed(4));
        while other.render_into(&mut warm) {}
        let mut pages = 0usize;
        while a.render_into(&mut cold) {
            assert!(b.render_into(&mut warm));
            assert_eq!(cold.text(), warm.text());
            let (mut a_url, mut b_url) = (String::new(), String::new());
            cold.url_into(&mut a_url);
            warm.url_into(&mut b_url);
            assert_eq!(a_url, b_url);
            pages += 1;
        }
        assert!(!b.render_into(&mut warm));
        assert!(pages > 100, "fixture too small: {pages} pages");
    }

    #[test]
    fn page_ids_are_dense_and_sites_ordered() {
        let (catalog, web) = tiny_setup(Domain::Banks);
        let pages = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3)));
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
        // Site ids are non-decreasing along the stream.
        assert!(pages.windows(2).all(|w| w[0].site <= w[1].site));
    }

    #[test]
    fn every_phone_mention_appears_on_some_page() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let mut expected = std::collections::HashSet::new();
        for (site, m) in web.iter() {
            if m.attrs.contains(Attribute::Phone) {
                expected.insert((site, m.entity));
            }
        }
        let mut found = std::collections::HashSet::new();
        for page in render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3))) {
            for m in web.mentions_of(page.site) {
                if m.attrs.contains(Attribute::Phone) {
                    let digits = catalog.entity(m.entity).phone.unwrap();
                    // Cheap containment check: all formats contain the line
                    // number as 4 digits; use the full plain rendering scan.
                    let plain = digits.format(PhoneFormat::Plain);
                    let last4 = &plain[6..];
                    if page.text.contains(last4) {
                        found.insert((page.site, m.entity));
                    }
                }
            }
        }
        // Every (site, entity) phone mention must surface on at least one
        // page of that site.
        for pair in &expected {
            assert!(found.contains(pair), "missing mention {pair:?}");
        }
    }

    #[test]
    fn review_pages_contain_review_language_and_contact() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let pages = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3)));
        let review_pages: Vec<&ShardRecord> =
            pages.iter().filter(|p| p.kind == PageKind::Review).collect();
        assert!(!review_pages.is_empty(), "restaurants must have review pages");
        for p in review_pages.iter().take(20) {
            assert!(p.text.contains("out of 5 stars"), "no rating in {}", p.url);
            assert!(p.text.contains("Contact:"), "no contact in {}", p.url);
        }
    }

    #[test]
    fn review_page_count_matches_web_accounting() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let pages = render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3)));
        let streamed = pages.iter().filter(|p| p.kind == PageKind::Review).count() as u32;
        let accounted: u32 = web
            .review_page_lists()
            .iter()
            .flat_map(|l| l.iter().map(|&(_, n)| n))
            .sum();
        assert_eq!(streamed, accounted);
    }

    #[test]
    fn books_pages_carry_isbn_with_marker() {
        let (catalog, web) = tiny_setup(Domain::Books);
        let mut saw_isbn = false;
        for page in render_all(PageStream::new(&web, &catalog, PageConfig::default(), Seed(3))) {
            if page.text.contains("ISBN") {
                saw_isbn = true;
                break;
            }
        }
        assert!(saw_isbn, "book pages must render ISBN markers");
    }

    #[test]
    fn site_page_counts_match_streamed_pages() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let cfg = PageConfig::default();
        let mut per_site = vec![0u32; web.n_sites()];
        for p in render_all(PageStream::new(&web, &catalog, cfg.clone(), Seed(3))) {
            per_site[p.site.index()] += 1;
        }
        for (i, &streamed) in per_site.iter().enumerate() {
            assert_eq!(
                PageStream::site_page_count(&web, &cfg, i),
                streamed,
                "site {i}"
            );
        }
    }

    #[test]
    fn site_range_shards_reproduce_the_full_stream() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let cfg = PageConfig::default();
        let full = render_all(PageStream::new(&web, &catalog, cfg.clone(), Seed(3)));
        // Split the sites into three uneven shards and re-render.
        let n = web.n_sites();
        let cuts = [0, n / 3, 2 * n / 3 + 1, n];
        let mut sharded = Vec::new();
        for w in cuts.windows(2) {
            let first_page: u32 = (0..w[0])
                .map(|i| PageStream::site_page_count(&web, &cfg, i))
                .sum();
            sharded.extend(render_all(PageStream::for_site_range(
                &web,
                &catalog,
                cfg.clone(),
                Seed(3),
                w[0]..w[1],
                first_page,
            )));
        }
        assert_eq!(full.len(), sharded.len());
        for (a, b) in full.iter().zip(&sharded) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.url, b.url);
            assert_eq!(a.text, b.text, "page {} diverged", a.id.raw());
        }
    }

    #[test]
    fn listing_chunks_respect_site_kind() {
        let (catalog, web) = tiny_setup(Domain::Restaurants);
        let cfg = PageConfig::default();
        let pages = render_all(PageStream::new(&web, &catalog, cfg.clone(), Seed(3)));
        for p in pages.iter().filter(|p| p.kind == PageKind::Listing) {
            let entity_count = p.text.matches("<h2>").count();
            let site = &web.sites[p.site.index()];
            let cap = match site.kind {
                SiteKind::Aggregator => cfg.agg_listing_chunk,
                _ => cfg.tail_listing_chunk,
            };
            assert!(entity_count <= cap, "{} entities on {}", entity_count, p.url);
            assert!(entity_count >= 1);
        }
    }
}
