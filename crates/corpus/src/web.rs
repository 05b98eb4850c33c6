//! The generative web model: which sites exist and which entities (with
//! which attributes) each site mentions.
//!
//! This module is the stand-in for the Yahoo! web cache. The model follows
//! the structure the paper observes qualitatively: a few national
//! aggregators with large but imperfect coverage, regional directories that
//! cover one metro area each, and a long tail of niche sites mentioning a
//! handful of entities. Coverage probabilities are tilted toward popular
//! entities, with a floor so that tail entities remain reachable — the
//! property that drives the paper's connectivity findings.

use crate::domain::{AttrMask, Attribute, Domain};
use crate::entity::EntityCatalog;
use crate::site::{Site, SiteKind};
use webstruct_util::ids::{EntityId, RegionId, SiteId};
use webstruct_util::rng::{Seed, Xoshiro256};
use webstruct_util::sample::AliasTable;

/// Parameters of the generative web model for one domain.
#[derive(Debug, Clone)]
pub struct WebConfig {
    /// Number of national aggregator sites.
    pub n_aggregators: usize,
    /// Per-entity inclusion probability of the top aggregator.
    pub agg_reach_head: f64,
    /// Power-law decay of aggregator reach: rank `r` has reach
    /// `agg_reach_head * (1 + r)^-agg_reach_decay`.
    pub agg_reach_decay: f64,
    /// Number of regional directory sites (spread round-robin over regions).
    pub n_regional: usize,
    /// Fraction of its region covered by the top regional site of a region.
    pub regional_frac_head: f64,
    /// Power-law decay of regional site coverage by within-region rank.
    pub regional_alpha: f64,
    /// Number of niche/tail sites.
    pub n_niche: usize,
    /// Mean number of entities mentioned by a niche site.
    pub niche_mean_entities: f64,
    /// Popularity tilt `gamma`: inclusion multiplier is
    /// `min_inclusion + (1 - min_inclusion) * (1 - rank_frac)^gamma`.
    pub popularity_tilt: f64,
    /// Inclusion floor for the least popular entity.
    pub min_inclusion: f64,
    /// P(identifying attribute — phone or ISBN — exposed | listed), on
    /// aggregators.
    pub id_exposure_agg: f64,
    /// Same, on regional/niche sites.
    pub id_exposure_tail: f64,
    /// P(homepage link exposed | listed and entity has a homepage), on
    /// aggregators. Deliberately low: big directories often omit links,
    /// which produces the wider homepage spread of Figure 2.
    pub homepage_exposure_agg: f64,
    /// Same, on regional/niche sites (blogs link businesses readily).
    pub homepage_exposure_tail: f64,
    /// Probability an aggregator carries user reviews.
    pub review_site_frac_agg: f64,
    /// Probability a regional/niche site carries user reviews.
    pub review_site_frac_tail: f64,
    /// Poisson scale for review counts of a head entity on a head site.
    pub review_intensity: f64,
    /// Exponent concentrating review volume on popular entities.
    pub review_pop_exponent: f64,
    /// Popularity-independent floor on the per-site review rate, so even
    /// tail entities accumulate an occasional review somewhere (the paper's
    /// Figure 4(a) reaches ~90% 1-coverage, implying near-universal review
    /// presence across its restaurant database).
    pub review_floor: f64,
    /// Reviews rendered per review page (Fig 4(b) counts review *pages*).
    pub reviews_per_page: usize,
}

impl WebConfig {
    /// Calibrated preset for a domain (see DESIGN.md §3 and the
    /// calibration integration tests). Scale-free parameters: the absolute
    /// site counts are chosen for ~2·10⁴ entities and may be scaled.
    #[must_use]
    pub fn preset(domain: Domain) -> Self {
        // Baseline local-business preset, specialised per domain below.
        let mut cfg = WebConfig {
            n_aggregators: 30,
            agg_reach_head: 0.75,
            agg_reach_decay: 0.55,
            n_regional: 6_000,
            regional_frac_head: 0.55,
            regional_alpha: 0.75,
            n_niche: 24_000,
            niche_mean_entities: 7.5,
            popularity_tilt: 1.2,
            min_inclusion: 0.45,
            id_exposure_agg: 0.97,
            id_exposure_tail: 0.90,
            homepage_exposure_agg: 0.18,
            homepage_exposure_tail: 0.80,
            review_site_frac_agg: 0.6,
            review_site_frac_tail: 0.34,
            review_intensity: 40.0,
            review_pop_exponent: 2.2,
            review_floor: 0.08,
            reviews_per_page: 10,
        };
        match domain {
            Domain::Restaurants => {
                cfg.n_regional = 7_000;
                cfg.n_niche = 30_000;
                cfg.niche_mean_entities = 9.0;
            }
            Domain::Automotive => {
                cfg.agg_reach_head = 0.65;
                cfg.n_regional = 4_000;
                cfg.n_niche = 12_000;
                cfg.niche_mean_entities = 6.0;
            }
            Domain::Banks => {
                cfg.agg_reach_head = 0.8;
                cfg.n_regional = 5_000;
                cfg.n_niche = 14_000;
            }
            Domain::Libraries => {
                // Few entities, many civic sites each listing many: high
                // avg sites/entity (Table 2: 47 for phones, 251 homepages).
                cfg.agg_reach_head = 0.85;
                cfg.n_regional = 6_000;
                cfg.regional_frac_head = 0.85;
                cfg.n_niche = 18_000;
                cfg.niche_mean_entities = 10.0;
                cfg.homepage_exposure_agg = 0.5;
                cfg.homepage_exposure_tail = 0.92;
            }
            Domain::Schools => {
                cfg.agg_reach_head = 0.8;
                cfg.n_regional = 6_500;
                cfg.regional_frac_head = 0.75;
                cfg.n_niche = 20_000;
                cfg.niche_mean_entities = 9.0;
                cfg.homepage_exposure_tail = 0.85;
            }
            Domain::HotelsLodging => {
                // Travel is aggregator-rich: highest avg sites/entity.
                cfg.n_aggregators = 50;
                cfg.agg_reach_head = 0.85;
                cfg.agg_reach_decay = 0.4;
                cfg.n_regional = 6_000;
                cfg.regional_frac_head = 0.8;
                cfg.n_niche = 22_000;
                cfg.niche_mean_entities = 11.0;
            }
            Domain::RetailShopping => {
                cfg.agg_reach_head = 0.6;
                cfg.n_regional = 7_000;
                cfg.n_niche = 26_000;
                cfg.niche_mean_entities = 7.0;
            }
            Domain::HomeGarden => {
                // The most fragmented domain in Table 2 (4507 phone
                // components): weak aggregators, thin floor.
                cfg.agg_reach_head = 0.55;
                cfg.agg_reach_decay = 0.7;
                cfg.min_inclusion = 0.3;
                cfg.n_regional = 5_000;
                cfg.n_niche = 26_000;
                cfg.niche_mean_entities = 5.0;
            }
            Domain::Books => {
                // Books: no regions; amazon-like aggregators plus a wide
                // mid-tail of shops/blogs. Avg ~8 sites/entity (Table 2).
                cfg.n_aggregators = 20;
                cfg.agg_reach_head = 0.9;
                cfg.agg_reach_decay = 0.9;
                cfg.n_regional = 5_000;
                cfg.regional_frac_head = 0.022;
                cfg.regional_alpha = 0.4;
                cfg.n_niche = 18_000;
                cfg.niche_mean_entities = 4.0;
                cfg.popularity_tilt = 1.5;
                cfg.min_inclusion = 0.35;
                cfg.id_exposure_agg = 0.98;
                cfg.id_exposure_tail = 0.92;
            }
        }
        cfg
    }

    /// Total number of sites in the model.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.n_aggregators + self.n_regional + self.n_niche
    }

    /// Scale the regional/niche site counts by `factor` (used to shrink
    /// benches and tests). Aggregator count is deliberately *not* scaled:
    /// the handful of head sites exists regardless of how many entities we
    /// model, and removing them would distort the head of every coverage
    /// curve.
    #[must_use]
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.n_regional = ((self.n_regional as f64 * factor).round() as usize).max(8);
        self.n_niche = ((self.n_niche as f64 * factor).round() as usize).max(8);
        self
    }
}

/// One (site, entity) mention with its exposed attributes.
///
/// Stored per-site in CSR order, so the site id is implicit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mention {
    /// The mentioned entity.
    pub entity: EntityId,
    /// Attributes the site exposes for this entity.
    pub attrs: AttrMask,
    /// Number of user reviews of this entity hosted by this site.
    pub reviews: u16,
}

/// The generated web: the site population plus the site→mention relation.
#[derive(Debug, Clone)]
pub struct Web {
    /// The domain this web was generated for.
    pub domain: Domain,
    /// All sites.
    pub sites: Vec<Site>,
    /// Mentions of all sites, concatenated in site-id order.
    mentions: Vec<Mention>,
    /// CSR offsets: mentions of site `s` are
    /// `mentions[offsets[s] .. offsets[s+1]]`.
    offsets: Vec<u32>,
    /// Reviews per page used at generation time (for page counting).
    reviews_per_page: usize,
    /// Number of entities in the catalog this web was generated against.
    n_entities: usize,
    /// Per-site content revision counters — the epoch / churn model.
    ///
    /// Revision 0 (the state `generate` produces) renders exactly the
    /// bytes this crate has always rendered; bumping a site's revision
    /// re-keys the per-page RNG for that site's pages only, so the page
    /// *plan* (counts, ids, shard cuts) is untouched while the rendered
    /// content changes. That containment is what makes the dirty slice
    /// after a mutation exactly the shards whose sites were bumped.
    revisions: Vec<u32>,
}

impl Web {
    /// Generate a web for `catalog` under `config`, deterministically from
    /// `seed`.
    ///
    /// # Panics
    /// Panics when the config has no sites or probabilities are outside
    /// `[0, 1]`.
    #[must_use]
    pub fn generate(catalog: &EntityCatalog, config: &WebConfig, seed: Seed) -> Self {
        assert!(config.n_sites() > 0, "web must have sites");
        for &p in &[
            config.agg_reach_head,
            config.min_inclusion,
            config.id_exposure_agg,
            config.id_exposure_tail,
            config.homepage_exposure_agg,
            config.homepage_exposure_tail,
            config.review_site_frac_agg,
            config.review_site_frac_tail,
        ] {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        assert!(config.reviews_per_page > 0, "reviews_per_page must be > 0");

        let mut rng = Xoshiro256::from_seed(seed.derive("web").derive(catalog.domain.slug()));
        let n = catalog.len();
        let n_regions = catalog.n_regions;
        let domain = catalog.domain;
        let id_attr = if domain == Domain::Books {
            Attribute::Isbn
        } else {
            Attribute::Phone
        };

        // Precompute per-entity inclusion multipliers q(e) and popularity
        // percentile weights.
        let mut inclusion = Vec::with_capacity(n);
        let mut pop_frac = Vec::with_capacity(n);
        for i in 0..n {
            let rank_frac = if n > 1 { i as f64 / (n - 1) as f64 } else { 0.0 };
            let head_frac = 1.0 - rank_frac;
            pop_frac.push(head_frac);
            inclusion.push(
                config.min_inclusion
                    + (1.0 - config.min_inclusion) * head_frac.powf(config.popularity_tilt),
            );
        }

        // Region membership lists and per-region popularity alias tables
        // (for niche-site sampling).
        let mut region_members: Vec<Vec<EntityId>> = vec![Vec::new(); n_regions];
        for e in &catalog.entities {
            region_members[e.region.index()].push(e.id);
        }
        let region_tables: Vec<Option<AliasTable>> = region_members
            .iter()
            .map(|members| {
                if members.is_empty() {
                    None
                } else {
                    let weights: Vec<f64> = members
                        .iter()
                        .map(|id| (id.index() as f64 + 1.0).powf(-0.9))
                        .collect();
                    Some(AliasTable::new(&weights))
                }
            })
            .collect();

        let mut sites = Vec::with_capacity(config.n_sites());
        let mut mentions: Vec<Mention> = Vec::new();
        let mut offsets: Vec<u32> = Vec::with_capacity(config.n_sites() + 1);
        offsets.push(0);

        let emit = |rng: &mut Xoshiro256,
                        mentions: &mut Vec<Mention>,
                        site_kind: SiteKind,
                        carries_reviews: bool,
                        review_scale: f64,
                        entity: EntityId| {
            let is_agg = site_kind == SiteKind::Aggregator;
            let id_exposure = if is_agg {
                config.id_exposure_agg
            } else {
                config.id_exposure_tail
            };
            let hp_exposure = if is_agg {
                config.homepage_exposure_agg
            } else {
                config.homepage_exposure_tail
            };
            let mut attrs = AttrMask::EMPTY;
            if rng.bool_with(id_exposure) {
                attrs.insert(id_attr);
            }
            if catalog.entity(entity).homepage.is_some() && rng.bool_with(hp_exposure) {
                attrs.insert(Attribute::Homepage);
            }
            let mut reviews = 0u16;
            if carries_reviews && domain.has_attribute(Attribute::Review) {
                let floor = if is_agg { 0.0 } else { config.review_floor };
                let lambda = config.review_intensity
                    * review_scale
                    * (pop_frac[entity.index()].powf(config.review_pop_exponent) + floor);
                let c = rng.poisson(lambda).min(u64::from(u16::MAX)) as u16;
                if c > 0 {
                    attrs.insert(Attribute::Review);
                    // Review pages carry the business's contact details, so
                    // a review mention always exposes the identifying
                    // attribute too — this is what lets the paper's
                    // pipeline (phone match + review classifier) find them.
                    attrs.insert(id_attr);
                    reviews = c;
                }
            }
            mentions.push(Mention {
                entity,
                attrs,
                reviews,
            });
        };

        // --- Aggregators -------------------------------------------------
        for r in 0..config.n_aggregators {
            let id = SiteId::new(sites.len() as u32);
            let reach = config.agg_reach_head * (1.0 + r as f64).powf(-config.agg_reach_decay);
            let carries_reviews = rng.bool_with(config.review_site_frac_agg);
            let mut site_rng =
                Xoshiro256::from_seed(seed.derive("agg").derive_u64(id.raw().into()));
            for (i, &incl) in inclusion.iter().enumerate() {
                if site_rng.bool_with(reach * incl) {
                    emit(
                        &mut site_rng,
                        &mut mentions,
                        SiteKind::Aggregator,
                        carries_reviews,
                        // Aggregators accumulate review volume well beyond
                        // their listing reach (Fig 4(b): the head holds
                        // most review pages).
                        reach * 10.0,
                        EntityId::new(i as u32),
                    );
                }
            }
            offsets.push(mentions.len() as u32);
            sites.push(Site {
                id,
                host: format!("{}-central-{r}.example.org", domain.slug()),
                kind: SiteKind::Aggregator,
                region: None,
                reach,
                carries_reviews,
            });
        }

        // --- Regional directories ---------------------------------------
        for i in 0..config.n_regional {
            let id = SiteId::new(sites.len() as u32);
            let region = RegionId::new((i % n_regions) as u32);
            let within_rank = i / n_regions;
            let frac = config.regional_frac_head
                * (1.0 + within_rank as f64).powf(-config.regional_alpha);
            let carries_reviews = rng.bool_with(config.review_site_frac_tail);
            let mut site_rng =
                Xoshiro256::from_seed(seed.derive("regional").derive_u64(id.raw().into()));
            for &e in &region_members[region.index()] {
                if site_rng.bool_with(frac * inclusion[e.index()]) {
                    emit(
                        &mut site_rng,
                        &mut mentions,
                        SiteKind::Regional,
                        carries_reviews,
                        frac,
                        e,
                    );
                }
            }
            offsets.push(mentions.len() as u32);
            sites.push(Site {
                id,
                host: format!("metro{}-{}-guide-{i}.example.net", region.raw(), domain.slug()),
                kind: SiteKind::Regional,
                region: Some(region),
                reach: frac,
                carries_reviews,
            });
        }

        // --- Niche sites ---------------------------------------------------
        for i in 0..config.n_niche {
            let id = SiteId::new(sites.len() as u32);
            let region = RegionId::new(rng.u64_below(n_regions as u64) as u32);
            let carries_reviews = rng.bool_with(config.review_site_frac_tail);
            let mut site_rng =
                Xoshiro256::from_seed(seed.derive("niche").derive_u64(id.raw().into()));
            let want = 1 + site_rng.geometric(
                1.0 / config.niche_mean_entities.max(1.0),
            ) as usize;
            if let Some(table) = &region_tables[region.index()] {
                let members = &region_members[region.index()];
                let mut chosen = webstruct_util::FxHashSet::default();
                let mut attempts = 0;
                while chosen.len() < want.min(members.len()) && attempts < want * 8 {
                    attempts += 1;
                    let e = members[table.sample(&mut site_rng)];
                    if chosen.insert(e) {
                        emit(
                            &mut site_rng,
                            &mut mentions,
                            SiteKind::Niche,
                            carries_reviews,
                            // Niche review blogs are prolific per entity.
                            1.0,
                            e,
                        );
                    }
                }
            }
            offsets.push(mentions.len() as u32);
            sites.push(Site {
                id,
                host: format!("{}-notes-{i}.example.com", domain.slug()),
                kind: SiteKind::Niche,
                region: Some(region),
                reach: config.niche_mean_entities,
                carries_reviews,
            });
        }

        let n_sites = sites.len();
        Web {
            domain,
            sites,
            mentions,
            offsets,
            reviews_per_page: config.reviews_per_page,
            n_entities: n,
            revisions: vec![0; n_sites],
        }
    }

    /// Current content revision of site `site_idx` (0 = as generated).
    ///
    /// # Panics
    /// Panics when `site_idx` is out of range.
    #[must_use]
    pub fn revision(&self, site_idx: usize) -> u32 {
        self.revisions[site_idx]
    }

    /// All per-site revisions, in site order.
    #[must_use]
    pub fn revisions(&self) -> &[u32] {
        &self.revisions
    }

    /// Bump site `site_idx` to its next content revision: its pages render
    /// different bytes, every other site's pages are untouched, and the
    /// page plan (counts, ids, shard cuts) is unchanged.
    ///
    /// # Panics
    /// Panics when `site_idx` is out of range.
    pub fn bump_revision(&mut self, site_idx: usize) {
        self.revisions[site_idx] += 1;
    }

    /// Number of sites.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        self.sites.len()
    }

    /// Number of entities in the catalog this web was generated against.
    #[must_use]
    pub fn n_entities(&self) -> usize {
        self.n_entities
    }

    /// Total number of (site, entity) mentions.
    #[must_use]
    pub fn n_mentions(&self) -> usize {
        self.mentions.len()
    }

    /// Reviews rendered per review page.
    #[must_use]
    pub fn reviews_per_page(&self) -> usize {
        self.reviews_per_page
    }

    /// Mentions of one site.
    ///
    /// # Panics
    /// Panics when the site id is out of range.
    #[must_use]
    pub fn mentions_of(&self, site: SiteId) -> &[Mention] {
        let s = site.index();
        let lo = self.offsets[s] as usize;
        let hi = self.offsets[s + 1] as usize;
        &self.mentions[lo..hi]
    }

    /// Iterate over all (site, mention) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &Mention)> {
        self.sites
            .iter()
            .flat_map(move |site| self.mentions_of(site.id).iter().map(move |m| (site.id, m)))
    }

    /// Per-site entity lists restricted to mentions exposing `attr`
    /// (for `Review`, mentions with at least one review). This is the
    /// ground-truth occurrence table the oracle analyses consume.
    #[must_use]
    pub fn occurrence_lists(&self, attr: Attribute) -> Vec<Vec<EntityId>> {
        self.sites
            .iter()
            .map(|site| {
                let mut list: Vec<EntityId> = self
                    .mentions_of(site.id)
                    .iter()
                    .filter(|m| m.attrs.contains(attr))
                    .map(|m| m.entity)
                    .collect();
                // Sorted by entity id so oracle and extracted tables compare
                // directly.
                list.sort_unstable();
                list
            })
            .collect()
    }

    /// Per-site `(entity, review_page_count)` lists, sorted by entity id:
    /// the paper's Figure 4(b) counts *pages* containing a review.
    #[must_use]
    pub fn review_page_lists(&self) -> Vec<Vec<(EntityId, u32)>> {
        self.sites
            .iter()
            .map(|site| {
                let mut list: Vec<(EntityId, u32)> = self
                    .mentions_of(site.id)
                    .iter()
                    .filter(|m| m.reviews > 0)
                    .map(|m| {
                        let pages = (u32::from(m.reviews))
                            .div_ceil(self.reviews_per_page as u32);
                        (m.entity, pages)
                    })
                    .collect();
                list.sort_unstable();
                list
            })
            .collect()
    }

    /// Average number of sites mentioning an entity under `attr`,
    /// averaged over entities that appear at least once (Table 2's
    /// "Avg. #sites per entity").
    #[must_use]
    pub fn avg_sites_per_entity(&self, attr: Attribute) -> f64 {
        let mut counts = vec![0u32; self.n_entities];
        for list in self.occurrence_lists(attr) {
            for e in list {
                counts[e.index()] += 1;
            }
        }
        let present: Vec<u32> = counts.into_iter().filter(|&c| c > 0).collect();
        if present.is_empty() {
            return 0.0;
        }
        f64::from(present.iter().sum::<u32>()) / present.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entity::CatalogConfig;

    fn small_web(domain: Domain) -> (EntityCatalog, Web) {
        let catalog = EntityCatalog::generate(&CatalogConfig::new(domain, 2_000), Seed(11));
        let config = WebConfig::preset(domain).scaled(0.05);
        let web = Web::generate(&catalog, &config, Seed(11));
        (catalog, web)
    }

    #[test]
    fn generation_is_deterministic() {
        let (_, a) = small_web(Domain::Restaurants);
        let (_, b) = small_web(Domain::Restaurants);
        assert_eq!(a.n_mentions(), b.n_mentions());
        assert_eq!(a.mentions_of(SiteId::new(0)), b.mentions_of(SiteId::new(0)));
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let (_, web) = small_web(Domain::Banks);
        let total: usize = web
            .sites
            .iter()
            .map(|s| web.mentions_of(s.id).len())
            .sum();
        assert_eq!(total, web.n_mentions());
        assert_eq!(web.iter().count(), web.n_mentions());
    }

    #[test]
    fn aggregators_dwarf_niche_sites() {
        let (_, web) = small_web(Domain::Restaurants);
        let agg_avg: f64 = web
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Aggregator)
            .map(|s| web.mentions_of(s.id).len() as f64)
            .sum::<f64>()
            / web.sites.iter().filter(|s| s.kind == SiteKind::Aggregator).count() as f64;
        let niche_avg: f64 = web
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Niche)
            .map(|s| web.mentions_of(s.id).len() as f64)
            .sum::<f64>()
            / web.sites.iter().filter(|s| s.kind == SiteKind::Niche).count() as f64;
        assert!(
            agg_avg > 20.0 * niche_avg,
            "aggregator avg {agg_avg}, niche avg {niche_avg}"
        );
    }

    #[test]
    fn top_aggregator_covers_most_popular_entities() {
        let (_, web) = small_web(Domain::Restaurants);
        let top = web.mentions_of(SiteId::new(0));
        let head_hits = top.iter().filter(|m| m.entity.index() < 200).count();
        // Top aggregator reach 0.75 on head entities (inclusion ~1).
        assert!(
            (100..=200).contains(&head_hits),
            "top aggregator covers {head_hits}/200 head entities"
        );
    }

    #[test]
    fn regional_sites_stay_in_region() {
        let (catalog, web) = small_web(Domain::Schools);
        for site in web.sites.iter().filter(|s| s.kind == SiteKind::Regional) {
            let region = site.region.expect("regional sites have a region");
            for m in web.mentions_of(site.id) {
                assert_eq!(catalog.entity(m.entity).region, region);
            }
        }
    }

    #[test]
    fn niche_sites_have_no_duplicate_entities() {
        let (_, web) = small_web(Domain::Restaurants);
        for site in web.sites.iter().filter(|s| s.kind == SiteKind::Niche) {
            let ms = web.mentions_of(site.id);
            let mut ids: Vec<u32> = ms.iter().map(|m| m.entity.raw()).collect();
            ids.sort_unstable();
            let before = ids.len();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicate entity on {}", site.host);
        }
    }

    #[test]
    fn occurrence_lists_respect_attribute_masks() {
        let (_, web) = small_web(Domain::Restaurants);
        let phones = web.occurrence_lists(Attribute::Phone);
        let homepages = web.occurrence_lists(Attribute::Homepage);
        let total_phone: usize = phones.iter().map(Vec::len).sum();
        let total_hp: usize = homepages.iter().map(Vec::len).sum();
        assert!(total_phone > 0);
        assert!(total_hp > 0);
        assert!(
            total_phone > total_hp,
            "phones ({total_phone}) should be more exposed than homepages ({total_hp})"
        );
        // ISBNs never appear in a restaurant web.
        let isbns = web.occurrence_lists(Attribute::Isbn);
        assert_eq!(isbns.iter().map(Vec::len).sum::<usize>(), 0);
    }

    #[test]
    fn books_expose_isbn_not_phone() {
        let (_, web) = small_web(Domain::Books);
        let isbn_total: usize = web.occurrence_lists(Attribute::Isbn).iter().map(Vec::len).sum();
        let phone_total: usize = web
            .occurrence_lists(Attribute::Phone)
            .iter()
            .map(Vec::len)
            .sum();
        assert!(isbn_total > 0);
        assert_eq!(phone_total, 0);
        // No reviews outside the restaurants domain.
        let review_pages: u32 = web
            .review_page_lists()
            .iter()
            .flat_map(|l| l.iter().map(|&(_, p)| p))
            .sum();
        assert_eq!(review_pages, 0);
    }

    #[test]
    fn restaurants_have_reviews_with_head_skew() {
        let (_, web) = small_web(Domain::Restaurants);
        let mut head_reviews = 0u64;
        let mut tail_reviews = 0u64;
        for (_, m) in web.iter() {
            if m.entity.index() < 200 {
                head_reviews += u64::from(m.reviews);
            } else if m.entity.index() >= 1800 {
                tail_reviews += u64::from(m.reviews);
            }
        }
        assert!(head_reviews > 0, "head entities must accumulate reviews");
        assert!(
            head_reviews > 10 * tail_reviews.max(1),
            "reviews must concentrate on the head: head {head_reviews}, tail {tail_reviews}"
        );
    }

    #[test]
    fn review_pages_follow_reviews_per_page() {
        let (_, web) = small_web(Domain::Restaurants);
        let rpp = web.reviews_per_page() as u32;
        let lists = web.review_page_lists();
        for (site, list) in web.sites.iter().zip(&lists) {
            for &(e, pages) in list {
                let m = web
                    .mentions_of(site.id)
                    .iter()
                    .find(|m| m.entity == e)
                    .expect("mention exists");
                assert_eq!(pages, u32::from(m.reviews).div_ceil(rpp));
                assert!(pages >= 1);
            }
        }
    }

    #[test]
    fn avg_sites_per_entity_is_positive_and_sane() {
        let (_, web) = small_web(Domain::Restaurants);
        let avg = web.avg_sites_per_entity(Attribute::Phone);
        assert!(avg > 1.0, "avg {avg}");
        assert!(avg < 500.0, "avg {avg}");
    }

    #[test]
    fn scaled_config_shrinks_tail_but_keeps_aggregators() {
        let cfg = WebConfig::preset(Domain::Banks);
        let half = cfg.clone().scaled(0.5);
        assert_eq!(half.n_regional, cfg.n_regional / 2);
        assert_eq!(half.n_aggregators, cfg.n_aggregators);
        let tiny = cfg.clone().scaled(1e-9);
        assert_eq!(tiny.n_aggregators, cfg.n_aggregators);
        assert_eq!(tiny.n_regional, 8);
        assert_eq!(tiny.n_niche, 8);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn generate_rejects_bad_probabilities() {
        let catalog = EntityCatalog::generate(&CatalogConfig::new(Domain::Banks, 10), Seed(1));
        let mut cfg = WebConfig::preset(Domain::Banks).scaled(0.01);
        cfg.min_inclusion = 1.5;
        let _ = Web::generate(&catalog, &cfg, Seed(1));
    }
}
