//! Entity catalogs: the stand-in for the Yahoo! business-listings and ISBN
//! databases.
//!
//! A catalog is the *reference database* of the study — the comprehensive
//! entity list whose spread over the synthetic web we measure. Entities are
//! generated in popularity order: `EntityId(0)` is the most popular entity
//! in the domain (rank 0), mirroring the rank-based analyses in the paper.

use crate::domain::Domain;
use crate::isbn::Isbn;
use crate::phone::PhoneNumber;
use webstruct_util::hash::{fx_map_with_capacity, fx_set_with_capacity, FxHashMap};
use webstruct_util::ids::{EntityId, RegionId};
use webstruct_util::rng::{Seed, Xoshiro256};

/// One structured entity (a restaurant, a bank branch, a book, ...).
#[derive(Debug, Clone)]
pub struct Entity {
    /// Dense id; doubles as the popularity rank (0 = head).
    pub id: EntityId,
    /// Display name, unique within the catalog.
    pub name: String,
    /// Geographic region (metro area). Always `RegionId(0)` for books.
    pub region: RegionId,
    /// Identifying phone number (local businesses only).
    pub phone: Option<PhoneNumber>,
    /// Homepage host, e.g. `golden-harbor-bistro.com` (when the business
    /// has a website at all).
    pub homepage: Option<String>,
    /// ISBN (books only).
    pub isbn: Option<Isbn>,
}

/// Configuration for catalog generation.
#[derive(Debug, Clone)]
pub struct CatalogConfig {
    /// The domain to generate.
    pub domain: Domain,
    /// Number of entities.
    pub n_entities: usize,
    /// Number of geographic regions (ignored for books).
    pub n_regions: usize,
    /// Probability that the most popular entity has its own homepage.
    pub homepage_prob_head: f64,
    /// Probability that the least popular entity has its own homepage.
    pub homepage_prob_tail: f64,
}

impl CatalogConfig {
    /// A reasonable default for a domain at the given scale.
    #[must_use]
    pub fn new(domain: Domain, n_entities: usize) -> Self {
        CatalogConfig {
            domain,
            n_entities,
            n_regions: if domain.is_local_business() { 64 } else { 1 },
            homepage_prob_head: 0.95,
            homepage_prob_tail: 0.35,
        }
    }
}

/// The reference database of entities for one domain, with identifier
/// indexes used both by the generator (uniqueness) and by the extraction
/// pipeline (matching page text back to entities).
#[derive(Debug, Clone)]
pub struct EntityCatalog {
    /// The domain.
    pub domain: Domain,
    /// Entities, indexed by `EntityId::index()`; position = popularity rank.
    pub entities: Vec<Entity>,
    /// Number of regions used.
    pub n_regions: usize,
    phone_index: FxHashMap<u64, EntityId>,
    isbn_index: FxHashMap<u32, EntityId>,
    homepage_index: FxHashMap<String, EntityId>,
}

impl EntityCatalog {
    /// Generate a catalog deterministically from a seed.
    ///
    /// # Panics
    /// Panics if `n_entities == 0` or `n_regions == 0`.
    #[must_use]
    pub fn generate(config: &CatalogConfig, seed: Seed) -> Self {
        assert!(config.n_entities > 0, "catalog must have entities");
        assert!(config.n_regions > 0, "catalog must have >= 1 region");
        let mut rng = Xoshiro256::from_seed(seed.derive("catalog").derive(config.domain.slug()));
        let n = config.n_entities;
        let mut entities = Vec::with_capacity(n);
        // Books fill the ISBN pair, every other domain the phone pair; the
        // unused pair stays empty rather than sized for `n`.
        let (n_phones, n_isbns) = if config.domain == Domain::Books {
            (0, n)
        } else {
            (n, 0)
        };
        let mut phone_index = fx_map_with_capacity(n_phones);
        let mut isbn_index = fx_map_with_capacity(n_isbns);
        let mut homepage_index = fx_map_with_capacity(n);
        let mut used_phones = fx_set_with_capacity::<u64>(n_phones);
        let mut used_isbns = fx_set_with_capacity::<u32>(n_isbns);
        let mut namer = NameGenerator::new(config.domain);

        for i in 0..n {
            let id = EntityId::new(i as u32);
            let name = namer.next_name(&mut rng);
            let region = RegionId::new(rng.u64_below(config.n_regions as u64) as u32);
            let (phone, isbn) = if config.domain == Domain::Books {
                let isbn = loop {
                    let core = rng.u64_below(1_000_000_000) as u32;
                    if used_isbns.insert(core) {
                        break Isbn::new(u64::from(core)).expect("core < 10^9");
                    }
                };
                isbn_index.insert(isbn.core(), id);
                (None, Some(isbn))
            } else {
                let phone = loop {
                    let p = PhoneNumber::random(&mut rng);
                    if used_phones.insert(p.digits()) {
                        break p;
                    }
                };
                phone_index.insert(phone.digits(), id);
                (Some(phone), None)
            };
            // Homepage presence decays linearly in popularity rank, between
            // the configured head and tail probabilities. Books get
            // publisher pages rarely; treat the same knobs uniformly.
            let rank_frac = if n > 1 { i as f64 / (n - 1) as f64 } else { 0.0 };
            let p_homepage = config.homepage_prob_head
                + (config.homepage_prob_tail - config.homepage_prob_head) * rank_frac;
            let homepage = if rng.bool_with(p_homepage) {
                let host = namer.homepage_host(&name, i);
                homepage_index.insert(host.clone(), id);
                Some(host)
            } else {
                None
            };
            entities.push(Entity {
                id,
                name,
                region,
                phone,
                homepage,
                isbn,
            });
        }
        EntityCatalog {
            domain: config.domain,
            entities,
            n_regions: config.n_regions,
            phone_index,
            isbn_index,
            homepage_index,
        }
    }

    /// Number of entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when the catalog is empty (never after generation).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Entity by id.
    #[must_use]
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Look up an entity by canonical phone digits.
    #[must_use]
    pub fn by_phone(&self, digits: u64) -> Option<EntityId> {
        self.phone_index.get(&digits).copied()
    }

    /// Look up an entity by ISBN core.
    #[must_use]
    pub fn by_isbn(&self, core: u32) -> Option<EntityId> {
        self.isbn_index.get(&core).copied()
    }

    /// Look up an entity by homepage host.
    #[must_use]
    pub fn by_homepage(&self, host: &str) -> Option<EntityId> {
        self.homepage_index.get(host).copied()
    }

    /// Entities that have a homepage.
    pub fn with_homepage(&self) -> impl Iterator<Item = &Entity> {
        self.entities.iter().filter(|e| e.homepage.is_some())
    }

    /// Popularity weight of entity `id` under rank-Zipf with exponent
    /// `alpha` (unnormalised).
    #[must_use]
    pub fn popularity_weight(&self, id: EntityId, alpha: f64) -> f64 {
        (id.index() as f64 + 1.0).powf(-alpha)
    }
}

/// Domain-aware unique name generation.
struct NameGenerator {
    domain: Domain,
    used: webstruct_util::FxHashSet<String>,
}

const ADJECTIVES: &[&str] = &[
    "Golden", "Silver", "Harbor", "Sunset", "Lucky", "Royal", "Grand", "Blue", "Green", "Copper",
    "Iron", "Maple", "Cedar", "Summit", "Valley", "River", "Lake", "Prairie", "Coastal", "Urban",
    "Vintage", "Modern", "Classic", "Northern", "Southern", "Eastern", "Western", "Central",
    "Happy", "Bright", "Crimson", "Amber", "Ivory", "Jade", "Pearl", "Ruby", "Velvet", "Stone",
];

const NOUNS: &[&str] = &[
    "Dragon", "Phoenix", "Garden", "Star", "Crown", "Anchor", "Compass", "Lantern", "Bridge",
    "Meadow", "Orchard", "Harvest", "Spring", "Grove", "Hollow", "Ridge", "Point", "Bay",
    "Field", "Creek", "Falls", "Bluff", "Glen", "Haven", "Mill", "Forge", "Crossing", "Corner",
];

impl NameGenerator {
    fn new(domain: Domain) -> Self {
        NameGenerator {
            domain,
            used: webstruct_util::FxHashSet::default(),
        }
    }

    fn suffix(&self, rng: &mut Xoshiro256) -> &'static str {
        let options: &[&str] = match self.domain {
            Domain::Restaurants => &["Bistro", "Cafe", "Grill", "Kitchen", "Diner", "Trattoria"],
            Domain::Automotive => &["Auto Repair", "Motors", "Tire & Lube", "Auto Body"],
            Domain::Banks => &["Bank", "Credit Union", "Savings Bank", "Trust"],
            Domain::Libraries => &["Public Library", "Branch Library", "Community Library"],
            Domain::Schools => &["Elementary School", "High School", "Academy", "Middle School"],
            Domain::HotelsLodging => &["Hotel", "Inn", "Lodge", "Suites", "Motel"],
            Domain::RetailShopping => &["Outfitters", "Emporium", "Boutique", "Market", "Shop"],
            Domain::HomeGarden => &["Nursery", "Hardware", "Home Center", "Landscaping"],
            Domain::Books => &[
                "A Novel",
                "Stories",
                "A Memoir",
                "Field Guide",
                "An Introduction",
                "Collected Essays",
            ],
        };
        options[rng.usize_below(options.len())]
    }

    fn next_name(&mut self, rng: &mut Xoshiro256) -> String {
        loop {
            let adj = ADJECTIVES[rng.usize_below(ADJECTIVES.len())];
            let noun = NOUNS[rng.usize_below(NOUNS.len())];
            let suffix = self.suffix(rng);
            let base = if self.domain == Domain::Books {
                format!("The {adj} {noun}: {suffix}")
            } else {
                format!("{adj} {noun} {suffix}")
            };
            let candidate = if self.used.contains(&base) {
                // Disambiguate collisions with a short numeric tag, as real
                // chains do ("Golden Dragon Cafe No. 27").
                let mut k = 2u32;
                loop {
                    let c = format!("{base} No. {k}");
                    if !self.used.contains(&c) {
                        break c;
                    }
                    k += 1;
                }
            } else {
                base
            };
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
    }

    /// Slugified homepage host: unique because entity index is embedded
    /// when the slug alone is ambiguous.
    fn homepage_host(&self, name: &str, index: usize) -> String {
        let mut slug = String::with_capacity(name.len());
        for c in name.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if (c == ' ' || c == '-') && !slug.ends_with('-') {
                slug.push('-');
            }
        }
        let slug = slug.trim_matches('-');
        format!("{slug}-{index}.example.com")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_catalog(domain: Domain) -> EntityCatalog {
        EntityCatalog::generate(&CatalogConfig::new(domain, 500), Seed(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_catalog(Domain::Restaurants);
        let b = small_catalog(Domain::Restaurants);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.entities.iter().zip(&b.entities) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.phone.map(PhoneNumber::digits), y.phone.map(PhoneNumber::digits));
            assert_eq!(x.homepage, y.homepage);
        }
    }

    #[test]
    fn different_domains_get_different_catalogs() {
        let a = small_catalog(Domain::Restaurants);
        let b = small_catalog(Domain::Banks);
        assert_ne!(a.entities[0].name, b.entities[0].name);
    }

    #[test]
    fn local_business_catalog_shape() {
        let c = small_catalog(Domain::Restaurants);
        assert_eq!(c.len(), 500);
        assert!(!c.is_empty());
        for e in &c.entities {
            assert!(e.phone.is_some(), "local businesses must have phones");
            assert!(e.isbn.is_none());
            assert!(e.region.index() < c.n_regions);
        }
        // Phones are unique.
        let mut phones: Vec<u64> = c.entities.iter().map(|e| e.phone.unwrap().digits()).collect();
        phones.sort_unstable();
        phones.dedup();
        assert_eq!(phones.len(), 500);
    }

    #[test]
    fn books_catalog_shape() {
        let c = small_catalog(Domain::Books);
        for e in &c.entities {
            assert!(e.isbn.is_some(), "books must have ISBNs");
            assert!(e.phone.is_none());
            assert_eq!(e.region, RegionId::new(0), "books are not regional");
        }
        let mut isbns: Vec<u32> = c.entities.iter().map(|e| e.isbn.unwrap().core()).collect();
        isbns.sort_unstable();
        isbns.dedup();
        assert_eq!(isbns.len(), 500);
    }

    #[test]
    fn names_are_unique() {
        let c = small_catalog(Domain::HotelsLodging);
        let mut names: Vec<&str> = c.entities.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn indexes_resolve_back_to_entities() {
        let c = small_catalog(Domain::Schools);
        for e in &c.entities {
            assert_eq!(c.by_phone(e.phone.unwrap().digits()), Some(e.id));
            if let Some(h) = &e.homepage {
                assert_eq!(c.by_homepage(h), Some(e.id));
            }
        }
        assert_eq!(c.by_phone(1), None);
        assert_eq!(c.by_isbn(7), None);
        assert_eq!(c.by_homepage("unknown.example.com"), None);

        let books = small_catalog(Domain::Books);
        for e in &books.entities {
            assert_eq!(books.by_isbn(e.isbn.unwrap().core()), Some(e.id));
        }
    }

    #[test]
    fn homepage_presence_decays_with_rank() {
        let c = EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 4000), Seed(7));
        let head: Vec<_> = c.entities[..1000].iter().collect();
        let tail: Vec<_> = c.entities[3000..].iter().collect();
        let head_frac =
            head.iter().filter(|e| e.homepage.is_some()).count() as f64 / head.len() as f64;
        let tail_frac =
            tail.iter().filter(|e| e.homepage.is_some()).count() as f64 / tail.len() as f64;
        assert!(
            head_frac > tail_frac + 0.2,
            "head {head_frac} vs tail {tail_frac}"
        );
    }

    #[test]
    fn homepage_hosts_are_wellformed() {
        let c = small_catalog(Domain::RetailShopping);
        for e in c.with_homepage() {
            let h = e.homepage.as_ref().unwrap();
            assert!(h.ends_with(".example.com"), "{h}");
            assert!(!h.starts_with('-'));
            assert!(
                h.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '-' || ch == '.'),
                "{h}"
            );
        }
    }

    #[test]
    fn popularity_weight_is_rank_zipf() {
        let c = small_catalog(Domain::Banks);
        let w0 = c.popularity_weight(EntityId::new(0), 1.0);
        let w9 = c.popularity_weight(EntityId::new(9), 1.0);
        assert!((w0 - 1.0).abs() < 1e-12);
        assert!((w9 - 0.1).abs() < 1e-12);
        // alpha = 0 → uniform.
        assert_eq!(c.popularity_weight(EntityId::new(100), 0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "must have entities")]
    fn empty_catalog_rejected() {
        let _ = EntityCatalog::generate(&CatalogConfig::new(Domain::Banks, 0), Seed(1));
    }
}
