//! The nine study domains and their identifying attributes (paper Table 1).

/// A content domain from Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Domain {
    /// Books, identified by ISBN (1.4M entities in the paper).
    Books,
    /// Restaurants: phone, homepage, reviews.
    Restaurants,
    /// Automotive businesses: phone, homepage.
    Automotive,
    /// Banks: phone, homepage.
    Banks,
    /// Libraries: phone, homepage.
    Libraries,
    /// Schools: phone, homepage.
    Schools,
    /// Hotels & Lodging: phone, homepage.
    HotelsLodging,
    /// Retail & Shopping: phone, homepage.
    RetailShopping,
    /// Home & Garden: phone, homepage.
    HomeGarden,
}

impl Domain {
    /// All nine domains, in the paper's Table 1 order.
    pub const ALL: [Domain; 9] = [
        Domain::Books,
        Domain::Restaurants,
        Domain::Automotive,
        Domain::Banks,
        Domain::Libraries,
        Domain::Schools,
        Domain::HotelsLodging,
        Domain::RetailShopping,
        Domain::HomeGarden,
    ];

    /// The eight local-business domains (everything except Books), the
    /// domains plotted in Figures 1 and 2.
    pub const LOCAL: [Domain; 8] = [
        Domain::Restaurants,
        Domain::Automotive,
        Domain::Banks,
        Domain::Libraries,
        Domain::Schools,
        Domain::HotelsLodging,
        Domain::RetailShopping,
        Domain::HomeGarden,
    ];

    /// Short stable name (used in figure ids and file names).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Domain::Books => "books",
            Domain::Restaurants => "restaurants",
            Domain::Automotive => "automotive",
            Domain::Banks => "banks",
            Domain::Libraries => "libraries",
            Domain::Schools => "schools",
            Domain::HotelsLodging => "hotels",
            Domain::RetailShopping => "retail",
            Domain::HomeGarden => "homegarden",
        }
    }

    /// Display name as used in the paper's figures.
    #[must_use]
    pub fn display_name(self) -> &'static str {
        match self {
            Domain::Books => "Books",
            Domain::Restaurants => "Restaurants",
            Domain::Automotive => "Automotive",
            Domain::Banks => "Banks",
            Domain::Libraries => "Library",
            Domain::Schools => "Schools",
            Domain::HotelsLodging => "Hotels & Lodging",
            Domain::RetailShopping => "Retail & Shopping",
            Domain::HomeGarden => "Home & Garden",
        }
    }

    /// Whether this domain's entities are geographically local businesses.
    #[must_use]
    pub fn is_local_business(self) -> bool {
        !matches!(self, Domain::Books)
    }

    /// The identifying and studied attributes for this domain (Table 1).
    #[must_use]
    pub fn attributes(self) -> &'static [Attribute] {
        match self {
            Domain::Books => &[Attribute::Isbn],
            Domain::Restaurants => &[Attribute::Phone, Attribute::Homepage, Attribute::Review],
            _ => &[Attribute::Phone, Attribute::Homepage],
        }
    }

    /// Whether the domain carries a given attribute.
    #[must_use]
    pub fn has_attribute(self, attr: Attribute) -> bool {
        self.attributes().contains(&attr)
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.display_name())
    }
}

/// An entity attribute studied by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Attribute {
    /// US phone number — the near-unique identifier for local businesses.
    Phone,
    /// Homepage URL.
    Homepage,
    /// ISBN — the identifier for books.
    Isbn,
    /// User-generated review (an *open* attribute in the paper's taxonomy:
    /// set-valued, each additional value adds information).
    Review,
}

impl Attribute {
    /// Short stable name.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Attribute::Phone => "phone",
            Attribute::Homepage => "homepage",
            Attribute::Isbn => "isbn",
            Attribute::Review => "review",
        }
    }

    /// Whether the attribute is *closed* (single correct value) or *open*
    /// (set-valued), per Section 4 of the paper.
    #[must_use]
    pub fn is_closed(self) -> bool {
        !matches!(self, Attribute::Review)
    }

    /// Bit for [`AttrMask`].
    #[must_use]
    const fn bit(self) -> u8 {
        match self {
            Attribute::Phone => 1,
            Attribute::Homepage => 2,
            Attribute::Isbn => 4,
            Attribute::Review => 8,
        }
    }
}

impl std::fmt::Display for Attribute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// The identifying attribute of `domain`'s entities, whose occurrence
/// tables feed coverage, the graph and discovery: ISBNs for books, phone
/// numbers everywhere else (the paper's Table 2 convention).
#[must_use]
pub fn identifying_attribute(domain: Domain) -> Attribute {
    if domain == Domain::Books {
        Attribute::Isbn
    } else {
        Attribute::Phone
    }
}

/// Compact set of [`Attribute`]s exposed by one (site, entity) mention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct AttrMask(u8);

impl AttrMask {
    /// The empty mask.
    pub const EMPTY: AttrMask = AttrMask(0);

    /// Construct from a list of attributes.
    #[must_use]
    pub fn of(attrs: &[Attribute]) -> Self {
        let mut m = AttrMask::EMPTY;
        for &a in attrs {
            m.insert(a);
        }
        m
    }

    /// Add an attribute.
    pub fn insert(&mut self, attr: Attribute) {
        self.0 |= attr.bit();
    }

    /// Remove an attribute.
    pub fn remove(&mut self, attr: Attribute) {
        self.0 &= !attr.bit();
    }

    /// Membership test.
    #[must_use]
    pub fn contains(self, attr: Attribute) -> bool {
        self.0 & attr.bit() != 0
    }

    /// True when no attribute is set.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Union of two masks.
    #[must_use]
    pub fn union(self, other: AttrMask) -> AttrMask {
        AttrMask(self.0 | other.0)
    }

    /// Iterate over contained attributes.
    pub fn iter(self) -> impl Iterator<Item = Attribute> {
        [
            Attribute::Phone,
            Attribute::Homepage,
            Attribute::Isbn,
            Attribute::Review,
        ]
        .into_iter()
        .filter(move |a| self.contains(*a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_attribute_assignments() {
        assert_eq!(Domain::Books.attributes(), &[Attribute::Isbn]);
        assert_eq!(
            Domain::Restaurants.attributes(),
            &[Attribute::Phone, Attribute::Homepage, Attribute::Review]
        );
        for d in Domain::LOCAL {
            assert!(d.has_attribute(Attribute::Phone));
            assert!(d.has_attribute(Attribute::Homepage));
            assert!(d.is_local_business());
        }
        assert!(!Domain::Books.is_local_business());
        assert!(!Domain::Banks.has_attribute(Attribute::Review));
    }

    #[test]
    fn all_domains_have_unique_slugs() {
        let mut slugs: Vec<_> = Domain::ALL.iter().map(|d| d.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), Domain::ALL.len());
    }

    #[test]
    fn local_is_all_minus_books() {
        assert_eq!(Domain::LOCAL.len(), Domain::ALL.len() - 1);
        assert!(!Domain::LOCAL.contains(&Domain::Books));
    }

    #[test]
    fn openness_taxonomy() {
        assert!(Attribute::Phone.is_closed());
        assert!(Attribute::Homepage.is_closed());
        assert!(Attribute::Isbn.is_closed());
        assert!(!Attribute::Review.is_closed());
    }

    #[test]
    fn attr_mask_set_operations() {
        let mut m = AttrMask::EMPTY;
        assert!(m.is_empty());
        m.insert(Attribute::Phone);
        m.insert(Attribute::Review);
        assert!(m.contains(Attribute::Phone));
        assert!(m.contains(Attribute::Review));
        assert!(!m.contains(Attribute::Isbn));
        m.remove(Attribute::Phone);
        assert!(!m.contains(Attribute::Phone));
        let both = AttrMask::of(&[Attribute::Isbn]).union(m);
        assert!(both.contains(Attribute::Isbn));
        assert!(both.contains(Attribute::Review));
        let collected: Vec<_> = both.iter().collect();
        assert_eq!(collected, vec![Attribute::Isbn, Attribute::Review]);
    }

    #[test]
    fn display_matches_paper_labels() {
        assert_eq!(Domain::HotelsLodging.to_string(), "Hotels & Lodging");
        assert_eq!(Attribute::Phone.to_string(), "phone");
    }
}
