//! Blocking: cheap partitioning of records so the quadratic matcher only
//! compares plausible pairs.
//!
//! [`CandidateTable::new`] builds phone and (region, first token) blocks in
//! one pass into one table of pairs, each with the keys that proposed it and
//! its [`is_match`] verdict. Each [`Blocking`] is a view of the table.

use crate::cluster::is_match;
use crate::records::Record;
use crate::similarity::normalize;
use std::hash::Hash;
use webstruct_util::hash::FxHashMap;

/// A blocking strategy: maps each record to one or more block keys;
/// records sharing a key become candidate pairs. Each discriminant is the
/// bit set of the keys whose pairs the strategy's view holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Blocking {
    /// Exact phone digits (records without phones form no block).
    Phone = 1,
    /// Region + first normalised name token.
    RegionFirstToken = 2,
    /// Union of [`Blocking::Phone`] and [`Blocking::RegionFirstToken`] —
    /// the production choice: phone blocks catch renamed listings, name
    /// blocks catch records with missing phones.
    PhoneOrName = 3,
}

impl Blocking {
    /// Strategy name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Blocking::Phone => "phone",
            Blocking::RegionFirstToken => "region+token",
            Blocking::PhoneOrName => "phone|name",
        }
    }
}

/// One [`CandidateTable`] entry: a record pair, its keys and its verdict.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// The lower record index.
    pub a: u32,
    /// The higher record index.
    pub b: u32,
    /// Bit set of the keys that proposed the pair, as [`Blocking`]'s.
    keys: u8,
    /// Whether [`is_match`] accepts the pair.
    pub matched: bool,
}

/// Every pair some block key proposes over a record set, each scored
/// once. Entries are sorted by `(a, b)` with `a < b`, one per pair.
#[derive(Debug)]
pub struct CandidateTable<'a> {
    pub(crate) records: &'a [Record],
    entries: Vec<Candidate>,
}

impl<'a> CandidateTable<'a> {
    /// Block `records` (ids are indices) by phone and by (region, first
    /// normalised token) and score each pair once, into `dedup.pairs_scored`.
    #[must_use]
    pub fn new(records: &'a [Record]) -> Self {
        let mut blocks: FxHashMap<(Blocking, u64, String), Vec<u32>> = FxHashMap::default();
        for r in records {
            if let Some(p) = r.phone {
                blocks.entry((Blocking::Phone, p, String::new())).or_default().push(r.id);
            }
            let token = normalize(&r.name).split_whitespace().next().unwrap_or("").to_string();
            let key = (Blocking::RegionFirstToken, u64::from(r.region.raw()), token);
            blocks.entry(key).or_default().push(r.id);
        }
        let proposed = blocks.values().map(|b| b.len() * (b.len() - 1) / 2).sum();
        let mut entries = Vec::with_capacity(proposed);
        for ((strategy, ..), block) in &blocks {
            for (i, &x) in block.iter().enumerate() {
                for &y in &block[i + 1..] {
                    let (a, b, keys) = (x.min(y), x.max(y), *strategy as u8);
                    entries.push(Candidate { a, b, keys, matched: false });
                }
            }
        }
        entries.sort_unstable_by_key(|c| (c.a, c.b));
        entries.dedup_by(|later, kept| {
            let same = (later.a, later.b) == (kept.a, kept.b);
            if same {
                kept.keys |= later.keys;
            }
            same
        });
        for c in &mut entries {
            c.matched = is_match(&records[c.a as usize], &records[c.b as usize]);
        }
        webstruct_util::obs::metrics().add("dedup.pairs_scored", entries.len() as u64);
        CandidateTable { records, entries }
    }

    /// The entries `strategy` proposes, in `(a, b)` order.
    pub fn view(&self, strategy: Blocking) -> impl Iterator<Item = &Candidate> + '_ {
        self.entries.iter().filter(move |c| c.keys & strategy as u8 != 0)
    }
}

/// Blocking diagnostics: candidate volume vs. the quadratic baseline, and
/// pair-level recall of true duplicate pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockingReport {
    /// Strategy evaluated.
    pub strategy: Blocking,
    /// Candidate pairs produced.
    pub candidates: usize,
    /// All-pairs count `n(n-1)/2`.
    pub all_pairs: usize,
    /// Fraction of true duplicate pairs retained.
    pub pair_recall: f64,
}

/// Evaluate `strategy`'s view of `table` against ground truth.
#[must_use]
pub fn evaluate_blocking(table: &CandidateTable, strategy: Blocking) -> BlockingReport {
    let records = table.records;
    let n = records.len();
    let truth_of = |id: u32| records[id as usize].truth;
    let (mut candidates, mut retained) = (0, 0);
    for c in table.view(strategy) {
        candidates += 1;
        retained += u64::from(truth_of(c.a) == truth_of(c.b));
    }
    let (_, true_pairs) = groups_and_pairs(records.iter().map(|r| r.truth));
    BlockingReport {
        strategy,
        candidates,
        all_pairs: n * n.saturating_sub(1) / 2,
        pair_recall: ratio_or_one(retained, true_pairs),
    }
}

/// The number of distinct `keys`, and of pairs of items with equal keys.
pub(crate) fn groups_and_pairs<K: Hash + Eq>(keys: impl Iterator<Item = K>) -> (usize, u64) {
    let mut sizes: FxHashMap<K, u64> = FxHashMap::default();
    for k in keys {
        *sizes.entry(k).or_insert(0) += 1;
    }
    (sizes.len(), sizes.values().map(|&n| n * (n - 1) / 2).sum())
}

/// `num / den`, or 1 when there is nothing to find (`den == 0`).
pub(crate) fn ratio_or_one(num: u64, den: u64) -> f64 {
    if den == 0 {
        1.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{generate_records, VariantModel};
    use webstruct_corpus::domain::Domain;
    use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
    use webstruct_util::hash::FxHashSet;
    use webstruct_util::rng::Seed;

    fn records() -> Vec<Record> {
        let c = EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 150), Seed(101));
        generate_records(&c, 3, &VariantModel::default(), Seed(102))
    }

    #[test]
    fn phone_blocking_is_tight_but_lossy() {
        let rs = records();
        let report = evaluate_blocking(&CandidateTable::new(&rs), Blocking::Phone);
        assert!(report.candidates < report.all_pairs / 10);
        // Missing phones (30%) cost recall.
        assert!(report.pair_recall < 0.9, "recall {}", report.pair_recall);
        assert!(report.pair_recall > 0.2);
    }

    #[test]
    fn union_blocking_recovers_recall() {
        let rs = records();
        let table = CandidateTable::new(&rs);
        let phone = evaluate_blocking(&table, Blocking::Phone);
        let name = evaluate_blocking(&table, Blocking::RegionFirstToken);
        let both = evaluate_blocking(&table, Blocking::PhoneOrName);
        assert!(both.pair_recall >= phone.pair_recall);
        assert!(both.pair_recall >= name.pair_recall);
        assert!(
            both.pair_recall > 0.85,
            "union recall {}",
            both.pair_recall
        );
        assert!(both.candidates <= phone.candidates + name.candidates);
    }

    #[test]
    fn pairs_are_canonical_and_unique() {
        let rs = records();
        let table = CandidateTable::new(&rs);
        let pairs: Vec<(u32, u32)> =
            table.view(Blocking::PhoneOrName).map(|c| (c.a, c.b)).collect();
        assert!(pairs.windows(2).all(|w| w[0] < w[1]), "sorted & deduped");
        assert!(pairs.iter().all(|&(a, b)| a < b));
    }

    #[test]
    fn views_hold_exactly_the_pairs_their_keys_propose() {
        // Brute force over every pair of the fixture: a pair is in the
        // phone view iff both records carry the same phone, in the name
        // view iff they share (region, first normalised token), and in
        // the union iff either holds. Every entry carries the matcher's
        // verdict.
        let rs = records();
        let table = CandidateTable::new(&rs);
        let view = |s: Blocking| -> FxHashSet<(u32, u32)> {
            table.view(s).map(|c| (c.a, c.b)).collect()
        };
        let (phone, name, either) = (
            view(Blocking::Phone),
            view(Blocking::RegionFirstToken),
            view(Blocking::PhoneOrName),
        );
        let name_key = |r: &Record| {
            let token = normalize(&r.name).split_whitespace().next().map(str::to_string);
            (r.region, token.unwrap_or_default())
        };
        let keys: Vec<_> = rs.iter().map(name_key).collect();
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(r.id as usize, i, "record ids are indices");
        }
        for a in 0..rs.len() {
            for b in a + 1..rs.len() {
                let pair = (a as u32, b as u32);
                let same_phone = rs[a].phone.is_some() && rs[a].phone == rs[b].phone;
                let same_name = keys[a] == keys[b];
                assert_eq!(phone.contains(&pair), same_phone, "{pair:?} in the phone view");
                assert_eq!(name.contains(&pair), same_name, "{pair:?} in the name view");
                assert_eq!(
                    either.contains(&pair),
                    same_phone || same_name,
                    "{pair:?} in the union view"
                );
            }
        }
        assert!(!phone.is_empty() && !name.is_empty(), "both keys propose pairs");
        assert!(table
            .view(Blocking::PhoneOrName)
            .all(|c| c.matched == is_match(&rs[c.a as usize], &rs[c.b as usize])));
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Blocking::Phone.name(), "phone");
        assert_eq!(Blocking::PhoneOrName.name(), "phone|name");
    }

    #[test]
    fn empty_records() {
        let report = evaluate_blocking(&CandidateTable::new(&[]), Blocking::PhoneOrName);
        assert_eq!(report.candidates, 0);
        assert_eq!(report.pair_recall, 1.0);
    }
}
