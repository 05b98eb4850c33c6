//! Multinomial Naïve Bayes — the review-page classifier of §3.2 of the
//! paper ("used a Naïve-Bayes classifier over the textual content to
//! determine if a page has review content").

use crate::tokenize::for_each_token;
use webstruct_util::bytescan::{blocks64, letter_mask64};
use webstruct_util::hash::FxHashMap;
use webstruct_util::rng::{Seed, Xoshiro256};

/// A vocabulary token with its review-vs-boilerplate log-likelihood ratio.
pub type ScoredToken = (String, f64);

/// Errors from classifier training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// Training requires at least one document of each class.
    MissingClass(&'static str),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::MissingClass(c) => {
                write!(f, "training set has no documents of class '{c}'")
            }
        }
    }
}

impl std::error::Error for TrainError {}

/// A binary multinomial Naïve Bayes classifier with Laplace smoothing.
///
/// Class `true` is "review page"; class `false` is "non-review page".
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    /// token -> (count in positive docs, count in negative docs)
    token_counts: FxHashMap<String, (u32, u32)>,
    /// token -> precomputed per-occurrence log-odds contribution. Each
    /// value is built with exactly the float operations (and operation
    /// order) the scoring loop used to perform inline, so summing table
    /// entries is bitwise identical to the original per-token math.
    contrib: FxHashMap<String, f64>,
    /// Contribution of any out-of-vocabulary token (pos = neg = 0).
    oov_contrib: f64,
    /// The `contrib` values of the ASCII words of 2–16 bytes, keyed by
    /// their packed bytes: the block scorer's one-compare lookup.
    packed: PackedVocab,
    /// Total token occurrences per class.
    total_tokens: [u64; 2],
    /// Document counts per class.
    doc_counts: [u64; 2],
    /// Laplace smoothing constant.
    alpha: f64,
}

impl NaiveBayes {
    /// Train on `(text, is_review)` pairs.
    ///
    /// # Errors
    /// Returns [`TrainError::MissingClass`] unless both classes are present.
    pub fn train<'a, I>(docs: I) -> Result<Self, TrainError>
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut token_counts: FxHashMap<String, (u32, u32)> = FxHashMap::default();
        let mut total_tokens = [0u64; 2];
        let mut doc_counts = [0u64; 2];
        let mut buf = String::new();
        for (text, label) in docs {
            let class = usize::from(label);
            doc_counts[class] += 1;
            for_each_token(text, &mut buf, |token| {
                // Look up by &str first: a token String is only allocated
                // the first time a word enters the vocabulary.
                if !token_counts.contains_key(token) {
                    token_counts.insert(token.to_string(), (0, 0));
                }
                let entry = token_counts
                    .get_mut(token)
                    .expect("token present: just inserted if missing");
                if label {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
                total_tokens[class] += 1;
            });
        }
        if doc_counts[1] == 0 {
            return Err(TrainError::MissingClass("review"));
        }
        if doc_counts[0] == 0 {
            return Err(TrainError::MissingClass("non-review"));
        }
        let alpha = 1.0;
        let (contrib, oov_contrib) = contributions(&token_counts, total_tokens, alpha);
        let packed = PackedVocab::build(&contrib, oov_contrib);
        Ok(NaiveBayes {
            token_counts,
            contrib,
            oov_contrib,
            packed,
            total_tokens,
            doc_counts,
            alpha,
        })
    }

    /// Vocabulary size.
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        self.token_counts.len()
    }

    /// Log-odds `log P(review | text) - log P(non-review | text)`.
    /// Positive values favour the review class.
    #[must_use]
    pub fn log_odds(&self, text: &str) -> f64 {
        let mut buf = String::new();
        self.log_odds_with(text, &mut buf)
    }

    /// [`Self::log_odds`] scoring through a caller-owned token scratch
    /// buffer; steady-state scoring allocates nothing.
    ///
    /// Block-parallel: each 64-byte block of `text` becomes one
    /// [`letter_mask64`] bitmask, and its runs of set bits (the stretches
    /// between ASCII separators) are walked with `trailing_zeros`. An
    /// ASCII non-letter always ends a token, so each run tokenizes on its
    /// own. An all-ASCII run of 2–16 bytes is exactly one token, scored
    /// by one compare against the packed vocabulary; any other run (non-ASCII bytes,
    /// over 16 bytes, or a shared table slot) goes through
    /// [`for_each_token`] and the `contrib` map over that run only. Every
    /// token adds the same `f64` as the token loop, in the same order, so
    /// every score is bitwise identical to it.
    #[must_use]
    pub fn log_odds_with(&self, text: &str, token_buf: &mut String) -> f64 {
        self.log_odds_in(text, blocks64(text.as_bytes(), letter_mask64), token_buf)
    }

    /// [`Self::log_odds_with`] over precomputed letter masks of `text`:
    /// one [`letter_mask64`] per 64-byte block, in order (the `letters`
    /// of the page's class index).
    pub(crate) fn log_odds_in(
        &self,
        text: &str,
        letter_masks: impl IntoIterator<Item = u64>,
        token_buf: &mut String,
    ) -> f64 {
        let prior_pos = self.doc_counts[1] as f64;
        let prior_neg = self.doc_counts[0] as f64;
        let mut score = prior_pos.ln() - prior_neg.ln();
        // Start of the run still open at the end of the previous block,
        // and that block's last mask bit.
        let mut open: Option<usize> = None;
        let mut carry = 0u64;
        for (k, mask) in letter_masks.into_iter().enumerate() {
            let base = 64 * k;
            let prev = (mask << 1) | carry;
            let mut starts = mask & !prev;
            let mut ends = !mask & prev;
            carry = mask >> 63;
            if let Some(s) = open {
                if ends == 0 {
                    continue; // the whole block extends the open run
                }
                self.score_run(text, s, base + ends.trailing_zeros() as usize, &mut score, token_buf);
                ends &= ends - 1;
                open = None;
            }
            // Starts and ends now alternate, a start first.
            while starts != 0 {
                let s = base + starts.trailing_zeros() as usize;
                starts &= starts - 1;
                if ends == 0 {
                    open = Some(s);
                    break;
                }
                let e = base + ends.trailing_zeros() as usize;
                ends &= ends - 1;
                self.score_run(text, s, e, &mut score, token_buf);
            }
        }
        if let Some(s) = open {
            // The zero padding of a short last block is not a token byte,
            // so only a run reaching the end of the text is still open.
            self.score_run(text, s, text.len(), &mut score, token_buf);
        }
        score
    }

    /// Add the contributions of the tokens of the run `text[s..e]` to
    /// `score`. The bytes around the run are ASCII (or the text's ends),
    /// so `s` and `e` are char boundaries.
    #[inline(always)]
    fn score_run(&self, text: &str, s: usize, e: usize, score: &mut f64, token_buf: &mut String) {
        let n = e - s;
        if n < 2 {
            // A one-byte run is one ASCII letter: too short to be a token.
            return;
        }
        if let Some((lo, hi)) = pack_ascii(text.as_bytes(), s, n) {
            let c = self.packed.get(lo, hi);
            if !c.is_nan() {
                *score += c;
                return;
            }
        }
        self.score_run_tokens(&text[s..e], score, token_buf);
    }

    /// The fallback of [`Self::score_run`]: the token loop over one run.
    #[cold]
    #[inline(never)]
    fn score_run_tokens(&self, run: &str, score: &mut f64, token_buf: &mut String) {
        for_each_token(run, token_buf, |token| {
            *score += self.contrib.get(token).copied().unwrap_or(self.oov_contrib);
        });
    }

    /// Classify: is this text a review page?
    #[must_use]
    pub fn is_review(&self, text: &str) -> bool {
        self.log_odds(text) > 0.0
    }

    /// [`Self::is_review`] through a caller-owned token scratch buffer.
    #[must_use]
    pub fn is_review_with(&self, text: &str, token_buf: &mut String) -> bool {
        self.log_odds_with(text, token_buf) > 0.0
    }

    /// The `n` most review-indicative and most boilerplate-indicative
    /// tokens, by smoothed log-likelihood ratio. Useful for inspecting
    /// what the classifier actually learned.
    #[must_use]
    pub fn top_features(&self, n: usize) -> (Vec<ScoredToken>, Vec<ScoredToken>) {
        let v = self.token_counts.len() as f64;
        let denom_pos = self.total_tokens[1] as f64 + self.alpha * v;
        let denom_neg = self.total_tokens[0] as f64 + self.alpha * v;
        let mut scored: Vec<(String, f64)> = self
            .token_counts
            .iter()
            .map(|(token, &(pos, neg))| {
                let lp = (f64::from(pos) + self.alpha).ln() - denom_pos.ln();
                let ln = (f64::from(neg) + self.alpha).ln() - denom_neg.ln();
                (token.clone(), lp - ln)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite").then(a.0.cmp(&b.0)));
        let top_review = scored.iter().take(n).cloned().collect();
        let top_boiler = scored.iter().rev().take(n).cloned().collect();
        (top_review, top_boiler)
    }

    /// Accuracy on a labelled evaluation set.
    #[must_use]
    pub fn accuracy<'a, I>(&self, docs: I) -> f64
    where
        I: IntoIterator<Item = (&'a str, bool)>,
    {
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut buf = String::new();
        for (text, label) in docs {
            total += 1;
            if self.is_review_with(text, &mut buf) == label {
                correct += 1;
            }
        }
        if total == 0 {
            return 0.0;
        }
        correct as f64 / total as f64
    }
}

/// Per-token log-odds contribution table plus the out-of-vocabulary
/// constant. The arithmetic here replays, operation for operation, what
/// the scoring loop used to compute inline per token occurrence —
/// `((pos + α).ln() − denom₊.ln()) − ((neg + α).ln() − denom₋.ln())` —
/// so replacing the inline math with a table lookup leaves every score
/// bitwise unchanged.
fn contributions(
    token_counts: &FxHashMap<String, (u32, u32)>,
    total_tokens: [u64; 2],
    alpha: f64,
) -> (FxHashMap<String, f64>, f64) {
    let v = token_counts.len() as f64;
    let denom_pos = total_tokens[1] as f64 + alpha * v;
    let denom_neg = total_tokens[0] as f64 + alpha * v;
    let one = |pos: u32, neg: u32| {
        let lp = (f64::from(pos) + alpha).ln() - denom_pos.ln();
        let ln = (f64::from(neg) + alpha).ln() - denom_neg.ln();
        lp - ln
    };
    let contrib = token_counts
        .iter()
        .map(|(token, &(pos, neg))| (token.clone(), one(pos, neg)))
        .collect();
    (contrib, one(0, 0))
}

/// Longest token the packed table holds: two `u64` words.
const PACKED_MAX: usize = 16;

/// A word with its low `n` bytes set (all of them for `n >= 8`).
const fn low_bytes(n: usize) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (8 * n)) - 1
    }
}

/// Byte masks keeping the first `n` bytes of a 16-byte little-endian
/// load, as (low word, high word), for `n` in `0..=16`.
const LEN_MASK: [(u64, u64); PACKED_MAX + 1] = {
    let mut t = [(0u64, 0u64); PACKED_MAX + 1];
    let mut n = 0;
    while n <= PACKED_MAX {
        t[n] = (low_bytes(n), low_bytes(n.saturating_sub(8)));
        n += 1;
    }
    t
};

/// The packed lowercase key of the `n`-byte run at `bytes[s..]`
/// (`2 <= n`), or `None` if the run is over 16 bytes or not all ASCII.
/// A run of token bytes that is all ASCII is all letters, so `| 0x20`
/// lowercases it; the zero padding keeps keys of different lengths
/// apart. Reads stay inside `bytes`: near its end the run is copied.
#[inline]
fn pack_ascii(bytes: &[u8], s: usize, n: usize) -> Option<(u64, u64)> {
    const FOLD: u64 = 0x2020_2020_2020_2020;
    const HI: u64 = 0x8080_8080_8080_8080;
    if n > PACKED_MAX {
        return None;
    }
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("an 8-byte slice"));
    let (lo, hi) = match bytes.get(s..s + 16) {
        Some(w) => (word(&w[..8]), word(&w[8..])),
        None => {
            let mut w = [0u8; 16];
            w[..n].copy_from_slice(&bytes[s..s + n]);
            (word(&w[..8]), word(&w[8..]))
        }
    };
    let (mlo, mhi) = LEN_MASK[n];
    let (lo, hi) = ((lo | FOLD) & mlo, (hi | FOLD) & mhi);
    ((lo | hi) & HI == 0).then_some((lo, hi))
}

/// One slot of [`PackedVocab`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    lo: u64,
    hi: u64,
    contrib: f64,
}

/// Open-addressed table of the vocabulary words a packed key can name
/// (ASCII, 2–16 bytes), each slot holding the word's exact `contrib`.
///
/// The multiplier of the multiply-shift hash is searched at train time
/// until no two words share a slot, so a lookup is one slot compare with
/// no probe loop. An empty slot holds key `(0, 0)` — no run of two or
/// more letters packs to it — and the out-of-vocabulary contribution, so
/// it reads as a miss. Only a vocabulary too large to separate within
/// `2^MAX_BITS` slots leaves slots shared; those hold `NaN` and send
/// their runs through the token-loop fallback.
#[derive(Debug, Clone)]
struct PackedVocab {
    slots: Box<[Slot]>,
    mul: u64,
    shift: u32,
    oov: f64,
}

impl PackedVocab {
    /// Largest table: 16k slots (384 KiB).
    const MAX_BITS: u32 = 14;
    /// Multipliers tried per table size.
    const TRIES: usize = 256;

    #[inline]
    fn slot_of(mul: u64, shift: u32, lo: u64, hi: u64) -> usize {
        ((lo.wrapping_mul(mul) ^ hi).wrapping_mul(mul) >> shift) as usize
    }

    fn build(contrib: &FxHashMap<String, f64>, oov: f64) -> Self {
        // Exactly the words an all-ASCII run of 2–16 letters can spell.
        let mut keys: Vec<(u64, u64, f64)> = contrib
            .iter()
            .filter(|(w, _)| {
                (2..=PACKED_MAX).contains(&w.len()) && w.bytes().all(|b| b.is_ascii_lowercase())
            })
            .map(|(w, &c)| {
                let (lo, hi) = pack_ascii(w.as_bytes(), 0, w.len()).expect("2-16 ASCII letters");
                (lo, hi, c)
            })
            .collect();
        keys.sort_unstable_by_key(|&(lo, hi, _)| (lo, hi));
        // Deterministic search: the first multiplier (smallest table
        // first) that gives every key its own slot; failing that, the one
        // with the fewest shared slots at the largest size.
        let mut rng = Xoshiro256::from_seed(Seed(0x05EE_D0F7_AB1E));
        let min_bits = (2 * keys.len().max(1)).next_power_of_two().trailing_zeros().max(4);
        let mut used = Vec::new();
        let mut best = (usize::MAX, 0u64);
        let mut bits = min_bits.min(Self::MAX_BITS);
        let (mul, bits) = 'search: loop {
            for _ in 0..Self::TRIES {
                let mul = rng.next_u64() | 1;
                used.clear();
                used.resize(1 << bits, false);
                let mut shared = 0usize;
                for &(lo, hi, _) in &keys {
                    let i = Self::slot_of(mul, 64 - bits, lo, hi);
                    shared += usize::from(used[i]);
                    used[i] = true;
                }
                if shared == 0 {
                    break 'search (mul, bits);
                }
                if bits == Self::MAX_BITS && shared < best.0 {
                    best = (shared, mul);
                }
            }
            if bits == Self::MAX_BITS {
                break (best.1, bits);
            }
            bits += 1;
        };
        let empty = Slot { lo: 0, hi: 0, contrib: oov };
        let mut slots = vec![empty; 1 << bits].into_boxed_slice();
        for &(lo, hi, contrib) in &keys {
            let slot = &mut slots[Self::slot_of(mul, 64 - bits, lo, hi)];
            *slot = if slot.lo == 0 && !slot.contrib.is_nan() {
                Slot { lo, hi, contrib }
            } else {
                Slot { lo: 0, hi: 0, contrib: f64::NAN }
            };
        }
        PackedVocab { slots, mul, shift: 64 - bits, oov }
    }

    /// The contribution of the token packed as `(lo, hi)`: its `contrib`
    /// entry, the out-of-vocabulary constant, or `NaN` for a shared slot.
    #[inline]
    fn get(&self, lo: u64, hi: u64) -> f64 {
        let slot = &self.slots[Self::slot_of(self.mul, self.shift, lo, hi)];
        if (slot.lo == lo) & (slot.hi == hi) | (slot.lo == 0) {
            slot.contrib
        } else {
            self.oov
        }
    }
}

/// The token-at-a-time scoring loop the block scorer replaced, kept as
/// the differential reference.
#[cfg(test)]
pub(crate) mod scalar {
    use super::{for_each_token, NaiveBayes};

    pub fn log_odds_with(clf: &NaiveBayes, text: &str, token_buf: &mut String) -> f64 {
        let prior_pos = clf.doc_counts[1] as f64;
        let prior_neg = clf.doc_counts[0] as f64;
        let mut score = prior_pos.ln() - prior_neg.ln();
        for_each_token(text, token_buf, |token| {
            score += clf.contrib.get(token).copied().unwrap_or(clf.oov_contrib);
        });
        score
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_classifier() -> NaiveBayes {
        NaiveBayes::train(vec![
            ("the food was amazing and delicious", true),
            ("terrible service but great dessert, five stars", true),
            ("wonderful atmosphere, would come back", true),
            ("hours of operation and directions", false),
            ("browse listings in your neighborhood", false),
            ("claim this listing to update details", false),
        ])
        .expect("both classes present")
    }

    #[test]
    fn classifies_obvious_cases() {
        let clf = toy_classifier();
        assert!(clf.is_review("the dessert was amazing, five stars"));
        assert!(!clf.is_review("browse listings and directions"));
    }

    #[test]
    fn log_odds_sign_matches_classification() {
        let clf = toy_classifier();
        for text in ["delicious food", "claim this listing"] {
            assert_eq!(clf.log_odds(text) > 0.0, clf.is_review(text));
        }
    }

    #[test]
    fn unknown_tokens_fall_back_to_prior() {
        let clf = toy_classifier();
        // Equal priors (3 vs 3 docs): a fully-unknown text has log-odds
        // close to the smoothing differential only.
        let odds = clf.log_odds("zzzz qqqq xxxx");
        assert!(odds.abs() < 1.0, "odds {odds}");
    }

    #[test]
    fn training_requires_both_classes() {
        assert_eq!(
            NaiveBayes::train(vec![("a b", true)]).unwrap_err(),
            TrainError::MissingClass("non-review")
        );
        assert_eq!(
            NaiveBayes::train(vec![("a b", false)]).unwrap_err(),
            TrainError::MissingClass("review")
        );
    }

    #[test]
    fn accuracy_on_training_set_is_high() {
        let clf = toy_classifier();
        let train = vec![
            ("the food was amazing and delicious", true),
            ("hours of operation and directions", false),
        ];
        assert!(clf.accuracy(train) > 0.99);
        assert_eq!(clf.accuracy(Vec::<(&str, bool)>::new()), 0.0);
    }

    #[test]
    fn top_features_split_the_registers() {
        let clf = toy_classifier();
        let (review, boiler) = clf.top_features(5);
        assert_eq!(review.len(), 5);
        assert_eq!(boiler.len(), 5);
        // Review side scores positive, boilerplate side negative.
        assert!(review.iter().all(|&(_, s)| s > 0.0));
        assert!(boiler.iter().all(|&(_, s)| s < 0.0));
        let review_tokens: Vec<&str> = review.iter().map(|(t, _)| t.as_str()).collect();
        assert!(
            review_tokens.iter().any(|t| ["amazing", "delicious", "stars", "wonderful"].contains(t)),
            "review features {review_tokens:?}"
        );
    }

    #[test]
    fn contribution_table_is_bitwise_identical_to_inline_scoring() {
        let clf = toy_classifier();
        let texts = [
            "the food was amazing",
            "claim this listing to update details and directions",
            "zzzz unknown tokens only qqqq",
            "mixed: amazing zzzz listing delicious",
            "",
        ];
        for text in texts {
            // The pre-table scoring loop, replayed inline.
            let v = clf.token_counts.len() as f64;
            let denom_pos = clf.total_tokens[1] as f64 + clf.alpha * v;
            let denom_neg = clf.total_tokens[0] as f64 + clf.alpha * v;
            let mut expected = (clf.doc_counts[1] as f64).ln() - (clf.doc_counts[0] as f64).ln();
            let mut buf = String::new();
            for_each_token(text, &mut buf, |token| {
                let (pos, neg) = clf.token_counts.get(token).copied().unwrap_or((0, 0));
                let lp = (f64::from(pos) + clf.alpha).ln() - denom_pos.ln();
                let ln = (f64::from(neg) + clf.alpha).ln() - denom_neg.ln();
                expected += lp - ln;
            });
            let got = clf.log_odds(text);
            assert_eq!(got.to_bits(), expected.to_bits(), "score drifted on {text:?}");
        }
    }

    /// A classifier whose vocabulary holds words the packed table cannot:
    /// non-ASCII ones and ones over 16 bytes.
    fn mixed_vocab_classifier() -> NaiveBayes {
        NaiveBayes::train(vec![
            ("the crème brûlée was amazing, simply incomprehensibilities", true),
            ("extraordinarilyexquisite food, delicious wonderful service", true),
            ("great dessert and exactlysixteenxx with exactlyseventeenx", true),
            ("hours of operation, directions and parking information", false),
            ("claim this listing to update details straße", false),
        ])
        .expect("both classes present")
    }

    #[test]
    fn packed_table_holds_exact_contributions_and_misses_to_oov() {
        let clf = mixed_vocab_classifier();
        let table = &clf.packed;
        let mut packed_words = 0;
        for (word, &c) in &clf.contrib {
            let w = word.as_bytes();
            if w.len() <= PACKED_MAX && w.is_ascii() {
                let (lo, hi) = pack_ascii(w, 0, w.len()).expect("short ASCII word packs");
                assert_eq!(table.get(lo, hi).to_bits(), c.to_bits(), "word {word:?}");
                packed_words += 1;
            } else {
                assert!(pack_ascii(w, 0, w.len()).is_none(), "{word:?} must not pack");
            }
        }
        assert!(packed_words > 20, "only {packed_words} packed words");
        assert!(clf.contrib.contains_key("exactlysixteenxx"));
        assert!(clf.contrib.contains_key("exactlyseventeenx"));

        // A miss on an empty slot and on an occupied one both read as OOV.
        let oov = clf.oov_contrib.to_bits();
        let (lo, hi) = pack_ascii(b"zzqx", 0, 4).expect("packs");
        assert_eq!(table.get(lo, hi).to_bits(), oov);
        let mut collided = None;
        'find: for a in b'a'..=b'z' {
            for b in b'a'..=b'z' {
                for c in b'a'..=b'z' {
                    let word = [a, b, c];
                    let (lo, hi) = pack_ascii(&word, 0, 3).expect("packs");
                    let slot = table.slots[PackedVocab::slot_of(table.mul, table.shift, lo, hi)];
                    if slot.lo != 0 && (slot.lo, slot.hi) != (lo, hi) {
                        collided = Some((word, lo, hi));
                        break 'find;
                    }
                }
            }
        }
        let (word, lo, hi) = collided.expect("some 3-letter key lands on an occupied slot");
        assert!(!clf.contrib.contains_key(std::str::from_utf8(&word).expect("ASCII")));
        assert_eq!(table.get(lo, hi).to_bits(), oov, "{word:?}");

        // Long and non-ASCII vocabulary words score through the fallback,
        // to the same bits as the token loop.
        let mut buf = String::new();
        for text in [
            "brûlée",
            "Crème BRÛLÉE",
            "incomprehensibilities",
            "EXTRAORDINARILYEXQUISITE!",
            "EXACTLYSEVENTEENX exactlysixteenxx",
            "straße",
        ] {
            let want = scalar::log_odds_with(&clf, text, &mut buf);
            assert_eq!(clf.log_odds(text).to_bits(), want.to_bits(), "{text:?}");
        }
        let prior = (clf.doc_counts[1] as f64).ln() - (clf.doc_counts[0] as f64).ln();
        for word in ["brûlée", "incomprehensibilities"] {
            let want = prior + clf.contrib[word];
            assert_eq!(clf.log_odds(word).to_bits(), want.to_bits(), "{word:?}");
        }
    }

    #[test]
    fn oversized_vocabulary_shares_slots_and_stays_exact() {
        // More words than the 2^MAX_BITS slots: some slots must be
        // shared, and their runs take the token loop.
        let word = |i: usize| -> String {
            let mut w = String::from("q");
            let mut n = i;
            loop {
                w.push(char::from(b'a' + (n % 26) as u8));
                n /= 26;
                if n == 0 {
                    break w;
                }
            }
        };
        let n = (1 << PackedVocab::MAX_BITS) + 4000;
        let words: Vec<String> = (0..n).map(word).collect();
        let pos = words[..n / 2].join(" ");
        let neg = words[n / 2..].join(" ");
        let clf = NaiveBayes::train(vec![(pos.as_str(), true), (neg.as_str(), false)])
            .expect("both classes present");
        let shared = clf.packed.slots.iter().filter(|s| s.contrib.is_nan()).count();
        assert!(shared > 0, "expected shared slots");
        let mut buf = String::new();
        for text in [&pos, &neg, &words.join(",").to_uppercase()] {
            let want = scalar::log_odds_with(&clf, text, &mut buf);
            assert_eq!(clf.log_odds(text).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn vocab_grows_with_training_data() {
        let clf = toy_classifier();
        assert!(clf.vocab_size() > 15);
    }
}
