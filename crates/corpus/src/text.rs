//! Text models: review language vs. directory boilerplate.
//!
//! The paper detects restaurant reviews with "a Naïve-Bayes classifier over
//! the textual content". For that classifier (in `webstruct-extract`) to
//! have a real job, generated pages must contain genuinely different token
//! distributions for review content and listing boilerplate. These word
//! lists and sentence templates provide that — with deliberate vocabulary
//! overlap so classification is non-trivial.

use webstruct_util::rng::Xoshiro256;

/// Append `v` in decimal, zero-padded to at least `width` digits: the
/// bytes of `format!("{v:0width$}")` (so `width` 1 is plain `{v}`),
/// without going through `core::fmt`. Every number on the page-render
/// path is written by this one helper.
pub fn push_decimal(out: &mut String, mut v: u64, width: usize) {
    // u64::MAX has 20 digits.
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for _ in buf.len()..width {
        out.push('0');
    }
    let start = i.min(buf.len().saturating_sub(width));
    out.push_str(std::str::from_utf8(&buf[start..]).expect("ASCII digits"));
}

/// Words common in user reviews (opinionated register).
pub const REVIEW_OPENERS: &[&str] = &[
    "I visited",
    "We stopped by",
    "My family tried",
    "A friend recommended",
    "We finally checked out",
    "I have been coming to",
    "Last weekend we went to",
];

/// Positive sentiment adjectives.
pub const SENTIMENT_POS: &[&str] = &[
    "amazing", "delicious", "friendly", "cozy", "fantastic", "wonderful", "charming",
    "attentive", "generous", "fresh", "outstanding", "lovely",
];

/// Negative sentiment adjectives.
pub const SENTIMENT_NEG: &[&str] = &[
    "disappointing", "bland", "slow", "overpriced", "noisy", "cramped", "rude",
    "forgettable", "stale", "chaotic",
];

/// Aspects reviewers comment on.
pub const REVIEW_ASPECTS: &[&str] = &[
    "service", "food", "atmosphere", "staff", "menu", "dessert", "portions", "prices",
    "selection", "experience", "location", "parking",
];

/// Closing phrases of reviews.
pub const REVIEW_CLOSERS: &[&str] = &[
    "Highly recommended.",
    "Would definitely come back.",
    "Five stars from me.",
    "Two thumbs up.",
    "I will not be returning.",
    "Worth the drive.",
    "Save your money.",
    "Ask for the daily special.",
];

/// Directory boilerplate sentences (the non-review register).
pub const BOILERPLATE: &[&str] = &[
    "Hours of operation may vary on holidays.",
    "Browse all listings in your neighborhood.",
    "Get directions and contact information below.",
    "Sponsored results appear at the top of the page.",
    "Claim this listing to update business details.",
    "Advertise with us to reach local customers.",
    "Categories: local services, directory, listings.",
    "Copyright and terms of service apply to all content.",
    "Sign in to save your favorite businesses.",
    "Data provided by the local business registry.",
    "See nearby businesses on the map view.",
    "Report incorrect information using the feedback form.",
];

/// Generate one review paragraph about `entity_name`.
///
/// Roughly 70% of reviews are positive, matching the well-known skew of
/// online review corpora.
#[must_use]
pub fn review_paragraph(rng: &mut Xoshiro256, entity_name: &str) -> String {
    let mut out = String::new();
    review_paragraph_into(rng, entity_name, &mut out);
    out
}

/// Append one review paragraph to `out` without allocating. RNG draw
/// order is identical to [`review_paragraph`], so the bytes match too.
pub fn review_paragraph_into(rng: &mut Xoshiro256, entity_name: &str, out: &mut String) {
    let opener = REVIEW_OPENERS[rng.usize_below(REVIEW_OPENERS.len())];
    let positive = rng.bool_with(0.7);
    let bank = if positive { SENTIMENT_POS } else { SENTIMENT_NEG };
    out.push_str(opener);
    out.push(' ');
    out.push_str(entity_name);
    out.push_str(" last month.");
    let n_sentences = 1 + rng.usize_below(3);
    for _ in 0..n_sentences {
        let adj = bank[rng.usize_below(bank.len())];
        let aspect = REVIEW_ASPECTS[rng.usize_below(REVIEW_ASPECTS.len())];
        out.push_str(" The ");
        out.push_str(aspect);
        out.push_str(" was ");
        out.push_str(adj);
        out.push('.');
    }
    let rating = if positive {
        4 + rng.usize_below(2)
    } else {
        1 + rng.usize_below(2)
    };
    out.push_str(" Rated ");
    push_decimal(out, rating as u64, 1);
    out.push_str(" out of 5 stars. ");
    out.push_str(REVIEW_CLOSERS[rng.usize_below(REVIEW_CLOSERS.len())]);
}

/// Draw one boilerplate sentence without allocating.
#[must_use]
pub fn boilerplate_pick(rng: &mut Xoshiro256) -> &'static str {
    BOILERPLATE[rng.usize_below(BOILERPLATE.len())]
}

/// Generate a block of `n` boilerplate sentences.
#[must_use]
pub fn boilerplate_block(rng: &mut Xoshiro256, n: usize) -> String {
    let mut out = String::new();
    boilerplate_block_into(rng, n, &mut out);
    out
}

/// Append a block of `n` boilerplate sentences to `out` without allocating.
pub fn boilerplate_block_into(rng: &mut Xoshiro256, n: usize, out: &mut String) {
    for i in 0..n {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(boilerplate_pick(rng));
    }
}

/// Append a 10-digit number formatted like a phone but guaranteed **not**
/// to be a valid NANP number (area code starts with 0 or 1) to `out`
/// without allocating. Exercises extractor precision: these must be
/// rejected.
pub fn invalid_phone_lookalike_into(rng: &mut Xoshiro256, out: &mut String) {
    let area = rng.u64_below(200); // 000..199: invalid NANP area codes
    let exchange = rng.range_u64(200, 1000);
    let line = rng.u64_below(10_000);
    push_decimal(out, area, 3);
    out.push('-');
    push_decimal(out, exchange, 3);
    out.push('-');
    push_decimal(out, line, 4);
}

/// Append a random order/tracking-style long digit string to `out`
/// without allocating: the classic source of accidental phone-shaped
/// false matches discussed in §3.5 of the paper.
pub fn tracking_number_into(rng: &mut Xoshiro256, out: &mut String) {
    out.push_str("Order #");
    for _ in 0..12 {
        out.push(char::from_digit(rng.u64_below(10) as u32, 10).expect("digit"));
    }
}

/// Append an anchor tag linking somewhere unrelated to `out` without
/// allocating (never an entity homepage — the `.example-partner.com`
/// suffix is reserved for noise).
pub fn noise_anchor_into(rng: &mut Xoshiro256, out: &mut String) {
    let n = rng.u64_below(100_000);
    out.push_str("<a href=\"http://partner-");
    push_decimal(out, n, 1);
    out.push_str(".example-partner.com/offers\">See offers</a>");
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::rng::Seed;

    /// The fragment `push` appends to an empty string.
    fn rendered(push: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        push(&mut out);
        out
    }

    #[test]
    fn fmt_free_decimal_matches_format() {
        let mut out = String::new();
        let mut check = |v: u64, w: usize| {
            out.clear();
            push_decimal(&mut out, v, w);
            assert_eq!(out, format!("{v:0w$}"), "v {v} width {w}");
        };
        // Exhaustive for widths 3 and 4, including values wider than
        // the width (which print in full, as `format!` does).
        for v in 0..=20_000 {
            check(v, 3);
            check(v, 4);
        }
        for v in [
            0,
            1,
            9,
            10,
            99_999_999,
            100_000_000,
            999_999_998,
            999_999_999,
            1_000_000_000,
            4_294_967_295,
            u64::MAX,
        ] {
            for w in [0, 1, 9, 20, 25] {
                check(v, w);
            }
        }
    }

    #[test]
    fn fmt_free_fragments_match_format_reference() {
        // Replay each fragment's draws and render them with `format!`.
        for seed in 0..300 {
            let mut rng = Xoshiro256::from_seed(Seed(seed));
            let mut replay = Xoshiro256::from_seed(Seed(seed));
            let (area, exchange, line) = (
                replay.u64_below(200),
                replay.range_u64(200, 1000),
                replay.u64_below(10_000),
            );
            assert_eq!(
                rendered(|o| invalid_phone_lookalike_into(&mut rng, o)),
                format!("{area:03}-{exchange:03}-{line:04}")
            );
            let n = replay.u64_below(100_000);
            assert_eq!(
                rendered(|o| noise_anchor_into(&mut rng, o)),
                format!("<a href=\"http://partner-{n}.example-partner.com/offers\">See offers</a>")
            );
        }
    }

    #[test]
    fn review_mentions_entity_and_rating() {
        let mut rng = Xoshiro256::from_seed(Seed(1));
        let text = review_paragraph(&mut rng, "Golden Dragon Bistro");
        assert!(text.contains("Golden Dragon Bistro"));
        assert!(text.contains("out of 5 stars"));
        assert!(text.len() > 40);
    }

    #[test]
    fn reviews_are_mostly_positive() {
        let mut rng = Xoshiro256::from_seed(Seed(2));
        let pos_tokens: Vec<&str> = SENTIMENT_POS.to_vec();
        let mut pos = 0;
        let n = 500;
        for _ in 0..n {
            let text = review_paragraph(&mut rng, "X");
            if pos_tokens.iter().any(|t| text.contains(t)) {
                pos += 1;
            }
        }
        let frac = f64::from(pos) / f64::from(n);
        assert!((0.6..0.8).contains(&frac), "positive fraction {frac}");
    }

    #[test]
    fn boilerplate_block_joins_sentences() {
        let mut rng = Xoshiro256::from_seed(Seed(3));
        let block = boilerplate_block(&mut rng, 3);
        assert!(block.split(". ").count() >= 2 || block.matches('.').count() >= 3);
        assert!(boilerplate_block(&mut rng, 0).is_empty());
    }

    #[test]
    fn review_and_boilerplate_vocabularies_differ() {
        // The registers must be separable: sentiment words never appear in
        // boilerplate sentences.
        for b in BOILERPLATE {
            for s in SENTIMENT_POS.iter().chain(SENTIMENT_NEG) {
                assert!(!b.contains(s), "'{s}' leaks into boilerplate '{b}'");
            }
        }
    }

    #[test]
    fn invalid_lookalikes_have_bad_area_codes() {
        let mut rng = Xoshiro256::from_seed(Seed(4));
        for _ in 0..200 {
            let s = rendered(|o| invalid_phone_lookalike_into(&mut rng, o));
            let area: u16 = s[..3].parse().expect("3-digit area");
            assert!(area < 200, "area {area} should be invalid");
            assert_eq!(s.len(), 12); // 3+1+3+1+4
        }
    }

    #[test]
    fn tracking_numbers_are_long_digit_runs() {
        let mut rng = Xoshiro256::from_seed(Seed(5));
        let t = rendered(|o| tracking_number_into(&mut rng, o));
        assert!(t.starts_with("Order #"));
        assert_eq!(t.trim_start_matches("Order #").len(), 12);
    }

    #[test]
    fn noise_anchor_uses_reserved_suffix() {
        let mut rng = Xoshiro256::from_seed(Seed(6));
        let a = rendered(|o| noise_anchor_into(&mut rng, o));
        assert!(a.contains(".example-partner.com"));
        assert!(a.starts_with("<a href="));
    }
}
