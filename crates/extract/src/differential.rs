//! Differential tests: every `bytescan`-based scanner against its retained
//! scalar reference implementation, over real rendered corpora (three
//! domains at quick scale — the same fixtures the golden tests render) and
//! over adversarial literals the corpus does not produce.
//!
//! The perf rewrite must be observably invisible; these tests pin that
//! down scanner by scanner rather than only end to end, and check the
//! pipeline's class-index scans against the same references.

use crate::nb::{self, NaiveBayes};
use crate::training::review_training_set;
use crate::{html, isbn_scan, phone_scan, tokenize};
use webstruct_corpus::domain::Domain;
use webstruct_corpus::entity::{CatalogConfig, EntityCatalog};
use webstruct_corpus::page::{PageConfig, PageScratch, PageStream};
use webstruct_corpus::web::{Web, WebConfig};
use webstruct_util::bytescan::{blocks64, classes64, Classes64};
use webstruct_util::rng::{Seed, Xoshiro256};

/// Visit `(html, visible_text)` for every rendered page of three domains
/// at quick scale.
fn for_each_corpus_page(mut f: impl FnMut(&str, &str)) {
    for (domain, entities, seed) in [
        (Domain::Restaurants, 300, 61),
        (Domain::Books, 300, 62),
        (Domain::Banks, 300, 63),
    ] {
        let catalog = EntityCatalog::generate(&CatalogConfig::new(domain, entities), Seed(seed));
        let web = Web::generate(&catalog, &WebConfig::preset(domain).scaled(0.01), Seed(seed));
        let mut pages = PageStream::new(&web, &catalog, PageConfig::default(), Seed(seed + 1));
        let mut page = PageScratch::default();
        let mut text = String::new();
        while pages.render_into(&mut page) {
            html::strip_tags_into(page.text(), &mut text);
            f(page.text(), &text);
        }
    }
}

/// Inputs no rendered page contains: malformed markup, digit runs at
/// word boundaries, multibyte neighbourhoods, empty strings.
const ADVERSARIAL: &[&str] = &[
    "",
    "<",
    ">",
    "<a",
    "<a href=x",
    "<<a href='y'>><a  HREF=\"z\">",
    "a < b > c <a href=>",
    "<A HREF='http://x.test/'>x</a><ahref='no'>",
    "tags <i>nested <a href=q></i>",
    "café <a href='é.test'>é</a> — ISBN 978-0-306-40615-7 —",
    "isbn9780306406157 ISBN: 9780306406157.",
    "x978-0-306-40615-7 (415) 555-0134 5(415) 555-0134",
    "1-415-555-0134+1 415 555 0134 415.555.0134415-555-0134",
    "Crème brûlée ☃ 9 lives of é1é2é3 ABCdef-GHI",
    "ISBN \u{e9}\u{e9}\u{e9} 978-0-306-40615-7",
];

/// Markup the one tag walk must treat exactly as the two separate
/// per-char scanners do.
const ADVERSARIAL_TAGS: &[&str] = &[
    "<a href='x' <b>text",
    "<a <b href=x>y",
    "text <a href=\"http://late.test/\"",
    "text <p class='open",
    "stray > and >> <a href=y>z</a> >",
    "<a>bare</a><a >space</a>",
    "<abbr href='no'>x</abbr><abbr",
    "<A\tHREF='x'>tab</A><a\nhref=nl>",
    "<a href=unquoted>u</a><a href=>e</a><a href=''>q</a><a href>n</a>",
    "<a href='first'>at zero",
    "last <a href='end'>",
    "<a href=\"é.test\">é</a>—<",
];

#[test]
fn anchor_scanner_matches_scalar_on_corpus_and_adversarial() {
    let mut checked = 0usize;
    let mut check = |html_src: &str| {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        html::for_each_anchor_href(html_src, |href, at| fast.push((href.to_string(), at)));
        html::scalar::for_each_anchor_href(html_src, |href, at| slow.push((href.to_string(), at)));
        assert_eq!(fast, slow, "anchors diverged on {html_src:?}");
        checked += 1;
    };
    for_each_corpus_page(|html_src, _| check(html_src));
    ADVERSARIAL
        .iter()
        .chain(ADVERSARIAL_TAGS)
        .for_each(|s| check(s));
    assert!(checked > 1000, "corpus fixture rendered only {checked} pages");
}

#[test]
fn find_attr_matches_scalar() {
    let tags = [
        "a href='x'",
        "a  HREF=\"y\" href='z'",
        "a xhref='n' href = v",
        "a href",
        "a href=",
        "div href='no-anchor'",
        "a hrefhref='overlap' href='real'",
        "a é href='after-multibyte'",
    ];
    for tag in tags {
        for attr in ["href", "HREF", "src"] {
            assert_eq!(
                html::find_attr(tag, attr),
                html::scalar::find_attr(tag, attr),
                "find_attr diverged on {tag:?} / {attr:?}"
            );
        }
    }
}

#[test]
fn strip_tags_matches_scalar_on_corpus_and_adversarial() {
    let mut fast = String::new();
    let mut slow = String::new();
    let mut check = |html_src: &str| {
        html::strip_tags_into(html_src, &mut fast);
        html::scalar::strip_tags_into(html_src, &mut slow);
        assert_eq!(fast, slow, "strip_tags diverged on {html_src:?}");
    };
    for_each_corpus_page(|html_src, _| check(html_src));
    ADVERSARIAL
        .iter()
        .chain(ADVERSARIAL_TAGS)
        .for_each(|s| check(s));
}

#[test]
fn tag_walk_matches_strip_and_anchor_references() {
    let mut text = String::new();
    let mut want_text = String::new();
    let mut check = |html_src: &str| {
        let mut hrefs = Vec::new();
        let mut want = Vec::new();
        html::strip_tags_and_hrefs_into(html_src, &mut text, |href, at| {
            hrefs.push((href.to_string(), at));
        });
        html::scalar::strip_tags_into(html_src, &mut want_text);
        html::scalar::for_each_anchor_href(html_src, |href, at| want.push((href.to_string(), at)));
        assert_eq!(text, want_text, "text diverged on {html_src:?}");
        assert_eq!(hrefs, want, "hrefs diverged on {html_src:?}");
    };
    for_each_corpus_page(|html_src, _| check(html_src));
    ADVERSARIAL
        .iter()
        .chain(ADVERSARIAL_TAGS)
        .for_each(|s| check(s));
    // Anchors at offset 0 and closing on the last byte are seen.
    let mut at = Vec::new();
    html::for_each_anchor_href("<a href='first'>x<a href=end>", |h, o| {
        at.push((h.to_string(), o))
    });
    assert_eq!(at, [("first".to_string(), 0), ("end".to_string(), 17)]);
}

#[test]
fn url_host_matches_scalar() {
    let urls = [
        "",
        "http://",
        "Http://a.example.com/",
        "HTTP://A.Example.com/x",
        "HTTP://",
        "hTTP://a.example.com/",
        "https://WWW.Example.COM/x",
        "HTTPS://www.a.example.com",
        "http://www./",
        "http://www.",
        "http://WwW.x",
        "http://a.example.com:8080/x",
        "http://a.example.com?q=1",
        "http://a.example.com#frag",
        "http://host/",
        "http://nodot",
        "http://.",
        "http://ä.example.com/é",
        "http://www.ÄÖ.example/",
        "http://ex\u{e9}.com:",
        "ftp://a.example.com/",
        "http:/a.example.com",
    ];
    let (mut fast, mut slow) = (String::new(), String::new());
    let mut check = |url: &str| {
        let got = html::url_host_into(url, &mut fast);
        let want = html::scalar::url_host_into(url, &mut slow);
        assert_eq!((got, &fast), (want, &slow), "url_host diverged on {url:?}");
    };
    urls.iter().for_each(|u| check(u));
    for_each_corpus_page(|html_src, _| {
        html::scalar::for_each_anchor_href(html_src, |href, _| check(href));
    });
}

#[test]
fn phone_scanner_matches_scalar_on_corpus_and_adversarial() {
    let check = |text: &str| {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        phone_scan::for_each_phone(text, |m| fast.push(m));
        phone_scan::scalar::for_each_phone(text, |m| slow.push(m));
        assert_eq!(fast, slow, "phones diverged on {text:?}");
    };
    for_each_corpus_page(|_, text| check(text));
    ADVERSARIAL.iter().for_each(|s| check(s));
}

#[test]
fn isbn_scanner_matches_scalar_on_corpus_and_adversarial() {
    let mut lower = String::new();
    let mut check = |text: &str| {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        isbn_scan::for_each_isbn(text, |m| fast.push(m));
        isbn_scan::scalar::for_each_isbn(text, &mut lower, |m| slow.push(m));
        assert_eq!(fast, slow, "isbns diverged on {text:?}");
    };
    for_each_corpus_page(|_, text| check(text));
    ADVERSARIAL.iter().for_each(|s| check(s));
}

#[test]
fn tokenizer_matches_scalar_on_corpus_and_adversarial() {
    let mut fast_buf = String::new();
    let mut slow_buf = String::new();
    let mut check = |text: &str| {
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        tokenize::for_each_token(text, &mut fast_buf, |t| fast.push(t.to_string()));
        tokenize::scalar::for_each_token(text, &mut slow_buf, |t| slow.push(t.to_string()));
        assert_eq!(fast, slow, "tokens diverged on {text:?}");
    };
    for_each_corpus_page(|_, text| check(text));
    ADVERSARIAL.iter().for_each(|s| check(s));
    // Non-ASCII alphabetics whose lowercase expands, plus separators that
    // are multibyte themselves.
    check("İstanbul ΣΣΣ ǅungla — İİ");
}

/// Vocabulary the pipeline's training set lacks: non-ASCII words, words
/// over 16 bytes, and words of exactly 8, 16 and 17 letters.
const EXTRA_VOCAB: &[(&str, bool)] = &[
    ("crème brûlée caféamazing straße superlativelydelicious", true),
    ("eightltr exactlysixteenxx exactlyseventeenx", true),
    ("İstanbul ΣΣΣ maßgeblich incomprehensibilities", false),
];

/// The pipeline's review classifier, trained with [`EXTRA_VOCAB`] too.
fn classifier() -> NaiveBayes {
    let docs = review_training_set(Seed(64), 150);
    NaiveBayes::train(
        docs.iter()
            .map(|(t, l)| (t.as_str(), *l))
            .chain(EXTRA_VOCAB.iter().copied()),
    )
    .expect("both classes present")
}

/// Seed-pure texts that put runs of 1–20 letters at every offset mod 64
/// and across block edges: vocabulary words in upper and mixed case,
/// their prefixes and suffixes, runs of exactly 8, 16 and 17 bytes,
/// non-ASCII letters glued to ASCII ones, multibyte separators, and text
/// ending mid-token.
fn generated_texts(vocab: &[String]) -> Vec<String> {
    const GLUED: &[&str] = &[
        "caféamazing",
        "ß",
        "Straße",
        "İ",
        "İstanbul",
        "DELİCİOUS",
        "brûlée",
        "Crème",
        "ΣΣΣ",
    ];
    const SEPARATORS: &[&str] = &[" ", ".", ", ", "—", "…", "1", "-", "\n", " — ", "'", "@", "["];
    let mut rng = Xoshiro256::from_seed(Seed(0xB10C));
    let piece = |rng: &mut Xoshiro256| -> String {
        let word = &vocab[rng.usize_below(vocab.len())];
        let cased = |w: &str, rng: &mut Xoshiro256| -> String {
            match rng.usize_below(3) {
                0 => w.to_string(),
                1 => w.to_uppercase(),
                _ => w
                    .chars()
                    .map(|c| if rng.bool_with(0.5) { c.to_ascii_uppercase() } else { c })
                    .collect(),
            }
        };
        match rng.usize_below(6) {
            0 | 1 => cased(word, rng),
            2 => {
                // A prefix or suffix of a vocabulary word.
                let cuts: Vec<usize> = (0..=word.len()).filter(|&i| word.is_char_boundary(i)).collect();
                let cut = cuts[rng.usize_below(cuts.len())];
                let part = if rng.bool_with(0.5) { &word[..cut] } else { &word[cut..] };
                cased(part, rng)
            }
            3 => {
                // A letter run of 1–20 bytes, biased to the 8/16/17 edges.
                let n = match rng.usize_below(4) {
                    0 => [8, 16, 17][rng.usize_below(3)],
                    _ => 1 + rng.usize_below(20),
                };
                (0..n)
                    .map(|_| {
                        let c = b'a' + rng.usize_below(26) as u8;
                        char::from(if rng.bool_with(0.3) { c.to_ascii_uppercase() } else { c })
                    })
                    .collect()
            }
            4 => GLUED[rng.usize_below(GLUED.len())].to_string(),
            _ => format!("{}{}", GLUED[rng.usize_below(GLUED.len())], cased(word, rng)),
        }
    };
    let mut out = Vec::new();
    // Padding of 0..130 bytes moves the first run across every offset of
    // the first two blocks and over both block edges.
    for pad in 0..130 {
        for _ in 0..6 {
            let mut text = ".".repeat(pad);
            while text.len() < 64 * 3 {
                text.push_str(&piece(&mut rng));
                text.push_str(SEPARATORS[rng.usize_below(SEPARATORS.len())]);
            }
            if rng.bool_with(0.5) {
                // End mid-token.
                text.push_str(&piece(&mut rng));
            }
            out.push(text);
        }
    }
    out
}

#[test]
fn block_scorer_matches_token_loop_bit_for_bit() {
    let clf = classifier();
    let mut fast_buf = String::new();
    let mut slow_buf = String::new();
    let mut checked = 0usize;
    let mut check = |text: &str| {
        let fast = clf.log_odds_with(text, &mut fast_buf);
        let slow = nb::scalar::log_odds_with(&clf, text, &mut slow_buf);
        assert_eq!(fast.to_bits(), slow.to_bits(), "score diverged on {text:?}");
        checked += 1;
    };
    for_each_corpus_page(|_, text| check(text));
    ADVERSARIAL.iter().for_each(|s| check(s));
    let (review, boiler) = clf.top_features(40);
    let extra = EXTRA_VOCAB.iter().flat_map(|(doc, _)| doc.split(' ')).map(str::to_lowercase);
    let vocab: Vec<String> = review.into_iter().chain(boiler).map(|(w, _)| w).chain(extra).collect();
    for text in generated_texts(&vocab) {
        check(&text);
        // Every suffix too: the same runs at every other block offset.
        for cut in (1..text.len()).filter(|&i| text.is_char_boundary(i)).step_by(7) {
            check(&text[cut..]);
        }
    }
    assert!(checked > 10_000, "only {checked} texts checked");
}

/// The class index of `text`, built the way the pipeline builds it.
fn class_index(text: &str) -> Vec<Classes64> {
    blocks64(text.as_bytes(), classes64).collect()
}

/// Seed-pure texts aimed at the class index's edges: phone starts (`(`,
/// `+`, digit runs) at offsets 62–65 of a block and phones ending exactly
/// on a block edge; `ISBN` markers in any case split across a block edge,
/// at offset 0, and more than the window away from the number; `b`s with
/// no marker; and non-ASCII neighbours.
fn index_edge_texts() -> Vec<String> {
    use webstruct_corpus::isbn::Isbn;
    let isbn = Isbn::new(30_640_615).expect("9-digit core");
    let numbers = [
        isbn.to_isbn13_hyphenated(),
        isbn.to_isbn13(),
        isbn.to_isbn10(),
        isbn.to_isbn10_hyphenated(),
    ];
    const PHONES: &[&str] = &[
        "(415) 555-0134",
        "(415)555-0134",
        "+1 415 555 0134",
        "1-415-555-0134",
        "415-555-0134",
        "415.555.0134",
        "4155550134",
        "41555501345",
        "123-555-0134",
        "(415 555-0134",
        "++1 415 555 0134",
        "((415) 555-0134",
    ];
    const BEFORE: &[&str] = &["", " ", "7", "(", "+", "é", "x", "b"];
    const AFTER: &[&str] = &["", " ", "0", ".", "é", "-", "X"];
    const MARKERS: &[&str] = &[
        "ISBN", "iSbN", "isbn", "IsBn: ", "ISBN-13 ", "İSBN", "ISBİN", "ISB N",
    ];
    const NO_MARKER: &[&str] = &[
        "bbb BBB ", "isb sbn ", "ibsn ", "i-sbn ", "isbén ", "b", "B",
    ];
    let mut out = Vec::new();
    // Phone starts at offsets 58..70 (the block edge at 64) and phones
    // ending exactly on the edges at 64 and 128, with every neighbour.
    for phone in PHONES {
        for before in BEFORE {
            for after in AFTER {
                let lit = format!("{before}{phone}{after}");
                for pad in (58..70).chain([64 - lit.len(), 128 - lit.len()]) {
                    out.push(format!("{}{lit}", ".".repeat(pad)));
                    out.push(format!("{}{lit} and {lit}", "1".repeat(pad)));
                }
            }
        }
    }
    // Markers at every offset of the first two blocks (split across the
    // edge at 64 too), before and after the number, inside and outside
    // the 24-byte window; and `b`s with no marker at all.
    for (i, number) in numbers.iter().enumerate() {
        for marker in MARKERS.iter().chain(NO_MARKER) {
            for pad in 0..130 {
                let lead = ".".repeat(pad);
                for gap in [1, 23, 24, 25, 40] {
                    let space = if i % 2 == 0 { " " } else { "\u{e9}" }.repeat(gap);
                    out.push(format!("{lead}{marker}{space}{number}"));
                    out.push(format!("{lead}{number}{space}{marker}"));
                }
            }
        }
    }
    // Seed-pure mixtures of all of the above at random offsets.
    let mut rng = Xoshiro256::from_seed(Seed(0x1DE5));
    let pieces: Vec<String> = PHONES
        .iter()
        .chain(BEFORE)
        .chain(MARKERS)
        .chain(NO_MARKER)
        .map(|s| s.to_string())
        .chain(numbers.iter().cloned())
        .chain(["Crème brûlée", "the food was", "—", "12"].map(String::from))
        .collect();
    for _ in 0..2000 {
        let mut text = String::new();
        let target = 1 + rng.usize_below(300);
        while text.len() < target {
            text.push_str(&pieces[rng.usize_below(pieces.len())]);
            if rng.bool_with(0.5) {
                text.push(' ');
            }
        }
        out.push(text);
    }
    out
}

#[test]
fn indexed_scanners_match_per_scanner_references() {
    let clf = classifier();
    let mut fast_buf = String::new();
    let mut slow_buf = String::new();
    let (mut checked, mut gated_out, mut matched) = (0usize, 0usize, 0usize);
    let mut check = |text: &str| {
        let index = class_index(text);
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        phone_scan::for_each_phone_in(text, index.iter().copied(), |m| fast.push(m));
        phone_scan::scalar::for_each_phone(text, |m| slow.push(m));
        assert_eq!(fast, slow, "phones diverged on {text:?}");
        matched += fast.len();

        let marker = isbn_scan::has_marker_in(text, index.iter().map(|c| c.b));
        let want = text.to_ascii_lowercase().contains("isbn");
        assert_eq!(marker, want, "marker gate on {text:?}");
        let mut gated = Vec::new();
        let mut ungated = Vec::new();
        if marker {
            isbn_scan::for_each_isbn(text, |m| gated.push(m));
        } else {
            gated_out += 1;
        }
        isbn_scan::for_each_isbn(text, |m| ungated.push(m));
        assert_eq!(gated, ungated, "isbns diverged on {text:?}");
        matched += gated.len();

        let fast = clf.log_odds_in(text, index.iter().map(|c| c.letters), &mut fast_buf);
        let slow = nb::scalar::log_odds_with(&clf, text, &mut slow_buf);
        assert_eq!(fast.to_bits(), slow.to_bits(), "score diverged on {text:?}");
        checked += 1;
    };
    for_each_corpus_page(|_, text| check(text));
    ADVERSARIAL.iter().for_each(|s| check(s));
    for text in index_edge_texts() {
        check(&text);
    }
    assert!(checked > 50_000, "only {checked} texts checked");
    assert!(gated_out > 1_000, "only {gated_out} texts gated out");
    assert!(matched > 10_000, "only {matched} matches");
}
