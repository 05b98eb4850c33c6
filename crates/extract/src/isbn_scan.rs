//! The ISBN extractor: finds 10/13-digit ISBN-shaped tokens and accepts
//! them only when the string `ISBN` occurs in a small window near the
//! match and the check digit validates — exactly the methodology of §3.2
//! of the paper.

use webstruct_corpus::isbn::Isbn;
use webstruct_util::bytescan;

/// Marker window, in bytes, searched on each side of a candidate.
pub const MARKER_WINDOW: usize = 24;

/// One ISBN match in a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IsbnMatch {
    /// The parsed ISBN.
    pub isbn: Isbn,
    /// Byte offset of the first character of the token.
    pub start: usize,
    /// Byte offset one past the token.
    pub end: usize,
}

/// Visit every ISBN in `text` with a nearby `ISBN` marker
/// (case-insensitive), in document order. Allocation-free:
/// candidates are found by jumping straight to digit-run starts and the
/// `ISBN` marker is matched case-insensitively in place, so no lowercased
/// copy of the page is ever built.
pub fn for_each_isbn(text: &str, mut f: impl FnMut(IsbnMatch)) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(p) = bytescan::find_ascii_digit(bytes, i) {
        i = p;
        if i > 0 && is_token_byte(bytes[i - 1]) {
            // Mid-token digit: every later digit in this token is also
            // preceded by a token byte, so skip the whole token at once.
            while i < bytes.len() && is_token_byte(bytes[i]) {
                i += 1;
            }
            continue;
        }
        // Collect the maximal token of digits/hyphens/X.
        let start = i;
        let mut j = i;
        while j < bytes.len() && is_token_byte(bytes[j]) {
            j += 1;
        }
        // Trim trailing hyphens (sentence punctuation like "978-...-7-").
        let mut end = j;
        while end > start && bytes[end - 1] == b'-' {
            end -= 1;
        }
        let token = &text[start..end];
        if let Ok(isbn) = Isbn::parse(token) {
            if has_marker_nearby(text, start, end) {
                f(IsbnMatch { isbn, start, end });
            }
        }
        i = j.max(i + 1);
    }
}

/// Whether `text` contains `isbn` in any ASCII case, read from the `b`
/// masks of its class index (one per 64-byte block, in order): each `b`
/// or `B` is tested in place for the `is` before it and the `n` after
/// it, so a marker split across a block edge is found too.
///
/// This is an exact gate for [`for_each_isbn`]: every marker window it
/// searches is a substring of `text`, so a text without `isbn` yields no
/// match, and skipping the scan changes nothing.
pub(crate) fn has_marker_in(text: &str, b_masks: impl IntoIterator<Item = u64>) -> bool {
    let bytes = text.as_bytes();
    for (k, mut m) in b_masks.into_iter().enumerate() {
        while m != 0 {
            let p = 64 * k + m.trailing_zeros() as usize;
            m &= m - 1;
            let marker = p
                .checked_sub(2)
                .and_then(|lo| bytes.get(lo..p + 2))
                .is_some_and(|w| w.eq_ignore_ascii_case(b"isbn"));
            if marker {
                return true;
            }
        }
    }
    false
}

fn is_token_byte(b: u8) -> bool {
    b.is_ascii_digit() || b == b'-' || b == b'X' || b == b'x'
}

fn has_marker_nearby(text: &str, start: usize, end: usize) -> bool {
    let lo = start.saturating_sub(MARKER_WINDOW);
    let hi = (end + MARKER_WINDOW).min(text.len());
    // The window bounds are byte offsets that may split UTF-8 sequences in
    // pathological inputs; widen to char boundaries exactly as the old
    // lowercased-copy implementation did, then match `isbn` ignoring ASCII
    // case — identical to `lowered_window.contains("isbn")`.
    let lo = floor_char_boundary(text, lo);
    let hi = ceil_char_boundary(text, hi);
    bytescan::find_ascii_ci(&text.as_bytes()[lo..hi], b"isbn").is_some()
}

fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn ceil_char_boundary(s: &str, mut i: usize) -> usize {
    while i < s.len() && !s.is_char_boundary(i) {
        i += 1;
    }
    i
}

/// The original scanner — every-byte walk over a full lowercased copy —
/// kept as the differential reference for the in-place rewrite above.
#[cfg(test)]
pub(crate) mod scalar {
    use super::{
        ceil_char_boundary, floor_char_boundary, is_token_byte, Isbn, IsbnMatch, MARKER_WINDOW,
    };

    pub fn for_each_isbn(text: &str, lower_buf: &mut String, mut f: impl FnMut(IsbnMatch)) {
        let bytes = text.as_bytes();
        lower_buf.clear();
        lower_buf.reserve(text.len());
        lower_buf.extend(text.chars().map(|c| c.to_ascii_lowercase()));
        let mut i = 0;
        while i < bytes.len() {
            if !bytes[i].is_ascii_digit() || (i > 0 && is_token_byte(bytes[i - 1])) {
                i += 1;
                continue;
            }
            let start = i;
            let mut j = i;
            while j < bytes.len() && is_token_byte(bytes[j]) {
                j += 1;
            }
            let mut end = j;
            while end > start && bytes[end - 1] == b'-' {
                end -= 1;
            }
            let token = &text[start..end];
            if let Ok(isbn) = Isbn::parse(token) {
                if has_marker_nearby(lower_buf, start, end) {
                    f(IsbnMatch { isbn, start, end });
                }
            }
            i = j.max(i + 1);
        }
    }

    fn has_marker_nearby(lower: &str, start: usize, end: usize) -> bool {
        let lo = start.saturating_sub(MARKER_WINDOW);
        let hi = (end + MARKER_WINDOW).min(lower.len());
        let lo = floor_char_boundary(lower, lo);
        let hi = ceil_char_boundary(lower, hi);
        lower[lo..hi].contains("isbn")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_isbns(text: &str) -> Vec<IsbnMatch> {
        let mut out = Vec::new();
        for_each_isbn(text, |m| out.push(m));
        out
    }

    fn cores(text: &str) -> Vec<u32> {
        scan_isbns(text).into_iter().map(|m| m.isbn.core()).collect()
    }

    #[test]
    fn finds_marked_isbn13() {
        let isbn = Isbn::new(30_640_615).expect("literal fits the 9-digit ISBN core range");
        let text = format!("Available now. ISBN: {}", isbn.to_isbn13_hyphenated());
        assert_eq!(cores(&text), vec![isbn.core()]);
    }

    #[test]
    fn finds_marked_isbn10_including_x_check() {
        let core = (0..500u32)
            .find(|&c| webstruct_corpus::isbn::isbn10_check_char(c) == 'X')
            .expect("check digit 10 ('X') occurs once per 11 consecutive cores");
        let isbn = Isbn::new(u64::from(core)).expect("core < 500 fits the 9-digit ISBN core range");
        let text = format!("ISBN {}", isbn.to_isbn10());
        assert_eq!(cores(&text), vec![isbn.core()]);
    }

    #[test]
    fn marker_may_follow_the_number() {
        let isbn = Isbn::new(123_456_789).expect("literal fits the 9-digit ISBN core range");
        let text = format!("{} (ISBN)", isbn.to_isbn13());
        assert_eq!(cores(&text), vec![isbn.core()]);
    }

    #[test]
    fn rejects_unmarked_isbn_shaped_numbers() {
        let isbn = Isbn::new(123_456_789).expect("literal fits the 9-digit ISBN core range");
        let text = format!("Catalog number {} in stock", isbn.to_isbn13());
        assert!(cores(&text).is_empty());
    }

    #[test]
    fn rejects_marker_outside_window() {
        let isbn = Isbn::new(123_456_789).expect("literal fits the 9-digit ISBN core range");
        let padding = "x".repeat(MARKER_WINDOW + 10);
        let text = format!("ISBN {padding} {}", isbn.to_isbn13());
        assert!(cores(&text).is_empty());
    }

    #[test]
    fn rejects_bad_check_digit_even_with_marker() {
        let isbn = Isbn::new(123_456_789).expect("literal fits the 9-digit ISBN core range");
        let mut s = isbn.to_isbn13();
        let last = s.pop().expect("a rendered ISBN-13 is never empty");
        s.push(if last == '0' { '1' } else { '0' });
        let text = format!("ISBN {s}");
        assert!(cores(&text).is_empty());
    }

    #[test]
    fn match_offsets_cover_token() {
        let isbn = Isbn::new(55_555_555).expect("literal fits the 9-digit ISBN core range");
        let rendered = isbn.to_isbn13_hyphenated();
        let text = format!("ISBN {rendered}.");
        let m = scan_isbns(&text)[0];
        assert_eq!(&text[m.start..m.end], rendered);
    }

    #[test]
    fn multiple_isbns_on_one_page() {
        let a = Isbn::new(111_111_111).expect("literal fits the 9-digit ISBN core range");
        let b = Isbn::new(222_222_222).expect("literal fits the 9-digit ISBN core range");
        let text = format!(
            "First ISBN {} and second ISBN {}",
            a.to_isbn13(),
            b.to_isbn10()
        );
        assert_eq!(cores(&text), vec![a.core(), b.core()]);
    }

    #[test]
    fn long_digit_runs_are_not_isbns() {
        let text = "ISBN 12345678901234567890";
        assert!(cores(text).is_empty());
    }

    #[test]
    fn handles_unicode_neighbourhoods() {
        let isbn = Isbn::new(777_777_777).expect("literal fits the 9-digit ISBN core range");
        let text = format!("Crème brûlée — ISBN {} — è", isbn.to_isbn13_hyphenated());
        assert_eq!(cores(&text), vec![isbn.core()]);
    }
}
