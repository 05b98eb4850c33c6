//! The US phone-number extractor: "a standard regular expression based US
//! phone number extractor" in the paper, implemented here as a hand-rolled
//! scanner (equivalent power, no regex dependency, and considerably faster
//! on the corpus hot path).
//!
//! Recognised surface forms (see [`crate::html::strip_tags_into`] — scanning
//! runs on visible text):
//!
//! * `(415) 555-0134`
//! * `415-555-0134` and `415.555.0134`
//! * `4155550134` (a standalone 10-digit run)
//! * `+1 415 555 0134` and `1-415-555-0134`
//!
//! Every candidate is validated against NANP rules (area/exchange in
//! `[2-9]xx`, no N11 codes), which is what keeps precision high on noisy
//! pages (§3.5 of the paper).

use webstruct_corpus::phone::PhoneNumber;
use webstruct_util::bytescan::{blocks64, classes64, Classes64};

/// One phone match in a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhoneMatch {
    /// The canonical 10-digit number.
    pub phone: PhoneNumber,
    /// Byte offset of the first matched character.
    pub start: usize,
    /// Byte offset one past the last matched character.
    pub end: usize,
}

/// Visit every US phone number in `text` in document order, allocation
/// free: the hot extraction path resolves matches against the catalog
/// without materialising a `Vec`.
pub fn for_each_phone(text: &str, f: impl FnMut(PhoneMatch)) {
    for_each_phone_in(text, blocks64(text.as_bytes(), classes64), f);
}

/// [`for_each_phone`] over the precomputed class index of `text`: one
/// [`Classes64`] per 64-byte block, in order.
///
/// A candidate is a digit, `(` or `+` whose previous byte is not a digit
/// (a start inside a longer digit run would be a tracking number):
/// `(digits | paren_plus) & !(digits << 1 | carry)`, with the previous
/// block's last digit bit carried in. These are exactly the bytes
/// `match_candidate` dispatches on, so trying them in order, skipping
/// those before the end of the last match, tries exactly the positions
/// of the every-byte scan.
pub(crate) fn for_each_phone_in(
    text: &str,
    blocks: impl IntoIterator<Item = Classes64>,
    mut f: impl FnMut(PhoneMatch),
) {
    let bytes = text.as_bytes();
    let mut next = 0usize;
    let mut carry = 0u64;
    for (k, c) in blocks.into_iter().enumerate() {
        let mut cand = (c.digits | c.paren_plus) & !((c.digits << 1) | carry);
        carry = c.digits >> 63;
        while cand != 0 {
            let start = 64 * k + cand.trailing_zeros() as usize;
            cand &= cand - 1;
            if start < next {
                continue;
            }
            if let Some((digits, end)) = match_candidate(bytes, start) {
                if let Ok(phone) = PhoneNumber::from_digits(digits) {
                    f(PhoneMatch { phone, start, end });
                    next = end;
                }
            }
        }
    }
}

/// Try to match one phone candidate starting exactly at `start`.
/// Returns the 10 digits and the end offset.
fn match_candidate(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    match bytes[start] {
        b'(' => match_paren(bytes, start),
        b'+' => match_plus_one(bytes, start),
        b'1' => match_one_dash(bytes, start),
        b if b.is_ascii_digit() => match_bare(bytes, start),
        _ => None,
    }
}

/// `(415) 555-0134` — optional space after the `)`.
fn match_paren(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut i = start + 1;
    let area = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b')')?;
    if i < bytes.len() && bytes[i] == b' ' {
        i += 1;
    }
    let exchange = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b'-')?;
    let line = take_digits(bytes, &mut i, 4)?;
    boundary(bytes, i)?;
    Some((area * 10_000_000 + exchange * 10_000 + line, i))
}

/// `+1 415 555 0134`.
fn match_plus_one(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut i = start + 1;
    eat(bytes, &mut i, b'1')?;
    eat(bytes, &mut i, b' ')?;
    let area = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b' ')?;
    let exchange = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b' ')?;
    let line = take_digits(bytes, &mut i, 4)?;
    boundary(bytes, i)?;
    Some((area * 10_000_000 + exchange * 10_000 + line, i))
}

/// `1-415-555-0134`.
fn match_one_dash(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut i = start + 1;
    eat(bytes, &mut i, b'-')?;
    let area = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b'-')?;
    let exchange = take_digits(bytes, &mut i, 3)?;
    eat(bytes, &mut i, b'-')?;
    let line = take_digits(bytes, &mut i, 4)?;
    boundary(bytes, i)?;
    Some((area * 10_000_000 + exchange * 10_000 + line, i))
}

/// `415-555-0134`, `415.555.0134` (consistent separator) or `4155550134`.
fn match_bare(bytes: &[u8], start: usize) -> Option<(u64, usize)> {
    let mut i = start;
    let area = take_digits(bytes, &mut i, 3)?;
    // Separator case.
    if i < bytes.len() && (bytes[i] == b'-' || bytes[i] == b'.') {
        let sep = bytes[i];
        i += 1;
        let exchange = take_digits(bytes, &mut i, 3)?;
        eat(bytes, &mut i, sep)?;
        let line = take_digits(bytes, &mut i, 4)?;
        boundary(bytes, i)?;
        return Some((area * 10_000_000 + exchange * 10_000 + line, i));
    }
    // Plain 10-digit run: exactly 7 more digits, then a non-digit boundary.
    let rest = take_digits(bytes, &mut i, 7)?;
    boundary(bytes, i)?;
    Some((area * 10_000_000 + rest, i))
}

fn take_digits(bytes: &[u8], i: &mut usize, n: usize) -> Option<u64> {
    if *i + n > bytes.len() {
        return None;
    }
    let mut value = 0u64;
    for k in 0..n {
        let b = bytes[*i + k];
        if !b.is_ascii_digit() {
            return None;
        }
        value = value * 10 + u64::from(b - b'0');
    }
    *i += n;
    Some(value)
}

fn eat(bytes: &[u8], i: &mut usize, expected: u8) -> Option<()> {
    if *i < bytes.len() && bytes[*i] == expected {
        *i += 1;
        Some(())
    } else {
        None
    }
}

/// The match must not be followed by another digit.
fn boundary(bytes: &[u8], i: usize) -> Option<()> {
    if i < bytes.len() && bytes[i].is_ascii_digit() {
        None
    } else {
        Some(())
    }
}

/// The original every-byte scanner, kept as the differential reference
/// for the class-index scan above.
#[cfg(test)]
pub(crate) mod scalar {
    use super::{match_candidate, PhoneMatch, PhoneNumber};

    pub fn for_each_phone(text: &str, mut f: impl FnMut(PhoneMatch)) {
        let bytes = text.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if i > 0 && bytes[i - 1].is_ascii_digit() {
                i += 1;
                continue;
            }
            if let Some((digits, end)) = match_candidate(bytes, i) {
                if let Ok(phone) = PhoneNumber::from_digits(digits) {
                    f(PhoneMatch {
                        phone,
                        start: i,
                        end,
                    });
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_corpus::phone::PhoneFormat;
    use webstruct_util::rng::{Seed, Xoshiro256};

    fn scan_phones(text: &str) -> Vec<PhoneMatch> {
        let mut out = Vec::new();
        for_each_phone(text, |m| out.push(m));
        out
    }

    fn digits_of(text: &str) -> Vec<u64> {
        scan_phones(text)
            .into_iter()
            .map(|m| m.phone.digits())
            .collect()
    }

    #[test]
    fn matches_all_rendered_formats() {
        let phone = PhoneNumber::new(415, 555, 134).unwrap();
        for fmt in PhoneFormat::ALL {
            let text = format!("Call us at {} today!", phone.format(fmt));
            assert_eq!(digits_of(&text), vec![phone.digits()], "format {fmt:?}");
        }
    }

    #[test]
    fn match_offsets_cover_the_literal() {
        let text = "Call (415) 555-0134 now";
        let m = scan_phones(text)[0];
        assert_eq!(&text[m.start..m.end], "(415) 555-0134");
    }

    #[test]
    fn rejects_invalid_area_and_exchange() {
        assert!(digits_of("Call 123-555-0134").is_empty()); // area 1xx
        assert!(digits_of("Call 011-555-0134").is_empty()); // area 0xx
        assert!(digits_of("Call 911-555-0134").is_empty()); // N11 area
        assert!(digits_of("Call 415-411-0134").is_empty()); // N11 exchange
        assert!(digits_of("Call 415-155-0134").is_empty()); // exchange 1xx
    }

    #[test]
    fn rejects_digit_runs_that_are_too_long() {
        assert!(digits_of("Order #415555013412").is_empty());
        assert!(digits_of("id 74155550134").is_empty()); // 11-digit run
        assert!(digits_of("4155550134999").is_empty());
    }

    #[test]
    fn accepts_plain_run_with_boundaries() {
        assert_eq!(digits_of("code:4155550134."), vec![4_155_550_134]);
        assert_eq!(digits_of("4155550134"), vec![4_155_550_134]);
    }

    #[test]
    fn rejects_mixed_separators() {
        assert!(digits_of("415-555.0134").is_empty());
        assert!(digits_of("415.555-0134").is_empty());
    }

    #[test]
    fn finds_multiple_phones_in_one_document() {
        let text = "A: (415) 555-0134, B: 212-555-9876, junk 123-456-7890.";
        assert_eq!(digits_of(text), vec![4_155_550_134, 2_125_559_876]);
    }

    #[test]
    fn ignores_partial_paren_forms() {
        assert!(digits_of("(415 555-0134").is_empty());
        assert!(digits_of("(415)555-013").is_empty());
    }

    #[test]
    fn one_dash_form_is_not_confused_with_bare() {
        // `1-415-555-0134` must not also yield a bogus 415... match.
        assert_eq!(digits_of("dial 1-415-555-0134 now"), vec![4_155_550_134]);
    }

    #[test]
    fn random_valid_numbers_always_roundtrip() {
        let mut rng = Xoshiro256::from_seed(Seed(77));
        for _ in 0..500 {
            let p = PhoneNumber::random(&mut rng);
            let fmt = PhoneFormat::random(&mut rng);
            let text = format!("xx {} yy", p.format(fmt));
            assert_eq!(digits_of(&text), vec![p.digits()], "{text}");
        }
    }

    #[test]
    fn empty_and_digitless_text() {
        assert!(digits_of("").is_empty());
        assert!(digits_of("no numbers here at all").is_empty());
    }
}
