//! ISBN identifiers: the identifying attribute of the Books domain.
//!
//! The paper's book database is keyed by ISBN, matched on pages "formatted
//! either as a 10-digit or a 13-digit ISBN, along with the string 'ISBN' in
//! a small window near the match". We model the canonical identifier as the
//! 9-digit registration core; every core renders as a valid ISBN-10 (check
//! digit mod 11, `X` allowed) and as a valid 978-prefixed ISBN-13 (check
//! digit mod 10), hyphenated or plain.

use crate::text::push_decimal;
use webstruct_util::rng::Xoshiro256;

/// A book identifier: the 9-digit ISBN core (group + publisher + title).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Isbn(u32);

/// Error constructing an [`Isbn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsbnError {
    /// The core exceeds 9 digits.
    CoreOutOfRange(u64),
    /// A rendered string failed check-digit validation.
    BadCheckDigit,
    /// A rendered string has the wrong number of digits.
    WrongLength(usize),
    /// ISBN-13 prefix is not 978/979.
    BadPrefix,
}

impl std::fmt::Display for IsbnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsbnError::CoreOutOfRange(v) => write!(f, "ISBN core {v} exceeds 9 digits"),
            IsbnError::BadCheckDigit => write!(f, "check digit mismatch"),
            IsbnError::WrongLength(n) => write!(f, "expected 10 or 13 digits, got {n}"),
            IsbnError::BadPrefix => write!(f, "ISBN-13 must start with 978 or 979"),
        }
    }
}

impl std::error::Error for IsbnError {}

/// ISBN-10 check character for a 9-digit core: weighted sum with weights
/// 10..2, check = (11 - sum mod 11) mod 11, rendered as `X` when 10.
#[must_use]
pub fn isbn10_check_char(core: u32) -> char {
    let digits = core_digits(core);
    let sum: u32 = digits
        .iter()
        .enumerate()
        .map(|(i, &d)| (10 - i as u32) * u32::from(d))
        .sum();
    let check = (11 - sum % 11) % 11;
    if check == 10 {
        'X'
    } else {
        char::from_digit(check, 10).expect("digit < 10")
    }
}

/// ISBN-13 check digit for the 12 digits `978` + core.
#[must_use]
fn isbn13_check_digit(core: u32) -> u8 {
    let mut digits = [9u8, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0];
    digits[3..].copy_from_slice(&core_digits(core));
    let sum: u32 = digits
        .iter()
        .enumerate()
        .map(|(i, &d)| u32::from(d) * if i % 2 == 0 { 1 } else { 3 })
        .sum();
    ((10 - sum % 10) % 10) as u8
}

fn core_digits(core: u32) -> [u8; 9] {
    let mut out = [0u8; 9];
    let mut v = core;
    for slot in out.iter_mut().rev() {
        *slot = (v % 10) as u8;
        v /= 10;
    }
    out
}

impl Isbn {
    /// Construct from a 9-digit core.
    ///
    /// # Errors
    /// Returns [`IsbnError::CoreOutOfRange`] when `core >= 10^9`.
    pub fn new(core: u64) -> Result<Self, IsbnError> {
        if core >= 1_000_000_000 {
            return Err(IsbnError::CoreOutOfRange(core));
        }
        Ok(Isbn(core as u32))
    }

    /// The 9-digit core.
    #[must_use]
    pub fn core(self) -> u32 {
        self.0
    }

    /// Render as a plain 10-character ISBN-10.
    #[must_use]
    pub fn to_isbn10(self) -> String {
        let mut out = String::with_capacity(10);
        self.isbn10_into(&mut out);
        out
    }

    /// Append the plain ISBN-10 rendering to `out` without allocating.
    fn isbn10_into(self, out: &mut String) {
        push_decimal(out, u64::from(self.0), 9);
        out.push(isbn10_check_char(self.0));
    }

    /// Render as a hyphenated ISBN-10 (`0-306-40615-2`-style grouping; we
    /// use a fixed 1-3-5 grouping, which extractors must not depend on).
    #[must_use]
    pub fn to_isbn10_hyphenated(self) -> String {
        let mut out = String::with_capacity(13);
        self.isbn10_hyphenated_into(&mut out);
        out
    }

    /// Append the hyphenated ISBN-10 rendering to `out` without allocating.
    fn isbn10_hyphenated_into(self, out: &mut String) {
        let mut digits = [0u8; 10];
        self.isbn10_ascii(&mut digits);
        let s = std::str::from_utf8(&digits).expect("ASCII by construction");
        out.push_str(&s[0..1]);
        out.push('-');
        out.push_str(&s[1..4]);
        out.push('-');
        out.push_str(&s[4..9]);
        out.push('-');
        out.push_str(&s[9..10]);
    }

    /// Render as a plain 13-digit ISBN-13 (978 prefix).
    #[must_use]
    pub fn to_isbn13(self) -> String {
        let mut out = String::with_capacity(13);
        self.isbn13_into(&mut out);
        out
    }

    /// Append the plain ISBN-13 rendering to `out` without allocating.
    fn isbn13_into(self, out: &mut String) {
        out.push_str("978");
        push_decimal(out, u64::from(self.0), 9);
        out.push(char::from(b'0' + isbn13_check_digit(self.0)));
    }

    /// Render as a hyphenated ISBN-13.
    #[must_use]
    pub fn to_isbn13_hyphenated(self) -> String {
        let mut out = String::with_capacity(17);
        self.isbn13_hyphenated_into(&mut out);
        out
    }

    /// Append the hyphenated ISBN-13 rendering to `out` without allocating.
    fn isbn13_hyphenated_into(self, out: &mut String) {
        let mut digits = [0u8; 13];
        digits[0] = b'9';
        digits[1] = b'7';
        digits[2] = b'8';
        for (slot, d) in digits[3..12].iter_mut().zip(core_digits(self.0)) {
            *slot = b'0' + d;
        }
        digits[12] = b'0' + isbn13_check_digit(self.0);
        let s = std::str::from_utf8(&digits).expect("ASCII by construction");
        out.push_str(&s[0..3]);
        out.push('-');
        out.push_str(&s[3..4]);
        out.push('-');
        out.push_str(&s[4..7]);
        out.push('-');
        out.push_str(&s[7..12]);
        out.push('-');
        out.push_str(&s[12..13]);
    }

    /// The ten ASCII characters of the plain ISBN-10 form, into a stack
    /// buffer (digits plus a possible trailing `X`).
    fn isbn10_ascii(self, out: &mut [u8; 10]) {
        for (slot, d) in out[..9].iter_mut().zip(core_digits(self.0)) {
            *slot = b'0' + d;
        }
        out[9] = isbn10_check_char(self.0) as u8;
    }

    /// Parse any of the four renderings back to the core, verifying the
    /// check digit.
    ///
    /// # Errors
    /// Returns an error when the digit count (after stripping hyphens and
    /// spaces) is not 10 or 13, the 13-digit prefix is not 978, or the
    /// check digit fails.
    pub fn parse(text: &str) -> Result<Self, IsbnError> {
        // Collect up to 13 significant characters into a stack buffer —
        // parsing runs per candidate token on the extraction hot path, so
        // it must not allocate.
        let mut buf = ['\0'; 13];
        let mut len = 0usize;
        for c in text.chars().filter(|c| !matches!(c, '-' | ' ')) {
            if len < buf.len() {
                buf[len] = c;
            }
            len += 1;
        }
        if len > buf.len() {
            return Err(IsbnError::WrongLength(len));
        }
        let cleaned = &buf[..len];
        match cleaned.len() {
            10 => {
                let mut sum = 0u32;
                let mut core = 0u64;
                for (i, &c) in cleaned.iter().enumerate() {
                    let value = if i == 9 && (c == 'X' || c == 'x') {
                        10
                    } else {
                        c.to_digit(10).ok_or(IsbnError::BadCheckDigit)?
                    };
                    if i < 9 {
                        core = core * 10 + u64::from(value);
                    }
                    sum += (10 - i as u32) * value;
                }
                if !sum.is_multiple_of(11) {
                    return Err(IsbnError::BadCheckDigit);
                }
                Isbn::new(core)
            }
            13 => {
                if cleaned[0] != '9' || cleaned[1] != '7' || (cleaned[2] != '8') {
                    // 979 exists in the wild but our catalog only issues 978.
                    if cleaned[2] == '9' {
                        return Err(IsbnError::BadPrefix);
                    }
                    return Err(IsbnError::BadPrefix);
                }
                let mut sum = 0u32;
                let mut core = 0u64;
                for (i, &c) in cleaned.iter().enumerate() {
                    let value = c.to_digit(10).ok_or(IsbnError::BadCheckDigit)?;
                    if (3..12).contains(&i) {
                        core = core * 10 + u64::from(value);
                    }
                    sum += value * if i % 2 == 0 { 1 } else { 3 };
                }
                if !sum.is_multiple_of(10) {
                    return Err(IsbnError::BadCheckDigit);
                }
                Isbn::new(core)
            }
            n => Err(IsbnError::WrongLength(n)),
        }
    }

    /// Append a random rendering to `out` without allocating, weighted
    /// toward the hyphenated-13 form that dominates modern book pages.
    pub fn render_random_into(self, rng: &mut Xoshiro256, out: &mut String) {
        match rng.u64_below(5) {
            0 => self.isbn10_into(out),
            1 => self.isbn10_hyphenated_into(out),
            2 => self.isbn13_into(out),
            _ => self.isbn13_hyphenated_into(out),
        }
    }
}

impl std::fmt::Display for Isbn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_isbn13_hyphenated())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::rng::Seed;

    #[test]
    fn known_check_digits() {
        // 0-306-40615-2 is the canonical Wikipedia example.
        let isbn = Isbn::new(30_640_615).unwrap();
        assert_eq!(isbn.to_isbn10(), "0306406152");
        assert_eq!(isbn.to_isbn10_hyphenated(), "0-306-40615-2");
        // Its ISBN-13 form is 978-0-306-40615-7.
        assert_eq!(isbn.to_isbn13(), "9780306406157");
        assert_eq!(isbn.to_isbn13_hyphenated(), "978-0-306-40615-7");
    }

    #[test]
    fn check_char_x_case() {
        // Core 043942089 has weighted sum ≡ 1 mod 11 → check 'X'.
        // Find one programmatically to keep the test robust.
        let core = (0..200u32)
            .find(|&c| isbn10_check_char(c) == 'X')
            .expect("an X check digit exists among small cores");
        let isbn = Isbn::new(u64::from(core)).unwrap();
        assert!(isbn.to_isbn10().ends_with('X'));
        assert_eq!(Isbn::parse(&isbn.to_isbn10()), Ok(isbn));
    }

    #[test]
    fn parse_roundtrips_all_renderings() {
        let mut rng = Xoshiro256::from_seed(Seed(5));
        for _ in 0..500 {
            let isbn = Isbn::new(rng.u64_below(1_000_000_000)).unwrap();
            for s in [
                isbn.to_isbn10(),
                isbn.to_isbn10_hyphenated(),
                isbn.to_isbn13(),
                isbn.to_isbn13_hyphenated(),
            ] {
                assert_eq!(Isbn::parse(&s), Ok(isbn), "failed on {s}");
            }
        }
    }

    #[test]
    fn fmt_free_renderings_match_format_reference() {
        let mut rng = Xoshiro256::from_seed(Seed(7));
        let edges = [0, 1, 9, 10, 99_999_999, 100_000_000, 999_999_999];
        let cores = edges
            .into_iter()
            .chain((0..2000).map(|_| rng.u64_below(1_000_000_000)));
        for core in cores {
            let isbn = Isbn::new(core).expect("core < 10^9");
            let c = isbn.core();
            let i10 = format!("{c:09}{}", isbn10_check_char(c));
            let i13 = format!("978{c:09}{}", isbn13_check_digit(c));
            assert_eq!(isbn.to_isbn10(), i10);
            assert_eq!(isbn.to_isbn13(), i13);
            assert_eq!(
                isbn.to_isbn10_hyphenated(),
                format!("{}-{}-{}-{}", &i10[..1], &i10[1..4], &i10[4..9], &i10[9..])
            );
            assert_eq!(
                isbn.to_isbn13_hyphenated(),
                format!(
                    "{}-{}-{}-{}-{}",
                    &i13[..3],
                    &i13[3..4],
                    &i13[4..7],
                    &i13[7..12],
                    &i13[12..]
                )
            );
        }
    }

    #[test]
    fn parse_rejects_corrupted_check_digit() {
        let isbn = Isbn::new(123_456_789).unwrap();
        let mut s10 = isbn.to_isbn10();
        let last = s10.pop().unwrap();
        let wrong = if last == '0' { '1' } else { '0' };
        s10.push(wrong);
        assert_eq!(Isbn::parse(&s10), Err(IsbnError::BadCheckDigit));

        let mut s13 = isbn.to_isbn13();
        let last = s13.pop().unwrap();
        let wrong = if last == '0' { '1' } else { '0' };
        s13.push(wrong);
        assert_eq!(Isbn::parse(&s13), Err(IsbnError::BadCheckDigit));
    }

    #[test]
    fn parse_rejects_bad_lengths_and_prefix() {
        assert_eq!(Isbn::parse("12345"), Err(IsbnError::WrongLength(5)));
        assert_eq!(Isbn::parse(""), Err(IsbnError::WrongLength(0)));
        // 977 prefix (a periodical, not a book) must be rejected.
        assert_eq!(Isbn::parse("9771234567898"), Err(IsbnError::BadPrefix));
    }

    #[test]
    fn new_rejects_wide_core() {
        assert_eq!(
            Isbn::new(1_000_000_000),
            Err(IsbnError::CoreOutOfRange(1_000_000_000))
        );
    }

    #[test]
    fn render_random_always_parses_back() {
        let mut rng = Xoshiro256::from_seed(Seed(6));
        let isbn = Isbn::new(424_242_424).unwrap();
        for _ in 0..50 {
            let mut s = String::new();
            isbn.render_random_into(&mut rng, &mut s);
            assert_eq!(Isbn::parse(&s), Ok(isbn));
        }
    }

    #[test]
    fn display_is_hyphenated_13() {
        let isbn = Isbn::new(30_640_615).unwrap();
        assert_eq!(isbn.to_string(), "978-0-306-40615-7");
    }
}
