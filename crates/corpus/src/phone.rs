//! US (NANP) phone numbers: the identifying attribute for all eight
//! local-business domains.
//!
//! The canonical form is the 10-digit number; [`PhoneFormat`] enumerates the
//! textual renderings that appear on generated pages, and the extractor in
//! `webstruct-extract` must recover the canonical form from any of them.

use crate::text::push_decimal;
use webstruct_util::rng::Xoshiro256;

/// A canonical 10-digit NANP phone number.
///
/// Invariants (enforced at construction): the area code and the exchange
/// code are in `[200, 999]` and neither ends in `11` (N11 codes are service
/// codes, never assigned to businesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhoneNumber(u64);

/// Error when constructing a [`PhoneNumber`] from digits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhoneError {
    /// Not exactly 10 digits.
    WrongLength(usize),
    /// Area code violates NANP rules.
    BadAreaCode(u16),
    /// Exchange code violates NANP rules.
    BadExchange(u16),
}

impl std::fmt::Display for PhoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhoneError::WrongLength(n) => write!(f, "expected 10 digits, got {n}"),
            PhoneError::BadAreaCode(a) => write!(f, "invalid NANP area code {a:03}"),
            PhoneError::BadExchange(e) => write!(f, "invalid NANP exchange {e:03}"),
        }
    }
}

impl std::error::Error for PhoneError {}

fn valid_nxx(code: u16) -> bool {
    (200..=999).contains(&code) && code % 100 != 11
}

impl PhoneNumber {
    /// Construct from components.
    ///
    /// # Errors
    /// Returns an error when area/exchange codes violate NANP rules or the
    /// line number exceeds 4 digits.
    pub fn new(area: u16, exchange: u16, line: u16) -> Result<Self, PhoneError> {
        if !valid_nxx(area) {
            return Err(PhoneError::BadAreaCode(area));
        }
        if !valid_nxx(exchange) {
            return Err(PhoneError::BadExchange(exchange));
        }
        if line > 9999 {
            return Err(PhoneError::WrongLength(11));
        }
        Ok(PhoneNumber(
            u64::from(area) * 10_000_000 + u64::from(exchange) * 10_000 + u64::from(line),
        ))
    }

    /// Construct from a 10-digit canonical value, validating NANP rules.
    ///
    /// # Errors
    /// Returns an error for out-of-range digit counts or invalid codes.
    pub fn from_digits(digits: u64) -> Result<Self, PhoneError> {
        if digits >= 10_000_000_000 {
            return Err(PhoneError::WrongLength(11));
        }
        let area = (digits / 10_000_000) as u16;
        let exchange = ((digits / 10_000) % 1000) as u16;
        let line = (digits % 10_000) as u16;
        PhoneNumber::new(area, exchange, line)
    }

    /// The canonical 10-digit value.
    #[must_use]
    pub fn digits(self) -> u64 {
        self.0
    }

    /// Area code (NPA).
    #[must_use]
    pub fn area(self) -> u16 {
        (self.0 / 10_000_000) as u16
    }

    /// Exchange code (NXX).
    #[must_use]
    pub fn exchange(self) -> u16 {
        ((self.0 / 10_000) % 1000) as u16
    }

    /// Line number.
    #[must_use]
    pub fn line(self) -> u16 {
        (self.0 % 10_000) as u16
    }

    /// Render in the given textual format.
    #[must_use]
    pub fn format(self, fmt: PhoneFormat) -> String {
        let mut out = String::with_capacity(16);
        self.format_into(fmt, &mut out);
        out
    }

    /// Append the textual rendering to `out` without allocating.
    ///
    /// This is the hot-path variant used by page rendering: the bytes
    /// appended are exactly those [`PhoneNumber::format`] would return.
    pub fn format_into(self, fmt: PhoneFormat, out: &mut String) {
        // (prefix, after area, after exchange) of each surface form.
        let (prefix, sep1, sep2) = match fmt {
            PhoneFormat::Paren => ("(", ") ", "-"),
            PhoneFormat::Dashes => ("", "-", "-"),
            PhoneFormat::Dots => ("", ".", "."),
            PhoneFormat::Plain => ("", "", ""),
            PhoneFormat::CountryCode => ("+1 ", " ", " "),
            PhoneFormat::OneDash => ("1-", "-", "-"),
        };
        out.push_str(prefix);
        push_decimal(out, u64::from(self.area()), 3);
        out.push_str(sep1);
        push_decimal(out, u64::from(self.exchange()), 3);
        out.push_str(sep2);
        push_decimal(out, u64::from(self.line()), 4);
    }

    /// Generate a random valid phone number. Line numbers are drawn from
    /// `0100..9999` to avoid the reserved `555-01xx` fictional block
    /// colliding with real-looking noise in tests.
    #[must_use]
    pub fn random(rng: &mut Xoshiro256) -> Self {
        loop {
            let area = rng.range_u64(200, 1000) as u16;
            let exchange = rng.range_u64(200, 1000) as u16;
            if !valid_nxx(area) || !valid_nxx(exchange) {
                continue;
            }
            let line = rng.range_u64(100, 10_000) as u16;
            if let Ok(p) = PhoneNumber::new(area, exchange, line) {
                return p;
            }
        }
    }
}

impl std::fmt::Display for PhoneNumber {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.format(PhoneFormat::Paren))
    }
}

/// Textual renderings of a phone number seen on the synthetic web.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhoneFormat {
    /// `(415) 555-0134`
    Paren,
    /// `415-555-0134`
    Dashes,
    /// `415.555.0134`
    Dots,
    /// `4155550134`
    Plain,
    /// `+1 415 555 0134`
    CountryCode,
    /// `1-415-555-0134`
    OneDash,
}

impl PhoneFormat {
    /// All formats.
    pub const ALL: [PhoneFormat; 6] = [
        PhoneFormat::Paren,
        PhoneFormat::Dashes,
        PhoneFormat::Dots,
        PhoneFormat::Plain,
        PhoneFormat::CountryCode,
        PhoneFormat::OneDash,
    ];

    /// Sample a format with web-realistic frequencies (parenthesised and
    /// dashed forms dominate).
    #[must_use]
    pub fn random(rng: &mut Xoshiro256) -> Self {
        let r = rng.f64();
        if r < 0.40 {
            PhoneFormat::Paren
        } else if r < 0.75 {
            PhoneFormat::Dashes
        } else if r < 0.85 {
            PhoneFormat::Dots
        } else if r < 0.92 {
            PhoneFormat::Plain
        } else if r < 0.97 {
            PhoneFormat::CountryCode
        } else {
            PhoneFormat::OneDash
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::rng::Seed;

    #[test]
    fn construction_validates_nanp() {
        assert!(PhoneNumber::new(415, 555, 134).is_ok());
        assert_eq!(
            PhoneNumber::new(123, 555, 0),
            Err(PhoneError::BadAreaCode(123))
        );
        assert_eq!(
            PhoneNumber::new(911, 555, 0),
            Err(PhoneError::BadAreaCode(911))
        );
        assert_eq!(
            PhoneNumber::new(415, 111, 0),
            Err(PhoneError::BadExchange(111))
        );
        assert_eq!(
            PhoneNumber::new(415, 411, 0),
            Err(PhoneError::BadExchange(411))
        );
    }

    #[test]
    fn digits_roundtrip() {
        let p = PhoneNumber::new(415, 555, 134).unwrap();
        assert_eq!(p.digits(), 4_155_550_134);
        assert_eq!(PhoneNumber::from_digits(4_155_550_134), Ok(p));
        assert_eq!(p.area(), 415);
        assert_eq!(p.exchange(), 555);
        assert_eq!(p.line(), 134);
    }

    #[test]
    fn from_digits_rejects_invalid() {
        assert!(PhoneNumber::from_digits(10_000_000_000).is_err());
        assert!(PhoneNumber::from_digits(1_234_567_890).is_err()); // area 123
        assert!(PhoneNumber::from_digits(9_114_567_890).is_err()); // area 911
    }

    #[test]
    fn all_formats_render_distinctly() {
        let p = PhoneNumber::new(415, 555, 134).unwrap();
        assert_eq!(p.format(PhoneFormat::Paren), "(415) 555-0134");
        assert_eq!(p.format(PhoneFormat::Dashes), "415-555-0134");
        assert_eq!(p.format(PhoneFormat::Dots), "415.555.0134");
        assert_eq!(p.format(PhoneFormat::Plain), "4155550134");
        assert_eq!(p.format(PhoneFormat::CountryCode), "+1 415 555 0134");
        assert_eq!(p.format(PhoneFormat::OneDash), "1-415-555-0134");
        assert_eq!(p.to_string(), "(415) 555-0134");
    }

    /// The `format!` rendering [`PhoneNumber::format_into`] replaced.
    fn format_reference(p: PhoneNumber, fmt: PhoneFormat) -> String {
        let (a, e, l) = (p.area(), p.exchange(), p.line());
        match fmt {
            PhoneFormat::Paren => format!("({a:03}) {e:03}-{l:04}"),
            PhoneFormat::Dashes => format!("{a:03}-{e:03}-{l:04}"),
            PhoneFormat::Dots => format!("{a:03}.{e:03}.{l:04}"),
            PhoneFormat::Plain => format!("{a:03}{e:03}{l:04}"),
            PhoneFormat::CountryCode => format!("+1 {a:03} {e:03} {l:04}"),
            PhoneFormat::OneDash => format!("1-{a:03}-{e:03}-{l:04}"),
        }
    }

    #[test]
    fn fmt_free_format_matches_format_reference() {
        let mut rng = Xoshiro256::from_seed(Seed(3));
        let edges = [(200, 200, 0), (999, 999, 9999), (202, 310, 7)];
        let phones = edges
            .iter()
            .map(|&(a, e, l)| PhoneNumber::new(a, e, l).expect("valid NANP literal"))
            .chain((0..2000).map(|_| PhoneNumber::random(&mut rng)));
        for p in phones {
            for fmt in PhoneFormat::ALL {
                assert_eq!(p.format(fmt), format_reference(p, fmt), "{p:?} {fmt:?}");
            }
        }
    }

    #[test]
    fn random_phones_are_valid_and_varied() {
        let mut rng = Xoshiro256::from_seed(Seed(1));
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..1000 {
            let p = PhoneNumber::random(&mut rng);
            assert!(PhoneNumber::from_digits(p.digits()).is_ok());
            distinct.insert(p.digits());
        }
        assert!(distinct.len() > 990, "collisions should be rare");
    }

    #[test]
    fn random_format_hits_all_variants() {
        let mut rng = Xoshiro256::from_seed(Seed(2));
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            seen.insert(format!("{:?}", PhoneFormat::random(&mut rng)));
        }
        assert_eq!(seen.len(), PhoneFormat::ALL.len());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            PhoneError::BadAreaCode(123).to_string(),
            "invalid NANP area code 123"
        );
        assert!(PhoneError::WrongLength(9).to_string().contains("10 digits"));
    }
}
