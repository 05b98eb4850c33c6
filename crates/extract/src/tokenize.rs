//! Word tokenisation for text classification.

use webstruct_util::bytescan::ByteTable;

/// Bytes that can start a token: ASCII letters plus every byte >= 0x80 —
/// any multibyte `char` begins with such a byte, and only multibyte chars
/// can be non-ASCII alphabetic. Skipping to the next member from a char
/// boundary can never land mid-char: the leading byte of a multibyte char
/// is itself a member, so the skip stops there first.
static TOKEN_BYTE: ByteTable = ByteTable::new(b"")
    .with_range(b'A', b'Z')
    .with_range(b'a', b'z')
    .with_range(0x80, 0xFF);

/// Lowercased alphabetic tokens of length >= 2. Digits and punctuation are
/// separators: phone numbers and ids carry no signal for the review
/// classifier and would bloat the vocabulary.
///
/// Owned-output convenience over [`for_each_token`]; sub-2-char tokens
/// never allocate an output `String`.
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut buf = String::new();
    for_each_token(text, &mut buf, |t| out.push(t.to_string()));
    out
}

/// Visit each token of `text` as a borrowed `&str`, assembled in `buf` (a
/// caller-owned scratch buffer, reused across tokens and across calls).
/// The allocation-free core of [`tokenize`]: Naïve-Bayes scoring looks
/// each slice up in its vocabulary without owning it.
///
/// Token length is tracked incrementally while lowercasing — the
/// original implementation re-counted `chars()` twice per token, an
/// O(len) pass repeated for every token on the hot path.
///
/// ASCII bytes take a branch-light fast path (`b | 0x20` lowercasing,
/// separator runs skipped with a byte-class table); bytes >= 0x80 fall back
/// to full `char` decoding so multibyte pages tokenize exactly as before.
/// `i` only ever advances from one char boundary to an ASCII byte or a
/// leading byte, so the `&text[i..]` slices below are always valid.
pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
    buf.clear();
    let bytes = text.as_bytes();
    // Count of lowercased chars in `buf` (a char may lowercase to several).
    let mut len = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if b.is_ascii() {
            if b.is_ascii_alphabetic() {
                buf.push((b | 0x20) as char);
                len += 1;
                i += 1;
                continue;
            }
            if len >= 2 {
                f(buf.as_str());
            }
            if len > 0 {
                buf.clear();
                len = 0;
            }
            match TOKEN_BYTE.find_in(bytes, i + 1) {
                Some(p) => i = p,
                None => return,
            }
        } else {
            let c = text[i..]
                .chars()
                .next()
                .expect("i is a char boundary below text.len()");
            if c.is_alphabetic() {
                for lc in c.to_lowercase() {
                    buf.push(lc);
                    len += 1;
                }
            } else if len > 0 {
                if len >= 2 {
                    f(buf.as_str());
                }
                buf.clear();
                len = 0;
            }
            i += c.len_utf8();
        }
    }
    if len >= 2 {
        f(buf.as_str());
    }
}

/// The original per-`char` tokenizer, kept as the differential reference
/// for the byte-loop rewrite above.
#[cfg(test)]
pub(crate) mod scalar {
    pub fn for_each_token(text: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        buf.clear();
        let mut len = 0usize;
        for c in text.chars() {
            if c.is_alphabetic() {
                for lc in c.to_lowercase() {
                    buf.push(lc);
                    len += 1;
                }
            } else if len > 0 {
                if len >= 2 {
                    f(buf.as_str());
                }
                buf.clear();
                len = 0;
            }
        }
        if len >= 2 {
            f(buf.as_str());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_and_lowercases() {
        assert_eq!(
            tokenize("The FOOD was great!"),
            vec!["the", "food", "was", "great"]
        );
    }

    #[test]
    fn digits_and_punctuation_separate() {
        assert_eq!(
            tokenize("call 415-555-0134 today"),
            vec!["call", "today"]
        );
        assert_eq!(tokenize("rated 4/5 stars"), vec!["rated", "stars"]);
    }

    #[test]
    fn single_letters_dropped() {
        assert_eq!(tokenize("a b cc d"), vec!["cc"]);
    }

    #[test]
    fn empty_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("1234 !!!").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(tokenize("Crème brûlée"), vec!["crème", "brûlée"]);
    }
}
