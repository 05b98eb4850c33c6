//! A minimal HTML-lite parser: enough structure-awareness for the study's
//! extraction pipeline — anchor `href` extraction (the paper's homepage
//! methodology looks at "the content of href tags of all anchor nodes") and
//! tag stripping for text classification.
//!
//! This is deliberately not a spec-compliant HTML5 parser: the corpus
//! renders a constrained HTML subset, and the parser is robust to the
//! malformed fragments the noise models emit (unterminated tags, stray
//! angle brackets).
//!
//! The scanners skip straight to `<` / `>` / attribute-name candidates
//! with the word-at-a-time kernels in [`webstruct_util::bytescan`]
//! instead of walking every character; `#[cfg(test)] mod scalar` retains
//! the original per-char implementations as differential references.

use webstruct_util::bytescan;

/// Visit the `href` value of every `<a ...>` tag as a borrowed slice of
/// `html`, with the tag's byte offset: the tag walk of
/// [`strip_tags_and_hrefs_into`] without the text.
///
/// Accepts single-quoted, double-quoted and unquoted attribute values;
/// attribute matching is case-insensitive.
pub fn for_each_anchor_href(html: &str, f: impl FnMut(&str, usize)) {
    walk_tags(html, None, f);
}

/// The one tag walk behind [`strip_tags_and_hrefs_into`],
/// [`strip_tags_into`] and [`for_each_anchor_href`]: jump between `<`/`>`
/// delimiters, copy the visible spans into `text` (when given), and hand
/// each `<a …>` tag's `href` to `on_href` with the tag's byte offset.
///
/// Text follows the per-char state machine: `<` always emits one space
/// (even nested inside a tag), `>` closes without emitting, and text
/// inside tags is dropped. A tag runs from the `<` that opened it to the
/// first `>` after it, so a nested `<` belongs to the open tag's body and
/// a stray `>` outside a tag is dropped; a tag still open at EOF yields
/// no href. Both delimiters are ASCII, so every span edge is a UTF-8
/// character boundary (see `bytescan`'s module docs) and no slice splits
/// a code point.
fn walk_tags(html: &str, mut text: Option<&mut String>, mut on_href: impl FnMut(&str, usize)) {
    let bytes = html.as_bytes();
    let mut i = 0;
    let mut open: Option<usize> = None;
    while let Some(p) = bytescan::memchr2(b'<', b'>', &bytes[i..]).map(|p| i + p) {
        if open.is_none() {
            if let Some(out) = text.as_deref_mut() {
                out.push_str(&html[i..p]);
            }
        }
        if bytes[p] == b'<' {
            open.get_or_insert(p);
            if let Some(out) = text.as_deref_mut() {
                out.push(' ');
            }
        } else if let Some(tag_start) = open.take() {
            let tag = &html[tag_start + 1..p];
            // Must be exactly "a" followed by ASCII whitespace (not <abbr>
            // etc.); a bare <a> has no href.
            let t = tag.as_bytes();
            if t.len() >= 2 && matches!(t[0], b'a' | b'A') && t[1].is_ascii_whitespace() {
                if let Some(href) = find_attr(tag, "href") {
                    on_href(href, tag_start);
                }
            }
        }
        i = p + 1;
    }
    if open.is_none() {
        if let Some(out) = text {
            out.push_str(&html[i..]);
        }
    }
}

/// Find the value of `attr` within a tag body (case-insensitive name),
/// returned as a borrowed slice of the tag. No allocation: candidate
/// positions come from [`bytescan::find_ascii_ci`] rather than a
/// byte-at-a-time walk, and the name never needs a lowercased copy.
pub(crate) fn find_attr<'t>(tag: &'t str, attr: &str) -> Option<&'t str> {
    let bytes = tag.as_bytes();
    let name = attr.as_bytes();
    let mut pos = 0;
    while pos + name.len() <= bytes.len() {
        let hit = pos + bytescan::find_ascii_ci(&bytes[pos..], name)?;
        // Must be preceded by whitespace and followed (possibly after
        // spaces) by '='.
        let before_ok = hit > 0 && bytes[hit - 1].is_ascii_whitespace();
        let after = tag[hit + name.len()..].trim_start();
        if before_ok && after.starts_with('=') {
            let value = after[1..].trim_start();
            return Some(parse_attr_value(value));
        }
        pos = hit + name.len();
    }
    None
}

fn parse_attr_value(value: &str) -> &str {
    let mut chars = value.chars();
    match chars.next() {
        Some(q @ ('"' | '\'')) => {
            let body = &value[1..];
            &body[..body.find(q).unwrap_or(body.len())]
        }
        Some(_) => {
            let end = value
                .find(|c: char| c.is_ascii_whitespace())
                .unwrap_or(value.len());
            &value[..end]
        }
        None => "",
    }
}

/// Strip tags into a reused buffer (cleared first), leaving the visible
/// text with tags replaced by single spaces (so tokens never merge across
/// tag boundaries). Steady-state calls allocate nothing once the buffer
/// has grown to the largest page seen.
pub fn strip_tags_into(html: &str, out: &mut String) {
    strip_tags_and_hrefs_into(html, out, |_, _| {});
}

/// Strip tags into a reused buffer (cleared first) and, in the same walk,
/// visit every `<a ...>` tag's `href` in document order, exactly as
/// [`for_each_anchor_href`] would: the one HTML pass of the extraction
/// pipeline.
pub fn strip_tags_and_hrefs_into(html: &str, out: &mut String, on_href: impl FnMut(&str, usize)) {
    out.clear();
    out.reserve(html.len());
    walk_tags(html, Some(out), on_href);
}

/// Write the host of an absolute URL (`http://` / `https://`), lowercased
/// and with any `www.` prefix removed, into a reused buffer (cleared
/// first), returning `false` for other schemes or malformed input. One
/// byte loop finds the host end (`/`, `?`, `#` or `:`) and whether it
/// holds a `.`.
pub fn url_host_into(url: &str, out: &mut String) -> bool {
    out.clear();
    let bytes = url.as_bytes();
    let start = if bytes.starts_with(b"http://") || bytes.starts_with(b"HTTP://") {
        7
    } else if bytes.starts_with(b"https://") || bytes.starts_with(b"HTTPS://") {
        8
    } else {
        return false;
    };
    let mut end = start;
    let mut dot = false;
    while end < bytes.len() {
        match bytes[end] {
            b'/' | b'?' | b'#' | b':' => break,
            b'.' => dot = true,
            _ => {}
        }
        end += 1;
    }
    if !dot {
        return false;
    }
    // Strip a `www.` prefix case-insensitively; a host that is nothing
    // else is malformed.
    let host = if end - start >= 4 && bytes[start..start + 4].eq_ignore_ascii_case(b"www.") {
        start + 4
    } else {
        start
    };
    if host == end {
        return false;
    }
    // Every boundary above sits next to an ASCII byte, so the slice is
    // whole characters.
    out.push_str(&url[host..end]);
    out.make_ascii_lowercase();
    true
}

/// The original per-character scanners and `strip_prefix`-chain host
/// parser, kept verbatim as reference implementations: the differential
/// tests (here and in `crate::differential`) assert the `bytescan`-based
/// rewrites above are observably identical on every input.
#[cfg(test)]
pub(crate) mod scalar {
    pub fn for_each_anchor_href(html: &str, mut f: impl FnMut(&str, usize)) {
        let bytes = html.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            if bytes[i] != b'<' {
                i += 1;
                continue;
            }
            let tag_start = i;
            let Some(rel_end) = html[i..].find('>') else {
                break;
            };
            let tag = &html[i + 1..i + rel_end];
            i += rel_end + 1;
            let mut chars = tag.chars();
            let first = chars.next();
            if !matches!(first, Some('a' | 'A')) {
                continue;
            }
            match chars.next() {
                Some(c) if !c.is_ascii_whitespace() => continue,
                None => continue,
                _ => {}
            }
            if let Some(href) = find_attr(tag, "href") {
                f(href, tag_start);
            }
        }
    }

    pub fn find_attr<'t>(tag: &'t str, attr: &str) -> Option<&'t str> {
        let bytes = tag.as_bytes();
        let name = attr.as_bytes();
        let mut pos = 0;
        while pos + name.len() <= bytes.len() {
            if !bytes[pos..pos + name.len()].eq_ignore_ascii_case(name) {
                pos += 1;
                continue;
            }
            let before_ok = pos > 0 && bytes[pos - 1].is_ascii_whitespace();
            let after = tag[pos + name.len()..].trim_start();
            if before_ok && after.starts_with('=') {
                let value = after[1..].trim_start();
                return Some(super::parse_attr_value(value));
            }
            pos += name.len();
        }
        None
    }

    pub fn url_host_into(url: &str, out: &mut String) -> bool {
        out.clear();
        let Some(rest) = url
            .strip_prefix("http://")
            .or_else(|| url.strip_prefix("https://"))
            .or_else(|| url.strip_prefix("HTTP://"))
            .or_else(|| url.strip_prefix("HTTPS://"))
        else {
            return false;
        };
        let host_end = rest.find(['/', '?', '#', ':']).unwrap_or(rest.len());
        let host = &rest[..host_end];
        if host.is_empty() || !host.contains('.') {
            return false;
        }
        let host = if host.len() >= 4 && host.as_bytes()[..4].eq_ignore_ascii_case(b"www.") {
            &host[4..]
        } else {
            host
        };
        if host.is_empty() {
            return false;
        }
        out.extend(host.chars().map(|c| c.to_ascii_lowercase()));
        true
    }

    pub fn strip_tags_into(html: &str, out: &mut String) {
        out.clear();
        out.reserve(html.len());
        let mut in_tag = false;
        for c in html.chars() {
            match c {
                '<' => {
                    in_tag = true;
                    out.push(' ');
                }
                '>' => in_tag = false,
                _ if !in_tag => out.push(c),
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every anchor's `(href, offset)`, in document order.
    fn anchor_hrefs(html: &str) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for_each_anchor_href(html, |href, offset| out.push((href.to_string(), offset)));
        out
    }

    fn strip_tags(html: &str) -> String {
        let mut out = String::new();
        strip_tags_into(html, &mut out);
        out
    }

    fn url_host(url: &str) -> Option<String> {
        let mut out = String::new();
        url_host_into(url, &mut out).then_some(out)
    }

    #[test]
    fn extracts_double_quoted_hrefs() {
        let html = r#"<p>Hello</p><a href="http://foo.example.com/">foo</a>"#;
        let anchors = anchor_hrefs(html);
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].0, "http://foo.example.com/");
        assert!(anchors[0].1 > 0);
    }

    #[test]
    fn extracts_single_quoted_and_unquoted() {
        let html = "<a href='http://a.example.com/x'>a</a> <a href=http://b.example.com/>b</a>";
        let hrefs: Vec<String> = anchor_hrefs(html).into_iter().map(|a| a.0).collect();
        assert_eq!(
            hrefs,
            vec!["http://a.example.com/x", "http://b.example.com/"]
        );
    }

    #[test]
    fn ignores_non_anchor_tags_and_anchors_without_href() {
        let html = r#"<abbr href="x">n</abbr><area href="y"><a name="top">t</a>"#;
        assert!(anchor_hrefs(html).is_empty());
    }

    #[test]
    fn case_insensitive_attr_and_extra_attrs() {
        let html = r#"<A class="btn" HREF="http://c.example.com/" rel=nofollow>c</A>"#;
        let anchors = anchor_hrefs(html);
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].0, "http://c.example.com/");
    }

    #[test]
    fn survives_unterminated_tags() {
        let html = "text <a href=\"http://d.example.com/\">d</a> <a href=\"http://unfinished";
        let anchors = anchor_hrefs(html);
        assert_eq!(anchors.len(), 1);
        assert_eq!(anchors[0].0, "http://d.example.com/");
    }

    #[test]
    fn strip_tags_keeps_visible_text() {
        let html = "<html><h2>Golden Dragon</h2>Call 415-555-0134.</html>";
        let text = strip_tags(html);
        assert!(text.contains("Golden Dragon"));
        assert!(text.contains("Call 415-555-0134."));
        assert!(!text.contains('<'));
        // Tokens do not merge across tags.
        assert!(text.contains("Dragon Call") || text.contains("Dragon  Call"));
    }

    #[test]
    fn url_host_normalises() {
        assert_eq!(
            url_host("http://www.Foo-Bar.Example.COM/path?q=1"),
            Some("foo-bar.example.com".to_string())
        );
        assert_eq!(
            url_host("https://a.example.com"),
            Some("a.example.com".to_string())
        );
        assert_eq!(
            url_host("http://a.example.com:8080/x"),
            Some("a.example.com".to_string())
        );
        assert_eq!(url_host("ftp://a.example.com/"), None);
        assert_eq!(url_host("http:///nohost"), None);
        assert_eq!(url_host("http://nodots/"), None);
        assert_eq!(url_host("not a url"), None);
    }
}
