//! The store-level manifest (`MANIFEST.wsm`): the single source of truth
//! for what a [`ShardStore`](crate::shard::ShardStore) contains.
//!
//! Before this file existed, `ShardStore::open` trusted the directory
//! listing — a torn shard silently joined the store and a deleted one
//! silently shrank the web. The manifest inverts that trust: it is
//! written atomically (tmp → fsync → rename → dir fsync), strictly
//! **after** the shards it lists, and recommitted after every rendered
//! shard — so the manifest on disk always vouches for a complete,
//! fsynced prefix of the plan, and `open` validates coverage and digests
//! against it instead of globbing.
//!
//! ## Format
//!
//! A line-oriented text file, fully deterministic, self-checksummed:
//!
//! ```text
//! WSM1
//! fingerprint <64 hex>                 config/seed fingerprint of the run
//! sites <n_sites>                      site axis the shards must cover
//! shards <n>
//! shard <idx> <file> <site_start> <site_end> <first_page> <page_count> <payload_len> <sha256 hex>
//! ...                                  one line per shard, in site order
//! revs <n>                             OPTIONAL: per-shard revision-slice digests
//! rev <idx> <64 hex>                   ... one per shard (epoch != 0 only)
//! extfp <64 hex>                       OPTIONAL: extractor config fingerprint
//! exts <n>                             ... extraction-cache entries committed so far
//! ext <idx> <file> <payload_len> <sha256 hex>
//! checksum <64 hex>                    SHA-256 of every byte above
//! ```
//!
//! The two optional sections are the incremental-recomputation layer
//! (see `DESIGN.md` §14). Both are omitted when empty, so an epoch-0
//! store with no extraction cache renders byte-identical to the format
//! PR 7 shipped — old manifests parse unchanged, and the durability
//! suite's byte-identity oracles keep holding.
//!
//! * `rev` lines record, per shard, the SHA-256 of the per-site content
//!   revision counters over the shard's planned site range. Recovery
//!   re-derives the expected digest from the current `Web` and re-renders
//!   any shard whose recorded digest disagrees — that is the dirty-set
//!   planner: content-addressed staleness, no timestamps.
//! * `ext` lines vouch for per-shard extraction-cache payloads
//!   (`ext-NNNNN.wse` beside the shards), keyed by the shard's payload
//!   SHA-256 plus the `extfp` extractor fingerprint. An entry is only
//!   trusted when the manifest lists it *and* the cache file's own header
//!   and payload digest agree — a bit-flipped cache entry is recomputed,
//!   never believed.
//!
//! The per-shard `site_start..site_end` is the **planned** range (from
//! [`plan_shards`](crate::shard::plan_shards)), not the observed one in
//! the shard header — sites with no pages still belong to exactly one
//! shard, so planned ranges tile the site axis with no gaps and coverage
//! can be checked without opening a single shard file.

use crate::shard::{ShardError, ShardHeader, ShardSpec};
use std::path::{Path, PathBuf};
use webstruct_util::iofault::FaultSession;
use webstruct_util::sha::{hex, Sha256};

/// Manifest file name inside a store directory.
pub const MANIFEST_NAME: &str = "MANIFEST.wsm";
/// Manifest format magic (first line).
pub const MANIFEST_MAGIC: &str = "WSM1";

/// One shard's line in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Shard file name (relative to the store directory).
    pub file: String,
    /// Planned site range `[start, end)` this shard covers.
    pub sites: std::ops::Range<u32>,
    /// Global id of the shard's first page.
    pub first_page: u32,
    /// Records in the shard payload.
    pub page_count: u32,
    /// Payload bytes after the shard header.
    pub payload_len: u64,
    /// SHA-256 of the shard payload (as stamped in the shard header).
    pub sha256: [u8; 32],
}

impl ManifestEntry {
    /// Build an entry from a planned spec and the header the writer
    /// actually stamped.
    #[must_use]
    pub fn from_parts(file: String, spec: &ShardSpec, header: &ShardHeader) -> Self {
        ManifestEntry {
            file,
            sites: spec.sites.start as u32..spec.sites.end as u32,
            first_page: spec.first_page,
            page_count: spec.page_count,
            payload_len: header.payload_len,
            sha256: header.sha256,
        }
    }

    /// Check a shard header against this entry. Returns the name of the
    /// first mismatching field, or `None` when they agree. Empty shards
    /// skip the `first_page` comparison (the writer stamps 0 when it
    /// never saw a record).
    #[must_use]
    pub fn header_mismatch(&self, header: &ShardHeader) -> Option<&'static str> {
        if header.sha256 != self.sha256 {
            return Some("sha256");
        }
        if header.payload_len != self.payload_len {
            return Some("payload_len");
        }
        if header.page_count != self.page_count {
            return Some("page_count");
        }
        if self.page_count > 0 && header.first_page != self.first_page {
            return Some("first_page");
        }
        if self.page_count > 0
            && (header.site_lo < self.sites.start || header.site_hi > self.sites.end)
        {
            return Some("site_range");
        }
        None
    }
}

/// One extraction-cache entry in the manifest's optional `ext` section:
/// the serialized extraction results for shard `idx`, stored beside the
/// shards as `ext-NNNNN.wse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtEntry {
    /// Cache file name (relative to the store directory).
    pub file: String,
    /// Payload bytes after the cache file's header.
    pub payload_len: u64,
    /// SHA-256 of the cache payload.
    pub sha256: [u8; 32],
}

/// The manifest's optional extraction-cache section: the extractor
/// fingerprint all entries were produced under, plus one entry slot per
/// shard (`None` = not cached yet; entries commit incrementally through
/// the same atomic-recommit protocol as the shards).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtSection {
    /// Fingerprint of the extractor version + config the cached results
    /// were computed with. A store scrubbed or resumed under a different
    /// extractor must not silently reuse these entries.
    pub fingerprint: [u8; 32],
    /// Per-shard cache entries, indexed like `shards`.
    pub entries: Vec<Option<ExtEntry>>,
}

/// Digest of a slice of per-site content revision counters — the
/// content-addressed staleness key for one shard's site range.
#[must_use]
pub fn revision_digest(revisions: &[u32]) -> [u8; 32] {
    let mut sha = Sha256::new();
    sha.update(b"webstruct-shard-revisions-v1\n");
    for r in revisions {
        sha.update(&r.to_le_bytes());
    }
    sha.finalize()
}

/// [`revision_digest`] of `len` all-zero revisions — what a manifest
/// without a `revs` section implicitly records for a shard of `len`
/// sites (epoch 0 predates the section, so absence means "as generated").
#[must_use]
pub fn zero_revision_digest(len: usize) -> [u8; 32] {
    let mut sha = Sha256::new();
    sha.update(b"webstruct-shard-revisions-v1\n");
    for _ in 0..len {
        sha.update(&0u32.to_le_bytes());
    }
    sha.finalize()
}

/// The parsed (or to-be-written) store manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreManifest {
    /// Fingerprint of the `(web, page config, seed, shard target)` the
    /// store was written from; resume refuses to reuse shards across a
    /// fingerprint change.
    pub fingerprint: [u8; 32],
    /// Sites the store must tile, `0..n_sites`.
    pub n_sites: u32,
    /// Per-shard entries, in site order.
    pub shards: Vec<ManifestEntry>,
    /// Per-shard revision-slice digests ([`revision_digest`] over the
    /// shard's planned site range). Empty = every site at revision 0.
    /// When non-empty, the length always equals `shards.len()`.
    pub revs: Vec<[u8; 32]>,
    /// Extraction-cache section, when any entry has been committed.
    pub ext: Option<ExtSection>,
}

fn unhex32(s: &str) -> Option<[u8; 32]> {
    if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    let mut out = [0u8; 32];
    for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
        let hi = (chunk[0] as char).to_digit(16)?;
        let lo = (chunk[1] as char).to_digit(16)?;
        out[i] = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

impl StoreManifest {
    /// Render the manifest, checksum line included.
    #[must_use]
    pub fn render(&self) -> String {
        let mut body = String::new();
        body.push_str(MANIFEST_MAGIC);
        body.push('\n');
        body.push_str(&format!("fingerprint {}\n", hex(&self.fingerprint)));
        body.push_str(&format!("sites {}\n", self.n_sites));
        body.push_str(&format!("shards {}\n", self.shards.len()));
        for (i, e) in self.shards.iter().enumerate() {
            body.push_str(&format!(
                "shard {i} {} {} {} {} {} {} {}\n",
                e.file,
                e.sites.start,
                e.sites.end,
                e.first_page,
                e.page_count,
                e.payload_len,
                hex(&e.sha256),
            ));
        }
        if !self.revs.is_empty() {
            body.push_str(&format!("revs {}\n", self.revs.len()));
            for (i, d) in self.revs.iter().enumerate() {
                body.push_str(&format!("rev {i} {}\n", hex(d)));
            }
        }
        if let Some(ext) = &self.ext {
            body.push_str(&format!("extfp {}\n", hex(&ext.fingerprint)));
            let present = ext.entries.iter().flatten().count();
            body.push_str(&format!("exts {present}\n"));
            for (i, e) in ext.entries.iter().enumerate() {
                if let Some(e) = e {
                    body.push_str(&format!(
                        "ext {i} {} {} {}\n",
                        e.file,
                        e.payload_len,
                        hex(&e.sha256),
                    ));
                }
            }
        }
        let mut sha = Sha256::new();
        sha.update(body.as_bytes());
        body.push_str(&format!("checksum {}\n", hex(&sha.finalize())));
        body
    }

    /// Parse a manifest, verifying the trailing checksum.
    ///
    /// # Errors
    /// [`ShardError::ManifestCorrupt`] naming the first malformed piece.
    pub fn parse(text: &str) -> Result<StoreManifest, ShardError> {
        let corrupt = |why: &'static str| ShardError::ManifestCorrupt(why);
        // Split off the checksum line and verify it covers the body.
        let body_end = text
            .rfind("checksum ")
            .ok_or(corrupt("missing checksum line"))?;
        let (body, tail) = text.split_at(body_end);
        let stamp = tail
            .strip_prefix("checksum ")
            .and_then(|s| unhex32(s.trim_end()))
            .ok_or(corrupt("malformed checksum line"))?;
        let mut sha = Sha256::new();
        sha.update(body.as_bytes());
        if sha.finalize() != stamp {
            return Err(corrupt("checksum mismatch"));
        }
        let mut lines = body.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(corrupt("bad magic (want WSM1)"));
        }
        let fingerprint = lines
            .next()
            .and_then(|l| l.strip_prefix("fingerprint "))
            .and_then(unhex32)
            .ok_or(corrupt("malformed fingerprint line"))?;
        let n_sites: u32 = lines
            .next()
            .and_then(|l| l.strip_prefix("sites "))
            .and_then(|s| s.parse().ok())
            .ok_or(corrupt("malformed sites line"))?;
        let n_shards: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("shards "))
            .and_then(|s| s.parse().ok())
            .ok_or(corrupt("malformed shards line"))?;
        let mut shards = Vec::with_capacity(n_shards);
        for i in 0..n_shards {
            let line = lines.next().ok_or(corrupt("missing shard line"))?;
            let mut parts = line.split(' ');
            if parts.next() != Some("shard") {
                return Err(corrupt("shard line missing prefix"));
            }
            let idx: usize = parts
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(corrupt("shard line bad index"))?;
            if idx != i {
                return Err(corrupt("shard lines out of order"));
            }
            let file = parts
                .next()
                .ok_or(corrupt("shard line missing file"))?
                .to_string();
            let mut num = |why: &'static str| -> Result<u64, ShardError> {
                parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(ShardError::ManifestCorrupt(why))
            };
            let site_start = num("shard line bad site_start")? as u32;
            let site_end = num("shard line bad site_end")? as u32;
            let first_page = num("shard line bad first_page")? as u32;
            let page_count = num("shard line bad page_count")? as u32;
            let payload_len = num("shard line bad payload_len")?;
            let sha256 = parts
                .next()
                .and_then(unhex32)
                .ok_or(corrupt("shard line bad sha256"))?;
            if parts.next().is_some() {
                return Err(corrupt("shard line trailing fields"));
            }
            shards.push(ManifestEntry {
                file,
                sites: site_start..site_end,
                first_page,
                page_count,
                payload_len,
                sha256,
            });
        }
        // Optional sections, in fixed order: `revs`, then `extfp`/`exts`.
        let mut revs: Vec<[u8; 32]> = Vec::new();
        let mut ext: Option<ExtSection> = None;
        let mut next = lines.next();
        if let Some(n) = next.and_then(|l| l.strip_prefix("revs ")) {
            let n_revs: usize = n.parse().map_err(|_| corrupt("malformed revs line"))?;
            if n_revs != n_shards {
                return Err(corrupt("revs count disagrees with shards"));
            }
            revs.reserve(n_revs);
            for i in 0..n_revs {
                let line = lines.next().ok_or(corrupt("missing rev line"))?;
                let rest = line.strip_prefix("rev ").ok_or(corrupt("rev line missing prefix"))?;
                let (idx, digest) = rest
                    .split_once(' ')
                    .ok_or(corrupt("rev line missing digest"))?;
                if idx.parse::<usize>().ok() != Some(i) {
                    return Err(corrupt("rev lines out of order"));
                }
                revs.push(unhex32(digest).ok_or(corrupt("rev line bad digest"))?);
            }
            next = lines.next();
        }
        if let Some(fp) = next.and_then(|l| l.strip_prefix("extfp ")) {
            let fingerprint = unhex32(fp).ok_or(corrupt("malformed extfp line"))?;
            let n_ext: usize = lines
                .next()
                .and_then(|l| l.strip_prefix("exts "))
                .and_then(|s| s.parse().ok())
                .ok_or(corrupt("malformed exts line"))?;
            if n_ext > n_shards {
                return Err(corrupt("more ext entries than shards"));
            }
            let mut entries: Vec<Option<ExtEntry>> = vec![None; n_shards];
            let mut last_idx = None;
            for _ in 0..n_ext {
                let line = lines.next().ok_or(corrupt("missing ext line"))?;
                let mut parts = line.split(' ');
                if parts.next() != Some("ext") {
                    return Err(corrupt("ext line missing prefix"));
                }
                let idx: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(corrupt("ext line bad index"))?;
                if idx >= n_shards || last_idx.is_some_and(|l| idx <= l) {
                    return Err(corrupt("ext lines out of order"));
                }
                last_idx = Some(idx);
                let file = parts
                    .next()
                    .ok_or(corrupt("ext line missing file"))?
                    .to_string();
                let payload_len: u64 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(corrupt("ext line bad payload_len"))?;
                let sha256 = parts
                    .next()
                    .and_then(unhex32)
                    .ok_or(corrupt("ext line bad sha256"))?;
                if parts.next().is_some() {
                    return Err(corrupt("ext line trailing fields"));
                }
                entries[idx] = Some(ExtEntry {
                    file,
                    payload_len,
                    sha256,
                });
            }
            ext = Some(ExtSection {
                fingerprint,
                entries,
            });
            next = lines.next();
        }
        if next.is_some() {
            return Err(corrupt("trailing lines after shard list"));
        }
        Ok(StoreManifest {
            fingerprint,
            n_sites,
            shards,
            revs,
            ext,
        })
    }

    /// The revision-slice digest the manifest records for shard `i` — the
    /// stored digest when a `revs` section is present, else the implicit
    /// all-zero digest for a shard of `spec_sites` sites.
    ///
    /// # Panics
    /// Panics when a `revs` section is present but `i` is out of range.
    #[must_use]
    pub fn rev_digest(&self, i: usize, spec_sites: usize) -> [u8; 32] {
        if self.revs.is_empty() {
            zero_revision_digest(spec_sites)
        } else {
            self.revs[i]
        }
    }

    /// Path of the manifest inside `dir`.
    #[must_use]
    pub fn path_in(dir: &Path) -> PathBuf {
        dir.join(MANIFEST_NAME)
    }

    /// Load and parse `dir`'s manifest.
    ///
    /// # Errors
    /// [`ShardError::ManifestMissing`] when the file does not exist;
    /// parse errors otherwise.
    pub fn load(dir: &Path) -> Result<StoreManifest, ShardError> {
        let path = Self::path_in(dir);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(ShardError::ManifestMissing)
            }
            Err(e) => return Err(ShardError::Io(e)),
        };
        Self::parse(&text)
    }

    /// Write the manifest crash-safely under `dir`: stream to
    /// `MANIFEST.wsm.tmp`, fsync, rename over the final name, fsync the
    /// directory. All four steps go through `session` so the torture
    /// sweep can crash inside any of them.
    ///
    /// # Errors
    /// Propagates injected or real I/O failures (the temp file is
    /// removed on the error path).
    pub fn write_atomic(&self, dir: &Path, session: &FaultSession) -> Result<(), ShardError> {
        use std::io::Write as _;
        let final_path = Self::path_in(dir);
        let tmp = dir.join(format!("{MANIFEST_NAME}.tmp"));
        let guard = crate::shard::TempFileGuard::new(tmp.clone());
        let mut file = session.create(&tmp)?;
        file.write_all(self.render().as_bytes())?;
        file.sync_all()?;
        drop(file);
        session.rename(&tmp, &final_path)?;
        guard.disarm();
        session.sync_dir(dir)?;
        Ok(())
    }

    /// Validate that the shard entries tile `0..n_sites` contiguously.
    ///
    /// # Errors
    /// [`ShardError::Gap`] at the first discontinuity (a store that
    /// starts late, skips sites between shards, or ends early).
    pub fn validate_coverage(&self) -> Result<(), ShardError> {
        let mut expected = 0u32;
        for e in &self.shards {
            if e.sites.start != expected {
                return Err(ShardError::Gap {
                    expected_site: expected,
                    found_site: e.sites.start,
                });
            }
            if e.sites.end < e.sites.start {
                return Err(ShardError::ManifestCorrupt("shard site range inverted"));
            }
            expected = e.sites.end;
        }
        if expected != self.n_sites {
            return Err(ShardError::Gap {
                expected_site: self.n_sites,
                found_site: expected,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreManifest {
        StoreManifest {
            fingerprint: [7u8; 32],
            n_sites: 10,
            shards: vec![
                ManifestEntry {
                    file: "shard-00000.wsp".into(),
                    sites: 0..4,
                    first_page: 0,
                    page_count: 120,
                    payload_len: 4096,
                    sha256: [1u8; 32],
                },
                ManifestEntry {
                    file: "shard-00001.wsp".into(),
                    sites: 4..10,
                    first_page: 120,
                    page_count: 80,
                    payload_len: 2048,
                    sha256: [2u8; 32],
                },
            ],
            revs: Vec::new(),
            ext: None,
        }
    }

    fn sample_with_sections() -> StoreManifest {
        let mut m = sample();
        m.revs = vec![[3u8; 32], [4u8; 32]];
        m.ext = Some(ExtSection {
            fingerprint: [5u8; 32],
            entries: vec![
                None,
                Some(ExtEntry {
                    file: "ext-00001.wse".into(),
                    payload_len: 512,
                    sha256: [6u8; 32],
                }),
            ],
        });
        m
    }

    #[test]
    fn render_parse_roundtrip() {
        let m = sample();
        let text = m.render();
        let back = StoreManifest::parse(&text).expect("parse");
        assert_eq!(back, m);
    }

    #[test]
    fn optional_sections_roundtrip() {
        let m = sample_with_sections();
        let text = m.render();
        let back = StoreManifest::parse(&text).expect("parse with sections");
        assert_eq!(back, m);
        // Flipping any byte of the sectioned manifest is still caught.
        let bytes = text.as_bytes();
        for pos in [0usize, bytes.len() / 3, bytes.len() / 2, bytes.len() - 10] {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x01;
            if let Ok(s) = String::from_utf8(bad) {
                assert!(StoreManifest::parse(&s).is_err(), "flip at {pos} unnoticed");
            }
        }
    }

    #[test]
    fn empty_sections_render_the_pr7_bytes() {
        // An epoch-0 store with no extraction cache must be byte-identical
        // to the pre-incremental format: no revs/extfp/exts lines at all.
        let text = sample().render();
        assert!(!text.contains("revs "));
        assert!(!text.contains("extfp "));
        assert!(!text.contains("exts "));
    }

    #[test]
    fn rev_digest_defaults_to_all_zero_slice() {
        let m = sample();
        assert_eq!(m.rev_digest(0, 4), revision_digest(&[0u32; 4]));
        assert_eq!(m.rev_digest(1, 6), zero_revision_digest(6));
        let m = sample_with_sections();
        assert_eq!(m.rev_digest(0, 4), [3u8; 32]);
        // A mutated slice digests differently from the zero slice.
        assert_ne!(revision_digest(&[0, 1, 0, 0]), zero_revision_digest(4));
    }

    #[test]
    fn any_flipped_byte_fails_the_checksum_or_parse() {
        let text = sample().render();
        let bytes = text.as_bytes();
        // Flip a byte in every line (not exhaustive over offsets to keep
        // the test fast, but covering each structural region).
        for pos in [0usize, 6, 40, 80, bytes.len() / 2, bytes.len() - 10] {
            let mut bad = bytes.to_vec();
            bad[pos] ^= 0x01;
            if let Ok(s) = String::from_utf8(bad) {
                assert!(
                    StoreManifest::parse(&s).is_err(),
                    "flip at {pos} went unnoticed"
                );
            }
        }
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let text = sample().render();
        for cut in [5, 40, text.len() - 5] {
            assert!(StoreManifest::parse(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn coverage_gaps_are_named() {
        let mut m = sample();
        m.shards[1].sites = 5..10; // hole: site 4 unowned
        match m.validate_coverage() {
            Err(ShardError::Gap {
                expected_site: 4,
                found_site: 5,
            }) => {}
            other => panic!("want Gap(4,5), got {other:?}"),
        }
        let mut m = sample();
        m.shards[0].sites = 1..4; // starts late
        assert!(matches!(
            m.validate_coverage(),
            Err(ShardError::Gap {
                expected_site: 0,
                found_site: 1
            })
        ));
        let mut m = sample();
        m.n_sites = 12; // ends early
        assert!(matches!(
            m.validate_coverage(),
            Err(ShardError::Gap {
                expected_site: 12,
                found_site: 10
            })
        ));
        assert!(sample().validate_coverage().is_ok());
    }

    #[test]
    fn header_mismatch_names_the_field() {
        let e = &sample().shards[0];
        let good = ShardHeader {
            page_count: 120,
            first_page: 0,
            site_lo: 0,
            site_hi: 4,
            payload_len: 4096,
            sha256: [1u8; 32],
        };
        assert_eq!(e.header_mismatch(&good), None);
        let mut h = good;
        h.sha256[0] ^= 1;
        assert_eq!(e.header_mismatch(&h), Some("sha256"));
        let mut h = good;
        h.page_count += 1;
        assert_eq!(e.header_mismatch(&h), Some("page_count"));
        let mut h = good;
        h.first_page = 99;
        assert_eq!(e.header_mismatch(&h), Some("first_page"));
        let mut h = good;
        h.site_hi = 7;
        assert_eq!(e.header_mismatch(&h), Some("site_range"));
        let mut h = good;
        h.payload_len = 1;
        assert_eq!(e.header_mismatch(&h), Some("payload_len"));
    }
}
