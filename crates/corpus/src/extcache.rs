//! Content-addressed extraction cache: per-shard extraction results
//! serialized beside the page shards they were computed from.
//!
//! ## Why it exists
//!
//! Rendering + extraction dominates every run, yet between epochs most
//! shards' bytes do not change. The cache keys each shard's extraction
//! payload by **content**, not by time: the shard's `WSP1` payload
//! SHA-256 (already stamped in the shard header and vouched for by
//! `MANIFEST.wsm`) plus an extractor-config fingerprint. If either key
//! changes — the shard re-rendered under a bumped site revision, or the
//! extractor version/config moved — the entry simply stops matching and
//! is recomputed. There is no invalidation protocol to get wrong.
//!
//! ## On-disk layout
//!
//! One file per shard, `ext-NNNNN.wse`, little-endian:
//!
//! ```text
//! header (112 bytes)
//!   magic        [u8; 4]    = b"WSE1"
//!   version      u32        = 1
//!   shard_sha    [u8; 32]     payload SHA-256 of the source shard
//!   extractor_fp [u8; 32]     extractor version/config fingerprint
//!   payload_len  u64          payload bytes after the header
//!   payload_sha  [u8; 32]     SHA-256 of the payload bytes
//! payload: opaque serialized extraction snapshot (owned by
//!   `webstruct-extract`; this crate never interprets it)
//! ```
//!
//! Files are written with the store's durability protocol (tmp → fsync →
//! rename → dir fsync) and committed to the manifest's `ext` section
//! through the same atomic recommit as the shards. A load verifies all
//! four header keys **and** re-hashes the payload; any disagreement is a
//! [`ExtLoad::Poisoned`] — detected, counted, recomputed, never trusted.

use crate::manifest::ExtEntry;
use crate::shard::{ShardError, TempFileGuard};
use std::io::Write;
use std::path::{Path, PathBuf};
use webstruct_util::iofault::FaultSession;
use webstruct_util::sha::Sha256;
use webstruct_util::wire::Reader;

/// Extraction-cache file magic: "WebStruct Extractions v1".
pub const EXT_MAGIC: [u8; 4] = *b"WSE1";
/// Current cache file format version.
pub const EXT_VERSION: u32 = 1;
/// Header size in bytes.
pub const EXT_HEADER_LEN: usize = 112;

/// Cache file name for shard `i` (lives beside `shard-NNNNN.wsp`).
#[must_use]
pub fn ext_name(i: usize) -> String {
    format!("ext-{i:05}.wse")
}

/// Path of shard `i`'s cache entry inside `dir`.
#[must_use]
pub fn ext_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(ext_name(i))
}

/// Parsed cache-file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ExtCacheHeader {
    /// Payload SHA-256 of the shard this entry was extracted from.
    shard_sha: [u8; 32],
    /// Extractor version/config fingerprint the payload was computed with.
    extractor_fp: [u8; 32],
    /// Payload bytes after the header.
    payload_len: u64,
    /// SHA-256 of the payload.
    payload_sha: [u8; 32],
}

fn encode_ext_header(h: &ExtCacheHeader) -> [u8; EXT_HEADER_LEN] {
    let mut head = [0u8; EXT_HEADER_LEN];
    head[0..4].copy_from_slice(&EXT_MAGIC);
    head[4..8].copy_from_slice(&EXT_VERSION.to_le_bytes());
    head[8..40].copy_from_slice(&h.shard_sha);
    head[40..72].copy_from_slice(&h.extractor_fp);
    head[72..80].copy_from_slice(&h.payload_len.to_le_bytes());
    head[80..112].copy_from_slice(&h.payload_sha);
    head
}

/// Decode a cache-file header from the front of `r`: `None` when the
/// header is cut short or its magic or version is wrong.
fn decode_ext_header(r: &mut Reader) -> Option<ExtCacheHeader> {
    let magic: [u8; 4] = r.array().ok()?;
    let version = r.u32().ok()?;
    let header = ExtCacheHeader {
        shard_sha: r.array().ok()?,
        extractor_fp: r.array().ok()?,
        payload_len: r.u64().ok()?,
        payload_sha: r.array().ok()?,
    };
    (magic == EXT_MAGIC && version == EXT_VERSION).then_some(header)
}

/// Write shard `i`'s extraction payload crash-safely under `dir` (tmp →
/// fsync → rename → dir fsync, every step charged to `session`) and
/// return the manifest entry that vouches for it.
///
/// # Errors
/// Propagates injected or real I/O failures; the temp file is removed on
/// the error path.
pub fn write_entry(
    dir: &Path,
    i: usize,
    shard_sha: [u8; 32],
    extractor_fp: [u8; 32],
    payload: &[u8],
    session: &FaultSession,
) -> Result<ExtEntry, ShardError> {
    let mut sha = Sha256::new();
    sha.update(payload);
    let header = ExtCacheHeader {
        shard_sha,
        extractor_fp,
        payload_len: payload.len() as u64,
        payload_sha: sha.finalize(),
    };
    let final_path = ext_path(dir, i);
    let tmp = dir.join(format!("{}.tmp", ext_name(i)));
    let guard = TempFileGuard::new(tmp.clone());
    let mut file = session.create(&tmp)?;
    file.write_all(&encode_ext_header(&header))?;
    file.write_all(payload)?;
    file.sync_all()?;
    drop(file);
    session.rename(&tmp, &final_path)?;
    guard.disarm();
    session.sync_dir(dir)?;
    Ok(ExtEntry {
        file: ext_name(i),
        payload_len: header.payload_len,
        sha256: header.payload_sha,
    })
}

/// Outcome of a cache lookup.
#[derive(Debug)]
pub enum ExtLoad {
    /// Keys and digests all verified; here is the payload.
    Hit(Vec<u8>),
    /// No cache file on disk.
    Miss,
    /// The file exists but cannot be trusted: wrong key (stale shard or
    /// extractor), digest mismatch (bitrot), truncation, or a manifest
    /// disagreement. The string names the first failed check.
    Poisoned(&'static str),
}

/// Load shard `i`'s cached extraction payload, verifying every key:
/// magic/version, the manifest entry's file name, the shard payload
/// digest, the extractor fingerprint, the recorded payload length and —
/// by re-hashing every payload byte — the payload digest itself.
#[must_use]
pub fn load_entry(
    dir: &Path,
    i: usize,
    entry: &ExtEntry,
    shard_sha: [u8; 32],
    extractor_fp: [u8; 32],
) -> ExtLoad {
    let path = dir.join(&entry.file);
    if entry.file != ext_name(i) {
        return ExtLoad::Poisoned("manifest entry names the wrong file");
    }
    let mut bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return ExtLoad::Miss,
        Err(_) => return ExtLoad::Poisoned("cache file unreadable"),
    };
    let mut r = Reader::new(&bytes);
    let Some(header) = decode_ext_header(&mut r) else {
        return ExtLoad::Poisoned("unreadable cache header");
    };
    if header.shard_sha != shard_sha {
        return ExtLoad::Poisoned("shard digest mismatch (stale entry)");
    }
    if header.extractor_fp != extractor_fp {
        return ExtLoad::Poisoned("extractor fingerprint mismatch");
    }
    if header.payload_len != entry.payload_len || header.payload_sha != entry.sha256 {
        return ExtLoad::Poisoned("cache header disagrees with manifest");
    }
    if r.remaining() as u64 != header.payload_len {
        return ExtLoad::Poisoned("cache payload truncated");
    }
    let mut sha = Sha256::new();
    sha.update(&bytes[EXT_HEADER_LEN..]);
    if sha.finalize() != header.payload_sha {
        return ExtLoad::Poisoned("cache payload digest mismatch");
    }
    bytes.drain(..EXT_HEADER_LEN);
    ExtLoad::Hit(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_util::TempDir;

    #[test]
    fn write_load_roundtrip() {
        let dir = TempDir::new("extcache-roundtrip");
        let payload = b"serialized extraction bytes".to_vec();
        let entry = write_entry(&dir, 3, [7u8; 32], [9u8; 32], &payload, &FaultSession::clean())
            .expect("write entry");
        assert_eq!(entry.file, "ext-00003.wse");
        assert_eq!(entry.payload_len, payload.len() as u64);
        match load_entry(&dir, 3, &entry, [7u8; 32], [9u8; 32]) {
            ExtLoad::Hit(bytes) => assert_eq!(bytes, payload),
            other => panic!("want hit, got {other:?}"),
        }
    }

    #[test]
    fn wrong_keys_poison_the_entry() {
        let dir = TempDir::new("extcache-keys");
        let entry = write_entry(&dir, 0, [7u8; 32], [9u8; 32], b"x", &FaultSession::clean())
            .expect("write entry");
        assert!(matches!(
            load_entry(&dir, 0, &entry, [8u8; 32], [9u8; 32]),
            ExtLoad::Poisoned("shard digest mismatch (stale entry)")
        ));
        assert!(matches!(
            load_entry(&dir, 0, &entry, [7u8; 32], [1u8; 32]),
            ExtLoad::Poisoned("extractor fingerprint mismatch")
        ));
    }

    #[test]
    fn bit_flip_in_payload_is_detected() {
        let dir = TempDir::new("extcache-bitflip");
        let payload = vec![0xAB; 256];
        let entry = write_entry(&dir, 1, [7u8; 32], [9u8; 32], &payload, &FaultSession::clean())
            .expect("write entry");
        let path = ext_path(&dir, 1);
        let mut bytes = std::fs::read(&path).expect("read back");
        bytes[EXT_HEADER_LEN + 100] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(
            load_entry(&dir, 1, &entry, [7u8; 32], [9u8; 32]),
            ExtLoad::Poisoned("cache payload digest mismatch")
        ));
    }

    #[test]
    fn truncated_entry_is_poisoned() {
        let dir = TempDir::new("extcache-truncated");
        let payload = vec![0xCD; 64];
        let entry = write_entry(
            &dir,
            4,
            [7u8; 32],
            [9u8; 32],
            &payload,
            &FaultSession::clean(),
        )
        .expect("write entry");
        let path = ext_path(&dir, 4);
        let clean = std::fs::read(&path).expect("read back");
        for len in 0..EXT_HEADER_LEN {
            std::fs::write(&path, &clean[..len]).expect("rewrite");
            assert!(
                matches!(
                    load_entry(&dir, 4, &entry, [7u8; 32], [9u8; 32]),
                    ExtLoad::Poisoned("unreadable cache header")
                ),
                "header cut at {len}"
            );
        }
        std::fs::write(&path, &clean[..clean.len() - 1]).expect("rewrite");
        assert!(matches!(
            load_entry(&dir, 4, &entry, [7u8; 32], [9u8; 32]),
            ExtLoad::Poisoned("cache payload truncated")
        ));
    }

    #[test]
    fn missing_file_is_a_miss_not_poison() {
        let dir = TempDir::new("extcache-miss");
        let entry = ExtEntry {
            file: ext_name(2),
            payload_len: 4,
            sha256: [0u8; 32],
        };
        assert!(matches!(
            load_entry(&dir, 2, &entry, [0u8; 32], [0u8; 32]),
            ExtLoad::Miss
        ));
    }
}
