//! Out-of-core page shards: a compact length-prefixed binary format that
//! lets full-scale corpora stream through the pipeline with peak memory
//! bounded by the largest shard, not the corpus.
//!
//! ## On-disk layout
//!
//! Every shard file is a 64-byte header followed by a payload of
//! length-prefixed page records (all integers little-endian):
//!
//! ```text
//! header (64 bytes)
//!   magic        [u8; 4]   = b"WSP1"
//!   version      u32       = 1
//!   page_count   u32         records in the payload
//!   first_page   u32         global id of the first record
//!   site_lo      u32         first site index covered (inclusive)
//!   site_hi      u32         last site index covered (exclusive)
//!   payload_len  u64         payload bytes after the header
//!   sha256       [u8; 32]    SHA-256 of the payload bytes
//! record
//!   page_id      u32
//!   site         u32
//!   kind         u8        0 = listing, 1 = review
//!   url_len      u16
//!   text_len     u32
//!   url          [u8; url_len]
//!   text         [u8; text_len]
//! ```
//!
//! The header checksum makes corruption loud: [`PageShardReader::open`]
//! streams the whole payload once through SHA-256 (in small fixed-size
//! chunks — the payload is never resident) and refuses to yield a single
//! record from a shard whose bytes do not match, then seeks back and
//! decodes records on a second buffered pass. Truncation is caught the
//! same way (short payload reads are an error, not EOF).
//!
//! ## Streaming contract
//!
//! Page rendering is a pure function of `(seed, page id)` (see
//! [`PageStream::for_site_range`]), so a shard written from a site range
//! stores exactly the bytes the in-memory stream would have produced for
//! those pages — and [`ShardedWeb`] can transparently *render* shards
//! (never touching disk) or *read* them back from a [`ShardStore`] with
//! byte-identical results either way.

use crate::entity::EntityCatalog;
use crate::extcache::{ext_name, ext_path, load_entry, ExtLoad};
use crate::manifest::{ExtEntry, ExtSection, ManifestEntry, StoreManifest};
use crate::page::{PageConfig, PageKind, PageScratch, PageStream};
use crate::web::Web;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use webstruct_util::ids::{PageId, SiteId};
use webstruct_util::iofault::{FaultFile, FaultSession};
use webstruct_util::rng::Seed;
use webstruct_util::sha::Sha256;
use webstruct_util::wire::Reader;

/// Shard file magic: "WebStruct Pages v1".
pub const SHARD_MAGIC: [u8; 4] = *b"WSP1";
/// Current shard format version.
pub const SHARD_VERSION: u32 = 1;
/// Header size in bytes.
pub const SHARD_HEADER_LEN: usize = 64;

/// Everything that can go wrong writing or reading a shard.
#[derive(Debug)]
pub enum ShardError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`SHARD_MAGIC`].
    BadMagic([u8; 4]),
    /// The file's version is not [`SHARD_VERSION`].
    BadVersion(u32),
    /// The file ended before the header or payload was complete.
    Truncated {
        /// Bytes the header promised.
        expected: u64,
        /// Bytes actually present.
        got: u64,
    },
    /// The payload's SHA-256 does not match the header stamp.
    ChecksumMismatch,
    /// A record inside the payload is malformed (lengths overrun the
    /// payload, invalid page kind, non-UTF-8 text).
    CorruptRecord(&'static str),
    /// The store directory has no `MANIFEST.wsm` — either it never
    /// finished a write, or it predates the durable format.
    ManifestMissing,
    /// The manifest exists but is malformed or fails its own checksum.
    ManifestCorrupt(&'static str),
    /// A shard the manifest lists is not on disk.
    MissingShard {
        /// Index of the missing shard.
        index: usize,
    },
    /// The manifest's shard ranges do not tile the site axis: sites
    /// `expected_site..found_site` (or the reverse) belong to no shard.
    Gap {
        /// First site the next shard was expected to start at.
        expected_site: u32,
        /// Site the next shard actually starts at (or where coverage
        /// ended, for a store that stops early).
        found_site: u32,
    },
    /// A shard's header disagrees with its manifest entry.
    HeaderMismatch {
        /// Index of the offending shard.
        index: usize,
        /// First field that disagreed (`sha256`, `page_count`, …).
        field: &'static str,
    },
    /// The store was written under a different `(web, config, seed,
    /// shard target)`, or at other site revisions, than the one offered
    /// for repair.
    ConfigMismatch,
    /// Another process (or another handle in this one) holds the store
    /// directory's `LOCK`: it is writing or recovering the same store.
    Locked,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard i/o error: {e}"),
            ShardError::BadMagic(m) => write!(f, "bad shard magic {m:?} (want WSP1)"),
            ShardError::BadVersion(v) => write!(f, "unsupported shard version {v}"),
            ShardError::Truncated { expected, got } => {
                write!(f, "truncated shard: expected {expected} bytes, got {got}")
            }
            ShardError::ChecksumMismatch => write!(f, "shard payload checksum mismatch"),
            ShardError::CorruptRecord(why) => write!(f, "corrupt shard record: {why}"),
            ShardError::ManifestMissing => write!(f, "store has no MANIFEST.wsm"),
            ShardError::ManifestCorrupt(why) => write!(f, "corrupt manifest: {why}"),
            ShardError::MissingShard { index } => {
                write!(f, "shard {index} listed in manifest but missing on disk")
            }
            ShardError::Gap {
                expected_site,
                found_site,
            } => write!(
                f,
                "store does not tile the site axis: expected coverage at site \
                 {expected_site}, found {found_site}"
            ),
            ShardError::HeaderMismatch { index, field } => {
                write!(f, "shard {index} header disagrees with manifest on {field}")
            }
            ShardError::ConfigMismatch => write!(
                f,
                "store fingerprint or site revisions do not match this \
                 (web, config, seed, shard target)"
            ),
            ShardError::Locked => write!(
                f,
                "store is locked: another run is writing or recovering it"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        ShardError::Io(e)
    }
}

/// Parsed shard header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardHeader {
    /// Records in the payload.
    pub page_count: u32,
    /// Global id of the first record.
    pub first_page: u32,
    /// First site index covered (inclusive).
    pub site_lo: u32,
    /// Last site index covered (exclusive).
    pub site_hi: u32,
    /// Payload bytes after the header.
    pub payload_len: u64,
    /// SHA-256 of the payload.
    pub sha256: [u8; 32],
}

/// One shard's slice of the site axis, with the prefix-sum page numbering
/// and byte estimate the scheduler balances on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Sites `[start, end)` rendered into this shard.
    pub sites: std::ops::Range<usize>,
    /// Global id of the shard's first page (prefix sum of earlier sites).
    pub first_page: u32,
    /// Pages the shard contributes.
    pub page_count: u32,
    /// Estimated rendered bytes ([`PageStream::estimated_site_bytes`]).
    pub est_bytes: u64,
}

/// Cut the web's sites into contiguous shards of roughly `target_bytes`
/// estimated rendered size each. Every site lands in exactly one shard; a
/// single site larger than the target gets a shard to itself (shards never
/// split a site, so each shard is independently renderable).
#[must_use]
pub fn plan_shards(web: &Web, config: &PageConfig, target_bytes: u64) -> Vec<ShardSpec> {
    let target = target_bytes.max(1);
    let mut specs = Vec::new();
    let mut start = 0usize;
    let mut first_page = 0u32;
    let mut pages = 0u32;
    let mut bytes = 0u64;
    for i in 0..web.n_sites() {
        bytes += PageStream::estimated_site_bytes(web, config, i);
        pages += PageStream::site_page_count(web, config, i);
        if bytes >= target {
            specs.push(ShardSpec {
                sites: start..i + 1,
                first_page,
                page_count: pages,
                est_bytes: bytes,
            });
            start = i + 1;
            first_page += pages;
            pages = 0;
            bytes = 0;
        }
    }
    if start < web.n_sites() {
        specs.push(ShardSpec {
            sites: start..web.n_sites(),
            first_page,
            page_count: pages,
            est_bytes: bytes,
        });
    }
    specs
}

/// Removes a temp file on drop while it still holds a path, so a
/// [`durable_write`] that errors or unwinds part-way never leaves its
/// `*.tmp` behind.
struct TempFileGuard(Option<PathBuf>);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        if let Some(path) = self.0.take() {
            // Best-effort: the file may never have been created.
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Write `dir/name` crash-safely: `body` streams the bytes into
/// `name.tmp`, which is fsynced, atomically renamed over `name` (the
/// commit point) and made durable with a directory fsync. Every store
/// file (shard, manifest, cache entry) is written by this one function,
/// and every step is charged to `session`, so a torture run can crash
/// any of them.
///
/// # Errors
/// The body's error, or an injected or real I/O failure; the temp file
/// is removed on every error path.
pub(crate) fn durable_write<T>(
    dir: &Path,
    name: &str,
    session: &FaultSession,
    body: impl FnOnce(&mut FaultFile<'_, File>) -> Result<T, ShardError>,
) -> Result<T, ShardError> {
    let tmp = dir.join(format!("{name}.tmp"));
    let mut guard = TempFileGuard(Some(tmp.clone()));
    let mut file = session.create(&tmp)?;
    let out = body(&mut file)?;
    file.sync_all()?;
    drop(file);
    session.rename(&tmp, &dir.join(name))?;
    guard.0 = None;
    session.sync_dir(dir)?;
    Ok(out)
}

/// Streaming shard writer over any seekable [`Write`] sink (normally a
/// `BufWriter<File>`). The SHA-256 stamp and payload length live in the
/// *header*, which precedes the payload on disk — so the writer stamps a
/// placeholder header first, streams each record straight to the sink
/// while hashing it incrementally, and seeks back to patch the real
/// header in [`finish`](PageShardWriter::finish). Memory is therefore
/// O(one record) no matter how large the shard grows — a single
/// Zipf-head site can render tens of megabytes, and none of it is ever
/// resident here.
#[derive(Debug)]
pub struct PageShardWriter<W: Write + Seek> {
    sink: W,
    sha: Sha256,
    record: Vec<u8>,
    payload_len: u64,
    page_count: u32,
    first_page: Option<u32>,
    site_lo: u32,
    site_hi: u32,
    header_written: bool,
}

fn encode_header(header: &ShardHeader) -> [u8; SHARD_HEADER_LEN] {
    let mut head = [0u8; SHARD_HEADER_LEN];
    head[0..4].copy_from_slice(&SHARD_MAGIC);
    head[4..8].copy_from_slice(&SHARD_VERSION.to_le_bytes());
    head[8..12].copy_from_slice(&header.page_count.to_le_bytes());
    head[12..16].copy_from_slice(&header.first_page.to_le_bytes());
    head[16..20].copy_from_slice(&header.site_lo.to_le_bytes());
    head[20..24].copy_from_slice(&header.site_hi.to_le_bytes());
    head[24..32].copy_from_slice(&header.payload_len.to_le_bytes());
    head[32..64].copy_from_slice(&header.sha256);
    head
}

impl<W: Write + Seek> PageShardWriter<W> {
    /// Start a shard aimed at `sink` (positioned where the header goes).
    #[must_use]
    pub fn new(sink: W) -> Self {
        PageShardWriter {
            sink,
            sha: Sha256::new(),
            record: Vec::new(),
            payload_len: 0,
            page_count: 0,
            first_page: None,
            site_lo: u32::MAX,
            site_hi: 0,
            header_written: false,
        }
    }

    /// Append one page record, streaming it straight to the sink.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    ///
    /// # Panics
    /// Panics when the URL exceeds `u16::MAX` bytes or the text exceeds
    /// `u32::MAX` bytes — neither occurs for generated pages.
    pub fn push(
        &mut self,
        id: PageId,
        site: SiteId,
        kind: PageKind,
        url: &str,
        text: &str,
    ) -> Result<(), ShardError> {
        if !self.header_written {
            self.sink.write_all(&[0u8; SHARD_HEADER_LEN])?;
            self.header_written = true;
        }
        let url_len = u16::try_from(url.len()).expect("url fits u16");
        let text_len = u32::try_from(text.len()).expect("text fits u32");
        self.record.clear();
        self.record.extend_from_slice(&id.raw().to_le_bytes());
        self.record.extend_from_slice(&site.raw().to_le_bytes());
        self.record.push(match kind {
            PageKind::Listing => 0,
            PageKind::Review => 1,
        });
        self.record.extend_from_slice(&url_len.to_le_bytes());
        self.record.extend_from_slice(&text_len.to_le_bytes());
        self.record.extend_from_slice(url.as_bytes());
        self.record.extend_from_slice(text.as_bytes());
        self.sha.update(&self.record);
        self.sink.write_all(&self.record)?;
        self.payload_len += self.record.len() as u64;
        self.page_count += 1;
        self.first_page.get_or_insert(id.raw());
        self.site_lo = self.site_lo.min(site.raw());
        self.site_hi = self.site_hi.max(site.raw() + 1);
        Ok(())
    }

    /// Seek back and stamp the real header over the placeholder, then
    /// flush. Returns the header as written.
    ///
    /// # Errors
    /// Propagates sink I/O errors.
    pub fn finish(mut self) -> Result<ShardHeader, ShardError> {
        if !self.header_written {
            self.sink.write_all(&[0u8; SHARD_HEADER_LEN])?;
        }
        let header = ShardHeader {
            page_count: self.page_count,
            first_page: self.first_page.unwrap_or(0),
            site_lo: if self.site_lo == u32::MAX { 0 } else { self.site_lo },
            site_hi: self.site_hi,
            payload_len: self.payload_len,
            sha256: self.sha.finalize(),
        };
        self.sink.seek(SeekFrom::Current(-(self.payload_len as i64) - SHARD_HEADER_LEN as i64))?;
        self.sink.write_all(&encode_header(&header))?;
        self.sink.flush()?;
        Ok(header)
    }
}

/// Chunk size for the reader's streaming checksum pass. Large enough to
/// amortise syscalls, small enough that validation memory is invisible
/// next to the accumulators it feeds.
const HASH_CHUNK: usize = 64 * 1024;

/// Read and decode a shard header from the reader's current position:
/// magic, version and truncation checks, no payload validation.
///
/// # Errors
/// [`ShardError::Truncated`] / [`ShardError::BadMagic`] /
/// [`ShardError::BadVersion`].
fn read_header<R: Read>(reader: &mut R) -> Result<ShardHeader, ShardError> {
    let mut head = Vec::with_capacity(SHARD_HEADER_LEN);
    reader
        .take(SHARD_HEADER_LEN as u64)
        .read_to_end(&mut head)?;
    // Every field is read before magic and version are checked, so any
    // prefix shorter than the header is truncated whatever its bytes.
    let truncated = |_| ShardError::Truncated {
        expected: SHARD_HEADER_LEN as u64,
        got: head.len() as u64,
    };
    let mut r = Reader::new(&head);
    let magic = r.array().map_err(truncated)?;
    let version = r.u32().map_err(truncated)?;
    let header = ShardHeader {
        page_count: r.u32().map_err(truncated)?,
        first_page: r.u32().map_err(truncated)?,
        site_lo: r.u32().map_err(truncated)?,
        site_hi: r.u32().map_err(truncated)?,
        payload_len: r.u64().map_err(truncated)?,
        sha256: r.array().map_err(truncated)?,
    };
    if magic != SHARD_MAGIC {
        return Err(ShardError::BadMagic(magic));
    }
    if version != SHARD_VERSION {
        return Err(ShardError::BadVersion(version));
    }
    Ok(header)
}

/// Shard reader: validates header + checksum up front with a streaming
/// hash pass (the payload is never resident), then seeks back and decodes
/// records into reused buffers ([`read_into`](PageShardReader::read_into)).
/// Peak memory is O(one record), not O(shard) — the property that
/// keeps full-scale extraction flat even when a Zipf-head site makes one
/// shard tens of megabytes.
#[derive(Debug)]
pub struct PageShardReader<R: Read + Seek> {
    reader: R,
    header: ShardHeader,
    remaining: u64,
    body: Vec<u8>,
}

impl<R: Read + Seek> PageShardReader<R> {
    /// Read and validate a whole shard from `reader` (normally a
    /// `BufReader<File>`): magic, version, payload length, checksum. The
    /// payload is hashed in 64 KiB chunks and the reader
    /// then seeks back to the first record, so validation never holds
    /// more than one chunk in memory.
    ///
    /// # Errors
    /// Any [`ShardError`] variant; a shard that opens cleanly will not
    /// fail checksum mid-iteration (records can still be rejected as
    /// corrupt if lengths overrun — that indicates a writer bug, not
    /// bitrot, since the checksum already passed).
    pub fn open(mut reader: R) -> Result<Self, ShardError> {
        let start = reader.stream_position()?;
        let header = read_header(&mut reader)?;
        let mut sha = Sha256::new();
        let mut chunk = vec![0u8; HASH_CHUNK.min(header.payload_len as usize).max(1)];
        let mut hashed = 0u64;
        while hashed < header.payload_len {
            let want = chunk.len().min((header.payload_len - hashed) as usize);
            let n = reader.read(&mut chunk[..want])?;
            if n == 0 {
                return Err(ShardError::Truncated {
                    expected: header.payload_len,
                    got: hashed,
                });
            }
            sha.update(&chunk[..n]);
            hashed += n as u64;
        }
        if sha.finalize() != header.sha256 {
            return Err(ShardError::ChecksumMismatch);
        }
        reader.seek(SeekFrom::Start(start + SHARD_HEADER_LEN as u64))?;
        Ok(PageShardReader {
            reader,
            remaining: header.payload_len,
            header,
            body: Vec::new(),
        })
    }

    /// The validated header.
    #[must_use]
    pub fn header(&self) -> &ShardHeader {
        &self.header
    }

    /// Decode the next record into `out`'s reused buffers. Returns
    /// `Ok(false)` at end of shard. Steady-state calls allocate nothing
    /// once the buffers reach the largest record.
    ///
    /// # Errors
    /// [`ShardError::CorruptRecord`] when record framing is inconsistent.
    pub fn read_into(&mut self, out: &mut ShardRecord) -> Result<bool, ShardError> {
        if self.remaining == 0 {
            return Ok(false);
        }
        // Read no further than the payload: a prefix the payload cuts
        // short fails in the reader, ahead of the page-kind check.
        let mut prefix = [0u8; 15];
        let prefix = &mut prefix[..self.remaining.min(15) as usize];
        self.reader.read_exact(prefix)?;
        let overrun = |_| ShardError::CorruptRecord("record prefix overruns payload");
        let mut r = Reader::new(prefix);
        let id = r.u32().map_err(overrun)?;
        let site = r.u32().map_err(overrun)?;
        let [kind] = r.array().map_err(overrun)?;
        let url_len = r.u16().map_err(overrun)? as usize;
        let text_len = r.u32().map_err(overrun)? as usize;
        let kind = match kind {
            0 => PageKind::Listing,
            1 => PageKind::Review,
            _ => return Err(ShardError::CorruptRecord("unknown page kind")),
        };
        if self.remaining - 15 < (url_len + text_len) as u64 {
            return Err(ShardError::CorruptRecord("record body overruns payload"));
        }
        self.body.resize(url_len + text_len, 0);
        self.reader.read_exact(&mut self.body)?;
        let url = std::str::from_utf8(&self.body[..url_len])
            .map_err(|_| ShardError::CorruptRecord("url is not UTF-8"))?;
        let text = std::str::from_utf8(&self.body[url_len..])
            .map_err(|_| ShardError::CorruptRecord("text is not UTF-8"))?;
        out.id = PageId::new(id);
        out.site = SiteId::new(site);
        out.kind = kind;
        out.url.clear();
        out.url.push_str(url);
        out.text.clear();
        out.text.push_str(text);
        self.remaining -= 15 + (url_len + text_len) as u64;
        Ok(true)
    }
}

impl PageShardReader<BufReader<File>> {
    /// Open the shard file at `path` through a `BufReader`.
    ///
    /// # Errors
    /// See [`PageShardReader::open`].
    fn open_path(path: &Path) -> Result<Self, ShardError> {
        Self::open(BufReader::new(File::open(path)?))
    }
}

/// What a file in a store directory is, by its name alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreFile {
    /// An interrupted write's temp file (`*.tmp`).
    Temp,
    /// A page shard (`shard-*.wsp`), with its index when the name is that
    /// shard's canonical one.
    Shard(Option<usize>),
    /// An extraction-cache entry (`ext-*.wse`), indexed likewise.
    Ext(Option<usize>),
}

/// Classify a store directory entry by name: the one rule behind
/// recovery's sweep and scrub's stray report. Other names are not the
/// store's business.
fn store_file(name: &str) -> Option<StoreFile> {
    let index = |name_of: fn(usize) -> String| {
        name.split(['-', '.'])
            .nth(1)
            .and_then(|digits| digits.parse::<usize>().ok())
            .filter(|&i| name_of(i) == name)
    };
    if name.ends_with(".tmp") {
        Some(StoreFile::Temp)
    } else if name.starts_with("shard-") && name.ends_with(".wsp") {
        Some(StoreFile::Shard(index(ShardStore::shard_name)))
    } else if name.starts_with("ext-") && name.ends_with(".wse") {
        Some(StoreFile::Ext(index(ext_name)))
    } else {
        None
    }
}

/// Every store file in `dir` with its class, in name order.
fn list_store_files(dir: &Path) -> std::io::Result<Vec<(String, StoreFile)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Ok(name) = entry?.file_name().into_string() {
            if let Some(kind) = store_file(&name) {
                files.push((name, kind));
            }
        }
    }
    files.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

/// How far [`check_shard`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Depth {
    /// The 64-byte header, digest included: proof enough for a file the
    /// durable write committed under a manifest that lists it.
    Header,
    /// Also re-hash the payload and decode every record.
    Full,
}

/// Whether the file at `path` is shard `index` as its manifest `entry`
/// describes it: the one trust check behind [`ShardStore::open`] and a
/// resume's reuse (at [`Depth::Header`]) and behind scrub and repair (at
/// [`Depth::Full`]). Returns the shard's header.
///
/// # Errors
/// [`ShardError::MissingShard`] when there is no file, a
/// [`ShardError::HeaderMismatch`] naming the first field that disagrees
/// with `entry`, or whatever reading the file at `depth` finds wrong.
fn check_shard(
    path: &Path,
    index: usize,
    entry: &ManifestEntry,
    depth: Depth,
) -> Result<ShardHeader, ShardError> {
    if !path.exists() {
        return Err(ShardError::MissingShard { index });
    }
    let mut reader = match depth {
        Depth::Header => None,
        Depth::Full => Some(PageShardReader::open_path(path)?),
    };
    let header = match &reader {
        Some(r) => *r.header(),
        None => read_header(&mut File::open(path)?)?,
    };
    if let Some(field) = entry.header_mismatch(&header) {
        return Err(ShardError::HeaderMismatch { index, field });
    }
    if let Some(reader) = &mut reader {
        // Digest passed; now prove the record framing is sound end to end.
        let mut rec = ShardRecord::default();
        let mut count = 0u32;
        while reader.read_into(&mut rec)? {
            count += 1;
        }
        if count != header.page_count {
            return Err(ShardError::CorruptRecord(
                "record count disagrees with header",
            ));
        }
    }
    Ok(header)
}

/// Reused decode target for [`PageShardReader::read_into`].
#[derive(Debug, Clone)]
pub struct ShardRecord {
    /// Global page id.
    pub id: PageId,
    /// Hosting site.
    pub site: SiteId,
    /// Page class.
    pub kind: PageKind,
    /// Page URL, in a reused buffer.
    pub url: String,
    /// Page text, in a reused buffer.
    pub text: String,
}

impl Default for ShardRecord {
    fn default() -> Self {
        ShardRecord {
            id: PageId::new(0),
            site: SiteId::new(0),
            kind: PageKind::Listing,
            url: String::new(),
            text: String::new(),
        }
    }
}

/// What recovery ([`ShardStore::recover`]) does with shard files already
/// on disk: the trust level of one recovery engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverMode {
    /// Render everything from scratch (existing files are replaced; the
    /// write is still crash-safe).
    Cold,
    /// Reuse shards the manifest vouches for (header check only — a
    /// shard at its final name was fsynced before the rename, so the
    /// manifest digest plus a 64-byte header read is proof enough).
    /// Shards without a trusted manifest entry are never reused.
    Resume,
    /// Scrub the store against its manifest first, quarantine every
    /// shard, cache entry and stray that fails verification, then resume
    /// — the mode behind `webstruct repair`. Refuses a directory whose
    /// readable manifest describes another store, or this store at other
    /// site revisions.
    Repair,
}

/// What a recovery pass did, shard by shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shards the plan called for.
    pub shards_total: usize,
    /// Shards reused from disk (verified, not re-rendered).
    pub shards_reused: usize,
    /// Shards rendered (from scratch or replacing a bad file).
    pub shards_rendered: usize,
    /// Shards whose bytes were intact and vouched for, but whose site
    /// revisions moved since the manifest committed — re-rendered in
    /// place, *not* quarantined (staleness is a planned mutation, not
    /// evidence of damage).
    pub shards_stale: usize,
    /// Corrupt or stray shard files moved to `.quarantine/`.
    pub shards_quarantined: usize,
    /// Extraction-cache entries dropped: stale (their shard re-rendered),
    /// unlisted, or — under repair — failing verification (those are
    /// quarantined rather than deleted).
    pub ext_dropped: usize,
    /// Stray `*.tmp` files from interrupted writes that were removed.
    pub tmp_removed: usize,
    /// Whether a matching manifest was found and trusted.
    pub manifest_reused: bool,
}

/// One shard's verdict from a [`ShardStore::scrub`] pass.
#[derive(Debug)]
pub enum ScrubStatus {
    /// Payload digest, record framing and manifest entry all agree.
    Verified,
    /// The manifest lists the shard but the file is gone.
    Missing,
    /// The shard failed validation (the error says how).
    Corrupt(ShardError),
}

/// A scrub finding for one manifest entry.
#[derive(Debug)]
pub struct ScrubFinding {
    /// Shard index (manifest order).
    pub index: usize,
    /// Shard file name.
    pub file: String,
    /// Verdict.
    pub status: ScrubStatus,
}

/// Full-store integrity report: every byte of every shard re-hashed and
/// re-framed against the manifest.
#[derive(Debug)]
pub struct ScrubReport {
    /// Per-shard verdicts, in manifest order.
    pub findings: Vec<ScrubFinding>,
    /// Per-extraction-cache-entry verdicts for every entry the
    /// manifest's `ext` section lists: existence, header key binding
    /// (shard digest + extractor fingerprint) and a full payload
    /// re-hash. Empty when the manifest carries no `ext` section.
    pub ext_findings: Vec<ScrubFinding>,
    /// `shard-*.wsp` / `ext-*.wse` / `*.tmp` files in the directory the
    /// manifest does not list (a torn write the old globbing `open`
    /// would have let join the store).
    pub strays: Vec<String>,
}

/// How many of `findings` have a status `want` accepts.
fn tally(findings: &[ScrubFinding], want: fn(&ScrubStatus) -> bool) -> usize {
    findings.iter().filter(|f| want(&f.status)).count()
}

impl ScrubReport {
    /// Shards that verified clean.
    #[must_use]
    pub fn verified(&self) -> usize {
        tally(&self.findings, |s| matches!(s, ScrubStatus::Verified))
    }

    /// Shards missing from disk.
    #[must_use]
    pub fn missing(&self) -> usize {
        tally(&self.findings, |s| matches!(s, ScrubStatus::Missing))
    }

    /// Shards that failed validation.
    #[must_use]
    pub fn corrupt(&self) -> usize {
        tally(&self.findings, |s| matches!(s, ScrubStatus::Corrupt(_)))
    }

    /// Extraction-cache entries that verified clean.
    #[must_use]
    pub fn ext_verified(&self) -> usize {
        tally(&self.ext_findings, |s| matches!(s, ScrubStatus::Verified))
    }

    /// Extraction-cache entries that are missing or failed verification
    /// (wrong key, digest mismatch, truncation).
    #[must_use]
    pub fn ext_bad(&self) -> usize {
        self.ext_findings.len() - self.ext_verified()
    }

    /// Whether every shard and cache entry verified and nothing stray
    /// was found.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt() == 0 && self.missing() == 0 && self.ext_bad() == 0 && self.strays.is_empty()
    }

    /// Human-readable per-shard table (the `webstruct scrub` output).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (what, findings) in [("shard", &self.findings), ("cache", &self.ext_findings)] {
            for f in findings {
                let verdict = match &f.status {
                    ScrubStatus::Verified => "ok".to_string(),
                    ScrubStatus::Missing => "MISSING".to_string(),
                    ScrubStatus::Corrupt(e) => format!("CORRUPT: {e}"),
                };
                out.push_str(&format!(
                    "  {what} {:>3}  {:<20} {}\n",
                    f.index, f.file, verdict
                ));
            }
        }
        for s in &self.strays {
            out.push_str(&format!("  stray      {s}  (not in manifest)\n"));
        }
        out.push_str(&format!(
            "  {} verified, {} corrupt, {} missing, {} stray",
            self.verified(),
            self.corrupt(),
            self.missing(),
            self.strays.len()
        ));
        if self.ext_findings.is_empty() {
            out.push('\n');
        } else {
            out.push_str(&format!(
                "; cache: {} verified, {} bad\n",
                self.ext_verified(),
                self.ext_bad()
            ));
        }
        out
    }
}

/// A directory of shard files (`shard-00000.wsp`, `shard-00001.wsp`, …)
/// covering a whole web in site order, described and vouched for by a
/// [`StoreManifest`] (`MANIFEST.wsm`).
///
/// ## Durability protocol
///
/// Every file — shard, manifest or cache entry — is written by one
/// function, `durable_write`: stream to `name.tmp`, `fsync`, atomically
/// rename to `name`, `fsync` the directory. The manifest is written **after** every shard has
/// committed, so its existence certifies a complete store; a crash at
/// any earlier point leaves at worst a stale manifest, complete shards
/// at final names, and a `*.tmp` that recovery deletes.
/// [`open`](ShardStore::open) trusts only the manifest: coverage must
/// tile the site axis and every shard header must match its manifest
/// entry.
#[derive(Debug, Clone)]
pub struct ShardStore {
    dir: PathBuf,
    shards: Vec<PathBuf>,
    manifest: StoreManifest,
}

impl ShardStore {
    fn shard_path(dir: &Path, i: usize) -> PathBuf {
        dir.join(Self::shard_name(i))
    }

    fn shard_name(i: usize) -> String {
        format!("shard-{i:05}.wsp")
    }

    /// Take the exclusive advisory lock on `dir/LOCK`, creating `dir` and
    /// the empty lock file if needed; the lock holds until the returned
    /// file drops. An epoch run or repair holds it from recovery to its
    /// last commit, so two never sweep or commit under each other; the
    /// store's own `write`/`recover` calls take no lock. `LOCK` is not a
    /// store file: the sweep and scrub ignore it.
    ///
    /// # Errors
    /// [`ShardError::Locked`] while another handle holds the lock;
    /// [`ShardError::Io`] if the file cannot be created or locked.
    pub fn lock(dir: &Path) -> Result<File, ShardError> {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join("LOCK"))?;
        match file.try_lock() {
            Ok(()) => Ok(file),
            Err(std::fs::TryLockError::WouldBlock) => Err(ShardError::Locked),
            Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
        }
    }

    /// Fingerprint of everything that determines the store's bytes: the
    /// web's shape, the page config, the render seed and the shard
    /// target. Recorded in the manifest; resume refuses to reuse shards
    /// across a fingerprint change (a different corpus would silently
    /// produce a frankenstore).
    #[must_use]
    pub fn fingerprint(
        web: &Web,
        config: &PageConfig,
        seed: Seed,
        target_bytes: u64,
    ) -> [u8; 32] {
        let mut sha = Sha256::new();
        sha.update(b"webstruct-store-fingerprint-v1\n");
        sha.update(&seed.0.to_le_bytes());
        sha.update(&target_bytes.to_le_bytes());
        sha.update(&(web.n_sites() as u64).to_le_bytes());
        sha.update(&(web.n_mentions() as u64).to_le_bytes());
        // The page config has no stable binary encoding; its Debug
        // rendering is deterministic and covers every field.
        sha.update(format!("{config:?}").as_bytes());
        sha.finalize()
    }

    /// Render every page of `web` into shard files under `dir` (created
    /// if missing), cutting shards per [`plan_shards`] with
    /// `target_bytes` estimated payload each, then commit `MANIFEST.wsm`.
    /// Crash-safe: see the type-level durability protocol. Peak memory
    /// is one page of scratch — records stream straight to disk.
    ///
    /// # Errors
    /// Propagates file-system errors; partial temp files are cleaned up
    /// on the error path.
    pub fn write(
        dir: &Path,
        web: &Web,
        catalog: &EntityCatalog,
        config: &PageConfig,
        seed: Seed,
        target_bytes: u64,
    ) -> Result<ShardStore, ShardError> {
        let clean = FaultSession::clean();
        Self::recover(dir, web, catalog, config, seed, target_bytes, RecoverMode::Cold, &clean)
            .map(|(store, _)| store)
    }

    /// Resume an interrupted [`write`](ShardStore::write): shards the
    /// manifest vouches for are kept as-is (rendering is seed-pure, so
    /// the reused bytes are identical to what a cold run would produce)
    /// and only the incomplete tail is re-rendered. The manifest
    /// recommits after every rendered shard, so a kill strands at most
    /// one completed-but-unlisted shard; unlisted survivors are
    /// quarantined and re-rendered rather than trusted (a header check
    /// against the plan cannot distinguish seeds). The resulting store —
    /// manifest included — is byte-identical to a cold write at the same
    /// seed.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_resumable(
        dir: &Path,
        web: &Web,
        catalog: &EntityCatalog,
        config: &PageConfig,
        seed: Seed,
        target_bytes: u64,
    ) -> Result<(ShardStore, RecoveryReport), ShardError> {
        let clean = FaultSession::clean();
        Self::recover(dir, web, catalog, config, seed, target_bytes, RecoverMode::Resume, &clean)
    }

    /// Move `path` into `dir/.quarantine/`, never clobbering evidence
    /// already there.
    fn quarantine_file(dir: &Path, path: &Path) -> Result<(), ShardError> {
        let qdir = dir.join(".quarantine");
        std::fs::create_dir_all(&qdir)?;
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed")
            .to_string();
        let mut dest = qdir.join(&name);
        let mut k = 1u32;
        while dest.exists() {
            dest = qdir.join(format!("{name}.{k}"));
            k += 1;
        }
        std::fs::rename(path, &dest)?;
        Ok(())
    }

    /// Delete a dead extraction-cache file and count it. A cache entry
    /// can always be rebuilt, so unlike a shard it is not kept as
    /// evidence.
    fn drop_ext_file(path: &Path, report: &mut RecoveryReport) -> Result<(), ShardError> {
        std::fs::remove_file(path)?;
        report.ext_dropped += 1;
        Ok(())
    }

    /// Repair's pre-pass: scrub the store against `manifest` and move
    /// every file that fails verification to `.quarantine/` — a corrupt
    /// shard together with its cache file, a corrupt cache entry, and
    /// every stray shard or cache file — forgetting the manifest's cache
    /// entries for them. Stray `*.tmp` files are left to the sweep, which
    /// deletes them. What is gone is then re-rendered by a plain resume.
    fn quarantine_unverified(
        dir: &Path,
        manifest: &mut StoreManifest,
        report: &mut RecoveryReport,
    ) -> Result<(), ShardError> {
        let scrub = Self::scrub_manifest(dir, manifest);
        let corrupt = |f: &&ScrubFinding| matches!(f.status, ScrubStatus::Corrupt(_));
        // By name, so a corrupt shard's cache file that is also a stray
        // moves once.
        let mut doomed: std::collections::BTreeSet<String> = scrub.strays.into_iter().collect();
        for f in scrub.findings.iter().filter(corrupt) {
            doomed.insert(f.file.clone());
            doomed.insert(ext_name(f.index));
        }
        for f in scrub.ext_findings.iter().filter(corrupt) {
            doomed.insert(ext_name(f.index));
            if let Some(slot) = manifest
                .ext
                .as_mut()
                .and_then(|s| s.entries.get_mut(f.index))
            {
                *slot = None;
            }
        }
        for name in doomed {
            let path = dir.join(&name);
            let count = match store_file(&name) {
                Some(StoreFile::Temp) | None => continue,
                Some(StoreFile::Shard(_)) => &mut report.shards_quarantined,
                Some(StoreFile::Ext(_)) => &mut report.ext_dropped,
            };
            if path.exists() {
                Self::quarantine_file(dir, &path)?;
                *count += 1;
            }
        }
        Ok(())
    }

    /// Bring the store under `dir` to the cold-write bytes for
    /// `(web, config, seed, target_bytes)` — the one recovery engine,
    /// at the trust level `mode` sets:
    ///
    /// - [`RecoverMode::Cold`] renders every shard (what
    ///   [`write`](ShardStore::write) does);
    /// - [`RecoverMode::Resume`] keeps manifest-vouched shards and
    ///   re-renders the rest (what
    ///   [`write_resumable`](ShardStore::write_resumable) does);
    /// - [`RecoverMode::Repair`] first scrubs the store against its
    ///   manifest and moves every file that fails verification, and every
    ///   stray, to `.quarantine/` (never deleted — they are evidence),
    ///   then resumes.
    ///
    /// Every file-system operation is charged against `session`, so the
    /// torture harness can crash a write — or a recovery — at any
    /// operation; [`FaultSession::clean`] injects nothing. Whatever the
    /// mode, a run that completes converges to the same bytes as a cold
    /// write.
    ///
    /// # Errors
    /// Propagates file-system errors; injected faults surface as
    /// [`ShardError::Io`]. Repair returns [`ShardError::ConfigMismatch`],
    /// touching no file, when `dir` holds a readable manifest of another
    /// store, or of this store committed at other site revisions.
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        dir: &Path,
        web: &Web,
        catalog: &EntityCatalog,
        config: &PageConfig,
        seed: Seed,
        target_bytes: u64,
        mode: RecoverMode,
        session: &FaultSession,
    ) -> Result<(ShardStore, RecoveryReport), ShardError> {
        let _span = webstruct_util::span!("store.recover");
        std::fs::create_dir_all(dir)?;
        let specs = plan_shards(web, config, target_bytes);
        let fingerprint = Self::fingerprint(web, config, seed, target_bytes);
        let mut report = RecoveryReport {
            shards_total: specs.len(),
            ..RecoveryReport::default()
        };

        // Per-shard revision digests this invocation expects. A shard's
        // manifest `rev` line must equal the digest of its sites' current
        // revisions for the bytes on disk to still be the bytes this web
        // would render; an absent `revs` section means the store was
        // committed at revision 0 everywhere.
        let revisions = web.revisions();
        let want_revs: Vec<[u8; 32]> = specs
            .iter()
            .map(|s| crate::manifest::revision_digest(&revisions[s.sites.clone()]))
            .collect();
        let any_rev = revisions.iter().any(|r| *r != 0);

        // A manifest is only trusted when it certifies the same bytes
        // this invocation would produce: a manifest for a *different*
        // fingerprint is positive evidence the shards on disk belong to
        // another (web, config, seed, target), and reusing them would
        // build a frankenstore. Repair refuses such a directory outright
        // rather than replace another store's files, and so it does a
        // store committed at other revisions: re-rendering its shards
        // would roll a mutated store back (or forward) an epoch. Shards
        // without a trusted manifest entry are never reused at all — a
        // header-vs-plan check cannot tell two seeds apart (the plan
        // derives from the web alone), and because the manifest
        // recommits after every rendered shard, a crash strands at most
        // one completed-but-unlisted shard.
        let same_store =
            |m: &StoreManifest| m.fingerprint == fingerprint && m.n_sites as usize == web.n_sites();
        let same_revs = |m: &StoreManifest| {
            (0..m.shards.len().min(specs.len()))
                .all(|i| m.rev_digest(i, specs[i].sites.len()) == want_revs[i])
        };
        let mut old_manifest = match (mode, StoreManifest::load(dir)) {
            (RecoverMode::Cold, _) => None,
            (RecoverMode::Repair, Ok(m)) if !(same_store(&m) && same_revs(&m)) => {
                return Err(ShardError::ConfigMismatch)
            }
            (_, Ok(m)) if same_store(&m) => Some(m),
            _ => None,
        };
        report.manifest_reused = old_manifest.is_some();
        if let (RecoverMode::Repair, Some(m)) = (mode, old_manifest.as_mut()) {
            Self::quarantine_unverified(dir, m, &mut report)?;
        }
        let old_ext = old_manifest.as_ref().and_then(|m| m.ext.as_ref());
        // The manifest that vouches for the committed prefix `shards` (with
        // the cache entries carried for it): every partial commit and the
        // final one. The `ext` section is left out when nothing was
        // carried, so a store that never cached extractions keeps the
        // manifest bytes it had before the cache existed.
        let manifest_of = |shards: &[ManifestEntry], ext: &[Option<ExtEntry>]| {
            let k = shards.len();
            StoreManifest {
                fingerprint,
                n_sites: web.n_sites() as u32,
                shards: shards.to_vec(),
                revs: if any_rev {
                    want_revs[..k].to_vec()
                } else {
                    Vec::new()
                },
                ext: old_ext
                    .filter(|_| ext[..k].iter().any(Option::is_some))
                    .map(|old| ExtSection {
                        fingerprint: old.fingerprint,
                        entries: ext[..k].to_vec(),
                    }),
            }
        };

        // Sweep the directory: temp files from interrupted writes are
        // deleted; shard files that name no planned shard are
        // quarantined, and such cache files are dead cache. The loop
        // below handles every planned shard's own pair.
        let planned = |i: Option<usize>| i.is_some_and(|i| i < specs.len());
        for (name, kind) in list_store_files(dir)? {
            let path = dir.join(name);
            match kind {
                StoreFile::Temp => {
                    std::fs::remove_file(&path)?;
                    report.tmp_removed += 1;
                }
                StoreFile::Shard(i) if !planned(i) => {
                    Self::quarantine_file(dir, &path)?;
                    report.shards_quarantined += 1;
                }
                StoreFile::Ext(i) if !planned(i) => Self::drop_ext_file(&path, &mut report)?,
                _ => {}
            }
        }

        let mut scratch = PageScratch::default();
        let mut url = String::new();
        let mut shards = Vec::with_capacity(specs.len());
        let mut entries = Vec::with_capacity(specs.len());
        let mut ext_entries: Vec<Option<ExtEntry>> = vec![None; specs.len()];
        for (i, spec) in specs.iter().enumerate() {
            let path = Self::shard_path(dir, i);
            let epath = ext_path(dir, i);
            let entry = old_manifest
                .as_ref()
                .and_then(|m| m.shards.get(i))
                .filter(|e| {
                    e.file == Self::shard_name(i)
                        && e.sites
                            == (spec.sites.start as u32..spec.sites.end as u32)
                        && e.first_page == spec.first_page
                        && e.page_count == spec.page_count
                });
            // Manifest + matching header is proof: the durable write
            // guarantees a complete fsynced file behind any final name,
            // and the manifest commits strictly after the shards it
            // lists.
            let vouched = entry.and_then(|e| check_shard(&path, i, e, Depth::Header).ok());
            let rev_ok = entry.is_some()
                && old_manifest
                    .as_ref()
                    .is_some_and(|m| m.rev_digest(i, spec.sites.len()) == want_revs[i]);
            let reused = vouched.filter(|_| rev_ok);
            let header = if let Some(header) = reused {
                // Same shard bytes ⟹ a cached extraction keyed on them is
                // still valid: carry the manifest entry forward, trusting
                // it like the shard digests.
                let listed = old_ext.and_then(|s| s.entries.get(i)?.as_ref());
                match (listed, epath.exists()) {
                    (Some(e), true) => ext_entries[i] = Some(e.clone()),
                    (Some(_), false) => report.ext_dropped += 1,
                    (None, true) => Self::drop_ext_file(&epath, &mut report)?,
                    (None, false) => {}
                }
                report.shards_reused += 1;
                header
            } else {
                if vouched.is_some() {
                    // Intact and vouched for, just rendered at revisions
                    // that have since moved: overwrite in place. Staleness
                    // is a planned mutation, not evidence of damage, so
                    // nothing is quarantined.
                    report.shards_stale += 1;
                } else if mode != RecoverMode::Cold && path.exists() {
                    // Present but unusable: quarantine the evidence before
                    // rendering a replacement. (Cold mode just overwrites.)
                    Self::quarantine_file(dir, &path)?;
                    report.shards_quarantined += 1;
                }
                // Whatever extraction was cached for the old bytes is dead
                // the moment the shard re-renders.
                if epath.exists() {
                    Self::drop_ext_file(&epath, &mut report)?;
                }
                report.shards_rendered += 1;
                let _span = webstruct_util::span!("store.write");
                durable_write(dir, &Self::shard_name(i), session, |file| {
                    let mut writer = PageShardWriter::new(BufWriter::new(file));
                    let mut stream = PageStream::for_site_range(
                        web,
                        catalog,
                        config.clone(),
                        seed,
                        spec.sites.clone(),
                        spec.first_page,
                    );
                    while stream.render_into(&mut scratch) {
                        url.clear();
                        scratch.url_into(&mut url);
                        writer.push(
                            scratch.id(),
                            scratch.site(),
                            scratch.kind(),
                            &url,
                            scratch.text(),
                        )?;
                    }
                    writer.finish()
                })?
            };
            entries.push(ManifestEntry::from_parts(Self::shard_name(i), spec, &header));
            shards.push(path);
            // Recommit the manifest after every rendered shard, so that
            // whatever prefix survives a crash is vouched for and a
            // resume re-renders only the tail (plus at most this one
            // shard, if the crash lands between its rename and this
            // commit). Reused shards are already covered by the old
            // manifest, so pure-reuse iterations skip the rewrite; the
            // last shard is covered by the final commit below.
            if reused.is_none() && i + 1 < specs.len() {
                manifest_of(&entries, &ext_entries).write_atomic(dir, session)?;
            }
        }
        let manifest = manifest_of(&entries, &ext_entries);
        manifest.write_atomic(dir, session)?;

        let m = webstruct_util::obs::metrics();
        m.add("store.resume_skipped", report.shards_reused as u64);
        m.add("store.shards_rendered", report.shards_rendered as u64);
        m.add("store.shards_stale", report.shards_stale as u64);
        m.add("store.shards_quarantined", report.shards_quarantined as u64);
        m.add("store.ext_dropped", report.ext_dropped as u64);

        Ok((
            ShardStore {
                dir: dir.to_path_buf(),
                shards,
                manifest,
            },
            report,
        ))
    }

    /// Open an existing store by its manifest — the directory listing is
    /// never trusted. Validates that the manifest parses and checksums,
    /// that the shard ranges tile `0..n_sites` starting at site 0, that
    /// every listed shard file exists, and that each shard's header (64
    /// bytes of I/O per shard) matches its manifest entry, digest
    /// included. Payloads are *not* re-hashed here — that is
    /// [`scrub`](ShardStore::scrub)'s job (and each payload is verified
    /// anyway when the shard is opened for reading).
    ///
    /// # Errors
    /// [`ShardError::ManifestMissing`] /
    /// [`ManifestCorrupt`](ShardError::ManifestCorrupt) / [`Gap`](ShardError::Gap) /
    /// [`MissingShard`](ShardError::MissingShard) /
    /// [`HeaderMismatch`](ShardError::HeaderMismatch), or I/O errors.
    pub fn open(dir: &Path) -> Result<ShardStore, ShardError> {
        let manifest = StoreManifest::load(dir)?;
        manifest.validate_coverage()?;
        let shards = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                let path = dir.join(&entry.file);
                check_shard(&path, index, entry, Depth::Header).map(|_| path)
            })
            .collect::<Result<_, _>>()?;
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            shards,
            manifest,
        })
    }

    /// Re-hash and re-frame every shard against the manifest: the full
    /// integrity pass behind `webstruct scrub`. Reads every byte of the
    /// store (in streaming chunks — nothing is resident) and classifies
    /// each shard as verified, missing or corrupt, plus any stray files
    /// the manifest does not list.
    #[must_use]
    pub fn scrub(&self) -> ScrubReport {
        Self::scrub_manifest(&self.dir, &self.manifest)
    }

    /// [`scrub`](ShardStore::scrub) without requiring a clean
    /// [`open`](ShardStore::open) first: classifies damage in a store
    /// whose shards no longer pass open-time validation.
    ///
    /// # Errors
    /// Only manifest-level failures ([`ShardError::ManifestMissing`] /
    /// [`ManifestCorrupt`](ShardError::ManifestCorrupt)) — a readable
    /// manifest always yields a report, however damaged the shards.
    pub fn scrub_dir(dir: &Path) -> Result<ScrubReport, ShardError> {
        let manifest = StoreManifest::load(dir)?;
        Ok(Self::scrub_manifest(dir, &manifest))
    }

    fn scrub_manifest(dir: &Path, manifest: &StoreManifest) -> ScrubReport {
        let _span = webstruct_util::span!("scrub");
        let findings = manifest
            .shards
            .iter()
            .enumerate()
            .map(|(index, entry)| ScrubFinding {
                index,
                file: entry.file.clone(),
                status: match check_shard(&dir.join(&entry.file), index, entry, Depth::Full) {
                    Ok(_) => ScrubStatus::Verified,
                    Err(ShardError::MissingShard { .. }) => ScrubStatus::Missing,
                    Err(e) => ScrubStatus::Corrupt(e),
                },
            })
            .collect();
        // Every cache entry the manifest vouches for gets the same
        // treatment as a shard: existence, header keys (shard digest +
        // extractor fingerprint) and a full payload re-hash. A
        // fingerprint mismatch is a Corrupt finding — the frankenstore
        // case where cached extractions from a different extractor config
        // sit beside shards they do not describe.
        let mut ext_findings = Vec::new();
        if let Some(section) = &manifest.ext {
            for (index, maybe) in section.entries.iter().enumerate() {
                let Some(entry) = maybe else { continue };
                let shard_sha = manifest.shards.get(index).map_or([0u8; 32], |e| e.sha256);
                let status = match load_entry(dir, index, entry, shard_sha, section.fingerprint) {
                    ExtLoad::Hit(_) => ScrubStatus::Verified,
                    ExtLoad::Miss => ScrubStatus::Missing,
                    ExtLoad::Poisoned(why) => ScrubStatus::Corrupt(ShardError::CorruptRecord(why)),
                };
                ext_findings.push(ScrubFinding {
                    index,
                    file: entry.file.clone(),
                    status,
                });
            }
        }
        let listed: std::collections::HashSet<&str> = manifest
            .shards
            .iter()
            .map(|e| e.file.as_str())
            .chain(
                manifest
                    .ext
                    .iter()
                    .flat_map(|s| s.entries.iter().flatten().map(|e| e.file.as_str())),
            )
            .collect();
        let strays = list_store_files(dir)
            .unwrap_or_default()
            .into_iter()
            .map(|(name, _)| name)
            .filter(|name| !listed.contains(name.as_str()))
            .collect();
        let report = ScrubReport {
            findings,
            ext_findings,
            strays,
        };
        let m = webstruct_util::obs::metrics();
        m.add("store.shards_verified", report.verified() as u64);
        m.add("store.shards_quarantined", 0); // ensure the counter exists next to verified
        m.add("store.ext_verified", report.ext_verified() as u64);
        report
    }

    /// Directory the store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest the store was opened or written with.
    #[must_use]
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// Number of shard files.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the store has no shards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Paths of the shard files, in site order.
    #[must_use]
    pub fn paths(&self) -> &[PathBuf] {
        &self.shards
    }

    /// Open shard `i` for reading (validates header + checksum).
    ///
    /// # Errors
    /// See [`PageShardReader::open`].
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn reader(&self, i: usize) -> Result<PageShardReader<BufReader<File>>, ShardError> {
        PageShardReader::open_path(&self.shards[i])
    }

    /// Commit extraction-cache entries into the manifest's `ext` section
    /// and atomically recommit `MANIFEST.wsm` — the same tmp → fsync →
    /// rename protocol every other commit uses, so a crash leaves either
    /// the old manifest or the new one, never a torn record. Entries must
    /// be indexed by shard (`None` = no cache for that shard); pass the
    /// extractor fingerprint the payloads were computed with.
    ///
    /// # Errors
    /// Propagates injected or real I/O failures from the recommit.
    ///
    /// # Panics
    /// Panics when `entries.len()` disagrees with the shard count.
    pub fn commit_extractions(
        &mut self,
        extractor_fp: [u8; 32],
        entries: Vec<Option<ExtEntry>>,
        session: &FaultSession,
    ) -> Result<(), ShardError> {
        assert_eq!(
            entries.len(),
            self.shards.len(),
            "one ext slot per shard, in shard order"
        );
        self.manifest.ext = if entries.iter().all(Option::is_none) {
            None
        } else {
            Some(ExtSection {
                fingerprint: extractor_fp,
                entries,
            })
        };
        self.manifest.write_atomic(&self.dir, session)
    }
}

/// A web that arrives shard-by-shard: either rendered on the fly from a
/// [`Web`] (no disk at all — peak memory is one page) or read back from a
/// [`ShardStore`] (peak memory is one record). Both sources yield the same
/// page bytes in the same order, which is what makes the streamed
/// pipeline's output byte-identical to the in-memory path.
pub enum ShardedWeb<'a> {
    /// Render pages directly from the generative model.
    Rendered {
        /// The site→mention relation.
        web: &'a Web,
        /// Entity catalog pages render against.
        catalog: &'a EntityCatalog,
        /// Rendering parameters.
        config: PageConfig,
        /// Corpus seed.
        seed: Seed,
        /// Shard cuts (from [`plan_shards`]).
        specs: Vec<ShardSpec>,
    },
    /// Read pages back from shard files.
    Stored(&'a ShardStore),
}

impl<'a> ShardedWeb<'a> {
    /// Sharded view of `web` rendered on the fly, cut for `threads`
    /// workers: [`plan_shards`] at a target of ⌈total estimated bytes ÷
    /// (8 × threads)⌉, so each worker steals from about eight shards and
    /// the Zipfian head site is not stranded behind a static split. The
    /// plan only decides scheduling — the pages, and so the extraction,
    /// are the same bytes for any cut.
    #[must_use]
    pub fn rendered(
        web: &'a Web,
        catalog: &'a EntityCatalog,
        config: PageConfig,
        seed: Seed,
        threads: usize,
    ) -> Self {
        let total: u64 = (0..web.n_sites())
            .map(|i| PageStream::estimated_site_bytes(web, &config, i))
            .sum();
        let specs = plan_shards(web, &config, total.div_ceil(8 * threads.max(1) as u64));
        ShardedWeb::Rendered {
            web,
            catalog,
            config,
            seed,
            specs,
        }
    }

    /// Number of sites the shards tile, `0..n_sites`.
    #[must_use]
    pub fn n_sites(&self) -> usize {
        match self {
            ShardedWeb::Rendered { web, .. } => web.n_sites(),
            ShardedWeb::Stored(store) => store.manifest().n_sites as usize,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        match self {
            ShardedWeb::Rendered { specs, .. } => specs.len(),
            ShardedWeb::Stored(store) => store.len(),
        }
    }

    /// Stream every page of shard `i` through `f`, reusing one scratch
    /// record. This is the out-of-core workhorse: callers fold pages into
    /// an accumulator and never see more than one page in memory.
    ///
    /// # Errors
    /// Disk-backed shards can fail validation; rendered shards cannot.
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn for_each_page(
        &self,
        i: usize,
        mut f: impl FnMut(PageId, SiteId, PageKind, &str),
    ) -> Result<u64, ShardError> {
        let mut bytes = 0u64;
        match self {
            ShardedWeb::Rendered {
                web,
                catalog,
                config,
                seed,
                specs,
            } => {
                let spec = &specs[i];
                let mut stream = PageStream::for_site_range(
                    web,
                    catalog,
                    config.clone(),
                    *seed,
                    spec.sites.clone(),
                    spec.first_page,
                );
                let mut scratch = PageScratch::default();
                while stream.render_into(&mut scratch) {
                    bytes += scratch.text().len() as u64;
                    f(scratch.id(), scratch.site(), scratch.kind(), scratch.text());
                }
            }
            ShardedWeb::Stored(store) => {
                let mut reader = store.reader(i)?;
                let mut rec = ShardRecord::default();
                while reader.read_into(&mut rec)? {
                    bytes += rec.text.len() as u64;
                    f(rec.id, rec.site, rec.kind, &rec.text);
                }
            }
        }
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;
    use webstruct_util::TempDir;
    use crate::entity::CatalogConfig;
    use crate::web::WebConfig;
    use std::io::Cursor;

    fn tiny_setup() -> (EntityCatalog, Web) {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 300), Seed(21));
        let config = WebConfig::preset(Domain::Restaurants).scaled(0.01);
        let web = Web::generate(&catalog, &config, Seed(21));
        (catalog, web)
    }

    #[test]
    fn plan_covers_every_site_once_with_prefix_page_ids() {
        let (_, web) = tiny_setup();
        let cfg = PageConfig::default();
        for target in [1u64, 50_000, u64::MAX] {
            let specs = plan_shards(&web, &cfg, target);
            assert!(!specs.is_empty());
            let mut next_site = 0usize;
            let mut next_page = 0u32;
            for s in &specs {
                assert_eq!(s.sites.start, next_site);
                assert_eq!(s.first_page, next_page);
                let pages: u32 = s
                    .sites
                    .clone()
                    .map(|i| PageStream::site_page_count(&web, &cfg, i))
                    .sum();
                assert_eq!(s.page_count, pages);
                next_site = s.sites.end;
                next_page += pages;
            }
            assert_eq!(next_site, web.n_sites());
        }
        // target=MAX puts everything in one shard.
        assert_eq!(plan_shards(&web, &cfg, u64::MAX).len(), 1);
    }

    #[test]
    fn estimated_bytes_rank_sites_like_rendered_bytes() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        // Actual rendered bytes per site.
        let mut actual = vec![0u64; web.n_sites()];
        let mut stream = PageStream::new(&web, &catalog, cfg.clone(), Seed(3));
        let mut p = PageScratch::default();
        while stream.render_into(&mut p) {
            actual[p.site().index()] += p.text().len() as u64;
        }
        let est: Vec<u64> = (0..web.n_sites())
            .map(|i| PageStream::estimated_site_bytes(&web, &cfg, i))
            .collect();
        // The estimate must put the true largest site within its top 3.
        let argmax = |v: &[u64]| (0..v.len()).max_by_key(|&i| v[i]).unwrap();
        let mut est_rank: Vec<usize> = (0..est.len()).collect();
        est_rank.sort_by_key(|&i| std::cmp::Reverse(est[i]));
        assert!(
            est_rank[..3].contains(&argmax(&actual)),
            "largest real site not in top-3 estimates"
        );
        // And sites with zero mentions estimate to zero.
        for (site, &e) in web.sites.iter().zip(&est) {
            if web.mentions_of(site.id).is_empty() {
                assert_eq!(e, 0);
            }
        }
    }

    #[test]
    fn shard_roundtrip_is_byte_identical() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-roundtrip");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), 64 * 1024)
            .expect("write shards");
        assert!(store.len() > 1, "fixture should cut multiple shards");
        let mut direct: Vec<ShardRecord> = Vec::new();
        let mut stream = PageStream::new(&web, &catalog, cfg, Seed(3));
        let mut scratch = PageScratch::default();
        while stream.render_into(&mut scratch) {
            let mut url = String::new();
            scratch.url_into(&mut url);
            direct.push(ShardRecord {
                id: scratch.id(),
                site: scratch.site(),
                kind: scratch.kind(),
                url,
                text: scratch.text().to_string(),
            });
        }
        let mut from_disk: Vec<ShardRecord> = Vec::new();
        let mut rec = ShardRecord::default();
        for i in 0..store.len() {
            let mut reader = store.reader(i).expect("open shard");
            while reader.read_into(&mut rec).expect("read record") {
                from_disk.push(rec.clone());
            }
        }
        assert_eq!(direct.len(), from_disk.len());
        for (a, b) in direct.iter().zip(&from_disk) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.site, b.site);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.url, b.url);
            assert_eq!(a.text, b.text, "page {} text diverged", a.id.raw());
        }
        // Re-open via directory listing finds the same shards.
        let reopened = ShardStore::open(&dir).expect("open store");
        assert_eq!(reopened.paths(), store.paths());
    }

    #[test]
    fn recovery_clears_files_the_plan_does_not_name() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-strays");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), 64 * 1024)
            .expect("write shards");
        let n = store.len();
        // Shards past the plan's end and a name that is not the planned
        // zero-padded one are strays; so are such cache files.
        let mut stray_shards = vec![
            ShardStore::shard_name(n),
            ShardStore::shard_name(n + 7),
            "shard-1.wsp".to_string(),
        ];
        for name in &stray_shards {
            std::fs::copy(ShardStore::shard_path(&dir, 0), dir.join(name)).expect("copy shard");
        }
        for name in [ext_name(n), "ext-0.wse".to_string()] {
            std::fs::write(dir.join(name), b"junk").expect("write cache file");
        }
        let (resumed, report) = ShardStore::recover(
            &dir,
            &web,
            &catalog,
            &cfg,
            Seed(3),
            64 * 1024,
            RecoverMode::Resume,
            &FaultSession::clean(),
        )
        .expect("resume");
        assert_eq!(report.shards_reused, n);
        assert_eq!(report.shards_quarantined, stray_shards.len());
        assert_eq!(report.ext_dropped, 2);
        assert_eq!(resumed.paths(), store.paths());
        let mut quarantined: Vec<String> = std::fs::read_dir(dir.join(".quarantine"))
            .expect("quarantine dir")
            .map(|e| e.expect("entry").file_name().into_string().expect("utf-8 name"))
            .collect();
        quarantined.sort();
        stray_shards.sort();
        assert_eq!(quarantined, stray_shards);
        // Outside repair, stray cache files are deleted, not kept.
        assert!(!dir.join(ext_name(n)).exists());
        assert!(!dir.join("ext-0.wse").exists());
    }

    #[test]
    fn repair_quarantines_a_corrupt_shard_with_its_unlisted_cache_file() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-repair-pair");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), 64 * 1024)
            .expect("write shards");
        // The store commits no cache section, so this cache file is both
        // the corrupt shard's and a stray.
        std::fs::write(ext_path(&dir, 0), b"junk").expect("write cache file");
        let victim = &store.paths()[0];
        let mut bytes = std::fs::read(victim).expect("read shard");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(victim, bytes).expect("corrupt shard");
        let (_, report) = ShardStore::recover(
            &dir,
            &web,
            &catalog,
            &cfg,
            Seed(3),
            64 * 1024,
            RecoverMode::Repair,
            &FaultSession::clean(),
        )
        .expect("repair");
        assert_eq!(
            (
                report.shards_quarantined,
                report.shards_rendered,
                report.ext_dropped
            ),
            (1, 1, 1)
        );
        let mut quarantined: Vec<String> = std::fs::read_dir(dir.join(".quarantine"))
            .expect("quarantine dir")
            .map(|e| {
                e.expect("entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8 name")
            })
            .collect();
        quarantined.sort();
        assert_eq!(quarantined, [ext_name(0), ShardStore::shard_name(0)]);
        assert!(ShardStore::scrub_dir(&dir).expect("scrub").is_clean());
    }

    #[test]
    fn repair_refuses_a_store_committed_at_other_revisions() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-repair-revs");
        // An epoch-1 store: one site mutated, so its shard's `rev` line
        // differs from the pristine web's.
        let mut mutated = web.clone();
        mutated.bump_revision(0);
        ShardStore::write(&dir, &mutated, &catalog, &cfg, Seed(3), 64 * 1024).expect("write");
        assert!(ShardStore::scrub_dir(&dir).expect("scrub").is_clean());
        let before = store_files(&dir);

        // Repairing it with the epoch-0 web would re-render that shard at
        // revision 0; it is refused before any file is touched.
        let err = ShardStore::recover(
            &dir,
            &web,
            &catalog,
            &cfg,
            Seed(3),
            64 * 1024,
            RecoverMode::Repair,
            &FaultSession::clean(),
        )
        .expect_err("repair at other revisions must refuse");
        assert!(matches!(err, ShardError::ConfigMismatch), "{err}");
        assert_eq!(store_files(&dir), before);
        assert!(!dir.join(".quarantine").exists());
    }

    #[test]
    fn header_fields_describe_the_shard() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-header");
        let store =
            ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), 64 * 1024).expect("write");
        let specs = plan_shards(&web, &cfg, 64 * 1024);
        assert_eq!(store.len(), specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let r = store.reader(i).expect("open");
            let h = r.header();
            assert_eq!(h.page_count, spec.page_count);
            assert_eq!(h.first_page, spec.first_page);
            assert!(h.site_lo as usize >= spec.sites.start);
            assert!(h.site_hi as usize <= spec.sites.end);
        }
    }

    #[test]
    fn corrupt_and_truncated_shards_are_rejected() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-corrupt");
        let store =
            ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), u64::MAX).expect("write");
        let path = &store.paths()[0];
        let clean = std::fs::read(path).expect("read shard bytes");
        assert!(clean.len() > SHARD_HEADER_LEN + 64);

        // Bad magic.
        let mut bad = clean.clone();
        bad[0] = b'X';
        assert!(matches!(
            PageShardReader::open(Cursor::new(&bad[..])),
            Err(ShardError::BadMagic(_))
        ));
        // Bad version.
        let mut bad = clean.clone();
        bad[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            PageShardReader::open(Cursor::new(&bad[..])),
            Err(ShardError::BadVersion(99))
        ));
        // Flipped payload byte → checksum mismatch.
        let mut bad = clean.clone();
        let k = SHARD_HEADER_LEN + 40;
        bad[k] ^= 0x5a;
        assert!(matches!(
            PageShardReader::open(Cursor::new(&bad[..])),
            Err(ShardError::ChecksumMismatch)
        ));
        // Flipped checksum byte → also a mismatch.
        let mut bad = clean.clone();
        bad[33] ^= 0x5a;
        assert!(matches!(
            PageShardReader::open(Cursor::new(&bad[..])),
            Err(ShardError::ChecksumMismatch)
        ));
        // Truncated payload.
        let cut = &clean[..clean.len() - 17];
        assert!(matches!(
            PageShardReader::open(Cursor::new(cut)),
            Err(ShardError::Truncated { .. })
        ));
        // Truncated header: every prefix, whatever its bytes.
        let garbage = [b'X'; SHARD_HEADER_LEN];
        for len in 0..SHARD_HEADER_LEN {
            for head in [&clean[..len], &garbage[..len]] {
                assert!(
                    matches!(
                        PageShardReader::open(Cursor::new(head)),
                        Err(ShardError::Truncated { expected, got })
                            if expected == SHARD_HEADER_LEN as u64 && got == len as u64
                    ),
                    "header prefix of {len} bytes"
                );
            }
        }
        // Record framing behind a valid checksum: a tail appended to the
        // payload, with the header restamped to vouch for it. A cut
        // prefix is an overrun even when its kind byte is bad too.
        let with_tail = |tail: &[u8]| {
            let mut payload = clean[SHARD_HEADER_LEN..].to_vec();
            payload.extend_from_slice(tail);
            let mut header = read_header(&mut &clean[..]).expect("clean header");
            header.payload_len = payload.len() as u64;
            let mut sha = Sha256::new();
            sha.update(&payload);
            header.sha256 = sha.finalize();
            [&encode_header(&header)[..], &payload].concat()
        };
        let mut bad_kind = [0u8; 15];
        bad_kind[8] = 7;
        let body_overrun = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0];
        for (tail, want) in [
            (&bad_kind[..10], "record prefix overruns payload"),
            (&bad_kind[..], "unknown page kind"),
            (&body_overrun[..], "record body overruns payload"),
        ] {
            let mut reader = PageShardReader::open(Cursor::new(with_tail(tail)))
                .expect("the restamped header vouches for the tail");
            let mut rec = ShardRecord::default();
            let err = loop {
                match reader.read_into(&mut rec) {
                    Ok(true) => {}
                    Ok(false) => panic!("{want}: the tail decoded"),
                    Err(e) => break e,
                }
            };
            assert!(
                matches!(err, ShardError::CorruptRecord(got) if got == want),
                "{want}: {err:?}"
            );
        }
        // The untouched file still opens.
        assert!(PageShardReader::open(Cursor::new(&clean[..])).is_ok());
    }

    #[test]
    fn empty_shard_roundtrips() {
        let mut buf = Cursor::new(Vec::new());
        let w = PageShardWriter::new(&mut buf);
        let h = w.finish().expect("finish empty");
        assert_eq!(h.page_count, 0);
        assert_eq!(h.payload_len, 0);
        let bytes = buf.into_inner();
        let mut r = PageShardReader::open(Cursor::new(&bytes[..])).expect("open empty");
        let mut rec = ShardRecord::default();
        assert!(!r.read_into(&mut rec).expect("read"));
    }

    #[test]
    fn sharded_web_rendered_and_stored_agree() {
        let (catalog, web) = tiny_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-agree");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), 64 * 1024)
            .expect("write shards");
        let rendered = {
            let specs = plan_shards(&web, &cfg, 64 * 1024);
            ShardedWeb::Rendered {
                web: &web,
                catalog: &catalog,
                config: cfg.clone(),
                seed: Seed(3),
                specs,
            }
        };
        let stored = ShardedWeb::Stored(&store);
        assert_eq!(rendered.n_shards(), stored.n_shards());
        for i in 0..rendered.n_shards() {
            let mut a = Vec::new();
            let ab = rendered
                .for_each_page(i, |id, site, kind, text| {
                    a.push((id, site, kind, text.to_owned()));
                })
                .expect("rendered shard");
            let mut b = Vec::new();
            let bb = stored
                .for_each_page(i, |id, site, kind, text| {
                    b.push((id, site, kind, text.to_owned()));
                })
                .expect("stored shard");
            assert_eq!(a, b, "shard {i} diverged");
            assert_eq!(ab, bb);
        }
    }

    // ---- durability: crash sweeps, corruption taxonomy, recovery ----

    use webstruct_util::iofault::IoFaultPlan;

    const TORTURE_TARGET: u64 = 256 * 1024;

    /// An even smaller web than [`tiny_setup`]: the torture sweeps below
    /// re-render the store once per crash point, so the fixture must be
    /// cheap while still cutting several shards.
    fn micro_setup() -> (EntityCatalog, Web) {
        let catalog =
            EntityCatalog::generate(&CatalogConfig::new(Domain::Restaurants, 80), Seed(21));
        let config = WebConfig::preset(Domain::Restaurants).scaled(0.002);
        let web = Web::generate(&catalog, &config, Seed(21));
        (catalog, web)
    }

    /// Every top-level file of a store (shards + manifest), name-sorted —
    /// the byte-identity oracle for recovery convergence. `.quarantine/`
    /// contents are deliberately excluded: they are evidence, not store.
    fn store_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("read store dir")
            .map(|e| e.expect("dir entry"))
            .filter(|e| e.path().is_file())
            .map(|e| {
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).expect("read store file"),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Cold-write a reference store, returning its files and the number
    /// of I/O ops the write issues (= the crash-sweep domain).
    fn reference_store(
        dir: &Path,
        web: &Web,
        catalog: &EntityCatalog,
    ) -> (Vec<(String, Vec<u8>)>, u64) {
        let session = FaultSession::clean();
        ShardStore::recover(
            dir,
            web,
            catalog,
            &PageConfig::default(),
            Seed(3),
            TORTURE_TARGET,
            RecoverMode::Cold,
            &session,
        )
        .expect("cold reference write");
        (store_files(dir), session.ops_issued())
    }

    #[test]
    fn crash_point_sweep_converges_to_cold_store() {
        let (catalog, web) = micro_setup();
        let cfg = PageConfig::default();
        let refdir = TempDir::new("shard-sweep-ref");
        let (reference, total_ops) = reference_store(&refdir, &web, &catalog);
        assert!(total_ops > 20, "sweep domain suspiciously small: {total_ops}");

        // Crash points: every op across the first shard-and-a-half (all
        // op kinds — create, buffered writes, header seek+stamp, fsync,
        // rename, dir fsync), a stride through the steady-state middle,
        // and every op of the manifest commit tail.
        let mut points: Vec<u64> = (0..total_ops.min(40)).collect();
        let stride = (total_ops.saturating_sub(48) / 32).max(7);
        let mut op = 40;
        while op + 8 < total_ops {
            points.push(op);
            op += stride;
        }
        points.extend(total_ops.saturating_sub(8).max(40)..total_ops);

        let dir = TempDir::new("shard-sweep");
        for &k in &points {
            let _ = std::fs::remove_dir_all(&dir);
            let session = FaultSession::new(IoFaultPlan::crash_at(k, Seed(1_000 + k)));
            let crashed = ShardStore::recover(
                &dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET, RecoverMode::Cold, &session,
            );
            assert!(crashed.is_err(), "crash at op {k}/{total_ops} did not surface");
            // Open-or-repair must converge: either the manifest committed
            // (open validates a complete store) or resume re-renders the
            // missing tail.
            if ShardStore::open(&dir).is_err() {
                ShardStore::write_resumable(&dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET)
                    .unwrap_or_else(|e| panic!("resume after crash at op {k} failed: {e}"));
            }
            assert_eq!(
                store_files(&dir),
                reference,
                "store after crash at op {k}/{total_ops} is not byte-identical to cold"
            );
        }
    }

    #[test]
    fn flaky_io_torture_converges_via_scrub_and_repair() {
        let (catalog, web) = micro_setup();
        let cfg = PageConfig::default();
        let refdir = TempDir::new("shard-flaky-ref");
        let (reference, _) = reference_store(&refdir, &web, &catalog);

        let dir = TempDir::new("shard-flaky");
        for trial in 0..6u64 {
            let _ = std::fs::remove_dir_all(&dir);
            let session =
                FaultSession::new(IoFaultPlan::flaky(0.015, 0.5, Seed(7_000 + trial)));
            let wrote = ShardStore::recover(
                &dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET, RecoverMode::Cold, &session,
            );
            // Bit flips and lost writes can leave a "successful" write
            // silently corrupt — scrub must catch what errors did not.
            let clean = wrote.is_ok()
                && matches!(ShardStore::scrub_dir(&dir), Ok(r) if r.is_clean());
            if !clean {
                ShardStore::recover(
                    &dir,
                    &web,
                    &catalog,
                    &cfg,
                    Seed(3),
                    TORTURE_TARGET,
                    RecoverMode::Repair,
                    &FaultSession::clean(),
                )
                    .unwrap_or_else(|e| panic!("repair after flaky trial {trial} failed: {e}"));
            }
            assert_eq!(
                store_files(&dir),
                reference,
                "flaky trial {trial} did not converge to the cold store"
            );
        }
    }

    #[test]
    fn resume_after_kill_skips_complete_shards() {
        let (catalog, web) = micro_setup();
        let cfg = PageConfig::default();
        let refdir = TempDir::new("shard-resume-ref");
        let (reference, total_ops) = reference_store(&refdir, &web, &catalog);

        let dir = TempDir::new("shard-resume");
        let kill_at = total_ops * 6 / 10;
        let session = FaultSession::new(IoFaultPlan::crash_at(kill_at, Seed(5)));
        assert!(ShardStore::recover(
            &dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET, RecoverMode::Cold, &session,
        )
        .is_err());
        // The graceful error path must not leak the in-flight temp file.
        assert!(
            store_files(&dir).iter().all(|(n, _)| !n.ends_with(".tmp")),
            "crashed write leaked a temp file"
        );
        // The partial manifest the crashed write committed vouches for
        // every shard it lists; resume must reuse all of them.
        let committed = StoreManifest::load(&dir).map_or(0, |m| m.shards.len());

        let (_, report) =
            ShardStore::write_resumable(&dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET)
                .expect("resume");
        assert!(report.shards_reused >= 1, "nothing reused: {report:?}");
        assert!(
            report.shards_reused >= committed,
            "resume re-rendered committed shards: {committed} listed, {report:?}"
        );
        assert!(report.shards_rendered >= 1, "nothing re-rendered: {report:?}");
        assert_eq!(
            report.shards_reused + report.shards_rendered,
            report.shards_total
        );
        assert_eq!(store_files(&dir), reference);

        // A second resume over the now-complete store skips everything.
        let (_, again) =
            ShardStore::write_resumable(&dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET)
                .expect("resume again");
        assert_eq!(again.shards_reused, again.shards_total);
        assert_eq!(again.shards_rendered, 0);
        assert!(again.manifest_reused);
        assert_eq!(store_files(&dir), reference);

        // A different seed must refuse to reuse anything (fingerprint
        // mismatch ⇒ frankenstore guard) and still converge for *its*
        // seed.
        let (_, other) =
            ShardStore::write_resumable(&dir, &web, &catalog, &cfg, Seed(4), TORTURE_TARGET)
                .expect("resume across seeds");
        assert_eq!(other.shards_reused, 0, "reused shards across seeds");
    }

    #[test]
    fn unfinished_writer_drop_removes_temp_file() {
        let dir = TempDir::new("shard-tempclean");
        let tmp = dir.join("shard-00000.wsp.tmp");
        let session = FaultSession::clean();
        let err = durable_write(&dir, "shard-00000.wsp", &session, |file| {
            let mut writer = PageShardWriter::new(BufWriter::new(file));
            writer.push(
                PageId::new(0),
                SiteId::new(0),
                PageKind::Listing,
                "u",
                "text",
            )?;
            assert!(tmp.exists());
            // Abandon the writer mid-shard.
            Err::<ShardHeader, _>(ShardError::CorruptRecord("abandoned"))
        });
        assert!(matches!(err, Err(ShardError::CorruptRecord("abandoned"))));
        assert!(!tmp.exists(), "dropped unfinished writer left its temp file");
        assert!(!dir.join("shard-00000.wsp").exists(), "nothing was committed");
    }

    #[test]
    fn open_rejects_missing_shards_gaps_and_bad_manifests() {
        let (catalog, web) = micro_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-gaps");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET)
            .expect("write");
        assert!(store.len() > 2);

        // Deleting a shard the manifest lists is MissingShard, not a
        // silently smaller web.
        let victim = store.paths()[1].clone();
        let pristine = std::fs::read(&victim).expect("read victim");
        std::fs::remove_file(&victim).expect("delete shard");
        match ShardStore::open(&dir) {
            Err(ShardError::MissingShard { index: 1 }) => {}
            other => panic!("open with deleted shard: {other:?}"),
        }
        std::fs::write(&victim, &pristine).expect("restore shard");
        assert!(ShardStore::open(&dir).is_ok());

        // A manifest whose ranges do not tile the site axis is a Gap.
        let mut manifest = StoreManifest::load(&dir).expect("load manifest");
        manifest.shards[1].sites.start += 1;
        manifest
            .write_atomic(&dir, &FaultSession::clean())
            .expect("write gapped manifest");
        match ShardStore::open(&dir) {
            Err(ShardError::Gap { .. }) => {}
            other => panic!("open with gapped manifest: {other:?}"),
        }

        // A truncated manifest fails its own checksum.
        let mpath = StoreManifest::path_in(&dir);
        let text = std::fs::read_to_string(&mpath).expect("read manifest");
        std::fs::write(&mpath, &text[..text.len() / 2]).expect("truncate manifest");
        match ShardStore::open(&dir) {
            Err(ShardError::ManifestCorrupt(_)) => {}
            other => panic!("open with truncated manifest: {other:?}"),
        }

        // No manifest at all is ManifestMissing — directory listings are
        // never trusted, however plausible they look.
        std::fs::remove_file(&mpath).expect("delete manifest");
        match ShardStore::open(&dir) {
            Err(ShardError::ManifestMissing) => {}
            other => panic!("open without manifest: {other:?}"),
        }
    }

    #[test]
    fn corruption_taxonomy_yields_precise_errors() {
        let (catalog, web) = micro_setup();
        let cfg = PageConfig::default();
        let dir = TempDir::new("shard-taxonomy");
        let store = ShardStore::write(&dir, &web, &catalog, &cfg, Seed(3), TORTURE_TARGET)
            .expect("write");
        let victim = store.paths()[0].clone();
        let pristine = std::fs::read(&victim).expect("read shard");
        let payload_len = u64::from_le_bytes(pristine[24..32].try_into().unwrap());
        assert!(payload_len > 0);

        let corrupt_with = |mutate: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = pristine.clone();
            mutate(&mut bytes);
            std::fs::write(&victim, &bytes).expect("write corrupted shard");
            PageShardReader::open_path(&victim)
        };
        let scrub_status = || {
            let report = ShardStore::scrub_dir(&dir).expect("scrub");
            assert!(!report.is_clean());
            report
                .findings
                .into_iter()
                .find(|f| f.index == 0)
                .expect("finding for shard 0")
                .status
        };

        // Magic.
        match corrupt_with(&|b| b[0] ^= 0xFF) {
            Err(ShardError::BadMagic(_)) => {}
            other => panic!("flipped magic: {other:?}"),
        }
        assert!(matches!(
            scrub_status(),
            ScrubStatus::Corrupt(ShardError::BadMagic(_))
        ));

        // Version.
        match corrupt_with(&|b| b[4] = 99) {
            Err(ShardError::BadVersion(99)) => {}
            other => panic!("flipped version: {other:?}"),
        }

        // Payload length: growing it promises bytes that are not there.
        match corrupt_with(&|b| {
            b[24..32].copy_from_slice(&(payload_len + 8).to_le_bytes());
        }) {
            Err(ShardError::Truncated { expected, got }) => {
                assert_eq!(expected, payload_len + 8);
                assert_eq!(got, payload_len);
            }
            other => panic!("grown payload_len: {other:?}"),
        }

        // Digest stamp.
        match corrupt_with(&|b| b[40] ^= 0x01) {
            Err(ShardError::ChecksumMismatch) => {}
            other => panic!("flipped digest: {other:?}"),
        }
        // ...which open() catches against the manifest without hashing.
        match ShardStore::open(&dir) {
            Err(ShardError::HeaderMismatch { index: 0, field }) => assert_eq!(field, "sha256"),
            other => panic!("open with flipped digest: {other:?}"),
        }

        // Mid-payload bit flip: header is intact, only the hash knows.
        let mid = SHARD_HEADER_LEN + payload_len as usize / 2;
        match corrupt_with(&move |b| b[mid] ^= 0x10) {
            Err(ShardError::ChecksumMismatch) => {}
            other => panic!("payload bit flip: {other:?}"),
        }
        assert!(matches!(
            scrub_status(),
            ScrubStatus::Corrupt(ShardError::ChecksumMismatch)
        ));

        // Truncation at a record boundary (payload cut short).
        match corrupt_with(&|b| b.truncate(SHARD_HEADER_LEN + payload_len as usize / 2)) {
            Err(ShardError::Truncated { expected, got }) => {
                assert_eq!(expected, payload_len);
                assert_eq!(got, payload_len / 2);
            }
            other => panic!("truncated payload: {other:?}"),
        }

        // Repair puts every case right again.
        std::fs::write(&victim, &pristine[..pristine.len() / 2]).expect("re-corrupt");
        let (_, report) = ShardStore::recover(
            &dir,
            &web,
            &catalog,
            &cfg,
            Seed(3),
            TORTURE_TARGET,
            RecoverMode::Repair,
            &FaultSession::clean(),
        )
            .expect("repair");
        assert_eq!(report.shards_quarantined, 1);
        assert_eq!(std::fs::read(&victim).expect("read repaired"), pristine);
        assert!(ShardStore::scrub_dir(&dir).expect("scrub").is_clean());
    }
}
