//! # webstruct-corpus
//!
//! The synthetic web: the stand-in for the proprietary inputs of *An
//! Analysis of Structured Data on the Web* (VLDB 2012) — the Yahoo! web
//! cache, the business-listings database, and the ISBN database.
//!
//! * [`domain`] — the nine study domains and attribute taxonomy (Table 1);
//! * [`phone`], [`isbn`] — identifying-attribute types with the textual
//!   renderings that appear on pages;
//! * [`entity`] — reference entity catalogs with identifier indexes;
//! * [`site`], [`web`] — the generative site/mention model (aggregators,
//!   regional directories, niche tail);
//! * [`stats`] — checkable heavy-tail diagnostics of generated webs;
//! * [`text`] — review vs. boilerplate language models;
//! * [`page`] — lazy deterministic page rendering, so the extraction
//!   pipeline in `webstruct-extract` runs over real text;
//! * [`shard`] — out-of-core page shards with crash-safe writes,
//!   resume-after-kill and quarantine-and-repair recovery;
//! * [`manifest`] — the store-level `MANIFEST.wsm` commit record
//!   (per-shard digests, site coverage, config/seed fingerprint);
//! * [`extcache`] — content-addressed per-shard extraction cache
//!   (`ext-NNNNN.wse` files keyed by shard digest + extractor
//!   fingerprint, committed through the same manifest).

//!
//! ## Example
//!
//! ```
//! use webstruct_corpus::{CatalogConfig, Domain, EntityCatalog, Web, WebConfig};
//! use webstruct_util::Seed;
//!
//! let catalog = EntityCatalog::generate(
//!     &CatalogConfig::new(Domain::Restaurants, 200),
//!     Seed::DEFAULT,
//! );
//! let web = Web::generate(
//!     &catalog,
//!     &WebConfig::preset(Domain::Restaurants).scaled(0.01),
//!     Seed::DEFAULT,
//! );
//! assert!(web.n_mentions() > 0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod domain;
pub mod entity;
pub mod extcache;
pub mod isbn;
pub mod manifest;
pub mod page;
pub mod phone;
pub mod shard;
pub mod site;
pub mod stats;
pub mod text;
pub mod web;

pub use domain::{AttrMask, Attribute, Domain};
pub use entity::{CatalogConfig, Entity, EntityCatalog};
pub use isbn::Isbn;
pub use page::{PageConfig, PageKind, PageScratch, PageStream};
pub use phone::{PhoneFormat, PhoneNumber};
pub use extcache::{ext_name, ext_path, ExtLoad};
pub use manifest::{
    revision_digest, zero_revision_digest, ExtEntry, ExtSection, ManifestEntry, StoreManifest,
    MANIFEST_NAME,
};
pub use shard::{
    plan_shards, PageShardReader, PageShardWriter, RecoverMode, RecoveryReport, ScrubFinding,
    ScrubReport, ScrubStatus, ShardError, ShardRecord, ShardSpec, ShardStore, ShardedWeb,
};
pub use site::{Site, SiteKind};
pub use web::{Mention, Web, WebConfig};
