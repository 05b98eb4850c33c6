//! # webstruct-dedup
//!
//! Record deduplication — the "deduplication and linking" stage of the
//! end-to-end challenge enumerated in §1 of *An Analysis of Structured
//! Data on the Web* ("automatic crawling, clustering, extraction,
//! deduplication and linking, all at the scale and diversity of the
//! Web"):
//!
//! * [`similarity`] — Jaro/Jaro–Winkler/token-Jaccard name similarity;
//! * [`records`] — noisy per-site listing records with ground truth;
//! * [`blocking`] — one scored candidate table, viewed by each [`Blocking`];
//! * [`cluster`](mod@cluster) — pairwise matching (fixed phone-boosted
//!   thresholds), union–find clustering, pairwise precision/recall/F1.

//!
//! ## Example
//!
//! ```
//! use webstruct_dedup::name_similarity;
//!
//! assert!(name_similarity("Golden Dragon Cafe", "Golden Dragon") > 0.75);
//! assert!(name_similarity("Golden Dragon Cafe", "Ruby Crossing Inn") < 0.5);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod blocking;
pub mod cluster;
pub mod records;
pub mod similarity;

pub use blocking::{evaluate_blocking, Blocking, BlockingReport, Candidate, CandidateTable};
pub use cluster::{cluster, dedup_and_evaluate, is_match, DedupReport};
pub use records::{generate_records, Record, VariantModel};
pub use similarity::{jaro, jaro_winkler, name_similarity, normalize, token_jaccard};
