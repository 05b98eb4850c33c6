//! # webstruct-extract
//!
//! The information-extraction substrate of the study: identifier scanners,
//! an HTML-lite parser, a Naïve Bayes review classifier, and the pipeline
//! that turns rendered pages into per-attribute (site, entity) occurrence
//! tables (§3.1–§3.2 of the paper).
//!
//! * [`html`] — anchor/`href` extraction, tag stripping, URL host parsing;
//! * [`phone_scan`] — the US phone extractor (all six surface forms, NANP
//!   validation);
//! * [`isbn_scan`] — ISBN-10/13 matching with the `ISBN` marker-window rule;
//! * [`tokenize`], [`nb`], [`training`] — the review-page classifier;
//! * [`pipeline`] — sharded web in, [`pipeline::ExtractedWeb`] out;
//! * [`precision`] — the §3.5 false-match study;
//! * [`wrapper`] — unsupervised wrapper induction (template learning), the
//!   catalog-free extraction path of refs [1, 6, 8].

//!
//! ## Example
//!
//! ```
//! use webstruct_extract::phone_scan::for_each_phone;
//!
//! let mut found = Vec::new();
//! for_each_phone("Call (415) 555-0134 or 212-555-9876 today", |m| {
//!     found.push(m.phone.digits());
//! });
//! assert_eq!(found, [4_155_550_134, 2_125_559_876]);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

#[cfg(test)]
mod differential;
pub mod html;
pub mod isbn_scan;
pub mod nb;
pub mod phone_scan;
pub mod pipeline;
pub mod precision;
pub mod tokenize;
pub mod training;
pub mod wrapper;

pub use nb::NaiveBayes;
pub use pipeline::{
    ClaimedShard, ExtractJob, ExtractScratch, ExtractedWeb, Extractor, PageExtraction,
    EXTRACTOR_VERSION, SNAPSHOT_MAGIC,
};
pub use precision::{phone_precision_study, PrecisionReport};
pub use training::train_review_classifier;
pub use wrapper::{learn_wrapper, RawRecord, Wrapper};
