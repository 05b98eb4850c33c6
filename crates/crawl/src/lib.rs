//! # webstruct-crawl
//!
//! Bootstrapping-based *source discovery* — the operational version of
//! §5 of *An Analysis of Structured Data on the Web*. Where
//! `webstruct-graph` analyses the entity–site graph statically, this
//! crate runs the discovery process the paper reasons about:
//!
//! * [`index`] — an immutable search-engine substrate (entity → ranked
//!   sites, optional result-page caps);
//! * [`frontier`] — fetch-ordering policies (FIFO, largest-first, random,
//!   smallest-first);
//! * [`crawler`] — the budgeted bootstrap crawler with discovery traces:
//!   one run method over a fault plan, counting the queries it issues;
//! * [`fetch`] — typed fetch outcomes and the fault-aware fetch
//!   simulator (fixed retries, backoff and per-site circuit breakers over
//!   a simulated clock, one [`FetchStats`] ledger);
//! * [`experiment`] — policy comparison, the paper's random-seed
//!   robustness claim, and the failure-rate sweep.

//!
//! ## Example
//!
//! ```
//! use webstruct_crawl::{crawl, Fifo, SearchIndex};
//! use webstruct_util::EntityId;
//!
//! let world = vec![
//!     vec![EntityId::new(0), EntityId::new(1)],
//!     vec![EntityId::new(1), EntityId::new(2)],
//! ];
//! let index = SearchIndex::build(3, &world, None);
//! let result = crawl(&index, &world, Fifo::default(), &[EntityId::new(0)], 100);
//! assert_eq!(result.entities_found, 3);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crawler;
pub mod experiment;
pub mod fetch;
pub mod frontier;
pub mod index;

pub use crawler::{crawl, CrawlResult, Crawler};
pub use experiment::{
    failure_sweep, policy_comparison, seed_robustness, FailurePoint, SeedRobustness,
};
pub use fetch::{FetchError, FetchOutcome, FetchStats};
pub use frontier::{Fifo, FrontierPolicy, LargestFirst, RandomOrder, SmallestFirst};
pub use index::SearchIndex;
