//! # webstruct-util
//!
//! Shared foundations for the `webstruct` workspace — the reproduction of
//! *An Analysis of Structured Data on the Web* (Dalvi, Machanavajjhala,
//! Pang; VLDB 2012):
//!
//! * [`rng`] — deterministic SplitMix64 / xoshiro256** generators and the
//!   experiment [`rng::Seed`] type;
//! * [`bytescan`] — word-at-a-time (SWAR / SSE2) byte-scanning kernels:
//!   `memchr` family, ASCII case-insensitive substring search, byte-class
//!   skip tables — the primitives under every extraction scanner;
//! * [`hash`] — Fx hashing and fast map/set aliases for the integer-keyed
//!   hot paths;
//! * [`csv`] — CSV rendering of report artifacts;
//! * [`ids`] — newtyped dense u32 identifiers;
//! * [`powerlaw`] — log-binned histograms and the Hill tail estimator;
//! * [`sample`] — Zipf weights, alias-table sampling, bounded Pareto;
//! * [`stats`] — means, quantiles, z-normalisation, the paper's log₂
//!   review-count binning, log-spaced sweep ticks;
//! * [`report`] — `Figure`/`Series`/`Table` report artifacts with `.dat`,
//!   Markdown and ASCII renderings;
//! * [`svg`] — standalone SVG line charts for every figure;
//! * [`par`] — deterministic std-only parallel map, fold and joinable
//!   job over `std::thread::scope`, never more than `WEBSTRUCT_THREADS`
//!   workers however calls nest;
//! * [`fault`] — seeded fault injection: per-site failure plans, a
//!   simulated clock, retry/backoff policies and circuit breakers;
//! * [`iofault`] — seeded *storage* fault injection: deterministic
//!   torn-write/bit-flip/ENOSPC/fsync/rename fault plans behind a
//!   `Read`/`Write`/`Seek` file wrapper, for crash-safety torture tests;
//! * [`obs`] — structured observability: hierarchical spans, deterministic
//!   counter/gauge/histogram registries and per-run trace reports;
//! * [`sha`] — std-only SHA-256 for golden artifact manifests;
//! * [`tempdir`] — uniquely named scratch directories that clean up on
//!   drop, for tests and harnesses that write to disk;
//! * [`wire`] — the bounded little-endian reader every on-disk decoder
//!   reads through.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bytescan;
pub mod csv;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod iofault;
pub mod obs;
pub mod par;
pub mod powerlaw;
pub mod report;
pub mod rng;
pub mod sample;
pub mod sha;
pub mod stats;
pub mod svg;
pub mod tempdir;
pub mod wire;

pub use fault::{
    BreakerConfig, CircuitBreaker, Fault, FaultConfig, FaultPlan, RetryPolicy, SimClock,
};
pub use hash::{FxHashMap, FxHashSet};
pub use iofault::{FaultFile, FaultSession, IoFault, IoFaultPlan, OpKind};
pub use ids::{EntityId, PageId, RegionId, SiteId, UserId};
pub use obs::{LocalHistogram, Metrics, MetricsSnapshot, Obs, Trace, TraceMode};
pub use report::{Figure, Series, Table};
pub use rng::{Seed, Xoshiro256};
pub use tempdir::TempDir;
