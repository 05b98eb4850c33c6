//! # webstruct-serve
//!
//! The serving layer: expose the extracted web back as a query surface,
//! closing the loop the paper's production context implies (the corpus
//! was analyzed *because* it was served). Std-only — a hand-rolled
//! HTTP/1.1 stack over `std::net`, no async runtime:
//!
//! * [`http`] — incremental request parser with an exact error taxonomy
//!   (400/405/413/431/505), plus the deterministic response writer;
//! * [`state`] — warm serving state built from the epoch store
//!   (entities, per-site coverage, demand studies, figures);
//! * [`router`] — the FTL-style resource tree mapping paths onto state;
//! * [`cache`] — the hot-path response cache: fixed routes pre-rendered
//!   once per epoch, entity cards lazily pinned in a direct-indexed
//!   slab, every hit serving the router's exact bytes;
//! * [`swap`] — live epoch hot-swap: the serving state behind an
//!   atomically swappable `Arc`, rebuilt (mutate + dirty-slice
//!   recompute) on a background thread and published without dropping
//!   connections;
//! * [`server`] — acceptor + bounded worker pool, keep-alive and
//!   pipelining, graceful shutdown, `serve.*` counters with an exact
//!   connection-accounting invariant, ETag/`If-None-Match` → 304
//!   revalidation against the epoch digest;
//! * [`client`] — a minimal client for smoke tests and the replayer;
//! * [`replay`](mod@replay) — the load generator: drive a seed-pure
//!   [`RequestPlan`](webstruct_demand::traffic::RequestPlan) stream over
//!   real sockets and digest every response order-independently,
//!   partitioned per epoch ETag so hot-swap windows stay auditable.
//!
//! ## Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use webstruct_core::study::StudyConfig;
//! use webstruct_corpus::domain::Domain;
//! use webstruct_serve::{ServeConfig, ServeState, Server};
//!
//! let state = ServeState::build(
//!     Domain::Restaurants,
//!     StudyConfig::quick(),
//!     std::path::Path::new("artifacts/serve-store"),
//!     4,
//! )
//! .unwrap();
//! let server = Server::start(Arc::new(state), &ServeConfig::default(), "127.0.0.1:0").unwrap();
//! println!("serving on http://{}", server.local_addr());
//! let stats = server.join(); // blocks until POST /shutdown
//! assert!(stats.is_consistent());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod cache;
pub mod client;
pub mod http;
pub mod replay;
pub mod router;
pub mod server;
pub mod state;
pub mod swap;

pub use cache::{CacheOutcome, CachedResponse, ResponseCache};
pub use client::{fetch, fetch_with, Connection, HttpResponse};
pub use http::{
    if_none_match_matches, parse_head, parse_request, HeadParse, HttpError, Method, Parse, Request,
    RequestHead, Response,
};
pub use replay::{replay, EpochSlice, ReplayOptions, ReplayReport};
pub use router::{route, Control, Routed};
pub use server::{ServeConfig, ServeStats, Server};
pub use state::ServeState;
pub use swap::{EpochManager, ServeEpoch, SharedServing};
