//! The content-addressed response cache: hot endpoints pre-serialized
//! once per epoch into shared buffers.
//!
//! Every cacheable response is a pure function of the epoch state, so
//! the cache is built by running the *real* router once per hot route at
//! epoch-publish time and pinning the rendered bytes in `Arc<[u8]>`
//! buffers — a cache hit serves exactly the bytes the slow path would
//! have produced, by construction, which
//! `tests/serve.rs::sweep_bytes_identical_with_cache_on_and_off` checks
//! over the full endpoint sweep. Fixed routes
//! (`/`, `/sites`, `/coverage{,.csv}`, `/figures`, the demand and figure
//! CSVs) are rendered eagerly; entity cards fill a direct-indexed
//! [`OnceLock`] slab lazily on first touch, so a Zipfian workload pays
//! one render per *distinct* entity instead of one per request.
//!
//! The cache never invalidates in place: a hot swap builds a whole new
//! [`ResponseCache`] inside the next
//! [`ServeEpoch`](crate::swap::ServeEpoch) and publishes it atomically,
//! so readers of the old epoch keep byte-exact old responses until the
//! swap point.

use std::sync::{Arc, OnceLock};

use crate::http::{Method, Request, Response};
use crate::router::{route, Control};
use crate::state::ServeState;
use webstruct_demand::model::StudySite;

/// Above this catalog size the entity slab is skipped (a slab of empty
/// `OnceLock`s per entity would dominate memory on out-of-core corpora);
/// entity cards then always take the slow path.
const MAX_ENTITY_SLAB: usize = 1 << 22;

/// One pre-serialized response: everything needed to write the wire form
/// besides the connection's keep-alive flag.
#[derive(Debug, Clone)]
pub struct CachedResponse {
    /// HTTP status (always 200 for cached resources).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes, shared across connections and epochs' readers.
    pub body: Arc<[u8]>,
}

impl CachedResponse {
    fn from_response(r: &Response) -> Self {
        CachedResponse {
            status: r.status,
            content_type: r.content_type,
            body: Arc::from(r.body.as_slice()),
        }
    }
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The bytes were already pinned (pre-rendered route or warm slab
    /// slot).
    Hit,
    /// An entity slot was rendered and filled by this lookup.
    Filled,
}

/// The per-epoch response cache. Immutable after build except for the
/// monotone lazy fills of the entity slab.
pub struct ResponseCache {
    /// Pre-rendered fixed routes, sorted by path for binary search.
    routes: Vec<(String, CachedResponse)>,
    /// Direct-indexed entity-card slab (`/entity/{id}` by raw id); empty
    /// when the catalog exceeds [`MAX_ENTITY_SLAB`].
    entities: Vec<OnceLock<CachedResponse>>,
}

impl ResponseCache {
    /// Render every fixed hot route through the real router and pin the
    /// results. Cost is one route-render pass per epoch publish.
    #[must_use]
    pub fn build(state: &ServeState) -> Self {
        let _span = webstruct_util::span!("serve.cache_build");
        let mut targets: Vec<String> = vec![
            "/".into(),
            "/sites".into(),
            "/coverage".into(),
            "/coverage.csv".into(),
            "/figures".into(),
        ];
        for site in StudySite::ALL {
            targets.push(format!("/demand/{}/search.csv", site.slug()));
            targets.push(format!("/demand/{}/browse.csv", site.slug()));
        }
        for fig in &state.figures {
            targets.push(format!("/figure/{}.csv", fig.id));
        }

        let mut routes: Vec<(String, CachedResponse)> = targets
            .into_iter()
            .map(|path| {
                let routed = render(state, &path);
                debug_assert_eq!(routed.control, Control::None);
                debug_assert_eq!(routed.response.status, 200);
                (path, CachedResponse::from_response(&routed.response))
            })
            .collect();
        routes.sort_by(|a, b| a.0.cmp(&b.0));

        let slab_len = if state.catalog.len() <= MAX_ENTITY_SLAB {
            state.catalog.len()
        } else {
            0
        };
        let entities = (0..slab_len).map(|_| OnceLock::new()).collect();
        ResponseCache { routes, entities }
    }

    /// Whether `path` is cacheable under this epoch, without rendering or
    /// filling anything. Returns the `Content-Type` the 200 would carry —
    /// exactly what a `304 Not Modified` needs, so revalidations never
    /// populate the slab.
    #[must_use]
    pub fn probe(&self, path: &str) -> Option<&'static str> {
        if let Ok(i) = self
            .routes
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
        {
            return Some(self.routes[i].1.content_type);
        }
        if self.entity_slot(path).is_some() {
            return Some("application/json");
        }
        None
    }

    /// Look up `path`, filling an entity slot on first touch. `None`
    /// means the path is not cacheable and must take the slow path.
    #[must_use]
    pub fn lookup(&self, state: &ServeState, path: &str) -> Option<(&CachedResponse, CacheOutcome)> {
        if let Ok(i) = self
            .routes
            .binary_search_by(|(p, _)| p.as_str().cmp(path))
        {
            return Some((&self.routes[i].1, CacheOutcome::Hit));
        }
        let idx = self.entity_slot(path)?;
        let cell = &self.entities[idx];
        if let Some(hit) = cell.get() {
            return Some((hit, CacheOutcome::Hit));
        }
        let filled = cell.get_or_init(|| {
            let routed = render(state, path);
            debug_assert_eq!(routed.response.status, 200);
            CachedResponse::from_response(&routed.response)
        });
        Some((filled, CacheOutcome::Filled))
    }

    /// The slab index for `path` if it is an in-range `/entity/{id}`.
    fn entity_slot(&self, path: &str) -> Option<usize> {
        let rest = path.strip_prefix("/entity/")?;
        let id = rest.parse::<u32>().ok()?;
        let idx = id as usize;
        (idx < self.entities.len()).then_some(idx)
    }
}

/// Route a synthetic GET for `path` — cached entries are rendered by the
/// same code as the slow path, which is the byte-equality guarantee.
fn render(state: &ServeState, path: &str) -> crate::router::Routed {
    let req = Request {
        method: Method::Get,
        path: path.to_string(),
        query: Vec::new(),
        if_none_match: None,
        http11: true,
        keep_alive: true,
    };
    route(state, &req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webstruct_core::study::StudyConfig;
    use webstruct_corpus::domain::Domain;
    use webstruct_util::{Seed, TempDir};

    fn state() -> ServeState {
        let dir = TempDir::new("serve-cache");
        let config = StudyConfig::quick().with_scale(0.02).with_seed(Seed(4));
        ServeState::build(Domain::Restaurants, config, &dir, 2).unwrap()
    }

    #[test]
    fn cached_bytes_match_the_router_exactly() {
        let s = state();
        let cache = ResponseCache::build(&s);
        for path in [
            "/",
            "/sites",
            "/coverage",
            "/coverage.csv",
            "/figures",
            "/demand/yelp/search.csv",
            "/figure/serve-coverage.csv",
            "/entity/0",
            "/entity/3",
        ] {
            let (cached, _) = cache.lookup(&s, path).expect("cacheable");
            let fresh = render(&s, path).response;
            assert_eq!(cached.status, fresh.status, "{path}");
            assert_eq!(cached.content_type, fresh.content_type, "{path}");
            assert_eq!(&cached.body[..], fresh.body.as_slice(), "{path}");
        }
    }

    #[test]
    fn entity_slab_fills_once_then_hits() {
        let s = state();
        let cache = ResponseCache::build(&s);
        let (_, first) = cache.lookup(&s, "/entity/5").unwrap();
        assert_eq!(first, CacheOutcome::Filled);
        let (_, second) = cache.lookup(&s, "/entity/5").unwrap();
        assert_eq!(second, CacheOutcome::Hit);
        // Probe never fills.
        assert!(cache.probe("/entity/6").is_some());
        let (_, outcome) = cache.lookup(&s, "/entity/6").unwrap();
        assert_eq!(outcome, CacheOutcome::Filled, "probe must not fill");
    }

    #[test]
    fn uncacheable_paths_fall_through() {
        let s = state();
        let cache = ResponseCache::build(&s);
        for path in [
            "/entity",         // query-driven lookup
            "/entity/banana",  // bad param → slow path renders the 400
            "/entity/999999999",
            "/metrics",
            "/shutdown",
            "/admin/epoch",
            "/site/0",         // long tail, intentionally uncached
            "/nothing",
        ] {
            assert!(cache.probe(path).is_none(), "{path}");
            assert!(cache.lookup(&s, path).is_none(), "{path}");
        }
    }
}
