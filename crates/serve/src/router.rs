//! Resource routing: map parsed requests onto the warm [`ServeState`]
//! with an exact, minimal error taxonomy.
//!
//! The routing model is FTL-flavoured: the path space is a fixed tree of
//! read-only resources, every leaf renders deterministically from state
//! built at startup, and every failure maps to one of a *small* set of
//! outcomes — `404 not_found` (the resource genuinely does not exist),
//! `400 bad_param` (the resource exists but the request's parameters do
//! not parse), `405 method_not_allowed` (the resource exists but not
//! under that verb) and `500 internal` (reserved for handler panics,
//! caught at the connection layer). No handler writes, so there is no
//! 2xx-with-side-effects ambiguity anywhere except the explicit
//! `POST /shutdown` control endpoint.

use crate::http::{Method, Request, Response};
use webstruct_util::obs::escape_json;
use crate::state::ServeState;
use webstruct_demand::curves::{cdf_series, Channel};
use webstruct_demand::model::StudySite;
use webstruct_util::ids::EntityId;

/// What the connection layer should do after sending the response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Nothing — a plain resource response.
    None,
    /// The body must be the live metrics report (rendered by the server
    /// layer, which owns the counters).
    Metrics,
    /// Begin graceful shutdown after the response is written.
    Shutdown,
    /// Kick off a background epoch mutation + hot swap (the server layer
    /// owns the epoch manager). Fraction is carried in basis points so
    /// the variant stays `Copy + Eq` and exactly deterministic.
    EpochSwap {
        /// Mutation fraction in basis points (100 = 1% of sites).
        fraction_bp: u64,
        /// Seed for the mutation's site selection.
        seed: u64,
    },
}

/// A routed request: the response plus the follow-up action.
pub struct Routed {
    /// The response to send.
    pub response: Response,
    /// What to do after sending it.
    pub control: Control,
}

impl Routed {
    fn plain(response: Response) -> Self {
        Routed {
            response,
            control: Control::None,
        }
    }
}

fn not_found(detail: &str) -> Routed {
    Routed::plain(Response::error(404, "not_found", detail))
}

fn bad_param(detail: &str) -> Routed {
    Routed::plain(Response::error(400, "bad_param", detail))
}

fn method_not_allowed(detail: &str) -> Routed {
    Routed::plain(Response::error(405, "method_not_allowed", detail))
}

/// Route one parsed request against the state tree.
#[must_use]
pub fn route(state: &ServeState, req: &Request) -> Routed {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();

    // The one mutating control endpoint, POST-only by design: a GET to
    // it exercises the 405 arm of the taxonomy.
    if segments == ["shutdown"] {
        return match req.method {
            Method::Post => Routed {
                response: Response::ok_json("{\"shutting_down\": true}\n".to_string()),
                control: Control::Shutdown,
            },
            _ => method_not_allowed("/shutdown is POST-only"),
        };
    }
    // The hot-swap control endpoint: parameters parse here so taxonomy
    // errors stay in the router, but the swap itself runs in the server
    // layer (which owns the epoch manager and may not have one).
    if segments == ["admin", "epoch"] {
        return match req.method {
            Method::Post => {
                let fraction_bp = match req.query_param("fraction_bp") {
                    None => 100,
                    Some(raw) => match raw.parse::<u64>() {
                        Ok(bp) if bp <= 10_000 => bp,
                        _ => return bad_param("fraction_bp must be an integer in 0..=10000"),
                    },
                };
                let seed = match req.query_param("seed") {
                    None => 1,
                    Some(raw) => match raw.parse::<u64>() {
                        Ok(s) => s,
                        Err(_) => return bad_param("seed must be a non-negative integer"),
                    },
                };
                Routed {
                    // Body is a placeholder; the server layer substitutes
                    // the actual swap verdict (started / in-flight / off).
                    response: Response::ok_json(String::new()),
                    control: Control::EpochSwap { fraction_bp, seed },
                }
            }
            _ => method_not_allowed("/admin/epoch is POST-only"),
        };
    }
    if req.method == Method::Post {
        return method_not_allowed("resource endpoints are read-only");
    }

    match segments.as_slice() {
        [] => Routed::plain(index(state)),
        ["entity"] => entity_lookup(state, req),
        ["entity", id] => entity_card(state, id),
        ["sites"] => Routed::plain(sites_summary(state)),
        ["site", idx] => site_card(state, idx),
        ["coverage"] => Routed::plain(coverage_json(state)),
        ["coverage.csv"] => Routed::plain(coverage_csv(state)),
        ["demand", site, file] => demand_csv(state, site, file),
        ["figures"] => Routed::plain(figures_index(state)),
        ["figure", file] => figure_csv(state, file),
        ["metrics"] => Routed {
            // Body is a placeholder; the server layer substitutes the
            // live report (it owns the counters this endpoint publishes).
            response: Response::ok_json(String::new()),
            control: Control::Metrics,
        },
        _ => not_found("no such resource"),
    }
}

/// `GET /` — the resource tree, so the server is self-describing.
fn index(state: &ServeState) -> Response {
    let body = format!(
        "{{\n  \"service\": \"webstruct-serve\",\n  \"domain\": \"{}\",\n  \"scale\": {},\n  \
         \"epoch\": {},\n  \"entities\": {},\n  \"sites\": {},\n  \"endpoints\": [\"/\", \
         \"/entity/{{id}}\", \"/entity?phone=|isbn=|homepage=\", \"/sites\", \"/site/{{idx}}\", \
         \"/coverage\", \"/coverage.csv\", \"/demand/{{site}}/{{channel}}.csv\", \"/figures\", \
         \"/figure/{{id}}.csv\", \"/metrics\", \"POST /admin/epoch\", \"POST /shutdown\"]\n}}\n",
        state.domain.slug(),
        state.config.scale,
        state.report.epoch,
        state.catalog.len(),
        state.n_sites(),
    );
    Response::ok_json(body)
}

/// `GET /entity?phone=…|isbn=…|homepage=…` — the catalog's identifier
/// indexes, i.e. the entity-resolution read path.
fn entity_lookup(state: &ServeState, req: &Request) -> Routed {
    let found = if let Some(phone) = req.query_param("phone") {
        let digits: String = phone.chars().filter(char::is_ascii_digit).collect();
        let Ok(digits) = digits.parse::<u64>() else {
            return bad_param("phone must contain digits");
        };
        state.catalog.by_phone(digits)
    } else if let Some(isbn) = req.query_param("isbn") {
        match webstruct_corpus::isbn::Isbn::parse(isbn) {
            Ok(parsed) => state.catalog.by_isbn(parsed.core()),
            Err(_) => return bad_param("isbn must be a valid ISBN-10/13"),
        }
    } else if let Some(host) = req.query_param("homepage") {
        if host.is_empty() {
            return bad_param("homepage must be a hostname");
        }
        state.catalog.by_homepage(host)
    } else {
        return bad_param("expected one of phone=, isbn=, homepage=");
    };
    match found {
        Some(id) => Routed::plain(render_entity(state, id)),
        None => not_found("no entity matches that identifier"),
    }
}

/// `GET /entity/{id}` — one entity card.
fn entity_card(state: &ServeState, id: &str) -> Routed {
    let Ok(raw) = id.parse::<u32>() else {
        return bad_param("entity id must be a non-negative integer");
    };
    if raw as usize >= state.catalog.len() {
        return not_found("entity id out of range");
    }
    Routed::plain(render_entity(state, EntityId::new(raw)))
}

fn render_entity(state: &ServeState, id: EntityId) -> Response {
    let entity = state.catalog.entity(id);
    let sites = &state.entity_sites[id.index()];
    let rank = id.index();
    let mut demand = String::new();
    for study in &state.traffic {
        let (s, b) = (
            study.demand_search.get(rank).copied().unwrap_or(0),
            study.demand_browse.get(rank).copied().unwrap_or(0),
        );
        demand.push_str(&format!(
            "    {{\"site\": \"{}\", \"search\": {s}, \"browse\": {b}}},\n",
            study.site.slug()
        ));
    }
    let demand = demand.trim_end_matches(",\n").to_string();
    let body = format!(
        "{{\n  \"id\": {},\n  \"name\": \"{}\",\n  \"rank\": {rank},\n  \"region\": {},\n  \
         \"phone\": {},\n  \"homepage\": {},\n  \"isbn\": {},\n  \"site_count\": {},\n  \
         \"sites_head\": {:?},\n  \"demand\": [\n{demand}\n  ]\n}}\n",
        id.raw(),
        escape_json(&entity.name),
        entity.region.raw(),
        entity
            .phone
            .map_or_else(|| "null".into(), |p| format!("\"{p}\"")),
        entity
            .homepage
            .as_ref()
            .map_or_else(|| "null".into(), |h| format!("\"{}\"", escape_json(h))),
        entity
            .isbn
            .map_or_else(|| "null".into(), |i| format!("\"{i}\"")),
        sites.len(),
        &sites[..sites.len().min(16)],
    );
    Response::ok_json(body)
}

/// `GET /sites` — corpus-wide site summary.
fn sites_summary(state: &ServeState) -> Response {
    let n = state.n_sites();
    let occupied = state.site_lists.iter().filter(|l| !l.is_empty()).count();
    let max_entities = state.site_lists.iter().map(Vec::len).max().unwrap_or(0);
    let body = format!(
        "{{\n  \"sites\": {n},\n  \"sites_with_extractions\": {occupied},\n  \
         \"occurrences\": {},\n  \"max_entities_on_one_site\": {max_entities},\n  \
         \"attribute\": \"{}\"\n}}\n",
        state.report.occurrences,
        state.attr.slug(),
    );
    Response::ok_json(body)
}

/// `GET /site/{idx}` — one site's extracted entities (per-site coverage).
fn site_card(state: &ServeState, idx: &str) -> Routed {
    let Ok(site) = idx.parse::<usize>() else {
        return bad_param("site index must be a non-negative integer");
    };
    let Some(entities) = state.site_lists.get(site) else {
        return not_found("site index out of range");
    };
    let coverage = entities.len() as f64 / state.catalog.len().max(1) as f64;
    let ids: Vec<u32> = entities.iter().take(64).map(|e| e.raw()).collect();
    let body = format!(
        "{{\n  \"site\": {site},\n  \"entities\": {},\n  \"coverage\": {coverage},\n  \
         \"entities_head\": {ids:?}\n}}\n",
        entities.len(),
    );
    Routed::plain(Response::ok_json(body))
}

/// `GET /coverage` — the epoch's k-coverage curve and pipeline stats.
/// Every field is a function of the epoch's outputs, which the ETag
/// names; how the store reached them (extraction-cache hits and misses)
/// is reported as the `cache.ext_*` counters on `/metrics` instead.
fn coverage_json(state: &ServeState) -> Response {
    let r = &state.report;
    let body = format!(
        "{{\n  \"epoch\": {},\n  \"k_coverage\": {:?},\n  \"occurrences\": {},\n  \
         \"graph_edges\": {},\n  \"output_digest\": \"{}\"\n}}\n",
        r.epoch,
        r.coverages,
        r.occurrences,
        r.graph_edges,
        r.digest_hex(),
    );
    Response::ok_json(body)
}

/// `GET /coverage.csv` — the same curve as rows.
fn coverage_csv(state: &ServeState) -> Response {
    let mut body = String::from("k,coverage\n");
    for (i, c) in state.report.coverages.iter().enumerate() {
        body.push_str(&format!("{},{c}\n", i + 1));
    }
    Response::ok_csv(body)
}

/// `GET /demand/{site}/{channel}.csv` — one site's demand CDF.
fn demand_csv(state: &ServeState, site: &str, file: &str) -> Routed {
    let Some(site) = StudySite::ALL.iter().copied().find(|s| s.slug() == site) else {
        return not_found("unknown study site");
    };
    let channel = match file {
        "search.csv" => Channel::Search,
        "browse.csv" => Channel::Browse,
        _ => return not_found("channel must be search.csv or browse.csv"),
    };
    let study = state
        .study(site)
        .expect("every study site is simulated at startup");
    let series = cdf_series(study, channel, 101);
    let mut body = String::from("inventory_fraction,cumulative_demand\n");
    for (x, y) in &series.points {
        body.push_str(&format!("{x},{y}\n"));
    }
    Routed::plain(Response::ok_csv(body))
}

/// `GET /figures` — the figure catalog.
fn figures_index(state: &ServeState) -> Response {
    let mut body = String::from("{\n  \"figures\": [\n");
    for (i, f) in state.figures.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"id\": \"{}\", \"title\": \"{}\", \"series\": {}}}{}\n",
            escape_json(&f.id),
            escape_json(&f.title),
            f.series.len(),
            if i + 1 < state.figures.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    Response::ok_json(body)
}

/// `GET /figure/{id}.csv` — a figure in `.dat` form.
fn figure_csv(state: &ServeState, file: &str) -> Routed {
    let Some(id) = file.strip_suffix(".csv") else {
        return not_found("figure exports are .csv");
    };
    match state.figure(id) {
        Some(fig) => Routed::plain(Response::ok_csv(fig.to_dat())),
        None => not_found("unknown figure id"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{parse_request, Parse};
    use webstruct_core::study::StudyConfig;
    use webstruct_corpus::domain::Domain;
    use webstruct_util::{Seed, TempDir};

    fn state() -> ServeState {
        let dir = TempDir::new("serve-router");
        let config = StudyConfig::quick().with_scale(0.02).with_seed(Seed(4));
        ServeState::build(Domain::Restaurants, config, &dir, 2).unwrap()
    }

    fn get(state: &ServeState, target: &str) -> Routed {
        let raw = format!("GET {target} HTTP/1.1\r\n\r\n");
        let Parse::Complete(req, _) = parse_request(raw.as_bytes()) else {
            panic!("test request must parse");
        };
        route(state, &req)
    }

    #[test]
    fn taxonomy_covers_the_path_space() {
        let s = state();
        assert_eq!(get(&s, "/").response.status, 200);
        assert_eq!(get(&s, "/entity/0").response.status, 200);
        assert_eq!(get(&s, "/entity/banana").response.status, 400);
        assert_eq!(get(&s, "/entity/999999999").response.status, 404);
        assert_eq!(get(&s, "/entity").response.status, 400);
        assert_eq!(get(&s, "/sites").response.status, 200);
        assert_eq!(get(&s, "/site/0").response.status, 200);
        assert_eq!(get(&s, "/site/999999999").response.status, 404);
        assert_eq!(get(&s, "/coverage").response.status, 200);
        assert_eq!(get(&s, "/coverage.csv").response.status, 200);
        assert_eq!(get(&s, "/demand/yelp/search.csv").response.status, 200);
        assert_eq!(get(&s, "/demand/nosuch/search.csv").response.status, 404);
        assert_eq!(get(&s, "/demand/yelp/frobnicate.csv").response.status, 404);
        assert_eq!(get(&s, "/figures").response.status, 200);
        assert_eq!(get(&s, "/figure/fig6-cdf-search.csv").response.status, 200);
        assert_eq!(get(&s, "/figure/nope.csv").response.status, 404);
        assert_eq!(get(&s, "/nothing/here").response.status, 404);
        // The 405 arms.
        assert_eq!(get(&s, "/shutdown").response.status, 405);
        let raw = b"POST /coverage HTTP/1.1\r\n\r\n";
        let Parse::Complete(req, _) = parse_request(raw) else {
            panic!()
        };
        assert_eq!(route(&s, &req).response.status, 405);
        // Shutdown control flows through.
        let raw = b"POST /shutdown HTTP/1.1\r\n\r\n";
        let Parse::Complete(req, _) = parse_request(raw) else {
            panic!()
        };
        let routed = route(&s, &req);
        assert_eq!(routed.response.status, 200);
        assert_eq!(routed.control, Control::Shutdown);
    }

    #[test]
    fn admin_epoch_parses_params_and_rejects_garbage() {
        let s = state();
        // GET → 405, like /shutdown.
        assert_eq!(get(&s, "/admin/epoch").response.status, 405);
        // POST with defaults.
        let post = |target: &str| {
            let raw = format!("POST {target} HTTP/1.1\r\n\r\n");
            let Parse::Complete(req, _) = parse_request(raw.as_bytes()) else {
                panic!("test request must parse");
            };
            route(&s, &req)
        };
        let routed = post("/admin/epoch");
        assert_eq!(
            routed.control,
            Control::EpochSwap {
                fraction_bp: 100,
                seed: 1
            }
        );
        let routed = post("/admin/epoch?fraction_bp=250&seed=9");
        assert_eq!(
            routed.control,
            Control::EpochSwap {
                fraction_bp: 250,
                seed: 9
            }
        );
        assert_eq!(post("/admin/epoch?fraction_bp=10001").response.status, 400);
        assert_eq!(post("/admin/epoch?fraction_bp=banana").response.status, 400);
        assert_eq!(post("/admin/epoch?seed=-3").response.status, 400);
    }

    #[test]
    fn identifier_lookup_roundtrips() {
        let s = state();
        // Find an entity with a phone and look it up through the index.
        let with_phone = (0..s.catalog.len())
            .map(|i| s.catalog.entity(EntityId::new(i as u32)))
            .find(|e| e.phone.is_some())
            .expect("restaurants have phones");
        let digits = with_phone.phone.unwrap().digits();
        let routed = get(&s, &format!("/entity?phone={digits}"));
        assert_eq!(routed.response.status, 200);
        let body = String::from_utf8(routed.response.body).unwrap();
        assert!(body.contains(&format!("\"id\": {}", with_phone.id.raw())));
        // Unknown phone → 404, garbage phone → 400.
        assert_eq!(get(&s, "/entity?phone=000000000").response.status, 404);
        assert_eq!(get(&s, "/entity?phone=xyz").response.status, 400);
    }

    #[test]
    fn routing_is_deterministic() {
        let s = state();
        for target in ["/", "/entity/3", "/coverage", "/demand/imdb/browse.csv"] {
            let a = get(&s, target).response;
            let b = get(&s, target).response;
            assert_eq!(a, b, "{target} must render identically");
        }
    }
}
