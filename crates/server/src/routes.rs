//! The demo application: versioned, typed URL routes over a
//! [`MapRatEngine`].
//!
//! The API mirrors the Figure-1 front-end controls: query text + query
//! type, max-groups / coverage settings, a time window, and per-group
//! drill-down and statistics endpoints. Every `/api/v1/*` endpoint accepts
//! the request as a `GET` query string or as a `POST` JSON body in the
//! canonical encoding of [`crate::api`]. Errors are always the structured
//! [`ApiError`] JSON shape.

use crate::api::{
    self, ApiError, DetailResponse, DrillRequest, DrillResponse, ExplainResponse, RelatedDto,
    TimelineRequest, TimelineResponse,
};
use crate::html;
use crate::http::{Handler, Request, Response};
use crate::json::Json;
use maprat_core::Budget;
use maprat_explore::drilldown::drill_group;
use maprat_explore::personalize::personalized_explain;
use maprat_explore::{
    compare, exploration_maps, ExplorationResult, MapRatEngine, PrecomputeScheduler, TimeSlider,
};
use maprat_geo::citymap::{self, CityBubble, CityMap};
use maprat_geo::svg::{render as render_svg, SvgOptions};
use maprat_ingest::IngestService;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The application state behind every route: a clonable engine handle,
/// plus (optionally) the background precompute scheduler.
///
/// The engine owns its dataset behind an `Arc`, so the server needs no
/// `'static` borrow (and no leaked dataset); any number of `AppState`s /
/// engine clones can serve the same data concurrently.
pub struct AppState {
    engine: MapRatEngine,
    scheduler: Option<Arc<PrecomputeScheduler>>,
    ingest: Option<Arc<IngestService>>,
    /// Admission-control watermark: when this many foreground solves are
    /// already in flight, requests that would need a *fresh* solve are
    /// shed with `503 + Retry-After` (cached answers still serve).
    shed_watermark: usize,
    shed_requests: AtomicU64,
}

impl AppState {
    /// Builds the state over an engine handle. The shed watermark
    /// defaults to `MAPRAT_SHED_INFLIGHT` (or 4x the worker count).
    pub fn new(engine: MapRatEngine) -> Self {
        let watermark = std::env::var("MAPRAT_SHED_INFLIGHT")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| 4 * maprat_core::pool::num_threads());
        AppState {
            engine,
            scheduler: None,
            ingest: None,
            shed_watermark: watermark,
            shed_requests: AtomicU64::new(0),
        }
    }

    /// Overrides the admission-control watermark (mostly for tests and
    /// the binary's env plumbing): explain requests that would start a
    /// fresh solve while `watermark` solves are already in flight are
    /// refused with `503 Service Unavailable` and a `Retry-After` hint.
    pub fn with_shed_watermark(mut self, watermark: usize) -> Self {
        self.shed_watermark = watermark;
        self
    }

    /// Attaches a precompute scheduler: every explain request is recorded
    /// into its popularity table, and `/api/v1/stats` reports its counters.
    pub fn with_precompute(mut self, scheduler: Arc<PrecomputeScheduler>) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// Enables `POST /api/v1/ingest`: live rating commits through
    /// `service`, which must publish into the same engine this state
    /// serves from. `/api/v1/stats` then also reports the commit
    /// watermark.
    pub fn with_ingest(mut self, service: Arc<IngestService>) -> Self {
        self.ingest = Some(service);
        self
    }

    /// The engine (e.g. for pre-warming by the binary).
    pub fn engine(&self) -> &MapRatEngine {
        &self.engine
    }

    /// Builds the HTTP handler closure.
    pub fn into_handler(self) -> Handler {
        let state = Arc::new(self);
        Arc::new(move |req: &Request| state.dispatch(req))
    }

    fn dispatch(&self, req: &Request) -> Response {
        match req.path.as_str() {
            // The page and the SVG assets are GET-only; the API routes
            // below enforce their own GET/POST policy while decoding.
            "/" | "/index.html" | "/map.svg" | "/citymap.svg" if req.method != "GET" => {
                ApiError::method_not_allowed(&req.method)
                    .with_hint("this route only serves GET")
                    .into_response()
            }
            "/" | "/index.html" => Response::html(html::INDEX.to_string()),
            "/api/v1/explain" => self.explain_route(req),
            "/api/v1/explain/batch" => self.explain_batch_route(req),
            "/api/v1/stats" => self.stats_route(req),
            "/api/v1/ingest" => self.ingest_route(req),
            "/api/v1/timeline" => self.timeline_route(req),
            "/api/v1/drill" => self.drill_route(req),
            "/api/v1/detail" => self.detail_route(req),
            "/api/v1/personalize" => self.personalize_route(req),
            "/map.svg" => self.map_route(req),
            "/citymap.svg" => self.citymap_route(req),
            path => ApiError::unknown_route(path).into_response(),
        }
    }

    fn explain_route(&self, req: &Request) -> Response {
        let (request, mode) = match api::explain_request_opts(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let budget = match deadline_budget(req) {
            Ok(b) => b,
            Err(e) => return e.into_response(),
        };
        if let Some(scheduler) = &self.scheduler {
            scheduler.record(&request);
        }
        // Admission control: past the in-flight watermark, only answers
        // the result cache can serve are admitted; fresh solves are shed
        // with an explicit retry hint instead of queueing unboundedly.
        if self.engine.foreground_inflight() >= self.shed_watermark && !self.engine.cached(&request)
        {
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            return ApiError::overloaded(self.engine.foreground_inflight(), self.shed_watermark)
                .into_response()
                .with_header("Retry-After", "1");
        }
        let (result, served) = self.engine.explain_opts(&request, &budget, mode);
        let response = match &*result {
            Ok(r) => {
                // Encoded once per published result; every later hit
                // sends the same bytes.
                let body = r.body.get_or_init(|| {
                    let mut body = ExplainResponse::from_explanation(&r.explanation);
                    // A sampled answer carries its error contract; the
                    // header (hit-approx) and this block disappear together
                    // once the background refinement upgrades the entry.
                    if let Some(info) = &r.approx {
                        body = body.with_approx(info);
                    }
                    body.to_json().render()
                });
                Response::json(body.clone())
            }
            Err(e) => ApiError::from_mine(e).into_response(),
        };
        response.with_header("X-MapRat-Cache", served.as_str())
    }

    /// `POST /api/v1/explain/batch` — explains several requests in one
    /// call, fanned out over the worker pool
    /// (`MapRatEngine::explain_batch`). The `"results"` array is
    /// index-aligned with the request's `"requests"`; each slot carries
    /// its own `"cache"` label (the single-explain labels, plus
    /// `coalesced` for a repeat of an earlier slot) and either the
    /// explain `"result"` or a structured `"error"`, so one failing
    /// member never fails its neighbours.
    fn explain_batch_route(&self, req: &Request) -> Response {
        let requests = match api::explain_batch_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let budget = match deadline_budget(req) {
            Ok(b) => b,
            Err(e) => return e.into_response(),
        };
        if let Some(scheduler) = &self.scheduler {
            for request in &requests {
                scheduler.record(request);
            }
        }
        // Admission control mirrors the single route: past the watermark
        // a batch is admitted only if every member can answer from cache.
        if self.engine.foreground_inflight() >= self.shed_watermark
            && requests.iter().any(|r| !self.engine.cached(r))
        {
            self.shed_requests.fetch_add(1, Ordering::Relaxed);
            return ApiError::overloaded(self.engine.foreground_inflight(), self.shed_watermark)
                .into_response()
                .with_header("Retry-After", "1");
        }
        let outcomes = self.engine.explain_batch(&requests, &budget);
        let results: Vec<Json> = outcomes
            .iter()
            .map(|(result, served)| {
                let cache = ("cache", Json::str(served.as_str().to_string()));
                match &**result {
                    Ok(r) => {
                        let mut body = ExplainResponse::from_explanation(&r.explanation);
                        if let Some(info) = &r.approx {
                            body = body.with_approx(info);
                        }
                        Json::obj([cache, ("result", body.to_json())])
                    }
                    Err(e) => Json::obj([cache, ("error", ApiError::from_mine(e).to_json())]),
                }
            })
            .collect();
        Response::json(Json::obj([("results", Json::Arr(results))]).render())
            .with_header("X-MapRat-Cache", "batch")
    }

    /// `POST /api/v1/ingest` — commits a batch of live ratings: validates
    /// them against the current snapshot, splices them in, and hot-swaps
    /// the engine onto the new snapshot with partition-scoped
    /// invalidation. Answers with the commit receipt.
    fn ingest_route(&self, req: &Request) -> Response {
        let Some(service) = &self.ingest else {
            return ApiError::not_found("ingestion is not enabled on this server")
                .with_hint("start the server with an IngestService (AppState::with_ingest)")
                .into_response();
        };
        let buffer = match api::ingest_request(req) {
            Ok(b) => b,
            Err(e) => return e.into_response(),
        };
        match service.commit(buffer) {
            Ok(receipt) => Response::json(api::receipt_to_json(&receipt).render()),
            Err(e) => api::from_ingest(&e).into_response(),
        }
    }

    /// `/api/v1/stats` — serving-layer observability: both cache tiers,
    /// single-flight counters, solve count, per-month partition sizes,
    /// and — when attached — background-warming progress and the ingest
    /// commit watermark. GET-only: it reads state.
    fn stats_route(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return ApiError::method_not_allowed(&req.method)
                .with_hint("stats is read-only; use GET")
                .into_response();
        }
        let s = self.engine.serving_stats();
        let mut pairs = vec![
            (
                "result_cache",
                Json::obj([
                    ("hits", Json::Num(s.result_hits as f64)),
                    // Hits served from an entry retained across an ingest
                    // commit (answered from its pre-ingest snapshot).
                    ("stale_hits", Json::Num(s.result_stale_hits as f64)),
                    ("misses", Json::Num(s.result_misses as f64)),
                    ("len", Json::Num(s.result_len as f64)),
                ]),
            ),
            (
                "snapshot_cache",
                Json::obj([
                    ("hits", Json::Num(s.snapshot_hits as f64)),
                    ("misses", Json::Num(s.snapshot_misses as f64)),
                    ("len", Json::Num(s.snapshot_len as f64)),
                ]),
            ),
            (
                "flights",
                Json::obj([
                    ("led", Json::Num(s.flights_led as f64)),
                    ("joined", Json::Num(s.flights_joined as f64)),
                ]),
            ),
            ("invalidations", Json::Num(s.invalidations as f64)),
            ("solves", Json::Num(s.solves as f64)),
            // Deterministic work counters: cubes built (personalize
            // included) and candidate-pool columns derived.
            ("cube_builds", Json::Num(s.cube_builds as f64)),
            ("column_builds", Json::Num(s.column_builds as f64)),
            (
                "foreground_inflight",
                Json::Num(s.foreground_inflight as f64),
            ),
            (
                "shed_requests",
                Json::Num(self.shed_requests.load(Ordering::Relaxed) as f64),
            ),
            ("deadline_expired", Json::Num(s.deadline_expired as f64)),
            ("coalesced_failures", Json::Num(s.coalesced_failures as f64)),
            (
                // Approximate serving (docs/APPROX.md): responses that
                // carried an error contract, background refinements that
                // upgraded an entry to exact, and requests where the
                // sampled path was consulted but the exact pipeline
                // answered.
                "approx",
                Json::obj([
                    ("served", Json::Num(s.approx_served as f64)),
                    ("refined", Json::Num(s.approx_refined as f64)),
                    ("fallback_exact", Json::Num(s.approx_fallback_exact as f64)),
                ]),
            ),
        ];
        if let Some(scheduler) = &self.scheduler {
            pairs.push((
                "precompute",
                Json::obj([
                    ("warmed", Json::Num(scheduler.warmed() as f64)),
                    ("deferred", Json::Num(scheduler.deferred() as f64)),
                ]),
            ));
        }
        pairs.push((
            "partitions",
            Json::Arr(
                self.engine
                    .dataset()
                    .month_partitions()
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("month", Json::str(p.month.to_string())),
                            ("ratings", Json::Num(p.num_ratings as f64)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if let Some(service) = &self.ingest {
            let watermark = match service.watermark() {
                Some(w) => Json::obj([
                    ("month", Json::str(w.month.to_string())),
                    ("seq", Json::Num(w.seq as f64)),
                ]),
                None => Json::Null,
            };
            // `wal` is Null on a non-durable service, an object (with the
            // startup replay count) once a WAL directory is attached.
            let wal = match service.wal_stats() {
                Some(w) => Json::obj([
                    ("segments", Json::Num(w.segments as f64)),
                    ("truncated", Json::Num(w.truncated as f64)),
                    ("last_seq", Json::Num(w.last_seq as f64)),
                    ("checkpoint", Json::Num(w.checkpoint as f64)),
                    ("replayed", Json::Num(service.replayed_commits() as f64)),
                ]),
                None => Json::Null,
            };
            pairs.push((
                "ingest",
                Json::obj([("watermark", watermark), ("wal", wal)]),
            ));
        }
        Response::json(Json::obj(pairs).render())
    }

    fn map_route(&self, req: &Request) -> Response {
        let request = match api::explain_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let result = self.engine.explain(&request);
        match &*result {
            Ok(r) => {
                let (sm, dm) = exploration_maps(&r.explanation);
                let map = match req.param("task").unwrap_or("sm") {
                    "dm" => dm,
                    _ => sm,
                };
                Response::svg(render_svg(&map, &SvgOptions::default()))
            }
            Err(e) => ApiError::from_mine(e).into_response(),
        }
    }

    fn timeline_route(&self, req: &Request) -> Response {
        let request = match TimelineRequest::from_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let Some(slider) =
            TimeSlider::over_dataset(&self.engine.dataset(), request.window, request.step)
        else {
            return ApiError::bad_request("dataset has no ratings").into_response();
        };
        let points = slider.sweep(
            &self.engine,
            &request.explain.query,
            &request.explain.settings,
        );
        Response::json(TimelineResponse::from_points(&points).to_json().render())
    }

    /// Resolves a drill/detail request to the explained group it names.
    fn resolve_group<'r>(
        &self,
        request: &DrillRequest,
        result: &'r ExplorationResult,
    ) -> Result<&'r maprat_core::ExplainedGroup, ApiError> {
        let interp = result.explanation.interpretation(request.task);
        interp.groups.get(request.idx).ok_or_else(|| {
            ApiError::not_found(format!(
                "no group {} in {}",
                request.idx,
                api::task_code(request.task)
            ))
        })
    }

    fn drill_route(&self, req: &Request) -> Response {
        let request = match DrillRequest::from_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let result = self.engine.explain(&request.explain);
        let r = match &*result {
            Ok(r) => r,
            Err(e) => return ApiError::from_mine(e).into_response(),
        };
        let group = match self.resolve_group(&request, r) {
            Ok(g) => g,
            Err(e) => return e.into_response(),
        };
        // Drill through the result's pinned snapshot: after an ingest
        // commit the live dataset's rating positions shift, but the
        // cube's covers index the snapshot the result was mined from.
        match drill_group(&r.dataset, r, &group.desc) {
            Some(cities) => Response::json(
                DrillResponse {
                    group: group.label.clone(),
                    cities: cities
                        .iter()
                        .map(|c| api::CityDto {
                            city: c.city.to_string(),
                            count: c.stats.count() as usize,
                            mean: c.stats.mean(),
                        })
                        .collect(),
                }
                .to_json()
                .render(),
            ),
            None => ApiError::bad_request("group has no geo condition").into_response(),
        }
    }

    fn citymap_route(&self, req: &Request) -> Response {
        let request = match DrillRequest::from_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let result = self.engine.explain(&request.explain);
        let r = match &*result {
            Ok(r) => r,
            Err(e) => return ApiError::from_mine(e).into_response(),
        };
        let group = match self.resolve_group(&request, r) {
            Ok(g) => g,
            Err(e) => return e.into_response(),
        };
        let Some(state) = group.desc.state() else {
            return ApiError::bad_request("group has no geo condition").into_response();
        };
        let Some(cities) = drill_group(&r.dataset, r, &group.desc) else {
            return ApiError::not_found("group not among candidates").into_response();
        };
        let map = CityMap {
            state,
            title: group.label.clone(),
            cities: cities
                .iter()
                .map(|c| CityBubble {
                    name: c.city.to_string(),
                    count: c.stats.count(),
                    mean: c.stats.mean(),
                })
                .collect(),
        };
        Response::svg(citymap::render(&map, &citymap::CityMapOptions::default()))
    }

    fn personalize_route(&self, req: &Request) -> Response {
        let (request, profile) = match api::personalize_request(req) {
            Ok(v) => v,
            Err(e) => return e.into_response(),
        };
        // Personalized mining bypasses the result tier (one entry per
        // visitor profile would thrash it) and shares the snapshot tier:
        // the profile filters the query's cached cube.
        match personalized_explain(&self.engine, &request.query, &request.settings, &profile) {
            Ok(explanation) => Response::json(
                ExplainResponse::from_explanation(&explanation)
                    .to_json()
                    .render(),
            ),
            Err(e) => ApiError::from_mine(&e).into_response(),
        }
    }

    fn detail_route(&self, req: &Request) -> Response {
        let request = match DrillRequest::from_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let result = self.engine.explain(&request.explain);
        let r = match &*result {
            Ok(r) => r,
            Err(e) => return ApiError::from_mine(e).into_response(),
        };
        let group = match self.resolve_group(&request, r) {
            Ok(g) => g,
            Err(e) => return e.into_response(),
        };
        let Some(detail) = compare::group_detail(r, &group.desc) else {
            return ApiError::not_found("group not among candidates").into_response();
        };
        Response::json(
            DetailResponse {
                label: detail.label.clone(),
                count: detail.stats.count() as usize,
                mean: detail.stats.mean(),
                histogram: detail
                    .stats
                    .histogram()
                    .iter()
                    .map(|&n| n as usize)
                    .collect(),
                overall_mean: detail.total.mean(),
                related: detail
                    .related
                    .iter()
                    .map(|rg| RelatedDto {
                        label: rg.label.clone(),
                        relation: match rg.relation {
                            compare::Relation::Parent => "roll-up",
                            compare::Relation::Sibling => "sibling",
                        }
                        .to_string(),
                        mean: rg.stats.mean(),
                        count: rg.stats.count() as usize,
                    })
                    .collect(),
            }
            .to_json()
            .render(),
        )
    }
}

/// Decodes the optional `X-MapRat-Deadline-Ms` request header into a
/// solve budget. Absent header → unlimited; a non-integer value is a
/// client error rather than a silently ignored deadline.
fn deadline_budget(req: &Request) -> Result<Budget, ApiError> {
    match req.headers.get("x-maprat-deadline-ms") {
        None => Ok(Budget::unlimited()),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => Ok(Budget::from_deadline_ms(ms)),
            Err(_) => Err(ApiError::bad_request(format!(
                "X-MapRat-Deadline-Ms must be an integer millisecond count, got {v:?}"
            ))
            .with_hint("omit the header for an unbounded solve")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::HttpServer;
    use crate::json::Json;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::Dataset;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::OnceLock;

    fn shared_dataset() -> Arc<Dataset> {
        static DATASET: OnceLock<Arc<Dataset>> = OnceLock::new();
        Arc::clone(DATASET.get_or_init(|| Arc::new(generate(&SynthConfig::tiny(171)).unwrap())))
    }

    fn server() -> HttpServer {
        let state = AppState::new(MapRatEngine::new(shared_dataset()));
        HttpServer::start("127.0.0.1:0", 2, state.into_handler()).unwrap()
    }

    // All helpers send `Connection: close` — they frame the response by
    // EOF, which under keep-alive would otherwise wait out the idle
    // timeout on every request.
    fn get(port: u16, target: &str) -> (u16, String) {
        let (status, _, body) = get_full(port, target);
        (status, body)
    }

    fn get_full(port: u16, target: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        read_response(&mut stream)
    }

    fn post(port: u16, target: &str, body: &str) -> (u16, String) {
        let (status, _, body) = post_full(port, target, body);
        (status, body)
    }

    fn post_full(port: u16, target: &str, body: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "POST {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .unwrap();
        read_response(&mut stream)
    }

    fn read_response(stream: &mut TcpStream) -> (u16, String, String) {
        let mut buf = Vec::new();
        stream.read_to_end(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf).into_owned();
        let status: u16 = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let mut halves = text.splitn(2, "\r\n\r\n");
        let head = halves.next().unwrap_or("").to_string();
        let body = halves.next().unwrap_or("").to_string();
        (status, head, body)
    }

    /// The `X-MapRat-Cache` value in a response head.
    fn cache_header(head: &str) -> Option<String> {
        head.lines()
            .find_map(|l| l.strip_prefix("X-MapRat-Cache: "))
            .map(|v| v.trim().to_string())
    }

    /// A GET carrying one extra request header line.
    fn get_with_header(port: u16, target: &str, header: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n{header}\r\n\r\n"
        )
        .unwrap();
        read_response(&mut stream)
    }

    fn error_code(body: &str) -> String {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn index_serves_ui() {
        let s = server();
        let (status, body) = get(s.port(), "/");
        assert_eq!(status, 200);
        assert!(body.contains("MapRat"));
        assert!(body.contains("Explain Ratings"), "Figure-1 button present");
    }

    #[test]
    fn explain_returns_both_tabs() {
        let s = server();
        let (status, body) = get(s.port(), "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0");
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("similarity").is_some());
        assert!(v.get("diversity").is_some());
        assert!(
            v.get("similarity")
                .unwrap()
                .get("groups")
                .unwrap()
                .len()
                .unwrap()
                >= 1
        );
    }

    #[test]
    fn legacy_route_is_unknown() {
        let s = server();
        for route in ["explain", "timeline", "drill", "detail", "personalize"] {
            let (status, body) = get(s.port(), &format!("/api/{route}?q=Toy+Story&coverage=0.1"));
            assert_eq!(status, 404, "{body}");
            let v = Json::parse(&body).unwrap();
            let code = v.get("error").unwrap().get("code").unwrap().as_str();
            assert_eq!(code, Some("unknown_route"), "{body}");
        }
        let (status, _) = get(s.port(), "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0");
        assert_eq!(status, 200);
    }

    #[test]
    fn explain_get_post_parity() {
        let s = server();
        let (get_status, get_body) =
            get(s.port(), "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0");
        assert_eq!(get_status, 200, "{get_body}");
        let body = r#"{"query":{"terms":[{"field":"title","value":"Toy Story"}]},"settings":{"min_coverage":0.1,"require_geo":false}}"#;
        let (post_status, post_body) = post(s.port(), "/api/v1/explain", body);
        assert_eq!(post_status, 200, "{post_body}");
        assert_eq!(get_body, post_body, "GET and POST answers must agree");
    }

    #[test]
    fn post_rejects_malformed_json() {
        let s = server();
        let (status, body) = post(s.port(), "/api/v1/explain", "{not json");
        assert_eq!(status, 400, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_request")
        );
    }

    #[test]
    fn deeply_nested_json_is_rejected_and_server_survives() {
        let s = server();
        let body = "[".repeat(200 * 1024);
        let (status, reply) = post(s.port(), "/api/v1/explain", &body);
        assert_eq!(status, 400, "{reply}");
        let v = Json::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("bad_request")
        );
        let (status, stats) = get(s.port(), "/api/v1/stats");
        assert_eq!(status, 200, "{stats}");
    }

    #[test]
    fn put_is_method_not_allowed() {
        let s = server();
        let mut stream = TcpStream::connect(("127.0.0.1", s.port())).unwrap();
        write!(
            stream,
            "PUT /api/v1/explain HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let (status, _, body) = read_response(&mut stream);
        assert_eq!(status, 405, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("method_not_allowed")
        );
    }

    #[test]
    fn unknown_movie_is_404_json() {
        let s = server();
        let (status, body) = get(s.port(), "/api/v1/explain?q=Nonexistent+Movie");
        assert_eq!(status, 404);
        let v = Json::parse(&body).unwrap();
        let error = v.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("not_found"));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("Nonexistent Movie"));
    }

    #[test]
    fn missing_query_is_400() {
        let s = server();
        let (status, _) = get(s.port(), "/api/v1/explain");
        assert_eq!(status, 400);
    }

    #[test]
    fn map_svg_renders() {
        let s = server();
        let (status, body) = get(s.port(), "/map.svg?q=Toy+Story&coverage=0.1");
        assert_eq!(status, 200);
        assert!(body.starts_with("<svg"));
        assert!(body.contains("Similarity Mining"));
        let (_, dm) = get(s.port(), "/map.svg?q=Toy+Story&coverage=0.1&task=dm");
        assert!(dm.contains("Diversity Mining"));
    }

    #[test]
    fn timeline_returns_points() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/api/v1/timeline?q=Toy+Story&coverage=0.1&geo=0&window=12&step=12",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("points").unwrap().len().unwrap() >= 2);
    }

    #[test]
    fn drill_and_detail_routes() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/api/v1/drill?q=Toy+Story&coverage=0.1&task=sm&idx=0",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("cities").unwrap().len().unwrap() >= 1);

        let (status, body) = get(
            s.port(),
            "/api/v1/detail?q=Toy+Story&coverage=0.1&task=sm&idx=0",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("histogram").unwrap().len().unwrap(), 5);
    }

    #[test]
    fn drill_accepts_post_json() {
        let s = server();
        let body = r#"{"query":{"terms":[{"field":"title","value":"Toy Story"}]},"settings":{"min_coverage":0.1},"task":"sm","idx":0}"#;
        let (status, reply) = post(s.port(), "/api/v1/drill", body);
        assert_eq!(status, 200, "{reply}");
        let v = Json::parse(&reply).unwrap();
        assert!(v.get("cities").unwrap().len().unwrap() >= 1);
    }

    #[test]
    fn out_of_range_group_404() {
        let s = server();
        let (status, _) = get(
            s.port(),
            "/api/v1/drill?q=Toy+Story&coverage=0.1&task=sm&idx=99",
        );
        assert_eq!(status, 404);
    }

    #[test]
    fn time_window_parameters() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/api/v1/explain?q=Toy+Story&coverage=0.05&geo=0&from=2000-05&to=2001-06",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let windowed = v.get("ratings").unwrap().as_f64().unwrap();
        let (_, full_body) = get(s.port(), "/api/v1/explain?q=Toy+Story&coverage=0.05&geo=0");
        let full = Json::parse(&full_body)
            .unwrap()
            .get("ratings")
            .unwrap()
            .as_f64()
            .unwrap();
        assert!(windowed < full);
    }

    #[test]
    fn malformed_months_name_the_offending_value() {
        let s = server();
        let (status, body) = get(s.port(), "/api/v1/explain?q=Toy+Story&from=200005");
        assert_eq!(status, 400);
        let v = Json::parse(&body).unwrap();
        let message = v
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        assert!(message.contains("200005"), "{message}");
        assert!(message.contains("from"), "{message}");

        let (status, body) = get(s.port(), "/api/v1/explain?q=Toy+Story&to=2001-99");
        assert_eq!(status, 400);
        assert!(body.contains("2001-99"), "{body}");

        // A reversed window names both bounds.
        let (status, body) = get(
            s.port(),
            "/api/v1/explain?q=Toy+Story&from=2001-01&to=2000-01",
        );
        assert_eq!(status, 400);
        assert!(
            body.contains("2001-01") && body.contains("2000-01"),
            "{body}"
        );
    }

    #[test]
    fn query_types_route_correctly() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/api/v1/explain?q=Tom+Hanks&type=actor&coverage=0.05&geo=0",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("items").unwrap().as_f64().unwrap() >= 3.0);
        let (status, _) = get(s.port(), "/api/v1/explain?q=X&type=bogus");
        assert_eq!(status, 400);
    }

    #[test]
    fn citymap_route_renders_svg() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/citymap.svg?q=Toy+Story&coverage=0.1&task=sm&idx=0",
        );
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("<svg"));
        assert!(body.contains("city drill-down"));
        let (status, _) = get(s.port(), "/citymap.svg?q=Toy+Story&coverage=0.1&idx=99");
        assert_eq!(status, 404);
    }

    #[test]
    fn personalize_route_constrains_groups() {
        let s = server();
        let (status, body) = get(
            s.port(),
            "/api/v1/personalize?q=Toy+Story&coverage=0.05&geo=0&gender=M",
        );
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let groups = v.get("similarity").unwrap().get("groups").unwrap();
        for i in 0..groups.len().unwrap() {
            let token = groups
                .at(i)
                .unwrap()
                .get("token")
                .unwrap()
                .as_str()
                .unwrap();
            assert!(
                !token.contains("gender=F"),
                "female group for male visitor: {token}"
            );
        }
        // Bad profile values are 400.
        let (status, _) = get(s.port(), "/api/v1/personalize?q=Toy+Story&gender=X");
        assert_eq!(status, 400);
        let (status, _) = get(s.port(), "/api/v1/personalize?q=Toy+Story&age=17");
        assert_eq!(status, 400);
        let (status, _) = get(s.port(), "/api/v1/personalize?q=Toy+Story&state=ZZ");
        assert_eq!(status, 400);
    }

    #[test]
    fn personalize_accepts_post_profile() {
        let s = server();
        let body = r#"{"query":{"terms":[{"field":"title","value":"Toy Story"}]},"settings":{"min_coverage":0.05,"require_geo":false},"profile":{"gender":"M"}}"#;
        let (status, reply) = post(s.port(), "/api/v1/personalize", body);
        assert_eq!(status, 200, "{reply}");
        let (get_status, get_reply) = get(
            s.port(),
            "/api/v1/personalize?q=Toy+Story&coverage=0.05&geo=0&gender=M",
        );
        assert_eq!(get_status, 200);
        assert_eq!(reply, get_reply, "profile transports must agree");
    }

    /// The personalize body as computed without the snapshot tier: a
    /// fresh cube over the live dataset, filtered by the profile (the
    /// whole cube when nothing matches), mined directly.
    fn direct_personalize_body(
        engine: &MapRatEngine,
        request: &maprat_explore::ExplainRequest,
        profile: &maprat_explore::personalize::VisitorProfile,
    ) -> String {
        let dataset = engine.dataset();
        let miner = maprat_core::Miner::new(&dataset);
        let (items, cube) = miner.build_cube(&request.query, &request.settings).unwrap();
        let constrained = cube.filtered(|g| profile.compatible(g));
        let pool = if constrained.is_empty() {
            &cube
        } else {
            &constrained
        };
        let explanation = miner
            .explain_cube(&request.query, items, pool, &request.settings)
            .unwrap();
        ExplainResponse::from_explanation(&explanation)
            .to_json()
            .render()
    }

    #[test]
    fn personalize_route_is_byte_identical_to_the_direct_path() {
        use maprat_data::{AgeGroup, AttrValue, Gender, UsState};
        use maprat_explore::personalize::VisitorProfile;
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(171)).unwrap());
        let service = Arc::new(maprat_ingest::IngestService::new(engine.clone()));
        let state = AppState::new(engine.clone()).with_ingest(service);
        let s = HttpServer::start("127.0.0.1:0", 2, state.into_handler()).unwrap();
        let base = "q=Toy+Story&coverage=0.05&geo=0&support=20";
        let profiles = [
            ("", VisitorProfile::new()),
            (
                "&gender=M",
                VisitorProfile::new().with(AttrValue::Gender(Gender::Male)),
            ),
            (
                "&age=25&state=CA",
                VisitorProfile::new()
                    .with(AttrValue::Age(AgeGroup::From25To34))
                    .with(AttrValue::State(UsState::CA)),
            ),
            // No candidate matches: falls back to the whole cube.
            (
                "&state=WY&age=56&gender=F",
                VisitorProfile::new()
                    .with(AttrValue::State(UsState::WY))
                    .with(AttrValue::Age(AgeGroup::Above56))
                    .with(AttrValue::Gender(Gender::Female)),
            ),
        ];
        let request = maprat_explore::ExplainRequest::new(
            maprat_core::query::ItemQuery::title("Toy Story"),
            maprat_core::SearchSettings::builder()
                .min_coverage(0.05)
                .require_geo(false)
                .min_support(20)
                .build()
                .unwrap(),
        );
        let check = |phase: &str| {
            for (params, profile) in &profiles {
                let (status, body) = get(s.port(), &format!("/api/v1/personalize?{base}{params}"));
                assert_eq!(status, 200, "{phase} {params}: {body}");
                assert_eq!(
                    body,
                    direct_personalize_body(&engine, &request, profile),
                    "{phase} {params}"
                );
            }
        };
        let fallback = direct_personalize_body(&engine, &request, &profiles[3].1);
        assert_eq!(
            fallback,
            direct_personalize_body(&engine, &request, &VisitorProfile::new()),
            "the impossible profile falls back"
        );
        check("cold engine");
        assert_eq!(engine.serving_stats().cube_builds, 1);
        check("warmed engine");
        let other = engine
            .dataset()
            .items()
            .iter()
            .find(|it| it.title != "Toy Story")
            .map(|it| it.title.clone())
            .unwrap();
        let commit = |title: &str| {
            let body = format!(
                r#"{{"ratings":[{{"user":0,"item":"{title}","score":5,"ts":"2003-01-15"}},{{"user":1,"item":"{title}","score":1,"ts":"1999-03-02"}}]}}"#
            );
            let (status, reply) = post(s.port(), "/api/v1/ingest", &body);
            assert_eq!(status, 200, "{reply}");
        };
        commit(&other);
        check("retained pre-ingest snapshot");
        assert_eq!(
            engine.serving_stats().cube_builds,
            1,
            "a commit to another item keeps the snapshot"
        );
        commit("Toy Story");
        check("after a commit to the queried item");
        assert_eq!(
            engine.serving_stats().cube_builds,
            2,
            "the touched cube rebuilds"
        );
    }

    #[test]
    fn personalize_rejects_invalid_settings_with_a_resident_snapshot() {
        let s = server();
        let base = "/api/v1/personalize?q=Toy+Story&geo=0&gender=M";
        let (status, body) = get(s.port(), &format!("{base}&coverage=0.05"));
        assert_eq!(status, 200, "{body}");
        for bad in ["&k=0", "&coverage=1.5"] {
            let (status, body) = get(s.port(), &format!("{base}{bad}"));
            assert_eq!(status, 400, "{bad}: {body}");
        }
    }

    #[test]
    fn explain_reports_cache_tier_in_header() {
        let s = server(); // fresh engine → cold caches
        let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";
        let (status, head, miss_body) = get_full(s.port(), target);
        assert_eq!(status, 200);
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        let (_, head, hit_body) = get_full(s.port(), target);
        assert_eq!(cache_header(&head).as_deref(), Some("hit"));
        assert_eq!(hit_body, miss_body, "a hit sends the body the miss encoded");
        // Errors carry the header too (negative caching).
        let (status, head, _) = get_full(s.port(), "/api/v1/explain?q=No+Such+Movie");
        assert_eq!(status, 404);
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        let (_, head, _) = get_full(s.port(), "/api/v1/explain?q=No+Such+Movie");
        assert_eq!(cache_header(&head).as_deref(), Some("hit"));
    }

    #[test]
    fn stats_route_reports_serving_counters() {
        let engine = MapRatEngine::new(shared_dataset());
        // Budget 1, hour-long interval: the ticker never fires on its
        // own, so the synchronous tick below is the only warmer.
        let scheduler = Arc::new(PrecomputeScheduler::start_with(
            engine.clone(),
            1,
            std::time::Duration::from_secs(3600),
        ));
        let state = AppState::new(engine.clone()).with_precompute(Arc::clone(&scheduler));
        let s = HttpServer::start("127.0.0.1:0", 2, state.into_handler()).unwrap();

        let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";
        get(s.port(), target);
        get(s.port(), target);
        let (status, body) = get(s.port(), "/api/v1/stats");
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let result = v.get("result_cache").unwrap();
        assert_eq!(result.get("hits").unwrap().as_f64(), Some(1.0));
        assert_eq!(result.get("misses").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("solves").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("cube_builds").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("column_builds").unwrap().as_f64(), Some(1.0));
        assert!(v.get("snapshot_cache").unwrap().get("len").is_some());
        assert!(v.get("flights").unwrap().get("led").is_some());
        // The scheduler is attached, so its counters appear…
        assert!(v.get("precompute").unwrap().get("warmed").is_some());
        // …and the explain above was recorded into its popularity table:
        // once evicted, a synchronous tick re-warms it.
        engine.clear_cache();
        assert_eq!(scheduler.tick_once(), 1, "recorded request re-warms");

        // Read-only: POST is refused.
        let (status, body) = post(s.port(), "/api/v1/stats", "{}");
        assert_eq!(status, 405, "{body}");
    }

    #[test]
    fn stats_without_scheduler_omits_precompute() {
        let s = server();
        let (status, body) = get(s.port(), "/api/v1/stats");
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert!(v.get("precompute").is_none());
        assert!(v.get("result_cache").is_some());
    }

    fn ingest_server() -> HttpServer {
        // Fresh (non-shared) dataset: ingest mutates the served snapshot.
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(171)).unwrap());
        let service = Arc::new(maprat_ingest::IngestService::new(engine.clone()));
        let state = AppState::new(engine).with_ingest(service);
        HttpServer::start("127.0.0.1:0", 2, state.into_handler()).unwrap()
    }

    const INGEST_BODY: &str = r#"{"ratings":[
        {"user":{"age":25,"gender":"F","occupation":4,"zip":94103},
         "item":"Toy Story","score":5,"ts":"2003-01-15"},
        {"user":0,
         "item":{"title":"Fresh Release","year":2003,"genres":["Drama"]},
         "score":3,"ts":"2003-02-02"}
    ]}"#;

    #[test]
    fn ingest_route_commits_and_reports_watermark() {
        let s = ingest_server();
        let (status, body) = post(s.port(), "/api/v1/ingest", INGEST_BODY);
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("seq").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("accepted").unwrap().as_f64(), Some(2.0));
        assert_eq!(v.get("new_users").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("new_items").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("month").unwrap().as_str(), Some("2003-02"));

        // The stats watermark advances and the new month partitions exist.
        let (status, body) = get(s.port(), "/api/v1/stats");
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let watermark = v.get("ingest").unwrap().get("watermark").unwrap();
        assert_eq!(watermark.get("month").unwrap().as_str(), Some("2003-02"));
        assert_eq!(watermark.get("seq").unwrap().as_f64(), Some(1.0));
        let partitions = v.get("partitions").unwrap();
        let months: Vec<&str> = (0..partitions.len().unwrap())
            .filter_map(|i| partitions.at(i).unwrap().get("month").unwrap().as_str())
            .collect();
        assert!(months.contains(&"2003-02"), "{months:?}");

        // The commit is queryable: the new item explains.
        let (status, body) = get(
            s.port(),
            "/api/v1/explain?q=Fresh+Release&coverage=0.1&geo=0",
        );
        // A single rating may not clear mining thresholds (404), but the
        // item must now resolve — never "no item matches".
        assert!(
            status == 200 || !body.contains("No item matches"),
            "{status} {body}"
        );
    }

    #[test]
    fn ingest_route_method_and_error_policy() {
        let s = ingest_server();
        // GET is refused: ingest mutates state.
        let (status, body) = get(s.port(), "/api/v1/ingest");
        assert_eq!(status, 405, "{body}");
        // Unknown titles are 404 with the structured shape.
        let body = r#"{"ratings":[{"user":0,"item":"No Such Movie","score":3,"ts":"2003-01-01"}]}"#;
        let (status, reply) = post(s.port(), "/api/v1/ingest", body);
        assert_eq!(status, 404, "{reply}");
        let v = Json::parse(&reply).unwrap();
        assert_eq!(
            v.get("error").unwrap().get("code").unwrap().as_str(),
            Some("not_found")
        );
        // Malformed events name the offending entry.
        let body = r#"{"ratings":[{"user":0,"item":"Jaws","score":9,"ts":"2003-01-01"}]}"#;
        let (status, reply) = post(s.port(), "/api/v1/ingest", body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("ratings[0]"), "{reply}");
        // A date beyond year 9999 is a 400 before anything is committed.
        let body = r#"{"ratings":[{"user":0,"item":"Jaws","score":3,"ts":"99999999-01-01"}]}"#;
        let (status, reply) = post(s.port(), "/api/v1/ingest", body);
        assert_eq!(status, 400, "{reply}");
        assert!(reply.contains("bad date"), "{reply}");
        // An empty batch is a 400, not a silent no-op.
        let (status, _) = post(s.port(), "/api/v1/ingest", r#"{"ratings":[]}"#);
        assert_eq!(status, 400);
        // Stats still reports no watermark (nothing committed), and no
        // WAL (this service is non-durable).
        let (_, body) = get(s.port(), "/api/v1/stats");
        let v = Json::parse(&body).unwrap();
        assert_eq!(v.get("ingest").unwrap().get("watermark"), Some(&Json::Null));
        assert_eq!(v.get("ingest").unwrap().get("wal"), Some(&Json::Null));
    }

    #[test]
    fn ingest_disabled_explains_itself() {
        let s = server();
        let (status, body) = post(s.port(), "/api/v1/ingest", INGEST_BODY);
        assert_eq!(status, 404, "{body}");
        assert!(body.contains("not enabled"), "{body}");
    }

    #[test]
    fn retained_cache_entries_report_preingest_after_commit() {
        let s = ingest_server();
        // Warm Jaws (miss → cached), then commit ratings touching only
        // Toy Story and an unseen item: the Jaws entry is retained.
        let target = "/api/v1/explain?q=Jaws&coverage=0.1&geo=0";
        let (status, head, warm_body) = get_full(s.port(), target);
        assert_eq!(status, 200, "{warm_body}");
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        let (status, receipt) = post(s.port(), "/api/v1/ingest", INGEST_BODY);
        assert_eq!(status, 200, "{receipt}");
        // Served again, the retained entry answers from its pre-ingest
        // snapshot and says so in the header; the body is unchanged.
        let (status, head, body) = get_full(s.port(), target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("hit-preingest"));
        assert_eq!(body, warm_body);
        let (_, stats) = get(s.port(), "/api/v1/stats");
        let v = Json::parse(&stats).unwrap();
        assert!(
            v.get("result_cache")
                .unwrap()
                .get("stale_hits")
                .unwrap()
                .as_f64()
                .unwrap()
                >= 1.0,
            "{stats}"
        );
        // A query whose item the commit touched was invalidated: fresh miss.
        let (status, head, _) =
            get_full(s.port(), "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0");
        assert_eq!(status, 200);
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
    }

    /// One batch member in the canonical POST-body encoding.
    fn batch_member(title: &str) -> String {
        format!(
            r#"{{"query":{{"terms":[{{"field":"title","value":"{title}"}}]}},"settings":{{"min_coverage":0.1,"require_geo":false}}}}"#
        )
    }

    #[test]
    fn batch_explain_slots_are_misses_matching_single_route() {
        let s = server(); // fresh engine → every member is a cold solve
        let titles = ["Toy Story", "Jaws", "Forrest Gump"];
        let members: Vec<String> = titles.iter().map(|t| batch_member(t)).collect();
        let body = format!(r#"{{"requests":[{}]}}"#, members.join(","));
        let (status, head, reply) = post_full(s.port(), "/api/v1/explain/batch", &body);
        assert_eq!(status, 200, "{reply}");
        assert_eq!(cache_header(&head).as_deref(), Some("batch"));
        let v = Json::parse(&reply).unwrap();
        let results = v.get("results").unwrap();
        assert_eq!(results.len().unwrap(), titles.len());
        for (i, title) in titles.iter().enumerate() {
            let slot = results.at(i).unwrap();
            assert_eq!(
                slot.get("cache").unwrap().as_str(),
                Some("miss"),
                "cold members are single-explain misses: {reply}"
            );
            // Each slot must be byte-identical to the single-route answer
            // (served from the cache the batch populated).
            let query = title.replace(' ', "+");
            let (get_status, get_head, get_body) = get_full(
                s.port(),
                &format!("/api/v1/explain?q={query}&coverage=0.1&geo=0"),
            );
            assert_eq!(get_status, 200, "{get_body}");
            assert_eq!(cache_header(&get_head).as_deref(), Some("hit"));
            assert_eq!(
                slot.get("result").unwrap().render(),
                get_body,
                "slot {i} diverges from the single route"
            );
        }
    }

    #[test]
    fn batch_slots_fail_independently() {
        let s = server();
        let body = format!(
            r#"{{"requests":[{},{}]}}"#,
            batch_member("Toy Story"),
            batch_member("No Such Movie")
        );
        let (status, reply) = post(s.port(), "/api/v1/explain/batch", &body);
        assert_eq!(status, 200, "one bad member never fails the batch: {reply}");
        let v = Json::parse(&reply).unwrap();
        let results = v.get("results").unwrap();
        let good = results.at(0).unwrap();
        assert!(good.get("result").is_some(), "{reply}");
        assert!(good.get("error").is_none());
        let bad = results.at(1).unwrap();
        assert!(bad.get("result").is_none());
        // The error slot carries the canonical ApiError body.
        let err = ApiError::from_json(bad.get("error").unwrap()).unwrap();
        assert_eq!(err.code, "not_found", "{reply}");
        assert!(err.message.contains("No Such Movie"), "{reply}");
    }

    #[test]
    fn batch_transport_is_validated() {
        let s = server();
        // Batch is POST-only.
        let (status, body) = get(s.port(), "/api/v1/explain/batch");
        assert_eq!(status, 405, "{body}");
        assert_eq!(error_code(&body), "method_not_allowed");
        // The "requests" array is required, non-empty, and an array.
        let (status, body) = post(s.port(), "/api/v1/explain/batch", "{}");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("requests"), "{body}");
        let (status, _) = post(s.port(), "/api/v1/explain/batch", r#"{"requests":[]}"#);
        assert_eq!(status, 400);
        let (status, body) = post(s.port(), "/api/v1/explain/batch", r#"{"requests":3}"#);
        assert_eq!(status, 400);
        assert!(body.contains("array"), "{body}");
        // A malformed member names itself via the shared explain parser.
        let (status, body) = post(
            s.port(),
            "/api/v1/explain/batch",
            r#"{"requests":[{"settings":{}}]}"#,
        );
        assert_eq!(status, 400, "{body}");
        // Oversized batches are refused outright.
        let too_many: Vec<String> = (0..=api::MAX_EXPLAIN_BATCH)
            .map(|_| batch_member("Toy Story"))
            .collect();
        let (status, body) = post(
            s.port(),
            "/api/v1/explain/batch",
            &format!(r#"{{"requests":[{}]}}"#, too_many.join(",")),
        );
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("limit"), "{body}");
    }

    #[test]
    fn unknown_route_404_is_structured() {
        let s = server();
        let (status, body) = get(s.port(), "/api/unknown");
        assert_eq!(status, 404);
        let v = Json::parse(&body).unwrap();
        let error = v.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some("unknown_route"));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("/api/unknown"));
        let routes = error.get("available_routes").unwrap();
        assert!(routes.len().unwrap() >= 5);
        let listed: Vec<&str> = (0..routes.len().unwrap())
            .filter_map(|i| routes.at(i).unwrap().as_str())
            .collect();
        assert!(listed.contains(&"/api/v1/explain"), "{listed:?}");
    }

    #[test]
    fn deadline_header_gates_fresh_solves_only() {
        let s = server(); // fresh engine → cold caches
        let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";

        // An already-expired deadline on a cold entry: structured 504.
        let (status, _, body) = get_with_header(s.port(), target, "X-MapRat-Deadline-Ms: 0");
        assert_eq!(status, 504, "{body}");
        assert_eq!(error_code(&body), "deadline_exceeded");

        // A generous deadline solves normally…
        let (status, _, body) = get_with_header(s.port(), target, "X-MapRat-Deadline-Ms: 60000");
        assert_eq!(status, 200, "{body}");

        // …and once cached, even an expired deadline is served: the
        // budget gates solving, never cache lookups.
        let (status, head, body) = get_with_header(s.port(), target, "X-MapRat-Deadline-Ms: 0");
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("hit"));

        // The expired solve was counted.
        let (_, stats) = get(s.port(), "/api/v1/stats");
        let v = Json::parse(&stats).unwrap();
        assert!(
            v.get("deadline_expired").unwrap().as_f64().unwrap() >= 1.0,
            "{stats}"
        );

        // A malformed header is a client error, not an ignored deadline.
        let (status, _, body) = get_with_header(s.port(), target, "X-MapRat-Deadline-Ms: soon");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("X-MapRat-Deadline-Ms"), "{body}");
    }

    #[test]
    fn overload_sheds_uncached_solves_with_retry_after() {
        // Two states over ONE engine: `warm` admits everything, `shed`
        // has a zero watermark so any fresh solve is refused.
        let engine = MapRatEngine::new(shared_dataset());
        let warm = HttpServer::start(
            "127.0.0.1:0",
            2,
            AppState::new(engine.clone()).into_handler(),
        )
        .unwrap();
        let shed = HttpServer::start(
            "127.0.0.1:0",
            2,
            AppState::new(engine.clone())
                .with_shed_watermark(0)
                .into_handler(),
        )
        .unwrap();
        let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";

        // Cold request at the saturated server: 503 with a retry hint.
        let (status, head, body) = get_full(shed.port(), target);
        assert_eq!(status, 503, "{body}");
        assert_eq!(error_code(&body), "overloaded");
        let retry = head
            .lines()
            .find_map(|l| l.strip_prefix("Retry-After: "))
            .map(str::trim);
        assert_eq!(retry, Some("1"), "{head}");

        // Warm the shared engine through the unsaturated server…
        let (status, body) = get(warm.port(), target);
        assert_eq!(status, 200, "{body}");

        // …and the saturated server still serves the cached answer.
        let (status, head, body) = get_full(shed.port(), target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("hit"));

        // The refusal is visible in stats.
        let (_, stats) = get(shed.port(), "/api/v1/stats");
        let v = Json::parse(&stats).unwrap();
        assert!(
            v.get("shed_requests").unwrap().as_f64().unwrap() >= 1.0,
            "{stats}"
        );
    }

    /// A server whose engine approximates any universe when asked
    /// (`approx=force`) but never on its own (threshold above tiny
    /// scale), with background refinement off so tests control upgrades.
    /// Uses its own seed: at `tiny(171)` every stratum of the Toy Story
    /// universe is a singleton, so any sample is exhaustive and the
    /// engine would fall back to exact; `tiny(111)` has multi-member
    /// strata and samples genuinely partially.
    fn approx_server() -> HttpServer {
        static DATASET: OnceLock<Arc<Dataset>> = OnceLock::new();
        let dataset = Arc::clone(
            DATASET.get_or_init(|| Arc::new(generate(&SynthConfig::tiny(111)).unwrap())),
        );
        let engine = MapRatEngine::with_approx_policy(
            dataset,
            maprat_explore::ApproxPolicy {
                enabled: true,
                sample_frac: 0.2,
                min_ratings: usize::MAX,
                refine: false,
            },
        );
        HttpServer::start("127.0.0.1:0", 2, AppState::new(engine).into_handler()).unwrap()
    }

    #[test]
    fn forced_approx_serves_contract_then_hit_approx() {
        let s = approx_server();
        let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0&approx=force";
        let (status, head, body) = get_full(s.port(), target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        let v = Json::parse(&body).unwrap();
        let approx = v
            .get("approx")
            .expect("sampled answer carries approx block");
        let sampled = approx.get("sampled").unwrap().as_f64().unwrap();
        let population = approx.get("population").unwrap().as_f64().unwrap();
        assert!(sampled < population, "{body}");
        assert!(approx.get("strata").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(approx.get("confidence").unwrap().as_f64(), Some(0.95));
        assert!(approx.get("bound").unwrap().as_f64().unwrap() >= 0.0);
        // `ratings` reports |R_I|, matching the contract's population.
        assert_eq!(v.get("ratings").unwrap().as_f64(), Some(population));
        // Every tab group has a bound row joined by token.
        let sm_bounds = approx.get("similarity").unwrap().get("groups").unwrap();
        let sm_groups = v.get("similarity").unwrap().get("groups").unwrap();
        assert_eq!(sm_bounds.len(), sm_groups.len());
        for i in 0..sm_bounds.len().unwrap() {
            let b = sm_bounds.at(i).unwrap();
            let lo = b.get("mean_lo").unwrap().as_f64().unwrap();
            let hi = b.get("mean_hi").unwrap().as_f64().unwrap();
            let mean = b.get("mean").unwrap().as_f64().unwrap();
            assert!(lo <= mean && mean <= hi, "{body}");
        }
        // The whole response round-trips through the typed DTO.
        let decoded = ExplainResponse::from_json(&v).unwrap();
        assert!(decoded.approx.is_some());
        assert_eq!(decoded.to_json().render(), body);

        // A repeat request (any sampling-tolerant mode) is hit-approx…
        let (_, head, body) = get_full(s.port(), target);
        assert_eq!(cache_header(&head).as_deref(), Some("hit-approx"), "{body}");
        // …and approx=off re-solves exactly, upgrading the entry.
        let exact_target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0&approx=off";
        let (status, head, body) = get_full(s.port(), exact_target);
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        assert!(Json::parse(&body).unwrap().get("approx").is_none());
        let plain = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";
        let (_, head, body) = get_full(s.port(), plain);
        assert_eq!(cache_header(&head).as_deref(), Some("hit"), "{body}");

        // The stats surface saw it all.
        let (_, stats) = get(s.port(), "/api/v1/stats");
        let v = Json::parse(&stats).unwrap();
        let approx = v.get("approx").unwrap();
        assert_eq!(approx.get("served").unwrap().as_f64(), Some(2.0), "{stats}");
        assert_eq!(approx.get("refined").unwrap().as_f64(), Some(0.0));
        assert!(approx.get("fallback_exact").unwrap().as_f64().is_some());
    }

    #[test]
    fn auto_mode_stays_exact_below_threshold() {
        let s = approx_server();
        let (status, head, body) = get_full(
            s.port(),
            "/api/v1/explain?q=Jaws&coverage=0.1&geo=0&approx=on",
        );
        assert_eq!(status, 200, "{body}");
        assert_eq!(cache_header(&head).as_deref(), Some("miss"));
        assert!(
            Json::parse(&body).unwrap().get("approx").is_none(),
            "tiny scale is under MAPRAT_APPROX_MIN: exact answer, no block"
        );
    }

    #[test]
    fn bad_approx_param_is_rejected_on_both_transports() {
        let s = approx_server();
        let (status, body) = get(s.port(), "/api/v1/explain?q=Toy+Story&approx=maybe");
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("maybe"), "{body}");
        let post_body =
            r#"{"query":{"terms":[{"field":"title","value":"Toy Story"}]},"approx":"maybe"}"#;
        let (status, body) = post(s.port(), "/api/v1/explain", post_body);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("maybe"), "{body}");
        let post_body = r#"{"query":{"terms":[{"field":"title","value":"Toy Story"}]},"approx":7}"#;
        let (status, body) = post(s.port(), "/api/v1/explain", post_body);
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("approx"), "{body}");
    }

    #[test]
    fn wal_enabled_ingest_reports_wal_stats() {
        let dir = std::env::temp_dir().join(format!(
            "maprat-routes-wal-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(171)).unwrap());
        let (service, report) =
            maprat_ingest::IngestService::with_wal(engine.clone(), &dir).unwrap();
        assert_eq!(report.replayed, 0, "fresh WAL dir has nothing to replay");
        let state = AppState::new(engine).with_ingest(Arc::new(service));
        let s = HttpServer::start("127.0.0.1:0", 2, state.into_handler()).unwrap();

        let (status, body) = post(s.port(), "/api/v1/ingest", INGEST_BODY);
        assert_eq!(status, 200, "{body}");

        let (status, body) = get(s.port(), "/api/v1/stats");
        assert_eq!(status, 200, "{body}");
        let v = Json::parse(&body).unwrap();
        let wal = v.get("ingest").unwrap().get("wal").unwrap();
        assert_eq!(wal.get("segments").unwrap().as_f64(), Some(1.0));
        assert_eq!(wal.get("last_seq").unwrap().as_f64(), Some(1.0));
        assert_eq!(wal.get("checkpoint").unwrap().as_f64(), Some(0.0));
        assert_eq!(wal.get("replayed").unwrap().as_f64(), Some(0.0));

        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
