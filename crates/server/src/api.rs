//! The typed, versioned API layer behind `/api/v1/*`.
//!
//! Every endpoint has a typed request and response with a canonical JSON
//! encoding over the [`crate::json`] module:
//!
//! * [`maprat_explore::ExplainRequest`] / [`ExplainResponse`] — `/api/v1/explain`;
//! * [`TimelineRequest`] / [`TimelineResponse`] — `/api/v1/timeline`;
//! * [`DrillRequest`] / [`DrillResponse`] + [`DetailResponse`] —
//!   `/api/v1/drill`, `/api/v1/detail`;
//! * [`ApiError`] — the structured error body every route returns.
//!
//! Routes accept the request two ways: a `GET` query string (the
//! Figure-1 form's flat parameters, back-compatible with the unversioned
//! routes) translated through one shared parser, or a `POST` JSON body in
//! the canonical encoding. Both decode to the same typed request, so the
//! two transports answer identically.

use crate::http::{Request, Response};
use crate::json::Json;
use maprat_core::query::{Combine, ItemQuery, QueryTerm};
use maprat_core::{Explanation, Interpretation, MineError, SearchSettings, Task};
use maprat_data::{
    AgeGroup, AttrValue, Gender, Genre, ItemId, MonthKey, Occupation, Score, TimeRange, Timestamp,
    UsState, UserId, Zip,
};
use maprat_explore::approx::{ApproxInfo, GroupBound, InterpretationBounds};
use maprat_explore::personalize::VisitorProfile;
use maprat_explore::{ApproxMode, ExplainRequest, TimelinePoint};
use maprat_ingest::{
    CommitReceipt, IngestBuffer, IngestError, ItemSpec, NewItem, NewUser, RatingEvent, UserSpec,
};

/// The routes the server knows, advertised in `unknown_route` errors.
pub const AVAILABLE_ROUTES: [&str; 11] = [
    "/api/v1/explain",
    "/api/v1/explain/batch",
    "/api/v1/stats",
    "/api/v1/ingest",
    "/api/v1/timeline",
    "/api/v1/drill",
    "/api/v1/detail",
    "/api/v1/personalize",
    "/map.svg",
    "/citymap.svg",
    "/",
];

// ---------------------------------------------------------------------------
// ApiError
// ---------------------------------------------------------------------------

/// The structured error every API route returns.
///
/// Serialized as `{"error":{"code":…,"message":…,"hint":…}}`; unknown
/// routes additionally carry an `available_routes` array.
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Machine-readable error class (`bad_request`, `invalid_settings`,
    /// `not_found`, `unknown_route`, `method_not_allowed`).
    pub code: String,
    /// Human-readable description naming the offending input.
    pub message: String,
    /// Optional remediation hint for the caller.
    pub hint: Option<String>,
    /// The routes the server does serve (populated for `unknown_route`).
    pub available_routes: Vec<String>,
}

impl ApiError {
    fn new(code: &str, message: impl Into<String>) -> Self {
        ApiError {
            code: code.to_string(),
            message: message.into(),
            hint: None,
            available_routes: Vec::new(),
        }
    }

    /// A 400 for malformed input.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ApiError::new("bad_request", message)
    }

    /// A 400 for settings that fail builder validation.
    pub fn invalid_settings(message: impl Into<String>) -> Self {
        ApiError::new("invalid_settings", message)
    }

    /// A 404 for a resource that does not exist.
    pub fn not_found(message: impl Into<String>) -> Self {
        ApiError::new("not_found", message)
    }

    /// A 404 for a path the server does not route, advertising the routes
    /// it does.
    pub fn unknown_route(path: &str) -> Self {
        let mut e = ApiError::new("unknown_route", format!("no route for {path}"));
        e.available_routes = AVAILABLE_ROUTES.iter().map(|r| r.to_string()).collect();
        e.hint = Some("see available_routes; API endpoints live under /api/v1/".into());
        e
    }

    /// A 405 for a verb the route does not accept.
    pub fn method_not_allowed(method: &str) -> Self {
        ApiError::new(
            "method_not_allowed",
            format!("method {method} not supported"),
        )
        .with_hint("use GET with a query string or POST with a JSON body")
    }

    /// Attaches a remediation hint.
    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }

    /// Maps a mining error onto the API error space.
    pub fn from_mine(e: &MineError) -> Self {
        match e {
            MineError::NoMatchingItems(_) => ApiError::not_found(e.to_string())
                .with_hint("check the spelling, or use type=contains for substring search"),
            MineError::NoRatings | MineError::NoCandidates => ApiError::not_found(e.to_string())
                .with_hint("widen the time window or lower support/coverage"),
            MineError::InvalidSettings(_) => ApiError::invalid_settings(e.to_string()),
            MineError::DeadlineExceeded => ApiError::new("deadline_exceeded", e.to_string())
                .with_hint("raise X-MapRat-Deadline-Ms or retry without a deadline"),
            MineError::Internal(_) => {
                ApiError::new("internal", e.to_string()).with_hint("safe to retry")
            }
        }
    }

    /// A 503 emitted by the admission controller when the server is
    /// saturated and the request has no cached answer.
    pub fn overloaded(in_flight: usize, watermark: usize) -> Self {
        ApiError::new(
            "overloaded",
            format!("server saturated: {in_flight} solves in flight (watermark {watermark})"),
        )
        .with_hint("retry after the interval in the Retry-After header")
    }

    /// The HTTP status this error is served with.
    pub fn status(&self) -> u16 {
        match self.code.as_str() {
            "bad_request" | "invalid_settings" => 400,
            "not_found" | "unknown_route" => 404,
            "method_not_allowed" => 405,
            "overloaded" => 503,
            "deadline_exceeded" => 504,
            _ => 500,
        }
    }

    /// The canonical JSON body.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("code", Json::str(self.code.clone())),
            ("message", Json::str(self.message.clone())),
        ];
        if let Some(hint) = &self.hint {
            fields.push(("hint", Json::str(hint.clone())));
        }
        if !self.available_routes.is_empty() {
            fields.push((
                "available_routes",
                Json::Arr(
                    self.available_routes
                        .iter()
                        .map(|r| Json::str(r.clone()))
                        .collect(),
                ),
            ));
        }
        Json::obj([("error", Json::obj(fields))])
    }

    /// Decodes the canonical JSON body.
    pub fn from_json(v: &Json) -> Result<ApiError, String> {
        let e = v.get("error").ok_or("missing \"error\" object")?;
        Ok(ApiError {
            code: req_str(e, "code")?,
            message: req_str(e, "message")?,
            hint: e.get("hint").and_then(Json::as_str).map(str::to_string),
            available_routes: match e.get("available_routes") {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(Json::as_str)
                    .map(str::to_string)
                    .collect(),
                _ => Vec::new(),
            },
        })
    }

    /// Renders the error as an HTTP response.
    pub fn into_response(self) -> Response {
        Response {
            status: self.status(),
            content_type: "application/json; charset=utf-8",
            headers: Vec::new(),
            body: self.to_json().render().into_bytes(),
        }
    }
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as usize)),
        Some(other) => Err(ApiError::bad_request(format!(
            "field {key:?} must be a non-negative integer, got {other}"
        ))),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) => Ok(Some(*n)),
        Some(other) => Err(ApiError::bad_request(format!(
            "field {key:?} must be a number, got {other}"
        ))),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(ApiError::bad_request(format!(
            "field {key:?} must be a boolean, got {other}"
        ))),
    }
}

fn num_opt(value: Option<f64>) -> Json {
    value.map(Json::Num).unwrap_or(Json::Null)
}

// ---------------------------------------------------------------------------
// Query / settings codec
// ---------------------------------------------------------------------------

/// Encodes one query term.
pub fn term_to_json(term: &QueryTerm) -> Json {
    match term {
        QueryTerm::TitleIs(t) => Json::obj([
            ("field", Json::str("title")),
            ("value", Json::str(t.clone())),
        ]),
        QueryTerm::TitleContains(t) => Json::obj([
            ("field", Json::str("title_contains")),
            ("value", Json::str(t.clone())),
        ]),
        QueryTerm::Actor(a) => Json::obj([
            ("field", Json::str("actor")),
            ("value", Json::str(a.clone())),
        ]),
        QueryTerm::Director(d) => Json::obj([
            ("field", Json::str("director")),
            ("value", Json::str(d.clone())),
        ]),
        QueryTerm::Genre(g) => Json::obj([
            ("field", Json::str("genre")),
            ("value", Json::str(g.label())),
        ]),
        QueryTerm::YearBetween(lo, hi) => Json::obj([
            ("field", Json::str("year_between")),
            ("lo", Json::Num(*lo as f64)),
            ("hi", Json::Num(*hi as f64)),
        ]),
    }
}

/// Decodes one query term.
pub fn term_from_json(v: &Json) -> Result<QueryTerm, ApiError> {
    let field = v
        .get("field")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("query term missing \"field\""))?;
    let value = || {
        v.get("value")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ApiError::bad_request(format!("term {field:?} missing \"value\"")))
    };
    Ok(match field {
        "title" => QueryTerm::TitleIs(value()?),
        "title_contains" => QueryTerm::TitleContains(value()?),
        "actor" => QueryTerm::Actor(value()?),
        "director" => QueryTerm::Director(value()?),
        "genre" => {
            let label = value()?;
            QueryTerm::Genre(
                Genre::from_label(&label)
                    .ok_or_else(|| ApiError::bad_request(format!("unknown genre {label:?}")))?,
            )
        }
        "year_between" => {
            let year = |key: &str| -> Result<u16, ApiError> {
                let n = opt_usize(v, key)?.ok_or_else(|| {
                    ApiError::bad_request(format!("year_between missing {key:?}"))
                })?;
                u16::try_from(n).map_err(|_| {
                    ApiError::bad_request(format!("year_between {key} {n} is not a valid year"))
                })
            };
            QueryTerm::YearBetween(year("lo")?, year("hi")?)
        }
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown query term field {other:?}"
            )))
        }
    })
}

fn time_to_json(time: &TimeRange) -> Option<Json> {
    if time.is_unrestricted() {
        return None;
    }
    let mut fields = Vec::new();
    if let Some(start) = time.start() {
        fields.push(("from", Json::Num(start.secs() as f64)));
    }
    if let Some(end) = time.end() {
        fields.push(("to", Json::Num(end.secs() as f64)));
    }
    Some(Json::obj(fields))
}

/// One time bound: either raw epoch seconds or a `YYYY-MM` month string.
fn time_bound(v: &Json, key: &str) -> Result<Option<TimeBound>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(secs)) => Ok(Some(TimeBound::Instant(Timestamp(*secs as i64)))),
        Some(Json::Str(month)) => {
            let key: MonthKey = month.parse().map_err(|e: String| {
                ApiError::bad_request(format!("invalid time bound {key:?}: {e}"))
            })?;
            Ok(Some(TimeBound::Month(key)))
        }
        Some(other) => Err(ApiError::bad_request(format!(
            "time bound {key:?} must be epoch seconds or \"YYYY-MM\", got {other}"
        ))),
    }
}

enum TimeBound {
    Instant(Timestamp),
    Month(MonthKey),
}

impl TimeBound {
    fn start(&self) -> Timestamp {
        match self {
            TimeBound::Instant(ts) => *ts,
            TimeBound::Month(m) => m.start(),
        }
    }

    fn end(&self) -> Timestamp {
        match self {
            TimeBound::Instant(ts) => *ts,
            TimeBound::Month(m) => m.end_exclusive(),
        }
    }
}

fn time_from_json(v: &Json) -> Result<TimeRange, ApiError> {
    let from = time_bound(v, "from")?;
    let to = time_bound(v, "to")?;
    Ok(match (from, to) {
        (None, None) => TimeRange::all(),
        (Some(f), None) => TimeRange::from_start(f.start()),
        (None, Some(t)) => TimeRange::until(t.end()),
        (Some(f), Some(t)) => {
            let (start, end) = (f.start(), t.end());
            if start > end {
                return Err(ApiError::bad_request(format!(
                    "time window starts at {start} but ends at {end}"
                )));
            }
            TimeRange::between(start, end)
        }
    })
}

/// Encodes a full item query.
pub fn query_to_json(query: &ItemQuery) -> Json {
    let mut fields = vec![
        (
            "terms",
            Json::Arr(query.terms.iter().map(term_to_json).collect()),
        ),
        (
            "combine",
            Json::str(match query.combine {
                Combine::Conjunctive => "and",
                Combine::Disjunctive => "or",
            }),
        ),
    ];
    if let Some(time) = time_to_json(&query.time) {
        fields.push(("time", time));
    }
    Json::obj(fields)
}

/// Decodes a full item query.
pub fn query_from_json(v: &Json) -> Result<ItemQuery, ApiError> {
    let Some(Json::Arr(terms_json)) = v.get("terms") else {
        return Err(ApiError::bad_request("query missing \"terms\" array"));
    };
    if terms_json.is_empty() {
        return Err(ApiError::bad_request("query needs at least one term"));
    }
    let terms = terms_json
        .iter()
        .map(term_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let combine = match v.get("combine").and_then(Json::as_str) {
        None | Some("and") => Combine::Conjunctive,
        Some("or") => Combine::Disjunctive,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "combine must be \"and\" or \"or\", got {other:?}"
            )))
        }
    };
    let time = match v.get("time") {
        None | Some(Json::Null) => TimeRange::all(),
        Some(t) => time_from_json(t)?,
    };
    Ok(ItemQuery {
        terms,
        combine,
        time,
    })
}

/// Encodes search settings (every field, so requests round-trip exactly).
pub fn settings_to_json(settings: &SearchSettings) -> Json {
    Json::obj([
        ("max_groups", Json::Num(settings.max_groups as f64)),
        ("min_coverage", Json::Num(settings.min_coverage)),
        ("min_support", Json::Num(settings.min_support as f64)),
        ("require_geo", Json::Bool(settings.require_geo)),
        ("max_arity", Json::Num(settings.max_arity as f64)),
        ("dm_lambda", Json::Num(settings.dm_lambda)),
        (
            "rhe",
            Json::obj([
                ("restarts", Json::Num(settings.rhe.restarts as f64)),
                (
                    "max_iterations",
                    Json::Num(settings.rhe.max_iterations as f64),
                ),
                ("seed", u64_to_json(settings.rhe.seed)),
            ]),
        ),
    ])
}

/// Largest integer a JSON number (an `f64`) represents exactly.
const MAX_EXACT_JSON_INT: u64 = 1 << 53;

/// Encodes a `u64` losslessly: as a number when an `f64` holds it exactly,
/// as a decimal string beyond 2^53.
fn u64_to_json(value: u64) -> Json {
    if value <= MAX_EXACT_JSON_INT {
        Json::Num(value as f64)
    } else {
        Json::str(value.to_string())
    }
}

/// Decodes a `u64` losslessly: numbers are accepted only while exactly
/// representable; larger values must arrive as decimal strings.
fn opt_u64_lossless(v: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 && *n <= MAX_EXACT_JSON_INT as f64 => {
            Ok(Some(*n as u64))
        }
        Some(Json::Str(s)) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|_| ApiError::bad_request(format!("field {key:?} must be a u64, got {s:?}"))),
        Some(other) => Err(ApiError::bad_request(format!(
            "field {key:?} must be a non-negative integer \
             (values above 2^53 must be passed as a string), got {other}"
        ))),
    }
}

/// Decodes (possibly partial) search settings, validating through the
/// [`SearchSettings::builder`] so invalid combinations are rejected here,
/// at the boundary.
pub fn settings_from_json(v: &Json) -> Result<SearchSettings, ApiError> {
    let mut b = SearchSettings::builder();
    if let Some(k) = opt_usize(v, "max_groups")? {
        b = b.max_groups(k);
    }
    if let Some(alpha) = opt_f64(v, "min_coverage")? {
        b = b.min_coverage(alpha);
    }
    if let Some(s) = opt_usize(v, "min_support")? {
        b = b.min_support(s);
    }
    if let Some(geo) = opt_bool(v, "require_geo")? {
        b = b.require_geo(geo);
    }
    if let Some(a) = opt_usize(v, "max_arity")? {
        b = b.max_arity(a);
    }
    if let Some(l) = opt_f64(v, "dm_lambda")? {
        b = b.dm_lambda(l);
    }
    if let Some(rhe) = v.get("rhe") {
        let mut params = SearchSettings::default().rhe;
        if let Some(r) = opt_usize(rhe, "restarts")? {
            params.restarts = r;
        }
        if let Some(i) = opt_usize(rhe, "max_iterations")? {
            params.max_iterations = i;
        }
        if let Some(seed) = opt_u64_lossless(rhe, "seed")? {
            params.seed = seed;
        }
        b = b.rhe(params);
    }
    b.build().map_err(|e| ApiError::from_mine(&e))
}

// ---------------------------------------------------------------------------
// ExplainRequest transport
// ---------------------------------------------------------------------------

/// Encodes an explain request in the canonical POST-body form.
pub fn explain_request_to_json(request: &ExplainRequest) -> Json {
    Json::obj([
        ("query", query_to_json(&request.query)),
        ("settings", settings_to_json(&request.settings)),
    ])
}

/// Decodes the canonical POST body. `settings` may be partial or absent
/// (defaults apply).
pub fn explain_request_from_json(v: &Json) -> Result<ExplainRequest, ApiError> {
    let query = query_from_json(
        v.get("query")
            .ok_or_else(|| ApiError::bad_request("request missing \"query\""))?,
    )?;
    let settings = match v.get("settings") {
        None | Some(Json::Null) => SearchSettings::builder()
            .build()
            .map_err(|e| ApiError::from_mine(&e))?,
        Some(s) => settings_from_json(s)?,
    };
    Ok(ExplainRequest::new(query, settings))
}

/// Parses one optional `YYYY-MM` query parameter, naming the parameter and
/// the offending value on failure.
fn month_param(req: &Request, name: &str) -> Result<Option<MonthKey>, ApiError> {
    match req.param(name) {
        None | Some("") => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|e: String| {
            ApiError::bad_request(format!("invalid {name:?}: {e}"))
                .with_hint("time bounds use the YYYY-MM form, e.g. from=2000-05")
        }),
    }
}

fn numeric_param<T: std::str::FromStr>(req: &Request, name: &str) -> Result<Option<T>, ApiError> {
    match req.param(name) {
        None | Some("") => Ok(None),
        Some(raw) => raw
            .parse()
            .map(Some)
            .map_err(|_| ApiError::bad_request(format!("cannot parse parameter {name}={raw:?}"))),
    }
}

/// The shared GET translation: flat Figure-1 query parameters → typed
/// request. Used by both the versioned and the legacy routes.
pub fn explain_request_from_query(req: &Request) -> Result<ExplainRequest, ApiError> {
    let q = req
        .param("q")
        .ok_or_else(|| ApiError::bad_request("missing parameter q"))?
        .to_string();
    if q.trim().is_empty() {
        return Err(ApiError::bad_request("empty query"));
    }
    let term = match req.param("type").unwrap_or("movie") {
        "movie" => QueryTerm::TitleIs(q),
        "contains" => QueryTerm::TitleContains(q),
        "actor" => QueryTerm::Actor(q),
        "director" => QueryTerm::Director(q),
        "genre" => QueryTerm::Genre(
            Genre::from_label(&q)
                .ok_or_else(|| ApiError::bad_request(format!("unknown genre {q:?}")))?,
        ),
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown query type {other:?}"
            )))
        }
    };
    let mut query = ItemQuery::new(term);
    if let Some(genre) = req.param("genre") {
        let g = Genre::from_label(genre)
            .ok_or_else(|| ApiError::bad_request(format!("unknown genre {genre:?}")))?;
        query = query.and(QueryTerm::Genre(g));
    }
    let from = month_param(req, "from")?;
    let to = month_param(req, "to")?;
    if let (Some(f), Some(t)) = (from, to) {
        if f > t {
            return Err(ApiError::bad_request(format!(
                "time window is empty: from={f} is after to={t}"
            )));
        }
    }
    query = query.within_months(from, to);

    let mut b = SearchSettings::builder();
    if let Some(k) = numeric_param::<usize>(req, "k")? {
        b = b.max_groups(k);
    }
    if let Some(alpha) = numeric_param::<f64>(req, "coverage")? {
        b = b.min_coverage(alpha);
    }
    if let Some(geo) = req.param("geo") {
        b = b.require_geo(geo != "0" && geo != "false");
    }
    if let Some(support) = numeric_param::<usize>(req, "support")? {
        b = b.min_support(support);
    }
    if let Some(arity) = numeric_param::<usize>(req, "arity")? {
        b = b.max_arity(arity);
    }
    if let Some(lambda) = numeric_param::<f64>(req, "lambda")? {
        b = b.dm_lambda(lambda);
    }
    if let Some(seed) = numeric_param::<u64>(req, "seed")? {
        b = b.seed(seed);
    }
    let settings = b.build().map_err(|e| ApiError::from_mine(&e))?;
    Ok(ExplainRequest::new(query, settings))
}

/// Decodes the typed request from either transport: `GET` query string or
/// `POST` JSON body.
pub fn explain_request(req: &Request) -> Result<ExplainRequest, ApiError> {
    explain_request_opts(req).map(|(request, _)| request)
}

/// Parses the `approx` serving directive (`auto`/`on`, `off`/`exact`,
/// `force`); absent means [`ApproxMode::Auto`]. Unknown values are a 400,
/// not a silently exact answer.
pub fn approx_mode(raw: Option<&str>) -> Result<ApproxMode, ApiError> {
    match raw {
        None | Some("") => Ok(ApproxMode::default()),
        Some(s) => ApproxMode::parse(s).ok_or_else(|| {
            ApiError::bad_request(format!(
                "approx must be \"auto\"/\"on\", \"off\"/\"exact\" or \"force\", got {s:?}"
            ))
            .with_hint("omit the parameter for the default (auto)")
        }),
    }
}

/// Decodes the typed request plus the `approx` serving directive from
/// either transport. The directive is a GET query parameter or a
/// top-level `"approx"` string in the POST body; it steers *how* the
/// answer is produced and is deliberately not part of the cached request.
pub fn explain_request_opts(req: &Request) -> Result<(ExplainRequest, ApproxMode), ApiError> {
    match req.method.as_str() {
        "GET" => Ok((
            explain_request_from_query(req)?,
            approx_mode(req.param("approx"))?,
        )),
        "POST" => {
            let body = parse_body(req)?;
            let raw = match body.get("approx") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.as_str()),
                Some(other) => {
                    return Err(ApiError::bad_request(format!(
                        "field \"approx\" must be a string, got {other}"
                    )))
                }
            };
            Ok((explain_request_from_json(&body)?, approx_mode(raw)?))
        }
        other => Err(ApiError::method_not_allowed(other)),
    }
}

fn parse_body(req: &Request) -> Result<Json, ApiError> {
    Json::parse(&req.body_text())
        .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))
}

// ---------------------------------------------------------------------------
// Batch explain transport
// ---------------------------------------------------------------------------

/// Largest accepted `/api/v1/explain/batch` batch: big enough for an
/// actor's filmography or the precompute set, small enough that one
/// request cannot monopolize the engine.
pub const MAX_EXPLAIN_BATCH: usize = 64;

/// Decodes `POST /api/v1/explain/batch`: a JSON body whose `"requests"`
/// array holds explain requests in the canonical POST-body encoding
/// (each as accepted by [`explain_request_from_json`]). POST-only — a
/// batch has no flat query-string form.
pub fn explain_batch_request(req: &Request) -> Result<Vec<ExplainRequest>, ApiError> {
    if req.method != "POST" {
        return Err(ApiError::method_not_allowed(&req.method)
            .with_hint("batch explain is POST-only; send {\"requests\": [...]}"));
    }
    let body = parse_body(req)?;
    let items = match body.get("requests") {
        Some(Json::Arr(items)) => items,
        Some(other) => {
            return Err(ApiError::bad_request(format!(
                "field \"requests\" must be an array, got {other}"
            )))
        }
        None => return Err(ApiError::bad_request("request missing \"requests\"")),
    };
    if items.is_empty() {
        return Err(ApiError::bad_request("\"requests\" must not be empty"));
    }
    if items.len() > MAX_EXPLAIN_BATCH {
        return Err(ApiError::bad_request(format!(
            "batch of {} requests exceeds the limit of {MAX_EXPLAIN_BATCH}",
            items.len()
        )));
    }
    items.iter().map(explain_request_from_json).collect()
}

// ---------------------------------------------------------------------------
// Timeline request/response
// ---------------------------------------------------------------------------

/// A `/api/v1/timeline` request: an explain request plus the slider
/// geometry in months.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineRequest {
    /// The query/settings to re-mine in every window.
    pub explain: ExplainRequest,
    /// Window length in months (≥ 1).
    pub window: usize,
    /// Step between consecutive windows in months (≥ 1).
    pub step: usize,
}

impl TimelineRequest {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = explain_request_to_json(&self.explain) else {
            unreachable!("explain requests encode to objects");
        };
        fields.insert("window".into(), Json::Num(self.window as f64));
        fields.insert("step".into(), Json::Num(self.step as f64));
        Json::Obj(fields)
    }

    /// Canonical JSON decoding (window defaults to 6, step to the window).
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let explain = explain_request_from_json(v)?;
        let window = opt_usize(v, "window")?.unwrap_or(6).max(1);
        let step = opt_usize(v, "step")?.unwrap_or(window).max(1);
        Ok(TimelineRequest {
            explain,
            window,
            step,
        })
    }

    /// Decodes from either transport.
    pub fn from_request(req: &Request) -> Result<Self, ApiError> {
        match req.method.as_str() {
            "GET" => {
                let explain = explain_request_from_query(req)?;
                let window = numeric_param::<usize>(req, "window")?.unwrap_or(6).max(1);
                let step = numeric_param::<usize>(req, "step")?
                    .unwrap_or(window)
                    .max(1);
                Ok(TimelineRequest {
                    explain,
                    window,
                    step,
                })
            }
            "POST" => Self::from_json(&parse_body(req)?),
            other => Err(ApiError::method_not_allowed(other)),
        }
    }
}

/// One group of a timeline point.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineGroupDto {
    /// Group label.
    pub label: String,
    /// Mean rating inside the window.
    pub mean: f64,
    /// Ratings inside the window.
    pub support: usize,
}

/// One slider position.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePointDto {
    /// First month of the window (`YYYY-MM`).
    pub from: String,
    /// Last month of the window (`YYYY-MM`).
    pub to: String,
    /// Ratings in the window.
    pub ratings: usize,
    /// Overall mean in the window.
    pub mean: Option<f64>,
    /// The top SM groups of the window.
    pub groups: Vec<TimelineGroupDto>,
    /// Why the window produced no groups, when it did not.
    pub skipped: Option<String>,
}

/// The `/api/v1/timeline` response.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineResponse {
    /// One point per slider position.
    pub points: Vec<TimelinePointDto>,
}

impl TimelineResponse {
    /// Builds the response from a slider sweep.
    pub fn from_points(points: &[TimelinePoint]) -> Self {
        TimelineResponse {
            points: points
                .iter()
                .map(|p| TimelinePointDto {
                    from: p.from.to_string(),
                    to: p.to.to_string(),
                    ratings: p.num_ratings,
                    mean: p.overall_mean,
                    groups: p
                        .top_groups
                        .iter()
                        .map(|(label, mean, support)| TimelineGroupDto {
                            label: label.clone(),
                            mean: *mean,
                            support: *support,
                        })
                        .collect(),
                    skipped: p.skipped.clone(),
                })
                .collect(),
        }
    }

    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "points",
            Json::Arr(
                self.points
                    .iter()
                    .map(|p| {
                        let mut fields = vec![
                            ("from", Json::str(p.from.clone())),
                            ("to", Json::str(p.to.clone())),
                            ("ratings", Json::Num(p.ratings as f64)),
                            ("mean", num_opt(p.mean)),
                            (
                                "groups",
                                Json::Arr(
                                    p.groups
                                        .iter()
                                        .map(|g| {
                                            Json::obj([
                                                ("label", Json::str(g.label.clone())),
                                                ("mean", Json::Num(g.mean)),
                                                ("support", Json::Num(g.support as f64)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ];
                        if let Some(reason) = &p.skipped {
                            fields.push(("skipped", Json::str(reason.clone())));
                        }
                        Json::obj(fields)
                    })
                    .collect(),
            ),
        )])
    }

    /// Canonical JSON decoding.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Some(Json::Arr(points_json)) = v.get("points") else {
            return Err("missing \"points\" array".into());
        };
        let mut points = Vec::with_capacity(points_json.len());
        for p in points_json {
            let mut groups = Vec::new();
            if let Some(Json::Arr(gs)) = p.get("groups") {
                for g in gs {
                    groups.push(TimelineGroupDto {
                        label: req_str(g, "label")?,
                        mean: g.get("mean").and_then(Json::as_f64).ok_or("group mean")?,
                        support: g
                            .get("support")
                            .and_then(Json::as_f64)
                            .ok_or("group support")? as usize,
                    });
                }
            }
            points.push(TimelinePointDto {
                from: req_str(p, "from")?,
                to: req_str(p, "to")?,
                ratings: p.get("ratings").and_then(Json::as_f64).ok_or("ratings")? as usize,
                mean: p.get("mean").and_then(Json::as_f64),
                groups,
                skipped: p.get("skipped").and_then(Json::as_str).map(str::to_string),
            });
        }
        Ok(TimelineResponse { points })
    }
}

// ---------------------------------------------------------------------------
// Drill / detail request + responses
// ---------------------------------------------------------------------------

/// A `/api/v1/drill` or `/api/v1/detail` request: an explain request plus
/// the group to inspect.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillRequest {
    /// The query/settings whose explanation owns the group.
    pub explain: ExplainRequest,
    /// Which interpretation tab the index refers to.
    pub task: Task,
    /// Group index inside the tab.
    pub idx: usize,
}

impl DrillRequest {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut fields) = explain_request_to_json(&self.explain) else {
            unreachable!("explain requests encode to objects");
        };
        fields.insert("task".into(), Json::str(task_code(self.task)));
        fields.insert("idx".into(), Json::Num(self.idx as f64));
        Json::Obj(fields)
    }

    /// Canonical JSON decoding.
    pub fn from_json(v: &Json) -> Result<Self, ApiError> {
        let explain = explain_request_from_json(v)?;
        let task = match v.get("task").and_then(Json::as_str) {
            None => Task::Similarity,
            Some(code) => task_from_code(code)?,
        };
        let idx =
            opt_usize(v, "idx")?.ok_or_else(|| ApiError::bad_request("missing parameter idx"))?;
        Ok(DrillRequest { explain, task, idx })
    }

    /// Decodes from either transport.
    pub fn from_request(req: &Request) -> Result<Self, ApiError> {
        match req.method.as_str() {
            "GET" => {
                let explain = explain_request_from_query(req)?;
                let task = match req.param("task") {
                    None => Task::Similarity,
                    Some(code) => task_from_code(code)?,
                };
                let idx = numeric_param::<usize>(req, "idx")?
                    .ok_or_else(|| ApiError::bad_request("missing parameter idx"))?;
                Ok(DrillRequest { explain, task, idx })
            }
            "POST" => Self::from_json(&parse_body(req)?),
            other => Err(ApiError::method_not_allowed(other)),
        }
    }
}

/// The wire code of an interpretation task (`sm` / `dm`).
pub fn task_code(task: Task) -> &'static str {
    match task {
        Task::Similarity => "sm",
        Task::Diversity => "dm",
    }
}

/// Parses an interpretation-task code.
pub fn task_from_code(code: &str) -> Result<Task, ApiError> {
    match code {
        "sm" => Ok(Task::Similarity),
        "dm" => Ok(Task::Diversity),
        other => Err(ApiError::bad_request(format!(
            "task must be \"sm\" or \"dm\", got {other:?}"
        ))),
    }
}

/// One city row of a drill-down.
#[derive(Debug, Clone, PartialEq)]
pub struct CityDto {
    /// City name.
    pub city: String,
    /// Ratings from the city.
    pub count: usize,
    /// Mean rating in the city.
    pub mean: Option<f64>,
}

/// The `/api/v1/drill` response: city-level statistics for one group.
#[derive(Debug, Clone, PartialEq)]
pub struct DrillResponse {
    /// The drilled group's label.
    pub group: String,
    /// Per-city aggregates.
    pub cities: Vec<CityDto>,
}

impl DrillResponse {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("group", Json::str(self.group.clone())),
            (
                "cities",
                Json::Arr(
                    self.cities
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("city", Json::str(c.city.clone())),
                                ("count", Json::Num(c.count as f64)),
                                ("mean", num_opt(c.mean)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical JSON decoding.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let Some(Json::Arr(cities_json)) = v.get("cities") else {
            return Err("missing \"cities\" array".into());
        };
        let mut cities = Vec::with_capacity(cities_json.len());
        for c in cities_json {
            cities.push(CityDto {
                city: req_str(c, "city")?,
                count: c.get("count").and_then(Json::as_f64).ok_or("count")? as usize,
                mean: c.get("mean").and_then(Json::as_f64),
            });
        }
        Ok(DrillResponse {
            group: req_str(v, "group")?,
            cities,
        })
    }
}

/// One related group in the statistics panel.
#[derive(Debug, Clone, PartialEq)]
pub struct RelatedDto {
    /// Group label.
    pub label: String,
    /// `roll-up` or `sibling`.
    pub relation: String,
    /// Mean rating.
    pub mean: Option<f64>,
    /// Ratings in the group.
    pub count: usize,
}

/// The `/api/v1/detail` response: the Figure-3 statistics panel.
#[derive(Debug, Clone, PartialEq)]
pub struct DetailResponse {
    /// The selected group's label.
    pub label: String,
    /// Ratings in the group.
    pub count: usize,
    /// Mean rating of the group.
    pub mean: Option<f64>,
    /// 5-bucket rating histogram.
    pub histogram: Vec<usize>,
    /// Mean over all of `R_I` for contrast.
    pub overall_mean: Option<f64>,
    /// Related groups (parents first, then siblings).
    pub related: Vec<RelatedDto>,
}

impl DetailResponse {
    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("label", Json::str(self.label.clone())),
            ("count", Json::Num(self.count as f64)),
            ("mean", num_opt(self.mean)),
            (
                "histogram",
                Json::Arr(
                    self.histogram
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("overall_mean", num_opt(self.overall_mean)),
            (
                "related",
                Json::Arr(
                    self.related
                        .iter()
                        .map(|rg| {
                            Json::obj([
                                ("label", Json::str(rg.label.clone())),
                                ("relation", Json::str(rg.relation.clone())),
                                ("mean", num_opt(rg.mean)),
                                ("count", Json::Num(rg.count as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Canonical JSON decoding.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let histogram = match v.get("histogram") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|n| n.as_f64().map(|f| f as usize).ok_or("histogram bucket"))
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("missing \"histogram\" array".into()),
        };
        let mut related = Vec::new();
        if let Some(Json::Arr(items)) = v.get("related") {
            for rg in items {
                related.push(RelatedDto {
                    label: req_str(rg, "label")?,
                    relation: req_str(rg, "relation")?,
                    mean: rg.get("mean").and_then(Json::as_f64),
                    count: rg.get("count").and_then(Json::as_f64).ok_or("count")? as usize,
                });
            }
        }
        Ok(DetailResponse {
            label: req_str(v, "label")?,
            count: v.get("count").and_then(Json::as_f64).ok_or("count")? as usize,
            mean: v.get("mean").and_then(Json::as_f64),
            histogram,
            overall_mean: v.get("overall_mean").and_then(Json::as_f64),
            related,
        })
    }
}

// ---------------------------------------------------------------------------
// Explain response
// ---------------------------------------------------------------------------

/// One explained group on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDto {
    /// Natural-language label.
    pub label: String,
    /// Two-letter state abbreviation, when the group carries one.
    pub state: Option<String>,
    /// Mean rating.
    pub mean: Option<f64>,
    /// Ratings in the group.
    pub support: usize,
    /// Fraction of `R_I` the group covers.
    pub share: f64,
    /// Canonical descriptor token (stable across renames).
    pub token: String,
}

/// One interpretation tab on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct InterpretationDto {
    /// Task name (`Similarity Mining` / `Diversity Mining`).
    pub task: String,
    /// Objective value of the selection.
    pub objective: f64,
    /// Achieved joint coverage.
    pub coverage: f64,
    /// Whether the coverage constraint was met (vs relaxed).
    pub meets_coverage: bool,
    /// The selected groups.
    pub groups: Vec<GroupDto>,
}

impl InterpretationDto {
    fn from_interpretation(interp: &Interpretation) -> Self {
        InterpretationDto {
            task: interp.task.name().to_string(),
            objective: interp.objective,
            coverage: interp.coverage,
            meets_coverage: interp.meets_coverage,
            groups: interp
                .groups
                .iter()
                .map(|g| GroupDto {
                    label: g.label.clone(),
                    state: g.desc.state().map(|s| s.abbrev().to_string()),
                    mean: g.stats.mean(),
                    support: g.support,
                    share: g.coverage_share,
                    token: g.desc.token(),
                })
                .collect(),
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("task", Json::str(self.task.clone())),
            ("objective", Json::Num(self.objective)),
            ("coverage", Json::Num(self.coverage)),
            ("meets_coverage", Json::Bool(self.meets_coverage)),
            (
                "groups",
                Json::Arr(
                    self.groups
                        .iter()
                        .map(|g| {
                            Json::obj([
                                ("label", Json::str(g.label.clone())),
                                (
                                    "state",
                                    g.state
                                        .as_ref()
                                        .map(|s| Json::str(s.clone()))
                                        .unwrap_or(Json::Null),
                                ),
                                ("mean", num_opt(g.mean)),
                                ("support", Json::Num(g.support as f64)),
                                ("share", Json::Num(g.share)),
                                ("token", Json::str(g.token.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let Some(Json::Arr(groups_json)) = v.get("groups") else {
            return Err("missing \"groups\" array".into());
        };
        let mut groups = Vec::with_capacity(groups_json.len());
        for g in groups_json {
            groups.push(GroupDto {
                label: req_str(g, "label")?,
                state: g.get("state").and_then(Json::as_str).map(str::to_string),
                mean: g.get("mean").and_then(Json::as_f64),
                support: g.get("support").and_then(Json::as_f64).ok_or("support")? as usize,
                share: g.get("share").and_then(Json::as_f64).ok_or("share")?,
                token: req_str(g, "token")?,
            });
        }
        Ok(InterpretationDto {
            task: req_str(v, "task")?,
            objective: v
                .get("objective")
                .and_then(Json::as_f64)
                .ok_or("objective")?,
            coverage: v.get("coverage").and_then(Json::as_f64).ok_or("coverage")?,
            meets_coverage: matches!(v.get("meets_coverage"), Some(Json::Bool(true))),
            groups,
        })
    }
}

/// One group's error bound on the wire (inside the `approx` block).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBoundDto {
    /// Canonical descriptor token — the join key against the tab's
    /// `groups` array.
    pub token: String,
    /// Sampled ratings the estimate was computed from.
    pub sampled_support: usize,
    /// Exact ratings of `R_I` in the group (from the stratum census).
    pub exact_support: usize,
    /// Point estimate of the group mean.
    pub mean: f64,
    /// Lower confidence limit.
    pub mean_lo: f64,
    /// Upper confidence limit.
    pub mean_hi: f64,
}

/// Per-tab error bounds inside the `approx` block.
#[derive(Debug, Clone, PartialEq)]
pub struct TabBoundsDto {
    /// Exact coverage of the selected groups' union over `R_I`.
    pub coverage_exact: f64,
    /// Per-group bounds, in the tab's group order.
    pub groups: Vec<GroupBoundDto>,
}

/// The `approx` block of an [`ExplainResponse`]: present exactly when the
/// answer was mined from a stratified sample (see `docs/APPROX.md`).
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxDto {
    /// The requested sampling fraction.
    pub sample_frac: f64,
    /// The fraction actually read (per-stratum ceilings round up).
    pub achieved_frac: f64,
    /// Ratings the sampled pipeline read.
    pub sampled: usize,
    /// Exact `|R_I|` (equals the response's `ratings` field).
    pub population: usize,
    /// Nonempty strata (base demographic cells of `R_I`).
    pub strata: usize,
    /// Confidence level of every interval.
    pub confidence: f64,
    /// The widest interval half-width across both tabs — the scalar
    /// `bound` of the approximation contract.
    pub bound: f64,
    /// Per-tab bounds for the Similarity Mining tab.
    pub similarity: TabBoundsDto,
    /// Per-tab bounds for the Diversity Mining tab.
    pub diversity: TabBoundsDto,
}

impl ApproxDto {
    /// Builds the wire block from the engine's approximation contract.
    pub fn from_info(info: &ApproxInfo) -> Self {
        let tab = |bounds: &InterpretationBounds| TabBoundsDto {
            coverage_exact: bounds.coverage_exact,
            groups: bounds
                .groups
                .iter()
                .map(|b: &GroupBound| GroupBoundDto {
                    token: b.token.clone(),
                    sampled_support: b.sampled_support as usize,
                    exact_support: b.exact_support as usize,
                    mean: b.mean,
                    mean_lo: b.mean_lo,
                    mean_hi: b.mean_hi,
                })
                .collect(),
        };
        ApproxDto {
            sample_frac: info.requested_frac,
            achieved_frac: info.achieved_frac,
            sampled: info.sampled as usize,
            population: info.population as usize,
            strata: info.strata as usize,
            confidence: info.confidence,
            bound: info.max_half_width(),
            similarity: tab(&info.similarity),
            diversity: tab(&info.diversity),
        }
    }

    fn to_json(&self) -> Json {
        let tab = |t: &TabBoundsDto| {
            Json::obj([
                ("coverage_exact", Json::Num(t.coverage_exact)),
                (
                    "groups",
                    Json::Arr(
                        t.groups
                            .iter()
                            .map(|b| {
                                Json::obj([
                                    ("token", Json::str(b.token.clone())),
                                    ("sampled_support", Json::Num(b.sampled_support as f64)),
                                    ("exact_support", Json::Num(b.exact_support as f64)),
                                    ("mean", Json::Num(b.mean)),
                                    ("mean_lo", Json::Num(b.mean_lo)),
                                    ("mean_hi", Json::Num(b.mean_hi)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        };
        Json::obj([
            ("sample_frac", Json::Num(self.sample_frac)),
            ("achieved_frac", Json::Num(self.achieved_frac)),
            ("sampled", Json::Num(self.sampled as f64)),
            ("population", Json::Num(self.population as f64)),
            ("strata", Json::Num(self.strata as f64)),
            ("confidence", Json::Num(self.confidence)),
            ("bound", Json::Num(self.bound)),
            ("similarity", tab(&self.similarity)),
            ("diversity", tab(&self.diversity)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        let tab = |v: &Json| -> Result<TabBoundsDto, String> {
            let Some(Json::Arr(groups_json)) = v.get("groups") else {
                return Err("approx tab missing \"groups\" array".into());
            };
            let mut groups = Vec::with_capacity(groups_json.len());
            for b in groups_json {
                let num = |key: &str| b.get(key).and_then(Json::as_f64).ok_or(key.to_string());
                groups.push(GroupBoundDto {
                    token: req_str(b, "token")?,
                    sampled_support: num("sampled_support")? as usize,
                    exact_support: num("exact_support")? as usize,
                    mean: num("mean")?,
                    mean_lo: num("mean_lo")?,
                    mean_hi: num("mean_hi")?,
                });
            }
            Ok(TabBoundsDto {
                coverage_exact: v
                    .get("coverage_exact")
                    .and_then(Json::as_f64)
                    .ok_or("coverage_exact")?,
                groups,
            })
        };
        let num = |key: &str| v.get(key).and_then(Json::as_f64).ok_or(key.to_string());
        Ok(ApproxDto {
            sample_frac: num("sample_frac")?,
            achieved_frac: num("achieved_frac")?,
            sampled: num("sampled")? as usize,
            population: num("population")? as usize,
            strata: num("strata")? as usize,
            confidence: num("confidence")?,
            bound: num("bound")?,
            similarity: tab(v.get("similarity").ok_or("missing approx similarity")?)?,
            diversity: tab(v.get("diversity").ok_or("missing approx diversity")?)?,
        })
    }
}

/// The `/api/v1/explain` response: both interpretation tabs plus query
/// context.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResponse {
    /// Human-readable query description.
    pub query: String,
    /// Matched items.
    pub items: usize,
    /// Size of `R_I`.
    pub ratings: usize,
    /// The "overall average" the paper contrasts against.
    pub overall_mean: Option<f64>,
    /// The Similarity Mining tab.
    pub similarity: InterpretationDto,
    /// The Diversity Mining tab.
    pub diversity: InterpretationDto,
    /// The approximation contract, present exactly when the answer was
    /// mined from a stratified sample (`X-MapRat-Cache: hit-approx` or a
    /// cold sampled solve).
    pub approx: Option<ApproxDto>,
}

impl ExplainResponse {
    /// Builds the response from a mined explanation.
    pub fn from_explanation(explanation: &Explanation) -> Self {
        ExplainResponse {
            query: explanation.query.clone(),
            items: explanation.items.len(),
            ratings: explanation.num_ratings,
            overall_mean: explanation.total.mean(),
            similarity: InterpretationDto::from_interpretation(&explanation.similarity),
            diversity: InterpretationDto::from_interpretation(&explanation.diversity),
            approx: None,
        }
    }

    /// Attaches the approximation contract (sampled answers only).
    pub fn with_approx(mut self, info: &ApproxInfo) -> Self {
        self.approx = Some(ApproxDto::from_info(info));
        self
    }

    /// Canonical JSON encoding.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("query", Json::str(self.query.clone())),
            ("items", Json::Num(self.items as f64)),
            ("ratings", Json::Num(self.ratings as f64)),
            ("overall_mean", num_opt(self.overall_mean)),
            ("similarity", self.similarity.to_json()),
            ("diversity", self.diversity.to_json()),
        ];
        if let Some(approx) = &self.approx {
            fields.push(("approx", approx.to_json()));
        }
        Json::obj(fields)
    }

    /// Canonical JSON decoding.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ExplainResponse {
            query: req_str(v, "query")?,
            items: v.get("items").and_then(Json::as_f64).ok_or("items")? as usize,
            ratings: v.get("ratings").and_then(Json::as_f64).ok_or("ratings")? as usize,
            overall_mean: v.get("overall_mean").and_then(Json::as_f64),
            similarity: InterpretationDto::from_json(
                v.get("similarity").ok_or("missing similarity")?,
            )?,
            diversity: InterpretationDto::from_json(
                v.get("diversity").ok_or("missing diversity")?,
            )?,
            approx: match v.get("approx") {
                None | Some(Json::Null) => None,
                Some(a) => Some(ApproxDto::from_json(a)?),
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Visitor profile transport
// ---------------------------------------------------------------------------

/// Decodes a `/api/v1/personalize` request — the explain request plus the
/// visitor profile — from either transport: flat query parameters
/// (`gender`/`age`/`occupation`/`state` next to the query fields), or a
/// POST body whose `"profile"` object carries the same keys. The POST
/// body is parsed exactly once.
pub fn personalize_request(req: &Request) -> Result<(ExplainRequest, VisitorProfile), ApiError> {
    match req.method.as_str() {
        "GET" => {
            let explain = explain_request_from_query(req)?;
            let lookup = |name: &str| req.param(name).map(str::to_string);
            Ok((explain, profile_from_fields(&lookup)?))
        }
        "POST" => {
            let body = parse_body(req)?;
            let explain = explain_request_from_json(&body)?;
            let profile = body.get("profile").cloned().unwrap_or(Json::obj([]));
            let lookup = |name: &str| {
                profile.get(name).map(|v| match v {
                    Json::Str(s) => s.clone(),
                    other => other.render(),
                })
            };
            Ok((explain, profile_from_fields(&lookup)?))
        }
        other => Err(ApiError::method_not_allowed(other)),
    }
}

fn profile_from_fields(
    lookup: &dyn Fn(&str) -> Option<String>,
) -> Result<VisitorProfile, ApiError> {
    let mut profile = VisitorProfile::new();
    if let Some(g) = lookup("gender") {
        let gender = Gender::from_letter(&g).map_err(|e| ApiError::bad_request(e.to_string()))?;
        profile = profile.with(AttrValue::Gender(gender));
    }
    if let Some(a) = lookup("age") {
        let code: u32 = a
            .parse()
            .map_err(|_| ApiError::bad_request(format!("bad age code {a:?}")))?;
        let age = AgeGroup::from_movielens_code(code)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        profile = profile.with(AttrValue::Age(age));
    }
    if let Some(o) = lookup("occupation") {
        let code: u32 = o
            .parse()
            .map_err(|_| ApiError::bad_request(format!("bad occupation {o:?}")))?;
        let occ = Occupation::from_movielens_code(code)
            .map_err(|e| ApiError::bad_request(e.to_string()))?;
        profile = profile.with(AttrValue::Occupation(occ));
    }
    if let Some(st) = lookup("state") {
        let state = UsState::from_abbrev(&st).map_err(|e| ApiError::bad_request(e.to_string()))?;
        profile = profile.with(AttrValue::State(state));
    }
    Ok(profile)
}

// ---------------------------------------------------------------------------
// Ingest request/response
// ---------------------------------------------------------------------------

/// Decodes `POST /api/v1/ingest`: `{"ratings": [event, …]}`, where each
/// event is `{"user": <id | new-reviewer>, "item": <id | "title" |
/// new-item>, "score": 1..=5, "ts": "YYYY-MM-DD"}`. A new reviewer is
/// `{"age": <MovieLens code>, "gender": "F"|"M", "occupation":
/// <MovieLens code>, "zip": <zip>}`; a new item is `{"title": …,
/// "year": …, "genres": [label, …]}`.
pub fn ingest_request(req: &Request) -> Result<IngestBuffer, ApiError> {
    if req.method != "POST" {
        return Err(ApiError::method_not_allowed(&req.method)
            .with_hint("ingest mutates the dataset; send a POST JSON body"));
    }
    let body = parse_body(req)?;
    let Some(Json::Arr(events)) = body.get("ratings") else {
        return Err(ApiError::bad_request(
            "ingest body must carry a \"ratings\" array",
        ));
    };
    let mut buffer = IngestBuffer::new();
    for (i, event) in events.iter().enumerate() {
        let event =
            rating_event_from_json(event).map_err(|e| e.with_hint(format!("in ratings[{i}]")))?;
        buffer.push(event).map_err(|e| {
            ApiError::bad_request(e.to_string()).with_hint(format!("in ratings[{i}]"))
        })?;
    }
    Ok(buffer)
}

fn rating_event_from_json(v: &Json) -> Result<RatingEvent, ApiError> {
    let user = match v.get("user") {
        Some(Json::Num(n)) => UserSpec::Existing(UserId(json_u32(*n, "user")?)),
        Some(obj @ Json::Obj(_)) => UserSpec::New(new_user_from_json(obj)?),
        _ => {
            return Err(ApiError::bad_request(
                "rating needs a \"user\": an existing reviewer id or a new-reviewer object",
            ))
        }
    };
    let item = match v.get("item") {
        Some(Json::Num(n)) => ItemSpec::Existing(ItemId(json_u32(*n, "item")?)),
        Some(Json::Str(title)) => ItemSpec::ByTitle(title.clone()),
        Some(obj @ Json::Obj(_)) => ItemSpec::New(new_item_from_json(obj)?),
        _ => return Err(ApiError::bad_request(
            "rating needs an \"item\": an existing item id, a title string or a new-item object",
        )),
    };
    let Some(Json::Num(score)) = v.get("score") else {
        return Err(ApiError::bad_request("rating needs a numeric \"score\""));
    };
    let score = Score::new(json_u32(*score, "score")? as u8)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let Some(Json::Str(ts)) = v.get("ts") else {
        return Err(ApiError::bad_request(
            "rating needs a \"ts\" date string (YYYY-MM-DD)",
        ));
    };
    Ok(RatingEvent {
        user,
        item,
        score,
        ts: date_from_str(ts)?,
    })
}

fn new_user_from_json(v: &Json) -> Result<NewUser, ApiError> {
    let Some(Json::Num(age)) = v.get("age") else {
        return Err(ApiError::bad_request(
            "new reviewer needs an \"age\" MovieLens code",
        ));
    };
    let age = AgeGroup::from_movielens_code(json_u32(*age, "age")?)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let Some(Json::Str(gender)) = v.get("gender") else {
        return Err(ApiError::bad_request("new reviewer needs a \"gender\""));
    };
    let gender = Gender::from_letter(gender).map_err(|e| ApiError::bad_request(e.to_string()))?;
    let Some(Json::Num(occupation)) = v.get("occupation") else {
        return Err(ApiError::bad_request(
            "new reviewer needs an \"occupation\" MovieLens code",
        ));
    };
    let occupation = Occupation::from_movielens_code(json_u32(*occupation, "occupation")?)
        .map_err(|e| ApiError::bad_request(e.to_string()))?;
    let Some(Json::Num(zip)) = v.get("zip") else {
        return Err(ApiError::bad_request(
            "new reviewer needs a numeric \"zip\"",
        ));
    };
    Ok(NewUser {
        age,
        gender,
        occupation,
        zip: Zip::new(json_u32(*zip, "zip")?),
    })
}

fn new_item_from_json(v: &Json) -> Result<NewItem, ApiError> {
    let Some(Json::Str(title)) = v.get("title") else {
        return Err(ApiError::bad_request("new item needs a \"title\""));
    };
    let Some(Json::Num(year)) = v.get("year") else {
        return Err(ApiError::bad_request("new item needs a numeric \"year\""));
    };
    let mut genres = Vec::new();
    if let Some(Json::Arr(labels)) = v.get("genres") {
        for label in labels {
            let Some(label) = label.as_str() else {
                return Err(ApiError::bad_request("\"genres\" must be label strings"));
            };
            genres.push(
                Genre::from_label(label).ok_or_else(|| {
                    ApiError::bad_request(format!("unknown genre label {label:?}"))
                })?,
            );
        }
    }
    Ok(NewItem {
        title: title.clone(),
        year: json_u32(*year, "year")? as u16,
        genres: genres.into_iter().collect(),
    })
}

fn json_u32(n: f64, field: &str) -> Result<u32, ApiError> {
    if n.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&n) {
        return Err(ApiError::bad_request(format!(
            "\"{field}\" must be a non-negative integer, got {n}"
        )));
    }
    Ok(n as u32)
}

fn date_from_str(s: &str) -> Result<Timestamp, ApiError> {
    let bad = || ApiError::bad_request(format!("bad date {s:?}; expected YYYY-MM-DD"));
    let mut parts = s.split('-');
    let (Some(y), Some(m), Some(d), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(bad());
    };
    let y: i64 = y.parse().map_err(|_| bad())?;
    let m: u32 = m.parse().map_err(|_| bad())?;
    let d: u32 = d.parse().map_err(|_| bad())?;
    if !(1..=9999).contains(&y) || !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(bad());
    }
    Ok(Timestamp::from_ymd(y, m, d))
}

/// Encodes a commit receipt as the `POST /api/v1/ingest` response body.
pub fn receipt_to_json(receipt: &CommitReceipt) -> Json {
    Json::obj([
        ("seq", Json::Num(receipt.seq as f64)),
        ("accepted", Json::Num(receipt.accepted as f64)),
        ("new_users", Json::Num(receipt.new_users as f64)),
        ("new_items", Json::Num(receipt.new_items as f64)),
        ("month", Json::str(receipt.month.to_string())),
        (
            "changed_items",
            Json::Num(receipt.changed_items.len() as f64),
        ),
        ("invalidated", Json::Num(receipt.invalidated as f64)),
    ])
}

/// Maps an ingest rejection onto the structured API error shape.
pub fn from_ingest(e: &IngestError) -> ApiError {
    match e {
        IngestError::UnknownUser(_)
        | IngestError::UnknownItem(_)
        | IngestError::UnknownTitle(_) => ApiError::not_found(e.to_string()),
        IngestError::Invalid(_) | IngestError::EmptyCommit | IngestError::Data(_) => {
            ApiError::bad_request(e.to_string())
        }
        // Durability failed closed: the commit was rejected, nothing was
        // applied, and retrying once the log is healthy is safe.
        IngestError::Wal(_) => ApiError {
            code: "wal_unavailable".to_string(),
            message: e.to_string(),
            hint: Some("the commit was not applied; check the WAL directory and retry".into()),
            available_routes: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::TimeRange;

    fn sample_request() -> ExplainRequest {
        let query = ItemQuery::title("Toy Story")
            .and(QueryTerm::Genre(Genre::Comedy))
            .within(TimeRange::months(
                MonthKey::new(2000, 5)..=MonthKey::new(2001, 6),
            ));
        let settings = SearchSettings::builder()
            .max_groups(4)
            .min_coverage(0.35)
            .min_support(7)
            .require_geo(false)
            .dm_lambda(0.75)
            .seed(0xBEEF)
            .build()
            .unwrap();
        ExplainRequest::new(query, settings)
    }

    #[test]
    fn explain_request_round_trips() {
        let request = sample_request();
        let encoded = explain_request_to_json(&request).render();
        let decoded = explain_request_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(request, decoded);
        assert_eq!(request.fingerprint(), decoded.fingerprint());
    }

    #[test]
    fn every_term_kind_round_trips() {
        let terms = [
            QueryTerm::TitleIs("Jaws".into()),
            QueryTerm::TitleContains("Lord".into()),
            QueryTerm::Actor("Tom Hanks".into()),
            QueryTerm::Director("Steven Spielberg".into()),
            QueryTerm::Genre(Genre::Thriller),
            QueryTerm::YearBetween(2001, 2003),
        ];
        for term in terms {
            let encoded = term_to_json(&term).render();
            let decoded = term_from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(term, decoded, "{encoded}");
        }
    }

    #[test]
    fn month_strings_accepted_as_time_bounds() {
        let v = Json::parse(
            r#"{"query":{"terms":[{"field":"title","value":"X"}],"time":{"from":"2000-05","to":"2001-06"}}}"#,
        )
        .unwrap();
        let decoded = explain_request_from_json(&v).unwrap();
        let expected = ItemQuery::title("X")
            .within_months(Some(MonthKey::new(2000, 5)), Some(MonthKey::new(2001, 6)));
        assert_eq!(decoded.query.time, expected.time);
    }

    #[test]
    fn bad_requests_are_named() {
        let cases = [
            (r#"{}"#, "query"),
            (r#"{"query":{"terms":[]}}"#, "term"),
            (r#"{"query":{"terms":[{"field":"warp"}]}}"#, "warp"),
            (
                r#"{"query":{"terms":[{"field":"title","value":"X"}],"combine":"xor"}}"#,
                "xor",
            ),
            (
                r#"{"query":{"terms":[{"field":"title","value":"X"}],"time":{"from":"200005"}}}"#,
                "200005",
            ),
            (
                r#"{"query":{"terms":[{"field":"title","value":"X"}]},"settings":{"min_coverage":0}}"#,
                "min_coverage",
            ),
        ];
        for (body, needle) in cases {
            let err = explain_request_from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{body} → {:?} should name {needle:?}",
                err.message
            );
            assert_eq!(err.status(), 400);
        }
    }

    #[test]
    fn settings_validate_through_the_builder() {
        for bad in [
            r#"{"min_coverage":0}"#,
            r#"{"min_coverage":1.5}"#,
            r#"{"max_groups":0}"#,
            r#"{"min_support":0}"#,
            r#"{"max_arity":9}"#,
        ] {
            let err = settings_from_json(&Json::parse(bad).unwrap()).unwrap_err();
            assert_eq!(err.code, "invalid_settings", "{bad} → {err:?}");
        }
    }

    #[test]
    fn api_error_round_trips_with_available_routes() {
        let err = ApiError::unknown_route("/api/nope");
        let encoded = err.to_json().render();
        let decoded = ApiError::from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(err, decoded);
        assert!(decoded
            .available_routes
            .contains(&"/api/v1/explain".to_string()));
        assert_eq!(decoded.status(), 404);
    }

    #[test]
    fn timeline_and_drill_requests_round_trip() {
        let tl = TimelineRequest {
            explain: sample_request(),
            window: 9,
            step: 3,
        };
        let decoded =
            TimelineRequest::from_json(&Json::parse(&tl.to_json().render()).unwrap()).unwrap();
        assert_eq!(tl, decoded);

        let dr = DrillRequest {
            explain: sample_request(),
            task: Task::Diversity,
            idx: 2,
        };
        let decoded =
            DrillRequest::from_json(&Json::parse(&dr.to_json().render()).unwrap()).unwrap();
        assert_eq!(dr, decoded);
    }

    #[test]
    fn response_types_round_trip() {
        let explain = ExplainResponse {
            query: "title=\"Toy Story\"".into(),
            items: 1,
            ratings: 420,
            overall_mean: Some(4.25),
            similarity: InterpretationDto {
                task: "Similarity Mining".into(),
                objective: 1.5,
                coverage: 0.4,
                meets_coverage: true,
                groups: vec![GroupDto {
                    label: "male reviewers from California".into(),
                    state: Some("CA".into()),
                    mean: Some(4.8),
                    support: 120,
                    share: 0.28,
                    token: "gender=M,state=CA".into(),
                }],
            },
            diversity: InterpretationDto {
                task: "Diversity Mining".into(),
                objective: 2.5,
                coverage: 0.3,
                meets_coverage: false,
                groups: vec![],
            },
            approx: None,
        };
        let decoded =
            ExplainResponse::from_json(&Json::parse(&explain.to_json().render()).unwrap()).unwrap();
        assert_eq!(explain, decoded);

        // With the approx block attached, the contract round-trips too.
        let sampled = ExplainResponse {
            approx: Some(ApproxDto {
                sample_frac: 0.1,
                achieved_frac: 0.12,
                sampled: 50,
                population: 420,
                strata: 37,
                confidence: 0.95,
                bound: 0.3,
                similarity: TabBoundsDto {
                    coverage_exact: 0.41,
                    groups: vec![GroupBoundDto {
                        token: "gender=M,state=CA".into(),
                        sampled_support: 14,
                        exact_support: 120,
                        mean: 4.8,
                        mean_lo: 4.5,
                        mean_hi: 5.0,
                    }],
                },
                diversity: TabBoundsDto {
                    coverage_exact: 0.3,
                    groups: vec![],
                },
            }),
            ..explain
        };
        let decoded =
            ExplainResponse::from_json(&Json::parse(&sampled.to_json().render()).unwrap()).unwrap();
        assert_eq!(sampled, decoded);

        let timeline = TimelineResponse {
            points: vec![TimelinePointDto {
                from: "2000-05".into(),
                to: "2000-10".into(),
                ratings: 33,
                mean: None,
                groups: vec![TimelineGroupDto {
                    label: "g".into(),
                    mean: 4.5,
                    support: 10,
                }],
                skipped: Some("too few ratings in window".into()),
            }],
        };
        let decoded =
            TimelineResponse::from_json(&Json::parse(&timeline.to_json().render()).unwrap())
                .unwrap();
        assert_eq!(timeline, decoded);

        let drill = DrillResponse {
            group: "male reviewers from California".into(),
            cities: vec![CityDto {
                city: "San Jose".into(),
                count: 12,
                mean: Some(4.9),
            }],
        };
        let decoded =
            DrillResponse::from_json(&Json::parse(&drill.to_json().render()).unwrap()).unwrap();
        assert_eq!(drill, decoded);

        let detail = DetailResponse {
            label: "male reviewers from California".into(),
            count: 120,
            mean: Some(4.8),
            histogram: vec![1, 2, 3, 40, 74],
            overall_mean: Some(4.1),
            related: vec![RelatedDto {
                label: "reviewers from California".into(),
                relation: "roll-up".into(),
                mean: Some(4.5),
                count: 200,
            }],
        };
        let decoded =
            DetailResponse::from_json(&Json::parse(&detail.to_json().render()).unwrap()).unwrap();
        assert_eq!(detail, decoded);
    }
}
