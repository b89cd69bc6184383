//! Integration contract of the typed, versioned API (ISSUE 2 acceptance):
//! the engine is an owned `Arc<Dataset>` handle whose clones serve
//! concurrently, and `/api/v1/explain` answers an equivalent query
//! identically through a GET query string and a POST JSON body.

use maprat::core::query::ItemQuery;
use maprat::core::SearchSettings;
use maprat::data::synth::{generate, SynthConfig};
use maprat::data::Dataset;
use maprat::server::api;
use maprat::server::{AppState, HttpServer, Json};
use maprat::{ExplainRequest, MapRatEngine};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};

fn dataset() -> Arc<Dataset> {
    static DATASET: OnceLock<Arc<Dataset>> = OnceLock::new();
    Arc::clone(DATASET.get_or_init(|| Arc::new(generate(&SynthConfig::tiny(42)).unwrap())))
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = String::new();
    stream.read_to_string(&mut buf).unwrap();
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap();
    let body = buf.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

fn get(port: u16, target: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    read_response(&mut stream)
}

fn post(port: u16, target: &str, body: &str) -> (u16, String) {
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

#[test]
fn explain_get_and_post_answer_identically() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        2,
        AppState::new(MapRatEngine::new(dataset())).into_handler(),
    )
    .unwrap();

    // The equivalent request through both transports: flat GET parameters
    // and the canonical JSON encoding of the same typed request.
    let (get_status, get_body) = get(
        server.port(),
        "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0&k=3&from=2000-01&to=2002-12",
    );
    assert_eq!(get_status, 200, "{get_body}");

    let typed = ExplainRequest::new(
        ItemQuery::title("Toy Story").within_months(
            Some("2000-01".parse().unwrap()),
            Some("2002-12".parse().unwrap()),
        ),
        SearchSettings::builder()
            .max_groups(3)
            .min_coverage(0.1)
            .require_geo(false)
            .build()
            .unwrap(),
    );
    let body = api::explain_request_to_json(&typed).render();
    let (post_status, post_body) = post(server.port(), "/api/v1/explain", &body);
    assert_eq!(post_status, 200, "{post_body}");
    assert_eq!(
        get_body, post_body,
        "GET query string and POST JSON must answer identically"
    );

    // And the payload decodes into the typed response.
    let decoded = maprat::server::ExplainResponse::from_json(&Json::parse(&post_body).unwrap())
        .expect("typed response decodes");
    assert!(decoded.ratings > 0);
    assert!(!decoded.similarity.groups.is_empty());
}

#[test]
fn engine_clones_serve_concurrently() {
    // Two clones of one engine: no lifetimes, no leak, shared cache.
    let engine = MapRatEngine::new(dataset());
    let settings = SearchSettings::builder()
        .min_coverage(0.1)
        .require_geo(false)
        .build()
        .unwrap();

    let handles: Vec<_> = (0..2)
        .map(|_| {
            let worker = engine.clone();
            let settings = settings.clone();
            std::thread::spawn(move || {
                let result = worker.explain_query(&ItemQuery::title("Toy Story"), &settings);
                assert!(result.is_ok(), "clone must explain: {result:?}");
                Arc::as_ptr(&result) as usize
            })
        })
        .collect();
    let ptrs: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(
        ptrs[0], ptrs[1],
        "both clones must resolve to the same cached entry"
    );
    assert!(
        engine.cache_stats().hits() + engine.cache_stats().misses() >= 2,
        "both clones hit the shared cache"
    );

    // Two engines over the same Arc<Dataset> coexist as well — the
    // multi-dataset/hot-swap story the 'static design forbade.
    let second = MapRatEngine::new(engine.dataset_arc());
    assert!(second
        .explain_query(&ItemQuery::title("Toy Story"), &settings)
        .is_ok());
}

#[test]
fn two_engine_clones_serve_two_http_servers() {
    // The same engine behind two independent HTTP servers (e.g. two
    // listeners of one deployment): both answer, sharing one cache.
    let engine = MapRatEngine::new(dataset());
    let a = HttpServer::start(
        "127.0.0.1:0",
        2,
        AppState::new(engine.clone()).into_handler(),
    )
    .unwrap();
    let b = HttpServer::start(
        "127.0.0.1:0",
        2,
        AppState::new(engine.clone()).into_handler(),
    )
    .unwrap();
    let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";
    let (sa, body_a) = get(a.port(), target);
    let (sb, body_b) = get(b.port(), target);
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(body_a, body_b);
    assert!(
        engine.cache_stats().hits() >= 1,
        "second server must reuse the first server's cached result"
    );
}

#[test]
fn explain_labels_cache_tier_in_header() {
    // Fresh engine (not the shared dataset's warm cache): the first
    // explain is a miss, the replay a hit — advertised per-response.
    let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(99)).unwrap());
    let server = HttpServer::start("127.0.0.1:0", 2, AppState::new(engine).into_handler()).unwrap();
    let target = "/api/v1/explain?q=Toy+Story&coverage=0.1&geo=0";

    let header = |port: u16| -> String {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "GET {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix("X-MapRat-Cache: "))
            .map(|v| v.trim().to_string())
            .expect("explain responses carry X-MapRat-Cache")
    };
    assert_eq!(header(server.port()), "miss");
    assert_eq!(header(server.port()), "hit");
}

#[test]
fn unversioned_routes_are_unknown() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        2,
        AppState::new(MapRatEngine::new(dataset())).into_handler(),
    )
    .unwrap();
    let (status, body) = get(server.port(), "/api/explain?q=Toy+Story&coverage=0.1&geo=0");
    assert_eq!(status, 404);
    let err = maprat::server::ApiError::from_json(&Json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.code, "unknown_route");
    assert!(err.message.contains("/api/explain"), "{}", err.message);
}

#[test]
fn unknown_route_advertises_v1_surface() {
    let server = HttpServer::start(
        "127.0.0.1:0",
        2,
        AppState::new(MapRatEngine::new(dataset())).into_handler(),
    )
    .unwrap();
    let (status, body) = get(server.port(), "/api/v2/explain");
    assert_eq!(status, 404);
    let err = maprat::server::ApiError::from_json(&Json::parse(&body).unwrap()).unwrap();
    assert_eq!(err.code, "unknown_route");
    assert!(err
        .available_routes
        .contains(&"/api/v1/explain".to_string()));
}
