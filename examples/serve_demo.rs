//! Launches the web demo: the Figure-1 front-end on an embedded HTTP
//! server, exactly like the paper's demonstration plan (§3.2).
//!
//! Run with `cargo run --release --example serve_demo [port]`, then open
//! `http://127.0.0.1:<port>/`. Try the queries of §3.2: "The Social
//! Network", "Tom Hanks" (type Actor), "Lord of the Rings" (type Title
//! contains), "Steven Spielberg" (type Director).
//!
//! The serving layer is tuned entirely through environment variables
//! (the same table lives in the README):
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `MAPRAT_THREADS` | CPU count | worker threads in the shared pool |
//! | `MAPRAT_RESULT_CACHE` | 256 | result-tier capacity (entries, all shards) |
//! | `MAPRAT_SNAPSHOT_CACHE` | 64 | snapshot-tier capacity (cube/cover snapshots) |
//! | `MAPRAT_PRECOMPUTE_BUDGET` | 2 | background warms per scheduler tick (0 = record-only) |
//! | `MAPRAT_PRECOMPUTE_MS` | 50 | scheduler tick interval in milliseconds |
//! | `MAPRAT_KEEPALIVE_SECS` | 5 | keep-alive idle timeout (0 disables keep-alive) |
//! | `MAPRAT_INGEST` | 1 | live rating ingestion via `POST /api/v1/ingest` (0 disables) |
//! | `MAPRAT_WAL_DIR` | unset | write-ahead-log directory: commits fsync there before publish, replay on startup |
//! | `MAPRAT_SHED_INFLIGHT` | 4 × threads | foreground-solve watermark past which uncached explains shed with 503 |
//! | `MAPRAT_FAULTS` | unset | deterministic fault-injection schedule (testing only) |
//!
//! `--smoke` binds an ephemeral port, exercises `/api/v1/explain` through
//! the full stack via both transports — a GET query string and a POST
//! JSON body — checks they answer identically (and that the removed
//! unversioned route answers `404 unknown_route`), verifies the `X-MapRat-Cache`
//! header flips from `miss` to `hit`, commits a live rating through
//! `/api/v1/ingest` and confirms the watermark lands in `/api/v1/stats`
//! alongside the serving counters, prints the verdict and exits. Used by
//! the CI smoke job.

use maprat::core::SearchSettings;
use maprat::data::synth::{generate, SynthConfig};
use maprat::explore::PrecomputeScheduler;
use maprat::ingest::IngestService;
use maprat::server::{AppState, HttpServer};
use maprat::MapRatEngine;
use std::io::{Read, Write};
use std::sync::Arc;

/// One blocking GET against the running demo server; returns the status
/// line, headers and body. Sends `Connection: close` — the reply is
/// framed by EOF, which keep-alive would otherwise stall.
fn http_get(port: u16, target: &str) -> std::io::Result<String> {
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port))?;
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    Ok(buf)
}

/// One blocking POST with a JSON body.
fn http_post(port: u16, target: &str, body: &str) -> std::io::Result<String> {
    let mut stream = std::net::TcpStream::connect(("127.0.0.1", port))?;
    write!(
        stream,
        "POST {target} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )?;
    let mut buf = String::new();
    stream.read_to_string(&mut buf)?;
    Ok(buf)
}

fn body_of(reply: &str) -> &str {
    reply.split("\r\n\r\n").nth(1).unwrap_or("")
}

fn cache_tier(reply: &str) -> Option<&str> {
    reply
        .lines()
        .find_map(|l| l.strip_prefix("X-MapRat-Cache: "))
        .map(str::trim)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let port: u16 = if smoke {
        0
    } else {
        std::env::args()
            .nth(1)
            .and_then(|p| p.parse().ok())
            .unwrap_or(8748)
    };

    eprintln!("generating the demo dataset…");
    let dataset = generate(&SynthConfig::small(42)).expect("generation succeeds");
    eprintln!("dataset: {}", dataset.summary());
    // The engine owns the dataset behind an Arc and shares one cache
    // across clones — no 'static borrow, no Box::leak.
    let engine = MapRatEngine::from_dataset(dataset);

    eprintln!("pre-computing popular items…");
    let warm_settings = SearchSettings::builder()
        .min_coverage(0.2)
        .build()
        .expect("valid warm-up settings");
    let warmed = engine.precompute_popular(8, &warm_settings);
    eprintln!("warmed {warmed} cache entries");

    // The background scheduler keeps warming whatever visitors actually
    // ask for, on idle pool workers (foreground traffic always wins).
    let scheduler = Arc::new(PrecomputeScheduler::start(engine.clone()));
    let mut state = AppState::new(engine.clone()).with_precompute(Arc::clone(&scheduler));
    // Live ingestion is on by default for the demo; `MAPRAT_INGEST=0`
    // serves a read-only catalogue (the route then answers 404). With
    // `MAPRAT_WAL_DIR` set, commits are write-ahead logged there and
    // replayed on startup, exactly like the `maprat serve` binary.
    let ingest_enabled = !matches!(
        std::env::var("MAPRAT_INGEST").as_deref(),
        Ok("0") | Ok("false")
    );
    if ingest_enabled {
        let service = match std::env::var("MAPRAT_WAL_DIR") {
            Ok(dir) if !dir.is_empty() => {
                let (service, report) = IngestService::with_wal(engine, &dir)
                    .unwrap_or_else(|e| panic!("cannot open WAL in {dir:?}: {e}"));
                eprintln!(
                    "WAL at {dir}: replayed {} commit(s), last seq {}",
                    report.replayed, report.last_seq
                );
                service
            }
            _ => IngestService::new(engine),
        };
        state = state.with_ingest(Arc::new(service));
    }
    // Requests execute as shared-pool jobs; the accept loop admits a few
    // times the worker count and back-pressures beyond that. Keep-alive
    // connections hold their admission slot while open, so the bound is
    // also the persistent-client budget.
    let max_in_flight = 4 * maprat::core::parallel::num_threads();
    let mut server = HttpServer::start(
        &format!("127.0.0.1:{port}"),
        max_in_flight,
        state.into_handler(),
    )
    .expect("bind demo port");
    eprintln!(
        "MapRat demo listening on http://127.0.0.1:{}/",
        server.port()
    );

    if smoke {
        // GET transport.
        let target = "/api/v1/explain?q=The+Social+Network&coverage=0.1&geo=0";
        let get_reply = http_get(server.port(), target).expect("smoke GET reaches the server");
        assert!(
            get_reply.starts_with("HTTP/1.1 200"),
            "smoke GET failed: {}",
            get_reply.lines().next().unwrap_or("<empty>")
        );
        assert!(
            get_reply.contains("\"similarity\""),
            "explain payload missing interpretation tabs"
        );
        // An unwarmed query misses, and its replay hits — advertised in
        // the cache header.
        assert_eq!(cache_tier(&get_reply), Some("miss"), "{get_reply}");
        let replay = http_get(server.port(), target).expect("replay reaches the server");
        assert_eq!(cache_tier(&replay), Some("hit"), "{replay}");

        // POST transport: the same request in the canonical JSON encoding.
        let post_reply = http_post(
            server.port(),
            "/api/v1/explain",
            r#"{"query":{"terms":[{"field":"title","value":"The Social Network"}]},"settings":{"min_coverage":0.1,"require_geo":false}}"#,
        )
        .expect("smoke POST reaches the server");
        assert!(
            post_reply.starts_with("HTTP/1.1 200"),
            "smoke POST failed: {}",
            post_reply.lines().next().unwrap_or("<empty>")
        );
        assert_eq!(
            body_of(&get_reply),
            body_of(&post_reply),
            "GET and POST must answer identically"
        );

        // The unversioned routes are gone: only /api/v1 serves.
        let legacy_reply = http_get(
            server.port(),
            "/api/explain?q=The+Social+Network&coverage=0.1&geo=0",
        )
        .expect("legacy route reachable");
        assert!(
            legacy_reply.starts_with("HTTP/1.1 404")
                && body_of(&legacy_reply).contains("\"unknown_route\""),
            "legacy /api/explain must answer 404 unknown_route: {legacy_reply}"
        );

        // Live ingestion: a fresh reviewer rates a catalogue title, and
        // the committed watermark shows up in the stats payload.
        let ingest_reply = http_post(
            server.port(),
            "/api/v1/ingest",
            r#"{"ratings":[{"user":{"age":25,"gender":"F","occupation":4,"zip":94103},"item":"The Social Network","score":5,"ts":"2003-03-05"}]}"#,
        )
        .expect("smoke ingest reaches the server");
        assert!(
            ingest_reply.starts_with("HTTP/1.1 200"),
            "smoke ingest failed: {}",
            ingest_reply.lines().next().unwrap_or("<empty>")
        );
        assert!(
            body_of(&ingest_reply).contains("\"accepted\":1"),
            "ingest receipt malformed: {}",
            body_of(&ingest_reply)
        );

        // Serving-layer observability.
        let stats_reply = http_get(server.port(), "/api/v1/stats").expect("stats route reachable");
        assert!(
            stats_reply.starts_with("HTTP/1.1 200"),
            "stats failed: {}",
            stats_reply.lines().next().unwrap_or("<empty>")
        );
        let stats = body_of(&stats_reply);
        for key in [
            "result_cache",
            "snapshot_cache",
            "flights",
            "precompute",
            "partitions",
            "watermark",
        ] {
            assert!(stats.contains(key), "stats missing {key}: {stats}");
        }
        assert!(
            stats.contains("\"month\":\"2003-03\""),
            "ingest watermark missing from stats: {stats}"
        );

        eprintln!(
            "smoke OK: explain served identically via GET/POST, cache header flipped miss→hit, ingest committed, stats online"
        );
        server.shutdown();
        return;
    }

    eprintln!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
