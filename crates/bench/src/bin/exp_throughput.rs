//! Closed-loop HTTP load generator for the production serving layer: the
//! PR 4 acceptance experiment, upgraded in PR 6 to persistent keep-alive
//! connections.
//!
//! Boots the demo server (engine + bounded-concurrency accept loop over
//! the shared worker pool) on an ephemeral port, then drives it with
//! `clients` closed-loop client threads — each holds ONE keep-alive
//! connection and issues its next request only after the previous one
//! answered — mixing *cold* explains (every request carries a unique
//! `coverage` value, so every one is a full mining solve) with *cached*
//! repeats of one pre-warmed query. Responses are framed by
//! `Content-Length` (EOF framing would serialize on the idle timeout).
//! Reports p50/p95/p99 per class, single-client vs concurrent, plus
//! closed-loop throughput, and writes the `BENCH_pr6_throughput.json`
//! snapshot.
//!
//! Run: `cargo run --release -p maprat-bench --bin exp_throughput --
//! [--clients N] [--requests N] [--cached-every K] [out.json]`
//! (defaults: 4 clients × 32 requests, every 4th request cached, output
//! `BENCH_pr6_throughput.json`). `--check` additionally enforces the
//! shape contract (all responses 200, cached responses byte-identical,
//! each client's connection reused throughout) and exits non-zero on
//! violation — the CI smoke mode.

use maprat_bench::args::{unmatched_flag, value};
use maprat_bench::timing::{ms, percentile, tail};
use maprat_bench::{dataset_arc, Scale, ShapeCheck};
use maprat_core::parallel;
use maprat_explore::MapRatEngine;
use maprat_server::{AppState, HttpServer};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One persistent keep-alive connection: requests are written to the
/// shared stream and responses framed by `Content-Length`, so the
/// connection survives across the whole closed loop (no per-request
/// TCP handshake in the measured path).
struct KeepAliveClient {
    reader: BufReader<TcpStream>,
    /// Reconnects performed after the initial connect (0 = the whole
    /// run rode one connection).
    reconnects: usize,
    port: u16,
}

impl KeepAliveClient {
    fn connect(port: u16) -> Self {
        let stream = TcpStream::connect(("127.0.0.1", port)).expect("connect to load target");
        // Latency-bound request/response traffic: Nagle + delayed ACK
        // would add ~40 ms per extra small segment on loopback.
        let _ = stream.set_nodelay(true);
        KeepAliveClient {
            reader: BufReader::new(stream),
            reconnects: 0,
            port,
        }
    }

    /// One GET on the persistent connection; transparently reconnects if
    /// the server closed it (idle timeout, shutdown race).
    fn get(&mut self, target: &str) -> (u16, String) {
        match self.try_get(target) {
            Some(reply) => reply,
            None => {
                let reconnects = self.reconnects + 1;
                *self = KeepAliveClient::connect(self.port);
                self.reconnects = reconnects;
                self.try_get(target).expect("request after reconnect")
            }
        }
    }

    /// One POST on the persistent connection (the batch phase);
    /// reconnects transparently like [`KeepAliveClient::get`].
    fn post(&mut self, target: &str, body: &str) -> (u16, String) {
        let request = format!(
            "POST {target} HTTP/1.1\r\nHost: l\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        match self.try_request(&request) {
            Some(reply) => reply,
            None => {
                let reconnects = self.reconnects + 1;
                *self = KeepAliveClient::connect(self.port);
                self.reconnects = reconnects;
                self.try_request(&request).expect("request after reconnect")
            }
        }
    }

    fn try_get(&mut self, target: &str) -> Option<(u16, String)> {
        // One write_all per request: `write!` straight to the stream
        // would emit one segment per format fragment.
        self.try_request(&format!("GET {target} HTTP/1.1\r\nHost: l\r\n\r\n"))
    }

    fn try_request(&mut self, request: &str) -> Option<(u16, String)> {
        self.reader.get_mut().write_all(request.as_bytes()).ok()?;
        // Status line.
        let mut line = String::new();
        if self.reader.read_line(&mut line).ok()? == 0 {
            return None; // server closed the connection
        }
        let status: u16 = line.split_whitespace().nth(1)?.parse().ok()?;
        // Headers — Content-Length frames the body.
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).ok()?;
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some(v) = header
                .to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::trim)
                .and_then(|v| v.parse().ok())
            {
                content_length = v;
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body).ok()?;
        Some((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

/// The cold-explain target for global request number `i`: a unique
/// `coverage` value per request makes every one a distinct cache key —
/// a full mining solve — while keeping the problem difficulty constant.
fn cold_target(i: usize) -> String {
    format!(
        "/api/v1/explain?q=Toy+Story&coverage=0.{:07}&geo=0",
        1_000_000 + i
    )
}

/// The pre-warmed cached target.
const CACHED_TARGET: &str = "/api/v1/explain?q=Toy+Story&coverage=0.2&geo=0";

/// The 8-query "precompute set" for the batch phase: the seven planted
/// titles plus one actor filmography, all under identical settings.
const BATCH_TITLES: [&str; 7] = [
    "Toy Story",
    "Jaws",
    "Forrest Gump",
    "Minority Report",
    "Saving Private Ryan",
    "The Social Network",
    "The Twilight Saga: Eclipse",
];

/// The batch set as a `POST /api/v1/explain/batch` body.
fn batch_body() -> String {
    let mut members: Vec<String> = BATCH_TITLES
        .iter()
        .map(|t| {
            format!(
                r#"{{"query":{{"terms":[{{"field":"title","value":"{t}"}}]}},"settings":{{"min_coverage":0.15,"require_geo":false}}}}"#
            )
        })
        .collect();
    members.push(
        r#"{"query":{"terms":[{"field":"actor","value":"Tom Hanks"}]},"settings":{"min_coverage":0.15,"require_geo":false}}"#
            .to_string(),
    );
    format!(r#"{{"requests":[{}]}}"#, members.join(","))
}

/// The batch set as sequential single-explain GET targets.
fn batch_get_targets() -> Vec<String> {
    let mut targets: Vec<String> = BATCH_TITLES
        .iter()
        .map(|t| {
            format!(
                "/api/v1/explain?q={}&coverage=0.15&geo=0",
                t.replace(' ', "+")
            )
        })
        .collect();
    targets.push("/api/v1/explain?q=Tom+Hanks&type=actor&coverage=0.15&geo=0".to_string());
    targets
}

/// Latencies of one client's run, split by class.
#[derive(Default)]
struct ClientRun {
    cold: Vec<Duration>,
    cached: Vec<Duration>,
    cached_bodies: Vec<String>,
    non_200: usize,
    reconnects: usize,
}

/// One closed-loop client on one keep-alive connection: `requests`
/// requests, every `cached_every`-th against the warm target, the rest
/// cold (unique keys off the global counter).
fn run_client(port: u16, requests: usize, cached_every: usize, counter: &AtomicUsize) -> ClientRun {
    let mut client = KeepAliveClient::connect(port);
    let mut run = ClientRun::default();
    for r in 0..requests {
        let cached = cached_every != 0 && r % cached_every == cached_every - 1;
        let target = if cached {
            CACHED_TARGET.to_string()
        } else {
            cold_target(counter.fetch_add(1, Ordering::Relaxed))
        };
        let start = Instant::now();
        let (status, body) = client.get(&target);
        let elapsed = start.elapsed();
        if status != 200 {
            run.non_200 += 1;
            continue;
        }
        if cached {
            run.cached.push(elapsed);
            run.cached_bodies.push(body);
        } else {
            run.cold.push(elapsed);
        }
    }
    run.reconnects = client.reconnects;
    run
}

fn tail_line(label: &str, sorted: &[Duration]) -> String {
    if sorted.is_empty() {
        return format!("{label:<28} —");
    }
    let t = tail(sorted);
    format!(
        "{label:<28} n={:<4} p50={:>9} ms  p95={:>9} ms  p99={:>9} ms",
        sorted.len(),
        ms(t.p50),
        ms(t.p95),
        ms(t.p99)
    )
}

const BIN: &str = "exp_throughput";
const USAGE: &str =
    "usage: exp_throughput [--clients N] [--requests N] [--cached-every K] [--check] [out.json]";

fn main() {
    let mut clients = 4usize;
    let mut requests = 32usize;
    let mut cached_every = 4usize;
    let mut out_path = "BENCH_pr6_throughput.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--clients" => clients = value(BIN, &arg, &mut args),
            "--requests" => requests = value(BIN, &arg, &mut args),
            "--cached-every" => cached_every = value(BIN, &arg, &mut args),
            "--check" => {}
            bare if !bare.starts_with("--") => out_path = bare.to_string(),
            flag => unmatched_flag(BIN, USAGE, flag),
        }
    }
    let clients = clients.max(1);
    let requests = requests.max(1);
    let threads = parallel::num_threads();

    println!("== TXT-THROUGHPUT: closed-loop keep-alive load against the serving layer ==");
    println!(
        "scale={} threads={threads} clients={clients} requests/client={requests} cached-every={cached_every}",
        Scale::from_env().name()
    );

    let engine = MapRatEngine::new(dataset_arc());
    let state = AppState::new(engine.clone());
    // Keep-alive connections hold their admission slot while open, so
    // the bound must cover every persistent client plus the warm-up
    // connection.
    let max_in_flight = (clients + 2).max(threads);
    let server = HttpServer::start("127.0.0.1:0", max_in_flight, state.into_handler())
        .expect("bind load target");
    let port = server.port();

    // Pre-warm the cached target so its class measures pure cache+HTTP.
    let mut warm_client = KeepAliveClient::connect(port);
    let (warm_status, warm_body) = warm_client.get(CACHED_TARGET);
    assert_eq!(warm_status, 200, "warm-up request must succeed");
    drop(warm_client); // release its admission slot before the load phase

    // Phase 1 — single-client baseline (all cold) on one connection.
    let counter = AtomicUsize::new(0);
    let single = run_client(port, requests, 0, &counter);
    let mut single_cold = single.cold.clone();
    single_cold.sort_unstable();

    // Phase 2 — concurrent closed loop. The client threads are the load
    // generator (external actors), not server-side workers: the server
    // handles them entirely on the shared pool. The key counter resumes
    // where phase 1 stopped, so no "cold" request can reuse a phase-1
    // cache key regardless of --requests.
    let counter = Arc::new(AtomicUsize::new(requests));
    let wall_start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || run_client(port, requests, cached_every, &counter))
        })
        .collect();
    let runs: Vec<ClientRun> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = wall_start.elapsed();

    let mut cold: Vec<Duration> = runs.iter().flat_map(|r| r.cold.iter().copied()).collect();
    let mut cached: Vec<Duration> = runs.iter().flat_map(|r| r.cached.iter().copied()).collect();
    let non_200: usize = runs.iter().map(|r| r.non_200).sum();
    let reconnects: usize = runs.iter().map(|r| r.reconnects).sum::<usize>() + single.reconnects;
    cold.sort_unstable();
    cached.sort_unstable();
    let total_requests = cold.len() + cached.len();
    let throughput = total_requests as f64 / wall.as_secs_f64();

    println!("{}", tail_line("single-client cold", &single_cold));
    println!("{}", tail_line(&format!("{clients}-client cold"), &cold));
    println!(
        "{}",
        tail_line(&format!("{clients}-client cached"), &cached)
    );
    println!(
        "closed-loop throughput: {total_requests} requests in {} ms = {throughput:.1} req/s (non-200: {non_200}, reconnects: {reconnects})",
        ms(wall)
    );

    let single_p95 = percentile(&single_cold, 95.0).as_secs_f64() * 1e3;
    let concurrent_p95 = percentile(&cold, 95.0).as_secs_f64() * 1e3;
    let p95_ratio = concurrent_p95 / single_p95.max(1e-9);
    println!(
        "cold p95 under {clients}-client load / single-client p95 = {p95_ratio:.2}× \
         (pool shares {threads} worker(s) across requests)"
    );

    // Phase 3 — one batch request vs 8 sequential explains over the same
    // 8-query precompute set. Both runs start from a cleared cache (8
    // fresh solves each); the batch fans its members out over the worker
    // pool where the sequential loop solves them one after another.
    engine.clear_cache();
    let mut batch_client = KeepAliveClient::connect(port);
    let seq_start = Instant::now();
    let mut seq_ok = true;
    for target in batch_get_targets() {
        let (status, body) = batch_client.get(&target);
        seq_ok &= status == 200;
        if status != 200 {
            eprintln!("[exp_throughput] sequential {target} -> {status}: {body}");
        }
    }
    let sequential8 = seq_start.elapsed();
    engine.clear_cache();
    let body = batch_body();
    let batch_start = Instant::now();
    let (batch_status, batch_reply) = batch_client.post("/api/v1/explain/batch", &body);
    let batch8 = batch_start.elapsed();
    drop(batch_client);
    let batch_slots_ok = maprat_server::Json::parse(&batch_reply)
        .ok()
        .and_then(|v| {
            let results = v.get("results")?.clone();
            let n = results.len()?;
            Some(n == 8 && (0..n).all(|i| results.at(i).is_some_and(|s| s.get("result").is_some())))
        })
        .unwrap_or(false);
    let batch8_ms = batch8.as_secs_f64() * 1e3;
    let sequential8_ms = sequential8.as_secs_f64() * 1e3;
    let batch_speedup = sequential8_ms / batch8_ms.max(1e-9);
    println!(
        "batch (8 queries): batch={batch8_ms:.1} ms vs sequential={sequential8_ms:.1} ms = {batch_speedup:.2}x \
         (8 standalone solves fanned out over {threads} worker(s) vs one at a time)"
    );

    let cached_tail = tail(&cached);
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"snapshot\": \"pr6-keepalive-throughput\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", Scale::from_env().name());
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"requests_per_client\": {requests},");
    let _ = writeln!(json, "  \"cached_every\": {cached_every},");
    let t = tail(&single_cold);
    let _ = writeln!(json, "  \"single_cold_p50_ms\": {},", ms(t.p50));
    let _ = writeln!(json, "  \"single_cold_p95_ms\": {},", ms(t.p95));
    let _ = writeln!(json, "  \"single_cold_p99_ms\": {},", ms(t.p99));
    let t = tail(&cold);
    let _ = writeln!(json, "  \"concurrent_cold_p50_ms\": {},", ms(t.p50));
    let _ = writeln!(json, "  \"concurrent_cold_p95_ms\": {},", ms(t.p95));
    let _ = writeln!(json, "  \"concurrent_cold_p99_ms\": {},", ms(t.p99));
    let _ = writeln!(
        json,
        "  \"concurrent_cached_p50_ms\": {},",
        ms(cached_tail.p50)
    );
    let _ = writeln!(
        json,
        "  \"concurrent_cached_p95_ms\": {},",
        ms(cached_tail.p95)
    );
    let _ = writeln!(
        json,
        "  \"concurrent_cached_p99_ms\": {},",
        ms(cached_tail.p99)
    );
    let _ = writeln!(
        json,
        "  \"cold_p95_ratio_concurrent_over_single\": {p95_ratio:.4},"
    );
    let _ = writeln!(json, "  \"throughput_rps\": {throughput:.2},");
    let _ = writeln!(json, "  \"batch8_ms\": {batch8_ms:.4},");
    let _ = writeln!(json, "  \"sequential8_ms\": {sequential8_ms:.4},");
    let _ = writeln!(json, "  \"batch_speedup\": {batch_speedup:.4},");
    let _ = writeln!(json, "  \"reconnects\": {reconnects},");
    let _ = writeln!(json, "  \"non_200\": {non_200}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write throughput snapshot");
    println!("wrote {out_path}");

    let mut check = ShapeCheck::new();
    check.expect("every request answered 200", non_200 == 0);
    check.expect(
        "single-client baseline has the full cold sample",
        single_cold.len() == requests,
    );
    check.expect(
        "concurrent phase produced both classes",
        !cold.is_empty() && (cached_every == 0 || !cached.is_empty()),
    );
    check.expect(
        "cached responses byte-identical across clients",
        runs.iter()
            .flat_map(|r| r.cached_bodies.iter())
            .all(|body| *body == warm_body),
    );
    check.expect(
        "keep-alive held: no client needed to reconnect",
        reconnects == 0,
    );
    check.expect("throughput is finite and positive", throughput > 0.0);
    check.expect(
        "sequential precompute-set explains all answered 200",
        seq_ok,
    );
    check.expect(
        "batch endpoint answered 200 with 8 ok slots",
        batch_status == 200 && batch_slots_ok,
    );
    check.finish();
}
