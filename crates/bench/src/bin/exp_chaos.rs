//! Closed-loop chaos experiment — the PR 8 robustness bench.
//!
//! Three phases over the environment-selected dataset scale:
//!
//! * **WAL overhead** — the same commit schedule through a plain
//!   [`maprat_ingest::IngestService`] and a WAL-backed one; the durable
//!   path must keep at least 70% of the in-memory ingest throughput.
//! * **Overload shedding** — first a saturated server (watermark 0)
//!   where every cold request must answer `503 + Retry-After` while a
//!   pre-warmed cached key keeps serving `200`; then a bounded-admission
//!   server (watermark = worker count) under 4x overload, measuring the
//!   accepted cold-explain tail.
//! * **Crash/restart cycles** — this binary re-spawns itself as a crash
//!   child (`--crash-child <dir>`) with `MAPRAT_FAULTS` armed to abort
//!   mid-commit (after the log write, mid-frame, after publish) while a
//!   reader races explains. The parent replays the WAL onto a fresh
//!   base and checks **zero acknowledged-write loss** and byte-identical
//!   explanations against an uncrashed serial oracle, timing recovery.
//!
//! Run: `cargo run --release -p maprat-bench --bin exp_chaos --
//! [--commits N] [--batch N] [--cycles N] [out.json]` (defaults:
//! 8 commits x 256 ratings, 3 crash cycles, output `BENCH_pr8.json`).
//! `--check` enforces the shape contract; `--baseline <committed.json>
//! [--max-regress R]` gates the latency-shaped keys against a committed
//! snapshot.

use maprat_bench::args::{unmatched_flag, usage_error, value};
use maprat_bench::gate::GateArgs;
use maprat_bench::timing::{ms, percentile, tail};
use maprat_bench::{dataset_arc, Scale, ShapeCheck};
use maprat_core::query::ItemQuery;
use maprat_core::{parallel, SearchSettings};
use maprat_data::synth::{generate, SynthConfig};
use maprat_data::{AgeGroup, Gender, MonthKey, Occupation, Score, Timestamp, Zip};
use maprat_explore::MapRatEngine;
use maprat_ingest::{IngestBuffer, IngestService, ItemSpec, NewUser, RatingEvent, UserSpec};
use maprat_server::{AppState, HttpServer};
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency metrics the CI perf gate fails on; throughput and shed
/// rate are machine/load-dependent and only archived.
const GATED_KEYS: [&str; 2] = ["accepted_explain_p99_ms", "recovery_p50_ms"];

/// Deterministic base for the crash cycles — independent of the bench
/// scale so the child and the parent's oracle always agree.
const CRASH_SEED: u64 = 4242;
const CRASH_COMMITS: usize = 4;
const CRASH_BATCH: usize = 32;

fn commit_buffer(commit: usize, batch: usize) -> IngestBuffer {
    let mut buffer = IngestBuffer::new();
    let month = (0..commit).fold(MonthKey::new(2003, 3), |m, _| m.succ());
    let (year, month) = (month.year(), month.month());
    for k in 0..batch {
        buffer
            .push(RatingEvent {
                user: UserSpec::New(NewUser {
                    age: AgeGroup::From25To34,
                    gender: if k % 2 == 0 {
                        Gender::Female
                    } else {
                        Gender::Male
                    },
                    occupation: Occupation::Programmer,
                    zip: Zip::new(90_000 + (commit * batch + k) as u32 % 9_000),
                }),
                item: ItemSpec::ByTitle(if k % 2 == 0 { "Jaws" } else { "Toy Story" }.into()),
                score: Score::new(1 + ((commit + k) % 5) as u8).unwrap(),
                ts: Timestamp::from_ymd(year as i64, month, 1 + (k % 28) as u32),
            })
            .unwrap();
    }
    buffer
}

/// Commits `commits` batches through `service`, returning ratings/sec.
fn drive_commits(service: &IngestService, commits: usize, batch: usize) -> f64 {
    let start = Instant::now();
    for c in 0..commits {
        let receipt = service.commit(commit_buffer(c, batch)).expect("commit");
        assert_eq!(receipt.accepted, batch);
    }
    (commits * batch) as f64 / start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------- crash child

/// The crash child: a WAL-backed service over the fixed tiny base,
/// committing the deterministic schedule while a reader races explains,
/// until the `MAPRAT_FAULTS` schedule (set by the parent) aborts us.
fn run_crash_child(dir: &str) -> ! {
    let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(CRASH_SEED)).unwrap());
    let (service, _) = IngestService::with_wal(engine.clone(), dir).expect("open WAL");
    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let query = ItemQuery::title("Toy Story");
            let mut k = 0u64;
            while !done.load(Ordering::SeqCst) {
                let settings = SearchSettings::default().with_min_coverage(0.1 + k as f64 * 1e-6);
                let _ = engine.explain_query(&query, &settings);
                k += 1;
            }
        })
    };
    let mut out = std::io::stdout();
    for c in 0..CRASH_COMMITS {
        let receipt = service
            .commit(commit_buffer(c, CRASH_BATCH))
            .expect("child commit");
        writeln!(out, "ACK {}", receipt.seq).unwrap();
        out.flush().unwrap();
    }
    done.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    std::process::exit(0)
}

struct CrashCycle {
    acked: usize,
    replayed: u64,
    recovery: Duration,
    oracle_identical: bool,
}

/// One crash/restart cycle: spawn the child under `faults`, then replay
/// its WAL onto a fresh base and diff against the serial oracle.
fn run_crash_cycle(tag: usize, faults: &str) -> CrashCycle {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("maprat-chaos-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL dir");
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--crash-child", dir.to_str().unwrap()])
        .env("MAPRAT_FAULTS", faults)
        .output()
        .expect("spawn crash child");
    assert!(
        !out.status.success(),
        "{faults}: the armed fault never fired — the child exited cleanly"
    );
    let acked = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| l.starts_with("ACK "))
        .count();

    let start = Instant::now();
    let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(CRASH_SEED)).unwrap());
    let (service, report) = IngestService::with_wal(engine, &dir).expect("recovery replay");
    let recovery = start.elapsed();
    assert!(
        report.replayed >= acked as u64,
        "{faults}: acknowledged writes lost ({acked} ACKed, {} replayed)",
        report.replayed
    );

    // Serial oracle: the same commit prefix through an uncrashed,
    // non-durable service must explain byte-identically.
    let oracle = IngestService::new(MapRatEngine::from_dataset(
        generate(&SynthConfig::tiny(CRASH_SEED)).unwrap(),
    ));
    for c in 0..report.replayed as usize {
        oracle
            .commit(commit_buffer(c, CRASH_BATCH))
            .expect("oracle");
    }
    let recovered = service.engine().dataset();
    let expected = oracle.engine().dataset();
    let settings = SearchSettings::default()
        .with_require_geo(false)
        .with_min_coverage(0.1);
    let query = ItemQuery::title("Toy Story");
    let a = service.engine().explain_query(&query, &settings);
    let b = oracle.engine().explain_query(&query, &settings);
    let oracle_identical = recovered.ratings().eq(expected.ratings())
        && recovered.users().len() == expected.users().len()
        && recovered.items().len() == expected.items().len()
        && match (&*a, &*b) {
            (Ok(x), Ok(y)) => format!("{:?}", x.explanation) == format!("{:?}", y.explanation),
            _ => false,
        };
    let _ = std::fs::remove_dir_all(&dir);
    CrashCycle {
        acked,
        replayed: report.replayed,
        recovery,
        oracle_identical,
    }
}

// ------------------------------------------------------------- overload phase

struct OverloadOutcome {
    shed: usize,
    accepted: Vec<Duration>,
    missing_retry_after: usize,
    warm_failures: usize,
}

fn http_get(port: u16, target: &str) -> (u16, bool) {
    let mut stream = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    write!(
        stream,
        "GET {target} HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n"
    )
    .expect("send");
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).expect("read");
    let text = String::from_utf8_lossy(&buf);
    let status: u16 = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text.contains("Retry-After: "))
}

/// Saturates the server with `clients` closed loops of cold explains
/// (every 5th request re-reads the pre-warmed key, which must never be
/// shed). Returns shed/accepted tallies and accepted latencies.
fn run_overload(port: u16, clients: usize, per_client: usize, warm: &str) -> OverloadOutcome {
    let handles: Vec<_> = (0..clients)
        .map(|c| {
            let warm = warm.to_string();
            std::thread::spawn(move || {
                let mut shed = 0usize;
                let mut missing_retry = 0usize;
                let mut warm_failures = 0usize;
                let mut accepted = Vec::new();
                for k in 0..per_client {
                    let warm_turn = k % 5 == 4;
                    let cold = format!(
                        "/api/v1/explain?q=Toy+Story&geo=0&coverage=0.1{:04}{:02}",
                        k, c
                    );
                    let target = if warm_turn {
                        warm.as_str()
                    } else {
                        cold.as_str()
                    };
                    let start = Instant::now();
                    let (status, retry_after) = http_get(port, target);
                    match status {
                        503 => {
                            shed += 1;
                            if !retry_after {
                                missing_retry += 1;
                            }
                            if warm_turn {
                                warm_failures += 1;
                            }
                        }
                        200 => accepted.push(start.elapsed()),
                        _ if warm_turn => warm_failures += 1,
                        _ => {}
                    }
                }
                (shed, accepted, missing_retry, warm_failures)
            })
        })
        .collect();
    let mut outcome = OverloadOutcome {
        shed: 0,
        accepted: Vec::new(),
        missing_retry_after: 0,
        warm_failures: 0,
    };
    for h in handles {
        let (shed, accepted, missing, warm_failures) = h.join().unwrap();
        outcome.shed += shed;
        outcome.accepted.extend(accepted);
        outcome.missing_retry_after += missing;
        outcome.warm_failures += warm_failures;
    }
    outcome.accepted.sort_unstable();
    outcome
}

const BIN: &str = "exp_chaos";
const USAGE: &str = "usage: exp_chaos [--commits N] [--batch N] [--cycles N] [--check] \
[--baseline committed.json [--max-regress R]] [out.json]";

fn main() {
    // Child mode first: everything else in this binary must not run.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = argv.iter().position(|a| a == "--crash-child") {
        run_crash_child(argv.get(i + 1).expect("--crash-child <dir>"));
    }

    let mut commits = 8usize;
    let mut batch = 256usize;
    let mut cycles = 3usize;
    let mut out_path = "BENCH_pr8.json".to_string();
    let mut gate = GateArgs::new(0.5);
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        if gate
            .accept(&arg, &mut args)
            .unwrap_or_else(|e| usage_error(BIN, &e))
        {
            continue;
        }
        match arg.as_str() {
            "--commits" => commits = value(BIN, &arg, &mut args),
            "--batch" => batch = value(BIN, &arg, &mut args),
            "--cycles" => cycles = value(BIN, &arg, &mut args),
            "--check" => {}
            bare if !bare.starts_with("--") => out_path = bare.to_string(),
            flag => unmatched_flag(BIN, USAGE, flag),
        }
    }
    let commits = commits.max(1);
    let batch = batch.max(1);
    let cycles = cycles.max(1);
    let threads = parallel::num_threads();

    println!("== TXT-CHAOS: WAL durability, load shedding, crash/restart ==");
    println!(
        "scale={} threads={threads} commits={commits} batch={batch} cycles={cycles}",
        Scale::from_env().name()
    );

    // Phase A — WAL overhead: identical commit schedules, with and
    // without the write-ahead log (fsync per commit).
    let nowal = IngestService::new(MapRatEngine::new(dataset_arc()));
    let nowal_rps = drive_commits(&nowal, commits, batch);
    let wal_dir = std::env::temp_dir().join(format!("maprat-chaos-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    std::fs::create_dir_all(&wal_dir).expect("create WAL dir");
    let (wal_svc, _) =
        IngestService::with_wal(MapRatEngine::new(dataset_arc()), &wal_dir).expect("open WAL");
    let wal_rps = drive_commits(&wal_svc, commits, batch);
    let wal_stats = wal_svc.wal_stats().expect("WAL attached");
    drop(wal_svc);
    let _ = std::fs::remove_dir_all(&wal_dir);
    let wal_ratio = wal_rps / nowal_rps;
    println!(
        "ingest throughput: nowal={nowal_rps:.0} r/s  wal={wal_rps:.0} r/s  ratio={wal_ratio:.3} ({} segment(s))",
        wal_stats.segments
    );

    // Phase B1 — shed correctness. Two servers over ONE engine: the
    // admitting one warms the cache, the saturated one (watermark 0)
    // must shed every cold request yet keep serving the cached key.
    let engine = MapRatEngine::new(dataset_arc());
    let warm_target = "/api/v1/explain?q=Toy+Story&geo=0&coverage=0.2";
    let admit_srv = HttpServer::start(
        "127.0.0.1:0",
        4,
        AppState::new(engine.clone()).into_handler(),
    )
    .expect("bind");
    let shed_srv = HttpServer::start(
        "127.0.0.1:0",
        4,
        AppState::new(engine.clone())
            .with_shed_watermark(0)
            .into_handler(),
    )
    .expect("bind");
    let (warm_status, _) = http_get(admit_srv.port(), warm_target);
    assert_eq!(warm_status, 200, "pre-warm request must serve quietly");
    let (mut cold_shed, mut cold_missing_retry, mut warm_ok) = (0usize, 0usize, 0usize);
    for k in 0..20 {
        let cold = format!("/api/v1/explain?q=Toy+Story&geo=0&coverage=0.15{k:03}");
        let (status, retry_after) = http_get(shed_srv.port(), &cold);
        if status == 503 {
            cold_shed += 1;
            if !retry_after {
                cold_missing_retry += 1;
            }
        }
    }
    for _ in 0..5 {
        if http_get(shed_srv.port(), warm_target).0 == 200 {
            warm_ok += 1;
        }
    }
    println!(
        "saturated server: {cold_shed}/20 cold requests shed, {warm_ok}/5 cached requests served"
    );
    drop(shed_srv);
    drop(admit_srv);

    // Phase B2 — accepted tail under 4x overload with a real watermark.
    let engine = MapRatEngine::new(dataset_arc());
    let watermark = threads.max(1);
    let state = AppState::new(engine.clone()).with_shed_watermark(watermark);
    let server =
        HttpServer::start("127.0.0.1:0", 4 * watermark, state.into_handler()).expect("bind");
    let (warm_status, _) = http_get(server.port(), warm_target);
    assert_eq!(warm_status, 200, "pre-warm request must serve quietly");
    let overload = run_overload(server.port(), 4 * watermark, 25, warm_target);
    let shed_total = cold_shed + overload.shed;
    let request_total = 25 + shed_total + overload.accepted.len() + warm_ok;
    let shed_rate = shed_total as f64 / request_total.max(1) as f64;
    let accepted_tail = tail(&overload.accepted);
    let accepted_p99 = percentile(&overload.accepted, 99.0).as_secs_f64() * 1e3;
    println!(
        "overload (watermark {watermark}, {} clients): {} shed, {} accepted, p50={} ms p99={accepted_p99:.4} ms",
        4 * watermark,
        overload.shed,
        overload.accepted.len(),
        ms(accepted_tail.p50)
    );
    drop(server);

    // Phase C — crash/restart cycles across the abort sites.
    let sites = [
        "ingest.commit.post-log",
        "wal.torn",
        "ingest.commit.post-publish",
    ];
    let mut crash = Vec::with_capacity(cycles);
    for i in 0..cycles {
        let at = 2 + i % (CRASH_COMMITS - 1);
        let faults = format!("seed:{},{}@{at}", i + 1, sites[i % sites.len()]);
        let cycle = run_crash_cycle(i, &faults);
        println!(
            "crash cycle {i} ({faults}): {} ACKed, {} replayed, recovery {} ms, oracle identical: {}",
            cycle.acked,
            cycle.replayed,
            ms(cycle.recovery),
            cycle.oracle_identical
        );
        crash.push(cycle);
    }
    let mut recoveries: Vec<Duration> = crash.iter().map(|c| c.recovery).collect();
    recoveries.sort_unstable();
    let recovery_p50 = recoveries[recoveries.len() / 2];
    let recovery_max = *recoveries.last().unwrap();
    let acked_total: usize = crash.iter().map(|c| c.acked).sum();
    let replayed_total: u64 = crash.iter().map(|c| c.replayed).sum();
    let zero_ack_loss = crash.iter().all(|c| c.replayed >= c.acked as u64);
    let oracle_identical = crash.iter().all(|c| c.oracle_identical);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"snapshot\": \"pr8-chaos\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", Scale::from_env().name());
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"commits\": {commits},");
    let _ = writeln!(json, "  \"batch\": {batch},");
    let _ = writeln!(json, "  \"nowal_ingest_ratings_per_sec\": {nowal_rps:.2},");
    let _ = writeln!(json, "  \"wal_ingest_ratings_per_sec\": {wal_rps:.2},");
    let _ = writeln!(json, "  \"wal_throughput_ratio\": {wal_ratio:.4},");
    let _ = writeln!(json, "  \"shed_watermark\": {watermark},");
    let _ = writeln!(json, "  \"shed_requests\": {shed_total},");
    let _ = writeln!(
        json,
        "  \"accepted_requests\": {},",
        overload.accepted.len()
    );
    let _ = writeln!(json, "  \"shed_rate\": {shed_rate:.4},");
    let _ = writeln!(
        json,
        "  \"accepted_explain_p50_ms\": {},",
        ms(accepted_tail.p50)
    );
    let _ = writeln!(json, "  \"accepted_explain_p99_ms\": {accepted_p99:.4},");
    let _ = writeln!(json, "  \"crash_cycles\": {cycles},");
    let _ = writeln!(json, "  \"acked_total\": {acked_total},");
    let _ = writeln!(json, "  \"replayed_total\": {replayed_total},");
    let _ = writeln!(json, "  \"recovery_p50_ms\": {},", ms(recovery_p50));
    let _ = writeln!(json, "  \"recovery_max_ms\": {},", ms(recovery_max));
    let _ = writeln!(json, "  \"zero_ack_loss\": {zero_ack_loss},");
    let _ = writeln!(json, "  \"oracle_identical\": {oracle_identical}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write chaos snapshot");
    println!("wrote {out_path}");

    let mut check = ShapeCheck::new();
    if Scale::from_env().name() == "tiny" {
        // Tiny commits finish in microseconds, so the per-commit fsync
        // dominates and the ratio is meaningless; just require the
        // durable path to function.
        check.expect("WAL ingest path functions at tiny scale", wal_ratio > 0.0);
    } else {
        check.expect(
            "WAL keeps at least 70% of in-memory ingest throughput",
            wal_ratio >= 0.7,
        );
    }
    check.expect(
        "the saturated server shed every cold request",
        cold_shed == 20,
    );
    check.expect(
        "every shed response carried Retry-After",
        cold_missing_retry == 0 && overload.missing_retry_after == 0,
    );
    check.expect(
        "the cached key kept serving through the saturated server",
        warm_ok == 5 && overload.warm_failures == 0,
    );
    check.expect(
        "accepted requests made progress under 4x overload",
        overload.accepted.len() >= 4 * watermark,
    );
    check.expect("zero acknowledged-write loss across crashes", zero_ack_loss);
    check.expect(
        "recovered explanations are byte-identical to the oracle",
        oracle_identical,
    );
    check.finish();

    gate.enforce(&json, &GATED_KEYS, 30);
}
