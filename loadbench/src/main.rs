//! Load benchmark for `maprat serve` (see `loadbench/README.md`).
//!
//! `loadbench --workload W --seed N --seconds S --trace 0|1` generates the
//! seed's dataset, boots the server over it, drives workload `W` over
//! keep-alive HTTP, checks every response, and prints each metric by name
//! with its unit; the last line is one JSON object. With `--trace 1` it
//! also replays the same stream against an in-process traced server and
//! reports the per-layer breakdown instead. `loadbench spread` repeats
//! runs in rotated order and checks their spread against
//! `BENCHMARK.json`.

mod client;
mod drive;
mod server;
mod spread;
mod stats;
mod stream;
mod trace;

use drive::Outcome;
use maprat_server::Json;
use server::{Env, Server};
use stats::{median, Summary};
use std::process::ExitCode;
use std::sync::Arc;
use stream::{Class, Plan, Workload};

/// Server boots per run; `setup_s` is their median.
const BOOTS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ColdCatalogue,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = matches!(value.as_str(), "1" | "true"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload =
        workload.ok_or("--workload is required (cold_catalogue|hot_session|ingest_mixed)")?;
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("spread") => spread::main(&argv[1..]),
        _ => parse(&argv).and_then(|a| run(&a)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The session stream of a workload.
fn sessions(plan: &Arc<Plan>) -> drive::MakeSession {
    let plan = Arc::clone(plan);
    Arc::new(move |i| plan.session(i))
}

/// One untraced run against the spawned server.
pub struct Untraced {
    pub setups: Vec<f64>,
    pub outcome: Outcome,
    pub rss_mib: f64,
    pub wal_bytes: u64,
}

fn untraced(
    env: &Env,
    data: &std::path::Path,
    plan: &Arc<Plan>,
    seconds: f64,
) -> Result<Untraced, String> {
    let wal = plan.workload == Workload::IngestMixed;
    let mut setups = Vec::new();
    let mut booted = None;
    for i in 0..BOOTS {
        // Each boot starts from an empty WAL, so none replays commits.
        let wal_dir = if wal {
            Some(env.fresh(&format!("wal-{i}"))?)
        } else {
            None
        };
        drop(booted.take()); // stop the previous server before timing the next boot
        let (server, setup) = Server::boot(env, data, wal_dir.as_deref())?;
        setups.push(setup);
        booted = Some((server, wal_dir));
    }
    let (server, wal_dir) = booted.expect("at least one boot");
    let mut outcome = drive::drive(server.addr, plan.warmup(), sessions(plan), seconds);
    final_checks(&server, plan.workload, &mut outcome)?;
    let rss_mib = server.peak_rss_mib()?;
    drop(server);
    let wal_bytes = wal_dir.as_deref().map(server::dir_bytes).unwrap_or(0);
    Ok(Untraced {
        setups,
        outcome,
        rss_mib,
        wal_bytes,
    })
}

/// The end-of-run checks on `/api/v1/stats` and the served labels.
fn final_checks(server: &Server, workload: Workload, out: &mut Outcome) -> Result<(), String> {
    let reply = client::Conn::new(server.addr).send("GET", "/api/v1/stats", "", 0)?;
    let stats =
        Json::parse(&String::from_utf8_lossy(&reply.body)).map_err(|e| format!("stats: {e}"))?;
    let num = |path: &[&str]| {
        let mut v = &stats;
        for key in path {
            v = v.get(key)?;
        }
        v.as_f64()
    };
    if num(&["approx", "served"]) != Some(0.0) {
        out.fail("approximate answers were served".into());
    }
    if workload == Workload::ColdCatalogue {
        let wrong = out
            .samples
            .iter()
            .filter(|s| s.class == Class::Explain && s.cache.as_deref() != Some("miss"))
            .count();
        if wrong > 0 {
            out.fail(format!("{wrong} cold_catalogue explains were not misses"));
        }
    }
    if workload == Workload::IngestMixed {
        if out.ratings_accepted != out.ratings_sent {
            out.fail(format!(
                "commits accepted {} of {} ratings",
                out.ratings_accepted, out.ratings_sent
            ));
        }
        let seq = num(&["ingest", "watermark", "seq"]).unwrap_or(-1.0);
        if seq != out.last_seq as f64 {
            out.fail(format!(
                "stats watermark seq {seq} != last commit {}",
                out.last_seq
            ));
        }
    }
    Ok(())
}

/// Equal parts of the timed window. Each figure is the median of its
/// per-part values, so a transient stall on the host moves one part, not
/// the run's figure.
const PARTS: usize = 6;

/// Per-class latency summaries and the other end-to-end figures.
pub struct EndToEnd {
    pub throughput_rps: f64,
    /// Requests per second in each part of the window.
    pub part_rps: Vec<f64>,
    pub explain: Summary,
    pub interact: Summary,
    pub commit: Summary,
    pub ingest_ratings_per_s: f64,
    pub error_rate: f64,
    /// Mean request service time (send to reply), for tracing overhead.
    pub mean_service_ms: f64,
}

impl EndToEnd {
    pub fn of(out: &Outcome) -> EndToEnd {
        let timed: Vec<&drive::Sample> =
            out.samples.iter().filter(|s| s.measured && s.ok).collect();
        let part_of =
            |s: &drive::Sample| ((s.at_s / out.window_s * PARTS as f64) as usize).min(PARTS - 1);
        let parts = |want: &dyn Fn(Class) -> bool| -> Vec<Vec<f64>> {
            let mut parts = vec![Vec::new(); PARTS];
            for s in timed.iter().filter(|s| want(s.class)) {
                parts[part_of(s)].push(s.latency_ms);
            }
            parts
        };
        let per_part_s = out.window_s / PARTS as f64;
        let rates: Vec<f64> = parts(&|_| true)
            .iter()
            .map(|p| p.len() as f64 / per_part_s)
            .collect();
        let commits = timed.iter().filter(|s| s.class == Class::Commit).count();
        EndToEnd {
            throughput_rps: median(&rates),
            part_rps: rates,
            explain: Summary::of_parts(&parts(&|c| c == Class::Explain)),
            interact: Summary::of_parts(&parts(&|c| matches!(c, Class::Interact(_)))),
            commit: Summary::of_parts(&[parts(&|c| c == Class::Commit).concat()]),
            ingest_ratings_per_s: (commits * stream::COMMIT_BATCH) as f64 / out.window_s,
            error_rate: out.failed as f64 / out.attempted().max(1) as f64,
            mean_service_ms: timed.iter().map(|s| s.latency_ms).sum::<f64>()
                / timed.len().max(1) as f64,
        }
    }
}

/// Collects `(name, value, unit)` metrics and renders the result line.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": \"{u}\"}}",
                    Json::str(n.clone()).render(),
                    if v.is_finite() { *v } else { 0.0 }
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    fn all_finite(&self) -> bool {
        self.0.iter().all(|(_, v, _)| v.is_finite())
    }
}

fn print_summary(name: &str, s: &Summary) {
    let note = if s.p95_supported() {
        ""
    } else {
        " (too few samples for p95: fewer than 10 beyond it)"
    };
    println!(
        "{name}_p50_ms {:.4} ms   {name}_p95_ms {:.4} ms   n={} (fewest in a part: {}){note}",
        s.p50, s.p95, s.n, s.n_min
    );
}

fn run(args: &Args) -> Result<(), String> {
    let env = Env::discover()?;
    let data = env.dataset(args.seed)?;
    let dataset = maprat_data::loader::load_movielens_dir(&data)
        .map_err(|e| format!("cannot load {}: {e}", data.display()))?;
    let plan = Arc::new(Plan::new(args.workload, &dataset, args.seed));
    // Only the traced pass serves from this copy; free it otherwise.
    let dataset = args.trace.then_some(dataset);
    let name = args.workload.name();
    // A traced run splits its time between the untraced and traced passes.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let run = untraced(&env, &data, &plan, seconds)?;
    let e2e = EndToEnd::of(&run.outcome);
    let setup_s = median(&run.setups);
    println!(
        "# {name} seed={} seconds={seconds} boots={BOOTS} warm-up={:.1} s",
        args.seed, run.outcome.warmup_s
    );
    println!(
        "setup_s {setup_s:.4} s (boots: {:?})",
        run.setups
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "throughput_rps {:.2} 1/s ({} requests in {seconds} s; per part: {:?})",
        e2e.throughput_rps,
        run.outcome.measured_count(),
        e2e.part_rps.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    print_summary("explain", &e2e.explain);
    print_summary("interact", &e2e.interact);
    if args.workload == Workload::IngestMixed {
        print_summary("commit", &e2e.commit);
        println!(
            "ingest_ratings_per_s {:.2} 1/s   wal_bytes {}",
            e2e.ingest_ratings_per_s, run.wal_bytes
        );
    }
    println!(
        "error_rate {:.6} ({} failed of {} attempted)",
        e2e.error_rate,
        run.outcome.failed,
        run.outcome.attempted()
    );
    println!("peak_rss_mib {:.2} MiB", run.rss_mib);
    let mut labels: Vec<(String, usize)> = Vec::new();
    for s in run
        .outcome
        .samples
        .iter()
        .filter(|s| s.class == Class::Explain)
    {
        let label = s.cache.clone().unwrap_or_else(|| "none".into());
        match labels.iter_mut().find(|(l, _)| *l == label) {
            Some((_, n)) => *n += 1,
            None => labels.push((label, 1)),
        }
    }
    println!(
        "explain X-MapRat-Cache labels: {labels:?}   identity-checked repeats: {}",
        run.outcome.identity_checked
    );
    for e in &run.outcome.errors {
        println!("failure: {e}");
    }

    let mut metrics = Metrics::default();
    let mut failed = run.outcome.failed;
    let mut attempted = run.outcome.attempted();
    if let Some(dataset) = dataset {
        drop(run);
        let traced = trace::run(&env, dataset, &plan, args.seed, seconds, &e2e)?;
        failed += traced.failed;
        attempted += traced.attempted;
        metrics = traced.metrics;
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_rps", e2e.throughput_rps, "1/s");
        metrics.put("explain_p50_ms", e2e.explain.p50, "ms");
        metrics.put("explain_p95_ms", e2e.explain.p95, "ms");
        metrics.put("interact_p50_ms", e2e.interact.p50, "ms");
        metrics.put("interact_p95_ms", e2e.interact.p95, "ms");
        metrics.put("peak_rss_mib", run.rss_mib, "MiB");
    }
    let correct = failed == 0 && metrics.all_finite();
    println!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}", metrics.json());
    Ok(())
}
