//! Closed-loop live-ingestion experiment — the PR 7 acceptance bench.
//!
//! Boots an engine plus an [`maprat_ingest::IngestService`] over the
//! environment-selected dataset scale, then races a committer thread
//! (monthly batches of new reviewers rating planted titles) against
//! explain worker threads issuing *cold* explains (unique cache keys, so
//! every one is a full mining solve). Measures sustained ingest
//! throughput (ratings/sec across the commit phase), per-commit latency,
//! and the cold-explain tail both quiet and under ingest load — the
//! serving contract is that commits hot-swap snapshots without stalling
//! explains.
//!
//! Run: `cargo run --release -p maprat-bench --bin exp_ingest --
//! [--commits N] [--batch N] [--readers N] [out.json]` (defaults:
//! 8 commits × 64 ratings, 2 readers, output `BENCH_pr7.json`).
//! `--check` enforces the shape contract and exits non-zero on violation
//! (the CI smoke mode); `--baseline <committed.json> [--max-regress R]`
//! gates the latency metrics against a committed snapshot (the CI
//! perf-gate mode — throughput is machine-dependent, so only the
//! latency-shaped keys are gated).
//!
//! `commit_copied_ratings_max` is the most ratings any one commit wrote
//! into new rating chunks. It is a deterministic work counter: `--check`
//! asserts that no commit copied more than the post-commit ratings of the
//! items it touched, however large the dataset.

use maprat_bench::args::{unmatched_flag, usage_error, value};
use maprat_bench::gate::GateArgs;
use maprat_bench::timing::{ms, percentile, tail};
use maprat_bench::{dataset_arc, Scale, ShapeCheck};
use maprat_core::query::ItemQuery;
use maprat_core::{parallel, SearchSettings};
use maprat_data::{AgeGroup, Gender, MonthKey, Occupation, Score, Timestamp, Zip};
use maprat_explore::MapRatEngine;
use maprat_ingest::{IngestBuffer, IngestService, ItemSpec, NewUser, RatingEvent, UserSpec};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The latency metrics the CI perf gate fails on. Throughput keys are
/// machine-dependent and only archived; commit p95 over the default 8
/// commits is the sample max and too noisy to gate, so the stable commit
/// median stands in for it.
const GATED_KEYS: [&str; 2] = ["commit_p50_ms", "explain_under_ingest_p95_ms"];

/// Titles the ingested ratings target: every commit touches these items
/// (plus the fresh per-commit months), so scoped invalidation has a
/// fixed, small footprint.
const RATED_TITLES: [&str; 2] = ["Jaws", "Forrest Gump"];

fn commit_buffer(commit: usize, batch: usize) -> IngestBuffer {
    let mut buffer = IngestBuffer::new();
    // Months advance past the synthetic corpus, so each commit also
    // exercises the fresh-partition path.
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
                item: ItemSpec::ByTitle(RATED_TITLES[k % RATED_TITLES.len()].into()),
                score: Score::new(1 + ((commit + k) % 5) as u8).unwrap(),
                ts: Timestamp::from_ymd(year as i64, month, 1 + (k % 28) as u32),
            })
            .unwrap();
    }
    buffer
}

/// One closed-loop explain reader: cold explains (unique coverage per
/// request → unique cache key → full solve) until the committer is done.
fn run_reader(
    engine: MapRatEngine,
    done: &AtomicBool,
    counter: &AtomicUsize,
) -> (Vec<Duration>, usize) {
    let query = ItemQuery::title("Toy Story");
    let mut latencies = Vec::new();
    let mut failures = 0usize;
    loop {
        let finished = done.load(Ordering::SeqCst);
        let k = counter.fetch_add(1, Ordering::Relaxed);
        let settings =
            SearchSettings::default().with_min_coverage(0.1 + (k % 10_000) as f64 * 1e-6);
        let start = Instant::now();
        let result = engine.explain_query(&query, &settings);
        if result.is_err() {
            failures += 1;
        } else {
            latencies.push(start.elapsed());
        }
        if finished {
            return (latencies, failures);
        }
    }
}

const BIN: &str = "exp_ingest";
const USAGE: &str = "usage: exp_ingest [--commits N] [--batch N] [--readers N] [--check] \
[--baseline committed.json [--max-regress R]] [out.json]";

fn main() {
    let mut commits = 8usize;
    let mut batch = 64usize;
    let mut readers = 2usize;
    let mut out_path = "BENCH_pr7.json".to_string();
    let mut gate = GateArgs::new(0.25);
    let mut args = std::env::args().skip(1);
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
            "--readers" => readers = value(BIN, &arg, &mut args),
            "--check" => {}
            bare if !bare.starts_with("--") => out_path = bare.to_string(),
            flag => unmatched_flag(BIN, USAGE, flag),
        }
    }
    let commits = commits.max(1);
    let batch = batch.max(1);
    let readers = readers.max(1);
    let threads = parallel::num_threads();

    println!("== TXT-INGEST: live rating commits racing cold explains ==");
    println!(
        "scale={} threads={threads} commits={commits} batch={batch} readers={readers}",
        Scale::from_env().name()
    );

    let engine = MapRatEngine::new(dataset_arc());
    let base_ratings = engine.dataset().num_ratings();
    let service = Arc::new(IngestService::new(engine.clone()));

    // Phase 1 — quiet cold-explain baseline (no commits in flight).
    let quiet_done = AtomicBool::new(true); // one bounded pass
    let quiet_counter = AtomicUsize::new(0);
    let mut quiet: Vec<Duration> = (0..8)
        .flat_map(|_| run_reader(engine.clone(), &quiet_done, &quiet_counter).0)
        .collect();
    quiet.sort_unstable();

    // Phase 2 — the race: committer vs closed-loop readers.
    let done = Arc::new(AtomicBool::new(false));
    let counter = Arc::new(AtomicUsize::new(1_000));
    let reader_handles: Vec<_> = (0..readers)
        .map(|_| {
            let engine = engine.clone();
            let done = Arc::clone(&done);
            let counter = Arc::clone(&counter);
            std::thread::spawn(move || run_reader(engine, &done, &counter))
        })
        .collect();
    let commit_start = Instant::now();
    let mut commit_latencies = Vec::with_capacity(commits);
    let mut copied_max = 0usize;
    let mut copies_only_touched_items = true;
    let mut previous = service.engine().dataset();
    for c in 0..commits {
        let buffer = commit_buffer(c, batch);
        let start = Instant::now();
        let receipt = service.commit(buffer).expect("commit succeeds");
        commit_latencies.push(start.elapsed());
        assert_eq!(receipt.accepted, batch);
        // The committer is the only writer, so the served snapshot is the
        // one this commit made from `previous`. The ratings in chunks it
        // does not share with `previous` are what it really copied: they
        // must match the receipt and stay within the touched items.
        let snapshot = service.engine().dataset();
        let rebuilt: usize = snapshot
            .items()
            .iter()
            .filter(|it| {
                it.id.index() >= previous.items().len()
                    || !Arc::ptr_eq(snapshot.chunk(it.id), previous.chunk(it.id))
            })
            .map(|it| snapshot.chunk(it.id).len())
            .sum();
        let touched: usize = receipt
            .changed_items
            .iter()
            .map(|&item| snapshot.ratings_for_item(item).len())
            .sum();
        copies_only_touched_items &= rebuilt == receipt.copied_ratings && rebuilt <= touched;
        copied_max = copied_max.max(rebuilt);
        previous = snapshot;
    }
    let commit_wall = commit_start.elapsed();
    done.store(true, Ordering::SeqCst);
    let mut under_ingest: Vec<Duration> = Vec::new();
    let mut explain_failures = 0usize;
    for h in reader_handles {
        let (lat, fail) = h.join().unwrap();
        under_ingest.extend(lat);
        explain_failures += fail;
    }
    under_ingest.sort_unstable();
    commit_latencies.sort_unstable();

    let ingested = commits * batch;
    let ratings_per_sec = ingested as f64 / commit_wall.as_secs_f64();
    let quiet_tail = tail(&quiet);
    let load_tail = tail(&under_ingest);
    let commit_tail = tail(&commit_latencies);

    println!(
        "ingest: {ingested} ratings in {} ms = {ratings_per_sec:.0} ratings/s across {commits} commits",
        ms(commit_wall)
    );
    println!(
        "commit latency:              p50={:>9} ms  p95={:>9} ms",
        ms(commit_tail.p50),
        ms(commit_tail.p95)
    );
    println!(
        "commit_copied_ratings_max:   {copied_max} of {} ratings",
        service.engine().dataset().num_ratings()
    );
    println!(
        "cold explain (quiet):        n={:<4} p50={:>9} ms  p95={:>9} ms",
        quiet.len(),
        ms(quiet_tail.p50),
        ms(quiet_tail.p95)
    );
    println!(
        "cold explain (under ingest): n={:<4} p50={:>9} ms  p95={:>9} ms  p99={:>9} ms",
        under_ingest.len(),
        ms(load_tail.p50),
        ms(load_tail.p95),
        ms(load_tail.p99)
    );

    let final_dataset = service.engine().dataset();
    let explain_p95_under = percentile(&under_ingest, 95.0).as_secs_f64() * 1e3;
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"snapshot\": \"pr7-ingest\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", Scale::from_env().name());
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"commits\": {commits},");
    let _ = writeln!(json, "  \"batch\": {batch},");
    let _ = writeln!(json, "  \"readers\": {readers},");
    let _ = writeln!(json, "  \"ingest_ratings_per_sec\": {ratings_per_sec:.2},");
    let _ = writeln!(json, "  \"commit_p50_ms\": {},", ms(commit_tail.p50));
    let _ = writeln!(json, "  \"commit_p95_ms\": {},", ms(commit_tail.p95));
    let _ = writeln!(json, "  \"commit_copied_ratings_max\": {copied_max},");
    let _ = writeln!(json, "  \"explain_quiet_p50_ms\": {},", ms(quiet_tail.p50));
    let _ = writeln!(json, "  \"explain_quiet_p95_ms\": {},", ms(quiet_tail.p95));
    let _ = writeln!(
        json,
        "  \"explain_under_ingest_p50_ms\": {},",
        ms(load_tail.p50)
    );
    let _ = writeln!(
        json,
        "  \"explain_under_ingest_p95_ms\": {explain_p95_under:.4},"
    );
    let _ = writeln!(
        json,
        "  \"explain_under_ingest_p99_ms\": {},",
        ms(load_tail.p99)
    );
    let _ = writeln!(json, "  \"explain_failures\": {explain_failures}");
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write ingest snapshot");
    println!("wrote {out_path}");

    let mut check = ShapeCheck::new();
    check.expect("every explain succeeded", explain_failures == 0);
    check.expect(
        "readers produced samples under ingest load",
        under_ingest.len() >= readers,
    );
    check.expect(
        "every commit landed in the served snapshot",
        final_dataset.num_ratings() == base_ratings + ingested,
    );
    check.expect(
        "every commit's unshared chunks hold its copied_ratings, within the items it touched",
        copies_only_touched_items,
    );
    check.expect(
        "watermark advanced to the last commit",
        service.watermark().map(|w| w.seq) == Some(commits as u64),
    );
    check.expect(
        "ingest throughput is finite and positive",
        ratings_per_sec > 0.0,
    );
    check.finish();

    gate.enforce(&json, &GATED_KEYS, 30);
}
