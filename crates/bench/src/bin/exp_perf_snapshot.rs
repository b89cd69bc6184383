//! Machine-readable performance snapshot for the perf trajectory — and
//! the CI perf-regression gate.
//!
//! Times the paths the perf PRs target — the RHE solve, the cold explain
//! classes, and the timeline sweep (single- vs default-threaded) — and
//! writes them as JSON so CI can archive one artifact per PR and
//! regressions show up as a diff.
//!
//! Run: `cargo run --release -p maprat-bench --bin exp_perf_snapshot
//! [-- out.json]` (default output: `BENCH_head.json` — deliberately
//! *not* the committed `BENCH_pr5.json` baseline, so a bare local run
//! can never clobber what the gate compares against).
//!
//! **Gate mode** (`--baseline <committed.json> [--max-regress 0.25]`):
//! after writing the snapshot, compares the gated metrics — the
//! `rhe_solve_*_ms` pair, `explain_cold_single_ms` (the
//! `explain/cold_miner` path), `explain_cold_catalogue_ms` (the
//! widest universe the dense cube builder serves) and
//! `explain_coalesced_p99_ms` (8 identical concurrent cold explains
//! riding ONE single-flight solve) — against the committed baseline and
//! exits non-zero when any of them regressed by more than the tolerance
//! (default +25%). Improvements never fail the gate. It also gates
//! `cover_bytes_catalogue`, a deterministic counter: the
//! [`maprat_cube::Bitmap::cover_bytes`] sum over the cubes the three
//! cold explain classes build, so a change that makes cached cubes pin
//! more cover memory fails the gate without any timing noise. The
//! snapshot additionally records `cube_build_*_ms` and
//! `explain_snapshot_hit_ms` (solve-only re-mining off the snapshot
//! tier) for the materialization and serving trajectories.

use maprat_bench::args::{unmatched_flag, usage_error};
use maprat_bench::gate::GateArgs;
use maprat_bench::timing::{summarize, time_n, time_once};
use maprat_bench::{dataset, dataset_arc, Scale};
use maprat_core::query::{ItemQuery, QueryTerm};
use maprat_core::{parallel, rhe, Budget, MiningProblem, RheParams, SearchSettings, Task};
use maprat_cube::{CubeOptions, RatingCube};
use maprat_explore::{ExplainRequest, MapRatEngine, TimeSlider};
use std::fmt::Write as _;
use std::hint::black_box;

fn mean_ms(n: usize, mut f: impl FnMut()) -> f64 {
    summarize(&time_n(n, &mut f)).mean.as_secs_f64() * 1e3
}

/// The metrics the CI `perf-gate` job fails on.
const GATED_KEYS: [&str; 6] = [
    "rhe_solve_similarity_ms",
    "rhe_solve_diversity_ms",
    "explain_cold_single_ms",
    "explain_cold_catalogue_ms",
    "explain_coalesced_p99_ms",
    "cover_bytes_catalogue",
];

const BIN: &str = "exp_perf_snapshot";
const USAGE: &str =
    "usage: exp_perf_snapshot [out.json] [--baseline committed.json [--max-regress R]]";

fn main() {
    let mut out_path: Option<String> = None;
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
            bare if !bare.starts_with("--") => out_path = Some(bare.to_string()),
            flag => unmatched_flag(BIN, USAGE, flag),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_head.json".to_string());
    // The snapshot labels itself after the output file stem, so future
    // PRs only bump the filename in CI (no code edit per PR). The label
    // is embedded in hand-rolled JSON, so restrict it to characters that
    // need no escaping.
    let snapshot_label: String = std::path::Path::new(&out_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let d = dataset();
    let threads = parallel::num_threads();

    // RHE solve on the bench_rhe "pool_l" cube.
    let item = d.find_title("Toy Story").expect("planted");
    let idx: Vec<u32> = d.rating_range_for_item(item).collect();
    let cube = RatingCube::build(
        d,
        idx,
        CubeOptions {
            min_support: 5,
            require_geo: false,
            max_arity: 3,
        },
    );
    let problem = MiningProblem::new(&cube, 3, 0.15, 0.5);
    let params = RheParams::default();
    let rhe_similarity_ms = mean_ms(10, || {
        black_box(rhe::solve(&problem, Task::Similarity, &params));
    });
    let rhe_diversity_ms = mean_ms(10, || {
        black_box(rhe::solve(&problem, Task::Diversity, &params));
    });

    // Dense cube materialization on the canonical bench universe.
    let bench_universe = maprat_bench::cube_universe(d, 16_000);
    let cube_build_geo4_ms = mean_ms(10, || {
        black_box(RatingCube::build(
            d,
            bench_universe.clone(),
            maprat_bench::cube_options_geo4(),
        ));
    });
    let cube_build_free2_ms = mean_ms(10, || {
        black_box(RatingCube::build(
            d,
            bench_universe.clone(),
            maprat_bench::cube_options_free2(),
        ));
    });

    // Cold explain latency per query class (fresh engine per
    // measurement), and the cover bytes each class's cube pins.
    let settings = SearchSettings::default().with_min_coverage(0.15);
    let mut cover_bytes_catalogue = 0usize;
    let mut cold_ms = |query: &ItemQuery| -> f64 {
        let engine = MapRatEngine::new(dataset_arc());
        let (result, elapsed) = time_once(|| engine.explain_query(query, &settings));
        let result = result.as_ref().as_ref().expect("cold explain must succeed");
        cover_bytes_catalogue += result
            .cube
            .groups()
            .iter()
            .map(|g| g.cover.cover_bytes())
            .sum::<usize>();
        elapsed.as_secs_f64() * 1e3
    };
    let explain_single_ms = cold_ms(&ItemQuery::title("Toy Story"));
    let explain_catalogue_ms = cold_ms(&ItemQuery::actor("Tom Hanks"));
    let explain_trilogy_ms = cold_ms(&ItemQuery::new(QueryTerm::TitleContains(
        "Lord of the Rings".into(),
    )));

    // Coalesced cold explain: 8 threads fire the identical cold request
    // at once; single-flight must serve all of them from ONE solve, so
    // the p99 follower latency tracks the single solve, not 8 of them.
    let coalesced_p99_ms = {
        use std::sync::Barrier;
        const WAVES: usize = 5;
        const THREADS: usize = 8;
        let mut samples = Vec::with_capacity(WAVES * THREADS);
        for _ in 0..WAVES {
            let engine = MapRatEngine::new(dataset_arc()); // cold every wave
            let barrier = Barrier::new(THREADS);
            let query = ItemQuery::title("Toy Story");
            let settings = settings.clone();
            let wave: Vec<std::time::Duration> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        let (engine, barrier, query, settings) =
                            (engine.clone(), &barrier, &query, &settings);
                        scope.spawn(move || {
                            barrier.wait();
                            let (result, elapsed) =
                                time_once(|| engine.explain_query(query, settings));
                            assert!(result.is_ok(), "coalesced explain must succeed");
                            elapsed
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(engine.solve_count(), 1, "identical requests coalesce");
            samples.extend(wave);
        }
        samples.sort_unstable();
        maprat_bench::timing::percentile(&samples, 99.0).as_secs_f64() * 1e3
    };

    // Snapshot-tier hit: same query under new settings re-runs only the
    // solve (the cube/cover build is skipped) — the second serving tier.
    let snapshot_hit_ms = {
        let engine = MapRatEngine::new(dataset_arc());
        let query = ItemQuery::title("Toy Story");
        assert!(engine.explain_query(&query, &settings).is_ok()); // warms the snapshot
        let resolve = settings.clone().with_max_groups(4); // new result key, same snapshot key
        let (result, elapsed) = time_once(|| engine.explain_query(&query, &resolve));
        assert!(result.is_ok(), "snapshot-hit explain must succeed");
        elapsed.as_secs_f64() * 1e3
    };

    // Batch explain: an 8-query precompute-style set served as ONE
    // `explain_batch` call (a pool fan-out of the single-explain
    // pipeline) vs the same 8 requests explained sequentially. Each
    // round times both on fresh (cold) engines, alternating which goes
    // first so neither inherits a warmer process; the medians are
    // reported.
    let batch_requests: Vec<ExplainRequest> = [
        "Toy Story",
        "Jaws",
        "Forrest Gump",
        "Minority Report",
        "Saving Private Ryan",
        "The Social Network",
        "The Twilight Saga: Eclipse",
    ]
    .iter()
    .map(|t| ItemQuery::title(*t))
    .chain([ItemQuery::actor("Tom Hanks")])
    .map(|q| ExplainRequest::new(q, settings.clone()))
    .collect();
    let (explain_batch8_ms, explain_sequential8_ms) = {
        const ROUNDS: usize = 5;
        let budget = Budget::unlimited();
        let time_batch = || {
            let engine = MapRatEngine::new(dataset_arc());
            let (outcomes, elapsed) = time_once(|| engine.explain_batch(&batch_requests, &budget));
            for (result, _) in &outcomes {
                assert!(result.is_ok(), "batch explain must succeed");
            }
            elapsed
        };
        let time_sequential = || {
            let engine = MapRatEngine::new(dataset_arc());
            let ((), elapsed) = time_once(|| {
                for request in &batch_requests {
                    assert!(engine.explain(request).is_ok(), "sequential explain");
                }
            });
            elapsed
        };
        let (mut batch, mut sequential) = (Vec::new(), Vec::new());
        for round in 0..ROUNDS {
            if round % 2 == 0 {
                batch.push(time_batch());
                sequential.push(time_sequential());
            } else {
                sequential.push(time_sequential());
                batch.push(time_batch());
            }
        }
        batch.sort_unstable();
        sequential.sort_unstable();
        (
            summarize(&batch).p50.as_secs_f64() * 1e3,
            summarize(&sequential).p50.as_secs_f64() * 1e3,
        )
    };

    // Timeline sweep: the parallel win (each measurement on a cold cache).
    let timeline_settings = SearchSettings::default()
        .with_min_coverage(0.1)
        .with_require_geo(false);
    let slider = TimeSlider::over_dataset(d, 6, 6).expect("dataset has a time span");
    let query = ItemQuery::title("Toy Story");
    let sweep_ms = |threads: usize| -> f64 {
        let engine = MapRatEngine::new(dataset_arc());
        let (points, elapsed) =
            time_once(|| slider.sweep_with_threads(&engine, &query, &timeline_settings, threads));
        assert!(!points.is_empty());
        elapsed.as_secs_f64() * 1e3
    };
    let timeline_1thread_ms = sweep_ms(1);
    let timeline_auto_ms = sweep_ms(threads);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"snapshot\": \"{snapshot_label}\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", Scale::from_env().name());
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"pool_size\": {},", cube.len());
    let _ = writeln!(
        json,
        "  \"rhe_solve_similarity_ms\": {rhe_similarity_ms:.4},"
    );
    let _ = writeln!(json, "  \"rhe_solve_diversity_ms\": {rhe_diversity_ms:.4},");
    let _ = writeln!(json, "  \"cube_build_geo4_ms\": {cube_build_geo4_ms:.4},");
    let _ = writeln!(json, "  \"cube_build_free2_ms\": {cube_build_free2_ms:.4},");
    let _ = writeln!(
        json,
        "  \"explain_cold_single_ms\": {explain_single_ms:.4},"
    );
    let _ = writeln!(
        json,
        "  \"explain_cold_catalogue_ms\": {explain_catalogue_ms:.4},"
    );
    let _ = writeln!(
        json,
        "  \"explain_cold_trilogy_ms\": {explain_trilogy_ms:.4},"
    );
    let _ = writeln!(
        json,
        "  \"explain_coalesced_p99_ms\": {coalesced_p99_ms:.4},"
    );
    let _ = writeln!(json, "  \"explain_snapshot_hit_ms\": {snapshot_hit_ms:.4},");
    let _ = writeln!(
        json,
        "  \"cover_bytes_catalogue\": {cover_bytes_catalogue},"
    );
    let _ = writeln!(json, "  \"explain_batch8_ms\": {explain_batch8_ms:.4},");
    let _ = writeln!(
        json,
        "  \"explain_sequential8_ms\": {explain_sequential8_ms:.4},"
    );
    let _ = writeln!(
        json,
        "  \"timeline_sweep_1thread_ms\": {timeline_1thread_ms:.4},"
    );
    let _ = writeln!(json, "  \"timeline_sweep_auto_ms\": {timeline_auto_ms:.4}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write perf snapshot");
    println!("wrote {out_path}:\n{json}");

    gate.enforce(&json, &GATED_KEYS, 26);
}
