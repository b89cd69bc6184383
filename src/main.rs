//! The `maprat` command-line tool — see [`maprat::cli::USAGE`].

use maprat::cli::{parse, Command, QuerySpec, USAGE};
use maprat::core::SearchSettings;
use maprat::data::synth::{generate, SynthConfig};
use maprat::data::{loader, writer, Dataset};
use maprat::explore::drilldown::{drill_group, render_drilldown};
use maprat::explore::timeline::render_sweep;
use maprat::explore::{exploration_maps, TimeSlider};
use maprat::geo::svg::{render as render_svg, SvgOptions};
use maprat::server::{AppState, HttpServer};
use maprat::MapRatEngine;
use std::process::ExitCode;

fn load_or_generate(spec_data: &Option<String>) -> Result<Dataset, String> {
    match spec_data {
        Some(dir) => loader::load_movielens_dir(dir)
            .map_err(|e| format!("cannot load MovieLens directory {dir:?}: {e}")),
        None => {
            eprintln!("generating the default synthetic dataset (small, seed 42)…");
            generate(&SynthConfig::small(42)).map_err(|e| e.to_string())
        }
    }
}

fn engine_for(spec_data: &Option<String>) -> Result<MapRatEngine, String> {
    Ok(MapRatEngine::from_dataset(load_or_generate(spec_data)?))
}

fn scale_config(scale: &str, seed: u64) -> Result<SynthConfig, String> {
    match scale {
        "tiny" => Ok(SynthConfig::tiny(seed)),
        "small" => Ok(SynthConfig::small(seed)),
        "full" => Ok(SynthConfig::movielens_1m(seed)),
        other => Err(format!("unknown scale {other:?} (tiny|small|full)")),
    }
}

fn run_explain(spec: &QuerySpec, svg: Option<String>) -> Result<(), String> {
    let engine = engine_for(&spec.data)?;
    let query = spec.to_query()?;
    let result = engine.explain_query(&query, &spec.to_settings()?);
    let r = result.as_ref().as_ref().map_err(|e| e.to_string())?;
    print!("{}", r.explanation.render_text());
    if let Some(path) = svg {
        let (sm, _) = exploration_maps(&r.explanation);
        let body = render_svg(&sm, &SvgOptions::default());
        std::fs::write(&path, body).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

fn run_timeline(spec: &QuerySpec, window: usize) -> Result<(), String> {
    let engine = engine_for(&spec.data)?;
    let query = spec.to_query()?;
    let dataset = engine.dataset();
    let slider =
        TimeSlider::over_dataset(&dataset, window.max(1), window.max(1)).ok_or_else(|| {
            let span = TimeSlider::span_months(&dataset);
            format!("--window must not exceed the dataset's span of {span} months")
        })?;
    let points = slider.sweep(&engine, &query, &spec.to_settings()?);
    print!("{}", render_sweep(&points));
    Ok(())
}

fn run_drill(spec: &QuerySpec, index: usize) -> Result<(), String> {
    let engine = engine_for(&spec.data)?;
    let query = spec.to_query()?;
    let result = engine.explain_query(&query, &spec.to_settings()?);
    let r = result.as_ref().as_ref().map_err(|e| e.to_string())?;
    let group = r
        .explanation
        .similarity
        .groups
        .get(index)
        .ok_or_else(|| format!("no similarity group {index}"))?;
    let cities = drill_group(&engine.dataset(), r, &group.desc)
        .ok_or("group carries no state condition (drill needs one)")?;
    print!("{}", render_drilldown(&group.desc, &cities));
    Ok(())
}

fn run_generate(out: &str, scale: &str, seed: u64) -> Result<(), String> {
    let config = scale_config(scale, seed)?;
    eprintln!("generating {scale} dataset (seed {seed})…");
    let dataset = generate(&config).map_err(|e| e.to_string())?;
    eprintln!("{}", dataset.summary());
    writer::write_movielens_dir(&dataset, out).map_err(|e| e.to_string())?;
    println!("wrote MovieLens-format files into {out}");
    Ok(())
}

fn run_serve(port: u16, data: Option<String>) -> Result<(), String> {
    let dataset = load_or_generate(&data)?;
    eprintln!("{}", dataset.summary());
    // The engine owns the dataset behind an Arc — no leak, and worker
    // threads share one cache through cheap clones.
    let engine = MapRatEngine::from_dataset(dataset);
    let warmed = engine.precompute_popular(
        8,
        &SearchSettings::builder()
            .min_coverage(0.2)
            .build()
            .map_err(|e| e.to_string())?,
    );
    eprintln!("pre-computed {warmed} popular items");
    // Background precompute keeps warming whatever visitors ask for, on
    // idle pool workers (tunable via MAPRAT_PRECOMPUTE_BUDGET / _MS).
    let scheduler =
        std::sync::Arc::new(maprat::explore::PrecomputeScheduler::start(engine.clone()));
    let mut state = AppState::new(engine.clone()).with_precompute(scheduler);
    // Live ingestion is on by default; MAPRAT_INGEST=0 serves read-only.
    // With MAPRAT_WAL_DIR set, commits are write-ahead logged there and
    // replayed on startup (crash recovery); without it they are
    // in-memory only.
    if !matches!(
        std::env::var("MAPRAT_INGEST").as_deref(),
        Ok("0") | Ok("false")
    ) {
        let service = match std::env::var("MAPRAT_WAL_DIR") {
            Ok(dir) if !dir.is_empty() => {
                let (service, report) = maprat::ingest::IngestService::with_wal(engine, &dir)
                    .map_err(|e| format!("cannot open WAL in {dir:?}: {e}"))?;
                eprintln!(
                    "WAL at {dir}: replayed {} commit(s) (checkpoint {}, last seq {}{})",
                    report.replayed,
                    report.checkpoint,
                    report.last_seq,
                    if report.truncated > 0 {
                        ", repaired a torn tail"
                    } else {
                        ""
                    }
                );
                service
            }
            _ => maprat::ingest::IngestService::new(engine),
        };
        state = state.with_ingest(std::sync::Arc::new(service));
    }
    // Requests execute as shared-pool jobs; the accept loop admits a few
    // times the worker count and back-pressures beyond that.
    let max_in_flight = 4 * maprat::core::parallel::num_threads();
    let server = HttpServer::start(
        &format!("127.0.0.1:{port}"),
        max_in_flight,
        state.into_handler(),
    )
    .map_err(|e| format!("cannot bind port {port}: {e}"))?;
    println!(
        "MapRat demo listening on http://127.0.0.1:{}/",
        server.port()
    );
    println!("press Ctrl-C to stop");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse(&args) {
        Ok(c) => c,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Explain { spec, svg } => run_explain(&spec, svg),
        Command::Timeline { spec, window } => run_timeline(&spec, window),
        Command::Drill { spec, index } => run_drill(&spec, index),
        Command::Generate { out, scale, seed } => run_generate(&out, &scale, seed),
        Command::Serve { port, data } => run_serve(port, data),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
