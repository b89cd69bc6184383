//! Criterion bench: end-to-end explain latency, cold vs cached
//! (TXT-LATENCY companion — the §2.3 latency claim), plus the two
//! warm-engine paths that reuse a snapshot-tier cube: a solver-settings
//! re-solve and a personalized explain.

use criterion::{criterion_group, criterion_main, Criterion};
use maprat_bench::{dataset, dataset_arc};
use maprat_core::query::ItemQuery;
use maprat_core::{Miner, SearchSettings};
use maprat_data::{AttrValue, Gender};
use maprat_explore::personalize::{personalized_explain, VisitorProfile};
use maprat_explore::{ExplainRequest, MapRatEngine};
use std::cell::Cell;
use std::hint::black_box;

fn bench_explain(c: &mut Criterion) {
    let d = dataset();
    let settings = SearchSettings::default().with_min_coverage(0.15);
    let query = ItemQuery::title("Toy Story");

    let mut group = c.benchmark_group("explain");
    group.sample_size(10);

    group.bench_function("cold_miner", |b| {
        let miner = Miner::new(d);
        b.iter(|| black_box(miner.explain(&query, &settings)))
    });

    group.bench_function("cached_engine", |b| {
        let engine = MapRatEngine::new(dataset_arc());
        let _ = engine.explain_query(&query, &settings); // warm
        b.iter(|| black_box(engine.explain_query(&query, &settings)))
    });

    // Every iteration is a new request (the coverage moves by 1e-12, so
    // the solve's work does not change) whose cube the snapshot tier
    // holds: the result tier misses and only the solve re-runs, over the
    // entry's shared pool columns.
    group.bench_function("snapshot_resolve", |b| {
        let engine = MapRatEngine::new(dataset_arc());
        let _ = engine.explain_query(&query, &settings); // warm both tiers
        let step = Cell::new(0u32);
        b.iter(|| {
            step.set(step.get() + 1);
            let tweak = settings
                .clone()
                .with_max_groups(2)
                .with_min_coverage(0.15 + f64::from(step.get()) * 1e-12);
            black_box(engine.explain(&ExplainRequest::new(query.clone(), tweak)))
        })
    });

    group.bench_function("personalize_warm", |b| {
        let engine = MapRatEngine::new(dataset_arc());
        let _ = engine.explain_query(&query, &settings); // snapshot the cube
        let profile = VisitorProfile::new().with(AttrValue::Gender(Gender::Male));
        b.iter(|| black_box(personalized_explain(&engine, &query, &settings, &profile)))
    });

    group.finish();
}

criterion_group!(benches, bench_explain);
criterion_main!(benches);
