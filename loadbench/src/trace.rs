//! The traced run: the same seeded stream, served by an in-process
//! `HttpServer` whose handler composes each route from the public
//! functions of the workspace crates — exactly the calls `AppState`'s
//! routes make — with a span around every call. The layers are timed
//! from the outside only; no span lives inside a crate.
//!
//! The cube build and the solver run inside `MapRatEngine::explain_opts`,
//! where no outside span reaches. For a seeded sample of the explains the
//! engine answered as `miss` or `snapshot`, the run therefore replays the
//! pipeline after the timed pass through `Miner::collect_universe`,
//! `CubePlan::prepare`/`fill`, `MiningProblem::new` and
//! `rhe::solve_with_stats`, and checks that the replay renders the same
//! bytes the server sent. Spans are kept in memory and written to
//! `trace-<workload>-<seed>.tsv` in the work directory when the run ends.

use crate::drive::Outcome;
use crate::server::Env;
use crate::stream::{Plan, Rng, Workload};
use crate::{EndToEnd, Metrics};
use maprat_core::query::ItemQuery;
use maprat_core::{
    rhe, Budget, Explanation, Interpretation, MineError, Miner, MiningProblem, SearchSettings, Task,
};
use maprat_cube::builder::CubePlan;
use maprat_cube::CubeOptions;
use maprat_data::Dataset;
use maprat_explore::compare::{self, Relation};
use maprat_explore::drilldown::drill_group;
use maprat_explore::personalize::personalized_explain;
use maprat_explore::{
    exploration_maps, ExplainRequest, MapRatEngine, PrecomputeScheduler, ServedFrom, ServingStats,
    TimeSlider,
};
use maprat_geo::svg::{render as render_svg, SvgOptions};
use maprat_ingest::IngestService;
use maprat_server::api::{
    self, ApiError, DetailResponse, DrillRequest, DrillResponse, RelatedDto, TimelineRequest,
    TimelineResponse,
};
use maprat_server::http::Handler;
use maprat_server::{AppState, ExplainResponse, HttpServer, Request, Response};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

/// Explains replayed per served label.
const REPLAYS: usize = 32;

/// The per-layer metrics `BENCHMARK.json` lists: present (non-zero) on
/// every workload. The report prints the workload-specific rest too.
pub const PER_LAYER: [&str; 25] = [
    "core.query_ms",
    "core.universe_ratings",
    "cube.count_ms",
    "cube.fill_ms",
    "cube.groups",
    "core.problem_ms",
    "core.pool_size",
    "core.rhe_sm_ms",
    "core.rhe_dm_ms",
    "core.rhe_iterations",
    "core.rhe_evaluations",
    "explore.explain_ms",
    "explore.explain_miss_ms",
    "explore.miss_share",
    "explore.solves_per_request",
    "cache.result_hit_ratio",
    "server.handler_explain_ms",
    "server.handler_interact_ms",
    "server.http_ms",
    "server.decode_us",
    "server.render_us",
    "server.resp_bytes",
    "geo.svg_ms",
    "geo.svg_bytes",
    "bench.trace_overhead_pct",
];

/// One span, or (with `start == end`) one counted value.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: &'static str,
    pub req: u64,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub value: f64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    on: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            on: AtomicBool::new(true),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        if self.on.load(Ordering::Relaxed) {
            self.spans.lock().expect("span lock").push(span);
        }
    }

    /// Times `f` as span `name`; `f` gets the span's id for its children
    /// and returns the label to record with its value.
    pub fn span_with<T>(
        &self,
        req: u64,
        parent: u32,
        name: &'static str,
        f: impl FnOnce(u32) -> (T, &'static str),
    ) -> T {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now();
        let (value, label) = f(id);
        let end_ns = self.now();
        self.push(Span {
            name,
            label,
            req,
            id,
            parent,
            start_ns,
            end_ns,
            value: 0.0,
        });
        value
    }

    pub fn span<T>(
        &self,
        req: u64,
        parent: u32,
        name: &'static str,
        label: &'static str,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        self.span_with(req, parent, name, |id| (f(id), label))
    }

    /// Records a counted value (bytes, groups, …) under `parent`.
    pub fn note(&self, req: u64, parent: u32, name: &'static str, label: &'static str, value: f64) {
        let at = self.now();
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            name,
            label,
            req,
            id,
            parent,
            start_ns: at,
            end_ns: at,
            value,
        });
    }
}

/// An explain to replay stage by stage after the timed pass.
struct Replay {
    tag: u64,
    request: ExplainRequest,
    served: &'static str,
    /// The snapshot it was mined from; a replay on a still-live snapshot
    /// must render the served bytes.
    dataset: Weak<Dataset>,
    body: String,
}

/// A seeded uniform sample of at most [`REPLAYS`] items.
struct Reservoir {
    seen: u64,
    items: Vec<Replay>,
    rng: Rng,
}

impl Reservoir {
    fn offer(&mut self, item: Replay) {
        self.seen += 1;
        if self.items.len() < REPLAYS {
            self.items.push(item);
        } else {
            let j = (self.rng.next_u64() % self.seen) as usize;
            if j < REPLAYS {
                self.items[j] = item;
            }
        }
    }
}

/// The routes the traced handler composes; the rest go to `AppState`.
const ROUTES: [&str; 7] = [
    "/api/v1/explain",
    "/map.svg",
    "/api/v1/drill",
    "/api/v1/detail",
    "/api/v1/personalize",
    "/api/v1/timeline",
    "/api/v1/ingest",
];

/// The traced handler.
struct Routes {
    tracer: Tracer,
    engine: MapRatEngine,
    scheduler: Arc<PrecomputeScheduler>,
    ingest: Arc<IngestService>,
    /// The real `AppState` handler: serves `/` and the stats route, and is
    /// the reference for the fidelity check.
    inner: Handler,
    shed_watermark: usize,
    misses: Mutex<Reservoir>,
    snapshots: Mutex<Reservoir>,
    /// The last request per composed route, for the fidelity check.
    last: Mutex<HashMap<&'static str, Request>>,
}

impl Routes {
    fn dispatch(&self, req: &Request) -> Response {
        let Some(route) = ROUTES.iter().copied().find(|r| *r == req.path) else {
            return (self.inner)(req);
        };
        if route != "/api/v1/ingest" {
            self.last
                .lock()
                .expect("last lock")
                .insert(route, req.clone());
        }
        let tag = req
            .headers
            .get("x-bench-request")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        self.tracer.span(tag, 0, "server.handler", route, |h| {
            self.compose(route, req, tag, h)
        })
    }

    fn compose(&self, route: &str, req: &Request, tag: u64, h: u32) -> Response {
        let t = &self.tracer;
        match route {
            "/api/v1/explain" => self.explain(req, tag, h),
            "/map.svg" => {
                let request = match api::explain_request(req) {
                    Ok(r) => r,
                    Err(e) => return e.into_response(),
                };
                let result = t.span(tag, h, "explore.explain", "map", |_| {
                    self.engine.explain(&request)
                });
                match &*result {
                    Ok(r) => {
                        let (sm, dm) = t.span(tag, h, "explore.maps", "", |_| {
                            exploration_maps(&r.explanation)
                        });
                        let map = match req.param("task").unwrap_or("sm") {
                            "dm" => dm,
                            _ => sm,
                        };
                        let svg = t.span(tag, h, "geo.svg", "", |_| {
                            render_svg(&map, &SvgOptions::default())
                        });
                        t.note(tag, h, "geo.svg_bytes", "", svg.len() as f64);
                        Response::svg(svg)
                    }
                    Err(e) => ApiError::from_mine(e).into_response(),
                }
            }
            "/api/v1/drill" | "/api/v1/detail" => self.group_route(route, req, tag, h),
            "/api/v1/personalize" => {
                let (request, profile) = match api::personalize_request(req) {
                    Ok(v) => v,
                    Err(e) => return e.into_response(),
                };
                let explained = t.span(tag, h, "explore.personalize", "", |_| {
                    personalized_explain(&self.engine, &request.query, &request.settings, &profile)
                });
                match explained {
                    Ok(explanation) => {
                        Response::json(t.span(tag, h, "server.render", "personalize", |_| {
                            ExplainResponse::from_explanation(&explanation)
                                .to_json()
                                .render()
                        }))
                    }
                    Err(e) => ApiError::from_mine(&e).into_response(),
                }
            }
            "/api/v1/timeline" => {
                let request = match TimelineRequest::from_request(req) {
                    Ok(r) => r,
                    Err(e) => return e.into_response(),
                };
                let Some(slider) =
                    TimeSlider::over_dataset(&self.engine.dataset(), request.window, request.step)
                else {
                    return ApiError::bad_request("dataset has no ratings").into_response();
                };
                let points = t.span(tag, h, "explore.timeline", "", |_| {
                    slider.sweep(
                        &self.engine,
                        &request.explain.query,
                        &request.explain.settings,
                    )
                });
                Response::json(TimelineResponse::from_points(&points).to_json().render())
            }
            _ => {
                let buffer = match api::ingest_request(req) {
                    Ok(b) => b,
                    Err(e) => return e.into_response(),
                };
                match t.span(tag, h, "ingest.commit", "", |_| self.ingest.commit(buffer)) {
                    Ok(receipt) => {
                        t.note(tag, h, "ingest.invalidated", "", receipt.invalidated as f64);
                        t.note(
                            tag,
                            h,
                            "ingest.changed_items",
                            "",
                            receipt.changed_items.len() as f64,
                        );
                        Response::json(api::receipt_to_json(&receipt).render())
                    }
                    Err(e) => api::from_ingest(&e).into_response(),
                }
            }
        }
    }

    /// `/api/v1/explain`, as `AppState`'s route (no deadline header is sent).
    fn explain(&self, req: &Request, tag: u64, h: u32) -> Response {
        let t = &self.tracer;
        let (request, mode) = match t.span(tag, h, "server.decode", "explain", |_| {
            api::explain_request_opts(req)
        }) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        self.scheduler.record(&request);
        if self.engine.foreground_inflight() >= self.shed_watermark && !self.engine.cached(&request)
        {
            return ApiError::overloaded(self.engine.foreground_inflight(), self.shed_watermark)
                .into_response()
                .with_header("Retry-After", "1");
        }
        let (result, served) = t.span_with(tag, h, "explore.explain", |_| {
            let (result, served) = self
                .engine
                .explain_opts(&request, &Budget::unlimited(), mode);
            ((result, served), served.as_str())
        });
        let response = match &*result {
            Ok(r) => {
                let body = t.span(tag, h, "server.render", "explain", |_| {
                    let mut body = ExplainResponse::from_explanation(&r.explanation);
                    if let Some(info) = &r.approx {
                        body = body.with_approx(info);
                    }
                    body.to_json().render()
                });
                t.note(tag, h, "server.resp_bytes", "explain", body.len() as f64);
                let sample = match served {
                    ServedFrom::Cold => Some(&self.misses),
                    ServedFrom::SnapshotCache => Some(&self.snapshots),
                    _ => None,
                };
                if let Some(reservoir) = sample {
                    reservoir.lock().expect("reservoir lock").offer(Replay {
                        tag,
                        request: request.clone(),
                        served: served.as_str(),
                        dataset: Arc::downgrade(&r.dataset),
                        body: body.clone(),
                    });
                }
                Response::json(body)
            }
            Err(e) => ApiError::from_mine(e).into_response(),
        };
        response.with_header("X-MapRat-Cache", served.as_str())
    }

    /// `/api/v1/drill` and `/api/v1/detail`: one explained group's cities
    /// or statistics panel.
    fn group_route(&self, route: &str, req: &Request, tag: u64, h: u32) -> Response {
        let t = &self.tracer;
        let request = match DrillRequest::from_request(req) {
            Ok(r) => r,
            Err(e) => return e.into_response(),
        };
        let label = if route == "/api/v1/drill" {
            "drill"
        } else {
            "detail"
        };
        let result = t.span(tag, h, "explore.explain", label, |_| {
            self.engine.explain(&request.explain)
        });
        let r = match &*result {
            Ok(r) => r,
            Err(e) => return ApiError::from_mine(e).into_response(),
        };
        let Some(group) = r
            .explanation
            .interpretation(request.task)
            .groups
            .get(request.idx)
        else {
            return ApiError::not_found(format!(
                "no group {} in {}",
                request.idx,
                api::task_code(request.task)
            ))
            .into_response();
        };
        if route == "/api/v1/drill" {
            return match t.span(tag, h, "explore.drill", "", |_| {
                drill_group(&r.dataset, r, &group.desc)
            }) {
                Some(cities) => Response::json(
                    DrillResponse {
                        group: group.label.clone(),
                        cities: cities
                            .iter()
                            .map(|c| api::CityDto {
                                city: c.city.to_string(),
                                count: c.stats.count() as usize,
                                mean: c.stats.mean(),
                            })
                            .collect(),
                    }
                    .to_json()
                    .render(),
                ),
                None => ApiError::bad_request("group has no geo condition").into_response(),
            };
        }
        let Some(detail) = t.span(tag, h, "explore.detail", "", |_| {
            compare::group_detail(r, &group.desc)
        }) else {
            return ApiError::not_found("group not among candidates").into_response();
        };
        Response::json(
            DetailResponse {
                label: detail.label.clone(),
                count: detail.stats.count() as usize,
                mean: detail.stats.mean(),
                histogram: detail
                    .stats
                    .histogram()
                    .iter()
                    .map(|&n| n as usize)
                    .collect(),
                overall_mean: detail.total.mean(),
                related: detail
                    .related
                    .iter()
                    .map(|rg| RelatedDto {
                        label: rg.label.clone(),
                        relation: match rg.relation {
                            Relation::Parent => "roll-up",
                            Relation::Sibling => "sibling",
                        }
                        .to_string(),
                        mean: rg.stats.mean(),
                        count: rg.stats.count() as usize,
                    })
                    .collect(),
            }
            .to_json()
            .render(),
        )
    }

    /// Answers the last request of every composed read route through both
    /// this handler and `AppState`'s, and names any that differ.
    fn fidelity(&self) -> Vec<String> {
        self.tracer.on.store(false, Ordering::Relaxed);
        let last = self.last.lock().expect("last lock").clone();
        let mut diffs: Vec<String> = last
            .iter()
            .filter_map(|(route, req)| {
                let ours = self.dispatch(req);
                let real = (self.inner)(req);
                (ours.status != real.status || ours.body != real.body)
                    .then(|| format!("traced {route} differs from AppState's"))
            })
            .collect();
        diffs.sort();
        self.tracer.on.store(true, Ordering::Relaxed);
        diffs
    }
}

/// Replays one explain stage by stage; `Err` when it fails or renders
/// other bytes than the server sent from the same snapshot.
fn replay(t: &Tracer, engine: &MapRatEngine, r: &Replay) -> Result<(), String> {
    let pinned = r.dataset.upgrade();
    let dataset = pinned.clone().unwrap_or_else(|| engine.dataset());
    let (query, s): (&ItemQuery, &SearchSettings) = (&r.request.query, &r.request.settings);
    let threads = maprat_core::pool::num_threads();
    let (tag, p) = (r.tag, 0);
    let body = t.span(
        tag,
        p,
        "bench.replay",
        r.served,
        |p| -> Result<String, MineError> {
            let miner = Miner::new(&dataset);
            let (items, universe) = t.span(tag, p, "core.query", "", |_| {
                miner.collect_universe(query, s)
            })?;
            t.note(tag, p, "core.universe_ratings", "", universe.len() as f64);
            let options = CubeOptions {
                min_support: s.min_support,
                require_geo: s.require_geo,
                max_arity: s.max_arity,
            };
            let plan = t.span(tag, p, "cube.count", "", |_| {
                CubePlan::prepare(&dataset, universe, options, threads)
            });
            let cube = t.span(tag, p, "cube.fill", "", |_| plan.fill(threads));
            t.note(tag, p, "cube.groups", "", cube.len() as f64);
            let problem = t.span(tag, p, "core.problem", "", |_| {
                MiningProblem::new(&cube, s.max_groups, s.min_coverage, s.dm_lambda)
            });
            t.note(tag, p, "core.pool_size", "", problem.pool_size() as f64);
            let mut tabs = Vec::new();
            for task in Task::ALL {
                let code = api::task_code(task);
                let (solution, stats) = t
                    .span(tag, p, "core.rhe", code, |_| {
                        rhe::solve_with_stats(&problem, task, &s.rhe)
                    })
                    .ok_or(MineError::NoCandidates)?;
                t.note(tag, p, "core.rhe_iterations", code, stats.iterations as f64);
                t.note(
                    tag,
                    p,
                    "core.rhe_evaluations",
                    code,
                    stats.evaluations as f64,
                );
                tabs.push(Interpretation::from_solution(&problem, task, &solution));
            }
            let diversity = tabs.pop().expect("two tasks");
            let similarity = tabs.pop().expect("two tasks");
            let explanation = Explanation {
                query: query.describe(),
                items,
                num_ratings: cube.universe(),
                total: *cube.total_stats(),
                similarity,
                diversity,
            };
            Ok(ExplainResponse::from_explanation(&explanation)
                .to_json()
                .render())
        },
    );
    let body = body.map_err(|e| format!("replay of request {tag} failed: {e}"))?;
    if pinned.is_some() && body != r.body {
        return Err(format!(
            "replay of request {tag} renders other bytes than the server sent"
        ));
    }
    Ok(())
}

/// What the traced run contributes to the result line.
pub struct Traced {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs the traced pass, replays, prints the layer table, and returns the
/// per-layer metrics.
pub fn run(
    env: &Env,
    dataset: Dataset,
    plan: &Arc<Plan>,
    seed: u64,
    seconds: f64,
    untraced: &EndToEnd,
) -> Result<Traced, String> {
    let workload = plan.workload;
    // As `maprat serve` sets up: load, 8-item precompute, scheduler, ingest.
    let engine = MapRatEngine::from_dataset(dataset);
    let settings = SearchSettings::builder()
        .min_coverage(0.2)
        .build()
        .map_err(|e| e.to_string())?;
    engine.precompute_popular(8, &settings);
    let scheduler = Arc::new(PrecomputeScheduler::start(engine.clone()));
    let wal = if workload == Workload::IngestMixed {
        Some(env.fresh("wal-traced")?)
    } else {
        None
    };
    let ingest = Arc::new(match &wal {
        Some(dir) => {
            IngestService::with_wal(engine.clone(), dir)
                .map_err(|e| format!("cannot open WAL: {e}"))?
                .0
        }
        None => IngestService::new(engine.clone()),
    });
    let inner = AppState::new(engine.clone())
        .with_precompute(Arc::clone(&scheduler))
        .with_ingest(Arc::clone(&ingest))
        .into_handler();
    let routes = Arc::new(Routes {
        tracer: Tracer::new(),
        engine: engine.clone(),
        scheduler,
        ingest,
        inner,
        shed_watermark: 4 * maprat_core::pool::num_threads(),
        misses: Mutex::new(Reservoir {
            seen: 0,
            items: Vec::new(),
            rng: Rng::derive(seed, 7, 0),
        }),
        snapshots: Mutex::new(Reservoir {
            seen: 0,
            items: Vec::new(),
            rng: Rng::derive(seed, 7, 1),
        }),
        last: Mutex::new(HashMap::new()),
    });
    let handler: Handler = {
        let routes = Arc::clone(&routes);
        Arc::new(move |req: &Request| routes.dispatch(req))
    };
    let mut server =
        HttpServer::start("127.0.0.1:0", 4 * maprat_core::pool::num_threads(), handler)
            .map_err(|e| format!("cannot start the traced server: {e}"))?;
    let addr = SocketAddr::from(([127, 0, 0, 1], server.port()));
    let before = engine.serving_stats();
    let mut outcome = crate::drive::drive(addr, plan.warmup(), crate::sessions(plan), seconds);
    let after = engine.serving_stats();
    server.shutdown();
    for diff in routes.fidelity() {
        outcome.fail(diff);
    }
    let mut replayed = 0;
    for reservoir in [&routes.misses, &routes.snapshots] {
        for r in &reservoir.lock().expect("reservoir lock").items {
            replayed += 1;
            if let Err(e) = replay(&routes.tracer, &engine, r) {
                outcome.fail(e);
            }
        }
    }
    if after.approx_served != before.approx_served {
        outcome.fail("approximate answers were served".into());
    }
    let spans = std::mem::take(&mut *routes.tracer.spans.lock().expect("span lock"));
    let path = env
        .work
        .join(format!("trace-{}-{seed}.tsv", workload.name()));
    write_spans(&path, &spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;

    let traced = EndToEnd::of(&outcome);
    let layers = Layers::of(
        &spans,
        &outcome,
        &before,
        &after,
        traced.mean_service_ms,
        untraced.mean_service_ms,
        wal.as_deref(),
    );
    println!(
        "# traced pass: {} requests, {replayed} explains replayed, {} spans in {}",
        outcome.attempted(),
        spans.len(),
        path.display()
    );
    layers.print_table(&spans);
    for e in &outcome.errors {
        println!("failure: {e}");
    }
    let mut metrics = Metrics::default();
    for name in PER_LAYER {
        let (value, unit) = layers.get(name);
        metrics.put(name, value, unit);
    }
    Ok(Traced {
        metrics,
        attempted: outcome.attempted(),
        failed: outcome.failed,
    })
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::from("req\tid\tparent\tname\tlabel\tstart_ns\tend_ns\tvalue\n");
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.req, s.id, s.parent, s.name, s.label, s.start_ns, s.end_ns, s.value
        )
        .expect("string write");
    }
    std::fs::write(path, out)
}

/// The per-layer figures, by metric name.
struct Layers(Vec<(&'static str, f64, &'static str)>);

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        f64::NAN
    } else {
        num as f64 / den as f64
    }
}

impl Layers {
    fn of(
        spans: &[Span],
        out: &Outcome,
        before: &ServingStats,
        after: &ServingStats,
        traced_ms: f64,
        untraced_ms: f64,
        wal: Option<&std::path::Path>,
    ) -> Layers {
        // Which replays count for a stage: the cube and query stages ran in
        // the engine only for misses, problem set-up and solves also for
        // snapshot hits.
        let replay_label: HashMap<u32, &str> = spans
            .iter()
            .filter(|s| s.name == "bench.replay")
            .map(|s| (s.id, s.label))
            .collect();
        let of = |name: &str, label: Option<&str>, labels: &[&str], value: bool| {
            mean(
                spans
                    .iter()
                    .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
                    .filter(|s| {
                        labels.is_empty()
                            || replay_label
                                .get(&s.parent)
                                .is_some_and(|l| labels.contains(l))
                    })
                    .map(|s| if value { s.value } else { s.ms() }),
            )
        };
        let miss = &["miss"][..];
        let solved = &["miss", "snapshot"][..];
        // `explore.explain` spans of the explain route carry the served
        // label; those of the interaction routes carry the route.
        let explains: Vec<&Span> = spans
            .iter()
            .filter(|s| {
                s.name == "explore.explain" && !["map", "drill", "detail"].contains(&s.label)
            })
            .collect();
        let handler: HashMap<u64, &Span> = spans
            .iter()
            .filter(|s| s.name == "server.handler")
            .map(|s| (s.req, s))
            .collect();
        let handler_ms = |want: &dyn Fn(&str) -> bool| {
            mean(handler.values().filter(|s| want(s.label)).map(|s| s.ms()))
        };
        let http = mean(
            out.samples
                .iter()
                .filter_map(|s| handler.get(&s.tag).map(|h| s.latency_ms - h.ms())),
        );
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let hits = d(after.result_hits, before.result_hits)
            + d(after.result_stale_hits, before.result_stale_hits);
        let misses = d(after.result_misses, before.result_misses);
        let snap_hits = d(after.snapshot_hits, before.snapshot_hits);
        let snap_misses = d(after.snapshot_misses, before.snapshot_misses);
        let led = d(after.flights_led, before.flights_led);
        let joined = d(after.flights_joined, before.flights_joined);
        let n_explains = explains.len() as u64;
        let n_misses = explains.iter().filter(|s| s.label == "miss").count() as u64;
        Layers(vec![
            ("core.query_ms", of("core.query", None, miss, false), "ms"),
            (
                "core.universe_ratings",
                of("core.universe_ratings", None, miss, true),
                "count",
            ),
            ("cube.count_ms", of("cube.count", None, miss, false), "ms"),
            ("cube.fill_ms", of("cube.fill", None, miss, false), "ms"),
            ("cube.groups", of("cube.groups", None, miss, true), "count"),
            (
                "core.problem_ms",
                of("core.problem", None, solved, false),
                "ms",
            ),
            (
                "core.pool_size",
                of("core.pool_size", None, solved, true),
                "count",
            ),
            (
                "core.rhe_sm_ms",
                of("core.rhe", Some("sm"), solved, false),
                "ms",
            ),
            (
                "core.rhe_dm_ms",
                of("core.rhe", Some("dm"), solved, false),
                "ms",
            ),
            (
                "core.rhe_iterations",
                of("core.rhe_iterations", None, solved, true),
                "count",
            ),
            (
                "core.rhe_evaluations",
                of("core.rhe_evaluations", None, solved, true),
                "count",
            ),
            (
                "explore.explain_ms",
                mean(explains.iter().map(|s| s.ms())),
                "ms",
            ),
            (
                "explore.explain_miss_ms",
                mean(
                    explains
                        .iter()
                        .filter(|s| s.label == "miss")
                        .map(|s| s.ms()),
                ),
                "ms",
            ),
            ("explore.miss_share", ratio(n_misses, n_explains), "ratio"),
            (
                "explore.solves_per_request",
                ratio(d(after.solves, before.solves), out.attempted()),
                "ratio",
            ),
            (
                "cache.result_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            (
                "server.handler_explain_ms",
                handler_ms(&|r| r == "/api/v1/explain"),
                "ms",
            ),
            (
                "server.handler_interact_ms",
                handler_ms(&|r| r != "/api/v1/explain" && r != "/api/v1/ingest"),
                "ms",
            ),
            ("server.http_ms", http, "ms"),
            (
                "server.decode_us",
                of("server.decode", Some("explain"), &[], false) * 1e3,
                "us",
            ),
            (
                "server.render_us",
                of("server.render", Some("explain"), &[], false) * 1e3,
                "us",
            ),
            (
                "server.resp_bytes",
                of("server.resp_bytes", Some("explain"), &[], true),
                "bytes",
            ),
            ("geo.svg_ms", of("geo.svg", None, &[], false), "ms"),
            (
                "geo.svg_bytes",
                of("geo.svg_bytes", None, &[], true),
                "bytes",
            ),
            (
                "bench.trace_overhead_pct",
                (traced_ms / untraced_ms - 1.0) * 100.0,
                "%",
            ),
            // Workload-specific: reported where they apply.
            (
                "explore.drill_ms",
                of("explore.drill", None, &[], false),
                "ms",
            ),
            (
                "explore.detail_ms",
                of("explore.detail", None, &[], false),
                "ms",
            ),
            (
                "explore.timeline_ms",
                of("explore.timeline", None, &[], false),
                "ms",
            ),
            (
                "explore.personalize_ms",
                of("explore.personalize", None, &[], false),
                "ms",
            ),
            (
                "cache.snapshot_hit_ratio",
                ratio(snap_hits, snap_hits + snap_misses),
                "ratio",
            ),
            (
                "cache.flight_join_ratio",
                ratio(joined, led + joined),
                "ratio",
            ),
            (
                "cache.invalidations",
                d(after.invalidations, before.invalidations) as f64,
                "count",
            ),
            (
                "ingest.commit_ms",
                of("ingest.commit", None, &[], false),
                "ms",
            ),
            (
                "ingest.invalidated",
                of("ingest.invalidated", None, &[], true),
                "count",
            ),
            (
                "ingest.changed_items",
                of("ingest.changed_items", None, &[], true),
                "count",
            ),
            (
                "ingest.wal_bytes",
                wal.map_or(f64::NAN, |w| crate::server::dir_bytes(w) as f64),
                "bytes",
            ),
        ])
    }

    fn get(&self, name: &str) -> (f64, &'static str) {
        self.0
            .iter()
            .find(|(n, ..)| *n == name)
            .map(|&(_, v, u)| (v, u))
            .expect("known layer metric")
    }

    /// Prints the metrics, a self-time table per span name and label, the
    /// explain mix by served label, and the unaccounted share of a miss.
    fn print_table(&self, spans: &[Span]) {
        for (name, value, unit) in &self.0 {
            if value.is_finite() {
                println!("{name} {value:.4} {unit}");
            } else {
                println!("{name} absent");
            }
        }
        let mut children: HashMap<u32, f64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *children.entry(s.parent).or_default() += s.ms();
        }
        let mut rows: BTreeMap<(&str, &str), (usize, f64)> = BTreeMap::new();
        for s in spans
            .iter()
            .filter(|s| s.end_ns > s.start_ns || s.value == 0.0)
        {
            let row = rows.entry((s.name, s.label)).or_default();
            row.0 += 1;
            row.1 += s.ms() - children.get(&s.id).copied().unwrap_or(0.0);
        }
        let total: f64 = spans
            .iter()
            .filter(|s| s.name == "server.handler")
            .map(Span::ms)
            .sum();
        println!(
            "{:<28} {:<20} {:>8} {:>12} {:>10} {:>7}",
            "span", "label", "count", "self_ms", "mean_ms", "ratio"
        );
        for ((name, label), (n, t)) in &rows {
            println!(
                "{name:<28} {label:<20} {n:>8} {t:>12.3} {:>10.4} {:>7.4}",
                t / *n as f64,
                t / total
            );
        }
        // The unaccounted part of a miss: its `explore.explain` time less
        // the replayed stages of the same request.
        let explain_ms: HashMap<u64, f64> = spans
            .iter()
            .filter(|s| s.name == "explore.explain" && s.label == "miss")
            .map(|s| (s.req, s.ms()))
            .collect();
        let (mut n, mut explained, mut staged) = (0usize, 0.0, 0.0);
        for r in spans
            .iter()
            .filter(|s| s.name == "bench.replay" && s.label == "miss")
        {
            if let Some(&e) = explain_ms.get(&r.req) {
                n += 1;
                explained += e;
                staged += spans
                    .iter()
                    .filter(|s| s.parent == r.id && s.end_ns > s.start_ns)
                    .map(Span::ms)
                    .sum::<f64>();
            }
        }
        let n = n.max(1) as f64;
        println!(
            "replayed misses: explore.explain {:.4} ms; query+count+fill+problem+rhe {:.4} ms; unaccounted {:.4} ms; render after it {:.4} ms",
            explained / n,
            staged / n,
            (explained - staged) / n,
            self.get("server.render_us").0 / 1e3
        );
    }
}
