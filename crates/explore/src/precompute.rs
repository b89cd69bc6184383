//! Popularity-driven background precompute.
//!
//! The paper's demo stayed interactive through "aggressive … result
//! pre-computation" (§2.3). [`PrecomputeScheduler`] makes that
//! continuous: routes record every explain they serve, and a ticker
//! re-warms the most popular requests that have fallen out of the cache
//! — so the entries users actually revisit are the ones that answer at
//! cache latency.
//!
//! Warm work *rides idle pool workers*: the ticker itself is a
//! lightweight thread that never mines; each tick it submits at most one
//! short job to the shared worker pool, and that job warms at most
//! [`budget`](PrecomputeScheduler::start_with) requests. Backpressure is
//! explicit and two-layered — a tick is skipped entirely while any
//! foreground explain is in flight, and the warm job re-checks the
//! foreground gauge between requests and yields early. Foreground
//! traffic therefore always wins: the scheduler only ever spends worker
//! time that would otherwise be idle.
//!
//! Tuned by `MAPRAT_PRECOMPUTE_BUDGET` (warms per tick, default 2;
//! `0` disables the scheduler) and `MAPRAT_PRECOMPUTE_MS` (tick
//! interval, default 50 ms).

use crate::engine::{ExplainRequest, MapRatEngine};
use maprat_core::pool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// How many popularity entries we track before pruning cold ones.
const MAX_TRACKED: usize = 1024;

struct SchedulerInner {
    engine: MapRatEngine,
    popularity: Mutex<HashMap<ExplainRequest, u64>>,
    budget: usize,
    /// `stop` flag behind a mutex so [`PrecomputeScheduler::stop`] can
    /// interrupt the ticker's inter-tick wait via `stop_signal` instead
    /// of sleeping out the full interval.
    stop: Mutex<bool>,
    stop_signal: Condvar,
    tick_in_flight: AtomicBool,
    warmed: AtomicU64,
    deferred: AtomicU64,
}

/// A background warmer bound to one [`MapRatEngine`] (see the
/// [module docs](self) for the scheduling and backpressure model).
///
/// Dropping the scheduler stops the ticker. In-flight warm jobs finish
/// (they are short by construction) but no new ticks fire.
pub struct PrecomputeScheduler {
    inner: Arc<SchedulerInner>,
    ticker: Option<std::thread::JoinHandle<()>>,
}

impl PrecomputeScheduler {
    /// Starts a scheduler with environment-tuned budget and interval
    /// (`MAPRAT_PRECOMPUTE_BUDGET`, `MAPRAT_PRECOMPUTE_MS`).
    pub fn start(engine: MapRatEngine) -> Self {
        let budget = std::env::var("MAPRAT_PRECOMPUTE_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        let interval = std::env::var("MAPRAT_PRECOMPUTE_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(50));
        Self::start_with(engine, budget, interval)
    }

    /// Starts a scheduler with an explicit per-tick warm budget and tick
    /// interval. A `budget` of 0 records popularity but never warms.
    pub fn start_with(engine: MapRatEngine, budget: usize, interval: Duration) -> Self {
        let inner = Arc::new(SchedulerInner {
            engine,
            popularity: Mutex::new(HashMap::new()),
            budget,
            stop: Mutex::new(false),
            stop_signal: Condvar::new(),
            tick_in_flight: AtomicBool::new(false),
            warmed: AtomicU64::new(0),
            deferred: AtomicU64::new(0),
        });
        let ticker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("maprat-precompute".into())
                .spawn(move || loop {
                    // Interruptible inter-tick wait: `stop()` flips the
                    // flag and notifies, so shutdown never waits out the
                    // interval (which may be hours in tests). The flag is
                    // checked *before* waiting too — a stop that lands
                    // while the ticker is outside the wait (or before its
                    // first one) must not be lost for a full interval.
                    let stopped = lock(&inner.stop);
                    if *stopped {
                        return;
                    }
                    let (stopped, timeout) = inner
                        .stop_signal
                        .wait_timeout(stopped, interval)
                        .unwrap_or_else(PoisonError::into_inner);
                    if *stopped {
                        return;
                    }
                    drop(stopped); // never tick while holding the lock
                    if timeout.timed_out() {
                        inner.dispatch_tick();
                    }
                })
                .expect("spawn precompute ticker")
        };
        PrecomputeScheduler {
            inner,
            ticker: Some(ticker),
        }
    }

    /// Records one served request: the popularity signal the warm picks
    /// maximise. Cheap enough to call on every explain route hit.
    pub fn record(&self, request: &ExplainRequest) {
        let mut popularity = lock(&self.inner.popularity);
        if popularity.len() >= MAX_TRACKED && !popularity.contains_key(request) {
            // Prune the cold half rather than grow without bound.
            popularity.retain(|_, count| *count > 1);
        }
        *popularity.entry(request.clone()).or_insert(0) += 1;
    }

    /// Runs one warm pass synchronously on the calling thread (the
    /// ticker submits exactly this as a pool job; tests call it directly
    /// for determinism). Returns how many requests were warmed.
    pub fn tick_once(&self) -> usize {
        self.inner.tick_once()
    }

    /// Requests warmed so far.
    pub fn warmed(&self) -> u64 {
        self.inner.warmed.load(Ordering::Relaxed)
    }

    /// Ticks skipped or cut short because foreground traffic was in
    /// flight (the backpressure counter).
    pub fn deferred(&self) -> u64 {
        self.inner.deferred.load(Ordering::Relaxed)
    }

    /// Stops the ticker and waits for it to exit (immediately — the
    /// ticker's wait is interruptible, not a sleep).
    pub fn stop(&mut self) {
        *lock(&self.inner.stop) = true;
        self.inner.stop_signal.notify_all();
        if let Some(ticker) = self.ticker.take() {
            let _ = ticker.join();
        }
    }
}

impl Drop for PrecomputeScheduler {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl SchedulerInner {
    /// Ticker-side gate: skip under foreground load or while a previous
    /// warm job is still running, otherwise submit one pool job.
    fn dispatch_tick(self: &Arc<Self>) {
        if self.budget == 0 {
            return;
        }
        if self.engine.foreground_inflight() > 0 {
            self.deferred.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self
            .tick_in_flight
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return; // previous warm job still on the pool
        }
        let inner = Arc::clone(self);
        pool::global().spawn(move || {
            let _ = inner.tick_once();
            inner.tick_in_flight.store(false, Ordering::SeqCst);
        });
    }

    fn tick_once(&self) -> usize {
        // Most-popular-first; ties broken by fingerprint for determinism.
        let mut candidates: Vec<(u64, ExplainRequest)> = lock(&self.popularity)
            .iter()
            .map(|(request, &count)| (count, request.clone()))
            .collect();
        candidates
            .sort_by_key(|(count, request)| (std::cmp::Reverse(*count), request.fingerprint()));
        // Warm one request at a time, re-checking the foreground gauge
        // before each: a warm occupies one worker for one solve, and
        // foreground traffic arriving mid-pass takes the rest.
        let mut warmed = 0;
        for (_, request) in candidates {
            if warmed >= self.budget {
                break;
            }
            if self.engine.foreground_inflight() > 0 {
                // Foreground arrived mid-pass: yield the worker now.
                self.deferred.fetch_add(1, Ordering::Relaxed);
                break;
            }
            if self.engine.warm(&request) {
                warmed += 1;
                self.warmed.fetch_add(1, Ordering::Relaxed);
            }
        }
        warmed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_core::query::ItemQuery;
    use maprat_core::SearchSettings;
    use maprat_data::synth::{generate, SynthConfig};

    fn engine() -> MapRatEngine {
        MapRatEngine::from_dataset(generate(&SynthConfig::tiny(117)).unwrap())
    }

    fn request(title: &str) -> ExplainRequest {
        ExplainRequest::new(
            ItemQuery::title(title),
            SearchSettings::default()
                .with_min_coverage(0.1)
                .with_require_geo(false),
        )
    }

    #[test]
    fn tick_warms_most_popular_first() {
        let engine = engine();
        // Budget 0 + long interval: the ticker never warms on its own, so
        // the synchronous tick below is the only actor.
        let scheduler =
            PrecomputeScheduler::start_with(engine.clone(), 0, Duration::from_secs(3600));
        let popular = request("Toy Story");
        for _ in 0..5 {
            scheduler.record(&popular);
        }
        scheduler.record(&request("No Such Movie"));
        // Budget-0 scheduler records but never warms.
        assert_eq!(scheduler.tick_once(), 0);
        assert_eq!(engine.cache_len(), 0);

        let scheduler2 =
            PrecomputeScheduler::start_with(engine.clone(), 1, Duration::from_secs(3600));
        for _ in 0..5 {
            scheduler2.record(&popular);
        }
        scheduler2.record(&request("No Such Movie"));
        assert_eq!(scheduler2.tick_once(), 1, "one warm within budget");
        assert_eq!(scheduler2.warmed(), 1);
        let (_, served) = engine.explain_opts(
            &popular,
            &maprat_core::Budget::unlimited(),
            crate::approx::ApproxMode::default(),
        );
        assert_eq!(
            served,
            crate::engine::ServedFrom::ResultCache,
            "the popular request was the one warmed"
        );
    }

    #[test]
    fn warmed_entries_are_not_rewarmed() {
        let engine = engine();
        let scheduler =
            PrecomputeScheduler::start_with(engine.clone(), 4, Duration::from_secs(3600));
        scheduler.record(&request("Toy Story"));
        assert_eq!(scheduler.tick_once(), 1);
        assert_eq!(scheduler.tick_once(), 0, "already resident → no work");
        assert_eq!(scheduler.warmed(), 1);
    }

    #[test]
    fn background_ticker_warms_recorded_requests() {
        let engine = engine();
        let mut scheduler =
            PrecomputeScheduler::start_with(engine.clone(), 2, Duration::from_millis(5));
        scheduler.record(&request("Toy Story"));
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while scheduler.warmed() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(scheduler.warmed() >= 1, "ticker warmed in the background");
        scheduler.stop();
        let warmed = scheduler.warmed();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(scheduler.warmed(), warmed, "no warms after stop");
    }

    #[test]
    fn popularity_table_is_bounded() {
        let engine = engine();
        let scheduler = PrecomputeScheduler::start_with(engine, 0, Duration::from_secs(3600));
        for i in 0..(MAX_TRACKED + 200) {
            scheduler.record(&request(&format!("Movie {i}")));
        }
        assert!(lock(&scheduler.inner.popularity).len() <= MAX_TRACKED + 1);
    }
}
