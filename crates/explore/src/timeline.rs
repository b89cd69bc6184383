//! The time slider (§3.1): "Moving the time slider over the range of
//! values allows the user to observe reviewer groups that provide best
//! interpretations for the movie and how they change over time."
//!
//! A [`TimeSlider`] splits the dataset's rating history into month windows
//! and re-mines the query inside each, producing a [`TimelinePoint`]
//! series: window, volume, overall mean and the top SM groups.
//!
//! Windows are independent engine calls against the already-thread-safe
//! sharded cache, so [`TimeSlider::sweep`] mines them on the shared
//! worker pool, up to [`maprat_core::parallel::num_threads`] workers
//! (sized by `MAPRAT_THREADS`, read once at first use; no per-sweep
//! OS-thread spawn). Points come back in slider order and are
//! bit-identical for any thread count.

use crate::engine::MapRatEngine;
use maprat_core::query::ItemQuery;
use maprat_core::{parallel, MineError, Miner, SearchSettings};
use maprat_cube::{CubeOptions, ProfileSummary};
use maprat_data::{Dataset, MonthKey, TimeRange};
use std::collections::BTreeMap;

/// One position of the slider.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// First month of the window (inclusive).
    pub from: MonthKey,
    /// Last month of the window (inclusive).
    pub to: MonthKey,
    /// Ratings in the window.
    pub num_ratings: usize,
    /// Overall mean in the window.
    pub overall_mean: Option<f64>,
    /// The SM groups of the window: `(label, mean, support)`.
    pub top_groups: Vec<(String, f64, usize)>,
    /// Why the window produced no groups, when it did not.
    pub skipped: Option<String>,
}

/// A slider over a query.
pub struct TimeSlider {
    months: Vec<MonthKey>,
    /// Window length in months.
    pub window: usize,
    /// Step between consecutive windows in months.
    pub step: usize,
}

impl TimeSlider {
    /// Number of calendar months the dataset's ratings span, first
    /// through last inclusive; 0 for a dataset without ratings.
    pub fn span_months(dataset: &Dataset) -> usize {
        dataset.time_span().map_or(0, |(lo, hi)| {
            lo.month_key().months_until(hi.month_key()) as usize + 1
        })
    }

    /// Builds a slider spanning the whole dataset history. `None` when the
    /// dataset has no ratings, or when `window` or `step` is 0 or longer
    /// than [`span_months`](Self::span_months) — which keeps every
    /// window's last month within reach of the calendar.
    pub fn over_dataset(dataset: &Dataset, window: usize, step: usize) -> Option<TimeSlider> {
        let (lo, hi) = dataset.time_span()?;
        let months: Vec<MonthKey> = lo.month_key().iter_through(hi.month_key()).collect();
        let span = 1..=months.len();
        (span.contains(&window) && span.contains(&step)).then_some(TimeSlider {
            months,
            window,
            step,
        })
    }

    /// The window start months.
    pub fn positions(&self) -> Vec<MonthKey> {
        if self.months.is_empty() {
            return Vec::new();
        }
        self.months.iter().copied().step_by(self.step).collect()
    }

    /// The inclusive month range of the window starting at `from`.
    pub fn window_at(&self, from: MonthKey) -> (MonthKey, MonthKey) {
        let to = from
            .checked_add(self.window - 1)
            .expect("the window is bounded by the dataset's span");
        (from, to)
    }

    /// Mines every window through the engine's cache, in parallel on the
    /// default worker count, and returns the evolution series in slider
    /// order.
    pub fn sweep(
        &self,
        engine: &MapRatEngine,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Vec<TimelinePoint> {
        self.sweep_with_threads(engine, query, settings, parallel::num_threads())
    }

    /// Like [`sweep`](TimeSlider::sweep) with an explicit worker-thread
    /// cap. The returned points are identical for every `threads` value.
    pub fn sweep_with_threads(
        &self,
        engine: &MapRatEngine,
        query: &ItemQuery,
        settings: &SearchSettings,
        threads: usize,
    ) -> Vec<TimelinePoint> {
        let positions = self.positions();
        parallel::parallel_map(positions.len(), threads, |i| {
            let (from, to) = self.window_at(positions[i]);
            let windowed = query.clone().within(TimeRange::months(from..=to));
            let result = engine.explain_query(&windowed, settings);
            match &*result {
                Ok(r) => TimelinePoint {
                    from,
                    to,
                    num_ratings: r.explanation.num_ratings,
                    overall_mean: r.explanation.total.mean(),
                    top_groups: r
                        .explanation
                        .similarity
                        .groups
                        .iter()
                        .map(|g| (g.label.clone(), g.stats.mean().unwrap_or(0.0), g.support))
                        .collect(),
                    skipped: None,
                },
                Err(MineError::NoRatings) | Err(MineError::NoCandidates) => TimelinePoint {
                    from,
                    to,
                    num_ratings: 0,
                    overall_mean: None,
                    top_groups: Vec::new(),
                    skipped: Some("too few ratings in window".into()),
                },
                Err(e) => TimelinePoint {
                    from,
                    to,
                    num_ratings: 0,
                    overall_mean: None,
                    top_groups: Vec::new(),
                    skipped: Some(e.to_string()),
                },
            }
        })
    }

    /// Like [`sweep`](TimeSlider::sweep), but instead of re-streaming
    /// the query's ratings per window it scans each *month partition*
    /// once into a [`ProfileSummary`] and mines every window from the
    /// merged partition summaries ([`ProfileSummary::merge`]). All mined
    /// quantities are invariant under universe permutation, so the
    /// points are identical to [`sweep`](TimeSlider::sweep)'s — pinned
    /// by an equality test — while the per-rating work drops from
    /// `O(windows × |R_I|)` to one pass over `|R_I|`.
    ///
    /// Bypasses the engine's cache tiers (each window is mined directly
    /// from the merged summaries against the pinned dataset).
    pub fn sweep_merged(
        &self,
        engine: &MapRatEngine,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Vec<TimelinePoint> {
        self.sweep_merged_with_threads(engine, query, settings, parallel::num_threads())
    }

    /// [`sweep_merged`](TimeSlider::sweep_merged) with an explicit
    /// worker-thread cap. Points are identical for every `threads`
    /// value.
    pub fn sweep_merged_with_threads(
        &self,
        engine: &MapRatEngine,
        query: &ItemQuery,
        settings: &SearchSettings,
        threads: usize,
    ) -> Vec<TimelinePoint> {
        let dataset = engine.dataset();
        let positions = self.positions();
        let skipped_all = |reason: String| -> Vec<TimelinePoint> {
            positions
                .iter()
                .map(|&p| {
                    let (from, to) = self.window_at(p);
                    TimelinePoint {
                        from,
                        to,
                        num_ratings: 0,
                        overall_mean: None,
                        top_groups: Vec::new(),
                        skipped: Some(reason.clone()),
                    }
                })
                .collect()
        };
        if let Err(e) = settings.validate() {
            return skipped_all(e.to_string());
        }
        // Windowing never changes which items match, so resolve once.
        let items = query.items(&dataset);
        if items.is_empty() {
            return skipped_all(MineError::NoMatchingItems(query.describe()).to_string());
        }
        // One scan per month partition — the only per-rating work of the
        // whole sweep. Every window below mines from merged summaries.
        let mut by_month: BTreeMap<MonthKey, Vec<u32>> = BTreeMap::new();
        for &item in &items {
            for (month, range) in dataset.month_slices_for_item(item) {
                by_month.entry(month).or_default().extend(range);
            }
        }
        let summaries: BTreeMap<MonthKey, ProfileSummary> = by_month
            .into_iter()
            .map(|(month, idx)| (month, ProfileSummary::scan(&dataset, idx)))
            .collect();
        let options = CubeOptions {
            min_support: settings.min_support,
            require_geo: settings.require_geo,
            max_arity: settings.max_arity,
        };
        let miner = Miner::new(&dataset);
        parallel::parallel_map(positions.len(), threads, |i| {
            let (from, to) = self.window_at(positions[i]);
            let skip = |reason: String| TimelinePoint {
                from,
                to,
                num_ratings: 0,
                overall_mean: None,
                top_groups: Vec::new(),
                skipped: Some(reason),
            };
            let merged =
                ProfileSummary::merge(from.iter_through(to).filter_map(|m| summaries.get(&m)));
            if merged.universe() == 0 {
                return skip("too few ratings in window".into());
            }
            let cube = merged.build(options.clone());
            if cube.is_empty() {
                return skip("too few ratings in window".into());
            }
            let windowed = query.clone().within(TimeRange::months(from..=to));
            match miner.explain_cube(&windowed, items.clone(), &cube, settings) {
                Ok(explanation) => TimelinePoint {
                    from,
                    to,
                    num_ratings: explanation.num_ratings,
                    overall_mean: explanation.total.mean(),
                    top_groups: explanation
                        .similarity
                        .groups
                        .iter()
                        .map(|g| (g.label.clone(), g.stats.mean().unwrap_or(0.0), g.support))
                        .collect(),
                    skipped: None,
                },
                Err(MineError::NoRatings) | Err(MineError::NoCandidates) => {
                    skip("too few ratings in window".into())
                }
                Err(e) => skip(e.to_string()),
            }
        })
    }
}

/// Renders a sweep as a compact text table (CLI examples / experiments).
pub fn render_sweep(points: &[TimelinePoint]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>6}  top similarity groups",
        "window", "ratings", "mean"
    );
    for p in points {
        let groups = if let Some(reason) = &p.skipped {
            format!("— ({reason})")
        } else {
            p.top_groups
                .iter()
                .map(|(label, mean, _)| format!("{label} ({mean:.2})"))
                .collect::<Vec<_>>()
                .join("; ")
        };
        let _ = writeln!(
            out,
            "{:<18} {:>8} {:>6}  {}",
            format!("{}..{}", p.from, p.to),
            p.num_ratings,
            p.overall_mean
                .map(|m| format!("{m:.2}"))
                .unwrap_or_else(|| "—".into()),
            groups
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn settings() -> SearchSettings {
        SearchSettings::default()
            .with_min_coverage(0.1)
            .with_require_geo(false)
    }

    #[test]
    fn slider_covers_dataset_span() {
        let d = generate(&SynthConfig::tiny(131)).unwrap();
        let slider = TimeSlider::over_dataset(&d, 6, 6).unwrap();
        let positions = slider.positions();
        assert!(!positions.is_empty());
        let (lo, hi) = d.time_span().unwrap();
        assert_eq!(positions[0], lo.month_key());
        assert!(*positions.last().unwrap() <= hi.month_key());
    }

    #[test]
    fn windows_have_requested_length() {
        let d = generate(&SynthConfig::tiny(132)).unwrap();
        let slider = TimeSlider::over_dataset(&d, 6, 3).unwrap();
        let (from, to) = slider.window_at(MonthKey::new(2001, 2));
        assert_eq!(from.months_until(to), 5);
    }

    #[test]
    fn window_and_step_are_bounded_by_the_span() {
        let d = generate(&SynthConfig::tiny(132)).unwrap();
        let span = TimeSlider::span_months(&d);
        assert!(span > 1);
        assert!(TimeSlider::over_dataset(&d, span, span).is_some());
        assert!(TimeSlider::over_dataset(&d, span + 1, 1).is_none());
        assert!(TimeSlider::over_dataset(&d, 1, span + 1).is_none());
        assert!(TimeSlider::over_dataset(&d, 4_000_000_000, 1_000_000).is_none());
        assert!(TimeSlider::over_dataset(&d, 0, 1).is_none());
        let slider = TimeSlider::over_dataset(&d, span, 1).unwrap();
        let last = *slider.positions().last().unwrap();
        let (_, to) = slider.window_at(last);
        assert_eq!(last.months_until(to) as usize, span - 1);
    }

    #[test]
    fn sweep_produces_point_per_position() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::small(133)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 9, 9).unwrap();
        let points = slider.sweep(
            &engine,
            &maprat_core::query::ItemQuery::title("Toy Story"),
            &settings(),
        );
        assert_eq!(points.len(), slider.positions().len());
        // Planted Toy Story spans the full history: most windows non-empty.
        let non_empty = points.iter().filter(|p| p.num_ratings > 0).count();
        assert!(
            non_empty * 2 >= points.len(),
            "{non_empty}/{}",
            points.len()
        );
        for p in &points {
            if p.num_ratings > 0 && p.skipped.is_none() {
                assert!(!p.top_groups.is_empty());
            }
        }
    }

    #[test]
    fn sweep_windows_differ_in_volume() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::small(134)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 6, 6).unwrap();
        let points = slider.sweep(
            &engine,
            &maprat_core::query::ItemQuery::title("Toy Story"),
            &settings(),
        );
        let volumes: Vec<usize> = points.iter().map(|p| p.num_ratings).collect();
        let total: usize = volumes.iter().sum();
        let full = engine.explain_query(
            &maprat_core::query::ItemQuery::title("Toy Story"),
            &settings(),
        );
        if let Ok(r) = &*full {
            // Non-overlapping windows partition the history.
            assert_eq!(total, r.explanation.num_ratings);
        }
    }

    #[test]
    fn parallel_sweep_is_deterministic_in_thread_count() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(136)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 6, 6).unwrap();
        let query = maprat_core::query::ItemQuery::title("Toy Story");
        let single = slider.sweep_with_threads(&engine, &query, &settings(), 1);
        for threads in [2, 3, 8] {
            // A fresh engine per run: identical results must not rely on
            // the earlier sweep's warm cache.
            let cold = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(136)).unwrap());
            let multi = slider.sweep_with_threads(&cold, &query, &settings(), threads);
            assert_eq!(single, multi, "sweep diverged at {threads} threads");
        }
    }

    #[test]
    fn merged_sweep_equals_direct_sweep() {
        // The partition-merge path must reproduce the per-window
        // re-mining path point for point: same volumes, same means, same
        // mined groups in the same order.
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::small(137)).unwrap());
        let query = maprat_core::query::ItemQuery::title("Toy Story");
        for (window, step) in [(6, 6), (9, 3)] {
            let slider = TimeSlider::over_dataset(&engine.dataset(), window, step).unwrap();
            let direct = slider.sweep(&engine, &query, &settings());
            let merged = slider.sweep_merged(&engine, &query, &settings());
            assert_eq!(direct, merged, "window={window} step={step}");
        }
    }

    #[test]
    fn merged_sweep_is_deterministic_in_thread_count() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(138)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 6, 6).unwrap();
        let query = maprat_core::query::ItemQuery::title("Toy Story");
        let single = slider.sweep_merged_with_threads(&engine, &query, &settings(), 1);
        for threads in [2, 8] {
            let multi = slider.sweep_merged_with_threads(&engine, &query, &settings(), threads);
            assert_eq!(single, multi, "merged sweep diverged at {threads} threads");
        }
    }

    #[test]
    fn merged_sweep_skips_unknown_title() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(139)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 6, 6).unwrap();
        let points = slider.sweep_merged(
            &engine,
            &maprat_core::query::ItemQuery::title("No Such Movie"),
            &settings(),
        );
        assert_eq!(points.len(), slider.positions().len());
        assert!(points.iter().all(|p| p.skipped.is_some()));
    }

    #[test]
    fn render_sweep_is_tabular() {
        let engine = MapRatEngine::from_dataset(generate(&SynthConfig::tiny(135)).unwrap());
        let slider = TimeSlider::over_dataset(&engine.dataset(), 12, 12).unwrap();
        let points = slider.sweep(
            &engine,
            &maprat_core::query::ItemQuery::title("Toy Story"),
            &settings(),
        );
        let text = render_sweep(&points);
        assert!(text.contains("window"));
        assert!(text.lines().count() >= points.len());
    }
}
