//! The top-level explanation API — the "Rating Mining" module of the
//! architecture (§2.3): accept items from the front-end, collect `R_I`,
//! construct the candidate groups, and run RHE for both sub-problems.

use crate::budget::Budget;
use crate::error::MineError;
use crate::problem::{MiningProblem, PoolColumns, Task};
use crate::query::ItemQuery;
use crate::rhe;
use crate::settings::SearchSettings;
use crate::solution::Interpretation;
use maprat_cube::{CubeOptions, RatingCube};
use maprat_data::{Dataset, ItemId, RatingStats};
use std::sync::Arc;

/// A complete explanation: both interpretations plus query context.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// Human-readable query description.
    pub query: String,
    /// The matched items.
    pub items: Vec<ItemId>,
    /// Size of `R_I`.
    pub num_ratings: usize,
    /// Aggregate over all of `R_I` (the site-style "overall average" the
    /// paper contrasts against).
    pub total: RatingStats,
    /// The Similarity Mining tab.
    pub similarity: Interpretation,
    /// The Diversity Mining tab.
    pub diversity: Interpretation,
}

impl Explanation {
    /// The interpretation for a task.
    pub fn interpretation(&self, task: Task) -> &Interpretation {
        match task {
            Task::Similarity => &self.similarity,
            Task::Diversity => &self.diversity,
        }
    }

    /// Multi-line text rendering for CLI front-ends.
    pub fn render_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        let _ = writeln!(
            out,
            "matched {} item(s), {} ratings, overall average {:.2}",
            self.items.len(),
            self.num_ratings,
            self.total.mean().unwrap_or(0.0)
        );
        out.push_str(&self.similarity.render_text());
        out.push_str(&self.diversity.render_text());
        out
    }
}

/// The mining façade over a dataset.
pub struct Miner<'a> {
    dataset: &'a Dataset,
}

impl<'a> Miner<'a> {
    /// Creates a miner over a dataset.
    pub fn new(dataset: &'a Dataset) -> Self {
        Miner { dataset }
    }

    /// The underlying dataset.
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Collects the matched items and `R_I` for a query *without*
    /// materializing the cube — the approximate path samples this
    /// universe first and builds the cube over the sample.
    pub fn collect_universe(
        &self,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Result<(Vec<ItemId>, Vec<u32>), MineError> {
        settings.validate()?;
        let items = query.items(self.dataset);
        if items.is_empty() {
            return Err(MineError::NoMatchingItems(query.describe()));
        }
        let rating_idx = query.rating_indexes(self.dataset);
        if rating_idx.is_empty() {
            return Err(MineError::NoRatings);
        }
        Ok((items, rating_idx))
    }

    /// Collects `R_I` and materializes the candidate cube for a query.
    pub fn build_cube(
        &self,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Result<(Vec<ItemId>, RatingCube), MineError> {
        let (items, rating_idx) = self.collect_universe(query, settings)?;
        let cube = RatingCube::build(
            self.dataset,
            rating_idx,
            CubeOptions {
                min_support: settings.min_support,
                require_geo: settings.require_geo,
                max_arity: settings.max_arity,
            },
        );
        if cube.is_empty() {
            return Err(MineError::NoCandidates);
        }
        Ok((items, cube))
    }

    /// Runs both mining tasks over an already-built cube.
    pub fn explain_cube(
        &self,
        query: &ItemQuery,
        items: Vec<ItemId>,
        cube: &RatingCube,
        settings: &SearchSettings,
    ) -> Result<Explanation, MineError> {
        self.explain_cube_budget(query, items, cube, settings, &Budget::unlimited())
    }

    /// Like [`Miner::explain_cube`] under a request [`Budget`]: the solver
    /// checks the deadline every climb iteration and an expired budget
    /// aborts with [`MineError::DeadlineExceeded`] instead of producing a
    /// partially-optimized (schedule-dependent) answer.
    pub fn explain_cube_budget(
        &self,
        query: &ItemQuery,
        items: Vec<ItemId>,
        cube: &RatingCube,
        settings: &SearchSettings,
        budget: &Budget,
    ) -> Result<Explanation, MineError> {
        let columns = Arc::new(PoolColumns::new(cube));
        self.explain_cube_with(query, items, cube, columns, settings, budget)
    }

    /// Like [`Miner::explain_cube_budget`] over the cube's already-built
    /// [`PoolColumns`]: re-solves of one cube under new solver settings
    /// share a single build. Answer-identical to deriving them afresh.
    pub fn explain_cube_with(
        &self,
        query: &ItemQuery,
        items: Vec<ItemId>,
        cube: &RatingCube,
        columns: Arc<PoolColumns>,
        settings: &SearchSettings,
        budget: &Budget,
    ) -> Result<Explanation, MineError> {
        let problem = MiningProblem::with_columns(
            cube,
            columns,
            settings.max_groups,
            settings.min_coverage,
            settings.dm_lambda,
        );
        let mut interpretations = Vec::with_capacity(2);
        for task in Task::ALL {
            let solution = rhe::solve_budget(&problem, task, &settings.rhe, budget)?
                .ok_or(MineError::NoCandidates)?;
            interpretations.push(Interpretation::from_solution(&problem, task, &solution));
        }
        let diversity = interpretations.pop().expect("two tasks");
        let similarity = interpretations.pop().expect("two tasks");
        Ok(Explanation {
            query: query.describe(),
            items,
            num_ratings: cube.universe(),
            total: *cube.total_stats(),
            similarity,
            diversity,
        })
    }

    /// One-call API: query → explanation.
    pub fn explain(
        &self,
        query: &ItemQuery,
        settings: &SearchSettings,
    ) -> Result<Explanation, MineError> {
        let (items, cube) = self.build_cube(query, settings)?;
        self.explain_cube(query, items, &cube, settings)
    }

    /// One-call API under a request [`Budget`].
    pub fn explain_budget(
        &self,
        query: &ItemQuery,
        settings: &SearchSettings,
        budget: &Budget,
    ) -> Result<Explanation, MineError> {
        if budget.expired() {
            return Err(MineError::DeadlineExceeded);
        }
        let (items, cube) = self.build_cube(query, settings)?;
        self.explain_cube_budget(query, items, &cube, settings, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::{AttrValue, Gender, UsState, UserAttr};

    fn dataset() -> Dataset {
        generate(&SynthConfig::small(101)).unwrap()
    }

    #[test]
    fn toy_story_explanation_recovers_planted_sm_groups() {
        let d = dataset();
        let miner = Miner::new(&d);
        let settings = SearchSettings::default().with_min_coverage(0.15);
        let e = miner
            .explain(&ItemQuery::title("Toy Story"), &settings)
            .unwrap();
        assert_eq!(e.similarity.groups.len(), 3);
        // All SM groups carry the geo anchor and rate positively.
        for g in &e.similarity.groups {
            assert!(g.desc.state().is_some(), "geo condition required");
            assert!(g.stats.mean().unwrap() > 3.0, "{}", g.label);
        }
        // The planted CA-male signal should surface in at least one group
        // (as {M, CA} itself or a CA-anchored refinement of it).
        let has_ca_male = e.similarity.groups.iter().any(|g| {
            g.desc.state() == Some(UsState::CA)
                && g.desc.value(UserAttr::Gender) == Some(AttrValue::Gender(Gender::Male))
        });
        let has_planted_state = e.similarity.groups.iter().any(|g| {
            matches!(
                g.desc.state(),
                Some(UsState::CA) | Some(UsState::MA) | Some(UsState::NY)
            )
        });
        assert!(
            has_ca_male || has_planted_state,
            "expected planted structure, got: {:?}",
            e.similarity
                .groups
                .iter()
                .map(|g| g.label.clone())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn eclipse_diversity_tab_shows_controversy() {
        let d = dataset();
        let miner = Miner::new(&d);
        let settings = SearchSettings::default()
            .with_require_geo(false)
            .with_min_coverage(0.15)
            .with_max_groups(2);
        let e = miner
            .explain(&ItemQuery::title("The Twilight Saga: Eclipse"), &settings)
            .unwrap();
        let means: Vec<f64> = e
            .diversity
            .groups
            .iter()
            .map(|g| g.stats.mean().unwrap())
            .collect();
        assert_eq!(means.len(), 2);
        assert!(
            (means[0] - means[1]).abs() > 1.2,
            "controversial movie should split, got {means:?}"
        );
        // The overall mean sits in the middle — the "useless average" the
        // paper motivates against (4.8/10 ≈ 2.4/5).
        let overall = e.total.mean().unwrap();
        assert!((1.8..=3.2).contains(&overall), "overall {overall}");
    }

    #[test]
    fn unknown_title_errors() {
        let d = dataset();
        let miner = Miner::new(&d);
        let err = miner
            .explain(
                &ItemQuery::title("No Such Movie"),
                &SearchSettings::default(),
            )
            .unwrap_err();
        assert!(matches!(err, MineError::NoMatchingItems(_)));
    }

    #[test]
    fn invalid_settings_propagate() {
        let d = dataset();
        let miner = Miner::new(&d);
        let err = miner
            .explain(
                &ItemQuery::title("Toy Story"),
                &SearchSettings::default().with_max_groups(0),
            )
            .unwrap_err();
        assert!(matches!(err, MineError::InvalidSettings(_)));
    }

    #[test]
    fn multi_item_query_mines_union_of_ratings() {
        let d = dataset();
        let miner = Miner::new(&d);
        let settings = SearchSettings::default().with_min_coverage(0.1);
        let single = miner
            .explain(
                &ItemQuery::title("The Lord of the Rings: The Two Towers"),
                &settings,
            )
            .unwrap();
        let trilogy = miner
            .explain(
                &ItemQuery::new(crate::query::QueryTerm::TitleContains(
                    "Lord of the Rings".into(),
                )),
                &settings,
            )
            .unwrap();
        assert_eq!(trilogy.items.len(), 3);
        assert!(trilogy.num_ratings > single.num_ratings);
    }

    #[test]
    fn budgeted_explain_matches_plain_explain_and_expires_cleanly() {
        let d = dataset();
        let miner = Miner::new(&d);
        let settings = SearchSettings::default().with_min_coverage(0.1);
        let query = ItemQuery::title("Toy Story");
        let plain = miner.explain(&query, &settings).unwrap();
        let generous = Budget::from_deadline_ms(120_000);
        let budgeted = miner.explain_budget(&query, &settings, &generous).unwrap();
        assert_eq!(
            format!("{:?}", plain.similarity.groups),
            format!("{:?}", budgeted.similarity.groups)
        );
        assert_eq!(plain.diversity.objective, budgeted.diversity.objective);

        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        let err = miner
            .explain_budget(&query, &settings, &expired)
            .unwrap_err();
        assert!(matches!(err, MineError::DeadlineExceeded));
    }

    #[test]
    fn render_text_is_complete() {
        let d = dataset();
        let miner = Miner::new(&d);
        let e = miner
            .explain(
                &ItemQuery::title("Toy Story"),
                &SearchSettings::default().with_min_coverage(0.1),
            )
            .unwrap();
        let text = e.render_text();
        assert!(text.contains("Similarity Mining"));
        assert!(text.contains("Diversity Mining"));
        assert!(text.contains("overall average"));
    }
}
